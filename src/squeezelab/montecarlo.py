"""Monte-Carlo harness: trial batteries, saturation reports, angle tracking.

Trials are embarrassingly parallel and the per-trial RNG streams are
keyed by (seed, trial index), so a report is a pure function of
(config, seed): running on one worker or many, or permuting trial order,
changes nothing.  Aggregation happens after a deterministic in-order
merge of the per-worker chunks; a sweep hands the chunks of all its
truths to one process pool.

Within a chunk the trials are drawn and estimated in blocks of
BLOCK_TRIALS: the sampler does the per-truth work once and draws each
trial's row from that trial's own stream, each scan block is prepared once
(``ScanBlock.of``: the sampler's harmonics and the checked squares) for the
fit and MoM, the fit and DHD reduce the whole block at once, and MoM
iterates the block seeded from the block's fit columns, reducing the rows
not yet converged together and updating each row on its own.
Each method hands a block on as columns (``estimators.Estimates``), and
one loop over the DHD blocks and one over the scan blocks store them by
slice in the chunk's preallocated per-method arrays, so a sweep builds no
result object per trial; the chunks are merged the same way for one worker
or many.
Every row is computed as in a separate single-trial call, so the
estimates do not depend on the block size or on where a chunk starts, and
the constant block size caps the memory a block takes.  ``track_angle``
estimates its rows in order, each from MoM's finished row, with no result
object per scan.

Angle statistics are circular modulo pi: means via the doubled-angle
resultant, residuals wrapped to (-pi/2, pi/2].
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds
from .model import SingularMatrixError, StateParams, SymMatrix3, empirical_family
from .bounds import (
    BoundVector,
    crb_dhd,
    crb_homodyne,
    fit_variance_prediction,
)
from .estimators import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    METHOD_DHD,
    METHOD_FIT,
    METHOD_MOM,
    METHODS,
    MIN_SAMPLES,
    ScanBlock,
    _mom_seeded,
    dhd_columns,
    fit_columns,
    mom_columns,
)
from .simulate import (
    DriftModel,
    ScanConfig,
    sample_dhd_blocks,
    sample_scan_blocks,
    simulate_phase_drift,
)

__all__ = [
    "TrialReport",
    "TrackResult",
    "POLICY_INCLUDE",
    "POLICY_EXCLUDE",
    "POLICIES",
    "worker_count",
    "collect_estimates",
    "aggregate_estimates",
    "run_trials",
    "sweep_family",
    "track_angle",
    "autocorrelation_time",
]

POLICY_INCLUDE = "include"
POLICY_EXCLUDE = "exclude"
POLICIES = (POLICY_INCLUDE, POLICY_EXCLUDE)

# trials drawn and estimated together: enough to spread the per-call costs,
# few enough that a block of 900-sample scans or DHD batches, with its
# temporaries, stays within a few hundred kB
BLOCK_TRIALS = 16


def circular_mean_pi(angles: np.ndarray) -> float:
    """Mean of angles defined modulo pi, via the doubled-angle resultant."""
    a = 2.0 * np.asarray(angles, dtype=float)
    m = 0.5 * math.atan2(float(np.mean(np.sin(a))), float(np.mean(np.cos(a))))
    return m % math.pi


def wrap_half_pi(delta) -> np.ndarray:
    """Wrap angle differences (mod pi), an array or a scalar, into (-pi/2, pi/2]."""
    d = np.mod(np.asarray(delta, dtype=float), math.pi)
    return np.where(d > math.pi / 2, d - math.pi, d)


@dataclass(frozen=True)
class TrialReport:
    """One method's trial statistics at one truth; its fields are the JSON mirror."""

    truth: StateParams
    method: str
    trials: int
    n_samples: int
    policy: str
    bound: BoundVector
    prediction: BoundVector | None
    empirical_cov: SymMatrix3
    var_all: tuple[float, float, float]
    var_physical: tuple[float, float, float] | None
    bias_all: tuple[float, float, float]
    saturation_ratio: tuple[float, float, float]
    ratio_stderr: tuple[float, float, float]
    prediction_ratio: tuple[float, float, float] | None
    nonphysical_rate: float
    n_physical: int
    mean_iterations: float


def worker_count(workers: int, trials: int) -> int:
    """Worker processes worth starting: min(workers, trials, cpu count)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, trials, os.cpu_count() or 1)


def _collect_range(args):
    """Worker entry point (picklable args): per-method (params, physical,
    iterations) arrays for trials [t0, t1), in blocks of BLOCK_TRIALS.
    Methods of one data kind share each trial's draw, and MoM is seeded
    from the fit columns of that scan block (the same fit when fit is among
    the methods).
    """
    (truth, methods, scan_cfg, mu, seed, t0, t1, tol, max_iter) = args
    count = t1 - t0
    parts = {
        m: (np.empty((count, 3)), np.empty(count, dtype=bool), np.empty(count, dtype=np.int64))
        for m in methods
    }
    blocks = [range(b, min(b + BLOCK_TRIALS, t1)) for b in range(t0, t1, BLOCK_TRIALS)]

    def store(method, trials, est):
        params, physical, iterations = parts[method]
        rows = slice(trials.start - t0, trials.stop - t0)
        params[rows], physical[rows], iterations[rows] = est.params, est.physical, est.iterations

    if METHOD_DHD in methods:
        for trials, qp in zip(blocks, sample_dhd_blocks(truth, mu, seed, blocks)):
            store(METHOD_DHD, trials, dhd_columns(qp[..., 0], qp[..., 1]))
    if METHOD_FIT in methods or METHOD_MOM in methods:
        drawn = sample_scan_blocks(truth, scan_cfg, seed, blocks)
        for trials, (phases, harmonics, q) in zip(blocks, drawn):
            block = ScanBlock.of(phases, q, harmonics)
            fit = fit_columns(block)
            if METHOD_FIT in methods:
                store(METHOD_FIT, trials, fit)
            if METHOD_MOM in methods:
                store(METHOD_MOM, trials, mom_columns(block, fit, tol, max_iter))
    return [parts[m] for m in methods]


def _collect_truths(truths, methods: tuple, trials: int, seed: int, cfg: ScanConfig,
                    mu: int, tol: float, max_iter: int, workers: int) -> list:
    """``collect_estimates`` parts for each truth, in order.

    With more than one worker every truth's trials are split into chunks
    and the chunks of all truths go to one process pool.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if (METHOD_FIT in methods or METHOD_MOM in methods) and cfg.n_psi < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples per scan, got n_psi={cfg.n_psi}")
    if METHOD_DHD in methods and mu < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} repetitions per DHD batch, got mu={mu}")
    workers = worker_count(workers, trials)
    edges = np.linspace(0, trials, workers + 1).astype(int).tolist()
    jobs = [
        (truth, methods, cfg, mu, seed, edges[i], edges[i + 1], tol, max_iter)
        for truth in truths
        for i in range(workers)
    ]
    if workers == 1:
        chunks = [_collect_range(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_collect_range, jobs))
    # a truth's chunks are consecutive; join each method's arrays across them
    return [
        [tuple(map(np.concatenate, zip(*parts))) for parts in zip(*chunks[t:t + workers])]
        for t in range(0, len(chunks), workers)
    ]


def collect_estimates(
    truth: StateParams,
    method: str,
    trials: int,
    seed: int = 0,
    scan_config: ScanConfig | None = None,
    mu: int = 900,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    workers: int = 1,
):
    """One method's per-trial estimates: (params (T,3), physical (T,), iterations (T,))."""
    return _collect_truths([truth], (method,), trials, seed, scan_config or ScanConfig(),
                           mu, tol, max_iter, workers)[0][0]


def _stats(est: np.ndarray, truth: StateParams):
    """(variances, biases, covariance) with circular angle handling."""
    s_col = est[:, 0]
    k_col = est[:, 1]
    cmean = circular_mean_pi(est[:, 2])
    r_phi = wrap_half_pi(est[:, 2] - cmean)
    bias = (
        float(np.mean(s_col)) - truth.s,
        float(np.mean(k_col)) - truth.kappa,
        float(wrap_half_pi(cmean - truth.phi_s)),
    )
    resid = np.column_stack([s_col - s_col.mean(), k_col - k_col.mean(), r_phi - r_phi.mean()])
    cov = resid.T @ resid / (len(est) - 1)
    var = (float(cov[0, 0]), float(cov[1, 1]), float(cov[2, 2]))
    return var, bias, SymMatrix3.from_array(cov)


def _ratio(var: tuple, bound: BoundVector) -> tuple[float, float, float]:
    out = []
    for v, b in zip(var, bound.as_tuple()):
        out.append(0.0 if math.isinf(b) else v / b)
    return tuple(out)


def method_bound(method: str, truth: StateParams, n_samples: int) -> BoundVector:
    """The variance lower bound an estimator of this method competes with."""
    if method == METHOD_DHD:
        return crb_dhd(truth, n_samples)
    return crb_homodyne(truth, n_samples)


def aggregate_estimates(
    est: np.ndarray,
    physical: np.ndarray,
    iterations: np.ndarray,
    truth: StateParams,
    method: str,
    n_samples: int,
    policy: str = POLICY_INCLUDE,
) -> TrialReport:
    """Fold per-trial estimates into a TrialReport.

    Not order-sensitive: every statistic is a symmetric function of the
    trial set.  Both the include-all and physical-only variance figures
    are always reported; ``policy`` picks which one feeds the headline
    saturation ratio.
    """
    trials = len(est)
    if trials < 2:
        raise ValueError("need at least 2 trials to form variances")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")

    bound = method_bound(method, truth, n_samples)
    prediction = fit_variance_prediction(truth, n_samples) if method == METHOD_FIT else None

    var_all, bias_all, cov_all = _stats(est, truth)
    n_phys = int(np.count_nonzero(physical))
    var_phys = None
    cov_phys = None
    if n_phys >= 2:
        var_phys, _, cov_phys = _stats(est[physical], truth)

    if policy == POLICY_EXCLUDE and var_phys is not None:
        headline_var, headline_cov, n_used = var_phys, cov_phys, n_phys
    else:
        headline_var, headline_cov, n_used = var_all, cov_all, trials

    ratio = _ratio(headline_var, bound)
    stderr_scale = math.sqrt(2.0 / (n_used - 1))
    ratio_stderr = tuple(r * stderr_scale for r in ratio)
    pred_ratio = _ratio(headline_var, prediction) if prediction is not None else None

    return TrialReport(
        truth=truth,
        method=method,
        trials=trials,
        n_samples=n_samples,
        policy=policy,
        bound=bound,
        prediction=prediction,
        empirical_cov=headline_cov,
        var_all=var_all,
        var_physical=var_phys,
        bias_all=bias_all,
        saturation_ratio=ratio,
        ratio_stderr=ratio_stderr,
        prediction_ratio=pred_ratio,
        nonphysical_rate=1.0 - n_phys / trials,
        n_physical=n_phys,
        mean_iterations=float(np.mean(iterations)),
    )


def run_trials(
    truth: StateParams,
    method: str,
    trials: int,
    seed: int = 0,
    scan_config: ScanConfig | None = None,
    mu: int = 900,
    policy: str = POLICY_INCLUDE,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    workers: int = 1,
) -> TrialReport:
    """Fresh scan/batch per trial, estimate, aggregate."""
    return sweep_family([truth.s], (method,), trials, seed, scan_config, mu,
                        phi_s=truth.phi_s, kappa=truth.kappa, policy=policy, tol=tol,
                        max_iter=max_iter, workers=workers)[0]


def sweep_family(
    s_values,
    methods,
    trials: int,
    seed: int = 0,
    scan_config: ScanConfig | None = None,
    mu: int = 900,
    phi_s: float = 0.0,
    kappa: float | None = None,
    policy: str = POLICY_INCLUDE,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    workers: int = 1,
) -> list[TrialReport]:
    """run_trials over an s-grid, kappa = 1/sqrt(s) unless fixed.

    Methods sharing a data kind at the same (seed, s) see identical data:
    each trial's scan is drawn once and estimated by both fit and MoM, as
    in the source experiment, and MoM is seeded from that fit.  The
    reports equal those of separate run_trials calls; with several
    workers, one process pool serves every s value.  Fewer than 2 trials,
    or scans or DHD batches of fewer than MIN_SAMPLES samples, raise
    ValueError before any draw.
    """
    truths = [
        empirical_family(s, phi_s) if kappa is None else StateParams(s, kappa, phi_s)
        for s in s_values
    ]
    methods = tuple(methods)
    if trials < 2:
        raise ValueError(f"need at least 2 trials to form variances, got {trials}")
    cfg = scan_config or ScanConfig()
    all_parts = _collect_truths(truths, methods, trials, seed, cfg, mu, tol, max_iter,
                                workers)
    return [
        aggregate_estimates(
            est, physical, iters, truth, method,
            mu if method == METHOD_DHD else cfg.n_psi, policy=policy,
        )
        for truth, parts in zip(truths, all_parts)
        for method, (est, physical, iters) in zip(methods, parts)
    ]


@dataclass(frozen=True)
class TrackResult:
    times: np.ndarray
    phi_true: np.ndarray
    phi_est: np.ndarray
    half_width: np.ndarray
    s_est: np.ndarray
    kappa_est: np.ndarray
    iterations: np.ndarray
    tau_est: float
    noise_floor: float


def autocorrelation_time(series, step_interval: float, noise_floor: float = 0.0) -> float:
    """Correlation time from a noise-corrected AR(1) moment fit.

    With white measurement noise of variance r sitting only at lag 0,
    rho = C(1) / (C(0) - r) estimates the one-step autocorrelation of the
    underlying process, and tau = -dt / ln(rho).  Returns nan when the
    series carries no usable correlation (rho outside (0, 1)).
    """
    y = np.asarray(series, dtype=float)
    if y.size < 3:
        raise ValueError("series too short for a correlation time")
    y = y - y.mean()
    c0 = float(y @ y) / y.size
    c1 = float(y[:-1] @ y[1:]) / y.size
    denom = c0 - noise_floor
    if denom <= 0.0:
        return float("nan")
    rho = c1 / denom
    if not 0.0 < rho < 1.0:
        return float("nan")
    return -step_interval / math.log(rho)


def track_angle(
    drift: DriftModel,
    base: StateParams,
    scan_config: ScanConfig | None = None,
    duration: float = 0.3,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TrackResult:
    """Scan-by-scan MoM tracking of a drifting squeezing angle.

    One scan per drift step, at that step's angle; the scans are drawn in
    blocks of BLOCK_TRIALS, each block is prepared once (``ScanBlock.of``)
    and its rows are estimated one by one, because each scan's physical
    estimate seeds the next scan's prior (else the scan's own fit does).
    The reported half-width is the predicted angle standard error
    sqrt([F^-1]_pp) at a physical estimate, else nan, as for a singular F;
    the correlation-time fit uses the mean squared half-width as its
    measurement-noise floor.
    A duration of fewer than 3 scans, which that fit needs, or scans of
    fewer than MIN_SAMPLES phases raise ValueError before any draw.
    """
    # the scan count simulate_phase_drift draws
    n = int(duration / drift.step_interval) if duration > 0.0 else 0
    if n < 3:
        raise ValueError(f"duration {duration!r} covers {n} scans of step_interval "
                         f"{drift.step_interval!r}; tracking needs at least 3")
    cfg = scan_config or ScanConfig()
    if cfg.n_psi < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples per scan, got n_psi={cfg.n_psi}")
    offsets = simulate_phase_drift(drift, duration, seed=seed)
    times = np.arange(n) * drift.step_interval
    phi_true = base.phi_s + offsets

    truths = [StateParams(base.s, base.kappa, phi) for phi in phi_true]
    blocks = [range(b, min(b + BLOCK_TRIALS, n)) for b in range(0, n, BLOCK_TRIALS)]
    scans = []  # (params, iterations, half-width) of each scan
    prior = None
    drawn = sample_scan_blocks(truths, cfg, seed, blocks)
    for trials, (phases, harmonics, q) in zip(blocks, drawn):
        block = ScanBlock.of(phases, q, harmonics)
        for i in range(len(trials)):
            row = block.row(i)
            (p, physical, iterations, *_), _ = _mom_seeded(row, prior, tol, max_iter)
            prior = StateParams(*p) if physical else None
            try:
                pp = (bounds.fisher_homodyne_discrete(prior, row.phases, harmonics=row.harmonics)
                      .inverse().pp if physical else math.nan)
            except SingularMatrixError:
                pp = math.nan
            scans.append((p, iterations, math.sqrt(pp) if pp > 0 else math.nan))
    params, iters, half_width = zip(*scans)
    s_est, kappa_est, phi_est = np.array(params).T.copy()
    iters = np.array(iters, dtype=np.int64)
    half_width = np.array(half_width)

    # angle residuals about the circular mean; drift stays well inside
    # the +-pi/2 wrap window for any sane amplitude
    resid = wrap_half_pi(phi_est - circular_mean_pi(phi_est))
    finite_hw = half_width[np.isfinite(half_width)]
    noise_floor = float(np.mean(finite_hw**2)) if finite_hw.size else 0.0
    tau_est = autocorrelation_time(resid, drift.step_interval, noise_floor=noise_floor)
    return TrackResult(
        times=times,
        phi_true=phi_true,
        phi_est=phi_est,
        half_width=half_width,
        s_est=s_est,
        kappa_est=kappa_est,
        iterations=iters,
        tau_est=tau_est,
        noise_floor=noise_floor,
    )
