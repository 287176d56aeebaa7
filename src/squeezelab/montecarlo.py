"""Monte-Carlo harness: trial batteries, saturation reports, angle tracking.

Trials are embarrassingly parallel and the per-trial RNG streams are
keyed by (seed, trial index), so a report is a pure function of
(config, seed): running on one worker or many, or permuting trial order,
changes nothing.  Aggregation happens after a deterministic in-order
merge of the per-worker chunks; a sweep cuts its trials into one chunk per
worker, each covering every truth, and hands them to one process pool.

Within a chunk the trials are drawn and estimated in blocks of
BLOCK_TRIALS.  The keys hold no truth, so each block is drawn once per
data kind and coloured for every truth of the sweep in turn.  Each scan
block is prepared once per truth (``ScanBlock.of``) for the fit and MoM,
which is seeded from the block's fit columns.  Each method
hands a block on as columns (``estimators.Estimates``), stored by slice in
the chunk's per-method arrays, so a sweep builds no result object per
trial.  Every row is computed as in a separate single-trial call, so the
estimates do not depend on the block size or on where a chunk starts, and
the constant block size caps the memory a block takes.  ``track_angle``
takes its rows in order through one per-scan step, ``_track_step``, which
hands on floats: no result object per scan.

Angle statistics are circular modulo pi: means via the doubled-angle
resultant, residuals wrapped to (-pi/2, pi/2].
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import bounds
from .model import (SingularMatrixError, StateParams, SymMatrix3, _integer, check_drawn_states,
                    check_harmonic_state, empirical_family)
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
    ScanBlock,
    _check_iteration,
    _check_min_samples,
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
    """Worker entry point (picklable args): for each truth, per-method
    (params, physical, iterations) arrays for trials [t0, t1).

    The trials are walked in blocks of BLOCK_TRIALS, each drawn once per
    data kind and coloured for every truth in turn (``sample_scan_blocks``,
    ``sample_dhd_blocks``), so a sweep draws each trial once whatever its
    number of s values.  Methods of one data kind share each trial's draw,
    and MoM is seeded from the fit columns of that scan block (the same fit
    when fit is among the methods).
    """
    (truths, methods, scan_cfg, mu, seed, t0, t1, tol, max_iter) = args
    count = t1 - t0
    parts = [
        {m: (np.empty((count, 3)), np.empty(count, dtype=bool), np.empty(count, dtype=np.int64))
         for m in methods}
        for _ in truths
    ]
    blocks = [range(b, min(b + BLOCK_TRIALS, t1)) for b in range(t0, t1, BLOCK_TRIALS)]

    def store(part, method, trials, est):
        params, physical, iterations = part[method]
        rows = slice(trials.start - t0, trials.stop - t0)
        params[rows], physical[rows], iterations[rows] = est.params, est.physical, est.iterations

    # the samplers yield each block's truths in turn, as the product lists them
    if METHOD_DHD in methods:
        drawn = sample_dhd_blocks(truths, mu, seed, blocks)
        for (trials, part), qp in zip(itertools.product(blocks, parts), drawn):
            store(part, METHOD_DHD, trials, dhd_columns(qp[..., 0], qp[..., 1]))
    if METHOD_FIT in methods or METHOD_MOM in methods:
        drawn = sample_scan_blocks(truths, scan_cfg, seed, blocks)
        for (trials, part), (phases, harmonics, q) in zip(itertools.product(blocks, parts), drawn):
            block = ScanBlock.of(phases, q, harmonics)
            fit = fit_columns(block)
            if METHOD_FIT in methods:
                store(part, METHOD_FIT, trials, fit)
            if METHOD_MOM in methods:
                store(part, METHOD_MOM, trials, mom_columns(block, fit, tol, max_iter))
    return [[part[m] for m in methods] for part in parts]


def _collect_truths(truths, methods: tuple, trials: int, seed: int, cfg: ScanConfig,
                    mu: int, tol: float, max_iter: int, workers: int) -> list:
    """``collect_estimates`` parts for each truth, in order.

    The seed, mu and truths are checked by the samplers' rules, DHD's
    first, before any draw.  The trials are cut into one chunk per worker,
    each covering every truth, so each trial is drawn once per data kind;
    with more than one worker the chunks go to one process pool.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_iteration(tol, max_iter)
    _integer("seed", seed)
    if METHOD_FIT in methods or METHOD_MOM in methods:
        _check_min_samples(cfg.n_psi, "n_psi")
    if METHOD_DHD in methods:
        _check_min_samples(_integer("mu", mu), "mu", dhd=True)
    for truth in truths:
        if METHOD_DHD in methods:
            check_drawn_states(*truth.as_tuple())
        if METHOD_FIT in methods or METHOD_MOM in methods:
            check_harmonic_state(*truth.as_tuple(), "truth")
    workers = worker_count(workers, trials)
    edges = np.linspace(0, trials, workers + 1).astype(int).tolist()
    jobs = [(truths, methods, cfg, mu, seed, edges[i], edges[i + 1], tol, max_iter)
            for i in range(workers)]
    if workers == 1:
        chunks = [_collect_range(job) for job in jobs]
    else:
        # imported here: it loads multiprocessing, which one worker never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_collect_range, jobs))
    # join each truth's method arrays across the chunks, in trial order
    return [
        [tuple(map(np.concatenate, zip(*parts))) for parts in zip(*truth_parts)]
        for truth_parts in zip(*chunks)
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


def _check_report(trials: int, policy: str) -> None:
    """Raise ValueError unless a report has 2 or more trials and a known policy."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials to form variances, got {trials}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")


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
    _check_report(trials, policy)

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
    in the source experiment, and MoM is seeded from that fit.  Each trial
    is drawn once per data kind for the whole sweep and coloured for every
    s value.  The reports equal those of separate run_trials calls; with
    several workers, one process pool takes one chunk of trials per
    worker, each covering every s value.  What a report, a sampler or MoM
    would refuse, fewer than MIN_SAMPLES samples per scan or DHD batch
    included, raises ValueError before any draw.
    """
    truths = [
        empirical_family(s, phi_s) if kappa is None else StateParams(s, kappa, phi_s)
        for s in s_values
    ]
    methods = tuple(methods)
    _check_report(trials, policy)
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


def _track_step(row, prior, cfg: ScanConfig, tol: float, max_iter: int) -> tuple:
    """One tracked scan's estimate from its ``ScanBlock.row`` under ``cfg``
    and the previous physical estimate ``prior``, a float triple or None:
    ((s, kappa, phi_s), physical, iterations, half-width).  MoM starts from
    the prior, else from the scan's own fit (``estimators._mom_seeded``).

    The half-width is the predicted angle standard error sqrt([F^-1]_pp) at
    a physical estimate, else nan, as for a singular F (s = 1).  On an
    equispaced grid where ``bounds.phase_average_is_exact`` holds at the
    estimate, [F^-1]_pp is ``bounds.crb_homodyne``'s var_phi, the grid's F
    to rounding; elsewhere (random phases, coarse grids, small s) it is the
    inverse of ``bounds.fisher_homodyne_discrete`` on the scan's phases.
    """
    psi, h, x = row
    (p, physical, iterations, *_), _ = _mom_seeded(h, x, prior, tol, max_iter)
    # m: the distinct doubled angles of the equispaced grid
    m = cfg.n_psi // math.gcd(cfg.n_psi, cfg.n)
    if not physical:
        pp = math.nan
    elif cfg.spacing == "equispaced" and bounds.phase_average_is_exact(p[0], m):
        pp = bounds._crb_var_phi(p[0], cfg.n_psi)
    else:
        try:
            pp = bounds.fisher_homodyne_discrete(StateParams(*p), psi, harmonics=h).inverse().pp
        except SingularMatrixError:
            pp = math.nan
    return p, physical, iterations, math.sqrt(pp) if 0.0 < pp < math.inf else math.nan


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

    One scan per drift step, at that step's angle (the sampler's truth per
    scan), drawn in blocks of BLOCK_TRIALS; each block is prepared once
    (``ScanBlock.of``) and its rows go in order through ``_track_step``,
    each seeded from the previous physical estimate.  The correlation-time
    fit takes the mean squared finite half-width as its measurement-noise
    floor.  A duration that is not finite or covers fewer than 3 scans, which
    that fit needs, and what the scan sampler or MoM would refuse, fewer
    than MIN_SAMPLES phases included, raise ValueError before any draw.
    """
    _check_iteration(tol, max_iter)
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    # the scan count simulate_phase_drift draws
    n = int(duration / drift.step_interval) if duration > 0.0 else 0
    if n < 3:
        raise ValueError(f"duration {duration!r} covers {n} scans of step_interval "
                         f"{drift.step_interval!r}; tracking needs at least 3")
    cfg = scan_config or ScanConfig()
    _check_min_samples(cfg.n_psi, "n_psi")
    check_harmonic_state(*base.as_tuple(), "truth")
    phi_true = base.phi_s + simulate_phase_drift(drift, duration, seed=seed)

    truths = [StateParams(base.s, base.kappa, phi) for phi in phi_true]
    blocks = [range(b, min(b + BLOCK_TRIALS, n)) for b in range(0, n, BLOCK_TRIALS)]
    scans = []  # (params, physical, iterations, half-width) of each scan
    prior = None
    drawn = sample_scan_blocks([truths], cfg, seed, blocks)
    for trials, (phases, harmonics, q) in zip(blocks, drawn):
        block = ScanBlock.of(phases, q, harmonics)
        for i in range(len(trials)):
            scan = _track_step(block.row(i), prior, cfg, tol, max_iter)
            prior = scan[0] if scan[1] else None
            scans.append(scan)
    params, _, iters, half_width = zip(*scans)
    s_est, kappa_est, phi_est = np.array(params).T.copy()
    iters = np.array(iters, dtype=np.int64)
    half_width = np.array(half_width)

    # angle residuals about the circular mean; drift stays well inside
    # the +-pi/2 wrap window for any sane amplitude
    resid = wrap_half_pi(phi_est - circular_mean_pi(phi_est))
    finite_hw = half_width[np.isfinite(half_width)]
    noise_floor = float(np.mean(finite_hw**2)) if finite_hw.size else 0.0
    tau_est = autocorrelation_time(resid, drift.step_interval, noise_floor=noise_floor)
    return TrackResult(times=np.arange(n) * drift.step_interval, phi_true=phi_true,
                       phi_est=phi_est, half_width=half_width, s_est=s_est,
                       kappa_est=kappa_est, iterations=iters, tau_est=tau_est,
                       noise_floor=noise_floor)
