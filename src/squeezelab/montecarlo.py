"""Monte-Carlo harness: trial batteries, saturation reports, angle tracking.

Trials are embarrassingly parallel and the per-trial RNG streams are
keyed by (seed, trial index), so a report is a pure function of
(config, seed): running on one worker or many, or permuting trial order,
changes nothing.  Aggregation happens after a deterministic in-order
merge of the per-worker chunks.

Angle statistics are circular modulo pi: means via the doubled-angle
resultant, residuals wrapped to (-pi/2, pi/2].
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import StateParams, SymMatrix3, empirical_family
from .bounds import (
    BoundVector,
    crb_dhd,
    crb_homodyne,
    crb_quantum,
    fit_variance_prediction,
)
from .estimators import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    METHOD_DHD,
    METHOD_FIT,
    METHOD_MOM,
    METHODS,
    dhd_estimate,
    fit_estimate,
    mom_estimate,
)
from .simulate import (
    DriftModel,
    ScanConfig,
    sample_dhd,
    sample_homodyne_scan,
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

INF = float("inf")


def circular_mean_pi(angles: np.ndarray) -> float:
    """Mean of angles defined modulo pi, via the doubled-angle resultant."""
    a = 2.0 * np.asarray(angles, dtype=float)
    m = 0.5 * math.atan2(float(np.mean(np.sin(a))), float(np.mean(np.cos(a))))
    return m % math.pi


def wrap_half_pi(delta) -> np.ndarray:
    """Wrap angle differences (mod pi) into (-pi/2, pi/2]."""
    d = np.mod(np.asarray(delta, dtype=float), math.pi)
    d[d > math.pi / 2] -= math.pi
    return d


@dataclass(frozen=True)
class TrialReport:
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
    estimates: np.ndarray | None = None


def worker_count(workers: int, trials: int) -> int:
    """Worker processes worth starting: min(workers, trials, cpu count)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, trials, os.cpu_count() or 1)


def _estimate_trial(methods, truth: StateParams, scan_cfg: ScanConfig,
                    mu: int, seed: int, trial: int, tol: float, max_iter: int):
    """One trial's estimate for each of ``methods``, in order.

    Methods of one data kind share the trial's draw, and MoM is seeded
    from the fit of that scan (the same fit when fit is among the methods).
    """
    out = {}
    if METHOD_DHD in methods:
        batch = sample_dhd(truth, mu, seed=seed, trial=trial)
        out[METHOD_DHD] = dhd_estimate(batch, compute_cov=False)
    if METHOD_FIT in methods or METHOD_MOM in methods:
        scan = sample_homodyne_scan(truth, scan_cfg, seed=seed, trial=trial)
        fit = None
        if METHOD_FIT in methods:
            fit = out[METHOD_FIT] = fit_estimate(scan)
        if METHOD_MOM in methods:
            out[METHOD_MOM] = mom_estimate(scan, tol=tol, max_iter=max_iter,
                                           compute_cov=False, fit=fit)
    return [out[m] for m in methods]


def _collect_range(args):
    """Worker entry point: per-method arrays for trials [t0, t1). Picklable args."""
    (truth, methods, scan_cfg, mu, seed, t0, t1, tol, max_iter) = args
    count = t1 - t0
    parts = [
        (np.empty((count, 3)), np.empty(count, dtype=bool), np.empty(count, dtype=np.int64))
        for _ in methods
    ]
    for i, trial in enumerate(range(t0, t1)):
        results = _estimate_trial(methods, truth, scan_cfg, mu, seed, trial, tol, max_iter)
        for (est, physical, iters), r in zip(parts, results):
            est[i] = (r.params.s, r.params.kappa, r.params.phi_s)
            physical[i] = r.physical
            iters[i] = r.iterations
    return parts


def collect_estimates(
    truth: StateParams,
    method,
    trials: int,
    seed: int = 0,
    scan_config: ScanConfig | None = None,
    mu: int = 900,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    workers: int = 1,
):
    """Per-trial estimates as arrays: (params (T,3), physical (T,), iterations (T,)).

    ``method`` is one method name, or a tuple of names that share each
    trial's draw (fit and MoM estimate the same scan, and MoM is seeded
    from that fit); a tuple gives a list of such triples, one per name.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    workers = worker_count(workers, trials)
    cfg = scan_config or ScanConfig()
    base = (truth, methods, cfg, mu, seed)
    opts = (tol, max_iter)
    if workers == 1:
        parts = _collect_range(base + (0, trials) + opts)
    else:
        bounds_list = np.linspace(0, trials, workers + 1).astype(int)
        jobs = [
            base + (int(bounds_list[i]), int(bounds_list[i + 1])) + opts
            for i in range(workers)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_collect_range, jobs))
        parts = [
            tuple(np.concatenate([chunk[j][k] for chunk in chunks]) for k in range(3))
            for j in range(len(methods))
        ]
    return parts[0] if isinstance(method, str) else parts


def _stats(est: np.ndarray, truth: StateParams):
    """(variances, biases, covariance) with circular angle handling."""
    s_col = est[:, 0]
    k_col = est[:, 1]
    cmean = circular_mean_pi(est[:, 2])
    r_phi = wrap_half_pi(est[:, 2] - cmean)
    bias = (
        float(np.mean(s_col)) - truth.s,
        float(np.mean(k_col)) - truth.kappa,
        float(wrap_half_pi(np.array([cmean - truth.phi_s]))[0]),
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
    keep_estimates: bool = False,
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
        estimates=est if keep_estimates else None,
    )


def _method_reports(truth, methods, trials, cfg, mu, policy, keep_estimates=False,
                    **collect_opts) -> list[TrialReport]:
    """One report per method, all methods estimated on shared draws."""
    parts = collect_estimates(truth, tuple(methods), trials, scan_config=cfg, mu=mu,
                              **collect_opts)
    return [
        aggregate_estimates(
            est, physical, iters, truth, method,
            mu if method == METHOD_DHD else cfg.n_psi,
            policy=policy, keep_estimates=keep_estimates,
        )
        for method, (est, physical, iters) in zip(methods, parts)
    ]


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
    keep_estimates: bool = False,
) -> TrialReport:
    """Fresh scan/batch per trial, estimate, aggregate."""
    return _method_reports(
        truth, (method,), trials, scan_config or ScanConfig(), mu, policy,
        keep_estimates, seed=seed, tol=tol, max_iter=max_iter, workers=workers,
    )[0]


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
    reports equal those of separate run_trials calls.
    """
    cfg = scan_config or ScanConfig()
    reports = []
    for s in s_values:
        truth = empirical_family(s, phi_s) if kappa is None else StateParams(s, kappa, phi_s)
        reports.extend(
            _method_reports(truth, methods, trials, cfg, mu, policy, seed=seed,
                            tol=tol, max_iter=max_iter, workers=workers)
        )
    return reports


def theory_curves(truth: StateParams, n_samples: int) -> dict[str, BoundVector]:
    """All four theoretical variance curves at one parameter point."""
    return {
        "crb_homodyne": crb_homodyne(truth, n_samples),
        "fit_prediction": fit_variance_prediction(truth, n_samples),
        "crb_dhd": crb_dhd(truth, n_samples),
        "crb_quantum": crb_quantum(truth, n_samples),
    }


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

    One scan per drift step; each scan's estimate seeds the next scan's
    prior (the first scan seeds itself from the fit).  The reported
    half-width is the predicted angle standard error sqrt([F^-1]_pp) at
    the per-scan estimate; the correlation-time fit uses the mean squared
    half-width as its measurement-noise floor.
    """
    cfg = scan_config or ScanConfig()
    offsets = simulate_phase_drift(drift, duration, seed=seed)
    n = len(offsets)
    if n < 2:
        raise ValueError("duration must cover at least 2 scans")
    times = np.arange(n) * drift.step_interval
    phi_true = base.phi_s + offsets

    phi_est = np.empty(n)
    half_width = np.empty(n)
    s_est = np.empty(n)
    kappa_est = np.empty(n)
    iters = np.empty(n, dtype=np.int64)
    prior = None
    for k in range(n):
        truth_k = StateParams(base.s, base.kappa, phi_true[k])
        scan = sample_homodyne_scan(truth_k, cfg, seed=seed, trial=k)
        r = mom_estimate(scan, prior=prior, tol=tol, max_iter=max_iter)
        phi_est[k] = r.params.phi_s
        s_est[k] = r.params.s
        kappa_est[k] = r.params.kappa
        iters[k] = r.iterations
        if r.predicted_cov is not None and r.predicted_cov.pp > 0:
            half_width[k] = math.sqrt(r.predicted_cov.pp)
        else:
            half_width[k] = float("nan")
        prior = r.params if r.physical else None

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
