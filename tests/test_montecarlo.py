"""Trial harness checks: determinism, aggregation, bias, tracking."""

import concurrent.futures
import math
import os
import re
from collections import Counter

import numpy as np
import pytest
from conftest import closed_form_half_width_tol
from hypothesis import example, given, settings, strategies as st

from squeezelab import (
    DriftModel,
    ScanConfig,
    StateParams,
    aggregate_estimates,
    autocorrelation_time,
    collect_estimates,
    crb_dhd,
    crb_homodyne,
    dhd_estimate,
    empirical_family,
    fit_estimate,
    grid_harmonics,
    mom_estimate,
    run_trials,
    sample_dhd,
    sample_homodyne_scan,
    simulate_phase_drift,
    sweep_family,
    track_angle,
)
from squeezelab import bounds, estimators, montecarlo, simulate
from squeezelab.io import report_csv_lines
from squeezelab.montecarlo import circular_mean_pi, method_bound, worker_count, wrap_half_pi


# ------------------------------------------------------------ helpers


def test_circular_mean_wraps_across_pi():
    m = circular_mean_pi(np.array([0.05, math.pi - 0.05]))
    assert min(m, math.pi - m) < 1e-12
    assert circular_mean_pi(np.array([1.5, 1.6])) == pytest.approx(1.55, abs=1e-12)


def test_wrap_half_pi_range():
    d = wrap_half_pi(np.array([0.2, math.pi - 0.1, -math.pi + 0.3, 4 * math.pi + 0.01]))
    assert np.allclose(d, [0.2, -0.1, 0.3, 0.01], atol=1e-12)
    grid = wrap_half_pi(np.linspace(-10.0, 10.0, 401))
    assert np.all(grid > -math.pi / 2) and np.all(grid <= math.pi / 2 + 1e-15)


def test_wrap_half_pi_takes_a_scalar():
    """A Python float, a numpy scalar and a 0-d array wrap to the bits of
    the array path's element, which are those of a masked subtraction."""
    x = np.concatenate([np.linspace(-10.0, 10.0, 401),
                        [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, 1e300, -1e-300]])
    got = wrap_half_pi(x)
    want = np.mod(x, math.pi)
    want[want > math.pi / 2] -= math.pi
    assert got.tobytes() == want.tobytes()
    for v, w in zip(x.tolist(), got):
        for arg in (v, np.float64(v), np.array(v)):
            one = wrap_half_pi(arg)
            assert np.ndim(one) == 0 and np.float64(one).tobytes() == w.tobytes()


def test_method_bound_dispatch():
    p = StateParams(0.4, 1.6, 0.2)
    assert method_bound("fit", p, 900).as_tuple() == crb_homodyne(p, 900).as_tuple()
    assert method_bound("mom", p, 900).as_tuple() == crb_homodyne(p, 900).as_tuple()
    assert method_bound("dhd", p, 500).as_tuple() == crb_dhd(p, 500).as_tuple()


# ------------------------------------------------------------ collection


def test_collect_estimates_worker_invariance():
    """Chunked parallel collection merges to the exact serial arrays."""
    truth = empirical_family(0.3, 0.3)
    cfg = ScanConfig(n_psi=300)
    serial = collect_estimates(truth, "fit", 60, seed=0, scan_config=cfg, workers=1)
    parallel = collect_estimates(truth, "fit", 60, seed=0, scan_config=cfg, workers=3)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_collect_validation():
    truth = StateParams(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        collect_estimates(truth, "fit", 0)
    with pytest.raises(ValueError):
        collect_estimates(truth, "kalman", 2)


def test_one_trial_is_refused_before_any_draw(monkeypatch):
    """sweep_family and run_trials need 2 trials for a variance and say so
    before drawing; collect_estimates keeps its minimum of 1."""
    truth = StateParams(0.5, 2.0, 0.3)
    cfg = ScanConfig(n_psi=16)
    one = collect_estimates(truth, "mom", 1, scan_config=cfg)
    assert [len(a) for a in one] == [1, 1, 1]

    def no_draw(*args):
        raise AssertionError("drew trials")

    monkeypatch.setattr(montecarlo, "sample_scan_blocks", no_draw)
    monkeypatch.setattr(montecarlo, "sample_dhd_blocks", no_draw)
    for trials in (1, 0):
        with pytest.raises(ValueError, match="need at least 2 trials"):
            sweep_family((0.3, 0.5), ("fit", "mom", "dhd"), trials, scan_config=cfg)
        with pytest.raises(ValueError, match="need at least 2 trials"):
            run_trials(truth, "dhd", trials)


def test_worker_count_clamps_and_rejects():
    """Checked on the helper alone: no process is started."""
    for bad in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            worker_count(bad, 100)
    assert worker_count(10**6, 50) == min(50, os.cpu_count())
    assert worker_count(10**6, 10**9) == os.cpu_count()
    assert worker_count(1, 10**9) == 1


# ------------------------------------------------------------ aggregation


def _synthetic_battery(trials=400, bad=40):
    rng = np.random.default_rng(1)
    truth = StateParams(0.5, 2.0, 0.3)
    est = np.column_stack([
        truth.s + 0.02 * rng.standard_normal(trials),
        truth.kappa + 0.05 * rng.standard_normal(trials),
        truth.phi_s + 0.03 * rng.standard_normal(trials),
    ])
    physical = np.ones(trials, dtype=bool)
    physical[:bad] = False
    est[:bad, 0] += 0.3  # flagged trials sit off to the side
    iters = np.full(trials, 3, dtype=np.int64)
    return truth, est, physical, iters


def test_aggregate_order_independent():
    truth, est, physical, iters = _synthetic_battery()
    a = aggregate_estimates(est, physical, iters, truth, "fit", 900)
    perm = np.random.default_rng(7).permutation(len(est))
    b = aggregate_estimates(est[perm], physical[perm], iters[perm], truth, "fit", 900)
    assert a.n_physical == b.n_physical
    assert np.allclose(a.var_all, b.var_all, rtol=1e-12)
    assert np.allclose(a.bias_all, b.bias_all, rtol=1e-12, atol=1e-15)
    assert np.allclose(a.saturation_ratio, b.saturation_ratio, rtol=1e-12)


def test_aggregate_policy_headline():
    """Both variance figures are reported; policy picks the headline."""
    truth, est, physical, iters = _synthetic_battery()
    inc = aggregate_estimates(est, physical, iters, truth, "fit", 900, policy="include")
    exc = aggregate_estimates(est, physical, iters, truth, "fit", 900, policy="exclude")
    assert inc.var_all == exc.var_all
    assert inc.var_physical == exc.var_physical
    assert inc.nonphysical_rate == pytest.approx(0.1)
    bound = crb_homodyne(truth, 900).as_tuple()
    assert inc.saturation_ratio == tuple(v / b for v, b in zip(inc.var_all, bound))
    assert exc.saturation_ratio == tuple(v / b for v, b in zip(exc.var_physical, bound))
    # the flagged trials were shifted in s, so the headlines must differ
    assert exc.saturation_ratio[0] < inc.saturation_ratio[0]


def test_ratio_stderr_scales_with_trials_used():
    truth, est, physical, iters = _synthetic_battery()
    inc = aggregate_estimates(est, physical, iters, truth, "fit", 900, policy="include")
    exc = aggregate_estimates(est, physical, iters, truth, "fit", 900, policy="exclude")
    for r, se in zip(inc.saturation_ratio, inc.ratio_stderr):
        assert se == pytest.approx(r * math.sqrt(2.0 / (400 - 1)), rel=1e-12)
    for r, se in zip(exc.saturation_ratio, exc.ratio_stderr):
        assert se == pytest.approx(r * math.sqrt(2.0 / (360 - 1)), rel=1e-12)


def test_aggregate_exclude_needs_two_physical():
    truth, est, physical, iters = _synthetic_battery(trials=50, bad=49)
    rep = aggregate_estimates(est, physical, iters, truth, "fit", 900, policy="exclude")
    assert rep.var_physical is None
    assert rep.saturation_ratio == pytest.approx(
        tuple(v / b for v, b in zip(rep.var_all, crb_homodyne(truth, 900).as_tuple()))
    )


def test_aggregate_validation():
    truth, est, physical, iters = _synthetic_battery(trials=4, bad=0)
    with pytest.raises(ValueError):
        aggregate_estimates(est[:1], physical[:1], iters[:1], truth, "fit", 900)
    with pytest.raises(ValueError):
        aggregate_estimates(est, physical, iters, truth, "fit", 900, policy="drop")


def test_run_trials_reports_sample_count():
    truth = StateParams(0.5, 1.4, 0.2)
    hom = run_trials(truth, "fit", 4, seed=0, scan_config=ScanConfig(n_psi=64))
    assert hom.n_samples == 64
    assert hom.bound.as_tuple() == crb_homodyne(truth, 64).as_tuple()
    assert hom.prediction is not None
    dhd = run_trials(truth, "dhd", 4, seed=0, mu=50)
    assert dhd.n_samples == 50
    assert dhd.bound.as_tuple() == crb_dhd(truth, 50).as_tuple()
    assert dhd.prediction is None


def test_sweep_family_structure():
    cfg = ScanConfig(n_psi=64)
    reports = sweep_family((0.3, 0.5), ("fit", "mom"), 12, seed=0, scan_config=cfg)
    assert len(reports) == 4
    assert [r.method for r in reports] == ["fit", "mom", "fit", "mom"]
    assert reports[0].truth.s == 0.3 and reports[2].truth.s == 0.5
    for r in reports[:2]:
        assert r.truth.kappa == pytest.approx(1.0 / math.sqrt(0.3), rel=1e-3)
    fixed = sweep_family((0.5,), ("fit",), 12, seed=0, scan_config=cfg, kappa=1.05)
    assert fixed[0].truth.kappa == 1.05


def test_sweep_family_shares_each_scan(monkeypatch):
    """One draw per (s, trial) serves fit and MoM; reports equal separate runs."""
    cfg = ScanConfig(n_psi=64)
    s_values, trials = (0.21, 0.5), 40
    separate = [
        run_trials(empirical_family(s), method, trials, seed=4, scan_config=cfg)
        for s in s_values
        for method in ("fit", "mom", "dhd")
    ]
    draws = []

    def counting_blocks(params, config, seed, blocks):
        # the rows each block really holds, tagged with the trials they stand for
        for trials_drawn, (phases, harmonics, q) in zip(blocks, simulate.sample_scan_blocks(
                params, config, seed, blocks)):
            assert len(q) == len(trials_drawn)
            draws.extend(trials_drawn)
            yield phases, harmonics, q

    monkeypatch.setattr(montecarlo, "sample_scan_blocks", counting_blocks)
    shared = sweep_family(s_values, ("fit", "mom", "dhd"), trials, seed=4, scan_config=cfg)
    assert shared == separate
    assert sorted(draws) == sorted(list(range(trials)) * len(s_values))


def test_sweep_opens_one_process_pool(monkeypatch):
    """With two workers a sweep hands the chunks of every s value to one
    pool, and its reports equal the single-worker ones."""
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    kwargs = dict(seed=3, scan_config=ScanConfig(n_psi=64), mu=64)
    parallel = sweep_family((0.21, 0.5, 0.9), ("fit", "dhd"), 20, workers=2, **kwargs)
    assert pools == [2]
    assert parallel == sweep_family((0.21, 0.5, 0.9), ("fit", "dhd"), 20, workers=1, **kwargs)
    pools.clear()
    run_trials(empirical_family(0.5), "mom", 20, workers=2, **kwargs)
    assert pools == [2]


def _per_trial_arrays(methods, truth, cfg, mu, seed, trials, tol, max_iter):
    """The collection as a plain loop of single-trial draws and estimates."""
    results = {m: [] for m in methods}
    for trial in trials:
        if "dhd" in methods:
            batch = sample_dhd(truth, mu, seed=seed, trial=trial)
            results["dhd"].append(dhd_estimate(batch))
        if "fit" in methods or "mom" in methods:
            scan = sample_homodyne_scan(truth, cfg, seed=seed, trial=trial)
            if "fit" in methods:
                results["fit"].append(fit_estimate(scan))
            if "mom" in methods:
                results["mom"].append(mom_estimate(scan, tol=tol, max_iter=max_iter))
    return [
        (np.array([r.params.as_tuple() for r in results[m]]).reshape(-1, 3),
         np.array([r.physical for r in results[m]], dtype=bool),
         np.array([r.iterations for r in results[m]], dtype=np.int64))
        for m in methods
    ]


@settings(max_examples=40)
@given(
    s=st.floats(0.05, 1.0),
    kappa=st.floats(0.5, 4.0),
    phi=st.floats(-4.0, 4.0),
    n_psi=st.integers(3, 80),
    mu=st.integers(3, 80),
    spacing=st.sampled_from(["equispaced", "random"]),
    methods=st.sampled_from([("dhd",), ("fit",), ("mom",), ("fit", "mom")]),
    seed=st.integers(-(2**63), 2**64 - 1),
    t0=st.integers(-40, 40),
    count=st.integers(1, 3 * montecarlo.BLOCK_TRIALS + 3),
    data=st.data(),
)
def test_block_collection_equals_per_trial_loop(s, kappa, phi, n_psi, mu, spacing, methods,
                                                seed, t0, count, data):
    """_collect_range, split at any point, gives byte for byte the arrays of
    a per-trial loop of sample_* and *_estimate calls.  Truths down to
    kappa = 0.5 bring nonphysical fits and rows that fall back to MoM's
    fallback seed into the compared columns."""
    truth = StateParams(s, kappa, phi)
    cfg = ScanConfig(n_psi=n_psi, spacing=spacing)
    t1 = t0 + count
    split = data.draw(st.integers(t0, t1))
    tol, max_iter = 1e-6, 20
    head, tail = (
        montecarlo._collect_range((truth, methods, cfg, mu, seed, a, b, tol, max_iter))
        for a, b in ((t0, split), (split, t1))
    )
    want = _per_trial_arrays(methods, truth, cfg, mu, seed, range(t0, t1), tol, max_iter)
    for h, t, w in zip(head, tail, want):
        for k in range(3):
            got = np.concatenate([h[k], t[k]])
            assert got.dtype == w[k].dtype and got.shape == w[k].shape
            assert got.tobytes() == w[k].tobytes()


def test_grid_harmonics_computed_once_per_sampler_call(monkeypatch):
    """Every scan a sampler call draws on the equispaced grid, and fit, MoM
    and the Fisher matrix on it, share one set of harmonics: one
    computation per call, so one per truth of a sweep and one per track.
    With random spacing each drawn block gets one computation over all its
    rows, shared by the fit, MoM and the Fisher matrix.  A one-scan fit or
    MoM estimate, with its covariance, computes them once."""
    calls = []

    def counting(phases):
        calls.append(len(phases))
        return grid_harmonics(phases)

    for module in (bounds, estimators, simulate):
        monkeypatch.setattr(module, "grid_harmonics", counting)
    sweep_family((0.3, 0.5), ("fit", "mom"), 10, seed=2, scan_config=ScanConfig(n_psi=64))
    assert calls == [64, 64]
    calls.clear()
    res = track_angle(DriftModel(), empirical_family(0.5), ScanConfig(n_psi=48),
                      duration=0.01, seed=2)
    assert np.isfinite(res.half_width).any()  # the Fisher matrix ran
    assert calls == [48]

    for spacing in ("equispaced", "random"):
        scan = sample_homodyne_scan(StateParams(0.5, 3.0, 0.3),
                                    ScanConfig(n_psi=200, spacing=spacing), seed=2)
        for estimate in (fit_estimate, mom_estimate):
            calls.clear()
            assert estimate(scan).predicted_cov is not None  # the covariance ran
            assert calls == [200]

    random = ScanConfig(n_psi=64, spacing="random")
    calls.clear()
    sweep_family((0.3, 0.5), ("fit", "mom"), 32, seed=2, scan_config=random)
    # one call per drawn (16, 64) block, of which each of the two truths has two
    assert calls == [montecarlo.BLOCK_TRIALS] * 4
    calls.clear()
    res = track_angle(DriftModel(), empirical_family(0.5), ScanConfig(n_psi=48, spacing="random"),
                      duration=0.02, seed=2)
    assert np.isfinite(res.half_width).any()
    n = len(res.times)
    sizes = [min(montecarlo.BLOCK_TRIALS, n - b) for b in range(0, n, montecarlo.BLOCK_TRIALS)]
    assert len(sizes) > 1
    assert calls == sizes


# ------------------------------------------------------------ statistics


def test_mom_saturation_approaches_one_with_n():
    """Headline ratios walk down toward 1 as the scan gets longer."""
    truth = empirical_family(0.5, 0.3)
    ratios = []
    for n_psi, trials in ((100, 1200), (900, 1200), (10000, 2000)):
        rep = run_trials(truth, "mom", trials, seed=5, scan_config=ScanConfig(n_psi=n_psi))
        ratios.append(rep.saturation_ratio)
    for j in range(3):
        assert ratios[1][j] <= ratios[0][j] + 0.03
        assert ratios[2][j] <= ratios[1][j] + 0.03
    for r in ratios[-1]:
        assert 0.95 <= r <= 1.05


def test_bias_within_monte_carlo_resolution():
    truth = empirical_family(0.5, 0.3)
    for method in ("fit", "mom"):
        rep = run_trials(truth, method, 300, seed=0)
        for b, v in zip(rep.bias_all, rep.var_all):
            assert abs(b) <= 3.0 * math.sqrt(v / rep.trials)


def test_fit_bias_shrinks_with_n():
    """The O(1/N) fit bias in s and kappa drops fast as N grows."""
    truth = empirical_family(0.3, 0.3)
    reps = {
        n: run_trials(truth, "fit", 2000, seed=0, scan_config=ScanConfig(n_psi=n))
        for n in (900, 8100)
    }
    for j in (0, 1):
        b_small = abs(reps[900].bias_all[j])
        b_large = abs(reps[8100].bias_all[j])
        se_small = math.sqrt(reps[900].var_all[j] / 2000)
        se_large = math.sqrt(reps[8100].var_all[j] / 2000)
        # the bias is actually resolved at N=900 before we claim it shrinks
        assert b_small > 3.0 * se_small
        assert b_large <= max(0.5 * b_small, 3.0 * se_large)


def test_fit_nonphysical_rate_grows_toward_strong_squeezing():
    rates = []
    for s in (0.2089, 0.3, 0.5):
        rep = run_trials(empirical_family(s, 0.3), "fit", 1500, seed=0)
        rates.append(rep.nonphysical_rate)
    assert rates[0] > 0.02
    assert rates[0] > rates[1] >= rates[2]


# ------------------------------------------------------------ tracking


def test_autocorrelation_time_noise_corrected():
    """AR(1) + white noise: the corrected fit recovers tau, raw sits low."""
    model = DriftModel(kind="mean-reverting", correlation_time=5e-3,
                       step_interval=5e-4, amplitude=0.15)
    x = simulate_phase_drift(model, duration=5.0, seed=3)
    noise = 0.05 * np.random.default_rng(3).standard_normal(x.size)
    series = x + noise
    tau = autocorrelation_time(series, 5e-4, noise_floor=0.05**2)
    assert tau == pytest.approx(5e-3, rel=0.25)
    raw = autocorrelation_time(series, 5e-4, noise_floor=0.0)
    assert raw < tau


def _indexed_drift(model, duration, seed):
    """The AR(1) recurrence as an indexed loop over numpy scalars: the
    reference that the drift's Python-float loop must match bit for bit."""
    n = int(duration / model.step_interval)
    z = simulate.keyed_generator(seed, simulate._STREAM_DRIFT, 0).standard_normal(n)
    rho = math.exp(-model.step_interval / model.correlation_time)
    innov = model.amplitude * math.sqrt(1.0 - rho * rho)
    out = np.empty(n)
    out[0] = model.amplitude * z[0]
    for k in range(1, n):
        out[k] = rho * out[k - 1] + innov * z[k]
    return out


@pytest.mark.parametrize("model, duration, seed", [
    (DriftModel(), 0.3, 0),
    (DriftModel(), 5e-4, 4),
    (DriftModel(correlation_time=0.05, amplitude=0.02), 0.8, 7),
    (DriftModel(correlation_time=2e-5, step_interval=1e-4, amplitude=-3.5), 0.05, 11),
])
def test_mean_reverting_drift_keeps_the_indexed_loop_bits(model, duration, seed):
    got = simulate_phase_drift(model, duration, seed=seed)
    assert got.tobytes() == _indexed_drift(model, duration, seed).tobytes()


def test_autocorrelation_time_degenerate_inputs():
    alternating = np.tile([1.0, -1.0], 50)
    assert math.isnan(autocorrelation_time(alternating, 1e-3))
    flatish = np.random.default_rng(0).standard_normal(500)
    assert math.isnan(autocorrelation_time(flatish, 1e-3, noise_floor=10.0))
    with pytest.raises(ValueError):
        autocorrelation_time(np.zeros(2), 1e-3)


def test_track_zero_drift_scatter_at_crb():
    """A static angle is recovered with scatter at the per-scan CRB."""
    base = empirical_family(0.5, 0.3)
    res = track_angle(DriftModel(amplitude=0.0), base, duration=0.3, seed=0)
    assert res.phi_est.shape == (600,)
    assert np.all(res.phi_true == base.phi_s)
    scatter = float(np.std(res.phi_est, ddof=1))
    sd_crb = math.sqrt(crb_homodyne(base, 900).var_phi)
    assert 0.85 * sd_crb <= scatter <= 1.2 * sd_crb
    assert math.isnan(res.tau_est)


def test_track_quasi_static_rms():
    base = empirical_family(0.5, 0.3)
    drift = DriftModel(amplitude=0.02, correlation_time=0.05)
    res = track_angle(drift, base, duration=0.3, seed=0)
    rms = float(np.sqrt(np.mean((res.phi_est - res.phi_true) ** 2)))
    sd_crb = math.sqrt(crb_homodyne(base, 900).var_phi)
    assert rms <= 3.0 * sd_crb
    assert res.noise_floor > 0.0
    assert float(np.nanmean(res.half_width)) == pytest.approx(sd_crb, rel=0.2)


def _half_width(pp):
    return math.sqrt(pp) if pp is not None and 0.0 < pp < math.inf else math.nan


def _reference_track(drift, base, cfg, duration, seed, tol=estimators.DEFAULT_TOL,
                     max_iter=estimators.DEFAULT_MAX_ITER):
    """The loop track_angle replaced: a fresh single draw per scan, then
    MoM at ``tol`` and ``max_iter``, warm-started from the previous physical
    estimate, then the half-width: ``crb_homodyne``'s on an equispaced grid where
    ``phase_average_is_exact`` holds at a physical estimate, else
    ``mom_estimate``'s discrete one; (per-scan fields, tau_est,
    noise_floor, the count of each flag over the scans, the discrete
    half-widths, the mask of closed-form scans)."""
    offsets = simulate_phase_drift(drift, duration, seed=seed)
    n = len(offsets)
    phi_true = base.phi_s + offsets
    m = cfg.n_psi // math.gcd(cfg.n_psi, cfg.n)
    cols = {f: np.empty(n) for f in ("phi_est", "half_width", "s_est", "kappa_est")}
    cols["iterations"] = np.empty(n, dtype=np.int64)
    discrete = np.empty(n)
    closed = np.zeros(n, dtype=bool)
    flags = Counter()
    prior = None
    for k in range(n):
        truth = StateParams(base.s, base.kappa, phi_true[k])
        r = mom_estimate(sample_homodyne_scan(truth, cfg, seed=seed, trial=k), prior=prior,
                         max_iter=max_iter, tol=tol)
        cols["phi_est"][k], cols["s_est"][k], cols["kappa_est"][k] = (
            r.params.phi_s, r.params.s, r.params.kappa)
        cols["iterations"][k] = r.iterations
        discrete[k] = _half_width(None if r.predicted_cov is None else r.predicted_cov.pp)
        closed[k] = (cfg.spacing == "equispaced" and r.physical
                     and bounds.phase_average_is_exact(r.params.s, m))
        cols["half_width"][k] = (_half_width(crb_homodyne(r.params, cfg.n_psi).var_phi)
                                 if closed[k] else discrete[k])
        flags.update(r.flags)
        prior = r.params if r.physical else None
    cols["times"] = np.arange(n) * drift.step_interval
    cols["phi_true"] = phi_true
    resid = wrap_half_pi(cols["phi_est"] - circular_mean_pi(cols["phi_est"]))
    hw = cols["half_width"][np.isfinite(cols["half_width"])]
    noise_floor = float(np.mean(hw**2)) if hw.size else 0.0
    return (cols, autocorrelation_time(resid, drift.step_interval, noise_floor), noise_floor,
            flags, discrete, closed)


def _track_matches_reference(drift, base, cfg, duration, seed, tol=estimators.DEFAULT_TOL,
                             max_iter=estimators.DEFAULT_MAX_ITER):
    """Assert that every field of track_angle's result, its correlation
    time and its noise floor equal the per-scan reference's bit for bit,
    both at ``tol`` and ``max_iter``, and that each closed-form half-width lies within
    ``closed_form_half_width_tol`` of the discrete one (both nan where F is
    singular, at s = 1); return the result and the mask of closed-form
    scans."""
    got = track_angle(drift, base, cfg, duration=duration, seed=seed, tol=tol, max_iter=max_iter)
    cols, tau, floor, _, discrete, closed = _reference_track(drift, base, cfg, duration, seed,
                                                             tol, max_iter)
    assert len(got.times) == len(cols["times"])
    for field, want in cols.items():
        have = getattr(got, field)
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), field
    for have, want in ((got.tau_est, tau), (got.noise_floor, floor)):
        assert np.float64(have).tobytes() == np.float64(want).tobytes()
    hw, ref, s = got.half_width[closed], discrete[closed], got.s_est[closed]
    assert np.array_equal(np.isnan(hw), np.isnan(ref))
    finite = np.isfinite(ref)
    assert np.all(np.abs(hw - ref)[finite] <= closed_form_half_width_tol(s[finite]) * ref[finite])
    return got, closed


@pytest.mark.parametrize("spacing", ["equispaced", "random"])
@pytest.mark.parametrize("n_psi", [64, 900])
@pytest.mark.parametrize("kind", ["mean-reverting", "random-walk"])
def test_track_matches_per_scan_reference(spacing, n_psi, kind):
    """Drawing the scans in blocks leaves every field of the track, the
    correlation time and the noise floor bit for bit as drawn scan by scan,
    across block edges (50 scans: three full blocks and two scans).  Every
    scan of the 900-point grid takes the closed-form half-width, and no
    scan of random phases does."""
    cfg = ScanConfig(n_psi=n_psi, spacing=spacing)
    drift = DriftModel(kind=kind)
    base = empirical_family(0.5, 0.2)
    for seed in (0, 7, 123):
        got, closed = _track_matches_reference(drift, base, cfg, 0.025, seed)
        assert len(got.times) == 50
        if spacing == "random":
            assert not closed.any()
        elif n_psi == 900:
            assert closed.all()


# tracks whose scans turn non-physical, re-seed from the fit mid-track,
# stop at max_iter and (at N = 4) meet a singular information matrix, as
# (base, N, spacing, scans, nan half-widths, max_iter stops) at seed 0
_TRACKS_THAT_RESEED = (
    (StateParams(0.999, 1.0, 0.3), 16, "equispaced", 600, 480, 338),
    (empirical_family(0.21, 1.0), 16, "random", 600, 457, 559),
    (StateParams(0.999, 1.0, 0.3), 4, "equispaced", 100, 90, 100),
)


@settings(max_examples=40)
@given(
    s=st.floats(0.05, 1.0),
    pure=st.booleans(),
    phi=st.floats(0.0, math.pi, exclude_max=True),
    n_psi=st.integers(3, 900),
    spacing=st.sampled_from(("equispaced", "random")),
    kind=st.sampled_from(("mean-reverting", "random-walk")),
    scans=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    max_iter=st.sampled_from((1, 2, 3, 20)),
    tol=st.sampled_from((1e-3, 1e-6, 1e-10)),
)
@example(s=0.999, pure=True, phi=0.3, n_psi=16, spacing="equispaced", kind="mean-reverting",
         scans=600, seed=0, max_iter=20, tol=1e-6)
@example(s=0.21, pure=False, phi=1.0, n_psi=16, spacing="random", kind="mean-reverting",
         scans=600, seed=0, max_iter=20, tol=1e-6)
@example(s=0.999, pure=True, phi=0.3, n_psi=4, spacing="equispaced", kind="mean-reverting",
         scans=100, seed=0, max_iter=20, tol=1e-6)
def test_track_matches_per_scan_reference_on_any_state(s, pure, phi, n_psi, spacing, kind,
                                                       scans, seed, max_iter, tol):
    """The per-scan reference holds bit for bit for any s in [0.05, 1], kappa
    1 or 1/sqrt(s), N in [3, 900], both spacings, both drift kinds, and
    a max_iter of 1, 2, 3 or 20 at a tol of 1e-3, 1e-6 or 1e-10, so scans
    that stop early or reseed from the fit are compared too.  The
    explicit examples are ``_TRACKS_THAT_RESEED``."""
    base = StateParams(s, 1.0, phi) if pure else empirical_family(s, phi)
    drift = DriftModel(kind=kind)
    _track_matches_reference(drift, base, ScanConfig(n_psi=n_psi, spacing=spacing),
                             (scans + 0.5) * drift.step_interval, seed, tol, max_iter)


@settings(max_examples=40)
@given(
    s=st.floats(0.05, 1.0),
    pure=st.booleans(),
    phi=st.floats(0.0, math.pi, exclude_max=True),
    n_psi=st.integers(3, 900),
    spacing=st.sampled_from(("equispaced", "random")),
    scans=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    max_iter=st.sampled_from((1, 2, 3, 20)),
)
def test_track_is_its_step_chained_over_the_sampled_rows(s, pure, phi, n_psi, spacing, scans,
                                                         seed, max_iter):
    """track_angle is ``_track_step`` run by hand over the rows of one
    sampler block of all the scans, each scan seeded from the previous
    physical estimate: every field of the result equal bit for bit, for s
    in [0.05, 1], N in [3, 900], both spacings and a max_iter of 1, 2, 3
    or 20."""
    base = StateParams(s, 1.0, phi) if pure else empirical_family(s, phi)
    drift = DriftModel()
    cfg = ScanConfig(n_psi=n_psi, spacing=spacing)
    duration = (scans + 0.5) * drift.step_interval
    got = track_angle(drift, base, cfg, duration=duration, seed=seed, max_iter=max_iter)

    phi_true = base.phi_s + simulate_phase_drift(drift, duration, seed=seed)
    truths = [StateParams(base.s, base.kappa, p) for p in phi_true]
    [(phases, harmonics, q)] = simulate.sample_scan_blocks(truths, cfg, seed, [range(scans)])
    block = estimators.ScanBlock.of(phases, q, harmonics)
    rows, prior = [], None
    for i in range(scans):
        p, physical, iterations, half_width = montecarlo._track_step(
            block.row(i), prior, cfg, estimators.DEFAULT_TOL, max_iter)
        prior = p if physical else None
        rows.append((*p, iterations, half_width))
    s_est, kappa_est, phi_est, iterations, half_width = map(np.array, zip(*rows))
    hw = half_width[np.isfinite(half_width)]
    noise_floor = float(np.mean(hw**2)) if hw.size else 0.0
    want = {
        "times": np.arange(scans) * drift.step_interval, "phi_true": phi_true,
        "phi_est": phi_est, "half_width": half_width, "s_est": s_est, "kappa_est": kappa_est,
        "iterations": iterations.astype(np.int64), "noise_floor": np.float64(noise_floor),
        "tau_est": np.float64(autocorrelation_time(
            wrap_half_pi(phi_est - circular_mean_pi(phi_est)), drift.step_interval,
            noise_floor)),
    }
    for field, value in want.items():
        have = np.asarray(getattr(got, field))
        assert have.dtype == value.dtype and have.tobytes() == value.tobytes(), field


def test_track_half_width_is_nan_at_s_one_on_either_path(monkeypatch):
    """An estimate at s = 1 carries no angle information: its half-width is
    nan where crb_homodyne's var_phi is inf (the closed form, on the 900-point
    grid) and where the discrete F is singular (random phases), and the
    noise floor then has no half-width to average."""
    seeded = montecarlo._mom_seeded

    def at_s_one(*args, **kwargs):
        (p, *rest), seed = seeded(*args, **kwargs)
        return ((1.0, *p[1:]), *rest), seed

    monkeypatch.setattr(montecarlo, "_mom_seeded", at_s_one)
    for spacing in ("equispaced", "random"):
        got = track_angle(DriftModel(), empirical_family(0.5, 0.2),
                          ScanConfig(n_psi=900, spacing=spacing), duration=0.01, seed=1)
        assert (got.s_est == 1.0).all()
        assert np.isnan(got.half_width).all() and got.noise_floor == 0.0


def test_tracks_that_reseed_reach_every_scan_outcome():
    """``_TRACKS_THAT_RESEED`` give their counts of nan half-widths and
    max_iter stops, and between them every MoM outcome but a singular prior."""
    flags = Counter()
    for base, n_psi, spacing, scans, nan_widths, stops in _TRACKS_THAT_RESEED:
        cfg = ScanConfig(n_psi=n_psi, spacing=spacing)
        duration = (scans + 0.5) * DriftModel().step_interval
        got = track_angle(DriftModel(), base, cfg, duration=duration)
        assert len(got.times) == scans
        assert int(np.isnan(got.half_width).sum()) == nan_widths
        assert int((got.iterations == estimators.DEFAULT_MAX_ITER).sum()) == stops
        flags += _reference_track(DriftModel(), base, cfg, duration, 0)[3]
    assert set(flags) == {"nonphysical", "no-convergence", "seed-fallback",
                          "singular-information"}


def test_track_refuses_fewer_than_3_scans_before_any_draw(monkeypatch):
    """The correlation-time fit needs 3 scans: 2 scans (0.001 s at the
    default 0.5 ms step) raise before the drift or a scan is drawn, and 3
    scans run."""
    base = empirical_family(0.5, 0.2)
    cfg = ScanConfig(n_psi=16)
    three = track_angle(DriftModel(), base, cfg, duration=0.0015, seed=3)
    assert len(three.times) == 3

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a scan or the drift")

    monkeypatch.setattr(montecarlo, "simulate_phase_drift", no_draw)
    monkeypatch.setattr(montecarlo, "sample_scan_blocks", no_draw)
    for duration in (0.001, 0.0005, 1e-9, 0.0, -1.0):
        with pytest.raises(ValueError, match="needs at least 3"):
            track_angle(DriftModel(), base, cfg, duration=duration, seed=3)


@pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan])
def test_non_finite_duration_is_refused_before_any_draw(monkeypatch, duration):
    """simulate_phase_drift and track_angle refuse an infinite or nan
    duration with a ValueError that names it, before the drift or a scan
    is drawn."""
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a scan or the drift")

    monkeypatch.setattr(simulate, "keyed_generator", no_draw)
    monkeypatch.setattr(montecarlo, "sample_scan_blocks", no_draw)
    with pytest.raises(ValueError, match="duration"):
        simulate_phase_drift(DriftModel(), duration)
    with pytest.raises(ValueError, match="duration"):
        track_angle(DriftModel(), empirical_family(0.5, 0.2), duration=duration)


def test_bad_policy_or_truth_is_refused_before_any_draw(monkeypatch):
    """sweep_family, and so run_trials, refuse an unknown policy and a truth
    that its sampler refuses, a later s value among them, and track_angle
    a base that the scan sampler refuses, before anything is drawn; each
    truth's message is its sampler's, DHD's first where both refuse it."""
    scan_truth, dhd_truth = StateParams(1e-7, 2.0, 0.0), StateParams(1e-200, 2.0, 0.0)
    samplers = {}
    for truth, draw in ((scan_truth, lambda: sample_homodyne_scan(scan_truth)),
                        (dhd_truth, lambda: sample_dhd(dhd_truth, 16))):
        with pytest.raises(ValueError) as refused:
            draw()
        samplers[truth.s] = re.escape(str(refused.value))

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a scan, a DHD batch or the drift")

    monkeypatch.setattr(simulate, "keyed_generator", no_draw)
    cfg = ScanConfig(n_psi=16)
    with pytest.raises(ValueError, match="unknown policy 'bogus'"):
        sweep_family([0.5, 0.3], ("fit", "mom"), 3000, policy="bogus")
    with pytest.raises(ValueError, match="unknown policy 'bogus'"):
        run_trials(StateParams(0.5, 2.0, 0.3), "dhd", 4, mu=16, policy="bogus")
    for s, methods in ((1e-7, ("fit", "mom")), (1e-7, ("dhd", "mom")), (1e-200, ("dhd",)),
                       (1e-200, ("fit", "dhd"))):
        with pytest.raises(ValueError, match=samplers[s]):
            sweep_family([0.5, 0.3, s], methods, 3000, scan_config=cfg, mu=16, kappa=2.0)
    with pytest.raises(ValueError, match=samplers[1e-7]):
        track_angle(DriftModel(), scan_truth, cfg, duration=0.01)


def test_bad_tol_or_max_iter_is_refused_before_any_draw(monkeypatch):
    """A tol that is not finite and > 0 (the CLI's rule), or a max_iter
    below 1, raises ValueError in mom_estimate, mom_columns, every sweep
    and track_angle; the sweeps and the track raise before any draw."""
    truth = StateParams(0.5, 2.0, 0.3)
    cfg = ScanConfig(n_psi=16)
    scan = sample_homodyne_scan(truth, cfg, seed=1)
    block = estimators.ScanBlock.of(scan.phases, scan.samples)
    fit = estimators.fit_columns(block)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a scan, a DHD batch or the drift")

    for name in ("sample_scan_blocks", "sample_dhd_blocks", "simulate_phase_drift"):
        monkeypatch.setattr(montecarlo, name, no_draw)
    bad = [{"tol": t} for t in (math.nan, math.inf, -math.inf, 0.0, -1e-6)]
    for kw in bad + [{"max_iter": m} for m in (0, -1)]:
        match = "tol must be finite and > 0" if "tol" in kw else "max_iter must be at least 1"
        for call in (lambda: mom_estimate(scan, **kw),
                     lambda: estimators.mom_columns(block, fit, **kw),
                     lambda: collect_estimates(truth, "mom", 2, scan_config=cfg, **kw),
                     lambda: sweep_family((0.5,), ("dhd",), 2, mu=16, **kw),
                     lambda: track_angle(DriftModel(), truth, cfg, duration=0.01, **kw)):
            with pytest.raises(ValueError, match=match):
                call()


def test_too_few_samples_are_refused_before_any_draw(monkeypatch):
    """Scans of fewer than 3 phases for the fit or MoM, and DHD batches of
    fewer than 3 repetitions, which the estimators refuse, raise before any
    draw; 3 of each run, and a DHD sweep ignores n_psi."""
    truth = StateParams(0.5, 2.0, 0.3)
    collect_estimates(truth, "mom", 2, scan_config=ScanConfig(n_psi=3))
    collect_estimates(truth, "dhd", 2, scan_config=ScanConfig(n_psi=2), mu=3)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a scan, a DHD batch or the drift")

    for name in ("sample_scan_blocks", "sample_dhd_blocks", "simulate_phase_drift"):
        monkeypatch.setattr(montecarlo, name, no_draw)
    two = ScanConfig(n_psi=2)
    for method in ("fit", "mom"):
        with pytest.raises(ValueError, match="at least 3 samples per scan, got n_psi=2"):
            collect_estimates(truth, method, 2, scan_config=two)
        with pytest.raises(ValueError, match="at least 3 samples per scan, got n_psi=2"):
            sweep_family((0.5,), ("dhd", method), 2, scan_config=two, mu=3)
    for call in (lambda: collect_estimates(truth, "dhd", 2, mu=2),
                 lambda: sweep_family((0.5,), ("dhd",), 2, mu=2)):
        with pytest.raises(ValueError, match="at least 3 repetitions per DHD batch, got mu=2"):
            call()
    with pytest.raises(ValueError, match="at least 3 samples per scan, got n_psi=2"):
        track_angle(DriftModel(), truth, two, duration=0.01)


def test_outputs_do_not_depend_on_the_block_size(monkeypatch):
    """Sweep report CSVs (fit, MoM and DHD, both spacings) and every track
    array are the same bytes at BLOCK_TRIALS 1, 3 and 16.  At 1, every sweep
    row takes the one-row path that track uses."""
    def outputs():
        csv = [report_csv_lines(sweep_family((0.21, 0.5), ("fit", "mom", "dhd"), 40, seed=9,
                                             scan_config=ScanConfig(n_psi=64, spacing=sp),
                                             mu=64))
               for sp in ("equispaced", "random")]
        tracks = [track_angle(DriftModel(), empirical_family(0.5, 0.2),
                              ScanConfig(n_psi=64, spacing=sp), duration=0.02, seed=9)
                  for sp in ("equispaced", "random")]
        arrays = [[getattr(t, f).tobytes() for f in ("times", "phi_true", "phi_est",
                                                     "half_width", "s_est", "kappa_est",
                                                     "iterations")]
                  + [np.float64(t.tau_est).tobytes(), np.float64(t.noise_floor).tobytes()]
                  for t in tracks]
        return csv, arrays

    got = {}
    for size in (1, 3, 16):
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", size)
        got[size] = outputs()
    assert got[1] == got[3] == got[16]


def test_track_result_layout():
    base = empirical_family(0.5, 0.0)
    res = track_angle(DriftModel(step_interval=1e-3), base, duration=0.02, seed=1)
    n = 20
    for arr in (res.times, res.phi_true, res.phi_est, res.half_width,
                res.s_est, res.kappa_est, res.iterations):
        assert len(arr) == n
    assert np.allclose(np.diff(res.times), 1e-3)
