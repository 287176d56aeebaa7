"""Trial harness checks: determinism, aggregation, bias, tracking."""

import math
import os

import numpy as np
import pytest

from squeezelab import (
    DriftModel,
    ScanConfig,
    StateParams,
    aggregate_estimates,
    autocorrelation_time,
    collect_estimates,
    crb_dhd,
    crb_homodyne,
    empirical_family,
    grid_harmonics,
    run_trials,
    sample_homodyne_scan,
    simulate_phase_drift,
    sweep_family,
    track_angle,
)
from squeezelab import bounds, estimators, montecarlo, simulate
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


def test_run_trials_keep_estimates():
    truth = StateParams(0.5, 1.4, 0.2)
    rep = run_trials(truth, "fit", 5, seed=0, scan_config=ScanConfig(n_psi=64),
                     keep_estimates=True)
    assert rep.estimates is not None and rep.estimates.shape == (5, 3)
    rep2 = run_trials(truth, "fit", 5, seed=0, scan_config=ScanConfig(n_psi=64))
    assert rep2.estimates is None


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

    def counting_sample(*args, **kwargs):
        draws.append(kwargs["trial"])
        return sample_homodyne_scan(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_homodyne_scan", counting_sample)
    shared = sweep_family(s_values, ("fit", "mom", "dhd"), trials, seed=4, scan_config=cfg)
    assert shared == separate
    assert sorted(draws) == sorted(list(range(trials)) * len(s_values))


def test_grid_harmonics_computed_once_per_scan_config(monkeypatch):
    """Every scan of a sweep or a track, and fit, MoM and the Fisher matrix
    on it, share the config's harmonics: one computation per ScanConfig."""
    calls = []

    def counting(phases):
        calls.append(len(phases))
        return grid_harmonics(phases)

    for module in (bounds, estimators, simulate):
        monkeypatch.setattr(module, "grid_harmonics", counting)
    sweep_family((0.3, 0.5), ("fit", "mom"), 10, seed=2, scan_config=ScanConfig(n_psi=64))
    assert calls == [64]
    calls.clear()
    res = track_angle(DriftModel(), empirical_family(0.5), ScanConfig(n_psi=48),
                      duration=0.01, seed=2)
    assert np.isfinite(res.half_width).any()  # the Fisher matrix ran
    assert calls == [48]


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


def test_track_result_layout():
    base = empirical_family(0.5, 0.0)
    res = track_angle(DriftModel(step_interval=1e-3), base, duration=0.02, seed=1)
    n = 20
    for arr in (res.times, res.phi_true, res.phi_est, res.half_width,
                res.s_est, res.kappa_est, res.iterations):
        assert len(arr) == n
    assert np.allclose(np.diff(res.times), 1e-3)
