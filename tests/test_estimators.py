"""Estimator identities: inversion, fixed points, equivariance, flags."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import exact_moment_batch, grid_points, moment_matched_scan

from squeezelab import (
    HomodyneScan,
    ScanConfig,
    StateParams,
    angle_distance,
    crb_homodyne,
    dhd_estimate,
    DhdBatch,
    eval_variance,
    fit_estimate,
    fourier_components,
    mom_estimate,
    mom_step,
    mom_weights,
    sample_dhd,
    sample_homodyne_scan,
    state_covariance,
    variance_partials,
)
from squeezelab.estimators import (
    FLAG_DEGENERATE,
    FLAG_NONPHYSICAL,
    FLAG_NO_CONVERGENCE,
    FLAG_SINGULAR_PRIOR,
)

RNG = np.random.default_rng(42)


def test_fourier_components_single_sample_arithmetic():
    scan = HomodyneScan(
        phases=np.array([0.0, 0.0, 0.0]), samples=np.array([2.0, 2.0, 2.0]), meta=None
    )
    fc = fourier_components(scan)
    assert fc.c0 == pytest.approx(4.0, rel=1e-15)
    assert fc.c2 == pytest.approx(4.0 + 0j, rel=1e-15)


def test_fourier_components_requires_three():
    with pytest.raises(ValueError):
        fourier_components(
            HomodyneScan(phases=np.zeros(2), samples=np.ones(2), meta=None)
        )


def test_fourier_components_population_means():
    p = StateParams(0.35, 1.9, 0.85)
    fc = fourier_components(moment_matched_scan(p))
    want_c0 = p.kappa * (1 + p.s**2) / (2 * p.s)
    want_c2 = -p.kappa * (1 - p.s**2) / (4 * p.s) * cmath.exp(-2j * p.phi_s)
    assert fc.c0 == pytest.approx(want_c0, rel=1e-12)
    assert fc.c2.real == pytest.approx(want_c2.real, abs=1e-12)
    assert fc.c2.imag == pytest.approx(want_c2.imag, abs=1e-12)


def test_fourier_components_vacuum():
    fc = fourier_components(moment_matched_scan(StateParams(1.0, 1.0, 0.0)))
    assert fc.c0 == pytest.approx(1.0, rel=1e-14)
    assert abs(fc.c2) < 1e-13


def test_fit_inversion_exact_on_grid():
    for p in grid_points():
        r = fit_estimate(moment_matched_scan(p))
        assert abs(r.params.s - p.s) < 1e-10
        assert abs(r.params.kappa - p.kappa) < 1e-10
        if p.s < 1.0:
            assert angle_distance(r.params.phi_s, p.phi_s) < 1e-10
        if p.kappa > 1.0:
            # at kappa = 1 rounding can land a hair below the boundary
            assert r.physical


def test_fit_vacuum_degenerate():
    scans = [moment_matched_scan(StateParams(1.0, 1.0, 0.0))]
    # q = 1 leaves a second harmonic of 0 to ~1e-16 of C0, by grid and summation order
    for n_psi in (300, 301, 600, 900, 1000, 1200):
        scans.append(HomodyneScan(phases=ScanConfig(n_psi=n_psi).grid, samples=np.ones(n_psi)))
    for scan in scans:
        r = fit_estimate(scan)
        assert r.params.s == pytest.approx(1.0, abs=1e-12)
        assert r.params.kappa == pytest.approx(1.0, abs=1e-12)
        assert FLAG_DEGENERATE in r.flags
        assert r.params.phi_s == 0.0


def test_fit_nonphysical_flagged_not_clamped():
    # q^2 = 1 + cos(2 psi) makes c0 - 2|c2| exactly zero
    cfg = ScanConfig(n_psi=720, n=2)
    psi = cfg.phase_grid()
    scan = HomodyneScan(
        phases=psi, samples=np.sqrt(1.0 + np.cos(2 * psi)), meta=None
    )
    r = fit_estimate(scan)
    assert not r.physical
    assert FLAG_NONPHYSICAL in r.flags
    assert r.params.s == pytest.approx(0.0, abs=1e-7)
    assert r.predicted_cov is None


def test_fit_equivariance_under_phase_shift():
    p = StateParams(0.5, 1.6, 0.4)
    scan = sample_homodyne_scan(p, ScanConfig(n_psi=600), seed=11)
    base = fit_estimate(scan)
    for delta in (0.3, 1.0, 2.2):
        shifted = HomodyneScan(
            phases=scan.phases + delta, samples=scan.samples, meta=None
        )
        r = fit_estimate(shifted)
        assert r.params.s == pytest.approx(base.params.s, abs=1e-12)
        assert r.params.kappa == pytest.approx(base.params.kappa, abs=1e-12)
        assert angle_distance(r.params.phi_s, base.params.phi_s + delta) < 1e-10


def test_fit_scaling_covariance():
    p = StateParams(0.4, 2.2, 1.0)
    scan = sample_homodyne_scan(p, ScanConfig(n_psi=600), seed=12)
    base = fit_estimate(scan)
    for g in (0.5, 2.0, 7.0):
        r = fit_estimate(
            HomodyneScan(phases=scan.phases, samples=g * scan.samples, meta=None)
        )
        assert r.params.s == pytest.approx(base.params.s, rel=1e-12)
        assert r.params.kappa == pytest.approx(g * g * base.params.kappa, rel=1e-12)
        assert angle_distance(r.params.phi_s, base.params.phi_s) < 1e-12


def test_mom_weights_match_finite_differences():
    p = StateParams(0.45, 1.7, 0.9)
    psi = np.array([0.1, 0.7, 1.9, 3.0])
    c_s, c_k, c_p = mom_weights(p, psi)
    v = eval_variance(p, psi)
    d_s, d_k, d_p = variance_partials(p, psi)
    np.testing.assert_allclose(c_s, d_s / (2 * v * v), rtol=1e-12)
    np.testing.assert_allclose(c_k, d_k / (2 * v * v), rtol=1e-12)
    np.testing.assert_allclose(c_p, d_p / (2 * v * v), rtol=1e-12)
    h = 1e-6
    fd = (eval_variance(p, psi - h) - eval_variance(p, psi + h)) / (2 * h)
    np.testing.assert_allclose(c_p, fd / (2 * v * v), rtol=1e-5)


def test_mom_weights_vacuum_angle_weight_zero():
    _, _, c_p = mom_weights(StateParams(1.0, 1.0, 0.0), np.linspace(0, 3, 13))
    np.testing.assert_array_equal(c_p, np.zeros(13))


def test_mom_weights_at_squeezed_axis():
    p = StateParams(0.5, 2.0, 0.7)
    c_s, _, _ = mom_weights(p, np.array([p.phi_s]))
    assert c_s[0] == pytest.approx(1.0 / (2 * p.kappa * p.s**2), rel=1e-12)


def test_mom_step_fixed_point_on_grid():
    for p in grid_points():
        if p.s >= 0.999:
            continue
        r = mom_step(moment_matched_scan(p), p)
        assert abs(r.params.s - p.s) < 1e-10
        assert abs(r.params.kappa - p.kappa) < 1e-10
        assert angle_distance(r.params.phi_s, p.phi_s) < 1e-10


def test_mom_step_singular_prior_flag():
    scan = sample_homodyne_scan(StateParams(0.5, 2.0, 0.3), ScanConfig(n_psi=300), seed=5)
    r = mom_step(scan, StateParams(1.0, 1.0, 0.9))
    assert FLAG_SINGULAR_PRIOR in r.flags
    assert r.params.phi_s == pytest.approx(0.9, abs=1e-12)


def test_mom_estimate_prior_truth_matches_single_step():
    p = StateParams(0.5, 2.0, 0.3)
    scan = moment_matched_scan(p)
    r = mom_estimate(scan, prior=p)
    assert abs(r.params.s - p.s) < 1e-10
    assert abs(r.params.kappa - p.kappa) < 1e-10
    assert angle_distance(r.params.phi_s, p.phi_s) < 1e-10
    assert r.iterations <= 2
    assert r.prior_used == p


def test_mom_estimate_from_far_prior_converges():
    truth = StateParams(0.5, math.sqrt(2.0), 0.3)
    scan = sample_homodyne_scan(truth, ScanConfig(), seed=21)
    r = mom_estimate(scan, prior=StateParams(0.9, 1.1, 1.0))
    assert FLAG_NO_CONVERGENCE not in r.flags
    b = crb_homodyne(truth, 900)
    assert abs(r.params.s - truth.s) < 5 * math.sqrt(b.var_s)
    assert abs(r.params.kappa - truth.kappa) < 5 * math.sqrt(b.var_kappa)
    assert angle_distance(r.params.phi_s, truth.phi_s) < 5 * math.sqrt(b.var_phi)


def test_mom_estimate_auto_seed_matches_explicit_fit_seed():
    truth = StateParams(0.35, 1.9, 1.2)
    scan = sample_homodyne_scan(truth, ScanConfig(), seed=33)
    auto = mom_estimate(scan)
    seeded = mom_estimate(scan, prior=auto.prior_used)
    assert auto.params == seeded.params
    assert auto.prior_used is not None


def test_mom_estimate_vacuum_data():
    r = mom_estimate(moment_matched_scan(StateParams(1.0, 1.0, 0.0)))
    assert r.params.s == pytest.approx(1.0, abs=1e-9)
    assert r.params.kappa == pytest.approx(1.0, abs=1e-9)
    assert FLAG_SINGULAR_PRIOR in r.flags
    assert math.isfinite(r.params.phi_s)


def test_mom_estimate_equivariance_with_rotated_prior():
    truth = StateParams(0.5, 1.8, 0.4)
    scan = sample_homodyne_scan(truth, ScanConfig(n_psi=600), seed=17)
    prior = StateParams(0.55, 1.7, 0.5)
    base = mom_estimate(scan, prior=prior)
    delta = 0.7
    shifted = HomodyneScan(phases=scan.phases + delta, samples=scan.samples, meta=None)
    r = mom_estimate(
        shifted, prior=StateParams(prior.s, prior.kappa, prior.phi_s + delta)
    )
    assert r.params.s == pytest.approx(base.params.s, abs=1e-10)
    assert r.params.kappa == pytest.approx(base.params.kappa, abs=1e-10)
    assert angle_distance(r.params.phi_s, base.params.phi_s + delta) < 1e-10


def test_dhd_round_trip_exact():
    for p in grid_points()[::7]:
        r = dhd_estimate(exact_moment_batch(p))
        assert abs(r.params.s - p.s) < 1e-9
        assert abs(r.params.kappa - p.kappa) < 1e-9
        if p.s < 0.999:
            assert angle_distance(r.params.phi_s, p.phi_s) < 1e-8


def test_dhd_nonphysical_on_noisy_vacuum():
    # small batches of vacuum data eventually put an eigenvalue below zero
    vac = StateParams(1.0, 1.0, 0.0)
    seen = False
    from squeezelab import sample_dhd

    for trial in range(200):
        r = dhd_estimate(sample_dhd(vac, 10, seed=1, trial=trial))
        if not r.physical:
            assert FLAG_NONPHYSICAL in r.flags
            assert math.isfinite(r.params.kappa)
            seen = True
            break
    assert seen


def test_dhd_degenerate_isotropic():
    mu = 5000
    rng = np.random.default_rng(3)
    z = rng.normal(size=(mu, 2))
    raw = z.T @ z / mu
    white = z @ np.linalg.inv(np.linalg.cholesky(raw)).T * math.sqrt(2.0)
    r = dhd_estimate(DhdBatch(q1=white[:, 0], p2=white[:, 1]))
    assert FLAG_DEGENERATE in r.flags
    assert r.params.s == pytest.approx(1.0, abs=1e-9)
    assert r.params.phi_s == 0.0


def test_predicted_cov_positive_when_physical():
    truth = StateParams(0.5, 2.0, 0.3)
    scan = sample_homodyne_scan(truth, ScanConfig(), seed=2)
    for r in (fit_estimate(scan), mom_estimate(scan)):
        if r.physical:
            assert r.predicted_cov is not None
            assert r.predicted_cov.ss > 0
            assert r.predicted_cov.kk > 0
            assert r.predicted_cov.pp > 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    s=st.floats(0.05, 1.0),
    kappa=st.floats(1.0, 4.0),
    phi=st.floats(0.0, math.pi, exclude_max=True),
    n=st.integers(3, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_physical_iff_no_nonphysical_flag(s, kappa, phi, n, seed):
    """Small samples put many estimates outside the physical domain."""
    truth = StateParams(s, kappa, phi)
    scan = sample_homodyne_scan(truth, ScanConfig(n_psi=n), seed=seed)
    batch = sample_dhd(truth, n, seed=seed)
    for res in (fit_estimate(scan), mom_estimate(scan), dhd_estimate(batch)):
        assert res.physical == (FLAG_NONPHYSICAL not in res.flags), res
        assert not res.physical or res.params.is_physical, res
