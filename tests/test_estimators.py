"""Estimator identities: inversion, fixed points, equivariance, flags."""

import cmath
import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from conftest import (column_results, column_rows, exact_moment_batch, fit_moments, grid_points,
                      moment_matched_scan)
from test_mom_kernel import mom_weights

from squeezelab import (
    HomodyneScan,
    ScanConfig,
    StateParams,
    angle_distance,
    crb_dhd,
    crb_homodyne,
    dhd_estimate,
    DhdBatch,
    empirical_family,
    eval_variance,
    fisher_homodyne_discrete,
    fit_estimate,
    grid_harmonics,
    mom_estimate,
    sample_dhd,
    sample_homodyne_scan,
    state_covariance,
    variance_coefficients,
    variance_partials,
)
from squeezelab import estimators, model
from squeezelab.estimators import (
    FLAG_DEGENERATE,
    FLAG_NONPHYSICAL,
    FLAG_NO_CONVERGENCE,
    FLAG_SINGULAR_INFORMATION,
    FLAG_SINGULAR_PRIOR,
    FLAG_SEED_FALLBACK,
    MAX_MEAN_SQUARE,
    ScanBlock,
    dhd_columns,
    fit_columns,
    mom_columns,
)

RNG = np.random.default_rng(42)


def test_fourier_components_single_sample_arithmetic():
    scan = HomodyneScan(
        phases=np.array([0.0, 0.0, 0.0]), samples=np.array([2.0, 2.0, 2.0])
    )
    c0, c2 = fit_moments(scan)
    assert c0 == pytest.approx(4.0, rel=1e-15)
    assert c2 == pytest.approx(4.0 + 0j, rel=1e-15)


def test_fourier_components_requires_three():
    scan = HomodyneScan(phases=np.zeros(2), samples=np.ones(2))
    for estimate in (fit_estimate, mom_estimate):
        with pytest.raises(ValueError, match="need at least 3 samples"):
            estimate(scan)


def test_scan_block_refuses_phases_that_fit_no_row():
    """Phases must be (N,) or (B, N) of the samples; the error names both shapes."""
    samples = np.ones((2, 12))
    for phases in (np.linspace(0, 3, 10), np.zeros((3, 12)), np.zeros((2, 10)), np.zeros(24)):
        with pytest.raises(ValueError, match=re.escape(f"{phases.shape} fit neither (N,) nor "
                                                       "(B, N) of (2, 12)")):
            ScanBlock.of(phases, samples)
    for phases in (np.zeros(12), np.zeros((2, 12))):
        assert ScanBlock.of(phases, samples).phases.shape == phases.shape


def test_one_scan_estimates_take_a_prepared_one_row_block():
    """fit_estimate and mom_estimate of a scan's one-row ScanBlock are those
    of the scan, bit for bit; a block of two rows raises."""
    for spacing in ("equispaced", "random"):
        cfg = ScanConfig(n_psi=64, spacing=spacing)
        scan = sample_homodyne_scan(StateParams(0.5, 2.0, 0.3), cfg, seed=5)
        block = ScanBlock.of(scan.phases, scan.samples)
        fit = fit_estimate(scan)
        assert repr(fit_estimate(block)) == repr(fit)
        assert repr(mom_estimate(block, fit=fit)) == repr(mom_estimate(scan))
        two = ScanBlock.of(scan.phases, np.stack([scan.samples] * 2))
        for estimate in (fit_estimate, mom_estimate):
            with pytest.raises(ValueError, match="one row, got 2"):
                estimate(two)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_mom_refuses_fewer_than_one_iteration(max_iter):
    scan = sample_homodyne_scan(StateParams(0.5, 2.0, 0.3), ScanConfig(n_psi=64), seed=5)
    with pytest.raises(ValueError, match="max_iter"):
        mom_estimate(scan, max_iter=max_iter)
    block = ScanBlock.of(scan.phases, scan.samples)
    with pytest.raises(ValueError, match="max_iter"):
        mom_columns(block, fit_columns(block), max_iter=max_iter)


def test_fourier_components_population_means():
    p = StateParams(0.35, 1.9, 0.85)
    c0, c2 = fit_moments(moment_matched_scan(p))
    want_c0 = p.kappa * (1 + p.s**2) / (2 * p.s)
    want_c2 = -p.kappa * (1 - p.s**2) / (4 * p.s) * cmath.exp(-2j * p.phi_s)
    assert c0 == pytest.approx(want_c0, rel=1e-12)
    assert c2.real == pytest.approx(want_c2.real, abs=1e-12)
    assert c2.imag == pytest.approx(want_c2.imag, abs=1e-12)


def test_fourier_components_vacuum():
    c0, c2 = fit_moments(moment_matched_scan(StateParams(1.0, 1.0, 0.0)))
    assert c0 == pytest.approx(1.0, rel=1e-14)
    assert abs(c2) < 1e-13


def test_fit_inversion_exact_on_grid():
    for p in grid_points():
        r = fit_estimate(moment_matched_scan(p))
        assert abs(r.params.s - p.s) < 1e-10
        assert abs(r.params.kappa - p.kappa) < 1e-10
        if p.s < 1.0:
            assert angle_distance(r.params.phi_s, p.phi_s) < 1e-10
        # at kappa = 1 rounding lands within PHYSICAL_EDGE_TOL of the edge
        assert r.physical


# Each Fourier moment of a moment-matched scan is rounded at the scale of C0:
# a squared root of V, one harmonic and a pairwise mean of at most 1200 terms
# give at most about 16 eps C0; the bound takes four times that.
MOMENT_ROUNDING = 64.0 * np.finfo(float).eps


@settings(max_examples=300)
@given(
    s=st.floats(0.05, 0.99),
    kappa=st.floats(1.0, 4.0),
    phi=st.floats(-4.0, 4.0),
    n=st.integers(1, 4),
    data=st.data(),
)
def test_fit_inverts_moment_matched_scans(s, kappa, phi, n, data):
    """On a noiseless scan over n whole periods of N > 2n equispaced phases
    the Fourier sums are the population moments up to rounding, so
    fit_estimate returns the truth, physical off the kappa = 1 edge.  With
    C0 and |C2| each off by at most e = MOMENT_ROUNDING C0, m = C0 - 2|C2|
    = kappa s and M = C0 + 2|C2| are off by 3e, so s and kappa are off by
    at most 3e / m relatively and the angle by e / |C2|."""
    truth = StateParams(s, kappa, phi)
    n_psi = data.draw(st.integers(2 * n + 1, 1200), label="n_psi")
    r = fit_estimate(moment_matched_scan(truth, n_psi=n_psi, n=n))
    err = MOMENT_ROUNDING * kappa * (1.0 + s * s) / (2.0 * s)
    assert abs(r.params.s - s) <= 3.0 * err / kappa
    assert abs(r.params.kappa - kappa) <= 3.0 * err / s
    assert angle_distance(r.params.phi_s, truth.phi_s) <= err * 4.0 * s / (kappa * (1.0 - s * s))
    # physical wherever that error cannot reach the kappa = 1 edge; at the
    # edge the rounding lands on either side of it (ROADMAP item 6)
    if kappa - 3.0 * err / s > 1.0:
        assert r.physical


def test_fit_vacuum_degenerate():
    scans = [moment_matched_scan(StateParams(1.0, 1.0, 0.0))]
    # q = 1 leaves a second harmonic of 0 to ~1e-16 of C0, by grid and summation order
    for n_psi in (300, 301, 600, 900, 1000, 1200):
        scans.append(HomodyneScan(phases=ScanConfig(n_psi=n_psi).phase_grid(), samples=np.ones(n_psi)))
    for scan in scans:
        r = fit_estimate(scan)
        assert r.params.s == pytest.approx(1.0, abs=1e-12)
        assert r.params.kappa == pytest.approx(1.0, abs=1e-12)
        assert FLAG_DEGENERATE in r.flags
        assert r.params.phi_s == 0.0
        assert r.physical and FLAG_NONPHYSICAL not in r.flags


def test_fit_nonphysical_flagged_not_clamped():
    # q^2 = 1 + cos(2 psi) makes c0 - 2|c2| exactly zero
    cfg = ScanConfig(n_psi=720, n=2)
    psi = cfg.phase_grid()
    scan = HomodyneScan(
        phases=psi, samples=np.sqrt(1.0 + np.cos(2 * psi))
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
            phases=scan.phases + delta, samples=scan.samples
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
            HomodyneScan(phases=scan.phases, samples=g * scan.samples)
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


def test_mom_estimate_fixed_point_on_grid():
    for p in grid_points():
        if p.s >= 0.999:
            continue
        r = mom_estimate(moment_matched_scan(p), prior=p)
        assert abs(r.params.s - p.s) < 1e-10
        assert abs(r.params.kappa - p.kappa) < 1e-10
        assert angle_distance(r.params.phi_s, p.phi_s) < 1e-10


def test_mom_step_singular_prior_flag():
    """One update from a prior at s = 1 flags the singular angle update
    and keeps the prior's angle."""
    scan = sample_homodyne_scan(StateParams(0.5, 2.0, 0.3), ScanConfig(n_psi=300), seed=5)
    r = mom_estimate(scan, prior=StateParams(1.0, 1.0, 0.9), max_iter=1)
    assert FLAG_SINGULAR_PRIOR in r.flags
    assert r.params.phi_s == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("bad, component", [
    *((bad, component) for bad in (math.nan, math.inf, -math.inf)
      for component in ("s", "kappa", "phi_s")),
    (-1.0, "s"), (0.0, "s"), (-3.0, "kappa"), (0.0, "kappa"),
])
def test_non_finite_prior_is_rejected(bad, component):
    """A given prior is outside input: the loop guards must not quietly
    replace a non-finite component, s <= 0 or kappa <= 0 and report a
    converged estimate."""
    scan = sample_homodyne_scan(StateParams(0.5, 2.0, 0.3), ScanConfig(n_psi=64), seed=0)
    bits = {"s": 0.5, "kappa": 2.0, "phi_s": 0.3, component: bad}
    with pytest.raises(ValueError):
        mom_estimate(scan, prior=StateParams(**bits))


@pytest.mark.parametrize("n_psi", [16, 64, 900])
def test_prior_beyond_the_s_floor_is_rejected(n_psi):
    """Far from s = 1 the moment update cannot be evaluated: at s = 1e-200
    s^2 underflows, at 1e-12 the least model variance rounds to 0.  Such a
    prior (or its mirror 1/s) raises ValueError naming the floor; priors at
    the floor run without a floating-point warning."""
    scan = sample_homodyne_scan(StateParams(0.5, 2.0, 0.3), ScanConfig(n_psi=n_psi), seed=0)
    for s in (1e-200, 1e-12, 1e12):
        with pytest.raises(ValueError, match=r"needs 1e-06 <= s <= 1e\+06"):
            mom_estimate(scan, prior=StateParams(s, 1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            for s in (1e-6, 1e6):
                assert math.isfinite(mom_estimate(scan, prior=StateParams(s, 1.0, 0.0)).params.s)


@pytest.mark.parametrize("s", [1e-6, 0.5, 1e6])
def test_prior_beyond_the_kappa_bound_is_rejected(s):
    """A prior kappa outside [1e-90, 1e90] raises ValueError naming the
    bound: at 1e300 the reducer's V^2 overflowed, at 1e-300 it divided by
    0.  At the bound, with s at the floor or not and data whose mean square
    is at either limit, the reducer's sum of x^2 / V^2 is finite and
    positive, and MoM runs without overflow, division by 0 or an invalid
    value (a product of a tiny term and a harmonic near 0 may underflow)."""
    limit = model.KAPPA_LIMIT
    cfg = ScanConfig(n_psi=64)
    scan = sample_homodyne_scan(StateParams(0.5, 2.0, 0.3), cfg, seed=0)
    for kappa in (math.nextafter(limit, math.inf), math.nextafter(1.0 / limit, 0.0),
                  1e300, 1e-300):
        with pytest.raises(ValueError, match=r"needs 1e-90 <= kappa <= 1e\+90"):
            mom_estimate(scan, prior=StateParams(s, kappa, 0.3))
    mean_square = float(np.mean(scan.samples**2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for target in (0.5 * MAX_MEAN_SQUARE, 2.0 / MAX_MEAN_SQUARE):
                scaled = dataclasses.replace(
                    scan, samples=scan.samples * math.sqrt(target / mean_square))
                x2 = (scaled.samples**2)[None]
                for kappa in (limit, 1.0 / limit):
                    coefs = variance_coefficients(s, kappa, 0.3)[0]
                    [m] = estimators._mom_reducer(grid_harmonics(cfg.phase_grid()), x2)([coefs])
                    assert 0.0 < m[0] < math.inf
                    mom_estimate(scaled, prior=StateParams(s, kappa, 0.3))


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
    cfg = ScanConfig()
    for scan in (moment_matched_scan(StateParams(1.0, 1.0, 0.0)),
                 HomodyneScan(phases=cfg.phase_grid(), samples=np.ones(cfg.n_psi))):
        r = mom_estimate(scan)
        assert r.params.s == pytest.approx(1.0, abs=1e-9)
        assert r.params.kappa == pytest.approx(1.0, abs=1e-9)
        assert FLAG_SINGULAR_PRIOR in r.flags
        assert math.isfinite(r.params.phi_s)
        # kappa comes out a few ulp below 1, inside PHYSICAL_EDGE_TOL
        assert r.physical and FLAG_NONPHYSICAL not in r.flags


def test_mom_estimate_equivariance_with_rotated_prior():
    truth = StateParams(0.5, 1.8, 0.4)
    scan = sample_homodyne_scan(truth, ScanConfig(n_psi=600), seed=17)
    prior = StateParams(0.55, 1.7, 0.5)
    base = mom_estimate(scan, prior=prior)
    delta = 0.7
    shifted = HomodyneScan(phases=scan.phases + delta, samples=scan.samples)
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


@settings(max_examples=200)
@given(
    s=st.floats(0.05, 0.999),
    kappa=st.floats(1.0, 10.0),
    phi=st.floats(0.0, math.pi, exclude_max=True),
    mu=st.sampled_from((64, 900)),
)
def test_dhd_inverts_exact_moments_with_the_bound_as_covariance(s, kappa, phi, mu):
    """On pairs whose second moments are Gamma_theta + I (to rounding) the
    eigensystem returns the truth, physical but next to the kappa = 1 edge, and
    its covariance diagonal is the closed-form DHD bound at the estimate."""
    truth = StateParams(s, kappa, phi)
    r = dhd_estimate(exact_moment_batch(truth, mu))
    assert abs(r.params.s - s) <= 1e-11 * s
    assert abs(r.params.kappa - kappa) <= 1e-11 * kappa
    assert angle_distance(r.params.phi_s, truth.phi_s) <= 1e-11
    if kappa - 1.0 <= 1e-11 and not r.physical:
        # within the recovery bound of the pure-state edge: lam_min = mid - r
        # cancels, and the estimate can land some 100 ulp below kappa = 1,
        # beyond the physical edge's 4 ulp; it is flagged, and nothing else
        assert r.flags == {FLAG_NONPHYSICAL}, r
        return
    assert r.physical, r
    bound = crb_dhd(r.params, mu).as_tuple()
    for got, want in zip(r.predicted_cov.diag(), bound):
        assert abs(got - want) <= 1e-12 * want


@settings(max_examples=300)
@given(
    data=st.integers(3, 12).flatmap(lambda n: st.tuples(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))),
)
def test_dhd_any_finite_input_gives_a_result_or_value_error(data):
    """Any finite (q1, p2) over the whole float64 range gives an estimate
    or the boundary ValueError: no other exception and no RuntimeWarning."""
    q1, p2 = data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = dhd_estimate(DhdBatch(q1=np.array(q1), p2=np.array(p2)))
        except ValueError:
            return
    assert r.physical == (FLAG_NONPHYSICAL not in r.flags)
    assert r.physical == (r.predicted_cov is not None
                          or FLAG_SINGULAR_INFORMATION in r.flags)


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


def test_dhd_keeps_the_sign_when_both_eigenvalues_are_negative():
    # all-zero data give Gamma_theta = -I, which must not read as the vacuum
    r = dhd_estimate(DhdBatch(q1=np.zeros(40), p2=np.zeros(40)))
    assert r.params.s < 0.0 and r.params.kappa < 0.0
    assert FLAG_NONPHYSICAL in r.flags and not r.physical
    # uncorrelated +-a, +-b data give Gamma_theta = diag(a^2 - 1, b^2 - 1)
    a, b = 0.5, 0.8
    r = dhd_estimate(DhdBatch(q1=np.array([a, -a, a, -a]), p2=np.array([b, b, -b, -b])))
    assert r.params.s == pytest.approx(-math.sqrt(0.75 / 0.36), rel=1e-12)
    assert r.params.kappa == pytest.approx(-math.sqrt(0.75 * 0.36), rel=1e-12)
    assert FLAG_NONPHYSICAL in r.flags


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_non_finite_samples_are_rejected(bad):
    """nan, inf and a finite sample whose square overflows all raise
    ValueError, never a RuntimeWarning or an estimate iterated on inf."""
    truth = StateParams(0.5, 2.0, 0.3)
    scan = sample_homodyne_scan(truth, ScanConfig(n_psi=64), seed=0)
    q = scan.samples.copy()
    q[5] = bad
    broken = dataclasses.replace(scan, samples=q)
    for estimate in (fit_estimate, lambda sc: mom_estimate(sc, prior=truth), mom_estimate):
        with pytest.raises(ValueError, match="finite"):
            estimate(broken)

    batch = sample_dhd(truth, 64, seed=0)
    for name in ("q1", "p2"):
        x = getattr(batch, name).copy()
        x[5] = bad
        with pytest.raises(ValueError, match="finite"):
            dhd_estimate(dataclasses.replace(batch, **{name: x}))


@pytest.mark.parametrize("scale", [1e77, 1e80, 1e150])
def test_out_of_range_samples_are_rejected(scale):
    """Finite samples whose mean square exceeds MAX_MEAN_SQUARE raise
    ValueError naming the limit: scaled by 1e77 the fit returned kappa = inf
    and MoM overflowed, and DHD returned kappa = inf."""
    truth = StateParams(0.5, 1.5, 0.0)
    scan = sample_homodyne_scan(truth, ScanConfig(), seed=0)
    big = dataclasses.replace(scan, samples=scan.samples * scale)
    limit = "mean square of at most 1e\\+100"
    for estimate in (fit_estimate, mom_estimate, lambda sc: mom_estimate(sc, prior=truth)):
        with pytest.raises(ValueError, match=limit):
            estimate(big)

    batch = sample_dhd(truth, 900, seed=0)
    for name in ("q1", "p2"):
        scaled = dataclasses.replace(batch, **{name: getattr(batch, name) * scale})
        with pytest.raises(ValueError, match=f"{name} must be finite.*{limit}"):
            dhd_estimate(scaled)


@pytest.mark.parametrize("samples", [[3.45993984e-81, 0.0, 0.0], [1e-60, -2e-60, 5e-61, 0.0]])
def test_tiny_samples_are_rejected(samples):
    """A nonzero mean square below 1 / MAX_MEAN_SQUARE raises ValueError:
    from the first scan MoM iterated until its squared model variance
    underflowed to 0 and divided 0 by 0.  An all-zero scan is still
    estimated."""
    n = len(samples)
    cfg = ScanConfig(n_psi=n)
    tiny = HomodyneScan(cfg.phase_grid(), np.array(samples))
    for estimate in (fit_estimate, mom_estimate,
                     lambda sc: mom_estimate(sc, prior=StateParams(0.5, 2.0, 0.3))):
        with pytest.raises(ValueError, match="mean square of 0 or at least 1e-100"):
            estimate(tiny)
    zeros = HomodyneScan(cfg.phase_grid(), np.zeros(n))
    assert FLAG_SEED_FALLBACK in mom_estimate(zeros).flags


def test_in_range_samples_stay_finite():
    """Just inside the limit every estimator returns a finite estimate
    (warnings are errors here, so nothing overflowed on the way)."""
    truth = StateParams(0.5, 1.5, 0.0)
    scan = sample_homodyne_scan(truth, ScanConfig(), seed=0)
    scale = math.sqrt(0.5 * MAX_MEAN_SQUARE / float(np.mean(scan.samples**2)))
    big = dataclasses.replace(scan, samples=scan.samples * scale)
    batch = sample_dhd(truth, 900, seed=0)
    big_batch = DhdBatch(q1=batch.q1 * scale, p2=batch.p2 * scale)
    for r in (fit_estimate(big), mom_estimate(big), mom_estimate(big, prior=truth),
              dhd_estimate(big_batch)):
        assert math.isfinite(r.params.s) and math.isfinite(r.params.kappa)


@settings(max_examples=300)
@given(
    n=st.integers(3, 40),
    rows=st.integers(1, 3),
    spacing=st.sampled_from(("equispaced", "random")),
    log_s=st.floats(-6.0, 6.0),
    log_kappa=st.floats(-6.0, 6.0),
    phi=st.floats(-10.0, 10.0),
    data=st.data(),
)
def test_any_finite_scan_gives_an_estimate_or_value_error(n, rows, spacing, log_s, log_kappa,
                                                          phi, data):
    """Any finite float64 samples, on the config's grid or on sorted phases
    drawn from every finite float64, give an estimate or a ValueError from
    fit_estimate, from mom_estimate seeded by the fit and from a prior inside
    the accepted s range, and from the block calls: never another exception,
    and never a RuntimeWarning (a phase beyond MAX_PHASE overflowed 2 psi)."""
    cfg = ScanConfig(n_psi=n, spacing=spacing)
    q = data.draw(arrays(np.float64, (rows, n),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    if spacing == "random":
        phases = np.sort(data.draw(arrays(np.float64, (rows, n), elements=st.floats(
            allow_nan=False, allow_infinity=False))), axis=1)
    else:
        phases = cfg.phase_grid()
    prior = StateParams(10.0**log_s, 10.0**log_kappa, phi)

    def block_calls():
        block = ScanBlock.of(phases, q)
        fit = fit_columns(block)
        return [fit, mom_columns(block, fit)]

    calls = [block_calls]
    for i in range(rows):
        scan = HomodyneScan(phases if phases.ndim == 1 else phases[i], q[i])
        calls += [lambda scan=scan: [fit_estimate(scan)], lambda scan=scan: [mom_estimate(scan)],
                  lambda scan=scan: [mom_estimate(scan, prior=prior)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            try:
                results = call()
            except ValueError:
                continue
            assert all(isinstance(r, (estimators.EstimateResult, estimators.Estimates))
                       for r in results)


@pytest.mark.parametrize("bad", [math.nan, 1e60])
def test_block_estimators_check_every_row(bad):
    """A scan block and dhd_columns raise when one sample of one row is nan or
    puts that row's mean square beyond the limit."""
    truth = StateParams(0.5, 2.0, 0.3)
    cfg = ScanConfig(n_psi=64)
    q = np.stack([sample_homodyne_scan(truth, cfg, seed=0, trial=t).samples for t in range(5)])
    grid = cfg.phase_grid()
    assert len(fit_columns(ScanBlock.of(grid, q, grid_harmonics(grid))).params) == 5
    q[3, 7] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        ScanBlock.of(grid, q, grid_harmonics(grid))

    batches = [sample_dhd(truth, 64, seed=0, trial=t) for t in range(5)]
    q1 = np.stack([b.q1 for b in batches])
    p2 = np.stack([b.p2 for b in batches])
    assert len(dhd_columns(q1, p2).params) == 5
    p2[2, 7] = bad
    with pytest.raises(ValueError, match="p2 must be finite"):
        dhd_columns(q1, p2)


@settings(max_examples=40)
@given(
    rows=st.integers(1, 20),
    n=st.integers(3, 300),
    seed=st.integers(0, 2**32 - 1),
    spacing=st.sampled_from(["equispaced", "random"]),
)
def test_block_moments_equal_per_scan_means(rows, n, seed, spacing):
    """fit_columns and dhd_columns reduce each row of a block as np.mean
    reduces a single scan or batch (pairwise sums), so each row's estimate
    equals the one finished from per-scan np.mean moments, bit for bit."""
    rng = np.random.default_rng(seed)
    cfg = ScanConfig(n_psi=n, spacing=spacing)
    q = rng.standard_normal((rows, n)) * rng.uniform(0.5, 3.0, (rows, 1))
    if spacing == "random":
        phases = np.sort(rng.uniform(0.0, 2.0 * math.pi, (rows, n)), axis=1)
    else:
        phases = cfg.phase_grid()
    for i, got in enumerate(column_rows(fit_columns(ScanBlock.of(phases, q)))):
        psi = phases if phases.ndim == 1 else phases[i]
        x2 = q[i] * q[i]
        moments = [float(np.mean(w * x2)) for w in (1.0, np.cos(2.0 * psi), np.sin(2.0 * psi))]
        assert got == estimators._fit_row(*moments)

    q1, p2 = rng.standard_normal((2, rows, n)) * rng.uniform(0.5, 3.0, (2, rows, 1))
    for i, got in enumerate(column_rows(dhd_columns(q1, p2))):
        moments = [float(np.mean(a[i] * b[i])) for a, b in ((q1, q1), (q1, p2), (p2, p2))]
        assert got == estimators._dhd_row(*moments)


def _result_bits(r) -> str:
    """Every bit of an estimate: params, iterations, flags, physical, the
    prior used and the covariance."""
    cov = r.predicted_cov
    return "|".join([
        _hex_params(r.params), str(r.iterations), ",".join(sorted(r.flags)), str(r.physical),
        "None" if r.prior_used is None else _hex_params(r.prior_used),
        "None" if cov is None else " ".join(float(v).hex() for v in cov.as_array().ravel()),
    ])


def _mom_errors(estimate) -> str | None:
    """The ValueError message ``estimate()`` raises, or None."""
    try:
        estimate()
    except ValueError as err:
        return str(err)
    return None


def _mom_block_results(phases, q, max_iter, fit=None, priors=None) -> list:
    """MoM on each row of the block (phases, q), finished as mom_estimate
    finishes one row: the rows of mom_columns seeded from the fit columns
    ``fit`` (the block's own by default), or of the block iteration
    ``estimators._mom_finish`` from ``priors``, each with its row's
    covariance and its prior."""
    block = ScanBlock.of(phases, q)
    if priors is None:
        fit = fit_columns(block) if fit is None else fit
        est = mom_columns(block, fit, max_iter=max_iter)
        priors = [StateParams(*p) for p in estimators._seed_priors(fit.params)[0]]
    else:
        seeds = [p.as_tuple() for p in priors]
        est = estimators._columns(estimators._MOM_FLAGS, estimators._mom_finish(
            block, seeds, [False] * len(seeds), estimators.DEFAULT_TOL, max_iter))

    def cov(params, i):
        one = block.row(i)
        return fisher_homodyne_discrete(params, one.phases, harmonics=one.harmonics).inverse()

    return column_results("mom", est, cov, priors)


def _fit_slice(fit, lo, hi):
    """Rows [lo, hi) of fit columns."""
    return estimators.Estimates(fit.params[lo:hi], fit.physical[lo:hi], fit.iterations[lo:hi],
                                {k: v[lo:hi] for k, v in fit.flags.items()})


@settings(max_examples=100)
@given(
    rows=st.integers(1, 40),
    n=st.sampled_from((16, 64, 900)),
    spacing=st.sampled_from(("equispaced", "random")),
    max_iter=st.sampled_from((1, 3, 20)),
    seeding=st.sampled_from(("fit", "fits", "priors")),
    specials=st.lists(st.sampled_from(("vacuum", "zeros")), max_size=2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_mom_columns_equal_mom_estimate_bit_for_bit(rows, n, spacing, max_iter, seeding,
                                                    specials, seed, data):
    """Each row of a MoM block (mom_columns from the fit columns, or the
    block iteration from priors) is, bit for bit, mom_estimate of that row
    alone: params, iterations, flags, physical, prior and covariance.
    An exact vacuum row and an all-zero row (whose fit forces the
    seed-fallback) may be mixed in; max_iter 1 and 3 leave rows
    unconverged, so the block shrinks unevenly.  Splitting the block
    changes no row, a bad row or prior raises the same ValueError, and a
    list of priors or fits one short of the rows is rejected."""
    rng = np.random.default_rng(seed)
    cfg = ScanConfig(n_psi=n, spacing=spacing)
    truths = [StateParams(rng.uniform(0.05, 1.0), rng.uniform(1.0, 4.0), rng.uniform(0.0, math.pi))
              for _ in range(rows)]
    scans = [sample_homodyne_scan(t, cfg, seed=seed, trial=i) for i, t in enumerate(truths)]
    for kind in specials:
        at = data.draw(st.integers(0, len(scans)))
        q = np.ones(n) if kind == "vacuum" else np.zeros(n)
        scans.insert(at, HomodyneScan(scans[0].phases if spacing == "equispaced" else
                                      np.sort(rng.uniform(0.0, 2.0 * math.pi, n)), q))
    rows = len(scans)
    q = np.stack([scan.samples for scan in scans])
    phases = cfg.phase_grid() if spacing == "equispaced" else np.stack([scan.phases for scan in scans])
    fits = fit_columns(ScanBlock.of(phases, q)) if seeding == "fits" else None
    priors = ([StateParams(rng.uniform(0.05, 2.0), rng.uniform(0.5, 4.0), rng.uniform(0.0, 4.0))
               for _ in range(rows)] if seeding == "priors" else None)

    def block(lo, hi):
        return _mom_block_results(phases if phases.ndim == 1 else phases[lo:hi], q[lo:hi],
                                  max_iter, fit=None if fits is None else _fit_slice(fits, lo, hi),
                                  priors=None if priors is None else priors[lo:hi])

    got = [_result_bits(r) for r in block(0, rows)]
    fit_results = None if fits is None else column_results("fit", fits)
    want = [_result_bits(mom_estimate(
        scan, max_iter=max_iter, fit=None if fits is None else fit_results[i],
        prior=None if priors is None else priors[i])) for i, scan in enumerate(scans)]
    assert got == want
    if "zeros" in specials and seeding != "priors":
        assert any(FLAG_SEED_FALLBACK in line for line in got)
    cut = data.draw(st.integers(0, rows))
    assert [_result_bits(r) for r in block(0, cut) + block(cut, rows)] == got
    if seeding != "fit":
        with pytest.raises(ValueError, match="one prior or fit per row"):
            _mom_block_results(phases, q, max_iter,
                               fit=None if fits is None else _fit_slice(fits, 1, rows),
                               priors=None if priors is None else priors[1:])

    bad = data.draw(st.integers(0, rows - 1))
    for what in ("nan", "huge", "short", "prior-nan", "prior-s"):
        qb = q.copy()
        pb = None if priors is None else list(priors)
        if what == "nan":
            qb[bad, n // 2] = math.nan
        elif what == "huge":
            qb[bad] = 1e60
        elif what == "short":
            qb = qb[:, :2]
        else:
            pb = list(priors or [StateParams(0.5, 2.0, 0.3)] * rows)
            pb[bad] = StateParams(math.nan if what == "prior-nan" else 0.0, 2.0, 0.3)
        ph = phases[..., :qb.shape[1]]
        fits_b = None if fits is None or pb is not None else fits
        one = HomodyneScan(ph if ph.ndim == 1 else ph[bad], qb[bad])
        want_err = _mom_errors(lambda: mom_estimate(
            one, max_iter=max_iter, prior=None if pb is None else pb[bad],
            fit=None if fits_b is None else column_results("fit", fits_b)[bad]))
        assert want_err is not None
        if what.startswith("prior"):
            # a prior is checked where one row of a block is seeded from it, as in track_angle
            got_err = _mom_errors(lambda: estimators._mom_seeded(
                ScanBlock.of(ph, qb).row(bad), pb[bad], estimators.DEFAULT_TOL, max_iter))
        else:
            got_err = _mom_errors(lambda: _mom_block_results(ph, qb, max_iter, fit=fits_b,
                                                             priors=pb))
        assert got_err == want_err


def test_predicted_cov_positive_when_physical():
    truth = StateParams(0.5, 2.0, 0.3)
    scan = sample_homodyne_scan(truth, ScanConfig(), seed=2)
    for r in (fit_estimate(scan), mom_estimate(scan)):
        if r.physical:
            assert r.predicted_cov is not None
            assert r.predicted_cov.ss > 0
            assert r.predicted_cov.kk > 0
            assert r.predicted_cov.pp > 0


@settings(max_examples=200)
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
        assert not res.physical or model.in_physical_domain(res.params.s, res.params.kappa), res


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_mom_covariance_follows_rescaled_samples(scale):
    """Samples scaled by c scale kappa by c^2 and nothing else, so the
    covariance becomes D C D with D = diag(1, c^2, 1); the singularity
    guard must not read the change of units as a singular matrix."""
    scan = sample_homodyne_scan(StateParams(0.5, 1.5, 0.3), ScanConfig(), seed=0)
    base = mom_estimate(scan).predicted_cov.as_array()
    r = mom_estimate(HomodyneScan(scan.phases, scan.samples * scale))
    assert r.predicted_cov is not None, r.flags
    d = np.diag([1.0, scale**2, 1.0])
    got = r.predicted_cov.as_array()
    sd = np.sqrt(np.diag(got))
    np.testing.assert_allclose((got - d @ base @ d) / np.outer(sd, sd), 0.0, atol=1e-12)


@pytest.mark.parametrize("gap", [1e-7, 1e-9])
def test_mom_angle_error_near_the_isotropic_edge(gap):
    """Just below s = 1 the angle information is tiny but not singular:
    the angle standard error is the closed-form bound sqrt(s/N) / (1 - s)."""
    scan = moment_matched_scan(StateParams(1.0 - gap, 1.2, 0.3))
    r = mom_estimate(scan)
    assert r.predicted_cov is not None, r.flags
    s = r.params.s
    assert math.sqrt(r.predicted_cov.pp) == pytest.approx(
        math.sqrt(s / scan.samples.size) / (1.0 - s), rel=1e-6)


def test_mom_covariance_rejected_on_vacuum():
    """On an exact vacuum scan MoM lands on s = 1, where the angle carries
    no information: flagged, no covariance."""
    cfg = ScanConfig()
    r = mom_estimate(HomodyneScan(phases=cfg.phase_grid(), samples=np.ones(cfg.n_psi)))
    assert r.params.s == 1.0
    assert r.predicted_cov is None
    assert FLAG_SINGULAR_INFORMATION in r.flags


def _pinned_results():
    """Every estimator entry point on a fixed set of drawn and exact inputs."""
    prior = StateParams(0.4, 1.8, 0.2)
    out = []
    for cfg in (ScanConfig(n_psi=64), ScanConfig(n_psi=900),
                ScanConfig(n_psi=64, spacing="random")):
        for s in (0.05, 0.21, 0.5, 0.9, 1.0):
            truth = empirical_family(s, 2.9)
            scans = [sample_homodyne_scan(truth, cfg, seed=seed) for seed in range(3)]
            for scan in scans:
                block = ScanBlock.of(scan.phases, scan.samples)
                fit = fit_columns(block)
                seeds = estimators._seed_priors(fit.params)[0]
                out += [fit_estimate(scan), mom_estimate(scan),
                        column_results("mom", mom_columns(block, fit),
                                        priors=[StateParams(*p) for p in seeds])[0],
                        mom_estimate(scan, prior=prior)]
            phases = cfg.phase_grid() if cfg.spacing == "equispaced" else np.stack(
                [scan.phases for scan in scans])
            block = ScanBlock.of(phases, np.stack([scan.samples for scan in scans]))
            out += column_results("fit", fit_columns(block),
                                  lambda p, i: estimators._fit_cov(p, cfg.n_psi))
            for mu in (64, 900):
                batches = [sample_dhd(truth, mu, seed=seed) for seed in range(3)]
                out += [dhd_estimate(batch) for batch in batches]
                out += column_results(
                    "dhd", dhd_columns(np.stack([b.q1 for b in batches]),
                                       np.stack([b.p2 for b in batches])),
                    lambda p, i, mu=mu: estimators._dhd_cov(p, mu))
    cfg = ScanConfig()
    vacuum = HomodyneScan(cfg.phase_grid(), np.ones(cfg.n_psi))
    out += [fit_estimate(vacuum), mom_estimate(vacuum)]
    return out


def _hex_params(p) -> str:
    return " ".join(float(v).hex() for v in p.as_tuple())


def test_estimates_pinned_at_full_precision():
    """Every bit of every estimator output on a fixed input set, as one
    SHA-256: the report pins round to 12 digits and hide last-bit changes.
    MoM estimates with 0 < 1 - s < 1e-5 are kept out of the set, because
    their covariance depends on the singularity guard's tolerance."""
    results = _pinned_results()
    lines = []
    for r in results:
        assert not (r.method == "mom" and 0.0 < 1.0 - r.params.s < 1e-5), r
        cov = r.predicted_cov
        lines.append("|".join([
            r.method,
            _hex_params(r.params),
            "None" if cov is None else " ".join(
                float(getattr(cov, f)).hex() for f in ("ss", "sk", "sp", "kk", "kp", "pp")),
            str(r.physical),
            str(r.iterations),
            ",".join(sorted(r.flags)),
            "None" if r.prior_used is None else _hex_params(r.prior_used),
        ]))
    # the set reaches every outcome the finish can give
    assert {f for r in results for f in r.flags} == {
        "degenerate", "nonphysical", "no-convergence", "seed-fallback", "singular-prior",
        "singular-information"}
    assert any(r.predicted_cov is not None for r in results)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "71d5e11f94a6b476b96daf359cd0811849f2e45ac370380b092a3a080decc605"
