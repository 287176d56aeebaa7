"""Fisher information and variance bounds against independent oracles.

Closed forms are checked three ways: frozen hand-computed values,
numerical quadrature of the per-phase information integrand, and finite
differences replacing every analytic derivative.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from squeezelab import (
    ScanConfig,
    StateParams,
    SymMatrix3,
    crb_dhd,
    crb_homodyne,
    crb_quantum,
    empirical_family,
    eval_variance,
    fisher_dhd,
    fisher_homodyne_discrete,
    fit_variance_prediction,
    grid_harmonics,
    phase_averaged_fisher,
    qfi_matrix,
    state_covariance,
    variance_partials,
)

RNG = np.random.default_rng(777)


def random_params(rng, s_lo=0.1, s_hi=0.95, k_lo=1.05, k_hi=4.0):
    return StateParams(
        s=rng.uniform(s_lo, s_hi),
        kappa=rng.uniform(k_lo, k_hi),
        phi_s=rng.uniform(0.0, math.pi),
    )


def numeric_phase_averaged_fisher(p):
    """Quadrature oracle: (1/pi) integral of dV_a dV_b / (2 V^2)."""

    def integrand(a, b):
        def f(psi):
            h = 1e-6
            v = eval_variance(p, psi)
            grads = []
            for dp in (
                (h, 0.0, 0.0),
                (0.0, h, 0.0),
                (0.0, 0.0, h),
            ):
                hi = _shifted_variance(p, psi, *dp)
                lo = _shifted_variance(p, psi, *(-x for x in dp))
                grads.append((hi - lo) / (2 * h))
            return grads[a] * grads[b] / (2 * v * v)

        val, _ = quad(f, 0.0, math.pi, limit=300)
        return val / math.pi

    out = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            out[a, b] = out[b, a] = integrand(a, b)
    return out


def _shifted_variance(p, psi, ds, dk, dphi):
    # bypass StateParams angle canonicalization by shifting psi instead
    q = StateParams(p.s + ds, p.kappa + dk, p.phi_s)
    return eval_variance(q, psi - dphi)


def test_crb_homodyne_frozen_values():
    b = crb_homodyne(StateParams(1.0, 1.0, 0.0), 900)
    assert b.var_s == pytest.approx(4.0 / 900, rel=1e-12)
    assert b.var_kappa == pytest.approx(2.0 / 900, rel=1e-12)
    assert math.isinf(b.var_phi)

    b = crb_homodyne(StateParams(0.5, 1.0, 0.0), 900)
    assert b.var_s == pytest.approx(1.25e-3, rel=1e-10)
    assert b.var_kappa == pytest.approx(2.5 / 900, rel=1e-12)
    assert b.var_phi == pytest.approx(2.0 / 900, rel=1e-12)


def test_crb_homodyne_positive_and_scaling():
    p = random_params(RNG)
    b1 = crb_homodyne(p, 1)
    b9 = crb_homodyne(p, 9)
    for v1, v9 in zip(b1.as_tuple(), b9.as_tuple()):
        assert v1 > 0
        assert v9 == pytest.approx(v1 / 9, rel=1e-12)


def test_crb_phi_s_independent():
    s, k = 0.37, 1.9
    base = crb_homodyne(StateParams(s, k, 0.0), 900).as_tuple()
    for phi in (0.4, 1.0, 2.5):
        got = crb_homodyne(StateParams(s, k, phi), 900).as_tuple()
        np.testing.assert_allclose(got, base, rtol=1e-12)
    fbase = phase_averaged_fisher(StateParams(s, k, 0.0)).as_array()
    for phi in (0.4, 1.0, 2.5):
        np.testing.assert_allclose(
            phase_averaged_fisher(StateParams(s, k, phi)).as_array(),
            fbase,
            rtol=1e-9,
            atol=1e-12,
        )


def test_phase_averaged_fisher_matches_quadrature():
    for _ in range(3):
        p = random_params(RNG)
        analytic = phase_averaged_fisher(p).as_array()
        numeric = numeric_phase_averaged_fisher(p)
        np.testing.assert_allclose(analytic, numeric, rtol=2e-5, atol=1e-9)


def test_crb_inverts_phase_averaged_fisher():
    for _ in range(10):
        p = random_params(RNG)
        f = phase_averaged_fisher(p).as_array()
        inv = np.linalg.inv(f)
        b = crb_homodyne(p, 900)
        np.testing.assert_allclose(
            np.diag(inv) / 900, b.as_tuple(), rtol=1e-10
        )


def test_discrete_fisher_vacuum_phi_row_zero():
    f = fisher_homodyne_discrete(StateParams(1.0, 1.0, 0.0), np.linspace(0, 2, 7))
    assert f.sp == 0.0 and f.kp == 0.0 and f.pp == 0.0


def test_discrete_fisher_empty_raises():
    with pytest.raises(ValueError):
        fisher_homodyne_discrete(StateParams(0.5, 2.0, 0.0), np.array([]))


def test_discrete_fisher_matches_finite_differences():
    h = 1e-6
    p = StateParams(0.45, 1.6, 0.8)
    phases = np.array([0.0, 0.3, 1.1, 2.2, 2.9])
    got = fisher_homodyne_discrete(p, phases).as_array()
    grads = np.empty((3, len(phases)))
    for j, psi in enumerate(phases):
        for a, dp in enumerate([(h, 0, 0), (0, h, 0), (0, 0, h)]):
            hi = _shifted_variance(p, psi, *dp)
            lo = _shifted_variance(p, psi, *(-x for x in dp))
            grads[a, j] = (hi - lo) / (2 * h)
    v = eval_variance(p, phases)
    want = np.einsum("aj,bj,j->ab", grads, grads, 1.0 / (2 * v * v))
    np.testing.assert_allclose(got, want, rtol=1e-5)


def _trig_fisher_terms(p, phases):
    """Per-phase terms w g_a g_b of the Fisher sum in the trig form, shape (3, 3, N)."""
    v = eval_variance(p, phases)
    g = np.array(variance_partials(p, phases))
    return g[:, None, :] * g[None, :, :] / (2.0 * v * v)


@st.composite
def state_and_grid(draw):
    p = StateParams(draw(st.floats(0.05, 1.0)), draw(st.floats(1.0, 4.0)),
                    draw(st.floats(-10.0, 10.0)))
    n_psi = draw(st.sampled_from((5, 60, 900)))
    if draw(st.booleans()):
        phases = ScanConfig(n_psi=n_psi).grid
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        phases = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_psi))
    return p, phases


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(state_and_grid())
@example((StateParams(1.0, 2.5, 0.9), ScanConfig(n_psi=60).grid))
@example((StateParams(1.0, 1.0, 0.0), np.linspace(0.0, 2.0, 5)))
def test_discrete_fisher_matches_trig_form(case):
    """The harmonic-rotation kernel against eval_variance and variance_partials.

    Each entry within 1e-12 of the sum of |terms| it adds; at s = 1 the
    phi_s row is exactly 0; passing the grid's harmonics changes nothing.
    """
    p, phases = case
    terms = _trig_fisher_terms(p, phases)
    got = fisher_homodyne_discrete(p, phases)
    assert np.all(np.abs(got.as_array() - terms.sum(axis=2)) <= 1e-12 * np.abs(terms).sum(axis=2))
    if p.s == 1.0:
        assert got.sp == 0.0 and got.kp == 0.0 and got.pp == 0.0
    assert fisher_homodyne_discrete(p, phases, harmonics=grid_harmonics(phases)) == got


def test_discrete_fisher_grid_matches_closed_form():
    # equispaced full-period grid: the discrete average equals the integral
    p = StateParams(0.3, 1.82574, 0.7)
    phases = np.arange(900) * (2 * math.pi / 900)
    f = fisher_homodyne_discrete(p, phases).as_array()
    fbar = phase_averaged_fisher(p).as_array()
    np.testing.assert_allclose(f / 900, fbar, rtol=1e-12, atol=1e-12)


def test_fit_prediction_equals_crb_at_s_one():
    for k in (1.0, 1.7, 3.0):
        fit = fit_variance_prediction(StateParams(1.0, k, 0.0), 900)
        crb = crb_homodyne(StateParams(1.0, k, 0.0), 900)
        assert fit.var_s == pytest.approx(crb.var_s, rel=1e-12)
        assert fit.var_kappa == pytest.approx(crb.var_kappa, rel=1e-12)
        assert math.isinf(fit.var_phi)


def test_fit_prediction_frozen_point():
    fit = fit_variance_prediction(StateParams(0.2, 1.0, 0.0), 900)
    crb = crb_homodyne(StateParams(0.2, 1.0, 0.0), 900)
    # (1 + 0.24 + 0.0288 + 0.000384 + 0.00000256) / 0.32, by hand
    assert 900 * fit.var_s == pytest.approx(3.9662080, abs=1e-7)
    assert 900 * fit.var_s == pytest.approx(3.9657, rel=5e-4)
    assert fit.var_s / crb.var_s == pytest.approx(13.8, abs=0.1)


def test_fit_prediction_dominates_crb():
    for s in np.linspace(0.05, 0.999, 25):
        p = StateParams(float(s), 1.8, 0.0)
        fit = fit_variance_prediction(p, 1)
        crb = crb_homodyne(p, 1)
        assert fit.var_s > crb.var_s
        assert fit.var_kappa > crb.var_kappa
        assert fit.var_phi > crb.var_phi


def test_fisher_dhd_matches_finite_differences():
    h = 1e-7
    for _ in range(5):
        p = random_params(RNG)
        got = fisher_dhd(p).as_array()
        g = state_covariance(p).add_identity().as_array()
        gi = np.linalg.inv(g)
        parts = []
        for dp in [(h, 0, 0), (0, h, 0), (0, 0, h)]:
            hi = StateParams(p.s + dp[0], p.kappa + dp[1], p.phi_s + dp[2])
            lo = StateParams(p.s - dp[0], p.kappa - dp[1], p.phi_s - dp[2])
            d = (
                state_covariance(hi).as_array() - state_covariance(lo).as_array()
            ) / (2 * h)
            parts.append(d)
        want = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                want[a, b] = 0.5 * np.trace(gi @ parts[a] @ gi @ parts[b])
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


def test_crb_dhd_frozen_and_inverse_consistency():
    b = crb_dhd(StateParams(1.0, 1.0, 0.0), 1)
    assert b.var_s == pytest.approx(4.0, rel=1e-12)
    assert b.var_kappa == pytest.approx(4.0, rel=1e-12)
    assert math.isinf(b.var_phi)

    for _ in range(20):
        p = random_params(RNG)
        inv = np.linalg.inv(fisher_dhd(p).as_array())
        closed = crb_dhd(p, 1).as_tuple()
        np.testing.assert_allclose(np.diag(inv), closed, rtol=1e-10)


def test_bound_ordering_family_and_pure():
    # purity family: joint quadrature sampling wins on s, loses on kappa
    for s in (0.3, 0.5, 0.7):
        p = empirical_family(s)
        hom = crb_homodyne(p, 900)
        dhd = crb_dhd(p, 900)
        assert dhd.var_s < hom.var_s
        assert dhd.var_kappa > hom.var_kappa
    # nearly pure state: homodyne wins on both
    p = StateParams(0.5, 1.05, 0.0)
    hom = crb_homodyne(p, 900)
    dhd = crb_dhd(p, 900)
    assert hom.var_s < dhd.var_s
    assert hom.var_kappa < dhd.var_kappa


def test_qfi_structure():
    q = qfi_matrix(StateParams(0.5, 2.0, 0.3))
    assert q.sk == 0.0 and q.sp == 0.0 and q.kp == 0.0
    assert q.ss == pytest.approx(4.0 / (0.25 * 5.0), rel=1e-12)
    assert q.kk == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert q.pp == pytest.approx((1 - 0.25) ** 2 * 4.0 / (0.25 * 5.0), rel=1e-12)
    assert math.isinf(qfi_matrix(StateParams(0.5, 1.0, 0.0)).kk)
    assert qfi_matrix(StateParams(1.0, 2.0, 0.0)).pp == 0.0


def test_qfi_dominates_classical():
    for _ in range(20):
        p = random_params(RNG)
        diff = qfi_matrix(p).as_array() - phase_averaged_fisher(p).as_array()
        assert np.linalg.eigvalsh(diff).min() > -1e-10


def test_crb_quantum_sentinels():
    b = crb_quantum(StateParams(0.5, 1.0, 0.0), 900)
    assert b.var_kappa == 0.0
    b = crb_quantum(StateParams(1.0, 2.0, 0.0), 900)
    assert math.isinf(b.var_phi)
    b = crb_quantum(StateParams(0.5, 2.0, 0.0), 900)
    assert b.var_s == pytest.approx(0.25 * 5.0 / 4.0 / 900, rel=1e-12)
