"""Fisher information and variance bounds against independent oracles.

Closed forms are checked three ways: frozen hand-computed values,
numerical quadrature of the per-phase information integrand, and finite
differences replacing every analytic derivative.  The closed-form DHD
information is also held to the numeric trace loop it replaced and to
exact rational arithmetic.
"""

import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from squeezelab import (
    SPACINGS,
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
    variance_coefficients,
    variance_partials,
)
from squeezelab.model import S_FLOOR

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
        phases = ScanConfig(n_psi=n_psi).phase_grid()
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        phases = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_psi))
    return p, phases


@settings(max_examples=300)
@given(state_and_grid())
@example((StateParams(1.0, 2.5, 0.9), ScanConfig(n_psi=60).phase_grid()))
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


def _fisher_expression(p, harmonics):
    """The discrete Fisher matrix as one expression over fresh temporaries:
    the reference that the in-place kernel must reproduce bit for bit."""
    s, k = p.s, p.kappa
    (a, bc, bs), _, c2p, s2p = variance_coefficients(s, k, p.phi_s)
    r = k / (2.0 * s * s)
    q = k * ((s - 1.0) * (s + 1.0)) / s
    t = np.array(((r * (s * s - 1.0), r * ((s * s + 1.0) * c2p), r * ((s * s + 1.0) * s2p)),
                  (a, bc, bs),
                  (0.0, -q * s2p, q * c2p)))
    g = t @ harmonics
    f = (g * (0.5 / (g[1] * g[1]))) @ g.T
    return f / np.array((1.0, k, 1.0))[:, None] / np.array((1.0, k, 1.0))


@settings(max_examples=300)
@given(log_s=st.floats(math.log(1e-6), 0.0), log_kappa=st.floats(-3.0, 5.0),
       phi=st.floats(-10.0, 10.0), n_psi=st.integers(1, 999),
       spacing=st.sampled_from(SPACINGS), seed=st.integers(0, 2**32 - 1))
def test_discrete_fisher_keeps_the_expression_bits(log_s, log_kappa, phi, n_psi, spacing, seed):
    p = StateParams(math.exp(log_s), math.exp(log_kappa), phi)
    if spacing == "random":
        phases = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n_psi))
    else:
        phases = ScanConfig(n_psi=n_psi).phase_grid()
    upper = np.triu_indices(3)
    want = _fisher_expression(p, grid_harmonics(phases))[upper]
    got = fisher_homodyne_discrete(p, phases).as_array()[upper]
    assert got.tobytes() == want.tobytes()


def test_discrete_fisher_refuses_harmonics_of_another_shape():
    # a (B, 3, N) stack or rows of other phases would be read as rows of these
    p = StateParams(0.4, 1.7, 0.3)
    phases = ScanConfig(n_psi=5).phase_grid()
    for harmonics in (grid_harmonics(np.stack((phases, phases))), grid_harmonics(phases[:4])):
        with pytest.raises(ValueError, match=re.escape(f"{harmonics.shape}") + ".*" + re.escape("(3, 5)")):
            fisher_homodyne_discrete(p, phases, harmonics=harmonics)


@settings(max_examples=200)
@given(log_s=st.floats(math.log(S_FLOOR), 0.0), log_kappa=st.floats(-3.0, 5.0),
       phi=st.floats(-10.0, 10.0), n_psi=st.integers(1, 999),
       spacing=st.sampled_from(SPACINGS), seed=st.integers(0, 2**32 - 1))
def test_discrete_fisher_kappa_entry_is_n_over_two_kappa_squared(log_s, log_kappa, phi, n_psi,
                                                                 spacing, seed):
    """dV/dkappa = V / kappa, so w (dV/dkappa)^2 = 1/(2 kappa^2) at every phase
    and F_kappakappa = N / (2 kappa^2) for any phases and any s.  Bound: N + 8
    ulp, the first-order rounding of four products per phase, a sum of N
    terms and two divisions, with slack for the second order."""
    p = StateParams(math.exp(log_s), math.exp(log_kappa), phi)
    if spacing == "random":
        phases = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n_psi))
    else:
        phases = ScanConfig(n_psi=n_psi).phase_grid()
    exact = Fraction(n_psi, 2) / Fraction(p.kappa) ** 2
    got = fisher_homodyne_discrete(p, phases).kk
    assert abs(Fraction(got) - exact) <= (n_psi + 8) * Fraction(math.ulp(float(exact)))


def _decimal_fisher(p, harmonics):
    """(F, sum_j |w g_a g_b|) at 60 digits from the kernel's float inputs: s,
    kappa, cos 2phi_s and sin 2phi_s as ``variance_coefficients`` gives them,
    and the harmonics, each read exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal
        _, _, c2p, s2p = variance_coefficients(p.s, p.kappa, p.phi_s)
        s, k, c2p, s2p = d(p.s), d(p.kappa), d(c2p), d(s2p)
        a, b = k * (s + 1 / s) / 2, k * (s - 1 / s) / 2
        f = [[d(0)] * 3 for _ in range(3)]
        mag = [[d(0)] * 3 for _ in range(3)]
        for _, h1, h2 in harmonics.T.tolist():
            cos2u = c2p * d(h1) + s2p * d(h2)
            sin2u = c2p * d(h2) - s2p * d(h1)
            v = a + b * cos2u
            g = (k * ((s * s - 1) + (s * s + 1) * cos2u) / (2 * s * s), v / k, 2 * b * sin2u)
            w = 1 / (2 * v * v)
            for i in range(3):
                for j in range(3):
                    f[i][j] += w * g[i] * g[j]
                    mag[i][j] += abs(w * g[i] * g[j])
    return f, mag


@settings(max_examples=200)
@given(log_s=st.floats(math.log(S_FLOOR), 0.0), log_kappa=st.floats(-3.0, 5.0),
       phi=st.floats(-10.0, 10.0), n_psi=st.integers(3, 64),
       spacing=st.sampled_from(SPACINGS), seed=st.integers(0, 2**32 - 1))
@example(log_s=-6.103515625e-05, log_kappa=0.0, phi=0.0, n_psi=3, spacing="equispaced", seed=0)
def test_discrete_fisher_against_decimal_arithmetic(log_s, log_kappa, phi, n_psi, spacing, seed):
    """Each entry within 64 eps (1 + 1/s^2) of the sum of |w g_a g_b| it
    adds: V and the partials are rounded at the scale of a, so their
    relative error grows as eps / s^2 on the squeezed axis.  The example near
    s = 1 fails for a dV/dphi_s built from b = kappa (s - 1/s) / 2, which
    cancels there.  At least three phases: for one or two, an entry can be a
    single term whose partial cancels to near 0, and its error is then not
    bounded by its own size."""
    p = StateParams(math.exp(log_s), math.exp(log_kappa), phi)
    if spacing == "random":
        phases = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n_psi))
    else:
        phases = ScanConfig(n_psi=n_psi).phase_grid()
    harmonics = grid_harmonics(phases)
    want, mag = _decimal_fisher(p, harmonics)
    got = fisher_homodyne_discrete(p, phases, harmonics=harmonics).as_array()
    tol = decimal.Decimal(64 * np.finfo(float).eps * (1.0 + 1.0 / (p.s * p.s)))
    for i, j in zip(*np.triu_indices(3)):
        assert abs(decimal.Decimal(got[i, j]) - want[i][j]) <= tol * mag[i][j], (i, j)


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
        g = state_covariance(p) + np.eye(2)
        gi = np.linalg.inv(g)
        parts = []
        for dp in [(h, 0, 0), (0, h, 0), (0, 0, h)]:
            hi = StateParams(p.s + dp[0], p.kappa + dp[1], p.phi_s + dp[2])
            lo = StateParams(p.s - dp[0], p.kappa - dp[1], p.phi_s - dp[2])
            d = (state_covariance(hi) - state_covariance(lo)) / (2 * h)
            parts.append(d)
        want = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                want[a, b] = 0.5 * np.trace(gi @ parts[a] @ gi @ parts[b])
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


def trace_loop_fisher_dhd(p):
    """Numeric reference for the DHD information: the 2x2 partials of
    G = Gamma_theta + I, its inverse, and (1/2) Tr[G^-1 G_a G^-1 G_b] for
    each pair."""
    s, k = p.s, p.kappa
    c, sn = math.cos(p.phi_s), math.sin(p.phi_s)
    r = np.array([[c, -sn], [sn, c]])
    dr = np.array([[-sn, -c], [c, -sn]])
    d = np.diag([k * s, k / s])
    parts = (r @ np.diag([k, -k / (s * s)]) @ r.T,
             r @ np.diag([s, 1.0 / s]) @ r.T,
             dr @ d @ r.T + r @ d @ dr.T)
    gi = np.linalg.inv(state_covariance(p) + np.eye(2))
    return np.array([[0.5 * np.trace(gi @ a @ gi @ b) for b in parts] for a in parts])


def test_fisher_dhd_matches_trace_loop():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = random_params(rng, s_lo=0.01, s_hi=1.0, k_lo=1.0, k_hi=20.0)
        got = fisher_dhd(p).as_array()
        want = trace_loop_fisher_dhd(p)
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        assert np.all(np.abs(got - want) <= 1e-9 * scale), (p, got, want)


def _exact_fisher_dhd(s, kappa):
    """The closed form of ``fisher_dhd`` in exact rational arithmetic."""
    s, k = Fraction(s), Fraction(kappa)
    l1, l2, d = k * s + 1, k + s, (1 - s) * (1 + s)
    return {
        "ss": k * k * (1 / (l1 * l1) + 1 / (s * s * l2 * l2)) / 2,
        "sk": -k * d * (1 + 2 * k * s + s * s) / (2 * s * l1 * l1 * l2 * l2),
        "kk": (s * s / (l1 * l1) + 1 / (l2 * l2)) / 2,
        "pp": k * k * d * d / (s * l1 * l2),
    }


@settings(max_examples=300)
@given(
    s=st.floats(0.01, 1.0),
    kappa=st.floats(1.0, 20.0),
    phi=st.floats(0.0, math.pi, exclude_max=True),
)
@example(s=1.0, kappa=2.0, phi=0.7)
def test_fisher_dhd_is_exact(s, kappa, phi):
    """Every entry within 4e-15 relative of exact arithmetic; the angle
    decouples exactly, and carries no information at s = 1."""
    f = fisher_dhd(StateParams(s, kappa, phi))
    for name, want in _exact_fisher_dhd(s, kappa).items():
        assert abs(Fraction(getattr(f, name)) - want) <= Fraction(4e-15) * abs(want), name
    assert f.sp == 0.0 and f.kp == 0.0
    if s == 1.0:
        assert f.pp == 0.0


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
