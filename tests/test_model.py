"""Core state model: variance curve, angles, covariance round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from squeezelab import (
    SingularMatrixError,
    StateParams,
    SymMatrix3,
    angle_distance,
    canonical_angle,
    empirical_family,
    eval_variance,
    squeezing_db,
    squeezing_db_error,
    state_covariance,
    variance_partials,
)
from squeezelab.model import (
    MAX_PHASE,
    PHYSICAL_EDGE_TOL,
    grid_harmonics,
    in_physical_domain,
    sym2_eigensystem,
)

RNG = np.random.default_rng(1234)


def random_params(rng, s_lo=0.05, s_hi=0.999, k_hi=4.0):
    return StateParams(
        s=rng.uniform(s_lo, s_hi),
        kappa=rng.uniform(1.0, k_hi),
        phi_s=rng.uniform(0.0, math.pi),
    )


def test_canonical_angle_range():
    for phi in (-0.1, 0.0, 1.0, math.pi, math.pi + 0.3, 7.0, -9.5):
        c = canonical_angle(phi)
        assert 0.0 <= c < math.pi
        # same angle modulo pi
        assert math.isclose(math.cos(2 * c), math.cos(2 * phi), abs_tol=1e-12)
        assert math.isclose(math.sin(2 * c), math.sin(2 * phi), abs_tol=1e-12)


def test_angle_distance_wraps():
    assert angle_distance(0.1, math.pi - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert angle_distance(0.0, math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)
    assert angle_distance(1.3, 1.3) == 0.0
    for _ in range(50):
        a, b = RNG.uniform(-10, 10, 2)
        d = angle_distance(a, b)
        assert 0.0 <= d <= math.pi / 2 + 1e-12
        assert angle_distance(b, a) == pytest.approx(d, abs=1e-12)


def test_state_params_canonicalizes_phi():
    p = StateParams(0.5, 2.0, math.pi + 0.3)
    assert p.phi_s == pytest.approx(0.3, abs=1e-12)


def test_is_physical_admits_rounding_at_the_edges():
    edge = PHYSICAL_EDGE_TOL
    assert in_physical_domain(1.0 + edge, 2.0)
    assert in_physical_domain(0.5, 1.0 - edge)
    assert not in_physical_domain(1.0 + 2.0 * edge, 2.0)
    assert not in_physical_domain(0.5, 1.0 - 2.0 * edge)
    assert not in_physical_domain(0.0, 2.0)
    assert not in_physical_domain(0.5, math.inf)


def _ulps_around(x: float, count: int = 3) -> list[float]:
    """x and the ``count`` floats on either side of it."""
    out = [x]
    lo = hi = x
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# nan, the infinities, both zeros and a few ulp either side of every edge
EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, *_ulps_around(0.0),
               *_ulps_around(1.0 + PHYSICAL_EDGE_TOL), *_ulps_around(1.0 - PHYSICAL_EDGE_TOL)]


@settings(max_examples=200)
@given(arrays(np.float64, st.tuples(st.just(2), st.integers(1, 30)),
              elements=st.sampled_from(EDGE_VALUES) | st.floats()))
def test_physical_domain_of_arrays_is_that_of_each_state(sk):
    """in_physical_domain of arrays judges each (s, kappa) as it judges
    that pair of floats, and both follow the rule as written out:
    0 < s <= 1 + tol, kappa >= 1 - tol, both finite."""
    s, kappa = sk
    got = in_physical_domain(s, kappa)
    assert got.dtype == bool and got.shape == s.shape
    want = [in_physical_domain(a, b) for a, b in zip(s.tolist(), kappa.tolist())]
    assert got.tolist() == want
    assert want == [0.0 < a <= 1.0 + PHYSICAL_EDGE_TOL and b >= 1.0 - PHYSICAL_EDGE_TOL
                    and math.isfinite(a) and math.isfinite(b)
                    for a, b in zip(s.tolist(), kappa.tolist())]
    assert all(type(w) is bool for w in want)


def test_vacuum_variance_is_one_everywhere():
    vac = StateParams(1.0, 1.0, 0.0)
    for psi in (0.0, 0.7, 2.0, 3.5):
        assert eval_variance(vac, psi) == pytest.approx(1.0, abs=1e-15)


def test_variance_extremes_at_principal_axes():
    p = StateParams(0.4, 1.7, 0.9)
    assert eval_variance(p, p.phi_s) == pytest.approx(p.kappa * p.s, rel=1e-14)
    assert eval_variance(p, p.phi_s + math.pi / 2) == pytest.approx(
        p.kappa / p.s, rel=1e-14
    )
    psi = np.linspace(0, math.pi, 721)
    v = eval_variance(p, psi)
    assert v.min() >= p.kappa * p.s - 1e-12
    assert v.max() <= p.kappa / p.s + 1e-12


def test_variance_pi_periodic():
    p = StateParams(0.3, 2.5, 1.1)
    psi = np.linspace(-2, 8, 211)
    np.testing.assert_allclose(
        eval_variance(p, psi), eval_variance(p, psi + math.pi), rtol=0, atol=1e-12
    )


def test_phase_average_matches_quadrature():
    # (1/pi) integral of V over a period equals kappa (1+s^2) / (2s)
    for _ in range(5):
        p = random_params(RNG)
        integral, _ = quad(lambda x: eval_variance(p, x), 0.0, math.pi, limit=200)
        target = p.kappa * (1 + p.s**2) / (2 * p.s)
        assert integral / math.pi == pytest.approx(target, abs=1e-10)


def test_variance_partials_match_finite_differences():
    h = 1e-6
    for _ in range(8):
        p = random_params(RNG, s_hi=0.97)
        psi = RNG.uniform(0, 2 * math.pi)
        d_s, d_k, d_p = variance_partials(p, psi)
        fd_s = (
            eval_variance(StateParams(p.s + h, p.kappa, p.phi_s), psi)
            - eval_variance(StateParams(p.s - h, p.kappa, p.phi_s), psi)
        ) / (2 * h)
        fd_k = (
            eval_variance(StateParams(p.s, p.kappa + h, p.phi_s), psi)
            - eval_variance(StateParams(p.s, p.kappa - h, p.phi_s), psi)
        ) / (2 * h)
        # vary the evaluation phase instead of phi_s to dodge the [0, pi) wrap
        fd_p = (
            eval_variance(p, psi - h) - eval_variance(p, psi + h)
        ) / (2 * h)
        assert d_s == pytest.approx(fd_s, rel=1e-6, abs=1e-8)
        assert d_k == pytest.approx(fd_k, rel=1e-6, abs=1e-8)
        assert d_p == pytest.approx(fd_p, rel=1e-6, abs=1e-8)


def test_empirical_family_values():
    p = empirical_family(0.20893)
    assert p.kappa == pytest.approx(2.18776, abs=1e-5)
    assert 1 / p.kappa == pytest.approx(0.457, abs=5e-4)
    assert squeezing_db(empirical_family(0.49205)) == pytest.approx(-1.54, abs=5e-3)
    with pytest.raises(ValueError):
        empirical_family(0.0)
    with pytest.raises(ValueError):
        empirical_family(1.2)


def test_squeezing_db():
    assert squeezing_db(StateParams(1.0, 1.0, 0.0)) == 0.0
    assert squeezing_db(StateParams(0.5, math.sqrt(2.0), 0.0)) == pytest.approx(
        10 * math.log10(math.sqrt(0.5)), rel=1e-12
    )


def test_squeezing_db_error_matches_finite_difference_propagation():
    """sqrt(J C J^T), J the central-difference gradient of 10 log10(kappa s)."""
    rng = np.random.default_rng(7)

    def level(s, kappa):
        return 10.0 * math.log10(kappa * s)

    h = 1e-6
    for _ in range(20):
        p = random_params(rng)
        a = rng.normal(size=(3, 3))
        cov = SymMatrix3.from_array(1e-3 * a @ a.T)
        grad = np.array([
            (level(p.s * (1 + h), p.kappa) - level(p.s * (1 - h), p.kappa)) / (2 * h * p.s),
            (level(p.s, p.kappa * (1 + h)) - level(p.s, p.kappa * (1 - h))) / (2 * h * p.kappa),
            0.0,
        ])
        want = math.sqrt(grad @ cov.as_array() @ grad)
        assert squeezing_db_error(p, cov) == pytest.approx(want, rel=1e-6)
    # a covariance whose propagated variance is negative has no error bar
    bad = SymMatrix3(ss=0.0, sk=-1.0, sp=0.0, kk=0.0, kp=0.0, pp=1.0)
    assert squeezing_db_error(StateParams(0.5, 2.0, 0.0), bad) is None


def test_state_covariance_shape_and_det():
    for _ in range(10):
        p = random_params(RNG)
        g = state_covariance(p)
        assert np.linalg.det(g) == pytest.approx(p.kappa**2, rel=1e-12)
        assert np.trace(g) == pytest.approx(p.kappa * p.s + p.kappa / p.s, rel=1e-12)


def test_covariance_eigen_round_trip():
    for _ in range(20):
        p = random_params(RNG, s_hi=0.98)
        g = state_covariance(p)
        lam_min, lam_max, angle = sym2_eigensystem(g[0, 0], g[0, 1], g[1, 1])
        assert lam_min == pytest.approx(p.kappa * p.s, rel=1e-12)
        assert lam_max == pytest.approx(p.kappa / p.s, rel=1e-12)
        assert angle_distance(angle, p.phi_s) < 1e-12


def test_eigensystem_axis_aligned():
    lam_min, lam_max, angle = sym2_eigensystem(0.5, 0.0, 2.0)
    assert (lam_min, lam_max, angle) == (0.5, 2.0, 0.0)
    assert sym2_eigensystem(2.0, 0.0, 0.5)[2] == pytest.approx(math.pi / 2)


def test_eigensystem_matches_numpy():
    for _ in range(20):
        a = RNG.normal(size=(2, 2))
        sym = a @ a.T + 0.1 * np.eye(2)
        lam_min, lam_max, angle = sym2_eigensystem(sym[0, 0], sym[0, 1], sym[1, 1])
        w = np.linalg.eigvalsh(sym)
        assert lam_min == pytest.approx(w[0], rel=1e-10)
        assert lam_max == pytest.approx(w[1], rel=1e-10)
        rebuilt = state_covariance(StateParams(math.sqrt(lam_min / lam_max),
                                               math.sqrt(lam_min * lam_max), angle))
        np.testing.assert_allclose(rebuilt, sym, atol=1e-10)


def test_sym3_inverse_matches_numpy():
    for _ in range(20):
        a = RNG.normal(size=(3, 3))
        sym = a @ a.T + 0.05 * np.eye(3)
        m = SymMatrix3.from_array(sym)
        np.testing.assert_allclose(
            m.inverse().as_array(), np.linalg.inv(sym), rtol=1e-9, atol=1e-12
        )


def test_sym3_singular_rejected():
    m = SymMatrix3.from_array(np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
    with pytest.raises(SingularMatrixError):
        m.inverse()


def test_grid_harmonics_reject_a_phase_whose_double_overflows():
    """Phases up to MAX_PHASE in size get finite harmonics without a
    warning; one ulp beyond, or a non-finite phase, raises ValueError
    naming the limit instead of overflowing 2 psi."""
    edge = np.array([0.0, MAX_PHASE, -MAX_PHASE, 1e300])
    with np.errstate(all="raise"):
        assert np.all(np.isfinite(grid_harmonics(edge)))
    for bad in (math.nextafter(MAX_PHASE, math.inf), -math.nextafter(MAX_PHASE, math.inf),
                1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="MAX_PHASE"):
            grid_harmonics(np.append(edge, bad).reshape(5, 1))


@settings(max_examples=200)
@given(
    rows=st.integers(1, 8),
    n=st.integers(1, 70),
    scale=st.sampled_from([1.0, 1e3, 1e12, MAX_PHASE]),
    data=st.data(),
)
def test_block_harmonics_are_their_rows_harmonics(rows, n, scale, data):
    """A (B, N) block of phases gets its harmonics on the second-to-last axis,
    (B, 3, N), and row i is grid_harmonics of phase row i, bit for bit."""
    phases = np.array(data.draw(st.lists(st.floats(-scale, scale), min_size=rows * n,
                                         max_size=rows * n))).reshape(rows, n)
    block = grid_harmonics(phases)
    assert block.shape == (rows, 3, n)
    assert block.tobytes() == np.stack([grid_harmonics(row) for row in phases]).tobytes()
