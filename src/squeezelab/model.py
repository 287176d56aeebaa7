"""Gaussian state parameterization and the quadrature variance model.

Conventions used throughout the package:

* shot-noise units: the vacuum quadrature variance is 1 (the variance
  model evaluates to 1 at s = kappa = 1 for every phase);
* the squeezing angle phi_s lives on [0, pi) because the variance model
  is pi-periodic in it;
* physical states satisfy 0 < s <= 1 and kappa >= 1, a rule stated once,
  in ``in_physical_domain``; but none of the functions here hard-enforce
  it: estimators are allowed to produce out-of-domain values and still
  need variances, covariances and dB conversions evaluated at them.  Input
  is checked where it enters, by the command line's ``RunConfig``,
  ``check_harmonic_state`` (scan truths and MoM priors) and
  ``check_drawn_states`` (DHD and trace truths);
* ``state_covariance`` is a plain (2, 2) array; ``SymMatrix3`` holds the
  (s, kappa, phi_s) information and covariance matrices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PHYSICAL_EDGE_TOL",
    "in_physical_domain",
    "S_FLOOR",
    "KAPPA_LIMIT",
    "MAX_DRAW_VARIANCE",
    "MAX_PHASE",
    "StateParams",
    "sym2_eigensystem",
    "SymMatrix3",
    "SingularMatrixError",
    "canonical_angle",
    "angle_distance",
    "eval_variance",
    "quadrature_variance",
    "variance_partials",
    "variance_coefficients",
    "check_harmonic_state",
    "check_drawn_states",
    "grid_harmonics",
    "state_covariance",
    "squeezing_db",
    "squeezing_db_error",
    "empirical_family",
]


def canonical_angle(phi: float) -> float:
    """Map an angle to the canonical squeezing-angle range [0, pi)."""
    out = math.fmod(float(phi), math.pi)
    if out < 0.0:
        out += math.pi
    # fmod can return exactly pi after the shift when phi is a tiny negative
    if out >= math.pi:
        out -= math.pi
    # fmod keeps the sign of a zero remainder (phi = -0.0, -pi, ...): + 0.0 clears it
    return out + 0.0


def angle_distance(a: float, b: float) -> float:
    """Circular distance between two squeezing angles, result in [0, pi/2]."""
    d = math.fmod(a - b, math.pi)
    if d < -math.pi / 2:
        d += math.pi
    elif d > math.pi / 2:
        d -= math.pi
    return abs(d)


# rounding slack on the s <= 1 and kappa >= 1 edges of in_physical_domain:
# four ulp of 1, a few roundings of the estimators' last arithmetic steps
PHYSICAL_EDGE_TOL = 4.0 * math.ulp(1.0)


def in_physical_domain(s, kappa):
    """0 < s <= 1 and 1 <= kappa < inf, each edge of 1 widened by PHYSICAL_EDGE_TOL.

    Estimates of a boundary state land within a few ulp of the edge (MoM on
    an exact vacuum scan returns kappa = 1 - 1.1e-16), so s up to
    1 + PHYSICAL_EDGE_TOL and kappa down to 1 - PHYSICAL_EDGE_TOL count as
    physical; nan fails every test.  Floats give a bool, arrays an
    elementwise bool array.  It judges estimates, not input (see the module
    docstring).
    """
    return ((0.0 < s) & (s <= 1.0 + PHYSICAL_EDGE_TOL)
            & (kappa >= 1.0 - PHYSICAL_EDGE_TOL) & (kappa < math.inf))


@dataclass(frozen=True)
class StateParams:
    """Parameter triple (s, kappa, phi_s) of a zero-mean Gaussian state.

    s is the squeezing ratio, kappa the thermal factor (purity = 1/kappa),
    phi_s the angle of the minimum-variance quadrature.  phi_s is
    canonicalized to [0, pi) on construction; s and kappa are stored as
    given so that estimates outside the physical domain stay visible.
    """

    s: float
    kappa: float
    phi_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "phi_s", canonical_angle(self.phi_s))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s, self.kappa, self.phi_s)


def eval_variance(params: StateParams, psi):
    """Quadrature variance at local-oscillator phase psi.

    V(psi) = kappa s cos^2(psi - phi_s) + (kappa/s) sin^2(psi - phi_s).
    Accepts a scalar or an array of phases.
    """
    v = quadrature_variance(params.s, params.kappa, params.phi_s, psi)
    return float(v) if np.ndim(psi) == 0 else v


def quadrature_variance(s, kappa, phi_s, psi) -> np.ndarray:
    """``eval_variance`` with the parameters given one by one.

    Each of s, kappa, phi_s and psi may be a scalar or an array; they
    broadcast and the arithmetic is elementwise, so arrays of per-phase
    parameters give each phase the variance of its own triple.
    """
    u = np.asarray(psi, dtype=float) - phi_s
    c = np.cos(u)
    sn = np.sin(u)
    return kappa * s * c * c + (kappa / s) * sn * sn


def variance_partials(params: StateParams, psi):
    """Analytic partial derivatives (dV/ds, dV/dkappa, dV/dphi_s).

    dV/ds     = kappa [(s^2 - 1) + (s^2 + 1) cos 2u] / (2 s^2)
    dV/dkappa = V / kappa
    dV/dphi_s = kappa (s - 1/s) sin 2u,   u = psi - phi_s
    """
    s, k = params.s, params.kappa
    u = np.asarray(psi, dtype=float) - params.phi_s
    c2 = np.cos(2.0 * u)
    s2 = np.sin(2.0 * u)
    d_s = k * ((s * s - 1.0) + (s * s + 1.0) * c2) / (2.0 * s * s)
    d_k = (s * (1.0 + c2) / 2.0 + (1.0 - c2) / (2.0 * s))
    d_p = k * (s - 1.0 / s) * s2
    if np.ndim(psi) == 0:
        return float(d_s), float(d_k), float(d_p)
    return d_s, d_k, d_p


# Smallest min(s, 1/s) of a state whose variance is taken on the harmonics:
# of a sampled truth, and of a MoM prior or iterate.  ``variance_coefficients``
# rounds V at the scale of a ~ kappa max(s, 1/s) / 2, so on the squeezed axis,
# V = kappa min(s, 1/s), its relative error grows as eps / s^2.  Against
# 40-digit arithmetic, with phi on 129 points of the default grid, psi = phi
# and kappa = 1/sqrt(s), the median (largest) error reads 3e-13 (1.2e-12) at
# s = 0.01, 2.8e-7 (8.8e-7) at 1e-5, 4.7e-5 (1.4e-4) at 1e-6, and 27 (88)
# times V at 1e-9.  MoM's update also needs the floor: there s^2 nears the
# float64 epsilon, and it underflows below 1e-162.
S_FLOOR = 1e-6

# Widest kappa of a state whose variance is taken on the harmonics, as
# [1 / KAPPA_LIMIT, KAPPA_LIMIT].  MoM's reducer squares V, which lies between
# kappa S_FLOOR and kappa / S_FLOOR, and divides squared samples by V^2, where
# a row's mean square lies within 1e+-100 (``estimators.MAX_MEAN_SQUARE``).
# At the limits V^2 stays within 1e+-192 and mean(x^2) / V^2 within 1e+-292,
# so neither overflows nor underflows, and a row sum of up to 1e16 such terms
# stays finite.  A scan drawn within them has a mean square near
# kappa (s + 1/s) / 2, between 1e-90 and 1e96, which the estimators accept.
KAPPA_LIMIT = 1e90

# Largest variance kappa max(s, 1/s) of a state drawn as DHD pairs or as a
# raw trace.  A trace stores its samples as float32, whose largest finite
# value is 3.4e38: at a variance of 1e70 that is 3400 standard deviations,
# and a normal draw beyond 40 has a probability below 1e-300.  The second
# moments of DHD pairs, and of the scan a trace's windows project to, then
# stay within 1600 times 1e70, far below the estimators' MAX_MEAN_SQUARE =
# 1e100, and the products of two of them that DHD and the fit form stay
# finite.  These draws take their variance from the covariance matrix or from
# ``quadrature_variance``, not from the harmonics, so they need no s floor.
MAX_DRAW_VARIANCE = 1e70

# Largest |psi| whose harmonics are formed: beyond it 2 psi overflows.
MAX_PHASE = 0.5 * sys.float_info.max


def variance_coefficients(s: float, kappa: float, phi_s: float) -> tuple:
    """The variance model on the harmonics (1, cos 2psi, sin 2psi).

    With u = psi - phi_s, V = a + b cos 2u, where a = kappa (s + 1/s) / 2 and
    b = kappa (s - 1/s) / 2, so V is the product of the coefficients
    (a, b cos 2phi_s, b sin 2phi_s) with the harmonics.  Returns those
    coefficients, which the scan sampler and MoM's reducer multiply with
    ``grid_harmonics`` rows, and b, cos 2phi_s and sin 2phi_s, which MoM's
    moments and the homodyne Fisher matrix read.  The product is rounded at
    the scale of a: see ``check_harmonic_state``.
    """
    c2p = math.cos(2.0 * phi_s)
    s2p = math.sin(2.0 * phi_s)
    b = 0.5 * kappa * (s - 1.0 / s)
    return (0.5 * kappa * (s + 1.0 / s), b * c2p, b * s2p), b, c2p, s2p


def check_harmonic_state(s: float, kappa: float, phi_s: float, what: str) -> None:
    """Raise ValueError naming the rule unless the variance of the float state
    (s, kappa, phi_s) may be taken on the harmonics: a finite phi_s, min(s, 1/s)
    >= S_FLOOR and 1 / KAPPA_LIMIT <= kappa <= KAPPA_LIMIT.  The scan sampler
    checks each truth and MoM each given prior; ``what`` names the state."""
    if not (s > 0.0 and min(s, 1.0 / s) >= S_FLOOR):
        rule = (f"{S_FLOOR:g} <= s <= {1.0 / S_FLOOR:g}: "
                f"min(s, 1/s) >= S_FLOOR = {S_FLOOR:g} (the harmonics' precision)")
    elif not 1.0 / KAPPA_LIMIT <= kappa <= KAPPA_LIMIT:
        rule = (f"{1.0 / KAPPA_LIMIT:g} <= kappa <= {KAPPA_LIMIT:g} = KAPPA_LIMIT "
                "(beyond it V^2 overflows or underflows)")
    elif not math.isfinite(phi_s):
        rule = "a finite phi_s"
    else:
        return
    raise ValueError(f"{what} (s={s!r}, kappa={kappa!r}, phi_s={phi_s!r}) needs {rule}")


def check_drawn_states(s, kappa, phi_s) -> None:
    """Raise ValueError unless every state (s, kappa, phi_s) can be drawn as
    DHD pairs or as a raw trace: a finite phi_s, s > 0, kappa > 0 and a
    largest variance kappa max(s, 1/s) of at most MAX_DRAW_VARIANCE.

    The arguments are floats, or arrays with one state per trace window;
    the message names the first state that fails.
    """
    s, kappa, phi_s = np.atleast_1d(s, kappa, phi_s)
    with np.errstate(all="ignore"):
        ok = ((s > 0.0) & (kappa > 0.0) & np.isfinite(phi_s)
              & (kappa * np.maximum(s, 1.0 / s) <= MAX_DRAW_VARIANCE))
    if not ok.all():
        j = int(np.argmin(ok))
        raise ValueError(f"truth (s={float(s[j])!r}, kappa={float(kappa[j])!r}, "
                         f"phi_s={float(phi_s[j])!r}) needs s > 0, kappa > 0, a finite phi_s "
                         f"and kappa max(s, 1/s) <= MAX_DRAW_VARIANCE = {MAX_DRAW_VARIANCE:g}")


def grid_harmonics(phases) -> np.ndarray:
    """Rows (1, cos 2psi, sin 2psi) of phases on the second-to-last axis:
    (3, N) for N phases, (B, 3, N) for B rows of them, each bit for bit the
    rows of its own phases.

    Everything the estimators, the homodyne Fisher matrix and the scan
    sampler need from the grid is a rotation of these rows: with
    u = psi - phi, cos 2u = cos 2psi cos 2phi + sin 2psi sin 2phi and
    sin 2u = sin 2psi cos 2phi - cos 2psi sin 2phi.  So the trig on a grid
    is computed once, here, and reused for every state on it.  A phase that
    is not finite or exceeds MAX_PHASE in size raises ValueError.
    """
    psi = np.asarray(phases, dtype=float)
    if not np.all(np.abs(psi) <= MAX_PHASE):
        raise ValueError(f"phases must be finite, with |psi| <= MAX_PHASE = {MAX_PHASE!r} "
                         "(beyond it 2 psi overflows)")
    two_psi = 2.0 * psi
    return np.stack((np.ones_like(psi), np.cos(two_psi), np.sin(two_psi)), axis=-2)


class SingularMatrixError(ValueError):
    """Raised when a matrix inversion is rejected as numerically singular."""


def sym2_eigensystem(xx: float, xp: float, pp: float) -> tuple[float, float, float]:
    """(lam_min, lam_max, angle of the lam_min eigenvector mod pi) of the
    symmetric 2x2 matrix (xx, xp, pp), in floats.

    Closed form: lam = mid +- r with mid = (xx+pp)/2 and
    r = hypot((xx-pp)/2, xp).  The major-axis angle is
    (1/2) atan2(2 xp, xx - pp), which stays well conditioned as long as
    the eigenvalues differ; the minor axis sits a quarter turn away.  When
    xp = 0 the axes are the eigenvectors directly and the angle is 0 or pi/2.
    """
    mid = 0.5 * (xx + pp)
    r = math.hypot(0.5 * (xx - pp), xp)
    if xp == 0.0:
        angle = 0.0 if xx <= pp else 0.5 * math.pi
    else:
        angle = canonical_angle(0.5 * math.atan2(2.0 * xp, xx - pp) + 0.5 * math.pi)
    return mid - r, mid + r, angle


# relative determinant below which the adjugate inverse is rejected
_SINGULAR_REL_DET = 1e-12


@dataclass(frozen=True)
class SymMatrix3:
    """Symmetric 3x3 matrix indexed by parameter order (s, kappa, phi_s).

    Entry names follow the index pair: ss, sk, sp, kk, kp, pp.
    """

    ss: float
    sk: float
    sp: float
    kk: float
    kp: float
    pp: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                [self.ss, self.sk, self.sp],
                [self.sk, self.kk, self.kp],
                [self.sp, self.kp, self.pp],
            ],
            dtype=float,
        )

    @staticmethod
    def from_array(a) -> "SymMatrix3":
        a = np.asarray(a, dtype=float)
        if a.shape != (3, 3):
            raise ValueError(f"expected a 3x3 array, got shape {a.shape}")
        return SymMatrix3(
            ss=float(a[0, 0]),
            sk=float(0.5 * (a[0, 1] + a[1, 0])),
            sp=float(0.5 * (a[0, 2] + a[2, 0])),
            kk=float(a[1, 1]),
            kp=float(0.5 * (a[1, 2] + a[2, 1])),
            pp=float(a[2, 2]),
        )

    def diag(self) -> tuple[float, float, float]:
        return (self.ss, self.kk, self.pp)

    def inverse(self) -> "SymMatrix3":
        """Adjugate-formula inverse with a conditioning guard.

        Rejects |det| <= 1e-12 |ss kk pp|: for a positive semi-definite
        matrix that ratio is the determinant of its correlation matrix, which
        does not depend on the parameters' units; a zero diagonal entry with
        a zero determinant is rejected.  A rank-deficient information matrix
        must surface as a flag upstream, never as garbage variances.
        """
        c_ss = self.kk * self.pp - self.kp * self.kp
        c_sk = -(self.sk * self.pp - self.kp * self.sp)
        c_sp = self.sk * self.kp - self.kk * self.sp
        # the determinant, expanded along the first row
        d = self.ss * c_ss + self.sk * c_sk + self.sp * c_sp
        if not math.isfinite(d) or abs(d) <= _SINGULAR_REL_DET * abs(self.ss * self.kk * self.pp):
            raise SingularMatrixError(f"matrix is singular at working precision (det={d!r})")
        c_kk = self.ss * self.pp - self.sp * self.sp
        c_kp = -(self.ss * self.kp - self.sk * self.sp)
        c_pp = self.ss * self.kk - self.sk * self.sk
        return SymMatrix3(
            ss=c_ss / d, sk=c_sk / d, sp=c_sp / d,
            kk=c_kk / d, kp=c_kp / d, pp=c_pp / d,
        )


def state_covariance(params: StateParams) -> np.ndarray:
    """Quadrature covariance of the state, the (2, 2) array
    R(phi_s) diag(kappa s, kappa/s) R(phi_s)^T in (x, p) order."""
    lam_a = params.kappa * params.s
    lam_b = params.kappa / params.s
    c = math.cos(params.phi_s)
    sn = math.sin(params.phi_s)
    xp = (lam_a - lam_b) * c * sn
    return np.array([[lam_a * c * c + lam_b * sn * sn, xp],
                     [xp, lam_a * sn * sn + lam_b * c * c]])


def squeezing_db(params: StateParams) -> float:
    """Squeezing level L = 10 log10(kappa s) in dB; negative means squeezed."""
    return 10.0 * math.log10(params.kappa * params.s)


def squeezing_db_error(params: StateParams, cov: SymMatrix3) -> float | None:
    """Delta-method standard error of ``squeezing_db`` at an estimate.

    L = (10 / ln 10) (ln kappa + ln s), so with the estimate's covariance
    C, Var L = (10 / ln 10)^2 (C_ss / s^2 + C_kk / kappa^2 + 2 C_sk / (kappa s)).
    None when that variance comes out negative or not finite.
    """
    prod = params.kappa * params.s
    var_log = cov.ss / params.s**2 + cov.kk / params.kappa**2 + 2.0 * cov.sk / prod
    if not (math.isfinite(var_log) and var_log >= 0):
        return None
    return 10.0 / math.log(10.0) * math.sqrt(var_log)


def empirical_family(s: float, phi_s: float = 0.0) -> StateParams:
    """State on the empirical kappa = 1/sqrt(s) purity family."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"family parameter must satisfy 0 < s <= 1, got {s}")
    return StateParams(s=s, kappa=1.0 / math.sqrt(s), phi_s=phi_s)
