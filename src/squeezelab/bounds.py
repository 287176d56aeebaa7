"""Fisher information and estimator variance bounds.

All bounds come in two flavors: the discrete Fisher sum over an explicit
phase list, and closed-form per-sample expressions divided by the sample
count.  Reports should state which one they used; on equispaced phases
over [0, n pi) the two agree to rounding where ``phase_average_is_exact``
says the grid's aliasing error is below it.  The discrete sum works on
the grid harmonics (``model.grid_harmonics``) and does no trig on the grid
when a caller that already holds them, as MoM does, passes them in.

Unattainable directions are reported as an explicit +inf sentinel (never
by overflow): var_phi at s = 1, and the quantum kappa bound collapsing to
0 at kappa = 1 where the QFI entry diverges.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import StateParams, SymMatrix3, grid_harmonics, variance_coefficients

__all__ = [
    "BoundVector",
    "fisher_homodyne_discrete",
    "phase_averaged_fisher",
    "crb_homodyne",
    "phase_average_is_exact",
    "fit_variance_prediction",
    "fisher_dhd",
    "crb_dhd",
    "qfi_matrix",
    "crb_quantum",
]

INF = float("inf")


@dataclass(frozen=True)
class BoundVector:
    """Per-parameter variance lower bounds normalized to n_samples."""

    var_s: float
    var_kappa: float
    var_phi: float
    n_samples: int

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.var_s, self.var_kappa, self.var_phi)


def _check_n_samples(n_samples: int) -> None:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")


def fisher_homodyne_discrete(params: StateParams, phases, *, harmonics=None) -> SymMatrix3:
    """Fisher information of homodyne samples at the given phase list.

    F_ab = sum_j (1 / 2 V_j^2) (dV_j/da)(dV_j/db) for a zero-mean Gaussian
    sample of variance V_j per phase.  At s = 1 the phi_s row and column
    vanish identically and the matrix is singular; callers flag that.

    No trig on the grid: ``harmonics`` are the rows (1, cos 2psi, sin 2psi)
    of ``phases``, (3, N) (``grid_harmonics`` when not given; another shape
    raises ValueError).  V and its partials are affine in those rows, so one
    product T @ harmonics gives them per phase.  With (a, bc, bs), cos 2phi_s
    and sin 2phi_s from ``model.variance_coefficients``, r = kappa / (2 s^2)
    and q = kappa (s - 1)(s + 1) / s, T's rows are

        dV/ds     = r (s^2 - 1, (s^2 + 1) cos 2phi_s, (s^2 + 1) sin 2phi_s)
        V         = (a, bc, bs)
        dV/dphi_s = q (0, -sin 2phi_s, cos 2phi_s)

    q is 2b formed without the cancellation of s - 1/s near s = 1, and 0 at
    s = 1.  dV/dkappa = V / kappa: its 1/kappa is taken on F's kappa row and
    column after the sum, so w V^2 with w = 1/(2 V^2) is 1/2 to a few ulp
    and F_kappakappa = N / (2 kappa^2) to a few ulp for any phases; a row
    of V's coefficients over kappa would be rounded apart from V.

    The rows are rounded at the scale of a, so their relative error grows
    as eps / s^2 on the squeezed axis (``model.check_harmonic_state``).
    F is summed from them per phase: expanding it into moments of 1/V^2
    against the harmonics' products instead cancels badly at small s.
    """
    psi = np.asarray(phases, dtype=float)
    if psi.size == 0:
        raise ValueError("phase list must be non-empty")
    if harmonics is None:
        harmonics = grid_harmonics(psi)
    if harmonics.shape != (3, psi.size):
        raise ValueError(f"harmonics of shape {harmonics.shape} do not fit {psi.size} phases: "
                         f"expected shape {(3, psi.size)}")
    s, k = params.s, params.kappa
    v, _, c2p, s2p = variance_coefficients(s, k, params.phi_s)
    r = k / (2.0 * s * s)
    q = k * ((s - 1.0) * (s + 1.0)) / s
    g = np.array((
        (r * (s * s - 1.0), r * ((s * s + 1.0) * c2p), r * ((s * s + 1.0) * s2p)),
        v,
        (0.0, -q * s2p, q * c2p),
    )) @ harmonics
    w = g[1] * g[1]
    np.divide(0.5, w, out=w)
    (ss, sv, sp), (_, vv, vp), (_, _, pp) = ((g * w) @ g.T).tolist()
    return SymMatrix3(ss=ss, sk=sv / k, sp=sp, kk=vv / k / k, kp=vp / k, pp=pp)


def phase_averaged_fisher(params: StateParams) -> SymMatrix3:
    """Per-sample Fisher information averaged over a uniform phase scan.

    Closed form of (1/pi) integral of the discrete summand over one period:

        F_ss = (1 + s^2) / (2 s^2 (1+s)^2)
        F_sk = -(1 - s) / (2 kappa s (1+s))
        F_kk = 1 / (2 kappa^2)
        F_pp = (1 - s)^2 / s

    phi_s decouples from (s, kappa).
    """
    s, k = params.s, params.kappa
    return SymMatrix3(
        ss=(1.0 + s * s) / (2.0 * s * s * (1.0 + s) ** 2),
        sk=-(1.0 - s) / (2.0 * k * s * (1.0 + s)),
        sp=0.0,
        kk=1.0 / (2.0 * k * k),
        kp=0.0,
        pp=(1.0 - s) ** 2 / s,
    )


def crb_homodyne(params: StateParams, n_samples: int) -> BoundVector:
    """Cramer-Rao bound for a uniform homodyne phase scan of n samples.

    (var_s, var_kappa, var_phi) = (s(1+s)^2, kappa^2(1+s^2)/s, s/(1-s)^2) / n,
    the diagonal of (n ``phase_averaged_fisher``)^-1.  On an equispaced grid
    of n phases where ``phase_average_is_exact`` holds, it is the diagonal
    of ``fisher_homodyne_discrete``'s F^-1 to rounding.  var_phi is the
    float function ``_crb_var_phi``, which a tracked scan calls alone.
    """
    _check_n_samples(n_samples)
    s, k = params.s, params.kappa
    var_s = s * (1.0 + s) ** 2 / n_samples
    var_k = k * k * (1.0 + s * s) / (s * n_samples)
    return BoundVector(var_s, var_k, _crb_var_phi(s, n_samples), n_samples)


def _crb_var_phi(s: float, n_samples: int) -> float:
    """``crb_homodyne``'s var_phi at the floats s and n >= 1; +inf at s = 1."""
    return INF if s == 1.0 else s / ((1.0 - s) ** 2 * n_samples)


def phase_average_is_exact(s: float, m: int) -> bool:
    """Whether an m-point equispaced sum of the homodyne Fisher summand is
    its phase average to rounding.

    An equispaced grid of n_psi phases over [0, n pi) visits
    m = n_psi / gcd(n_psi, n) distinct doubled angles 2 psi, each equally
    often.  In theta = 2(psi - phi_s), 1/V has Fourier coefficients
    proportional to rho^|k| with rho = (1 - s)/(1 + s), so the summand
    (1/2V^2) dV/da dV/db, 1/V^2 times a trig polynomial of degree 2, has
    coefficients of order |k| rho^(|k|-2).  The m-point sum aliases exactly
    the coefficients at the nonzero multiples of m onto the mean, so

        F_grid = n_psi F_avg (1 + O(m |rho|^(m-2)))

    (Trefethen & Weideman, SIAM Review 56, 2014).  True iff m >= 3 and
    m |rho|^(m-2) <= DBL_EPSILON; at s = 1, rho = 0 and it holds for every
    m >= 3.
    """
    return m >= 3 and m * abs((1.0 - s) / (1.0 + s)) ** (m - 2) <= sys.float_info.epsilon


def fit_variance_prediction(params: StateParams, n_samples: int) -> BoundVector:
    """First-order error-propagation variance of the Fourier fit estimator.

    var_s     = (1 + 6s^2 + 18s^4 + 6s^6 + s^8) / (8 s^2 n)
    var_kappa = kappa^2 (1 - 2s^2 + 18s^4 - 2s^6 + s^8) / (8 s^4 n)
    var_phi   = (5 + 6s^2 + 5s^4) / (4 (1-s^2)^2 n)

    Exceeds the homodyne CRB for every s < 1; equals it at s = 1 in the
    s and kappa components.
    """
    _check_n_samples(n_samples)
    s, k = params.s, params.kappa
    s2 = s * s
    s4 = s2 * s2
    s6 = s4 * s2
    s8 = s4 * s4
    var_s = (1.0 + 6.0 * s2 + 18.0 * s4 + 6.0 * s6 + s8) / (8.0 * s2 * n_samples)
    var_k = k * k * (1.0 - 2.0 * s2 + 18.0 * s4 - 2.0 * s6 + s8) / (8.0 * s4 * n_samples)
    if s == 1.0:
        var_p = INF
    else:
        var_p = (5.0 + 6.0 * s2 + 5.0 * s4) / (4.0 * (1.0 - s2) ** 2 * n_samples)
    return BoundVector(var_s, var_k, var_p, n_samples)


def fisher_dhd(params: StateParams) -> SymMatrix3:
    """Per-repetition Fisher information of double-homodyne sampling.

    F_ab = (1/2) Tr[G^-1 dG/da G^-1 dG/db] with G = Gamma_theta + I (the
    beamsplitter adds one unit of vacuum to each quadrature).  In the
    state's eigenbasis G = diag(kappa s + 1, kappa/s + 1): the s and kappa
    partials are diagonal there and the phi_s partial is off-diagonal, so
    phi_s decouples (F_sp = F_kp = 0).  With l1 = kappa s + 1,
    l2 = kappa + s and d = (1 - s)(1 + s):

        F_ss = kappa^2 (1/l1^2 + 1/(s^2 l2^2)) / 2
        F_sk = -kappa d (1 + 2 kappa s + s^2) / (2 s l1^2 l2^2)
        F_kk = (s^2/l1^2 + 1/l2^2) / 2
        F_pp = kappa^2 d^2 / (s l1 l2)

    d is formed as that product, so nothing cancels near s = 1, and the
    squares as products, which overflow to inf instead of raising.
    """
    s, k = params.s, params.kappa
    l1 = k * s + 1.0
    l2 = k + s
    d = (1.0 - s) * (1.0 + s)
    l1l1 = l1 * l1
    l2l2 = l2 * l2
    return SymMatrix3(
        ss=0.5 * k * k * (1.0 / l1l1 + 1.0 / (s * s * l2l2)),
        sk=-k * d * (1.0 + 2.0 * k * s + s * s) / (2.0 * s * l1l1 * l2l2),
        sp=0.0,
        kk=0.5 * (s * s / l1l1 + 1.0 / l2l2),
        kp=0.0,
        pp=k * k * d * d / (s * l1 * l2),
    )


def crb_dhd(params: StateParams, n_samples: int) -> BoundVector:
    """Closed-form DHD estimator bound for mu = n_samples repetitions.

    var_s     = (s^4 + 2 kappa s^3 + 2 kappa^2 s^2 + 2 kappa s + 1) / (2 kappa^2 mu)
    var_kappa = (kappa^2 + s^2/2 + 1/(2 s^2) + kappa s + kappa/s) / mu
    var_phi   = s (kappa + s)(1 + kappa s) / (kappa^2 (1 - s^2)^2 mu)
    """
    _check_n_samples(n_samples)
    s, k = params.s, params.kappa
    var_s = (s**4 + 2.0 * k * s**3 + 2.0 * k * k * s * s + 2.0 * k * s + 1.0) / (
        2.0 * k * k * n_samples
    )
    var_k = (k * k + s * s / 2.0 + 1.0 / (2.0 * s * s) + k * s + k / s) / n_samples
    if s == 1.0:
        var_p = INF
    else:
        var_p = s * (k + s) * (1.0 + k * s) / (k * k * (1.0 - s * s) ** 2 * n_samples)
    return BoundVector(var_s, var_k, var_p, n_samples)


def qfi_matrix(params: StateParams) -> SymMatrix3:
    """Quantum Fisher information, diagonal in (s, kappa, phi_s).

    diag(kappa^2 / (s^2 (kappa^2+1)), 1/(kappa^2-1), (1-s^2)^2 kappa^2 / (s^2 (kappa^2+1))).
    The kappa entry diverges at kappa = 1 (pure states pin the purity) and
    is reported as +inf.
    """
    s, k = params.s, params.kappa
    common = k * k / (s * s * (k * k + 1.0))
    qkk = INF if k == 1.0 else 1.0 / (k * k - 1.0)
    return SymMatrix3(
        ss=common,
        sk=0.0,
        sp=0.0,
        kk=qkk,
        kp=0.0,
        pp=(1.0 - s * s) ** 2 * common,
    )


def crb_quantum(params: StateParams, n_samples: int) -> BoundVector:
    """Quantum CRB per parameter: inverse QFI diagonal over n samples.

    Diagonal-inverse is exact here because the QFI is diagonal.  A
    divergent information entry maps to a 0 bound; a vanishing one (the
    angle at s = 1) maps to +inf.
    """
    _check_n_samples(n_samples)
    q = qfi_matrix(params)

    def inv(x: float) -> float:
        if x == 0.0:
            return INF
        if math.isinf(x):
            return 0.0
        return 1.0 / (x * n_samples)

    return BoundVector(inv(q.ss), inv(q.kk), inv(q.pp), n_samples)
