"""The three estimators: Fourier fit, iterative moment-based, DHD eigensystem.

Shared conventions:

* nothing is ever silently clamped; a non-physical intermediate (negative
  variance under a square root, s > 1, kappa < 1) keeps its signed value
  in the output via sign(x) sqrt|x| and drops the ``physical`` flag;
* ``flags`` is a frozenset of short strings naming every anomaly that
  occurred, see the FLAG_* constants;
* ``predicted_cov`` is the model covariance evaluated at the estimate and
  is only computed for physical estimates (the information matrix means
  nothing at an unphysical point);
* the fit, the MoM iterations and the MoM covariance read the phase grid
  only through its harmonics (1, cos 2psi, sin 2psi), taken from the scan's
  ``ScanConfig`` when the scan lies on its grid, so the grid's trig is
  computed once per config, not once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SingularMatrixError,
    StateParams,
    SymMatrix2,
    SymMatrix3,
    angle_distance,
    canonical_angle,
    eval_variance,
    grid_harmonics,
    variance_partials,
)
from .bounds import fisher_homodyne_discrete, fisher_dhd, fit_variance_prediction

__all__ = [
    "EstimateResult",
    "FourierComponents",
    "METHOD_FIT",
    "METHOD_MOM",
    "METHOD_DHD",
    "METHODS",
    "FLAG_DEGENERATE",
    "FLAG_NONPHYSICAL",
    "FLAG_SINGULAR_PRIOR",
    "FLAG_NO_CONVERGENCE",
    "FLAG_SEED_FALLBACK",
    "FLAG_SINGULAR_INFORMATION",
    "signed_sqrt",
    "fourier_components",
    "fit_estimate",
    "mom_weights",
    "mom_step",
    "mom_estimate",
    "dhd_estimate",
]

METHOD_FIT = "fit"
METHOD_MOM = "mom"
METHOD_DHD = "dhd"
METHODS = (METHOD_FIT, METHOD_MOM, METHOD_DHD)

FLAG_DEGENERATE = "degenerate"
FLAG_NONPHYSICAL = "nonphysical"
FLAG_SINGULAR_PRIOR = "singular-prior"
FLAG_NO_CONVERGENCE = "no-convergence"
FLAG_SEED_FALLBACK = "seed-fallback"
FLAG_SINGULAR_INFORMATION = "singular-information"

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 20
FALLBACK_PRIOR = StateParams(s=0.5, kappa=2.0, phi_s=0.0)


def signed_sqrt(x: float) -> float:
    """sqrt(|x|) carrying the sign of x, so failed roots stay visible."""
    return math.copysign(math.sqrt(abs(x)), x)


@dataclass(frozen=True)
class FourierComponents:
    """Zeroth and second Fourier components of the squared quadratures."""

    c0: float
    c2: complex


@dataclass(frozen=True)
class EstimateResult:
    params: StateParams
    predicted_cov: SymMatrix3 | None
    method: str
    physical: bool
    iterations: int
    prior_used: StateParams | None = None
    flags: frozenset = frozenset()

    def predicted_std(self) -> tuple[float, float, float] | None:
        if self.predicted_cov is None:
            return None
        d = self.predicted_cov.diag()
        return tuple(math.sqrt(v) if v >= 0 else float("nan") for v in d)


def _scan_samples(scan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phases, harmonics, samples) as float arrays; at least 3 samples required.

    The harmonics are the rows (1, cos 2psi, sin 2psi) of the phases: the
    config's cached rows when the scan lies on its config's grid, which is
    how every drawn or trace-derived scan is built, else computed here.
    """
    q = np.asarray(scan.samples, dtype=float)
    if q.size < 3:
        raise ValueError(f"need at least 3 samples, got {q.size}")
    phases = np.asarray(scan.phases, dtype=float)
    cfg = scan.meta
    if cfg is not None and phases is cfg.grid:
        return phases, cfg.harmonics, q
    return phases, grid_harmonics(phases), q


def fourier_components(scan) -> FourierComponents:
    """c0 = mean(q^2), c2 = mean(q^2 exp(-2i psi)), from the grid harmonics.

    Row means are pairwise sums (as np.mean), not a BLAS product, so c0 is
    exactly mean(q^2).
    """
    _, harmonics, q = _scan_samples(scan)
    m0, mc, ms = (harmonics * (q * q)).mean(axis=1)
    return FourierComponents(c0=float(m0), c2=complex(mc, -ms))


# |C2| / C0 at or below which the fit finds no second harmonic.  A vacuum
# scan's |C2| is a rounding residue, 0 or up to ~1e-16 of C0 depending on
# the grid and the summation order; noise in a real scan puts it of order
# 1/sqrt(N).
_DEGENERATE_REL_C2 = 1e-12


def fit_estimate(scan) -> EstimateResult:
    """Least-squares fit of the variance model via its Fourier components.

    With m = C0 - 2|C2| and M = C0 + 2|C2| (the squeezed and anti-squeezed
    variances), s = sqrt(m/M), kappa = sqrt(m M), and the angle comes from
    the phase of C2.  The expectation of C2 carries a negative prefactor,
    -(kappa(1-s^2)/4s) exp(-2i phi_s), so the angle is recovered as
    -(1/2) Arg(-C2); using Arg(C2) directly would land on the
    anti-squeezed axis, which breaks the exact round-trip on expected
    moments.  A second harmonic of at most 1e-12 C0 flags ``degenerate``
    and sets the angle to 0.
    """
    comp = fourier_components(scan)
    amp = abs(comp.c2)
    m = comp.c0 - 2.0 * amp
    big = comp.c0 + 2.0 * amp

    flags = set()
    if amp <= _DEGENERATE_REL_C2 * comp.c0:
        # no second harmonic: the angle is undefined, s comes out 1
        flags.add(FLAG_DEGENERATE)
        phi = 0.0
    else:
        phi = canonical_angle(-0.5 * math.atan2(-comp.c2.imag, -comp.c2.real))

    s_hat = signed_sqrt(m / big) if big != 0.0 else float("nan")
    k_hat = signed_sqrt(m * big)
    est = StateParams(s=s_hat, kappa=k_hat, phi_s=phi)

    physical = m > 0.0 and est.is_physical
    if not physical:
        flags.add(FLAG_NONPHYSICAL)

    cov = None
    if physical:
        pred = fit_variance_prediction(est, len(scan.samples))
        cov = SymMatrix3(ss=pred.var_s, sk=0.0, sp=0.0,
                         kk=pred.var_kappa, kp=0.0, pp=pred.var_phi)
    return EstimateResult(
        params=est,
        predicted_cov=cov,
        method=METHOD_FIT,
        physical=physical,
        iterations=0,
        flags=frozenset(flags),
    )


def mom_weights(prior: StateParams, psi):
    """Optimal moment weights c_a(psi) = (1 / 2 V^2) dV/da at the prior."""
    v = eval_variance(prior, psi)
    g_s, g_k, g_p = variance_partials(prior, psi)
    w = 1.0 / (2.0 * np.asarray(v) ** 2)
    return w * g_s, w * g_k, w * g_p


def _mom_moments(x2: np.ndarray, harmonics: np.ndarray, s0: float, k0: float,
                 p0: float) -> tuple[float, float, float]:
    """y_a = mean(c_a q^2) for the weights c_a of ``mom_weights`` at (s0, k0, p0).

    No trig on the grid: with u = psi - p0, V = a + b cos 2u where
    a = k0 (s0 + 1/s0) / 2 and b = k0 (s0 - 1/s0) / 2, and each c_a is
    h = 1/(2 V^2) times an affine function of (1, cos 2u, sin 2u).  So the
    y_a follow from the three moments H = mean(h q^2 (1, cos 2u, sin 2u)),
    which are the moments of h q^2 against ``harmonics``
    (1, cos 2psi, sin 2psi) rotated by 2 p0:

        y1 = k0 ((s0^2 - 1) H0 + (s0^2 + 1) Hc) / (2 s0^2)
        y2 = (a H0 + b Hc) / k0
        y3 = 2 b Hs
    """
    c2p = math.cos(2.0 * p0)
    s2p = math.sin(2.0 * p0)
    a = 0.5 * k0 * (s0 + 1.0 / s0)
    b = 0.5 * k0 * (s0 - 1.0 / s0)
    v = np.dot((a, b * c2p, b * s2p), harmonics)
    m0, mc, ms = (harmonics @ (x2 / (v * v))).tolist()
    scale = 0.5 / x2.size
    h0 = m0 * scale
    hc = (mc * c2p + ms * s2p) * scale
    hs = (ms * c2p - mc * s2p) * scale
    ss = s0 * s0
    return (
        k0 * ((ss - 1.0) * h0 + (ss + 1.0) * hc) / (2.0 * ss),
        (a * h0 + b * hc) / k0,
        2.0 * b * hs,
    )


def _mom_update(x2: np.ndarray, harmonics: np.ndarray, s0: float, k0: float, p0: float):
    """One closed-form moment update. Returns (s, kappa, phi, flags).

    The linear combinations y_a = mean(c_a q^2) (see ``_mom_moments``) feed

        num = y1 s0 (1+s0) + y2 k0
        den = y1 (1+s0) - y2 k0
        s   = sqrt|num / den|
        k   = 2 k0 sqrt|num * den|
        phi = phi0 - y3 / (2 y1 (1 - s0^2))

    evaluated as printed, with the absolute values recorded: the physical
    branch has num > 0 and den < 0, anything else flags non-physical.
    """
    y1, y2, y3 = _mom_moments(x2, harmonics, s0, k0, p0)

    flags = set()
    num = y1 * s0 * (1.0 + s0) + y2 * k0
    den = y1 * (1.0 + s0) - y2 * k0
    if den == 0.0:
        s_hat = float("inf")
        flags.add(FLAG_NONPHYSICAL)
    else:
        s_hat = math.sqrt(abs(num / den))
    k_hat = 2.0 * k0 * math.sqrt(abs(num * den))
    if not (num > 0.0 and den < 0.0):
        flags.add(FLAG_NONPHYSICAL)

    phi_den = 2.0 * y1 * (1.0 - s0 * s0)
    if phi_den == 0.0 or abs(1.0 - s0 * s0) < 1e-8:
        # prior at the isotropic boundary (or dead y1): no angle update exists
        flags.add(FLAG_SINGULAR_PRIOR)
        p_hat = p0
    else:
        p_hat = canonical_angle(p0 - y3 / phi_den)
    return s_hat, k_hat, p_hat, flags


def _mom_result(s: float, k: float, p: float, flags: set, phases, harmonics,
                compute_cov: bool, iterations: int, prior_used: StateParams) -> EstimateResult:
    """Physical test, flags and (for physical estimates) covariance of a MoM estimate."""
    est = StateParams(s=s, kappa=k, phi_s=p)
    physical = FLAG_NONPHYSICAL not in flags and est.is_physical
    if not physical:
        flags.add(FLAG_NONPHYSICAL)
    cov = None
    if physical and compute_cov:
        try:
            cov = fisher_homodyne_discrete(est, phases, harmonics=harmonics).inverse()
        except SingularMatrixError:
            flags.add(FLAG_SINGULAR_INFORMATION)
    return EstimateResult(
        params=est,
        predicted_cov=cov,
        method=METHOD_MOM,
        physical=physical,
        iterations=iterations,
        prior_used=prior_used,
        flags=frozenset(flags),
    )


def mom_step(scan, prior: StateParams) -> EstimateResult:
    """Single moment-based update from an explicit prior.

    Fixed point: expected-moment input q_j^2 = V(psi_j, prior) returns the
    prior exactly.  The raw update is reported without canonicalization;
    the iterative wrapper handles the mirror image.
    """
    phases, harmonics, q = _scan_samples(scan)
    s_hat, k_hat, p_hat, flags = _mom_update(
        q * q, harmonics, prior.s, prior.kappa, prior.phi_s
    )
    return _mom_result(s_hat, k_hat, p_hat, flags, phases, harmonics, True, 1, prior)


def _mirror(s: float, kappa: float, phi: float) -> tuple[float, float, float]:
    """Gauge identity of the variance model: (s,k,phi) and (1/s,k,phi+pi/2)
    describe the same state.  Map onto the s <= 1 branch."""
    if s > 1.0:
        return 1.0 / s, kappa, canonical_angle(phi + 0.5 * math.pi)
    return s, kappa, phi


def _seed_prior(fit: EstimateResult) -> tuple[StateParams, set]:
    """Fit-based starting point, clamped into the iteration domain."""
    s, k = fit.params.s, fit.params.kappa
    if not (math.isfinite(s) and math.isfinite(k)) or s <= 0.0 or k <= 0.0:
        return FALLBACK_PRIOR, {FLAG_SEED_FALLBACK}
    return StateParams(
        s=min(max(s, 0.01), 1.0),
        kappa=min(max(k, 1.0), 100.0),
        phi_s=fit.params.phi_s,
    ), set()


def mom_estimate(
    scan,
    prior: StateParams | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    compute_cov: bool = True,
    fit: EstimateResult | None = None,
) -> EstimateResult:
    """Iterated moment-based estimator.

    Feeds each update back as the next prior until the relative change
    max(|ds|/s, |dk|/k, circ|dphi| (1-s)/s) drops below tol.  Every
    iterate is mirror-canonicalized onto s <= 1 (exact gauge move, not a
    clamp); without this, poor priors converge to the mirrored fixed
    point and never meet the tolerance.  No mid-iteration clamping:
    forcing s back inside (0, 1] deadlocks at the s = 1 boundary where
    the angle weight vanishes.

    Without a prior the iteration is seeded from ``fit``, the
    ``fit_estimate`` of this scan when the caller already has it, or
    else from a fresh fit.  The iterations and the covariance use the
    scan's grid harmonics (shared by every scan on its config's grid), so
    each iteration costs three reductions over the grid and no trig.
    """
    phases, harmonics, q = _scan_samples(scan)
    x2 = q * q

    run_flags = set()
    if prior is None:
        prior, run_flags = _seed_prior(fit_estimate(scan) if fit is None else fit)
    prior_used = prior

    s0, k0, p0 = prior.s, prior.kappa, prior.phi_s
    s0, k0, p0 = _mirror(s0, k0, p0)
    step_flags: set = set()
    iterations = 0
    converged = False
    for _ in range(max_iter):
        # guards: keep the iteration inside the domain where the update is defined
        if not math.isfinite(s0) or s0 <= 0.0:
            s0 = 0.01
        if s0 == 1.0:
            s0 = 1.0 - 1e-9
        if not math.isfinite(k0) or k0 <= 0.0:
            k0 = 1.0
        s1, k1, p1, step_flags = _mom_update(x2, harmonics, s0, k0, p0)
        iterations += 1
        s1, k1, p1 = _mirror(s1, k1, p1)
        if math.isfinite(s1) and math.isfinite(k1) and s1 > 0.0 and k1 > 0.0:
            metric = max(
                abs(s1 - s0) / s1,
                abs(k1 - k0) / k1,
                angle_distance(p1, p0) * (1.0 - s1) / max(s1, 1e-6),
            )
            if metric < tol:
                s0, k0, p0 = s1, k1, p1
                converged = True
                break
        s0, k0, p0 = s1, k1, p1
    if not converged:
        run_flags.add(FLAG_NO_CONVERGENCE)

    return _mom_result(s0, k0, p0, run_flags | step_flags, phases, harmonics,
                       compute_cov, iterations, prior_used)


# eigenvalue-gap threshold below which the DHD angle is meaningless
_DEGENERATE_REL_GAP = 1e-12


def dhd_estimate(batch, compute_cov: bool = True) -> EstimateResult:
    """Eigensystem estimator for double-homodyne data.

    Sample second moments of (q1, p2) give Gamma; subtracting the vacuum
    unit added by the beamsplitter leaves Gamma_theta, whose eigensystem
    is (kappa s, kappa / s, phi_s).
    """
    q1 = np.asarray(batch.q1, dtype=float)
    p2 = np.asarray(batch.p2, dtype=float)
    if q1.size < 3:
        raise ValueError(f"need at least 3 repetitions, got {q1.size}")
    gamma = SymMatrix2(
        xx=float(np.mean(q1 * q1)) - 1.0,
        xp=float(np.mean(q1 * p2)),
        pp=float(np.mean(p2 * p2)) - 1.0,
    )
    lam_min, lam_max, angle = gamma.eigensystem()

    flags = set()
    scale = max(abs(lam_min), abs(lam_max), 1e-300)
    if (lam_max - lam_min) <= _DEGENERATE_REL_GAP * scale:
        flags.add(FLAG_DEGENERATE)
        angle = 0.0

    s_hat = signed_sqrt(lam_min / lam_max) if lam_max != 0.0 else float("nan")
    k_hat = signed_sqrt(lam_min * lam_max)
    est = StateParams(s=s_hat, kappa=k_hat, phi_s=angle)

    physical = lam_min > 0.0 and est.is_physical
    if not physical:
        flags.add(FLAG_NONPHYSICAL)

    cov = None
    if physical and compute_cov:
        try:
            cov = SymMatrix3.from_array(
                fisher_dhd(est).as_array() * q1.size
            ).inverse()
        except SingularMatrixError:
            flags.add(FLAG_SINGULAR_INFORMATION)
    return EstimateResult(
        params=est,
        predicted_cov=cov,
        method=METHOD_DHD,
        physical=physical,
        iterations=0,
        flags=frozenset(flags),
    )
