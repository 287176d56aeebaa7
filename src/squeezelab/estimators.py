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
  computed once per config, not once per call;
* every estimate of every method is finished by ``_result``: the method
  passes its own sign test and its covariance as a module-level function
  with its arguments, and ``_result`` sets ``physical``, the
  ``nonphysical`` and ``singular-information`` flags and the covariance;
* the fit and DHD estimate a block of scans or batches at once
  (``fit_rows``, ``dhd_rows``): the moments are row reductions over the
  block, and ``fit_estimate`` and ``dhd_estimate`` are the one-row case;
* samples whose mean square (or a DHD second moment) is not finite or
  exceeds ``MAX_MEAN_SQUARE`` raise ValueError.
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
    grid_harmonics,
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
    "fit_rows",
    "mom_step",
    "mom_estimate",
    "dhd_estimate",
    "dhd_rows",
    "MAX_MEAN_SQUARE",
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

# Largest mean square of a scan's samples, and largest DHD second moment,
# that the estimators accept.  The fit and DHD multiply two second moments
# and MoM squares the model variance, which overflow float64 near 1e154;
# data that far from shot-noise units are rejected instead of turning into
# an inf estimate.
MAX_MEAN_SQUARE = 1e100


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


def _result(method: str, est: StateParams, sign_ok: bool, flags: set, compute_cov: bool,
            cov_fn, cov_args: tuple, iterations: int = 0,
            prior_used: StateParams | None = None) -> EstimateResult:
    """Finish an estimate of any method: physical when the method's own
    ``sign_ok`` holds and ``est`` lies in the physical domain, else flagged
    ``nonphysical``; a physical estimate gets ``cov_fn(est, *cov_args)``
    when ``compute_cov`` is set, or the ``singular-information`` flag."""
    physical = sign_ok and est.is_physical
    if not physical:
        flags.add(FLAG_NONPHYSICAL)
    cov = None
    if physical and compute_cov:
        try:
            cov = cov_fn(est, *cov_args)
        except SingularMatrixError:
            flags.add(FLAG_SINGULAR_INFORMATION)
    return EstimateResult(params=est, predicted_cov=cov, method=method, physical=physical,
                          iterations=iterations, prior_used=prior_used, flags=frozenset(flags))


def _check_mean_square(value: float, what: str) -> None:
    """Raise ValueError unless value <= MAX_MEAN_SQUARE; nan fails too."""
    if not value <= MAX_MEAN_SQUARE:
        raise ValueError(
            f"{what} must be finite, with a mean square of at most "
            f"{MAX_MEAN_SQUARE:g}; got {value!r} (a nan or inf value, or data "
            "far out of shot-noise units)")


def _harmonics(phases, cfg) -> np.ndarray:
    """Rows (1, cos 2psi, sin 2psi) of the phases, shape (3, ...): the
    config's cached rows when the phases are its grid, which is how every
    drawn or trace-derived scan is built, else computed here."""
    if cfg is not None and phases is cfg.grid:
        return cfg.harmonics
    return grid_harmonics(phases)


def _scan_samples(scan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phases, harmonics, samples) as float arrays; at least 3 samples required."""
    q = np.asarray(scan.samples, dtype=float)
    if q.size < 3:
        raise ValueError(f"need at least 3 samples, got {q.size}")
    phases = np.asarray(scan.phases, dtype=float)
    return phases, _harmonics(phases, scan.meta), q


def _checked_squares(q: np.ndarray) -> np.ndarray:
    """q * q, once the mean square of q has passed ``_check_mean_square``
    (taken from one dot, before any square can overflow)."""
    with np.errstate(over="ignore"):
        sum_sq = float(np.dot(q, q))
    _check_mean_square(sum_sq / q.size, "samples")
    return q * q


def _fourier_moments(harmonics: np.ndarray, q: np.ndarray) -> list:
    """(mean q^2, mean q^2 cos 2psi, mean q^2 sin 2psi) of each row of q.

    q has shape (B, N); harmonics is (3, N), shared by the rows, or
    (3, B, N).  The means are pairwise row sums (as np.mean), not a BLAS
    product, so the first is exactly mean(q^2); it is each row's mean
    square, checked here.
    """
    # an overflowing square makes the row's mean square inf or nan: both are caught
    with np.errstate(over="ignore", invalid="ignore"):
        h = harmonics.reshape(3, -1, q.shape[-1])
        rows = (h * (q * q)).mean(axis=2).T.tolist()
    for m0, _, _ in rows:
        _check_mean_square(m0, "samples")
    return rows


def fourier_components(scan) -> FourierComponents:
    """c0 = mean(q^2), c2 = mean(q^2 exp(-2i psi)), from the grid harmonics."""
    _, harmonics, q = _scan_samples(scan)
    m0, mc, ms = _fourier_moments(harmonics, q[None])[0]
    return FourierComponents(c0=m0, c2=complex(mc, -ms))


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
    q = np.asarray(scan.samples, dtype=float)
    phases = np.asarray(scan.phases, dtype=float)
    return fit_rows(phases, q[None], scan.meta, compute_cov=True)[0]


def fit_rows(phases, samples, config=None, compute_cov: bool = False) -> list[EstimateResult]:
    """``fit_estimate`` of each row of the float array ``samples`` (B, N).

    ``phases`` is the rows' shared grid (``config.grid`` takes the
    config's cached harmonics) or has one row per scan.  The covariance
    is formed only when ``compute_cov`` is set.
    """
    n = samples.shape[-1]
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    moments = _fourier_moments(_harmonics(phases, config), samples)
    return [_fit_result(m0, mc, ms, n, compute_cov) for m0, mc, ms in moments]


def _fit_result(c0: float, mc: float, ms: float, n: int, compute_cov: bool) -> EstimateResult:
    """Inversion, flags and covariance of one fit from its Fourier moments."""
    c2 = complex(mc, -ms)
    amp = abs(c2)
    m = c0 - 2.0 * amp
    big = c0 + 2.0 * amp

    flags = set()
    if amp <= _DEGENERATE_REL_C2 * c0:
        # no second harmonic: the angle is undefined, s comes out 1
        flags.add(FLAG_DEGENERATE)
        phi = 0.0
    else:
        phi = canonical_angle(-0.5 * math.atan2(-c2.imag, -c2.real))

    s_hat = signed_sqrt(m / big) if big != 0.0 else float("nan")
    k_hat = signed_sqrt(m * big)
    est = StateParams(s=s_hat, kappa=k_hat, phi_s=phi)
    return _result(METHOD_FIT, est, m > 0.0, flags, compute_cov, _fit_cov, (n,))


def _fit_cov(est: StateParams, n: int) -> SymMatrix3:
    """The fit's first-order covariance at the estimate (diagonal)."""
    pred = fit_variance_prediction(est, n)
    return SymMatrix3(ss=pred.var_s, sk=0.0, sp=0.0, kk=pred.var_kappa, kp=0.0, pp=pred.var_phi)


def _mom_moments(x2: np.ndarray, harmonics: np.ndarray, s0: float, k0: float,
                 p0: float) -> tuple[float, float, float]:
    """y_a = mean(c_a q^2) for the optimal moment weights at (s0, k0, p0),
    c_a(psi) = (1 / 2 V^2) dV/da.

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


def _mom_cov(est: StateParams, phases, harmonics) -> SymMatrix3:
    """Inverse discrete Fisher matrix of the scan's phases at the estimate."""
    return fisher_homodyne_discrete(est, phases, harmonics=harmonics).inverse()


def mom_step(scan, prior: StateParams) -> EstimateResult:
    """Single moment-based update from an explicit prior.

    Fixed point: expected-moment input q_j^2 = V(psi_j, prior) returns the
    prior only on a grid fine enough for the weights: the closed-form
    update takes the grid means of c_a V for their phase integrals, which
    differ by roughly ((1 - s)/(1 + s))^(N/2) on N equispaced points.  From
    the truth at kappa = 1, phi = 2.9, s = 0.05, one step gives s = 0.0456,
    kappa = 0.920 at N = 64; kappa is off by 2.9e-3 at N = 128, 3.0e-6 at
    256 and at most 2e-14 (rounding) at 900, and by 5e-9 at N = 64, s = 0.3.
    The raw update is reported without canonicalization; the iterative
    wrapper handles the mirror image.  A prior with a non-finite component,
    s <= 0 or kappa <= 0 raises ValueError.
    """
    _check_prior(prior)
    phases, harmonics, q = _scan_samples(scan)
    s_hat, k_hat, p_hat, flags = _mom_update(
        _checked_squares(q), harmonics, prior.s, prior.kappa, prior.phi_s
    )
    return _result(METHOD_MOM, StateParams(s_hat, k_hat, p_hat), FLAG_NONPHYSICAL not in flags,
                   flags, True, _mom_cov, (phases, harmonics), 1, prior)


def _mirror(s: float, kappa: float, phi: float) -> tuple[float, float, float]:
    """Gauge identity of the variance model: (s,k,phi) and (1/s,k,phi+pi/2)
    describe the same state.  Map onto the s <= 1 branch."""
    if s > 1.0:
        return 1.0 / s, kappa, canonical_angle(phi + 0.5 * math.pi)
    return s, kappa, phi


def _check_prior(prior: StateParams) -> None:
    """A given prior is outside input: reject it rather than let the loop
    guards replace it.  s > 1 is legal, the mirror maps it onto s <= 1."""
    if not all(map(math.isfinite, (prior.s, prior.kappa, prior.phi_s))):
        raise ValueError(f"prior {prior} has a non-finite component")
    if prior.s <= 0.0 or prior.kappa <= 0.0:
        raise ValueError(f"prior {prior} needs s > 0 and kappa > 0")


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
    else from a fresh fit; a given prior with a non-finite component,
    s <= 0 or kappa <= 0 raises ValueError.  The iterations and the covariance use the
    scan's grid harmonics (shared by every scan on its config's grid), so
    each iteration costs three reductions over the grid and no trig.
    """
    phases, harmonics, q = _scan_samples(scan)
    x2 = _checked_squares(q)

    run_flags = set()
    if prior is None:
        prior, run_flags = _seed_prior(fit_estimate(scan) if fit is None else fit)
    else:
        _check_prior(prior)

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

    return _result(METHOD_MOM, StateParams(s0, k0, p0), FLAG_NONPHYSICAL not in step_flags,
                   run_flags | step_flags, compute_cov, _mom_cov, (phases, harmonics),
                   iterations, prior)


# eigenvalue-gap threshold below which the DHD angle is meaningless
_DEGENERATE_REL_GAP = 1e-12


def dhd_estimate(batch, compute_cov: bool = True) -> EstimateResult:
    """Eigensystem estimator for double-homodyne data.

    Sample second moments of (q1, p2) give Gamma; subtracting the vacuum
    unit added by the beamsplitter leaves Gamma_theta, whose eigensystem
    is (kappa s, kappa / s, phi_s).  Non-finite data, and data with a
    second moment above MAX_MEAN_SQUARE, raise ValueError.
    """
    q1 = np.asarray(batch.q1, dtype=float)
    p2 = np.asarray(batch.p2, dtype=float)
    return dhd_rows(q1[None], p2[None], compute_cov)[0]


def dhd_rows(q1, p2, compute_cov: bool = False) -> list[EstimateResult]:
    """``dhd_estimate`` of each row of the float arrays ``q1`` and ``p2`` (B, mu)."""
    mu = q1.shape[-1]
    if mu < 3:
        raise ValueError(f"need at least 3 repetitions, got {mu}")
    # overflowing products of mixed sign can sum to nan: both are caught
    # by the check in _dhd_result
    with np.errstate(over="ignore", invalid="ignore"):
        xx = (q1 * q1).mean(axis=1).tolist()
        xp = (q1 * p2).mean(axis=1).tolist()
        pp = (p2 * p2).mean(axis=1).tolist()
    return [_dhd_result(*m, mu, compute_cov) for m in zip(xx, xp, pp)]


def _dhd_result(xx: float, xp: float, pp: float, mu: int, compute_cov: bool) -> EstimateResult:
    """Eigensystem, flags and covariance of one DHD estimate from its moments.

    Finite xx and pp within the limit bound every q1 and p2 and hence xp.
    """
    _check_mean_square(xx, "q1")
    _check_mean_square(pp, "p2")
    gamma = SymMatrix2(xx=xx - 1.0, xp=xp, pp=pp - 1.0)
    lam_min, lam_max, angle = gamma.eigensystem()

    flags = set()
    scale = max(abs(lam_min), abs(lam_max), 1e-300)
    if (lam_max - lam_min) <= _DEGENERATE_REL_GAP * scale:
        flags.add(FLAG_DEGENERATE)
        angle = 0.0

    # both roots carry the sign of lam_min: with lam_max < 0 the ratio and
    # the product are positive, and a plain signed root would look physical
    s_hat = (math.copysign(math.sqrt(abs(lam_min / lam_max)), lam_min)
             if lam_max != 0.0 else float("nan"))
    k_hat = math.copysign(math.sqrt(abs(lam_min * lam_max)), lam_min)
    est = StateParams(s=s_hat, kappa=k_hat, phi_s=angle)
    return _result(METHOD_DHD, est, lam_min > 0.0, flags, compute_cov, _dhd_cov, (mu,))


def _dhd_cov(est: StateParams, mu: int) -> SymMatrix3:
    """Inverse Fisher matrix of mu DHD repetitions at the estimate."""
    return SymMatrix3.from_array(fisher_dhd(est).as_array() * mu).inverse()
