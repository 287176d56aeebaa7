"""The three estimators: Fourier fit, iterative moment-based, DHD eigensystem.

Shared conventions:

* nothing is ever silently clamped; a non-physical intermediate (negative
  variance under a square root, s > 1, kappa < 1) keeps its signed value
  in the output via sign(x) sqrt|x| and drops the ``physical`` flag;
* ``flags`` is a frozenset of short strings naming every anomaly that
  occurred, see the FLAG_* constants;
* ``predicted_cov`` is the model covariance evaluated at the estimate and
  is only computed for physical estimates (the information matrix means
  nothing at an unphysical point); the one-scan calls always compute it,
  the ``*_rows`` block calls only when ``compute_cov`` is set;
* a block of scans is prepared once, as a ``ScanBlock``: its phases, their
  harmonics (1, cos 2psi, sin 2psi) and its squared samples, each row's
  mean square checked.  The harmonics are the rows the scan sampler drew
  the block's samples from, else one ``grid_harmonics`` call over the
  whole block, so the trig is computed once per sampler call (equispaced)
  or per block (random), and once per one-scan estimate; the sampler, the
  fit, the MoM iterations and the MoM covariance read the grid only
  through them.  MoM takes V as the product of the harmonics
  with ``model.variance_coefficients``, as the sampler does;
* every estimate of every method is finished by ``_result``: the method
  passes its own sign test and its covariance as a module-level function
  with its arguments, and ``_result`` sets ``physical``, the
  ``nonphysical`` and ``singular-information`` flags and the covariance;
* every method estimates a block of scans or batches at once
  (``fit_rows`` and ``mom_rows`` of a ``ScanBlock``, ``dhd_rows``), and
  ``fit_estimate``, ``mom_estimate`` and ``dhd_estimate`` are the one-row
  case: the fit and DHD moments are row reductions over the block, and
  each MoM iteration reduces the rows not yet converged at once and
  updates each row on its own, so a row gets the same bits in any block;
* samples whose mean square (or a DHD second moment) is not finite or
  exceeds ``MAX_MEAN_SQUARE`` raise ValueError, and so do samples whose
  mean square is positive but below 1 / ``MAX_MEAN_SQUARE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model import (
    S_FLOOR,
    SingularMatrixError,
    StateParams,
    SymMatrix2,
    SymMatrix3,
    canonical_angle,
    check_harmonic_state,
    grid_harmonics,
    variance_coefficients,
)
from .bounds import fisher_homodyne_discrete, fisher_dhd, fit_variance_prediction

__all__ = [
    "EstimateResult",
    "ScanBlock",
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
    "fit_estimate",
    "fit_rows",
    "mom_estimate",
    "mom_rows",
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
# fewest samples per scan or DHD batch: three moments for three parameters
MIN_SAMPLES = 3
FALLBACK_PRIOR = StateParams(s=0.5, kappa=2.0, phi_s=0.0)

# Largest mean square of a scan's samples, and largest DHD second moment,
# that the estimators accept.  The fit and DHD multiply two second moments
# and MoM squares the model variance, which overflow float64 near 1e154;
# data that far from shot-noise units are rejected instead of turning into
# an inf estimate.  A scan's mean square below 1 / MAX_MEAN_SQUARE, other
# than 0, is rejected too: MoM's iterates shrink with the data, and their
# squared model variance underflows to 0 near 1e-162.
MAX_MEAN_SQUARE = 1e100


def _signed_sqrt(x: float) -> float:
    """sqrt(|x|) carrying the sign of x, so failed roots stay visible."""
    return math.copysign(math.sqrt(abs(x)), x)


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


@dataclass(frozen=True)
class ScanBlock:
    """B scans of N samples, prepared once for ``fit_rows`` and ``mom_rows``.

    ``phases`` is the rows' shared grid (N,) or has one row per scan
    (B, N); ``harmonics`` are its ``grid_harmonics``, (3, N) or (B, 3, N);
    ``x2`` holds the squared samples (B, N).  Build it with
    ``ScanBlock.of``, which checks each row's mean square.
    """

    phases: np.ndarray
    harmonics: np.ndarray
    x2: np.ndarray

    @classmethod
    def of(cls, phases, samples, harmonics=None) -> ScanBlock:
        """The block of the rows of ``samples`` (B, N), or of one scan (N,).

        ``harmonics`` are the rows ``grid_harmonics(phases)`` when the
        caller has them, as the scan sampler yields them; else they are
        computed here, in one call over all the phases.  Fewer than
        MIN_SAMPLES samples, phases of neither shape (N,) nor (B, N), or a
        row whose mean square fails ``_check_mean_square`` or is positive
        but below 1 / MAX_MEAN_SQUARE, raise ValueError.
        """
        q = np.atleast_2d(np.asarray(samples, dtype=float))
        if q.shape[-1] < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples, got {q.shape[-1]}")
        phases = np.asarray(phases, dtype=float)
        if phases.shape not in ((q.shape[1],), q.shape):
            raise ValueError(f"phases {phases.shape} fit neither (N,) nor (B, N) of {q.shape}")
        # an overflowing square makes the row's mean square inf or nan: both are caught
        with np.errstate(over="ignore"):
            x2 = q * q
            means = (x2.sum(axis=1) / q.shape[1]).tolist()
        for m0 in means:
            _check_mean_square(m0, "samples")
            if 0.0 < m0 < 1.0 / MAX_MEAN_SQUARE:
                raise ValueError(f"samples must have a mean square of 0 or at least "
                                 f"{1.0 / MAX_MEAN_SQUARE:g}; got {m0!r} (data far out of "
                                 "shot-noise units)")
        return cls(phases, grid_harmonics(phases) if harmonics is None else harmonics, x2)

    def row(self, i: int) -> ScanBlock:
        """Row i alone, as a one-row block."""
        shared = self.phases.ndim == 1
        return ScanBlock(self.phases if shared else self.phases[i],
                         self.harmonics if shared else self.harmonics[i], self.x2[i:i + 1])


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
    return fit_rows(ScanBlock.of(scan.phases, scan.samples), compute_cov=True)[0]


def fit_rows(block: ScanBlock, compute_cov: bool = False) -> list[EstimateResult]:
    """``fit_estimate`` of each row of the block; the covariance is formed
    only when ``compute_cov`` is set.

    The Fourier moments (mean q^2, mean q^2 cos 2psi, mean q^2 sin 2psi)
    are pairwise row sums (as np.mean), not a BLAS product, so the first
    is exactly the row's checked mean square.
    """
    n = block.x2.shape[-1]
    moments = (block.harmonics * block.x2[:, None]).mean(axis=-1).tolist()
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

    s_hat = _signed_sqrt(m / big) if big != 0.0 else float("nan")
    k_hat = _signed_sqrt(m * big)
    est = StateParams(s=s_hat, kappa=k_hat, phi_s=phi)
    return _result(METHOD_FIT, est, m > 0.0, flags, compute_cov, _fit_cov, (n,))


def _fit_cov(est: StateParams, n: int) -> SymMatrix3:
    """The fit's first-order covariance at the estimate (diagonal)."""
    pred = fit_variance_prediction(est, n)
    return SymMatrix3(ss=pred.var_s, sk=0.0, sp=0.0, kk=pred.var_kappa, kp=0.0, pp=pred.var_phi)


def _mom_reducer(harmonics: np.ndarray, x2: np.ndarray):
    """The O(N) work of one MoM iteration on the rows of ``x2``, their
    squared samples (A, N), as a function: given each row's variance
    coefficients (see ``model.variance_coefficients``), it returns each
    row's three sums m = sum_j q_j^2 / V_j^2 (1, cos 2psi_j, sin 2psi_j),
    as A lists.

    ``harmonics`` is (3, N), shared by the rows, or (A, 3, N).  A block
    takes three stacked numpy calls; one row takes the 2-D products, which
    are cheaper to dispatch.  Both reproduce a single row's np.dot bit for
    bit, so a row's sums do not depend on the rows reduced with it.
    """
    if len(x2) == 1:
        h, x = harmonics if harmonics.ndim == 2 else harmonics[0], x2[0]

        def reduce(coefs):
            v = np.dot(coefs[0], h)
            v *= v
            return [np.dot(h, np.divide(x, v, v)).tolist()]
    else:
        w_shape = (len(x2), x2.shape[1], 1)
        x = x2[:, None, :]

        def reduce(coefs):
            v = np.matmul(np.array(coefs)[:, None, :], harmonics)
            v *= v
            w = np.divide(x, v, v).reshape(w_shape)
            return np.matmul(harmonics, w).reshape(-1, 3).tolist()
    return reduce


def _mom_cov(est: StateParams, block: ScanBlock, i: int) -> SymMatrix3:
    """Inverse discrete Fisher matrix of row i's phases at the estimate; a
    shared grid, as of a one-row block, is read without building the row."""
    if block.phases.ndim == 2:
        block = block.row(i)
    return fisher_homodyne_discrete(est, block.phases, harmonics=block.harmonics).inverse()


def _seed_prior(fit: EstimateResult) -> tuple[StateParams, tuple]:
    """Fit-based starting point, clamped into the iteration domain, and
    the flags that the choice raises."""
    s, k = fit.params.s, fit.params.kappa
    if not (math.isfinite(s) and math.isfinite(k)) or s <= 0.0 or k <= 0.0:
        return FALLBACK_PRIOR, (FLAG_SEED_FALLBACK,)
    return StateParams(
        s=min(max(s, 0.01), 1.0),
        kappa=min(max(k, 1.0), 100.0),
        phi_s=fit.params.phi_s,
    ), ()


def _mom_row(prior: StateParams, seed_flags: tuple, n: int, tol: float, max_iter: int,
             compute_cov: bool, cov_args: tuple):
    """One row's MoM estimate, as a generator: it yields the variance
    coefficients of each iterate (see ``model.variance_coefficients``), is
    sent the row's ``_mom_reducer`` sums back, and returns the finished
    EstimateResult.

    Each iteration takes the closed-form moment step from those sums in
    this frame, as derived in the comments below, and feeds it back as the
    next prior until the relative change max(|ds|/s, |dk|/k, circ|dphi|
    (1-s)/s) drops below tol.  The last step's ``nonphysical`` and
    ``singular-prior`` outcomes are carried as two booleans and become
    flags when the row finishes.  The prior and every iterate are mirrored
    onto s <= 1, since (s, k, phi) and (1/s, k, phi + pi/2) are one state
    (exact gauge move, not a clamp); without this, poor priors converge to
    the mirrored fixed point and never meet the tolerance.  No clamping:
    forcing s back inside (0, 1] deadlocks at the s = 1 boundary where the
    angle weight vanishes.
    """
    s0, k0, p0 = prior.s, prior.kappa, prior.phi_s
    half_pi = 0.5 * math.pi
    if s0 > 1.0:  # the mirror, as for every iterate below
        s0, p0 = 1.0 / s0, canonical_angle(p0 + half_pi)
    scale = 0.5 / n
    nonphysical = singular = converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # guards: keep the iteration inside the domain where the update is defined
        if not math.isfinite(s0) or s0 < S_FLOOR:
            s0 = 0.01
        if s0 == 1.0:
            s0 = 1.0 - 1e-9
        if not math.isfinite(k0) or k0 <= 0.0:
            k0 = 1.0
        coefs, b, c2p, s2p = variance_coefficients(s0, k0, p0)
        m0, mc, ms = yield coefs
        # y_a = mean(c_a q^2) for the optimal moment weights at the prior,
        # c_a(psi) = (1 / 2 V^2) dV/da, with no trig on the grid: each c_a is
        # h = 1/(2 V^2) times an affine function of (1, cos 2u, sin 2u),
        # u = psi - p0, so the y_a follow from the three moments
        # H = mean(h q^2 (1, cos 2u, sin 2u)), which are the sums m / (2N)
        # rotated by 2 p0:
        #     y1 = k0 ((s0^2 - 1) H0 + (s0^2 + 1) Hc) / (2 s0^2)
        #     y2 = (a H0 + b Hc) / k0
        #     y3 = 2 b Hs
        h0 = m0 * scale
        hc = (mc * c2p + ms * s2p) * scale
        hs = (ms * c2p - mc * s2p) * scale
        ss = s0 * s0
        y1 = k0 * ((ss - 1.0) * h0 + (ss + 1.0) * hc) / (2.0 * ss)
        y2 = (coefs[0] * h0 + b * hc) / k0
        # the closed-form update, evaluated as printed:
        #     num = y1 s0 (1+s0) + y2 k0
        #     den = y1 (1+s0) - y2 k0
        #     s   = sqrt|num / den|
        #     k   = 2 k0 sqrt|num * den|
        #     phi = phi0 - y3 / (2 y1 (1 - s0^2))
        # the physical branch has num > 0 and den < 0; anything else,
        # den = 0 (s = inf) included, is non-physical
        num = y1 * s0 * (1.0 + s0) + y2 * k0
        den = y1 * (1.0 + s0) - y2 * k0
        nonphysical = not (num > 0.0 and den < 0.0)
        s1 = math.sqrt(abs(num / den)) if den != 0.0 else math.inf
        k1 = 2.0 * k0 * math.sqrt(abs(num * den))
        phi_den = 2.0 * y1 * (1.0 - ss)
        # a prior at the isotropic boundary (or a dead y1) has no angle update
        singular = phi_den == 0.0 or abs(1.0 - ss) < 1e-8
        p1 = p0 if singular else canonical_angle(p0 - 2.0 * b * hs / phi_den)
        if s1 > 1.0:  # the mirror
            s1, p1 = 1.0 / s1, canonical_angle(p1 + half_pi)
        if math.isfinite(s1) and math.isfinite(k1) and s1 > 0.0 and k1 > 0.0:
            # circular angle step, wrapped into [-pi/2, pi/2] as model.angle_distance
            dp = math.fmod(p1 - p0, math.pi)
            if dp < -half_pi:
                dp += math.pi
            elif dp > half_pi:
                dp -= math.pi
            if max(abs(s1 - s0) / s1, abs(k1 - k0) / k1,
                   abs(dp) * (1.0 - s1) / max(s1, 1e-6)) < tol:
                s0, k0, p0 = s1, k1, p1
                converged = True
                break
        s0, k0, p0 = s1, k1, p1
    flags = set(seed_flags)
    if nonphysical:
        flags.add(FLAG_NONPHYSICAL)
    if singular:
        flags.add(FLAG_SINGULAR_PRIOR)
    if not converged:
        flags.add(FLAG_NO_CONVERGENCE)
    return _result(METHOD_MOM, StateParams(s0, k0, p0), not nonphysical,
                   flags, compute_cov, _mom_cov, cov_args, iterations, prior)


def mom_estimate(
    scan,
    prior: StateParams | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    fit: EstimateResult | None = None,
) -> EstimateResult:
    """Iterated moment-based estimator: ``mom_rows`` of the one scan,
    with its covariance.

    Without a prior the iteration is seeded from ``fit``, the
    ``fit_estimate`` of this scan when the caller already has it, or
    else from a fresh fit; a given prior that
    ``model.check_harmonic_state`` refuses (s outside [1e-6, 1e6], kappa
    outside [1e-90, 1e90], or a non-finite angle) raises ValueError.
    """
    return mom_rows(ScanBlock.of(scan.phases, scan.samples),
                    None if fit is None else [fit], None if prior is None else [prior], tol,
                    max_iter, compute_cov=True)[0]


def mom_rows(block: ScanBlock, fits=None, priors=None, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER, compute_cov: bool = False) -> list[EstimateResult]:
    """``mom_estimate`` of each row of the block; a ``max_iter`` below 1 raises ValueError.

    Each row starts from ``priors[i]`` when priors are given, else from
    the fit ``fits[i]`` of that row, else from a fresh ``fit_rows``.  Every
    iteration does the O(N) work of all rows not yet converged at once
    (``_mom_reducer``) and each row's scalar update on its own
    (``_mom_row``); a row leaves the block when it converges, and it
    takes the same steps and bits as it would alone.  The iterations and
    the covariance read the grid only through the block's harmonics, so an
    iteration costs three reductions and no trig.  The covariance is
    formed only when ``compute_cov`` is set.
    """
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    x2, h = block.x2, block.harmonics
    given = fits if priors is None else priors
    if given is not None and len(given) != len(x2):
        raise ValueError(f"need one prior or fit per row: {len(given)} for {len(x2)} rows")
    if priors is None:
        seeds = map(_seed_prior, fit_rows(block) if fits is None else fits)
    else:
        for prior in priors:  # checked, not replaced by the loop guards
            check_harmonic_state(prior, "prior")
        seeds = zip(priors, repeat(()))

    out = [None] * len(x2)
    live = []  # (row, its estimate) of each row still iterating
    coefs = []  # the variance coefficients of each live row's current iterate
    for i, (prior, seed_flags) in enumerate(seeds):
        row = _mom_row(prior, seed_flags, x2.shape[1], tol, max_iter, compute_cov, (block, i))
        coefs.append(next(row))
        live.append((i, row))
    reduce = _mom_reducer(h, x2)
    while live:
        left = 0
        for k, m in enumerate(reduce(coefs)):
            try:
                coefs[k] = live[k][1].send(m)
            except StopIteration as stop:
                out[live[k][0]] = stop.value
                coefs[k] = None
                left += 1
        if left:
            if left == len(live):
                break
            # reduce only the rows still iterating
            live = [r for r, c in zip(live, coefs) if c is not None]
            coefs = [c for c in coefs if c is not None]
            idx = [i for i, _ in live]
            reduce = _mom_reducer(h if h.ndim == 2 else h[idx], x2[idx])
    return out


# eigenvalue-gap threshold below which the DHD angle is meaningless
_DEGENERATE_REL_GAP = 1e-12


def dhd_estimate(batch) -> EstimateResult:
    """Eigensystem estimator for double-homodyne data.

    Sample second moments of (q1, p2) give Gamma; subtracting the vacuum
    unit added by the beamsplitter leaves Gamma_theta, whose eigensystem
    is (kappa s, kappa / s, phi_s).  The result carries its covariance.
    Non-finite data, and data with a second moment above MAX_MEAN_SQUARE,
    raise ValueError.
    """
    q1 = np.asarray(batch.q1, dtype=float)
    p2 = np.asarray(batch.p2, dtype=float)
    return dhd_rows(q1[None], p2[None], compute_cov=True)[0]


def dhd_rows(q1, p2, compute_cov: bool = False) -> list[EstimateResult]:
    """``dhd_estimate`` of each row of the float arrays ``q1`` and ``p2`` (B, mu)."""
    mu = q1.shape[-1]
    if mu < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} repetitions, got {mu}")
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
    f = fisher_dhd(est)
    return SymMatrix3(ss=f.ss * mu, sk=f.sk * mu, sp=f.sp * mu,
                      kk=f.kk * mu, kp=f.kp * mu, pp=f.pp * mu).inverse()
