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
  the column calls never;
* a block of scans is prepared once, as a ``ScanBlock``: its phases, their
  harmonics (1, cos 2psi, sin 2psi), which are the sampler's rows when it
  drew the block, and its squared samples, each row's mean square checked.
  The sampler, the fit, the MoM iterations and the MoM covariance read the
  grid only through the harmonics; MoM takes V as their product with
  ``model.variance_coefficients``, as the sampler does.  Only
  ``ScanBlock.row`` reads whether a block's phases are shared or per row,
  so a one-row block of either layout is a scan, and one scan's MoM
  (``_mom_seeded``) takes a row's harmonics and squares;
* every method finishes each row of a block of scans or batches in Python
  floats, as a tuple of that row's parameters, ``physical`` (the method's
  own sign test and ``model.in_physical_domain``), iterations and flag
  bools (see ``_columns``): the fit and DHD from the block's moments,
  reduced at once (``_fit_row``, ``_dhd_row``), and MoM as each row's
  iteration ends.  ``fit_columns``, ``mom_columns`` and ``dhd_columns``
  hand a block's rows on as columns, an ``Estimates``, which a Monte-Carlo
  sweep stores without building an object per row; the one-scan calls
  build an ``EstimateResult`` in ``_result``.  The fit and DHD moments
  are row reductions over the block, and each MoM iteration reduces the
  rows not yet converged at once and updates each row on its own, so a
  row gets the same bits in any block;
* fewer than MIN_SAMPLES samples or pairs (``_check_min_samples``), a mean
  square or DHD second moment that is not finite or exceeds MAX_MEAN_SQUARE,
  and a scan's positive mean square below 1 / MAX_MEAN_SQUARE raise ValueError.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .model import (
    S_FLOOR,
    SingularMatrixError,
    StateParams,
    SymMatrix3,
    angle_distance,
    canonical_angle,
    check_harmonic_state,
    grid_harmonics,
    in_physical_domain,
    sym2_eigensystem,
    variance_coefficients,
)
from .bounds import fisher_homodyne_discrete, fisher_dhd, fit_variance_prediction

__all__ = [
    "EstimateResult",
    "Estimates",
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
    "fit_columns",
    "mom_estimate",
    "mom_columns",
    "dhd_estimate",
    "dhd_columns",
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


def _check_min_samples(count: int, name: str, dhd: bool = False) -> None:
    """Raise ValueError unless ``count``, named ``name``, is MIN_SAMPLES or more
    samples per scan, or repetitions per DHD batch if ``dhd``: the one floor,
    for settings before any draw and for the data the estimators read."""
    if count < MIN_SAMPLES:
        unit = "repetitions per DHD batch" if dhd else "samples per scan"
        raise ValueError(f"need at least {MIN_SAMPLES} {unit}, got {name}={count}")


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


class Estimates(NamedTuple):
    """One method's estimates of a block of B scans or batches, as columns:
    sequences of B Python values, one per row.

    ``params`` holds each row's (s, kappa, phi_s), ``physical`` whether the
    method's own sign test holds and the row lies in
    ``model.in_physical_domain``, ``iterations`` the MoM iterations (0 for
    the fit and DHD), and ``flags`` maps each flag the method raises to its
    column of bools.  A row not physical is flagged ``nonphysical``;
    ``singular-information`` arises only where ``_result`` forms a
    covariance from the same finished row.
    """

    params: Sequence
    physical: Sequence
    iterations: Sequence
    flags: dict


# the flags that each method's finished rows carry, in order (see _columns)
_FIT_DHD_FLAGS = (FLAG_DEGENERATE,)
_MOM_FLAGS = (FLAG_SINGULAR_PRIOR, FLAG_NO_CONVERGENCE, FLAG_SEED_FALLBACK)


def _columns(names: tuple, rows: list) -> Estimates:
    """The columns of a block's finished rows.  A finished row is a tuple
    ((s, kappa, phi_s), physical, iterations, *raised), with one bool in
    ``raised`` for each flag of ``names``."""
    params, physical, iterations, *raised = zip(*rows) if rows else ((),) * (3 + len(names))
    return Estimates(params, physical, iterations, dict(zip(names, raised)))


def _result(method: str, names: tuple, row: tuple, cov, prior=None) -> EstimateResult:
    """A finished row (see ``_columns``) as an EstimateResult, flagged
    ``nonphysical`` if it is not physical.  A physical row gets the
    covariance ``cov(params)``, or the ``singular-information`` flag when
    that raises SingularMatrixError; ``prior`` is MoM's prior."""
    p, physical, iterations, *raised = row
    params = StateParams(*p)
    flags = set(compress(names, raised))
    predicted = None
    if not physical:
        flags.add(FLAG_NONPHYSICAL)
    else:
        try:
            predicted = cov(params)
        except SingularMatrixError:
            flags.add(FLAG_SINGULAR_INFORMATION)
    return EstimateResult(params=params, predicted_cov=predicted, method=method,
                          physical=physical, iterations=iterations, prior_used=prior,
                          flags=frozenset(flags))


def _check_mean_square(value: float, what: str) -> None:
    """Raise ValueError unless value <= MAX_MEAN_SQUARE; nan fails too."""
    if not value <= MAX_MEAN_SQUARE:
        raise ValueError(
            f"{what} must be finite, with a mean square of at most "
            f"{MAX_MEAN_SQUARE:g}; got {value!r} (a nan or inf value, or data "
            "far out of shot-noise units)")


@dataclass(frozen=True)
class ScanBlock:
    """B scans of N samples, prepared once for the fit and MoM.

    ``phases`` is the rows' shared grid (N,) or has one row per scan
    (B, N); ``harmonics`` are its ``grid_harmonics``, (3, N) or (B, 3, N);
    ``x2`` holds the squared samples (B, N).  Build it with
    ``ScanBlock.of``, which checks each row's mean square, and read its
    rows with ``row``, the one place that tells the two layouts apart.
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
        MIN_SAMPLES samples, phases of neither shape (N,) nor (B, N), given
        harmonics of another shape than the phases' (3, N) or (B, 3, N), or
        a row whose mean square fails ``_check_mean_square`` or is positive
        but below 1 / MAX_MEAN_SQUARE, raise ValueError.
        """
        q = np.atleast_2d(np.asarray(samples, dtype=float))
        _check_min_samples(q.shape[-1], "N")
        phases = np.asarray(phases, dtype=float)
        if phases.shape not in ((q.shape[1],), q.shape):
            raise ValueError(f"phases {phases.shape} fit neither (N,) nor (B, N) of {q.shape}")
        if harmonics is not None and harmonics.shape != phases.shape[:-1] + (3, q.shape[1]):
            raise ValueError(f"harmonics {harmonics.shape} do not fit phases {phases.shape}: "
                             f"expected {phases.shape[:-1] + (3, q.shape[1])}")
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

    def row(self, i):
        """Row i's phases (N,), harmonics (3, N) and squares (N,), as views
        of the block's arrays, in either layout.  Given a list of rows
        instead, their harmonics and squares as a block of those rows holds
        them: the shared (3, N) or the rows' (len(i), 3, N), and (len(i), N),
        copied by numpy's indexing; their phases are not taken."""
        shared = self.phases.ndim == 1
        h, x = self.harmonics if shared else self.harmonics[i], self.x2[i]
        if isinstance(i, list):
            return h, x
        return self.phases if shared else self.phases[i], h, x


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

    ``scan`` has ``phases`` and ``samples``, or is a one-row ``ScanBlock``
    that the caller prepared once for the fit and MoM.
    """
    block = _one_row(scan)
    n = block.x2.shape[-1]
    return _result(METHOD_FIT, _FIT_DHD_FLAGS, _fit_finish(block)[0],
                   lambda est: _fit_cov(est, n))


def _one_row(scan) -> ScanBlock:
    """A scan's one-row block; any other row count raises ValueError."""
    block = scan if isinstance(scan, ScanBlock) else ScanBlock.of(scan.phases, scan.samples)
    if len(block.x2) != 1:
        raise ValueError(f"a one-scan estimate takes one row, got {len(block.x2)}")
    return block


def fit_columns(block: ScanBlock) -> Estimates:
    """``fit_estimate`` of each row of the block as columns, without the
    covariance."""
    return _columns(_FIT_DHD_FLAGS, _fit_finish(block))


def _fit_finish(block: ScanBlock) -> list:
    """The finished fit of each row of the block (see ``_columns``)."""
    return [_fit_row(*m) for m in _fit_moments(block.harmonics, block.x2)]


def _fit_moments(h: np.ndarray, x2: np.ndarray) -> list:
    """The Fourier moments (mean q^2, mean q^2 cos 2psi, mean q^2 sin 2psi)
    of one row's squares x2 (N,), or of each of a block's (B, N), against
    their harmonics h: pairwise row sums (as np.mean), not a BLAS product,
    so the first is exactly the row's checked mean square, and a row's
    moments are the same alone as in its block."""
    return (h * x2[..., None, :]).mean(axis=-1).tolist()


def _fit_row(c0: float, mc: float, ms: float) -> tuple:
    """One fit's inversion of its Fourier moments, C2 = mc - i ms, as a
    finished row (see ``_columns``)."""
    c2 = complex(mc, -ms)
    amp = abs(c2)
    m = c0 - 2.0 * amp
    big = c0 + 2.0 * amp
    # no second harmonic: the angle is undefined, s comes out 1
    degenerate = amp <= _DEGENERATE_REL_C2 * c0
    phi = 0.0 if degenerate else canonical_angle(-0.5 * math.atan2(-c2.imag, -c2.real))
    s_hat = _signed_sqrt(m / big) if big != 0.0 else float("nan")
    k_hat = _signed_sqrt(m * big)
    return (s_hat, k_hat, phi), m > 0.0 and in_physical_domain(s_hat, k_hat), 0, degenerate


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

    ``harmonics`` is (3, N), shared by the rows, or (A, 3, N).  The three
    stacked numpy calls reproduce a single row's products in ``_mom_drive``
    bit for bit, so a row's sums do not depend on the rows reduced with it.
    """
    w_shape = (len(x2), x2.shape[1], 1)
    x = x2[:, None, :]

    def reduce(coefs):
        v = np.matmul(np.array(coefs)[:, None, :], harmonics)
        v *= v
        w = np.divide(x, v, v).reshape(w_shape)
        return np.matmul(harmonics, w).reshape(-1, 3).tolist()
    return reduce


def _mom_drive(row, coefs, h: np.ndarray, x: np.ndarray) -> tuple:
    """The value of ``_mom_row``'s generator ``row`` at iterate ``coefs``,
    run alone on its row's harmonics h (3, N) and squares x (N,), whose
    sums it takes as ``ndarray.dot``, np.dot's routine without dispatch."""
    try:
        while True:
            v = np.array(coefs).dot(h)
            v *= v
            coefs = row.send(h.dot(np.divide(x, v, v)).tolist())
    except StopIteration as stop:
        return stop.value


def _seed_priors(fits) -> tuple[list, list]:
    """MoM's starting points from fits, one (s, kappa, phi_s) each: each
    fit clamped into the iteration domain, s to [0.01, 1] and kappa to
    [1, 100], or FALLBACK_PRIOR where its s or kappa is not finite and
    positive; and the column of bools marking the rows that fell back."""
    seeds, fallback = [], []
    for s, k, phi in fits:
        fell = not (math.isfinite(s) and math.isfinite(k)) or s <= 0.0 or k <= 0.0
        seeds.append(FALLBACK_PRIOR.as_tuple() if fell
                     else (min(max(s, 0.01), 1.0), min(max(k, 1.0), 100.0), phi))
        fallback.append(fell)
    return seeds, fallback


def _mom_row(s0: float, k0: float, p0: float, n: int, tol: float, max_iter: int):
    """One row's MoM estimate from the prior (s0, k0, p0), as a generator:
    it yields the variance coefficients of each iterate (see
    ``model.variance_coefficients``), is sent the row's ``_mom_reducer``
    sums back, and returns ((s, kappa, phi_s), physical, iterations,
    singular-prior, no-convergence), the start of its finished row.

    Each iteration takes the closed-form moment step from those sums in
    this frame, as derived in the comments below, and feeds it back as the
    next prior until a step to finite s, kappa > 0 passes the stop test term
    by term: |ds|/s, |dk|/k, then circ|dphi| (1-s)/s, each below tol; the
    angle term, formed last, fails when nan (no accepted scan makes one).
    The last step's ``nonphysical`` and ``singular-prior`` outcomes are
    carried as two booleans; the estimate is physical when the step was and
    it lies in ``model.in_physical_domain``.  The prior and every iterate are
    mirrored onto s <= 1, since (s, k, phi) and (1/s, k, phi + pi/2) are one
    state (exact gauge move, not a clamp); without this, poor priors converge
    to the mirrored fixed point and never meet the tolerance.  No clamping:
    forcing s into (0, 1] deadlocks at s = 1, where the angle weight vanishes.
    """
    half_pi, inf = 0.5 * math.pi, math.inf
    if s0 > 1.0:  # the mirror, as for every iterate below
        s0, p0 = 1.0 / s0, canonical_angle(p0 + half_pi)
    scale = 0.5 / n
    nonphysical = singular = converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # guards: keep the iteration inside the domain where the update is defined
        if not S_FLOOR <= s0 < inf:
            s0 = 0.01
        if s0 == 1.0:
            s0 = 1.0 - 1e-9
        if not 0.0 < k0 < inf:
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
        s1 = math.sqrt(abs(num / den)) if den != 0.0 else inf
        k1 = 2.0 * k0 * math.sqrt(abs(num * den))
        phi_den = 2.0 * y1 * (1.0 - ss)
        # a prior at the isotropic boundary (or a dead y1) has no angle update
        singular = phi_den == 0.0 or abs(1.0 - ss) < 1e-8
        p1 = p0 if singular else canonical_angle(p0 - 2.0 * b * hs / phi_den)
        if s1 > 1.0:  # the mirror
            s1, p1 = 1.0 / s1, canonical_angle(p1 + half_pi)
        if (0.0 < s1 < inf and 0.0 < k1 < inf and abs(s1 - s0) / s1 < tol
                and abs(k1 - k0) / k1 < tol
                and angle_distance(p1, p0) * (1.0 - s1) / max(s1, 1e-6) < tol):
            s0, k0, p0 = s1, k1, p1
            converged = True
            break
        s0, k0, p0 = s1, k1, p1
    physical = not nonphysical and in_physical_domain(s0, k0)
    return (s0, k0, p0), physical, iterations, singular, not converged


def _check_iteration(tol: float, max_iter: int) -> None:
    """Raise ValueError unless MoM's ``tol`` is finite and > 0 and its
    ``max_iter`` at least 1."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


def mom_estimate(
    scan,
    prior: StateParams | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> EstimateResult:
    """Iterated moment-based estimator of one scan, with its covariance:
    the row that ``mom_columns`` would finish, from the prior below.

    ``scan`` is as for ``fit_estimate``, a one-row block of either layout
    included.  Without a prior the iteration is seeded from the scan's own
    fit, the ``fit_estimate`` of the scan to the bit, and a given prior
    goes in as ``prior.as_tuple()`` (see ``_mom_seeded``).  A prior that
    ``model.check_harmonic_state`` refuses, a ``tol`` that is not finite
    and > 0, or a ``max_iter`` below 1 raises ValueError.
    """
    _check_iteration(tol, max_iter)
    phases, h, x = _one_row(scan).row(0)
    row, seed = _mom_seeded(h, x, None if prior is None else prior.as_tuple(), tol, max_iter)
    return _result(METHOD_MOM, _MOM_FLAGS, row,
                   lambda est: fisher_homodyne_discrete(est, phases, harmonics=h).inverse(),
                   StateParams(*seed) if prior is None else prior)


def _mom_seeded(h: np.ndarray, x: np.ndarray, prior: tuple | None, tol: float,
                max_iter: int) -> tuple:
    """MoM's finished row (see ``_columns``) of one scan's harmonics h
    (3, N) and squares x (N,), a ``ScanBlock.row``, iterated alone, and the
    (s, kappa, phi_s) it started from: ``prior``, a float triple checked by
    ``model.check_harmonic_state`` (not replaced by the loop guards), or
    else the row's own fit, from the fit's moments (``_fit_moments``)
    through ``_seed_priors``.  The caller checks ``tol`` and ``max_iter``
    (``_check_iteration``)."""
    if prior is None:
        (seed,), (fell,) = _seed_priors([_fit_row(*_fit_moments(h, x))[0]])
    else:
        check_harmonic_state(*prior, "prior")
        seed, fell = prior, False
    row = _mom_row(*seed, len(x), tol, max_iter)
    return (*_mom_drive(row, next(row), h, x), fell), seed


def mom_columns(block: ScanBlock, fit: Estimates, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> Estimates:
    """MoM on each row of the block seeded from that row of its
    ``fit_columns`` ``fit``, as columns, without the covariance; a ``tol``
    that is not finite and > 0, or a ``max_iter`` below 1, raises ValueError.

    Every iteration does the O(N) work of all rows not yet converged at
    once (``_mom_reducer``) and each row's scalar update on its own
    (``_mom_row``); a row leaves the block when it converges, the last one
    iterates alone (``_mom_drive``), and each takes the same steps and bits
    as it would alone.  The iterations read the grid only through the
    block's harmonics, so an iteration costs three reductions and no trig.
    """
    return _columns(_MOM_FLAGS, _mom_finish(block, *_seed_priors(fit.params), tol, max_iter))


def _mom_finish(block: ScanBlock, seeds: list, fallback: list, tol: float,
                max_iter: int) -> list:
    """The finished MoM estimate of each row of the block (see
    ``_columns``) from the rows' priors ``seeds``, one (s, kappa, phi_s)
    each, of which the bools ``fallback`` mark those flagged
    ``seed-fallback``; ``tol`` and ``max_iter`` as ``_check_iteration``
    requires."""
    _check_iteration(tol, max_iter)
    x2 = block.x2
    if len(seeds) != len(x2):
        raise ValueError(f"need one prior or fit per row: {len(seeds)} for {len(x2)} rows")
    out = [None] * len(x2)
    live = []  # (row, its estimate) of each row still iterating
    coefs = []  # the variance coefficients of each live row's current iterate
    for i, seed in enumerate(seeds):
        row = _mom_row(*seed, x2.shape[1], tol, max_iter)
        coefs.append(next(row))
        live.append((i, row))
    reduce = _mom_reducer(block.harmonics, x2)
    while len(live) > 1:
        left = 0
        for k, m in enumerate(reduce(coefs)):
            try:
                coefs[k] = live[k][1].send(m)
            except StopIteration as stop:
                done = live[k][0]
                out[done] = (*stop.value, fallback[done])
                coefs[k] = None
                left += 1
        if left:
            live = [r for r, c in zip(live, coefs) if c is not None]
            coefs = [c for c in coefs if c is not None]
            if len(live) > 1:
                # reduce only the rows still iterating
                reduce = _mom_reducer(*block.row([i for i, _ in live]))
    # the last row left, or a one-row block's only row, iterates alone
    for (i, row), c in zip(live, coefs):
        _, h, x = block.row(i)
        out[i] = (*_mom_drive(row, c, h, x), fallback[i])
    return out


# eigenvalue-gap threshold below which the DHD angle is meaningless
_DEGENERATE_REL_GAP = 1e-12


def dhd_estimate(batch) -> EstimateResult:
    """Eigensystem estimator for double-homodyne data.

    Sample second moments of (q1, p2) give Gamma; subtracting the vacuum
    unit added by the beamsplitter leaves Gamma_theta, whose eigensystem
    is (kappa s, kappa / s, phi_s).  The result carries its covariance.
    Fewer than MIN_SAMPLES pairs, non-finite data, and data with a second
    moment above MAX_MEAN_SQUARE raise ValueError.
    """
    q1 = np.asarray(batch.q1, dtype=float)
    p2 = np.asarray(batch.p2, dtype=float)
    mu = q1.shape[-1]
    return _result(METHOD_DHD, _FIT_DHD_FLAGS, _dhd_finish(q1[None], p2[None])[0],
                   lambda est: _dhd_cov(est, mu))


def dhd_columns(q1, p2) -> Estimates:
    """``dhd_estimate`` of each row of the float arrays ``q1`` and ``p2``
    (B, mu) as columns, without the covariance."""
    return _columns(_FIT_DHD_FLAGS, _dhd_finish(q1, p2))


def _dhd_finish(q1, p2) -> list:
    """The finished DHD estimate of each row of ``q1`` and ``p2`` (see ``_columns``)."""
    _check_min_samples(q1.shape[-1], "mu", dhd=True)
    # overflowing products of mixed sign can sum to nan: both are caught
    # by the check in _dhd_row
    with np.errstate(over="ignore", invalid="ignore"):
        xx = (q1 * q1).mean(axis=1).tolist()
        xp = (q1 * p2).mean(axis=1).tolist()
        pp = (p2 * p2).mean(axis=1).tolist()
    return [_dhd_row(*m) for m in zip(xx, xp, pp)]


def _dhd_row(xx: float, xp: float, pp: float) -> tuple:
    """One DHD estimate's eigensystem from its second moments, as a
    finished row (see ``_columns``).

    Finite xx and pp within the limit bound every q1 and p2 and hence xp.
    """
    _check_mean_square(xx, "q1")
    _check_mean_square(pp, "p2")
    lam_min, lam_max, angle = sym2_eigensystem(xx - 1.0, xp, pp - 1.0)
    scale = max(abs(lam_min), abs(lam_max), 1e-300)
    degenerate = (lam_max - lam_min) <= _DEGENERATE_REL_GAP * scale
    # both roots carry the sign of lam_min: with lam_max < 0 the ratio and
    # the product are positive, and a plain signed root would look physical
    s_hat = (math.copysign(math.sqrt(abs(lam_min / lam_max)), lam_min)
             if lam_max != 0.0 else float("nan"))
    k_hat = math.copysign(math.sqrt(abs(lam_min * lam_max)), lam_min)
    return ((s_hat, k_hat, 0.0 if degenerate else angle),
            lam_min > 0.0 and in_physical_domain(s_hat, k_hat), 0, degenerate)


def _dhd_cov(est: StateParams, mu: int) -> SymMatrix3:
    """Inverse Fisher matrix of mu DHD repetitions at the estimate."""
    f = fisher_dhd(est)
    return SymMatrix3(ss=f.ss * mu, sk=f.sk * mu, sp=f.sp * mu,
                      kk=f.kk * mu, kp=f.kp * mu, pp=f.pp * mu).inverse()
