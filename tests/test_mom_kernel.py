"""The trig-free MoM kernel against the per-phase trig form it replaces.

``_reference_update`` is the moment update as first written: weights from
``mom_weights`` (defined here, and checked in test_estimators) on the phase
grid, y_a = mean(c_a q^2), then the closed-form update.
``_reference_estimate`` iterates it as ``mom_estimate`` iterates the kernel.
The kernel must reproduce both to rounding, scan by scan and on blocks.

``_step_moments`` and ``_step_update`` are the kernel's step as two
functions, the moments y_a from the reducer's sums and the closed-form
update; ``_stepwise_estimate`` loops them with the guards, the mirror and
the convergence metric.  ``mom_estimate`` takes the same step in one frame,
and must reproduce that loop bit for bit.

Tolerances, fixed before the tests were written: rtol 1e-12, angles
1e-12 rad.  One update is compared at the level of its moments y_a, each
relative to the size of the terms it sums, mean|c_a q^2|.  The update's
outputs divide by differences of the moments that cancel for many priors,
so there rounding alone, even summing the reference's own terms in
another order, moves a single update's outputs by more than any fixed
tolerance; converged estimates do not cancel, and are compared at the
same tolerance on their outputs.
"""

import math

import numpy as np
from conftest import column_results, fit_moments
from hypothesis import example, given, settings, strategies as st

from squeezelab import (
    ScanBlock,
    ScanConfig,
    StateParams,
    angle_distance,
    canonical_angle,
    empirical_family,
    eval_variance,
    fisher_homodyne_discrete,
    fit_columns,
    fit_estimate,
    grid_harmonics,
    mom_columns,
    mom_estimate,
    sample_homodyne_scan,
    variance_coefficients,
    variance_partials,
)
from squeezelab.estimators import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    FLAG_NO_CONVERGENCE,
    FLAG_NONPHYSICAL,
    FLAG_SINGULAR_INFORMATION,
    FLAG_SINGULAR_PRIOR,
    FLAG_SEED_FALLBACK,
    _mom_reducer,
    _seed_priors,
)
from squeezelab.model import S_FLOOR, SingularMatrixError, in_physical_domain

RTOL = 1e-12
ANGLE_TOL = 1e-12


def mom_weights(prior: StateParams, psi):
    """Optimal moment weights c_a(psi) = (1 / 2 V^2) dV/da at the prior, by trig."""
    v = eval_variance(prior, psi)
    g_s, g_k, g_p = variance_partials(prior, psi)
    w = 1.0 / (2.0 * np.asarray(v) ** 2)
    return w * g_s, w * g_k, w * g_p


def _reference_moments(x2, phases, prior):
    """(y_a, mean|c_a q^2|) for a = s, kappa, phi, evaluated per phase."""
    terms = [c * x2 for c in mom_weights(prior, phases)]
    return [float(np.mean(t)) for t in terms], [float(np.mean(np.abs(t))) for t in terms]


def _reference_update(x2, phases, prior):
    """The closed-form update, ``_step_update``, of the per-phase moments."""
    return _step_update(_reference_moments(x2, phases, prior)[0],
                        prior.s, prior.kappa, prior.phi_s)


def _reference_estimate(scan, prior):
    """``mom_estimate(scan, prior=prior)``, less the covariance, with the
    trig update: mirror onto s <= 1, guard, update, stop on a relative
    change below the default tol.  Returns (s, kappa, phi, iterations, flags,
    physical)."""
    x2 = scan.samples * scan.samples
    s0, k0, p0 = prior.s, prior.kappa, prior.phi_s
    if s0 > 1.0:
        s0, p0 = 1.0 / s0, canonical_angle(p0 + 0.5 * math.pi)
    step_flags = set()
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        if not math.isfinite(s0) or s0 <= 0.0:
            s0 = 0.01
        if s0 == 1.0:
            s0 = 1.0 - 1e-9
        if not math.isfinite(k0) or k0 <= 0.0:
            k0 = 1.0
        s1, k1, p1, step_flags = _reference_update(x2, scan.phases, StateParams(s0, k0, p0))
        if s1 > 1.0:
            s1, p1 = 1.0 / s1, canonical_angle(p1 + 0.5 * math.pi)
        done = (math.isfinite(s1) and math.isfinite(k1) and s1 > 0.0 and k1 > 0.0 and max(
            abs(s1 - s0) / s1,
            abs(k1 - k0) / k1,
            angle_distance(p1, p0) * (1.0 - s1) / max(s1, 1e-6),
        ) < DEFAULT_TOL)
        s0, k0, p0 = s1, k1, p1
        if done:
            break
    flags = set(step_flags)
    if not done:
        flags.add(FLAG_NO_CONVERGENCE)
    physical = FLAG_NONPHYSICAL not in step_flags and in_physical_domain(s0, k0)
    if not physical:
        flags.add(FLAG_NONPHYSICAL)
    return s0, k0, p0, iterations, frozenset(flags), physical


def _step_moments(m: list, n: int, s0: float, k0: float,
                  weights: tuple) -> tuple[float, float, float]:
    """y_a = mean(c_a q^2) from a row's ``_mom_reducer`` sums m: the sums
    over 2N rotated by 2 p0 give H = mean(h q^2 (1, cos 2u, sin 2u)), and

        y1 = k0 ((s0^2 - 1) H0 + (s0^2 + 1) Hc) / (2 s0^2)
        y2 = (a H0 + b Hc) / k0
        y3 = 2 b Hs
    """
    (a, _, _), b, c2p, s2p = weights
    m0, mc, ms = m
    scale = 0.5 / n
    h0 = m0 * scale
    hc = (mc * c2p + ms * s2p) * scale
    hs = (ms * c2p - mc * s2p) * scale
    ss = s0 * s0
    return (
        k0 * ((ss - 1.0) * h0 + (ss + 1.0) * hc) / (2.0 * ss),
        (a * h0 + b * hc) / k0,
        2.0 * b * hs,
    )


def _step_update(y: tuple, s0: float, k0: float, p0: float):
    """The closed-form update from the moments y_a, evaluated as printed:

        num = y1 s0 (1+s0) + y2 k0
        den = y1 (1+s0) - y2 k0
        s   = sqrt|num / den|
        k   = 2 k0 sqrt|num * den|
        phi = phi0 - y3 / (2 y1 (1 - s0^2))

    Returns (s, kappa, phi, flags)."""
    y1, y2, y3 = y
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
        flags.add(FLAG_SINGULAR_PRIOR)
        p_hat = p0
    else:
        p_hat = canonical_angle(p0 - y3 / phi_den)
    return s_hat, k_hat, p_hat, flags


def _mirrored(s, kappa, phi):
    if s > 1.0:
        return 1.0 / s, kappa, canonical_angle(phi + 0.5 * math.pi)
    return s, kappa, phi


def _stepwise_estimate(scan, prior, max_iter):
    """``mom_estimate(scan, prior=prior, max_iter=max_iter)`` as a loop of
    ``_step_moments`` and ``_step_update`` on the kernel's reducer sums.
    Returns (params, iterations, flags)."""
    block = ScanBlock.of(scan.phases, scan.samples)
    reduce = _mom_reducer(block.harmonics, block.x2)
    s0, k0, p0 = _mirrored(prior.s, prior.kappa, prior.phi_s)
    step_flags = set()
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        if not math.isfinite(s0) or s0 < S_FLOOR:
            s0 = 0.01
        if s0 == 1.0:
            s0 = 1.0 - 1e-9
        if not math.isfinite(k0) or k0 <= 0.0:
            k0 = 1.0
        w = variance_coefficients(s0, k0, p0)
        y = _step_moments(reduce([w[0]])[0], scan.samples.size, s0, k0, w)
        s1, k1, p1, step_flags = _step_update(y, s0, k0, p0)
        s1, k1, p1 = _mirrored(s1, k1, p1)
        if math.isfinite(s1) and math.isfinite(k1) and s1 > 0.0 and k1 > 0.0:
            metric = max(
                abs(s1 - s0) / s1,
                abs(k1 - k0) / k1,
                angle_distance(p1, p0) * (1.0 - s1) / max(s1, 1e-6),
            )
            if metric < DEFAULT_TOL:
                s0, k0, p0 = s1, k1, p1
                converged = True
                break
        s0, k0, p0 = s1, k1, p1
    est = StateParams(s0, k0, p0)
    flags = set(step_flags)
    if not converged:
        flags.add(FLAG_NO_CONVERGENCE)
    if FLAG_NONPHYSICAL in step_flags or not in_physical_domain(est.s, est.kappa):
        flags.add(FLAG_NONPHYSICAL)
    else:
        try:
            fisher_homodyne_discrete(est, block.phases, harmonics=block.harmonics).inverse()
        except SingularMatrixError:
            flags.add(FLAG_SINGULAR_INFORMATION)
    return est, iterations, frozenset(flags)


def _kernel_moments(x2, harmonics, prior):
    """(y_a, flags of the update) from the kernel's reducer and step, one row."""
    s0, k0, p0 = prior.s, prior.kappa, prior.phi_s
    w = variance_coefficients(s0, k0, p0)
    y = _step_moments(_mom_reducer(harmonics, x2[None])([w[0]])[0], x2.size, s0, k0, w)
    return y, _step_update(y, s0, k0, p0)[3]


squeezing = st.floats(0.05, 0.99)
thermal = st.floats(1.0, 4.0)
angles = st.floats(0.0, math.pi, exclude_max=True)
nudge = st.floats(-0.05, 0.05)


@st.composite
def scan_and_prior(draw):
    truth = StateParams(draw(squeezing), draw(thermal), draw(angles))
    scan = sample_homodyne_scan(
        truth,
        ScanConfig(n_psi=draw(st.sampled_from((30, 300, 900)))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    if draw(st.booleans()):
        # near: within 5% of the truth, as every iteration after the first
        prior = StateParams(truth.s * (1 + draw(nudge)), truth.kappa * (1 + draw(nudge)),
                            truth.phi_s + draw(nudge))
    else:
        prior = StateParams(draw(squeezing), draw(thermal), draw(angles))
    return scan, prior


# a prior at s = 1, where the angle update is singular
SINGULAR_PRIOR_CASE = (
    sample_homodyne_scan(StateParams(0.5, 2.0, 0.3), ScanConfig(n_psi=300), seed=5),
    StateParams(1.0, 1.0, 0.9),
)


@settings(max_examples=300)
@given(scan_and_prior())
@example(SINGULAR_PRIOR_CASE)
def test_mom_update_matches_trig_reference(case):
    scan, prior = case
    x2 = scan.samples * scan.samples
    got, flags = _kernel_moments(x2, grid_harmonics(scan.phases), prior)
    want, scale = _reference_moments(x2, scan.phases, prior)
    for g, w, sc in zip(got, want, scale):
        assert abs(g - w) <= RTOL * sc
    assert flags == _reference_update(x2, scan.phases, prior)[3]


@settings(max_examples=300)
@given(scan_and_prior())
def test_fourier_components_match_complex_exponential(case):
    scan, _ = case
    x = scan.samples * scan.samples
    want_c0 = float(np.mean(x))
    want_c2 = complex(np.mean(x * np.exp(-2.0j * scan.phases)))
    c0, c2 = fit_moments(scan)
    assert abs(c0 - want_c0) <= RTOL * want_c0
    assert abs(c2 - want_c2) <= RTOL * abs(want_c2)


def test_mom_estimate_matches_trig_reference():
    """Same iterations, flags and estimates as the iterated trig update,
    2000 scans: mom_columns on blocks of them and mom_estimate on each."""
    cfg = ScanConfig()
    grid = cfg.phase_grid()
    for s in (0.21, 0.3, 0.5, 0.7, 0.9):
        scans = [sample_homodyne_scan(empirical_family(s, 0.4), cfg, seed=3, trial=t)
                 for t in range(400)]
        block = np.stack([scan.samples for scan in scans])
        blocks = []
        for b in range(0, 400, 25):
            rows = ScanBlock.of(grid, block[b:b + 25], grid_harmonics(grid))
            blocks += column_results("mom", mom_columns(rows, fit_columns(rows)))
        for scan, in_block in zip(scans, blocks):
            alone = mom_estimate(scan)
            seeds, fallback = _seed_priors([fit_estimate(scan).params.as_tuple()])
            prior = StateParams(*seeds[0])
            seed_flags = (FLAG_SEED_FALLBACK,) if fallback[0] else ()
            s0, k0, p0, iterations, flags, physical = _reference_estimate(scan, prior)
            flags |= frozenset(seed_flags)
            for g in (in_block, alone):
                assert g.iterations == iterations
                assert g.flags == flags
                assert g.physical == physical
                assert abs(g.params.s - s0) <= RTOL * abs(s0)
                assert abs(g.params.kappa - k0) <= RTOL * abs(k0)
                assert angle_distance(g.params.phi_s, p0) <= ANGLE_TOL


@st.composite
def scan_prior_and_cap(draw):
    """A scan of 16, 64 or 900 points on either spacing, a prior near the
    truth, far from it or at s = 1, and an iteration cap of 1, 2 or 20."""
    truth = StateParams(draw(squeezing), draw(thermal), draw(angles))
    cfg = ScanConfig(n_psi=draw(st.sampled_from((16, 64, 900))),
                     spacing=draw(st.sampled_from(("equispaced", "random"))))
    scan = sample_homodyne_scan(truth, cfg, seed=draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("near", "far", "s=1")))
    if kind == "near":
        prior = StateParams(truth.s * (1 + draw(nudge)), truth.kappa * (1 + draw(nudge)),
                            truth.phi_s + draw(nudge))
    elif kind == "far":
        # s up to 2 starts on the mirrored branch
        prior = StateParams(draw(st.floats(0.02, 2.0)), draw(st.floats(1.0, 10.0)),
                            draw(st.floats(-4.0, 4.0)))
    else:
        prior = StateParams(1.0, draw(thermal), draw(angles))
    return scan, prior, draw(st.sampled_from((1, 2, 20)))


@settings(max_examples=300)
@given(scan_prior_and_cap())
@example((*SINGULAR_PRIOR_CASE, 1))
@example((*SINGULAR_PRIOR_CASE, 20))
def test_mom_estimate_is_the_stepwise_loop_bit_for_bit(case):
    """The step taken in one frame keeps every iterate's bits: params,
    iterations and flags equal those of the two-function loop."""
    scan, prior, max_iter = case
    got = mom_estimate(scan, prior=prior, max_iter=max_iter)
    est, iterations, flags = _stepwise_estimate(scan, prior, max_iter)
    assert np.array(got.params.as_tuple()).tobytes() == np.array(est.as_tuple()).tobytes()
    assert got.iterations == iterations
    assert got.flags == flags
