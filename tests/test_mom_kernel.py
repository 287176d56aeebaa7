"""The trig-free MoM kernel against the per-phase trig form it replaces.

``_reference_update`` is the moment update as first written: weights from
``mom_weights`` on the phase grid, y_a = mean(c_a q^2), then the closed-form
update.  The kernel must reproduce it to rounding.

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
from hypothesis import given, settings, strategies as st

from squeezelab import (
    ScanConfig,
    StateParams,
    angle_distance,
    canonical_angle,
    empirical_family,
    fourier_components,
    grid_harmonics,
    mom_estimate,
    mom_weights,
    sample_homodyne_scan,
)
from squeezelab import estimators
from squeezelab.estimators import (
    FLAG_NONPHYSICAL,
    FLAG_SINGULAR_PRIOR,
    _mom_moments,
    _mom_update,
)

RTOL = 1e-12
ANGLE_TOL = 1e-12


def _reference_moments(x2, phases, prior):
    """(y_a, mean|c_a q^2|) for a = s, kappa, phi, evaluated per phase."""
    terms = [c * x2 for c in mom_weights(prior, phases)]
    return [float(np.mean(t)) for t in terms], [float(np.mean(np.abs(t))) for t in terms]


def _reference_update(x2, phases, prior):
    s0, k0, p0 = prior.s, prior.kappa, prior.phi_s
    (y1, y2, y3), _ = _reference_moments(x2, phases, prior)

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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scan_and_prior())
def test_mom_update_matches_trig_reference(case):
    scan, prior = case
    x2 = scan.samples * scan.samples
    harmonics = grid_harmonics(scan.phases)
    args = (prior.s, prior.kappa, prior.phi_s)

    want, scale = _reference_moments(x2, scan.phases, prior)
    got = _mom_moments(x2, harmonics, *args)
    for g, w, sc in zip(got, want, scale):
        assert abs(g - w) <= RTOL * sc
    assert _mom_update(x2, harmonics, *args)[3] == _reference_update(x2, scan.phases, prior)[3]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scan_and_prior())
def test_fourier_components_match_complex_exponential(case):
    scan, _ = case
    x = scan.samples * scan.samples
    want_c0 = float(np.mean(x))
    want_c2 = complex(np.mean(x * np.exp(-2.0j * scan.phases)))
    got = fourier_components(scan)
    assert abs(got.c0 - want_c0) <= RTOL * want_c0
    assert abs(got.c2 - want_c2) <= RTOL * abs(want_c2)


def test_mom_estimate_matches_trig_reference(monkeypatch):
    """Same iterations, flags and estimates as the trig update, 2000 scans."""
    scans = [
        sample_homodyne_scan(empirical_family(s, 0.4), ScanConfig(), seed=3, trial=t)
        for s in (0.21, 0.3, 0.5, 0.7, 0.9)
        for t in range(400)
    ]
    got = [mom_estimate(scan, compute_cov=False) for scan in scans]
    for scan, g in zip(scans, got):
        monkeypatch.setattr(
            estimators, "_mom_update",
            lambda x2, harmonics, s0, k0, p0, phases=scan.phases:
                _reference_update(x2, phases, StateParams(s0, k0, p0)),
        )
        want = mom_estimate(scan, compute_cov=False)
        assert g.iterations == want.iterations
        assert g.flags == want.flags
        assert g.physical == want.physical
        assert abs(g.params.s - want.params.s) <= RTOL * abs(want.params.s)
        assert abs(g.params.kappa - want.params.kappa) <= RTOL * abs(want.params.kappa)
        assert angle_distance(g.params.phi_s, want.params.phi_s) <= ANGLE_TOL

