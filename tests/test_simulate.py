"""Statistical and structural checks for the synthetic data layer."""

import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from squeezelab import io as sio
from squeezelab import (
    DhdBatch,
    DriftModel,
    SPACINGS,
    HomodyneScan,
    ScanConfig,
    StateParams,
    TemporalMode,
    apply_temporal_mode,
    default_temporal_mode,
    eval_variance,
    grid_harmonics,
    keyed_generator,
    mode_weights,
    sample_dhd,
    sample_homodyne_scan,
    scan_from_trace,
    simulate_phase_drift,
    state_covariance,
    synthesize_trace,
    variance_coefficients,
)
from squeezelab.cli import main
from squeezelab.model import KAPPA_LIMIT, MAX_DRAW_VARIANCE, S_FLOOR
from squeezelab.simulate import (
    _STREAM_DHD,
    _STREAM_SCAN,
    _STREAM_TRACE,
    sample_dhd_blocks,
    sample_scan_blocks,
)


# ---------------------------------------------------------------- scans


def test_scan_variance_consistency():
    """Normalized quadratures over 1e6 draws have unit sample variance."""
    p = StateParams(0.3, 2.0, 0.7)
    scan = sample_homodyne_scan(p, ScanConfig(n_psi=1_000_000), seed=3)
    z = scan.samples / np.sqrt(eval_variance(p, scan.phases))
    var = float(np.mean(z * z))
    # stderr of the sample variance of M standard normals is sqrt(2/M)
    assert abs(var - 1.0) < 5.0 * math.sqrt(2.0 / 1_000_000)


def test_scan_grid_and_meta():
    cfg = ScanConfig(n_psi=8, n=2)
    scan = sample_homodyne_scan(StateParams(0.5, 1.0, 0.0), cfg, seed=0)
    assert np.allclose(scan.phases, np.arange(8) * (2 * math.pi / 8))
    assert scan.samples.shape == (8,)


def test_scan_random_spacing():
    cfg = ScanConfig(n_psi=200, spacing="random")
    scan = sample_homodyne_scan(StateParams(0.5, 1.0, 0.0), cfg, seed=5)
    assert np.all(scan.phases >= 0.0) and np.all(scan.phases < 2 * math.pi)
    assert np.all(np.diff(scan.phases) >= 0.0)
    again = sample_homodyne_scan(StateParams(0.5, 1.0, 0.0), cfg, seed=5)
    assert np.array_equal(scan.phases, again.phases)


def test_scan_determinism_and_stream_separation():
    p = StateParams(0.4, 1.5, 0.2)
    a = sample_homodyne_scan(p, seed=0, trial=0)
    b = sample_homodyne_scan(p, seed=0, trial=0)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, sample_homodyne_scan(p, seed=0, trial=1).samples)
    assert not np.array_equal(a.samples, sample_homodyne_scan(p, seed=1, trial=0).samples)


def test_keyed_generator_path_mixing():
    # path components must not collapse onto each other
    a = keyed_generator(0, 1, 2).standard_normal(4)
    b = keyed_generator(0, 2, 1).standard_normal(4)
    c = keyed_generator(0, 1, 2).standard_normal(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_scan_length_mismatch_rejected():
    with pytest.raises(ValueError):
        HomodyneScan(phases=np.zeros(3), samples=np.zeros(4))


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(n_psi=0)
    with pytest.raises(ValueError):
        ScanConfig(n=0)
    with pytest.raises(ValueError):
        ScanConfig(spacing="jittered")


@pytest.mark.parametrize("field, value", [("n_psi", 10.5), ("n_psi", 64.0), ("n", 2.5),
                                          ("n", np.float64(2.0))])
def test_scan_config_refuses_a_non_integer_geometry(field, value):
    """A float sample count or span raises, naming the field, when the config
    is built, so before any draw; numpy integers are accepted and draw the
    bytes of Python ints."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        ScanConfig(**{field: value})
    truth = StateParams(0.5, 1.4, 0.2)
    want = sample_homodyne_scan(truth, ScanConfig(n_psi=64, n=3), seed=4)
    got = sample_homodyne_scan(truth, ScanConfig(n_psi=np.int64(64), n=np.int32(3)), seed=4)
    assert got.phases.tobytes() == want.phases.tobytes()
    assert got.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("spacing", SPACINGS)
def test_a_pickled_scan_config_draws_the_same_bytes(spacing):
    cfg = ScanConfig(n_psi=48, n=3, spacing=spacing)
    truth = StateParams(0.4, 1.8, 0.7)
    want = sample_homodyne_scan(truth, cfg, seed=9, trial=2)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and copy is not cfg
    got = sample_homodyne_scan(truth, copy, seed=9, trial=2)
    assert got.phases.tobytes() == want.phases.tobytes()
    assert got.samples.tobytes() == want.samples.tobytes()


# Unit roundoff of float64: eps = 2u.
_U = 2.0**-53


@settings(max_examples=200)
@given(
    log_s=st.floats(-6.0, 6.0),
    log_kappa=st.floats(-3.0, 3.0),
    phi=st.floats(-10.0, 10.0),
    n_psi=st.integers(1, 64),
    span=st.integers(1, 8),
    spacing=st.sampled_from(["equispaced", "random"]),
    seed=st.integers(0, 2**64 - 1),
    t0=st.integers(0, 2**40),
    rows=st.integers(1, 4),
)
def test_sampled_variance_within_its_rounding_bound(log_s, log_kappa, phi, n_psi, span,
                                                    spacing, seed, t0, rows):
    """The sampler's variance, recovered from its samples, lies within a
    rounding bound of eval_variance at every drawn phase, for any truth with
    min(s, 1/s) >= S_FLOOR.

    With unit roundoff u = 2^-53, M = kappa max(s, 1/s), a = kappa (s + 1/s)/2
    <= M and |b| = kappa |s - 1/s| / 2 <= M/2, counting first-order terms:

    * sampler, V = a + (b cos 2phi) C + (b sin 2phi) S with C, S = cos, sin 2psi
      (2 psi and 2 phi are exact; libm cos and sin are within 2u):
      a is off by 3u a <= 3uM; b by 1.5uM; b cos 2phi and b sin 2phi by
      1.5uM + 2u|b| + u|b| <= 3uM each, weighted by |C| + |S| <= sqrt 2:
      4.3uM; C and S add 2u |b| sqrt 2 <= 1.5uM; the products and the two
      sums over terms of total size <= a + |b| <= 1.5M add 3.5uM.  In all
      12.3uM.
    * eval_variance, kappa s cos^2 w + (kappa/s) sin^2 w with w = fl(psi - phi):
      each term is off by 3u times itself plus 4u times its prefactor, the
      sum by uM: 12uM in all; w is off by u (|psi| + pi) (phi in [0, pi)),
      and |dV/dw| <= kappa |1/s - s| <= M adds uM (|psi| + pi).
    * the recovery V' = (q / z)^2 of q = z sqrt(V) is off by 7u V <= 7.1uM.

    So |V' - eval_variance| <= uM (34.6 + |psi|) <= 35 uM (1 + |psi|), which
    is 17.5 eps M (1 + |psi|); the test allows 18 eps M (1 + |psi|).
    """
    s, kappa = 10.0**log_s, 10.0**log_kappa
    assume(min(s, 1.0 / s) >= S_FLOOR)
    truth = StateParams(s, kappa, phi)
    cfg = ScanConfig(n_psi=n_psi, n=span, spacing=spacing)
    [(phases, _, q)] = sample_scan_blocks(truth, cfg, seed, [range(t0, t0 + rows)])
    bound = 18.0 * (2.0 * _U) * kappa * max(s, 1.0 / s)
    for i in range(rows):
        rng = keyed_generator(seed, _STREAM_SCAN, t0 + i)
        psi = phases if phases.ndim == 1 else phases[i]
        if spacing == "random":
            rng.uniform(size=n_psi)
        z = rng.standard_normal(n_psi)
        drawn = z != 0.0
        got = (q[i][drawn] / z[drawn]) ** 2
        want = eval_variance(truth, psi[drawn])
        assert np.all(np.abs(got - want) <= bound * (1.0 + np.abs(psi[drawn])))


def _beyond_the_floor(s: float) -> float:
    """The float next to s, away from 1, whose min(s, 1/s) is below
    S_FLOOR: one ulp below S_FLOOR, or the first float above 1 / S_FLOOR
    whose reciprocal rounds below it (1e6 + 1 ulp still rounds to 1e-6)."""
    if s < 1.0:
        return math.nextafter(s, 0.0)
    while 1.0 / s >= S_FLOOR:
        s = math.nextafter(s, math.inf)
    return s


@pytest.mark.parametrize("s", [S_FLOOR, 1.0 / S_FLOOR])
@pytest.mark.parametrize("spacing", ["equispaced", "random"])
def test_sampler_rejects_a_truth_beyond_the_s_floor(s, spacing):
    """A truth at the floor is drawn; one float beyond it, on either side
    of s = 1, raises ValueError naming the floor, for a shared truth and for
    a truth per trial."""
    cfg = ScanConfig(n_psi=64, spacing=spacing)
    at = StateParams(s, 2.0, 0.3)
    with np.errstate(all="raise"):
        assert np.all(np.isfinite(sample_homodyne_scan(at, cfg, seed=1).samples))
    beyond = StateParams(_beyond_the_floor(s), 2.0, 0.3)
    assert abs(math.log2(beyond.s / s)) < 1e-15
    floor = r"min\(s, 1/s\) >= S_FLOOR = 1e-06"
    with pytest.raises(ValueError, match=floor):
        sample_homodyne_scan(beyond, cfg, seed=1)
    with pytest.raises(ValueError, match=floor):
        list(sample_scan_blocks([at, beyond], cfg, 1, [range(0, 2)]))
    for bad in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=floor):
            sample_homodyne_scan(StateParams(bad, 2.0, 0.3), cfg, seed=1)


@pytest.mark.parametrize("spacing", ["equispaced", "random"])
def test_sampler_rejects_a_kappa_beyond_the_limit(spacing):
    """The scan sampler checks its truths as MoM checks its priors: at the
    kappa limits, with s at the floor on either side, a scan is drawn with
    every floating-point error raised; a kappa of -1, 0, nan or inf, or one
    float beyond either limit, raises ValueError naming the limit, for a
    shared truth and for a truth per trial, and so does a nan angle."""
    cfg = ScanConfig(n_psi=64, spacing=spacing)
    with np.errstate(all="raise"):
        for kappa in (KAPPA_LIMIT, 1.0 / KAPPA_LIMIT):
            for s in (S_FLOOR, 1.0 / S_FLOOR):
                scan = sample_homodyne_scan(StateParams(s, kappa, 0.3), cfg, seed=1)
                assert np.all(np.isfinite(scan.samples))
    at = StateParams(0.5, 2.0, 0.3)
    for kappa in (-1.0, 0.0, math.nan, math.inf, math.nextafter(KAPPA_LIMIT, math.inf),
                  math.nextafter(1.0 / KAPPA_LIMIT, 0.0)):
        beyond = StateParams(0.5, kappa, 0.3)
        with pytest.raises(ValueError, match=r"needs 1e-90 <= kappa <= 1e\+90"):
            sample_homodyne_scan(beyond, cfg, seed=1)
        with pytest.raises(ValueError, match=r"needs 1e-90 <= kappa <= 1e\+90"):
            list(sample_scan_blocks([at, beyond], cfg, 1, [range(0, 2)]))
    with pytest.raises(ValueError, match="finite phi_s"):
        sample_homodyne_scan(StateParams(0.5, 2.0, math.nan), cfg, seed=1)


# ---------------------------------------------------------------- DHD


def test_dhd_vacuum_marginals():
    """Vacuum plus detection noise gives variance 2 on both outputs."""
    batch = sample_dhd(StateParams(1.0, 1.0, 0.0), mu=400_000, seed=2)
    tol = 5.0 * 2.0 * math.sqrt(2.0 / 400_000)
    assert abs(float(np.var(batch.q1)) - 2.0) < tol
    assert abs(float(np.var(batch.p2)) - 2.0) < tol
    assert abs(float(np.mean(batch.q1 * batch.p2))) < 0.05


def test_dhd_axis_aligned_moments():
    batch = sample_dhd(StateParams(0.5, 2.0, 0.0), mu=400_000, seed=4)
    assert float(np.mean(batch.q1**2)) == pytest.approx(2.0, rel=0.02)
    assert float(np.mean(batch.p2**2)) == pytest.approx(5.0, rel=0.02)


def test_dhd_rotated_cross_moment():
    # at phi_s = pi/4 the cross moment is (kappa s - kappa/s)/2
    batch = sample_dhd(StateParams(0.5, 2.0, math.pi / 4), mu=400_000, seed=4)
    assert float(np.mean(batch.q1 * batch.p2)) == pytest.approx(-1.5, abs=0.05)


def test_dhd_determinism():
    p = StateParams(0.3, 1.2, 1.0)
    a = sample_dhd(p, mu=64, seed=0, trial=3)
    b = sample_dhd(p, mu=64, seed=0, trial=3)
    assert np.array_equal(a.q1, b.q1) and np.array_equal(a.p2, b.p2)
    assert not np.array_equal(a.q1, sample_dhd(p, mu=64, seed=0, trial=4).q1)


def test_dhd_validation():
    with pytest.raises(ValueError):
        sample_dhd(StateParams(0.5, 1.0, 0.0), mu=0)
    with pytest.raises(ValueError):
        DhdBatch(q1=np.zeros(2), p2=np.zeros(3))


# ---------------------------------------------------------------- drift


def test_drift_zero_amplitude_is_constant():
    model = DriftModel(amplitude=0.0)
    out = simulate_phase_drift(model, duration=0.05, seed=9)
    assert out.shape == (100,)
    assert np.all(out == 0.0)


def test_drift_mean_reverting_autocorrelation():
    """Autocorrelation at lag tau averages to exp(-1) across seeds."""
    model = DriftModel(kind="mean-reverting", correlation_time=5e-3, step_interval=5e-4)
    lag = 10  # tau / dt
    acc = []
    for seed in range(100):
        x = simulate_phase_drift(model, duration=0.5, seed=seed)
        acc.append(float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x)))
    assert abs(np.mean(acc) - math.exp(-1.0)) < 0.1


def test_drift_mean_reverting_stationary_std():
    model = DriftModel(amplitude=0.15, correlation_time=5e-3, step_interval=5e-4)
    x = simulate_phase_drift(model, duration=5.0, seed=1)
    # ~1000 effective samples, keep a loose band
    assert float(np.std(x)) == pytest.approx(0.15, rel=0.15)


def test_drift_random_walk_increment_variance_linear():
    model = DriftModel(kind="random-walk", amplitude=0.15, correlation_time=5e-3, step_interval=5e-4)
    x = simulate_phase_drift(model, duration=10.0, seed=7)
    step_var = 0.15**2 * (5e-4 / 5e-3)
    assert x[0] == 0.0
    for k in (1, 4, 16):
        d = x[k:] - x[:-k]
        assert float(np.var(d)) == pytest.approx(k * step_var, rel=0.15)


def test_drift_validation():
    with pytest.raises(ValueError):
        DriftModel(kind="pink")
    with pytest.raises(ValueError):
        DriftModel(correlation_time=0.0)
    with pytest.raises(ValueError):
        DriftModel(step_interval=-1.0)
    with pytest.raises(ValueError):
        simulate_phase_drift(DriftModel(), duration=0.0)
    with pytest.raises(ValueError):
        simulate_phase_drift(DriftModel(step_interval=1.0), duration=0.5)


# ---------------------------------------------------------------- temporal mode


def test_mode_weights_unit_energy():
    for wl, fwhm in ((55, 6e6), (25, 6e6), (11, 2e7), (1, 6e6)):
        f = mode_weights(TemporalMode(fwhm_hz=fwhm, window_len=wl))
        assert abs(float(f @ f) - 1.0) < 1e-12


def test_mode_weights_symmetric_peak():
    f = mode_weights(TemporalMode(window_len=55))
    assert np.allclose(f, f[::-1], atol=1e-15)
    assert np.argmax(f) == 27


def test_mode_validation():
    with pytest.raises(ValueError):
        TemporalMode(fwhm_hz=0.0)
    with pytest.raises(ValueError):
        TemporalMode(window_len=0)
    with pytest.raises(ValueError, match="window_len must be an integer, got 2.5"):
        TemporalMode(window_len=2.5)


@pytest.mark.parametrize("make, name", [
    (TemporalMode, "fwhm_hz"), (TemporalMode, "sample_rate_hz"),
    (default_temporal_mode, "scan_duration"), (default_temporal_mode, "sample_rate_hz"),
    (default_temporal_mode, "fwhm_hz"),
    (DriftModel, "correlation_time"), (DriftModel, "step_interval"), (DriftModel, "amplitude"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_geometry_and_drift_rejected(make, name, bad):
    """nan slips past a `x <= 0` check and inf overflows the trace length:
    both raise ValueError before any weight or sample is built."""
    with pytest.raises(ValueError, match="finite"):
        make(**{name: bad})


def test_default_temporal_mode_geometry():
    mode, total = default_temporal_mode(n_psi=900, scan_duration=500e-6, sample_rate_hz=1e8)
    assert total == 50_000
    assert mode.window_len == 55
    with pytest.raises(ValueError, match="too short for n_psi=10000000 windows"):
        default_temporal_mode(n_psi=10**7, scan_duration=500e-6, sample_rate_hz=1e8)


def test_window_len_one_projection_is_identity():
    """A single-tap mode acts as a delta: projection returns the raw trace."""
    mode = TemporalMode(window_len=1)
    trace = np.array([0.5, -1.25, 3.0, 0.0])
    assert np.array_equal(apply_temporal_mode(trace, mode), trace)


def test_trace_is_float32():
    cfg = ScanConfig(n_psi=16)
    mode = TemporalMode(window_len=9)
    trace = synthesize_trace([StateParams(0.5, 1.0, 0.0)] * 16, mode, cfg, seed=0)
    assert trace.dtype == np.float32
    assert trace.shape == (144,)


def test_trace_mode_component_carries_the_signal():
    """Changing the state moves the trace only along the mode direction."""
    cfg = ScanConfig(n_psi=64)
    mode = TemporalMode(window_len=25)
    f = mode_weights(mode)
    a = synthesize_trace([StateParams(1.0, 1.0, 0.0)] * 64, mode, cfg, seed=11)
    b = synthesize_trace([StateParams(0.2, 1.0, 0.0)] * 64, mode, cfg, seed=11)
    d = (a - b).astype(float).reshape(64, 25)
    resid = d - np.outer(d @ f, f)
    assert np.max(np.abs(resid)) < 1e-5


def test_trace_projection_variance_matches_state():
    cfg = ScanConfig(n_psi=900)
    mode = TemporalMode(window_len=25)
    p = StateParams(0.3, 1.5, 0.4)
    trace = synthesize_trace([p] * 900, mode, cfg, seed=6)
    q = apply_temporal_mode(trace, mode)
    z2 = q * q / eval_variance(p, cfg.phase_grid())
    assert float(np.mean(z2)) == pytest.approx(1.0, abs=0.2)


def test_trace_tail_is_dead_time():
    cfg = ScanConfig(n_psi=10)
    mode = TemporalMode(window_len=5)
    trace = synthesize_trace([StateParams(1.0, 1.0, 0.0)] * 10, mode, cfg, seed=0, total_len=64)
    assert trace.shape == (64,)
    # projection ignores the 14 tail samples
    q = apply_temporal_mode(trace, mode, n_windows=10)
    assert q.shape == (10,)


def test_mode_mismatch_degrades_monotonically():
    """Analyzing with the wrong bandwidth leaks vacuum into the estimate.

    Squeezing is aligned with every scan phase, so a perfect projection
    sees variance kappa*s while a mismatched one mixes in unit vacuum.
    """
    cfg = ScanConfig(n_psi=900)
    true_mode = TemporalMode(fwhm_hz=6e6, window_len=25)
    states = [StateParams(0.2, 1.0, psi) for psi in cfg.phase_grid()]
    trace = synthesize_trace(states, true_mode, cfg, seed=0)
    variances = []
    for fwhm in (6e6, 12e6, 24e6, 48e6):
        probe = TemporalMode(fwhm_hz=fwhm, window_len=25)
        q = apply_temporal_mode(trace, probe)
        variances.append(float(np.mean(q * q)))
    assert variances[0] == pytest.approx(0.2, abs=0.05)
    assert variances[0] < variances[1] < variances[2] < variances[3]
    assert variances[3] < 1.0


def test_scan_from_trace_round_trip():
    cfg = ScanConfig(n_psi=32)
    mode = TemporalMode(window_len=13)
    p = StateParams(0.4, 1.1, 0.9)
    trace = synthesize_trace([p] * 32, mode, cfg, seed=8)
    scan = scan_from_trace(trace, mode, cfg)
    assert np.array_equal(scan.phases, cfg.phase_grid())
    assert np.array_equal(scan.samples, apply_temporal_mode(trace, mode, n_windows=32))


def test_trace_determinism():
    cfg = ScanConfig(n_psi=12)
    mode = TemporalMode(window_len=7)
    states = [StateParams(0.5, 1.0, 0.0)] * 12
    a = synthesize_trace(states, mode, cfg, seed=0, trial=2)
    b = synthesize_trace(states, mode, cfg, seed=0, trial=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, synthesize_trace(states, mode, cfg, seed=0, trial=3))


def _trace_reference(params_per_window, mode, cfg, seed, trial, total_len):
    """The per-window loop synthesize_trace replaced: one fresh keyed
    generator and one scalar variance per window."""
    psi = cfg.phase_grid()
    wl = mode.window_len
    need = wl * cfg.n_psi
    f = mode_weights(mode)
    out = np.empty(total_len)
    for j, theta in enumerate(params_per_window):
        rng = keyed_generator(seed, _STREAM_TRACE, trial, j)
        qv = rng.standard_normal() * math.sqrt(eval_variance(theta, float(psi[j])))
        w = rng.standard_normal(wl)
        out[j * wl : (j + 1) * wl] = f * qv + (w - f * float(f @ w))
    if total_len > need:
        tail_rng = keyed_generator(seed, _STREAM_TRACE, trial, cfg.n_psi)
        out[need:] = tail_rng.standard_normal(total_len - need)
    return out.astype(np.float32)


_state = st.builds(
    StateParams,
    st.floats(0.05, 1.0),
    st.floats(1.0, 4.0),
    st.floats(-4.0, 4.0),
)


@settings(max_examples=60)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    trial=st.integers(-(2**31), 2**40),
    n_psi=st.integers(1, 60),
    window_len=st.integers(1, 80),
    tail=st.integers(0, 40),
    rate_hz=st.sampled_from([1e8, 3e8]),
    drifting=st.booleans(),
    data=st.data(),
)
def test_trace_matches_per_window_generators(seed, trial, n_psi, window_len, tail,
                                             rate_hz, drifting, data):
    """Re-keying one Philox per window replays each window's own stream, so
    the trace is bit-identical to building a generator per window."""
    cfg = ScanConfig(n_psi=n_psi)
    mode = TemporalMode(sample_rate_hz=rate_hz, window_len=window_len)
    if drifting:
        states = data.draw(st.lists(_state, min_size=n_psi, max_size=n_psi))
    else:
        states = [data.draw(_state)] * n_psi
    total = n_psi * window_len + tail
    got = synthesize_trace(states, mode, cfg, seed=seed, trial=trial, total_len=total)
    want = _trace_reference(states, mode, cfg, seed, trial, total)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    window_len=st.integers(1, 70),
    offset=st.integers(0, 7),
    fwhm_hz=st.sampled_from([6e6, 2e7]),
)
def test_each_window_is_its_own_dot(seed, n, window_len, offset, fwhm_hz):
    """Every projected window has the bits of its own dot f @ x_j, wherever
    it sits in the call and however the trace is sliced before it."""
    mode = TemporalMode(fwhm_hz=fwhm_hz, window_len=window_len)
    x = np.random.default_rng(seed).standard_normal(offset + n * window_len + 3)[offset:]
    q = apply_temporal_mode(x, mode, n)
    f = mode_weights(mode)
    want = [f @ x[j * window_len : (j + 1) * window_len] for j in range(n)]
    assert np.array_equal(q, want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 9),
    n_psi=st.integers(3, 70),
    window_len=st.integers(1, 70),
    state=_state,
)
def test_k_scans_in_one_file_project_to_their_own_scans(tmp_path_factory, seed, k, n_psi,
                                                        window_len, state):
    """K traces written as one file and projected by one call give each
    scan's own scan_from_trace samples, bit for bit: a window's bits do
    not depend on its position in the file."""
    cfg = ScanConfig(n_psi=n_psi)
    mode = TemporalMode(window_len=window_len)
    scans = [synthesize_trace([state] * n_psi, mode, cfg, seed=seed, trial=t) for t in range(k)]
    path = tmp_path_factory.mktemp("k_scans") / "trace.dat"
    sio.write_trace(path, np.concatenate(scans), rate_hz=100_000_000)
    trace, _ = sio.read_trace(path)
    got = apply_temporal_mode(trace, mode, k * n_psi).reshape(k, n_psi)
    assert np.array_equal(got, [scan_from_trace(x, mode, cfg).samples for x in scans])


def _scan_reference(params, cfg, seed, trial):
    """The per-trial draw the block sampler replaced: a fresh keyed
    generator per scan, with the variance taken as the product of the
    truth's coefficients with the phases' own harmonics."""
    rng = keyed_generator(seed, _STREAM_SCAN, trial)
    if cfg.spacing == "random":
        psi = np.sort(rng.uniform(0.0, cfg.n * math.pi, cfg.n_psi))
    else:
        psi = cfg.phase_grid()
    coefs = variance_coefficients(*params.as_tuple())[0]
    return psi, rng.standard_normal(cfg.n_psi) * np.sqrt(np.dot(coefs, grid_harmonics(psi)))


def _dhd_reference(params, mu, seed, trial):
    gamma = state_covariance(params)
    gamma[0, 0] += 1.0
    gamma[1, 1] += 1.0
    chol = np.linalg.cholesky(gamma)
    return keyed_generator(seed, _STREAM_DHD, trial).standard_normal((mu, 2)) @ chol.T


@settings(max_examples=60)
@given(
    params=_state,
    seed=st.integers(-(2**63), 2**64 - 1),
    t0=st.integers(-(2**31), 2**40),
    sizes=st.lists(st.integers(1, 20), min_size=1, max_size=4),
    n_psi=st.integers(1, 60),
    mu=st.integers(1, 60),
    spacing=st.sampled_from(["equispaced", "random"]),
)
def test_block_rows_match_per_trial_generators(params, seed, t0, sizes, n_psi, mu, spacing):
    """Re-keying one Philox per trial replays each trial's own stream: every
    row of a scan or DHD block, and every single draw, is bit-identical to a
    draw from a generator built for that trial."""
    cfg = ScanConfig(n_psi=n_psi, spacing=spacing)
    edges = np.cumsum([t0] + sizes).tolist()
    blocks = [range(a, b) for a, b in zip(edges, edges[1:])]
    scan_rows = [
        (phases if phases.ndim == 1 else phases[i], q[i])
        for phases, _, q in sample_scan_blocks(params, cfg, seed, blocks)
        for i in range(len(q))
    ]
    dhd_rows = [qp for block in sample_dhd_blocks(params, mu, seed, blocks) for qp in block]
    trials = range(edges[0], edges[-1])
    assert len(scan_rows) == len(dhd_rows) == len(trials)
    for trial, (phases, q), qp in zip(trials, scan_rows, dhd_rows):
        psi, want = _scan_reference(params, cfg, seed, trial)
        single = sample_homodyne_scan(params, cfg, seed=seed, trial=trial)
        for got_phases, got in ((phases, q), (single.phases, single.samples)):
            assert got_phases.tobytes() == psi.tobytes() and got.tobytes() == want.tobytes()
        want = _dhd_reference(params, mu, seed, trial)
        batch = sample_dhd(params, mu, seed=seed, trial=trial)
        assert qp.tobytes() == want.tobytes()
        assert batch.q1.tobytes() == want[:, 0].tobytes()
        assert batch.p2.tobytes() == want[:, 1].tobytes()


@settings(max_examples=60)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    t0=st.integers(-(2**31), 2**40),
    sizes=st.lists(st.integers(1, 20), min_size=1, max_size=4),
    n_psi=st.integers(3, 80),
    spacing=st.sampled_from(["equispaced", "random"]),
    pool=st.lists(_state, min_size=1, max_size=8),
    shared=_state,
)
def test_block_rows_with_a_truth_per_trial(seed, t0, sizes, n_psi, spacing, pool, shared):
    """With one truth per trial, every block row is the single draw of that
    trial at its own truth, whatever the block split; identical truths
    per trial give the bytes of the shared-truth call."""
    cfg = ScanConfig(n_psi=n_psi, spacing=spacing)
    edges = np.cumsum([t0] + sizes).tolist()
    blocks = [range(a, b) for a, b in zip(edges, edges[1:])]
    trials = range(edges[0], edges[-1])
    truths = {t: pool[t % len(pool)] for t in trials}
    rows = [
        (phases if phases.ndim == 1 else phases[i], q[i])
        for phases, _, q in sample_scan_blocks(truths, cfg, seed, blocks)
        for i in range(len(q))
    ]
    assert len(rows) == len(trials)
    for trial, (phases, q) in zip(trials, rows):
        want = sample_homodyne_scan(truths[trial], cfg, seed=seed, trial=trial)
        assert phases.tobytes() == want.phases.tobytes()
        assert q.tobytes() == want.samples.tobytes()

    # a list is indexed from trial 0, so the same split is moved to start there
    from_zero = [range(b.start - t0, b.stop - t0) for b in blocks]
    per_trial = sample_scan_blocks([shared] * len(trials), cfg, seed, from_zero)
    for (p1, _, q1), (p2, _, q2) in zip(per_trial, sample_scan_blocks(shared, cfg, seed, from_zero)):
        assert p1.tobytes() == p2.tobytes() and q1.tobytes() == q2.tobytes()


# seeds and trial indices far outside int64, on both sides: a stream is keyed
# by their values modulo 2^64
_WIDE_SEED = st.one_of(st.integers(-(2**63), -1), st.integers(2**63, 2**65))
_WIDE_INDEX = st.one_of(st.integers(-(2**70), -1), st.integers(2**63 - 40, 2**64 + 40),
                        st.integers(2**64, 2**80))


@settings(max_examples=80)
@given(
    params=_state,
    seed=_WIDE_SEED,
    start=_WIDE_INDEX,
    step=st.sampled_from([1, 2, -1, -3]),
    sizes=st.lists(st.integers(0, 6), max_size=5),
    n_psi=st.integers(1, 12),
    mu=st.integers(1, 12),
    window_len=st.integers(1, 9),
    tail=st.integers(0, 9),
    spacing=st.sampled_from(SPACINGS),
)
def test_every_stream_replays_its_fresh_keyed_generator(params, seed, start, step, sizes, n_psi,
                                                        mu, window_len, tail, spacing):
    """Whatever the seed, the trial indices and their split into blocks, empty
    ones included, every scan row, DHD row, trace window and trace tail holds
    the draws of a generator built for its own stream path."""
    cfg = ScanConfig(n_psi=n_psi, spacing=spacing)
    edges = np.cumsum([0] + sizes).tolist()
    blocks = [range(start + a * step, start + b * step, step) for a, b in zip(edges, edges[1:])]
    trials = range(start, start + edges[-1] * step, step)
    scans = [(phases if phases.ndim == 1 else phases[i], q[i])
             for phases, _, q in sample_scan_blocks(params, cfg, seed, blocks)
             for i in range(len(q))]
    pairs = [qp for block in sample_dhd_blocks(params, mu, seed, blocks) for qp in block]
    assert len(scans) == len(pairs) == len(trials)
    for trial, (phases, q), qp in zip(trials, scans, pairs):
        psi, want = _scan_reference(params, cfg, seed, trial)
        assert phases.tobytes() == psi.tobytes() and q.tobytes() == want.tobytes()
        assert qp.tobytes() == _dhd_reference(params, mu, seed, trial).tobytes()

    grid = ScanConfig(n_psi=n_psi)
    mode = TemporalMode(window_len=window_len)
    total = n_psi * window_len + tail
    got = synthesize_trace([params] * n_psi, mode, grid, seed=seed, trial=start, total_len=total)
    want = _trace_reference([params] * n_psi, mode, grid, seed, start, total)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spacing", SPACINGS)
def test_an_empty_trial_range_yields_an_empty_block(spacing):
    cfg = ScanConfig(n_psi=8, spacing=spacing)
    truth = StateParams(0.5, 1.5, 0.2)
    for params in (truth, [truth] * 5):
        [(phases, harmonics, q)] = sample_scan_blocks(params, cfg, 0, [range(3, 3)])
        assert q.shape == (0, 8)
        if spacing == "random":
            assert phases.shape == (0, 8) and harmonics.shape == (0, 3, 8)
        else:
            grid = cfg.phase_grid()
            assert np.array_equal(phases, grid)
            assert np.array_equal(harmonics, grid_harmonics(grid))
    [pairs] = sample_dhd_blocks(truth, 8, 0, [range(3, 3)])
    assert pairs.shape == (0, 8, 2)


def _scan_bytes(drawn):
    return [(phases.tobytes(), q.tobytes()) for phases, _, q in drawn]


@pytest.mark.parametrize("spacing", SPACINGS)
def test_interleaved_samplers_draw_what_they_draw_alone(spacing):
    """Two sampler iterators advanced in turn each yield the bytes they
    yield alone: a call's streams share no state with another call's."""
    cfg = ScanConfig(n_psi=20, spacing=spacing)
    truth = StateParams(0.4, 1.8, 0.3)
    blocks = [range(0, 5), range(5, 6), range(6, 6), range(6, 17)]
    scan_alone = _scan_bytes(sample_scan_blocks(truth, cfg, 3, blocks))
    other_alone = _scan_bytes(sample_scan_blocks(truth, cfg, 4, blocks))
    dhd_alone = [z.tobytes() for z in sample_dhd_blocks(truth, 7, 3, blocks)]
    assert scan_alone != other_alone

    turns = list(zip(sample_scan_blocks(truth, cfg, 3, blocks),
                     sample_dhd_blocks(truth, 7, 3, blocks)))
    assert _scan_bytes(scan for scan, _ in turns) == scan_alone
    assert [z.tobytes() for _, z in turns] == dhd_alone

    turns = list(zip(sample_scan_blocks(truth, cfg, 3, blocks),
                     sample_scan_blocks(truth, cfg, 4, blocks)))
    assert _scan_bytes(a for a, _ in turns) == scan_alone
    assert _scan_bytes(b for _, b in turns) == other_alone


def test_simulated_trace_file_is_pinned(tmp_path, capsys):
    """File bytes of the default trace geometry: any change to the window
    streams or to the arithmetic on them shows here."""
    out = tmp_path / "trace.bin"
    assert main(["simulate", "--kind", "trace", "--s", "0.5", "--phi-s", "0.3",
                 "--seed", "3", "--trial", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "ae9640256fc235cc8a92658fc8148934581266aca568a1ae0fb1806061502e29"


@pytest.mark.parametrize("kind, digest", [
    ("scan", "13eedcf7cf7213d6e4721fedb3ba6e9701311c15c68b7a4632c10eebcb3f5792"),
    ("scan-random", "61cde68264d79a7de21181daaf4b1a1d364321eaf808b58b19d4bb22ed79b2bd"),
    ("dhd", "09fddc37e8fb65e285042ff7decc8ea03a74d3dfc9af567891c105e13da9064b"),
    ("dhd-axis", "e39c8ac7e5006b835f34e5da6b19326471f705a4533460f04b0c872134e7692a"),
])
def test_simulated_csv_file_is_pinned(tmp_path, capsys, kind, digest):
    """File bytes of a scan on each spacing and a DHD CSV at the default
    geometry: any change to the draws or to the repr formatting of the rows
    shows here.  The files start with the config echo, so a new RunConfig
    field changes the digests while every data row stays put.  The DHD file
    on the axis, phi_s = 0, draws from a covariance whose off-diagonal is
    -0.0, which adding the identity must keep."""
    out = tmp_path / f"{kind}.csv"
    data, _, variant = kind.partition("-")
    phi_s = "0" if variant == "axis" else "0.3"
    spacing = ["--spacing", variant] if variant == "random" else []
    assert main(["simulate", "--kind", data, "--s", "0.5", "--phi-s", phi_s,
                 "--seed", "3", "--trial", "2", "--out", str(out), *spacing]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _draw(kind: str, truth: StateParams) -> np.ndarray:
    """A DHD batch of the truth, or a 16-window trace whose last window has it."""
    if kind == "dhd":
        batch = sample_dhd(truth, mu=64, seed=1)
        return np.concatenate([batch.q1, batch.p2])
    states = [StateParams(0.5, 2.0, 0.3)] * 15 + [truth]
    return synthesize_trace(states, TemporalMode(window_len=4), ScanConfig(n_psi=16), seed=1)


@pytest.mark.parametrize("kind", ["dhd", "trace"])
def test_dhd_and_trace_samplers_reject_truths_they_cannot_draw(kind):
    """DHD pairs and traces take a truth with s > 0, kappa > 0, a finite angle
    and a largest variance kappa max(s, 1/s) of at most MAX_DRAW_VARIANCE:
    at the bound, on both sides of s = 1, the draw is finite with every
    floating-point error raised, and s = 1e-7 is drawn (no s floor).  A
    kappa or s of -1, 0, nan or inf, one float beyond the bound, s = 1e-200
    or a nan angle raises ValueError naming the rule and the truth (a trace
    its first bad window), before any nan sample or Cholesky failure."""
    assert 5e69 * 2.0 == MAX_DRAW_VARIANCE
    with np.errstate(all="raise"):
        for truth in (StateParams(0.5, 5e69, 0.3), StateParams(2.0, 5e69, 0.3),
                      StateParams(1.0, MAX_DRAW_VARIANCE, 0.3), StateParams(1e-7, 1.0, 0.3)):
            assert np.all(np.isfinite(_draw(kind, truth)))
    bad = [StateParams(0.5, kappa, 0.3) for kappa in
           (-1.0, 0.0, math.nan, math.inf, math.nextafter(5e69, math.inf))]
    bad += [StateParams(s, 2.0, 0.3) for s in (-1.0, 0.0, math.nan, math.inf, 1e-200)]
    bad.append(StateParams(0.5, 2.0, math.nan))
    rule = r"kappa max\(s, 1/s\) <= MAX_DRAW_VARIANCE = 1e\+70"
    for truth in bad:
        with pytest.raises(ValueError, match=rule) as err:
            _draw(kind, truth)
        assert f"(s={truth.s!r}, kappa={truth.kappa!r}, phi_s={truth.phi_s!r})" in str(err.value)


def test_traces_refuse_random_spacing():
    """A trace's windows carry no phases, so synthesis and projection both
    raise ValueError for a config with random spacing instead of using the
    equispaced grid."""
    mode = TemporalMode(window_len=4)
    states = [StateParams(0.5, 2.0, 0.3)] * 16
    random = ScanConfig(n_psi=16, spacing="random")
    with pytest.raises(ValueError, match="carry no phases"):
        synthesize_trace(states, mode, random, seed=0)
    trace = synthesize_trace(states, mode, ScanConfig(n_psi=16), seed=0)
    with pytest.raises(ValueError, match="carry no phases"):
        scan_from_trace(trace, mode, random)


def test_geometry_mismatches_rejected():
    cfg = ScanConfig(n_psi=16)
    mode = TemporalMode(window_len=9)
    states = [StateParams(0.5, 1.0, 0.0)] * 16
    with pytest.raises(ValueError, match="got 15 window params for a 16-window scan"):
        synthesize_trace(states[:-1], mode, cfg, seed=0)
    with pytest.raises(ValueError, match="16 windows of 9 samples need 144 > trace length 100"):
        synthesize_trace(states, mode, cfg, seed=0, total_len=100)
    trace = synthesize_trace(states, mode, cfg, seed=0)
    with pytest.raises(ValueError, match="requested 17 windows of 9 samples, trace holds 16"):
        apply_temporal_mode(trace, mode, n_windows=17)
    with pytest.raises(ValueError, match="requested 0 windows of 9 samples, trace holds 16"):
        apply_temporal_mode(trace, mode, n_windows=0)
    # a fractional size is refused, not truncated
    with pytest.raises(ValueError, match="n_windows must be an integer, got 2.5"):
        apply_temporal_mode(trace, mode, n_windows=2.5)
    with pytest.raises(ValueError, match="total_len must be an integer, got 400.7"):
        synthesize_trace(states, mode, cfg, seed=0, total_len=400.7)
