"""Statistical and structural checks for the synthetic data layer."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squeezelab import (
    ConfigMismatchError,
    DhdBatch,
    DriftModel,
    HomodyneScan,
    ScanConfig,
    StateParams,
    TemporalMode,
    apply_temporal_mode,
    default_temporal_mode,
    eval_variance,
    keyed_generator,
    mode_weights,
    sample_dhd,
    sample_homodyne_scan,
    scan_from_trace,
    simulate_phase_drift,
    state_covariance,
    synthesize_trace,
)
from squeezelab.cli import main
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
    assert scan.meta == cfg
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
    assert DhdBatch(q1=np.zeros(7), p2=np.zeros(7)).mu == 7


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
    with pytest.raises(ConfigMismatchError):
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


def test_apply_offset_shifts_windows():
    mode = TemporalMode(window_len=5)
    trace = keyed_generator(0, 99).standard_normal(40)
    shifted = apply_temporal_mode(trace, mode, n_windows=7, offset=5)
    direct = apply_temporal_mode(trace[5:], mode, n_windows=7)
    assert np.allclose(shifted, direct, atol=1e-15)


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


def _scan_reference(params, cfg, seed, trial):
    """The per-trial draw the block sampler replaced: a fresh keyed
    generator per scan."""
    rng = keyed_generator(seed, _STREAM_SCAN, trial)
    if cfg.spacing == "random":
        psi = np.sort(rng.uniform(0.0, cfg.n * math.pi, cfg.n_psi))
    else:
        psi = cfg.phase_grid()
    return psi, rng.standard_normal(cfg.n_psi) * np.sqrt(eval_variance(params, psi))


def _dhd_reference(params, mu, seed, trial):
    chol = np.linalg.cholesky(state_covariance(params).add_identity().as_array())
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
        for phases, q in sample_scan_blocks(params, cfg, seed, blocks)
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


def test_simulated_trace_file_is_pinned(tmp_path, capsys):
    """File bytes of the default trace geometry: any change to the window
    streams or to the arithmetic on them shows here."""
    out = tmp_path / "trace.bin"
    assert main(["simulate", "--kind", "trace", "--s", "0.5", "--phi-s", "0.3",
                 "--seed", "3", "--trial", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "ae9640256fc235cc8a92658fc8148934581266aca568a1ae0fb1806061502e29"


def test_geometry_mismatches_rejected():
    cfg = ScanConfig(n_psi=16)
    mode = TemporalMode(window_len=9)
    states = [StateParams(0.5, 1.0, 0.0)] * 16
    with pytest.raises(ConfigMismatchError):
        synthesize_trace(states[:-1], mode, cfg, seed=0)
    with pytest.raises(ConfigMismatchError):
        synthesize_trace(states, mode, cfg, seed=0, total_len=100)
    trace = synthesize_trace(states, mode, cfg, seed=0)
    with pytest.raises(ConfigMismatchError):
        apply_temporal_mode(trace, mode, n_windows=17)
    with pytest.raises(ConfigMismatchError):
        apply_temporal_mode(trace, mode, n_windows=0)
    for offset in (-5, -len(trace)):
        with pytest.raises(ConfigMismatchError, match="negative"):
            apply_temporal_mode(trace, mode, offset=offset)
