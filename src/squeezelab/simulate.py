"""Synthetic data generation: scans, DHD batches, drift, raw traces.

Reproducibility contract: every draw comes from a numpy Philox
counter-based generator keyed by (master seed, mixed stream path), so a
given (inputs, seed) pair produces identical data regardless of worker
count, call order, or platform.  Stream paths: scans and DHD batches are
keyed per (seed, trial); trace synthesis per (seed, trial, window).

A Monte-Carlo sweep and a track draw their trials in blocks
(``sample_scan_blocks``, ``sample_dhd_blocks``): the per-state work (the
scan's standard deviations, the DHD Cholesky factor) is done once per call
for a shared truth, or over a block's rows for a track's truth per scan.
Each sampler call builds one Philox of its own and re-keys it for each
trial, as a trace does for each window and its tail, rather than building
a generator per trial; the keys of all its streams are mixed in one numpy
pass.  Same key, same draws: a block row equals the single draw of
``sample_homodyne_scan`` or ``sample_dhd``, which are the one-row case of
the block samplers.  An empty range of trials gives an empty block.

A scan's variance is taken on the harmonics (1, cos 2psi, sin 2psi) that
the estimators read, V = ``variance_coefficients`` times the harmonics:
one trig pass per sampler call over the equispaced grid, or per random
block over its phases, which the sampler yields for ``ScanBlock.of``.
That form rounds V at the scale of kappa max(s, 1/s), so a scan truth must
pass ``model.check_harmonic_state``, as a MoM prior must.  DHD pairs take their
covariance from ``state_covariance`` and a raw trace each window's variance
from ``quadrature_variance``; their truths must pass
``model.check_drawn_states``.  A trace's windows carry no phases, so a trace
is equispaced.  Every refusal here, a mismatched geometry too, is a ValueError.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import (
    StateParams,
    check_drawn_states,
    check_harmonic_state,
    grid_harmonics,
    quadrature_variance,
    state_covariance,
    variance_coefficients,
)

__all__ = [
    "SPACINGS",
    "DRIFT_KINDS",
    "ScanConfig",
    "HomodyneScan",
    "DhdBatch",
    "DriftModel",
    "TemporalMode",
    "keyed_generator",
    "sample_homodyne_scan",
    "sample_dhd",
    "sample_scan_blocks",
    "sample_dhd_blocks",
    "simulate_phase_drift",
    "mode_weights",
    "default_temporal_mode",
    "synthesize_trace",
    "apply_temporal_mode",
    "scan_from_trace",
]


SPACINGS = ("equispaced", "random")
DRIFT_KINDS = ("mean-reverting", "random-walk")

_MASK64 = (1 << 64) - 1

# stream domain tags keep scan, DHD and trace draws disjoint even for
# identical (seed, trial) pairs
_STREAM_SCAN = 0x5343414E
_STREAM_DHD = 0x44484400
_STREAM_TRACE = 0x54524143
_STREAM_DRIFT = 0x44524654


def _splitmix64(x):
    """splitmix64's finalizer of a Python int, or elementwise of a uint64
    array, whose arithmetic wraps modulo 2^64 (the masks then change nothing)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_path(*path: int) -> int:
    h = 0
    for p in path:
        h = _splitmix64(h ^ (int(p) & _MASK64))
    return h


def keyed_generator(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the stream identified by (seed, path)."""
    key = np.array([int(seed) & _MASK64, _mix_path(*path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _keyed_streams(seed: int, prefix: tuple, blocks: list):
    """Yield a generator at the start of the stream (seed, *prefix, j) for
    each j of the ranges in ``blocks``, in order; each is valid until the
    next is requested.

    One Philox serves the whole call and is re-keyed for every stream: its
    ``bitgen.state`` is set from one dict of Python lists holding the key
    [seed, mix(*prefix, j)] and the zero counter and empty buffer of a fresh
    Philox, which replays the draws of ``keyed_generator(seed, *prefix, j)``.
    The keys are mixed for all the streams at once, in one pass of
    ``_splitmix64`` over a uint64 array of the indices j modulo 2^64.
    """
    indices = np.array([j & _MASK64 for trials in blocks for j in trials], dtype=np.uint64)
    keys = _splitmix64(indices ^ _mix_path(*prefix)).tolist()
    rng = keyed_generator(seed)
    bitgen = rng.bit_generator
    fresh = bitgen.state
    state = {**fresh, "state": {k: v.tolist() for k, v in fresh["state"].items()},
             "buffer": fresh["buffer"].tolist()}
    key = state["state"]["key"]
    for k in keys:
        key[1] = k
        bitgen.state = state
        yield rng


def _integer(name: str, value) -> int:
    """``value`` as an int; a value that is not an integer raises ValueError naming it."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ScanConfig:
    """Phase-scan geometry: n_psi samples over [0, n*pi)."""

    n_psi: int = 900
    n: int = 2
    spacing: str = "equispaced"

    def __post_init__(self):
        # a fractional n would scan part of a period of the pi-periodic variance
        for name in ("n_psi", "n"):
            _integer(name, getattr(self, name))
        if self.n_psi < 1:
            raise ValueError(f"n_psi must be >= 1, got {self.n_psi}")
        if self.n < 1:
            raise ValueError(f"phase-range multiplier n must be >= 1, got {self.n}")
        if self.spacing not in SPACINGS:
            raise ValueError(f"spacing must be one of {SPACINGS}, got {self.spacing!r}")

    def phase_grid(self) -> np.ndarray:
        """The deterministic equispaced grid (half-open, endpoint excluded)."""
        return np.arange(self.n_psi) * (self.n * math.pi / self.n_psi)


@dataclass(frozen=True)
class HomodyneScan:
    phases: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        if len(self.phases) != len(self.samples):
            raise ValueError(
                f"phases ({len(self.phases)}) and samples ({len(self.samples)}) differ in length"
            )


@dataclass(frozen=True)
class DhdBatch:
    q1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        if len(self.q1) != len(self.p2):
            raise ValueError(
                f"q1 ({len(self.q1)}) and p2 ({len(self.p2)}) differ in length"
            )


def sample_homodyne_scan(
    params: StateParams,
    config: ScanConfig | None = None,
    seed: int = 0,
    trial: int = 0,
) -> HomodyneScan:
    """Draw one phase scan: q_j ~ N(0, V(psi_j)) independently per phase."""
    # unpacking runs the generator to its end: no suspended frame to close
    [(phases, _, q)] = sample_scan_blocks(params, config, seed, [range(trial, trial + 1)])
    return HomodyneScan(phases=phases if phases.ndim == 1 else phases[0], samples=q[0])


def _scan_coefficients(truth: StateParams) -> tuple:
    """The ``variance_coefficients`` of a truth that ``check_harmonic_state`` accepts."""
    check_harmonic_state(*truth.as_tuple(), "truth")
    return variance_coefficients(*truth.as_tuple())[0]


def sample_scan_blocks(params, config: ScanConfig | None, seed: int, blocks):
    """Yield (phases, harmonics, samples) for each range of trials in ``blocks``;
    an empty range gives an empty block, (0, N) samples.

    ``params`` is one StateParams shared by every trial, or one truth per
    trial, looked up as ``params[trial]``.  ``samples`` has one row per
    trial, drawn from that trial's stream exactly as a separate
    ``sample_homodyne_scan`` call would draw it.  For equispaced scans
    ``phases`` is the config's ``phase_grid()`` (N,) and ``harmonics`` its
    rows (1, cos 2psi, sin 2psi), (3, N), both computed once per call and
    shared by every block; with random spacing ``phases`` (B, N) has one
    row per trial, drawn first from the trial's stream, and ``harmonics``
    (B, 3, N) are one ``grid_harmonics`` call over them.  Either is handed
    on to ``ScanBlock.of``.

    Each sample's variance is the product of its truth's
    ``variance_coefficients`` with the harmonics: computed once per call
    for a shared truth on the grid, else as one stacked product per block,
    which gives each row the bits of that product on its own.  A truth
    that ``model.check_harmonic_state`` refuses raises ValueError.
    """
    cfg = config or ScanConfig()
    random = cfg.spacing == "random"
    shared = isinstance(params, StateParams)
    coefs = _scan_coefficients(params) if shared else None
    # one equispaced grid and its harmonics serve every block of the call
    grid = None if random else cfg.phase_grid()
    grid_rows = None if random else grid_harmonics(grid)
    sigma = np.sqrt(np.dot(coefs, grid_rows)) if shared and not random else None
    blocks = list(blocks)
    streams = _keyed_streams(seed, (_STREAM_SCAN,), blocks)
    for trials in blocks:
        q = np.empty((len(trials), cfg.n_psi))
        phases = np.empty_like(q) if random else grid
        for i, rng in enumerate(itertools.islice(streams, len(trials))):
            if random:
                # the phases come first in the trial's stream, then the samples
                phases[i] = np.sort(rng.uniform(0.0, cfg.n * math.pi, cfg.n_psi))
            rng.standard_normal(out=q[i])
        harmonics = grid_harmonics(phases) if random else grid_rows
        if sigma is not None:
            q *= sigma
        else:
            rows = [coefs] * len(trials) if shared else [_scan_coefficients(params[t])
                                                          for t in trials]
            # (B, 1, 3) @ (3, N) or (B, 3, N): each item is the vector-matrix
            # product np.dot forms for one row, with the same bits
            v = np.matmul(np.array(rows).reshape(-1, 1, 3), harmonics)
            q *= np.sqrt(v, out=v)[:, 0]
        yield phases, harmonics, q


def sample_dhd(
    params: StateParams,
    mu: int,
    seed: int = 0,
    trial: int = 0,
) -> DhdBatch:
    """Draw mu (q1, p2) pairs with covariance Gamma_theta + I."""
    [block] = sample_dhd_blocks(params, mu, seed, [range(trial, trial + 1)])
    return DhdBatch(q1=block[0, :, 0], p2=block[0, :, 1])


def sample_dhd_blocks(params: StateParams, mu: int, seed: int, blocks):
    """Yield a (len(trials), mu, 2) array of (q1, p2) pairs for each range
    of trials in ``blocks``; row i is trial i's ``sample_dhd`` batch, and an
    empty range gives a (0, mu, 2) block.

    The Cholesky factor of Gamma_theta + I is computed once per call.  A
    truth that ``model.check_drawn_states`` refuses raises ValueError.
    """
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    check_drawn_states(params.s, params.kappa, params.phi_s)
    # the identity goes on the diagonal only, so that the -0.0 off-diagonal
    # of a state at phi_s = 0 stays -0.0
    gamma = state_covariance(params)
    gamma[[0, 1], [0, 1]] += 1.0
    chol_t = np.linalg.cholesky(gamma).T
    if mu > 1:
        # in C order z @ chol_t takes a path about 3x faster, with the same
        # bits; a single pair is multiplied as a vector, whose bits depend
        # on the factor's memory order, so it keeps the transposed view
        chol_t = np.ascontiguousarray(chol_t)
    blocks = list(blocks)
    streams = _keyed_streams(seed, (_STREAM_DHD,), blocks)
    for trials in blocks:
        z = np.empty((len(trials), mu, 2))
        for i, rng in enumerate(itertools.islice(streams, len(trials))):
            rng.standard_normal(out=z[i])
        yield z @ chol_t


@dataclass(frozen=True)
class DriftModel:
    """Phase-drift process for phi_s between scans.

    mean-reverting: stationary AR(1) with autocorrelation exp(-dt/tau)
    and stationary std = amplitude.  random-walk: increments of std
    amplitude*sqrt(dt/tau) per step.
    """

    kind: str = "mean-reverting"
    correlation_time: float = 5e-3
    step_interval: float = 5e-4
    amplitude: float = 0.15

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"drift kind must be one of {DRIFT_KINDS}, got {self.kind!r}")
        for name in ("correlation_time", "step_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name}={value} must be finite and > 0")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude={self.amplitude} must be finite")


def simulate_phase_drift(model: DriftModel, duration: float, seed: int = 0) -> np.ndarray:
    """Angle offset trajectory sampled once per step_interval.

    Returns floor(duration / step_interval) offsets around 0.  The
    mean-reverting kind starts in its stationary distribution; the
    random walk starts at 0.  A duration that is not finite and > 0, or
    shorter than one step_interval, raises ValueError before the draw.
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    n = int(duration / model.step_interval)
    if n < 1:
        raise ValueError("duration shorter than one step_interval")
    rng = keyed_generator(seed, _STREAM_DRIFT, 0)
    z = rng.standard_normal(n)
    out = np.empty(n)
    if model.amplitude == 0.0:
        out.fill(0.0)
        return out
    if model.kind == "random-walk":
        step = model.amplitude * math.sqrt(model.step_interval / model.correlation_time)
        out[0] = 0.0
        np.cumsum(step * z[1:], out=out[1:])
        return out
    rho = math.exp(-model.step_interval / model.correlation_time)
    innov = model.amplitude * math.sqrt(1.0 - rho * rho)
    # the recurrence over Python floats: the same IEEE arithmetic, without
    # a numpy scalar per index
    zs = z.tolist()
    x = model.amplitude * zs[0]
    path = [x]
    for zk in zs[1:]:
        x = rho * x + innov * zk
        path.append(x)
    out[:] = path
    return out


@dataclass(frozen=True)
class TemporalMode:
    """Double-exponential temporal mode on windows of window_len samples, an integer >= 1.

    Time profile exp(-|t|/tau_m) with tau_m = 1/(pi*fwhm) (Lorentzian
    spectral width), truncated at +-5 tau_m and normalized to unit energy
    on the window so vacuum maps to unit variance.
    """

    fwhm_hz: float = 6e6
    sample_rate_hz: float = 1e8
    window_len: int = 55

    def __post_init__(self):
        for name in ("fwhm_hz", "sample_rate_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name}={value} must be finite and > 0")
        _integer("window_len", self.window_len)
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")


def mode_weights(mode: TemporalMode) -> np.ndarray:
    """Unit-energy filter taps for one window, centered on the window."""
    idx = np.arange(mode.window_len, dtype=float)
    t = (idx - 0.5 * (mode.window_len - 1)) / mode.sample_rate_hz
    tau_m = 1.0 / (math.pi * mode.fwhm_hz)
    f = np.exp(-np.abs(t) / tau_m)
    f[np.abs(t) > 5.0 * tau_m] = 0.0
    return f / math.sqrt(float(np.sum(f * f)))


def default_temporal_mode(
    n_psi: int = ScanConfig.n_psi,
    scan_duration: float = 500e-6,
    sample_rate_hz: float = TemporalMode.sample_rate_hz,
    fwhm_hz: float = TemporalMode.fwhm_hz,
) -> tuple[TemporalMode, int]:
    """Experiment-shaped geometry: returns (mode, total trace length).

    window_len = floor(total / n_psi); the remainder at the trace end is
    dead time and gets discarded by the analysis.
    """
    samples = scan_duration * sample_rate_hz
    if not math.isfinite(samples):
        raise ValueError(f"scan_duration={scan_duration} at sample_rate_hz={sample_rate_hz} "
                         "gives no finite trace length")
    total = int(round(samples))
    wl = total // n_psi
    if wl < 1:
        raise ValueError(f"scan_duration={scan_duration} at sample_rate_hz={sample_rate_hz} "
                         f"gives a trace of {total} samples, too short for n_psi={n_psi} windows")
    mode = TemporalMode(fwhm_hz=fwhm_hz, sample_rate_hz=sample_rate_hz, window_len=wl)
    return mode, total


def synthesize_trace(
    params_per_window,
    mode: TemporalMode,
    config: ScanConfig | None = None,
    seed: int = 0,
    trial: int = 0,
    total_len: int | None = None,
) -> np.ndarray:
    """Raw float32 sample stream whose windowed mode projection is a scan.

    Per window: draw the target quadrature q ~ N(0, V(psi_j, theta_j)),
    then emit x = f*q + (w - f (f.w)) with white unit-variance w, so the
    mode direction carries exactly q and the orthogonal complement stays
    at vacuum.  Tail samples beyond the windows are plain vacuum noise.

    Window j draws q then w from the stream ``keyed_generator(seed,
    _STREAM_TRACE, trial, j)``, and the tail from window index n_psi.  The
    windows and the tail share one Philox that is re-keyed per stream, and the
    arithmetic runs on the (n_psi, window_len) block, with f.w from
    ``apply_temporal_mode``: the bits of a loop over per-window generators.  A
    random spacing, a non-integer total_len, or a window's truth that
    ``model.check_drawn_states`` refuses, raises ValueError.
    """
    cfg = config or ScanConfig()
    grid = _trace_grid(cfg)
    params_list = list(params_per_window)
    if len(params_list) != cfg.n_psi:
        raise ValueError(f"got {len(params_list)} window params for a {cfg.n_psi}-window scan")
    wl = mode.window_len
    need = wl * cfg.n_psi
    total = need if total_len is None else _integer("total_len", total_len)
    if need > total:
        raise ValueError(f"{cfg.n_psi} windows of {wl} samples need {need} > trace length {total}")
    f = mode_weights(mode)
    states = (np.array([p.s for p in params_list]),
              np.array([p.kappa for p in params_list]),
              np.array([p.phi_s for p in params_list]))
    check_drawn_states(*states)
    sigma = np.sqrt(quadrature_variance(*states, grid))
    z = np.empty((cfg.n_psi, wl + 1))
    # windows 0 .. n_psi - 1, then the tail's stream n_psi
    streams = _keyed_streams(seed, (_STREAM_TRACE, trial), [range(cfg.n_psi + 1)])
    for j, rng in enumerate(itertools.islice(streams, cfg.n_psi)):
        rng.standard_normal(out=z[j])
    w = z[:, 1:]
    fw = apply_temporal_mode(w.reshape(-1), mode)
    # f*q + (w - f (f.w)), formed in place over w (addition commutes bit for bit)
    w -= f * fw[:, None]
    w += f * (z[:, :1] * sigma[:, None])
    out = np.empty(total, dtype=np.float32)
    out[:need].reshape(cfg.n_psi, wl)[:] = w
    if total > need:
        out[need:] = next(streams).standard_normal(total - need)
    return out


def apply_temporal_mode(
    trace,
    mode: TemporalMode,
    n_windows: int | None = None,
) -> np.ndarray:
    """Project consecutive windows of the trace onto the mode function; the
    one projection, which ``synthesize_trace`` and ``scan_from_trace`` use.

    q_j = sum_t f(t) x(j*window_len + t), with the bits of f @ x_j wherever
    window j sits, so K scans in one trace project in one call to their
    per-scan arrays.  The first window starts at the first sample.  Window
    count defaults to all complete windows; a non-integer one raises ValueError.
    """
    x = np.asarray(trace, dtype=float)
    wl = mode.window_len
    avail = x.size // wl
    n = avail if n_windows is None else _integer("n_windows", n_windows)
    if n < 1 or n > avail:
        raise ValueError(f"requested {n} windows of {wl} samples, trace holds {avail}")
    # a stack of (1, wl) @ (wl, 1) products runs each item through the dot
    # kernel of f @ x_j; one matrix-vector product would sum the windows in
    # blocks, so that a window's last bits changed with its position
    f = mode_weights(mode)
    return np.matmul(f[None, None, :], x[: n * wl].reshape(n, wl, 1))[:, 0, 0]


def _trace_grid(cfg: ScanConfig) -> np.ndarray:
    """The phases of a trace's windows: the config's equispaced grid.  A
    trace records no phases, so a config with random spacing raises ValueError."""
    if cfg.spacing != "equispaced":
        raise ValueError(f"a trace's windows carry no phases, so a trace is equispaced; "
                         f"got spacing={cfg.spacing!r}")
    return cfg.phase_grid()


def scan_from_trace(trace, mode: TemporalMode, config: ScanConfig | None = None) -> HomodyneScan:
    """Windowed mode projection packaged with the scan's phase grid; a
    config with random spacing raises ValueError."""
    cfg = config or ScanConfig()
    grid = _trace_grid(cfg)
    samples = apply_temporal_mode(trace, mode, n_windows=cfg.n_psi)
    return HomodyneScan(phases=grid, samples=samples)
