"""Command line front end.

Commands:

* bounds     theory curves (CRB, fit prediction, joint-quadrature CRB, QCRB)
* simulate   generate scan / joint-quadrature / raw trace data files
* estimate   run one estimator on a data file, print a JSON result
* benchmark  Monte Carlo saturation study, CSV report (optional JSON mirror)
* track      slow angle drift tracked scan by scan

Option precedence, lowest to highest: built-in defaults, the
SQUEEZELAB_SEED environment variable (seed only), JSON config file
(--config), explicit command line flags.  Every command echoes the
resolved run configuration as a single `config: {...}` line on stderr;
file outputs embed the same JSON in a leading `# config:` comment.  The worker count and file paths
are execution details, not run configuration, so they are not echoed;
this is what makes benchmark output byte-identical across --workers.

Exit status: 0 on success, including estimates that carry quality flags;
1 on configuration, I/O, or parse errors; 2 on a malformed command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import io as sio
from .estimators import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    METHOD_DHD,
    METHOD_FIT,
    METHOD_MOM,
    METHODS,
    dhd_estimate,
    fit_estimate,
    mom_estimate,
)
from .model import StateParams, empirical_family, squeezing_db, squeezing_db_error
from .montecarlo import (
    POLICIES,
    POLICY_INCLUDE,
    sweep_family,
    track_angle,
)
from .simulate import (
    DRIFT_KINDS,
    SPACINGS,
    DriftModel,
    ScanConfig,
    default_temporal_mode,
    sample_dhd,
    sample_homodyne_scan,
    scan_from_trace,
    synthesize_trace,
)

__all__ = ["RunConfig", "ConfigError", "main"]

ENV_SEED = "SQUEEZELAB_SEED"
_FILE_KINDS = ("scan", "dhd", "trace")


class ConfigError(ValueError):
    """Bad option value, config file, or option combination."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved knobs shared by the commands, each declared only here.

    A field's name is its config-file key, its annotation picks its parser,
    and ``_FLAGS`` gives its flag.  kappa=None means the pure-state family
    value 1/sqrt(s) is used for each s.  n_samples doubles as the homodyne
    sample count per scan and the pair count per joint-quadrature batch.
    """

    seed: int = 0
    s: tuple[float, ...] = (0.5,)
    kappa: float | None = None
    phi_s: float = 0.0
    n_psi: int = 900
    phase_span: int = 2
    spacing: str = "equispaced"
    n_samples: int = 900
    trials: int = 3000
    methods: tuple[str, ...] = (METHOD_FIT, METHOD_MOM)
    policy: str = POLICY_INCLUDE
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    drift_kind: str = "mean-reverting"
    correlation_time: float = 5e-3
    step_interval: float = 5e-4
    amplitude: float = 0.15
    duration: float = 0.3

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name}={value} is not finite")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter={self.max_iter} must be >= 1")
        if self.tol <= 0.0:
            raise ConfigError(f"tol={self.tol} must be > 0")
        for s in self.s:
            if not 0.0 < s <= 1.0:
                raise ConfigError(f"s={s} outside (0, 1]")
        if self.kappa is not None and self.kappa < 1.0:
            raise ConfigError(f"kappa={self.kappa} below the vacuum floor 1")
        if self.trials < 1 or self.n_samples < 1:
            raise ConfigError("trials and n_samples must be positive")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}")
        # the geometry and drift dataclasses check their own fields
        self.scan_config()
        self.drift_model()

    def scan_config(self) -> ScanConfig:
        return ScanConfig(n_psi=self.n_psi, n=self.phase_span, spacing=self.spacing)

    def drift_model(self) -> DriftModel:
        return DriftModel(kind=self.drift_kind, correlation_time=self.correlation_time,
                          step_interval=self.step_interval, amplitude=self.amplitude)

    def state(self, s: float) -> StateParams:
        if self.kappa is None:
            return empirical_family(s, self.phi_s)
        return StateParams(s, self.kappa, self.phi_s)


def parse_s_values(text) -> tuple[float, ...]:
    """Accepts a float, 'a,b,c', or 'start:stop[:step]' (step 0.05)."""
    if isinstance(text, (int, float)):
        return (_parse_float(text),)
    if isinstance(text, (list, tuple)):
        return tuple(_parse_float(v) for v in text)
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad s range {text!r}, expected start:stop[:step]")
        try:
            start, stop = float(parts[0]), float(parts[1])
            step = float(parts[2]) if len(parts) == 3 else 0.05
        except ValueError:
            raise ConfigError(f"bad s range {text!r}") from None
        if step <= 0 or stop < start:
            raise ConfigError(f"bad s range {text!r}, need stop >= start, step > 0")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + k * step for k in range(count))
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"bad s value {text!r}") from None


def parse_methods(text) -> tuple[str, ...]:
    if isinstance(text, (list, tuple)):
        items = [str(v) for v in text]
    else:
        items = [v.strip() for v in str(text).split(",") if v.strip()]
    if not items:
        raise ConfigError("empty method list")
    for m in items:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}, expected one of {METHODS}")
    return tuple(items)


def _parse_int(value) -> int:
    """Integral numbers and integer strings; JSON true/false and 2.5 are errors."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _parse_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


# keyed by annotation text (annotations are strings here); scalar flags also
# get an argparse type, so a malformed number on the command line exits 2
_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "float | None": lambda v: None if v is None else _parse_float(v),
    "str": str,
    "tuple[float, ...]": parse_s_values,
    "tuple[str, ...]": parse_methods,
}
_FLAG_TYPES = {"int": int, "float": float, "float | None": float}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}

# field -> (flag, help); the flag is --field-name but for --n, --tau, --step
_FLAGS = {
    "seed": ("--seed", "master RNG seed"),
    "s": ("--s", "squeezing parameter s in (0, 1], or a list a,b or range start:stop[:step]"),
    "kappa": ("--kappa", "thermal scale kappa >= 1 (default: pure family 1/sqrt(s))"),
    "phi_s": ("--phi-s", "squeezing angle in radians"),
    "n_psi": ("--n-psi", "phase settings per scan"),
    "phase_span": ("--phase-span", "scan span in multiples of pi"),
    "spacing": ("--spacing", "phase grid layout"),
    "n_samples": ("--n", "pairs per DHD batch, and the sample count bounds scale to"),
    "trials": ("--trials", "Monte Carlo trials per s value"),
    "methods": ("--methods", f"comma list from {', '.join(METHODS)}"),
    "policy": ("--policy", "variance over all trials or physical-only trials"),
    "tol": ("--tol", "iteration stop tolerance"),
    "max_iter": ("--max-iter", "iteration cap of the moment estimator"),
    "drift_kind": ("--drift-kind", "drift process"),
    "correlation_time": ("--tau", "drift correlation time in seconds"),
    "step_interval": ("--step", "scan repetition interval in seconds"),
    "amplitude": ("--amplitude", "drift amplitude in radians"),
    "duration": ("--duration", "total tracked time in seconds"),
}
_CHOICES = {"spacing": SPACINGS, "policy": POLICIES, "drift_kind": DRIFT_KINDS}


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    return raw


def resolve_config(args) -> RunConfig:
    """Defaults, then environment seed, then config file, then CLI flags."""
    values: dict = {}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{ENV_SEED}={env_seed!r} is not an integer") from None
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        values.update(_load_config_file(cfg_path))
    for name in _FIELD_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    parsed = {}
    for name, value in values.items():
        try:
            parsed[name] = _PARSERS[_FIELD_TYPES[name]](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {name}: {exc}") from None
    return RunConfig(**parsed)


def _echo(cfg: RunConfig) -> str:
    text = json.dumps(sio.json_ready(dataclasses.asdict(cfg)), sort_keys=True)
    print(f"config: {text}", file=sys.stderr)
    return text


def _single_s(cfg: RunConfig, command: str) -> float:
    if len(cfg.s) != 1:
        raise ConfigError(f"{command} expects a single s value, got {len(cfg.s)}")
    return cfg.s[0]


def cmd_bounds(args) -> list[str]:
    cfg = resolve_config(args)
    echo = _echo(cfg)
    truths = [cfg.state(s) for s in cfg.s]
    return sio.bounds_csv_lines(truths, cfg.n_samples, config_json=echo)


def cmd_simulate(args) -> None:
    cfg = resolve_config(args)
    echo = _echo(cfg)
    truth = cfg.state(_single_s(cfg, "simulate"))
    if args.out is None:
        raise ConfigError(f"simulate --kind {args.kind} needs --out")
    if args.kind == "scan":
        scan = sample_homodyne_scan(truth, cfg.scan_config(), seed=cfg.seed, trial=args.trial)
        sio.write_scan_csv(args.out, scan, config_json=echo)
    elif args.kind == "dhd":
        batch = sample_dhd(truth, cfg.n_samples, seed=cfg.seed, trial=args.trial)
        sio.write_dhd_csv(args.out, batch, config_json=echo)
    else:
        mode, total = default_temporal_mode(
            n_psi=cfg.n_psi,
            scan_duration=args.scan_duration,
            sample_rate_hz=args.rate_hz,
            fwhm_hz=args.fwhm_hz,
        )
        trace = synthesize_trace(
            [truth] * cfg.n_psi,
            mode,
            config=cfg.scan_config(),
            seed=cfg.seed,
            trial=args.trial,
            total_len=total,
        )
        sio.write_trace(args.out, trace, rate_hz=int(args.rate_hz))


def _estimate_result_dict(res) -> dict:
    std = res.predicted_std()
    db = squeezing_db(res.params) if res.params.kappa * res.params.s > 0 else None
    db_err = None
    if db is not None and res.predicted_cov is not None:
        db_err = squeezing_db_error(res.params, res.predicted_cov)
    return {
        "s": res.params.s,
        "kappa": res.params.kappa,
        "phi_s": res.params.phi_s,
        "squeezing_db": db,
        "squeezing_db_err": db_err,
        "method": res.method,
        "physical": res.physical,
        "iterations": res.iterations,
        "flags": sorted(res.flags),
        "prior_used": None if res.prior_used is None else dataclasses.asdict(res.prior_used),
        "predicted_std": None
        if std is None
        else {"s": std[0], "kappa": std[1], "phi_s": std[2]},
    }


def _load_scan_for_estimate(args, cfg: RunConfig, fmt: str):
    if fmt == "scan":
        return sio.read_scan_csv(args.input)
    trace, rate_hz = sio.read_trace(args.input)
    mode, _ = default_temporal_mode(
        n_psi=cfg.n_psi,
        scan_duration=args.scan_duration,
        sample_rate_hz=float(rate_hz),
        fwhm_hz=args.fwhm_hz,
    )
    return scan_from_trace(trace, mode, config=cfg.scan_config())


def cmd_estimate(args) -> list[str]:
    methods = parse_methods(args.method)
    cfg = dataclasses.replace(resolve_config(args), methods=methods)
    echo = _echo(cfg)
    fmt = args.format
    if fmt is None:
        fmt = "dhd" if methods == (METHOD_DHD,) else "scan"
    if METHOD_DHD in methods:
        if len(methods) > 1:
            raise ConfigError("dhd reads a different file layout; run it separately")
        if fmt != "dhd":
            raise ConfigError("method dhd reads --format dhd files")
    elif fmt == "dhd":
        raise ConfigError(f"methods {','.join(methods)} read scan or trace files, not dhd")

    results = []
    if methods == (METHOD_DHD,):
        batch = sio.read_dhd_csv(args.input)
        results.append(dhd_estimate(batch))
    else:
        scan = _load_scan_for_estimate(args, cfg, fmt)
        prior_bits = (args.prior_s, args.prior_kappa, args.prior_phi)
        if None in prior_bits and any(v is not None for v in prior_bits):
            raise ConfigError("give all of --prior-s, --prior-kappa, --prior-phi or none")
        prior = None if args.prior_s is None else StateParams(*prior_bits)
        for method in methods:
            if method == METHOD_FIT:
                results.append(fit_estimate(scan))
            else:
                results.append(
                    mom_estimate(scan, prior=prior, max_iter=cfg.max_iter, tol=cfg.tol)
                )

    payload = {
        "config": json.loads(echo),
        "estimates": [_estimate_result_dict(r) for r in results],
    }
    return [sio.dump_json(payload)]


def cmd_benchmark(args) -> list[str]:
    cfg = resolve_config(args)
    echo = _echo(cfg)
    reports = sweep_family(
        cfg.s,
        cfg.methods,
        trials=cfg.trials,
        seed=cfg.seed,
        scan_config=cfg.scan_config(),
        mu=cfg.n_samples,
        phi_s=cfg.phi_s,
        kappa=cfg.kappa,
        policy=cfg.policy,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        workers=args.workers,
    )
    if args.json is not None:
        payload = {
            "config": json.loads(echo),
            "reports": [sio.report_to_dict(r) for r in reports],
        }
        sio.dump_json(payload, path=args.json)
    return sio.report_csv_lines(reports, config_json=echo)


def cmd_track(args) -> list[str]:
    cfg = resolve_config(args)
    echo = _echo(cfg)
    truth = cfg.state(_single_s(cfg, "track"))
    result = track_angle(
        cfg.drift_model(),
        truth,
        scan_config=cfg.scan_config(),
        duration=cfg.duration,
        seed=cfg.seed,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )
    print(f"tau_est_s: {sio.fmt12(result.tau_est)}", file=sys.stderr)
    return sio.track_csv_lines(result, config_json=echo)


def _add_run_opts(sp, fields) -> None:
    """Flags for the given RunConfig fields, then --config and --out."""
    for name in fields:
        flag, help_text = _FLAGS[name]
        sp.add_argument(flag, dest=name, type=_FLAG_TYPES.get(_FIELD_TYPES[name]),
                        choices=_CHOICES.get(name), default=None, help=help_text)
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_trace_opts(sp) -> None:
    sp.add_argument("--rate-hz", dest="rate_hz", type=float, default=1e8,
                    help="trace sample rate in Hz")
    sp.add_argument("--fwhm-hz", dest="fwhm_hz", type=float, default=6e6,
                    help="temporal mode bandwidth in Hz")
    sp.add_argument("--scan-duration", dest="scan_duration", type=float, default=500e-6,
                    help="wall time of one scan in seconds")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Parsing leaves a parser as it was, so every ``main`` call shares this
    one instead of building all five subcommands again.
    """
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Gaussian quadrature statistics: simulate, estimate, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    state = ("s", "kappa", "phi_s")
    scan = ("n_psi", "phase_span", "spacing")

    p = sub.add_parser("bounds", help="tabulate variance bounds over s")
    _add_run_opts(p, state + ("n_samples", "seed"))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="generate a data file")
    p.add_argument("--kind", choices=_FILE_KINDS, default="scan")
    p.add_argument("--trial", type=int, default=0, help="trial index in the seed stream")
    _add_trace_opts(p)
    _add_run_opts(p, state + scan + ("n_samples", "seed"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate (s, kappa, phi_s) from a data file")
    p.add_argument("--input", required=True, help="data file to read")
    p.add_argument("--method", required=True,
                   help="comma list from fit, mom, dhd (dhd alone)")
    p.add_argument("--format", choices=_FILE_KINDS, default=None,
                   help="input layout (default: matches the method)")
    p.add_argument("--prior-s", dest="prior_s", type=float, default=None)
    p.add_argument("--prior-kappa", dest="prior_kappa", type=float, default=None)
    p.add_argument("--prior-phi", dest="prior_phi", type=float, default=None)
    _add_trace_opts(p)
    _add_run_opts(p, ("tol", "max_iter") + scan + ("seed",))
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("benchmark", help="Monte Carlo variance vs bound study")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per trial and per CPU")
    p.add_argument("--json", default=None, help="also write a JSON mirror here")
    _add_run_opts(p, state + scan + ("methods", "trials", "n_samples", "policy", "seed"))
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("track", help="track a drifting squeezing angle")
    _add_run_opts(p, state + scan + ("drift_kind", "correlation_time", "step_interval",
                                     "amplitude", "duration", "tol", "max_iter", "seed"))
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a command returns its output lines, or None when it wrote its own files
        lines = args.func(args)
        if lines is not None:
            sio.write_lines(args.out, lines)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
