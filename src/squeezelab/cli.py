"""Command line front end.

Commands:

* bounds     theory curves (CRB, fit prediction, joint-quadrature CRB, QCRB)
* simulate   generate scan / joint-quadrature / raw trace data files
* estimate   run one estimator on a data file, print a JSON result
* benchmark  Monte Carlo saturation study, CSV report (optional JSON mirror)
* track      slow angle drift tracked scan by scan

Every run setting, the trace geometry, the trial index and the MoM prior
among them, is a ``RunConfig`` field that declares its own flag, help text,
choices and sign; any rule the library states is checked by calling the
library.  ``main`` resolves the config once and hands it, with its echo,
to the command.  Option precedence, lowest to highest: built-in defaults,
JSON config file (--config), explicit command line flags; the environment
sets none.  Every command echoes the resolved run configuration, floats at
full precision, as a single `config: {...}` line on stderr; file outputs
embed the same JSON in a leading `# config:` comment.  `estimate`'s --method
sets the ``methods`` field and is echoed as it.  The options --config,
--out, --input, --format, --kind, --workers and --json are execution
details, not run configuration, so they are not echoed; this is what makes
benchmark output byte-identical across --workers.  `estimate` reads a
trace's sample rate from the file header, not from ``rate_hz``, and records
it in its JSON as ``trace_rate_hz``.  A negative number, exponent or not,
may follow its flag after a space.

Exit status: 0 on success, including estimates that carry quality flags;
1, with an ``error:`` line, on refused input (a flag, a config file or data:
every refusal is a ValueError) or an I/O error; 2 on a malformed command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
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
    ScanBlock,
    _check_min_samples,
    dhd_estimate,
    fit_estimate,
    mom_estimate,
)
from .model import StateParams, empirical_family, squeezing_db, squeezing_db_error
from .montecarlo import (
    POLICIES,
    POLICY_INCLUDE,
    _check_report,
    sweep_family,
    track_angle,
)
from .simulate import (
    DRIFT_KINDS,
    SPACINGS,
    DriftModel,
    ScanConfig,
    TemporalMode,
    default_temporal_mode,
    sample_dhd,
    sample_homodyne_scan,
    scan_from_trace,
    synthesize_trace,
)

__all__ = ["RunConfig", "main"]

_FILE_KINDS = ("scan", "dhd", "trace")


def _setting(default, help_text, *, flag=None, choices=None, positive=False):
    """A RunConfig field and its command line option: help text, flag (when
    it is not --field-name), choices, and whether a set value must be > 0."""
    return dataclasses.field(default=default, metadata={
        "help": help_text, "flag": flag, "choices": choices, "positive": positive})


@dataclass(frozen=True)
class RunConfig:
    """Resolved knobs shared by the commands, each declared only here.

    A field's name is its config-file key, its annotation picks its parser,
    and its ``_setting`` metadata give its flag, help text and choices, and
    whether a set value must be > 0; ``__post_init__`` checks the sign and
    finiteness and calls the library's check of each other rule.  kappa=None
    means the pure-state family value 1/sqrt(s) is used for each s.
    n_samples doubles as the homodyne sample count per scan and the pair
    count per joint-quadrature batch.  The prior_* triple is all None (MoM
    starts from the fit) or all set.
    """

    seed: int = _setting(0, "master RNG seed")
    s: tuple[float, ...] = _setting(
        (0.5,), "squeezing parameter s in (0, 1], or a list a,b or range start:stop[:step]")
    kappa: float | None = _setting(
        None, "thermal scale kappa >= 1 (default: pure family 1/sqrt(s))")
    phi_s: float = _setting(0.0, "squeezing angle in radians")
    n_psi: int = _setting(ScanConfig.n_psi, "phase settings per scan")
    phase_span: int = _setting(ScanConfig.n, "scan span in multiples of pi")
    spacing: str = _setting(ScanConfig.spacing, "phase grid layout", choices=SPACINGS)
    n_samples: int = _setting(900, "pairs per DHD batch, and the sample count bounds scale to",
                              flag="--n", positive=True)
    trials: int = _setting(3000, "Monte Carlo trials per s value")
    methods: tuple[str, ...] = _setting((METHOD_FIT, METHOD_MOM),
                                        f"comma list from {', '.join(METHODS)}")
    policy: str = _setting(POLICY_INCLUDE, "variance over all trials or physical-only trials",
                           choices=POLICIES)
    tol: float = _setting(DEFAULT_TOL, "iteration stop tolerance", positive=True)
    max_iter: int = _setting(DEFAULT_MAX_ITER, "iteration cap of the moment estimator",
                             positive=True)
    drift_kind: str = _setting(DriftModel.kind, "drift process", choices=DRIFT_KINDS)
    correlation_time: float = _setting(DriftModel.correlation_time,
                                      "drift correlation time in seconds", flag="--tau")
    step_interval: float = _setting(DriftModel.step_interval,
                                   "scan repetition interval in seconds", flag="--step")
    amplitude: float = _setting(DriftModel.amplitude, "drift amplitude in radians")
    duration: float = _setting(0.3, "total tracked time in seconds", positive=True)
    trial: int = _setting(0, "trial index in the seed stream")
    rate_hz: float = _setting(TemporalMode.sample_rate_hz,
                              "trace sample rate in Hz, a whole number")
    fwhm_hz: float = _setting(TemporalMode.fwhm_hz, "temporal mode bandwidth in Hz", positive=True)
    scan_duration: float = _setting(500e-6, "wall time of one scan in seconds", positive=True)
    prior_s: float | None = _setting(
        None, "MoM starting s; give all three --prior-* or none", positive=True)
    prior_kappa: float | None = _setting(None, "MoM starting kappa", positive=True)
    prior_phi: float | None = _setting(None, "MoM starting angle in radians")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name}={value} is not finite")
            if f.metadata["positive"] and value is not None and value <= 0:
                raise ValueError(f"{f.name}={value} must be > 0")
        if not self.s:
            raise ValueError("empty s list")
        for s in self.s:
            if not 0.0 < s <= 1.0:
                raise ValueError(f"s={s} outside (0, 1]")
        _check_report(self.trials, self.policy)
        if self.kappa is not None and self.kappa < 1.0:
            raise ValueError(f"kappa={self.kappa} below the vacuum floor 1")
        sio._check_rate(self.rate_hz)
        if (self.prior_s, self.prior_kappa, self.prior_phi).count(None) in (1, 2):
            raise ValueError("give all of --prior-s, --prior-kappa, --prior-phi or none")
        # the geometry and drift dataclasses check their own fields
        self.scan_config()
        self.drift_model()

    def scan_config(self) -> ScanConfig:
        return ScanConfig(n_psi=self.n_psi, n=self.phase_span, spacing=self.spacing)

    def drift_model(self) -> DriftModel:
        return DriftModel(kind=self.drift_kind, correlation_time=self.correlation_time,
                          step_interval=self.step_interval, amplitude=self.amplitude)

    def temporal_mode(self) -> tuple[TemporalMode, int]:
        return default_temporal_mode(self.n_psi, self.scan_duration, self.rate_hz, self.fwhm_hz)

    def state(self, s: float) -> StateParams:
        if self.kappa is None:
            return empirical_family(s, self.phi_s)
        return StateParams(s, self.kappa, self.phi_s)

    def prior(self) -> StateParams | None:
        if self.prior_s is None:
            return None
        return StateParams(self.prior_s, self.prior_kappa, self.prior_phi)


def parse_s_values(text) -> tuple[float, ...]:
    """Accepts a number, a list, 'a,b,c', or 'start:stop[:step]' (step 0.05).

    A range is counted and stepped in exact decimal arithmetic, each value
    rounded to a float once, so it lands on the decimals it names:
    '0.1:1.0:0.3' gives (0.1, 0.4, 0.7, 1.0)."""
    if isinstance(text, (int, float)):
        return (_parse_float(text),)
    if isinstance(text, (list, tuple)):
        return tuple(_parse_float(v) for v in text)
    if not isinstance(text, str):
        raise ValueError(f"bad s value {text!r}")
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad s range {text!r}, expected start:stop[:step]")
        # imported here: only a range needs it, and every import of the cli pays for it
        from decimal import Decimal, InvalidOperation

        try:
            start, stop, step = (Decimal(v) for v in (*parts, "0.05")[:3])
            if not (start.is_finite() and stop.is_finite() and step.is_finite()):
                raise ValueError(f"bad s range {text!r}, need finite parts")
            if step <= 0 or stop < start:
                raise ValueError(f"bad s range {text!r}, need stop >= start, step > 0")
            # exact: a count too large for the decimal precision is refused
            count = int((stop - start) // step) + 1
        except InvalidOperation:
            raise ValueError(f"bad s range {text!r}") from None
        return tuple(float(start + k * step) for k in range(count))
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"bad s value {text!r}") from None


def parse_methods(text) -> tuple[str, ...]:
    if isinstance(text, (list, tuple)):
        items = [str(v) for v in text]
    else:
        items = [v.strip() for v in str(text).split(",") if v.strip()]
    if not items:
        raise ValueError("empty method list")
    for k, m in enumerate(items):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}, expected one of {METHODS}")
        if m in items[:k]:
            raise ValueError(f"method {m!r} is listed twice")
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

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    return raw


def resolve_config(args) -> RunConfig:
    """Defaults, then config file, then CLI flags."""
    values: dict = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        values.update(_load_config_file(cfg_path))
    flags = dict(vars(args))
    if "method" in flags:  # estimate's --method is the methods it runs
        flags["methods"] = flags.pop("method")
    values.update((name, flags[name]) for name in _FIELDS if flags.get(name) is not None)
    parsed = {}
    for name, value in values.items():
        try:
            parsed[name] = _PARSERS[_FIELDS[name].type](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for {name}: {exc}") from None
    return RunConfig(**parsed)


def _echo(cfg: RunConfig) -> str:
    """The config as one JSON line on stderr, floats at full precision so
    that the line alone reproduces the run."""
    text = json.dumps({f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
                      sort_keys=True)
    print(f"config: {text}", file=sys.stderr)
    return text


def _single_s(cfg: RunConfig, command: str) -> float:
    if len(cfg.s) != 1:
        raise ValueError(f"{command} expects a single s value, got {len(cfg.s)}")
    return cfg.s[0]


def cmd_bounds(args, cfg: RunConfig, echo: str) -> list[str]:
    truths = [cfg.state(s) for s in cfg.s]
    return sio.bounds_csv_lines(truths, cfg.n_samples, config_json=echo)


def cmd_simulate(args, cfg: RunConfig, echo: str) -> None:
    truth = cfg.state(_single_s(cfg, "simulate"))
    if args.out is None:
        raise ValueError(f"simulate --kind {args.kind} needs --out")
    # refused before the draw, as estimate would refuse the file
    if args.kind == "dhd":
        _check_min_samples(cfg.n_samples, "n_samples", dhd=True)
    else:
        _check_min_samples(cfg.n_psi, "n_psi")
    if args.kind == "scan":
        scan = sample_homodyne_scan(truth, cfg.scan_config(), seed=cfg.seed, trial=cfg.trial)
        sio.write_scan_csv(args.out, scan, config_json=echo)
    elif args.kind == "dhd":
        batch = sample_dhd(truth, cfg.n_samples, seed=cfg.seed, trial=cfg.trial)
        sio.write_dhd_csv(args.out, batch, config_json=echo)
    else:
        mode, total = cfg.temporal_mode()
        trace = synthesize_trace([truth] * cfg.n_psi, mode, config=cfg.scan_config(),
                                 seed=cfg.seed, trial=cfg.trial, total_len=total)
        sio.write_trace(args.out, trace, rate_hz=cfg.rate_hz)


def _estimate_result_dict(res) -> dict:
    std = res.predicted_std()
    db = squeezing_db(res.params) if res.params.kappa * res.params.s > 0 else None
    db_err = None
    if db is not None and res.predicted_cov is not None:
        db_err = squeezing_db_error(res.params, res.predicted_cov)
    return sio.json_ready({
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
    })


def cmd_estimate(args, cfg: RunConfig, echo: str) -> list[str]:
    methods = cfg.methods
    fmt = args.format
    if fmt is None:
        fmt = "dhd" if methods == (METHOD_DHD,) else "scan"
    if METHOD_DHD in methods:
        if len(methods) > 1:
            raise ValueError("dhd reads a different file layout; run it separately")
        if fmt != "dhd":
            raise ValueError("method dhd reads --format dhd files")
    elif fmt == "dhd":
        raise ValueError(f"methods {','.join(methods)} read scan or trace files, not dhd")

    payload = {"config": json.loads(echo)}
    if methods == (METHOD_DHD,):
        results = [dhd_estimate(sio.read_dhd_csv(args.input))]
    else:
        if fmt == "scan":
            scan = sio.read_scan_csv(args.input)
        else:
            trace, rate = sio.read_trace(args.input)
            # RunConfig.temporal_mode's geometry at the header's rate, not rate_hz
            mode = default_temporal_mode(cfg.n_psi, cfg.scan_duration, float(rate), cfg.fwhm_hz)[0]
            scan = scan_from_trace(trace, mode, config=cfg.scan_config())
            payload["trace_rate_hz"] = rate
        prior = cfg.prior()
        # the scan is prepared once for every method
        block = ScanBlock.of(scan.phases, scan.samples)
        results = [fit_estimate(block) if method == METHOD_FIT else
                   mom_estimate(block, prior=prior, max_iter=cfg.max_iter, tol=cfg.tol)
                   for method in methods]

    payload["estimates"] = [_estimate_result_dict(r) for r in results]
    return [sio.dump_json(payload)]


def cmd_benchmark(args, cfg: RunConfig, echo: str) -> list[str]:
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


def cmd_track(args, cfg: RunConfig, echo: str) -> list[str]:
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
        f = _FIELDS[name]
        sp.add_argument(f.metadata["flag"] or "--" + name.replace("_", "-"), dest=name,
                        type=_FLAG_TYPES.get(f.type), choices=f.metadata["choices"],
                        default=None, help=f.metadata["help"])
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")


# argparse reads "-1e-3" as an option because its own negative-number pattern
# admits no exponent; with this one "--phi-s -1e-3" passes the value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


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
    trace = ("fwhm_hz", "scan_duration")

    p = sub.add_parser("bounds", help="tabulate variance bounds over s")
    _add_run_opts(p, state + ("n_samples",))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="generate a data file")
    p.add_argument("--kind", choices=_FILE_KINDS, default="scan")
    _add_run_opts(p, state + scan + trace + ("rate_hz", "trial", "n_samples", "seed"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate (s, kappa, phi_s) from a data file")
    p.add_argument("--input", required=True, help="data file to read")
    p.add_argument("--method", required=True,
                   help="comma list from fit, mom, dhd (dhd alone)")
    p.add_argument("--format", choices=_FILE_KINDS, default=None,
                   help="input layout (default: matches the method)")
    _add_run_opts(p, ("tol", "max_iter", "prior_s", "prior_kappa", "prior_phi")
                  + scan + trace)
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

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        # a command returns its output lines, or None when it wrote its own files
        lines = args.func(args, cfg, _echo(cfg))
        if lines is not None:
            sio.write_lines(args.out, lines)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
