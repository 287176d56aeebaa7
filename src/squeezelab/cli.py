"""Command line front end.

Commands:

* bounds     theory curves (CRB, fit prediction, joint-quadrature CRB, QCRB)
* simulate   generate scan / joint-quadrature / raw trace data files
* estimate   run one estimator on a data file, print a JSON result
* benchmark  Monte Carlo saturation study, CSV report (optional JSON mirror)
* track      slow angle drift tracked scan by scan

Option precedence, lowest to highest: built-in defaults, JSON config file
(--config), the SQUEEZELAB_SEED environment variable (seed only), explicit
command line flags.  Every command echoes the resolved run configuration
as a single `config: {...}` line on stderr; file outputs embed the same
JSON in a leading `# config:` comment.  The worker count and file paths
are execution details, not run configuration, so they are not echoed;
this is what makes benchmark output byte-identical across --workers.

Exit status: 0 on success, including estimates that carry quality flags;
1 on configuration, I/O, or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

from . import io as sio
from .estimators import (
    METHOD_DHD,
    METHOD_FIT,
    METHOD_MOM,
    dhd_estimate,
    fit_estimate,
    mom_estimate,
)
from .model import StateParams
from .montecarlo import (
    POLICY_EXCLUDE,
    POLICY_INCLUDE,
    sweep_family,
    theory_curves,
    track_angle,
)
from .simulate import (
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

_METHODS = (METHOD_FIT, METHOD_MOM, METHOD_DHD)
_POLICIES = (POLICY_INCLUDE, POLICY_EXCLUDE)
_SPACINGS = ("equispaced", "random")
_DRIFT_KINDS = ("mean-reverting", "random-walk")


class ConfigError(ValueError):
    """Bad option value, config file, or option combination."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved knobs shared by the commands.

    kappa=None means the pure-state family value 1/sqrt(s) is used for
    each s.  n_samples doubles as the homodyne sample count per scan
    and the pair count per joint-quadrature batch.
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
    tol: float = 1e-6
    max_iter: int = 20
    drift_kind: str = "mean-reverting"
    correlation_time: float = 5e-3
    step_interval: float = 5e-4
    amplitude: float = 0.15
    duration: float = 0.3

    def scan_config(self) -> ScanConfig:
        return ScanConfig(n_psi=self.n_psi, n=self.phase_span, spacing=self.spacing)

    def resolve_kappa(self, s: float) -> float:
        return self.kappa if self.kappa is not None else 1.0 / math.sqrt(s)

    def state(self, s: float | None = None) -> StateParams:
        sv = self.s[0] if s is None else s
        return StateParams(sv, self.resolve_kappa(sv), self.phi_s)

    def echo_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["s"] = list(self.s)
        d["methods"] = list(self.methods)
        return d


def parse_s_values(text) -> tuple[float, ...]:
    """Accepts a float, 'a,b,c', or 'start:stop[:step]' (step 0.05)."""
    if isinstance(text, (int, float)):
        return (float(text),)
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
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
        if m not in _METHODS:
            raise ConfigError(f"unknown method {m!r}, expected one of {_METHODS}")
    return tuple(items)


_FIELD_PARSERS = {
    "seed": int,
    "s": parse_s_values,
    "kappa": lambda v: None if v is None else float(v),
    "phi_s": float,
    "n_psi": int,
    "phase_span": int,
    "spacing": str,
    "n_samples": int,
    "trials": int,
    "methods": parse_methods,
    "policy": str,
    "tol": float,
    "max_iter": int,
    "drift_kind": str,
    "correlation_time": float,
    "step_interval": float,
    "amplitude": float,
    "duration": float,
}


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
    unknown = sorted(set(raw) - set(_FIELD_PARSERS))
    if unknown:
        raise ConfigError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    return raw


def resolve_config(args) -> RunConfig:
    """Defaults, then config file, then environment seed, then CLI flags."""
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
    for name in _FIELD_PARSERS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    parsed = {}
    for name, value in values.items():
        try:
            parsed[name] = _FIELD_PARSERS[name](value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {name}: {exc}") from None
    cfg = RunConfig(**parsed)
    if getattr(args, "family", None) is not None and cfg.kappa is not None:
        raise ConfigError("--family and --kappa are mutually exclusive")
    if cfg.spacing not in _SPACINGS:
        raise ConfigError(f"spacing must be one of {_SPACINGS}")
    if cfg.policy not in _POLICIES:
        raise ConfigError(f"policy must be one of {_POLICIES}")
    if cfg.drift_kind not in _DRIFT_KINDS:
        raise ConfigError(f"drift_kind must be one of {_DRIFT_KINDS}")
    for s in cfg.s:
        if not 0.0 < s <= 1.0:
            raise ConfigError(f"s={s} outside (0, 1]")
    if cfg.kappa is not None and cfg.kappa < 1.0:
        raise ConfigError(f"kappa={cfg.kappa} below the vacuum floor 1")
    if cfg.trials < 1 or cfg.n_samples < 1:
        raise ConfigError("trials and n_samples must be positive")
    return cfg


def _echo(cfg: RunConfig) -> str:
    text = json.dumps(sio.json_ready(cfg.echo_dict()), sort_keys=True)
    print(f"config: {text}", file=sys.stderr)
    return text


def _emit_lines(lines, out) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _single_s(cfg: RunConfig, command: str) -> float:
    if len(cfg.s) != 1:
        raise ConfigError(f"{command} expects a single s value, got {len(cfg.s)}")
    return cfg.s[0]


BOUNDS_HEADER = (
    "s,kappa,phi_s,n_samples,"
    "crb_var_s,crb_var_kappa,crb_var_phi,"
    "fit_var_s,fit_var_kappa,fit_var_phi,"
    "dhd_var_s,dhd_var_kappa,dhd_var_phi,"
    "qcrb_var_s,qcrb_var_kappa,qcrb_var_phi"
)


def cmd_bounds(args) -> int:
    cfg = resolve_config(args)
    echo = _echo(cfg)
    lines = [f"# config: {echo}", BOUNDS_HEADER]
    for s in cfg.s:
        truth = cfg.state(s)
        curves = theory_curves(truth, cfg.n_samples)
        cells = [
            sio.fmt12(truth.s),
            sio.fmt12(truth.kappa),
            sio.fmt12(truth.phi_s),
            str(cfg.n_samples),
        ]
        for key in ("crb_homodyne", "fit_prediction", "crb_dhd", "crb_quantum"):
            cells.extend(sio.fmt12(v) for v in curves[key].as_tuple())
        lines.append(",".join(cells))
    _emit_lines(lines, args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    echo = _echo(cfg)
    truth = cfg.state(_single_s(cfg, "simulate"))
    if args.kind == "scan":
        if args.out is None:
            raise ConfigError("simulate --kind scan needs --out")
        scan = sample_homodyne_scan(truth, cfg.scan_config(), seed=cfg.seed, trial=args.trial)
        sio.write_scan_csv(args.out, scan, config_json=echo)
    elif args.kind == "dhd":
        if args.out is None:
            raise ConfigError("simulate --kind dhd needs --out")
        batch = sample_dhd(truth, cfg.n_samples, seed=cfg.seed, trial=args.trial)
        sio.write_dhd_csv(args.out, batch, config_json=echo)
    else:
        if args.out is None:
            raise ConfigError("simulate --kind trace needs --out")
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
    return 0


def _estimate_result_dict(res) -> dict:
    std = res.predicted_std()
    prod = res.params.kappa * res.params.s
    db = 10.0 * math.log10(prod) if prod > 0 else None
    db_err = None
    if db is not None and res.predicted_cov is not None:
        c = res.predicted_cov
        var_log = (
            c.ss / res.params.s**2
            + c.kk / res.params.kappa**2
            + 2.0 * c.sk / prod
        )
        if math.isfinite(var_log) and var_log >= 0:
            db_err = 10.0 / math.log(10.0) * math.sqrt(var_log)
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
        "prior_used": None
        if res.prior_used is None
        else {"s": res.prior_used.s, "kappa": res.prior_used.kappa, "phi_s": res.prior_used.phi_s},
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


def cmd_estimate(args) -> int:
    cfg = resolve_config(args)
    echo = _echo(cfg)
    methods = parse_methods(args.method)
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
        if any(v is not None for v in prior_bits):
            if any(v is None for v in prior_bits):
                raise ConfigError(
                    "give all of --prior-s, --prior-kappa, --prior-phi or none"
                )
            prior = StateParams(args.prior_s, args.prior_kappa, args.prior_phi)
        else:
            prior = None
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
    text = sio.dump_json(payload, path=args.out)
    if args.out is None:
        print(text)
    return 0


def cmd_benchmark(args) -> int:
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
        workers=args.workers,
    )
    lines = sio.report_csv_lines(reports, config_json=echo)
    _emit_lines(lines, args.out)
    if args.json is not None:
        payload = {
            "config": json.loads(echo),
            "reports": [sio.report_to_dict(r) for r in reports],
        }
        sio.dump_json(payload, path=args.json)
    return 0


def cmd_track(args) -> int:
    cfg = resolve_config(args)
    echo = _echo(cfg)
    truth = cfg.state(_single_s(cfg, "track"))
    model = DriftModel(
        kind=cfg.drift_kind,
        correlation_time=cfg.correlation_time,
        step_interval=cfg.step_interval,
        amplitude=cfg.amplitude,
    )
    result = track_angle(
        model,
        truth,
        scan_config=cfg.scan_config(),
        duration=cfg.duration,
        seed=cfg.seed,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )
    lines = sio.track_csv_lines(result, config_json=echo)
    _emit_lines(lines, args.out)
    print(f"tau_est_s: {sio.fmt12(result.tau_est)}", file=sys.stderr)
    return 0


def _add_state_opts(sp, multi_s: bool) -> None:
    help_s = "squeezing parameter s in (0, 1]"
    if multi_s:
        help_s += "; a value, comma list, or start:stop[:step] range"
    sp.add_argument("--s", default=None, help=help_s)
    sp.add_argument(
        "--kappa",
        type=float,
        default=None,
        help="thermal scale kappa >= 1 (default: pure family 1/sqrt(s))",
    )
    sp.add_argument(
        "--family",
        choices=("kappa-inv-sqrt-s",),
        default=None,
        help="tie kappa to s through the purity family (the default when --kappa is absent)",
    )
    sp.add_argument("--phi-s", dest="phi_s", type=float, default=None,
                    help="squeezing angle in radians")


def _add_scan_opts(sp) -> None:
    sp.add_argument("--n-psi", dest="n_psi", type=int, default=None,
                    help="phase settings per scan")
    sp.add_argument("--phase-span", dest="phase_span", type=int, default=None,
                    help="scan span in multiples of pi")
    sp.add_argument("--spacing", choices=_SPACINGS, default=None,
                    help="phase grid layout")


def _add_common_opts(sp) -> None:
    sp.add_argument("--seed", type=int, default=None, help="master RNG seed")
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_trace_opts(sp) -> None:
    sp.add_argument("--rate-hz", dest="rate_hz", type=float, default=1e8,
                    help="trace sample rate in Hz")
    sp.add_argument("--fwhm-hz", dest="fwhm_hz", type=float, default=6e6,
                    help="temporal mode bandwidth in Hz")
    sp.add_argument("--scan-duration", dest="scan_duration", type=float, default=500e-6,
                    help="wall time of one scan in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Gaussian quadrature statistics: simulate, estimate, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="tabulate variance bounds over s")
    _add_state_opts(p, multi_s=True)
    p.add_argument("--n", dest="n_samples", type=int, default=None,
                   help="sample count the bounds are scaled to")
    _add_common_opts(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="generate a data file")
    p.add_argument("--kind", choices=("scan", "dhd", "trace"), default="scan")
    _add_state_opts(p, multi_s=False)
    _add_scan_opts(p)
    p.add_argument("--n", dest="n_samples", type=int, default=None,
                   help="pair count for --kind dhd")
    p.add_argument("--trial", type=int, default=0, help="trial index in the seed stream")
    _add_trace_opts(p)
    _add_common_opts(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate (s, kappa, phi_s) from a data file")
    p.add_argument("--input", required=True, help="data file to read")
    p.add_argument("--method", required=True,
                   help="comma list from fit, mom, dhd (dhd alone)")
    p.add_argument("--format", choices=("scan", "dhd", "trace"), default=None,
                   help="input layout (default: matches the method)")
    p.add_argument("--prior-s", dest="prior_s", type=float, default=None)
    p.add_argument("--prior-kappa", dest="prior_kappa", type=float, default=None)
    p.add_argument("--prior-phi", dest="prior_phi", type=float, default=None)
    p.add_argument("--tol", type=float, default=None, help="iteration stop tolerance")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    _add_scan_opts(p)
    _add_trace_opts(p)
    _add_common_opts(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("benchmark", help="Monte Carlo variance vs bound study")
    _add_state_opts(p, multi_s=True)
    _add_scan_opts(p)
    p.add_argument("--methods", default=None, help="comma list from fit, mom, dhd")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--n", dest="n_samples", type=int, default=None,
                   help="samples per trial (scan phases or pair count)")
    p.add_argument("--policy", choices=_POLICIES, default=None,
                   help="variance over all trials or physical-only trials")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per trial and per CPU")
    p.add_argument("--json", default=None, help="also write a JSON mirror here")
    _add_common_opts(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("track", help="track a drifting squeezing angle")
    _add_state_opts(p, multi_s=False)
    _add_scan_opts(p)
    p.add_argument("--drift-kind", dest="drift_kind", choices=_DRIFT_KINDS, default=None)
    p.add_argument("--tau", dest="correlation_time", type=float, default=None,
                   help="drift correlation time in seconds")
    p.add_argument("--step", dest="step_interval", type=float, default=None,
                   help="scan repetition interval in seconds")
    p.add_argument("--amplitude", type=float, default=None,
                   help="drift amplitude in radians")
    p.add_argument("--duration", type=float, default=None,
                   help="total tracked time in seconds")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    _add_common_opts(p)
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
