"""The four benchmark workloads, driven only through squeezelab's public API.

A workload is a sequence of rounds.  Round ``i`` of a run with benchmark
seed ``n`` draws its inputs from the package seed ``round_seed(n, i)``, so
the same seed always gives the same inputs and no two rounds of a run
share data.  A round is a list of entry calls; each call is timed on its
own and knows how many items it completes, how to validate its output and
which output values the reference check compares.

Items: a Monte-Carlo trial on the sweeps, one scan on ``track``, one data
file (simulate, then estimate) on ``file-roundtrip``.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import squeezelab
from squeezelab import cli
from squeezelab import io as sio

# The package seed of round 0 at the reference seed; the stored reference
# holds the outputs of that round.
REFERENCE_SEED = 0


def round_seed(seed: int, index: int) -> int:
    """Package seed of round ``index`` in a run with benchmark seed ``seed``."""
    return seed * 1_000_000 + index


# Each workload also sets ``trace_rounds_per_s``: the traced run replays a
# fixed number of rounds, ceil(seconds * trace_rounds_per_s), so that its
# counts repeat exactly; the rates give a traced run of about ``seconds``.


@dataclass(frozen=True)
class Call:
    """One timed entry call into the package."""

    items: int
    run: Callable[[], object]
    # number of items among ``items`` whose output is invalid
    check: Callable[[object], int]
    # output values that the reference check compares, by name; names
    # ending in ".angle" are angles modulo pi
    record: Callable[[object], dict]


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class Sweep:
    """``sweep_family`` over an s-grid, then the report CSV written to disk.

    One worker: with two, the shared second vCPU of the 2-core host the
    benchmark was defined on spread ten runs of dhd-sweep by up to 0.35
    of their median, beyond any admissible bound.
    """

    def __init__(self, name, s_values, methods, trials, workdir: Path):
        self.name = name
        self.s_values = tuple(s_values)
        self.methods = tuple(methods)
        self.trials = trials
        self.report_path = workdir / f"{name}-report.csv"
        self.trace_rounds_per_s = 0.5

    @property
    def items_per_round(self) -> int:
        return self.trials * len(self.s_values) * len(self.methods)

    def round(self, seed: int) -> list[Call]:
        def run():
            reports = squeezelab.sweep_family(
                self.s_values, self.methods, trials=self.trials, seed=seed,
                mu=900, workers=1,
            )
            sio.write_report_csv(self.report_path, reports)
            return reports

        return [Call(self.items_per_round, run, self._check, _sweep_record)]

    def _check(self, reports) -> int:
        expected = [(s, m) for s in self.s_values for m in self.methods]
        ok = (
            reports is not None
            and [(r.truth.s, r.method) for r in reports] == expected
            and all(r.trials == self.trials and _finite(*r.var_all) and min(r.var_all) > 0
                    for r in reports)
            and self.report_path.stat().st_size > 0
        )
        return 0 if ok else self.items_per_round


def _sweep_record(reports) -> dict:
    out = {}
    for r in reports:
        key = f"{r.method}@s={r.truth.s:g}"
        t = r.truth
        vals = {
            "var": r.var_all,
            "var_physical": r.var_physical,
            "ratio": r.saturation_ratio,
            "ratio_stderr": r.ratio_stderr,
            "prediction_ratio": r.prediction_ratio,
        }
        for field, triple in vals.items():
            for pname, i in (("s", 0), ("kappa", 1), ("phi", 2)):
                out[f"{key}.{field}.{pname}"] = None if triple is None else triple[i]
        out[f"{key}.mean.s"] = t.s + r.bias_all[0]
        out[f"{key}.mean.kappa"] = t.kappa + r.bias_all[1]
        out[f"{key}.bias.angle"] = r.bias_all[2]
        out[f"{key}.nonphysical_rate"] = r.nonphysical_rate
        out[f"{key}.n_physical"] = r.n_physical
    return out


class Track:
    """``track_angle`` on mean-reverting drift, then the track CSV written."""

    name = "track"

    def __init__(self, workdir: Path, s: float = 0.5, duration: float = 0.3):
        self.base = squeezelab.empirical_family(s, 0.0)
        self.drift = squeezelab.DriftModel()
        self.duration = duration
        self.items_per_round = int(duration / self.drift.step_interval)
        self.track_path = workdir / "track.csv"
        self.trace_rounds_per_s = 0.5

    def round(self, seed: int) -> list[Call]:
        def run():
            result = squeezelab.track_angle(self.drift, self.base,
                                            duration=self.duration, seed=seed)
            sio.write_track_csv(self.track_path, result)
            return result

        return [Call(self.items_per_round, run, self._check, _track_record)]

    def _check(self, result) -> int:
        if result is None or len(result.phi_est) != self.items_per_round:
            return self.items_per_round
        return sum(
            not _finite(float(p), float(s), float(k))
            for p, s, k in zip(result.phi_est, result.s_est, result.kappa_est)
        )


def _track_record(result) -> dict:
    out = {"tau_est": float(result.tau_est), "noise_floor": result.noise_floor}
    for k in range(len(result.phi_est)):
        out[f"scan{k}.angle"] = float(result.phi_est[k])
        out[f"scan{k}.s"] = float(result.s_est[k])
        out[f"scan{k}.kappa"] = float(result.kappa_est[k])
        out[f"scan{k}.half_width"] = float(result.half_width[k])
    return out


# file kind -> (simulate args, estimate args) around the file path
_FILE_KINDS = {
    "scan": (["--kind", "scan"], ["--method", "fit,mom"]),
    "dhd": (["--kind", "dhd", "--n", "900"], ["--method", "dhd"]),
    "trace": (["--kind", "trace"], ["--method", "fit,mom", "--format", "trace"]),
}
_FILE_S = (0.3, 0.5, 0.7)


class FileRoundtrip:
    """In-process ``cli.main``: simulate a data file, then estimate from it.

    One round writes one file of each kind; the squeezing parameter
    rotates with the round so each kind meets every s value.
    """

    name = "file-roundtrip"
    items_per_round = len(_FILE_KINDS)
    trace_rounds_per_s = 5.0

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def round(self, seed: int) -> list[Call]:
        calls = []
        for j, (kind, (sim_args, est_args)) in enumerate(_FILE_KINDS.items()):
            s = _FILE_S[(seed + j) % len(_FILE_S)]
            data = self.workdir / f"data-{kind}"
            out = self.workdir / f"estimate-{kind}.json"
            sim = ["simulate", *sim_args, "--s", str(s), "--phi-s", "0.3",
                   "--seed", str(seed), "--out", str(data)]
            est = ["estimate", "--input", str(data), *est_args, "--out", str(out)]
            calls.append(Call(1, _cli_roundtrip(sim, est, out), _check_estimate,
                              _prefixed_record(kind)))
        return calls


def _cli_roundtrip(sim_argv, est_argv, out_path: Path):
    def run():
        log = _stdio.StringIO()
        with contextlib.redirect_stderr(log):
            codes = (cli.main(sim_argv), cli.main(est_argv))
        if codes != (0, 0):
            raise RuntimeError(f"cli exit codes {codes}: {log.getvalue()[-500:]}")
        with open(out_path) as fh:
            return json.load(fh)["estimates"]

    return run


def _check_estimate(estimates) -> int:
    ok = estimates is not None and len(estimates) > 0 and all(
        _finite(e["s"], e["kappa"], e["phi_s"]) for e in estimates
    )
    return 0 if ok else 1


def _prefixed_record(kind: str):
    def record(estimates) -> dict:
        out = {}
        for e in estimates:
            key = f"{kind}.{e['method']}"
            out[f"{key}.angle"] = e["phi_s"]
            for name in ("s", "kappa", "squeezing_db", "squeezing_db_err", "physical",
                         "flags"):
                out[f"{key}.{name}"] = e[name]
            std = e["predicted_std"] or {}
            for name in ("s", "kappa", "phi_s"):
                out[f"{key}.predicted_std.{name}"] = std.get(name)
        return out

    return record


def make(name: str, workdir: Path):
    """The workload called ``name``, writing its files under ``workdir``."""
    if name == "scan-sweep":
        return Sweep(name, (0.21, 0.3, 0.5, 0.7), ("fit", "mom"), trials=100,
                     workdir=workdir)
    if name == "dhd-sweep":
        return Sweep(name, (0.21, 0.5, 0.9), ("dhd",), trials=1000, workdir=workdir)
    if name == "track":
        return Track(workdir)
    if name == "file-roundtrip":
        return FileRoundtrip(workdir)
    raise ValueError(f"unknown workload {name!r}")
