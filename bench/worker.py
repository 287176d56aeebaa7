"""One benchmark process for one workload; started by run.py.

Modes (first argument):

* ``setup``  import squeezelab, make the first call, print the monotonic
  clock reading when it returned and a calibration time taken after it;
* ``run``    first call plus reference check, then timed rounds until
  ``--seconds`` have passed, each after a calibration; print per-call
  latencies, per-round and calibration times, item and failure counts
  and peak RSS;
* ``trace``  first call plus reference check, then a fixed number of
  rounds, each untraced and then traced; print per-layer metrics and
  write the spans;
* ``record`` write the first call's outputs to reference.json.  The
  stored reference was made at the commit that defined this benchmark;
  re-recording it later would hide any change in the outputs.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import squeezelab

import spec
import workloads
from tracer import GROUPS, Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Relative tolerance of the reference check: far below the Monte-Carlo
# error, above float rounding, so a kernel exact to ~1e-8 passes.  Angles
# are compared modulo pi with the same tolerance in radians.
# MoM iteration counts may differ in a few trials; they are counted, not gated.
REL_TOL = 1e-6


def _same(name: str, got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        got = float(got)
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        if name.endswith(".angle"):
            d = (got - want) % math.pi
            return min(d, math.pi - d) <= REL_TOL
        return abs(got - want) <= REL_TOL * max(abs(got), abs(want))
    return got == want


_CAL_X = np.linspace(0.0, 2.0 * math.pi, 900)


def calibration_s() -> float:
    """Seconds this host takes, right now, for a fixed piece of work.

    The work is independent of squeezelab and mixes interpreter-bound
    Python with small-array numpy calls, as the package does.  Timed
    beside each round, it tracks the drift in host speed that the
    round's own time also suffers.
    """
    t0 = time.perf_counter()
    acc = 0.0
    table: dict = {}
    for k in range(500):
        u = _CAL_X - 1e-3 * k
        acc += float(np.mean(np.cos(u) * np.sin(u))) + math.sqrt(k + 1.0)
        for j in range(40):
            table[j] = table.get(j, 0.0) + acc
    return time.perf_counter() - t0


def _call(call, counts, errors):
    """Run one call; returns (seconds, output or None)."""
    t0 = time.perf_counter()
    try:
        out = call.run()
    except Exception:
        out = None
        errors.append(traceback.format_exc(limit=3))
    dt = time.perf_counter() - t0
    counts["attempted"] += call.items
    counts["failed"] += call.items if out is None else call.check(out)
    return dt, out


def reference_round(wl, counts, errors) -> list[str]:
    """Round 0 at the reference seed, checked against reference.json.

    Returns the names whose values differ; a call with any such name
    counts all its items as failed.
    """
    reference = json.loads(REFERENCE_PATH.read_text())[wl.name]
    bad, seen = [], set()
    for call in wl.round(workloads.round_seed(workloads.REFERENCE_SEED, 0)):
        _, out = _call(call, counts, errors)
        if out is None:
            continue
        recorded = _jsonable(call.record(out))
        seen.update(recorded)
        names = [n for n in recorded
                 if n not in reference or not _same(n, recorded[n], reference[n])]
        if names:
            counts["failed"] += call.items
            bad.extend(names)
    return bad + sorted(set(reference) - seen)


def _jsonable(values: dict) -> dict:
    """Values as they read back from JSON, so recorded and stored compare alike."""
    return json.loads(json.dumps(values))


def timed_rounds(wl, seed, seconds, counts, errors):
    """Rounds from index 0 until ``seconds`` have passed.

    Returns (per-call latencies ms, per-round times s, and per round the
    calibration time measured just before it, s).
    """
    latencies, round_s, cal_s = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        cal_s.append(calibration_s())
        total = 0.0
        for call in wl.round(workloads.round_seed(seed, i)):
            dt, _ = _call(call, counts, errors)
            latencies.append(dt * 1e3)
            total += dt
        round_s.append(total)
        i += 1
    return latencies, round_s, cal_s


def paired_rounds(wl, seed, rounds, counts, errors):
    """Each round run untraced, then again traced.

    Alternating the two keeps drift in machine load out of their
    difference.  Returns (tracer, untraced s, traced s).
    """
    tracer = Tracer()
    untraced = traced = 0.0
    for i in range(rounds):
        calls = wl.round(workloads.round_seed(seed, i))
        t0 = time.perf_counter()
        for call in calls:
            _call(call, counts, errors)
        untraced += time.perf_counter() - t0
        tracer.install()
        try:
            t0 = time.perf_counter()
            for j, call in enumerate(calls):
                tracer.item = f"{i}.{j}"
                _call(workloads.Call(call.items, tracer.span("bench.call", call.run),
                                     call.check, call.record), counts, errors)
            traced += time.perf_counter() - t0
        finally:
            tracer.uninstall()
    return tracer, untraced, traced


def layer_metrics(tracer: Tracer) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def group(name, field):
        return totals.get(name, {}).get(field, 0)

    out = {}
    for name, _unit, _better in spec.PER_LAYER:
        head, _, field = name.rpartition(".")
        if head in GROUPS and field in ("calls", "self_ms"):
            out[name] = group(head, field)
    for flag in spec.FLAGS:
        out[f"estimators.flag.{flag}.count"] = counts[f"flag.{flag}"]
    attempted = counts["mom.attempted"]
    out.update({
        "estimators.mom.iterations_total": counts["mom.iterations"],
        # 0 where no MoM estimate ran
        "estimators.mom.converged_ratio":
            counts["mom.converged"] / attempted if attempted else 0.0,
        "montecarlo.collect_estimates.ms": group("montecarlo.collect_estimates", "ms"),
        "io.bytes_read": counts["bytes_read"],
        "io.bytes_written": counts["bytes_written"],
        "trace.spans": len(tracer.spans),
    })
    return out


def mode_trace(wl, args, counts, errors) -> dict:
    """Per-layer metrics over a fixed number of rounds, and the tracing overhead."""
    rounds = max(2, math.ceil(args.seconds * wl.trace_rounds_per_s))
    tracer, untraced, traced = paired_rounds(wl, args.seed, rounds, counts, errors)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ms"] = (traced - untraced) * 1e3
    tracer.write_spans(Path(args.workdir).parent / f"spans-{wl.name}-seed{args.seed}.csv.gz")
    return {"rounds": rounds, "untraced_s": untraced, "traced_s": traced,
            "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run", "trace", "record"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    src = Path(squeezelab.__file__).resolve().parent.parent
    if src != HERE.parent / "src":
        print(f"error: squeezelab imported from {src}, not from this checkout",
              file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, Path(args.workdir))
    counts = {"attempted": 0, "failed": 0}
    errors: list[str] = []

    if args.mode == "setup":
        for call in wl.round(workloads.round_seed(workloads.REFERENCE_SEED, 0)):
            call.run()
        ready = time.monotonic()
        cal = sorted(calibration_s() for _ in range(3))[1]
        print(json.dumps({"ready": ready, "cal_s": cal}))
        return 0

    if args.mode == "record":
        recorded = {}
        for call in wl.round(workloads.round_seed(workloads.REFERENCE_SEED, 0)):
            recorded.update(call.record(call.run()))
        stored = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
        stored[wl.name] = _jsonable(recorded)
        REFERENCE_PATH.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
        print(json.dumps({"recorded": len(recorded)}))
        return 0

    bad = reference_round(wl, counts, errors)
    result = {"reference_mismatches": bad[:20], "n_reference_mismatches": len(bad)}
    if args.mode == "run":
        latencies, round_s, cal_s = timed_rounds(wl, args.seed, args.seconds, counts, errors)
        result.update({
            "latencies_ms": latencies,
            "round_s": round_s,
            "cal_s": cal_s,
            "items_per_round": wl.items_per_round,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
    else:
        result.update(mode_trace(wl, args, counts, errors))
    result.update(counts)
    result["errors"] = errors[:3]
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
