"""squeezelab benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload scan-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints every end-to-end metric, with ``--trace 1``
every per-layer metric, by name and unit, then as the last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each workload runs in fresh interpreters (bench/worker.py)
that import squeezelab from ``src/`` of this checkout, with BLAS and
OpenMP pinned to one thread.  Without ``--workload`` every workload runs
in turn and the metric names carry the workload as a prefix.

Exit status: 0 when a result was printed, whatever the correctness;
2 when the checkout holds no squeezelab source; 1 when a benchmark
process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 6
# Calibration time (worker.calibration_s) on the reference host.  Timed
# metrics are reported at that speed: each raw time is multiplied by
# CAL_REF_S over the calibration measured beside it.  On a shared host
# whose speed drifts by 30% within minutes this cancels the drift, which
# moves the calibration and the workload alike.  A constant, so a change
# to the package never moves it.
CAL_REF_S = 0.020
# a workload's processes must end within 180 s
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SQUEEZELAB_SEED", None)
    return env


def run_child(argv, deadline: float) -> dict:
    """Run a worker to completion in its own process group; its last stdout line."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(argv[1:4])}: out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:4])}: exit {proc.returncode}\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail(values):
    """(value, percentile) at the highest percentile up to 99 with >= 10 samples beyond."""
    xs = sorted(values)
    n = len(xs)
    k = min(math.ceil(0.99 * n) - 1, n - 11)
    if k < 0:
        k = n - 1
    return xs[k], 100.0 * (k + 1) / n


def environment(args) -> dict:
    sha = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        top, head = git.stdout.split()
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "squeezelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "command": [Path(sys.executable).name, *sys.argv],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "held_out_seed": spec.HELD_OUT_SEED,
    }


def worker(mode, workload, args, workdir) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--workdir", str(workdir)]


def end_to_end(workload, args, workdir, deadline):
    # half the setup probes before the timed run and half after, so that
    # their median spans the run's drift in machine speed
    def probes(count):
        for _ in range(count):
            start = time.monotonic()
            probe = run_child(worker("setup", workload, args, workdir), deadline)
            setups.append((probe["ready"] - start, probe["cal_s"]))

    setups: list[tuple[float, float]] = []
    probes(SETUP_PROBES // 2)
    res = run_child(worker("run", workload, args, workdir), deadline)
    probes(SETUP_PROBES - SETUP_PROBES // 2)

    # every time scaled to the reference host speed by the calibration
    # measured beside it: CAL_REF_S / calibration time
    rounds = res["round_s"]
    scale = [CAL_REF_S / c for c in res["cal_s"]]
    lat = res["latencies_ms"]
    calls = len(lat) // len(rounds)
    lat_ref = [x * scale[j // calls] for j, x in enumerate(lat)]
    items = res["items_per_round"]
    metrics = {
        "throughput_per_s": items / statistics.median(r * k for r, k in zip(rounds, scale)),
        "latency_p50_ms": statistics.median(lat_ref),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(t * CAL_REF_S / c for t, c in setups),
    }
    p99, pct = tail(lat_ref)
    p99_raw, _ = tail(lat)
    # latency_p99_ms is printed, not gated: the tenth-slowest call swings
    # with bursts of host load shorter than a round, which the per-round
    # calibration cannot see
    notes = [
        f"latency_p99_ms {p99:.8g} ms (p{pct:.2f} of {len(lat)} latency samples)",
        f"unscaled: throughput_per_s {items / statistics.median(rounds):.8g} items/s, "
        f"latency_p50_ms {statistics.median(lat):.8g} ms, latency_p99_ms {p99_raw:.8g} ms, "
        f"setup_s {statistics.median(t for t, _ in setups):.8g} s",
        f"calibration median {statistics.median(res['cal_s']) * 1e3:.4g} ms "
        f"(reference {CAL_REF_S * 1e3:g} ms); rounds {len(rounds)} of {items} items",
    ]
    return res, metrics, notes


def per_layer(workload, args, workdir, deadline):
    res = run_child(worker("trace", workload, args, workdir), deadline)
    overhead = res["traced_s"] / res["untraced_s"] - 1.0
    notes = [f"{res['rounds']} rounds: {res['traced_s']:.3f} s traced, "
             f"{res['untraced_s']:.3f} s untraced, tracing overhead {overhead:+.1%}"]
    return res, res["metrics"], notes


def main() -> int:
    names = [w for w, _ in spec.WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names, default=None,
                   help="one workload (default: all in turn)")
    p.add_argument("--seed", type=int, default=0, help="seed the inputs are made from")
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS,
                   help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    args = p.parse_args()

    if not (ROOT / "src" / "squeezelab" / "__init__.py").is_file():
        print(f"error: no squeezelab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    declared = ([(n, u) for n, u, _b in spec.PER_LAYER] if args.trace
                else [(n, u) for n, u, _b, _bound in spec.END_TO_END])
    selected = [args.workload] if args.workload else names
    print("env: " + json.dumps(environment(args), sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in selected:
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
        try:
            measure = per_layer if args.trace else end_to_end
            res, values, notes = measure(workload, args, workdir,
                                         time.monotonic() + BUDGET_S)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload} numpy {res['numpy']}")
        for name, unit in declared:
            print(f"{workload} {name} {values[name]:.8g} {unit}")
        print(f"{workload} error_rate {res['failed'] / res['attempted']:.6g} ratio "
              f"({res['failed']} of {res['attempted']} items failed)")
        for note in notes:
            print(f"{workload} {note}")
        if res["n_reference_mismatches"]:
            print(f"{workload} reference check failed on {res['n_reference_mismatches']} "
                  f"values: {', '.join(res['reference_mismatches'])}")
        for err in res["errors"]:
            print(f"{workload} error: {err.strip().splitlines()[-1]}", file=sys.stderr)
        correct = correct and res["failed"] == 0 and not res["n_reference_mismatches"]
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = "" if args.workload else f"{workload}/"
        metrics.update({f"{prefix}{name}": {"value": values[name], "unit": unit}
                        for name, unit in declared})

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
