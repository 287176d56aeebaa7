"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload track --seeds 1-5

Runs bench/run.py once per seed (one after another, never in parallel)
and prints, for each metric, the median, the quartiles and their distance
as a share of the median, next to the metric's bound and a third of it.
A metric is steady when that spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w for w, _ in spec.WORKLOADS])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"),
                   help="a-b range or comma list")
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    args = p.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.5g}"
                                          for n, m in result["metrics"].items()))

    steady = True
    for name, unit, _better, bound in spec.END_TO_END:
        xs = values[name]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        ok = spread < bound / 3
        steady = steady and (ok or name == "setup_s")
        print(f"{args.workload} {name}: median {med:.6g} {unit}, quartiles "
              f"{q1:.6g}..{q3:.6g}, spread {spread:.3f} (bound {bound}, a third "
              f"{bound / 3:.3f}) {'ok' if ok else 'WIDE'}")
    print(f"{args.workload}: {'steady' if steady else 'not steady'} over {len(args.seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
