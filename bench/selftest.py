"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--seconds 2]

1. BENCHMARK.json at the repository root matches spec.py.
2. Two traced runs at the same seed give exactly the same deterministic
   counts (every ``count`` and ``bytes`` metric, the MoM converged ratio,
   the attempted and failed items) on every workload.
3. In a directory holding only BENCHMARK.json and bench/, run.py exits
   with a non-zero status and prints no result.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_manifest() -> list[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": spec.RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in spec.WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in spec.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in spec.PER_LAYER],
    }
    return [f"BENCHMARK.json {key} differs from spec.py"
            for key in sorted(set(want) | set(manifest))
            if manifest.get(key) != want.get(key)]


def traced(workload: str, seconds: int) -> dict:
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(run.stdout.strip().splitlines()[-1])


def check_counts(seconds: int) -> list[str]:
    deterministic = [n for n, u, _b in spec.PER_LAYER if u in ("count", "bytes")]
    deterministic.append("estimators.mom.converged_ratio")
    problems = []
    for workload, _why in spec.WORKLOADS:
        a, b = traced(workload, seconds), traced(workload, seconds)
        for key in ("correct", "attempted", "failed"):
            if a[key] != b[key]:
                problems.append(f"{workload}: {key} {a[key]} then {b[key]}")
        for name in deterministic:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                problems.append(f"{workload}: {name} {va} then {vb}")
        print(f"{workload}: {len(deterministic)} counts compared")
    return problems


def check_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        run = subprocess.run([sys.executable, "bench/run.py", "--workload",
                              spec.WORKLOADS[0][0], "--seconds", "1"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
    if run.returncode == 0 or '"correct"' in run.stdout:
        return ["run.py succeeded without the squeezelab source"]
    return []


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=2, help="run length of each traced run")
    args = p.parse_args()
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    problems = check_manifest() + check_bare_directory() + check_counts(args.seconds)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
