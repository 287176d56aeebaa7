"""The benchmark's reference check, run as a test.

Before it times anything, ``bench/worker.py`` runs each workload's first
round and compares its outputs with ``bench/reference.json`` (relative
tolerance 1e-6); a value that moved marks the run's outputs incorrect.
This runs the same check on each workload of ``bench/spec.py``, so such a
change fails here first.  It reads ``bench/`` and writes only under
``tmp_path``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
_BENCH_MODULES = ("spec", "tracer", "workloads", "worker")


def _workload_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_spec", BENCH / "spec.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [name for name, _ in module.WORKLOADS]


@pytest.fixture
def bench():
    """``bench/``'s worker and workloads modules, imported as the runner
    imports them; ``sys.path`` and ``sys.modules`` are restored after."""
    path = list(sys.path)
    saved = {name: sys.modules.pop(name, None) for name in _BENCH_MODULES}
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("worker"), importlib.import_module("workloads")
    finally:
        sys.path[:] = path
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


@pytest.mark.parametrize("name", _workload_names())
def test_workload_matches_its_reference(bench, name, tmp_path):
    worker, workloads = bench
    counts = {"attempted": 0, "failed": 0}
    errors = []
    mismatches = worker.reference_round(workloads.make(name, tmp_path), counts, errors)
    assert errors == []
    assert mismatches == []
    assert counts["attempted"] > 0 and counts["failed"] == 0, counts
