"""The benchmark tracer's targets exist in the package.

``bench/tracer.py`` wraps package functions by name when the benchmark
runs with ``--trace 1``; a function it names that the package no longer
has would break that run.  This reads its ``GROUPS`` table (and changes
nothing under ``bench/``) so such a deletion fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_groups() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


def test_every_traced_function_exists():
    missing = []
    for group, (module, names) in _tracer_groups().items():
        home = importlib.import_module(f"squeezelab.{module}")
        missing += [f"{group}: squeezelab.{module}.{name}" for name in names
                    if not callable(getattr(home, name, None))]
    assert not missing, f"bench/tracer.py traces functions the package lacks: {missing}"
