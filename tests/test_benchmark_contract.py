"""The traced benchmark run needs these public functions by name.

``perfbench/tracer.py`` lists every function a per-layer metric is made of
(``REQUIRED``) and the spans each benchmarked workload must produce
(``EXPECTED_SPANS``); a rename stops ``perfbench/run.py --trace 1``.  The
lists are read from the tracer itself, so they cannot drift from it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = ("frame_grid", "oracle")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_public_functions_of_their_modules():
    tracer = _tracer()
    names = set(tracer.REQUIRED)
    for workload in WORKLOADS:
        names.update(tracer.EXPECTED_SPANS[workload])
    missing = []
    for name in sorted(names):
        layer, func = name.split(".")
        module = importlib.import_module(f"isacbounds.{layer}")
        obj = getattr(module, func, None)
        # the tracer wraps exactly the public functions a module defines
        if (func.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__):
            missing.append(name)
    assert missing == []
