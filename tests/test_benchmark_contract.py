"""The traced benchmark run needs these public functions by name.

``perfbench/tracer.py`` lists every function a per-layer metric is made of
(``REQUIRED``) and the spans each benchmarked workload must produce
(``EXPECTED_SPANS``); a rename stops ``perfbench/run.py --trace 1``.  The
lists are read from the tracer itself, so they cannot drift from it.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
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


#: frame_grid shapes: every kind at a small and a large frame, plus the
#: differential frame at the old 499/500 check boundary
TRACED_CALLS = ([(n_f, kind) for n_f in (8, 2048)
                 for kind in ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-raw", "bpsk-raw",
                              "ppm-diff")]
                + [(499, "ppm-diff")])

# Tracer.install patches the package for good, so the traced calls run in a
# fresh interpreter; it prints what the frame_grid contract needs.
TRACED_SCRIPT = """
import json, sys
import numpy as np
import isacbounds as ib
from tracer import Tracer
import workloads as w

tracer = Tracer()
tracer.install(ib)
calls = json.loads(sys.argv[1])
tracer.active = True
for n_f, kind in calls:
    ib.crlb_report(w.scenario(w.REFERENCE, n_f), w.modulation(kind, n_f))
tracer.active = False
key = np.frombuffer(tracer.key, dtype=np.int64)
parent = np.frombuffer(tracer.parent, dtype=np.int64)
names = [tracer.keys[k] for k in key]
children = [sorted({names[j] for j in np.flatnonzero(parent == i)})
            for i, name in enumerate(names) if name == "bounds.assemble_theta_fim"]
print(json.dumps({"unexercised": tracer.unexercised("frame_grid"), "children": children}))
"""


def test_traced_frame_grid_contract():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", TRACED_SCRIPT, json.dumps(TRACED_CALLS)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["unexercised"] == []
    assert len(out["children"]) == len(TRACED_CALLS)
    for (n_f, kind), children in zip(TRACED_CALLS, out["children"]):
        if kind == "ppm-diff":
            assert {"bounds.differential_pipeline", "bounds.closed_form_theta_fim"} <= set(children), n_f
