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


NON_DIFFERENTIAL = ("sensing", "ppm-pilot", "bpsk-pilot", "ppm-raw", "bpsk-raw")

#: frame_grid shapes: every kind at a small and a large frame, the
#: differential frame at the old 499/500 check boundary, and every
#: non-differential kind at n_f = 64, whose Jacobian must cost what n_f = 8 does
TRACED_CALLS = ([(n_f, kind) for n_f in (8, 2048) for kind in (*NON_DIFFERENTIAL, "ppm-diff")]
                + [(499, "ppm-diff")] + [(64, kind) for kind in NON_DIFFERENTIAL])

# Tracer.install patches the package for good, so the traced calls run in a
# fresh interpreter (see _run_traced); it prints what the frame_grid contract needs.
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
assembles = [i for i, name in enumerate(names) if name == "bounds.assemble_theta_fim"]
children = [sorted({names[j] for j in np.flatnonzero(parent == i)}) for i in assembles]
# the assembly each span runs under (spans are numbered in start order)
owner = []
for i, p in enumerate(parent):
    owner.append(i if names[i] == "bounds.assemble_theta_fim" else owner[p] if p >= 0 else -1)
jacobians = [sum(1 for j, o in enumerate(owner) if o == i and names[j].startswith("jacobians."))
             for i in assembles]
print(json.dumps({"unexercised": tracer.unexercised("frame_grid"), "children": children,
                  "jacobians": jacobians}))
"""


def _run_traced(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_frame_grid_contract():
    out = _run_traced(TRACED_SCRIPT, json.dumps(TRACED_CALLS))
    assert out["unexercised"] == []
    assert len(out["children"]) == len(TRACED_CALLS)
    for (n_f, kind), children in zip(TRACED_CALLS, out["children"]):
        if kind == "ppm-diff":
            assert {"bounds.differential_pipeline", "bounds.closed_form_theta_fim"} <= set(children), n_f
        elif n_f <= 64:
            # the product route reads the diagonal I_eta from the function
            # whose span the frame_grid contract requires, and its product
            # stays a checked child beside the closed form it checks
            assert {"fim.observation_fim_analytic", "jacobians.jacobian_for",
                    "bounds.closed_form_theta_fim"} <= set(children), (n_f, kind)
    # the Jacobian is filled block by block from ETA_BLOCKS, not built PRI by PRI
    jacobian_spans = dict(zip(TRACED_CALLS, out["jacobians"]))
    for kind in NON_DIFFERENTIAL:
        assert jacobian_spans[(64, kind)] == jacobian_spans[(8, kind)] > 0, kind


# The oracle workload bypasses assembly: it drives the sampled model, both
# observation FIMs and the validation suite, directly and through the CLI.
ORACLE_SCRIPT = """
import contextlib, io, json
import isacbounds as ib
from isacbounds import cli
from tracer import Tracer
import workloads as w

tracer = Tracer()
tracer.install(ib)
n_paths, n_f, kind = w.ORACLE_GRID[1]
sc = w.scenario(w.REFERENCE, n_f, n_paths, w.ORACLE_RATES[0][0])
mod = w.modulation(kind, n_f)
tracer.active = True
ib.mean_vector(sc, mod)
ib.mean_jacobian(sc, mod)
ib.observation_fim_analytic(sc, mod)
ib.observation_fim_numeric(sc, mod)
ib.validate_suite()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["validate"])
tracer.active = False
metrics, _ = tracer.metrics(1)
print(json.dumps({"unexercised": tracer.unexercised("oracle"), "validate": code,
                  "crosscheck_ratio": metrics["bounds.crosscheck_ratio"]}))
"""


def test_traced_oracle_contract():
    out = _run_traced(ORACLE_SCRIPT)
    assert out["unexercised"] == []
    assert out["validate"] == 0
    assert out["crosscheck_ratio"] == 1.0


# The oracle's probe metrics (signals.mean_evals, signals.mean_eval.self_s)
# count the mean evaluations the numeric probe makes through the public
# mean_from_eta; a probe that evaluated the mean some other way would leave
# them at 0 while the run still passed.
PROBE_SCRIPT = """
import json
import numpy as np
import isacbounds as ib
from tracer import Tracer
import workloads as w

tracer = Tracer()
tracer.install(ib)
sc = w.scenario(w.REFERENCE, 2, 2, 100e9)
mod = w.modulation("bpsk-pilot", 2)
tracer.active = True
ib.observation_fim_numeric(sc, mod)
ib.mean_jacobian(sc, mod)
tracer.active = False
key = np.frombuffer(tracer.key, dtype=np.int64)
parent = np.frombuffer(tracer.parent, dtype=np.int64)
names = [tracer.keys[k] for k in key]
# the outermost span each span runs under (spans are numbered in start order)
root = []
for i, p in enumerate(parent):
    root.append(i if p < 0 else root[p])
evals = {}
for i, name in enumerate(names):
    if name == "signals.mean_from_eta":
        evals[names[root[i]]] = evals.get(names[root[i]], 0) + 1
print(json.dumps({"roots": [names[i] for i in sorted(set(root))], "evals": evals,
                  "slots": ib.Frame(sc, mod).slots}))
"""


def test_traced_probe_evaluates_the_mean_through_mean_from_eta():
    out = _run_traced(PROBE_SCRIPT)
    assert out["roots"] == ["fim.observation_fim_numeric", "signals.mean_jacobian"]
    # one stacked evaluation per slot (every slot is driven by some entry),
    # all inside the probe
    assert out["evals"] == {"fim.observation_fim_numeric": out["slots"]}
