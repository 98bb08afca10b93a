"""Per-layer tracing of ``isacbounds`` from the benchmark's side.

``Tracer.install`` replaces every public function of the seven layer modules
with a wrapper that records a span: its id, the id of the span that was open
when it started (its parent), the function, start and end times, and whether
it raised.  The wrapper is put where the function is defined and everywhere
another module (or the package namespace) imported it by name, so calls
between layers are seen too.  Module-level names the program looks up at call
time resolve to the wrappers; nothing under ``src/`` changes.

Self time of a span is its duration minus the durations of its child spans.
A layer is busy while any of its spans is open; nested spans of the same
layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("model", "signals", "fim", "jacobians", "bounds", "experiments", "cli")

# derived metric -> the functions whose spans it is made of
SELF_TIME_GROUPS = {
    "model.eta_layout.self_s": ("model.eta_layout",),
    "bounds.diff_pipeline.self_s": ("bounds.differential_pipeline", "bounds.zero_reference_cross"),
    "bounds.assemble.self_s": ("bounds.assemble_theta_fim",),
    "bounds.closed_form.self_s": ("bounds.closed_form_theta_fim",),
    "fim.analytic.self_s": ("fim.observation_fim_analytic",),
    "signals.mean_eval.self_s": ("signals.mean_vector", "signals.mean_from_eta"),
    "fim.numeric.self_s": ("fim.observation_fim_numeric",),
    "bounds.singularity.self_s": ("bounds.singularity_report",),
    "bounds.schur.self_s": ("bounds.efim", "bounds.crlb", "bounds.schur_complement"),
}
CALL_GROUPS = {"signals.mean_evals": ("signals.mean_vector", "signals.mean_from_eta")}
EFIM = "bounds.efim"
ASSEMBLE = "bounds.assemble_theta_fim"
CLOSED_FORM = "bounds.closed_form_theta_fim"
PRODUCT_PATH = ("jacobians.jacobian_for", "bounds.differential_pipeline")
TABLE_MAKERS = ("experiments.run_sweep", "experiments.find_crossover", "experiments.pareto_table")
RESULT_COUNTERS = {
    "model.eta_names": ("model.eta_layout",),
    "fim.analytic.dense_mb": ("fim.observation_fim_analytic",),
    "experiments.points": TABLE_MAKERS,
    "experiments.row_errors": TABLE_MAKERS,
}

#: every function a derived metric needs -> the metrics that need it
REQUIRED: dict[str, list[str]] = defaultdict(list)
for _metric, _names in [*SELF_TIME_GROUPS.items(), *CALL_GROUPS.items(),
                        *RESULT_COUNTERS.items(), ("bounds.coupled_ratio", (EFIM,)),
                        ("bounds.crosscheck_ratio", (ASSEMBLE, CLOSED_FORM, *PRODUCT_PATH))]:
    for _name in _names:
        REQUIRED[_name].append(_metric)

#: spans each workload must produce; zero calls means a rename went unnoticed
EXPECTED_SPANS = {
    "frame_grid": ("bounds.crlb_report", ASSEMBLE, CLOSED_FORM, *PRODUCT_PATH,
                   "bounds.singularity_report", EFIM, "model.eta_layout",
                   "fim.observation_fim_analytic"),
    "sweep_curves": ("bounds.crlb_report", ASSEMBLE, CLOSED_FORM, *PRODUCT_PATH, EFIM,
                     *TABLE_MAKERS, "experiments.validate_suite", "cli.main",
                     "signals.mean_from_eta", "fim.observation_fim_numeric"),
    "oracle": ("signals.mean_vector", "signals.mean_from_eta", "signals.mean_jacobian",
               "fim.observation_fim_numeric", "fim.observation_fim_analytic",
               "experiments.validate_suite", ASSEMBLE, "cli.main"),
}
EXPECTED_LAYERS = {
    "frame_grid": ("model", "fim", "jacobians", "bounds"),
    "sweep_curves": LAYERS,
    "oracle": LAYERS,
}

ERR_NONE, ERR_COUPLED, ERR_OTHER = 0, 1, 2


def _nbytes(result) -> int:
    """Bytes of the dense arrays a call returned (computed from their shapes)."""
    if isinstance(result, np.ndarray):
        return result.nbytes
    if isinstance(result, tuple):
        return sum(_nbytes(r) for r in result)
    data = getattr(result, "data", None)
    return data.nbytes if isinstance(data, np.ndarray) else 0


def _table(result):
    return getattr(result, "table", result)


def _count_result(counters, key: str, layer: str, outermost: bool, result) -> None:
    if key == "model.eta_layout":
        counters["model.eta_names"] += len(result.names)
    elif key == "fim.observation_fim_analytic":
        counters["fim.analytic.dense_mb"] += result.data.nbytes / 1e6
    if layer == "jacobians" and outermost:
        counters["jacobians.dense_mb"] += _nbytes(result) / 1e6
    if key in TABLE_MAKERS and outermost:
        rows = _table(result).rows
        counters["experiments.points"] += len(rows)
        counters["experiments.row_errors"] += sum(1 for row in rows if row[-1])


class Tracer:
    """Spans of every wrapped call, kept in memory until the run ends."""

    def __init__(self):
        self.keys: list[str] = []
        self.key_layer: list[int] = []
        self.active = False
        self.parent = array("q")
        self.key = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.outermost = array("b")
        self.err = array("b")
        self.stack: list[int] = []
        self.depth = [0] * len(LAYERS)
        self.counters: dict[str, float] = defaultdict(float)

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in enumerate(modules):
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[obj] = self._wrap(obj, len(self.keys), layer)
                self.keys.append(f"{LAYERS[layer]}.{name}")
                self.key_layer.append(layer)
        for mod in (package, *modules):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def missing(self) -> list[str]:
        """Functions a derived metric needs that the program no longer has."""
        return [f"{name} (needed by {', '.join(metrics)})"
                for name, metrics in sorted(REQUIRED.items()) if name not in self.keys]

    def _wrap(self, fn, key: int, layer: int):
        tracer = self
        key_name = f"{LAYERS[layer]}.{fn.__name__}"
        layer_name = LAYERS[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.t0)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.key.append(key)
            tracer.depth[layer] += 1
            outermost = tracer.depth[layer] == 1
            tracer.outermost.append(outermost)
            tracer.err.append(ERR_NONE)
            tracer.t1.append(0.0)
            tracer.stack.append(sid)
            start = perf_counter()
            tracer.t0.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.err[sid] = (ERR_COUPLED if type(exc).__name__ == "CoupledParametersError"
                                   else ERR_OTHER)
                raise
            finally:
                tracer.t1[sid] = perf_counter()
                tracer.stack.pop()
                tracer.depth[layer] -= 1
            _count_result(tracer.counters, key_name, layer_name, outermost, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(self, passes: int) -> tuple[dict, dict]:
        """Per-layer metrics per pass, and the per-function table behind them."""
        n_keys = len(self.keys)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        key = np.frombuffer(self.key, dtype=np.int64)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        err = np.frombuffer(self.err, dtype=np.int8)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(key, minlength=n_keys)
        self_by_key = np.bincount(key, weights=self_time, minlength=n_keys)
        busy_by_key = np.bincount(key, weights=dur * outer, minlength=n_keys)
        index = {name: i for i, name in enumerate(self.keys)}

        def calls_of(names):
            return float(sum(calls[index[n]] for n in names if n in index))

        def self_of(names):
            return float(sum(self_by_key[index[n]] for n in names if n in index))

        out: dict[str, float] = {}
        layer_of_key = np.array(self.key_layer, dtype=np.int64)
        for li, layer in enumerate(LAYERS):
            mask = layer_of_key == li
            out[f"{layer}.calls"] = float(calls[mask].sum()) / passes
            out[f"{layer}.busy_s"] = float(busy_by_key[mask].sum()) / passes
            out[f"{layer}.self_s"] = float(self_by_key[mask].sum()) / passes
        for metric, names in SELF_TIME_GROUPS.items():
            out[metric] = self_of(names) / passes
        for metric, names in CALL_GROUPS.items():
            out[metric] = calls_of(names) / passes
        for metric in (*RESULT_COUNTERS, "jacobians.dense_mb"):
            out[metric] = self.counters.get(metric, 0.0) / passes

        efim_spans = key == index.get(EFIM, -1)
        n_efim = int(efim_spans.sum())
        out["bounds.coupled_ratio"] = (
            float(np.sum(err[efim_spans] == ERR_COUPLED)) / n_efim if n_efim else 0.0)

        assemble_spans = key == index.get(ASSEMBLE, -1)
        closed_parent = parent[(key == index.get(CLOSED_FORM, -1)) & has_parent]
        product_keys = [index[n] for n in PRODUCT_PATH if n in index]
        product_parent = parent[np.isin(key, product_keys) & has_parent]
        checked = np.intersect1d(closed_parent, product_parent)
        n_assemble = int(assemble_spans.sum())
        out["bounds.crosscheck_ratio"] = (
            float(np.isin(checked, np.flatnonzero(assemble_spans)).sum()) / n_assemble
            if n_assemble else 0.0)

        table = {name: {"calls": int(calls[i]), "busy_s": float(busy_by_key[i]),
                        "self_s": float(self_by_key[i])}
                 for i, name in enumerate(self.keys) if calls[i]}
        return out, table

    def unexercised(self, workload: str) -> list[str]:
        """Spans or layers the workload must produce but did not."""
        key = np.frombuffer(self.key, dtype=np.int64)
        calls = np.bincount(key, minlength=len(self.keys))
        seen = {name for name, c in zip(self.keys, calls) if c}
        layers = {name.split(".")[0] for name in seen}
        return ([f"span {n}" for n in EXPECTED_SPANS[workload] if n not in seen]
                + [f"layer {l}" for l in EXPECTED_LAYERS[workload] if l not in layers])
