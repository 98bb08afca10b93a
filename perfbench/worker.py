"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` as a fresh interpreter, with ``src`` of the checkout
on ``PYTHONPATH`` and the BLAS thread count fixed in the environment::

    python3 perfbench/worker.py --workload oracle --seed 1 --seconds 10 [--traced]
        [--sample-light] [--perturb]

Operations run closed-loop: the next call starts when the previous one
returns (after a garbage collection outside the timed region).  Whole passes
over the workload's operations are repeated while the measured time plus the
last pass still fits in ``--seconds``, and at least ``--min-passes`` times.
With ``--sample-light`` a pass also runs the workload's light operations
once more after each heavy one, and the time left after the last pass goes
to further rounds of them, so that the light operations, whose latencies set
the median, are sampled many times and all through the run.
Each result is checked by the workload's gate outside the timed region: in
full on its first call, by comparison with that call later.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
MAX_PROBLEMS = 20
#: every operation's latency is a median over at least this many calls
MIN_PASSES = 3


def blas_info() -> dict:
    """BLAS library name/version from numpy's build record, and the thread
    count OpenBLAS reports (when the library exposes it)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def run(workload: str, seed: int, seconds: float, min_passes: int, traced: bool,
        sample_light: bool, perturb: bool) -> dict:
    import isacbounds as ib

    if not Path(ib.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"isacbounds imported from {ib.__file__}, not from {ROOT / 'src'}")
    tracer = Tracer()
    if traced:
        tracer.install(ib)
        missing = tracer.missing()
        if missing:
            return {"guard": [f"missing wrapped function {m}" for m in missing]}

    goldens = json.loads(GOLDENS.read_text())
    inputs, rng = workloads.generate(seed)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=ROOT / ".perfbench"))
    try:
        ops = workloads.WORKLOADS[workload](inputs, rng, goldens, workdir)
        out = measure(ops, seconds, min_passes, tracer, traced, sample_light, perturb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if traced:
        layer, functions = tracer.metrics(out["passes"])
        layer["cli.csv_bytes"] = out["csv_bytes"] / out["passes"]
        out |= {"layer": layer, "functions": functions,
                "unexercised": tracer.unexercised(workload)}
    return out


def measure(ops, seconds: float, min_passes: int, tracer, traced: bool, sample_light: bool,
            perturb: bool) -> dict:
    # one pass: every operation once and, with sample_light, the light ones
    # again after each heavy one
    light = [i for i, op in enumerate(ops) if op.light] if sample_light else []
    schedule = []
    for i, op in enumerate(ops):
        schedule += [i] + (light if light and not op.light else [])
    latencies: list[tuple[str, float]] = []
    fingerprints: dict[int, list] = {}
    problems: list[str] = []
    configs = all_configs = attempted = failed = passes = 0
    csv_bytes = 0
    measured = last_pass = 0.0
    perturb_at = next((i for i, op in enumerate(ops) if op.perturb), None) if perturb else None

    def call(i: int) -> tuple[float, int]:
        """One timed call of operation ``i`` and its gate: latency, configurations."""
        nonlocal attempted, failed, all_configs, csv_bytes, perturb_at
        op = ops[i]
        attempted += 1
        gc.collect()  # no collection owed by earlier operations lands in this one
        tracer.active = traced
        start = perf_counter()
        try:
            result = op.call()
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        tracer.active = False
        latencies.append((op.label, elapsed))
        if error is not None:
            failed += 1
            problems.append(f"{op.label}: raised {error}")
            return elapsed, 0
        if i == perturb_at:
            result = op.perturb(result)
            perturb_at = None
        n = 0
        try:
            fp = op.fingerprint(result)
            if i in fingerprints:
                bad = ([] if workloads.same_fingerprint(fp, fingerprints[i])
                       else ["differs from the first call"])
            else:
                bad = op.verify(result)
                if not bad:
                    fingerprints[i] = fp
            n = op.configs(result)
            all_configs += n
            csv_bytes += getattr(result, "csv_bytes", 0)
        except Exception:
            bad = [f"gate raised {traceback.format_exc(limit=3)}"]
        if bad:
            failed += 1
            problems.append(f"{op.label}: " + "; ".join(bad[:3]))
        return elapsed, n

    gc.collect()
    gc.freeze()  # the per-operation collections below then skip the imported modules
    while passes < min_passes or measured + last_pass <= seconds:
        pass_time = 0.0
        counted: set[int] = set()  # configurations count once per operation and pass
        for i in schedule:
            elapsed, n = call(i)
            pass_time += elapsed
            configs += 0 if i in counted else n
            counted.add(i)
        passes += 1
        measured += pass_time
        last_pass = pass_time
    # the time a whole pass no longer fits in goes to more rounds of the light operations
    last_round = 0.0
    while light and measured + last_round <= seconds:
        last_round = sum(call(i)[0] for i in light)
        measured += last_round

    return {
        "passes": passes, "ops_per_pass": len(ops), "measured_s": measured,
        "configs": configs, "all_configs": all_configs,
        "calls_per_pass": len(schedule), "attempted": attempted, "failed": failed,
        "problems": problems[:MAX_PROBLEMS], "latencies": latencies, "csv_bytes": csv_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "blas": blas_info(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=MIN_PASSES)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--sample-light", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, args.min_passes, args.traced,
                 args.sample_light, args.perturb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
