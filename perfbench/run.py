"""isacbounds benchmark: one workload per run, every metric with its unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload frame_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time (median of several
fresh interpreters that import the package and compute one reference
report), configurations per second, median and tail operation latency, and
the peak resident memory of the process that ran the workload.  ``--trace 1``
runs the workload twice, untraced and traced, each for half of ``--seconds``,
and prints the per-layer metrics of the traced run plus the tracing overhead.

Each workload runs in a fresh interpreter (``worker.py``) with the checkout's
``src`` on ``PYTHONPATH``; nothing is installed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The line before it records provenance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("frame_grid", "sweep_curves", "oracle")
SETUP_RUNS = 7
TAIL_BEYOND = 10
#: every child process is killed (and waited for) if the run has not ended by then
RUN_DEADLINE_S = 170

#: fresh-interpreter set-up: import plus one reference report (n_f = 8, L = 3,
#: sensing); prints tau1's CRLB so the result can be checked
SETUP_CODE = (
    "import isacbounds as ib\n"
    "rep = ib.crlb_report(ib.reference_scenario(), ib.ModulationConfig())\n"
    "print(repr(rep.crlb['tau1']))\n"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


_START = perf_counter()


def remaining_s() -> float:
    return max(1.0, RUN_DEADLINE_S - (perf_counter() - _START))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def tail_percentile(ops_per_pass: int) -> float:
    """Highest whole percentile that leaves >= TAIL_BEYOND operations of one
    pass beyond it.  Fixed by the workload's shape, so the tail names the same
    operations on every commit whatever the number of passes."""
    return math.floor(100.0 * (ops_per_pass - TAIL_BEYOND) / ops_per_pass)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(golden_tau1: float, runs: int) -> tuple[list[float], int]:
    """Wall times of ``runs`` fresh interpreters, and how many failed."""
    times, failed = [], 0
    for _ in range(runs):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining_s())
        times.append(perf_counter() - start)
        try:
            ok = proc.returncode == 0 and abs(float(proc.stdout) / golden_tau1 - 1.0) <= 1e-9
        except ValueError:
            ok = False
        failed += not ok
    return times, failed


def run_worker(args, traced: bool) -> dict:
    # --trace 1 runs two workers (untraced, traced); each gets half the run
    seconds = 0 if args.short else args.seconds / (1 + args.trace)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds)]
    cmd += ["--min-passes", "1"] * args.short + ["--traced"] * traced + ["--perturb"] * args.perturb
    # light operations are resampled only where latencies are reported, so the
    # traced run's per-pass layer values weigh every operation once
    cmd += ["--sample-light"] * (args.trace == 0)
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining_s())
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "guard" in result:
        raise BenchError("trace guard:\n  " + "\n  ".join(result["guard"]))
    return result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, worker: dict) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": worker["blas"], "blas_threads_env": child_env()["OPENBLAS_NUM_THREADS"],
        "nproc": nproc(), "cpu": cpu_model(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": worker["passes"],
        "measured_s": worker["measured_s"], "load": "closed loop, one client",
    }


def per_operation(worker: dict) -> dict[str, list[float]]:
    """Latencies in ms of each operation of the workload, one per pass."""
    by_label: dict[str, list[float]] = {}
    for label, dt in worker["latencies"]:
        by_label.setdefault(label, []).append(dt * 1e3)
    return by_label


def end_to_end(worker: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    """Latency percentiles are taken over the workload's operations, each
    represented by its fastest call over the run.  An operation repeats
    exactly the same work on every call; on a shared machine the time a call
    takes above that minimum is interference from other tenants, which
    drifts by tens of percent from second to second.  Light operations are
    called many times, spread over the whole run, so their fastest call is
    reached reliably.  Every operation weighs the same whatever the number of
    calls.  Throughput uses the same per-operation times."""
    lat_ms = [min(v) for v in per_operation(worker).values()]
    q = tail_percentile(worker["ops_per_pass"])
    tail = percentile(lat_ms, q)
    configs_per_pass = worker["configs"] / worker["passes"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "configs_per_s": configs_per_pass / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    samples = len(worker["latencies"])
    notes = [
        f"setup_s over {len(setup_times)} fresh interpreters, before and after the workload",
        f"configs_per_s: {configs_per_pass:g} configurations per pass over the summed "
        f"fastest calls of its {worker['ops_per_pass']} operations ({worker['passes']} passes, "
        f"{worker['measured_s']:.3f} s of calls, "
        f"{worker['all_configs'] / worker['measured_s']:.6g} configurations/s over all calls)",
        f"op_p50_ms over {len(lat_ms)} operations, {samples} samples "
        f"({worker['calls_per_pass']} calls per pass)",
        f"op_tail_ms is p{q:g}, {sum(v > tail for v in lat_ms)} operations beyond it",
    ]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="isacbounds benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="self-test: scale one output by 1 + 1e-6 before its gate")
    parser.add_argument("--short", action="store_true",
                        help="self-test: one pass and one set-up run, whatever --seconds says")
    args = parser.parse_args()
    # on SIGTERM, subprocess.run kills and waits for the running child as the
    # SystemExit passes through it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "isacbounds" / "__init__.py").is_file():
        print(f"error: no isacbounds sources under {SRC}", file=sys.stderr)
        return 2
    goldens = json.loads((HERE / "goldens.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    try:
        if args.trace == 0:
            # half the set-up runs before the workload and half after it, so
            # that their median spans the run rather than its first seconds
            golden_tau1 = goldens["8/sensing"]["crlb"]["tau1"]
            runs = 1 if args.short else SETUP_RUNS
            setup_times, setup_failed = measure_setup(golden_tau1, (runs + 1) // 2)
            worker = run_worker(args, traced=False)
            after_times, after_failed = measure_setup(golden_tau1, runs // 2)
            setup_times += after_times
            setup_failed += after_failed
            metrics, notes = end_to_end(worker, setup_times)
            attempted = worker["attempted"] + len(setup_times)
            failed = worker["failed"] + setup_failed
        else:
            plain = run_worker(args, traced=False)
            worker = run_worker(args, traced=True)
            if worker["unexercised"]:
                raise BenchError("trace guard: expected but never called:\n  "
                                 + "\n  ".join(worker["unexercised"]))
            metrics = dict(worker["layer"])
            metrics["trace.overhead_ratio"] = ((worker["measured_s"] / worker["passes"])
                                               / (plain["measured_s"] / plain["passes"]))
            notes = [f"per-layer values are per pass ({worker['passes']} traced passes)"]
            notes += [f"{name}: {f['calls'] / worker['passes']:g} calls, "
                      f"self {f['self_s'] / worker['passes']:.6f} s per pass"
                      for name, f in sorted(worker["functions"].items(),
                                            key=lambda kv: -kv[1]["self_s"])[:15]]
            attempted = plain["attempted"] + worker["attempted"]
            failed = plain["failed"] + worker["failed"]
            setup_failed = 0
        unmeasured = [name for name in units if name not in metrics]
        if unmeasured:
            raise BenchError("metrics not measured: " + ", ".join(unmeasured))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name in units:
        print(f"  {name:32s} {metrics[name]:16.6g} {units[name]}")
    for note in notes:
        print(f"  ({note})")
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for problem in worker["problems"] + (["set-up check failed"] if setup_failed else []):
        print(f"  FAILED {problem}")
    print("per-operation latency, fastest and median over its calls:")
    for label, v in per_operation(worker).items():
        print(f"  {label:48s} {min(v):12.3f} ms {statistics.median(v):12.3f} ms  (n={len(v)})")
    print(json.dumps({"provenance": provenance(args, worker)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
