"""Self-test of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

1. Short mode (one pass) of every workload, untraced and traced: the result
   line has exactly the four keys, the gate passed, and every metric named in
   BENCHMARK.json appears with its unit and a finite value.
2. The same short runs with ``--perturb``, which scales one output by
   1 + 1e-6 before its gate: each must report failed operations.
3. A directory holding only BENCHMARK.json and the benchmark's files: the
   benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--short", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_line(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    # every workload run.py knows, also the one BENCHMARK.json leaves out
    for name in ("frame_grid", "oracle", "sweep_curves"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, name, trace)
            res = result_line(proc)
            expect(proc.returncode == 0 and res is not None,
                   f"{name} trace {trace}: exit {proc.returncode}, result printed"
                   + ("" if res else f"\n{proc.stderr[-2000:]}"))
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace {trace}: result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} trace {trace}: correct, {res['failed']} of {res['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{name} trace {trace}: every {key} metric with its unit"
                   + ("" if got == want else f" (diff {set(got.items()) ^ set(want.items())})"))
            expect(all(math.isfinite(v["value"]) for v in res["metrics"].values()),
                   f"{name} trace {trace}: finite values")

        proc = bench(ROOT, name, 0, "--perturb")
        res = result_line(proc)
        expect(res is not None and res["failed"] > 0 and not res["correct"],
               f"{name} perturbed: error_rate > 0 "
               f"({res['failed'] if res else '?'} of {res['attempted'] if res else '?'})")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and result_line(proc) is None,
               f"bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
