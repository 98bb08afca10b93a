"""Write ``goldens.json``: the frame_grid CRLB reports at the reference inputs.

The gate of ``frame_grid`` moves these reports to each seed's inputs with the
model's exact laws (see ``workloads.py``).  Regenerate only when the bounds
themselves are meant to change::

    python3 perfbench/make_goldens.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import isacbounds as ib  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    goldens = {}
    for n_f, kind in workloads.frame_grid_shapes():
        sc = workloads.scenario(workloads.REFERENCE, n_f)
        rep = ib.crlb_report(sc, workloads.modulation(kind, n_f))
        goldens[f"{n_f}/{kind}"] = workloads.report_record(rep)
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1) + "\n")


if __name__ == "__main__":
    main()
