"""Record the reference outputs the benchmark checks against.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``: the full-size CLI output of every sweep
and threshold op, the value of every reach op, and the analytic breakdown
behind every simulate op.  The committed file was recorded at the commit
that introduced the benchmark; regenerating it would let a changed result
pass its own check, so later versions of the program are compared with it
as it is.
"""

from __future__ import annotations

import json
import os
import tempfile

import qkdrates

import workloads
from checks import SIM_FIELDS
from worker import run_op

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main() -> None:
    reference: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("sweep", "solve"):
            entries = reference[workload] = {}
            for op in workloads.ops(workload, seed=0, pass_index=0, smoke=False):
                record = run_op(op, os.path.join(tmp, "op.out"))
                if record["error"] or record["exit_code"] not in (None, 0):
                    raise SystemExit(f"{op.name} failed: {record}")
                reach = op.kind == "reach"
                entries[op.name] = record["value"] if reach else record["output"]
    for workload, length in workloads.SIM_LENGTH_KM.items():
        entries = reference[workload] = {}
        for op in workloads.ops(workload, seed=0, pass_index=0, smoke=False):
            protocol, source = op.params
            scn = workloads.scenario(
                protocol, source, workloads.SIM_DARK, workloads.SIM_E_X_SQ, length
            )
            b = qkdrates.breakdown(scn)
            entries[op.name] = {name: getattr(b, name) for name in SIM_FIELDS}
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
