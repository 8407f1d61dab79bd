"""Tests that the library surface the benchmark in ``perfbench/`` calls still
works: every op of a smoke pass of each workload runs in process, as the
benchmark worker runs it, and passes the benchmark's own check of its result.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from qkdrates import cli, keyrate

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """Import ``perfbench/<name>.py`` without putting ``perfbench`` on the path."""
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # the dataclasses of workloads.py look the module up while the class
    # body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
checks = load("checks")
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def run_op(op, out_path: Path) -> dict:
    if op.kind == "reach":
        protocol, source, dark, rate_fn = op.params
        scn = workloads.scenario(protocol, source, dark, workloads.REACH_E_X_SQ, 0.0)
        return {"value": keyrate.max_distance(scn, rate_fn)}
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main([*op.argv, "--out", str(out_path)])
    record = {"exit_code": code, "stderr": stderr.getvalue()}
    if out_path.exists():
        with open(out_path, encoding="utf-8", newline="") as handle:
            record["output"] = handle.read()
    return record


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_ops_pass_their_checks(tmp_path, workload):
    ops = workloads.ops(workload, 1, 0, True)
    assert ops
    records = {op.name: run_op(op, tmp_path / f"{op.name}.out") for op in ops}
    failed = {}
    for op in ops:
        improved = None
        if op.kind == "reach" and op.name.endswith("-gllp"):
            # a gllp reach may not exceed the improved reach of the same pass
            improved = records[op.name[: -len("gllp")] + "improved"]["value"]
        reference = REFERENCE[workload].get(op.name)
        status = checks.check_op(op, records[op.name], reference, improved)
        if status != ("ok", ""):
            failed[op.name] = status
    assert failed == {}
