"""Tests of the benchmark itself.  Run from the repository root with
``python3 -m pytest perfbench``; the smoke runs take a few seconds each."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
# At 0 km a single-photon source gives p_sq = 1 for bb84 and six-state, and
# the analytic comparison divides by sqrt(p (1 - p) / n) = 0.
KNOWN_DEFECTS = {"simulate-0km-bb84-single-photon", "simulate-0km-six-state-single-photon"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 1 <= result["attempted"] and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0

    detail_path = HERE / "out" / f"result-{workload}-seed5-trace{trace}-smoke.json"
    detail = json.loads(detail_path.read_text())
    env = detail["environment"]
    assert {"nproc", "cpu_model", "python", "numpy", "commit", "seed"} <= set(env)
    ops = [op for p in detail["passes"] for op in p["ops"]]
    failed = {op["name"] for op in ops if op["status"] != "ok"}
    assert failed <= KNOWN_DEFECTS
    if trace:
        layers = result["metrics"]
        if workload == "sweep":
            assert layers["scenario.at_length.calls"]["value"] > 0
            assert layers["entropy.worst_case.objective_evals_per_call"]["value"] >= 1
        if workload == "solve":
            assert layers["keyrate.threshold.calls"]["value"] == 3 * len(
                workloads.threshold_values(workloads.SMOKE)
            )
            assert layers["keyrate.reach.breakdowns_per_solve"]["value"] > 0
        if workload.startswith("simulate"):
            assert layers["simulator.run.calls"]["value"] == 6
            assert 0 < layers["simulator.conclusive_per_pulse"]["value"] <= 1


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = run_bench(
        tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def sweep_reference() -> tuple[workloads.Op, str]:
    op = workloads.ops("sweep", 0, 0, smoke=False)[0]
    return op, REFERENCE["sweep"][op.name]


def test_sweep_check_accepts_reference_and_rejects_moved_digit():
    op, ref = sweep_reference()
    checks.check_sweep(ref, ref, op.items)
    lines = ref.splitlines()
    fields = lines[5].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6))
    lines[5] = ",".join(fields)
    with pytest.raises(checks.CheckFailed, match="rate_new"):
        checks.check_sweep("\n".join(lines) + "\n", ref, op.items)
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_sweep("\n".join(lines[:-1]) + "\n", ref, op.items)


def test_sweep_check_rejects_new_rate_below_old():
    header = "length_km,eta,p_c,p_sq,p_mq,p_dk,omega0,omega1,e_x,rate_old,rate_new"
    text = f"{header}\n0,1,1,1,0,0,0,1,0.01,0.5,0.4\n"
    with pytest.raises(checks.CheckFailed, match="rate_new < rate_old"):
        checks.check_sweep(text, text, 1)


def test_threshold_check():
    ref = "protocol,e_x_sq,threshold\nbb84,0,0.5\nbb84,0.15,none\n"
    checks.check_threshold(ref, ref, 2)
    with pytest.raises(checks.CheckFailed, match="none"):
        checks.check_threshold(ref.replace("none", "0.2"), ref, 2)
    low = "protocol,e_x_sq,threshold\nbb84,0.1,0.05\n"
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_threshold(low, low, 1)


def simulate_output(z_sq: str) -> str:
    return (
        "pulses 100  seed 1  protocol bb84\n"
        "field         empirical       analytic          z\n"
        f"p_sq       1.0e-01   1.000000e-01   {z_sq}\n"
        "p_mq       0.0e+00   0.000000e+00   0\n"
        "p_emp      0.0e+00   0.000000e+00   0\n"
        "p_dk       1.0e-05   1.000000e-05   0.1\n"
        "e_x        5.0e-02   5.000000e-02   -0.2\n"
    )


def test_simulate_check():
    ref = {"p_sq": 0.1, "p_mq": 0.0, "p_emp": 0.0, "p_dk": 1e-5, "e_x": 0.05}
    checks.check_simulate(simulate_output("4.9"), ref)
    with pytest.raises(checks.CheckFailed, match="z"):
        checks.check_simulate(simulate_output("-5.1"), ref)
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_simulate(simulate_output("inf"), ref)
    with pytest.raises(checks.CheckFailed, match="analytic"):
        checks.check_simulate(simulate_output("0"), dict(ref, p_sq=0.2))


def test_check_op_classifies_errors_and_the_three_sigma_gate():
    op = workloads.ops("simulate_sparse", 1, 0, smoke=True)[0]
    ref = {"p_sq": 0.1, "p_mq": 0.0, "p_emp": 0.0, "p_dk": 1e-5, "e_x": 0.05}
    gate = {"exit_code": 1, "output": simulate_output("3.5"), "stderr": ""}
    assert checks.check_op(op, gate, ref) == ("ok", "")
    assert checks.check_op(op, dict(gate, exit_code=2), ref)[0] == "error"
    raised = {"error": "Traceback ...\nZeroDivisionError: float division by zero"}
    assert checks.check_op(op, raised, ref) == (
        "error", "raised ZeroDivisionError: float division by zero"
    )  # fmt: skip
    reach = workloads.ops("solve", 1, 0, smoke=True)[-2]
    assert checks.check_op(reach, {"value": math.inf}, 100.0)[0] == "wrong"
    assert checks.check_op(reach, {"value": 100.0}, 100.0, improved=99.0)[0] == "wrong"


def test_self_time_excludes_child_spans_and_leaf_time():
    header = {"binary_entropy_calls": 4, "binary_entropy_s": 0.5, "output_bytes": 10}
    # name, start, end, parent, run, leaf_s, leaf calls, objective calls, note
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, 0.0, 4, 300, None],
        ["keyrate.threshold", 1.0, 6.0, 0, 0, 0.5, 4, 300, None],
        ["entropy.worst_case", 2.0, 4.0, 1, 0, 0.0, 0, 300, None],
    ]
    metrics, crosscheck = tracer.layer_metrics(header, spans)
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["keyrate.threshold.self_s"] == pytest.approx(2.5)
    assert metrics["entropy.worst_case.self_s"] == pytest.approx(2.0)
    assert metrics["entropy.worst_case.objective_evals_per_call"] == 300
    assert metrics["keyrate.threshold.entropy_calls_per_solve"] == 4
    assert crosscheck["entropy.worst_case.uncached_ms"] == pytest.approx(2000.0)
