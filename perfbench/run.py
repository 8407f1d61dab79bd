"""qkdrates benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload {sweep,solve,simulate_sparse,simulate_dense} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Load model: a closed loop with one client.  A pass runs the workload's ops
(see ``workloads.py``) back to back on one thread, in a fresh interpreter
started by ``worker.py``, so the program's caches start cold and the
``import qkdrates.cli`` time is measured on its own as set-up.  Passes repeat
until another one would end past ``--seconds`` (at least three; with
``--trace 1`` at least two of each kind).  The seed picks the simulator's Philox
seeds; the analytic workloads are deterministic.

End-to-end metrics, medians over the untraced passes of a run:

* ``setup_s``: ``import qkdrates.cli`` in a fresh interpreter.
* ``run_cost``: pass time in units of a fixed reference computation (the
  probe in ``worker.py``) timed in the same process around each stretch of
  ops.  Other tenants of a shared machine slow it by up to 2x for minutes at
  a time, which moves wall times between runs far more than any bound could
  allow; the ratio cancels that and stays proportional to wall time on a
  quiet machine.
* ``peak_rss_mb``: peak resident memory of the pass's process.

The report also prints ``run_s`` (median pass wall time, with the highest
percentile that has ten samples beyond it and the sample count), the
throughput of each kind of op (``sweep_rows_per_s``,
``threshold_solves_per_s``, ``reach_solves_per_s``, ``sim_pulses_per_s``:
items of ops that did not raise per second of op time) and
``ops_failed_ratio``.  The throughputs apply to some workloads only and the
failed ratio reads zero on most, so they are not in ``BENCHMARK.json``,
whose end-to-end metrics every workload reports and none may read zero;
failures reach the JSON result through ``attempted`` and ``failed``.

Every op's output is checked (``checks.py``).  The report lists each op's
check result; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when an op returned a wrong answer; ``failed`` also counts ops that
raised.

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``, from
  untraced passes.
* ``--trace 1``: alternates untraced and traced passes and reports the
  per-layer metrics of ``BENCHMARK.json`` from the traced ones
  (``tracer.py``); ``trace.overhead_s`` is the median traced ``run_s`` minus
  the median untraced one.
* ``--smoke``: tiny sizes and one pass of each kind, for the benchmark's own
  tests.

A result file with an environment stamp, every pass and every op's check
result and output digest goes to ``perfbench/out/``; the spans of traced
passes go to ``perfbench/out/spans/``.  When a pass cannot run at all (for
instance without the program's source) the benchmark exits with code 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Per-kind passes before a run may stop (untraced; and traced with --trace 1).
MIN_PASSES = {0: 3, 1: 2}
# A run stops starting passes once another would end past this many seconds.
RUN_BUDGET_S = 150.0
PASS_TIMEOUT_S = 150.0
KIND_THROUGHPUT = {
    "sweep": "sweep_rows_per_s",
    "threshold": "threshold_solves_per_s",
    "reach": "reach_solves_per_s",
    "simulate": "sim_pulses_per_s",
}


class PassFailed(RuntimeError):
    """A pass could not run at all, so the run has no result."""


def run_pass(args, pass_index: int, traced: bool) -> dict:
    tag = f"{args.workload}-seed{args.seed}-pass{pass_index}"
    request = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_index": pass_index,
        "smoke": args.smoke,
        "trace": traced,
        "ops_dir": str(OUT / "ops"),
        "result_path": str(OUT / "pass.json"),
        "spans_path": str(OUT / "spans" / f"{tag}.jsonl"),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    Path(request["result_path"]).unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            env=env,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {pass_index} exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass {pass_index} exited {proc.returncode}:\n{proc.stderr}")
    with open(request["result_path"], encoding="utf-8") as handle:
        result = json.load(handle)

    ops = workloads.ops(args.workload, args.seed, pass_index, args.smoke)
    references = args.reference[args.workload]
    values = {r["name"]: r["value"] for r in result["ops"]}
    op_results = []
    for op, record in zip(ops, result["ops"], strict=True):
        improved = None
        if op.kind == "reach" and op.name.endswith("-gllp"):
            improved = values.get(op.name[: -len("gllp")] + "improved")
        status, why = checks.check_op(op, record, references.get(op.name), improved)
        output = record.get("output")
        op_results.append(
            {
                "name": op.name,
                "kind": op.kind,
                "items": op.items,
                "status": status,
                "why": why,
                "seconds": record["seconds"],
                "sha256": None
                if output is None
                else hashlib.sha256(output.encode("utf-8")).hexdigest(),
            }
        )
    summary = {
        "pass_index": pass_index,
        "traced": traced,
        "setup_s": result["setup_s"],
        "pass_s": sum(r["seconds"] for r in op_results),
        "cost": result["cost"],
        "probe_s": result["probe_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "numpy": result["numpy"],
        "ops": op_results,
    }
    if traced:
        header, spans = tracer.read_spans(request["spans_path"])
        summary["layers"], summary["crosscheck"] = tracer.layer_metrics(header, spans)
    return summary


def run_passes(args) -> list[dict]:
    """Run passes until ``--seconds`` would be exceeded by another one,
    after at least the minimum number of each kind."""
    passes = []
    need = 1 if args.smoke else MIN_PASSES[args.trace]
    start = perf_counter()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        pass_start = perf_counter()
        passes.append(run_pass(args, len(passes), traced))
        now = perf_counter()
        after_next = (now - start) + (now - pass_start)
        untraced = sum(not p["traced"] for p in passes)
        traced_n = len(passes) - untraced
        if untraced >= need and traced_n >= need * args.trace:
            if args.smoke or after_next > args.seconds:
                return passes
        if after_next > RUN_BUDGET_S and untraced and traced_n >= args.trace:
            return passes


def throughput(pass_: dict) -> dict[str, float]:
    """Items of ops that did not raise, per second of op time, by op kind."""
    items: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for op in pass_["ops"]:
        name = KIND_THROUGHPUT[op["kind"]]
        seconds[name] = seconds.get(name, 0.0) + op["seconds"]
        items[name] = items.get(name, 0) + (op["status"] != "error") * op["items"]
    return {name: items[name] / seconds[name] for name in seconds}


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 11
    return f"p{100 * (rank + 1) // n}", sorted(samples)[rank]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        args.reference = json.load(handle)
    for sub in ("ops", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    try:
        passes = run_passes(args)
    except PassFailed as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    all_ops = [op for p in passes for op in p["ops"]]
    attempted = len(all_ops)
    failed = sum(op["status"] != "ok" for op in all_ops)
    wrong = sum(op["status"] == "wrong" for op in all_ops)

    run_s = [p["pass_s"] for p in untraced]
    end_to_end = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "run_cost": statistics.median(p["cost"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    run_tail = tail(run_s)
    report = {
        "run_s": statistics.median(run_s),
        "run_s_tail": None if run_tail is None else dict([run_tail]),
        "run_s_samples": len(run_s),
        "probe_s": statistics.median(p["probe_s"] for p in untraced),
        **{
            name: statistics.median(throughput(p)[name] for p in untraced)
            for name in throughput(untraced[0])
        },
        "ops_failed_ratio": failed / attempted,
    }
    layers = {}
    crosscheck = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["crosscheck"]:
            crosscheck[name] = statistics.median(p["crosscheck"][name] for p in traced)
        traced_s = statistics.median(p["pass_s"] for p in traced)
        layers["trace.overhead_s"] = traced_s - report["run_s"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "commit": git_commit(),
        "seed": args.seed,
    }
    suffix = "-smoke" if args.smoke else ""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"
    result_path = OUT / f"result-{tag}.json"
    result = {
        "environment": env,
        "arguments": {k: v for k, v in vars(args).items() if k != "reference"},
        "metrics": metrics,
        "end_to_end": end_to_end,
        "report": report,
        "per_layer": layers,
        "crosscheck": crosscheck,
        "passes": passes,
    }
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"qkdrates benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}{', smoke' if args.smoke else ''}; "
          f"{len(untraced)} untraced and {len(traced)} traced passes")  # fmt: skip
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("end-to-end (median over untraced passes):")
    for name, value in end_to_end.items():
        print(f"  {name:32} {value:14.6g} {units[name]}")
    tail_text = (
        "no percentile has 10 samples beyond it"
        if run_tail is None
        else f"{run_tail[0]} {run_tail[1]:.6g} s"
    )
    print(f"  {'run_s':32} {report['run_s']:14.6g} s ({tail_text}; {len(run_s)} passes)")
    print(f"  {'probe_s':32} {report['probe_s']:14.6g} s")
    for name in KIND_THROUGHPUT.values():
        if name in report:
            print(f"  {name:32} {report[name]:14.6g} 1/s")
    ratio = failed / attempted
    print(f"  {'ops_failed_ratio':32} {ratio:14.6g} ({failed}/{attempted} ops)")
    if traced:
        print("per-layer (median over traced passes):")
        for name, value in layers.items():
            print(f"  {name:44} {value:14.6g} {units[name]}")
        for name, value in crosscheck.items():
            print(f"  {name:44} {value:14.6g} (cross-check)")
    print("ops (check result over all passes):")
    by_name: dict[str, list[dict]] = {}
    for op in all_ops:
        by_name.setdefault(op["name"], []).append(op)
    for name, runs in by_name.items():
        bad = [r for r in runs if r["status"] != "ok"]
        digests = {r["sha256"] for r in runs if r["sha256"]}
        if len(digests) == 1:
            digest = next(iter(digests))[:16]
        else:
            digest = f"{len(digests)} distinct" if digests else "-"
        status = "ok" if not bad else f"{bad[0]['status'].upper()}: {bad[0]['why']}"
        ok = f"{len(runs) - len(bad)}/{len(runs)} ok"
        print(f"  {name:44} {ok}  sha256 {digest}  {status}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
