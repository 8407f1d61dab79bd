"""Run one pass of a workload in a fresh interpreter.

Usage: ``python worker.py '<request json>'`` with ``src`` on ``PYTHONPATH``.
The request names the workload, seed, pass index, size, whether to trace,
and where to write.  The worker times ``import qkdrates.cli`` (set-up), runs
the pass's ops back to back on one thread, timing each, and writes a result
JSON with every op's output for ``run.py`` to check.  A fresh interpreter
per pass keeps the program's caches cold, as they are for every CLI call.
"""

from __future__ import annotations

from time import perf_counter

# Set-up: the import every CLI call pays, timed before anything else loads so
# that none of its dependencies is already imported.
_start = perf_counter()
import qkdrates.cli  # noqa: E402

SETUP_S = perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy  # noqa: E402
import qkdrates.keyrate  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


# Reference computations timed alongside the ops.  Other tenants of a shared
# machine slow it by up to 2x for minutes at a time; dividing op time by the
# time of a fixed computation of the same kind, measured in the same process
# just before and after, cancels that.  The probe runs before the first op,
# after every PROBE_EVERY_S of op time and after the last op, and each
# segment of ops between two probes is divided by their mean.
PROBE_EVERY_S = 0.2


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def python_probe() -> float:
    """Frozen-dataclass allocation, attribute access, float math and a sort in
    the interpreter, like the analytic ops."""
    points = [_Point(i * 0.5, math.sqrt(i)) for i in range(8_000)]
    points.sort(key=lambda p: p.y - p.x)
    return sum(p.x for p in points[::3])


def numpy_probe() -> float:
    """Random draws, masks and gathers, like a simulator batch.  Arrays of 2e5
    elements keep the probe's memory far below a pass's peak."""
    rng = numpy.random.Generator(numpy.random.Philox(1))
    total = 0.0
    for _ in range(5):
        x = rng.random(200_000)
        kept = x[numpy.nonzero(x < 0.1)[0]]
        total += float(kept.sum()) + int(numpy.count_nonzero(x > 0.5))
    return total


def probe_time(fn) -> float:
    """Best of two runs, so that one interruption does not count."""
    times = []
    for _ in range(2):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def run_op(op: workloads.Op, out_path: str) -> dict:
    record = {"name": op.name, "exit_code": None, "error": None, "value": None}
    if op.kind == "reach":
        protocol, source, dark, rate_fn = op.params
        scn = workloads.scenario(protocol, source, dark, workloads.REACH_E_X_SQ, 0.0)
        start = perf_counter()
        try:
            record["value"] = qkdrates.keyrate.max_distance(scn, rate_fn)
        except Exception:
            record["error"] = traceback.format_exc()
        record["seconds"] = perf_counter() - start
        return record

    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            record["exit_code"] = qkdrates.cli.main([*op.argv, "--out", out_path])
        except SystemExit as exc:
            record["exit_code"] = exc.code
        except Exception:
            record["error"] = traceback.format_exc()
        record["seconds"] = perf_counter() - start
    record["stderr"] = stderr.getvalue()
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8", newline="") as handle:
            record["output"] = handle.read()
    return record


def main(request: dict) -> None:
    ops = workloads.ops(
        request["workload"], request["seed"], request["pass_index"], request["smoke"]
    )
    trace = tracer.Tracer() if request["trace"] else None
    if trace is not None:
        trace.install()
    probe = numpy_probe if request["workload"].startswith("simulate") else python_probe
    probe()  # first-call costs (allocation, lazy imports) are not the machine's speed
    probes = [probe_time(probe)]
    records = []
    cost = segment_s = 0.0
    for index, op in enumerate(ops):
        if trace is not None:
            trace.run_id = index
        out_path = os.path.join(request["ops_dir"], f"{op.name}.out")
        records.append(run_op(op, out_path))
        segment_s += records[-1]["seconds"]
        if segment_s >= PROBE_EVERY_S or index == len(ops) - 1:
            probes.append(probe_time(probe))
            cost += segment_s / ((probes[-2] + probes[-1]) / 2)
            segment_s = 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace is not None:
        output_bytes = sum(len(r.get("output", "").encode()) for r in records)
        trace.write(request["spans_path"], {"output_bytes": output_bytes})
    result = {
        "setup_s": SETUP_S,
        "peak_rss_mb": peak_rss_mb,
        "cost": cost,
        "probe_s": statistics.median(probes),
        "numpy": numpy.__version__,
        "ops": records,
    }
    with open(request["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
