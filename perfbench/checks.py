"""Per-op output checks.

An op fails when it raises or prints a traceback, exits with an unexpected
code, returns a non-finite number, or fails its check.  ``check_op``
returns ``("ok", "")``, ``("error", why)`` for an op that produced no
answer, or ``("wrong", why)`` for an answer that fails its check.  The
references in ``reference.json`` were recorded by ``make_reference.py`` at
the commit that introduced the benchmark.
"""

from __future__ import annotations

import math

# Sweep values are compared at |new - ref| <= SWEEP_REL*|ref| + SWEEP_ABS*p_c.
# The CSV prints 10 significant digits (relative rounding up to 5e-10), and
# the rates are differences of terms of size p_c, so an equally exact
# reimplementation (e.g. a closed-form worst case, which matches the search to
# ~5e-14) moves them by ~1e-13 * p_c near a zero crossing.
SWEEP_REL = 1e-8
SWEEP_ABS = 1e-12
# rate_new >= rate_old - RATE_ORDER_SLACK on every row.
RATE_ORDER_SLACK = 1e-12
# Threshold bisection stops when the dark-count share f is known to 1e-9 and
# d(e_x)/df <= 1/2, so two correct solvers differ by at most 5e-10, plus
# 5e-11 of print rounding.
THRESHOLD_ABS = 2e-9
# max_distance stops within tol_km = 0.01 km of the root; a correct solver
# may land on either side of it.
REACH_ABS_KM = 0.02
# The simulate report prints the analytic column with 7 significant digits.
SIM_ANALYTIC_REL = 1e-6
SIM_FIELDS = ("p_sq", "p_mq", "p_emp", "p_dk", "e_x")
# A correct simulator exceeds |z| = 5 in about 6e-7 of fields.  The CLI's own
# 3-sigma gate (exit 1) is not a failure: a changed random stream may flip it.
Z_LIMIT = 5.0


class CheckFailed(Exception):
    pass


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite value {text!r}")
    return value


def _near(value: float, ref: float, rel: float, abs_tol: float) -> bool:
    return abs(value - ref) <= rel * abs(ref) + abs_tol


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"header {lines[:1]} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_sweep(text: str, reference: str, rows_expected: int) -> None:
    header = reference.splitlines()[0]
    columns = header.split(",")
    p_c, old, new = (columns.index(c) for c in ("p_c", "rate_old", "rate_new"))
    ref_rows = {row[0]: row for row in _csv_rows(reference, header)}
    rows = _csv_rows(text, header)
    if len(rows) != rows_expected:
        raise CheckFailed(f"{len(rows)} rows, expected {rows_expected}")
    for row in rows:
        values = [_number(v) for v in row]
        ref = ref_rows.get(row[0])
        if ref is None or len(row) != len(ref):
            raise CheckFailed(f"row at {row[0]} km not in the reference grid")
        ref_values = [float(v) for v in ref]
        for name, value, ref_value in zip(columns, values, ref_values):
            if not _near(value, ref_value, SWEEP_REL, SWEEP_ABS * ref_values[p_c]):
                raise CheckFailed(f"{name} at {row[0]} km: {value!r} != ref {ref_value!r}")
        if values[new] < values[old] - RATE_ORDER_SLACK:
            raise CheckFailed(f"rate_new < rate_old at {row[0]} km")


def check_threshold(text: str, reference: str, solves_expected: int) -> None:
    header = "protocol,e_x_sq,threshold"
    ref_rows = {row[1]: row[2] for row in _csv_rows(reference, header)}
    rows = _csv_rows(text, header)
    if len(rows) != solves_expected:
        raise CheckFailed(f"{len(rows)} thresholds, expected {solves_expected}")
    for _, e_x_sq, threshold in rows:
        ref = ref_rows.get(e_x_sq)
        if ref is None:
            raise CheckFailed(f"e_x_sq={e_x_sq} not in the reference grid")
        if (threshold == "none") != (ref == "none"):
            raise CheckFailed(f"e_x_sq={e_x_sq}: {threshold} != ref {ref}")
        if threshold == "none":
            continue
        value = _number(threshold)
        if not _number(e_x_sq) <= value <= 0.5:
            raise CheckFailed(f"threshold {value} outside [e_x_sq, 0.5]")
        if not _near(value, float(ref), 0.0, THRESHOLD_ABS):
            raise CheckFailed(f"e_x_sq={e_x_sq}: {value!r} != ref {ref}")


def check_reach(value, reference: float, improved) -> None:
    """``improved`` is the improved-accounting reach of the same scenario in
    the same pass when this op is the gllp one, else ``None``."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"non-finite reach {value!r}")
    if not _near(value, reference, 0.0, REACH_ABS_KM):
        raise CheckFailed(f"reach {value!r} km != ref {reference!r} km")
    if isinstance(improved, (int, float)) and value > improved:
        raise CheckFailed(f"gllp reach {value} > improved reach {improved}")


def check_simulate(text: str, reference: dict) -> None:
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in SIM_FIELDS:
            rows[parts[0]] = parts[1:]
    for name in SIM_FIELDS:
        if name not in rows:
            raise CheckFailed(f"no {name} row")
        # The empirical value is judged through z; _number checks it is finite.
        _, analytic, z = (_number(v) for v in rows[name])
        if abs(z) > Z_LIMIT:
            raise CheckFailed(f"{name}: |z| = {abs(z):.3g} > {Z_LIMIT}")
        if not _near(analytic, reference[name], SIM_ANALYTIC_REL, 0.0):
            raise CheckFailed(f"{name} analytic {analytic!r} != ref {reference[name]!r}")


def _last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1] if lines else "error"


def check_op(op, record: dict, reference, improved=None) -> tuple[str, str]:
    """Classify one op's result; see the module docstring."""
    if record.get("error"):
        return "error", "raised " + _last_line(record["error"])
    if "Traceback" in record.get("stderr", ""):
        return "error", "printed " + _last_line(record["stderr"])
    try:
        if op.kind == "reach":
            check_reach(record["value"], reference, improved)
            return "ok", ""
        allowed = (0, 1) if op.kind == "simulate" else (0,)
        if record["exit_code"] not in allowed:
            why = _last_line(record.get("stderr", ""))
            return "error", f"exit code {record['exit_code']}: {why}"
        if "output" not in record:
            return "error", "no output file"
        if op.kind == "sweep":
            check_sweep(record["output"], reference, op.items)
        elif op.kind == "threshold":
            check_threshold(record["output"], reference, op.items)
        else:
            check_simulate(record["output"], reference)
    except CheckFailed as exc:
        return "wrong", str(exc)
    except ValueError as exc:
        return "wrong", f"unparsable output: {exc}"
    return "ok", ""
