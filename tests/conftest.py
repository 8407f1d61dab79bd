"""Shared test helpers and acceptance-line reporting."""

import math

import numpy as np

from qkdrates.simulator import Category, EmpiricalStats

_acceptance_lines: list[str] = []


def record_criterion(line: str) -> None:
    """Queue an acceptance pass/fail line for the terminal summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)


def brute_force_worst_case(spec, e_x, n_grid=10_000):
    """Independent oracle for the worst-case conditional phase entropy.

    Dense-grid maximum over the admissible Y error interval, evaluating the
    four-outcome entropy directly from the linear system, independent of
    the package's closed form.
    """
    e_z = spec.phase_ratio * e_x
    if spec.y_lo_ratio == spec.y_hi_ratio:
        ys = [spec.y_lo_ratio * e_x]
    else:
        lo, hi = spec.y_interval(e_x)
        lo = max(lo, abs(e_x - e_z))
        hi = min(hi, e_x + e_z, 2.0 - e_x - e_z)
        ys = np.linspace(lo, hi, n_grid)
    best = -1.0
    for e_y in ys:
        probs = [
            1.0 - (e_x + e_y + e_z) / 2.0,
            (e_x + e_y - e_z) / 2.0,
            (e_y + e_z - e_x) / 2.0,
            (e_x + e_z - e_y) / 2.0,
        ]
        h4 = -sum(p * math.log2(p) for p in probs if p > 1e-300)
        hx = 0.0
        if 0.0 < e_x < 1.0:
            hx = -e_x * math.log2(e_x) - (1 - e_x) * math.log2(1 - e_x)
        best = max(best, h4 - hx)
    return best


def full_key_tally(n_pulses, events):
    """Reference tally of one batch of simulator events.

    Bins every event by the full key (category, bit error, emitted photons
    capped at 2) in one ``bincount``, independent of the counting shortcuts
    the simulator's own tally takes for arrivals.
    """
    key = (events.category * 2 + events.bit_error) * 3 + np.minimum(events.emitted, 2)
    counts = np.bincount(key, minlength=len(Category) * 6).reshape(len(Category), 2, 3)
    values = {"n_pulses": n_pulses}
    for cat in list(Category)[1:]:
        values[f"cat{int(cat)}_count"] = int(counts[cat].sum())
        values[f"cat{int(cat)}_errors"] = int(counts[cat, 1].sum())
    conclusive = counts[1:]
    values["single_pulse_conclusive"] = int(conclusive[:, :, 1].sum())
    values["single_pulse_errors"] = int(conclusive[:, 1, 1].sum())
    values["empty_pulse_conclusive"] = int(conclusive[:, :, 0].sum())
    values["empty_pulse_errors"] = int(conclusive[:, 1, 0].sum())
    return EmpiricalStats(**values)
