"""Shared test helpers and acceptance-line reporting."""

import math
from types import SimpleNamespace

import numpy as np

from qkdrates import simulator
from qkdrates.cli import _build_parser
from qkdrates.keyrate import rate_gllp, rate_improved
from qkdrates.scenario import (
    NoConclusiveResultsError,
    SourceKind,
    breakdown,
    transmittance,
)
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


def option_strings(parser):
    """The option strings of ``parser``'s own arguments, ``-h`` included."""
    return {opt for action in parser._actions for opt in action.option_strings}


def subcommand_flags():
    """Each subcommand's option strings in the full ``qkdrates`` parser."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return {name: option_strings(parser) for name, parser in sub.choices.items()}


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


def reference_max_distance(scn, rate_fn="improved", cap_km=1e4, tol_km=0.01):
    """Reference reach search: ``max_distance``'s sentinels, then doubling
    from 1 km until the rate is non-positive and bisection of that bracket
    to ``tol_km``, or until no float lies between its ends.

    It evaluates about 26 breakdowns per solve on the benchmark's reach
    scenarios, against about 9 for ``max_distance``; where the rate changes
    sign only once the two agree to within ``tol_km``.
    """
    rate = {"gllp": rate_gllp, "improved": rate_improved}[rate_fn]

    def rate_at(length_km):
        try:
            b = breakdown(scn.at_length(length_km))
        except NoConclusiveResultsError:
            return 0.0
        return rate(b, scn.protocol)

    if rate_at(0.0) <= 0.0:
        return 0.0
    if rate_at(cap_km) > 0.0:
        return math.inf
    lo, hi = 0.0, 1.0
    while hi < cap_km and rate_at(hi) > 0.0:
        lo = hi
        hi *= 2.0
    hi = min(hi, cap_km)
    while hi - lo > tol_km and lo < (lo + hi) / 2.0 < hi:
        mid = (lo + hi) / 2.0
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def sample_events(scn, eve, size, rng):
    """Per-event reference sampler: the events of one batch of ``size``
    pulses, with each event's photon class, category and bit error stored.

    It makes the draws of ``simulator._count_batch`` in the same order, by
    ``simulator._bernoulli``, but works out every probability itself and
    keeps every outcome: ``n_arrivals`` arrival events first, then the dark
    events, in arrays ``emitted`` (photon class: 0 for no photon, 1 for one,
    2 for two or more), ``category`` and ``bit_error``.  Silent pulses are
    not stored.  On one stream, ``full_key_tally`` of its events equals the
    simulator's count of the batch.
    """
    eta = transmittance(scn.link)
    c = scn.detector.dark_count_prob
    n_det = scn.detector.detector_count
    poisson = scn.source.kind is SourceKind.POISSONIAN
    mu = scn.source.mean_photon_number

    def bernoulli(n, p):
        return simulator._bernoulli(rng, n, p)

    n_arr = int(rng.binomial(size, -math.expm1(-mu * eta) if poisson else eta))
    n_dark = 0
    if c > 0.0:
        n_dark = int(rng.binomial(size - n_arr, -math.expm1(n_det * math.log1p(-c))))
    arr, dark = slice(0, n_arr), slice(n_arr, None)
    emitted = np.ones(n_arr + n_dark, np.int8)
    category = np.zeros(n_arr + n_dark, np.int8)
    bit_error = np.zeros(n_arr + n_dark, bool)

    multi = np.zeros(n_arr, bool)
    if poisson:
        lost, lost_again = simulator._poisson_steps(mu * (1.0 - eta))
        multi = bernoulli(n_arr, simulator._poisson_steps(mu * eta)[1])
        multi |= bernoulli(n_arr, lost)
        emitted[arr] += multi
    kept = bernoulli(n_arr, scn.protocol.conclusive_factor(scn.e_x_sq))
    category[arr] = np.where(multi, Category.MULTI_QUBIT, Category.SINGLE_QUBIT) * kept
    eve_flips = bernoulli(n_arr, eve.flip_probability(scn.protocol.basis_count))
    bit_error[arr] = (eve_flips ^ bernoulli(n_arr, scn.e_x_sq)) & kept

    multi_fire = bernoulli(n_dark, simulator._multi_fire_probability(n_det, c))
    single = n_arr + np.flatnonzero(~multi_fire)
    if poisson:
        emitted[dark] = bernoulli(n_dark, lost)
        again = n_arr + np.flatnonzero(emitted[dark])
        emitted[again[bernoulli(again.size, lost_again)]] = 2
    keep = scn.protocol.dark_conclusive_multiplier / n_det
    dark_kept = single[bernoulli(single.size, keep)]
    category[dark_kept] = Category.DARK_COUNT
    bit_error[dark_kept] = bernoulli(dark_kept.size, 0.5)
    return SimpleNamespace(
        n_arrivals=n_arr, emitted=emitted, category=category, bit_error=bit_error
    )


def full_key_tally(n_pulses, events):
    """Reference tally of one batch of ``sample_events``.

    Bins every event by the full key (category, bit error, photon class) in
    one ``bincount``, independent of the counting the simulator does as it
    draws.
    """
    key = (events.category * 2 + events.bit_error) * 3 + events.emitted
    counts = np.bincount(key, minlength=len(Category) * 6).reshape(len(Category), 2, 3)
    values = {"n_pulses": n_pulses}
    for cat in list(Category)[1:]:
        values[f"cat{int(cat)}_count"] = int(counts[cat].sum())
        values[f"cat{int(cat)}_errors"] = int(counts[cat, 1].sum())
    conclusive = counts[1:]
    values["single_pulse_conclusive"] = int(conclusive[:, :, 1].sum())
    values["single_pulse_errors"] = int(conclusive[:, 1, 1].sum())
    values["empty_pulse_conclusive"] = int(conclusive[:, :, 0].sum())
    return EmpiricalStats(**values)
