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
from qkdrates.simulator import EmpiricalStats

# The reference sampler's event labels: discarded, then the simulator's
# three conclusive origins, in the order of their tally fields.
DISCARDED, SINGLE_QUBIT, MULTI_QUBIT, DARK_COUNT = range(4)
ORIGINS = ("single_qubit", "multi_qubit", "dark_count")

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


def gap_positions(rng, n, q):
    """The trials among ``n`` at which Bernoulli(``q``) trials succeed, as
    the gap route places them: cumulative sums of Geometric gaps, drawn in
    chunks of ``floor(n q + 5 sqrt(n q)) + 1``, or of
    ``simulator._GAP_CHUNK`` if that is fewer, until they pass trial ``n -
    1``, each gap capped at ``n + 1``."""
    found = [np.zeros(0, np.int64)]
    if q > 0 and n > 0:
        chunk = min(int(n * q + 5.0 * math.sqrt(n * q)) + 1, simulator._GAP_CHUNK)
        last = -1
        while last < n:
            positions = last + np.cumsum(np.minimum(rng.geometric(q, chunk), n + 1))
            found.append(positions[positions < n])
            last = int(positions[-1])
    return np.concatenate(found)


def stage_bits(rng, n):
    """One stage's bit for each of ``n`` undecided events: bit ``i % 64`` of
    word ``i // 64`` of ``ceil(n / 64)`` raw words, unpacked bit by bit."""
    raw = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8")
    return np.unpackbits(raw.view(np.uint8), bitorder="little")[:n].astype(bool)


def reference_trials(rng, m, p):
    """Outcomes of ``m`` Bernoulli(``p``) trials, one per event, re-derived
    from the stream ``simulator._successes`` counts.

    On the rarer side ``r``, at or above ``simulator._GAP_MAX_P``, each stage
    doubles ``frac`` (at first ``r``) and gives the undecided events, in
    their original order, one bit each (:func:`stage_bits`): at ``frac >=
    1`` the zeros succeed and ``frac`` loses 1, else the ones fail.  Once
    ``frac`` is 0, or ``simulator._TAIL`` or fewer events are undecided, the
    gaps at ``frac`` mark the undecided events that succeed, or at ``1 -
    frac`` those that fail when ``frac > 1/2``.  Below ``_GAP_MAX_P`` the
    gaps at ``r`` mark the rare outcomes of all ``m`` events."""
    r = min(p, 1 - p)
    rare = np.zeros(m, bool)
    undecided, frac = np.arange(m), r
    staged = r >= simulator._GAP_MAX_P
    while staged and undecided.size > simulator._TAIL and frac:
        frac *= 2
        bits = stage_bits(rng, undecided.size)
        if frac >= 1:
            rare[undecided[~bits]] = True
            undecided, frac = undecided[bits], frac - 1
        else:
            undecided = undecided[~bits]
    if frac > 0.5:
        rare[undecided] = True
        rare[undecided[gap_positions(rng, undecided.size, 1 - frac)]] = False
    else:
        rare[undecided[gap_positions(rng, undecided.size, frac)]] = True
    return ~rare if p > 0.5 else rare


def sample_events(scn, eve, size, rng):
    """Per-event reference sampler: the events of a run of ``size``
    pulses, with each event's photon class, category and bit error stored.

    It draws the trials of ``simulator._tally`` in the same order and
    over the same events, but works out every probability itself and
    re-derives every event's outcome from the stream
    (:func:`reference_trials`): ``n_arrivals`` arrival events first, then
    the dark events, in arrays ``emitted`` (photon class: 0 for no photon, 1
    for one, 2 for two or more, -1 where a Poisson pulse's class was not
    drawn, as for a discarded event), ``category`` and ``bit_error``.
    Silent pulses are not stored.  On one stream, ``full_key_tally`` of its
    events equals the simulator's count of the run.
    """
    eta = transmittance(scn.link)
    c = scn.detector.dark_count_prob
    n_det = scn.detector.detector_count
    poisson = scn.source.kind is SourceKind.POISSONIAN
    mu = scn.source.mean_photon_number
    flip = scn.e_x_sq

    def trial(events, p):
        """The events, in order, whose trial succeeds."""
        return events[reference_trials(rng, events.size, p)]

    n_arr = int(rng.binomial(size, -math.expm1(-mu * eta) if poisson else eta))
    n_dark = 0
    if c > 0.0:
        n_dark = int(rng.binomial(size - n_arr, -math.expm1(n_det * math.log1p(-c))))
    # a single-photon pulse emitted one photon, known without a draw
    emitted = np.full(n_arr + n_dark, -1 if poisson else 1, np.int8)
    category = np.full(n_arr + n_dark, DISCARDED, np.int8)
    bit_error = np.zeros(n_arr + n_dark, bool)

    kept = trial(np.arange(n_arr), scn.protocol.conclusive_factor(scn.e_x_sq))
    multi = np.zeros(0, np.int64)
    if poisson:
        lost, lost_again = simulator._poisson_steps(mu * (1.0 - eta))
        arrived_two = trial(kept, simulator._poisson_steps(mu * eta)[1])
        multi = np.union1d(arrived_two, trial(np.setdiff1d(kept, arrived_two), lost))
        emitted[kept] = 1
        emitted[multi] = 2
    single = np.setdiff1d(kept, multi)
    category[single] = SINGLE_QUBIT
    category[multi] = MULTI_QUBIT
    for group in (single, multi):
        flipped = trial(group, eve.flip_probability(scn.protocol.basis_count))
        bit_error[flipped] = True
        bit_error[trial(flipped, flip)] = False
        bit_error[trial(np.setdiff1d(group, flipped), flip)] = True

    dark = n_arr + np.arange(n_dark)
    multi_fire = trial(dark, simulator._multi_fire_probability(n_det, c))
    fired_once = np.setdiff1d(dark, multi_fire)
    dark_kept = trial(fired_once, scn.protocol.dark_conclusive_multiplier / n_det)
    category[dark_kept] = DARK_COUNT
    if poisson:
        emitted[dark_kept] = 0
        photon_lost = trial(dark_kept, lost)
        emitted[photon_lost] = 1
        emitted[trial(photon_lost, lost_again)] = 2
    for photons in (0, 1, 2):
        bit_error[trial(dark_kept[emitted[dark_kept] == photons], 0.5)] = True
    return SimpleNamespace(
        n_arrivals=n_arr, emitted=emitted, category=category, bit_error=bit_error
    )


def full_key_tally(n_pulses, events):
    """Reference tally of one run of ``sample_events``.

    Bins every conclusive event by the full key (category, bit error, photon
    class) in one ``bincount``, independent of the counting the simulator
    does as it draws.
    """
    conclusive = events.category != DISCARDED
    key = (events.category[conclusive] - 1) * 2 + events.bit_error[conclusive]
    key = key * 3 + events.emitted[conclusive]
    counts = np.bincount(key, minlength=len(ORIGINS) * 6)
    counts = counts.reshape(len(ORIGINS), 2, 3)
    values = {"n_pulses": n_pulses}
    for i, name in enumerate(ORIGINS):
        values[name] = int(counts[i].sum())
        values[f"{name}_errors"] = int(counts[i, 1].sum())
    values["single_pulse_conclusive"] = int(counts[:, :, 1].sum())
    values["single_pulse_errors"] = int(counts[:, 1, 1].sum())
    values["empty_pulse_conclusive"] = int(counts[:, :, 0].sum())
    return EmpiricalStats(**values)
