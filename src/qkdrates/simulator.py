"""Monte Carlo pulse-level simulator used as an oracle for the analytic
breakdowns.

Each pulse goes through emission, channel loss, optional intercept-resend
eavesdropping, the intrinsic error channel, sifting, and dark counts, and
ends in one of four conclusive categories or is discarded.  Sifting is a
Bernoulli keep/discard at the protocol's conclusive rate rather than
explicit basis bookkeeping, which is exact in the asymptotic-bias limit the
rate formulas assume.  Phase errors are not sampled; the analytic side
derives them from the protocol relations.

Sampling is event-sparse.  Pulses are independent and most of them are
silent (no photon arrives and no detector fires), so a batch draws only how
many of its pulses carry an arrival and how many of the rest a dark fire,
as two Binomial counts.  Photon numbers, fire counts, sifting and bit flips
are then drawn per event from the exact conditional distributions
(zero-truncated Poisson and Binomial), so the cost follows the number of
events rather than pulses, and nothing is drawn from the analytic breakdown
it checks.  A Bernoulli draw whose rarer outcome is unlikely places only
those outcomes, as Geometric gaps between them; any other takes one random
byte per trial, with the byte equal to the threshold settled by a uniform,
so each event still gets its own exact outcome.  A count is a chain of such
draws, each asking whether it goes past its current value; only a Poisson
count of a large mean is left to numpy's sampler.  Arrivals are tallied by
counting and dark events by a bincount over their categories.

Pulses are processed in fixed-size batches, each driven by its own PCG64
stream spawned from ``(seed, batch_index)`` by a ``SeedSequence``, so
results are bit-identical whether batches run serially or in parallel.
Each thread of a run draws its batches into one workspace whose arrays are
allocated once, with headroom, and refilled batch after batch; a
single-photon source stores its photon counts in one byte.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .scenario import (
    EveKind,
    Scenario,
    SourceKind,
    SourceModel,
    breakdown as analytic_breakdown,
    decoy_invert,
    intrinsic_error_from_decoy_with_slope,
    transmittance,
)

__all__ = [
    "Category",
    "EmpiricalStats",
    "FieldComparison",
    "DecoyRecovery",
    "run_simulation",
    "compare_to_analytic",
    "simulate_decoy_run",
    "recover_single_photon_rates",
    "tally_csv",
]

DEFAULT_BATCH_SIZE = 1_000_000
# numpy draws no Poisson count with a mean above about 9.2e18
MAX_MEAN_PHOTON_NUMBER = 1e18
# Up to this mean a Poisson count is drawn by a chain of Bernoulli trials;
# above it numpy's sampler is faster (200k draws, 2 cores, numpy 2.4.6)
_CHAIN_MAX_MEAN = 12.0
# Below this probability of the rarer outcome, Geometric gaps between the
# rare outcomes cost less than one random byte per trial (at a million
# trials the two break even near 0.03).
_GAP_MAX_P = 0.03


class Category(IntEnum):
    NOT_CONCLUSIVE = 0
    SINGLE_QUBIT = 1
    MULTI_QUBIT = 2
    EMPTY_QUBIT = 3
    DARK_COUNT = 4


@dataclass(frozen=True)
class EmpiricalStats:
    """Tallies from one simulation run.  Merging shards is addition."""

    n_pulses: int
    cat1_count: int = 0
    cat1_errors: int = 0
    cat2_count: int = 0
    cat2_errors: int = 0
    cat3_count: int = 0
    cat3_errors: int = 0
    cat4_count: int = 0
    cat4_errors: int = 0
    single_pulse_conclusive: int = 0
    single_pulse_errors: int = 0
    empty_pulse_conclusive: int = 0
    empty_pulse_errors: int = 0

    def __add__(self, other: "EmpiricalStats") -> "EmpiricalStats":
        return EmpiricalStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def category_count(self, cat: Category) -> int:
        return getattr(self, f"cat{int(cat)}_count")

    def category_errors(self, cat: Category) -> int:
        return getattr(self, f"cat{int(cat)}_errors")

    @property
    def conclusive_count(self) -> int:
        return self.cat1_count + self.cat2_count + self.cat3_count + self.cat4_count

    @property
    def error_count(self) -> int:
        return self.cat1_errors + self.cat2_errors + self.cat3_errors + self.cat4_errors

    def rate(self, cat: Category) -> float:
        """Per-pulse conclusive rate of one category."""
        return self.category_count(cat) / self.n_pulses

    @property
    def e_x_hat(self) -> float:
        """Bit error rate over all conclusive results."""
        n = self.conclusive_count
        return self.error_count / n if n else 0.0


class _Events:
    """Workspace of one thread: the events of a batch and the scratch arrays
    that draw them.

    :func:`_sample_events` refills it batch after batch with only the pulses
    of a batch that carry an event: ``n_arrivals`` arrival events first, then
    the dark events.  ``emitted``, ``arrived``, ``fired``, ``category`` and
    ``bit_error`` are views of exactly those entries.  Arrival events have
    ``arrived >= 1`` and click one detector; dark events have ``arrived ==
    0`` and ``fired >= 1`` dark fires (``fired`` is 0 for arrivals).  Every
    other pulse is silent (nothing arrived, no detector fired, not
    conclusive) and is not stored.  Photon counts are one byte each for a
    single-photon source, which emits exactly one photon per pulse, and
    int64 for a Poissonian one.

    A buffer is allocated when it is first asked for, with headroom for the
    spread of its count between batches, so a thread maps and faults its
    memory in once per run rather than once per batch; the buffers go when
    the workspace does, at the end of the run.  Until the first
    :meth:`reset` the workspace holds no events.
    """

    __slots__ = (
        "n_arrivals", "emitted", "arrived", "fired", "category", "bit_error", "_buffers"
    )  # fmt: skip

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, n: int, dtype: type) -> np.ndarray:
        """The first ``n`` entries of buffer ``name``, holding whatever an
        earlier batch left there."""
        buf = self._buffers.get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            # a batch's event counts are Binomial, with a standard deviation
            # below sqrt(n): 8 sqrt(n) of headroom holds the run's later
            # batches, and as only touched pages are resident, costs little
            buf = self._buffers[name] = np.empty(n + 8 * math.isqrt(n), dtype)
        return buf[:n]

    def reset(self, n_arrivals: int, n_dark: int, photon_dtype: type) -> None:
        """Hold ``n_arrivals + n_dark`` entries.  Each dark entry is reset to
        one emitted photon, no arrival, no fire and no conclusive result, and
        each arrival entry to no fire; :func:`_sample_events` writes the
        other fields of the arrival entries whole, so they are not reset."""
        n = n_arrivals + n_dark
        self.n_arrivals = n_arrivals
        arr, dark = slice(0, n_arrivals), slice(n_arrivals, None)
        self.emitted = self.buffer("emitted", n, photon_dtype)
        self.emitted[dark] = 1
        self.arrived = self.buffer("arrived", n, photon_dtype)
        self.arrived[dark] = 0
        self.fired = self.buffer("fired", n, np.int8)
        self.fired[arr] = 0
        self.category = self.buffer("category", n, np.int8)
        self.category[dark] = 0
        self.bit_error = self.buffer("bit_error", n, np.bool_)
        self.bit_error[dark] = False


def _bernoulli(
    rng: np.random.Generator, n: int, p: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Mask of ``n`` independent Bernoulli(``p``) trials, written into the
    bool array ``out`` of ``n`` entries when one is given.

    When the rarer outcome has probability below ``_GAP_MAX_P`` only its
    positions are drawn (:func:`_bernoulli_gaps`); otherwise each trial takes
    one random byte (:func:`_bernoulli_bytes`).  ``p`` of 0 or 1, or ``n =
    0``, draws nothing.
    """
    if out is None:
        out = np.empty(n, dtype=bool)
    if min(p, 1.0 - p) >= _GAP_MAX_P:
        return _bernoulli_bytes(rng, p, out)
    return _bernoulli_gaps(rng, p, out)


def _bernoulli_bytes(rng: np.random.Generator, p: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with Bernoulli(``p``) trials, one random byte ``b`` each.

    The bytes are the generator's raw 64-bit words, eight trials to a word.
    With ``k = floor(256 p)``, a trial succeeds when ``b < k``; a tie ``b ==
    k`` (probability 1/256) succeeds when one uniform falls below ``256 p -
    k``.  So a trial succeeds with probability ``k/256 + (256 p - k)/256 =
    p``, exact to the 2**-53 grain of the uniform divided by 256.
    """
    n = out.size
    b = rng.bit_generator.random_raw(-(-n // 8)).view(np.uint8)[:n]
    scaled = 256.0 * p  # exact: a power-of-two scale
    k = int(scaled)
    # out marks the ties first, then is overwritten by the comparison
    ties = np.flatnonzero(np.equal(b, k, out=out))
    np.less(b, k, out=out)
    out[ties] = rng.random(ties.size) < scaled - k
    return out


def _bernoulli_gaps(rng: np.random.Generator, p: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with Bernoulli(``p``) trials by placing only the rarer
    outcomes.

    The gaps between successive rare outcomes of iid trials are iid
    Geometric, so their positions are cumulative sums of Geometric gaps,
    drawn in chunks until they pass the last trial.
    """
    n = out.size
    rare = min(p, 1.0 - p)
    out.fill(False)
    if rare > 0.0 and n > 0:
        chunk = int(n * rare + 5.0 * math.sqrt(n * rare)) + 1
        last = -1  # the position before the first trial
        while last < n:
            # numpy's Geometric saturates at 2**63 - 1 for tiny p, so gaps
            # are capped before the sum; a gap of n + 1 (not n) from the
            # start still lands past the last trial
            positions = rng.geometric(rare, chunk)
            np.minimum(positions, n + 1, out=positions)
            np.cumsum(positions, out=positions)
            positions += last
            out[positions[: np.searchsorted(positions, n)]] = True
            last = int(positions[-1])
    if p > 0.5:
        np.logical_not(out, out=out)
    return out


def _chop_down(
    rng: np.random.Generator,
    pmf: np.ndarray,
    out: np.ndarray,
    first: int,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Fill ``out`` with values ``k >= first``, ``P(k)`` proportional to
    ``pmf[k - first]``; ``scratch``, a bool array of ``out``'s size when
    given, holds the steps' trials.

    Every draw starts at ``first``; one step moves the draws still live at
    ``k`` past it by a :func:`_bernoulli` trial with the continuation
    probability ``P(K > k | K >= k) = tail[k+1] / tail[k]``.  The tails are
    summed from the small end, so they keep the digits that ``1 - cdf``
    loses, and a tail that underflowed to 0 ends the table.  A single-valued
    pmf draws nothing.
    """
    tail = np.cumsum(pmf[::-1])[::-1]
    tail = tail[: np.count_nonzero(tail)]
    steps = tail[1:] / tail[:-1]
    if not steps.size:
        out.fill(first)
        return out
    if scratch is None:
        scratch = np.empty(out.size, dtype=bool)
    moved = _bernoulli(rng, out.size, float(steps[0]), scratch)
    np.add(moved, first, out=out)
    live = np.flatnonzero(moved)
    for k, p in enumerate(steps[1:], first + 2):
        if not live.size:
            break
        live = live[_bernoulli(rng, live.size, float(p), scratch[: live.size])]
        out[live] = k
    return out


def _poisson(
    rng: np.random.Generator,
    lam: float,
    size: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    zero_truncated: bool = False,
) -> np.ndarray:
    """Poisson(``lam``) counts, conditioned on being at least 1 when
    ``zero_truncated``, written into ``out`` when given.

    Up to ``_CHAIN_MAX_MEAN`` they are drawn by :func:`_chop_down` (with
    its ``scratch``); above it by numpy, redrawing zeros when truncated.  A
    mean of 0 draws nothing.
    """
    if out is None:
        out = np.empty(size, dtype=np.int64)
    if size == 0:
        return out
    if lam > _CHAIN_MAX_MEAN:
        counts = rng.poisson(lam, size)
        while zero_truncated and (zeros := np.flatnonzero(counts == 0)).size:
            counts[zeros] = rng.poisson(lam, zeros.size)
        out[:] = counts
        return out
    # lam^k / k! up to where the tail is far below double precision
    k = np.arange(1, int(lam + 12.0 * math.sqrt(lam)) + 25)
    weights = np.concatenate(([1.0], np.cumprod(lam / k)))
    return _chop_down(rng, weights[zero_truncated:], out, int(zero_truncated), scratch)


def _zero_truncated_binomial(
    rng: np.random.Generator,
    n: int,
    p: float,
    size: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Binomial(``n``, ``p``) counts conditioned on being at least 1, written
    into ``out`` when given, by :func:`_chop_down` (with its ``scratch``)."""
    if out is None:
        out = np.empty(size, dtype=np.int64)
    k = np.arange(1, n + 1)
    pmf = np.array([math.comb(n, int(j)) for j in k]) * p**k * (1.0 - p) ** (n - k)
    return _chop_down(rng, pmf, out, 1, scratch)


def _sample_events(
    scn: Scenario,
    eve: EveKind,
    size: int,
    rng: np.random.Generator,
    events: _Events | None = None,
) -> _Events:
    """Sample the events of one batch of ``size`` pulses into ``events`` (a
    fresh workspace when none is given) and return it.

    Pulses are independent, so only the number of pulses with an event is
    drawn per batch; everything else is drawn per event.  Draw order:

    1. the number of arrival pulses, Binomial(``size``, ``p``) with
       ``p = eta`` (single photon) or ``1 - exp(-mu*eta)`` (Poisson);
    2. the number of dark events among the other pulses,
       Binomial(``size - arrivals``, ``1 - (1-C)^n_det``);
    3. per arrival (Poisson source), a zero-truncated Poisson(``mu*eta``)
       arrived count and an independent Poisson(``mu*(1-eta)``) lost count
       (Poisson thinning), each by :func:`_poisson`;
    4. per arrival, sifting, an eavesdropper flip and an intrinsic flip,
       each by :func:`_bernoulli`; the flips are independent of sifting
       and count only on kept arrivals;
    5. per dark event, a zero-truncated Binomial(``n_det``, ``C``) fire
       count by :func:`_chop_down` and, for a Poisson source, the lost
       count;
    6. per single fire, dark sifting, then the random bit of the kept ones,
       each by :func:`_bernoulli`.

    Draws with probability 0 or 1 are skipped, so the stream depends on the
    scenario but not on how batches are scheduled or on what a reused
    workspace held before.
    """
    eta = transmittance(scn.link)
    cf = scn.protocol.conclusive_factor(scn.e_x_sq)
    c = scn.detector.dark_count_prob
    n_det = scn.detector.detector_count
    dark_keep = scn.protocol.dark_conclusive_multiplier / n_det
    eve_flip_p = eve.flip_probability(scn.protocol.basis_count)
    poisson = scn.source.kind is SourceKind.POISSONIAN
    mu = scn.source.mean_photon_number

    n_arr = int(rng.binomial(size, -math.expm1(-mu * eta) if poisson else eta))
    n_dark = 0
    if c > 0.0:
        p_fire = -math.expm1(n_det * math.log1p(-c))
        n_dark = int(rng.binomial(size - n_arr, p_fire))
    ev = _Events() if events is None else events
    ev.reset(n_arr, n_dark, np.int64 if poisson else np.int8)
    arr, dark = slice(0, n_arr), slice(n_arr, None)
    # holds the trials of the count chains, then for arrivals emitted > 1
    # and the eavesdropper's flips
    scratch = ev.buffer("mask", n_arr + n_dark, np.bool_)
    mask = scratch[arr]

    if poisson:
        # Poisson thinning: the arrived and the lost photons are independent
        arrived, emitted = ev.arrived[arr], ev.emitted[arr]
        _poisson(rng, mu * eta, n_arr, arrived, mask, zero_truncated=True)
        _poisson(rng, mu * (1.0 - eta), n_arr, emitted, mask)
        emitted += arrived
    else:
        ev.emitted[arr] = 1
        ev.arrived[arr] = 1
    kept = _bernoulli(rng, n_arr, cf, ev.buffer("kept", n_arr, np.bool_))
    # a kept qubit is SINGLE_QUBIT (1), or MULTI_QUBIT (2) if more was emitted
    category = ev.category[arr]
    category[:] = kept
    if poisson:
        np.greater(emitted, 1, out=mask)
        mask &= kept
        category += mask
    _bernoulli(rng, n_arr, eve_flip_p, mask)
    flips = _bernoulli(rng, n_arr, scn.e_x_sq, ev.bit_error[arr])
    flips ^= mask
    flips &= kept

    fired = ev.fired[dark]
    _zero_truncated_binomial(rng, n_det, c, n_dark, fired, scratch[dark])
    if poisson:
        # an empty pulse emitted only photons that were lost
        _poisson(rng, mu * (1.0 - eta), n_dark, ev.emitted[dark], scratch[dark])
    single = n_arr + np.flatnonzero(fired == 1)
    dark_kept = single[_bernoulli(rng, single.size, dark_keep)]
    ev.category[dark_kept] = Category.DARK_COUNT
    ev.bit_error[dark_kept] = _bernoulli(rng, dark_kept.size, 0.5)
    return ev


def _tally(n_pulses: int, events: _Events) -> EmpiricalStats:
    """Tally one batch of events.

    Counts sit in bins indexed by (category, bit error, emitted photons
    capped at 2).  A conclusive arrival is SINGLE_QUBIT exactly when it
    emitted one photon and MULTI_QUBIT otherwise, and only conclusive
    events carry a bit error, so arrivals are counted into their bins; dark
    events are binned by a full key.
    """
    arr, dark = slice(0, events.n_arrivals), slice(events.n_arrivals, None)
    category, bit_error = events.category[dark], events.bit_error[dark]
    key = (category * 2 + bit_error) * 3 + np.minimum(events.emitted[dark], 2)
    counts = np.bincount(key, minlength=len(Category) * 6).reshape(len(Category), 2, 3)
    category, bit_error = events.category[arr], events.bit_error[arr]
    # a plain int: numpy compares an IntEnum about ten times slower
    multi = category == Category.MULTI_QUBIT.value
    n_multi = int(np.count_nonzero(multi))
    multi_errors = int(np.count_nonzero(bit_error & multi))
    n_single = int(np.count_nonzero(category)) - n_multi
    single_errors = int(np.count_nonzero(bit_error)) - multi_errors
    counts[Category.SINGLE_QUBIT, :, 1] += (n_single - single_errors, single_errors)
    counts[Category.MULTI_QUBIT, :, 2] += (n_multi - multi_errors, multi_errors)
    values: dict[str, int] = {"n_pulses": n_pulses}
    for cat in list(Category)[1:]:
        values[f"cat{int(cat)}_count"] = int(counts[cat].sum())
        values[f"cat{int(cat)}_errors"] = int(counts[cat, 1].sum())
    conclusive = counts[1:]
    values["single_pulse_conclusive"] = int(conclusive[:, :, 1].sum())
    values["single_pulse_errors"] = int(conclusive[:, 1, 1].sum())
    values["empty_pulse_conclusive"] = int(conclusive[:, :, 0].sum())
    values["empty_pulse_errors"] = int(conclusive[:, 1, 0].sum())
    return EmpiricalStats(**values)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The generator of one batch: PCG64 seeded by a ``SeedSequence`` spawned
    at ``(seed, batch_index)``, so every batch has its own independent
    stream, whichever thread draws it."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.PCG64(seq))


def run_simulation(
    scn: Scenario,
    eve: EveKind = EveKind.NONE,
    n_pulses: int = 1_000_000,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: int = 1,
) -> EmpiricalStats:
    """Simulate ``n_pulses`` pulses and return merged tallies.

    Deterministic for fixed ``(scn, eve, n_pulses, seed, batch_size)``;
    ``workers`` only parallelizes independent batches and never changes the
    result; at most ``min(workers, os.cpu_count(), batches)`` threads run.
    A mean photon number above ``MAX_MEAN_PHOTON_NUMBER`` is rejected.
    """
    mu = scn.source.mean_photon_number
    if mu is not None and mu > MAX_MEAN_PHOTON_NUMBER:
        raise ValueError(
            f"mean_photon_number: {mu:g} exceeds the simulator's limit "
            f"of {MAX_MEAN_PHOTON_NUMBER:g}"
        )
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    sizes = [
        min(batch_size, n_pulses - start) for start in range(0, n_pulses, batch_size)
    ]
    jobs = list(enumerate(sizes))
    threads = min(workers, os.cpu_count() or 1, len(jobs))

    def run_share(share: list[tuple[int, int]]) -> EmpiricalStats:
        # one workspace per thread, refilled by each of its batches
        events = _Events()
        total = EmpiricalStats(n_pulses=0)
        for index, size in share:
            rng = _batch_rng(seed, index)
            total += _tally(size, _sample_events(scn, eve, size, rng, events))
        return total

    if threads <= 1:
        return run_share(jobs)
    # imported only here, so that importing the package (and so every CLI
    # command) does not pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run_share, [jobs[t::threads] for t in range(threads)]))
    return sum(parts[1:], parts[0])


# FieldComparison and DecoyRecovery are named tuples, not frozen dataclasses:
# the CLI imports this module inside the command, and a frozen dataclass
# costs about 1 ms there to generate and compile its methods.
class FieldComparison(NamedTuple):
    """Empirical vs analytic value of one breakdown field."""

    name: str
    empirical: float
    analytic: float
    z: float


def _z_score(empirical: float, analytic: float, trials: float) -> float:
    """Binomial z-score of a rate over ``trials``, by the rule of
    :func:`compare_to_analytic`."""
    if analytic <= 0.0 or analytic >= 1.0:
        return 0.0 if empirical == min(max(analytic, 0.0), 1.0) else math.inf
    # sqrt(trials) is kept out of the variance, which for a subnormal rate
    # would underflow to 0
    deviation = (empirical - analytic) * math.sqrt(trials)
    return deviation / math.sqrt(analytic * (1.0 - analytic))


def compare_to_analytic(stats: EmpiricalStats, scn: Scenario) -> list[FieldComparison]:
    """Z-scores of empirical category rates and error rate against the
    analytic breakdown, using binomial standard errors at the analytic
    values (over all pulses for a rate, over the expected conclusive count
    for the error rate).

    A field whose analytic value is exactly 0 or 1 has no binomial spread:
    it scores 0 when the empirical value equals it (after clamping the
    analytic value to [0, 1]) and ``inf`` otherwise.
    """
    b = analytic_breakdown(scn)
    n = stats.n_pulses
    rows = (
        ("p_sq", stats.rate(Category.SINGLE_QUBIT), b.p_sq, n),
        ("p_mq", stats.rate(Category.MULTI_QUBIT), b.p_mq, n),
        ("p_emp", stats.rate(Category.EMPTY_QUBIT), b.p_emp, n),
        ("p_dk", stats.rate(Category.DARK_COUNT), b.p_dk, n),
        ("e_x", stats.e_x_hat, b.e_x, b.p_c * n),
    )
    return [
        FieldComparison(name, empirical, analytic, _z_score(empirical, analytic, trials))
        for name, empirical, analytic, trials in rows
    ]


def simulate_decoy_run(
    scn: Scenario,
    mu_values: list[float],
    n_pulses: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: int = 1,
) -> dict[float, EmpiricalStats]:
    """Run the simulator once per mean photon number.

    Each run reuses the same seed, so a single-entry list reproduces
    ``run_simulation`` exactly.
    """
    if not mu_values:
        raise ValueError("mu_values must be non-empty")
    if any(mu <= 0.0 for mu in mu_values):
        raise ValueError("all mu values must be positive")
    results: dict[float, EmpiricalStats] = {}
    for mu in mu_values:
        varied = replace(scn, source=SourceModel.poissonian(mu))
        results[mu] = run_simulation(
            varied,
            EveKind.NONE,
            n_pulses,
            seed,
            batch_size=batch_size,
            workers=workers,
        )
    return results


class DecoyRecovery(NamedTuple):
    """Single-photon qubit rate and intrinsic error rate recovered from a
    simulated run, with propagated binomial standard errors."""

    p_sq: float
    p_sq_se: float
    e_x_sq: float
    e_x_sq_se: float


def recover_single_photon_rates(stats: EmpiricalStats, scn: Scenario) -> DecoyRecovery:
    """Feed a run's single-photon-pulse tallies through the decoy inversion.

    Uses the omniscient per-pulse-class tallies as the stand-in for the
    decoy-state estimate of the single-photon conclusive rate and error
    rate, then inverts the dark-count contamination.
    """
    if scn.source.kind is not SourceKind.POISSONIAN:
        raise ValueError("decoy recovery needs a Poissonian source")
    mu = scn.source.mean_photon_number
    eta = transmittance(scn.link)
    c = scn.detector.dark_count_prob
    n = stats.n_pulses

    w_hat = stats.single_pulse_conclusive / n
    q_hat = stats.single_pulse_errors / n
    e_x_1 = stats.single_pulse_errors / max(stats.single_pulse_conclusive, 1)
    p_sq, e_raw = decoy_invert(
        w_hat, e_x_1, mu, eta, c, scn.protocol.dark_conclusive_multiplier
    )

    p1 = math.exp(-mu) * mu
    p_sq_se = math.sqrt(w_hat * (1.0 - w_hat) / n)
    e_raw_se = math.sqrt(q_hat * (1.0 - q_hat) / n) / (p1 * eta)
    e_x_sq, slope = intrinsic_error_from_decoy_with_slope(scn.protocol, e_raw)
    return DecoyRecovery(
        p_sq=p_sq,
        p_sq_se=p_sq_se,
        e_x_sq=e_x_sq,
        e_x_sq_se=slope * e_raw_se,
    )


def tally_csv(stats: EmpiricalStats) -> str:
    """Raw per-category tallies as CSV (columns: category,count,bit_errors)."""
    lines = ["category,count,bit_errors"]
    for cat in list(Category)[1:]:
        name = cat.name.lower()
        lines.append(f"{name},{stats.category_count(cat)},{stats.category_errors(cat)}")
    return "\n".join(lines) + "\n"
