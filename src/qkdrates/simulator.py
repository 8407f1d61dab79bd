"""Monte Carlo pulse-level simulator used as an oracle for the analytic
breakdowns.

Each pulse goes through emission, channel loss, optional intercept-resend
eavesdropping, the intrinsic error channel, sifting, and dark counts, and
ends in one of three conclusive categories or is discarded.  Sifting is a
Bernoulli keep/discard at the protocol's conclusive rate rather than
explicit basis bookkeeping, which is exact in the asymptotic-bias limit the
rate formulas assume.  Phase errors are not sampled; the analytic side
derives them from the protocol relations.

Sampling is event-sparse.  Pulses are independent and most of them are
silent (no photon arrives and no detector fires), so a run draws only how
many of its pulses carry an arrival and how many of the rest a dark fire,
as two Binomial counts.  Every event then gets its own Bernoulli trial for
each step the tally reads, with the exact conditional probabilities of the
Poisson and Binomial laws: sifting, whether two or more photons were
emitted (by Poisson thinning into arrived and lost photons), the
eavesdropper's and the channel's bit flips, whether a dark event fired one
detector or more, and a dark count's photon class and bit.  Events are
exchangeable and trials independent, so a trial is drawn only for the
events that reach it (a discarded arrival draws no photon class or flip)
and only its number of successes is kept.  So the cost follows the number
of events rather than pulses, and nothing is drawn from the analytic
breakdown it checks.

A trial whose rarer outcome has probability below ``_GAP_MAX_P`` counts
only those outcomes, from the Geometric gaps between them.  Any other
compares each event's uniform bits, most significant first, with the binary
digits of the probability, and stops at the first bit that differs (Knuth
and Yao, 1976): each stage gives every still-undecided event one fresh bit,
64 events to a random word, and a popcount of the stage's words settles
about half of them, so a trial takes two random bits per event on average
and succeeds with probability exactly its own.  The few events left
undecided after the stages are counted by gaps.  No per-event mask or
record is stored, and a stage's words and a count's gaps are drawn in
pieces of a fixed size, so the memory a run holds does not grow with its
number of events: at most 128 KB of words or 256 KB of gaps at a time.

A run draws all its pulses from one PCG64 stream, seeded by a
``SeedSequence`` from ``seed``.
"""

import math
import operator
from typing import NamedTuple

# numpy loads numpy.random on first use, so the annotations that name it
# are quoted: importing this module leaves that to the first run
import numpy as np

from .scenario import (
    EveKind,
    Scenario,
    SourceKind,
    breakdown as analytic_breakdown,
    transmittance,
)

__all__ = [
    "EmpiricalStats",
    "FieldComparison",
    "run_simulation",
    "compare_to_analytic",
    "tally_csv",
]

# Raw words per draw of a stage, and Geometric gaps per chunk of a gap
# count: the largest arrays a run holds, whatever its size.  2**14 words
# (128 KB) are one stage of 1 048 576 events; 2**15 gaps (256 KB) are more
# than a chunk of 1e6 trials ever needs below _GAP_MAX_P (25 792), so runs
# of up to 1e6 pulses draw what they drew before the caps.
_STAGE_WORDS = 2**14
_GAP_CHUNK = 2**15
# The most pulses a run takes.  numpy draws its counts as int64, and the
# gaps of a count of up to this many trials, each capped at one more than
# the count, sum in int64 too.
_MAX_PULSES = 2**62
# Below this probability of the rarer outcome a trial is counted from
# Geometric gaps alone.  Measured against the staged route from 1e3 to 1e6
# trials (Python 3.11, numpy 2.4.6, 2 cores, medians of 150 interleaved
# calls), the two cost the same near 0.01 at 1e6 trials, near 0.025 at 1e5
# (79 vs 77 us) and near 0.035 at 5e4; at 1e4 trials gaps still cost half
# as much at 0.05.  It sits at the 1e5 break-even, below which gaps cost at
# most 3 times as much at 1e6 trials (684 vs 219 us at 0.025).
_GAP_MAX_P = 0.025
# At most this many undecided events are counted by gaps, not by stages:
# each stage costs some 4 us however few events it decides.  Summed over
# the 12 scenarios of 1e7 pulses at 0 and 50 km (20 interleaved runs),
# 512 and 1024 cost the same and 2048 cost 2% and 4096 10% more.
_TAIL = 512


# Like every record of the package, the ones here are named tuples; the rule
# and its reason are in qkdrates._record.
class EmpiricalStats(NamedTuple):
    """Tallies from one simulation run.  Adding two tallies adds them field
    by field (not the concatenation of tuples), pooling their runs.

    Nothing in the package adds tallies, since a run is one stream, but
    ``__add__`` stays: a record replaces any tuple operation that would be
    wrong for it (see ``_record``), and without it ``a + b`` would silently
    make a 20-field tuple."""

    n_pulses: int
    single_qubit: int = 0
    single_qubit_errors: int = 0
    multi_qubit: int = 0
    multi_qubit_errors: int = 0
    dark_count: int = 0
    dark_count_errors: int = 0
    single_pulse_conclusive: int = 0
    single_pulse_errors: int = 0
    empty_pulse_conclusive: int = 0

    def __add__(self, other: "EmpiricalStats") -> "EmpiricalStats":
        return EmpiricalStats._make(map(operator.add, self, other))

    @property
    def conclusive_count(self) -> int:
        return self.single_qubit + self.multi_qubit + self.dark_count

    @property
    def error_count(self) -> int:
        return (
            self.single_qubit_errors + self.multi_qubit_errors + self.dark_count_errors
        )

    @property
    def e_x_hat(self) -> float:
        """Bit error rate over all conclusive results."""
        n = self.conclusive_count
        return self.error_count / n if n else 0.0


def _successes(rng: "np.random.Generator", m: int, p: float) -> int:
    """Number of successes of ``m`` independent Bernoulli(``p``) trials, one
    per event.

    On the rarer side ``r = min(p, 1 - p)``, each event compares uniform
    bits, most significant first, with the binary digits of ``r``: stage
    ``i`` gives every still-undecided event one fresh bit, and where digit
    ``i`` of ``r`` is 1 a 0 bit succeeds, where it is 0 a 1 bit fails, and
    any other bit leaves the event undecided.  ``frac``, the digits of ``r``
    not yet read, is doubled and reduced exactly in binary64, so an event
    succeeds with probability exactly ``r``, and a fair trial takes one bit
    per event; on average a trial takes two.  Once ``frac`` is 0 every
    undecided event fails; once ``_TAIL`` or fewer are undecided they are
    counted by :func:`_gap_count` at ``frac``, or when ``frac > 1/2`` from
    the other side, at ``1 - frac``.  Below ``_GAP_MAX_P`` no stage is drawn
    and the gaps count the rare outcomes of all ``m`` events.  The count is
    taken from ``m`` when ``p > 0.5``.  ``p`` of 0 or 1, or ``m = 0``, draws
    nothing.

    Each stage draws one raw word per 64 undecided events
    (:func:`_stage_ones`): the undecided events, in their original order,
    take bit ``i % 64`` of word ``i // 64``, and the padding bits past the
    last of them are masked off.
    """
    rare = min(p, 1.0 - p)
    if rare == 0.0 or m == 0:
        return m if p > 0.5 else 0
    hits, left, frac = 0, m, rare
    while left > _TAIL and frac and rare >= _GAP_MAX_P:
        frac *= 2.0  # exact, like frac -= 1.0 below: frac < 1 before it
        ones = _stage_ones(rng.bit_generator, left)
        if frac >= 1.0:  # the digit is 1: the zeros succeed
            hits += left - ones
            left = ones
            frac -= 1.0
        else:  # the digit is 0: the ones fail
            left -= ones
    if frac > 0.5:
        hits += left - _gap_count(rng, left, 1.0 - frac)
    else:
        hits += _gap_count(rng, left, frac)
    return m - hits if p > 0.5 else hits


def _stage_ones(bits: "np.random.BitGenerator", n: int) -> int:
    """Number of 1 bits of one stage's ``n`` fresh bits: bit ``i % 64`` of
    raw word ``i // 64`` for event ``i``.  The words are drawn in pieces of
    at most ``_STAGE_WORDS``, in order, so they are the words one draw would
    give; only the last piece holds padding bits past the last event, and
    they are masked off."""
    ones, words = 0, -(-n // 64)
    while words > _STAGE_WORDS:
        ones += int(np.add.reduce(np.bitwise_count(bits.random_raw(_STAGE_WORDS))))
        words -= _STAGE_WORDS
    row = bits.random_raw(words)
    if n % 64:
        row[-1] &= (1 << n % 64) - 1
    return ones + int(np.add.reduce(np.bitwise_count(row)))


def _gap_count(rng: "np.random.Generator", n: int, q: float) -> int:
    """Number of successes of ``n`` Bernoulli(``q``) trials; ``q`` of 0, or
    ``n = 0``, draws nothing.

    The gaps between successive successes of iid trials are iid Geometric,
    so the successes lie at cumulative sums of Geometric gaps, drawn in
    chunks until they pass the last trial: each chunk holds the expected
    number of successes and five standard deviations more, or
    ``_GAP_CHUNK`` gaps if that is fewer, and never so many that the sum of
    its capped gaps passes the int64 range.
    """
    hits = 0
    if q > 0.0 and n > 0:
        chunk = min(
            int(n * q + 5.0 * math.sqrt(n * q)) + 1, _GAP_CHUNK, (2**63 - 1) // (n + 1)
        )
        last = -1  # the position before the first trial
        while last < n:
            # numpy's Geometric saturates at 2**63 - 1 for tiny q, so gaps
            # are capped before the sum; a gap of n + 1 (not n) from the
            # start still lands past the last trial
            gaps = rng.geometric(q, chunk)
            np.minimum(gaps, n + 1, out=gaps)
            past_last = np.add.accumulate(gaps, out=gaps)
            hits += int(past_last.searchsorted(n - last))
            last += int(past_last[-1])
            del gaps, past_last  # one chunk at a time: freed before the next
    return hits


def _poisson_steps(lam: float) -> tuple[float, float]:
    """``P(K >= 1)`` and ``P(K >= 2 | K >= 1)`` for ``K ~ Poisson(lam)``.

    Below a mean of 1 the second is ``s / (1 + s)`` with ``s = (e^lam - 1 -
    lam) / lam`` summed as its series, since ``expm1(lam) - lam`` cancels
    there; from 1 up it is ``1 - lam e^-lam / P(K >= 1)``, which cannot
    overflow.  A mean of 0 gives ``(0, 0)``.
    """
    if lam == 0.0:
        return 0.0, 0.0
    at_least_one = -math.expm1(-lam)
    if lam >= 1.0:
        return at_least_one, 1.0 - lam * math.exp(-lam) / at_least_one
    # terms past k = 19 are below 2**-53 of the first
    s = math.fsum(lam ** (k - 1) / math.factorial(k) for k in range(2, 20))
    return at_least_one, s / (1.0 + s)


def _multi_fire_probability(n: int, c: float) -> float:
    """``P(F >= 2 | F >= 1)`` for ``F ~ Binomial(n, c)``: the terms of ``k
    >= 2`` over those of ``k >= 1``, each divided by ``c`` so that none
    underflows where the ratio does not.  Every term is positive, so
    nothing cancels."""
    weights = [
        math.comb(n, k) * c ** (k - 1) * (1.0 - c) ** (n - k) for k in range(1, n + 1)
    ]
    return math.fsum(weights[1:]) / math.fsum(weights)


def _tally(
    scn: Scenario, eve: EveKind, n_pulses: int, rng: "np.random.Generator"
) -> EmpiricalStats:
    """Draw ``n_pulses`` pulses of ``scn`` under ``eve`` from ``rng`` and count
    their conclusive results.

    Pulses are independent, so only the number of pulses with an event is
    drawn; everything else is per-event trials, each counted by
    :func:`_successes` over the events that reach it.  Draw order:

    1. the number of arrival pulses, Binomial(``n_pulses``, ``p_arrival``);
    2. the number of dark events among the other pulses,
       Binomial(``n_pulses - arrivals``, ``p_dark_fire``);
    3. per arrival, sifting;
    4. per kept arrival, by Poisson thinning, whether two or more photons
       arrived given that one did, then, for those where not, whether one
       or more was lost: the pulse is multi-photon when either succeeds;
    5. per kept single-photon, then per kept multi-photon arrival, an
       eavesdropper flip, then an intrinsic flip of the flipped ones and of
       the others: a bit error is one flip but not both;
    6. per dark event, whether two or more detectors fired given that one
       did; per single fire, dark sifting;
    7. per kept dark count, whether a photon was lost and, for those where
       so, whether a second one was; a single-photon source's one photon
       was lost, with probability 1, which draws nothing;
    8. per kept dark count with no, one, then two or more photons, its bit.

    A trial with probability 0 or 1, or with no events, draws no random
    numbers, so the stream depends only on the scenario and the earlier
    counts.
    """
    eta = transmittance(scn.link)
    c = scn.detector.dark_count_prob
    n_det = scn.detector.detector_count
    poisson = scn.source.kind is SourceKind.POISSONIAN
    mu = scn.source.mean_photon_number
    # one or more photons were lost given an arrival, and two or more given
    # that one was
    p_lost, p_lost_again = _poisson_steps(mu * (1.0 - eta)) if poisson else (0.0, 0.0)
    p_arrival = -math.expm1(-mu * eta) if poisson else eta
    # a detector fires in the dark (0 when C = 0)
    p_dark_fire = -math.expm1(n_det * math.log1p(-c)) if c > 0.0 else 0.0
    # two or more photons arrived, given one did
    p_multi_arrived = _poisson_steps(mu * eta)[1] if poisson else 0.0
    # one or more photons were lost, given no arrival
    p_dark_lost = p_lost if poisson else 1.0
    p_keep = scn.protocol.conclusive_factor(scn.e_x_sq)  # sifting
    p_eve_flip = eve.flip_probability(scn.protocol.basis_count)
    p_flip = scn.e_x_sq  # the intrinsic error channel flips a qubit
    # two or more detectors fired, given one did
    p_multi_fire = _multi_fire_probability(n_det, c)
    p_dark_keep = scn.protocol.dark_conclusive_multiplier / n_det  # dark sifting

    n = int(rng.binomial(n_pulses, p_arrival))
    n_dark = int(rng.binomial(n_pulses - n, p_dark_fire)) if p_dark_fire > 0.0 else 0

    # a kept arrival is a single-photon qubit, or a multi-photon one if more
    # than one photon was emitted
    kept = _successes(rng, n, p_keep)
    multi = _successes(rng, kept, p_multi_arrived)
    multi += _successes(rng, kept - multi, p_lost)
    single = kept - multi
    single_errors = _flips(rng, single, p_eve_flip, p_flip)
    multi_errors = _flips(rng, multi, p_eve_flip, p_flip)

    # dark events: an empty pulse emitted only photons that were lost
    fired_once = n_dark - _successes(rng, n_dark, p_multi_fire)
    dark = _successes(rng, fired_once, p_dark_keep)
    lost = _successes(rng, dark, p_dark_lost)
    lost_again = _successes(rng, lost, p_lost_again)
    # dark counts by photon class (0, 1 or 2), and their bit errors
    classes = (dark - lost, lost - lost_again, lost_again)
    dark_errors = [_successes(rng, group, 0.5) for group in classes]

    return EmpiricalStats(
        n_pulses=n_pulses,
        single_qubit=single,
        single_qubit_errors=single_errors,
        multi_qubit=multi,
        multi_qubit_errors=multi_errors,
        dark_count=dark,
        dark_count_errors=sum(dark_errors),
        single_pulse_conclusive=single + classes[1],
        single_pulse_errors=single_errors + dark_errors[1],
        empty_pulse_conclusive=classes[0],
    )


def _flips(rng: "np.random.Generator", m: int, eve_flip: float, flip: float) -> int:
    """Bit errors of ``m`` kept arrivals: an eavesdropper flip, at
    ``eve_flip``, then an intrinsic flip, at ``flip``, of the
    eavesdropper-flipped ones and then of the others, an error where exactly
    one flip succeeded."""
    flipped = _successes(rng, m, eve_flip)
    unflipped = _successes(rng, flipped, flip)
    return flipped - unflipped + _successes(rng, m - flipped, flip)


def _count_arg(name: str, value: object, low: int) -> int:
    """``value`` as an int of at least ``low``, or a ValueError naming
    ``name``; a bool is not a count."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def run_simulation(
    scn: Scenario,
    eve: EveKind = EveKind.NONE,
    n_pulses: int = 1_000_000,
    seed: int = 0,
) -> EmpiricalStats:
    """Simulate ``n_pulses`` pulses and return their tallies.

    Deterministic for fixed ``(scn, eve, n_pulses, seed)``.  ``n_pulses``
    must be an integer from 1 to 2**62 and ``seed`` one of at least 0, or a
    ValueError names the argument.
    """
    n_pulses = _count_arg("n_pulses", n_pulses, 1)
    if n_pulses > _MAX_PULSES:
        raise ValueError(f"n_pulses must be <= 2**62, got {n_pulses}")
    seed = _count_arg("seed", seed, 0)
    # spawned at (seed, 0), where runs once drew their first batch of 2**24
    # pulses, so every run of up to 2**24 pulses keeps its tallies
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    rng = np.random.Generator(np.random.PCG64(seq))
    return _tally(scn, eve, n_pulses, rng)


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


def compare_to_analytic(
    stats: EmpiricalStats, scn: Scenario, eve: EveKind = EveKind.NONE
) -> list[FieldComparison]:
    """Z-scores of the empirical rates by origin (``p_sq``, ``p_mq``,
    ``p_dk``) and of the error rate ``e_x`` against the analytic breakdown
    with the run's eavesdropper ``eve``, using binomial standard errors at
    the analytic values (over all pulses for a rate, over the expected
    conclusive count for the error rate).

    A field whose analytic value is exactly 0 or 1 has no binomial spread:
    it scores 0 when the empirical value equals it (after clamping the
    analytic value to [0, 1]) and ``inf`` otherwise.
    """
    b = analytic_breakdown(scn, eve)
    n = stats.n_pulses
    rows = (
        ("p_sq", stats.single_qubit / n, b.p_sq, n),
        ("p_mq", stats.multi_qubit / n, b.p_mq, n),
        ("p_dk", stats.dark_count / n, b.p_dk, n),
        ("e_x", stats.e_x_hat, b.e_x, b.p_c * n),
    )
    return [
        FieldComparison(name, empirical, analytic, _z_score(empirical, analytic, trials))
        for name, empirical, analytic, trials in rows
    ]


def tally_csv(stats: EmpiricalStats) -> str:
    """Raw tallies by origin as CSV (columns: category,count,bit_errors)."""
    rows = (
        ("category", "count", "bit_errors"),
        ("single_qubit", stats.single_qubit, stats.single_qubit_errors),
        ("multi_qubit", stats.multi_qubit, stats.multi_qubit_errors),
        ("dark_count", stats.dark_count, stats.dark_count_errors),
    )
    return "".join(f"{name},{count},{errors}\n" for name, count, errors in rows)
