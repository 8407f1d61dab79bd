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
as two Binomial counts.  Each event then draws, as Bernoulli trials with
the exact conditional probabilities of the Poisson and Binomial laws, only
the classes the tally reads: whether it had no photon, one, or more (by
Poisson thinning into arrived and lost photons), and for a dark event
whether one detector fired or more.  Sifting and bit flips are Bernoulli
trials too, so the cost follows the number of events rather than pulses,
and nothing is drawn from the analytic breakdown it checks.  A Bernoulli
draw whose rarer outcome is unlikely places only those outcomes, as
Geometric gaps between them; any other takes one random byte per trial,
and the part of its probability that whole bytes cannot express goes to a
second, rare trial placed by gaps, so each event still gets its own exact
outcome.

Each batch is counted as it is drawn.  An arrival's trials are masks over
the batch's arrivals, counted and combined in place, so no per-arrival
record is stored; the few dark events are binned by photon class and bit
error.  A trial whose probability is 0 or 1 draws no random numbers, and
the common ones (sifting at a conclusive factor of 1, the flip of an absent
eavesdropper, photon loss over no distance) write no mask either.

Pulses are processed in fixed-size batches, each driven by its own PCG64
stream spawned from ``(seed, batch_index)`` by a ``SeedSequence``, so
results are bit-identical whether batches run serially or in parallel.
Each thread of a run reuses one set of scratch masks, allocated once with
headroom.
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
# Below this probability of the rarer outcome only the rare outcomes are
# placed, by Geometric gaps.  From 3e4 to 1e6 trials gaps and random bytes
# break even near 0.02; up to 0.03 the gaps cost at most 1.3 times the bytes.
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


class _Scratch:
    """Scratch masks of one thread, reused batch after batch.

    A mask is allocated when it is first asked for, with headroom for the
    spread of its size between batches, so a thread maps and faults its
    memory in once per run rather than once per batch; the masks go when the
    scratch does, at the end of the run.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, n: int, dtype: type = np.bool_) -> np.ndarray:
        """The first ``n`` entries of buffer ``name``, holding whatever an
        earlier batch left there."""
        buf = self._buffers.get(name)
        if buf is None or buf.size < n:
            # a batch's event counts are Binomial, with a standard deviation
            # below sqrt(n): 8 sqrt(n) of headroom holds the run's later
            # batches, and as only touched pages are resident, costs little
            buf = self._buffers[name] = np.empty(n + 8 * math.isqrt(n), dtype)
        return buf[:n]


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
    On the rarer side ``r = min(p, 1 - p)``, with ``k = floor(256 r)``, a
    trial succeeds when ``b < k`` and otherwise through an independent trial
    of probability ``q = (256 r - k) / (256 - k)``, below 1/128 as ``k <=
    128``, placed by :func:`_place_gaps`.  So it succeeds with probability
    ``k/256 + (1 - k/256) q = r``, exact to the rounding of ``q``; the mask
    is inverted when ``p > 0.5``.
    """
    n = out.size
    rare = min(p, 1.0 - p)
    b = rng.bit_generator.random_raw(-(-n // 8)).view(np.uint8)[:n]
    scaled = 256.0 * rare  # exact: a power-of-two scale
    k = int(scaled)
    np.less(b, k, out=out)
    _place_gaps(rng, (scaled - k) / (256 - k), out)
    if p > 0.5:
        np.logical_not(out, out=out)
    return out


def _bernoulli_gaps(rng: np.random.Generator, p: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with Bernoulli(``p``) trials by placing only the rarer
    outcomes (:func:`_place_gaps`)."""
    out.fill(False)
    _place_gaps(rng, min(p, 1.0 - p), out)
    if p > 0.5:
        np.logical_not(out, out=out)
    return out


def _place_gaps(rng: np.random.Generator, q: float, out: np.ndarray) -> None:
    """Set the entries of ``out`` at which Bernoulli(``q``) trials succeed,
    leaving the others as they are; ``q`` of 0, or an empty ``out``, draws
    nothing.

    The gaps between successive successes of iid trials are iid Geometric,
    so their positions are cumulative sums of Geometric gaps, drawn in
    chunks until they pass the last trial.
    """
    n = out.size
    if q > 0.0 and n > 0:
        chunk = int(n * q + 5.0 * math.sqrt(n * q)) + 1
        last = -1  # the position before the first trial
        while last < n:
            # numpy's Geometric saturates at 2**63 - 1 for tiny q, so gaps
            # are capped before the sum; a gap of n + 1 (not n) from the
            # start still lands past the last trial
            positions = rng.geometric(q, chunk)
            np.minimum(positions, n + 1, out=positions)
            np.cumsum(positions, out=positions)
            positions += last
            out[positions[: np.searchsorted(positions, n)]] = True
            last = int(positions[-1])


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


class _Draws(NamedTuple):
    """The probabilities of a run's draws.  They depend only on the scenario
    and the eavesdropper, so a run works them out once."""

    arrival: float  # a pulse carries an arrival
    dark_fire: float  # a detector fires in the dark (0 when C = 0)
    poisson: bool
    multi_arrived: float  # two or more photons arrived, given one did
    lost: float  # one or more photons were lost
    lost_again: float  # two or more were lost, given one was
    keep: float  # sifting keeps an arrival
    eve_flip: float
    flip: float  # the intrinsic error channel flips a qubit
    multi_fire: float  # two or more detectors fired, given one did
    dark_keep: float  # dark sifting keeps a single fire


def _draws(scn: Scenario, eve: EveKind) -> _Draws:
    eta = transmittance(scn.link)
    c = scn.detector.dark_count_prob
    n_det = scn.detector.detector_count
    poisson = scn.source.kind is SourceKind.POISSONIAN
    mu = scn.source.mean_photon_number
    lost, lost_again = _poisson_steps(mu * (1.0 - eta)) if poisson else (0.0, 0.0)
    return _Draws(
        arrival=-math.expm1(-mu * eta) if poisson else eta,
        dark_fire=-math.expm1(n_det * math.log1p(-c)) if c > 0.0 else 0.0,
        poisson=poisson,
        multi_arrived=_poisson_steps(mu * eta)[1] if poisson else 0.0,
        lost=lost,
        lost_again=lost_again,
        keep=scn.protocol.conclusive_factor(scn.e_x_sq),
        eve_flip=eve.flip_probability(scn.protocol.basis_count),
        flip=scn.e_x_sq,
        multi_fire=_multi_fire_probability(n_det, c),
        dark_keep=scn.protocol.dark_conclusive_multiplier / n_det,
    )


def _count_batch(
    d: _Draws, size: int, rng: np.random.Generator, scratch: _Scratch
) -> EmpiricalStats:
    """Draw one batch of ``size`` pulses and count its conclusive results.

    Pulses are independent, so only the number of pulses with an event is
    drawn per batch; everything else is drawn per event, by :func:`_bernoulli`
    trials that settle the photon class and fire class rather than the
    counts.  Each trial's outcome lives in a scratch mask only until it is
    counted.  Draw order:

    1. the number of arrival pulses, Binomial(``size``, ``d.arrival``);
    2. the number of dark events among the other pulses,
       Binomial(``size - arrivals``, ``d.dark_fire``);
    3. per arrival (Poisson source), by Poisson thinning, whether two or
       more photons arrived given that one did, then whether one or more
       was lost; the pulse is multi-photon when either trial succeeds;
    4. per arrival, sifting, an eavesdropper flip and an intrinsic flip; the
       flips are independent of sifting and count only on kept arrivals;
    5. per dark event, whether two or more detectors fired given that one
       did and, for a Poisson source, whether a photon was lost and, if so,
       whether a second one was;
    6. per single fire, dark sifting, then the random bit of the kept ones.

    A draw with probability 0 or 1 takes no random numbers, so the stream
    depends on the scenario but not on how batches are scheduled, on what
    the scratch held before, or on which such draws skip their mask too
    (sifting at a conclusive factor of 1, no eavesdropper, no photon loss).
    """
    n = int(rng.binomial(size, d.arrival))
    n_dark = int(rng.binomial(size - n, d.dark_fire)) if d.dark_fire > 0.0 else 0

    # a kept arrival is SINGLE_QUBIT, or MULTI_QUBIT if more than one photon
    # was emitted; the lost trial borrows the mask the flips overwrite later
    multi = kept = eve_flips = None
    if d.poisson:
        multi = _bernoulli(rng, n, d.multi_arrived, scratch.take("multi", n))
        if d.lost > 0.0:
            multi |= _bernoulli(rng, n, d.lost, scratch.take("errors", n))
    if d.keep < 1.0:
        kept = _bernoulli(rng, n, d.keep, scratch.take("kept", n))
        if multi is not None:
            multi &= kept
    if d.eve_flip > 0.0:
        eve_flips = _bernoulli(rng, n, d.eve_flip, scratch.take("eve", n))
    errors = _bernoulli(rng, n, d.flip, scratch.take("errors", n))
    if eve_flips is not None:
        errors ^= eve_flips
    if kept is not None:
        errors &= kept
    n_kept = n if kept is None else int(np.count_nonzero(kept))
    n_errors = int(np.count_nonzero(errors))
    n_multi = n_multi_errors = 0
    if multi is not None:
        n_multi = int(np.count_nonzero(multi))
        np.logical_and(errors, multi, out=errors)
        n_multi_errors = int(np.count_nonzero(errors))

    # dark events: an empty pulse emitted only photons that were lost
    mask = _bernoulli(rng, n_dark, d.multi_fire, scratch.take("dark", n_dark))
    single = np.flatnonzero(np.logical_not(mask, out=mask))
    if d.poisson:
        photons = scratch.take("dark_photons", n_dark, np.int8)
        again = np.flatnonzero(_bernoulli(rng, n_dark, d.lost, photons.view(np.bool_)))
        lost_again = _bernoulli(rng, again.size, d.lost_again, mask[: again.size])
        photons[again[lost_again]] = 2
    dark_kept = single[_bernoulli(rng, single.size, d.dark_keep, mask[: single.size])]
    bits = _bernoulli(rng, dark_kept.size, 0.5, mask[: dark_kept.size])
    # dark counts by photon class (0, 1 or 2) and bit error; a single-photon
    # source's one photon was lost
    classes = photons[dark_kept] if d.poisson else 1
    dark = np.bincount(classes * 2 + bits, minlength=6).reshape(3, 2)

    n_single, n_single_errors = n_kept - n_multi, n_errors - n_multi_errors
    return EmpiricalStats(
        n_pulses=size,
        cat1_count=n_single,
        cat1_errors=n_single_errors,
        cat2_count=n_multi,
        cat2_errors=n_multi_errors,
        cat4_count=int(dark_kept.size),
        cat4_errors=int(dark[:, 1].sum()),
        single_pulse_conclusive=n_single + int(dark[1].sum()),
        single_pulse_errors=n_single_errors + int(dark[1, 1]),
        empty_pulse_conclusive=int(dark[0].sum()),
        empty_pulse_errors=int(dark[0, 1]),
    )


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
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    # batch indices: a batch's size follows from its index when it is drawn
    n_batches = -(-n_pulses // batch_size)
    jobs = range(n_batches)
    threads = min(workers, os.cpu_count() or 1, n_batches)
    draws = _draws(scn, eve)

    def run_share(share: range) -> EmpiricalStats:
        # one set of scratch masks per thread, reused by each of its batches
        scratch = _Scratch()
        total = EmpiricalStats(n_pulses=0)
        for index in share:
            size = min(batch_size, n_pulses - index * batch_size)
            total += _count_batch(draws, size, _batch_rng(seed, index), scratch)
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
