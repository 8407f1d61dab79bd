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
(zero-truncated Poisson and Binomial, sampled by inverse CDF), so the cost
follows the number of events rather than pulses, and nothing is drawn from
the analytic breakdown it checks.  A Bernoulli draw whose rarer outcome is
unlikely places only those outcomes, as Geometric gaps between them, so each
event still gets its own exact outcome.  Arrivals are tallied by counting
and dark events by a bincount over their categories.

Pulses are processed in fixed-size batches, each driven by its own PCG64
stream spawned from ``(seed, batch_index)`` by a ``SeedSequence``, so
results are bit-identical whether batches run serially or in parallel.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import Enum, IntEnum

import numpy as np

from .keyrate import RateBreakdown
from .scenario import (
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
    "EveKind",
    "EveModel",
    "EmpiricalStats",
    "EmpiricalBreakdown",
    "FieldComparison",
    "DecoyRecovery",
    "run_simulation",
    "empirical_breakdown",
    "compare_to_analytic",
    "simulate_decoy_run",
    "recover_single_photon_rates",
    "tally_csv",
]

DEFAULT_BATCH_SIZE = 1_000_000
MIN_CATEGORY_COUNT = 100
# numpy draws no Poisson count with a mean above about 9.2e18
MAX_MEAN_PHOTON_NUMBER = 1e18
# Above this mean a Poisson count is zero with probability below 1e-13.
_ZTP_TABLE_MAX_LAM = 30.0
# Below this probability of the rarer outcome, Geometric gaps between the
# rare outcomes cost less than one uniform per trial (at a million trials
# the two break even near 0.15-0.2).
_GAP_MAX_P = 0.1


class Category(IntEnum):
    NOT_CONCLUSIVE = 0
    SINGLE_QUBIT = 1
    MULTI_QUBIT = 2
    EMPTY_QUBIT = 3
    DARK_COUNT = 4


_CSV_NAMES = {
    Category.SINGLE_QUBIT: "single_qubit",
    Category.MULTI_QUBIT: "multi_qubit",
    Category.EMPTY_QUBIT: "empty_qubit",
    Category.DARK_COUNT: "dark_count",
}


class EveKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"


@dataclass(frozen=True)
class EveModel:
    """Eavesdropping strategy applied to arriving qubits.

    Intercept-resend measures each qubit in a uniformly random protocol
    basis and forwards the outcome: a mismatched basis (probability
    ``1 - 1/basis_count``) randomizes the receiver's bit, flipping it with
    probability 1/2.
    """

    kind: EveKind = EveKind.NONE

    @classmethod
    def none(cls) -> "EveModel":
        return cls(kind=EveKind.NONE)

    @classmethod
    def intercept_resend(cls) -> "EveModel":
        return cls(kind=EveKind.INTERCEPT_RESEND)

    def flip_probability(self, basis_count: int) -> float:
        if self.kind is EveKind.NONE:
            return 0.0
        return (1.0 - 1.0 / basis_count) / 2.0


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

    def rate_se(self, cat: Category) -> float:
        """Binomial standard error of :meth:`rate`."""
        p = self.rate(cat)
        return math.sqrt(p * (1.0 - p) / self.n_pulses)

    @property
    def e_x_hat(self) -> float:
        """Bit error rate over all conclusive results."""
        n = self.conclusive_count
        return self.error_count / n if n else 0.0

    @property
    def e_x_se(self) -> float:
        n = self.conclusive_count
        if n == 0:
            return 0.0
        p = self.e_x_hat
        return math.sqrt(p * (1.0 - p) / n)


class _Events:
    """Per-pulse photon numbers, dark fires, category and bit error.

    :func:`_sample_events` fills one with only the pulses of a batch that
    carry an event: ``n_arrivals`` arrival events first, then the dark
    events.  Arrival events have ``arrived >= 1`` and click one detector;
    dark events have ``arrived == 0`` and ``fired >= 1`` dark fires
    (``fired`` is 0 for arrivals).  Every other pulse is silent (nothing
    arrived, no detector fired, not conclusive) and is not stored.  A fresh
    instance holds one emitted photon, no arrival, no fire and no conclusive
    result per entry.  A plain class, not a dataclass, because it is built
    per batch and not compared.
    """

    __slots__ = ("n_arrivals", "emitted", "arrived", "fired", "category", "bit_error")

    def __init__(self, n_arrivals: int, n_dark: int) -> None:
        self.n_arrivals = n_arrivals
        n = n_arrivals + n_dark
        self.emitted = np.ones(n, dtype=np.int64)
        self.arrived = np.zeros(n, dtype=np.int64)
        self.fired = np.zeros(n, dtype=np.int8)
        self.category = np.zeros(n, dtype=np.int8)
        self.bit_error = np.zeros(n, dtype=bool)


def _bernoulli(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Mask of ``n`` independent Bernoulli(``p``) trials.

    When the rarer outcome has probability below ``_GAP_MAX_P``, only its
    positions are drawn: the gaps between successive rare outcomes of iid
    trials are iid Geometric, so the positions are cumulative sums of
    Geometric gaps, drawn in chunks until they pass ``n``.  Otherwise one
    uniform is drawn per trial.  ``p`` of 0 or 1, or ``n = 0``, draws
    nothing.
    """
    rare = min(p, 1.0 - p)
    if rare >= _GAP_MAX_P:
        return rng.random(n) < p
    mask = np.zeros(n, dtype=bool)
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
            mask[positions[: np.searchsorted(positions, n)]] = True
            last = int(positions[-1])
    if p > 0.5:
        np.logical_not(mask, out=mask)
    return mask


def _inverse_cdf(rng: np.random.Generator, pmf: np.ndarray, size: int) -> np.ndarray:
    """Draw ``size`` values ``k`` in ``1..len(pmf)`` with ``P(k) = pmf[k-1]``.

    One uniform per draw, compared against the cumulative bounds in turn
    (a chop-down search: each step only revisits the draws still above the
    last bound, so mass concentrated at ``k = 1`` costs one pass).  A
    single-valued pmf draws nothing.
    """
    values = np.ones(size, dtype=np.int64)
    if pmf.size == 1:
        return values
    u = rng.random(size)
    cdf = np.cumsum(pmf[:-1])
    live = np.flatnonzero(u >= cdf[0])
    for bound in cdf[1:]:
        if not live.size:
            break
        values[live] += 1
        live = live[u[live] >= bound]
    values[live] += 1
    return values


def _zero_truncated_poisson(
    rng: np.random.Generator, lam: float, size: int
) -> np.ndarray:
    """Poisson(``lam``) counts conditioned on being at least 1."""
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    if lam > _ZTP_TABLE_MAX_LAM:
        # the table would be long and zeros are rare: redraw them instead
        counts = rng.poisson(lam, size)
        while (zeros := np.flatnonzero(counts == 0)).size:
            counts[zeros] = rng.poisson(lam, zeros.size)
        return counts
    # the table ends where the Poisson tail is far below double precision
    k = np.arange(1, int(lam + 12.0 * math.sqrt(lam)) + 25)
    # lam^k / k! / (e^lam - 1), exact for tiny lam
    return _inverse_cdf(rng, np.cumprod(lam / k) / math.expm1(lam), size)


def _zero_truncated_binomial(
    rng: np.random.Generator, n: int, p: float, size: int
) -> np.ndarray:
    """Binomial(``n``, ``p``) counts conditioned on being at least 1."""
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    k = np.arange(1, n + 1)
    pmf = np.array([math.comb(n, int(j)) for j in k]) * p**k * (1.0 - p) ** (n - k)
    return _inverse_cdf(rng, pmf / -math.expm1(n * math.log1p(-p)), size)


def _sample_events(
    scn: Scenario, eve: EveModel, size: int, rng: np.random.Generator
) -> _Events:
    """Sample the events of one batch of ``size`` pulses.

    Pulses are independent, so only the number of pulses with an event is
    drawn per batch; everything else is drawn per event.  Draw order:

    1. the number of arrival pulses, Binomial(``size``, ``p``) with
       ``p = eta`` (single photon) or ``1 - exp(-mu*eta)`` (Poisson);
    2. the number of dark events among the other pulses,
       Binomial(``size - arrivals``, ``1 - (1-C)^n_det``);
    3. per arrival (Poisson source), a zero-truncated Poisson(``mu*eta``)
       arrived count and an independent Poisson(``mu*(1-eta)``) lost count
       (Poisson thinning);
    4. per arrival, sifting, an eavesdropper flip and an intrinsic flip,
       each by :func:`_bernoulli`; the flips are independent of sifting
       and count only on kept arrivals;
    5. per dark event, a zero-truncated Binomial(``n_det``, ``C``) fire
       count and, for a Poisson source, the lost count;
    6. per single fire, dark sifting, then the random bit of the kept ones,
       each by :func:`_bernoulli`.

    Draws with probability 0 or 1 are skipped, so the stream depends on the
    scenario but not on how batches are scheduled.
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
    ev = _Events(n_arr, n_dark)
    arr, dark = slice(0, n_arr), slice(n_arr, None)

    if poisson:
        ev.arrived[arr] = _zero_truncated_poisson(rng, mu * eta, n_arr)
        ev.emitted[arr] = ev.arrived[arr]
        if eta < 1.0:
            ev.emitted[arr] += rng.poisson(mu * (1.0 - eta), n_arr)
    else:
        ev.arrived[arr] = 1
    kept = _bernoulli(rng, n_arr, cf)
    # a kept qubit is SINGLE_QUBIT (1), or MULTI_QUBIT (2) if more was emitted
    ev.category[arr] = kept
    if poisson:
        ev.category[arr] += kept & (ev.emitted[arr] > 1)
    flips = ev.bit_error[arr]  # a view, filled in place
    np.logical_xor(
        _bernoulli(rng, n_arr, eve_flip_p), _bernoulli(rng, n_arr, scn.e_x_sq), out=flips
    )
    flips &= kept

    ev.fired[dark] = _zero_truncated_binomial(rng, n_det, c, n_dark)
    if poisson:
        # an empty pulse emitted only photons that were lost
        ev.emitted[dark] = rng.poisson(mu * (1.0 - eta), n_dark) if eta < 1.0 else 0
    single = n_arr + np.flatnonzero(ev.fired[dark] == 1)
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
    eve: EveModel = EveModel.none(),
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
    sizes = [
        min(batch_size, n_pulses - start) for start in range(0, n_pulses, batch_size)
    ]

    def one_batch(index_size: tuple[int, int]) -> EmpiricalStats:
        index, size = index_size
        return _tally(size, _sample_events(scn, eve, size, _batch_rng(seed, index)))

    jobs = list(enumerate(sizes))
    threads = min(workers, os.cpu_count() or 1, len(jobs))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one_batch, jobs))
    else:
        parts = [one_batch(job) for job in jobs]

    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


@dataclass(frozen=True)
class EmpiricalBreakdown:
    """Rate breakdown estimated from tallies, with standard errors.

    ``breakdown`` is ``None`` when no pulse was conclusive.  ``insufficient``
    flags runs where some populated category has fewer than 100 counts (or
    nothing was conclusive at all).
    """

    breakdown: RateBreakdown | None
    stderr: dict[str, float]
    insufficient: bool


def empirical_breakdown(stats: EmpiricalStats) -> EmpiricalBreakdown:
    """Convert tallies to per-pulse rates with binomial standard errors."""
    n = stats.n_pulses
    n_c = stats.conclusive_count
    counts = [
        stats.category_count(cat)
        for cat in (
            Category.SINGLE_QUBIT,
            Category.MULTI_QUBIT,
            Category.EMPTY_QUBIT,
            Category.DARK_COUNT,
        )
    ]
    insufficient = n_c == 0 or any(0 < cnt < MIN_CATEGORY_COUNT for cnt in counts)
    if n_c == 0:
        return EmpiricalBreakdown(breakdown=None, stderr={}, insufficient=True)

    e_x_sq = stats.cat1_errors / stats.cat1_count if stats.cat1_count else 0.0
    b = RateBreakdown(
        p_emp=stats.cat3_count / n,
        p_sq=stats.cat1_count / n,
        p_mq=stats.cat2_count / n,
        p_dk=stats.cat4_count / n,
        omega0=stats.empty_pulse_conclusive / n_c,
        omega1=stats.single_pulse_conclusive / n_c,
        e_x=stats.e_x_hat,
        e_x_sq=e_x_sq,
    )

    stderr = {
        "p_sq": stats.rate_se(Category.SINGLE_QUBIT),
        "p_mq": stats.rate_se(Category.MULTI_QUBIT),
        "p_emp": stats.rate_se(Category.EMPTY_QUBIT),
        "p_dk": stats.rate_se(Category.DARK_COUNT),
        "e_x": stats.e_x_se,
        "e_x_sq": math.sqrt(e_x_sq * (1.0 - e_x_sq) / stats.cat1_count)
        if stats.cat1_count
        else 0.0,
    }
    return EmpiricalBreakdown(breakdown=b, stderr=stderr, insufficient=insufficient)


@dataclass(frozen=True)
class FieldComparison:
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
            EveModel.none(),
            n_pulses,
            seed,
            batch_size=batch_size,
            workers=workers,
        )
    return results


@dataclass(frozen=True)
class DecoyRecovery:
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
    for cat, name in _CSV_NAMES.items():
        lines.append(
            f"{name},{stats.category_count(cat)},{stats.category_errors(cat)}"
        )
    return "\n".join(lines) + "\n"
