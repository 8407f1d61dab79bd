"""Monte Carlo pulse-level simulator used as an oracle for the analytic
breakdowns.

Each pulse is sampled through emission, channel loss, optional
intercept-resend eavesdropping, the intrinsic error channel, sifting, and
dark counts, then classified into one of four conclusive categories (or
discarded).  Sifting is a Bernoulli keep/discard at the protocol's
conclusive rate rather than explicit basis bookkeeping, which is exact in
the asymptotic-bias limit the rate formulas assume.  Phase errors are not
sampled; the analytic side derives them from the protocol relations.

Pulses are processed in fixed-size batches, each driven by its own
counter-based Philox stream derived from ``(seed, batch_index)``, so
results are bit-identical whether batches run serially or in parallel.
"""

from __future__ import annotations

import math
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
    intrinsic_error_from_decoy,
    transmittance,
)

__all__ = [
    "Category",
    "EveKind",
    "EveModel",
    "PulseOutcome",
    "EmpiricalStats",
    "EmpiricalBreakdown",
    "FieldComparison",
    "DecoyRecovery",
    "run_simulation",
    "sample_outcomes",
    "empirical_breakdown",
    "compare_to_analytic",
    "simulate_decoy_run",
    "recover_single_photon_rates",
    "tally_csv",
]

DEFAULT_BATCH_SIZE = 1_000_000
MIN_CATEGORY_COUNT = 100


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
class PulseOutcome:
    """Fate of a single pulse, for inspection and invariant checks."""

    emitted_photons: int
    arrived_photons: int
    detector_fired: tuple[bool, ...]
    category: Category
    bit_error: bool | None


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


def _simulate_arrays(scn: Scenario, eve: EveModel, size: int, rng: np.random.Generator):
    """Sample one batch; returns (emitted, arrived, fired_count, category,
    bit_error) arrays.

    Draw order is fixed per batch: photon numbers, sifting, eavesdropper
    flips, intrinsic flips, dark-count fires, dark sifting, dark bits.
    Draws with probability 0 or 1 are skipped, so the stream depends on the
    scenario but not on how batches are scheduled.
    """
    eta = transmittance(scn.link)
    cf = scn.protocol.conclusive_factor(scn.e_x_sq)
    c = scn.detector.dark_count_prob
    n_det = scn.detector.detector_count
    dark_keep = scn.protocol.dark_conclusive_multiplier / n_det
    eve_flip_p = eve.flip_probability(scn.protocol.basis_count)

    if scn.source.kind is SourceKind.SINGLE_PHOTON:
        emitted = np.ones(size, dtype=np.int64)
        arrived = (rng.random(size) < eta).astype(np.int64)
    else:
        # Poisson thinning: arriving and lost photon counts are independent.
        mu = scn.source.mean_photon_number
        arrived = rng.poisson(mu * eta, size)
        lost = rng.poisson(mu * (1.0 - eta), size)
        emitted = arrived + lost

    category = np.zeros(size, dtype=np.int8)
    bit_error = np.zeros(size, dtype=bool)
    fired_count = np.zeros(size, dtype=np.int8)

    qubit_idx = np.nonzero(arrived >= 1)[0]
    if qubit_idx.size:
        if cf < 1.0:
            kept = qubit_idx[rng.random(qubit_idx.size) < cf]
        else:
            kept = qubit_idx
        if kept.size:
            category[kept] = np.where(
                emitted[kept] == 1, Category.SINGLE_QUBIT, Category.MULTI_QUBIT
            )
            flips = np.zeros(kept.size, dtype=bool)
            if eve_flip_p > 0.0:
                flips ^= rng.random(kept.size) < eve_flip_p
            if scn.e_x_sq > 0.0:
                flips ^= rng.random(kept.size) < scn.e_x_sq
            bit_error[kept] = flips

    empty_idx = np.nonzero(arrived == 0)[0]
    if empty_idx.size and c > 0.0:
        fires = rng.binomial(n_det, c, empty_idx.size)
        fired_count[empty_idx] = fires.astype(np.int8)
        single_fire = empty_idx[fires == 1]
        if single_fire.size:
            if dark_keep < 1.0:
                dark_kept = single_fire[rng.random(single_fire.size) < dark_keep]
            else:
                dark_kept = single_fire
            if dark_kept.size:
                category[dark_kept] = Category.DARK_COUNT
                bit_error[dark_kept] = rng.random(dark_kept.size) < 0.5

    return emitted, arrived, fired_count, category, bit_error


def _tally(n_pulses, emitted, category, bit_error) -> EmpiricalStats:
    values: dict[str, int] = {"n_pulses": n_pulses}
    for cat in (
        Category.SINGLE_QUBIT,
        Category.MULTI_QUBIT,
        Category.EMPTY_QUBIT,
        Category.DARK_COUNT,
    ):
        mask = category == cat
        values[f"cat{int(cat)}_count"] = int(mask.sum())
        values[f"cat{int(cat)}_errors"] = int(bit_error[mask].sum())
    conclusive = category != Category.NOT_CONCLUSIVE
    single = conclusive & (emitted == 1)
    empty = conclusive & (emitted == 0)
    values["single_pulse_conclusive"] = int(single.sum())
    values["single_pulse_errors"] = int(bit_error[single].sum())
    values["empty_pulse_conclusive"] = int(empty.sum())
    values["empty_pulse_errors"] = int(bit_error[empty].sum())
    return EmpiricalStats(**values)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.Philox(seq))


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
    result.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    sizes = [
        min(batch_size, n_pulses - start) for start in range(0, n_pulses, batch_size)
    ]

    def one_batch(index_size: tuple[int, int]) -> EmpiricalStats:
        index, size = index_size
        rng = _batch_rng(seed, index)
        emitted, _, _, category, bit_error = _simulate_arrays(scn, eve, size, rng)
        return _tally(size, emitted, category, bit_error)

    jobs = list(enumerate(sizes))
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one_batch, jobs))
    else:
        parts = [one_batch(job) for job in jobs]

    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def sample_outcomes(
    scn: Scenario, eve: EveModel, n_pulses: int, seed: int
) -> list[PulseOutcome]:
    """Materialize per-pulse outcomes for inspection (single batch only).

    Tallies over the outcomes match ``run_simulation`` for the same seed
    whenever ``n_pulses <= DEFAULT_BATCH_SIZE``.  Detector flags are
    reconstructed from the sampled fire counts with an auxiliary stream:
    which detector fired is uniform given the count, and never feeds back
    into categories or bit values.
    """
    if not 1 <= n_pulses <= DEFAULT_BATCH_SIZE:
        raise ValueError(f"n_pulses must be in [1, {DEFAULT_BATCH_SIZE}]")
    rng = _batch_rng(seed, 0)
    emitted, arrived, fired_count, category, bit_error = _simulate_arrays(
        scn, eve, n_pulses, rng
    )
    aux = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0, 1)))
    )
    n_det = scn.detector.detector_count
    outcomes = []
    for i in range(n_pulses):
        cat = Category(int(category[i]))
        if arrived[i] >= 1:
            # detection precedes sifting, so one detector fires either way
            fired = [False] * n_det
            fired[int(aux.integers(n_det))] = True
        else:
            k = int(fired_count[i])
            fired = [False] * n_det
            for j in aux.choice(n_det, size=k, replace=False):
                fired[int(j)] = True
        outcomes.append(
            PulseOutcome(
                emitted_photons=int(emitted[i]),
                arrived_photons=int(arrived[i]),
                detector_fired=tuple(fired),
                category=cat,
                bit_error=bool(bit_error[i])
                if cat is not Category.NOT_CONCLUSIVE
                else None,
            )
        )
    return outcomes


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

    e_x = stats.error_count / n_c
    e_x_sq = stats.cat1_errors / stats.cat1_count if stats.cat1_count else 0.0
    b = RateBreakdown(
        p_emp=stats.cat3_count / n,
        p_sq=stats.cat1_count / n,
        p_mq=stats.cat2_count / n,
        p_dk=stats.cat4_count / n,
        omega0=stats.empty_pulse_conclusive / n_c,
        omega1=stats.single_pulse_conclusive / n_c,
        e_x=e_x,
        e_x_sq=e_x_sq,
    )

    def rate_se(count: int) -> float:
        p = count / n
        return math.sqrt(p * (1.0 - p) / n)

    stderr = {
        "p_sq": rate_se(stats.cat1_count),
        "p_mq": rate_se(stats.cat2_count),
        "p_emp": rate_se(stats.cat3_count),
        "p_dk": rate_se(stats.cat4_count),
        "e_x": math.sqrt(e_x * (1.0 - e_x) / n_c),
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


def compare_to_analytic(stats: EmpiricalStats, scn: Scenario) -> list[FieldComparison]:
    """Z-scores of empirical category rates and error rate against the
    analytic breakdown, using binomial standard errors at the analytic
    values.

    A field whose analytic value is exactly 0 or 1 has no binomial spread:
    it scores 0 when the empirical value equals it and ``inf`` otherwise.
    """
    b = analytic_breakdown(scn)
    n = stats.n_pulses
    rows = []
    for name, cat, analytic in (
        ("p_sq", Category.SINGLE_QUBIT, b.p_sq),
        ("p_mq", Category.MULTI_QUBIT, b.p_mq),
        ("p_emp", Category.EMPTY_QUBIT, b.p_emp),
        ("p_dk", Category.DARK_COUNT, b.p_dk),
    ):
        empirical = stats.rate(cat)
        if analytic <= 0.0 or analytic >= 1.0:
            z = 0.0 if empirical == min(max(analytic, 0.0), 1.0) else math.inf
        else:
            z = (empirical - analytic) / math.sqrt(analytic * (1.0 - analytic) / n)
        rows.append(FieldComparison(name, empirical, analytic, z))

    expected_conclusive = b.p_c * n
    se = math.sqrt(max(b.e_x * (1.0 - b.e_x), 1e-300) / expected_conclusive)
    if b.e_x in (0.0, 1.0):
        z = 0.0 if stats.e_x_hat == b.e_x else math.inf
    else:
        z = (stats.e_x_hat - b.e_x) / se
    rows.append(FieldComparison("e_x", stats.e_x_hat, b.e_x, z))
    return rows


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
    p_sq, e_raw = decoy_invert(w_hat, e_x_1, mu, eta, c)

    p1 = math.exp(-mu) * mu
    p_sq_se = math.sqrt(w_hat * (1.0 - w_hat) / n)
    e_raw_se = math.sqrt(q_hat * (1.0 - q_hat) / n) / (p1 * eta)
    e_x_sq = intrinsic_error_from_decoy(scn.protocol, e_raw)
    # Chain rule through 2r/(1+r); identity slope for factor-1 protocols.
    slope = 2.0 / (1.0 + e_raw) ** 2 if scn.protocol.name == "pbc00" else 1.0
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
