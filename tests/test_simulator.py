"""Tests for the Monte Carlo pulse simulator against analytic predictions."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from conftest import (
    DARK_COUNT,
    DISCARDED,
    MULTI_QUBIT,
    SINGLE_QUBIT,
    full_key_tally,
    gap_positions,
    reference_trials,
    sample_events,
    stage_bits,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdrates import simulator
from qkdrates.cli import main
from qkdrates.decoy import recover_single_photon_rates
from qkdrates.protocols import BB84, PBC00, SIX_STATE
from qkdrates.scenario import (
    DetectorModel,
    EveKind,
    LinkModel,
    Scenario,
    SourceModel,
    breakdown,
    transmittance,
)
from qkdrates.simulator import (
    EmpiricalStats,
    compare_to_analytic,
    run_simulation,
    tally_csv,
)


def make_scenario(spec=BB84, source=None, length=50.0, c=1e-5, e_x_sq=0.05):
    return Scenario(
        protocol=spec,
        source=source or SourceModel.single_photon(),
        link=LinkModel(attenuation_db_per_km=0.2, length_km=length),
        detector=DetectorModel(dark_count_prob=c, detector_count=spec.detector_count),
        e_x_sq=e_x_sq,
    )


def count_run(scn, eve, n_pulses, seed):
    """Counts of ``n_pulses`` pulses drawn as ``run_simulation`` draws them,
    from ``default_rng(seed)``."""
    return simulator._tally(scn, eve, n_pulses, np.random.default_rng(seed))


def reference_events(scn, eve, size, seed):
    """The reference sampler's events of the same pulses."""
    return sample_events(scn, eve, size, np.random.default_rng(seed))


def run_stream(seed):
    """The one generator a run with ``seed`` draws from."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    return np.random.Generator(np.random.PCG64(seq))


# Whole tallies of 1e6-pulse runs, read from the simulator when a run was
# last drawn differently (a change that moves a stream updates them and says
# so): BB84 single photon at 50 km; criterion 8's scenario, whose
# multi-photon trial (p = 0.0248) is counted by gaps; PBC00 Poisson at 0 km;
# six-state single photon at 0 km under intercept-resend
PINNED_TALLIES = [
    (
        make_scenario(),
        EveKind.NONE,
        11,
        (1000000, 100428, 4933, 0, 0, 20, 9, 100448, 4942, 0),
    ),
    (
        make_scenario(source=SourceModel.poissonian(0.5), c=1e-6, e_x_sq=0.01),
        EveKind.NONE,
        12,
        (1000000, 30350, 283, 18632, 192, 1, 0, 30351, 283, 0),
    ),
    (
        make_scenario(PBC00, source=SourceModel.poissonian(0.5), length=0.0),
        EveKind.NONE,
        13,
        (1000000, 155768, 7848, 45990, 2355, 9, 2, 155768, 7848, 9),
    ),
    (
        make_scenario(SIX_STATE, length=0.0),
        EveKind.INTERCEPT_RESEND,
        14,
        (1000000, 1000000, 349594, 0, 0, 0, 0, 1000000, 349594, 0),
    ),
]


class TestDeterminism:
    @pytest.mark.parametrize(
        ("scn", "eve", "seed", "want"),
        PINNED_TALLIES,
        ids=["bb84-single-50km", "bb84-poisson-50km", "pbc00-poisson-0km",
             "six-state-single-0km-intercept-resend"],
    )  # fmt: skip
    def test_pinned_tallies(self, scn, eve, seed, want):
        # a kernel change that moves the stream, or any tally, fails here
        assert run_simulation(scn, eve, 1_000_000, seed=seed) == EmpiricalStats(*want)

    def test_identical_runs(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5))
        a = run_simulation(scn, EveKind.NONE, 200_000, seed=42)
        b = run_simulation(scn, EveKind.NONE, 200_000, seed=42)
        assert a == b

    def test_seed_changes_stream(self):
        scn = make_scenario()
        a = run_simulation(scn, EveKind.NONE, 200_000, seed=1)
        b = run_simulation(scn, EveKind.NONE, 200_000, seed=2)
        assert a != b

    def test_any_size_is_one_count(self):
        # a run of any size, also above the 2**24 pulses of the batches runs
        # were once split into, is one count on one stream
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-3)
        for n in (2_050_001, 2**24 + 1):
            whole = run_simulation(scn, EveKind.NONE, n, seed=4)
            assert whole == simulator._tally(scn, EveKind.NONE, n, run_stream(4))
            assert whole.n_pulses == n
            assert 0 < whole.conclusive_count < n

    @pytest.mark.parametrize(
        ("name", "value", "reason"),
        [
            ("n_pulses", 1e5, "an integer"), ("n_pulses", 0, ">= 1"),
            ("n_pulses", True, "an integer"), ("seed", -1, ">= 0"),
            ("seed", 1.5, "an integer"), ("seed", False, "an integer"),
            ("n_pulses", 2**62 + 1, r"<= 2\*\*62"),
        ],
    )  # fmt: skip
    def test_rejects_bad_arguments(self, name, value, reason, monkeypatch):
        # each is caught before anything is drawn
        monkeypatch.setattr(simulator, "_tally", None)
        args = {"n_pulses": 1_000, "seed": 0}
        with pytest.raises(ValueError, match=f"^{name} must be {reason}"):
            run_simulation(make_scenario(), EveKind.NONE, **{**args, name: value})

    def test_largest_run(self):
        # 2**62 pulses at 850 km, where some 46 carry an arrival
        scn = make_scenario(length=850.0, c=0.0)
        stats = run_simulation(scn, EveKind.NONE, 2**62, seed=1)
        assert stats.n_pulses == 2**62
        assert 0 < stats.conclusive_count < 100

    def test_accepts_numpy_integers(self):
        scn = make_scenario()
        want = run_simulation(scn, EveKind.NONE, 2_000_000, seed=3)
        got = run_simulation(scn, EveKind.NONE, np.int64(2_000_000), seed=np.uint32(3))
        assert got == want

    def test_setup_memory_bounded(self, monkeypatch):
        # nothing allocated before a run of 1e11 pulses is counted may grow
        # with their number
        def refuse(*args):
            raise RuntimeError("run counted")

        monkeypatch.setattr(simulator, "_tally", refuse)
        scn = make_scenario()
        # a first call pays for the imports the run's generator makes
        with pytest.raises(RuntimeError, match="run counted"):
            run_simulation(scn, EveKind.NONE, 1, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="run counted"):
                run_simulation(scn, EveKind.NONE, 10**11, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


# (source, dark count probability, length in km): C = 0 at 0 km makes every
# pulse an arrival, C = 0.3 at 50 km makes most events dark
CARRY_OVER_SCENARIOS = [
    (source, c, length)
    for source in (SourceModel.single_photon(), SourceModel.poissonian(0.5))
    for c, length in ((0.0, 0.0), (0.3, 50.0))
]


class TestWorkspace:
    """A run holds no state beyond its own draws, and little memory.  No
    workspace outlives a run; the name is kept so that the suite's test ids
    stay stable."""

    @pytest.mark.parametrize(
        ("warm", "drawn"), itertools.permutations(CARRY_OVER_SCENARIOS, 2)
    )
    def test_warmed_equals_fresh(self, warm, drawn):
        # a run counted after another scenario's run counts what the
        # reference sampler counts: nothing carries over between runs
        eve = EveKind.INTERCEPT_RESEND
        source, c, length = warm
        warm_scn = make_scenario(PBC00, source=source, c=c, length=length)
        count_run(warm_scn, eve, 40_000, 5)
        source, c, length = drawn
        scn = make_scenario(PBC00, source=source, c=c, length=length)
        want = full_key_tally(20_000, reference_events(scn, eve, 20_000, 6))
        assert count_run(scn, eve, 20_000, 6) == want

    @pytest.mark.parametrize(
        "source", [SourceModel.single_photon(), SourceModel.poissonian(0.5)]
    )
    def test_reuse_changes_no_tally(self, source):
        # a run counts what its stream counts afresh, and so does a second
        # run after it
        scn, eve = make_scenario(source=source, length=0.0, c=1e-3), EveKind.NONE
        seed, n = 12, 200_000
        fresh = simulator._tally(scn, eve, n, run_stream(seed))
        first = run_simulation(scn, eve, n, seed=seed)
        assert fresh == first == run_simulation(scn, eve, n, seed=seed)

    def test_warm_run_allocation_bounded(self):
        # a 1e6-pulse PBC00 run at 0 km, where every single-photon pulse
        # arrives, holds at most one stage's random words at a time: 15 625
        # words are 125 KB.  tracemalloc's peak is 0.21 MB single-photon and
        # 0.11 MB Poissonian (numpy 2.4.6); one stored per-event mask would
        # add 1 MB
        eve, n = EveKind.NONE, 1_000_000
        for source in (SourceModel.single_photon(), SourceModel.poissonian(0.5)):
            scn = make_scenario(PBC00, source=source, length=0.0)
            # a first run pays for what numpy sets up on first use
            simulator._tally(scn, eve, n, np.random.default_rng(1))
            rng = np.random.default_rng(2)
            tracemalloc.start()
            try:
                simulator._tally(scn, eve, n, rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 300_000, source

    @pytest.mark.parametrize("e_x_sq", [0.05, 0.02])
    @pytest.mark.parametrize(
        "source", [SourceModel.single_photon(), SourceModel.poissonian(0.5)]
    )
    def test_large_run_allocation_bounded(self, source, e_x_sq):
        # a run of 1e8 pulses, one count on one stream, stays within the
        # bound of a 1e6-pulse one.  At 0 km every single-photon pulse
        # arrives: one draw of its sifting stage would take 12.5 MB of words
        # and, at e_x_sq = 0.02 (below _GAP_MAX_P), one chunk of its flips'
        # gaps 8.1 MB.  tracemalloc's peak is 0.20-0.26 MB (numpy 2.4.6)
        eve, n = EveKind.NONE, 10**8
        scn = make_scenario(PBC00, source=source, length=0.0, e_x_sq=e_x_sq)
        # a first run pays for what numpy sets up on first use
        run_simulation(scn, eve, 1_000, seed=1)
        tracemalloc.start()
        try:
            stats = run_simulation(scn, eve, n, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.conclusive_count > n // 10
        assert peak <= 300_000
        for row in compare_to_analytic(stats, scn, eve):
            assert abs(row.z) <= 5.0, row


class TestPulseInvariants:
    def test_category_rules(self):
        scn = make_scenario(source=SourceModel.poissonian(0.8), length=30.0, c=0.3)
        ev = reference_events(scn, EveKind.NONE, 30_000, seed=13)
        assert count_run(scn, EveKind.NONE, 30_000, 13) == full_key_tally(30_000, ev)
        arr, dark = slice(0, ev.n_arrivals), slice(ev.n_arrivals, None)
        cat = ev.category
        single = cat == SINGLE_QUBIT
        assert (ev.emitted[single] == 1).all()
        multi = cat == MULTI_QUBIT
        assert (ev.emitted[multi] == 2).all()
        # arrivals come first and are never dark counts
        assert (cat[arr] != DARK_COUNT).all()
        # the rest are dark events, which are never qubits
        is_dark = cat == DARK_COUNT
        assert not (single | multi)[dark].any()
        # a photon class is drawn for conclusive events alone
        discarded = cat == DISCARDED
        assert ev.emitted.dtype == np.int8
        assert (ev.emitted[discarded] == -1).all()
        assert np.isin(ev.emitted[~discarded], (0, 1, 2)).all()
        assert not ev.bit_error[discarded].any()
        assert single.any() and multi.any() and is_dark.any() and ev.bit_error.any()
        assert discarded[dark].any()
        assert (ev.emitted[dark] == 0).any() and (ev.emitted[dark] == 2).any()

    @pytest.mark.parametrize("spec", [BB84, PBC00])
    def test_every_tally_populated(self, spec):
        source = SourceModel.poissonian(0.5)
        scn = make_scenario(spec, source=source, length=30.0, c=1e-3)
        stats = run_simulation(scn, EveKind.INTERCEPT_RESEND, 40_000, seed=17)
        assert stats.single_qubit_errors > 0 and stats.dark_count > 0
        assert stats.empty_pulse_conclusive > 0

    def test_no_field_is_constant_zero(self):
        # every tally counts something in some run: a large dark-count
        # probability, PBC00 at 30 km and an eavesdropper
        poisson = SourceModel.poissonian(0.5)
        runs = [
            (make_scenario(source=poisson, c=0.3), EveKind.NONE),
            (make_scenario(PBC00, source=poisson, length=30.0), EveKind.NONE),
            (make_scenario(source=poisson, c=1e-3), EveKind.INTERCEPT_RESEND),
        ]
        total = EmpiricalStats(n_pulses=0)
        for scn, eve in runs:
            total += run_simulation(scn, eve, 40_000, seed=31)
        for name in EmpiricalStats._fields[1:]:
            assert getattr(total, name) > 0, name

    def test_opaque_channel_not_conclusive(self):
        # essentially opaque channel with no dark counts
        scn = make_scenario(length=2000.0, c=0.0)
        stats = run_simulation(scn, EveKind.NONE, 2_000, seed=1)
        assert stats.conclusive_count == 0

    def test_perfect_channel_all_single_qubit(self):
        scn = make_scenario(length=0.0, c=0.0, e_x_sq=0.0)
        stats = run_simulation(scn, EveKind.NONE, 100_000, seed=21)
        assert stats.single_qubit == 100_000
        assert stats.error_count == 0


class TestAnalyticsAgreement:
    @pytest.mark.parametrize("spec", [BB84, SIX_STATE, PBC00])
    def test_single_photon_three_sigma(self, spec):
        scn = make_scenario(spec)
        stats = run_simulation(scn, EveKind.NONE, 1_000_000, seed=101)
        for row in compare_to_analytic(stats, scn):
            assert abs(row.z) <= 3.0, row

    @pytest.mark.parametrize("spec", [BB84, SIX_STATE, PBC00])
    def test_poisson_three_sigma(self, spec):
        scn = make_scenario(spec, source=SourceModel.poissonian(0.5))
        stats = run_simulation(scn, EveKind.NONE, 1_000_000, seed=103)
        for row in compare_to_analytic(stats, scn):
            assert abs(row.z) <= 3.0, row

    @pytest.mark.parametrize("protocol", ["bb84", "six-state"])
    def test_zero_km_single_photon(self, protocol, tmp_path):
        # every pulse arrives, so the analytic p_sq is exactly 1
        report = tmp_path / "report.txt"
        code = main(
            [
                "simulate", "--protocol", protocol, "--length-km", "0",
                "--dark-count-prob", "1e-5", "--e-x-sq", "0.05",
                "--n-pulses", "20000", "--seed", "3", "--out", str(report),
            ]
        )  # fmt: skip
        assert code == 0
        rows = {line.split()[0]: line.split()[1:] for line in report.read_text().splitlines()}
        assert float(rows["p_sq"][1]) == 1.0
        assert float(rows["p_sq"][2]) == 0.0

    def test_compared_fields(self):
        scn = make_scenario()
        stats = run_simulation(scn, EveKind.NONE, 1_000, seed=1)
        names = tuple(row.name for row in compare_to_analytic(stats, scn))
        assert names == ("p_sq", "p_mq", "p_dk", "e_x")

    def test_analytic_rate_one_mismatch_is_inf(self):
        stats = run_simulation(make_scenario(length=10.0), EveKind.NONE, 20_000, seed=5)
        zs = {row.name: row.z for row in compare_to_analytic(stats, make_scenario(length=0.0))}
        assert zs["p_sq"] == math.inf

    def test_mismatched_model_detected(self):
        scn = make_scenario(c=1e-3)
        wrong = make_scenario(c=1e-6)
        stats = run_simulation(scn, EveKind.NONE, 1_000_000, seed=7)
        zs = {row.name: row.z for row in compare_to_analytic(stats, wrong)}
        assert abs(zs["p_dk"]) > 3.0

    def test_single_photon_pulse_conclusive_rate(self):
        # empirical omega1 * p_c against p_sq + 2C P_1 (1 - eta)
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-5)
        stats = run_simulation(scn, EveKind.NONE, 1_000_000, seed=31)
        b = breakdown(scn)
        want = b.omega1 * b.p_c
        got = stats.single_pulse_conclusive / stats.n_pulses
        se = math.sqrt(want * (1 - want) / stats.n_pulses)
        assert abs(got - want) <= 3 * se


class TestInterceptResend:
    @pytest.mark.parametrize("spec", [BB84, SIX_STATE, PBC00])
    @pytest.mark.parametrize(
        "source", [SourceModel.single_photon(), SourceModel.poissonian(0.5)]
    )
    def test_analytic_agreement(self, spec, source):
        # the analytic breakdown with the run's eavesdropper scores every
        # field within 3 sigma; the honest one misses the attack's errors
        scn, eve = make_scenario(spec, source=source), EveKind.INTERCEPT_RESEND
        stats = run_simulation(scn, eve, 2_000_000, seed=19)
        for row in compare_to_analytic(stats, scn, eve):
            assert abs(row.z) <= 3.0, row
        honest = {row.name: row.z for row in compare_to_analytic(stats, scn)}
        assert honest["e_x"] > 3.0

    def test_bb84_quarter(self):
        scn = make_scenario(length=0.0, c=0.0, e_x_sq=0.0)
        stats = run_simulation(scn, EveKind.INTERCEPT_RESEND, 1_200_000, seed=11)
        assert stats.conclusive_count >= 1_000_000
        se = math.sqrt(0.25 * 0.75 / stats.conclusive_count)
        assert abs(stats.e_x_hat - 0.25) <= 3 * se

    def test_six_state_third(self):
        scn = make_scenario(SIX_STATE, length=0.0, c=0.0, e_x_sq=0.0)
        stats = run_simulation(scn, EveKind.INTERCEPT_RESEND, 1_200_000, seed=11)
        expected = 1.0 / 3.0
        se = math.sqrt(expected * (1 - expected) / stats.conclusive_count)
        assert abs(stats.e_x_hat - expected) <= 3 * se

    def test_composes_with_intrinsic_errors(self):
        scn = make_scenario(length=0.0, c=0.0, e_x_sq=0.1)
        stats = run_simulation(scn, EveKind.INTERCEPT_RESEND, 1_200_000, seed=15)
        # independent flips: 0.25 (attack) + 0.1 (channel) - 2 * product
        expected = 0.25 * 0.9 + 0.1 * 0.75
        se = math.sqrt(expected * (1 - expected) / stats.conclusive_count)
        assert abs(stats.e_x_hat - expected) <= 3 * se


class TestDecoySimulation:
    def test_recovers_intrinsic_error(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-6, e_x_sq=0.01)
        stats = run_simulation(scn, EveKind.NONE, 2_000_000, seed=23)
        recovery = recover_single_photon_rates(stats, scn)
        truth = breakdown(scn)
        assert abs(recovery.p_sq - truth.p_sq) <= 3 * recovery.p_sq_se
        assert abs(recovery.e_x_sq - 0.01) <= 3 * recovery.e_x_sq_se

    def test_no_dark_counts_recovers_single_qubit_rate(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=0.0, e_x_sq=0.01)
        stats = run_simulation(scn, EveKind.NONE, 500_000, seed=27)
        recovery = recover_single_photon_rates(stats, scn)
        assert recovery.p_sq == pytest.approx(stats.single_qubit / stats.n_pulses)


class TestTallyCsv:
    def test_format(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-3)
        stats = run_simulation(scn, EveKind.NONE, 50_000, seed=2)
        assert tally_csv(stats) == (
            "category,count,bit_errors\n"
            f"single_qubit,{stats.single_qubit},{stats.single_qubit_errors}\n"
            f"multi_qubit,{stats.multi_qubit},{stats.multi_qubit_errors}\n"
            f"dark_count,{stats.dark_count},{stats.dark_count_errors}\n"
        )
        assert 0 < stats.dark_count < stats.conclusive_count


def assert_matches_pmf(draws, pmf):
    """Chi-square goodness of fit of ``draws`` in ``1..len(pmf)`` against
    ``pmf``, bins merged from ``k = 1`` up until each expects at least 5
    draws, at a false-alarm rate of about 1e-6 (Wilson-Hilferty quantile)."""
    n = draws.size
    assert draws.min() >= 1 and draws.max() <= len(pmf)
    observed = np.bincount(draws - 1, minlength=len(pmf))
    bins, obs, exp = [], 0, 0.0
    for o, p in zip(observed, pmf):
        obs, exp = obs + o, exp + n * p
        if exp >= 5.0:
            bins.append((obs, exp))
            obs, exp = 0, 0.0
    if bins:
        last_obs, last_exp = bins.pop()
        bins.append((last_obs + obs, last_exp + exp))
    else:
        bins.append((obs, exp))
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    df = len(bins) - 1
    if df == 0:
        assert chi2 == pytest.approx(0.0, abs=1e-6)
        return
    crit = df * (1 - 2 / (9 * df) + 4.75 * math.sqrt(2 / (9 * df))) ** 3
    assert chi2 <= crit, (chi2, crit, bins)


def within_ulps(got, want, ulps=4):
    return abs(got - want) <= ulps * math.ulp(want)


STEP_MEANS = [
    1e-150, 1e-40, 1e-12, 1e-4, 0.05, 0.5, math.nextafter(1.0, 0.0), 1.0,
    1.5, 5.0, 40.0, 745.0, 1e18, 1e300,
]  # fmt: skip


def photon_class_pmfs(mu, eta):
    """Photon-class probabilities (0, 1, 2 or more) of an arrival and of a
    dark event of a Poisson(``mu``) pulse through transmittance ``eta``,
    from the photon-number sums at 30 digits."""
    with mpmath.workdps(30):
        arrived, lost = mpmath.mpf(mu) * eta, mpmath.mpf(mu) * (1 - mpmath.mpf(eta))
        no_loss = mpmath.exp(-lost)
        one_arrived = arrived * mpmath.exp(-arrived) / -mpmath.expm1(-arrived)
        single = float(one_arrived * no_loss)
        empty, one_lost = float(no_loss), float(lost * no_loss)
    return [single, 1.0 - single], [empty, one_lost, 1.0 - empty - one_lost]


class TestClassDraws:
    """Each event draws its photon class and fire class by Bernoulli trials
    with the step probabilities of the Poisson and Binomial laws."""

    @pytest.mark.parametrize("lam", STEP_MEANS)
    def test_poisson_steps(self, lam):
        with mpmath.workdps(50):
            x = mpmath.mpf(lam)
            at_least_one = -mpmath.expm1(-x)
            if lam < 1.0:
                # P(K >= 2) by its series: 50 digits cannot resolve
                # expm1(x) - x below about x = 1e-40
                series = mpmath.fsum(x**k / mpmath.factorial(k) for k in range(2, 60))
                at_least_two = mpmath.exp(-x) * series
            else:
                at_least_two = 1 - mpmath.exp(-x) * (1 + x)
            want = (float(at_least_one), float(at_least_two / at_least_one))
        got = simulator._poisson_steps(lam)
        assert all(within_ulps(g, w) for g, w in zip(got, want)), (got, want)

    def test_poisson_steps_of_zero_mean(self):
        assert simulator._poisson_steps(0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("c", [1e-300, 1e-6, 0.3])
    def test_multi_fire_probability(self, n, c):
        with mpmath.workdps(50):
            p = mpmath.mpf(c)
            terms = [
                mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)
            ]
            want = float(mpmath.fsum(terms[2:]) / mpmath.fsum(terms[1:]))
        assert within_ulps(simulator._multi_fire_probability(n, c), want)

    @pytest.mark.parametrize("mu", [1e-4, 0.5, 5.0, 40.0, 1e18])
    def test_photon_class(self, mu):
        # mu * eta at most 1 and C = 0.3, so both kinds of event are common
        length = -50.0 * math.log10(min(0.5, 1.0 / mu))
        scn = make_scenario(source=SourceModel.poissonian(mu), length=length, c=0.3)
        events = reference_events(scn, EveKind.NONE, 400_000, seed=97)
        counted = count_run(scn, EveKind.NONE, 400_000, 97)
        assert counted == full_key_tally(400_000, events)
        arrival_pmf, dark_pmf = photon_class_pmfs(mu, transmittance(scn.link))
        # a class is drawn for kept events only, and sifting is independent
        # of it
        arr, dark = slice(0, events.n_arrivals), slice(events.n_arrivals, None)
        arrived, dark = events.emitted[arr], events.emitted[dark]
        arrived, dark = arrived[arrived >= 0], dark[dark >= 0]
        assert arrived.size > 0 and dark.size > 0
        assert_matches_pmf(arrived, arrival_pmf)
        assert_matches_pmf(dark + 1, dark_pmf)


class _RawSpy:
    """A generator stand-in that records the size of each raw-word draw.  It
    has no ``geometric``, so a gap count on it raises."""

    def __init__(self, rng):
        self.rng, self.sizes, self.bit_generator = rng, [], self

    def random_raw(self, size):
        self.sizes.append(size)
        return self.rng.bit_generator.random_raw(size)


# m and p of the property test: the word and tail boundaries, and dyadic
# values, values near 1/2 and 1, and values either side of _GAP_MAX_P
_TAIL, _GAP = simulator._TAIL, simulator._GAP_MAX_P
TRIAL_SIZES = st.sampled_from([1, 63, 64, 65, _TAIL - 1, _TAIL, _TAIL + 1])
TRIAL_PROBABILITIES = st.one_of(
    st.sampled_from(
        [
            0.5 - 2**-40,
            0.5 + 2**-40,
            1 - 2**-53,
            _GAP,
            math.nextafter(_GAP, 0),
            1 - _GAP,
            math.nextafter(1 - _GAP, 1),
        ]
    ),
    st.integers(0, 2**12).map(lambda j: j / 2**12),
    st.floats(0.0, 1.0),
)


class TestBernoulli:
    """``_successes`` on both routes: stages that compare each event's
    uniform bits with the binary digits of the probability, then Geometric
    gaps for the few events left undecided; and, below ``_GAP_MAX_P``,
    Geometric gaps between the rarer outcomes alone."""

    N = 1_000_000
    P_VALUES = [1e-4, 0.05, 0.3, 0.5, 0.95]

    @pytest.mark.parametrize("p", P_VALUES)
    def test_count(self, p):
        count = simulator._successes(np.random.default_rng(41), self.N, p)
        se = math.sqrt(self.N * p * (1 - p))
        assert abs(count - self.N * p) <= 5 * se

    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.05, 0.2, 0.5 - 0.3 / 256, 0.9])
    def test_binomial_moments(self, p):
        # the counts of 2000 runs of 10 000 trials against the Binomial mean
        # and variance, on each route; 5-sigma bounds from the spread of a
        # sample mean and of a sample variance (with a Binomial's kurtosis)
        m, runs = 10_000, 2000
        rng = np.random.default_rng(79)
        counts = np.array([simulator._successes(rng, m, p) for _ in range(runs)])
        mean, var = m * p, m * p * (1 - p)
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / runs)
        excess_kurtosis = (1 - 6 * p * (1 - p)) / var
        var_se = var * math.sqrt((2 + excess_kurtosis) / runs)
        assert abs(counts.var(ddof=1) - var) <= 5 * var_se

    @pytest.mark.parametrize("p", P_VALUES)
    def test_gaps_are_geometric(self, p):
        # the per-event outcomes behind a count, re-derived from its stream:
        # gaps between successive successes are iid Geometric(p)
        outcomes = reference_trials(np.random.default_rng(43), self.N, p)
        count = simulator._successes(np.random.default_rng(43), self.N, p)
        assert count == np.count_nonzero(outcomes)
        gaps = np.diff(np.flatnonzero(outcomes))
        m = gaps.size
        assert abs(gaps.mean() - 1 / p) <= 5 * math.sqrt(1 - p) / p / math.sqrt(m)
        # the count of unit gaps is Binomial(m, p); 1 more for tiny m * p
        ones = np.count_nonzero(gaps == 1)
        assert abs(ones - m * p) <= 5 * math.sqrt(m * p * (1 - p)) + 1

    @pytest.mark.parametrize("p", [1e-4, 0.05, 0.3, 0.95])
    def test_first_and_last_trial(self, p):
        # short runs, where a gap from the start often passes the end and
        # most of the one word is padding
        reference, drawn = np.random.default_rng(47), np.random.default_rng(47)
        n, runs = 8, 4000
        hits = np.zeros(n, dtype=np.int64)
        for _ in range(runs):
            outcomes = reference_trials(reference, n, p)
            assert simulator._successes(drawn, n, p) == np.count_nonzero(outcomes)
            hits += outcomes
        bound = 5 * math.sqrt(runs * p * (1 - p)) + 1
        assert abs(hits[0] - runs * p) <= bound
        assert abs(hits[-1] - runs * p) <= bound

    @pytest.mark.parametrize(
        ("p", "want"), [(0.0, False), (1e-300, False), (1.0, True), (1 - 2**-53, True)]
    )
    def test_degenerate_probabilities(self, p, want):
        count = simulator._successes(np.random.default_rng(53), self.N, p)
        assert count == (self.N if want else 0)

    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.5, 0.95, 1.0])
    def test_empty_request_draws_nothing(self, p):
        rng = np.random.default_rng(59)
        state = rng.bit_generator.state
        assert simulator._successes(rng, 0, p) == 0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("p", P_VALUES + [0.2, 0.75])
    def test_route(self, p):
        # a rare outcome is placed by gaps alone; a common one by stages,
        # each a row of one word per 64 undecided events, then gaps at the
        # digits left over
        rng = np.random.default_rng(61)
        r = min(p, 1 - p)
        if r < simulator._GAP_MAX_P:
            rare = gap_positions(rng, self.N, r).size
            want = self.N - rare if p > 0.5 else rare
        else:
            want = np.count_nonzero(reference_trials(rng, self.N, p))
        drawn = np.random.default_rng(61)
        assert simulator._successes(drawn, self.N, p) == want
        assert drawn.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize(
        ("p", "rows"), [(0.5, 1), (0.25, 2), (0.375, 3), (51 / 256, 8)]
    )
    def test_rows_drawn(self, p, rows):
        # p = j / 2**rows: its digits end by stage ``rows``, where every
        # undecided event fails, so no gap is drawn (the spy has none) and a
        # fair trial takes one row of one bit per event
        spy = _RawSpy(np.random.default_rng(83))
        simulator._successes(spy, self.N, p)
        assert 1 <= len(spy.sizes) <= rows
        assert spy.sizes[0] == -(-self.N // 64)
        replay = np.random.default_rng(83)
        replay.bit_generator.random_raw(sum(spy.sizes))
        assert spy.rng.bit_generator.state == replay.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.one_of(TRIAL_SIZES, st.integers(0, 20_000)),
        p=TRIAL_PROBABILITIES,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=_TAIL + 1, p=0.5, seed=0)
    def test_equals_reference(self, m, p, seed):
        reference, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.count_nonzero(reference_trials(reference, m, p))
        assert simulator._successes(drawn, m, p) == want
        assert drawn.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("m", [1_000, 20_000])
    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5 - 0.3 / 256, 0.7, 0.99])
    def test_small_pieces_equal_reference(self, m, p, monkeypatch):
        # 2 words to a piece and 16 gaps to a chunk: a stage of 20 000
        # events is drawn in 157 pieces and a gap count in several chunks,
        # while the reference draws each stage at once
        monkeypatch.setattr(simulator, "_STAGE_WORDS", 2)
        monkeypatch.setattr(simulator, "_GAP_CHUNK", 16)
        reference, drawn = np.random.default_rng(m), np.random.default_rng(m)
        for _ in range(5):
            want = np.count_nonzero(reference_trials(reference, m, p))
            assert simulator._successes(drawn, m, p) == want
        assert drawn.bit_generator.state == reference.bit_generator.state

    def test_stage_drawn_in_pieces(self, monkeypatch):
        # a fair trial is one stage: 1000 events take 16 words, drawn in
        # pieces of at most _STAGE_WORDS, with the padding in the last one
        monkeypatch.setattr(simulator, "_STAGE_WORDS", 3)
        spy = _RawSpy(np.random.default_rng(89))
        count = simulator._successes(spy, 1000, 0.5)
        assert spy.sizes == [3] * 5 + [1]
        outcomes = reference_trials(np.random.default_rng(89), 1000, 0.5)
        assert count == np.count_nonzero(outcomes)

    def test_gap_sum_stays_in_int64(self):
        # 2**62 trials at q = 2**-62, one success on average: a chunk of
        # gaps, each capped at 2**62 + 1, must not sum past the int64 range
        rng, runs = np.random.default_rng(101), 400
        counts = [simulator._gap_count(rng, 2**62, 2.0**-62) for _ in range(runs)]
        assert abs(np.mean(counts) - 1.0) <= 5 * math.sqrt(1.0 / runs)

    @pytest.mark.parametrize("m", [1, 13, 63, 64, 65, 127, 1000, 99_999])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
    def test_partial_last_word(self, m, p):
        # fewer than 64 events, or a count that leaves part of the last word
        # as padding, whose bits never count
        reference, drawn = np.random.default_rng(m), np.random.default_rng(m)
        for _ in range(20):
            want = np.count_nonzero(reference_trials(reference, m, p))
            assert simulator._successes(drawn, m, p) == want

    @pytest.mark.parametrize("p", [0.5, 1 / 256, 255.5 / 256])
    def test_digit_ties(self, p, monkeypatch):
        # on the rarer side r, the first stage settles an event whose bit
        # differs from r's first binary digit: a 0 under a 1 succeeds, a 1
        # under a 0 fails.  A tie goes on, and succeeds with probability 2 r
        # less the digit: never at 1/2.  With the gap route starting at
        # 1/256, r = 1/256 is staged and 1/512 counted by gaps alone
        monkeypatch.setattr(simulator, "_GAP_MAX_P", 1 / 256)
        outcomes = reference_trials(np.random.default_rng(71), self.N, p)
        count = simulator._successes(np.random.default_rng(71), self.N, p)
        assert count == np.count_nonzero(outcomes)
        rare = ~outcomes if p > 0.5 else outcomes
        q = min(p, 1 - p)
        if q >= simulator._GAP_MAX_P:
            digit = int(2 * q >= 1)
            settled = stage_bits(np.random.default_rng(71), self.N) != digit
            assert (rare[settled] == bool(digit)).all()
            rare, q = rare[~settled], 2 * q - digit
        trials, hits = rare.size, np.count_nonzero(rare)
        assert abs(hits - trials * q) <= 5 * math.sqrt(trials * q * (1 - q))

    @pytest.mark.parametrize("p", [0.5 - 0.3 / 256, 255.5 / 256, 1 - 40.5 / 256])
    def test_count_off_the_byte_grid(self, p):
        # 256 p not whole: the digits past the eighth reach the stages and
        # the tail's gaps (at 255.5/256 the gap route takes the whole rare
        # side), at 8e6 trials enough to see a digit lost or mis-scaled
        n = 8_000_000
        count = simulator._successes(np.random.default_rng(73), n, p)
        se = math.sqrt(n * p * (1 - p))
        assert abs(count - n * p) <= 5 * se


class TestCountingTally:
    """``_tally`` counts a run's pulses as it draws them; the reference
    sampler stores every event and ``full_key_tally`` bins them."""

    @pytest.mark.parametrize("spec", [BB84, SIX_STATE, PBC00])
    @pytest.mark.parametrize(
        "source", [SourceModel.single_photon(), SourceModel.poissonian(0.5)]
    )
    def test_equals_full_key_tally(self, spec, source):
        n, seed = 20_000, 67
        for length in (0.0, 50.0, 200.0):
            for c in (0.0, 1e-5, 0.3):
                for eve in (EveKind.NONE, EveKind.INTERCEPT_RESEND):
                    scn = make_scenario(spec, source=source, length=length, c=c)
                    want = full_key_tally(n, reference_events(scn, eve, n, seed))
                    assert count_run(scn, eve, n, seed) == want, (length, c, eve)
                    seed += 1

    @pytest.mark.parametrize(
        "source", [SourceModel.single_photon(), SourceModel.poissonian(0.5)]
    )
    def test_small_pieces_equal_full_key_tally(self, source, monkeypatch):
        # every stage and gap count of the run split into pieces of 2
        # words and chunks of 16 gaps
        monkeypatch.setattr(simulator, "_STAGE_WORDS", 2)
        monkeypatch.setattr(simulator, "_GAP_CHUNK", 16)
        n, seed = 20_000, 97
        for length, c in ((0.0, 1e-5), (50.0, 0.3)):
            for eve in (EveKind.NONE, EveKind.INTERCEPT_RESEND):
                scn = make_scenario(PBC00, source=source, length=length, c=c)
                want = full_key_tally(n, reference_events(scn, eve, n, seed))
                assert count_run(scn, eve, n, seed) == want, (length, c, eve)
                seed += 1


class TestHighDarkRate:
    """Exact per-pulse rates, not the linearized ``2C`` of the analytic
    breakdown: at large C double fires remove ``1 - (1-C)^(n-1)`` of the
    single-fire dark counts."""

    @pytest.mark.parametrize("c", [1e-3, 0.3])
    @pytest.mark.parametrize("spec", [BB84, PBC00])
    def test_three_sigma(self, spec, c):
        mu, n = 0.5, 1_000_000
        scn = make_scenario(spec, source=SourceModel.poissonian(mu), c=c)
        stats = run_simulation(scn, EveKind.NONE, n, seed=2026)
        eta = transmittance(scn.link)
        cf = spec.conclusive_factor(scn.e_x_sq)
        d = spec.detector_count
        dark = spec.dark_conclusive_multiplier * c * (1 - c) ** (d - 1)
        p1 = mu * math.exp(-mu)
        want = {
            "p_sq": cf * p1 * eta,
            "p_mq": cf * (1 - math.exp(-mu * eta) - p1 * eta),
            "p_dk": dark * math.exp(-mu * eta),
            "empty": dark * math.exp(-mu),
        }
        got = {
            "p_sq": stats.single_qubit / n,
            "p_mq": stats.multi_qubit / n,
            "p_dk": stats.dark_count / n,
            "empty": stats.empty_pulse_conclusive / n,
        }
        for name, p in want.items():
            assert abs(got[name] - p) <= 3 * math.sqrt(p * (1 - p) / n), name
        p_c = want["p_sq"] + want["p_mq"] + want["p_dk"]
        e_x = ((want["p_sq"] + want["p_mq"]) * scn.e_x_sq + want["p_dk"] / 2) / p_c
        assert abs(stats.e_x_hat - e_x) <= 3 * math.sqrt(e_x * (1 - e_x) / (p_c * n))

    def test_double_fire_rate(self):
        # single-photon pulses: a lost photon, then two or more dark fires,
        # or one that dark sifting discards
        c, n = 0.3, 50_000
        scn = make_scenario(PBC00, c=c)
        events = reference_events(scn, EveKind.NONE, n, seed=2026)
        assert count_run(scn, EveKind.NONE, n, 2026) == full_key_tally(n, events)
        discarded = np.count_nonzero(events.category[events.n_arrivals :] == 0)
        d, m = PBC00.detector_count, PBC00.dark_conclusive_multiplier
        one_fire = d * c * (1 - c) ** (d - 1)
        multi_fire = 1 - (1 - c) ** d - one_fire
        p = (1 - transmittance(scn.link)) * (multi_fire + one_fire * (1 - m / d))
        assert abs(discarded / n - p) <= 3 * math.sqrt(p * (1 - p) / n)
