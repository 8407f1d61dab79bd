"""Tests for the Monte Carlo pulse simulator against analytic predictions."""

import dataclasses
import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from conftest import full_key_tally, sample_events

from qkdrates import simulator
from qkdrates.cli import main
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
    Category,
    EmpiricalStats,
    compare_to_analytic,
    recover_single_photon_rates,
    run_simulation,
    simulate_decoy_run,
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


def count_batch(scn, eve, size, seed, scratch=None):
    """Counts of one batch of ``size`` pulses, as ``run_simulation`` draws
    them, into ``scratch`` (fresh masks when none is given)."""
    draws = simulator._draws(scn, eve)
    rng = np.random.default_rng(seed)
    return simulator._count_batch(draws, size, rng, scratch or simulator._Scratch())


def reference_events(scn, eve, size, seed):
    """The reference sampler's events of the same batch."""
    return sample_events(scn, eve, size, np.random.default_rng(seed))


class TestDeterminism:
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

    def test_workers_bit_identical(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5))
        serial = run_simulation(scn, EveKind.NONE, 500_000, seed=9, batch_size=100_000)
        threaded = run_simulation(
            scn, EveKind.NONE, 500_000, seed=9, batch_size=100_000, workers=4
        )
        assert serial == threaded

    def test_partial_last_batch(self):
        # 250_001 pulses in batches of 100_000: two full batches and 50_001
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-3)
        eve = EveKind.NONE
        whole = run_simulation(scn, eve, 250_001, seed=4, batch_size=100_000)
        prefix = run_simulation(scn, eve, 200_000, seed=4, batch_size=100_000)
        threaded = run_simulation(
            scn, eve, 250_001, seed=4, batch_size=100_000, workers=2
        )
        assert whole == threaded
        assert whole.n_pulses == 250_001
        last = {
            f.name: getattr(whole, f.name) - getattr(prefix, f.name)
            for f in dataclasses.fields(EmpiricalStats)
        }
        assert last["n_pulses"] == 50_001
        assert all(value >= 0 for value in last.values())
        assert 0 < sum(last[f"cat{i}_count"] for i in range(1, 5)) < 50_001

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_nonpositive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            run_simulation(make_scenario(), EveKind.NONE, 1_000, 0, batch_size)

    def test_thread_count_capped(self, monkeypatch):
        seen = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Recording)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
        scn = make_scenario()
        serial = run_simulation(scn, EveKind.NONE, 50_000, seed=3, batch_size=10_000)
        for workers, batches, want in ((10_000, 5, [3]), (10_000, 2, [2]), (2, 5, [2])):
            seen.clear()
            stats = run_simulation(
                scn, EveKind.NONE, batches * 10_000, seed=3,
                batch_size=10_000, workers=workers,
            )  # fmt: skip
            assert seen == want
            if batches == 5:
                assert stats == serial
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: None)
        seen.clear()
        assert run_simulation(
            scn, EveKind.NONE, 50_000, seed=3, batch_size=10_000, workers=8
        ) == serial
        assert seen == []

    def test_batch_plan_memory_bounded(self, monkeypatch):
        # 1e11 pulses are 1e5 batches: nothing allocated before the first
        # batch may grow with their number
        def refuse(*args):
            raise RuntimeError("batch drawn")

        monkeypatch.setattr(simulator, "_count_batch", refuse)
        scn = make_scenario()
        # a first call pays for the imports the batch generator makes
        with pytest.raises(RuntimeError, match="batch drawn"):
            run_simulation(scn, EveKind.NONE, 1, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="batch drawn"):
                run_simulation(scn, EveKind.NONE, 10**11, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


# (source, dark count probability, length in km): C = 0 at 0 km makes every
# pulse an arrival, C = 0.3 at 50 km makes most events dark
WORKSPACE_SCENARIOS = [
    (source, c, length)
    for source in (SourceModel.single_photon(), SourceModel.poissonian(0.5))
    for c, length in ((0.0, 0.0), (0.3, 50.0))
]


class TestWorkspace:
    """Reused scratch masks must count what fresh ones count."""

    @pytest.mark.parametrize(
        ("warm", "drawn"), itertools.permutations(WORKSPACE_SCENARIOS, 2)
    )
    def test_warmed_equals_fresh(self, warm, drawn):
        eve = EveKind.INTERCEPT_RESEND
        scratch = simulator._Scratch()
        source, c, length = warm
        warm_scn = make_scenario(PBC00, source=source, c=c, length=length)
        count_batch(warm_scn, eve, 40_000, 5, scratch)
        source, c, length = drawn
        scn = make_scenario(PBC00, source=source, c=c, length=length)
        fresh = count_batch(scn, eve, 20_000, 6)
        assert count_batch(scn, eve, 20_000, 6, scratch) == fresh
        assert fresh == full_key_tally(20_000, reference_events(scn, eve, 20_000, 6))

    @pytest.mark.parametrize(
        "source", [SourceModel.single_photon(), SourceModel.poissonian(0.5)]
    )
    def test_reuse_changes_no_tally(self, source):
        # fresh masks per batch, one scratch serially, and two threads
        scn, eve = make_scenario(source=source, length=0.0, c=1e-3), EveKind.NONE
        n, seed, batch = 500_000, 12, 100_000
        draws = simulator._draws(scn, eve)
        fresh = EmpiricalStats(n_pulses=0)
        for index in range(n // batch):
            rng = simulator._batch_rng(seed, index)
            fresh += simulator._count_batch(draws, batch, rng, simulator._Scratch())
        serial = run_simulation(scn, eve, n, seed=seed, batch_size=batch)
        threaded = run_simulation(scn, eve, n, seed=seed, batch_size=batch, workers=2)
        assert fresh == serial == threaded

    def test_warm_batch_allocation_bounded(self):
        # warmed scratch counts a 1e6-pulse batch at 0 km with only the
        # random bytes of one Bernoulli draw fresh at a time, and keeps its
        # masks although the Poissonian batch has more arrivals (393 520)
        # than its warm-up (393 177): tracemalloc's peak is 1.07 MB
        # single-photon and 0.42 MB Poissonian (numpy 2.4.6), against 28.0
        # and 12.5 MB when every batch allocated its arrays afresh
        eve, n = EveKind.NONE, 1_000_000
        for source in (SourceModel.single_photon(), SourceModel.poissonian(0.5)):
            scn = make_scenario(PBC00, source=source, length=0.0)
            draws, scratch = simulator._draws(scn, eve), simulator._Scratch()
            simulator._count_batch(draws, n, np.random.default_rng(1), scratch)
            buffers = dict(scratch._buffers)
            rng = np.random.default_rng(2)
            tracemalloc.start()
            try:
                simulator._count_batch(draws, n, rng, scratch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1_500_000, source
            # every single-photon pulse arrives at 0 km; Poissonian ones grow
            # (a batch's first draw is its number of arrivals)
            warm, grown = (
                np.random.default_rng(s).binomial(n, draws.arrival) for s in (1, 2)
            )
            assert grown > warm or grown == n
            assert scratch._buffers.keys() == buffers.keys()
            assert all(scratch._buffers[k] is buf for k, buf in buffers.items())


class TestPulseInvariants:
    def test_category_rules(self):
        scn = make_scenario(source=SourceModel.poissonian(0.8), length=30.0, c=0.3)
        ev = reference_events(scn, EveKind.NONE, 30_000, seed=13)
        assert count_batch(scn, EveKind.NONE, 30_000, 13) == full_key_tally(30_000, ev)
        arr, dark = slice(0, ev.n_arrivals), slice(ev.n_arrivals, None)
        cat = ev.category
        single = cat == Category.SINGLE_QUBIT
        assert (ev.emitted[single] == 1).all()
        multi = cat == Category.MULTI_QUBIT
        assert (ev.emitted[multi] == 2).all()
        # arrivals come first, emitted a photon and are never dark counts
        assert (ev.emitted[arr] >= 1).all()
        assert (cat[arr] != Category.DARK_COUNT).all()
        # the rest are dark events, which are never qubits
        is_dark = cat == Category.DARK_COUNT
        assert not (single | multi)[dark].any()
        assert ev.emitted.dtype == np.int8 and np.isin(ev.emitted, (0, 1, 2)).all()
        assert not ev.bit_error[cat == Category.NOT_CONCLUSIVE].any()
        assert single.any() and multi.any() and is_dark.any() and ev.bit_error.any()
        assert (ev.emitted[dark] == 0).any() and (ev.emitted[dark] == 2).any()

    @pytest.mark.parametrize("spec", [BB84, PBC00])
    def test_every_tally_populated(self, spec):
        source = SourceModel.poissonian(0.5)
        scn = make_scenario(spec, source=source, length=30.0, c=1e-3)
        stats = run_simulation(scn, EveKind.INTERCEPT_RESEND, 40_000, seed=17)
        assert stats.cat1_errors > 0 and stats.cat4_count > 0
        assert stats.empty_pulse_conclusive > 0

    def test_no_category3_without_eve(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-3)
        stats = run_simulation(scn, EveKind.NONE, 200_000, seed=3)
        assert stats.cat3_count == 0

    def test_opaque_channel_not_conclusive(self):
        # essentially opaque channel with no dark counts
        scn = make_scenario(length=2000.0, c=0.0)
        stats = run_simulation(scn, EveKind.NONE, 2_000, seed=1)
        assert stats.conclusive_count == 0

    def test_perfect_channel_all_single_qubit(self):
        scn = make_scenario(length=0.0, c=0.0, e_x_sq=0.0)
        stats = run_simulation(scn, EveKind.NONE, 100_000, seed=21)
        assert stats.cat1_count == 100_000
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
    def test_single_mu_equals_plain_run(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5))
        runs = simulate_decoy_run(scn, [0.5], 100_000, seed=6)
        assert runs[0.5] == run_simulation(scn, EveKind.NONE, 100_000, seed=6)

    def test_recovers_intrinsic_error(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-6, e_x_sq=0.01)
        runs = simulate_decoy_run(scn, [0.1, 0.5], 2_000_000, seed=23)
        recovery = recover_single_photon_rates(runs[0.5], scn)
        truth = breakdown(scn)
        assert abs(recovery.p_sq - truth.p_sq) <= 3 * recovery.p_sq_se
        assert abs(recovery.e_x_sq - 0.01) <= 3 * recovery.e_x_sq_se

    def test_no_dark_counts_recovers_cat1_rate(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=0.0, e_x_sq=0.01)
        runs = simulate_decoy_run(scn, [0.5], 500_000, seed=27)
        stats = runs[0.5]
        recovery = recover_single_photon_rates(stats, scn)
        assert recovery.p_sq == pytest.approx(stats.cat1_count / stats.n_pulses)

    def test_validates_mu_values(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5))
        with pytest.raises(ValueError):
            simulate_decoy_run(scn, [], 1000, seed=1)
        with pytest.raises(ValueError):
            simulate_decoy_run(scn, [0.5, -1.0], 1000, seed=1)


class TestTallyCsv:
    def test_format(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-3)
        stats = run_simulation(scn, EveKind.NONE, 50_000, seed=2)
        text = tally_csv(stats)
        lines = text.splitlines()
        assert lines[0] == "category,count,bit_errors"
        assert len(lines) == 5
        assert lines[1].startswith("single_qubit,")
        assert lines[4].startswith("dark_count,")
        assert text.endswith("\n")
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == stats.conclusive_count


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
        counted = count_batch(scn, EveKind.NONE, 400_000, 97)
        assert counted == full_key_tally(400_000, events)
        arrival_pmf, dark_pmf = photon_class_pmfs(mu, transmittance(scn.link))
        arr, dark = slice(0, events.n_arrivals), slice(events.n_arrivals, None)
        assert events.n_arrivals > 0 and events.emitted[dark].size > 0
        assert_matches_pmf(events.emitted[arr], arrival_pmf)
        assert_matches_pmf(events.emitted[dark] + 1, dark_pmf)


class TestBernoulli:
    """``_bernoulli`` on both routes: one random byte per trial, and
    Geometric gaps between the rarer outcomes."""

    N = 1_000_000
    P_VALUES = [1e-4, 0.05, 0.3, 0.5, 0.95]

    @pytest.mark.parametrize("p", P_VALUES)
    def test_count(self, p):
        mask = simulator._bernoulli(np.random.default_rng(41), self.N, p)
        assert mask.dtype == bool and mask.size == self.N
        se = math.sqrt(self.N * p * (1 - p))
        assert abs(np.count_nonzero(mask) - self.N * p) <= 5 * se

    @pytest.mark.parametrize("p", P_VALUES)
    def test_gaps_are_geometric(self, p):
        # gaps between successive successes are iid Geometric(p)
        mask = simulator._bernoulli(np.random.default_rng(43), self.N, p)
        gaps = np.diff(np.flatnonzero(mask))
        m = gaps.size
        assert abs(gaps.mean() - 1 / p) <= 5 * math.sqrt(1 - p) / p / math.sqrt(m)
        # the count of unit gaps is Binomial(m, p); 1 more for tiny m * p
        ones = np.count_nonzero(gaps == 1)
        assert abs(ones - m * p) <= 5 * math.sqrt(m * p * (1 - p)) + 1

    @pytest.mark.parametrize("p", [1e-4, 0.05, 0.3, 0.95])
    def test_first_and_last_trial(self, p):
        # short runs, where a gap from the start often passes the end
        rng, n, runs = np.random.default_rng(47), 8, 4000
        hits = np.zeros(n, dtype=np.int64)
        for _ in range(runs):
            hits += simulator._bernoulli(rng, n, p)
        bound = 5 * math.sqrt(runs * p * (1 - p)) + 1
        assert abs(hits[0] - runs * p) <= bound
        assert abs(hits[-1] - runs * p) <= bound

    @pytest.mark.parametrize(
        ("p", "want"), [(0.0, False), (1e-300, False), (1.0, True), (1 - 2**-53, True)]
    )
    def test_degenerate_probabilities(self, p, want):
        mask = simulator._bernoulli(np.random.default_rng(53), self.N, p)
        assert mask.size == self.N and (mask == want).all()

    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.5, 0.95, 1.0])
    def test_empty_request_draws_nothing(self, p):
        rng = np.random.default_rng(59)
        state = rng.bit_generator.state
        assert simulator._bernoulli(rng, 0, p).size == 0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("p", P_VALUES)
    def test_route(self, p):
        # a common outcome takes one raw byte per trial, then gap-placed
        # trials for what the bytes leave over; a rare one only the gaps
        rng = np.random.default_rng(61)
        raw = rng.bit_generator.random_raw(-(-self.N // 8)).view(np.uint8)[: self.N]
        k, q = byte_rule(p)
        by_bytes = simulator._bernoulli_gaps(rng, q, np.empty(self.N, bool))
        by_bytes |= raw < k
        if p > 0.5:
            by_bytes = ~by_bytes
        drawn = np.random.default_rng(61)
        mask = simulator._bernoulli(drawn, self.N, p)
        on_bytes = min(p, 1 - p) >= simulator._GAP_MAX_P
        assert np.array_equal(mask, by_bytes) == on_bytes
        assert (drawn.bit_generator.state == rng.bit_generator.state) == on_bytes

    @pytest.mark.parametrize("p", [0.5, 1 / 256, 255.5 / 256])
    def test_byte_ties(self, p):
        # on the rarer side, with k and q of byte_rule, a byte below k
        # succeeds and any other succeeds with probability q: never when
        # 256 p is whole, so no tie is settled apart
        raw = np.random.default_rng(71).bit_generator.random_raw(-(-self.N // 8))
        raw = raw.view(np.uint8)[: self.N]
        k, q = byte_rule(p)
        out = np.empty(self.N, dtype=bool)
        mask = simulator._bernoulli_bytes(np.random.default_rng(71), p, out)
        assert mask is out
        rare = ~mask if p > 0.5 else mask
        assert rare[raw < k].all()
        rest = raw >= k
        trials, hits = rest.sum(), rare[rest].sum()
        assert abs(hits - trials * q) <= 5 * math.sqrt(trials * q * (1 - q))

    @pytest.mark.parametrize("p", [0.5 - 0.3 / 256, 255.5 / 256])
    def test_count_off_the_byte_grid(self, p):
        # 256 p not whole: the gap-placed trials carry the fraction, at
        # 8e6 trials enough to see a remainder lost or mis-scaled
        n = 8_000_000
        rng, out = np.random.default_rng(73), np.empty(n, dtype=bool)
        mask = simulator._bernoulli_bytes(rng, p, out)
        se = math.sqrt(n * p * (1 - p))
        assert abs(np.count_nonzero(mask) - n * p) <= 5 * se


def byte_rule(p):
    """``k`` and ``q`` of the byte route on the rarer side ``r``: a byte
    below ``k = floor(256 r)`` succeeds, any other through a trial of
    probability ``q = (256 r - k) / (256 - k)``."""
    r = min(p, 1 - p)
    k = math.floor(256 * r)
    return k, (256 * r - k) / (256 - k)


class TestCountingTally:
    """``_count_batch`` counts each batch as it draws it; the reference
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
                    assert count_batch(scn, eve, n, seed) == want, (length, c, eve)
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
            "p_sq": stats.cat1_count / n,
            "p_mq": stats.cat2_count / n,
            "p_dk": stats.cat4_count / n,
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
        assert count_batch(scn, EveKind.NONE, n, 2026) == full_key_tally(n, events)
        discarded = np.count_nonzero(events.category[events.n_arrivals :] == 0)
        d, m = PBC00.detector_count, PBC00.dark_conclusive_multiplier
        one_fire = d * c * (1 - c) ** (d - 1)
        multi_fire = 1 - (1 - c) ** d - one_fire
        p = (1 - transmittance(scn.link)) * (multi_fire + one_fire * (1 - m / d))
        assert abs(discarded / n - p) <= 3 * math.sqrt(p * (1 - p) / n)
