"""Tests for the Monte Carlo pulse simulator against analytic predictions."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import full_key_tally

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


def sample_events(scn, eve, size, seed):
    """Events of one batch of ``size`` pulses, as ``run_simulation`` draws them."""
    return simulator._sample_events(scn, eve, size, np.random.default_rng(seed))


def multi_fires(events):
    """Mask of dark events in which two or more detectors fired."""
    return (events.arrived == 0) & (events.fired >= 2)


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


# (source, dark count probability, length in km): C = 0 at 0 km makes every
# pulse an arrival, C = 0.3 at 50 km makes most events dark
WORKSPACE_SCENARIOS = [
    (source, c, length)
    for source in (SourceModel.single_photon(), SourceModel.poissonian(0.5))
    for c, length in ((0.0, 0.0), (0.3, 50.0))
]
EVENT_FIELDS = ("emitted", "arrived", "fired", "category", "bit_error")


class TestWorkspace:
    """A reused ``_Events`` workspace must draw what a fresh one draws."""

    @pytest.mark.parametrize(
        ("warm", "drawn"), itertools.permutations(WORKSPACE_SCENARIOS, 2)
    )
    def test_warmed_equals_fresh(self, warm, drawn):
        eve = EveKind.INTERCEPT_RESEND
        events = simulator._Events()
        source, c, length = warm
        warm_scn = make_scenario(source=source, c=c, length=length)
        simulator._sample_events(warm_scn, eve, 40_000, np.random.default_rng(5), events)
        source, c, length = drawn
        scn = make_scenario(source=source, c=c, length=length)
        fresh = sample_events(scn, eve, 20_000, seed=6)
        reused = simulator._sample_events(scn, eve, 20_000, np.random.default_rng(6), events)
        assert reused is events and reused.n_arrivals == fresh.n_arrivals
        for name in EVENT_FIELDS:
            want, got = getattr(fresh, name), getattr(reused, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize(
        "source", [SourceModel.single_photon(), SourceModel.poissonian(0.5)]
    )
    def test_reuse_changes_no_tally(self, source):
        # fresh buffers per batch, one workspace serially, and two threads
        scn, eve = make_scenario(source=source, length=0.0, c=1e-3), EveKind.NONE
        n, seed, batch = 500_000, 12, 100_000
        fresh = EmpiricalStats(n_pulses=0)
        for index in range(n // batch):
            rng = simulator._batch_rng(seed, index)
            fresh += simulator._tally(batch, simulator._sample_events(scn, eve, batch, rng))
        serial = run_simulation(scn, eve, n, seed=seed, batch_size=batch)
        threaded = run_simulation(scn, eve, n, seed=seed, batch_size=batch, workers=2)
        assert fresh == serial == threaded

    def test_warm_batch_allocation_bounded(self):
        # a warmed workspace draws a 1e6-pulse batch at 0 km with only the
        # scratch of one Bernoulli draw or chain step fresh at a time, and
        # keeps its buffers although the Poissonian batch has more arrivals
        # (393 520) than its warm-up (393 177): tracemalloc's peak is 1.07 MB
        # single-photon and 0.84 MB Poissonian (numpy 2.4.6), against 28.0
        # and 12.5 MB when buffers were allocated afresh
        eve, n = EveKind.NONE, 1_000_000
        for source in (SourceModel.single_photon(), SourceModel.poissonian(0.5)):
            scn = make_scenario(PBC00, source=source, length=0.0)
            events = simulator._Events()
            simulator._sample_events(scn, eve, n, np.random.default_rng(1), events)
            warm_arrivals, buffers = events.n_arrivals, dict(events._buffers)
            rng = np.random.default_rng(2)
            tracemalloc.start()
            try:
                simulator._sample_events(scn, eve, n, rng, events)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1_500_000, source
            # every single-photon pulse arrives at 0 km; Poissonian ones grow
            grown = events.n_arrivals > warm_arrivals
            assert grown or events.n_arrivals == n
            assert events._buffers.keys() == buffers.keys()
            assert all(events._buffers[k] is buf for k, buf in buffers.items())


class TestPulseInvariants:
    def test_category_rules(self):
        scn = make_scenario(source=SourceModel.poissonian(0.8), length=30.0, c=0.3)
        ev = sample_events(scn, EveKind.NONE, 30_000, seed=13)
        cat = ev.category
        single = cat == Category.SINGLE_QUBIT
        assert (ev.emitted[single] == 1).all()
        assert (ev.arrived[single] >= 1).all() and (ev.fired[single] == 0).all()
        multi = cat == Category.MULTI_QUBIT
        assert (ev.emitted[multi] >= 2).all() and (ev.arrived[multi] >= 1).all()
        dark = cat == Category.DARK_COUNT
        assert (ev.arrived[dark] == 0).all() and (ev.fired[dark] == 1).all()
        assert not ev.bit_error[cat == Category.NOT_CONCLUSIVE].any()
        assert (ev.arrived <= ev.emitted).all()
        assert single.any() and multi.any() and dark.any() and ev.bit_error.any()

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

    def test_double_fires_discarded(self):
        # huge dark count probability so double fires actually occur
        scn = make_scenario(length=1000.0, c=0.3, e_x_sq=0.0)
        ev = sample_events(scn, EveKind.NONE, 20_000, seed=8)
        doubles = multi_fires(ev)
        assert doubles.any()
        assert (ev.category[doubles] == Category.NOT_CONCLUSIVE).all()
        assert not ev.bit_error[doubles].any()


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


def poisson_pmf(lam):
    """Poisson(``lam``) probabilities of ``k = 0, 1, ...`` out to where the
    tail is negligible."""
    k = np.arange(0, int(lam + 20 * math.sqrt(lam)) + 40)
    log_pmf = k * math.log(lam) - np.array([math.lgamma(j + 1) for j in k]) - lam
    return np.exp(log_pmf)


# the means just either side of the switch from the chain to numpy's sampler
CROSSOVER_MEANS = [
    simulator._CHAIN_MAX_MEAN,
    math.nextafter(simulator._CHAIN_MAX_MEAN, math.inf),
]


def assert_mean_matches(draws, pmf):
    k = np.arange(1, len(pmf) + 1)
    mean = float(np.dot(k, pmf))
    sd = math.sqrt(max(float(np.dot(k**2, pmf)) - mean**2, 0.0))
    assert abs(draws.mean() - mean) <= 5 * sd / math.sqrt(draws.size) + 1e-12


class TestZeroTruncatedSamplers:
    N = 400_000

    @pytest.mark.parametrize(
        "lam", [1e-4, 1e-3, 0.05, 0.5, 1.0, 5.0, *CROSSOVER_MEANS, 40.0]
    )
    def test_poisson(self, lam):
        rng = np.random.default_rng(int(lam * 1e4) + 1)
        draws = simulator._poisson(rng, lam, self.N, zero_truncated=True)
        pmf = poisson_pmf(lam)[1:] / -math.expm1(-lam)
        assert_matches_pmf(draws, pmf)
        assert_mean_matches(draws, pmf)

    @pytest.mark.parametrize("lam", [1e-4, 0.05, 0.45, 5.0, *CROSSOVER_MEANS])
    def test_lost_count_poisson(self, lam):
        # counts from 0: shifted by one onto the helpers' support 1..len(pmf)
        rng = np.random.default_rng(int(lam * 1e4) + 7)
        draws = simulator._poisson(rng, lam, self.N)
        pmf = poisson_pmf(lam)
        assert_matches_pmf(draws + 1, pmf)
        assert_mean_matches(draws + 1, pmf)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1e-6, 1e-5, 1e-3, 0.05, 0.3])
    def test_binomial(self, n, p):
        rng = np.random.default_rng(int(p * 1e6) + n)
        draws = simulator._zero_truncated_binomial(rng, n, p, self.N)
        k = np.arange(1, n + 1)
        comb = np.array([math.comb(n, j) for j in range(1, n + 1)])
        pmf = comb * p**k * (1 - p) ** (n - k)
        pmf /= 1 - (1 - p) ** n
        assert_matches_pmf(draws, pmf)
        assert_mean_matches(draws, pmf)

    def test_empty_request_draws_nothing(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        assert simulator._poisson(rng, 0.0, 0, zero_truncated=True).size == 0
        assert simulator._zero_truncated_binomial(rng, 2, 0.0, 0).size == 0
        for lam in (0.5, 40.0):
            assert simulator._poisson(rng, lam, 0).size == 0
        # a mean of 0 has only one value to draw
        assert (simulator._poisson(rng, 0.0, 1000) == 0).all()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("first", [0, 1])
    def test_underflowed_tail_ends_table(self, first):
        # lam^2 / 2 underflows to 0: every draw stays at first, with no 0/0
        rng = np.random.default_rng(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = simulator._poisson(rng, 1e-300, 1000, zero_truncated=bool(first))
            fires = simulator._zero_truncated_binomial(rng, 3, 1e-300, 1000)
        assert (draws == first).all() and (fires == 1).all()


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
        # a common outcome takes one raw byte per trial, ties resolved by a
        # uniform; a rare one the gaps
        rng = np.random.default_rng(61)
        raw = rng.bit_generator.random_raw(-(-self.N // 8)).view(np.uint8)[: self.N]
        k = math.floor(256 * p)
        by_bytes = raw < k
        ties = np.flatnonzero(raw == k)
        by_bytes[ties] = rng.random(ties.size) < 256 * p - k
        drawn = np.random.default_rng(61)
        mask = simulator._bernoulli(drawn, self.N, p)
        on_bytes = min(p, 1 - p) >= simulator._GAP_MAX_P
        assert np.array_equal(mask, by_bytes) == on_bytes
        assert (drawn.bit_generator.state == rng.bit_generator.state) == on_bytes


    @pytest.mark.parametrize("p", [0.5, 1 / 256, 255.5 / 256])
    def test_byte_ties(self, p):
        # with k = floor(256 p), a byte below k succeeds and one equal to k
        # succeeds with probability 256 p - k: never when 256 p is whole
        raw = np.random.default_rng(71).bit_generator.random_raw(-(-self.N // 8))
        raw = raw.view(np.uint8)[: self.N]
        k = math.floor(256 * p)
        out = np.empty(self.N, dtype=bool)
        mask = simulator._bernoulli_bytes(np.random.default_rng(71), p, out)
        assert mask is out
        tie = raw == k
        assert np.array_equal(mask[~tie], raw[~tie] < k)
        ties, hits, frac = tie.sum(), mask[tie].sum(), 256 * p - k
        assert abs(hits - ties * frac) <= 5 * math.sqrt(ties * frac * (1 - frac))


class TestCountingTally:
    """``_tally`` counts arrivals without a full key; the reference
    ``full_key_tally`` bins every event."""

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
                    events = sample_events(scn, eve, n, seed)
                    want = full_key_tally(n, events)
                    assert simulator._tally(n, events) == want, (length, c, eve)
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
        # single-photon pulses: a lost photon, then two or more dark fires
        c, n = 0.3, 50_000
        scn = make_scenario(PBC00, c=c)
        events = sample_events(scn, EveKind.NONE, n, seed=2026)
        doubles = int(multi_fires(events).sum())
        d = PBC00.detector_count
        multi_fire = 1 - (1 - c) ** d - d * c * (1 - c) ** (d - 1)
        p = (1 - transmittance(scn.link)) * multi_fire
        assert abs(doubles / n - p) <= 3 * math.sqrt(p * (1 - p) / n)
