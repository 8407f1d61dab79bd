"""Tests for the Monte Carlo pulse simulator against analytic predictions."""

import math

import pytest

from qkdrates.cli import main
from qkdrates.protocols import BB84, PBC00, SIX_STATE
from qkdrates.scenario import (
    DetectorModel,
    LinkModel,
    Scenario,
    SourceModel,
    breakdown,
)
from qkdrates.simulator import (
    Category,
    EveModel,
    compare_to_analytic,
    empirical_breakdown,
    recover_single_photon_rates,
    run_simulation,
    sample_outcomes,
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


class TestDeterminism:
    def test_identical_runs(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5))
        a = run_simulation(scn, EveModel.none(), 200_000, seed=42)
        b = run_simulation(scn, EveModel.none(), 200_000, seed=42)
        assert a == b

    def test_seed_changes_stream(self):
        scn = make_scenario()
        a = run_simulation(scn, EveModel.none(), 200_000, seed=1)
        b = run_simulation(scn, EveModel.none(), 200_000, seed=2)
        assert a != b

    def test_workers_bit_identical(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5))
        serial = run_simulation(scn, EveModel.none(), 500_000, seed=9, batch_size=100_000)
        threaded = run_simulation(
            scn, EveModel.none(), 500_000, seed=9, batch_size=100_000, workers=4
        )
        assert serial == threaded

    def test_outcomes_match_tallies(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-3)
        stats = run_simulation(scn, EveModel.none(), 50_000, seed=5)
        outcomes = sample_outcomes(scn, EveModel.none(), 50_000, seed=5)
        counts = {cat: 0 for cat in Category}
        errors = 0
        for o in outcomes:
            counts[o.category] += 1
            if o.category is not Category.NOT_CONCLUSIVE and o.bit_error:
                errors += 1
        assert counts[Category.SINGLE_QUBIT] == stats.cat1_count
        assert counts[Category.MULTI_QUBIT] == stats.cat2_count
        assert counts[Category.DARK_COUNT] == stats.cat4_count
        assert errors == stats.error_count


class TestPulseInvariants:
    def test_category_rules(self):
        scn = make_scenario(source=SourceModel.poissonian(0.8), length=30.0, c=1e-3)
        for o in sample_outcomes(scn, EveModel.none(), 30_000, seed=13):
            fired = sum(o.detector_fired)
            if o.category is Category.SINGLE_QUBIT:
                assert o.emitted_photons == 1 and o.arrived_photons >= 1
            elif o.category is Category.MULTI_QUBIT:
                assert o.emitted_photons >= 2 and o.arrived_photons >= 1
            elif o.category is Category.DARK_COUNT:
                assert o.arrived_photons == 0 and fired == 1
            elif o.category is Category.NOT_CONCLUSIVE:
                assert o.bit_error is None
                if o.arrived_photons == 0 and fired >= 2:
                    pass  # double fires are discarded by construction
            assert o.arrived_photons <= o.emitted_photons

    def test_no_category3_without_eve(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-3)
        stats = run_simulation(scn, EveModel.none(), 200_000, seed=3)
        assert stats.cat3_count == 0

    def test_perfect_channel_all_single_qubit(self):
        scn = make_scenario(length=0.0, c=0.0, e_x_sq=0.0)
        stats = run_simulation(scn, EveModel.none(), 100_000, seed=21)
        assert stats.cat1_count == 100_000
        assert stats.error_count == 0

    def test_double_fires_discarded(self):
        # huge dark count probability so double fires actually occur
        scn = make_scenario(length=1000.0, c=0.3, e_x_sq=0.0)
        outcomes = sample_outcomes(scn, EveModel.none(), 20_000, seed=8)
        doubles = [
            o
            for o in outcomes
            if o.arrived_photons == 0 and sum(o.detector_fired) >= 2
        ]
        assert doubles
        assert all(o.category is Category.NOT_CONCLUSIVE for o in doubles)


class TestAnalyticsAgreement:
    @pytest.mark.parametrize("spec", [BB84, SIX_STATE, PBC00])
    def test_single_photon_three_sigma(self, spec):
        scn = make_scenario(spec)
        stats = run_simulation(scn, EveModel.none(), 1_000_000, seed=101)
        for row in compare_to_analytic(stats, scn):
            assert abs(row.z) <= 3.0, row

    @pytest.mark.parametrize("spec", [BB84, SIX_STATE, PBC00])
    def test_poisson_three_sigma(self, spec):
        scn = make_scenario(spec, source=SourceModel.poissonian(0.5))
        stats = run_simulation(scn, EveModel.none(), 1_000_000, seed=103)
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
        stats = run_simulation(make_scenario(length=10.0), EveModel.none(), 20_000, seed=5)
        zs = {row.name: row.z for row in compare_to_analytic(stats, make_scenario(length=0.0))}
        assert zs["p_sq"] == math.inf

    def test_mismatched_model_detected(self):
        scn = make_scenario(c=1e-3)
        wrong = make_scenario(c=1e-6)
        stats = run_simulation(scn, EveModel.none(), 1_000_000, seed=7)
        zs = {row.name: row.z for row in compare_to_analytic(stats, wrong)}
        assert abs(zs["p_dk"]) > 3.0

    def test_single_photon_pulse_conclusive_rate(self):
        # empirical omega1 * p_c against p_sq + 2C P_1 (1 - eta)
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-5)
        stats = run_simulation(scn, EveModel.none(), 1_000_000, seed=31)
        b = breakdown(scn)
        want = b.omega1 * b.p_c
        got = stats.single_pulse_conclusive / stats.n_pulses
        se = math.sqrt(want * (1 - want) / stats.n_pulses)
        assert abs(got - want) <= 3 * se


class TestInterceptResend:
    def test_bb84_quarter(self):
        scn = make_scenario(length=0.0, c=0.0, e_x_sq=0.0)
        stats = run_simulation(scn, EveModel.intercept_resend(), 1_200_000, seed=11)
        assert stats.conclusive_count >= 1_000_000
        se = math.sqrt(0.25 * 0.75 / stats.conclusive_count)
        assert abs(stats.e_x_hat - 0.25) <= 3 * se

    def test_six_state_third(self):
        scn = make_scenario(SIX_STATE, length=0.0, c=0.0, e_x_sq=0.0)
        stats = run_simulation(scn, EveModel.intercept_resend(), 1_200_000, seed=11)
        expected = 1.0 / 3.0
        se = math.sqrt(expected * (1 - expected) / stats.conclusive_count)
        assert abs(stats.e_x_hat - expected) <= 3 * se

    def test_composes_with_intrinsic_errors(self):
        scn = make_scenario(length=0.0, c=0.0, e_x_sq=0.1)
        stats = run_simulation(scn, EveModel.intercept_resend(), 1_200_000, seed=15)
        # independent flips: 0.25 (attack) + 0.1 (channel) - 2 * product
        expected = 0.25 * 0.9 + 0.1 * 0.75
        se = math.sqrt(expected * (1 - expected) / stats.conclusive_count)
        assert abs(stats.e_x_hat - expected) <= 3 * se


class TestEmpiricalBreakdown:
    def test_fields_match_tallies(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), c=1e-3)
        stats = run_simulation(scn, EveModel.none(), 500_000, seed=4)
        result = empirical_breakdown(stats)
        b = result.breakdown
        assert b is not None
        assert b.p_sq == stats.cat1_count / stats.n_pulses
        assert b.p_mq == stats.cat2_count / stats.n_pulses
        assert b.p_dk == stats.cat4_count / stats.n_pulses
        assert b.e_x == pytest.approx(stats.e_x_hat)
        assert not result.insufficient
        assert result.stderr["p_sq"] > 0.0

    def test_all_not_conclusive(self):
        # essentially opaque channel with no dark counts
        scn = make_scenario(length=2000.0, c=0.0)
        stats = run_simulation(scn, EveModel.none(), 2_000, seed=1)
        assert stats.conclusive_count == 0
        result = empirical_breakdown(stats)
        assert result.breakdown is None
        assert result.insufficient

    def test_sparse_category_flagged(self):
        scn = make_scenario(c=1e-5)
        stats = run_simulation(scn, EveModel.none(), 200_000, seed=2)
        assert 0 < stats.cat4_count < 100
        assert empirical_breakdown(stats).insufficient


class TestDecoySimulation:
    def test_single_mu_equals_plain_run(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5))
        runs = simulate_decoy_run(scn, [0.5], 100_000, seed=6)
        assert runs[0.5] == run_simulation(scn, EveModel.none(), 100_000, seed=6)

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
        stats = run_simulation(scn, EveModel.none(), 50_000, seed=2)
        text = tally_csv(stats)
        lines = text.splitlines()
        assert lines[0] == "category,count,bit_errors"
        assert len(lines) == 5
        assert lines[1].startswith("single_qubit,")
        assert lines[4].startswith("dark_count,")
        assert text.endswith("\n")
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == stats.conclusive_count
