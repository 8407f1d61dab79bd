"""Tests for the physical-model layer: breakdowns, decoy inversion, sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdrates.keyrate import rate_gllp, single_photon_class_error
from qkdrates import scenario
from qkdrates.protocols import BB84, PBC00, SIX_STATE, protocol_catalog
from qkdrates.scenario import (
    DecoyInversionError,
    DetectorModel,
    NoConclusiveResultsError,
    LinkModel,
    Scenario,
    SourceKind,
    SourceModel,
    decoy_invert,
    distance_sweep,
    intrinsic_error_from_decoy_with_slope,
    transmittance,
    breakdown,
    worst_case_no_decoy,
)


def make_scenario(spec=BB84, source=None, att=0.2, length=50.0, c=1e-6, e_x_sq=0.01):
    return Scenario(
        protocol=spec,
        source=source or SourceModel.single_photon(),
        link=LinkModel(attenuation_db_per_km=att, length_km=length),
        detector=DetectorModel(dark_count_prob=c, detector_count=spec.detector_count),
        e_x_sq=e_x_sq,
    )


class TestTransmittance:
    def test_zero_length(self):
        assert transmittance(LinkModel(0.2, 0.0)) == 1.0

    def test_zero_attenuation(self):
        assert transmittance(LinkModel(0.0, 123.0)) == 1.0

    def test_ten_db_is_factor_ten(self):
        # 0.2 dB/km * 50 km = 10 dB
        assert transmittance(LinkModel(0.2, 50.0)) == pytest.approx(0.1, rel=1e-12)


class TestModelValidation:
    def test_negative_attenuation(self):
        with pytest.raises(ValueError):
            LinkModel(-0.1, 10.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_link(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LinkModel(0.2, bad)
        with pytest.raises(ValueError, match="finite"):
            LinkModel(bad, 10.0)

    def test_dark_count_range(self):
        with pytest.raises(ValueError):
            DetectorModel(1.0, 2)

    def test_poisson_needs_mu(self):
        with pytest.raises(ValueError):
            SourceModel(kind=SourceKind.POISSONIAN)

    def test_single_photon_rejects_mu(self):
        with pytest.raises(ValueError):
            SourceModel(kind=SourceKind.SINGLE_PHOTON, mean_photon_number=0.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -0.5])
    def test_bad_mean_photon_number(self, bad):
        with pytest.raises(ValueError, match="finite mean photon number"):
            SourceModel.poissonian(bad)

    def test_detector_count_must_match_protocol(self):
        with pytest.raises(ValueError, match="detectors"):
            Scenario(
                protocol=PBC00,
                source=SourceModel.single_photon(),
                link=LinkModel(0.2, 10.0),
                detector=DetectorModel(1e-6, 2),
                e_x_sq=0.01,
            )

    def test_e_x_sq_range(self):
        with pytest.raises(ValueError):
            make_scenario(e_x_sq=0.6)


class TestSinglePhotonBreakdown:
    def test_no_loss_means_no_darks(self):
        b = breakdown(make_scenario(length=0.0, e_x_sq=0.03))
        assert b.p_dk == 0.0
        assert b.e_x == pytest.approx(0.03)

    def test_known_point(self):
        # eta = 0.01 at 100 km and 0.2 dB/km
        b = breakdown(make_scenario(length=100.0, e_x_sq=0.0))
        assert b.p_sq == pytest.approx(0.01, rel=1e-12)
        assert b.p_dk == pytest.approx(1.98e-6, rel=1e-9)
        assert b.e_x == pytest.approx(9.898e-5, rel=1e-3)

    def test_pbc00_has_higher_dark_fraction(self):
        b_bb = breakdown(make_scenario(BB84))
        b_pbc = breakdown(make_scenario(PBC00))
        assert b_pbc.p_dk / b_pbc.p_c >= b_bb.p_dk / b_bb.p_c

    @given(
        spec=st.sampled_from(protocol_catalog()),
        length=st.floats(0.0, 400.0),
        c=st.floats(0.0, 0.5, exclude_max=True),
        as_array=st.booleans(),
    )
    def test_components_sum(self, spec, length, c, as_array):
        # the merged breakdown must keep a single-photon source's constants
        # exact, element by element: no multi-photon results, omega1 = 1
        if as_array:
            length = np.array([length, 0.0, 400.0])
        b = breakdown(make_scenario(spec, length=length, c=c))
        assert np.all(abs(b.p_emp + b.p_sq + b.p_mq + b.p_dk - b.p_c) <= 1e-15)
        assert np.all(b.p_mq == 0.0)
        assert np.all(b.omega0 == 0.0)
        assert np.all(b.omega1 == 1.0)


class TestNoConclusiveResults:
    # 1e5 km at 0.2 dB/km: the transmittance underflows to exactly 0
    @pytest.mark.parametrize("source", [None, SourceModel.poissonian(0.5)])
    def test_breakdown_names_the_cause(self, source):
        scn = make_scenario(source=source, length=1e5, c=0.0)
        assert transmittance(scn.link) == 0.0
        with pytest.raises(NoConclusiveResultsError, match="no conclusive results"):
            breakdown(scn)


class TestPoissonBreakdown:
    def test_decoy_relation_exact(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5))
        b = breakdown(scn)
        eta = transmittance(scn.link)
        p1 = 0.5 * math.exp(-0.5)
        want = b.p_sq + 2.0 * 1e-6 * p1 * (1.0 - eta)
        assert b.omega1 * b.p_c == pytest.approx(want, rel=1e-12)

    def test_closed_form_multi_photon_share(self):
        scn = make_scenario(
            source=SourceModel.poissonian(0.5), att=0.0, length=0.0, c=0.0
        )
        b = breakdown(scn)
        p0 = math.exp(-0.5)
        p1 = 0.5 * math.exp(-0.5)
        assert b.p_mq / b.p_c == pytest.approx((1 - p0 - p1) / (1 - p0), rel=1e-12)

    def test_small_mu_limit_matches_single_photon(self):
        mu = 1e-6
        poisson_scn = make_scenario(source=SourceModel.poissonian(mu))
        single_scn = make_scenario()
        bp = breakdown(poisson_scn)
        bs = breakdown(single_scn)
        p1 = mu * math.exp(-mu)
        assert bp.p_sq / p1 == pytest.approx(bs.p_sq, rel=1e-3)
        dark_on_single = bp.omega1 * bp.p_c - bp.p_sq
        assert dark_on_single / p1 == pytest.approx(bs.p_dk, rel=1e-3)
        assert single_photon_class_error(bp) == pytest.approx(bs.e_x, rel=1e-3)

    def test_omegas_bounded(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            scn = make_scenario(
                source=SourceModel.poissonian(float(rng.uniform(0.01, 3.0))),
                length=float(rng.uniform(0.0, 400.0)),
                c=float(10.0 ** rng.uniform(-8, -3)),
                e_x_sq=float(rng.uniform(0.0, 0.5)),
            )
            b = breakdown(scn)
            assert 0.0 <= b.omega0 and 0.0 <= b.omega1
            assert b.omega0 + b.omega1 <= 1.0 + 1e-12
            assert b.p_emp + b.p_sq + b.p_mq + b.p_dk == pytest.approx(
                b.p_c, abs=1e-15
            )


class TestDecoyInvert:
    def test_round_trip_from_forward_model(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), e_x_sq=0.01)
        b = breakdown(scn)
        eta = transmittance(scn.link)
        p_sq, e_x_sq = decoy_invert(
            b.omega1 * b.p_c, single_photon_class_error(b), 0.5, eta, 1e-6, 2.0
        )
        assert p_sq == pytest.approx(b.p_sq, abs=1e-9)
        assert e_x_sq == pytest.approx(0.01, abs=1e-9)

    def test_round_trip_random_grid(self):
        # protocols with conclusive factor 1; the trine POVM folds its
        # factor into the recovered error rate, undone separately below
        rng = np.random.default_rng(31)
        for _ in range(100):
            spec = (BB84, SIX_STATE)[rng.integers(2)]
            mu = float(rng.uniform(0.05, 2.0))
            scn = make_scenario(
                spec,
                source=SourceModel.poissonian(mu),
                length=float(rng.uniform(0.0, 300.0)),
                c=float(10.0 ** rng.uniform(-8, -4)),
                e_x_sq=float(rng.uniform(0.0, 0.5)),
            )
            b = breakdown(scn)
            p_sq, e_x_sq = decoy_invert(
                b.omega1 * b.p_c,
                single_photon_class_error(b),
                mu,
                transmittance(scn.link),
                scn.detector.dark_count_prob,
                spec.dark_conclusive_multiplier,
            )
            assert p_sq == pytest.approx(b.p_sq, abs=1e-9)
            assert e_x_sq == pytest.approx(scn.e_x_sq, abs=1e-9)

    def test_pbc00_needs_factor_correction(self):
        scn = make_scenario(PBC00, source=SourceModel.poissonian(0.5), e_x_sq=0.04)
        b = breakdown(scn)
        p_sq, e_raw = decoy_invert(
            b.omega1 * b.p_c, single_photon_class_error(b), 0.5,
            transmittance(scn.link), 1e-6, PBC00.dark_conclusive_multiplier,
        )
        assert p_sq == pytest.approx(b.p_sq, abs=1e-9)
        assert e_raw == pytest.approx(0.04 / (2.0 - 0.04), abs=1e-9)
        assert intrinsic_error_from_decoy_with_slope(PBC00, e_raw)[
            0
        ] == pytest.approx(0.04, abs=1e-9)
        assert intrinsic_error_from_decoy_with_slope(BB84, 0.3) == (0.3, 1.0)

    @pytest.mark.parametrize("spec", [BB84, SIX_STATE, PBC00])
    def test_correction_slope(self, spec):
        raw, h = 0.05, 1e-6
        _, slope = intrinsic_error_from_decoy_with_slope(spec, raw)
        finite_difference = (
            intrinsic_error_from_decoy_with_slope(spec, raw + h)[0]
            - intrinsic_error_from_decoy_with_slope(spec, raw - h)[0]
        ) / (2 * h)
        assert slope == pytest.approx(finite_difference, rel=1e-8)

    @given(spec=st.sampled_from(protocol_catalog()), e=st.floats(0.0, 1.0))
    def test_correction_inverts_conclusive_factor(self, spec, e):
        raw = e * spec.conclusive_factor(e)
        corrected, _ = intrinsic_error_from_decoy_with_slope(spec, raw)
        assert corrected == pytest.approx(e, abs=1e-12)

    @given(
        spec=st.sampled_from(protocol_catalog()),
        mu=st.floats(0.05, 2.0),
        length=st.floats(0.0, 300.0),
        log_dark=st.floats(-8.0, -4.0),
        e_x_sq=st.floats(0.0, 0.5),
    )
    def test_round_trip_property(self, spec, mu, length, log_dark, e_x_sq):
        scn = make_scenario(
            spec,
            source=SourceModel.poissonian(mu),
            length=length,
            c=10.0**log_dark,
            e_x_sq=e_x_sq,
        )
        b = breakdown(scn)
        p_sq, e_raw = decoy_invert(
            b.omega1 * b.p_c,
            single_photon_class_error(b),
            mu,
            transmittance(scn.link),
            scn.detector.dark_count_prob,
            spec.dark_conclusive_multiplier,
        )
        assert p_sq == pytest.approx(b.p_sq, abs=1e-9)
        e_x_sq_back, _ = intrinsic_error_from_decoy_with_slope(spec, e_raw)
        assert e_x_sq_back == pytest.approx(e_x_sq, abs=1e-9)

    def test_no_dark_counts(self):
        mu, eta = 0.5, 0.2
        p1 = mu * math.exp(-mu)
        p_sq, e_x_sq = decoy_invert(p1 * eta, 0.02, mu, eta, 0.0, 2.0)
        assert p_sq == pytest.approx(p1 * eta, abs=1e-15)
        assert e_x_sq == pytest.approx(0.02 * p1 * eta / (p1 * eta), abs=1e-12)

    def test_below_dark_floor(self):
        with pytest.raises(DecoyInversionError):
            decoy_invert(1e-12, 0.5, 0.5, 0.1, 1e-3, 2.0)

    def test_zero_transmittance(self):
        with pytest.raises(DecoyInversionError, match="transmittance is 0"):
            decoy_invert(1e-3, 0.5, 0.5, 0.0, 1e-3, 2.0)
        with pytest.raises(ValueError, match="eta in"):
            decoy_invert(1e-3, 0.5, 0.5, 1.5, 1e-3, 2.0)

    def test_unphysical_error_rate(self):
        mu, eta = 0.5, 0.01
        p1 = mu * math.exp(-mu)
        with pytest.raises(DecoyInversionError):
            decoy_invert(p1, 0.9, mu, eta, 0.0, 2.0)


class TestWorstCaseNoDecoy:
    def test_vanishing_mu(self):
        est = worst_case_no_decoy(0.5, 0.03, 1e-9)
        assert est.usable
        assert est.omega1_lower == pytest.approx(1.0, abs=1e-9)
        assert est.e_x_1_upper == pytest.approx(0.03, abs=1e-9)

    def test_boundary(self):
        mu = 0.5
        p_multi = 1.0 - math.exp(-mu) * (1.0 + mu)
        est = worst_case_no_decoy(p_multi, 0.1, mu)
        assert not est.usable
        assert est.omega1_lower == 0.0

    def test_much_worse_than_decoy(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5), e_x_sq=0.01)
        b = breakdown(scn)
        est = worst_case_no_decoy(b.p_c, b.e_x, 0.5)
        if est.usable:
            from qkdrates.entropy import binary_entropy, worst_case_conditional_phase_entropy

            worst_rate = b.p_c * (
                est.omega1_lower
                - binary_entropy(b.e_x)
                - est.omega1_lower
                * worst_case_conditional_phase_entropy(BB84, est.e_x_1_upper)
            )
        else:
            from qkdrates.entropy import binary_entropy

            worst_rate = -b.p_c * binary_entropy(b.e_x)
        assert worst_rate < rate_gllp(b, BB84)
        # at eta = 0.1 the multi-photon rate swamps p_c entirely
        assert not est.usable


class TestDistanceSweep:
    def test_single_row(self):
        sweep = distance_sweep(make_scenario(), 25.0, 25.0, 5.0)
        assert sweep.length_km.tolist() == [25.0]

    def test_grid_and_clamping(self):
        sweep = distance_sweep(make_scenario(e_x_sq=0.05), 0.0, 500.0, 50.0)
        assert sweep.length_km.tolist() == [50.0 * i for i in range(11)]
        for column in (sweep.eta, sweep.breakdown.p_c, sweep.rate_old, sweep.rate_new):
            assert column.shape == (11,)
        assert all(sweep.rate_old >= 0.0) and all(sweep.rate_new >= 0.0)

    def test_improved_survives_longer(self):
        sweep = distance_sweep(make_scenario(), 0.0, 400.0, 10.0)
        last_old = max(sweep.length_km[sweep.rate_old > 0.0])
        last_new = max(sweep.length_km[sweep.rate_new > 0.0])
        assert last_new > last_old

    def test_poisson_improved_dominates_everywhere(self):
        scn = make_scenario(source=SourceModel.poissonian(0.5))
        sweep = distance_sweep(scn, 0.0, 200.0, 20.0)
        assert all(sweep.rate_new >= sweep.rate_old)

    def test_validation(self):
        with pytest.raises(ValueError):
            distance_sweep(make_scenario(), 10.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            distance_sweep(make_scenario(), 0.0, 5.0, 0.0)

    def test_row_limit(self, monkeypatch):
        monkeypatch.setattr(scenario, "MAX_SWEEP_ROWS", 5)
        assert len(distance_sweep(make_scenario(), 0.0, 4.0, 1.0).length_km) == 5
        with pytest.raises(ValueError, match="more than 5 rows"):
            distance_sweep(make_scenario(), 0.0, 5.0, 1.0)

    def test_tiny_step_rejected(self):
        for step in (1e-12, 5e-324):
            with pytest.raises(ValueError, match="rows"):
                distance_sweep(make_scenario(), 0.0, 400.0, step)

    @pytest.mark.parametrize(
        "l_min, l_max, step",
        [(0.0, math.inf, 1.0), (0.0, 5.0, math.inf), (0.0, 5.0, math.nan), (math.nan, 5.0, 1.0)],
    )
    def test_non_finite_range(self, l_min, l_max, step):
        with pytest.raises(ValueError, match="finite"):
            distance_sweep(make_scenario(), l_min, l_max, step)

    def test_at_length_preserves_other_fields(self):
        scn = make_scenario()
        moved = scn.at_length(77.0)
        assert moved.link.length_km == 77.0
        assert moved.protocol is scn.protocol
        assert moved.e_x_sq == scn.e_x_sq
