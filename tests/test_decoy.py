"""Tests for the decoy-state estimate: the inversion of the decoy-estimated
single-photon statistics and the worst case without decoy states."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdrates.decoy import (
    DecoyInversionError,
    decoy_invert,
    intrinsic_error_from_decoy_with_slope,
    worst_case_no_decoy,
)
from qkdrates.keyrate import rate_gllp, single_photon_class_error
from qkdrates.protocols import BB84, PBC00, SIX_STATE, protocol_catalog
from qkdrates.scenario import (
    DetectorModel,
    LinkModel,
    Scenario,
    SourceModel,
    breakdown,
    transmittance,
)


def make_scenario(spec=BB84, source=None, att=0.2, length=50.0, c=1e-6, e_x_sq=0.01):
    return Scenario(
        protocol=spec,
        source=source or SourceModel.single_photon(),
        link=LinkModel(attenuation_db_per_km=att, length_km=length),
        detector=DetectorModel(dark_count_prob=c, detector_count=spec.detector_count),
        e_x_sq=e_x_sq,
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
