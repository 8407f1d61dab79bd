"""Tests for the physical-model layer: breakdowns and sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdrates.keyrate import single_photon_class_error
from qkdrates import scenario
from qkdrates.protocols import BB84, PBC00, SIX_STATE, protocol_catalog
from qkdrates.scenario import (
    DetectorModel,
    EveKind,
    NoConclusiveResultsError,
    LinkModel,
    Scenario,
    SourceKind,
    SourceModel,
    distance_sweep,
    transmittance,
    breakdown,
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

    @pytest.mark.parametrize("bad", [2.5, 2.0, math.inf, math.nan, 0, -1, "2", None])
    def test_detector_count_is_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="detector count"):
            DetectorModel(1e-6, bad)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_detector_count_accepts_positive_integers(self, count):
        assert DetectorModel(1e-6, count).detector_count == count

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
        assert np.all(abs(b.p_sq + b.p_mq + b.p_dk - b.p_c) <= 1e-15)
        assert np.all(b.p_mq == 0.0)
        assert np.all(b.omega0 == 0.0)
        assert np.all(b.omega1 == 1.0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: linearized dark rate")
    @pytest.mark.parametrize("c", [0.01, 0.3, 0.9999999])
    @pytest.mark.parametrize("spec", protocol_catalog(), ids=lambda s: s.name)
    def test_dark_rate_is_the_exact_single_fire_rate(self, spec, c):
        # a dark count is conclusive only when its detector fires alone: the
        # other n - 1 stay dark, and no photon arrives to fire one
        scn = make_scenario(spec, length=50.0, c=c)
        b = breakdown(scn)
        n = spec.detector_count
        no_arrival = 1.0 - transmittance(scn.link)
        want = spec.dark_conclusive_multiplier * c * (1.0 - c) ** (n - 1) * no_arrival
        assert b.p_dk == pytest.approx(want, rel=1e-12)
        assert b.p_c <= 1.0


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
            assert b.p_sq + b.p_mq + b.p_dk == pytest.approx(
                b.p_c, abs=1e-15
            )


class TestEavesdropperBreakdown:
    """An intercept-resend eavesdropper flips each arriving qubit with
    probability q, independently of the intrinsic flip: the qubit error is
    e_x_sq + q (1 - 2 e_x_sq), and the rates do not move."""

    @pytest.mark.parametrize(
        ("spec", "q"), [(BB84, 0.25), (SIX_STATE, 1 / 3), (PBC00, 1 / 3)]
    )
    @pytest.mark.parametrize(
        "source", [SourceModel.single_photon(), SourceModel.poissonian(0.5)]
    )
    def test_qubit_error(self, spec, q, source):
        scn = make_scenario(spec, source=source, c=1e-4, e_x_sq=0.05)
        honest = breakdown(scn)
        attacked = breakdown(scn, EveKind.INTERCEPT_RESEND)
        e_q = 0.05 + q * 0.9
        assert attacked.e_x_sq == pytest.approx(e_q, rel=1e-15)
        want = ((honest.p_sq + honest.p_mq) * e_q + honest.p_dk / 2) / honest.p_c
        assert attacked.e_x == pytest.approx(want, rel=1e-15)
        assert attacked._replace(e_x=0.0, e_x_sq=0.0) == honest._replace(
            e_x=0.0, e_x_sq=0.0
        )

    def test_no_eavesdropper_is_the_default(self):
        # e_q = e_x_sq exactly, for floats and arrays
        scn = make_scenario(source=SourceModel.poissonian(0.5), e_x_sq=0.013)
        assert breakdown(scn, EveKind.NONE) == breakdown(scn)
        assert breakdown(scn).e_x_sq == 0.013
        points = scn.at_length(np.linspace(0.0, 200.0, 5))
        for got, want in zip(breakdown(points, EveKind.NONE), breakdown(points)):
            assert np.array_equal(got, want)


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
