"""Tests for the rate formulas, threshold solver, and distance search."""

import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import reference_max_distance
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates import keyrate, scenario
from qkdrates.entropy import binary_entropy, worst_case_conditional_phase_entropy
from qkdrates.keyrate import (
    RateBreakdown,
    max_distance,
    rate_alice,
    rate_bob,
    rate_gllp,
    rate_improved,
    rate_shor_preskill,
    single_photon_class_error,
    threshold_bit_error,
)
from qkdrates.protocols import BB84, PBC00, SIX_STATE, ProtocolSpec, protocol_catalog
from qkdrates.scenario import (
    DetectorModel,
    LinkModel,
    Scenario,
    SourceModel,
    breakdown,
)

# Root of 1 - H(e) - H_worst(e), solved independently by high-precision
# bisection on the closed forms H(e) (BB84), H4 pattern (six-state),
# H(1.25 e) (PBC00).
ZERO_DARK_THRESHOLDS = {
    "bb84": 0.1100278644,
    "six-state": 0.1261930833,
    "pbc00": 0.0981291597,
}

# First zero of 1 - H((1-f) e + f/2) - (1-f) H_worst(e) along f, same
# independent bisection.
DARK_THRESHOLDS = {
    ("bb84", 0.01): 0.44297982,
    ("six-state", 0.01): 0.46089694,
    ("pbc00", 0.01): 0.43164627,
    ("bb84", 0.1): 0.13569767,
    ("six-state", 0.1): 0.19455603,
}


def exact_root_y(spec, e_x_sq):
    """The threshold's equation solved in 50 digits, by bisection: with
    ``s = 1 - 2 e_x_sq`` and ``t = H_worst / s``, the root ``y*`` of
    ``C(y) = t*y`` with ``C(y) = 1 - H((1-y)/2)``; 0 when ``H_worst = 0`` and
    ``None`` when ``C(s) < H_worst``.  ``H_worst`` is the library's float,
    taken as exact.  Call it inside ``mpmath.workdps(50)``."""
    h = mpmath.mpf(worst_case_conditional_phase_entropy(spec, e_x_sq))
    s = 1 - 2 * mpmath.mpf(e_x_sq)

    def capacity(y):
        if y == 1:
            return mpmath.mpf(1)
        return (y * mpmath.atanh(y) + mpmath.log1p(-y * y) / 2) / mpmath.log(2)

    if capacity(s) < h:
        return None
    if h == 0:
        return mpmath.mpf(0)
    t = h / s
    # C(y) < t*y at y = t ln 2 and C(y) >= t*y at min(s, 2 t ln 2)
    lo, hi = t * mpmath.log(2), min(s, 2 * t * mpmath.log(2))
    for _ in range(200):
        mid = (lo + hi) / 2
        if capacity(mid) < t * mid:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def exact_threshold(spec, e_x_sq):
    """``(1 - y*)/2`` of ``exact_root_y``, rounded to a float."""
    with mpmath.workdps(50):
        y = exact_root_y(spec, e_x_sq)
        return None if y is None else float((1 - y) / 2)


@functools.cache
def exact_zero_dark_threshold(spec):
    """The root of ``1 - H(e) = H_worst(e)`` on [0, 1/2] in 50 digits, by
    bisection, with ``H_worst`` the library's float at the float nearest
    ``e``, taken as exact."""
    with mpmath.workdps(50):

        def margin(e):
            h = -e * mpmath.log(e, 2) - (1 - e) * mpmath.log(1 - e, 2)
            return 1 - h - worst_case_conditional_phase_entropy(spec, float(e))

        lo, hi = mpmath.mpf("1e-3"), mpmath.mpf("0.5")
        assert margin(lo) > 0 > margin(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            if margin(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def exact_single_photon_reach(scn, rate_fn):
    """The single-photon reach in 50 digits, as a float: the margin
    ``rate / p_c`` vanishes where ``1 - 2 e_x`` falls to ``y*``, that is,
    where ``p_dk / p_sq = m C (1 - eta) / (cf eta)`` reaches
    ``R = (1 - 2 e_x_sq) / y* - 1``.  0.0 when the margin is not positive
    at zero length and inf when it never vanishes."""
    spec = scn.protocol
    with mpmath.workdps(50):
        if rate_fn == "gllp":
            y = 1 - 2 * exact_zero_dark_threshold(spec)
        else:
            y = exact_root_y(spec, scn.e_x_sq)
        if y is None:
            return 0.0
        if y == 0:
            return math.inf
        ratio = (1 - 2 * mpmath.mpf(scn.e_x_sq)) / y - 1
        if ratio <= 0:
            return 0.0
        m_c = spec.dark_conclusive_multiplier * mpmath.mpf(scn.detector.dark_count_prob)
        cf = mpmath.mpf(spec.conclusive_factor(scn.e_x_sq))
        neper_per_km = mpmath.mpf(scn.link.attenuation_db_per_km) * mpmath.log(10) / 10
        return float(mpmath.log1p(ratio * cf / m_c) / neper_per_km)


def pure_single_photon(p_sq=1.0, e=0.0):
    return RateBreakdown(
        p_sq=p_sq, p_mq=0.0, p_dk=0.0,
        omega0=0.0, omega1=1.0, e_x=e, e_x_sq=e,
    )


def single_photon_with_darks(e_x_sq, dark_fraction, p_c=1.0):
    p_dk = dark_fraction * p_c
    p_sq = p_c - p_dk
    e_x = (p_sq * e_x_sq + p_dk * 0.5) / p_c
    return RateBreakdown(
        p_sq=p_sq, p_mq=0.0, p_dk=p_dk,
        omega0=0.0, omega1=1.0, e_x=e_x, e_x_sq=e_x_sq,
    )


def fig1_scenario(
    spec, e_x_sq=0.01, dark=1e-6, length=0.0, attenuation=0.2, source=None
):
    return Scenario(
        protocol=spec,
        source=source or SourceModel.single_photon(),
        link=LinkModel(attenuation_db_per_km=attenuation, length_km=length),
        detector=DetectorModel(dark_count_prob=dark, detector_count=spec.detector_count),
        e_x_sq=e_x_sq,
    )


class TestShorPreskillRate:
    def test_error_free(self):
        assert rate_shor_preskill(1.0, 0.0, BB84) == pytest.approx(1.0, abs=1e-12)

    def test_bb84_known_value(self):
        # 1 - 2 H(0.05), worst case H(e_z|e_x) = H(e_x) for BB84
        assert rate_shor_preskill(1.0, 0.05, BB84) == pytest.approx(0.4272, abs=1e-3)

    @pytest.mark.parametrize("name", list(ZERO_DARK_THRESHOLDS))
    def test_zero_dark_threshold_roots(self, name):
        spec = next(s for s in protocol_catalog() if s.name == name)
        lo, hi = 0.01, 0.3
        assert rate_shor_preskill(1.0, lo, spec) > 0
        assert rate_shor_preskill(1.0, hi, spec) < 0
        for _ in range(60):
            mid = (lo + hi) / 2
            if rate_shor_preskill(1.0, mid, spec) > 0:
                lo = mid
            else:
                hi = mid
        assert (lo + hi) / 2 == pytest.approx(ZERO_DARK_THRESHOLDS[name], abs=5e-4)
        # the bisection is the independent reference for the library's root
        assert abs(keyrate.zero_dark_threshold(spec) - (lo + hi) / 2) <= 1e-15

    @pytest.mark.parametrize("name", list(ZERO_DARK_THRESHOLDS))
    def test_zero_dark_threshold_solver(self, name):
        # the gllp reach's threshold, found by Brent's method to a few ulps
        spec = next(s for s in protocol_catalog() if s.name == name)
        got = keyrate.zero_dark_threshold(spec)
        with mpmath.workdps(50):
            assert abs(got - exact_zero_dark_threshold(spec)) <= 1e-15
        assert got == pytest.approx(ZERO_DARK_THRESHOLDS[name], abs=5e-4)


class TestZeroDarkThresholdCache:
    """The zero-dark root is a constant of the protocol, solved once per
    distinct spec per process."""

    @pytest.mark.parametrize("spec", protocol_catalog(), ids=lambda s: s.name)
    def test_cached_value_is_the_solve(self, spec):
        solve = keyrate.zero_dark_threshold.__wrapped__
        assert keyrate.zero_dark_threshold(spec).hex() == solve(spec).hex()

    def test_one_solve_per_protocol(self):
        # single-photon gllp reaches over 3 protocols x 4 dark rates
        keyrate.zero_dark_threshold.cache_clear()
        for spec in protocol_catalog():
            for dark in (1e-7, 1e-6, 1e-5, 1e-4):
                assert 0.0 < max_distance(fig1_scenario(spec, dark=dark), "gllp")
        info = keyrate.zero_dark_threshold.cache_info()
        assert (info.misses, info.hits) == (3, 9)

    @pytest.mark.parametrize("spec", protocol_catalog(), ids=lambda s: s.name)
    def test_equal_spec_hits(self, spec):
        want = keyrate.zero_dark_threshold(spec)
        before = keyrate.zero_dark_threshold.cache_info()
        rebuilt = ProtocolSpec(**spec._asdict())
        assert rebuilt is not spec
        assert keyrate.zero_dark_threshold(rebuilt) == want
        after = keyrate.zero_dark_threshold.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_bounded(self):
        maxsize = keyrate.zero_dark_threshold.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 1000


class TestGllpRate:
    def test_reduces_to_shor_preskill(self):
        b = pure_single_photon(p_sq=0.8, e=0.03)
        want = rate_shor_preskill(0.8, 0.03, BB84)
        assert rate_gllp(b, BB84) == pytest.approx(want, abs=1e-12)

    def test_no_extractable_fraction(self):
        b = RateBreakdown(
            p_sq=0.0, p_mq=0.5, p_dk=0.0,
            omega0=0.0, omega1=0.0, e_x=0.1, e_x_sq=0.1,
        )
        assert rate_gllp(b, BB84) == pytest.approx(-0.5 * binary_entropy(0.1))
        assert rate_gllp(b, BB84) <= 0.0

    def test_single_photon_class_error_mixes_darks(self):
        b = single_photon_with_darks(e_x_sq=0.01, dark_fraction=0.2)
        want = 0.8 * 0.01 + 0.2 * 0.5
        assert single_photon_class_error(b) == pytest.approx(want, abs=1e-12)
        # with a single-photon source the class error equals the mixed rate
        assert single_photon_class_error(b) == pytest.approx(b.e_x, abs=1e-12)

    # consistent records with no single-photon results: only multi-photon
    # qubits and dark counts on empty pulses, as a float and as an array
    NO_SINGLE_PHOTON = [
        dict(p_sq=0.0, p_mq=0.5, p_dk=0.1, omega0=0.1 / 0.6, omega1=0.0,
             e_x=0.2, e_x_sq=0.03),
        dict(p_sq=0.0, p_mq=1e-3, p_dk=0.0, omega0=0.0, omega1=0.0,
             e_x=0.0, e_x_sq=0.0),
        dict(p_sq=0.0, p_mq=np.array([0.3, 1e-9, 0.0]),
             p_dk=np.array([0.0, 1e-7, 0.2]), omega0=np.array([0.0, 0.9, 1.0]),
             omega1=np.zeros(3), e_x=np.array([0.1, 0.45, 0.5]), e_x_sq=0.05),
    ]  # fmt: skip

    @pytest.mark.parametrize("fields", NO_SINGLE_PHOTON)
    def test_class_error_is_finite_without_single_photon_results(self, fields):
        e_x_1 = np.asarray(single_photon_class_error(RateBreakdown(**fields)))
        assert np.all(np.isfinite(e_x_1))
        assert np.all((0.0 <= e_x_1) & (e_x_1 <= 0.5))

    @pytest.mark.parametrize("spec", protocol_catalog(), ids=lambda s: s.name)
    @pytest.mark.parametrize("fields", NO_SINGLE_PHOTON)
    def test_gllp_without_single_photon_results_drops_the_term(self, fields, spec):
        b = RateBreakdown(**fields)
        got = rate_gllp(b, spec)
        want = b.p_c * (b.omega0 - binary_entropy(b.e_x))
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestBobAndAliceRates:
    def test_perfect_single_photon(self):
        assert rate_bob(pure_single_photon(), BB84) == pytest.approx(1.0)

    def test_all_dark_counts_vanishes(self):
        b = RateBreakdown(
            p_sq=0.0, p_mq=0.0, p_dk=0.3,
            omega0=0.0, omega1=1.0, e_x=0.5, e_x_sq=0.0,
        )
        assert rate_bob(b, BB84) == pytest.approx(0.0, abs=1e-12)

    def test_table1_point_is_near_zero(self):
        # BB84, e_x_sq = 0.01: the threshold sits at dark fraction ~0.8776
        b = single_photon_with_darks(e_x_sq=0.01, dark_fraction=0.8776)
        assert abs(rate_bob(b, BB84)) <= 1e-3 * b.p_c

    def test_alice_equals_bob_when_omega0_matches_darks(self):
        b = RateBreakdown(
            p_sq=0.6, p_mq=0.0, p_dk=0.1,
            omega0=0.1 / 0.7, omega1=0.6 / 0.7, e_x=0.08, e_x_sq=0.02,
        )
        assert rate_alice(b, BB84) == pytest.approx(rate_bob(b, BB84), abs=1e-12)

    def test_bob_minus_alice_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.dirichlet(np.ones(3)) * rng.uniform(0.1, 1.0)
            omega0 = rng.uniform(0.0, 0.3)
            omega1 = rng.uniform(0.0, 1.0 - omega0)
            b = RateBreakdown(
                p_sq=p[0], p_mq=p[1], p_dk=p[2],
                omega0=omega0, omega1=omega1,
                e_x=rng.uniform(0, 0.5), e_x_sq=rng.uniform(0, 0.5),
            )
            diff = rate_bob(b, BB84) - rate_alice(b, BB84)
            assert diff == pytest.approx(b.p_dk - b.p_c * b.omega0, abs=1e-12)

    def test_bob_beats_alice_for_single_photon_source_with_darks(self):
        b = single_photon_with_darks(e_x_sq=0.01, dark_fraction=0.1)
        assert rate_bob(b, BB84) > rate_alice(b, BB84)

    def test_poisson_low_transmittance_ordering(self):
        scn = Scenario(
            protocol=BB84,
            source=SourceModel.poissonian(0.5),
            link=LinkModel(0.2, 500.0),
            detector=DetectorModel(1e-6, 2),
            e_x_sq=0.01,
        )
        b = breakdown(scn)
        # omega0 p_c -> 2C e^{-mu} while p_dk -> 2C, so Bob's bound wins
        assert b.p_dk > b.omega0 * b.p_c
        assert rate_bob(b, BB84) > rate_alice(b, BB84)


class TestImprovedRate:
    def test_selects_larger_branch(self):
        b = single_photon_with_darks(e_x_sq=0.01, dark_fraction=0.3)
        assert rate_improved(b, BB84) == pytest.approx(rate_bob(b, BB84), abs=1e-15)

    def test_error_free_single_photon(self):
        assert rate_improved(pure_single_photon(p_sq=0.4), BB84) == pytest.approx(0.4)

    def test_reduction_identity_all_rates_agree(self):
        b = pure_single_photon(p_sq=0.9, e=0.04)
        for spec in protocol_catalog():
            want = rate_shor_preskill(0.9, 0.04, spec)
            assert rate_gllp(b, spec) == pytest.approx(want, abs=1e-12)
            assert rate_bob(b, spec) == pytest.approx(want, abs=1e-12)
            assert rate_alice(b, spec) == pytest.approx(want, abs=1e-12)
            assert rate_improved(b, spec) == pytest.approx(want, abs=1e-12)

    def test_dominates_gllp_on_random_scenarios(self):
        rng = np.random.default_rng(17)
        specs = protocol_catalog()
        for _ in range(300):
            spec = specs[rng.integers(len(specs))]
            if rng.random() < 0.5:
                source = SourceModel.single_photon()
            else:
                source = SourceModel.poissonian(float(rng.uniform(0.05, 2.0)))
            scn = Scenario(
                protocol=spec,
                source=source,
                link=LinkModel(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 300.0))),
                detector=DetectorModel(
                    float(10.0 ** rng.uniform(-8, -3)), spec.detector_count
                ),
                e_x_sq=float(rng.uniform(0.0, 0.5)),
            )
            b = breakdown(scn)
            assert rate_improved(b, spec) >= rate_gllp(b, spec) - 1e-12

    @given(
        spec=st.sampled_from(protocol_catalog()),
        p=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(
            lambda p: sum(p) > 0.0
        ),
        omega=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
            lambda w: (w[0] * (1.0 - w[1]), w[1])
        ),
        e_x=st.floats(0.0, 0.5),
        e_x_sq=st.floats(0.0, 0.5),
    )
    def test_equals_max_of_alice_and_bob(self, spec, p, omega, e_x, e_x_sq):
        b = RateBreakdown(
            p_sq=p[0], p_mq=p[1], p_dk=p[2],
            omega0=omega[0], omega1=omega[1], e_x=e_x, e_x_sq=e_x_sq,
        )  # fmt: skip
        assert rate_improved(b, spec) == max(rate_alice(b, spec), rate_bob(b, spec))

    @given(
        spec=st.sampled_from(protocol_catalog()),
        mu=st.none() | st.floats(0.01, 3.0),
        attenuation=st.floats(0.0, 1.0),
        length=st.floats(0.0, 500.0),
        log_dark=st.floats(-10.0, -2.0),
        e_x_sq=st.floats(0.0, 0.5),
    )
    def test_dominates_gllp_property(
        self, spec, mu, attenuation, length, log_dark, e_x_sq
    ):
        source = SourceModel.single_photon() if mu is None else SourceModel.poissonian(mu)
        scn = Scenario(
            protocol=spec,
            source=source,
            link=LinkModel(attenuation, length),
            detector=DetectorModel(10.0**log_dark, spec.detector_count),
            e_x_sq=e_x_sq,
        )
        b = breakdown(scn)
        assert rate_improved(b, spec) >= rate_gllp(b, spec) - 1e-12


class TestThresholdBitError:
    def test_zero_intrinsic_error_reaches_half(self):
        for spec in protocol_catalog():
            assert threshold_bit_error(spec, 0.0) == pytest.approx(0.5, abs=5e-3)

    @pytest.mark.parametrize(("name", "e_sq"), list(DARK_THRESHOLDS))
    def test_against_independent_bisection(self, name, e_sq):
        spec = next(s for s in protocol_catalog() if s.name == name)
        assert threshold_bit_error(spec, e_sq) == pytest.approx(
            DARK_THRESHOLDS[(name, e_sq)], abs=1e-4
        )

    def test_pbc00_no_positive_rate(self):
        assert threshold_bit_error(PBC00, 0.1) is None

    def test_protocol_ordering(self):
        for e in np.linspace(0.0, 0.09, 10):
            t_six = threshold_bit_error(SIX_STATE, float(e))
            t_bb = threshold_bit_error(BB84, float(e))
            t_pbc = threshold_bit_error(PBC00, float(e))
            assert t_six >= t_bb >= t_pbc

    def test_monotone_in_intrinsic_error(self):
        previous = 1.0
        for e in np.linspace(0.0, 0.1, 12):
            t = threshold_bit_error(BB84, float(e))
            assert t is not None
            assert t <= previous + 1e-12
            previous = t

    def test_domain(self):
        with pytest.raises(ValueError):
            threshold_bit_error(BB84, 0.5)

    # At e_x_sq = 1e-9 the margin dips below zero only within about 4e-8 of
    # f = 1.  Want: the exact roots, from a 50-digit mpmath bisection of the
    # margin with the worst-case entropy also evaluated in 50 digits.
    @pytest.mark.parametrize(
        ("spec", "want"),
        [
            (BB84, 0.49999997827673),
            (SIX_STATE, 0.49999998809865),
            (PBC00, 0.49999997312485),
        ],
    )
    def test_narrow_dip_below_half(self, spec, want):
        assert abs(threshold_bit_error(spec, 1e-9) - want) <= 1e-9

    # Below about 1e-18 the threshold lies within half an ulp of 1/2, so the
    # nearest float is 0.5 itself.
    @pytest.mark.parametrize("spec", protocol_catalog(), ids=lambda s: s.name)
    @pytest.mark.parametrize("e_x_sq", [5e-324, 1e-300, 1e-20, 1e-17, 1e-15])
    def test_tiny_intrinsic_error_gives_nearest_float(self, spec, e_x_sq):
        want = exact_threshold(spec, e_x_sq)
        assert threshold_bit_error(spec, e_x_sq) == want
        if e_x_sq <= 1e-20:
            assert want == 0.5

    @pytest.mark.parametrize("spec", protocol_catalog(), ids=lambda s: s.name)
    @pytest.mark.parametrize("e_x_sq", [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1])
    def test_exact_root(self, spec, e_x_sq):
        want = exact_threshold(spec, e_x_sq)
        got = threshold_bit_error(spec, e_x_sq)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) <= 1e-15

    def test_newton_evaluations_per_solve(self, monkeypatch):
        # the benchmark's grid; a return to a long search fails here
        capacity = keyrate._capacity
        calls = 0

        def counted(y):
            nonlocal calls
            calls += 1
            return capacity(y)

        monkeypatch.setattr(keyrate, "_capacity", counted)
        for spec in protocol_catalog():
            for i in range(201):
                calls = 0
                if threshold_bit_error(spec, i / 1000) is not None:
                    assert calls <= 12, (spec.name, i)

    @given(
        spec=st.sampled_from(protocol_catalog()),
        e_x_sq=st.floats(min_value=1e-6, max_value=0.49),
    )
    def test_margin_vanishes_at_threshold(self, spec, e_x_sq):
        h_worst = worst_case_conditional_phase_entropy(spec, e_x_sq)

        def margin(f):
            return 1 - binary_entropy((1 - f) * e_x_sq + f / 2) - (1 - f) * h_worst

        threshold = threshold_bit_error(spec, e_x_sq)
        if threshold is None:
            assert margin(0.0) < 0.0
            return
        f_star = (threshold - e_x_sq) / (0.5 - e_x_sq)
        assert abs(margin(f_star)) <= 1e-8
        assert all(margin(f_star * k / 64) >= -1e-12 for k in range(64))
        # convex with margin(1) = 0: negative on all of (f*, 1)
        assert margin((f_star + 1.0) / 2.0) < 0.0


class TestMaxDistance:
    def test_no_error_sources_is_unbounded(self):
        scn = fig1_scenario(BB84, e_x_sq=0.0, dark=0.0)
        assert max_distance(scn, "improved") == math.inf

    # At e_x_sq = 0 the worst-case entropy is 0, so the improved margin of a
    # single-photon source stays positive at every dark-count share, though
    # near e_x = 1/2 its float value is rounding noise (at 0.711 dB/km and
    # C = 0.0708 it reads 0 at 119 km), so a search on its sign can stop at
    # a finite length.
    @pytest.mark.parametrize("spec", protocol_catalog(), ids=lambda s: s.name)
    @pytest.mark.parametrize(("attenuation", "dark"), [(0.2, 1e-6), (0.711, 0.0708)])
    def test_zero_intrinsic_error_is_unbounded(self, spec, attenuation, dark):
        scn = fig1_scenario(spec, e_x_sq=0.0, dark=dark, attenuation=attenuation)
        assert max_distance(scn, "improved") == math.inf

    def test_improved_extends_distance(self):
        for spec in protocol_catalog():
            scn = fig1_scenario(spec)
            assert max_distance(scn, "improved") > max_distance(scn, "gllp")

    def test_pbc00_shorter_than_bb84(self):
        d_pbc = max_distance(fig1_scenario(PBC00), "improved")
        d_bb84 = max_distance(fig1_scenario(BB84), "improved")
        assert d_pbc <= d_bb84

    def test_zero_rate_at_origin(self):
        scn = fig1_scenario(PBC00, e_x_sq=0.1)
        assert max_distance(scn, "improved") == 0.0

    @pytest.mark.parametrize("mu", [None, 0.5])
    def test_no_conclusive_results_ends_reach(self, mu):
        # without dark counts the rate stays positive until the
        # transmittance underflows to 0 near 745 / (0.1 ln 10) = 3237 km
        source = SourceModel.single_photon() if mu is None else SourceModel.poissonian(mu)
        scn = Scenario(
            protocol=BB84,
            source=source,
            link=LinkModel(attenuation_db_per_km=1.0, length_km=0.0),
            detector=DetectorModel(dark_count_prob=0.0, detector_count=2),
            e_x_sq=0.01,
        )
        assert 3000.0 < max_distance(scn, "improved") < 3300.0

    def test_rejects_unknown_rate_fn(self):
        with pytest.raises(ValueError):
            max_distance(fig1_scenario(BB84), "banana")

    @pytest.mark.parametrize(
        ("arg", "want"),
        [
            ("tol_km=0.0", "ValueError"),
            ("tol_km=-1.0", "ValueError"),
            ("tol_km=float('nan')", "ValueError"),
            ("cap_km=0.0", "ValueError"),
            # below the float spacing near the reach
            ("tol_km=1e-300", "float"),
        ],
    )
    def test_bisection_tolerance_and_cap(self, arg, want):
        # in a child process with a timeout, so that a bisection that never
        # ends fails the test instead of hanging the suite
        code = (
            "from qkdrates.keyrate import max_distance\n"
            "from qkdrates.protocols import BB84\n"
            "from qkdrates.scenario import (\n"
            "    DetectorModel, LinkModel, Scenario, SourceModel,\n"
            ")\n"
            "scn = Scenario(BB84, SourceModel.single_photon(), LinkModel(0.2, 0.0),\n"
            "               DetectorModel(1e-6, 2), 0.01)\n"
            "try:\n"
            f"    print('float', repr(max_distance(scn, 'improved', {arg})))\n"
            "except ValueError as exc:\n"
            "    print('ValueError', exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        kind, value = proc.stdout.split(" ", 1)
        assert kind == want, proc.stdout
        if kind == "ValueError":
            assert value.startswith("tol_km and cap_km must be > 0"), value
        else:
            reach = max_distance(fig1_scenario(BB84), "improved", tol_km=1e-6)
            assert abs(float(value) - reach) <= 1e-6

    def test_improved_rate_monotone_in_distance(self):
        scn = fig1_scenario(BB84)
        rates = []
        for length in np.linspace(0.0, 300.0, 30):
            b = breakdown(scn.at_length(float(length)))
            rates.append(rate_improved(b, BB84))
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("spec", protocol_catalog(), ids=lambda s: s.name)
    @pytest.mark.parametrize("dark", [1e-7, 1e-6, 1e-5, 1e-4])
    def test_single_photon_closed_form(self, spec, dark):
        # with a single-photon source the margin rate / p_c depends on the
        # dark-count share f = p_dk / p_c alone, so the reach is where f
        # reaches the threshold's share f*, that is, where
        # p_dk / p_sq = m C (1 - eta) / (cf eta) equals f* / (1 - f*); the
        # gllp threshold is the zero-dark one
        cases = itertools.product(("gllp", "improved"), (0.005, 0.01, 0.05))
        for rate_fn, e_x_sq in cases:
            if rate_fn == "gllp":
                e_star = float(exact_zero_dark_threshold(spec))
            else:
                e_star = threshold_bit_error(spec, e_x_sq)
            f_star = (e_star - e_x_sq) / (0.5 - e_x_sq)
            ratio = f_star / (1.0 - f_star)
            m_c = spec.dark_conclusive_multiplier * dark
            eta = m_c / (ratio * spec.conclusive_factor(e_x_sq) + m_c)
            for attenuation in (0.2, 0.35, 1.0):
                want = -math.log(eta) / (attenuation * math.log(10.0) / 10.0)
                scn = fig1_scenario(spec, e_x_sq, dark, attenuation=attenuation)
                got = max_distance(scn, rate_fn, tol_km=1e-6)
                # on the positive side of the root, up to its rounding
                assert want - 1e-6 <= got < want + 1e-9, (rate_fn, e_x_sq, attenuation)

    # C and e_x_sq start at 1e-7 and 1e-3, where the margin is resolved
    # along both search paths.  Below them it is rounding noise in places:
    # the Poissonian p_mq = cf (1 - exp(-eta mu) - P1 eta) cancels, and the
    # single-photon improved margin past the reach falls under the rounding
    # of 1 - H(e_x).  Each search can then stop at a sign flip of the noise.
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        spec=st.sampled_from(protocol_catalog()),
        mu=st.none() | st.floats(min_value=0.01, max_value=5.0),
        log10_dark=st.floats(min_value=-7.0, max_value=math.log10(0.3)),
        attenuation=st.floats(min_value=0.01, max_value=1.0),
        e_x_sq=st.floats(min_value=1e-3, max_value=0.3),
        rate_fn=st.sampled_from(["gllp", "improved"]),
    )
    def test_matches_reference_search(
        self, spec, mu, log10_dark, attenuation, e_x_sq, rate_fn
    ):
        source = None if mu is None else SourceModel.poissonian(mu)
        scn = fig1_scenario(spec, e_x_sq, 10.0**log10_dark, 0.0, attenuation, source)
        got = max_distance(scn, rate_fn)
        want = reference_max_distance(scn, rate_fn)
        assert got == want or abs(got - want) <= 0.01
        if 0.0 < got < math.inf:
            rate = rate_improved if rate_fn == "improved" else rate_gllp
            assert rate(breakdown(scn.at_length(got)), spec) > 0.0

    # Attenuation starts at 0.05 dB/km: below it the margin at cap_km is
    # rounding noise, so the search can stop at a sign flip of that noise.
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        spec=st.sampled_from(protocol_catalog()),
        log10_dark=st.floats(min_value=-9.0, max_value=math.log10(0.3)),
        attenuation=st.floats(min_value=0.05, max_value=1.0),
        e_x_sq=st.floats(min_value=1e-6, max_value=0.3),
        rate_fn=st.sampled_from(["gllp", "improved"]),
    )
    def test_single_photon_matches_exact_reach(
        self, spec, log10_dark, attenuation, e_x_sq, rate_fn
    ):
        scn = fig1_scenario(spec, e_x_sq, 10.0**log10_dark, 0.0, attenuation)
        want = exact_single_photon_reach(scn, rate_fn)
        got = max_distance(scn, rate_fn)
        if want == 0.0:
            assert got == 0.0
        else:
            # on the positive side of the root, up to its rounding
            assert want - 0.01 <= got < want + 1e-9

    def test_zero_dark_reach_is_first_crossing(self):
        # without dark counts p_mq cancels to 0 at long range, so this margin
        # turns positive again (0.686 at 500 km) until the transmittance
        # underflows near 6618 km; the reach is its first crossing
        scn = fig1_scenario(
            SIX_STATE,
            e_x_sq=0.027582,
            dark=0.0,
            attenuation=0.48826,
            source=SourceModel.poissonian(1.8335),
        )
        got = max_distance(scn, "gllp")
        assert 10.3 < got < 10.5
        assert abs(got - reference_max_distance(scn, "gllp")) <= 0.01

    @staticmethod
    def count_breakdowns(monkeypatch):
        """Count the calls to ``scenario.breakdown`` in a one-element list."""
        calls = [0]

        def counted(scn):
            calls[0] += 1
            return breakdown(scn)

        monkeypatch.setattr(scenario, "breakdown", counted)
        return calls

    def test_breakdowns_per_solve(self, monkeypatch):
        # the benchmark's 48 reach scenarios; doubling from 1 km and
        # bisecting took 25.8 on average, so a return to it fails here.  A
        # single-photon reach is the closed form from the threshold, so the
        # two end points are its only breakdowns.
        calls = self.count_breakdowns(monkeypatch)
        counts = {"single-photon": [], "poissonian": []}
        for spec in protocol_catalog():
            for source in (SourceModel.single_photon(), SourceModel.poissonian(0.5)):
                for dark in (1e-7, 1e-6, 1e-5, 1e-4):
                    for rate_fn in ("gllp", "improved"):
                        calls[0] = 0
                        scn = fig1_scenario(spec, dark=dark, source=source)
                        assert 0.0 < max_distance(scn, rate_fn) < math.inf
                        counts[source.kind.value].append(calls[0])
        assert counts["single-photon"] == [2] * 24
        poisson = counts["poissonian"]
        assert len(poisson) == 24
        assert sum(poisson) / len(poisson) <= 12.0, poisson
        assert max(poisson) <= 18, poisson

    def test_single_photon_solve_reads_only_end_points(self, monkeypatch):
        # random single-photon links with a dark-count floor: every finite
        # reach is returned from the two end-point breakdowns, with no search
        calls = self.count_breakdowns(monkeypatch)
        rng = np.random.default_rng(24)
        finite = 0
        for _ in range(400):
            spec = protocol_catalog()[int(rng.integers(3))]
            scn = fig1_scenario(
                spec,
                e_x_sq=float(10.0 ** rng.uniform(-4.0, math.log10(0.3))),
                dark=float(10.0 ** rng.uniform(-9.0, math.log10(0.25))),
                attenuation=float(rng.uniform(0.05, 1.0)),
            )
            for rate_fn in ("gllp", "improved"):
                calls[0] = 0
                if 0.0 < max_distance(scn, rate_fn) < math.inf:
                    finite += 1
                    assert calls[0] == 2, (scn, rate_fn)
        assert finite > 400


class TestBreakdownValidation:
    def test_rejects_zero_conclusive_rate(self):
        with pytest.raises(ValueError):
            RateBreakdown(
                p_sq=0.0, p_mq=0.0, p_dk=0.0,
                omega0=0.0, omega1=0.0, e_x=0.0, e_x_sq=0.0,
            )

    def test_rejects_bad_omegas(self):
        with pytest.raises(ValueError):
            RateBreakdown(
                p_sq=1.0, p_mq=0.0, p_dk=0.0,
                omega0=0.7, omega1=0.7, e_x=0.0, e_x_sq=0.0,
            )

    @pytest.mark.parametrize(
        "field", ["p_sq", "p_mq", "p_dk", "omega0", "omega1", "e_x", "e_x_sq"]
    )
    @pytest.mark.parametrize("array", [False, True], ids=["float", "array"])
    def test_rejects_nan(self, field, array):
        # NaN compares false, so a check written as "value < bound" let it by
        # and the rates came out NaN
        good = dict(
            p_sq=0.5, p_mq=0.0, p_dk=1e-6,
            omega0=0.0, omega1=1.0, e_x=0.02, e_x_sq=0.01,
        )  # fmt: skip
        value = np.array([good[field], math.nan]) if array else math.nan
        with pytest.raises(ValueError):
            RateBreakdown(**{**good, field: value})
