"""Tests for the rate formulas, threshold solver, and distance search."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdrates import keyrate
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
from qkdrates.protocols import BB84, PBC00, SIX_STATE, protocol_catalog
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


def exact_threshold(spec, e_x_sq):
    """The threshold's equation solved in 50 digits, by bisection: with
    ``s = 1 - 2 e_x_sq`` and ``t = H_worst / s``, the root ``y*`` of
    ``C(y) = t*y`` with ``C(y) = 1 - H((1-y)/2)`` gives ``(1 - y*)/2``.
    ``H_worst`` is the library's float, taken as exact."""
    with mpmath.workdps(50):
        h = mpmath.mpf(worst_case_conditional_phase_entropy(spec, e_x_sq))
        s = 1 - 2 * mpmath.mpf(e_x_sq)

        def capacity(y):
            if y == 1:
                return mpmath.mpf(1)
            return (y * mpmath.atanh(y) + mpmath.log1p(-y * y) / 2) / mpmath.log(2)

        if capacity(s) < h:
            return None
        if h == 0:
            return 0.5
        t = h / s
        # C(y) < t*y at y = t ln 2 and C(y) >= t*y at min(s, 2 t ln 2)
        lo, hi = t * mpmath.log(2), min(s, 2 * t * mpmath.log(2))
        for _ in range(200):
            mid = (lo + hi) / 2
            if capacity(mid) < t * mid:
                lo = mid
            else:
                hi = mid
        return float((1 - (lo + hi) / 2) / 2)


def pure_single_photon(p_sq=1.0, e=0.0):
    return RateBreakdown(
        p_emp=0.0, p_sq=p_sq, p_mq=0.0, p_dk=0.0,
        omega0=0.0, omega1=1.0, e_x=e, e_x_sq=e,
    )


def single_photon_with_darks(e_x_sq, dark_fraction, p_c=1.0):
    p_dk = dark_fraction * p_c
    p_sq = p_c - p_dk
    e_x = (p_sq * e_x_sq + p_dk * 0.5) / p_c
    return RateBreakdown(
        p_emp=0.0, p_sq=p_sq, p_mq=0.0, p_dk=p_dk,
        omega0=0.0, omega1=1.0, e_x=e_x, e_x_sq=e_x_sq,
    )


def fig1_scenario(spec, e_x_sq=0.01, dark=1e-6, length=0.0):
    return Scenario(
        protocol=spec,
        source=SourceModel.single_photon(),
        link=LinkModel(attenuation_db_per_km=0.2, length_km=length),
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


class TestGllpRate:
    def test_reduces_to_shor_preskill(self):
        b = pure_single_photon(p_sq=0.8, e=0.03)
        want = rate_shor_preskill(0.8, 0.03, BB84)
        assert rate_gllp(b, BB84) == pytest.approx(want, abs=1e-12)

    def test_no_extractable_fraction(self):
        b = RateBreakdown(
            p_emp=0.0, p_sq=0.0, p_mq=0.5, p_dk=0.0,
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


class TestBobAndAliceRates:
    def test_perfect_single_photon(self):
        assert rate_bob(pure_single_photon(), BB84) == pytest.approx(1.0)

    def test_all_dark_counts_vanishes(self):
        b = RateBreakdown(
            p_emp=0.0, p_sq=0.0, p_mq=0.0, p_dk=0.3,
            omega0=0.0, omega1=1.0, e_x=0.5, e_x_sq=0.0,
        )
        assert rate_bob(b, BB84) == pytest.approx(0.0, abs=1e-12)

    def test_table1_point_is_near_zero(self):
        # BB84, e_x_sq = 0.01: the threshold sits at dark fraction ~0.8776
        b = single_photon_with_darks(e_x_sq=0.01, dark_fraction=0.8776)
        assert abs(rate_bob(b, BB84)) <= 1e-3 * b.p_c

    def test_alice_equals_bob_when_omega0_matches_darks(self):
        b = RateBreakdown(
            p_emp=0.0, p_sq=0.6, p_mq=0.0, p_dk=0.1,
            omega0=0.1 / 0.7, omega1=0.6 / 0.7, e_x=0.08, e_x_sq=0.02,
        )
        assert rate_alice(b, BB84) == pytest.approx(rate_bob(b, BB84), abs=1e-12)

    def test_bob_minus_alice_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4)) * rng.uniform(0.1, 1.0)
            omega0 = rng.uniform(0.0, 0.3)
            omega1 = rng.uniform(0.0, 1.0 - omega0)
            b = RateBreakdown(
                p_emp=p[0], p_sq=p[1], p_mq=p[2], p_dk=p[3],
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
        p=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
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
            p_emp=p[0], p_sq=p[1], p_mq=p[2], p_dk=p[3],
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


class TestBreakdownValidation:
    def test_rejects_zero_conclusive_rate(self):
        with pytest.raises(ValueError):
            RateBreakdown(
                p_emp=0.0, p_sq=0.0, p_mq=0.0, p_dk=0.0,
                omega0=0.0, omega1=0.0, e_x=0.0, e_x_sq=0.0,
            )

    def test_rejects_bad_omegas(self):
        with pytest.raises(ValueError):
            RateBreakdown(
                p_emp=0.0, p_sq=1.0, p_mq=0.0, p_dk=0.0,
                omega0=0.7, omega1=0.7, e_x=0.0, e_x_sq=0.0,
            )
