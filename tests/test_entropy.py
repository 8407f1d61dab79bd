"""Tests for entropy primitives and the worst-case conditional entropy."""

import numpy as np
import pytest
from conftest import brute_force_worst_case
from hypothesis import given
from hypothesis import strategies as st

from qkdrates.entropy import (
    InfeasibleRatesError,
    binary_entropy,
    conditional_phase_entropy,
    worst_case_conditional_phase_entropy,
)
from qkdrates.protocols import BB84, PBC00, SIX_STATE, protocol_catalog


class TestBinaryEntropy:
    def test_degenerate_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_uniform_is_exactly_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_known_value(self):
        # independent evaluation of the defining formula at p = 0.01
        assert binary_entropy(0.01) == pytest.approx(0.0807931358959, abs=1e-4)

    def test_symmetry(self):
        for p in np.linspace(0.0, 1.0, 101):
            assert binary_entropy(p) == pytest.approx(
                binary_entropy(1.0 - p), abs=1e-12
            )

    def test_concavity_spot_checks(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
            lam = rng.uniform()
            mix = lam * a + (1 - lam) * b
            assert binary_entropy(mix) >= (
                lam * binary_entropy(a) + (1 - lam) * binary_entropy(b) - 1e-12
            )

    def test_maximum_at_half(self):
        for p in np.linspace(0.0, 1.0, 101):
            assert binary_entropy(p) <= 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.2, 2.0, float("nan")])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)
        with pytest.raises(ValueError):
            binary_entropy(np.array([0.5, bad]))

    def test_rounding_dust_clamped(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0


def rates_of(outcomes):
    """Bit, Y and phase error rates of Bell-outcome probabilities
    ``(p_identity, p_psi_plus, p_psi_minus, p_phi_minus)``."""
    _, p_psi_plus, p_psi_minus, p_phi_minus = outcomes
    return (
        p_psi_plus + p_psi_minus,
        p_phi_minus + p_psi_plus,
        p_phi_minus + p_psi_minus,
    )


class TestJointAndConditionalEntropy:
    def test_deterministic_outcome(self):
        assert conditional_phase_entropy(0.0, 0.0, 0.0) == 0.0

    def test_uniform_four_outcomes(self):
        # every outcome 1/4: the joint entropy is 2 bits, the bit error 1 bit
        value = conditional_phase_entropy(*rates_of((0.25, 0.25, 0.25, 0.25)))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_six_state_pattern(self):
        value = conditional_phase_entropy(*rates_of((0.985, 0.005, 0.005, 0.005)))
        assert value == pytest.approx(0.0553420117, abs=1e-3)

    def test_independence_gives_marginal_entropy(self):
        # product distribution: H(e_z | e_x) = H(e_z)
        e_x, e_z = 0.07, 0.07
        value = conditional_phase_entropy(e_x, e_x + e_z - 2 * e_x * e_z, e_z)
        assert value == pytest.approx(binary_entropy(e_z), abs=1e-12)

    def test_conditioning_cannot_increase_entropy(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            e_x, e_y, e_z = rates_of(rng.dirichlet(np.ones(4)))
            value = conditional_phase_entropy(e_x, e_y, e_z)
            assert value <= binary_entropy(e_z) + 1e-12

    def test_bounded_by_one(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            value = conditional_phase_entropy(*rates_of(rng.dirichlet(np.ones(4))))
            assert 0.0 <= value <= 1.0


class TestWorstCaseConditionalEntropy:
    def test_six_state_pinned(self):
        value = worst_case_conditional_phase_entropy(SIX_STATE, 0.01)
        assert value == pytest.approx(0.0553420117, abs=1e-3)

    def test_bb84_equals_marginal(self):
        # maximum over e_y in [0, 2 e_x] sits at the independence point
        for e_x in [0.001, 0.01, 0.11, 0.25, 0.4, 0.5]:
            value = worst_case_conditional_phase_entropy(BB84, e_x)
            assert value == pytest.approx(binary_entropy(e_x), abs=1e-6)

    def test_pbc00_known_point(self):
        value = worst_case_conditional_phase_entropy(PBC00, 0.0981)
        assert value == pytest.approx(binary_entropy(0.122625), abs=1e-4)

    def test_zero_error(self):
        for spec in protocol_catalog():
            assert worst_case_conditional_phase_entropy(spec, 0.0) == 0.0

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(7)
        specs = protocol_catalog()
        for _ in range(100):
            spec = specs[rng.integers(len(specs))]
            e_x = float(rng.uniform(0.0, 0.5))
            got = worst_case_conditional_phase_entropy(spec, e_x)
            want = brute_force_worst_case(spec, e_x)
            assert got == pytest.approx(want, abs=1e-6), (spec.name, e_x)

    def test_rejects_excessive_error_rate(self):
        with pytest.raises(ValueError):
            worst_case_conditional_phase_entropy(SIX_STATE, 0.7)

    def test_empty_admissible_interval_raises(self):
        # a Y interval above e_x + e_z leaves every outcome distribution
        # with a negative probability
        spec = BB84._replace(name="custom", y_lo_ratio=3.0, y_hi_ratio=4.0)
        assert worst_case_conditional_phase_entropy(spec, 0.0) == 0.0
        with pytest.raises(InfeasibleRatesError, match="interval empty"):
            worst_case_conditional_phase_entropy(spec, 0.1)


@st.composite
def admissible_points(draw):
    """A protocol, an admissible bit error rate and a Y rate in its interval."""
    spec = draw(st.sampled_from(protocol_catalog()))
    e_x = draw(st.floats(0.0, spec.max_bit_error))
    e_z = spec.phase_ratio * e_x
    lo, hi = spec.y_interval(e_x)
    lo = max(lo, abs(e_x - e_z))
    hi = min(hi, e_x + e_z, 2.0 - e_x - e_z)
    t = draw(st.floats(0.0, 1.0))
    return spec, e_x, e_z, max(lo, min(lo + t * (hi - lo), hi))


class TestClosedFormProperties:
    @given(admissible_points())
    def test_no_admissible_y_exceeds_worst_case(self, point):
        spec, e_x, e_z, e_y = point
        value = conditional_phase_entropy(e_x, e_y, e_z)
        assert value <= worst_case_conditional_phase_entropy(spec, e_x) + 1e-12

    @given(st.floats(0.0, 1.0))
    def test_bb84_is_shor_preskill(self, e_x):
        value = worst_case_conditional_phase_entropy(BB84, e_x)
        assert value == pytest.approx(binary_entropy(e_x), abs=1e-12)
