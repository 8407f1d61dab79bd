"""Tests for the protocol catalog."""

import numpy as np
import pytest

from qkdrates.protocols import (
    BB84,
    PBC00,
    SIX_STATE,
    get_protocol,
    protocol_catalog,
)


class TestCatalog:
    def test_three_protocols(self):
        assert len(protocol_catalog()) == 3

    def test_lookup_by_exact_name(self):
        assert get_protocol("bb84") is BB84
        assert get_protocol("six-state") is SIX_STATE
        assert get_protocol("pbc00") is PBC00

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            get_protocol("b92")

    def test_bb84_constants(self):
        assert BB84.phase_ratio == 1.0
        assert BB84.y_interval(0.2) == (0.0, 0.4)
        assert BB84.detector_count == 2
        assert BB84.dark_conclusive_multiplier == 2.0
        assert BB84.k == 0.0
        assert BB84.y_lo_ratio != BB84.y_hi_ratio

    def test_six_state_constants(self):
        assert SIX_STATE.phase_ratio == 1.0
        assert SIX_STATE.y_lo_ratio == SIX_STATE.y_hi_ratio
        assert SIX_STATE.y_interval(0.2) == (0.2, 0.2)
        assert SIX_STATE.detector_count == 2
        assert SIX_STATE.k == 0.0

    def test_pbc00_constants(self):
        assert PBC00.phase_ratio == 1.25
        assert PBC00.y_interval(0.2) == (0.05, 0.45)
        assert PBC00.detector_count == 3
        # 3 detectors, but only 2C of dark counts survive reconciliation
        assert PBC00.dark_conclusive_multiplier == 2.0
        assert PBC00.k == 1.0


class TestConclusiveFactor:
    def test_asymptotic_sifting(self):
        assert BB84.conclusive_factor(0.3) == 1.0
        assert SIX_STATE.conclusive_factor(0.1) == 1.0

    def test_pbc00_formula(self):
        assert PBC00.conclusive_factor(0.0) == pytest.approx(0.5)
        assert PBC00.conclusive_factor(1.0) == pytest.approx(1.0)

    def test_pbc00_increasing_and_bounded(self):
        values = [PBC00.conclusive_factor(e) for e in np.linspace(0.0, 0.5, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.5 <= v <= 2.0 / 3.0 for v in values)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            PBC00.conclusive_factor(1.5)


class TestYInterval:
    def test_ordered_for_all_protocols(self):
        for spec in protocol_catalog():
            for e_x in np.linspace(0.0, 0.5, 50):
                lo, hi = spec.y_interval(e_x)
                assert lo <= hi
