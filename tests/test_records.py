"""Tests that the records keep their checks on every way of building one,
that none can be changed once built, and that the tuple operations which
would be wrong for a record are replaced.

A ``RateBreakdown`` has no path through ``at_length`` or the config: only
``breakdown`` builds one from a scenario, whose own records are checked
first.
"""

import math

import numpy as np
import pytest

from qkdrates.cli import RunConfig, config_scenario
from qkdrates.decoy import recover_single_photon_rates, worst_case_no_decoy
from qkdrates.protocols import BB84
from qkdrates.scenario import (
    DetectorModel,
    LinkModel,
    Scenario,
    SourceKind,
    SourceModel,
    breakdown,
    distance_sweep,
)
from qkdrates.simulator import EmpiricalStats, compare_to_analytic, run_simulation

LINK = LinkModel(0.2, 10.0)
DETECTOR = DetectorModel(1e-6, 2)
SOURCE = SourceModel.poissonian(0.5)
SCENARIO = Scenario(BB84, SOURCE, LINK, DETECTOR, 0.01)
BREAKDOWN = breakdown(SCENARIO)

# (record, field, a value its check rejects)
BAD = [
    (LINK, "attenuation_db_per_km", -0.1),
    (LINK, "length_km", math.nan),
    (DETECTOR, "dark_count_prob", 1.0),
    (DETECTOR, "detector_count", 2.5),
    (SOURCE, "mean_photon_number", math.inf),
    (SCENARIO, "e_x_sq", 0.6),
    (SCENARIO, "detector", DetectorModel(1e-6, 3)),
    (BREAKDOWN, "p_sq", math.nan),
    (BREAKDOWN, "e_x", 1.5),
]
BAD_IDS = [f"{type(record).__name__}.{field}" for record, field, _ in BAD]


@pytest.mark.parametrize("record, field, value", BAD, ids=BAD_IDS)
def test_rejected_when_built(record, field, value):
    with pytest.raises(ValueError):
        type(record)(**{**record._asdict(), field: value})


@pytest.mark.parametrize("record, field, value", BAD, ids=BAD_IDS)
def test_rejected_when_copied_with_a_field_changed(record, field, value):
    with pytest.raises(ValueError):
        record._replace(**{field: value})
    # _replace calls _make, which a plain named tuple lets skip the check
    with pytest.raises(ValueError):
        type(record)._make({**record._asdict(), field: value}.values())


@pytest.mark.parametrize("length", [-1.0, math.nan, np.array([1.0, -1.0])])
def test_link_rejected_through_at_length(length):
    with pytest.raises(ValueError):
        SCENARIO.at_length(length)


@pytest.mark.parametrize(
    "overrides",
    [
        {"dark_count_prob": 1.0},
        {"source_kind": SourceKind.POISSONIAN, "mean_photon_number": math.inf},
        {"e_x_sq": 0.6},
    ],
    ids=["DetectorModel", "SourceModel", "Scenario"],
)
def test_rejected_through_config_overrides(overrides):
    with pytest.raises(ValueError):
        config_scenario(RunConfig()._replace(**overrides))


def every_record():
    stats = run_simulation(SCENARIO, n_pulses=10_000, seed=1)
    yield from (BB84, LINK, DETECTOR, SOURCE, SCENARIO, BREAKDOWN, stats)
    yield worst_case_no_decoy(0.1, 0.02, 0.5)
    yield distance_sweep(SCENARIO, 0.0, 10.0, 5.0)
    yield RunConfig()
    yield compare_to_analytic(stats, SCENARIO)[0]
    yield recover_single_photon_rates(
        run_simulation(SCENARIO.at_length(0.0), n_pulses=100_000, seed=1),
        SCENARIO.at_length(0.0),
    )


@pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_stats_merge_by_field():
    a = EmpiricalStats(n_pulses=10, single_qubit=2, dark_count_errors=1)
    b = EmpiricalStats(n_pulses=5, single_qubit=1, empty_pulse_conclusive=3)
    merged = a + b
    assert merged == EmpiricalStats(
        n_pulses=15, single_qubit=3, dark_count_errors=1, empty_pulse_conclusive=3
    )
    assert sum([b, a], EmpiricalStats(n_pulses=0)) == merged


def test_sweep_equals_only_itself():
    # its fields are arrays, which give a tuple comparison no truth value
    sweep = distance_sweep(SCENARIO, 0.0, 10.0, 5.0)
    again = distance_sweep(SCENARIO, 0.0, 10.0, 5.0)
    assert sweep == sweep and not sweep != sweep
    assert sweep != again and not sweep == again
    assert len({sweep, again}) == 2
