"""The rate engine on numpy arrays against the same functions on floats.

Breakdowns, entropies and rates take a float or an array through one
formula per quantity; the scalar calls are the reference for the array
path.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates import _elementwise as ew
from qkdrates.cli import main
from qkdrates.entropy import binary_entropy, worst_case_conditional_phase_entropy
from qkdrates.keyrate import (
    RateBreakdown,
    rate_alice,
    rate_bob,
    rate_gllp,
    rate_improved,
    rate_shor_preskill,
    single_photon_class_error,
)
from qkdrates.protocols import BB84, PBC00, SIX_STATE, protocol_catalog
from qkdrates.scenario import (
    DetectorModel,
    LinkModel,
    Scenario,
    SourceModel,
    breakdown,
    transmittance,
)

FIELDS = [*RateBreakdown._fields, "p_c"]


def five_rates(b, spec):
    return {
        "shor_preskill": rate_shor_preskill(b.p_c, b.e_x, spec),
        "gllp": rate_gllp(b, spec),
        "bob": rate_bob(b, spec),
        "alice": rate_alice(b, spec),
        "improved": rate_improved(b, spec),
    }


def make_scenario(spec, mu, attenuation, log_dark, e_x_sq, length=0.0):
    source = SourceModel.single_photon() if mu is None else SourceModel.poissonian(mu)
    return Scenario(
        protocol=spec,
        source=source,
        link=LinkModel(attenuation, length),
        detector=DetectorModel(10.0**log_dark, spec.detector_count),
        e_x_sq=e_x_sq,
    )


scenarios = st.builds(
    make_scenario,
    spec=st.sampled_from(protocol_catalog()),
    mu=st.none() | st.floats(0.01, 3.0),
    attenuation=st.floats(0.0, 1.0),
    log_dark=st.floats(-10.0, -2.0),
    e_x_sq=st.floats(0.0, 0.5),
)


@settings(max_examples=150, deadline=None)
@given(scn=scenarios, lengths=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=12))
def test_array_matches_scalar_calls(scn, lengths):
    spec = scn.protocol
    points = scn.at_length(np.array(lengths))
    b = breakdown(points)
    eta = transmittance(points.link)
    rates = five_rates(b, spec)
    for i, length in enumerate(lengths):
        point = scn.at_length(length)
        want = breakdown(point)
        assert np.broadcast_to(eta, len(lengths))[i] == transmittance(point.link)
        for name in FIELDS:
            got = np.broadcast_to(getattr(b, name), len(lengths))[i]
            ref = getattr(want, name)
            assert abs(got - ref) <= 1e-12 * abs(ref), name
        for name, ref in five_rates(want, spec).items():
            got = rates[name][i]
            assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-15 * want.p_c, name


@settings(max_examples=50, deadline=None)
@given(scn=scenarios, length=st.floats(0.0, 500.0))
def test_float_in_float_out(scn, length):
    point = scn.at_length(length)
    b = breakdown(point)
    assert type(transmittance(point.link)) is float
    for name in FIELDS:
        assert type(getattr(b, name)) is float, name
    for name, value in five_rates(b, scn.protocol).items():
        assert type(value) is float, name


def no_conclusive_breakdown(length):
    scn = make_scenario(BB84, None, 0.2, -10.0, 0.01)
    scn = scn._replace(detector=DetectorModel(dark_count_prob=0.0, detector_count=2))
    return breakdown(scn.at_length(length))


def inconsistent_breakdown(p_sq):
    b = RateBreakdown(
        p_sq=p_sq, p_mq=0.0, p_dk=0.1,
        omega0=0.0, omega1=0.5, e_x=0.1, e_x_sq=0.1,
    )  # fmt: skip
    return single_photon_class_error(b)


def breakdown_with_error_rate(e_x):
    return RateBreakdown(
        p_sq=0.5, p_mq=0.0, p_dk=0.1,
        omega0=0.0, omega1=1.0, e_x=e_x, e_x_sq=0.1,
    )  # fmt: skip


# A Y interval above e_x + e_z: every e_x > 0 leaves no admissible Y rate.
EMPTY_Y_INTERVAL = BB84._replace(y_lo_ratio=3.0, y_hi_ratio=4.0)

# (function, a feasible float, an infeasible float); the array holds both.
INFEASIBLE = {
    "no-conclusive-results": (no_conclusive_breakdown, 10.0, 1e5),
    "binary-entropy-domain": (binary_entropy, 0.2, 1.5),
    "worst-case-domain": (
        lambda e: worst_case_conditional_phase_entropy(SIX_STATE, e), 0.1, 0.7
    ),
    "empty-y-interval": (
        lambda e: worst_case_conditional_phase_entropy(EMPTY_Y_INTERVAL, e), 0.0, 0.1
    ),
    "class-error": (inconsistent_breakdown, 0.05, 0.6),
    "breakdown-error-rate": (breakdown_with_error_rate, 0.1, 1.5),
    "shor-preskill-rate": (lambda p_c: rate_shor_preskill(p_c, 0.05, PBC00), 0.5, 0.0),
}


@pytest.mark.parametrize("case", INFEASIBLE.values(), ids=INFEASIBLE.keys())
def test_infeasible_element_raises_like_scalar(case):
    fn, good, bad = case
    fn(good)
    with pytest.raises(ValueError) as scalar:
        fn(bad)
    with pytest.raises(ValueError) as array:
        fn(np.array([good, bad, good]))
    assert type(array.value) is type(scalar.value)
    assert str(array.value) == str(scalar.value)


def test_underflowing_omega1_matches_the_float_route(capsys):
    # at mu = 745 the single-photon probability mu e^-mu is subnormal, so
    # omega1 is positive out to 100 km and underflows to 0 from 200 km; the
    # cases run in one test so that its id stays the one the suite has had
    lengths = [0.0, 100.0, 200.0, 300.0, 400.0]
    for spec, dark in itertools.product(protocol_catalog(), [0.0, 1e-9]):
        scn = make_scenario(spec, 745.0, 0.2, -10.0, 0.01)
        scn = scn._replace(detector=DetectorModel(dark, spec.detector_count))
        b = breakdown(scn.at_length(np.array(lengths)))
        assert b.omega1[1] > 0.0 and b.omega1[2] == 0.0
        want = [rate_gllp(breakdown(scn.at_length(x)), spec) for x in lengths]
        assert rate_gllp(b, spec).tolist() == want, (spec.name, dark)
        argv = [
            "sweep", "--protocol", spec.name, "--source-kind", "poissonian",
            "--mean-photon-number", "745", "--dark-count-prob", repr(dark),
            "--length-max-km", "400", "--length-step-km", "100",
        ]  # fmt: skip
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + len(lengths)


# The math formula each helper must follow on a scalar, whatever its class.
SCALAR_FORMULAS = {
    ew.exp: math.exp,
    ew.entropy_term: lambda p: -p * math.log2(p) if p > 0.0 else 0.0,
    ew.maximum: lambda a, b: b if b > a else a,
    ew.minimum: lambda a, b: b if b < a else a,
    ew.any_: lambda mask: mask,
    ew.all_: lambda mask: mask,
    ew.first_failing: lambda value, bad: value,
}
ARITY = {ew.maximum: 2, ew.minimum: 2, ew.first_failing: 2}


def reference_binary_entropy(p):
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def outcome(fn, *args):
    """Class and repr of the result (which tells -0.0 and NaN apart), or the
    class of the exception raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return "raises", type(exc)
    return type(value), repr(value)


python_scalars = st.floats() | st.integers(-2000, 2000) | st.booleans()
unit_scalars = st.floats(0.0, 1.0) | st.integers(0, 1) | st.booleans()


# numpy warns where float arithmetic on a numpy scalar overflows; the
# helper and the formula do the same arithmetic, so both warn alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(fn=st.sampled_from(list(SCALAR_FORMULAS)), data=st.data())
def test_scalars_take_the_math_route(fn, data):
    args = [data.draw(python_scalars) for _ in range(ARITY.get(fn, 1))]
    assert outcome(fn, *args) == outcome(SCALAR_FORMULAS[fn], *args)
    # a numpy scalar is not an array and keeps the same route
    args = [np.float64(a) for a in args]
    assert outcome(fn, *args) == outcome(SCALAR_FORMULAS[fn], *args)


@given(p=unit_scalars)
def test_binary_entropy_takes_the_math_route(p):
    assert outcome(binary_entropy, p) == outcome(reference_binary_entropy, p)
    p = np.float64(p)
    assert outcome(binary_entropy, p) == outcome(reference_binary_entropy, p)


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
    b=st.floats(-50.0, 50.0),
)
def test_arrays_match_the_scalar_route_elementwise(a, b):
    x = np.array(a)
    assert ew.exp(x).tolist() == [math.exp(v) for v in a]
    assert ew.maximum(x, b).tolist() == [ew.maximum(v, b) for v in a]
    assert ew.minimum(b, x).tolist() == [ew.minimum(b, v) for v in a]
    assert ew.any_(x > b) == any(v > b for v in a)
    assert ew.all_(x > b) == all(v > b for v in a)
    if any(v > b for v in a):
        assert ew.first_failing(x, x > b) == next(v for v in a if v > b)
    np.testing.assert_allclose(
        ew.entropy_term(x), [ew.entropy_term(v) for v in a], rtol=1e-15
    )
    p = np.clip(x / 100.0 + 0.5, 0.0, 1.0)
    np.testing.assert_allclose(
        binary_entropy(p), [binary_entropy(v) for v in p.tolist()], rtol=1e-15
    )
