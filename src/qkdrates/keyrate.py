"""Secret key generation rate bounds and bit-error-rate thresholds.

Five per-pulse rate expressions, ordered from least to most informed about
where conclusive results come from:

* ``rate_shor_preskill``: one-way CSS rate ``p_c * [1 - H(e_x) - H(e_z|e_x)]``
  treating every conclusive result as a single-photon qubit.
* ``rate_gllp``: discounts multi-photon pulses via the fractions ``omega0``
  (empty-pulse results) and ``omega1`` (single-photon-pulse results).
* ``rate_bob`` / ``rate_alice``: additionally credit dark-count results,
  which carry no information usable by an eavesdropper, either on the
  receiver's or the sender's side of the key.
* ``rate_improved``: the better of the last two; never below ``rate_gllp``
  when dark-count results have error rate 1/2.

Rates may be negative; callers clamp at zero for display so that root
finding on the raw value stays well posed.  ``RateBreakdown`` and the rate
expressions take Python floats or, elementwise, numpy arrays; the two
solvers work on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._elementwise import all_, any_, first_failing, maximum
from .entropy import (
    InfeasibleRatesError,
    binary_entropy,
    worst_case_conditional_phase_entropy,
)
from .protocols import ProtocolSpec

__all__ = [
    "RateBreakdown",
    "single_photon_class_error",
    "rate_shor_preskill",
    "rate_gllp",
    "rate_bob",
    "rate_alice",
    "rate_improved",
    "threshold_bit_error",
    "max_distance",
]

_TOL = 1e-12


@dataclass(frozen=True)
class RateBreakdown:
    """Conclusive-result rates split by physical origin.

    ``p_sq``, ``p_mq``, ``p_emp``, ``p_dk`` are the per-pulse rates of
    conclusive results from single-photon qubits, multi-photon qubits,
    qubits received on empty pulses, and dark counts.  ``omega0`` and
    ``omega1`` are the fractions of conclusive results originating from
    empty and single-photon pulses.  ``e_x`` is the bit error rate over all
    conclusive results and ``e_x_sq`` the rate restricted to single-photon
    qubit results.  Fields may be numpy arrays (or floats) that broadcast
    together; each check then applies to every element.
    """

    p_emp: float
    p_sq: float
    p_mq: float
    p_dk: float
    omega0: float
    omega1: float
    e_x: float
    e_x_sq: float

    def __post_init__(self) -> None:
        for field in ("p_emp", "p_sq", "p_mq", "p_dk"):
            if any_(getattr(self, field) < -_TOL):
                raise ValueError(f"{field} is negative")
        if any_(self.p_c <= 0.0):
            raise ValueError("total conclusive rate must be positive")
        if not (all_(-_TOL <= self.omega0) and all_(-_TOL <= self.omega1)):
            raise ValueError("omega fractions must be non-negative")
        if any_(self.omega0 + self.omega1 > 1.0 + 1e-9):
            raise ValueError("omega0 + omega1 exceeds 1")
        for field in ("e_x", "e_x_sq"):
            value = getattr(self, field)
            ok = (-_TOL <= value) & (value <= 1.0 + _TOL)
            if not all_(ok):
                value = first_failing(value, np.logical_not(ok))
                raise ValueError(f"{field}={value} outside [0, 1]")

    @property
    def p_c(self) -> float:
        """Total conclusive rate."""
        return self.p_emp + self.p_sq + self.p_mq + self.p_dk


def single_photon_class_error(b: RateBreakdown) -> float:
    """Bit error rate over conclusive results from single-photon pulses.

    Mixes single-photon qubit results (rate ``e_x_sq``) with dark counts on
    pulses whose photon was lost, in the proportions implied by ``omega1``.
    A dark count's bit is uniform, independent of the sender's, so it errs
    with probability 1/2.
    """
    w1pc = b.omega1 * b.p_c
    if any_(w1pc <= 0.0):
        raise InfeasibleRatesError("no single-photon conclusive results")
    dark_single = w1pc - b.p_sq
    if any_(dark_single < -1e-9 * maximum(w1pc, 1.0)):
        raise InfeasibleRatesError(
            "omega1 inconsistent with single-photon qubit rate"
        )
    dark_single = maximum(dark_single, 0.0)
    return (b.p_sq * b.e_x_sq + dark_single * 0.5) / w1pc


def rate_shor_preskill(p_c: float, e_x: float, spec: ProtocolSpec) -> float:
    """One-way CSS key rate with every result treated as a qubit result."""
    if any_(p_c <= 0.0):
        raise ValueError("p_c must be positive")
    h_worst = worst_case_conditional_phase_entropy(spec, e_x)
    return p_c * (1.0 - binary_entropy(e_x) - h_worst)


def rate_gllp(b: RateBreakdown, spec: ProtocolSpec) -> float:
    """Key rate discounting multi-photon pulses but not dark counts.

    ``p_c * [omega0 + omega1 - H(e_x) - omega1 * H(e_z^1 | e_x^1)]`` where
    the conditional entropy is the protocol worst case at the
    single-photon-pulse error rate.  The last term vanishes where
    ``omega1 = 0``; an array breakdown needs ``omega1`` positive everywhere
    or zero everywhere (every ``breakdown`` has it positive).
    """
    value = b.omega0 + b.omega1 - binary_entropy(b.e_x)
    if any_(b.omega1 > 0.0):
        e_x_1 = single_photon_class_error(b)
        value -= b.omega1 * worst_case_conditional_phase_entropy(spec, e_x_1)
    return b.p_c * value


def rate_bob(b: RateBreakdown, spec: ProtocolSpec) -> float:
    """Key rate bounding the eavesdropper's knowledge of the receiver's key.

    Dark counts are intrinsically random at the receiver, so they join the
    single-photon qubit results as extractable:
    ``p_sq + p_dk - p_c*H(e_x) - p_sq*H(e_z^sq | e_x^sq)``.
    """
    return _credited_rate(b, spec, b.p_dk)


def rate_alice(b: RateBreakdown, spec: ProtocolSpec) -> float:
    """Key rate bounding the eavesdropper's knowledge of the sender's key.

    Empty pulses carry no information about the sender's bit, so their
    share of conclusive results is extractable instead of the dark counts:
    ``p_sq + p_c*omega0 - p_c*H(e_x) - p_sq*H(e_z^sq | e_x^sq)``.
    """
    return _credited_rate(b, spec, b.p_c * b.omega0)


def rate_improved(b: RateBreakdown, spec: ProtocolSpec) -> float:
    """Best of the sender-side and receiver-side bounds.

    The two differ only in the credited term, and every later step of the
    formula is monotone under rounding, so crediting the larger term equals
    ``max(rate_alice, rate_bob)`` bit for bit with one entropy evaluation.
    """
    return _credited_rate(b, spec, maximum(b.p_dk, b.p_c * b.omega0))


def _credited_rate(b: RateBreakdown, spec: ProtocolSpec, credited):
    """``p_sq + credited - p_c*H(e_x) - p_sq*H(e_z^sq | e_x^sq)``."""
    h_worst = worst_case_conditional_phase_entropy(spec, b.e_x_sq)
    return b.p_sq + credited - b.p_c * binary_entropy(b.e_x) - b.p_sq * h_worst


def threshold_bit_error(spec: ProtocolSpec, e_x_sq: float) -> float | None:
    """Largest tolerable bit error rate for a single-photon source.

    As the dark-count share ``f = p_dk / p_c`` sweeps [0, 1], the observed
    error rate is ``e_x(f) = (1-f)*e_x_sq + f/2`` and the normalized key
    rate is ``1 - H(e_x(f)) - (1-f)*H(e_z^sq | e_x^sq)`` (conclusive-rate
    factors cancel).  This margin is convex in ``f``, zero at ``f = 1`` and
    rising there with slope ``H(e_z^sq | e_x^sq)``, so when that entropy is
    positive the margin is negative on exactly one interval ``(f*, 1)``.
    Returns ``e_x(f*)``, found by bisecting [0, 1] to 1e-9 while keeping
    the non-negative end as ``lo``: as long as the margin stays non-negative
    this halves ``1 - f``, so a dip of any width is bracketed before it is
    bisected.  Returns 0.5 only when that entropy is 0 (``e_x_sq = 0``),
    where the margin never dips, and ``None`` when the margin is already
    negative at ``f = 0``.
    """
    if not 0.0 <= e_x_sq < 0.5:
        raise ValueError(f"e_x_sq={e_x_sq} outside [0, 0.5)")
    h_worst = worst_case_conditional_phase_entropy(spec, e_x_sq)

    def mixed_error(f: float) -> float:
        return (1.0 - f) * e_x_sq + f / 2.0

    def margin(f: float) -> float:
        # 1 - H(e) at e = (1 - x)/2, in log1p form: no cancellation as
        # e -> 1/2, where 1 - binary_entropy(e) would lose its digits
        x = (1.0 - f) * (1.0 - 2.0 * e_x_sq)
        if x == 1.0:
            capacity = 1.0  # (1 - x) * log1p(-x) is 0 * -inf
        else:
            capacity = ((1.0 + x) * math.log1p(x) + (1.0 - x) * math.log1p(-x)) / (
                2.0 * math.log(2.0)
            )
        return capacity - (1.0 - f) * h_worst

    if margin(0.0) < 0.0:
        return None
    if h_worst == 0.0:
        return 0.5

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2.0
        if margin(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return mixed_error((lo + hi) / 2.0)


def max_distance(
    scn,
    rate_fn: str = "improved",
    cap_km: float = 1e4,
    tol_km: float = 0.01,
) -> float:
    """Largest channel length with a positive key rate, in km.

    ``rate_fn`` selects ``"gllp"`` or ``"improved"``.  Exponential
    bracketing from 1 km is followed by bisection to ``tol_km``.  Returns
    ``math.inf`` when the rate is still positive at ``cap_km`` and 0.0 when
    it is non-positive already at zero length.  A length with no conclusive
    results at all has no positive rate.
    """
    # deferred: scenario imports this module
    from .scenario import NoConclusiveResultsError, breakdown

    if rate_fn == "improved":
        rate = rate_improved
    elif rate_fn == "gllp":
        rate = rate_gllp
    else:
        raise ValueError(f"rate_fn must be 'gllp' or 'improved', got {rate_fn!r}")

    def rate_at(length_km: float) -> float:
        try:
            b = breakdown(scn.at_length(length_km))
        except NoConclusiveResultsError:
            return 0.0
        return rate(b, scn.protocol)

    if rate_at(0.0) <= 0.0:
        return 0.0
    if rate_at(cap_km) > 0.0:
        return math.inf

    lo = 0.0
    hi = 1.0
    while hi < cap_km and rate_at(hi) > 0.0:
        lo = hi
        hi *= 2.0
    hi = min(hi, cap_km)

    while hi - lo > tol_km:
        mid = (lo + hi) / 2.0
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo
