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
_LN2 = math.log(2.0)


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
                value = first_failing(value, ~ok)
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


def _capacity(y: float) -> float:
    """``1 - H((1 - y)/2)`` in bits, for ``0 <= y <= 1``.

    Written as ``(y*atanh(y) + log1p(-y*y)/2) / ln 2``: the two terms are
    about ``y**2`` and ``-y**2/2`` for small ``y``, so the value keeps its
    digits as ``y -> 0``, where ``1 - binary_entropy`` would lose them all.
    """
    if y == 1.0:
        return 1.0  # atanh(1) is inf and log1p(-1) is -inf
    return (y * math.atanh(y) + 0.5 * math.log1p(-y * y)) / _LN2


def threshold_bit_error(spec: ProtocolSpec, e_x_sq: float) -> float | None:
    """Largest tolerable bit error rate for a single-photon source.

    As the dark-count share ``f = p_dk / p_c`` sweeps [0, 1], the observed
    error rate is ``e_x(f) = (1-f)*e_x_sq + f/2`` and the normalized key
    rate is ``1 - H(e_x(f)) - (1-f)*H(e_z^sq | e_x^sq)`` (conclusive-rate
    factors cancel).  With ``s = 1 - 2*e_x_sq``, ``y = (1-f)*s`` and
    ``t = H(e_z^sq | e_x^sq) / s`` the margin is ``G(y) = C(y) - t*y``,
    where ``C(y) = 1 - H((1-y)/2)``, and ``e_x(f) = (1-y)/2``.  ``G`` is
    convex with ``G(0) = 0`` and ``G'(0) = -t``, so when the entropy is
    positive it is negative on exactly one interval ``(0, y*)`` and the
    threshold is ``(1 - y*)/2``.  ``C(y) >= y**2 / (2 ln 2)`` puts
    ``y0 = min(s, 2 ln 2 * t)`` at or right of ``y*``, from where Newton
    steps with ``G'(y) = atanh(y)/ln 2 - t`` fall monotonically onto
    ``y*``; they stop when an iterate no longer decreases.

    Returns the float nearest the exact threshold.  That is 0.5 when the
    entropy is 0 (``e_x_sq = 0``, or so small that the entropy underflows),
    where the margin never dips, and whenever the threshold lies within
    half an ulp of 1/2 (``e_x_sq`` below 5e-19 to 1.3e-18 for the catalog
    protocols).  Returns ``None`` when the margin is already negative at
    ``f = 0``.
    """
    if not 0.0 <= e_x_sq < 0.5:
        raise ValueError(f"e_x_sq={e_x_sq} outside [0, 0.5)")
    h_worst = worst_case_conditional_phase_entropy(spec, e_x_sq)
    s = 1.0 - 2.0 * e_x_sq
    if _capacity(s) < h_worst:  # the margin at f = 0
        return None
    if h_worst == 0.0:
        return 0.5

    t = h_worst / s
    y = min(s, 2.0 * _LN2 * t)
    while True:
        after = y - (_capacity(y) - t * y) / (math.atanh(y) / _LN2 - t)
        if not after < y:
            return (1.0 - y) / 2.0
        y = after


def max_distance(
    scn,
    rate_fn: str = "improved",
    cap_km: float = 1e4,
    tol_km: float = 0.01,
) -> float:
    """Largest channel length with a positive key rate, in km.

    ``rate_fn`` selects ``"gllp"`` or ``"improved"``.  Returns ``math.inf``
    when the rate is still positive at ``cap_km`` and 0.0 when it is
    non-positive already at zero length.  Otherwise the result has a
    positive rate, and the search found a non-positive one at most
    ``tol_km`` further out; a length with no conclusive results at all has
    no positive rate.  ``tol_km`` and ``cap_km`` must be positive; the
    search also ends when its bracket is a few float spacings wide.

    The search starts where the single-photon signal falls to the dark-count
    floor, ``ln(p_sq(0) / p_dk(cap_km)) / A`` with ``A`` the attenuation in
    nepers per km, read off the two end-point breakdowns; without a floor
    (``C = 0``, or ``p_sq(0)`` underflowed) it starts at 1 km.  From there it
    walks in doubling steps, right while the rate is positive and left while
    it is not, until the sign changes, and then narrows that bracket by
    Brent's method on the margin ``rate / p_c``.  Where the margin changes
    sign more than once, as it can without dark counts, the walk decides
    which crossing is returned.
    """
    # deferred: scenario imports this module
    from .scenario import _DB_TO_NEPER, NoConclusiveResultsError, breakdown

    if rate_fn == "improved":
        rate = rate_improved
    elif rate_fn == "gllp":
        rate = rate_gllp
    else:
        raise ValueError(f"rate_fn must be 'gllp' or 'improved', got {rate_fn!r}")
    if not (tol_km > 0.0 and cap_km > 0.0):
        raise ValueError(f"tol_km and cap_km must be > 0, got {tol_km!r}, {cap_km!r}")

    def at(length_km: float):
        """The breakdown and the margin; ``None`` and 0.0 at a length with
        no conclusive results."""
        try:
            b = breakdown(scn.at_length(length_km))
        except NoConclusiveResultsError:
            return None, 0.0
        return b, rate(b, scn.protocol) / b.p_c

    near, f_lo = at(0.0)
    if f_lo <= 0.0:
        return 0.0
    far, f_hi = at(cap_km)
    if f_hi > 0.0:
        return math.inf

    if far is not None and near.p_sq > 0.0 and far.p_dk > 0.0:
        # the rates differ at 0 and cap_km, so the attenuation is positive
        step = 1.0 / (scn.link.attenuation_db_per_km * _DB_TO_NEPER)
        start = math.log(near.p_sq / far.p_dk) * step
    else:
        start = step = 1.0
    lo, hi = 0.0, cap_km
    x = min(max(start, lo), hi)
    while lo <= x <= hi:
        if lo < x < hi:
            f_x = at(x)[1]
            if f_x > 0.0:
                lo, f_lo = x, f_x
            else:
                hi, f_hi = x, f_x
        x += step if x == lo else -step
        step *= 2.0
    return _zeroin(lambda x: at(x)[1], lo, f_lo, hi, f_hi, tol_km)


def _zeroin(f, lo: float, f_lo: float, hi: float, f_hi: float, tol: float) -> float:
    """Narrow a bracket with ``f(lo) > 0 >= f(hi)`` by Brent's method.

    Brent's zeroin (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): ``b`` is the bracket end where ``|f|`` is smaller, ``c`` the
    other end and ``a`` the previous ``b``.  Each step
    interpolates, by the secant through ``a`` and ``b`` or inversely
    quadratically through all three, when that lands inside the bracket
    and at most half as far as the step before last; otherwise it bisects.
    A zero of ``f`` counts as non-positive, not as a root.  Returns the
    bracket end where ``f`` is positive, once the bracket is at most
    ``tol`` wide, or four float spacings wide.
    """
    a, f_a, b, f_b = lo, f_lo, hi, f_hi
    c, f_c = a, f_a
    d = e = b - a
    while True:
        if abs(f_c) < abs(f_b):
            a, b, c = b, c, b
            f_a, f_b, f_c = f_b, f_c, f_b
        tol1 = max(0.5 * tol, 2.0 * math.ulp(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1:
            return b if f_b > 0.0 else c
        if abs(e) >= tol1 and abs(f_a) > abs(f_b):
            s = f_b / f_a
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = f_a / f_c, f_b / f_c
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, f_a = b, f_b
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        f_b = f(b)
        if (f_b > 0.0) == (f_c > 0.0):
            c, f_c = a, f_a
            d = e = b - a
