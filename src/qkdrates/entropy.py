"""Shannon entropy of bit/phase error patterns on virtual entangled pairs.

The security analysis tracks three error classes on each pair, identified
with Bell-state outcomes: a bit error means the pair is Psi+ or Psi-, a
phase error means Phi- or Psi-, and a Y error means Phi- or Psi+.  Privacy
amplification cost is the conditional entropy of the phase error given the
bit error, maximized over the Y error rate interval the protocol leaves
unconstrained.  That maximum has a closed form: the Y rate that makes the
phase error independent of the bit error, clipped to the interval.

Every function here takes Python floats or, elementwise, numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._elementwise import (
    any_,
    entropy_term,
    first_failing,
    maximum,
    minimum,
)
from .protocols import ProtocolSpec

__all__ = [
    "InfeasibleRatesError",
    "PauliDistribution",
    "binary_entropy",
    "distribution_from_rates",
    "joint_bit_phase_entropy",
    "conditional_phase_entropy",
    "worst_case_conditional_phase_entropy",
    "feasible_y_interval",
]

# Probabilities this far below zero are treated as rounding noise.
NEG_TOL = 1e-12


class InfeasibleRatesError(ValueError):
    """Raised when error rates imply a negative Bell-outcome probability."""


def _clamp_probability(p, what: str):
    bad = p < -NEG_TOL
    if any_(bad):
        raise InfeasibleRatesError(f"{what} is negative: {first_failing(p, bad)}")
    return maximum(p, 0.0)


def binary_entropy(p):
    """Binary Shannon entropy ``H(p)`` in bits.

    Parameters
    ----------
    p : float or ndarray
        Probability in [0, 1].  Values within 1e-12 outside the interval
        are clamped; anything further, and NaN, raises ``ValueError``.

    Returns
    -------
    float or ndarray
        ``-p*log2(p) - (1-p)*log2(1-p)`` with the convention ``0*log2(0) = 0``.

    Examples
    --------
    >>> binary_entropy(0.5)
    1.0
    >>> binary_entropy(0.0)
    0.0
    """
    # p != p flags NaN, which the clamps below would turn into 0
    bad = (p < -NEG_TOL) | (p > 1.0 + NEG_TOL) | (p != p)
    if any_(bad):
        raise ValueError(f"probability {first_failing(p, bad)} outside [0, 1]")
    # a bound goes first: on a tie the helpers return their first argument,
    # so a numpy scalar at 0 or 1 becomes the float bound, as max and min do
    p = minimum(1.0, maximum(0.0, p))
    return entropy_term(p) + entropy_term(1.0 - p)


@dataclass(frozen=True)
class PauliDistribution:
    """Probabilities of the four Bell-pair outcomes.

    ``p_identity`` is the error-free outcome (Phi+), ``p_psi_plus`` a pure
    bit error, ``p_phi_minus`` a pure phase error, and ``p_psi_minus`` a
    joint bit-and-phase error.  Fields must be non-negative and sum to 1
    within 1e-12; negatives within 1e-12 of zero are clamped on
    construction.
    """

    p_identity: float
    p_psi_plus: float
    p_psi_minus: float
    p_phi_minus: float

    def __post_init__(self) -> None:
        for field in ("p_identity", "p_psi_plus", "p_psi_minus", "p_phi_minus"):
            value = _clamp_probability(getattr(self, field), field)
            object.__setattr__(self, field, value)
        total = self.p_identity + self.p_psi_plus + self.p_psi_minus + self.p_phi_minus
        bad = abs(total - 1.0) > 1e-12
        if any_(bad):
            raise InfeasibleRatesError(
                f"outcome probabilities sum to {first_failing(total, bad)}, not 1"
            )

    @property
    def e_x(self) -> float:
        """Bit error rate."""
        return self.p_psi_plus + self.p_psi_minus

    @property
    def e_z(self) -> float:
        """Phase error rate."""
        return self.p_phi_minus + self.p_psi_minus

    @property
    def e_y(self) -> float:
        """Y error rate."""
        return self.p_phi_minus + self.p_psi_plus


def distribution_from_rates(e_x: float, e_y: float, e_z: float) -> PauliDistribution:
    """Invert the three error-rate definitions to outcome probabilities.

    Solves the linear system ``e_x = p_psi_plus + p_psi_minus``,
    ``e_z = p_phi_minus + p_psi_minus``, ``e_y = p_phi_minus + p_psi_plus``.

    Raises
    ------
    InfeasibleRatesError
        If any implied probability is negative beyond rounding tolerance.
    """
    p_psi_plus = (e_x + e_y - e_z) / 2.0
    p_psi_minus = (e_x + e_z - e_y) / 2.0
    p_phi_minus = (e_y + e_z - e_x) / 2.0
    p_identity = 1.0 - p_psi_plus - p_psi_minus - p_phi_minus
    return PauliDistribution(
        p_identity=p_identity,
        p_psi_plus=p_psi_plus,
        p_psi_minus=p_psi_minus,
        p_phi_minus=p_phi_minus,
    )


def joint_bit_phase_entropy(d: PauliDistribution):
    """Entropy in bits of the four-outcome bit/phase error pattern."""
    total = 0.0
    for p in (d.p_identity, d.p_psi_plus, d.p_phi_minus, d.p_psi_minus):
        total = total + entropy_term(p)
    return total


def conditional_phase_entropy(d: PauliDistribution):
    """Entropy of the phase error given the bit error, ``H(e_z | e_x)``.

    Equals the joint pattern entropy minus ``H(e_x)``; always in [0, 1].
    """
    value = joint_bit_phase_entropy(d) - binary_entropy(d.e_x)
    return maximum(value, 0.0)


def feasible_y_interval(e_x, e_z):
    """Y error rates for which all four outcome probabilities are >= 0."""
    lo = abs(e_x - e_z)
    hi = minimum(e_x + e_z, 2.0 - e_x - e_z)
    return lo, hi


def worst_case_conditional_phase_entropy(spec: ProtocolSpec, e_x):
    """Largest ``H(e_z | e_x)`` consistent with the protocol's constraints.

    The phase error rate is ``spec.phase_ratio * e_x``; the Y error rate
    ranges over the protocol's admissible interval intersected with the
    feasible set.  With ``e_x`` and ``e_z`` fixed the objective is concave
    in ``e_y`` and stationary where the phase error is independent of the
    bit error, ``e_y* = e_x + e_z - 2 e_x e_z``, so the maximum is the
    objective at ``e_y*`` clipped to the interval.  For BB84 that is
    ``H(e_x)``; the six-state interval is a single point.

    Raises
    ------
    InfeasibleRatesError
        If the admissible interval does not intersect the feasible set.
    ValueError
        If ``e_x`` exceeds the protocol's largest meaningful bit error rate.
    """
    bad = (e_x < 0.0) | (e_x > spec.max_bit_error + NEG_TOL)
    if any_(bad):
        raise ValueError(
            f"e_x={first_failing(e_x, bad)} outside [0, {spec.max_bit_error}] "
            f"for {spec.name}"
        )
    e_x = minimum(maximum(e_x, 0.0), spec.max_bit_error)
    e_z = spec.phase_ratio * e_x
    lo, hi = spec.y_interval(e_x)
    feas_lo, feas_hi = feasible_y_interval(e_x, e_z)
    lo = maximum(lo, feas_lo)
    hi = minimum(hi, feas_hi)
    bad = hi < lo - NEG_TOL
    if any_(bad):
        raise InfeasibleRatesError(
            f"admissible Y interval empty for {spec.name} "
            f"at e_x={first_failing(e_x, bad)}"
        )
    e_y = maximum(lo, minimum(e_x + e_z - 2.0 * e_x * e_z, hi))
    return conditional_phase_entropy(distribution_from_rates(e_x, e_y, e_z))
