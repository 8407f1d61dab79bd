"""Shannon entropy of bit/phase error patterns on virtual entangled pairs.

The security analysis tracks three error classes on each pair, identified
with Bell-state outcomes: a bit error means the pair is Psi+ or Psi-, a
phase error means Phi- or Psi-, and a Y error means Phi- or Psi+.  Privacy
amplification cost is the conditional entropy of the phase error given the
bit error, maximized over the Y error rate interval the protocol leaves
unconstrained.  That maximum has a closed form: the Y rate that makes the
phase error independent of the bit error, clipped to the interval.
:func:`conditional_phase_entropy` is that objective, written on the four
outcome probabilities the three error rates determine.

Every function here takes Python floats or, elementwise, numpy arrays.
"""

from ._elementwise import any_, entropy_term, first_failing, maximum, minimum
from .protocols import ProtocolSpec

__all__ = [
    "InfeasibleRatesError",
    "binary_entropy",
    "conditional_phase_entropy",
    "worst_case_conditional_phase_entropy",
]

# Probabilities this far below zero are treated as rounding noise.
NEG_TOL = 1e-12


class InfeasibleRatesError(ValueError):
    """Raised when rates admit no physical solution: no admissible Y error
    rate gives non-negative Bell-outcome probabilities, or a breakdown has no
    consistent single-photon class."""


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


def conditional_phase_entropy(e_x, e_y, e_z):
    """Entropy of the phase error given the bit error, ``H(e_z | e_x)``.

    The Bell-outcome probabilities solve ``e_x = p_psi_plus + p_psi_minus``,
    ``e_z = p_phi_minus + p_psi_minus`` and ``e_y = p_phi_minus + p_psi_plus``;
    the rates must make all four non-negative.  The value is the entropy of
    the four-outcome pattern minus that of the bit error; always in [0, 1].
    """
    p_psi_plus = (e_x + e_y - e_z) / 2.0
    p_psi_minus = (e_x + e_z - e_y) / 2.0
    p_phi_minus = (e_y + e_z - e_x) / 2.0
    p_identity = 1.0 - p_psi_plus - p_psi_minus - p_phi_minus
    joint = (
        entropy_term(p_identity)
        + entropy_term(p_psi_plus)
        + entropy_term(p_phi_minus)
        + entropy_term(p_psi_minus)
    )
    return maximum(joint - binary_entropy(p_psi_plus + p_psi_minus), 0.0)


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
    # intersect with the rates whose outcome probabilities are all >= 0
    lo, hi = spec.y_interval(e_x)
    lo = maximum(lo, abs(e_x - e_z))
    hi = minimum(hi, minimum(e_x + e_z, 2.0 - e_x - e_z))
    bad = hi < lo - NEG_TOL
    if any_(bad):
        raise InfeasibleRatesError(
            f"admissible Y interval empty for {spec.name} "
            f"at e_x={first_failing(e_x, bad)}"
        )
    e_y = maximum(lo, minimum(e_x + e_z - 2.0 * e_x * e_z, hi))
    return conditional_phase_entropy(e_x, e_y, e_z)
