"""Shannon entropy of bit/phase error patterns on virtual entangled pairs.

The security analysis tracks three error classes on each pair, identified
with Bell-state outcomes: a bit error means the pair is Psi+ or Psi-, a
phase error means Phi- or Psi-, and a Y error means Phi- or Psi+.  Privacy
amplification cost is the conditional entropy of the phase error given the
bit error, maximized over the Y error rate interval the protocol leaves
unconstrained.  That maximum has a closed form: the Y rate that makes the
phase error independent of the bit error, clipped to the interval.  Where
the interval admits that rate no clip is needed and the maximum is the
binary entropy of the phase error alone, which is how BB84 and PBC00 are
always evaluated; the six-state protocol pins the Y rate to ``e_x``, which
is that rate only at ``e_x`` 0 and 1/2.  :func:`conditional_phase_entropy`
is the objective, written on the four outcome probabilities the three
error rates determine.

Every function here takes Python floats or, elementwise, numpy arrays.
"""

from ._elementwise import all_, any_, entropy_term, first_failing, maximum, minimum
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
    objective at ``e_y*`` clipped to the interval.

    ``e_y*`` is always feasible: it is the Y rate of the product
    distribution ``((1-e_x)(1-e_z), e_x(1-e_z), (1-e_x)e_z, e_x e_z)``,
    which is non-negative.  So wherever ``e_y*`` lies in the admissible
    interval (and ``e_z <= 1``) the clip is the identity and the value is
    ``H(e_z)``, one binary entropy with no objective evaluated.  BB84 and
    PBC00 take that route on all of ``[0, max_bit_error]`` (PBC00 needs
    ``e_y* >= e_x/4``, true for ``e_x <= 0.8``); for BB84 it is the
    Shor-Preskill cost ``H(e_x)``.  The six-state interval is the single
    point ``e_x``, which is ``e_y*`` only at 0 and 1/2.  An array takes the
    route only if every element admits it, so floats and arrays share one
    code path.

    Raises
    ------
    InfeasibleRatesError
        If the admissible interval does not intersect the feasible set.
    ValueError
        If ``e_x`` is NaN, negative, or exceeds the protocol's largest
        meaningful bit error rate.
    """
    # e_x != e_x flags NaN, which the clamps below would pass through
    bad = (e_x < 0.0) | (e_x > spec.max_bit_error + NEG_TOL) | (e_x != e_x)
    if any_(bad):
        raise ValueError(
            f"e_x={first_failing(e_x, bad)} outside [0, {spec.max_bit_error}] "
            f"for {spec.name}"
        )
    e_x = minimum(maximum(e_x, 0.0), spec.max_bit_error)
    e_z = spec.phase_ratio * e_x
    e_y = e_x + e_z - 2.0 * e_x * e_z
    lo, hi = spec.y_interval(e_x)
    # e_y* is feasible, so where it is admissible it is the maximiser, and
    # phase and bit errors are independent there
    if all_((lo <= e_y) & (e_y <= hi) & (e_z <= 1.0)):
        return binary_entropy(e_z)
    # intersect with the rates whose outcome probabilities are all >= 0
    lo = maximum(lo, abs(e_x - e_z))
    hi = minimum(hi, minimum(e_x + e_z, 2.0 - e_x - e_z))
    bad = hi < lo - NEG_TOL
    if any_(bad):
        raise InfeasibleRatesError(
            f"admissible Y interval empty for {spec.name} "
            f"at e_x={first_failing(e_x, bad)}"
        )
    return conditional_phase_entropy(e_x, maximum(lo, minimum(e_y, hi)), e_z)
