"""Protocol catalog: error-rate relations and sifting constants for BB84,
the six-state protocol, and PBC00.

Each protocol pins the phase error rate of single-photon qubit results to a
multiple of the bit error rate and constrains the Y error rate to an
interval (a single point for the six-state protocol, whose full tomography
fixes all three rates to be equal).
"""

from typing import NamedTuple

__all__ = [
    "ProtocolSpec",
    "BB84",
    "SIX_STATE",
    "PBC00",
    "protocol_catalog",
    "get_protocol",
]


class ProtocolSpec(NamedTuple):
    """Constants describing one prepare-and-measure protocol.

    Attributes
    ----------
    name : str
        Canonical identifier looked up by :func:`get_protocol`.
    phase_ratio : float
        Phase error rate of single-photon qubit results as a multiple of
        their bit error rate.
    y_lo_ratio, y_hi_ratio : float
        Admissible Y error rate interval ``[y_lo_ratio * e_x, y_hi_ratio * e_x]``.
        Equal ratios mean the Y rate is pinned (six-state).
    detector_count : int
        Number of single-photon detectors at the receiver.
    dark_conclusive_multiplier : float
        Factor m in the dark-count conclusive rate ``m * C * P(no arrival)``:
        ``m * C * (1 - eta)`` for a single-photon source and
        ``m * C * exp(-eta * mu)`` for a Poissonian one.
    basis_count : int
        Number of encoding bases, used by the intercept-resend attack model.
    max_bit_error : float
        Largest bit error rate with a feasible Bell-outcome distribution.
    k : float
        Sifting constant: a received qubit state gives a conclusive result
        at rate ``1 / (1 + k - k * e_x)``.  0 when every received qubit is
        kept (BB84 and six-state with strongly biased basis choice), 1 for
        PBC00's trine measurement.
    """

    name: str
    phase_ratio: float
    y_lo_ratio: float
    y_hi_ratio: float
    detector_count: int
    dark_conclusive_multiplier: float
    basis_count: int
    max_bit_error: float
    k: float

    def y_interval(self, e_x: float) -> tuple[float, float]:
        """Admissible Y error rate interval for bit error rate ``e_x``."""
        return (self.y_lo_ratio * e_x, self.y_hi_ratio * e_x)

    def conclusive_factor(self, e_x: float) -> float:
        """Fraction ``1 / (1 + k - k * e_x)`` of received qubit states
        yielding a conclusive result."""
        if not 0.0 <= e_x <= 1.0:
            raise ValueError(f"e_x={e_x} outside [0, 1]")
        return 1.0 / (1.0 + self.k - self.k * e_x)


BB84 = ProtocolSpec(
    name="bb84",
    phase_ratio=1.0,
    y_lo_ratio=0.0,
    y_hi_ratio=2.0,
    detector_count=2,
    dark_conclusive_multiplier=2.0,
    basis_count=2,
    max_bit_error=1.0,
    k=0.0,
)

# Full basis tomography makes all three error rates equal, hence the pinned
# Y interval and the feasibility ceiling at 2/3.
SIX_STATE = ProtocolSpec(
    name="six-state",
    phase_ratio=1.0,
    y_lo_ratio=1.0,
    y_hi_ratio=1.0,
    detector_count=2,
    dark_conclusive_multiplier=2.0,
    basis_count=3,
    max_bit_error=2.0 / 3.0,
    k=0.0,
)

# Three detectors, but a dark count survives basis reconciliation only 2/3
# of the time, so the conclusive dark rate is 3C * (2/3) = 2C.  The trine
# measurement is conclusive at rate 1 / (2 - e_x), hence k = 1.
PBC00 = ProtocolSpec(
    name="pbc00",
    phase_ratio=1.25,
    y_lo_ratio=0.25,
    y_hi_ratio=2.25,
    detector_count=3,
    dark_conclusive_multiplier=2.0,
    basis_count=3,
    max_bit_error=0.8,
    k=1.0,
)

_CATALOG = (BB84, SIX_STATE, PBC00)


def protocol_catalog() -> tuple[ProtocolSpec, ...]:
    """All supported protocols."""
    return _CATALOG


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a protocol by its canonical name."""
    for spec in _CATALOG:
        if spec.name == name:
            return spec
    valid = ", ".join(s.name for s in _CATALOG)
    raise ValueError(f"unknown protocol {name!r}; expected one of: {valid}")
