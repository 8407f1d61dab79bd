"""Physical channel and source models feeding the rate formulas.

A :class:`Scenario` bundles protocol, source, fiber link, and detector
parameters and fully determines a :class:`~qkdrates.keyrate.RateBreakdown`
for an honest (eavesdropper-free) channel.  Dark counts use the linearized
conclusive rate ``m*C`` per pulse with no arriving photon, ``m`` the
protocol's dark conclusive multiplier; simultaneous fires of two detectors
are discarded.  :class:`EveKind` is the eavesdropper the simulator can
put on the channel.

:func:`breakdown` is one formula for both sources: a single-photon source
is the Poissonian one with every pulse carrying exactly one photon.  A
scenario's channel length may be a numpy array: ``transmittance`` and
``breakdown`` then evaluate every length at once, through the same formulas
as for a single float, and :func:`distance_sweep` uses that to evaluate a
whole grid in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from . import keyrate
from ._elementwise import all_, any_, exp, first_failing, maximum
from .keyrate import RateBreakdown
from .protocols import ProtocolSpec

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LinkModel",
    "DetectorModel",
    "SourceKind",
    "SourceModel",
    "Scenario",
    "EveKind",
    "DecoyInversionError",
    "NoConclusiveResultsError",
    "NoDecoyEstimate",
    "Sweep",
    "transmittance",
    "breakdown",
    "decoy_invert",
    "intrinsic_error_from_decoy_with_slope",
    "worst_case_no_decoy",
    "distance_sweep",
    "MAX_SWEEP_ROWS",
]

_DB_TO_NEPER = math.log(10.0) / 10.0

MAX_SWEEP_ROWS = 1_000_000


class DecoyInversionError(ValueError):
    """Raised when decoy statistics admit no physical single-photon solution."""


class NoConclusiveResultsError(ValueError):
    """Raised when an operating point yields no conclusive results at all."""


@dataclass(frozen=True)
class LinkModel:
    """Fiber link with exponential loss ``eta = exp(-A * l)``.

    ``length_km`` is a float or an array of lengths.
    """

    attenuation_db_per_km: float
    length_km: float

    def __post_init__(self) -> None:
        # abs(x) < inf is false for NaN and for either infinity
        if not (
            math.isfinite(self.attenuation_db_per_km)
            and all_(abs(self.length_km) < math.inf)
        ):
            raise ValueError("attenuation and length must be finite")
        if self.attenuation_db_per_km < 0.0:
            raise ValueError("attenuation must be >= 0 dB/km")
        if any_(self.length_km < 0.0):
            raise ValueError("length must be >= 0 km")


@dataclass(frozen=True)
class DetectorModel:
    """Threshold detectors with per-pulse dark count probability ``C``."""

    dark_count_prob: float
    detector_count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ValueError("dark count probability must be in [0, 1)")
        if self.detector_count < 1:
            raise ValueError("detector count must be >= 1")


class SourceKind(Enum):
    SINGLE_PHOTON = "single-photon"
    POISSONIAN = "poissonian"


@dataclass(frozen=True)
class SourceModel:
    """Photon-number statistics of the sender's source."""

    kind: SourceKind
    mean_photon_number: float | None = None

    def __post_init__(self) -> None:
        if self.kind is SourceKind.POISSONIAN:
            mu = self.mean_photon_number
            if mu is None or not (math.isfinite(mu) and mu > 0.0):
                raise ValueError(
                    f"Poissonian source needs a finite mean photon number > 0, got {mu}"
                )
        elif self.mean_photon_number is not None:
            raise ValueError("single-photon source takes no mean photon number")

    @classmethod
    def single_photon(cls) -> "SourceModel":
        return cls(kind=SourceKind.SINGLE_PHOTON)

    @classmethod
    def poissonian(cls, mean_photon_number: float) -> "SourceModel":
        return cls(kind=SourceKind.POISSONIAN, mean_photon_number=mean_photon_number)


@dataclass(frozen=True)
class Scenario:
    """Complete parameter set for one operating point.

    ``e_x_sq`` is the intrinsic, distance-independent bit error rate of
    received qubit states (optics misalignment, channel decoherence).
    """

    protocol: ProtocolSpec
    source: SourceModel
    link: LinkModel
    detector: DetectorModel
    e_x_sq: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.e_x_sq <= 0.5:
            raise ValueError("e_x_sq must be in [0, 0.5]")
        if self.detector.detector_count != self.protocol.detector_count:
            raise ValueError(
                f"{self.protocol.name} uses {self.protocol.detector_count} "
                f"detectors, got {self.detector.detector_count}"
            )

    def at_length(self, length_km) -> "Scenario":
        """Copy of this scenario at a different channel length, or at an
        array of lengths."""
        link = LinkModel(self.link.attenuation_db_per_km, length_km)
        return Scenario(self.protocol, self.source, link, self.detector, self.e_x_sq)


class EveKind(Enum):
    """Eavesdropping strategy applied to arriving qubits.

    Intercept-resend measures each qubit in a uniformly random protocol
    basis and forwards the outcome: a mismatched basis (probability
    ``1 - 1/basis_count``) randomizes the receiver's bit, flipping it with
    probability 1/2.
    """

    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"

    def flip_probability(self, basis_count: int) -> float:
        if self is EveKind.NONE:
            return 0.0
        return (1.0 - 1.0 / basis_count) / 2.0


def transmittance(link: LinkModel):
    """Probability that a photon traverses the link."""
    return exp(-link.attenuation_db_per_km * _DB_TO_NEPER * link.length_km)


def breakdown(scn: Scenario) -> RateBreakdown:
    """Conclusive-rate decomposition for the scenario's source.

    With emission probabilities ``P_k`` (``P_1 = 1`` for a single-photon
    source, ``P_k = exp(-mu) mu^k / k!`` for a Poissonian one):

    * single-photon qubit results: ``cf * P_1 * eta``,
    * multi-photon qubit results: ``cf * sum_{k>=2} P_k (1 - (1-eta)^k)``,
    * dark counts: ``m*C`` times the no-arrival probability (``1 - eta``
      or ``exp(-eta*mu)``),
    * empty-pulse qubit results: zero on an honest channel.

    Single-photon and empty-pulse conclusive fractions follow from splitting
    the dark counts by emitted photon number: ``omega1 * p_c = p_sq +
    m*C * P_1 * (1 - eta)`` and ``omega0 * p_c = m*C * P_0``; for a
    single-photon source that makes ``omega1 = 1`` and ``omega0 = 0``
    exactly.  Multi-photon qubit results carry the same intrinsic error rate
    as single-photon ones; the rate formulas still grant the eavesdropper
    full information on them.
    """
    eta = transmittance(scn.link)
    c = scn.detector.dark_count_prob
    m = scn.protocol.dark_conclusive_multiplier
    cf = scn.protocol.conclusive_factor(scn.e_x_sq)
    if scn.source.kind is SourceKind.POISSONIAN:
        mu = scn.source.mean_photon_number
        p0 = math.exp(-mu)
        p1 = mu * math.exp(-mu)
        no_arrival = exp(-eta * mu)
        p_mq = cf * maximum(1.0 - no_arrival - p1 * eta, 0.0)
    else:
        p0, p1, no_arrival, p_mq = 0.0, 1.0, 1.0 - eta, 0.0

    p_sq = cf * p1 * eta
    p_dk = m * c * no_arrival
    p_c = p_sq + p_mq + p_dk
    bad = p_c <= 0.0
    if any_(bad):
        raise NoConclusiveResultsError(
            f"no conclusive results: transmittance {first_failing(eta, bad):.3g} "
            f"and dark count probability {c:.3g} give a conclusive rate of 0"
        )

    omega1 = (p_sq + m * c * p1 * (1.0 - eta)) / p_c
    omega0 = m * c * p0 / p_c
    e_x = ((p_sq + p_mq) * scn.e_x_sq + p_dk * 0.5) / p_c
    return RateBreakdown(
        p_emp=0.0,
        p_sq=p_sq,
        p_mq=p_mq,
        p_dk=p_dk,
        omega0=omega0,
        omega1=omega1,
        e_x=e_x,
        e_x_sq=scn.e_x_sq,
    )


def decoy_invert(
    p_c_omega1: float,
    e_x_1: float,
    mu_bar: float,
    eta: float,
    c: float,
    dark_conclusive_multiplier: float,
) -> tuple[float, float]:
    """Recover single-photon qubit rate and error rate from decoy estimates.

    Inverts the two relations linking the decoy-estimated single-photon
    conclusive rate ``p_c * omega1`` and error rate ``e_x^1`` to the
    underlying qubit quantities, assuming dark counts carry error rate 1/2.
    With ``m`` the protocol's dark conclusive multiplier:

    ``p_sq = p_c*omega1 - m*C * exp(-mu) * mu * (1 - eta)``
    ``e_x_sq = (e_x^1 * p_c*omega1 / (exp(-mu) * mu) - m*C/2 * (1 - eta)) / eta``

    The recovered error rate still carries the conclusive factor; see
    :func:`intrinsic_error_from_decoy_with_slope` for its removal.

    Raises
    ------
    DecoyInversionError
        If no photon arrives (``eta = 0``), the estimates fall below the
        dark-count floor or the recovered error rate is outside [0, 1]
        beyond 1e-9.
    """
    if mu_bar <= 0.0 or not 0.0 <= eta <= 1.0:
        raise ValueError("mu_bar must be > 0 and eta in [0, 1]")
    if eta == 0.0:
        raise DecoyInversionError(
            "transmittance is 0, so no photon arrives and the single-photon "
            "error rate cannot be recovered"
        )
    p1 = math.exp(-mu_bar) * mu_bar
    m = dark_conclusive_multiplier
    dark_single = m * c * p1 * (1.0 - eta)
    if p_c_omega1 <= dark_single:
        raise DecoyInversionError(
            "single-photon conclusive rate below the dark-count floor"
        )
    p_sq = p_c_omega1 - dark_single
    e_x_sq = (e_x_1 * p_c_omega1 / p1 - 0.5 * m * c * (1.0 - eta)) / eta
    if e_x_sq < -1e-9 or e_x_sq > 1.0 + 1e-9:
        raise DecoyInversionError(f"recovered e_x_sq={e_x_sq} outside [0, 1]")
    return p_sq, min(max(e_x_sq, 0.0), 1.0)


def intrinsic_error_from_decoy_with_slope(
    spec: ProtocolSpec, e_x_sq_raw: float
) -> tuple[float, float]:
    """Undo the conclusive factor folded into a decoy-recovered error rate,
    and the derivative in the raw rate for propagating a standard error.

    The inversion returns ``r = e * cf(e) = e / (1 + k - k*e)``; solving for
    ``e`` gives ``(1+k) r / (1 + k r)``, the identity when ``k = 0``.
    """
    k = spec.k
    denominator = 1.0 + k * e_x_sq_raw
    return (1.0 + k) * e_x_sq_raw / denominator, (1.0 + k) / denominator**2


@dataclass(frozen=True)
class NoDecoyEstimate:
    """Worst-case single-photon statistics without decoy states."""

    omega1_lower: float
    e_x_1_upper: float
    usable: bool


def worst_case_no_decoy(p_c: float, e_x: float, mu_bar: float) -> NoDecoyEstimate:
    """Pessimistic single-photon fraction assuming multi-photon pulses
    always yield conclusive results.

    ``omega1 >= (p_c - p_multi) / p_c`` with ``p_multi = 1 - exp(-mu)(1+mu)``,
    and all observed errors are attributed to the single-photon class.  When
    the multi-photon emission rate exceeds ``p_c`` no usable bound remains.
    """
    if p_c <= 0.0:
        raise ValueError("p_c must be positive")
    p_multi = 1.0 - math.exp(-mu_bar) * (1.0 + mu_bar)
    if p_multi >= p_c:
        return NoDecoyEstimate(omega1_lower=0.0, e_x_1_upper=0.5, usable=False)
    omega1_lower = (p_c - p_multi) / p_c
    e_x_1_upper = min(0.5, e_x / omega1_lower)
    return NoDecoyEstimate(
        omega1_lower=omega1_lower, e_x_1_upper=e_x_1_upper, usable=True
    )


@dataclass(frozen=True, eq=False)
class Sweep:
    """Columns of a distance sweep, one array element per grid point.

    ``breakdown`` holds the breakdown columns; a field that is constant
    over the grid (``p_emp``, ``e_x_sq``, and for a single-photon source
    ``p_mq``) stays a float.  ``rate_old``
    (multi-photon discount only) and ``rate_new`` (dark counts credited)
    are clamped at zero for display.
    """

    length_km: np.ndarray
    eta: np.ndarray
    breakdown: RateBreakdown
    rate_old: np.ndarray
    rate_new: np.ndarray


def distance_sweep(scn: Scenario, l_min: float, l_max: float, step: float) -> Sweep:
    """Evaluate breakdown and key rates on a distance grid.

    The grid is ``l_min, l_min + step, ... <= l_max``, evaluated in one pass
    over the array of lengths.  A grid of more than ``MAX_SWEEP_ROWS`` rows
    is refused before any is evaluated.
    """
    import numpy as np

    if not all(math.isfinite(v) for v in (l_min, l_max, step)):
        raise ValueError("l_min, l_max and step must be finite")
    if not 0.0 <= l_min <= l_max:
        raise ValueError("need 0 <= l_min <= l_max")
    if step <= 0.0:
        raise ValueError("step must be positive")
    n_steps = (l_max - l_min) / step + 1e-9
    if n_steps >= MAX_SWEEP_ROWS:
        raise ValueError(f"grid has more than {MAX_SWEEP_ROWS} rows")
    lengths = l_min + np.arange(int(math.floor(n_steps)) + 1) * step
    points = scn.at_length(lengths)
    b = breakdown(points)
    return Sweep(
        length_km=lengths,
        eta=transmittance(points.link),
        breakdown=b,
        rate_old=maximum(keyrate.rate_gllp(b, scn.protocol), 0.0),
        rate_new=maximum(keyrate.rate_improved(b, scn.protocol), 0.0),
    )
