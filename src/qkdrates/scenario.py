"""Physical channel and source models feeding the rate formulas.

A :class:`Scenario` bundles protocol, source, fiber link, and detector
parameters and fully determines a :class:`~qkdrates.keyrate.RateBreakdown`
for an honest (eavesdropper-free) channel.  Dark counts use the linearized
conclusive rate ``m*C`` per pulse with no arriving photon, ``m`` the
protocol's dark conclusive multiplier.  That is the first-order term of the
rate the simulator draws: it keeps exact single fires, ``m*C*(1-C)**(n-1)``
for ``n`` detectors, and discards a pulse on which two fire, so the two
differ by about ``(n-1)*C`` relative.  Both ignore a dark fire on a pulse
that also carries an arrival.  :class:`EveKind` is the eavesdropper the
simulator can put on the channel.

:func:`breakdown` is one formula for both sources: a single-photon source
is the Poissonian one with every pulse carrying exactly one photon.  A
scenario's channel length may be a numpy array: ``transmittance`` and
``breakdown`` then evaluate every length at once, through the same formulas
as for a single float, and :func:`distance_sweep` uses that to evaluate a
whole grid in one pass.
"""

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from . import keyrate
from ._elementwise import all_, any_, exp, first_failing, maximum
from ._record import checked
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
    "NoConclusiveResultsError",
    "Sweep",
    "transmittance",
    "breakdown",
    "distance_sweep",
    "MAX_SWEEP_ROWS",
]

_DB_TO_NEPER = math.log(10.0) / 10.0

MAX_SWEEP_ROWS = 1_000_000


class NoConclusiveResultsError(ValueError):
    """Raised when an operating point yields no conclusive results at all."""


@checked
class LinkModel(NamedTuple):
    """Fiber link with exponential loss ``eta = exp(-A * l)``.

    ``length_km`` is a float or an array of lengths.
    """

    attenuation_db_per_km: float
    length_km: float

    def _check(self) -> None:
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


@checked
class DetectorModel(NamedTuple):
    """Threshold detectors with per-pulse dark count probability ``C``."""

    dark_count_prob: float
    detector_count: int

    def _check(self) -> None:
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ValueError("dark count probability must be in [0, 1)")
        n = self.detector_count
        if not (isinstance(n, int) and n >= 1):
            raise ValueError(f"detector count must be an integer >= 1, got {n!r}")


class SourceKind(Enum):
    SINGLE_PHOTON = "single-photon"
    POISSONIAN = "poissonian"


@checked
class SourceModel(NamedTuple):
    """Photon-number statistics of the sender's source."""

    kind: SourceKind
    mean_photon_number: float | None = None

    def _check(self) -> None:
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


@checked
class Scenario(NamedTuple):
    """Complete parameter set for one operating point.

    ``e_x_sq`` is the intrinsic, distance-independent bit error rate of
    received qubit states (optics misalignment, channel decoherence).
    """

    protocol: ProtocolSpec
    source: SourceModel
    link: LinkModel
    detector: DetectorModel
    e_x_sq: float

    def _check(self) -> None:
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


def breakdown(scn: Scenario, eve: EveKind = EveKind.NONE) -> RateBreakdown:
    """Conclusive-rate decomposition for the scenario's source, with the
    eavesdropper ``eve`` on the channel.

    With emission probabilities ``P_k`` (``P_1 = 1`` for a single-photon
    source, ``P_k = exp(-mu) mu^k / k!`` for a Poissonian one):

    * single-photon qubit results: ``cf * P_1 * eta``,
    * multi-photon qubit results: ``cf * sum_{k>=2} P_k (1 - (1-eta)^k)``,
    * dark counts: ``m*C`` times the no-arrival probability (``1 - eta``
      or ``exp(-eta*mu)``); an honest channel puts no qubit on an empty
      pulse, so there is no fourth origin.

    Single-photon and empty-pulse conclusive fractions follow from splitting
    the dark counts by emitted photon number: ``omega1 * p_c = p_sq +
    m*C * P_1 * (1 - eta)`` and ``omega0 * p_c = m*C * P_0``; for a
    single-photon source that makes ``omega1 = 1`` and ``omega0 = 0``
    exactly.  Multi-photon qubit results carry the same intrinsic error rate
    as single-photon ones; the rate formulas still grant the eavesdropper
    full information on them.

    An eavesdropper flips every arriving qubit with probability ``q =
    eve.flip_probability(basis_count)``, independently of the intrinsic
    error channel, so the qubit error rate is ``e_q = e_x_sq + q * (1 - 2 *
    e_x_sq)``, in ``e_x`` and in the ``e_x_sq`` field; with no eavesdropper
    it is ``e_x_sq`` exactly.  The rates and the sifting factor
    ``conclusive_factor(e_x_sq)`` do not change.
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
    q = eve.flip_probability(scn.protocol.basis_count)
    e_q = scn.e_x_sq + q * (1.0 - 2.0 * scn.e_x_sq)
    e_x = ((p_sq + p_mq) * e_q + p_dk * 0.5) / p_c
    return RateBreakdown(p_sq, p_mq, p_dk, omega0, omega1, e_x, e_q)


class Sweep(NamedTuple):
    """Columns of a distance sweep, one array element per grid point.

    ``breakdown`` holds the breakdown columns, the three origins' rates
    among them; a field that is constant over the grid (``e_x_sq``, and for
    a single-photon source ``p_mq``) stays a float.  ``rate_old``
    (multi-photon discount only) and ``rate_new`` (dark counts credited)
    are clamped at zero for display.  A sweep equals only itself: an array
    comparison has no single truth value to give a tuple comparison.
    """

    length_km: "np.ndarray"
    eta: "np.ndarray"
    breakdown: RateBreakdown
    rate_old: "np.ndarray"
    rate_new: "np.ndarray"

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def distance_sweep(scn: Scenario, l_min: float, l_max: float, step: float) -> Sweep:
    """Evaluate breakdown and key rates on a distance grid.

    The grid is ``l_min, l_min + step, ... <= l_max``, evaluated in one pass
    over the array of lengths.  A grid of more than ``MAX_SWEEP_ROWS`` rows
    is refused before any is evaluated.
    """
    import numpy as np

    if not all(math.isfinite(v) for v in (l_min, l_max, step)):
        raise ValueError("length range: l_min, l_max and step must be finite")
    if not 0.0 <= l_min <= l_max:
        raise ValueError("length range: need 0 <= l_min <= l_max")
    if step <= 0.0:
        raise ValueError("length range: step must be positive")
    n_steps = (l_max - l_min) / step + 1e-9
    if n_steps >= MAX_SWEEP_ROWS:
        raise ValueError(f"length range: grid has more than {MAX_SWEEP_ROWS} rows")
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
