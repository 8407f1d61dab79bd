"""Decoy-state estimate of a Poissonian source's single-photon statistics.

A Poissonian source cannot tag its single-photon pulses; decoy states
estimate their conclusive rate and error rate, which still mix in dark
counts on pulses whose photon was lost.  :func:`decoy_invert` strips that
contribution, :func:`worst_case_no_decoy` bounds the same statistics
without decoy states, and :func:`recover_single_photon_rates` feeds a
simulated run's tallies through the inversion.

Only the ``decoy`` command uses this, so neither the models nor the
simulator, which the other commands compile, hold it; nor does this module
import numpy or the simulator: it reads a run's tallies, not its draws.
"""

import math
from typing import TYPE_CHECKING, NamedTuple

from .protocols import ProtocolSpec
from .scenario import Scenario, SourceKind, transmittance

if TYPE_CHECKING:
    from .simulator import EmpiricalStats

__all__ = [
    "DecoyInversionError",
    "DecoyRecovery",
    "NoDecoyEstimate",
    "decoy_invert",
    "intrinsic_error_from_decoy_with_slope",
    "recover_single_photon_rates",
    "worst_case_no_decoy",
]


class DecoyInversionError(ValueError):
    """Raised when decoy statistics admit no physical single-photon solution."""


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


class NoDecoyEstimate(NamedTuple):
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


class DecoyRecovery(NamedTuple):
    """Single-photon qubit rate and intrinsic error rate recovered from a
    simulated run, with propagated binomial standard errors."""

    p_sq: float
    p_sq_se: float
    e_x_sq: float
    e_x_sq_se: float


def recover_single_photon_rates(
    stats: "EmpiricalStats", scn: Scenario
) -> DecoyRecovery:
    """Feed a run's single-photon-pulse tallies through the decoy inversion.

    Uses the omniscient per-pulse-class tallies as the stand-in for the
    decoy-state estimate of the single-photon conclusive rate and error
    rate, then inverts the dark-count contamination.

    Raises
    ------
    DecoyInversionError
        If the run expects fewer than one single-photon arrival
        (``n_pulses * mu * exp(-mu) * eta < 1``), so that whatever the
        inversion returned would be the dark counts' noise, or if
        :func:`decoy_invert` finds no physical solution.
    """
    if scn.source.kind is not SourceKind.POISSONIAN:
        raise ValueError("decoy recovery needs a Poissonian source")
    mu = scn.source.mean_photon_number
    eta = transmittance(scn.link)
    c = scn.detector.dark_count_prob
    n = stats.n_pulses
    p1 = math.exp(-mu) * mu
    arrivals = n * p1 * eta
    # eta = 0 is left to decoy_invert, whose message names it
    if eta > 0.0 and arrivals < 1.0:
        raise DecoyInversionError(
            f"the run expects {arrivals:.3g} single-photon arrivals "
            "(n_pulses * mu * exp(-mu) * eta), fewer than 1, so it holds "
            "no single-photon signal to recover"
        )

    w_hat = stats.single_pulse_conclusive / n
    q_hat = stats.single_pulse_errors / n
    e_x_1 = stats.single_pulse_errors / max(stats.single_pulse_conclusive, 1)
    p_sq, e_raw = decoy_invert(
        w_hat, e_x_1, mu, eta, c, scn.protocol.dark_conclusive_multiplier
    )

    p_sq_se = math.sqrt(w_hat * (1.0 - w_hat) / n)
    e_raw_se = math.sqrt(q_hat * (1.0 - q_hat) / n) / (p1 * eta)
    e_x_sq, slope = intrinsic_error_from_decoy_with_slope(scn.protocol, e_raw)
    return DecoyRecovery(
        p_sq=p_sq,
        p_sq_se=p_sq_se,
        e_x_sq=e_x_sq,
        e_x_sq_se=slope * e_raw_se,
    )
