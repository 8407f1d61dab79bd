"""Single-photon statistics recovered from a simulated run.

A Poissonian source cannot tag its single-photon pulses; decoy states
estimate their conclusive rate and error rate, which still mix in dark
counts on pulses whose photon was lost.  :func:`recover_single_photon_rates`
strips that contribution with the inversion of :mod:`qkdrates.scenario`.

Only the ``decoy`` command uses this, so the simulator, which every
``simulate`` call compiles, does not hold it; nor does this module import
numpy or the simulator: it reads a run's tallies, not its draws.
"""

import math
from typing import TYPE_CHECKING, NamedTuple

from .scenario import (
    Scenario,
    SourceKind,
    decoy_invert,
    intrinsic_error_from_decoy_with_slope,
    transmittance,
)

if TYPE_CHECKING:
    from .simulator import EmpiricalStats

__all__ = ["DecoyRecovery", "recover_single_photon_rates"]


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
    """
    if scn.source.kind is not SourceKind.POISSONIAN:
        raise ValueError("decoy recovery needs a Poissonian source")
    mu = scn.source.mean_photon_number
    eta = transmittance(scn.link)
    c = scn.detector.dark_count_prob
    n = stats.n_pulses

    w_hat = stats.single_pulse_conclusive / n
    q_hat = stats.single_pulse_errors / n
    e_x_1 = stats.single_pulse_errors / max(stats.single_pulse_conclusive, 1)
    p_sq, e_raw = decoy_invert(
        w_hat, e_x_1, mu, eta, c, scn.protocol.dark_conclusive_multiplier
    )

    p1 = math.exp(-mu) * mu
    p_sq_se = math.sqrt(w_hat * (1.0 - w_hat) / n)
    e_raw_se = math.sqrt(q_hat * (1.0 - q_hat) / n) / (p1 * eta)
    e_x_sq, slope = intrinsic_error_from_decoy_with_slope(scn.protocol, e_raw)
    return DecoyRecovery(
        p_sq=p_sq,
        p_sq_se=p_sq_se,
        e_x_sq=e_x_sq,
        e_x_sq_se=slope * e_raw_se,
    )
