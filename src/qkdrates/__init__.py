"""Secret-key rates, error thresholds, and achievable distances for QKD
protocols under a dark-count-aware security analysis, with a Monte Carlo
pulse simulator for validation."""

__version__ = "0.1.0"

from .entropy import (
    InfeasibleRatesError,
    binary_entropy,
    worst_case_conditional_phase_entropy,
)
from .keyrate import (
    RateBreakdown,
    max_distance,
    rate_alice,
    rate_bob,
    rate_gllp,
    rate_improved,
    rate_shor_preskill,
    threshold_bit_error,
    zero_dark_threshold,
)
from .protocols import (
    BB84,
    PBC00,
    SIX_STATE,
    ProtocolSpec,
    get_protocol,
    protocol_catalog,
)
from .scenario import (
    DetectorModel,
    EveKind,
    LinkModel,
    Scenario,
    SourceKind,
    SourceModel,
    breakdown,
    distance_sweep,
    transmittance,
)

# The simulator needs numpy, so it is imported on first use of one of these
# names: the rate commands never load either.
_SIMULATOR_NAMES = frozenset(("EmpiricalStats", "run_simulation"))


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BB84",
    "DetectorModel",
    "EmpiricalStats",
    "EveKind",
    "InfeasibleRatesError",
    "LinkModel",
    "PBC00",
    "ProtocolSpec",
    "RateBreakdown",
    "SIX_STATE",
    "Scenario",
    "SourceKind",
    "SourceModel",
    "binary_entropy",
    "breakdown",
    "distance_sweep",
    "get_protocol",
    "max_distance",
    "protocol_catalog",
    "rate_alice",
    "rate_bob",
    "rate_gllp",
    "rate_improved",
    "rate_shor_preskill",
    "run_simulation",
    "threshold_bit_error",
    "transmittance",
    "worst_case_conditional_phase_entropy",
    "zero_dark_threshold",
]
