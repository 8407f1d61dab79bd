"""The operations one pass of each benchmark workload runs.

Shared by ``run.py``, which checks each op's output, and ``worker.py``,
which executes the ops in a fresh interpreter.  Standard library only, so
the worker can import it before it times ``import qkdrates.cli``.

Why these workloads:

* ``sweep``: rate-vs-distance curves (the paper's Fig. 1 and Fig. 3).  Every
  bb84/pbc00 row evaluates the worst-case phase entropy at a new
  single-photon-class error, so the entropy cache never hits; six-state
  pins Y and measures the per-row scenario, keyrate and CLI overhead.
* ``solve``: the two solvers, threshold over a fine intrinsic-error grid and
  reach over protocols x sources x dark-count rates x accountings.
* ``simulate_sparse``: the Monte Carlo oracle at 50 km, where only 5-10% of
  pulses carry an arrival, so event-sparse sampling can pay off.
* ``simulate_dense``: the same scenarios at 0 km, where most pulses arrive
  and per-pulse work cannot be skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "solve", "simulate_sparse", "simulate_dense")

PROTOCOLS = ("bb84", "six-state", "pbc00")
SOURCES = ("single-photon", "poissonian")
MEAN_PHOTON_NUMBER = 0.5
ATTENUATION_DB_PER_KM = 0.2

SWEEP_DARK = 1e-6
SWEEP_E_X_SQ = 0.01
SWEEP_MAX_KM = 400

REACH_E_X_SQ = 0.01
REACH_DARK = (1e-7, 1e-6, 1e-5, 1e-4)
REACH_RATES = ("gllp", "improved")

# e_x_sq = i / THRESHOLD_DENOM for i in 0..THRESHOLD_MAX_I, i.e. [0, 0.2].
THRESHOLD_DENOM = 1000
THRESHOLD_MAX_I = 200

SIM_DARK = 1e-5
SIM_E_X_SQ = 0.05
SIM_LENGTH_KM = {"simulate_sparse": 50.0, "simulate_dense": 0.0}


@dataclass(frozen=True)
class Size:
    """Work per op.  Smoke sizes are subsets of the full grids, so the
    full-size references cover them."""

    sweep_step_km: float
    threshold_stride: int
    reach_dark: tuple[float, ...]
    pulses: int


FULL = Size(sweep_step_km=2.0, threshold_stride=1, reach_dark=REACH_DARK, pulses=10_000_000)
SMOKE = Size(sweep_step_km=40.0, threshold_stride=20, reach_dark=(1e-6,), pulses=200_000)


@dataclass(frozen=True)
class Op:
    """One operation.  ``kind`` is ``sweep``, ``threshold`` or ``simulate``
    (a CLI call with ``argv``, to which the worker appends ``--out``) or
    ``reach`` (a direct ``keyrate.max_distance`` call).  ``params`` holds
    ``(protocol, source, dark count probability, rate_fn)`` for reach and
    ``(protocol, source)`` for simulate.  ``items`` counts the rows, solves
    or pulses the op produces."""

    name: str
    kind: str
    items: int
    argv: tuple[str, ...] = ()
    params: tuple = ()


def _source_flags(source: str) -> tuple[str, ...]:
    flags = ("--source-kind", source)
    if source == "poissonian":
        flags += ("--mean-photon-number", repr(MEAN_PHOTON_NUMBER))
    return flags


def scenario(protocol: str, source: str, dark: float, e_x_sq: float, length_km: float):
    """Build a ``qkdrates.Scenario`` (imports the package on first use)."""
    import qkdrates

    spec = qkdrates.get_protocol(protocol)
    if source == "poissonian":
        src = qkdrates.SourceModel.poissonian(MEAN_PHOTON_NUMBER)
    else:
        src = qkdrates.SourceModel.single_photon()
    return qkdrates.Scenario(
        protocol=spec,
        source=src,
        link=qkdrates.LinkModel(
            attenuation_db_per_km=ATTENUATION_DB_PER_KM, length_km=length_km
        ),
        detector=qkdrates.DetectorModel(
            dark_count_prob=dark, detector_count=spec.detector_count
        ),
        e_x_sq=e_x_sq,
    )


def threshold_values(size: Size) -> list[float]:
    return [
        i / THRESHOLD_DENOM
        for i in range(0, THRESHOLD_MAX_I + 1, size.threshold_stride)
    ]


def simulation_seed(seed: int, pass_index: int, op_name: str) -> int:
    """Philox seed for one simulate op, derived from the workload seed."""
    return random.Random(f"{seed}/{pass_index}/{op_name}").randrange(1, 2**31)


def ops(workload: str, seed: int, pass_index: int, smoke: bool) -> list[Op]:
    """The ops of one pass, in execution order."""
    size = SMOKE if smoke else FULL
    result = []
    if workload == "sweep":
        rows = int(SWEEP_MAX_KM / size.sweep_step_km) + 1
        for protocol in PROTOCOLS:
            for source in SOURCES:
                argv = (
                    "sweep", "--protocol", protocol, *_source_flags(source),
                    "--attenuation-db-per-km", repr(ATTENUATION_DB_PER_KM),
                    "--dark-count-prob", repr(SWEEP_DARK),
                    "--e-x-sq", repr(SWEEP_E_X_SQ),
                    "--length-min-km", "0",
                    "--length-max-km", str(SWEEP_MAX_KM),
                    "--length-step-km", repr(size.sweep_step_km),
                )  # fmt: skip
                result.append(Op(f"sweep-{protocol}-{source}", "sweep", rows, argv))
    elif workload == "solve":
        values = tuple(repr(v) for v in threshold_values(size))
        for protocol in PROTOCOLS:
            argv = ("threshold", "--protocol", protocol, *values)
            result.append(Op(f"threshold-{protocol}", "threshold", len(values), argv))
        for protocol in PROTOCOLS:
            for source in SOURCES:
                for dark in size.reach_dark:
                    for rate_fn in REACH_RATES:
                        name = f"reach-{protocol}-{source}-C{dark:g}-{rate_fn}"
                        params = (protocol, source, dark, rate_fn)
                        result.append(Op(name, "reach", 1, params=params))
    elif workload in SIM_LENGTH_KM:
        length = SIM_LENGTH_KM[workload]
        for protocol in PROTOCOLS:
            for source in SOURCES:
                name = f"simulate-{length:g}km-{protocol}-{source}"
                argv = (
                    "simulate", "--protocol", protocol, *_source_flags(source),
                    "--attenuation-db-per-km", repr(ATTENUATION_DB_PER_KM),
                    "--length-km", repr(length),
                    "--dark-count-prob", repr(SIM_DARK),
                    "--e-x-sq", repr(SIM_E_X_SQ),
                    "--n-pulses", str(size.pulses),
                    "--seed", str(simulation_seed(seed, pass_index, name)),
                    "--workers", "1",
                )  # fmt: skip
                result.append(
                    Op(name, "simulate", size.pulses, argv, (protocol, source))
                )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return result
