"""Command-line front end.

Subcommands: ``rate`` (single operating point), ``threshold`` (bit error
rate thresholds), ``sweep`` (distance sweep CSV), ``simulate`` (Monte Carlo
vs analytic comparison), ``decoy`` (decoy-state recovery check).

Configuration is an INI file with sections ``[protocol]``, ``[source]``,
``[link]``, ``[detector]``, ``[simulation]``; every key is optional and CLI
flags override file values.  Each :class:`RunConfig` field declares its INI
key, parser and flag once; the file reader and the flags follow from that
table.  The parser turns the text into the value the library uses (a
protocol name into its :class:`~qkdrates.protocols.ProtocolSpec`, a choice
into its enum member) and rejects anything else, naming the field and the
reason.  Exit codes: 0 success, 1 check or inversion failure, 2 invalid
input.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass

from .keyrate import (
    rate_alice,
    rate_bob,
    rate_gllp,
    rate_improved,
    rate_shor_preskill,
    threshold_bit_error,
)
from .protocols import BB84, ProtocolSpec, get_protocol, protocol_catalog
from .scenario import (
    DecoyInversionError,
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

__all__ = ["RunConfig", "ConfigError", "load_config", "main"]

SWEEP_HEADER = "length_km,eta,p_c,p_sq,p_mq,p_dk,omega0,omega1,e_x,rate_old,rate_new"


class ConfigError(ValueError):
    """Invalid configuration value; message names the offending field."""


_COMMANDS = {
    "rate": "rates at one length",
    "threshold": "error thresholds",
    "sweep": "distance sweep CSV",
    "simulate": "Monte Carlo vs analytic check",
    "decoy": "decoy-state recovery check",
}
_ALL = tuple(_COMMANDS)
_SCENARIO = ("rate", "sweep", "simulate", "decoy")
_SIMULATION = ("simulate", "decoy")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("must be finite and > 0")
    return value


def _choice(enum):
    """Parser for a field that holds one member of ``enum``, named by value."""

    def parse(text: str):
        try:
            return enum(text)
        except ValueError:
            values = " or ".join(repr(member.value) for member in enum)
            raise ValueError(f"must be {values}") from None

    return parse


def _option(default, section, key, parse, commands=_SCENARIO, help=None):
    """A RunConfig field with its INI ``[section] key``, the parser for its
    INI and ``--flag`` text, and the subcommands that take the flag.  The
    help text may name ``{protocols}``, ``{sources}`` or ``{eves}``."""
    metadata = dict(
        section=section, key=key, parse=parse, commands=commands, help=help
    )
    return dataclasses.field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters with figure-reproducing defaults.

    Each field declares its INI location, parser and ``--flag``; the config
    file reader and the command-line flags both come from here.
    """

    protocol: ProtocolSpec = _option(
        BB84, "protocol", "name", get_protocol, _ALL, "{protocols}"
    )
    source_kind: SourceKind = _option(
        SourceKind.SINGLE_PHOTON, "source", "kind", _choice(SourceKind),
        ("rate", "sweep", "simulate"), "{sources}",
    )
    mean_photon_number: float = _option(
        0.5, "source", "mean_photon_number", _positive_float
    )
    attenuation_db_per_km: float = _option(0.2, "link", "attenuation_db_per_km", float)
    length_km: float = _option(
        50.0, "link", "length_km", float, ("rate", "simulate", "decoy")
    )
    length_min_km: float = _option(0.0, "link", "length_min_km", float, ("sweep",))
    length_max_km: float = _option(400.0, "link", "length_max_km", float, ("sweep",))
    length_step_km: float = _option(1.0, "link", "length_step_km", float, ("sweep",))
    e_x_sq: float = _option(0.01, "link", "e_x_sq", float)
    dark_count_prob: float = _option(1e-6, "detector", "dark_count_prob", float)
    n_pulses: int = _option(1_000_000, "simulation", "n_pulses", int, _SIMULATION)
    workers: int = _option(
        1, "simulation", "workers", _positive_int, _SIMULATION,
        "threads that run simulation batches; the result does not depend on it",
    )
    seed: int = _option(1, "simulation", "seed", int, _SIMULATION, "simulation seed")
    eve: EveKind = _option(
        EveKind.NONE, "simulation", "eve", _choice(EveKind), ("simulate",), "{eves}"
    )


def _parse(f: dataclasses.Field, raw: str, where: str):
    try:
        return f.metadata["parse"](raw)
    except ValueError as exc:
        raise ConfigError(f"{f.name}: bad value for {where}: {raw!r} ({exc})") from exc


def _flag(f: dataclasses.Field) -> str:
    return "--" + f.name.replace("_", "-")


def load_config(path: str) -> RunConfig:
    """Parse an INI config file into a RunConfig."""
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc

    table = {
        (f.metadata["section"], f.metadata["key"]): f
        for f in dataclasses.fields(RunConfig)
    }
    overrides = {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            f = table.get((section, key))
            if f is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            overrides[f.name] = _parse(f, raw, f"[{section}] {key}")
    return dataclasses.replace(RunConfig(), **overrides)


def config_scenario(cfg: RunConfig) -> Scenario:
    """The Scenario a config describes; the models check the values."""
    poissonian = cfg.source_kind is SourceKind.POISSONIAN
    return Scenario(
        protocol=cfg.protocol,
        source=SourceModel(
            cfg.source_kind, cfg.mean_photon_number if poissonian else None
        ),
        link=LinkModel(cfg.attenuation_db_per_km, cfg.length_km),
        detector=DetectorModel(cfg.dark_count_prob, cfg.protocol.detector_count),
        e_x_sq=cfg.e_x_sq,
    )


def _fmt(value: float) -> str:
    """CSV number formatting: 10 significant digits."""
    return f"{value:.10g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def cmd_rate(cfg: RunConfig, out_path: str | None) -> int:
    scn = config_scenario(cfg)
    b = breakdown(scn)
    spec = scn.protocol
    lines = [
        f"protocol        {spec.name}",
        f"source          {cfg.source_kind.value}",
        f"length_km       {cfg.length_km:.4g}",
        f"eta             {transmittance(scn.link):.4g}",
        f"p_c             {b.p_c:.4g}",
        f"p_sq            {b.p_sq:.4g}",
        f"p_mq            {b.p_mq:.4g}",
        f"p_dk            {b.p_dk:.4g}",
        f"omega0          {b.omega0:.4g}",
        f"omega1          {b.omega1:.4g}",
        f"e_x             {b.e_x:.4g}",
        f"e_x_sq          {b.e_x_sq:.4g}",
        f"rate_shor_preskill {rate_shor_preskill(b.p_c, b.e_x, spec):.4g}",
        f"rate_gllp          {rate_gllp(b, spec):.4g}",
        f"rate_bob           {rate_bob(b, spec):.4g}",
        f"rate_alice         {rate_alice(b, spec):.4g}",
        f"rate_improved      {rate_improved(b, spec):.4g}",
    ]
    _emit("\n".join(lines) + "\n", out_path)
    return 0


def cmd_threshold(cfg: RunConfig, values: list[float], out_path: str | None) -> int:
    lines = ["protocol,e_x_sq,threshold"]
    for e_x_sq in values:
        threshold = threshold_bit_error(cfg.protocol, e_x_sq)
        rendered = "none" if threshold is None else _fmt(threshold)
        lines.append(f"{cfg.protocol.name},{_fmt(e_x_sq)},{rendered}")
    _emit("\n".join(lines) + "\n", out_path)
    return 0


def cmd_sweep(cfg: RunConfig, out_path: str | None) -> int:
    # the grid replaces the length, so sweep never reads cfg.length_km
    scn = config_scenario(dataclasses.replace(cfg, length_km=0.0))
    try:
        sweep = distance_sweep(
            scn, cfg.length_min_km, cfg.length_max_km, cfg.length_step_km
        )
    except ValueError as exc:
        raise ConfigError(f"length range: {exc}") from exc
    import numpy as np

    b = sweep.breakdown
    columns = np.broadcast_arrays(
        sweep.length_km, sweep.eta, b.p_c, b.p_sq, b.p_mq, b.p_dk,
        b.omega0, b.omega1, b.e_x, sweep.rate_old, sweep.rate_new,
    )  # fmt: skip
    # "%.10g" % v formats a float exactly as _fmt(v) does
    row = ",".join(["%.10g"] * len(columns))
    lines = [SWEEP_HEADER]
    lines.extend(row % values for values in zip(*(c.tolist() for c in columns)))
    _emit("\n".join(lines) + "\n", out_path)
    return 0


def cmd_simulate(cfg: RunConfig, out_path: str | None, tally_out: str | None) -> int:
    from .simulator import compare_to_analytic, run_simulation, tally_csv

    scn = config_scenario(cfg)
    stats = run_simulation(
        scn, cfg.eve, n_pulses=cfg.n_pulses, seed=cfg.seed, workers=cfg.workers
    )
    if tally_out is not None:
        _emit(tally_csv(stats), tally_out)
    comparisons = compare_to_analytic(stats, scn)
    lines = [
        f"pulses {cfg.n_pulses}  seed {cfg.seed}  protocol {scn.protocol.name}",
        f"{'field':8} {'empirical':>14} {'analytic':>14} {'z':>10}",
    ]
    for row in comparisons:
        z_text = "inf" if math.isinf(row.z) else f"{row.z:.4g}"
        lines.append(
            f"{row.name:8} {row.empirical:14.6e} {row.analytic:14.6e} {z_text:>10}"
        )
    ok = all(abs(row.z) <= 3.0 for row in comparisons)
    lines.append("agreement: " + ("PASS (all |z| <= 3)" if ok else "FAIL (|z| > 3)"))
    _emit("\n".join(lines) + "\n", out_path)
    return 0 if ok else 1


def cmd_decoy(cfg: RunConfig, out_path: str | None) -> int:
    from .simulator import recover_single_photon_rates, run_simulation

    cfg = dataclasses.replace(cfg, source_kind=SourceKind.POISSONIAN)
    scn = config_scenario(cfg)
    stats = run_simulation(
        scn, EveKind.NONE, cfg.n_pulses, cfg.seed, workers=cfg.workers
    )
    try:
        recovery = recover_single_photon_rates(stats, scn)
    except DecoyInversionError as exc:
        _emit(f"decoy inversion failed: {exc}\n", out_path)
        return 1
    truth = breakdown(scn)
    lines = [
        f"decoy run: signal mu {_fmt(cfg.mean_photon_number)}  pulses {cfg.n_pulses}",
        f"{'quantity':8} {'recovered':>14} {'stderr':>12} {'true':>14}",
        f"{'p_sq':8} {recovery.p_sq:14.6e} {recovery.p_sq_se:12.4e} {truth.p_sq:14.6e}",
        f"{'e_x_sq':8} {recovery.e_x_sq:14.6e} {recovery.e_x_sq_se:12.4e} "
        f"{truth.e_x_sq:14.6e}",
    ]
    _emit("\n".join(lines) + "\n", out_path)
    return 0


def _declare(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """Give ``parser`` the flags and arguments of subcommand ``command``."""
    allowed = {
        "protocols": " | ".join(spec.name for spec in protocol_catalog()),
        "sources": " | ".join(kind.value for kind in SourceKind),
        "eves": " | ".join(kind.value for kind in EveKind),
    }
    parser.add_argument("--config", help="INI config file path")
    parser.add_argument("--out", help="write output to file instead of stdout")
    for f in dataclasses.fields(RunConfig):
        if command in f.metadata["commands"]:
            text = f.metadata["help"]
            parser.add_argument(
                _flag(f), dest=f.name, help=text and text.format(**allowed)
            )
    if command == "threshold":
        parser.add_argument(
            "e_x_sq_values", nargs="*", type=float, default=[0.0, 0.01, 0.1],
            help="intrinsic bit error rates (default: 0 0.01 0.1)",
        )  # fmt: skip
    if command == "simulate":
        parser.add_argument(
            "--tally-out", help="also write raw per-category tallies as CSV"
        )
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The full ``qkdrates`` parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="qkdrates",
        description="Key generation rates, thresholds, and Monte Carlo checks "
        "for BB84, six-state, and PBC00.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        _declare(sub.add_parser(name, help=text), name)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides[f.name] = _parse(f, raw, _flag(f))
    return dataclasses.replace(cfg, **overrides)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand's own parser prints what the full one would, except
    # that only the full parser reports leftover arguments as unrecognized
    command = argv[0] if argv else None
    if command in _COMMANDS:
        parser = _declare(argparse.ArgumentParser(prog=f"qkdrates {command}"), command)
        args, rest = parser.parse_known_args(argv[1:])
    if command not in _COMMANDS or rest:
        args = _build_parser().parse_args(argv)
        command = args.command
    try:
        cfg = _resolve_config(args)
        if command == "rate":
            return cmd_rate(cfg, args.out)
        if command == "threshold":
            return cmd_threshold(cfg, args.e_x_sq_values, args.out)
        if command == "sweep":
            return cmd_sweep(cfg, args.out)
        if command == "simulate":
            return cmd_simulate(cfg, args.out, args.tally_out)
        if command == "decoy":
            return cmd_decoy(cfg, args.out)
        raise AssertionError(f"unhandled command {command}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
