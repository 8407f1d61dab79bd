"""The README's Python examples run as written, and its command-line
synopsis names the flags the parser has, so a change to the public API or
to the flags has to update them."""

import re
from pathlib import Path

from conftest import subcommand_flags

from qkdrates.keyrate import max_distance
from qkdrates.protocols import protocol_catalog
from qkdrates.scenario import DetectorModel, LinkModel, Scenario, SourceModel

README = Path(__file__).resolve().parent.parent / "README.md"
HELP = {"-h", "--help"}


def python_fences(text):
    """Each ```python fence's code, padded with blank lines so that a
    traceback gives its README line numbers."""
    for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S):
        yield "\n" * text.count("\n", 0, match.start(1)) + match.group(1)


def test_readme_examples_run(capsys):
    fences = list(python_fences(README.read_text()))
    assert fences
    # in order and in one namespace: later examples reuse earlier names
    namespace = {"__name__": "readme"}
    for code in fences:
        exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out


def cli_synopsis(text):
    """The flags each ``qkdrates <cmd>`` line of the README's CLI block
    names, counting its indented continuation lines."""
    pattern = r"^## Command-line interface\n\n```\n(.*?)^```$"
    block = re.search(pattern, text, re.M | re.S)
    named = {}
    for line in block.group(1).splitlines():
        if line.startswith("qkdrates "):
            command = line.split()[1]
        named.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    return named


def test_cli_synopsis_flags_exist():
    flags = subcommand_flags()
    named = cli_synopsis(README.read_text())
    assert named.keys() == flags.keys()
    for command, used in named.items():
        assert used <= flags[command] - HELP, (command, used - flags[command])


def test_common_flags_sentence():
    pattern = r"^Common flags on every subcommand:(.*?)\("
    sentence = re.search(pattern, README.read_text(), re.M | re.S)
    listed = set(re.findall(r"`(--[a-z-]+)", sentence.group(1)))
    assert listed == set.intersection(*subcommand_flags().values()) - HELP


def test_reach_gain_sentence():
    # every number of the reach sentence, recomputed: the gain of the
    # improved rate over gllp, rounded to 0.1 km, spans the stated range
    # over the protocol catalog for each source.  The reaches are solved to
    # 1e-6 km: the PBC00 single-photon gain, 72.4573 km, is 0.0073 km from a
    # rounding boundary, within what the default 0.01 km brackets leave open.
    pattern = (
        r"at ([\d.]+) dB/km, `C = ([\de.-]+)` and `e_x_sq = ([\d.]+)`, achievable"
        r".*? by ([\d.]+)-([\d.]+) km for an ideal\s+single-photon source"
        r".*? by ([\d.]+)-([\d.]+) km for a Poissonian source\s+at μ = ([\d.]+) "
    )
    match = re.search(pattern, README.read_text(), re.S)
    attenuation, c, e_x_sq, *ranges, mu = match.groups()
    sources = (SourceModel.single_photon(), SourceModel.poissonian(float(mu)))
    for source, stated in zip(sources, (ranges[:2], ranges[2:])):
        gains = []
        for spec in protocol_catalog():
            scn = Scenario(
                protocol=spec,
                source=source,
                link=LinkModel(attenuation_db_per_km=float(attenuation), length_km=0.0),
                detector=DetectorModel(
                    dark_count_prob=float(c), detector_count=spec.detector_count
                ),
                e_x_sq=float(e_x_sq),
            )
            improved, gllp = (
                max_distance(scn, fn, tol_km=1e-6) for fn in ("improved", "gllp")
            )
            gains.append(improved - gllp)
        assert [f"{min(gains):.1f}", f"{max(gains):.1f}"] == stated, (source, gains)
