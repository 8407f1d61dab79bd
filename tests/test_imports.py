"""The package and the scalar commands load neither numpy nor the simulator.

numpy takes most of the start-up time of a CLI call, and ``rate`` and
``threshold`` do pure float math, so only the code that needs arrays
imports it.  Likewise only a call that reads a config file imports
``configparser``.  Each check runs in a fresh interpreter, where nothing is
imported yet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("numpy", "qkdrates.simulator")


def run_python(*args: str) -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        check=True,
    )


@pytest.mark.parametrize(
    "code",
    [
        "import qkdrates",
        "from qkdrates.cli import main; main(['rate'])",
        "from qkdrates.cli import main; main(['threshold', '0.05'])",
        "from qkdrates.cli import main\n"
        "try:\n    main(['simulate', '--help'])\nexcept SystemExit:\n    pass",
    ],
    ids=["package", "rate", "threshold", "simulate-help"],
)
def test_heavy_modules_not_loaded(code):
    check = f"import sys\n{code}\nprint([m for m in {HEAVY!r} if m in sys.modules])"
    result = run_python("-c", check)
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv, loaded",
    [(["rate"], False), (["threshold", "0.05"], False),
     (["rate", "--config", os.devnull], True)],
    ids=["rate", "threshold", "rate-config"],
)  # fmt: skip
def test_configparser_loaded_only_to_read_a_config_file(argv, loaded):
    code = f"import sys\nfrom qkdrates.cli import main\nmain({argv!r})\n"
    result = run_python("-c", code + "print('configparser' in sys.modules)")
    assert result.stdout.splitlines()[-1] == str(loaded)


def test_importtime_lists_no_numpy():
    result = run_python("-X", "importtime", "-c", "import qkdrates.cli")
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "qkdrates.cli" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


def test_simulator_names_resolve_on_use():
    code = (
        "import qkdrates, sys\n"
        "assert 'qkdrates.simulator' not in sys.modules\n"
        "from qkdrates import run_simulation\n"
        "from qkdrates.simulator import run_simulation as direct\n"
        "print(run_simulation is direct)"
    )
    assert run_python("-c", code).stdout.splitlines()[-1] == "True"
