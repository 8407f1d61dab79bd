"""The package and the scalar commands load neither numpy nor the simulator,
nor ``dataclasses`` and the ``inspect`` it pulls in.

numpy takes most of the start-up time of a CLI call, and ``rate`` and
``threshold`` do pure float math, so only the code that needs arrays
imports it.  The records are named tuples, so nothing needs ``dataclasses``.
Likewise only a call that reads a config file imports ``configparser``, and
only a call the full parser must read, such as ``--help``, imports
``argparse`` and the ``gettext`` and ``locale`` its messages load.  Only
``decoy`` loads the decoy-state estimate, which loads neither numpy nor the
simulator, so ``sweep`` compiles only the models and ``simulate`` only the
simulation.
Each check runs in a fresh interpreter and counts only the modules that a
bare interpreter does not already hold: site hooks preload some on some
machines.
"""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("numpy", "qkdrates.simulator", "qkdrates.decoy", "dataclasses", "inspect")


def run_python(*args: str) -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        check=True,
    )


@functools.cache
def preloaded() -> frozenset:
    """The modules a bare interpreter holds before it runs any code."""
    result = run_python("-c", "import sys; print(*sys.modules, sep='\\n')")
    return frozenset(result.stdout.splitlines())


@pytest.mark.parametrize(
    "code",
    [
        "import qkdrates",
        "import qkdrates.cli",
        "from qkdrates.cli import main; main(['rate'])",
        "from qkdrates.cli import main; main(['threshold', '0.05'])",
        "from qkdrates.cli import main\n"
        "try:\n    main(['simulate', '--help'])\nexcept SystemExit:\n    pass",
    ],
    ids=["package", "cli", "rate", "threshold", "simulate-help"],
)
def test_heavy_modules_not_loaded(code):
    heavy = [m for m in HEAVY if m not in preloaded()]
    check = f"import sys\n{code}\nprint([m for m in {heavy!r} if m in sys.modules])"
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


@pytest.mark.parametrize(
    "argv",
    [["rate"], ["threshold", "0.05"], ["sweep", "--length-step-km", "100"],
     ["simulate", "--n-pulses", "1000"]],
    ids=lambda argv: argv[0],
)  # fmt: skip
def test_valid_call_loads_no_parser(argv):
    parser = [m for m in ("argparse", "gettext", "locale") if m not in preloaded()]
    code = (
        f"import sys\nfrom qkdrates.cli import main\nassert main({argv!r}) == 0\n"
        f"print([m for m in {parser!r} if m in sys.modules])"
    )
    assert run_python("-c", code).stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv, loaded",
    [(["sweep", "--length-step-km", "100"], False),
     (["simulate", "--n-pulses", "200000"], False),
     (["decoy", "--n-pulses", "200000"], True)],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)  # fmt: skip
def test_decoy_recovery_loaded_only_by_decoy(argv, loaded):
    # sweep and simulate compile only the models and the simulation, not the
    # decoy estimate they never run
    code = (
        "import sys\nfrom qkdrates.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('qkdrates.decoy' in sys.modules)"
    )
    assert run_python("-c", code).stdout.splitlines()[-1] == str(loaded)


@pytest.mark.parametrize("module", ["qkdrates", "qkdrates.scenario"])
def test_decoy_inversion_lives_only_in_decoy(module):
    # no other module defines or re-exports the decoy-state estimate
    names = ("DecoyInversionError", "decoy_invert", "worst_case_no_decoy")
    code = (
        f"import importlib\nmodule = importlib.import_module({module!r})\n"
        f"print([name for name in {names!r} if hasattr(module, name)])"
    )
    assert run_python("-c", code).stdout.splitlines()[-1] == "[]"


def test_decoy_loads_no_numpy_nor_simulator():
    heavy = [m for m in ("numpy", "qkdrates.simulator") if m not in preloaded()]
    code = (
        "import sys\nimport qkdrates.decoy\n"
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    assert run_python("-c", code).stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("module", ["keyrate", "entropy"])
def test_rate_engine_neither_imports_nor_names_numpy(module):
    # the formulas reach numpy only through qkdrates._elementwise
    tree = ast.parse((Path(SRC) / "qkdrates" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add((node.module or "").partition(".")[0])
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    assert not {"numpy", "np"} & found


def test_help_still_prints_usage():
    code = "from qkdrates.cli import main\nmain(['simulate', '--help'])"
    assert run_python("-c", code).stdout.startswith("usage: qkdrates simulate ")


def importtime_names(code: str) -> list[str]:
    """The modules ``python -X importtime -c code`` reports importing."""
    result = run_python("-X", "importtime", "-c", code)
    return [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]


def test_importtime_lists_no_numpy():
    bare = set(importtime_names("pass"))
    imported = [m for m in importtime_names("import qkdrates.cli") if m not in bare]
    assert "qkdrates.cli" in imported
    roots = ("numpy", "dataclasses", "inspect")
    assert [name for name in imported if name.split(".")[0] in roots] == []


def test_simulator_names_resolve_on_use():
    code = (
        "import qkdrates, sys\n"
        "assert 'qkdrates.simulator' not in sys.modules\n"
        "from qkdrates import run_simulation\n"
        "from qkdrates.simulator import run_simulation as direct\n"
        "print(run_simulation is direct)"
    )
    assert run_python("-c", code).stdout.splitlines()[-1] == "True"


def test_simulator_import_leaves_numpy_random_to_the_first_run():
    # numpy loads numpy.random on first use, which takes about 14 ms; a
    # simulator annotation that names it must not trigger that at import
    code = "import sys\nimport qkdrates.simulator\nprint('numpy.random' in sys.modules)"
    result = run_python("-c", code)
    assert result.stdout.splitlines()[-1] == str("numpy.random" in preloaded())


def test_simulate_starts_no_thread_pool():
    # --workers is still read, but a run is one stream on one thread
    code = (
        "import sys\nfrom qkdrates.cli import main\n"
        "main(['simulate', '--n-pulses', '20000000', *sys.argv[1:]])\n"
        "print('concurrent.futures' in sys.modules)"
    )
    outputs = [run_python("-c", code, "--workers", w).stdout for w in ("2", "1")]
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[-1] == str("concurrent.futures" in preloaded())
