"""Tests that every exported name exists and is used, so a deletion leaves no
stale export and no export outlives its last caller."""

import collections
import functools
import importlib
import pathlib
import tokenize

import pytest

MODULES = [
    "qkdrates",
    "qkdrates.cli",
    "qkdrates.decoy",
    "qkdrates.entropy",
    "qkdrates.keyrate",
    "qkdrates.protocols",
    "qkdrates.scenario",
    "qkdrates.simulator",
]

ROOT = pathlib.Path(__file__).resolve().parent.parent
# where a caller may live; tests do not count as callers
CALLER_DIRS = ("src/qkdrates", "demos", "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@functools.cache
def caller_names() -> collections.Counter:
    """How often each identifier occurs in the code of the caller directories.

    Only name tokens count, so strings (``__all__`` entries) and comments do
    not; nor does the name a ``def`` or ``class`` line defines, nor anything
    in the package ``__init__``, which only re-exports.
    """
    counts = collections.Counter()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path == ROOT / "src/qkdrates/__init__.py":
                continue
            with tokenize.open(path) as f:
                previous = None
                for tok in tokenize.generate_tokens(f.readline):
                    if tok.type == tokenize.NAME and previous not in ("def", "class"):
                        counts[tok.string] += 1
                    if tok.type not in (tokenize.NL, tokenize.COMMENT):
                        previous = tok.string
    return counts


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_caller(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not caller_names()[n]] == []
