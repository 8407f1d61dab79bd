"""Tests that every exported name exists, so a deletion leaves no stale export."""

import importlib

import pytest

MODULES = [
    "qkdrates",
    "qkdrates.cli",
    "qkdrates.entropy",
    "qkdrates.keyrate",
    "qkdrates.protocols",
    "qkdrates.scenario",
    "qkdrates.simulator",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
