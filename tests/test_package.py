"""Tests for the package namespace: each module's ``__all__`` is the one list of its names."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import fourwell
from fourwell import energy, fields, microstructures, model, rigidity, spectral

MODULES = [energy, fields, microstructures, model, rigidity, spectral]


def test_all_is_the_sorted_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert fourwell.__all__ == sorted(union)


@pytest.mark.parametrize("a, b", combinations(MODULES, 2), ids=lambda m: m.__name__)
def test_module_lists_are_disjoint(a, b):
    assert not set(a.__all__) & set(b.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_its_module_attribute(module):
    for name in module.__all__:
        assert getattr(fourwell, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fourwell import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == fourwell.__all__


def test_import_leaves_the_cli_out():
    env = {**os.environ, "PYTHONPATH": str(Path(fourwell.__file__).parents[1])}
    probe = "import sys, fourwell; print('fourwell.cli' in sys.modules, hasattr(fourwell, 'cli'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]
