"""Tests for the package namespace: each module's ``__all__`` is the one list
of its names, and only the spectral core touches ``numpy.fft``."""

import ast
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import fourwell
from fourwell import energy, fields, microstructures, model, rigidity, spectral

MODULES = [energy, fields, microstructures, model, rigidity, spectral]

# Every public name, spelled out: adding or dropping one is an edit here.
PUBLIC_NAMES = [
    "ADMISSIBLE_TUPLES", "BranchingParams", "DEFAULT_DIAG", "EnergyBreakdown",
    "Grid", "InnerProfile", "MaterialParams", "ModifiedIndicators",
    "OuterProfile", "PhaseField", "RigidityReport", "ScalarField",
    "SymStrainField", "VectorField", "WellSet", "ZigzagPotential",
    "branching_bound", "characteristic_residual", "curl_neg_sobolev",
    "elastic_energy_pointwise", "eta", "extract_inner", "extract_outer",
    "from_modified", "gen_branching", "gen_constant", "gen_counterexample",
    "gen_crossing_twin", "gen_laminate", "gen_random_partition",
    "helmholtz_potential", "incompatibility_defect", "interpolation_gap",
    "inv_gradient", "leray_project", "make_wells", "mixed_difference_sup",
    "neg_sobolev_norm", "permode_elastic_oracle", "plan_branching",
    "read_phase_field", "relaxed_elastic_energy", "rigidity_report",
    "shear_resample", "spectral_derivative", "staircase_shifts",
    "surface_energy", "to_modified", "total_energy", "total_variation",
    "volume_fractions", "wave_decompose", "write_pgm", "write_phase_field",
    "zigzag_potential",
]


def test_all_is_the_pinned_list_of_public_names():
    assert fourwell.__all__ == PUBLIC_NAMES


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
    # The tests directory is on the path, so the package could import the
    # references in whole_array; neither it nor the test tools may be loaded,
    # nor fractions, whose import alone takes milliseconds.
    path = [str(Path(fourwell.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    probe = (
        "import sys, fourwell; print('fourwell.cli' in sys.modules, hasattr(fourwell, 'cli')); "
        "import fourwell.cli; "
        "print(*(name in sys.modules "
        "for name in ('whole_array', 'pytest', 'hypothesis', 'fractions')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False"] * 6


def references_numpy_fft(source: str) -> bool:
    """Whether Python ``source`` names ``numpy.fft``: ``import numpy.fft``,
    ``from numpy import fft``, ``from numpy.fft import ...`` or ``<numpy>.fft``
    for any name numpy is imported as."""
    tree = ast.parse(source)
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[:2] == ["numpy", "fft"] for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[:2] == ["numpy", "fft"]:
                return True
            if node.module == "numpy" and any(alias.name == "fft" for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "fft":
            if isinstance(node.value, ast.Name) and node.value.id in numpy_names:
                return True
    return False


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.fft.rfft(x)",
        "import numpy\nf = numpy.fft",
        "import numpy.fft",
        "from numpy import fft",
        "from numpy import linalg, fft as transforms",
        "from numpy.fft import irfft",
    ],
)
def test_the_probe_sees_every_spelling_of_numpy_fft(source):
    assert references_numpy_fft(source)


def test_the_probe_ignores_other_fft_names():
    assert not references_numpy_fft("import numpy as np\nfrom . import spectral\nspectral.fft")


def test_only_the_spectral_core_references_numpy_fft():
    """The core owns every transform, so no other module names ``numpy.fft``."""
    package = Path(fourwell.__file__).parent
    paths = sorted(package.glob("*.py"))
    users = [path.name for path in paths if references_numpy_fft(path.read_text())]
    assert users == ["spectral.py"]
