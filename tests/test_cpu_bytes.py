"""The CLI prints the same bytes whichever kernels the CPU selects.

numpy picks a SIMD variant of each loop, and OpenBLAS a kernel, for the CPU it
runs on.  Each setting below forces, for one subprocess, what a CPU with AVX2
and FMA but no AVX-512 (an AMD Zen 3, say) would get, and the outputs must
match the default's byte for byte.  A setting runs only where the CPU has the
features it forces, read from numpy at run time: numpy 2.4 groups its x86
features as ``X86_V3`` and ``X86_V4``, older numpy names them otherwise, and a
forced kernel the CPU lacks would die with an illegal instruction.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import fourwell

# Name: (environment added, numpy features the CPU must have).
SETTINGS = {
    "numpy limited to AVX2": ({"NPY_ENABLE_CPU_FEATURES": "X86_V3"}, ("X86_V3",)),
    "OpenBLAS Haswell kernel": ({"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
}

# At 256^2 a fold spans 129 columns; the eta of the report is one where
# glibc's cbrt is not correctly rounded.
COMMANDS = [
    ["generate", "random", "--grid", "256", "--seed", "3", "--out", "{out}"],
    ["report", "{out}/random.field", "--eta", "1e-2", "--json-out", "{out}/report.json"],
    ["generate", "branching", "--eta", "1e-3", "--grid", "512", "--out", "{out}"],
    ["report", "{out}/branching.field", "--eta", "1e-3"],
    ["sweep", "--grid", "32", "--kinds", "laminate,crossing-twin,branching,random",
     "--etas", "0.3,0.1,0.05", "--seed", "5", "--out", "{out}/sweep"],
    ["verify"],
]

# Runs every command in one interpreter, then prints branching heights' bits.
SCRIPT = """
import json, sys
import numpy as np
from fourwell.cli import main
from fourwell.microstructures import BranchingParams
for argv in json.loads(sys.argv[2]):
    assert main([a.replace("{out}", sys.argv[1]) for a in argv]) == 0, argv
for beta in np.linspace(0.1, 4, 400):  # decays far deeper than a default plan's
    p = BranchingParams(mu=0.25, lam=0.25, beta=float(beta), N=40, w1=1.0, eta=1e-3)
    print(p.heights().tobytes().hex())
"""


def outputs(out: Path, env: dict[str, str]) -> dict[str, bytes]:
    """Stdout and every file the commands write, under ``env`` added."""
    src = str(Path(fourwell.__file__).parents[1])
    env = {**os.environ, **env, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out), json.dumps(COMMANDS)],
        env=env, capture_output=True,
    )
    assert run.returncode == 0, run.stderr.decode()
    files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return {"stdout": run.stdout.replace(str(out).encode(), b"{out}"), **files}


@pytest.fixture(scope="module")
def default(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("default"), {})


@pytest.mark.parametrize("name", list(SETTINGS))
def test_outputs_do_not_depend_on_the_cpu_kernels(tmp_path, default, name):
    env, features = SETTINGS[name]
    if not all(__cpu_features__.get(f) for f in features):
        pytest.skip(f"the CPU or numpy lacks {', '.join(features)}")
    forced = outputs(tmp_path, env)
    assert sorted(forced) == sorted(default)
    differing = [k for k in default if forced[k] != default[k]]
    assert not differing, f"{name} changes {', '.join(differing)}"
