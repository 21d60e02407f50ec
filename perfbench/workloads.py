"""The four workloads: each is a fixed cycle of CLI operations built from a seed.

A run repeats whole cycles, so every run times the same mix of operations and
a median over it does not depend on where the time limit fell.  Each op knows
its CLI arguments and how to check its output; the check returns the number of
grid cells the op wrote, read or priced (one count per field it handled).
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    check_energy,
    check_field_and_image,
    check_report,
    check_sweep,
    check_verify,
    parse_field,
    regenerate_argv,
    require,
)

# Problem sizes.  "full" is the benchmark; "tiny" runs the same code paths in
# seconds for the benchmark's own tests.
SIZES = {
    "full": {
        "grid": 2048,
        "feature_scale": 0.01,
        "branching_eta": 1e-4,
        "sweep_grid": 1024,
        "sweep_etas": "1e-2,3e-3,1e-3,3e-4,1e-4,3e-5",
        "verify_grid": 128,
    },
    "tiny": {
        "grid": 128,
        "feature_scale": 0.125,
        "branching_eta": 1e-2,
        "sweep_grid": 128,
        "sweep_etas": "1e-2,3e-3,1e-3",
        "verify_grid": 16,
    },
}

SWEEP_KINDS = "laminate,crossing-twin,branching,random"

# verify prices 17 fields at --grid (5 oracle fields, 2 laminates, 5 vector
# fields, 2 crossing twins, 3 wave fields) and one 32x32 zigzag field.
VERIFY_FIELDS = 17
VERIFY_EXTRA_CELLS = 32 * 32


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[str], int]  # stdout -> cells handled; raises CheckFailed
    # Builds an operation that checks this one once its own check has passed.
    # It runs untimed and untraced, and its cells are not counted.
    followup: Callable[[], Op] | None = None


def _stripes(n: int, count: int) -> np.ndarray:
    return np.repeat(np.resize([1.0, -1.0], count), n // count)


def _import_fourwell(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import fourwell.fields
    import fourwell.microstructures

    return fourwell.fields, fourwell.microstructures


class Analyze:
    """``energy`` then ``report`` on each of three stored fields."""

    def __init__(self, workdir: Path, seed: int, size: dict, src: Path):
        fields, gens = _import_fourwell(src)
        rng = random.Random(seed)
        n = size["grid"]
        grid = fields.Grid(n, n)
        params, bgrid = gens.plan_branching(size["branching_eta"], max_grid=n)
        made = {
            "random": (
                gens.gen_random_partition(seed, grid, feature_scale=size["feature_scale"]),
                rng.choice((1e-2, 1e-3, 1e-4)),
            ),
            "twin": (
                gens.gen_crossing_twin(
                    "y1", _stripes(n, rng.choice((2, 4, 8))), _stripes(n, rng.choice((8, 16, 32))), grid
                ),
                rng.choice((1e-2, 1e-3, 1e-4)),
            ),
            "branching": (gens.gen_branching(params, bgrid), size["branching_eta"]),
        }
        self.inputs = []
        for name, (field, eta) in made.items():
            path = workdir / f"{name}.field"
            fields.write_phase_field(path, field, {"kind": name})
            _, labels = parse_field(path.read_bytes())
            self.inputs.append((name, path.name, labels, eta))
        self.energy: dict[str, dict] = {}

    def cycle(self, index: int) -> list[Op]:
        self.energy = {}
        ops = []
        for name, path, labels, eta in self.inputs:
            ops.append(Op(f"energy {name}", ["energy", path, "--eta", repr(eta)],
                          lambda out, n=name, lab=labels, e=eta: self._check_energy(out, n, lab, e)))
            ops.append(Op(f"report {name}", ["report", path, "--eta", repr(eta)],
                          lambda out, n=name, lab=labels, e=eta: self._check_report(out, n, lab, e)))
        return ops

    def _check_energy(self, out: str, name: str, labels: np.ndarray, eta: float) -> int:
        self.energy[name] = check_energy(out, labels, eta)
        return labels.size

    def _check_report(self, out: str, name: str, labels: np.ndarray, eta: float) -> int:
        require(name in self.energy, f"no energy output for {name} to compare the report with")
        check_report(out, self.energy[name], labels, eta, twin=name == "twin")
        return labels.size


class Generate:
    """``generate`` of five kinds; once per run the first is regenerated from its header."""

    def __init__(self, workdir: Path, seed: int, size: dict, src: Path):
        rng = random.Random(seed)
        n = str(size["grid"])
        self.out = workdir / "gen"
        self.kinds = [
            ("random", ["--grid", n, "--seed", str(seed), "--feature-scale",
                        repr(rng.choice((size["feature_scale"], 0.03125, 0.125)))]),
            ("crossing-twin", ["--grid", n, "--axis", rng.choice(("y1", "y2")),
                               "--stripes", str(rng.choice((2, 4, 8))),
                               "--g-stripes", str(rng.choice((8, 16, 32)))]),
            ("branching", ["--grid", n, "--eta", repr(size["branching_eta"])]),
            ("counterexample", ["--grid", n, "--k", "4"]),
            ("laminate", ["--grid", n, "--axis", rng.choice(("y1", "y2")),
                          "--stripes", str(rng.choice((2, 4, 8, 16)))]),
        ]  # fmt: skip
        self.headers: dict[str, dict[str, str]] = {}

    def _files(self, name: str) -> tuple[Path, Path]:
        return self.out / f"{name}.field", self.out / f"{name}.pgm"

    def cycle(self, index: int) -> list[Op]:
        ops = [
            Op(f"generate {kind}", ["generate", kind, *flags, "--out", "gen", "--name", kind],
               lambda out, k=kind: self._check(out, k, k))
            for kind, flags in self.kinds
        ]  # fmt: skip
        if index == 0:
            ops[0].followup = self._regenerate
        return ops

    def _check(self, out: str, kind: str, name: str) -> int:
        field, pgm = self._files(name)
        require(out.strip() == str(Path("gen") / field.name), f"generate printed {out.strip()!r}")
        self.headers[name], labels = check_field_and_image(field.read_bytes(), pgm.read_bytes(), kind)
        return labels.size

    def _regenerate(self) -> Op:
        first = self.kinds[0][0]
        argv = [*regenerate_argv(self.headers[first]), "--out", "gen", "--name", "regen"]
        return Op(f"generate {first} from its header", argv, lambda out: self._check_regen(out, first))

    def _check_regen(self, out: str, first: str) -> int:
        cells = self._check(out, first, "regen")
        for a, b in zip(self._files(first), self._files("regen")):
            require(a.read_bytes() == b.read_bytes(), f"{b.name} regenerated from its header differs from {a.name}")
        return cells


class Sweep:
    """One ``sweep`` of four kinds over six etas."""

    def __init__(self, workdir: Path, seed: int, size: dict, src: Path):
        _, gens = _import_fourwell(src)
        self.seed = seed
        self.csv = workdir / "sweep" / "sweep.csv"
        self.grid = size["sweep_grid"]
        self.kinds = SWEEP_KINDS.split(",")
        self.etas_text = size["sweep_etas"]
        self.etas = [float(e) for e in self.etas_text.split(",")]
        # Each row prices one field; branching is planned per eta.
        self.cells = 0
        for kind in self.kinds:
            for eta in self.etas:
                if kind == "branching":
                    _, g = gens.plan_branching(eta, max_grid=self.grid)
                    self.cells += g.n1 * g.n2
                else:
                    self.cells += self.grid * self.grid

    def cycle(self, index: int) -> list[Op]:
        argv = ["sweep", "--grid", str(self.grid), "--kinds", SWEEP_KINDS, "--etas", self.etas_text,
                "--seed", str(self.seed), "--out", "sweep"]  # fmt: skip
        return [Op("sweep", argv, self._check)]

    def _check(self, out: str) -> int:
        require(out.strip() == str(Path("sweep") / "sweep.csv"), f"sweep printed {out.strip()!r}")
        check_sweep(self.csv.read_text(), self.kinds, self.etas)
        return self.cells


class Verify:
    """``verify`` at a new seed per op."""

    def __init__(self, workdir: Path, seed: int, size: dict, src: Path):
        self.seed = seed
        self.grid = size["verify_grid"]

    def cycle(self, index: int) -> list[Op]:
        argv = ["verify", "--grid", str(self.grid), "--seed", str(self.seed * 1000 + index)]
        return [Op("verify", argv, self._check)]

    def _check(self, out: str) -> int:
        check_verify(out)
        return VERIFY_FIELDS * self.grid * self.grid + VERIFY_EXTRA_CELLS


WORKLOADS = {"analyze": Analyze, "generate": Generate, "sweep": Sweep, "verify": Verify}
