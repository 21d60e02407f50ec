"""Command-line front end.

Five subcommands cover the workflow: ``generate`` rasterizes a microstructure
to a text field file plus a PGM preview, ``energy`` prices an existing field,
``report`` runs the full rigidity diagnostics, ``sweep`` tabulates energies
and defects across generators and eta values with fitted log-log slopes, and
``verify`` runs fast built-in self-checks.

Everything is deterministic: randomness flows from one 64-bit seed, headers
carry the fully resolved configuration, and rerunning a command with the
parameters recorded in an output header reproduces the output byte for byte.
Exit codes: 0 on success, 1 when a verification check fails, 2 for usage or
input errors, a grid too large to allocate included.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .energy import (
    _relaxed_from_labels,
    _weighted,
    surface_energy,
    total_energy,
)
from .fields import (
    Grid,
    PhaseField,
    ScalarField,
    VectorField,
    _header_lines,
    read_phase_field,
    to_modified,
    write_phase_field,
    write_pgm,
)
from .microstructures import (
    _rng,
    gen_branching,
    gen_constant,
    gen_counterexample,
    gen_crossing_twin,
    gen_laminate,
    gen_random_partition,
    plan_branching,
    zigzag_potential,
)
from .model import _check_eta
from .rigidity import _label_measures, mixed_difference_sup, rigidity_report, wave_decompose
from .spectral import curl_neg_sobolev, leray_project, permode_elastic_oracle

__all__ = ["main"]

KINDS = ("constant", "laminate", "crossing-twin", "branching", "counterexample", "random")

SWEEP_COLUMNS = (
    "eta",
    "E_elast",
    "E_surf",
    "E",
    "theta1",
    "theta2",
    "theta3",
    "theta4",
    "d14",
    "d12",
    "outer_defect",
    "inner_defect",
)


def load_config(path: str | Path) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments are skipped."""
    config: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _parse_etas(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"no eta values in {text!r}")
    for v in values:
        _check_eta(v)
    return values


def _stripe_profile(n: int, stripes: int) -> np.ndarray:
    """Alternating +-1 profile with the given number of equal stripes."""
    if stripes < 1 or n % stripes != 0:
        raise ValueError(f"stripe count {stripes} must divide the resolution {n}")
    signs = np.resize([1.0, -1.0], stripes)
    return np.repeat(signs, n // stripes)


class _Resolver:
    """Merge CLI flags, config-file entries and defaults, recording each input
    read in ``resolved`` and each value a generator derives in ``derived``.

    A config key outside ``args.inputs``, the keys the command reads, is
    refused by name; a key only another kind reads is accepted, so one config
    can serve several kinds.
    """

    def __init__(self, args: argparse.Namespace, config: Mapping[str, str]):
        for key in sorted(config):
            if key not in args.inputs:
                raise ValueError(
                    f"unknown config key {key!r}; choose from {', '.join(sorted(args.inputs))}"
                )
        self.args = args
        self.config = config
        self.resolved: dict[str, str] = {}
        self.derived: dict[str, str] = {}

    def get(self, key: str, default, convert: Callable = str):
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            raw = self.config.get(key)
            try:
                value = default if raw is None else convert(raw)
            except ValueError as exc:
                raise ValueError(f"{key}={raw!r}: {exc}") from None
        if value is not None:
            self.resolved[key] = repr(value) if isinstance(value, float) else str(value)
        return value


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {', '.join(KINDS)}")


def _generate_field(kind: str, res: _Resolver, eta: float | None = None) -> PhaseField:
    """The field of ``kind``, one of ``KINDS``; a given ``eta``, a sweep row's,
    replaces the branching input."""
    grid_n = res.get("grid", 128, int)
    if kind == "branching":
        if eta is None:
            eta = res.get("eta", 1e-2, float)
        mu = res.get("mu", 0.25, float)
        lam = res.get("lam", 0.25, float)
        beta = res.get("beta", 1.5, float)
        params, grid = plan_branching(eta, mu=mu, lam=lam, beta=beta, max_grid=grid_n)
        res.derived.update({"n-gen": str(params.N), "w1": repr(params.w1), "grid": str(grid.n1)})
        return gen_branching(params, grid)
    grid = Grid(grid_n, grid_n)
    if kind == "constant":
        return gen_constant(res.get("phase", 1, int), grid)
    if kind == "laminate":
        axis = res.get("axis", "y1")
        stripes = res.get("stripes", 2, int)
        return gen_laminate(axis, _stripe_profile(grid_n, stripes), grid)
    if kind == "crossing-twin":
        axis = res.get("axis", "y1")
        stripes = res.get("stripes", 2, int)
        g_stripes = res.get("g-stripes", 8, int)
        return gen_crossing_twin(
            axis, _stripe_profile(grid_n, stripes), _stripe_profile(grid_n, g_stripes), grid
        )
    if kind == "counterexample":
        return gen_counterexample(res.get("k", 2, int), grid)
    _check_kind(kind)  # random is the one kind left
    seed = res.get("seed", 0, int)
    scale = res.get("feature-scale", 0.125, float)
    return gen_random_partition(seed, grid, feature_scale=scale)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else {}
    res = _Resolver(args, config)
    field = _generate_field(args.kind, res)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = args.name or args.kind
    header = {**res.resolved, **res.derived, "kind": args.kind}
    write_phase_field(out_dir / f"{name}.field", field, header)
    write_pgm(out_dir / f"{name}.pgm", field)
    print(out_dir / f"{name}.field")
    return 0


def _cmd_price(args: argparse.Namespace) -> int:
    """``energy`` and ``report``: price a stored field with ``args.price``."""
    field, _ = read_phase_field(args.field)
    text = args.price(field, args.eta).to_json()
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
    print(text)
    return 0


def _sweep_rows(field: PhaseField, etas: list[float]) -> list[dict[str, float]]:
    """One row per eta; everything but the eta weighting is computed once."""
    outer, inner, theta, d14, d12 = _label_measures(field)
    elastic = _relaxed_from_labels(field)
    surface = surface_energy(field)
    shared = (*theta, d14, d12, outer.defect_l1, inner.defect_l2)
    return [
        dict(zip(SWEEP_COLUMNS, (b.eta, b.elastic, b.surface, b.total, *shared), strict=True))
        for b in (_weighted(eta, elastic, surface) for eta in etas)
    ]


def _fit_slope(rows: list[dict[str, float]], column: str) -> float:
    pairs = [
        (math.log10(r["E"]), math.log10(r[column]))
        for r in rows
        if r["E"] > 0.0 and r[column] > 0.0
    ]
    if len(pairs) < 2:
        return float("nan")
    x, y = np.array(pairs).T
    if np.allclose(x, x[0]):
        return float("nan")
    dx = x - x.mean()
    return float((dx * (y - y.mean())).sum() / (dx * dx).sum())


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else {}
    for override in args.set or []:
        if "=" not in override:
            raise ValueError(f"--set expects key=value, got {override!r}")
        key, value = override.split("=", 1)
        config[key.strip()] = value.strip()

    res = _Resolver(args, config)
    kinds_text = res.get("kinds", "laminate,crossing-twin,branching")
    etas_text = res.get("etas", None)
    if etas_text is None:
        raise ValueError("sweep needs an eta list: pass --etas or put etas= in the config")
    etas = _parse_etas(str(etas_text))
    kinds = [k.strip() for k in str(kinds_text).split(",") if k.strip()]
    if not kinds:
        raise ValueError(f"no generator kinds in {kinds_text!r}")
    for kind in kinds:
        _check_kind(kind)

    # One resolver records every generator input read; a branching row's eta
    # and what the planner derives from it are per row, and left out.
    rows = []
    for kind in kinds:
        if kind == "branching":
            for eta in etas:
                rows += _sweep_rows(_generate_field(kind, res, eta), [eta])
        else:
            rows += _sweep_rows(_generate_field(kind, res), etas)

    res.resolved["kinds"] = ",".join(kinds)
    res.resolved["etas"] = ",".join(repr(e) for e in etas)
    lines = ["# columns: " + ",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(float(row[c])) for c in SWEEP_COLUMNS))
    for column in ("outer_defect", "d14", "d12"):
        lines.append(f"# fit_slope_{column}={repr(_fit_slope(rows, column))}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    path.write_text(_header_lines(res.resolved) + "\n".join(lines) + "\n")
    print(path)
    return 0


#: Fine stripes of the verify twin check; every other verify profile divides it.
_TWIN_FINE_STRIPES = 8


def _random_field(rng: np.random.Generator, grid: Grid) -> PhaseField:
    return PhaseField(grid, rng.integers(1, 5, size=grid.shape))


def _verify_checks(grid_n: int, seed: int):
    rng = _rng(seed)
    grid = Grid(grid_n, grid_n)

    def check_multiplier_oracle():
        worst = 0.0
        for _ in range(5):
            p = _random_field(rng, grid)
            a = _relaxed_from_labels(p)
            b = permode_elastic_oracle(to_modified(p))
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
        return worst <= 1e-10, f"max rel gap {worst:.2e}"

    def check_laminate_energy():
        profile = _stripe_profile(grid_n, 4)
        worst = max(
            _relaxed_from_labels(gen_laminate("y1", profile, grid)),
            _relaxed_from_labels(gen_laminate("y2", profile, grid)),
        )
        return worst <= 1e-12, f"max laminate energy {worst:.2e}"

    def check_projection_curl():
        worst = 0.0
        for _ in range(5):
            w = VectorField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
            a = leray_project(w).l2_norm()
            b = curl_neg_sobolev(w)
            worst = max(worst, abs(a - b) / max(b, 1e-300))
        return worst <= 1e-10, f"max rel gap {worst:.2e}"

    def check_twin_defects():
        f = _stripe_profile(grid_n, 2)
        g = _stripe_profile(grid_n, _TWIN_FINE_STRIPES)
        worst = 0.0
        for axis, which in (("y1", 0), ("y2", 1)):
            field = gen_crossing_twin(axis, f, g, grid)
            outer, inner, _, *gaps = _label_measures(field)
            worst = max(worst, outer.defect_l1, inner.defect_l2, gaps[which])
        return worst == 0.0, f"max defect {worst:.2e}"

    def check_wave_residual():
        worst_margin = -np.inf
        ok = True
        for _ in range(3):
            f = ScalarField(grid, rng.standard_normal(grid.shape))
            _, _, residual = wave_decompose(f)
            sup_mixed = mixed_difference_sup(f)
            ok = ok and residual <= 4.0 * sup_mixed + 1e-12
            worst_margin = max(worst_margin, residual - 4.0 * sup_mixed)
        return ok, f"worst residual minus bound {worst_margin:.2e}"

    def check_zigzag_gradient():
        pot = zigzag_potential(2, Grid(32, 32))
        gap = float(np.abs(np.abs(pot.grad_s) - 0.5).max())
        return gap == 0.0, f"max |grad_s| deviation {gap:.2e}"

    return [
        ("multiplier-oracle", check_multiplier_oracle),
        ("laminate-zero-energy", check_laminate_energy),
        ("projection-curl-identity", check_projection_curl),
        ("twin-defects-vanish", check_twin_defects),
        ("wave-residual-bound", check_wave_residual),
        ("zigzag-gradient", check_zigzag_gradient),
    ]


def _cmd_verify(args: argparse.Namespace) -> int:
    grid_n = args.grid if args.grid is not None else 32
    if grid_n < _TWIN_FINE_STRIPES or grid_n % _TWIN_FINE_STRIPES:
        raise ValueError(
            f"verify --grid must be a positive multiple of {_TWIN_FINE_STRIPES}, got {grid_n}"
        )
    seed = args.seed if args.seed is not None else 0
    failures = 0
    for name, check in _verify_checks(grid_n, seed):
        passed, detail = check()
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
        if not passed:
            failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourwell",
        description="Generate, price and diagnose four-phase microstructures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="rasterize a microstructure to disk")
    gen.add_argument("kind", choices=KINDS)
    gen.add_argument("--out", default=".", help="output directory")
    gen.add_argument("--name", help="output basename (default: the kind)")
    gen.add_argument("--config", help="flat key=value config file")
    # Generator inputs: each may also be given as a config key.
    inputs = [
        gen.add_argument("--grid", type=int, help="cells per side (branching: grid cap)"),
        gen.add_argument("--seed", type=int, help="seed for the random kind"),
        gen.add_argument("--phase", type=int, help="constant: phase label 1..4"),
        gen.add_argument("--axis", choices=("y1", "y2"), help="laminate axis"),
        gen.add_argument("--stripes", type=int, help="coarse stripe count"),
        gen.add_argument("--g-stripes", type=int, help="crossing-twin: fine stripe count"),
        gen.add_argument("--eta", type=float, help="branching: energy ratio to plan for"),
        gen.add_argument("--mu", type=float, help="branching: minority fraction"),
        gen.add_argument("--lam", type=float, help="branching: lower band height"),
        gen.add_argument("--beta", type=float, help="branching: height decay exponent"),
        gen.add_argument("--k", type=int, help="counterexample: oscillation index"),
        gen.add_argument("--feature-scale", type=float, help="random: block size"),
    ]
    input_keys = frozenset(action.option_strings[0][2:] for action in inputs)
    gen.set_defaults(func=_cmd_generate, inputs=input_keys)

    for name, summary, price in (
        ("energy", "energy breakdown of a stored field", total_energy),
        ("report", "full rigidity diagnostics of a stored field", rigidity_report),
    ):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("field", help="path to a .field file")
        cmd.add_argument("--eta", type=float, required=True)
        cmd.add_argument("--json-out", help="also write the JSON here")
        cmd.set_defaults(func=_cmd_price, price=price)

    sw = sub.add_parser("sweep", help="tabulate energies and defects over eta")
    sw.add_argument("--config", help="flat key=value config file")
    sw.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config entry")
    sw.add_argument("--etas", help="comma-separated eta list")
    sw.add_argument("--kinds", help="comma-separated generator kinds")
    sw.add_argument("--grid", type=int, help="cells per side (branching: grid cap)")
    sw.add_argument("--seed", type=int, help="seed for the random kind")
    sw.add_argument("--out", default=".", help="output directory")
    sw.set_defaults(func=_cmd_sweep, inputs=input_keys - {"eta"} | {"kinds", "etas"})

    ver = sub.add_parser("verify", help="run built-in self-checks")
    ver.add_argument(
        "--grid",
        type=int,
        help=f"check resolution, a positive multiple of {_TWIN_FINE_STRIPES} (default 32)",
    )
    ver.add_argument("--seed", type=int, help="seed for randomized checks (default 0)")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
