"""Acceptance gates: ten end-to-end guarantees, one test per gate.

Every test states its tolerance inline and exercises the public API the
way a downstream user would (generators in, energies and reports out).
The shared conftest prints a one-line PASS/FAIL verdict per gate after
the run.  Fitted constants and flagged values are printed so a failing
fit can be read off the log directly.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fourwell.cli import main
from fourwell.energy import (
    interpolation_gap,
    relaxed_elastic_energy,
    total_energy,
)
from fourwell.fields import (
    Grid,
    ModifiedIndicators,
    PhaseField,
    ScalarField,
    VectorField,
    from_modified,
    read_phase_field,
    shear_resample,
    to_modified,
)
from fourwell.microstructures import (
    branching_bound,
    gen_branching,
    gen_counterexample,
    gen_crossing_twin,
    gen_laminate,
    gen_random_partition,
    plan_branching,
    zigzag_potential,
)
from fourwell.rigidity import (
    extract_outer,
    incompatibility_defect,
    mixed_difference_sup,
    rigidity_report,
    wave_decompose,
)
from fourwell.spectral import curl_neg_sobolev, leray_project, permode_elastic_oracle

from whole_array import stripe_profile


def random_indicators(rng, grid):
    labels = rng.integers(1, 5, size=grid.shape)
    return to_modified(PhaseField(grid, labels))


def sheared(p, amplitude):
    """Shift every column of all three indicators by a cosine staircase.

    The same integer shift is applied to the whole column, so the
    admissible-tuple property survives cell by cell.
    """
    m = to_modified(p)
    grid = p.grid
    wave = np.cos(2.0 * np.pi * grid.axis_coords(1))
    shifts = np.rint(amplitude * grid.n1 * wave).astype(np.int64)
    parts = [shear_resample(c.T, shifts).T for c in (m.chi1t, m.chi2t, m.chi3t)]
    return from_modified(ModifiedIndicators(grid, *parts))


def fitted_slope(energies, defects):
    """The least-squares slope of log defect against log energy, in the closed
    form ``cli._fit_slope`` takes."""
    x = np.log(np.asarray(energies))
    y = np.log(np.asarray(defects))
    dx = x - x.mean()
    return float((dx * (y - y.mean())).sum() / (dx * dx).sum())


def test_criterion_01_multiplier_identity():
    rng = np.random.default_rng(20260818)
    start = time.perf_counter()
    worst = 0.0
    for grid_n, repeats in ((32, 50), (64, 10)):
        grid = Grid(grid_n, grid_n)
        for _ in range(repeats):
            m = random_indicators(rng, grid)
            closed = relaxed_elastic_energy(m)
            oracle = permode_elastic_oracle(m)
            worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    print(f"multiplier vs oracle: worst relative gap {worst:.3e} in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_02_compatibility_zeros():
    for axis, n in (("y1", 128), ("y2", 128)):
        grid = Grid(n, n)
        lam = gen_laminate(axis, stripe_profile(n, 4), grid)
        assert relaxed_elastic_energy(to_modified(lam)) <= 1e-12

    elastic = []
    for n in (128, 256, 512):
        grid = Grid(n, n)
        twin = gen_crossing_twin("y1", stripe_profile(n, 2), stripe_profile(n, 8), grid)
        elastic.append(relaxed_elastic_energy(to_modified(twin)))
    print(f"twin elastic under refinement: {elastic}")
    assert elastic[0] > elastic[1] > elastic[2]
    assert elastic[2] <= elastic[0]


def test_criterion_03_branching_bound():
    totals = []
    for eta in (1e-2, 1e-3, 1e-4):
        params, grid = plan_branching(eta)
        assert grid.n1 <= 2048 and grid.n2 <= 2048
        breakdown = total_energy(gen_branching(params, grid), eta)
        totals.append(breakdown.total)
        scaled_elastic = breakdown.elastic / np.cbrt(eta) ** 2
        bound = branching_bound(params)
        print(
            f"eta={eta:g}: grid {grid.n1}, total {breakdown.total:.4f}, "
            f"weighted elastic {scaled_elastic:.4f}, bound {bound:.4f}"
        )
        assert scaled_elastic <= 10.0 * bound
    ratio = max(totals) / min(totals)
    print(f"total-energy collapse: max/min = {ratio:.4f}")
    assert ratio <= 3.0


def test_criterion_04_exact_fractions():
    params, grid = plan_branching(1e-2)
    field = gen_branching(params, grid)
    cells = grid.n1 * grid.n2
    theta = tuple(
        Fraction(int(np.count_nonzero(field.labels == phase)), cells)
        for phase in (1, 2, 3, 4)
    )
    mu, lam = Fraction(1, 4), Fraction(1, 4)
    assert theta == (mu * (1 - lam), mu * lam, (1 - mu) * lam, (1 - mu) * (1 - lam))

    d14, d12 = incompatibility_defect(theta)
    assert d14 == lam * (1 - lam) * abs(1 - 2 * mu) == Fraction(3, 32)
    assert d12 == mu * (1 - mu) * abs(1 - 2 * lam) == Fraction(3, 32)

    # Largest defect with both fractions equal: at m = (3 - sqrt(3)) / 6 the
    # product m(1-m)(1-2m) reaches sqrt(3)/18, not the reference values 3/16
    # or 1/5.  Flagged here and pinned against the closed form.
    m = (3.0 - math.sqrt(3.0)) / 6.0
    theta_m = (m * (1.0 - m), m * m, (1.0 - m) * m, (1.0 - m) * (1.0 - m))
    peak, _ = incompatibility_defect(theta_m)
    print(
        f"equal-fraction defect maximum {peak:.6f} = sqrt(3)/18; "
        f"reference values 3/16 = {3 / 16} and 1/5 = {1 / 5} are not attained"
    )
    assert peak == pytest.approx(math.sqrt(3.0) / 18.0, rel=1e-12)
    assert peak >= 0.09
    assert abs(peak - 3.0 / 16.0) > 0.09
    assert abs(peak - 1.0 / 5.0) > 0.09


def test_criterion_05_zigzag_concentration():
    for k in (2, 4, 8):
        grid = Grid(8 * k * k, 8 * k * k)
        m = to_modified(gen_counterexample(k, grid))
        pot = zigzag_potential(k, grid)
        assert np.array_equal(m.chi1t, pot.grad_t)
        slow_slope = math.sqrt(float(np.mean(pot.grad_s**2)))
        potential = math.sqrt(float(np.mean(pot.values**2)))
        assert slow_slope <= 1.05 / k
        assert potential <= 1.05 / k**2

        column_mean = m.chi1t.mean(axis=0)
        best_gap = float(np.mean((m.chi1t - column_mean[None, :]) ** 2))
        print(f"k={k}: profile distance^2 {best_gap:.4f}")
        assert best_gap >= 1.0 / 64.0


def test_criterion_06_projection_identities():
    rng = np.random.default_rng(7)
    grid = Grid(64, 64)
    worst_curl = 0.0
    worst_split = 0.0
    for _ in range(50):
        w = VectorField(
            grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        )
        projected = leray_project(w)
        identity = curl_neg_sobolev(w)
        worst_curl = max(
            worst_curl, abs(projected.l2_norm() - identity) / identity
        )

        mean1 = float(w.v1.mean())
        mean2 = float(w.v2.mean())
        rest = VectorField(
            grid, w.v1 - mean1 - projected.v1, w.v2 - mean2 - projected.v2
        )
        lhs = w.l2_norm() ** 2
        rhs = mean1**2 + mean2**2 + projected.l2_norm() ** 2 + rest.l2_norm() ** 2
        worst_split = max(worst_split, abs(lhs - rhs) / lhs)
    print(f"curl identity worst {worst_curl:.3e}, split identity worst {worst_split:.3e}")
    assert worst_curl <= 1e-10
    assert worst_split <= 1e-10


def test_criterion_07_rigidity_scaling():
    eta = 1e-9

    lam_grid = Grid(1024, 1024)
    laminate = gen_laminate("y1", stripe_profile(1024, 8), lam_grid)
    energies, outer_defects = [], []
    for amplitude in np.geomspace(0.002, 0.2, 9):
        p = sheared(laminate, amplitude)
        energies.append(total_energy(p, eta).total)
        outer_defects.append(extract_outer(p).defect_l1)

    twin_grid = Grid(512, 512)
    twin = gen_crossing_twin(
        "y1", stripe_profile(512, 2), stripe_profile(512, 8), twin_grid
    )
    twin_energies, residuals = [], []
    for cells in (2, 3, 5, 8, 13, 21, 34, 55, 102):
        report = rigidity_report(sheared(twin, cells / 512.0), eta)
        energies.append(report.energy.total)
        outer_defects.append(report.outer.defect_l1)
        twin_energies.append(report.energy.total)
        residuals.append(report.char_residual)

    outer_slope = fitted_slope(energies, outer_defects)
    print(f"outer defect vs energy: slope {outer_slope:.4f} over {len(energies)} fields")
    assert 0.35 <= outer_slope <= 0.65

    residual_slope = fitted_slope(twin_energies, residuals)
    envelopes = np.asarray(residuals) / np.asarray(twin_energies) ** residual_slope
    spread_lo = float(envelopes.min() / np.median(envelopes))
    spread_hi = float(envelopes.max() / np.median(envelopes))
    print(
        f"transport residual vs energy: slope {residual_slope:.4f}, "
        f"envelope C in [{spread_lo:.3f}, {spread_hi:.3f}] of the median"
    )
    assert 0.15 <= residual_slope <= 0.45
    assert np.all(np.isfinite(envelopes)) and np.all(envelopes > 0.0)
    assert spread_lo >= 0.5 and spread_hi <= 1.5


def test_criterion_08_wave_inequality():
    grid = Grid(64, 64)
    params, small_grid = plan_branching(1.0, max_grid=64)
    suite = {
        "laminate-y1": gen_laminate("y1", stripe_profile(64, 4), grid),
        "laminate-y2": gen_laminate("y2", stripe_profile(64, 2), grid),
        "twin-y1": gen_crossing_twin(
            "y1", stripe_profile(64, 2), stripe_profile(64, 8), grid
        ),
        "twin-y2": gen_crossing_twin(
            "y2", stripe_profile(64, 2), stripe_profile(64, 8), grid
        ),
        "branching": gen_branching(params, small_grid),
        "zigzag": gen_counterexample(2, grid),
        "random": gen_random_partition(3, grid),
    }

    violations = 0
    worst_ratio = 0.0
    for name, field in suite.items():
        m = to_modified(field)
        for values in (m.chi1t, m.chi2t, m.chi3t):
            f = ScalarField(field.grid, values)
            _, _, residual = wave_decompose(f)
            sup_mixed = mixed_difference_sup(f)
            if residual > 4.0 * sup_mixed + 1e-12:
                violations += 1
            if sup_mixed > 0.0:
                worst_ratio = max(worst_ratio, residual / (4.0 * sup_mixed))
    print(f"wave inequality: worst residual/bound {worst_ratio:.4f}")
    assert violations == 0


def test_criterion_09_interpolation_constant():
    n = 64
    grid = Grid(n, n)
    y1 = grid.axis_coords(0)[:, None]
    y2 = grid.axis_coords(1)[None, :]

    rng = np.random.default_rng(5)
    spectrum = np.fft.fft2(rng.standard_normal(grid.shape))
    k1 = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    k2 = np.fft.fftfreq(n, d=1.0 / n)[None, :]
    keep = (np.abs(k1) <= 6) & (np.abs(k2) <= 6) & ((k1 != 0) | (k2 != 0))
    smooth = np.fft.ifft2(np.where(keep, spectrum, 0.0)).real
    smooth /= np.abs(smooth).max()

    suite = {
        "cos-1": np.cos(2.0 * np.pi * y1) + 0.0 * y2,
        "cos-3": np.cos(6.0 * np.pi * y1) + 0.0 * y2,
        "product": np.cos(2.0 * np.pi * y1) * np.cos(2.0 * np.pi * y2),
        "smooth-random": smooth,
        "stripe-2": np.broadcast_to(stripe_profile(n, 2)[:, None], grid.shape).copy(),
        "stripe-8": np.broadcast_to(stripe_profile(n, 8)[:, None], grid.shape).copy(),
    }

    etas = (1.0, 1e-2)
    cube1, cube2 = (float(np.cbrt(e)) for e in etas)
    pooled = {eta: 0.0 for eta in etas}
    balanced = {eta: 0.0 for eta in etas}
    for name, values in suite.items():
        f = ScalarField(grid, values)
        lhs, rhs1, ratio1 = interpolation_gap(f, etas[0])
        _, rhs2, ratio2 = interpolation_gap(f, etas[1])
        pooled[etas[0]] = max(pooled[etas[0]], ratio1)
        pooled[etas[1]] = max(pooled[etas[1]], ratio2)

        # Undo the weights: recover the two raw terms from the two weighted
        # sums, then measure lhs against the weight-free balanced product.
        grad_term, drift_term = np.linalg.solve(
            [[cube1, 1.0 / cube1**2], [cube2, 1.0 / cube2**2]], [rhs1, rhs2]
        )
        assert grad_term > 0.0 and drift_term > 0.0
        for eta, cube in zip(etas, (cube1, cube2)):
            weighted = ((cube * grad_term) ** 2 * (drift_term / cube**2)) ** (1.0 / 3.0)
            balanced[eta] = max(balanced[eta], lhs / weighted)
        if name == "stripe-2":
            assert drift_term == pytest.approx(1.0 / 48.0, rel=5e-3)

    fitted = max(pooled.values())
    print(
        f"interpolation constant: fitted C {fitted:.4f} "
        f"(per eta {pooled[1.0]:.4f} / {pooled[1e-2]:.4f}), "
        f"balanced C {balanced[1.0]:.4f} / {balanced[1e-2]:.4f}"
    )
    for eta in etas:
        assert pooled[eta] <= fitted
    assert fitted <= 2.0
    gap = abs(balanced[etas[0]] - balanced[etas[1]])
    assert gap <= 0.2 * max(balanced.values())


def test_criterion_10_roundtrip_determinism(tmp_path):
    small = Grid(2, 2)
    admissible = {}
    for phase in (1, 2, 3, 4):
        m = to_modified(PhaseField(small, np.full((2, 2), phase, dtype=np.int64)))
        triple = (float(m.chi1t[0, 0]), float(m.chi2t[0, 0]), float(m.chi3t[0, 0]))
        back = from_modified(m)
        assert np.all(back.labels == phase)
        admissible[triple] = phase
    assert len(admissible) == 4

    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            for s3 in (-1.0, 1.0):
                if (s1, s2, s3) in admissible:
                    continue
                m = ModifiedIndicators(
                    small, np.full((2, 2), s1), np.full((2, 2), s2), np.full((2, 2), s3)
                )
                with pytest.raises(ValueError, match="inadmissible"):
                    from_modified(m)

    cases = {
        "constant": ["--phase", "3", "--grid", "32"],
        "laminate": ["--axis", "y2", "--stripes", "4", "--grid", "64"],
        "crossing-twin": ["--stripes", "2", "--g-stripes", "8", "--grid", "64"],
        "counterexample": ["--k", "2", "--grid", "64"],
        "random": ["--seed", "9", "--feature-scale", "0.25", "--grid", "64"],
        "branching": ["--eta", "0.01", "--grid", "128"],
    }
    derived = {"kind", "n1", "n2", "n-gen", "w1"}
    for kind, flags in cases.items():
        first = tmp_path / f"{kind}-first"
        again = tmp_path / f"{kind}-again"
        assert main(["generate", kind, "--out", str(first), "--name", "f"] + flags) == 0
        _, header = read_phase_field(first / "f.field")

        argv = ["generate", header["kind"], "--out", str(again), "--name", "f"]
        for key in sorted(header):
            if key not in derived:
                argv += [f"--{key}", header[key]]
        assert main(argv) == 0
        assert (again / "f.field").read_bytes() == (first / "f.field").read_bytes()
        assert (again / "f.pgm").read_bytes() == (first / "f.pgm").read_bytes()
