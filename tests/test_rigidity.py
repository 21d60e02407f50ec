"""Tests for the twin-likeness diagnostics."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourwell.energy import relaxed_elastic_energy, surface_energy, total_energy
from fourwell.fields import (
    Grid,
    ModifiedIndicators,
    PhaseField,
    ScalarField,
    VectorField,
    _frame,
    _from_signs,
    from_modified,
    shear_resample,
    to_modified,
)
from fourwell.microstructures import (
    gen_constant,
    gen_counterexample,
    gen_crossing_twin,
    gen_laminate,
    gen_random_partition,
    staircase_shifts,
)
from fourwell.rigidity import (
    OuterProfile,
    characteristic_residual,
    extract_inner,
    extract_outer,
    incompatibility_defect,
    mixed_difference_sup,
    rigidity_report,
    wave_decompose,
)
from fourwell.spectral import _SLAB_COLS, _cut, helmholtz_potential, permode_elastic_oracle

import whole_array
from whole_array import stripe_profile


def coords(grid):
    return grid.axis_coords(0)[:, None], grid.axis_coords(1)[None, :]


def full_offset_mixed_sup(v):
    """Oracle: the mixed-difference mass over every offset pair, h = 0 included."""
    sup_mixed = 0.0
    for h1 in range(v.shape[0]):
        d1 = np.roll(v, -h1, axis=0) - v
        for h2 in range(v.shape[1]):
            mass = float(np.abs(np.roll(d1, -h2, axis=1) - d1).mean())
            sup_mixed = max(sup_mixed, mass)
    return sup_mixed


class TestExtractOuter:
    @pytest.mark.parametrize("axis", ["y1", "y2"])
    def test_laminate_is_recovered_exactly(self, axis):
        grid = Grid(16, 16)
        profile = stripe_profile(16, 4)
        outer = extract_outer(gen_laminate(axis, profile, grid))
        assert outer.axis == axis
        assert outer.defect_l1 == 0.0
        assert np.array_equal(outer.f, profile)

    def test_tie_prefers_the_first_axis(self):
        grid = Grid(8, 8)
        outer = extract_outer(gen_laminate("y1", np.ones(8), grid))
        assert outer.axis == "y1"
        assert outer.defect_l1 == 0.0

    def test_crossing_twin_keeps_the_coarse_direction(self):
        grid = Grid(64, 64)
        f = stripe_profile(64, 2)
        p = gen_crossing_twin("y1", f, stripe_profile(64, 8), grid)
        outer = extract_outer(p)
        assert outer.axis == "y1"
        assert outer.defect_l1 == 0.0
        assert np.array_equal(outer.f, f)
        assert np.all(outer.F == np.rint(outer.F))

    @pytest.mark.parametrize("transpose", [False, True], ids=["y2", "y1"])
    def test_profiles_keep_only_sums(self, transpose, float_fields_peak):
        """Both extractors read the labels a row block at a time and keep row
        and column sums: no slot, pull-back or full-size misfit is made."""
        grid = Grid(512, 512)
        p = gen_random_partition(1, grid, feature_scale=0.01)
        if transpose:
            p = PhaseField(grid, np.ascontiguousarray(p.labels.T))
        assert extract_outer(p).axis == ("y1" if transpose else "y2")
        peak = float_fields_peak(lambda: extract_inner(p, extract_outer(p)), grid)
        assert peak <= 0.45


class TestExtractInner:
    @pytest.mark.parametrize("axis", ["y1", "y2"])
    def test_twin_has_no_inner_defect(self, axis):
        grid = Grid(64, 64)
        g_profile = stripe_profile(64, 8)
        p = gen_crossing_twin(axis, stripe_profile(64, 2), g_profile, grid)
        outer = extract_outer(p)
        inner = extract_inner(p, outer)
        assert inner.defect_l2 == 0.0
        assert inner.defect_chi2 == 0.0
        assert np.array_equal(inner.g, g_profile)

    @pytest.mark.parametrize("F", [np.full(8, 0.25), np.zeros(8)], ids=["off-grid", "unsheared"])
    def test_reads_the_shear_from_f(self, F):
        """The shear is read from f in exact integers, not from the reported
        F, so an F that disagrees with f, off the grid or not, changes nothing."""
        g = stripe_profile(8, 4)
        p = gen_crossing_twin("y1", stripe_profile(8, 2), g, Grid(8, 8))
        outer = extract_outer(p)
        assert outer.F.tolist() == [-4, -3, -2, -1, 0, -1, -2, -3]
        inner = extract_inner(p, dataclasses.replace(outer, F=F))
        assert np.array_equal(inner.g, g)
        assert inner.defect_l2 == 0.0 and inner.defect_chi2 == 0.0

    def test_rejects_fractional_shear(self):
        # A half cell past 100000 cells is no closer to whole for being far out.
        labels = np.repeat(np.array([[1], [2]], dtype=np.uint8), 200001, axis=1)
        wide = PhaseField(Grid(2, 200001), labels)
        outer = extract_outer(wide)
        assert outer.axis == "y1" and list(outer.F) == [-100000.5, 0.0]
        with pytest.raises(ValueError, match="grid-aligned"):
            extract_inner(wide, outer)

    def test_refusal_names_the_row_furthest_from_whole_cells(self):
        """On 8x10 the shear steps 1.25 cells a row: F is 0, 1.25, 0, 1.25, 0,
        1.25, 2.5, 3.75, so row 6 misses whole cells by most, neither row 0
        nor row 7, the largest shear."""
        f = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        p = gen_laminate("y1", f, Grid(8, 10))
        outer = extract_outer(p)
        assert outer.axis == "y1" and outer.F.tolist() == [0, 1.25, 0, 1.25, 0, 1.25, 2.5, 3.75]
        message = (
            r"^shear profile is not grid-aligned on the 8x10 grid: "
            r"F\[6\] = 2\.5 is not a whole number of cells$"
        )
        with pytest.raises(ValueError, match=message):
            extract_inner(p, outer)
        with pytest.raises(ValueError, match=message):
            rigidity_report(p, 1e-2)


def reference_cases():
    """The extractor tests' fields, and random fields on odd, even and
    non-square grids, each as drawn and transposed, so both frames run; some
    shears are not grid-aligned."""
    twin = Grid(64, 64)
    cases = [
        pytest.param(gen_laminate("y1", np.ones(8), Grid(8, 8)), id="tie"),
        pytest.param(gen_counterexample(3, Grid(96, 96)), id="counterexample-k3"),
    ]
    for axis in ("y1", "y2"):
        p = gen_laminate(axis, stripe_profile(16, 4), Grid(16, 16))
        cases.append(pytest.param(p, id=f"laminate-{axis}"))
        p = gen_crossing_twin(axis, stripe_profile(64, 2), stripe_profile(64, 8), twin)
        cases.append(pytest.param(p, id=f"twin-{axis}"))
    for shape in ((9, 9), (33, 33), (12, 12), (64, 64), (32, 64), (64, 32), (7, 14), (15, 10)):
        for seed in range(3):
            random = gen_random_partition(seed, Grid(*shape), feature_scale=0.1)
            uniform = np.random.default_rng(seed).integers(1, 5, size=shape)
            for kind, labels in (("random", random.labels), ("uniform", uniform)):
                for t, view in (("", labels), ("-T", labels.T)):
                    p = PhaseField(Grid(*view.shape), view)
                    cases.append(pytest.param(p, id=f"{kind}-{shape[0]}x{shape[1]}-{seed}{t}"))
    # Three row blocks of labels each, with shears of both signs that wrap
    # past n_trans.
    for n, g_stripes in ((130, 10), (192, 8)):
        grid = Grid(n, n)
        drawn = {
            f"random-{n}-{seed}": gen_random_partition(seed, grid, feature_scale=0.1)
            for seed in range(2)
        }
        drawn[f"twin-{n}"] = gen_crossing_twin(
            "y1", stripe_profile(n, 2), stripe_profile(n, g_stripes), grid
        )
        for name, p in drawn.items():
            cases.append(pytest.param(p, id=name))
            cases.append(pytest.param(PhaseField(grid, p.labels.T), id=f"{name}-T"))
    return cases


class TestReferenceProfiles:
    """The extractors' integer sums against the pull-back reference: axis, f,
    F, g and the outer defect equal, the inner defects to rounding, and the
    same refusal where the staircase is not grid-aligned."""

    @pytest.mark.parametrize("p", reference_cases())
    def test_matches_the_pull_back(self, p):
        want_outer, want_inner = whole_array.profiles(to_modified(p))
        outer = extract_outer(p)
        assert plain(outer) == plain(want_outer)
        if want_inner is None:
            with pytest.raises(ValueError, match="grid-aligned"):
                extract_inner(p, outer)
            return
        inner = extract_inner(p, outer)
        assert inner.g.tolist() == want_inner.g.tolist()
        for name in ("defect_l2", "defect_chi2"):
            want = getattr(want_inner, name)
            assert abs(getattr(inner, name) - want) <= 5e-16 * want, name

    def test_cases_cover_both_axes_and_refusals(self):
        outcomes = set()
        for case in reference_cases():
            outer, inner = whole_array.profiles(to_modified(case.values[0]))
            outcomes.add((outer.axis, inner is None))
        assert outcomes == {(axis, refused) for axis in ("y1", "y2") for refused in (False, True)}

    @pytest.mark.parametrize(
        "p, transpose",
        [
            (gen_counterexample(3, Grid(96, 96)), False),
            (gen_random_partition(5, Grid(9, 9), feature_scale=0.1), False),
            (gen_random_partition(4, Grid(12, 12), feature_scale=0.1), True),
            (gen_random_partition(0, Grid(33, 33), feature_scale=0.1), False),
            (gen_random_partition(0, Grid(33, 33), feature_scale=0.1), True),
        ],
        ids=["counterexample-k3", "random-9", "random-12-T", "random-33", "random-33-T"],
    )
    def test_inner_defects_are_exactly_rounded_ratios(self, p, transpose):
        """Each mean-square inner defect is its integer ratio over
        D = n_along^2 n_trans rounded once; the sums here come from the
        slots pulled back along the staircase."""
        if transpose:
            p = PhaseField(p.grid, p.labels.T)
        report = rigidity_report(p, 1e-2)
        outer, m = report.outer, to_modified(p)
        frame = m if outer.axis == "y1" else whole_array._transposed(m)
        shifts = -np.rint(outer.F).astype(np.int64)
        S = [int(s) for s in shear_resample(frame.chi1t, shifts).sum(axis=0, dtype=np.int64)]
        signed = outer.f[:, None] * shear_resample(frame.chi2t, shifts)
        H = [int(h) for h in signed.sum(axis=0)]
        n_along, n_trans = frame.grid.shape
        D = n_along**2 * n_trans
        SS = sum(s * s for s in S)
        SH = sum(s * h for s, h in zip(S, H))
        assert report.inner.defect_l2 == float(Fraction(D - SS, D))
        assert report.inner.defect_chi2 == math.sqrt(float(Fraction(D - 2 * SH + SS, D)))


class TestWaveDecompose:
    def test_separable_fields_split_exactly(self):
        grid = Grid(16, 24)
        rng = np.random.default_rng(2)
        a = rng.standard_normal(16)
        b = rng.standard_normal(24)
        f = ScalarField(grid, a[:, None] + b[None, :])
        g1, g2, residual = wave_decompose(f)
        assert residual <= 1e-14
        assert_allclose(g1[:, None] + g2[None, :], f.values, atol=1e-13)

    def test_constant_splits_into_halves(self):
        f = ScalarField(Grid(4, 4), np.full((4, 4), 3.0))
        g1, g2, residual = wave_decompose(f)
        assert_allclose(g1, 1.5, rtol=0)
        assert_allclose(g2, 1.5, rtol=0)
        assert residual == 0.0

    def test_product_structure_leaves_a_remainder(self):
        grid = Grid(8, 8)
        s = stripe_profile(8, 2)
        f = ScalarField(grid, np.outer(s, s))
        _, _, residual = wave_decompose(f)
        assert residual == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_remainder_obeys_the_mixed_difference_bound(self, seed):
        grid = Grid(16, 16)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(grid.shape)
        f = ScalarField(grid, v)
        _, _, residual = wave_decompose(f)
        assert residual <= 4.0 * mixed_difference_sup(f) + 1e-12


class TestMixedDifferenceSup:
    """The half-offset search against the full-offset oracle."""

    SHAPES = [(2, 3), (7, 9), (8, 8), (9, 12), (16, 10)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sign_fields_agree_exactly(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(3):
            v = rng.choice([-1.0, 1.0], size=shape)
            got = mixed_difference_sup(ScalarField(Grid(*shape), v))
            assert got == full_offset_mixed_sup(v)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gaussian_fields_agree_to_rounding(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(3):
            v = rng.standard_normal(shape)
            got = mixed_difference_sup(ScalarField(Grid(*shape), v))
            want = full_offset_mixed_sup(v)
            assert abs(got - want) <= 1e-15 * want

    @staticmethod
    def finite_difference(f, axis, h):
        """Periodic difference f(x + h e_axis) - f(x) in grid-cell steps."""
        return ScalarField(f.grid, np.roll(f.values, -int(h), axis=axis) - f.values)

    def finite_difference_loop(self, f):
        """Reference: the search as ``finite_difference`` round trips, offset by offset."""
        n1, n2 = f.grid.shape
        sup = 0.0
        for h1 in range(1, n1 // 2 + 1):
            d1 = self.finite_difference(f, 0, h1)
            for h2 in range(1, n2 // 2 + 1):
                sup = max(sup, float(np.abs(self.finite_difference(d1, 1, h2).values).mean()))
        return sup

    def test_finite_difference_wraps_periodically(self):
        f = ScalarField(Grid(4, 2), np.arange(8.0).reshape(4, 2))
        d = self.finite_difference(f, 0, 1)
        assert_allclose(d.values[:3], 2.0, rtol=0)
        assert_allclose(d.values[3], [-6.0, -6.0], rtol=0)

    # A short last batch of column offsets at 130x66, one batch of 19 at 20x38,
    # and no row offset for the second worker at n1 = 2 or 3.
    @pytest.mark.parametrize("shape", SHAPES + [(20, 38), (2, 9), (3, 8), (130, 66)])
    def test_equals_the_finite_difference_loop(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + 1)
        for v in (rng.standard_normal(shape), rng.choice([-1.0, 1.0], size=shape)):
            f = ScalarField(Grid(*shape), v)
            assert mixed_difference_sup(f) == self.finite_difference_loop(f)


class TestTransposeSymmetry:
    """Swapping the axes together with the slots chi1t, chi2t changes nothing."""

    # seeded random labels on odd, even and non-square grids; none of these
    # ties the two outer-axis candidates, so the winner must swap
    CASES = [((9, 9), 0), ((12, 12), 1), ((8, 12), 2), ((15, 10), 3), ((7, 16), 4)]

    @pytest.fixture(params=CASES, ids=lambda c: f"{c[0][0]}x{c[0][1]}")
    def pair(self, request):
        shape, seed = request.param
        labels = np.random.default_rng(seed).integers(1, 5, size=shape)
        m = to_modified(PhaseField(Grid(*shape), labels))
        return m, whole_array._transposed(m)

    def test_twice_is_the_identity(self, pair):
        m, t = pair
        assert t.grid == Grid(m.grid.n2, m.grid.n1)
        back = whole_array._transposed(t)
        assert back.grid == m.grid
        for name in ("chi1t", "chi2t", "chi3t"):
            assert np.array_equal(getattr(back, name), getattr(m, name))

    def test_energies_agree(self, pair):
        m, t = pair
        assert relaxed_elastic_energy(t) == pytest.approx(relaxed_elastic_energy(m), rel=1e-12)
        surface_t = surface_energy(from_modified(t))
        assert surface_t == pytest.approx(surface_energy(from_modified(m)), rel=1e-12)

    def test_extract_outer_swaps_its_axis(self, pair):
        m, t = pair
        outer, outer_t = extract_outer(from_modified(m)), extract_outer(from_modified(t))
        assert {outer.axis, outer_t.axis} == {"y1", "y2"}
        assert np.array_equal(outer_t.f, outer.f)
        assert outer_t.defect_l1 == outer.defect_l1
        assert np.array_equal(outer_t.F, outer.F)


class TestIncompatibilityDefect:
    def test_exact_fractions_stay_exact(self):
        theta = (Fraction(3, 16), Fraction(1, 16), Fraction(3, 16), Fraction(9, 16))
        d14, d12 = incompatibility_defect(theta)
        assert isinstance(d14, Fraction) and isinstance(d12, Fraction)
        assert d14 == Fraction(3, 32)
        assert d12 == Fraction(3, 32)

    def test_balanced_twin_fractions_vanish(self):
        assert incompatibility_defect((0.25, 0.25, 0.25, 0.25)) == (0.0, 0.0)

    def test_axis_specific_vanishing(self):
        mu, lam = Fraction(1, 3), Fraction(1, 5)
        theta = (mu * (1 - lam), mu * lam, (1 - mu) * lam, (1 - mu) * (1 - lam))
        d14, d12 = incompatibility_defect(theta)
        assert d14 == lam * (1 - lam) * (1 - 2 * mu)
        assert d12 == mu * (1 - mu) * (1 - 2 * lam)

    @pytest.mark.parametrize(
        "theta, match",
        [
            ((0.5, 0.5), "four"),
            ((-0.1, 0.4, 0.4, 0.3), "negative"),
            ((0.3, 0.3, 0.3, 0.3), "sum"),
            (("a", 0.4, 0.3, 0.3), "number"),
        ],
    )
    def test_validation(self, theta, match):
        with pytest.raises(ValueError, match=match):
            incompatibility_defect(theta)


class TestCharacteristicResidual:
    def test_riding_the_characteristics_nulls_it(self):
        grid = Grid(32, 32)
        y1, y2 = coords(grid)
        u = ScalarField(grid, np.sin(2 * np.pi * (y1 + y2)))
        outer = OuterProfile("y1", np.ones(32), 0.0, np.zeros(32))
        assert characteristic_residual(u, outer) < 1e-12

    def test_opposite_wave_scores_full_strength(self):
        grid = Grid(32, 32)
        y1, y2 = coords(grid)
        u = ScalarField(grid, np.sin(2 * np.pi * (y1 - y2)))
        outer = OuterProfile("y1", np.ones(32), 0.0, np.zeros(32))
        expected = 2.0 * np.sqrt(2.0) * np.pi
        assert characteristic_residual(u, outer) == pytest.approx(expected, rel=1e-10)

    def test_second_axis_swaps_the_roles(self):
        grid = Grid(32, 32)
        y1, y2 = coords(grid)
        u = ScalarField(grid, np.sin(2 * np.pi * (y1 + y2)))
        outer = OuterProfile("y2", np.ones(32), 0.0, np.zeros(32))
        assert characteristic_residual(u, outer) < 1e-12


class TestRigidityReport:
    def test_crossing_twin_scores_clean(self):
        grid = Grid(128, 128)
        p = gen_crossing_twin(
            "y1", stripe_profile(128, 2), stripe_profile(128, 8), grid
        )
        report = rigidity_report(p, 1e-3)
        assert report.theta == (0.25, 0.25, 0.25, 0.25)
        assert report.d14 == 0.0
        assert report.d12 == 0.0
        assert report.outer.defect_l1 == 0.0
        assert report.inner.defect_l2 == 0.0
        assert report.inner.defect_chi2 == 0.0
        # The characteristic residual is spectral, so sampling a jump leaves
        # a small remainder; it must sit far below the zigzag's (above 0.5).
        assert report.char_residual <= 0.1
        assert report.weak_defect <= 0.05
        assert report.diagnostics["log10_d14"] is None
        assert report.diagnostics["log10_outer_defect_l1"] is None
        assert report.diagnostics["log10_elastic"] is not None
        # Laminates on even and odd grids, and a twin whose fine profile is +1
        # on 6 of every 8 cells, are exact too, and their inner profiles have a
        # nonzero mean, which the template carries.
        unbalanced = np.tile([1.0] * 6 + [-1.0] * 2, 8)
        exact = [gen_crossing_twin("y1", stripe_profile(64, 2), unbalanced, Grid(64, 64))]
        for n, stripes in ((32, 2), (33, 3)):
            f = stripe_profile(n, stripes)
            exact += [gen_laminate(axis, f, Grid(n, n)) for axis in ("y1", "y2")]
        for p in exact:
            report = rigidity_report(p, 1e-3)
            assert report.inner.defect_l2 == 0.0
            assert report.weak_defect <= 0.05

    @pytest.mark.parametrize("seed, axis", [(4, "y1"), (8, "y2")])
    def test_a_tied_outer_axis_is_read_alike_in_the_transpose(self, seed, axis):
        """Both axes of these fields fit chi3t's signs equally well, so
        ``extract_outer`` takes the axis whose row means have the larger mean
        square, the same physical axis in the field and in its transpose, and
        the report reads it."""
        p = gen_random_partition(seed, Grid(128, 128), feature_scale=0.05)
        t = from_modified(whole_array._transposed(to_modified(p)))
        assert extract_outer(p).axis == axis != extract_outer(t).axis
        report, other = rigidity_report(p, 1e-3), rigidity_report(t, 1e-3)
        assert report.outer.defect_l1 == other.outer.defect_l1
        assert report.outer.axis == axis != other.outer.axis
        assert other.inner.defect_l2 == report.inner.defect_l2
        assert other.inner.defect_chi2 == report.inner.defect_chi2
        assert other.char_residual == pytest.approx(report.char_residual, rel=1e-12)
        assert other.weak_defect == pytest.approx(report.weak_defect, rel=1e-12)

    def test_a_tied_axis_off_the_grid_gives_way(self):
        """On 32x64 the y2 staircase moves half a cell per row.  This field
        ties its outer axes, and its y2 row means have the larger mean square,
        but y2's shear is not grid-aligned, so ``extract_outer`` picks y1.  Its
        64x32 transpose, whose first axis is that unaligned one, picks the same
        physical axis, and the inner profile follows it instead of refusing."""
        p = gen_random_partition(11, Grid(32, 64))
        t = from_modified(whole_array._transposed(to_modified(p)))
        chi3t = to_modified(p).chi3t
        rows, cols = chi3t.sum(axis=1), chi3t.sum(axis=0)
        assert rows @ rows * 32 < cols @ cols * 64
        f = np.where(cols >= 0, 1, -1)  # the transpose's first axis, half a cell per row
        assert (32 * 64 - f @ cols) / (32 * 64) == 0.71875
        unaligned = OuterProfile("y1", f, 0.71875, staircase_shifts(f, 0.5))
        with pytest.raises(ValueError, match="grid-aligned"):
            extract_inner(t, unaligned)
        outer, outer_p = extract_outer(t), extract_outer(p)
        assert (outer_p.axis, outer.axis) == ("y1", "y2")
        assert outer.defect_l1 == outer_p.defect_l1 == 0.71875
        assert extract_inner(t, outer).defect_l2 == extract_inner(p, outer_p).defect_l2
        report, other = rigidity_report(p, 1e-3), rigidity_report(t, 1e-3)
        assert (report.outer.axis, other.outer.axis) == ("y1", "y2")
        assert other.inner.defect_l2 == report.inner.defect_l2
        assert other.inner.defect_chi2 == report.inner.defect_chi2
        assert other.char_residual == pytest.approx(report.char_residual, rel=1e-12)

    @pytest.mark.parametrize("scale", [0.05, 0.125, 0.3])
    @pytest.mark.parametrize("shape", [(32, 64), (64, 32), (16, 48), (48, 16)], ids=str)
    def test_extract_outer_picks_the_axis_the_report_reads(self, shape, scale):
        """On non-square grids one axis's staircase moves by part of a cell
        per row.  On each random field and on its transpose, the report reads
        the outer profile ``extract_outer`` gives, and the inner profile along
        it; where the report refuses, that inner profile does.  Both happen."""
        accepted = refused = 0
        for seed in range(40):
            p = gen_random_partition(seed, Grid(*shape), feature_scale=scale)
            for q in (p, from_modified(whole_array._transposed(to_modified(p)))):
                outer = extract_outer(q)
                try:
                    report = rigidity_report(q, 1e-2)
                except ValueError:
                    with pytest.raises(ValueError, match="grid-aligned"):
                        extract_inner(q, outer)
                    refused += 1
                    continue
                accepted += 1
                payload = json.loads(report.to_json())
                assert payload["outer"] == plain(outer), (seed, q.grid)
                assert payload["inner"] == plain(extract_inner(q, outer)), (seed, q.grid)
        assert accepted and refused

    def test_json_is_deterministic_and_complete(self):
        grid = Grid(64, 64)
        p = gen_crossing_twin("y1", stripe_profile(64, 2), stripe_profile(64, 8), grid)
        a = rigidity_report(p, 1e-2).to_json()
        b = rigidity_report(p, 1e-2).to_json()
        assert a == b
        payload = json.loads(a)
        assert set(payload) == {
            "char_residual",
            "d12",
            "d14",
            "diagnostics",
            "energy",
            "eta",
            "inner",
            "outer",
            "theta",
            "weak_defect",
        }
        assert payload["outer"]["axis"] == "y1"
        assert len(payload["inner"]["g"]) == 64

    def test_json_prints_signs_as_ints_and_profiles_as_floats(self):
        grid = Grid(16, 16)
        p = gen_crossing_twin("y2", stripe_profile(16, 2), stripe_profile(16, 8), grid)
        report = rigidity_report(p, 1e-2)
        payload = json.loads(report.to_json())
        assert payload["outer"]["f"] == report.outer.f.tolist()
        assert {type(x) for x in payload["outer"]["f"]} == {int}
        assert {type(x) for x in payload["outer"]["F"] + payload["inner"]["g"]} == {float}
        assert payload["energy"] == json.loads(report.energy.to_json())

    @pytest.mark.parametrize("axis", ["y1", "y2"])
    def test_json_carries_the_raw_weak_defect(self, axis):
        grid = Grid(64, 64)
        p = gen_crossing_twin(axis, stripe_profile(64, 2), stripe_profile(64, 8), grid)
        report = rigidity_report(p, 1e-2)
        assert json.loads(report.to_json())["weak_defect"] == report.weak_defect
        # A zero defect has no logarithm, so only the raw value records it.
        diagnostics = {**report.diagnostics, "log10_weak_defect": None}
        zero = dataclasses.replace(report, weak_defect=0.0, diagnostics=diagnostics)
        payload = json.loads(zero.to_json())
        assert payload["weak_defect"] == 0.0
        assert payload["diagnostics"]["log10_weak_defect"] is None

    def test_zigzag_defeats_the_inner_profile_only(self):
        """The concentration example passes the outer test yet fails inside."""
        grid = Grid(32, 32)
        report = rigidity_report(gen_counterexample(2, grid), 1e-2)
        assert report.outer.axis == "y1"
        assert report.outer.defect_l1 == 0.0
        assert report.inner.defect_l2 > 0.5
        assert report.char_residual > 0.5


class TestReportSpectralPass:
    """The report transforms each indicator once and shares the coefficients."""

    def test_transform_count(self, fft_calls):
        """One transform per indicator and one of the profile; then, per slab
        of the frame walk, one derivative pair and two template transforms.
        Below the split one worker walks the frame's half spectrum in the
        slabs ``_cut`` gives at ``_SLAB_COLS``: 3 of 33 columns untransposed
        (outer axis y1), 4 of 49 transposed (y2)."""
        for shape, seed, axis, slabs in (((32, 64), 0, "y1", 3), ((96, 32), 1, "y2", 4)):
            grid = Grid(*shape)
            p = gen_random_partition(seed, grid, feature_scale=0.1)
            assert extract_outer(p).axis == axis
            width = _frame(grid, axis == "y2").n2 // 2 + 1
            assert len(_cut(width, -(-width // _SLAB_COLS))) == slabs
            fft_calls.update(dict.fromkeys(fft_calls, 0))
            rigidity_report(p, 1e-2)
            used = {k: v for k, v in fft_calls.items() if v}
            assert used == {
                "_coeffs": 3,
                "_sheared_rows": 1,
                "_derivative_rows": slabs,
                "_slab_coeffs": 2 * slabs,
            }

    @pytest.mark.parametrize("transpose", [False, True], ids=["y2", "y1"])
    def test_report_is_built_in_few_full_size_arrays(self, float_fields_peak, transpose):
        """Two half spectra beside the labels; no slot alive, no half-size
        term, and the residual and weak defect reduced a column slab at a time.
        The field's outer axis is y2 and its transpose's y1, so both frames run."""
        grid = Grid(512, 512)
        p = gen_random_partition(1, grid, feature_scale=0.01)
        if transpose:
            p = PhaseField(grid, np.ascontiguousarray(p.labels.T))
        assert extract_outer(p).axis == ("y1" if transpose else "y2")
        assert float_fields_peak(lambda: rigidity_report(p, 1e-2), grid) <= 2.65

    def test_bad_eta_fails_before_any_transform(self, fft_calls):
        p = gen_random_partition(1, Grid(16, 16), feature_scale=0.125)
        with pytest.raises(ValueError, match="eta"):
            rigidity_report(p, float("inf"))
        assert sum(fft_calls.values()) == 0

    @pytest.mark.parametrize("n", [15, 16])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_char_residual_matches_public_path(self, n, transpose):
        p = gen_random_partition(3, Grid(n, n), feature_scale=0.2)
        if transpose:  # seed 3 puts the outer axis on y1 one way and y2 the other
            p = PhaseField(p.grid, p.labels.T)
        report = rigidity_report(p, 1e-2)
        m = to_modified(p)
        potential = helmholtz_potential(VectorField(p.grid, m.chi2t, m.chi1t))
        expected = characteristic_residual(potential, report.outer)
        assert report.char_residual == pytest.approx(expected, rel=1e-12)


def blocked_report_cases():
    """Square grids on both sides of a block edge, each outer axis, non-square
    grids with a grid-aligned shear on each outer axis, twins and a constant
    field, whose characteristic residual is exactly 0."""
    n_twin = 130
    f = np.repeat([1.0, -1.0], n_twin // 2)
    g = np.repeat(np.tile([1.0, -1.0], 5), n_twin // 10)
    cases = []
    for n in (9, 16, 63, 64, 65, 129, 130):
        p = gen_random_partition(n, Grid(n, n), feature_scale=0.1)
        cases.append(pytest.param(p, id=f"random-{n}"))
        cases.append(pytest.param(PhaseField(p.grid, p.labels.T), id=f"random-{n}-T"))
    for seed, shape in ((0, (32, 64)), (2, (64, 32))):  # outer axis y1, then y2
        p = gen_random_partition(seed, Grid(*shape), feature_scale=0.1)
        cases.append(pytest.param(p, id=f"random-{shape[0]}x{shape[1]}"))
    # Outer axis y2, so the frame half spectrum is 17 columns wide: one past a
    # 16-column slab, a lone column that numpy would sum pairwise.
    p = gen_random_partition(4, Grid(33, 33), feature_scale=0.05)
    cases.append(pytest.param(PhaseField(p.grid, p.labels.T), id="random-33-T-seed-4"))
    for axis in ("y1", "y2"):
        twin = gen_crossing_twin(axis, f, g, Grid(n_twin, n_twin))
        cases.append(pytest.param(twin, id=f"twin-{axis}"))
    cases.append(pytest.param(gen_counterexample(2, Grid(64, 64)), id="counterexample"))
    cases.append(pytest.param(gen_constant(3, Grid(64, 64)), id="constant"))
    return cases


class TestBlockedReport:
    """The report's blocked pass and column-slab walk against whole-array forms:
    the energy and the spectral weak defect bit for bit, the real-space weak
    defect to 1e-15 and the characteristic residual to 1e-14, and an exact 0
    stays 0."""

    @pytest.mark.parametrize("p", blocked_report_cases())
    def test_matches_the_whole_array_oracles(self, p):
        report = rigidity_report(p, 1e-2)
        m = to_modified(p)
        outer, inner = report.outer, report.inner
        assert report.energy.elastic == whole_array.elastic(m)
        # Column slabs sum each column in row order and fold once, as one fold
        # of the whole frame half spectrum does.
        assert report.weak_defect == whole_array.spectral_weak_defect(m, outer, inner)
        # The real template sheared row by row and transformed is an independent
        # form; the cases differ from it by at most 6.1e-16 relative.
        real_space = whole_array.weak_defect(m, outer, inner)
        assert report.weak_defect == pytest.approx(real_space, rel=1e-15, abs=0.0)
        expected = whole_array.char_residual(m, outer)
        # abs=0 leaves an expected exact 0 no tolerance at all.
        assert report.char_residual == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_both_outer_axes_are_covered(self):
        cases = [case.values[0] for case in blocked_report_cases()]
        axes = {extract_outer(p).axis for p in cases}
        assert axes == {"y1", "y2"}
        non_square = [p for p in cases if p.grid.n1 != p.grid.n2]
        assert {extract_outer(p).axis for p in non_square} == {"y1", "y2"}
        assert any(rigidity_report(p, 1e-2).char_residual == 0.0 for p in cases)


def float_slots(m):
    return ModifiedIndicators(m.grid, *(s.astype(np.float64) for s in (m.chi1t, m.chi2t, m.chi3t)))


def plain(profile):
    """A profile's fields as plain Python values, so that ``==`` compares every one."""
    return {name: np.asarray(value).tolist() for name, value in vars(profile).items()}


class TestInt8Slots:
    """int8 slots price exactly as their float64 copies: every ±1 value and
    every sum of them is exact in float64."""

    @staticmethod
    def noisy_stripes(shape, transpose):
        """Random chi1t and row-striped chi3t with 15% of its signs flipped: the
        outer axis is y1, or y2 once transposed, and its staircase is grid-aligned."""
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        chi1 = rng.choice(np.array([-1, 1], dtype=np.int8), size=shape)
        rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(shape[0], 1))
        chi3 = np.where(rng.random(shape) < 0.15, -rows, rows)
        if transpose:
            return _from_signs(Grid(shape[1], shape[0]), chi1.T, chi3.T)
        return _from_signs(Grid(*shape), chi1, chi3)

    CASES = pytest.mark.parametrize(
        "shape, transpose",
        [(shape, t) for shape in [(9, 9), (8, 8), (6, 12), (7, 14)] for t in (False, True)],
    )

    @CASES
    def test_energies_are_equal(self, shape, transpose):
        m = to_modified(self.noisy_stripes(shape, transpose))
        for price in (relaxed_elastic_energy, permode_elastic_oracle):
            assert price(m) == price(float_slots(m))

    @CASES
    def test_reports_are_equal(self, shape, transpose):
        """The report, priced from the labels, against both slot dtypes."""
        p = self.noisy_stripes(shape, transpose)
        m = to_modified(p)
        energy = total_energy(p, 1e-2)
        assert energy.elastic == relaxed_elastic_energy(m) == relaxed_elastic_energy(float_slots(m))
        report = rigidity_report(p, 1e-2)
        assert report.outer.axis == ("y2" if transpose else "y1")
        assert report.energy == energy
