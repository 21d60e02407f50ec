"""Tests for the energy functionals and the residual decomposition."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourwell.energy import (
    DEFAULT_DIAG,
    EnergyBreakdown,
    SymStrainField,
    elastic_energy_pointwise,
    interpolation_gap,
    relaxed_elastic_energy,
    surface_energy,
    total_energy,
)
from fourwell.fields import (
    Grid,
    ModifiedIndicators,
    PhaseField,
    ScalarField,
    to_modified,
    total_variation,
)
from fourwell.microstructures import (
    gen_constant,
    gen_counterexample,
    gen_laminate,
    gen_random_partition,
)
from fourwell.model import _cbrt
from fourwell.spectral import permode_elastic_oracle

import whole_array


def coords(grid):
    return grid.axis_coords(0)[:, None], grid.axis_coords(1)[None, :]


def random_indicators(grid, seed):
    rng = np.random.default_rng(seed)
    chi1 = rng.choice([-1.0, 1.0], size=grid.shape)
    chi3 = rng.choice([-1.0, 1.0], size=grid.shape)
    return ModifiedIndicators(grid, chi1, chi1 * chi3, chi3)


def zero_strain(grid):
    z = np.zeros(grid.shape)
    return SymStrainField(grid, z, z, z, z, z, z)


class TestPointwiseEnergy:
    def test_zero_strain_against_phase_one(self):
        grid = Grid(8, 8)
        m = to_modified(gen_constant(1, grid))
        d1, d2, d3 = DEFAULT_DIAG
        expected = d1**2 + d2**2 + d3**2 + 6.0
        assert elastic_energy_pointwise(zero_strain(grid), m) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("phase", [2, 3, 4])
    def test_all_wells_are_equidistant_from_zero(self, phase):
        grid = Grid(4, 4)
        base = elastic_energy_pointwise(zero_strain(grid), to_modified(gen_constant(1, grid)))
        other = elastic_energy_pointwise(zero_strain(grid), to_modified(gen_constant(phase, grid)))
        assert other == base

    def test_exact_match_has_zero_energy(self):
        grid = Grid(4, 6)
        m = to_modified(gen_constant(3, grid))
        d1, d2, d3 = DEFAULT_DIAG
        shape = grid.shape
        e = SymStrainField(
            grid,
            e11=np.full(shape, d1),
            e22=np.full(shape, d2),
            e33=np.full(shape, d3),
            e12=m.chi3t.copy(),
            e13=m.chi2t.copy(),
            e23=m.chi1t.copy(),
        )
        assert elastic_energy_pointwise(e, m) == 0.0

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            elastic_energy_pointwise(
                zero_strain(Grid(4, 4)), to_modified(gen_constant(1, Grid(8, 8)))
            )


class TestRelaxedEnergy:
    def test_single_mode_frozen_value(self):
        grid = Grid(32, 32)
        y1, _ = coords(grid)
        zero = np.zeros(grid.shape)
        f = np.cos(2 * np.pi * y1) + zero
        m = ModifiedIndicators(grid, f, zero, zero)
        assert relaxed_elastic_energy(m) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("axis", ["y1", "y2"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_laminates_carry_no_elastic_energy(self, axis, seed):
        grid = Grid(32, 32)
        rng = np.random.default_rng(seed)
        profile = rng.choice([-1.0, 1.0], size=32)
        p = gen_laminate(axis, profile, grid)
        assert relaxed_elastic_energy(to_modified(p)) <= 1e-12

    def test_global_sign_flip_is_invariant(self):
        grid = Grid(16, 16)
        m = random_indicators(grid, 9)
        flipped = ModifiedIndicators(grid, -m.chi1t, -m.chi2t, -m.chi3t)
        assert relaxed_elastic_energy(flipped) == relaxed_elastic_energy(m)

    @pytest.mark.parametrize("shape", [(16, 16), (16, 24), (13, 11)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_against_per_mode_oracle(self, shape, seed):
        m = random_indicators(Grid(*shape), seed)
        fast = relaxed_elastic_energy(m)
        slow = permode_elastic_oracle(m)
        assert fast == pytest.approx(slow, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_against_full_multiplier_form(self, seed):
        grid = Grid(16, 16)
        m = random_indicators(grid, seed)
        zero = np.zeros(grid.shape)
        embedded = SymStrainField(
            grid, e11=zero, e22=zero, e33=zero, e12=m.chi3t, e13=m.chi2t, e23=m.chi1t
        )
        assert whole_array.full_multiplier_energy(embedded) == pytest.approx(
            relaxed_elastic_energy(m), rel=1e-12
        )

    def test_mismatched_triple_grids_rejected(self):
        with pytest.raises(ValueError, match=r"chi2t has shape \(8, 8\), expected \(4, 4\)"):
            ModifiedIndicators(Grid(4, 4), np.zeros((4, 4)), np.zeros((8, 8)), np.zeros((4, 4)))


def exact_closed_form(m):
    """The closed form summed exactly: ``math.fsum`` of each half-spectrum
    mode's term times its fold weight, from numpy's ``rfft2`` and frequencies
    of its own, an unpaired frequency's sign averaged over both signs."""
    n1, n2 = m.grid.shape
    c1, c2, c3 = (np.fft.rfft2(x) / (n1 * n2) for x in (m.chi1t, m.chi2t, m.chi3t))
    k1 = np.rint(np.fft.fftfreq(n1) * n1)[:, None]
    k2 = np.rint(np.fft.rfftfreq(n2) * n2)[None, :]
    flip1 = np.where(2 * np.abs(k1) == n1, -1.0, 1.0)
    flip2 = np.where(2 * np.abs(k2) == n2, -1.0, 1.0)
    signs = [(q1, q2) for q1 in (k1, flip1 * k1) for q2 in (k2, flip2 * k2)]
    shear = sum(np.abs(q2 * c2 - q1 * c1) ** 2 for q1, q2 in signs) / 4
    ksq = k1**2 + k2**2
    ksq[0, 0] = 1.0
    per_mode = 2 * (ksq * shear + 2 * k1**2 * k2**2 * np.abs(c3) ** 2) / ksq**2
    weight = np.where((k2 == 0) | (2 * k2 == n2), 1.0, 2.0)
    return math.fsum((per_mode * weight).ravel())


class TestBlockedMultiplier:
    """The multiplier runs a row block at a time on blocked transforms and
    gives the whole-array pass's float exactly."""

    SHAPES = [(9, 9), (6, 12), (63, 63), (64, 64), (65, 65), (129, 129), (65, 130), (130, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_raw_float_triples(self, shape):
        m = random_indicators(Grid(*shape), sum(shape))
        assert relaxed_elastic_energy(m) == whole_array.elastic(m)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_int8_slots_of_a_partition(self, shape):
        p = gen_random_partition(3, Grid(*shape), feature_scale=0.1)
        m = to_modified(p)
        assert relaxed_elastic_energy(m) == whole_array.elastic(m)
        assert total_energy(p, 1e-2).elastic == whole_array.elastic(m)

    @pytest.mark.parametrize("kind", ["raw", "int8"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_is_the_exact_sum_to_rounding(self, shape, kind):
        """Against the exactly summed closed form, which shares neither the
        folds' order nor their algebra, so a reordering that loses accuracy
        fails here even where the whole-array mirror follows it."""
        grid = Grid(*shape)
        if kind == "raw":
            m = random_indicators(grid, sum(shape))
        else:
            m = to_modified(gen_random_partition(3, grid, feature_scale=0.1))
        exact = exact_closed_form(m)
        assert abs(relaxed_elastic_energy(m) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("k, shape", [(2, (64, 64)), (4, (129, 129)), (3, (65, 130))])
    def test_counterexample_is_the_exact_sum_to_rounding(self, k, shape):
        m = to_modified(gen_counterexample(k, Grid(*shape)))
        exact = exact_closed_form(m)
        assert abs(relaxed_elastic_energy(m) - exact) <= 1e-15 * exact


class TestSurfaceEnergy:
    @pytest.mark.parametrize("stripes", [2, 4, 8])
    def test_laminate_perimeter(self, stripes):
        grid = Grid(32, 32)
        profile = np.repeat(np.resize([1.0, -1.0], stripes), 32 // stripes)
        p = gen_laminate("y1", profile, grid)
        assert surface_energy(p) == float(2 * stripes)

    def test_single_phase_has_no_interface(self):
        assert surface_energy(gen_constant(2, Grid(16, 16))) == 0.0

    @pytest.mark.parametrize("shape", [(9, 9), (16, 16), (12, 7)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_four_indicator_perimeters(self, shape, seed):
        """The one-pass count against the sum of the four phases' total variations.

        The two sum in a different order, so they may differ in the last bits.
        """
        labels = np.random.default_rng(seed).integers(1, 5, size=shape)
        p = PhaseField(Grid(*shape), labels)
        four = sum(
            total_variation(ScalarField(p.grid, (labels == phase).astype(float)))
            for phase in (1, 2, 3, 4)
        )
        assert surface_energy(p) == pytest.approx(four, rel=4 * np.finfo(float).eps)


class TestTotalEnergy:
    def test_weighting_and_exact_octave_scaling(self):
        grid = Grid(32, 32)
        profile = np.repeat([1.0, -1.0], 16)
        p = gen_laminate("y2", profile, grid)
        eta = 1.3e-3
        b1 = total_energy(p, eta)
        b8 = total_energy(p, 8.0 * eta)
        assert b8.elastic == b1.elastic
        assert b8.surface == b1.surface
        root8 = _cbrt(8.0 * eta)
        assert root8 == 2.0 * _cbrt(eta)
        assert b8.total == root8 * b1.surface + b1.elastic / root8**2

    def test_pointwise_route(self):
        """A given strain is priced by ``elastic_energy_pointwise``;
        ``total_energy`` prices only the relaxed minimum."""
        grid = Grid(8, 8)
        p = gen_constant(1, grid)
        pointwise = elastic_energy_pointwise(zero_strain(grid), to_modified(p))
        d1, d2, d3 = DEFAULT_DIAG
        assert pointwise == pytest.approx(d1**2 + d2**2 + d3**2 + 6.0, rel=1e-14)
        expected = EnergyBreakdown(eta=1.0, elastic=0.0, surface=0.0, total=0.0)
        assert total_energy(p, 1.0) == expected

    def test_rejects_bad_eta(self):
        p = gen_constant(1, Grid(4, 4))
        with pytest.raises(ValueError, match="eta"):
            total_energy(p, 0.0)

    def test_transforms_each_distinct_row_once(self, fft_calls, monkeypatch):
        """Each slot's distinct rows' row spectra, then one streamed fold over
        slots 1 and 2 and one over slot 3: 3 d rows go through ``rfft`` for
        a field with d distinct rows, 8 of 16 here."""
        p = gen_random_partition(1, Grid(16, 16), feature_scale=0.125)
        distinct = len({row.tobytes() for row in p.labels})
        assert distinct == 8
        rows = []
        rfft = np.fft.rfft

        def counted(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        total_energy(p, 1e-2)
        used = {name: n for name, n in fft_calls.items() if n}
        assert used == {"_row_spectra": 3, "_fold_rows": 2}
        assert sum(rows) == 3 * distinct

    def test_prices_in_few_full_size_arrays(self, float_fields_peak):
        """The distinct rows' spectra of two slots beside the labels, a
        quarter unit each for this field's 128 distinct rows of 512; no slot
        alive, no half spectrum, and every other temporary one slab in size."""
        grid = Grid(512, 512)
        p = gen_random_partition(1, grid, feature_scale=0.01)
        assert float_fields_peak(lambda: total_energy(p, 1e-2), grid) <= 1.0

    def test_prices_a_field_of_distinct_rows_in_few_full_size_arrays(self, float_fields_peak):
        """With no repeated row, two half spectra beside the labels; no slot
        alive, no half-size term, and every other temporary one row block in
        size."""
        grid = Grid(512, 512)
        p = PhaseField(grid, np.random.default_rng(0).integers(1, 5, size=grid.shape))
        assert len({row.tobytes() for row in p.labels}) == grid.n1
        assert float_fields_peak(lambda: total_energy(p, 1e-2), grid) <= 2.5

    def test_json_is_sorted_and_stable(self):
        p = gen_constant(1, Grid(4, 4))
        text = total_energy(p, 0.5).to_json()
        assert text.index('"elastic"') < text.index('"eta"') < text.index('"surface"')
        assert text == total_energy(p, 0.5).to_json()
        assert total_energy(p, 0.5).as_dict() == json.loads(text)


class TestDistinctRowPricing:
    """Pricing transforms each distinct row once and streams the column pass,
    giving the whole-array pass's floats wherever the repeats fall."""

    SHAPES = [(9, 9), (33, 17), (17, 33), (2, 40), (40, 2), (63, 64), (64, 96)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_equals_the_whole_array_pass(self, shape):
        fields = whole_array.repeating_fields(shape)
        assert whole_array.first_occurrence(fields["shuffled"].labels)[-1] == 0
        for name, p in fields.items():
            m = to_modified(p)
            expected = whole_array.elastic(m)
            assert total_energy(p, 1e-2).elastic == expected, name
            assert relaxed_elastic_energy(m) == expected, name

    def test_repeats_are_not_consecutive(self):
        """Some row repeats an earlier row that is not the row before it."""
        for name, p in whole_array.repeating_fields((64, 96)).items():
            first = whole_array.first_occurrence(p.labels)
            apart = (first[1:] < np.arange(1, 64)) & (first[1:] != first[:-1])
            assert apart.any(), name


class TestResiduals:
    def test_identity_vanishes_for_symmetrized_gradients(self):
        grid = Grid(32, 32)
        rng = np.random.default_rng(12)
        u = [ScalarField(grid, rng.standard_normal(grid.shape)) for _ in range(3)]
        e = whole_array.strain_from_displacement(*u)
        m = random_indicators(grid, 21)
        res = whole_array.compute_residuals(e, m)
        assert res.identity_residual <= 1e-8

    def test_residual_fields_have_advertised_slots(self):
        grid = Grid(8, 8)
        m = to_modified(gen_constant(1, grid))
        d1, d2, d3 = DEFAULT_DIAG
        shape = grid.shape
        e = SymStrainField(
            grid,
            e11=np.full(shape, d1 + 1.0),
            e22=np.full(shape, d2 + 2.0),
            e33=np.full(shape, d3),
            e12=m.chi3t - 3.0,
            e13=m.chi2t - 4.0,
            e23=m.chi1t - 5.0,
        )
        res = whole_array.compute_residuals(e, m)
        assert_allclose(res.rho11, 1.0, rtol=1e-14)
        assert_allclose(res.rho22, 0.5, rtol=1e-14)
        assert_allclose(res.rho12, 3.0, rtol=1e-14)
        assert_allclose(res.rho13, 4.0, rtol=1e-14)
        assert_allclose(res.rho23, 5.0, rtol=1e-14)

    def test_sum_sq_bounded_by_pointwise_energy(self):
        grid = Grid(16, 16)
        rng = np.random.default_rng(7)
        e = SymStrainField(grid, *(rng.standard_normal(grid.shape) for _ in range(6)))
        m = random_indicators(grid, 8)
        res = whole_array.compute_residuals(e, m)
        assert res.sum_sq() <= elastic_energy_pointwise(e, m) + 1e-12

    def test_grid_mismatch_rejected(self):
        e = zero_strain(Grid(4, 4))
        m = to_modified(gen_constant(1, Grid(8, 8)))
        with pytest.raises(ValueError, match="grid"):
            whole_array.compute_residuals(e, m)


class TestInterpolationGap:
    def test_single_mode_frozen_values(self):
        n = 32
        grid = Grid(n, n)
        y1, _ = coords(grid)
        f = ScalarField(grid, np.cos(2 * np.pi * y1) + np.zeros(grid.shape))
        lhs, rhs, ratio = interpolation_gap(f, 1.0)
        assert lhs == pytest.approx(0.5, rel=1e-12)
        # Gradient mass 4*cos(pi/n) times the largest sample cos(pi/n), plus
        # the mean-square primitive of a unit cosine, 1/(8*pi^2).
        expected_rhs = 4.0 * math.cos(math.pi / n) ** 2 + 1.0 / (8.0 * math.pi**2)
        assert rhs == pytest.approx(expected_rhs, rel=1e-12)
        assert ratio == pytest.approx(lhs / rhs, rel=1e-14)

    def test_eta_reweights_the_two_terms(self):
        n = 32
        grid = Grid(n, n)
        y1, _ = coords(grid)
        f = ScalarField(grid, np.cos(2 * np.pi * y1) + np.zeros(grid.shape))
        _, rhs, _ = interpolation_gap(f, 8.0)
        expected = 2.0 * 4.0 * math.cos(math.pi / n) ** 2 + 1.0 / (4.0 * 8.0 * math.pi**2)
        assert rhs == pytest.approx(expected, rel=1e-12)

    def test_zero_field_short_circuits(self):
        f = ScalarField(Grid(8, 8), np.zeros((8, 8)))
        assert interpolation_gap(f, 0.01) == (0.0, 0.0, 0.0)

    def test_rejects_nonzero_mean_and_bad_eta(self):
        f = ScalarField(Grid(8, 8), np.ones((8, 8)))
        with pytest.raises(ValueError, match="zero-mean"):
            interpolation_gap(f, 1.0)
        g = ScalarField(Grid(8, 8), np.zeros((8, 8)))
        with pytest.raises(ValueError, match="eta"):
            interpolation_gap(g, -1.0)


def test_strain_from_displacement_single_modes():
    grid = Grid(32, 32)
    y1, y2 = coords(grid)
    shape = grid.shape
    u1 = ScalarField(grid, np.sin(2 * np.pi * y1) + np.zeros(shape))
    u2 = ScalarField(grid, np.zeros(shape))
    u3 = ScalarField(grid, np.sin(2 * np.pi * y2) + np.zeros(shape))
    e = whole_array.strain_from_displacement(u1, u2, u3)
    assert_allclose(e.e11, 2 * np.pi * np.cos(2 * np.pi * y1) + np.zeros(shape), atol=1e-12)
    assert np.abs(e.e22).max() < 1e-12
    assert np.abs(e.e33).max() == 0.0
    assert np.abs(e.e12).max() < 1e-12
    assert np.abs(e.e13).max() < 1e-12
    assert_allclose(e.e23, np.pi * np.cos(2 * np.pi * y2) + np.zeros(shape), atol=1e-12)


def test_pointwise_energy_of_a_displacement_bounds_the_relaxed_energy():
    """A displacement's strain is compatible, so its pointwise misfit bounds the
    relaxed minimum from above with none of the multiplier's algebra."""
    grid = Grid(16, 16)
    rng = np.random.default_rng(5)
    m = random_indicators(grid, 6)
    relaxed = relaxed_elastic_energy(m)
    for scale in (0.0, 0.01, 0.1, 1.0):
        u = [ScalarField(grid, scale * rng.standard_normal(grid.shape)) for _ in range(3)]
        e = whole_array.strain_from_displacement(*u)
        assert relaxed <= elastic_energy_pointwise(e, m, diag=(0.0, 0.0, 0.0))
