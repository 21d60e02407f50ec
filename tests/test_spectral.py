"""Tests for the Fourier toolbox: norms, derivatives, projections."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fourwell.spectral
from fourwell.fields import _SLOT_OF_LABEL, Grid, ScalarField, VectorField, _row_blocks
from fourwell.spectral import (
    _coeffs,
    _cut,
    _distinct_rows,
    _fold_blocks,
    _fold_rows,
    _fold_sum,
    _frame_slabs,
    _modes,
    _row_spectra,
    _values,
    curl_neg_sobolev,
    helmholtz_potential,
    inv_gradient,
    leray_project,
    neg_sobolev_norm,
    permode_elastic_oracle,
    spectral_derivative,
)

import whole_array


def coords(grid):
    return grid.axis_coords(0)[:, None], grid.axis_coords(1)[None, :]


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal(grid.shape))


def bandlimited(grid, seed, kmax=5):
    """A zero-mean field with no content beyond |k_i| <= kmax."""
    rng = np.random.default_rng(seed)
    k1 = np.rint(np.fft.fftfreq(grid.n1) * grid.n1)[:, None]
    k2 = np.rint(np.fft.rfftfreq(grid.n2) * grid.n2)[None, :]
    c = np.fft.rfft2(rng.standard_normal(grid.shape)) / (grid.n1 * grid.n2)
    c[(np.abs(k1) > kmax) | (np.abs(k2) > kmax)] = 0.0
    c[0, 0] = 0.0
    return ScalarField(grid, _values(c, grid.shape))


class TestTransforms:
    """The core's normalization: coefficients are rfft2 / (n1 n2), a half spectrum."""

    def test_constant_field_has_single_coefficient(self):
        grid = Grid(4, 6)
        c = _coeffs(np.full(grid.shape, 2.5))
        assert c.shape == (4, 4)
        assert c[0, 0] == pytest.approx(2.5, rel=1e-14)
        c[0, 0] = 0.0
        assert np.abs(c).max() < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_roundtrip(self, seed):
        f = random_field(Grid(16, 12), seed)
        assert_allclose(_values(_coeffs(f.values), f.grid.shape), f.values, atol=1e-12)

    def test_roundtrip_odd_width(self):
        """n2 = 7 and n2 = 6 share a half-spectrum width; the grid tells them apart."""
        f = random_field(Grid(9, 7), 4)
        assert _coeffs(f.values).shape == (9, 4)
        assert_allclose(_values(_coeffs(f.values), f.grid.shape), f.values, atol=1e-12)

    @pytest.mark.parametrize("shape", [(8, 8), (16, 12), (9, 7)])
    def test_parseval(self, shape):
        f = random_field(Grid(*shape), 3)
        energy = _fold_sum(np.abs(_coeffs(f.values)) ** 2, f.grid)
        assert energy == pytest.approx(np.mean(f.values**2), rel=1e-12)


class TestModeTable:
    """One table labels every half-spectrum mode; the Nyquist rule lives in it."""

    @pytest.mark.parametrize("n2", range(2, 10))
    @pytest.mark.parametrize("n1", range(2, 10))
    def test_derivative_frequency_drops_exactly_the_unpaired_mode(self, n1, n2):
        k1, k2, d1, d2 = _modes(Grid(n1, n2))
        assert (k1.shape, k2.shape) == ((n1, 1), (1, n2 // 2 + 1))
        assert np.array_equal(k1[:, 0], np.rint(np.fft.fftfreq(n1) * n1))
        assert np.array_equal(k2[0], np.rint(np.fft.fftfreq(n2) * n2)[: n2 // 2 + 1])
        for k, d, n in ((k1[:, 0], d1[:, 0], n1), (k2[0], d2[0], n2)):
            unpaired = (n % 2 == 0) & (k == -(n // 2))
            assert np.array_equal(d != k, unpaired)
            assert (d[unpaired] == 0).all()

    @pytest.mark.parametrize("n2", range(2, 10))
    @pytest.mark.parametrize("n1", range(2, 10))
    def test_fold_weight_is_one_exactly_on_self_mirrored_columns(self, n1, n2):
        """Column j holds the modes with FFT index j along axis 1; its mirror is -j mod n2."""
        grid = Grid(n1, n2)
        for j in range(n2 // 2 + 1):
            column = np.zeros((n1, n2 // 2 + 1))
            column[:, j] = 1.0
            weight = 1.0 if (-j) % n2 == j else 2.0
            assert _fold_sum(column, grid) == weight * n1

    @pytest.mark.parametrize("shape", [(7, 9), (64, 8), (130, 6)])
    def test_mode_blocks_cut_the_table_into_row_blocks(self, monkeypatch, shape):
        """With one worker and with two, ``_fold_blocks`` hands its term the
        table and the spectrum cut to each row block of each worker's span of
        columns, the row blocks of a span in order."""
        grid = Grid(*shape)
        k1, k2, d1, d2 = _modes(grid)
        width = k2.shape[1]
        index = np.arange(grid.n1 * width).reshape(grid.n1, width)  # each mode's own number
        for parts in (1, 2):
            monkeypatch.setattr(fourwell.spectral, "_workers", lambda cells: parts)
            seen = []

            def record(b1, b2, e1, e2, block):
                seen.append((b1, b2, e1, e2, block))
                return np.zeros(block.shape)

            assert _fold_blocks(record, grid, index) == 0.0
            spans = {}
            for b1, b2, e1, e2, block in seen:
                rows = slice(block[0, 0] // width, block[-1, 0] // width + 1)
                cols = slice(block[0, 0] % width, block[0, -1] % width + 1)
                assert np.array_equal(block, index[rows, cols])
                assert np.array_equal(b1, k1[rows]) and np.array_equal(e1, d1[rows])
                assert np.array_equal(b2, k2[:, cols]) and np.array_equal(e2, d2[:, cols])
                spans.setdefault((cols.start, cols.stop), []).append(rows)
            assert [slice(*span) for span in sorted(spans)] == _cut(width, parts)
            assert all(blocks == list(_row_blocks(grid.n1)) for blocks in spans.values())


# Odd, even and non-square shapes, one row or one column, and sizes on both
# sides of a row-block edge, as heights and as widths.
BLOCK_SHAPES = [(7, 9), (8, 12), (9, 8), (1, 5), (5, 1), (64, 64), (131, 66), (255, 256)] + [
    shape for n in (63, 64, 65, 129) for shape in ((n, 5), (5, n))
]


class TestBlockedCore:
    """The core's blocked transforms equal numpy's whole-array ones bit for bit,
    so a numpy release that breaks that fails here, not in an energy digit."""

    @staticmethod
    def real(shape, seed=0):
        return np.random.default_rng(seed).standard_normal(shape)

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_coeffs_equal_rfft2(self, shape):
        values = self.real(shape)
        expected = np.fft.rfft2(values) / values.size
        assert np.array_equal(_coeffs(values), expected)

    @staticmethod
    def labels(shape):
        return np.random.default_rng(0).integers(1, 5, size=shape, dtype=np.uint8)

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_int8_rows_transform_as_their_float_copies(self, shape):
        """Each int8 slot, given whole or looked up from the labels a row
        block at a time, transforms as its float64 copy."""
        labels = self.labels(shape)
        for table in _SLOT_OF_LABEL:
            signs = table[labels]
            expected = np.fft.rfft2(signs.astype(float)) / signs.size
            assert np.array_equal(_coeffs(signs), expected)
            assert np.array_equal(_coeffs(labels, table), expected)

    def test_int8_slot_transforms_beside_little_but_its_half_spectrum(self, float_fields_peak):
        """The half spectrum (about one unit) and one row block's floats: the
        slot is never widened whole, nor made whole from the labels, and the
        column pass copies nothing whole."""
        grid = Grid(512, 512)
        labels = self.labels(grid.shape)
        signs = _SLOT_OF_LABEL[0][labels]
        _coeffs(signs)  # numpy caches its FFT plans for these lengths on a first call
        assert float_fields_peak(lambda: _coeffs(signs), grid) <= 1.2
        assert float_fields_peak(lambda: _coeffs(labels, _SLOT_OF_LABEL[0]), grid) <= 1.2

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_values_equal_irfft2(self, shape):
        c = np.fft.rfft2(self.real(shape, 1))
        expected = np.fft.irfft2(c, s=shape) * (shape[0] * shape[1])
        assert np.array_equal(_values(c, shape), expected)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("shape", [shape for shape in BLOCK_SHAPES if min(shape) > 1])
    def test_frame_slabs_cut_the_frame_transform(self, shape, transpose):
        """Each slab is the half spectrum of the array, or of its transpose (to
        rounding: a re-indexing, not a transform), cut to the slab's columns,
        and comes with the frame's table cut the same way; the slabs tile the
        frame's columns in order."""
        values = self.real(shape, 2)
        frame = values.T if transpose else values
        expected = _coeffs(np.ascontiguousarray(frame))
        k1, k2, d1, d2 = _modes(Grid(*frame.shape))
        slabs = list(_frame_slabs([_coeffs(values)], Grid(*shape), transpose))
        tiled = [col for cols, _, _ in slabs for col in range(cols.start, cols.stop)]
        assert tiled == list(range(frame.shape[1] // 2 + 1))
        for cols, (b1, b2, e1, e2), (slab,) in slabs:
            assert slab.shape == expected[:, cols].shape
            assert_allclose(slab, expected[:, cols], rtol=0, atol=1e-16 if transpose else 0)
            assert np.array_equal(b1, k1) and np.array_equal(e1, d1)
            assert np.array_equal(b2, k2[:, cols]) and np.array_equal(e2, d2[:, cols])

    @pytest.mark.parametrize("shape", [(7, 9), (64, 12), (65, 12), (129, 66), (300, 8)])
    def test_fold_sum_of_blocks_equals_the_whole(self, shape):
        """Column sums run in row order either way, so blocks change no bit."""
        rng = np.random.default_rng(2)
        per_mode = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        grid = Grid(shape[0], 2 * shape[1] - 2)
        whole = _fold_sum(per_mode.copy(), grid)
        assert _fold_blocks(lambda k1, k2, d1, d2, block: block.copy(), grid, per_mode) == whole


def repeating_labels(shape, seed=0):
    """Labels whose rows repeat out of order and all share their first label."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(1, 5, size=(max(2, shape[0] // 3), shape[1]), dtype=np.uint8)
    rows[:, 0] = 1
    picks = rng.integers(0, len(rows), size=shape[0])
    picks[-1] = picks[0]
    return rows[picks]


class TestDistinctRows:
    """The distinct-row map gives each row's first row with the same bytes,
    and the transforms built on it equal numpy's whole-array ones bit for bit."""

    @staticmethod
    def arrays(shape):
        labels = repeating_labels(shape)
        yield labels
        yield np.asarray(labels.T)  # not contiguous
        yield _SLOT_OF_LABEL[0][labels]
        yield labels.astype(float) - 2.5

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_map_is_the_first_row_with_the_same_bytes(self, shape):
        for values in self.arrays(shape):
            assert np.array_equal(_distinct_rows(values), whole_array.first_occurrence(values))

    def test_rows_that_differ_past_the_hashed_prefix(self):
        """Rows alike in their first 1200 bytes, wider than the words hashed
        first, are told apart by the rest."""
        values = np.ones((6, 1500), dtype=np.uint8)
        values[[1, 3], 1200] = 2
        values[4, 1499] = 3
        assert _distinct_rows(values).tolist() == [0, 1, 0, 1, 4, 0]
        assert _distinct_rows(values.astype(float)).tolist() == [0, 1, 0, 1, 4, 0]

    def test_equal_values_with_other_bytes_are_other_rows(self):
        """0.0 and -0.0 compare equal but are other bytes; a NaN row repeats."""
        values = np.array([[0.0, 1.0], [-0.0, 1.0], [np.nan, 1.0], [0.0, 1.0], [np.nan, 1.0]])
        assert _distinct_rows(values).tolist() == [0, 1, 2, 0, 2]

    @pytest.mark.parametrize("shape", [(9, 8), (64, 64), (131, 66)])
    def test_hash_collisions_are_confirmed(self, monkeypatch, shape):
        """With every row's hash 0, each repeat is still found by its bytes."""
        zero = lambda count: np.zeros(count, np.uint64)  # noqa: E731
        monkeypatch.setattr(fourwell.spectral, "_hash_weights", zero)
        for values in self.arrays(shape):
            assert np.array_equal(_distinct_rows(values), whole_array.first_occurrence(values))

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_coeffs_with_repeats_equal_rfft2(self, shape):
        labels = repeating_labels(shape)
        for table in _SLOT_OF_LABEL:
            expected = np.fft.rfft2(table[labels].astype(float)) / labels.size
            assert np.array_equal(_coeffs(table[labels]), expected)
            assert np.array_equal(_coeffs(labels, table, _distinct_rows(labels)), expected)

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_row_spectra_are_the_distinct_rows_transformed(self, shape):
        """The distinct rows' row spectra; if no row repeats, the finished
        half spectrum instead."""
        uniform = np.random.default_rng(1).integers(1, 5, size=shape, dtype=np.uint8)
        for labels in (repeating_labels(shape), uniform):
            first = _distinct_rows(labels)
            for table in _SLOT_OF_LABEL:
                signs = table[labels].astype(float)
                spectra, where = _row_spectra(labels, first, table)
                assert spectra.shape[0] == np.count_nonzero(first == np.arange(shape[0]))
                if spectra.shape[0] == shape[0]:
                    assert np.array_equal(spectra, np.fft.rfft2(signs) / signs.size)
                else:
                    assert np.array_equal(spectra[where], np.fft.rfft(signs, axis=1))

    @pytest.mark.parametrize("shape", [(7, 9), (64, 12), (65, 12), (129, 66), (300, 8), (2, 40)])
    def test_streamed_fold_equals_the_blocked_fold(self, shape):
        """Gathered, transformed and summed a column slab at a time, the
        per-mode floats and their column sums are those of the half spectra."""
        grid = Grid(*shape)
        labels = repeating_labels(shape)
        first = _distinct_rows(labels)
        tables = _SLOT_OF_LABEL[:2]

        def term(k1, k2, d1, d2, a, b):
            return (a * np.conj(b)).real * (k1 - 2 * k2) + np.abs(a) * d1

        whole = _fold_blocks(term, grid, *(_coeffs(labels, table) for table in tables))
        assert _fold_rows(term, grid, *(_row_spectra(labels, first, t) for t in tables)) == whole


class TestDerivative:
    def test_single_mode(self):
        grid = Grid(32, 32)
        y1, y2 = coords(grid)
        f = ScalarField(grid, np.sin(2 * np.pi * y1) + 0.0 * y2)
        d = spectral_derivative(f, 0)
        assert_allclose(d.values, 2 * np.pi * np.cos(2 * np.pi * y1) + 0.0 * y2, atol=1e-12)
        assert np.abs(spectral_derivative(f, 1).values).max() < 1e-12

    def test_unpaired_mode_is_annihilated(self):
        """The alternating-sign mode has no usable derivative on an even grid."""
        grid = Grid(8, 8)
        signs = np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
        f = ScalarField(grid, np.tile(signs[:, None], (1, 8)))
        assert np.abs(f.values).min() == 1.0
        assert np.abs(spectral_derivative(f, 0).values).max() < 1e-12

    @pytest.mark.parametrize("axis", [0, 1])
    def test_unpaired_mode_is_annihilated_on_either_axis(self, axis):
        """The alternating sign along ``axis`` times a sine across it, whose
        modes all have the unpaired k = -4 along ``axis``.  Along axis 1 the
        real inverse transform drops what a factor 2 pi i k would leave in that
        column (it is imaginary), so there this pins the result, not the rule."""
        grid = Grid(8, 8)
        signs = np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
        across = np.sin(2 * np.pi * np.arange(8) / 8)
        values = np.outer(signs, across) if axis == 0 else np.outer(across, signs)
        f = ScalarField(grid, values)
        assert np.abs(f.values).max() == 1.0
        assert np.abs(spectral_derivative(f, axis).values).max() < 1e-12

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            spectral_derivative(random_field(Grid(4, 4), 0), 2)


class TestNegSobolev:
    def test_single_mode_frozen_values(self):
        grid = Grid(32, 32)
        y1, _ = coords(grid)
        f = ScalarField(grid, np.cos(2 * np.pi * y1) + np.zeros(grid.shape))
        assert neg_sobolev_norm(f, 1) == pytest.approx(0.7071067811865476, rel=1e-12)
        assert neg_sobolev_norm(f, 2) == pytest.approx(0.7071067811865476, rel=1e-12)
        g = ScalarField(grid, np.cos(2 * np.pi * 2 * y1) + np.zeros(grid.shape))
        assert neg_sobolev_norm(g, 1) == pytest.approx(np.sqrt(0.125), rel=1e-12)
        assert neg_sobolev_norm(g, 2) == pytest.approx(np.sqrt(0.03125), rel=1e-12)

    def test_full_weight_keeps_the_mean(self):
        grid = Grid(8, 8)
        f = ScalarField(grid, np.full(grid.shape, 3.0))
        assert neg_sobolev_norm(f, "full1") == pytest.approx(3.0, rel=1e-12)
        y1, _ = coords(grid)
        g = ScalarField(grid, np.cos(2 * np.pi * y1) + np.zeros(grid.shape))
        assert neg_sobolev_norm(g, "full1") == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_full_weight_at_a_second_harmonic(self, axis):
        """|k| = 2, where k^4 is not k^2: the weight 1 / (1 + 4) on the mean
        square 1/2 of the cosine."""
        grid = Grid(8, 8)
        y = coords(grid)[axis]
        f = ScalarField(grid, np.cos(2 * np.pi * 2 * y) + np.zeros(grid.shape))
        assert neg_sobolev_norm(f, "full1") == pytest.approx(np.sqrt(0.5 / 5), rel=1e-12)

    def test_rejects_nonzero_mean_and_bad_order(self):
        f = ScalarField(Grid(4, 4), np.ones((4, 4)))
        with pytest.raises(ValueError, match="zero-mean"):
            neg_sobolev_norm(f, 1)
        with pytest.raises(ValueError, match="order"):
            neg_sobolev_norm(f, 3)


class TestInvGradient:
    def test_single_mode_is_rescaled(self):
        grid = Grid(32, 32)
        _, y2 = coords(grid)
        f = ScalarField(grid, np.cos(2 * np.pi * y2) + np.zeros(grid.shape))
        expected = np.cos(2 * np.pi * y2) / (2 * np.pi) + np.zeros(grid.shape)
        assert_allclose(inv_gradient(f).values, expected, atol=1e-14)

    def test_gradient_magnitude_matches(self):
        grid = Grid(24, 24)
        f = ScalarField(grid, bandlimited(grid, 11).values)
        pot = inv_gradient(f)
        d1 = spectral_derivative(pot, 0).values
        d2 = spectral_derivative(pot, 1).values
        grad_sq = np.mean(d1**2 + d2**2)
        assert grad_sq == pytest.approx(np.mean(f.values**2), rel=1e-10)

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError, match="zero-mean"):
            inv_gradient(ScalarField(Grid(4, 4), np.ones((4, 4))))


class TestProjection:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("shape", [(16, 16), (16, 24), (15, 15)])
    def test_idempotent(self, seed, shape):
        grid = Grid(*shape)
        rng = np.random.default_rng(seed)
        w = VectorField(grid, rng.standard_normal(shape), rng.standard_normal(shape))
        once = leray_project(w)
        twice = leray_project(once)
        assert_allclose(twice.v1, once.v1, atol=1e-12)
        assert_allclose(twice.v2, once.v2, atol=1e-12)

    def test_output_has_zero_mean(self):
        grid = Grid(12, 12)
        rng = np.random.default_rng(3)
        w = VectorField(grid, rng.standard_normal(grid.shape) + 5.0, rng.standard_normal(grid.shape))
        pw = leray_project(w)
        assert abs(pw.v1.mean()) < 1e-12
        assert abs(pw.v2.mean()) < 1e-12

    def test_gradients_project_to_zero(self):
        grid = Grid(32, 32)
        psi = ScalarField(grid, bandlimited(grid, 4).values)
        w = VectorField(
            grid, spectral_derivative(psi, 0).values, spectral_derivative(psi, 1).values
        )
        pw = leray_project(w)
        assert np.abs(pw.v1).max() < 1e-10
        assert np.abs(pw.v2).max() < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_equals_curl_functional(self, seed):
        grid = Grid(64, 64)
        rng = np.random.default_rng(seed)
        w = VectorField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        assert leray_project(w).l2_norm() == pytest.approx(curl_neg_sobolev(w), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_pythagoras_with_remainder(self, seed):
        grid = Grid(32, 32)
        rng = np.random.default_rng(seed + 100)
        w = VectorField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        pw = leray_project(w)
        r1 = w.v1 - w.v1.mean() - pw.v1
        r2 = w.v2 - w.v2.mean() - pw.v2
        total = np.mean(w.v1**2 + w.v2**2)
        parts = (
            w.v1.mean() ** 2
            + w.v2.mean() ** 2
            + np.mean(pw.v1**2 + pw.v2**2)
            + np.mean(r1**2 + r2**2)
        )
        assert parts == pytest.approx(total, rel=1e-12)
        cross = np.mean(pw.v1 * r1 + pw.v2 * r2)
        assert abs(cross) < 1e-12


class TestHelmholtz:
    def test_recovers_potential_of_a_gradient(self):
        grid = Grid(48, 48)
        psi = ScalarField(grid, bandlimited(grid, 9).values)
        w = VectorField(
            grid, spectral_derivative(psi, 0).values, spectral_derivative(psi, 1).values
        )
        assert_allclose(helmholtz_potential(w).values, psi.values, atol=1e-11)

    def test_decomposition_for_bandlimited_input(self):
        """Gradient of the potential plus the projection rebuilds the field."""
        grid = Grid(32, 32)
        w = VectorField(grid, bandlimited(grid, 21).values, bandlimited(grid, 22).values)
        pot = helmholtz_potential(w)
        pw = leray_project(w)
        rebuilt1 = spectral_derivative(pot, 0).values + pw.v1 + w.v1.mean()
        rebuilt2 = spectral_derivative(pot, 1).values + pw.v2 + w.v2.mean()
        assert_allclose(rebuilt1, w.v1, atol=1e-11)
        assert_allclose(rebuilt2, w.v2, atol=1e-11)


class TestCurlFunctional:
    def test_zero_for_gradients(self):
        grid = Grid(32, 32)
        psi = ScalarField(grid, bandlimited(grid, 17).values)
        w = VectorField(
            grid, spectral_derivative(psi, 0).values, spectral_derivative(psi, 1).values
        )
        assert curl_neg_sobolev(w) < 1e-11

    def test_full_norm_for_rotated_gradients(self):
        """A divergence-free band-limited field is already its own projection."""
        grid = Grid(32, 32)
        psi = ScalarField(grid, bandlimited(grid, 18).values)
        w = VectorField(
            grid, -spectral_derivative(psi, 1).values, spectral_derivative(psi, 0).values
        )
        assert curl_neg_sobolev(w) == pytest.approx(w.l2_norm(), rel=1e-11)


class TestPerModeOracle:
    def test_matches_on_a_single_shear_mode(self):
        from fourwell.fields import ModifiedIndicators
        from fourwell.energy import relaxed_elastic_energy

        grid = Grid(16, 16)
        y1, _ = coords(grid)
        chi1 = np.cos(2 * np.pi * y1) + np.zeros(grid.shape)
        m = ModifiedIndicators(grid, chi1, np.zeros(grid.shape), np.zeros(grid.shape))
        oracle = permode_elastic_oracle(m)
        assert oracle == pytest.approx(relaxed_elastic_energy(m), rel=1e-12)
        assert oracle == pytest.approx(1.0, rel=1e-12)
