"""Tests for grids, fields, the label/indicator bijection and serialization."""

import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fourwell import fields
from fourwell.fields import _BLOCK_ROWS as BLOCK_ROWS
from fourwell.fields import (
    Grid,
    ModifiedIndicators,
    PhaseField,
    ScalarField,
    VectorField,
    _from_signs,
    _parse_phase_field,
    from_modified,
    read_phase_field,
    shear_resample,
    to_modified,
    total_variation,
    volume_fractions,
    write_pgm,
    write_phase_field,
)
from fourwell.model import ADMISSIBLE_TUPLES


def const_indicators(grid, c1, c2, c3):
    return ModifiedIndicators(
        grid,
        np.full(grid.shape, float(c1)),
        np.full(grid.shape, float(c2)),
        np.full(grid.shape, float(c3)),
    )


class TestGrid:
    def test_properties(self):
        g = Grid(4, 8)
        assert g.shape == (4, 8)

    def test_axis_coords_are_cell_centers(self):
        g = Grid(4, 8)
        assert_allclose(g.axis_coords(0), [-0.375, -0.125, 0.125, 0.375], rtol=0)
        assert g.axis_coords(1).shape == (8,)
        assert g.axis_coords(1)[0] == -0.5 + 1.0 / 16.0

    # The last three have more cells than numpy can index; numpy integers
    # must not wrap around when multiplied.
    @pytest.mark.parametrize(
        "bad",
        [(1, 4), (4, 1), (0, 4), (-2, 4), (4.0, 4)]
        + [(3037000500, 3037000500), (10**20, 2), (np.int64(2**32), np.int64(2**32))],
    )
    def test_rejects_degenerate_sizes(self, bad):
        with pytest.raises(ValueError):
            Grid(*bad)

    def test_accepts_every_grid_numpy_can_index(self):
        assert 3037000499**2 <= np.iinfo(np.intp).max
        assert Grid(3037000499, 3037000499).shape == (3037000499, 3037000499)


class TestFieldContainers:
    def test_scalar_field_checks_shape(self):
        with pytest.raises(ValueError, match="shape"):
            ScalarField(Grid(4, 4), np.zeros((4, 5)))

    def test_vector_field_norm(self):
        grid = Grid(2, 2)
        w = VectorField(grid, np.full(grid.shape, 3.0), np.full(grid.shape, 4.0))
        assert w.l2_norm() == pytest.approx(5.0, rel=1e-15)

    def test_phase_field_rejects_bad_label_naming_cell(self):
        # labels are checked before they are narrowed, so 260 is not read as 4
        for dtype, bad in product([np.int64, np.int16], [7, 260, -1]):
            labels = np.ones((4, 4), dtype=dtype)
            labels[2, 3] = bad
            with pytest.raises(ValueError, match=rf"\(2, 3\): {bad}$"):
                PhaseField(Grid(4, 4), labels)

    def test_phase_field_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integer"):
            PhaseField(Grid(2, 2), np.ones((2, 2)))


class TestBijection:
    @pytest.mark.parametrize("phase", [1, 2, 3, 4])
    def test_roundtrip_constant(self, phase):
        grid = Grid(3, 5)
        p = PhaseField(grid, np.full(grid.shape, phase, dtype=np.int64))
        m = to_modified(p)
        triple = (m.chi1t[0, 0], m.chi2t[0, 0], m.chi3t[0, 0])
        assert triple == ADMISSIBLE_TUPLES[phase - 1]
        back = from_modified(m)
        assert np.array_equal(back.labels, p.labels)

    def test_roundtrip_mixed_field(self):
        grid = Grid(2, 2)
        p = PhaseField(grid, np.array([[1, 2], [3, 4]], dtype=np.int64))
        assert np.array_equal(from_modified(to_modified(p)).labels, p.labels)

    def test_every_other_triple_is_rejected(self):
        grid = Grid(2, 2)
        admissible = set(ADMISSIBLE_TUPLES)
        rejected = 0
        for triple in product((-1, 0, 1), repeat=3):
            if triple in admissible:
                from_modified(const_indicators(grid, *triple))
                continue
            with pytest.raises(ValueError, match="inadmissible"):
                from_modified(const_indicators(grid, *triple))
            rejected += 1
        assert rejected == 23

    def test_slots_are_contiguous_int8_signs(self):
        grid = Grid(7, 9)
        p = PhaseField(grid, np.random.default_rng(0).integers(1, 5, size=grid.shape))
        m = to_modified(p)
        for slot in (m.chi1t, m.chi2t, m.chi3t):
            assert slot.dtype == np.int8 and slot.flags.c_contiguous
            assert set(np.unique(slot)) == {-1, 1}

    def test_int8_slots_are_kept_and_other_inputs_cast(self):
        grid = Grid(3, 4)
        signs = np.ones(grid.shape, dtype=np.int8)
        m = ModifiedIndicators(grid, signs, signs.astype(np.int64), signs.astype(np.float32))
        assert m.chi1t is signs
        assert m.chi2t.dtype == m.chi3t.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_int8_slots_off_the_signs_are_rejected(self, dtype):
        """(16, 0, 16) has c1 * c3 == c2 in int8, where 16 * 16 wraps to 0."""
        grid = Grid(3, 4)
        m = to_modified(PhaseField(grid, np.ones(grid.shape, dtype=np.int64)))
        slots = [m.chi1t.copy(), m.chi2t.copy(), m.chi3t.copy()]
        for slot, value in zip(slots, (16, 0, 16)):
            slot[1, 2] = value
        assert (slots[0] * slots[2])[1, 2] == slots[1][1, 2]
        broken = ModifiedIndicators(grid, *(slot.astype(dtype) for slot in slots))
        with pytest.raises(ValueError, match=r"inadmissible indicator triple at cell \(1, 2\)"):
            from_modified(broken)

    def test_rejection_names_first_bad_cell(self):
        grid = Grid(3, 4)
        m = to_modified(PhaseField(grid, np.full(grid.shape, 2, dtype=np.int64)))
        chi2 = m.chi2t.copy()
        chi2[1, 2] = -chi2[1, 2]
        broken = ModifiedIndicators(grid, m.chi1t, chi2, m.chi3t)
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            from_modified(broken)


class TestFromSigns:
    """``_from_signs`` gives the labels ``from_modified`` gives for the slaved triple."""

    @staticmethod
    def through_triple(grid, c1, c3):
        c1, c3 = (np.broadcast_to(np.asarray(c, dtype=float), grid.shape) for c in (c1, c3))
        return from_modified(ModifiedIndicators(grid, c1, c1 * c3, c3)).labels

    @pytest.mark.parametrize(
        "shape", [(7, 7), (8, 8), (6, 9), (9, 4), (BLOCK_ROWS + 1, 3), (2 * BLOCK_ROWS + 3, 5)]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.int8])
    def test_full_sign_fields(self, shape, dtype):
        grid = Grid(*shape)
        rng = np.random.default_rng(sum(shape))
        c1, c3 = rng.choice(np.array([-1, 1], dtype=dtype), size=(2, *shape))
        labels = _from_signs(grid, c1, c3).labels
        assert labels.dtype == np.uint8 and labels.flags.c_contiguous
        assert np.array_equal(labels, self.through_triple(grid, c1, c3))
        assert set(np.unique(labels)) == {1, 2, 3, 4}

    @pytest.mark.parametrize("shape", [(7, 7), (8, 8), (6, 9)])
    def test_broadcast_signs(self, shape):
        grid = Grid(*shape)
        rng = np.random.default_rng(len(shape) + shape[1])
        full = rng.choice([-1.0, 1.0], size=shape)
        column = rng.choice(np.array([-1, 1], dtype=np.int8), size=(shape[0], 1))
        row = rng.choice([-1.0, 1.0], size=(1, shape[1]))
        for c1, c3 in [(1, column), (-1.0, row), (column, row), (row, full), (full, -1), (-1, 1)]:
            expected = self.through_triple(grid, c1, c3)
            assert np.array_equal(_from_signs(grid, c1, c3).labels, expected)

    @pytest.mark.parametrize(
        "shape", [(7, 7), (6, 9), (BLOCK_ROWS + 1, 3), (2 * BLOCK_ROWS + 3, 5)]
    )
    def test_signs_of_the_second_slot(self, shape):
        """With ``slot=2`` the first input is chi2t: no product field is needed."""
        grid = Grid(*shape)
        rng = np.random.default_rng(sum(shape) + 1)
        c2, c3 = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2, *shape))
        labels = _from_signs(grid, c2, c3, slot=2).labels
        assert np.array_equal(labels, self.through_triple(grid, c2 * c3, c3))
        column = c3[:, :1]
        labels = _from_signs(grid, 1, column, slot=2).labels
        assert np.array_equal(labels, self.through_triple(grid, column, column))

    def test_transposed_signs_give_c_ordered_labels(self):
        grid = Grid(6, 9)
        c1 = np.random.default_rng(2).choice([-1.0, 1.0], size=(9, 6)).T
        labels = _from_signs(grid, c1, np.ones((6, 1))).labels
        assert labels.flags.c_contiguous
        assert np.array_equal(labels, self.through_triple(grid, c1, 1))


def test_volume_fractions_counts_labels():
    p = PhaseField(Grid(2, 2), np.array([[1, 2], [3, 4]], dtype=np.int64))
    assert volume_fractions(p) == (0.25, 0.25, 0.25, 0.25)
    q = PhaseField(Grid(2, 2), np.array([[1, 1], [1, 3]], dtype=np.int64))
    assert volume_fractions(q) == (0.75, 0.0, 0.25, 0.0)


def test_volume_fractions_hold_little_beside_the_labels(float_fields_peak):
    """One boolean mask at a time (1/8 of the unit): the labels are never
    widened to a full-size index array."""
    grid = Grid(512, 512)
    labels = np.random.default_rng(0).integers(1, 5, grid.shape, dtype=np.uint8)
    p = PhaseField(grid, labels)
    counts = np.bincount(labels.ravel(), minlength=5)[1:5]
    assert volume_fractions(p) == tuple(counts / labels.size)
    assert float_fields_peak(lambda: volume_fractions(p), grid) <= 0.2


class TestTotalVariation:
    def test_two_stripes_have_perimeter_two(self):
        grid = Grid(8, 8)
        v = np.zeros(grid.shape)
        v[4:, :] = 1.0
        assert total_variation(ScalarField(grid, v)) == 2.0

    def test_checkerboard(self):
        grid = Grid(6, 4)
        i, j = np.indices(grid.shape)
        v = ((i + j) % 2).astype(float)
        assert total_variation(ScalarField(grid, v)) == float(grid.n1 + grid.n2)

    def test_rejects_nonbinary_naming_cell(self):
        v = np.zeros((4, 4))
        v[1, 3] = 0.5
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            total_variation(ScalarField(Grid(4, 4), v))


class TestShearResample:
    def test_index_convention(self):
        v = np.array([[0.0, 1.0, 2.0, 3.0], [10.0, 11.0, 12.0, 13.0]])
        out = shear_resample(v, np.array([1, -1]))
        assert_allclose(out[0], [1.0, 2.0, 3.0, 0.0], rtol=0)
        assert_allclose(out[1], [13.0, 10.0, 11.0, 12.0], rtol=0)

    def test_roundtrip_and_period(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((6, 9))
        shifts = rng.integers(-20, 20, size=6)
        out = shear_resample(shear_resample(v, shifts), -shifts)
        assert_allclose(out, v, rtol=0)
        assert_allclose(shear_resample(v, shifts + 9), shear_resample(v, shifts), rtol=0)

    def test_rejects_fractional_shifts(self):
        with pytest.raises(ValueError, match="integer"):
            shear_resample(np.zeros((2, 4)), np.array([0.5, 0.0]))

    def test_rejects_a_non_2d_array(self):
        with pytest.raises(ValueError, match="expected a 2d array"):
            shear_resample(np.zeros(4), np.array([0]))

    def test_rejects_wrong_shift_count(self):
        with pytest.raises(ValueError, match="one shift per row"):
            shear_resample(np.zeros((2, 4)), np.array([1, 2, 3]))

    @staticmethod
    def gather(values, shifts):
        """Reference: the whole shear as one fancy-index gather."""
        n1, n2 = values.shape
        cols = (np.arange(n2)[None, :] + np.asarray(shifts).astype(np.int64)[:, None]) % n2
        return values[np.arange(n1)[:, None], cols]

    @pytest.mark.parametrize("shape", [(5, 7), (6, 8), (3, 10), (4, 1)])
    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float64])
    def test_matches_the_gather(self, shape, dtype):
        rng = np.random.default_rng(shape[0] * shape[1])
        n1, n2 = shape
        values = (rng.integers(0, 2 if dtype is np.bool_ else 100, size=shape)).astype(dtype)
        shifts = rng.integers(-50 * n2, 50 * n2, size=n1)
        shifts[0] = n2
        shifts[-1] = -3 * n2 - 1
        for s in (shifts, shifts.astype(np.float64)):
            out = shear_resample(values, s)
            assert out.dtype == values.dtype
            assert np.array_equal(out, self.gather(values, s))

    @pytest.mark.parametrize("shape", [(5, 7), (6, 8), (4, 1)])
    def test_read_only_broadcast_input(self, shape):
        rng = np.random.default_rng(1)
        n1, n2 = shape
        row = rng.standard_normal(n2)
        values = np.broadcast_to(row[None, :], shape)
        shifts = rng.integers(-10 * n2, 10 * n2, size=n1)
        out = shear_resample(values, shifts)
        assert out.flags.writeable and out.dtype == values.dtype
        assert np.array_equal(out, self.gather(values, shifts))


class TestSerialization:
    def test_roundtrip_with_header(self, tmp_path):
        grid = Grid(3, 4)
        labels = np.array([[1, 2, 3, 4], [4, 3, 2, 1], [1, 1, 2, 2]], dtype=np.int64)
        p = PhaseField(grid, labels)
        path = tmp_path / "field.field"
        write_phase_field(path, p, {"kind": "test", "eta": "0.01"})
        back, header = read_phase_field(path)
        assert np.array_equal(back.labels, labels)
        assert header["kind"] == "test"
        assert header["eta"] == "0.01"
        assert header["n1"] == "3" and header["n2"] == "4"

    def test_write_is_deterministic(self, tmp_path):
        p = PhaseField(Grid(2, 2), np.array([[1, 2], [3, 4]], dtype=np.int64))
        write_phase_field(tmp_path / "a", p, {"z": "1", "a": "2"})
        write_phase_field(tmp_path / "b", p, {"a": "2", "z": "1"})
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_header_collision_and_newline_rejected(self, tmp_path):
        p = PhaseField(Grid(2, 2), np.ones((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="conflicts"):
            write_phase_field(tmp_path / "x", p, {"n1": "99"})
        with pytest.raises(ValueError, match="newline"):
            write_phase_field(tmp_path / "x", p, {"note": "a\nb"})

    def test_read_requires_matching_shape(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("# n1=2\n# n2=2\n1 2\n")
        with pytest.raises(ValueError, match="shape"):
            read_phase_field(path)
        (tmp_path / "nohdr.field").write_text("1 2\n3 4\n")
        with pytest.raises(ValueError, match="n1/n2"):
            read_phase_field(tmp_path / "nohdr.field")

    def test_pgm_layout(self, tmp_path):
        labels = np.array([[1, 2, 3], [4, 1, 2]], dtype=np.int64)
        p = PhaseField(Grid(2, 3), labels)
        path = tmp_path / "img.pgm"
        write_pgm(path, p)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 3"
        assert lines[2] == "255"
        # top image row shows the largest second coordinate: labels[:, 2]
        assert lines[3] == "170 85"
        assert lines[4] == "85 0"
        assert lines[5] == "0 255"


DATA = Path(__file__).parent / "data"
GOLDEN_HEADER = {"note": "odd non-square grid"}


def golden_field():
    """The 7x9 field whose files ``data/golden_7x9.*`` pin both byte layouts.

    Its last row and last column each hold every label, so rows of both files
    end in every token, and PGM rows end in tokens of width 1, 2 and 3.
    """
    j, i = np.indices((7, 9))
    return PhaseField(Grid(7, 9), (i * (j + 1) + j) % 4 + 1)


def edit_rows(text, edit):
    """Apply ``edit`` to each data line (without its line end) of a .field text."""
    lines = text.splitlines()
    return "".join((line if line.startswith("#") else edit(line)) + "\n" for line in lines)


def edit_row(text, j, edit):
    """Apply ``edit`` to the token list of data row ``j`` only."""
    lines = text.splitlines()
    at = [n for n, line in enumerate(lines) if not line.startswith("#")][j]
    lines[at] = " ".join(edit(lines[at].split()))
    return "".join(line + "\n" for line in lines)


GOLDEN_TEXT = (DATA / "golden_7x9.field").read_text(encoding="utf-8")

# Inputs the reader accepts besides the writer's own layout; each must read as
# the golden file does.
READER_VARIANTS = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "tabs and runs of spaces": lambda t: edit_rows(t, lambda line: line.replace(" ", " \t  ")),
    "blank lines": lambda t: "\n  \t\n" + t.replace("\n", "\n\n"),
    "header lines after the data": lambda t: "".join(
        sorted(t.splitlines(keepends=True), key=lambda line: line.startswith("# n"))
    ),
    "signs and leading zeros": lambda t: edit_rows(
        t, lambda line: " ".join(("+" if tok == "1" else "0") + tok for tok in line.split())
    ),
}

# Inputs the reader refuses with ValueError: the message names the file, and
# the data row where there is one, and matches the pattern.
READER_REJECTS = {
    "label 5": (lambda t: edit_row(t, 0, lambda r: ["5"] + r[1:]), "out of range"),
    "label 0": (lambda t: edit_row(t, 6, lambda r: r[:-1] + ["0"]), "out of range"),
    "float token": (lambda t: edit_row(t, 3, lambda r: ["1.0"] + r[1:]), "row 3: invalid literal"),
    "word token": (lambda t: edit_row(t, 3, lambda r: r[:4] + ["x"] + r[5:]), "row 3: invalid literal"),
    "oversized token": (lambda t: edit_row(t, 4, lambda r: r[:2] + ["9" * 20] + r[3:]), "row 4: "),
    "ragged row": (lambda t: edit_row(t, 2, lambda r: r[:-1]), "row 2 has 8 labels, expected 9$"),
    "missing n1": (lambda t: t.replace("# n1=7\n", ""), "missing n1/n2"),
    "missing n2": (lambda t: t.replace("# n2=9\n", ""), "missing n1/n2"),
    "non-integer n1": (lambda t: t.replace("# n1=7\n", "# n1=7.0\n"), "invalid literal"),
    "extra row": (lambda t: t + "1 2 3 4 1 2 3 4 1\n", "shape"),
    "missing row": (lambda t: t.rsplit("\n", 2)[0] + "\n", "shape"),
    "header larger than its file": (
        lambda t: "# n1=1000000000\n# n2=1000000000\n" + t.splitlines(keepends=True)[-1],
        r"data has 1 rows, header shape \(1000000000, 1000000000\) needs 1000000000$",
    ),
    "header wider than its rows": (
        lambda t: "# n1=2\n# n2=1000000000000\n1 2\n3 4\n",
        "row 0 has 2 labels, expected 1000000000000$",
    ),
}


def outcome(read, prefix=""):
    """What a read gives: labels with their dtype and the ordered header, or the error text."""
    try:
        field, header = read()
    except ValueError as exc:
        return prefix + str(exc)
    return field.labels.tolist(), field.labels.dtype, list(header.items())


def edit_nth(text, pattern, repl, at):
    """Replace match number ``at`` (cyclically) of ``pattern`` in ``text``, if there is one."""
    found = list(re.finditer(pattern, text))
    if not found:
        return text
    m = found[at % len(found)]
    return text[: m.start()] + m.expand(repl) + text[m.end() :]


# One-edit departures from the writer's layout, as (head, body, at) -> text;
# ``at`` picks the place or form of the edit where there is a choice.  A line
# break goes into the last header line, the one that holds an extra entry.
LAYOUT_MUTATIONS = {
    "tab": lambda h, b, at: h + edit_nth(b, " ", "\t", at),
    "crlf": lambda h, b, at: h + edit_nth(b, "\n", "\r\n", at),
    "plus sign": lambda h, b, at: h + edit_nth(b, "[1-4]", r"+\g<0>", at),
    "label 5": lambda h, b, at: h + edit_nth(b, "[1-4]", "5", at),
    "label 0": lambda h, b, at: h + edit_nth(b, "[1-4]", "0", at),
    "missing row": lambda h, b, at: h + "".join(b.splitlines(keepends=True)[:-1]),
    "extra row": lambda h, b, at: h + b + b.splitlines(keepends=True)[at % b.count("\n")],
    "missing final LF": lambda h, b, at: h + b[:-1],
    "header line after the data": lambda h, b, at: (
        edit_nth(h, ".*\n", "", at) + b + h.splitlines(keepends=True)[at % h.count("\n")]
    ),
    "trailing blank line": lambda h, b, at: h + b + "\n",
    "form feed in a header value": lambda h, b, at: h[:-1] + "\x0c" + "x" * (at % 2) + "\n" + b,
    "carriage return in a header value": lambda h, b, at: h[:-1] + "\r" + "x" * (at % 2) + "\n" + b,
    "byte order mark": lambda h, b, at: "\ufeff" + h + b,
    "unsorted keys": lambda h, b, at: "".join(reversed(h.splitlines(keepends=True))) + b,
    "duplicate key": lambda h, b, at: edit_nth(h, ".*\n", r"\g<0>\g<0>", at) + b,
    "leading zero in a size": lambda h, b, at: h.replace(f"# n{1 + at % 2}=", f"# n{1 + at % 2}=0") + b,
}


def one_shot_field(p, header):
    """The .field bytes of ``p`` built in one piece: the oracle of the blocked writer."""
    n1, n2 = p.grid.shape
    head = "".join(f"# {k}={v}\n" for k, v in sorted({**header, "n1": n1, "n2": n2}.items()))
    body = "".join(" ".join(map(str, row)) + "\n" for row in p.labels.tolist())
    return (head + body).encode("utf-8")


def one_shot_pgm(p):
    """The PGM bytes of ``p`` built in one piece: the oracle of the blocked writer."""
    n1, n2 = p.grid.shape
    image = p.labels.T[::-1].tolist()
    body = "".join(" ".join(str(85 * (label - 1)) for label in row) + "\n" for row in image)
    return f"P2\n{n1} {n2}\n255\n{body}".encode("ascii")


# Shapes whose rows (.field) or columns (PGM image rows) end a block early,
# on, just after and two blocks after a block edge.
BLOCK_EDGES = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
BLOCK_SHAPES = [(2, 2), (7, 9), (3, 10), (10, 3)]
BLOCK_SHAPES += [(n, 5) for n in BLOCK_EDGES] + [(5, n) for n in BLOCK_EDGES]


class TestRowBlocks:
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_blocked_writers_equal_the_one_shot_encoding(self, tmp_path, shape):
        labels = np.random.default_rng(sum(shape)).integers(1, 5, shape)
        field = PhaseField(Grid(*shape), labels)
        write_phase_field(tmp_path / "w.field", field, GOLDEN_HEADER)
        write_pgm(tmp_path / "w.pgm", field)
        assert (tmp_path / "w.field").read_bytes() == one_shot_field(field, GOLDEN_HEADER)
        assert (tmp_path / "w.pgm").read_bytes() == one_shot_pgm(field)

    @pytest.mark.parametrize("n1", BLOCK_EDGES)
    def test_fast_path_compares_every_block(self, n1):
        """A same-length edit in the last row of any block sends the file to the
        general parser."""
        field = PhaseField(Grid(n1, 3), np.random.default_rng(n1).integers(1, 5, (n1, 3)))
        data = one_shot_field(field, {})
        assert fields._read_canonical(data) is not None
        body = data.index(b"\n", data.index(b"# n2=")) + 1
        for j in sorted({*range(BLOCK_ROWS - 1, n1, BLOCK_ROWS), n1 - 1}):
            at = body + 6 * j + 1  # the space after row j's first label
            assert fields._read_canonical(data[:at] + b"\t" + data[at + 1 :]) is None

    def test_a_refused_header_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "x.field"
        path.write_bytes(b"# n1=2\n# n2=2\n1 2\n3 4\n")
        for header in ({"n1": "99"}, {"note": "a\nb"}, {"my key": "1"}):
            with pytest.raises(ValueError):
                write_phase_field(path, golden_field(), header)
            assert path.read_bytes() == b"# n1=2\n# n2=2\n1 2\n3 4\n"

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_slots_are_filled_a_block_at_a_time(self, shape):
        labels = np.random.default_rng(sum(shape)).integers(1, 5, shape)
        m = to_modified(PhaseField(Grid(*shape), labels))
        for got, slot in zip((m.chi1t, m.chi2t, m.chi3t), range(3)):
            expected = np.array([t[slot] for t in ADMISSIBLE_TUPLES], dtype=np.int8)[labels - 1]
            assert got.dtype == np.int8 and np.array_equal(got, expected)

    def test_slots_hold_little_beside_themselves(self, float_fields_peak):
        """Three int8 slots (3/8 of the unit) and one block of index temporaries:
        the labels are never widened to a full-size index array."""
        grid = Grid(512, 512)
        field = PhaseField(grid, np.random.default_rng(0).integers(1, 5, grid.shape, dtype=np.uint8))
        assert float_fields_peak(lambda: to_modified(field), grid) <= 0.7

    def test_writers_and_reader_hold_little_beside_the_labels(self, tmp_path, float_fields_peak):
        """Writing holds one block; reading holds the file's bytes (2 bytes a
        cell), the uint8 labels (1 byte) and one block."""
        grid = Grid(512, 512)
        labels = np.random.default_rng(0).integers(1, 5, grid.shape, dtype=np.uint8)
        field = PhaseField(grid, labels)
        path = tmp_path / "p.field"
        assert float_fields_peak(lambda: write_phase_field(path, field, {"k": "v"}), grid) <= 0.1
        assert float_fields_peak(lambda: write_pgm(tmp_path / "p.pgm", field), grid) <= 0.25
        assert float_fields_peak(lambda: read_phase_field(path), grid) <= 0.5


class TestFileFormats:
    def test_writers_reproduce_the_golden_bytes(self, tmp_path):
        write_phase_field(tmp_path / "g.field", golden_field(), GOLDEN_HEADER)
        write_pgm(tmp_path / "g.pgm", golden_field())
        assert (tmp_path / "g.field").read_bytes() == (DATA / "golden_7x9.field").read_bytes()
        assert (tmp_path / "g.pgm").read_bytes() == (DATA / "golden_7x9.pgm").read_bytes()

    def test_golden_image_rows_end_in_every_token_width(self):
        rows = (DATA / "golden_7x9.pgm").read_text().splitlines()[3:]
        assert {len(row.split()[-1]) for row in rows} == {1, 2, 3}

    @pytest.mark.parametrize("variant", sorted(READER_VARIANTS))
    def test_reader_accepts_the_same_grammar(self, tmp_path, variant):
        text = READER_VARIANTS[variant](GOLDEN_TEXT)
        assert text != GOLDEN_TEXT
        path = tmp_path / "v.field"
        path.write_bytes(text.encode("utf-8"))
        field, header = read_phase_field(path)
        assert np.array_equal(field.labels, golden_field().labels)
        assert header == {"n1": "7", "n2": "9", **GOLDEN_HEADER}

    @pytest.mark.parametrize("case", sorted(READER_REJECTS))
    def test_reader_rejects_malformed_input_naming_the_file(self, tmp_path, case):
        mutate, match = READER_REJECTS[case]
        path = tmp_path / "bad.field"
        path.write_text(mutate(GOLDEN_TEXT), encoding="utf-8")
        with pytest.raises(ValueError, match=match) as info:
            read_phase_field(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "header",
        [{"note": "a\rb"}, {"note": "a\x85b"}, {"note": "v\u2028w"}, {"my key": "1"}, {"k=": "1"}],
        ids=["cr", "nel", "line-separator", "space-in-key", "equals-in-key"],
    )
    def test_headers_the_reader_cannot_read_are_refused(self, tmp_path, header):
        with pytest.raises(ValueError, match="line break|does not match"):
            write_phase_field(tmp_path / "x.field", golden_field(), header)
        assert not (tmp_path / "x.field").exists()

    @given(
        st.dictionaries(
            st.one_of(st.from_regex(r"[A-Za-z0-9_.\-]+", fullmatch=True), st.text(max_size=4)),
            st.text(max_size=12),
            max_size=4,
        )
    )
    def test_every_accepted_header_reads_back(self, tmp_path_factory, header):
        path = tmp_path_factory.mktemp("header") / "h.field"
        try:
            write_phase_field(path, golden_field(), header)
        except ValueError:
            return
        field, back = read_phase_field(path)
        assert back == {"n1": "7", "n2": "9", **header}
        assert np.array_equal(field.labels, golden_field().labels)

    @pytest.mark.parametrize(
        "shape", [(5, 7), (6, 8), (3, 10), (2, 2), (BLOCK_ROWS + 1, 3), (2 * BLOCK_ROWS + 3, 2)]
    )
    def test_writer_output_never_reaches_the_general_parser(self, tmp_path, monkeypatch, shape):
        def refuse(text):
            raise AssertionError("the writer's layout reached the general parser")

        written = tmp_path / "w.field"
        field = PhaseField(Grid(*shape), np.random.default_rng(shape[1]).integers(1, 5, size=shape))
        write_phase_field(written, field, {"note": "a = ü b"})
        monkeypatch.setattr(fields, "_parse_phase_field", refuse)
        back, header = read_phase_field(written)
        assert np.array_equal(back.labels, field.labels) and back.labels.dtype == np.uint8
        assert header == {"n1": str(shape[0]), "n2": str(shape[1]), "note": "a = ü b"}
        golden, header = read_phase_field(DATA / "golden_7x9.field")
        assert np.array_equal(golden.labels, golden_field().labels)
        assert header == {"n1": "7", "n2": "9", **GOLDEN_HEADER}

    def test_writer_layout_reads_uint8_labels_without_a_copy(self, monkeypatch):
        decoded = []

        class Spy(PhaseField):
            def __post_init__(self):
                decoded.append(self.labels)
                super().__post_init__()

        monkeypatch.setattr(fields, "PhaseField", Spy)
        field, _ = read_phase_field(DATA / "golden_7x9.field")
        assert field.labels.dtype == np.uint8 and field.labels is decoded[0]

    @pytest.mark.parametrize("mutation", sorted(LAYOUT_MUTATIONS))
    @pytest.mark.parametrize("at", [0, 1, 5])
    def test_fast_path_takes_only_the_bytes_the_writer_writes(self, mutation, at):
        head_end = GOLDEN_TEXT.index("\n1 ") + 1
        head, body = GOLDEN_TEXT[:head_end], GOLDEN_TEXT[head_end:]
        text = LAYOUT_MUTATIONS[mutation](head, body, at)
        assert text != GOLDEN_TEXT
        assert fields._read_canonical(text.encode("utf-8")) is None
        assert fields._read_canonical(GOLDEN_TEXT.encode("utf-8")) is not None

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"# n1=2\n# k=\xff\n# n2=2\n1 2\n3 4\n", "byte 0xff in position 11: invalid start byte"),
            (b"# n1=2\n# n2=2\n1 2\n3 \xe2\x82\n", "bytes in position 20-21: invalid continuation byte"),
        ],
        ids=["in-header", "in-body"],
    )
    def test_invalid_utf8_is_refused_at_its_first_bad_byte(self, tmp_path, data, reason):
        path = tmp_path / "bad.field"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_phase_field(path)
        assert str(info.value) == f"{path}: 'utf-8' codec can't decode {reason}"

    @settings(max_examples=300)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        extra=st.dictionaries(
            st.from_regex(r"[A-Za-z0-9_.\-]+", fullmatch=True).filter(
                lambda k: k not in ("n1", "n2")
            ),
            st.text(alphabet=" =üx0", max_size=5),
            max_size=3,
        ),
        mutation=st.sampled_from([None, *sorted(LAYOUT_MUTATIONS)]),
        at=st.integers(0, 40),
        data=st.data(),
    )
    def test_fast_path_reads_what_the_general_parser_reads(
        self, tmp_path_factory, shape, extra, mutation, at, data
    ):
        n1, n2 = shape
        digits = data.draw(st.lists(st.sampled_from("1234"), min_size=n1 * n2, max_size=n1 * n2))
        head = "".join(f"# {k}={v}\n" for k, v in {"n1": n1, "n2": n2, **extra}.items())
        body = "".join(" ".join(digits[j * n2 : (j + 1) * n2]) + "\n" for j in range(n1))
        text = head + body if mutation is None else LAYOUT_MUTATIONS[mutation](head, body, at)
        path = tmp_path_factory.mktemp("layout") / "f.field"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(lambda: read_phase_field(path)) == outcome(
            lambda: _parse_phase_field(text), prefix=f"{path}: "
        )

