"""Fields on the periodic unit square and their discrete calculus.

Everything lives on a regular cell grid over [-1/2, 1/2)^2 with periodic
boundary conditions.  Arrays are indexed ``[j, i]`` where axis 0 runs along
the first coordinate and axis 1 along the second; cell centers sit at
``(index + 1/2) / n - 1/2``.

A microstructure is stored either as a :class:`PhaseField` of labels 1..4 or
as the equivalent :class:`ModifiedIndicators`, three fields with values in
{-1, +1} (int8 from :func:`to_modified`, back through :func:`from_modified`)
whose sign triple at each cell identifies the phase.  ``total_energy`` and the
rigidity report read the labels through ``_SLOT_OF_LABEL`` and make no slots.
Only four of the eight sign triples are admissible, since chi2t is always
chi1t * chi3t, so the two signs (chi1t, chi3t) fix the phase.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .model import ADMISSIBLE_TUPLES

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "PhaseField",
    "ModifiedIndicators",
    "to_modified",
    "from_modified",
    "volume_fractions",
    "total_variation",
    "shear_resample",
    "write_phase_field",
    "read_phase_field",
    "write_pgm",
]


@dataclass(frozen=True)
class Grid:
    """A periodic n1 x n2 cell grid on the unit square."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        for name in ("n1", "n2"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
        if int(self.n1) * int(self.n2) > np.iinfo(np.intp).max:
            raise ValueError(f"n1 = {self.n1}, n2 = {self.n2}: more cells than numpy can index")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis, in [-1/2, 1/2)."""
        n = self.shape[axis]
        return (np.arange(n) + 0.5) / n - 0.5


def _frame(grid: Grid, transpose: bool) -> Grid:
    """The grid a field on ``grid`` is seen on, turned if ``transpose``."""
    return Grid(grid.n2, grid.n1) if transpose else grid


# Rows per block wherever labels are made, expanded, written or read, or a
# transform's row pass is taken, a block at a time: a block's temporaries stay
# small beside the full-size arrays.
_BLOCK_ROWS = 64


def _row_blocks(n: int, size: int = _BLOCK_ROWS, first: int = 0):
    """Slices of at most ``size`` consecutive rows covering ``range(first, n)``."""
    return (slice(start, min(start + size, n)) for start in range(first, n, size))


def _check_shape(grid: Grid, values: np.ndarray, what: str) -> None:
    if values.shape != grid.shape:
        raise ValueError(
            f"{what} has shape {values.shape}, expected {grid.shape} from its grid"
        )


@dataclass(frozen=True)
class ScalarField:
    """Real values sampled at the cell centers of ``grid``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        _check_shape(self.grid, self.values, "ScalarField.values")


@dataclass(frozen=True)
class VectorField:
    """A pair of scalar components sampled on a common grid."""

    grid: Grid
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "v1", np.asarray(self.v1, dtype=float))
        object.__setattr__(self, "v2", np.asarray(self.v2, dtype=float))
        _check_shape(self.grid, self.v1, "VectorField.v1")
        _check_shape(self.grid, self.v2, "VectorField.v2")

    def l2_norm(self) -> float:
        return float(np.sqrt(np.mean(self.v1**2 + self.v2**2)))


@dataclass(frozen=True)
class PhaseField:
    """Integer phase labels 1..4 on a grid, stored as uint8.

    Any integer dtype is accepted; labels are checked as given, so an error
    names the offending value itself, and only then narrowed (without a copy
    when they are uint8 already).
    """

    grid: Grid
    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        _check_shape(self.grid, labels, "PhaseField.labels")
        if labels.min() < 1 or labels.max() > 4:  # the mask is built only to name the cell
            j, i = np.argwhere((labels < 1) | (labels > 4))[0]
            raise ValueError(f"phase label out of range 1..4 at cell ({j}, {i}): {labels[j, i]}")
        object.__setattr__(self, "labels", labels.astype(np.uint8, copy=False))


@dataclass(frozen=True)
class ModifiedIndicators:
    """The three sign fields (chi1t, chi2t, chi3t) of a microstructure.

    No admissibility is enforced here; raw triples are allowed so that
    intermediate constructions can be inspected.  :func:`from_modified`
    performs the strict check.  An int8 slot, as :func:`to_modified` gives,
    is kept as it is; any other input is cast to float64.  Both dtypes price
    alike, since every ±1 value and every sum of them is exact in float64.
    """

    grid: Grid
    chi1t: np.ndarray
    chi2t: np.ndarray
    chi3t: np.ndarray

    def __post_init__(self) -> None:
        for name in ("chi1t", "chi2t", "chi3t"):
            arr = np.asarray(getattr(self, name))
            if arr.dtype != np.int8:
                arr = arr.astype(float, copy=False)
            object.__setattr__(self, name, arr)
            _check_shape(self.grid, arr, f"ModifiedIndicators.{name}")


# Row s holds slot s of each label's sign triple (column 0 unused).
_SLOT_OF_LABEL = np.zeros((3, 5), dtype=np.int8)
for _phase, _t in enumerate(ADMISSIBLE_TUPLES, start=1):
    _SLOT_OF_LABEL[:, _phase] = _t


def to_modified(p: PhaseField) -> ModifiedIndicators:
    """Expand phase labels into their sign triples.

    Each slot is a contiguous int8 array of ±1, an eighth of the memory of a
    float64 field, filled a row block at a time so the labels are never
    widened to a full-size index array.  The three slots are views of one
    ``(3, n1, n2)`` allocation, so dropping them hands back one mapping rather
    than three heap chunks the allocator may keep.
    """
    slots = np.empty((len(_SLOT_OF_LABEL), *p.grid.shape), dtype=np.int8)
    for rows in _row_blocks(p.grid.n1):
        for table, slot in zip(_SLOT_OF_LABEL, slots):
            np.take(table, p.labels[rows], out=slot[rows], mode="clip")  # labels are 1..4
    return ModifiedIndicators(p.grid, *slots)


def from_modified(m: ModifiedIndicators) -> PhaseField:
    """Collapse sign triples back to phase labels.

    Raises ValueError naming the first offending cell (row-major order) if any
    triple is not one of the four admissible ones; an admissible triple's
    phase is then fixed by its two signs chi1t and chi3t.
    """
    c1, c2, c3 = m.chi1t, m.chi2t, m.chi3t
    bad = (np.abs(c1) != 1.0) | (np.abs(c2) != 1.0) | (np.abs(c3) != 1.0) | (c2 != c1 * c3)
    if bad.any():
        j, i = np.argwhere(bad)[0]
        raise ValueError(
            "inadmissible indicator triple at cell "
            f"({j}, {i}): ({c1[j, i]}, {c2[j, i]}, {c3[j, i]})"
        )
    return _from_signs(m.grid, c1, c3)


# Label of the admissible triple with signs chi1t (row 0) or chi2t (row 1)
# and chi3t, indexed by 2 * (that slot < 0) + (chi3t < 0).
_LABEL_OF_SIGNS = np.zeros((2, 4), dtype=np.uint8)
for _phase, _t in enumerate(ADMISSIBLE_TUPLES, start=1):
    for _slot in (0, 1):
        _LABEL_OF_SIGNS[_slot, 2 * (_t[_slot] < 0) + (_t[2] < 0)] = _phase


def _from_signs(grid: Grid, chi1t, chi3t, slot: int = 1) -> PhaseField:
    """Labels of the admissible triples (chi1t, chi1t * chi3t, chi3t).

    Only the signs of the two inputs are read, and each may be anything that
    broadcasts to ``grid.shape``: a scalar, a column, a row or a full array
    of any real dtype.  With ``slot=2`` the first input holds chi2t instead
    (an admissible triple is fixed by any two of its signs).  The labels are
    the one full-size array made: they are filled a row block at a time.
    """
    chi1t = np.broadcast_to(chi1t, grid.shape)
    chi3t = np.broadcast_to(chi3t, grid.shape)
    table = _LABEL_OF_SIGNS[slot - 1]
    labels = np.empty(grid.shape, dtype=np.uint8)
    for rows in _row_blocks(grid.n1):
        index = np.less(chi1t[rows], 0) * np.uint8(2)
        index += np.less(chi3t[rows], 0)
        np.take(table, index, out=labels[rows], mode="clip")  # index is 0..3
    return PhaseField(grid, labels)


def volume_fractions(p: PhaseField) -> tuple[float, float, float, float]:
    """Fraction of cells carrying each phase label, in label order."""
    # One boolean mask of a row block at a time: bincount would widen the
    # labels to intp, and a full-size mask freed before a report's transforms
    # raises glibc's mmap threshold and with it the report's peak RSS.
    blocks = [p.labels[block] for block in _row_blocks(p.grid.n1)]
    counts = (sum(np.count_nonzero(b == k) for b in blocks) for k in range(1, 5))
    total = p.labels.size
    return tuple(c / total for c in counts)  # type: ignore[return-value]


def total_variation(f: ScalarField) -> float:
    """Perimeter of a binary {0, 1} field: jump count weighted by face length.

    Jumps across faces perpendicular to axis 0 carry the transverse spacing
    1/n2 and vice versa, so for a resolved straight interface the result is
    its length.  Non-binary input is rejected.
    """
    v = f.values
    if not np.isin(v, (0.0, 1.0)).all():
        bad = ~np.isin(v, (0.0, 1.0))
        j, i = np.argwhere(bad)[0]
        raise ValueError(f"total_variation needs a 0/1 field; cell ({j}, {i}) holds {v[j, i]}")
    return _jump_mass(f)


def _jump_mass(f: ScalarField) -> float:
    """Anisotropic total gradient mass: one-cell jumps weighted by face length."""
    v = f.values
    n1, n2 = f.grid.shape
    jumps1 = np.abs(np.roll(v, -1, axis=0) - v).sum() / n2
    jumps2 = np.abs(np.roll(v, -1, axis=1) - v).sum() / n1
    return float(jumps1 + jumps2)


def shear_resample(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Translate each axis-0 row periodically along axis 1 by an integer shift.

    ``out[j, i] = values[j, (i + shifts[j]) % n2]``.  Shifts must be integers,
    one per row; positive shifts pull content toward smaller axis-1 indices.
    """
    values = np.asarray(values)
    shifts = np.asarray(shifts)
    if values.ndim != 2:
        raise ValueError(f"expected a 2d array, got shape {values.shape}")
    if shifts.shape != (values.shape[0],):
        raise ValueError(
            f"need one shift per row: shifts shape {shifts.shape}, rows {values.shape[0]}"
        )
    if not np.issubdtype(shifts.dtype, np.integer):
        if not np.equal(np.mod(shifts, 1), 0).all():
            raise ValueError("row shifts must be integers (whole grid cells)")
        shifts = shifts.astype(np.int64)
    n2 = values.shape[1]
    out = np.empty(values.shape, dtype=values.dtype)
    for j, s in enumerate((shifts % n2).tolist()):
        out[j, : n2 - s] = values[j, s:]
        out[j, n2 - s :] = values[j, :s]
    return out


# ---------------------------------------------------------------------------
# serialization
#
# Each format is written down once, by its writer.  Both writers build the
# header first, so a refused one writes nothing, then write the body a row
# block at a time: PhaseField guarantees labels 1..4, so each cell is one digit
# in a .field file and one table token in a PGM image.

_HEADER_KEY = r"[A-Za-z0-9_.\-]+"
_HEADER_RE = re.compile(rf"^# ({_HEADER_KEY})=(.*)$")
_HEAD_LINES = re.compile(rb"(?:#[^\n]*\n)*")  # the '#' lines a file opens with

# The PGM token "<gray><separator>" of each label 1..4 (column 0 unused),
# zero-padded to 4 bytes: row 0 ends in a space, row 1 ends an image row.
_PGM_TOKENS = np.array(
    [[b""] + [b"%d%s" % (85 * k, sep) for k in range(4)] for sep in (b" ", b"\n")],
    dtype="S4",
)


def _breaks_line(text: str) -> bool:
    """Whether ``str.splitlines``, which the reader splits a file with, splits ``text``."""
    return len((text + ".").splitlines()) > 1


def _header_lines(entries: Mapping[str, object]) -> str:
    """``# key=value`` lines sorted by key, each ending in LF.

    Keys must match the reader's key pattern and values, as ``str`` gives
    them, may hold no line break, so every line reads back unchanged.
    """
    entries = {key: str(value) for key, value in entries.items()}
    for key, value in entries.items():
        if not re.fullmatch(_HEADER_KEY, key):
            raise ValueError(f"header key {key!r} does not match {_HEADER_KEY}")
        if _breaks_line(value):
            raise ValueError(f"header entry {key!r} contains a newline or other line break")
    return "".join(f"# {key}={entries[key]}\n" for key in sorted(entries))


def _field_head(grid: Grid, header: Mapping[str, object]) -> bytes:
    """The header lines of a .field file: ``header`` and the grid's n1 and n2."""
    sizes = {"n1": str(grid.n1), "n2": str(grid.n2)}
    for key, size in sizes.items():
        if key in header and str(header[key]) != size:
            raise ValueError(f"header key {key!r} conflicts with the grid")
    return _header_lines({**header, **sizes}).encode("utf-8")


def _field_rows(labels: np.ndarray) -> np.ndarray:
    """The (rows, 2·n2) bytes of a .field file's rows of ``labels``: digits,
    single spaces, LF row ends."""
    n1, n2 = labels.shape
    rows = np.full((n1, 2 * n2), ord(" "), dtype=np.uint8)
    rows[:, 0::2] = labels + ord("0")
    rows[:, -1] = ord("\n")
    return rows


def write_phase_field(
    path: str | Path, p: PhaseField, header: Mapping[str, str] | None = None
) -> None:
    """Write labels as text: sorted ``# key=value`` lines, then one row per line.

    The keys n1 and n2 are always present; extra header entries must not
    collide with them.  Keys must match the reader's key pattern and values
    may hold no line break, so every accepted header reads back unchanged.
    The file is UTF-8, one digit per cell, single spaces and LF line ends;
    output is byte-deterministic for equal inputs.

    The header is checked before the file is opened, so a refused one leaves
    ``path`` as it was; the rows are then encoded and written a block at a
    time.
    """
    head = _field_head(p.grid, header or {})
    with open(path, "wb") as out:
        out.write(head)
        for rows in _row_blocks(p.grid.n1):
            out.write(_field_rows(p.labels[rows]))


def read_phase_field(path: str | Path) -> tuple[PhaseField, dict[str, str]]:
    """Inverse of :func:`write_phase_field`; returns field and header dict.

    Blank lines are skipped, header lines may stand anywhere, and labels may
    be separated by any whitespace; each label is read as ``int()`` reads it.
    Every error names the file, and the data row (counted from 0) at fault.

    Exactly the bytes the writer would write are decoded by a byte-level fast
    path; every other input, and every error, goes through the general
    grammar.  Both give identical results.
    """
    data = Path(path).read_bytes()
    try:
        return _read_canonical(data) or _parse_phase_field(data.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_canonical(data: bytes) -> tuple[PhaseField, dict[str, str]] | None:
    """Decode ``data`` as if :func:`write_phase_field` had written it.

    The decoded field and header are kept only if the writer's own encoders
    give ``data`` back byte for byte, so whatever this returns,
    :func:`_parse_phase_field` would return too.  Any other input gives None,
    and that parser decides it.
    """
    pos = _HEAD_LINES.match(data).end()
    try:
        header = dict(line[2:].split("=", 1) for line in data[:pos].decode("utf-8").splitlines())
        grid = Grid(int(header.get("n1", "")), int(header.get("n2", "")))
        rows = np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(grid.n1, 2 * grid.n2)
        field = PhaseField(grid, rows[:, 0::2] - np.uint8(ord("0")))
        if _field_head(grid, header) == data[:pos] and all(
            np.array_equal(_field_rows(field.labels[b]), rows[b]) for b in _row_blocks(grid.n1)
        ):
            return field, header
    except ValueError:  # not bytes the writer could have written
        pass
    return None


def _parse_phase_field(text: str) -> tuple[PhaseField, dict[str, str]]:
    header: dict[str, str] = {}
    rows: list[list[str] | np.ndarray] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _HEADER_RE.match(line)
        if m:
            header[m.group(1)] = m.group(2)
        else:
            rows.append(line.split())
    if "n1" not in header or "n2" not in header:
        raise ValueError("missing n1/n2 in header")
    grid = Grid(int(header["n1"]), int(header["n2"]))
    if len(rows) != grid.n1:
        raise ValueError(f"data has {len(rows)} rows, header shape {grid.shape} needs {grid.n1}")
    # Each row's tokens are replaced by its labels, so no array outgrows what was
    # read: the header may claim any width.
    for j, row in enumerate(rows):
        if len(row) != grid.n2:
            raise ValueError(f"row {j} has {len(row)} labels, expected {grid.n2}")
        try:
            rows[j] = np.array(row, dtype=np.int64)  # each str token cast as int() parses it
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"row {j}: {exc}") from None
    return PhaseField(grid, np.stack(rows)), header


def write_pgm(path: str | Path, p: PhaseField) -> None:
    """Render phase labels to a plain-text PGM image.

    Labels 1..4 map to gray levels 0, 85, 170, 255.  Image columns follow the
    first coordinate and rows the second, with the top row at the largest
    second coordinate so the picture matches the usual orientation.
    Image rows are encoded and written a block at a time.
    """
    image = p.labels.T[::-1, :]
    height, width = image.shape
    with open(path, "wb") as out:
        out.write(f"P2\n{width} {height}\n255\n".encode())
        for rows in _row_blocks(height):
            tokens = _PGM_TOKENS[0, image[rows]]
            tokens[:, -1] = _PGM_TOKENS[1, image[rows, -1]]
            out.write(tokens.tobytes().translate(None, b"\0"))  # drop the zero padding
