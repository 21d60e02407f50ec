"""Fourier-side operations: norms, potentials, projections, and an oracle.

The private core (``_distinct_rows``, ``_coeffs``, ``_row_spectra``,
``_values``, ``_axis``, ``_modes``, ``_frame_slabs``, ``_derivative_rows``,
``_slab_coeffs``, ``_sheared_rows``, ``_ksq``, ``_full1_weight``, ``_drop``,
``_fold``, ``_fold_sum``, ``_fold_blocks``, ``_fold_rows``, ``_fold_slabs``,
``_in_parts`` and their helpers) alone owns the Fourier
conventions, makes every transform, and owns how transforms and per-mode sums
are blocked, split across workers and folded; the modules on it write
per-mode formulas only and call no ``numpy.fft``:

* Every field is real, so only half of its spectrum is stored: coefficients
  are ``rfft2(values) / (n1 * n2)``, an ``n1 x (n2 // 2 + 1)`` array holding
  the modes with ``k2 >= 0``.  The other half is their complex conjugate.
* One mode table, ``_modes``, labels the half spectrum with integer
  frequencies k, from ``fftfreq(n) * n``, and derivative frequencies d: k
  with the unpaired even-grid mode ``-n/2`` zeroed, the rule ``_axis`` alone
  writes.  On even n2 the last column keeps the label ``-n2/2``.
* Fold weights: a sum over the full spectrum of a quantity equal at k and -k
  is the half spectrum's sum with each column where d2 = 0 (column 0, and the
  last on even n2) counted once, as its own mirror image, and every other
  column twice.  ``_fold`` applies them to column sums and ``_fold_sum`` to a
  per-mode array, so Parseval reads ``_fold_sum(|c|^2) = mean |f|^2`` and
  norms below are mean-square.
* An unpaired frequency ``-n/2`` has no well-defined sign.  A sign-sensitive
  term is averaged over both sign representatives, which zeroes a term odd in
  that frequency.  Derivatives therefore drop the unpaired modes, and so do
  projections and potentials, whose multipliers hold odd powers of k.
* Negative-order weights divide by the integer ``|k|^2`` with the mean mode
  set to 1, and ``_full1_weight`` is the one inhomogeneous weight
  ``1 / (1 + |k|^2)``; derivatives carry the physical factor ``2 pi i d``.
* Distinct rows: the paper's fields are piecewise constant, so most rows
  of a fine grid repeat.  ``_distinct_rows`` gives one map per field: for
  each row, the first row with the same bytes, found by hashing each row
  and confirming each repeat byte for byte, so the map holds no copy of a
  row.  A pricing or a report computes it once, from the labels, and each
  transform of that field starts from the spectra of its distinct rows,
  each row ``rfft`` taken once, a block of ``fields._BLOCK_ROWS`` rows at
  a time.  A transform can read an indicator slot straight from the phase
  labels, a row block looked up at a time, so no full-size slot is made.
* Two consumers of those row spectra.  ``_coeffs`` materialises: it writes
  each distinct row's spectrum into that row of one preallocated half
  spectrum, copies it to the repeats and runs the column pass in place
  over the whole half spectrum (numpy's ``out=``), so the only full-size
  array it makes is its half spectrum, and it equals numpy's ``rfft2`` bit
  for bit; ``_fold_blocks`` folds a per-mode term given the table and such
  half spectra cut to row blocks, with the whole array's column sums.
  ``_row_spectra`` and ``_fold_rows`` stream: the distinct rows' spectra
  make a compact d x (n2 // 2 + 1) array, and the fold walks column slabs,
  gathering rows by the map, taking the column ``fft`` and the scale, and
  summing each column of the per-mode term in row order, the floats
  ``_fold_blocks`` gives, with no half spectrum alive.  The one exception
  is a field with no repeated row: ``_row_spectra`` then finishes its
  spectra in place into the half spectrum at once, and ``_fold_rows`` folds
  them with ``_fold_blocks``.
* Workers: ``_in_parts`` runs a pass over ``range(n)`` (rows, columns or
  frame columns) on two threads from ``_SPLIT_CELLS`` (640^2) cells up when
  two CPUs are usable, else on one; numpy's transforms and array loops
  release the GIL.  Each worker takes its own contiguous span, cut by
  ``_cut``, and walks it in blocks or slabs ``1 / parts`` the one-worker
  size, so the workers' temporaries together stay one block's or one
  slab's.  ``_cut`` alone cuts spans and slabs, and never to one column
  unless there is only one, which numpy would sum pairwise.  So every 1-D
  transform is taken alone, every column is summed whole and in row order,
  and no output bit depends on the number of workers.
  ``rigidity.mixed_difference_sup`` splits its row offsets the same way,
  each worker with its own batch buffer.
* Frames: ``_frame_slabs`` walks a field's half spectrum, or its transpose's
  (an exact re-indexing, so no transform is taken twice), a slab of at most
  ``_SLAB_COLS`` columns at a time with the table cut to the slab, and
  ``_fold_slabs`` folds each row of column sums a per-slab term gives.
  A term's 1-D transforms are the core's too: ``_derivative_rows`` gives
  the row spectra of a slab's two derivatives (column inverses, so a row's
  normalized coefficients over n1), ``_slab_coeffs`` a slab's coefficients
  from its rows' unnormalised spectra (a column ``fft`` over n1 n2), and
  ``_sheared_rows`` the row spectra of a 1-D profile's derivative moved a
  whole number of cells per row, by roots of unity from one table.

Callers that hold coefficients use the core directly, so a report transforms
each indicator once.  :func:`permode_elastic_oracle` keeps its own plain
full-spectrum ``fft2`` path on purpose: it checks the closed-form multiplier
in :mod:`fourwell.energy` and must share none of its algebra.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

from .fields import (
    _BLOCK_ROWS,
    Grid,
    ModifiedIndicators,
    ScalarField,
    VectorField,
    _frame,
    _row_blocks,
)

__all__ = [
    "spectral_derivative",
    "neg_sobolev_norm",
    "inv_gradient",
    "leray_project",
    "helmholtz_potential",
    "curl_neg_sobolev",
    "permode_elastic_oracle",
]

# Columns per slab where a frame's half spectrum is walked a column slab at a
# time: a slab's temporaries stay a small fraction of one half spectrum.
_SLAB_COLS = 16

# A streamed fold (``_fold_rows``) walks slabs of ``n2 // _STREAM_SLABS``
# columns, split between workers: a slab's temporaries stay a few percent of
# one half spectrum.
_STREAM_SLABS = 32

# The odd multiplier that mixes each word of a row before it is hashed, and
# splitmix64's step between the weights of consecutive words.
_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)

# The words of each row hashed first: 512 bytes, 512 labels of a phase field.
_HASH_PREFIX_WORDS = 64

# The smallest grid, in cells, whose work is split across two workers.  On a
# 2-CPU machine, in medians of 8-10 interleaved rounds on random fields, two
# workers ran the label pricing and the report at 0.77-0.83x the speed of one
# at 512^2, 0.88-1.11x at 640^2, 0.97-1.48x at 768^2 and 1024^2, and
# 1.25-1.63x at 1280^2 and 1536^2.
_SPLIT_CELLS = 640 * 640


def _workers(cells: int) -> int:
    """How many parts the core splits a pass that visits ``cells`` cells
    into: 2 from ``_SPLIT_CELLS`` cells up when this process may run on at
    least two CPUs, else 1."""
    if cells < _SPLIT_CELLS:
        return 1
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        usable = os.cpu_count() or 1
    return 2 if usable >= 2 else 1


def _in_parts(work: Callable[[slice, int], object], n: int, cells: int) -> list:
    """``[work(span, parts) for span in _cut(n, parts)]`` with ``parts =
    _workers(cells)``, the parts run at once: part 0 in the caller, each other
    on a thread of its own.  ``cells`` counts the cells the whole pass visits:
    the grid's cells for a pass over one field, n1 n2 (n1 // 2) (n2 // 2) for
    the mixed-difference search, which visits a field once per offset pair.

    Every part finishes before this returns or raises; the first error of a
    part, in part order, is then raised here, so no error is lost and no
    thread outlives the call.
    """
    parts = _workers(cells)
    spans = _cut(n, parts)
    results: list = [None] * parts
    errors: list[BaseException | None] = [None] * parts

    def run(part: int) -> None:
        try:
            results[part] = work(spans[part], parts)
        except BaseException as exc:  # raised in the caller once all parts end
            errors[part] = exc

    threads = [threading.Thread(target=run, args=(part,)) for part in range(1, parts)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _cut(width: int, parts: int) -> list[slice]:
    """``range(width)`` cut into ``parts`` consecutive slices, as even as they
    come, the last ones empty if ``width`` is too small to give each two."""
    used = min(parts, max(1, width // 2))
    edges = [width * min(i, used) // max(used, 1) for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _hash_weights(count: int) -> np.ndarray:
    """One fixed pseudo-random uint64 weight per word of a row ``count``
    words wide: :func:`_distinct_rows` hashes a row as the wrapping sum of
    its mixed words times these.  They are splitmix64's outputs, computed
    here because importing ``numpy.random`` costs each process about 6 MB."""
    x = np.arange(1, count + 1, dtype=np.uint64) * _HASH_MIX
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(multiplier)
    x ^= x >> np.uint64(31)
    return x


def _distinct_rows(values: np.ndarray) -> np.ndarray:
    """The distinct-row map of a 2-D array: for each row, the first row with
    the same bytes (itself if none before it has them), as an intp array.

    Each worker (:func:`_in_parts`) hashes its span of rows, a few rows at a
    time so the hash terms stay one float row block: a row's bytes are read
    as the widest unsigned words that tile it, each word is mixed (a
    multiply and a xor-shift, so a difference in high bits reaches low ones)
    and the row's hash is the wrapping sum of its words times
    :func:`_hash_weights`.  The first ``_HASH_PREFIX_WORDS`` words are
    hashed first: rows whose prefixes differ differ, so if every prefix hash
    is its own, no row repeats and the rest is not read; else whole rows are
    hashed.  Rows are grouped by hash and each repeat is confirmed byte for byte
    against its group's first row, so no copy of a row is kept and a hash
    collision costs only a slower confirmation, never a wrong map."""
    n1 = values.shape[0]
    width = values.shape[1] * values.itemsize
    unit = next(size for size in (8, 4, 2, 1) if width % size == 0)
    weights = _hash_weights(width // unit)
    hashes = np.empty(n1, dtype=np.uint64)

    def hash_words(words: slice) -> tuple[np.ndarray, np.ndarray]:
        """Hash each row's words ``words``; return the rows in the order of
        their hashes, and the hashes in that order."""
        terms = weights[words]

        def hash_rows(span: slice, parts: int) -> None:
            size = max(1, _BLOCK_ROWS * values.shape[1] // (terms.size * parts))
            for rows in _row_blocks(span.stop, size, span.start):
                block = np.ascontiguousarray(values[rows]).view(f"u{unit}")[:, words]
                mixed = np.multiply(block, _HASH_MIX, dtype=np.uint64)
                mixed ^= mixed >> np.uint64(32)
                mixed *= terms
                mixed.sum(axis=1, out=hashes[rows])

        _in_parts(hash_rows, n1, values.size)
        order = np.argsort(hashes, kind="stable")
        return order, hashes[order]

    order, grouped = hash_words(slice(_HASH_PREFIX_WORDS))
    if weights.size > _HASH_PREFIX_WORDS:
        if (grouped[1:] != grouped[:-1]).all():
            return np.arange(n1, dtype=np.intp)
        order, grouped = hash_words(slice(None))
    starts = np.flatnonzero(np.concatenate([[True], grouped[1:] != grouped[:-1]]))
    first = np.empty(n1, dtype=np.intp)
    first[order] = order[np.repeat(starts, np.diff(np.append(starts, n1)))]
    repeats = np.flatnonzero(first != np.arange(n1))
    same = np.empty(repeats.size, dtype=bool)

    def confirm(span: slice, parts: int) -> None:
        for part in _row_blocks(span.stop, _BLOCK_ROWS // parts, span.start):
            rows = repeats[part]
            equal = values[rows].view(np.uint8) == values[first[rows]].view(np.uint8)
            equal.all(axis=1, out=same[part])

    if repeats.size:
        _in_parts(confirm, repeats.size, values.size)

    def row_bytes(row: int) -> np.ndarray:
        return np.ascontiguousarray(values[row]).view(np.uint8)

    for row in repeats[~same]:  # a hash collision: look through the group's earlier rows
        group = np.flatnonzero(hashes[:row] == hashes[row])
        group = group[first[group] == group]
        match = (j for j in group if np.array_equal(row_bytes(j), row_bytes(row)))
        first[row] = next(match, row)
    return first


def _as_slice(index: np.ndarray) -> slice | np.ndarray:
    """A sorted run of row indices as the slice it spans, if it has no gap."""
    if index.size and index[-1] - index[0] == index.size - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _rfft_rows(
    values: np.ndarray, table: np.ndarray | None, src: np.ndarray, out: np.ndarray, dst: np.ndarray
) -> None:
    """Write the row ``rfft`` of ``values[src]``, or of ``table[values[src]]``,
    into ``out[dst]``, each worker (:func:`_in_parts`) a row block of its span
    of ``src`` at a time, the block looked up just before its ``rfft``."""

    def row_pass(span: slice, parts: int) -> None:
        for part in _row_blocks(span.stop, _BLOCK_ROWS // parts, span.start):
            rows = _as_slice(src[part])
            block = values[rows] if table is None else np.take(table, values[rows], mode="clip")
            target = _as_slice(dst[part])
            if isinstance(target, slice):
                np.fft.rfft(block, axis=1, out=out[target])
            else:
                out[target] = np.fft.rfft(block, axis=1)

    _in_parts(row_pass, src.size, values.size)


def _finish(c: np.ndarray, cells: int) -> np.ndarray:
    """Turn the unnormalised row spectra ``c`` of every row of a field of
    ``cells`` cells into its normalized half spectrum, in place: the column
    ``fft``, then the division by n1 n2."""

    def column_pass(cols: slice, parts: int) -> None:
        half = c[:, cols]
        np.fft.fft(half, axis=0, out=half)

    def scale(rows: slice, parts: int) -> None:
        # Whole rows: numpy divides a column slice through iterator buffers.
        c[rows] /= cells

    _in_parts(column_pass, c.shape[1], cells)
    _in_parts(scale, c.shape[0], cells)
    return c


def _coeffs(
    values: np.ndarray, table: np.ndarray | None = None, first: np.ndarray | None = None
) -> np.ndarray:
    """Normalized half-spectrum Fourier coefficients of a real 2-D array, or,
    given a ``table``, of the array ``table[values]``.

    Equal bit for bit to ``rfft2(values) / (n1 * n2)``, which takes the same
    two passes.  The row ``rfft`` of each distinct row (``first``, the
    :func:`_distinct_rows` map of ``values``, computed here if not given) is
    written into its own row of one preallocated half spectrum and copied to
    its repeats; then the column ``fft`` runs over it in place.  With a
    table, such as one slot's row of ``fields._SLOT_OF_LABEL``, each row
    block of ``values`` (phase labels) is looked up just before its row
    ``rfft``, so the looked-up array is never made whole.
    """
    n1, n2 = values.shape
    if first is None:
        first = _distinct_rows(values)
    c = np.empty((n1, n2 // 2 + 1), dtype=complex)
    rows = np.arange(n1)
    distinct, repeats = np.flatnonzero(first == rows), np.flatnonzero(first != rows)
    _rfft_rows(values, table, distinct, c, distinct)

    def copy_pass(span: slice, parts: int) -> None:
        for part in _row_blocks(span.stop, _BLOCK_ROWS // parts, span.start):
            c[repeats[part]] = c[first[repeats[part]]]

    if repeats.size:
        _in_parts(copy_pass, repeats.size, values.size)
    return _finish(c, values.size)


def _row_spectra(
    values: np.ndarray,
    first: np.ndarray,
    table: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(spectra, where)``: the unnormalised row ``rfft`` of each distinct
    row of ``values`` (or of ``table[values]``), in the order of first
    occurrence, and for each row of ``values`` the index of its spectrum,
    read from ``first``, the :func:`_distinct_rows` map of ``values``.  The
    compact input of :func:`_fold_rows`: d rows for d distinct ones.

    If no row repeats, the spectra are every row's, so they are finished in
    place into the normalized half spectrum (:func:`_finish`) at once, while
    they are still in cache, and :func:`_fold_rows` folds them as they are.
    ``spectra`` is ``out``, a spent array whose memory is reused, when that
    has its shape (as another slot's under the same map has), so no fresh
    mapping is paid for; else a new array."""
    distinct = np.flatnonzero(first == np.arange(first.size))
    shape = (distinct.size, values.shape[1] // 2 + 1)
    spectra = out if out is not None and out.shape == shape else np.empty(shape, dtype=complex)
    _rfft_rows(values, table, distinct, spectra, np.arange(distinct.size))
    if distinct.size == first.size:
        _finish(spectra, values.size)
    return spectra, np.searchsorted(distinct, first)


def _values(c: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The real array of ``shape`` whose normalized half-spectrum coefficients
    are ``c``.

    The shape is needed because an even n2 and the odd n2 + 1 have the same
    half-spectrum width.
    """
    return np.fft.irfft2(c, s=shape) * (shape[0] * shape[1])


def _axis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One periodic axis: its integer frequencies in FFT order, and its
    derivative frequencies, the same with the unpaired mode ``-n/2`` zeroed."""
    k = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    return k, np.where(2 * k == -n, 0, k)


def _modes(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The half spectrum's frequencies ``k1, k2`` and derivative frequencies
    ``d1, d2``, shaped to broadcast; on even n2 the last column is ``-n2/2``."""
    (k1, d1), (k2, d2) = _axis(grid.n1), _axis(grid.n2)
    half = slice(grid.n2 // 2 + 1)
    return k1[:, None], k2[None, half], d1[:, None], d2[None, half]


def _frame_slabs(
    cs: Sequence[np.ndarray],
    grid: Grid,
    transpose: bool,
    span: slice = slice(None),
    width: int = _SLAB_COLS,
) -> Iterator[tuple]:
    """``(cols, modes, slabs)`` for each slab of at most ``width`` columns, in
    order, of the columns ``span`` of the half spectra ``cs`` of fields on
    ``grid`` seen on ``_frame(grid, transpose)``: the frame's table ``(k1, k2,
    d1, d2)`` cut to the slab, and each input's slab, the inputs left as they
    are.  :func:`_cut` cuts the span.

    Untransposed, a slab is the view ``c[:, cols]``.  Transposed, it is an
    exact re-indexing: frame coefficient ``[p, q]`` is ``c[q, p]`` for
    ``p <= n2 // 2``, and beyond that the conjugate of ``c[-q mod n1, n2 - p]``.
    """
    k1, k2, d1, d2 = _modes(_frame(grid, transpose))
    start, stop, _ = span.indices(k2.shape[1])
    count = stop - start
    mirror = slice(grid.n2 - grid.n2 // 2 - 1, 0, -1)  # columns n2 - p, p > n2 // 2
    for cut in _cut(count, -(-count // width)):
        cols = slice(start + cut.start, start + cut.stop)
        if transpose:
            minus_q = -np.arange(cols.start, cols.stop) % grid.n1
            slabs = [np.concatenate([c[cols].T, np.conj(c[minus_q, mirror].T)]) for c in cs]
        else:
            slabs = [c[:, cols] for c in cs]
        yield cols, (k1, k2[:, cols], d1, d2[:, cols]), slabs


def _ksq(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Float ``|k|^2``, the mean mode set to 1 so it can divide."""
    return np.maximum(k1**2 + k2**2, 1).astype(float)


def _drop(
    c: np.ndarray, k1: np.ndarray, k2: np.ndarray, d1: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """Zero the mean and the unpaired even-grid modes of ``c``, whose modes are
    ``k1, k2, d1, d2``, in place; return it.

    Unpaired modes are where differentiation zeroes a nonzero frequency.
    """
    c[(k1 != d1) | (k2 != d2) | ((k1 == 0) & (k2 == 0))] = 0.0
    return c


def _fold(sums: np.ndarray, grid: Grid) -> np.ndarray:
    """Sum over the full spectrum of a quantity equal at k and -k, from the
    column sums of its half on the last axis: a column with d2 = 0 (column 0,
    and ``-n2/2`` on even n2) is its own mirror image and counts once, every
    other column twice.  A pairwise sum, not BLAS: the same on every CPU."""
    return (sums * np.where(_modes(grid)[3][0] == 0, 1.0, 2.0)).sum(axis=-1)


def _fold_sum(per_mode: np.ndarray, grid: Grid) -> float:
    """:func:`_fold` of a half-spectrum array."""
    return float(_fold(per_mode.sum(axis=0), grid))


def _fold_blocks(term: Callable[..., np.ndarray], grid: Grid, *spectra: np.ndarray) -> float:
    """:func:`_fold` of the per-mode half-spectrum array whose row blocks are
    ``term(k1, k2, d1, d2, *blocks)``: the mode table and each of ``spectra``
    cut to the block.  Each worker (:func:`_in_parts`) sums its own span of
    columns in row order, the running sums added into the first row of the
    next block (``term`` returns a new array), so the sums are the whole
    array's floats."""
    k1, k2, d1, d2 = _modes(grid)

    def span_sums(cols: slice, parts: int) -> np.ndarray:
        sums = None
        for rows in _row_blocks(grid.n1):
            blocks = (c[rows, cols] for c in spectra)
            block = term(k1[rows], k2[:, cols], d1[rows], d2[:, cols], *blocks)
            if sums is not None:
                block[0] += sums
            sums = block.sum(axis=0)
        return sums

    sums = _in_parts(span_sums, grid.n2 // 2 + 1, grid.n1 * grid.n2)
    return float(_fold(np.concatenate(sums), grid))


def _fold_rows(term: Callable[..., np.ndarray], grid: Grid, *sources: tuple) -> float:
    """:func:`_fold_blocks` of ``term`` over the half spectra whose distinct
    row spectra are ``sources``, :func:`_row_spectra` pairs under one map,
    with no half spectrum made.

    Each worker (:func:`_in_parts`) walks its span of columns in slabs ``1 /
    parts`` of ``n2 // _STREAM_SLABS`` columns: it gathers each source's rows
    by the map, takes their column ``fft``, divides by n1 n2, evaluates
    ``term`` on the slab's table and sums each column in row order.  These
    are the floats the materialised half spectra give.  The one exception is
    a fold whose sources have no repeated row: :func:`_row_spectra` has then
    finished them into the half spectra, and :func:`_fold_blocks` folds them,
    as a walk over slabs of a whole half spectrum is slower.
    """
    n1, n2 = grid.shape
    if all(spectra.shape[0] == n1 for spectra, _ in sources):
        return _fold_blocks(term, grid, *(spectra for spectra, _ in sources))
    k1, k2, d1, d2 = _modes(grid)

    def span_sums(span: slice, parts: int) -> np.ndarray:
        sums = np.empty(span.stop - span.start)
        width = max(1, n2 // _STREAM_SLABS // parts)
        for cut in _cut(sums.size, -(-sums.size // width)):
            cols = slice(span.start + cut.start, span.start + cut.stop)
            slabs = []
            for spectra, where in sources:
                slab = np.take(spectra[:, cols], where, axis=0)
                np.fft.fft(slab, axis=0, out=slab)
                slab /= n1 * n2
                slabs.append(slab)
            sums[cut] = term(k1, k2[:, cols], d1, d2[:, cols], *slabs).sum(axis=0)
        return sums

    sums = _in_parts(span_sums, n2 // 2 + 1, n1 * n2)
    return float(_fold(np.concatenate(sums), grid))


def _fold_slabs(term: Callable, spectra: Sequence, grid: Grid, transpose: bool) -> list[float]:
    """:func:`_fold` on ``_frame(grid, transpose)`` of each row of the column
    sums ``term(cols, modes, *slabs)`` gives, a sequence of rows of the slab's
    width, for each slab of :func:`_frame_slabs` of ``spectra``, which
    each worker (:func:`_in_parts`) walks over its own span of columns in
    slabs ``1 / parts`` the one-worker width."""
    frame = _frame(grid, transpose)

    def walk(span: slice, parts: int) -> list[np.ndarray]:
        slabs = _frame_slabs(spectra, grid, transpose, span, _SLAB_COLS // parts)
        return [np.stack(term(cols, modes, *cut)) for cols, modes, cut in slabs]

    parts = _in_parts(walk, frame.n2 // 2 + 1, frame.n1 * frame.n2)
    sums = np.concatenate([piece for part in parts for piece in part], axis=1)
    return _fold(sums, frame).tolist()


def _derivative_rows(c: np.ndarray, modes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Row spectra of the two derivatives of the field whose coefficients on
    a frame slab are ``c``, with the slab's table ``modes``: the column
    inverses of ``2 pi i d1 c`` and ``2 pi i d2 c``, new arrays.  Each is a
    row's normalized coefficients over n1, so by Parseval on each row the
    mean square of a derivative is n1 times the fold of its squared moduli;
    callers scale the folded float, as n1 taken ahead of the fold moves bits."""
    _, _, d1, d2 = modes
    return np.fft.ifft(2j * np.pi * d1 * c, axis=0), np.fft.ifft(2j * np.pi * d2 * c, axis=0)


def _slab_coeffs(rows: np.ndarray, frame: Grid) -> np.ndarray:
    """Normalized coefficients, on a slab of ``frame``'s half spectrum, of the
    field whose unnormalised row spectra there are ``rows``: their column
    ``fft`` divided by n1 n2, a new array."""
    c = np.fft.fft(rows, axis=0)
    c /= frame.n1 * frame.n2
    return c


def _sheared_rows(
    profile: np.ndarray, mean: float, shifts: np.ndarray
) -> Callable[[slice], np.ndarray]:
    """``rows(cols)``: the unnormalised row spectra, at the half-spectrum
    columns ``cols``, of the field whose row j is ``mean`` plus the spectral
    derivative of the periodic 1-D ``profile`` on the unit interval, read
    ``shifts[j]`` whole cells on (row j at t is that profile at t + s_j).

    The profile's spectrum is the ``rfft`` of its derivative's values, the
    ``irfft`` of ``rfft(profile)`` times ``2 pi i d``, with ``n * mean``
    added to the mean mode; row j is it times ``exp(2 pi i q s_j / n)``, a
    root of unity from one table, so no row is transformed.  The round trip
    through the values is kept: dropping it moves the weak defect's bits.
    """
    n = profile.size
    d = _axis(n)[1][: n // 2 + 1]
    spectrum = np.fft.rfft(np.fft.irfft(np.fft.rfft(profile) * 2j * np.pi * d, n))
    spectrum[0] += n * mean
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    shifts = shifts[:, None]

    def rows(cols: slice) -> np.ndarray:
        return spectrum[cols] * roots[np.arange(cols.start, cols.stop) * shifts % n]

    return rows


def _full1_weight(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """The inhomogeneous first-order weight ``1 / (1 + |k|^2)``, which keeps
    the mean mode."""
    return 1.0 / (1.0 + k1**2 + k2**2)


def _potential(c1: np.ndarray, c2: np.ndarray, *modes: np.ndarray) -> np.ndarray:
    """Coefficients of the zero-mean potential of the curl-free part of (c1, c2),
    whose ``modes`` are ``k1, k2, d1, d2``, the whole table or a slab's; a new
    array, the inputs left as they are."""
    k1, k2, d1, d2 = modes
    u = k1 * c1
    u += k2 * c2
    u /= 2j * np.pi * _ksq(k1, k2)
    return _drop(u, k1, k2, d1, d2)


def spectral_derivative(f: ScalarField, axis: int) -> ScalarField:
    """Partial derivative along one axis via the 2 pi i k multiplier."""
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis!r}")
    c = 2j * np.pi * _modes(f.grid)[2 + axis] * _coeffs(f.values)
    return ScalarField(f.grid, _values(c, f.grid.shape))


def _mean_coeff_checked(f: ScalarField, what: str) -> np.ndarray:
    c = _coeffs(f.values)
    scale = max(1.0, float(np.sqrt(np.mean(f.values**2))))
    if abs(c[0, 0]) > 1e-12 * scale:
        raise ValueError(f"{what} requires a zero-mean field; mean is {c[0, 0].real:.3e}")
    return c


def neg_sobolev_norm(f: ScalarField, s: int | str = 1) -> float:
    """Negative-order norm of a scalar field.

    ``s=1`` and ``s=2`` weight squared coefficients by ``|k|^(-2s)`` over
    nonzero modes and reject fields with nonzero mean.  ``s="full1"`` uses the
    inhomogeneous weight ``1/(1+|k|^2)`` and keeps the mean.
    """
    if s not in (1, 2, "full1"):
        raise ValueError(f"order must be 1, 2 or 'full1', got {s!r}")
    k1, k2 = _modes(f.grid)[:2]
    if s == "full1":
        c, w = _coeffs(f.values), _full1_weight(k1, k2)
    else:
        c = _mean_coeff_checked(f, f"neg_sobolev_norm(s={s})")
        w = _ksq(k1, k2) ** (-int(s))
        w[0, 0] = 0.0
    return float(np.sqrt(_fold_sum(np.abs(c) ** 2 * w, f.grid)))


def inv_gradient(f: ScalarField) -> ScalarField:
    """The zero-mean potential with ``|gradient| = |f|`` mode by mode.

    Divides each nonzero coefficient by ``2 pi |k|``; the gradient of the
    result has the same mean-square size as the negative-order content of
    ``f`` measured with physical frequencies.
    """
    c = _mean_coeff_checked(f, "inv_gradient")
    c /= 2.0 * np.pi * np.sqrt(_ksq(*_modes(f.grid)[:2]))
    c[0, 0] = 0.0
    return ScalarField(f.grid, _values(c, f.grid.shape))


def leray_project(w: VectorField) -> VectorField:
    """Divergence-free part of a vector field, mean and unpaired modes removed.

    Acts as the transverse projection on every properly paired nonzero mode;
    the remainder ``w - mean - Pw`` is exactly orthogonal to the result, so
    the three pieces split the mean-square size of ``w`` with no cross term.
    """
    grid = w.grid
    c1, c2 = _coeffs(w.v1), _coeffs(w.v2)
    k1, k2, d1, d2 = _modes(grid)
    dot = (k1 * c1 + k2 * c2) / _ksq(k1, k2)
    p1 = _drop(c1 - k1 * dot, k1, k2, d1, d2)
    p2 = _drop(c2 - k2 * dot, k1, k2, d1, d2)
    return VectorField(grid, _values(p1, grid.shape), _values(p2, grid.shape))


def helmholtz_potential(w: VectorField) -> ScalarField:
    """Zero-mean scalar u whose gradient is the curl-free part of ``w``."""
    grid = w.grid
    potential = _potential(_coeffs(w.v1), _coeffs(w.v2), *_modes(grid))
    return ScalarField(grid, _values(potential, grid.shape))


def curl_neg_sobolev(w: VectorField) -> float:
    """Size of the rotational content: the lattice curl in the H^-1 weight.

    Mode by mode the weighted curl modulus equals the modulus of the
    transverse projection, so over the same paired modes the result
    coincides with the mean-square size of :func:`leray_project` of ``w``.
    """
    grid = w.grid
    c1, c2 = _coeffs(w.v1), _coeffs(w.v2)
    k1, k2, d1, d2 = _modes(grid)
    weighted = _drop(np.abs(k1 * c2 - k2 * c1) ** 2 / _ksq(k1, k2), k1, k2, d1, d2)
    return float(np.sqrt(_fold_sum(weighted, grid)))


def _indicator_coeffs(
    m: ModifiedIndicators,
) -> tuple[Grid, np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's own full-spectrum transforms, independent of the core's ``_coeffs``."""
    n = m.grid.n1 * m.grid.n2
    return (
        m.grid,
        np.fft.fft2(m.chi1t) / n,
        np.fft.fft2(m.chi2t) / n,
        np.fft.fft2(m.chi3t) / n,
    )


def _least_squares_misfit(
    k1: np.ndarray, k2: np.ndarray, coeffs: tuple[np.ndarray, ...], modes: np.ndarray
) -> float:
    """Summed squared misfit of the best compatible strain over the selected modes."""
    c1, c2, c3 = coeffs
    q = np.stack(
        [2.0 * np.pi * k1[modes], 2.0 * np.pi * k2[modes], np.zeros(int(modes.sum()))], axis=1
    )
    target = np.zeros((q.shape[0], 3, 3), dtype=complex)
    target[:, 0, 1] = target[:, 1, 0] = c3[modes]
    target[:, 0, 2] = target[:, 2, 0] = c2[modes]
    target[:, 1, 2] = target[:, 2, 1] = c1[modes]

    qsq = (q**2).sum(axis=1)
    normal = qsq[:, None, None] * np.eye(3)[None] + q[:, :, None] * q[:, None, :]
    rhs = 2.0 * np.einsum("mij,mj->mi", target, q.astype(complex))
    disp = np.linalg.solve(normal.astype(complex), rhs[:, :, None])[:, :, 0]
    strain = 0.5 * (q[:, :, None] * disp[:, None, :] + disp[:, :, None] * q[:, None, :])
    return float((np.abs(strain - target) ** 2).sum())


def permode_elastic_oracle(m: ModifiedIndicators) -> float:
    """Relaxed elastic energy by brute-force least squares, mode by mode.

    For every nonzero frequency the target matrix carries the indicator
    coefficients on its off-diagonal; the best compatible strain at that
    frequency is ``sym(2 pi i k (x) u)`` over all complex displacements u,
    found by solving the 3x3 normal equations directly.  An unpaired
    even-grid frequency ``-n/2`` has no sign, so at such a mode the problem is
    solved for every sign representative and the misfits are averaged.  The
    summed squared misfits equal the relaxed elastic energy; this routine
    exists as an independent check of the closed-form multiplier and shares
    none of its algebra.
    """
    grid, *coeffs = _indicator_coeffs(m)
    n1, n2 = grid.shape
    k1, k2 = np.broadcast_arrays(
        np.rint(np.fft.fftfreq(n1) * n1)[:, None], np.rint(np.fft.fftfreq(n2) * n2)[None, :]
    )
    unpaired1, unpaired2 = 2 * k1 == -n1, 2 * k2 == -n2
    unpaired = unpaired1 | unpaired2
    paired = ~unpaired & ((k1 != 0) | (k2 != 0))
    total = _least_squares_misfit(k1, k2, coeffs, paired)
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        q1, q2 = np.where(unpaired1, s1 * k1, k1), np.where(unpaired2, s2 * k2, k2)
        total += 0.25 * _least_squares_misfit(q1, q2, coeffs, unpaired)
    return total
