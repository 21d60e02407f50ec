"""Fourier-side operations: norms, potentials, projections, and an oracle.

The private core (``_coeffs``, ``_values``, ``_axis``, ``_modes``,
``_frame_slabs``, ``_derivative_rows``, ``_slab_coeffs``, ``_sheared_rows``,
``_ksq``, ``_full1_weight``, ``_drop``, ``_fold``, ``_fold_sum``,
``_fold_blocks``, ``_fold_slabs``, ``_in_parts``) alone owns the Fourier
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
* Blocks: ``_coeffs`` takes the row pass of a 2-D transform a block of
  ``fields._BLOCK_ROWS`` rows at a time and runs the column pass in place
  over the whole half spectrum (numpy's ``out=``), so the only full-size
  array it makes is its half spectrum, and it equals numpy's ``rfft2`` bit
  for bit.  It can read an indicator slot straight from the phase labels,
  a row block looked up at a time, so pricing needs no full-size slot.
  ``_fold_blocks`` folds a per-mode term given the table and the half
  spectra cut to row blocks, with the whole array's column sums.
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


def _coeffs(values: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """Normalized half-spectrum Fourier coefficients of a real 2-D array, or,
    given a ``table``, of the array ``table[values]``.

    Equal bit for bit to ``rfft2(values) / (n1 * n2)``, which takes the same
    two passes: the row ``rfft`` of each row block is written into one
    preallocated half spectrum, then the column ``fft`` runs over it in place.
    With a table, such as one slot's row of ``fields._SLOT_OF_LABEL``, each
    row block of ``values`` (phase labels) is looked up just before its row
    ``rfft``, so the looked-up array is never made whole.
    """
    n1, n2 = values.shape
    c = np.empty((n1, n2 // 2 + 1), dtype=complex)

    def row_pass(span: slice, parts: int) -> None:
        for rows in _row_blocks(span.stop, _BLOCK_ROWS // parts, span.start):
            block = values[rows] if table is None else np.take(table, values[rows], mode="clip")
            np.fft.rfft(block, axis=1, out=c[rows])

    def column_pass(cols: slice, parts: int) -> None:
        half = c[:, cols]
        np.fft.fft(half, axis=0, out=half)

    def scale(rows: slice, parts: int) -> None:
        # Whole rows: numpy divides a column slice through iterator buffers.
        c[rows] /= n1 * n2

    for work, n in ((row_pass, n1), (column_pass, c.shape[1]), (scale, n1)):
        _in_parts(work, n, values.size)
    return c


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
