"""Fourier-side operations: norms, potentials, projections, and an oracle.

The private core (``_coeffs``, ``_value_rows``, ``_values``, ``_axis``,
``_modes``, ``_mode_blocks``, ``_ksq``, ``_drop``, ``_fold_sum``) is the only
owner of the package's Fourier conventions and of how transforms are blocked:

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
  column twice.  ``_fold_sum`` applies them, so Parseval reads
  ``_fold_sum(|c|^2) = mean |f|^2`` and norms below are mean-square.
* An unpaired frequency ``-n/2`` has no well-defined sign.  A sign-sensitive
  term is averaged over both sign representatives, which zeroes a term odd in
  that frequency.  Derivatives therefore drop the unpaired modes, and so do
  projections and potentials, whose multipliers hold odd powers of k.
* Negative-order weights divide by the integer ``|k|^2`` with the mean mode
  set to 1; derivatives carry the physical factor ``2 pi i d``.
* Blocks: ``_coeffs`` and ``_value_rows`` take the row pass of a 2-D
  transform a block of ``fields._BLOCK_ROWS`` rows at a time and run the
  column pass in place over the whole half spectrum (numpy's ``out=``), so
  the only full-size array a transform makes is its half spectrum, and each
  equals numpy's ``rfft2`` / ``irfft2`` bit for bit.  ``_coeffs`` can
  read its input as row blocks made on demand, and ``_value_rows`` hands its
  output over as row blocks, so callers that only reduce a field never hold
  it whole.  Per-mode work walks ``_mode_blocks``, the table cut to row
  blocks, and ``_fold_sum`` sums row blocks with the whole array's floats.

Callers that hold coefficients use the core directly, so the pricing pass
transforms each indicator once.  :func:`permode_elastic_oracle` keeps its own
plain full-spectrum ``fft2`` path on purpose: it checks the closed-form
multiplier in :mod:`fourwell.energy` and must share none of its algebra.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from .fields import Grid, ModifiedIndicators, ScalarField, VectorField, _row_blocks

__all__ = [
    "spectral_derivative",
    "neg_sobolev_norm",
    "inv_gradient",
    "leray_project",
    "helmholtz_potential",
    "curl_neg_sobolev",
    "permode_elastic_oracle",
]


def _coeffs(
    values: np.ndarray | Callable[[slice], np.ndarray], shape: tuple[int, int] | None = None
) -> np.ndarray:
    """Normalized half-spectrum Fourier coefficients of a real 2-D array.

    ``values`` is the array, or, with ``shape`` given, a function returning
    the real rows ``values(rows)`` of a row slice, so the rows can be made a
    block at a time.  Equal bit for bit to ``rfft2(values) / (n1 * n2)``,
    which takes the same two passes: the row ``rfft`` of each row block is
    written into one preallocated half spectrum, then the column ``fft``
    runs over it in place.
    """
    if shape is None:
        shape, values = values.shape, values.__getitem__
    n1, n2 = shape
    c = np.empty((n1, n2 // 2 + 1), dtype=complex)
    for rows in _row_blocks(n1):
        np.fft.rfft(values(rows), axis=1, out=c[rows])
    np.fft.fft(c, axis=0, out=c)
    c /= n1 * n2
    return c


def _value_rows(c: np.ndarray, shape: tuple[int, int]) -> Iterator[tuple[slice, np.ndarray]]:
    """Row blocks ``(rows, values)``, in order, of the real array of ``shape``
    whose normalized half-spectrum coefficients are ``c``.

    The shape is needed because an even n2 and the odd n2 + 1 have the same
    half-spectrum width.  Equal bit for bit to ``irfft2(c, s=shape) * n1 *
    n2``, in :func:`_coeffs`'s two passes reversed.  Consumes ``c``: before
    the first block, the column inverse runs in its buffer in place; each
    row block's inverse is then made as it is asked for.
    """
    n1, n2 = shape
    np.fft.ifft(c, axis=0, out=c)
    for rows in _row_blocks(n1):
        block = np.fft.irfft(c[rows], n2, axis=1)
        block *= n1 * n2
        yield rows, block


def _values(c: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The real array of :func:`_value_rows`, whole; consumes ``c``."""
    v = np.empty(shape)
    for rows, block in _value_rows(c, shape):
        v[rows] = block
    return v


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


def _mode_blocks(grid: Grid) -> Iterator[tuple]:
    """``(rows, k1, k2, d1, d2)`` for each row block of the half spectrum, in
    order: the mode table, built once, cut to the block's rows."""
    k1, k2, d1, d2 = _modes(grid)
    for rows in _row_blocks(grid.n1):
        yield rows, k1[rows], k2, d1[rows], d2


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


def _fold_sum(per_mode: np.ndarray | Iterable[np.ndarray], grid: Grid) -> float:
    """Sum over the full spectrum of a quantity equal at k and -k, from its half.

    ``per_mode`` is the half-spectrum array, or an iterable of its row blocks
    in order.  A column with d2 = 0 (column 0, and ``-n2/2`` on even n2) is its
    own mirror image and counts once; every other column stands for itself and
    its mirror and counts twice.  Each column is summed in row order either
    way (the running sums go into the first row of the next block, which is
    overwritten), so blocks give the whole array's float exactly.
    """
    weights = np.where(_modes(grid)[3][0] == 0, 1.0, 2.0)
    sums = None
    for block in [per_mode] if isinstance(per_mode, np.ndarray) else per_mode:
        if sums is not None:
            block[0] += sums
        sums = block.sum(axis=0)
    return float(sums @ weights)


def _deriv_coeffs(
    c: np.ndarray, grid: Grid, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Coefficients of the derivative along ``axis`` of the field with coefficients ``c``.

    Pass ``out=c`` to consume ``c`` rather than allocate another half spectrum.
    """
    return np.multiply(2j * np.pi * _modes(grid)[2 + axis], c, out=out)


def _profile_derivative(profile: np.ndarray) -> np.ndarray:
    """Spectral derivative of a periodic 1-D profile on the unit interval."""
    n = profile.size
    d = _axis(n)[1][: n // 2 + 1]
    return np.fft.irfft(np.fft.rfft(profile) * 2j * np.pi * d, n)


def _potential(c1: np.ndarray, c2: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients of the zero-mean potential of the curl-free part of (c1, c2).

    Consumes both inputs a row block at a time: the result is built in
    ``c1``'s buffer and returned, and ``c2`` is overwritten with ``k2 c2``.
    """
    for rows, k1, k2, d1, d2 in _mode_blocks(grid):
        a, b = c1[rows], c2[rows]
        np.multiply(k1, a, out=a)
        np.multiply(k2, b, out=b)
        a += b
        a /= 2j * np.pi * _ksq(k1, k2)
        _drop(a, k1, k2, d1, d2)
    return c1


def _full1_norm(c: np.ndarray, grid: Grid) -> float:
    """Inhomogeneous first-order negative norm of the field with coefficients
    ``c``: the root of the folded sum of ``|c|^2 / (1 + |k|^2)``, a row block
    at a time."""

    def weighted():
        for rows, k1, k2, _, _ in _mode_blocks(grid):
            block = np.abs(c[rows])
            np.square(block, out=block)
            block *= 1.0 / (1.0 + k1**2 + k2**2)
            yield block

    return float(np.sqrt(_fold_sum(weighted(), grid)))


def spectral_derivative(f: ScalarField, axis: int) -> ScalarField:
    """Partial derivative along one axis via the 2 pi i k multiplier."""
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis!r}")
    c = _deriv_coeffs(_coeffs(f.values), f.grid, axis)
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
    if s == "full1":
        return _full1_norm(_coeffs(f.values), f.grid)
    if s not in (1, 2):
        raise ValueError(f"order must be 1, 2 or 'full1', got {s!r}")
    c = _mean_coeff_checked(f, f"neg_sobolev_norm(s={s})")
    w = _ksq(*_modes(f.grid)[:2]) ** (-int(s))
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
    potential = _potential(_coeffs(w.v1), _coeffs(w.v2), grid)
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
