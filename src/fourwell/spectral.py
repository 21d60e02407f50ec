"""Fourier-side operations: norms, potentials, projections, and an oracle.

The private core (``_coeffs``, ``_values``, ``_half``, ``_freqs``,
``_deriv_freqs``, ``_ksq``, ``_drop``, ``_fold_sum``) is the only owner of the
package's Fourier conventions:

* Every field is real, so only half of its spectrum is stored: coefficients
  are ``rfft2(values) / (n1 * n2)``, an ``n1 x (n2 // 2 + 1)`` array holding
  the modes with ``k2 >= 0``.  The other half is their complex conjugate.
* Frequencies are the integer lattice duals from ``fftfreq(n) * n``; on even
  grids the unpaired mode sits at ``-n/2``, and on even n2 the last column of
  the half spectrum keeps that label.
* Fold weights: a sum over the full spectrum of a quantity that takes equal
  values at k and -k is the half spectrum's sum with column 0, and the last
  column on even n2, counted once (each is its own mirror image) and every
  other column counted twice (for itself and its mirror).  ``_fold_sum``
  applies them, so Parseval reads ``_fold_sum(|c|^2) = mean |f|^2`` and norms
  below are mean-square quantities.
* An unpaired frequency ``-n/2`` has no well-defined sign.  A sign-sensitive
  term is averaged over both sign representatives, which zeroes a term odd in
  that frequency.  Derivatives therefore drop the unpaired modes, and so do
  projections and potentials, whose multipliers hold odd powers of k.
* Negative-order weights divide by the integer ``|k|^2`` with the mean mode
  set to 1; derivatives carry the physical factor ``2 pi i k``.

Callers that hold coefficients use the core directly, so a rigidity report
transforms each indicator once.  :func:`permode_elastic_oracle` keeps its own
plain full-spectrum ``fft2`` path on purpose: it checks the closed-form
multiplier in :mod:`fourwell.energy` and must share none of its algebra.
"""

from __future__ import annotations

import numpy as np

from .fields import Grid, ModifiedIndicators, ScalarField, VectorField

__all__ = [
    "spectral_derivative",
    "neg_sobolev_norm",
    "inv_gradient",
    "leray_project",
    "helmholtz_potential",
    "curl_neg_sobolev",
    "permode_elastic_oracle",
]


def _coeffs(values: np.ndarray) -> np.ndarray:
    """Normalized half-spectrum Fourier coefficients of a real 2-D array."""
    c = np.fft.rfft2(values)
    c /= values.size
    return c


def _values(c: np.ndarray, grid: Grid) -> np.ndarray:
    """Real values on ``grid`` whose normalized half-spectrum coefficients are ``c``.

    The grid shape is needed because an even n2 and the odd n2 + 1 have the
    same half-spectrum width.  Scaled in place, so no second full-size array
    is allocated.
    """
    v = np.fft.irfft2(c, s=grid.shape)
    v *= v.size
    return v


def _axis_freqs(n: int) -> np.ndarray:
    """Integer frequencies of one periodic axis, in FFT order."""
    return np.rint(np.fft.fftfreq(n) * n).astype(np.int64)


def _axis_deriv_freqs(n: int) -> np.ndarray:
    """Axis frequencies for differentiation: the unpaired mode ``-n/2`` zeroed."""
    k = _axis_freqs(n)
    return np.where(2 * k == -n, 0, k)


def _half(k: np.ndarray) -> np.ndarray:
    """The frequencies of one axis that a real transform keeps: 0 .. n // 2.

    On even n the last one keeps its label ``-n/2``.
    """
    return k[: k.size // 2 + 1]


def _freqs(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Integer frequencies, shaped to broadcast over a half-spectrum array."""
    return _axis_freqs(grid.n1)[:, None], _half(_axis_freqs(grid.n2))[None, :]


def _deriv_freqs(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies for differentiation: unpaired even-grid modes zeroed."""
    return _axis_deriv_freqs(grid.n1)[:, None], _half(_axis_deriv_freqs(grid.n2))[None, :]


def _ksq(grid: Grid) -> np.ndarray:
    """Float ``|k|^2`` with the mean mode set to 1, so it can divide."""
    k1, k2 = _freqs(grid)
    ksq = (k1**2 + k2**2).astype(float)
    ksq[0, 0] = 1.0
    return ksq


def _drop(c: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero the mean and the unpaired even-grid modes of ``c`` in place; return it.

    Unpaired modes are where differentiation zeroes a nonzero frequency.
    """
    k1, k2 = _freqs(grid)
    d1, d2 = _deriv_freqs(grid)
    c[(k1 != d1) | (k2 != d2)] = 0.0
    c[0, 0] = 0.0
    return c


def _fold_sum(per_mode: np.ndarray, grid: Grid) -> float:
    """Sum over the full spectrum of a quantity equal at k and -k, from its half.

    Column 0, and the last column on even n2, are their own mirror images and
    count once; every other column stands for itself and its mirror and
    counts twice.
    """
    weights = np.full(grid.n2 // 2 + 1, 2.0)
    weights[0] = 1.0
    if grid.n2 % 2 == 0:
        weights[-1] = 1.0
    return float(per_mode.sum(axis=0) @ weights)


def _derivative(
    c: np.ndarray, grid: Grid, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Values of the derivative along ``axis`` of the field with coefficients ``c``.

    The multiplied coefficients go to ``out``; pass ``out=c`` to consume ``c``
    rather than allocate another half spectrum.
    """
    return _values(np.multiply(2j * np.pi * _deriv_freqs(grid)[axis], c, out=out), grid)


def _profile_derivative(profile: np.ndarray) -> np.ndarray:
    """Spectral derivative of a periodic 1-D profile on the unit interval."""
    n = profile.size
    k = _half(_axis_deriv_freqs(n))
    return np.fft.irfft(np.fft.rfft(profile) * 2j * np.pi * k, n)


def _potential(c1: np.ndarray, c2: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients of the zero-mean potential of the curl-free part of (c1, c2).

    Consumes both inputs: the result is built in ``c1``'s buffer and returned,
    and ``c2`` is overwritten with ``k2 c2``.
    """
    k1, k2 = _freqs(grid)
    np.multiply(k1, c1, out=c1)
    np.multiply(k2, c2, out=c2)
    c1 += c2
    c1 /= 2j * np.pi * _ksq(grid)
    return _drop(c1, grid)


def spectral_derivative(f: ScalarField, axis: int) -> ScalarField:
    """Partial derivative along one axis via the 2 pi i k multiplier."""
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis!r}")
    return ScalarField(f.grid, _derivative(_coeffs(f.values), f.grid, axis))


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
        c = _coeffs(f.values)
        k1, k2 = _freqs(f.grid)
        w = 1.0 / (1.0 + k1**2 + k2**2)
        weighted = np.abs(c)
        np.square(weighted, out=weighted)
        weighted *= w
        return float(np.sqrt(_fold_sum(weighted, f.grid)))
    if s not in (1, 2):
        raise ValueError(f"order must be 1, 2 or 'full1', got {s!r}")
    c = _mean_coeff_checked(f, f"neg_sobolev_norm(s={s})")
    w = _ksq(f.grid) ** (-int(s))
    w[0, 0] = 0.0
    return float(np.sqrt(_fold_sum(np.abs(c) ** 2 * w, f.grid)))


def inv_gradient(f: ScalarField) -> ScalarField:
    """The zero-mean potential with ``|gradient| = |f|`` mode by mode.

    Divides each nonzero coefficient by ``2 pi |k|``; the gradient of the
    result has the same mean-square size as the negative-order content of
    ``f`` measured with physical frequencies.
    """
    c = _mean_coeff_checked(f, "inv_gradient")
    c /= 2.0 * np.pi * np.sqrt(_ksq(f.grid))
    c[0, 0] = 0.0
    return ScalarField(f.grid, _values(c, f.grid))


def leray_project(w: VectorField) -> VectorField:
    """Divergence-free part of a vector field, mean and unpaired modes removed.

    Acts as the transverse projection on every properly paired nonzero mode;
    the remainder ``w - mean - Pw`` is exactly orthogonal to the result, so
    the three pieces split the mean-square size of ``w`` with no cross term.
    """
    grid = w.grid
    c1, c2 = _coeffs(w.v1), _coeffs(w.v2)
    k1, k2 = _freqs(grid)
    dot = (k1 * c1 + k2 * c2) / _ksq(grid)
    p1 = _drop(c1 - k1 * dot, grid)
    p2 = _drop(c2 - k2 * dot, grid)
    return VectorField(grid, _values(p1, grid), _values(p2, grid))


def helmholtz_potential(w: VectorField) -> ScalarField:
    """Zero-mean scalar u whose gradient is the curl-free part of ``w``."""
    grid = w.grid
    return ScalarField(grid, _values(_potential(_coeffs(w.v1), _coeffs(w.v2), grid), grid))


def curl_neg_sobolev(w: VectorField) -> float:
    """Size of the rotational content: the lattice curl in the H^-1 weight.

    Mode by mode the weighted curl modulus equals the modulus of the
    transverse projection, so over the same paired modes the result
    coincides with the mean-square size of :func:`leray_project` of ``w``.
    """
    grid = w.grid
    c1, c2 = _coeffs(w.v1), _coeffs(w.v2)
    k1, k2 = _freqs(grid)
    weighted = _drop(np.abs(k1 * c2 - k2 * c1) ** 2 / _ksq(grid), grid)
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
