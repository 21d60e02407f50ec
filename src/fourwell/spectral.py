"""Fourier-side operations: norms, potentials, projections, and an oracle.

The private core (``_coeffs``, ``_values``, ``_freqs``, ``_deriv_freqs``,
``_ksq``, ``_drop``) is the only owner of the package's Fourier conventions:

* Coefficients are ``fft2(values) / (n1 * n2)``, so Parseval reads
  ``sum |c_k|^2 = mean |f|^2`` and norms below are mean-square quantities.
* Frequencies are the integer lattice duals from ``fftfreq(n) * n``; on even
  grids the unpaired mode sits at ``-n/2``.  It has no well-defined sign, so
  derivatives and sign-sensitive multipliers drop it.
* Negative-order weights divide by the integer ``|k|^2`` with the mean mode
  set to 1; derivatives carry the physical factor ``2 pi i k``.

Callers that hold coefficients use the core directly, so a rigidity report
transforms each indicator once.  :func:`permode_elastic_oracle` keeps its own
plain ``fft2`` path on purpose: it checks the closed-form multiplier in
:mod:`fourwell.energy` and must share none of its algebra.
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
    """Normalized Fourier coefficients of a real 2-D array."""
    return np.fft.fft2(values) / values.size


def _values(c: np.ndarray) -> np.ndarray:
    """Real values whose normalized coefficients are ``c``.

    Scaled in place, so no second full-size complex array is allocated.
    """
    v = np.fft.ifft2(c)
    v *= c.size
    return v.real


def _axis_freqs(n: int) -> np.ndarray:
    """Integer frequencies of one periodic axis, in FFT order."""
    return np.rint(np.fft.fftfreq(n) * n).astype(np.int64)


def _axis_deriv_freqs(n: int) -> np.ndarray:
    """Axis frequencies for differentiation: the unpaired mode ``-n/2`` zeroed."""
    k = _axis_freqs(n)
    return np.where(2 * k == -n, 0, k)


def _freqs(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Integer frequencies, shaped to broadcast over a coefficient array."""
    return _axis_freqs(grid.n1)[:, None], _axis_freqs(grid.n2)[None, :]


def _deriv_freqs(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies for differentiation: unpaired even-grid modes zeroed."""
    return _axis_deriv_freqs(grid.n1)[:, None], _axis_deriv_freqs(grid.n2)[None, :]


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


def _derivative(c: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Values of the derivative along ``axis`` of the field with coefficients ``c``."""
    return _values(2j * np.pi * _deriv_freqs(grid)[axis] * c)


def _profile_derivative(profile: np.ndarray) -> np.ndarray:
    """Spectral derivative of a periodic 1-D profile on the unit interval."""
    k = _axis_deriv_freqs(profile.size)
    return np.fft.ifft(np.fft.fft(profile) * 2j * np.pi * k).real


def _potential(c1: np.ndarray, c2: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients of the zero-mean potential of the curl-free part of (c1, c2)."""
    k1, k2 = _freqs(grid)
    return _drop((k1 * c1 + k2 * c2) / (2j * np.pi * _ksq(grid)), grid)


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
        return float(np.sqrt((np.abs(c) ** 2 * w).sum()))
    if s not in (1, 2):
        raise ValueError(f"order must be 1, 2 or 'full1', got {s!r}")
    c = _mean_coeff_checked(f, f"neg_sobolev_norm(s={s})")
    w = _ksq(f.grid) ** (-int(s))
    w[0, 0] = 0.0
    return float(np.sqrt((np.abs(c) ** 2 * w).sum()))


def inv_gradient(f: ScalarField) -> ScalarField:
    """The zero-mean potential with ``|gradient| = |f|`` mode by mode.

    Divides each nonzero coefficient by ``2 pi |k|``; the gradient of the
    result has the same mean-square size as the negative-order content of
    ``f`` measured with physical frequencies.
    """
    c = _mean_coeff_checked(f, "inv_gradient")
    c /= 2.0 * np.pi * np.sqrt(_ksq(f.grid))
    c[0, 0] = 0.0
    return ScalarField(f.grid, _values(c))


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
    return VectorField(grid, _values(p1), _values(p2))


def helmholtz_potential(w: VectorField) -> ScalarField:
    """Zero-mean scalar u whose gradient is the curl-free part of ``w``."""
    return ScalarField(w.grid, _values(_potential(_coeffs(w.v1), _coeffs(w.v2), w.grid)))


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
    return float(np.sqrt(weighted.sum()))


def _indicator_coeffs(
    m: ModifiedIndicators,
) -> tuple[Grid, np.ndarray, np.ndarray, np.ndarray]:
    """The oracle's own transforms, independent of the core's ``_coeffs``."""
    n = m.grid.n1 * m.grid.n2
    return (
        m.grid,
        np.fft.fft2(m.chi1t) / n,
        np.fft.fft2(m.chi2t) / n,
        np.fft.fft2(m.chi3t) / n,
    )


def permode_elastic_oracle(m: ModifiedIndicators) -> float:
    """Relaxed elastic energy by brute-force least squares, mode by mode.

    For every nonzero frequency the target matrix carries the indicator
    coefficients on its off-diagonal; the best compatible strain at that
    frequency is ``sym(2 pi i k (x) u)`` over all complex displacements u,
    found by solving the 3x3 normal equations directly.  The summed squared
    misfits equal the relaxed elastic energy; this routine exists as an
    independent check of the closed-form multiplier and shares none of its
    algebra.
    """
    grid, c1, c2, c3 = _indicator_coeffs(m)
    k1, k2 = _freqs(grid)
    k1b, k2b = np.broadcast_arrays(k1, k2)
    mask = (k1b != 0) | (k2b != 0)
    q = np.stack(
        [
            2.0 * np.pi * k1b[mask],
            2.0 * np.pi * k2b[mask],
            np.zeros(int(mask.sum())),
        ],
        axis=1,
    )
    nmodes = q.shape[0]
    target = np.zeros((nmodes, 3, 3), dtype=complex)
    target[:, 0, 1] = target[:, 1, 0] = c3[mask]
    target[:, 0, 2] = target[:, 2, 0] = c2[mask]
    target[:, 1, 2] = target[:, 2, 1] = c1[mask]

    qsq = (q**2).sum(axis=1)
    normal = qsq[:, None, None] * np.eye(3)[None] + q[:, :, None] * q[:, None, :]
    rhs = 2.0 * np.einsum("mij,mj->mi", target, q.astype(complex))
    disp = np.linalg.solve(normal.astype(complex), rhs[:, :, None])[:, :, 0]
    strain = 0.5 * (q[:, :, None] * disp[:, None, :] + disp[:, :, None] * q[:, None, :])
    return float((np.abs(strain - target) ** 2).sum())
