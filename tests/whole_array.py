"""Whole-array forms of the report's pass: numpy's ``rfft2`` / ``irfft2`` and
per-mode work on whole half spectra.

``elastic``, ``char_residual`` and ``weak_defect`` are the forms the blocked
code replaced: the residual in real space and the weak defect from a real
template sheared row by row.  ``spectral_weak_defect`` is the report's own
formula, the template's row spectra phase-shifted, on whole frame half spectra
with one fold.  The report must give the energies and the spectral weak defect
bit for bit, and the two real-space forms to rounding.

``profiles`` is the pull-back form the extractors' integer sums replaced: the
sheared frame's slots translated back row by row and the misfits averaged in
float64.  The extractors must give its axis, f, F, g and outer defect exactly
and its two inner defects to rounding.
"""

import math

import numpy as np

from fourwell.energy import _re_dot, _sq
from fourwell.fields import Grid, _transposed, shear_resample
from fourwell.microstructures import staircase_shifts
from fourwell.rigidity import InnerProfile, OuterProfile
from fourwell.spectral import _fold_sum, _modes, _profile_derivative


def coeffs(values):
    return np.fft.rfft2(values) / values.size


def ksq(grid):
    k1, k2, _, _ = _modes(grid)
    out = (k1**2 + k2**2).astype(float)
    out[0, 0] = 1.0
    return out


def elastic(m):
    """The relaxed elastic energy: the shear and cross folds on whole half spectra."""
    grid = m.grid
    c1, c2, c3 = coeffs(m.chi1t), coeffs(m.chi2t), coeffs(m.chi3t)
    k1, k2, d1, d2 = _modes(grid)
    shear = (k1**2 * _sq(c1) + k2**2 * _sq(c2) - 2.0 * d1 * d2 * _re_dot(c2, c1)) / ksq(grid)
    cross = _sq(c3) * (k1 * k2) ** 2 / ksq(grid) ** 2
    return 2.0 * _fold_sum(shear, grid) + 4.0 * _fold_sum(cross, grid)


def char_residual(m, outer):
    """The characteristic residual of the Helmholtz potential of (chi2t, chi1t)."""
    grid = m.grid
    k1, k2, d1, d2 = _modes(grid)
    c = (k1 * coeffs(m.chi2t) + k2 * coeffs(m.chi1t)) / (2j * np.pi * ksq(grid))
    c[(k1 != d1) | (k2 != d2)] = 0.0
    c[0, 0] = 0.0
    along = np.fft.irfft2(2j * np.pi * d1 * c, s=grid.shape) * (grid.n1 * grid.n2)
    across = np.fft.irfft2(2j * np.pi * d2 * c, s=grid.shape) * (grid.n1 * grid.n2)
    if outer.axis == "y2":
        along, across = across.T, along.T
    resid = along - outer.f[:, None] * across
    return float(np.sqrt(np.mean(np.square(resid))))


def full1_norm(values, grid):
    c = coeffs(values)
    k1, k2, _, _ = _modes(grid)
    weighted = np.abs(c)
    np.square(weighted, out=weighted)
    weighted *= 1.0 / (1.0 + k1**2 + k2**2)
    return float(np.sqrt(_fold_sum(weighted, grid)))


def weak_defect(m, outer, inner):
    """The weak defect from a full-size template and full-size differences."""
    shifts = np.rint(outer.F).astype(np.int64)
    c = m if outer.axis == "y1" else _transposed(m)
    gm = inner.g - inner.g.mean()
    deriv = _profile_derivative((np.cumsum(gm) - 0.5 * gm) / c.grid.n2)
    template = shear_resample(np.broadcast_to(deriv[None, :], c.grid.shape), shifts)
    gap_primary = full1_norm(c.chi1t - template, c.grid)
    template *= outer.f[:, None]
    gap_product = full1_norm(c.chi2t - template, c.grid)
    return float(math.hypot(gap_primary, gap_product))


def frame_coeffs(values, transpose):
    """The half spectrum of ``values``, or of its transpose taken from the full
    spectrum that Hermitian symmetry rebuilds from the half: no transform of the
    transposed array, so no rounding of its own."""
    c = coeffs(values)
    if not transpose:
        return c
    n1, n2 = values.shape
    mirror = np.conj(c[-np.arange(n1) % n1, 1 : n2 - n2 // 2][:, ::-1])
    return np.concatenate([c, mirror], axis=1).T[:, : n1 // 2 + 1]


def spectral_weak_defect(m, outer, inner):
    """The weak defect from the template's coefficients: row j's spectrum is the
    profile derivative's times exp(2 pi i q s_j / n2), transformed down the
    columns, on the whole frame half spectrum."""
    transpose = outer.axis == "y2"
    first, second = (m.chi2t, m.chi1t) if transpose else (m.chi1t, m.chi2t)
    a, b = frame_coeffs(first, transpose), frame_coeffs(second, transpose)
    n1, n2 = a.shape[0], len(inner.g)
    frame = Grid(n1, n2)
    k1, k2, _, _ = _modes(frame)
    gm = inner.g - inner.g.mean()
    deriv = np.fft.rfft(_profile_derivative((np.cumsum(gm) - 0.5 * gm) / n2))
    roots = np.exp(2j * np.pi * np.arange(n2) / n2)
    shifts = np.rint(outer.F).astype(np.int64)
    rows = deriv * roots[np.arange(n2 // 2 + 1) * shifts[:, None] % n2]
    weight = 1.0 / (1.0 + k1**2 + k2**2)
    primary = _fold_sum(_sq(a - np.fft.fft(rows, axis=0) / (n1 * n2)) * weight, frame)
    template = np.fft.fft(outer.f[:, None] * rows, axis=0) / (n1 * n2)
    product = _fold_sum(_sq(b - template) * weight, frame)
    return float(math.hypot(math.sqrt(primary), math.sqrt(product)))


def profiles(m):
    """The outer and inner profiles of the indicator slots ``m``; the inner one
    is None when the staircase is not grid-aligned, so no pull-back exists."""

    def row_profile(axis, chi3t):
        f = np.where(chi3t.mean(axis=1) >= 0.0, 1, -1)
        n_along, n_trans = chi3t.shape
        defect = float(np.abs(chi3t - f[:, None]).mean())
        return OuterProfile(axis, f, defect, staircase_shifts(f, n_trans / n_along))

    first, second = row_profile("y1", m.chi3t), row_profile("y2", m.chi3t.T)
    outer = second if second.defect_l1 < first.defect_l1 else first
    shifts = np.rint(outer.F)
    if not np.allclose(outer.F, shifts, atol=1e-9):
        return outer, None
    shifts = -shifts.astype(np.int64)
    c = m if outer.axis == "y1" else _transposed(m)
    pulled = shear_resample(c.chi1t, shifts)
    g = pulled.mean(axis=0)
    defect_l2 = float(np.mean(np.square(pulled - g)))
    misfit = shear_resample(c.chi2t, shifts) - outer.f[:, None] * g
    return outer, InnerProfile(g, defect_l2, float(np.sqrt(np.mean(np.square(misfit)))))
