"""Whole-array forms of the report's pass: numpy's ``rfft2`` / ``irfft2`` and
per-mode work on whole half spectra.

``elastic``, ``char_residual`` and ``weak_defect`` are the forms the blocked
code replaced: the residual in real space and the weak defect from a real
template sheared row by row, the inner profile's mean plus the derivative of
the midpoint primitive of the rest.  ``spectral_weak_defect`` is the report's
own formula, the template's row spectra phase-shifted, on whole frame half
spectra with one fold.  The report must give the energies and the spectral weak defect
bit for bit, and the two real-space forms to rounding.

``profiles`` is the pull-back form the extractors' integer sums replaced: the
sheared frame's slots translated back row by row and the misfits averaged in
float64.  The extractors must give its axis, f, F, g and outer defect exactly
and its two inner defects to rounding.

``profile_derivative`` is the template's profile derivative as real values,
the round trip the core keeps inside its template row spectra.
``stripe_profile`` is the balanced stripe profile the tests build laminates
and twins from.

The rest are references no command reads: ``strain_from_displacement``, the
strain of a displacement, whose pointwise energy bounds the relaxed one from
above; ``full_multiplier_energy``, the multiplier on any symmetric target,
with its own copy of the unpaired-mode rule; ``compute_residuals``, the
pointwise misfit split into the compatibility identity's fields; and
``_transposed``, the model's transpose symmetry on indicator slots, which the
package writes out where it reads the turned frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from fourwell.energy import DEFAULT_DIAG, SymStrainField, _re_dot, _sq
from fourwell.fields import Grid, ModifiedIndicators, ScalarField, shear_resample
from fourwell.microstructures import staircase_shifts
from fourwell.rigidity import InnerProfile, OuterProfile
from fourwell.spectral import _coeffs, _fold_sum, _ksq, _modes, spectral_derivative


def coeffs(values):
    return np.fft.rfft2(values) / values.size


def stripe_profile(n, stripes):
    """Balanced +-1 profile with the given number of equal stripes."""
    return np.repeat(np.resize([1.0, -1.0], stripes), n // stripes)


def profile_derivative(profile):
    """Spectral derivative of a periodic 1-D profile on the unit interval, as
    real values; the unpaired even-grid mode is dropped."""
    n = profile.size
    d = np.arange(n // 2 + 1)
    d[2 * d == n] = 0
    return np.fft.irfft(np.fft.rfft(profile) * 2j * np.pi * d, n)


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
    deriv = profile_derivative((np.cumsum(gm) - 0.5 * gm) / c.grid.n2) + inner.g.mean()
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
    deriv = np.fft.rfft(profile_derivative((np.cumsum(gm) - 0.5 * gm) / n2))
    deriv[0] += n2 * inner.g.mean()
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
    is None when the staircase is not grid-aligned, so no pull-back exists.

    The outer axis is the one with the smaller mean absolute defect; on a tie,
    one whose staircase lands on whole cells, then the one along which chi3t's
    row means have the larger mean square, then the first.  Mean squares equal
    but for the rounding of the row means tie."""

    def fit(axis, chi3t):
        means = chi3t.mean(axis=1)
        f = np.where(means >= 0.0, 1, -1)
        n_along, n_trans = chi3t.shape
        defect = float(np.abs(chi3t - f[:, None]).mean())
        F = staircase_shifts(f, n_trans / n_along)
        off_grid = not np.allclose(F, np.rint(F), atol=1e-9)
        key = (defect, off_grid, -float(np.mean(np.square(means))))
        return key, OuterProfile(axis, f, defect, F)

    (key1, outer1), (key2, outer2) = fit("y1", m.chi3t), fit("y2", m.chi3t.T)
    if math.isclose(key1[2], key2[2], rel_tol=1e-12):
        key2 = (*key2[:2], key1[2])
    outer = outer2 if key2 < key1 else outer1
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


def strain_from_displacement(
    u1: ScalarField, u2: ScalarField, u3: ScalarField
) -> SymStrainField:
    """Symmetrized gradient of a periodic displacement constant in the third
    direction.

    Such a strain is compatible, so its :func:`elastic_energy_pointwise`
    bounds :func:`relaxed_elastic_energy` from above without the multiplier's
    algebra; ``tests/test_energy.py`` uses it for that independent bound.
    """
    if not (u1.grid == u2.grid == u3.grid):
        raise ValueError("displacement components live on different grids")
    d1u1 = spectral_derivative(u1, 0).values
    d2u1 = spectral_derivative(u1, 1).values
    d1u2 = spectral_derivative(u2, 0).values
    d2u2 = spectral_derivative(u2, 1).values
    d1u3 = spectral_derivative(u3, 0).values
    d2u3 = spectral_derivative(u3, 1).values
    zero = np.zeros(u1.grid.shape)
    return SymStrainField(
        u1.grid,
        e11=d1u1,
        e22=d2u2,
        e33=zero,
        e12=0.5 * (d1u2 + d2u1),
        e13=0.5 * d1u3,
        e23=0.5 * d2u3,
    )



def full_multiplier_energy(u0: SymStrainField) -> float:
    """Distance of a symmetric target field from all compatible strains.

    Evaluates, per nonzero mode with in-plane frequency k embedded as
    (k1, k2, 0),

        |U|_F^2 - 2 |U k|^2 / |k|^2 + |k . U k|^2 / |k|^4 ,

    with the terms odd in an unpaired even-grid frequency averaged over both
    of its signs, that is dropped.  Agrees with :func:`relaxed_elastic_energy`
    when the target carries indicator fields off-diagonal and a constant
    diagonal.
    """
    grid = u0.grid
    e11, e22, e33, e12, e13, e23 = (
        _coeffs(getattr(u0, name)) for name in ("e11", "e22", "e33", "e12", "e13", "e23")
    )
    k1, k2, d1, d2 = _modes(grid)  # terms odd in k1 k2 average to 0 at unpaired modes
    ksq = _ksq(k1, k2)

    frob = _sq(e11) + _sq(e22) + _sq(e33) + 2.0 * (_sq(e12) + _sq(e13) + _sq(e23))
    # |U k|^2 over the rows (e11, e12), (e12, e22), (e13, e23) of U's in-plane columns
    uk_sq = (
        k1**2 * (_sq(e11) + _sq(e12) + _sq(e13))
        + k2**2 * (_sq(e12) + _sq(e22) + _sq(e23))
        + 2.0 * d1 * d2 * (_re_dot(e11, e12) + _re_dot(e12, e22) + _re_dot(e13, e23))
    )
    # k . U k = even + 2 k1 k2 e12
    even = k1**2 * e11 + k2**2 * e22
    kuk_sq = _sq(even) + 4.0 * k1**2 * k2**2 * _sq(e12) + 4.0 * d1 * d2 * _re_dot(even, e12)

    per_mode = frob - 2.0 * uk_sq / ksq + kuk_sq / ksq**2
    per_mode[0, 0] = 0.0
    return _fold_sum(per_mode, grid)



@dataclass(frozen=True)
class ResidualDecomposition:
    """Per-cell misfits split by strain slot, plus one compatibility check.

    rho11 and rho22 carry half the diagonal misfits of the in-plane block in
    crossed order, rho12 the in-plane shear misfit, rho13 and rho23 the two
    out-of-plane shear misfits.  With these weights the second mixed
    derivative of the in-plane indicator equals a divergence-form combination
    of the first three fields whenever the strain is a symmetrized gradient;
    ``identity_residual`` measures that combination in the second-order
    negative norm.
    """

    grid: Grid
    rho11: np.ndarray
    rho12: np.ndarray
    rho22: np.ndarray
    rho13: np.ndarray
    rho23: np.ndarray
    identity_residual: float

    def sum_sq(self) -> float:
        """Mean of the squared residual fields; bounded by the pointwise energy."""
        total = (
            self.rho11**2 + self.rho12**2 + self.rho22**2 + self.rho13**2 + self.rho23**2
        )
        return float(total.mean())


def compute_residuals(
    e: SymStrainField,
    m: ModifiedIndicators,
    diag: tuple[float, float, float] = DEFAULT_DIAG,
) -> ResidualDecomposition:
    """Split the pointwise misfit into the fields entering the compatibility
    identity.

    Part of the multiplier-free side of ``tests/test_energy.py``: with
    :func:`strain_from_displacement` and :func:`elastic_energy_pointwise` it
    checks that the identity vanishes on symmetrized gradients and that the
    residual fields stay under the pointwise energy, the independent upper
    bound on :func:`relaxed_elastic_energy`.
    """
    if e.grid != m.grid:
        raise ValueError(f"strain grid {e.grid.shape} != indicator grid {m.grid.shape}")
    grid = e.grid
    d1, d2, d3 = diag
    rho11 = 0.5 * (e.e22 - d2)
    rho22 = 0.5 * (e.e11 - d1)
    rho12 = m.chi3t - e.e12
    rho13 = m.chi2t - e.e13
    rho23 = m.chi1t - e.e23

    c3 = _coeffs(m.chi3t)
    r11 = _coeffs(rho11)
    r12 = _coeffs(rho12)
    r22 = _coeffs(rho22)
    k1, k2, k1d, k2d = _modes(grid)
    combo = (
        -4.0
        * np.pi**2
        * (k1d * k2d * c3 - k1d**2 * r11 - k1d * k2d * r12 - k2d**2 * r22)
    )
    weighted = np.abs(combo) ** 2 / _ksq(k1, k2) ** 2
    weighted[0, 0] = 0.0
    residual = float(np.sqrt(_fold_sum(weighted, grid)))

    return ResidualDecomposition(
        grid=grid,
        rho11=rho11,
        rho12=rho12,
        rho22=rho22,
        rho13=rho13,
        rho23=rho23,
        identity_residual=residual,
    )


def _transposed(m: ModifiedIndicators) -> ModifiedIndicators:
    """The model's transpose symmetry: swap the two axes and the slots chi1t, chi2t.

    The image of an admissible triple is admissible, and energies and defects
    are unchanged.  Tests use it as the model's transpose; the package writes
    the swap where it reads the turned frame.
    """
    return ModifiedIndicators(Grid(m.grid.n2, m.grid.n1), m.chi2t.T, m.chi1t.T, m.chi3t.T)
