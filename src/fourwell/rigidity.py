"""Quantitative rigidity: how close a microstructure is to a crossing twin.

The in-plane indicator of a low-energy state is nearly one-directional; the
out-of-plane pair then nearly follows a single transverse profile carried
along the sheared characteristics of the outer one.  The extractors below
recover those profiles from any admissible field and report the defects,
which the energy controls from below.  Everything here is read-only
diagnostics: no generator imports this module.

The transform-heavy steps of a report stream through the spectral core's row
blocks: the pricing pass shares :mod:`fourwell.energy`'s blocked multiplier,
the characteristic residual sums its squares over row blocks of the two
derivatives, and the weak defect transforms row blocks of its differences
made on demand, so none of them holds a full-size real array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from .energy import EnergyBreakdown, _finish, _shear, _to_json, _weighted, surface_energy
from .fields import (
    Grid,
    ModifiedIndicators,
    PhaseField,
    ScalarField,
    _transposed,
    shear_resample,
    to_modified,
    volume_fractions,
)
from .microstructures import staircase_shifts
from .model import _check_eta
from .spectral import (
    _coeffs,
    _deriv_coeffs,
    _full1_norm,
    _potential,
    _profile_derivative,
    _value_rows,
)

__all__ = [
    "OuterProfile",
    "InnerProfile",
    "RigidityReport",
    "extract_outer",
    "extract_inner",
    "wave_decompose",
    "mixed_difference_sup",
    "incompatibility_defect",
    "characteristic_residual",
    "rigidity_report",
]


@dataclass(frozen=True)
class OuterProfile:
    """Best one-directional +-1 approximation of the in-plane indicator.

    f holds the sign profile along ``axis`` as ints +1 and -1, defect_l1 the
    mean absolute deviation from it, and F the staircase primitive of f in
    transverse grid cells (zero at the central row, no wrap), which is the
    shear the inner structure is expected to follow.
    """

    axis: str
    f: np.ndarray
    defect_l1: float
    F: np.ndarray


@dataclass(frozen=True)
class InnerProfile:
    """Transverse profile of the out-of-plane pair after undoing the shear.

    g is the sheared-frame average of the first out-of-plane field,
    defect_l2 the mean *squared* deviation from it, and defect_chi2 the
    root-mean-square misfit of the second field against the slaved product
    profile."""

    g: np.ndarray
    defect_l2: float
    defect_chi2: float


def extract_outer(m: ModifiedIndicators) -> OuterProfile:
    """Column-sign profile of the in-plane indicator, on the better axis.

    Both axes are tried; the one with the smaller mean absolute defect wins,
    the first axis on ties.  Sign ties within a column resolve to +1.
    """
    first = _row_profile("y1", m.chi3t)
    second = _row_profile("y2", m.chi3t.T)
    return second if second.defect_l1 < first.defect_l1 else first


def _row_profile(axis: str, chi3t: np.ndarray) -> OuterProfile:
    """Sign profile along axis 0 of ``chi3t``, recorded as the outer ``axis``."""
    f = np.where(chi3t.mean(axis=1) >= 0.0, 1, -1)
    deviation = np.subtract(chi3t, f[:, None], dtype=chi3t.dtype)  # int8 slots stay int8
    defect = float(np.abs(deviation, out=deviation).mean())
    n_along, n_trans = chi3t.shape
    return OuterProfile(axis, f, defect, staircase_shifts(f, n_trans / n_along))


def _canonical(m: ModifiedIndicators, outer: OuterProfile) -> ModifiedIndicators:
    """``m`` with the outer axis on axis 0: chi1t is the sheared field and
    chi2t its slaved product."""
    return m if outer.axis == "y1" else _transposed(m)


def _integer_shifts(outer: OuterProfile, grid: Grid) -> np.ndarray:
    rounded = np.rint(outer.F)
    if not np.allclose(outer.F, rounded, atol=1e-9):
        worst = int(np.argmax(np.abs(outer.F - rounded)))
        raise ValueError(
            f"shear profile is not grid-aligned on the {grid.n1}x{grid.n2} grid: "
            f"F[{worst}] = {float(outer.F[worst])!r} is not a whole number of cells"
        )
    return rounded.astype(np.int64)


def extract_inner(m: ModifiedIndicators, outer: OuterProfile) -> InnerProfile:
    """Average the out-of-plane pair along the sheared characteristics.

    Undoes the staircase shear recorded in ``outer`` (which must land on
    whole cells), averages the first out-of-plane field over the outer
    direction, and measures both residuals.
    """
    shifts = _integer_shifts(outer, m.grid)
    c = _canonical(m, outer)
    pulled = shear_resample(c.chi1t, -shifts)
    g = pulled.mean(axis=0)
    misfit = np.subtract(pulled, g[None, :])  # the one full-size float buffer
    defect_l2 = float(np.mean(np.square(misfit, out=misfit)))
    np.multiply(outer.f[:, None], g[None, :], out=misfit)
    np.subtract(shear_resample(c.chi2t, -shifts), misfit, out=misfit)
    defect_chi2 = float(np.sqrt(np.mean(np.square(misfit, out=misfit))))
    return InnerProfile(g=g, defect_l2=defect_l2, defect_chi2=defect_chi2)


def wave_decompose(f: ScalarField) -> tuple[np.ndarray, np.ndarray, float]:
    """Split a field into two one-directional waves plus a small remainder.

    Returns per-axis profiles ``(g1, g2)`` and the mean absolute remainder.
    Each profile is the average over the other direction with half the
    global mean removed, so the remainder equals the average over all offset
    pairs of the double difference of ``f`` and is bounded by four times the
    worst mixed-difference mass.
    """
    v = f.values
    half_mean = 0.5 * float(v.mean())
    g1 = v.mean(axis=1) - half_mean
    g2 = v.mean(axis=0) - half_mean
    residual = float(np.abs(v - g1[:, None] - g2[None, :]).mean())
    return g1, g2, residual


def mixed_difference_sup(f: ScalarField) -> float:
    """Worst mixed-difference mass: the largest mean of ``|D_h2 D_h1 f|``.

    ``D_h`` is the periodic difference along one axis with an offset of h
    cells.  Offsets -h and +h give the same mass (the two differences agree
    up to a translation by h and a sign) and h = 0 gives none, so only
    ``1 <= h <= n // 2`` is visited on each axis.  This is the quantity that
    bounds the :func:`wave_decompose` remainder.
    """
    v = f.values
    n1, n2 = f.grid.shape
    half = n2 // 2
    # D_h1 f followed by its first n2 // 2 columns again, so that each
    # D_h2 D_h1 f is a slice minus D_h1 f; no per-offset roll is needed.
    ext = np.empty((n1, n2 + half))
    d1 = ext[:, :n2]
    diff = np.empty((n1, n2))
    sup = 0.0
    for h1 in range(1, n1 // 2 + 1):
        np.subtract(np.roll(v, -h1, axis=0), v, out=d1)
        ext[:, n2:] = ext[:, :half]
        for h2 in range(1, half + 1):
            np.abs(np.subtract(ext[:, h2 : h2 + n2], d1, out=diff), out=diff)
            sup = max(sup, float(diff.sum()) / diff.size)
    return sup


def incompatibility_defect(theta: Sequence) -> tuple:
    """Pairwise-product gaps of the phase fractions.

    Returns ``(|t1 t2 - t3 t4|, |t1 t4 - t2 t3|)``: the first vanishes for
    every crossing twin built on the first axis, the second for the second
    axis.  Exact fractions in give exact fractions out.
    """
    if len(theta) != 4:
        raise ValueError(f"need exactly four phase fractions, got {len(theta)}")
    for i, t in enumerate(theta, start=1):
        if not isinstance(t, Real):
            raise ValueError(f"theta{i} = {t!r} is not a number")
        if t < 0:
            raise ValueError(f"theta{i} = {t} is negative")
    t1, t2, t3, t4 = theta
    total = t1 + t2 + t3 + t4
    if abs(float(total) - 1.0) > 1e-9:
        raise ValueError(f"phase fractions sum to {float(total)!r}, not 1")
    return (abs(t1 * t2 - t3 * t4), abs(t1 * t4 - t2 * t3))


def characteristic_residual(u: ScalarField, outer: OuterProfile) -> float:
    """Mean-square failure of ``u`` to ride the sheared characteristics.

    Measures the derivative along the outer axis minus the outer sign times
    the transverse derivative; any function constant along the (unit-slope,
    sign f) characteristic field nulls it.
    """
    return _transport_residual(_coeffs(u.values), u.grid, outer)


def _transport_residual(c: np.ndarray, grid: Grid, outer: OuterProfile) -> float:
    """:func:`characteristic_residual` of the field with coefficients ``c``.

    Consumes ``c``: the second derivative is formed in its buffer.  The two
    derivatives come back as row blocks and the squares are summed block by
    block, so no full-size real array is made.
    """
    first = _value_rows(_deriv_coeffs(c, grid, 0), grid.shape)
    second = _value_rows(_deriv_coeffs(c, grid, 1, out=c), grid.shape)
    total = 0.0
    for (rows, d1), (_, d2) in zip(first, second):
        if outer.axis == "y1":
            along, across, f = d1, d2, outer.f[rows, None]
        else:  # the outer axis is axis 1 of these blocks
            along, across, f = d2, d1, outer.f[None, :]
        np.multiply(f, across, out=across)
        resid = np.subtract(along, across, out=along)
        total += float(np.square(resid, out=resid).sum())
    return math.sqrt(total / (grid.n1 * grid.n2))


@dataclass(frozen=True)
class RigidityReport:
    """Everything the twin-likeness of one field boils down to."""

    eta: float
    energy: EnergyBreakdown
    theta: tuple[float, float, float, float]
    outer: OuterProfile
    inner: InnerProfile
    d14: float
    d12: float
    char_residual: float
    weak_defect: float
    diagnostics: dict[str, float | None]

    def to_json(self) -> str:
        return _to_json(self)


def _log10_or_none(value: float) -> float | None:
    return math.log10(value) if value > 0.0 else None


def _weak_defect(m: ModifiedIndicators, outer: OuterProfile, inner: InnerProfile) -> float:
    """Negative-norm distance of the out-of-plane pair from its twin template.

    The template is the spectral transverse derivative of the periodic
    midpoint primitive of the inner profile, carried along the staircase
    shear; both components are compared in the inhomogeneous first-order
    negative norm and combined in quadrature.  Template rows and the
    differences are made one row block at a time, as the transform reads them.
    """
    shifts = _integer_shifts(outer, m.grid)
    c = _canonical(m, outer)

    gm = inner.g - inner.g.mean()
    primitive = (np.cumsum(gm) - 0.5 * gm) / c.grid.n2
    deriv = _profile_derivative(primitive)

    def template(rows: slice) -> np.ndarray:
        block = shifts[rows]
        return shear_resample(np.broadcast_to(deriv, (block.size, deriv.size)), block)

    def primary(rows: slice) -> np.ndarray:
        return c.chi1t[rows] - template(rows)

    def product(rows: slice) -> np.ndarray:
        t = template(rows)
        t *= outer.f[rows, None]
        return np.subtract(c.chi2t[rows], t, out=t)

    gap_primary = _full1_norm(_coeffs(primary, c.grid.shape), c.grid)
    gap_product = _full1_norm(_coeffs(product, c.grid.shape), c.grid)
    return float(math.hypot(gap_primary, gap_product))


def _spectral_pass(m: ModifiedIndicators, outer: OuterProfile) -> tuple[float, float]:
    """Relaxed elastic energy and the characteristic residual of the Helmholtz
    potential of (chi2t, chi1t), from one transform of each indicator.

    The order keeps at most two half spectra and the half-size shear term
    alive: the shear term, then the potential in c2's buffer, and only then
    the transform of chi3t.
    """
    c1, c2 = _coeffs(m.chi1t), _coeffs(m.chi2t)
    shear = _shear(c1, c2, m.grid)
    potential = _potential(c2, c1, m.grid)
    del c1, c2
    elastic = _finish(shear, _coeffs(m.chi3t), m.grid)
    del shear  # freed before differentiating, where the pass would peak
    return elastic, _transport_residual(potential, m.grid, outer)


def rigidity_report(p: PhaseField, eta: float) -> RigidityReport:
    """Run the full diagnostic suite on one phase arrangement.

    Deterministic: equal inputs give byte-identical JSON.  The shear
    pull-back requires grid-aligned staircases, which square grids always
    provide.
    """
    _check_eta(eta)
    m = to_modified(p)
    outer = extract_outer(m)
    elastic, char = _spectral_pass(m, outer)
    energy = _weighted(eta, elastic, surface_energy(p))
    theta = volume_fractions(p)
    inner = extract_inner(m, outer)
    d14, d12 = incompatibility_defect(theta)
    weak = _weak_defect(m, outer, inner)
    diagnostics = {
        "log10_char_residual": _log10_or_none(char),
        "log10_d12": _log10_or_none(float(d12)),
        "log10_d14": _log10_or_none(float(d14)),
        "log10_elastic": _log10_or_none(energy.elastic),
        "log10_inner_defect_l2": _log10_or_none(inner.defect_l2),
        "log10_outer_defect_l1": _log10_or_none(outer.defect_l1),
        "log10_total": _log10_or_none(energy.total),
        "log10_weak_defect": _log10_or_none(weak),
    }
    return RigidityReport(
        eta=eta,
        energy=energy,
        theta=theta,
        outer=outer,
        inner=inner,
        d14=float(d14),
        d12=float(d12),
        char_residual=char,
        weak_defect=weak,
        diagnostics=diagnostics,
    )
