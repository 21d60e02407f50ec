"""Quantitative rigidity: how close a microstructure is to a crossing twin.

The in-plane indicator of a low-energy state is nearly one-directional; the
out-of-plane pair then nearly follows a single transverse profile carried
along the sheared characteristics of the outer one.  The extractors below
recover those profiles from any admissible field and report the defects,
which the energy controls from below.  Everything here is read-only
diagnostics: no generator imports this module.

Everything reads the labels, a row block at a time; the extractors keep only
integer sums of the ±1 slots, so each profile defect is rounded once.
A report transforms each indicator once: the pricing pass shares
:mod:`fourwell.energy`'s two folds, and the characteristic residual
and the weak defect read the same coefficients of chi1t and chi2t in one walk
over column slabs of the frame, the grid turned so that the outer axis is
axis 0, where the outer sign is one value per row.  The walk, its split
between workers and the folds are the spectral core's ``_fold_slabs``, and
every transform, scale, shift phase and weight the walk reads comes from the
core's slab helpers; this module takes no transform and gives the walk the
per-slab column sums only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .energy import EnergyBreakdown, _cross, _shear, _sq, _to_json, _weighted, surface_energy
from .fields import (
    _SLOT_OF_LABEL,
    Grid,
    PhaseField,
    ScalarField,
    _frame,
    _row_blocks,
    volume_fractions,
)
from .microstructures import _staircase_cells, staircase_shifts
from .model import _check_eta
from .spectral import (
    _coeffs,
    _derivative_rows,
    _distinct_rows,
    _fold_slabs,
    _full1_weight,
    _in_parts,
    _potential,
    _row_spectra,
    _sheared_rows,
    _slab_coeffs,
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
    transverse grid cells (zero at the central row, no wrap): the shear the
    inner structure should follow, reported only, as readers take it from f.
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


def extract_outer(p: PhaseField) -> OuterProfile:
    """Sign profile of the in-plane indicator chi3t, on the better axis, from
    one pass over the labels; the report, ``sweep`` and ``verify`` read the
    axis chosen here.

    The smaller mean absolute defect wins.  On a tie, an axis whose shear
    lands on whole cells wins, then the one along which chi3t's row means have
    the larger mean square (times (n1 n2)^2, the integer sum of the squared
    row sums times n_along), then the first.  The transpose swaps these keys;
    translations and reflections keep the defects and the mean squares, and on
    a square grid, whose shears always land on whole cells, every key.  The
    inner defects would not do: translations and reflections move them.  Sign
    ties within a row resolve to +1.
    """
    rows = np.empty(p.grid.n1, dtype=np.int64)
    cols = np.zeros(p.grid.n2, dtype=np.int64)
    for block in _row_blocks(p.grid.n1):
        chi3t = np.take(_SLOT_OF_LABEL[2], p.labels[block], mode="clip")  # labels are 1..4
        rows[block] = chi3t.sum(axis=1)
        cols += chi3t.sum(axis=0)
    fits = []
    for axis, sums, n_trans in (("y1", rows, p.grid.n2), ("y2", cols, p.grid.n1)):
        # A row of sum s differs from its sign f in (n_trans - f s) / 2 cells, each by 2.
        f = np.where(sums >= 0, 1, -1)
        n_along = len(sums)
        cells = n_along * n_trans
        F = staircase_shifts(f, n_trans / n_along)
        outer = OuterProfile(axis, f, (cells - int(f @ sums)) / cells, F)
        key = (outer.defect_l1, _staircase_cells(f, n_trans)[1].any(), -int(sums @ sums) * n_along)
        fits.append((key, outer))
    return min(fits, key=lambda fit: fit[0])[1]


def extract_inner(p: PhaseField, outer: OuterProfile) -> InnerProfile:
    """Average the out-of-plane pair along the sheared characteristics.

    In the frame whose axis 0 is the outer axis, cell (a, t) lies on the
    characteristic of column ``(t + s_a) mod n_trans``, s the exact staircase
    shear of ``outer.f``, not F, refused off whole cells.  S sums chi1t and
    H sums f chi2t over each characteristic; the transpose swaps chi1t and
    chi2t with the axes.  Both come from one unweighted count, a row block of
    labels at a time: cell (a, t) goes to bin ``t + (s_a mod n_trans) +
    2 n_trans code``, code = 2 [chi1t < 0] + [f_a chi2t < 0] read by label
    from one of two tables picked by the sign of f_a.  Of the 8 n_trans bins,
    each block of 2 n_trans folds its wrapped half onto the first, and S and
    H are signed sums of the four codes' counts.  g = S / n_along, and with
    D = n_along^2 n_trans the two mean-square defects are the integer ratios
    (D - S.S) / D and (D - 2 S.H + S.S) / D, each rounded once.
    """
    transpose = outer.axis == "y2"
    n_along, n_trans = _frame(p.grid, transpose).shape
    shifts, misses = _staircase_cells(outer.f, n_trans)
    if misses.any():
        F = staircase_shifts(outer.f, n_trans / n_along)
        worst = int(np.argmax(np.abs(F - np.rint(F))))
        raise ValueError(
            f"shear profile is not grid-aligned on the {p.grid.n1}x{p.grid.n2} grid: "
            f"F[{worst}] = {float(F[worst])!r} is not a whole number of cells"
        )
    first, second = _SLOT_OF_LABEL[1::-1] if transpose else _SLOT_OF_LABEL[:2]
    code = 2 * (first < 0) + (np.array([[1], [-1]]) * second < 0)  # by [f < 0], label
    # Row a: the bin offset of each label in outer row a, so bin = t + bins[a, label].
    bins = 2 * n_trans * code[(outer.f < 0).astype(np.intp)] + (shifts % n_trans)[:, None]
    n_labels = bins.shape[1]
    counts = np.zeros(8 * n_trans, dtype=np.int64)
    for block in _row_blocks(p.grid.n1):
        j, i = np.ogrid[block, : p.grid.n2]
        a, t = (i, j) if transpose else (j, i)
        keys = np.take(bins, n_labels * a + p.labels[block], mode="clip")  # labels are 1..4
        keys += t
        counts += np.bincount(keys.ravel(), minlength=8 * n_trans)
    c0, c1, c2, c3 = counts.reshape(4, 2, n_trans).sum(axis=1)  # by code and column
    S, H = c0 + c1 - c2 - c3, c0 - c1 + c2 - c3
    D, SS = n_along**2 * n_trans, int(S @ S)
    chi2 = math.sqrt((D - 2 * int(S @ H) + SS) / D)
    return InnerProfile(g=S / n_along, defect_l2=(D - SS) / D, defect_chi2=chi2)


def _label_measures(p: PhaseField) -> tuple:
    """The outer profile, the inner profile along its axis, the phase fractions
    and their gaps d14, d12: all that the report, ``sweep`` and ``verify`` read
    from the labels alone."""
    outer = extract_outer(p)
    inner = extract_inner(p, outer)
    theta = volume_fractions(p)
    gaps = (float(gap) for gap in incompatibility_defect(theta))
    return outer, inner, theta, *gaps


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


# Cells per batch of column offsets in the mixed-difference search: a worker's
# buffer holds 8 offsets (1 MB) at 128^2.  On a 2-CPU machine at 128^2, per
# search on Gaussian fields: one offset per operation took 126-142 ms on one
# worker and 98-117 ms on two; 8 per operation 98-118 ms on one and 55-64 ms on
# two; 2, 4, 16 and 32 per operation on two took 61-80, 53-67, 62-73 and 72-79.
_BATCH_CELLS = 8 * 128 * 128


def mixed_difference_sup(f: ScalarField) -> float:
    """Worst mixed-difference mass: the largest mean of ``|D_h2 D_h1 f|``.

    ``D_h`` is the periodic difference along one axis with an offset of h
    cells.  Offsets -h and +h give the same mass (the two differences agree
    up to a translation by h and a sign) and h = 0 gives none, so only
    ``1 <= h <= n // 2`` is visited on each axis.  This is the quantity that
    bounds the :func:`wave_decompose` remainder.

    The row offsets h1 are split across the spectral core's workers, and each
    array operation takes a batch of column offsets h2, so that it releases
    the GIL long enough for two workers to overlap.  Each offset's cells are
    summed alone and whole, as ``diff.sum()`` would, and a maximum does not
    depend on the order of the parts, so no bit depends on the worker count.
    """
    v = f.values
    n1, n2 = f.grid.shape
    half = n2 // 2
    batch = max(1, min(half, _BATCH_CELLS // (n1 * n2)))

    def search(span: slice, parts: int) -> float:
        # D_h1 f, two row slices either side of the periodic wrap, followed by
        # its first n2 // 2 columns again, so that D_h2 D_h1 f is the window
        # of n2 columns from column h2 minus D_h1 f; nothing is allocated per
        # offset, and one operation takes a batch of windows.
        ext = np.empty((n1, n2 + half))
        d1 = ext[:, :n2]
        windows = sliding_window_view(ext, n2, axis=1).transpose(1, 0, 2)
        buf = np.empty((batch, n1, n2))
        mass = 0.0
        for h1 in range(span.start + 1, span.stop + 1):
            np.subtract(v[h1:], v[: n1 - h1], out=d1[: n1 - h1])
            np.subtract(v[:h1], v[n1 - h1 :], out=d1[n1 - h1 :])
            ext[:, n2:] = ext[:, :half]
            for h2 in range(1, half + 1, batch):
                diff = buf[: min(batch, half + 1 - h2)]
                np.abs(np.subtract(windows[h2 : h2 + len(diff)], d1, out=diff), out=diff)
                # Each row is one offset's cells, summed as diff.sum() would be.
                mass = max(mass, diff.reshape(len(diff), -1).sum(axis=1).max())
        return mass

    cells = n1 * n2 * (n1 // 2) * half
    return float(max(_in_parts(search, n1 // 2, cells))) / (n1 * n2)


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
    transpose = outer.axis == "y2"
    f = outer.f[:, None]
    (residual,) = _fold_slabs(
        lambda _, modes, c: [_transport_sums(c, modes, f)], [_coeffs(u.values)], u.grid, transpose
    )
    return math.sqrt(_frame(u.grid, transpose).n1 * residual)


def _transport_sums(u: np.ndarray, modes: tuple, f: np.ndarray) -> np.ndarray:
    """Column sums of ``|R|^2`` for one frame slab ``u`` of a field's
    coefficients, whose modes are ``modes``; f is the outer sign of each row.

    R holds the row spectra of the residual: f is constant along each row, so
    they are A - f B, with A and B the core's row spectra of the derivatives
    along and across, and the mean square of the residual is n1 times the
    fold of these sums.
    """
    along, across = _derivative_rows(u, modes)
    across *= f
    along -= across
    return _sq(along).sum(axis=0)


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


def _slab_pass(
    c1: np.ndarray, c2: np.ndarray, grid: Grid, outer: OuterProfile, inner: InnerProfile
) -> tuple[float, float]:
    """The characteristic residual of the Helmholtz potential of (chi2t, chi1t)
    and the weak defect, in one walk over frame slabs of c1, c2 (left as they are).

    The weak defect is the negative-norm distance of the out-of-plane pair
    from its twin template, the inner profile's mean plus the spectral
    transverse derivative of the periodic midpoint primitive of the rest,
    carried along the staircase shear, in the inhomogeneous first-order norm,
    both components in quadrature; an exact crossing twin or laminate, whatever
    its mean, matches its template.
    Template row j is that profile shifted by s_j cells; the core's
    ``_sheared_rows`` gives its row spectra on a slab and ``_slab_coeffs``
    the template's coefficients there.
    """
    transpose = outer.axis == "y2"
    if transpose:  # the transpose swaps the slots with the axes
        c1, c2 = c2, c1
    frame = _frame(grid, transpose)
    f = outer.f[:, None]
    gm = inner.g - inner.g.mean()
    primitive = (np.cumsum(gm) - 0.5 * gm) / frame.n2
    template_rows = _sheared_rows(primitive, inner.g.mean(), _staircase_cells(outer.f, frame.n2)[0])

    def gap_sums(field: np.ndarray, rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
        return (_sq(field - _slab_coeffs(rows, frame)) * weight).sum(axis=0)

    def column_sums(cols, modes, a, b):
        k1, k2, _, _ = modes
        residual = _transport_sums(_potential(b, a, *modes), modes, f)
        weight = _full1_weight(k1, k2)
        rows = template_rows(cols)
        primary = gap_sums(a, rows, weight)
        rows *= f
        return residual, primary, gap_sums(b, rows, weight)

    residual, primary, product = _fold_slabs(column_sums, (c1, c2), grid, transpose)
    return math.sqrt(frame.n1 * residual), math.hypot(math.sqrt(primary), math.sqrt(product))


def _spectral_pass(
    p: PhaseField, outer: OuterProfile, inner: InnerProfile
) -> tuple[float, float, float]:
    """Relaxed elastic energy, characteristic residual and weak defect, from
    one transform of each indicator, each read from the labels with one
    distinct-row map.

    The slab walk and the energy's shear fold read c1 and c2, made whole;
    chi3t's distinct rows are transformed and streamed through the cross fold
    only after they are spent (into c1's memory when no row repeats), so
    beside the labels at most two half spectra, no half-size term and no
    indicator slot are alive at once.
    """
    first = _distinct_rows(p.labels)
    c1, c2 = (_coeffs(p.labels, table, first) for table in _SLOT_OF_LABEL[:2])
    char, weak = _slab_pass(c1, c2, p.grid, outer, inner)
    shear = _shear(c1, c2, p.grid)
    del c2
    c3 = _row_spectra(p.labels, first, _SLOT_OF_LABEL[2], out=c1)  # c1's memory, if no row repeats
    del c1
    return shear + _cross(c3, p.grid), char, weak


def rigidity_report(p: PhaseField, eta: float) -> RigidityReport:
    """Run the full diagnostic suite on one phase arrangement.

    Deterministic: equal inputs give byte-identical JSON.  The inner profile
    requires grid-aligned staircases, which square grids always provide.
    Every part reads the labels; no indicator slot is made.
    """
    _check_eta(eta)
    outer, inner, theta, d14, d12 = _label_measures(p)
    elastic, char, weak = _spectral_pass(p, outer, inner)
    energy = _weighted(eta, elastic, surface_energy(p))
    diagnostics = {
        "log10_char_residual": _log10_or_none(char),
        "log10_d12": _log10_or_none(d12),
        "log10_d14": _log10_or_none(d14),
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
        d14=d14,
        d12=d12,
        char_residual=char,
        weak_defect=weak,
        diagnostics=diagnostics,
    )
