"""Elastic and interfacial energies of a phase arrangement.

Two elastic energies appear.  The pointwise one measures the distance of a
given symmetric strain field from the well selected at each cell.  The
relaxed one minimizes over all compatible strains, which in Fourier space
decouples into independent small least-squares problems; their closed-form
solution reduces to a two-term multiplier acting on the indicator
coefficients.  An independent brute-force oracle for the same minimum lives
in :mod:`fourwell.spectral` so the algebra here never checks itself.

The relaxed energy is priced by a blocked pass: the spectral core's blocked
transforms give each half spectrum, and the multiplier's two independent
folds, ``_shear`` over c1 and c2 and ``_cross`` over c3, are per-block terms
that the core's ``_fold_blocks`` walks over its mode table a row block at a
time, splitting the columns between workers itself.  Column sums run in row
order, so each fold is the whole-array pass's float exactly, with at most two
half spectra and no half-size term alive.  A phase field is priced from its labels:
the transforms look each slot up a row block at a time, so beside the labels
only the half spectra are full-size and no indicator slot is alive.  Each
pricing is the one expression ``_shear(c1, c2) + _cross(c3)``: c1 and c2 are
dropped when ``_shear`` returns, before c3's transform starts.

The total energy weights interfacial area by ``eta^(1/3)`` and relaxed
elastic energy by ``eta^(-2/3)``; the cube root is correctly rounded, so
scaling ``eta`` by 8 shifts the weights by exact binary factors on every CPU.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .fields import (
    _SLOT_OF_LABEL,
    Grid,
    ModifiedIndicators,
    PhaseField,
    ScalarField,
    _check_shape,
    _jump_mass,
)
from .model import MaterialParams, _cbrt, _check_eta
from .spectral import _coeffs, _fold_blocks, _ksq, inv_gradient

__all__ = [
    "DEFAULT_DIAG",
    "SymStrainField",
    "EnergyBreakdown",
    "elastic_energy_pointwise",
    "relaxed_elastic_energy",
    "surface_energy",
    "total_energy",
    "interpolation_gap",
]

#: Well diagonal (d1, d2, d3) at the reference strain anisotropy.
DEFAULT_DIAG: tuple[float, float, float] = MaterialParams().diag


@dataclass(frozen=True)
class SymStrainField:
    """Six independent components of a symmetric 3x3 strain on a grid."""

    grid: Grid
    e11: np.ndarray
    e22: np.ndarray
    e33: np.ndarray
    e12: np.ndarray
    e13: np.ndarray
    e23: np.ndarray

    def __post_init__(self) -> None:
        for name in ("e11", "e22", "e33", "e12", "e13", "e23"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            _check_shape(self.grid, arr, f"SymStrainField.{name}")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Weighted energy tally: total = eta^(1/3) surface + eta^(-2/3) elastic."""

    eta: float
    elastic: float
    surface: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)

    def to_json(self) -> str:
        return _to_json(self)


def _to_json(record) -> str:
    """A results dataclass as JSON: its fields by name, sorted, arrays as lists."""
    return json.dumps(asdict(record), sort_keys=True, default=np.ndarray.tolist)


def elastic_energy_pointwise(
    e: SymStrainField,
    m: ModifiedIndicators,
    diag: tuple[float, float, float] = DEFAULT_DIAG,
) -> float:
    """Mean squared distance of the strain from the local well.

    Off-diagonal misfits count twice, matching the Frobenius norm of the
    full symmetric matrix.  For the strain of any displacement (the tests
    build one with ``whole_array.strain_from_displacement``) this is an upper
    bound on :func:`relaxed_elastic_energy` that shares none of its algebra.
    """
    if e.grid != m.grid:
        raise ValueError(f"strain grid {e.grid.shape} != indicator grid {m.grid.shape}")
    d1, d2, d3 = diag
    sq = (
        (e.e11 - d1) ** 2
        + (e.e22 - d2) ** 2
        + (e.e33 - d3) ** 2
        + 2.0 * (e.e12 - m.chi3t) ** 2
        + 2.0 * (e.e13 - m.chi2t) ** 2
        + 2.0 * (e.e23 - m.chi1t) ** 2
    )
    return float(sq.mean())


def relaxed_elastic_energy(m: ModifiedIndicators) -> float:
    """Minimal elastic energy over all compatible strains.

    Takes any :class:`~fourwell.fields.ModifiedIndicators`, which holds a raw
    triple of fields in the off-diagonal slots, admissible or not.  The
    common well diagonal is constant in space, hence invisible to every
    nonzero frequency and dropped.  The closed form per mode k /= 0 is

        2 |k|^-4 ( |k|^2 |k2 c2 - k1 c1|^2  +  2 k1^2 k2^2 |c3|^2 )

    which is invariant under rescaling k, so integer frequencies suffice.  At
    an unpaired even-grid frequency ``-n/2`` the shear term's sign-sensitive
    part, ``-2 k1 k2 Re(c2 conj(c1))``, is averaged over both signs, which
    zeroes it, so reflections with their sign flips leave the energy unchanged
    on every grid.

    It is two folds that share no array, one over c1 and c2 and one over c3,
    so at most two half spectra are alive at once; per-mode work runs a row
    block at a time.  No command prices through it: they price phase fields
    from their labels with the same folds.  It is the raw-triple form the
    tests compare the label route and the oracle with.
    """
    grid = m.grid
    return _shear(_coeffs(m.chi1t), _coeffs(m.chi2t), grid) + _cross(_coeffs(m.chi3t), grid)


def _relaxed_from_labels(p: PhaseField) -> float:
    """:func:`relaxed_elastic_energy` of ``to_modified(p)``, the same float,
    with each slot looked up from the labels a row block at a time inside its
    transform, so no full-size slot is made.  ``energy``, ``sweep`` and
    ``verify``'s energy checks all price through it."""
    t1, t2, t3 = _SLOT_OF_LABEL
    grid = p.grid
    return _shear(_coeffs(p.labels, t1), _coeffs(p.labels, t2), grid) + _cross(
        _coeffs(p.labels, t3), grid
    )


def _shear(c1: np.ndarray, c2: np.ndarray, grid: Grid) -> float:
    """Fold of ``2 (k1^2 |c1|^2 + k2^2 |c2|^2 - 2 d1 d2 Re(c2 conj(c1))) / |k|^2``.

    ``d1, d2`` are the derivative frequencies, zero at unpaired modes; the
    inputs are left as they are.  The exact factor 2 is taken outside the
    fold, and the mean mode adds exactly 0.
    """

    def per_mode(k1, k2, d1, d2, a, b):
        # The sign-sensitive term averages to 0 at unpaired modes, where d is 0.
        block = _sq(a)
        block *= k1**2
        term = _sq(b)
        term *= k2**2
        block += term
        np.multiply(2.0 * d1, d2, out=term)
        term *= _re_dot(b, a)
        block -= term
        block /= _ksq(k1, k2)
        return block

    return 2.0 * _fold_blocks(per_mode, grid, c1, c2)


def _cross(c3: np.ndarray, grid: Grid) -> float:
    """Fold of ``4 k1^2 k2^2 |c3|^2 / |k|^4``, ``c3`` left as it is; the exact
    factor 4 is taken outside the fold, and the mean mode adds exactly 0."""

    def per_mode(k1, k2, d1, d2, c):
        ksq = _ksq(k1, k2)
        block = _sq(c)
        block *= (k1 * k2) ** 2
        block /= np.square(ksq, out=ksq)
        return block

    return 4.0 * _fold_blocks(per_mode, grid, c3)


def _sq(c: np.ndarray) -> np.ndarray:
    """``|c|^2`` without a square root, as a new array."""
    out = np.square(c.real)
    out += np.square(c.imag)
    return out


def _re_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re(a conj(b))``, as a new array."""
    out = a.real * b.real
    out += a.imag * b.imag
    return out


def surface_energy(p: PhaseField) -> float:
    """Total interfacial perimeter, each interface counted from both sides.

    Equals the sum of :func:`~fourwell.fields.total_variation` over the four
    phase indicators: a face between two different labels is a jump of
    exactly two of them.  Faces across axis 0 have length 1/n2 and faces
    across axis 1 length 1/n1.
    """
    n1, n2 = p.grid.shape
    return float(2.0 * _label_jumps(p.labels) / n2 + 2.0 * _label_jumps(p.labels.T) / n1)


def _label_jumps(labels: np.ndarray) -> int:
    """Number of faces across axis 0, with the periodic wrap, between two labels."""
    inner = np.count_nonzero(labels[1:] != labels[:-1])
    return inner + np.count_nonzero(labels[0] != labels[-1])


def total_energy(p: PhaseField, eta: float) -> EnergyBreakdown:
    """Weighted sum of surface and relaxed elastic parts.

    The elastic part is priced from the labels, with two half spectra beside
    them and no indicator slot made.
    """
    _check_eta(eta)
    return _weighted(eta, _relaxed_from_labels(p), surface_energy(p))


def _weighted(eta: float, elastic: float, surface: float) -> EnergyBreakdown:
    """The one place surface and elastic parts are weighted into a total."""
    _check_eta(eta)
    root = _cbrt(eta)
    total = root * surface + elastic / root**2
    return EnergyBreakdown(eta=eta, elastic=elastic, surface=surface, total=total)


def interpolation_gap(f: ScalarField, eta: float) -> tuple[float, float, float]:
    """Compare the squared size of ``f`` against its weighted interpolants.

    Returns ``(lhs, rhs, ratio)`` with ``lhs`` the mean square of ``f`` and
    ``rhs = eta^(1/3) * |gradient| * sup + eta^(-2/3) * |potential|^2`` built
    from the total gradient mass and the mean-square primitive of ``f``.
    The identically zero field yields ``(0.0, 0.0, 0.0)``; otherwise ``f``
    must have zero mean.
    """
    _check_eta(eta)
    if not f.values.any():
        return (0.0, 0.0, 0.0)
    lhs = float(np.mean(f.values**2))
    grad = _jump_mass(f)
    sup = float(np.abs(f.values).max())
    potential_sq = float(np.mean(inv_gradient(f).values ** 2))
    root = _cbrt(eta)
    rhs = root * grad * sup + potential_sq / root**2
    return (lhs, rhs, lhs / rhs)
