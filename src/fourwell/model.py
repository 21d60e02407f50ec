"""Material parameters and energy wells for a cubic-to-orthorhombic transformation.

The transformation strains come in six symmetry-related variants.  After
restricting to a two-dimensional cross-section and rescaling, four of them
survive as the wells of the reduced model.  Each reduced well shares one fixed
diagonal and differs only in the signs of its off-diagonal entries; those sign
triples are exactly the admissible values of the modified indicator fields
used everywhere else in this package (see :mod:`fourwell.fields`).

Lengths are measured in units of the sample size, so the only remaining
dimensionless knob is the interface-energy ratio :func:`eta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ADMISSIBLE_TUPLES",
    "MaterialParams",
    "WellSet",
    "eta",
    "make_wells",
]

#: Admissible sign triples (chi1t, chi2t, chi3t), indexed by phase 1..4.
ADMISSIBLE_TUPLES: tuple[tuple[int, int, int], ...] = (
    (1, 1, 1),
    (-1, 1, -1),
    (-1, -1, 1),
    (1, -1, -1),
)


@dataclass(frozen=True)
class MaterialParams:
    """Physical inputs: strain magnitudes, interface energy, stiffness, size.

    epsilon and delta set the transformation strain, kappa the interfacial
    energy per unit area, mu the elastic modulus scale and L the linear sample
    size.  All five must be positive.
    """

    epsilon: float = 0.01
    delta: float = 0.25
    kappa: float = 0.1
    mu: float = 1.0e9
    L: float = 0.01

    def __post_init__(self) -> None:
        for name in ("epsilon", "delta", "kappa", "mu", "L"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def d(self) -> float:
        """Anisotropy factor 1 / (6 delta^2) of the reduced diagonal."""
        return 1.0 / (6.0 * self.delta**2)

    @property
    def diag(self) -> tuple[float, float, float]:
        """Common diagonal (d1, d2, d3) of the reduced wells."""
        d2 = 3.0 / (2.0 * self.delta**2)
        return (-1.0 / 3.0, d2, -1.0 / 3.0)

    @property
    def amplitude(self) -> float:
        """Overall scale epsilon / (2 d) = 3 epsilon delta^2 of the reduced wells."""
        return 3.0 * self.epsilon * self.delta**2


@dataclass(frozen=True)
class WellSet:
    """The stress-free strains of the model.

    original:        six 3x3 variants of the full transformation.
    renormalized:    the four reduced wells, one per phase label.
    change_of_coords: the fixed 3x3 matrix relating the two frames.
    """

    original: np.ndarray
    renormalized: np.ndarray
    change_of_coords: np.ndarray


def make_wells(params: MaterialParams) -> WellSet:
    """Build the six original and four reduced wells for ``params``."""
    eps, dlt = params.epsilon, params.delta
    original = eps * np.array(
        [
            [[1, dlt, 0], [dlt, 1, 0], [0, 0, -2]],
            [[1, -dlt, 0], [-dlt, 1, 0], [0, 0, -2]],
            [[1, 0, dlt], [0, -2, 0], [dlt, 0, 1]],
            [[1, 0, -dlt], [0, -2, 0], [-dlt, 0, 1]],
            [[-2, 0, 0], [0, 1, dlt], [0, dlt, 1]],
            [[-2, 0, 0], [0, 1, -dlt], [0, -dlt, 1]],
        ],
        dtype=float,
    )

    rot = np.array([[0, 1, 1], [math.sqrt(2), 0, 0], [0, 1, -1]]) / math.sqrt(2)
    stretch = math.sqrt(6) * dlt * np.diag(
        [1 / math.sqrt(3), math.sqrt(3) / (math.sqrt(2) * dlt), 1 / math.sqrt(3)]
    )
    change_of_coords = rot @ stretch

    d1, d2, d3 = params.diag
    amp = params.amplitude
    renormalized = np.empty((4, 3, 3))
    for phase, (c1, c2, c3) in enumerate(ADMISSIBLE_TUPLES):
        renormalized[phase] = amp * np.array(
            [[d1, c3, c2], [c3, d2, c1], [c2, c1, d3]]
        )
    return WellSet(original=original, renormalized=renormalized, change_of_coords=change_of_coords)


def eta(params: MaterialParams) -> float:
    """Dimensionless interface-to-elastic energy ratio 2 d^2 kappa / (eps^2 mu L)."""
    return 2.0 * params.d**2 * params.kappa / (params.epsilon**2 * params.mu * params.L)


def _check_eta(value: float) -> None:
    """The one admissibility rule for an energy ratio eta."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"eta must be positive and finite, got {value!r}")


def _cbrt(x: float) -> float:
    """``x ** (1/3)`` for a positive finite ``x``, correctly rounded: the same
    float on every CPU, and ``_cbrt(8 * x) == 2 * _cbrt(x)``.  The guess steps
    an ulp at a time until the exact midpoints to its neighbours bracket x."""
    p, q = x.as_integer_ratio()

    def below(a: float, b: float) -> bool:  # ((a + b) / 2)^3 < x, in integers
        (n, d), (m, e) = a.as_integer_ratio(), b.as_integer_ratio()
        return (n * e + m * d) ** 3 * q < 8 * p * (d * e) ** 3

    r = float(x) ** (1 / 3)
    while below(r, up := math.nextafter(r, math.inf)):
        r = up
    while not below(down := math.nextafter(r, 0.0), r):
        r = down
    return r
