"""Generators for the microstructures the energy scaling is tested on.

Every generator returns a :class:`~fourwell.fields.PhaseField` of exact
lattice labels: every construction below is rasterized by integer cell
counts, so phase fractions and defects computed from the output are rational
numbers with known closed forms whenever the grid divides the geometry (each
generator documents what it needs).  An admissible triple has chi2t =
chi1t * chi3t, so a generator builds only the two signs chi1t and chi3t,
each as small as its structure allows (a scalar, a row, a column or an int8
array), and ``fields._from_signs`` turns them into labels.

The zoo, roughly in order of sophistication:

* constant fields and laminates (zero relaxed elastic energy when oriented
  along a coordinate axis),
* crossing twins: a coarse laminate in one direction crossed with a sheared
  fine laminate in the other, the shear following the staircase primitive of
  the coarse profile,
* self-similar branching: stripes that split in two and shrink toward the
  top and bottom of the cell, with mirrored refinement inside two horizontal
  bands,
* a zigzag concentration: an explicit sequence with gradients bounded in
  mean square whose one-directional projections stay far from every
  one-directional profile; :func:`zigzag_potential` samples its potential,
* seeded random block partitions, the null model for calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Grid, PhaseField, _frame, _from_signs, _row_blocks, shear_resample
from .model import _cbrt, _check_eta

__all__ = [
    "BranchingParams",
    "ZigzagPotential",
    "staircase_shifts",
    "gen_constant",
    "gen_laminate",
    "gen_crossing_twin",
    "gen_branching",
    "branching_bound",
    "plan_branching",
    "gen_counterexample",
    "zigzag_potential",
    "gen_random_partition",
]


def staircase_shifts(profile: np.ndarray, step: float) -> np.ndarray:
    """Cumulative primitive of a per-row profile, in transverse grid cells.

    Entry j is ``step * sum(profile[anchor:j])`` with the anchor at row
    ``n // 2``, negated sums below the anchor; no periodic wrap-around is
    applied, so the result is the exact primitive of the step function on
    the fundamental domain, in integers when ``profile`` and ``step`` are.
    """
    profile = np.asarray(profile)
    partial = np.concatenate([[0], np.cumsum(profile)])
    anchor = profile.shape[0] // 2
    return (partial[:-1] - partial[anchor]) * step


def _staircase_cells(profile: np.ndarray, n_trans: int) -> tuple[np.ndarray, np.ndarray]:
    """``staircase_shifts(profile, n_trans / n)`` of a +-1 ``profile`` of n rows,
    exactly: the quotients and remainders by n of its integer staircase of step
    n_trans.  It lands on whole cells, at the quotients, iff n divides n_trans."""
    return np.divmod(staircase_shifts(np.asarray(profile, dtype=np.int64), n_trans), len(profile))


def _check_pm1(profile: np.ndarray, name: str, n: int) -> np.ndarray:
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {profile.shape}")
    if not np.isin(profile, (-1.0, 1.0)).all():
        idx = int(np.flatnonzero(~np.isin(profile, (-1.0, 1.0)))[0])
        raise ValueError(f"{name}[{idx}] = {profile[idx]} is not +-1")
    return profile


def gen_constant(phase: int, grid: Grid) -> PhaseField:
    """A single phase everywhere."""
    if phase not in (1, 2, 3, 4):
        raise ValueError(f"phase must be 1..4, got {phase!r}")
    return PhaseField(grid, np.full(grid.shape, phase, dtype=np.uint8))


def _along(axis: str, grid: Grid) -> Grid:
    """``grid`` laid out as (along ``axis``, transverse)."""
    if axis not in ("y1", "y2"):
        raise ValueError(f"axis must be 'y1' or 'y2', got {axis!r}")
    return _frame(grid, axis == "y2")


def _placed(axis: str, along: Grid, chi1t: np.ndarray | int, chi3t: np.ndarray) -> PhaseField:
    """Labels of a structure built normal to y1 on ``along`` from its two signs,
    turned to be normal to ``axis``.

    The turn is the model's transpose (the tests' ``whole_array._transposed``):
    it swaps the axes and the slots chi1t and chi2t, so the turned structure's
    chi2t is ``chi1t`` turned, and no product field is made.
    """
    if axis == "y1":
        return _from_signs(along, chi1t, chi3t)
    return _from_signs(_frame(along, True), np.transpose(chi1t), chi3t.T, slot=2)


def gen_laminate(axis: str, profile: np.ndarray, grid: Grid) -> PhaseField:
    """Stripes normal to one axis: the in-plane indicator follows ``profile``
    and the two out-of-plane ones are slaved so the triple stays admissible
    with zero relaxed elastic energy."""
    along = _along(axis, grid)
    return _placed(axis, along, 1, _check_pm1(profile, "profile", along.n1)[:, None])


def gen_crossing_twin(
    axis: str, f_profile: np.ndarray, g_profile: np.ndarray, grid: Grid
) -> PhaseField:
    """Two twin systems crossed at right angles.

    ``f_profile`` sets the coarse laminate normal to ``axis``; the fine
    laminate ``g_profile`` runs the other way, sheared so its stripes follow
    the zero-elastic-energy direction of the coarse structure.  The shear is
    the exact staircase primitive of ``f_profile``, which requires the
    transverse resolution to be a multiple of the coarse one.
    """
    along = _along(axis, grid)
    f = _check_pm1(f_profile, "f_profile", along.n1)
    g = _check_pm1(g_profile, "g_profile", along.n2).astype(np.int8)
    shifts, misses = _staircase_cells(f, along.n2)
    if misses.any():
        raise ValueError(
            f"transverse resolution {along.n2} must be a multiple of {along.n1} "
            "so the staircase shear lands on whole cells"
        )
    sheared = shear_resample(np.broadcast_to(g, along.shape), shifts)
    return _placed(axis, along, sheared, f.astype(np.int8)[:, None])


# ---------------------------------------------------------------------------
# branching


@dataclass(frozen=True)
class BranchingParams:
    """Geometry of the self-similar refinement.

    mu is the minority-stripe volume fraction, lam the height of the lower
    band, beta the height-decay exponent, N the number of generations, w1
    the coarsest stripe period (the reciprocal of an integer) and eta the
    energy ratio the construction is tuned for.

    Admissibility (every generation wider than tall would break the energy
    bound) is a separate check, :meth:`check_admissible`, because the bound
    formula itself is well defined for any parameters.
    """

    mu: float
    lam: float
    beta: float
    N: int
    w1: float
    eta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu!r}")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {self.lam!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        if 0.5**self.beta == 1.0:  # the heights would divide 0 by 0
            raise ValueError(f"beta = {self.beta!r} is too small: 0.5**beta rounds to 1")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        if not 0.0 < self.w1 <= 1.0:
            raise ValueError(f"w1 must lie in (0, 1], got {self.w1!r}")
        inv = 1.0 / self.w1
        if abs(inv - round(inv)) > 1e-9:
            raise ValueError(f"w1 must be the reciprocal of an integer, got {self.w1!r}")
        _check_eta(self.eta)

    def widths(self) -> np.ndarray:
        """Stripe periods w_n = 2^(1-n) w1 for n = 1..N."""
        return self.w1 * 0.5 ** np.arange(self.N)

    def heights(self) -> np.ndarray:
        """Slab heights l_n per half-stack of the upper band; they sum to
        (1 - lam) / 2.  The powers are libm's, not numpy's AVX-512 variant."""
        decay = 0.5**self.beta
        l1 = 0.5 * (1.0 - self.lam) * (1.0 - decay) / (1.0 - decay**self.N)
        return l1 * np.array([decay**n for n in range(self.N)])

    @property
    def is_admissible(self) -> bool:
        try:
            self.check_admissible()
        except ValueError:
            return False
        return True

    def check_admissible(self) -> None:
        """Raise ValueError naming the first violated proportion."""
        w = self.widths()
        l = self.heights()
        for n in range(self.N):
            if w[n] > l[n]:
                raise ValueError(
                    f"generation {n + 1} is wider than tall: w={w[n]:.6g} > l={l[n]:.6g}"
                )
        tip = self.w1 * 0.5**self.N
        if tip > 0.5 * self.lam:
            raise ValueError(
                f"finest period {tip:.6g} exceeds half the lower band {0.5 * self.lam:.6g}"
            )


def branching_bound(p: BranchingParams) -> float:
    """Closed-form energy of the branched construction.

    Interface and elastic contributions per generation, plus one crossing
    term for the band boundaries and one for the unrefined tips.  Valid as
    an upper bound for the relaxed energy only when ``p`` is admissible,
    but evaluable for any parameters.
    """
    w = p.widths()
    l = p.heights()
    root = _cbrt(p.eta)
    per_gen = root * (l / w) + (w**2 / l) / root**2
    tips = 0.5**(p.N + 1) * p.w1 / root**2
    return float(per_gen.sum() + root + tips)


def plan_branching(
    eta: float,
    mu: float = 0.25,
    lam: float = 0.25,
    beta: float = 1.5,
    max_grid: int = 2048,
) -> tuple[BranchingParams, Grid]:
    """Choose admissible branching parameters and a grid for a given eta.

    The coarsest period starts at roughly ``eta^(1/3) * (1 - lam)`` and the
    generation count at the largest N with ``2^-N >= eta^(2/3)``; both are
    walked down until the proportions are admissible and the grid that
    resolves every generation exactly fits within ``max_grid``.
    """
    _check_eta(eta)
    root = _cbrt(eta)
    den_start = max(1, math.ceil(1.0 / (root * (1.0 - lam)) - 1e-9))
    n_start = max(1, math.floor(-math.log2(root**2) + 1e-9))
    for den in range(den_start, den_start + 4096):
        for n_gen in range(n_start, 0, -1):
            stride = den * 2 ** (n_gen - 1)
            kk = min(32, max_grid // stride) // 8 * 8
            if kk < 8:
                continue
            params = BranchingParams(mu=mu, lam=lam, beta=beta, N=n_gen, w1=1.0 / den, eta=eta)
            if not params.is_admissible:
                continue
            g = stride * kk
            if abs(g * lam / 2 - round(g * lam / 2)) > 1e-9:
                raise ValueError(
                    f"grid {g} cannot split the bands evenly for lam={lam!r}; "
                    "use a lam with a small power-of-two denominator"
                )
            return params, Grid(g, g)
    raise ValueError(
        f"no admissible branching geometry for eta={eta!r} fits within "
        f"max_grid={max_grid}; raise the grid cap"
    )


def _branch_pattern(period: int, stripe: int, mu: float, tau: float) -> np.ndarray:
    """One period of a slab cross-section at inward coordinate tau.

    +1 background with two -1 stripes of ``stripe`` cells: one pinned to the
    right edge, one migrating from adjacent at tau=0 to the half-period
    position at tau=1, where the pattern equals two half-period copies of
    its own tau=0 state.
    """
    pattern = np.ones(period)
    start = math.floor((1.0 - mu) * period * (1.0 - 0.5 * tau) + 0.5)
    pattern[start : start + stripe] = -1.0
    pattern[period - stripe :] = -1.0
    return pattern


def _require_integer(value: float, what: str) -> int:
    if abs(value - round(value)) > 1e-9:
        raise ValueError(f"{what} = {value!r} must be an integer")
    return int(round(value))


def gen_branching(p: BranchingParams, grid: Grid) -> PhaseField:
    """Rasterize the branched microstructure exactly on ``grid``.

    Two bands are stacked along the second coordinate: the lower one of
    height lam and the upper one of height 1 - lam.  Each band refines
    symmetrically from its midline outward, stripes halving in period from
    one generation to the next.  Requires the grid to resolve every
    generation: the column count must carry w1 times a power of two, the row
    count the band split, and the finest stripes at least one cell.
    """
    p.check_admissible()
    n1, n2 = grid.shape
    cols_w1 = _require_integer(n1 * p.w1, "n1 * w1 (coarsest period in cells)")
    if cols_w1 % 2 ** (p.N - 1) != 0:
        raise ValueError(
            f"coarsest period {cols_w1} cells must be divisible by 2^(N-1) = {2 ** (p.N - 1)}"
        )
    half_rows = {
        "lower": _require_integer(n2 * p.lam / 2, "n2 * lam / 2 (lower half-band rows)"),
        "upper": _require_integer(n2 * (1 - p.lam) / 2, "n2 * (1-lam) / 2 (upper half-band rows)"),
    }

    heights = p.heights()
    sigma = np.ones(grid.shape, dtype=np.int8)

    # Slab boundaries as fractions of a half band, measured outward from its
    # midline; both bands split in the same proportions.
    fractions = np.concatenate([[0.0], np.cumsum(heights)]) / heights.sum()
    for band, rows_half in half_rows.items():
        mid = half_rows["lower"] if band == "lower" else 2 * half_rows["lower"] + half_rows["upper"]
        bounds = np.rint(fractions * rows_half).astype(np.int64)
        for n in range(p.N):
            period = cols_w1 >> n
            stripe = int(round(0.5 * p.mu * period))
            if stripe < 1:
                raise ValueError(
                    f"generation {n + 1} stripes need mu * w_n / 2 of at least one cell; "
                    f"period {period} cells resolves none"
                )
            count = int(bounds[n + 1] - bounds[n])
            for r in range(count):
                tau = (r + 0.5) / count
                pattern = np.tile(_branch_pattern(period, stripe, p.mu, tau), n1 // period)
                sigma[:, mid + bounds[n] + r] = pattern
                sigma[:, mid - 1 - bounds[n] - r] = pattern

    # chi1t is -1 on the lower band and +1 on the upper one, and chi2t = -sigma.
    band = np.where(np.arange(n2) < 2 * half_rows["lower"], np.int8(-1), np.int8(1))
    return _from_signs(grid, band, np.multiply(sigma, -band, out=sigma))


# ---------------------------------------------------------------------------
# zigzag concentration


@dataclass(frozen=True)
class ZigzagPotential:
    """Samples of the k-th rescaled zigzag potential and its exact gradient.

    The potential folds a unit triangle wave along characteristics: its slope
    along the second coordinate is +-1 everywhere while the slope along the
    first is exactly 1/k in modulus, yet no one-directional profile comes
    close to the slope field.
    """

    grid: Grid
    k: int
    values: np.ndarray
    grad_s: np.ndarray
    grad_t: np.ndarray


def _wrap(x: np.ndarray) -> np.ndarray:
    """Reduce ``x`` to [-1/2, 1/2) in place and return it; exact-half inputs
    follow round-half-to-even."""
    x -= np.round(x)
    return x


def _slope_sign(x: np.ndarray) -> np.ndarray:
    """+1 where x >= 0 else -1, as floats."""
    return np.where(x >= 0.0, 1.0, -1.0)


def _zigzag_phase(k: int, grid: Grid, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Wrapped ``k s`` (one column) and the k-th zigzag's wrapped phase
    ``k^2 t + |wrapped k s|`` on the axis-0 ``rows`` of ``grid``.

    Requires n2 >= 8 k^2 to resolve the fast oscillation.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if grid.n2 < 8 * k * k:
        raise ValueError(
            f"n2 = {grid.n2} cannot resolve the fast direction; need n2 >= 8 k^2 = {8 * k * k}"
        )
    ks_wrapped = _wrap(k * grid.axis_coords(0)[rows, None])
    return ks_wrapped, _wrap(k * k * grid.axis_coords(1)[None, :] + np.abs(ks_wrapped))


def zigzag_potential(k: int, grid: Grid) -> ZigzagPotential:
    """Samples of the k-th zigzag potential and its exact gradient.

    Its t-slope is the first indicator slot of :func:`gen_counterexample`.
    """
    ks_wrapped, phase = _zigzag_phase(k, grid)
    slope = -_slope_sign(phase)
    return ZigzagPotential(
        grid=grid,
        k=int(k),
        values=-np.abs(phase) / k**2,
        grad_s=_slope_sign(ks_wrapped) * slope / k,
        grad_t=slope,
    )


def gen_counterexample(k: int, grid: Grid) -> PhaseField:
    """The k-th member of the zigzag sequence.

    The first indicator slot is the t-slope of :func:`zigzag_potential`, the
    in-plane one a symmetric two-stripe profile in s, and the second slot
    their product, so the triple is admissible.  Requires n2 >= 8 k^2.

    The float phase is computed a row block at a time, so the int8 first
    slot and the labels are the only full-size arrays.
    """
    chi1 = np.empty(grid.shape, dtype=np.int8)
    for rows in _row_blocks(grid.n1):
        chi1[rows] = np.where(_zigzag_phase(k, grid, rows)[1] >= 0.0, np.int8(-1), np.int8(1))
    return _from_signs(grid, chi1, _slope_sign(grid.axis_coords(0))[:, None])


def gen_random_partition(seed: int, grid: Grid, feature_scale: float = 0.125) -> PhaseField:
    """Uniform random phase labels on square-ish blocks of the given scale.

    Block edges are the divisors of each grid dimension closest to
    ``feature_scale`` in domain units, so the partition tiles exactly; the
    same seed always yields the same field.
    """
    if not 0.0 < feature_scale <= 1.0:
        raise ValueError(f"feature_scale must lie in (0, 1], got {feature_scale!r}")
    rng = _rng(seed)
    b1, b2 = _block_edge(grid.n1, feature_scale), _block_edge(grid.n2, feature_scale)
    coarse = rng.integers(1, 5, size=(grid.n1 // b1, grid.n2 // b2)).astype(np.uint8)
    labels = np.repeat(np.repeat(coarse, b1, axis=0), b2, axis=1)
    return PhaseField(grid, labels)


def _block_edge(n: int, feature_scale: float) -> int:
    """The divisor of n closest to ``feature_scale * n``, the smaller on a tie,
    found in O(sqrt(n)) steps as the pairs (d, n // d) with d <= sqrt(n)."""
    target = feature_scale * n
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return min(small + [n // d for d in small], key=lambda d: (abs(d - target), d))


def _rng(seed: int) -> np.random.Generator:
    """numpy's generator for ``seed``; the one place a seed is checked."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)
