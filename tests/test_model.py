"""Tests for material parameters and the energy-well construction."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fourwell.energy import total_energy
from fourwell.fields import Grid, PhaseField
from fourwell.microstructures import BranchingParams, plan_branching
from fourwell.model import ADMISSIBLE_TUPLES, MaterialParams, _cbrt, eta, make_wells

# The six stress-free strains at the default parameters, written out in full.
EXPECTED_ORIGINAL = np.array(
    [
        [[0.01, 0.0025, 0.0], [0.0025, 0.01, 0.0], [0.0, 0.0, -0.02]],
        [[0.01, -0.0025, 0.0], [-0.0025, 0.01, 0.0], [0.0, 0.0, -0.02]],
        [[0.01, 0.0, 0.0025], [0.0, -0.02, 0.0], [0.0025, 0.0, 0.01]],
        [[0.01, 0.0, -0.0025], [0.0, -0.02, 0.0], [-0.0025, 0.0, 0.01]],
        [[-0.02, 0.0, 0.0], [0.0, 0.01, 0.0025], [0.0, 0.0025, 0.01]],
        [[-0.02, 0.0, 0.0], [0.0, 0.01, -0.0025], [0.0, -0.0025, 0.01]],
    ]
)


def test_default_derived_quantities():
    p = MaterialParams()
    assert p.d == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert p.diag == (-1.0 / 3.0, 24.0, -1.0 / 3.0)
    assert p.amplitude == pytest.approx(0.001875, rel=1e-15)


@pytest.mark.parametrize("name", ["epsilon", "delta", "kappa", "mu", "L"])
@pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
def test_params_reject_nonpositive(name, bad):
    with pytest.raises(ValueError, match=name):
        MaterialParams(**{name: bad})


def test_original_wells_match_literal_arrays():
    ws = make_wells(MaterialParams())
    assert ws.original.shape == (6, 3, 3)
    assert_allclose(ws.original, EXPECTED_ORIGINAL, rtol=0, atol=0)


def test_original_wells_are_symmetric_and_trace_free():
    ws = make_wells(MaterialParams(epsilon=0.037, delta=0.11))
    for w in ws.original:
        assert_allclose(w, w.T, rtol=0, atol=0)
        assert w.trace() == 0.0


def test_original_wells_pair_up_by_offdiagonal_sign():
    """Variants come in pairs sharing a diagonal, differing by a sign flip."""
    ws = make_wells(MaterialParams())
    for even in (0, 2, 4):
        a, b = ws.original[even], ws.original[even + 1]
        assert_allclose(a + b, 2.0 * np.diag(np.diag(a)), rtol=0, atol=0)


def test_change_of_coords_frozen_values():
    ws = make_wells(MaterialParams())
    expected = np.array(
        [
            [0.0, 3.0 / math.sqrt(2.0), 0.25],
            [math.sqrt(2.0) * 0.25, 0.0, 0.0],
            [0.0, 3.0 / math.sqrt(2.0), -0.25],
        ]
    )
    assert_allclose(ws.change_of_coords, expected, rtol=1e-15, atol=1e-16)


def test_renormalized_well_phase1_literal():
    ws = make_wells(MaterialParams())
    expected = np.array(
        [
            [-0.000625, 0.001875, 0.001875],
            [0.001875, 0.045, 0.001875],
            [0.001875, 0.001875, -0.000625],
        ]
    )
    assert_allclose(ws.renormalized[0], expected, rtol=1e-15)


def test_renormalized_wells_follow_sign_tuples():
    params = MaterialParams(epsilon=0.02, delta=0.3)
    ws = make_wells(params)
    amp = params.amplitude
    d1, d2, d3 = params.diag
    for phase, (c1, c2, c3) in enumerate(ADMISSIBLE_TUPLES):
        w = ws.renormalized[phase]
        assert_allclose(w, w.T, rtol=0, atol=0)
        assert_allclose(np.diag(w), amp * np.array([d1, d2, d3]), rtol=1e-15)
        assert w[1, 2] == amp * c1
        assert w[0, 2] == amp * c2
        assert w[0, 1] == amp * c3


def test_admissible_tuples_structure():
    assert len(ADMISSIBLE_TUPLES) == 4
    assert len(set(ADMISSIBLE_TUPLES)) == 4
    for c1, c2, c3 in ADMISSIBLE_TUPLES:
        assert abs(c1) == abs(c2) == abs(c3) == 1
        assert c2 == c1 * c3


def test_eta_frozen_default():
    assert eta(MaterialParams()) == pytest.approx(0.0014222222222222223, rel=1e-15)


def test_eta_closed_form():
    p = MaterialParams(epsilon=0.02, delta=0.1, kappa=0.3, mu=2.0e9, L=0.05)
    expected = 2.0 * p.d**2 * p.kappa / (p.epsilon**2 * p.mu * p.L)
    assert eta(p) == expected


@pytest.mark.parametrize(
    "change, factor",
    [
        (dict(L=0.02), 0.5),
        (dict(kappa=0.2), 2.0),
        (dict(epsilon=0.02), 0.25),
        (dict(mu=2.0e9), 0.5),
        (dict(delta=0.5), 1.0 / 16.0),
    ],
)
def test_eta_homogeneity(change, factor):
    """Scaling one input rescales the ratio by the advertised power."""
    base = eta(MaterialParams())
    assert eta(MaterialParams(**change)) == pytest.approx(base * factor, rel=1e-14)


ETA_ENTRY_POINTS = {
    "total_energy": lambda bad: total_energy(
        PhaseField(Grid(4, 4), np.ones((4, 4), dtype=np.int64)), bad
    ),
    "BranchingParams": lambda bad: BranchingParams(
        mu=0.25, lam=0.25, beta=1.5, N=2, w1=0.25, eta=bad
    ),
    "plan_branching": plan_branching,
}


@pytest.mark.parametrize("entry", ETA_ENTRY_POINTS.values(), ids=ETA_ENTRY_POINTS.keys())
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_every_eta_entry_point_shares_one_rule(entry, bad):
    with pytest.raises(ValueError, match=r"^eta must be positive and finite, got "):
        entry(bad)


def _cbrt_cases():
    """About 10^4 positive floats: etas the goldens and tests use, the ends of
    the float range, 5000 log-uniform over the normal range and 5000 uniform
    in (0, 1)."""
    rng = np.random.default_rng(11)
    named = [1e-2, 1e-4, 1e-5, 1e-3, 1.3e-3, 0.3, 0.1, 0.05, 1.0, 0.125, 27.0]
    edges = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    drawn = np.concatenate([10.0 ** rng.uniform(-307, 308, 5000), rng.uniform(0, 1, 5000)])
    return named + edges + [float(x) for x in drawn if x > 0.0]


def test_cbrt_is_correctly_rounded_and_scales_by_octaves():
    """The midpoints to the root's neighbours bracket x exactly, so no float
    is nearer the true root; where 8x is a normal float too, its root is
    exactly twice x's."""
    for x in _cbrt_cases():
        r = _cbrt(x)
        lo, hi = ((Fraction(r) + Fraction(math.nextafter(r, t))) / 2 for t in (0.0, math.inf))
        assert lo**3 < Fraction(x) < hi**3, x
        if 2.2250738585072014e-308 <= x <= 1.7976931348623157e308 / 8:
            assert _cbrt(8.0 * x) == 2.0 * r, x


def test_cbrt_fixes_the_bits_libm_gets_wrong():
    """glibc's cbrt, which numpy uses without AVX-512, is an ulp or two off
    at these etas."""
    assert _cbrt(1e-2).hex() == "0x1.b93a6cec0b3b1p-3"
    assert _cbrt(1e-5).hex() == "0x1.60fb8a566f628p-6"
