"""Tests for the microstructure generators and the branching planner."""

import time
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fourwell.microstructures
from fourwell.cli import main
from fourwell.energy import relaxed_elastic_energy, surface_energy
from fourwell.fields import _BLOCK_ROWS as BLOCK_ROWS
from fourwell.fields import Grid, to_modified, volume_fractions
from fourwell.microstructures import (
    BranchingParams,
    _block_edge,
    branching_bound,
    gen_branching,
    gen_constant,
    gen_counterexample,
    gen_crossing_twin,
    gen_laminate,
    gen_random_partition,
    plan_branching,
    staircase_shifts,
    zigzag_potential,
)

from whole_array import stripe_profile


def exact_fractions(p):
    counts = np.bincount(p.labels.ravel(), minlength=5)[1:5]
    total = p.labels.size
    return tuple(Fraction(int(c), total) for c in counts)


def test_staircase_shifts_anchor_and_scale():
    shifts = staircase_shifts(np.array([1.0, 1.0, -1.0, -1.0]), 2.0)
    assert_allclose(shifts, [-4.0, -2.0, 0.0, -2.0], rtol=0)
    exact = staircase_shifts(np.array([1, 1, -1, -1]), 2)
    assert exact.dtype.kind == "i" and exact.tolist() == [-4, -2, 0, -2]


def test_staircase_shifts_balanced_profile_stays_bounded():
    profile = np.resize([1.0, -1.0], 64)
    shifts = staircase_shifts(profile, 1.0)
    assert np.abs(shifts).max() <= 1.0


class TestConstant:
    @pytest.mark.parametrize("phase", [1, 2, 3, 4])
    def test_one_hot_fractions(self, phase):
        p = gen_constant(phase, Grid(4, 4))
        fractions = volume_fractions(p)
        assert fractions[phase - 1] == 1.0
        assert sum(fractions) == 1.0

    @pytest.mark.parametrize("phase", [0, 5, -1])
    def test_rejects_unknown_phase(self, phase):
        with pytest.raises(ValueError, match="phase"):
            gen_constant(phase, Grid(4, 4))


class TestLaminate:
    def test_y1_uses_phases_one_and_four(self):
        grid = Grid(8, 8)
        p = gen_laminate("y1", stripe_profile(8, 2), grid)
        assert set(np.unique(p.labels)) == {1, 4}
        assert (p.labels == p.labels[:, :1]).all()

    def test_y2_uses_phases_one_and_two(self):
        grid = Grid(8, 8)
        p = gen_laminate("y2", stripe_profile(8, 2), grid)
        assert set(np.unique(p.labels)) == {1, 2}
        assert (p.labels == p.labels[:1, :]).all()

    @pytest.mark.parametrize("axis", ["y1", "y2"])
    def test_no_elastic_energy(self, axis):
        grid = Grid(32, 32)
        p = gen_laminate(axis, stripe_profile(32, 4), grid)
        assert relaxed_elastic_energy(to_modified(p)) <= 1e-12
        assert surface_energy(p) == 8.0

    def test_rejects_bad_profiles(self):
        grid = Grid(8, 8)
        with pytest.raises(ValueError, match="axis"):
            gen_laminate("y3", stripe_profile(8, 2), grid)
        with pytest.raises(ValueError):
            gen_laminate("y1", np.full(8, 0.5), grid)
        with pytest.raises(ValueError):
            gen_laminate("y1", stripe_profile(4, 2), grid)

    def test_refusal_names_the_first_bad_entry(self):
        profile = np.array([1.0, -1.0, 0.5, 1.0, 2.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match=r"^profile\[2\] = 0\.5 is not \+-1$"):
            gen_laminate("y1", profile, Grid(8, 8))


class TestCrossingTwin:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(
                lambda axis, grid, n_along, n_trans: gen_crossing_twin(
                    axis, stripe_profile(n_along, 2), stripe_profile(n_trans, 8), grid
                ),
                id="crossing-twin",
            ),
            pytest.param(
                lambda axis, grid, n_along, n_trans: gen_laminate(
                    axis, stripe_profile(n_along, 4), grid
                ),
                id="laminate",
            ),
        ],
    )
    def test_y2_is_the_transposed_y1_with_swapped_wings(self, make):
        a = make("y1", Grid(16, 32), 16, 32).labels
        b = make("y2", Grid(32, 16), 16, 32).labels
        swap = np.array([0, 1, 4, 3, 2])
        assert np.array_equal(b, swap[a.T])

    def test_balanced_fractions(self):
        grid = Grid(64, 64)
        p = gen_crossing_twin("y1", stripe_profile(64, 2), stripe_profile(64, 8), grid)
        assert exact_fractions(p) == (
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(1, 4),
        )

    def test_refinement_shrinks_elastic_energy(self):
        f = stripe_profile(32, 2)
        g = stripe_profile(32, 8)
        coarse = gen_crossing_twin("y1", f, g, Grid(32, 32))
        fine = gen_crossing_twin(
            "y1", np.repeat(f, 4), np.repeat(g, 4), Grid(128, 128)
        )
        e_coarse = relaxed_elastic_energy(to_modified(coarse))
        e_fine = relaxed_elastic_energy(to_modified(fine))
        assert 0.0 < e_fine < e_coarse

    def test_requires_divisible_resolutions(self):
        with pytest.raises(ValueError, match="multiple"):
            gen_crossing_twin(
                "y1", stripe_profile(12, 2), stripe_profile(18, 2), Grid(12, 18)
            )

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            gen_crossing_twin("x", stripe_profile(8, 2), stripe_profile(8, 2), Grid(8, 8))


class TestBranchingParams:
    def test_widths_and_heights(self):
        p = BranchingParams(mu=0.25, lam=0.25, beta=1.5, N=3, w1=0.25, eta=1e-3)
        assert_allclose(p.widths(), [0.25, 0.125, 0.0625], rtol=0)
        heights = p.heights()
        assert heights.sum() == pytest.approx(0.375, rel=1e-14)
        assert heights[1] / heights[0] == pytest.approx(2.0**-1.5, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(mu=0.0), "mu"),
            (dict(mu=1.0), "mu"),
            (dict(lam=1.5), "lam"),
            (dict(beta=0.0), "beta"),
            (dict(N=0), "N"),
            (dict(w1=0.3), "reciprocal"),
            (dict(w1=0.0), "w1"),
            (dict(eta=0.0), "eta"),
            (dict(beta=1e-300), "beta"),  # 0.5**beta rounds to 1
        ],
    )
    def test_domain_validation(self, kwargs, match):
        base = dict(mu=0.25, lam=0.25, beta=1.5, N=2, w1=0.25, eta=1e-2)
        base.update(kwargs)
        with pytest.raises(ValueError, match=match):
            BranchingParams(**base)

    def test_admissibility_names_the_violation(self):
        wide = BranchingParams(mu=0.25, lam=0.5, beta=1.5, N=1, w1=0.5, eta=1.0)
        assert not wide.is_admissible
        with pytest.raises(ValueError, match="generation 1"):
            wide.check_admissible()
        fine = plan_branching(1e-2)[0]
        assert fine.is_admissible
        fine.check_admissible()

    def test_tip_condition(self):
        p = BranchingParams(mu=0.25, lam=0.0625, beta=4.0, N=1, w1=0.125, eta=1.0)
        with pytest.raises(ValueError, match="finest period"):
            p.check_admissible()

    def test_refusals_name_both_lengths(self):
        wide = BranchingParams(mu=0.25, lam=0.5, beta=1.5, N=1, w1=0.5, eta=1.0)
        message = r"^generation 1 is wider than tall: w=0\.5 > l=0\.25$"
        with pytest.raises(ValueError, match=message):
            wide.check_admissible()
        tip = BranchingParams(mu=0.25, lam=0.0625, beta=4.0, N=1, w1=0.125, eta=1.0)
        with pytest.raises(
            ValueError, match=r"^finest period 0\.0625 exceeds half the lower band 0\.03125$"
        ):
            tip.check_admissible()


def test_branching_bound_frozen_value():
    p = BranchingParams(mu=0.25, lam=0.5, beta=1.5, N=1, w1=0.5, eta=1.0)
    assert branching_bound(p) == 2.625


class TestPlanner:
    @pytest.mark.parametrize(
        "eta, w1_den, n_gen, grid_n",
        [
            (1.0, 4, 1, 128),
            (1e-2, 7, 2, 448),
            (1e-3, 14, 4, 1792),
            (1e-4, 29, 4, 1856),
        ],
    )
    def test_frozen_plans(self, eta, w1_den, n_gen, grid_n):
        params, grid = plan_branching(eta)
        assert params.w1 == 1.0 / w1_den
        assert params.N == n_gen
        assert grid.n1 == grid.n2 == grid_n
        assert params.is_admissible

    def test_planned_grid_is_a_fixed_point(self):
        """Replanning with the produced grid as the cap reproduces the plan."""
        params, grid = plan_branching(1e-2, max_grid=2048)
        again, grid2 = plan_branching(1e-2, max_grid=grid.n1)
        assert grid2.n1 == grid.n1
        assert again == params

    def test_cap_too_small_suggests_raising_it(self):
        with pytest.raises(ValueError, match="raise the grid cap"):
            plan_branching(1e-3, max_grid=64)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError, match="eta"):
            plan_branching(0.0)


class TestBranchingField:
    def test_exact_phase_fractions(self):
        params, grid = plan_branching(1e-2)
        p = gen_branching(params, grid)
        assert exact_fractions(p) == (
            Fraction(3, 16),
            Fraction(1, 16),
            Fraction(3, 16),
            Fraction(9, 16),
        )

    def test_small_planned_instance(self):
        params, grid = plan_branching(1.0, max_grid=64)
        assert grid.n1 == 64
        p = gen_branching(params, grid)
        assert exact_fractions(p) == (
            Fraction(3, 16),
            Fraction(1, 16),
            Fraction(3, 16),
            Fraction(9, 16),
        )

    def test_columns_must_resolve_the_coarse_period(self):
        params, _ = plan_branching(1e-2)
        with pytest.raises(ValueError, match="integer"):
            gen_branching(params, Grid(100, 448))

    def test_coarsest_period_must_halve_down_to_the_finest(self):
        params = BranchingParams(mu=0.25, lam=0.25, beta=1.5, N=2, w1=1 / 11, eta=1e-2)
        message = r"^coarsest period 3 cells must be divisible by 2\^\(N-1\) = 2$"
        with pytest.raises(ValueError, match=message):
            gen_branching(params, Grid(33, 32))

    def test_rows_must_split_the_bands(self):
        params, _ = plan_branching(1e-2)
        with pytest.raises(ValueError, match="half-band rows"):
            gen_branching(params, Grid(448, 100))

    def test_finest_stripes_need_a_cell(self):
        params, _ = plan_branching(1e-2)
        with pytest.raises(ValueError, match="at least one cell"):
            gen_branching(params, Grid(14, 16))

    def test_inadmissible_params_are_refused(self):
        bad = BranchingParams(mu=0.25, lam=0.5, beta=1.5, N=1, w1=0.5, eta=1.0)
        with pytest.raises(ValueError, match="generation"):
            gen_branching(bad, Grid(64, 64))


class TestCounterexample:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_slopes(self, k):
        n = max(8 * k * k, 16)
        pot = zigzag_potential(k, Grid(n, n))
        assert (np.abs(pot.grad_t) == 1.0).all()
        assert (np.abs(pot.grad_s) == 1.0 / k).all()
        assert (pot.values <= 0.0).all()

    def test_indicators_are_admissible_and_slaved(self):
        m = to_modified(gen_counterexample(2, Grid(32, 32)))
        pot = zigzag_potential(2, Grid(32, 32))
        assert np.array_equal(m.chi1t, pot.grad_t)
        assert np.array_equal(m.chi2t, m.chi1t * m.chi3t)
        assert set(np.unique(m.chi3t)) == {-1.0, 1.0}
        # the in-plane field is a function of the first coordinate alone
        assert (m.chi3t == m.chi3t[:, :1]).all()

    @pytest.mark.parametrize("k", [2, 4])
    def test_potential_size_matches_the_triangle_wave(self, k):
        n = 8 * k * k
        pot = zigzag_potential(k, Grid(n, n))
        norm = float(np.sqrt(np.mean(pot.values**2)))
        assert norm == pytest.approx(1.0 / (k * k * np.sqrt(12.0)), rel=5e-3)

    def test_resolution_guard(self):
        for build in (gen_counterexample, zigzag_potential):
            with pytest.raises(ValueError, match="n2"):
                build(2, Grid(64, 16))
            with pytest.raises(ValueError, match="k"):
                build(0, Grid(16, 16))

    def test_field_is_built_in_few_full_size_arrays(self, float_fields_peak):
        """The field alone is built; the potential's arrays are never sampled,
        and no full-size float array is made."""
        grid = Grid(512, 512)
        assert float_fields_peak(lambda: gen_counterexample(4, grid), grid) <= 1.0

    def test_signs_are_int8_beside_one_float_phase(self, float_fields_peak):
        """The float phase lives one row block at a time; the int8 first slot
        and the uint8 labels are the full-size arrays."""
        grid = Grid(512, 512)
        assert float_fields_peak(lambda: gen_counterexample(4, grid), grid) <= 0.5

    @pytest.mark.parametrize("offset", [-1, 0, 1, BLOCK_ROWS + 3])
    def test_row_blocks_give_the_potential_slope(self, offset):
        """Across row blocks, the first slot is still the potential's t-slope."""
        grid = Grid(BLOCK_ROWS + offset, 32)
        m = to_modified(gen_counterexample(2, grid))
        assert np.array_equal(m.chi1t, zigzag_potential(2, grid).grad_t)

    def test_generate_never_samples_the_potential(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("generate sampled the zigzag potential")

        monkeypatch.setattr(fourwell.microstructures, "ZigzagPotential", refuse)
        argv = ["generate", "counterexample", "--k", "2", "--grid", "32", "--out", str(tmp_path)]
        assert main(argv) == 0


@pytest.mark.parametrize(
    "build, bound",
    [
        pytest.param(
            lambda g: gen_laminate("y1", stripe_profile(g.n1, 4), g), 0.35, id="laminate-y1"
        ),
        pytest.param(
            lambda g: gen_laminate("y2", stripe_profile(g.n2, 4), g), 0.35, id="laminate-y2"
        ),
        pytest.param(
            lambda g: gen_crossing_twin("y1", stripe_profile(g.n1, 2), stripe_profile(g.n2, 8), g),
            0.5,
            id="crossing-twin-y1",
        ),
        pytest.param(
            lambda g: gen_crossing_twin("y2", stripe_profile(g.n2, 2), stripe_profile(g.n1, 8), g),
            0.5,
            id="crossing-twin-y2",
        ),
        pytest.param(lambda g: gen_random_partition(1, g), 0.25, id="random"),
    ],
)
def test_labels_are_built_in_few_full_size_arrays(float_fields_peak, build, bound):
    """Labels come from two signs (random: from its blocks), with no float
    indicator fields and no copy of the labels.  Besides the uint8 labels
    (1/8 of the unit) only a twin's int8 signs are full size, and the label
    rule's temporaries live one row block at a time."""
    build(Grid(16, 16))  # first-call allocations (numpy's random state) are not the field's
    grid = Grid(512, 512)
    assert float_fields_peak(lambda: build(grid), grid) <= bound


def test_branching_is_built_in_few_full_size_arrays(float_fields_peak):
    """The int8 stripe signs are turned into the second slot in place."""
    params, grid = plan_branching(1e-2, max_grid=512)
    assert float_fields_peak(lambda: gen_branching(params, grid), grid) <= 0.5


class TestRandomPartition:
    def test_deterministic_per_seed(self):
        a = gen_random_partition(3, Grid(32, 32))
        b = gen_random_partition(3, Grid(32, 32))
        c = gen_random_partition(4, Grid(32, 32))
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.labels, c.labels)

    def test_labels_cover_the_range(self):
        p = gen_random_partition(0, Grid(64, 64), feature_scale=0.0625)
        assert set(np.unique(p.labels)) == {1, 2, 3, 4}

    def test_feature_scale_sets_block_size(self):
        p = gen_random_partition(1, Grid(64, 64), feature_scale=0.25)
        blocks = p.labels.reshape(4, 16, 4, 16)
        assert (blocks == blocks[:, :1, :, :1]).all()

    def test_finer_features_mean_more_interface(self):
        coarse = np.mean(
            [
                surface_energy(gen_random_partition(s, Grid(64, 64), feature_scale=0.25))
                for s in range(10)
            ]
        )
        fine = np.mean(
            [
                surface_energy(gen_random_partition(s, Grid(64, 64), feature_scale=0.0625))
                for s in range(10)
            ]
        )
        assert fine > coarse

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="feature_scale"):
            gen_random_partition(0, Grid(16, 16), feature_scale=0.0)

    @pytest.mark.parametrize("seed", [-1, 2.0, "3"])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            gen_random_partition(seed, Grid(16, 16))

    @pytest.mark.parametrize("scale", [0.01, 0.1, 0.125, 0.3, 0.5, 1.0])
    def test_block_edge_is_the_scan_of_every_divisor(self, scale):
        """The divisor-pair search picks what a scan of 1..n picks, ties included."""
        for n in range(1, 400):
            target = scale * n
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            assert _block_edge(n, scale) == min(divisors, key=lambda d: (abs(d - target), d))

    def test_block_edge_of_a_huge_axis_is_quick(self):
        """10^12 cells: a scan of every candidate would take hours, the pairs a second."""
        start = time.perf_counter()
        assert _block_edge(10**12, 0.125) == 125 * 10**9
        assert _block_edge(10**12 + 39, 0.125) == 1  # a prime: its divisors are 1 and n
        assert time.perf_counter() - start < 10.0
