"""The spectral core's two workers: the split itself, outputs that do not
depend on the number of workers, memory pins that hold with two, and worker
errors that reach the caller."""

import os
import sys
import threading
import time
from itertools import chain

import numpy as np
import pytest

import fourwell.rigidity
import fourwell.spectral
from fourwell.cli import main
from fourwell.energy import _relaxed_from_labels, relaxed_elastic_energy, total_energy
from fourwell.fields import (
    _SLOT_OF_LABEL,
    Grid,
    PhaseField,
    ScalarField,
    VectorField,
    to_modified,
    write_phase_field,
)
from fourwell.microstructures import gen_random_partition
from fourwell.rigidity import (
    characteristic_residual,
    extract_outer,
    mixed_difference_sup,
    rigidity_report,
)
from fourwell.spectral import (
    _SLAB_COLS,
    _SPLIT_CELLS,
    _coeffs,
    _cut,
    _frame_slabs,
    _in_parts,
    _workers,
    helmholtz_potential,
)

import whole_array


def force_workers(monkeypatch, count):
    monkeypatch.setattr(fourwell.spectral, "_workers", lambda cells: count)


def one_then_two(monkeypatch, build):
    """``build()`` with one worker, then with two."""
    results = []
    for count in (1, 2):
        force_workers(monkeypatch, count)
        results.append(build())
    return results


class TestWorkerCount:
    """Two workers from ``_SPLIT_CELLS`` cells up, if two CPUs are usable."""

    def test_small_grids_keep_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert _workers(_SPLIT_CELLS - 1) == 1
        assert _workers(_SPLIT_CELLS) == 2
        assert _workers(2048 * 2048) == 2

    def test_one_usable_cpu_keeps_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _workers(2048 * 2048) == 1

    def test_without_affinity_counts_the_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, expected in ((1, 1), (None, 1), (4, 2)):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert _workers(2048 * 2048) == expected


class TestInParts:
    def test_each_part_runs_once_in_part_order(self, monkeypatch):
        force_workers(monkeypatch, 2)
        threads = {}

        def work(span, parts):
            threads[span.start] = threading.current_thread()
            return (span, parts)

        assert _in_parts(work, 9, 1) == [(slice(0, 4), 2), (slice(4, 9), 2)]
        assert threads[0] is threading.current_thread()
        assert threads[4] is not threads[0]

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_spans_tile_the_range_in_part_order(self, monkeypatch, parts):
        force_workers(monkeypatch, parts)
        for n in range(0, 40):
            spans = _in_parts(lambda span, parts: span, n, 1)
            assert len(spans) == parts
            assert [i for span in spans for i in range(span.start, span.stop)] == list(range(n))

    def test_a_span_may_be_empty(self, monkeypatch):
        force_workers(monkeypatch, 2)
        assert _in_parts(lambda span, parts: span, 1, 1) == [slice(0, 1), slice(1, 1)]

    def test_one_worker_runs_in_the_caller(self, monkeypatch):
        force_workers(monkeypatch, 1)
        before = threading.active_count()
        assert _in_parts(lambda span, parts: (span, threading.current_thread()), 5, 1) == [
            (slice(0, 5), threading.current_thread())
        ]
        assert threading.active_count() == before

    def test_a_worker_error_is_raised_after_every_part_ends(self, monkeypatch):
        force_workers(monkeypatch, 2)
        finished = []

        def work(span, parts):
            if span.start > 0:
                raise MemoryError("second part")
            time.sleep(0.05)  # the caller's part outlasts the failing one
            finished.append(span)

        before = threading.active_count()
        with pytest.raises(MemoryError, match="second part"):
            _in_parts(work, 4, 1)
        assert finished == [slice(0, 2)]
        assert threading.active_count() == before

    def test_the_first_part_error_wins(self, monkeypatch):
        force_workers(monkeypatch, 2)

        def work(span, parts):
            raise ValueError(f"part from {span.start}")

        with pytest.raises(ValueError, match="part from 0"):
            _in_parts(work, 4, 1)


class TestCut:
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_slices_tile_the_width_without_lone_columns(self, parts):
        for width in range(1, 40):
            cut = _cut(width, parts)
            assert len(cut) == parts
            assert cut[0].start == 0 and cut[-1].stop == width
            assert all(a.stop == b.start for a, b in zip(cut, cut[1:]))
            sizes = [s.stop - s.start for s in cut if s.stop > s.start]
            assert max(sizes) - min(sizes) <= 1
            assert width == 1 or min(sizes) >= 2

    @pytest.mark.parametrize("transpose", [False, True])
    def test_frame_slabs_tile_each_span_without_lone_columns(self, transpose):
        """For frame half spectra 2 to 80 columns wide and the spans of one and
        of two workers, the slabs tile each span in order, none is wider than
        asked and none has one column, so numpy sums every column in row order."""
        for width in range(2, 81):
            # The frame's half spectrum is n2 // 2 + 1 columns wide.
            shape = (2 * width - 2, 3) if transpose else (3, 2 * width - 2)
            c = np.zeros((shape[0], shape[1] // 2 + 1), dtype=complex)
            for parts in (1, 2):
                asked = _SLAB_COLS // parts
                for span in _cut(width, parts):
                    walk = _frame_slabs([c], Grid(*shape), transpose, span, asked)
                    slabs = [cols for cols, _, _ in walk]
                    tiled = [col for cols in slabs for col in range(cols.start, cols.stop)]
                    assert tiled == list(range(span.start, span.stop))
                    assert all(2 <= cols.stop - cols.start <= asked for cols in slabs)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("shape", [(7, 9), (16, 16), (17, 48), (33, 64), (40, 30)])
    def test_frame_slab_pieces_cut_the_one_worker_slabs(self, shape, transpose):
        """Two workers' slabs, side by side, hold the one-worker slabs' columns
        bit for bit: how the frame is cut changes no coefficient."""
        c = _coeffs(np.random.default_rng(0).standard_normal(shape))
        grid = Grid(*shape)

        def side_by_side(slabs):
            return np.concatenate([slab for _, _, (slab,) in slabs], axis=1)

        whole = side_by_side(_frame_slabs([c], grid, transpose))
        spans = _cut(whole.shape[1], 2)
        pieces = [_frame_slabs([c], grid, transpose, span, _SLAB_COLS // 2) for span in spans]
        assert np.array_equal(side_by_side(chain(*pieces)), whole)


# Odd, even, non-square and non-power-of-two grids, half spectra 2 and 3
# columns wide, which two workers must not cut into one-column pieces, and a
# benchmark field's size.
SHAPES = [(130, 192), (193, 130), (7, 5), (1, 5), (5, 1), (64, 2), (200, 3), (1856, 1856)]


class TestOneWorkerEqualsTwo:
    """Every output is the same float with one worker or two: compared with ``==``."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_coeffs(self, monkeypatch, shape):
        values = np.random.default_rng(1).standard_normal(shape)
        one, two = one_then_two(monkeypatch, lambda: _coeffs(values))
        assert np.array_equal(one, two)
        labels = np.random.default_rng(2).integers(1, 5, size=shape, dtype=np.uint8)
        for table in _SLOT_OF_LABEL:
            one, two = one_then_two(monkeypatch, lambda: _coeffs(labels, table))
            assert np.array_equal(one, two)

    @pytest.mark.parametrize(
        "shape", [s for s in SHAPES if min(s) > 1], ids=lambda s: f"{s[0]}x{s[1]}"
    )
    def test_relaxed_energy_from_labels(self, monkeypatch, shape):
        p = gen_random_partition(0, Grid(*shape), feature_scale=0.05)
        one, two = one_then_two(monkeypatch, lambda: _relaxed_from_labels(p))
        assert one == two

    @staticmethod
    def report_cases():
        """Square grids whose half spectra reach 1, 3 or 9 columns past a
        16-column slab, in both frames, non-square grids on each outer axis,
        and frame half spectra 2 or 3 columns wide, on each outer axis, where
        the second worker's span is empty."""
        cases = []
        for n in (16, 17, 36, 48, 129, 130, 1856):
            p = gen_random_partition(n, Grid(n, n), feature_scale=0.05)
            cases += [p, PhaseField(p.grid, np.ascontiguousarray(p.labels.T))]
        for seed, shape in ((0, (32, 64)), (2, (64, 32))):
            cases.append(gen_random_partition(seed, Grid(*shape), feature_scale=0.1))
        for seed, shape in ((0, (2, 2)), (5, (2, 2)), (0, (3, 3)), (1, (3, 3)), (2, (2, 4))):
            labels = np.random.default_rng(seed).integers(1, 5, size=shape)
            cases.append(PhaseField(Grid(*shape), labels))
        return cases

    @pytest.mark.parametrize("p", report_cases(), ids=lambda p: "x".join(map(str, p.grid.shape)))
    def test_report_json(self, monkeypatch, p):
        one, two = one_then_two(monkeypatch, lambda: rigidity_report(p, 1e-2).to_json())
        assert one == two

    def test_characteristic_residual(self, monkeypatch):
        """Outer axis y2 on a 33^2 grid: the frame half spectrum is 17 columns
        wide, one past a slab, and two workers walk it in 8- and 9-column spans."""
        p = gen_random_partition(4, Grid(33, 33), feature_scale=0.05)
        p = PhaseField(p.grid, p.labels.T)
        outer = extract_outer(p)
        assert outer.axis == "y2"
        m = to_modified(p)
        u = helmholtz_potential(VectorField(p.grid, m.chi2t, m.chi1t))
        one, two = one_then_two(monkeypatch, lambda: characteristic_residual(u, outer))
        assert one == two

    def test_more_workers_than_cpus_under_fast_switching(self, monkeypatch):
        """Four workers on two CPUs, switched every microsecond: a write lost
        to a race on the shared spectrum or column sums, or a mixed-difference
        search buffer shared by two workers, would change a bit."""
        p = gen_random_partition(5, Grid(130, 130), feature_scale=0.05)
        transposed = PhaseField(p.grid, np.ascontiguousarray(p.labels.T))
        values = np.random.default_rng(4).standard_normal((130, 192))
        f = ScalarField(Grid(40, 50), np.ascontiguousarray(values[:40, :50]))

        def outputs():
            return (
                _coeffs(values).tobytes(),
                _relaxed_from_labels(p),
                rigidity_report(p, 1e-2).to_json(),
                rigidity_report(transposed, 1e-2).to_json(),
                mixed_difference_sup(f),
            )

        force_workers(monkeypatch, 1)
        expected = outputs()
        force_workers(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert outputs() == expected
        finally:
            sys.setswitchinterval(interval)

    def test_report_cases_cover_both_frames(self):
        cases = self.report_cases()
        for shapes in ({(1856, 1856)}, {(32, 64), (64, 32)}):
            axes = {extract_outer(p).axis for p in cases if p.grid.shape in shapes}
            assert axes == {"y1", "y2"}


class TestMixedDifferenceSup:
    """The search splits its row offsets across the workers and batches its
    column offsets: the same float with one worker or two, and any batch."""

    # Odd, even and non-square grids; n1 = 2 or 3 leaves the second worker's
    # span of row offsets empty.
    SHAPES = [(7, 9), (16, 16), (20, 38), (38, 20), (33, 17), (2, 9), (3, 8), (130, 66)]

    @staticmethod
    def fields(shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for v in (rng.standard_normal(shape), rng.choice([-1.0, 1.0], size=shape)):
            yield ScalarField(Grid(*shape), v)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_one_worker_equals_two(self, monkeypatch, shape):
        for f in self.fields(shape):
            one, two = one_then_two(monkeypatch, lambda: mixed_difference_sup(f))
            assert one == two

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_a_short_last_batch_changes_no_bit(self, monkeypatch, shape):
        """Batches of 1, 3 and 8 column offsets, which leave a short last
        batch wherever n2 // 2 is not a multiple of them (19 on 20x38)."""
        n1, n2 = shape
        for f in self.fields(shape):
            force_workers(monkeypatch, 1)
            expected = mixed_difference_sup(f)
            for batch in (1, 3, 8):
                monkeypatch.setattr(fourwell.rigidity, "_BATCH_CELLS", batch * n1 * n2)
                assert one_then_two(monkeypatch, lambda: mixed_difference_sup(f)) == [expected] * 2

    def test_verify_grid_runs_on_two_workers(self, monkeypatch):
        """verify --grid 128's search is split in two when two CPUs are usable,
        its default 32^2 grid is not."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        workers = fourwell.spectral._workers
        counts = []

        def counted(cells):
            counts.append(workers(cells))
            return counts[-1]

        monkeypatch.setattr(fourwell.spectral, "_workers", counted)
        rng = np.random.default_rng(0)
        for n in (128, 32):
            mixed_difference_sup(ScalarField(Grid(n, n), rng.standard_normal((n, n))))
        assert counts == [2, 1]


class TestMemoryPinsWithTwoWorkers:
    """The pins of the one-worker tests hold on every run with two workers,
    whose block temporaries may be alive at the same moment."""

    RUNS = 20

    @pytest.fixture
    def grid(self, monkeypatch):
        force_workers(monkeypatch, 2)
        return Grid(512, 512)

    def peaks(self, float_fields_peak, build, grid):
        build()  # numpy caches its FFT plans and lazy state on a first call
        return [float_fields_peak(build, grid) for _ in range(self.RUNS)]

    def test_transform(self, grid, float_fields_peak):
        labels = np.random.default_rng(0).integers(1, 5, size=grid.shape, dtype=np.uint8)
        signs = _SLOT_OF_LABEL[0][labels]
        assert max(self.peaks(float_fields_peak, lambda: _coeffs(signs), grid)) <= 1.2
        table = _SLOT_OF_LABEL[0]
        assert max(self.peaks(float_fields_peak, lambda: _coeffs(labels, table), grid)) <= 1.2

    def test_total_energy(self, grid, float_fields_peak):
        p = gen_random_partition(1, grid, feature_scale=0.01)
        assert max(self.peaks(float_fields_peak, lambda: total_energy(p, 1e-2), grid)) <= 1.0

    def test_total_energy_of_distinct_rows(self, grid, float_fields_peak):
        p = PhaseField(grid, np.random.default_rng(0).integers(1, 5, size=grid.shape))
        assert max(self.peaks(float_fields_peak, lambda: total_energy(p, 1e-2), grid)) <= 2.5

    @pytest.mark.parametrize("transpose", [False, True], ids=["y2", "y1"])
    def test_report(self, grid, float_fields_peak, transpose):
        p = gen_random_partition(1, grid, feature_scale=0.01)
        if transpose:
            p = PhaseField(grid, np.ascontiguousarray(p.labels.T))
        assert extract_outer(p).axis == ("y1" if transpose else "y2")
        assert max(self.peaks(float_fields_peak, lambda: rigidity_report(p, 1e-2), grid)) <= 2.65


class TestDistinctRowPricingWithTwoWorkers:
    """On 1024^2, where the split is real, pricing fields whose repeats are
    not consecutive gives the whole-array pass's floats with two workers."""

    def test_equals_the_whole_array_pass(self, monkeypatch):
        force_workers(monkeypatch, 2)
        for name, p in whole_array.repeating_fields((1024, 1024), n=1024).items():
            m = to_modified(p)
            expected = whole_array.elastic(m)
            assert total_energy(p, 1e-2).elastic == expected, name
            assert relaxed_elastic_energy(m) == expected, name


class TestWorkerErrorsReachTheCli:
    @pytest.mark.parametrize("command", ["energy", "report"])
    def test_memory_error_in_the_second_worker_exits_two(
        self, tmp_path, capsys, monkeypatch, command
    ):
        path = tmp_path / "random.field"
        write_phase_field(path, gen_random_partition(1, Grid(130, 130), feature_scale=0.1))
        force_workers(monkeypatch, 2)
        rfft = np.fft.rfft
        failed = []

        def rfft_failing_off_the_main_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                failed.append(True)
                raise MemoryError("Unable to allocate a row block")
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", rfft_failing_off_the_main_thread)
        before = threading.active_count()
        code = main([command, str(path), "--eta", "1e-2"])
        captured = capsys.readouterr()
        assert failed
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: Unable to allocate a row block")
        assert threading.active_count() == before
