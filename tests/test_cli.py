"""End-to-end tests of the command-line interface."""

import gc
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import fourwell.cli
from fourwell.cli import load_config, main
from fourwell.energy import total_energy
from fourwell.fields import (
    Grid,
    ModifiedIndicators,
    PhaseField,
    from_modified,
    read_phase_field,
    to_modified,
    write_phase_field,
)
from fourwell.microstructures import gen_random_partition
from fourwell.rigidity import rigidity_report

import whole_array


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Golden files in tests/data, by basename, and the generate flags that wrote them.
GOLDEN_GENERATE = {
    "counterexample_k2_32": ("counterexample", "--k", "2", "--grid", "32"),
    "laminate_y2_32": ("laminate", "--axis", "y2", "--stripes", "4", "--grid", "32"),
    "crossing_twin_y2_32": (
        "crossing-twin", "--axis", "y2", "--stripes", "2", "--g-stripes", "8", "--grid", "32"
    ),
    "branching_112": ("branching", "--eta", "0.01", "--grid", "128"),
}


def report_row(report):
    """A sweep row as read from ``report``: its columns written out by name."""
    return {
        "eta": report.eta,
        "E_elast": report.energy.elastic,
        "E_surf": report.energy.surface,
        "E": report.energy.total,
        **{f"theta{i}": t for i, t in enumerate(report.theta, start=1)},
        "d14": report.d14,
        "d12": report.d12,
        "outer_defect": report.outer.defect_l1,
        "inner_defect": report.inner.defect_l2,
    }


class TestGenerate:
    @pytest.mark.parametrize(
        "argv",
        [
            ("constant", "--phase", "3", "--grid", "16"),
            ("laminate", "--axis", "y2", "--stripes", "4", "--grid", "32"),
            ("crossing-twin", "--stripes", "2", "--g-stripes", "8", "--grid", "32"),
            ("branching", "--eta", "0.01", "--grid", "128"),
            ("counterexample", "--k", "2", "--grid", "32"),
            ("random", "--seed", "7", "--feature-scale", "0.0625", "--grid", "32"),
        ],
    )
    def test_each_kind_writes_field_and_image(self, tmp_path, capsys, argv):
        kind = argv[0]
        code, out, _ = run(capsys, "generate", *argv, "--out", str(tmp_path))
        assert code == 0
        field_path = tmp_path / f"{kind}.field"
        assert str(field_path) in out
        assert field_path.exists()
        assert (tmp_path / f"{kind}.pgm").exists()
        field, header = read_phase_field(field_path)
        assert header["kind"] == kind
        assert int(header["n1"]) == field.grid.n1

    def test_same_flags_give_identical_bytes(self, tmp_path, capsys):
        args = ("generate", "laminate", "--grid", "16", "--stripes", "2")
        run(capsys, *args, "--out", str(tmp_path / "a"))
        run(capsys, *args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a/laminate.field").read_bytes() == (
            tmp_path / "b/laminate.field"
        ).read_bytes()
        assert (tmp_path / "a/laminate.pgm").read_bytes() == (
            tmp_path / "b/laminate.pgm"
        ).read_bytes()

    @pytest.mark.parametrize("name", list(GOLDEN_GENERATE))
    def test_reproduces_the_golden_bytes(self, tmp_path, capsys, name):
        """The golden files were written before the generators built their labels
        from two signs (and, for the counterexample, before it stopped sampling
        its potential)."""
        argv = GOLDEN_GENERATE[name]
        code, _, _ = run(capsys, "generate", *argv, "--out", str(tmp_path), "--name", name)
        assert code == 0
        for suffix in ("field", "pgm"):
            golden = Path(__file__).parent / "data" / f"{name}.{suffix}"
            assert (tmp_path / f"{name}.{suffix}").read_bytes() == golden.read_bytes()

    def test_branching_header_records_the_planned_grid(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "generate", "branching", "--eta", "0.01", "--out", str(tmp_path)
        )
        assert code == 0
        _, header = read_phase_field(tmp_path / "branching.field")
        assert header["grid"] == "112"
        assert header["n1"] == "112"
        assert header["n-gen"] == "2"
        assert header["w1"] == repr(1.0 / 7.0)

    def test_config_file_fills_in_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nstripes = 4\ngrid = 16\n")
        code, _, _ = run(
            capsys,
            "generate",
            "laminate",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path),
        )
        assert code == 0
        _, header = read_phase_field(tmp_path / "laminate.field")
        assert header["stripes"] == "4"
        assert header["n1"] == "16"

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stripes = 4\n")
        run(
            capsys,
            "generate",
            "laminate",
            "--config",
            str(cfg),
            "--stripes",
            "8",
            "--grid",
            "16",
            "--out",
            str(tmp_path),
        )
        _, header = read_phase_field(tmp_path / "laminate.field")
        assert header["stripes"] == "8"

    def test_allocation_failure_returns_two(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB for an array")

        monkeypatch.setattr(fourwell.cli, "gen_laminate", exhausted)
        code, out, err = run(
            capsys, "generate", "laminate", "--grid", "8", "--out", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory: Unable to allocate")

    def test_tiny_beta_is_refused_by_name(self, tmp_path, capsys):
        argv = ["generate", "branching", "--eta", "1e-2", "--beta", "1e-300"]
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: beta = 1e-300 is too small: 0.5**beta rounds to 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_bands_a_planned_grid_cannot_split_are_refused_by_name(self, tmp_path, capsys):
        argv = ["generate", "branching", "--eta", "1e-2", "--lam", "0.3", "--grid", "256"]
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == (
            "error: grid 224 cannot split the bands evenly for lam=0.3; "
            "use a lam with a small power-of-two denominator\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_unknown_kind_is_a_usage_error(self, capsys):
        assert main(["generate", "mystery"]) == 2

    def test_impossible_geometry_returns_two(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "generate",
            "counterexample",
            "--k",
            "4",
            "--grid",
            "16",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert "error:" in err

    def test_branching_cap_too_small_returns_two(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "generate",
            "branching",
            "--eta",
            "1e-3",
            "--grid",
            "64",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert "raise the grid cap" in err

    def test_bad_config_value_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid=abc\n")
        code, out, err = run(capsys, "generate", "random", "--config", str(cfg), "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: grid='abc': invalid literal for int()")
        assert not (tmp_path / "random.field").exists()

    @pytest.mark.parametrize(
        "key", ["strips", "stripe", "kinds", "out", "kind", "n1", "n2", "n-gen", "w1"]
    )
    def test_config_key_no_generator_reads_is_refused_by_name(self, tmp_path, capsys, key):
        """Misspelt keys, sweep-only keys, output options and the keys a .field
        header adds (kind, n1, n2, n-gen, w1) are not generator inputs."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"grid=16\n{key}=4\n")
        argv = ["generate", "laminate", "--config", str(cfg), "--out", str(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unknown config key {key!r}; choose from axis, beta, eta,")
        assert not (tmp_path / "laminate.field").exists()

    def test_config_keys_of_other_kinds_are_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("grid=16\nstripes=4\nk=2\nseed=3\neta=0.5\nfeature-scale=0.25\n")
        argv = ["generate", "laminate", "--config", str(cfg), "--out", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        _, header = read_phase_field(tmp_path / "laminate.field")
        assert header == {
            "axis": "y1", "grid": "16", "kind": "laminate", "n1": "16", "n2": "16", "stripes": "4"
        }  # fmt: skip

    def test_every_generator_option_is_a_config_key(self):
        """The accepted keys are the generate options, less --out, --name and
        --config; the sweep takes its etas from its own list instead of eta."""
        parser = fourwell.cli.build_parser()
        generate = parser.parse_args(["generate", "constant"])
        options = {dest.replace("_", "-") for dest in vars(generate)}
        not_inputs = {"command", "kind", "func", "inputs", "out", "name", "config"}
        assert generate.inputs == options - not_inputs
        sweep = parser.parse_args(["sweep"])
        assert sweep.inputs == generate.inputs - {"eta"} | {"kinds", "etas"}


class TestEnergyAndReport:
    @pytest.fixture()
    def twin_path(self, tmp_path, capsys):
        run(
            capsys,
            "generate",
            "crossing-twin",
            "--grid",
            "64",
            "--out",
            str(tmp_path),
        )
        return tmp_path / "crossing-twin.field"

    def test_energy_matches_the_library(self, twin_path, capsys):
        code, out, _ = run(capsys, "energy", str(twin_path), "--eta", "1e-3")
        assert code == 0
        payload = json.loads(out)
        field, _ = read_phase_field(twin_path)
        expected = total_energy(field, 1e-3)
        assert payload["elastic"] == pytest.approx(expected.elastic, rel=1e-12)
        assert payload["surface"] == expected.surface
        assert payload["total"] == pytest.approx(expected.total, rel=1e-12)

    def test_energy_writes_json_file(self, twin_path, tmp_path, capsys):
        out_file = tmp_path / "energy.json"
        code, out, _ = run(
            capsys, "energy", str(twin_path), "--eta", "0.5", "--json-out", str(out_file)
        )
        assert code == 0
        assert out_file.read_text().strip() == out.strip()

    def test_report_matches_the_library(self, twin_path, capsys):
        code, out, _ = run(capsys, "report", str(twin_path), "--eta", "1e-2")
        assert code == 0
        payload = json.loads(out)
        field, _ = read_phase_field(twin_path)
        assert out.strip() == rigidity_report(field, 1e-2).to_json()
        assert payload["outer"]["defect_l1"] == 0.0

    @pytest.mark.parametrize(
        "name", ["branching_112", "crossing_twin_y2_32", "counterexample_k2_32", "laminate_y2_32"]
    )
    def test_report_reproduces_the_golden_bytes(self, tmp_path, capsys, name):
        """The golden reports were written before the inner profile was
        counted from one key per cell; the branching and laminate ones were
        rewritten when the weak defect's template took in g's mean."""
        data = Path(__file__).parent / "data"
        json_out = tmp_path / "report.json"
        field = str(data / f"{name}.field")
        code, out, _ = run(capsys, "report", field, "--eta", "1e-2", "--json-out", str(json_out))
        assert code == 0
        golden = (data / f"{name}_report.json").read_bytes()
        assert out.encode() == golden
        assert json_out.read_bytes() == golden

    def test_missing_field_file_returns_two(self, capsys):
        code, _, err = run(capsys, "energy", "/nonexistent/f.field", "--eta", "1.0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("# n1=2\n# n2=2\n1 2\n1\n", "row 1 has 1 labels, expected 2"),
            ("# n1=2\n# n2=2\n1 2\n1 x\n", "row 1: invalid literal"),
            # a header far larger than its file fails before any array is allocated
            (
                "# n1=1000000000\n# n2=1000000000\n1 2\n",
                "data has 1 rows, header shape (1000000000, 1000000000) needs 1000000000",
            ),
            # and so does a header far wider than its rows
            (
                "# n1=2\n# n2=1000000000000\n1 2\n3 4\n",
                "row 0 has 2 labels, expected 1000000000000",
            ),
            # rows are checked in order, each for its length and then its tokens
            ("# n1=2\n# n2=2\n1 x\n3\n", "row 0: invalid literal"),
            ("# n1=2\n# n2=2\n1 2 3\n3 x\n", "row 0 has 3 labels, expected 2"),
        ],
        ids=[
            "ragged-row",
            "bad-token",
            "header-larger-than-file",
            "header-wider-than-rows",
            "bad-token-before-short-row",
            "long-row-before-bad-token",
        ],
    )
    def test_malformed_field_file_returns_two(self, tmp_path, capsys, text, reason):
        path = tmp_path / "bad.field"
        path.write_text(text)
        code, out, err = run(capsys, "energy", str(path), "--eta", "1.0")
        assert code == 2
        assert out == ""
        assert f"error: {path}: {reason}" in err
        assert "out of memory" not in err

    def test_report_on_a_grid_without_aligned_shear_returns_two(self, tmp_path, capsys):
        path = tmp_path / "wide.field"
        write_phase_field(path, gen_random_partition(2, Grid(64, 96)))
        code, out, err = run(capsys, "report", str(path), "--eta", "1e-2")
        assert code == 2
        assert out == ""
        assert "not grid-aligned on the 64x96 grid" in err
        assert "np.float64" not in err

    def test_report_refuses_a_half_cell_shear_on_a_wide_grid(self, tmp_path, capsys):
        """The staircase shift reaches 100000.5 cells: no relative tolerance
        may round that half cell away."""
        path = tmp_path / "wide.field"
        labels = np.repeat(np.array([[1], [2]], dtype=np.uint8), 200001, axis=1)
        write_phase_field(path, PhaseField(Grid(2, 200001), labels))
        code, out, err = run(capsys, "report", str(path), "--eta", "1e-2")
        assert (code, out) == (2, "")
        assert "not grid-aligned on the 2x200001 grid: F[0] = -100000.5" in err


class TestHalfSpectrum:
    """Energy, report and sweep read half spectra: no full complex 2-D transform."""

    FULL = ("fft2", "ifft2", "fftn", "ifftn")

    @pytest.mark.parametrize("n", [15, 16])
    @pytest.mark.parametrize("command", ["energy", "report", "sweep"])
    def test_no_full_complex_transform(self, tmp_path, capsys, fft_calls, command, n):
        if command == "sweep":
            argv = ["sweep", "--grid", str(n), "--kinds", "random", "--etas", "0.1,0.01"]
            argv += ["--out", str(tmp_path)]
        else:
            path = tmp_path / "random.field"
            write_phase_field(path, gen_random_partition(4, Grid(n, n)))
            argv = [command, str(path), "--eta", "1e-2"]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert fft_calls["_coeffs"] > 0
        assert {name: fft_calls[name] for name in self.FULL} == dict.fromkeys(self.FULL, 0)


class TestNoSlotDuringTransforms:
    """Energy, report and sweep read only the labels: they make no
    ``ModifiedIndicators``, so none made by the code under test is alive at
    any ``_coeffs`` call."""

    @pytest.fixture
    def slots_made(self, monkeypatch):
        """The grid of each ``ModifiedIndicators`` made during the test."""
        made = []
        original = ModifiedIndicators.__post_init__

        def counted(m):
            made.append(m.grid)
            original(m)

        monkeypatch.setattr(ModifiedIndicators, "__post_init__", counted)
        return made

    @pytest.fixture
    def slots_alive(self, monkeypatch):
        """One entry per ``_coeffs`` call made through a fourwell module that
        binds it: the count of ``ModifiedIndicators`` then alive that were not
        alive when the test began (those are held, so no id is reused)."""
        held = [o for o in gc.get_objects() if isinstance(o, ModifiedIndicators)]
        counts = []
        original = fourwell.spectral._coeffs

        def checked(*args, **kwargs):
            alive = [o for o in gc.get_objects() if isinstance(o, ModifiedIndicators)]
            counts.append(sum(not any(o is h for h in held) for o in alive))
            return original(*args, **kwargs)

        for name, module in sys.modules.items():
            if name.startswith("fourwell.") and getattr(module, "_coeffs", None) is original:
                monkeypatch.setattr(module, "_coeffs", checked)
        return counts

    FIELD = gen_random_partition(1, Grid(130, 130), feature_scale=0.05)

    def test_total_energy(self, slots_alive, slots_made):
        total_energy(self.FIELD, 1e-2)
        assert slots_alive == [0, 0, 0]
        assert slots_made == []

    @pytest.mark.parametrize("transpose", [False, True], ids=["y2", "y1"])
    def test_report_in_both_frames(self, slots_alive, slots_made, transpose):
        p = self.FIELD
        if transpose:
            p = PhaseField(p.grid, np.ascontiguousarray(p.labels.T))
        axis = rigidity_report(p, 1e-2).outer.axis
        assert axis == ("y1" if transpose else "y2")
        assert slots_alive == [0, 0, 0]
        assert slots_made == []

    def test_sweep(self, tmp_path, capsys, slots_alive, slots_made):
        argv = ["sweep", "--grid", "192", "--kinds", "crossing-twin,random", "--etas", "0.1,0.01"]
        assert run(capsys, *argv, "--out", str(tmp_path))[0] == 0
        assert slots_alive == [0] * 6
        assert slots_made == []


class TestSweep:
    def test_table_structure_and_fits(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--etas",
            "1e-2,1e-3",
            "--kinds",
            "laminate,crossing-twin",
            "--grid",
            "32",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = [l for l in lines if l.startswith("# ") and "=" in l]
        columns = [l for l in lines if l.startswith("# columns:")]
        data = [l for l in lines if not l.startswith("#")]
        fits = [l for l in lines if l.startswith("# fit_slope_")]
        assert len(columns) == 1
        assert columns[0].endswith(
            "eta,E_elast,E_surf,E,theta1,theta2,theta3,theta4,d14,d12,"
            "outer_defect,inner_defect"
        )
        assert len(data) == 4
        assert len(fits) == 3
        first = dict(zip(columns[0].split(": ", 1)[1].split(","), data[0].split(",")))
        assert float(first["eta"]) == 1e-2
        assert float(first["E_elast"]) <= 1e-12
        assert float(first["theta1"]) == 0.5
        assert any(l.startswith("# etas=") for l in header)
        assert any(l.startswith("# kinds=") for l in header)

    def test_set_overrides_reach_the_generator(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "sweep",
            "--etas",
            "1e-2",
            "--kinds",
            "laminate",
            "--grid",
            "32",
            "--set",
            "stripes=8",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        row = [l for l in lines if not l.startswith("#")][0]
        surf = float(row.split(",")[2])
        assert surf == 16.0

    def test_single_eta_slope_is_nan(self, tmp_path, capsys):
        run(
            capsys,
            "sweep",
            "--etas",
            "1e-2",
            "--kinds",
            "laminate",
            "--grid",
            "16",
            "--out",
            str(tmp_path),
        )
        text = (tmp_path / "sweep.csv").read_text()
        assert "# fit_slope_d12=nan" in text

    def test_equal_energies_give_nan_slopes(self, tmp_path, capsys):
        """Two equal etas give two rows of one energy, so no slope is fitted,
        not even of the laminate's positive d12."""
        argv = ["--etas", "0.01,0.01", "--kinds", "laminate", "--grid", "16"]
        assert run(capsys, "sweep", *argv, "--out", str(tmp_path))[0] == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert float(lines[-4].split(",")[fourwell.cli.SWEEP_COLUMNS.index("d12")]) == 0.25
        assert lines[-3:] == [f"# fit_slope_{c}=nan" for c in ("outer_defect", "d14", "d12")]

    @pytest.mark.parametrize("kind", fourwell.cli.KINDS)
    def test_rows_read_what_the_report_reads(self, kind):
        """On each kind the sweep builds, and on its transpose, a row's energy
        parts, phase fractions, gaps and profile defects equal the report's."""
        args = fourwell.cli.build_parser().parse_args(["sweep", "--grid", "32"])
        field = fourwell.cli._generate_field(kind, fourwell.cli._Resolver(args, {}), 0.05)
        for p in (field, from_modified(whole_array._transposed(to_modified(field)))):
            assert fourwell.cli._sweep_rows(p, [0.05]) == [report_row(rigidity_report(p, 0.05))]

    def test_a_tied_field_and_its_transpose_read_one_axis(self):
        """Both outer axes of this field fit chi3t's signs equally well; its
        rows and its transpose's read the inner defect along one physical axis,
        as the report does."""
        field = gen_random_partition(4, Grid(128, 128), feature_scale=0.05)
        rows = []
        for p in (field, from_modified(whole_array._transposed(to_modified(field)))):
            (row,) = fourwell.cli._sweep_rows(p, [1e-3])
            assert row == report_row(rigidity_report(p, 1e-3))
            rows.append(row)
        assert rows[0]["outer_defect"] == rows[1]["outer_defect"] == 0.8046875
        assert rows[0]["inner_defect"] == rows[1]["inner_defect"] == 0.94500732421875

    def test_output_is_golden_and_each_field_is_priced_once(
        self, tmp_path, capsys, monkeypatch
    ):
        """Three fixed kinds plus one branching field per eta: six pricings.

        The golden data rows were written before the sweep reused per-field
        work; its header records every generator input the sweep read.
        """
        priced = []
        original = fourwell.cli._relaxed_from_labels
        monkeypatch.setattr(
            fourwell.cli,
            "_relaxed_from_labels",
            lambda p: priced.append(p) or original(p),
        )
        code, _, _ = run(
            capsys,
            "sweep",
            "--grid",
            "32",
            "--kinds",
            "laminate,crossing-twin,branching,random",
            "--etas",
            "0.3,0.1,0.05",
            "--seed",
            "5",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        golden = Path(__file__).parent / "data" / "sweep_grid32.csv"
        assert (tmp_path / "sweep.csv").read_bytes() == golden.read_bytes()
        assert len(priced) == 6

    def test_rerun_from_the_header_gives_the_same_bytes(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "32", "--kinds", "laminate,crossing-twin,branching,random"]
        argv += ["--etas", "0.3,0.1,0.05", "--seed", "5", "--set", "stripes=4"]
        assert run(capsys, *argv, "--out", str(tmp_path / "a"))[0] == 0
        first = (tmp_path / "a" / "sweep.csv").read_text()
        header = first[: first.index("# columns:")].splitlines()
        keys = [line[2:].split("=", 1)[0] for line in header]
        # Per-row and planned values (a branching row's eta, n-gen, w1) stay out.
        assert keys == [
            "axis", "beta", "etas", "feature-scale", "g-stripes", "grid",
            "kinds", "lam", "mu", "seed", "stripes",
        ]  # fmt: skip
        assert "# grid=32" in header and "# stripes=4" in header
        cfg = tmp_path / "header.cfg"
        cfg.write_text("".join(line[2:] + "\n" for line in header))
        assert run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "b"))[0] == 0
        assert (tmp_path / "b" / "sweep.csv").read_text() == first

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--etas", ","], "no eta values in ','"),
            (["--etas", "0.1", "--kinds", ","], "no generator kinds in ','"),
            (["--etas", "0.1", "--kinds", "foo"], "unknown kind 'foo'; choose from constant,"),
            (["--etas", "0.1", "--set", "stripes"], "--set expects key=value, got 'stripes'"),
            (["--etas", "0.1", "--set", "stripes=x"], "stripes='x': invalid literal for int()"),
            (["--etas", "0.1", "--set", "stripes=3", "--grid", "16"], "stripe count 3 must divide"),
            (["--etas", "0.1", "--set", "stripe=4"], "unknown config key 'stripe'; choose from"),
        ],
        ids=[
            "empty-etas", "empty-kinds", "unknown-kind", "set-without-equals", "set-bad-int",
            "stripes", "set-unknown-key",
        ],  # fmt: skip
    )
    def test_refusals_name_their_reason(self, tmp_path, capsys, argv, reason):
        code, out, err = run(capsys, "sweep", *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {reason}")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("via", ["set", "config"])
    def test_eta_is_refused_by_name(self, tmp_path, capsys, via):
        """Each row is priced at its own eta from --etas, so a single eta
        would be read by no row."""
        argv = ["--kinds", "branching", "--etas", "1e-2", "--grid", "16"]
        if via == "set":
            argv += ["--set", "eta=0.5"]
        else:
            cfg = tmp_path / "eta.cfg"
            cfg.write_text("eta=0.5\n")
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, "sweep", *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown config key 'eta'; choose from axis, beta, etas,")
        assert not (tmp_path / "sweep.csv").exists()

    def test_unknown_kind_is_refused_before_any_field_is_built(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("_generate_field", "_relaxed_from_labels"):
            monkeypatch.setattr(fourwell.cli, name, lambda *args, _name=name: calls.append(_name))
        argv = ["--kinds", "laminate,crossing-twin,random,foo", "--etas", "0.1", "--grid", "16"]
        code, out, err = run(capsys, "sweep", *argv, "--out", str(tmp_path))
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: unknown kind 'foo'; choose from constant,")

    def test_config_line_without_equals_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid 32\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert err == f"error: {cfg}: expected key=value, got 'grid 32'\n"

    def test_missing_etas_is_an_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--kinds", "laminate", "--out", str(tmp_path))
        assert code == 2
        assert "etas" in err

    def test_bad_eta_value_is_an_error(self, tmp_path, capsys):
        for etas in ("0,-1", "1e-2,inf"):
            code, _, err = run(
                capsys, "sweep", "--etas", etas, "--kinds", "laminate", "--out", str(tmp_path)
            )
            assert code == 2
            assert "eta must be positive and finite" in err
            assert not (tmp_path / "sweep.csv").exists()


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 6
        assert all("PASS" in l for l in lines)
        assert not any("FAIL" in l for l in lines)

    @pytest.mark.parametrize("grid", ["36", "4", "0", "-8"])
    def test_grid_must_be_a_positive_multiple_of_eight(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--grid", grid)
        assert code == 2
        assert out == ""
        assert "positive multiple of 8" in err

    def test_a_failing_check_exits_one(self, capsys, monkeypatch):
        real = fourwell.cli.zigzag_potential

        def flattened(k, grid):
            pot = real(k, grid)
            pot.grad_s[...] = 0.0
            return pot

        monkeypatch.setattr(fourwell.cli, "zigzag_potential", flattened)
        code, out, _ = run(capsys, "verify", "--grid", "16")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "zigzag-gradient: FAIL (max |grad_s| deviation 5.00e-01)"
        assert all(": PASS (" in line for line in lines[:-1])

    def test_the_oracle_checks_the_shipped_pricing(self, capsys, monkeypatch):
        """``multiplier-oracle`` prices through the label route that ``energy``
        and ``sweep`` ship, so an error there fails it alone."""
        real = fourwell.cli._relaxed_from_labels
        monkeypatch.setattr(fourwell.cli, "_relaxed_from_labels", lambda p: real(p) * (1.0 + 1e-6))
        code, out, _ = run(capsys, "verify", "--grid", "16")
        assert code == 1
        failed = [line.split(":")[0] for line in out.splitlines() if ": FAIL (" in line]
        assert failed == ["multiplier-oracle"]

    def test_help_states_the_grid_rule(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        assert "positive multiple of 8" in out

    def test_check_names_are_stable(self, capsys):
        _, out, _ = run(capsys, "verify", "--grid", "16", "--seed", "1")
        names = [l.split(":")[0] for l in out.splitlines() if l.strip()]
        assert names == [
            "multiplier-oracle",
            "laminate-zero-energy",
            "projection-curl-identity",
            "twin-defects-vanish",
            "wave-residual-bound",
            "zigzag-gradient",
        ]


class TestSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "random", "--seed", "-1", "--grid", "16", "--out"],
            ["sweep", "--kinds", "random", "--etas", "0.1", "--seed", "-3", "--out"],
            ["verify", "--seed", "-1"],
        ],
        ids=["generate", "sweep", "verify"],
    )
    def test_negative_seed_is_refused_by_name(self, tmp_path, capsys, argv):
        if argv[-1] == "--out":
            argv = [*argv, str(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        seed = argv[argv.index("--seed") + 1]
        assert err == f"error: seed must be a non-negative integer, got {seed}\n"
        assert list(tmp_path.iterdir()) == []


HUGE = "100000000000000000000"


class TestGridsNumpyCannotIndex:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "laminate"],
            ["generate", "crossing-twin"],
            ["generate", "random"],
            ["sweep", "--kinds", "laminate", "--etas", "1e-2"],
        ],
        ids=["laminate", "crossing-twin", "random", "sweep"],
    )
    def test_are_refused_by_name_at_once(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--grid", HUGE, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: n1 = {HUGE}, n2 = {HUGE}: more cells than numpy can index\n"
        assert list(tmp_path.iterdir()) == []


class TestConfigLoader:
    def test_parses_flat_key_values(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\ngrid = 64\naxis=y2\n")
        assert load_config(cfg) == {"grid": "64", "axis": "y2"}

    def test_usage_errors_exit_two(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
