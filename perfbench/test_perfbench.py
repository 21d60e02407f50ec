"""Tests of the benchmark itself: checkers, span arithmetic and a tiny-grid pass.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import CheckFailed, check_energy, check_field_and_image, perimeter  # noqa: E402
from fourwell.energy import surface_energy, total_energy  # noqa: E402
from fourwell.fields import Grid, PhaseField, write_phase_field, write_pgm  # noqa: E402
from spans import LAYER_METRICS, layer_metrics, self_times  # noqa: E402
from workloads import SWEEP_KINDS, SIZES, WORKLOADS  # noqa: E402


def _random_field(n1=12, n2=16, seed=0) -> PhaseField:
    labels = np.random.default_rng(seed).integers(1, 5, size=(n1, n2))
    return PhaseField(Grid(n1, n2), labels)


def _written(tmp_path, field) -> tuple[bytes, bytes]:
    write_phase_field(tmp_path / "f.field", field, {"kind": "random"})
    write_pgm(tmp_path / "f.pgm", field)
    return (tmp_path / "f.field").read_bytes(), (tmp_path / "f.pgm").read_bytes()


def _corrupt_first_cell(data: bytes, label: bytes) -> bytes:
    body = data.rindex(b"\n#")  # the newline ending the last header line
    body = data.index(b"\n", body + 1) + 1
    return data[:body] + label + data[body + 1 :]


def test_field_checker_accepts_program_output(tmp_path):
    field = _random_field()
    header, labels = check_field_and_image(*_written(tmp_path, field), "random")
    assert header["n1"] == "12" and header["n2"] == "16"
    assert np.array_equal(labels, field.labels)


@pytest.mark.parametrize("label", [b"7", b"0", b"x"])
def test_field_checker_rejects_label_out_of_range(tmp_path, label):
    data, pgm = _written(tmp_path, _random_field())
    with pytest.raises(CheckFailed):
        check_field_and_image(_corrupt_first_cell(data, label), pgm, "random")


def test_field_checker_rejects_cell_that_disagrees_with_image(tmp_path):
    field = _random_field()
    data, pgm = _written(tmp_path, field)
    other = b"2" if field.labels[0, 0] != 2 else b"3"
    with pytest.raises(CheckFailed, match="gray levels"):
        check_field_and_image(_corrupt_first_cell(data, other), pgm, "random")


def test_perimeter_matches_program_surface_energy():
    for seed in range(3):
        field = _random_field(9, 14, seed)
        assert perimeter(field.labels) == pytest.approx(surface_energy(field), rel=1e-14)


def test_energy_checker_rejects_changed_total():
    field = _random_field()
    text = total_energy(field, 1e-3).to_json()
    check_energy(text, field.labels, 1e-3)
    changed = json.loads(text)
    changed["total"] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed, match="total"):
        check_energy(json.dumps(changed), field.labels, 1e-3)


def test_energy_checker_rejects_wrong_surface():
    field = _random_field()
    out = total_energy(field, 1e-3).as_dict()
    out["surface"] += 1.0 / 16
    root = 1e-3 ** (1 / 3)
    out["total"] = root * out["surface"] + out["elastic"] / root**2
    with pytest.raises(CheckFailed, match="perimeter"):
        check_energy(json.dumps(out), field.labels, 1e-3)


def _span(name, start, end, parent, **extra):
    return {"name": name, "start": start, "end": end, "parent": parent, **extra}


def test_self_time_on_hand_built_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("energy.total_energy", 1.0, 4.0, 0),
        _span("numpy.fft.fft2", 1.5, 2.0, 1),
        _span("numpy.fft.fft2", 2.0, 3.0, 1),
        _span("rigidity.rigidity_report", 5.0, 9.0, 0),
        _span("energy.total_energy", 6.0, 7.5, 4),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 2.5, 1.5])


def test_layer_metrics_count_outermost_spans_once():
    # total_energy nested in itself counts once in its inclusive time.
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("rigidity.rigidity_report", 0.0, 9.0, 0),
        _span("fields.total_variation", 1.0, 5.0, 1),
        _span("fields.total_variation", 2.0, 3.0, 2),
        _span("numpy.fft.fft2", 6.0, 7.0, 1, bytes=48),
        _span("energy.relaxed_elastic_energy", 7.0, 8.0, 1, field="a"),
        _span("energy.relaxed_elastic_energy", 8.0, 8.5, 1, field="a"),
    ]
    values = layer_metrics([(["report", "f.field"], spans)], cycles=1, overhead_s=0.25)
    assert values["fields.total_variation_s"] == pytest.approx(4.0)
    assert values["fields.total_variation_calls"] == 2
    assert values["spectral.fft_calls"] == 1
    assert values["spectral.fft_bytes"] == 48
    assert values["spectral.fft_per_report"] == 1
    assert values["energy.relaxed_per_field"] == 2
    assert values["rigidity.rigidity_report_s"] == pytest.approx(9.0 - 4.0 - 1.0 - 1.0 - 0.5)
    assert values["cli.self_s"] == pytest.approx(1.0)
    assert values["trace.overhead_s"] == 0.25


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(i) for i in range(1, 41)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 75.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_p50_s", "mcells_per_s", "peak_rss_mb"
    }  # fmt: skip


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke(tmp_path, workload):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = run.measure(workload, 5, 0, False, tmp_path / "plain", size="tiny")
    traced = run.measure(workload, 5, 0, True, tmp_path / "traced", size="tiny")
    for result in (plain, traced):
        reasons = [r.reason for r in result["records"] if not r.ok]
        assert result["failed"] == 0, reasons
    assert set(plain["metrics"]) == {m["name"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}  # fmt: skip
    assert all(value > 0 for value, _ in plain["metrics"].values())
    layers = {name: value for name, (value, _) in traced["metrics"].items()}
    assert traced["absent"] == []
    if workload == "analyze":
        assert layers["spectral.fft_per_report"] == 14
    elif workload == "generate":
        assert plain["attempted"] == 5  # the regeneration check is not an operation
        assert layers["spectral.fft_calls"] == 0
        assert layers["fields.bytes_written"] > 0
    elif workload == "sweep":
        etas = SIZES["tiny"]["sweep_etas"].split(",")
        assert layers["energy.relaxed_elastic_energy_calls"] == len(SWEEP_KINDS.split(",")) * len(etas)
    else:
        assert layers["spectral.permode_elastic_oracle_s"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
