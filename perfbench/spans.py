"""Per-layer metrics from the spans that ``trace_op.py`` records.

A span is a dict with ``name``, ``start``, ``end`` and ``parent`` (an index
into the same list, -1 for a root).  A span's self time is its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import NamedTuple


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    how: str  # count | total | self | bytes, over spans matching `pattern`; or a special rule
    pattern: str
    moves: str  # the end-to-end metric and workload it is expected to move


_SPECTRAL = "op_p50_s, mcells_per_s and peak_rss_mb on analyze; generate unchanged; verify no worse"
_TV = "op_p50_s on analyze and mcells_per_s on sweep"

LAYER_METRICS = (
    LayerMetric("spectral.fft_calls", "count", "lower", "count", "numpy.fft.*", _SPECTRAL),
    LayerMetric("spectral.fft_s", "s", "lower", "total", "numpy.fft.*", _SPECTRAL),
    LayerMetric("spectral.fft_bytes", "bytes", "lower", "bytes", "numpy.fft.*", _SPECTRAL),
    LayerMetric("spectral.fft_per_report", "count", "lower", "fft_per_report", "numpy.fft.*", _SPECTRAL),
    LayerMetric("spectral.helmholtz_potential_s", "s", "lower", "total", "spectral.helmholtz_potential", "op_p50_s on analyze (report ops)"),
    LayerMetric("spectral.spectral_derivative_s", "s", "lower", "total", "spectral.spectral_derivative", "op_p50_s on analyze (report ops)"),
    LayerMetric("spectral.neg_sobolev_norm_s", "s", "lower", "total", "spectral.neg_sobolev_norm", "op_p50_s on analyze (report ops)"),
    LayerMetric("spectral.permode_elastic_oracle_s", "s", "lower", "total", "spectral.permode_elastic_oracle", "op_p50_s on verify"),
    LayerMetric("spectral.leray_project_s", "s", "lower", "total", "spectral.leray_project", "op_p50_s on verify"),
    LayerMetric("spectral.curl_neg_sobolev_s", "s", "lower", "total", "spectral.curl_neg_sobolev", "op_p50_s on verify"),
    LayerMetric("energy.relaxed_elastic_energy_s", "s", "lower", "total", "energy.relaxed_elastic_energy", "mcells_per_s on sweep; op_p50_s on analyze"),
    LayerMetric("energy.relaxed_elastic_energy_calls", "count", "lower", "count", "energy.relaxed_elastic_energy", "mcells_per_s on sweep; op_p50_s on analyze"),
    LayerMetric("energy.relaxed_per_field", "count", "lower", "per_field", "energy.relaxed_elastic_energy", "mcells_per_s on sweep"),
    LayerMetric("energy.surface_energy_s", "s", "lower", "total", "energy.surface_energy", _TV),
    LayerMetric("energy.total_energy_s", "s", "lower", "self", "energy.total_energy", _TV),
    LayerMetric("fields.total_variation_s", "s", "lower", "total", "fields.total_variation", _TV),
    LayerMetric("fields.total_variation_calls", "count", "lower", "count", "fields.total_variation", _TV),
    LayerMetric("fields.write_phase_field_s", "s", "lower", "total", "fields.write_phase_field", "mcells_per_s on generate; analyze and sweep unchanged"),
    LayerMetric("fields.write_pgm_s", "s", "lower", "total", "fields.write_pgm", "mcells_per_s on generate; analyze and sweep unchanged"),
    LayerMetric("fields.bytes_written", "bytes", "lower", "bytes", "fields.write_*", "mcells_per_s on generate; analyze and sweep unchanged"),
    LayerMetric("fields.read_phase_field_s", "s", "lower", "total", "fields.read_phase_field", "op_p50_s on analyze; generate and sweep unchanged"),
    LayerMetric("fields.bytes_read", "bytes", "lower", "bytes", "fields.read_phase_field", "op_p50_s on analyze; generate and sweep unchanged"),
    LayerMetric("fields.to_modified_s", "s", "lower", "total", "fields.to_modified", "op_p50_s on analyze and mcells_per_s on sweep"),
    LayerMetric("fields.shear_resample_s", "s", "lower", "total", "fields.shear_resample", "op_p50_s on analyze and mcells_per_s on sweep"),
    LayerMetric("microstructures.gen_s", "s", "lower", "self", "microstructures.gen_*", "mcells_per_s on generate and sweep"),
    LayerMetric("microstructures.plan_branching_s", "s", "lower", "total", "microstructures.plan_branching", "mcells_per_s on generate and sweep"),
    LayerMetric("microstructures.gen_calls", "count", "lower", "count", "microstructures.gen_*", "mcells_per_s on generate and sweep"),
    LayerMetric("rigidity.extract_outer_s", "s", "lower", "total", "rigidity.extract_outer", "op_p50_s on analyze and mcells_per_s on sweep"),
    LayerMetric("rigidity.extract_inner_s", "s", "lower", "total", "rigidity.extract_inner", "op_p50_s on analyze and mcells_per_s on sweep"),
    LayerMetric("rigidity.characteristic_residual_s", "s", "lower", "total", "rigidity.characteristic_residual", "op_p50_s on analyze and mcells_per_s on sweep"),
    LayerMetric("rigidity.wave_decompose_s", "s", "lower", "total", "rigidity.wave_decompose", "op_p50_s on analyze and sweep; verify"),
    LayerMetric("rigidity.rigidity_report_s", "s", "lower", "self", "rigidity.rigidity_report", "op_p50_s on analyze"),
    LayerMetric("cli.self_s", "s", "lower", "self", "cli.main", "op_p50_s on verify and mcells_per_s on sweep"),
    LayerMetric("trace.overhead_s", "s", "lower", "overhead", "", "none: traced minus untraced wall time of the cycle's first operation"),
)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c]["start"]):
            lo, hi = max(spans[c]["start"], reach), min(spans[c]["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def _outermost(spans: list[dict], pattern: str) -> list[dict]:
    """Spans matching ``pattern`` with no matching ancestor, so recursion counts once."""
    out = []
    for span in spans:
        if not fnmatchcase(span["name"], pattern):
            continue
        parent = span["parent"]
        while parent >= 0 and not fnmatchcase(spans[parent]["name"], pattern):
            parent = spans[parent]["parent"]
        if parent < 0:
            out.append(span)
    return out


def absent_functions(wrapped: list[str]) -> list[str]:
    """Patterns of package functions that no public name matches any more."""
    patterns = {m.pattern for m in LAYER_METRICS if m.pattern and not m.pattern.startswith("numpy.")}
    return sorted(p for p in patterns if not any(fnmatchcase(w, p) for w in wrapped))


def layer_metrics(ops: list[tuple[list[str], list[dict]]], cycles: int, overhead_s: float) -> dict[str, float]:
    """Per-cycle layer metrics over traced ops given as (CLI argv, spans) pairs."""
    sums = dict.fromkeys((m.name for m in LAYER_METRICS), 0.0)
    reports = report_ffts = distinct_fields = 0
    for argv, spans in ops:
        selfs = self_times(spans)
        for m in LAYER_METRICS:
            matching = [i for i, s in enumerate(spans) if m.pattern and fnmatchcase(s["name"], m.pattern)]
            if m.how == "count":
                sums[m.name] += len(matching)
            elif m.how == "total":
                sums[m.name] += sum(s["end"] - s["start"] for s in _outermost(spans, m.pattern))
            elif m.how == "self":
                sums[m.name] += sum(selfs[i] for i in matching)
            elif m.how == "bytes":
                sums[m.name] += sum(spans[i].get("bytes", 0) for i in matching)
            elif m.how == "per_field":
                distinct_fields += len({spans[i]["field"] for i in matching})
        if argv and argv[0] == "report":
            reports += 1
            report_ffts += sum(fnmatchcase(s["name"], "numpy.fft.*") for s in spans)
    out = {name: value / cycles for name, value in sums.items()}
    calls = sums["energy.relaxed_elastic_energy_calls"]
    out["energy.relaxed_per_field"] = calls / distinct_fields if distinct_fields else 0.0
    out["spectral.fft_per_report"] = report_ffts / reports if reports else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
