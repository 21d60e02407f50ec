"""fourwell benchmark: drive the CLI from outside, one operation at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

Each operation is ``python -m fourwell.cli ARGV`` in a fresh process with
PYTHONPATH set to ``src``: a closed loop with one client, so the load never
uses more than one core for the program.  A run repeats its workload's cycle
of operations until the operations have taken ``--seconds`` of wall time.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
operations run under ``trace_op.py`` and it prints the per-layer metrics.
Every operation's output is checked after it ends, outside the timed interval.
The last line of stdout is one JSON object; the exit code is 1 if any
operation failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed  # noqa: E402
from spans import LAYER_METRICS, absent_functions, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
SETUP_CODE = "import fourwell.cli as cli; cli.build_parser()"
OP_TIMEOUT_S = 170.0


class Launcher:
    """The small process that spawns every operation (see launcher.py)."""

    def __init__(self, workdir: Path, env: dict[str, str]):
        self.workdir = workdir
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], name: str) -> dict:
        request = {
            "argv": argv,
            "cwd": str(self.workdir),
            "env": self.env,
            "stdout": str(self.workdir / f"{name}.out"),
            "stderr": str(self.workdir / f"{name}.err"),
            "timeout_s": OP_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class OpRecord:
    label: str
    argv: list[str]
    wall_s: float
    maxrss_kb: int
    cells: int
    ok: bool
    reason: str
    spans_path: Path | None


def run_op(launcher: Launcher, op, index: int, traced: bool) -> OpRecord:
    name = f"op{index:04d}"
    spans_path = launcher.workdir / f"{name}.spans.json" if traced else None
    if traced:
        cmd = [sys.executable, str(HERE / "trace_op.py"), str(spans_path), *op.argv]
    else:
        cmd = [sys.executable, "-m", "fourwell.cli", *op.argv]
    reply = launcher.run(cmd, name)
    cells, ok, reason = 0, False, ""
    try:
        cells = check_output(launcher, op, reply, name)
        if op.followup is not None:
            extra, extra_name = op.followup(), f"{name}.followup"
            extra_reply = launcher.run([sys.executable, "-m", "fourwell.cli", *extra.argv], extra_name)
            check_output(launcher, extra, extra_reply, extra_name)
        ok = True
    # Malformed output surfaces as a parse error; it fails the op, not the benchmark.
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    return OpRecord(op.label, op.argv, reply["wall_s"], reply["maxrss_kb"], cells, ok, reason, spans_path)


def check_output(launcher: Launcher, op, reply: dict, name: str) -> int:
    """The op's exit code and its check; returns the cells it handled."""
    if reply["returncode"] != 0:
        raise CheckFailed(f"{op.label}: exit code {reply['returncode']}")
    return op.check((launcher.workdir / f"{name}.out").read_text())


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that percentile.

    With ten or fewer samples no percentile has ten above it, so the maximum
    (the 100th percentile) is reported and labelled as such.
    """
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def environment(workload: str, seed: int) -> dict:
    cpu = l3 = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "clients": 1,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, size: str = "full") -> dict:
    """Run one workload and return its result: records, metrics and notes."""
    src = ROOT / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    launcher = Launcher(workdir, env)
    setup: list[float] = []

    def probe_setup() -> None:
        name = f"setup{len(setup)}"
        reply = launcher.run([sys.executable, "-c", SETUP_CODE], name)
        if reply["returncode"] != 0:
            raise RuntimeError(f"importing fourwell.cli failed: {(workdir / f'{name}.err').read_text()}")
        setup.append(reply["wall_s"])

    try:
        wl = WORKLOADS[workload](workdir, seed, SIZES[size], src)
        records: list[OpRecord] = []
        busy, cycles = 0.0, 0
        while cycles == 0 or busy < seconds:
            for op in wl.cycle(cycles):
                # Set-up probes are spread over the run, one before each op,
                # so a short burst of machine noise cannot dominate setup_s.
                if not trace:
                    probe_setup()
                rec = run_op(launcher, op, len(records), trace)
                records.append(rec)
                busy += rec.wall_s
            cycles += 1
        while not trace and len(setup) < SETUP_PROBES:
            probe_setup()

        untraced = None
        if trace:
            # Tracing overhead: the cycle's first operation again, untraced.
            first = wl.cycle(0)[0]
            first = dataclasses.replace(first, label=f"{first.label} (untraced)", followup=None)
            untraced = run_op(launcher, first, len(records), False)
            records.append(untraced)
    finally:
        launcher.close()

    result = {
        "records": records,
        "cycles": cycles,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "env": environment(workload, seed),
    }
    if trace:
        ops = []
        wrapped: list[str] = []
        for r in records[:-1]:
            if r.spans_path is not None and r.spans_path.is_file():
                doc = json.loads(r.spans_path.read_text())
                wrapped = doc["wrapped"]
                ops.append((r.argv, doc["spans"]))
        values = layer_metrics(ops, cycles, records[0].wall_s - untraced.wall_s)
        result["metrics"] = {m.name: (values[m.name], m.unit) for m in LAYER_METRICS}
        result["absent"] = absent_functions(wrapped)
    else:
        walls = [r.wall_s for r in records]
        tail_value, tail_pct = tail(walls)
        busy_s = sum(walls)
        cells = sum(r.cells for r in records)
        result["metrics"] = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_s": (statistics.median(walls), "s"),
            "mcells_per_s": (cells / 1e6 / busy_s, "Mcells/s"),
            "peak_rss_mb": (max(r.maxrss_kb for r in records) / 1024.0, "MB"),
        }
        result["notes"] = {
            "samples": len(walls),
            "setup_probes": len(setup),
            "op_tail_s": tail_value,
            "tail_percentile": tail_pct,
            "mcells": cells / 1e6,
            "busy_s": busy_s,
            "fail_ratio": result["failed"] / result["attempted"],
        }
    return result


def report(result: dict, trace: bool) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    print("env " + json.dumps(result["env"], sort_keys=True))
    for r in result["records"]:
        status = "ok" if r.ok else f"FAILED ({r.reason})"
        print(f"op {r.label}: {r.wall_s:.3f} s, peak {r.maxrss_kb / 1024:.0f} MB, {status}")
    print(f"cycles {result['cycles']}, operations {result['attempted']}, failed {result['failed']}, "
          f"fail_ratio {result['failed'] / result['attempted']:.4f}")  # fmt: skip
    notes = result.get("notes", {})
    if trace:
        print("counts, bytes and times below are per cycle; bytes are computed from array "
              "shapes or file sizes: a 2048^2 complex128 array (64 MiB) is smaller than 4x the "
              f"L3 ({result['env']['l3']}), so they are not a bandwidth measurement")  # fmt: skip
        if result["absent"]:
            print("absent (no public function matches): " + ", ".join(result["absent"]))
    else:
        print(f"op_p50_s over {notes['samples']} operations; setup_s is the median of "
              f"{notes['setup_probes']} fresh interpreters; mcells_per_s is {notes['mcells']:.3f} "
              f"Mcells over {notes['busy_s']:.3f} s of operation wall time")  # fmt: skip
        print(f"op_tail_s {notes['op_tail_s']!r} s (p{notes['tail_percentile']:.1f} of "
              f"{notes['samples']} operations; not gated, see README)")  # fmt: skip
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))  # fmt: skip


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fourwell" / "cli.py").is_file():
        print(f"perfbench: no fourwell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_parent.rmdir()
    report(result, bool(args.trace))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
