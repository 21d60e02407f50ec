"""Run one fourwell CLI operation with spans around the package's public functions.

Usage: python perfbench/trace_op.py SPANS_JSON ARGV...

Every public function of the traced modules is wrapped, and so are the
``numpy.fft`` entry points.  The wrapper is bound in every namespace that holds
the original: ``cli``, ``rigidity`` and ``energy`` import functions by name, so
patching only the defining module would miss their calls.  Spans stay in memory
and are written to SPANS_JSON when the operation ends.  Nothing in the package
itself changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
import zlib

import numpy as np

MODULES = ("cli", "fields", "microstructures", "spectral", "energy", "rigidity")
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)  # fmt: skip


class Tracer:
    """Records spans as dicts with a name, start, end and parent index."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "parent": self._stack[-1] if self._stack else -1}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after(tracer, span, args, result)`` adds fields."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, span, args, result)
            return result

        return traced


def _fft_bytes(tracer, span, args, result):
    span["bytes"] = int(np.asarray(args[0]).nbytes + result.nbytes)


def _file_bytes(tracer, span, args, result):
    span["bytes"] = os.path.getsize(args[0])


def _field_fingerprint(tracer, span, args, result):
    # Identifies the priced field so calls per distinct field can be counted.
    # Recorded as its own span, so its cost is not charged to any layer.
    fp = tracer.open("trace.fingerprint")
    m = args[0]
    arrays = [m.chi1t, m.chi2t, m.chi3t] if hasattr(m, "chi1t") else [f.values for f in m]
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    tracer.close(fp)
    span["field"] = f"{arrays[0].shape}:{crc:08x}"


AFTER = {
    "fields.read_phase_field": _file_bytes,
    "fields.write_phase_field": _file_bytes,
    "fields.write_pgm": _file_bytes,
    "energy.relaxed_elastic_energy": _field_fingerprint,
}


def public_functions(module) -> list[str]:
    """Names in ``__all__`` of functions the module itself defines."""
    return [
        n
        for n in getattr(module, "__all__", ())
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions and the FFT entry points; return the package names wrapped."""
    wrappers = {}  # id of the original function -> its wrapper
    wrapped = []
    for short in MODULES:
        module = importlib.import_module(f"fourwell.{short}")
        for name in public_functions(module):
            qual = f"{short}.{name}"
            fn = getattr(module, name)
            wrappers[id(fn)] = tracer.wrap(qual, fn, AFTER.get(qual))
            wrapped.append(qual)
    for name in FFT_FUNCTIONS:
        fn = getattr(np.fft, name, None)
        if fn is not None:
            wrappers[id(fn)] = tracer.wrap(f"numpy.fft.{name}", fn, _fft_bytes)
    namespaces = [m for n, m in sys.modules.items() if n == "fourwell" or n.startswith("fourwell.")]
    for namespace in namespaces + [np.fft]:
        for attr, value in list(vars(namespace).items()):
            if id(value) in wrappers:
                setattr(namespace, attr, wrappers[id(value)])
    return wrapped


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    wrapped = install(tracer)
    cli = sys.modules["fourwell.cli"]
    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as out:
            json.dump({"wrapped": wrapped, "spans": tracer.spans}, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
