"""Shared pytest wiring: one summary line per acceptance criterion, one
hypothesis profile so property tests draw the same examples on every run, a
counter of the spectral core's transforms and a gauge of peak memory."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import fourwell.cli  # imports every fourwell module

settings.register_profile("fourwell", derandomize=True, deadline=None)
settings.load_profile("fourwell")

# The spectral core's transforms: a forward 2-D transform passes through
# ``_coeffs`` when its half spectrum is made, or, streamed, through
# ``_row_spectra`` (its distinct rows' row transforms, and the column pass
# too if no row repeats) and then ``_fold_rows`` (the column transforms of a
# fold over one or two of them, when rows repeat); an inverse one
# passes through ``_values``, a 1-D profile's template row spectra through
# ``_sheared_rows``, a frame slab's derivative row spectra through
# ``_derivative_rows`` and a slab's coefficients from its row spectra through
# ``_slab_coeffs``.  Each is one call, however many numpy calls it takes.
CORE_TRANSFORMS = (
    "_coeffs",
    "_row_spectra",
    "_fold_rows",
    "_values",
    "_sheared_rows",
    "_derivative_rows",
    "_slab_coeffs",
)
# numpy's full complex 2-D transforms, which the half-spectrum core never takes.
FULL_COMPLEX = ("fft2", "ifft2", "fftn", "ifftn")


@pytest.fixture
def fft_calls(monkeypatch):
    """Transforms made during the test, by name: calls of each core transform
    (in every fourwell module that binds it) and of numpy's full complex 2-D
    entry points."""
    calls = dict.fromkeys(CORE_TRANSFORMS + FULL_COMPLEX, 0)

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    modules = [m for n, m in sys.modules.items() if n.startswith("fourwell.")]
    for name in CORE_TRANSFORMS:
        original = getattr(fourwell.spectral, name)
        wrapper = counted(name, original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    for name in FULL_COMPLEX:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    return calls


@pytest.fixture
def float_fields_peak():
    """``measure(build, grid)``: the peak memory traced while ``build()`` runs,
    in units of one float64 array of ``grid``'s shape."""

    def measure(build, grid):
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (grid.n1 * grid.n2 * np.dtype(np.float64).itemsize)

    return measure


_verdicts: dict[str, str] = {}

_MARKER = "test_acceptance.py::test_criterion_"


def pytest_runtest_logreport(report):
    if _MARKER not in report.nodeid:
        return
    key = report.nodeid.split("::test_criterion_", 1)[1]
    if report.when == "call":
        _verdicts[key] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and (report.failed or report.skipped):
        _verdicts[key] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_verdicts):
        number, _, label = key.partition("_")
        terminalreporter.write_line(f"ACCEPTANCE {number} {label}: {_verdicts[key]}")
