"""Shared pytest wiring: one summary line per acceptance criterion, one
hypothesis profile so property tests draw the same examples on every run, a
counter of numpy's FFT calls and a gauge of peak memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("fourwell", derandomize=True, deadline=None)
settings.load_profile("fourwell")

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2")


@pytest.fixture
def fft_calls(monkeypatch):
    """Calls of each ``numpy.fft`` entry point made during the test, by name."""
    calls = dict.fromkeys(FFT_FUNCTIONS, 0)
    for name in FFT_FUNCTIONS:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
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
