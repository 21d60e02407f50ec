"""Shared pytest wiring: one summary line per acceptance criterion, and one
hypothesis profile so property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("fourwell", derandomize=True, deadline=None)
settings.load_profile("fourwell")

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
