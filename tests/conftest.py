"""Suite-wide pytest hooks: a time bound per test and an acceptance summary
line per criterion."""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

# A test that runs longer than this dumps every thread's traceback and ends
# the run with exit code 1, so a kernel fault that loops cannot stall the suite.
TEST_SECONDS = 600.0

# stderr as it was before output capture, for the traceback
_stderr_fd: int | None = None

_acceptance_results: dict[str, str] = {}


def pytest_configure(config):
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    if _stderr_fd is not None:
        os.close(_stderr_fd)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_SECONDS, exit=True, file=_stderr_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call":
        _acceptance_results[report.nodeid] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _acceptance_results[report.nodeid] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance_results):
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{name}: {_acceptance_results[nodeid]}")
