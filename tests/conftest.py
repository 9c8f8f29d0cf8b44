"""Shared test plumbing: collects acceptance-criterion verdict lines and
prints them as a section in the terminal summary, where output capture
cannot swallow them, and runs code with stacked products split or whole."""

import math

import pytest

from dynconv import tensor as T

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def split_and_serial(monkeypatch):
    """``run(fn)`` gives `fn()` with every stacked product of two or more
    samples split across the CPUs, on a pool made for the test, and `fn()`
    with every product run whole."""
    monkeypatch.setattr(T, "_pool", None)

    def run(fn):
        monkeypatch.setattr(T, "SPLIT_MIN_MADDS", 0)
        split = fn()
        assert (T._pool is not None) == (T.contraction_workers() > 1)
        monkeypatch.setattr(T, "SPLIT_MIN_MADDS", math.inf)
        return split, fn()

    yield run
    if T._pool is not None:
        T._pool.shutdown()
