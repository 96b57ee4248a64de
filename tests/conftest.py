"""Shared pytest wiring: the acceptance suite records one line per
criterion and this hook prints them after the run summary (outside
capture), so every invocation ends with the checklist. The
``operator_builds`` fixture tells which path stage 1 took."""

import pytest

from pcfi import diffusion

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def operator_builds(monkeypatch):
    """A list that gains one entry per call of stage 1's explicit operator
    builder (:func:`pcfi.diffusion.build_channel_operator`) from here on:
    one per missing pattern that stage 1 runs off the fused kernel."""
    calls = []
    real = diffusion.build_channel_operator

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(diffusion, "build_channel_operator", counted)
    return calls
