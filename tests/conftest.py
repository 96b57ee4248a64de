"""Shared pytest wiring: the acceptance suite records one line per
criterion and this hook prints them after the run summary (outside
capture), so every invocation ends with the checklist. The
``operator_builds`` fixture tells which path stage 1 took, and
:func:`run_cli` runs the command line in a child process."""

import os
import subprocess
import sys
from pathlib import Path

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


def run_cli(args, stdin: bytes = b"", **env_vars) -> subprocess.CompletedProcess:
    """Run ``pcfi --quiet args`` in a child process, so it reads and writes
    the interpreter's own stdin and stdout, with ``env_vars`` added to its
    environment; asserts that it exits 0 and returns the completed
    process, its output as bytes."""
    src = str(Path(diffusion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env_vars)
    proc = subprocess.run([sys.executable, "-m", "pcfi.cli", "--quiet", *args],
                          input=stdin, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc
