"""Start-up cost guard: the command line must not load scipy modules
that no subcommand uses. Checked by module name, not by seconds, so the
test does not depend on machine speed."""

import os
import subprocess
import sys
from pathlib import Path

import pcfi

# scipy.stats costs about 0.9 s to import; scipy.sparse.linalg (pulled
# in by scipy.sparse.csgraph) and scipy.special (used only by synth) about
# 0.1 s each; scipy.linalg (its BLAS wrappers) about 0.08 s and 6.5 MB,
# which stage 2's numpy-only Gram matrix does without
HEAVY = ("scipy.stats", "scipy.sparse.linalg", "scipy.special", "scipy.linalg")


def test_cli_import_skips_heavy_scipy_modules():
    src = str(Path(pcfi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, pcfi.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
