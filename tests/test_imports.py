"""Start-up cost guard: the command line must not load scipy modules
that no subcommand uses. Checked by module name, not by seconds, so the
test does not depend on machine speed. And the package namespace: it is
built from the ``__all__`` of its layer modules."""

import importlib
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


LAYERS = ("confidence", "diffusion", "errors", "graph", "masking", "metrics",
          "pipeline", "propagation", "synth")


def test_package_exports_each_layer_modules_names_once():
    modules = [importlib.import_module(f"pcfi.{layer}") for layer in LAYERS]
    assert pcfi.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
    assert len(set(pcfi.__all__)) == len(pcfi.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(pcfi, name) is getattr(module, name), name
