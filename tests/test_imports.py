"""Start-up cost guard: the command line, and its runs, must not load
scipy modules that they do not use. Checked by module name, not by
seconds, so the test does not depend on machine speed. Commands that
take no sparse product (``--help``, ``mask``, ``synth``, ``eval
--spds``) load no scipy at all; the others load ``scipy.sparse`` at
their first sparse product. And the package namespace: it is built from
the ``__all__`` of its layer modules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcfi
from pcfi import SynthSpec, compute_spds, generate
from pcfi.io import load_mask, write_dataset, write_mask, write_matrix, write_spds

# scipy.stats costs about 0.9 s to import; scipy.sparse.linalg (pulled
# in by scipy.sparse.csgraph, which graph.connected_components does
# without) and scipy.special about 0.1 s each; scipy.linalg (its BLAS
# wrappers) about 0.08 s and 6.5 MB, which stage 2's numpy-only Gram
# matrix does without
HEAVY = ("scipy.stats", "scipy.sparse.linalg", "scipy.special", "scipy.linalg")


def _loaded_after(code: str, names=HEAVY) -> list[str]:
    """The modules loaded once ``code`` has run in a new interpreter that
    are, or lie under, one of ``names``."""
    src = str(Path(pcfi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code += ("\nimport sys\nprint('loaded:', *sorted(m for m in sys.modules if any("
             f"m == n or m.startswith(n + '.') for n in {tuple(names)!r})))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()[1:]


def _cli_run(*argv: str) -> str:
    return f"import sys; from pcfi.cli import main; assert main({list(argv)!r}) == 0"


def test_cli_import_skips_heavy_scipy_modules():
    assert _loaded_after("import sys, pcfi.cli") == []


def test_package_import_and_help_load_no_scipy():
    assert _loaded_after("import pcfi", ["scipy"]) == []
    help_code = ("from pcfi.cli import main\ntry:\n    main(['--help'])\n"
                 "except SystemExit as stop:\n    assert stop.code == 0")
    assert _loaded_after(help_code, ["scipy"]) == []


def _no_product_run(command: str, tmp_path: Path) -> list[str]:
    """The arguments of one run that takes no sparse product; its output
    is ``tmp_path / "out"``."""
    out = str(tmp_path / "out")
    if command.startswith("mask"):
        if command == "mask-flags":
            shape = ["--num-nodes", "30", "--num-channels", "4"]
        else:
            write_matrix(tmp_path / "x.csv", np.ones((30, 4)))
            shape = ["--features-file", str(tmp_path / "x.csv")]
        return ["mask", "--type", "uniform", "--rate", "0.5", "--seed", "0", *shape,
                "--out", out]
    if command == "synth":
        # 4 classes in 2 dimensions draw their means from a pool of normals
        return ["synth", "--num-nodes", "300", "--num-classes", "4", "--feature-dim",
                "2", "--intra", "0.012", "--inter", "0.001", "--seed", "0", "--out",
                out]
    ds = generate(SynthSpec(num_nodes=60, num_classes=2, feature_dim=3,
                            intra_edge_prob=0.2, inter_edge_prob=0.05))
    known = np.random.default_rng(0).random(ds.features.shape) < 0.5
    files = {name: str(tmp_path / f"{name}.csv") for name in ("x", "mask", "spds")}
    write_matrix(files["x"], ds.features)
    write_mask(files["mask"], known)
    write_spds(files["spds"], compute_spds(ds.graph, known).distances)
    return ["eval", "--truth", files["x"], "--imputed", files["x"], "--mask",
            files["mask"], "--spds", files["spds"], "--report", out]


@pytest.mark.parametrize("command", ["mask-flags", "mask-features-file", "synth",
                                     "eval-spds"])
def test_run_without_a_sparse_product_loads_no_scipy(tmp_path, command):
    """``synth`` builds its graph and cuts it to the largest component in
    numpy, and draws its normals with numpy; ``eval --spds`` reads its
    distance field from a file."""
    argv = _no_product_run(command, tmp_path)
    loaded = _loaded_after(_cli_run("--quiet", *argv), ["scipy"])
    out = tmp_path / "out"
    if command.startswith("mask"):
        assert load_mask(out).shape == (30, 4)
    elif command == "synth":
        meta = json.loads((out / "meta.json").read_text())
        assert meta["num_components_generated"] > 1  # the cut ran
        assert meta["means_kind"] == "maxmin"
    else:
        assert json.loads(out.read_text())["rmse"] == 0.0
    assert loaded == []


def test_impute_run_loads_scipy_sparse_at_its_graph(tmp_path):
    """The guards above are not vacuous: a command that takes a sparse
    product does load ``scipy.sparse``, at its first sparse product."""
    data = tmp_path / "data"
    ds = generate(SynthSpec(num_nodes=60, num_classes=2, feature_dim=3,
                            intra_edge_prob=0.2, inter_edge_prob=0.05))
    write_dataset(data, ds)
    write_mask(tmp_path / "mask.csv", np.ones(ds.features.shape, dtype=bool))
    loaded = _loaded_after(_cli_run(
        "--quiet", "impute", "--edges", str(data / "edges.tsv"), "--features",
        str(data / "features.csv"), "--mask", str(tmp_path / "mask.csv"),
        "--out", str(tmp_path / "out.csv")), ["scipy"])
    assert "scipy.sparse" in loaded


def test_pipeline_run_with_largest_component_skips_heavy_scipy_modules(tmp_path):
    spec = SynthSpec(num_nodes=300, num_classes=3, feature_dim=4, intra_edge_prob=0.01,
                     inter_edge_prob=0.001, seed=0, largest_component=False)
    write_dataset(tmp_path, generate(spec))
    loaded = _loaded_after(_cli_run(
        "--quiet", "pipeline", "--dataset", str(tmp_path), "--mask-type", "uniform",
        "--rate", "0.5", "--out", str(tmp_path / "report.json")))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["num_nodes"] < spec.num_nodes  # the component step cut the graph
    assert loaded == []


LAYERS = ("confidence", "diffusion", "errors", "graph", "masking", "metrics",
          "pipeline", "propagation", "synth")


def test_package_exports_each_layer_modules_names_once():
    modules = [importlib.import_module(f"pcfi.{layer}") for layer in LAYERS]
    assert pcfi.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
    assert len(set(pcfi.__all__)) == len(pcfi.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(pcfi, name) is getattr(module, name), name
