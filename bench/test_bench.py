"""Self-test of the benchmark's tracing and reference check on tiny inputs.

Run from the repository root (it is not part of the package's suite)::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from spans import SpanTree, Tracer  # noqa: E402

TINY_IMPUTE = run.Workload(
    "tiny-uniform", "12 channels, 12 missing patterns on the 2-thread pool",
    ("--num-nodes", "300", "--num-classes", "3", "--feature-dim", "12",
     "--intra", "0.03", "--inter", "0.003"), 12, ("uniform", 0.5))
TINY_PIPELINE = run.Workload(
    "tiny-pipeline", "several components through pipeline",
    ("--num-nodes", "400", "--num-classes", "3", "--feature-dim", "4",
     "--intra", "0.008", "--inter", "0.001", "--keep-all-components"), 4, None)

# counts that must repeat exactly from run to run
COUNTS = ("confidence.bfs_calls", "diffusion.operator_builds",
          "graph.num_components", "diffusion.spmm_flops",
          "diffusion.bytes_computed", "propagation.flops",
          "io.read_mb", "io.write_mb")


def traced_run(w, work: Path, seed: int = 0):
    work.mkdir()
    w.data(work).mkdir()
    tracer = Tracer()
    setup_roots = []

    def replay(argv):
        root, code = run.run_traced(tracer, argv, "setup")
        setup_roots.append(root)
        return root.duration, code

    run.setup(w, seed, work, replay)
    root, code = run.run_traced(tracer, w.command(seed, work), "workload")
    assert code == 0
    metrics = run.layer_metrics(tracer, root, setup_roots,
                                wall_median=root.duration, startup=0.0)
    return tracer, root, metrics


@pytest.mark.parametrize("w", [TINY_IMPUTE, TINY_PIPELINE], ids=lambda w: w.name)
def test_counts_repeat_and_spans_nest(w, tmp_path):
    first_tracer, first_root, first = traced_run(w, tmp_path / "a")
    _, _, second = traced_run(w, tmp_path / "b")
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["diffusion.operator_builds"] > 0

    tree = SpanTree(first_tracer.spans)
    for span in tree.spans:
        assert tree.self_time(span) >= 0, span
        parent = tree.by_id.get(span.parent)
        if parent is not None:
            assert parent.start <= span.start and span.end <= parent.end, span
    assert run.trace_problems(first_tracer, first_root) == []
    assert w.check(0, tmp_path / "a")["problems"] == []


def test_pool_workers_nest_under_stage1(tmp_path):
    tracer, root, _ = traced_run(TINY_IMPUTE, tmp_path / "a")
    tree = SpanTree(tracer.spans)
    stage1 = [s for s in tree.descendants(root) if s.name == "diffusion.impute_stage1"]
    workers = [s for s in tree.children[stage1[0].id] if s.thread != root.thread]
    assert workers, "the 2-thread pool ran no traced call off the main thread"
    assert tree.self_time(stage1[0]) >= 0


def test_removed_function_reports_absent(tmp_path, monkeypatch):
    from pcfi import diffusion

    monkeypatch.setattr(diffusion, "__all__", [
        name for name in diffusion.__all__ if name != "build_channel_operator"])
    _, _, metrics = traced_run(TINY_IMPUTE, tmp_path / "a")
    assert "diffusion.operator_builds" not in metrics
    assert metrics["diffusion.stage1_s"] > 0


def test_reference_rejects_a_changed_entry(tmp_path):
    traced_run(TINY_IMPUTE, tmp_path / "a")
    out = tmp_path / "a" / "out.csv"
    values = np.loadtxt(out, delimiter=",")
    known = np.loadtxt(tmp_path / "a" / "mask.csv", delimiter=",").astype(bool)
    i, j = np.argwhere(~known)[0]
    values[i, j] += 1e-6
    np.savetxt(out, values, fmt="%.9g", delimiter=",")
    problems = TINY_IMPUTE.check(0, tmp_path / "a")["problems"]
    assert any("differ from the reference" in p for p in problems)


def test_benchmark_json_matches_the_runner(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()}
    _, _, metrics = traced_run(TINY_PIPELINE, tmp_path / "a")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.UNITS.get(name, "s") for name in metrics}
