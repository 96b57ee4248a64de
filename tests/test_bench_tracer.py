"""The contract between the package and the benchmark's tracer.

``python3 bench/run.py --trace 1`` replays the set-up commands through
``pcfi.cli.main`` in its own process, so ``cli.main`` must return its
exit code and never call ``sys.exit``. It then runs the workload's
command in process with a span around every function in the ``__all__``
of a layer module, and its per-layer metrics read, from those calls:

- ``diffusion.impute_stage1``'s ``g``, ``fs`` (a ``FeatureSet``) and
  ``steps``, by name;
- ``propagation.propagate_stage2``'s first positional argument, the
  N x F value matrix;
- the ``num_components`` of ``graph.connected_components``' result;
- the first argument, the path, of every ``io.load_*`` and ``io.write_*``.

Every other traced function, ``diffusion.fp_baseline`` and
``pipeline.impute`` included, is read only for its time, so a keyword
added to one of them is safe. A change that breaks one of the forms
above leaves a span without what its metric reads, and the traced run
fails where an untraced one passes. The test
runs the bench's own code on its two tiny self-test workloads, in a child
process, because importing ``bench/run.py`` pins the BLAS thread counts in
``os.environ`` and sets ``sys.dont_write_bytecode``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
from pathlib import Path

bench, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(bench), str(bench.parent / "src")]
import run
from spans import Tracer
from test_bench import TINY_IMPUTE, TINY_PIPELINE

result = {}
for w in (TINY_IMPUTE, TINY_PIPELINE):
    wdir = work / w.name
    w.data(wdir).mkdir(parents=True)
    tracer, setup_roots, setup_codes = Tracer(), [], []

    def replay(argv):
        root, code = run.run_traced(tracer, argv, "setup")
        setup_roots.append(root)
        setup_codes.append(code)
        return root.duration, code

    run.setup(w, 0, wdir, replay)
    root, code = run.run_traced(tracer, w.command(0, wdir), "workload")
    metrics = run.layer_metrics(tracer, root, setup_roots,
                                wall_median=root.duration, startup=0.0)
    result[w.name] = {"setup_codes": setup_codes, "code": code,
                      "metrics": sorted(metrics)}
(work / "result.json").write_text(json.dumps(result))
"""


def test_traced_bench_runs_read_what_the_tracer_reads(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(ROOT / "bench"), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = sorted(m["name"] for m in spec["per_layer"])
    assert sorted(result) == ["tiny-pipeline", "tiny-uniform"]
    for name, run in result.items():
        assert run["setup_codes"] == ([0] if name == "tiny-pipeline" else [0, 0])
        assert run["code"] == 0, (name, run["code"])
        assert run["metrics"] == per_layer, name
