"""Benchmark of the ``pcfi`` command line on seeded synthetic workloads.

Run from the repository root::

    python3 bench/run.py --workload cora-uniform --seed 0 --seconds 20 --trace 0

Every run first generates the workload's inputs from ``--seed`` with
``pcfi synth`` and ``pcfi mask``. The program receives only those files.

``--trace 0`` sets up ``SETUP_REPEATS`` times as child processes (the
median is ``setup_s``), then runs the workload's command as a child,
back to back, until ``--seconds`` have passed (and at least
``MIN_INVOCATIONS`` times), and reports the median
wall time and peak RSS of one invocation. ``--trace 1`` replays the
set-up inside this process, runs the same untraced children, times a
no-work child (``--help``), and then runs the command once more inside
this process with a span around every call into the public functions
of the ``pcfi`` modules (see ``spans.py``); it reports per-layer
metrics.

Either way the outputs are then checked once against the reference in
``reference.py``, outside the timed region; every invocation must also
produce byte-identical outputs. The last line of standard output is one
JSON object with ``correct``, ``attempted`` (CLI invocations),
``failed`` (invocations that exited non-zero, left out an output or
failed the check; ``failed / attempted`` is the failed fraction) and
``metrics``. The lines before it are a readable table and the run's
provenance. The full record, with every sample and span, is written to
``.bench/results/``.

BLAS and OpenMP pools are pinned to one thread, here and in every
child, so ``--threads`` is the only parallelism. Later claims must hold
on ``DEFAULT_SEED`` and on ``HELD_OUT_SEED``.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)  # before numpy loads, for the in-process runs too

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
from spans import SpanTree, Tracer, traced  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench"

DEFAULT_SEED = 0
HELD_OUT_SEED = 1
SETUP_REPEATS = 3
MIN_INVOCATIONS = 3
STARTUP_REPEATS = 3
# CLI defaults; the reference recomputes with the same values.
ALPHA, BETA, STEPS = 0.8, 1e-3, 100
THREADS = min(2, os.cpu_count() or 1)
PIPELINE_RATE = 0.9

CORA = ("--num-nodes", "2708", "--num-classes", "7", "--feature-dim", "1433",
        "--intra", "0.0082", "--inter", "0.00032")
# Expected degree 2.5, as in a 50k-node graph with intra 0.00028 / inter
# 0.000012; synth's edge sampling is quadratic in the node count, so 20k
# keeps three set-ups per run affordable.
SBM = ("--num-nodes", "20000", "--num-classes", "7", "--feature-dim", "16",
       "--intra", "0.0007", "--inter", "0.00003", "--keep-all-components")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple[str, ...]
    channels: int
    mask: tuple[str, float] | None  # (type, rate) for impute; None: pipeline

    def data(self, work: Path) -> Path:
        return work / "data"

    def mask_seeds(self, seed: int) -> list[int]:
        return [3 * seed, 3 * seed + 1, 3 * seed + 2]

    def synth_command(self, seed: int, work: Path) -> list[str]:
        return ["synth", *self.synth, "--seed", str(seed),
                "--out", str(self.data(work))]

    def mask_command(self, seed: int, work: Path, num_nodes: int) -> list[str]:
        kind, rate = self.mask
        return ["mask", "--type", kind, "--rate", str(rate), "--seed", str(seed),
                "--num-nodes", str(num_nodes), "--num-channels",
                str(self.channels), "--out", str(work / "mask.csv")]

    def command(self, seed: int, work: Path) -> list[str]:
        data = self.data(work)
        if self.mask is None:
            return ["pipeline", "--dataset", str(data), "--mask-type", "structural",
                    "--rate", str(PIPELINE_RATE),
                    "--seeds", ",".join(map(str, self.mask_seeds(seed))),
                    "--methods", "pcfi,fp,zero", "--out", str(work / "report.json")]
        return ["impute", "--edges", str(data / "edges.tsv"),
                "--features", str(data / "features.csv"),
                "--mask", str(work / "mask.csv"), "--threads", str(THREADS),
                "--out", str(work / "out.csv")]

    def outputs(self, work: Path) -> list[Path]:
        if self.mask is None:
            return [work / "report.json"]
        return [work / "out.csv", work / "out.csv.json"]

    def check(self, seed: int, work: Path) -> dict:
        if self.mask is None:
            return reference.check_pipeline(
                self.data(work), work / "report.json", rate=PIPELINE_RATE,
                seeds=self.mask_seeds(seed), alpha=ALPHA, beta=BETA, steps=STEPS)
        return reference.check_impute(self.data(work), work / "mask.csv",
                                      work / "out.csv", alpha=ALPHA, beta=BETA,
                                      steps=STEPS)


# A Cora-sized structural-mask workload (one pattern, 99.5% of rows) was left
# out: with three set-ups and three invocations per run, a third workload does
# not fit the time the benchmark may take. Its layers all run here as well.
WORKLOADS = {w.name: w for w in (
    Workload("cora-uniform",
             "Cora-sized graph, 1433 channels, 90% of entries masked at random: "
             "1433 patterns, so 1433 BFS runs and operator builds on the 2-thread "
             "pool, then stage 2 and 44 MB of CSV",
             CORA, 1433, ("uniform", 0.9)),
    Workload("sbm20k-pipeline",
             "20k-node 16-channel SBM with ~2k components through pipeline "
             "(pcfi, fp, zero; 3 mask seeds; 1 thread): largest-component "
             "extraction, masking, fp and evaluate outside diffusion",
             SBM, 16, None),
)}

# span-name prefixes of the public functions that read and write files
IO_PREFIXES = {"read": "io.load_", "write": "io.write_"}
# metric -> public functions whose outermost spans it sums
SPAN_TIMES = {
    "graph.build_s": ("graph.build_graph",),
    "graph.components_s": ("graph.connected_components", "graph.induced_subgraph"),
    "masking.mask_s": ("masking.structural_mask", "masking.uniform_mask",
                       "masking.apply_mask"),
    "confidence.spds_s": ("confidence.compute_spds",),
    "diffusion.stage1_s": ("diffusion.impute_stage1",),
    "diffusion.fp_s": ("diffusion.fp_baseline",),
    "propagation.stage2_s": ("propagation.propagate_stage2",),
    "metrics.evaluate_s": ("metrics.evaluate",),
    "pipeline.impute_s": ("pipeline.impute",),
}
SPAN_COUNTS = {
    "confidence.bfs_calls": "confidence.multi_source_bfs",
    "diffusion.operator_builds": "diffusion.build_channel_operator",
}
UNITS = {"io.read_mb": "MB", "io.write_mb": "MB", "graph.num_components": "count",
         "diffusion.stage1_cpu_ratio": "ratio", "diffusion.spmm_flops": "flop",
         "diffusion.gflops_per_s": "GFLOP/s", "diffusion.bytes_computed": "B",
         "propagation.flops": "flop", **{k: "count" for k in SPAN_COUNTS}}
# derived from array sizes, not measured
COMPUTED = {"diffusion.spmm_flops", "diffusion.bytes_computed", "propagation.flops"}


class SetupError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PCFI_THREADS"}
    env.update(PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log: Path) -> tuple[float, float, int]:
    """Run ``python -m pcfi.cli argv`` from the repository root. Returns
    wall seconds from spawn to exit, the child's peak RSS in MB, and its
    exit code."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pcfi.cli", *argv],
                                cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _inputs(w: Workload, work: Path) -> list[Path]:
    files = sorted(p for p in w.data(work).iterdir() if p.is_file())
    return files + ([work / "mask.csv"] if w.mask is not None else [])


def setup(w: Workload, seed: int, work: Path, run) -> float:
    """Generate the inputs with ``run(argv) -> (seconds, exit code)``;
    returns the seconds taken."""
    seconds, code = run(w.synth_command(seed, work))
    if code != 0:
        raise SetupError(f"pcfi synth exited {code}")
    if w.mask is not None:
        meta = json.loads((w.data(work) / "meta.json").read_text())
        mask_seconds, code = run(w.mask_command(seed, work, meta["num_nodes"]))
        if code != 0:
            raise SetupError(f"pcfi mask exited {code}")
        seconds += mask_seconds
    return seconds


def invoke_until(w: Workload, seed: int, work: Path, seconds: float) -> list[dict]:
    """Untraced child invocations, back to back, until ``seconds`` have
    passed and at least ``MIN_INVOCATIONS`` have run."""
    argv = w.command(seed, work)
    samples = []
    start = time.perf_counter()
    while (len(samples) < MIN_INVOCATIONS
           or time.perf_counter() - start < seconds):
        for path in w.outputs(work):
            path.unlink(missing_ok=True)
        wall, rss, code = run_child(argv, work / "cli.log")
        samples.append({"wall_s": wall, "peak_rss_mb": rss,
                        **_outcome(w, work, code)})
    return samples


def _outcome(w: Workload, work: Path, code) -> dict:
    missing = [p.name for p in w.outputs(work) if not p.exists()]
    return {"exit": code, "missing": missing,
            "digest": None if missing else _digest(w.outputs(work))}


def verify(w: Workload, seed: int, work: Path, attempts: list[dict]) -> dict:
    """Check the outputs left on disk against the reference, then mark each
    attempt failed unless it exited 0 and wrote those same bytes."""
    last = attempts[-1]
    check = {"problems": ["last invocation failed; nothing to check"],
             "rmse": None, "shape": None}
    if last["exit"] == 0 and not last["missing"]:
        check = w.check(seed, work)
    for a in attempts:
        a["failed"] = bool(a["exit"] != 0 or a["missing"] or check["problems"]
                           or a["digest"] != last["digest"])
    return check


def _cpu_model():
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in lines
                 if line.startswith("model name")), None)


def _last_level_cache():
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, size)
    return None if best is None else f"L{best[0]} {best[1]}"


def _openblas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def provenance(w: Workload, seed: int, shape) -> dict:
    return {
        "workload": w.name, "why": w.why, "workload_seed": seed,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "command": "pcfi " + " ".join(w.command(seed, Path("WORK"))),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": _openblas_version(),
        "thread_pins": PINS, "cli_threads": THREADS if w.mask else 1,
        "shape": shape,
    }


def _time_sum(tree: SpanTree, spans, names) -> float:
    return sum(s.duration for s in tree.outermost(spans, names))


def _file_mb(path: str) -> float:
    p = Path(path)
    files = [f for f in p.rglob("*") if f.is_file()] if p.is_dir() else [p]
    return sum(f.stat().st_size for f in files if f.exists()) / 1e6


def layer_metrics(tracer: Tracer, root, setup_roots, wall_median: float,
                  startup: float) -> dict:
    """Per-layer values from the spans under the traced workload ``root``.

    A metric whose functions are all gone from the program is absent
    rather than zero.
    """
    tree = SpanTree(tracer.spans)
    spans = list(tree.descendants(root))
    have = tracer.wrapped
    out = {"cli.startup_s": startup, "trace.main_s": root.duration,
           "trace.overhead_s": root.duration + startup - wall_median,
           "cli.self_s": tree.self_time(root)}

    def named(name):
        return [s for s in spans if s.name == name]

    for metric, names in SPAN_TIMES.items():
        if have.intersection(names):
            out[metric] = _time_sum(tree, spans, names)
    for kind, prefix in IO_PREFIXES.items():
        names = [n for n in have if n.startswith(prefix)]
        if names:
            outer = tree.outermost(spans, names)
            out[f"io.{kind}_s"] = sum(s.duration for s in outer)
            out[f"io.{kind}_mb"] = sum(_file_mb(s.info["path"]) for s in outer)
    for metric, name in SPAN_COUNTS.items():
        if name in have:
            out[metric] = len(named(name))
    if "synth.generate" in have:
        out["synth.generate_s"] = sum(
            s.duration for r in setup_roots for s in tree.descendants(r)
            if s.name == "synth.generate")
    if "graph.connected_components" in have:
        out["graph.num_components"] = sum(
            s.info["num_components"] for s in named("graph.connected_components"))
    if "diffusion.impute_stage1" in have:
        stage1 = named("diffusion.impute_stage1")
        wall = sum(s.duration for s in stage1)
        flops = nbytes = 0
        for s in stage1:
            i = s.info
            nnz = 2 * i["edges"] + i["nodes"]
            flops += 2 * i["steps"] * nnz * i["channels_missing"]
            # one pass over a float64/int32 CSR plus reading and writing the
            # dense block of channels with a missing entry, per step
            nbytes += i["steps"] * (12 * nnz + 4 * (i["nodes"] + 1)
                                    + 16 * i["nodes"] * i["channels_missing"])
        out["diffusion.stage1_self_s"] = sum(tree.self_time(s) for s in stage1)
        out["diffusion.stage1_cpu_ratio"] = (sum(s.cpu for s in stage1) / wall
                                             if wall > 0 else 0.0)
        out["diffusion.spmm_flops"] = flops
        out["diffusion.gflops_per_s"] = flops / wall / 1e9 if wall > 0 else 0.0
        out["diffusion.bytes_computed"] = nbytes
    if "propagation.propagate_stage2" in have:
        out["propagation.flops"] = sum(
            4 * s.info["nodes"] * s.info["channels"] ** 2
            for s in named("propagation.propagate_stage2"))
    return out


def trace_problems(tracer: Tracer, root) -> list[str]:
    """Span invariants, and that the workload's top-level spans (which
    must not overlap) plus its untraced remainder add up to the wall time
    measured with a separate clock reading around ``cli.main``."""
    tree = SpanTree(tracer.spans)
    problems = tree.problems()
    top = tree.children.get(root.id, [])
    total = sum(s.duration for s in top) + tree.self_time(root)
    wall = root.info["main_wall_s"]
    if abs(total - wall) > 1e-3 + 1e-4 * wall:
        problems.append(f"top-level spans plus remainder give {total:.6f} s, "
                        f"cli.main took {wall:.6f} s")
    return problems


def run_traced(tracer: Tracer, argv, phase: str):
    """Run ``pcfi.cli.main(argv)`` in this process under a root span."""
    from pcfi import cli

    with traced(tracer), tracer.span("cli.main") as root:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an unhandled error is a failed invocation
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    root.info = {"phase": phase, "exit": code, "main_wall_s": wall}
    return root, code


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    record = {"workload": w.name, "seed": seed, "trace": int(trace)}
    if not trace:
        def spawn(argv):
            wall, _, code = run_child(argv, work / "setup.log")
            return wall, code

        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(setup(w, seed, work, spawn))
            digest = _digest(_inputs(w, work))
            if setups[1:] and digest != record["input_digest"]:
                raise SetupError("set-up is not deterministic for this seed")
            record["input_digest"] = digest
        record["setup_s"] = setups
        attempts = invoke_until(w, seed, work, seconds)
    else:
        sys.path.insert(0, str(SRC))
        tracer = Tracer()
        setup_roots = []

        def replay(argv):
            root, code = run_traced(tracer, argv, "setup")
            setup_roots.append(root)
            return root.duration, code

        setup(w, seed, work, replay)
        attempts = invoke_until(w, seed, work, seconds)
        startups = []
        for _ in range(STARTUP_REPEATS):
            wall, _, code = run_child(["--help"], work / "startup.log")
            startups.append(wall)
            if code != 0:
                raise SetupError(f"pcfi --help exited {code}")
        for path in w.outputs(work):
            path.unlink(missing_ok=True)
        root, code = run_traced(tracer, w.command(seed, work), "workload")
        attempts.append({"wall_s": root.duration, "peak_rss_mb": None,
                         "traced": True, **_outcome(w, work, code)})
    check = verify(w, seed, work, attempts)
    untraced = [a for a in attempts if not a.get("traced")]
    record.update(attempts=attempts, check=check,
                  provenance=provenance(w, seed, check["shape"]))
    wall_median = statistics.median(a["wall_s"] for a in untraced)
    if not trace:
        record["metrics"] = {
            "wall_s": (wall_median, "s"),
            "peak_rss_mb": (statistics.median(a["peak_rss_mb"] for a in untraced), "MB"),
            "rmse": (check["rmse"], "1"),
            "setup_s": (statistics.median(record["setup_s"]), "s"),
        }
    else:
        problems = trace_problems(tracer, root)
        check["problems"] += problems
        values = layer_metrics(tracer, root, setup_roots, wall_median,
                               statistics.median(startups))
        record["metrics"] = {k: (v, UNITS.get(k, "s")) for k, v in values.items()}
        record["share_of_wall_s"] = {k: v / wall_median for k, (v, u)
                                     in record["metrics"].items() if u == "s"}
        t0 = min(s.start for s in tracer.spans)
        record["spans"] = [[s.id, s.parent, s.thread, s.name, s.start - t0,
                            s.end - t0, s.cpu] for s in tracer.spans]
    record["wall_median_s"] = wall_median
    return record


def _print_report(record: dict) -> None:
    prov = record["provenance"]
    untraced = [a for a in record["attempts"] if not a.get("traced")]
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    print(f"# {prov['why']}")
    print(f"# wall_s is the median of n={len(untraced)} untraced invocations"
          + ("" if record["trace"] else
             f"; setup_s the median of n={len(record['setup_s'])} set-ups"))
    shares = record.get("share_of_wall_s", {})
    for name, (value, unit) in sorted(record["metrics"].items()):
        note = (f"  {shares[name]:6.1%} of wall_s" if name in shares
                else "  (computed)" if name in COMPUTED else "")
        print(f"{name:28s} {value!s:>24} {unit}{note}")
    failed = sum(a["failed"] for a in record["attempts"])
    print(f"{'failed_frac':28s} {failed / len(record['attempts']):>24} "
          f"1  ({failed} of {len(record['attempts'])} invocations)")
    for problem in record["check"]["problems"]:
        print(f"# check failed: {problem}")
    print("# provenance " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure untraced invocations for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pcfi" / "cli.py").is_file():
        print(f"bench: no pcfi sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still stops its child and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    w = WORKLOADS[args.workload]
    work = OUT / f"work-{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    w.data(work).mkdir(parents=True)
    try:
        record = measure(w, args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        log = work / "setup.log"
        tail = log.read_text().splitlines()[-5:] if log.exists() else []
        print("\n".join([f"bench: {exc}", *tail]), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    _print_report(record)
    failed = sum(a["failed"] for a in record["attempts"])
    print(json.dumps({
        "correct": failed == 0 and not record["check"]["problems"],
        "attempted": len(record["attempts"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
