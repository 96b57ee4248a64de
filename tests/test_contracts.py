"""Each input contract has one owner, and every entry point that takes the
input refuses it with the owner's message: the row count against the
graph (``Graph.check_rows``), the distance field against the mask
(``SpdsMatrix.check_mask``), the mask shape (``masking.check_mask_shape``),
the mask kind, rate and seed (``masking.check_mask_settings``), the
diffusion schedule (``diffusion.check_schedule``) and the thread count
(``ImputationConfig``). The command line refuses settings, alternative
inputs given together and two ``impute`` outputs aimed at one destination
with exit code 2 before it reads any file, and an output whose directory
does not exist with exit code 3; it writes no output."""

import dataclasses
import inspect
import json
import os
import re

import numpy as np
import pytest

from pcfi import (FeatureSet, ImputationConfig, InputError, SpdsMatrix, apply_mask,
                  build_graph, compute_spds, diffuse_channel, evaluate, fp_baseline,
                  impute, impute_stage1, run_pipeline)
from pcfi import io as pio
from pcfi import masking
from pcfi.cli import build_parser, main
from pcfi.diffusion import MODES
from pcfi.masking import MASK_KINDS, make_mask
from pcfi.pipeline import METHODS
from pcfi.synth import SynthSpec


def _path(n=6):
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def _masked(n=6, f=2):
    rng = np.random.default_rng(4)
    truth = rng.normal(size=(n, f))
    known = np.zeros((n, f), dtype=bool)
    known[[0, 3], 0] = True
    known[[1, 5], 1] = True
    return truth, known


def _write_inputs(tmp_path, n=6, f=2):
    truth, known = _masked(n, f)
    paths = {name: tmp_path / f"{name}.csv" for name in ("truth", "mask")}
    pio.write_matrix(paths["truth"], truth)
    pio.write_mask(paths["mask"], known)
    paths["edges"] = tmp_path / "edges.tsv"
    pio.write_edges(paths["edges"], np.array([(i, i + 1) for i in range(n - 1)]))
    return paths


def _refused(caplog, argv, message, out):
    """``pcfi argv`` exits 2, logs ``message`` and leaves ``out`` unwritten."""
    caplog.clear()
    assert main(["--quiet", *argv]) == 2
    assert message in caplog.text
    assert not out.exists()


# -- the distance field against the mask ------------------------------------

FIELD_CASES = {
    # a field for three channels, the mask has two
    "shape": (lambda d: np.zeros((d.shape[0], 3), dtype=d.dtype),
              "distance field shape (6, 3) does not match feature shape (6, 2)"),
    # a zero missing at an observed entry
    "observed-not-zero": (lambda d: np.where(np.arange(d.size).reshape(d.shape) == 0,
                                             1, d),
                          "distance field inconsistent with mask: distance 0 must "
                          "hold exactly at observed entries"),
    # a zero at a missing entry
    "missing-at-zero": (lambda d: np.where(np.arange(d.size).reshape(d.shape) == 2,
                                           0, d),
                        "distance field inconsistent with mask: distance 0 must "
                        "hold exactly at observed entries"),
}


def _field(case):
    truth, known = _masked()
    good = compute_spds(_path(), known).distances
    assert known[0, 0] and not known[1, 0]  # flat entries 0 and 2
    return truth, known, SpdsMatrix(FIELD_CASES[case][0](good)), FIELD_CASES[case][1]


@pytest.mark.parametrize("case", FIELD_CASES)
@pytest.mark.parametrize("entry", ["check_mask", "impute_stage1", "fp_baseline",
                                   "evaluate", "cli eval --spds"])
def test_a_field_that_disagrees_with_the_mask_is_refused_everywhere(
        tmp_path, caplog, entry, case):
    truth, known, spds, message = _field(case)
    if entry == "cli eval --spds":
        paths = _write_inputs(tmp_path)
        pio.write_spds(tmp_path / "spds.csv", spds.distances)
        report = tmp_path / "report.json"
        _refused(caplog,
                 ["eval", "--truth", str(paths["truth"]), "--imputed",
                  str(paths["truth"]), "--mask", str(paths["mask"]), "--spds",
                  str(tmp_path / "spds.csv"), "--report", str(report)],
                 message, report)
        return
    with pytest.raises(InputError, match=re.escape(message)):
        if entry == "check_mask":
            spds.check_mask(known)
        elif entry == "impute_stage1":
            impute_stage1(_path(), apply_mask(truth, known), spds, 0.8)
        elif entry == "fp_baseline":
            fp_baseline(_path(), apply_mask(truth, known), spds)
        else:
            evaluate(truth, truth, known, spds)


def test_cli_eval_refuses_shapes_before_the_field(tmp_path, caplog):
    """With both the imputation's shape and the field wrong, the shapes are
    named first."""
    paths = _write_inputs(tmp_path)
    pio.write_matrix(tmp_path / "short.csv", _masked()[0][:5])
    pio.write_spds(tmp_path / "spds.csv", np.ones((6, 2), dtype=np.int64))
    report = tmp_path / "report.json"
    _refused(caplog,
             ["eval", "--truth", str(paths["truth"]), "--imputed",
              str(tmp_path / "short.csv"), "--mask", str(paths["mask"]),
              "--spds", str(tmp_path / "spds.csv"), "--report", str(report)],
             "shape mismatch: truth (6, 2), imputed (5, 2), mask (6, 2)", report)


# -- the mask shape ---------------------------------------------------------

@pytest.mark.parametrize("entry", ["FeatureSet", "apply_mask", "pcfi impute"])
def test_a_mask_of_another_shape_is_refused_everywhere(tmp_path, caplog, entry):
    message = "mask shape (6, 3) does not match feature shape (6, 2)"
    values = np.zeros((6, 2))
    known = np.ones((6, 3), dtype=bool)
    if entry == "pcfi impute":
        paths = _write_inputs(tmp_path)
        pio.write_mask(tmp_path / "wide.csv", known)
        out = tmp_path / "out.csv"
        _refused(caplog,
                 ["impute", "--edges", str(paths["edges"]), "--features",
                  str(paths["truth"]), "--mask", str(tmp_path / "wide.csv"),
                  "--out", str(out)], message, out)
        return
    with pytest.raises(InputError, match=re.escape(message)):
        (FeatureSet if entry == "FeatureSet" else apply_mask)(values, known)


# -- the mask kinds ---------------------------------------------------------

@pytest.mark.parametrize("entry", ["make_mask", "run_pipeline"])
def test_an_unknown_mask_kind_is_refused_everywhere(entry):
    with pytest.raises(InputError, match="unknown mask kind 'diagonal'"):
        if entry == "make_mask":
            make_mask("diagonal", 4, 2, 0.5, 0)
        else:
            run_pipeline(_path(), np.ones((6, 1)), ImputationConfig(),
                         mask_kind="diagonal", mask_rate=0.5, seeds=[0])


@pytest.mark.parametrize("kind", MASK_KINDS)
def test_make_mask_calls_the_kinds_through_the_module(monkeypatch, kind):
    """A rebinding of ``structural_mask`` or ``uniform_mask`` in the module
    is seen by ``make_mask``, as a tracer that wraps them needs."""
    calls = []
    real = getattr(masking, f"{kind}_mask")

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(masking, f"{kind}_mask", recording)
    assert np.array_equal(make_mask(kind, 7, 3, 0.5, 2), real(7, 3, 0.5, 2))
    assert calls == [(7, 3, 0.5, 2)]


def test_command_line_choices_come_from_the_owners():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices
    choices = {(name, a.dest): a.choices for name, p in sub.items()
               for a in p._actions if a.choices is not None}
    assert choices[("mask", "type")] == MASK_KINDS
    assert choices[("pipeline", "mask_type")] == MASK_KINDS
    assert choices[("impute", "mode")] == choices[("pipeline", "mode")] == MODES
    defaults = {(name, a.dest): a.default for name, p in sub.items() for a in p._actions}
    flags = {"intra_edge_prob": "intra", "inter_edge_prob": "inter",
             "largest_component": None}  # --keep-all-components, a switch
    for field in dataclasses.fields(SynthSpec):
        if (flag := flags.get(field.name, field.name)) is not None:
            assert defaults[("synth", flag)] == field.default, field.name
    methods = inspect.signature(run_pipeline).parameters["methods"].default
    assert defaults[("pipeline", "methods")].split(",") == list(methods)


# -- the diffusion schedule and the row count --------------------------------

BAD_MODE = ("magic", 100, "unknown diffusion mode 'magic'")
NO_STEPS = ("iterative", 0, "steps must be >= 1, got 0")


# the pinned loop takes no mode: it always iterates; zero runs no
# schedule, but its mode must be one
@pytest.mark.parametrize("entry, mode, steps, message", [
    ("ImputationConfig", *BAD_MODE), ("ImputationConfig", *NO_STEPS),
    ("impute_stage1", *BAD_MODE), ("impute_stage1", *NO_STEPS),
    ("diffuse_channel", *NO_STEPS),
    ("ImputationConfig-fp", *BAD_MODE), ("ImputationConfig-zero", *BAD_MODE),
])
def test_a_bad_schedule_is_refused_everywhere(entry, mode, steps, message):
    truth, known = _masked()
    fs = apply_mask(truth, known)
    with pytest.raises(InputError, match=re.escape(message)):
        if entry == "ImputationConfig":
            ImputationConfig(mode=mode, steps=steps)
        elif entry.startswith("ImputationConfig-"):
            ImputationConfig(method=entry.split("-")[1], mode=mode, steps=steps)
        elif entry == "impute_stage1":
            impute_stage1(_path(), fs, compute_spds(_path(), known), 0.8,
                          mode=mode, steps=steps)
        else:
            diffuse_channel(_path().self_loop_adjacency(), fs.values, known, steps)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("steps", [0, -3])
def test_zero_takes_any_steps(tmp_path, mode, steps):
    """``zero`` runs no schedule, so no step count is refused for it, in
    the library or on the command line; its side-car runs no step."""
    truth, known = _masked()
    cfg = ImputationConfig(method="zero", mode=mode, steps=steps)
    assert impute(_path(), apply_mask(truth, known), cfg).residuals is None
    paths = _write_inputs(tmp_path)
    out = tmp_path / "zero.csv"
    assert main(["--quiet", "impute", "--edges", str(paths["edges"]), "--features",
                 str(paths["truth"]), "--mask", str(paths["mask"]), "--method", "zero",
                 "--mode", mode, "--k", str(steps), "--out", str(out)]) == 0
    masked = np.where(known, pio.load_matrix(paths["truth"]), 0.0)
    assert pio.load_matrix(out).tobytes() == masked.tobytes()
    assert json.loads((tmp_path / "zero.csv.json").read_text())["steps_run"] == 0


@pytest.mark.parametrize("entry", ["library", "impute", "pipeline"])
@pytest.mark.parametrize("method", ["pcfi", "fp"])
def test_a_closed_form_takes_any_steps(tmp_path, method, entry):
    """The closed form runs no schedule, for ``fp`` as for ``pcfi``: a step
    count of 0 is not refused, in the library or on the command line,
    and the result is the one of 100 steps, with no step run."""
    truth, known = _masked()
    paths = _write_inputs(tmp_path)

    def run(steps):
        if entry == "library":
            cfg = ImputationConfig(method=method, mode="closed_form", steps=steps)
            outcome = impute(_path(), apply_mask(truth, known), cfg)
            assert outcome.residuals is None
            return outcome.values.tobytes()
        out = tmp_path / f"{steps}.out"
        common = ["--edges", str(paths["edges"]), "--features", str(paths["truth"]),
                  "--mode", "closed_form", "--k", str(steps), "--out", str(out)]
        if entry == "impute":
            assert main(["--quiet", "impute", *common, "--mask", str(paths["mask"]),
                         "--method", method]) == 0
            assert json.loads(out.with_name(out.name + ".json").read_text())["steps_run"] == 0
            return out.read_bytes()
        assert main(["--quiet", "pipeline", *common, "--no-lcc", "--mask-type", "uniform",
                     "--rate", "0.5", "--seeds", "0", "--methods", method]) == 0
        block = json.loads(out.read_text())["per_seed"][0]["methods"][method]
        assert block.pop("config")["steps"] == steps and block["steps_run"] == 0
        return block

    assert run(0) == run(100)


@pytest.mark.parametrize("entry", ["impute_stage1", "fp_baseline", "compute_spds",
                                   "run_pipeline", *(f"impute-{m}" for m in METHODS),
                                   "impute-zero-handed-over"])
def test_features_and_graph_of_different_sizes_are_refused_everywhere(entry):
    truth, known = _masked()
    fs = apply_mask(truth, known)
    g = _path(7)
    with pytest.raises(InputError, match=re.escape(
            "matrix shape (6, 2) does not match graph with 7 nodes")):
        if entry == "fp_baseline":
            fp_baseline(g, fs, compute_spds(_path(), known))
        elif entry == "impute_stage1":
            impute_stage1(g, fs, compute_spds(_path(), known), 0.8)
        elif entry == "compute_spds":
            compute_spds(g, known)
        elif entry == "run_pipeline":
            run_pipeline(g, truth, ImputationConfig(), mask_kind="uniform",
                         mask_rate=0.5, seeds=[0])
        else:
            method = entry.split("-")[1]
            handed_over = entry.endswith("handed-over")
            impute(g, [fs] if handed_over else fs, ImputationConfig(method=method),
                   spds=compute_spds(_path(), known))


# -- the thread count --------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_config_refuses_a_bad_thread_count_for_every_method(monkeypatch, method):
    with pytest.raises(InputError, match=re.escape("thread count must be >= 0, got -1")):
        ImputationConfig(method=method, threads=-1)
    monkeypatch.setenv("PCFI_THREADS", "abc")
    with pytest.raises(InputError,
                       match=re.escape("PCFI_THREADS must be an integer, got 'abc'")):
        ImputationConfig(method=method)
    # an explicit count is not read from the environment
    assert ImputationConfig(method=method, threads=2).threads == 2


@pytest.mark.parametrize("source", ["--threads -1", "PCFI_THREADS=abc"])
@pytest.mark.parametrize("method", METHODS)
def test_cli_impute_refuses_a_bad_thread_count_for_every_method(
        tmp_path, caplog, monkeypatch, method, source):
    paths = _write_inputs(tmp_path)
    argv = ["impute", "--edges", str(paths["edges"]), "--features", str(paths["truth"]),
            "--mask", str(paths["mask"]), "--method", method]
    if source == "--threads -1":
        argv += ["--threads", "-1"]
        message = "thread count must be >= 0, got -1"
    else:
        monkeypatch.setenv("PCFI_THREADS", "abc")
        message = "PCFI_THREADS must be an integer, got 'abc'"
    out = tmp_path / "out.csv"
    _refused(caplog, argv + ["--out", str(out)], message, out)
    assert not (tmp_path / "out.csv.json").exists()


def test_cli_pipeline_refuses_a_bad_thread_count_for_methods_without_a_pool(
        tmp_path, caplog):
    paths = _write_inputs(tmp_path)
    out = tmp_path / "report.json"
    _refused(caplog,
             ["pipeline", "--edges", str(paths["edges"]), "--features",
              str(paths["truth"]), "--mask-type", "uniform", "--rate", "0.5",
              "--methods", "zero,fp", "--threads", "-2", "--out", str(out)],
             "thread count must be >= 0, got -2", out)


# -- settings before files ---------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["impute", "--edges", "nope.tsv", "--features", "nope.csv", "--mask",
      "nope.csv", "--alpha", "2"], "alpha must lie in (0, 1), got 2.0"),
    (["impute", "--edges", "nope.tsv", "--features", "nope.csv", "--mask",
      "nope.csv", "--method", "zero", "--threads", "-1"],
     "thread count must be >= 0, got -1"),
    (["pipeline", "--dataset", "nope", "--mask-type", "uniform", "--rate", "0.5",
      "--seeds", "0,x"], "--seeds must be a comma-separated list of integers"),
    (["pipeline", "--dataset", "nope", "--mask-type", "uniform", "--rate", "0.5",
      "--k", "0"], "steps must be >= 1, got 0"),
    (["pipeline", "--dataset", "nope", "--mask-type", "uniform", "--rate", "0.5",
      "--methods", "pcfi", "--alpha", "2"], "alpha must lie in (0, 1), got 2.0"),
    (["pipeline", "--dataset", "nope", "--mask-type", "uniform", "--rate", "0.5",
      "--seeds", "0,0"], "seed 0 is listed more than once"),
    (["pipeline", "--dataset", "nope", "--mask-type", "uniform", "--rate", "0.5",
      "--methods", "pcfi,pcfi"], "method 'pcfi' is listed more than once"),
    (["pipeline", "--dataset", "nope", "--mask-type", "uniform", "--rate", "2"],
     "mask rate must lie in (0, 1), got 2.0"),
    (["mask", "--type", "uniform", "--rate", "2", "--features-file", "nope.csv"],
     "mask rate must lie in (0, 1), got 2.0"),
    (["mask", "--type", "uniform", "--rate", "0.5", "--seed", "-1",
      "--features-file", "nope.csv"], "seed must be a non-negative integer, got -1"),
], ids=["impute-alpha", "impute-threads", "pipeline-seeds", "pipeline-steps",
        "pipeline-alpha", "pipeline-repeated-seed", "pipeline-repeated-method",
        "pipeline-rate", "mask-rate", "mask-seed"])
def test_cli_refuses_settings_before_reading_a_file(tmp_path, caplog, monkeypatch,
                                                    argv, message):
    monkeypatch.chdir(tmp_path)
    _refused(caplog, argv + ["--out", "out"], message, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []  # no side-car either


@pytest.mark.parametrize("argv, out, message", [
    (["eval", "--truth", "nope.csv", "--imputed", "nope.csv", "--mask", "nope.csv",
      "--spds", "nope.csv", "--edges", "nope.tsv"], "--report",
     "--spds and --edges are alternative inputs"),
    (["mask", "--type", "uniform", "--rate", "0.5", "--features-file", "nope.csv",
      "--num-nodes", "5", "--num-channels", "2"], "--out",
     "--features-file and --num-nodes are alternative inputs"),
    (["mask", "--type", "uniform", "--rate", "0.5", "--features-file", "nope.csv",
      "--num-channels", "2"], "--out",
     "--features-file and --num-channels are alternative inputs"),
    (["pipeline", "--dataset", "nope", "--edges", "nope.tsv", "--features",
      "nope.csv", "--mask-type", "uniform", "--rate", "0.5"], "--out",
     "--dataset and --edges are alternative inputs"),
], ids=["eval", "mask", "mask-channels", "pipeline"])
def test_cli_refuses_alternative_inputs_given_together(tmp_path, caplog, monkeypatch,
                                                       argv, out, message):
    """One of the two would be ignored; the refusal comes before any file
    is read (the files do not exist, so a read would exit 3)."""
    monkeypatch.chdir(tmp_path)
    _refused(caplog, argv + [out, "out"], message, tmp_path / "out")


_IMPUTE = ["impute", "--edges", "nope.tsv", "--features", "nope.csv", "--mask", "nope.csv"]


@pytest.mark.parametrize("outputs, message", [
    (["--out", "x.csv", "--spds-out", "x.csv"], "--out and --spds-out both write to x.csv"),
    (["--out", "x.csv", "--spds-out", "./sub/../x.csv"],
     "--out and --spds-out both write to ./sub/../x.csv"),
    (["--out", "y.csv", "--spds-out", "y.csv.json"],
     "--spds-out and the default --report both write to y.csv.json"),
    (["--out", "x.csv", "--report", "x.csv"], "--out and --report both write to x.csv"),
    (["--out", "x.csv", "--spds-out", "s.csv", "--report", "s.csv"],
     "--spds-out and --report both write to s.csv"),
    (["--out", "-", "--spds-out", "-"], "--out and --spds-out both write to -"),
    (["--out", "-", "--report", "-"], "--out and --report both write to -"),
    (["--out", "-", "--spds-out", "-", "--report", "-"],
     "--out and --spds-out both write to -"),
], ids=["out-spds", "out-spds-resolved", "spds-default-sidecar", "out-report",
        "spds-report", "stdout-spds", "stdout-report", "stdout-all"])
def test_cli_impute_refuses_two_outputs_for_one_destination(tmp_path, caplog, capsys,
                                                            monkeypatch, outputs,
                                                            message):
    """The later output would replace the earlier, or run into it on
    stdout; the refusal comes before any file is read (the inputs do not
    exist, so a read would exit 3)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    caplog.clear()
    assert main(["--quiet", *_IMPUTE, *outputs]) == 2
    assert message in caplog.text
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


_INPUTS = ["--edges", "edges.tsv", "--features", "truth.csv"]


@pytest.mark.parametrize("argv, flag", [
    (["impute", *_INPUTS, "--mask", "mask.csv", "--out", "ok.csv",
      "--spds-out", "missing/s.csv"], "--spds-out"),
    (["impute", *_INPUTS, "--mask", "mask.csv", "--out", "ok.csv",
      "--spds-out", "missing/../s.csv"], "--spds-out"),
    (["impute", *_INPUTS, "--mask", "mask.csv", "--out", "ok.csv",
      "--report", "missing/r.json"], "--report"),
    (["impute", *_INPUTS, "--mask", "mask.csv", "--out", "missing/o.csv"], "--out"),
    (["mask", "--type", "uniform", "--rate", "0.5", "--features-file", "truth.csv",
      "--out", "missing/m.csv"], "--out"),
    (["eval", "--truth", "truth.csv", "--imputed", "truth.csv", "--mask", "mask.csv",
      "--edges", "edges.tsv", "--report", "missing/r.json"], "--report"),
    (["pipeline", *_INPUTS, "--mask-type", "uniform", "--rate", "0.5",
      "--out", "missing/r.json"], "--out"),
], ids=["impute-spds", "impute-spds-dotdot", "impute-report", "impute-out", "mask", "eval", "pipeline"])
def test_cli_refuses_an_output_in_a_missing_directory_before_any_work(
        tmp_path, caplog, monkeypatch, argv, flag):
    """Exit 3 before any input is read, naming the flag, so that no run
    writes some outputs and then fails on the rest."""
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    written, read = sorted(tmp_path.iterdir()), []
    for name in ("load_matrix", "load_matrix_shape", "load_mask", "load_edges"):
        def recorded(*args, real=getattr(pio, name), **kwargs):
            read.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(pio, name, recorded)
    assert main(["--quiet", *argv]) == 3
    path = argv[argv.index(flag) + 1]
    assert f"{flag} {path}: no directory {os.path.dirname(path)}" in caplog.text
    assert read == []
    assert sorted(tmp_path.iterdir()) == written  # ok.csv is not written
