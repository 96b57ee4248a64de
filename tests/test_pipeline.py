import dataclasses
import tracemalloc

import numpy as np
import pytest

from pcfi import (FeatureSet, ImputationConfig, ImputeOutcome, InputError, apply_mask,
                  build_graph, compute_spds, fp_baseline, impute, impute_stage1,
                  propagate_stage2, run_pipeline)
from pcfi import confidence, diffusion, pipeline
from pcfi.masking import make_mask

from _oracles import random_connected_edges


def _instance(lenient):
    """A 30-node tree with four channels; leniently, channel 2 has no
    observed entry, so it is flagged and left at zero."""
    rng = np.random.default_rng(11)
    n, f = 30, 4
    g = build_graph([(i, int(rng.integers(0, i))) for i in range(1, n)], n)
    known = rng.random((n, f)) < 0.5
    known[0] = True
    if lenient:
        known[:, 2] = False
    return g, apply_mask(rng.normal(size=(n, f)), known)


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("method", pipeline.METHODS)
def test_impute_returns_the_stage_outcome_bit_for_bit(method, lenient):
    """``impute`` hands on what the stage functions return: values,
    residuals and flagged channels, bit for bit."""
    g, fs = _instance(lenient)
    cfg = ImputationConfig(method=method, steps=20, lenient_no_source=lenient)
    spds = compute_spds(g, fs.known)
    got = impute(g, fs, cfg, spds=spds)
    assert type(got) is ImputeOutcome
    if method == "zero":
        want = (fs.values, None, [])
        assert got.values is not fs.values
    elif method == "fp":
        res = fp_baseline(g, fs, spds, steps=cfg.steps, lenient=lenient)
        want = (res.values, res.residuals, res.flagged_channels)
    else:
        res = impute_stage1(g, fs, spds, cfg.alpha, steps=cfg.steps, lenient=lenient)
        values = res.values
        if method == "pcfi":
            values = propagate_stage2(values, spds, cfg.alpha, cfg.beta)
        want = (values, res.residuals, res.flagged_channels)
    assert _same(got.values, want[0])
    assert _same(got.residuals, want[1])
    assert got.flagged_channels == want[2]
    if method in ("pcfi", "pcfi_stage1_only"):
        assert got.flagged_channels == ([2] if lenient else [])


def test_stage_functions_return_the_one_outcome_type():
    assert pipeline.ImputeOutcome is diffusion.ImputeOutcome is ImputeOutcome
    g, fs = _instance(False)
    spds = compute_spds(g, fs.known)
    stage1 = impute_stage1(g, fs, spds, 0.8, steps=5)
    assert type(stage1) is ImputeOutcome
    assert type(fp_baseline(g, fs, spds, steps=5)) is ImputeOutcome


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_impute_computes_the_field_at_most_once(monkeypatch, method):
    """``impute`` computes the distance field once for every method that
    reads it, none for ``zero``, and none when a field is handed in."""
    calls = []

    def counting_compute_spds(g, known):
        calls.append(known.shape)
        return real_compute_spds(g, known)

    real_compute_spds = pipeline.compute_spds
    monkeypatch.setattr(pipeline, "compute_spds", counting_compute_spds)
    g, fs = _instance(False)
    cfg = ImputationConfig(method=method, steps=5)
    for handed in (fs, [_instance(False)[1]]):  # a handed-over set is used up
        calls.clear()
        impute(g, handed, cfg)
        assert len(calls) == (method != "zero")
    calls.clear()
    impute(g, fs, cfg, spds=real_compute_spds(g, fs.known))
    assert calls == []


def test_pipeline_aggregates_are_the_per_seed_mean_and_std():
    """On a 10-node path, a 0.3 uniform mask leaves one distance bucket
    under some seeds, so their Spearman entry is None and is skipped."""
    rng = np.random.default_rng(0)
    n = 10
    g = build_graph([(i, i + 1) for i in range(n - 1)], n)
    methods = ("pcfi", "fp", "zero")
    rep = run_pipeline(g, rng.normal(size=(n, 2)), ImputationConfig(steps=20),
                       mask_kind="uniform", mask_rate=0.3, seeds=range(6),
                       methods=methods)
    spearman = [b["methods"]["pcfi"]["spearman_distance_cosine"]
                for b in rep["per_seed"]]
    assert None in spearman and any(x is not None for x in spearman)
    assert set(rep["aggregates"]) == set(methods)
    for m in methods:
        for key in ("rmse", "cosine_mean", "spearman_distance_cosine"):
            vals = [x for b in rep["per_seed"]
                    if (x := b["methods"][m][key]) is not None]
            assert rep["aggregates"][m][key] == {"mean": float(np.mean(vals)),
                                                 "std": float(np.std(vals))}


def test_pipeline_refuses_an_empty_method_list_before_masking(monkeypatch):
    def no_mask(*args):
        raise AssertionError("masked before the methods were checked")

    monkeypatch.setattr(pipeline, "make_mask", no_mask)
    for methods in ([], iter(())):
        with pytest.raises(InputError, match="at least one method"):
            run_pipeline(build_graph([[0, 1]], 2), np.ones((2, 1)), ImputationConfig(),
                         mask_kind="uniform", mask_rate=0.5, seeds=[0], methods=methods)


def test_pipeline_refuses_a_method_listed_twice_before_masking(monkeypatch):
    def no_mask(*args):
        raise AssertionError("masked before the methods were checked")

    monkeypatch.setattr(pipeline, "make_mask", no_mask)
    with pytest.raises(InputError, match="'fp' is listed more than once"):
        run_pipeline(build_graph([[0, 1]], 2), np.ones((2, 1)), ImputationConfig(),
                     mask_kind="uniform", mask_rate=0.5, seeds=[0],
                     methods=["fp", "zero", "fp"])


@pytest.mark.parametrize("seeds, message", [
    ([0, -1], "seed must be a non-negative integer, got -1"),
    ([0, 1, 0], "seed 0 is listed more than once"),
    ([], "at least one seed is required"),
], ids=["negative", "repeated", "none"])
def test_pipeline_refuses_a_negative_or_repeated_seed_before_masking(
        monkeypatch, seeds, message):
    def no_mask(*args):
        raise AssertionError("masked before the seeds were checked")

    monkeypatch.setattr(pipeline, "make_mask", no_mask)
    with pytest.raises(InputError, match=message):
        run_pipeline(build_graph([[0, 1]], 2), np.ones((2, 1)), ImputationConfig(),
                     mask_kind="uniform", mask_rate=0.5, seeds=seeds)


def test_config_refuses_an_unknown_method():
    with pytest.raises(InputError, match="unknown method 'nope'"):
        ImputationConfig(method="nope")


@pytest.mark.parametrize("method", ["pcfi", "fp", "zero"])
def test_config_refuses_a_negative_or_non_finite_beta(method):
    for beta in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(InputError, match="beta must be finite"):
            ImputationConfig(method=method, beta=beta)


def test_pipeline_reports_every_method_of_an_iterator():
    g = build_graph([(i, i + 1) for i in range(9)], 10)
    rep = run_pipeline(g, np.random.default_rng(0).normal(size=(10, 2)),
                       ImputationConfig(steps=5), mask_kind="uniform", mask_rate=0.3,
                       seeds=[0], methods=iter(("pcfi", "fp")))
    assert rep["config"]["methods"] == ["pcfi", "fp"]
    assert list(rep["aggregates"]) == list(rep["per_seed"][0]["methods"]) == ["pcfi", "fp"]


@pytest.mark.parametrize("collect_timings", [False, True])
def test_pipeline_writes_each_methods_run_facts(collect_timings):
    """A lenient run on a fragmented graph, not cut to its largest
    component, in either mode: each method's block holds its settings with
    the mode that was asked for, which ran, the channels its run flagged
    (every mask leaves some of the ten isolated nodes missing, so the pcfi
    methods and fp flag channels; zero flags none), its residuals with
    their maximum and the steps that made them (none for zero and the
    closed form, fp's included), when asked for its time, and no schema
    version of its own."""
    rng = np.random.default_rng(5)
    n, f = 30, 3
    g = build_graph(random_connected_edges(rng, 20), n)  # 20..29 isolated
    features = rng.normal(size=(n, f))
    for mode in ("iterative", "closed_form"):
        cfg = ImputationConfig(steps=10, mode=mode, lenient_no_source=True)
        rep = run_pipeline(g, features, cfg, mask_kind="structural", mask_rate=0.9,
                           seeds=[0, 1], methods=pipeline.METHODS,
                           collect_timings=collect_timings)
        for block in rep["per_seed"]:
            known = make_mask("structural", n, f, 0.9, block["seed"])
            for method, got in block["methods"].items():
                assert got["config"] == {"method": method, "alpha": 0.8, "beta": 1e-3,
                                         "steps": 10, "mode": mode,
                                         "lenient_no_source": True}
                outcome = impute(g, apply_mask(features, known),
                                 dataclasses.replace(cfg, method=method))
                assert got["flagged_channels"] == outcome.flagged_channels
                assert (outcome.flagged_channels != []) == (method != "zero")
                iterated = method != "zero" and mode == "iterative"
                assert (outcome.residuals is not None) == iterated
                if iterated:
                    assert got["steps_run"] == 10
                    assert _same(np.array(got["residuals"]), outcome.residuals)
                    assert got["max_residual"] == outcome.residuals.max()
                else:
                    assert got["steps_run"] == 0
                    assert got["residuals"] is None and got["max_residual"] is None
                assert "schema_version" not in got
                if collect_timings:
                    assert list(got["timings"]) == ["impute_seconds"]
                    assert got["timings"]["impute_seconds"] >= 0.0
                else:
                    assert got["timings"] is None


def test_pipeline_records_the_mode_each_method_ran():
    """Under ``mode="closed_form"`` the pcfi methods and ``fp`` all solve:
    each method's ``config`` records the mode that was asked for, as the
    report's ``config`` does."""
    rng = np.random.default_rng(6)
    g = build_graph(random_connected_edges(rng, 30), 30)
    cfg = ImputationConfig(steps=10, mode="closed_form")
    rep = run_pipeline(g, rng.normal(size=(30, 3)), cfg, mask_kind="uniform",
                       mask_rate=0.5, seeds=[0], methods=pipeline.METHODS)
    assert rep["config"]["mode"] == "closed_form"
    ran = {m: block["config"]["mode"]
           for m, block in rep["per_seed"][0]["methods"].items()}
    assert ran == dict.fromkeys(pipeline.METHODS, "closed_form")


@pytest.mark.parametrize("mode, solved", [("iterative", 0), ("closed_form", 1)])
def test_pipeline_warns_once_that_fp_iterates(caplog, mode, solved):
    """``fp`` once iterated under ``mode="closed_form"`` and warned so once
    per pipeline. It now solves its closed form, so a pipeline over three
    seeds logs no warning in either mode; each seed's ``fp`` block ran 10
    steps when iterative and none when solved, and scores another RMSE
    than the other mode."""
    rng = np.random.default_rng(7)
    g = build_graph(random_connected_edges(rng, 30), 30)
    features = rng.normal(size=(30, 3))
    caplog.set_level("WARNING")
    reps = {m: run_pipeline(g, features, ImputationConfig(steps=10, mode=m),
                            mask_kind="uniform", mask_rate=0.5, seeds=[0, 1, 2],
                            methods=["fp", "zero"])
            for m in (mode, "closed_form" if mode == "iterative" else "iterative")}
    assert caplog.records == []
    other = next(m for m in reps if m != mode)
    for got, alt in zip(reps[mode]["per_seed"], reps[other]["per_seed"]):
        assert got["methods"]["fp"]["config"]["mode"] == mode
        assert got["methods"]["fp"]["steps_run"] == 10 * (1 - solved)
        assert got["methods"]["fp"]["rmse"] != alt["methods"]["fp"]["rmse"]


def _handover_instance(case):
    """Graph, values, mask and settings that send stage 1 down one path:
    fused channels in three column blocks; deep channels on a 400-node
    path beside shallow fused ones, which run fused with their hops
    clipped at K + 1 at alpha 0.1 ("clipped") and take the explicit
    operator at 1e-13, where 21 ln(1e13) > MAX_DECAY ("deep"); the closed
    form; and a lenient run on two components, with one channel
    unreachable in the smaller one and one with no observed entry."""
    rng = np.random.default_rng(31)
    if case in ("clipped", "deep"):
        n, f = 400, 12
        g = build_graph([(i, i + 1) for i in range(n - 1)], n)
        known = np.zeros((n, f), dtype=bool)
        for d in range(8):
            known[(d % 4) * 3, d] = True  # four patterns, 390+ hops deep
        known[::10, 8:] = True
        return g, rng.normal(size=(n, f)), known, {"alpha": 0.1 if case == "clipped"
                                                   else 1e-13}
    n, f = 60, 70 if case == "fused" else 40
    g = build_graph(random_connected_edges(rng, n), n)
    known = rng.random((n, f)) < 0.5
    known[0] = True
    if case == "closed_form":
        return g, rng.normal(size=(n, f)), known, {"mode": "closed_form"}
    if case == "lenient":
        edges = np.concatenate([random_connected_edges(rng, 40),
                                40 + random_connected_edges(rng, 20)])
        g = build_graph(edges, n)
        known[40:, 3] = False
        known[:, 5] = False
        return g, rng.normal(size=(n, f)), known, {"lenient_no_source": True}
    return g, rng.normal(size=(n, f)), known, {}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", ["fused", "clipped", "deep", "closed_form", "lenient"])
@pytest.mark.parametrize("method", ["pcfi", "pcfi_stage1_only"])
def test_handed_over_feature_set_gives_the_bits_of_a_copy(method, case, threads,
                                                          operator_builds):
    """Handed over in a list, the masked values are overwritten by stage 1
    and then by stage 2, and the outcome holds that same array, with the
    bits, residuals and flags of a run on a copy; the mask is kept."""
    g, values, known, settings = _handover_instance(case)
    cfg = ImputationConfig(method=method, steps=20, threads=threads, **settings)
    spds = compute_spds(g, known)
    copied = impute(g, apply_mask(values, known), cfg, spds=spds)
    assert bool(operator_builds) == (case in ("deep", "closed_form"))
    fs = apply_mask(values, known)
    handed = impute(g, [fs], cfg, spds=spds)
    assert handed.values is fs.values
    assert _same(handed.values, copied.values)
    assert _same(handed.residuals, copied.residuals)
    assert handed.flagged_channels == copied.flagged_channels
    assert handed.flagged_channels == ([3, 5] if case == "lenient" else [])
    assert fs.known.tobytes() == known.tobytes()


def test_zero_returns_the_handed_over_values():
    """Handed over, the masked values are the ``zero`` outcome itself, with
    no copy; passed directly, they are copied (see above)."""
    g, values, known, _ = _handover_instance("fused")
    fs = apply_mask(values, known)
    handed = impute(g, [fs], ImputationConfig(method="zero"))
    assert handed.values is fs.values
    assert _same(handed.values, apply_mask(values, known).values)


@pytest.mark.parametrize("handed_over", [False, True])
@pytest.mark.parametrize("method", pipeline.METHODS)
def test_impute_hands_back_writable_values(method, handed_over):
    """Every method returns writable values, passed the set directly or
    handed it over; handed over, the pcfi methods and ``zero`` return the
    set's own array, unlocked."""
    g, values, known, _ = _handover_instance("fused")
    fs = apply_mask(values, known)
    got = impute(g, [fs] if handed_over else fs,
                 ImputationConfig(method=method, steps=20)).values
    assert got.flags.writeable
    assert (got is fs.values) == (handed_over and method != "fp")


def test_zero_copies_handed_over_read_only_memory():
    """Handed a set over memory its array may not make writable (here a
    bytes object), ``zero`` returns a writable copy with the same bits."""
    g, values, known, _ = _handover_instance("fused")
    masked = np.where(known, values, 0.0)
    fs = FeatureSet(np.frombuffer(masked.tobytes()).reshape(masked.shape), known)
    got = impute(g, [fs], ImputationConfig(method="zero")).values
    assert got is not fs.values and got.flags.writeable
    assert got.tobytes() == masked.tobytes()


@pytest.mark.parametrize("steps", [1, 20])
@pytest.mark.parametrize("case", ["fused", "deep", "closed_form"])
def test_fp_reads_a_handed_over_set_without_writing_it(case, steps):
    """Handed over, ``fp`` empties the list and gives the bits of a run on
    the set passed directly; the masked values are never written, also
    when the one step's change is taken against them, or in the closed form."""
    g, values, known, settings = _handover_instance(case)
    cfg = ImputationConfig(method="fp", steps=steps, **settings)
    fs = apply_mask(values, known)
    bits = fs.values.tobytes()
    direct = impute(g, fs, cfg)
    handed = [fs]
    outcome = impute(g, handed, cfg)
    assert handed == []
    assert fs.values.tobytes() == bits
    assert _same(outcome.values, direct.values)
    assert _same(outcome.residuals, direct.residuals)


def test_fp_lets_a_handed_over_set_go_after_its_first_step():
    """After its first step a handed-over ``fp`` run holds its last two
    iterates and no reference to its input, so it allocates little more
    than one array of the matrix's size; keeping the input costs two."""
    rng = np.random.default_rng(13)
    n, f = 3000, 64
    g = build_graph(random_connected_edges(rng, n), n)
    known = rng.random((n, f)) < 0.1
    tracemalloc.start()  # before the input is made, so that its release counts
    try:
        handed = [apply_mask(rng.normal(size=(n, f)), known)]
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        outcome = impute(g, handed, ImputationConfig(method="fp", steps=5))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert outcome.values.shape == (n, f)
    assert peak < 1.8 * n * f * 8, peak / (n * f * 8)


def test_pipeline_frees_a_seed_before_it_masks_the_next(monkeypatch):
    """When the second seed's distance field is computed, the first seed's
    mask, masked set, field and outcomes are gone: no more memory is in
    use than when the first seed's was."""
    rng = np.random.default_rng(14)
    n, f = 2000, 64
    g = build_graph(random_connected_edges(rng, n), n)
    features = rng.normal(size=(n, f))
    in_use = []

    def recording_compute_spds(g, known):
        in_use.append(tracemalloc.get_traced_memory()[0])
        return real_compute_spds(g, known)

    real_compute_spds = pipeline.compute_spds
    monkeypatch.setattr(pipeline, "compute_spds", recording_compute_spds)
    tracemalloc.start()
    try:
        run_pipeline(g, features, ImputationConfig(steps=5), mask_kind="uniform",
                     mask_rate=0.5, seeds=[0, 1], methods=("pcfi", "fp", "zero"))
    finally:
        tracemalloc.stop()
    assert len(in_use) == 2
    assert in_use[1] - in_use[0] < 0.1 * n * f * 8, (in_use[1] - in_use[0]) / (n * f * 8)


def test_handed_over_read_only_memory_is_copied_not_written():
    """A set over memory its array may not make writable (here a bytes
    object) is worked on as a copy, with the same bits."""
    g, values, known, _ = _handover_instance("fused")
    masked = np.where(known, values, 0.0)
    fs = FeatureSet(np.frombuffer(masked.tobytes()).reshape(masked.shape), known)
    cfg = ImputationConfig(steps=20)
    handed = impute(g, [fs], cfg)
    assert handed.values is not fs.values
    assert fs.values.tobytes() == masked.tobytes()
    assert _same(handed.values, impute(g, apply_mask(values, known), cfg).values)


def test_pipeline_keeps_its_truth_and_masks_a_copy_per_method(monkeypatch):
    """``run_pipeline`` hands every method its own masked copy, made from
    the seed's one mask, so no method reads what another wrote, and the
    truth it scores against is never written."""
    masked = []

    def recording_apply_mask(values, known):
        fs = real_apply_mask(values, known)
        masked.append((fs.values.tobytes(), fs.known.tobytes()))
        return fs

    real_apply_mask = pipeline.apply_mask
    monkeypatch.setattr(pipeline, "apply_mask", recording_apply_mask)
    g, values, _, _ = _handover_instance("fused")
    truth_bits = values.tobytes()
    methods = ("pcfi", "pcfi_stage1_only", "fp", "zero")
    run_pipeline(g, values, ImputationConfig(steps=20), mask_kind="uniform",
                 mask_rate=0.5, seeds=[0, 1], methods=methods)
    assert values.tobytes() == truth_bits
    assert len(masked) == 2 * len(methods)
    for seed, first in zip([0, 1], masked[::len(methods)]):
        known = make_mask("uniform", *values.shape, 0.5, seed)
        assert first == (np.where(known, values, 0.0).tobytes(), known.tobytes())
        assert masked[:len(methods)] == [first] * len(methods)
        del masked[:len(methods)]


@pytest.mark.parametrize("collect_timings", [False, True])
def test_pipeline_holds_fewer_than_four_matrices(monkeypatch, collect_timings):
    """Under a structural mask, ``pcfi``, ``fp`` and ``zero`` each work in
    their own handed-over copy: stage 1 writes into it with no second copy,
    so with stage 2 in small row blocks the run never holds four arrays of
    the matrix's size beyond its truth (the scoring buffer and the result
    are two). The truth keeps its bits, and timings are still reported."""
    monkeypatch.setattr(confidence, "ROW_BLOCK_VALUES", 1 << 14)
    rng = np.random.default_rng(15)
    n, f = 3000, 2 * diffusion.BLOCK_COLUMNS
    g = build_graph(random_connected_edges(rng, n), n)
    features = rng.normal(size=(n, f))
    truth_bits = features.tobytes()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = run_pipeline(g, features, ImputationConfig(steps=5, threads=1),
                           mask_kind="structural", mask_rate=0.9, seeds=[0, 1],
                           methods=("pcfi", "fp", "zero"),
                           collect_timings=collect_timings)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * f * 8, peak / (n * f * 8)
    assert features.tobytes() == truth_bits
    for block in rep["per_seed"]:
        for got in block["methods"].values():
            if collect_timings:
                assert got["timings"]["impute_seconds"] >= 0.0
            else:
                assert got["timings"] is None


def test_handed_over_impute_allocates_less_than_one_matrix(monkeypatch):
    """With the distance field given, a handed-over ``pcfi`` run allocates
    the arrays of one 32-column block in stage 1 (a sixteenth of the
    matrix each) and R and a few row blocks in stage 2, never a second
    array of the matrix's size."""
    monkeypatch.setattr(confidence, "ROW_BLOCK_VALUES", 1 << 14)
    rng = np.random.default_rng(12)
    n, f = 2000, 512
    g = build_graph(random_connected_edges(rng, n), n)
    known = rng.random((n, f)) < 0.5
    handed = [apply_mask(rng.normal(size=(n, f)), known)]
    spds = compute_spds(g, known)
    cfg = ImputationConfig(method="pcfi", steps=5, threads=1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        outcome = impute(g, handed, cfg, spds=spds)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert outcome.values.shape == (n, f)
    assert peak < n * f * 8, peak
