import numpy as np
import pytest

from pcfi import (ImputationConfig, ImputeOutcome, InputError, apply_mask, build_graph,
                  compute_spds, fp_baseline, impute, impute_stage1, propagate_stage2,
                  run_pipeline)
from pcfi import diffusion, pipeline


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
    residuals, steps and flagged channels, bit for bit; the pcfi methods
    keep the distance field they were given."""
    g, fs = _instance(lenient)
    cfg = ImputationConfig(method=method, steps=20, lenient_no_source=lenient)
    spds = compute_spds(g, fs.known)
    got = impute(g, fs, cfg, spds=spds)
    assert type(got) is ImputeOutcome
    if method == "zero":
        want = (fs.values, None, 0, [])
        assert got.values is not fs.values
    elif method == "fp":
        res = fp_baseline(g, fs, steps=cfg.steps)
        want = (res.values, res.residuals, res.steps_run, res.flagged_channels)
    else:
        res = impute_stage1(g, fs, spds, cfg.alpha, steps=cfg.steps, lenient=lenient)
        values = res.values
        if method == "pcfi":
            values = propagate_stage2(values, spds, cfg.alpha, cfg.beta)
        want = (values, res.residuals, res.steps_run, res.flagged_channels)
    assert _same(got.values, want[0])
    assert _same(got.residuals, want[1])
    assert got.steps_run == want[2]
    assert got.flagged_channels == want[3]
    if method in ("pcfi", "pcfi_stage1_only"):
        assert got.spds is spds
        assert got.flagged_channels == ([2] if lenient else [])
    else:
        assert got.spds is None


def test_stage_functions_return_the_one_outcome_type():
    assert pipeline.ImputeOutcome is diffusion.ImputeOutcome is ImputeOutcome
    g, fs = _instance(False)
    spds = compute_spds(g, fs.known)
    stage1 = impute_stage1(g, fs, spds, 0.8, steps=5)
    assert type(stage1) is ImputeOutcome and stage1.spds is spds
    fp = fp_baseline(g, fs, steps=5)
    assert type(fp) is ImputeOutcome and fp.spds is None


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

    monkeypatch.setattr(pipeline, "_make_mask", no_mask)
    for methods in ([], iter(())):
        with pytest.raises(InputError, match="at least one method"):
            run_pipeline(build_graph([[0, 1]], 2), np.ones((2, 1)), ImputationConfig(),
                         mask_kind="uniform", mask_rate=0.5, seeds=[0], methods=methods)


def test_pipeline_refuses_a_method_listed_twice_before_masking(monkeypatch):
    def no_mask(*args):
        raise AssertionError("masked before the methods were checked")

    monkeypatch.setattr(pipeline, "_make_mask", no_mask)
    with pytest.raises(InputError, match="'fp' is listed more than once"):
        run_pipeline(build_graph([[0, 1]], 2), np.ones((2, 1)), ImputationConfig(),
                     mask_kind="uniform", mask_rate=0.5, seeds=[0],
                     methods=["fp", "zero", "fp"])


@pytest.mark.parametrize("seeds, message", [
    ([0, -1], "seed must be a non-negative integer, got -1"),
    ([0, 1, 0], "seed 0 is listed more than once"),
], ids=["negative", "repeated"])
def test_pipeline_refuses_a_negative_or_repeated_seed_before_masking(
        monkeypatch, seeds, message):
    def no_mask(*args):
        raise AssertionError("masked before the seeds were checked")

    monkeypatch.setattr(pipeline, "_make_mask", no_mask)
    with pytest.raises(InputError, match=message):
        run_pipeline(build_graph([[0, 1]], 2), np.ones((2, 1)), ImputationConfig(),
                     mask_kind="uniform", mask_rate=0.5, seeds=seeds)


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
