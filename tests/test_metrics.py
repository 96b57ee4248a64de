import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from pcfi import (EvalReport, InputError, SpdsMatrix, build_graph, compute_spds,
                  evaluate)
from pcfi.masking import make_mask
from pcfi.metrics import _spearman_sorted

from _oracles import _rmse, evaluate_reference


def test_rmse_hand_value():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    imputed = np.array([[1.0, 0.0], [0.0, 4.0]])
    over = np.array([[False, True], [True, False]])
    # errors 2 and 3 -> sqrt((4 + 9) / 2)
    rep = evaluate(truth, imputed, ~over)
    assert rep.rmse == pytest.approx(np.sqrt(6.5), abs=1e-15)


def test_evaluate_scores_overall_and_buckets_with_rmse():
    """The overall and per-bucket RMSE are the first-written ``rmse`` over
    the same entries, with the bits of
    ``sqrt(mean((truth - imputed)[missing] ** 2))``."""
    rng = np.random.default_rng(5)
    n, f = 40, 6
    truth, imputed = rng.normal(size=(n, f)), rng.normal(size=(n, f))
    known = rng.random((n, f)) < 0.3
    known[0] = True
    dist = np.where(known, 0, rng.integers(1, 6, size=(n, f)))
    rep = evaluate(truth, imputed, known, SpdsMatrix(dist))
    diff = truth - imputed
    assert rep.rmse == float(np.sqrt(np.mean(diff[~known] ** 2)))
    assert rep.rmse == _rmse(truth, imputed, ~known)
    keys = dist.max(axis=1)
    assert len(rep.distance_buckets) > 2
    for k, bucket in rep.distance_buckets.items():
        rows = (keys == k) & (~known).any(axis=1)
        assert bucket["rmse"] == float(np.sqrt(np.mean(diff[rows][~known[rows]] ** 2)))
        assert bucket["rmse"] == _rmse(truth[rows], imputed[rows], ~known[rows])


def test_evaluate_overall_and_per_channel():
    truth = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    imputed = truth.copy()
    imputed[0, 0] = 2.0   # error 1 in channel 0
    imputed[2, 1] = 8.0   # error 2 in channel 1
    known = np.ones((3, 2), dtype=bool)
    known[0, 0] = False
    known[2, 1] = False
    rep = evaluate(truth, imputed, known)
    assert rep.rmse == pytest.approx(np.sqrt((1 + 4) / 2), abs=1e-12)
    assert rep.rmse_per_channel[0] == pytest.approx(1.0)
    assert rep.rmse_per_channel[1] == pytest.approx(2.0)
    assert rep.num_eval_nodes == 2


def test_evaluate_channel_without_missing_is_null():
    truth = np.ones((3, 2))
    known = np.ones((3, 2), dtype=bool)
    known[0, 0] = False
    rep = evaluate(truth, truth, known)
    assert np.isnan(rep.rmse_per_channel[1])
    assert rep.to_dict()["rmse_per_channel"][1] is None
    assert rep.to_dict()["rmse_per_channel"][0] == 0.0


def test_cosine_skips_zero_norm_rows():
    truth = np.array([[0.0, 0.0], [1.0, 0.0]])
    imputed = np.array([[0.0, 0.0], [1.0, 0.0]])
    known = np.array([[False, True], [False, True]])
    rep = evaluate(truth, imputed, known)
    assert rep.num_eval_nodes == 2
    assert rep.num_skipped_zero_norm == 1
    assert rep.cosine_mean == pytest.approx(1.0)


def test_no_missing_entries_gives_null_metrics():
    truth = np.ones((2, 2))
    rep = evaluate(truth, truth, np.ones((2, 2), dtype=bool))
    assert rep.rmse is None
    assert rep.cosine_mean is None
    assert rep.num_eval_nodes == 0


def test_distance_buckets_and_trend():
    # cosine decays cleanly with distance: rank correlation must be -1
    n = 12
    truth = np.tile([1.0, 0.0], (n, 1))
    dist = np.zeros((n, 2), dtype=np.int64)
    imputed = truth.copy()
    known = np.ones((n, 2), dtype=bool)
    for i in range(n):
        d = i % 4
        dist[i, 1] = d
        if d > 0:
            known[i, 1] = False
            imputed[i, 1] = 0.3 * d   # larger distance -> worse angle
    spds = SpdsMatrix(distances=dist)
    rep = evaluate(truth, imputed, known, spds)
    assert set(rep.distance_buckets) == {1, 2, 3}
    assert all(rep.distance_buckets[k]["count"] == 3 for k in (1, 2, 3))
    c1 = rep.distance_buckets[1]["cosine_mean"]
    c3 = rep.distance_buckets[3]["cosine_mean"]
    assert c1 > c3
    assert rep.spearman_distance_cosine == pytest.approx(-1.0, abs=1e-12)
    assert rep.distance_buckets[3]["rmse"] == pytest.approx(0.9)


def test_unreachable_nodes_not_bucketed():
    truth = np.array([[1.0], [1.0], [1.0]])
    imputed = truth * 0.9
    known = np.array([[False], [False], [True]])
    dist = np.array([[-1], [-1], [0]])
    rep = evaluate(truth, imputed, known, SpdsMatrix(distances=dist))
    assert rep.num_unbucketed_nodes == 2
    assert rep.distance_buckets == {}
    assert rep.spearman_distance_cosine is None


def test_report_dict_shape():
    truth = np.random.default_rng(0).normal(size=(6, 3))
    known = np.ones((6, 3), dtype=bool)
    known[0, 0] = False
    rep = evaluate(truth, truth, known)
    d = rep.to_dict()
    assert d["schema_version"] == 1
    # scores only: the run that made the imputation reports its own facts
    assert not {"config", "flagged_channels", "timings"} & d.keys()
    assert isinstance(d["distance_buckets"], dict)
    # one cosine slot per node: node 0 evaluated, the rest null
    assert len(d["cosine_per_node"]) == 6
    assert d["cosine_per_node"][0] == pytest.approx(1.0)
    assert d["cosine_per_node"][1:] == [None] * 5
    assert "cosine_per_node" not in rep.to_dict(per_node=False)


def test_shape_mismatch_rejected():
    with pytest.raises(InputError):
        evaluate(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2), dtype=bool))
    with pytest.raises(InputError):
        evaluate(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2), dtype=bool),
                 SpdsMatrix(distances=np.zeros((3, 2), dtype=np.int64)))


@pytest.mark.parametrize("ys", [
    [0.91, 0.72, 0.80, 0.15, 0.53, 0.40],   # no ties
    [0.9, 0.5, 0.9, 0.1, 0.5, 0.5, 0.3],    # ties, including a triple
    [0.3, 0.6],                             # two buckets
    [0.6, 0.3],
])
def test_spearman_matches_scipy(ys):
    ys = np.array(ys)
    expected = stats.spearmanr(np.arange(ys.size), ys).statistic
    assert _spearman_sorted(ys) == pytest.approx(expected, abs=1e-12)


def test_spearman_matches_scipy_on_random_tied_buckets():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(300):
        # few distinct levels, so most draws contain ties
        ys = rng.integers(0, 4, size=int(rng.integers(2, 12))) / 4.0
        if ys.max() == ys.min():
            continue
        expected = stats.spearmanr(np.arange(ys.size), ys).statistic
        assert _spearman_sorted(ys) == pytest.approx(expected, abs=1e-12)
        checked += 1
    assert checked > 200


def _scoring_case(kind, f, seed, n=3000, rate=0.6):
    """Truth, an imputation that keeps the observed entries, the mask and
    the distance field on a sparse random graph (some nodes unreachable).
    Some evaluated rows have zero norm in the truth, some in the
    imputation."""
    rng = np.random.default_rng(seed)
    g = build_graph(rng.integers(0, n, size=(3 * n // 2, 2)), n)
    known = make_mask(kind, n, f, rate, seed)
    truth = rng.normal(size=(n, f))
    eval_nodes = np.flatnonzero((~known).any(axis=1))
    truth[eval_nodes[:5]] = 0.0
    blank = eval_nodes[5:10]
    truth[blank] *= ~known[blank]
    imputed = np.where(known, truth, truth + 0.5 * rng.normal(size=(n, f)))
    imputed[blank] = 0.0
    return truth, imputed, known, compute_spds(g, known)


def _assert_same_report(got, want):
    """Every field equal; arrays bit for bit, so NaN matches NaN."""
    for field in dataclasses.fields(EvalReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("with_spds", [False, True], ids=["no-spds", "spds"])
@pytest.mark.parametrize("f", [4, 16])
@pytest.mark.parametrize("kind", ["structural", "uniform"])
def test_evaluate_matches_first_written_oracle(kind, f, with_spds):
    """Above 8 channels a row sum's bits depend on its summation order,
    so F = 16 checks that norms and dots are summed as np.linalg.norm
    and np.sum sum them."""
    truth, imputed, known, spds = _scoring_case(kind, f, seed=f)
    spds = spds if with_spds else None
    report = evaluate(truth, imputed, known, spds)
    assert report.num_skipped_zero_norm == 10
    _assert_same_report(report, evaluate_reference(truth, imputed, known, spds))


def test_evaluate_without_missing_entries_matches_oracle():
    truth, imputed, known, spds = _scoring_case("uniform", 4, seed=0, n=50)
    known[:] = True
    spds = SpdsMatrix(np.zeros_like(spds.distances))
    for field in (None, spds):
        _assert_same_report(evaluate(truth, truth, known, field),
                            evaluate_reference(truth, truth, known, field))


def test_evaluate_scores_do_not_depend_on_memory_layout():
    truth, imputed, known, spds = _scoring_case("uniform", 16, seed=3)
    _assert_same_report(
        evaluate(np.asfortranarray(truth), np.asfortranarray(imputed), known, spds),
        evaluate(truth, imputed, known, spds))


def _peak_n_by_f_arrays(kind):
    """Peak traced memory of one call on an 18 000 x 16 case at rate 0.9,
    in N x F float64 arrays."""
    truth, imputed, known, spds = _scoring_case(kind, 16, seed=0,
                                                n=18_000, rate=0.9)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate(truth, imputed, known, spds)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / truth.nbytes


def test_evaluate_holds_about_two_n_by_f_arrays():
    """One squared-error/product buffer plus the missing entries' squares
    (the first-written scoring held 4.0)."""
    assert _peak_n_by_f_arrays("structural") <= 2.2


def test_evaluate_holds_about_two_n_by_f_arrays_under_a_uniform_mask():
    """Under a uniform mask one distance bucket holds most evaluated nodes;
    its squares are read from the buffer, not from gathered copies of its
    rows (which held 2.9)."""
    assert _peak_n_by_f_arrays("uniform") <= 2.2


def test_huge_values_in_a_fully_observed_row_raise_no_warning():
    """Only rows with a missing entry are squared: 1e200 squared overflows."""
    truth, imputed, known, _ = _scoring_case("uniform", 4, seed=1, n=200)
    known[0] = True
    truth[0] = imputed[0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = evaluate(truth, imputed, known)
    assert np.isnan(report.cosine_per_node[0]) and np.isfinite(report.rmse)
