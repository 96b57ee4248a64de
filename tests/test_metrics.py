import numpy as np
import pytest
from scipy import stats

from pcfi import InputError, SpdsMatrix, evaluate, rmse
from pcfi.metrics import _spearman_sorted


def test_rmse_hand_value():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    imputed = np.array([[1.0, 0.0], [0.0, 4.0]])
    over = np.array([[False, True], [True, False]])
    # errors 2 and 3 -> sqrt((4 + 9) / 2)
    assert rmse(truth, imputed, over) == pytest.approx(np.sqrt(6.5), abs=1e-15)
    with pytest.raises(InputError):
        rmse(truth, imputed, np.zeros_like(over))


def test_evaluate_scores_overall_and_buckets_with_rmse():
    """The overall and per-bucket RMSE are ``rmse`` over the same entries,
    with the bits of ``sqrt(mean((truth - imputed)[missing] ** 2))``."""
    rng = np.random.default_rng(5)
    n, f = 40, 6
    truth, imputed = rng.normal(size=(n, f)), rng.normal(size=(n, f))
    known = rng.random((n, f)) < 0.3
    known[0] = True
    dist = np.where(known, 0, rng.integers(1, 6, size=(n, f)))
    rep = evaluate(truth, imputed, known, SpdsMatrix(dist))
    diff = truth - imputed
    assert rep.rmse == float(np.sqrt(np.mean(diff[~known] ** 2)))
    assert rep.rmse == rmse(truth, imputed, ~known)
    keys = dist.max(axis=1)
    assert len(rep.distance_buckets) > 2
    for k, bucket in rep.distance_buckets.items():
        rows = (keys == k) & (~known).any(axis=1)
        assert bucket["rmse"] == float(np.sqrt(np.mean(diff[rows][~known[rows]] ** 2)))


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
