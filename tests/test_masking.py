import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import select_reference
from pcfi import (ImputationConfig, InputError, apply_mask, build_graph,
                  run_pipeline, structural_mask, uniform_mask)
from pcfi.masking import FeatureSet, _select, make_mask


def test_structural_mask_removes_whole_rows():
    known = structural_mask(10, 4, 0.3, seed=1)
    row_known = known.all(axis=1)
    row_missing = ~known.any(axis=1)
    assert np.all(row_known | row_missing)
    assert row_missing.sum() == 3


@pytest.mark.parametrize("rate,expected", [
    (0.04, 0), (0.1, 1), (0.25, 3), (0.85, 9),
])
def test_structural_count_rounds_half_up(rate, expected):
    known = structural_mask(10, 2, rate, seed=0)
    assert (~known.any(axis=1)).sum() == expected


def test_structural_half_rounds_up():
    # 0.25 * 10 = 2.5 -> 3 rows
    known = structural_mask(10, 1, 0.25, seed=5)
    assert (~known[:, 0]).sum() == 3


def test_uniform_mask_count_and_spread():
    known = uniform_mask(20, 5, 0.4, seed=2)
    assert (~known).sum() == 40
    # with high probability not all removals share one column
    assert len(set(np.flatnonzero(~known.ravel()) % 5)) > 1


def test_masks_are_deterministic_per_seed():
    a = structural_mask(50, 3, 0.5, seed=9)
    b = structural_mask(50, 3, 0.5, seed=9)
    c = structural_mask(50, 3, 0.5, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    u1 = uniform_mask(30, 4, 0.5, seed=9)
    u2 = uniform_mask(30, 4, 0.5, seed=9)
    assert np.array_equal(u1, u2)


def test_mask_rate_bounds():
    with pytest.raises(InputError):
        structural_mask(10, 2, 1.0, seed=0)
    with pytest.raises(InputError):
        structural_mask(10, 2, 0.0, seed=0)
    with pytest.raises(InputError):
        uniform_mask(10, 2, -0.1, seed=0)
    with pytest.raises(InputError, match="mask kind"):
        run_pipeline(build_graph([[0, 1]], 2), np.ones((2, 1)), ImputationConfig(),
                     mask_kind="diagonal", mask_rate=0.5, seeds=[0])


@pytest.mark.parametrize("make", [structural_mask, uniform_mask])
@pytest.mark.parametrize("n, f", [(-3, 2), (3, -2), (-3, -2)])
def test_masks_refuse_a_negative_dimension(make, n, f):
    with pytest.raises(InputError, match="each mask dimension must be at least 1"):
        make(n, f, 0.5, seed=0)


@pytest.mark.parametrize("make", [structural_mask, uniform_mask])
def test_masks_refuse_a_negative_seed(make):
    with pytest.raises(InputError, match="seed must be a non-negative integer, got -1"):
        make(3, 2, 0.5, seed=-1)
    kind = make.__name__.split("_")[0]
    with pytest.raises(InputError, match="seed must be a non-negative integer, got 1.5"):
        make_mask(kind, 3, 2, 0.5, 1.5)
    # a numpy integer is an integer
    assert np.array_equal(make_mask(kind, 3, 2, 0.5, np.int64(1)), make(3, 2, 0.5, seed=1))


def test_mask_refuses_to_remove_everything():
    # 0.96 * 10 rounds to 10 rows: nothing left to diffuse from
    with pytest.raises(InputError, match="removes all"):
        structural_mask(10, 2, 0.96, seed=0)
    with pytest.raises(InputError, match="removes all"):
        uniform_mask(2, 2, 0.9, seed=0)


def test_apply_mask_zeroes_unknown():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    known = np.array([[True, False], [False, True]])
    fs = apply_mask(vals, known)
    assert fs.values.tolist() == [[1.0, 0.0], [0.0, 4.0]]


def test_feature_set_validation():
    with pytest.raises(InputError, match="0.0"):
        FeatureSet(values=np.array([[1.0, 2.0]]),
                   known=np.array([[True, False]]))
    with pytest.raises(InputError, match="shape"):
        FeatureSet(values=np.zeros((2, 2)), known=np.zeros((2, 3), dtype=bool))
    with pytest.raises(InputError, match="non-finite"):
        FeatureSet(values=np.array([[np.nan]]), known=np.array([[True]]))
    with pytest.raises(InputError, match="2-D"):
        FeatureSet(values=np.zeros(3), known=np.zeros(3, dtype=bool))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 120), f=st.integers(1, 6),
       rate=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_uniform_mask_count_matches_rounding(n, f, rate, seed):
    expected = int(np.floor(rate * n * f + 0.5))
    if expected >= n * f:
        with pytest.raises(InputError):
            uniform_mask(n, f, rate, seed)
    else:
        known = uniform_mask(n, f, rate, seed)
        assert (~known).sum() == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), rate=st.floats(0.01, 0.99),
       seed=st.integers(0, 2**32 - 1))
def test_structural_mask_count_matches_rounding(n, rate, seed):
    expected = int(np.floor(rate * n + 0.5))
    if expected >= n:
        with pytest.raises(InputError):
            structural_mask(n, 3, rate, seed)
    else:
        known = structural_mask(n, 3, rate, seed)
        assert (~known.any(axis=1)).sum() == expected
        assert (known.all(axis=1) | ~known.any(axis=1)).all()


def _oracle_structural(n, f, rate, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    known = np.ones((n, f), dtype=bool)
    known[select_reference(rng, n, int(np.floor(rate * n + 0.5))), :] = False
    return known


def _oracle_uniform(n, f, rate, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    known = np.ones(n * f, dtype=bool)
    known[select_reference(rng, n * f, int(np.floor(rate * n * f + 0.5)))] = False
    return known.reshape(n, f)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 150), f=st.integers(1, 40),
       rate=st.floats(0.001, 0.999), seed=st.integers(0, 2**32 - 1))
def test_masks_match_sort_based_selection(n, f, rate, seed):
    for mask, oracle, total in ((structural_mask, _oracle_structural, n),
                                (uniform_mask, _oracle_uniform, n * f)):
        if int(np.floor(rate * total + 0.5)) >= total:
            continue
        assert np.array_equal(mask(n, f, rate, seed), oracle(n, f, rate, seed))


class _StubGenerator:
    """Hands out fixed draws, so ties can be forced."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=np.float64)

    def random(self, size):
        assert size == self.draws.size
        return self.draws.copy()


@pytest.mark.parametrize("draws,count,expected", [
    ([0.5, 0.1, 0.5, 0.5, 0.2, 0.5], 4, {0, 1, 2, 4}),
    ([0.5, 0.1, 0.5, 0.5, 0.2, 0.5], 3, {0, 1, 4}),
    ([0.3, 0.3, 0.3, 0.3], 2, {0, 1}),
    ([0.3, 0.3, 0.3, 0.3], 4, {0, 1, 2, 3}),
    ([0.9, 0.3, 0.1], 1, {2}),
    ([0.9, 0.3, 0.1], 0, set()),
])
def test_selection_breaks_ties_by_lowest_index(draws, count, expected):
    chosen = _select(_StubGenerator(draws), len(draws), count)
    assert chosen.dtype == bool
    assert set(np.flatnonzero(chosen)) == expected
    assert set(select_reference(_StubGenerator(draws), len(draws), count)) == expected
