import tracemalloc

import numpy as np
import pytest

from pcfi import confidence
from pcfi import (InputError, SpdsMatrix, apply_mask, build_graph,
                  compute_spds, correlation, impute_stage1, propagate_stage2,
                  uniform_mask)

from _oracles import (pseudo_confidence_reference, random_connected_edges,
                      stage2_bruteforce_oracle, stage2_expression)


def test_correlation_basics():
    x = np.array([[1.0, 2.0, 5.0],
                  [2.0, 4.0, 5.0],
                  [3.0, 6.0, 5.0]])
    c = correlation(x)
    # channel 1 = 2 * channel 0 -> correlation 1; channel 2 constant -> 0
    assert c.r[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(c.r[:, 2] == 0.0) and np.all(c.r[2, :] == 0.0)
    assert np.all(np.diag(c.r) == 0.0)
    assert np.allclose(c.r, c.r.T)
    assert c.means.tolist() == [2.0, 4.0, 5.0]


def test_correlation_anticorrelated():
    x = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    assert correlation(x).r[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_bounds_random():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 6))
    r = correlation(x).r
    assert np.all(r <= 1.0 + 1e-12) and np.all(r >= -1.0 - 1e-12)


def test_correlation_needs_two_rows():
    with pytest.raises(InputError):
        correlation(np.ones((1, 3)))


def test_hand_computed_correction():
    # perfectly correlated channels, one uncertain entry at node 2 channel 1
    # (distance 1, alpha=0.5 -> xi=0.5), beta = 0.1:
    # centered source channel value 3 - 2 = 1, xi_source = 1, R = 1
    # correction = 0.1 * (1 - 0.5) * (1 * 1 * 1) = 0.05
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    s = SpdsMatrix(distances=np.array([[0, 0], [0, 0], [0, 1]]), alpha=0.5)
    out = propagate_stage2(x, s, 0.1)
    assert out[2, 1] == pytest.approx(3.05, abs=1e-15)
    assert out[2, 0] == 3.0
    assert np.array_equal(out[:2], x[:2])


@pytest.mark.parametrize("seed", range(8))
def test_vectorized_matches_node_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    f = int(rng.integers(2, 8))
    x = rng.normal(size=(n, f)) * 3.0
    dist = rng.integers(0, 5, size=(n, f))
    dist[rng.random((n, f)) < 0.1] = -1
    s = SpdsMatrix(distances=dist, alpha=0.7)
    a = propagate_stage2(x, s, 0.05)
    b = stage2_bruteforce_oracle(x, s, 0.05)
    assert np.max(np.abs(a - b)) < 1e-12


def _stage2_instance(seed):
    """Random values with a zero-variance channel, and distances with
    observed, deep and unreachable entries."""
    rng = np.random.default_rng(seed)
    n, f = 60, 9
    x = rng.normal(size=(n, f)) * 2.0 + 0.5
    x[:, 4] = 1.25
    dist = rng.integers(0, 7, size=(n, f))
    dist[rng.random((n, f)) < 0.1] = -1
    return x, SpdsMatrix(distances=dist, alpha=0.7)


@pytest.mark.parametrize("seed", range(4))
def test_stage2_matches_whole_matrix_expression_bitwise(seed):
    x, s = _stage2_instance(seed)
    corr = correlation(x)
    assert np.all(corr.r[4] == 0.0) and np.all(corr.r[:, 4] == 0.0)
    expected = stage2_expression(
        x, pseudo_confidence_reference(s.distances, s.alpha), corr.means,
        corr.r, 0.05)
    assert propagate_stage2(x, s, 0.05).tobytes() == expected.tobytes()


@pytest.mark.parametrize("block_values", [1, 7, 9 * 13])
def test_stage2_in_row_blocks_matches_whole_matrix_expression_bitwise(
        monkeypatch, block_values):
    """Confidences are read in row blocks of one row, of one row when a
    block holds fewer values than a row, and of 13 rows (60 is no multiple
    of 13); the bits are those of the whole-matrix expression."""
    monkeypatch.setattr(confidence, "ROW_BLOCK_VALUES", block_values)
    x, s = _stage2_instance(11)
    corr = correlation(x)
    expected = stage2_expression(
        x, pseudo_confidence_reference(s.distances, s.alpha), corr.means,
        corr.r, 0.05)
    assert propagate_stage2(x, s, 0.05).tobytes() == expected.tobytes()


def test_stage2_allocation_peak_is_two_matrices_and_two_correlations():
    """Stage 2 allocates ``values - means`` and the product, each N x F,
    and F x F arrays for the correlation; the confidences are never held
    whole. A third N x F array (the whole xi) would exceed the bound."""
    rng = np.random.default_rng(4)
    n, f = 40_000, 16
    x = rng.normal(size=(n, f))
    dist = rng.integers(-1, 6, size=(n, f)).astype(np.int16)
    s = SpdsMatrix(distances=dist, alpha=0.8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = propagate_stage2(x, s, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    slack = 1 << 20  # row blocks of the confidences and their indices
    assert peak <= 2 * x.nbytes + 2 * f * f * 8 + slack, peak
    assert peak > 2 * x.nbytes  # the bound is not loose by an N x F array
    assert out.shape == x.shape


def test_stage2_leaves_its_inputs_unmodified():
    x, s = _stage2_instance(7)
    x_bits, dist_bits = x.tobytes(), s.distances.tobytes()
    out = propagate_stage2(x, s, 0.3)
    assert not np.shares_memory(out, x)
    assert x.tobytes() == x_bits
    assert s.distances.tobytes() == dist_bits


def test_beta_zero_is_identity_exact():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 4))
    s = SpdsMatrix(distances=rng.integers(0, 4, size=(20, 4)), alpha=0.5)
    out = propagate_stage2(x, s, 0.0)
    assert out.tobytes() == x.tobytes()


def test_all_observed_is_identity_exact():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(15, 3))
    s = SpdsMatrix(distances=np.zeros((15, 3), dtype=np.int64), alpha=0.5)
    out = propagate_stage2(x, s, 0.7)
    assert np.array_equal(out, x)


def test_unreachable_entries_get_no_inflow():
    # xi = 0 at unreachable entries, so (1 - xi) = 1 there: they receive
    # the full correction but contribute nothing as sources
    x = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 3.0]])
    dist = np.array([[0, 0], [0, 0], [-1, 0]])
    s = SpdsMatrix(distances=dist, alpha=0.5)
    out = propagate_stage2(x, s, 0.1)
    loop = stage2_bruteforce_oracle(x, s, 0.1)
    assert np.max(np.abs(out - loop)) < 1e-14
    # sources (distance 0 everywhere else) are untouched
    assert np.array_equal(out[:2], x[:2])


def test_correction_direction_follows_correlation():
    # strongly correlated channels: an uncertain entry of a node whose
    # other channel sits above its mean gets pushed up
    rng = np.random.default_rng(5)
    base = rng.normal(size=40)
    x = np.column_stack([base, base * 2.0 + 1.0])
    dist = np.zeros((40, 2), dtype=np.int64)
    hi = int(np.argmax(x[:, 0]))
    dist[hi, 1] = 3
    s = SpdsMatrix(distances=dist, alpha=0.5)
    out = propagate_stage2(x, s, 0.01)
    assert out[hi, 1] > x[hi, 1]


def test_stage2_after_stage1_smoke():
    rng = np.random.default_rng(9)
    n = 40
    g = build_graph(random_connected_edges(rng, n), n)
    known = uniform_mask(n, 3, 0.4, seed=9)
    vals = rng.normal(size=(n, 3))
    fs = apply_mask(vals, known)
    spds = compute_spds(g, known, 0.8)
    s1 = impute_stage1(g, fs, spds, steps=60)
    out = propagate_stage2(s1.values, spds, 1e-3)
    assert out.shape == (n, 3)
    # observed entries keep their values (xi = 1 -> zero correction)
    assert np.array_equal(out[known], fs.values[known])


def test_shape_and_beta_validation():
    x = np.zeros((4, 2))
    s = SpdsMatrix(distances=np.zeros((4, 3), dtype=np.int64), alpha=0.5)
    with pytest.raises(InputError):
        propagate_stage2(x, s, 0.1)
    s2 = SpdsMatrix(distances=np.zeros((4, 2), dtype=np.int64), alpha=0.5)
    with pytest.raises(InputError):
        propagate_stage2(x, s2, -0.1)
    with pytest.raises(InputError, match="cells"):
        stage2_bruteforce_oracle(np.zeros((200, 80)),
                         SpdsMatrix(distances=np.zeros((200, 80), dtype=np.int64),
                                    alpha=0.5), 0.1, max_cells=1000)
