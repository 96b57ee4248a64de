import tracemalloc

import numpy as np
import pytest

from pcfi import confidence, propagation
from pcfi import (ImputationConfig, InputError, SpdsMatrix, SynthSpec, apply_mask,
                  build_graph, compute_spds, correlation, generate, impute,
                  impute_stage1, propagate_stage2, uniform_mask)

from _oracles import (correlation_reference, pseudo_confidence_reference,
                      random_connected_edges, stage2_bruteforce_oracle,
                      stage2_expression)


def test_correlation_basics():
    x = np.array([[1.0, 2.0, 5.0],
                  [2.0, 4.0, 5.0],
                  [3.0, 6.0, 5.0]])
    r, means = correlation(x)
    # channel 1 = 2 * channel 0 -> correlation 1; channel 2 constant -> 0
    assert r[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(r[:, 2] == 0.0) and np.all(r[2, :] == 0.0)
    assert np.all(np.diag(r) == 0.0)
    assert np.allclose(r, r.T)
    assert means.tolist() == [2.0, 4.0, 5.0]


def test_correlation_anticorrelated():
    x = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    assert correlation(x)[0][0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_bounds_random():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 6))
    r, _ = correlation(x)
    assert np.all(r <= 1.0 + 1e-12) and np.all(r >= -1.0 - 1e-12)


def test_correlation_needs_two_rows():
    with pytest.raises(InputError):
        correlation(np.ones((1, 3)))


def test_correlation_refuses_a_1d_array():
    with pytest.raises(InputError, match=r"must be 2-D, got shape \(3,\)"):
        correlation(np.ones(3))


def test_hand_computed_correction():
    # perfectly correlated channels, one uncertain entry at node 2 channel 1
    # (distance 1, alpha=0.5 -> xi=0.5), beta = 0.1:
    # centered source channel value 3 - 2 = 1, xi_source = 1, R = 1
    # correction = 0.1 * (1 - 0.5) * (1 * 1 * 1) = 0.05
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    s = SpdsMatrix(distances=np.array([[0, 0], [0, 0], [0, 1]]))
    out = propagate_stage2(x.copy(), s, 0.5, 0.1)
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
    s = SpdsMatrix(distances=dist)
    a = propagate_stage2(x.copy(), s, 0.7, 0.05)
    b = stage2_bruteforce_oracle(x, s, 0.7, 0.05)
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
    return x, SpdsMatrix(distances=dist)


@pytest.mark.parametrize("block_values", [1, 9 * 7, 1 << 18])
@pytest.mark.parametrize("strip", [2, 256])
def test_correlation_in_row_blocks_is_repeatable_and_near_the_whole_gram(
        monkeypatch, block_values, strip):
    """The Gram matrix is summed over row blocks of one row, of seven rows
    (60 is no multiple of 7) and of the whole matrix, in column strips of
    2 (9 is odd) and of 256. R is symmetric bit for bit, its bits repeat,
    and it lies within 2e-15 * max|R| of the correlation from the whole
    ``c.T @ c``, whose sums of 60 terms run in another order."""
    monkeypatch.setattr(confidence, "ROW_BLOCK_VALUES", block_values)
    monkeypatch.setattr(propagation, "GRAM_STRIP", strip)
    x, _ = _stage2_instance(5)
    r, _ = correlation(x)
    assert r.tobytes() == correlation(x)[0].tobytes()
    assert r.tobytes() == r.T.copy().tobytes()
    whole, _ = correlation_reference(x)
    assert np.all(r[4] == 0.0) and np.all(np.diag(r) == 0.0)
    assert np.max(np.abs(r - whole)) <= 2e-15 * np.max(np.abs(whole))


@pytest.mark.parametrize("seed", range(4))
def test_stage2_matches_whole_matrix_expression_bitwise(seed):
    x, s = _stage2_instance(seed)
    r, means = correlation(x)
    assert np.all(r[4] == 0.0) and np.all(r[:, 4] == 0.0)
    expected = stage2_expression(
        x, pseudo_confidence_reference(s.distances, 0.7), means, r, 0.05)
    assert propagate_stage2(x, s, 0.7, 0.05).tobytes() == expected.tobytes()


@pytest.mark.parametrize("block_values", [1, 7, 9 * 13])
def test_stage2_in_row_blocks_matches_whole_matrix_expression_bitwise(
        monkeypatch, block_values):
    """Stage 2 runs in row blocks of one row, of one row when a block holds
    fewer values than a row, and of 13 rows (60 is no multiple of 13).
    Each block's rows have the bits of the whole-matrix expression
    evaluated on those rows, with the whole matrix's means and R; the
    whole result lies within 1e-15 relative of the expression on the whole
    matrix, whose product BLAS may round differently in the last bits."""
    monkeypatch.setattr(confidence, "ROW_BLOCK_VALUES", block_values)
    x, s = _stage2_instance(11)
    n, f = x.shape
    r, means = correlation(x)
    xi = pseudo_confidence_reference(s.distances, 0.7)
    out = propagate_stage2(x.copy(), s, 0.7, 0.05)
    rows_per_block = max(1, block_values // f)
    for lo in range(0, n, rows_per_block):
        rows = slice(lo, lo + rows_per_block)
        expected = stage2_expression(x[rows], xi[rows], means, r, 0.05)
        assert out[rows].tobytes() == expected.tobytes(), rows
    whole = stage2_expression(x, xi, means, r, 0.05)
    assert np.all(np.abs(out - whole) <= 1e-15 * np.abs(whole))


def test_stage2_allocation_peak_is_one_correlation_a_strip_and_row_blocks(
        monkeypatch):
    """Stage 2 corrects its input in place. It allocates one F x F array
    for R, one Gram strip of ``GRAM_STRIP`` x F values, and per row block
    the centred rows, the confidences, their product with R and the
    temporaries of the confidence lookup. With F wider than a strip and
    blocks far smaller than the matrix, an array of the input's size, or
    a second F x F array, would exceed the bound."""
    block_values = 1 << 14
    monkeypatch.setattr(confidence, "ROW_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(4)
    n, f = 3000, 600
    x = rng.normal(size=(n, f))
    dist = rng.integers(-1, 6, size=(n, f)).astype(np.int16)
    s = SpdsMatrix(distances=dist)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = propagate_stage2(x, s, 0.8, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    correlations = f * f * 8
    strip = propagation.GRAM_STRIP * f * 8
    blocks = 6 * block_values * 8  # a few float64 row blocks, 0.8 MB here
    bound = correlations + strip + blocks
    assert peak <= bound, peak
    assert strip < correlations and bound < min(x.nbytes, 2 * correlations)
    assert out is x


def test_stage2_across_block_boundaries(monkeypatch):
    """Twelve full blocks of 64 rows and a partial block of 7, and Gram
    strips of 4, 4 and 1 columns: the result matches the per-node oracle
    and is the input array, corrected in place; the distance field is
    left as it was. With beta 0 or an all-observed field the input comes
    back with its bits unchanged."""
    monkeypatch.setattr(confidence, "ROW_BLOCK_VALUES", 9 * 64)
    monkeypatch.setattr(propagation, "GRAM_STRIP", 4)
    rng = np.random.default_rng(21)
    n, f = 775, 9
    x = rng.normal(size=(n, f)) * 2.0 + 0.5
    dist = rng.integers(0, 7, size=(n, f))
    dist[rng.random((n, f)) < 0.1] = -1
    s = SpdsMatrix(distances=dist)
    x_bits, dist_bits = x.tobytes(), s.distances.tobytes()
    expected = stage2_bruteforce_oracle(x, s, 0.7, 0.05)
    values = x.copy()
    out = propagate_stage2(values, s, 0.7, 0.05)
    assert out is values
    assert np.max(np.abs(out - expected)) < 1e-12
    assert s.distances.tobytes() == dist_bits
    observed = SpdsMatrix(distances=np.zeros((n, f), dtype=np.int64))
    for spds, beta in ((s, 0.0), (observed, 0.7)):
        values = x.copy()
        assert propagate_stage2(values, spds, 0.7, beta) is values
        assert values.tobytes() == x_bits


def test_stage2_corrects_its_input_in_place():
    x, s = _stage2_instance(7)
    dist_bits = s.distances.tobytes()
    expected = stage2_bruteforce_oracle(x, s, 0.7, 0.3)
    out = propagate_stage2(x, s, 0.7, 0.3)
    assert out is x
    assert np.max(np.abs(out - expected)) < 1e-12
    assert s.distances.tobytes() == dist_bits


def test_stage2_refuses_a_read_only_matrix():
    x, s = _stage2_instance(8)
    x.setflags(write=False)
    with pytest.raises(InputError, match="read-only"):
        propagate_stage2(x, s, 0.7, 0.3)


def test_beta_zero_is_identity_exact():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 4))
    x[3, 1] = -0.0
    x_bits = x.tobytes()
    s = SpdsMatrix(distances=rng.integers(0, 4, size=(20, 4)))
    out = propagate_stage2(x, s, 0.5, 0.0)
    assert out is x
    assert out.tobytes() == x_bits


def test_all_observed_is_identity_exact():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(15, 3))
    x[4, 2] = -0.0
    x_bits = x.tobytes()
    s = SpdsMatrix(distances=np.zeros((15, 3), dtype=np.int64))
    out = propagate_stage2(x, s, 0.5, 0.7)
    assert out is x
    assert out.tobytes() == x_bits


def test_unreachable_entries_get_no_inflow():
    # xi = 0 at unreachable entries, so (1 - xi) = 1 there: they receive
    # the full correction but contribute nothing as sources
    x = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 3.0]])
    dist = np.array([[0, 0], [0, 0], [-1, 0]])
    s = SpdsMatrix(distances=dist)
    out = propagate_stage2(x.copy(), s, 0.5, 0.1)
    loop = stage2_bruteforce_oracle(x, s, 0.5, 0.1)
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
    s = SpdsMatrix(distances=dist)
    out = propagate_stage2(x.copy(), s, 0.5, 0.01)
    assert out[hi, 1] > x[hi, 1]


def test_stage2_after_stage1_smoke():
    rng = np.random.default_rng(9)
    n = 40
    g = build_graph(random_connected_edges(rng, n), n)
    known = uniform_mask(n, 3, 0.4, seed=9)
    vals = rng.normal(size=(n, 3))
    fs = apply_mask(vals, known)
    spds = compute_spds(g, known)
    s1 = impute_stage1(g, fs, spds, 0.8, steps=60)
    out = propagate_stage2(s1.values, spds, 0.8, 1e-3)
    assert out.shape == (n, 3)
    # observed entries keep their values (xi = 1 -> zero correction)
    assert np.array_equal(out[known], fs.values[known])


def test_shape_and_beta_validation():
    x = np.zeros((4, 2))
    s = SpdsMatrix(distances=np.zeros((4, 3), dtype=np.int64))
    with pytest.raises(InputError):
        propagate_stage2(x, s, 0.5, 0.1)
    s2 = SpdsMatrix(distances=np.zeros((4, 2), dtype=np.int64))
    for beta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InputError, match="beta"):
            propagate_stage2(x, s2, 0.5, beta)
    with pytest.raises(InputError, match="cells"):
        stage2_bruteforce_oracle(np.zeros((200, 80)),
                                 SpdsMatrix(distances=np.zeros((200, 80), dtype=np.int64)),
                                 0.5, 0.1, max_cells=1000)


def _rmse_over_missing(cfg, g, x, known, spds) -> float:
    out = impute(g, apply_mask(x, known), cfg, spds=spds).values
    return float(np.sqrt(np.mean((out[~known] - x[~known]) ** 2)))


def test_stage2_lowers_the_error_where_channels_share_signal():
    """The paper's claim for stage 2: where channels are correlated, the
    other channels of a node fill its missing ones better. Each of 8
    synthetic channels is copied 4 times with N(0, 0.05**2) noise, under
    a uniform 0.9 mask: pcfi at beta 1.0 cuts stage 1's error over the
    missing entries by about 7 % (swapping xi and 1 - xi cuts it by about
    1 %), and the error does not rise as beta steps from 0 to 0.1 to 1."""
    ds = generate(SynthSpec(num_nodes=4000, num_classes=7, feature_dim=8,
                            intra_edge_prob=0.003, inter_edge_prob=0.0002, seed=0))
    x = np.repeat(ds.features, 4, axis=1)
    x += np.random.default_rng(0).normal(scale=0.05, size=x.shape)
    known = uniform_mask(*x.shape, 0.9, seed=0)
    spds = compute_spds(ds.graph, known)
    stage1 = _rmse_over_missing(ImputationConfig(method="pcfi_stage1_only"),
                                ds.graph, x, known, spds)
    errors = [_rmse_over_missing(ImputationConfig(beta=beta), ds.graph, x, known, spds)
              for beta in (0.0, 0.1, 1.0)]
    assert errors[0] == stage1
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] <= 0.95 * stage1, (errors, stage1)
