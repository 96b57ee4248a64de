import numpy as np
import pytest

from pcfi import (FeatureSet, InputError, NoSourceError, SpdsMatrix,
                  apply_mask, build_channel_operator, build_graph,
                  closed_form_channel, compute_spds, diffuse_channel,
                  fp_baseline, impute_stage1, partition_channel,
                  resolve_threads, structural_mask, uniform_mask)

from pcfi.confidence import BLOCK_COLUMNS

from _oracles import (dense_pinned_operator, dense_uniform_exponent_operator,
                      floyd_warshall, iterate_dense, random_connected_edges,
                      spds_reference)


# enough channels for three column blocks
MULTI_BLOCK = 2 * BLOCK_COLUMNS + 6


def _instance(seed, n=None, f=3, rate=0.5, alpha=0.5, kind="uniform"):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(4, 40))
    edges = random_connected_edges(rng, n)
    g = build_graph(edges, n)
    if kind == "uniform":
        known = uniform_mask(n, f, rate, seed=seed)
    else:
        known = structural_mask(n, f, rate, seed=seed)
    vals = rng.normal(size=(n, f))
    fs = apply_mask(vals, known)
    spds = compute_spds(g, known, alpha)
    return g, fs, spds, edges


@pytest.mark.parametrize("seed", range(6))
def test_operator_matches_dense_reference(seed):
    g, fs, spds, edges = _instance(seed, alpha=0.3)
    n = g.num_nodes
    for d in range(fs.num_channels):
        part = partition_channel(fs.known[:, d], d)
        op = build_channel_operator(g, spds.distances[:, d], part, 0.3)
        dense = op.matrix.toarray()
        # back to original order for the comparison
        dense = dense[np.ix_(part.to_reordered, part.to_reordered)]
        ref = dense_pinned_operator(n, edges, spds.distances[:, d],
                                    fs.known[:, d], 0.3)
        assert np.max(np.abs(dense - ref)) < 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_uniform_exponent_formulation_is_equivalent(seed):
    """Scaling every row entry by one extra factor of alpha (self-loops
    becoming alpha instead of 1) must vanish under row normalization."""
    g, fs, spds, edges = _instance(seed, alpha=0.7)
    n = g.num_nodes
    for d in range(fs.num_channels):
        a = dense_pinned_operator(n, edges, spds.distances[:, d],
                                  fs.known[:, d], 0.7)
        b = dense_uniform_exponent_operator(n, edges, spds.distances[:, d],
                                            fs.known[:, d], 0.7)
        assert np.max(np.abs(a - b)) < 1e-12


def test_operator_rows_are_stochastic_and_pinned():
    g, fs, spds, _ = _instance(3, n=30, alpha=0.5)
    part = partition_channel(fs.known[:, 0], 0)
    op = build_channel_operator(g, spds.distances[:, 0], part, 0.5)
    dense = op.matrix.toarray()
    sums = dense.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    nk = part.num_known
    assert np.array_equal(dense[:nk, :nk], np.eye(nk))
    assert not dense[:nk, nk:].any()


def test_two_node_hand_values():
    # one known node (value 1), one unknown neighbor, alpha = 1/2:
    # unknown row weights: self 1, edge alpha^(0-1) = 2 -> [2/3 known, 1/3 self]
    g = build_graph([[0, 1]], 2)
    known = np.array([[True], [False]])
    fs = apply_mask(np.array([[1.0], [0.0]]), known)
    spds = compute_spds(g, known, 0.5)
    part = partition_channel(known[:, 0], 0)
    op = build_channel_operator(g, spds.distances[:, 0], part, 0.5)
    x1, _ = diffuse_channel(op, fs.values, steps=1)
    x2, _ = diffuse_channel(op, fs.values, steps=2)
    assert x1[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert x2[1, 0] == pytest.approx(8.0 / 9.0, abs=1e-15)
    cf = closed_form_channel(op, fs.values)
    assert cf[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_path_midpoint_steady_state():
    # path 0-1-2 with ends known at 0 and 1: the middle converges to the
    # average no matter the decay base
    for alpha in (0.2, 0.5, 0.9):
        g = build_graph([[0, 1], [1, 2]], 3)
        known = np.array([[True], [False], [True]])
        fs = apply_mask(np.array([[0.0], [0.0], [1.0]]), known)
        spds = compute_spds(g, known, alpha)
        res = impute_stage1(g, fs, spds, mode="closed_form")
        assert res.values[1, 0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_iterative_matches_dense_oracle_iteration(seed):
    g, fs, spds, edges = _instance(seed, f=MULTI_BLOCK, alpha=0.6)
    n = g.num_nodes
    res = impute_stage1(g, fs, spds, steps=7, threads=2)
    for d in range(MULTI_BLOCK):
        w = dense_pinned_operator(n, edges, spds.distances[:, d],
                                  fs.known[:, d], 0.6)
        ref = iterate_dense(w, fs.values[:, d], 7)
        assert np.max(np.abs(res.values[:, d] - ref)) < 1e-12
        prev = iterate_dense(w, fs.values[:, d], 6)
        assert abs(res.residuals[d] - np.max(np.abs(ref - prev))) < 1e-12


def test_deep_channels_do_not_underflow():
    """alpha ** S underflows past S = 307 at alpha 0.1. A channel that
    deep must still match the explicit iteration, alongside a shallow
    channel in the same call."""
    n = 400
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    g = build_graph(edges, n)
    known = np.zeros((n, 2), dtype=bool)
    known[0, 0] = True
    known[::10, 1] = True
    rng = np.random.default_rng(3)
    fs = apply_mask(rng.normal(size=(n, 2)), known)
    spds = compute_spds(g, known, 0.1)
    res = impute_stage1(g, fs, spds, steps=600)
    assert np.isfinite(res.values).all() and np.isfinite(res.residuals).all()
    for d in range(2):
        w = dense_pinned_operator(n, edges, spds.distances[:, d], known[:, d], 0.1)
        ref = iterate_dense(w, fs.values[:, d], 600)
        assert np.max(np.abs(res.values[:, d] - ref)) < 1e-12

    n = 4000
    g = build_graph(np.column_stack([np.arange(n - 1), np.arange(1, n)]), n)
    known = np.zeros((n, 1), dtype=bool)
    known[0] = True
    fs = apply_mask(np.ones((n, 1)), known)
    res = impute_stage1(g, fs, compute_spds(g, known, 0.1), steps=100)
    assert np.isfinite(res.values).all() and np.isfinite(res.residuals).all()


@pytest.mark.filterwarnings("error")
def test_sourceless_component_stays_zero_without_warnings():
    """Rows that reach no source would divide 0 by 0; they must come out
    exactly 0, and the rest must equal a run without that component."""
    rng = np.random.default_rng(9)
    n, m = 30, 8
    edges = random_connected_edges(rng, n)
    island = np.column_stack([np.arange(n, n + m - 1), np.arange(n + 1, n + m)])
    g = build_graph(np.concatenate([edges, island]), n + m)
    known = np.zeros((n + m, MULTI_BLOCK), dtype=bool)
    known[:n] = uniform_mask(n, MULTI_BLOCK, 0.5, seed=9)
    fs = apply_mask(rng.normal(size=(n + m, MULTI_BLOCK)), known)
    spds = compute_spds(g, known, 0.7)
    res = impute_stage1(g, fs, spds, steps=30, lenient=True, threads=2)
    assert res.flagged_channels == list(range(MULTI_BLOCK))
    assert np.all(res.values[n:] == 0.0)
    assert np.isfinite(res.residuals).all()
    main = build_graph(edges, n)
    alone = impute_stage1(main, FeatureSet(values=fs.values[:n], known=known[:n]),
                          compute_spds(main, known[:n], 0.7), steps=30)
    assert np.array_equal(alone.values.view(np.uint64),
                          res.values[:n].view(np.uint64))


@pytest.mark.parametrize("seed", range(5))
def test_closed_form_is_iteration_fixed_point(seed):
    g, fs, spds, _ = _instance(seed, f=2, alpha=0.5)
    res = impute_stage1(g, fs, spds, mode="closed_form")
    part0 = partition_channel(fs.known[:, 0], 0)
    op = build_channel_operator(g, spds.distances[:, 0], part0, 0.5)
    once, _ = diffuse_channel(op, res.values[:, [0]], steps=1)
    assert np.max(np.abs(once[:, 0] - res.values[:, 0])) < 1e-10


def test_known_entries_survive_bit_identical():
    g, fs, spds, _ = _instance(12, n=35, alpha=0.8)
    it = impute_stage1(g, fs, spds, steps=50)
    cf = impute_stage1(g, fs, spds, mode="closed_form")
    known = fs.known
    # == would accept -0.0 vs 0.0; require identical bit patterns
    for out in (it.values, cf.values):
        a = out[known].view(np.uint64)
        b = fs.values[known].view(np.uint64)
        assert np.array_equal(a, b)


def test_residuals_shrink_with_more_steps():
    g, fs, spds, _ = _instance(1, n=40, alpha=0.9)
    r5 = impute_stage1(g, fs, spds, steps=5)
    r60 = impute_stage1(g, fs, spds, steps=60)
    assert r60.residuals.max() < r5.residuals.max()
    assert r60.steps_run == 60


def test_no_source_channel_strict_raises_lenient_flags():
    g = build_graph([[0, 1], [1, 2]], 3)
    known = np.array([[True, False], [False, False], [True, False]])
    fs = apply_mask(np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]), known)
    spds = compute_spds(g, known, 0.5)
    with pytest.raises(NoSourceError) as exc:
        impute_stage1(g, fs, spds, steps=10)
    assert exc.value.channels == [1]
    res = impute_stage1(g, fs, spds, steps=10, lenient=True)
    assert res.flagged_channels == [1]
    assert np.all(res.values[:, 1] == 0.0)
    assert res.values[1, 0] > 0  # healthy channel still imputed


def test_unreachable_region_strict_raises_lenient_restricts():
    # two components; channel 0 has a source only in the first
    g = build_graph([[0, 1], [2, 3]], 4)
    known = np.array([[True], [False], [False], [False]])
    fs = apply_mask(np.array([[3.0], [0.0], [0.0], [0.0]]), known)
    spds = compute_spds(g, known, 0.5)
    with pytest.raises(NoSourceError):
        impute_stage1(g, fs, spds, steps=10)
    res = impute_stage1(g, fs, spds, steps=100, lenient=True)
    assert res.flagged_channels == [0]
    assert res.values[1, 0] == pytest.approx(3.0, abs=1e-9)
    assert res.values[2, 0] == 0.0 and res.values[3, 0] == 0.0


def test_disconnected_with_sources_everywhere_is_fine_strict():
    g = build_graph([[0, 1], [2, 3]], 4)
    known = np.array([[True], [False], [True], [False]])
    fs = apply_mask(np.array([[1.0], [0.0], [5.0], [0.0]]), known)
    spds = compute_spds(g, known, 0.5)
    res = impute_stage1(g, fs, spds, steps=100)
    assert res.flagged_channels == []
    assert res.values[1, 0] == pytest.approx(1.0, abs=1e-9)
    assert res.values[3, 0] == pytest.approx(5.0, abs=1e-9)


def test_grouped_channels_equal_individual_runs_bitwise():
    g, fs, spds, _ = _instance(21, n=30, f=MULTI_BLOCK, alpha=0.8)
    full = impute_stage1(g, fs, spds, steps=40, threads=3)
    for d in range(MULTI_BLOCK):
        fd = FeatureSet(values=fs.values[:, [d]], known=fs.known[:, [d]])
        sd = SpdsMatrix(distances=spds.distances[:, [d]], alpha=0.8)
        rd = impute_stage1(g, fd, sd, steps=40)
        assert np.array_equal(
            rd.values[:, 0].view(np.uint64), full.values[:, d].view(np.uint64)
        )
        assert rd.residuals[0] == full.residuals[d]


def test_thread_count_does_not_change_bits():
    g, fs, spds, _ = _instance(22, n=60, f=MULTI_BLOCK, alpha=0.8)
    seq = impute_stage1(g, fs, spds, steps=30, threads=1)
    for threads in (2, 3, 4):
        par = impute_stage1(g, fs, spds, steps=30, threads=threads)
        assert np.array_equal(seq.values.view(np.uint64), par.values.view(np.uint64))
        assert np.array_equal(seq.residuals, par.residuals)


def test_resolve_threads_env(monkeypatch):
    monkeypatch.delenv("PCFI_THREADS", raising=False)
    assert resolve_threads(None) == 1
    monkeypatch.setenv("PCFI_THREADS", "3")
    assert resolve_threads(None) == 3
    assert resolve_threads(2) == 2
    assert resolve_threads(0) >= 1
    monkeypatch.setenv("PCFI_THREADS", "abc")
    with pytest.raises(InputError):
        resolve_threads(None)
    with pytest.raises(InputError):
        resolve_threads(-1)


def test_validation_errors():
    g, fs, spds, _ = _instance(2, n=10)
    with pytest.raises(InputError, match="steps"):
        impute_stage1(g, fs, spds, steps=0)
    with pytest.raises(InputError, match="mode"):
        impute_stage1(g, fs, spds, mode="magic")
    wrong = SpdsMatrix(distances=np.zeros((10, 3), dtype=np.int64), alpha=0.5)
    with pytest.raises(InputError, match="inconsistent"):
        impute_stage1(g, fs, wrong)


def test_closed_form_size_guard():
    g, fs, spds, _ = _instance(5, n=30, f=1)
    part = partition_channel(fs.known[:, 0], 0)
    op = build_channel_operator(g, spds.distances[:, 0], part, 0.5)
    with pytest.raises(InputError, match="iterative"):
        closed_form_channel(op, fs.values, max_dense_unknowns=2)


def test_fp_baseline_matches_dense_reference():
    rng = np.random.default_rng(8)
    n = 25
    edges = random_connected_edges(rng, n)
    g = build_graph(edges, n)
    known = uniform_mask(n, 2, 0.5, seed=8)
    vals = rng.normal(size=(n, 2))
    fs = apply_mask(vals, known)

    adj = np.zeros((n, n))
    for i, j in g.edge_array():
        adj[i, j] = adj[j, i] = 1.0
    adj += np.eye(n)
    dinv = 1.0 / np.sqrt(adj.sum(axis=1))
    opd = dinv[:, None] * adj * dinv[None, :]
    x = fs.values.copy()
    for _ in range(12):
        x = opd @ x
        x[known] = fs.values[known]

    res = fp_baseline(g, fs, steps=12)
    assert np.max(np.abs(res.values - x)) < 1e-12
    assert np.array_equal(res.values[known].view(np.uint64),
                          fs.values[known].view(np.uint64))


def test_fp_baseline_empty_channel_stays_zero():
    g = build_graph([[0, 1]], 2)
    known = np.array([[True, False], [False, False]])
    fs = apply_mask(np.array([[2.0, 0.0], [0.0, 0.0]]), known)
    res = fp_baseline(g, fs, steps=30)
    assert np.all(res.values[:, 1] == 0.0)
    assert res.values[1, 0] > 0
