import sys
import threading
import tracemalloc

import numpy as np
import pytest

from pcfi import (FeatureSet, InputError, NoSourceError, NumericalError,
                  SpdsMatrix, apply_mask, build_channel_operator, build_graph,
                  closed_form_channel, compute_spds, diffuse_channel,
                  fp_baseline, impute_stage1, resolve_threads,
                  structural_mask, uniform_mask)

from pcfi import diffusion
from pcfi.confidence import BLOCK_COLUMNS

from _oracles import (dense_pinned_operator, dense_uniform_exponent_operator,
                      floyd_warshall, fp_fixed_point_reference, fused_block_reference,
                      iterate_dense, random_connected_edges, spds_reference)


# enough channels for three column blocks
MULTI_BLOCK = 2 * BLOCK_COLUMNS + 6


def _instance(seed, n=None, f=3, rate=0.5, kind="uniform"):
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
    spds = compute_spds(g, known)
    return g, fs, spds, edges


def _path_edges(n):
    return np.column_stack([np.arange(n - 1), np.arange(1, n)])


@pytest.mark.parametrize("seed", range(6))
def test_operator_matches_dense_reference(seed):
    g, fs, spds, edges = _instance(seed)
    n = g.num_nodes
    for d in range(fs.num_channels):
        op = build_channel_operator(g, spds.distances[:, d], fs.known[:, d], 0.3)
        dense = op.toarray()
        ref = dense_pinned_operator(n, edges, spds.distances[:, d],
                                    fs.known[:, d], 0.3)
        assert np.max(np.abs(dense - ref)) < 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_uniform_exponent_formulation_is_equivalent(seed):
    """Scaling every row entry by one extra factor of alpha (self-loops
    becoming alpha instead of 1) must vanish under row normalization."""
    g, fs, spds, edges = _instance(seed)
    n = g.num_nodes
    for d in range(fs.num_channels):
        a = dense_pinned_operator(n, edges, spds.distances[:, d],
                                  fs.known[:, d], 0.7)
        b = dense_uniform_exponent_operator(n, edges, spds.distances[:, d],
                                            fs.known[:, d], 0.7)
        assert np.max(np.abs(a - b)) < 1e-12


def test_operator_rows_are_stochastic_and_pinned():
    g, fs, spds, _ = _instance(3, n=30)
    known = fs.known[:, 0]
    op = build_channel_operator(g, spds.distances[:, 0], known, 0.5)
    dense = op.toarray()
    sums = dense.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert np.array_equal(dense[known], np.eye(g.num_nodes)[known])


def test_two_node_hand_values():
    # one known node (value 1), one unknown neighbor, alpha = 1/2:
    # unknown row weights: self 1, edge alpha^(0-1) = 2 -> [2/3 known, 1/3 self]
    g = build_graph([[0, 1]], 2)
    known = np.array([[True], [False]])
    fs = apply_mask(np.array([[1.0], [0.0]]), known)
    spds = compute_spds(g, known)
    op = build_channel_operator(g, spds.distances[:, 0], known[:, 0], 0.5)
    x1, _ = diffuse_channel(op, fs.values, known, steps=1)
    x2, _ = diffuse_channel(op, fs.values, known, steps=2)
    assert x1[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert x2[1, 0] == pytest.approx(8.0 / 9.0, abs=1e-15)
    cf = closed_form_channel(op, fs.values, spds.distances[:, 0] > 0)
    assert cf[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_path_midpoint_steady_state():
    # path 0-1-2 with ends known at 0 and 1: the middle converges to the
    # average no matter the decay base
    for alpha in (0.2, 0.5, 0.9):
        g = build_graph([[0, 1], [1, 2]], 3)
        known = np.array([[True], [False], [True]])
        fs = apply_mask(np.array([[0.0], [0.0], [1.0]]), known)
        spds = compute_spds(g, known)
        res = impute_stage1(g, fs, spds, alpha, mode="closed_form")
        assert res.values[1, 0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_iterative_matches_dense_oracle_iteration(seed):
    g, fs, spds, edges = _instance(seed, f=MULTI_BLOCK)
    n = g.num_nodes
    res = impute_stage1(g, fs, spds, 0.6, steps=7, threads=2)
    for d in range(MULTI_BLOCK):
        w = dense_pinned_operator(n, edges, spds.distances[:, d],
                                  fs.known[:, d], 0.6)
        ref = iterate_dense(w, fs.values[:, d], 7)
        assert np.max(np.abs(res.values[:, d] - ref)) < 1e-12
        prev = iterate_dense(w, fs.values[:, d], 6)
        assert abs(res.residuals[d] - np.max(np.abs(ref - prev))) < 1e-12


def test_deep_channels_do_not_underflow(operator_builds):
    """alpha ** S underflows past S = 307 at alpha 0.1. K steps read no
    confidence beyond K + 1 hops, so a channel that deep runs the fused
    kernel with S clipped there while (K + 1) ln(1 / alpha) stays within
    MAX_DECAY, and its explicit operator past that. Either way it must
    match the explicit iteration, alongside a shallow channel in the same
    call."""
    n = 400
    edges = _path_edges(n)
    g = build_graph(edges, n)
    known = np.zeros((n, 2), dtype=bool)
    known[0, 0] = True
    known[::10, 1] = True
    rng = np.random.default_rng(3)
    fs = apply_mask(rng.normal(size=(n, 2)), known)
    spds = compute_spds(g, known)
    res = impute_stage1(g, fs, spds, 0.1, steps=600)
    assert len(operator_builds) == 1  # the deep channel; 399 ln 10 > MAX_DECAY
    assert np.isfinite(res.values).all() and np.isfinite(res.residuals).all()
    for d in range(2):
        w = dense_pinned_operator(n, edges, spds.distances[:, d], known[:, d], 0.1)
        ref = iterate_dense(w, fs.values[:, d], 600)
        assert np.max(np.abs(res.values[:, d] - ref)) < 1e-12

    n = 4000
    g = build_graph(_path_edges(n), n)
    known = np.zeros((n, 1), dtype=bool)
    known[0] = True
    fs = apply_mask(rng.normal(size=(n, 1)), known)
    spds = compute_spds(g, known)
    op = build_channel_operator(g, spds.distances[:, 0], known[:, 0], 0.1)
    explicit, _ = diffuse_channel(op, fs.values, known, 100)
    # 101 ln 10 is within MAX_DECAY, so the fused kernel runs, clipped at
    # 101 hops; 101 ln 1000 is not, so the explicit operator runs
    for alpha, builds in ((0.1, 0), (0.001, 1)):
        operator_builds.clear()
        res = impute_stage1(g, fs, spds, alpha, steps=100)
        assert len(operator_builds) == builds
        assert np.isfinite(res.values).all() and np.isfinite(res.residuals).all()
        assert np.all(res.values[spds.distances[:, 0] > 100] == 0.0)
        if alpha == 0.1:
            assert np.max(np.abs(res.values - explicit)) < 1e-12


def _path_instance(n, sources, seed):
    """A path of ``n`` nodes with one channel per list of ``sources``."""
    g = build_graph(_path_edges(n), n)
    known = np.zeros((n, len(sources)), dtype=bool)
    for d, nodes in enumerate(sources):
        known[nodes, d] = True
    fs = apply_mask(np.random.default_rng(seed).normal(size=known.shape), known)
    return g, fs, compute_spds(g, known)


def test_clipped_confidences_keep_the_bits_of_the_unclipped_kernel(operator_builds):
    """On a 2000-node path at alpha 0.8 every channel is within MAX_DECAY
    unclipped, and three are deeper than K + 1 = 101 hops, so the clip is
    active: stage 1 gives the bits of the kernel that reads every
    ``alpha ** S``. A clip at K hops would change the last values that K
    steps reach."""
    sources = [[0], [0, 1999], [1000], list(range(0, 2000, 150))]
    g, fs, spds = _path_instance(2000, sources, 50)
    depth = spds.distances.max(axis=0)
    assert (depth * -np.log(0.8) <= diffusion.MAX_DECAY).all()
    assert (depth[:3] > 101).all() and depth[3] <= 101
    res = impute_stage1(g, fs, spds, 0.8, steps=100)
    assert operator_builds == []
    want = fused_block_reference(g.self_loop_adjacency(), fs, spds, 0.8,
                                 np.arange(fs.num_channels), 100)
    assert res.values.tobytes() == want[0].tobytes()
    assert res.residuals.tobytes() == want[1].tobytes()


def test_a_channel_too_deep_unclipped_runs_fused_outside_the_corner(operator_builds):
    """299+ hops at alpha 0.1 is past MAX_DECAY unclipped, but 31 hops is
    not: 30 steps run on the fused kernel, match the dense iteration, and
    leave every entry more than 30 hops from a source at +0.0."""
    g, fs, spds = _path_instance(400, [[0], [5], [0, 100]], 51)
    depth = spds.distances.max(axis=0)
    assert (depth * -np.log(0.1) > diffusion.MAX_DECAY).all()
    assert 31 * -np.log(0.1) <= diffusion.MAX_DECAY
    res = impute_stage1(g, fs, spds, 0.1, steps=30)
    assert operator_builds == []
    edges = _path_edges(400)
    for d in range(fs.num_channels):
        w = dense_pinned_operator(400, edges, spds.distances[:, d], fs.known[:, d], 0.1)
        ref = iterate_dense(w, fs.values[:, d], 30)
        assert np.max(np.abs(res.values[:, d] - ref)) < 1e-12
    far = res.values[spds.distances > 30]
    assert far.size and not far.view(np.uint64).any()


def test_more_steps_than_an_int8_field_holds():
    """K + 1 = 201 does not fit the int8 field of a 120-node path: stage 1
    runs, with the bits of the kernel that reads every ``alpha ** S``, and
    of an int64 copy of the field."""
    g, fs, spds = _path_instance(120, [[0], [60], [0, 119], [7, 30, 90]], 52)
    assert spds.distances.dtype == np.int8
    res = impute_stage1(g, fs, spds, 0.8, steps=200)
    want = fused_block_reference(g.self_loop_adjacency(), fs, spds, 0.8,
                                 np.arange(fs.num_channels), 200)
    wide = impute_stage1(g, fs, SpdsMatrix(distances=spds.distances.astype(np.int64)),
                         0.8, steps=200)
    for got in (res, wide):
        assert got.values.tobytes() == want[0].tobytes()
        assert got.residuals.tobytes() == want[1].tobytes()


@pytest.mark.filterwarnings("error")
def test_sourceless_component_stays_zero_without_warnings(operator_builds):
    """Rows that reach no source would divide 0 by 0; they must come out
    exactly 0, and the rest must equal a run without that component. The
    fused kernel (shallow channels, and deep ones clipped at K + 1 hops),
    the explicit operator and the closed form each get a case."""
    rng = np.random.default_rng(9)
    n, m = 30, 8
    edges = random_connected_edges(rng, n)
    shallow = uniform_mask(n, MULTI_BLOCK, 0.5, seed=9)
    # channels 0 and 1 are 290+ hops deep (two missing patterns): fused at
    # alpha 0.1, explicit at 1e-9, where 31 ln(1e9) > MAX_DECAY; channel 2
    # is shallow and runs in the fused kernel alongside
    deep = np.zeros((300, 3), dtype=bool)
    deep[0, :2] = True
    deep[5, 1] = True
    deep[::10, 2] = True
    cases = [(edges, shallow, 0.7, {"steps": 30}, 0),
             (_path_edges(300), deep, 0.1, {"steps": 30}, 0),
             (_path_edges(300), deep, 1e-9, {"steps": 30}, 2),
             (edges, shallow, 0.7, {"mode": "closed_form"}, None)]
    for main_edges, main_known, alpha, kw, builds in cases:
        n, f = main_known.shape
        island = np.column_stack([np.arange(n, n + m - 1), np.arange(n + 1, n + m)])
        g = build_graph(np.concatenate([main_edges, island]), n + m)
        known = np.zeros((n + m, f), dtype=bool)
        known[:n] = main_known
        fs = apply_mask(rng.normal(size=(n + m, f)), known)
        spds = compute_spds(g, known)
        operator_builds.clear()
        res = impute_stage1(g, fs, spds, alpha, lenient=True, threads=2, **kw)
        assert builds is None or len(operator_builds) == builds
        assert res.flagged_channels == list(range(f))
        assert np.all(res.values[n:] == 0.0)
        if res.residuals is not None:
            assert np.isfinite(res.residuals).all()
        main = build_graph(main_edges, n)
        alone = impute_stage1(main, FeatureSet(values=fs.values[:n], known=main_known),
                              compute_spds(main, main_known), alpha, **kw)
        assert np.array_equal(alone.values.view(np.uint64),
                              res.values[:n].view(np.uint64))


@pytest.mark.parametrize("seed", range(5))
def test_closed_form_is_iteration_fixed_point(seed):
    g, fs, spds, _ = _instance(seed, f=2)
    res = impute_stage1(g, fs, spds, 0.5, mode="closed_form")
    op = build_channel_operator(g, spds.distances[:, 0], fs.known[:, 0], 0.5)
    once, _ = diffuse_channel(op, res.values[:, [0]], fs.known[:, [0]], steps=1)
    assert np.max(np.abs(once[:, 0] - res.values[:, 0])) < 1e-10


def test_known_entries_survive_bit_identical(operator_builds):
    g, fs, spds, _ = _instance(12, n=35)
    it = impute_stage1(g, fs, spds, 0.8, steps=50)
    cf = impute_stage1(g, fs, spds, 0.8, mode="closed_form")
    # a deep channel with an observed -0.0: fused and clipped at 51 hops at
    # alpha 0.1, on the explicit operator at 1e-6 (51 ln(1e6) > MAX_DECAY)
    n = 400
    path = build_graph(_path_edges(n), n)
    known = np.zeros((n, 1), dtype=bool)
    known[:2] = True
    deep = apply_mask(np.array([[-0.0], [1.0]] + [[0.0]] * (n - 2)), known)
    deep_spds = compute_spds(path, known)
    operator_builds.clear()
    clipped = impute_stage1(path, deep, deep_spds, 0.1, steps=50)
    assert operator_builds == []
    explicit = impute_stage1(path, deep, deep_spds, 1e-6, steps=50)
    assert len(operator_builds) == 1
    # == would accept -0.0 vs 0.0; require identical bit patterns
    for out, given in ((it.values, fs), (cf.values, fs), (clipped.values, deep),
                       (explicit.values, deep)):
        a = out[given.known].view(np.uint64)
        b = given.values[given.known].view(np.uint64)
        assert np.array_equal(a, b)


def test_residuals_shrink_with_more_steps():
    g, fs, spds, _ = _instance(1, n=40)
    r5 = impute_stage1(g, fs, spds, 0.9, steps=5)
    r60 = impute_stage1(g, fs, spds, 0.9, steps=60)
    assert r60.residuals.max() < r5.residuals.max()


def test_no_source_channel_strict_raises_lenient_flags():
    g = build_graph([[0, 1], [1, 2]], 3)
    known = np.array([[True, False], [False, False], [True, False]])
    fs = apply_mask(np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]), known)
    spds = compute_spds(g, known)
    with pytest.raises(NoSourceError) as exc:
        impute_stage1(g, fs, spds, 0.5, steps=10)
    assert exc.value.channels == [1]
    res = impute_stage1(g, fs, spds, 0.5, steps=10, lenient=True)
    assert res.flagged_channels == [1]
    assert np.all(res.values[:, 1] == 0.0)
    assert res.values[1, 0] > 0  # healthy channel still imputed


def test_fp_baseline_strict_raises_lenient_flags_by_the_same_rule():
    """fp on its own refuses or flags the channels that stage 1 does, read
    off the same field, and still fills their reachable entries."""
    g = build_graph([[0, 1], [1, 2], [3, 4]], 5)
    known = np.array([[True, False, True], [False, False, False],
                      [True, False, False], [True, False, False],
                      [False, False, False]])
    fs = apply_mask(np.arange(15.0).reshape(5, 3), known)
    spds = compute_spds(g, known)
    for run in (impute_stage1, fp_baseline):
        args = (0.5,) if run is impute_stage1 else ()
        with pytest.raises(NoSourceError) as exc:
            run(g, fs, spds, *args, steps=10)
        assert exc.value.channels == [1, 2]
        res = run(g, fs, spds, *args, steps=10, lenient=True)
        assert res.flagged_channels == [1, 2]
        assert np.all(res.values[:, 1] == 0.0) and np.all(res.values[3:, 2] == 0.0)
        assert res.values[1, 0] > 0 and res.values[1, 2] > 0


def test_unreachable_region_strict_raises_lenient_restricts():
    # two components; channel 0 has a source only in the first
    g = build_graph([[0, 1], [2, 3]], 4)
    known = np.array([[True], [False], [False], [False]])
    fs = apply_mask(np.array([[3.0], [0.0], [0.0], [0.0]]), known)
    spds = compute_spds(g, known)
    with pytest.raises(NoSourceError):
        impute_stage1(g, fs, spds, 0.5, steps=10)
    res = impute_stage1(g, fs, spds, 0.5, steps=100, lenient=True)
    assert res.flagged_channels == [0]
    assert res.values[1, 0] == pytest.approx(3.0, abs=1e-9)
    assert res.values[2, 0] == 0.0 and res.values[3, 0] == 0.0


def test_disconnected_with_sources_everywhere_is_fine_strict():
    g = build_graph([[0, 1], [2, 3]], 4)
    known = np.array([[True], [False], [True], [False]])
    fs = apply_mask(np.array([[1.0], [0.0], [5.0], [0.0]]), known)
    spds = compute_spds(g, known)
    res = impute_stage1(g, fs, spds, 0.5, steps=100)
    assert res.flagged_channels == []
    assert res.values[1, 0] == pytest.approx(1.0, abs=1e-9)
    assert res.values[3, 0] == pytest.approx(5.0, abs=1e-9)


def test_grouped_channels_equal_individual_runs_bitwise():
    g, fs, spds, _ = _instance(21, n=30, f=MULTI_BLOCK)
    full = impute_stage1(g, fs, spds, 0.8, steps=40, threads=3)
    for d in range(MULTI_BLOCK):
        fd = FeatureSet(values=fs.values[:, [d]], known=fs.known[:, [d]])
        sd = SpdsMatrix(distances=spds.distances[:, [d]])
        rd = impute_stage1(g, fd, sd, 0.8, steps=40)
        assert np.array_equal(
            rd.values[:, 0].view(np.uint64), full.values[:, d].view(np.uint64)
        )
        assert rd.residuals[0] == full.residuals[d]


def test_thread_count_does_not_change_bits(operator_builds):
    """The fused kernel (a pool task per column block) under a uniform and
    a structural mask and on deep channels clipped at K + 1 hops, and the
    explicit operator of deep channels past MAX_DECAY (a task per missing
    pattern)."""
    fused = (*_instance(22, n=60, f=MULTI_BLOCK)[:3], 0.8, 0)
    n = 400
    path = build_graph(_path_edges(n), n)
    known = np.zeros((n, 12), dtype=bool)
    for d in range(12):
        known[(d % 4) * 3, d] = True  # four patterns, each 390+ hops deep
    deep_spds = compute_spds(path, known)
    deep_fs = apply_mask(np.random.default_rng(22).normal(size=(n, 12)), known)
    # 31 ln 10 is within MAX_DECAY and 31 ln(1e9) is not
    clipped = (path, deep_fs, deep_spds, 0.1, 0)
    deep = (path, deep_fs, deep_spds, 1e-9, 4)
    structural = (*_instance(23, n=60, f=MULTI_BLOCK, kind="structural")[:3], 0.8, 0)
    for g, fs, spds, alpha, builds in (fused, structural, clipped, deep):
        operator_builds.clear()
        seq = impute_stage1(g, fs, spds, alpha, steps=30, threads=1)
        assert len(operator_builds) == builds
        assert np.isfinite(seq.values).all()
        for threads in (2, 3, 4):
            par = impute_stage1(g, fs, spds, alpha, steps=30, threads=threads)
            assert np.array_equal(seq.values.view(np.uint64),
                                  par.values.view(np.uint64))
            assert np.array_equal(seq.residuals, par.residuals)


def _block_case(case):
    """A graph, feature set and field for one column block of the fused
    kernel, plus its alpha and steps."""
    rng = np.random.default_rng(40)
    n, f = 80, BLOCK_COLUMNS
    edges = random_connected_edges(rng, n)
    if case.startswith("unreachable"):
        # nodes 70..79 form a component where some channels observe nothing
        edges = np.concatenate([random_connected_edges(rng, 70),
                                70 + random_connected_edges(rng, 10)])
    g = build_graph(edges, n)
    values = rng.normal(size=(n, f))
    if case in ("structural", "one-step", "unreachable-structural"):
        known = structural_mask(n, f, 0.7, seed=40)
    elif case == "mixed":
        # three known sets shared by 10, 10 and 8 channels, four of their own
        known = np.repeat(uniform_mask(n, 3, 0.7, seed=40), [10, 10, 8], axis=1)
        known = np.concatenate([known, uniform_mask(n, 4, 0.7, seed=41)], axis=1)
    else:
        known = uniform_mask(n, f, 0.7, seed=40)
    if case == "unreachable-structural":
        known[70:] = False
    elif case == "unreachable-uniform":
        known[70:, ::2] = False
    values[~known] = 0.0
    if case == "negative-zero":
        values[known & (rng.random((n, f)) < 0.3)] = -0.0
        values[~known & (rng.random((n, f)) < 0.5)] = -0.0
    fs = FeatureSet(values=values, known=known)
    return g, fs, compute_spds(g, known), 0.8, 1 if case == "one-step" else 25


BLOCK_CASES = ["structural", "mixed", "uniform", "one-step",
               "unreachable-structural", "unreachable-uniform", "negative-zero"]


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_fused_block_matches_the_loop_as_first_written(case):
    """The block kernel re-pins instead of adding its input back, and uses
    one confidence column when every channel shares a known set; neither
    changes a bit of the values or the residuals."""
    g, fs, spds, alpha, steps = _block_case(case)
    shared = (spds.distances == spds.distances[:, :1]).all()
    assert shared == (case in ("structural", "one-step", "unreachable-structural"))
    if case.startswith("unreachable"):
        assert (spds.distances == diffusion.UNREACHABLE).any()
    if case == "negative-zero":
        assert np.signbit(fs.values[fs.known & (fs.values == 0)]).any()
        assert np.signbit(fs.values[~fs.known]).any()
    ai = g.self_loop_adjacency()
    cols = np.arange(fs.num_channels)
    want = fused_block_reference(ai, fs, spds, alpha, cols, steps)
    out = fs.values.copy()
    got = (out, diffusion._diffuse_block(ai, fs, spds, alpha, cols, steps, out))
    for w, x in zip(want, got):
        assert w.shape == x.shape
        assert w.tobytes() == x.tobytes()
    # so does a block of scattered columns, written into a column slice of
    # a wider matrix
    cols = cols[::3]
    want = fused_block_reference(ai, fs, spds, alpha, cols, steps)
    wide = np.zeros((fs.num_nodes, cols.size + 2))
    out = wide[:, 1:-1]
    out[...] = fs.values.take(cols, axis=1)
    residuals = diffusion._diffuse_block(ai, fs, spds, alpha, cols, steps, out)
    assert want[0].tobytes() == out.tobytes()
    assert want[1].tobytes() == residuals.tobytes()
    assert not wide[:, [0, -1]].any()


@pytest.mark.parametrize("explicit, want", [
    ([], [(0, 32), (32, 64), (64, 70)]),
    ([0, 69], [(1, 33), (33, 65), (65, 69)]),
    ([3, 40], [(0, 3), (4, 36), (36, 40), (41, 70)]),
    ([1, 2, 35], [(0, 1), (3, 35), (36, 68), (68, 70)]),
    (list(range(70)), []),
])
def test_fused_blocks_are_contiguous_runs(explicit, want):
    """A fused block is a contiguous run of at most ``BLOCK_COLUMNS``
    channels that ends where an explicit channel sits; with none, the
    blocks are the 32-column slices of the channels."""
    mask = np.zeros(MULTI_BLOCK, dtype=bool)
    mask[explicit] = True
    got = diffusion._fused_blocks(mask)
    assert [(int(c[0]), int(c[-1]) + 1) for c in got] == want
    for cols in got:
        assert np.array_equal(cols, np.arange(cols[0], cols[-1] + 1))


def _split_runs_case():
    """A 240-node path with eight channels: 1, 4 and 5 observe node 0 only
    (239 hops deep), the rest observe every third node and some more. At
    alpha 0.001 and K = 100, 101 ln 1000 > MAX_DECAY, so the deep channels
    take the explicit operator and split the fused ones into the runs
    [0], [2, 3] and [6, 7]; one or two steps clip them at 2 or 3 hops, so
    every channel then runs fused."""
    n, f = 240, 8
    edges = _path_edges(n)
    rng = np.random.default_rng(44)
    known = (np.arange(n)[:, None] % 3 == np.arange(f) % 3) | (rng.random((n, f)) < 0.2)
    deep = [1, 4, 5]
    known[:, deep] = False
    known[0, deep] = True
    fs = apply_mask(rng.normal(size=(n, f)), known)
    g = build_graph(edges, n)
    return g, fs, compute_spds(g, known), edges


@pytest.mark.parametrize("steps", [1, 2, 100])
def test_fused_runs_split_by_explicit_channels_match_the_oracles(steps,
                                                                 operator_builds):
    """Stage 1 with explicit channels between fused ones: every fused run
    has the bits of ``fused_block_reference`` on its columns, every channel
    is within 1e-12 of the dense pinned iteration, and the bits are the
    same on 1 to 3 threads, with the result written into the input or
    into a copy."""
    g, fs, spds, edges = _split_runs_case()
    alpha = 0.001
    runs = [[0], [2, 3], [6, 7]] if steps == 100 else [list(range(8))]
    got = impute_stage1(g, fs, spds, alpha, steps=steps, threads=1)
    assert len(operator_builds) == (1 if steps == 100 else 0)  # one pattern
    ai = g.self_loop_adjacency()
    for cols in runs:
        want = fused_block_reference(ai, fs, spds, alpha, np.array(cols), steps)
        assert want[0].tobytes() == got.values[:, cols].copy().tobytes()
        assert want[1].tobytes() == got.residuals[cols].tobytes()
    for d in range(fs.num_channels):
        w = dense_pinned_operator(g.num_nodes, edges, spds.distances[:, d],
                                  fs.known[:, d], alpha)
        ref = iterate_dense(w, fs.values[:, d], steps)
        prev = iterate_dense(w, fs.values[:, d], steps - 1)
        assert np.max(np.abs(got.values[:, d] - ref)) < 1e-12, d
        assert abs(got.residuals[d] - np.max(np.abs(ref - prev))) < 1e-12, d
    for threads in (1, 2, 3):
        for overwrite in (False, True):
            copy = apply_mask(fs.values, fs.known)
            again = impute_stage1(g, copy, spds, alpha, steps=steps,
                                  threads=threads, overwrite=overwrite)
            assert (again.values is copy.values) == overwrite
            assert again.values.tobytes() == got.values.tobytes()
            assert again.residuals.tobytes() == got.residuals.tobytes()


@pytest.mark.parametrize("mode, tasks, builds", [
    # one deep pattern (channels 1, 4 and 5), then the runs [0], [2, 3], [6, 7]
    ("iterative", 4, 1),
    # the deep pattern and one pattern per other channel, nothing fused
    ("closed_form", 6, 6),
])
def test_pattern_groups_and_fused_runs_share_one_pool(monkeypatch, mode, tasks,
                                                      builds, operator_builds):
    """Stage 1 hands its explicit pattern groups and its fused runs to one
    ``_run`` call, and its bits (and residuals) are the same on 1 to 3
    threads, with the result written into the input or into a copy."""
    g, fs, spds, _ = _split_runs_case()
    calls = []
    real = diffusion._run

    def counted(fn, items, nthreads):
        calls.append(len(items))
        return real(fn, items, nthreads)

    monkeypatch.setattr(diffusion, "_run", counted)
    first = None
    for threads in (1, 2, 3):
        for overwrite in (False, True):
            calls.clear()
            operator_builds.clear()
            copy = apply_mask(fs.values, fs.known)
            got = impute_stage1(g, copy, spds, 0.001, steps=100, mode=mode,
                                threads=threads, overwrite=overwrite)
            assert calls == [tasks]
            assert len(operator_builds) == builds
            assert (got.values is copy.values) == overwrite
            assert (got.residuals is None) == (mode == "closed_form")
            first = first or got
            assert got.values.tobytes() == first.values.tobytes()
            if got.residuals is not None:
                assert got.residuals.tobytes() == first.residuals.tobytes()


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_an_error_in_a_block_propagates(monkeypatch, where):
    """The calling thread runs blocks beside the pool; an error raised in a
    block on either one reaches the caller of ``impute_stage1``."""
    g, fs, spds, _ = _instance(24, n=40, f=MULTI_BLOCK)
    caller = threading.get_ident()
    # the first two blocks wait for each other, so each thread holds one
    both_started = threading.Barrier(2, timeout=10)
    real = diffusion._diffuse_block
    calls = []

    def failing_block(ai, fs, spds, alpha, cols, steps, out):
        first_two = cols[0] < 2 * BLOCK_COLUMNS
        if first_two:
            both_started.wait()
        on_caller = threading.get_ident() == caller
        calls.append((first_two, on_caller))
        if first_two and on_caller == (where == "caller"):
            raise NumericalError(f"block on the {where} failed")
        return real(ai, fs, spds, alpha, cols, steps, out)

    monkeypatch.setattr(diffusion, "_diffuse_block", failing_block)
    with pytest.raises(NumericalError, match=f"block on the {where} failed"):
        impute_stage1(g, fs, spds, 0.8, steps=5, threads=2)
    threads_of_first_two = sorted(on_caller for first_two, on_caller in calls
                                  if first_two)
    assert threads_of_first_two == [False, True]
    assert len(calls) == 3  # the third block still ran; the pool is joined


def test_every_block_runs_once_under_many_threads():
    """More threads than cores, switching often, share one iterator of
    items: each item is taken exactly once."""
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        diffusion._run(ran.append, list(range(5000)), 8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(5000))


def _stage1_peak_in_blocks(kind, steps):
    """Stage 1's tracemalloc peak on a handed-over 3000 x 64 set, in arrays
    of one block's size: the result is the input, so every array counted is
    the blocks' own."""
    rng = np.random.default_rng(33)
    n, f = 3000, 2 * BLOCK_COLUMNS
    g = build_graph(random_connected_edges(rng, n), n)
    mask = structural_mask if kind == "structural" else uniform_mask
    known = mask(n, f, 0.9, seed=33)
    fs = apply_mask(rng.normal(size=(n, f)), known)
    spds = compute_spds(g, known)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = impute_stage1(g, fs, spds, 0.8, steps=steps, threads=1, overwrite=True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.values is fs.values
    return peak / (n * BLOCK_COLUMNS * 8)


def test_structural_stage1_allocates_three_block_arrays():
    """Under a structural mask every channel shares one known set, so a
    block holds one column of confidences (or of their sums), and no copy
    of its input once the first step is taken: the iterate and the new
    product are its only block-sized arrays. Step K - 1's product is parked
    in the block's output columns, not copied."""
    for steps in (1, 5):
        blocks = _stage1_peak_in_blocks("structural", steps)
        assert blocks < 3, (steps, blocks)


def test_uniform_stage1_allocates_under_four_and_a_third_block_arrays():
    """Under a uniform mask a block's confidences are as wide as the block:
    the iterate, the new product and one of the scale and the sums it
    divides by, plus the pinned entries' indices and values."""
    for steps in (1, 5):
        blocks = _stage1_peak_in_blocks("uniform", steps)
        assert blocks < 4.3, (steps, blocks)


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


def test_zero_threads_are_the_cpus_the_process_may_run_on(monkeypatch):
    """0, given or through ``PCFI_THREADS``, counts the process's affinity
    set, not the machine's cpus; where the platform has no affinity call,
    ``os.cpu_count()``."""
    monkeypatch.setattr(diffusion.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(diffusion.os, "sched_getaffinity", lambda pid: {0, 5, 6},
                        raising=False)
    monkeypatch.setenv("PCFI_THREADS", "0")
    assert resolve_threads(0) == resolve_threads(None) == 3
    monkeypatch.delattr(diffusion.os, "sched_getaffinity")
    assert resolve_threads(0) == resolve_threads(None) == 8


def test_validation_errors():
    g, fs, spds, _ = _instance(2, n=10)
    with pytest.raises(InputError, match="steps"):
        impute_stage1(g, fs, spds, 0.5, steps=0)
    with pytest.raises(InputError, match="mode"):
        impute_stage1(g, fs, spds, 0.5, mode="magic")
    wrong = SpdsMatrix(distances=np.zeros((10, 3), dtype=np.int64))
    with pytest.raises(InputError, match="inconsistent"):
        impute_stage1(g, fs, wrong, 0.5)


@pytest.mark.parametrize("mode", ["iterative", "closed_form"])
@pytest.mark.parametrize("n, f", [(4, 0), (0, 3)])
def test_stage1_of_no_channels_or_no_nodes_returns_the_empty_set(n, f, mode):
    g = build_graph(_path_edges(n) if n else [], n)
    fs = apply_mask(np.zeros((n, f)), np.zeros((n, f), dtype=bool))
    out = impute_stage1(g, fs, compute_spds(g, fs.known), 0.5, mode=mode)
    assert out.values.shape == (n, f) and out.flagged_channels == []
    assert (out.residuals is None) == (mode == "closed_form")


def test_channel_operator_and_closed_form_refusals():
    g = build_graph(_path_edges(3), 3)
    with pytest.raises(InputError, match=r"must both have shape \(3,\)"):
        build_channel_operator(g, np.zeros(2, dtype=np.int64), np.ones(3, dtype=bool), 0.5)
    # I - W_uu is zero when W is the identity and every row is solved
    identity = build_graph([], 3).self_loop_adjacency()
    with pytest.raises(NumericalError, match="singular"):
        closed_form_channel(identity, np.zeros((3, 1)), np.ones(3, dtype=bool))


def test_closed_form_size_guard(monkeypatch):
    """Both closed forms refuse a known set above ``MAX_DENSE_UNKNOWNS``
    unknowns; the solve itself has no limit."""
    g, fs, spds, _ = _instance(5, n=30, f=1)
    monkeypatch.setattr(diffusion, "MAX_DENSE_UNKNOWNS", 2)
    with pytest.raises(InputError, match="iterative"):
        impute_stage1(g, fs, spds, 0.5, mode="closed_form")
    with pytest.raises(InputError, match="iterative"):
        fp_baseline(g, fs, spds, mode="closed_form")
    op = build_channel_operator(g, spds.distances[:, 0], fs.known[:, 0], 0.5)
    solved = closed_form_channel(op, fs.values, spds.distances[:, 0] > 0)
    assert np.isfinite(solved).all()


@pytest.mark.parametrize("limit", ["below-every-set", "below-the-largest"])
def test_closed_form_refusal_names_the_largest_known_set(monkeypatch, operator_builds,
                                                         limit):
    """Six channels of a uniform mask, each its own known set with 16 to
    24 unknowns: both closed forms refuse with one message, naming the
    largest set, at any thread count and before any operator is built."""
    g, fs, spds, _ = _instance(10, n=40, f=6, kind="uniform")
    unknowns = (spds.distances > 0).sum(axis=0)
    assert np.unique(unknowns).size >= 3
    largest = int(unknowns.max())
    cap = int(unknowns.min()) - 1 if limit == "below-every-set" else largest - 1
    monkeypatch.setattr(diffusion, "MAX_DENSE_UNKNOWNS", cap)
    want = (f"closed form would densify a {largest} x {largest} system "
            f"(limit {cap}); use the iterative mode")
    for threads in (1, 2, 3):
        with pytest.raises(InputError) as pcfi_refusal:
            impute_stage1(g, fs, spds, 0.5, mode="closed_form", threads=threads)
        monkeypatch.setenv("PCFI_THREADS", str(threads))
        with pytest.raises(InputError) as fp_refusal:
            fp_baseline(g, fs, spds, mode="closed_form")
        assert str(pcfi_refusal.value) == str(fp_refusal.value) == want
    assert operator_builds == []


def _fp_closed_form_instance(case):
    """A 60-node graph under a structural or a uniform mask, or two
    components where channel 1 observes only the first and channel 2
    nothing, so a lenient run flags both."""
    if case != "lenient":
        g, fs, _, _ = _instance(40, n=60, f=4, kind=case)
        return g, fs
    rng = np.random.default_rng(41)
    edges = np.concatenate([random_connected_edges(rng, 30),
                            30 + random_connected_edges(rng, 30)])
    g = build_graph(edges, 60)
    known = rng.random((60, 3)) < 0.3
    known[0, :2] = True
    known[30:, 1] = False
    known[:, 2] = False
    return g, apply_mask(rng.normal(size=(60, 3)), known)


@pytest.mark.parametrize("case", ["structural", "uniform", "lenient"])
def test_fp_closed_form_matches_the_dense_solve(case):
    """``fp`` under ``mode="closed_form"`` solves FP's own system, once per
    known set: it matches a dense solve per channel, keeps the observed
    bits and the zeros of the rows that reach no source, runs no
    iteration, and flags what the iterative run flags."""
    g, fs = _fp_closed_form_instance(case)
    lenient = case == "lenient"
    spds = compute_spds(g, fs.known)
    got = fp_baseline(g, fs, spds, steps=0, mode="closed_form", lenient=lenient)
    want = fp_fixed_point_reference(g, fs.values, fs.known)
    assert np.max(np.abs(got.values - want)) < 1e-10
    assert got.values[fs.known].tobytes() == fs.values[fs.known].tobytes()
    assert np.all(got.values[spds.distances == -1] == 0.0)
    assert got.residuals is None
    iterated = fp_baseline(g, fs, spds, steps=5, lenient=lenient)
    assert got.flagged_channels == iterated.flagged_channels == ([1, 2] if lenient else [])


def test_fp_closed_form_is_refused_above_the_size_limit_with_pcfis_message(monkeypatch):
    """``fp``'s closed form densifies the same system size as pcfi's, one
    per known set, and is refused above ``MAX_DENSE_UNKNOWNS`` with the
    same message."""
    g, fs, spds, _ = _instance(5, n=30, f=2, kind="structural")
    monkeypatch.setattr(diffusion, "MAX_DENSE_UNKNOWNS", 2)
    with pytest.raises(InputError, match="use the iterative mode") as pcfi_refusal:
        impute_stage1(g, fs, spds, 0.5, mode="closed_form")
    with pytest.raises(InputError) as fp_refusal:
        fp_baseline(g, fs, spds, mode="closed_form")
    assert str(fp_refusal.value) == str(pcfi_refusal.value)


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

    res = fp_baseline(g, fs, compute_spds(g, known), steps=12)
    assert np.max(np.abs(res.values - x)) < 1e-12
    assert np.array_equal(res.values[known].view(np.uint64),
                          fs.values[known].view(np.uint64))


def test_diffuse_channel_one_step_only_reads_its_input():
    """With one step the previous iterate is the input itself, so the change
    goes into a new array: a read-only input is neither written nor refused."""
    g, fs, _, _ = _instance(31, n=30, f=4)
    op = g.self_loop_adjacency()
    bits = fs.values.tobytes()
    assert not fs.values.flags.writeable
    x, residuals = diffuse_channel(op, fs.values, fs.known, steps=1)
    assert fs.values.tobytes() == bits
    want = op @ fs.values
    want[fs.known] = fs.values[fs.known]
    assert np.array_equal(x, want)
    assert np.array_equal(residuals, np.abs(want - fs.values).max(axis=0))


def test_diffuse_channel_keeps_two_iterates_alive():
    """Besides its input, the pinned loop holds the last two iterates and
    the pinned values; the last change is taken in place, with no N x F
    temporary (taking ``np.abs(x - prev)`` makes two)."""
    rng = np.random.default_rng(32)
    n, f = 3000, 64
    g = build_graph(random_connected_edges(rng, n), n)
    fs = apply_mask(rng.normal(size=(n, f)), rng.random((n, f)) < 0.1)
    op = g.self_loop_adjacency()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        diffuse_channel(op, fs.values, fs.known, steps=3)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * f * 8, peak


def test_fp_baseline_empty_channel_stays_zero():
    g = build_graph([[0, 1]], 2)
    known = np.array([[True, False], [False, False]])
    fs = apply_mask(np.array([[2.0, 0.0], [0.0, 0.0]]), known)
    res = fp_baseline(g, fs, compute_spds(g, known), steps=30, lenient=True)
    assert res.flagged_channels == [1]
    assert np.all(res.values[:, 1] == 0.0)
    assert res.values[1, 0] > 0
