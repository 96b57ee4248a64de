import logging
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcfi import (InputError, apply_mask, build_graph, compute_spds,
                  connected_components, extract_largest_component, fp_baseline,
                  induced_subgraph)
from pcfi.io import load_dataset, load_edges

from _oracles import (build_graph_reference, components_reference, floyd_warshall,
                      fp_baseline_reference, induced_subgraph_reference,
                      random_gnp_edges)
from conftest import run_cli


def test_build_dedups_and_drops_self_loops():
    g = build_graph([[0, 1], [1, 0], [0, 1], [2, 2], [1, 2]], 3)
    assert g.num_nodes == 3
    assert g.num_edges == 2
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.neighbors(2).tolist() == [1]


def test_build_empty_graph():
    g = build_graph([], 4)
    assert g.num_nodes == 4
    assert g.num_edges == 0
    assert g.degrees.tolist() == [0, 0, 0, 0]


def test_build_rejects_out_of_range_ids():
    with pytest.raises(InputError, match=r"\(1, 5\)"):
        build_graph([[0, 1], [1, 5]], 3)
    with pytest.raises(InputError):
        build_graph([[-1, 0]], 3)


def test_build_refuses_a_negative_size_and_edges_that_are_not_pairs():
    with pytest.raises(InputError, match="num_nodes must be non-negative, got -1"):
        build_graph([], -1)
    with pytest.raises(InputError, match="sequence of .node, node. pairs"):
        build_graph([[0, 1, 2]], 3)


def test_neighbors_sorted_and_symmetric():
    rng = np.random.default_rng(7)
    edges = random_gnp_edges(rng, 25, 0.2)
    g = build_graph(edges, 25)
    for i in range(25):
        nb = g.neighbors(i)
        assert np.all(np.diff(nb) > 0)
        for j in nb:
            assert i in g.neighbors(int(j))


def test_edge_array_round_trip():
    rng = np.random.default_rng(3)
    edges = random_gnp_edges(rng, 30, 0.15)
    g = build_graph(edges, 30)
    again = build_graph(g.edge_array(), 30)
    assert np.array_equal(g.indptr, again.indptr)
    assert np.array_equal(g.indices, again.indices)


def test_graph_arrays_are_read_only():
    g = build_graph([[0, 1]], 2)
    with pytest.raises(ValueError):
        g.indices[0] = 5


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    return n, random_gnp_edges(rng, n, 0.06)


COMPONENT_CASES = {
    **{str(seed): _random_case(seed) for seed in range(8)},
    "no-nodes": (0, []),
    "one-node": (1, []),
    # isolated nodes before, between and after the edges
    "isolated": (9, [[1, 2], [2, 4], [6, 7]]),
    # 23 components: 20 pairs listed last to first, two isolated nodes and
    # a three-node path
    "many": (45, [[2 * i + 1, 2 * i] for i in range(20)][::-1]
             + [[44, 42], [43, 44]]),
}


@pytest.mark.parametrize("case", COMPONENT_CASES.values(), ids=COMPONENT_CASES.keys())
def test_components_match_reachability_oracle(case):
    n, edges = case
    g = build_graph(edges, n)
    comps = connected_components(g)
    ref = components_reference(floyd_warshall(n, edges))
    # same partition and identical discovery-order numbering
    assert np.array_equal(comps.labels, ref)
    assert comps.num_components == (ref.max() + 1 if n else 0)
    if n == 0:
        assert comps.largest_id == -1
        return
    sizes = comps.sizes()
    assert sizes[comps.largest_id] == sizes.max()
    # ties resolve to the smallest component id
    assert not np.any(sizes[:comps.largest_id] == sizes.max())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_components_match_csgraph(data):
    from scipy import sparse
    from scipy.sparse import csgraph

    n, edges = data.draw(_edge_lists(max_nodes=60))
    g = build_graph(edges, n)
    comps = connected_components(g)
    adj = sparse.csr_array((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    count, labels = csgraph.connected_components(adj, directed=False)
    assert np.array_equal(comps.labels, labels)
    assert comps.num_components == count
    assert comps.largest_id == (int(np.bincount(labels).argmax()) if n else -1)


def test_build_and_components_at_ogbn_arxiv_size(tmp_path):
    """A 169 343-node graph in thousands of components, made by ``pcfi
    synth`` within 60 s and checked within 60 s more: its CSR equals
    scipy's build of the same ``edges.tsv``, its labels equal
    ``scipy.sparse.csgraph``'s, and the largest-component cut keeps the
    most common label and equals scipy's row and column slice."""
    from scipy import sparse
    from scipy.sparse import csgraph

    run_cli(["synth", "--num-nodes", "169343", "--num-classes", "40",
             "--feature-dim", "4", "--intra", "0.0004", "--inter", "0.000006",
             "--seed", "0", "--keep-all-components", "--out", str(tmp_path)],
            timeout=60)
    start = time.perf_counter()
    g = load_dataset(tmp_path)[0]
    n = g.num_nodes
    edges = load_edges(tmp_path / "edges.tsv")
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[both[:, 0] != both[:, 1]]
    csr = sparse.coo_array((np.ones(len(both)), (both[:, 0], both[:, 1])),
                           shape=(n, n)).tocsr()
    csr.sort_indices()
    assert np.array_equal(g.indptr, csr.indptr)
    assert np.array_equal(g.indices, csr.indices)
    # csr is g's CSR from here on: the scipy references below read it
    labels = connected_components(g).labels
    count, want = csgraph.connected_components(csr, directed=False)
    assert count >= 1000, f"{n} nodes, {g.num_edges} edges, {count} components"
    assert np.array_equal(labels, want)
    sub, id_map, _ = extract_largest_component(g)
    assert np.array_equal(id_map, np.flatnonzero(labels == np.bincount(labels).argmax()))
    cut = csr[id_map][:, id_map]
    cut.sort_indices()
    assert np.array_equal(sub.indptr, cut.indptr)
    assert np.array_equal(sub.indices, cut.indices)
    assert time.perf_counter() - start < 60


def _chain(order):
    return np.column_stack([order[:-1], order[1:]])


def _ladder(n):
    """Two rails of ``n // 2`` nodes (even and odd ids) joined by rungs."""
    even = np.arange(0, n, 2)
    return np.concatenate([_chain(even), _chain(even + 1),
                           np.column_stack([even, even + 1])])


ROUND_SHAPES = {
    "path": lambda n, rng: _chain(np.arange(n)),
    "shuffled-path": lambda n, rng: _chain(rng.permutation(n)),
    "cycle": lambda n, rng: _chain(np.r_[np.arange(n), 0]),
    "binary-tree": lambda n, rng: np.column_stack([np.arange(1, n),
                                                   (np.arange(1, n) - 1) // 2]),
    "ladder": lambda n, rng: _ladder(n),
}


@pytest.mark.parametrize("shape", ROUND_SHAPES.values(), ids=ROUND_SHAPES.keys())
def test_components_take_about_log2_n_rounds(shape, caplog):
    """Hooking each node's parent, not only the node, is what halves the
    longest chain every round; without it a shuffled path takes thousands
    of rounds."""
    n = 20_000
    g = build_graph(shape(n, np.random.default_rng(0)), n)
    with caplog.at_level(logging.DEBUG, logger="pcfi.graph"):
        comps = connected_components(g)
    assert comps.num_components == 1 and not comps.labels.any()
    rounds = int(re.search(r"in (\d+) rounds", caplog.messages[-1]).group(1))
    assert rounds <= math.ceil(math.log2(n)) + 4


def test_induced_subgraph_keeps_internal_edges_only():
    g = build_graph([[0, 1], [1, 2], [2, 3], [3, 0], [1, 3]], 4)
    sub = induced_subgraph(g, np.array([0, 1, 3]))
    # kept: (0,1), (3,0), (1,3) -> remapped over [0, 1, 3] -> [0, 1, 2]
    assert sub.num_nodes == 3
    assert sub.num_edges == 3
    assert sub.neighbors(0).tolist() == [1, 2]
    assert sub.neighbors(1).tolist() == [0, 2]


def test_extract_largest_component_maps_ids():
    g = build_graph([[0, 1], [2, 3], [3, 4]], 5)
    sub, id_map, num_components = extract_largest_component(g)
    assert id_map.tolist() == [2, 3, 4]
    assert num_components == 2
    assert sub.num_nodes == 3
    assert sub.neighbors(1).tolist() == [0, 2]
    # one component: the graph itself, every id kept
    line = build_graph([[0, 1], [1, 2]], 3)
    same, id_map, num_components = extract_largest_component(line)
    assert same is line and id_map.tolist() == [0, 1, 2] and num_components == 1
    empty, id_map, num_components = extract_largest_component(build_graph([], 0))
    assert empty.num_nodes == 0 and id_map.size == 0 and num_components == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabeling_nodes_relabels_components(data):
    n = data.draw(st.integers(2, 25))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(pair, max_size=40))
    perm = data.draw(st.permutations(range(n)))
    perm = np.array(perm)
    g = build_graph(edges, n)
    g2 = build_graph([(perm[i], perm[j]) for i, j in edges], n)
    c1 = connected_components(g).labels
    c2 = connected_components(g2).labels
    # same partition up to renaming: nodes share a component before the
    # relabeling iff their images share one after
    for i in range(n):
        for j in range(n):
            assert (c1[i] == c1[j]) == (c2[perm[i]] == c2[perm[j]])


@st.composite
def _edge_lists(draw, max_nodes=25):
    """Node count and raw pairs: repeats, both orientations, self-loops,
    isolated nodes and empty lists all occur."""
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return 0, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=3 * n))
    extra = draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    return n, edges + [(j, i) for i, j in extra]


def _assert_same_csr(g, indptr, indices):
    for got, want in ((g.indptr, indptr), (g.indices, indices)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(_edge_lists())
def test_build_matches_reference(case):
    n, edges = case
    _assert_same_csr(build_graph(edges, n), *build_graph_reference(edges, n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_induced_subgraph_matches_reference(data):
    n, edges = data.draw(_edge_lists())
    g = build_graph(edges, n)
    subsets = [np.arange(0), np.arange(n),
               np.array(sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)),
                                                  max_size=n))), dtype=np.int64)]
    for nodes in subsets:
        _assert_same_csr(induced_subgraph(g, nodes),
                         *induced_subgraph_reference(g, nodes))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_induced_subgraph_in_any_node_order(data):
    """Ids follow the order of ``nodes``, and neighbor lists stay sorted
    as every graph's are: the same CSR as building the relabeled edges."""
    n, edges = data.draw(_edge_lists())
    g = build_graph(edges, n)
    nodes = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    nodes = nodes[:data.draw(st.integers(0, n))]
    new_id = {int(v): k for k, v in enumerate(nodes)}
    inside = [(new_id[i], new_id[j]) for i, j in g.edge_array().tolist()
              if i in new_id and j in new_id]
    want = build_graph(inside, nodes.size)
    _assert_same_csr(induced_subgraph(g, nodes), want.indptr, want.indices)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fp_baseline_matches_reference_bits(data):
    n, edges = data.draw(_edge_lists())
    g = build_graph(edges, n)
    f = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    known = rng.random((n, f)) < 0.5
    fs = apply_mask(rng.normal(size=(n, f)), known)
    steps = data.draw(st.integers(1, 12))
    res = fp_baseline(g, fs, compute_spds(g, known), steps=steps, lenient=True)
    if n == 0:
        return
    values, residuals = fp_baseline_reference(g, fs.values, known, steps)
    assert np.array_equal(res.values.view(np.uint64), values.view(np.uint64))
    assert np.array_equal(res.residuals.view(np.uint64), residuals.view(np.uint64))
