import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcfi import (InputError, SpdsMatrix, UNREACHABLE, apply_mask, build_graph,
                  compute_spds, evaluate, impute_stage1, multi_source_bfs,
                  propagate_stage2, pseudo_confidence, structural_mask,
                  uniform_mask)

from pcfi import confidence
from pcfi import io as pio
from pcfi.confidence import BLOCK_COLUMNS, distance_dtype

from _oracles import (compute_spds_channel, floyd_warshall,
                      pseudo_confidence_reference, random_gnp_edges,
                      relative_pc, spds_reference)


@pytest.mark.parametrize("seed", range(10))
def test_bfs_matches_all_pairs_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 45))
    edges = random_gnp_edges(rng, n, 0.08)
    g = build_graph(edges, n)
    known = uniform_mask(n, 3, 0.6, seed=seed) if n > 1 else np.ones((n, 3), bool)
    allpairs = floyd_warshall(n, edges)
    spds = compute_spds(g, known, 0.5)
    for d in range(3):
        ref = spds_reference(allpairs, known[:, d])
        assert np.array_equal(spds.distances[:, d], ref), f"channel {d}"


def test_structural_mask_broadcasts_one_search():
    rng = np.random.default_rng(4)
    edges = random_gnp_edges(rng, 30, 0.1)
    g = build_graph(edges, 30)
    known = structural_mask(30, 5, 0.5, seed=1)
    spds = compute_spds(g, known, 0.5)
    # every channel identical, and equal to a per-channel run
    assert np.all(spds.distances == spds.distances[:, :1])
    per = np.column_stack([
        multi_source_bfs(g, np.flatnonzero(known[:, d])) for d in range(5)
    ])
    assert np.array_equal(spds.distances, per)


def test_sources_are_distance_zero_and_only_sources():
    rng = np.random.default_rng(11)
    edges = random_gnp_edges(rng, 25, 0.12)
    g = build_graph(edges, 25)
    known = uniform_mask(25, 4, 0.5, seed=2)
    spds = compute_spds(g, known, 0.9)
    assert np.array_equal(spds.distances == 0, known)


def test_empty_source_set_is_all_unreachable():
    g = build_graph([[0, 1]], 2)
    assert multi_source_bfs(g, np.array([], dtype=np.int64)).tolist() == [-1, -1]


def test_unreachable_in_disconnected_graph():
    g = build_graph([[0, 1], [2, 3]], 4)
    dist = multi_source_bfs(g, np.array([0]))
    assert dist.tolist() == [0, 1, UNREACHABLE, UNREACHABLE]


def test_pseudo_confidence_values():
    s = SpdsMatrix(distances=np.array([[0, 1], [2, UNREACHABLE]]), alpha=0.5)
    xi = pseudo_confidence(s)
    assert xi.tolist() == [[1.0, 0.5], [0.25, 0.0]]


@pytest.mark.parametrize("alpha", [0.1, 0.37, 0.5, 0.8, 0.9, 0.999])
def test_pseudo_confidence_matches_elementwise_power_bitwise(alpha):
    rng = np.random.default_rng(int(alpha * 1000))
    dist = rng.integers(-1, 2001, size=(300, 40))
    dist[:5] = np.arange(40) * 50  # every depth up to 1950
    dist[5, :3] = [UNREACHABLE, 2000, 0]
    xi = pseudo_confidence(SpdsMatrix(distances=dist, alpha=alpha))
    expected = pseudo_confidence_reference(dist, alpha)
    assert xi.dtype == np.float64 and xi.shape == dist.shape
    assert xi.tobytes() == expected.tobytes()
    if alpha == 0.1:
        # deep entries underflow through the subnormals to exactly 0.0
        assert np.all(xi[dist >= 324] == 0.0)
        assert np.any((xi > 0.0) & (xi < np.finfo(np.float64).tiny))
    assert np.all(xi[dist == UNREACHABLE] == 0.0)


@pytest.mark.parametrize("deep", [10**12, 2**40])
def test_pseudo_confidence_of_huge_distances_is_bounded(deep):
    """A field may hold any distance >= -1; a power table as long as the
    largest one would not fit in memory."""
    dist = np.array([[0, deep, UNREACHABLE], [3, 1, deep - 1]])
    xi = pseudo_confidence(SpdsMatrix(distances=dist, alpha=0.9))
    assert xi.tobytes() == pseudo_confidence_reference(dist, 0.9).tobytes()
    assert xi.tolist() == [[1.0, 0.0, 0.0], [0.9 ** 3, 0.9, 0.0]]


def test_pseudo_confidence_of_empty_and_all_unreachable():
    for dist in (np.zeros((0, 3), np.int64), np.full((4, 2), UNREACHABLE)):
        xi = pseudo_confidence(SpdsMatrix(distances=dist, alpha=0.5))
        assert xi.shape == dist.shape and np.all(xi == 0.0)


def test_pseudo_confidence_monotone_in_distance():
    s = SpdsMatrix(distances=np.arange(12).reshape(12, 1), alpha=0.8)
    xi = pseudo_confidence(s)[:, 0]
    assert np.all(np.diff(xi) < 0)
    assert xi[0] == 1.0


def test_relative_pc_ratio_and_errors():
    s = SpdsMatrix(distances=np.array([[0], [1], [2], [UNREACHABLE]]), alpha=0.25)
    assert relative_pc(s, 1, 2, 0) == 0.25       # deeper neighbor
    assert relative_pc(s, 2, 1, 0) == 4.0        # shallower neighbor
    assert relative_pc(s, 1, 1, 0) == 1.0
    with pytest.raises(InputError, match="unreachable"):
        relative_pc(s, 0, 3, 0)


def test_spds_matrix_validation():
    with pytest.raises(InputError):
        SpdsMatrix(distances=np.array([[-2]]), alpha=0.5)
    with pytest.raises(InputError):
        SpdsMatrix(distances=np.array([[0]]), alpha=1.0)
    with pytest.raises(InputError):
        SpdsMatrix(distances=np.array([[0]]), alpha=0.0)


def test_spds_matrix_keeps_signed_integer_types():
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        dist = np.array([[0, 1], [UNREACHABLE, 2]], dtype=dtype)
        assert SpdsMatrix(distances=dist, alpha=0.5).distances.dtype == dtype
    for other in (np.array([[0.0, 2.0]]), np.array([[0, 2]], np.uint8),
                  [[0, 2]], np.array([[True, False]])):
        assert SpdsMatrix(distances=other, alpha=0.5).distances.dtype == np.int64


def test_distance_type_holds_every_hop_count():
    for n, dtype in [(0, np.int8), (127, np.int8), (128, np.int16),
                     (32767, np.int16), (32768, np.int32),
                     (2**31 - 1, np.int32), (2**31, np.int64)]:
        assert distance_dtype(n) == dtype, n
    # a path's far end is n - 1 hops away
    for n in (127, 128):
        g = build_graph(np.column_stack([np.arange(n - 1), np.arange(1, n)]), n)
        known = np.zeros((n, 1), dtype=bool)
        known[0] = True
        dist = compute_spds(g, known, 0.5).distances
        assert dist.dtype == distance_dtype(n)
        assert dist[:, 0].tolist() == list(range(n))


@pytest.mark.parametrize("n", [100, 300])
def test_narrow_field_matches_its_int64_copy(tmp_path, n):
    """Confidences, both stages, the evaluation report and the written
    field are the same from the searched field (int8 for 100 nodes, int16
    for 300) as from an int64 copy of it, unreachable entries included."""
    rng = np.random.default_rng(n)
    g = build_graph(random_gnp_edges(rng, n, 2.5 / n), n)
    known = uniform_mask(n, 40, 0.8, seed=n)
    narrow = compute_spds(g, known, 0.8)
    wide = SpdsMatrix(distances=narrow.distances.astype(np.int64), alpha=0.8)
    assert narrow.distances.dtype == distance_dtype(n) != np.int64
    assert np.any(narrow.distances == UNREACHABLE)
    assert (pseudo_confidence(narrow).tobytes()
            == pseudo_confidence(wide).tobytes())

    truth = rng.normal(size=(n, 40))
    fs = apply_mask(truth, known)
    outputs = []
    for spds in (narrow, wide):
        values = impute_stage1(g, fs, spds, steps=30, lenient=True).values
        values = propagate_stage2(values, spds, 0.05)
        name = f"{spds.distances.dtype}"
        pio.write_json(tmp_path / f"{name}.json",
                       evaluate(truth, values, known, spds).to_dict())
        pio.write_spds(tmp_path / f"{name}.csv", spds.distances)
        outputs.append([values.tobytes()] + [
            (tmp_path / f"{name}.{ext}").read_bytes() for ext in ("json", "csv")])
    assert outputs[0] == outputs[1]


def test_compute_spds_shape_check():
    g = build_graph([[0, 1]], 2)
    with pytest.raises(InputError):
        compute_spds(g, np.ones((3, 2), dtype=bool), 0.5)


def test_compute_spds_searches_each_known_set_once(monkeypatch):
    """Channels sharing a known set share one search, and more distinct
    sets than one block holds, in shuffled order, each land in their own
    columns."""
    rng = np.random.default_rng(5)
    n = 40
    edges = random_gnp_edges(rng, n, 0.06)
    g = build_graph(edges, n)
    distinct = uniform_mask(n, 2 * BLOCK_COLUMNS + 3, 0.7, seed=5)
    distinct[:, 0] = False
    distinct[:, 1] = True
    known = distinct[:, rng.permutation(np.repeat(np.arange(distinct.shape[1]), 2))]
    searched = []
    real = confidence._bfs_block

    def counting(adj, sources):
        assert sources.flags.c_contiguous
        searched.append(sources.shape[1])
        return real(adj, sources)

    monkeypatch.setattr(confidence, "_bfs_block", counting)
    spds = compute_spds(g, known, 0.5)
    assert searched == [BLOCK_COLUMNS, BLOCK_COLUMNS, 3]
    allpairs = floyd_warshall(n, edges)
    for d in range(known.shape[1]):
        ref = spds_reference(allpairs, known[:, d])
        assert np.array_equal(spds.distances[:, d], ref), f"channel {d}"


def test_compute_spds_channel_matches_bfs():
    g = build_graph([[0, 1], [1, 2]], 3)
    col = np.array([False, False, True])
    assert compute_spds_channel(g, col).tolist() == [2, 1, 0]
    assert np.array_equal(compute_spds_channel(g, col),
                          multi_source_bfs(g, np.flatnonzero(col)))
    with pytest.raises(InputError, match="shape"):
        compute_spds_channel(g, np.ones(4, dtype=bool))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_neighbor_distances_differ_by_at_most_one(data):
    """The distance field is 1-Lipschitz along edges, which is what makes
    every edge weight land in {1/alpha, 1, alpha}."""
    n = data.draw(st.integers(2, 30))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(pair, max_size=60))
    sources = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    g = build_graph(edges, n)
    dist = multi_source_bfs(g, np.array(sorted(sources)))
    for i, j in g.edge_array():
        di, dj = dist[i], dist[j]
        assert (di == UNREACHABLE) == (dj == UNREACHABLE)
        if di != UNREACHABLE:
            assert abs(int(di) - int(dj)) <= 1
