import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _oracles import (feature_homophily_reference, random_gnp_edges,
                      sample_features_reference, sbm_edges_reference)
from conftest import run_cli
from pcfi import (InputError, SynthSpec, build_graph, confidence,
                  connected_components, equidistant_means, generate,
                  generate_labels, sbm_edges, synth)
from pcfi.cli import main
from pcfi.io import write_dataset


def test_generation_is_deterministic():
    spec = SynthSpec(num_nodes=400, num_classes=4, feature_dim=3,
                     intra_edge_prob=0.04, inter_edge_prob=0.008, seed=5)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.graph.indptr, b.graph.indptr)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = generate(SynthSpec(num_nodes=400, num_classes=4, feature_dim=3,
                           intra_edge_prob=0.04, inter_edge_prob=0.008, seed=6))
    assert not np.array_equal(a.features, c.features)


def _tier_pairs(labels: np.ndarray):
    """Every pair (i, j), i < j, split into within- and between-class."""
    i, j = np.triu_indices(labels.size, 1)
    same = labels[i] == labels[j]
    pairs = np.column_stack([i, j]).astype(np.int64)
    return pairs[same], pairs[~same]


def _check_structure(edges: np.ndarray, n: int):
    assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 2
    assert np.all(edges[:, 0] < edges[:, 1])
    assert np.all((edges >= 0) & (edges < n))
    keys = edges[:, 0] * n + edges[:, 1]
    assert np.all(np.diff(keys) > 0)  # rows strictly increasing by (i, j)


def _within_sd(count: int, pairs: int, p: float, sds: float = 5.0) -> bool:
    return abs(count - pairs * p) <= sds * np.sqrt(pairs * p * (1 - p))


@pytest.mark.parametrize("intra, inter", [(0.05, 0.004), (0.004, 0.05),
                                          (0.0, 0.03), (0.03, 0.0), (0.0, 0.0),
                                          (1.0, 0.01), (0.01, 1.0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sbm_edges_match_reference_loop(intra, inter, seed):
    # the sampler and the one-draw-per-pair loop consume the stream
    # differently, so they agree in law: a tier at p = 0 or 1 gives the
    # same pairs in both, and each random tier's count lies within 5 sd of
    # its binomial mean in both
    labels = generate_labels(150, 4, np.random.Generator(np.random.PCG64(seed)))
    tiers = _tier_pairs(labels)
    for sample in (sbm_edges, sbm_edges_reference):
        edges = sample(labels, intra, inter,
                       np.random.Generator(np.random.PCG64(seed + 10)))
        _check_structure(edges, labels.size)
        same = labels[edges[:, 0]] == labels[edges[:, 1]]
        for got, pairs, p in zip((edges[same], edges[~same]), tiers, (intra, inter)):
            if p in (0.0, 1.0):
                assert np.array_equal(got, pairs if p else pairs[:0])
            else:
                assert _within_sd(len(got), len(pairs), p)


@pytest.mark.parametrize("sample", [sbm_edges, sbm_edges_reference],
                         ids=["sbm_edges", "reference"])
def test_sbm_pair_frequencies_match_their_probabilities(sample):
    # unsorted, non-contiguous, negative labels; 2400 seeds, so each of the
    # 66 pairs' frequency has a binomial sd of 1 % at most
    labels = np.array([5, -1, 2, 2, 5, -1, 5, 2, -1, -1, 2, 5])
    n, seeds, intra, inter = labels.size, 2400, 0.6, 0.15
    counts = np.zeros((n, n), dtype=np.int64)
    for seed in range(seeds):
        edges = sample(labels, intra, inter, np.random.Generator(np.random.PCG64(seed)))
        _check_structure(edges, n)
        counts[edges[:, 0], edges[:, 1]] += 1
    assert not np.tril(counts).any()
    i, j = np.triu_indices(n, 1)
    p = np.where(labels[i] == labels[j], intra, inter)
    sd = np.sqrt(seeds * p * (1 - p))
    assert np.all(np.abs(counts[i, j] - seeds * p) <= 5 * sd)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sbm_tier_counts_at_20000_nodes(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = generate_labels(20000, 7, rng)
    intra, inter = 0.0007, 0.00003
    edges = sbm_edges(labels, intra, inter, rng)
    _check_structure(edges, labels.size)
    sizes = np.bincount(labels)
    intra_pairs = int((sizes * (sizes - 1) // 2).sum())
    inter_pairs = labels.size * (labels.size - 1) // 2 - intra_pairs
    same = labels[edges[:, 0]] == labels[edges[:, 1]]
    assert _within_sd(int(same.sum()), intra_pairs, intra)
    assert _within_sd(int((~same).sum()), inter_pairs, inter)


def test_cli_synth_at_ogbn_arxiv_size(tmp_path):
    """``pcfi synth`` makes a 169 343-node, 40-class graph within 20 s,
    which a sampler quadratic in the node count cannot; its edge count
    lies within 5 sd of the SBM's binomial mean, and both homophily facts
    are finite."""
    run_cli(["synth", "--num-nodes", "169343", "--num-classes", "40",
             "--feature-dim", "4", "--intra", "0.0035", "--inter", "0.00005",
             "--seed", "0", "--out", str(tmp_path)], timeout=20)
    meta = json.loads((tmp_path / "meta.json").read_text())
    spec = meta["spec"]
    n, c = spec["num_nodes"], spec["num_classes"]
    sizes = [n // c + (k < n % c) for k in range(c)]
    intra = sum(s * (s - 1) // 2 for s in sizes)
    inter = n * (n - 1) // 2 - intra
    p, q = spec["intra_edge_prob"], spec["inter_edge_prob"]
    mean = intra * p + inter * q
    sd = math.sqrt(intra * p * (1 - p) + inter * q * (1 - q))
    edges = meta["num_edges_generated"]
    assert meta["num_nodes_generated"] == 169343
    assert abs(edges - mean) <= 5 * sd, f"{edges} edges; expected {mean:.0f} +- {sd:.0f}"
    for fact in ("class_homophily", "feature_homophily"):
        assert isinstance(meta[fact], float) and math.isfinite(meta[fact]), fact


@pytest.mark.parametrize("labels", [[5, -1, 2, 2, 5, -1, 5, 2, -1], [3, 3, 3, 3],
                                    [0, 1], [7]], ids=["3-classes", "1-class",
                                                       "2-singletons", "1-node"])
def test_sbm_edges_at_certain_probabilities(labels):
    labels = np.array(labels)
    intra_pairs, inter_pairs = _tier_pairs(labels)
    every = np.concatenate([intra_pairs, inter_pairs])
    every = every[np.lexsort((every[:, 1], every[:, 0]))]
    for (intra, inter), want in [((0.0, 0.0), every[:0]), ((1.0, 0.0), intra_pairs),
                                 ((0.0, 1.0), inter_pairs), ((1.0, 1.0), every)]:
        edges = sbm_edges(labels, intra, inter, np.random.Generator(np.random.PCG64(0)))
        _check_structure(edges, labels.size)
        assert np.array_equal(edges, want), (intra, inter)


class _GapsOfThree:
    """Stands in for the generator: every geometric gap is 3, far shorter
    than ``p`` implies, so each batch falls short of the range's end."""

    def geometric(self, p, size):
        return np.full(size, 3, dtype=np.int64)


def test_bernoulli_positions_continue_after_a_short_batch():
    # a real stream needs a second batch with probability far below 1e-9,
    # so the continuation is driven by a stand-in
    assert np.array_equal(synth._bernoulli_positions(1000, 0.01, _GapsOfThree()),
                          np.arange(2, 1000, 3))
    # a first gap past the end keeps nothing, the last position included,
    # and the cap on such gaps keeps their sum from wrapping
    rng = np.random.Generator(np.random.PCG64(0))
    assert synth._bernoulli_positions(10**15, 1e-300, rng).size == 0


GOLDEN_EDGES_40 = [
    [0, 23], [1, 26], [2, 16], [4, 12], [4, 18], [4, 22], [5, 7], [6, 39],
    [7, 11], [7, 20], [7, 38], [8, 28], [8, 34], [9, 19], [9, 20], [9, 30],
    [12, 15], [12, 25], [12, 39], [13, 25], [14, 16], [14, 30], [14, 31],
    [15, 26], [15, 29], [16, 20], [18, 35], [20, 32], [22, 36], [24, 34],
    [25, 31], [26, 32], [26, 37], [28, 34], [29, 36], [31, 34], [32, 35],
    [36, 39],
]
GOLDEN_NEXT_UNIFORM = 0.9126219336408856


def test_sbm_edges_draw_order_is_pinned():
    # a golden of the draw order: a change to how edges consume the stream
    # changes every generated dataset, and must fail here on purpose
    rng = np.random.Generator(np.random.PCG64(0))
    labels = generate_labels(40, 3, rng)
    edges = sbm_edges(labels, 0.15, 0.02, rng)
    assert edges.tolist() == GOLDEN_EDGES_40
    assert rng.random() == GOLDEN_NEXT_UNIFORM


def test_labels_balanced():
    rng = np.random.Generator(np.random.PCG64(0))
    labels = generate_labels(1000, 7, rng)
    counts = np.bincount(labels, minlength=7)
    assert counts.max() - counts.min() <= 1


def test_homophily_reflects_block_structure():
    spec = SynthSpec(num_nodes=600, num_classes=3, feature_dim=4,
                     intra_edge_prob=0.05, inter_edge_prob=0.005, seed=2)
    ds = generate(spec)
    # chance level would be ~1/3; the planted structure is far above it
    assert ds.meta["class_homophily"] > 0.5
    assert ds.meta["feature_homophily"] > 0.3


def test_denser_intra_raises_homophily():
    lo = generate(SynthSpec(num_nodes=500, num_classes=5, feature_dim=4,
                            intra_edge_prob=0.02, inter_edge_prob=0.02, seed=3))
    hi = generate(SynthSpec(num_nodes=500, num_classes=5, feature_dim=4,
                            intra_edge_prob=0.06, inter_edge_prob=0.005, seed=3))
    assert hi.meta["class_homophily"] > lo.meta["class_homophily"]


def test_largest_component_output_is_connected():
    spec = SynthSpec(num_nodes=300, num_classes=3, feature_dim=2,
                     intra_edge_prob=0.02, inter_edge_prob=0.002, seed=1)
    ds = generate(spec)
    assert connected_components(ds.graph).num_components == 1
    assert ds.features.shape == (ds.graph.num_nodes, 2)
    assert ds.labels.shape == (ds.graph.num_nodes,)


def test_keep_all_components():
    spec = SynthSpec(num_nodes=200, num_classes=2, feature_dim=2,
                     intra_edge_prob=0.01, inter_edge_prob=0.001, seed=4,
                     largest_component=False)
    ds = generate(spec)
    assert ds.graph.num_nodes == 200


def test_simplex_means_exactly_equidistant():
    rng = np.random.Generator(np.random.PCG64(0))
    for c, f in [(2, 1), (3, 2), (4, 8), (6, 5), (10, 9)]:
        means, info = equidistant_means(c, f, rng)
        assert info["means_kind"] == "simplex"
        assert means.shape == (c, f)
        for a in range(c):
            for b in range(a + 1, c):
                d = np.linalg.norm(means[a] - means[b])
                assert d == pytest.approx(1.0, abs=1e-12)


def test_maxmin_fallback_when_simplex_does_not_fit():
    rng = np.random.Generator(np.random.PCG64(0))
    means, info = equidistant_means(10, 5, rng)
    assert info["means_kind"] == "maxmin"
    assert means.shape == (10, 5)
    assert info["means_min_distance"] == pytest.approx(1.0, abs=1e-12)
    assert info["means_max_distance"] >= 1.0


def test_default_spec_uses_fallback_means_and_reports_spread():
    ds = generate(SynthSpec(num_nodes=300, intra_edge_prob=0.05, inter_edge_prob=0.01, seed=0))
    assert ds.meta["means_kind"] == "maxmin"
    assert ds.meta["means_min_distance"] == pytest.approx(1.0, abs=1e-12)


def test_noise_covariance_structure():
    # scale 0.2: per-channel std 0.2, cross-channel correlation 0.1
    spec = SynthSpec(num_nodes=4000, num_classes=1, feature_dim=4,
                     intra_edge_prob=0.002, inter_edge_prob=0.002, gaussian_scale=0.2,
                     seed=7, largest_component=False)
    ds = generate(spec)
    centered = ds.features - ds.features.mean(axis=0)
    cov = centered.T @ centered / (len(centered) - 1)
    assert np.allclose(np.diag(cov), 0.04, atol=0.005)
    off = cov[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.004, atol=0.003)


def test_noise_values_are_standard_normal_at_scale_one():
    """Every noise value at scale 1 is N(0, 1). The test above allows 0.005
    on a variance of 0.04, so it passes a sampler whose variance is 10 %
    off. Here the mean, the variance and the share beyond +-1.96 of
    200 000 values must each lie within 5 sd of N(0, 1)'s. A row's
    channels correlate at 0.1, so each sd takes the design effect
    1 + (F - 1) 0.1, which bounds the correlation of the values, of their
    squares and of their tails."""
    n, f = 50_000, 4
    rng = np.random.Generator(np.random.PCG64(11))
    noise = synth.sample_features(np.zeros(n, dtype=np.int64), np.zeros((1, f)),
                                  1.0, rng).ravel()
    values = noise.size / (1 + (f - 1) * 0.1)  # the effective sample size
    tail = 0.04999579029644087  # P(|Z| > 1.96)
    assert abs(noise.mean()) <= 5 * np.sqrt(1 / values)
    assert abs(noise.var() - 1) <= 5 * np.sqrt(2 / values)
    share = np.mean(np.abs(noise) > 1.96)
    assert abs(share - tail) <= 5 * np.sqrt(tail * (1 - tail) / values)


def _factor_matrix(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The lower-triangular matrix with ``d`` on its diagonal and ``c[j]``
    below the diagonal of column ``j``."""
    return np.diag(d) + np.tril(np.ones((d.size, d.size)), -1) * c


@pytest.mark.parametrize("scale", [0.1, 2.5])
@pytest.mark.parametrize("f", [1, 2, 7, 300, 1433])
def test_noise_factor_is_the_cholesky_factor_of_the_covariance(f, scale):
    cov = scale * scale * (0.9 * np.eye(f) + 0.1 * np.ones((f, f)))
    want = np.linalg.cholesky(cov)
    got = _factor_matrix(*synth._noise_factor(f, scale))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _draw(sample, labels, means, scale, seed):
    return sample(labels, means, scale, np.random.Generator(np.random.PCG64(seed)))


@pytest.mark.parametrize("scale", [0.1, 2.5])
@pytest.mark.parametrize("rows_per_block", [1, 7, 1000])
def test_sample_features_matches_the_explicit_factor_on_the_same_draws(
        monkeypatch, rows_per_block, scale):
    """Row blocks of 1 and 7 rows leave a short last block of the 52 rows;
    one block of 1000 rows holds them all."""
    rng = np.random.default_rng(3)
    n, f = 52, 9
    labels = rng.integers(0, 4, size=n)
    means = rng.normal(size=(4, f))
    want = _draw(sample_features_reference, labels, means, scale, 4)
    monkeypatch.setattr(confidence, "ROW_BLOCK_VALUES", rows_per_block * f)
    got = _draw(synth.sample_features, labels, means, scale, 4)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, scale)


def test_sample_features_of_scale_zero_are_the_means():
    labels = np.array([2, 0, 1, 1, 2, 0, 2])
    means = np.random.default_rng(5).normal(size=(3, 4))
    got = _draw(synth.sample_features, labels, means, 0.0, 0)
    assert got.tobytes() == means[labels].tobytes()


def test_sample_features_holds_no_second_array_of_its_size():
    """Besides the result, only row blocks are alive (here a block is 873 of
    the 3000 rows): the explicit factor's product and ``means[labels]``
    took about 2.2 arrays of the result's size."""
    n, f = 3000, 300
    labels = np.arange(n) % 5
    means = np.random.default_rng(6).normal(size=(5, f))
    rng = np.random.Generator(np.random.PCG64(0))
    synth.sample_features(labels[:1], means, 0.1, rng)  # imports outside the count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        synth.sample_features(labels, means, 0.1, rng)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * f * 8, peak


def test_fragmentation_warning():
    with pytest.warns(UserWarning, match="fragmented"):
        generate(SynthSpec(num_nodes=100, num_classes=2, feature_dim=2,
                           intra_edge_prob=0.001, inter_edge_prob=0.0, seed=0))


def test_disconnected_classes_warn_even_when_dense():
    # intra=1 gives huge expected degree, yet inter=0 guarantees >= 2 components
    with pytest.warns(UserWarning, match="fragmented"):
        generate(SynthSpec(num_nodes=40, num_classes=2, feature_dim=2,
                           intra_edge_prob=1.0, inter_edge_prob=0.0, seed=0,
                           largest_component=False))


def test_written_meta_spec_is_the_spec(tmp_path):
    spec = SynthSpec(num_nodes=60, num_classes=3, feature_dim=2,
                     intra_edge_prob=0.3, inter_edge_prob=0.05,
                     gaussian_scale=0.25, seed=3, largest_component=False)
    write_dataset(tmp_path, generate(spec))
    written = json.loads((tmp_path / "meta.json").read_text())["spec"]
    assert written == {"num_nodes": 60, "num_classes": 3, "feature_dim": 2,
                       "intra_edge_prob": 0.3, "inter_edge_prob": 0.05,
                       "gaussian_scale": 0.25, "seed": 3,
                       "largest_component": False}


def test_spec_validation():
    with pytest.raises(InputError):
        SynthSpec(num_nodes=0)
    with pytest.raises(InputError):
        SynthSpec(num_nodes=10, num_classes=11)
    with pytest.raises(InputError):
        SynthSpec(intra_edge_prob=1.5)
    with pytest.raises(InputError, match="feature_dim must be >= 1, got 0"):
        SynthSpec(feature_dim=0)
    for scale in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="gaussian_scale"):
            SynthSpec(gaussian_scale=scale)


def test_spec_refuses_a_negative_seed():
    with pytest.raises(InputError, match="seed must be a non-negative integer, got -1"):
        SynthSpec(num_nodes=30, seed=-1)
    with pytest.raises(InputError, match="seed must be a non-negative integer, got 1.5"):
        SynthSpec(num_nodes=30, seed=1.5)


def test_homophily_helpers_validate():
    """A fact that no edge defines is None: both facts on an edgeless
    graph, the feature fact when every endpoint has a zero norm."""
    g = build_graph([], 3)
    assert synth._homophily(g, np.zeros(3, dtype=np.int64),
                            np.ones((3, 2))) == (None, None)
    g2 = build_graph([[0, 1]], 2)
    assert synth._homophily(g2, np.array([0, 1]), np.zeros((2, 2))) == (0.0, None)


@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("seed", range(4))
def test_feature_homophily_matches_unchunked_oracle(monkeypatch, chunk, seed):
    """Row blocks of ``chunk`` edges (the block size set to ``chunk`` rows
    of F values) give the unchunked oracle's float."""
    rng = np.random.default_rng(seed)
    n, f = 120, 1 + 13 * seed
    edges = random_gnp_edges(rng, n, 0.15)
    features = rng.normal(size=(n, f)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    zero = rng.random(n) < 0.2
    features[zero] = 0.0  # edges with a zero-norm endpoint are dropped
    while np.count_nonzero(~zero[edges].any(axis=1)) % 7 == 0:
        edges = edges[:-1]  # leave a short last block
    kept = np.count_nonzero(~zero[edges].any(axis=1))
    assert kept % 512 and kept > 512 and kept < edges.shape[0]
    g = build_graph(edges, n)
    monkeypatch.setattr(confidence, "ROW_BLOCK_VALUES", chunk * f)
    labels = np.zeros(n, dtype=np.int64)
    got = synth._homophily(g, labels, features)[1]
    assert got == feature_homophily_reference(g, features)


@pytest.mark.parametrize("num_edges", [100, 700])
def test_homophily_over_row_blocks_matches_an_explicit_edge_list(num_edges):
    """At F = 2000 a row block holds 131 edges: of 100 edges one block
    holds every kept edge, of 700 the kept edges span several."""
    rng = np.random.default_rng(num_edges)
    n, f = 80, 2000
    assert confidence.ROW_BLOCK_VALUES // f == 131
    pairs = np.sort(rng.integers(0, n, size=(3 * num_edges, 2)), axis=1)
    pairs = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
    pairs = pairs[rng.permutation(pairs.shape[0])[:num_edges]]  # i < j
    labels = rng.integers(0, 3, size=n)
    features = rng.normal(size=(n, f))
    zero = rng.random(n) < 0.2
    features[zero] = 0.0
    kept = np.count_nonzero(~zero[pairs].any(axis=1))
    assert 0 < kept < num_edges and (kept > 131) == (num_edges > 131)
    g = build_graph(pairs, n)
    same, cos = synth._homophily(g, labels, features)
    assert same == np.mean(labels[pairs[:, 0]] == labels[pairs[:, 1]])
    assert cos == feature_homophily_reference(g, features)


def test_feature_homophily_all_zero_norm_error_matches_oracle():
    """Where the oracle finds the feature fact undefined, it is None."""
    g = build_graph(np.array([[0, 1], [1, 2], [2, 3]]), 4)
    features = np.zeros((4, 3))
    features[[0, 2], 0] = 1.0  # every edge has one zero-norm endpoint
    with pytest.raises(InputError, match="zero-norm"):
        feature_homophily_reference(g, features)
    assert synth._homophily(g, np.array([0, 0, 1, 1]), features) == (2 / 3, None)


def test_undefined_facts_are_written_as_null(tmp_path, caplog):
    """One class without noise: every feature is zero, so the feature fact
    is undefined; an edgeless graph leaves both facts undefined."""
    one, edgeless = tmp_path / "one", tmp_path / "edgeless"
    assert main(["--quiet", "synth", "--num-nodes", "50", "--num-classes", "1",
                 "--feature-dim", "3", "--intra", "0.2", "--inter", "0",
                 "--gaussian-scale", "0", "--out", str(one)]) == 0
    meta = json.loads((one / "meta.json").read_text())
    assert meta["num_edges"] > 0
    assert meta["class_homophily"] == 1.0 and meta["feature_homophily"] is None
    with pytest.warns(UserWarning, match="fragmented"), \
            caplog.at_level("INFO", logger="pcfi"):
        assert main(["synth", "--num-nodes", "30", "--num-classes", "3",
                     "--intra", "0", "--inter", "0", "--keep-all-components",
                     "--out", str(edgeless)]) == 0
    assert "0 edges" in caplog.text and "(class homophily n/a)" in caplog.text
    meta = json.loads((edgeless / "meta.json").read_text())
    assert meta["class_homophily"] is None and meta["feature_homophily"] is None


@pytest.mark.parametrize("nodes,classes,dim", [(60, 3, 1), (2000, 600, 5)])
def test_cli_synth_refuses_class_means_that_cannot_be_distinct(tmp_path, caplog,
                                                               nodes, classes,
                                                               dim):
    """A 1-D pool holds two distinct unit vectors, and 600 classes exhaust
    the 512-vector pool."""
    out = tmp_path / "data"
    with warnings.catch_warnings(), caplog.at_level("ERROR", logger="pcfi"):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["synth", "--num-nodes", str(nodes), "--num-classes",
                     str(classes), "--feature-dim", str(dim), "--intra", "0.1",
                     "--inter", "0.01", "--out", str(out)]) == 2
    assert f"cannot place {classes} distinct class means in {dim} dimension(s)" \
        in caplog.text
    assert not out.exists()
