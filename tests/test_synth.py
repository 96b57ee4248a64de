import json

import numpy as np
import pytest

from _oracles import (feature_homophily_reference, random_gnp_edges,
                      sbm_edges_reference)
from pcfi import (InputError, SynthSpec, build_graph, class_homophily,
                  connected_components, equidistant_means, feature_homophily,
                  generate, generate_labels, sbm_edges, synth)
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


@pytest.mark.parametrize("intra, inter", [(0.05, 0.004), (0.004, 0.05),
                                          (0.0, 0.03), (0.03, 0.0), (0.0, 0.0),
                                          (1.0, 0.01), (0.01, 1.0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sbm_edges_match_reference_loop(intra, inter, seed):
    labels = generate_labels(150, 4, np.random.Generator(np.random.PCG64(seed)))
    rng = np.random.Generator(np.random.PCG64(seed + 10))
    ref_rng = np.random.Generator(np.random.PCG64(seed + 10))
    edges = sbm_edges(labels, intra, inter, rng)
    expected = sbm_edges_reference(labels, intra, inter, ref_rng)
    assert edges.dtype == expected.dtype == np.int64
    assert np.array_equal(edges, expected)
    # same draws, so the stream continues where the reference leaves it
    assert rng.random() == ref_rng.random()


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
    for scale in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="gaussian_scale"):
            SynthSpec(gaussian_scale=scale)


def test_spec_refuses_a_negative_seed():
    with pytest.raises(InputError, match="seed must be a non-negative integer, got -1"):
        SynthSpec(num_nodes=30, seed=-1)


def test_homophily_helpers_validate():
    from pcfi import build_graph
    g = build_graph([], 3)
    with pytest.raises(InputError, match="no edges"):
        class_homophily(g, np.zeros(3, dtype=np.int64))
    g2 = build_graph([[0, 1]], 2)
    with pytest.raises(InputError, match="zero-norm"):
        feature_homophily(g2, np.zeros((2, 2)))


@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("seed", range(4))
def test_feature_homophily_matches_unchunked_oracle(monkeypatch, chunk, seed):
    rng = np.random.default_rng(seed)
    n, f = 90, 1 + 13 * seed
    edges = random_gnp_edges(rng, n, 0.15)
    if edges.shape[0] % 7 == 0:
        edges = edges[:-1]  # leave a short last chunk
    g = build_graph(edges, n)
    assert g.num_edges % 7 and g.num_edges % 512 and g.num_edges > 512
    features = rng.normal(size=(n, f)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    features[rng.random(n) < 0.2] = 0.0  # zero-norm rows are skipped
    monkeypatch.setattr(synth, "_EDGE_CHUNK", chunk)
    assert feature_homophily(g, features) == feature_homophily_reference(g, features)


def test_feature_homophily_all_zero_norm_error_matches_oracle():
    g = build_graph(np.array([[0, 1], [1, 2], [2, 3]]), 4)
    features = np.zeros((4, 3))
    features[[0, 2], 0] = 1.0  # every edge has one zero-norm endpoint
    with pytest.raises(InputError) as want:
        feature_homophily_reference(g, features)
    with pytest.raises(InputError) as got:
        feature_homophily(g, features)
    assert str(got.value) == str(want.value)
