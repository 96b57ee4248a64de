"""Synthetic attributed graphs with planted class structure.

:func:`generate` is the one generator: it turns a :class:`SynthSpec`
into a :class:`SynthDataset` (graph, features, labels and metadata).
Nodes get balanced class labels; edges are drawn independently with one
probability inside a class and another across classes (a stochastic
block model with two tiers). Features are Gaussian around per-class
mean vectors that are pairwise equidistant whenever the embedding
dimension allows an exact regular simplex (``classes - 1 <= channels``);
otherwise means are picked greedily to maximize the minimum pairwise
distance. The metadata records which construction was used
(``means_kind``) and the achieved spread.

The noise covariance couples channels: diagonal ``scale**2`` with
off-diagonal entries at one tenth of that, so channels are genuinely
correlated and the inter-channel propagation stage has signal to use.
Its Cholesky factor has a closed form (every Schur complement of an
equicorrelated matrix is again equicorrelated), so the noise costs
O(nodes x channels) with no F x F matrix, factorization or matrix
product, and its bits do not depend on the BLAS or LAPACK build.

All randomness flows through one PCG64 stream in a fixed draw order
(label shuffle, within-class edges, between-class edges, means pool if
needed, noise), so a seed pins the dataset exactly for a given numpy.
Edges cost O(nodes + classes + edges): :func:`sbm_edges` draws the gaps
between edges, not one uniform per node pair. Normal deviates are
numpy's ``Generator.standard_normal``, as the gaps are its
``Generator.geometric``, so generating a dataset loads no scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .confidence import row_blocks
from .errors import InputError
from .graph import Graph, build_graph, extract_largest_component
from .masking import check_seed

__all__ = [
    "SynthSpec",
    "SynthDataset",
    "generate",
    "generate_labels",
    "sbm_edges",
    "equidistant_means",
]


@dataclass(frozen=True)
class SynthSpec:
    """Generation parameters.

    ``intra_edge_prob``/``inter_edge_prob`` are the edge probabilities
    within/between classes; ``gaussian_scale`` is the per-channel noise
    standard deviation around the class mean, finite and >= 0; ``seed``
    must be >= 0.
    ``largest_component`` restricts the output to the largest connected
    component (labels and features are restricted consistently).
    :func:`generate` records every field under ``meta["spec"]``.
    """

    num_nodes: int = 5000
    num_classes: int = 10
    feature_dim: int = 5
    intra_edge_prob: float = 0.01
    inter_edge_prob: float = 0.0011
    gaussian_scale: float = 0.1
    seed: int = 0
    largest_component: bool = True

    def __post_init__(self):
        if self.num_nodes < 1:
            raise InputError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.num_classes < 1 or self.num_classes > self.num_nodes:
            raise InputError(
                f"num_classes must lie in [1, num_nodes], got {self.num_classes}"
            )
        if self.feature_dim < 1:
            raise InputError(f"feature_dim must be >= 1, got {self.feature_dim}")
        for name in ("intra_edge_prob", "inter_edge_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise InputError(f"{name} must lie in [0, 1], got {p}")
        if not (0.0 <= self.gaussian_scale < np.inf):
            raise InputError(
                f"gaussian_scale must be finite and >= 0, got {self.gaussian_scale}"
            )
        check_seed(self.seed)


@dataclass(frozen=True)
class SynthDataset:
    """Generated graph, features, labels, and generation metadata.

    ``meta`` is what ``io.write_dataset`` writes as ``meta.json``: the
    spec's fields under ``spec``, then the facts of the generated graph.
    """

    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    meta: dict


def generate_labels(num_nodes: int, num_classes: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Balanced labels (sizes differ by at most one), order shuffled."""
    base = np.arange(num_nodes, dtype=np.int64) % num_classes
    order = np.argsort(rng.random(num_nodes), kind="stable")
    return base[order]


def _bernoulli_positions(total: int, p: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Sorted positions in ``range(total)``, each kept independently with
    probability ``p``.

    The gaps between kept positions are geometric, so they are drawn
    directly, in batches sized to cover the rest of the range with high
    probability (one batch, nearly always)."""
    found = []
    last = -1  # the last position drawn
    while p > 0.0 and last < total - 1:
        expect = (total - 1 - last) * p
        gaps = rng.geometric(p, int(expect + 4.0 * np.sqrt(expect)) + 16)
        # a gap past the end ends the draw; capping it just past the end
        # (from any start >= -1) keeps the sum in int64
        np.minimum(gaps, total + 1, out=gaps)
        pos = last + np.cumsum(gaps)
        found.append(pos[:np.searchsorted(pos, total)])
        last = pos[-1]
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def _block_cells(rows: np.ndarray, cols: np.ndarray, p: float,
                 rng: np.random.Generator):
    """Cells of the blocks ``rows[k] x cols[k]``, laid end to end in one
    index space, each kept with probability ``p``: returns the block, row
    and column of every kept cell."""
    offsets = np.concatenate([[0], np.cumsum(rows * cols)])
    pos = _bernoulli_positions(int(offsets[-1]), p, rng)
    block = np.searchsorted(offsets, pos, side="right") - 1
    row, col = np.divmod(pos - offsets[block], cols[block])
    return block, row, col


def sbm_edges(labels: np.ndarray, intra_p: float, inter_p: float,
              rng: np.random.Generator) -> np.ndarray:
    """Sample undirected edges: each pair (i, j), i < j, is an edge with
    probability ``intra_p`` if labels match, else ``inter_p``,
    independently of every other pair.

    Time and memory are O(nodes + classes + edges). The nodes are grouped
    by class (ascending node order within each), and each tier's pairs are
    laid out as blocks in one index space whose kept cells are drawn by
    geometric gaps: first every class's ``n_c x n_c`` square at
    ``intra_p`` (keeping row < column, so at most twice the pairs), then
    one rectangle per class, its nodes by the nodes of all later classes,
    at ``inter_p``. Returns int64 ``(E, 2)`` rows with i < j, sorted."""
    n = labels.size
    order = np.argsort(labels, kind="stable")
    sizes = np.unique(labels, return_counts=True)[1]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    block, x, y = _block_cells(sizes, sizes, intra_p, rng)
    keep = x < y
    first = starts[block[keep]]
    intra_i, intra_j = order[first + x[keep]], order[first + y[keep]]
    block, x, y = _block_cells(sizes, n - ends, inter_p, rng)
    a, b = order[starts[block] + x], order[ends[block] + y]
    keys = np.sort(np.concatenate([intra_i * n + intra_j,
                                   np.minimum(a, b) * n + np.maximum(a, b)]))
    return np.column_stack(np.divmod(keys, n))


def _helmert_rows(c: int) -> np.ndarray:
    """(c-1) orthonormal rows spanning the hyperplane orthogonal to ones."""
    h = np.zeros((c - 1, c))
    for i in range(1, c):
        norm = np.sqrt(i * (i + 1.0))
        h[i - 1, :i] = 1.0 / norm
        h[i - 1, i] = -i / norm
    return h


# the max-min fallback picks class means from this many random unit vectors
_MEANS_POOL = 512


def equidistant_means(num_classes: int, feature_dim: int,
                      rng: np.random.Generator):
    """Class mean vectors, as spread out as the dimension allows.

    When ``num_classes - 1 <= feature_dim`` the means are the vertices
    of a regular simplex with unit pairwise distance (exact). Otherwise
    a greedy farthest-point pass over a random unit-sphere pool
    maximizes the minimum pairwise distance, and the result is rescaled
    so that minimum is 1; :class:`InputError` if the pool cannot supply
    ``num_classes`` distinct points.

    Returns ``(means, info)`` where ``info`` records the construction
    and the achieved min/max pairwise distance.
    """
    c, f = num_classes, feature_dim
    if c == 1:
        return np.zeros((1, f)), {"means_kind": "single",
                                  "means_min_distance": None,
                                  "means_max_distance": None}
    if c - 1 <= f:
        verts = (np.eye(c) - 1.0 / c) @ _helmert_rows(c).T / np.sqrt(2.0)
        means = np.zeros((c, f))
        means[:, :c - 1] = verts
        info = {"means_kind": "simplex",
                "means_min_distance": 1.0, "means_max_distance": 1.0}
        return means, info
    pool = rng.standard_normal((_MEANS_POOL, f))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    chosen = [0]
    dist_to_chosen = np.linalg.norm(pool - pool[0], axis=1)
    for _ in range(c - 1):
        nxt = int(dist_to_chosen.argmax())
        chosen.append(nxt)
        dist_to_chosen = np.minimum(dist_to_chosen,
                                    np.linalg.norm(pool - pool[nxt], axis=1))
    means = pool[chosen]
    diff = means[:, None, :] - means[None, :, :]
    pair = np.linalg.norm(diff, axis=2)[np.triu_indices(c, 1)]
    if pair.min() == 0.0:
        # the pool ran out of distinct points: a 1-D pool has two, and
        # more classes than pool vectors must repeat one
        raise InputError(f"cannot place {c} distinct class means in "
                         f"{f} dimension(s)")
    means = means / pair.min()
    pair = pair / pair.min()
    info = {"means_kind": "maxmin",
            "means_min_distance": float(pair.min()),
            "means_max_distance": float(pair.max())}
    return means, info


def _noise_factor(feature_dim: int, scale: float):
    """The Cholesky factor ``L`` of the noise covariance ``a I + b 11^T``
    (``a = 0.9 scale**2``, ``b = 0.1 scale**2``), as ``(d, c)``: column
    ``j`` of ``L`` holds ``d[j]`` on the diagonal and ``c[j]`` in every
    row below it.

    Eliminating column ``j`` of ``a I + b_j 11^T`` leaves the Schur
    complement ``a I + b_(j+1) 11^T``, again equicorrelated, so
    ``d[j] = sqrt(a + b_j)`` and ``c[j] = b_j / d[j]`` with
    ``b_j = a b / (a + j b) = 0.9 scale**2 / (9 + j)``. Both are
    ``scale`` times their value at scale 1, which keeps scale 0 (where
    ``L`` is 0) and tiny scales free of 0/0."""
    b_j = 0.9 / (9.0 + np.arange(feature_dim))  # at scale 1
    d = np.sqrt(0.9 + b_j)
    return scale * d, scale * (b_j / d)


def sample_features(labels: np.ndarray, means: np.ndarray, scale: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Gaussian features around each node's class mean.

    Covariance is ``scale**2`` on the diagonal and a tenth of that off
    the diagonal, identical for every class. The noise of a row is
    ``L z`` for standard normals ``z`` and the closed-form Cholesky
    factor ``L`` of :func:`_noise_factor`: ``z * d`` plus the running sum
    of ``z * c`` over the channels before each one. It is computed in
    place over the ``confidence.row_blocks`` of the draws, so besides the
    result only a few row blocks are alive, and no F x F array is made."""
    f = means.shape[1]
    features = rng.standard_normal((labels.size, f))
    d, c = _noise_factor(f, scale)
    for rows in row_blocks(*features.shape):
        z = features[rows]
        before = z * c
        np.cumsum(before, axis=1, out=before)
        z *= d
        z[:, 1:] += before[:, :-1]
        del before
        z += means[labels[rows]]
    return features


def _homophily(g: Graph, labels: np.ndarray, features: np.ndarray):
    """``(class homophily, feature homophily)`` of ``g``: the fraction of
    edges joining same-class endpoints, and the mean cosine similarity of
    endpoint features over the edges whose endpoints both have a nonzero
    norm. A fact no edge defines is ``None``."""
    edges = g.edge_array()
    if edges.shape[0] == 0:
        return None, None
    a, b = edges[:, 0], edges[:, 1]
    same = float(np.mean(labels[a] == labels[b]))
    norms = np.linalg.norm(features, axis=1)
    ok = (norms[a] > 0) & (norms[b] > 0)
    a, b = a[ok], b[ok]
    if a.size == 0:
        return same, None
    cos = np.empty(a.size)
    for rows in row_blocks(a.size, features.shape[1]):
        cos[rows] = np.sum(features[a[rows]] * features[b[rows]], axis=1)
    cos /= norms[a] * norms[b]
    return same, float(cos.mean())


def _warn_fragmentation(spec: SynthSpec) -> None:
    """Warn when the sampled graph is likely (or certain) to fragment."""
    per_class = spec.num_nodes / spec.num_classes
    exp_deg = (per_class - 1) * spec.intra_edge_prob \
        + (spec.num_nodes - per_class) * spec.inter_edge_prob
    if exp_deg < 1.0:
        warnings.warn(
            f"expected degree {exp_deg:.2f} < 1; the graph will be fragmented",
            stacklevel=3,
        )
    elif spec.inter_edge_prob == 0.0 and spec.num_classes > 1:
        warnings.warn(
            "inter-class edge probability is 0; classes cannot connect, so "
            "the graph will be fragmented",
            stacklevel=3,
        )


def generate(spec: SynthSpec) -> SynthDataset:
    """Produce one dataset from ``spec`` (see module docstring for the
    draw order that makes this reproducible)."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    labels = generate_labels(spec.num_nodes, spec.num_classes, rng)
    _warn_fragmentation(spec)
    edges = sbm_edges(labels, spec.intra_edge_prob, spec.inter_edge_prob, rng)
    g = build_graph(edges, spec.num_nodes)
    means, means_info = equidistant_means(spec.num_classes, spec.feature_dim, rng)
    features = sample_features(labels, means, spec.gaussian_scale, rng)

    meta = {"spec": asdict(spec), "num_nodes_generated": spec.num_nodes,
            "num_edges_generated": int(g.num_edges)}
    meta.update(means_info)

    if spec.largest_component:
        g, keep, meta["num_components_generated"] = extract_largest_component(g)
        labels = labels[keep]
        features = features[keep]

    meta["num_nodes"] = g.num_nodes
    meta["num_edges"] = int(g.num_edges)
    meta["class_homophily"], meta["feature_homophily"] = _homophily(
        g, labels, features)
    return SynthDataset(graph=g, features=features, labels=labels, meta=meta)
