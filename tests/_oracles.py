"""Independent reference implementations used to cross-check the package.

Everything here is written in the most literal style possible (dense
matrices, plain Python loops) so it shares no code path with the
library being tested.
"""

from __future__ import annotations

import numpy as np

INF = float("inf")


def floyd_warshall(n: int, edges) -> np.ndarray:
    """All-pairs shortest hop counts via the classic triple loop."""
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    for i, j in edges:
        if i != j:
            d[i, j] = 1.0
            d[j, i] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def spds_reference(allpairs: np.ndarray, known_col: np.ndarray) -> np.ndarray:
    """Distance to the nearest source, -1 where unreachable."""
    sources = np.flatnonzero(known_col)
    n = allpairs.shape[0]
    out = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        best = INF
        for s in sources:
            best = min(best, allpairs[i, s])
        if best < INF:
            out[i] = int(best)
    return out


def components_reference(allpairs: np.ndarray):
    """Component label per node: reachability classes of the hop metric."""
    n = allpairs.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for i in range(n):
        if labels[i] != -1:
            continue
        for j in range(n):
            if allpairs[i, j] < INF:
                labels[j] = comp
        comp += 1
    return labels


def dense_pinned_operator(n: int, edges, s_col, known_col, alpha: float) -> np.ndarray:
    """Pinned row-stochastic operator in ORIGINAL node order, dense.

    Edge weight alpha ** (S[j] - S[i]), self-loop weight 1, rows
    normalized, then known rows replaced by one-hot rows.
    """
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if i != j:
            adj[i, j] = True
            adj[j, i] = True
    w = np.zeros((n, n))
    for i in range(n):
        w[i, i] = 1.0
        for j in range(n):
            if adj[i, j]:
                w[i, j] = alpha ** (int(s_col[j]) - int(s_col[i]))
    w = w / w.sum(axis=1, keepdims=True)
    for i in range(n):
        if known_col[i]:
            w[i, :] = 0.0
            w[i, i] = 1.0
    return w


def dense_uniform_exponent_operator(n: int, edges, s_col, known_col,
                                    alpha: float) -> np.ndarray:
    """Variant that uses alpha ** (S[j] - S[i] + 1) for every entry,
    self-loops included (the self-loop then weighs alpha ** 1). After row
    normalization this must agree with :func:`dense_pinned_operator`."""
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if i != j:
            adj[i, j] = True
            adj[j, i] = True
    w = np.zeros((n, n))
    for i in range(n):
        w[i, i] = alpha ** 1
        for j in range(n):
            if adj[i, j]:
                w[i, j] = alpha ** (int(s_col[j]) - int(s_col[i]) + 1)
    w = w / w.sum(axis=1, keepdims=True)
    for i in range(n):
        if known_col[i]:
            w[i, :] = 0.0
            w[i, i] = 1.0
    return w


def iterate_dense(w: np.ndarray, x0: np.ndarray, steps: int) -> np.ndarray:
    x = x0.astype(np.float64).copy()
    for _ in range(steps):
        x = w @ x
    return x


def random_connected_edges(rng: np.random.Generator, n: int,
                           extra_per_node: float = 2.0) -> np.ndarray:
    """Random spanning tree plus extra random pairs; always connected."""
    tree = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    m = int(extra_per_node * n / 2)
    extra = rng.integers(0, n, size=(m, 2))
    edges = np.array(tree + extra.tolist(), dtype=np.int64).reshape(-1, 2)
    return edges


def random_gnp_edges(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Independent coin per pair; may be disconnected."""
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                pairs.append((i, j))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def sbm_edges_reference(labels: np.ndarray, intra_p: float, inter_p: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Edge sampling as first written: one probability per remaining pair
    of each row, compared with that row's draws."""
    n = labels.size
    chunks = []
    for i in range(n - 1):
        rest = labels[i + 1:]
        p = np.where(rest == labels[i], intra_p, inter_p)
        hits = np.flatnonzero(rng.random(n - 1 - i) < p)
        if hits.size:
            chunks.append(np.column_stack([np.full(hits.size, i, dtype=np.int64),
                                           hits + i + 1]))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks)
