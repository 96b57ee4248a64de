"""Independent reference implementations used to cross-check the package.

Most of what is here is written in the most literal style possible
(dense matrices, plain Python loops) so it shares no code path with the
library being tested. The rest keeps earlier versions of library code,
as first written, that a faster path must reproduce bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy import sparse

from pcfi import InputError, SpdsMatrix
from pcfi.confidence import UNREACHABLE, alpha_powers
from pcfi.metrics import EvalReport, _spearman_sorted, check_shapes

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
    """The stochastic block model by its definition: one Bernoulli draw per
    pair (i, j), i < j, at ``intra_p`` if the labels match, else
    ``inter_p``. Its draws differ from ``synth.sbm_edges``', so the two
    agree in distribution, not in bytes."""
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


def load_mask_reference(source, skiprows: int, what: str) -> np.ndarray:
    """Mask parsing as first written: ``np.loadtxt`` over the text, then a
    0/1 check. Raises ValueError with the message the loader's
    ``InputError`` carries."""
    try:
        arr = np.loadtxt(source, delimiter=",", skiprows=skiprows, ndmin=2,
                         dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"could not parse {what}: {exc}") from exc
    if not np.isin(arr, (0.0, 1.0)).all():
        bad = arr[~np.isin(arr, (0.0, 1.0))].flat[0]
        raise ValueError(f"{what} must contain only 0 and 1, found {bad!r}")
    return arr.astype(bool)


def pseudo_confidence_reference(distances: np.ndarray, alpha: float) -> np.ndarray:
    """``alpha ** S`` by one elementwise ``np.power``, 0 where S is -1."""
    out = np.power(alpha, distances.astype(np.float64))
    out[distances == -1] = 0.0
    return out


def stage2_expression(values: np.ndarray, xi: np.ndarray, means: np.ndarray,
                      r: np.ndarray, beta: float) -> np.ndarray:
    """The whole-matrix stage-2 correction as first written, one full-size
    temporary per operation."""
    correction = beta * (1.0 - xi) * ((xi * (values - means)) @ r)
    return values + correction


def compute_spds_channel(g, known_column: np.ndarray) -> np.ndarray:
    """Distance field for one channel's boolean known-column, by a
    queue-based breadth-first search from every observed node."""
    known_column = np.asarray(known_column, dtype=bool)
    if known_column.shape != (g.num_nodes,):
        raise InputError(
            f"known column shape {known_column.shape} does not match graph "
            f"with {g.num_nodes} nodes"
        )
    dist = np.full(g.num_nodes, -1, dtype=np.int64)
    queue = deque()
    for s in np.flatnonzero(known_column):
        dist[s] = 0
        queue.append(int(s))
    while queue:
        i = queue.popleft()
        for j in g.neighbors(i):
            if dist[j] == -1:
                dist[j] = dist[i] + 1
                queue.append(int(j))
    return dist


def relative_pc(spds: SpdsMatrix, alpha: float, i: int, j: int, d: int) -> float:
    """Confidence of node ``j`` relative to node ``i`` in channel ``d``:
    ``alpha ** (S[j, d] - S[i, d])``.

    Raises
    ------
    InputError
        If either endpoint is unreachable in channel ``d``; the ratio is
        undefined there.
    """
    s = spds.distances
    si = int(s[i, d])
    sj = int(s[j, d])
    if si == -1 or sj == -1:
        raise InputError(
            f"relative confidence undefined: node {i if si == -1 else j} "
            f"is unreachable in channel {d}"
        )
    return float(alpha ** (sj - si))


def correlation_reference(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(R, means)``: the Pearson correlation from the whole ``c.T @ c``
    with ``c = values - means``, zero for zero-variance channels and on the
    diagonal, as stage 2 first computed it."""
    means = values.mean(axis=0)
    c = values - means
    cov = (c.T @ c) / (len(values) - 1)
    stds = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = cov / np.outer(stds, stds)
    r[~np.isfinite(r)] = 0.0
    np.fill_diagonal(r, 0.0)
    return r, means


def stage2_bruteforce_oracle(values: np.ndarray, spds: SpdsMatrix, alpha: float,
                             beta: float, *, max_cells: int = 1_000_000) -> np.ndarray:
    """Stage 2 with the per-node mixing matrix built explicitly. Quadratic
    in channels per node; guarded to N * F^2 <= ``max_cells`` cells."""
    values = np.asarray(values, dtype=np.float64)
    if beta < 0:
        raise InputError(f"beta must be >= 0, got {beta}")
    if values.shape != spds.distances.shape:
        raise InputError(
            f"value shape {values.shape} does not match distance field "
            f"shape {spds.distances.shape}"
        )
    n, f = values.shape
    if n * f * f > max_cells:
        raise InputError(
            f"node-loop reference limited to {max_cells} cells, got {n * f * f}"
        )
    r, means = correlation_reference(values)
    xi = pseudo_confidence_reference(spds.distances, alpha)
    out = values.copy()
    for i in range(n):
        b = beta * np.outer(1.0 - xi[i], xi[i]) * r
        np.fill_diagonal(b, 0.0)
        out[i] += b @ (values[i] - means)
    return out


def build_graph_reference(edges, num_nodes: int):
    """CSR ``(indptr, indices)`` of an undirected graph as first built:
    encoded ``row * N + col`` keys, ``np.unique`` and ``np.add.at``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    if edges.size:
        # canonical orientation, then both directions, deduplicated
        lo = edges.min(axis=1)
        hi = edges.max(axis=1)
        directed = np.concatenate([
            np.column_stack([lo, hi]),
            np.column_stack([hi, lo]),
        ])
        keys = directed[:, 0] * num_nodes + directed[:, 1]
        order = np.unique(keys)
        rows = order // num_nodes
        cols = order % num_nodes
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)

    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols


def induced_subgraph_reference(g, nodes: np.ndarray):
    """CSR ``(indptr, indices)`` of the subgraph induced on ``nodes``
    (ascending), as first built by gathering neighbor lists by hand."""
    nodes = np.asarray(nodes, dtype=np.int64)
    remap = np.full(g.num_nodes, -1, dtype=np.int64)
    remap[nodes] = np.arange(nodes.size)
    rows = np.repeat(remap[nodes], g.degrees[nodes])
    starts = g.indptr[nodes]
    counts = g.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        neighbors = np.empty(0, dtype=np.int64)
    else:
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        gather = (np.arange(total) - np.repeat(offsets, counts)
                  + np.repeat(starts, counts))
        neighbors = g.indices[gather]
    cols = remap[neighbors]
    keep = cols >= 0
    rows, cols = rows[keep], cols[keep]
    indptr = np.zeros(nodes.size + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols


def fp_baseline_reference(g, values: np.ndarray, known: np.ndarray, steps: int):
    """FP diffusion with ``D^-1/2 (A + I) D^-1/2`` formed by hand, as
    first written; returns ``(values, residuals)``."""
    n = g.num_nodes
    dinv = 1.0 / np.sqrt(g.degrees + 1.0)
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([np.repeat(loops, g.degrees), loops])
    cols = np.concatenate([g.indices, loops])
    op = sparse.csr_array((dinv[rows] * dinv[cols], (rows, cols)), shape=(n, n))

    pinned = values[known]
    x = values.copy()
    for _ in range(steps):
        prev = x
        x = op @ x
        x[known] = pinned
    return x, np.abs(x - prev).max(axis=0)


def fp_fixed_point_reference(g, values: np.ndarray, known: np.ndarray) -> np.ndarray:
    """FP's fixed point by a dense solve per channel: with ``W`` the dense
    ``D^-1/2 (A + I) D^-1/2``, ``(I - W_uu) x_u = W_uk x_k`` over the
    missing rows ``u`` that a walk joins to an observed row of the
    channel; every other row keeps its ``values`` entry."""
    n = g.num_nodes
    adj = np.eye(n)
    for i, j in g.edge_array():
        adj[i, j] = adj[j, i] = 1.0
    dinv = 1.0 / np.sqrt(adj.sum(axis=1))
    w = dinv[:, None] * adj * dinv[None, :]
    out = values.copy()
    for c in range(values.shape[1]):
        reached = known[:, c].copy()
        for _ in range(n):
            reached = reached | (adj @ reached > 0)
        u = np.flatnonzero(reached & ~known[:, c])
        k = np.flatnonzero(known[:, c])
        a = np.eye(u.size) - w[np.ix_(u, u)]
        out[u, c] = np.linalg.solve(a, w[np.ix_(u, k)] @ values[k, c])
    return out


def sample_features_reference(labels: np.ndarray, means: np.ndarray, scale: float,
                              rng: np.random.Generator) -> np.ndarray:
    """Gaussian features around each node's class mean through an explicit
    Cholesky factor and one matrix product, as first written, on the
    package's draws (``standard_normal``)."""
    n = labels.size
    f = means.shape[1]
    cov = scale * scale * (0.9 * np.eye(f) + 0.1 * np.ones((f, f)))
    chol = np.linalg.cholesky(cov) if scale > 0 else np.zeros((f, f))
    features = rng.standard_normal((n, f)) @ chol.T
    features += means[labels]
    return features


def select_reference(rng: np.random.Generator, population: int, count: int) -> np.ndarray:
    """Choose ``count`` distinct indices from ``range(population)``: draw one
    uniform per candidate and keep the ``count`` smallest."""
    ranks = np.argsort(rng.random(population), kind="stable")
    return ranks[:count]


def feature_homophily_reference(g, features: np.ndarray) -> float:
    """Mean cosine similarity across edges; zero-norm endpoints are
    skipped (error if every edge is skipped or there are no edges)."""
    edges = g.edge_array()
    if edges.shape[0] == 0:
        raise InputError("feature homophily undefined on a graph with no edges")
    a = features[edges[:, 0]]
    b = features[edges[:, 1]]
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > 0) & (nb > 0)
    if not ok.any():
        raise InputError("feature homophily undefined: all edge endpoints have "
                         "zero-norm features")
    cos = np.sum(a[ok] * b[ok], axis=1) / (na[ok] * nb[ok])
    return float(cos.mean())


def fused_block_reference(ai, fs, spds: SpdsMatrix, alpha: float,
                          cols: np.ndarray, steps: int):
    """The fused stage-1 loop on the channels ``cols`` as first written: a
    confidence column per channel, the block's input kept and added back
    after every step. Returns ``(values, residuals)``."""
    def unscale(t, den, pinned, values):
        t /= den
        t.ravel()[pinned] = values
        return t

    x0 = fs.values.take(cols, axis=1)  # observed values, 0 elsewhere
    pinned = np.flatnonzero(fs.known.take(cols, axis=1))
    values = x0.ravel()[pinned]
    scale = alpha_powers(alpha, spds.distances.take(cols, axis=1))
    den = ai @ scale
    den[scale == 0.0] = np.inf
    scale /= den
    scale.ravel()[pinned] = 0.0

    prev = y = x0
    for step in range(1, steps):
        y = ai @ y
        if step == steps - 1:
            prev = unscale(y.copy(), den, pinned, values)
        y *= scale
        y += x0
    del scale
    x = unscale(ai @ y, den, pinned, values)
    prev -= x
    return x, np.abs(prev, out=prev).max(axis=0)


def _rmse(truth: np.ndarray, imputed: np.ndarray, over: np.ndarray) -> float:
    """Root mean squared error over the True entries of ``over``."""
    truth = np.asarray(truth, dtype=np.float64)
    imputed = np.asarray(imputed, dtype=np.float64)
    over = np.asarray(over, dtype=bool)
    if truth.shape != imputed.shape or truth.shape != over.shape:
        raise InputError(
            f"shape mismatch: truth {truth.shape}, imputed {imputed.shape}, "
            f"selector {over.shape}"
        )
    if not over.any():
        raise InputError("rmse undefined over an empty selection")
    diff = truth[over]
    diff -= imputed[over]
    diff *= diff
    return float(np.sqrt(np.mean(diff)))


def _row_cosines_reference(a: np.ndarray, b: np.ndarray):
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > 0) & (nb > 0)
    cos = np.full(a.shape[0], np.nan)
    cos[ok] = np.sum(a[ok] * b[ok], axis=1) / (na[ok] * nb[ok])
    return cos, ok


def evaluate_reference(truth: np.ndarray, imputed: np.ndarray, known: np.ndarray,
                       spds: SpdsMatrix | None = None) -> EvalReport:
    """``pcfi.metrics.evaluate`` as first written, before it scored through
    one N x F buffer: gathered row copies for the cosines and for each
    distance bucket's RMSE, and inputs taken in whatever memory layout
    they come.

    Score ``imputed`` against ``truth`` on the entries missing per
    ``known``. Distance buckets and the distance/cosine trend are
    included when ``spds`` is given; it must be 0 exactly at the observed
    entries (:meth:`SpdsMatrix.check_mask`)."""
    truth = np.asarray(truth, dtype=np.float64)
    imputed = np.asarray(imputed, dtype=np.float64)
    known = np.asarray(known, dtype=bool)
    check_shapes(truth, imputed, known)
    if spds is not None:
        spds.check_mask(known)
    n, f = truth.shape
    missing = ~known
    overall = _rmse(truth, imputed, missing) if missing.any() else None

    per_channel = np.full(f, np.nan)
    counts = missing.sum(axis=0)
    sq = truth - imputed
    sq *= sq
    sq[known] = 0.0
    sq = sq.sum(axis=0)
    has = counts > 0
    per_channel[has] = np.sqrt(sq[has] / counts[has])

    eval_nodes = np.flatnonzero(missing.any(axis=1))
    cosines, ok = _row_cosines_reference(truth[eval_nodes], imputed[eval_nodes])
    skipped = int(eval_nodes.size - ok.sum())
    cosine_mean = float(np.nanmean(cosines)) if ok.any() else None
    cosine_per_node = np.full(n, np.nan)
    cosine_per_node[eval_nodes] = cosines

    buckets: dict[int, dict] = {}
    spearman = None
    unbucketed = 0
    if spds is not None and eval_nodes.size:
        dist = spds.distances[eval_nodes]
        finite = dist != UNREACHABLE
        keyable = finite.any(axis=1)
        unbucketed = int((~keyable).sum())
        keys = np.where(finite, dist, -1).max(axis=1)
        for k in np.unique(keys[keyable]):
            sel = keyable & (keys == k)
            node_ids = eval_nodes[sel]
            sub_missing = missing[node_ids]
            bucket_cos = cosines[sel]
            buckets[int(k)] = {
                "count": int(sel.sum()),
                "cosine_mean": (float(np.nanmean(bucket_cos))
                                if np.isfinite(bucket_cos).any() else None),
                "rmse": (_rmse(truth[node_ids], imputed[node_ids], sub_missing)
                         if sub_missing.any() else None),
            }
        ys = np.array([v["cosine_mean"] for _, v in sorted(buckets.items())
                       if v["cosine_mean"] is not None])
        # rank correlation is undefined when every bucket cosine ties
        if ys.size >= 2 and ys.max() > ys.min():
            spearman = _spearman_sorted(ys)

    return EvalReport(
        rmse=overall,
        rmse_per_channel=per_channel,
        cosine_mean=cosine_mean,
        cosine_per_node=cosine_per_node,
        num_eval_nodes=int(eval_nodes.size),
        num_skipped_zero_norm=skipped,
        distance_buckets=buckets,
        spearman_distance_cosine=spearman,
        num_unbucketed_nodes=unbucketed,
    )
