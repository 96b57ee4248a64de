"""Inter-node value diffusion: the paper's pinned, confidence-weighted
iteration.

For a single channel, the raw weight matrix puts ``alpha ** (S[j] - S[i])``
on each edge (i, j), a self-loop of weight 1 on every node, and 0
elsewhere; rows are then normalized to sum to 1. Source (observed) rows
are replaced by one-hot rows, so their values stay pinned. With sources
ordered first this is the block form::

    W_hat = [[ I     0    ]
             [ W_uk  W_uu ]]

Starting from the observed values with zeros at missing entries, the
iteration ``x(t) = W_hat @ x(t-1)`` keeps sources fixed and fills the
rest; because edge weights favor neighbors closer to a source
(``S[j] < S[i]`` gets weight ``1/alpha > 1``), high-certainty values
dominate the mix. With every component containing a source, the
spectral radius of ``W_uu`` is below 1 and the iteration converges to
the linear-system solution ``x_u = (I - W_uu)^{-1} W_uk x_k``, which
``mode="closed_form"`` computes directly, one explicit operator
(:func:`build_channel_operator`) per distinct missing pattern.

The iterative mode runs every channel through one shared operator.
Row ``i`` of the weights is ``alpha ** -S[i]`` times ``C[j] = alpha ** S[j]``,
and row normalization cancels the ``alpha ** -S[i]`` factor, so one step
of every channel at once is::

    X <- ((A + I) (C * X)) / ((A + I) C),   observed entries re-pinned.

The kernel carries ``Y = C * X``: each step is one sparse product with
``A + I``, a multiply by ``C / ((A + I) C)`` (0 on pinned rows) and the
addition of the pinned values; the last step divides by ``(A + I) C``.
Rows that reach no source have ``C = 0`` and stay exactly 0.
``alpha ** S`` would underflow on deep nodes, so a channel whose
``max(S) * ln(1 / alpha)`` exceeds ``MAX_DECAY`` goes through its
explicit operator instead, whose ratio weights never underflow.

Channels run in blocks of ``BLOCK_COLUMNS`` columns, on a thread pool
when asked. Each block works on C-contiguous copies of its columns of
the values, the mask and the distance field: a column selection of a
C-ordered matrix is F-ordered, and mixing the two layouts slows every
elementwise step of the loop. Columns never mix inside a product and
each block is internally sequential, so results are byte-identical for
any thread count and any grouping of channels.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .confidence import (BLOCK_COLUMNS, UNREACHABLE, SpdsMatrix, alpha_powers,
                         distinct_columns)
from .errors import InputError, NoSourceError, NumericalError
from .graph import ChannelPartition, Graph, induced_subgraph, partition_channel
from .masking import FeatureSet

__all__ = [
    "DiffusionResult",
    "build_channel_operator",
    "diffuse_channel",
    "closed_form_channel",
    "impute_stage1",
    "fp_baseline",
    "resolve_threads",
]

# Largest max(S) * ln(1/alpha) the fused kernel takes. alpha ** S then stays
# above e**-600 (about 1e-261), so C and C * X are normal floats for any
# |X| above about 1e-47 and lose no precision.
MAX_DECAY = 600.0
# Most unknowns the closed form densifies ``I - W_uu`` for.
MAX_DENSE_UNKNOWNS = 2000


@dataclass(frozen=True)
class ChannelOperator:
    """Pinned row-stochastic diffusion operator for one missing pattern.

    ``matrix`` lives in the reordered space of ``partition`` (sources
    first): source rows are one-hot, remaining rows are the normalized
    distance-ratio weights.
    """

    partition: ChannelPartition
    matrix: sparse.csr_array


@dataclass(frozen=True)
class DiffusionResult:
    """Imputed matrix plus bookkeeping.

    Attributes
    ----------
    values : ndarray, shape (N, F)
        Matrix with missing entries filled; observed entries are the
        input bits unchanged.
    residuals : ndarray of shape (F,), or None
        Max absolute change of the final iteration per channel; None in
        closed-form mode.
    flagged_channels : list of int
        Channels zero-filled (fully or partially) because no source was
        reachable; empty unless lenient mode intervened.
    steps_run : int
        Iterations performed (0 in closed-form mode).
    mode : str
        "iterative", "closed_form", or "fp".
    """

    values: np.ndarray
    residuals: np.ndarray | None
    flagged_channels: list[int]
    steps_run: int
    mode: str


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else the PCFI_THREADS environment
    variable, else 1. A value of 0 means all cpus."""
    if threads is None:
        raw = os.environ.get("PCFI_THREADS", "").strip()
        if raw:
            try:
                threads = int(raw)
            except ValueError:
                raise InputError(f"PCFI_THREADS must be an integer, got {raw!r}") from None
        else:
            threads = 1
    if threads < 0:
        raise InputError(f"thread count must be >= 0, got {threads}")
    if threads == 0:
        threads = os.cpu_count() or 1
    return threads


def build_channel_operator(g: Graph, dist_col: np.ndarray,
                           partition: ChannelPartition, alpha: float) -> ChannelOperator:
    """Assemble the pinned operator for one channel.

    ``dist_col`` holds the hop distance to the nearest source for every
    node; all nodes must be reachable (restrict the graph first if not).

    Raises
    ------
    NoSourceError
        If the partition has no source nodes.
    InputError
        If an unreachable node is present.
    """
    nk, nu = partition.num_known, partition.num_unknown
    n = nk + nu
    if nk == 0:
        raise NoSourceError(
            f"channel {partition.channel} has no observed entries to diffuse from",
            channels=[partition.channel],
        )
    dist_col = np.asarray(dist_col, dtype=np.int64)
    if dist_col.shape != (n,):
        raise InputError(f"distance column has shape {dist_col.shape}, expected ({n},)")
    if np.any(dist_col == UNREACHABLE):
        raise InputError(
            f"channel {partition.channel}: operator undefined on unreachable nodes"
        )
    if not (0.0 < alpha < 1.0):
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")

    unk = partition.unknown_nodes
    rows_orig = np.repeat(unk, g.degrees[unk])
    cols_orig = g.adjacency()[unk].indices
    w = np.power(alpha, (dist_col[cols_orig] - dist_col[rows_orig]).astype(np.float64))

    self_rows = np.arange(nk, n, dtype=np.int64)
    rows_new = np.concatenate([partition.to_reordered[rows_orig], self_rows])
    cols_new = np.concatenate([partition.to_reordered[cols_orig], self_rows])
    data = np.concatenate([w, np.ones(nu)])
    rowsum = np.bincount(rows_new - nk, weights=data, minlength=nu)
    data = data / rowsum[rows_new - nk]

    pin = np.arange(nk, dtype=np.int64)
    matrix = sparse.csr_array(
        (np.concatenate([np.ones(nk), data]),
         (np.concatenate([pin, rows_new]), np.concatenate([pin, cols_new]))),
        shape=(n, n),
    )
    return ChannelOperator(partition=partition, matrix=matrix)


def _as_block(x: np.ndarray) -> np.ndarray:
    return x[:, None] if x.ndim == 1 else x


def diffuse_channel(op: ChannelOperator, x0, steps: int = 100):
    """Run ``steps`` iterations of the pinned operator.

    ``x0`` is indexed by original node id, one column per channel of the
    shared missing pattern (a 1-D vector is treated as one column).
    Returns ``(values, residuals)`` in original node order, where
    ``residuals`` is the max absolute change of the last step per
    column.
    """
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    x0 = _as_block(np.asarray(x0, dtype=np.float64))
    perm = op.partition.to_original
    x = np.ascontiguousarray(x0[perm])
    for _ in range(steps):
        prev = x
        x = op.matrix @ x
    residuals = np.abs(x - prev).max(axis=0) if x.size else np.zeros(x.shape[1])
    out = np.empty_like(x)
    out[perm] = x
    return out, residuals


def closed_form_channel(op: ChannelOperator, x0):
    """Solve ``x_u = (I - W_uu)^{-1} W_uk x_k`` directly.

    ``x0`` as in :func:`diffuse_channel`; observed rows pass through
    bit-identical. The solve densifies ``W_uu``, so it is refused above
    ``MAX_DENSE_UNKNOWNS`` unknowns.
    """
    nk = op.partition.num_known
    n = op.partition.num_known + op.partition.num_unknown
    nu = op.partition.num_unknown
    x0 = _as_block(np.asarray(x0, dtype=np.float64))
    if x0.shape[0] != n:
        raise InputError(f"value block has {x0.shape[0]} rows, expected {n}")
    out = x0.copy()
    if nu == 0:
        return out
    if nu > MAX_DENSE_UNKNOWNS:
        raise InputError(
            f"closed form would densify a {nu} x {nu} system "
            f"(limit {MAX_DENSE_UNKNOWNS}); use the iterative mode"
        )
    xk = x0[op.partition.known_nodes]
    wuu = op.matrix[nk:, nk:]
    wuk = op.matrix[nk:, :nk]
    a = np.eye(nu) - wuu.toarray()
    try:
        xu = np.linalg.solve(a, wuk @ xk)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"channel {op.partition.channel}: linear system is singular ({exc})"
        ) from exc
    out[op.partition.unknown_nodes] = xu
    return out


def impute_stage1(g: Graph, fs: FeatureSet, spds: SpdsMatrix, *,
                  steps: int = 100, mode: str = "iterative",
                  lenient: bool = False, threads: int | None = None) -> DiffusionResult:
    """Fill missing entries channel-wise by confidence-weighted diffusion.

    Every missing node must reach a source in its channel; with
    ``lenient=True``, offending channels are flagged and the unreachable
    region is left at zero (sources elsewhere in the channel still
    diffuse over their reachable region), otherwise
    :class:`NoSourceError` is raised naming the channels.

    ``mode`` is "iterative" (``steps`` applications of the operator) or
    "closed_form" (direct solve). ``threads`` parallelizes over column
    blocks (closed form: over missing patterns); output bits do not
    depend on it.
    """
    if mode not in ("iterative", "closed_form"):
        raise InputError(f"unknown diffusion mode {mode!r}")
    if mode == "iterative" and steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    if fs.num_nodes != g.num_nodes:
        raise InputError(
            f"features have {fs.num_nodes} rows but graph has {g.num_nodes} nodes"
        )
    if spds.distances.shape != fs.values.shape:
        raise InputError(
            f"distance field shape {spds.distances.shape} does not match "
            f"feature shape {fs.values.shape}"
        )
    if not np.array_equal(spds.distances == 0, fs.known):
        raise InputError(
            "distance field inconsistent with mask: distance 0 must hold "
            "exactly at observed entries"
        )

    n, f = fs.values.shape
    out = fs.values.copy()
    steps_run = steps if mode == "iterative" else 0
    residuals = np.zeros(f, dtype=np.float64) if mode == "iterative" else None
    if n == 0 or f == 0:
        return DiffusionResult(values=out, residuals=residuals,
                               flagged_channels=[], steps_run=steps_run, mode=mode)

    has_source = fs.known.any(axis=0)
    unhealthy = ~has_source | (spds.distances == UNREACHABLE).any(axis=0)
    flagged = np.flatnonzero(unhealthy).tolist()
    if flagged and not lenient:
        raise NoSourceError(
            f"{len(flagged)} channel(s) have missing nodes with no reachable "
            f"observed entry: {flagged[:10]}{'...' if len(flagged) > 10 else ''}; "
            "rerun leniently to zero-fill them or restrict the graph first",
            channels=flagged,
        )

    nthreads = resolve_threads(threads)
    if mode == "closed_form":
        explicit = has_source
    else:
        deep = spds.distances.max(axis=0) * -math.log(spds.alpha) > MAX_DECAY
        explicit = has_source & deep
        fused = np.flatnonzero(~explicit)
        if fused.size:
            ai = g.self_loop_adjacency()

            def run_block(cols):
                out[:, cols], residuals[cols] = _diffuse_block(ai, fs, spds, cols, steps)

            _run(run_block, [fused[lo:lo + BLOCK_COLUMNS]
                             for lo in range(0, fused.size, BLOCK_COLUMNS)], nthreads)
    if explicit.any():
        _diffuse_per_pattern(g, fs, spds, np.flatnonzero(explicit), out, residuals,
                             steps=steps, mode=mode, nthreads=nthreads)
    return DiffusionResult(values=out, residuals=residuals,
                           flagged_channels=flagged, steps_run=steps_run, mode=mode)


def _run(fn, items, nthreads: int) -> None:
    if nthreads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            list(pool.map(fn, items))
    else:
        for item in items:
            fn(item)


def _diffuse_block(ai, fs: FeatureSet, spds: SpdsMatrix, cols: np.ndarray,
                   steps: int):
    """``steps`` fused iterations on the channels ``cols``; returns their
    values and the max change of the last step per channel."""
    # C-contiguous copies, so every elementwise step below runs on arrays of
    # one layout (column selections of a C-ordered matrix are F-ordered)
    x0 = fs.values.take(cols, axis=1)  # observed values, 0 elsewhere
    known = fs.known.take(cols, axis=1)
    scale = alpha_powers(spds.alpha, spds.distances.take(cols, axis=1))
    den = ai @ scale
    # rows that reach no source: C = 0, so scale and values stay 0, with no 0/0
    den[scale == 0.0] = np.inf
    scale /= den
    scale[known] = 0.0

    # five block-sized arrays stay alive: x0, scale, den, and y before and
    # after each product
    prev = y = x0
    for step in range(1, steps):
        y = ai @ y
        if step == steps - 1:
            prev = _unscale(y.copy(), den, x0, known)
        y *= scale
        y += x0
    del scale
    x = _unscale(ai @ y, den, x0, known)
    prev -= x
    return x, np.abs(prev, out=prev).max(axis=0)


def _unscale(t: np.ndarray, den: np.ndarray, x0: np.ndarray,
             known: np.ndarray) -> np.ndarray:
    """Values ``t / den`` from a product ``t = (A + I) Y``, with the
    observed entries set back to their exact input bits."""
    t /= den
    np.copyto(t, x0, where=known)
    return t


def _diffuse_per_pattern(g: Graph, fs: FeatureSet, spds: SpdsMatrix,
                         channels: np.ndarray, out: np.ndarray,
                         residuals: np.ndarray | None, *, steps: int, mode: str,
                         nthreads: int) -> None:
    """Diffuse ``channels`` (each with a source) through one explicit
    operator per distinct missing pattern, restricted to the nodes that
    reach a source; writes ``out`` and, when iterating, ``residuals``."""
    first, inverse = distinct_columns(fs.known[:, channels])
    groups = [channels[inverse == gi] for gi in range(first.size)]

    def run_group(cols):
        dist_col = spds.distances[:, cols[0]]
        rows = np.flatnonzero(dist_col != UNREACHABLE)
        sub = g if rows.size == g.num_nodes else induced_subgraph(g, rows)
        part = partition_channel(fs.known[rows, cols[0]], int(cols[0]))
        op = build_channel_operator(sub, dist_col[rows], part, spds.alpha)
        block = out[np.ix_(rows, cols)]
        if mode == "iterative":
            vals, residuals[cols] = diffuse_channel(op, block, steps=steps)
        else:
            vals = closed_form_channel(op, block)
        out[np.ix_(rows, cols)] = vals

    _run(run_group, groups, nthreads)


def fp_baseline(g: Graph, fs: FeatureSet, *, steps: int = 100) -> DiffusionResult:
    """Baseline diffusion with the symmetric normalized adjacency.

    The operator is ``D^{-1/2} (A + I) D^{-1/2}`` with self-loop degrees;
    each step multiplies and then resets observed entries to their input
    bits. Regions with no observed node in a channel simply stay zero
    (no flagging)."""
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    if fs.num_nodes != g.num_nodes:
        raise InputError(
            f"features have {fs.num_nodes} rows but graph has {g.num_nodes} nodes"
        )
    n = g.num_nodes
    if n == 0 or fs.num_channels == 0:
        return DiffusionResult(values=fs.values.copy(),
                               residuals=np.zeros(fs.num_channels),
                               flagged_channels=[], steps_run=steps, mode="fp")
    op = g.self_loop_adjacency()
    dinv = 1.0 / np.sqrt(g.degrees + 1.0)
    op.data = dinv[np.repeat(np.arange(n), g.degrees + 1)] * dinv[op.indices]

    x = fs.values.copy()
    for _ in range(steps):
        prev = x
        x = op @ x
        np.copyto(x, fs.values, where=fs.known)
    residuals = np.abs(x - prev).max(axis=0)
    return DiffusionResult(values=x, residuals=residuals, flagged_channels=[],
                           steps_run=steps, mode="fp")
