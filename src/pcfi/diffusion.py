"""Inter-node value diffusion: the paper's pinned, confidence-weighted
iteration.

For a single channel, the raw weight matrix puts ``alpha ** (S[j] - S[i])``
on each edge (i, j), a self-loop of weight 1 on every node, and 0
elsewhere; rows are then normalized to sum to 1. Source (observed) rows
are replaced by one-hot rows, so their values stay pinned. Written with
the sources first, as notation only (the operator keeps node order),
this is the block form::

    W_hat = [[ I     0    ]
             [ W_uk  W_uu ]]

Starting from the observed values with zeros at missing entries, the
iteration ``x(t) = W_hat @ x(t-1)`` keeps sources fixed and fills the
rest; because edge weights favor neighbors closer to a source
(``S[j] < S[i]`` gets weight ``1/alpha > 1``), high-certainty values
dominate the mix. With every component containing a source, the
spectral radius of ``W_uu`` is below 1 and the iteration converges to
the linear-system solution ``x_u = (I - W_uu)^{-1} W_uk x_k``.

The explicit operator (:func:`build_channel_operator`) is built once per
distinct missing pattern, in node order, and serves two cases:
``mode="closed_form"``, which solves the linear system directly, and
the corner of the iterative mode where confidences would underflow
(below). It is iterated by :func:`diffuse_channel` and solved by
:func:`closed_form_channel`, as FP's operator is: both closed forms refuse a
run above ``MAX_DENSE_UNKNOWNS`` unknowns in a known set before any solve.
Nodes that reach no source see only other such nodes, all at distance
``UNREACHABLE``, so their rows average among themselves and their zeros
stay exactly 0.

The iterative mode runs every other channel through one shared operator.
Row ``i`` of the weights is ``alpha ** -S[i]`` times ``C[j] = alpha ** S[j]``,
and row normalization cancels the ``alpha ** -S[i]`` factor, so one step
of every channel at once is::

    X <- ((A + I) (C * X)) / ((A + I) C),   observed entries re-pinned.

The kernel carries ``Y = C * X``: each step is one sparse product with
``A + I``, a multiply by ``C / ((A + I) C)`` and a store of the pinned
values over their entries; the last step divides by ``(A + I) C``,
which is not held through the loop but computed again after the last
product: one more product, with the same bits.
When every channel of a block has the same known set, as under a
structural mask, ``C`` and ``(A + I) C`` are one column that broadcasts.
Rows that reach no source have ``C = 0`` and stay exactly 0.

``alpha ** S`` would underflow on deep nodes, so the kernel reads
``C = alpha ** min(S, K + 1)`` for ``K`` steps, which gives the bits of
the unclipped ``C``: after ``t`` steps ``Y`` is nonzero only where
``S <= t``, a final value at ``S <= K`` reads ``C`` only at
``S <= K + 1``, and a value at ``S > K`` is exactly +0.0 either way.
The clip is taken in place, in the field's own type: a type too narrow
to hold ``K + 1`` holds no distance above it, so it needs none.
Only a channel whose ``min(max(S), K + 1) * ln(1 / alpha)`` exceeds
``MAX_DECAY`` (at K = 100, any ``alpha`` below about 0.0026 on a channel
more than 100 hops deep) goes through its explicit operator instead,
whose ratio weights never underflow.

Fused channels run in blocks, each a contiguous run of at most
``BLOCK_COLUMNS`` channels that ends where an explicit channel sits.
One task list holds a task per missing pattern of the explicit channels,
then the blocks; with ``threads`` N, the calling thread and N - 1 pool
threads each take the next task until none is left. A block's columns of
the result are its scratch: they hold its input until the first product,
then step K - 1's product, from which the last step's change is taken in
place before the values are copied in. So besides the result a block
holds its iterate, the new product and one of ``C / ((A + I) C)`` and
``(A + I) C``. The iterate and the mask and distance columns are
C-contiguous copies: a column selection of a C-ordered matrix is
F-ordered, and mixing the two layouts slows every elementwise step of
the loop. Columns never mix inside a product, and each task is
sequential and writes only its own columns, so results are
byte-identical for any thread count, task order and grouping of channels.

:func:`impute_stage1` and :func:`fp_baseline` return an
:class:`ImputeOutcome`, the one result type of every method, which
:func:`pcfi.pipeline.impute` hands on unchanged or with stage 2's
values in place of stage 1's.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .confidence import (BLOCK_COLUMNS, UNREACHABLE, SpdsMatrix, alpha_powers,
                         check_alpha, distinct_columns)
from .errors import InputError, NoSourceError, NumericalError
from .graph import Graph
from .masking import FeatureSet

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "ImputeOutcome",
    "build_channel_operator",
    "diffuse_channel",
    "closed_form_channel",
    "impute_stage1",
    "fp_baseline",
    "resolve_threads",
]

MODES = ("iterative", "closed_form")

# Largest min(max(S), K + 1) * ln(1/alpha) the fused kernel takes: C then
# stays above e**-600 (about 1e-261), so C and C * X are normal floats for
# any |X| above about 1e-47 and lose no precision.
MAX_DECAY = 600.0
# Most unknowns the closed form densifies ``I - W_uu`` for.
MAX_DENSE_UNKNOWNS = 2000


@dataclass(frozen=True)
class ImputeOutcome:
    """The result of one method run: the filled matrix plus bookkeeping.

    It carries no distance field: a caller that needs the field computes
    it and passes it into :func:`pcfi.pipeline.impute`.

    Attributes
    ----------
    values : ndarray, shape (N, F)
        Matrix with missing entries filled; observed entries are the
        input bits unchanged.
    residuals : ndarray of shape (F,), or None
        Max absolute change of the final iteration per channel; None
        exactly when no iteration ran (the closed form, and ``zero``);
        every other run makes the configured number of steps.
    flagged_channels : list of int
        Channels zero-filled (fully or partially) because no source was
        reachable; empty unless lenient mode intervened, and always empty
        for ``zero``.
    """

    values: np.ndarray
    residuals: np.ndarray | None
    flagged_channels: list[int]


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else the PCFI_THREADS environment
    variable, else 1. A value of 0 means the cpus this process may run on;
    a count that is not an integer or is negative is refused."""
    if threads is None:
        raw = os.environ.get("PCFI_THREADS", "").strip()
        if raw:
            try:
                threads = int(raw)
            except ValueError:
                raise InputError(f"PCFI_THREADS must be an integer, got {raw!r}") from None
        else:
            threads = 1
    if not isinstance(threads, numbers.Integral):
        raise InputError(f"thread count must be an integer, got {threads}")
    if threads < 0:
        raise InputError(f"thread count must be >= 0, got {threads}")
    if threads == 0:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    return threads


def check_schedule(mode: str, steps: int) -> None:
    """Raise :class:`InputError` unless ``mode`` is one of ``MODES`` and,
    when iterating, ``steps`` is an integer of at least 1."""
    if mode not in MODES:
        raise InputError(f"unknown diffusion mode {mode!r}")
    if mode == "iterative" and not isinstance(steps, numbers.Integral):
        raise InputError(f"steps must be an integer, got {steps}")
    if mode == "iterative" and steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")


def build_channel_operator(g: Graph, dist_col: np.ndarray, known_col: np.ndarray,
                           alpha: float) -> sparse.csr_array:
    """The pinned operator of one channel, in node order.

    ``dist_col`` holds each node's hop distance to the nearest source
    (``UNREACHABLE`` where there is none) and ``known_col`` marks the
    sources. Row ``i`` puts ``alpha ** (S[j] - S[i])`` on each entry ``j``
    of ``A + I``, normalized to sum to 1; source rows are one-hot.
    """
    n = g.num_nodes
    dist_col = np.asarray(dist_col, dtype=np.int64)
    known_col = np.asarray(known_col, dtype=bool)
    if dist_col.shape != (n,) or known_col.shape != (n,):
        raise InputError(f"distance column {dist_col.shape} and mask column "
                         f"{known_col.shape} must both have shape ({n},)")
    check_alpha(alpha)

    op = g.self_loop_adjacency()
    rows = np.repeat(np.arange(n), np.diff(op.indptr))
    w = np.power(alpha, (dist_col[op.indices] - dist_col[rows]).astype(np.float64))
    pin = known_col[rows]
    w[pin] = op.indices[pin] == rows[pin]
    op.data = w / np.bincount(rows, weights=w, minlength=n)[rows]
    op.eliminate_zeros()
    return op


def diffuse_channel(op: sparse.csr_array, x0: np.ndarray | list[np.ndarray],
                    known: np.ndarray, steps: int = 100):
    """Run ``steps`` iterations of ``x = op @ x`` from ``x0``, setting the
    entries where ``known`` holds back to their ``x0`` bits after each.

    ``x0`` and ``known`` have one row per node and one column per
    channel. Returns ``(values, residuals)``, where ``residuals`` is the
    max absolute change of the last step per column. ``x0`` is only read;
    handed over in a one-item list, which is emptied, it is let go after
    the first product.
    """
    check_schedule("iterative", steps)
    x = x0.pop() if isinstance(x0, list) else x0
    # one indexed store of the pinned entries per step: a masked copy
    # would pass over the whole block
    pinned = np.flatnonzero(known)
    values = x.ravel()[pinned]
    for _ in range(steps):
        prev = x
        x = op @ x  # a new C-ordered array, so ravel() is a view of it
        x.ravel()[pinned] = values
    # no N x F temporary: the change overwrites prev, unless it is the input
    change = np.subtract(prev, x, out=None if steps == 1 else prev)
    return x, np.abs(change, out=change).max(axis=0, initial=0.0)


def closed_form_channel(op: sparse.csr_array, x0: np.ndarray,
                        solve: np.ndarray) -> np.ndarray:
    """Solve ``x_u = (I - W_uu)^{-1} W_uk x_k``, with ``W_uu`` made dense, for
    the rows ``solve`` (missing and reachable: ``S > 0``); every other row
    keeps its ``x0`` bits.

    ``x0`` has one row per node and one column per channel, and is 0 on
    every missing row, so ``W_uk x_k`` is ``op[u] @ x0``.
    """
    u = np.flatnonzero(solve)
    wu = op[u]
    a = np.eye(u.size) - wu[:, u].toarray()
    out = x0.copy()
    try:
        out[u] = np.linalg.solve(a, wu @ x0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear system is singular ({exc})") from exc
    return out


def impute_stage1(g: Graph, fs: FeatureSet, spds: SpdsMatrix, alpha: float, *,
                  steps: int = 100, mode: str = "iterative",
                  lenient: bool = False, threads: int | None = None,
                  overwrite: bool = False) -> ImputeOutcome:
    """Fill missing entries channel-wise by confidence-weighted diffusion,
    with confidences ``alpha ** S`` for ``alpha`` in (0, 1).

    Every missing node must reach a source in its channel; with
    ``lenient=True``, offending channels are flagged and the unreachable
    region is left at zero (sources elsewhere in the channel still
    diffuse over their reachable region), otherwise
    :class:`NoSourceError` is raised naming the channels.

    ``mode`` is "iterative" (``steps`` applications of the operator) or
    "closed_form" (direct solve). ``threads`` spreads one task list over
    a pool: a task per missing pattern of the explicit channels, then the
    fused column blocks, or in the closed form a task per known set;
    output bits do not depend on it. ``spds`` must agree with
    ``fs.known`` (:meth:`SpdsMatrix.check_mask`).

    The result is written into a copy of ``fs.values``, or, with
    ``overwrite=True``, into ``fs.values`` itself, for a caller that gives
    ``fs`` up: each task reads and writes its own columns alone (their
    input once, at its start), so tasks stay independent on the pool.
    ``fs.known`` is left as it is.
    """
    check_alpha(alpha)
    check_schedule(mode, steps)
    flagged = _checked_flags(g, fs, spds, lenient)

    out = fs.given_up_values() if overwrite else fs.values.copy()
    if mode == "closed_form":
        _solve_known_sets(out, fs.known, spds, lambda c: build_channel_operator(
            g, spds.distances[:, c], fs.known[:, c], alpha), resolve_threads(threads))
        return ImputeOutcome(values=out, residuals=None, flagged_channels=flagged)
    residuals = np.zeros(fs.num_channels, dtype=np.float64)
    if fs.values.size == 0:
        return ImputeOutcome(values=out, residuals=residuals, flagged_channels=flagged)

    depth = np.minimum(spds.distances.max(axis=0), steps + 1, dtype=np.int64)
    explicit = fs.known.any(axis=0) & (depth * -math.log(alpha) > MAX_DECAY)
    blocks = _fused_blocks(explicit)
    ai = g.self_loop_adjacency() if blocks else None
    patterns = _known_sets(fs.known, np.flatnonzero(explicit))

    def run_pattern(cols):
        dist_col = spds.distances[:, cols[0]]
        op = build_channel_operator(g, dist_col, fs.known[:, cols[0]], alpha)
        # handed over, so the copy is freed after the first product
        out[:, cols], residuals[cols] = diffuse_channel(
            op, [fs.values.take(cols, axis=1)], fs.known.take(cols, axis=1), steps)

    def run_block(cols):
        residuals[cols] = _diffuse_block(ai, fs, spds, alpha, cols, steps,
                                         out[:, cols[0]:cols[-1] + 1])

    tasks = [(run_pattern, c) for c in patterns] + [(run_block, c) for c in blocks]
    _run(lambda task: task[0](task[1]), tasks, resolve_threads(threads))
    _release_free_heap()
    return ImputeOutcome(values=out, residuals=residuals, flagged_channels=flagged)


def _checked_flags(g: Graph, fs: FeatureSet, spds: SpdsMatrix, lenient: bool) -> list[int]:
    """Both diffusions' input checks, before any work: ``fs`` has a row per
    node of ``g`` and agrees with ``spds`` (:meth:`SpdsMatrix.check_mask`).
    Returns the channels with a missing entry whose component holds no
    observed entry of the channel, which are ``UNREACHABLE`` in the field,
    or raises :class:`NoSourceError` naming them unless ``lenient``."""
    g.check_rows(fs.values)
    spds.check_mask(fs.known)
    flagged = np.flatnonzero((spds.distances == UNREACHABLE).any(axis=0)).tolist()
    if flagged and not lenient:
        raise NoSourceError(
            f"{len(flagged)} channel(s) have missing nodes with no reachable "
            f"observed entry: {flagged[:10]}{'...' if len(flagged) > 10 else ''}; "
            "rerun leniently to zero-fill them or restrict the graph first",
            channels=flagged,
        )
    return flagged


def _known_sets(known: np.ndarray, channels: np.ndarray) -> list[np.ndarray]:
    """``channels`` grouped by their column of ``known``, one per known set."""
    first, inverse = distinct_columns(known[:, channels])
    return [channels[inverse == gi] for gi in range(first.size)]


def _solve_known_sets(out: np.ndarray, known: np.ndarray, spds: SpdsMatrix,
                      operator, nthreads: int) -> None:
    """Both closed forms: refuse a known set of more than ``MAX_DENSE_UNKNOWNS``
    unknowns (``S > 0``), naming the largest, then solve each set's columns of
    ``out`` in place with its first channel ``c``'s ``operator(c)``, a task each."""
    largest = int((spds.distances > 0).sum(axis=0).max(initial=0))
    if largest > MAX_DENSE_UNKNOWNS:
        raise InputError(f"closed form would densify a {largest} x {largest} system "
                         f"(limit {MAX_DENSE_UNKNOWNS}); use the iterative mode")

    def solve(cols):
        out[:, cols] = closed_form_channel(operator(cols[0]), out.take(cols, axis=1),
                                           spds.distances[:, cols[0]] > 0)

    _run(solve, _known_sets(known, np.flatnonzero(known.any(axis=0))), nthreads)
    _release_free_heap()


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the system, where the C library
    can (glibc's ``malloc_trim``). glibc keeps a free top of the heap below
    its trim threshold, which rises to twice the largest array freed so far
    (up to 64 MB): the blocks' arrays, freed there, would otherwise stay
    resident after stage 1."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # not glibc
        pass


def _run(fn, items, nthreads: int) -> None:
    """Call ``fn`` on every item: the calling thread and ``nthreads - 1``
    pool threads each take the next item until none is left. Buffers that
    the caller frees go back to the main allocator arena, which later
    stages allocate from. An error raised by ``fn`` on any thread is
    raised here, once every thread has stopped."""
    todo = iter(items)
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            fn(item)

    helpers = min(nthreads, len(items)) - 1
    if helpers < 1:
        drain()
        return
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for future in futures:
            future.result()


def _fused_blocks(explicit: np.ndarray) -> list[np.ndarray]:
    """The channels not marked ``explicit``, as contiguous runs of at most
    ``BLOCK_COLUMNS``: a run ends where an explicit channel sits."""
    edge = np.concatenate(([True], explicit, [True]))
    bounds = np.flatnonzero(edge[1:] != edge[:-1])
    return [np.arange(lo, min(lo + BLOCK_COLUMNS, hi))
            for start, hi in zip(bounds[::2], bounds[1::2])
            for lo in range(start, hi, BLOCK_COLUMNS)]


def _diffuse_block(ai, fs: FeatureSet, spds: SpdsMatrix, alpha: float,
                   cols: np.ndarray, steps: int, out: np.ndarray) -> np.ndarray:
    """``steps`` fused iterations on the channels ``cols``. ``out`` holds
    their input values and is overwritten with their results; returns the
    max change of the last step per channel."""
    scale, den = _confidences(ai, spds, alpha, cols, steps)
    scale /= den  # pinned entries are stored over, so their scale is unused
    del den
    # a C-contiguous copy, so every elementwise step below runs on arrays of
    # one layout (out may be a column slice of a wider matrix)
    y = out.copy()  # observed values, 0 elsewhere
    pinned = np.flatnonzero(fs.known.take(cols, axis=1))
    values = y.ravel()[pinned]

    # y feeds nothing but the next product, which starts every sum at +0.0,
    # so the sign of a zero in y (a pinned -0.0, or a product that
    # underflows) never reaches an output. out keeps the input, the previous
    # iterate when steps == 1; otherwise step K - 1's product is parked there
    for step in range(1, steps):
        y = ai @ y
        if step == steps - 1:
            out[...] = y
        y *= scale
        y.ravel()[pinned] = values
    del scale
    x = ai @ y
    del y
    # (A + I) C again, rather than held through the loop: the product is
    # deterministic, so it has the same bits
    den = _confidences(ai, spds, alpha, cols, steps)[1]
    x /= den
    x.ravel()[pinned] = values
    out /= den  # at steps == 1 the input, which is 0 off its pinned entries
    del den
    out -= x
    out[fs.known.take(cols, axis=1)] = 0.0  # pinned entries do not change
    residuals = np.abs(out, out=out).max(axis=0)
    out[...] = x
    return residuals


def _confidences(ai, spds: SpdsMatrix, alpha: float, cols: np.ndarray,
                 steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Confidences ``C = alpha ** min(S, K + 1)`` of the channels ``cols``
    and their sums ``(A + I) C``, which are inf on the rows where ``C`` is
    0; one column of each when every channel shares one known set."""
    dist = spds.distances.take(cols, axis=1)
    if (dist == dist[:, :1]).all():
        # one known set for the whole block: one column of confidences
        # broadcasts over every channel
        dist = dist[:, :1]
    # clipped at K + 1 hops in the field's type (dist is a copy)
    if steps + 1 <= np.iinfo(dist.dtype).max:
        np.minimum(dist, steps + 1, out=dist)
    c = alpha_powers(alpha, dist)
    del dist
    den = ai @ c
    # rows that reach no source: C = 0, so scale and values stay 0, with no 0/0
    den[c == 0.0] = np.inf
    return c, den


def fp_baseline(g: Graph, fs: FeatureSet | list[FeatureSet], spds: SpdsMatrix, *,
                steps: int = 100, mode: str = "iterative",
                lenient: bool = False) -> ImputeOutcome:
    """Baseline diffusion with the symmetric normalized adjacency.

    The operator is ``D^{-1/2} (A + I) D^{-1/2}`` with self-loop degrees;
    ``mode`` is :func:`impute_stage1`'s: each of ``steps`` steps multiplies
    and then resets observed entries to their input bits, or the closed
    form solves once per known set. Regions with no observed node in a
    channel stay zero; ``spds``, the distance field of ``fs.known``, finds
    the channels that hold such a region, which are refused or, with
    ``lenient``, flagged, by the rule and the checks of :func:`impute_stage1`.

    ``fs`` is only read. Handed over in a one-item list, which is emptied,
    its values are let go after the first step, or once the closed form has
    copied them."""
    check_schedule(mode, steps)
    if isinstance(fs, list):
        fs = fs.pop()
    flagged = _checked_flags(g, fs, spds, lenient)
    op = g.self_loop_adjacency()
    dinv = 1.0 / np.sqrt(g.degrees + 1.0)
    op.data = dinv[np.repeat(np.arange(g.num_nodes), g.degrees + 1)] * dinv[op.indices]

    known, x0 = fs.known, [fs.values]
    del fs
    if mode == "closed_form":
        x = x0.pop().copy()
        _solve_known_sets(x, known, spds, lambda c: op, 1)
        return ImputeOutcome(values=x, residuals=None, flagged_channels=flagged)
    x, residuals = diffuse_channel(op, x0, known, steps)
    return ImputeOutcome(values=x, residuals=residuals, flagged_channels=flagged)
