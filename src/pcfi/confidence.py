"""Distance-to-source fields and the confidences derived from them.

For each channel ``d``, the distance field ``S[i, d]`` is the length of
the shortest path from node ``i`` to the nearest node whose value in
channel ``d`` is observed (0 on the observed nodes themselves). Nodes
with no path to any observed node carry the sentinel ``UNREACHABLE``.

The field holds hop counts only. The decay base ``alpha`` in (0, 1) is
a setting of the run, passed to each function that turns hops into
confidence and checked there. The pseudo-confidence of an entry is
``alpha ** S[i, d]``: certainty 1 at observed entries, decaying
geometrically with hop distance, and defined as 0 at unreachable nodes.
The relative pseudo-confidence between neighbors,
``alpha ** (S[j, d] - S[i, d])``, is the edge weight used by the
channel-wise diffusion.

The search runs once per distinct known set, ``BLOCK_COLUMNS`` sets at
a time; each block is a C-contiguous copy of its columns of the mask.
The search counts hops in a type wide enough for any hop count of the
graph; the field it returns is stored in the narrowest signed integer
type that holds the deepest hop it found (int8 below 128 hops, whatever
the node count), an eighth of int64. Confidences are read from a table
of ``alpha ** k``, one ``np.power`` per distance value (unless the table
would outgrow the field), which holds the bits the elementwise power
gives; a whole field is read in row blocks, because ``np.take`` turns a
narrow index array into an ``intp`` copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import Graph

__all__ = [
    "UNREACHABLE",
    "SpdsMatrix",
    "multi_source_bfs",
    "compute_spds",
]

UNREACHABLE = -1
# Channels per dense block in the sparse products here and in stage 1.
BLOCK_COLUMNS = 32
# Values per row block of a whole-field confidence lookup, and so per row
# block of stage 2's products with the channel correlation. Smaller blocks
# make that product a short GEMM that repacks the F x F matrix every call.
ROW_BLOCK_VALUES = 1 << 18


@dataclass(frozen=True)
class SpdsMatrix:
    """Per-channel distance-to-nearest-source field.

    Attributes
    ----------
    distances : ndarray of a signed integer type, shape (N, F)
        Hop counts; ``UNREACHABLE`` (-1) where no source is reachable. A
        signed integer array keeps its type (``compute_spds`` gives the
        narrowest one for its deepest hop); any other input becomes int64
        through :func:`hop_counts`, which refuses a value int64 cannot hold.
    """

    distances: np.ndarray

    def __post_init__(self):
        distances = np.ascontiguousarray(hop_counts(self.distances))
        if distances.ndim != 2:
            raise InputError(f"distance field must be 2-D, got shape {distances.shape}")
        if np.any(distances < UNREACHABLE):
            raise InputError("distances must be >= -1")
        distances.setflags(write=False)
        object.__setattr__(self, "distances", distances)

    def check_mask(self, known: np.ndarray) -> None:
        """Raise :class:`InputError` unless the field is 0 exactly at the
        observed entries of ``known``, where ``alpha ** S`` is 1."""
        if self.distances.shape != known.shape:
            raise InputError(f"distance field shape {self.distances.shape} "
                             f"does not match feature shape {known.shape}")
        if not np.array_equal(self.distances == 0, known):
            raise InputError("distance field inconsistent with mask: distance 0 "
                             "must hold exactly at observed entries")


def hop_counts(distances) -> np.ndarray:
    """``distances`` as signed integers: a signed integer array as it is,
    any other as int64. Raises :class:`InputError` naming the first value
    that is not a whole number int64 holds (nan, inf and uint64 values
    above ``2**63 - 1`` included) instead of truncating or wrapping it."""
    distances = np.asarray(distances)
    if distances.dtype.kind == "f":
        whole = (distances == np.trunc(distances)) & (np.abs(distances) < 2.0**63)
    else:  # of the integer types, only an unsigned one holds more than int64
        whole = distances.dtype.kind != "u" or distances <= np.iinfo(np.int64).max
    if not np.all(whole):
        raise InputError("distances must be whole numbers (int64), got "
                         f"{distances[~whole][0].item()}")
    return distances if distances.dtype.kind == "i" else distances.astype(np.int64)


def multi_source_bfs(g: Graph, sources: np.ndarray) -> np.ndarray:
    """Hop distance from every node to the nearest of ``sources``.

    Returns distances in the narrowest type that holds the largest (see
    :func:`distance_dtype`), with ``UNREACHABLE`` where no source can be
    reached; an empty source set yields all ``UNREACHABLE``.
    """
    known = np.zeros((g.num_nodes, 1), dtype=bool)
    known[np.asarray(sources, dtype=np.int64), 0] = True
    return _hop_distances(g, known)[:, 0]


def compute_spds(g: Graph, known: np.ndarray) -> SpdsMatrix:
    """Distance field for every channel of a known-mask.

    Channels with the same known set share one search, so a structural
    mask costs a single search whatever the channel count. The distinct
    known sets are searched together, ``BLOCK_COLUMNS`` at a time: each
    level expands every frontier of a block with one sparse product.
    """
    known = np.asarray(known, dtype=bool)
    g.check_rows(known)
    return SpdsMatrix(distances=_hop_distances(g, known))


def distance_dtype(largest: int) -> np.dtype:
    """Narrowest signed integer type holding ``UNREACHABLE`` and every hop
    count up to ``largest``; a graph with ``n`` nodes has none above
    ``n - 1``, so ``distance_dtype(n)`` holds all of its hop counts."""
    for dtype in (np.int8, np.int16, np.int32):
        if largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _hop_distances(g: Graph, known: np.ndarray) -> np.ndarray:
    """Level-synchronous breadth-first search from the known set of every
    column of ``known`` (N x F bool), run once per distinct column."""
    n, f = known.shape
    if n == 0 or f == 0:
        return np.empty((n, f), dtype=distance_dtype(0))
    adj = g.self_loop_adjacency(bool)
    first, inverse = distinct_columns(known)
    # one column per distinct known set, searched in C-contiguous blocks and
    # stored as contiguous column ranges, then gathered row by row: writing
    # each block straight to its scattered columns of the N x F result
    # touches a cache line per element
    dist = np.empty((n, first.size), dtype=distance_dtype(n))
    for lo in range(0, first.size, BLOCK_COLUMNS):
        hi = lo + BLOCK_COLUMNS
        dist[:, lo:hi] = _bfs_block(adj, known.take(first[lo:hi], axis=1))
    # narrowed to the deepest hop while one column per known set, so the
    # gather makes no full-size copy of the wide type
    dist = dist.astype(distance_dtype(int(dist.max(initial=0))), copy=False)
    return dist.take(inverse, axis=1)


def distinct_columns(known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the columns of a boolean matrix with at least one row by
    their content: returns ``first``, the lowest column index of each
    distinct column, and ``inverse``, the group of every column."""
    # each column as one byte string, eight rows per byte, so that columns
    # compare whole (np.unique(axis=1) compares one structured field per row)
    packed = np.ascontiguousarray(np.packbits(known, axis=0).T)
    _, first, inverse = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))),
                                  return_index=True, return_inverse=True)
    return first, inverse.ravel()


def _bfs_block(adj, sources: np.ndarray) -> np.ndarray:
    """Hop distances from each column's ``sources`` over ``adj`` (``A + I``
    as bool). A node reached at level L was still unreached at the start
    of levels 1..L, so counting those levels gives its distance."""
    unreached = ~sources
    dist = np.zeros(sources.shape, dtype=distance_dtype(adj.shape[0]))
    frontier = sources
    while True:
        frontier = adj @ frontier
        frontier &= unreached
        if not frontier.any():
            break
        dist += unreached
        unreached ^= frontier
    dist[unreached] = UNREACHABLE
    return dist


def row_blocks(n: int, f: int):
    """Consecutive row slices of an ``n`` x ``f`` array, each of about
    ``ROW_BLOCK_VALUES`` entries and at least one row."""
    step = max(1, ROW_BLOCK_VALUES // max(f, 1))
    for lo in range(0, n, step):
        yield slice(lo, lo + step)


def confidence_rows(spds: SpdsMatrix, alpha: float):
    """``(rows, alpha ** S[rows])`` for the ``row_blocks`` of the field;
    every block is a new array. ``alpha`` must lie in (0, 1)."""
    check_alpha(alpha)
    for rows in row_blocks(*spds.distances.shape):
        yield rows, alpha_powers(alpha, spds.distances[rows])


def check_alpha(alpha: float) -> None:
    """Raise :class:`InputError` unless ``alpha`` lies in (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")


def check_beta(beta: float) -> None:
    """Raise :class:`InputError` unless ``beta`` is finite and >= 0: a nan
    or inf ``beta`` would turn observed entries into nan in stage 2."""
    if not (0.0 <= beta < np.inf):
        raise InputError(f"beta must be finite and >= 0, got {beta}")


def alpha_powers(alpha: float, distances: np.ndarray) -> np.ndarray:
    """``alpha ** distances`` for an integer distance array, 0 where it is
    ``UNREACHABLE``: ``np.power`` runs once per distance value and the
    array reads its powers from that table. A table longer than the array
    (a distance field not made by a search may hold any large value) would
    save nothing, so then the power is taken elementwise, with the same bits."""
    top = int(distances.max(initial=0)) + 2
    if top > distances.size:
        out = np.power(alpha, distances.astype(np.float64))
        out[distances == UNREACHABLE] = 0.0
        return out
    table = np.power(alpha, np.arange(top, dtype=np.float64))
    table[-1] = 0.0  # UNREACHABLE (-1) reads the last slot
    return table.take(distances)
