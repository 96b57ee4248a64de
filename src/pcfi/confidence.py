"""Distance-to-source fields and the confidences derived from them.

For each channel ``d``, the distance field ``S[i, d]`` is the length of
the shortest path from node ``i`` to the nearest node whose value in
channel ``d`` is observed (0 on the observed nodes themselves). Nodes
with no path to any observed node carry the sentinel ``UNREACHABLE``.

The pseudo-confidence of an entry is ``alpha ** S[i, d]`` with
``alpha`` in (0, 1): certainty 1 at observed entries, decaying
geometrically with hop distance, and defined as 0 at unreachable nodes.
The relative pseudo-confidence between neighbors,
``alpha ** (S[j, d] - S[i, d])``, is the edge weight used by the
channel-wise diffusion.

The search runs once per distinct known set, ``BLOCK_COLUMNS`` sets at
a time; each block is a C-contiguous copy of its columns of the mask.
The field is stored in the narrowest signed integer type that holds
every hop count of the graph (int16 up to 32767 nodes), a quarter of
int64 or less. Confidences are read from a table of ``alpha ** k``, one
``np.power`` per distance value (unless the table would outgrow the
field), which holds the bits the elementwise power gives; a whole field
is read in row blocks, because ``np.take`` turns a narrow index array
into an ``intp`` copy of it.
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
    "pseudo_confidence",
]

UNREACHABLE = -1
# Channels per dense block in the sparse products here and in stage 1.
BLOCK_COLUMNS = 32
# Values per row block of a whole-field confidence lookup.
ROW_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class SpdsMatrix:
    """Per-channel distance-to-nearest-source field.

    Attributes
    ----------
    distances : ndarray of a signed integer type, shape (N, F)
        Hop counts; ``UNREACHABLE`` (-1) where no source is reachable. A
        signed integer array keeps its type (``compute_spds`` gives the
        narrowest one for the graph); any other input becomes int64.
    alpha : float
        Decay base in (0, 1) used to turn distances into confidences.
    """

    distances: np.ndarray
    alpha: float

    def __post_init__(self):
        distances = np.asarray(self.distances)
        distances = np.ascontiguousarray(
            distances, dtype=distances.dtype if distances.dtype.kind == "i" else np.int64)
        if distances.ndim != 2:
            raise InputError(f"distance field must be 2-D, got shape {distances.shape}")
        if np.any(distances < UNREACHABLE):
            raise InputError("distances must be >= -1")
        if not (0.0 < self.alpha < 1.0):
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha}")
        distances.setflags(write=False)
        object.__setattr__(self, "distances", distances)

    @property
    def num_nodes(self) -> int:
        return self.distances.shape[0]

    @property
    def num_channels(self) -> int:
        return self.distances.shape[1]


def multi_source_bfs(g: Graph, sources: np.ndarray) -> np.ndarray:
    """Hop distance from every node to the nearest of ``sources``.

    Returns distances in the graph's distance type (see
    :func:`distance_dtype`) with ``UNREACHABLE`` where no source can be
    reached; an empty source set yields all ``UNREACHABLE``.
    """
    known = np.zeros((g.num_nodes, 1), dtype=bool)
    known[np.asarray(sources, dtype=np.int64), 0] = True
    return _hop_distances(g, known)[:, 0]


def compute_spds(g: Graph, known: np.ndarray, alpha: float) -> SpdsMatrix:
    """Distance field for every channel of a known-mask.

    Channels with the same known set share one search, so a structural
    mask costs a single search whatever the channel count. The distinct
    known sets are searched together, ``BLOCK_COLUMNS`` at a time: each
    level expands every frontier of a block with one sparse product.
    """
    known = np.asarray(known, dtype=bool)
    if known.ndim != 2 or known.shape[0] != g.num_nodes:
        raise InputError(
            f"known mask shape {known.shape} does not match graph with "
            f"{g.num_nodes} nodes"
        )
    return SpdsMatrix(distances=_hop_distances(g, known), alpha=alpha)


def distance_dtype(num_nodes: int) -> np.dtype:
    """Narrowest signed integer type holding ``UNREACHABLE`` and every hop
    count of a graph with ``num_nodes`` nodes (at most ``num_nodes - 1``)."""
    for dtype in (np.int8, np.int16, np.int32):
        if num_nodes <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _hop_distances(g: Graph, known: np.ndarray) -> np.ndarray:
    """Level-synchronous breadth-first search from the known set of every
    column of ``known`` (N x F bool), run once per distinct column."""
    n, f = known.shape
    if n == 0 or f == 0:
        return np.empty((n, f), dtype=distance_dtype(n))
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


def pseudo_confidence(spds: SpdsMatrix) -> np.ndarray:
    """``alpha ** S`` elementwise, defined as 0 at unreachable entries."""
    out = np.empty(spds.distances.shape)
    for rows, xi in confidence_rows(spds):
        out[rows] = xi
    return out


def confidence_rows(spds: SpdsMatrix):
    """``(rows, alpha ** S[rows])`` for consecutive row slices ``rows`` of
    about ``ROW_BLOCK_VALUES`` entries each; every block is a new array."""
    n, f = spds.distances.shape
    step = max(1, ROW_BLOCK_VALUES // max(f, 1))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        yield rows, alpha_powers(spds.alpha, spds.distances[rows])


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
