"""Undirected graph container and connectivity utilities.

The graph is stored in compressed sparse row form: ``indptr`` of length
N+1 and a flat ``indices`` array holding each node's neighbors sorted
ascending. Graphs are immutable after construction; self-loops and
duplicate edges are removed when building.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InputError
from .masking import FeatureSet

__all__ = [
    "Graph",
    "ChannelPartition",
    "ComponentLabels",
    "build_graph",
    "connected_components",
    "extract_largest_component",
    "induced_subgraph",
    "partition_channel",
    "neighbors_of_many",
]


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form.

    Attributes
    ----------
    indptr : ndarray of int64, shape (N+1,)
        Row pointers; neighbors of node ``i`` are
        ``indices[indptr[i]:indptr[i+1]]``.
    indices : ndarray of int64
        Neighbor ids, sorted ascending within each row. Symmetric:
        ``j in neighbors(i)`` iff ``i in neighbors(j)``. No self-loops,
        no duplicates.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def self_loop_adjacency(self, dtype=np.float64) -> sparse.csr_array:
        """``A + I``, the adjacency matrix with a self-loop on every node,
        as a CSR matrix of ones with sorted indices."""
        n = self.num_nodes
        adj = sparse.csr_array((np.ones(self.indices.size, dtype=dtype),
                                self.indices, self.indptr), shape=(n, n))
        return adj + sparse.eye_array(n, dtype=dtype, format="csr")

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an (E, 2) array with i < j."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees)
        keep = rows < self.indices
        return np.column_stack([rows[keep], self.indices[keep]])


@dataclass(frozen=True)
class ChannelPartition:
    """Known/unknown node split for one channel, with the reordering that
    places known nodes first.

    ``to_reordered[old_id]`` gives the position in the reordered space;
    ``to_original[new_pos]`` restores the original id. Known nodes occupy
    positions ``0..len(known_nodes)-1`` preserving their relative order.
    """

    channel: int
    known_nodes: np.ndarray
    unknown_nodes: np.ndarray
    to_reordered: np.ndarray
    to_original: np.ndarray

    @property
    def num_known(self) -> int:
        return self.known_nodes.size

    @property
    def num_unknown(self) -> int:
        return self.unknown_nodes.size


@dataclass(frozen=True)
class ComponentLabels:
    """Connected-component labeling.

    ``labels[i]`` is the component id of node ``i``; ids are assigned in
    order of first discovery scanning nodes ``0..N-1``, so ties for the
    largest component resolve to the smallest id.
    """

    labels: np.ndarray
    num_components: int
    largest_id: int

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_components)


def neighbors_of_many(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``nodes`` (duplicates preserved)."""
    starts = g.indptr[nodes]
    counts = g.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    gather = np.arange(total) - np.repeat(offsets, counts) + np.repeat(starts, counts)
    return g.indices[gather]


def build_graph(edge_list, num_nodes: int) -> Graph:
    """Build an undirected graph from raw edge pairs.

    Pairs may repeat, appear in both orientations, or be self-loops;
    self-loops are dropped and duplicates collapse to a single edge.

    Raises
    ------
    InputError
        If a node id falls outside ``[0, num_nodes)``; the message names
        the offending pair.
    """
    if num_nodes < 0:
        raise InputError(f"num_nodes must be non-negative, got {num_nodes}")
    edges = np.asarray(edge_list, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise InputError("edge list must be a sequence of (node, node) pairs")

    bad = (edges < 0) | (edges >= num_nodes)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        raise InputError(
            f"edge ({edges[i, 0]}, {edges[i, 1]}) references a node id outside "
            f"[0, {num_nodes})"
        )

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
    return Graph(indptr=indptr, indices=cols)


def connected_components(g: Graph) -> ComponentLabels:
    """Label connected components (scipy's graph traversal)."""
    comp, labels = csgraph.connected_components(g.self_loop_adjacency(bool),
                                                directed=False)
    labels = labels.astype(np.int64)
    if comp == 0:
        return ComponentLabels(labels=labels, num_components=0, largest_id=-1)
    sizes = np.bincount(labels, minlength=comp)
    # argmax returns the first maximum, i.e. the smallest component id
    return ComponentLabels(labels=labels, num_components=comp,
                           largest_id=int(sizes.argmax()))


def induced_subgraph(g: Graph, nodes: np.ndarray) -> Graph:
    """Subgraph induced on ``nodes`` (ascending original ids), with ids
    compacted to ``0..len(nodes)-1`` in that order."""
    nodes = np.asarray(nodes, dtype=np.int64)
    remap = np.full(g.num_nodes, -1, dtype=np.int64)
    remap[nodes] = np.arange(nodes.size)
    rows = np.repeat(remap[nodes], g.degrees[nodes])
    cols = remap[neighbors_of_many(g, nodes)]
    keep = cols >= 0
    rows, cols = rows[keep], cols[keep]
    indptr = np.zeros(nodes.size + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    # rows are emitted in ascending remapped order, cols ascend within rows
    return Graph(indptr=indptr, indices=cols)


def extract_largest_component(g: Graph, features: FeatureSet):
    """Restrict ``g`` and ``features`` to the largest connected component.

    Returns ``(subgraph, subfeatures, id_map)`` where ``id_map[new_id]``
    is the original node id.
    """
    if features.num_nodes != g.num_nodes:
        raise InputError(
            f"features have {features.num_nodes} rows but graph has "
            f"{g.num_nodes} nodes"
        )
    comps = connected_components(g)
    id_map = np.flatnonzero(comps.labels == comps.largest_id)
    sub = induced_subgraph(g, id_map)
    subfeatures = FeatureSet(values=features.values[id_map].copy(),
                             known=features.known[id_map].copy())
    return sub, subfeatures, id_map


def partition_channel(mask_column: np.ndarray, d: int) -> ChannelPartition:
    """Split nodes into known/unknown for channel ``d`` and record the
    permutation that lists known nodes first (ascending within each part)."""
    mask_column = np.asarray(mask_column, dtype=bool)
    known = np.flatnonzero(mask_column)
    unknown = np.flatnonzero(~mask_column)
    to_original = np.concatenate([known, unknown])
    to_reordered = np.empty(mask_column.size, dtype=np.int64)
    to_reordered[to_original] = np.arange(mask_column.size)
    return ChannelPartition(channel=d, known_nodes=known, unknown_nodes=unknown,
                            to_reordered=to_reordered, to_original=to_original)
