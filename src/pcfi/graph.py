"""Undirected graph container and connectivity utilities.

The graph is stored in compressed sparse row form: ``indptr`` of length
N+1 and a flat ``indices`` array holding each node's neighbors sorted
ascending. Graphs are immutable after construction; self-loops and
duplicate edges are removed when building. Building and restricting are
numpy alone: each directed edge ``(i, j)`` becomes the key ``i*N + j``,
and one in-place sort of the keys orders the rows and each row's
neighbors at once. ``scipy.sparse`` is imported only by
:meth:`Graph.self_loop_adjacency`, the operand of every sparse product in
the package, so a command that takes no sparse product, such as ``pcfi
mask`` or ``pcfi synth``, loads no scipy. The component search is numpy
alone too (importing ``scipy.sparse.csgraph`` would load
``scipy.sparse.linalg`` and ``scipy.linalg``, which no run needs).
This module is the one place that forms ``A + I`` and cuts a graph to
its largest component.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from scipy import sparse

log = logging.getLogger("pcfi.graph")

__all__ = [
    "Graph",
    "build_graph",
    "connected_components",
    "extract_largest_component",
    "induced_subgraph",
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

    def check_rows(self, matrix: np.ndarray) -> None:
        """Raise :class:`InputError` unless ``matrix`` is 2-D with one row
        per node."""
        if matrix.ndim != 2 or matrix.shape[0] != self.num_nodes:
            raise InputError(f"matrix shape {matrix.shape} does not match graph "
                             f"with {self.num_nodes} nodes")

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def self_loop_adjacency(self, dtype=np.float64) -> sparse.csr_array:
        """``A + I``, the adjacency matrix with a self-loop on every node,
        as a CSR matrix of ones with sorted indices."""
        from scipy import sparse

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
class ComponentLabels:
    """Connected-component labeling.

    ``labels[i]`` is the component id of node ``i`` (int32 below 2**31
    nodes); ids are assigned in order of first discovery scanning nodes
    ``0..N-1``, so ties for the largest component resolve to the
    smallest id.
    """

    labels: np.ndarray
    num_components: int
    largest_id: int

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_components)


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

    m = edges.shape[0]
    keys = np.empty(2 * m, dtype=np.int64)  # both orientations
    np.multiply(edges[:, 0], num_nodes, out=keys[:m])
    keys[:m] += edges[:, 1]
    np.multiply(edges[:, 1], num_nodes, out=keys[m:])
    keys[m:] += edges[:, 0]
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])  # repeats
    keep &= keys % (num_nodes + 1) != 0  # self-loops, the keys i*(N + 1)
    return _graph_of_sorted_keys(keys[keep], num_nodes)


def _graph_of_sorted_keys(keys: np.ndarray, n: int) -> Graph:
    """The graph on ``n`` nodes whose directed edges ``(i, j)`` are the
    strictly increasing int64 ``keys`` ``i*n + j``, both orientations of
    each edge. Sorted keys run row by row, each row's columns ascending,
    so row ``i`` starts at the first key ``>= i*n``; ``keys`` becomes
    the graph's ``indices``."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return Graph(indptr=indptr, indices=np.remainder(keys, n, out=keys))


def connected_components(g: Graph) -> ComponentLabels:
    """Label connected components by min-label hooking with pointer
    jumping (Shiloach & Vishkin 1982; FastSV, Zhang, Azad & Hu 2020).

    Every node starts as its own parent. Each round takes the
    grandparents ``gf = f[f]``; a node's parent, and its parent's
    parent, drop to the smallest ``gf`` among its neighbours, and every
    node then jumps to its grandparent if that is smaller. Labels only
    fall and stay inside the component, so the rounds stop, after about
    log2 N of them, with every node pointing at its component's
    smallest node. Components are numbered in the order of their
    smallest nodes, which is scipy.sparse.csgraph's discovery order.
    """
    n = g.num_nodes
    f = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    # isolated rows have no neighbour minimum and keep their own label
    has = np.flatnonzero(g.degrees)
    starts = g.indptr[has]
    rounds = 0
    while True:
        rounds += 1
        gf = f[f]
        low = f.copy()
        if has.size:
            low[has] = np.minimum.reduceat(gf[g.indices], starts)
        m = np.minimum(f, low)
        np.minimum.at(m, f, low)
        np.minimum(m, gf, out=m)
        if np.array_equal(m, f):
            break
        f = m
    roots, labels = np.unique(f, return_inverse=True)
    labels = labels.astype(f.dtype, copy=False)
    log.debug("%d nodes: %d components in %d rounds", n, roots.size, rounds)
    if roots.size == 0:
        return ComponentLabels(labels=labels, num_components=0, largest_id=-1)
    sizes = np.bincount(labels, minlength=roots.size)
    # argmax returns the first maximum, i.e. the smallest component id
    return ComponentLabels(labels=labels, num_components=int(roots.size),
                           largest_id=int(sizes.argmax()))


def induced_subgraph(g: Graph, nodes: np.ndarray) -> Graph:
    """Subgraph induced on ``nodes`` (distinct original ids, in any order),
    with ids compacted to ``0..len(nodes)-1`` in that order."""
    nodes = np.asarray(nodes, dtype=np.int64)
    k = nodes.size
    new = np.full(g.num_nodes, -1, dtype=np.int32 if k < 2**31 else np.int64)
    new[nodes] = np.arange(k)
    rows = np.repeat(new, g.degrees)
    cols = new[g.indices]
    inside = (rows >= 0) & (cols >= 0)
    keys = rows[inside].astype(np.int64)
    del rows
    keys *= k
    keys += cols[inside]
    del cols, inside
    # ascending nodes keep the order of g's rows and of each row's
    # neighbors, so only nodes out of order need their keys sorted
    if np.any(nodes[1:] < nodes[:-1]):
        keys.sort()
    return _graph_of_sorted_keys(keys, k)


def extract_largest_component(g: Graph):
    """Restrict ``g`` to its largest connected component (ties go to the
    component holding the smallest node id).

    Returns ``(subgraph, id_map, num_components)``, where ``id_map[new_id]``
    is the original node id; a graph with at most one component comes
    back unchanged.
    """
    comps = connected_components(g)
    if comps.num_components <= 1:
        return g, np.arange(g.num_nodes), comps.num_components
    id_map = np.flatnonzero(comps.labels == comps.largest_id)
    return induced_subgraph(g, id_map), id_map, comps.num_components

