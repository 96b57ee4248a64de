"""File formats and serialization.

Conventions shared by the library and the command line:

* edge lists are whitespace-separated pairs of integer node ids, one
  edge per line (``.tsv``);
* matrices are comma-separated with no header row (pass ``header=True``
  to skip one); masks must contain only 0/1 entries; distance fields are
  integers with -1 marking unreachable entries;
* floats are written with 9 significant digits and negative zero
  normalized, so identical arrays always serialize to identical bytes;
* a path of ``-`` reads from stdin or writes to stdout;
* JSON reports sort keys, round floats to 9 significant digits, and
  replace non-finite values with null.
"""

from __future__ import annotations

import io as _io
import json
import sys
from pathlib import Path

import numpy as np

from .errors import InputError
from .graph import build_graph
from .synth import SynthDataset

__all__ = [
    "load_edges",
    "load_matrix",
    "load_mask",
    "load_spds",
    "write_matrix",
    "write_spds",
    "write_edges",
    "write_json",
    "write_dataset",
    "load_dataset",
]


def _read_text(path) -> str:
    if str(path) == "-":
        return sys.stdin.read()
    return Path(path).read_text()


class _OutHandle:
    """Open ``path`` for text writing, or wrap stdout when path is '-'."""

    def __init__(self, path):
        self.path = str(path)
        self._fh = None

    def __enter__(self):
        if self.path == "-":
            self._fh = sys.stdout
        else:
            self._fh = open(self.path, "w", newline="\n")
        return self._fh

    def __exit__(self, *exc):
        if self.path != "-":
            self._fh.close()
        return False


def _parse(source, *, delimiter, skiprows: int, what: str) -> np.ndarray:
    try:
        return np.loadtxt(source, delimiter=delimiter, skiprows=skiprows,
                          ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"could not parse {what}: {exc}") from exc


def _loadtxt(path, *, delimiter, skiprows: int, what: str) -> np.ndarray:
    """Parse from the open file (or stdin for '-'): a text copy in memory
    would take 4 bytes per character on top of the array."""
    if str(path) == "-":
        return _parse(sys.stdin, delimiter=delimiter, skiprows=skiprows,
                      what=what)
    with open(path) as fh:
        return _parse(fh, delimiter=delimiter, skiprows=skiprows, what=what)


def load_edges(path) -> np.ndarray:
    """Edge pairs as an (E, 2) int64 array; blank/comment-only input
    gives an empty list."""
    text = _read_text(path)
    if not any(line.strip() and not line.lstrip().startswith("#")
               for line in text.splitlines()):
        return np.empty((0, 2), dtype=np.int64)
    arr = _parse(_io.StringIO(text), delimiter=None, skiprows=0,
                 what=f"edge list {path}")
    if arr.shape[1] != 2:
        raise InputError(
            f"edge list {path} must have exactly 2 columns, found {arr.shape[1]}"
        )
    if np.any(arr != np.floor(arr)):
        raise InputError(f"edge list {path} contains non-integer node ids")
    return arr.astype(np.int64)


def load_matrix(path, header: bool = False) -> np.ndarray:
    """Comma-separated float matrix; all entries must be finite."""
    arr = _loadtxt(path, delimiter=",", skiprows=1 if header else 0,
                   what=f"matrix {path}")
    if not np.isfinite(arr).all():
        raise InputError(f"matrix {path} contains non-finite entries")
    return arr


def load_mask(path, header: bool = False) -> np.ndarray:
    """Boolean mask from a 0/1 matrix; any other value is an error."""
    arr = _loadtxt(path, delimiter=",", skiprows=1 if header else 0,
                   what=f"mask {path}")
    if not np.isin(arr, (0.0, 1.0)).all():
        bad = arr[~np.isin(arr, (0.0, 1.0))].flat[0]
        raise InputError(f"mask {path} must contain only 0 and 1, found {bad!r}")
    return arr.astype(bool)


def load_spds(path, header: bool = False) -> np.ndarray:
    """Integer distance field; -1 marks unreachable, nothing below it."""
    arr = _loadtxt(path, delimiter=",", skiprows=1 if header else 0,
                   what=f"distance field {path}")
    if np.any(arr != np.floor(arr)):
        raise InputError(f"distance field {path} contains non-integer entries")
    if np.any(arr < -1):
        raise InputError(f"distance field {path} contains values below -1")
    return arr.astype(np.int64)


def write_matrix(path, arr: np.ndarray) -> None:
    """Comma-separated floats, 9 significant digits, negative zero
    normalized."""
    arr = np.asarray(arr, dtype=np.float64) + 0.0  # +0.0 turns -0.0 into 0.0
    with _OutHandle(path) as fh:
        np.savetxt(fh, arr, fmt="%.9g", delimiter=",")


def write_spds(path, distances: np.ndarray) -> None:
    with _OutHandle(path) as fh:
        np.savetxt(fh, np.asarray(distances, dtype=np.int64), fmt="%d",
                   delimiter=",")


def write_edges(path, edges: np.ndarray) -> None:
    with _OutHandle(path) as fh:
        np.savetxt(fh, np.asarray(edges, dtype=np.int64), fmt="%d",
                   delimiter="\t")


def _json_sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not np.isfinite(x):
            return None
        return float(f"{x + 0.0:.9g}")
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def write_json(path, obj) -> None:
    """JSON with sorted keys, 9-significant-digit floats, null for
    non-finite values, and a trailing newline."""
    with _OutHandle(path) as fh:
        json.dump(_json_sanitize(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_dataset(directory, dataset: SynthDataset) -> None:
    """Write a generated dataset as edges.tsv, features.csv, labels.csv,
    and meta.json in ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_edges(directory / "edges.tsv", dataset.graph.edge_array())
    write_matrix(directory / "features.csv", dataset.features)
    with _OutHandle(directory / "labels.csv") as fh:
        np.savetxt(fh, dataset.labels.astype(np.int64), fmt="%d")
    meta = {"spec": {
                "num_nodes": dataset.spec.num_nodes,
                "num_classes": dataset.spec.num_classes,
                "feature_dim": dataset.spec.feature_dim,
                "intra_edge_prob": dataset.spec.intra_edge_prob,
                "inter_edge_prob": dataset.spec.inter_edge_prob,
                "gaussian_scale": dataset.spec.gaussian_scale,
                "seed": dataset.spec.seed,
                "largest_component": dataset.spec.largest_component,
            },
            **dataset.meta}
    write_json(directory / "meta.json", meta)


def load_dataset(directory):
    """Load a dataset directory back as ``(graph, features, labels, meta)``."""
    directory = Path(directory)
    labels_arr = _loadtxt(directory / "labels.csv", delimiter=None,
                          skiprows=0, what="labels")
    labels = labels_arr.astype(np.int64).ravel()
    features = load_matrix(directory / "features.csv")
    if features.shape[0] != labels.size:
        raise InputError(
            f"features have {features.shape[0]} rows but labels have {labels.size}"
        )
    edges = load_edges(directory / "edges.tsv")
    graph = build_graph(edges, labels.size)
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return graph, features, labels, meta
