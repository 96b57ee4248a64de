"""File formats and serialization.

Conventions shared by the library and the command line:

* edge lists are whitespace-separated pairs of integer node ids, one
  edge per line (``.tsv``);
* matrices are comma-separated with no header row (pass ``header=True``
  to skip one); masks must contain only 0/1 entries; distance fields are
  integers with -1 marking unreachable entries;
* edge lists, distance fields and label files are parsed as integers,
  so an entry such as ``4.0`` is refused and ids above 2**53 keep every
  digit;
* each float of a matrix is written as the bytes of Python's
  ``"%.9g" % x`` (9 significant digits), with ``-0`` written as ``0``, so
  identical arrays always serialize to identical bytes;
* each integer of a mask, distance field, edge list or label file is
  written as the bytes of ``"%d" % x``;
* a header-less mask file in canonical form (every row the same number
  of single ``0``/``1`` digits joined by ``,`` and ended by a newline, as
  ``write_mask`` writes a mask) is read from its bytes; any other mask
  input, stdin and ``--header`` files included, goes through
  ``np.loadtxt``, which gives the same mask for canonical files;
* the shape of a matrix alone (``pcfi mask --features-file``) is counted
  line by line from the stream the parser would read, without parsing a
  value or holding the file;
* rows and JSON reports are written as bytes, to stdout's binary
  buffer for ``-``;
* a path of ``-`` reads from stdin or writes to stdout;
* JSON reports are ASCII, sort keys, round floats to 9 significant
  digits, and replace non-finite values with null.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .confidence import hop_counts
from .errors import InputError
from .graph import build_graph
from .synth import SynthDataset

__all__ = [
    "load_edges",
    "load_matrix",
    "load_matrix_shape",
    "load_mask",
    "load_spds",
    "write_matrix",
    "write_mask",
    "write_spds",
    "write_edges",
    "write_json",
    "write_dataset",
    "load_dataset",
]


@contextlib.contextmanager
def _output(path):
    """Yield the ``write`` of ``path`` opened for bytes. '-' is stdout:
    bytes go to its binary buffer, after any text it holds, or as text to
    a stdout that has none (``io.StringIO``)."""
    if str(path) != "-":
        with open(path, "wb") as fh:
            yield fh.write
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        yield sys.stdout.buffer.write
        sys.stdout.buffer.flush()
    else:
        yield lambda data: sys.stdout.write(data.decode("ascii"))


@contextlib.contextmanager
def _input(path):
    """Yield ``path`` open as text, the stream ``np.loadtxt`` parses with no
    text copy in memory; '-' is stdin, left open."""
    if str(path) == "-":
        yield sys.stdin
    else:
        with open(path) as fh:
            yield fh


def _parse(source, *, delimiter, what: str, skiprows: int = 0,
           dtype=np.float64) -> np.ndarray:
    """One ``np.loadtxt`` call; an int64 ``dtype`` parses each entry as an
    integer and refuses one such as ``4.0``, ``1.5`` or ``inf``."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy < 2 parses an integer entry such as "4.0" through a float,
            # with this warning; as an error it fails as in numpy >= 2
            warnings.filterwarnings("error", "loadtxt\\(\\): Parsing an integer via a float",
                                    DeprecationWarning)
            return np.loadtxt(source, delimiter=delimiter, skiprows=skiprows,
                              ndmin=2, dtype=dtype)
    except (ValueError, DeprecationWarning) as exc:
        refused = (" as integers (non-integer entries are refused)"
                   if dtype == np.int64 else "")
        raise InputError(f"could not parse {what}{refused}: {exc}") from exc


def _loadtxt(path, **parse) -> np.ndarray:
    with _input(path) as fh:
        return _parse(fh, **parse)


def load_edges(path) -> np.ndarray:
    """Edge pairs as an (E, 2) int64 array; blank/comment-only input
    gives an empty list."""
    arr = _loadtxt(path, delimiter=None, what=f"edge list {path}", dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.shape[1] != 2:
        raise InputError(
            f"edge list {path} must have exactly 2 columns, found {arr.shape[1]}"
        )
    return arr


def _check_rows(num_rows: int, path) -> None:
    if num_rows == 0:
        raise InputError(f"matrix {path} has no rows")


def load_matrix(path, header: bool = False) -> np.ndarray:
    """Comma-separated float matrix with at least one row; all entries
    must be finite."""
    arr = _loadtxt(path, delimiter=",", skiprows=int(header), what=f"matrix {path}")
    _check_rows(arr.shape[0], path)
    if not np.isfinite(arr).all():
        raise InputError(f"matrix {path} contains non-finite entries")
    return arr


def load_matrix_shape(path, header: bool = False) -> tuple[int, int]:
    """Rows and columns of a comma-separated matrix, counted line by line
    without parsing a value: rows are the lines that keep any text once a
    ``#`` comment is cut off, columns one more than a row's commas.

    Raises
    ------
    InputError
        If the input has no rows, rows of different widths, or text that
        does not decode.
    """
    rows = width = 0
    try:
        with _input(path) as fh:
            # stdin splits lines at \n alone; \r ends one too, as in a file
            lines = (row for line in fh for row in line.rstrip("\n").split("\r"))
            if header:
                next(lines, None)
            for line in lines:
                if line := line.partition("#")[0]:
                    rows += 1
                    columns = line.count(",") + 1
                    width = width or columns  # the first row's
                    if columns != width:
                        raise InputError(f"matrix {path} is ragged: row {rows} has "
                                         f"{columns} columns, row 1 has {width}")
    except UnicodeDecodeError as exc:
        raise InputError(f"could not read matrix {path}: {exc}") from exc
    _check_rows(rows, path)
    return rows, width


def load_mask(path, header: bool = False) -> np.ndarray:
    """Boolean mask from a 0/1 matrix; any other value is an error.

    A file is read once; a canonical header-less one is decoded from its
    bytes, anything else (and stdin) goes through ``np.loadtxt``."""
    if str(path) == "-" or header:
        arr = _loadtxt(path, delimiter=",", skiprows=int(header), what=f"mask {path}")
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        if (mask := _canonical_mask(data)) is not None:
            return mask
        # the decoding and newline handling of open(path) in text mode
        arr = _parse(_io.TextIOWrapper(_io.BytesIO(data)), delimiter=",",
                     what=f"mask {path}")
    if not np.isin(arr, (0.0, 1.0)).all():
        bad = arr[~np.isin(arr, (0.0, 1.0))].flat[0]
        raise InputError(f"mask {path} must contain only 0 and 1, found {bad!r}")
    return arr.astype(bool)


def _canonical_mask(data: bytes) -> np.ndarray | None:
    """The mask held by ``data`` if every row is the same number of single
    ``0``/``1`` digits joined by ``,`` and ended by a newline (as
    ``write_mask`` writes a mask); None otherwise."""
    width = data.find(b"\n") + 1
    if width < 2 or width % 2 or len(data) % width:
        return None
    rows = np.frombuffer(data, np.uint8).reshape(-1, width)
    ends = np.full(width // 2, ord(","), np.uint8)
    ends[-1] = ord("\n")
    if not (rows[:, 1::2] == ends).all():
        return None
    digits = rows[:, ::2] - np.uint8(ord("0"))  # wraps below "0"
    if not (digits <= 1).all():
        return None
    return digits.view(bool)


def load_spds(path, header: bool = False) -> np.ndarray:
    """Integer distance field; -1 marks unreachable, nothing below it."""
    arr = _loadtxt(path, delimiter=",", skiprows=int(header),
                   what=f"distance field {path}", dtype=np.int64)
    if np.any(arr < -1):
        raise InputError(f"distance field {path} contains values below -1")
    return arr


# Matrices are formatted in blocks of whole rows holding about this many
# values, so the temporaries stay at a few MB whatever the matrix size.
_BLOCK_VALUES = 1 << 16
# A cell is 24 bytes, handled as three little-endian 64-bit words.
_WORD = np.dtype("<u8")
# _SCALE[i] = 10**(8 - e) for the decimal exponent e = i - 5 of a value;
# exact for e <= 8. e = 9 never takes fixed notation, so its scale is nan.
_SCALE = np.array([float(10 ** k) for k in range(13, -1, -1)] + [np.nan])
# binary exponent field of |x| (E = floor(log2|x|) for normal values) ->
# i = floor(E * log10(2)) + 5, clipped to [0, 13]: a lower bound on e + 5,
# off by at most one
_EXP_INDEX = np.clip(np.floor((np.arange(2048) - 1023) * np.log10(2.0)) + 5,
                     0, 13).astype(np.intp)
# |scaled - D| must stay this far inside the rounding tie; the scaled value
# is within half an ulp (< 6e-8) of the exact one
_TIE = 0.5 - 1e-6


def _cell_tables():
    """Lookup tables that assemble a cell from a value's sign, decimal
    exponent and nine-digit mantissa ``D = a*10**8 + b*10**4 + c``.

    Cell bytes: 0 sign, 1-5 the ``0.000`` prefix of a negative exponent,
    then the digits of D in bytes 6, 8, ..., 22 with the decimal point in
    the odd byte after the last integer digit, 23 the separator. Unused
    bytes are 0 and are dropped on output. The digit words null the
    trailing zeros of D; the exponent templates put back the integer
    zeros (``'0' | digit == digit``) and the point.
    """
    quads = np.arange(10000)
    digits = np.stack([quads // 1000, quads // 100 % 10, quads // 10 % 10,
                       quads % 10], axis=1)
    kept = np.flip(np.logical_or.accumulate(np.flip(digits > 0, 1), axis=1), 1)
    shifts = np.array([0, 16, 32, 48], np.uint64)
    full = ((digits + 48).astype(np.uint64) << shifts).sum(axis=1)
    stripped = (((digits + 48) * kept).astype(np.uint64) << shifts).sum(axis=1)
    low = stripped                                       # [c]
    mid = np.stack([full, stripped], axis=1).ravel()     # [2*b + (c == 0)]
    head = np.zeros((15, 2, 10, 2), np.uint64)           # [i, point, a, minus]
    tail = np.zeros((15, 2, 2), np.uint64)               # [i, point], 2 words
    for i in range(1, 14):
        e = i - 5
        for point in (0, 1):
            cell = bytearray(24)
            if e < 0:
                cell[1:2 - e] = b"0." + b"0" * (-e - 1)
            else:
                cell[8:6 + 2 * (e + 1):2] = b"0" * e
                if point:
                    cell[7 + 2 * e] = ord(".")
            words = np.frombuffer(bytes(cell), _WORD)
            head[i, point] = words[0]
            tail[i, point] = words[1:]
    head |= (48 + np.arange(10, dtype=np.uint64))[:, None] << np.uint64(48)
    head[..., 1] |= np.uint64(ord("-"))
    return tuple(t.astype(_WORD) for t in (low, mid, head.ravel(),
                                            tail[..., 0].ravel(),
                                            tail[..., 1].ravel()))


_LOW, _MID, _HEAD, _TAIL1, _TAIL2 = _cell_tables()


@np.errstate(invalid="ignore")  # signalling nan bit patterns print as nan
def _format_cells(x: np.ndarray) -> np.ndarray:
    """``"%.9g" % v`` for each value of the 1-D ``x``, as (n, 3) words
    holding 24-byte cells with a null separator byte.

    Where ``%.9g`` takes fixed notation (decimal exponent e in [-4, 8]
    after rounding), ``D = rint(|x| * 10**(8 - e))`` is Python's correctly
    rounded nine-digit mantissa: the power of ten is exact, so the product
    is within half an ulp of the exact one, and values that close to a
    rounding tie are not taken here. Zero is "0"; every other value (nan,
    inf, scientific notation, near-ties) is formatted by Python itself.
    """
    mag = np.abs(x)
    i = _EXP_INDEX.take(mag.view(np.int64) >> 52)    # e + 5, or one less
    d = np.rint(mag * _SCALE.take(i))
    i += d >= 1e9
    scale = _SCALE.take(i)
    scaled = mag * scale
    d = np.rint(scaled)
    fixed = ((i > 0) & (d >= 1e8) & (d < 1e9)
             & (np.abs(scaled - d) < _TIE))
    d = np.where(fixed, d, 0.0)
    frac = d / scale
    key = 2 * i
    key += frac != np.floor(frac)                    # a point is written
    mantissa = d.astype(np.int64)
    ab = mantissa // 10000
    c = mantissa - ab * 10000
    a = ab // 10000
    b = ab - a * 10000
    head = (key * 10 + a) * 2
    head += x < 0
    cells = np.empty((x.size, 3), _WORD)
    cells[:, 0] = _HEAD.take(head)
    np.bitwise_or(_TAIL1.take(key), _MID.take(2 * b + (c == 0)),
                  out=cells[:, 1])
    np.bitwise_or(_TAIL2.take(key), _LOW.take(c), out=cells[:, 2])
    slow = np.flatnonzero(~fixed & (x != 0))
    if slow.size:
        # "%.9g" never exceeds 16 characters; the padding spaces are
        # dropped with the null bytes
        text = ("%-16.9g" * slow.size) % tuple(x[slow].tolist())
        cells[slow, :2] = np.frombuffer(text.encode("ascii"),
                                        _WORD).reshape(-1, 2)
        cells[slow, 2] = 0
    return cells


def _write_rows(path, arr: np.ndarray, lines) -> None:
    """Write the rows of ``arr`` (a 1-D array gives one value per line) in
    blocks of whole rows; ``lines(block)`` returns a block's bytes."""
    if arr.ndim == 1:
        arr = arr[:, None]
    elif arr.ndim != 2:
        raise ValueError(f"Expected 1D or 2D array, got {arr.ndim}D array instead")
    n, f = arr.shape
    with _output(path) as write:
        if f == 0:
            write(b"\n" * n)
            return
        rows = max(1, _BLOCK_VALUES // f)
        for start in range(0, n, rows):
            write(lines(arr[start:start + rows]))


def _float_lines(block: np.ndarray) -> bytes:
    ends = np.full(block.shape[1], ord(",") << 56, _WORD)
    ends[-1] = ord("\n") << 56
    cells = _format_cells(block.ravel())
    cells.reshape(*block.shape, 3)[:, :, 2] |= ends
    return cells.tobytes().translate(None, b"\0 ")


def _integer_lines(block: np.ndarray, delimiter: str) -> bytes:
    """``"%d" % x`` for each value of an integer or bool block, joined by
    ``delimiter`` within a row.

    Each value fills a cell as wide as the block's widest value: a ``-``
    in the first byte if negative, its digits right-aligned and the
    separator last; the null bytes between are dropped on output.
    """
    rows, f = block.shape
    ends = np.full(f, ord(delimiter), np.uint8)
    ends[-1] = ord("\n")
    lo, hi = int(block.min()), int(block.max())
    if lo >= 0 and hi <= 9:
        # every cell is one digit and its separator: nothing to drop
        cells = np.empty((rows, f, 2), np.uint8)
        np.add(block, ord("0"), out=cells[..., 0], casting="unsafe")
        cells[..., 1] = ends
        return cells.tobytes()
    digits = len(str(max(hi, -lo)))
    width = (lo < 0) + digits + 1
    x = block.ravel()
    negative = x < 0
    mag = x.astype(np.uint64)                  # two's complement
    np.negative(mag, out=mag, where=negative)  # |x|, even for -2**63
    cells = np.zeros((x.size, width), np.uint8)
    cells[negative, 0] = ord("-")
    cells.reshape(rows, f, width)[..., -1] = ends
    last = width - 2
    cells[:, last] = mag % 10 + ord("0")
    for col in range(last - 1, last - digits, -1):
        mag //= 10
        cells[:, col] = np.where(mag > 0, mag % 10 + ord("0"), 0)
    return cells.tobytes().translate(None, b"\0")


def write_matrix(path, arr: np.ndarray) -> None:
    """Comma-separated floats, each the bytes of ``"%.9g" % x`` with
    negative zero written as ``0``; a 1-D array gives one value per line.
    """
    _write_rows(path, np.asarray(arr, dtype=np.float64), _float_lines)


def _write_integers(path, arr: np.ndarray, delimiter: str) -> None:
    """Integers (or bools as 0/1), each the bytes of ``"%d" % x``, joined
    by ``delimiter``; a 1-D array gives one value per line."""
    _write_rows(path, arr, lambda block: _integer_lines(block, delimiter))


def write_mask(path, known: np.ndarray) -> None:
    """A 0/1 mask (1 = observed), in the canonical form ``load_mask``
    reads from its bytes."""
    _write_integers(path, np.asarray(known, dtype=bool), ",")


def write_spds(path, distances: np.ndarray) -> None:
    """A distance field, as :func:`pcfi.confidence.hop_counts` gives it: a
    signed integer array is written in its own type, with no int64 copy."""
    _write_integers(path, hop_counts(distances), ",")


def write_edges(path, edges: np.ndarray) -> None:
    _write_integers(path, np.asarray(edges, dtype=np.int64), "\t")


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
    text = json.dumps(_json_sanitize(obj), indent=2, sort_keys=True) + "\n"
    with _output(path) as write:
        write(text.encode("ascii"))


def write_dataset(directory, dataset: SynthDataset) -> None:
    """Write a generated dataset as edges.tsv, features.csv, labels.csv,
    and meta.json in ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_edges(directory / "edges.tsv", dataset.graph.edge_array())
    write_matrix(directory / "features.csv", dataset.features)
    _write_integers(directory / "labels.csv",
                    np.asarray(dataset.labels, dtype=np.int64), " ")
    write_json(directory / "meta.json", dataset.meta)


def load_dataset(directory):
    """Load a dataset directory back as ``(graph, features, labels, meta)``."""
    directory = Path(directory)
    labels = _loadtxt(directory / "labels.csv", delimiter=None, what="labels",
                      dtype=np.int64).ravel()
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
