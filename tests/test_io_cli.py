import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pcfi import InputError, SynthSpec, build_graph, generate
from pcfi import cli
from pcfi import io as pio
from pcfi import pipeline
from pcfi.cli import main

from _oracles import load_mask_reference


def test_matrix_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    arr = np.array([[1.0, -2.5e-7], [3.141592653589793, 0.1]])
    pio.write_matrix(path, arr)
    back = pio.load_matrix(path)
    # 9 significant digits survive the trip
    assert np.allclose(back, arr, rtol=1e-8, atol=0)


def test_matrix_write_normalizes_negative_zero(tmp_path):
    path = tmp_path / "z.csv"
    pio.write_matrix(path, np.array([[-0.0, 1.0]]))
    assert path.read_text() == "0,1\n"


def test_write_matrix_is_byte_stable(tmp_path):
    arr = np.random.default_rng(1).normal(size=(20, 3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    pio.write_matrix(a, arr)
    pio.write_matrix(b, arr.copy())
    assert a.read_bytes() == b.read_bytes()


def _savetxt_text(arr) -> str:
    """The writer's reference: numpy's own ``%.9g`` formatting."""
    buf = io.StringIO()
    with np.errstate(invalid="ignore"):
        arr = np.asarray(arr, dtype=np.float64) + 0.0
    np.savetxt(buf, arr, fmt="%.9g", delimiter=",")
    return buf.getvalue()


def _written_text(arr) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        pio.write_matrix("-", arr)
    return buf.getvalue()


def _assert_writes_like_savetxt(arr):
    got, want = _written_text(arr), _savetxt_text(arr)
    if got != want:
        # report the first differing line: pytest's diff of two large
        # texts takes minutes
        lines = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
        first = next(((n, a, b) for n, (a, b) in enumerate(lines) if a != b), None)
        pytest.fail(f"line {first[0]}: wrote {first[1]!r}, savetxt {first[2]!r}"
                    if first else f"wrote {len(got)} chars, savetxt {len(want)}")


_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, _SHAPES,
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_write_matrix_matches_savetxt_on_any_float(arr):
    _assert_writes_like_savetxt(arr)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.uint64, _SHAPES, elements=st.integers(0, 2**64 - 1)))
def test_write_matrix_matches_savetxt_on_raw_bit_patterns(bits):
    _assert_writes_like_savetxt(bits.view(np.float64))


def _adversarial_values() -> np.ndarray:
    rng = np.random.default_rng(0)
    # x = (D + 0.5) * 10**k: the tenth significant digit is a 5, so x sits
    # at (or, not being exact in binary, an ulp or two from) a rounding tie
    # of the nine-digit mantissa D
    mantissa = rng.integers(10**8, 10**9, size=3000).astype(np.float64)
    k = rng.integers(-14, 3, size=3000).astype(np.float64)
    ties = np.concatenate([(mantissa + 0.5) * 10.0**k,
                           [123456789.5, 999999999.5, 12345678.25,
                            1234567.125, 9.9999999995e-05, 0.00012345678950]])
    decades = 10.0 ** np.arange(-8, 12)
    # values that round up across a power of ten, and the range edges of
    # fixed notation
    crossing = np.concatenate([9.9999999995 * decades, 9.99999999949999 * decades,
                               9.9999999 * decades, [1e-4, 1e9, 0.0001, 1e-5]])
    base = np.concatenate([ties, decades, crossing])
    near = [np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
            np.nextafter(np.nextafter(base, np.inf), np.inf),
            np.nextafter(np.nextafter(base, -np.inf), -np.inf)]
    values = np.concatenate([base, *near])
    return np.concatenate([values, -values])


def test_write_matrix_matches_savetxt_on_adversarial_grid():
    values = _adversarial_values()
    _assert_writes_like_savetxt(values)
    _assert_writes_like_savetxt(values[:values.size // 7 * 7].reshape(-1, 7))


def test_fixed_notation_values_skip_python_formatting():
    # every decade of fixed notation, including values whose decimal
    # exponent the binary-exponent estimate puts one too low (such as
    # 10**k); Python-formatted cells carry padding spaces. 2**-13 is an
    # exact rounding tie, which Python formats.
    rng = np.random.default_rng(1)
    exps = np.repeat(np.arange(-4, 9), 200)
    values = (1.0 + 9.0 * rng.random(exps.size)) * 10.0**exps
    values = np.concatenate([values, 10.0 ** np.arange(-4, 9),
                             2.0 ** np.arange(-12, 30), -values, [0.0, -0.0]])
    cells = pio._format_cells(values)
    assert b" " not in cells.tobytes()
    _assert_writes_like_savetxt(values)


@pytest.mark.parametrize("shape", [
    (5,), (0,), (0, 4), (3, 0), (0, 0),
    (pio._BLOCK_VALUES // 2 + 1, 4),   # three blocks of rows
    (2, pio._BLOCK_VALUES + 3),         # rows wider than a block
])
def test_write_matrix_shapes_match_savetxt(shape):
    _assert_writes_like_savetxt(np.random.default_rng(2).normal(size=shape) * 100.0)


def test_write_matrix_rejects_other_ranks():
    with pytest.raises(ValueError, match="1D or 2D"):
        _written_text(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="1D or 2D"):
        _written_text(np.float64(1.0))


def _savetxt_integers(arr, delimiter=" ") -> bytes:
    """The integer writers' reference: numpy's own ``%d`` formatting."""
    buf = io.StringIO()
    np.savetxt(buf, arr, fmt="%d", delimiter=delimiter)
    return buf.getvalue().encode()


def _written_bytes(write, tmp_path, arr) -> bytes:
    """What ``write`` puts in a file; the same bytes must go to stdout."""
    path = tmp_path / "out.txt"
    write(path, arr)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write("-", arr)
    assert buf.getvalue().encode() == path.read_bytes()
    return path.read_bytes()


_INTEGER_WRITERS = {
    "spds": (pio.write_spds, ","),
    "edges": (pio.write_edges, "\t"),
    "labels": (lambda path, arr: pio._write_integers(path, arr, " "), " "),
}
_INT64 = np.iinfo(np.int64)


def _integer_matrices():
    rng = np.random.default_rng(5)
    wide = rng.integers(-10**18, 10**18, size=(300, 9))
    wide[rng.random(wide.shape) < 0.2] = -1
    wide[rng.random(wide.shape) < 0.2] = 0
    wide[0, :4] = [_INT64.min, _INT64.max, -(10**17), 10**17 + 3]
    small = rng.integers(-1, 12, size=(pio._BLOCK_VALUES // 2 + 1, 4))
    small[:pio._BLOCK_VALUES // 4] %= 10  # a first block of single digits only
    return {
        "wide": wide,
        "digits": rng.integers(0, 10, size=(40, 7)),
        "distances": small,
        "tall": rng.integers(-5, 5, size=(3, pio._BLOCK_VALUES + 3)),
        "empty-rows": np.zeros((0, 4), np.int64),
        "empty-columns": np.zeros((3, 0), np.int64),
        "one": np.array([[-7]]),
        "labels": rng.integers(0, 13, size=500),
        "no-labels": np.zeros(0, np.int64),
    }


@pytest.mark.parametrize("name", sorted(_integer_matrices()))
@pytest.mark.parametrize("writer", sorted(_INTEGER_WRITERS))
def test_integer_writers_match_savetxt(tmp_path, writer, name):
    write, delimiter = _INTEGER_WRITERS[writer]
    arr = _integer_matrices()[name]
    assert (_written_bytes(write, tmp_path, arr)
            == _savetxt_integers(arr, delimiter))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int64, _SHAPES,
                  elements=st.one_of(st.integers(-1, 10),
                                     st.integers(_INT64.min, _INT64.max))))
def test_integer_writer_matches_savetxt_on_any_int64(arr):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        pio.write_spds("-", arr)
    assert buf.getvalue().encode() == _savetxt_integers(arr, ",")


def test_dataset_labels_and_edges_match_savetxt(tmp_path):
    ds = generate(SynthSpec(num_nodes=300, num_classes=12, feature_dim=2,
                            intra_edge_prob=0.05, inter_edge_prob=0.01, seed=1))
    pio.write_dataset(tmp_path, ds)
    assert ds.labels.max() >= 10
    assert ((tmp_path / "labels.csv").read_bytes()
            == _savetxt_integers(ds.labels.astype(np.int64)))
    assert ((tmp_path / "edges.tsv").read_bytes()
            == _savetxt_integers(ds.graph.edge_array(), "\t"))


@pytest.mark.parametrize("shape", [
    (50, 7), (1, 1), (0, 3), (4, 0), (7,),
    (pio._BLOCK_VALUES // 3 + 1, 3),    # several blocks of rows
    (2, pio._BLOCK_VALUES + 1),          # rows wider than a block
])
def test_write_mask_matches_float_writer(tmp_path, shape):
    known = np.random.default_rng(3).random(shape) < 0.5
    written = _written_bytes(pio.write_mask, tmp_path, known)
    pio.write_matrix(tmp_path / "float.csv", known.astype(np.float64))
    assert written == (tmp_path / "float.csv").read_bytes()


def test_write_spds_makes_no_int64_copy(tmp_path):
    dist = np.random.default_rng(0).integers(-1, 300, size=(4000, 500))
    narrow = dist.astype(np.int16)
    tracemalloc.start()
    try:
        pio.write_spds(tmp_path / "narrow.csv", narrow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dist.nbytes // 4, peak
    pio.write_spds(tmp_path / "wide.csv", dist)
    assert ((tmp_path / "narrow.csv").read_bytes()
            == (tmp_path / "wide.csv").read_bytes())


def test_matrix_to_stdout_keeps_the_order_of_text_before_and_after(monkeypatch):
    """Rows go to stdout's binary buffer, after the text already written
    to stdout and before the text written next."""
    arr = np.random.default_rng(3).normal(size=(300, 500))
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="ascii", newline="\n")
    monkeypatch.setattr(sys, "stdout", stdout)
    print("before")
    pio.write_matrix("-", arr)
    print("after")
    stdout.flush()
    monkeypatch.undo()
    assert raw.getvalue() == (b"before\n" + _savetxt_text(arr).encode()
                              + b"after\n")


_SHAPE_FILES = {
    # name: (text, shape without --header, shape with --header)
    "plain": ("1,2\n3,4\n", (2, 2), (1, 2)),
    "crlf": ("1,2\r\n3,4\r\n", (2, 2), (1, 2)),
    "cr": ("1,2\r3,4\r", (2, 2), (1, 2)),
    "no-final-newline": ("1,2\n3,4", (2, 2), (1, 2)),
    "blank-lines": ("1,2\n\n3,4\n\n", (2, 2), (1, 2)),
    "comments": ("# c\n1,2\n3,4 # x\n#\n", (2, 2), (2, 2)),
    "header": ("a,b\n1,2\n5,6\n", (3, 2), (2, 2)),  # no value is parsed
    "one-column": ("5\n6\n7\n", (3, 1), (2, 1)),
    "one-row": ("1,2,3", (1, 3), None),
    "spaces": (" 1 , 2 \n3,4\n", (2, 2), (1, 2)),
    "ragged": ("1,2\n3\n", None, (1, 1)),
    "ragged-wider": ("1,2\n3,4,5\n", None, (1, 3)),
    "blank-with-spaces": ("1,2\n   \n3,4\n", None, None),
    "empty": ("", None, None),
    "only-blank-lines": ("\n\n", None, None),
}


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("name", sorted(_SHAPE_FILES))
def test_matrix_shape_from_lines_matches_parsed_shape(tmp_path, name, header):
    """Where the matrix parser accepts a file, the shape read from its
    lines is the parsed shape; ragged and empty files raise InputError."""
    text, *shapes = _SHAPE_FILES[name]
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    expected = shapes[header]
    if expected is None:
        with pytest.raises(InputError, match="ragged|no rows"):
            pio.load_matrix_shape(path, header=header)
        return
    assert pio.load_matrix_shape(path, header=header) == expected
    try:
        parsed = pio.load_matrix(path, header=header)
    except InputError:
        assert name == "header" and not header
    else:
        assert parsed.shape == expected


def test_matrix_shape_from_stdin(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1,2\n3,4\n5,6\n")))
    assert pio.load_matrix_shape("-") == (3, 2)


def test_cli_mask_reads_shape_without_parsing_values(tmp_path, monkeypatch):
    fpath = tmp_path / "x.csv"
    pio.write_matrix(fpath, np.random.default_rng(1).normal(size=(37, 11)))
    flags = tmp_path / "flags.csv"
    assert main(["--quiet", "mask", "--type", "uniform", "--rate", "0.5",
                 "--num-nodes", "37", "--num-channels", "11",
                 "--out", str(flags)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the matrix was parsed")

    monkeypatch.setattr(pio, "load_matrix", refuse)
    monkeypatch.setattr(np, "loadtxt", refuse)
    from_file = tmp_path / "file.csv"
    assert main(["--quiet", "mask", "--type", "uniform", "--rate", "0.5",
                 "--features-file", str(fpath), "--out", str(from_file)]) == 0
    assert from_file.read_bytes() == flags.read_bytes()
    for name in ("ragged", "ragged-wider", "empty"):
        bad = tmp_path / f"{name}.csv"
        bad.write_text(_SHAPE_FILES[name][0])
        assert main(["--quiet", "mask", "--type", "uniform", "--rate", "0.5",
                     "--features-file", str(bad), "--out",
                     str(tmp_path / "m.csv")]) == 2


def test_mask_loader_rejects_non_binary(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("1,0\n0,2\n")
    with pytest.raises(InputError, match="0 and 1"):
        pio.load_mask(path)


def _mask_or_message(load):
    """The loaded mask, or the message of the error it raised."""
    try:
        return load()
    except (InputError, ValueError) as exc:
        return str(exc)


def _assert_same_mask(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == bool and got.shape == expected.shape
        assert np.array_equal(got, expected)


def _mask_matches_text_parser(path, header=False):
    got = _mask_or_message(lambda: pio.load_mask(path, header=header))
    with open(path) as fh:
        expected = _mask_or_message(lambda: load_mask_reference(
            fh, 1 if header else 0, f"mask {path}"))
    _assert_same_mask(got, expected)


_CANONICAL_MASKS = {
    "one-column": b"0\n1\n1\n",
    "one-row": b"0,1,1,0\n",
    "400x400": "".join(
        ",".join(row) + "\n" for row in
        (np.random.default_rng(4).random((400, 400)) < 0.3).astype(int).astype(str)
    ).encode(),
}


def _forbid_text_parser(monkeypatch):
    def no_text_parser(*args, **kwargs):
        raise AssertionError("canonical mask went through np.loadtxt")

    monkeypatch.setattr(np, "loadtxt", no_text_parser)


@pytest.mark.parametrize("name", sorted(_CANONICAL_MASKS))
def test_canonical_mask_matches_text_parser_without_it(tmp_path, monkeypatch,
                                                       name):
    path = tmp_path / "mask.csv"
    path.write_bytes(_CANONICAL_MASKS[name])
    with open(path) as fh:
        expected = load_mask_reference(fh, 0, f"mask {path}")
    _forbid_text_parser(monkeypatch)
    _assert_same_mask(pio.load_mask(path), expected)


def test_written_mask_is_read_without_text_parser(tmp_path, monkeypatch):
    known = np.random.default_rng(1).random((50, 7)) < 0.5
    path = tmp_path / "mask.csv"
    pio.write_matrix(path, known.astype(np.float64))
    _forbid_text_parser(monkeypatch)
    assert np.array_equal(pio.load_mask(path), known)


# inputs the byte reader must hand to np.loadtxt unchanged (with --header,
# every input goes there)
_OTHER_MASKS = {
    "crlf": b"0,1\r\n1,0\r\n",
    "no-final-newline": b"0,1\n1,0",
    "float": b"1.0\n0.0\n",
    "leading-space": b" 1,0\n0,1\n",
    "space-separated": b"1 0\n0 1\n",
    "two": b"0,2\n1,0\n",
    "minus-one": b"0,1\n-1,0\n",
    "blank-line": b"0,1\n\n1,0\n",
    "comment": b"# note\n0,1\n1,0\n",
    "trailing-comma": b"0,1,\n1,0,\n",
    "ragged": b"0,1\n1\n",
    "lone-cr": b"0,1\r1,0\r",
    "empty": b"",
    "header": b"a,b,c\n0,1,1\n1,0,0\n",
}


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("name", sorted(_OTHER_MASKS))
def test_other_masks_go_through_text_parser(tmp_path, name, header):
    path = tmp_path / "mask.csv"
    path.write_bytes(_OTHER_MASKS[name])
    _mask_matches_text_parser(path, header=header)


@pytest.mark.parametrize("text", ["0,1\n1,0\n", "0,1\r\n1,2\r\n"])
def test_mask_from_stdin_goes_through_text_parser(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    got = _mask_or_message(lambda: pio.load_mask("-"))
    expected = _mask_or_message(lambda: load_mask_reference(
        io.StringIO(text), 0, "mask -"))
    _assert_same_mask(got, expected)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_mask_from_named_pipe_is_read_once(tmp_path):
    """A pipe can be read only once, so the text parser must reuse the
    bytes the canonical check read (a second open would wait for a
    writer forever, hence the child process and its timeout)."""
    fifo = tmp_path / "mask.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(b"0,1\r\n1,1\r\n",), daemon=True)
    writer.start()
    src = str(Path(pio.__file__).resolve().parents[1])
    code = "import sys; from pcfi import io; print(io.load_mask(sys.argv[1]).tolist())"
    proc = subprocess.run([sys.executable, "-c", code, str(fifo)], timeout=60,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    writer.join(timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[[False, True], [True, True]]"


def test_spds_loader_sentinel_rules(tmp_path):
    ok = tmp_path / "s.csv"
    ok.write_text("0,-1\n3,2\n")
    arr = pio.load_spds(ok)
    assert arr.tolist() == [[0, -1], [3, 2]]
    bad = tmp_path / "bad.csv"
    bad.write_text("0,-2\n")
    with pytest.raises(InputError, match="below -1"):
        pio.load_spds(bad)
    frac = tmp_path / "frac.csv"
    frac.write_text("0.5,1\n")
    with pytest.raises(InputError, match="non-integer"):
        pio.load_spds(frac)


def test_edges_loader(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("# comment\n0\t1\n2\t3\n")
    assert pio.load_edges(path).tolist() == [[0, 1], [2, 3]]
    empty = tmp_path / "none.tsv"
    empty.write_text("\n# nothing here\n")
    assert pio.load_edges(empty).shape == (0, 2)
    wide = tmp_path / "w.tsv"
    wide.write_text("0 1 2\n")
    with pytest.raises(InputError, match="2 columns"):
        pio.load_edges(wide)


def test_header_skipping(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n")
    assert pio.load_matrix(path, header=True).tolist() == [[1.0, 2.0]]
    with pytest.raises(InputError):
        pio.load_matrix(path)


def test_matrix_loader_rejects_non_finite(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("1,nan\n")
    with pytest.raises(InputError, match="non-finite"):
        pio.load_matrix(path)


def test_json_sorted_rounded_with_newline(tmp_path):
    path = tmp_path / "r.json"
    pio.write_json(path, {"b": 1 / 3, "a": float("nan"),
                          "c": np.float64(2.0), "d": np.arange(2)})
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data) == ["a", "b", "c", "d"]
    assert data["a"] is None
    assert data["b"] == 0.333333333
    assert data["d"] == [0, 1]


def test_dataset_round_trip(tmp_path):
    ds = generate(SynthSpec(num_nodes=120, num_classes=3, feature_dim=4,
                            intra_edge_prob=0.08, inter_edge_prob=0.01, seed=3))
    pio.write_dataset(tmp_path / "ds", ds)
    g, feats, labels, meta = pio.load_dataset(tmp_path / "ds")
    assert g.num_nodes == ds.graph.num_nodes
    assert g.num_edges == ds.graph.num_edges
    assert np.array_equal(labels, ds.labels)
    assert np.allclose(feats, ds.features, rtol=1e-8)
    assert meta["spec"]["seed"] == 3


def _write_inputs(tmp_path, n=40, f=3, seed=0, rate=0.5):
    rng = np.random.default_rng(seed)
    tree = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    extra = rng.integers(0, n, size=(n, 2)).tolist()
    edges = np.array(tree + extra)
    edges = edges[edges[:, 0] != edges[:, 1]]
    feats = rng.normal(size=(n, f))
    epath = tmp_path / "edges.tsv"
    fpath = tmp_path / "x.csv"
    pio.write_edges(epath, edges)
    pio.write_matrix(fpath, feats)
    mpath = tmp_path / "mask.csv"
    assert main(["--quiet", "mask", "--features-file", str(fpath),
                 "--type", "uniform", "--rate", str(rate),
                 "--seed", "1", "--out", str(mpath)]) == 0
    return epath, fpath, mpath


def test_cli_full_chain(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path)
    out = tmp_path / "imputed.csv"
    spds_out = tmp_path / "spds.csv"
    code = main(["--quiet", "impute", "--edges", str(epath),
                 "--features", str(fpath), "--mask", str(mpath),
                 "--out", str(out), "--spds-out", str(spds_out)])
    assert code == 0
    imputed = pio.load_matrix(out)
    assert imputed.shape == (40, 3)
    assert np.isfinite(imputed).all()
    # sidecar report
    report = json.loads((tmp_path / "imputed.csv.json").read_text())
    assert report["schema_version"] == 1
    assert report["config"]["method"] == "pcfi"
    assert report["num_missing_entries"] == 60
    dist = pio.load_spds(spds_out)
    assert dist.shape == (40, 3)

    rpath = tmp_path / "eval.json"
    code = main(["--quiet", "eval", "--truth", str(fpath),
                 "--imputed", str(out), "--mask", str(mpath),
                 "--edges", str(epath), "--report", str(rpath)])
    assert code == 0
    rep = json.loads(rpath.read_text())
    assert rep["schema_version"] == 1
    assert rep["rmse"] is not None
    assert rep["distance_buckets"]
    assert len(rep["cosine_per_node"]) == 40


def test_cli_impute_counts_ignored_values(tmp_path, caplog):
    epath, fpath, mpath = _write_inputs(tmp_path)
    feats, known = pio.load_matrix(fpath), pio.load_mask(mpath)
    feats.flat[np.flatnonzero(~known)[::4]] = 0.0  # some masked entries hold 0
    pio.write_matrix(fpath, feats)
    expected = np.count_nonzero(feats[~known])
    assert 0 < expected < np.count_nonzero(~known)
    with caplog.at_level("INFO", logger="pcfi"):
        assert main(["impute", "--edges", str(epath), "--features", str(fpath),
                     "--mask", str(mpath), "--out", str(tmp_path / "o.csv")]) == 0
    assert f"ignoring values at {expected} masked entries" in caplog.text


def test_cli_impute_frees_masked_input_before_stage2(tmp_path, monkeypatch):
    """The impute command hands the masked matrix to ``impute`` in a list
    that it empties, so nothing holds it once stage 1 is done."""
    epath, fpath, mpath = _write_inputs(tmp_path)
    masked = []
    alive_in_stage2 = []

    def recording_apply_mask(values, known):
        fs = pipeline.apply_mask(values, known)
        masked.append(weakref.ref(fs.values))
        return fs

    def checking_stage2(*args, **kwargs):
        alive_in_stage2.append(masked[0]() is not None)
        return real_stage2(*args, **kwargs)

    real_stage2 = pipeline.propagate_stage2
    monkeypatch.setattr(cli, "apply_mask", recording_apply_mask)
    monkeypatch.setattr(pipeline, "propagate_stage2", checking_stage2)
    out = tmp_path / "o.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--out", str(out)]) == 0
    assert alive_in_stage2 == [False]
    monkeypatch.undo()
    kept = tmp_path / "kept.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--out", str(kept)]) == 0
    assert out.read_bytes() == kept.read_bytes()


def test_impute_takes_the_feature_set_out_of_a_list(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=3)
    g = build_graph(pio.load_edges(epath), 40)
    fs = pipeline.apply_mask(pio.load_matrix(fpath), pio.load_mask(mpath))
    for method in pipeline.METHODS:
        cfg = pipeline.ImputationConfig(method=method)
        handed = [fs]
        from_list = pipeline.impute(g, handed, cfg)
        assert handed == []
        assert (from_list.values.tobytes()
                == pipeline.impute(g, fs, cfg).values.tobytes())


def test_cli_eval_accepts_precomputed_distance_field(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=2)
    out = tmp_path / "imp.csv"
    spds_out = tmp_path / "spds.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--out", str(out),
                 "--spds-out", str(spds_out)]) == 0
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["--quiet", "eval", "--truth", str(fpath), "--imputed",
                 str(out), "--mask", str(mpath), "--spds", str(spds_out),
                 "--report", str(r1)]) == 0
    assert main(["--quiet", "eval", "--truth", str(fpath), "--imputed",
                 str(out), "--mask", str(mpath), "--edges", str(epath),
                 "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_stdout_mode(tmp_path, capsys):
    epath, fpath, mpath = _write_inputs(tmp_path, n=12, f=2, seed=4)
    code = main(["--quiet", "impute", "--edges", str(epath),
                 "--features", str(fpath), "--mask", str(mpath),
                 "--out", "-"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12
    assert all(len(line.split(",")) == 2 for line in lines)
    # no sidecar is written next to stdout
    assert not (tmp_path / "-.json").exists()


def test_readme_library_example_runs():
    """The README's python block runs as written, in a fresh interpreter."""
    readme = Path(pio.__file__).resolve().parents[2] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    src = str(Path(pio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rmse, cosine = (float(tok) for tok in proc.stdout.split())
    assert np.isfinite(rmse) and np.isfinite(cosine)


def _run_cli(args, stdin: bytes = b"") -> bytes:
    """Run the command line in a child process, so it reads and writes the
    interpreter's own stdin and stdout; returns the stdout bytes."""
    src = str(Path(pio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "pcfi.cli", "--quiet", *args],
                          input=stdin, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_cli_features_from_stdin_match_file(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=6)
    from_file = tmp_path / "file.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--out",
                 str(from_file)]) == 0
    from_stdin = tmp_path / "stdin.csv"
    _run_cli(["impute", "--edges", str(epath), "--features", "-", "--mask",
              str(mpath), "--out", str(from_stdin)], stdin=fpath.read_bytes())
    assert from_stdin.read_bytes() == from_file.read_bytes()


def test_cli_stdout_bytes_match_file_across_blocks(tmp_path):
    # 400 x 400 values fill three write blocks
    n = f = 400
    assert n * f > 2 * pio._BLOCK_VALUES
    epath, fpath, _ = _write_inputs(tmp_path, n=n, f=f, seed=3)
    mask_args = ["mask", "--type", "uniform", "--rate", "0.5", "--seed", "2",
                 "--num-nodes", str(n), "--num-channels", str(f)]
    mpath = tmp_path / "mask2.csv"
    _run_cli(mask_args + ["--out", str(mpath)])
    assert _run_cli(mask_args + ["--out", "-"]) == mpath.read_bytes()
    impute_args = ["impute", "--edges", str(epath), "--features", str(fpath),
                   "--mask", str(mpath)]
    out = tmp_path / "out.csv"
    _run_cli(impute_args + ["--out", str(out)])
    assert _run_cli(impute_args + ["--out", "-"]) == out.read_bytes()


def test_cli_exit_codes(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=5)
    # 2: invalid input (mask with a 2 in it)
    bad = tmp_path / "bad.csv"
    text = mpath.read_text().replace("1", "2", 1)
    bad.write_text(text)
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(bad), "--out",
                 str(tmp_path / "o.csv")]) == 2
    # 2: alpha outside (0, 1)
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--alpha", "1.5",
                 "--out", str(tmp_path / "o.csv")]) == 2
    # 2: an edge names a node id at or above the feature row count
    big = tmp_path / "big.tsv"
    big.write_text(epath.read_text() + f"0\t{len(fpath.read_text().splitlines())}\n")
    assert main(["--quiet", "impute", "--edges", str(big), "--features",
                 str(fpath), "--mask", str(mpath), "--out",
                 str(tmp_path / "o.csv")]) == 2
    # 3: missing file
    assert main(["--quiet", "impute", "--edges", str(tmp_path / "nope.tsv"),
                 "--features", str(fpath), "--mask", str(mpath),
                 "--out", str(tmp_path / "o.csv")]) == 3
    # 2: unparseable CLI arguments (argparse convention)
    with pytest.raises(SystemExit) as exc:
        main(["impute", "--bogus"])
    assert exc.value.code == 2


def test_cli_strict_vs_lenient_no_source(tmp_path):
    # two components, sources only in one
    pio.write_edges(tmp_path / "e.tsv", np.array([[0, 1], [2, 3]]))
    pio.write_matrix(tmp_path / "x.csv", np.array([[1.0, 1.0], [0.0, 0.0],
                                                   [0.0, 0.0], [0.0, 0.0]]))
    (tmp_path / "m.csv").write_text("1,1\n0,0\n0,0\n0,0\n")
    args = ["--quiet", "impute", "--edges", str(tmp_path / "e.tsv"),
            "--features", str(tmp_path / "x.csv"),
            "--mask", str(tmp_path / "m.csv"),
            "--out", str(tmp_path / "out.csv")]
    assert main(args) == 2
    assert main(args + ["--lenient-no-source"]) == 0
    report = json.loads((tmp_path / "out.csv.json").read_text())
    assert report["flagged_channels"] == [0, 1]


def test_cli_synth_and_pipeline(tmp_path):
    ds_dir = tmp_path / "ds"
    assert main(["--quiet", "synth", "--num-nodes", "250", "--num-classes", "3",
                 "--feature-dim", "4", "--intra", "0.06", "--inter", "0.01",
                 "--seed", "2", "--out", str(ds_dir)]) == 0
    assert (ds_dir / "edges.tsv").exists()
    meta = json.loads((ds_dir / "meta.json").read_text())
    assert meta["spec"]["num_nodes"] == 250

    rpath = tmp_path / "pipe.json"
    assert main(["--quiet", "pipeline", "--dataset", str(ds_dir),
                 "--mask-type", "structural", "--rate", "0.5",
                 "--seeds", "0,1", "--methods", "pcfi,fp,zero",
                 "--out", str(rpath)]) == 0
    rep = json.loads(rpath.read_text())
    assert rep["schema_version"] == 1
    assert len(rep["per_seed"]) == 2
    assert set(rep["aggregates"]) == {"pcfi", "fp", "zero"}
    # one mask per seed, shared by every method
    assert rep["per_seed"][0]["mask"]["kind"] == "structural"
    assert rep["per_seed"][0]["mask"]["seed"] == 0
    for m in ("pcfi", "fp", "zero"):
        assert rep["aggregates"][m]["rmse"]["mean"] is not None
    # timings stay out of the report unless asked for
    blk = rep["per_seed"][0]["methods"]["pcfi"]
    assert blk["timings"] is None


def test_cli_pipeline_timings_flag(tmp_path):
    ds_dir = tmp_path / "ds"
    assert main(["--quiet", "synth", "--num-nodes", "150", "--num-classes", "3",
                 "--feature-dim", "3", "--intra", "0.08", "--inter", "0.02",
                 "--seed", "1", "--out", str(ds_dir)]) == 0
    rpath = tmp_path / "pipe.json"
    assert main(["--quiet", "pipeline", "--dataset", str(ds_dir),
                 "--mask-type", "uniform", "--rate", "0.4", "--seeds", "0",
                 "--methods", "pcfi", "--timings", "--out", str(rpath)]) == 0
    rep = json.loads(rpath.read_text())
    t = rep["per_seed"][0]["methods"]["pcfi"]["timings"]
    assert t is not None and t["impute_seconds"] >= 0


def test_cli_mask_requires_shape_or_features(tmp_path):
    assert main(["--quiet", "mask", "--type", "uniform", "--rate", "0.2",
                 "--out", str(tmp_path / "m.csv")]) == 2


def test_cli_structural_mask_zeroes_whole_rows(tmp_path):
    fpath = tmp_path / "x.csv"
    pio.write_matrix(fpath, np.arange(8.0).reshape(4, 2))
    mpath = tmp_path / "m.csv"
    assert main(["--quiet", "mask", "--type", "structural", "--rate", "0.5",
                 "--features-file", str(fpath), "--out", str(mpath)]) == 0
    known = pio.load_mask(mpath)
    rows = known.all(axis=1)
    assert rows.sum() == 2 and (~known.any(axis=1)).sum() == 2
    # same seed, same bytes
    m2 = tmp_path / "m2.csv"
    assert main(["--quiet", "mask", "--type", "structural", "--rate", "0.5",
                 "--features-file", str(fpath), "--out", str(m2)]) == 0
    assert mpath.read_bytes() == m2.read_bytes()


def test_cli_synth_seed_repeat_identical_directory(tmp_path):
    args = ["--quiet", "synth", "--num-nodes", "120", "--num-classes", "3",
            "--feature-dim", "3", "--intra", "0.08", "--inter", "0.02",
            "--seed", "5"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == ["edges.tsv", "features.csv", "labels.csv", "meta.json"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_cli_mask_rejects_rate_one(tmp_path):
    assert main(["--quiet", "mask", "--type", "structural", "--rate", "1.0",
                 "--num-nodes", "4", "--num-channels", "2",
                 "--out", str(tmp_path / "m.csv")]) == 2
    assert main(["--quiet", "mask", "--type", "uniform", "--rate", "0",
                 "--num-nodes", "4", "--num-channels", "2",
                 "--out", str(tmp_path / "m.csv")]) == 2


def test_cli_stage1_only_method(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=6)
    o1 = tmp_path / "s1.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath),
                 "--method", "pcfi_stage1_only", "--out", str(o1)]) == 0
    rep = json.loads((tmp_path / "s1.csv.json").read_text())
    assert rep["config"]["method"] == "pcfi_stage1_only"
    assert rep["residuals"] is not None and len(rep["residuals"]) == 3


def test_cli_beta_zero_matches_stage1_only_bytes(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=7)
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--method", "pcfi",
                 "--beta", "0", "--out", str(o1)]) == 0
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath),
                 "--method", "pcfi_stage1_only", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_cli_zero_method_reproduces_masked_input(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=8)
    out = tmp_path / "z.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--method", "zero",
                 "--out", str(out)]) == 0
    truth = pio.load_matrix(fpath)
    known = pio.load_mask(mpath)
    expected = tmp_path / "expected.csv"
    pio.write_matrix(expected, np.where(known, truth, 0.0))
    assert out.read_bytes() == expected.read_bytes()


def test_cli_two_node_fixture_converges_to_known_value(tmp_path):
    pio.write_edges(tmp_path / "e.tsv", np.array([[0, 1]]))
    pio.write_matrix(tmp_path / "x.csv", np.array([[1.0], [0.0]]))
    (tmp_path / "m.csv").write_text("1\n0\n")
    out = tmp_path / "out.csv"
    assert main(["--quiet", "impute", "--edges", str(tmp_path / "e.tsv"),
                 "--features", str(tmp_path / "x.csv"),
                 "--mask", str(tmp_path / "m.csv"), "--method", "pcfi",
                 "--alpha", "0.5", "--k", "100", "--out", str(out)]) == 0
    vals = pio.load_matrix(out)
    assert vals[0, 0] == 1.0
    assert abs(vals[1, 0] - 1.0) <= 1e-6


def test_cli_eval_perfect_imputation(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=9)
    rpath = tmp_path / "perfect.json"
    assert main(["--quiet", "eval", "--truth", str(fpath),
                 "--imputed", str(fpath), "--mask", str(mpath),
                 "--edges", str(epath), "--report", str(rpath)]) == 0
    rep = json.loads(rpath.read_text())
    assert rep["rmse"] == 0.0
    assert rep["cosine_mean"] == 1.0
    per_node = [c for c in rep["cosine_per_node"] if c is not None]
    assert per_node and all(c == 1.0 for c in per_node)
