import contextlib
import io
import json
import locale
import logging
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pcfi import (ImputationConfig, InputError, NumericalError, SpdsMatrix, SynthSpec,
                  apply_mask, build_graph, compute_spds, fp_baseline, generate, impute)
from pcfi import cli, confidence, diffusion, propagation
from pcfi import io as pio
from pcfi import pipeline
from pcfi.cli import main

from _oracles import fp_fixed_point_reference, load_mask_reference
from conftest import run_cli


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


def test_write_spds_of_a_float_field_writes_its_integers(tmp_path):
    pio.write_spds(tmp_path / "s.csv", np.array([[0.0, -1.0], [12.0, 3.0]]))
    assert (tmp_path / "s.csv").read_bytes() == b"0,-1\n12,3\n"


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


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("name", sorted(_SHAPE_FILES))
def test_matrix_shape_from_lines_matches_parsed_shape(tmp_path, name, header):
    """Where the matrix parser accepts a file, the shape read from its
    lines is the parsed shape; ragged and empty files raise InputError,
    and a file with no rows is refused by the parser too."""
    text, *shapes = _SHAPE_FILES[name]
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    expected = shapes[header]
    if expected is None:
        with pytest.raises(InputError, match="ragged|no rows") as refused:
            pio.load_matrix_shape(path, header=header)
        if "no rows" in str(refused.value):
            with pytest.raises(InputError, match="no rows"):
                pio.load_matrix(path, header=header)
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


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("name", sorted(_SHAPE_FILES))
def test_matrix_shape_from_stdin_ends_lines_as_a_file_does(tmp_path, monkeypatch,
                                                            name, header):
    """stdin splits lines at \\n alone, as on POSIX; \\r and \\r\\n still end
    a line there, so stdin gives the shape (or refusal) of the same file."""
    data = _SHAPE_FILES[name][0].encode()
    path = tmp_path / "x.csv"
    path.write_bytes(data)

    def shape(source):
        try:
            return pio.load_matrix_shape(source, header=header)
        except InputError as exc:
            return str(exc).replace(str(source), "")

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), newline="\n"))
    assert shape("-") == shape(path)


def test_matrix_shape_holds_one_line_at_a_time(tmp_path):
    """The shape is counted over the open stream; a reader that split a
    copy of the whole file would hold about twice the file."""
    path = tmp_path / "big.csv"
    pio.write_matrix(path, np.random.default_rng(0).normal(size=(700, 1000)))
    assert path.stat().st_size >= 8 << 20
    tracemalloc.start()
    try:
        shape = pio.load_matrix_shape(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shape == (700, 1000)
    assert peak < 1 << 20, peak


def test_matrix_shape_of_undecodable_text_is_an_input_error(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"1,2\n\xff,4\n")
    try:
        b"\xff".decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        pass
    else:
        pytest.skip("the locale's encoding decodes every byte")
    with pytest.raises(InputError, match="could not read matrix"):
        pio.load_matrix_shape(path)
    with pytest.raises(InputError, match="could not parse matrix"):
        pio.load_matrix(path)


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


@pytest.mark.parametrize("kind", ["structural", "uniform"])
def test_cli_mask_from_a_file_a_crlf_stdin_or_flags_agree(tmp_path, kind):
    """``mask --features-file`` draws the mask of the file's shape, from
    the file or from a CRLF copy of it on the interpreter's own stdin."""
    fpath = tmp_path / "x.csv"
    pio.write_matrix(fpath, np.random.default_rng(1).normal(size=(37, 11)))
    mask = ["mask", "--type", kind, "--rate", "0.9", "--seed", "1"]
    outs = [tmp_path / f"{name}.csv" for name in ("flags", "file", "stdin")]
    assert main(["--quiet", *mask, "--num-nodes", "37", "--num-channels", "11",
                 "--out", str(outs[0])]) == 0
    assert main(["--quiet", *mask, "--features-file", str(fpath),
                 "--out", str(outs[1])]) == 0
    run_cli([*mask, "--features-file", "-", "--out", str(outs[2])],
            stdin=fpath.read_bytes().replace(b"\n", b"\r\n"))
    assert len({out.read_bytes() for out in outs}) == 1


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
    for name, text in (("frac.csv", "0.5,1\n"), ("inf.csv", "0,inf\n"),
                       ("whole.csv", "0,4.0\n")):
        (tmp_path / name).write_text(text)
        with pytest.raises(InputError, match="non-integer"):
            pio.load_spds(tmp_path / name)


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
    for text in ("0 1\n1 2.5\n", "0 1\n1 4.0\n"):
        frac = tmp_path / "f.tsv"
        frac.write_text(text)
        with pytest.raises(InputError, match="non-integer"):
            pio.load_edges(frac)


def test_integer_via_float_warning_of_older_numpy_is_an_input_error(tmp_path,
                                                                     monkeypatch):
    """numpy < 2 parses "4.0" as an integer through a float, warning
    instead of failing; the integer reader turns that into an error."""
    def loadtxt_of_numpy_1(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.array([[0, 4]])

    path = tmp_path / "e.tsv"
    path.write_text("0 4.0\n")
    monkeypatch.setattr(pio.np, "loadtxt", loadtxt_of_numpy_1)
    with pytest.raises(InputError, match="non-integer"):
        pio.load_edges(path)


def test_integers_above_2_53_keep_every_digit(tmp_path, caplog):
    """Ids are parsed as integers, not through float64, which would turn
    9007199254740993 into ...992 and name the wrong id in the error."""
    epath, fpath, mpath = _write_inputs(tmp_path)
    big = tmp_path / "big.tsv"
    big.write_text("1\t9007199254740993\n")
    assert pio.load_edges(big).tolist() == [[1, 9007199254740993]]
    with pytest.raises(InputError, match="9007199254740993"):
        build_graph(pio.load_edges(big), 40)
    with caplog.at_level("ERROR", logger="pcfi"):
        assert main(["--quiet", "impute", "--edges", str(big), "--features",
                     str(fpath), "--mask", str(mpath),
                     "--out", str(tmp_path / "o.csv")]) == 2
    assert "9007199254740993" in caplog.text


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


def test_json_is_ascii_bytes_alike_in_a_file_and_on_stdout(tmp_path, monkeypatch):
    """A report is the ASCII text of ``json.dumps``, and goes to stdout's
    binary buffer after the text already written and before the next."""
    obj = {"\u00e9": [1.5, float("inf")], "a": {"n": np.int64(3)}}
    path = tmp_path / "r.json"
    pio.write_json(path, obj)
    want = json.dumps({"a": {"n": 3}, "\u00e9": [1.5, None]}, indent=2,
                      sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("ascii")
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="ascii", newline="\n")
    monkeypatch.setattr(sys, "stdout", stdout)
    print("before")
    pio.write_json("-", obj)
    print("after")
    stdout.flush()
    monkeypatch.undo()
    assert raw.getvalue() == b"before\n" + path.read_bytes() + b"after\n"


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


def test_dataset_loader_rejects_non_integer_labels(tmp_path):
    ds = generate(SynthSpec(num_nodes=60, num_classes=3, feature_dim=2,
                            intra_edge_prob=0.1, inter_edge_prob=0.01, seed=1))
    pio.write_dataset(tmp_path / "ds", ds)
    labels = tmp_path / "ds" / "labels.csv"
    rest = labels.read_text().split("\n", 1)[1]
    for label in ("1.5", "1.0"):
        labels.write_text(label + "\n" + rest)
        with pytest.raises(InputError, match="non-integer"):
            pio.load_dataset(tmp_path / "ds")


def test_dataset_loader_rejects_labels_and_features_of_different_rows(tmp_path):
    ds = generate(SynthSpec(num_nodes=60, num_classes=3, feature_dim=2,
                            intra_edge_prob=0.1, inter_edge_prob=0.01, seed=1))
    pio.write_dataset(tmp_path / "ds", ds)
    labels = tmp_path / "ds" / "labels.csv"
    labels.write_text(labels.read_text() + "0\n")
    with pytest.raises(InputError, match=f"features have {ds.graph.num_nodes} rows "
                                         f"but labels have {ds.graph.num_nodes + 1}"):
        pio.load_dataset(tmp_path / "ds")


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


def test_cli_impute_refuses_nan_at_a_masked_entry(tmp_path, caplog):
    """Masked values are parsed before they are ignored, so they must be
    finite too."""
    epath, fpath, mpath = tmp_path / "e.tsv", tmp_path / "f.csv", tmp_path / "m.csv"
    epath.write_text("0\t1\n1\t2\n")
    fpath.write_text("1,2\nnan,3\n4,5\n")
    mpath.write_text("1,1\n0,1\n1,1\n")  # the nan is masked
    out = tmp_path / "o.csv"
    with caplog.at_level("ERROR", logger="pcfi"):
        assert main(["impute", "--edges", str(epath), "--features", str(fpath),
                     "--mask", str(mpath), "--out", str(out)]) == 2
    assert f"matrix {fpath} contains non-finite entries" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("method", ["pcfi", "pcfi_stage1_only"])
def test_cli_impute_carries_one_matrix_from_load_to_write(tmp_path, monkeypatch,
                                                          method):
    """The impute command masks the loaded matrix in place and hands it to
    ``impute`` in a list that it empties: stage 1 writes into it, stage 2
    corrects it in place, and that same array is written out."""
    epath, fpath, mpath = _write_inputs(tmp_path, f=40)
    loaded, in_stage2, written = [], [], []

    def recording_load(*args, **kwargs):
        loaded.append(real_load(*args, **kwargs))
        return loaded[-1]

    def recording_stage2(values, *args, **kwargs):
        in_stage2.append(values)
        return real_stage2(values, *args, **kwargs)

    def recording_write(path, values):
        written.append(values)
        return real_write(path, values)

    real_load, real_stage2, real_write = (pio.load_matrix, pipeline.propagate_stage2,
                                          pio.write_matrix)
    monkeypatch.setattr(pio, "load_matrix", recording_load)
    monkeypatch.setattr(pipeline, "propagate_stage2", recording_stage2)
    monkeypatch.setattr(pio, "write_matrix", recording_write)
    out = tmp_path / "o.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--method", method,
                 "--out", str(out)]) == 0
    assert len(loaded) == len(written) == 1
    assert written[0] is loaded[0]
    assert in_stage2 == ([loaded[0]] if method == "pcfi" else [])
    monkeypatch.undo()
    g = build_graph(pio.load_edges(epath), 40)
    fs = pipeline.apply_mask(pio.load_matrix(fpath), pio.load_mask(mpath))
    copied = pipeline.impute(g, fs, pipeline.ImputationConfig(method=method))
    assert written[0].tobytes() == copied.values.tobytes()


@pytest.mark.parametrize("method, spds_out", [
    ("pcfi", False), ("pcfi", True), ("fp", False), ("fp", True), ("zero", True)])
def test_cli_impute_frees_the_mask_in_every_case(tmp_path, monkeypatch, method,
                                                 spds_out):
    """The impute command drops its mask once the missing entries are
    counted and, with --spds-out, the distance field is computed, so the
    mask goes with the masked input after stage 1 for every method."""
    epath, fpath, mpath = _write_inputs(tmp_path)
    alive_after_impute = []

    def recording_impute(g, fs, cfg, spds):
        mask = weakref.ref(fs[0].known)
        outcome = real_impute(g, fs, cfg, spds=spds)
        alive_after_impute.append(mask() is not None)
        return outcome

    real_impute = cli.impute
    monkeypatch.setattr(cli, "impute", recording_impute)
    out, spds = tmp_path / "o.csv", tmp_path / "spds.csv"
    args = ["--quiet", "impute", "--edges", str(epath), "--features", str(fpath),
            "--mask", str(mpath), "--method", method, "--out", str(out)]
    assert main(args + (["--spds-out", str(spds)] if spds_out else [])) == 0
    assert alive_after_impute == [False]
    if spds_out:
        assert np.array_equal(pio.load_spds(spds) == 0, pio.load_mask(mpath))


def test_cli_spds_out_is_the_same_field_for_every_method(tmp_path):
    """--spds-out writes the distance field of the mask, whichever method
    runs, so every method writes the same bytes."""
    epath, fpath, mpath = _write_inputs(tmp_path, seed=4)
    written = {}
    for method in pipeline.METHODS:
        spds = tmp_path / f"{method}_spds.csv"
        assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                     str(fpath), "--mask", str(mpath), "--method", method,
                     "--out", str(tmp_path / f"{method}.csv"),
                     "--spds-out", str(spds)]) == 0
        written[method] = spds.read_bytes()
    assert len(set(written.values())) == 1
    assert np.array_equal(pio.load_spds(spds) == 0, pio.load_mask(mpath))


@pytest.mark.parametrize("command", ["impute", "eval", "pipeline"])
def test_cli_refuses_a_features_file_with_no_rows(tmp_path, caplog, command):
    """An empty features file, or one of a blank line, exits 2 with the
    message that ``mask --features-file`` gives for it, writes nothing and
    leaks no numpy warning."""
    epath, fpath, mpath = _write_inputs(tmp_path)
    empty = tmp_path / "empty.csv"
    out = tmp_path / "out"
    argv = {"impute": ["impute", "--edges", str(epath), "--features", str(empty),
                       "--mask", str(mpath), "--out", str(out)],
            "eval": ["eval", "--truth", str(empty), "--imputed", str(fpath),
                     "--mask", str(mpath), "--report", str(out)],
            "pipeline": ["pipeline", "--edges", str(epath), "--features", str(empty),
                         "--mask-type", "uniform", "--rate", "0.5", "--out", str(out)]}
    for text in ("", "\n"):
        empty.write_text(text)
        caplog.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--quiet", *argv[command]]) == 2
        assert f"matrix {empty} has no rows" in caplog.text
        assert list(tmp_path.glob("out*")) == []


def test_impute_takes_the_feature_set_out_of_a_list(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=3)
    g = build_graph(pio.load_edges(epath), 40)
    feats, known = pio.load_matrix(fpath), pio.load_mask(mpath)
    for method in pipeline.METHODS:
        cfg = pipeline.ImputationConfig(method=method)
        handed = [pipeline.apply_mask(feats, known)]
        from_list = pipeline.impute(g, handed, cfg)
        assert handed == []
        fs = pipeline.apply_mask(feats, known)
        assert (from_list.values.tobytes()
                == pipeline.impute(g, fs, cfg).values.tobytes())


def test_impute_outcome_holds_one_matrix_of_the_input_size():
    """After ``impute`` returns, the outcome holds the imputed matrix, the
    narrow distance field and per-channel residuals. Keeping the stage-1
    matrix as well would make two N x F float64 arrays."""
    rng = np.random.default_rng(6)
    n, f = 3000, 64
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    g = build_graph(edges + rng.integers(0, n, size=(n, 2)).tolist(), n)
    known = rng.random((n, f)) < 0.5
    fs = pipeline.apply_mask(rng.normal(size=(n, f)), known)
    cfg = pipeline.ImputationConfig(method="pcfi")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        outcome = pipeline.impute(g, fs, cfg)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert outcome.values.shape == (n, f)
    assert held < 1.5 * n * f * 8, held


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
    # eval scores only: it reports no run settings, and takes no decay base
    assert "config" not in json.loads(r1.read_text())
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", "eval", "--truth", str(fpath), "--imputed", str(out),
              "--mask", str(mpath), "--edges", str(epath), "--alpha", "0.5",
              "--report", str(r2)])
    assert exc.value.code == 2


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


def test_cli_impute_output_does_not_depend_on_blas_threads(tmp_path):
    """Stage 2 on 2000 x 300 values spans three row blocks, and its Gram
    two column strips; one and two BLAS threads write the same bytes."""
    n, f = 2000, 300
    assert n * f > 2 * confidence.ROW_BLOCK_VALUES and f > propagation.GRAM_STRIP
    epath, fpath, mpath = _write_inputs(tmp_path, n=n, f=f, seed=8)
    outputs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}.csv"
        run_cli(["impute", "--edges", str(epath), "--features", str(fpath),
                 "--mask", str(mpath), "--out", str(out)],
                OPENBLAS_NUM_THREADS=blas_threads)
        outputs.append((out.read_bytes(), Path(f"{out}.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_features_from_stdin_match_file(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=6)
    from_file = tmp_path / "file.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--out",
                 str(from_file)]) == 0
    from_stdin = tmp_path / "stdin.csv"
    run_cli(["impute", "--edges", str(epath), "--features", "-", "--mask",
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
    run_cli(mask_args + ["--out", str(mpath)])
    assert run_cli(mask_args + ["--out", "-"]).stdout == mpath.read_bytes()
    impute_args = ["impute", "--edges", str(epath), "--features", str(fpath),
                   "--mask", str(mpath)]
    out = tmp_path / "out.csv"
    run_cli(impute_args + ["--out", str(out)])
    assert run_cli(impute_args + ["--out", "-"]).stdout == out.read_bytes()


def _path_inputs(tmp_path, n, columns, observed):
    """A path of ``n`` nodes whose channel d holds ``columns[d](i)`` at node
    i, observed where ``observed[d](i)`` holds."""
    i = np.arange(n)
    paths = [tmp_path / name for name in ("path.tsv", "path.csv", "path_mask.csv")]
    pio.write_edges(paths[0], np.stack([i[:-1], i[1:]], axis=1))
    pio.write_matrix(paths[1], np.round(np.stack([c(i) for c in columns], axis=1), 3))
    pio.write_mask(paths[2], np.stack([o(i) for o in observed], axis=1))
    return paths


@pytest.mark.parametrize("case, settings, threads, builds", [
    ("blocks", [], (None, 1, 2), 0),
    ("blocks", ["--method", "pcfi_stage1_only"], (1, 2), 0),
    ("structural", [], (1, 2, 3), 0),
    ("path", ["--alpha", "0.1"], (1, 2), 0),
    ("path", ["--alpha", "0.001"], (1, 2), 1),
    ("mixed", ["--alpha", "0.001"], (1, 2, 3), 1),
    ("short-path", ["--mode", "closed_form"], (1, 2), 1),
], ids=["blocks", "blocks-stage1", "structural", "path-clipped", "path-explicit",
        "mixed", "short-path-closed-form"])
def test_cli_impute_bytes_do_not_depend_on_the_thread_count(
        tmp_path, monkeypatch, operator_builds, case, settings, threads, builds):
    """``pcfi impute`` writes the same matrix and side-car on each thread
    count (None: no --threads, so PCFI_THREADS or 1), with stage 1 building
    ``builds`` explicit operators per run: stage 2 over 1200 x 400 values,
    more than one row block and two Gram strips; a structural mask, whose
    blocks share one confidence column; a 3000-node path observed at node
    0, which runs the fused kernel with hops clipped at K + 1 at alpha 0.1
    and the explicit operator at alpha 0.001; explicit channels (observed
    at node 0) that split fused ones (every tenth node) into runs; and the
    closed form on a 1500-node path."""
    monkeypatch.delenv("PCFI_THREADS", raising=False)
    if case == "blocks":
        n, f = 1200, 400
        assert n * f > confidence.ROW_BLOCK_VALUES and f > propagation.GRAM_STRIP
        inputs = _write_inputs(tmp_path, n=n, f=f, seed=10)
    elif case == "structural":
        inputs = _write_inputs(tmp_path, n=600, f=80, seed=11)
        assert main(["--quiet", "mask", "--type", "structural", "--rate", "0.9",
                     "--features-file", str(inputs[1]), "--out", str(inputs[2])]) == 0
    elif case == "mixed":
        deep, tenth = (lambda i: i == 0), (lambda i: i % 10 == 3)
        inputs = _path_inputs(tmp_path, 3000, [np.sin, np.cos, lambda i: np.sin(i / 7),
                                               lambda i: np.cos(i / 5),
                                               lambda i: np.cos(i / 3),
                                               lambda i: np.cos(i / 11)],
                              [tenth, deep, tenth, tenth, deep, tenth])
    else:
        inputs = _path_inputs(tmp_path, 1500 if case == "short-path" else 3000,
                              [np.sin, np.cos], [lambda i: i == 0] * 2)
    written = set()
    for count in threads:
        operator_builds.clear()
        out = tmp_path / f"threads{count}.csv"
        assert main(["--quiet", "impute", "--edges", str(inputs[0]), "--features",
                     str(inputs[1]), "--mask", str(inputs[2]), *settings,
                     *([] if count is None else ["--threads", str(count)]),
                     "--out", str(out)]) == 0
        assert len(operator_builds) == builds
        written.add((out.read_bytes(), Path(f"{out}.json").read_bytes()))
    assert len(written) == 1


def test_cli_exit_codes(tmp_path, monkeypatch):
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

    # 4: a numerical failure
    def singular(*args, **kwargs):
        raise NumericalError("linear system is singular")

    monkeypatch.setattr(cli, "impute", singular)
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--out",
                 str(tmp_path / "o4.csv")]) == 4
    assert not (tmp_path / "o4.csv").exists()


def test_cli_alpha_validity_depends_on_the_method_alone(tmp_path):
    """The distance field holds hop counts only: methods that read no alpha
    take any, with or without --spds-out, and the field written is the one
    a pcfi run writes. pcfi and pcfi_stage1_only refuse alpha outside
    (0, 1), in impute and in pipeline."""
    epath, fpath, mpath = _write_inputs(tmp_path, seed=9)
    impute = ["--quiet", "impute", "--edges", str(epath), "--features",
              str(fpath), "--mask", str(mpath)]
    pcfi_spds, fp_spds = tmp_path / "pcfi_spds.csv", tmp_path / "fp_spds.csv"
    assert main(impute + ["--out", str(tmp_path / "pcfi.csv"),
                          "--spds-out", str(pcfi_spds)]) == 0
    assert main(impute + ["--method", "fp", "--alpha", "1.5", "--out",
                          str(tmp_path / "fp.csv"), "--spds-out", str(fp_spds)]) == 0
    assert fp_spds.read_bytes() == pcfi_spds.read_bytes()
    for method in ("pcfi", "pcfi_stage1_only"):
        assert main(impute + ["--method", method, "--alpha", "1.5",
                              "--out", str(tmp_path / "o.csv")]) == 2

    pipeline_args = ["--quiet", "pipeline", "--edges", str(epath), "--features",
                     str(fpath), "--mask-type", "uniform", "--rate", "0.5",
                     "--alpha", "1.5", "--out", str(tmp_path / "pipe.json")]
    assert main(pipeline_args + ["--methods", "fp,zero"]) == 0
    rep = json.loads((tmp_path / "pipe.json").read_text())
    assert set(rep["aggregates"]) == {"fp", "zero"}
    for methods in ("fp,pcfi", "pcfi_stage1_only"):
        assert main(pipeline_args + ["--methods", methods]) == 2


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
    assert rep["schema_version"] == 2
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


# a 400-node graph in many components
_FRAGMENTED = ["--num-nodes", "400", "--num-classes", "4", "--feature-dim", "64",
               "--intra", "0.02", "--inter", "0.001", "--seed", "0",
               "--keep-all-components"]


@pytest.mark.parametrize("case", ["structural", "fragmented"])
def test_cli_pipeline_report_does_not_depend_on_the_thread_count(tmp_path, case):
    """A pipeline over two seeds writes the same report on one and on two
    threads: every method under a structural mask, and a fragmented graph
    cut to its largest component."""
    ds = tmp_path / "ds"
    if case == "structural":
        synth = ["--num-nodes", "600", "--num-classes", "4", "--feature-dim", "80",
                 "--intra", "0.02", "--inter", "0.002", "--seed", "0"]
        mask, methods = ["structural", "0.9"], "pcfi,pcfi_stage1_only,fp,zero"
    else:
        synth, mask, methods = _FRAGMENTED, ["uniform", "0.5"], "pcfi,fp,zero"
    assert main(["--quiet", "synth", *synth, "--out", str(ds)]) == 0
    pipeline = ["--quiet", "pipeline", "--dataset", str(ds), "--mask-type", mask[0],
                "--rate", mask[1]]
    reports = set()
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        assert main([*pipeline, "--methods", methods, "--seeds", "0,1",
                     "--threads", threads, "--out", str(out)]) == 0
        reports.add(out.read_bytes())
    assert len(reports) == 1
    if case == "fragmented":
        assert json.loads(out.read_text())["num_nodes"] < 400


def test_cli_pipeline_refuses_an_empty_method_list(tmp_path):
    ds_dir = tmp_path / "ds"
    assert main(["--quiet", "synth", "--num-nodes", "60", "--num-classes", "2",
                 "--feature-dim", "2", "--intra", "0.2", "--inter", "0.02",
                 "--seed", "1", "--out", str(ds_dir)]) == 0
    rpath = tmp_path / "pipe.json"
    assert main(["--quiet", "pipeline", "--dataset", str(ds_dir),
                 "--mask-type", "uniform", "--rate", "0.5",
                 "--methods", ",", "--out", str(rpath)]) == 2
    assert not rpath.exists()


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


def test_cli_pipeline_requires_a_dataset_or_edges_and_features(tmp_path, caplog):
    assert main(["--quiet", "pipeline", "--edges", str(tmp_path / "nope.tsv"),
                 "--mask-type", "uniform", "--rate", "0.5",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "provide --dataset, or both --edges and --features" in caplog.text
    assert not (tmp_path / "r.json").exists()


def test_cli_pipeline_runs_on_the_largest_component(tmp_path, caplog):
    pio.write_edges(tmp_path / "e.tsv", np.array([[0, 1], [1, 2], [3, 4]]))
    pio.write_matrix(tmp_path / "f.csv", np.arange(10.0).reshape(5, 2))
    with caplog.at_level("INFO", logger="pcfi"):
        assert main(["pipeline", "--edges", str(tmp_path / "e.tsv"),
                     "--features", str(tmp_path / "f.csv"), "--mask-type", "uniform",
                     "--rate", "0.5", "--methods", "zero",
                     "--out", str(tmp_path / "r.json")]) == 0
    assert "restricted to largest component: 3 of 5 nodes" in caplog.text
    assert json.loads((tmp_path / "r.json").read_text())["num_nodes"] == 3


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


@pytest.mark.parametrize("kind", ["structural", "uniform"])
@pytest.mark.parametrize("n, f", [("-3", "2"), ("3", "-2"), ("-3", "-2"),
                                  ("0", "2"), ("3", "0"), ("0", "0")])
def test_cli_mask_rejects_a_negative_dimension(tmp_path, caplog, kind, n, f):
    """Zero counts too: impute and eval refuse a matrix of no rows, so no
    mask is drawn for one, nor for a matrix of no channels."""
    out = tmp_path / "m.csv"
    assert main(["--quiet", "mask", "--type", kind, "--rate", "0.5",
                 "--num-nodes", n, "--num-channels", f, "--out", str(out)]) == 2
    assert f"each mask dimension must be at least 1, got ({n}, {f})" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_cli_impute_rejects_a_non_finite_beta(tmp_path, beta):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=7)
    out = tmp_path / "o.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--beta", beta,
                 "--out", str(out)]) == 2
    assert not out.exists() and not (tmp_path / "o.csv.json").exists()


def test_cli_pipeline_rejects_a_method_listed_twice(tmp_path):
    epath, fpath, _ = _write_inputs(tmp_path, seed=7)
    out = tmp_path / "pipe.json"
    assert main(["--quiet", "pipeline", "--edges", str(epath), "--features",
                 str(fpath), "--mask-type", "uniform", "--rate", "0.5",
                 "--methods", "fp,fp", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_synth_and_mask_reject_a_negative_seed(tmp_path):
    data = tmp_path / "data"
    assert main(["--quiet", "synth", "--num-nodes", "30", "--seed", "-1",
                 "--out", str(data)]) == 2
    assert not data.exists()
    out = tmp_path / "m.csv"
    assert main(["--quiet", "mask", "--type", "uniform", "--rate", "0.5",
                 "--seed", "-1", "--num-nodes", "5", "--num-channels", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["-1", "0,0", "1,0,1"])
def test_cli_pipeline_rejects_a_negative_or_repeated_seed(tmp_path, seeds):
    epath, fpath, _ = _write_inputs(tmp_path, seed=7)
    out = tmp_path / "pipe.json"
    assert main(["--quiet", "pipeline", "--edges", str(epath), "--features",
                 str(fpath), "--mask-type", "uniform", "--rate", "0.5",
                 f"--seeds={seeds}", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_stage1_only_method(tmp_path):
    epath, fpath, mpath = _write_inputs(tmp_path, seed=6)
    o1 = tmp_path / "s1.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath),
                 "--method", "pcfi_stage1_only", "--out", str(o1)]) == 0
    rep = json.loads((tmp_path / "s1.csv.json").read_text())
    assert rep["config"]["method"] == "pcfi_stage1_only"
    assert rep["residuals"] is not None and len(rep["residuals"]) == 3


@pytest.mark.parametrize("method, mode", [
    ("pcfi", "iterative"), ("fp", "iterative"), ("zero", "iterative"),
    ("pcfi", "closed_form"), ("fp", "closed_form"),
])
def test_cli_sidecar_reports_the_steps_that_ran(tmp_path, method, mode):
    """``steps_run`` is ``--k`` exactly when there are residuals: the
    closed form, fp's as pcfi's, and zero run no iteration, and every
    method's ``config`` records the mode that was asked for."""
    epath, fpath, mpath = _write_inputs(tmp_path, seed=3)
    out = tmp_path / "o.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                 str(fpath), "--mask", str(mpath), "--method", method,
                 "--mode", mode, "--k", "7", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "o.csv.json").read_text())
    assert rep["config"]["mode"] == mode
    if method != "zero" and mode == "iterative":
        assert rep["steps_run"] == 7
        assert len(rep["residuals"]) == 3 and min(rep["residuals"]) >= 0.0
        assert rep["max_residual"] == max(rep["residuals"])
    else:
        assert rep["steps_run"] == 0
        assert rep["residuals"] is None and rep["max_residual"] is None


def _assert_sidecars_match_pipeline_blocks(tmp_path, epath, fpath, *settings):
    """``pcfi impute`` under the mask that ``pcfi pipeline --no-lcc`` draws
    for seed 0 reports, apart from the input's shape and its schema
    version, exactly the facts of that method's pipeline block, each run
    with ``settings``; returns the blocks."""
    mpath = tmp_path / "mask0.csv"
    assert main(["--quiet", "mask", "--features-file", str(fpath), "--type",
                 "uniform", "--rate", "0.5", "--seed", "0", "--out", str(mpath)]) == 0
    common = ["--edges", str(epath), *settings]
    rpath = tmp_path / "pipe.json"
    assert main(["--quiet", "pipeline", *common, "--features", str(fpath),
                 "--no-lcc", "--mask-type", "uniform", "--rate", "0.5", "--seeds",
                 "0", "--methods", ",".join(pipeline.METHODS),
                 "--out", str(rpath)]) == 0
    blocks = json.loads(rpath.read_text())["per_seed"][0]["methods"]
    for method in pipeline.METHODS:
        out = tmp_path / f"{method}.csv"
        assert main(["--quiet", "impute", *common, "--features", str(fpath),
                     "--mask", str(mpath), "--method", method,
                     "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / f"{method}.csv.json").read_text())
        facts = {k: v for k, v in sidecar.items() if k not in (
            "schema_version", "num_nodes", "num_channels", "num_missing_entries")}
        assert facts == {k: blocks[method][k] for k in facts}
        assert set(facts) == {"config", "flagged_channels", "steps_run",
                              "residuals", "max_residual"}
    return blocks


@pytest.mark.parametrize("mode", ["iterative", "closed_form"])
def test_cli_sidecar_facts_equal_the_pipeline_blocks(tmp_path, mode):
    epath, fpath, _ = _write_inputs(tmp_path)
    _assert_sidecars_match_pipeline_blocks(tmp_path, epath, fpath,
                                           "--mode", mode, "--k", "7")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_sidecar_facts_equal_the_pipeline_blocks_on_a_fragmented_graph(
        tmp_path, threads):
    """The same on the whole of a fragmented graph, where some channels
    cannot reach an observed value and --lenient-no-source zero-fills
    them."""
    ds = tmp_path / "ds"
    assert main(["--quiet", "synth", *_FRAGMENTED, "--out", str(ds)]) == 0
    blocks = _assert_sidecars_match_pipeline_blocks(
        tmp_path, ds / "edges.tsv", ds / "features.csv", "--lenient-no-source",
        "--threads", threads)
    assert blocks["pcfi"]["flagged_channels"]
    assert blocks["fp"]["flagged_channels"] == blocks["pcfi"]["flagged_channels"]


@pytest.mark.parametrize("method", ["pcfi", "fp"])
def test_cli_fp_and_pcfi_refuse_or_flag_the_same_unfillable_channels(
        tmp_path, caplog, method):
    """On the whole of a fragmented graph every channel has a missing entry
    in a component with no observed entry of its channel. Both methods exit
    2 naming all 64 channels and write nothing; with --lenient-no-source
    both exit 0 and flag them all, and fp writes the values of its plain
    diffusion."""
    ds = tmp_path / "ds"
    assert main(["--quiet", "synth", *_FRAGMENTED, "--out", str(ds)]) == 0
    mpath, out = tmp_path / "mask.csv", tmp_path / "out.csv"
    assert main(["--quiet", "mask", "--features-file", str(ds / "features.csv"),
                 "--type", "uniform", "--rate", "0.5", "--seed", "0",
                 "--out", str(mpath)]) == 0
    argv = ["impute", "--edges", str(ds / "edges.tsv"), "--features",
            str(ds / "features.csv"), "--mask", str(mpath), "--method", method,
            "--out", str(out)]
    with caplog.at_level("ERROR", logger="pcfi"):
        assert main(argv) == 2
    assert "64 channel(s) have missing nodes with no reachable observed entry" \
        in caplog.text
    assert sorted(tmp_path.iterdir()) == sorted([ds, mpath])
    assert main(["--quiet", *argv, "--lenient-no-source"]) == 0
    sidecar = json.loads((tmp_path / "out.csv.json").read_text())
    assert sidecar["flagged_channels"] == list(range(64))
    if method == "fp":
        values = pio.load_matrix(ds / "features.csv")
        known = pio.load_mask(mpath)
        g = build_graph(pio.load_edges(ds / "edges.tsv"), values.shape[0])
        plain = fp_baseline(g, apply_mask(values, known), compute_spds(g, known),
                            steps=100, lenient=True)
        want = tmp_path / "plain.csv"
        pio.write_matrix(want, plain.values)
        assert out.read_bytes() == want.read_bytes()


def test_cli_fp_solves_its_closed_form_without_a_warning(tmp_path, caplog):
    """``fp`` asked for the closed form solves it, with no warning: it
    writes the library's closed form, which is FP's fixed point to the
    nine digits of the CSV, as a dense solve gives it, and which 7 steps
    do not reach."""
    epath, fpath, mpath = _write_inputs(tmp_path, seed=3)
    for mode in ("iterative", "closed_form"):
        caplog.clear()
        assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                     str(fpath), "--mask", str(mpath), "--method", "fp", "--mode",
                     mode, "--k", "7", "--out", str(tmp_path / f"{mode}.csv")]) == 0
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    values, known = pio.load_matrix(fpath), pio.load_mask(mpath)
    g = build_graph(pio.load_edges(epath), values.shape[0])
    fs = apply_mask(values, known)
    solved = fp_baseline(g, fs, compute_spds(g, known), mode="closed_form").values
    pio.write_matrix(tmp_path / "library.csv", solved)
    written = (tmp_path / "closed_form.csv").read_bytes()
    assert written == (tmp_path / "library.csv").read_bytes()
    want = fp_fixed_point_reference(g, fs.values, known)
    assert np.all(np.abs(pio.load_matrix(tmp_path / "closed_form.csv") - want)
                  <= 1e-8 * np.abs(want) + 1e-10)
    assert np.max(np.abs(pio.load_matrix(tmp_path / "iterative.csv") - want)) > 1e-6


def test_cli_refuses_both_closed_forms_above_the_size_limit_alike(tmp_path, caplog,
                                                                 monkeypatch):
    """Above ``MAX_DENSE_UNKNOWNS`` unknowns in a known set, ``fp``'s
    closed form exits 2 with pcfi's message and writes nothing."""
    epath, fpath, mpath = _write_inputs(tmp_path, seed=3)
    monkeypatch.setattr(diffusion, "MAX_DENSE_UNKNOWNS", 2)
    refusals = []
    for method in ("pcfi", "fp"):
        caplog.clear()
        out = tmp_path / f"{method}.csv"
        assert main(["--quiet", "impute", "--edges", str(epath), "--features",
                     str(fpath), "--mask", str(mpath), "--method", method,
                     "--mode", "closed_form", "--out", str(out)]) == 2
        assert not out.exists()
        refusals.append([r.getMessage() for r in caplog.records
                         if r.levelno >= logging.ERROR])
    assert refusals[0] == refusals[1] and "use the iterative mode" in refusals[0][0]


def test_cli_runs_more_steps_than_an_int8_field_holds(tmp_path):
    """K + 1 = 201 does not fit the int8 distance field of a 40-node graph:
    ``--k 200`` runs, and writes the bits of a run on an int64 copy of
    the field."""
    epath, fpath, mpath = _write_inputs(tmp_path, seed=9)
    out, spds_out = tmp_path / "k200.csv", tmp_path / "spds.csv"
    assert main(["--quiet", "impute", "--edges", str(epath), "--features", str(fpath),
                 "--mask", str(mpath), "--k", "200", "--out", str(out),
                 "--spds-out", str(spds_out)]) == 0
    known = pio.load_mask(mpath)
    g = build_graph(pio.load_edges(epath), known.shape[0])
    assert compute_spds(g, known).distances.dtype == np.int8
    wide = SpdsMatrix(distances=pio.load_spds(spds_out).astype(np.int64))
    fs = apply_mask(pio.load_matrix(fpath), known)
    want = impute(g, fs, ImputationConfig(steps=200), spds=wide)
    expected = tmp_path / "expected.csv"
    pio.write_matrix(expected, want.values)
    assert out.read_bytes() == expected.read_bytes()
    assert json.loads((tmp_path / "k200.csv.json").read_text())["steps_run"] == 200


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
