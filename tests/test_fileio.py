"""Canonical text formats for raw datasets and embeddings."""

import ast
from pathlib import Path
import re

import numpy as np
import pytest

from priarta import EncoderSpec, FileFormatError, RawDataset, clip_to_ball, encode
from priarta import fileio
from priarta.fileio import (
    load_json,
    read_dataset_any,
    read_embeddings,
    read_raw_dataset,
    save_json,
    write_embeddings,
    write_raw_dataset,
)
from priarta.stats import EmbeddingSet

from conftest import HOSTILE_INPUTS


def sample_raw(rng, m=20, p=6, k=3):
    points = rng.standard_normal((m, p))
    labels = rng.integers(0, k, m)
    return RawDataset(points, labels, np.full(k, 1.0 / k))


# ---------------------------------------------------------------------- raw


def test_raw_round_trip_bitwise(tmp_path, rng):
    data = sample_raw(rng)
    path = tmp_path / "d.raw"
    write_raw_dataset(path, data)
    again = read_raw_dataset(path)
    np.testing.assert_array_equal(again.points, data.points)
    np.testing.assert_array_equal(again.labels, data.labels)
    np.testing.assert_array_equal(again.class_probs, data.class_probs)


def test_raw_write_is_canonical(tmp_path, rng):
    data = sample_raw(rng)
    a, b = tmp_path / "a.raw", tmp_path / "b.raw"
    write_raw_dataset(a, data)
    write_raw_dataset(b, data)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("PRIARTA-RAW 1\n")
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_raw_read_errors_name_line(tmp_path):
    path = tmp_path / "bad.raw"
    path.write_text("PRIARTA-RAW 1\n2 2 1\n1.0\n0 1.0 2.0\n0 x 2.0\n")
    with pytest.raises(FileFormatError) as info:
        read_raw_dataset(path)
    assert str(path) in str(info.value)
    assert ":5:" in str(info.value)


def test_raw_read_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.raw"
    path.write_text("SOMETHING 9\n")
    with pytest.raises(FileFormatError):
        read_raw_dataset(path)


def test_raw_read_rejects_row_count_mismatch(tmp_path):
    path = tmp_path / "bad.raw"
    path.write_text("PRIARTA-RAW 1\n3 2 1\n1.0\n0 1.0 2.0\n0 3.0 4.0\n")
    with pytest.raises(FileFormatError):
        read_raw_dataset(path)


@pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
def test_hostile_files_raise_format_error_at_line(tmp_path, name):
    content, line = HOSTILE_INPUTS[name]
    path = tmp_path / name
    path.write_bytes(content)
    for read in (read_dataset_any, read_raw_dataset if name.endswith(".raw") else read_embeddings):
        with pytest.raises(FileFormatError) as info:
            read(path)
        assert str(info.value).startswith(f"{path}:{line}: ")


# --------------------------------------------------------------- embeddings


def test_embeddings_round_trip_bitwise(tmp_path, rng):
    e = clip_to_ball(rng.standard_normal((15, 4)), 1.0)
    path = tmp_path / "d.emb"
    write_embeddings(path, e)
    again = read_embeddings(path)
    np.testing.assert_array_equal(again.vectors, e.vectors)
    assert again.clip_radius == e.clip_radius
    assert again.clipped  # recomputed from the data, all rows inside


def test_embeddings_clipped_flag_recomputed(tmp_path, rng):
    # rows outside R come back with the flag off
    e = EmbeddingSet(rng.standard_normal((10, 4)) * 5, 1.0, False)
    path = tmp_path / "d.emb"
    write_embeddings(path, e)
    assert not read_embeddings(path).clipped


def test_embeddings_reject_bad_header(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_text("PRIARTA-EMB 1\n2 0 1.0\n\n\n")
    with pytest.raises(FileFormatError):
        read_embeddings(path)


def test_embeddings_preserve_extreme_floats(tmp_path):
    vecs = np.array([[1e-300, 0.1 + 0.2], [-1.2345678901234567e-5, 0.25]])
    e = EmbeddingSet(vecs, 2.0, False)
    path = tmp_path / "d.emb"
    write_embeddings(path, e)
    np.testing.assert_array_equal(read_embeddings(path).vectors, vecs)


# ---------------------------------------------------------------- sniffing


def test_read_dataset_any_dispatches(tmp_path, rng):
    raw_path = tmp_path / "d.raw"
    write_raw_dataset(raw_path, sample_raw(rng))
    assert isinstance(read_dataset_any(raw_path), RawDataset)

    emb_path = tmp_path / "d.emb"
    write_embeddings(emb_path, clip_to_ball(rng.standard_normal((5, 3)), 1.0))
    assert isinstance(read_dataset_any(emb_path), EmbeddingSet)


def test_read_dataset_any_rejects_unknown_header(tmp_path):
    path = tmp_path / "d.bin"
    path.write_text("not a dataset\n")
    with pytest.raises(FileFormatError):
        read_dataset_any(path)


# -------------------------------------------------------------------- json


def test_json_round_trip(tmp_path):
    path = tmp_path / "x.json"
    save_json(path, {"b": [1, 2.5], "a": "text"})
    assert load_json(path) == {"a": "text", "b": [1, 2.5]}
    # canonical form: sorted keys, compact separators, trailing newline
    assert path.read_text() == '{"a":"text","b":[1,2.5]}\n'


def test_json_parse_error_names_byte(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": }')
    with pytest.raises(FileFormatError) as info:
        load_json(path)
    assert "byte" in str(info.value)


# A "}" where a value belongs, after two-byte UTF-8 characters, and on the
# third line of a file with CRLF line endings.
JSON_SYNTAX_ERRORS = {
    "two-byte-chars": b'{"\xc3\xa9\xc3\xa9": }',
    "crlf": b'{\r\n"a": 1,\r\n"b": }',
}


@pytest.mark.parametrize("name", sorted(JSON_SYNTAX_ERRORS))
def test_json_parse_error_names_line_and_byte_in_it(tmp_path, name):
    raw = JSON_SYNTAX_ERRORS[name]
    path = tmp_path / "x.json"
    path.write_bytes(raw)
    with pytest.raises(FileFormatError) as info:
        load_json(path)
    found = re.fullmatch(re.escape(str(path)) + r":(\d+): parse error at byte (\d+) of the line: .*",
                         str(info.value))
    assert found, str(info.value)
    line, offset = int(found[1]), int(found[2])
    assert raw.split(b"\n")[line - 1][offset:offset + 1] == b"}"


# ------------------------------------------------------- encode integration


def test_encoded_file_matches_in_memory(tmp_path, rng):
    spec = EncoderSpec("toy_projection", 3, 6, 2, 3, 0.0)
    data = sample_raw(rng)
    z = encode(spec, data)
    path = tmp_path / "d.emb"
    write_embeddings(path, EmbeddingSet(z, 1.0, False))
    np.testing.assert_array_equal(read_embeddings(path).vectors, z)


# ------------------------------------------- C reader against the row loops


def reference_read_lines(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n")


def reference_parse_floats(line, expected, path, lineno):
    parts = line.split(" ")
    if len(parts) != expected:
        raise FileFormatError(f"{path}:{lineno}: expected {expected} fields, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: {exc}") from exc


def reference_read_raw(path):
    """read_raw_dataset as it was before the C reader: one Python loop per row."""
    lines = reference_read_lines(path)
    if not lines or lines[0] != "PRIARTA-RAW 1":
        raise FileFormatError(f"{path}:1: expected header 'PRIARTA-RAW 1'")
    if len(lines) < 3:
        raise FileFormatError(f"{path}: truncated, no dimension header")
    parts = lines[1].split(" ")
    if len(parts) != 3:
        raise FileFormatError(f"{path}:2: header needs 3 fields, got {len(parts)}")
    try:
        m, p, k = (int(v) for v in parts)
    except ValueError as exc:
        raise FileFormatError(f"{path}:2: {exc}") from exc
    if m < 1 or p < 1 or k < 1:
        raise FileFormatError(f"{path}:2: dimensions must be positive, got {m} {p} {k}")
    if len(lines) != 3 + m:
        raise FileFormatError(f"{path}: header declares {m} rows, file has {len(lines) - 3}")
    probs = reference_parse_floats(lines[2], k, path, 3)
    points = np.empty((m, p))
    labels = np.empty(m, dtype=int)
    for i in range(m):
        lineno = 4 + i
        parts = lines[3 + i].split(" ", 1)
        if len(parts) != 2:
            raise FileFormatError(f"{path}:{lineno}: expected label and {p} coordinates")
        try:
            labels[i] = int(parts[0])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        except OverflowError as exc:
            raise FileFormatError(f"{path}:{lineno}: label {parts[0]} is outside int64") from exc
        points[i] = reference_parse_floats(parts[1], p, path, lineno)
    return RawDataset(points, labels, np.asarray(probs))


def reference_read_embeddings(path):
    """read_embeddings as it was before the C reader."""
    lines = reference_read_lines(path)
    parts = lines[1].split(" ")
    n, d, radius = int(parts[0]), int(parts[1]), float(parts[2])
    if len(lines) != 2 + n:
        raise FileFormatError(f"{path}: header declares {n} rows, file has {len(lines) - 2}")
    vectors = np.empty((n, d))
    for i in range(n):
        vectors[i] = reference_parse_floats(lines[2 + i], d, path, 3 + i)
    inside = bool(np.all(np.linalg.norm(vectors, axis=1) <= radius * (1.0 + 1e-12)))
    return EmbeddingSet(vectors, radius, clipped=inside)


def read_outcome(read, path):
    """What a reader returns, as bytes, or the exception it raises."""
    try:
        got = read(path)
    except Exception as exc:  # the parity check compares every failure
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(got, RawDataset):
        return ("raw", got.points.tobytes(), got.labels.tobytes(), str(got.labels.dtype),
                got.class_probs.tobytes(), got.points.shape)
    return ("emb", got.vectors.tobytes(), got.vectors.shape, got.clip_radius, got.clipped)


# Each replaces the middle row of a valid 3-row file with p = 2 coordinates.
MALFORMED_ROWS = [
    "1 3.0 4.0", "1\t3.0 4.0", "1 3.0\t4.0", "1 3.0 4.0\t", "1\t3.0\t4.0",
    "1  3.0 4.0", "1 3.0  4.0", "1 3.0 4.0 ", " 1 3.0 4.0", "1 3.0 4.0  ",
    "", "   ", "# 1 3.0 4.0", "1 3.0 #4.0", "1 3.0 4.0#",
    "1 1_0 4.0", "1_0 3.0 4.0", "0_1 3.0 4.0",
    "1 nan 4.0", "1 inf 4.0", "1 -Infinity 4.0", "1 NaN -inf", "1 1e400 4.0",
    "1e0 3.0 4.0", "3.5 3.0 4.0", "nan 3.0 4.0", "inf 3.0 4.0",
    "+1 3.0 4.0", "-0 3.0 4.0", "01 3.0 4.0", "-1 3.0 4.0", "5 3.0 4.0", "+-1 3.0 4.0",
    "99999999999999999999 3.0 4.0",
    "1 3.0", "1 3.0 4.0 5.0", "1", "1 ", "1 3.0 ",
    "1 1e0 4E-1", "1 +.5 -0.0", "1 1. .5", "1 3.0 4.0e", "1 - 4.0", "1 3.0 1.2.3",
    "1 3.0 4.0\x0b", "1 3.0 4.0\x1c", "1 3.0 4.0\xa0", "１ 3.0 4.0", "1 ３.0 4.0",
]


@pytest.mark.parametrize("row", MALFORMED_ROWS)
def test_raw_reader_matches_row_loop(tmp_path, row):
    path = tmp_path / "d.raw"
    path.write_bytes(f"PRIARTA-RAW 1\n3 2 2\n0.5 0.5\n0 1.0 2.0\n{row}\n1 -5e-324 0.1\n".encode())
    assert read_outcome(read_raw_dataset, path) == read_outcome(reference_read_raw, path)


@pytest.mark.parametrize("row", MALFORMED_ROWS)
def test_embeddings_reader_matches_row_loop(tmp_path, row):
    coords = row.split(" ", 1)[1] if " " in row else row
    path = tmp_path / "d.emb"
    path.write_bytes(f"PRIARTA-EMB 1\n3 2 10.0\n1.0 2.0\n{coords}\n-5e-324 0.1\n".encode())
    assert read_outcome(read_embeddings, path) == read_outcome(reference_read_embeddings, path)


@pytest.mark.parametrize("body", [
    "0 1.0 2.0\r\n1 3.0 4.0\r\n",       # CRLF line endings
    "0 1.0 2.0\n1 3.0 4.0",             # no final newline
    "0 1.0 2.0\n1 3.0 4.0\n\n",         # blank last line
    "0 1.0 2.0\n\n1 3.0 4.0\n",         # blank line between rows
])
def test_raw_reader_matches_row_loop_on_line_structure(tmp_path, body):
    path = tmp_path / "d.raw"
    path.write_bytes(("PRIARTA-RAW 1\n2 2 2\n0.5 0.5\n" + body).encode())
    assert read_outcome(read_raw_dataset, path) == read_outcome(reference_read_raw, path)


def test_canonical_files_skip_the_row_loop(tmp_path, rng, monkeypatch):
    import priarta.fileio as fileio

    raw_path, emb_path = tmp_path / "d.raw", tmp_path / "d.emb"
    data = sample_raw(rng, m=50)
    write_raw_dataset(raw_path, data)
    e = EmbeddingSet(rng.standard_normal((40, 5)), 1.0, False)
    write_embeddings(emb_path, e)
    calls = []
    original = fileio._parse_floats
    monkeypatch.setattr(fileio, "_parse_floats", lambda *a: calls.append(a) or original(*a))
    again = read_raw_dataset(raw_path)
    assert len(calls) == 1  # the class-probability line only
    np.testing.assert_array_equal(again.points, data.points)
    np.testing.assert_array_equal(again.labels, data.labels)
    assert again.labels.dtype == data.labels.dtype
    np.testing.assert_array_equal(read_embeddings(emb_path).vectors, e.vectors)
    assert len(calls) == 1


# ----------------------------------------------------------- one file layer


def test_only_fileio_opens_files():
    # builtin open, io.open, os.open and Path.open/read_*/write_* alike
    openers = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
    package = Path(fileio.__file__).parent
    offenders = []
    for source in sorted(package.glob("*.py")):
        if source.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in openers:
                    offenders.append(f"{source.name}:{node.lineno}")
    assert offenders == []
