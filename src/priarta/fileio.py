"""On-disk text formats, all bit-exact and diffable.

Raw datasets:            Embeddings:
    PRIARTA-RAW 1            PRIARTA-EMB 1
    m p k                    n d R
    <k class probs>          <n lines of d floats>
    <m lines: label + p floats>

Floats are written as shortest round-trip decimals, space-separated, with no
trailing whitespace. Configs, encoder specs, and reports are canonical JSON.
Every file priarta reads or writes is opened here, by _read_text or
_write_text: UTF-8, "\n" line endings, and path:line on undecodable bytes.

Rows are read by numpy's C text reader when that provably gives what the
per-row Python loops give; the loops stay as the definition of the format and
word every rejection as path:line.
"""

import json

import numpy as np

from .encoder import RawDataset
from .errors import FileFormatError, require_float
from .stats import CLIP_SLACK, EmbeddingSet, _row_norms

RAW_MAGIC = "PRIARTA-RAW 1"
EMB_MAGIC = "PRIARTA-EMB 1"


def _fmt(value) -> str:
    return repr(float(value))


def _read_text(path, first_line: bool = False) -> str:
    """A file's UTF-8 text, or only its first line, with every line ending
    read as "\n". The bytes are decoded in one call, so a decode error's
    offset is the file offset."""
    with open(path, "rb") as fh:
        data = fh.readline() if first_line else fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(f"{path}:{line}: not UTF-8 text at byte {exc.start}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def dumps_json(data) -> str:
    """Canonical JSON: sorted keys, compact separators, no NaN or infinity,
    a trailing newline."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _read_lines(path) -> list:
    text = _read_text(path)
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n")


def _parse_floats(line: str, expected: int, path, lineno: int) -> list:
    parts = line.split(" ")
    if len(parts) != expected:
        raise FileFormatError(f"{path}:{lineno}: expected {expected} fields, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: {exc}") from exc


# Row bodies made only of these bytes read alike through numpy's C reader and
# the Python loops: both split fields on single spaces, reject an empty field
# and convert with the same correctly rounded strtod, and for labels both take
# an optional sign and decimal digits. Other whitespace, "_" and non-ASCII
# digits are where Python's int()/float() and the C reader part ways; letters
# (nan, inf) appear only in rows the datasets reject anyway.
_PLAIN_ROW_BYTES = b"0123456789+-.eE \n"


def _load_rows(rows: list, dtype: np.dtype):
    """Rows parsed by numpy's C reader, or None when the Python loop must
    decide: on bytes outside the plain alphabet, on a reader error, and on
    a row count other than len(rows) (the reader skips blank lines)."""
    if "\n".join(rows).encode().translate(None, _PLAIN_ROW_BYTES):
        return None
    try:
        parsed = np.loadtxt(rows, dtype=dtype, delimiter=" ", comments=None, ndmin=1)
    except ValueError:  # the loop, not the C reader, words every rejection
        return None
    return parsed if parsed.shape == (len(rows),) else None


def _parse_header_ints(line: str, count: int, path) -> list:
    parts = line.split(" ")
    if len(parts) != count:
        raise FileFormatError(f"{path}:2: header needs {count} fields, got {len(parts)}")
    return parts


def _check_row_width(width: int, first_row: str, path, lineno: int):
    """Reject a header width that no row can have, before any array or dtype
    is sized from it: a row of width coordinates is at least width
    characters long."""
    if width > len(first_row):
        raise FileFormatError(
            f"{path}:2: header declares {width} coordinates per row, "
            f"but line {lineno} is {len(first_row)} characters long"
        )


def write_raw_dataset(path, data: RawDataset):
    k = data.class_probs.shape[0]
    lines = [RAW_MAGIC, f"{data.count} {data.dim} {k}"]
    lines.append(" ".join(_fmt(p) for p in data.class_probs))
    for label, row in zip(data.labels, data.points):
        lines.append(f"{int(label)} " + " ".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def read_raw_dataset(path) -> RawDataset:
    lines = _read_lines(path)
    if not lines or lines[0] != RAW_MAGIC:
        raise FileFormatError(f"{path}:1: expected header {RAW_MAGIC!r}")
    if len(lines) < 3:
        raise FileFormatError(f"{path}: truncated, no dimension header")
    parts = _parse_header_ints(lines[1], 3, path)
    try:
        m, p, k = (int(v) for v in parts)
    except ValueError as exc:
        raise FileFormatError(f"{path}:2: {exc}") from exc
    if m < 1 or p < 1 or k < 1:
        raise FileFormatError(f"{path}:2: dimensions must be positive, got {m} {p} {k}")
    if len(lines) != 3 + m:
        raise FileFormatError(f"{path}: header declares {m} rows, file has {len(lines) - 3}")
    _check_row_width(p, lines[3], path, 4)
    probs = _parse_floats(lines[2], k, path, 3)
    parsed = _load_rows(lines[3:], np.dtype([("label", int), ("point", float, (p,))]))
    if parsed is not None:
        return RawDataset(parsed["point"], parsed["label"], np.asarray(probs))
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
        points[i] = _parse_floats(parts[1], p, path, lineno)
    return RawDataset(points, labels, np.asarray(probs))


def write_embeddings(path, embeddings: EmbeddingSet):
    lines = [EMB_MAGIC, f"{embeddings.count} {embeddings.dim} {_fmt(embeddings.clip_radius)}"]
    for row in embeddings.vectors:
        lines.append(" ".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def read_embeddings(path) -> EmbeddingSet:
    """The clipped flag is recomputed from the data: set only when every row
    actually fits the declared radius."""
    lines = _read_lines(path)
    if not lines or lines[0] != EMB_MAGIC:
        raise FileFormatError(f"{path}:1: expected header {EMB_MAGIC!r}")
    if len(lines) < 2:
        raise FileFormatError(f"{path}: truncated, no dimension header")
    parts = _parse_header_ints(lines[1], 3, path)
    try:
        n, d = int(parts[0]), int(parts[1])
        radius = float(parts[2])
    except ValueError as exc:
        raise FileFormatError(f"{path}:2: {exc}") from exc
    if n < 2 or d < 1 or not 0.0 < radius < np.inf:
        raise FileFormatError(f"{path}:2: need n >= 2, d >= 1, finite R > 0, got {lines[1]!r}")
    if len(lines) != 2 + n:
        raise FileFormatError(f"{path}: header declares {n} rows, file has {len(lines) - 2}")
    _check_row_width(d, lines[2], path, 3)
    parsed = _load_rows(lines[2:], np.dtype([("vector", float, (d,))]))
    if parsed is not None:
        vectors = parsed["vector"]
    else:
        vectors = np.empty((n, d))
        for i in range(n):
            vectors[i] = _parse_floats(lines[2 + i], d, path, 3 + i)
    inside = bool((_row_norms(vectors) <= radius * (1.0 + CLIP_SLACK)).all())
    return EmbeddingSet(vectors, radius, clipped=inside)


def _finite_float(text: str) -> float:
    return require_float(float(text), f"JSON number {text}")


def load_json(path) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        # exc.pos counts characters of the text, whose line endings are "\n";
        # a line's own bytes are the file's, so the offset counts UTF-8 bytes
        line_start = text.rfind("\n", 0, exc.pos) + 1
        offset = len(text[line_start:exc.pos].encode("utf-8"))
        raise FileFormatError(
            f"{path}:{exc.lineno}: parse error at byte {offset} of the line: {exc.msg}"
        ) from exc
    except ValueError as exc:  # NaN, Infinity, 1e400, or an int past Python's digit limit
        raise FileFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc


def save_json(path, data):
    _write_text(path, dumps_json(data))


def read_dataset_any(path):
    """Sniff the header, reading only the first line: RawDataset or
    EmbeddingSet."""
    first = _read_text(path, first_line=True).split("\n", 1)[0]
    if first == RAW_MAGIC:
        return read_raw_dataset(path)
    if first == EMB_MAGIC:
        return read_embeddings(path)
    raise FileFormatError(f"{path}:1: unrecognized header {first!r}")
