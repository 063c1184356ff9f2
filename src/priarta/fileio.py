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

Both dataset formats share one codec: _read_table, _read_rows and _write_table.
Rows are read by numpy's C text reader when that provably gives what the
per-row Python loop gives; the loop stays as the definition of the format.
Every refusal starts with the file's path: path:line for a malformed line, and
path: for a value that RawDataset or EmbeddingSet refuses.
"""

import json

import numpy as np

from .encoder import RawDataset
from .errors import FileFormatError, PriartaError, require_float
from .stats import CLIP_SLACK, EmbeddingSet, _row_norms

RAW_MAGIC = "PRIARTA-RAW 1"
EMB_MAGIC = "PRIARTA-EMB 1"


def _fmt(row: np.ndarray) -> str:
    """A row of floats as shortest round-trip decimals, one space apart."""
    return " ".join(map(repr, row.tolist()))


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


def _parse_floats(line: str, expected: int, path, lineno: int) -> list:
    parts = line.split(" ")
    if len(parts) != expected:
        raise FileFormatError(f"{path}:{lineno}: expected {expected} fields, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: {exc}") from exc


# Row bodies made only of these bytes read alike through numpy's C reader and
# the Python loop: both split fields on single spaces, reject an empty field
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


def _read_table(path, magic: str, meta: int):
    """The three fields of the dimension header, the meta lines after it and
    the row lines of a file that starts with the magic line."""
    text = _read_text(path)
    lines = (text[:-1] if text.endswith("\n") else text).split("\n")
    if lines[0] != magic:
        raise FileFormatError(f"{path}:1: expected header {magic!r}")
    if len(lines) < 2 + meta:
        raise FileFormatError(f"{path}: truncated, no dimension header")
    fields = lines[1].split(" ")
    if len(fields) != 3:
        raise FileFormatError(f"{path}:2: header needs 3 fields, got {len(fields)}")
    return fields, lines[2:2 + meta], lines[2 + meta:]


def _read_rows(rows: list, count: int, width: int, labeled: bool, path, first: int):
    """The labels (None unless labeled) and the points of count rows, rows[0]
    being line first. A width no row can have is refused before any array is
    sized from it: a row of width coordinates is at least width characters."""
    if len(rows) != count:
        raise FileFormatError(f"{path}: header declares {count} rows, file has {len(rows)}")
    if width > len(rows[0]):
        raise FileFormatError(f"{path}:2: header declares {width} coordinates per row, "
                              f"but line {first} is {len(rows[0])} characters long")
    label = [("label", int)] if labeled else []
    parsed = _load_rows(rows, np.dtype(label + [("point", float, (width,))]))
    if parsed is not None:
        return parsed["label"] if labeled else None, parsed["point"]
    points = np.empty((count, width))
    labels = np.empty(count, dtype=int) if labeled else None
    for i, row in enumerate(rows):
        lineno = first + i
        if labeled:
            parts = row.split(" ", 1)
            if len(parts) != 2:
                raise FileFormatError(f"{path}:{lineno}: expected label and {width} coordinates")
            try:
                labels[i] = int(parts[0])
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            except OverflowError as exc:
                raise FileFormatError(f"{path}:{lineno}: label {parts[0]} is outside int64") from exc
            row = parts[1]
        points[i] = _parse_floats(row, width, path, lineno)
    return labels, points


def _dataset(path, cls, *fields):
    """cls(*fields), its refusal worded as a FileFormatError on path."""
    try:
        return cls(*fields)
    except PriartaError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _write_table(path, head_lines: list, points: np.ndarray, labels=None):
    """The head lines, then each row of points after its label, if any: one
    row at a time, so at most one row is held as Python floats."""
    rows = map(_fmt, points)
    if labels is not None:
        rows = (f"{label} {row}" for label, row in zip(labels.tolist(), rows))
    _write_text(path, "\n".join([*head_lines, *rows]) + "\n")


def write_raw_dataset(path, data: RawDataset):
    head = [f"{data.count} {data.dim} {data.class_probs.shape[0]}", _fmt(data.class_probs)]
    _write_table(path, [RAW_MAGIC, *head], data.points, data.labels)


def read_raw_dataset(path) -> RawDataset:
    fields, (probs,), rows = _read_table(path, RAW_MAGIC, 1)
    try:
        m, p, k = (int(v) for v in fields)
    except ValueError as exc:
        raise FileFormatError(f"{path}:2: {exc}") from exc
    if m < 1 or p < 1 or k < 1:
        raise FileFormatError(f"{path}:2: dimensions must be positive, got {m} {p} {k}")
    probs = _parse_floats(probs, k, path, 3)
    labels, points = _read_rows(rows, m, p, True, path, 4)
    return _dataset(path, RawDataset, points, labels, np.asarray(probs))


def write_embeddings(path, embeddings: EmbeddingSet):
    head = f"{embeddings.count} {embeddings.dim} {float(embeddings.clip_radius)!r}"
    _write_table(path, [EMB_MAGIC, head], embeddings.vectors)


def read_embeddings(path) -> EmbeddingSet:
    """The clipped flag is recomputed from the data: set only when every row
    actually fits the declared radius."""
    fields, _, rows = _read_table(path, EMB_MAGIC, 0)
    try:
        n, d, radius = int(fields[0]), int(fields[1]), float(fields[2])
    except ValueError as exc:
        raise FileFormatError(f"{path}:2: {exc}") from exc
    if n < 2 or d < 1 or not 0.0 < radius < np.inf:
        raise FileFormatError(f"{path}:2: need n >= 2, d >= 1, finite R > 0, "
                              f"got {' '.join(fields)!r}")
    _, vectors = _read_rows(rows, n, d, False, path, 3)
    inside = bool((_row_norms(vectors) <= radius * (1.0 + CLIP_SLACK)).all())
    return _dataset(path, EmbeddingSet, vectors, radius, inside)


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
