"""Buyer/seller exchange: the buyer shares the encoder spec and sampling
parameters, each seller samples a uniform subset, encodes, clips, noises,
summarizes, and returns (mean, covariance, count).

Frames are a 4-byte big-endian payload length followed by the payload. One
splitter, _frame_end, reads the header for decode_frame and for the buyer's
and the seller's socket buffers, so both sides split frames alike. The
payload starts with canonical JSON (keys sorted, compact separators): an
object whose "type" tag names the message class and whose other keys are
exactly that class's dataclass fields; an optional field (one with a default)
is left out while unset and is never sent as null. A message without float
arrays is that JSON alone. In a STATS_RESPONSE each float64 array field (mean,
then the packed covariance) holds its entry count in the JSON, and after the
JSON come one newline byte and the arrays' little-endian IEEE-754 bytes,
concatenated in field order. Canonical JSON escapes every control character,
so the first newline ends the JSON.
A STATS_RESPONSE must echo its STATS_REQUEST's session id and count, the
spec's fingerprint and the sigma of the buyer's PrivacyBudget (to 1e-9
relative), or that seller fails. No seller may carry the buyer's BUYER_ID (a
SellerNode refuses it too), and no two sellers in a round may share a node id.
Every message the buyer sends gets exactly one reply, in the order sent.
MODEL_SPEC is acknowledged with HELLO so transcripts stay deterministic and
byte-countable. Every seller in a round gets the same three requests, so the
buyer encodes HELLO, MODEL_SPEC and STATS_REQUEST once a round and sends those
bytes to each seller. A frame without arrays is decoded once and its frozen
message shared, and a seller acks with one frame encoded at import. The
requests are pipelined: the buyer sends all three at once and only then reads
the three replies, stopping at the first ERROR. A seller still answers the
requests after a rejected one: a rejected HELLO or MODEL_SPEC leaves its
session without a spec, so the STATS_REQUEST behind it gets PROTOCOL_ORDER and
touches no data.

A SellerServer serves every connection on one thread, through one selector:
it accepts, reads and writes without blocking, and each connection has its
own session. A connection buffers at most one request frame past those it
has answered. The replies to the frames one read delivered leave in one
write; what the socket does not take waits until it is writable, so a peer
that does not read holds only its own replies. A connection's clock starts at
accept and restarts only when its frames are answered, not on a read or a
write; it is closed 60 s (_IDLE_TIMEOUT_S) after that, so a peer that drips
bytes holds a slot that long at most. While 256 connections
(_MAX_CONNECTIONS) are open the server accepts no more until one closes.
"""

import collections
from dataclasses import MISSING, asdict, dataclass, fields
import functools
import json
import logging
import math
import secrets
import selectors
import socket
import struct
import threading
import time

import numpy as np

from .encoder import EncoderSpec, RawDataset, _encoder
from .errors import (
    FrameError,
    InsufficientSamplesError,
    NumericInputError,
    ParameterError,
    PriartaError,
    ProtocolFailure,
    ShapeError,
    _fields_equal,
    _trusted,
    _unhashable,
    require_bool,
    require_float,
    require_int,
    require_str,
)
from .gaussian_geometry import GaussianSummary, _checked_window
from .privacy import (
    PrivacyBudget,
    apply_gaussian_mechanism,
    calibrate_sigma,
    derive_seed,
    secure_seed,
)
from .stats import EmbeddingSet, _check_radius, clip_to_ball, summarize

__all__ = [
    "MAX_FRAME_BYTES", "PROTOCOL_VERSION", "ErrorMessage", "Hello",
    "InProcessChannel", "ModelSpec", "SellerNode", "SellerOutcome",
    "SellerServer", "SellerSession", "SocketChannel", "StatsRequest",
    "StatsResponse", "buyer_summary", "decode_frame", "encode_frame",
    "expand_covariance", "in_process_endpoints", "node_seeds",
    "orchestrate_valuation", "pack_covariance", "seller_pipeline",
    "socket_endpoints",
]

log = logging.getLogger("priarta.protocol")

PROTOCOL_VERSION = 3
MAX_FRAME_BYTES = 64 * 1024 * 1024
# A seller reads requests, all well under 1 KB, against this much smaller cap.
_MAX_REQUEST_BYTES = 64 * 1024
# A seller closes a connection this long after it was accepted or last had
# frames answered.
_IDLE_TIMEOUT_S = 60.0
# A buyer's socket gives up on a connect, send or read that waits this long.
_READ_TIMEOUT_S = 10.0
# Connections a seller holds open at once; at the cap it accepts no more until
# one closes. Four rounds of a buyer's 64 in-flight sellers, and well under the
# common soft limit of 1024 file descriptors.
_MAX_CONNECTIONS = 256
_HEADER = struct.Struct(">I")
# Ends the JSON head of a payload that carries float64 arrays.
_TAIL_MARK = b"\n"
# The widest latent_dim whose STATS_RESPONSE fits in MAX_FRAME_BYTES: a JSON
# head, the tail mark and d + d(d+1)/2 = d(d + 3)/2 float64s. The head echoes
# the session id of a request of at most _MAX_REQUEST_BYTES, which json.dumps
# writes in at most 6 bytes per byte read; its other fields take about 220
# bytes, and 1 KiB is kept for them.
_REPLY_ROOM = (MAX_FRAME_BYTES - 6 * _MAX_REQUEST_BYTES - 1024 - len(_TAIL_MARK)) // 8
_WIDEST_REPLY = (math.isqrt(9 + 8 * _REPLY_ROOM) - 3) // 2

MODE_SECURE = "secure"
MODE_SEEDED = "seeded"
# The buyer's own party id: its seeds derive from it, and no seller may carry it.
BUYER_ID = "buyer"
_RESERVED = f"seller node id {BUYER_ID!r} is reserved for the buyer"


def _float_array(values, field: str) -> np.ndarray:
    """A read-only 1-D float64 copy of a float array, or of a list or tuple
    whose entries are checked one by one."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind != "f":
            raise ParameterError(f"{field} must be a 1-D float array")
        out = values.astype(np.float64)
    elif isinstance(values, (list, tuple)):
        out = np.array([require_float(v, field) for v in values], dtype=np.float64)
    else:
        raise ParameterError(f"{field} must be a sequence of numbers")
    if not np.isfinite(out).all():
        raise ParameterError(f"{field} must be finite")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Hello:
    protocol_version: int

    def __post_init__(self):
        object.__setattr__(
            self, "protocol_version", require_int(self.protocol_version, "protocol_version", 1)
        )


@dataclass(frozen=True)
class ModelSpec:
    encoder: EncoderSpec

    def __post_init__(self):
        if not isinstance(self.encoder, EncoderSpec):
            raise ParameterError("encoder must be an EncoderSpec")


@dataclass(frozen=True)
class StatsRequest:
    subset_size: int
    epsilon: float
    delta: float
    clip_radius: float
    session_id: str
    mode: str
    seed: int = None

    def __post_init__(self):
        # Structural checks only: out-of-range privacy parameters must still
        # transport, so the seller can answer INVALID_PARAMETER.
        object.__setattr__(self, "subset_size", require_int(self.subset_size, "subset_size", 1))
        for field in ("epsilon", "delta", "clip_radius"):
            object.__setattr__(self, field, require_float(getattr(self, field), field))
        require_str(self.session_id, "session_id")
        if self.mode == MODE_SEEDED:
            object.__setattr__(self, "seed", require_int(self.seed, "seed", 0))
        elif self.mode == MODE_SECURE:
            if self.seed is not None:
                raise ParameterError("secure mode carries no seed")
        else:
            raise ParameterError(f"mode must be {MODE_SECURE!r} or {MODE_SEEDED!r}")


@dataclass(frozen=True)
class StatsResponse:
    mean: np.ndarray
    covariance: np.ndarray
    count: int
    session_id: str
    sigma_used: float
    encoder_fingerprint: str

    def __post_init__(self):
        mean = _float_array(self.mean, "mean")
        if not len(mean):
            raise ParameterError("mean must be nonempty")
        covariance = _float_array(self.covariance, "covariance")
        d = len(mean)
        if len(covariance) != d * (d + 1) // 2:
            raise ParameterError(
                f"covariance carries {len(covariance)} entries, "
                f"expected d(d+1)/2 = {d * (d + 1) // 2} for d = {d}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "count", require_int(self.count, "count", 1))
        require_str(self.session_id, "session_id")
        object.__setattr__(self, "sigma_used", require_float(self.sigma_used, "sigma_used"))
        require_str(self.encoder_fingerprint, "encoder_fingerprint")

    __eq__ = _fields_equal
    __hash__ = _unhashable


@dataclass(frozen=True)
class ErrorMessage:
    code: str
    message: str
    session_id: str

    def __post_init__(self):
        if not require_str(self.code, "code"):
            raise ParameterError("code must be nonempty")
        require_str(self.message, "message")
        require_str(self.session_id, "session_id")


# Tag <-> message class. A message's wire fields are its dataclass fields.
_MESSAGES = {
    "HELLO": Hello,
    "MODEL_SPEC": ModelSpec,
    "STATS_REQUEST": StatsRequest,
    "STATS_RESPONSE": StatsResponse,
    "ERROR": ErrorMessage,
}
_TAGS = {cls: tag for tag, cls in _MESSAGES.items()}


@functools.cache
def _wire_fields(cls) -> tuple:
    """(name, optional, type) per field of a message class. A field with a
    default is optional."""
    return tuple((f.name, f.default is not MISSING, f.type) for f in fields(cls))


@functools.cache
def _array_fields(cls) -> tuple:
    """The names of a message class's float64 array fields, in field order."""
    return tuple(name for name, _, kind in _wire_fields(cls) if kind is np.ndarray)


def encode_frame(msg) -> bytes:
    tag = _TAGS.get(type(msg))
    if tag is None:
        raise ParameterError(f"not a protocol message: {type(msg).__name__}")
    head, tail = {"type": tag}, []
    for name, optional, kind in _wire_fields(type(msg)):
        value = getattr(msg, name)
        if optional and value is None:
            continue
        if kind is np.ndarray:
            head[name] = len(value)
            tail.append(value.astype("<f8", copy=False))
        else:
            head[name] = value.to_dict() if kind is EncoderSpec else value
    payload = [json.dumps(head, sort_keys=True, separators=(",", ":"),
                          allow_nan=False).encode("utf-8")]
    length = len(payload[0])
    if tail:
        payload += [_TAIL_MARK, *tail]
        length += len(_TAIL_MARK) + sum(values.nbytes for values in tail)
    if length > MAX_FRAME_BYTES:
        raise FrameError("FRAME_TOO_LARGE",
                         f"payload of {length} bytes exceeds {MAX_FRAME_BYTES}")
    # One join: each array's bytes are copied once, straight into the frame.
    return b"".join([_HEADER.pack(length), *payload])


def _read_tail(cls, body: dict, tail):
    """Replace each float64 array field's entry count in body with its
    read-only array over the tail. The count d(d+1)/2 and finiteness are
    left to the message constructor."""
    names = _array_fields(cls)
    if not names:
        if tail is not None:
            raise ParameterError("a message without float64 arrays carries no tail")
        return
    if tail is None:
        raise ParameterError("float64 arrays must follow the JSON after a newline")
    counts = [require_int(body.get(name), f"{name} entry count") for name in names]
    if len(tail) != 8 * sum(counts):
        raise ParameterError(
            f"tail of {len(tail)} bytes, entry counts {counts} need {8 * sum(counts)}"
        )
    start = 0
    for name, count in zip(names, counts):
        body[name] = np.frombuffer(tail[start:start + 8 * count], dtype="<f8")
        start += 8 * count


def _decode_message(obj, tail) -> object:
    if not isinstance(obj, dict):
        raise FrameError("BAD_PAYLOAD", "payload is not an object")
    tag = obj.get("type")
    if not isinstance(tag, str):
        raise FrameError("BAD_PAYLOAD", "payload lacks a type tag")
    cls = _MESSAGES.get(tag)
    if cls is None:
        raise FrameError("UNKNOWN_MESSAGE", f"unknown message tag {tag!r}")
    body = {key: value for key, value in obj.items() if key != "type"}
    try:
        for name, optional, kind in _wire_fields(cls):
            if name not in body:
                continue
            if optional and body[name] is None:
                raise ParameterError(f"optional field {name} is omitted, never null")
            if kind is EncoderSpec:
                body[name] = EncoderSpec.from_dict(body[name])
        _read_tail(cls, body, tail)
        # The constructor rejects missing and unknown fields with TypeError.
        return cls(**body)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FrameError("BAD_PAYLOAD", f"{tag}: {exc}") from exc


def _frame_end(buffer, start: int, limit: int):
    """The end of the frame that starts at buffer[start], or None while its
    header is incomplete. A declared payload over limit raises FrameError
    before any of it is read."""
    if len(buffer) - start < _HEADER.size:
        return None
    (length,) = _HEADER.unpack_from(buffer, start)
    if length > limit:
        raise FrameError("FRAME_TOO_LARGE", f"declared payload of {length} bytes exceeds {limit}")
    return start + _HEADER.size + length


def decode_frame(data) -> object:
    """Decode exactly one frame. Malformed input raises FrameError, never
    anything else.

    A frame of at most _MAX_REQUEST_BYTES payload with no float64 tail decodes
    to a frozen message without arrays, so each distinct such frame is
    decoded once and its message shared; a frame that fails is not kept.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise FrameError("BAD_PAYLOAD", "frame must be bytes")
    data = bytes(data)
    if (len(data) <= _HEADER.size + _MAX_REQUEST_BYTES
            and data.find(_TAIL_MARK, _HEADER.size) < 0):
        return _decode_shared(data)
    return _decode_frame(data)


def _decode_frame(data: bytes) -> object:
    end = _frame_end(data, 0, MAX_FRAME_BYTES)
    if end is None:
        raise FrameError("FRAME_TRUNCATED", f"got {len(data)} bytes, need a 4-byte header")
    if len(data) < end:
        raise FrameError("FRAME_TRUNCATED", f"header declares {end - _HEADER.size} bytes, "
                                            f"got {len(data) - _HEADER.size}")
    if len(data) > end:
        raise FrameError("FRAME_TRAILING", f"{len(data) - end} bytes past the declared payload")
    # Canonical JSON escapes every control character, so the first newline,
    # if any, ends the JSON head.
    split = data.find(_TAIL_MARK, _HEADER.size)
    head = data[_HEADER.size:] if split < 0 else data[_HEADER.size:split]
    try:
        obj = json.loads(head.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FrameError("BAD_PAYLOAD", f"payload head is not JSON: {exc}") from exc
    return _decode_message(obj, None if split < 0 else memoryview(data)[split + 1:])


# Every seller in a round reads the same three request frames and the buyer
# the same ack from each; the bound keeps a stream of distinct frames small.
_decode_shared = functools.lru_cache(maxsize=64)(_decode_frame)


@functools.lru_cache(maxsize=8)
def _flat_triangle(dim: int) -> tuple:
    """The row-major flat indices of a dim x dim matrix's upper triangle, in
    pack order, and of their mirror entries: one 1-D gather or scatter each
    instead of a 2-D fancy index. Cached, since at small d making them
    outweighs the packing; the arrays are only read."""
    rows, cols = np.triu_indices(dim)
    upper, lower = rows * dim + cols, cols * dim + rows
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def pack_covariance(cov) -> np.ndarray:
    """Upper triangle, row-major, d(d+1)/2 floats."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {cov.shape}")
    return cov.take(_flat_triangle(cov.shape[0])[0])


def expand_covariance(values, dim: int) -> np.ndarray:
    """Inverse of pack_covariance; both mirror entries get the same float."""
    values = np.asarray(values, dtype=float)
    if values.shape != (dim * (dim + 1) // 2,):
        raise ShapeError(f"{values.size} triangular entries do not fill a {dim}x{dim} matrix")
    upper, lower = _flat_triangle(dim)
    out = np.empty(dim * dim)
    out[upper] = values
    out[lower] = values
    return out.reshape(dim, dim)


def _subset_indices(count: int, m_tilde: int, seed: int) -> np.ndarray:
    if m_tilde > count:
        raise InsufficientSamplesError(f"subset of {m_tilde} requested, node holds {count} rows")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    return rng.choice(count, size=m_tilde, replace=False)


@dataclass
class SellerNode:
    """One seller: a raw dataset (encoded on request) or pre-encoded
    embeddings. Serves any number of sessions; each samples independently."""

    node_id: str
    raw: RawDataset = None
    embeddings: EmbeddingSet = None
    pinned_fingerprint: str = None

    def __post_init__(self):
        if not isinstance(self.node_id, str) or not self.node_id:
            raise ParameterError("node_id must be a nonempty string")
        if self.node_id == BUYER_ID:
            raise ParameterError(_RESERVED)
        if (self.raw is None) == (self.embeddings is None):
            raise ParameterError("node needs exactly one of raw data or embeddings")


def node_seeds(request_seed: int, node_id: str) -> tuple:
    """Per-party (subset_seed, noise_seed). A seeded request's seed is mixed
    with the party's own id, so streams never collide; without one (secure
    mode) both seeds come from OS entropy."""
    if request_seed is None:
        return secure_seed(), secure_seed()
    return (
        derive_seed(request_seed, node_id, "subset"),
        derive_seed(request_seed, node_id, "noise"),
    )


def _party_summary(data, spec: EncoderSpec, clip_radius: float, rows=None,
                   sigma: float = None, noise_seed: int = None) -> GaussianSummary:
    """rows -> encode -> clip -> noise -> summarize, the one pipeline of
    every party. rows indexes the dataset (None: every row); a sigma of None
    adds no noise, any other goes to the mechanism, which refuses sigma <= 0."""
    prepared = clip_to_ball(_encoder(spec, data)(rows), clip_radius)
    if sigma is not None:
        prepared = apply_gaussian_mechanism(prepared, sigma, noise_seed)
    return summarize(prepared)


def seller_pipeline(data, spec: EncoderSpec, budget: PrivacyBudget,
                    subset_seed: int, noise_seed: int):
    """The party pipeline on a seeded uniform subset, always noised.

    Returns (GaussianSummary, NoiseCalibration).
    """
    rows = _subset_indices(data.count, budget.subset_size, subset_seed)
    calibration = calibrate_sigma(budget)
    return (_party_summary(data, spec, budget.clip_radius, rows, calibration.sigma, noise_seed),
            calibration)


def buyer_summary(data, spec: EncoderSpec, clip_radius: float,
                  noise_sigma: float = 0.0, noise_seed: int = None) -> GaussianSummary:
    """The party pipeline on the buyer's full dataset: noiseless by default,
    noised for ablation when noise_sigma > 0 (from OS entropy without a
    noise_seed). It is the left argument of W2: the public GaussianSummary of
    the pipeline's moments, so its covariance is clamped and factored by the
    constructor's one step.

    The noiseless summary is made once per dataset: it is kept on the
    dataset object, in one slot that is not a dataclass field, and returned
    again while the spec's fingerprint and the clip radius are the same. A
    noised summary is never kept, and a summary that raises keeps nothing."""
    if noise_sigma > 0.0:
        m = _party_summary(data, spec, clip_radius, None, noise_sigma,
                           secure_seed() if noise_seed is None else noise_seed)
        return GaussianSummary(m.mean, m.covariance, m.count)
    key = (spec.fingerprint(), _check_radius(clip_radius))
    kept = getattr(data, "_buyer_summary", None)
    if kept is not None and kept[0] == key:
        return kept[1]
    m = _party_summary(data, spec, clip_radius)
    summary = GaussianSummary(m.mean, m.covariance, m.count)
    # The dataset is frozen, and its arrays are read-only.
    object.__setattr__(data, "_buyer_summary", (key, summary))
    return summary


def _reply_too_wide(spec: EncoderSpec):
    """Why no STATS_RESPONSE for spec can be framed, or None."""
    if spec.latent_dim > _WIDEST_REPLY:
        return (f"latent_dim {spec.latent_dim} is above {_WIDEST_REPLY}, "
                "the widest reply a frame holds")
    return None


def _spec_problem(node: SellerNode, spec: EncoderSpec):
    """Why node does not serve spec, or None: its own rules, the reply's
    frame, then every party's."""
    if node.pinned_fingerprint is not None and spec.fingerprint() != node.pinned_fingerprint:
        return "encoder spec does not match the spec this node was started with"
    if node.embeddings is not None and spec.kind != "external":
        return "pre-encoded node serves only external encoder specs"
    too_wide = _reply_too_wide(spec)
    if too_wide is not None:
        return too_wide
    try:
        _encoder(spec, node.raw if node.raw is not None else node.embeddings)
    except (ParameterError, ShapeError) as exc:
        return str(exc)
    return None


# A seller acks HELLO and MODEL_SPEC with this one message and its one frame.
_ACK = Hello(PROTOCOL_VERSION)
_ACK_FRAME = encode_frame(_ACK)


class SellerSession:
    """Per-connection message handler. HELLO must come first and MODEL_SPEC
    before STATS_REQUEST; each incoming message gets exactly one reply."""

    def __init__(self, node: SellerNode):
        self.node = node
        self.ready = False
        self.spec = None
        self.last_session_id = ""

    def handle_bytes(self, frame: bytes) -> bytes:
        """The reply frame; a frame that cannot be decoded, or a reply too
        large to frame, is answered with an ERROR frame."""
        try:
            msg = decode_frame(frame)
            try:
                reply = self._dispatch(msg)
            except Exception as exc:  # a node must answer, never crash
                log.exception("node %s: unhandled failure", self.node.node_id)
                reply = ErrorMessage("INTERNAL", f"{type(exc).__name__}: {exc}",
                                     self.last_session_id)
            return _ACK_FRAME if reply is _ACK else encode_frame(reply)
        except FrameError as exc:
            return encode_frame(ErrorMessage(exc.code, exc.message, self.last_session_id))

    def _dispatch(self, msg) -> object:
        if isinstance(msg, Hello):
            if msg.protocol_version != PROTOCOL_VERSION:
                self.ready, self.spec = False, None  # as if it had sent no HELLO
                return ErrorMessage(
                    "VERSION_MISMATCH",
                    f"node speaks version {PROTOCOL_VERSION}, peer sent {msg.protocol_version}",
                    "",
                )
            self.ready = True
            return _ACK
        if not self.ready:
            return ErrorMessage("PROTOCOL_ORDER", "HELLO must precede any other message", "")
        if isinstance(msg, ModelSpec):
            problem = _spec_problem(self.node, msg.encoder)
            if problem is not None:
                self.spec = None
                return ErrorMessage("SPEC_MISMATCH", problem, "")
            self.spec = msg.encoder
            return _ACK
        if isinstance(msg, StatsRequest):
            return self._stats(msg)
        return ErrorMessage(
            "PROTOCOL_ORDER",
            f"{type(msg).__name__} is not a valid buyer-to-seller message",
            self.last_session_id,
        )

    def _stats(self, msg: StatsRequest) -> object:
        self.last_session_id = msg.session_id
        if self.spec is None:
            return ErrorMessage(
                "PROTOCOL_ORDER", "MODEL_SPEC must precede STATS_REQUEST", msg.session_id
            )
        try:
            budget = PrivacyBudget(msg.epsilon, msg.delta, msg.clip_radius, msg.subset_size)
        except ParameterError as exc:
            return ErrorMessage("INVALID_PARAMETER", str(exc), msg.session_id)
        subset_seed, noise_seed = node_seeds(msg.seed, self.node.node_id)
        data = self.node.raw if self.node.raw is not None else self.node.embeddings
        try:
            summary, calibration = seller_pipeline(data, self.spec, budget,
                                                   subset_seed, noise_seed)
        except NumericInputError as exc:
            # The spec fits: the budget's noise overflows this node's summary.
            return ErrorMessage("INVALID_PARAMETER", str(exc), msg.session_id)
        except InsufficientSamplesError as exc:
            return ErrorMessage("INSUFFICIENT_DATA", str(exc), msg.session_id)
        log.info("node %s served session %s", self.node.node_id, msg.session_id)
        # The mean is read-only already; the packed covariance is made here.
        return _trusted(StatsResponse, mean=summary.mean,
                        covariance=pack_covariance(summary.covariance), count=summary.count,
                        session_id=msg.session_id, sigma_used=calibration.sigma,
                        encoder_fingerprint=self.spec.fingerprint())


class _Channel:
    """Byte counts and the frame transcript, kept alike by both transports.

    send(*frames) sends requests without waiting; receive() returns the
    reply to the oldest request not yet answered. request is the two in one.
    """

    def __init__(self):
        self.bytes_sent = 0
        self.bytes_received = 0
        self.transcript = []

    def request(self, msg) -> object:
        """Send a message or its encoded frame; return the decoded reply."""
        self.send(msg)
        return self.receive()

    @staticmethod
    def _frame(msg) -> bytes:
        """msg's frame; msg is a message or a frame already encoded."""
        return msg if isinstance(msg, bytes) else encode_frame(msg)

    def _sent(self, frame: bytes) -> bytes:
        self.bytes_sent += len(frame)
        self.transcript.append(("send", frame))
        return frame

    def _received(self, frame: bytes) -> object:
        self.bytes_received += len(frame)
        self.transcript.append(("recv", frame))
        return decode_frame(frame)

    def close(self):
        pass


class InProcessChannel(_Channel):
    """Loopback transport: passes real frames through a local session, so
    byte counts and transcripts match the socket transport exactly. A sent
    frame waits in a queue; the session handles it when its reply is read."""

    def __init__(self, node: SellerNode):
        super().__init__()
        self.session = SellerSession(node)
        self._queued = collections.deque()

    # Each transport binds request itself: perfbench traces each class's own.
    request = _Channel.request

    def send(self, *msgs):
        """Queue messages or their encoded frames, in order."""
        self._queued.extend(self._sent(self._frame(msg)) for msg in msgs)

    def receive(self) -> object:
        """The decoded reply to the oldest queued frame."""
        return self._received(self.session.handle_bytes(self._queued.popleft()))


class SocketChannel(_Channel):
    """TCP transport speaking the same frames."""

    def __init__(self, host: str, port: int):
        super().__init__()
        self.sock = socket.create_connection((host, port), timeout=_READ_TIMEOUT_S)
        self._inbox = bytearray()

    request = _Channel.request

    def send(self, *msgs):
        """Write messages or their encoded frames with one sendall."""
        frames = [self._frame(msg) for msg in msgs]
        self.sock.sendall(b"".join(frames))
        for frame in frames:
            self._sent(frame)

    def receive(self) -> object:
        """Read and decode the next reply frame. A read takes up to 64 KiB, or
        the rest of the frame if more; the bytes past the frame wait in
        _inbox for the next call."""
        inbox = self._inbox
        while (end := _frame_end(inbox, 0, MAX_FRAME_BYTES)) is None or end > len(inbox):
            chunk = self.sock.recv(max((end or 0) - len(inbox), _MAX_REQUEST_BYTES))
            if not chunk:
                raise ProtocolFailure("CONNECTION_CLOSED", "peer closed mid-frame")
            inbox += chunk
        frame = bytes(inbox[:end])
        del inbox[:end]
        return self._received(frame)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class _Connection:
    """One accepted socket, its session and its two buffers. inbox holds the
    bytes read and not yet answered: less than one whole request frame
    whenever the server reads. outbox holds the reply bytes not yet sent."""

    __slots__ = ("sock", "peer", "session", "inbox", "outbox", "closing")

    def __init__(self, sock, peer, node: SellerNode):
        self.sock = sock
        self.peer = peer
        self.session = SellerSession(node)
        self.inbox = bytearray()
        self.outbox = memoryview(b"")
        # Set once nothing more is read: close when the outbox is sent.
        self.closing = False

    def answer(self) -> bool:
        """Move the replies to the complete frames in inbox to outbox, up to
        _MAX_REQUEST_BYTES of replies at a time, so a peer that pipelines
        many requests holds one batch of replies; False when none is due."""
        inbox, start, replies, size = self.inbox, 0, [], 0
        while size < _MAX_REQUEST_BYTES:
            try:
                end = _frame_end(inbox, start, _MAX_REQUEST_BYTES)
            except FrameError as exc:
                # The stream cannot be resynchronized past an oversized frame.
                replies.append(encode_frame(ErrorMessage(exc.code, exc.message, "")))
                self.closing = True
                start = len(inbox)
                break
            if end is None or end > len(inbox):
                break
            replies.append(self.session.handle_bytes(bytes(inbox[start:end])))
            size += len(replies[-1])
            start = end
        del inbox[:start]
        self.outbox = memoryview(b"".join(replies))
        return bool(replies)


class SellerServer:
    """Long-running seller endpoint: the thread that calls serve_forever
    serves every connection through one selector. Each connection has its
    own session; a malformed frame, a stalled peer or a reset connection
    ends at most that session, and the process stays up."""

    def __init__(self, address, node: SellerNode):
        self.node = node
        # Binding raises OSError here, before anything is served.
        self.socket = socket.create_server(address)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._waker, self._wake = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._waker, selectors.EVENT_READ)
        self._accepting = True
        # Each open connection and the monotonic time it was accepted or last
        # had frames answered, the longest idle first.
        self._connections = collections.OrderedDict()
        self._stopping = False
        self._stopped = threading.Event()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.server_close()

    def serve_forever(self):
        """Serve until shutdown() is called from another thread."""
        self._stopped.clear()
        try:
            while not self._stopping:
                for key, _ in self._selector.select(self._expire()):
                    if key.fileobj is self.socket:
                        self._accept()
                    elif key.fileobj is self._waker:
                        self._waker.recv(4096)
                    else:
                        self._serve_connection(key)
        finally:
            self._stopping = False
            self._stopped.set()

    def shutdown(self):
        """Make serve_forever return and wait until it has; serve_forever
        must be running, or about to run, in another thread."""
        self._stopping = True
        try:
            self._wake.send(b"\0")
        except OSError:  # a full buffer already holds a wake-up
            pass
        self._stopped.wait()

    def server_close(self):
        """Close every connection and the listening socket."""
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        self.socket.close()
        self._waker.close()
        self._wake.close()

    def _expire(self):
        """Close the connections idle for _IDLE_TIMEOUT_S; the seconds until
        the next one would be, or None when none is open."""
        now = time.monotonic()
        while self._connections:
            conn, since = next(iter(self._connections.items()))
            if since + _IDLE_TIMEOUT_S > now:
                return since + _IDLE_TIMEOUT_S - now
            log.info("node %s: closing %s, idle for %.0f s", self.node.node_id, conn.peer,
                     now - since)
            self._close(conn)
        return None

    def _accept(self):
        try:
            sock, peer = self.socket.accept()
        except OSError:  # the peer went away before it was accepted
            return
        sock.setblocking(False)
        conn = _Connection(sock, peer, self.node)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._connections[conn] = time.monotonic()
        if len(self._connections) >= _MAX_CONNECTIONS:
            self._selector.unregister(self.socket)
            self._accepting = False

    def _serve_connection(self, key):
        conn = key.data
        try:
            # Registered to read only while nothing waits to be sent, and a
            # hang-up is reported as readable and writable alike.
            if key.events == selectors.EVENT_READ:
                data = conn.sock.recv(_HEADER.size + _MAX_REQUEST_BYTES - len(conn.inbox))
                conn.inbox += data
                conn.closing = not data
            # The replies to all frames one read delivered leave in one send,
            # and answering frames restarts the connection's clock.
            while True:
                if not conn.outbox:
                    if not conn.answer():
                        break
                    self._connections[conn] = time.monotonic()
                    self._connections.move_to_end(conn)
                sent = conn.sock.send(conn.outbox)
                conn.outbox = conn.outbox[sent:]
                if conn.outbox:
                    break
        except BlockingIOError:  # the socket takes no more for now
            pass
        except OSError:
            # A closed or reset connection ends the session. A buyer resets
            # it when it closes with pipelined replies unread.
            self._close(conn)
            return
        except Exception:  # one broken session must not stop the server
            log.exception("node %s: connection %s failed", self.node.node_id, conn.peer)
            self._close(conn)
            return
        if conn.outbox:
            # A peer that does not read holds its replies here, not the loop.
            wanted = selectors.EVENT_WRITE
        elif conn.closing:
            self._close(conn)
            return
        else:
            wanted = selectors.EVENT_READ
        if key.events != wanted:
            self._selector.modify(conn.sock, wanted, conn)

    def _close(self, conn):
        del self._connections[conn]
        self._selector.unregister(conn.sock)
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        conn.sock.close()
        if not self._accepting and len(self._connections) < _MAX_CONNECTIONS:
            self._selector.register(self.socket, selectors.EVENT_READ)
            self._accepting = True


@dataclass
class SellerOutcome:
    """Per-seller result of one valuation round."""

    node_id: str
    summary: GaussianSummary = None
    failure: str = None
    bytes_sent: int = 0
    bytes_received: int = 0

    @property
    def failed(self) -> bool:
        return self.summary is None


def in_process_endpoints(nodes) -> list:
    return [(node.node_id, (lambda n=node: InProcessChannel(n))) for node in nodes]


def socket_endpoints(addresses) -> list:
    """addresses: iterable of (node_id, host, port)."""
    return [
        (node_id, (lambda h=host, p=port: SocketChannel(h, p)))
        for node_id, host, port in addresses
    ]


# Sellers asked before any of them is read from. This keeps a round's open
# sockets well under the common soft limit of 1024 file descriptors.
_IN_FLIGHT = 64
# The decoded replies, d + d^2 float64s each, that wait to be checked together
# (gaussian_geometry._checked_window): as many as fit in this many bytes, and
# at least one: 64 up to d = 15, 15 at d = 32, 3 at d = 64, and one reply
# from d = 91 on. A stack that outgrows the cache costs more than the solves
# it saves: checking and scoring a reply took 4-5 % longer in windows of 32
# and 64 than alone at d = 48, and 15 % longer in windows of 7 at d = 128
# (a Xeon with 2 MiB of L2 a core, one BLAS thread).
_WINDOW_BYTES = 128 * 1024

# The reply each of the buyer's three requests expects, in order.
_REPLIES = ((Hello, "HELLO"), (Hello, "MODEL_SPEC ack"), (StatsResponse, "STATS_RESPONSE"))


def _ask(node_id: str, connect, frames: tuple) -> tuple:
    """Connect to one seller and send it the round's three encoded requests
    without waiting for a reply. Returns (outcome, channel); channel is None
    when connecting failed, and a failure is recorded in the outcome."""
    outcome = SellerOutcome(node_id=node_id)
    channel = None
    try:
        channel = connect()
        channel.send(*frames)
    except (OSError, PriartaError) as exc:
        outcome.failure = f"{type(exc).__name__}: {exc}"
    return outcome, channel


def _collect(outcome: SellerOutcome, channel, spec: EncoderSpec, request, sigma: float):
    """Read an asked seller's replies in order, stopping at the first ERROR
    or unexpected reply. Returns its STATS_RESPONSE's (mean, covariance,
    count), the covariance expanded, for the buyer to check; else None, and
    its failure is recorded."""
    try:
        for expected, name in _REPLIES:
            reply = channel.receive()
            if isinstance(reply, ErrorMessage):
                outcome.failure = f"{reply.code}: {reply.message}"
                return None
            if not isinstance(reply, expected):
                outcome.failure = f"expected {name}, got {type(reply).__name__}"
                return None
        if reply.session_id != request.session_id:
            outcome.failure = f"session id mismatch: {reply.session_id!r}"
        elif reply.count != request.subset_size:
            outcome.failure = (
                f"count contract violated: response count {reply.count}, "
                f"requested {request.subset_size}"
            )
        elif reply.encoder_fingerprint != spec.fingerprint():
            outcome.failure = "encoder fingerprint mismatch"
        elif len(reply.mean) != spec.latent_dim:
            outcome.failure = f"mean has {len(reply.mean)} entries, latent_dim is {spec.latent_dim}"
        # Both parties calibrate sigma from the same four floats.
        elif not math.isclose(reply.sigma_used, sigma, rel_tol=1e-9):
            outcome.failure = f"sigma_used {reply.sigma_used!r} is not the budget's {sigma!r}"
        else:
            # Decoding rejected non-finite entries and the expanded covariance
            # is exactly symmetric: only its range and PSD check are left.
            return reply.mean, expand_covariance(reply.covariance, len(reply.mean)), reply.count
    except (OSError, PriartaError) as exc:
        outcome.failure = f"{type(exc).__name__}: {exc}"
    return None


def _close(outcome: SellerOutcome, channel):
    """Close an asked seller's channel, if it opened, and record its byte counts."""
    if channel is not None:
        channel.close()
        outcome.bytes_sent = channel.bytes_sent
        outcome.bytes_received = channel.bytes_received


def orchestrate_valuation(buyer_data, sellers, spec: EncoderSpec, budget: PrivacyBudget,
                          master_seed: int = None, noisy_buyer: bool = False):
    """Query every seller endpoint and compute the buyer's own summary.

    Up to 64 sellers at a time are sent their three requests before any of
    their replies is read, so network sellers compute while the buyer builds
    its own summary (once, after the first sellers are asked) and while the
    buyer reads earlier replies.

    buyer_data: a dataset, or a function of no arguments that returns one.
    sellers: list of (node_id, connect) with connect() -> channel. Returns
    (buyer GaussianSummary, [SellerOutcome] sorted by node_id); a seller
    failure is recorded, not raised, as long as the others can still answer.
    An error from the buyer's own data closes every open channel and
    propagates.
    """
    buyer, outcomes = _round(buyer_data, sellers, spec, budget, master_seed, noisy_buyer,
                             lambda _, __, outcome: outcome)
    return buyer, sorted(outcomes, key=lambda o: o.node_id)


def _round(buyer_data, sellers, spec, budget, master_seed, noisy_buyer, keep) -> tuple:
    """The round loop: (buyer, [keep(buyer, sigma, outcome) for each seller,
    in the order asked, once its window of replies is checked]). An error
    from keep closes every open channel too."""
    if not sellers:
        raise ParameterError("at least one seller endpoint is required")
    ids = collections.Counter(node_id for node_id, _ in sellers)
    if BUYER_ID in ids:
        raise ParameterError(_RESERVED)
    repeated = [node_id for node_id, n in ids.items() if n > 1]
    if repeated:
        raise ParameterError(f"duplicate seller node id {repeated[0]!r}")
    require_bool(noisy_buyer, "noisy_buyer")
    if master_seed is not None:
        seed = derive_seed(master_seed, BUYER_ID, "stats-request")
        session_id = f"sess-{derive_seed(master_seed, BUYER_ID, 'session'):016x}"
        mode = MODE_SEEDED
    else:
        session_id = f"sess-{secrets.token_hex(8)}"
        mode, seed = MODE_SECURE, None
    request = StatsRequest(**asdict(budget), session_id=session_id, mode=mode, seed=seed)
    frames = tuple(encode_frame(msg)
                   for msg in (Hello(PROTOCOL_VERSION), ModelSpec(spec), request))
    too_wide = _reply_too_wide(spec)
    if too_wide is not None:
        raise ParameterError(too_wide)
    sigma = calibrate_sigma(budget).sigma
    noise_seed = node_seeds(seed, BUYER_ID)[1] if noisy_buyer else None
    size = max(1, _WINDOW_BYTES // (8 * spec.latent_dim * (spec.latent_dim + 1)))

    buyer = None
    kept = []
    for start in range(0, len(sellers), _IN_FLIGHT):
        asked = collections.deque()
        try:
            for node_id, connect in sellers[start:start + _IN_FLIGHT]:
                asked.append(_ask(node_id, connect, frames))
            if buyer is None:
                data = buyer_data() if callable(buyer_data) else buyer_data
                buyer = buyer_summary(data, spec, budget.clip_radius,
                                      sigma if noisy_buyer else 0.0, noise_seed)
            while asked:
                # Each channel, and the frames its transcript holds, goes as
                # soon as its replies are read. A window of decoded replies
                # is checked in one call, and each outcome goes once kept.
                window = []
                while asked and len(window) < size:
                    outcome, channel = asked[0]
                    reply = None
                    if outcome.failure is None:
                        reply = _collect(outcome, channel, spec, request, sigma)
                    _close(outcome, channel)
                    asked.popleft()
                    window.append((outcome, reply))
                checked = iter(_checked_window(buyer, [r for _, r in window if r is not None]))
                for outcome, reply in window:
                    if reply is not None:
                        summary = next(checked)
                        if isinstance(summary, GaussianSummary):
                            outcome.summary = summary
                        else:
                            outcome.failure = f"{type(summary).__name__}: {summary}"
                    kept.append(keep(buyer, sigma, outcome))
        finally:
            for outcome, channel in asked:
                _close(outcome, channel)
    return buyer, kept
