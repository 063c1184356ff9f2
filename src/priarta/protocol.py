"""Buyer/seller exchange: the buyer shares the encoder spec and sampling
parameters, each seller samples a uniform subset, encodes, clips, noises,
summarizes, and returns (mean, covariance, count).

Frames are a 4-byte big-endian payload length followed by canonical JSON
(keys sorted, compact separators). The payload is an object whose "type" tag
names the message class and whose other keys are exactly that class's
dataclass fields; an optional field (one with a default) is left out while
unset and is never sent as null. Float arrays (the STATS_RESPONSE mean and
covariance) travel as base64 strings of little-endian IEEE-754 float64.
The exchange is strict lockstep: every message the buyer sends gets exactly
one reply. MODEL_SPEC is acknowledged with HELLO so transcripts stay
deterministic and byte-countable.
"""

import base64
from dataclasses import MISSING, dataclass, fields
import functools
import json
import logging
import secrets
import socket
import socketserver
import struct

import numpy as np

from .encoder import EncoderSpec, RawDataset, encode
from .errors import (
    FrameError,
    InsufficientSamplesError,
    NumericInputError,
    ParameterError,
    PriartaError,
    ProtocolFailure,
    ShapeError,
    require_float,
    require_int,
    require_str,
)
from .gaussian_geometry import GaussianSummary
from .privacy import (
    PrivacyBudget,
    apply_gaussian_mechanism,
    calibrate_sigma,
    derive_seed,
    secure_seed,
)
from .stats import EmbeddingSet, clip_to_ball, summarize

__all__ = [
    "MAX_FRAME_BYTES", "PROTOCOL_VERSION", "ErrorMessage", "Hello",
    "InProcessChannel", "ModelSpec", "SellerNode", "SellerOutcome",
    "SellerServer", "SellerSession", "SocketChannel", "StatsRequest",
    "StatsResponse", "buyer_summary", "decode_frame", "encode_frame",
    "expand_covariance", "in_process_endpoints", "node_seeds",
    "orchestrate_valuation", "pack_covariance", "sample_subset",
    "seller_pipeline", "socket_endpoints",
]

log = logging.getLogger("priarta.protocol")

PROTOCOL_VERSION = 2
MAX_FRAME_BYTES = 64 * 1024 * 1024
# A seller reads requests, all well under 1 KB, against this much smaller cap.
_MAX_REQUEST_BYTES = 64 * 1024
_HEADER = struct.Struct(">I")

MODE_SECURE = "secure"
MODE_SEEDED = "seeded"


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

    def __eq__(self, other):
        # The generated __eq__ would take the truth value of an array comparison.
        if type(other) is not StatsResponse:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


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


def _float64_to_wire(values: np.ndarray) -> str:
    """A float64 vector as base64 of its little-endian IEEE-754 bytes."""
    return base64.b64encode(values.astype("<f8", copy=False).tobytes()).decode("ascii")


def _float64_from_wire(text) -> np.ndarray:
    """Inverse of _float64_to_wire, read-only over the decoded bytes. The
    entry count and finiteness are left to the message constructor."""
    if not isinstance(text, str):
        raise ParameterError("a float64 array must travel as a base64 string")
    raw = base64.b64decode(text, validate=True)  # binascii.Error is a ValueError
    if len(raw) % 8:
        raise ParameterError(f"{len(raw)} base64-decoded bytes are not whole float64 values")
    # The decoder ignores the unused bits of the character before "=" padding;
    # re-encoding the bytes of the last, padded quantum requires them zero.
    tail = len(raw) % 3
    if tail and base64.b64encode(raw[-tail:]).decode("ascii") != text[-4:]:
        raise ParameterError("base64 padding leaves nonzero unused bits")
    return np.frombuffer(raw, dtype="<f8")


# (to wire, from wire) per field type; a field of any other type travels as is.
_CODECS = {
    EncoderSpec: (EncoderSpec.to_dict, EncoderSpec.from_dict),
    np.ndarray: (_float64_to_wire, _float64_from_wire),
}


@functools.cache
def _wire_fields(cls) -> tuple:
    """(name, optional, codec) per field of a message class. A field with a
    default is optional; codec is the field type's _CODECS entry or None."""
    return tuple((f.name, f.default is not MISSING, _CODECS.get(f.type)) for f in fields(cls))


def _encode_message(msg) -> dict:
    tag = _TAGS.get(type(msg))
    if tag is None:
        raise ParameterError(f"not a protocol message: {type(msg).__name__}")
    out = {"type": tag}
    for name, optional, codec in _wire_fields(type(msg)):
        value = getattr(msg, name)
        if optional and value is None:
            continue
        out[name] = codec[0](value) if codec else value
    return out


def _decode_message(obj) -> object:
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
        for name, optional, codec in _wire_fields(cls):
            if name not in body:
                continue
            if optional and body[name] is None:
                raise ParameterError(f"optional field {name} is omitted, never null")
            if codec:
                body[name] = codec[1](body[name])
        # The constructor rejects missing and unknown fields with TypeError.
        return cls(**body)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FrameError("BAD_PAYLOAD", f"{tag}: {exc}") from exc


def encode_frame(msg) -> bytes:
    payload = json.dumps(
        _encode_message(msg), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError("FRAME_TOO_LARGE", f"payload of {len(payload)} bytes exceeds 64 MiB")
    return _HEADER.pack(len(payload)) + payload


def _declared_length(header, limit: int) -> int:
    (length,) = _HEADER.unpack_from(header)
    if length > limit:
        raise FrameError("FRAME_TOO_LARGE", f"declared payload of {length} bytes exceeds {limit}")
    return length


def decode_frame(data) -> object:
    """Decode exactly one frame. Malformed input raises FrameError, never
    anything else."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise FrameError("BAD_PAYLOAD", "frame must be bytes")
    data = bytes(data)
    if len(data) < _HEADER.size:
        raise FrameError("FRAME_TRUNCATED", f"got {len(data)} bytes, need a 4-byte header")
    length = _declared_length(data, MAX_FRAME_BYTES)
    body = len(data) - _HEADER.size
    if body < length:
        raise FrameError("FRAME_TRUNCATED", f"header declares {length} bytes, got {body}")
    if body > length:
        raise FrameError("FRAME_TRAILING", f"{body - length} bytes past the declared payload")
    try:
        obj = json.loads(data[_HEADER.size:].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FrameError("BAD_PAYLOAD", f"payload is not canonical JSON: {exc}") from exc
    return _decode_message(obj)


def _read_frame(sock, limit: int) -> bytes:
    """Read one whole frame, header included, from a stream socket; a declared
    payload over limit bytes raises FrameError before any of it is read."""
    frame = bytearray()
    size = _HEADER.size
    while len(frame) < size:
        chunk = sock.recv(size - len(frame))
        if not chunk:
            raise ProtocolFailure("CONNECTION_CLOSED", "peer closed mid-frame")
        frame += chunk
        if size == _HEADER.size and len(frame) == size:
            size += _declared_length(frame, limit)
    return bytes(frame)


# At small d np.triu_indices outweighs the packing; the cached arrays are only read.
_triu_indices = functools.lru_cache(maxsize=8)(np.triu_indices)


def pack_covariance(cov) -> np.ndarray:
    """Upper triangle, row-major, d(d+1)/2 floats."""
    cov = np.asarray(cov, dtype=float)
    return cov[_triu_indices(cov.shape[0])]


def expand_covariance(values, dim: int) -> np.ndarray:
    """Inverse of pack_covariance; both mirror entries get the same float."""
    values = np.asarray(values, dtype=float)
    if values.shape != (dim * (dim + 1) // 2,):
        raise ShapeError(f"{values.size} triangular entries do not fill a {dim}x{dim} matrix")
    rows, cols = _triu_indices(dim)
    out = np.empty((dim, dim))
    out[rows, cols] = values
    out[cols, rows] = values
    return out


def _subset_indices(count: int, m_tilde: int, seed: int) -> np.ndarray:
    require_int(m_tilde, "subset size", 1)
    if m_tilde > count:
        raise InsufficientSamplesError(
            f"subset of {m_tilde} requested from {count} available rows"
        )
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    return rng.choice(count, size=m_tilde, replace=False)


def sample_subset(data: RawDataset, m_tilde: int, seed: int) -> RawDataset:
    """Uniform sample of m_tilde rows without replacement, labels carried."""
    idx = _subset_indices(data.count, m_tilde, seed)
    return RawDataset(data.points[idx], data.labels[idx], data.class_probs)


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
        if (self.raw is None) == (self.embeddings is None):
            raise ParameterError("node needs exactly one of raw data or embeddings")

    @property
    def count(self) -> int:
        return self.raw.count if self.raw is not None else self.embeddings.count


def stats_request_seed(master_seed: int) -> int:
    """The seed a seeded round's STATS_REQUEST carries."""
    return derive_seed(master_seed, "buyer", "stats-request")


def node_seeds(request_seed: int, node_id: str) -> tuple:
    """Per-node (subset_seed, noise_seed) for a seeded request: every seller
    mixes its own id into the buyer's seed, so streams never collide."""
    return (
        derive_seed(request_seed, node_id, "subset"),
        derive_seed(request_seed, node_id, "noise"),
    )


def seller_pipeline(data, spec: EncoderSpec, budget: PrivacyBudget,
                    subset_seed: int, noise_seed: int):
    """sample -> encode -> clip -> calibrate -> noise -> summarize.

    Returns (GaussianSummary, NoiseCalibration). The single code path behind
    both the protocol handler and the robustness harness.
    """
    if isinstance(data, RawDataset):
        subset = sample_subset(data, budget.subset_size, subset_seed)
        vectors = encode(spec, subset)
    else:
        idx = _subset_indices(data.count, budget.subset_size, subset_seed)
        vectors = data.vectors[idx]
    clipped = clip_to_ball(vectors, budget.clip_radius)
    calibration = calibrate_sigma(budget)
    noisy = apply_gaussian_mechanism(clipped, calibration.sigma, noise_seed)
    return summarize(noisy), calibration


def buyer_summary(data, spec: EncoderSpec, clip_radius: float,
                  noise_sigma: float = 0.0, noise_seed: int = None) -> GaussianSummary:
    """The buyer's own summary over its full dataset: noiseless by default,
    with optional symmetric noising for ablation."""
    if isinstance(data, RawDataset):
        vectors = encode(spec, data)
    else:
        vectors = data.vectors
    prepared = clip_to_ball(vectors, clip_radius)
    if noise_sigma > 0.0:
        seed = noise_seed if noise_seed is not None else secure_seed()
        prepared = apply_gaussian_mechanism(prepared, noise_sigma, seed)
    return summarize(prepared)


def _spec_problem(node: SellerNode, spec: EncoderSpec):
    if node.pinned_fingerprint is not None and spec.fingerprint() != node.pinned_fingerprint:
        return "encoder spec does not match the spec this node was started with"
    if node.raw is not None:
        if spec.kind != "toy_projection":
            return f"raw-data node cannot serve encoder kind {spec.kind!r}"
        if spec.input_dim != node.raw.dim:
            return (
                f"spec expects {spec.input_dim}-dimensional input, "
                f"node data has {node.raw.dim}"
            )
    else:
        if spec.kind != "external":
            return "pre-encoded node serves only external encoder specs"
        if spec.latent_dim != node.embeddings.dim:
            return (
                f"spec declares latent_dim {spec.latent_dim}, "
                f"node embeddings have {node.embeddings.dim}"
            )
    return None


class SellerSession:
    """Per-connection message handler. HELLO must come first and MODEL_SPEC
    before STATS_REQUEST; each incoming message gets exactly one reply."""

    def __init__(self, node: SellerNode):
        self.node = node
        self.ready = False
        self.spec = None
        self.last_session_id = ""

    def handle_bytes(self, frame: bytes) -> bytes:
        try:
            msg = decode_frame(frame)
        except FrameError as exc:
            return encode_frame(ErrorMessage(exc.code, exc.args[0], self.last_session_id))
        return encode_frame(self.handle_request(msg))

    def handle_request(self, msg) -> object:
        try:
            return self._dispatch(msg)
        except Exception as exc:  # a node must answer, never crash
            log.exception("node %s: unhandled failure", self.node.node_id)
            return ErrorMessage(
                "INTERNAL", f"{type(exc).__name__}: {exc}", self.last_session_id
            )

    def _dispatch(self, msg) -> object:
        if isinstance(msg, Hello):
            if msg.protocol_version != PROTOCOL_VERSION:
                return ErrorMessage(
                    "VERSION_MISMATCH",
                    f"node speaks version {PROTOCOL_VERSION}, peer sent {msg.protocol_version}",
                    "",
                )
            self.ready = True
            return Hello(PROTOCOL_VERSION)
        if not self.ready:
            return ErrorMessage("PROTOCOL_ORDER", "HELLO must precede any other message", "")
        if isinstance(msg, ModelSpec):
            problem = _spec_problem(self.node, msg.encoder)
            if problem is not None:
                return ErrorMessage("SPEC_MISMATCH", problem, "")
            self.spec = msg.encoder
            return Hello(PROTOCOL_VERSION)
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
        if msg.subset_size > self.node.count:
            return ErrorMessage(
                "INSUFFICIENT_DATA",
                f"subset of {msg.subset_size} requested, node holds {self.node.count} rows",
                msg.session_id,
            )
        if msg.mode == MODE_SEEDED:
            subset_seed, noise_seed = node_seeds(msg.seed, self.node.node_id)
        else:
            subset_seed, noise_seed = secure_seed(), secure_seed()
        data = self.node.raw if self.node.raw is not None else self.node.embeddings
        try:
            summary, calibration = seller_pipeline(data, self.spec, budget,
                                                   subset_seed, noise_seed)
        except (ShapeError, NumericInputError, ParameterError) as exc:
            return ErrorMessage("SPEC_MISMATCH", str(exc), msg.session_id)
        log.info("node %s served session %s", self.node.node_id, msg.session_id)
        return StatsResponse(
            mean=summary.mean,
            covariance=pack_covariance(summary.covariance),
            count=summary.count,
            session_id=msg.session_id,
            sigma_used=calibration.sigma,
            encoder_fingerprint=self.spec.fingerprint(),
        )


class _Channel:
    """Byte counts and the frame transcript, kept alike by both transports."""

    def __init__(self):
        self.bytes_sent = 0
        self.bytes_received = 0
        self.transcript = []

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
    byte counts and transcripts match the socket transport exactly."""

    def __init__(self, node: SellerNode):
        super().__init__()
        self.session = SellerSession(node)

    def request(self, msg) -> object:
        frame = self._sent(encode_frame(msg))
        return self._received(self.session.handle_bytes(frame))


class SocketChannel(_Channel):
    """TCP transport speaking the same frames."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        super().__init__()
        self.sock = socket.create_connection((host, port), timeout=timeout)

    def request(self, msg) -> object:
        frame = encode_frame(msg)
        self.sock.sendall(frame)
        self._sent(frame)
        return self._received(_read_frame(self.sock, MAX_FRAME_BYTES))

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class _SellerHandler(socketserver.BaseRequestHandler):
    def handle(self):
        session = SellerSession(self.server.node)
        while True:
            try:
                frame = _read_frame(self.request, _MAX_REQUEST_BYTES)
            except ProtocolFailure:
                return
            except FrameError as exc:
                # The stream cannot be resynchronized past an oversized frame.
                self.request.sendall(encode_frame(ErrorMessage(exc.code, exc.args[0], "")))
                return
            try:
                self.request.sendall(session.handle_bytes(frame))
            except OSError:
                return


class SellerServer(socketserver.ThreadingTCPServer):
    """Long-running seller endpoint; one session per connection, sessions
    isolated, process stays up across malformed frames."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, node: SellerNode):
        self.node = node
        super().__init__(address, _SellerHandler)

    def handle_error(self, request, client_address):
        log.exception("node %s: connection %s failed", self.node.node_id, client_address)


@dataclass
class SellerOutcome:
    """Per-seller result of one valuation round."""

    node_id: str
    summary: GaussianSummary = None
    sigma_used: float = None
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


def _query_seller(node_id: str, connect, spec: EncoderSpec, request: StatsRequest) -> SellerOutcome:
    outcome = SellerOutcome(node_id=node_id)
    channel = None
    try:
        channel = connect()
        exchange = ((Hello(PROTOCOL_VERSION), Hello, "HELLO"),
                    (ModelSpec(spec), Hello, "MODEL_SPEC ack"),
                    (request, StatsResponse, "STATS_RESPONSE"))
        for msg, expected, name in exchange:
            reply = channel.request(msg)
            if isinstance(reply, ErrorMessage):
                outcome.failure = f"{reply.code}: {reply.message}"
                return outcome
            if not isinstance(reply, expected):
                outcome.failure = f"expected {name}, got {type(reply).__name__}"
                return outcome
        if reply.session_id != request.session_id:
            outcome.failure = f"session id mismatch: {reply.session_id!r}"
            return outcome
        if reply.count != request.subset_size:
            outcome.failure = (
                f"count contract violated: response count {reply.count}, "
                f"requested {request.subset_size}"
            )
            return outcome
        if reply.encoder_fingerprint != spec.fingerprint():
            outcome.failure = "encoder fingerprint mismatch"
            return outcome
        if len(reply.mean) != spec.latent_dim:
            outcome.failure = f"mean has {len(reply.mean)} entries, latent_dim is {spec.latent_dim}"
            return outcome
        if reply.sigma_used < 0:
            outcome.failure = f"negative sigma_used {reply.sigma_used!r}"
            return outcome
        outcome.summary = GaussianSummary(
            reply.mean,
            expand_covariance(reply.covariance, len(reply.mean)),
            reply.count,
        )
        outcome.sigma_used = reply.sigma_used
    except (OSError, PriartaError) as exc:
        outcome.failure = f"{type(exc).__name__}: {exc}"
    finally:
        if channel is not None:
            channel.close()
            outcome.bytes_sent = channel.bytes_sent
            outcome.bytes_received = channel.bytes_received
    return outcome


def orchestrate_valuation(buyer_data, sellers, spec: EncoderSpec, budget: PrivacyBudget,
                          master_seed: int = None, noisy_buyer: bool = False):
    """Query every seller endpoint, one after another, and compute the
    buyer's own summary.

    sellers: list of (node_id, connect) with connect() -> channel. Returns
    (buyer GaussianSummary, [SellerOutcome] sorted by node_id); a seller
    failure is recorded, not raised, as long as the others can still answer.
    """
    if not sellers:
        raise ParameterError("at least one seller endpoint is required")
    if master_seed is not None:
        seed = stats_request_seed(master_seed)
        session_id = f"sess-{derive_seed(master_seed, 'buyer', 'session'):016x}"
        mode = MODE_SEEDED
    else:
        session_id = f"sess-{secrets.token_hex(8)}"
        mode, seed = MODE_SECURE, None
    request = StatsRequest(
        subset_size=budget.subset_size,
        epsilon=budget.epsilon,
        delta=budget.delta,
        clip_radius=budget.clip_radius,
        session_id=session_id,
        mode=mode,
        seed=seed,
    )
    outcomes = [_query_seller(node_id, connect, spec, request) for node_id, connect in sellers]
    outcomes.sort(key=lambda o: o.node_id)

    noise_sigma = 0.0
    noise_seed = None
    if noisy_buyer:
        noise_sigma = calibrate_sigma(budget).sigma
        if master_seed is not None:
            noise_seed = derive_seed(seed, "buyer", "noise")
    buyer = buyer_summary(buyer_data, spec, budget.clip_radius, noise_sigma, noise_seed)
    return buyer, outcomes
