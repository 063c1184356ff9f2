"""Properties of the frame codec, over any message and any bytes, of frame
splitting, over any chunking of a byte stream, and of the seller session,
over any sequence of requests.

A decoded message is compared with the one encoded field by field, each
float by float.hex, so -0.0 and 0.0 differ. The frames are built here from
their layout (a 4-byte big-endian length, then the payload), and the
seller's replies to whole frames come from SellerSession.handle_bytes, so
each splitting property checks a buffer against the frames it was fed, not
against the splitter's own arithmetic.
"""

import dataclasses
import json
import struct
import sys
import warnings

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule
import numpy as np
import pytest

from priarta import (
    PROTOCOL_VERSION,
    EncoderSpec,
    ErrorMessage,
    FrameError,
    Hello,
    ModelSpec,
    SellerNode,
    SellerSession,
    StatsRequest,
    StatsResponse,
    decode_frame,
    encode_frame,
    gen_mixture_dataset,
)
from priarta.protocol import (
    _MAX_REQUEST_BYTES,
    _MESSAGES,
    MODE_SECURE,
    MODE_SEEDED,
    _Connection,
    _frame_end,
)

# Reproducible and quick: the same examples on every run, none stored.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def chunked(data: bytes, cuts) -> list:
    """data split at the given offsets."""
    bounds = [0, *sorted(set(cut % (len(data) + 1) for cut in cuts)), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def split(chunks, limit: int) -> tuple:
    """(frames, rest): the whole frames _frame_end finds as chunks arrive,
    and the bytes left past the last of them."""
    buffer, start, frames = bytearray(), 0, []
    for chunk in chunks:
        buffer += chunk
        end = _frame_end(buffer, start, limit)
        while end is not None and end <= len(buffer):
            frames.append(bytes(buffer[start:end]))
            start = end
            end = _frame_end(buffer, start, limit)
    return frames, bytes(buffer[start:])


# ------------------------------------------------------------------- codec

# Any finite float, and the edges of the float64 range named once more.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308,
         sys.float_info.max, -sys.float_info.max]
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
INTS = st.integers(0, 2**64)


def float_array(size: int):
    return arrays(np.float64, size, elements=FLOATS)


@st.composite
def encoder_specs(draw):
    input_dim = draw(st.integers(1, 10**6))
    signal_dims = draw(st.integers(1, input_dim))
    return EncoderSpec(draw(st.sampled_from(["toy_projection", "external"])), draw(INTS),
                       input_dim, draw(st.integers(1, signal_dims)), signal_dims,
                       draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]),
                                      st.floats(0.0, 1.0))))


@st.composite
def stats_requests(draw):
    seeded = draw(st.booleans())
    return StatsRequest(draw(st.integers(1, 2**64)), draw(FLOATS), draw(FLOATS), draw(FLOATS),
                        draw(st.text()), MODE_SEEDED if seeded else MODE_SECURE,
                        draw(INTS) if seeded else None)


@st.composite
def stats_responses(draw):
    d = draw(st.sampled_from([1, 64]) | st.integers(2, 63))
    return StatsResponse(draw(float_array(d)), draw(float_array(d * (d + 1) // 2)),
                         draw(st.integers(1, 2**64)), draw(st.text()), draw(FLOATS),
                         draw(st.text()))


MESSAGES = {
    "HELLO": st.builds(Hello, st.integers(1, 2**64)),
    "MODEL_SPEC": st.builds(ModelSpec, encoder_specs()),
    "STATS_REQUEST": stats_requests(),
    "STATS_RESPONSE": stats_responses(),
    "ERROR": st.builds(ErrorMessage, st.text(min_size=1), st.text(), st.text()),
}
ANY_MESSAGE = st.one_of(*MESSAGES.values())


def hexed(value):
    """value with each float as its float.hex, field by field."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return [float.hex(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value):
        return type(value), {f.name: hexed(getattr(value, f.name))
                             for f in dataclasses.fields(value)}
    return value


@pytest.mark.parametrize("tag", sorted(MESSAGES))
@PROPERTY
@given(data=st.data())
def test_every_message_decodes_to_itself_bit_for_bit(tag, data):
    msg = data.draw(MESSAGES[tag])
    assert hexed(decode_frame(encode_frame(msg))) == hexed(msg)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
FIELD_NAMES = sorted({f.name for cls in _MESSAGES.values() for f in dataclasses.fields(cls)})
# A payload with a message tag and field names, the values any JSON.
TAGGED = st.builds(
    lambda tag, body, tail: json.dumps({**body, "type": tag}).encode() + tail,
    st.sampled_from(sorted(_MESSAGES)),
    st.dictionaries(st.sampled_from(FIELD_NAMES), JSON, max_size=8),
    st.just(b"") | st.binary(max_size=64).map(lambda tail: b"\n" + tail),
)


@st.composite
def damaged_frames(draw):
    """A message's frame cut short, or with one byte replaced or inserted."""
    data = bytearray(encode_frame(draw(ANY_MESSAGE)))
    at = draw(st.integers(0, len(data) - 1))
    how = draw(st.sampled_from(["cut", "replace", "insert"]))
    if how == "cut":
        del data[at:]
    elif how == "replace":
        data[at] = draw(st.integers(0, 255))
    else:
        data.insert(at, draw(st.integers(0, 255)))
    return bytes(data)


@PROPERTY
@given(st.one_of(st.binary(max_size=64), st.binary(max_size=200).map(frame),
                 JSON.map(lambda value: frame(json.dumps(value).encode())),
                 TAGGED.map(frame), damaged_frames()))
def test_any_bytes_decode_to_a_message_or_raise_frame_error(data):
    try:
        msg = decode_frame(data)
    except FrameError:
        return
    assert type(msg) in _MESSAGES.values()


# --------------------------------------------------------------- splitting


@PROPERTY
@given(st.lists(st.binary(max_size=300), max_size=8), st.lists(st.integers(0, 10**6)))
def test_any_chunking_of_frames_splits_back_into_the_frames(payloads, cuts):
    frames = [frame(payload) for payload in payloads]
    assert split(chunked(b"".join(frames), cuts), 300) == (frames, b"")


@PROPERTY
@given(st.lists(st.binary(max_size=40), min_size=1, max_size=4), st.integers(0, 10**6))
def test_a_cut_frame_waits_for_its_rest(payloads, missing):
    # a stream that ends inside its last frame, in the header or the payload,
    # gives the frames before it and keeps the cut frame's bytes
    frames = [frame(payload) for payload in payloads]
    stream = b"".join(frames)
    last = len(stream) - len(frames[-1])
    cut = len(stream) - 1 - missing % len(frames[-1])
    assert split([stream[:cut]], 40) == (frames[:-1], stream[last:cut])


SPEC = EncoderSpec("toy_projection", 271828, 16, 4, 8, 0.0)
NODE = SellerNode("prop", raw=gen_mixture_dataset([0.5, 0.5], [[0.0] * 16, [1.0] + [0.0] * 15],
                                                  0.1, 64, 5, 8))


def stats_request(seed: int) -> StatsRequest:
    return StatsRequest(subset_size=16, epsilon=0.8, delta=1e-5, clip_radius=1.0,
                        session_id=f"sess-{seed}", mode=MODE_SEEDED, seed=seed)


# Requests a buyer, or a broken peer, may pipeline: each gets one reply.
REQUESTS = [
    encode_frame(Hello(PROTOCOL_VERSION)),
    encode_frame(ModelSpec(SPEC)),
    encode_frame(stats_request(1)),
    encode_frame(stats_request(2)),
    encode_frame(Hello(PROTOCOL_VERSION + 1)),      # VERSION_MISMATCH
    frame(b""),                                     # an empty payload
    frame(b'{"type":"NOPE"}'),                      # UNKNOWN_MESSAGE
    frame(b"\xff" * 9),                             # not JSON
]


def answered(conn: _Connection, chunks) -> bytes:
    """Every reply the connection's buffers give for chunks fed one by one,
    as the server would send them."""
    sent = []
    for chunk in chunks:
        if conn.closing:  # the server reads nothing more
            break
        conn.inbox += chunk
        while conn.answer():
            sent.append(bytes(conn.outbox))
            conn.outbox = memoryview(b"")
    return b"".join(sent)


@PROPERTY
@given(st.lists(st.sampled_from(REQUESTS), max_size=10),
       st.lists(st.integers(0, 10**6), max_size=12), st.booleans())
def test_any_chunking_of_a_pipeline_gets_the_replies_to_whole_frames(frames, cuts, oversized):
    session = SellerSession(NODE)
    expected = b"".join(session.handle_bytes(request) for request in frames)
    stream = b"".join(frames)
    if oversized:  # a header past the request cap ends the stream
        stream += struct.pack(">I", _MAX_REQUEST_BYTES + 1) + b"junk"
    conn = _Connection(None, None, NODE)
    got = answered(conn, chunked(stream, cuts))
    assert got[:len(expected)] == expected
    assert conn.closing == oversized
    if oversized:
        error = decode_frame(got[len(expected):])
        assert isinstance(error, ErrorMessage) and error.code == "FRAME_TOO_LARGE"
        assert conn.inbox == b""
    else:
        assert got == expected


def test_a_payload_at_the_limit_is_a_frame_and_one_byte_more_is_refused():
    assert _frame_end(b"\0" + frame(b"x" * 40), 1, 40) == 45
    with pytest.raises(FrameError) as info:
        _frame_end(frame(b"x" * 41), 0, 40)
    assert info.value.code == "FRAME_TOO_LARGE"


# ----------------------------------------------------------------- session

# The codes a seller answers with: FrameError's, for a frame it cannot
# decode, and the session's own. INTERNAL, the node's answer to a fault of
# its own, is not among them.
FRAME_CODES = {"FRAME_TRUNCATED", "FRAME_TOO_LARGE", "FRAME_TRAILING", "UNKNOWN_MESSAGE",
               "BAD_PAYLOAD"}
SESSION_CODES = {"VERSION_MISMATCH", "PROTOCOL_ORDER", "SPEC_MISMATCH", "INVALID_PARAMETER",
                 "INSUFFICIENT_DATA"}
WIDEST = 4082  # the widest latent_dim a seller accepts


def spec(input_dim, latent_dim, kind="toy_projection", seed=271828) -> EncoderSpec:
    with warnings.catch_warnings():  # latent_dim above signal_dims warns
        warnings.simplefilter("ignore")
        return EncoderSpec(kind, seed, input_dim, latent_dim, min(8, input_dim), 0.0)


# (spec, accepted): NODE is a 16-wide raw node, so it takes toy_projection
# specs of input_dim 16 and latent_dim up to WIDEST.
SPECS = st.one_of(
    st.builds(lambda d, seed: (spec(16, d, seed=seed), True), st.integers(1, 8), INTS),
    st.builds(lambda n, d: (spec(n, d), False),
              st.integers(1, 64).filter(lambda n: n != 16), st.integers(1, 8)),
    st.builds(lambda d: (spec(16, d, "external"), False), st.integers(1, 16)),
    st.builds(lambda d: (spec(16, d), False), st.integers(WIDEST + 1, 10**7)),
)
SESSION_IDS = st.text(max_size=12)
# (request, the code it is refused with or None): one fault at most.
GOOD_REQUESTS = st.builds(
    lambda subset, eps, delta, radius, sid, seed: (StatsRequest(
        subset, eps, delta, radius, sid, MODE_SECURE if seed is None else MODE_SEEDED, seed),
        None),
    st.integers(2, 64), st.floats(0.05, 0.95), st.floats(1e-9, 1e-3), st.floats(1.0, 10.0),
    SESSION_IDS, st.none() | INTS)
BAD_REQUESTS = st.one_of(
    st.builds(lambda subset, sid: (StatsRequest(subset, 0.8, 1e-5, 1.0, sid, MODE_SEEDED, 1),
                                   "INSUFFICIENT_DATA"), st.integers(65, 2**64), SESSION_IDS),
    st.builds(lambda bad, sid: (StatsRequest(
        **{"subset_size": 16, "epsilon": 0.8, "delta": 1e-5, "clip_radius": 1.0, bad[0]: bad[1]},
        session_id=sid, mode=MODE_SEEDED, seed=1), "INVALID_PARAMETER"),
        st.sampled_from([("epsilon", 0.0), ("epsilon", 1.0), ("epsilon", -0.5),
                         ("delta", 0.0), ("delta", 1.0), ("delta", -1e-5),
                         ("clip_radius", 0.0), ("clip_radius", -1.0), ("clip_radius", 1e300)]),
        SESSION_IDS),
    st.builds(lambda sid: (StatsRequest(1, 0.8, 1e-5, 1.0, sid, MODE_SEEDED, 1),
                           "INVALID_PARAMETER"), SESSION_IDS),
)
# Frames no decoder takes: cut, with bytes past the payload, not a JSON
# object, or of an unknown tag.
GARBAGE = st.one_of(
    st.binary(max_size=3),
    st.builds(lambda data, cut: data[:cut % len(data)],
              st.sampled_from(REQUESTS[:4]), st.integers(0, 10**6)),
    st.builds(lambda data, tail: data + tail, st.sampled_from(REQUESTS[:4]),
              st.binary(min_size=1, max_size=8)),
    st.binary(max_size=40).map(lambda payload: frame(b"\xff" + payload)),
    JSON.filter(lambda value: not isinstance(value, dict)).map(
        lambda value: frame(json.dumps(value).encode())),
    st.text(max_size=8).map(lambda tag: frame(json.dumps({"type": "NOT-" + tag}).encode())),
)


class SellerSessionMachine(RuleBasedStateMachine):
    """A model of one SellerSession: HELLO of this version makes it ready and
    one of another version makes it a fresh session, a MODEL_SPEC sets or
    clears its spec, and a STATS_REQUEST sets the session
    id that later replies echo. Every frame sent is checked for exactly one
    reply frame, a documented code, and the id it echoes."""

    def __init__(self):
        super().__init__()
        self.session = SellerSession(NODE)
        self.ready, self.spec, self.session_id = False, None, ""

    def reply(self, data: bytes, session_id: str, code=None):
        """The one reply frame to data: an ERROR of code (with session_id),
        or the message the caller checks."""
        with warnings.catch_warnings():  # a spec past signal_dims warns as it decodes
            warnings.filterwarnings("ignore", "latent_dim .* cannot be signal-faithful")
            got = self.session.handle_bytes(data)
        assert len(got) >= 4 and struct.unpack(">I", got[:4])[0] == len(got) - 4
        msg = decode_frame(got)
        if isinstance(msg, ErrorMessage):
            assert msg.code in FRAME_CODES | SESSION_CODES
            assert msg.session_id == session_id
        if isinstance(msg, StatsResponse):
            assert self.ready and self.spec is not None
        if code is not None:
            assert isinstance(msg, ErrorMessage) and msg.code == code, msg
        return msg

    def order_refused(self, data: bytes):
        """data before HELLO: PROTOCOL_ORDER, with no session id."""
        self.reply(data, "", "PROTOCOL_ORDER")

    @rule(version=st.sampled_from([PROTOCOL_VERSION]) | st.integers(1, 2**64))
    def hello(self, version):
        if version == PROTOCOL_VERSION:
            assert self.reply(encode_frame(Hello(version)), "") == Hello(PROTOCOL_VERSION)
            self.ready = True
        else:
            self.reply(encode_frame(Hello(version)), "", "VERSION_MISMATCH")
            self.ready, self.spec = False, None

    @rule(case=SPECS)
    def model_spec(self, case):
        encoder, accepted = case
        data = encode_frame(ModelSpec(encoder))
        if not self.ready:
            self.order_refused(data)
        elif accepted:
            assert self.reply(data, "") == Hello(PROTOCOL_VERSION)
            self.spec = encoder
        else:
            self.reply(data, "", "SPEC_MISMATCH")
            self.spec = None

    @rule(case=GOOD_REQUESTS | BAD_REQUESTS)
    def stats_request(self, case):
        request, refusal = case
        data = encode_frame(request)
        if not self.ready:
            self.order_refused(data)
            return
        self.session_id = request.session_id
        if self.spec is None:
            refusal = "PROTOCOL_ORDER"
        msg = self.reply(data, request.session_id, refusal)
        if refusal is None:
            assert isinstance(msg, StatsResponse)
            assert msg.session_id == request.session_id
            assert msg.count == request.subset_size
            assert msg.encoder_fingerprint == self.spec.fingerprint()

    @rule(msg=MESSAGES["STATS_RESPONSE"] | MESSAGES["ERROR"])
    def seller_message(self, msg):
        # a message only a seller sends
        data = encode_frame(msg)
        if self.ready:
            self.reply(data, self.session_id, "PROTOCOL_ORDER")
        else:
            self.order_refused(data)

    @rule(data=GARBAGE)
    def garbage(self, data):
        msg = self.reply(data, self.session_id)
        assert isinstance(msg, ErrorMessage) and msg.code in FRAME_CODES

    # Rules that move the session on, each where it can: they weight the
    # walk towards sessions that get to serve data.
    @precondition(lambda self: not self.ready)
    @rule()
    def hello_first(self):
        self.hello(PROTOCOL_VERSION)

    @precondition(lambda self: self.ready and self.spec is None)
    @rule()
    def spec_next(self):
        self.model_spec((SPEC, True))

    @precondition(lambda self: self.ready and self.spec is not None)
    @rule(case=GOOD_REQUESTS)
    def request_data(self, case):
        self.stats_request(case)


SellerSessionMachine.TestCase.settings = settings(PROPERTY, stateful_step_count=25)
test_seller_session_answers_like_its_model = SellerSessionMachine.TestCase
