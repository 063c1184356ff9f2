"""Properties of the frame codec, over any message and any bytes, and of
frame splitting, over any chunking of a byte stream.

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

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
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
