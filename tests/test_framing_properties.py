"""Properties of frame splitting, over any chunking of a byte stream.

The frames are built here from their layout (a 4-byte big-endian length,
then the payload), and the seller's replies to whole frames come from
SellerSession.handle_bytes, so each property checks a buffer against the
frames it was fed, not against the splitter's own arithmetic.
"""

import struct

from hypothesis import given, settings, strategies as st
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
    decode_frame,
    encode_frame,
    gen_mixture_dataset,
)
from priarta.protocol import _MAX_REQUEST_BYTES, MODE_SEEDED, _Connection, _frame_end

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
