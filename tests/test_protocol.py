"""Wire framing, seller session state machine, and orchestration."""

import base64
import json
import math
import socket
import struct
import threading

import numpy as np
import pytest

from priarta import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    EncoderSpec,
    ErrorMessage,
    FrameError,
    Hello,
    InProcessChannel,
    InsufficientSamplesError,
    ModelSpec,
    ParameterError,
    PrivacyBudget,
    ProtocolFailure,
    SellerNode,
    SellerServer,
    SellerSession,
    ShapeError,
    SocketChannel,
    StatsRequest,
    StatsResponse,
    buyer_summary,
    decode_frame,
    encode_frame,
    expand_covariance,
    gen_mixture_dataset,
    orchestrate_valuation,
    pack_covariance,
    sample_subset,
    seller_pipeline,
)
from priarta.protocol import (
    _MAX_REQUEST_BYTES,
    MODE_SECURE,
    MODE_SEEDED,
    in_process_endpoints,
    node_seeds,
)
from priarta.stats import EmbeddingSet

SPEC = EncoderSpec("toy_projection", 271828, 16, 4, 8, 0.0)
BUDGET = PrivacyBudget(0.8, 1e-5, 1.0, 32)


def make_dataset(seed=5, m=200, k=3, p=16):
    probs = np.full(k, 1.0 / k)
    means = np.zeros((k, p))
    means[:, 0] = np.arange(k)
    return gen_mixture_dataset(probs, means, 0.1, m, seed, 8)


def make_request(subset=32, mode=MODE_SEEDED, seed=77, session="sess-0001", **over):
    kwargs = dict(
        subset_size=subset,
        epsilon=0.8,
        delta=1e-5,
        clip_radius=1.0,
        session_id=session,
        mode=mode,
        seed=seed if mode == MODE_SEEDED else None,
    )
    kwargs.update(over)
    return StatsRequest(**kwargs)


def ready_session(node=None):
    node = node or SellerNode("s1", raw=make_dataset())
    session = SellerSession(node)
    hello = decode_frame(session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION))))
    assert isinstance(hello, Hello)
    ack = decode_frame(session.handle_bytes(encode_frame(ModelSpec(SPEC))))
    assert isinstance(ack, Hello)
    return session


ALL_MESSAGES = [
    Hello(1),
    Hello(7),
    ModelSpec(SPEC),
    make_request(),
    make_request(mode=MODE_SECURE, seed=None),
    StatsResponse((0.5, -1.25), (1.0, 0.125, 2.0), 32, "sess-0001", 9.0, SPEC.fingerprint()),
    ErrorMessage("INTERNAL", "boom", "sess-0001"),
]


# ------------------------------------------------------------------ framing


def test_round_trip_all_variants():
    for msg in ALL_MESSAGES:
        frame = encode_frame(msg)
        again = decode_frame(frame)
        assert again == msg
        assert encode_frame(again) == frame


def test_frame_header_is_big_endian_length():
    frame = encode_frame(Hello(1))
    assert int.from_bytes(frame[:4], "big") == len(frame) - 4


def test_floats_survive_the_wire_bitwise():
    mean = (0.1 + 0.2, 1e-300, -1.2345678901234567e22)
    cov = tuple(float(x) for x in np.linalg.eigvalsh(np.eye(3)) + [0.7, 1.3, 2.9]) + (
        0.0, 1e-17, 3.3, 0.0, 0.0, 5.5,
    )[:3]
    resp = StatsResponse(mean, cov[:6], 32, "sess-1", 9.084009867385104, SPEC.fingerprint())
    again = decode_frame(encode_frame(resp))
    assert np.array_equal(again.mean, resp.mean)
    assert np.array_equal(again.covariance, resp.covariance)
    assert again.sigma_used == resp.sigma_used


def test_decode_rejects_truncation():
    frame = encode_frame(Hello(1))
    with pytest.raises(FrameError) as info:
        decode_frame(frame[:3])
    assert info.value.code == "FRAME_TRUNCATED"
    with pytest.raises(FrameError) as info:
        decode_frame(frame[:-1])
    assert info.value.code == "FRAME_TRUNCATED"


def test_decode_rejects_trailing_bytes():
    with pytest.raises(FrameError) as info:
        decode_frame(encode_frame(Hello(1)) + b"x")
    assert info.value.code == "FRAME_TRAILING"


def test_decode_rejects_oversize_header():
    header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(FrameError) as info:
        decode_frame(header + b"\0")
    assert info.value.code == "FRAME_TOO_LARGE"


def test_decode_rejects_garbage_payload():
    bad = b"\x00\x00\x00\x04none"
    with pytest.raises(FrameError) as info:
        decode_frame(bad)
    assert info.value.code == "BAD_PAYLOAD"


def test_decode_rejects_unknown_type():
    payload = b'{"type":"NOPE"}'
    frame = len(payload).to_bytes(4, "big") + payload
    with pytest.raises(FrameError) as info:
        decode_frame(frame)
    assert info.value.code == "UNKNOWN_MESSAGE"


def test_decode_rejects_field_drift():
    # extra field
    payload = b'{"type":"HELLO","protocol_version":1,"x":2}'
    frame = len(payload).to_bytes(4, "big") + payload
    with pytest.raises(FrameError):
        decode_frame(frame)
    # missing field
    payload = b'{"type":"HELLO"}'
    frame = len(payload).to_bytes(4, "big") + payload
    with pytest.raises(FrameError):
        decode_frame(frame)


def test_request_validation():
    def req(mode, seed):
        return StatsRequest(32, 0.8, 1e-5, 1.0, "sess-0001", mode, seed)

    with pytest.raises(ParameterError):
        req(MODE_SEEDED, None)  # seeded needs a seed
    with pytest.raises(ParameterError):
        req(MODE_SECURE, 3)  # secure carries no seed
    with pytest.raises(ParameterError):
        req("other", None)
    # out-of-range privacy parameters still construct; the seller answers
    make_request(epsilon=7.5)


def raw_frame(payload) -> bytes:
    if isinstance(payload, dict):
        payload = json.dumps(payload).encode()
    return len(payload).to_bytes(4, "big") + payload


def spec_payload(**over) -> dict:
    return {"type": "MODEL_SPEC", "encoder": dict(SPEC.to_dict(), **over)}


# Each of these once escaped decode_frame as ValueError, OverflowError or
# RecursionError instead of a FrameError.
HOSTILE_FRAMES = {
    "input_dim_string": raw_frame(spec_payload(input_dim="x")),
    "seed_string": raw_frame(spec_payload(seed="abc")),
    "input_dim_infinity": raw_frame(spec_payload(input_dim=float("inf"))),
    "nested_1e5_deep": raw_frame(b"[" * 100_000 + b"]" * 100_000),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_decode_maps_hostile_payloads_to_bad_payload(name):
    with pytest.raises(FrameError) as info:
        decode_frame(HOSTILE_FRAMES[name])
    assert info.value.code == "BAD_PAYLOAD"


def payload_of(msg) -> dict:
    return json.loads(encode_frame(msg)[4:])


def test_decode_rejects_null_seed_in_secure_mode():
    payload = payload_of(make_request(mode=MODE_SECURE, seed=None))
    assert "seed" not in payload
    payload["seed"] = None
    with pytest.raises(FrameError) as info:
        decode_frame(raw_frame(payload))
    assert info.value.code == "BAD_PAYLOAD"


def test_decode_rejects_seeded_request_without_seed():
    payload = payload_of(make_request(mode=MODE_SEEDED, seed=77))
    assert payload["seed"] == 77
    del payload["seed"]
    with pytest.raises(FrameError) as info:
        decode_frame(raw_frame(payload))
    assert info.value.code == "BAD_PAYLOAD"


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_decode_rejects_unknown_field_on_every_message(msg):
    payload = payload_of(msg)
    decode_frame(raw_frame(payload))  # the untouched payload decodes
    payload["extra"] = 1
    with pytest.raises(FrameError) as info:
        decode_frame(raw_frame(payload))
    assert info.value.code == "BAD_PAYLOAD"


def test_round_trip_wide_stats_response(rng):
    d = 256
    a = rng.standard_normal((d, d))
    cov = a @ a.T / d
    resp = StatsResponse(
        tuple(rng.standard_normal(d).tolist()),
        tuple(cov[i, j] for i in range(d) for j in range(i, d)),
        512, "sess-wide", 3.25, SPEC.fingerprint(),
    )
    frame = encode_frame(resp)
    again = decode_frame(frame)
    assert again == resp
    assert encode_frame(again) == frame


def _float_tuple_reference(values, field="mean"):
    """Reference: check and convert one element at a time, then require a
    nonempty mean, as StatsResponse did with tuple fields."""
    if not isinstance(values, (list, tuple)):
        raise ParameterError(f"{field} must be a sequence of numbers")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParameterError(f"{field} must be a number")
        v = float(v)
        if not math.isfinite(v):
            raise ParameterError(f"{field} must be finite")
        out.append(v)
    if not out:
        raise ParameterError(f"{field} must be nonempty")
    return tuple(out)


def response_mean(values):
    """The mean a StatsResponse keeps for values, with a covariance sized to
    match."""
    d = len(values)
    return StatsResponse(values, (0.0,) * (d * (d + 1) // 2), 32, "s", 1.0,
                         SPEC.fingerprint()).mean


def _outcome(fn, values):
    try:
        result = fn(values)
    except (ParameterError, OverflowError) as exc:
        return type(exc), str(exc)
    return [float(v).hex() for v in result]


FLOAT_TUPLE_CASES = {
    "empty": [],
    "floats": [0.5, -1.25, 1e-300, 1.7976931348623157e308],
    "ints_become_floats": [1, -3, 2**53 + 1, 0],
    "negative_zero": (-0.0, 0.0, -0),
    "numpy_float": [np.float64(0.25), 1.0],
    "numpy_int": [1.0, np.int64(3)],
    "float_subclass": [np.float64(-0.0)],
    "bool": [1.0, True],
    "string": [1.0, "1.5"],
    "none": [None],
    "nested_list": [[1.0]],
    "nan": [1.0, float("nan")],
    "inf": [float("inf"), 2.0],
    "minus_inf": [0.0, float("-inf")],
    "huge_int": [1.0, 10**400],
    "nan_before_huge_int": [float("nan"), 10**400],
    "huge_int_before_nan": [10**400, float("nan")],
    "string_before_huge_int": ["x", 10**400],
    "not_a_sequence": {1.0: 2.0},
    "a_string": "1.5",
}


@pytest.mark.parametrize("name", sorted(FLOAT_TUPLE_CASES))
def test_float_tuple_matches_per_element_reference(name):
    values = FLOAT_TUPLE_CASES[name]
    assert _outcome(response_mean, values) == _outcome(_float_tuple_reference, values)


def test_float_tuple_results_and_errors():
    mean = response_mean([1, 2])
    assert np.array_equal(mean, [1.0, 2.0])
    assert mean.dtype == np.float64
    assert response_mean([1, np.float64(2)]).dtype == np.float64
    assert math.copysign(1.0, response_mean([-0.0])[0]) == -1.0
    with pytest.raises(ParameterError, match="^mean must be a number$"):
        response_mean([True])
    with pytest.raises(ParameterError, match="^mean must be finite$"):
        response_mean([float("nan")])
    with pytest.raises(OverflowError):
        response_mean([10**400])


def test_stats_response_holds_read_only_float64_copies():
    source = np.array([0.5, -1.25])
    mean = response_mean(source)
    assert mean.dtype == np.float64 and mean.shape == (2,)
    assert not mean.flags.writeable
    source[0] = 9.0
    assert mean[0] == 0.5
    assert response_mean(np.array([0.5], dtype=np.float32))[0] == 0.5
    with pytest.raises(ParameterError, match="^mean must be finite$"):
        response_mean(np.array([0.5, np.inf]))
    for bad in (np.ones((1, 1)), np.array([1, 2]), np.array([True])):
        with pytest.raises(ParameterError, match="^mean must be a 1-D float array$"):
            response_mean(bad)


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


@pytest.mark.parametrize("literal", [b"NaN", b"1e400", b"-Infinity"])
def test_decode_rejects_non_finite_covariance_entry(literal):
    msg = StatsResponse((0.5, -1.25), (1.0, 0.125, 2.0), 32, "s", 9.0, SPEC.fingerprint())
    payload = payload_of(msg)
    assert base64.b64decode(payload["covariance"]) == struct.pack("<3d", 1.0, 0.125, 2.0)
    payload["covariance"] = b64(struct.pack("<3d", 1.0, float(literal), 2.0))
    with pytest.raises(FrameError) as info:
        decode_frame(raw_frame(payload))
    assert info.value.code == "BAD_PAYLOAD"
    assert "covariance must be finite" in str(info.value)


def stats_payload(**over) -> dict:
    msg = StatsResponse((0.5, -1.25), (1.0, 0.125, 2.0), 32, "s", 9.0, SPEC.fingerprint())
    return dict(payload_of(msg), **over)


_GOOD_COV = b64(struct.pack("<3d", 1.0, 0.125, 2.0))

# Malformed float64 array fields of a STATS_RESPONSE; each must decode to
# BAD_PAYLOAD.
HOSTILE_ARRAYS = {
    "non_base64_byte": stats_payload(covariance="!" + _GOOD_COV[1:]),
    "non_ascii_character": stats_payload(covariance="\u00e9" + _GOOD_COV[1:]),
    "embedded_newline": stats_payload(covariance=_GOOD_COV[:8] + "\n" + _GOOD_COV[8:]),
    "bad_padding": stats_payload(covariance=_GOOD_COV.rstrip("=")[:-1]),
    "length_not_multiple_of_8": stats_payload(covariance=b64(bytes(20))),
    "covariance_count_mismatch": stats_payload(covariance=b64(struct.pack("<4d", 1, 0, 0, 2))),
    "mean_count_mismatch": stats_payload(mean=b64(struct.pack("<3d", 0.5, -1.25, 0.0))),
    "empty_mean": stats_payload(mean="", covariance=""),
    "nan_bits": stats_payload(mean=b64(struct.pack("<Q", 0x7FF8000000000000) + bytes(8))),
    "signalling_nan_bits": stats_payload(mean=b64(struct.pack("<2Q", 0, 0x7FF0000000000001))),
    "plus_inf_bits": stats_payload(mean=b64(struct.pack("<2Q", 0x7FF0000000000000, 0))),
    "minus_inf_bits": stats_payload(mean=b64(struct.pack("<2Q", 0, 0xFFF0000000000000))),
    "v1_number_list": stats_payload(covariance=[1.0, 0.125, 2.0]),
    "number": stats_payload(mean=5),
    "null": stats_payload(mean=None),
    "object": stats_payload(covariance={"data": _GOOD_COV}),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_ARRAYS))
def test_decode_maps_hostile_array_payloads_to_bad_payload(name):
    decode_frame(raw_frame(stats_payload()))  # the untouched payload decodes
    with pytest.raises(FrameError) as info:
        decode_frame(raw_frame(HOSTILE_ARRAYS[name]))
    assert info.value.code == "BAD_PAYLOAD"


@pytest.mark.parametrize("name", sorted(HOSTILE_ARRAYS))
def test_orchestrate_survives_a_hostile_array_reply(name):
    def hostile():
        channel = InProcessChannel(SellerNode("mallory", raw=make_dataset()))
        channel.session = _ReplayingSession(raw_frame(HOSTILE_ARRAYS[name]))
        return channel

    endpoints = in_process_endpoints(seller_nodes()[:1]) + [("mallory", hostile)]
    buyer, outcomes = orchestrate_valuation(
        make_dataset(seed=10), endpoints, SPEC, BUDGET, master_seed=1000,
    )
    by_id = {o.node_id: o for o in outcomes}
    assert "BAD_PAYLOAD" in by_id["mallory"].failure
    assert not by_id["alpha"].failed


B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


# d float64 values are 8d bytes: no padding for d = 3, "=" for d = 1, "==" for
# d = 2. Every character in the last place before the padding decodes, and
# to finite values since |mean| < 2; only the one whose unused bits are zero,
# as re-encoding the decoded bytes shows, may be accepted.
@pytest.mark.parametrize("d", [1, 2, 3])
def test_decode_accepts_only_canonical_base64(d):
    msg = StatsResponse((0.5, -1.25, 0.1)[:d], pack_covariance(np.eye(d)), 32, "s", 9.0,
                        SPEC.fingerprint())
    payload = payload_of(msg)
    body = payload["mean"].rstrip("=")
    padding = "=" * (len(payload["mean"]) - len(body))
    accepted = 0
    for char in B64_ALPHABET:
        text = body[:-1] + char + padding
        frame = raw_frame(json.dumps(dict(payload, mean=text), sort_keys=True,
                                     separators=(",", ":")).encode())
        if base64.b64encode(base64.b64decode(text)).decode("ascii") == text:
            assert encode_frame(decode_frame(frame)) == frame
            accepted += 1
        else:
            with pytest.raises(FrameError) as info:
                decode_frame(frame)
            assert info.value.code == "BAD_PAYLOAD"
    assert accepted == {0: 64, 1: 16, 2: 4}[len(padding)]


def test_float64_payload_bytes_match_struct_oracle():
    mean = (-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2)
    cov = (1.0, -5e-324, 2.2250738585072014e-308, -1.7976931348623157e308, 1 / 3,
           -0.0, 1e-300, 0.0, 123456789.0, 2.0**-1074 * 3)
    resp = StatsResponse(mean, cov, 32, "sess-1", 9.0, SPEC.fingerprint())
    frame = encode_frame(resp)
    payload = json.loads(frame[4:])
    assert base64.b64decode(payload["mean"]) == struct.pack("<4d", *mean)
    assert base64.b64decode(payload["covariance"]) == struct.pack("<10d", *cov)
    again = decode_frame(frame)
    assert again.mean.astype("<f8").tobytes() == struct.pack("<4d", *mean)
    assert again.covariance.astype("<f8").tobytes() == struct.pack("<10d", *cov)
    assert encode_frame(again) == frame


@pytest.mark.parametrize("d", [4, 256, 768])
def test_stats_response_frame_size_is_overhead_plus_base64(d):
    sizes = (d, d * (d + 1) // 2)
    resp = StatsResponse(np.linspace(-1.0, 1.0, d), np.full(sizes[1], 0.5), 512,
                         "sess-size", 3.25, SPEC.fingerprint())
    fixed = dict(type="STATS_RESPONSE", mean="", covariance="", count=512,
                 session_id="sess-size", sigma_used=3.25,
                 encoder_fingerprint=SPEC.fingerprint())
    overhead = 4 + len(json.dumps(fixed, sort_keys=True, separators=(",", ":")))
    frame = encode_frame(resp)
    assert len(frame) == overhead + sum(4 * math.ceil(8 * n / 3) for n in sizes)
    assert len(frame) - 4 < MAX_FRAME_BYTES


# -------------------------------------------------------------- covariances


def test_pack_expand_round_trip(rng):
    for d in (1, 2, 4, 9):
        c = rng.standard_normal((d, d))
        c = c @ c.T
        packed = pack_covariance(c)
        assert packed.shape == (d * (d + 1) // 2,)
        back = expand_covariance(packed, d)
        np.testing.assert_array_equal(back, c)
        np.testing.assert_array_equal(back, back.T)


def test_pack_is_row_major_upper_triangle(rng):
    for d in (1, 3, 256):
        c = rng.standard_normal((d, d))
        expected = tuple(float(c[i, j]) for i in range(d) for j in range(i, d))
        assert np.array_equal(pack_covariance(c), expected)
        back = expand_covariance(expected, d)
        for i in range(0, d, 37):
            for j in range(i, d, 41):
                assert back[i, j] == back[j, i] == c[i, j]


def test_expand_rejects_wrong_length():
    with pytest.raises(ShapeError):
        expand_covariance((1.0, 2.0), 2)


# ------------------------------------------------------------ sample_subset


def test_sample_subset_deterministic():
    data = make_dataset()
    a = sample_subset(data, 32, 900)
    b = sample_subset(data, 32, 900)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_sample_subset_draws_without_replacement():
    data = make_dataset(m=64)
    sub = sample_subset(data, 64, 1)
    # all 64 rows present exactly once
    order = np.lexsort(sub.points.T)
    base = np.lexsort(data.points.T)
    np.testing.assert_array_equal(sub.points[order], data.points[base])


def test_sample_subset_insufficient():
    data = make_dataset(m=16)
    with pytest.raises(InsufficientSamplesError):
        sample_subset(data, 17, 1)


def test_sample_subset_uniformity():
    # index frequencies over many seeds stay near uniform
    data = make_dataset(m=20)
    counts = np.zeros(20)
    trials = 4000
    for seed in range(trials):
        sub = sample_subset(data, 5, seed)
        for row in sub.points:
            idx = int(np.argmin(np.linalg.norm(data.points - row, axis=1)))
            counts[idx] += 1
    expected = trials * 5 / 20
    # 4 sigma of a binomial around p = 1/4
    bound = 4 * np.sqrt(trials * 5 * (1 / 20) * (19 / 20))
    assert np.all(np.abs(counts - expected) < bound)


# ------------------------------------------------------------ state machine


def test_session_requires_hello_first():
    session = SellerSession(SellerNode("s1", raw=make_dataset()))
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert isinstance(reply, ErrorMessage)
    assert reply.code == "PROTOCOL_ORDER"


def test_session_rejects_version_mismatch():
    session = SellerSession(SellerNode("s1", raw=make_dataset()))
    reply = decode_frame(session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION + 1))))
    assert isinstance(reply, ErrorMessage)
    assert reply.code == "VERSION_MISMATCH"


# The HELLO a version-1 buyer sends, byte for byte.
V1_HELLO = raw_frame(b'{"protocol_version":1,"type":"HELLO"}')


def test_session_rejects_version_1_hello():
    assert PROTOCOL_VERSION == 2
    session = SellerSession(SellerNode("s1", raw=make_dataset()))
    reply = decode_frame(session.handle_bytes(V1_HELLO))
    assert isinstance(reply, ErrorMessage)
    assert reply.code == "VERSION_MISMATCH"
    assert reply.message == "node speaks version 2, peer sent 1"
    # not ready: a request still gets PROTOCOL_ORDER
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert reply.code == "PROTOCOL_ORDER"


def test_session_requires_spec_before_stats():
    session = SellerSession(SellerNode("s1", raw=make_dataset()))
    session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION)))
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert reply.code == "PROTOCOL_ORDER"


def test_session_happy_path():
    session = ready_session()
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert isinstance(reply, StatsResponse)
    assert reply.count == 32
    assert reply.session_id == "sess-0001"
    assert reply.encoder_fingerprint == SPEC.fingerprint()
    assert reply.sigma_used > 0
    assert len(reply.mean) == 4
    assert len(reply.covariance) == 10


def test_session_seeded_replay_is_bit_identical():
    a = ready_session().handle_bytes(encode_frame(make_request()))
    b = ready_session().handle_bytes(encode_frame(make_request()))
    assert a == b


def test_session_secure_mode_varies():
    req = encode_frame(make_request(mode=MODE_SECURE, seed=None))
    a = decode_frame(ready_session().handle_bytes(req))
    b = decode_frame(ready_session().handle_bytes(req))
    assert isinstance(a, StatsResponse) and isinstance(b, StatsResponse)
    assert not np.array_equal(a.mean, b.mean)


def test_session_spec_mismatch():
    session = SellerSession(SellerNode("s1", raw=make_dataset()))
    session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION)))
    wrong = EncoderSpec("toy_projection", 271828, 12, 4, 8, 0.0)  # input_dim 12 != 16
    reply = decode_frame(session.handle_bytes(encode_frame(ModelSpec(wrong))))
    assert reply.code == "SPEC_MISMATCH"


def test_session_insufficient_data():
    session = ready_session(SellerNode("s1", raw=make_dataset(m=20)))
    reply = decode_frame(session.handle_bytes(encode_frame(make_request(subset=21))))
    assert reply.code == "INSUFFICIENT_DATA"


def test_session_invalid_parameter():
    session = ready_session()
    reply = decode_frame(session.handle_bytes(encode_frame(make_request(epsilon=2.0))))
    assert reply.code == "INVALID_PARAMETER"


def test_session_error_reply_for_malformed_frame():
    session = ready_session()
    reply = decode_frame(session.handle_bytes(b"\x00\x00\x00\x02{}"))
    assert isinstance(reply, ErrorMessage)
    assert reply.code == "BAD_PAYLOAD"
    # session survives and still answers
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert isinstance(reply, StatsResponse)


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_session_answers_hostile_frames_with_bad_payload(name):
    session = ready_session()
    reply = decode_frame(session.handle_bytes(HOSTILE_FRAMES[name]))
    assert isinstance(reply, ErrorMessage)
    assert reply.code == "BAD_PAYLOAD"
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert isinstance(reply, StatsResponse)


def test_session_rejects_wrong_direction_message():
    session = ready_session()
    resp = StatsResponse((0.0,), (1.0,), 32, "sess-0001", 1.0, SPEC.fingerprint())
    reply = decode_frame(session.handle_bytes(encode_frame(resp)))
    assert reply.code == "PROTOCOL_ORDER"


def test_pinned_fingerprint_rejects_other_specs():
    node = SellerNode("s1", raw=make_dataset(), pinned_fingerprint=SPEC.fingerprint())
    session = SellerSession(node)
    session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION)))
    other = EncoderSpec("toy_projection", 999, 16, 4, 8, 0.0)
    reply = decode_frame(session.handle_bytes(encode_frame(ModelSpec(other))))
    assert reply.code == "SPEC_MISMATCH"


def test_raw_rows_never_cross_the_wire():
    # no raw coordinate appears in any reply payload
    data = make_dataset()
    session = ready_session(SellerNode("s1", raw=data))
    reply_bytes = session.handle_bytes(encode_frame(make_request()))
    payload = json.loads(reply_bytes[4:])
    released = b"".join(base64.b64decode(payload[k]) for k in ("mean", "covariance"))
    for value in data.points[:5].ravel():
        assert repr(float(value)) not in reply_bytes.decode()
        assert struct.pack("<d", value) not in released


# ---------------------------------------------------------------- pipeline


def test_seller_pipeline_matches_session_reply():
    # the session reply re-derives the pipeline output exactly
    data = make_dataset()
    session = ready_session(SellerNode("s1", raw=data))
    reply = decode_frame(session.handle_bytes(encode_frame(make_request(seed=77))))
    subset_seed, noise_seed = node_seeds(77, "s1")
    summary, calibration = seller_pipeline(data, SPEC, BUDGET, subset_seed, noise_seed)
    np.testing.assert_array_equal(np.asarray(reply.mean), summary.mean)
    np.testing.assert_array_equal(
        expand_covariance(reply.covariance, 4), summary.covariance
    )
    assert reply.sigma_used == calibration.sigma


def test_buyer_summary_noiseless_default():
    data = make_dataset()
    a = buyer_summary(data, SPEC, 1.0)
    b = buyer_summary(data, SPEC, 1.0)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.covariance, b.covariance)
    assert a.count == data.count


# ---------------------------------------------------------- orchestration


def seller_nodes():
    return [
        SellerNode("alpha", raw=make_dataset(seed=11)),
        SellerNode("beta", raw=make_dataset(seed=12)),
        SellerNode("gamma", raw=make_dataset(seed=13, m=16)),  # too small for subset 32
    ]


def test_orchestrate_reports_partial_failure():
    buyer, outcomes = orchestrate_valuation(
        make_dataset(seed=10), in_process_endpoints(seller_nodes()), SPEC, BUDGET,
        master_seed=1000,
    )
    by_id = {o.node_id: o for o in outcomes}
    assert not by_id["alpha"].failed and not by_id["beta"].failed
    assert by_id["gamma"].failed
    assert "INSUFFICIENT_DATA" in by_id["gamma"].failure
    assert by_id["alpha"].summary is not None
    assert by_id["alpha"].bytes_sent > 0 and by_id["alpha"].bytes_received > 0


class _ReplayingSession:
    """Stands in for a seller session and answers every frame with one
    fixed reply."""

    def __init__(self, reply):
        self.reply = reply

    def handle_bytes(self, frame):
        return self.reply


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_orchestrate_survives_a_hostile_seller_reply(name):
    def hostile():
        channel = InProcessChannel(SellerNode("mallory", raw=make_dataset()))
        channel.session = _ReplayingSession(HOSTILE_FRAMES[name])
        return channel

    endpoints = in_process_endpoints(seller_nodes()[:2]) + [("mallory", hostile)]
    buyer, outcomes = orchestrate_valuation(
        make_dataset(seed=10), endpoints, SPEC, BUDGET, master_seed=1000,
    )
    by_id = {o.node_id: o for o in outcomes}
    assert by_id["mallory"].failed
    assert "BAD_PAYLOAD" in by_id["mallory"].failure
    assert not by_id["alpha"].failed and not by_id["beta"].failed


# What a version-1 seller answers to a version-2 HELLO, byte for byte.
V1_MISMATCH_REPLY = raw_frame(
    b'{"code":"VERSION_MISMATCH","message":"node speaks version 1, peer sent 2",'
    b'"session_id":"","type":"ERROR"}')


def test_orchestrate_fails_only_a_version_1_seller():
    def old():
        channel = InProcessChannel(SellerNode("old", raw=make_dataset()))
        channel.session = _ReplayingSession(V1_MISMATCH_REPLY)
        return channel

    endpoints = in_process_endpoints(seller_nodes()[:2]) + [("old", old)]
    buyer, outcomes = orchestrate_valuation(
        make_dataset(seed=10), endpoints, SPEC, BUDGET, master_seed=1000,
    )
    by_id = {o.node_id: o for o in outcomes}
    assert by_id["old"].failed
    assert by_id["old"].failure.startswith("VERSION_MISMATCH: ")
    assert not by_id["alpha"].failed and not by_id["beta"].failed


def test_orchestrate_is_seed_deterministic():
    runs = []
    for _ in range(2):
        buyer, outcomes = orchestrate_valuation(
            make_dataset(seed=10), in_process_endpoints(seller_nodes()[:2]), SPEC, BUDGET,
            master_seed=1000,
        )
        runs.append((buyer, outcomes))
    for a, b in zip(runs[0][1], runs[1][1]):
        np.testing.assert_array_equal(a.summary.mean, b.summary.mean)
        np.testing.assert_array_equal(a.summary.covariance, b.summary.covariance)


def test_orchestrate_secure_mode_varies():
    a = orchestrate_valuation(
        make_dataset(seed=10), in_process_endpoints(seller_nodes()[:1]), SPEC, BUDGET
    )
    b = orchestrate_valuation(
        make_dataset(seed=10), in_process_endpoints(seller_nodes()[:1]), SPEC, BUDGET
    )
    assert np.any(a[1][0].summary.mean != b[1][0].summary.mean)


# ---------------------------------------------------------------- channels


def test_in_process_channel_counts_real_frames():
    node = SellerNode("s1", raw=make_dataset())
    chan = InProcessChannel(node)
    reply = chan.request(Hello(PROTOCOL_VERSION))
    assert isinstance(reply, Hello)
    assert chan.bytes_sent == len(encode_frame(Hello(PROTOCOL_VERSION)))
    assert chan.bytes_received == len(encode_frame(reply))
    assert [kind for kind, _ in chan.transcript] == ["send", "recv"]


def test_socket_channel_round_trip():
    node = SellerNode("sock", raw=make_dataset())
    server = SellerServer(("127.0.0.1", 0), node)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        chan = SocketChannel(host, port)
        try:
            assert isinstance(chan.request(Hello(PROTOCOL_VERSION)), Hello)
            assert isinstance(chan.request(ModelSpec(SPEC)), Hello)
            reply = chan.request(make_request())
            assert isinstance(reply, StatsResponse)
        finally:
            chan.close()
    finally:
        server.shutdown()
        server.server_close()


def serving(node):
    server = SellerServer(("127.0.0.1", 0), node)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def read_reply(sock) -> bytes:
    stream = sock.makefile("rb")
    header = stream.read(4)
    return header + stream.read(int.from_bytes(header, "big"))


def test_server_replies_bad_payload_to_malformed_model_spec():
    server = serving(SellerNode("sock", raw=make_dataset()))
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(encode_frame(Hello(PROTOCOL_VERSION)))
            assert isinstance(decode_frame(read_reply(sock)), Hello)
            sock.sendall(HOSTILE_FRAMES["input_dim_infinity"])
            reply = decode_frame(read_reply(sock))
            assert isinstance(reply, ErrorMessage)
            assert reply.code == "BAD_PAYLOAD"
            # the connection stays open and the session still serves
            sock.sendall(encode_frame(ModelSpec(SPEC)))
            assert isinstance(decode_frame(read_reply(sock)), Hello)
    finally:
        server.shutdown()
        server.server_close()


def test_server_answers_oversized_header_then_closes():
    server = serving(SellerNode("sock", raw=make_dataset()))
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            reply = decode_frame(read_reply(sock))
            assert isinstance(reply, ErrorMessage)
            assert reply.code == "FRAME_TOO_LARGE"
            assert sock.recv(1) == b""
    finally:
        server.shutdown()
        server.server_close()


def test_server_answers_version_1_hello():
    server = serving(SellerNode("sock", raw=make_dataset()))
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(V1_HELLO)
            reply = decode_frame(read_reply(sock))
            assert isinstance(reply, ErrorMessage)
            assert reply.code == "VERSION_MISMATCH"
    finally:
        server.shutdown()
        server.server_close()


def test_server_caps_request_frames():
    assert _MAX_REQUEST_BYTES < 1 << 20
    server = serving(SellerNode("sock", raw=make_dataset()))
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            # a 1 MiB request, header only: the server answers before any body
            sock.sendall((1 << 20).to_bytes(4, "big"))
            reply = decode_frame(read_reply(sock))
            assert isinstance(reply, ErrorMessage)
            assert reply.code == "FRAME_TOO_LARGE"
            assert sock.recv(1) == b""
    finally:
        server.shutdown()
        server.server_close()


def test_socket_channel_reads_replies_past_the_request_cap(rng):
    d = 128
    node = SellerNode("wide", embeddings=EmbeddingSet(rng.standard_normal((64, d)), 1.0, False))
    spec = EncoderSpec("external", 5, d, d, d, 0.0)
    server = serving(node)
    chan = SocketChannel(*server.server_address)
    try:
        assert isinstance(chan.request(Hello(PROTOCOL_VERSION)), Hello)
        assert isinstance(chan.request(ModelSpec(spec)), Hello)
        reply = chan.request(make_request())
        assert isinstance(reply, StatsResponse)
        assert len(chan.transcript[-1][1]) > _MAX_REQUEST_BYTES
    finally:
        chan.close()
        server.shutdown()
        server.server_close()


def test_socket_channel_reports_reply_cut_mid_frame():
    listener = socket.create_server(("127.0.0.1", 0))

    def truncating_peer():
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            conn.sendall(encode_frame(Hello(PROTOCOL_VERSION))[:6])

    thread = threading.Thread(target=truncating_peer, daemon=True)
    thread.start()
    chan = SocketChannel(*listener.getsockname())
    try:
        with pytest.raises(ProtocolFailure) as info:
            chan.request(Hello(PROTOCOL_VERSION))
        assert info.value.code == "CONNECTION_CLOSED"
    finally:
        chan.close()
        thread.join(timeout=10)
        listener.close()


def test_socket_matches_in_process_bitwise():
    node_a = SellerNode("twin", raw=make_dataset())
    node_b = SellerNode("twin", raw=make_dataset())
    inproc = InProcessChannel(node_a)
    replies_a = [
        inproc.request(Hello(PROTOCOL_VERSION)),
        inproc.request(ModelSpec(SPEC)),
        inproc.request(make_request()),
    ]
    server = SellerServer(("127.0.0.1", 0), node_b)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        chan = SocketChannel(host, port)
        try:
            replies_b = [
                chan.request(Hello(PROTOCOL_VERSION)),
                chan.request(ModelSpec(SPEC)),
                chan.request(make_request()),
            ]
        finally:
            chan.close()
    finally:
        server.shutdown()
        server.server_close()
    assert replies_a == replies_b
    assert inproc.bytes_sent > 0


def test_concurrent_sessions_are_isolated():
    node = SellerNode("shared", raw=make_dataset())
    server = SellerServer(("127.0.0.1", 0), node)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    results = [None, None]

    def run(slot):
        chan = SocketChannel(host, port)
        try:
            chan.request(Hello(PROTOCOL_VERSION))
            chan.request(ModelSpec(SPEC))
            results[slot] = chan.request(make_request())
        finally:
            chan.close()

    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        server.shutdown()
        server.server_close()
    assert all(isinstance(r, StatsResponse) for r in results)
    # same node, same seeded request: both sessions answer identically
    assert results[0] == results[1]
