"""Wire framing, seller session state machine, and orchestration."""

import base64
from collections import Counter
import contextlib
import dataclasses
import json
import logging
import math
import select
import socket
import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from priarta import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    EncoderSpec,
    ErrorMessage,
    FileFormatError,
    FrameError,
    GaussianSummary,
    Hello,
    InProcessChannel,
    InsufficientSamplesError,
    ModelSpec,
    NotPSDError,
    NumericInputError,
    ParameterError,
    PrivacyBudget,
    ProtocolFailure,
    RawDataset,
    SellerNode,
    SellerServer,
    SellerSession,
    ShapeError,
    SocketChannel,
    StatsRequest,
    StatsResponse,
    apply_gaussian_mechanism,
    buyer_summary,
    calibrate_sigma,
    clip_to_ball,
    decode_frame,
    derive_seed,
    encode,
    encode_frame,
    expand_covariance,
    gen_mixture_dataset,
    orchestrate_valuation,
    pack_covariance,
    seller_pipeline,
    summarize,
)
from priarta import protocol
from priarta.protocol import (
    _MAX_REQUEST_BYTES,
    MODE_SECURE,
    MODE_SEEDED,
    _subset_indices,
    in_process_endpoints,
    node_seeds,
    socket_endpoints,
)
from priarta.stats import EmbeddingSet
from priarta.valuation import run_valuation

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


def raw_frame(payload, tail=None) -> bytes:
    """A frame around payload (a dict is dumped as JSON), with a newline and
    tail after it when tail is given."""
    if isinstance(payload, dict):
        payload = json.dumps(payload).encode()
    if tail is not None:
        payload += b"\n" + tail
    return len(payload).to_bytes(4, "big") + payload


def split_frame(frame) -> tuple:
    """A frame's JSON head as a dict, and the bytes after the first newline
    (None when there is none)."""
    head, mark, tail = frame[4:].partition(b"\n")
    return json.loads(head), (tail if mark else None)


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
    return split_frame(encode_frame(msg))[0]


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
    payload, tail = split_frame(encode_frame(msg))
    decode_frame(raw_frame(payload, tail))  # the untouched payload decodes
    payload["extra"] = 1
    with pytest.raises(FrameError) as info:
        decode_frame(raw_frame(payload, tail))
    assert info.value.code == "BAD_PAYLOAD"


def test_a_frame_without_arrays_is_decoded_once():
    frame = encode_frame(ModelSpec(SPEC))
    first = decode_frame(frame)
    assert decode_frame(frame) is first
    assert decode_frame(bytearray(frame)) is first
    assert decode_frame(memoryview(frame)) is first


@pytest.mark.parametrize("msg", [
    next(msg for msg in ALL_MESSAGES if isinstance(msg, StatsResponse)),
    ErrorMessage("INTERNAL", "x" * _MAX_REQUEST_BYTES, "sess-0001"),
], ids=["stats_response", "over_the_request_cap"])
def test_arrays_and_large_frames_are_decoded_afresh(msg):
    frame = encode_frame(msg)
    first, second = decode_frame(frame), decode_frame(frame)
    assert first == second == msg
    assert first is not second


def test_a_malformed_frame_fails_every_time_and_is_not_kept():
    protocol._decode_shared.cache_clear()
    frame = raw_frame({"type": "HELLO", "protocol_version": 0})
    for _ in range(3):
        with pytest.raises(FrameError) as info:
            decode_frame(frame)
        assert info.value.code == "BAD_PAYLOAD"
    assert protocol._decode_shared.cache_info().currsize == 0


def test_the_decode_cache_stays_within_its_bound():
    bound = protocol._decode_shared.cache_info().maxsize
    assert bound <= 64
    for version in range(1, 1001):
        decode_frame(encode_frame(Hello(version)))
    assert protocol._decode_shared.cache_info().currsize <= bound


def test_threads_share_the_decode_cache_through_evictions():
    # More threads than cores, each cycling through more distinct frames than
    # the cache holds, with a short switch interval: every decode must still
    # be the message its frame encodes.
    frames = [(Hello(version), encode_frame(Hello(version))) for version in range(1, 201)]
    wrong = []

    def work(offset):
        for i in range(len(frames)):
            msg, frame = frames[(i + offset) % len(frames)]
            if decode_frame(frame) != msg:
                wrong.append(msg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(17 * k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def test_a_shared_message_cannot_be_changed():
    request = decode_frame(encode_frame(make_request()))
    spec = decode_frame(encode_frame(ModelSpec(SPEC)))
    for msg, field in ((request, "seed"), (spec, "encoder"), (spec.encoder, "seed"),
                       (decode_frame(encode_frame(Hello(PROTOCOL_VERSION))), "protocol_version")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(msg, field, 1)


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
        try:
            v = float(v)
        except OverflowError:  # an int past the float range
            raise ParameterError(f"{field} must be finite") from None
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
    with pytest.raises(ParameterError, match="^mean must be finite$"):
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


def f64(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


_GOOD_MEAN = f64(0.5, -1.25)
_GOOD_COV = f64(1.0, 0.125, 2.0)


@pytest.mark.parametrize("literal", [b"NaN", b"1e400", b"-Infinity"])
def test_decode_rejects_non_finite_covariance_entry(literal):
    msg = StatsResponse((0.5, -1.25), (1.0, 0.125, 2.0), 32, "s", 9.0, SPEC.fingerprint())
    payload, tail = split_frame(encode_frame(msg))
    assert tail == _GOOD_MEAN + _GOOD_COV
    with pytest.raises(FrameError) as info:
        decode_frame(raw_frame(payload, _GOOD_MEAN + f64(1.0, float(literal), 2.0)))
    assert info.value.code == "BAD_PAYLOAD"
    assert "covariance must be finite" in str(info.value)


def stats_payload(**over) -> dict:
    msg = StatsResponse((0.5, -1.25), (1.0, 0.125, 2.0), 32, "s", 9.0, SPEC.fingerprint())
    return dict(payload_of(msg), **over)


def stats_frame(tail=_GOOD_MEAN + _GOOD_COV, **over) -> bytes:
    return raw_frame(stats_payload(**over), tail)


def _non_utf8_head() -> bytes:
    frame = stats_frame()
    assert frame.count(b'"session_id": "s"') == 1
    return frame.replace(b'"session_id": "s"', b'"session_id": "\xe9"')


# Malformed STATS_RESPONSE arrays, and array tails where no message carries
# one; each must decode to BAD_PAYLOAD.
HOSTILE_ARRAYS = {
    "tail_missing": stats_frame(tail=None),
    "tail_on_hello": raw_frame(payload_of(Hello(PROTOCOL_VERSION)), _GOOD_MEAN),
    "tail_on_error": raw_frame(payload_of(ErrorMessage("INTERNAL", "boom", "s")), _GOOD_MEAN),
    "tail_one_byte_short": stats_frame(tail=(_GOOD_MEAN + _GOOD_COV)[:-1]),
    "tail_one_byte_long": stats_frame(tail=_GOOD_MEAN + _GOOD_COV + b"\0"),
    "tail_20_bytes": stats_frame(tail=bytes(20)),
    "negative_count": stats_frame(mean=-2),
    "true_count": stats_frame(mean=True),
    "float_count": stats_frame(covariance=3.0),
    "string_count": stats_frame(covariance="3"),
    "v2_base64_count": stats_frame(covariance=base64.b64encode(_GOOD_COV).decode("ascii")),
    "huge_count": stats_frame(mean=10**30),
    "counts_swapped": stats_frame(mean=3, covariance=2),
    "empty_mean": stats_frame(tail=b"", mean=0, covariance=0),
    "nan_bits": stats_frame(tail=struct.pack("<Q", 0x7FF8000000000000) + bytes(8) + _GOOD_COV),
    "signalling_nan_bits": stats_frame(tail=struct.pack("<2Q", 0, 0x7FF0000000000001)
                                       + _GOOD_COV),
    "plus_inf_bits": stats_frame(tail=struct.pack("<2Q", 0x7FF0000000000000, 0) + _GOOD_COV),
    "minus_inf_bits": stats_frame(tail=struct.pack("<2Q", 0, 0xFFF0000000000000) + _GOOD_COV),
    "non_utf8_head": _non_utf8_head(),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_ARRAYS))
def test_decode_maps_hostile_array_payloads_to_bad_payload(name):
    decode_frame(stats_frame())  # the untouched payload decodes
    with pytest.raises(FrameError) as info:
        decode_frame(HOSTILE_ARRAYS[name])
    assert info.value.code == "BAD_PAYLOAD"


@pytest.mark.parametrize("name", sorted(HOSTILE_ARRAYS))
def test_orchestrate_survives_a_hostile_array_reply(name):
    def hostile():
        channel = InProcessChannel(SellerNode("mallory", raw=make_dataset()))
        channel.session = _ReplayingSession(HOSTILE_ARRAYS[name])
        return channel

    endpoints = in_process_endpoints(seller_nodes()[:1]) + [("mallory", hostile)]
    buyer, outcomes = orchestrate_valuation(
        make_dataset(seed=10), endpoints, SPEC, BUDGET, master_seed=1000,
    )
    by_id = {o.node_id: o for o in outcomes}
    assert "BAD_PAYLOAD" in by_id["mallory"].failure
    assert not by_id["alpha"].failed


# Finite float64 values of every kind: zeros of both signs, subnormals, the
# extremes and random bit patterns.
def finite_float64(rng, n):
    bits = rng.integers(0, 1 << 64, n, dtype=np.uint64)
    values = bits.view(np.float64).copy()
    values[~np.isfinite(values)] = 0.0
    specials = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
    values[:min(n, 4)] = specials[:min(n, 4)]
    return values


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_every_valid_frame_re_encodes_to_its_bytes(rng, d):
    messages = list(ALL_MESSAGES)
    for _ in range(20):
        messages.append(StatsResponse(finite_float64(rng, d), finite_float64(rng, d * (d + 1) // 2),
                                      32, "sess-0001", 9.0, SPEC.fingerprint()))
    for msg in messages:
        frame = encode_frame(msg)
        again = decode_frame(frame)
        assert again == msg
        assert encode_frame(again) == frame
        if isinstance(msg, StatsResponse):
            assert split_frame(frame)[1] == msg.mean.tobytes() + msg.covariance.tobytes()


def test_float64_payload_bytes_match_struct_oracle():
    mean = (-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2)
    cov = (1.0, -5e-324, 2.2250738585072014e-308, -1.7976931348623157e308, 1 / 3,
           -0.0, 1e-300, 0.0, 123456789.0, 2.0**-1074 * 3)
    resp = StatsResponse(mean, cov, 32, "sess-1", 9.0, SPEC.fingerprint())
    frame = encode_frame(resp)
    payload, tail = split_frame(frame)
    assert (payload["mean"], payload["covariance"]) == (4, 10)
    assert tail == struct.pack("<4d", *mean) + struct.pack("<10d", *cov)
    again = decode_frame(frame)
    assert again.mean.astype("<f8").tobytes() == struct.pack("<4d", *mean)
    assert again.covariance.astype("<f8").tobytes() == struct.pack("<10d", *cov)
    assert encode_frame(again) == frame


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("d", [4, 256, 768])
def test_stats_response_frame_size_is_head_plus_raw_float64(d):
    sizes = (d, d * (d + 1) // 2)
    resp = StatsResponse(np.linspace(-1.0, 1.0, d), np.full(sizes[1], 0.5), 512,
                         "sess-size", 3.25, SPEC.fingerprint())
    head = dict(type="STATS_RESPONSE", mean=sizes[0], covariance=sizes[1], count=512,
                session_id="sess-size", sigma_used=3.25,
                encoder_fingerprint=SPEC.fingerprint())
    frame = encode_frame(resp)
    assert len(frame) == 4 + len(canonical_json(head)) + 1 + 8 * (d + d * (d + 1) // 2)
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


@pytest.mark.parametrize("d", [1, 4, 256])
def test_pack_and_expand_match_the_2d_index_form_bit_for_bit(rng, d):
    # The oracle packs and mirrors through np.triu_indices' 2-D fancy index;
    # a signed zero on either side of the diagonal must keep its sign.
    c = rng.standard_normal((d, d))
    c[rng.random((d, d)) < 0.25] = -0.0
    c[rng.random((d, d)) < 0.25] = 0.0
    rows, cols = np.triu_indices(d)
    packed = pack_covariance(c)
    assert packed.tobytes() == c[rows, cols].tobytes()
    assert np.array_equal(np.signbit(packed), np.signbit(c[rows, cols]))
    expected = np.empty((d, d))
    expected[rows, cols] = packed
    expected[cols, rows] = packed
    back = expand_covariance(packed, d)
    assert back.shape == (d, d) and back.flags.c_contiguous
    assert back.tobytes() == expected.tobytes()
    assert np.array_equal(np.signbit(back), np.signbit(expected))
    # a transposed (not C-contiguous) input packs the same as its copy
    assert pack_covariance(c.T).tobytes() == pack_covariance(c.T.copy()).tobytes()


def test_pack_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ShapeError):
        pack_covariance(np.zeros((2, 3)))


# ------------------------------------------------------------ subset draw


def test_subset_draw_deterministic():
    np.testing.assert_array_equal(_subset_indices(200, 32, 900), _subset_indices(200, 32, 900))


def test_subset_draw_without_replacement():
    # all 64 rows drawn exactly once
    np.testing.assert_array_equal(np.sort(_subset_indices(64, 64, 1)), np.arange(64))


def test_seller_pipeline_insufficient_rows():
    data = make_dataset(m=16)
    with pytest.raises(InsufficientSamplesError):
        seller_pipeline(data, SPEC, PrivacyBudget(0.8, 1e-5, 1.0, 17), 1, 2)


def test_subset_draw_uniformity():
    # index frequencies over many seeds stay near uniform
    counts = np.zeros(20)
    trials = 4000
    for seed in range(trials):
        np.add.at(counts, _subset_indices(20, 5, seed), 1)
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
    assert PROTOCOL_VERSION == 3
    session = SellerSession(SellerNode("s1", raw=make_dataset()))
    reply = decode_frame(session.handle_bytes(V1_HELLO))
    assert isinstance(reply, ErrorMessage)
    assert reply.code == "VERSION_MISMATCH"
    assert reply.message == "node speaks version 3, peer sent 1"
    # not ready: a request still gets PROTOCOL_ORDER
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert reply.code == "PROTOCOL_ORDER"


# The HELLO a version-2 buyer sends, byte for byte.
V2_HELLO = raw_frame(b'{"protocol_version":2,"type":"HELLO"}')


def test_session_rejects_version_2_hello():
    session = SellerSession(SellerNode("s1", raw=make_dataset()))
    reply = decode_frame(session.handle_bytes(V2_HELLO))
    assert isinstance(reply, ErrorMessage)
    assert reply.code == "VERSION_MISMATCH"
    assert reply.message == "node speaks version 3, peer sent 2"
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert reply.code == "PROTOCOL_ORDER"


def test_a_refused_hello_leaves_a_session_that_served_data_as_if_it_had_none():
    session = SellerSession(SellerNode("s1", raw=make_dataset()))
    for msg in (Hello(PROTOCOL_VERSION), ModelSpec(SPEC)):
        session.handle_bytes(encode_frame(msg))
    assert isinstance(decode_frame(session.handle_bytes(encode_frame(make_request()))),
                      StatsResponse)
    reply = decode_frame(session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION + 1))))
    assert reply.code == "VERSION_MISMATCH"
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert reply.code == "PROTOCOL_ORDER"
    assert reply.message == "HELLO must precede any other message"
    # a HELLO of this version makes it ready, with no spec
    session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION)))
    reply = decode_frame(session.handle_bytes(encode_frame(make_request())))
    assert reply.message == "MODEL_SPEC must precede STATS_REQUEST"


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


def widest_framed_reply():
    """The widest latent_dim whose STATS_RESPONSE fits MAX_FRAME_BYTES, from
    the frame's layout: a JSON head of at most 6 bytes per byte of a request
    (the echoed session id) and 1 KiB for its other fields, the newline, and
    d + d(d+1)/2 float64s."""
    head = 6 * _MAX_REQUEST_BYTES + 1024
    dim = 1
    while head + 1 + 8 * (dim + 1) * (dim + 4) // 2 <= MAX_FRAME_BYTES:
        dim += 1
    return dim


def wide_spec(latent_dim):
    """A spec, and a node of raw data it fits, as wide as latent_dim (so the
    projection can be signal-faithful)."""
    return (EncoderSpec("toy_projection", 271828, 4096, latent_dim, 4096, 0.0),
            SellerNode("s1", raw=make_dataset(m=20, p=4096)))


def test_a_reply_head_stays_within_the_room_a_frame_keeps_for_it():
    # A session id longer than any request holds, of characters json.dumps
    # escapes to 6 bytes each, with the largest count and the longest sigma.
    session = "\x00" * _MAX_REQUEST_BYTES
    reply = StatsResponse((0.5,), (1.0,), 2**63 - 1, session, -2.2250738585072014e-308,
                          SPEC.fingerprint())
    frame = encode_frame(reply)
    head = frame.index(b"\n") - 4
    assert 6 * _MAX_REQUEST_BYTES < head <= 6 * _MAX_REQUEST_BYTES + 1024


@pytest.mark.parametrize("over", [0, 1])
def test_a_spec_whose_reply_cannot_be_framed_is_refused_at_model_spec(monkeypatch, over):
    # Nothing is drawn for a spec: the projection is made on the first request.
    def not_drawn(spec):
        raise AssertionError("the projection was drawn")

    monkeypatch.setattr("priarta.encoder.projection_matrix", not_drawn)
    spec, node = wide_spec(widest_framed_reply() + over)
    session = SellerSession(node)
    session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION)))
    reply = decode_frame(session.handle_bytes(encode_frame(ModelSpec(spec))))
    if over:
        assert reply.code == "SPEC_MISMATCH"
        assert reply.message.startswith(f"latent_dim {spec.latent_dim} is above")
    else:
        assert reply == Hello(PROTOCOL_VERSION)


def test_a_buyer_refuses_a_spec_whose_reply_cannot_be_framed_before_any_connect():
    spec, node = wide_spec(widest_framed_reply() + 1)
    connects = []
    with pytest.raises(ParameterError) as info:
        orchestrate_valuation(node.raw, [("s1", lambda: connects.append(1))], spec, BUDGET,
                              master_seed=1)
    assert connects == []
    session = SellerSession(node)
    session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION)))
    reply = decode_frame(session.handle_bytes(encode_frame(ModelSpec(spec))))
    assert (reply.code, reply.message) == ("SPEC_MISMATCH", str(info.value))


def test_raw_rows_never_cross_the_wire():
    # no raw coordinate appears in any reply payload
    data = make_dataset()
    session = ready_session(SellerNode("s1", raw=data))
    reply_bytes = session.handle_bytes(encode_frame(make_request()))
    payload, released = split_frame(reply_bytes)
    assert len(released) == 8 * (payload["mean"] + payload["covariance"])
    for value in data.points[:5].ravel():
        assert repr(float(value)).encode() not in reply_bytes
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


def public_stages(data, spec, budget, subset_seed, noise_seed):
    """Reference for seller_pipeline: numpy's draw of the subset rows, then
    the public stages one after another."""
    rng = np.random.Generator(np.random.PCG64(subset_seed))
    idx = rng.choice(data.count, size=budget.subset_size, replace=False)
    if isinstance(data, RawDataset):
        vectors = encode(spec, RawDataset(data.points[idx], data.labels[idx], data.class_probs))
    else:
        vectors = data.vectors[idx]
    clipped = clip_to_ball(vectors, budget.clip_radius)
    calibration = calibrate_sigma(budget)
    noisy = apply_gaussian_mechanism(clipped, calibration.sigma, noise_seed).vectors
    # The moments in numpy, checked by the public constructor.
    mean = noisy.mean(axis=0)
    centered = noisy - mean
    summary = GaussianSummary(mean, centered.T @ centered / (len(noisy) - 1), len(noisy))
    return summary, calibration


def embedding_node_input(d, seed, subset=300):
    # row norms near 0.15 sqrt(d) > 1, so clipping scales most rows
    rng = np.random.default_rng(seed)
    data = EmbeddingSet(rng.standard_normal((600, d)) * 0.15, 1.0, False)
    return (data, EncoderSpec("external", seed, d, d, d, 0.0),
            PrivacyBudget(0.8, 1e-5, 1.0, subset))


PIPELINE_INPUTS = {
    "raw-d4": lambda seed: (make_dataset(seed=seed), SPEC, BUDGET),
    "embeddings-d64": lambda seed: embedding_node_input(64, seed),
    "embeddings-d256": lambda seed: embedding_node_input(256, seed),
}


@pytest.mark.parametrize("seed", [3, 17, 256, 9001])
@pytest.mark.parametrize("kind", sorted(PIPELINE_INPUTS))
def test_seller_pipeline_is_bitwise_its_public_stages(kind, seed):
    data, spec, budget = PIPELINE_INPUTS[kind](seed)
    subset_seed, noise_seed = node_seeds(seed, "s1")
    summary, calibration = seller_pipeline(data, spec, budget, subset_seed, noise_seed)
    expected, expected_calibration = public_stages(data, spec, budget, subset_seed, noise_seed)
    assert summary.mean.tobytes() == expected.mean.tobytes()
    assert summary.covariance.tobytes() == expected.covariance.tobytes()
    assert summary.count == expected.count == budget.subset_size
    assert calibration == expected_calibration


FRAME_INPUTS = {
    "raw-d4": lambda: (make_dataset(seed=5), SPEC, BUDGET),
    "embeddings-d64": lambda: embedding_node_input(64, 5),
    "rank-deficient-d32": lambda: embedding_node_input(32, 5, subset=16),
}


@pytest.mark.parametrize("kind", sorted(FRAME_INPUTS))
def test_seller_frames_equal_frames_of_the_public_constructors(kind):
    # A seller builds its summary and reply without the public constructors'
    # checks; its frame is still the one GaussianSummary and StatsResponse give.
    data, spec, budget = FRAME_INPUTS[kind]()
    node = (SellerNode("s1", raw=data) if isinstance(data, RawDataset)
            else SellerNode("s1", embeddings=data))
    session = SellerSession(node)
    for msg in (Hello(PROTOCOL_VERSION), ModelSpec(spec)):
        assert isinstance(decode_frame(session.handle_bytes(encode_frame(msg))), Hello)
    request = make_request(subset=budget.subset_size, seed=99)
    frame = session.handle_bytes(encode_frame(request))
    summary, calibration = public_stages(data, spec, budget, *node_seeds(99, "s1"))
    if kind.startswith("rank-deficient"):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(summary.covariance)
    expected = encode_frame(StatsResponse(
        summary.mean, pack_covariance(summary.covariance), summary.count,
        request.session_id, calibration.sigma, spec.fingerprint(),
    ))
    assert frame == expected


def test_buyer_summary_noiseless_default():
    data = make_dataset()
    a = buyer_summary(data, SPEC, 1.0)
    b = buyer_summary(data, SPEC, 1.0)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.covariance, b.covariance)
    assert a.count == data.count


# The one slot a dataset keeps its buyer summary in: not a dataclass field.
KEPT = "_buyer_summary"


def assert_same_summary(a, b):
    assert a.count == b.count
    for name in ("mean", "covariance", "_covariance_factor"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_the_buyer_summary_is_made_once_per_dataset_spec_and_clip_radius():
    data = make_dataset(seed=10)
    first = buyer_summary(data, SPEC, 1.0)
    assert buyer_summary(data, SPEC, 1.0) is first
    assert buyer_summary(data, SPEC, 1) is first  # the radius as the float it is
    # Another spec or clip radius is made again, as for an equal new dataset,
    # and takes the one slot; going back makes the first summary again.
    other = dataclasses.replace(SPEC, seed=SPEC.seed + 1)
    for spec, radius in ((other, 1.0), (SPEC, 0.5), (SPEC, 1.0)):
        made = buyer_summary(data, spec, radius)
        assert made is not first and vars(data)[KEPT][1] is made
        assert_same_summary(made, buyer_summary(
            RawDataset(data.points, data.labels, data.class_probs), spec, radius))
    assert_same_summary(made, first)
    with pytest.raises(ParameterError, match="clip radius"):
        buyer_summary(data, SPEC, True)


def test_a_noisy_buyer_round_neither_reads_nor_keeps_the_buyer_summary():
    data = make_dataset(seed=10)
    nodes = [SellerNode("alpha", raw=make_dataset(seed=11))]

    def noisy_round():
        buyer, _ = orchestrate_valuation(data, in_process_endpoints(nodes), SPEC, BUDGET,
                                         master_seed=1000, noisy_buyer=True)
        return buyer

    noisy = noisy_round()
    assert KEPT not in vars(data)
    kept = buyer_summary(data, SPEC, BUDGET.clip_radius)
    again = noisy_round()
    assert vars(data)[KEPT][1] is kept
    assert_same_summary(again, noisy)
    assert again.covariance.tobytes() != kept.covariance.tobytes()


def test_a_buyer_summary_that_raises_keeps_nothing_and_raises_again(monkeypatch):
    # Rows on the sphere of radius 1e300 give a covariance past the float range.
    rows = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]])
    wide = EmbeddingSet(rows, 1e300, False)
    spec = EncoderSpec("external", 5, 2, 2, 2, 0.0)
    for _ in range(2):
        with pytest.raises(NumericInputError):
            buyer_summary(wide, spec, 1e300)
        assert KEPT not in vars(wide)
    # A covariance whose factorization finds it far from PSD.
    data = make_dataset(seed=10)
    eigh = np.linalg.eigh

    def not_psd(a):
        w, q = eigh(a)
        w[0] = -w[-1]
        return w, q

    def no_cholesky(a):
        raise np.linalg.LinAlgError("not positive definite")

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "cholesky", no_cholesky)
        patched.setattr(np.linalg, "eigh", not_psd)
        for _ in range(2):
            with pytest.raises(NotPSDError):
                buyer_summary(data, SPEC, 1.0)
            assert KEPT not in vars(data)
    assert_same_summary(buyer_summary(data, SPEC, 1.0), buyer_summary(
        RawDataset(data.points, data.labels, data.class_probs), SPEC, 1.0))


def test_a_seller_node_refuses_the_buyers_id_in_the_words_of_a_round():
    with pytest.raises(ParameterError) as node:
        SellerNode(protocol.BUYER_ID, raw=make_dataset())
    with pytest.raises(ParameterError) as round_:
        orchestrate_valuation(make_dataset(), [(protocol.BUYER_ID, None)], SPEC, BUDGET)
    assert str(node.value) == str(round_.value) == (
        "seller node id 'buyer' is reserved for the buyer")


@pytest.mark.parametrize("kind", ["raw", "embeddings"])
def test_a_kept_buyer_summary_is_no_field_of_its_dataset(kind, rng):
    if kind == "raw":
        data, spec, nodes = make_dataset(seed=10), SPEC, [SellerNode("alpha", raw=make_dataset())]
    else:
        data = EmbeddingSet(rng.standard_normal((64, 4)), 1.0, False)
        spec = EncoderSpec("external", 5, 4, 4, 4, 0.0)
        nodes = [SellerNode("alpha", embeddings=EmbeddingSet(rng.standard_normal((64, 4)),
                                                              1.0, False))]

    def surface():
        return ([f.name for f in dataclasses.fields(data)], repr(data), data == data,
                {name: np.asarray(value).tobytes()
                 for name, value in dataclasses.asdict(data).items()})

    before = surface()
    orchestrate_valuation(data, in_process_endpoints(nodes), spec, BUDGET, master_seed=1000)
    assert KEPT in vars(data)
    assert surface() == before
    assert KEPT not in vars(dataclasses.replace(data))


EXTERNAL_D4 = EncoderSpec("external", 5, 4, 4, 4, 0.0)


def random_embeddings(d: int, rows: int = 64, seed: int = 3) -> EmbeddingSet:
    return EmbeddingSet(np.random.default_rng(seed).standard_normal((rows, d)), 1.0, False)


# Data and a spec that cannot encode it, with the error the buyer gets.
MISFITS = {
    "embeddings-8-latent-4": (lambda: random_embeddings(8), EXTERNAL_D4, ShapeError),
    "raw-16-input-12": (make_dataset, EncoderSpec("toy_projection", 271828, 12, 4, 8, 0.0),
                        ShapeError),
    "raw-external": (make_dataset, EncoderSpec("external", 5, 16, 4, 4, 0.0), ParameterError),
}


@pytest.mark.parametrize("name", sorted(MISFITS))
def test_a_buyer_the_spec_does_not_fit_is_refused_before_any_reply(name):
    # the round's sellers fit the spec; the buyer's own data does not
    make_data, spec, error = MISFITS[name]
    seller = (SellerNode("alpha", embeddings=random_embeddings(spec.latent_dim))
              if spec.kind == "external"
              else SellerNode("alpha", raw=make_dataset(seed=11, p=spec.input_dim)))
    channels = []
    (node_id, connect), = in_process_endpoints([seller])
    with pytest.raises(error) as info:
        orchestrate_valuation(make_data(), [(node_id, kept(connect, channels))], spec, BUDGET,
                              master_seed=1000)
    # the seller was asked, and no reply met the buyer
    assert [kind for kind, _ in channels[0].transcript] == ["send"] * 3
    # a seller holding the same data refuses the spec with the same words
    node = (SellerNode("s", embeddings=make_data()) if name.startswith("embeddings")
            else SellerNode("s", raw=make_data()))
    session = SellerSession(node)
    session.handle_bytes(encode_frame(Hello(PROTOCOL_VERSION)))
    reply = decode_frame(session.handle_bytes(encode_frame(ModelSpec(spec))))
    assert (reply.code, reply.message) == ("SPEC_MISMATCH", str(info.value))


def test_a_pre_encoded_buyer_takes_any_spec_of_its_latent_dim():
    # the seller's rule that a pre-encoded node serves only external specs
    # is the seller's own: a buyer's embeddings meet a toy spec of their width
    nodes = [SellerNode("alpha", raw=make_dataset(seed=11))]
    buyer, (outcome,) = orchestrate_valuation(random_embeddings(4), in_process_endpoints(nodes),
                                              SPEC, BUDGET, master_seed=1000)
    assert not outcome.failed and buyer.dim == 4


def clamp_band_rows():
    """Rows (x, 0.9 x): the computed covariance's lowest eigenvalue is
    rounding below the band -d * eps * lambda_max, where the public
    constructor rebuilds it, and above the floor -PSD_TOL * lambda_max."""
    x = np.random.default_rng(1365).standard_normal(100)
    return np.column_stack([x, 0.9 * x])


def test_a_covariance_in_the_clamp_band_is_kept_by_summarize_and_clamped_for_the_buyer():
    rows = clamp_band_rows()
    centered = rows - rows.mean(axis=0)
    moments = centered.T @ centered / 99
    moments = (moments + moments.T) / 2
    w = np.linalg.eigvalsh(moments)
    assert -1e-10 * w[-1] <= w[0] < -2 * np.finfo(float).eps * w[-1]
    public = GaussianSummary(rows.mean(axis=0), moments, 100)
    assert public.covariance.tobytes() != moments.tobytes()
    # summarize (and so a seller's reply) keeps it as computed
    assert summarize(EmbeddingSet(rows, 1e3, False)).covariance.tobytes() == moments.tobytes()
    # the buyer's own summary is clamped as the public constructor clamps it
    spec = EncoderSpec("external", 5, 2, 2, 2, 0.0)
    buyer = buyer_summary(EmbeddingSet(rows, 1e3, False), spec, 1e3)
    assert buyer.covariance.tobytes() == public.covariance.tobytes()
    assert buyer._covariance_factor.tobytes() == public._covariance_factor.tobytes()


# (data, spec, clip radius, noise sigma) of buyers whose W2 factor is a
# Cholesky factor, an eigh factor of a singular covariance, an eigh factor of
# a covariance rebuilt from that eigh, and a Cholesky factor of noised rows.
BUYERS = {
    "positive-definite": (lambda: random_embeddings(4), EXTERNAL_D4, 1.0, 0.0),
    "singular": (lambda: random_embeddings(4, rows=4), EXTERNAL_D4, 1.0, 0.0),
    "band-edge-rebuilt": (lambda: EmbeddingSet(clamp_band_rows(), 1e3, False),
                          EncoderSpec("external", 5, 2, 2, 2, 0.0), 1e3, 0.0),
    "noised": (make_dataset, SPEC, 1.0, 0.5),
}


@pytest.mark.parametrize("case", sorted(BUYERS))
def test_the_buyer_summary_is_the_public_summary_of_its_moments(case):
    make_data, spec, radius, sigma = BUYERS[case]
    data = make_data()
    buyer = buyer_summary(data, spec, radius, sigma, 3)
    assert "_covariance_factor" in vars(buyer)  # made with the summary
    # the moments by the public stages, then the public constructor
    vectors = encode(spec, data) if isinstance(data, RawDataset) else data.vectors
    prepared = clip_to_ball(vectors, radius)
    if sigma > 0.0:
        prepared = apply_gaussian_mechanism(prepared, sigma, 3)
    moments = summarize(prepared)
    public = GaussianSummary(moments.mean, moments.covariance, moments.count)
    assert_same_summary(buyer, public)
    assert buyer._cholesky_norm2 == public._cholesky_norm2
    assert (public._cholesky_norm2 is None) == (case in ("singular", "band-edge-rebuilt"))
    assert ((public.covariance.tobytes() != moments.covariance.tobytes())
            == (case == "band-edge-rebuilt"))


def test_seeded_round_seed_streams():
    # every seed of a seeded round, rebuilt from derive_seed and numpy alone
    master = 1000
    nodes = [SellerNode("alpha", raw=make_dataset(seed=11)),
             SellerNode("beta", raw=make_dataset(seed=12))]
    channels = []
    endpoints = [(node_id, kept(connect, channels))
                 for node_id, connect in in_process_endpoints(nodes)]
    buyer_data = make_dataset(seed=10)
    buyer, outcomes = orchestrate_valuation(buyer_data, endpoints, SPEC, BUDGET,
                                            master_seed=master, noisy_buyer=True)
    request_seed = derive_seed(master, "buyer", "stats-request")
    for channel in channels:
        kind, frame = channel.transcript[2]
        assert kind == "send" and decode_frame(frame).seed == request_seed
    for node, outcome in zip(nodes, outcomes):
        assert outcome.node_id == node.node_id
        expected, _ = public_stages(node.raw, SPEC, BUDGET,
                                    derive_seed(request_seed, node.node_id, "subset"),
                                    derive_seed(request_seed, node.node_id, "noise"))
        assert outcome.summary.mean.tobytes() == expected.mean.tobytes()
        assert outcome.summary.covariance.tobytes() == expected.covariance.tobytes()
    clipped = clip_to_ball(encode(SPEC, buyer_data), BUDGET.clip_radius)
    expected = summarize(apply_gaussian_mechanism(clipped, calibrate_sigma(BUDGET).sigma,
                                                  derive_seed(request_seed, "buyer", "noise")))
    assert buyer.mean.tobytes() == expected.mean.tobytes()
    assert buyer.covariance.tobytes() == expected.covariance.tobytes()


def test_secure_sessions_draw_different_seeds(monkeypatch):
    seeds = []
    pipeline = protocol.seller_pipeline

    def recorded(data, spec, budget, subset_seed, noise_seed):
        seeds.extend((subset_seed, noise_seed))
        return pipeline(data, spec, budget, subset_seed, noise_seed)

    monkeypatch.setattr(protocol, "seller_pipeline", recorded)
    request = encode_frame(make_request(mode=MODE_SECURE, seed=None))
    for _ in range(2):
        assert isinstance(decode_frame(ready_session().handle_bytes(request)), StatsResponse)
    assert len(seeds) == len(set(seeds)) == 4


def test_seller_never_releases_an_unnoised_summary():
    # a clip radius whose R^2 underflows would calibrate sigma to 0, and one
    # whose R^2 overflows leaves no finite sigma; the seller refuses either
    # budget as an invalid parameter, without a calibration warning
    for radius in (1e-200, 1e200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reply = decode_frame(ready_session().handle_bytes(
                encode_frame(make_request(clip_radius=radius))))
        assert isinstance(reply, ErrorMessage)
        assert reply.code == "INVALID_PARAMETER"


def test_seller_refuses_a_budget_whose_noised_covariance_overflows():
    # at R = 1e100, sigma ~ 1e201: every noised second moment would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reply = decode_frame(ready_session().handle_bytes(
            encode_frame(make_request(clip_radius=1e100))))
    assert isinstance(reply, ErrorMessage)
    assert reply.code == "INVALID_PARAMETER"
    assert "overflows the noised covariance of 32 rows" in reply.message


def test_an_accepted_budget_whose_covariance_overflows_gets_an_error_reply():
    # R = 7.9e76 gives sigma ~ 5e153 on 32 rows: accepted, since the refusal
    # bound keeps every budget that can yield a summary, yet the second
    # moments overflow here. The reply is an ERROR, with no numpy warning;
    # the spec fits, so its code names the parameters.
    PrivacyBudget(0.8, 1e-5, 7.9e76, 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reply = decode_frame(ready_session().handle_bytes(
            encode_frame(make_request(clip_radius=7.9e76))))
    assert isinstance(reply, ErrorMessage)
    assert reply.code == "INVALID_PARAMETER"
    assert reply.message == "matrix contains non-finite entries"


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


# What a version-1 seller answers to a version-3 HELLO, byte for byte.
V1_MISMATCH_REPLY = raw_frame(
    b'{"code":"VERSION_MISMATCH","message":"node speaks version 1, peer sent 3",'
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


@pytest.mark.parametrize("sellers", [3, 12])
def test_round_cost_per_seller_is_fixed(monkeypatch, sellers):
    # Each seller costs its own reply and no more: the buyer encodes its three
    # requests once a round, every seller acks with the one pre-encoded frame,
    # each distinct frame without arrays is decoded once (the ack is the
    # HELLO request's bytes), no seller rebuilds a dataset for its subset, and
    # the projection is drawn at most once (by its seed).
    nodes = [SellerNode(f"s{i:02d}", raw=make_dataset(seed=20 + i)) for i in range(sellers)]
    buyer_data = make_dataset(seed=10)
    counts = Counter()

    def counted(key, fn, when=lambda *args: True):
        def wrapper(*args):
            counts[key] += when(*args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(protocol, "encode_frame", counted("frames", protocol.encode_frame))
    monkeypatch.setattr(protocol, "_decode_message",
                        counted("payloads", protocol._decode_message))
    protocol._decode_shared.cache_clear()
    monkeypatch.setattr(RawDataset, "__post_init__",
                        counted("datasets", RawDataset.__post_init__))
    monkeypatch.setattr(np.random, "PCG64", counted("projections", np.random.PCG64,
                                                    lambda seed=None: seed == SPEC.seed))
    _, outcomes = orchestrate_valuation(buyer_data, in_process_endpoints(nodes), SPEC, BUDGET,
                                        master_seed=1000)
    assert not any(o.failed for o in outcomes)
    assert counts["frames"] == 3 + sellers
    assert counts["payloads"] == 3 + sellers
    assert counts["datasets"] == 0
    assert counts["projections"] <= 1


def embedding_node(node_id, rng, d, rows=64):
    return SellerNode(node_id, embeddings=EmbeddingSet(rng.standard_normal((rows, d)) * 0.1,
                                                       1.0, False))


def test_round_wire_bytes_follow_the_v3_layout(rng):
    # Each seller costs six frames, each sized from the layout alone: 4 header
    # bytes and the canonical JSON, plus for a STATS_RESPONSE one newline and
    # 8 bytes per float64 entry. Any text encoding of the arrays is larger.
    d, subset = 256, 300
    spec = EncoderSpec("external", 9, d, d, d, 0.0)
    budget = PrivacyBudget(0.8, 1e-5, 1.0, subset)
    nodes = [embedding_node(f"s{i}", rng, d, rows=400) for i in range(2)]
    buyer = embedding_node("own", rng, d, rows=400).embeddings
    _, outcomes = orchestrate_valuation(buyer, in_process_endpoints(nodes), spec, budget)
    session_id = "sess-" + "0" * 16  # secure mode: 8 random bytes in hex
    hello = canonical_json({"type": "HELLO", "protocol_version": 3})
    model_spec = canonical_json({"type": "MODEL_SPEC", "encoder": spec.to_dict()})
    request = canonical_json({"type": "STATS_REQUEST", "subset_size": subset, "epsilon": 0.8,
                              "delta": 1e-5, "clip_radius": 1.0, "session_id": session_id,
                              "mode": "secure"})
    for outcome in outcomes:
        assert not outcome.failed
        response = canonical_json({"type": "STATS_RESPONSE", "mean": d,
                                   "covariance": d * (d + 1) // 2, "count": subset,
                                   "session_id": session_id,
                                   "sigma_used": calibrate_sigma(budget).sigma,
                                   "encoder_fingerprint": spec.fingerprint()})
        sent = 3 * 4 + len(hello) + len(model_spec) + len(request)
        received = 2 * (4 + len(hello)) + 4 + len(response) + 1 + 8 * (d + d * (d + 1) // 2)
        assert (outcome.bytes_sent, outcome.bytes_received) == (sent, received)
        assert outcome.bytes_sent + outcome.bytes_received == sent + received


def test_reply_too_large_to_frame_fails_alike_on_both_transports(monkeypatch, caplog, rng):
    # A d = 16 summary is 152 float64 values, 1216 bytes: over a 1000-byte cap.
    d = 16
    node = embedding_node("wide", rng, d)
    spec = EncoderSpec("external", 5, d, d, d, 0.0)
    buyer = embedding_node("own", rng, d).embeddings
    server = serving(node)
    endpoints = (socket_endpoints([("tcp", *server.server_address)])
                 + in_process_endpoints([SellerNode("local", embeddings=node.embeddings)]))
    try:
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1000)
        _, outcomes = orchestrate_valuation(buyer, endpoints, spec, BUDGET, master_seed=3)
        failures = {o.node_id: o.failure for o in outcomes}
        assert failures["tcp"] == failures["local"]
        assert failures["tcp"].startswith("FRAME_TOO_LARGE: ")
        assert failures["tcp"].count("FRAME_TOO_LARGE") == 1
        assert "exceeds 1000" in failures["tcp"]
        monkeypatch.undo()
        # the server serves the next connection, and every seller answers
        _, outcomes = orchestrate_valuation(buyer, endpoints, spec, BUDGET, master_seed=3)
        assert not any(o.failed for o in outcomes)
    finally:
        server.shutdown()
        server.server_close()
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


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


def test_a_frame_error_names_its_code_once_on_both_transports(monkeypatch):
    # A HELLO without a type tag: the seller answers BAD_PAYLOAD, and the
    # buyer's reason carries the code once, over either transport.
    node = SellerNode("alpha", raw=make_dataset(seed=11))
    server = serving(node)
    endpoints = (socket_endpoints([("tcp", *server.server_address)])
                 + in_process_endpoints([SellerNode("local", raw=node.raw)]))
    untagged = raw_frame(b"{}")
    encode = protocol.encode_frame
    monkeypatch.setattr(protocol, "encode_frame",
                        lambda msg: untagged if isinstance(msg, Hello) else encode(msg))
    try:
        _, outcomes = orchestrate_valuation(make_dataset(seed=10), endpoints, SPEC, BUDGET,
                                            master_seed=1000)
    finally:
        server.shutdown()
        server.server_close()
    assert [o.failure for o in outcomes] == ["BAD_PAYLOAD: payload lacks a type tag"] * 2


class _LoggedChannel(InProcessChannel):
    """An in-process channel that logs its opening, sends, reads and closing
    to a shared event list."""

    def __init__(self, node, events):
        super().__init__(node)
        self.events = events
        events.append(("connect", node.node_id))

    def send(self, *msgs):
        self.events.append(("send", self.session.node.node_id, len(msgs)))
        super().send(*msgs)

    def receive(self):
        self.events.append(("receive", self.session.node.node_id))
        return super().receive()

    def close(self):
        self.events.append(("close", self.session.node.node_id))
        super().close()


def logged_endpoints(nodes, events):
    return [(node.node_id, (lambda n=node: _LoggedChannel(n, events))) for node in nodes]


def test_round_asks_every_seller_before_loading_the_buyer_and_reading_replies():
    events = []
    nodes = seller_nodes()[:2]

    def load():
        events.append(("load",))
        return make_dataset(seed=10)

    _, outcomes = orchestrate_valuation(load, logged_endpoints(nodes, events), SPEC, BUDGET,
                                        master_seed=1000)
    assert not any(o.failed for o in outcomes)
    assert events == [
        ("connect", "alpha"), ("send", "alpha", 3), ("connect", "beta"), ("send", "beta", 3),
        ("load",),
        *[("receive", "alpha")] * 3, ("close", "alpha"),
        *[("receive", "beta")] * 3, ("close", "beta"),
    ]


def test_round_of_150_sellers_holds_at_most_64_channels_open():
    events = []
    nodes = [SellerNode(f"s{i:03d}", raw=make_dataset(seed=100 + i, m=40)) for i in range(150)]
    budget = PrivacyBudget(0.8, 1e-5, 1.0, 16)
    buyer, outcomes = orchestrate_valuation(make_dataset(seed=10), logged_endpoints(nodes, events),
                                            SPEC, budget, master_seed=1000)
    open_now = peak = 0
    for event in events:
        open_now += {"connect": 1, "close": -1}.get(event[0], 0)
        peak = max(peak, open_now)
    assert peak == 64 and open_now == 0
    assert [o.node_id for o in outcomes] == [node.node_id for node in nodes]
    for node, outcome in zip(nodes, outcomes):
        alone_buyer, (alone,) = orchestrate_valuation(
            make_dataset(seed=10), in_process_endpoints([node]), SPEC, budget, master_seed=1000)
        assert not outcome.failed
        np.testing.assert_array_equal(outcome.summary.mean, alone.summary.mean)
        np.testing.assert_array_equal(outcome.summary.covariance, alone.summary.covariance)
        assert (outcome.bytes_sent, outcome.bytes_received) == (
            alone.bytes_sent, alone.bytes_received)
    np.testing.assert_array_equal(buyer.mean, alone_buyer.mean)
    np.testing.assert_array_equal(buyer.covariance, alone_buyer.covariance)


def wrong_width_buyer():
    return make_dataset(seed=10, p=12)


def unreadable_buyer():
    raise FileFormatError("buyer.raw:3: not a number")


@pytest.mark.parametrize("buyer_data, error", [
    (wrong_width_buyer, ShapeError),
    (wrong_width_buyer(), ShapeError),
    (unreadable_buyer, FileFormatError),
], ids=["loaded-wrong-width", "wrong-width", "unreadable"])
def test_a_round_that_aborts_on_the_buyer_closes_every_channel(buyer_data, error):
    # The buyer's error propagates unchanged, after every channel is closed.
    events = []
    nodes = [SellerNode(f"s{i}", raw=make_dataset(seed=20 + i)) for i in range(3)]
    with pytest.raises(error) as info:
        orchestrate_valuation(buyer_data, logged_endpoints(nodes, events), SPEC, BUDGET,
                              master_seed=1000)
    if error is FileFormatError:
        assert str(info.value) == "buyer.raw:3: not a number"
    opened = [event[1] for event in events if event[0] == "connect"]
    closed = [event[1] for event in events if event[0] == "close"]
    assert opened == closed == ["s0", "s1", "s2"]
    assert not [event for event in events if event[0] == "receive"]


class _HostileChannel(InProcessChannel):
    """An in-process channel whose i-th reply frame reaches the buyer as
    rewrite(i, reply) re-encoded (0: HELLO, 1: MODEL_SPEC ack, 2:
    STATS_RESPONSE), or whose send raises send_error after it connected. It
    notes its reads and its closing."""

    def __init__(self, node, rewrite=lambda i, reply: reply, send_error=None):
        super().__init__(node)
        self.rewrite, self.send_error = rewrite, send_error
        self.reads, self.closed = 0, False

    def send(self, *msgs):
        if self.send_error is not None:
            raise self.send_error
        super().send(*msgs)

    def _received(self, frame):
        self.reads += 1
        return super()._received(encode_frame(self.rewrite(self.reads - 1, decode_frame(frame))))

    def close(self):
        self.closed = True
        super().close()


def replaced(place, **changes):
    """A rewrite that changes these fields of the reply at place."""
    return lambda i, reply: dataclasses.replace(reply, **changes) if i == place else reply


def swapped(place, message):
    """A rewrite that answers message in place of the reply at place."""
    return lambda i, reply: message if i == place else reply


# how mallory's channel misbehaves, and the failure the buyer records
HOSTILE_CHANNELS = {
    "hello-wrong-type": (dict(rewrite=swapped(0, ModelSpec(SPEC))),
                         "expected HELLO, got ModelSpec"),
    "spec-ack-wrong-type": (dict(rewrite=swapped(1, ModelSpec(SPEC))),
                            "expected MODEL_SPEC ack, got ModelSpec"),
    "stats-wrong-type": (dict(rewrite=swapped(2, Hello(PROTOCOL_VERSION))),
                         "expected STATS_RESPONSE, got Hello"),
    "other-session": (dict(rewrite=replaced(2, session_id="sess-forged")),
                      "session id mismatch: 'sess-forged'"),
    "other-count": (dict(rewrite=replaced(2, count=BUDGET.subset_size + 1)),
                    "count contract violated: response count 33, requested 32"),
    "other-fingerprint": (dict(rewrite=replaced(2, encoder_fingerprint="0" * 16)),
                          "encoder fingerprint mismatch"),
    "send-fails": (dict(send_error=ConnectionResetError("peer reset")),
                   "ConnectionResetError: peer reset"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_CHANNELS))
def test_a_hostile_reply_fails_its_seller_alone_and_its_channel_is_closed(name):
    options, reason = HOSTILE_CHANNELS[name]
    nodes = seller_nodes()[:2]
    opened = []

    def mallory():
        opened.append(_HostileChannel(SellerNode("mallory", raw=make_dataset(seed=14)),
                                      **options))
        return opened[-1]

    def valuation_round(hostile):
        endpoints = in_process_endpoints(nodes) + ([("mallory", mallory)] if hostile else [])
        return (orchestrate_valuation(make_dataset(seed=10), endpoints, SPEC, BUDGET,
                                      master_seed=1000)[1],
                run_valuation(make_dataset(seed=10), endpoints, SPEC, BUDGET, master_seed=1000))

    honest, honest_report = valuation_round(False)
    outcomes, report = valuation_round(True)
    assert [o.failure for o in outcomes] == [None, None, reason]
    assert outcomes[:2] == honest
    assert report.entry("mallory").failure_reason == reason
    assert report.entries[:2] == honest_report.entries
    for channel in opened:
        assert channel.closed
        assert (outcomes[2].bytes_sent, outcomes[2].bytes_received) == (
            channel.bytes_sent, channel.bytes_received)
        if "send_error" in options:  # nothing sent, so nothing is read
            assert (channel.reads, channel.bytes_sent, channel.bytes_received) == (0, 0, 0)


def test_a_seller_answers_an_unhandled_failure_as_internal_and_serves_on(monkeypatch, caplog):
    session = ready_session()

    def broken(*args):
        raise RuntimeError("pipeline broke")

    monkeypatch.setattr(protocol, "seller_pipeline", broken)
    with caplog.at_level(logging.ERROR, logger="priarta"):
        reply = decode_frame(session.handle_bytes(encode_frame(make_request(session="sess-9"))))
    assert reply == ErrorMessage("INTERNAL", "RuntimeError: pipeline broke", "sess-9")
    (record,) = caplog.records
    assert record.getMessage() == "node s1: unhandled failure"
    assert record.exc_info[0] is RuntimeError
    monkeypatch.undo()
    served = decode_frame(session.handle_bytes(encode_frame(make_request(session="sess-10"))))
    assert isinstance(served, StatsResponse) and served.session_id == "sess-10"


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


def full_session(address, spec=SPEC, request=None) -> StatsResponse:
    """One pipelined round over a new connection: the STATS_RESPONSE."""
    chan = SocketChannel(*address)
    try:
        chan.send(Hello(PROTOCOL_VERSION), ModelSpec(spec), request or make_request())
        replies = [chan.receive() for _ in range(3)]
    finally:
        chan.close()
    assert [type(reply) for reply in replies] == [Hello, Hello, StatsResponse]
    return replies[-1]


def recv_exact(sock, size: int) -> bytes:
    """size bytes from sock, or fewer if the peer closes first."""
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            break
        data += chunk
    return data


def read_reply(sock) -> bytes:
    """One frame, read without reading past it."""
    header = recv_exact(sock, 4)
    return header + recv_exact(sock, int.from_bytes(header, "big"))


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


def test_server_ends_the_session_quietly_when_a_reset_peer_misses_its_error(caplog):
    with caplog.at_level(logging.DEBUG, logger="priarta"):
        server = serving(SellerNode("sock", raw=make_dataset()))
        try:
            # A 1 MiB length header, then a reset (a close with SO_LINGER 0),
            # so the FRAME_TOO_LARGE reply has nowhere to go.
            with socket.create_connection(server.server_address, timeout=10) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.sendall((1 << 20).to_bytes(4, "big"))
            # the server serves the next connection
            full_session(server.server_address)
        finally:
            server.shutdown()
            server.server_close()
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


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


@contextlib.contextmanager
def raw_peer(serve):
    """A listener whose one helper thread accepts one connection and runs
    serve(conn) on it; yields the listener's address."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        conn, _ = listener.accept()
        with conn:
            serve(conn)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=10)
        listener.close()


def test_socket_channel_reports_reply_cut_mid_frame():
    def truncating_peer(conn):
        conn.recv(4096)
        conn.sendall(encode_frame(Hello(PROTOCOL_VERSION))[:6])

    with raw_peer(truncating_peer) as address:
        chan = SocketChannel(*address)
        try:
            with pytest.raises(ProtocolFailure) as info:
                chan.request(Hello(PROTOCOL_VERSION))
            assert info.value.code == "CONNECTION_CLOSED"
        finally:
            chan.close()


def pipelined_round(address, replies: list):
    """A SocketChannel's pipelined round against a raw peer: the frames it
    received, each as its own receive() returned it."""
    chan = SocketChannel(*address)
    try:
        chan.send(Hello(PROTOCOL_VERSION), ModelSpec(SPEC), make_request())
        got = [chan.receive() for _ in replies]
    finally:
        chan.close()
    assert got == [decode_frame(reply) for reply in replies]
    return [frame for way, frame in chan.transcript if way == "recv"]


def test_socket_channel_decodes_replies_dripped_one_byte_per_write():
    replies = in_process_replies()

    def drip(conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        recv_exact(conn, len(ROUND_FRAMES))
        for byte in b"".join(replies):
            conn.sendall(bytes([byte]))
            time.sleep(0.0002)

    with raw_peer(drip) as address:
        assert pipelined_round(address, replies) == replies


def test_socket_channel_returns_replies_written_at_once_one_per_receive():
    replies = in_process_replies()

    def burst(conn):
        recv_exact(conn, len(ROUND_FRAMES))
        conn.sendall(b"".join(replies))

    with raw_peer(burst) as address:
        assert pipelined_round(address, replies) == replies


@pytest.mark.parametrize("limit", [None, 1000])
def test_socket_channel_refuses_an_oversized_header_before_its_payload(monkeypatch, limit):
    if limit is not None:  # the cap is read when a frame arrives
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", limit)
    declared = protocol.MAX_FRAME_BYTES + 1
    sent = threading.Event()

    def oversized(conn):
        recv_exact(conn, len(ROUND_FRAMES))
        conn.sendall(declared.to_bytes(4, "big"))
        sent.wait(10)  # no payload follows

    with raw_peer(oversized) as address:
        chan = SocketChannel(*address)
        # a read that waited for the payload would time out instead
        chan.sock.settimeout(2)
        try:
            chan.send(Hello(PROTOCOL_VERSION), ModelSpec(SPEC), make_request())
            with pytest.raises(FrameError) as info:
                chan.receive()
        finally:
            chan.close()
            sent.set()
    assert info.value.code == "FRAME_TOO_LARGE"
    assert f"{declared} bytes exceeds {declared - 1}" in info.value.message
    assert chan.bytes_received == 0


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


# ------------------------------------- one server thread: faults and limits
#
# Each test runs one SellerServer on one thread and drives its peers from
# the test's own thread; the limits are shrunk where a test needs them.

ROUND_FRAMES = b"".join(encode_frame(msg)
                        for msg in (Hello(PROTOCOL_VERSION), ModelSpec(SPEC), make_request()))


def in_process_replies() -> list:
    session = SellerSession(SellerNode("sock", raw=make_dataset()))
    return [session.handle_bytes(encode_frame(msg))
            for msg in (Hello(PROTOCOL_VERSION), ModelSpec(SPEC), make_request())]


def test_a_stalled_half_frame_does_not_delay_another_session():
    server = serving(SellerNode("sock", raw=make_dataset()))
    try:
        with socket.create_connection(server.server_address, timeout=10) as stalled:
            stalled.sendall(ROUND_FRAMES[:7])
            # SocketChannel gives up after 10 s, so a server stuck on the
            # stalled peer would fail this session
            full_session(server.server_address)
            stalled.settimeout(0.2)
            with pytest.raises(TimeoutError):
                stalled.recv(1)
    finally:
        server.shutdown()
        server.server_close()


def test_the_idle_deadline_closes_a_stalled_connection(monkeypatch):
    monkeypatch.setattr(protocol, "_IDLE_TIMEOUT_S", 0.3)
    server = serving(SellerNode("sock", raw=make_dataset()))
    try:
        started = time.monotonic()  # before the server accepts
        with socket.create_connection(server.server_address, timeout=10) as stalled:
            stalled.sendall(ROUND_FRAMES[:7])
            assert stalled.recv(1) == b""
            assert 0.3 <= time.monotonic() - started < 5
        full_session(server.server_address)
    finally:
        server.shutdown()
        server.server_close()


def test_peers_that_drip_bytes_hold_every_slot_for_the_idle_timeout_at_most(monkeypatch):
    # Only answered frames restart a connection's clock: three peers that
    # fill the slots and drip a declared 60,000-byte request a byte every
    # 0.4 s are closed 1 s after their HELLO, and the queued peer is served.
    monkeypatch.setattr(protocol, "_MAX_CONNECTIONS", 3)
    monkeypatch.setattr(protocol, "_IDLE_TIMEOUT_S", 1.0)
    server = serving(SellerNode("sock", raw=make_dataset()))
    drippers = []
    try:
        for _ in range(3):
            drippers.append(socket.create_connection(server.server_address, timeout=10))
            drippers[-1].sendall(encode_frame(Hello(PROTOCOL_VERSION)))
            assert isinstance(decode_frame(read_reply(drippers[-1])), Hello)
            drippers[-1].sendall(struct.pack(">I", 60_000))
        with socket.create_connection(server.server_address, timeout=10) as queued:
            started = time.monotonic()
            queued.sendall(encode_frame(Hello(PROTOCOL_VERSION)))
            while not select.select([queued], [], [], 0.4)[0]:
                assert time.monotonic() - started < 5, "the drippers still hold every slot"
                for sock in drippers:
                    with contextlib.suppress(OSError):  # closed by the server
                        sock.send(b"\0")
            assert isinstance(decode_frame(read_reply(queued)), Hello)
            assert time.monotonic() - started > 0.5
    finally:
        for sock in drippers:
            sock.close()
        server.shutdown()
        server.server_close()


def test_a_half_closed_peer_gets_the_replies_to_its_whole_frames():
    server = serving(SellerNode("sock", raw=make_dataset()))
    try:
        # whole frames, then a half frame, then the write side shut
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(ROUND_FRAMES + ROUND_FRAMES[:7])
            sock.shutdown(socket.SHUT_WR)
            assert [read_reply(sock) for _ in range(3)] == in_process_replies()
            assert sock.recv(1) == b""
        full_session(server.server_address)
    finally:
        server.shutdown()
        server.server_close()


def test_a_request_dripped_one_byte_per_write_is_answered():
    server = serving(SellerNode("sock", raw=make_dataset()))
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in ROUND_FRAMES:
                sock.sendall(bytes([byte]))
                time.sleep(0.0002)
            assert [read_reply(sock) for _ in range(3)] == in_process_replies()
    finally:
        server.shutdown()
        server.server_close()


def test_a_long_pipeline_is_answered_in_order_past_one_read_and_one_batch():
    # 500 STATS_REQUESTs: more request bytes than one read takes (64 KiB),
    # and replies twice their size, more than the server answers before it
    # sends
    frames = [encode_frame(Hello(PROTOCOL_VERSION)), encode_frame(ModelSpec(SPEC))]
    frames += [encode_frame(make_request())] * 500
    session = SellerSession(SellerNode("sock", raw=make_dataset()))
    expected = b"".join(session.handle_bytes(frame) for frame in frames)
    assert len(expected) > 2 * _MAX_REQUEST_BYTES
    server = serving(SellerNode("sock", raw=make_dataset()))
    try:
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(b"".join(frames))
            assert recv_exact(sock, len(expected)) == expected
    finally:
        server.shutdown()
        server.server_close()


def test_a_peer_that_never_reads_its_replies_does_not_block_another_session(rng):
    # A 6.6 MB STATS_RESPONSE (d = 1280) overflows the server's send buffer
    # (at most 4 MB by default on Linux) and the deaf peer's small receive
    # buffer, so the server holds the rest of it.
    d = 1280
    node = SellerNode("wide", embeddings=EmbeddingSet(rng.standard_normal((8, d)), 1.0, False))
    spec = EncoderSpec("external", 5, d, d, d, 0.0)
    request = make_request(subset=4)
    server = serving(node)
    try:
        with socket.socket() as deaf:
            deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            deaf.settimeout(10)
            deaf.connect(server.server_address)
            deaf.sendall(b"".join(encode_frame(msg)
                                  for msg in (Hello(PROTOCOL_VERSION), ModelSpec(spec), request)))
            reply = full_session(server.server_address, spec, request)
            assert len(encode_frame(reply)) > 6_000_000
    finally:
        server.shutdown()
        server.server_close()


def test_connections_one_after_another_are_served_on_one_thread():
    server = serving(SellerNode("sock", raw=make_dataset()))
    threads = threading.active_count()
    try:
        for seed in range(200):
            chan = SocketChannel(*server.server_address)
            try:
                chan.send(Hello(PROTOCOL_VERSION), ModelSpec(SPEC), make_request(seed=seed))
                replies = [chan.receive() for _ in range(3)]
                # the open connection has no thread of its own
                assert threading.active_count() == threads
            finally:
                chan.close()
            assert isinstance(replies[-1], StatsResponse)
    finally:
        server.shutdown()
        server.server_close()


def test_a_connection_past_the_cap_is_served_once_an_earlier_one_closes(monkeypatch):
    monkeypatch.setattr(protocol, "_MAX_CONNECTIONS", 2)
    server = serving(SellerNode("sock", raw=make_dataset()))
    first = SocketChannel(*server.server_address)
    second = SocketChannel(*server.server_address)
    try:
        for chan in (first, second):
            assert isinstance(chan.request(Hello(PROTOCOL_VERSION)), Hello)
        # the kernel completes the handshake; the server does not accept
        with socket.create_connection(server.server_address, timeout=10) as third:
            third.sendall(encode_frame(Hello(PROTOCOL_VERSION)))
            third.settimeout(0.3)
            with pytest.raises(TimeoutError):
                third.recv(1)
            first.close()
            third.settimeout(10)
            assert isinstance(decode_frame(read_reply(third)), Hello)
            assert isinstance(second.request(ModelSpec(SPEC)), Hello)
    finally:
        first.close()
        second.close()
        server.shutdown()
        server.server_close()


OTHER_SPEC = EncoderSpec("toy_projection", 314159, 16, 4, 8, 0.0)


def kept(connect, channels):
    """connect, appending each channel it opens to channels."""
    def opened():
        channels.append(connect())
        return channels[-1]
    return opened


def test_tcp_seller_pinned_to_another_spec_answers_the_pipelined_round(monkeypatch, caplog):
    node = SellerNode("pinned", raw=make_dataset(seed=11),
                      pinned_fingerprint=OTHER_SPEC.fingerprint())
    calls = Counter()
    pipeline = protocol.seller_pipeline

    def counted(*args):
        calls["pipeline"] += 1
        return pipeline(*args)

    monkeypatch.setattr(protocol, "seller_pipeline", counted)
    server = serving(node)
    channels = []
    (node_id, connect), = socket_endpoints([("pinned", *server.server_address)])
    endpoints = [(node_id, kept(connect, channels))]
    try:
        _, (outcome,) = orchestrate_valuation(make_dataset(seed=10), endpoints, SPEC, BUDGET,
                                              master_seed=1000)
        assert outcome.failure.startswith("SPEC_MISMATCH: ")
        # reading stops at the ERROR; the failed seller was sent all three frames
        transcript = channels[0].transcript
        assert [kind for kind, _ in transcript] == ["send"] * 3 + ["recv"] * 2
        assert outcome.bytes_sent == sum(len(frame) for kind, frame in transcript
                                         if kind == "send")
        # all three requests are answered: the STATS_REQUEST behind the
        # rejected MODEL_SPEC gets PROTOCOL_ORDER and touches no data
        chan = SocketChannel(*server.server_address)
        try:
            chan.send(Hello(PROTOCOL_VERSION), ModelSpec(SPEC), make_request())
            replies = [chan.receive() for _ in range(3)]
        finally:
            chan.close()
        assert isinstance(replies[0], Hello)
        assert [reply.code for reply in replies[1:]] == ["SPEC_MISMATCH", "PROTOCOL_ORDER"]
        assert calls["pipeline"] == 0
        # the server serves the next connection
        _, (outcome,) = orchestrate_valuation(make_dataset(seed=10), endpoints, OTHER_SPEC,
                                              BUDGET, master_seed=1000)
        assert not outcome.failed and calls["pipeline"] == 1
    finally:
        server.shutdown()
        server.server_close()
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


def test_seeded_round_transcripts_match_across_transports():
    node = SellerNode("twin", raw=make_dataset(seed=11))
    server = serving(node)
    channels = []
    try:
        for endpoints in (in_process_endpoints([node]),
                          socket_endpoints([("twin", *server.server_address)])):
            (node_id, connect), = endpoints
            orchestrate_valuation(make_dataset(seed=10), [(node_id, kept(connect, channels))],
                                  SPEC, BUDGET, master_seed=1000)
    finally:
        server.shutdown()
        server.server_close()
    inproc, tcp = channels
    assert [kind for kind, _ in tcp.transcript] == ["send"] * 3 + ["recv"] * 3
    assert inproc.transcript == tcp.transcript
