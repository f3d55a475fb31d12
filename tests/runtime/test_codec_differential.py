"""Differential test: the wire codec against the reader it replaced.

``reference_codec.py`` (next to this file) is the field-wise ``_Reader`` /
``struct.pack`` codec that ``repro.runtime.codec`` shipped before it read
each datagram in one pass.  It is test-only.  For every input below the two
must agree on value *and* on error: equal frames out of ``decode_frame``, or
:class:`CodecError` from both; byte-equal output from ``encode_packet``.
"""

import pytest
import reference_codec as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feedback import Feedback, FeedbackAction, FeedbackMode
from repro.core.header import HEADER_KEY, NetFenceHeader
from repro.obs.spans import TRACE_KEY, SpanContext
from repro.runtime import codec
from repro.simulator.packet import Packet, PacketType

# Wider than tests/properties/test_codec_roundtrip.py on purpose: non-ASCII
# names, empty strings, negative and off-grid timestamps, long MACs.
names = st.text(max_size=12)
timestamps = st.one_of(
    st.integers(min_value=-(1 << 62), max_value=1 << 62).map(lambda us: us / 1e6),
    st.floats(min_value=-1e9, max_value=4e9, allow_nan=False),
)
blobs = st.binary(max_size=40)
chains = st.lists(st.tuples(names, st.sampled_from(["incr", "decr"])),
                  max_size=5).map(tuple)
feedback_values = st.builds(
    Feedback,
    mode=st.sampled_from(list(FeedbackMode)),
    link=st.one_of(st.none(), names),
    action=st.sampled_from(list(FeedbackAction)),
    ts=timestamps,
    mac=blobs,
    token_nop=st.one_of(st.none(), blobs),
    chain=st.one_of(st.none(), chains),
)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@st.composite
def packets(draw):
    headers = {}
    if draw(st.booleans()):
        headers[HEADER_KEY] = NetFenceHeader(
            feedback=draw(st.one_of(st.none(), feedback_values)),
            returned=draw(st.one_of(st.none(), feedback_values)),
            priority=draw(st.integers(min_value=0, max_value=0xFFFF)))
    if draw(st.booleans()):
        headers[TRACE_KEY] = SpanContext(draw(u64), draw(u64), draw(u64))
    return Packet(
        src=draw(names), dst=draw(names),
        size_bytes=draw(st.integers(min_value=0, max_value=(1 << 32) - 1)),
        ptype=draw(st.sampled_from(list(PacketType))),
        flow_id=draw(names), protocol=draw(names), headers=headers,
        created_at=draw(timestamps),
        priority=draw(st.integers(min_value=0, max_value=0xFFFF)),
        src_as=draw(st.one_of(st.none(), names)),
        dst_as=draw(st.one_of(st.none(), names)),
        uid=draw(u64))


def outcome(decode, error, data):
    """``("ok", kind, value)`` or ``("error",)`` — nothing else may escape."""
    try:
        return ("ok",) + decode(data)
    except error:
        return ("error",)


def assert_same_decode(data):
    got = outcome(codec.decode_frame, codec.CodecError, data)
    want = outcome(ref.decode_frame, ref.CodecError, data)
    assert got == want, data.hex()


# ---------------------------------------------------------------------------
# encode_packet: byte-equal
# ---------------------------------------------------------------------------

@given(packets())
@settings(max_examples=300)
def test_encode_is_byte_equal(packet):
    assert codec.encode_packet(packet) == ref.encode_packet(packet)


@given(names, st.one_of(st.none(), names))
def test_encode_hello_is_byte_equal(name, as_name):
    wire = codec.encode_hello(name, as_name)
    assert wire == ref.encode_hello(name, as_name)
    assert_same_decode(wire)


def test_longest_fields_encode_and_decode_alike():
    """0xFFFF-byte strings, 0xFF-byte MACs and a 255-entry chain are legal."""
    big = "é" * 0x7FFF + "x"  # 0xFFFF bytes of UTF-8
    feedback = Feedback(FeedbackMode.MON, big, FeedbackAction.DECR, 12.5,
                        b"\xaa" * 0xFF, b"\xbb" * 0xFF,
                        tuple((f"L{i}", "decr" if i % 2 else "incr")
                              for i in range(0xFF)))
    packet = Packet(src=big, dst="b", flow_id=big, src_as=big, uid=7,
                    headers={HEADER_KEY: NetFenceHeader(feedback, feedback, 3)})
    wire = codec.encode_packet(packet)
    assert wire == ref.encode_packet(packet)
    assert_same_decode(wire)
    assert codec.decode_packet(wire) == packet


@pytest.mark.parametrize("mutate", [
    lambda p: setattr(p, "src", "é" * 0x8000),                  # 0x10000 bytes
    lambda p: setattr(p, "src_as", "x" * 0x10000),
    lambda p: setattr(p, "ptype", "regular"),                   # not the enum
    lambda p: p.headers.__setitem__(HEADER_KEY, object()),
    lambda p: p.headers.__setitem__(TRACE_KEY, (1, 2, 3)),
    lambda p: p.headers.__setitem__(TRACE_KEY, SpanContext(-1, 2, 3)),
    lambda p: setattr(p.headers[HEADER_KEY].feedback, "mac", b"m" * 0x100),
    lambda p: setattr(p.headers[HEADER_KEY].feedback, "token_nop", b"t" * 0x100),
    lambda p: setattr(p.headers[HEADER_KEY].feedback, "mode", "nop"),
    lambda p: setattr(p.headers[HEADER_KEY].feedback, "action", None),
    lambda p: setattr(p.headers[HEADER_KEY].feedback, "chain",
                      (("L", "sideways"),)),
    lambda p: setattr(p.headers[HEADER_KEY].feedback, "chain",
                      (("L", "incr"),) * 0x100),
], ids=lambda fn: None)
def test_unencodable_packets_raise_codec_error_in_both(mutate):
    packet = Packet(src="a", dst="b", headers={HEADER_KEY: NetFenceHeader(
        Feedback(FeedbackMode.MON, "L", FeedbackAction.INCR, 1.0, b"mac!", b"tok!"))})
    mutate(packet)
    with pytest.raises(ref.CodecError):
        ref.encode_packet(packet)
    with pytest.raises(codec.CodecError):
        codec.encode_packet(packet)


# ---------------------------------------------------------------------------
# decode_frame: same value or same error
# ---------------------------------------------------------------------------

@given(st.binary(max_size=200))
@settings(max_examples=500)
def test_arbitrary_bytes_decode_alike(data):
    assert_same_decode(data)


@given(st.binary(max_size=120))
@settings(max_examples=300)
def test_arbitrary_bodies_behind_a_valid_head_decode_alike(body):
    """Random bytes rarely get past the magic; these always do."""
    for kind in (codec.KIND_PACKET, codec.KIND_HELLO, 0x03):
        assert_same_decode(codec.MAGIC + bytes((codec.VERSION, kind)) + body)


@given(packets())
@settings(max_examples=100, deadline=None)
def test_every_truncation_decodes_alike(packet):
    wire = codec.encode_packet(packet)
    assert_same_decode(wire)
    for cut in range(len(wire)):
        assert_same_decode(wire[:cut])


@given(packets(), st.data())
@settings(max_examples=300)
def test_single_byte_mutations_decode_alike(packet, data):
    wire = bytearray(codec.encode_packet(packet))
    position = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    wire[position] = data.draw(st.integers(min_value=0, max_value=255))
    assert_same_decode(bytes(wire))


@given(packets(), st.binary(min_size=1, max_size=8))
@settings(max_examples=100)
def test_trailing_garbage_decodes_alike(packet, tail):
    assert_same_decode(codec.encode_packet(packet) + tail)
