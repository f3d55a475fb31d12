"""TEST-ONLY REFERENCE: the field-wise wire codec as it stood before
``repro.runtime.codec`` read each datagram in one pass (cursor object, one
bounds-checked ``take`` and one uncompiled ``struct`` call per field).  The
code below is that module verbatim; ``test_codec_differential.py`` holds the
shipping codec to it, value and error, byte for byte.  Nothing under
``src/`` may import it.  Its original docstring follows.

Deterministic wire format for packets crossing a real socket.

In simulation, :class:`~repro.simulator.packet.Packet` and its NetFence shim
header are in-memory ``__slots__`` objects handed between nodes by
reference.  The live runtime (``runner serve`` / ``runner loadgen``) moves
the same objects through UDP datagrams, which requires a byte serialization
with two properties:

* **Canonical** — every decodable byte string has exactly one in-memory
  form and re-encodes to the same bytes (``encode(decode(b)) == b``), and
  every encodable packet round-trips (``decode(encode(p)) == p``).  The
  hypothesis suite in ``tests/properties/test_codec_roundtrip.py`` holds
  both directions.
* **MAC-transparent** — a :class:`~repro.core.feedback.Feedback` stamped on
  one side of the socket must verify on the other.  The MAC layer hashes
  timestamps quantized to integer microseconds
  (:func:`repro.crypto.mac.quantize_ts`); the codec carries ``ts`` as that
  same signed 64-bit microsecond count, so the float the receiver
  reconstructs hashes identically.

Only the NetFence shim header and the observability trace context cross
the wire.  Other entries in ``Packet.headers`` (transport bookkeeping,
Passport, capability stubs) are simulator-internal object graphs with no
wire representation; a live end host rebuilds its own transport state from
addressing and ``flow_id``.

The trace context (:class:`~repro.obs.spans.SpanContext` under
``headers["trace"]``) is an *optional* trailing field guarded by its own
packet flag bit: frames without it decode exactly as before, so VERSION
stays 1, and the MAC layer never hashes it, so feedback stamped by a
non-tracing sender still verifies at a tracing receiver and vice versa.

Frame layout (all integers big-endian)::

    magic   2B  b"NF"
    version 1B  0x01
    kind    1B  0x01 packet | 0x02 hello
    body    ...

Strings are UTF-8 with a u16 length prefix; byte fields carry a u8 length
prefix.  Malformed input of any sort — truncation, trailing bytes, bad
magic, unknown enum codes, non-UTF-8 — raises :class:`CodecError`.
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Tuple

from repro.core.feedback import Feedback, FeedbackAction, FeedbackMode
from repro.core.header import HEADER_KEY, NetFenceHeader
from repro.crypto.mac import quantize_ts, unquantize_ts
from repro.obs.spans import TRACE_KEY, SpanContext
from repro.simulator.packet import Packet, PacketType

MAGIC = b"NF"
VERSION = 1

KIND_PACKET = 0x01
KIND_HELLO = 0x02

_PTYPE_CODE = {PacketType.REQUEST: 1, PacketType.REGULAR: 2, PacketType.LEGACY: 3}
_CODE_PTYPE = {code: ptype for ptype, code in _PTYPE_CODE.items()}

_MODE_CODE = {FeedbackMode.NOP: 1, FeedbackMode.MON: 2}
_CODE_MODE = {code: mode for mode, code in _MODE_CODE.items()}

_ACTION_CODE = {FeedbackAction.INCR: 1, FeedbackAction.DECR: 2}
_CODE_ACTION = {code: action for action, code in _ACTION_CODE.items()}

# Feedback flag bits.
_FB_HAS_LINK = 0x01
_FB_HAS_TOKEN = 0x02
_FB_HAS_CHAIN = 0x04

# Header flag bits.
_HDR_HAS_FEEDBACK = 0x01
_HDR_HAS_RETURNED = 0x02

# Packet flag bits.
_PKT_HAS_SRC_AS = 0x01
_PKT_HAS_DST_AS = 0x02
_PKT_HAS_HEADER = 0x04
_PKT_HAS_TRACE = 0x08


class CodecError(ValueError):
    """Raised for any malformed frame (truncated, trailing, bad values)."""


# ---------------------------------------------------------------------------
# Primitive writers / readers
# ---------------------------------------------------------------------------

def _w_str(out: list, value: str) -> None:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string field too long ({len(raw)} bytes)")
    out.append(struct.pack(">H", len(raw)))
    out.append(raw)


def _w_bytes(out: list, value: bytes) -> None:
    if len(value) > 0xFF:
        raise CodecError(f"bytes field too long ({len(value)} bytes)")
    out.append(struct.pack(">B", len(value)))
    out.append(value)


class _Reader:
    """Cursor over an immutable buffer; every read checks bounds."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise CodecError(
                f"truncated frame: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self.take(8))[0]

    def string(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in string field: {exc}") from None

    def blob(self) -> bytes:
        return self.take(self.u8())

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise CodecError(
                f"{len(self.buf) - self.pos} trailing bytes after frame body"
            )


def _encode_ts(out: list, ts: float) -> None:
    out.append(struct.pack(">q", quantize_ts(ts)))


# ---------------------------------------------------------------------------
# Feedback
# ---------------------------------------------------------------------------

def _encode_feedback(out: list, fb: Feedback) -> None:
    mode = _MODE_CODE.get(fb.mode)
    action = _ACTION_CODE.get(fb.action)
    if mode is None or action is None:
        raise CodecError(f"unencodable feedback enums: {fb.mode!r}/{fb.action!r}")
    flags = 0
    if fb.link is not None:
        flags |= _FB_HAS_LINK
    if fb.token_nop is not None:
        flags |= _FB_HAS_TOKEN
    if fb.chain is not None:
        flags |= _FB_HAS_CHAIN
    out.append(struct.pack(">BBB", mode, action, flags))
    if fb.link is not None:
        _w_str(out, fb.link)
    _encode_ts(out, fb.ts)
    _w_bytes(out, fb.mac)
    if fb.token_nop is not None:
        _w_bytes(out, fb.token_nop)
    if fb.chain is not None:
        if len(fb.chain) > 0xFF:
            raise CodecError(f"feedback chain too long ({len(fb.chain)} entries)")
        out.append(struct.pack(">B", len(fb.chain)))
        for link, action_str in fb.chain:
            try:
                code = _ACTION_CODE[FeedbackAction(action_str)]
            except (ValueError, KeyError):
                raise CodecError(f"unencodable chain action {action_str!r}") from None
            _w_str(out, link)
            out.append(struct.pack(">B", code))


def _decode_feedback(r: _Reader) -> Feedback:
    mode_code, action_code, flags = struct.unpack(">BBB", r.take(3))
    mode = _CODE_MODE.get(mode_code)
    action = _CODE_ACTION.get(action_code)
    if mode is None:
        raise CodecError(f"unknown feedback mode code {mode_code}")
    if action is None:
        raise CodecError(f"unknown feedback action code {action_code}")
    if flags & ~(_FB_HAS_LINK | _FB_HAS_TOKEN | _FB_HAS_CHAIN):
        raise CodecError(f"unknown feedback flag bits 0x{flags:02x}")
    link = r.string() if flags & _FB_HAS_LINK else None
    ts = unquantize_ts(r.i64())
    mac = r.blob()
    token_nop = r.blob() if flags & _FB_HAS_TOKEN else None
    chain: Optional[Tuple[Tuple[str, str], ...]] = None
    if flags & _FB_HAS_CHAIN:
        entries = []
        for _ in range(r.u8()):
            entry_link = r.string()
            entry_action = _CODE_ACTION.get(r.u8())
            if entry_action is None:
                raise CodecError("unknown chain action code")
            entries.append((entry_link, entry_action.value))
        chain = tuple(entries)
    return Feedback(mode, link, action, ts, mac, token_nop, chain)


# ---------------------------------------------------------------------------
# NetFence header
# ---------------------------------------------------------------------------

def _encode_header(out: list, header: NetFenceHeader) -> None:
    flags = 0
    if header.feedback is not None:
        flags |= _HDR_HAS_FEEDBACK
    if header.returned is not None:
        flags |= _HDR_HAS_RETURNED
    out.append(struct.pack(">BH", flags, header.priority))
    if header.feedback is not None:
        _encode_feedback(out, header.feedback)
    if header.returned is not None:
        _encode_feedback(out, header.returned)


def _decode_header(r: _Reader) -> NetFenceHeader:
    flags, priority = struct.unpack(">BH", r.take(3))
    if flags & ~(_HDR_HAS_FEEDBACK | _HDR_HAS_RETURNED):
        raise CodecError(f"unknown header flag bits 0x{flags:02x}")
    feedback = _decode_feedback(r) if flags & _HDR_HAS_FEEDBACK else None
    returned = _decode_feedback(r) if flags & _HDR_HAS_RETURNED else None
    return NetFenceHeader(feedback=feedback, returned=returned, priority=priority)


# ---------------------------------------------------------------------------
# Packet frames
# ---------------------------------------------------------------------------

def encode_packet(packet: Packet) -> bytes:
    """Serialize a packet (and its NetFence header, if any) to a frame."""
    ptype = _PTYPE_CODE.get(packet.ptype)
    if ptype is None:
        raise CodecError(f"unencodable packet type {packet.ptype!r}")
    flags = 0
    if packet.src_as is not None:
        flags |= _PKT_HAS_SRC_AS
    if packet.dst_as is not None:
        flags |= _PKT_HAS_DST_AS
    header = packet.headers.get(HEADER_KEY)
    if header is not None:
        flags |= _PKT_HAS_HEADER
    trace = packet.headers.get(TRACE_KEY)
    if trace is not None:
        flags |= _PKT_HAS_TRACE
    out: list = [MAGIC, struct.pack(">BBBB", VERSION, KIND_PACKET, ptype, flags)]
    _w_str(out, packet.src)
    _w_str(out, packet.dst)
    _w_str(out, packet.flow_id)
    _w_str(out, packet.protocol)
    out.append(struct.pack(">IH", packet.size_bytes, packet.priority))
    _encode_ts(out, packet.created_at)
    out.append(struct.pack(">Q", packet.uid))
    if packet.src_as is not None:
        _w_str(out, packet.src_as)
    if packet.dst_as is not None:
        _w_str(out, packet.dst_as)
    if header is not None:
        if not isinstance(header, NetFenceHeader):
            raise CodecError(f"netfence header has unexpected type {type(header)!r}")
        _encode_header(out, header)
    if trace is not None:
        if not isinstance(trace, SpanContext):
            raise CodecError(f"trace context has unexpected type {type(trace)!r}")
        for field in (trace.trace_id, trace.span_id, trace.parent_id):
            if not isinstance(field, int) or not 0 <= field < 1 << 64:
                raise CodecError(f"trace context id out of range: {field!r}")
        out.append(struct.pack(">QQQ", trace.trace_id, trace.span_id,
                               trace.parent_id))
    return b"".join(out)


def _decode_packet_body(r: _Reader) -> Packet:
    ptype_code, flags = struct.unpack(">BB", r.take(2))
    ptype = _CODE_PTYPE.get(ptype_code)
    if ptype is None:
        raise CodecError(f"unknown packet type code {ptype_code}")
    if flags & ~(_PKT_HAS_SRC_AS | _PKT_HAS_DST_AS | _PKT_HAS_HEADER
                 | _PKT_HAS_TRACE):
        raise CodecError(f"unknown packet flag bits 0x{flags:02x}")
    src = r.string()
    dst = r.string()
    flow_id = r.string()
    protocol = r.string()
    size_bytes = r.u32()
    priority = r.u16()
    created_at = unquantize_ts(r.i64())
    uid = r.u64()
    src_as = r.string() if flags & _PKT_HAS_SRC_AS else None
    dst_as = r.string() if flags & _PKT_HAS_DST_AS else None
    headers = {}
    if flags & _PKT_HAS_HEADER:
        headers[HEADER_KEY] = _decode_header(r)
    if flags & _PKT_HAS_TRACE:
        headers[TRACE_KEY] = SpanContext(r.u64(), r.u64(), r.u64())
    r.done()
    return Packet(
        src=src,
        dst=dst,
        size_bytes=size_bytes,
        ptype=ptype,
        flow_id=flow_id,
        protocol=protocol,
        headers=headers,
        created_at=created_at,
        priority=priority,
        src_as=src_as,
        dst_as=dst_as,
        uid=uid,
    )


# ---------------------------------------------------------------------------
# Hello frames (loadgen endpoint registration)
# ---------------------------------------------------------------------------

def encode_hello(name: str, as_name: Optional[str] = None) -> bytes:
    """A hello frame: binds a host name (and AS) to the sending address."""
    out: list = [MAGIC, struct.pack(">BBB", VERSION, KIND_HELLO,
                                    1 if as_name is not None else 0)]
    _w_str(out, name)
    if as_name is not None:
        _w_str(out, as_name)
    return b"".join(out)


def _decode_hello_body(r: _Reader) -> Tuple[str, Optional[str]]:
    has_as = r.u8()
    if has_as not in (0, 1):
        raise CodecError(f"bad hello flag byte {has_as}")
    name = r.string()
    as_name = r.string() if has_as else None
    r.done()
    return name, as_name


# ---------------------------------------------------------------------------
# Top-level frame dispatch
# ---------------------------------------------------------------------------

def decode_frame(data: bytes) -> Tuple[str, Any]:
    """Decode one datagram.

    Returns ``("packet", Packet)`` or ``("hello", (name, as_name))``.
    Raises :class:`CodecError` on any malformed input.
    """
    r = _Reader(data)
    if r.take(2) != MAGIC:
        raise CodecError("bad magic (not a NetFence frame)")
    version = r.u8()
    if version != VERSION:
        raise CodecError(f"unsupported frame version {version}")
    kind = r.u8()
    if kind == KIND_PACKET:
        return "packet", _decode_packet_body(r)
    if kind == KIND_HELLO:
        return "hello", _decode_hello_body(r)
    raise CodecError(f"unknown frame kind 0x{kind:02x}")


def decode_packet(data: bytes) -> Packet:
    """Decode a frame that must contain a packet."""
    kind, value = decode_frame(data)
    if kind != "packet":
        raise CodecError(f"expected a packet frame, got {kind!r}")
    return value
