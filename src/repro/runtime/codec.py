"""Deterministic wire format for packets crossing a real socket.

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

Each datagram is read once, front to back, through an integer offset into
the received ``bytes`` (no cursor object, no per-field copy).  Bounds are
checked three ways: a fixed-width block is read with a precompiled
:class:`struct.Struct` whose ``unpack_from`` refuses to run past the buffer
(``struct.error``, as ``IndexError`` for a single byte, becomes
:class:`CodecError` in :func:`decode_frame`); a length-prefixed field
compares its end offset with ``len(data)`` before it slices; and the offset
after the last field must equal ``len(data)``.  The reader this replaced
lives on as ``tests/runtime/reference_codec.py``, which
``tests/runtime/test_codec_differential.py`` holds this module to, value
and error, frame by frame.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.core.feedback import Feedback, FeedbackAction, FeedbackMode
from repro.core.header import HEADER_KEY, NetFenceHeader
from repro.crypto.mac import quantize_ts, unquantize_ts
from repro.obs.spans import TRACE_KEY, SpanContext
from repro.simulator.packet import Packet, PacketType

MAGIC = b"NF"
VERSION = 1

KIND_PACKET = 0x01
KIND_HELLO = 0x02

# Wire codes.  Decoding indexes by the (int) code; encoding compares enum
# members by identity, because hashing an Enum member is a Python-level call.
_CODE_PTYPE = {1: PacketType.REQUEST, 2: PacketType.REGULAR, 3: PacketType.LEGACY}
_CODE_MODE = {1: FeedbackMode.NOP, 2: FeedbackMode.MON}
_CODE_ACTION = {1: FeedbackAction.INCR, 2: FeedbackAction.DECR}
_REQUEST, _REGULAR, _LEGACY = PacketType.REQUEST, PacketType.REGULAR, PacketType.LEGACY
_NOP, _MON = FeedbackMode.NOP, FeedbackMode.MON
_INCR, _DECR = FeedbackAction.INCR, FeedbackAction.DECR
#: Chain entries carry the action as its string value (``Feedback.chain``).
_CHAIN_ACTION = {1: _INCR.value, 2: _DECR.value}

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

# Fixed-width blocks, compiled once.
_FRAME_HEAD = struct.Struct(">2sBB")      # magic | version | kind
_PACKET_HEAD = struct.Struct(">2sBBBB")   # frame head | ptype | flags
_HELLO_HEAD = struct.Struct(">2sBBB")     # frame head | has_as
_PACKET_FIXED = struct.Struct(">IHqQ")    # size | priority | created_at | uid
_HEADER_HEAD = struct.Struct(">BH")       # flags | priority
_FEEDBACK_HEAD = struct.Struct(">BBB")    # mode | action | flags
_TS_MAC_LEN = struct.Struct(">qB")        # ts | length of the MAC that follows
_TRACE = struct.Struct(">QQQ")            # trace_id | span_id | parent_id
_U16 = struct.Struct(">H")


class CodecError(ValueError):
    """Raised for any malformed frame (truncated, trailing, bad values)."""


def _truncated(wanted: int, pos: int, size: int) -> CodecError:
    return CodecError(f"truncated frame: wanted {wanted} bytes at offset {pos}, "
                      f"have {size - pos}")


# ---------------------------------------------------------------------------
# Length-prefixed fields (str.encode / bytes.decode default to UTF-8)
# ---------------------------------------------------------------------------

def _lp_str(value: str) -> bytes:
    raw = value.encode()
    if len(raw) > 0xFFFF:
        raise CodecError(f"string field too long ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


def _str_at(data: bytes, pos: int, size: int) -> Tuple[str, int]:
    """The u16-prefixed string at ``pos`` and the offset after it."""
    start = pos + 2
    end = start + _U16.unpack_from(data, pos)[0]
    if end > size:
        raise _truncated(end - start, start, size)
    return data[start:end].decode(), end


# ---------------------------------------------------------------------------
# Feedback
# ---------------------------------------------------------------------------

def _encode_feedback(out: List[bytes], fb: Feedback) -> None:
    mode = 1 if fb.mode is _NOP else 2 if fb.mode is _MON else 0
    action = 1 if fb.action is _INCR else 2 if fb.action is _DECR else 0
    if not (mode and action):
        raise CodecError(f"unencodable feedback enums: {fb.mode!r}/{fb.action!r}")
    link, chain = fb.link, fb.chain
    mac, token_nop = fb.mac, fb.token_nop
    out.append(_FEEDBACK_HEAD.pack(
        mode, action, (_FB_HAS_LINK if link is not None else 0)
        | (_FB_HAS_TOKEN if token_nop is not None else 0)
        | (_FB_HAS_CHAIN if chain is not None else 0)))
    if link is not None:
        out.append(_lp_str(link))
    if len(mac) > 0xFF or (token_nop is not None and len(token_nop) > 0xFF):
        raise CodecError("bytes field too long (over 255 bytes)")
    out.append(_TS_MAC_LEN.pack(quantize_ts(fb.ts), len(mac)))
    out.append(mac)
    if token_nop is not None:
        out.append(bytes((len(token_nop),)))
        out.append(token_nop)
    if chain is not None:
        if len(chain) > 0xFF:
            raise CodecError(f"feedback chain too long ({len(chain)} entries)")
        out.append(bytes((len(chain),)))
        for entry_link, action_str in chain:
            code = 1 if action_str == _INCR.value else 2 if action_str == _DECR.value else 0
            if not code:
                raise CodecError(f"unencodable chain action {action_str!r}")
            out.append(_lp_str(entry_link))
            out.append(bytes((code,)))


def _decode_feedback(data: bytes, pos: int, size: int) -> Tuple[Feedback, int]:
    mode_code, action_code, flags = _FEEDBACK_HEAD.unpack_from(data, pos)
    pos += 3
    mode = _CODE_MODE.get(mode_code)
    action = _CODE_ACTION.get(action_code)
    if mode is None:
        raise CodecError(f"unknown feedback mode code {mode_code}")
    if action is None:
        raise CodecError(f"unknown feedback action code {action_code}")
    if flags & ~(_FB_HAS_LINK | _FB_HAS_TOKEN | _FB_HAS_CHAIN):
        raise CodecError(f"unknown feedback flag bits 0x{flags:02x}")
    link: Optional[str] = None
    if flags & _FB_HAS_LINK:
        link, pos = _str_at(data, pos, size)
    ts_us, mac_len = _TS_MAC_LEN.unpack_from(data, pos)
    pos += 9
    end = pos + mac_len
    if end > size:
        raise _truncated(mac_len, pos, size)
    mac = data[pos:end]
    pos = end
    token_nop: Optional[bytes] = None
    if flags & _FB_HAS_TOKEN:
        pos = end + 1
        end = pos + data[end]
        if end > size:
            raise _truncated(end - pos, pos, size)
        token_nop = data[pos:end]
        pos = end
    chain: Optional[Tuple[Tuple[str, str], ...]] = None
    if flags & _FB_HAS_CHAIN:
        entries = []
        count = data[pos]
        pos += 1
        for _ in range(count):
            entry_link, pos = _str_at(data, pos, size)
            entry_action = _CHAIN_ACTION.get(data[pos])
            pos += 1
            if entry_action is None:
                raise CodecError("unknown chain action code")
            entries.append((entry_link, entry_action))
        chain = tuple(entries)
    return Feedback(mode, link, action, unquantize_ts(ts_us), mac, token_nop, chain), pos


# ---------------------------------------------------------------------------
# Packet frames
# ---------------------------------------------------------------------------

def encode_packet(packet: Packet) -> bytes:
    """Serialize a packet (and its NetFence header, if any) to a frame."""
    ptype = packet.ptype
    code = 1 if ptype is _REQUEST else 2 if ptype is _REGULAR else 3 if ptype is _LEGACY else 0
    if not code:
        raise CodecError(f"unencodable packet type {ptype!r}")
    src_as, dst_as = packet.src_as, packet.dst_as
    header = packet.headers.get(HEADER_KEY)
    trace = packet.headers.get(TRACE_KEY)
    flags = ((_PKT_HAS_SRC_AS if src_as is not None else 0)
             | (_PKT_HAS_DST_AS if dst_as is not None else 0)
             | (_PKT_HAS_HEADER if header is not None else 0)
             | (_PKT_HAS_TRACE if trace is not None else 0))
    out = [
        _PACKET_HEAD.pack(MAGIC, VERSION, KIND_PACKET, code, flags),
        _lp_str(packet.src), _lp_str(packet.dst),
        _lp_str(packet.flow_id), _lp_str(packet.protocol),
        _PACKET_FIXED.pack(packet.size_bytes, packet.priority,
                           quantize_ts(packet.created_at), packet.uid),
    ]
    if src_as is not None:
        out.append(_lp_str(src_as))
    if dst_as is not None:
        out.append(_lp_str(dst_as))
    if header is not None:
        if not isinstance(header, NetFenceHeader):
            raise CodecError(f"netfence header has unexpected type {type(header)!r}")
        feedback, returned = header.feedback, header.returned
        out.append(_HEADER_HEAD.pack(
            (_HDR_HAS_FEEDBACK if feedback is not None else 0)
            | (_HDR_HAS_RETURNED if returned is not None else 0), header.priority))
        if feedback is not None:
            _encode_feedback(out, feedback)
        if returned is not None:
            _encode_feedback(out, returned)
    if trace is not None:
        if not isinstance(trace, SpanContext):
            raise CodecError(f"trace context has unexpected type {type(trace)!r}")
        for field in trace:
            if not isinstance(field, int) or not 0 <= field < 1 << 64:
                raise CodecError(f"trace context id out of range: {field!r}")
        out.append(_TRACE.pack(*trace))
    return b"".join(out)


def _decode_packet(data: bytes, size: int) -> Packet:
    _magic, _version, _kind, ptype_code, flags = _PACKET_HEAD.unpack_from(data, 0)
    ptype = _CODE_PTYPE.get(ptype_code)
    if ptype is None:
        raise CodecError(f"unknown packet type code {ptype_code}")
    if flags & ~(_PKT_HAS_SRC_AS | _PKT_HAS_DST_AS | _PKT_HAS_HEADER
                 | _PKT_HAS_TRACE):
        raise CodecError(f"unknown packet flag bits 0x{flags:02x}")
    # src, dst, flow_id, protocol: _str_at, unrolled (every packet has them).
    pos = 8
    end = pos + _U16.unpack_from(data, 6)[0]
    if end > size:
        raise _truncated(end - pos, pos, size)
    src = data[pos:end].decode()
    pos = end + 2
    end = pos + _U16.unpack_from(data, end)[0]
    if end > size:
        raise _truncated(end - pos, pos, size)
    dst = data[pos:end].decode()
    pos = end + 2
    end = pos + _U16.unpack_from(data, end)[0]
    if end > size:
        raise _truncated(end - pos, pos, size)
    flow_id = data[pos:end].decode()
    pos = end + 2
    end = pos + _U16.unpack_from(data, end)[0]
    if end > size:
        raise _truncated(end - pos, pos, size)
    protocol = data[pos:end].decode()
    size_bytes, priority, created_us, uid = _PACKET_FIXED.unpack_from(data, end)
    pos = end + 22
    src_as: Optional[str] = None
    dst_as: Optional[str] = None
    if flags & _PKT_HAS_SRC_AS:
        src_as, pos = _str_at(data, pos, size)
    if flags & _PKT_HAS_DST_AS:
        dst_as, pos = _str_at(data, pos, size)
    headers: Dict[str, Any] = {}
    if flags & _PKT_HAS_HEADER:
        header_flags, header_priority = _HEADER_HEAD.unpack_from(data, pos)
        pos += 3
        if header_flags & ~(_HDR_HAS_FEEDBACK | _HDR_HAS_RETURNED):
            raise CodecError(f"unknown header flag bits 0x{header_flags:02x}")
        feedback: Optional[Feedback] = None
        returned: Optional[Feedback] = None
        if header_flags & _HDR_HAS_FEEDBACK:
            feedback, pos = _decode_feedback(data, pos, size)
        if header_flags & _HDR_HAS_RETURNED:
            returned, pos = _decode_feedback(data, pos, size)
        headers[HEADER_KEY] = NetFenceHeader(feedback, returned, header_priority)
    if flags & _PKT_HAS_TRACE:
        headers[TRACE_KEY] = SpanContext(*_TRACE.unpack_from(data, pos))
        pos += 24
    if pos != size:
        raise CodecError(f"{size - pos} trailing bytes after frame body")
    return Packet(src, dst, size_bytes, ptype, flow_id, protocol, headers,
                  unquantize_ts(created_us), priority, src_as, dst_as, uid)


# ---------------------------------------------------------------------------
# Hello frames (loadgen endpoint registration)
# ---------------------------------------------------------------------------

def encode_hello(name: str, as_name: Optional[str] = None) -> bytes:
    """A hello frame: binds a host name (and AS) to the sending address."""
    head = _HELLO_HEAD.pack(MAGIC, VERSION, KIND_HELLO, 1 if as_name is not None else 0)
    if as_name is None:
        return head + _lp_str(name)
    return head + _lp_str(name) + _lp_str(as_name)


def _decode_hello(data: bytes, size: int) -> Tuple[str, Optional[str]]:
    has_as = data[4]
    if has_as not in (0, 1):
        raise CodecError(f"bad hello flag byte {has_as}")
    name, pos = _str_at(data, 5, size)
    as_name: Optional[str] = None
    if has_as:
        as_name, pos = _str_at(data, pos, size)
    if pos != size:
        raise CodecError(f"{size - pos} trailing bytes after frame body")
    return name, as_name


# ---------------------------------------------------------------------------
# Top-level frame dispatch
# ---------------------------------------------------------------------------

def decode_frame(data: bytes) -> Tuple[str, Any]:
    """Decode one datagram.

    Returns ``("packet", Packet)`` or ``("hello", (name, as_name))``.
    Raises :class:`CodecError` on any malformed input.
    """
    size = len(data)
    try:
        magic, version, kind = _FRAME_HEAD.unpack_from(data, 0)
        if magic != MAGIC:
            raise CodecError("bad magic (not a NetFence frame)")
        if version != VERSION:
            raise CodecError(f"unsupported frame version {version}")
        if kind == KIND_PACKET:
            return "packet", _decode_packet(data, size)
        if kind == KIND_HELLO:
            return "hello", _decode_hello(data, size)
        raise CodecError(f"unknown frame kind 0x{kind:02x}")
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated frame ({size} bytes): {exc}") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in string field: {exc}") from None


def decode_packet(data: bytes) -> Packet:
    """Decode a frame that must contain a packet."""
    kind, value = decode_frame(data)
    if kind != "packet":
        raise CodecError(f"expected a packet frame, got {kind!r}")
    return value
