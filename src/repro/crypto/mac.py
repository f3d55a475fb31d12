"""Keyed message authentication codes.

The paper uses AES-128 as the MAC primitive because of hardware support
(§6.2).  Any secure keyed MAC provides the property NetFence relies on —
end systems and downstream routers cannot forge feedback without the key —
so we use Python's built-in BLAKE2b in keyed mode, truncated to 32 bits to
match the header's MAC field width (Fig. 6).
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Union

Field = Union[str, bytes, int, float, None]

#: Width of the MAC field in the NetFence header (Fig. 6): 32 bits.
MAC_BYTES = 4


def quantize_ts(ts: float) -> int:
    """Timestamp → integer microseconds, as :func:`compute_mac` hashes it.

    The wire codec (:mod:`repro.runtime.codec`) carries timestamps as this
    integer so that a MAC stamped on one side of a socket verifies on the
    other: both sides hash ``quantize_ts(ts)``, and ``quantize_ts(us / 1e6)
    == us`` exactly for any |us| below ~2**52 (microsecond counts fit a
    float's 53-bit mantissa for tens of millions of years).
    """
    return round(ts * 1e6)  # round() of a float is already an int


def unquantize_ts(us: int) -> float:
    """Inverse of :func:`quantize_ts` (exact for |us| < 2**52)."""
    return us / 1e6


def _encode_field(field: Field) -> bytes:
    # The general case: ``compute_mac`` handles exact ``str`` / ``float`` /
    # ``bytes`` itself and sends everything else (None, bool, int, and
    # subclasses of the three) here.  bool must stay ahead of int since bool
    # is an int subclass.
    if isinstance(field, str):
        return field.encode("utf-8")
    if isinstance(field, float):
        return quantize_ts(field).to_bytes(16, "big", signed=True)
    if isinstance(field, bytes):
        return field
    if field is None:
        return b"\x00"
    if isinstance(field, bool):
        return b"\x01" if field else b"\x00"
    if isinstance(field, int):
        return field.to_bytes(16, "big", signed=True)
    raise TypeError(f"unsupported MAC field type: {type(field)!r}")


#: The 4-byte big-endian length prefix of every field shorter than 256 bytes
#: (host names, link ids, timestamps, tokens: all of them in practice).
_LEN_PREFIX = tuple(n.to_bytes(4, "big") for n in range(256))

#: Keyed-hasher midstates, one per MAC key.  Initializing a keyed BLAKE2b
#: hashes a full key block; ``copy()`` of the initialized hasher reproduces
#: that state with a memcpy.  Keys are few (per-epoch router secrets and
#: AS-pair keys), so the cache stays tiny; it is cleared defensively if a
#: pathological caller floods it with distinct keys.
_midstate_cache: dict = {}


def compute_mac(key: bytes, *fields: Field, length: int = MAC_BYTES) -> bytes:
    """Compute a truncated keyed MAC over the given fields.

    Fields are length-prefixed before hashing so that ("ab", "c") and
    ("a", "bc") produce different MACs.  A float is a timestamp and hashes
    as its :func:`quantize_ts` microsecond count, so equal timestamps hash
    identically on both sides of a socket.
    """
    if not key:
        raise ValueError("MAC key must be non-empty")
    base = _midstate_cache.get(key)
    if base is None:
        base = hashlib.blake2b(key=key[:64], digest_size=16)
        if len(_midstate_cache) >= 4096:
            _midstate_cache.clear()
        _midstate_cache[key] = base
    digest = base.copy()
    parts = []
    for field in fields:
        # Exact-type dispatch, by hot-path frequency: src/dst/link/mode
        # strings, the float timestamp, token bytes.
        kind = type(field)
        if kind is str:
            encoded = field.encode()
        elif kind is float:
            encoded = quantize_ts(field).to_bytes(16, "big", signed=True)
        elif kind is bytes:
            encoded = field
        else:
            encoded = _encode_field(field)
        size = len(encoded)
        parts.append(_LEN_PREFIX[size] if size < 256 else size.to_bytes(4, "big"))
        parts.append(encoded)
    digest.update(b"".join(parts))
    return digest.digest()[:length]


def mac_equal(a: bytes, b: bytes) -> bool:
    """Constant-time MAC comparison."""
    return hmac.compare_digest(a, b)


def derive_key(master: bytes, *labels: Field) -> bytes:
    """Derive a sub-key from a master secret and a list of labels."""
    return compute_mac(master, "key-derivation", *labels, length=16)
