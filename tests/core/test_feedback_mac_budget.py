"""What one feedback validation may cost, and the epoch edge it must survive.

The access router's scalability argument (§4.4, §6.2) is a fixed amount of
work per packet: check freshness, verify *one* MAC.  The feedback's own
timestamp names the epoch key, so validation recomputes exactly the MACs of
the equation it checks — never a second candidate key — and a flood of
forgeries cannot evict what legitimate senders have had verified.
"""

import pytest

from repro.core import feedback as feedback_module
from repro.core.feedback import (
    BottleneckStamper,
    Feedback,
    FeedbackAction,
    FeedbackMode,
    FeedbackStamper,
    multi_append,
    multi_stamp_nop,
    multi_validate,
)
from repro.core.header import HEADER_KEY, NetFenceHeader
from repro.crypto.keys import AccessRouterSecret, ASKeyRegistry
from repro.crypto.mac import quantize_ts
from repro.runtime.codec import decode_packet, encode_packet
from repro.simulator.packet import Packet

SRC, DST, LINK = "alice", "bob", "Rbl->Rbr"
ACCESS_AS, LINK_AS = "AS-src", "AS-core"
ROTATION = 128.0
W = 4.0
FORGED = b"\xde\xad\xbe\xef"


@pytest.fixture
def stampers():
    secret = AccessRouterSecret("Ra", rotation_interval=ROTATION, master=b"budget")
    registry = ASKeyRegistry(master=b"budget")
    return (FeedbackStamper(secret, registry, ACCESS_AS),
            BottleneckStamper(registry, LINK_AS))


@pytest.fixture
def mac_calls(monkeypatch):
    """Counts ``compute_mac`` calls on the stamp/validate path."""
    calls = []
    real = feedback_module.compute_mac

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(feedback_module, "compute_mac", counted)
    return calls


def over_the_wire(feedback):
    packet = Packet(src=SRC, dst=DST, headers={HEADER_KEY: NetFenceHeader(feedback)})
    return decode_packet(encode_packet(packet)).headers[HEADER_KEY].feedback


# ---------------------------------------------------------------------------
# MAC budget
# ---------------------------------------------------------------------------

# Just after a rotation, where a two-candidate validator would pay double.
NOW = ROTATION + 1.0

FORGERIES = {
    "nop": (Feedback(FeedbackMode.NOP, None, FeedbackAction.INCR, NOW - 0.5, FORGED), 1),
    "incr": (Feedback(FeedbackMode.MON, LINK, FeedbackAction.INCR, NOW - 0.5, FORGED,
                      token_nop=FORGED), 1),
    # L↓ is Eq. 3 over token_nop: one MAC under Ka, one under Kai.
    "decr": (Feedback(FeedbackMode.MON, LINK, FeedbackAction.DECR, NOW - 0.5, FORGED), 2),
    "nop-previous-epoch": (
        Feedback(FeedbackMode.NOP, None, FeedbackAction.INCR, ROTATION - 0.5, FORGED), 1),
    "stale-nop": (Feedback(FeedbackMode.NOP, None, FeedbackAction.INCR, NOW - 60.0, FORGED), 0),
    "stale-decr": (Feedback(FeedbackMode.MON, LINK, FeedbackAction.DECR, NOW - 60.0, FORGED), 0),
    "empty-mac": (Feedback(FeedbackMode.NOP, None, FeedbackAction.INCR, NOW - 0.5, b""), 0),
}


@pytest.mark.parametrize("kind", sorted(FORGERIES))
def test_forged_feedback_costs_its_equation_and_no_more(stampers, mac_calls, kind):
    access, _ = stampers
    forged, budget = FORGERIES[kind]
    access.secret.current(NOW)  # epoch keys derived: derive_key is not compute_mac here
    for _ in range(3):  # replaying a forgery buys nothing and costs the same
        del mac_calls[:]
        assert not access.validate(forged, SRC, DST, NOW, W, link_as=LINK_AS)
        assert len(mac_calls) == budget


def test_genuine_feedback_is_verified_once_then_remembered(stampers, mac_calls):
    access, bottleneck = stampers
    nop = access.stamp_nop(SRC, DST, NOW)
    incr = access.stamp_incr(SRC, DST, LINK, NOW)
    decr = bottleneck.stamp_decr(incr, SRC, DST, ACCESS_AS, LINK)
    for genuine, budget in ((nop, 1), (incr, 1), (decr, 2)):
        del mac_calls[:]
        assert access.validate(genuine, SRC, DST, NOW + 0.1, W, link_as=LINK_AS)
        assert len(mac_calls) == budget
        del mac_calls[:]
        assert access.validate(genuine, SRC, DST, NOW + 0.2, W, link_as=LINK_AS)
        assert mac_calls == []  # re-presentation: the memo answers


def test_forgery_flood_cannot_evict_a_verified_sender(stampers, mac_calls):
    """Regression: failed verifications were memoised too, and the memo is
    cleared at 8192 entries — 10 000 distinct forgeries flushed everyone."""
    access, _ = stampers
    genuine = access.stamp_nop(SRC, DST, NOW)
    assert access.validate(genuine, SRC, DST, NOW, W)
    for i in range(10_000):
        forged = Feedback(FeedbackMode.NOP, None, FeedbackAction.INCR, NOW,
                          i.to_bytes(4, "big"))
        if forged.mac != genuine.mac:
            assert not access.validate(forged, "mallory", DST, NOW, W)
    assert access.memo_size == 1
    del mac_calls[:]
    assert access.validate(genuine, SRC, DST, NOW + 0.5, W)
    assert mac_calls == []


def test_multi_validate_folds_one_mac_per_link(mac_calls):
    secret = AccessRouterSecret("Ra", rotation_interval=ROTATION, master=b"budget")
    registry = ASKeyRegistry(master=b"budget")
    fb = multi_stamp_nop(secret, SRC, DST, 2 * ROTATION - 0.5)
    fb = multi_append(registry, LINK_AS, ACCESS_AS, fb, SRC, DST, LINK,
                      FeedbackAction.DECR)
    resolver = {LINK: LINK_AS}.get
    del mac_calls[:]
    # Stamped before the rotation, validated after it: still Eq. 4 + Eq. 5.
    assert multi_validate(secret, registry, ACCESS_AS, fb, SRC, DST,
                          2 * ROTATION + 0.5, W, resolver)
    assert len(mac_calls) == 2
    forged = fb.copy()
    forged.mac = FORGED
    del mac_calls[:]
    assert not multi_validate(secret, registry, ACCESS_AS, forged, SRC, DST,
                              2 * ROTATION + 0.5, W, resolver)
    assert len(mac_calls) == 2


# ---------------------------------------------------------------------------
# Epoch edge: a timestamp that quantizes across the rotation boundary
# ---------------------------------------------------------------------------

EDGE_TS = ROTATION - 0.4e-6


def test_edge_timestamp_quantizes_into_the_next_epoch(stampers):
    access, _ = stampers
    assert EDGE_TS < ROTATION
    assert quantize_ts(EDGE_TS) == quantize_ts(ROTATION)
    assert access.secret.epoch_of(EDGE_TS) == 1


@pytest.mark.parametrize("kind", ["nop", "incr", "decr"])
def test_feedback_stamped_on_the_edge_verifies_after_the_wire(stampers, kind):
    access, bottleneck = stampers
    if kind == "nop":
        stamped = access.stamp_nop(SRC, DST, EDGE_TS)
    else:
        stamped = access.stamp_incr(SRC, DST, LINK, EDGE_TS)
        if kind == "decr":
            stamped = bottleneck.stamp_decr(stamped, SRC, DST, ACCESS_AS, LINK)
    received = over_the_wire(stamped)
    assert received.ts == ROTATION  # what the wire's microseconds reconstruct
    assert access.validate(received, SRC, DST, ROTATION + 1.0, W, link_as=LINK_AS)
    # The in-memory value (simulation never crosses a wire) verifies too.
    assert access.validate(stamped, SRC, DST, ROTATION + 1.0, W, link_as=LINK_AS)


@pytest.mark.parametrize("field, value", [
    ("mode", FeedbackMode.NOP),
    ("link", "OtherLink"),
    ("action", FeedbackAction.DECR),
    ("ts", ROTATION + 1e-6),
    ("ts", ROTATION - 1e-6),  # back across the boundary: another key entirely
])
def test_tampered_edge_feedback_still_fails(stampers, field, value):
    access, _ = stampers
    received = over_the_wire(access.stamp_incr(SRC, DST, LINK, EDGE_TS))
    setattr(received, field, value)
    assert not access.validate(over_the_wire(received), SRC, DST, ROTATION + 1.0, W,
                               link_as=LINK_AS)


@pytest.mark.parametrize("src, dst", [("mallory", DST), (SRC, "carol")])
def test_edge_feedback_is_bound_to_its_addresses(stampers, src, dst):
    access, _ = stampers
    received = over_the_wire(access.stamp_incr(SRC, DST, LINK, EDGE_TS))
    assert not access.validate(received, src, dst, ROTATION + 1.0, W)
