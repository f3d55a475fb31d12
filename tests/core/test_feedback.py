"""Tests for congestion policing feedback: Eqs. (1)-(3), (4)-(5), and security."""

import pytest

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
from repro.crypto.keys import AccessRouterSecret

SRC, DST = "alice", "bob"
LINK = "Rbl->Rbr"
LINK_AS = "AS-core"
ACCESS_AS = "AS-src"
W = 4.0


@pytest.fixture
def setup(domain):
    domain.register_link(LINK, LINK_AS)
    secret = AccessRouterSecret("Ra", master=b"ra-secret")
    access = FeedbackStamper(secret, domain.key_registry, ACCESS_AS)
    bottleneck = BottleneckStamper(domain.key_registry, LINK_AS)
    return domain, secret, access, bottleneck


def test_nop_feedback_round_trip(setup):
    _, _, access, _ = setup
    nop = access.stamp_nop(SRC, DST, 10.0)
    assert nop.is_nop and not nop.is_mon
    assert access.validate(nop, SRC, DST, 10.5, W)


def test_incr_feedback_round_trip(setup):
    _, _, access, _ = setup
    incr = access.stamp_incr(SRC, DST, LINK, 10.0)
    assert incr.is_incr and incr.link == LINK
    assert incr.token_nop is not None
    assert access.validate(incr, SRC, DST, 11.0, W)


def test_decr_feedback_round_trip(setup):
    domain, _, access, bottleneck = setup
    nop = access.stamp_nop(SRC, DST, 10.0)
    decr = bottleneck.stamp_decr(nop, SRC, DST, ACCESS_AS, LINK)
    assert decr.is_decr
    assert decr.token_nop is None  # erased (§4.4)
    assert access.validate(decr, SRC, DST, 10.5, W, link_as=domain.as_for_link(LINK))


def test_decr_over_incr_feedback_validates(setup):
    domain, _, access, bottleneck = setup
    incr = access.stamp_incr(SRC, DST, LINK, 10.0)
    decr = bottleneck.stamp_decr(incr, SRC, DST, ACCESS_AS, LINK)
    assert access.validate(decr, SRC, DST, 10.5, W, link_as=LINK_AS)


def test_expired_feedback_rejected(setup):
    _, _, access, _ = setup
    nop = access.stamp_nop(SRC, DST, 10.0)
    assert not access.validate(nop, SRC, DST, 10.0 + W + 0.1, W)


def test_feedback_bound_to_src_dst_pair(setup):
    _, _, access, _ = setup
    nop = access.stamp_nop(SRC, DST, 10.0)
    assert not access.validate(nop, "mallory", DST, 10.5, W)
    assert not access.validate(nop, SRC, "other", 10.5, W)


def test_forged_mac_rejected(setup):
    _, _, access, _ = setup
    forged = Feedback(mode=FeedbackMode.MON, link=LINK, action=FeedbackAction.INCR,
                      ts=10.0, mac=b"\xde\xad\xbe\xef")
    assert not access.validate(forged, SRC, DST, 10.5, W)


def test_empty_mac_rejected(setup):
    _, _, access, _ = setup
    assert not access.validate(
        Feedback(FeedbackMode.NOP, None, FeedbackAction.INCR, ts=10.0, mac=b""),
        SRC, DST, 10.5, W)


def test_decr_cannot_be_relabelled_as_incr(setup):
    """A colluding pair cannot turn L↓ into L↑ without the access router's key."""
    _, _, access, bottleneck = setup
    nop = access.stamp_nop(SRC, DST, 10.0)
    decr = bottleneck.stamp_decr(nop, SRC, DST, ACCESS_AS, LINK)
    tampered = decr.copy()
    tampered.action = FeedbackAction.INCR
    assert not access.validate(tampered, SRC, DST, 10.5, W, link_as=LINK_AS)


def test_incr_cannot_be_moved_to_another_link(setup):
    _, _, access, _ = setup
    incr = access.stamp_incr(SRC, DST, LINK, 10.0)
    moved = incr.copy()
    moved.link = "OtherLink"
    assert not access.validate(moved, SRC, DST, 10.5, W)


def test_decr_requires_known_link_as(setup):
    _, _, access, bottleneck = setup
    nop = access.stamp_nop(SRC, DST, 10.0)
    decr = bottleneck.stamp_decr(nop, SRC, DST, ACCESS_AS, LINK)
    assert not access.validate(decr, SRC, DST, 10.5, W, link_as=None)


def test_decr_verified_for_one_link_as_is_not_memoized_for_another(setup):
    """The verify memo is keyed by ``link_as`` too: Kai differs per AS pair."""
    _, _, access, bottleneck = setup
    nop = access.stamp_nop(SRC, DST, 10.0)
    decr = bottleneck.stamp_decr(nop, SRC, DST, ACCESS_AS, LINK)
    assert access.validate(decr, SRC, DST, 10.5, W, link_as=LINK_AS)
    assert not access.validate(decr, SRC, DST, 10.5, W, link_as="AS-other")


def test_secret_rotation_accepts_recent_feedback(setup):
    _, secret, access, _ = setup
    boundary = secret.rotation_interval
    nop = access.stamp_nop(SRC, DST, boundary - 0.5)
    # Validation happens just after the secret rotated; the previous epoch's
    # key must still be accepted for fresh feedback.
    assert access.validate(nop, SRC, DST, boundary + 0.5, W)


def test_describe_strings(setup):
    _, _, access, bottleneck = setup
    nop = access.stamp_nop(SRC, DST, 1.0)
    incr = access.stamp_incr(SRC, DST, LINK, 1.0)
    decr = bottleneck.stamp_decr(nop, SRC, DST, ACCESS_AS, LINK)
    assert nop.describe() == "nop"
    assert incr.describe().endswith("↑")
    assert decr.describe().endswith("↓")


# ---------------------------------------------------------------------------
# Appendix B.1 multi-bottleneck feedback (Eqs. 4-5)
# ---------------------------------------------------------------------------

@pytest.fixture
def multi_setup(domain):
    domain.register_link("L1", "AS-1")
    domain.register_link("L2", "AS-2")
    secret = AccessRouterSecret("Ra", master=b"ra-secret")
    return domain, secret


def test_multi_feedback_chain_round_trip(multi_setup):
    domain, secret = multi_setup
    fb = multi_stamp_nop(secret, SRC, DST, 5.0)
    fb = multi_append(domain.key_registry, "AS-1", ACCESS_AS, fb, SRC, DST, "L1",
                      FeedbackAction.INCR)
    fb = multi_append(domain.key_registry, "AS-2", ACCESS_AS, fb, SRC, DST, "L2",
                      FeedbackAction.DECR)
    assert fb.chain == (("L1", "incr"), ("L2", "decr"))
    assert fb.is_decr  # summary action reflects the worst entry
    assert multi_validate(secret, domain.key_registry, ACCESS_AS, fb, SRC, DST,
                          5.5, W, domain.as_for_link)


def test_multi_feedback_tampered_chain_rejected(multi_setup):
    domain, secret = multi_setup
    fb = multi_stamp_nop(secret, SRC, DST, 5.0)
    fb = multi_append(domain.key_registry, "AS-1", ACCESS_AS, fb, SRC, DST, "L1",
                      FeedbackAction.DECR)
    tampered = fb.copy()
    tampered.chain = (("L1", "incr"),)  # downstream relabelling
    assert not multi_validate(secret, domain.key_registry, ACCESS_AS, tampered,
                              SRC, DST, 5.5, W, domain.as_for_link)


def test_multi_feedback_empty_chain_validates(multi_setup):
    domain, secret = multi_setup
    fb = multi_stamp_nop(secret, SRC, DST, 5.0)
    assert fb.is_nop and fb.chain == ()
    assert multi_validate(secret, domain.key_registry, ACCESS_AS, fb, SRC, DST,
                          5.5, W, domain.as_for_link)


def test_multi_feedback_unknown_link_rejected(multi_setup):
    domain, secret = multi_setup
    fb = multi_stamp_nop(secret, SRC, DST, 5.0)
    fb = multi_append(domain.key_registry, "AS-x", ACCESS_AS, fb, SRC, DST,
                      "UnregisteredLink", FeedbackAction.INCR)
    assert not multi_validate(secret, domain.key_registry, ACCESS_AS, fb, SRC, DST,
                              5.5, W, domain.as_for_link)
