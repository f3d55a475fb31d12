"""Epoch rollover under long-running (wall-clock) time.

A simulation crosses a handful of key epochs; a live ``runner serve``
process crosses one every ``rotation_interval`` seconds for as long as it
runs.  These tests pin the two invariants that makes that sustainable:

* the :class:`AccessRouterSecret` per-epoch key cache holds only the epochs
  that can still validate fresh feedback (current + previous);
* the :class:`FeedbackStamper` verification memo drops shards from expired
  epochs instead of growing monotonically;

and the correctness property that eviction must not break: feedback
stamped just before an epoch boundary still validates just after it — under
the one key its own timestamp names, not a choice of candidates.
"""

from repro.core.feedback import FeedbackStamper
from repro.crypto.keys import AccessRouterSecret, ASKeyRegistry

ROTATION = 128.0
LOCAL_AS = "AS-src"


def make_stamper(master: bytes = b"rollover"):
    secret = AccessRouterSecret("Ra", rotation_interval=ROTATION, master=master)
    registry = ASKeyRegistry(master=master)
    return secret, FeedbackStamper(secret, registry, LOCAL_AS)


# ---------------------------------------------------------------------------
# Key-cache eviction
# ---------------------------------------------------------------------------

def test_key_cache_bounded_across_many_epochs():
    secret, stamper = make_stamper()
    for epoch in range(1, 1001):
        boundary = epoch * ROTATION
        # The live pattern around a rollover: feedback stamped just before
        # it comes back just after it, while new feedback is being stamped.
        before = stamper.stamp_nop("h1", "h2", boundary - 0.5)
        after = stamper.stamp_nop("h1", "h2", boundary + 0.5)
        assert stamper.validate(before, "h1", "h2", boundary + 0.5, expiration=4.0)
        assert stamper.validate(after, "h1", "h2", boundary + 1.0, expiration=4.0)
        assert secret.cache_size <= 2
    # After the last advance only the live epochs remain.
    assert set(secret._key_cache) == {1000, 999}


def test_old_epoch_key_rederives_identically_after_eviction():
    """Eviction drops the cache, not the key: derivation is deterministic."""
    secret, _ = make_stamper()
    early_key = secret.current(1.0)
    for epoch in range(1, 50):
        secret.current(epoch * ROTATION + 1.0)
    assert 0 not in secret._key_cache
    assert secret._key_for_epoch(0) == early_key


def test_previous_epoch_key_survives_the_rollover():
    """The key that stamped just before a boundary is still cached after."""
    secret, _ = make_stamper()
    before = secret.current(ROTATION - 1.0)
    after = secret.current(ROTATION + 1.0)
    assert before != after
    assert set(secret._key_cache) == {0, 1}
    assert secret.current(ROTATION - 1.0) is before


# ---------------------------------------------------------------------------
# Verification-memo eviction
# ---------------------------------------------------------------------------

def test_verify_memo_evicts_expired_epoch_shards():
    _, stamper = make_stamper()
    for epoch in range(300):
        now = epoch * ROTATION + 1.0
        # A fresh distinct feedback value per epoch, validated repeatedly —
        # the live-policer pattern (one validation memo entry per sender per
        # control interval, consulted once per packet).
        feedback = stamper.stamp_nop("h1", "h2", now)
        for _ in range(3):
            assert stamper.validate(feedback, "h1", "h2", now, expiration=4.0)
        assert len(stamper._verify_cache) <= 2, (
            f"memo held shards for epochs {sorted(stamper._verify_cache)}"
        )
    assert set(stamper._verify_cache) <= {299, 298}


def test_verify_memo_entries_survive_within_live_epochs():
    """Eviction must not throw away the memo hit for still-fresh feedback."""
    _, stamper = make_stamper()
    feedback = stamper.stamp_nop("h1", "h2", 10.0)
    assert stamper.validate(feedback, "h1", "h2", 10.0, expiration=4.0)
    shard = stamper._verify_cache[0]
    assert len(shard) == 1
    # Re-validating within the epoch is a pure memo hit on the same shard.
    assert stamper.validate(feedback, "h1", "h2", 11.0, expiration=4.0)
    assert stamper._verify_cache[0] is shard


def test_feedback_stamped_before_boundary_validates_after():
    """Rollover correctness: the previous epoch's key still verifies."""
    _, stamper = make_stamper()
    ts = ROTATION - 0.5
    # Validation happens a second later, in the next epoch.
    for feedback in (stamper.stamp_nop("h1", "h2", ts),
                     stamper.stamp_incr("h1", "h2", "L", ts)):
        assert stamper.validate(feedback, "h1", "h2", ROTATION + 0.5, expiration=4.0)


def test_stale_feedback_rejected_after_many_epochs():
    _, stamper = make_stamper()
    feedback = stamper.stamp_nop("h1", "h2", 1.0)
    # Long-lived process: clock is hundreds of epochs later.
    assert not stamper.validate(
        feedback, "h1", "h2", 400 * ROTATION, expiration=4.0
    )
