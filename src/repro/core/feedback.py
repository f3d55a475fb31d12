"""Congestion policing feedback: ``nop``, ``L↑``, and ``L↓`` (§4.1, §4.4).

A feedback value has five key fields (Fig. 5): ``mode``, ``link``, ``action``,
``ts``, and ``MAC``; ``mon`` feedback additionally carries ``token_nop``.
Three MAC constructions protect it (Eqs. 1–3):

* ``token_nop = MAC_Ka(src, dst, ts, link_null, nop)``                  (1)
* ``token_L↑  = MAC_Ka(src, dst, ts, L, mon, incr)``                    (2)
* ``token_L↓  = MAC_Kai(src, dst, ts, L, mon, decr, token_nop)``        (3)

``Ka`` is the access router's time-varying secret; ``Kai`` is the pairwise
secret between the bottleneck link's AS and the sender's AS.  The bottleneck
router consumes ``token_nop`` when it computes (3) and erases it, so a
malicious downstream router cannot recompute or overwrite the feedback.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Set

from repro.crypto.keys import AccessRouterSecret, ASKeyRegistry
from repro.crypto.mac import compute_mac, mac_equal

#: The null link identifier used in nop feedback (Eq. 1).
LINK_NULL = "\x00null"


class FeedbackMode(Enum):
    NOP = "nop"
    MON = "mon"


class FeedbackAction(Enum):
    INCR = "incr"
    DECR = "decr"


# The strings Eqs. 1–3 hash for mode and action (``Enum.value`` is a
# Python-level descriptor call; every MAC below would pay it two or three
# times over).
_NOP = FeedbackMode.NOP.value
_MON = FeedbackMode.MON.value
_INCR = FeedbackAction.INCR.value
_DECR = FeedbackAction.DECR.value


@dataclass(slots=True)
class Feedback:
    """One congestion policing feedback value.

    ``chain`` is only used by the Appendix B.1 multi-bottleneck variant: it
    holds the ordered ``(link, action)`` pairs stamped by every on-path
    bottleneck, all protected by the single ``mac`` token (Eqs. 4–5).  For
    chain feedback, ``action`` summarizes the chain (``decr`` if any link
    stamped ``decr``) so the end-host presentation logic can treat it like
    ordinary feedback.

    **Treat instances as immutable.**  Stampers and routers always *replace*
    a header's feedback with a freshly constructed value, never mutate one
    in place; that contract lets the hot paths (end-host bookkeeping, packet
    headers) alias a single instance instead of copying it per packet.  Use
    :meth:`copy` (or ``dataclasses.replace``) when a derived value is needed.
    """

    mode: FeedbackMode
    link: Optional[str]
    action: FeedbackAction
    ts: float
    mac: bytes = b""
    token_nop: Optional[bytes] = None
    chain: Optional[tuple] = None

    # -- predicates ---------------------------------------------------------
    @property
    def is_nop(self) -> bool:
        return self.mode is FeedbackMode.NOP

    @property
    def is_mon(self) -> bool:
        return self.mode is FeedbackMode.MON

    @property
    def is_incr(self) -> bool:
        return self.is_mon and self.action is FeedbackAction.INCR

    @property
    def is_decr(self) -> bool:
        return self.is_mon and self.action is FeedbackAction.DECR

    def is_fresh(self, now: float, expiration: float) -> bool:
        """Freshness check: |now - ts| <= w (§4.4)."""
        return abs(now - self.ts) <= expiration

    def copy(self) -> "Feedback":
        # Direct construction: senders copy feedback on every outbound packet,
        # and ``dataclasses.replace`` re-inspects fields on each call.
        return Feedback(
            self.mode, self.link, self.action, self.ts,
            self.mac, self.token_nop, self.chain,
        )

    def describe(self) -> str:
        """Human-readable form used in logs and example output."""
        if self.is_nop:
            return "nop"
        arrow = "↑" if self.is_incr else "↓"
        return f"{self.link}{arrow}"


class FeedbackStamper:
    """Stamps and validates feedback on behalf of an *access* router.

    The access router knows its own secret ``Ka`` and, through the AS key
    registry, the pairwise key shared with any bottleneck AS, so it can both
    create nop / ``L↑`` feedback and validate all three kinds (§4.4).

    ``Ka`` rotates, but the epoch whose key protects a feedback value is a
    function of the value's own timestamp (see
    :class:`~repro.crypto.keys.AccessRouterSecret`), on the stamping and the
    validating side alike.  Validation therefore recomputes exactly the MACs
    of the equation it checks — one for ``nop`` and ``L↑``, two for ``L↓``
    (``token_nop`` under ``Ka``, then Eq. 3 under ``Kai``) — and a forged
    MAC costs that much whether it is new or replayed.
    """

    def __init__(
        self,
        secret: AccessRouterSecret,
        registry: ASKeyRegistry,
        local_as: str,
    ) -> None:
        self.secret = secret
        self.registry = registry
        self.local_as = local_as
        # MAC-verification memo.  A sender presents the *same* feedback value
        # on every packet until new feedback arrives (once per control
        # interval at most), so the verification outcome — a pure function of
        # the feedback's fields, the addressing, and the epoch key derived
        # from its timestamp — is recomputed thousands of times.  Freshness
        # (the only ``now``-dependent part) is checked outside the memo.
        # Only *successful* verifications are remembered: what fails was
        # forged, and a flood of distinct forgeries must not be able to push
        # legitimate senders' entries out of a bounded memo.
        # The memo is sharded by the validating clock's key epoch: once the
        # clock enters a new epoch, shards older than the previous epoch can
        # never be consulted again (their feedback is stale by the freshness
        # check) and are dropped wholesale.  A wall-clock policer crosses an
        # epoch every ``rotation_interval`` seconds, so without eviction this
        # memo would grow for the life of the process.
        self._verify_cache: Dict[int, Set[tuple]] = {}

    # -- stamping ------------------------------------------------------------
    def token_nop(self, src: str, dst: str, ts: float, key: Optional[bytes] = None) -> bytes:
        key = key if key is not None else self.secret.current(ts)
        return compute_mac(key, src, dst, ts, LINK_NULL, _NOP)

    def stamp_nop(self, src: str, dst: str, now: float) -> Feedback:
        """Create nop feedback (Eq. 1)."""
        return Feedback(
            mode=FeedbackMode.NOP,
            link=None,
            action=FeedbackAction.INCR,
            ts=now,
            mac=self.token_nop(src, dst, now),
        )

    def stamp_incr(self, src: str, dst: str, link: str, now: float) -> Feedback:
        """Create ``L↑`` feedback (Eq. 2), carrying a fresh ``token_nop``."""
        key = self.secret.current(now)
        mac = compute_mac(key, src, dst, now, link, _MON, _INCR)
        return Feedback(
            mode=FeedbackMode.MON,
            link=link,
            action=FeedbackAction.INCR,
            ts=now,
            mac=mac,
            token_nop=self.token_nop(src, dst, now, key=key),
        )

    # -- validation -----------------------------------------------------------
    def validate(self, feedback: Feedback, src: str, dst: str, now: float,
                 expiration: float, link_as: Optional[str] = None) -> bool:
        """Validate returned feedback presented by a sender (§4.4).

        ``link_as`` identifies the AS of the bottleneck link for ``L↓``
        feedback; the paper obtains it with an IP-to-AS mapping of the link
        identifier.  The caller (the access router) provides it from its
        link-to-AS map.
        """
        if not feedback.is_fresh(now, expiration):
            return False
        if not feedback.mac:
            return False
        now_epoch = self.secret.epoch_of(now)
        memo = self._verify_cache.get(now_epoch)
        if memo is None:
            # The clock entered a new epoch: drop the expired shards.
            for stale in [e for e in self._verify_cache if e < now_epoch - 1]:
                del self._verify_cache[stale]
            memo = self._verify_cache[now_epoch] = set()
        # ``ts`` determines the key (epoch-derived), so the memo key covers
        # every input of the MAC verification below.
        memo_key = (
            feedback.mac, feedback.mode, feedback.link, feedback.action,
            feedback.ts, src, dst, link_as,
        )
        if memo_key in memo:
            return True
        if not self._verify(feedback, src, dst, link_as):
            return False
        if len(memo) >= 8192:
            memo.clear()
        memo.add(memo_key)
        return True

    @property
    def memo_size(self) -> int:
        """Memoized verification entries across epochs, for telemetry gauges."""
        return sum(len(memo) for memo in self._verify_cache.values())

    def _verify(self, feedback: Feedback, src: str, dst: str,
                link_as: Optional[str]) -> bool:
        """Recompute the MAC of Eq. 1, 2 or 3 under the ``Ka`` that ``ts`` names."""
        ts = feedback.ts
        ka = self.secret.current(ts)
        if feedback.mode is FeedbackMode.NOP:
            expected = compute_mac(ka, src, dst, ts, LINK_NULL, _NOP)
        elif feedback.link is None:
            return False
        elif feedback.action is FeedbackAction.INCR:
            expected = compute_mac(ka, src, dst, ts, feedback.link, _MON, _INCR)
        elif link_as is None:
            return False
        else:
            # L↓: re-compute token_nop with Ka, then the MAC with Kai (Eq. 3).
            token_nop = compute_mac(ka, src, dst, ts, LINK_NULL, _NOP)
            kai = self.registry.key_for(self.local_as, link_as)
            expected = compute_mac(kai, src, dst, ts, feedback.link, _MON, _DECR, token_nop)
        return mac_equal(feedback.mac, expected)


class BottleneckStamper:
    """Stamps ``L↓`` feedback on behalf of a bottleneck router (Eq. 3).

    The bottleneck router knows the pairwise key its AS shares with the
    sender's AS (via Passport / the AS key registry).  It consumes the
    ``token_nop`` carried in the packet's current feedback and erases it.
    """

    def __init__(self, registry: ASKeyRegistry, local_as: str) -> None:
        self.registry = registry
        self.local_as = local_as

    def stamp_decr(
        self,
        current: Feedback,
        src: str,
        dst: str,
        src_as: str,
        link: str,
    ) -> Feedback:
        """Overwrite ``current`` with ``L↓`` feedback for ``link``.

        ``current`` must carry a ``token_nop`` (nop feedback's MAC *is* the
        token; ``L↑`` feedback carries it in a dedicated field).  The
        timestamp is preserved so the access router can recompute the token.
        """
        token_nop = current.token_nop if current.is_mon else current.mac
        kai = self.registry.key_for(self.local_as, src_as)
        mac = compute_mac(kai, src, dst, current.ts, link, _MON, _DECR, token_nop)
        return Feedback(
            mode=FeedbackMode.MON,
            link=link,
            action=FeedbackAction.DECR,
            ts=current.ts,
            mac=mac,
            token_nop=None,  # erased to stop downstream tampering (§4.4)
        )


# ---------------------------------------------------------------------------
# Appendix B.1: multi-bottleneck feedback in one packet (Eqs. 4–5)
# ---------------------------------------------------------------------------

def multi_stamp_nop(secret: AccessRouterSecret, src: str, dst: str, now: float) -> Feedback:
    """Access-router stamp for the multi-feedback header: Eq. (4).

    ``token_nop = MAC_Ka(src, dst, ts)``; the chain starts empty.
    """
    key = secret.current(now)
    token = compute_mac(key, src, dst, now)
    return Feedback(
        mode=FeedbackMode.NOP,
        link=None,
        action=FeedbackAction.INCR,
        ts=now,
        mac=token,
        chain=(),
    )


def multi_append(
    registry: ASKeyRegistry,
    local_as: str,
    src_as: str,
    feedback: Feedback,
    src: str,
    dst: str,
    link: str,
    action: FeedbackAction,
) -> Feedback:
    """Bottleneck-router stamp for the multi-feedback header: Eq. (5).

    Appends ``(link, action)`` to the chain and folds them into the token:
    ``token = MAC_Kai(src, dst, ts, L, action, token)``.
    """
    kai = registry.key_for(local_as, src_as)
    token = compute_mac(kai, src, dst, feedback.ts, link, action.value, feedback.mac)
    chain = tuple(feedback.chain or ()) + ((link, action.value),)
    summary = (
        FeedbackAction.DECR
        if any(act == _DECR for _, act in chain)
        else FeedbackAction.INCR
    )
    return Feedback(
        mode=FeedbackMode.MON,
        link=chain[-1][0],
        action=summary,
        ts=feedback.ts,
        mac=token,
        chain=chain,
    )


def multi_validate(
    secret: AccessRouterSecret,
    registry: ASKeyRegistry,
    local_as: str,
    feedback: Feedback,
    src: str,
    dst: str,
    now: float,
    expiration: float,
    link_as_resolver,
) -> bool:
    """Access-router validation of a multi-feedback header (Appendix B.1).

    Recomputes Eq. (4) and then folds Eq. (5) once per chain entry, resolving
    each link's AS through ``link_as_resolver`` (the IP-to-AS map).
    """
    if not feedback.is_fresh(now, expiration):
        return False
    token = compute_mac(secret.current(feedback.ts), src, dst, feedback.ts)
    for link, action in feedback.chain or ():
        link_as = link_as_resolver(link)
        if link_as is None:
            return False
        kai = registry.key_for(local_as, link_as)
        token = compute_mac(kai, src, dst, feedback.ts, link, action, token)
    return mac_equal(token, feedback.mac)
