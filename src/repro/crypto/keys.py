"""Key management: access-router secrets and AS pairwise keys.

Two kinds of keys appear in NetFence (§4.4):

* ``Ka`` — a periodically changing secret known only to an access router,
  used to protect ``nop`` and ``L↑`` feedback (Eqs. 1–2).
* ``Kai`` — a secret shared between the bottleneck link's AS and the
  sender's AS, used to protect ``L↓`` feedback (Eq. 3).  The paper
  establishes these by piggybacking a Diffie–Hellman exchange on BGP through
  Passport [26]; here a registry derives each pair's key deterministically
  from a global master secret, which gives the same functional property
  (every AS pair shares a secret that end systems do not know).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.crypto.mac import derive_key, quantize_ts


class AccessRouterSecret:
    """The time-varying secret ``Ka`` of one access router.

    The secret rotates every ``rotation_interval`` seconds.  Which epoch's
    key protects a feedback value is a pure function of the feedback's own
    *quantized* timestamp — ``quantize_ts(ts) // interval_us``, the integer
    the wire carries — so the stamping side (``ts`` is its clock) and the
    validating side (``ts`` came back in the header, possibly through the
    wire codec and up to ``w`` seconds later, §4.4) name the same key.
    Validation tries that one key, never a current-or-previous pair, and
    feedback stamped just before a rotation still verifies after it: its
    timestamp, not the validator's clock, selects the key.
    """

    def __init__(
        self,
        router_name: str,
        rotation_interval: float = 128.0,
        master: Optional[bytes] = None,
    ) -> None:
        #: The rotation interval on the MAC layer's microsecond grid.
        self._interval_us = quantize_ts(rotation_interval)
        if self._interval_us <= 0:
            raise ValueError("rotation_interval must be positive (at least 1 µs)")
        self.router_name = router_name
        self.rotation_interval = rotation_interval
        self._master = master if master is not None else os.urandom(16)
        # The per-epoch key derivation is a keyed hash; caching it is a pure
        # memoization (same epoch → same key) that keeps a MAC computation
        # off *every* stamp and validation on the hot path.  Entries from
        # epochs older than current−1 are evicted whenever the clock reaches
        # a new epoch: a finite simulation crosses a handful of epochs, but
        # a wall-clock ``runner serve`` process crosses one every
        # ``rotation_interval`` seconds for as long as it runs, and no key
        # older than the previous epoch can validate still-fresh feedback.
        self._key_cache: Dict[int, bytes] = {}

    def epoch_of(self, ts: float) -> int:
        """The key epoch of timestamp ``ts`` (public for cache owners)."""
        return quantize_ts(ts) // self._interval_us

    def _key_for_epoch(self, epoch: int) -> bytes:
        key = self._key_cache.get(epoch)
        if key is None:
            # A miss is (almost always) the clock entering a new epoch: drop
            # the keys of the epochs that expired with it.
            for stale in [e for e in self._key_cache if e < epoch - 1]:
                del self._key_cache[stale]
            key = derive_key(self._master, self.router_name, epoch)
            self._key_cache[epoch] = key
        return key

    def current(self, ts: float) -> bytes:
        """The secret in force at time ``ts``: the one that stamps feedback
        at ``ts`` and the only one that can verify feedback stamped then."""
        return self._key_for_epoch(self.epoch_of(ts))

    @property
    def cache_size(self) -> int:
        """Cached epoch keys, for telemetry gauges."""
        return len(self._key_cache)


class ASKeyRegistry:
    """Pairwise AS keys ``Kai`` (stand-in for the Passport/BGP DH exchange).

    Keys are symmetric in the AS pair: ``key_for(A, B) == key_for(B, A)``.
    A single registry instance is shared by all routers in a simulation,
    mirroring the fact that the DH exchange gives both ASes the same secret.
    """

    def __init__(self, master: Optional[bytes] = None) -> None:
        self._master = master if master is not None else os.urandom(16)
        self._cache: Dict[Tuple[str, str], bytes] = {}

    def key_for(self, as_a: str, as_b: str) -> bytes:
        pair = tuple(sorted((as_a, as_b)))
        key = self._cache.get(pair)
        if key is None:
            key = derive_key(self._master, "as-pair", pair[0], pair[1])
            self._cache[pair] = key
        return key

    def __contains__(self, pair: Tuple[str, str]) -> bool:
        return True  # every AS pair can derive a key on demand
