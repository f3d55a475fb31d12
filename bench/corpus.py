"""Seeded hostile-frame corpus for ``live-inproc-hostile``.

What a DoS victim's router mostly executes is the *reject* path, so the
corpus is made of frames the policer must refuse, in fixed proportions:

====  =====================================================================
20 %  random bytes (die in ``decode_frame``: bad magic, bad version, ...)
20 %  valid frames truncated at a random offset (die in ``decode_frame``)
20 %  REGULAR packets presenting fresh ``nop`` feedback with a forged MAC
20 %  REGULAR packets presenting ``mon`` feedback, half fresh-and-forged
      (``L↑``/``L↓`` on the policed link), half stale
19 %  REQUEST packets at priority 10 (512 tokens each: the per-sender
      token limiter drops all but a trickle)
 1 %  ``hello`` frames cycling over 1000 names (the hello table's growth)
====  =====================================================================

Forged frames carry priority 10 too, so once the access router demotes them
to the request channel the same token limiter drops them: almost nothing
reaches the drain.  Every forged MAC is distinct and there are more than
twice as many as the stamper's 8192-entry verification memo holds, so a memo
can only help replays, never first sight.

Freshness is relative to the policer's clock, and feedback stays fresh for
``w = 4`` s either side of its timestamp.  The harness therefore runs the
in-process policer on a clock with a *fixed* origin (:data:`CLOCK_ORIGIN`)
and builds one chunk per :data:`CHUNK_SECONDS` of replay, each stamped at
its own midpoint: the bytes depend on the seed only, so the digest of a
corpus proves two runs were fed identical input.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Tuple

from repro.core.feedback import Feedback, FeedbackAction, FeedbackMode
from repro.core.header import HEADER_KEY, NetFenceHeader
from repro.runtime.codec import encode_hello, encode_packet
from repro.runtime.serve import BOTTLENECK_LINK, SERVE_AS
from repro.simulator.packet import Packet, PacketType

#: Origin of the in-process policer's clock: a multiple of the 128 s key
#: rotation, so no epoch rolls over during a run.
CLOCK_ORIGIN = 1_000_000_000.0

#: Replay time one chunk covers; its frames are stamped at the midpoint, so
#: they stay within ``w = 4`` s of the clock with half a second to spare.
CHUNK_SECONDS = 7.0

#: Frames per chunk.  30 % of them (20 400) decode and present *fresh* forged
#: feedback, each with its own MAC: one pass over a chunk overflows the
#: stamper's 8192-entry memo twice, so no replay ever finds its entry.
CHUNK_FRAMES = 68_000

BOTS = tuple(f"bot{i:02d}" for i in range(64))
HELLO_NAMES = 1000
HOSTILE_PRIORITY = 10
FRAME_BYTES = 125

#: (class name, share of the corpus).
MIX: Tuple[Tuple[str, float], ...] = (
    ("random", 0.20), ("truncated", 0.20), ("forged_nop", 0.20),
    ("forged_mon", 0.20), ("request", 0.19), ("hello", 0.01),
)


class Corpus:
    """Pre-encoded chunks plus what the harness needs to audit them."""

    def __init__(self, seed: int, chunks: int, victim: str,
                 frames_per_chunk: int = CHUNK_FRAMES) -> None:
        self.seed = seed
        self.victim = victim
        self.classes = {name: 0 for name, _ in MIX}
        #: Decodable frames presenting fresh feedback with a forged MAC —
        #: the ones that cost a MAC verification; every MAC is distinct.
        self.forged_fresh = 0
        self._rng = random.Random(seed)
        self._macs: set = set()
        self._uid = 1 << 40  # far from the live hosts' packet ids
        self._hellos = 0
        self.chunks: List[List[bytes]] = [
            self._chunk(index, frames_per_chunk) for index in range(chunks)]
        digest = hashlib.sha256()
        for chunk in self.chunks:
            for frame in chunk:
                digest.update(len(frame).to_bytes(2, "big"))
                digest.update(frame)
        self.digest = digest.hexdigest()

    def chunk_at(self, elapsed: float) -> List[bytes]:
        """The chunk whose frames are fresh ``elapsed`` seconds into the run."""
        return self.chunks[min(int(elapsed // CHUNK_SECONDS), len(self.chunks) - 1)]

    # -- builders ---------------------------------------------------------------
    def _chunk(self, index: int, size: int) -> List[bytes]:
        fresh_ts = CLOCK_ORIGIN + (index + 0.5) * CHUNK_SECONDS + 0.5
        frames: List[bytes] = []
        for name, share in MIX:
            count = int(round(size * share))
            self.classes[name] += count
            build = getattr(self, f"_{name}")
            frames.extend(build(fresh_ts) for _ in range(count))
        self._rng.shuffle(frames)
        return frames

    def _packet(self, ptype: PacketType, header: NetFenceHeader, ts: float) -> Packet:
        self._uid += 1
        src = self._rng.choice(BOTS)
        return Packet(src=src, dst=self.victim, size_bytes=FRAME_BYTES, ptype=ptype,
                      flow_id=f"udp:{src}->{self.victim}", protocol="udp",
                      headers={HEADER_KEY: header}, created_at=ts,
                      priority=HOSTILE_PRIORITY, src_as=SERVE_AS, uid=self._uid)

    def _forged_mac(self) -> bytes:
        while True:
            mac = self._rng.getrandbits(32).to_bytes(4, "big")
            if mac not in self._macs:
                self._macs.add(mac)
                return mac

    def _random(self, fresh_ts: float) -> bytes:
        return self._rng.randbytes(self._rng.randint(4, 160))

    def _truncated(self, fresh_ts: float) -> bytes:
        frame = self._request(fresh_ts)
        return frame[:self._rng.randint(4, len(frame) - 1)]

    def _forged_nop(self, fresh_ts: float) -> bytes:
        self.forged_fresh += 1
        feedback = Feedback(FeedbackMode.NOP, None, FeedbackAction.INCR, fresh_ts,
                            self._forged_mac())
        header = NetFenceHeader(feedback=feedback, priority=HOSTILE_PRIORITY)
        return encode_packet(self._packet(PacketType.REGULAR, header, fresh_ts))

    def _forged_mon(self, fresh_ts: float) -> bytes:
        stale = self._rng.random() < 0.5
        ts = fresh_ts - 60.0 if stale else fresh_ts
        self.forged_fresh += not stale
        if self._rng.random() < 0.5:
            feedback = Feedback(FeedbackMode.MON, BOTTLENECK_LINK, FeedbackAction.INCR,
                                ts, self._forged_mac(), token_nop=self._forged_mac())
        else:
            feedback = Feedback(FeedbackMode.MON, BOTTLENECK_LINK, FeedbackAction.DECR,
                                ts, self._forged_mac())
        header = NetFenceHeader(feedback=feedback, priority=HOSTILE_PRIORITY)
        return encode_packet(self._packet(PacketType.REGULAR, header, ts))

    def _request(self, fresh_ts: float) -> bytes:
        header = NetFenceHeader(priority=HOSTILE_PRIORITY)
        return encode_packet(self._packet(PacketType.REQUEST, header, fresh_ts))

    def _hello(self, fresh_ts: float) -> bytes:
        name = f"hello{self._hellos % HELLO_NAMES:04d}"
        self._hellos += 1
        return encode_hello(name, SERVE_AS)
