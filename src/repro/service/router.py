"""Fingerprint-affinity routing for the sharded worker pool.

The pool's scaling story rests on *cache affinity*: every worker owns a
stable slice of the dataset universe, so its engine's LRU fingerprint
cache (sorted orders, prefix matrices, memoized PRFe values,
calibrated junction trees) stays hot for the datasets it actually
serves.  This module provides the routing half of that contract:

* :func:`stable_hash` — a process- and run-independent 64-bit hash
  (``blake2b``; Python's built-in ``hash`` is randomized per process
  and would re-shuffle every shard assignment on restart).
* :class:`FingerprintRouter` — rendezvous (highest-random-weight)
  hashing from a dataset's content fingerprint to a shard.  Rendezvous
  hashing gives the *minimal-disruption* resize property the pool needs
  for graceful worker scaling: growing from ``s`` to ``s + 1`` shards
  moves only the keys whose new shard wins the weight comparison
  (expected ``n / (s + 1)`` of ``n`` keys, each moving *to* the new
  shard), and shrinking moves only the keys of the removed shard.
  Every other key keeps its worker — and therefore its warm cache.
* :class:`HotSpotTracker` — a decayed per-fingerprint hit counter.
  A single viral dataset would otherwise serialize on its one affine
  worker; once a fingerprint's decayed count crosses the threshold the
  pool fans its requests out across the top ``replicas`` shards of the
  rendezvous preference order (each replica warms its own cache copy),
  trading one extra warm cache for removing the hot-spot bottleneck.
"""

from __future__ import annotations

import hashlib
import math
import threading
from typing import Iterable, Sequence

__all__ = ["stable_hash", "FingerprintRouter", "HotSpotTracker"]

#: Exclusive upper bound of :func:`stable_hash` values (64-bit digest).
_HASH_SPAN = 2**64


def stable_hash(*parts: object) -> int:
    """A deterministic 64-bit hash of ``parts``, stable across processes.

    Parameters are folded in by ``repr`` with NUL separators, so
    ``stable_hash("a", 1)`` and ``stable_hash("a1")`` differ.  Unlike
    the built-in ``hash``, the value does not depend on
    ``PYTHONHASHSEED`` — shard assignments survive restarts, and the
    fault-injection layer can derive reproducible per-event seeds.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x00")
    return int.from_bytes(digest.digest(), "big")


class FingerprintRouter:
    """Rendezvous-hash assignment of content fingerprints to shards.

    Parameters
    ----------
    shards:
        Number of shards (workers) routed over; must be >= 1.

    Routing is pure and deterministic: two router instances with the
    same shard count agree on every key, so a restarted pool re-routes
    identically and tests can predict placements.

    Routing also accepts per-shard ``weights`` (the circuit breakers'
    health-scaled capacities) through the *weighted rendezvous* score
    ``-w / ln(u)`` where ``u`` is the shard's hash draw mapped into
    ``(0, 1)``.  The score is a strictly increasing function of ``u``
    for any fixed positive ``w``, so **equal weights reproduce the
    unweighted routing exactly** (same argmax, same preference order),
    and lowering one shard's weight moves keys only *away from* that
    shard — the minimal-disruption property extends to demotion.  A
    weight of ``0`` excludes the shard entirely.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)

    def weight(self, fingerprint: str, shard: int) -> int:
        """The rendezvous weight of ``fingerprint`` on ``shard``."""
        return stable_hash("rendezvous", fingerprint, shard)

    def uniform(self, fingerprint: str, shard: int) -> float:
        """The shard's hash draw mapped into the open interval ``(0, 1)``."""
        return (self.weight(fingerprint, shard) + 1) / (_HASH_SPAN + 1)

    def score(self, fingerprint: str, shard: int, weight: float) -> float:
        """The weighted-rendezvous score ``-weight / ln(u)`` of a shard.

        ``-inf`` for non-positive weights (the shard never wins); for a
        fixed positive weight the score is strictly increasing in the
        hash draw, so all-equal weights preserve the unweighted order.
        """
        if weight <= 0.0:
            return float("-inf")
        return -weight / math.log(self.uniform(fingerprint, shard))

    def _validated_weights(self, weights: Sequence[float] | None) -> Sequence[float] | None:
        """``weights`` if usable, else ``None`` (fall back to unweighted).

        All-equal positive weights route identically to the unweighted
        path, so they short-circuit to it (exact integer comparison, no
        float edge cases); all-non-positive weights mean "nothing is
        healthy", where routing *somewhere* beats routing nowhere.
        """
        if weights is None:
            return None
        if len(weights) != self.shards:
            raise ValueError(
                f"expected {self.shards} weights, got {len(weights)}"
            )
        first = weights[0]
        if all(weight == first for weight in weights) or all(
            weight <= 0.0 for weight in weights
        ):
            return None
        return weights

    def shard(self, fingerprint: str, weights: Sequence[float] | None = None) -> int:
        """The shard owning ``fingerprint`` (its highest-weight shard).

        With ``weights`` (one per shard), the weighted-rendezvous winner
        instead; equal weights give the identical unweighted answer.
        """
        weights = self._validated_weights(weights)
        if weights is None:
            return max(range(self.shards), key=lambda shard: self.weight(fingerprint, shard))
        return max(
            range(self.shards),
            key=lambda shard: self.score(fingerprint, shard, weights[shard]),
        )

    def preference(
        self,
        fingerprint: str,
        count: int | None = None,
        weights: Sequence[float] | None = None,
    ) -> list[int]:
        """Shards ordered by descending rendezvous weight for ``fingerprint``.

        ``preference(fp)[0] == shard(fp)``; the prefix of length ``r``
        is the replica set a hot fingerprint fans out across.  ``count``
        truncates the returned list; ``weights`` applies the weighted-
        rendezvous ordering (zero-weight shards sort last).
        """
        weights = self._validated_weights(weights)
        if weights is None:
            order = sorted(
                range(self.shards),
                key=lambda shard: self.weight(fingerprint, shard),
                reverse=True,
            )
        else:
            order = sorted(
                range(self.shards),
                key=lambda shard: (
                    self.score(fingerprint, shard, weights[shard]),
                    self.weight(fingerprint, shard),
                ),
                reverse=True,
            )
        return order if count is None else order[: max(1, int(count))]

    def assignments(self, fingerprints: Iterable[str]) -> dict[str, int]:
        """``{fingerprint: shard}`` for a collection of keys."""
        return {fingerprint: self.shard(fingerprint) for fingerprint in fingerprints}


class HotSpotTracker:
    """Decayed per-fingerprint request counter driving replica fan-out.

    Parameters
    ----------
    threshold:
        Decayed hit count at which a fingerprint is considered hot.
        ``0`` disables hot-spot detection (nothing is ever hot).
    half_life:
        Number of recorded requests between decay sweeps; each sweep
        halves every counter, so sustained traffic is required to stay
        hot and yesterday's spike cools off.
    max_entries:
        Bound on tracked fingerprints; the coldest entries are dropped
        beyond it, so the tracker cannot grow with the key universe.

    Thread-safe: the pool records from the event loop while worker
    reader threads may probe ``is_hot`` concurrently.
    """

    def __init__(
        self, threshold: int = 64, half_life: int = 1024, max_entries: int = 4096
    ) -> None:
        if half_life < 1:
            raise ValueError(f"half_life must be >= 1, got {half_life}")
        self.threshold = int(threshold)
        self.half_life = int(half_life)
        self.max_entries = int(max_entries)
        self._counts: dict[str, float] = {}
        self._since_decay = 0
        self._lock = threading.Lock()

    def record(self, fingerprint: str) -> int:
        """Count one request for ``fingerprint``; returns its decayed count."""
        with self._lock:
            self._counts[fingerprint] = self._counts.get(fingerprint, 0.0) + 1.0
            self._since_decay += 1
            if self._since_decay >= self.half_life:
                self._since_decay = 0
                self._counts = {
                    key: value / 2.0
                    for key, value in self._counts.items()
                    if value >= 1.0
                }
            if len(self._counts) > self.max_entries:
                # Never evict the key just recorded: at count 1.0 it is
                # often the strict minimum, and dropping it here would
                # make the return below raise (and the tracker forget
                # every new key the moment it reaches capacity).
                coldest = sorted(
                    (key for key in self._counts if key != fingerprint),
                    key=self._counts.__getitem__,
                )
                for key in coldest[: len(self._counts) - self.max_entries]:
                    del self._counts[key]
            return int(self._counts[fingerprint])

    def is_hot(self, fingerprint: str) -> bool:
        """Whether ``fingerprint``'s decayed count has crossed the threshold."""
        if self.threshold <= 0:
            return False
        with self._lock:
            return self._counts.get(fingerprint, 0.0) >= self.threshold

    def count(self, fingerprint: str) -> int:
        """The current decayed count of ``fingerprint`` (0 when untracked)."""
        with self._lock:
            return int(self._counts.get(fingerprint, 0.0))
