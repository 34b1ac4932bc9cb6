"""Dataset fingerprinting and the LRU intermediate cache of the engine.

The batched engine reuses per-dataset intermediates across calls, keyed
on a *content fingerprint* — a hash of the dataset's payload — so that
logically equal datasets share cache entries regardless of object
identity, and a dataset rebuilt from the same data still hits.  One
entry type exists per correlation model:

* :class:`CachedRelation` (tuple-independent, either storage form):
  content-derived arrays only — the score-descending permutation, the
  sorted score and probability columns, lazily built tid strings, the
  prefix generating-function matrix of
  :func:`repro.engine.kernels.batched_prefix_matrices` (the
  O(n * max_rank) hot intermediate behind positional probabilities,
  PT(h), U-Rank and every general-weight PRF evaluation) and memoized
  values.
* :class:`CachedTree` (and/xor correlations): the score-descending
  order and scores, the positional-probability matrix obtained from the
  tree's generating functions, the alpha-independent layout of the
  stacked PRFe kernel (Algorithm 3 over rows x alpha) and its memoized
  value vectors (keyed by ``alpha``).
* :class:`CachedNetwork` (Markov networks): the score-descending order
  and scores, the junction tree, the evidence-free calibration (its
  memoized clique marginals serve every ``Pr(X_t = 1)`` lookup and the
  top-k prefix bound) and the junction-tree-DP positional matrix, built
  for every tuple in one row-stacked pass.

No entry refers to a dataset or holds a ``Tuple``: an entry's order
indexes the dataset's tuple sequence, methods that need the correlation
structure take the caller's dataset, and results carry the caller's own
tuples.  A hit therefore never writes to the entry it returns.

The cache is a bounded LRU with an element budget: array payloads are
evicted least-recently-used once the total number of cached float64
elements exceeds ``max_elements``.  A matrix computed at limit ``L``
serves every request with ``limit <= L`` by slicing: for the prefix
matrix because the recurrence ``c_m <- (1 - p) c_m + p c_{m-1}`` is
lower triangular, for positional matrices because truncation only drops
trailing rank columns the narrower request never reads.
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..core.columnar import RelationColumns
from ..core.tuples import Tuple
from .kernels import batched_prefix_matrices

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..andxor.ranking import PRFeLayout
    from ..andxor.tree import AndXorTree
    from ..graphical.junction_tree import CalibratedTree, JunctionTree
    from ..graphical.model import MarkovNetworkRelation

__all__ = [
    "relation_fingerprint",
    "tree_fingerprint",
    "network_fingerprint",
    "dataset_fingerprint",
    "CachedRelation",
    "CachedTree",
    "CachedNetwork",
    "RelationCache",
    "CacheStats",
]

_FINGERPRINT_ATTR = "_engine_fingerprint"


def _tuple_payload(digest, t: Tuple) -> None:
    digest.update(repr(t.tid).encode())
    digest.update(b"\x00")
    digest.update(np.float64(t.score).tobytes())
    digest.update(np.float64(t.probability).tobytes())
    if t.attributes:
        digest.update(repr(t.attributes).encode())
    digest.update(b"\x01")


def relation_fingerprint(relation: RelationColumns) -> str:
    """A stable content hash of a tuple-independent relation, either form.

    Hashes the length, the raw insertion-order score and probability
    buffers, then one ``repr(tid) \\x00 [repr(attributes)] \\x01``
    section per tuple, so a :class:`~repro.core.tuples.ProbabilisticRelation`
    and its :class:`~repro.core.columnar.ColumnarRelation` twin share one
    content identity (service dedup, result caches, this cache).
    Attributes feed ``tuple_factor`` ranking functions, so they
    distinguish relations too; columnar relations carry none.  The
    fingerprint is memoized on the relation object, which is safe
    because neither form exposes a mutation API.
    """
    cached = getattr(relation, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(len(relation)).encode())
    digest.update(np.ascontiguousarray(relation.scores()).tobytes())
    digest.update(np.ascontiguousarray(relation.probabilities()).tobytes())
    attributes = relation.attribute_maps()
    if relation.has_implicit_tids:
        section = "".join(f"'t{i}'\x00\x01" for i in range(1, len(relation) + 1))
    elif attributes is None:
        section = "".join(f"{tid!r}\x00\x01" for tid in relation.tid_values())
    else:
        # A repr that varies between equal payloads only costs a cache miss.
        section = "".join(
            f"{tid!r}\x00{repr(payload) if payload else ''}\x01"
            for tid, payload in zip(relation.tid_values(), attributes)
        )
    digest.update(section.encode())
    fingerprint = digest.hexdigest()
    setattr(relation, _FINGERPRINT_ATTR, fingerprint)
    return fingerprint


def tree_fingerprint(tree: "AndXorTree") -> str:
    """A stable content hash of an and/xor tree (structure, edges, leaves).

    The pre-order walk writes a kind marker per node, xor edge
    probabilities as raw float64 bytes, and the full tuple payload per
    leaf, so trees hit the same cache entry exactly when they encode the
    same correlation structure over the same tuples.
    """
    cached = getattr(tree, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    from ..andxor.tree import AndNode, LeafNode, XorNode

    digest = hashlib.blake2b(digest_size=16)

    def visit(node) -> None:
        if isinstance(node, LeafNode):
            digest.update(b"L")
            _tuple_payload(digest, node.item)
            return
        if isinstance(node, AndNode):
            digest.update(b"A")
            digest.update(str(len(node.children)).encode())
            for child in node.children:
                visit(child)
        else:
            assert isinstance(node, XorNode)
            digest.update(b"X")
            digest.update(str(len(node.children)).encode())
            for probability, child in node.children:
                digest.update(np.float64(probability).tobytes())
                visit(child)
        digest.update(b"\x02")

    visit(tree.root)
    fingerprint = digest.hexdigest()
    setattr(tree, _FINGERPRINT_ATTR, fingerprint)
    return fingerprint


def network_fingerprint(model: "MarkovNetworkRelation") -> str:
    """A stable content hash of a Markov-network relation (tuples + factors)."""
    cached = getattr(model, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(len(model)).encode())
    for t in model.tuples:
        _tuple_payload(digest, t)
    for factor in model.factors:
        digest.update(repr([repr(v) for v in factor.variables]).encode())
        digest.update(np.asarray(factor.table, dtype=float).tobytes())
        digest.update(b"\x03")
    fingerprint = digest.hexdigest()
    setattr(model, _FINGERPRINT_ATTR, fingerprint)
    return fingerprint


def dataset_fingerprint(data) -> str:
    """The content fingerprint of any supported dataset kind."""
    if isinstance(data, RelationColumns):
        return relation_fingerprint(data)
    from ..andxor.tree import AndXorTree

    if isinstance(data, AndXorTree):
        return tree_fingerprint(data)
    from ..graphical.model import MarkovNetworkRelation

    if isinstance(data, MarkovNetworkRelation):
        return network_fingerprint(data)
    raise TypeError(f"cannot fingerprint objects of type {type(data).__name__}")


@dataclass
class CacheStats:
    """Hit/miss counters of a :class:`RelationCache` (observability hook)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (JSON-friendly)."""
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def _payload_arrays(value: Any) -> list[np.ndarray]:
    """The arrays in one ``extras`` value (an array, or a tuple holding some)."""
    parts = value if isinstance(value, (tuple, list)) else (value,)
    return [part for part in parts if isinstance(part, np.ndarray)]


def _payload_bytes(value: Any) -> int:
    """Bytes of the arrays in one ``extras`` value."""
    return sum(part.nbytes for part in _payload_arrays(value))


class _Extras(dict):
    """An entry's ``extras``: memoized values, tid strings and top-k prefixes.

    Keeps a running count of its array payload bytes in ``nbytes``, so an
    entry's :meth:`elements` is O(1) however many memos it has gathered
    (one per distinct alpha).  The count changes only through ``[key] =
    value`` and ``del [key]``, under a lock (backends store memos without
    the entry lock); the other mutators would bypass it, so they raise.
    """

    def __init__(self) -> None:
        super().__init__()
        self.nbytes = 0
        self._lock = threading.Lock()

    def __setitem__(self, key: Any, value: Any) -> None:
        with self._lock:
            previous = self.get(key)
            super().__setitem__(key, value)
            self.nbytes += _payload_bytes(value) - _payload_bytes(previous)

    def __delitem__(self, key: Any) -> None:
        with self._lock:
            previous = self[key]
            super().__delitem__(key)
            self.nbytes -= _payload_bytes(previous)

    def _uncounted(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("extras change only through item assignment and deletion")

    clear = pop = popitem = setdefault = update = __ior__ = _uncounted


def _drop_array_extras(extras: _Extras) -> None:
    """Remove the array payloads (memoized values, tid strings) in place."""
    for key in [key for key, value in extras.items() if _payload_arrays(value)]:
        del extras[key]


@dataclass
class CachedRelation:
    """The cached intermediates of one tuple-independent relation, either form.

    Everything here is derived from the relation's content, so
    content-equal relations (a tuple-list relation and its columnar twin
    included) share one entry safely: the entry never refers to a
    relation or its ``Tuple`` objects, and result builders take the
    caller's relation as an argument.
    """

    order: np.ndarray  # original positions in score-descending order
    scores: np.ndarray  # score-descending order
    probabilities: np.ndarray  # score-descending order
    prefix: np.ndarray | None = None  # (n, limit_computed) or None
    extras: _Extras = field(default_factory=_Extras)
    #: Guards prefix growth: concurrent growers at different limits must
    #: not overwrite a wide matrix with a narrow one.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n(self) -> int:
        """Number of tuples in the cached relation."""
        return self.probabilities.size

    def elements(self) -> int:
        """Cached size in float64-equivalent elements (for the eviction budget).

        Counts the order and the two sorted columns, the prefix matrix and
        any array payloads stashed in ``extras`` (memoized values, the tid
        strings, whose unicode array can dominate), normalizing by 8
        bytes/element.
        """
        total_bytes = self.order.nbytes + self.scores.nbytes + self.probabilities.nbytes
        if self.prefix is not None:
            total_bytes += self.prefix.nbytes
        total_bytes += self.extras.nbytes
        return total_bytes // 8

    def shed(self) -> None:
        """Drop the heavy arrays, keeping the sorted order (see eviction).

        Takes the entry lock: ``prefix`` is lock-guarded everywhere else,
        and an unlocked wipe could interleave with a concurrent
        :meth:`prefix_matrix` growth and publish a half-shed entry.
        """
        with self.lock:
            self.prefix = None
            _drop_array_extras(self.extras)

    def tid_strings(self, relation: RelationColumns, limit: int | None = None) -> np.ndarray:
        """``str(tid)`` in score-descending order, the last ``lexsort`` key.

        Identifiers are part of the fingerprint, so the column is built
        from the caller's ``relation`` once and cached.  With a ``limit``
        below ``n`` and no cached column, only the first ``limit`` are
        built (the top-k prefix path).
        """
        tids = self.extras.get("sort_tids")
        if tids is not None:
            return tids[:limit]
        if limit is not None and limit < self.n:
            return relation.tid_strings_for(self.order[:limit])
        tids = relation.tid_strings_for(self.order)
        self.extras["sort_tids"] = tids
        return tids

    def prefix_matrix(self, limit: int) -> np.ndarray:
        """The prefix polynomial matrix truncated to ``limit`` columns.

        Grows (recomputes at the larger limit) when a wider matrix is
        requested than previously cached; narrower requests are served by
        slicing, which is exact (see module docstring).  Growth happens
        under the entry lock and the result is a slice of a locally
        captured array, so concurrent growers and a budget-driven
        ``prefix = None`` wipe can never yield a too-narrow or ``None``
        matrix to a caller.  The cached matrix is read-only.
        """
        with self.lock:
            prefix = self.prefix
            if prefix is None or prefix.shape[1] < limit:
                prefix = batched_prefix_matrices(self.probabilities[None, :], limit)[0]
                prefix.flags.writeable = False
                self.prefix = prefix
        return prefix[:, :limit]

    def store_prefix(self, matrix: np.ndarray) -> None:
        """Adopt an externally computed prefix matrix if wider than the cached one.

        An adopted matrix is marked read-only.
        """
        with self.lock:
            if self.prefix is None or self.prefix.shape[1] < matrix.shape[1]:
                matrix.flags.writeable = False
                self.prefix = matrix

    def positional_matrix(self, limit: int) -> np.ndarray:
        """``Pr(r(t_i) = j)`` for ``j = 1 .. limit`` from the cached prefix."""
        return self.prefix_matrix(limit) * self.probabilities[:, None]


@dataclass
class _CorrelatedEntry(ABC):
    """What the and/xor and Markov entries share: content-derived only.

    ``order`` holds positions into the dataset's tuple sequence (a tree's
    ``tuples()``, a network's ``tuples``) in score-descending order, which
    content-equal datasets share.  Methods that need the correlation
    structure take the caller's dataset as an argument, and results are
    built from the caller's tuples through ``order``.
    """

    order: np.ndarray  # tuple positions in score-descending order
    scores: np.ndarray  # score-descending order
    positional: np.ndarray | None = None  # (n, limit_computed) or None
    extras: _Extras = field(default_factory=_Extras)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def of(cls, tuples: Sequence[Tuple], **fields: Any):
        """An entry over ``tuples``: a stable descending-score argsort.

        Scores are validated finite, so this is the order of the datasets'
        ``sorted_tuples()`` (descending score, ties in tuple order).
        """
        scores = np.array([t.score for t in tuples], dtype=float)
        order = np.argsort(-scores, kind="stable")
        return cls(order=order, scores=scores[order], **fields)

    @property
    def n(self) -> int:
        """Number of tuples in the cached dataset."""
        return self.order.size

    def elements(self) -> int:
        """Cached size in float64-equivalent elements (for the eviction budget)."""
        total_bytes = self.order.nbytes + self.scores.nbytes + self.extras.nbytes
        if self.positional is not None:
            total_bytes += self.positional.nbytes
        return total_bytes // 8

    def shed(self) -> None:
        """Drop the heavy arrays, keeping the sorted order (see eviction).

        Locked for the same reason as :meth:`CachedRelation.shed`.
        """
        with self.lock:
            self.positional = None
            _drop_array_extras(self.extras)

    def sorted_tuples(self, tuples: Sequence[Tuple]) -> list[Tuple]:
        """The caller's ``tuples`` in score-descending order."""
        return [tuples[i] for i in self.order.tolist()]

    def tid_strings(self, tuples: Sequence[Tuple], limit: int | None = None) -> np.ndarray:
        """``str(tid)`` in score-descending order (the first ``limit``), built once."""
        tids = self.extras.get("sort_tids")
        if tids is None:
            tids = np.array([str(t.tid) for t in self.sorted_tuples(tuples)])
            self.extras["sort_tids"] = tids
        return tids[:limit]

    def positional_matrix(self, data, limit: int) -> np.ndarray:
        """``Pr(r(t_i) = j)`` for ``j = 1 .. limit``, computed on the caller's ``data``.

        Narrower requests are served by slicing the cached matrix, which
        is bit-identical to a fresh narrow computation (see each entry).
        Growth happens under the entry lock and the result is a slice of a
        locally captured array, as in :meth:`CachedRelation.prefix_matrix`.
        """
        compute = self._positional_kernel(data)
        with self.lock:
            positional = self.positional
            if positional is None or positional.shape[1] < limit:
                positional = compute(limit)
                self.positional = positional
        return positional[:, :limit]

    @abstractmethod
    def _positional_kernel(self, data) -> Callable[[int], np.ndarray]:
        """The positional-matrix computation on ``data``, as a function of the limit."""


@dataclass
class CachedTree(_CorrelatedEntry):
    """The cached intermediates of one and/xor tree.

    The sorted order, the positional matrix of the tree's generating
    functions, the alpha-independent :class:`~repro.andxor.ranking.PRFeLayout`
    of the stacked PRFe kernel and its memoized value vectors (keyed by
    ``alpha``).  The entry refers to no tree: content-equal trees share
    it (they have the same structure, so the same layout), the matrix is
    computed on the caller's tree, and results carry the caller's leaf
    tuples.  Slicing the matrix is exact: the generating-function
    coefficients of degree ``< limit`` are sums of exactly the products a
    narrower truncation computes.
    """

    layout: "PRFeLayout | None" = field(default=None, repr=False)

    def elements(self) -> int:
        """Cached size in float64-equivalent elements (for the eviction budget)."""
        layout = self.layout
        return super().elements() + (layout.nbytes // 8 if layout is not None else 0)

    def shed(self) -> None:
        """Drop the matrix, layout and memoized values, keeping the order."""
        with self.lock:
            self.positional = None
            self.layout = None
            _drop_array_extras(self.extras)

    def prfe_layout(self, tree: "AndXorTree") -> "PRFeLayout":
        """The stacked PRFe layout, built from the caller's ``tree`` once.

        Returns the locally captured layout, as :meth:`CachedNetwork.calibrated`
        does, so a concurrent :meth:`shed` cannot hand the caller ``None``.
        """
        from ..andxor.ranking import PRFeLayout

        with self.lock:
            layout = self.layout
            if layout is None:
                layout = PRFeLayout(tree)
                self.layout = layout
        return layout

    def _positional_kernel(self, tree: "AndXorTree") -> Callable[[int], np.ndarray]:
        from ..andxor.generating import positional_probabilities_tree

        return lambda limit: positional_probabilities_tree(tree, max_rank=limit)[1]


@dataclass
class CachedNetwork(_CorrelatedEntry):
    """The cached intermediates of one Markov-network relation.

    Besides the sorted order and the positional matrix, the entry holds
    the junction tree and its evidence-free calibration.  The tree holds
    everything that does not depend on evidence (components, home
    cliques, potentials, the message schedule, the dynamic program's
    layout); the positional matrix conditions every tuple on ``X_t = 1``
    at once in row-stacked tables that are not kept.  The calibration
    memoizes its normalized clique marginals behind every ``Pr(X_t =
    1)`` lookup and the top-k prefix bound.  :meth:`elements` counts its
    beliefs, kept messages and memoized marginals.  The DP is
    limit-independent (``limit`` only truncates the stored columns), so
    slicing the matrix is exact.
    """

    junction: "JunctionTree" = field(kw_only=True, repr=False)
    base_calibrated: "CalibratedTree | None" = field(default=None, repr=False)

    def elements(self) -> int:
        """Cached size in float64-equivalent elements (for the eviction budget)."""
        calibrated = self.base_calibrated
        return super().elements() + (calibrated.nbytes // 8 if calibrated else 0)

    def shed(self) -> None:
        """Drop the matrices and calibration, keeping the order and junction tree.

        Locked: an unlocked ``base_calibrated = None`` wipe racing a
        concurrent :meth:`calibrated` call could hand the caller ``None``.
        """
        with self.lock:
            self.positional = None
            self.base_calibrated = None
            _drop_array_extras(self.extras)

    def calibrated(self) -> "CalibratedTree":
        """The evidence-free calibration, shared by all ``Pr(X_t = 1)`` lookups.

        Returns the locally captured calibration: reading the attribute
        again after releasing the lock could observe a concurrent
        :meth:`shed` wipe and return ``None``.
        """
        with self.lock:
            calibrated = self.base_calibrated
            if calibrated is None:
                calibrated = self.junction.calibrate()
                self.base_calibrated = calibrated
        return calibrated

    def _positional_kernel(self, model: "MarkovNetworkRelation") -> Callable[[int], np.ndarray]:
        from ..graphical.ranking import positional_probabilities_markov

        tree, base = self.junction, self.calibrated()
        return lambda limit: positional_probabilities_markov(
            model, max_rank=limit, tree=tree, base=base
        )[1]


class RelationCache:
    """A bounded LRU cache of per-dataset entries, keyed on content fingerprints.

    Parameters
    ----------
    max_relations:
        Maximum number of relations tracked.
    max_elements:
        Soft budget on the total number of cached float64-equivalent
        elements across all entries (8 bytes each); least-recently-used
        entries are evicted until the budget holds.  An entry whose matrix
        alone exceeds the budget is still served but not retained.  The
        budget covers the array payloads (orders, sorted columns, prefix
        and positional matrices, tid strings, memoized values, Markov
        calibrations); the junction trees of network entries are not
        counted and are bounded only by ``max_relations``.

    Content-equal datasets share one entry.  Entries refer to no dataset,
    so a hit hands back the entry untouched and every result carries the
    caller's own tuples.

    The cache is protected by a lock, so concurrent ``rank()`` calls from
    multiple threads are safe; entry matrices may be computed redundantly
    under contention but never corrupt (assignments are atomic and both
    computations produce identical arrays).
    """

    def __init__(self, max_relations: int = 64, max_elements: int = 32_000_000) -> None:
        if max_relations < 1:
            raise ValueError(f"max_relations must be >= 1, got {max_relations}")
        self.max_relations = max_relations
        self.max_elements = max_elements
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CachedRelation | CachedTree | CachedNetwork]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def total_elements(self) -> int:
        """Total float64-equivalent elements held across all entries."""
        with self._lock:
            return self._total_elements_locked()

    def _total_elements_locked(self) -> int:
        return sum(entry.elements() for entry in self._entries.values())

    def clear(self) -> None:
        """Drop every cached entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def get(self, relation: RelationColumns, store: bool = True) -> CachedRelation:
        """The cached entry for an independent relation (see :meth:`entry_for`)."""
        return self.entry_for(relation, store=store)

    def entry_for(self, data, store: bool = True):
        """The cached entry for any supported dataset kind, creating it on a miss.

        Returns a :class:`CachedRelation`, :class:`CachedTree` or
        :class:`CachedNetwork` depending on the correlation model of
        ``data``.  With ``store=False`` a miss builds a transient entry
        that is not inserted — used by large batches whose single-use
        datasets would otherwise flush every genuinely reused entry out
        of the LRU.
        """
        key = dataset_fingerprint(data)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
        entry = self._build_entry(data)
        if store:
            with self._lock:
                self._entries[key] = entry
                self._evict_locked()
        return entry

    @staticmethod
    def _build_entry(data):
        if isinstance(data, RelationColumns):
            return CachedRelation(
                order=data.order(),
                scores=data.sorted_scores(),
                probabilities=data.sorted_probabilities(),
            )
        from ..andxor.tree import AndXorTree

        if isinstance(data, AndXorTree):
            return CachedTree.of(data.tuples())
        from ..graphical.model import MarkovNetworkRelation
        from ..graphical.ranking import junction_tree_for

        if isinstance(data, MarkovNetworkRelation):
            return CachedNetwork.of(data.tuples, junction=junction_tree_for(data))
        raise TypeError(f"cannot cache objects of type {type(data).__name__}")

    def _evict_locked(self) -> None:
        while len(self._entries) > self.max_relations:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._enforce_budget_locked()

    def enforce_budget(self) -> None:
        """Evict LRU entries until the element budget holds.

        Called after matrix growth (``CachedRelation.prefix_matrix`` widens
        entries in place, outside ``get``).
        """
        with self._lock:
            self._enforce_budget_locked()

    def _enforce_budget_locked(self) -> None:
        while len(self._entries) > 1 and self._total_elements_locked() > self.max_elements:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        # A single over-budget entry: drop its matrices but keep the cheap
        # sorted order, so repeated huge-limit requests degrade gracefully
        # to the uncached behaviour instead of pinning a giant allocation.
        if len(self._entries) == 1 and self._total_elements_locked() > self.max_elements:
            (entry,) = self._entries.values()
            entry.shed()
