"""Dataset fingerprinting and the LRU intermediate cache of the engine.

The batched engine reuses per-dataset intermediates across calls, keyed
on a *content fingerprint* — a hash of the dataset's payload — so that
logically equal datasets share cache entries regardless of object
identity, and a dataset rebuilt from the same data still hits.  One
entry type exists per correlation model:

* :class:`CachedRelation` (tuple-independent): the canonical
  score-descending tuple order and the prefix generating-function matrix
  of :func:`repro.algorithms.independent.prefix_polynomial_matrix` (the
  O(n * max_rank) hot intermediate behind positional probabilities,
  PT(h), U-Rank and every general-weight PRF evaluation).
* :class:`CachedTree` (and/xor correlations): the sorted leaf order, the
  positional-probability matrix obtained from the tree's generating
  functions, and memoized PRFe value vectors of the incremental
  Algorithm 3 (keyed by ``alpha``).
* :class:`CachedNetwork` (Markov networks): the sorted tuple order, the
  junction tree, the evidence-free calibration (its messages are reused
  by every per-tuple evidence calibration, its memoized clique marginals
  by every ``Pr(X_t = 1)`` lookup) and the junction-tree-DP positional
  matrix.

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
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.columnar import ColumnarRelation
from ..core.tuples import ProbabilisticRelation, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..andxor.tree import AndXorTree
    from ..graphical.junction_tree import CalibratedTree, JunctionTree
    from ..graphical.model import MarkovNetworkRelation

__all__ = [
    "relation_fingerprint",
    "columnar_fingerprint",
    "tree_fingerprint",
    "network_fingerprint",
    "dataset_fingerprint",
    "CachedRelation",
    "CachedColumnar",
    "CachedTree",
    "CachedNetwork",
    "RelationCache",
    "CacheStats",
]

_FINGERPRINT_ATTR = "_engine_fingerprint"


def _dataset_tuples(data):
    """The dataset's tuples in its native order (any supported kind)."""
    if isinstance(data, ProbabilisticRelation):
        return data.tuples
    tuples = data.tuples
    return tuples() if callable(tuples) else tuples


def _tuple_payload(digest, t: Tuple) -> None:
    digest.update(repr(t.tid).encode())
    digest.update(b"\x00")
    digest.update(np.float64(t.score).tobytes())
    digest.update(np.float64(t.probability).tobytes())
    if t.attributes:
        digest.update(repr(t.attributes).encode())
    digest.update(b"\x01")


def relation_fingerprint(relation: ProbabilisticRelation) -> str:
    """A stable content hash of a relation (scores, probabilities, tids).

    The fingerprint is memoized on the relation object, which is safe
    because :class:`ProbabilisticRelation` exposes no mutation API.
    """
    cached = getattr(relation, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(len(relation)).encode())
    digest.update(relation.scores().tobytes())
    digest.update(relation.probabilities().tobytes())
    for t in relation:
        digest.update(repr(t.tid).encode())
        digest.update(b"\x00")
        # Attributes feed tuple_factor ranking functions and ride along on
        # cached Tuple objects, so they must distinguish relations too.  A
        # repr that varies between equal payloads only costs a cache miss.
        if t.attributes:
            digest.update(repr(t.attributes).encode())  # repro: ignore[DET303]
        digest.update(b"\x01")
    fingerprint = digest.hexdigest()
    try:
        setattr(relation, _FINGERPRINT_ATTR, fingerprint)
    except AttributeError:  # pragma: no cover - slotted subclasses
        pass
    return fingerprint


def columnar_fingerprint(relation: ColumnarRelation) -> str:
    """A stable content hash of a columnar relation.

    Byte-for-byte the same hash input as :func:`relation_fingerprint`
    over a tuple-list relation of equal content — length, the raw score
    and probability buffers, then the per-tuple tid sections — so a
    :class:`ColumnarRelation` and its materialized twin share one
    content identity (service dedup, result caches) without either ever
    being converted.  Columnar tuples carry no attributes, so the
    attribute bytes of the tuple-list form never appear on either side
    of the comparison (conversion rejects attribute-carrying relations).
    """
    cached = getattr(relation, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(len(relation)).encode())
    digest.update(np.ascontiguousarray(relation.scores()).tobytes())
    digest.update(np.ascontiguousarray(relation.probabilities()).tobytes())
    if relation.has_implicit_tids:
        section = "".join(f"'t{i}'\x00\x01" for i in range(1, len(relation) + 1))
    else:
        section = "".join(f"{tid!r}\x00\x01" for tid in relation.tid_values())
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
    if isinstance(data, ProbabilisticRelation):
        return relation_fingerprint(data)
    if isinstance(data, ColumnarRelation):
        return columnar_fingerprint(data)
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


def _extras_bytes(extras: dict) -> int:
    """Total bytes of the array payloads stashed in an entry's ``extras``."""
    total = 0
    for value in extras.values():
        parts = value if isinstance(value, (tuple, list)) else (value,)
        for part in parts:
            if isinstance(part, np.ndarray):
                total += part.nbytes
    return total


def _drop_array_extras(extras: dict) -> None:
    """Remove the array payloads (memoized values, sort columns) in place."""
    for key in [
        key
        for key, value in extras.items()
        if isinstance(value, np.ndarray)
        or (
            isinstance(value, (tuple, list))
            and any(isinstance(part, np.ndarray) for part in value)
        )
    ]:
        del extras[key]


class _PrefixEntry:
    """The prefix-matrix methods shared by both independent-model entries.

    Subclasses provide ``probabilities`` (score-descending), ``prefix``,
    ``extras``, ``lock`` and ``n``.
    """

    probabilities: np.ndarray
    prefix: np.ndarray | None
    extras: dict[Any, Any]
    lock: threading.Lock

    def shed(self) -> None:
        """Drop the heavy arrays, keeping the sorted order (see eviction).

        Takes the entry lock: ``prefix`` is lock-guarded everywhere else,
        and an unlocked wipe could interleave with a concurrent
        :meth:`prefix_matrix` growth and publish a half-shed entry.
        """
        with self.lock:
            self.prefix = None
            _drop_array_extras(self.extras)

    def prefix_matrix(self, limit: int) -> np.ndarray:
        """The prefix polynomial matrix truncated to ``limit`` columns.

        Grows (recomputes at the larger limit) when a wider matrix is
        requested than previously cached; narrower requests are served by
        slicing, which is exact (see module docstring).  Growth happens
        under the entry lock and the result is a slice of a locally
        captured array, so concurrent growers and a budget-driven
        ``prefix = None`` wipe can never yield a too-narrow or ``None``
        matrix to a caller.
        """
        from ..algorithms.independent import prefix_polynomial_matrix

        with self.lock:
            prefix = self.prefix
            if prefix is None or prefix.shape[1] < limit:
                prefix = prefix_polynomial_matrix(self.probabilities, limit)
                self.prefix = prefix
        return prefix[:, :limit]

    def store_prefix(self, matrix: np.ndarray) -> None:
        """Adopt an externally computed prefix matrix if wider than the cached one."""
        with self.lock:
            if self.prefix is None or self.prefix.shape[1] < matrix.shape[1]:
                self.prefix = matrix

    def positional_matrix(self, limit: int) -> np.ndarray:
        """``Pr(r(t_i) = j)`` for ``j = 1 .. limit`` from the cached prefix."""
        prefix = self.prefix_matrix(limit)
        if self.n == 0 or limit == 0:
            return prefix
        return prefix * self.probabilities[:, None]


@dataclass
class CachedRelation(_PrefixEntry):
    """The cached intermediates of one relation."""

    ordered: list[Tuple]
    probabilities: np.ndarray  # score-descending order, aligned with ``ordered``
    prefix: np.ndarray | None = None  # (n, limit_computed) or None
    extras: dict[Any, Any] = field(default_factory=dict)
    #: Weak reference to the relation the ``ordered`` Tuple objects came
    #: from, so a content-equal but distinct relation gets results carrying
    #: its *own* tuples (legacy identity semantics) instead of aliases.
    source: weakref.ref | None = field(default=None, repr=False)
    #: Guards prefix growth: concurrent growers at different limits must
    #: not overwrite a wide matrix with a narrow one.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n(self) -> int:
        """Number of tuples in the cached dataset."""
        return len(self.ordered)

    def elements(self) -> int:
        """Cached size in float64-equivalent elements (for the eviction budget).

        Counts the probability vector, the prefix matrix and any array
        payloads stashed in ``extras`` (e.g. the sort columns, whose
        unicode tid array can dominate), normalizing by 8 bytes/element.
        """
        total_bytes = self.probabilities.nbytes
        if self.prefix is not None:
            total_bytes += self.prefix.nbytes
        total_bytes += _extras_bytes(self.extras)
        return total_bytes // 8


@dataclass
class CachedColumnar(_PrefixEntry):
    """The cached intermediates of one columnar relation.

    Unlike :class:`CachedRelation`, no ``Tuple`` list exists up front:
    the probability vector is a gather of the relation's own column by
    its cached sort permutation, the sort columns (scores + tid strings)
    are served from arrays, and tuple objects materialize only if a
    legacy consumer (general-weight streaming, ``tuple_factor``) asks
    for :attr:`ordered`.
    """

    relation: ColumnarRelation = field(repr=False, default=None)
    probabilities: np.ndarray = None  # score-descending order
    prefix: np.ndarray | None = None  # (n, limit_computed) or None
    extras: dict[Any, Any] = field(default_factory=dict)
    source: weakref.ref | None = field(default=None, repr=False)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n(self) -> int:
        """Number of tuples in the cached dataset."""
        return len(self.relation)

    @property
    def ordered(self) -> list[Tuple]:
        """Score-descending ``Tuple`` list, materialized on first use.

        The relation caches the materialization, so repeated legacy-path
        hits pay the object construction once.
        """
        return self.relation.sorted_by_score()

    def elements(self) -> int:
        """Cached size in float64-equivalent elements (for the eviction budget).

        The entry pins the relation's columns (unlike the tuple case,
        where the ``Tuple`` objects are uncounted Python overhead), so
        they are charged to the budget together with the gathered
        probability vector, the prefix matrix and the extras.
        """
        total_bytes = self.relation.nbytes + self.probabilities.nbytes
        if self.prefix is not None:
            total_bytes += self.prefix.nbytes
        total_bytes += _extras_bytes(self.extras)
        return total_bytes // 8

    def sort_columns(self, limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(scores, tid strings)`` in score-descending order.

        With a ``limit``, only the first ``limit`` tid strings are built
        (the top-k prefix path); the full string column is cached in
        ``extras`` so complete rankings pay the conversion once.
        """
        relation = self.relation
        scores = relation.sorted_scores()
        if limit is not None and limit < scores.size:
            return scores[:limit], relation.tid_strings_for(relation.order()[:limit])
        tids = self.extras.get("sort_tids")
        if tids is None:
            tids = relation.tid_strings_for(relation.order())
            self.extras["sort_tids"] = tids
        return scores, tids

    def tuple_at(self, position: int) -> Tuple:
        """The :class:`Tuple` at score-descending ``position``, built on demand."""
        relation = self.relation
        i = int(relation.order()[position])
        return Tuple(relation.tid_of(i), relation.scores()[i], relation.probabilities()[i])


@dataclass
class CachedTree:
    """The cached intermediates of one and/xor tree.

    The tree itself is held strongly: unlike the independent case (where
    the probability vector suffices), recomputing or widening any
    intermediate needs the full correlation structure.  The Python-object
    cost of the retained nodes is bounded by ``max_relations``, like the
    retained ``Tuple`` lists.
    """

    ordered: list[Tuple]
    tree: "AndXorTree" = field(repr=False, default=None)
    positional: np.ndarray | None = None  # (n, limit_computed) or None
    extras: dict[Any, Any] = field(default_factory=dict)
    source: weakref.ref | None = field(default=None, repr=False)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n(self) -> int:
        """Number of leaf tuples in the cached tree."""
        return len(self.ordered)

    def elements(self) -> int:
        """Cached size in float64-equivalent elements (for the eviction budget)."""
        total_bytes = _extras_bytes(self.extras)
        if self.positional is not None:
            total_bytes += self.positional.nbytes
        return total_bytes // 8

    def shed(self) -> None:
        """Drop the heavy arrays, keeping the cheap sorted order (see eviction).

        Locked for the same reason as :meth:`CachedRelation.shed`.
        """
        with self.lock:
            self.positional = None
            _drop_array_extras(self.extras)

    def positional_matrix(self, limit: int) -> np.ndarray:
        """``Pr(r(t_i) = j)`` from the tree's generating functions.

        Narrower requests are served by slicing the cached matrix: the
        generating-function coefficients of degree ``< limit`` are sums of
        exactly the products that a narrower truncation computes, so the
        slice is bit-identical to a fresh narrow computation.
        """
        from ..andxor.generating import positional_probabilities_tree

        with self.lock:
            positional = self.positional
            if positional is None or positional.shape[1] < limit:
                _, positional = positional_probabilities_tree(self.tree, max_rank=limit)
                self.positional = positional
        return positional[:, :limit]


@dataclass
class CachedNetwork:
    """The cached intermediates of one Markov-network relation.

    Besides the positional matrix, the entry retains the junction tree
    and its evidence-free calibration.  The tree holds everything that
    does not depend on evidence (components, home cliques, potentials,
    the dynamic program's layout) and the evidence-free messages, which
    each per-tuple calibration on ``X_t = 1`` reuses for every edge
    whose source side holds no evidence.  The calibration also memoizes
    its normalized clique marginals behind every ``Pr(X_t = 1)`` lookup.
    :meth:`elements` counts its beliefs, kept messages and memoized
    marginals.
    """

    ordered: list[Tuple]
    model: "MarkovNetworkRelation" = field(repr=False, default=None)
    junction: "JunctionTree | None" = field(default=None, repr=False)
    base_calibrated: "CalibratedTree | None" = field(default=None, repr=False)
    positional: np.ndarray | None = None  # (n, limit_computed) or None
    extras: dict[Any, Any] = field(default_factory=dict)
    source: weakref.ref | None = field(default=None, repr=False)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def n(self) -> int:
        """Number of tuples in the cached network relation."""
        return len(self.ordered)

    def elements(self) -> int:
        """Cached size in float64-equivalent elements (for the eviction budget)."""
        total_bytes = _extras_bytes(self.extras)
        if self.positional is not None:
            total_bytes += self.positional.nbytes
        if self.base_calibrated is not None:
            total_bytes += self.base_calibrated.nbytes
        return total_bytes // 8

    def shed(self) -> None:
        """Drop the matrices and calibration, keeping the cheap sorted order.

        Locked for the same reason as :meth:`CachedRelation.shed`: an
        unlocked ``base_calibrated = None`` wipe racing a concurrent
        :meth:`calibrated` call could hand the caller ``None``.
        """
        with self.lock:
            self.positional = None
            self.base_calibrated = None
            _drop_array_extras(self.extras)

    def junction_tree(self) -> "JunctionTree":
        """The (lazily built) junction tree of the network."""
        with self.lock:
            junction = self.junction
            if junction is None:
                from ..graphical.ranking import junction_tree_for

                junction = junction_tree_for(self.model)
                self.junction = junction
        return junction

    def calibrated(self) -> "CalibratedTree":
        """The evidence-free calibration, shared by all ``Pr(X_t = 1)`` lookups.

        Returns the locally captured calibration: reading the attribute
        again after releasing the lock could observe a concurrent
        :meth:`shed` wipe and return ``None``.
        """
        tree = self.junction_tree()
        with self.lock:
            calibrated = self.base_calibrated
            if calibrated is None:
                calibrated = tree.calibrate()
                self.base_calibrated = calibrated
        return calibrated

    def positional_matrix(self, limit: int) -> np.ndarray:
        """``Pr(r(t_i) = j)`` from the junction-tree dynamic program.

        The DP itself is limit-independent (the count distribution is
        always computed in full; ``limit`` only truncates the stored
        columns), so slicing a wider cached matrix is bit-identical to a
        fresh narrow computation.
        """
        from ..graphical.ranking import positional_probabilities_markov

        tree = self.junction_tree()
        base = self.calibrated()
        with self.lock:
            positional = self.positional
            if positional is None or positional.shape[1] < limit:
                _, positional = positional_probabilities_markov(
                    self.model, max_rank=limit, tree=tree, base=base
                )
                self.positional = positional
        return positional[:, :limit]


class RelationCache:
    """A bounded LRU cache of :class:`CachedRelation` entries.

    Parameters
    ----------
    max_relations:
        Maximum number of relations tracked.
    max_elements:
        Soft budget on the total number of cached float64-equivalent
        elements across all entries (8 bytes each); least-recently-used
        entries are evicted until the budget holds.  An entry whose matrix
        alone exceeds the budget is still served but not retained.  The
        budget covers the array payloads (probabilities, prefix matrices,
        sort columns); the Python-object overhead of the retained ``Tuple``
        lists is not counted and is bounded only by ``max_relations``.

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
        self._entries: "OrderedDict[str, CachedRelation]" = OrderedDict()
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

    def get(self, relation: ProbabilisticRelation, store: bool = True) -> CachedRelation:
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
        if isinstance(data, ColumnarRelation):
            # Columnar and tuple-list twins share a *content* fingerprint
            # (service dedup relies on that) but need different entry
            # shapes, so the cache keys them apart.
            key = "col:" + key
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        if entry is not None:
            if isinstance(entry, CachedColumnar):
                if entry.source is None or entry.source() is not data:
                    # Content-equal but distinct relation: repoint the
                    # entry at the caller's columns (results must refer
                    # to the caller's own object); derived arrays are
                    # bit-identical by fingerprint, so they are kept.
                    entry.relation = data
                    entry.source = weakref.ref(data)
                return entry
            if entry.source is None or entry.source() is not data:
                # Content-equal but distinct dataset: rebind the tuple
                # objects so results carry the caller's own tuples.  One
                # dict pass over the dataset's tuples — a ``get()`` per
                # tid would make warm hits quadratic.
                by_tid = {t.tid: t for t in _dataset_tuples(data)}
                entry.ordered = [by_tid[t.tid] for t in entry.ordered]
                entry.source = weakref.ref(data)
            return entry
        with self._lock:
            self.stats.misses += 1
        entry = self._build_entry(data)
        if store:
            with self._lock:
                self._entries[key] = entry
                self._evict_locked()
        return entry

    @staticmethod
    def _build_entry(data):
        if isinstance(data, ColumnarRelation):
            return CachedColumnar(
                relation=data,
                probabilities=data.sorted_probabilities(),
                source=weakref.ref(data),
            )
        if isinstance(data, ProbabilisticRelation):
            ordered = data.sorted_by_score()
            return CachedRelation(
                ordered=ordered,
                probabilities=np.array([t.probability for t in ordered], dtype=float),
                source=weakref.ref(data),
            )
        from ..andxor.tree import AndXorTree

        if isinstance(data, AndXorTree):
            return CachedTree(
                ordered=data.sorted_tuples(), tree=data, source=weakref.ref(data)
            )
        from ..graphical.model import MarkovNetworkRelation

        if isinstance(data, MarkovNetworkRelation):
            return CachedNetwork(
                ordered=data.sorted_tuples(), model=data, source=weakref.ref(data)
            )
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
