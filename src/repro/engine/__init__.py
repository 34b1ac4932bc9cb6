"""Batched, cached, multi-backend ranking engine (the scaling seam of the repo).

The engine evaluates PRF-family ranking functions over probabilistic
datasets of *any* supported correlation model — tuple-independent
relations, and/xor trees, and bounded-treewidth Markov networks.  A
planner detects the model of each input and routes execution through a
pluggable :class:`~repro.engine.backends.RankingBackend` (stacked
numpy kernels for independent relations, generating functions plus a
stacked Algorithm 3 for trees, junction-tree dynamic programs for
networks), all sharing one LRU cache keyed on dataset content
fingerprints: sorted orders, prefix and positional matrices, memoized
PRFe value vectors and calibrated junction trees survive across calls.
The engine runs in-process; multi-process scale-out is the serving
tier's :class:`~repro.service.pool.WorkerPool`.

Quickstart — one batch may freely mix correlation models::

    from repro import AndXorTree, PRFe, ProbabilisticRelation
    from repro.engine import Engine
    from repro.graphical import MarkovNetworkRelation

    engine = Engine()
    relation = ProbabilisticRelation.from_pairs([(10, 0.6), (5, 0.3)])
    tree = AndXorTree.from_x_tuples([relation.tuples])      # mutual exclusion
    network = MarkovNetworkRelation.from_independent(relation)

    results = engine.rank_batch([relation, tree, network], PRFe(0.95))
    sweeps = engine.rank_many(tree, [PRFe(a) for a in (0.5, 0.9, 0.99)])
    print(engine.plan(tree, PRFe(0.95)).algorithm)  # Table-3 choice
    print(engine.cache_stats())
"""

from .approx import ApproxDecision, plan_approx
from .backends import AndXorBackend, IndependentBackend, MarkovBackend, RankingBackend
from .cache import (
    CachedNetwork,
    CachedRelation,
    CachedTree,
    CacheStats,
    RelationCache,
    dataset_fingerprint,
    network_fingerprint,
    relation_fingerprint,
    tree_fingerprint,
)
from .facade import Engine, ExecutionPlan, default_engine, set_default_engine
from .topk import TopKReport, prunable

__all__ = [
    "Engine",
    "ExecutionPlan",
    "ApproxDecision",
    "plan_approx",
    "TopKReport",
    "prunable",
    "default_engine",
    "set_default_engine",
    "RankingBackend",
    "IndependentBackend",
    "AndXorBackend",
    "MarkovBackend",
    "RelationCache",
    "CachedRelation",
    "CachedTree",
    "CachedNetwork",
    "CacheStats",
    "relation_fingerprint",
    "tree_fingerprint",
    "network_fingerprint",
    "dataset_fingerprint",
]
