"""The Markov-network backend — junction-tree DP with calibrated-tree reuse.

Section 9.4's algorithm ranks a bounded-treewidth Markov network by
running, per tuple, a partial-sum dynamic program over the junction
tree calibrated on ``X_t = 1``.  Everything that does not depend on the
tuple is done once per junction tree (see
:class:`~repro.graphical.junction_tree.JunctionTree`): components, home
cliques, potentials, the DP's post-order layout and the evidence-free
messages, which each per-tuple calibration reuses for every edge whose
source side holds no evidence.  The backend caches on the network's
fingerprint entry:

* the junction tree (built once per network content, not per object),
* the evidence-free calibration, whose memoized clique marginals serve
  every ``Pr(X_t = 1)`` lookup and the top-k prefix-count DP, and
* the positional-probability matrix.  The DP is limit-independent —
  ``max_rank`` only truncates the stored columns — so a cached wide
  matrix serves every narrower horizon by slicing, bit-identically.

Values are produced by the same :mod:`repro.graphical.ranking`
evaluators as the legacy :func:`~repro.graphical.ranking.
rank_markov_network`, so the rankings are bit-identical.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from ...core.prf import RankingFunction
from ...core.result import RankingResult
from ...core.tuples import Tuple
from ...graphical.model import MarkovNetworkRelation
from ...graphical.ranking import (
    prefix_count_distribution,
    prf_values_markov,
    rank_distribution_markov,
)
from ..cache import CachedNetwork
from ..topk import (
    BOUND_SAFETY,
    TopKReport,
    certified,
    prefix_top_k,
    prunable,
    validated_k,
)
from .base import RankingBackend, build_result, distribution_row

__all__ = ["MarkovBackend"]


class MarkovBackend(RankingBackend):
    """Cached junction-tree ranking over Markov-network relations."""

    model = "markov"

    def handles(self, data) -> bool:
        """Whether ``data`` is a Markov-network relation."""
        return isinstance(data, MarkovNetworkRelation)

    def algorithm(self, rf: RankingFunction) -> str:
        """Label of the algorithm executing every spec on networks."""
        return "markov-junction-tree-dp (Section 9.4)"

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def rank(
        self, model: MarkovNetworkRelation, rf: RankingFunction, name: str = ""
    ) -> RankingResult:
        """Rank one network — the drop-in replacement for ``rank_markov_network``."""
        entry = self.entry(model)
        result = self._rank_entry(entry, rf, name or model.name)
        self.cache.enforce_budget()
        return result

    def rank_many(
        self, model: MarkovNetworkRelation, rfs: Sequence[RankingFunction], name: str = ""
    ) -> list[RankingResult]:
        """Rank one network under many specs, sharing its cached junction tree."""
        rfs = list(rfs)
        if not rfs:
            return []
        entry = self.entry(model)
        label = name or model.name
        results = [self._rank_entry(entry, rf, label) for rf in rfs]
        self.cache.enforce_budget()
        return results

    def rank_batch(
        self, models: Sequence[MarkovNetworkRelation], rf: RankingFunction, store: bool = True
    ) -> list[RankingResult]:
        """Rank a batch of networks against the shared cache."""
        results = [
            self._rank_entry(self.entry(model, store=store), rf, model.name)
            for model in models
        ]
        self.cache.enforce_budget()
        return results

    def rank_top_k(
        self,
        model: MarkovNetworkRelation,
        rf: RankingFunction,
        k: int,
        name: str = "",
        store: bool = True,
    ) -> tuple[RankingResult, TopKReport]:
        """Top ``k`` under ``rf``, early-terminating the junction-tree DP.

        For prunable specs the backend runs one rank-distribution DP per
        score-sorted tuple plus one evidence-free prefix-count DP for the
        geometric-decay bound (:func:`~repro.graphical.ranking.
        prefix_count_distribution`), stopping once the k-th best
        confirmed value beats ``alpha * E[alpha^count]`` — about two DP
        passes per *examined* tuple against ``n`` passes for the full
        positional matrix.  A cached wide positional matrix short-cuts to
        the full (already-paid-for) evaluation; an early-terminated
        prefix is memoized under ``("topk", alpha)``.  The returned
        *set* of tuples equals the full ranking's top ``k``; values may
        differ in the last ulp (the full path evaluates all rows in one
        matrix product, the pruned path row by row).
        """
        k = validated_k(k)
        entry = self.entry(model, store=store)
        label = name or model.name
        n = entry.n
        limit = self._clamped_limit(n, rf.weight.horizon)
        positional = entry.positional
        matrix_cached = positional is not None and positional.shape[1] >= limit
        if not prunable(rf) or k >= n or matrix_cached:
            result = self._rank_entry(entry, rf, label)
            self.cache.enforce_budget()
            return result[:k], TopKReport(k=k, n=n, examined=n, pruned=False)
        if k == 0:
            return RankingResult([], name=label), TopKReport(
                k=0, n=n, examined=0, pruned=n > 0
            )
        alpha = float(rf.alpha)
        memo_key = ("topk", alpha)
        memo = entry.extras.get(memo_key)
        if memo is not None:
            cached_values, cached_examined, cached_bound = memo
            if cached_examined >= n or certified(
                np.abs(cached_values), k, cached_bound
            ):
                result = prefix_top_k(entry, cached_values, k, label)
                return result, TopKReport(
                    k=k, n=n, examined=cached_examined, pruned=cached_examined < n
                )
        values, examined, bound = self._streamed_topk_values(entry, rf, k)
        if store and (memo is None or examined > memo[1]):
            entry.extras[memo_key] = (values, examined, bound)
        result = prefix_top_k(entry, values, k, label)
        self.cache.enforce_budget()
        return result, TopKReport(k=k, n=n, examined=examined, pruned=examined < n)

    def _streamed_topk_values(
        self, entry: CachedNetwork, rf: RankingFunction, k: int
    ) -> tuple[np.ndarray, int, float]:
        """Score-order streamed PRFe values until the decay bound certifies ``k``."""
        n = entry.n
        limit = self._clamped_limit(n, rf.weight.horizon)
        alpha = float(rf.alpha)
        tree = entry.junction_tree()
        base = entry.calibrated()
        weights = rf.weight.as_array(limit)[1:].astype(float)
        ordered = entry.ordered
        values = np.zeros(n, dtype=float)
        best: list[float] = []
        examined = 0
        bound = math.inf
        for i, t in enumerate(ordered):
            row = rank_distribution_markov(
                entry.model, t.tid, max_rank=limit, tree=tree, base=base
            )[1:]
            values[i] = float(row @ weights)
            examined = i + 1
            magnitude = abs(values[i])
            if len(best) < k:
                heapq.heappush(best, magnitude)
            elif magnitude > best[0]:
                heapq.heapreplace(best, magnitude)
            if len(best) == k and examined < n:
                counts = prefix_count_distribution(
                    entry.model,
                    [u.tid for u in ordered[:examined]],
                    tree=tree,
                    base=base,
                )
                decay = alpha ** np.arange(counts.size, dtype=float)
                bound = BOUND_SAFETY * alpha * float(counts @ decay)
                if best[0] > bound:
                    break
        return values[:examined], examined, bound

    def _rank_entry(self, entry: CachedNetwork, rf: RankingFunction, name: str) -> RankingResult:
        limit = self._clamped_limit(entry.n, rf.weight.horizon)
        matrix = entry.positional_matrix(limit)
        _, values = prf_values_markov(entry.model, rf, positional=(entry.ordered, matrix))
        return build_result(entry, values, name)

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def positional_matrix(
        self, model: MarkovNetworkRelation, max_rank: int | None = None
    ) -> tuple[list[Tuple], np.ndarray]:
        """Cached positional probabilities of the network (fresh-matrix contract)."""
        entry = self.entry(model)
        limit = self._clamped_limit(entry.n, max_rank)
        matrix = entry.positional_matrix(limit)
        self.cache.enforce_budget()
        # Copy: the legacy path returned a fresh matrix per call, and a
        # caller mutating a view would silently corrupt the cache.
        return list(entry.ordered), matrix.copy()

    def marginal_probabilities(self, model: MarkovNetworkRelation) -> dict:
        """Marginals ``Pr(X_t = 1)`` from the shared evidence-free calibration."""
        entry = self.entry(model)
        base = entry.calibrated()
        marginals = {t.tid: base.variable_marginal(t.tid) for t in entry.ordered}
        self.cache.enforce_budget()
        return marginals

    def rank_distribution(
        self, model: MarkovNetworkRelation, tid, max_rank: int | None = None
    ) -> np.ndarray:
        """Single-tuple rank distribution.

        Served from the cached positional matrix when one wide enough
        exists; a cold cache runs the one-tuple DP against the cached
        junction tree and base calibration.
        """
        entry = self.entry(model)
        limit = self._clamped_limit(entry.n, max_rank)
        positional = entry.positional
        if positional is not None and positional.shape[1] >= limit:
            return distribution_row(entry.ordered, positional, tid, limit)
        distribution = rank_distribution_markov(
            entry.model,
            tid,
            max_rank=max_rank,
            tree=entry.junction_tree(),
            base=entry.calibrated(),
        )
        self.cache.enforce_budget()
        return distribution
