"""The Markov-network backend — junction-tree DP with calibrated-tree reuse.

Section 9.4's algorithm ranks a bounded-treewidth Markov network by
running, per tuple, a partial-sum dynamic program over the junction
tree calibrated on ``X_t = 1``.  The positional matrix runs it for every
tuple at once: one calibration and one DP walk over tables with a
leading row axis, one row per tuple (see
:func:`~repro.graphical.ranking.positional_probabilities_markov`).
Everything that does not depend on the tuple is derived once per
junction tree (see :class:`~repro.graphical.junction_tree.JunctionTree`):
components, home cliques, potentials, the message schedule and the DP's
post-order layout.  The backend caches on the network's fingerprint
entry:

* the junction tree (built with the entry, once per network content),
* the evidence-free calibration, whose memoized clique marginals serve
  every ``Pr(X_t = 1)`` lookup and the top-k prefix-count DP, and
* the positional-probability matrix.  The DP is limit-independent —
  ``max_rank`` only truncates the stored columns — so a cached wide
  matrix serves every narrower horizon by slicing, bit-identically.

The cache entry refers to no network: content-equal networks share it,
every evaluator runs on the caller's network, and results carry the
caller's tuples.  Every spec's values are one ``matrix @ weights`` pass
over the positional matrix
(:meth:`~repro.core.prf.RankingFunction.evaluate_positional`), and
:func:`~repro.graphical.ranking.rank_markov_network` is an engine call.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ...core.prf import RankingFunction
from ...core.result import RankingResult
from ...graphical.model import MarkovNetworkRelation
from ...graphical.ranking import prefix_count_distribution, rank_distribution_markov
from ..cache import CachedNetwork
from ..kernels import clamped_limit
from ..topk import BOUND_SAFETY, TopKReport, certified, prunable, validated_k
from .base import CorrelatedBackend, build_result

__all__ = ["MarkovBackend"]


class MarkovBackend(CorrelatedBackend):
    """Cached junction-tree ranking over Markov-network relations."""

    model = "markov"

    def handles(self, data) -> bool:
        """Whether ``data`` is a Markov-network relation."""
        return isinstance(data, MarkovNetworkRelation)

    def algorithm(self, rf: RankingFunction) -> str:
        """Label of the algorithm executing every spec on networks."""
        return "markov-junction-tree-dp (Section 9.4)"

    @staticmethod
    def rows(model: MarkovNetworkRelation):
        """The network's tuples, in the sequence the entry's ``order`` indexes."""
        return model.tuples

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def rank_top_k(
        self,
        model: MarkovNetworkRelation,
        rf: RankingFunction,
        k: int,
        name: str = "",
        store: bool = True,
    ) -> tuple[RankingResult, TopKReport]:
        """Top ``k`` under ``rf``, early-terminating the junction-tree DP.

        For prunable specs the backend runs one one-row rank-distribution
        DP per score-sorted tuple plus one evidence-free prefix-count DP
        for the geometric-decay bound (:func:`~repro.graphical.ranking.
        prefix_count_distribution`), stopping once the k-th best
        confirmed value beats ``alpha * E[alpha^count]`` — about two
        one-row passes per *examined* tuple against one ``n``-row
        stacked pass for the full positional matrix.  A cached wide positional matrix short-cuts to
        the full (already-paid-for) evaluation; an early-terminated
        prefix is memoized under ``("topk", alpha)``.  The returned
        *set* of tuples equals the full ranking's top ``k``; values may
        differ in the last ulp (the full path evaluates all rows in one
        matrix product, the pruned path row by row).
        """
        k = validated_k(k)
        entry = self.entry(model, store=store)
        tuples = model.tuples
        label = name or model.name
        n = entry.n
        limit = clamped_limit(n, rf.weight.horizon)
        positional = entry.positional
        matrix_cached = positional is not None and positional.shape[1] >= limit
        if not prunable(rf) or k >= n or matrix_cached:
            result = build_result(tuples, entry, self._values(model, entry, rf), label, k)
            self.cache.enforce_budget()
            return result, TopKReport(k=k, n=n, examined=n, pruned=False)
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
                result = build_result(tuples, entry, cached_values, label, k)
                return result, TopKReport(
                    k=k, n=n, examined=cached_examined, pruned=cached_examined < n
                )
        values, examined, bound = self._streamed_topk_values(model, entry, rf, k)
        if store and (memo is None or examined > memo[1]):
            entry.extras[memo_key] = (values, examined, bound)
        result = build_result(tuples, entry, values, label, k)
        self.cache.enforce_budget()
        return result, TopKReport(k=k, n=n, examined=examined, pruned=examined < n)

    def _streamed_topk_values(
        self, model: MarkovNetworkRelation, entry: CachedNetwork, rf: RankingFunction, k: int
    ) -> tuple[np.ndarray, int, float]:
        """Score-order streamed PRFe values until the decay bound certifies ``k``."""
        n = entry.n
        limit = clamped_limit(n, rf.weight.horizon)
        alpha = float(rf.alpha)
        tree = entry.junction
        base = entry.calibrated()
        weights = rf.weight.as_array(limit)[1:].astype(float)
        ordered = entry.sorted_tuples(model.tuples)
        values = np.zeros(n, dtype=float)
        best: list[float] = []
        examined = 0
        bound = math.inf
        for i, t in enumerate(ordered):
            row = rank_distribution_markov(
                model, t.tid, max_rank=limit, tree=tree, base=base
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
                    model,
                    [u.tid for u in ordered[:examined]],
                    tree=tree,
                    base=base,
                )
                decay = alpha ** np.arange(counts.size, dtype=float)
                bound = BOUND_SAFETY * alpha * float(counts @ decay)
                if best[0] > bound:
                    break
        return values[:examined], examined, bound

    def _values(
        self, model: MarkovNetworkRelation, entry: CachedNetwork, rf: RankingFunction
    ) -> np.ndarray:
        matrix = entry.positional_matrix(model, clamped_limit(entry.n, rf.weight.horizon))
        return rf.evaluate_positional(entry.sorted_tuples(model.tuples), matrix)

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def marginal_probabilities(self, model: MarkovNetworkRelation) -> dict:
        """Marginals ``Pr(X_t = 1)`` from the shared evidence-free calibration."""
        entry = self.entry(model)
        base = entry.calibrated()
        marginals = {
            t.tid: base.variable_marginal(t.tid) for t in entry.sorted_tuples(model.tuples)
        }
        self.cache.enforce_budget()
        return marginals

    def _cold_distribution(
        self, model: MarkovNetworkRelation, entry: CachedNetwork, tid, limit: int
    ) -> np.ndarray:
        """The one-tuple DP against the cached junction tree and base calibration."""
        return rank_distribution_markov(
            model, tid, max_rank=limit, tree=entry.junction, base=entry.calibrated()
        )
