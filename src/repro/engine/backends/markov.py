"""The Markov-network backend — junction-tree DP with calibrated-tree reuse.

Section 9.4's algorithm ranks a bounded-treewidth Markov network by
running, per tuple, a partial-sum dynamic program over the junction
tree calibrated on ``X_t = 1``.  The positional matrix runs it for every
tuple at once: one calibration and one DP walk over tables with a
leading row axis, one row per tuple (see
:func:`~repro.graphical.ranking.positional_rows`).
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
caller's tuples.  Every spec's values are one weighted sum per row of
the positional matrix
(:meth:`~repro.core.prf.RankingFunction.evaluate_positional`), and
:func:`~repro.graphical.ranking.rank_markov_network` is an engine call.
A top-k query (:meth:`~repro.engine.backends.base.RankingBackend.rank_top_k`)
evaluates the matrix's first ``m`` rows the same way, so its values are
the full ranking's bit for bit, and bounds the rest with one
evidence-free prefix-count DP over the first ``m`` tuples.
"""

from __future__ import annotations

import numpy as np

from ...core.prf import PRFe, RankingFunction
from ...graphical.model import MarkovNetworkRelation
from ...graphical.ranking import (
    positional_rows,
    prefix_count_distribution,
    rank_distribution_markov,
)
from ..cache import CachedNetwork
from ..kernels import clamped_limit
from ..topk import BOUND_SAFETY
from .base import CorrelatedBackend

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
    def _values(
        self, model: MarkovNetworkRelation, entry: CachedNetwork, rf: RankingFunction
    ) -> np.ndarray:
        matrix = entry.positional_matrix(model, clamped_limit(entry.n, rf.weight.horizon))
        return rf.evaluate_positional(entry.sorted_tuples(model.tuples), matrix)

    def _evaluated(self, entry: CachedNetwork, alpha: float) -> bool:
        """Whether the cached positional matrix is as wide as PRFe reads."""
        positional = entry.positional
        return positional is not None and positional.shape[1] >= entry.n

    def _topk_prefix(
        self, model: MarkovNetworkRelation, entry: CachedNetwork, alpha: float, m: int
    ) -> tuple[np.ndarray, float]:
        """Values of the first ``m`` rows of the positional matrix, at its full width.

        The bound is ``alpha * E[alpha^{C_m}]`` from one evidence-free
        prefix-count dynamic program over the first ``m`` tuples
        (:func:`~repro.graphical.ranking.prefix_count_distribution`),
        inflated by :data:`~repro.engine.topk.BOUND_SAFETY`.
        """
        tree, base = entry.junction, entry.calibrated()
        ordered = entry.sorted_tuples(model.tuples)
        rows = positional_rows(tree, base, ordered, m, entry.n)
        values = PRFe(alpha).evaluate_positional(ordered[:m], rows)
        counts = prefix_count_distribution(
            model, [t.tid for t in ordered[:m]], tree=tree, base=base
        )
        expectation = float(counts @ alpha ** np.arange(counts.size, dtype=float))
        return values, BOUND_SAFETY * alpha * expectation

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
