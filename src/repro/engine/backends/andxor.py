"""The and/xor-tree backend — generating functions plus stacked PRFe.

Evaluation strategy per ranking-function spec (Sections 4.2/4.3):

* PRFe(alpha) — ``ANDXOR-PRFe-RANK`` (Algorithm 3) as one stacked
  numeric walk of the tree: every labelling row and every alpha of a
  batch at once, each node's value stored only at the rows where a leaf
  below it changes label (:func:`~repro.andxor.ranking.prfe_values_stacked`).
  The alpha-independent :class:`~repro.andxor.ranking.PRFeLayout` is
  built once per cache entry, and each alpha's value vector is memoized
  on the entry, so alpha sweeps and repeated batches skip the walk.
  :meth:`AndXorBackend.rank_many` gathers every alpha of its specs that
  is not memoized yet into one kernel call.
* LinearCombinationPRFe — its terms' alphas share that call, and the
  columns are summed term by term.
* General weights — positional probabilities from the tree's generating
  functions, all tuples built in one stacked tree walk
  (:func:`~repro.andxor.generating.positional_probabilities_tree`),
  cached per tree and served to every horizon by slicing (the truncated
  coefficients are bit-identical; see
  :class:`~repro.engine.cache.CachedTree`), then one vectorized
  ``matrix @ weights`` pass per tree
  (:meth:`~repro.core.prf.RankingFunction.evaluate_positional`).

The cache entry refers to no tree: content-equal trees share it, every
evaluator runs on the caller's tree, and results carry the caller's leaf
tuples.  A PRFe column's arithmetic does not depend on the other alphas
it is stacked with, so all paths produce bit-identical rankings;
:func:`~repro.andxor.ranking.rank_tree` is an engine call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...andxor.ranking import prfe_topk_values_stacked, prfe_values_stacked
from ...andxor.tree import AndXorTree
from ...core.prf import LinearCombinationPRFe, PRFe, RankingFunction
from ...core.result import RankingResult
from ..cache import CachedTree
from ..kernels import clamped_limit
from ..topk import BOUND_SAFETY, TopKReport, certified, prunable, validated_k
from .base import CorrelatedBackend, build_result

__all__ = ["AndXorBackend"]


def _prfe_alphas(rf: RankingFunction) -> list[complex]:
    """The PRFe alphas ``rf`` is evaluated from (none for general weights)."""
    if isinstance(rf, PRFe):
        return [rf.alpha]
    if isinstance(rf, LinearCombinationPRFe):
        return [alpha for _, alpha in rf.terms()]
    return []


class AndXorBackend(CorrelatedBackend):
    """Cached, batched ranking over probabilistic and/xor trees."""

    model = "andxor"

    def handles(self, data) -> bool:
        """Whether ``data`` is a probabilistic and/xor tree."""
        return isinstance(data, AndXorTree)

    def algorithm(self, rf: RankingFunction) -> str:
        """Label of the Table-3 algorithm picked for ``rf``."""
        if isinstance(rf, PRFe):
            return "andxor-prfe-stacked (Algorithm 3 over rows x alpha)"
        if isinstance(rf, LinearCombinationPRFe):
            return "andxor-prfe-combination (Algorithm 3 over rows x L alphas)"
        return "andxor-generating-function (Theorem 1)"

    @staticmethod
    def rows(tree: AndXorTree):
        """The leaf tuples, in the sequence the entry's ``order`` indexes."""
        return tree.tuples()

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def rank_top_k(
        self, tree: AndXorTree, rf: RankingFunction, k: int, name: str = "", store: bool = True
    ) -> tuple[RankingResult, TopKReport]:
        """Top ``k`` under ``rf``, evaluating growing row prefixes.

        For prunable specs the stacked kernel runs on rows ``0 .. m - 1``
        (``m = max(k, 64)``, then doubling) and stops at the first row
        whose k-th best confirmed value beats ``alpha * F^i(alpha,
        alpha)`` — the root value the kernel computes anyway, so the
        bound is free.  A memoized *full* value vector, when present, is
        served directly; an early-terminated prefix is memoized under
        ``("topk", alpha)`` and promoted to the full memo when it runs to
        the end, so pruned and full requests compose through the same
        cache entry.
        """
        k = validated_k(k)
        entry = self.entry(tree, store=store)
        tuples = tree.tuples()
        label = name or tree.name
        n = entry.n
        if not prunable(rf) or k >= n:
            result = build_result(tuples, entry, self._values(tree, entry, rf), label, k)
            self.cache.enforce_budget()
            return result, TopKReport(k=k, n=n, examined=n, pruned=False)
        if k == 0:
            return RankingResult([], name=label), TopKReport(
                k=0, n=n, examined=0, pruned=n > 0
            )
        alpha = complex(rf.alpha)
        full = entry.extras.get(("prfe", alpha))
        if full is not None:
            result = build_result(tuples, entry, full, label, k)
            self.cache.enforce_budget()
            return result, TopKReport(k=k, n=n, examined=n, pruned=False)
        memo_key = ("topk", alpha)
        memo = entry.extras.get(memo_key)
        values = None
        if memo is not None:
            cached_values, cached_examined, cached_bound = memo
            if cached_examined >= n or certified(
                np.abs(cached_values), k, cached_bound
            ):
                values, examined = cached_values, cached_examined
        if values is None:
            values, examined, bound = prfe_topk_values_stacked(
                entry.prfe_layout(tree), float(rf.alpha), k, safety=BOUND_SAFETY
            )
            if store and (memo is None or examined > memo[1]):
                entry.extras[memo_key] = (values, examined, bound)
            if store and examined == n:
                # A prefix that ran to the end is the full value vector —
                # promote it so future full rankings skip the walk.
                entry.extras[("prfe", alpha)] = values
        result = build_result(tuples, entry, values, label, k)
        self.cache.enforce_budget()
        return result, TopKReport(k=k, n=n, examined=examined, pruned=examined < n)

    def _values(self, tree: AndXorTree, entry: CachedTree, rf: RankingFunction) -> np.ndarray:
        return self._values_many(tree, entry, [rf])[0]

    def _values_many(
        self, tree: AndXorTree, entry: CachedTree, rfs: Sequence[RankingFunction]
    ) -> list[np.ndarray]:
        """Every spec's values, with all their PRFe alphas in one kernel call."""
        columns = self._prfe_columns(tree, entry, [a for rf in rfs for a in _prfe_alphas(rf)])
        results = []
        for rf in rfs:
            if isinstance(rf, PRFe):
                values = columns[complex(rf.alpha)]
            elif isinstance(rf, LinearCombinationPRFe):
                values = np.zeros(entry.n, dtype=complex)
                for coefficient, alpha in rf.terms():
                    values = values + coefficient * columns[complex(alpha)].astype(complex)
            else:
                matrix = entry.positional_matrix(tree, clamped_limit(entry.n, rf.weight.horizon))
                values = rf.evaluate_positional(entry.sorted_tuples(tree.tuples()), matrix)
            results.append(values)
        return results

    @staticmethod
    def _prfe_columns(
        tree: AndXorTree, entry: CachedTree, alphas: Sequence[complex]
    ) -> dict[complex, np.ndarray]:
        """PRFe values per alpha; the ones not memoized on the entry run in one call."""
        columns: dict[complex, np.ndarray] = {}
        missing: list[complex] = []
        for key in dict.fromkeys(complex(alpha) for alpha in alphas):
            values = entry.extras.get(("prfe", key))
            if values is None:
                missing.append(key)
            else:
                columns[key] = values
        if missing:
            computed = prfe_values_stacked(entry.prfe_layout(tree), missing)
            for key, values in zip(missing, computed):
                entry.extras[("prfe", key)] = values
                columns[key] = values
        return columns

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def marginal_probabilities(self, tree: AndXorTree) -> dict:
        """Marginal existence probability per leaf tuple identifier."""
        return tree.marginal_probabilities()

    def _cold_distribution(self, tree: AndXorTree, entry, tid, limit: int) -> np.ndarray:
        """The one-tuple generating function.

        At full width on Syn-XOR that measured ~2x cheaper than building
        the whole matrix at ``n = 200`` and ~14x at ``n = 1000`` (2-core
        x86).
        """
        from ...andxor.generating import positional_distribution

        return positional_distribution(tree, tid, max_rank=limit)
