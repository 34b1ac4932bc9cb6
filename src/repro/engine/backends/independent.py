"""The tuple-independent backend — PR 1's batched vectorized kernels.

Evaluation strategy per ranking-function spec (Table 3 of the paper):

* PRFe(alpha) — the O(n) closed form after sorting; real alphas run in
  log space so huge relations neither under- nor overflow.
* LinearCombinationPRFe — one stacked cumulative-product pass per term.
* General weights — the prefix generating-function matrix (Algorithm 1's
  hot intermediate), LRU-cached per relation and shared across batches,
  sweeps and the positional-probability queries of the baselines.

Batches of equal-size relations are stacked and pushed through the
kernels of :mod:`repro.engine.kernels` in single vectorized passes; all
results are bit-identical to :func:`repro.algorithms.independent.
rank_independent`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...algorithms.independent import (
    positional_probabilities,
    prf_values,
    uses_log_space,
)
from ...core.columnar import ColumnarRelation
from ...core.prf import LinearCombinationPRFe, PRFe, RankingFunction
from ...core.result import RankingResult
from ...core.tuples import ProbabilisticRelation, Tuple
from ..cache import CachedRelation
from ..kernels import (
    batched_general_values,
    batched_lincomb_values,
    batched_prefix_matrices,
    batched_prfe_log_values,
    batched_prfe_values,
)
from ..topk import (
    TopKReport,
    certified,
    independent_topk_log_values,
    prefix_top_k,
    prunable,
    validated_k,
)
from .base import RankingBackend, build_result

__all__ = ["IndependentBackend"]


class IndependentBackend(RankingBackend):
    """Batched vectorized ranking over tuple-independent relations."""

    model = "independent"

    def handles(self, data) -> bool:
        """Whether ``data`` is a tuple-independent relation (either storage)."""
        return isinstance(data, (ProbabilisticRelation, ColumnarRelation))

    def algorithm(self, rf: RankingFunction) -> str:
        """Label of the Table-3 algorithm picked for ``rf``."""
        if isinstance(rf, PRFe):
            return "independent-prfe-closed-form (O(n log n))"
        if isinstance(rf, LinearCombinationPRFe):
            return "independent-prfe-combination (O(n L))"
        if rf.weight.horizon is not None:
            return "independent-prefix-matrix (O(n h))"
        return "independent-general (O(n^2))"

    # ------------------------------------------------------------------
    # Single relation, single ranking function
    # ------------------------------------------------------------------
    def rank(
        self, relation: ProbabilisticRelation, rf: RankingFunction, name: str = ""
    ) -> RankingResult:
        """Rank one relation — the drop-in replacement for ``rank_independent``.

        PRFe and LinearCombinationPRFe specs run their O(n) closed forms
        against the cached entry (so repeated rankings reuse the sorted
        order and probability array); general-weight specs reuse the
        cached prefix matrix.  Both reproduce the legacy rankings (the
        real-alpha PRFe path bit for bit).
        """
        label = name or relation.name
        if isinstance(rf, (PRFe, LinearCombinationPRFe)):
            # The single-spec case of rank_many: same kernels, shared entry.
            return self.rank_many(relation, [rf], name=label)[0]
        n = len(relation)
        limit = self._general_limit(n, rf)
        # Same materialization condition as rank_batch: matrices beyond the
        # element budget stream through the legacy evaluation (both paths),
        # everything else runs the stacked kernel as a batch of one — so a
        # request served alone is bit-identical to one served coalesced
        # (the guarantee the ranking service builds on).
        if n * limit > self._max_batch_elements:
            ordered, values, sort_keys = prf_values(relation, rf)
            return RankingResult.from_values(
                ordered, values.tolist(), name=label, sort_keys=sort_keys
            )
        entry = self.entry(relation)
        values, _ = self._evaluate_stack([entry], n, rf)
        self.cache.enforce_budget()
        return build_result(entry, values[0], label)

    # ------------------------------------------------------------------
    # Top-k with early termination
    # ------------------------------------------------------------------
    def rank_top_k(
        self,
        relation: ProbabilisticRelation,
        rf: RankingFunction,
        k: int,
        name: str = "",
        store: bool = True,
    ) -> tuple[RankingResult, TopKReport]:
        """Top ``k`` under ``rf``, early-terminating the log-space PRFe kernel.

        For prunable specs the streaming kernel of
        :func:`~repro.engine.topk.independent_topk_log_values` examines a
        geometrically growing score-sorted prefix and stops at the
        geometric-decay bound; the returned items equal the first ``k``
        of the full ranking bit for bit (values included — the examined
        prefix reproduces the full kernel's arithmetic exactly).  The
        examined log-values are memoized on the cache entry under
        ``("topk", alpha)``, so repeated top-k requests (equal or
        smaller ``k``, or any ``k`` the prefix still certifies) skip the
        kernel entirely.
        """
        k = validated_k(k)
        n = len(relation)
        label = name or relation.name
        if not prunable(rf) or k >= n:
            return super().rank_top_k(relation, rf, k, name=label, store=store)
        entry = self.entry(relation, store=store)
        if k == 0:
            return RankingResult([], name=label), TopKReport(
                k=0, n=n, examined=0, pruned=n > 0
            )
        alpha = float(rf.alpha)
        key = ("topk", alpha)
        memo = entry.extras.get(key)
        log_values = None
        if memo is not None:
            cached_values, cached_examined, cached_bound = memo
            if cached_examined >= n or certified(cached_values, k, cached_bound):
                log_values, examined, bound = cached_values, cached_examined, cached_bound
        if log_values is None:
            log_values, examined, bound = independent_topk_log_values(
                entry.probabilities, alpha, k
            )
            if store and (memo is None or examined > memo[1]):
                entry.extras[key] = (log_values, examined, bound)
        with np.errstate(over="ignore", under="ignore"):
            values = np.exp(log_values)
        result = prefix_top_k(entry, values, k, label, sort_keys=log_values)
        self.cache.enforce_budget()
        return result, TopKReport(k=k, n=n, examined=examined, pruned=examined < n)

    # ------------------------------------------------------------------
    # Many relations, one ranking function
    # ------------------------------------------------------------------
    def rank_batch(
        self,
        relations: Sequence[ProbabilisticRelation],
        rf: RankingFunction,
        store: bool = True,
    ) -> list[RankingResult]:
        """Stacked evaluation of a batch of independent relations."""
        results: list[RankingResult | None] = [None] * len(relations)
        groups: dict[int, list[int]] = {}
        for index, relation in enumerate(relations):
            groups.setdefault(len(relation), []).append(index)
        for n, indices in groups.items():
            if not isinstance(rf, (PRFe, LinearCombinationPRFe)):
                limit = self._general_limit(n, rf)
                if n * limit > self._max_batch_elements:
                    # Even a single stacked row would blow the kernel budget;
                    # stream these relations through the legacy evaluation.
                    for index in indices:
                        results[index] = self.rank(relations[index], rf)
                    continue
            entries = [self.entry(relations[i], store=store) for i in indices]
            for chunk_indices, chunk_entries in self._chunk(indices, entries, n, rf):
                values, sort_keys = self._evaluate_stack(
                    chunk_entries, n, rf, cache_rows=store
                )
                for row, index in enumerate(chunk_indices):
                    relation = relations[index]
                    entry = chunk_entries[row]
                    if entry.source is None or entry.source() is not relation:
                        # A content-equal twin looked up later in the batch
                        # rebound the shared entry to its own tuples/columns;
                        # point it back at this relation before building.
                        entry = self.entry(relation, store=store)
                    keys = sort_keys[row] if sort_keys is not None else None
                    results[index] = build_result(
                        entry, values[row], relation.name, sort_keys=keys
                    )
        self.cache.enforce_budget()
        return [result for result in results if result is not None]

    def _chunk(self, indices, entries, n: int, rf: RankingFunction):
        """Split one equal-size group into memory-bounded kernel chunks."""
        if isinstance(rf, PRFe):
            per_relation = max(n, 1)
        elif isinstance(rf, LinearCombinationPRFe):
            per_relation = max(n * len(rf), 1)
        else:
            per_relation = max(n * self._general_limit(n, rf), 1)
        rows = max(1, self._max_batch_elements // per_relation)
        for start in range(0, len(indices), rows):
            yield indices[start : start + rows], entries[start : start + rows]

    def _evaluate_stack(
        self,
        entries: Sequence[CachedRelation],
        n: int,
        rf: RankingFunction,
        cache_rows: bool = True,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Values (and optional sort keys) for a stack of equal-size entries."""
        P = np.stack([entry.probabilities for entry in entries]) if n else np.zeros(
            (len(entries), 0)
        )
        if isinstance(rf, PRFe):
            alpha = rf.alpha
            if uses_log_space(rf):
                log_values = batched_prfe_log_values(P, alpha)
                with np.errstate(over="ignore", under="ignore"):
                    values = np.exp(log_values)
                return values, log_values
            return batched_prfe_values(P, alpha), None
        if isinstance(rf, LinearCombinationPRFe):
            return batched_lincomb_values(P, rf.coefficients, rf.alphas), None
        limit = self._general_limit(n, rf)
        prefix = self._stacked_prefixes(entries, P, limit, cache_rows=cache_rows)
        dtype = float if rf.is_real() else complex
        weights = rf.weight_array(limit)[1:].astype(dtype)
        factors = None
        if rf.tuple_factor is not None:
            factors = np.array(
                [[rf.factor(t) for t in entry.ordered] for entry in entries], dtype=float
            )
        return batched_general_values(P, prefix, weights, factors), None

    def _stacked_prefixes(
        self,
        entries: Sequence[CachedRelation],
        P: np.ndarray,
        limit: int,
        cache_rows: bool = True,
    ) -> np.ndarray:
        """The ``(B, n, limit)`` prefix stack, reusing cached per-relation matrices.

        Rows whose entries already carry a wide-enough matrix are sliced
        in; only the missing rows run the batched recurrence.  With
        ``cache_rows`` the computed rows are copied back into their
        entries (the batched and single-relation recurrences are bitwise
        identical, so cache contents stay canonical); transient entries of
        an oversized batch skip the copies.
        """
        snapshots = [entry.prefix for entry in entries]
        missing = [
            row
            for row, prefix in enumerate(snapshots)
            if prefix is None or prefix.shape[1] < limit
        ]
        if not missing:
            return np.stack([prefix[:, :limit] for prefix in snapshots])
        if len(missing) == len(entries):
            prefix = batched_prefix_matrices(P, limit)
            if cache_rows:
                for row, entry in enumerate(entries):
                    # Copy: a view would pin the whole (B, n, limit) stack alive.
                    entry.store_prefix(prefix[row].copy())
            return prefix
        stack = np.empty((len(entries), P.shape[1], limit), dtype=float)
        for row, prefix in enumerate(snapshots):
            if prefix is not None and prefix.shape[1] >= limit:
                stack[row] = prefix[:, :limit]
        computed = batched_prefix_matrices(P[missing], limit)
        for position, row in enumerate(missing):
            stack[row] = computed[position]
            if cache_rows:
                entries[row].store_prefix(computed[position].copy())
        return stack

    # ------------------------------------------------------------------
    # One relation, many ranking functions
    # ------------------------------------------------------------------
    def rank_many(
        self,
        relation: ProbabilisticRelation,
        rfs: Sequence[RankingFunction],
        name: str = "",
    ) -> list[RankingResult]:
        """Rank one relation under many ranking functions, sharing intermediates.

        The relation is sorted once; real-``alpha`` PRFe specs are swept in
        a single stacked log-space evaluation (this is the Figure 7 alpha
        sweep), and all general-weight specs share one prefix matrix wide
        enough for the largest horizon among them.
        """
        rfs = list(rfs)
        if not rfs:
            return []
        label = name or relation.name
        entry = self.entry(relation)
        results: list[RankingResult | None] = [None] * len(rfs)

        sweep = [i for i, rf in enumerate(rfs) if uses_log_space(rf)]
        general = [
            i
            for i, rf in enumerate(rfs)
            if not isinstance(rfs[i], (PRFe, LinearCombinationPRFe))
        ]
        other = [i for i in range(len(rfs)) if i not in set(sweep) | set(general)]

        if sweep:
            for index, values, log_values in self._prfe_alpha_sweep(
                entry, [(i, rfs[i].alpha) for i in sweep]
            ):
                results[index] = build_result(entry, values, label, sort_keys=log_values)
        if other:
            # Complex-alpha PRFe and LinearCombinationPRFe specs: already
            # O(n) closed forms, evaluated from the shared cache entry so no
            # per-spec re-sort or probability-array rebuild happens.
            P = entry.probabilities[None, :]
            for index in other:
                rf = rfs[index]
                if isinstance(rf, PRFe):
                    values = batched_prfe_values(P, rf.alpha)[0]
                else:
                    values = batched_lincomb_values(P, rf.coefficients, rf.alphas)[0]
                results[index] = build_result(entry, values, label)
        if general:
            for index, values in self._general_many(
                entry, relation, [(i, rfs[i]) for i in general]
            ):
                results[index] = build_result(entry, values, label)
        self.cache.enforce_budget()
        return [result for result in results if result is not None]

    def _prfe_alpha_sweep(self, entry: CachedRelation, specs):
        """Stacked log-space PRFe evaluation over many real alphas.

        One relation broadcast across the rows, one alpha per row — the
        same kernel that serves ``rank_batch``.
        """
        p = entry.probabilities
        alphas = np.array([alpha for _, alpha in specs], dtype=float)
        P = np.broadcast_to(p, (alphas.size, p.size))
        log_values = batched_prfe_log_values(P, alphas)
        with np.errstate(over="ignore", under="ignore"):
            values = np.exp(log_values)
        for row, (index, _) in enumerate(specs):
            yield index, values[row], log_values[row]

    def _general_many(self, entry: CachedRelation, relation: ProbabilisticRelation, specs):
        """General-weight specs sharing one cached prefix matrix."""
        n = entry.n
        limits = {index: self._general_limit(n, rf) for index, rf in specs}
        widest = max(limits.values(), default=0)
        if n * widest > self._max_batch_elements:
            # Too wide to materialize: stream each spec independently.
            for index, rf in specs:
                _, values, _ = prf_values(relation, rf)
                yield index, values
            return
        prefix = entry.prefix_matrix(widest) if widest else np.zeros((n, 0))
        p = entry.probabilities
        for index, rf in specs:
            limit = limits[index]
            dtype = float if rf.is_real() else complex
            if n == 0 or limit == 0:
                yield index, np.zeros(n, dtype=dtype)
                continue
            weights = rf.weight_array(limit)[1:].astype(dtype)
            values = (prefix[:, :limit] @ weights) * p
            if rf.tuple_factor is not None:
                values = values * np.array(
                    [rf.factor(t) for t in entry.ordered], dtype=float
                )
            yield index, values

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def positional_matrix(
        self, relation: ProbabilisticRelation, max_rank: int | None = None
    ) -> tuple[list[Tuple], np.ndarray]:
        """Cached positional probabilities (same contract as the algorithm).

        Matrices wider than ``max_batch_elements`` bypass the cache and
        fall through to the streaming implementation.
        """
        n = len(relation)
        limit = self._validated_limit(n, max_rank)
        if n * limit > self._max_batch_elements:
            return positional_probabilities(relation, max_rank=max_rank)
        entry = self.entry(relation)
        matrix = entry.positional_matrix(limit)
        self.cache.enforce_budget()
        return list(entry.ordered), matrix

    def marginal_probabilities(self, relation: ProbabilisticRelation) -> dict:
        """Existence probability per tuple identifier (trivial when independent)."""
        if isinstance(relation, ColumnarRelation):
            return dict(zip(relation.tid_values(), relation.probabilities().tolist()))
        return {t.tid: t.probability for t in relation}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _validated_limit(n: int, max_rank: int | None) -> int:
        from ...algorithms.independent import _resolve_limit

        return _resolve_limit(n, max_rank)

    @staticmethod
    def _general_limit(n: int, rf: RankingFunction) -> int:
        """Weight horizon clamped to the relation size (matrix width)."""
        horizon = rf.weight.horizon
        return n if horizon is None else min(int(horizon), n)
