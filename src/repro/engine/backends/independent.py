"""The tuple-independent backend — PR 1's batched vectorized kernels.

Evaluation strategy per ranking-function spec (Table 3 of the paper):

* PRFe(alpha) — the O(n) closed form after sorting; real alphas run in
  log space so huge relations neither under- nor overflow.
* LinearCombinationPRFe — one stacked cumulative-product pass per term.
* General weights — one exact kernel over the prefix generating
  function (Algorithm 1's hot intermediate).  Matrices of at most
  ``_MATERIALIZE_ELEMENTS`` elements are LRU-cached per relation and
  shared across batches, sweeps and positional-probability queries;
  wider ones stream, with the same values.

Batches of equal-size relations are stacked and pushed through the
kernels of :mod:`repro.engine.kernels` in single vectorized passes, and
large real-alpha PRFe stacks split their rows across cores
(:mod:`repro.engine.parallel`); a relation ranked alone or in any batch
gets the same bits.  This backend is the one evaluator of the model:
:func:`repro.algorithms.independent.rank_independent` is an engine call.

Both storage forms take one path: the backend reads only the column
protocol (:class:`~repro.core.columnar.RelationColumns`) and one
content-keyed :class:`~repro.engine.cache.CachedRelation`.  Results are
built from the caller's own relation: a full ranking is a lazy
:class:`~repro.core.result.ColumnarRankingResult` whose items are
``relation.tuples_at(...)`` (for a tuple-list relation, the caller's
``Tuple`` objects), and a top-k result materializes only its ``k`` items.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...core.columnar import RelationColumns
from ...core.prf import LinearCombinationPRFe, PRFe, RankingFunction
from ...core.result import ColumnarRankingResult, RankingResult
from ...core.tuples import Tuple
from ..cache import CachedRelation
from ..kernels import (
    batched_general_values,
    batched_lincomb_values,
    batched_prefix_matrices,
    batched_prfe_log_values,
    batched_prfe_values,
    clamped_limit,
    exp_log_values,
    general_weights,
    uses_log_space,
)
from ..parallel import row_parts, run_parts
from ..topk import independent_topk_log_values, ranking_order
from .base import RankingBackend

__all__ = ["IndependentBackend"]

#: Largest prefix matrix, in elements per relation (``n * limit``), that a
#: general-weight evaluation materializes and keeps in the cache; wider
#: ones stream.  Also the element bound of one stacked kernel call.
_MATERIALIZE_ELEMENTS = 16_000_000


def _factors(rf: RankingFunction, relations: Sequence[RelationColumns]) -> np.ndarray | None:
    """The ``(B, n)`` tuple factors ``g(t)`` of a stack, or ``None`` without any."""
    if rf.tuple_factor is None:
        return None
    return np.array(
        [[rf.factor(t) for t in relation.sorted_by_score()] for relation in relations],
        dtype=float,
    )


def _ranking(
    relation: RelationColumns,
    entry: CachedRelation,
    values: np.ndarray,
    name: str,
    sort_keys: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> RankingResult:
    """The lazy :class:`ColumnarRankingResult` of ``relation`` from all its values.

    Its position and value arrays are ``out`` when given.
    """
    order = ranking_order(
        values, entry.scores, lambda: entry.tid_strings(relation), sort_keys
    )
    if out is None:
        return ColumnarRankingResult(relation, entry.order[order], values[order], name=name)
    # order holds valid positions; mode="raise" would buffer the output.
    entry.order.take(order, out=out[0], mode="clip")
    values.take(order, out=out[1], mode="clip")
    return ColumnarRankingResult(relation, out[0], out[1], name=name)


def _prfe_rankings(
    relations: Sequence[RelationColumns],
    entries: Sequence[CachedRelation],
    P: np.ndarray,
    alpha,
    names: Sequence[str],
) -> list[RankingResult]:
    """Real-alpha PRFe rankings of every row of the ``(B, n)`` stack ``P``.

    ``alpha`` is one scalar or one per row.  The rows are split across
    cores (:mod:`repro.engine.parallel`): each part runs the log-space
    kernel, the exponentials, the ranking sort and both gathers of its
    rows.  Every row runs the same operations as on one core, so a split
    changes no bit.
    """
    rows, n = P.shape
    alphas = np.asarray(alpha, dtype=float)
    log_values = np.empty((rows, n))
    values = np.zeros((rows, n))
    results: list[RankingResult | None] = [None] * rows
    parts = row_parts(rows, rows * n)
    outputs: list[tuple[np.ndarray, np.ndarray] | None] = [None] * rows
    if len(parts) > 1:
        # Pool threads write their rows into arrays allocated here: memory
        # a thread frees stays in its own malloc arena.  Inline, each result
        # is allocated after its row's temporaries are freed, and reuses them.
        outputs = [(np.empty(n, dtype=entry.order.dtype), np.empty(n)) for entry in entries]

    def rank_rows(part: range) -> None:
        span = slice(part.start, part.stop)
        batched_prfe_log_values(
            P[span], alphas if alphas.ndim == 0 else alphas[span], out=log_values[span]
        )
        exp_log_values(log_values[span], out=values[span])
        for row in part:
            results[row] = _ranking(
                relations[row],
                entries[row],
                values[row],
                names[row],
                log_values[row],
                out=outputs[row],
            )

    run_parts(rank_rows, parts)
    return results


def _stack(entries: Sequence[CachedRelation], n: int) -> np.ndarray:
    """The ``(B, n)`` probability stack of equal-size entries."""
    if not n:
        return np.zeros((len(entries), 0))
    return np.stack([entry.probabilities for entry in entries])


def _cacheable_row(stack: np.ndarray, row: int) -> np.ndarray:
    """Row ``row`` of a computed prefix stack, to be kept in a cache entry.

    A view of a one-row stack pins exactly its own bytes; a view of a
    larger stack would pin all of it, so that row is copied.
    """
    return stack[row] if len(stack) == 1 else stack[row].copy()


class IndependentBackend(RankingBackend):
    """Batched vectorized ranking over tuple-independent relations."""

    model = "independent"
    # A full ranking caches no values: a top-k query needing every row
    # memoizes them itself.
    _full_path_cached = False

    def handles(self, data) -> bool:
        """Whether ``data`` is a tuple-independent relation (either storage)."""
        return isinstance(data, RelationColumns)

    @staticmethod
    def rows(relation: RelationColumns) -> RelationColumns:
        """The relation itself: its entry's ``order`` holds original positions."""
        return relation

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
        self, relation: RelationColumns, rf: RankingFunction, name: str = ""
    ) -> RankingResult:
        """Rank one relation.

        PRFe and LinearCombinationPRFe specs run their O(n) closed forms
        against the cached entry (so repeated rankings reuse the sorted
        order and probability array); general-weight specs run the stacked
        kernel as a batch of one, reusing the cached prefix matrix.  A
        request served alone is bit-identical to one served coalesced (the
        guarantee the ranking service builds on).
        """
        label = name or relation.name
        if isinstance(rf, (PRFe, LinearCombinationPRFe)):
            # The single-spec case of rank_many: same kernels, shared entry.
            return self.rank_many(relation, [rf], name=label)[0]
        entry = self.entry(relation)
        values = self._evaluate_stack([relation], [entry], len(relation), rf)
        self.cache.enforce_budget()
        return _ranking(relation, entry, values[0], label)

    def _topk_prefix(
        self, relation: RelationColumns, entry: CachedRelation, alpha: float, m: int
    ) -> tuple[np.ndarray, float]:
        """Log-values of the first ``m`` tuples and the bound on the rest.

        The log-space kernel over the first ``m`` probabilities
        (:func:`~repro.engine.topk.independent_topk_log_values`).
        """
        return independent_topk_log_values(entry.probabilities, alpha, m)

    @staticmethod
    def _topk_values(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The values of log-value keys, which the ranking sorts by."""
        return exp_log_values(keys), keys

    # ------------------------------------------------------------------
    # Many relations, one ranking function
    # ------------------------------------------------------------------
    def rank_batch(
        self,
        relations: Sequence[RelationColumns],
        rf: RankingFunction,
        store: bool = True,
    ) -> list[RankingResult]:
        """Stacked evaluation of a batch of independent relations."""
        results: list[RankingResult | None] = [None] * len(relations)
        groups: dict[int, list[int]] = {}
        for index, relation in enumerate(relations):
            groups.setdefault(len(relation), []).append(index)
        for n, indices in groups.items():
            entries = [self.entry(relations[i], store=store) for i in indices]
            for chunk_indices, chunk_entries in self._chunk(indices, entries, n, rf):
                chunk = [relations[i] for i in chunk_indices]
                if uses_log_space(rf):
                    rankings = _prfe_rankings(
                        chunk,
                        chunk_entries,
                        _stack(chunk_entries, n),
                        rf.alpha,
                        [relation.name for relation in chunk],
                    )
                else:
                    values = self._evaluate_stack(
                        chunk, chunk_entries, n, rf, cache_rows=store
                    )
                    rankings = [
                        _ranking(relation, entry, row, relation.name)
                        for relation, entry, row in zip(chunk, chunk_entries, values)
                    ]
                for index, result in zip(chunk_indices, rankings):
                    results[index] = result
        self.cache.enforce_budget()
        return [result for result in results if result is not None]

    def _chunk(self, indices, entries, n: int, rf: RankingFunction):
        """Split one equal-size group into memory-bounded kernel chunks."""
        if isinstance(rf, PRFe):
            per_relation = max(n, 1)
        elif isinstance(rf, LinearCombinationPRFe):
            per_relation = max(n * len(rf), 1)
        else:
            per_relation = max(n * clamped_limit(n, rf.weight.horizon), 1)
        rows = max(1, _MATERIALIZE_ELEMENTS // per_relation)
        for start in range(0, len(indices), rows):
            yield indices[start : start + rows], entries[start : start + rows]

    def _evaluate_stack(
        self,
        relations: Sequence[RelationColumns],
        entries: Sequence[CachedRelation],
        n: int,
        rf: RankingFunction,
        cache_rows: bool = True,
    ) -> np.ndarray:
        """Values for a stack of equal-size relations (real-alpha PRFe aside)."""
        P = _stack(entries, n)
        if isinstance(rf, PRFe):
            return batched_prfe_values(P, rf.alpha)
        if isinstance(rf, LinearCombinationPRFe):
            return batched_lincomb_values(P, rf.coefficients, rf.alphas)
        weights = general_weights(rf, n)
        prefix = None
        if n * weights.size <= _MATERIALIZE_ELEMENTS:
            prefix = self._stacked_prefixes(entries, P, weights.size, cache_rows=cache_rows)
        return batched_general_values(P, weights, _factors(rf, relations), prefix)

    def _stacked_prefixes(
        self,
        entries: Sequence[CachedRelation],
        P: np.ndarray,
        limit: int,
        cache_rows: bool = True,
    ) -> np.ndarray:
        """The ``(B, n, limit)`` prefix stack, from the cache when every entry has it.

        Otherwise the whole stack runs the batched recurrence: its cost is
        a loop over the ``n`` rows whatever ``B`` is, and the rows it
        recomputes equal the cached ones bit for bit.  With ``cache_rows``
        the computed rows are stored back into their entries; transient
        entries of an oversized batch skip the stores.
        """
        snapshots = [entry.prefix for entry in entries]
        if all(prefix is not None and prefix.shape[1] >= limit for prefix in snapshots):
            return np.stack([prefix[:, :limit] for prefix in snapshots])
        prefix = batched_prefix_matrices(P, limit)
        if cache_rows:
            for row, entry in enumerate(entries):
                entry.store_prefix(_cacheable_row(prefix, row))
        return prefix

    # ------------------------------------------------------------------
    # One relation, many ranking functions
    # ------------------------------------------------------------------
    def rank_many(
        self,
        relation: RelationColumns,
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
            # The Figure 7 sweep: the relation broadcast across the rows,
            # one alpha per row, through the kernel that serves rank_batch.
            p = entry.probabilities
            rankings = _prfe_rankings(
                [relation] * len(sweep),
                [entry] * len(sweep),
                np.broadcast_to(p, (len(sweep), p.size)),
                [rfs[i].alpha for i in sweep],
                [label] * len(sweep),
            )
            for index, result in zip(sweep, rankings):
                results[index] = result
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
                results[index] = _ranking(relation, entry, values, label)
        if general:
            specs = [(i, rfs[i]) for i in general]
            for index, values in self._general_many(relation, entry, specs):
                results[index] = _ranking(relation, entry, values, label)
        self.cache.enforce_budget()
        return [result for result in results if result is not None]

    def _general_many(self, relation: RelationColumns, entry: CachedRelation, specs):
        """General-weight specs sharing one cached prefix matrix."""
        weights = {index: general_weights(rf, entry.n) for index, rf in specs}
        widest = max(w.size for w in weights.values())
        prefix = None
        if entry.n * widest <= _MATERIALIZE_ELEMENTS:
            prefix = entry.prefix_matrix(widest)[None]
        P = entry.probabilities[None, :]
        for index, rf in specs:
            values = batched_general_values(
                P, weights[index], _factors(rf, [relation]), prefix
            )
            yield index, values[0]

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def positional_matrix(
        self, relation: RelationColumns, max_rank: int | None = None
    ) -> tuple[list[Tuple], np.ndarray]:
        """Cached positional probabilities (same contract as the algorithm).

        A matrix over the cache's element budget is returned and then shed
        from its entry by the budget enforcement.
        """
        limit = clamped_limit(len(relation), max_rank)
        matrix = self.entry(relation).positional_matrix(limit)
        self.cache.enforce_budget()
        return relation.sorted_by_score(), matrix

    def sorted_tuples(self, relation: RelationColumns) -> list[Tuple]:
        """Score-descending tuples (the caller's own, for a tuple-list relation)."""
        self.entry(relation)
        return relation.sorted_by_score()

    def marginal_probabilities(self, relation: RelationColumns) -> dict:
        """Existence probability per tuple identifier (trivial when independent)."""
        return dict(zip(relation.tid_values(), relation.probabilities().tolist()))
