"""The :class:`Engine` facade — a correlation-aware planner over pluggable backends.

The engine is the single seam through which every ranking flows,
regardless of the input's correlation model.  A *planner* detects the
model of each input — tuple-independent relation, and/xor tree, or
Markov network — picks the Table-3-optimal algorithm through the
matching :class:`~repro.engine.backends.RankingBackend`, and executes
against one shared fingerprint-keyed LRU cache:

* :meth:`Engine.rank` — one dataset, one ranking function.  The per-model
  entry points (``rank_independent``, ``rank_tree``,
  ``rank_markov_network``) are ``Engine().rank`` calls; repeated rankings
  reuse the cached sorted order, prefix/positional matrices, memoized
  PRFe values and calibrated junction trees.
* :meth:`Engine.rank_batch` — many datasets, one ranking function.  The
  batch may freely mix correlation models; each model's slice runs
  through its backend (equal-size independent relations are stacked into
  single kernel invocations) and results come back in input order.
* :meth:`Engine.rank_many` — one dataset, many ranking functions,
  sharing the sort and the per-model hot intermediate across specs.
* :meth:`Engine.positional_matrix` / :meth:`Engine.rank_distribution` /
  :meth:`Engine.sorted_tuples` / :meth:`Engine.marginal_probabilities` —
  the derived queries behind U-Rank, E-Rank, E-Score and the learning
  features, cached for every model.
* :meth:`Engine.submit_batch` / :meth:`Engine.plan_batch` /
  :meth:`Engine.cache_info` — the serving hooks: non-blocking batch
  submission on a background executor, per-request model/algorithm
  tagging, and cache introspection for the coalescing service in
  :mod:`repro.service`.

Every execution shape — ``rank``, ``rank_batch``, ``rank_many`` and the
coalesced service path — produces bit-identical values for the same
(dataset, ranking function) pair; coalescing can never change an answer.

A module-level :func:`default_engine` serves :func:`repro.core.ranking.
rank` and the baselines so the whole package benefits from the shared
cache without threading an engine handle everywhere.
"""

from __future__ import annotations

import concurrent.futures
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from ..core.prf import RankingFunction
from ..core.result import RankingResult
from ..core.tuples import Tuple
from .approx import ApproxDecision, plan_approx, validated_budget
from .backends import AndXorBackend, IndependentBackend, MarkovBackend, RankingBackend
from .cache import RelationCache
from .topk import TopKReport, prunable, validated_k

__all__ = [
    "Engine",
    "ExecutionPlan",
    "ApproxDecision",
    "TopKReport",
    "default_engine",
    "set_default_engine",
]

#: Number of (spec, n, budget) approx decisions memoized per engine.
_APPROX_MEMO_SIZE = 128


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's choice for one (dataset, ranking function) pair."""

    #: Correlation model of the input (``independent`` / ``andxor`` / ``markov``).
    model: str
    #: Label of the Table-3 algorithm the backend will run.
    algorithm: str
    #: The backend that will execute the plan.
    backend: RankingBackend = field(repr=False)
    #: Requested top-k cutoff, or ``None`` for a full ranking.
    top_k: int | None = None
    #: Whether the backend will attempt geometric-decay early termination
    #: for this request (``top_k`` set and the spec is prunable; the
    #: backend may still run the full kernel when ``k`` covers the
    #: dataset or a cached full evaluation makes pruning pointless —
    #: the executed outcome is reported in :class:`TopKReport`).
    prune: bool = False
    #: The exact-vs-approximate decision for a request carrying an
    #: ``approx=`` error budget (``None`` when no budget was given).
    #: Records whether the DFT approximation engaged, its term count and
    #: the certified error bound.
    approx: ApproxDecision | None = None


class Engine:
    """Batched, cached, multi-backend PRF ranking engine.

    Parameters
    ----------
    cache_relations:
        Maximum number of datasets whose intermediates are retained.
    cache_elements:
        Element budget of the intermediate cache (float64 entries).
    """

    def __init__(
        self,
        *,
        cache_relations: int = 64,
        cache_elements: int = 32_000_000,
    ) -> None:
        self._cache = RelationCache(cache_relations, cache_elements)
        #: The pluggable per-correlation-model execution strategies, in
        #: planner probe order.
        self.backends: tuple[RankingBackend, ...] = (
            IndependentBackend(self),
            AndXorBackend(self),
            MarkovBackend(self),
        )
        self._submit_executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._submit_lock = threading.Lock()
        self._approx_memo: "OrderedDict[tuple[Any, ...], ApproxDecision]" = OrderedDict()
        self._approx_lock = threading.Lock()

    @property
    def cache(self) -> RelationCache:
        """The intermediate cache shared by every backend of this engine."""
        return self._cache

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def backend_for(self, data: Any) -> RankingBackend:
        """The backend executing ``data``'s correlation model."""
        for backend in self.backends:
            if backend.handles(data):
                return backend
        raise TypeError(
            f"cannot rank objects of type {type(data).__name__}; expected a "
            "ProbabilisticRelation, AndXorTree or MarkovNetworkRelation"
        )

    def approx_decision(self, data: Any, rf: RankingFunction, budget: float) -> ApproxDecision:
        """The exact-vs-approximate choice for one ``approx=`` request.

        Memoized per ``(spec key, dataset size, budget)``: the decision
        depends on the weight function and on ``n`` (the certified error
        bound covers ranks up to ``n``), not on the dataset's contents,
        so repeated requests skip the DFT construction entirely.  Specs
        without a canonical key (opaque callables) are planned afresh
        each time.
        """
        from ..service.spec import ranking_function_key

        budget = validated_budget(budget)
        n = len(data)
        key: tuple[Any, ...] | None = None
        spec_key = ranking_function_key(rf)
        if spec_key is not None:
            key = (spec_key, n, budget)
            with self._approx_lock:
                hit = self._approx_memo.get(key)
                if hit is not None:
                    self._approx_memo.move_to_end(key)
                    return hit
        decision = plan_approx(rf, n, budget)
        if key is not None:
            with self._approx_lock:
                self._approx_memo[key] = decision
                while len(self._approx_memo) > _APPROX_MEMO_SIZE:
                    self._approx_memo.popitem(last=False)
        return decision

    def plan(
        self,
        data: Any,
        rf: RankingFunction,
        top_k: int | None = None,
        approx: float | None = None,
    ) -> ExecutionPlan:
        """The (model, algorithm, backend) the planner picks for this input.

        With ``top_k`` set the plan also records the pruning decision:
        whether the request will route through the backend's
        early-termination path (a prunable PRFe spec) or run the full
        kernel and truncate.  With an ``approx=`` error budget the plan
        records the exact-vs-approximate decision (and the algorithm
        label reflects the ranking function actually executed).
        """
        decision: ApproxDecision | None = None
        if approx is not None:
            decision = self.approx_decision(data, rf, approx)
            rf = decision.effective
        backend = self.backend_for(data)
        prune = top_k is not None and prunable(rf)
        algorithm = backend.algorithm(rf)
        if decision is not None and decision.used:
            algorithm = (
                f"{algorithm} + dft-approx(L={decision.terms}, "
                f"err<={decision.error_bound:.2e})"
            )
        if prune:
            algorithm = f"{algorithm} + top-k early termination"
        return ExecutionPlan(
            model=backend.model,
            algorithm=algorithm,
            backend=backend,
            top_k=top_k,
            prune=prune,
            approx=decision,
        )

    def plan_batch(
        self,
        datasets: Iterable[Any],
        rf: RankingFunction,
        top_k: int | None = None,
        approx: float | None = None,
    ) -> list[ExecutionPlan]:
        """Per-dataset execution plans for one batch (without executing it).

        The ranking service uses this to tag each coalesced response with
        the correlation model and Table-3 algorithm that served it.
        """
        return [self.plan(data, rf, top_k=top_k, approx=approx) for data in datasets]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the intermediate cache."""
        return self.cache.stats.as_dict()

    def cache_info(self) -> dict[str, int | float]:
        """One-shot snapshot of the intermediate cache for dashboards.

        Combines the hit/miss/eviction counters with the current
        occupancy (entries retained, float64-equivalent elements held)
        and the configured budgets, so a serving layer can expose cache
        effectiveness without reaching into :class:`RelationCache`.
        """
        info: dict[str, int | float] = self.cache.stats.as_dict()
        info["hit_rate"] = self.cache.stats.hit_rate()
        info["entries"] = len(self.cache)
        info["elements"] = self.cache.total_elements()
        info["max_relations"] = self.cache.max_relations
        info["max_elements"] = self.cache.max_elements
        return info

    def clear_cache(self) -> None:
        """Drop every cached intermediate (counters are kept)."""
        self.cache.clear()

    # ------------------------------------------------------------------
    # Single dataset, single ranking function
    # ------------------------------------------------------------------
    def rank(
        self,
        data: Any,
        rf: RankingFunction,
        name: str = "",
        top_k: int | None = None,
        approx: float | None = None,
    ) -> RankingResult:
        """Rank one dataset of any supported correlation model.

        With ``top_k`` set, returns only the best ``top_k`` items —
        identical to the head of the full ranking — computed through the
        backend's early-termination path when the spec admits it (see
        :meth:`rank_top_k` for the execution report).

        With ``approx=epsilon`` set, the planner may substitute an
        ``L``-term exponential approximation of the weight whose values
        are *certified* to differ from the exact ones by at most
        ``epsilon`` (see :meth:`approx_decision`); when no approximation
        fits the budget the exact kernel runs, so the budget is always
        honoured.
        """
        if approx is not None:
            rf = self.approx_decision(data, rf, approx).effective
        if top_k is not None:
            return self.rank_top_k(data, rf, top_k, name=name)[0]
        return self.backend_for(data).rank(data, rf, name=name)

    def rank_top_k(
        self,
        data: Any,
        rf: RankingFunction,
        k: int,
        name: str = "",
        approx: float | None = None,
    ) -> tuple[RankingResult, TopKReport]:
        """Top ``k`` of the ranking plus a report of how it was executed.

        The result holds the same items, values and positions as
        ``self.rank(data, rf, name=name)[:k]``; for prunable PRFe specs
        the backend examines only a score-sorted prefix certified by the
        geometric-decay bound (see :mod:`repro.engine.topk`), and the
        :class:`TopKReport` records the examined prefix length.

        ``approx=epsilon`` substitutes a certified approximation of the
        weight before execution (see :meth:`rank`); since an engaged
        approximation is a :class:`~repro.core.prf.LinearCombinationPRFe`,
        it additionally unlocks the early-termination path for weights
        that would otherwise run the full O(n h) kernel.
        """
        if approx is not None:
            rf = self.approx_decision(data, rf, approx).effective
        return self.backend_for(data).rank_top_k(data, rf, validated_k(k), name=name)

    # ------------------------------------------------------------------
    # Many datasets, one ranking function
    # ------------------------------------------------------------------
    def rank_batch(
        self,
        datasets: Iterable[Any],
        rf: RankingFunction,
        *,
        top_k: int | None = None,
        approx: float | None = None,
    ) -> list[RankingResult]:
        """Rank a batch of datasets — freely mixing correlation models.

        The planner partitions the batch by model and hands each slice to
        its backend: equal-cardinality independent relations are stacked
        into single vectorized kernel invocations; trees and networks run
        through their cached evaluators.  Results come back in input
        order, bit-identical to ranking each dataset alone.

        With ``top_k`` set, each result holds only the best ``top_k``
        items (equal to the head of the dataset's full ranking) and
        prunable PRFe specs route through the per-dataset
        early-termination path instead of the stacked kernels — examined
        prefix lengths differ per dataset, so there is nothing to stack.

        ``approx=epsilon`` resolves the exact-vs-approximate decision per
        dataset (the certified bound depends on the dataset size); the
        memoized decisions make equal-size datasets share one effective
        ranking function, so homogeneous batches still stack into single
        kernel invocations.
        """
        datasets = list(datasets)
        if not datasets:
            return []
        if approx is not None:
            effectives = [
                self.approx_decision(data, rf, approx).effective for data in datasets
            ]
            groups: "OrderedDict[int, tuple[RankingFunction, list[int]]]" = OrderedDict()
            for index, effective in enumerate(effectives):
                groups.setdefault(id(effective), (effective, []))[1].append(index)
            if len(groups) == 1:
                rf = effectives[0]
            else:
                merged: list[RankingResult | None] = [None] * len(datasets)
                for effective, indices in groups.values():
                    group_results = self.rank_batch(
                        [datasets[i] for i in indices],
                        effective,
                        top_k=top_k,
                    )
                    for index, result in zip(indices, group_results):
                        merged[index] = result
                return [result for result in merged if result is not None]
        if top_k is not None:
            top_k = validated_k(top_k)
        by_backend: dict[int, tuple[RankingBackend, list[int]]] = {}
        for index, data in enumerate(datasets):
            backend = self.backend_for(data)
            by_backend.setdefault(id(backend), (backend, []))[1].append(index)
        results: list[RankingResult | None] = [None] * len(datasets)
        # A batch larger than the LRU would evict every retained entry while
        # gaining nothing (its own entries evict each other too), so such
        # batches only read the cache; their misses stay transient.
        store = len(datasets) <= self.cache.max_relations
        for backend, indices in by_backend.values():
            subset = [datasets[i] for i in indices]
            if top_k is not None:
                subset_results = [
                    backend.rank_top_k(data, rf, top_k, store=store)[0]
                    for data in subset
                ]
            else:
                subset_results = backend.rank_batch(subset, rf, store=store)
            for index, result in zip(indices, subset_results):
                results[index] = result
        return [result for result in results if result is not None]

    def submit_batch(
        self,
        datasets: Iterable[Any],
        rf: RankingFunction,
        *,
        top_k: int | None = None,
        approx: float | None = None,
    ) -> "concurrent.futures.Future[list[RankingResult]]":
        """Non-blocking :meth:`rank_batch`: submit and return a future.

        The batch runs on the engine's background thread pool (created
        lazily, shut down by :meth:`close`), so an event loop — the
        asyncio ranking service in particular — can overlap request
        coalescing with kernel execution instead of blocking on it.
        The returned :class:`concurrent.futures.Future` resolves to the
        same results ``rank_batch`` would return (including ``top_k``
        truncation and pruning); ``asyncio`` callers can await it via
        :func:`asyncio.wrap_future`.
        """
        return self._executor().submit(
            self.rank_batch, list(datasets), rf, top_k=top_k, approx=approx
        )

    def _executor(self) -> concurrent.futures.ThreadPoolExecutor:
        """The lazily created background pool behind :meth:`submit_batch`."""
        with self._submit_lock:
            if self._submit_executor is None:
                self._submit_executor = concurrent.futures.ThreadPoolExecutor(
                    max_workers=2, thread_name_prefix="engine-batch"
                )
            return self._submit_executor

    def close(self) -> None:
        """Shut down the background executor (idempotent).

        Pending :meth:`submit_batch` futures complete first; the engine
        remains usable afterwards — the next submission recreates the
        pool.
        """
        with self._submit_lock:
            executor, self._submit_executor = self._submit_executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "Engine":
        """Support ``with Engine() as engine:`` for scoped executor cleanup."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the background executor on scope exit."""
        self.close()

    # ------------------------------------------------------------------
    # Cache warm-up (worker bootstrap hook)
    # ------------------------------------------------------------------
    def warm(self, datasets: Iterable[Any], rfs: Sequence[RankingFunction] = ()) -> int:
        """Pre-compute and cache the hot intermediates of ``datasets``.

        For each dataset, materializes the score-sorted order (which
        fills the model-specific cache entry — prefix matrices, tree
        memos, junction trees hang off it) and, for each ranking
        function in ``rfs``, the full ranking, so the result of the
        first real request is already cached.  Returns the number of
        datasets warmed.

        This is the cache-warm bootstrap hook of the serving tier: a
        freshly (re)started pool worker is handed its shard's hot set so
        its LRU is warm before traffic arrives
        (:meth:`repro.service.pool.WorkerPool.warm`).
        """
        count = 0
        for data in datasets:
            self.sorted_tuples(data)
            for rf in rfs:
                self.rank(data, rf)
            count += 1
        return count

    # ------------------------------------------------------------------
    # One dataset, many ranking functions
    # ------------------------------------------------------------------
    def rank_many(
        self,
        data: Any,
        rfs: Sequence[RankingFunction],
        name: str = "",
        top_k: int | None = None,
        approx: float | None = None,
    ) -> list[RankingResult]:
        """Rank one dataset under many ranking functions, sharing intermediates.

        Independent relations sweep real-``alpha`` PRFe specs in a single
        stacked log-space kernel and share one prefix matrix across the
        general-weight specs; trees run every PRFe alpha not memoized
        yet in one stacked walk and share the positional matrix;
        networks share the calibrated junction tree and DP matrix.

        With ``top_k`` set, each spec runs through :meth:`rank_top_k`
        instead (results truncated to the best ``top_k`` items); specs
        sharing an alpha still compose through the cache entry's memoized
        prefixes, but the stacked alpha sweep is skipped — per-spec
        prefixes terminate at different lengths.

        ``approx=epsilon`` resolves the exact-vs-approximate decision
        independently per spec; engaged approximations (being PRFe
        combinations) join the stacked alpha sweep.
        """
        if approx is not None:
            rfs = [self.approx_decision(data, rf, approx).effective for rf in rfs]
        if top_k is not None:
            backend = self.backend_for(data)
            return [
                backend.rank_top_k(data, rf, validated_k(top_k), name=name)[0]
                for rf in rfs
            ]
        return self.backend_for(data).rank_many(data, rfs, name=name)

    # ------------------------------------------------------------------
    # Derived queries (cached across the whole package)
    # ------------------------------------------------------------------
    def positional_matrix(
        self, data: Any, max_rank: int | None = None
    ) -> tuple[list[Tuple], "np.ndarray[Any, Any]"]:
        """Cached positional probabilities of any supported dataset kind."""
        return self.backend_for(data).positional_matrix(data, max_rank=max_rank)

    def rank_distribution(
        self, data: Any, tid: Any, max_rank: int | None = None
    ) -> "np.ndarray[Any, Any]":
        """Rank distribution ``Pr(r(t) = j)`` of one tuple (index 0 unused)."""
        return self.backend_for(data).rank_distribution(data, tid, max_rank=max_rank)

    def sorted_tuples(self, data: Any) -> list[Tuple]:
        """Score-descending tuples of any supported dataset kind (cached)."""
        return self.backend_for(data).sorted_tuples(data)

    def marginal_probabilities(self, data: Any) -> dict[Any, float]:
        """Marginal existence probability per tuple identifier."""
        return self.backend_for(data).marginal_probabilities(data)


_default: Engine | None = None


def default_engine() -> Engine:
    """The process-wide engine used by :func:`repro.core.ranking.rank`."""
    global _default
    if _default is None:
        _default = Engine()
    return _default


def set_default_engine(engine: Engine | None) -> Engine | None:
    """Replace the process-wide engine; returns the previous one.

    Passing ``None`` resets to a lazily created fresh default.
    """
    global _default
    previous = _default
    _default = engine
    return previous
