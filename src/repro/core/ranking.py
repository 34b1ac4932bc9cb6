"""Unified ranking entry points.

:func:`rank` dispatches on the *correlation model* of the input —

* :class:`~repro.core.tuples.ProbabilisticRelation` (tuple-independent),
* :class:`~repro.andxor.tree.AndXorTree` (and/xor correlations),
* :class:`~repro.graphical.model.MarkovNetworkRelation` (arbitrary
  correlations through a bounded-treewidth graphical model),

and on the *ranking function* — any member of the PRF family defined in
:mod:`repro.core.prf` — choosing the fastest applicable algorithm per
Table 3 of the paper.  The dispatch itself lives in the engine's
planner (:meth:`repro.engine.facade.Engine.plan`): every call routes
through the process-wide default engine, so repeated rankings and
distribution queries of the same dataset reuse its cached sorted order,
prefix/positional matrices and calibrated junction trees instead of
recomputing per call.  :func:`rank_distribution` exposes the underlying
positional-probability features for a single tuple, and :func:`top_k`
is a convenience wrapper returning just the identifiers.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .prf import RankingFunction
from .result import RankingResult

__all__ = ["rank", "top_k", "rank_distribution", "positional_probability"]


def rank(data, rf: RankingFunction, name: str = "") -> RankingResult:
    """Rank a probabilistic dataset by a PRF-family ranking function.

    Parameters
    ----------
    data:
        A :class:`ProbabilisticRelation`, an
        :class:`~repro.andxor.tree.AndXorTree`, or a
        :class:`~repro.graphical.model.MarkovNetworkRelation`.
    rf:
        The ranking function (e.g. ``PRFe(0.95)``, ``PRFOmega(weights)``,
        ``PRF(omega)`` or a ``LinearCombinationPRFe``).
    name:
        Optional label attached to the result.

    Returns
    -------
    RankingResult
        The complete ranking, best tuple first, with the same bits as the
        per-model entry points (``rank_independent``, ``rank_tree``,
        ``rank_markov_network``), which are ``Engine().rank`` calls.
    """
    from ..engine import default_engine

    return default_engine().rank(data, rf, name=name)


def top_k(data, rf: RankingFunction, k: int, name: str = "") -> list[Any]:
    """Identifiers of the ``k`` highest-ranked tuples under ``rf``.

    Routed through the default engine, so repeated top-k queries over the
    same dataset hit its cache.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return rank(data, rf, name=name).top_k(k)


def rank_distribution(data, tid: Any, max_rank: int | None = None) -> np.ndarray:
    """Rank distribution ``Pr(r(t) = j)`` of one tuple (index 0 unused).

    This is the feature vector of Section 3.3; the computation is exact
    for every supported correlation model and served from the default
    engine's cache when the dataset was ranked (or queried) before.
    """
    from ..engine import default_engine

    return default_engine().rank_distribution(data, tid, max_rank=max_rank)


def positional_probability(data, tid: Any, position: int) -> float:
    """``Pr(r(t) = position)`` — a convenience single-entry accessor."""
    if position < 1:
        raise ValueError(f"positions are 1-based, got {position}")
    distribution = rank_distribution(data, tid, max_rank=position)
    if position >= distribution.size:
        return 0.0
    return float(distribution[position])
