"""Probabilistic Threshold top-k (PT(h)) and Global-Top-k ranking.

PT(h) ranks tuples by ``Pr(r(t) <= h)``, the probability of appearing in
the top-``h`` of a random possible world (Hua et al.; essentially the
Global-Top-k semantics of Zhang and Chomicki).  Following Section 3.2 of
the paper, the thresholded original definition is replaced by "return the
k tuples with the largest ``Pr(r(t) <= h)``", which makes it a special
case of PRFomega with the step weight ``omega(i) = 1 for i <= h``: every
function here is that engine spec.
"""

from __future__ import annotations

from typing import Any

from ..core.prf import PRFOmega
from ..core.result import RankingResult
from ..core.weights import StepWeight
from ..engine import default_engine

__all__ = ["pt_values", "pt_ranking", "pt_topk", "global_topk"]


def _pt_rf(h: int) -> PRFOmega:
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    return PRFOmega(StepWeight(h))


def pt_values(data, h: int) -> dict[Any, float]:
    """``Pr(r(t) <= h)`` per tuple identifier."""
    return pt_ranking(data, h).values()


def pt_ranking(data, h: int, name: str | None = None) -> RankingResult:
    """Full ranking by decreasing ``Pr(r(t) <= h)``."""
    return default_engine().rank(data, _pt_rf(h), name=name or f"PT({h})")


def pt_topk(data, k: int, h: int | None = None) -> list[Any]:
    """The ``k`` tuples with the largest probability of ranking within top ``h``.

    ``h`` defaults to ``k`` (the Global-Top-k / consensus-top-k setting).
    """
    rf = _pt_rf(k if h is None else h)
    return default_engine().rank_top_k(data, rf, k)[0].top_k(k)


def global_topk(data, k: int) -> list[Any]:
    """Global-Top-k semantics: PT(k) restricted to the top ``k`` answers."""
    return pt_topk(data, k, h=k)
