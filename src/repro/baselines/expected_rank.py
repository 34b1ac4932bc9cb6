"""Expected-rank ranking (E-Rank, Cormode, Li and Yi).

A tuple's expected rank is ``sum_pw Pr(pw) * r_pw(t)`` where the rank of a
tuple *absent* from a world is defined as the world's size ``|pw|``
(Section 3.2).  Tuples are ranked in *increasing* expected rank.

The expected rank decomposes (Section 3.3) as::

    E[r(t)] = er1(t) + er2(t)
    er1(t)  = sum_{j > 0} j * Pr(r(t) = j)            (worlds containing t)
    er2(t)  = E[|pw| ; t not in pw]                   (worlds without t)

For independent tuples both terms have closed forms that cost O(n) after
the engine's sort: ``er1(t_i) = p_i * (1 + sum_{l < i} p_l)`` and
``er2(t) = (1 - p_t) * (C - p_t)`` with ``C = sum_i p_i``.  For and/xor
trees ``er1`` is the engine's positional matrix times the ranks, and
``er2`` is read off one generating function per tuple.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..andxor.generating import LABEL_X, LABEL_Y, generating_function
from ..andxor.tree import AndXorTree
from ..core.columnar import RelationColumns
from ..core.result import RankingResult
from ..engine import default_engine
from ..engine.backends import build_result

__all__ = [
    "expected_rank_terms",
    "expected_rank_values",
    "expected_rank_ranking",
    "expected_rank_topk",
]


def expected_rank_terms(data) -> tuple[np.ndarray, np.ndarray]:
    """``(er1, er2)`` of every tuple, aligned with ``Engine.sorted_tuples(data)``."""
    engine = default_engine()
    if isinstance(data, RelationColumns):
        p = engine.backend_for(data).entry(data).probabilities
        prefix = np.concatenate(([0.0], np.cumsum(p)[:-1]))
        return p * (1.0 + prefix), (1.0 - p) * (float(p.sum()) - p)
    if not isinstance(data, AndXorTree):
        raise TypeError(f"unsupported dataset type {type(data).__name__}")
    # er1: worlds containing t contribute t's rank there, i.e. one plus the
    # number of *higher-score* tuples present — exactly the rank distribution.
    ordered, matrix = engine.positional_matrix(data)
    er1 = matrix @ np.arange(1, matrix.shape[1] + 1, dtype=float)
    # er2: worlds without t contribute the world size.  Label every other
    # leaf x and t itself y; the y-free coefficients give
    # Pr(t absent and exactly a other tuples present).
    er2 = np.empty(len(ordered))
    all_x = {t.tid: LABEL_X for t in ordered}
    for i, t in enumerate(ordered):
        poly = generating_function(data, {**all_x, t.tid: LABEL_Y})
        er2[i] = np.dot(poly.a, np.arange(poly.a.size, dtype=float))
    return er1, er2


def expected_rank_values(data) -> dict[Any, float]:
    """Expected rank per tuple identifier (lower is better)."""
    return {tid: -value for tid, value in expected_rank_ranking(data).values().items()}


def expected_rank_ranking(data, name: str = "E-Rank") -> RankingResult:
    """Full ranking by increasing expected rank.

    The stored ranking values are the *negated* expected ranks so that the
    package-wide "larger magnitude is better" convention of
    :class:`~repro.core.result.RankingResult` orders tuples correctly; the
    sort key is supplied explicitly to avoid the magnitude ambiguity.
    """
    er1, er2 = expected_rank_terms(data)
    negated = -(er1 + er2)
    backend = default_engine().backend_for(data)
    return build_result(
        backend.rows(data), backend.entry(data), negated, name, sort_keys=negated
    )


def expected_rank_topk(data, k: int) -> list[Any]:
    """Identifiers of the ``k`` tuples with the smallest expected rank."""
    return expected_rank_ranking(data).top_k(k)
