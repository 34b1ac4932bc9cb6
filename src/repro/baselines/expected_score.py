"""Expected-score ranking (E-Score).

Ranks tuples by ``E[score(t)] = Pr(t) * score(t)`` — the simplest way to
combine scores and probabilities, also expressible as the PRF function
with ``omega(t, i) = score(t)`` (Section 3.3).  The baseline is invariant
to correlations because it only uses tuple marginals.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.columnar import RelationColumns
from ..core.result import RankingResult
from ..engine import default_engine
from ..engine.backends import build_result

__all__ = ["expected_score_values", "expected_score_ranking", "expected_score_topk"]


def expected_score_values(data) -> dict[Any, float]:
    """``Pr(t) * score(t)`` per tuple identifier."""
    return expected_score_ranking(data).values()


def expected_score_ranking(data, name: str = "E-Score") -> RankingResult:
    """Full ranking by decreasing expected score."""
    backend = default_engine().backend_for(data)
    entry = backend.entry(data)
    if isinstance(data, RelationColumns):
        marginals = entry.probabilities
    else:
        by_tid = backend.marginal_probabilities(data)
        marginals = np.array([by_tid[t.tid] for t in backend.sorted_tuples(data)])
    return build_result(backend.rows(data), entry, marginals * entry.scores, name)


def expected_score_topk(data, k: int) -> list[Any]:
    """Identifiers of the ``k`` tuples with the largest expected score."""
    return expected_score_ranking(data).top_k(k)
