"""Ranking with attribute (score) uncertainty — Section 4.4 of the paper.

When the uncertain attributes participate in the scoring function, each
tuple has a *discrete distribution over scores* instead of a single
score.  The paper's reduction treats every possible score of a tuple as a
separate alternative, adds an xor constraint over the alternatives of the
same tuple, computes PRF values of the alternatives with the and/xor-tree
algorithms, and finally sums the alternatives' values per original tuple:

    Upsilon(t_i) = sum_j Upsilon(t_{i,j})

This module implements exactly that reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..core.prf import RankingFunction
from ..core.result import RankingResult
from ..core.tuples import Tuple
from ..engine import Engine

__all__ = ["ScoreDistributionTuple", "expand_to_tree", "rank_uncertain_scores"]


@dataclass(frozen=True)
class ScoreDistributionTuple:
    """A tuple whose score follows a discrete probability distribution.

    Parameters
    ----------
    tid:
        Tuple identifier.
    outcomes:
        Sequence of ``(score, probability)`` pairs.  Probabilities must be
        non-negative and sum to at most 1; the remaining mass is the
        probability that the tuple is absent.
    attributes:
        Optional payload copied onto every generated alternative.
    """

    tid: Any
    outcomes: tuple[tuple[float, float], ...]
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __init__(
        self,
        tid: Any,
        outcomes: Iterable[tuple[float, float]],
        attributes: Mapping[str, Any] | None = None,
    ) -> None:
        normalized = tuple((float(score), float(probability)) for score, probability in outcomes)
        if not normalized:
            raise ValueError(f"tuple {tid!r}: at least one score outcome is required")
        total = sum(probability for _, probability in normalized)
        if any(probability < 0 for _, probability in normalized):
            raise ValueError(f"tuple {tid!r}: outcome probabilities must be non-negative")
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"tuple {tid!r}: outcome probabilities sum to {total:.6f} > 1"
            )
        object.__setattr__(self, "tid", tid)
        object.__setattr__(self, "outcomes", normalized)
        object.__setattr__(self, "attributes", dict(attributes or {}))

    @property
    def existence_probability(self) -> float:
        """Total probability that the tuple is present at all."""
        return sum(probability for _, probability in self.outcomes)

    @property
    def expected_score(self) -> float:
        """Expected score conditioned on nothing (absent contributes 0)."""
        return sum(score * probability for score, probability in self.outcomes)

    def alternatives(self) -> list[Tuple]:
        """The alternative tuples ``t_{i,j}`` of the paper's reduction."""
        return [
            Tuple(
                tid=(self.tid, j),
                score=score,
                probability=probability,
                attributes=self.attributes,
            )
            for j, (score, probability) in enumerate(self.outcomes)
        ]


def expand_to_tree(items: Sequence[ScoreDistributionTuple], name: str = ""):
    """Expand score-uncertain tuples into the equivalent and/xor tree.

    Every original tuple contributes one xor group containing its score
    alternatives; groups coexist under an and root (the original tuples are
    assumed independent of each other).
    """
    from ..andxor.tree import AndXorTree

    groups = [item.alternatives() for item in items]
    return AndXorTree.from_x_tuples(groups, name=name)


def rank_uncertain_scores(
    items: Sequence[ScoreDistributionTuple],
    rf: RankingFunction,
    name: str = "",
) -> RankingResult:
    """Rank score-uncertain tuples under any PRF-family ranking function.

    The PRF value of an original tuple is the sum of the PRF values of its
    alternatives (Section 4.4).  The returned result contains one
    representative :class:`~repro.core.tuples.Tuple` per original tuple,
    carrying its expected score and total existence probability.
    """
    tree = expand_to_tree(items, name=name)
    by_alternative = Engine().rank(tree, rf).values()

    representatives: list[Tuple] = []
    totals: list[complex] = []
    for item in items:
        total = sum(
            by_alternative[(item.tid, j)] for j in range(len(item.outcomes))
        )
        representatives.append(
            Tuple(
                tid=item.tid,
                score=item.expected_score,
                probability=item.existence_probability,
                attributes=item.attributes,
            )
        )
        totals.append(total)
    values_array = np.asarray(totals)
    return RankingResult.from_values(representatives, values_array.tolist(), name=name)
