"""Consensus top-k answers (Section 6 of the paper).

A consensus top-k answer minimizes the *expected distance* to the top-k
answers of the possible worlds.  Two results from the paper are exposed:

* under the plain symmetric-difference distance, the consensus answer is
  the PT(k) answer — the k tuples with the largest ``Pr(r(t) <= k)``
  (Theorem 2);
* under the *weighted* symmetric difference ``dis_omega`` (Definition 5)
  with weights vanishing beyond ``k``, the consensus answer is the top-k
  of the corresponding PRFomega function (Theorem 3).

:func:`consensus_topk` computes the optimal answer through those
theorems; :func:`expected_symmetric_difference` /
:func:`expected_weighted_distance` evaluate the objective of *any*
candidate answer by world enumeration or sampling, which is how the
theorems are verified in the test-suite.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..core.prf import PRFOmega
from ..core.weights import StepWeight, TabulatedWeight
from ..engine import default_engine
from ..metrics.set_distances import (
    expected_distance,
    symmetric_difference,
    weighted_symmetric_difference,
)
from .pt_topk import pt_topk

__all__ = [
    "consensus_topk",
    "expected_symmetric_difference",
    "expected_weighted_distance",
]


def consensus_topk(
    data,
    k: int,
    weights: Sequence[float] | None = None,
) -> list[Any]:
    """The consensus top-k answer.

    Parameters
    ----------
    data:
        A probabilistic relation or and/xor tree.
    k:
        Answer size.
    weights:
        Optional positive weights ``[omega(1), ..., omega(k)]`` defining a
        weighted symmetric difference; when omitted the plain symmetric
        difference is used (equivalently, all weights are 1).
    """
    if weights is None:
        return pt_topk(data, k, h=k)
    weights = list(weights)
    if len(weights) != k:
        raise ValueError(f"expected {k} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weighted symmetric difference requires non-negative weights")
    rf = PRFOmega(TabulatedWeight(weights))
    return default_engine().rank_top_k(data, rf, k)[0].top_k(k)


def expected_symmetric_difference(worlds, answer: Iterable[Any], k: int) -> float:
    """Expected symmetric difference between ``answer`` and per-world top-k answers."""
    return expected_distance(
        answer,
        worlds,
        k,
        lambda candidate, world_topk: symmetric_difference(candidate, world_topk),
    )


def expected_weighted_distance(
    worlds,
    answer: Iterable[Any],
    k: int,
    weight: Callable[[int], float] | Sequence[float] | None = None,
) -> float:
    """Expected weighted symmetric difference ``E[dis_omega(answer, topk(pw))]``.

    ``weight`` is either a callable over 1-based positions or a sequence of
    ``k`` weights; it defaults to the all-ones step weight (Theorem 2's
    setting, up to the constant offset discussed in the docstring of
    :func:`repro.metrics.set_distances.weighted_symmetric_difference`).
    """
    if weight is None:
        weight_fn: Callable[[int], float] = StepWeight(k)
    elif callable(weight):
        weight_fn = weight
    else:
        table = TabulatedWeight(list(weight))
        weight_fn = table
    return expected_distance(
        answer,
        worlds,
        k,
        lambda candidate, world_topk: weighted_symmetric_difference(
            candidate, world_topk, weight_fn
        ),
    )
