"""Learning PRFomega weights from pairwise preferences (Section 5.2).

The paper learns the weight vector ``w = (w_1, ..., w_h)`` of a PRFomega
function from user preferences with a rank-SVM; the features of a tuple
are its positional probabilities ``Pr(r(t) = i), i = 1..h`` computed on
the preference sample.  SVM-light is not available offline, so this
module implements the same objective — L2-regularized pairwise hinge
loss —

    minimize  lambda/2 ||w||^2
              + (1/|P|) * sum_{(a, b) in P} max(0, 1 - w . (x_a - x_b))

with projected averaged subgradient descent.  The optimizer is
deterministic given its seed and more than adequate for the small sample
sizes used in the experiments (the paper itself keeps samples <= 200).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..core.prf import PRFOmega
from ..core.weights import TabulatedWeight
from ..engine import default_engine

__all__ = ["PairwiseLinearRanker", "LearnedOmega", "learn_prfomega_weights"]


@dataclass(frozen=True)
class LearnedOmega:
    """Result of fitting a PRFomega weight vector."""

    weights: np.ndarray
    objective: float
    violations: int

    def ranking_function(self) -> PRFOmega:
        """The fitted ranking function."""
        return PRFOmega(TabulatedWeight(self.weights))


class PairwiseLinearRanker:
    """L2-regularized pairwise hinge-loss linear ranker (rank-SVM objective).

    Parameters
    ----------
    regularization:
        The L2 penalty ``lambda``.
    iterations:
        Number of passes of subgradient descent over the preference pairs.
    learning_rate:
        Initial step size; decayed as ``1 / sqrt(t)``.
    non_negative:
        Project the weights onto the non-negative orthant after every
        step.  Positional weights of a ranking function are naturally
        non-negative, and the projection stabilizes small-sample fits.
    seed:
        Seed for the pair-shuffling RNG.
    """

    def __init__(
        self,
        regularization: float = 1e-3,
        iterations: int = 300,
        learning_rate: float = 0.5,
        non_negative: bool = True,
        seed: int = 0,
    ) -> None:
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.regularization = float(regularization)
        self.iterations = int(iterations)
        self.learning_rate = float(learning_rate)
        self.non_negative = bool(non_negative)
        self.seed = int(seed)
        self.weights_: np.ndarray | None = None

    def fit(self, differences: np.ndarray) -> "PairwiseLinearRanker":
        """Fit on preference difference vectors ``x_preferred - x_other``."""
        differences = np.asarray(differences, dtype=float)
        if differences.ndim != 2 or differences.shape[0] == 0:
            raise ValueError("differences must be a non-empty 2-D array")
        num_pairs, dimension = differences.shape
        rng = np.random.default_rng(self.seed)
        weights = np.zeros(dimension, dtype=float)
        averaged = np.zeros(dimension, dtype=float)
        step_count = 0
        for epoch in range(self.iterations):
            order = rng.permutation(num_pairs)
            for index in order:
                step_count += 1
                rate = self.learning_rate / np.sqrt(step_count)
                difference = differences[index]
                margin = float(weights @ difference)
                gradient = self.regularization * weights
                if margin < 1.0:
                    gradient = gradient - difference
                weights = weights - rate * gradient
                if self.non_negative:
                    np.maximum(weights, 0.0, out=weights)
                averaged += weights
        self.weights_ = averaged / max(step_count, 1)
        return self

    def objective(self, differences: np.ndarray) -> float:
        """The regularized hinge objective at the fitted weights."""
        if self.weights_ is None:
            raise RuntimeError("fit() must be called first")
        margins = np.asarray(differences, dtype=float) @ self.weights_
        hinge = np.maximum(0.0, 1.0 - margins).mean()
        return float(0.5 * self.regularization * self.weights_ @ self.weights_ + hinge)

    def violations(self, differences: np.ndarray) -> int:
        """Number of training pairs ranked in the wrong order by the fit."""
        if self.weights_ is None:
            raise RuntimeError("fit() must be called first")
        margins = np.asarray(differences, dtype=float) @ self.weights_
        return int(np.sum(margins <= 0.0))


def learn_prfomega_weights(
    data,
    preferences: Sequence[tuple[Any, Any]],
    h: int,
    regularization: float = 1e-3,
    iterations: int = 300,
    seed: int = 0,
) -> LearnedOmega:
    """Learn PRFomega(h) weights from pairwise preferences over a sample.

    Parameters
    ----------
    data:
        The sample dataset (relation or and/xor tree).  Positional
        probabilities up to rank ``h`` are used as tuple features.
    preferences:
        ``(preferred_tid, other_tid)`` pairs, e.g. from
        :func:`repro.learning.preferences.pairwise_preferences`.
    h:
        Weight-vector length (the PRFomega horizon).
    regularization, iterations, seed:
        Passed to :class:`PairwiseLinearRanker`.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if not preferences:
        raise ValueError("at least one preference pair is required")
    ordered, matrix = default_engine().positional_matrix(data, max_rank=h)
    if matrix.shape[1] < h:
        matrix = np.pad(matrix, ((0, 0), (0, h - matrix.shape[1])))
    features = {t.tid: matrix[i] for i, t in enumerate(ordered)}

    differences = []
    for preferred, other in preferences:
        if preferred not in features or other not in features:
            raise KeyError(f"preference pair ({preferred!r}, {other!r}) not in the sample")
        differences.append(features[preferred] - features[other])
    differences = np.asarray(differences, dtype=float)

    ranker = PairwiseLinearRanker(
        regularization=regularization, iterations=iterations, seed=seed
    ).fit(differences)
    weights = np.asarray(ranker.weights_, dtype=float)
    if not np.any(weights > 0):
        # Degenerate fit (e.g. a single uninformative pair): fall back to the
        # uniform step weight so the returned function is still usable.
        weights = np.ones(h, dtype=float)
    return LearnedOmega(
        weights=weights,
        objective=ranker.objective(differences),
        violations=ranker.violations(differences),
    )
