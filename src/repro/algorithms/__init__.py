"""Ranking algorithms for tuple-independent relations and shared numeric tools."""

from .attribute_uncertainty import (
    ScoreDistributionTuple,
    expand_to_tree,
    rank_uncertain_scores,
)
from .independent import (
    positional_probabilities,
    prfe_log_values,
    prfe_values,
    rank_distributions,
    rank_independent,
)
from .montecarlo import (
    estimate_prf_values,
    estimate_rank_distributions,
    estimate_topk_set_probabilities,
    rank_by_monte_carlo,
)
from .polynomials import (
    PolynomialExpression,
    expand_expression,
    multiply,
    multiply_fft,
    multiply_naive,
    product_divide_and_conquer,
    product_naive,
)

__all__ = [
    "ScoreDistributionTuple",
    "expand_to_tree",
    "rank_uncertain_scores",
    "positional_probabilities",
    "prfe_values",
    "prfe_log_values",
    "rank_distributions",
    "rank_independent",
    "estimate_prf_values",
    "estimate_rank_distributions",
    "estimate_topk_set_probabilities",
    "rank_by_monte_carlo",
    "PolynomialExpression",
    "expand_expression",
    "multiply",
    "multiply_fft",
    "multiply_naive",
    "product_divide_and_conquer",
    "product_naive",
]
