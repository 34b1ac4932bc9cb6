"""The real-alpha PRFe log-space kernel and the exponentiation of its values.

The kernel shares the alpha-free terms of a broadcast stack (the alpha
sweep) and writes its prefix sums in place; :func:`exp_log_values` skips
the inputs whose ``exp`` rounds to zero.  Neither may change a bit: the
reference here is the kernel written out term by term for every row,
exponentiated by plain ``np.exp``.
"""

import math

import numpy as np
import pytest

from repro import Engine, PRFe
from repro.core.columnar import ColumnarRelation
from repro.engine.kernels import _EXP_CUTOFF, batched_prfe_log_values, exp_log_values


def reference_log_values(P: np.ndarray, alphas) -> np.ndarray:
    """Every row's log-values computed on its own full row of ``P``."""
    P = np.ascontiguousarray(P, dtype=float)
    alphas = np.broadcast_to(np.asarray(alphas, dtype=float), (P.shape[0],))
    factors = 1.0 - P + P * alphas[:, None]
    log_factors = np.log(np.maximum(factors, 1e-300))
    prefix_log = np.zeros_like(factors)
    if P.shape[1] > 1:
        prefix_log[:, 1:] = np.cumsum(log_factors, axis=1)[:, :-1]
    with np.errstate(divide="ignore"):
        log_probabilities = np.where(P > 0.0, np.log(np.maximum(P, 1e-300)), -np.inf)
    log_alpha = np.array([math.log(a) for a in alphas.tolist()])[:, None]
    return prefix_log + log_probabilities + log_alpha


def plain_exp(log_values: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(log_values)


def test_exp_cut_equals_exp_at_and_below_the_cutoff():
    grid = np.concatenate(
        [
            np.linspace(-800.0, -700.0, 400_001),
            np.nextafter(_EXP_CUTOFF, [-np.inf, np.inf]),
            [_EXP_CUTOFF, -745.1332191019411, -745.1332191019412, -744.44007192138126],
            [-np.inf, np.nan, -0.0, 0.0, -1e-300, -1.0, -708.5, -1e308],
        ]
    )
    values = exp_log_values(grid)
    np.testing.assert_array_equal(values, plain_exp(grid))
    assert not plain_exp(grid[grid <= _EXP_CUTOFF]).any()
    stacked = grid[:400_000].reshape(4, -1)
    np.testing.assert_array_equal(exp_log_values(stacked), plain_exp(stacked))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_kernel_is_bit_identical_to_the_per_row_reference(seed):
    # analytic-shaped: one relation of 10^5 uniform probabilities broadcast
    # over 16 sorted alphas in (0.8, 0.99), plus the edges of (0, 1].
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, 100_000)
    p[rng.integers(0, p.size, 50)] = 0.0
    p[rng.integers(0, p.size, 50)] = 1.0
    alphas = np.concatenate([np.sort(rng.uniform(0.8, 0.99, 16)), [1e-300, 0.5, 1.0]])
    P = np.broadcast_to(p, (alphas.size, p.size))
    log_values = batched_prfe_log_values(P, alphas)
    expected = reference_log_values(P, alphas)
    np.testing.assert_array_equal(log_values, expected)
    np.testing.assert_array_equal(exp_log_values(log_values), plain_exp(expected))
    # An explicit (non-broadcast) stack and a scalar alpha take the other branch.
    rows = np.stack([p, p[::-1]])
    np.testing.assert_array_equal(
        batched_prfe_log_values(rows, 0.9), reference_log_values(rows, 0.9)
    )


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_rows(n):
    P = np.full((3, n), 0.5)
    alphas = np.array([0.2, 0.7, 1.0])
    np.testing.assert_array_equal(
        batched_prfe_log_values(P, alphas), reference_log_values(P, alphas)
    )
    np.testing.assert_array_equal(
        batched_prfe_log_values(np.broadcast_to(P[0], P.shape), alphas),
        reference_log_values(P, alphas),
    )


def test_every_engine_path_matches_the_reference_kernel_at_1e5():
    rng = np.random.default_rng(23)
    n = 100_000
    relation = ColumnarRelation(rng.uniform(0.0, 1e6, n), rng.uniform(0.0, 1.0, n), name="r")
    order = np.argsort(-relation.scores(), kind="stable")
    scores, p = relation.scores()[order], relation.probabilities()[order]
    alphas = [0.85, 0.95, 0.99]

    def expected(alpha):
        log_values = reference_log_values(p[None, :], alpha)[0]
        ranked = np.lexsort((-scores, -log_values))
        return order[ranked], plain_exp(log_values)[ranked]

    def check(result, alpha, k=None):
        indices, values = expected(alpha)
        np.testing.assert_array_equal(result.original_indices(), indices[:k])
        np.testing.assert_array_equal(result.values_array(), values[:k])

    engine = Engine()
    check(engine.rank(relation, PRFe(alphas[0])), alphas[0])
    for alpha, result in zip(alphas, engine.rank_many(relation, [PRFe(a) for a in alphas])):
        check(result, alpha)
    for result in Engine().rank_batch([relation, relation], PRFe(alphas[1])):
        check(result, alphas[1])
    top, _ = Engine().rank_top_k(relation, PRFe(alphas[2]), 100)
    indices, values = expected(alphas[2])
    assert [item.tid for item in top] == relation.tid_values(indices[:100])
    assert [item.value for item in top] == values[:100].tolist()
