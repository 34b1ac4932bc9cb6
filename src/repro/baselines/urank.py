"""Uncertain Rank-k (U-Rank) ranking (Soliman, Ilyas, Chang).

U-Rank builds the answer position by position: at rank ``i`` it returns
the tuple with the maximum probability of being ranked exactly ``i``
across all possible worlds.  The original definition may select the same
tuple at multiple positions; following Section 3.2 of the paper, the
default here enforces *distinct* tuples by skipping tuples that were
already placed at a higher position.

Each per-position selection is a PRF evaluation with the position weight
``omega_j(i) = delta(i = j)``: a masked ``argmax`` over column ``j`` of
the engine's positional probability matrix up to ``k``, which costs
O(n k) for independent tuples.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..engine import default_engine

__all__ = ["u_rank_topk", "u_rank_assignment"]

#: Rows per block of the positional matrix whose column maxima U-Rank scans.
_BLOCK = 256


def _block_maxima(matrix: np.ndarray) -> np.ndarray:
    """``maxima[b, j]``: the largest entry of column ``j`` in row block ``b``."""
    n, k = matrix.shape
    whole = n - n % _BLOCK
    maxima = matrix[:whole].reshape(-1, _BLOCK, k).max(axis=1)
    if whole < n:
        maxima = np.vstack([maxima, matrix[whole:].max(axis=0)])
    return maxima


def u_rank_assignment(
    data, k: int, distinct: bool = True
) -> list[tuple[Any, float]]:
    """The U-Rank answer as a list of ``(tid, Pr(r(t) = position))`` pairs.

    Parameters
    ----------
    data:
        A probabilistic relation or and/xor tree.
    k:
        Number of positions to fill.
    distinct:
        When True (the paper's modified semantics) a tuple already chosen
        at a higher position is skipped; when False the original
        definition is used and duplicates may appear.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ordered, matrix = default_engine().positional_matrix(data, max_rank=k)
    # A strided column read costs as much as the whole matrix's row-major
    # pass, so each column scans its blocks of rows by descending block
    # maximum and stops at the first block that cannot beat the best so far.
    maxima = _block_maxima(matrix)
    candidates = np.ones(len(ordered), dtype=bool)
    answer: list[tuple[Any, float]] = []
    for j, column in enumerate(matrix.T):
        best, value = -1, -np.inf
        # Stable: blocks with equal maxima are visited in row order.
        for block in np.argsort(-maxima[:, j], kind="stable"):
            start = int(block) * _BLOCK
            if maxima[block, j] < value or (maxima[block, j] == value and start > best):
                break
            rows = slice(start, start + _BLOCK)
            # Rows are score-descending, so argmax's first maximum is the
            # candidate with the largest (probability, score), ties by
            # score order.
            segment = np.where(candidates[rows], column[rows], -np.inf)
            offset = int(np.argmax(segment))
            if segment[offset] > value or (segment[offset] == value and start + offset < best):
                best, value = start + offset, segment[offset]
        if distinct:
            candidates[best] = False
        answer.append((ordered[best].tid, float(column[best])))
    return answer


def u_rank_topk(data, k: int, distinct: bool = True) -> list[Any]:
    """Identifiers of the U-Rank answer, position 1 first."""
    return [tid for tid, _ in u_rank_assignment(data, k, distinct=distinct)]
