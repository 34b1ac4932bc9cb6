"""Pluggable per-correlation-model execution backends of the ranking engine.

One backend per correlation model of the paper:

* :class:`IndependentBackend` — tuple-independent relations through the
  batched vectorized kernels (closed-form PRFe, stacked prefix
  generating-function matrices).
* :class:`AndXorBackend` — and/xor trees through generating functions
  and Algorithm 3 PRFe as one stacked walk over rows x alpha, with
  per-alpha value memoization.
* :class:`MarkovBackend` — bounded-treewidth Markov networks through the
  junction-tree dynamic program with calibrated-tree reuse.

The :class:`~repro.engine.facade.Engine` planner detects the model of
each input and routes execution through the shared
:class:`RankingBackend` interface.
"""

from .andxor import AndXorBackend
from .base import RankingBackend, build_result
from .independent import IndependentBackend
from .markov import MarkovBackend

__all__ = [
    "RankingBackend",
    "IndependentBackend",
    "AndXorBackend",
    "MarkovBackend",
    "build_result",
]
