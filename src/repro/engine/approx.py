"""The planner's exact-vs-approximate decision (the ``approx=`` knob).

Section 5.1 of the paper approximates an arbitrary decaying PRFomega
weight by a short sum of complex exponentials (:mod:`repro.approx.dft`),
turning an O(n h) — or O(n^2) — evaluation into ``L`` independent O(n)
PRFe passes.  This module promotes that construction from an
experiment-only tool into a first-class planner knob: callers pass an
explicit per-request *error budget* ``approx=epsilon`` to
:meth:`~repro.engine.facade.Engine.rank` /
:meth:`~repro.engine.facade.Engine.rank_batch` /
:meth:`~repro.engine.facade.Engine.rank_top_k`, and :func:`plan_approx`
decides whether an ``L``-term approximation *certified* to stay within
the budget exists.

The certificate is :meth:`~repro.approx.dft.ExponentialApproximation.
error_bound`: because positional probabilities sum to at most one, a
tuple's value under the approximate weight differs from its exact value
by at most ``max_{1 <= i <= n} |omega_approx(i) - omega(i)|``, which is
checked exactly over the DFT domain and in closed form beyond it.  When
no ``L`` up to ``max_terms`` certifies, the decision falls back to the
exact kernel — the budget is a *guarantee*, never a hope.

Decisions are recorded on the
:class:`~repro.engine.facade.ExecutionPlan` so a caller (or the ranking
service's response metadata) can always see whether approximation
engaged, with how many terms, and at what realized error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.prf import LinearCombinationPRFe, PRFe, RankingFunction

__all__ = ["ApproxDecision", "plan_approx", "validated_budget"]

#: Largest number of exponential terms the planner will try; beyond this
#: the "approximation" would rival the exact O(n h) evaluation anyway.
DEFAULT_MAX_TERMS = 64

#: Weights with a support this small are already cheap exactly.
_MIN_SUPPORT = 8

#: Ceiling on the tabulated support (and hence the FFT domain) the
#: planner is willing to process; unbounded-horizon weights over larger
#: relations stay exact rather than paying multi-second FFTs.
_MAX_SUPPORT = 1 << 17


def validated_budget(budget) -> float:
    """``budget`` as a validated positive finite float.

    Raises
    ------
    ValueError
        If the budget is not a positive finite number.
    """
    value = float(budget)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"approx error budget must be a positive finite number, got {budget!r}")
    return value


@dataclass(frozen=True)
class ApproxDecision:
    """The planner's choice for one ``approx=``-carrying request.

    Attributes
    ----------
    budget:
        The requested per-value error budget.
    used:
        Whether an approximation certified within the budget was found
        (``False`` means the exact kernel runs).
    terms:
        Number ``L`` of exponential terms of the chosen approximation
        (``None`` when exact).
    error_bound:
        The certified bound on ``|value_approx - value_exact|`` over the
        whole relation (``None`` when exact); always ``<= budget``.
    effective:
        The ranking function actually executed — the ``L``-term
        :class:`~repro.core.prf.LinearCombinationPRFe` when ``used``,
        the original spec otherwise.
    """

    budget: float
    used: bool
    terms: int | None
    error_bound: float | None
    effective: RankingFunction = field(repr=False, default=None)

    def as_dict(self) -> dict:
        """Wire-friendly summary (the service response metadata)."""
        return {
            "budget": self.budget,
            "used": self.used,
            "terms": self.terms,
            "error_bound": self.error_bound,
        }


def plan_approx(
    rf: RankingFunction,
    n: int,
    budget: float,
    *,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ApproxDecision:
    """Decide exact vs. ``L``-term exponential approximation for one request.

    Doubles ``L`` from 1 until the DFT approximation's certified
    :meth:`~repro.approx.dft.ExponentialApproximation.error_bound` over
    ranks ``1 .. n`` fits the budget (then binary-searches down to the
    smallest certifying ``L`` — every dropped term is one fewer
    cumulative product on the execution hot path), or gives up at
    ``max_terms`` and returns an exact decision.  Only real-weighted,
    factor-free, non-exponential specs are eligible — PRFe and
    :class:`LinearCombinationPRFe` are already linear-time, a
    ``tuple_factor`` scales the error by an unbounded per-tuple factor,
    and complex weights have no meaningful real budget.
    """
    budget = validated_budget(budget)
    exact = ApproxDecision(
        budget=budget, used=False, terms=None, error_bound=None, effective=rf
    )
    if n <= 0:
        return exact
    if isinstance(rf, (PRFe, LinearCombinationPRFe)):
        return exact
    if rf.tuple_factor is not None:
        return exact
    if not rf.is_real():
        return exact
    support = rf.weight.horizon
    support = n if support is None else min(int(support), n)
    if support <= _MIN_SUPPORT or support > _MAX_SUPPORT:
        return exact
    from ..approx.dft import dft_approximation

    # Tabulate once; the doubling loop feeds the table (not the weight
    # object) to both the DFT and the bound check.
    table = np.asarray(rf.weight.as_array(support)[1:], dtype=float)

    def attempt(count: int):
        # The wide smooth extension conditions the DFT far better than
        # the paper's flat Figure-4 construction without changing the
        # approximated target (the ramp lives at ranks below 1); the
        # conjugate-symmetric term set keeps the approximation exactly
        # real and halves the kernel's cumulative products.
        approximation = dft_approximation(
            table,
            count,
            support=support,
            extension_fraction=0.5,
            smooth_extension=True,
            conjugate_symmetric=True,
        )
        return approximation, approximation.error_bound(table, n)

    terms = 1
    ceiling = min(int(max_terms), support)
    while terms <= ceiling:
        approximation, bound = attempt(terms)
        if bound <= budget:
            # Doubling overshoots: the smallest certifying request lies
            # in (terms // 2, terms].  Planning cost is a few more DFTs
            # plus one error_bound per attempt: on the Gaussian weight of
            # support 2000 at n = 10^5 the error_bound calls (8 of them)
            # take ~4 of the ~25 ms the whole approx= query takes (2-core
            # x86).
            low, high = terms // 2 + 1, terms
            while low < high:
                middle = (low + high) // 2
                candidate, candidate_bound = attempt(middle)
                if candidate_bound <= budget:
                    approximation, bound = candidate, candidate_bound
                    high = middle
                else:
                    low = middle + 1
            return ApproxDecision(
                budget=budget,
                used=True,
                terms=len(approximation),
                error_bound=bound,
                effective=approximation.to_ranking_function(),
            )
        terms *= 2
    return exact
