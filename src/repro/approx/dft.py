"""DFT-based approximation of weight functions by complex exponentials.

Section 5.1 of the paper shows how to approximate an arbitrary
PRFomega weight function ``omega(i)`` (monotonically decaying, zero
beyond a support ``N``) by a short linear combination of exponentials

    omega(i)  ~=  sum_{l=1}^{L} u_l * alpha_l ** i

so that ranking by the PRFomega function reduces to ``L`` independent
PRFe evaluations, each linear time.  The base Discrete Fourier Transform
approximation is adapted in three steps:

* **DF** — a damping factor ``eta`` multiplied into every base kills the
  periodicity of the DFT beyond the sampled domain;
* **IS** — initial scaling: the DFT is taken of ``eta**(-i) * omega(i)``
  so that the damping does not bias the approximation on the support;
* **ES** — extend-and-shift: the weight is extrapolated to the left of
  zero and shifted right before the DFT so the discontinuity at ``i = 0``
  does not pollute the low ranks, then shifted back.

:class:`ExponentialApproximation` holds the resulting ``(u_l, alpha_l)``
pairs, evaluates the approximation pointwise (for plots such as Figure 4
and 5), and converts to a
:class:`~repro.core.prf.LinearCombinationPRFe` ranking function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.prf import LinearCombinationPRFe
from ..core.weights import WeightFunction

__all__ = [
    "ExponentialApproximation",
    "dft_approximation",
    "approximate_weight_function",
    "STAGE_SETS",
]

#: The four cumulative stage sets of Figure 4, in presentation order.
STAGE_SETS = {
    "DFT": ("dft",),
    "DFT+DF": ("dft", "df"),
    "DFT+DF+IS": ("dft", "df", "is"),
    "DFT+DF+IS+ES": ("dft", "df", "is", "es"),
}

_VALID_STAGES = {"dft", "df", "is", "es"}

#: Elements (terms x ranks) of one block of powers in
#: :meth:`ExponentialApproximation.error_bound`: 1 MiB of complex values.
_BOUND_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ExponentialApproximation:
    """A finite exponential-sum approximation ``sum_l u_l alpha_l**i``."""

    coefficients: np.ndarray
    alphas: np.ndarray
    support: int
    stages: tuple[str, ...]
    #: The DFT sampling domain ``a * N`` (0 for approximations built
    #: before the field existed); beyond it the damped exponentials decay
    #: geometrically, which :meth:`error_bound` exploits for a closed-form
    #: tail bound.
    domain: int = 0

    def __len__(self) -> int:
        return int(self.coefficients.size)

    def evaluate(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """Real part of the approximation at the given (1-based) ranks."""
        ranks = np.asarray(ranks, dtype=float)
        values = (
            self.coefficients[None, :] * self.alphas[None, :] ** ranks[:, None]
        ).sum(axis=1)
        return values.real

    def to_ranking_function(self) -> LinearCombinationPRFe:
        """The equivalent :class:`LinearCombinationPRFe` ranking function."""
        return LinearCombinationPRFe(self.coefficients, self.alphas)

    def max_error(self, weight: WeightFunction | Sequence[float], upto: int | None = None) -> float:
        """Maximum absolute approximation error over ranks ``1 .. upto``."""
        limit = upto if upto is not None else self.support
        ranks = np.arange(1, limit + 1)
        target = _tabulate(weight, limit)
        return float(np.max(np.abs(self.evaluate(ranks) - target)))

    def error_bound(self, weight: WeightFunction | Sequence[float], upto: int) -> float:
        """Certified ``max_{1 <= i <= upto} |approx(i) - omega(i)|`` (complex modulus).

        Unlike :meth:`max_error` (which tracks the real part for the
        Figure 4/5 plots), this uses the full complex deviation: ranking
        compares value *magnitudes*, and ``||Y_a| - |Y_e|| <= |Y_a - Y_e|
        <= sum_i |omega_a(i) - omega(i)| Pr(r(t) = i) <= max_i
        |omega_a(i) - omega(i)|`` because positional probabilities sum to
        at most one — so this bound certifies the planner's per-value
        error budget.

        Ranks inside the DFT domain are checked by tabulation (``upto``
        may far exceed the domain; only ``head = min(upto, domain)`` ranks
        are evaluated).  Beyond the domain the true weight is zero
        (``omega`` has support ``<= N < domain``) while every term decays
        like ``eta**i`` with ``eta = max |alpha_l| <= 1``, so the tail is
        bounded in closed form by ``sum_l |u_l| * eta**(head+1)`` — no
        per-rank evaluation at ``upto ~ 10^7`` is ever needed.

        The tabulation builds ``alpha_l**i`` by a cumulative product over
        blocks of ranks and sums the scaled terms elementwise (no BLAS
        call: a matrix product wakes OpenBLAS's spinning worker threads,
        which then slow every later kernel in the process).  Its rounding
        is bounded and added to the computed maximum.  With unit roundoff
        ``u = eps / 2``, a complex product is off by at most ``sqrt(5) u``
        relative and a complex sum by ``u`` (Brent, Percival and
        Zimmermann, 2007).  The computed ``u_l alpha_l**i`` takes ``i``
        products and the sum over the ``L`` terms ``L - 1`` sums, so with
        ``rho = max(1, max_l |alpha_l|)`` the computed approximation is
        within ``sum_l |u_l| rho**i ((1 + sqrt(5) u)**i (1 + u)**L - 1)
        <= sum_l |u_l| rho**head (1.13 head + 0.51 L) eps`` of the exact
        one (first order, which holds while ``head * eps < 10^-3``).  The
        slack takes twice that, ``sum_l |u_l| rho**head 4 (head + L)
        eps``, which also covers the deviation's own subtraction and
        modulus (``(1 + 2 eps)`` on the maximum) and keeps the bound above
        an evaluation of the powers by ``exp`` and ``log`` (numpy's
        complex ``**``), whose phase error grows like ``pi i u``.
        """
        limit = int(upto)
        if limit < 1:
            return 0.0
        domain = int(self.domain) if self.domain else max(limit, self.support)
        head = min(limit, domain)
        target = _tabulate(weight, head)
        terms = len(self)
        # Ranks per block keep the (terms, width) powers near one MiB.
        width = max(1, _BOUND_BLOCK_ELEMENTS // max(terms, 1))
        carry = np.ones(terms, dtype=complex)
        deviation = 0.0
        for start in range(0, head, width):
            stop = min(head, start + width)
            powers = np.empty((terms, stop - start), dtype=complex)
            powers[...] = self.alphas[:, None]
            powers[:, 0] *= carry
            np.cumprod(powers, axis=1, out=powers)
            carry = powers[:, -1].copy()
            powers *= self.coefficients[:, None]
            approx = powers.sum(axis=0)
            deviation = max(deviation, float(np.max(np.abs(approx - target[start:stop]))))
        eps = float(np.finfo(float).eps)
        weight_sum = float(np.sum(np.abs(self.coefficients)))
        decay = float(np.max(np.abs(self.alphas))) if terms else 0.0
        growth = max(1.0, decay) ** head
        error = deviation * (1.0 + 2.0 * eps) + weight_sum * growth * 4.0 * (head + terms) * eps
        if limit > head and terms:
            if decay < 1.0:
                tail = weight_sum * decay ** (head + 1)
            else:
                tail = weight_sum  # undamped bases: |alpha_l**i| == 1 for all i
            error = max(error, tail)
        return error


def _tabulate(weight: WeightFunction | Sequence[float], support: int) -> np.ndarray:
    """Values ``omega(1) .. omega(support)`` of a weight function or table."""
    if isinstance(weight, WeightFunction):
        return np.asarray(weight.as_array(support)[1:], dtype=float)
    table = np.asarray(weight, dtype=float)
    if table.ndim != 1:
        raise ValueError("weight tables must be one-dimensional")
    if table.size >= support:
        return table[:support].astype(float)
    return np.concatenate([table.astype(float), np.zeros(support - table.size)])


def dft_approximation(
    weight: WeightFunction | Sequence[float],
    num_terms: int,
    support: int | None = None,
    stages: Iterable[str] = ("dft", "df", "is", "es"),
    domain_multiplier: int = 2,
    damping_epsilon: float = 1e-5,
    extension_fraction: float = 0.1,
    smooth_extension: bool = False,
    conjugate_symmetric: bool = False,
) -> ExponentialApproximation:
    """Approximate a weight function by ``num_terms`` complex exponentials.

    Parameters
    ----------
    weight:
        The target ``omega``: a :class:`WeightFunction` or a table of
        values ``[omega(1), ..., omega(N)]``.
    num_terms:
        Number ``L`` of exponential terms to keep (the L largest-magnitude
        DFT coefficients).
    support:
        The support ``N`` beyond which ``omega`` is (treated as) zero.
        Defaults to the weight's ``horizon`` or the table length.
    stages:
        Which adaptation stages to apply; ``"dft"`` is always implied.
        Subsets of ``{"dft", "df", "is", "es"}`` reproduce the four curves
        of Figure 4.
    domain_multiplier:
        The constant ``a``: the DFT is taken on the domain ``[0, a * N)``.
    damping_epsilon:
        The target residual ``epsilon`` used to size the damping factor
        ``eta`` so that ``B * eta**(a*N) <= epsilon``.
    extension_fraction:
        The constant ``b`` of the extend-and-shift stage: the weight is
        extended ``b * N`` positions to the left of zero.
    smooth_extension:
        Replace the flat ``omega(1)`` left extension with a raised-cosine
        ramp from zero up to ``omega(1)``.  The ramp lives entirely at
        ranks below 1 — the approximated target on ranks ``1 .. N`` is
        unchanged — but it removes the periodic wraparound discontinuity
        of the sampled sequence, so far fewer terms reach a given error
        for weights that start flat (the planner's ``approx=`` path
        enables this; the default keeps the paper's Figure 4 construction
        byte-for-byte).
    conjugate_symmetric:
        Close the chosen spectral indices under ``k -> domain - k`` and
        force each partner's ``(u, alpha)`` to the *bitwise* conjugate of
        its representative (real-input FFT symmetry holds only up to
        rounding).  The term count may grow by up to one partner per
        chosen index; in exchange the approximation is exactly real on
        real inputs and evaluation kernels can run one cumulative
        product per conjugate pair instead of per term.
    """
    stage_set = {stage.lower() for stage in stages} | {"dft"}
    unknown = stage_set - _VALID_STAGES
    if unknown:
        raise ValueError(f"unknown approximation stages: {sorted(unknown)}")
    if num_terms < 1:
        raise ValueError(f"num_terms must be >= 1, got {num_terms}")
    if domain_multiplier < 1:
        raise ValueError(f"domain_multiplier must be >= 1, got {domain_multiplier}")

    if support is None:
        if isinstance(weight, WeightFunction) and weight.horizon is not None:
            support = weight.horizon
        elif not isinstance(weight, WeightFunction):
            support = len(np.atleast_1d(np.asarray(weight)))
        else:
            raise ValueError("support must be given for weights with unbounded horizon")
    support = int(support)
    if support < 1:
        raise ValueError(f"support must be >= 1, got {support}")

    table = _tabulate(weight, support)
    domain = int(domain_multiplier * support)
    shift = int(round(extension_fraction * support)) if "es" in stage_set else 0
    # The sampled sequence lives on j = 0 .. domain - 1 and represents
    # omega(j - shift); positions left of rank 1 are extrapolated with
    # omega(1) so the sequence is continuous at the original boundary.
    positions = np.arange(domain) - shift
    sequence = np.where(
        positions < 1,
        table[0],
        np.where(positions <= support, table[np.clip(positions, 1, support) - 1], 0.0),
    ).astype(float)
    if smooth_extension and shift:
        ramp = np.arange(shift + 1)
        sequence[: shift + 1] = 0.5 * (1.0 - np.cos(np.pi * ramp / shift)) * table[0]

    magnitude_bound = float(np.max(np.abs(sequence))) or 1.0
    if "df" in stage_set:
        eta = float((damping_epsilon / magnitude_bound) ** (1.0 / domain))
        eta = min(eta, 1.0)
    else:
        eta = 1.0

    if "is" in stage_set and eta < 1.0:
        scaled = sequence * eta ** (-np.arange(domain, dtype=float))
    else:
        scaled = sequence

    spectrum = np.fft.fft(scaled)
    num_terms = min(num_terms, domain)
    chosen = np.argsort(np.abs(spectrum))[::-1][:num_terms]

    if conjugate_symmetric:
        representatives: list[int] = []
        seen: set[int] = set()
        for k in chosen.tolist():
            rep = min(k, (-k) % domain)
            if rep not in seen:
                seen.add(rep)
                representatives.append(rep)
        reps = np.asarray(representatives, dtype=int)
        rep_alphas = eta * np.exp(2j * np.pi * reps / domain)
        # Averaging X[k] with conj(X[-k]) symmetrizes away FFT rounding;
        # for an exactly real input spectrum the average is a no-op.
        rep_coefficients = (
            0.5 * (spectrum[reps] + np.conj(spectrum[(-reps) % domain])) / domain
        )
        if shift:
            rep_coefficients = rep_coefficients * rep_alphas ** shift
        alpha_list: list[complex] = []
        coefficient_list: list[complex] = []
        for index, k in enumerate(reps.tolist()):
            alpha = complex(rep_alphas[index])
            u = complex(rep_coefficients[index])
            if k == (-k) % domain:
                # Self-paired index (DC or Nyquist): exactly real term.
                alpha_list.append(complex(alpha.real, 0.0))
                coefficient_list.append(complex(u.real, 0.0))
            else:
                alpha_list.extend((alpha, alpha.conjugate()))
                coefficient_list.extend((u, u.conjugate()))
        base_alphas = np.asarray(alpha_list, dtype=complex)
        coefficients = np.asarray(coefficient_list, dtype=complex)
    else:
        base_alphas = eta * np.exp(2j * np.pi * chosen / domain)
        coefficients = spectrum[chosen] / domain
        if shift:
            # omega(i) = sequence(i + shift)  =>  fold alpha**shift into u.
            coefficients = coefficients * base_alphas ** shift

    return ExponentialApproximation(
        coefficients=coefficients.astype(complex),
        alphas=base_alphas.astype(complex),
        support=support,
        stages=tuple(sorted(stage_set)),
        domain=domain,
    )


def approximate_weight_function(
    weight: WeightFunction | Sequence[float],
    num_terms: int,
    support: int | None = None,
    **kwargs,
) -> LinearCombinationPRFe:
    """Convenience wrapper returning the ranking function directly."""
    approximation = dft_approximation(weight, num_terms, support=support, **kwargs)
    return approximation.to_ranking_function()
