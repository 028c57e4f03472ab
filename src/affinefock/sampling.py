"""Deterministic seeded sampling for sweeps and property checks.

A fixed 64-bit linear congruential generator is used instead of the standard
library so that sampled sweeps are reproducible across implementations:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64
    output = state >> 33            (31 usable bits per step)
    randint(lo, hi) = lo + output % (hi - lo + 1)

Derived draws (rationals, monomials, states) are built from randint in the
documented order; see the function bodies, which are normative.
"""

from __future__ import annotations

from fractions import Fraction

from .fock import FockState, mono_from_pairs

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Sampler:
    """The package-wide LCG; seed fully determines every draw sequence."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def _step(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state >> 33

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError("empty range")
        return lo + self._step() % (hi - lo + 1)

    def rational(self) -> Fraction:
        """Nonzero rational with numerator in [-4,4] and denominator in [1,3]."""
        num = 0
        while num == 0:
            num = self.randint(-4, 4)
        den = self.randint(1, 3)
        return Fraction(num, den)

    def monomial(self, num_alpha: int, max_degree: int, max_mode: int):
        # with no Fock variables (Sigma = {1..n}) only the empty monomial exists
        degree = self.randint(0, max_degree) if num_alpha else 0
        pairs = []
        for _ in range(degree):
            alpha = self.randint(0, num_alpha - 1)
            mode = self.randint(-max_mode, max_mode)
            pairs.append((alpha, mode, 1))
        return mono_from_pairs(pairs)

    def fock_state(self, module, max_degree: int, max_mode: int) -> FockState:
        """The sum of two draws of (coefficient, monomial, V-vector); zero-safe."""
        pd = module.pd
        terms = {}
        for _ in range(2):
            coeff = self.rational()
            mono = self.monomial(pd.num_alpha, max_degree, max_mode)
            v = module.sample_v(self)
            key = (mono, v)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        state = FockState(terms)
        if state.is_zero():
            return FockState.vacuum(module.sample_v(self))
        return state

    def fock_states(self, module, count: int, max_degree: int, max_mode: int,
                    ) -> list[FockState]:
        return [self.fock_state(module, max_degree, max_mode)
                for _ in range(count)]
