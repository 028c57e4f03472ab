"""Finite formal-distribution calculus: Laurent polynomials and delta kernels.

The formal delta distribution in two variables and its w-derivatives are kept
symbolically, as kernels sum_d g_d(w) * d^d_w delta(z-w) with Laurent-polynomial
weights.  In this normal form the annihilation identities hold exactly instead
of up to a truncation window, and equality is decided by comparing weights.

The reduction rule used throughout is the binomial expansion

    a(z) * d^d_w delta(z-w) = sum_{r<=d} C(d,r) (d^{d-r}_w a)(w) * d^r_w delta(z-w),

whose order-0 and order-1 cases are the familiar substitution rules for the
delta distribution.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping

from .lie import add_to, as_scalar

Q = Fraction


class LaurentPoly:
    """Finite-support Laurent polynomial with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        self.coeffs: dict[int, Fraction] = {}
        for m, c in (coeffs or {}).items():
            c = as_scalar(c)
            if c != 0:
                self.coeffs[int(m)] = c

    @classmethod
    def monomial(cls, m: int, c=1) -> "LaurentPoly":
        return cls({m: as_scalar(c)})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        body = " + ".join(f"{c}*z^{m}" for m, c in sorted(self.coeffs.items()))
        return f"LaurentPoly({body})"

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            add_to(out, m, c)
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LaurentPoly":
        c = as_scalar(c)
        return LaurentPoly({m: c * v for m, v in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, Fraction] = {}
        for m, a in self.coeffs.items():
            for k, b in other.coeffs.items():
                add_to(out, m + k, a * b)
        return LaurentPoly(out)

    def derivative(self, order: int = 1) -> "LaurentPoly":
        p = self
        for _ in range(order):
            p = LaurentPoly({m - 1: m * c for m, c in p.coeffs.items() if m != 0})
        return p


class DeltaKernel:
    """sum_d g_d(w) * d^d_w delta(z-w) with distinct derivative orders."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, LaurentPoly] | None = None):
        self.terms: dict[int, LaurentPoly] = {}
        for d, g in (terms or {}).items():
            if d < 0:
                raise ValueError("derivative order must be nonnegative")
            if not g.is_zero():
                self.terms[int(d)] = g

    @classmethod
    def delta(cls) -> "DeltaKernel":
        return cls({0: LaurentPoly.monomial(0)})

    @classmethod
    def delta_derivative(cls, order: int) -> "DeltaKernel":
        return cls({order: LaurentPoly.monomial(0)})

    def __eq__(self, other):
        return isinstance(other, DeltaKernel) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "DeltaKernel(0)"
        body = " + ".join(f"({g!r})*d^{d}delta" for d, g in sorted(self.terms.items()))
        return f"DeltaKernel({body})"

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DeltaKernel") -> "DeltaKernel":
        out = dict(self.terms)
        for d, g in other.terms.items():
            out[d] = out[d] + g if d in out else g
        return DeltaKernel(out)

    def __neg__(self):
        return DeltaKernel({d: -g for d, g in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "DeltaKernel":
        return DeltaKernel({d: g.scale(c) for d, g in self.terms.items()})

    def d_dw(self) -> "DeltaKernel":
        """Differentiate the whole kernel in w (product rule on weights)."""
        out = DeltaKernel()
        for d, g in self.terms.items():
            out = out + DeltaKernel({d: g.derivative()}) + DeltaKernel({d + 1: g})
        return out


def multiply_by_field(kernel: DeltaKernel, a: LaurentPoly) -> DeltaKernel:
    """a(z) * kernel, rewritten with weights in w only."""
    out = DeltaKernel()
    for d, g in kernel.terms.items():
        for r in range(d + 1):
            weight = g * a.derivative(d - r).scale(comb(d, r))
            out = out + DeltaKernel({r: weight})
    return out


def _mul_z_minus_w(kernel: DeltaKernel) -> DeltaKernel:
    # z * d^d delta reduces to w * d^d delta + d * d^{d-1} delta, so the
    # difference against w * d^d delta collapses each order by one.
    out = DeltaKernel()
    for d, g in kernel.terms.items():
        if d >= 1:
            out = out + DeltaKernel({d - 1: g.scale(d)})
    return out


def annihilation_check(kernel: DeltaKernel, power: int) -> bool:
    """True iff (z-w)^power annihilates the kernel."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    k = kernel
    for _ in range(power):
        k = _mul_z_minus_w(k)
    return k.is_zero()


def residue_pair(kernel: DeltaKernel, a: LaurentPoly) -> LaurentPoly:
    """Res_{z=0} a(z) * kernel, a Laurent polynomial in w.

    Termwise, Res_z a(z) d^d_w delta(z-w) = (d^d a)(w).
    """
    out = LaurentPoly.zero()
    for d, g in kernel.terms.items():
        out = out + g * a.derivative(d)
    return out


def delta_identity_suite(window: int = 8) -> list[tuple[str, bool]]:
    """The six defining identities of the delta kernel, checked exactly.

    Returns (description, passed) pairs; series-level statements are verified
    against the bilateral expansion on the given window, symbolic ones
    against the kernel algebra.
    """
    results = []

    grid = bilateral_coefficients(DeltaKernel.delta(), window, window)
    results.append(("delta is symmetric under swapping the variables",
                    grid == {(q, p): c for (p, q), c in grid.items()}))

    dz_grid = {(m - 1, -m - 1): Q(m) for m in range(-window - 1, window + 2)
               if m != 0 and abs(m - 1) <= window and abs(-m - 1) <= window}
    neg_dw = -DeltaKernel.delta().d_dw()
    results.append(("d_z delta equals minus d_w delta",
                    bilateral_coefficients(neg_dw, window, window) == dz_grid))

    a = LaurentPoly({-6: Q(1), -1: Q(2), 0: Q(-1, 3), 4: Q(5), 6: Q(1, 2)})
    results.append(("a(z) delta = a(w) delta for a supported in [-6,6]",
                    multiply_by_field(DeltaKernel.delta(), a) == DeltaKernel({0: a})))

    results.append(("a(z) d_w delta = a(w) d_w delta + a'(w) delta",
                    multiply_by_field(DeltaKernel.delta_derivative(1), a)
                    == DeltaKernel({1: a, 0: a.derivative()})))

    ok5 = all(annihilation_check(DeltaKernel.delta_derivative(n), n + 1)
              for n in range(3))
    ok5 = ok5 and not annihilation_check(DeltaKernel.delta_derivative(1), 1)
    results.append(("(z-w)^{n+1} kills the n-th delta derivative, lower powers "
                    "do not", ok5))

    ok6 = residue_pair(DeltaKernel.delta(), a) == a
    ok6 = ok6 and all(
        residue_pair(DeltaKernel.delta(), LaurentPoly.monomial(m))
        == LaurentPoly.monomial(m) for m in range(-window, window + 1))
    results.append(("Res_z a(z) delta(z-w) = a(w)", ok6))
    return results


def bilateral_coefficients(kernel: DeltaKernel, z_window: int, w_window: int,
                           ) -> dict[tuple[int, int], Fraction]:
    """Expand the kernel as a genuine double series on a finite window.

    Returns coefficients of z^p w^q for |p| <= z_window and |q| <= w_window.
    Used as an independent oracle for the symbolic reduction rules:
    d^d_w delta(z-w) = sum_m z^m * falling(-m-1, d) * w^{-m-1-d}.
    """
    out: dict[tuple[int, int], Fraction] = {}
    for d, g in kernel.terms.items():
        for j, c in g.coeffs.items():
            for p in range(-z_window, z_window + 1):
                fall = Q(1)
                for t in range(d):
                    fall *= (-p - 1 - t)
                q = j - p - 1 - d
                if abs(q) > w_window:
                    continue
                add_to(out, (p, q), c * fall)
    return out
