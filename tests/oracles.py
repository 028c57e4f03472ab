"""Reference implementations that the tests compare the package against.

Nothing in the package, the CLI or the benchmark runs this code.  Most of it
is a plainly written second route to a value the package computes its own
way; the rest are helpers that only tests need:

* Lie theory: the zero element, a basis element by name, the Killing form
  over the canonical basis, and the centrally extended loop algebra with its
  bracket.
* Fock states: creation and annihilation one variable at a time, the slot
  matches of a monomial by one product loop over the slots' positions, the
  PBW degree and its components, and the common total mode and h-weight of
  a state.
* Sampling: random V-vectors for inducing-module axiom checks.
* The adjoint series: word-level sums of the iterated adjoint action, the
  D, A and C series of one element by the direct formula, with no memo, and
  their operator terms by a separate canonical pass, which reads a ubar
  element's f-basis coordinates.
* The realization: an operator's terms expanded over a concrete mode window,
  an operator applied through that expansion, pi on a Laurent polynomial,
  the bracket residual on one state, the vacuum property and the PBW
  leading term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial
from typing import Mapping

from affinefock.fock import (
    FockState,
    Monomial,
    mono_d_var,
    mono_mode_sum,
    mono_mul_var,
    mono_weight,
)
from affinefock.formal_dist import LaurentPoly
from affinefock.lie import (
    LieElement,
    ParabolicData,
    SimpleAlgebra,
    add_to,
    as_scalar,
    bracket,
    bracket_residual,
    build_sl,
    central_coeff,
    form,
)
from affinefock.realization import (
    CENTRAL,
    NormalOrderedOperator,
    Realization,
    Term,
    _canonical_terms,
    bernoulli,
)

Q = Fraction


# --- Lie theory ---------------------------------------------------------------

def zero(n: int) -> LieElement:
    return LieElement(n, {})


def element(alg: SimpleAlgebra, name: str) -> LieElement:
    try:
        return alg.basis[alg.names.index(name)]
    except ValueError:
        raise KeyError(f"unknown basis name {name!r}") from None


def killing_form(a: LieElement, b: LieElement) -> Fraction:
    """tr(ad(a) ad(b)) computed over the canonical basis of sl(n+1)."""
    a._check_rank(b)
    alg = build_sl(a.n)
    total = Fraction(0)
    for k, x in enumerate(alg.basis):
        total += dict(alg.coords(bracket(a, bracket(b, x)))).get(k, 0)
    return total


class LoopElement:
    """Finite sum of a_m = a (x) t^m plus a central coefficient."""

    __slots__ = ("n", "terms", "central")

    def __init__(self, n: int, terms: Mapping[int, LieElement] | None = None,
                 central: Fraction = Fraction(0)):
        self.n = n
        self.terms: dict[int, LieElement] = {}
        for m, el in (terms or {}).items():
            if el.n != n:
                raise ValueError("rank mismatch inside loop element")
            if not el.is_zero():
                self.terms[m] = el
        self.central = as_scalar(central)

    def __eq__(self, other):
        return (isinstance(other, LoopElement) and self.n == other.n
                and self.terms == other.terms and self.central == other.central)

    def __repr__(self):
        body = " + ".join(f"({el!r})_{m}" for m, el in sorted(self.terms.items()))
        if self.central:
            body = f"{body} + {self.central}*c" if body else f"{self.central}*c"
        return f"LoopElement({body or '0'})"

    def __add__(self, other: "LoopElement") -> "LoopElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        terms = dict(self.terms)
        for m, el in other.terms.items():
            terms[m] = terms[m] + el if m in terms else el
        return LoopElement(self.n, terms, self.central + other.central)

    def __neg__(self):
        return LoopElement(self.n, {m: -el for m, el in self.terms.items()}, -self.central)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LoopElement":
        c = as_scalar(c)
        return LoopElement(self.n, {m: el.scale(c) for m, el in self.terms.items()},
                           c * self.central)

    def is_zero(self) -> bool:
        return not self.terms and self.central == 0


def loop(a: LieElement, m: int) -> LoopElement:
    return LoopElement(a.n, {m: a})


def loop_central(n: int, kappa) -> LoopElement:
    return LoopElement(n, {}, as_scalar(kappa))


def loop_bracket(x: LoopElement, y: LoopElement) -> LoopElement:
    """[a_m, b_n] = [a,b]_{m+n} + m (a,b) delta_{m,-n} c, extended bilinearly."""
    if x.n != y.n:
        raise ValueError("rank mismatch")
    out = LoopElement(x.n)
    for m, a in x.terms.items():
        for n_, b in y.terms.items():
            out = out + loop(bracket(a, b), m + n_)
            central = central_coeff(a, b, m, n_)
            if central:
                out = out + loop_central(x.n, central)
    return out


# --- Fock states ----------------------------------------------------------------

def mono_degree(mono: Monomial) -> int:
    return sum(e for _, _, e in mono)


def apply_creation(state: FockState, alpha: int, mode: int) -> FockState:
    """Multiplication by b(alpha, mode); raises the polynomial degree by one."""
    return FockState.of({(mono_mul_var(mono, alpha, mode), v): c
                         for (mono, v), c in state.terms.items()})


def apply_annihilation(state: FockState, alpha: int, mode: int) -> FockState:
    """Minus the partial derivative in b(alpha, mode); kills the vacuum."""
    out: dict = {}
    for (mono, v), c in state.terms.items():
        hit = mono_d_var(mono, alpha, mode)
        if hit is None:
            continue
        exp, reduced = hit
        add_to(out, (reduced, v), -exp * c)
    return FockState.of(out)


def mono_matches_reference(families: tuple[int, ...], mono: Monomial) -> tuple[tuple, ...]:
    """`fock.mono_matches` as one product loop over the positions of the
    slots' families in `mono`, not slot by slot over remaining monomials:
    each slot contributes minus the exponent it finds at its position, which
    it then lowers by one, and an assignment that finds a zero exponent is
    dropped."""
    if not families:
        return ((1, (), 0, mono),)
    positions: dict[int, list[int]] = {}
    for p, (a, _n, _e) in enumerate(mono):
        positions.setdefault(a, []).append(p)
    out = []
    for combo in product(*[positions.get(a, ()) for a in families]):
        rem = list(mono)
        mult = 1
        for p in combo:
            a, n, e = rem[p]
            if not e:
                break
            mult *= -e
            rem[p] = (a, n, e - 1)
        else:
            modes = tuple([mono[p][1] for p in combo])
            out.append((mult, modes, sum(modes), tuple([v for v in rem if v[2]])))
    return tuple(out)


def pbw_degree(state: FockState) -> int:
    """Degree of the highest monomial; 0 for the zero state."""
    if not state.terms:
        return 0
    return max(mono_degree(mono) for mono, _ in state.terms)


def degree_component(state: FockState, degree: int) -> FockState:
    return FockState({k: c for k, c in state.terms.items()
                      if mono_degree(k[0]) == degree})


def _common_grade(state: FockState, grade):
    """grade(mono, v) when every term of the state shares it; None when two
    terms differ, when grade is None on a term, or when the state is empty."""
    result = None
    for mono, v in state.terms:
        g = grade(mono, v)
        if g is None or (result is not None and g != result):
            return None
        result = g
    return result


def total_mode(state: FockState, module=None) -> int | None:
    """Common total mode of all terms, or None when mixed.

    The mode of a term is the mode sum of its monomial plus the V-grading of
    its vector when the module is mode-graded; modules whose vectors carry no
    mode grading make the result None unless the state is empty.
    """
    def grade(mono, v):
        vm = 0 if module is None else module.v_mode(v)
        return None if vm is None else mono_mode_sum(mono) + vm
    return _common_grade(state, grade)


def h_weight(state: FockState, h: LieElement, pd: ParabolicData, module=None,
             ) -> Fraction | None:
    """Common h-eigenvalue of all terms, or None when mixed.

    A monomial contributes `mono_weight`; the V-factor contributes its own
    weight when the module provides one.
    """
    def grade(mono, v):
        vw = Q(0) if module is None else module.v_weight(v, h)
        return None if vw is None else mono_weight(pd, mono, h) + vw
    return _common_grade(state, grade)


# --- sampling -------------------------------------------------------------------

def v_states(sampler, module, count: int) -> list[dict[int, Fraction]]:
    """Random V-vectors (dicts index -> coefficient) for axiom checks."""
    out = []
    for _ in range(count):
        vec: dict[int, Fraction] = {}
        for _ in range(2):
            v = module.sample_v(sampler)  # drawn before the coefficient
            add_to(vec, v, sampler.rational())
        if not vec:
            vec = {module.sample_v(sampler): Fraction(1)}
        out.append(vec)
    return out


# --- the adjoint series ---------------------------------------------------------

def breadth_first_ad_levels(pd: ParabolicData, base: LieElement) -> list[list[tuple]]:
    """Reference word levels: extend every surviving word by every f-basis
    letter, one word length at a time."""
    levels = [[((), base)] if not base.is_zero() else []]
    while levels[-1]:
        levels.append([(word + (beta,), y)
                       for word, x in levels[-1]
                       for beta, f in enumerate(pd.f_basis)
                       if not (y := bracket(f, x)).is_zero()])
    return levels


def summed_per_multiset(levels: list[list[tuple]]) -> list[list[tuple]]:
    """Reference multiset levels: each level's word elements summed per sorted
    letter tuple, zero sums dropped, keys in increasing order."""
    out = []
    for level in levels:
        sums = {}
        for word, x in level:
            key = tuple(sorted(word))
            sums[key] = sums[key] + x if key in sums else x
        out.append([(key, w) for key, w in sorted(sums.items()) if not w.is_zero()])
    return out


def series_reference(pd: ParabolicData, a: LieElement, kind: str) -> list[tuple]:
    """The D, A and C series of a by the direct formula, as (word, value)
    pairs, on Fraction coefficients and word-level sums W_x(S)
    (`breadth_first_ad_levels`, `summed_per_multiset`).

    D: for every multiset S1 of a, the projection y = (W_a(S1))_ubar
    contributes e_i f_j W_y(S2) at S1 + S2, with i = |S1|, j = |S2|,
    e_i = (-1)^i/i! and f_j = (-1)^j B_j/j!.  A: e_i (W_a(S))_p at S.
    C: (W_{f_beta0}(S), a)/(|S| + 1)! at (beta0,) + S.  Values are
    nonzero, and words come in (length, word) order."""
    def levels_of(x):
        return summed_per_multiset(breadth_first_ad_levels(pd, x))

    acc: dict = {}

    def add(word, x):
        acc[word] = acc[word] + x if word in acc else x

    if kind == "D":
        for i, level in enumerate(levels_of(a)):
            for s1, x in level:
                for j, level2 in enumerate(levels_of(pd.project(x, "ubar"))):
                    c = Q((-1) ** (i + j), factorial(i) * factorial(j)) * bernoulli(j)
                    for s2, w in level2:
                        add(tuple(sorted(s1 + s2)), w.scale(c))
    elif kind == "A":
        for i, level in enumerate(levels_of(a)):
            for s, x in level:
                add(s, pd.project(x, "p").scale(Q((-1) ** i, factorial(i))))
    elif kind == "C":
        for beta0, f in enumerate(pd.f_basis):
            for j, level in enumerate(levels_of(f)):
                for s, w in level:
                    add((beta0,) + s, form(w, a) / factorial(j + 1))
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    out = [(word, v) for word, v in acc.items()
           if (v != 0 if kind == "C" else not v.is_zero())]
    return sorted(out, key=lambda pair: (len(pair[0]), pair[0]))


def ubar_coords(pd: ParabolicData, a: LieElement) -> list[tuple[int, Fraction]]:
    """Decompose an element of ubar over the f-basis; (alpha index, coeff)."""
    out = []
    for key, c in a.entries.items():
        alpha = pd.ubar_index.get(key)
        if alpha is None:
            raise ValueError("element is not in ubar")
        out.append((alpha, c))
    out.sort()
    return out


def _raw_series_terms(pd: ParabolicData, a: LieElement, kind: str) -> list[Term]:
    """One raw term per (word, value) pair of `series_reference`: minus each
    f-basis coordinate of a D value (`ubar_coords`) as a creator, an A value
    as a Levi head, minus a C value as a central term with the
    differentiated first slot as its mode factor."""
    pairs = series_reference(pd, a, kind)
    if kind == "D":
        return [Term(-c, word, "create", alpha)
                for word, y in pairs for alpha, c in ubar_coords(pd, y)]
    if kind == "A":
        return [Term(Q(1), word, "levi", x) for word, x in pairs]
    return [Term(-c, word, "central", mode_factor=0) for word, c in pairs]


def series_terms_reference(pd: ParabolicData, a: LieElement, kind: str) -> list[Term]:
    """`series_expand` by the direct formula and a separate canonical pass:
    the raw terms of `series_reference`'s pairs through `_canonical_terms`,
    which sorts their slots, splits Levi heads and sums equal keys."""
    return list(_canonical_terms(pd, _raw_series_terms(pd, a, kind)))


def operator_terms_reference(pd: ParabolicData, a: LieElement) -> tuple[Term, ...]:
    """The terms of `build_operator_general(pd, a, m)` by the same route:
    the raw terms of all three kinds in one `_canonical_terms` pass."""
    return _canonical_terms(pd, [t for kind in ("D", "A", "C")
                                 for t in _raw_series_terms(pd, a, kind)])


# --- the realization ------------------------------------------------------------

def instantiate_operator(op: NormalOrderedOperator, window: int,
                         ) -> dict[tuple, Fraction]:
    """Expand symbolic terms over a concrete mode window, as a coefficient map.

    Keys are (sorted (alpha, mode) annihilator multiset, head descriptor);
    equal maps mean the operators agree on every state supported in the
    window.  Used for structural comparisons.
    """
    out: dict[tuple, Fraction] = {}
    for term in op.terms:
        r = len(term.annihilators)
        for modes in product(range(-window, window + 1), repeat=r):
            if term.head_kind == "central" and sum(modes) != -op.mode:
                continue
            coeff = term.coeff
            if term.mode_factor is not None:
                coeff *= modes[term.mode_factor]
            if coeff == 0:
                continue
            annih = tuple(sorted(zip(term.annihilators, modes)))
            if term.head_kind == "central":
                head = ("central",)
            else:  # a creator's alpha or a Levi head's unit, at its mode
                head = (term.head_kind, term.head, op.mode + sum(modes))
            add_to(out, (annih, head), coeff)
    return out


def reference_apply(op: NormalOrderedOperator, state: FockState, module) -> FockState:
    """op(state) from `instantiate_operator` over the state's mode window:
    each (annihilators, head) key is applied with the plain Fock ladder
    operators, the module's own action or the level."""
    window = max((abs(n) for (mono, _v) in state.terms for _a, n, _e in mono),
                 default=0)
    out = FockState.zero()
    for (annih, head), coeff in instantiate_operator(op, window).items():
        part = state
        for alpha, mode in annih:
            part = apply_annihilation(part, alpha, mode)
        if head[0] == "create":
            part = apply_creation(part, head[1], head[2])
        elif head[0] == "levi":
            acted = FockState.zero()
            for (mono, v), c in part.terms.items():
                acted = acted + FockState({(mono, w): c * d for w, d in
                                           module.act(head[1], head[2], v).items()})
            part = acted
        elif head[0] == "central":
            part = part.scale(module.level)
        out = out + part.scale(coeff)
    return out


def act_laurent(real: Realization, a, g: LaurentPoly, state: FockState) -> FockState:
    """pi(a (x) g(t)) state for a Laurent polynomial g."""
    out = FockState.zero()
    for mode, c in g.coeffs.items():
        out = out + real.act(a, mode, state).scale(c)
    return out


def check_bracket(real: Realization, a, b, m: int, n: int, state: FockState,
                  ) -> tuple[bool, FockState]:
    """Residual of the bracket relation on a state; (passed, witness)."""
    if a is CENTRAL or b is CENTRAL:
        residual = (real.act(a, m, real.act(b, n, state))
                    - real.act(b, n, real.act(a, m, state)))
    else:
        residual = FockState.of(bracket_residual(
            lambda x, k, terms: real.act(x, k, FockState.of(terms)).terms,
            a, m, b, n, state.terms, real.module.level))
    return residual.is_zero(), residual


def vacuum_expected(real: Realization, a: LieElement, m: int, v_index: int = 0,
                    ) -> FockState:
    """1 (x) sigma(a_m) v, the required value of pi(a_m) on the vacuum."""
    return FockState({((), w): c
                      for w, c in real.module.act(a, m, v_index).items()})


def pbw_leading_check(real: Realization, seq) -> bool:
    """Apply pi(f^{g_1}) ... pi(f^{g_r}) to the vacuum and compare the top
    filtration layer with (-1)^r times the plain product of the matching
    creation polynomials."""
    seq = list(seq)
    state = FockState.vacuum(0)
    for alpha, g in reversed(seq):
        state = act_laurent(real, real.pd.f_basis[alpha], g, state)
    expected: dict = {((), 0): Q((-1) ** len(seq))}
    for alpha, g in seq:
        nxt: dict = {}
        for (mono, v), c in expected.items():
            for mode, gc in g.coeffs.items():
                add_to(nxt, (mono_mul_var(mono, alpha, mode), v), c * gc)
        expected = nxt
    return degree_component(state, len(seq)) == FockState(expected)
