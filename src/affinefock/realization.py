"""Free field realization of the affine algebra on Fock states.

For a parabolic decomposition of sl(n+1) and an inducing module V, every
Sigma-homogeneous element a and mode m gets a finite normal-ordered operator
pi(a_m) acting on polynomial Fock states tensored with V.  Two engines build
these operators:

* the general engine expands the exponential-adjoint series

      pi(a(z)) = -sum_alpha a_alpha(z) [ F(ad u(z)) (exp(-ad u(z)) a)_ubar ]_alpha
                 + (exp(-ad u(z)) a)_p
                 - ( G(ad u(z)) d_z u(z), a ) c,

  with F(x) = x e^x/(e^x - 1), G(x) = (e^x - 1)/x and u(z) the tautological
  ubar-valued series; every series truncates exactly by grading nilpotency.
* the closed-form engine transcribes the block-matrix generator formulas of
  a maximal parabolic, whose nilradical is abelian: with a = (A B; C D) in
  the two Levi blocks and Z the block of ubar slots, pi(a) is the creators
  -b . (C + DZ - ZA - ZBZ), the Levi and p heads (A + BZ, B; 0, D - ZB) and
  the central term -tr(B dZ) c (the rank-one Borel case included).

A normal-ordered term keeps its annihilator modes symbolic and only the
matches against the finitely many variables of a state are enumerated, so
applying an operator is always a finite exact computation.

Normal ordering is fixed as "annihilators act first".  The terms of pi(a_m)
do not depend on m: the mode lives on the operator, a creator or Levi head
acts at m plus the sum of the annihilator modes, and a central term keeps only
the annihilator modes that sum to -m, with a linear weight on the
differentiated slot.  So each element's operator is built once and reused at
every mode.

Construction is integer arithmetic too.  Every multiset sum W(S) of the
series is a bracket of matrix units, so `_ad_multisets` keeps int entries.
W is linear in the element it expands, so W_{k*p} = k*W_p: the recursion
expands each primitive class p once per parabolic (int entries, gcd 1,
positive at the smallest (i, j)) and its sums carry the scalar k;
`series_expand` writes a = A/d with A integral, reads each series coefficient
as an int over one LCM L (`_series_table`), and sums the series once,
straight into the operator's canonical terms: a D entry goes to the creator
of its f_alpha, an A sum to its coordinates over the canonical basis (read in
ints), a C coordinate to its sorted slots.  Each term's coefficient is one
Fraction over L*d, built with the term.

The ubar part needs only each word's first step into ubar.  Every f letter
has positive Sigma-height, so the prefixes ad(w_j)...ad(w_1) a of a word lose
height at each step and, once in ubar, stay there.  The projection to ubar
thus keeps a tail of the splits of the word between exp(-ad u) and F(ad u),
and the word's weight is a tail sum T[k][m] of the coefficient table, m being
the length of its first prefix in ubar.  So for an element of p the recursion
keeps only the sums that stay in p, which is all the p and central parts
read, and the heads V_a(P): the sums of the prefixes that first enter ubar at
the letter multiset P.  D(S) = sum_P T[|S|][|P|] W_{V_a(P)}(S - P), one pass
over a's heads against the full sums of the ubar classes they fall in.

The central part is read off a's own sums as well.  The trace form is
invariant, (ad x y, z) = -(y, ad x z), so summed over the words of a letter
multiset S, (W_{f_beta0}(S), a) = (-1)^|S| (f_beta0, W_a(S)): the pairing of
the series against d_z u at the word (beta0,) + S is (-1)^|S| G[|S|] times
the e_beta0 coordinate of W_a(S).  Every letter has height >= 1, so only the
sums of fewer than height(a) letters reach u, and those stay in p.

An operator is its terms, and an element's operators at every mode share one
terms tuple.  A term has one head: a creator's alpha, a Levi head's shared
unit of `pd.algebra.basis` (named by `unit_name`, ordered by its lead entry)
or None for a central term.  The inducing module compiles the tuple when an
operator is first applied (`InducingModule.kernel`, memoized per tuple) to
integer numerators over one LCM, heads as the terms hold them, without the
terms that act by zero on V, so an operator stays valid for every module and
building one does no module work.  The apply kernel, `_apply_scaled`, is
integer-only: creator heads add their values directly, Levi units read the
module's actions as integers (`act_scaled`), central heads the level's
numerator, each over a denominator that joins the output's running LCM.  It
keys states by (monomial id, v) in the module's `fock.MonomialTable`, which
memoizes each slot match and creator product by id, so it hashes pairs of
ints and computes each distinct product once per module.  `apply_operator`
interns its state, divides once at the end and reads the ids back, so
results are exact, and both the output order and the sequence of module
calls follow term order, then slot-assignment order.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm

from .fock import FockState
from .lie import (
    LieElement,
    ParabolicData,
    _raw,
    add_to,
    bracket,
    central_coeff,
    scale_to_integers,
    unit_name,
)

Q = Fraction

BERNOULLI_BOUND = 32


class _CentralElement:
    """Sentinel for the central element of the affine algebra."""

    __slots__ = ()

    def __repr__(self):
        return "c"


CENTRAL = _CentralElement()


@cache
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k in the convention with B_1 = -1/2.

    Computed from the defining recurrence sum_{j<=k} C(k+1, j) B_j = [k = 0].
    """
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if k > BERNOULLI_BOUND:
        raise ValueError(
            f"Bernoulli index {k} exceeds configured bound {BERNOULLI_BOUND}")
    return (Q(k == 0) - sum(comb(k + 1, j) * bernoulli(j) for j in range(k))) / (k + 1)


@cache
def _series_table(cap: int) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The series coefficients of word lengths 0..cap, as ints over one LCM.

    Returns (L, T, G).  Let E[i][j] = (-1)^i/i! (-1)^j B_j/j!, the product of
    the coefficients of x^i in exp(-x) and of x^j in F(x) = x e^x/(e^x - 1):
    the weight of a word of length i + j whose first i letters come from
    exp(-ad u) and whose last j come from F(ad u).  A word's prefixes enter
    ubar at a first length m and stay there, so the projection to ubar keeps
    exactly the splits i >= m, and the word's D weight is the tail sum
    T[k][m] = L sum_{i=m..k} E[i][k-i], for 0 <= m <= k <= cap.  So
    T[k][0] = L B_k/k!, the coefficient of x/(e^x - 1) = exp(-x) F(x);
    T[k][1] = -L [k = 1], since (exp(-x) - 1) F(x) = -x; and T[k][k] =
    L (-1)^k/k! is the exponential alone (B_0 = 1), which the p part reads.
    G[j] = L/(j+1)!, the coefficient of x^j in G(x) = (e^x - 1)/x.  L is the
    least common denominator, so every entry is an int.
    """
    exp_neg = [Q((-1) ** i, factorial(i)) for i in range(cap + 1)]
    flow = [(-1) ** j * bernoulli(j) / factorial(j) for j in range(cap + 1)]
    tails = [[sum(exp_neg[i] * flow[k - i] for i in range(m, k + 1)) for m in range(k + 1)]
             for k in range(cap + 1)]
    g = [Q(1, factorial(j + 1)) for j in range(cap + 1)]
    den = lcm(*[c.denominator for row in tails + [g] for c in row])
    return (den, tuple(tuple(int(c * den) for c in row) for row in tails),
            tuple(int(c * den) for c in g))


AdSums = tuple[tuple[tuple[int, ...], LieElement], ...]
AdLevels = tuple[AdSums, ...]


def _in_ubar(pd: ParabolicData, x: LieElement) -> bool:
    """True iff x is nonzero and homogeneous of negative Sigma-height; an
    inhomogeneous x, which only a grading bug produces, counts as p."""
    h = pd.height_of(x)
    return h is not None and h < 0


def _shifted_into(target: dict, sums: AdSums, beta: int, k) -> None:
    """Add k * w at the multiset s + beta of target, for each (s, w) of sums."""
    for s, w in sums:
        acc = target.setdefault(tuple(sorted(s + (beta,))), {})
        for key, c in w.entries.items():
            add_to(acc, key, k * c)


def _summed(n: int, target: dict) -> AdSums:
    """target's nonzero sums as elements, in increasing multiset order."""
    return tuple((s, _raw(n, acc)) for s, acc in sorted(target.items()) if acc)


def _ad_multisets(pd: ParabolicData, base: LieElement, depth: int = 0,
                  ) -> tuple[int | Fraction, AdLevels, AdSums]:
    """Iterated adjoint action of the f-basis on base, summed per letter multiset.

    Returns (k, levels, heads) with base = k*p for the primitive element p
    below; base's own sums are k times p's.  For a word w, write
    W_p(w) = (ad f_{w_i} o ... o ad f_{w_1})(p) and W_p(S) for the sum of
    W_p(w) over the words w with letters S.  The annihilators of one term
    commute, so every word with letters S lands on the same canonical
    operator term, and the sums per multiset are all the series needs.

    Every f letter has positive Sigma-height, so along a word the height of
    W_p(w_1..w_j) falls at each step: the word stays in p = l + u up to some
    length and, from the first length at which it enters ubar, stays in ubar.
    The height of W_p(S) is fixed by S, so S decides which side W_p(S) is on.
    * If p is in ubar, level i of levels maps each sorted i-multiset S to
      W_p(S), and heads is ((), p): p is its own first step into ubar.
    * Otherwise p is in p, and levels keeps only the sums that stay in p,
      which is all the p and central parts of the series read.  heads maps
      each multiset P to V_p(P), the sum of W_p(w) over the words w with
      letters P that enter ubar exactly at their last letter; every word
      that reaches ubar is such a head word followed by any word, which the
      D part expands.
    Zero sums are dropped, keys come in increasing order and the last level
    is empty.

    Both are built by one first-letter recursion over the children
    y = [f_beta, p]: W_p(S) = sum_{beta in S} W_y(S - beta) for the levels,
    and the heads of a p-class merge the heads of its children, shifted by
    beta, while a child in ubar is itself the head at (beta,) and is not
    expanded.  This is the only place where the series computes brackets.
    base is reached by a word of length depth, and the recursion terminates
    by grading nilpotency: a surviving word of length 2*depth_k + 2 raises
    AssertionError, on either side.

    W is linear in x, since ad f is, so W_{k*p} = k*W_p, and the recursion
    meets mostly small multiples of elements it has already expanded.  So it
    is memoized per primitive class in `pd.ad_multisets_cache`: p has int
    entries with gcd 1 and a positive entry at its smallest (i, j), every
    nonzero element is k*p for exactly one such p, and each p is bracketed
    with each f_beta only once per parabolic.  A sum over brackets of p
    carries each bracket's factor k into its `add_to`.

    Every W(S) is a bracket of matrix units, so the recursion runs on
    integers: k is the gcd of base's numerators over the LCM of its
    denominators (up to sign), so p, every level and every head keep int
    entries, and the recursion brackets the int-entry copies
    `pd.f_basis_int`.  k is an int for an int-entry base (as `series_expand`
    and the recursion pass) and may be a Fraction otherwise.  A zero base
    gives (1, ((),), ()).
    """
    if base.is_zero():
        return 1, ((),), ()
    entries = base.entries
    den = lcm(*[c.denominator for c in entries.values()])
    g = gcd(*[c.numerator for c in entries.values()])
    if entries[min(entries)] < 0:
        g = -g
    p = _raw(pd.n, {key: c * den // g for key, c in entries.items()})
    k = g if den == 1 else Q(g, den)
    cap = 2 * pd.depth_k + 2
    memo = pd.ad_multisets_cache.get(p)
    if memo is None:
        if depth >= cap:
            raise AssertionError("adjoint series failed to truncate (grading bug)")
        ubar = _in_ubar(pd, p)
        sums: list[dict] = [{}]  # levels 1, 2, ...
        head_sums: dict = {}
        for beta, f in enumerate(pd.f_basis_int):
            y = bracket(f, p)
            if y.is_zero():
                continue
            if ubar or not _in_ubar(pd, y):
                kb, sub, sub_heads = _ad_multisets(pd, y, depth + 1)
            else:  # these words enter ubar at y
                kb, sub, sub_heads = 1, (), (((), y),)
            sums.extend({} for _ in range(len(sub) - len(sums)))
            for level_sums, level in zip(sums, sub):
                _shifted_into(level_sums, level, beta, kb)
            if not ubar:
                _shifted_into(head_sums, sub_heads, beta, kb)
        levels = ((((), p),),) + tuple(_summed(pd.n, level) for level in sums)
        heads = (((), p),) if ubar else _summed(pd.n, head_sums)
        memo = pd.ad_multisets_cache[p] = (levels, heads)
    levels, heads = memo
    if depth + len(levels) - 2 >= cap:
        raise AssertionError("adjoint series failed to truncate (grading bug)")
    return k, levels, heads


def series_expand(pd: ParabolicData, a: LieElement, kind: str) -> list[Term]:
    """Exact finite expansion of the D / A / C summand for homogeneous a, as
    that kind's canonical terms of pi(a_m), in `_term_sort_key` order.

    D gives creator terms, with the overall minus sign of the operator: the
    ubar elements of the series F(ad u)((exp(-ad u) a)_ubar), each entry
    E_ij under the f_alpha = E_ij it creates (`ParabolicData.ubar_index`).
    A gives Levi terms: the p elements of the p-projected exponential
    series, read in ints over the canonical basis by `decompose_p` (Cartan
    prefix sums, then matrix units).  C gives central
    terms, minus the scalars of the paired central series; the
    differentiated slot is the mode factor, the first of its family.

    The series is summed per multiset of letters (`_ad_multisets`), not per
    word: the annihilators of a term commute and every coefficient depends
    only on word length, so a term's slots are a sorted multiset, and every
    (multiset, head) pair the series gives is a distinct term.

    D reads a's heads.  A word reaches ubar after a first m letters and
    stays there, so its weight is the tail sum T[k][m] of `_series_table`,
    and D(S) = sum_P T[|S|][|P|] W_{V_a(P)}(S - P) over a's heads P: one pass
    over each head's class levels, times the factors k that `_ad_multisets`
    returns for a and the head.  For a in ubar the one head is a itself and
    T[k][0] = L B_k/k!; for a Levi element every head has one letter and
    T[k][1] = -L [k = 1], so D = -[u, a].  A reads a's levels that stay in
    p, weighted by T[k][k], the exponential alone; a in ubar has no A part.
    C reads a's levels too.  The trace form is invariant, (ad x y, z) =
    -(y, ad x z), so summed over the words of S, (W_{f_beta0}(S), a) =
    (-1)^|S| (f_beta0, W_a(S)), the e_beta0 coordinate of W_a(S) (`u_coords`),
    and C(beta0, S) = (-1)^|S| G[|S|] k_a (that coordinate).  Every letter
    has height >= 1, so only the levels below a's height reach u.  Only D
    sums: the words of different heads meet in one multiset.

    The sums run on integers over one denominator: a is written A/d with A
    integral (`scale_to_integers`), the series expands A, each coefficient
    is read as an int over the LCM L of `_series_table`, and each term's
    coefficient is one Fraction over L*d, built when the term is.
    """
    if a.n != pd.n:
        raise ValueError("rank mismatch")
    height = pd.height_of(a)
    if height is None:
        raise ValueError("series expansion needs a Sigma-homogeneous element")
    d, nums = scale_to_integers(a.entries.items())
    a_int = _raw(pd.n, dict(nums))
    den, tails, g = _series_table(2 * pd.depth_k + 2)
    den *= d  # every coefficient is over L * d
    ka, levels, heads = _ad_multisets(pd, a_int)
    terms = []
    if kind == "D":
        creator = pd.ubar_index
        acc: dict = {}
        for s1, v in heads:
            m = len(s1)
            kv, head_levels, _ = _ad_multisets(pd, v, m)
            k = -ka * kv
            for j, level in enumerate(head_levels):
                c = tails[m + j][m] * k
                if c == 0:
                    continue
                for s2, w in level:
                    word = tuple(sorted(s1 + s2))
                    for entry, x in w.entries.items():
                        alpha = creator.get(entry)
                        if alpha is None:
                            raise ValueError("element is not in ubar")
                        key = (word, alpha)
                        acc[key] = acc.get(key, 0) + c * x
        terms = [Term(Q(v, den), word, "create", alpha)
                 for (word, alpha), v in acc.items() if v]
    elif kind == "A":
        for i, level in enumerate(levels if height >= 0 else ()):
            c = tails[i][i] * ka
            for s, w in level:
                terms.extend(Term(Q(c * x, den), s, "levi", unit)
                             for unit, x in pd.decompose_p(w))
    elif kind == "C":
        # The scalar correction picked up when conjugating a mode series by
        # exp(ad u) is exactly this G-weighted pairing against d_z u; it is
        # assembled as the operator's central summand, never as a separate
        # operation.  The differentiated slot beta0 goes first among the
        # slots of its family.  By invariance (W_{f_beta0}(S), a) =
        # (-1)^|S| (f_beta0, W_a(S)); only the levels below a's height reach
        # u, and the clamp keeps a negative height from slicing from the end.
        for j, level in enumerate(levels[:max(height, 0)]):
            c = (-1) ** (j + 1) * g[j] * ka  # with the operator's minus sign
            for s, w in level:
                for beta0, x in pd.u_coords(w):
                    i = bisect_left(s, beta0)
                    terms.append(Term(Q(c * x, den), s[:i] + (beta0,) + s[i:],
                                      "central", mode_factor=i))
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    terms.sort(key=_term_sort_key)
    return terms


class Term:
    """One normal-ordered summand: annihilators (right) then a head (left).

    `annihilators` lists the variable family of each slot; slot modes are free
    summation variables.  `head` is a creator's alpha, a Levi head's element
    (in a canonical term a shared unit of `pd.algebra.basis`) or None for a
    central term.  `mode_factor` names the slot whose mode multiplies the
    coefficient (the differentiated slot of central terms).  A term holds no
    mode: at operator mode m a creator or Levi head acts at m plus the sum of
    all slot modes, and a central term requires the slot modes to sum to -m.
    Immutable by convention, compared and hashed field by field.
    """

    __slots__ = ("coeff", "annihilators", "head_kind", "head", "mode_factor")

    def __init__(self, coeff: Fraction, annihilators: tuple[int, ...],
                 head_kind: str,  # "create" | "levi" | "central"
                 head: int | LieElement | None = None, mode_factor: int | None = None):
        self.coeff = coeff
        self.annihilators = annihilators
        self.head_kind = head_kind
        self.head = head
        self.mode_factor = mode_factor

    def fields(self) -> tuple:
        """The constructor's arguments, in order."""
        return (self.coeff, self.annihilators, self.head_kind, self.head, self.mode_factor)

    def __eq__(self, other):
        return isinstance(other, Term) and self.fields() == other.fields()

    def __hash__(self):
        return hash(self.fields())

    def __repr__(self):
        return f"Term{self.fields()!r}"

    def render(self, mode: int) -> str:
        bits = [str(self.coeff)]
        if self.mode_factor is not None:
            bits.append(f"n{self.mode_factor}")
        bits.extend(f"x({a},n{i})" for i, a in enumerate(self.annihilators))
        if self.head_kind == "central":
            bits.append("kappa")
            return " * ".join(bits) + f" [sum n = {-mode}]"
        at = " + ".join([str(mode)] + [f"n{i}" for i in range(len(self.annihilators))])
        if self.head_kind == "create":
            bits.append(f"b({self.head}, {at})")
        else:
            bits.append(f"{unit_name(self.head)}({at})")
        return " * ".join(bits)


class NormalOrderedOperator:
    """pi(a_m): the mode-free terms of a's operator, at mode m.

    The terms do not depend on the mode, so `Realization.operator` passes one
    template's terms tuple to every mode, and the inducing module compiles
    that tuple once into the integer kernel `apply_operator` runs on
    (`InducingModule.kernel`, memoized per tuple).  Immutable by convention.
    """

    __slots__ = ("terms", "mode")

    def __init__(self, terms: tuple[Term, ...], mode: int):
        self.terms = terms
        self.mode = mode

    def __eq__(self, other):
        return (isinstance(other, NormalOrderedOperator)
                and self.terms == other.terms and self.mode == other.mode)

    def __hash__(self):
        return hash((self.terms, self.mode))

    def __repr__(self):
        return f"NormalOrderedOperator({self.terms!r}, {self.mode!r})"

    def render(self) -> str:
        return "\n".join(t.render(self.mode) for t in self.terms)

    def with_flipped_term(self, index: int) -> "NormalOrderedOperator":
        """Negative-control helper: negate one term's coefficient."""
        if not 0 <= index < len(self.terms):
            raise ValueError(f"term index {index} outside 0..{len(self.terms) - 1}")
        terms = list(self.terms)
        flip = terms[index]
        terms[index] = Term(-flip.coeff, *flip.fields()[1:])
        return NormalOrderedOperator(tuple(terms), self.mode)


def _canonical_terms(pd: ParabolicData, raw: list[Term]) -> tuple[Term, ...]:
    """Canonical form of a list of raw terms, for the closed-form engine.

    Each term's slots are sorted by family, the mode-factor slot first among
    slots of one family, and a Levi head is split into the shared basis units
    of `decompose_p`.  Every piece is summed with `add_to` under the key
    (sorted slots, head kind, head, mode-factor slot), which lists the fields
    of `Term` after its coefficient, so pieces that cancel vanish, and the
    surviving terms come in `_term_sort_key` order.
    """
    merged: dict[tuple, Fraction] = {}
    for t in raw:
        order = sorted(range(len(t.annihilators)),
                       key=lambda s: (t.annihilators[s], s != t.mode_factor, s))
        annih = tuple(t.annihilators[s] for s in order)
        mf = None if t.mode_factor is None else order.index(t.mode_factor)
        if t.head_kind == "levi":
            for unit, c in pd.decompose_p(t.head):
                add_to(merged, (annih, "levi", unit, mf), t.coeff * c)
        else:
            add_to(merged, (annih, t.head_kind, t.head, mf), t.coeff)
    return tuple(sorted((Term(c, *key) for key, c in merged.items()), key=_term_sort_key))


_HEAD_RANK = {"create": 0, "levi": 1, "central": 2}


def _term_sort_key(t: Term):
    """The canonical order of an operator's terms: slot count, head kind,
    head (a creator's alpha, a Levi unit's lead entry), slots, mode-factor slot."""
    head = min(t.head.entries) if t.head_kind == "levi" else t.head
    return (len(t.annihilators), _HEAD_RANK[t.head_kind], -1 if head is None else head,
            t.annihilators, -1 if t.mode_factor is None else t.mode_factor)


def build_operator_general(pd: ParabolicData, a: LieElement, m: int,
                           ) -> NormalOrderedOperator:
    """Assemble pi(a_m) from the exponential-adjoint series: the D, A and C
    terms of `series_expand`, whose head kinds differ, so no two merge.

    Each kind comes in `_term_sort_key` order, which ranks slot count first
    and head kind second, so a stable sort of D + A + C by slot count alone
    puts all the terms in that order."""
    terms = series_expand(pd, a, "D") + series_expand(pd, a, "A") + series_expand(pd, a, "C")
    terms.sort(key=lambda t: len(t.annihilators))
    return NormalOrderedOperator(tuple(terms), m)


def check_engine(pd: ParabolicData, engine: str):
    """Raise ValueError unless `engine` names an engine that serves pd."""
    if engine not in ("general", "explicit"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "explicit" and pd.depth_k != 1:
        raise ValueError("closed-form engine needs a maximal parabolic")


def build_operator_explicit_sl(pd: ParabolicData, a: LieElement, m: int,
                               ) -> NormalOrderedOperator:
    """Transcribe the closed generator formulas of a maximal parabolic.

    Its nilradical is abelian and its big cell is the Grassmannian chart
    Z -> span(I; Z): Z's entry (j, i), j in the bottom Levi block and i in
    the top one, is the slot of f_alpha = E_ji.  With a = (A B; C D) in the
    two blocks, pi(a) is the creators -b . (C + DZ - ZA - ZBZ), the vector
    field of Z -> (C + DZ)(A + BZ)^-1, the Levi and p heads
    (A + BZ, B; 0, D - ZB), and the central term -tr(B dZ) kappa.
    """
    check_engine(pd, "explicit")
    if pd.height_of(a) is None:
        raise ValueError("closed-form engine needs a Sigma-homogeneous element")
    top, bot = pd.blocks
    slot = pd.ubar_index
    raw: list[Term] = []
    heads: dict[int, dict] = {}  # the Levi head of each slot, from BZ and -ZB
    for (p, q), c in a.entries.items():
        if p in bot and q in top:  # C
            raw.append(Term(-c, (), "create", slot[p, q]))
        elif p in bot:  # DZ
            raw += [Term(-c, (slot[q, i],), "create", slot[p, i]) for i in top]
        elif q in top:  # ZA
            raw += [Term(c, (slot[j, p],), "create", slot[j, q]) for j in bot]
        else:  # B: ZBZ, BZ, ZB and tr(B dZ)
            raw += [Term(c, (slot[j, p], slot[q, i]), "create", slot[j, i])
                    for j in bot for i in top]
            for i in top:
                heads.setdefault(slot[q, i], {})[p, i] = c
            for j in bot:
                heads.setdefault(slot[j, p], {})[j, q] = -c
            raw.append(Term(-c, (slot[q, p],), "central", mode_factor=0))
    raw.append(Term(Q(1), (), "levi", pd.project(a, "p")))
    raw += [Term(Q(1), (s,), "levi", _raw(pd.n, e)) for s, e in heads.items()]
    return NormalOrderedOperator(_canonical_terms(pd, raw), m)


# --- applying operators to states ------------------------------------------------

def apply_operator(op: NormalOrderedOperator, state: FockState, module,
                   ) -> FockState:
    """Evaluate a normal-ordered operator on a state, exactly and finitely.

    For each state monomial, annihilator slots are matched against the
    variables actually present (ordered assignments, each contributing a
    factor of minus the running exponent; see `mono_matches`).  The head then
    acts at the operator's mode m plus the slot-mode sum: create a variable,
    or act on the V-factor through the inducing module; a central term keeps
    only the assignments whose slot modes sum to -m and scales by the level.
    The state is interned in the module's `MonomialTable`, which lives as
    long as the module, so its matches and creator products are computed once
    per module; a caller that applies batches of unrelated states empties it
    between batches with `module.monomials.clear()`.
    Contributions are summed as integers over the operator's, the state's and
    the heads' common denominators (`_apply_scaled`), and divided once at the
    end, when the ids are read back in output order.
    """
    table = module.monomials
    return table.unscaled(*_apply_scaled(op, table.scaled(state), module))


def _apply_scaled(op: NormalOrderedOperator, scaled: tuple, module) -> tuple:
    """`apply_operator` on integers keyed by (monomial id, v) in the module's
    `MonomialTable`: (S, items) to (D * S * M, items) in its order, D the
    operator's LCM and M the running LCM of the head denominators (Levi
    `act_scaled`, central the level's); a new denominator grows M and every
    output value in place, keeping key order and zero sums.  It runs the
    module's `kernel` of the operator's terms, their integers over D without
    the terms that act by zero on V, and a creator head adds its value
    directly, its denominator being 1.  Slot matches and creator products are
    read from the table, and computed only on a miss."""
    denom, families, terms = module.kernel(op.terms)
    table = module.monomials
    matched, match = table.matches, table.match
    times, mul_var = table.times, table.mul_var
    mode = op.mode
    knum, kden = module.level.numerator, module.level.denominator
    scale, items = scaled
    lcm_m = 1
    out: dict = {}
    for (mid, vidx), cnum in items:
        found: list = [None] * len(families)
        for fi, num, kind, head, mode_factor in terms:
            central = kind == "central"
            matches = found[fi]
            if matches is None:
                matches = matched.get((families[fi], mid))
                if matches is None:
                    matches = match(families[fi], mid)
                found[fi] = matches
            for mult, modes, msum, rem in matches:
                if central and msum != -mode:
                    continue
                if mode_factor is not None:
                    mult *= modes[mode_factor]
                    if not mult:
                        continue
                if kind == "create":
                    created = times.get((rem, head, mode + msum))
                    if created is None:
                        created = mul_var(rem, head, mode + msum)
                    key = (created, vidx)
                    s = out.get(key, 0) + num * mult * cnum * lcm_m
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
                    continue
                if central:
                    den, vecs = kden, ((vidx, knum),)
                else:
                    den, vecs = module.act_scaled(head, mode + msum, vidx)
                if lcm_m % den:
                    grow = den // gcd(lcm_m, den)
                    lcm_m *= grow
                    for key in out:
                        out[key] *= grow
                f = num * mult * cnum * (lcm_m // den)
                for w, d in vecs:
                    key = (rem, w)
                    s = out.get(key, 0) + f * d
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return denom * scale * lcm_m, out.items()


# --- the realization ----------------------------------------------------------------

class Realization:
    """pi for a fixed parabolic, inducing module and engine, with caching.

    Operator terms depend only on (element, parabolic, engine), so each
    element's operator is built once, at the first mode asked for, and kept as
    its template; pi(a_m) is that template at mode m.  The caches are
    value-immutable memo tables, so duplicate construction under concurrency
    would be harmless.  `operator_hook(a, m, op)` post-processes each (a, m)
    operator and is meant for negative controls; it must be a pure function of
    its arguments, because its result is cached per (a, m) like any other
    operator, while the template stays unhooked.
    """

    def __init__(self, pd: ParabolicData, module, engine: str = "general",
                 operator_hook=None):
        if module.pd != pd:
            raise ValueError("module was built for a different parabolic")
        check_engine(pd, engine)
        self.pd = pd
        self.module = module
        self.engine = engine
        self.operator_hook = operator_hook
        self._templates: dict[LieElement, NormalOrderedOperator] = {}
        self._cache: dict[tuple[LieElement, int], NormalOrderedOperator] = {}

    def operator(self, a: LieElement, m: int) -> NormalOrderedOperator:
        key = (a, m)
        op = self._cache.get(key)
        if op is not None:
            return op
        template = self._templates.get(a)
        if template is None:
            if self.engine == "general":
                template = build_operator_general(self.pd, a, m)
            else:
                template = build_operator_explicit_sl(self.pd, a, m)
            self._templates[a] = template
        op = NormalOrderedOperator(template.terms, m)
        if self.operator_hook is not None:
            op = self.operator_hook(a, m, op)
        self._cache[key] = op
        return op

    def act(self, a, m: int, state: FockState) -> FockState:
        """pi(a_m) state; the central sentinel acts by the level.  The state's
        monomials stay interned in the module's `MonomialTable` for the
        module's life; `module.monomials.clear()` empties it between batches."""
        if a is CENTRAL:
            return state.scale(self.module.level)
        if a.is_zero():
            return FockState.zero()
        return apply_operator(self.operator(a, m), state, self.module)


def slot_reach(states) -> int:
    """mu, the largest sum of |n| * e over the monomials b(alpha, n)^e of states.
    A head acts at its operator's mode plus the modes of the variables it removes,
    and a created variable takes that mode, so k operators of |mode| <= M applied in
    turn need the module in |mode| <= k * M + mu: 2 * max_mode + mu in `bracket_sweep`."""
    return max((sum(abs(n) * e for _, n, e in mono)
                for s in states for mono, _ in s.terms), default=0)


def bracket_sweep(real: Realization, max_mode: int, states, on_check=None):
    """Full homomorphism sweep over ordered homogeneous basis pairs.

    Checks pi([a_m, b_n]) = [pi(a_m), pi(b_n)] on every state for all modes
    |m|, |n| <= max_mode.  Actions of basis elements on the input states are
    hoisted out of the loops, and bracket values are resolved through their
    basis coordinates.

    Every state has one form, integers over a common denominator S keyed by
    (monomial id, v) in the module's `MonomialTable`: the hoisted actions and
    the input states are converted and interned once, and each product
    X = pi(a_m) pi(b_n) s or Y = pi(b_n) pi(a_m) s is applied to those
    numerators by `_apply_scaled`.  A residual scales every part by
    L / (S * den(c)), L being the LCM of those products over its parts, and
    divides by L and reads the ids back only for the reported failure.  Parts
    are added in the order x, -y, -[a,b] s by basis position, central term,
    and a key whose sum reaches zero is deleted, so witness values and key
    order are those of Fraction accumulation.

    One pass visits the cells (a, b, m, n) in report order: ordered basis
    pairs in row order, then modes.  The mirror of a cell is (b, a, n, m), and
    of the two the one met first applies X and Y once per state (Y is X when
    the cell is its own mirror, (a, m) = (b, n)) and tests its residual.
    With the same X and Y the later one's residual,
    y - x - [b,a]_{m+n} s - n (b,a) delta_{m+n,0} kappa s, is exactly the
    negative of the first one's, because g's bracket coordinates and the
    central cocycle are antisymmetric.  The sweep ends at its first failing
    check, so when the later one is reached the first one has passed on every
    state, and the later one reports a pass on every state with no product
    and no residual.  Both identities are checked with an explicit raise,
    which `python -O` keeps: `btab[j][i]` must be the negation of `btab[i][j]`
    when the table is built, and at level != 0 and m = -n each computed cell
    also computes its mirror's central coefficient, which must be the
    negation of its own.

    Reporting (on_check, the check count and the first failure) follows
    (a, b, m, n, state) nested in basis and mode order, and stops at the
    first failing check, so no product is applied after that check's cell.
    Returns (checks_done, failure), failure being None or a dict with the
    witness residual of the first failing check in that order.

    The module's `MonomialTable` is emptied when the sweep returns or raises,
    so a long-lived process keeps none of its entries.
    """
    table = real.module.monomials
    try:
        pd = real.pd
        module = real.module
        basis = pd.homogeneous_basis
        kappa = module.level
        wide = 2 * max_mode
        modes = range(-max_mode, max_mode + 1)

        P = [[[table.scaled(real.act(elem, m, s)) for s in states]
              for m in range(-wide, wide + 1)]
             for _name, elem, _h in basis]
        inputs = [table.scaled(s) for s in states]

        # minus the basis coordinates of each bracket [a, b], by basis position
        alg = pd.algebra
        btab = [[tuple((k, -c) for k, c in alg.coords(bracket(a, b))) for b in alg.basis]
                for a in alg.basis]
        for i, row in enumerate(btab):
            for j in range(i + 1):
                if btab[j][i] != tuple((k, -c) for k, c in row[j]):
                    x, y = alg.names[i], alg.names[j]
                    raise AssertionError(f"the bracket coordinates of ({x}, {y}) and "
                                         f"({y}, {x}) are not opposite")

        def residual(x, y, coords, p, si, central):
            """x - y - [a,b]_{m+n} s - central s as (L, items), or None when zero."""
            parts = [(x, 1), (y, -1)]
            parts.extend((P[k][p][si], c) for k, c in coords)
            if central:
                parts.append((inputs[si], central))
            common = lcm(*[scale * c.denominator for (scale, _), c in parts])
            acc: dict = {}
            for (scale, items), c in parts:
                f = c.numerator * (common // (scale * c.denominator))
                for key, v in items:
                    t = acc.get(key, 0) + v * f
                    if t:
                        acc[key] = t
                    else:
                        del acc[key]
            if not acc:
                return None
            return common, acc.items()

        checks = 0
        passes = [None] * len(states)
        for i, (aname, a, _) in enumerate(basis):
            for j, (bname, b, _) in enumerate(basis):
                for m in modes:
                    for n in modes:
                        if j < i or (j == i and n < m):  # the mirror came first
                            row = passes
                        else:
                            own = (i, m) == (j, n)
                            central = 0
                            if kappa != 0 and m == -n:
                                c = central_coeff(a, b, m, n)
                                if central_coeff(b, a, n, m) != -c:
                                    raise AssertionError(
                                        f"the central terms of ({aname}, {bname}, {m}, {n})"
                                        f" and its mirror are not opposite")
                                central = -c * kappa
                            op_a, pa = real.operator(a, m), P[i][m + wide]
                            op_b, pb = real.operator(b, n), P[j][n + wide]
                            p = m + n + wide
                            row = []
                            for si in range(len(states)):
                                x = _apply_scaled(op_a, pb[si], module)
                                y = x if own else _apply_scaled(op_b, pa[si], module)
                                row.append(residual(x, y, btab[i][j], p, si, central))
                        for si, res in enumerate(row):
                            checks += 1
                            if on_check is not None:
                                on_check(aname, bname, m, n, si, res is None)
                            if res is not None:
                                return checks, {"a": aname, "b": bname, "m": m, "n": n,
                                                "state": si, "residual": table.unscaled(*res)}
        return checks, None
    finally:
        table.clear()
