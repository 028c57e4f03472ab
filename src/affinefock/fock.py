"""Polynomial Fock states tensored with an inducing module.

States live in the symmetric algebra on creation variables b(alpha, n), one
family per root alpha of the nilradical enumeration and one variable per
integer mode n, tensored with vectors of an inducing module V.  A state is a
finite exact-rational combination of (monomial, V-basis-index) pairs.

Sign convention (normative for the whole package): the creation operator for
(alpha, n) is multiplication by b(alpha, n), and the matching annihilation
operator acts as minus the partial derivative, so that

    [annihilate(alpha, n), create(beta, m)] = -delta_{alpha beta} delta_{nm} id.

Monomials are stored canonically as tuples of (alpha, mode, exponent) sorted
by (alpha, mode), which makes serialization bit-exact.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from typing import Iterable

from .lie import LieElement, ParabolicData, add_to, as_scalar, scale_to_integers

Q = Fraction

#: canonical monomial: sorted tuple of (alpha_index, mode, exponent>=1)
Monomial = tuple

EMPTY_MONOMIAL: Monomial = ()

#: an index as configs, flags and state files write it: ASCII digits (`int` also
#: reads other scripts' digits), few enough to refuse a longer string unconverted
INDEX = "[0-9]{1,9}"


def int_triples(obj) -> list[tuple[int, int, int]]:
    """A JSON list of [int, int, int] triples, as tuples; TypeError otherwise."""
    if not isinstance(obj, list) or not all(
            isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)
            for t in obj):
        raise TypeError(f"expected a list of integer triples, got {obj!r}")
    return [tuple(t) for t in obj]


def mono_from_pairs(pairs: Iterable[tuple[int, int, int]]) -> Monomial:
    acc: dict[tuple[int, int], int] = {}
    for alpha, mode, exp in pairs:
        if exp < 0:
            raise ValueError("exponents must be nonnegative")
        if exp:
            acc[(alpha, mode)] = acc.get((alpha, mode), 0) + exp
    return tuple(sorted((a, n, e) for (a, n), e in acc.items()))


def mono_mode_sum(mono: Monomial) -> int:
    return sum(n * e for _, n, e in mono)


def mono_mul_var(mono: Monomial, alpha: int, mode: int) -> Monomial:
    """mono * b(alpha, mode), bumping or inserting at its sorted position."""
    idx = bisect_left(mono, (alpha, mode))
    if idx < len(mono) and mono[idx][:2] == (alpha, mode):
        return mono[:idx] + ((alpha, mode, mono[idx][2] + 1),) + mono[idx + 1:]
    return mono[:idx] + ((alpha, mode, 1),) + mono[idx:]


def mono_matches(families: tuple[int, ...], mono: Monomial) -> tuple[tuple, ...]:
    """Ordered assignments of annihilator slots to the variables of `mono`.

    Slot i runs over the positions of family `families[i]` in monomial order,
    so the assignments come in the order of nested loops over the slots.  Each
    slot contributes minus the exponent it finds, which it then lowers by one.
    Returns (multiplicity, slot modes, mode sum, remaining monomial) tuples.
    A pure function of its arguments; `MonomialTable.match` memoizes it.
    """
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


class MonomialTable:
    """Monomials interned as small ints, with the products the apply kernel
    asks for memoized by id.

    `monos[i]` is the monomial of id i and `ids` the inverse map; ids count up
    from 0 in order of first interning and are stable until `clear`.
    `times[(i, alpha, mode)]` is the id of `mono_mul_var(monos[i], alpha,
    mode)`, and `matches[(families, i)]` is `mono_matches(families, monos[i])`
    with each remaining monomial replaced by its id.  Both fill on a miss
    (`mul_var`, `match`), so the kernel hashes pairs of ints, not nested
    tuples, and computes each distinct product once.  Each inducing module
    owns one table (`InducingModule.monomials`); it grows with the distinct
    monomials the module's states reach, and `realization.bracket_sweep`
    empties it when it returns.  The Cartan Fock module keeps its V-basis in
    a second table (`HeisenbergFockModule.vbasis`), which nothing empties.
    """

    __slots__ = ("ids", "monos", "times", "matches")

    def __init__(self):
        self.ids: dict[Monomial, int] = {}
        self.monos: list[Monomial] = []
        self.times: dict[tuple[int, int, int], int] = {}
        self.matches: dict[tuple[tuple[int, ...], int], tuple] = {}

    def clear(self) -> None:
        """Forget every monomial; ids handed out before are void."""
        self.ids.clear()
        self.monos.clear()
        self.times.clear()
        self.matches.clear()

    def intern(self, mono: Monomial) -> int:
        i = self.ids.get(mono)
        if i is None:
            i = self.ids[mono] = len(self.monos)
            self.monos.append(mono)
        return i

    def mul_var(self, i: int, alpha: int, mode: int) -> int:
        """The id of monos[i] * b(alpha, mode), through `times`."""
        key = (i, alpha, mode)
        j = self.times.get(key)
        if j is None:
            j = self.times[key] = self.intern(mono_mul_var(self.monos[i], alpha, mode))
        return j

    def match(self, families: tuple[int, ...], i: int) -> tuple:
        """`mono_matches(families, monos[i])` with remaining monomials as ids."""
        key = (families, i)
        hit = self.matches.get(key)
        if hit is None:
            hit = self.matches[key] = tuple(
                (mult, modes, msum, self.intern(rem))
                for mult, modes, msum, rem in mono_matches(families, self.monos[i]))
        return hit

    def scaled(self, state: "FockState") -> tuple[int, list]:
        """A state as integers over one denominator, keyed by (monomial id, v):
        (S, [((id, v), S * coeff), ...]) in term order."""
        scale, items = scale_to_integers(state.terms.items())
        intern = self.intern
        return scale, [((intern(mono), v), num) for (mono, v), num in items]

    def unscaled(self, total: int, items) -> "FockState":
        """Inverse of `scaled`: integers over total, keyed by id, as a state
        in item order; the items hold no zero."""
        monos = self.monos
        return FockState.of({(monos[i], v): Q(num, total) for (i, v), num in items})


def mono_d_var(mono: Monomial, alpha: int, mode: int) -> tuple[int, Monomial] | None:
    """Partial derivative data: (old exponent, reduced monomial), or None."""
    for idx, (a, n, e) in enumerate(mono):
        if (a, n) == (alpha, mode):
            if e == 1:
                return e, mono[:idx] + mono[idx + 1:]
            return e, mono[:idx] + ((a, n, e - 1),) + mono[idx + 1:]
    return None


class FockState:
    """Exact linear combination of monomial (x) V-basis-vector terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[Monomial, int], Fraction] | None = None):
        self.terms: dict[tuple[Monomial, int], Fraction] = {}
        for key, c in (terms or {}).items():
            c = as_scalar(c)
            if c != 0:
                self.terms[key] = c

    @classmethod
    def of(cls, terms: dict[tuple[Monomial, int], Fraction]) -> "FockState":
        """Wrap a dict that holds no zero coefficient, without copying it."""
        st = cls.__new__(cls)
        st.terms = terms
        return st

    @classmethod
    def vacuum(cls, v_index: int = 0) -> "FockState":
        return cls({(EMPTY_MONOMIAL, v_index): Q(1)})

    @classmethod
    def zero(cls) -> "FockState":
        return cls({})

    def __eq__(self, other):
        return isinstance(other, FockState) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "FockState(0)"
        bits = []
        for (mono, v), c in sorted(self.terms.items()):
            vars_ = "".join(f"b({a},{n})^{e}" if e > 1 else f"b({a},{n})"
                            for a, n, e in mono) or "1"
            bits.append(f"{c}*{vars_}|v{v}>")
        return "FockState(" + " + ".join(bits) + ")"

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FockState") -> "FockState":
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_to(out, key, c)
        return FockState.of(out)

    def __neg__(self) -> "FockState":
        return FockState.of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "FockState":
        c = as_scalar(c)
        if c == 0:
            return FockState.zero()
        return FockState.of({k: c * v for k, v in self.terms.items()})


def mono_weight(pd: ParabolicData, mono: tuple, h: LieElement) -> Fraction:
    """h-weight of a monomial: each variable b(alpha, n) shifts it by -alpha(h)."""
    return -sum((e * pd.delta_u[a].value_on(h) for a, _n, e in mono), Q(0))


# --- serialization ----------------------------------------------------------

def state_to_obj(state: FockState, module=None) -> dict:
    """Canonical JSON-ready form; bit-exact for round-tripping.

    Modules with a registry-backed basis (graded-infinite V) contribute a
    `vbasis` table describing every referenced index.
    """
    records = []
    for (mono, v), c in sorted(state.terms.items()):
        records.append({
            "coeff": str(c),
            "monomial": [[a, n, e] for a, n, e in mono],
            "v": v,
        })
    obj: dict = {"terms": records}
    if module is not None and getattr(module, "needs_vbasis", False):
        used = sorted({v for _, v in state.terms})
        obj["vbasis"] = {str(v): module.v_to_obj(v) for v in used}
    return obj


def state_from_obj(obj: dict, module=None) -> FockState:
    """Inverse of `state_to_obj`.  A malformed object raises TypeError or
    KeyError; one that does not fit the module raises ValueError."""
    if not isinstance(obj, dict):
        raise TypeError(f"a state is a JSON object, got {obj!r}")
    remap: dict[int, int] = {}
    if module is not None and getattr(module, "needs_vbasis", False):
        vbasis = obj.get("vbasis") or {}
        if not isinstance(vbasis, dict):
            raise TypeError(f"vbasis must be a JSON object, got {vbasis!r}")
        for key, desc in vbasis.items():
            if not re.fullmatch(INDEX, key):
                raise TypeError(f"vbasis key {key!r} is not a vector index")
            remap[int(key)] = module.v_from_obj(desc)
    terms: dict = {}
    for rec in obj.get("terms", []):
        triples = int_triples(rec["monomial"])
        if any(e < 1 for _a, _n, e in triples):
            raise ValueError(f"monomial exponents must be >= 1, got {rec['monomial']!r}")
        mono = mono_from_pairs(triples)
        v = rec["v"]
        if type(v) is not int:
            raise TypeError(f"vector index must be an integer, got {v!r}")
        v = remap.get(v, v)
        if module is not None:
            module.check_v_index(v)
            for a, _n, _e in mono:
                if not 0 <= a < module.pd.num_alpha:
                    raise ValueError(f"variable family {a} outside the "
                                     f"nilradical enumeration")
        try:
            coeff = as_scalar(rec["coeff"])
        except (ValueError, ZeroDivisionError) as exc:
            raise TypeError(f"bad coefficient {rec['coeff']!r}") from exc
        key = (mono, v)
        terms[key] = terms.get(key, Q(0)) + coeff
    return FockState(terms)


def canonical_json(obj) -> str:
    """Sorted keys, compact separators: the encoding of states and records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def state_to_text(state: FockState, module=None) -> str:
    return canonical_json(state_to_obj(state, module)) + "\n"
