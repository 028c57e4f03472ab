"""Exact finite-dimensional Lie theory for sl(n+1) over the rationals.

Everything here is bit-exact: matrix entries, structure constants and form
values are `fractions.Fraction` (or, inside the series recursion, Python
ints); no floating point enters anywhere in the package.  The module
provides the traceless-matrix element type, the canonical basis and roots of
type A_n, the trace form, parabolic decompositions with their Sigma-height
grading, and the affine bracket as the package checks it: the central
coefficient of [a_m, b_n] and the bracket relation's residual on one vector
of a representation.

Conventions
-----------
* Matrix indices are 1-based, matching the root labels eps_i - eps_j.
* The root vector attached to a positive root eps_i - eps_j (i < j) on the
  *opposite* side is the matrix unit E_{ji}; no Chevalley sign normalisation
  is imposed, signs are whatever matrix commutators give.
* The invariant form is the trace form (a, b) = tr(ab), which is the form
  normalised by (theta, theta) = 2 for sl(n+1).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, permutations
from math import lcm
from typing import Iterable, Mapping

Q = Fraction

#: largest supported rank; (n+1)^2 - 1 basis elements stay manageable below this.
MAX_RANK = 12


def check_rank(n) -> None:
    """Raise ValueError unless n is an int in 1..MAX_RANK.  A bool is refused:
    True == 1, so it would pass for rank 1 and find that rank's cache entries."""
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank must be an integer in 1..{MAX_RANK}, got {n!r}")


def as_scalar(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact scalar; bools
    and floats are rejected.

    A string must read `-?[0-9]+(/[0-9]+)?`, which is what `str(Fraction)`
    writes: decimals and exponents raise ValueError, so that "1.5" is never
    taken silently and "1e100000000" is never expanded."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x):
            raise ValueError(f"not a 'p/q' rational: {x!r}")
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def add_to(acc: dict, key, c) -> None:
    """acc[key] += c on a sparse dict, dropping the key when the sum is zero.
    An absent key stores c itself, which keeps its type, as 0 + c would."""
    s = acc.get(key)
    if s is None:
        if c:
            acc[key] = c
        return
    s += c
    if s:
        acc[key] = s
    else:
        del acc[key]


def scale_to_integers(pairs) -> tuple[int, list]:
    """(L, [(key, L * c)]) for (key, exact scalar) pairs, L the LCM of their
    denominators, so every L * c is an integer; the pairs keep their order."""
    den = lcm(*[c.denominator for _, c in pairs])
    return den, [(k, c.numerator * (den // c.denominator)) for k, c in pairs]


class LieElement:
    """A traceless (n+1)x(n+1) matrix with sparse exact entries.

    Immutable; safe to hash, share and use as a cache key.  The constructor
    coerces every entry to a Fraction, but elements that the adjoint series
    builds with `_raw` (`realization._ad_multisets`, `ParabolicData.project`)
    may hold int entries.  Such an element hashes and compares equal to its
    Fraction twin, since an int and the equal Fraction share numerator,
    denominator and hash.
    """

    __slots__ = ("n", "entries", "_hash")

    def __init__(self, n: int, entries: Mapping[tuple[int, int], Fraction] | None = None):
        check_rank(n)
        clean: dict[tuple[int, int], Fraction] = {}
        size = n + 1
        trace = Fraction(0)
        for (i, j), c in (entries or {}).items():
            if not (1 <= i <= size and 1 <= j <= size):
                raise ValueError(f"index ({i},{j}) outside 1..{size}")
            c = as_scalar(c)
            if c == 0:
                continue
            clean[(i, j)] = c
            if i == j:
                trace += c
        if trace != 0:
            raise ValueError(f"matrix has nonzero trace {trace}")
        self.n = n
        self.entries = clean
        self._hash = None

    # -- value semantics -------------------------------------------------

    def key(self) -> tuple:
        return tuple(sorted((i, j, c.numerator, c.denominator)
                            for (i, j), c in self.entries.items()))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.key()))
        return self._hash

    def __eq__(self, other):
        return (isinstance(other, LieElement)
                and self.n == other.n and self.entries == other.entries)

    def __repr__(self):
        if not self.entries:
            return f"LieElement(sl({self.n + 1}), 0)"
        body = " + ".join(f"{c}*E{i}.{j}" for (i, j), c in sorted(self.entries.items()))
        return f"LieElement(sl({self.n + 1}), {body})"

    # -- arithmetic -------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check_rank(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            add_to(out, k, c)
        return _raw(self.n, out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def __neg__(self) -> "LieElement":
        return _raw(self.n, {k: -c for k, c in self.entries.items()})

    def scale(self, c) -> "LieElement":
        c = as_scalar(c)
        if c == 0:
            return _raw(self.n, {})
        return _raw(self.n, {k: c * v for k, v in self.entries.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def _check_rank(self, other: "LieElement"):
        if self.n != other.n:
            raise ValueError(f"rank mismatch: sl({self.n + 1}) vs sl({other.n + 1})")

    def matmul_entries(self, other: "LieElement") -> dict[tuple[int, int], Fraction]:
        """Sparse matrix product a*b as a raw entry dict (not traceless)."""
        self._check_rank(other)
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, j), c in other.entries.items():
            by_row.setdefault(i, []).append((j, c))
        out: dict[tuple[int, int], Fraction] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                add_to(out, (i, j), a * b)
        return out


def _raw(n: int, entries: dict) -> LieElement:
    """Internal constructor skipping validation (entries already clean)."""
    el = LieElement.__new__(LieElement)
    el.n = n
    el.entries = entries
    el._hash = None
    return el


def zero(n: int) -> LieElement:
    return LieElement(n, {})


def matrix_unit(n: int, i: int, j: int) -> LieElement:
    """E_{ij} for i != j (off-diagonal units are traceless).

    Shared: every call with the same arguments returns the same object, so
    caches keyed by Levi units find their entries by identity.  The rank is
    checked before the cache is read, as in `build_sl`."""
    check_rank(n)
    return _matrix_unit(n, i, j)


@cache
def _matrix_unit(n: int, i: int, j: int) -> LieElement:
    if i == j:
        raise ValueError("diagonal matrix units are not traceless; use diag_element")
    return LieElement(n, {(i, j): Fraction(1)})


def diag_element(n: int, values: Iterable) -> LieElement:
    vals = [as_scalar(v) for v in values]
    if len(vals) != n + 1:
        raise ValueError(f"need {n + 1} diagonal values")
    return LieElement(n, {(i + 1, i + 1): v for i, v in enumerate(vals) if v != 0})


def cartan_h(n: int, i: int) -> LieElement:
    """Simple coroot H_i = E_{ii} - E_{i+1,i+1}, shared like `matrix_unit`."""
    if not 1 <= i <= n:
        raise ValueError(f"Cartan index {i} outside 1..{n}")
    return build_sl(n).basis[i - 1]


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Matrix commutator [a, b] = ab - ba."""
    a._check_rank(b)
    out = a.matmul_entries(b)
    for k, c in b.matmul_entries(a).items():
        add_to(out, k, -c)
    return _raw(a.n, out)


def form(a: LieElement, b: LieElement) -> Fraction:
    """Trace form (a, b) = tr(ab); normalised so the highest root has norm 2."""
    a._check_rank(b)
    total = Fraction(0)
    for (i, j), c in a.entries.items():
        d = b.entries.get((j, i))
        if d is not None:
            total += c * d
    return total


class Root:
    """The root eps_i - eps_j of sl(n+1); positive iff i < j.  Immutable by
    convention, compared and hashed by value."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        if i == j:
            raise ValueError("a root needs i != j")
        self.i = i
        self.j = j

    def __eq__(self, other):
        return isinstance(other, Root) and self.i == other.i and self.j == other.j

    def __hash__(self):
        return hash((self.i, self.j))

    def value_on(self, h: LieElement) -> Fraction:
        """alpha(h) for diagonal h."""
        return h.entry(self.i, self.i) - h.entry(self.j, self.j)

    def __repr__(self):
        return f"Root({self.i},{self.j})"


def unit_name(u: LieElement) -> str:
    """A basis unit's name from its lead entry (i, j) = min(u.entries): `Hi`
    if i == j, else `Ei.j`.  Lead entries order units as `LieElement.key` does."""
    i, j = min(u.entries)
    return f"H{i}" if i == j else f"E{i}.{j}"


class SimpleAlgebra:
    """sl(n+1) with its canonical basis: H_1..H_n, then E_ij (i != j) by (i, j).

    Built once per rank (`build_sl`), so every list of basis elements shares
    these objects, and the one reader of coordinates over that basis
    (`coords`), which reads them by basis position."""

    __slots__ = ("n", "names", "basis", "unit_index")

    def __init__(self, n: int):
        elems = [LieElement(n, {(i, i): Fraction(1), (i + 1, i + 1): Fraction(-1)})
                 for i in range(1, n + 1)]
        unit_index = {}
        for i, j in permutations(range(1, n + 2), 2):
            unit_index[(i, j)] = len(elems)
            elems.append(matrix_unit(n, i, j))
        self.n = n
        self.names: tuple[str, ...] = tuple(map(unit_name, elems))
        self.basis: tuple[LieElement, ...] = tuple(elems)
        self.unit_index = unit_index

    def coords(self, a: LieElement) -> list[tuple[int, Fraction]]:
        """Nonzero coordinates of a as (basis position, coefficient) pairs in
        basis order: the Cartan part from `cartan_coords`, then each matrix
        unit from its entry."""
        out = [(k, c) for k, c in enumerate(cartan_coords(a)) if c]
        out.extend((self.unit_index[p], c) for p, c in sorted(a.entries.items())
                   if p[0] != p[1])
        return out


_sl = cache(SimpleAlgebra)  # one per rank


def build_sl(n: int) -> SimpleAlgebra:
    """sl(n+1), built once per rank and shared.  The rank is checked before
    the cache is read, since a bool would hit the entry of the equal int."""
    check_rank(n)
    return _sl(n)


def cartan_coords(a: LieElement) -> tuple[Fraction, ...]:
    """Coordinates over H_1..H_n of the diagonal of a: diag(d_1..d_{n+1})
    with zero sum equals sum_i (d_1 + ... + d_i) H_i.  A missing entry reads
    as int 0, so an int-entry a (as the adjoint series builds) has int
    coordinates."""
    return tuple(accumulate(a.entries.get((i, i), 0) for i in range(1, a.n + 1)))


def levi_blocks(pd: ParabolicData) -> list[list[int]]:
    """Maximal runs of indices 1..n+1 glued by the simple roots in Sigma."""
    blocks: list[list[int]] = [[1]]
    for i in range(1, pd.n + 1):
        if i in pd.sigma:
            blocks[-1].append(i + 1)
        else:
            blocks.append([i + 1])
    return blocks


class ParabolicData:
    """A standard parabolic of sl(n+1) cut out by a set Sigma of simple roots.

    Every fact derives from the Levi block partition `blocks` (`levi_blocks`):
    with b(i) the block of index i, entry (i, j) has Sigma-height b(j) - b(i).
    Its sign gives g = ubar + l + u; Delta(u) is the pairs i < j with
    b(i) < b(j), ordered by (height, i, j), with matched bases {f_alpha} of
    ubar and {e_alpha} of u; and the Levi center z(l) is the diagonal
    constant on every block.  `algebra` (`build_sl`) reads every coordinate;
    `cartan`, `levi_basis` (at `levi_positions`) and `homogeneous_basis` hold
    its basis elements.
    """

    def __init__(self, n: int, sigma: Iterable[int] = ()):
        check_rank(n)
        sig = frozenset(sigma)
        for s in sig:
            if isinstance(s, bool) or not isinstance(s, int) or not 1 <= s <= n:
                raise ValueError(f"simple-root index {s!r} outside 1..{n}")
        self.n = n
        self.sigma = sig

        self.blocks: tuple[tuple[int, ...], ...] = tuple(map(tuple, levi_blocks(self)))
        # block index of each matrix index 1..n+1 (slot 0 unused)
        b = self._block = (0,) + tuple(k for k, blk in enumerate(self.blocks) for _ in blk)
        self.depth_k = len(self.blocks) - 1

        pos = sorted((b[j] - b[i], i, j) for i, j in permutations(range(1, n + 2), 2)
                     if b[i] < b[j])
        self.delta_u: tuple[Root, ...] = tuple(Root(i, j) for _h, i, j in pos)
        self.f_basis: tuple[LieElement, ...] = tuple(
            matrix_unit(n, j, i) for _h, i, j in pos)
        self.e_basis: tuple[LieElement, ...] = tuple(
            matrix_unit(n, i, j) for _h, i, j in pos)
        # alpha of each ubar entry (i, j): f_alpha = E_ij and e_alpha = E_ji
        self.ubar_index = {(j, i): k for k, (_h, i, j) in enumerate(pos)}

        alg = self.algebra = build_sl(n)
        elems = alg.basis
        self.cartan: tuple[LieElement, ...] = elems[:n]
        sig_pos = [(i, j) for blk in self.blocks for i in blk for j in blk if i < j]
        units = sig_pos + [(j, i) for i, j in sig_pos]
        levi = self.levi_positions = tuple(range(n)) + tuple(alg.unit_index[p] for p in units)
        self.levi_basis: tuple[LieElement, ...] = tuple(elems[k] for k in levi)

        # center of the Levi: fundamental coweight-style elements, one per
        # simple root outside Sigma
        cb: list[LieElement] = []
        cb_names: list[str] = []
        for r in range(1, n + 1):
            if r not in sig:
                vals = [Fraction(1) - Fraction(r, n + 1)] * r + \
                       [Fraction(-r, n + 1)] * (n + 1 - r)
                cb.append(diag_element(n, vals))
                cb_names.append(f"w{r}")
        self.center_basis: tuple[LieElement, ...] = tuple(cb)
        self.center_names: tuple[str, ...] = tuple(cb_names)

        self.homogeneous_basis: tuple[tuple[str, LieElement, int], ...] = tuple(
            (name, el, self.height_of(el)) for name, el in zip(alg.names, elems))

        # adjoint action of the f-basis on each element reached by the series
        # expansion, summed per letter multiset, as int-entry elements: the
        # sums that stay on p's side of ubar and the first steps into ubar;
        # one entry per primitive class p (int entries, gcd 1, positive at
        # the smallest (i, j)), since the sums are linear: those of k*p are k
        # times those of p; filled lazily by `realization._ad_multisets`
        self.ad_multisets_cache: dict[LieElement, tuple] = {}

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, ParabolicData)
                and self.n == other.n and self.sigma == other.sigma)

    def __hash__(self):
        return hash((self.n, self.sigma))

    def __repr__(self):
        return f"ParabolicData(n={self.n}, sigma={sorted(self.sigma)})"

    @cached_property
    def f_basis_int(self) -> tuple[LieElement, ...]:
        """`f_basis` with int entries, for the integer series recursion
        (`realization._ad_multisets`).  Derived at first use, from whatever
        `f_basis` holds then; a non-integral entry raises, never truncates."""
        out = []
        for f in self.f_basis:
            den, nums = scale_to_integers(f.entries.items())
            if den != 1:
                raise ValueError(f"f-basis element {f!r} has a non-integral entry")
            out.append(_raw(self.n, dict(nums)))
        return tuple(out)

    @property
    def num_alpha(self) -> int:
        return len(self.delta_u)

    def height_of(self, a: LieElement) -> int | None:
        """Sigma-height of a homogeneous element; None if mixed."""
        h: int | None = None
        for (i, j) in a.entries:
            hij = self._block[j] - self._block[i]
            if h is None:
                h = hij
            elif h != hij:
                return None
        return 0 if h is None else h

    # -- projections -------------------------------------------------------

    def _check_rank(self, a: LieElement):
        if a.n != self.n:
            raise ValueError("rank mismatch between element and parabolic data")

    def project(self, a: LieElement, part: str) -> LieElement:
        """Component of a in ubar, l, u or p = l + u (entrywise by height).

        Built without re-validation (`_raw`): a is already clean, and every
        part stays traceless, because the diagonal has height 0, so l and p
        keep all of it and ubar and u none.  So the entries keep their type,
        and int entries from the series stay ints."""
        self._check_rank(a)
        if part not in ("ubar", "l", "u", "p"):
            raise ValueError(f"unknown part {part!r}")
        out = {}
        for (i, j), c in a.entries.items():
            h = self._block[j] - self._block[i]
            keep = ((part == "ubar" and h < 0)
                    or (part == "l" and h == 0)
                    or (part == "u" and h > 0)
                    or (part == "p" and h >= 0))
            if keep:
                out[(i, j)] = c
        return _raw(self.n, out)

    def u_coords(self, a: LieElement) -> list[tuple[int, Fraction]]:
        """a's entries in u over the e-basis, (alpha index, coeff); the
        entries outside u are skipped."""
        return sorted((self.ubar_index[(j, i)], c) for (i, j), c in a.entries.items()
                      if self._block[i] < self._block[j])

    def center_coords(self, a: LieElement) -> tuple[Fraction, ...]:
        """Coefficients of proj_{z(l)}(a) over the center basis.

        The projection along [l,l] replaces the diagonal by its average on
        each Levi block, so the coefficient of w_r (which steps down by 1 from
        index r to r + 1) is the average on r's block minus that on r+1's.
        """
        self._check_rank(a)
        avg = [sum((a.entry(i, i) for i in b), Fraction(0)) / len(b) for b in self.blocks]
        return tuple(x - y for x, y in zip(avg, avg[1:]))

    def in_center(self, a: LieElement) -> bool:
        """True iff a lies in z(l): a is diagonal and alpha_s(a) = 0 for s in Sigma."""
        self._check_rank(a)
        return (all(i == j for (i, j) in a.entries)
                and all(a.entry(s, s) == a.entry(s + 1, s + 1) for s in self.sigma))

    def decompose_p(self, a: LieElement) -> tuple[tuple[LieElement, Fraction], ...]:
        """Split a p-element into (unit, coefficient) pairs over the shared
        units of `algebra.basis`, read by `algebra.coords` in basis order:
        Cartan coordinates first, then matrix units by (i, j); an int-entry a
        has int coefficients.  Raises if a has a ubar component.
        """
        if not self.project(a, "ubar").is_zero():
            raise ValueError("element has a component outside p")
        basis = self.algebra.basis
        return tuple((basis[k], c) for k, c in self.algebra.coords(a))


def parabolic_decompose(n: int, sigma: Iterable[int] = ()) -> ParabolicData:
    return ParabolicData(n, sigma)


def central_coeff(a: LieElement, b: LieElement, m: int, n: int) -> Fraction:
    """The central coefficient m (a,b) delta_{m,-n} of [a_m, b_n]."""
    if m != -n or m == 0:
        return Fraction(0)
    return Fraction(m) * form(a, b)


def bracket_residual(act, a: LieElement, m: int, b: LieElement, n: int,
                     vec: dict, level) -> dict:
    """a_m(b_n v) - b_n(a_m v) - [a,b]_{m+n} v - m (a,b) delta_{m,-n} level v.

    The affine bracket relation on one vector, as a sparse dict that is empty
    exactly when the relation holds.  `act(x, mode, vec) -> dict` is any
    representation on sparse vectors; it is called in the order of the
    formula, which fixes the order in which modules first meet new vectors.
    """
    res = dict(act(a, m, act(b, n, vec)))
    for key, c in act(b, n, act(a, m, vec)).items():
        add_to(res, key, -c)
    for key, c in act(bracket(a, b), m + n, vec).items():
        add_to(res, key, -c)
    central = central_coeff(a, b, m, n) * level
    if central:
        for key, c in vec.items():
            add_to(res, key, -central * c)
    return res
