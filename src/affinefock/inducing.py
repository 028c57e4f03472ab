"""Inducing modules: concrete continuous representations of the natural parabolic.

Three constructible families are provided.  In each, the nilradical loop part
acts by zero and the central element acts by the level kappa:

* ``character`` -- one-dimensional, supported on the center of the Levi;
  necessarily level 0 (the center of the affine algebra lies in the derived
  Levi loop algebra, which a character kills).
* ``evaluation`` -- a finite-dimensional Levi representation evaluated at a
  point s, acting by s^j rho(x) in mode j; necessarily level 0 because the
  trace of a commutator of finite matrices vanishes.
* ``heisenberg_fock`` -- for the Borel case (empty Sigma): the level-kappa
  Fock module of the Cartan loop algebra, with negative modes creating,
  positive modes n annihilating in each direction j (scaled by kappa * n *
  (x, h_j), the pairing `lie.form`), and mode zero acting by the highest
  weight.

Every kind shares one public action, memoized per (x, mode, v_index); a
kind supplies only its mathematics as `_act` on the Levi part of x.  The
memo holds one form, the integers over their LCM of `act_scaled`; `act`
divides them into a new Fraction dict.  The Cartan weight of a basis vector,
`v_weight`, is read off the mode-0 action, and an evaluation module checks
that rho is a Levi representation by running `axiom_check` on its basis
vectors in mode 0, unless every matrix is zero, which is a representation.

A module also says which elements act by zero on all of V in every mode,
exactly (`acts_by_zero`): by default those with no Levi part, and for a
character those its functionals all vanish on.  `kernel` is where an
operator's terms become integers: in one pass it writes them over the LCM of
all their denominators and keeps only the terms that can add something on
this module, dropping such Levi heads and central heads at level 0.  The
apply kernel (`realization._apply_scaled`) runs what it returns, memoized per
terms tuple, so a killed head never reaches `act_scaled`.  The module also
owns the `MonomialTable` that the apply kernel keys its states by, so the slot
matches and creator products of every operator applied on the module are
computed once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .fock import (
    MonomialTable,
    int_triples,
    mono_d_var,
    mono_from_pairs,
    mono_mode_sum,
    mono_mul_var,
)
from .lie import (
    LieElement,
    ParabolicData,
    add_to,
    as_scalar,
    bracket_residual,
    cartan_coords,
    form,
    scale_to_integers,
)

Q = Fraction

# largest |mode| of an evaluation module at |s| not in {0, 1}, where s ** mode grows
MAX_EVALUATION_MODE = 2 ** 16
# largest dim of the CLI's trivial evaluation module: dim**2 entries per Levi element
MAX_EVALUATION_DIM = 64


def levi_coords(pd: ParabolicData, x: LieElement) -> list[Fraction]:
    """Coordinates of a Levi element over pd.levi_basis."""
    if not (pd.project(x, "u").is_zero() and pd.project(x, "ubar").is_zero()):
        raise ValueError("element is not in the Levi subalgebra")
    coords = dict(pd.algebra.coords(x))
    return [coords.get(k, Q(0)) for k in pd.levi_positions]


class InducingModule:
    """Common interface; see the concrete kinds below."""

    kind: str = "abstract"
    needs_vbasis: bool = False

    def __init__(self, pd: ParabolicData, level):
        self.pd = pd
        self.level = as_scalar(level)
        self._acts: dict[tuple[LieElement, int, int], tuple[int, list]] = {}
        self._kernels: dict[int, tuple[tuple, tuple]] = {}
        self.monomials = MonomialTable()

    def act(self, x: LieElement, mode: int, v_index: int) -> dict[int, Fraction]:
        """x (x) t^mode on basis vector v_index, as a sparse {v_index: coeff}."""
        den, nums = self.act_scaled(x, mode, v_index)
        return {w: Q(num, den) for w, num in nums}

    def act_scaled(self, x: LieElement, mode: int, v_index: int) -> tuple[int, list]:
        """`act` as (L, [(w, L * coeff), ...]), L the LCM of its denominators.

        Memoized per (x, mode, v_index): an error is raised again on every
        call and never stored.
        """
        entry = self._acts.get((x, mode, v_index))
        if entry is None:
            self.check_v_index(v_index)
            if x.n != self.pd.n:
                raise ValueError("rank mismatch between element and module")
            out = self._act(self.pd.project(x, "l"), mode, v_index)
            entry = self._acts[x, mode, v_index] = scale_to_integers(out.items())
        return entry

    def _act(self, x_l: LieElement, mode: int, v_index: int) -> dict[int, Fraction]:
        """The action of the Levi element x_l; the nilradical acts by zero."""
        raise NotImplementedError

    def acts_by_zero(self, x: LieElement) -> bool:
        """True when x (x) t^j acts by zero on every vector of V in every mode j.

        Exact, never a guess: a True answer means `act(x, j, v)` is empty for
        every j and v.  By default x kills V when its Levi part is zero.
        """
        return self.pd.project(x, "l").is_zero()

    def kernel(self, terms: tuple) -> tuple:
        """An operator's terms as the integer kernel that
        `realization._apply_scaled` runs on this module: (D, families, kept).

        D is the LCM of the denominators of all the terms, dropped ones too,
        so the kernel produces the integers of every term.  A kept term is
        (index into families, D * coeff as an int, head kind, head as the
        term holds it, mode-factor slot), and families holds the slot families
        of the kept terms in order of first use.  Dropped are the Levi heads
        that `acts_by_zero` kills and central heads at level 0: they only ever
        added nothing, so the output keys and their order are unchanged.
        Memoized per terms tuple by identity; the entry holds the tuple, so
        its id is never reused.
        """
        hit = self._kernels.get(id(terms))
        if hit is not None:
            return hit[1]
        denom, nums = scale_to_integers([(t, t.coeff) for t in terms])
        level_zero = self.level == 0
        families: dict[tuple[int, ...], int] = {}
        kept = []
        for t, num in nums:
            kind = t.head_kind
            if (kind == "levi" and self.acts_by_zero(t.head)
                    or kind == "central" and level_zero):
                continue
            kept.append((families.setdefault(t.annihilators, len(families)), num, kind,
                         t.head, t.mode_factor))
        out = (denom, tuple(families), tuple(kept))
        self._kernels[id(terms)] = (terms, out)
        return out

    def act_vec(self, x: LieElement, mode: int, vec: dict[int, Fraction],
                ) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for v, c in vec.items():
            for w, d in self.act(x, mode, v).items():
                add_to(out, w, c * d)
        return out

    def v_weight(self, v_index: int, h: LieElement) -> Fraction | None:
        """The h-eigenvalue of basis vector v_index under the mode-0 action, or
        None when the vector is not an h-eigenvector."""
        out = self.act(h, 0, v_index)
        if any(w != v_index for w in out):
            return None
        return out.get(v_index, Q(0))

    def v_mode(self, v_index: int) -> int | None:
        raise NotImplementedError

    def check_mode(self, mode: int):
        """Raise ValueError unless the module acts in this mode."""

    def check_v_index(self, v_index: int):
        raise NotImplementedError

    def sample_v(self, sampler) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.kind}(level={self.level})"

    # registry-backed kinds override these
    def v_to_obj(self, v_index: int):
        raise NotImplementedError

    def v_from_obj(self, obj) -> int:
        raise NotImplementedError


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve an exact linear system of one or more rows; None if inconsistent.

    Gaussian elimination over Q; free columns (rank-deficient input) are set
    to zero, which keeps the answer deterministic.
    """
    m = [row[:] + [r] for row, r in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, nrows) if m[k][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for k in range(nrows):
            if k != r and m[k][c] != 0:
                f = m[k][c]
                m[k] = [v - f * w for v, w in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for k in range(r, nrows):
        if m[k][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        sol[c] = m[row_idx][ncols]
    return sol


class CharacterModule(InducingModule):
    """One-dimensional module defined by a finitely supported character.

    The character is supported on the center of the Levi; per mode j it is a
    linear functional on z(l), stored over the canonical center basis.
    """

    kind = "character"

    def __init__(self, pd: ParabolicData,
                 assignments: Iterable[tuple[LieElement, int, Fraction]], level):
        super().__init__(pd, level)
        if self.level != 0:
            raise ValueError("a one-dimensional module forces level 0")
        by_mode: dict[int, list[tuple[list[Fraction], Fraction]]] = {}
        for elem, mode, value in assignments:
            if not pd.in_center(elem):
                raise ValueError(
                    "character assignments must lie in the center of the Levi")
            coords = list(pd.center_coords(elem))
            by_mode.setdefault(int(mode), []).append((coords, as_scalar(value)))
        self.chi: dict[int, tuple[Fraction, ...]] = {}
        for mode, rows in by_mode.items():
            sol = _solve_exact([r for r, _ in rows], [v for _, v in rows])
            if sol is None:
                raise ValueError(f"inconsistent character values at mode {mode}")
            if any(s != 0 for s in sol):
                self.chi[mode] = tuple(sol)
        self._graded = all(m == 0 for m in self.chi)

    def describe(self) -> str:
        modes = ",".join(str(m) for m in sorted(self.chi))
        return f"character(modes=[{modes}], level={self.level})"

    def acts_by_zero(self, x: LieElement) -> bool:
        # every functional vanishes on x; center_coords reads only the
        # diagonal, which the Levi part keeps
        coords = self.pd.center_coords(x)
        return all(sum((c * f for c, f in zip(coords, func)), Q(0)) == 0
                   for func in self.chi.values())

    def _act(self, x_l: LieElement, mode: int, v_index: int) -> dict[int, Fraction]:
        func = self.chi.get(mode)
        if func is None:
            return {}
        val = sum((c * f for c, f in zip(self.pd.center_coords(x_l), func)), Q(0))
        return {0: val} if val != 0 else {}

    def v_mode(self, v_index: int) -> int | None:
        return 0 if self._graded else None

    def check_v_index(self, v_index: int):
        if v_index != 0:
            raise ValueError("character module has a single basis vector")

    def sample_v(self, sampler) -> int:
        return 0


class EvaluationModule(InducingModule):
    """Finite-dimensional Levi representation evaluated at a point.

    x (x) t^j acts by s^j rho(x_l); the nilradical part acts by zero.  With
    s = 0 positive modes act by zero.  `check_mode` rejects negative modes at
    s = 0 and, unless |s| is 1, a mode with |j| > MAX_EVALUATION_MODE, since
    s^j would grow without bound.
    """

    kind = "evaluation"

    def __init__(self, pd: ParabolicData, rho: Sequence[Sequence[Sequence]],
                 s, level=0):
        super().__init__(pd, level)
        if self.level != 0:
            raise ValueError(
                "finite-dimensional inducing modules force level 0: "
                "tr[rho(x_m), rho(y_{-m})] = 0 while the bracket demands "
                "m (x,y) kappa dim")
        if len(rho) != len(pd.levi_basis):
            raise ValueError("need one representation matrix per Levi basis element")
        mats = []
        dim = None
        for mat in rho:
            rows = tuple(tuple(as_scalar(v) for v in row) for row in mat)
            if dim is None:
                dim = len(rows)
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValueError("representation matrices must be square, same size")
            mats.append(rows)
        if not dim:
            raise ValueError("an evaluation module needs a representation of "
                             "positive dimension")
        self.rho = tuple(mats)
        self.dim = dim
        self.s = as_scalar(s)
        # zero matrices are a representation: [rho(x), rho(y)] = 0 = rho([x, y])
        if any(v for mat in mats for row in mat for v in row):
            _checks, failure = axiom_check(self, 0, [{v: Q(1)} for v in range(dim)])
            if failure is not None:
                raise ValueError("rho is not a Levi representation: " + failure)

    def _column(self, x_l: LieElement, v_index: int) -> dict[int, Fraction]:
        """Column v_index of rho(x_l), as a sparse {row: entry}."""
        col = [Q(0)] * self.dim
        for c, mat in zip(levi_coords(self.pd, x_l), self.rho):
            if c != 0:
                for row in range(self.dim):
                    col[row] += c * mat[row][v_index]
        return {row: val for row, val in enumerate(col) if val != 0}

    def check_mode(self, mode: int):
        if self.s == 0:
            if mode < 0:
                raise ValueError(f"mode {mode} is undefined at evaluation point 0: "
                                 "s = 0 has no negative powers")
        elif abs(self.s) != 1 and abs(mode) > MAX_EVALUATION_MODE:
            raise ValueError(
                f"mode {mode} outside |mode| <= {MAX_EVALUATION_MODE} "
                f"at evaluation point {self.s}")

    def _act(self, x_l: LieElement, mode: int, v_index: int) -> dict[int, Fraction]:
        if x_l.is_zero():
            return {}
        self.check_mode(mode)
        scale = self.s ** mode
        if not scale:
            return {}
        return {row: c * scale for row, c in self._column(x_l, v_index).items()}

    def v_mode(self, v_index: int) -> int | None:
        return None

    def check_v_index(self, v_index: int):
        if not 0 <= v_index < self.dim:
            raise ValueError(f"v index {v_index} outside module of dim {self.dim}")

    def sample_v(self, sampler) -> int:
        return sampler.randint(0, self.dim - 1)

    def describe(self) -> str:
        return f"evaluation(dim={self.dim}, s={self.s}, level={self.level})"


class HeisenbergFockModule(InducingModule):
    """Level-kappa Fock module of the Cartan loop algebra (Borel case only).

    V is the polynomial space on variables y(i, r) for Cartan direction i and
    depth r >= 1 (mode -r).  Basis monomials are interned in order of first
    use in the module's own `MonomialTable`, `vbasis`, which no sweep empties,
    so indices are reproducible for a fixed computation; serialized states
    carry an explicit basis table.
    """

    kind = "heisenberg_fock"
    needs_vbasis = True

    def __init__(self, pd: ParabolicData, lam: Sequence, level):
        super().__init__(pd, level)
        if pd.sigma:
            raise ValueError("heisenberg_fock requires the Borel case (empty Sigma)")
        lam = tuple(as_scalar(v) for v in lam)
        if len(lam) != pd.n:
            raise ValueError(f"need {pd.n} highest-weight values")
        self.lam = lam
        self.vbasis = MonomialTable()
        self.intern(())

    def intern(self, vmono: tuple) -> int:
        """The vector index of a V-monomial."""
        return self.vbasis.intern(vmono)

    def _act(self, x_l: LieElement, mode: int, v_index: int) -> dict[int, Fraction]:
        coords = cartan_coords(x_l)
        if not any(coords):
            return {}
        out: dict[int, Fraction] = {}
        if mode == 0:
            val = sum((c * l for c, l in zip(coords, self.lam)), Q(0))
            if val != 0:
                out[v_index] = val
        elif mode < 0:
            r = -mode
            for i, c in enumerate(coords):
                if c == 0:
                    continue
                add_to(out, self.vbasis.mul_var(v_index, i, r), c)
        elif self.level != 0:
            for j, h in enumerate(self.pd.cartan):
                g = form(x_l, h)
                if g == 0:
                    continue
                hit = mono_d_var(self.vbasis.monos[v_index], j, mode)
                if hit is None:
                    continue
                exp, reduced = hit
                add_to(out, self.intern(reduced), self.level * mode * g * exp)
        return out

    def v_mode(self, v_index: int) -> int:
        return -mono_mode_sum(self.vbasis.monos[v_index])

    def check_v_index(self, v_index: int):
        if not 0 <= v_index < len(self.vbasis.monos):
            raise ValueError(f"v index {v_index} not registered in this module")

    def sample_v(self, sampler) -> int:
        deg = sampler.randint(0, 2)
        mono = ()
        for _ in range(deg):
            i = sampler.randint(0, self.pd.n - 1)
            r = sampler.randint(1, 2)
            mono = mono_mul_var(mono, i, r)
        return self.intern(mono)

    def v_to_obj(self, v_index: int):
        return [[i, r, e] for i, r, e in self.vbasis.monos[v_index]]

    def v_from_obj(self, obj) -> int:
        triples = int_triples(obj)
        for i, r, e in triples:
            if r < 1 or e < 1:
                raise ValueError("invalid V-monomial entry")
            if not 0 <= i < len(self.pd.cartan):
                raise ValueError(f"Cartan direction {i} out of range")
        return self.intern(mono_from_pairs(triples))

    def describe(self) -> str:
        lam = ",".join(str(v) for v in self.lam)
        return f"heisenberg_fock(lam=[{lam}], level={self.level})"


# --- constructors -------------------------------------------------------------

def character_module(pd: ParabolicData, assignments=(), level=0) -> CharacterModule:
    return CharacterModule(pd, assignments, level)


def evaluation_module(pd: ParabolicData, rho, s, level=0) -> EvaluationModule:
    return EvaluationModule(pd, rho, s, level)


def heisenberg_fock(pd: ParabolicData, lam, level) -> HeisenbergFockModule:
    return HeisenbergFockModule(pd, lam, level)


def natural_block_rep(pd: ParabolicData, block: int) -> list[list[list[Fraction]]]:
    """Representation matrices restricting each Levi basis element to a block."""
    idxs = pd.blocks[block]
    mats = []
    for x in pd.levi_basis:
        mats.append([[x.entry(i, j) for j in idxs] for i in idxs])
    return mats


def axiom_check(module: InducingModule, window: int,
                states: Sequence[dict[int, Fraction]]) -> tuple[int, str | None]:
    """Verify the mode-level bracket relations on the given V-vectors.

    For every ordered pair (x, y) of Levi basis elements and |m|, |n| within
    the window, the commutator of the separate actions must equal
    sigma([x_m, y_n]) including the central term (`lie.bracket_residual`).
    Returns (checks_done, failure), failure being None or a message naming
    the first failing check.
    """
    pd = module.pd
    checks = 0
    for i, x in enumerate(pd.levi_basis):
        for j, y in enumerate(pd.levi_basis):
            for m in range(-window, window + 1):
                for n in range(-window, window + 1):
                    for si, vec in enumerate(states):
                        checks += 1
                        res = bracket_residual(module.act_vec, x, m, y, n, vec,
                                               module.level)
                        if res:
                            return checks, (
                                f"fails on basis pair ({i},{j}) x={x!r} y={y!r} "
                                f"m={m} n={n} state#{si}: "
                                f"[sigma(x_m), sigma(y_n)] - sigma([x_m,y_n]) = {res}")
    return checks, None
