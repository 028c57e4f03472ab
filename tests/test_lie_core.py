from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinefock.lie import (
    MAX_RANK,
    LieElement,
    ParabolicData,
    Root,
    _raw,
    add_to,
    as_scalar,
    bracket,
    build_sl,
    cartan_h,
    diag_element,
    form,
    levi_blocks,
    matrix_unit,
    parabolic_decompose,
    unit_name,
    zero,
)
from affinefock.sampling import Sampler
from oracles import element, killing_form, loop, loop_bracket, loop_central

Q = Fraction


# --- sparse accumulation -----------------------------------------------------

SCALARS = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@given(st.lists(st.tuples(st.integers(0, 3), SCALARS), max_size=30))
def test_add_to_matches_plain_dict_accumulation(steps):
    # keys, key order, values and value types are those of acc[key] = 0 + c
    # on a new key, and no zero is ever stored
    acc, ref = {}, {}
    for key, c in steps:
        add_to(acc, key, c)
        s = ref.get(key, 0) + c
        if s:
            ref[key] = s
        else:
            ref.pop(key, None)
        assert list(acc.items()) == list(ref.items())
        assert [type(v) for v in acc.values()] == [type(v) for v in ref.values()]
        assert all(acc.values())


# --- independent oracles ---------------------------------------------------

def dense(el: LieElement) -> list[list[Fraction]]:
    size = el.n + 1
    m = [[Q(0)] * size for _ in range(size)]
    for (i, j), c in el.entries.items():
        m[i - 1][j - 1] = c
    return m


def dense_mul(a, b):
    size = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


def dense_commutator(x: LieElement, y: LieElement) -> list[list[Fraction]]:
    a, b = dense(x), dense(y)
    ab, ba = dense_mul(a, b), dense_mul(b, a)
    return [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def killing_oracle(a: LieElement, b: LieElement) -> Fraction:
    """Trace of ad(a)ad(b) as a dense matrix over the full basis."""
    alg = build_sl(a.n)
    mats = []
    for x in alg.basis:
        y = bracket(a, bracket(b, x))
        coords = {alg.names[k]: c for k, c in alg.coords(y)}
        mats.append([coords.get(name, Q(0)) for name in alg.names])
    return sum(mats[k][k] for k in range(len(mats)))


def assert_dense_equal(el: LieElement, m: list[list[Fraction]]):
    assert dense(el) == m


# --- build_sl ----------------------------------------------------------------

def test_as_scalar_takes_only_integer_and_p_q_strings():
    for q in (Q(0), Q(7), Q(-3, 4), Q(10 ** 30, 7)):
        assert as_scalar(str(q)) == q
    for text in ("1.5", "1e3", "1e100000000", "+1", " 1", "1 ", "1_000", "-", "1/", "/2",
                 "inf", "nan", "1/-2"):
        with pytest.raises(ValueError):
            as_scalar(text)
    with pytest.raises(ZeroDivisionError):
        as_scalar("1/0")


def test_build_sl_dimensions():
    assert len(build_sl(1).basis) == 3
    assert len(build_sl(2).basis) == 8
    assert len(build_sl(3).basis) == 15


def test_build_sl2_standard_triple():
    alg = build_sl(1)
    e, f, h = element(alg, "E1.2"), element(alg, "E2.1"), element(alg, "H1")
    assert dense(e) == [[0, 1], [0, 0]]
    assert dense(f) == [[0, 0], [1, 0]]
    assert dense(h) == [[1, 0], [0, -1]]
    assert bracket(e, f) == h
    assert bracket(h, e) == e.scale(2)
    assert bracket(h, f) == f.scale(-2)


def test_build_sl_rejects_bad_rank():
    with pytest.raises(ValueError):
        build_sl(0)
    with pytest.raises(ValueError):
        build_sl(99)


def test_build_sl_rejects_a_bool_rank():
    # checked before the cache is read, where True would find sl(2)
    assert len(build_sl(1).basis) == 3
    with pytest.raises(ValueError):
        build_sl(True)


def test_lie_element_rejects_a_bool_rank():
    assert LieElement(1, {(1, 2): 1}).n == 1
    with pytest.raises(ValueError):
        LieElement(True, {(1, 2): 1})


def test_diag_element_rejects_a_bool_rank():
    assert diag_element(1, [1, -1]) == cartan_h(1, 1)
    with pytest.raises(ValueError):
        diag_element(True, [1, -1])


def test_matrix_unit_rejects_a_bool_rank_before_its_cache():
    # True == 1, so the shared unit of rank 1 must neither be returned for a
    # bool rank nor be created with one; asked first, either way round
    with pytest.raises(ValueError):
        matrix_unit(True, 2, 1)
    assert type(matrix_unit(1, 2, 1).n) is int
    unit = matrix_unit(1, 1, 2)
    with pytest.raises(ValueError):
        matrix_unit(True, 1, 2)
    assert matrix_unit(1, 1, 2) is unit and type(unit.n) is int


def test_parabolic_rejects_a_bool_rank():
    with pytest.raises(ValueError):
        parabolic_decompose(True)


def test_parabolic_rejects_a_bool_sigma_entry():
    with pytest.raises(ValueError):
        parabolic_decompose(2, [True])


def test_trace_invariant_enforced():
    with pytest.raises(ValueError):
        LieElement(1, {(1, 1): Q(1)})
    with pytest.raises(ValueError):
        LieElement(1, {(3, 1): Q(1)})


# --- bracket -----------------------------------------------------------------

def test_bracket_sl2_defining_relation():
    e, f = matrix_unit(1, 1, 2), matrix_unit(1, 2, 1)
    assert bracket(e, f) == cartan_h(1, 1)


def test_bracket_e32_e21_matches_matrix_oracle():
    a, b = matrix_unit(2, 3, 2), matrix_unit(2, 2, 1)
    got = bracket(a, b)
    assert_dense_equal(got, dense_commutator(a, b))
    assert got == matrix_unit(2, 3, 1)


def test_bracket_bilinear_antisymmetric():
    alg = build_sl(2)
    a, b = element(alg, "E1.3"), element(alg, "H2")
    assert bracket(a, b) == -bracket(b, a)
    assert bracket(a + b, a) == bracket(a, a) + bracket(b, a)
    assert bracket(a, a).is_zero()


def test_bracket_rank_mismatch():
    with pytest.raises(ValueError):
        bracket(matrix_unit(1, 1, 2), matrix_unit(2, 1, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_identity_full_basis(n):
    alg = build_sl(n)
    for x, y, z in itertools.combinations(alg.basis, 3):
        total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                 + bracket(z, bracket(x, y)))
        assert total.is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_matches_dense_oracle_everywhere(n):
    alg = build_sl(n)
    for x in alg.basis:
        for y in alg.basis:
            assert dense(bracket(x, y)) == dense_commutator(x, y)


# --- invariant form -----------------------------------------------------------

def test_form_sl2_values():
    alg = build_sl(1)
    e, f, h = element(alg, "E1.2"), element(alg, "E2.1"), element(alg, "H1")
    assert form(e, f) == 1
    assert form(h, h) == 2
    assert form(e, e) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theta_norm_is_two(n):
    e_theta = matrix_unit(n, 1, n + 1)
    f_theta = matrix_unit(n, n + 1, 1)
    h_theta = bracket(e_theta, f_theta)
    assert form(h_theta, h_theta) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_form_invariance(n):
    alg = build_sl(n)
    for x, a, b in itertools.product(alg.basis[: 2 * n + 2], repeat=3):
        assert form(bracket(x, a), b) + form(a, bracket(x, b)) == 0


def test_killing_sl2_frozen_values():
    alg = build_sl(1)
    e, f, h = element(alg, "E1.2"), element(alg, "E2.1"), element(alg, "H1")
    assert killing_oracle(e, f) == 4
    assert killing_oracle(h, h) == 8
    assert killing_form(e, f) == 4
    assert killing_form(h, h) == 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_killing_is_dual_coxeter_multiple_of_trace_form(n):
    alg = build_sl(n)
    pairs = [(alg.basis[i % len(alg.basis)], alg.basis[(3 * i + 1) % len(alg.basis)])
             for i in range(10)]
    for a, b in pairs:
        kf = killing_form(a, b)
        assert kf == 2 * (n + 1) * form(a, b)
        assert kf == killing_oracle(a, b)


# --- parabolic decomposition ---------------------------------------------------

def test_parabolic_sl2_borel():
    pd = parabolic_decompose(1, ())
    assert pd.delta_u == (Root(1, 2),)
    assert pd.depth_k == 1
    assert pd.f_basis == (matrix_unit(1, 2, 1),)
    assert pd.e_basis == (matrix_unit(1, 1, 2),)


def test_parabolic_sl3_maximal():
    pd = parabolic_decompose(2, {2})
    assert pd.delta_u == (Root(1, 2), Root(1, 3))
    assert pd.depth_k == 1
    # abelian nilradical
    for f1 in pd.f_basis:
        for f2 in pd.f_basis:
            assert bracket(f1, f2).is_zero()


def test_parabolic_sl3_borel():
    pd = parabolic_decompose(2, ())
    assert pd.delta_u == (Root(1, 2), Root(2, 3), Root(1, 3))
    assert pd.depth_k == 2
    assert pd.height_of(matrix_unit(2, 1, 3)) == 2
    assert pd.height_of(matrix_unit(2, 3, 1)) == -2
    # value semantics, and never equal to a plain tuple
    assert Root(1, 3) == Root(1, 3) and len({Root(1, 3), Root(1, 3)}) == 1
    assert Root(1, 3) != Root(3, 1) and Root(1, 3) != (1, 3)
    assert repr(Root(1, 3)) == "Root(1,3)"
    with pytest.raises(ValueError):
        Root(2, 2)


def test_parabolic_rejects_bad_sigma():
    with pytest.raises(ValueError):
        parabolic_decompose(2, {3})


def test_parabolic_dimension_count():
    for n, sigma in [(1, ()), (2, {2}), (2, ()), (3, {2, 3})]:
        pd = parabolic_decompose(n, sigma)
        assert len(pd.levi_basis) + 2 * pd.num_alpha == (n + 1) ** 2 - 1


# --- projections ---------------------------------------------------------------

def test_project_examples():
    pd1 = parabolic_decompose(1, ())
    assert pd1.project(matrix_unit(1, 2, 1), "ubar") == matrix_unit(1, 2, 1)
    assert pd1.project(cartan_h(1, 1), "ubar").is_zero()

    pd2 = parabolic_decompose(2, {2})
    both = matrix_unit(2, 1, 3) + matrix_unit(2, 3, 1)
    assert pd2.project(both, "p") == matrix_unit(2, 1, 3)


def test_projections_reconstruct_and_idempotent():
    pd = parabolic_decompose(2, {2})
    alg = build_sl(2)
    for a in alg.basis:
        pieces = [pd.project(a, part) for part in ("ubar", "l", "u")]
        total = pieces[0] + pieces[1] + pieces[2]
        assert total == a
        for part, piece in zip(("ubar", "l", "u"), pieces):
            assert pd.project(piece, part) == piece


def test_sigma_height_additive_under_bracket():
    pd = parabolic_decompose(2, ())
    for name_a, a, ha in pd.homogeneous_basis:
        for name_b, b, hb in pd.homogeneous_basis:
            c = bracket(a, b)
            if not c.is_zero():
                assert pd.height_of(c) == ha + hb


def test_nilpotency_depth_bound():
    pd = parabolic_decompose(2, ())
    x = pd.f_basis[0] + pd.f_basis[1] + pd.f_basis[2].scale(Q(1, 2))
    alg = build_sl(2)
    for y in alg.basis:
        acc = y
        for _ in range(2 * pd.depth_k + 1):
            acc = bracket(x, acc)
        assert acc.is_zero()


def test_center_coords_projects_along_derived_levi():
    pd = parabolic_decompose(2, {2})
    assert len(pd.center_basis) == 1
    w = pd.center_basis[0]
    assert pd.center_coords(w) == (Q(1),)
    # coroot of a Sigma-root lies in [l,l]: zero center part
    assert pd.center_coords(cartan_h(2, 2)) == (Q(0),)
    assert pd.in_center(w)
    assert not pd.in_center(matrix_unit(2, 2, 3))


ALL_SL2_TO_SL5 = [(n, frozenset(sigma)) for n in range(1, 5)
                  for k in range(n + 1)
                  for sigma in itertools.combinations(range(1, n + 1), k)]


@pytest.mark.parametrize("n,sigma", ALL_SL2_TO_SL5)
def test_block_facts_match_their_definitions(n, sigma):
    pd = parabolic_decompose(n, sigma)
    # a block is a maximal run of indices glued by the simple roots in Sigma
    cuts = [0] + [r for r in range(1, n + 1) if r not in sigma] + [n + 1]
    blocks = [list(range(lo + 1, hi + 1)) for lo, hi in zip(cuts, cuts[1:])]
    assert levi_blocks(pd) == blocks
    counts = {}
    for i, j in itertools.permutations(range(1, n + 2), 2):
        count = sum(1 for r in range(min(i, j), max(i, j)) if r not in sigma)
        assert pd.height_of(matrix_unit(n, i, j)) == (count if i < j else -count)
        if i < j and count > 0:
            counts[Root(i, j)] = (count, i, j)
    assert pd.delta_u == tuple(sorted(counts, key=counts.get))
    # one canonical basis per rank: every list of basis elements shares it
    basis = build_sl(n).basis
    assert all(el is basis[k] for k, (_name, el, _h) in enumerate(pd.homogeneous_basis))
    assert all(h is basis[i] for i, h in enumerate(pd.cartan))

    smp = Sampler(n * 100 + len(sigma))
    randoms = []
    for _ in range(6):
        vals = [smp.rational() for _ in range(n)]
        randoms.append(diag_element(n, vals + [-sum(vals)]))
    elems = [el for _, el, _ in pd.homogeneous_basis] + list(pd.center_basis) + randoms
    for a in elems:
        z = zero(n)
        for c, w in zip(pd.center_coords(a), pd.center_basis):
            z = z + w.scale(c)
        rest = a - z
        for block in blocks:
            assert len({z.entry(i, i) for i in block}) == 1
            assert sum(rest.entry(i, i) for i in block) == 0
        assert pd.in_center(a) == (a == z)


# --- loop bracket ----------------------------------------------------------------

def test_loop_bracket_e_f_gives_h_plus_central():
    alg = build_sl(1)
    e, f, h = element(alg, "E1.2"), element(alg, "E2.1"), element(alg, "H1")
    for m in (-3, 1, 2):
        got = loop_bracket(loop(e, m), loop(f, -m))
        assert got == LoopElement_sum(loop(h, 0), loop_central(1, m))


def LoopElement_sum(*xs):
    acc = xs[0]
    for x in xs[1:]:
        acc = acc + x
    return acc


def test_loop_bracket_h2_hminus2():
    h = cartan_h(1, 1)
    got = loop_bracket(loop(h, 2), loop(h, -2))
    assert got == loop_central(1, 4)


def test_central_element_commutes():
    e = matrix_unit(1, 1, 2)
    assert loop_bracket(loop_central(1, 1), loop(e, 5)).is_zero()
    assert loop_bracket(loop(e, 5), loop_central(1, Q(-3, 2))).is_zero()


def test_loop_bracket_antisymmetry_and_jacobi_sampled():
    alg = build_sl(1)
    elems = [loop(element(alg, "E1.2"), 2), loop(element(alg, "H1"), -1),
             loop(element(alg, "E2.1"), -2), loop(element(alg, "E1.2"), 3),
             loop(element(alg, "H1"), 4)]
    for x, y in itertools.product(elems, repeat=2):
        assert loop_bracket(x, y) == -(loop_bracket(y, x))
    for x, y, z in itertools.combinations(elems, 3):
        jac = (loop_bracket(x, loop_bracket(y, z))
               + loop_bracket(y, loop_bracket(z, x))
               + loop_bracket(z, loop_bracket(x, y)))
        assert jac.is_zero()


def test_loop_bracket_bilinearity():
    e, f = matrix_unit(1, 1, 2), matrix_unit(1, 2, 1)
    x = loop(e, 1) + loop(f, -1).scale(Q(1, 3))
    y = loop(f, 2)
    lhs = loop_bracket(x, y)
    rhs = loop_bracket(loop(e, 1), y) + loop_bracket(loop(f, -1), y).scale(Q(1, 3))
    assert lhs == rhs


def test_matrix_unit_is_shared():
    # decompose_p hands the same unit object to every operator, so module
    # caches keyed by Levi heads hit by identity
    assert matrix_unit(3, 2, 4) is matrix_unit(3, 2, 4)
    pd = parabolic_decompose(2, ())
    unit, _c = pd.decompose_p(matrix_unit(2, 1, 2))[0]
    assert unit_name(unit) == "E1.2" and unit is matrix_unit(2, 1, 2)


def test_unit_names_read_the_lead_entry():
    # one naming rule: each name is read off its unit's lead entry, which
    # also orders the units as `LieElement.key` does
    for n in range(1, MAX_RANK + 1):
        alg = build_sl(n)
        expected = [f"H{i}" for i in range(1, n + 1)] + [
            f"E{i}.{j}" for i, j in itertools.permutations(range(1, n + 2), 2)]
        assert list(alg.names) == expected
        assert [unit_name(u) for u in alg.basis] == expected
        assert (sorted(alg.basis, key=lambda u: min(u.entries))
                == sorted(alg.basis, key=LieElement.key))


def test_coords_of_an_int_entry_element_are_ints():
    # the adjoint series reads its Levi values through this one rule on
    # int entries: Cartan prefix sums, then matrix units by (i, j), with the
    # values of the element's Fraction twin
    alg = build_sl(3)
    entries = {(1, 1): 2, (3, 3): 3, (4, 4): -5, (4, 2): 7, (1, 3): -4}
    coords = alg.coords(_raw(3, dict(entries)))
    assert coords == alg.coords(LieElement(3, entries)) == [
        (0, 2), (1, 2), (2, 5), (alg.unit_index[(1, 3)], -4), (alg.unit_index[(4, 2)], 7)]
    assert all(type(c) is int for _, c in coords)
