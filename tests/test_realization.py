from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinefock.fock import FockState, MonomialTable, mono_from_pairs, state_to_text
from affinefock.formal_dist import LaurentPoly
from affinefock.inducing import (
    InducingModule,
    character_module,
    evaluation_module,
    heisenberg_fock,
    natural_block_rep,
)
from affinefock.lie import (
    MAX_RANK,
    LieElement,
    SimpleAlgebra,
    bracket,
    cartan_h,
    central_coeff,
    diag_element,
    form,
    matrix_unit,
    parabolic_decompose,
    unit_name,
    zero as zero_element,
)
import affinefock.realization as rz
from affinefock.realization import (
    CENTRAL,
    NormalOrderedOperator,
    Realization,
    Term,
    _ad_multisets,
    _canonical_terms,
    apply_operator,
    bernoulli,
    bracket_sweep,
    build_operator_explicit_sl,
    build_operator_general,
    check_engine,
    series_expand,
)
from affinefock.sampling import Sampler
from oracles import (
    act_laurent,
    breadth_first_ad_levels,
    check_bracket,
    instantiate_operator,
    operator_terms_reference,
    pbw_leading_check,
    reference_apply,
    series_terms_reference,
    summed_per_multiset,
    vacuum_expected,
)
from test_acceptance import sweep_configs

Q = Fraction
ROOT = Path(__file__).resolve().parents[1]

PD_SL2 = parabolic_decompose(1, ())
PD_SL3_MAX = parabolic_decompose(2, {2})
PD_SL3_BOREL = parabolic_decompose(2, ())

H1 = cartan_h(1, 1)
E_SL2 = matrix_unit(1, 1, 2)
F_SL2 = matrix_unit(1, 2, 1)


def sl2_char(lam=Q(0)):
    return character_module(PD_SL2, [(H1, 0, lam)])


def sl2_heis(lam, kappa):
    return heisenberg_fock(PD_SL2, [lam], kappa)


def mono_state(pairs, v=0, coeff=Q(1)):
    return FockState({(mono_from_pairs(pairs), v): coeff})


# --- Bernoulli numbers -----------------------------------------------------------

def bernoulli_oracle(upto):
    """Independent recurrence sum_{j<k} C(k,j) B_j = 0 for k >= 2."""
    vals = [Q(1)]
    for k in range(2, upto + 2):
        vals.append(-sum(comb(k, j) * vals[j] for j in range(k - 1)) / comb(k, k - 1))
    return vals


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Q(-1, 2)
    assert bernoulli(2) == Q(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Q(-1, 30)


def test_bernoulli_recurrence_through_32():
    oracle = bernoulli_oracle(32)
    for k in range(33):
        assert bernoulli(k) == oracle[k]


def test_bernoulli_odd_vanish():
    for j in range(1, 16):
        assert bernoulli(2 * j + 1) == 0


def test_bernoulli_bound():
    with pytest.raises(ValueError):
        bernoulli(33)


def test_bernoulli_rejected_index_raises_on_every_call():
    # a rejected index is never cached, before or after the valid range is filled
    for _ in range(2):
        for k in (33, -1):
            with pytest.raises(ValueError):
                bernoulli(k)
        assert bernoulli(32) == bernoulli_oracle(32)[32]


# --- series expansion ---------------------------------------------------------------

def test_series_abelian_nilradical_element():
    # pi(f_0) = -b(0): the creator of f_0 with the operator's minus sign
    for pd in (PD_SL2, PD_SL3_MAX):
        a = pd.f_basis[0]
        assert series_expand(pd, a, "D") == [Term(Q(-1), (), "create", 0)]
        assert series_expand(pd, a, "A") == []
        assert series_expand(pd, a, "C") == []


def test_series_levi_is_single_annihilator_family():
    # the D value -[f, h] = -2 f gives the creator term 2 x(0) b(0)
    assert series_expand(PD_SL2, H1, "D") == [Term(Q(2), (0,), "create", 0)]
    [levi] = series_expand(PD_SL2, H1, "A")
    assert levi == Term(Q(1), (), "levi", H1) and unit_name(levi.head) == "H1"
    assert series_expand(PD_SL2, H1, "C") == []


def test_series_levi_collapses_to_minus_ad_u_in_depth_two():
    # words of length >= 2 must cancel between the two composed series
    h1 = cartan_h(2, 1)
    d = series_expand(PD_SL3_BOREL, h1, "D")
    assert d and all(len(t.annihilators) == 1 and t.coeff for t in d)
    op = build_operator_general(PD_SL3_BOREL, h1, 0)
    assert not [t for t in op.terms
                if t.head_kind == "create" and len(t.annihilators) >= 2]


def test_series_bernoulli_correction_sl3_borel():
    # depth-two Borel: the first nilradical generator picks up a half term
    # (D values f_0 and -1/2 E31 at the word (1,), E31 being f_2)
    d = series_expand(PD_SL3_BOREL, PD_SL3_BOREL.f_basis[0], "D")
    assert PD_SL3_BOREL.f_basis[2] == matrix_unit(2, 3, 1)
    assert d == [Term(Q(-1), (), "create", 0),
                 Term(Q(1, 2), (1,), "create", 2)]


def test_series_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        series_expand(PD_SL2, E_SL2 + F_SL2, "D")


def test_series_truncation_guard_on_non_nilpotent_f_basis():
    # E12 + E21 brackets a Levi or u base into inhomogeneous elements that
    # never reach ubar, so the p side of the recursion must stop it; the C
    # part reads the same expansion of a, so it must fail alike, here with a
    # second letter E21 in the f-basis
    e12, e21 = matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)
    for f_basis, kinds in (((e12 + e21,), ("D", "A")), ((e12 + e21, e21), ("C",))):
        for base in (cartan_h(2, 1), e12):
            for kind in kinds:
                pd = parabolic_decompose(2, ())
                pd.f_basis = f_basis
                with pytest.raises(AssertionError, match="failed to truncate"):
                    series_expand(pd, base, kind)


def test_series_refuses_non_integral_f_basis():
    pd = parabolic_decompose(2, ())
    pd.f_basis = (matrix_unit(2, 2, 1).scale(Q(1, 2)),)
    with pytest.raises(ValueError, match="non-integral"):
        series_expand(pd, cartan_h(2, 1), "D")


@pytest.mark.parametrize("f_basis, elem, message", [
    # with u letters, [E12, E21] = H1 is a D value outside ubar
    ((matrix_unit(2, 1, 2), matrix_unit(2, 1, 3), matrix_unit(2, 2, 3)),
     matrix_unit(2, 2, 1), "element is not in ubar"),
    # an inhomogeneous letter counts as p, so H1's A part picks up E32
    ((matrix_unit(2, 1, 2), matrix_unit(2, 1, 3),
      matrix_unit(2, 1, 2) + matrix_unit(2, 3, 2)),
     cartan_h(2, 1), "element has a component outside p"),
])
def test_general_assembly_refuses_a_series_value_on_the_wrong_side(f_basis, elem, message):
    # only a bad f-basis puts a D value outside ubar or an A value outside p
    pd = parabolic_decompose(2, ())
    pd.f_basis = f_basis
    with pytest.raises(ValueError, match=message):
        build_operator_general(pd, elem, 0)


LINEARITY_PDS = [parabolic_decompose(n, sigma)
                 for n, sigma in ((1, ()), (2, ()), (2, (2,)), (3, ()), (3, (2,)))]
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_series_expand_is_linear_in_the_element(data):
    # a = A/d is expanded as A and divided by d per term, so scaling a by q
    # must scale every term's coefficient by q and keep the terms' other
    # fields and their order
    pd = data.draw(st.sampled_from(LINEARITY_PDS))
    height = data.draw(st.sampled_from(sorted({h for *_, h in pd.homogeneous_basis})))
    pool = [el for _, el, h in pd.homogeneous_basis if h == height]
    if height == 0:
        pool += list(pd.center_basis)
    coeffs = data.draw(st.lists(RATIONALS, min_size=len(pool), max_size=len(pool)))
    a = sum((el.scale(c) for el, c in zip(pool, coeffs)), zero_element(pd.n))
    q = data.draw(RATIONALS.filter(bool))
    for kind in ("D", "A", "C"):
        base = series_expand(pd, a, kind)
        scaled = series_expand(pd, a.scale(q), kind)
        assert scaled == [Term(q * t.coeff, *t.fields()[1:]) for t in base]
        assert all(type(t.coeff) is Fraction for t in scaled)


def test_ad_multisets_cache_holds_int_entries_after_building():
    # The series recursion is integer-only: every element it memoizes, keys,
    # levels and heads alike, must keep Python int entries, not Fractions.
    pd = parabolic_decompose(3, ())
    real = Realization(pd, character_module(pd))
    for _, elem, _ in pd.homogeneous_basis:
        real.operator(elem, 0)
    assert pd.ad_multisets_cache
    for base, (levels, heads) in pd.ad_multisets_cache.items():
        elements = ([base] + [w for level in levels for _, w in level]
                    + [v for _, v in heads])
        assert all(type(c) is int for w in elements for c in w.entries.values())


def in_ubar(pd, x):
    return pd.project(x, "ubar") == x


def breadth_first_p_side(pd, base):
    """Reference for a base in p: (levels, heads).  Words are extended while
    their value stays in p; the level sums keep those, and a word whose new
    value is in ubar stops there, as a head at its letters."""
    levels, head_words = [[((), base)]], []
    while levels[-1]:
        step = [(word + (beta,), y) for word, x in levels[-1]
                for beta, f in enumerate(pd.f_basis)
                if not (y := bracket(f, x)).is_zero()]
        levels.append([(word, y) for word, y in step if not in_ubar(pd, y)])
        head_words.extend((word, y) for word, y in step if in_ubar(pd, y))
    return summed_per_multiset(levels), summed_per_multiset([head_words])[0]


@pytest.mark.parametrize("n, sigma", [(4, ()), (3, (2, 3)), (2, (2,))])
def test_ad_multisets_match_breadth_first_reference(n, sigma):
    pd = parabolic_decompose(n, sigma)
    bases = ([elem for _, elem, _ in pd.homogeneous_basis] + list(pd.f_basis)
             + list(pd.center_basis))
    # the sum elements (W_a(S1))_ubar that the D part of the series expands,
    # for the highest-root element a
    top = matrix_unit(n, 1, n + 1)
    bases += [y for level in summed_per_multiset(breadth_first_ad_levels(pd, top))
              for _, x in level if not (y := pd.project(x, "ubar")).is_zero()]
    # scalar multiples share their primitive class's levels and scale them by k
    bases += [top.scale(-2), bases[-1].scale(3), top.scale(Fraction(-2, 3))]
    for _ in range(2):  # cold misses first, then cache hits
        for base in bases:
            k, levels, heads = _ad_multisets(pd, base)
            scaled = [[(s, w.scale(k)) for s, w in level] for level in levels]
            scaled_heads = [(s, v.scale(k)) for s, v in heads]
            if in_ubar(pd, base):
                # full levels, and the base is its own first step into ubar
                assert scaled == summed_per_multiset(breadth_first_ad_levels(pd, base))
                assert scaled_heads == [((), base)]
            else:
                assert (scaled, scaled_heads) == breadth_first_p_side(pd, base)
    # a hit returns the stored tuples themselves, not a recomputed copy
    assert (_ad_multisets(pd, top)[1] is _ad_multisets(pd, top.scale(-2))[1]
            is pd.ad_multisets_cache[top][0])
    assert (_ad_multisets(pd, top)[2] is _ad_multisets(pd, top.scale(-2))[2]
            is pd.ad_multisets_cache[top][1])
    assert _ad_multisets(pd, top.scale(Fraction(-2, 3)))[0] == Fraction(-2, 3)


def test_ad_multisets_cache_is_keyed_by_primitive_class():
    # Building every sl(5) Borel operator memoizes one entry per primitive
    # class: int entries with gcd 1, positive at the smallest (i, j).  The
    # recursion meets 174 distinct nonzero elements; zero is never a key.
    # The 10 classes in ubar are the f-basis elements, and only they keep
    # their full levels.
    pd = parabolic_decompose(4, ())
    real = Realization(pd, character_module(pd))
    for _, elem, _ in pd.homogeneous_basis:
        real.operator(elem, 0)
    ubar = []
    for p, (levels, heads) in pd.ad_multisets_cache.items():
        values = list(p.entries.values())
        assert all(type(c) is int for c in values)
        assert gcd(*values) == 1
        assert p.entries[min(p.entries)] > 0
        if heads == (((), p),):
            ubar.append(p)
        else:
            assert all(not in_ubar(pd, w) for level in levels for _, w in level)
    assert len(pd.ad_multisets_cache) == 30
    assert sorted(ubar, key=LieElement.key) == sorted(pd.f_basis, key=LieElement.key)


def test_series_table_tail_sums_close_in_bernoulli_numbers():
    # T[k][m] sums E[i][k - i] over the splits i >= m: m = 0 sums all of
    # exp(-x) F(x) = x/(e^x - 1), m = 1 all of (exp(-x) - 1) F(x) = -x, and
    # m = k is the exponential alone
    for cap in (0, 1, 2, 6, 2 * MAX_RANK + 2):
        L, T, G = rz._series_table(cap)
        assert [len(row) for row in T] == list(range(1, cap + 2))
        assert all(type(c) is int for row in T for c in row + G)
        for k in range(cap + 1):
            assert T[k][0] == L * bernoulli(k) / factorial(k)
            assert T[k][k] == L * Q((-1) ** k, factorial(k))
            assert G[k] == L * Q(1, factorial(k + 1))
            if k >= 1:
                assert T[k][1] == -L * (k == 1)
            for m in range(k + 1):
                assert T[k][m] == L * sum(Q((-1) ** (k - j), factorial(k - j))
                                          * (-1) ** j * bernoulli(j) / factorial(j)
                                          for j in range(k - m + 1))


SMALL_PDS = [parabolic_decompose(n, sigma)
             for n in (1, 2, 3)
             for k in range(n + 1)
             for sigma in itertools.combinations(range(1, n + 1), k)]


MIXED_HEIGHT_PDS = [parabolic_decompose(4, sigma) for sigma in ((2, 4), (3,))]


@pytest.mark.parametrize("pd", SMALL_PDS + [parabolic_decompose(4, ())] + MIXED_HEIGHT_PDS,
                         ids=repr)
def test_series_expand_matches_direct_formula(pd):
    # the first-entry D part and the p-side A part equal the double loop
    # over (W_a(S1))_ubar and the projection of every W_a(S) to p, and the C
    # part read off a's own sums equals the pairing of every f-class sum with
    # a, each summed straight into terms as the reference's canonical pass
    # sums its raw terms
    elems = [el for _, el, _ in pd.homogeneous_basis] + list(pd.center_basis)
    for a in elems:
        for kind in ("D", "A", "C"):
            assert series_expand(pd, a, kind) == series_terms_reference(pd, a, kind), (a, kind)


@pytest.mark.parametrize("pd", SMALL_PDS + [parabolic_decompose(4, ())], ids=repr)
def test_general_assembly_matches_reference_assembly(pd):
    # one pass per kind gives the terms of the former assembly: raw terms
    # from the direct formula, canonicalized and summed together
    elems = [el for _, el, _ in pd.homogeneous_basis]
    elems += list(pd.center_basis) + [el.scale(Q(-2, 3)) for el in elems]
    for a in elems:
        assert build_operator_general(pd, a, 2).terms == operator_terms_reference(pd, a), a


@pytest.mark.parametrize("n, sigma", [(3, ()), (4, (2, 4))])
def test_series_c_part_expands_only_the_elements_own_class(n, sigma):
    # C reads a's own sums, so it memoizes exactly the classes that a's
    # expansion meets and no f-basis class beyond them
    for _, elem, _ in parabolic_decompose(n, sigma).homogeneous_basis:
        via_c, direct = parabolic_decompose(n, sigma), parabolic_decompose(n, sigma)
        series_expand(via_c, elem, "C")
        _ad_multisets(direct, elem)
        assert via_c.ad_multisets_cache.keys() == direct.ad_multisets_cache.keys(), elem


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_series_expand_matches_direct_formula_on_combinations(data):
    pd = data.draw(st.sampled_from(LINEARITY_PDS))
    height = data.draw(st.sampled_from(sorted({h for *_, h in pd.homogeneous_basis})))
    pool = [el for _, el, h in pd.homogeneous_basis if h == height]
    if height == 0:
        pool += list(pd.center_basis)
    coeffs = data.draw(st.lists(RATIONALS, min_size=len(pool), max_size=len(pool)))
    a = sum((el.scale(c) for el, c in zip(pool, coeffs)), zero_element(pd.n))
    for kind in ("D", "A", "C"):
        assert series_expand(pd, a, kind) == series_terms_reference(pd, a, kind)


@pytest.mark.parametrize("n, sigma", [(4, ()), (3, (2, 3)), (2, ())])
def test_series_expand_words_are_multisets(n, sigma):
    # every term's slots are a sorted multiset; a central term's mode factor
    # is the first slot of its family
    heads = {"D": "create", "A": "levi", "C": "central"}
    pd = parabolic_decompose(n, sigma)
    for _, elem, _ in pd.homogeneous_basis:
        for kind in ("D", "A", "C"):
            terms = series_expand(pd, elem, kind)
            for t in terms:
                assert list(t.annihilators) == sorted(t.annihilators)
                assert t.head_kind == heads[kind]
                if kind == "C":
                    mf = t.mode_factor
                    assert t.annihilators.index(t.annihilators[mf]) == mf
                else:
                    assert t.mode_factor is None
                assert type(t.coeff) is Fraction and t.coeff != 0
            # exactly one term per key, in canonical order
            keys = [t.fields()[1:] for t in terms]
            assert len(set(keys)) == len(keys)
            assert terms == sorted(terms, key=rz._term_sort_key)


# --- canonical form -------------------------------------------------------------------

def test_canonical_terms_merge_split_cancel_and_order():
    pd = PD_SL3_BOREL
    levi = cartan_h(2, 1).scale(2) + matrix_unit(2, 1, 3).scale(-3)
    raw = [
        # permuted slot orders of one pattern merge
        Term(Q(1), (1, 0), "create", 0),
        Term(Q(2), (0, 1), "create", 0),
        # the mode-factor slot comes first among slots of its family
        Term(Q(1), (1, 0, 0), "central", mode_factor=2),
        Term(Q(1, 2), (0, 1, 0), "central", mode_factor=0),
        Term(Q(5), (0, 1, 0), "central", mode_factor=1),
        # a Levi head splits into the shared basis units
        Term(Q(1), (), "levi", levi),
        # sums that cancel are dropped, and so is a zero term
        Term(Q(1), (2,), "create", 1),
        Term(Q(-1), (2,), "create", 1),
        Term(Q(1), (0,), "levi", cartan_h(2, 2)),
        Term(Q(-1), (0,), "levi", cartan_h(2, 2)),
        Term(Q(0), (1,), "create", 2),
    ]
    expected = (
        Term(Q(2), (), "levi", cartan_h(2, 1)),
        Term(Q(-3), (), "levi", matrix_unit(2, 1, 3)),
        Term(Q(3), (0, 1), "create", 0),
        Term(Q(3, 2), (0, 0, 1), "central", mode_factor=0),
        Term(Q(5), (0, 0, 1), "central", mode_factor=2),
    )
    got = _canonical_terms(pd, raw)
    assert got == expected
    assert [unit_name(t.head) for t in got[:2]] == ["H1", "E1.3"]
    assert got[0].head is cartan_h(2, 1) and got[1].head is matrix_unit(2, 1, 3)
    # terms compare and hash by value, so they serve as dict keys
    index = {term: k for k, term in enumerate(expected)}
    assert index[Term(Q(3), (0, 1), "create", 0)] == 2
    assert Term(Q(3), (0, 1), "create", 1) not in index
    # the final order does not depend on the order of the raw terms
    assert _canonical_terms(pd, raw[::-1]) == expected
    assert _canonical_terms(pd, raw[3:] + raw[:3]) == expected


# --- operator assembly: closed forms ----------------------------------------------

def sl2_closed_form_operator(name: str, m: int) -> NormalOrderedOperator:
    """Hand transcription of the rank-one closed formulas."""
    if name == "f":
        raw = [Term(Q(-1), (), "create", 0)]
    elif name == "h":
        raw = [Term(Q(2), (0,), "create", 0),
               Term(Q(1), (), "levi", H1)]
    elif name == "e":
        raw = [Term(Q(1), (0, 0), "create", 0),
               Term(Q(-1), (0,), "central", mode_factor=0),
               Term(Q(1), (0,), "levi", H1),
               Term(Q(1), (), "levi", E_SL2)]
    else:
        raise KeyError(name)
    return NormalOrderedOperator(_canonical_terms(PD_SL2, raw), m)


@pytest.mark.parametrize("name,elem", [("f", F_SL2), ("h", H1), ("e", E_SL2)])
@pytest.mark.parametrize("m", [-2, 0, 3])
def test_sl2_engines_match_closed_forms_structurally(name, elem, m):
    expected = sl2_closed_form_operator(name, m)
    explicit = build_operator_explicit_sl(PD_SL2, elem, m)
    general = build_operator_general(PD_SL2, elem, m)
    assert explicit.terms == expected.terms
    assert general.terms == expected.terms
    window = instantiate_operator(expected, 3)
    assert instantiate_operator(explicit, 3) == window
    assert instantiate_operator(general, 3) == window


@pytest.mark.parametrize("window", [1, 3])
def test_instantiate_operator_spans_the_window_edge_to_edge(window):
    # the structural comparisons above rest on this oracle: every slot mode
    # lies in [-window, window], and both ends occur
    op = build_operator_general(PD_SL2, E_SL2, 0)
    modes = {n for annih, _head in instantiate_operator(op, window) for _alpha, n in annih}
    assert modes == set(range(-window, window + 1))


def test_explicit_f_single_creator():
    op = build_operator_explicit_sl(PD_SL3_MAX, PD_SL3_MAX.f_basis[1], 4)
    assert len(op.terms) == 1
    t = op.terms[0]
    assert (t.coeff, t.annihilators, t.head_kind, t.head) == (Q(-1), (), "create", 1)
    assert op.mode == 4


def test_explicit_h_has_dilation_terms():
    h = diag_element(2, [1, Q(-1, 2), Q(-1, 2)])
    op = build_operator_explicit_sl(PD_SL3_MAX, h, 1)
    creators = [t for t in op.terms if t.head_kind == "create"]
    assert len(creators) == 2
    for t in creators:
        assert t.coeff == Q(3, 2)  # 1 + 1/n with n = 2
        assert t.annihilators == (t.head,)
    levis = [t for t in op.terms if t.head_kind == "levi"]
    # h = H1 + (1/2) H2 in the canonical Cartan units
    assert {(unit_name(t.head), t.coeff) for t in levis} == {("H1", Q(1)), ("H2", Q(1, 2))}


def test_explicit_h_A_pattern():
    # Levi-block matrix with a single off-diagonal unit
    a = matrix_unit(2, 2, 3)
    op = build_operator_explicit_sl(PD_SL3_MAX, a, 2)
    creators = [t for t in op.terms if t.head_kind == "create"]
    assert len(creators) == 1
    t = creators[0]
    assert t.coeff == Q(-1) and t.annihilators == (1,) and t.head == 0
    assert op.mode == 2


def test_explicit_rejects_wrong_parabolic():
    with pytest.raises(ValueError):
        build_operator_explicit_sl(PD_SL3_BOREL, PD_SL3_BOREL.f_basis[0], 0)


def test_general_f_in_depth_two_has_correction():
    op = build_operator_general(PD_SL3_BOREL, PD_SL3_BOREL.f_basis[0], 0)
    assert len(op.terms) == 2
    plain, corr = op.terms
    assert (plain.coeff, plain.annihilators, plain.head) == (Q(-1), (), 0)
    assert (corr.coeff, corr.annihilators, corr.head) == (Q(1, 2), (1,), 2)


def test_zero_element_gives_zero_operator():
    from affinefock.lie import zero
    op = build_operator_general(PD_SL2, zero(1), 0)
    assert op.terms == ()


# --- applying operators -------------------------------------------------------------

def test_apply_h_on_single_variable():
    lam = Q(7)
    mod = sl2_char(lam)
    real = Realization(PD_SL2, mod)
    for n_mode in (-2, 0, 1):
        for j in (-1, 0, 2):
            got = real.act(H1, n_mode, mono_state([(0, j, 1)]))
            expected = mono_state([(0, j + n_mode, 1)], coeff=Q(-2))
            if n_mode == 0:
                expected = expected + mono_state([(0, j, 1)], coeff=lam)
            assert got == expected


def test_apply_e_on_single_variable_character():
    lam = Q(5, 2)
    mod = sl2_char(lam)
    real = Realization(PD_SL2, mod)
    for n_mode in (-1, 0, 2):
        for j in (-2, 0, 1):
            got = real.act(E_SL2, n_mode, mono_state([(0, j, 1)]))
            # -1 (x) sigma(h_{j+n}) v with kappa = 0
            expected = FockState.vacuum(0).scale(-lam) if j + n_mode == 0 \
                else FockState.zero()
            assert got == expected


def test_apply_e_on_single_variable_heisenberg():
    lam, kappa = Q(1, 3), Q(2)
    mod = sl2_heis(lam, kappa)
    real = Realization(PD_SL2, mod)
    for n_mode in (-1, 1, 2):
        j = -n_mode
        got = real.act(E_SL2, n_mode, mono_state([(0, j, 1)]))
        sigma_h = vacuum_expected(real, H1, j + n_mode).scale(-1)
        expected = sigma_h - FockState.vacuum(0).scale(Q(n_mode) * kappa)
        assert got == expected, (n_mode, j)


def test_apply_e_creates_in_v_factor():
    mod = sl2_heis(Q(0), Q(1))
    real = Realization(PD_SL2, mod)
    got = real.act(E_SL2, 0, mono_state([(0, -3, 1)]))
    # sigma(h_{-3}) creates depth-3 content in V
    idx = mod.intern(((0, 3, 1),))
    assert got == FockState({((), idx): Q(-1)})


def test_apply_on_zero_state():
    real = Realization(PD_SL2, sl2_char(Q(1)))
    assert real.act(E_SL2, 2, FockState.zero()).is_zero()


def test_double_annihilator_multiplicity():
    mod = sl2_char(Q(0))
    real = Realization(PD_SL2, mod)
    got = real.act(E_SL2, 1, mono_state([(0, 2, 2)]))
    # ordered slot assignments (2,2) give factor 2, creator mode 2+2+1
    assert got.terms[(mono_from_pairs([(0, 5, 1)]), 0)] == Q(2)


# --- apply_operator against an independent reference -----------------------------------

@cache
def reference_case(name):
    """(realization, V indices to draw from) for each property-test setting."""
    if name in ("sl2-heisenberg", "sl2-heisenberg-explicit"):
        mod = sl2_heis(Q(2, 3), Q(-3, 2))
        vs = [mod.intern(vm) for vm in ((), ((0, 1, 1),), ((0, 1, 2),), ((0, 2, 1),))]
        engine = "explicit" if name.endswith("explicit") else "general"
        return Realization(PD_SL2, mod, engine), vs
    if name in ("sl3-evaluation", "sl3-evaluation-explicit"):
        mod = evaluation_module(PD_SL3_MAX, natural_block_rep(PD_SL3_MAX, 1), Q(2))
        engine = "explicit" if name.endswith("explicit") else "general"
        return Realization(PD_SL3_MAX, mod, engine), list(range(mod.dim))
    pd = parabolic_decompose(3, {2, 3})
    w1 = pd.center_basis[0]
    mod = character_module(pd, [(w1, 0, Q(7, 3)), (w1, 2, Q(-1))])
    return Realization(pd, mod), [0]


@pytest.mark.parametrize("name", ["sl2-heisenberg", "sl2-heisenberg-explicit",
                                  "sl3-evaluation", "sl3-evaluation-explicit",
                                  "sl4-character"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_apply_operator_matches_reference(name, data):
    real, vs = reference_case(name)
    pd = real.pd
    _, elem, _ = data.draw(st.sampled_from(pd.homogeneous_basis))
    op = real.operator(elem, data.draw(st.integers(-2, 2)))
    # few families and modes, exponents up to 3: slots of one family meet the
    # same variable repeatedly, and the central constraint sum is reachable
    monomial = st.dictionaries(
        st.tuples(st.integers(0, pd.num_alpha - 1), st.integers(-2, 2)),
        st.integers(1, 3), max_size=3,
    ).map(lambda d: mono_from_pairs((a, n, e) for (a, n), e in d.items()))
    coeff = st.builds(Q, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    terms = data.draw(st.dictionaries(st.tuples(monomial, st.sampled_from(vs)),
                                      coeff, min_size=1, max_size=3))
    state = FockState(terms)
    assert apply_operator(op, state, real.module) == reference_apply(op, state, real.module)


def test_operator_hook_runs_once_per_key():
    calls = []

    def hook(a, m, op):
        calls.append((a, m))
        return op.with_flipped_term(0)

    real = Realization(PD_SL2, sl2_char(Q(1)), operator_hook=hook)
    state = mono_state([(0, 1, 2)])
    for _ in range(3):
        real.act(E_SL2, 1, state)
        real.act(F_SL2, 0, state)
    assert calls == [(E_SL2, 1), (F_SL2, 0)]


def test_sl5_borel_operators_golden_digest():
    """All 24 sl(5) Borel basis operators at mode 1, rendered and hashed as the
    construction benchmark (perfbench/child.py, run_build) does."""
    pd = parabolic_decompose(4, ())
    real = Realization(pd, character_module(pd))
    text = "".join(f"{name} 1\n{real.operator(elem, 1).render()}\n"
                   for name, elem, _ in pd.homogeneous_basis)
    assert len(pd.homogeneous_basis) == 24
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f28cbae0a47bb26e32de8ae0ec2150a2e7c9fc0210d13e528ba353302d1f1f81")


def test_every_small_parabolic_renders_golden_digest():
    """Every homogeneous basis operator of every parabolic of sl(2)..sl(4),
    on the general engine and, where sigma = {2..n}, the closed-form engine.
    Each template is built at mode 0 and rendered at mode -1."""
    text = []
    for n in (1, 2, 3):
        for k in range(n + 1):
            for sigma in itertools.combinations(range(1, n + 1), k):
                pd = parabolic_decompose(n, sigma)
                engines = ["general"]
                if set(sigma) == set(range(2, n + 1)):
                    engines.append("explicit")
                for engine in engines:
                    real = Realization(pd, character_module(pd), engine)
                    for name, elem, _ in pd.homogeneous_basis:
                        real.operator(elem, 0)
                        text.append(f"{n} {sigma} {engine} {name}\n"
                                    f"{real.operator(elem, -1).render()}\n")
    assert len(text) == 184
    assert hashlib.sha256("".join(text).encode()).hexdigest() == (
        "74dd8f8ab282b43a0e71a812b7b0a1001df12df48aa55247f28b15fb038eb93b")


def test_every_sl5_parabolic_renders_golden_digest():
    """Every homogeneous basis operator of each of the 16 parabolics of sl(5),
    the first rank whose Levis mix blocks of different sizes, in the format of
    the sl(2)..sl(4) digest: the general engine, and the closed-form engine
    where sigma = {2..4}; built at mode 0 and rendered at mode -1."""
    text = []
    for k in range(5):
        for sigma in itertools.combinations(range(1, 5), k):
            pd = parabolic_decompose(4, sigma)
            engines = ["general"]
            if set(sigma) == {2, 3, 4}:
                engines.append("explicit")
            for engine in engines:
                real = Realization(pd, character_module(pd), engine)
                for name, elem, _ in pd.homogeneous_basis:
                    real.operator(elem, 0)
                    text.append(f"4 {sigma} {engine} {name}\n"
                                f"{real.operator(elem, -1).render()}\n")
    assert len(text) == 408
    assert hashlib.sha256("".join(text).encode()).hexdigest() == (
        "afed394adeae7df1e18ac11c0693750cc4bd59bf25d0f86358bf494fc363b1cc")


def test_every_sl6_parabolic_renders_golden_digest():
    """Every homogeneous basis operator of each of the 32 parabolics of sl(6),
    whose Levis mix heights up to 5, in the format of the sl(5) digest: the
    general engine, and the closed-form engine where sigma = {2..5}; built at
    mode 0 and rendered at mode -1."""
    text = []
    for k in range(6):
        for sigma in itertools.combinations(range(1, 6), k):
            pd = parabolic_decompose(5, sigma)
            engines = ["general"]
            if set(sigma) == {2, 3, 4, 5}:
                engines.append("explicit")
            for engine in engines:
                real = Realization(pd, character_module(pd), engine)
                for name, elem, _ in pd.homogeneous_basis:
                    real.operator(elem, 0)
                    text.append(f"5 {sigma} {engine} {name}\n"
                                f"{real.operator(elem, -1).render()}\n")
    assert len(text) == 1155
    assert hashlib.sha256("".join(text).encode()).hexdigest() == (
        "b415f6cefd3caa4d6c838af0203e61c085c1628c43267c15065ea2dbc2b769de")


def test_sl6_borel_highest_root_golden_digest():
    """E1.6 on sl(6) Borel, the longest series of rank 5: 675 canonical terms
    at each mode, rendered and hashed."""
    pd = parabolic_decompose(5, ())
    elem = {name: el for name, el, _ in pd.homogeneous_basis}["E1.6"]
    expected = {
        -2: "7e8e7e79bd3b060d061066f7d00ee11a44962e4132c81b96628b31601c0908b8",
        1: "efe681762cfacc3abe3f14f0119c50105bfa8b42f9adb3d979938d07edb5bb8c",
    }
    for m, digest in expected.items():
        op = build_operator_general(pd, elem, m)
        assert len(op.terms) == 675
        assert hashlib.sha256(op.render().encode()).hexdigest() == digest


def test_sl5_borel_operators_match_benchmark_reference_digests():
    """All seven modes of the construction benchmark, -3..3, from one
    Realization, hashed per mode against perfbench/reference.json."""
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())["build-sl5-borel"]
    pd = parabolic_decompose(4, ())
    real = Realization(pd, character_module(pd))
    assert len(pd.homogeneous_basis) == ref["operators_per_mode"]
    for mode, digest in ref["sha256_by_mode"].items():
        text = "".join(f"{name} {mode}\n{real.operator(elem, int(mode)).render()}\n"
                       for name, elem, _ in pd.homogeneous_basis)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, mode
    assert sorted(map(int, ref["sha256_by_mode"])) == list(range(-3, 4))


def test_fractional_elements_render_golden_digest():
    """Elements with non-integral entries, which the series writes as A/d
    with d > 1: the Levi-center basis and -2/3 times every basis element, on
    every parabolic of sl(2)..sl(4) and both engines where they apply.  Each
    template is built at mode 0 and rendered at mode 2."""
    text = []
    for n in (1, 2, 3):
        for k in range(n + 1):
            for sigma in itertools.combinations(range(1, n + 1), k):
                pd = parabolic_decompose(n, sigma)
                engines = ["general"]
                if set(sigma) == set(range(2, n + 1)):
                    engines.append("explicit")
                elems = list(zip(pd.center_names, pd.center_basis)) + [
                    (f"-2/3*{name}", el.scale(Q(-2, 3)))
                    for name, el, _ in pd.homogeneous_basis]
                for engine in engines:
                    real = Realization(pd, character_module(pd), engine)
                    for name, elem in elems:
                        real.operator(elem, 0)
                        text.append(f"{n} {sigma} {engine} {name}\n"
                                    f"{real.operator(elem, 2).render()}\n")
    assert len(text) == 204
    assert hashlib.sha256("".join(text).encode()).hexdigest() == (
        "1df371e450abd669364c365a1768c9bfb6e3a8e8b2c7e4b8c5975664c6747a6a")


def test_cartan_fock_actions_golden_digest():
    """Realization.act of every basis, Levi-center and central generator at
    modes -2..2 on level-kappa Cartan Fock modules of sl(2)..sl(4), on states
    whose V-monomials mix several Cartan directions.  Each result is hashed
    as its canonical text and as its ordered (key, coefficient) list, so the
    registry indices and the term order are pinned too."""
    text = []
    for n, level in ((1, Q(3, 2)), (2, Q(-2)), (3, Q(5, 3))):
        pd = parabolic_decompose(n, ())
        mod = heisenberg_fock(pd, [Q(k + 1, 2) for k in range(n)], level)
        real = Realization(pd, mod)
        vmonos = [[], [[0, 1, 1], [n - 1, 1, 2]],
                  [[k, 1 + k % 2, 1] for k in range(n)] + [[0, 2, 1]]]
        fock = [[], [[0, 1, 1]], [[pd.num_alpha - 1, -1, 1], [0, 2, 2]]]
        states = [FockState.of({(mono_from_pairs([tuple(t) for t in f]),
                                 mod.v_from_obj(v)): Q(k + 1, 1 + k % 3)})
                  for k, (f, v) in enumerate(itertools.product(fock, vmonos))]
        gens = ([(name, el) for name, el, _ in pd.homogeneous_basis]
                + list(zip(pd.center_names, pd.center_basis)) + [("c", CENTRAL)])
        for name, el in gens:
            for m in range(-2, 3):
                for si, s in enumerate(states):
                    res = real.act(el, m, s)
                    text.append(f"{n} {name} {m} {si}\n{state_to_text(res, mod)}"
                                f"{list(res.terms.items())!r}\n")
    assert len(text) == 5 * 9 * (5 + 11 + 19)
    assert hashlib.sha256("".join(text).encode()).hexdigest() == (
        "ab0f541a994c180d123324329d749324cdc73217579caf34c7f0618257b2d07e")


def test_flipped_term_index_out_of_range():
    op = build_operator_general(PD_SL2, E_SL2, 1)
    for idx in (-1, len(op.terms)):
        with pytest.raises(ValueError):
            op.with_flipped_term(idx)


# --- act: central element and vacuum property -----------------------------------------

def test_act_central_scales_by_level():
    mod = sl2_heis(Q(1), Q(-3, 2))
    real = Realization(PD_SL2, mod)
    s = mono_state([(0, 1, 1)], coeff=Q(4))
    assert real.act(CENTRAL, 0, s) == s.scale(Q(-3, 2))


def test_act_f_on_vacuum():
    real = Realization(PD_SL2, sl2_char(Q(2)))
    assert real.act(F_SL2, 0, FockState.vacuum(0)) == mono_state([(0, 0, 1)], coeff=Q(-1))


def test_realization_rejects_a_module_of_another_parabolic():
    with pytest.raises(ValueError, match="different parabolic"):
        Realization(PD_SL3_MAX, sl2_char())


def test_realization_rejects_an_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine 'odd'"):
        Realization(PD_SL2, sl2_char(), engine="odd")


def test_vacuum_property_all_kinds():
    mods = [
        (PD_SL2, sl2_heis(Q(1, 2), Q(1))),
        (PD_SL2, sl2_char(Q(3))),
        (PD_SL3_MAX, evaluation_module(PD_SL3_MAX, natural_block_rep(PD_SL3_MAX, 1), Q(1))),
    ]
    for pd, mod in mods:
        real = Realization(pd, mod)
        vac = FockState.vacuum(0)
        for k, elem in zip(pd.levi_positions, pd.levi_basis):
            for m in range(-3, 4):
                assert real.act(elem, m, vac) == vacuum_expected(real, elem, m), \
                    (mod.kind, pd.algebra.names[k], m)
        for elem in pd.e_basis:
            for m in range(-3, 4):
                assert real.act(elem, m, vac).is_zero()


# --- bracket checks ----------------------------------------------------------------

def test_check_bracket_e_f_heisenberg():
    real = Realization(PD_SL2, sl2_heis(Q(1), Q(1)))
    for m in (-2, 1, 3):
        ok, residual = check_bracket(real, E_SL2, F_SL2, m, -m, FockState.vacuum(0))
        assert ok, residual


def test_check_bracket_h_h_detects_level():
    real = Realization(PD_SL2, sl2_heis(Q(0), Q(5, 3)))
    state = mono_state([(0, 1, 1)])
    ok, residual = check_bracket(real, H1, H1, 2, -2, state)
    assert ok, residual
    # the relation really carries the central term: breaking kappa breaks it
    lhs = real.act(H1, 2, real.act(H1, -2, state)) - real.act(H1, -2, real.act(H1, 2, state))
    assert lhs == state.scale(2 * form(H1, H1) * Q(5, 3))


def test_check_bracket_f_f_trivial():
    real = Realization(PD_SL2, sl2_char(Q(1)))
    s = mono_state([(0, 2, 1), (0, -1, 1)])
    for m, n in [(0, 0), (1, -1), (2, 3)]:
        ok, _ = check_bracket(real, F_SL2, F_SL2, m, n, s)
        assert ok


def test_check_bracket_with_central_argument():
    real = Realization(PD_SL2, sl2_heis(Q(1), Q(2)))
    ok, _ = check_bracket(real, CENTRAL, E_SL2, 0, 1, mono_state([(0, 1, 1)]))
    assert ok


def test_flipped_term_breaks_bracket():
    mod = sl2_heis(Q(1), Q(1))
    base = build_operator_general(PD_SL2, E_SL2, 1)
    for idx in range(len(base.terms)):
        term = base.terms[idx]
        if term.head_kind == "levi" and PD_SL2.project(term.head, "u") == term.head:
            # nilradical Levi heads act by zero on every supported module,
            # so a sign flip there is invisible to action checks
            continue

        def hook(a, m, op, idx=idx):
            if a == E_SL2 and m == 1:
                return op.with_flipped_term(idx)
            return op

        real = Realization(PD_SL2, mod, operator_hook=hook)
        smp = Sampler(77)
        states = smp.fock_states(mod, 5, 3, 3)
        failed = False
        for s in states:
            for n in (-2, -1, 0, 1):
                for b in (E_SL2, F_SL2, H1):
                    ok, _ = check_bracket(real, E_SL2, b, 1, n, s)
                    if not ok:
                        failed = True
        assert failed, f"flipping term {idx} went unnoticed"


# --- homomorphism smoke sweep (full sweep lives in the acceptance suite) -----------

def test_bracket_sweep_smoke_sl3_maximal():
    pd = PD_SL3_MAX
    mod = evaluation_module(pd, natural_block_rep(pd, 1), Q(1))
    real = Realization(pd, mod)
    smp = Sampler(13)
    states = smp.fock_states(mod, 3, 3, 2)
    basis = [el for _, el, _ in pd.homogeneous_basis]
    for a in basis[:4]:
        for b in basis[-4:]:
            for m, n in [(0, 1), (-1, 1), (2, -2)]:
                for s in states:
                    ok, res = check_bracket(real, a, b, m, n, s)
                    assert ok, (a, b, m, n, res)


def test_bracket_sweep_smoke_sl3_borel_character():
    pd = PD_SL3_BOREL
    mod = character_module(pd, [(cartan_h(2, 1), 0, Q(2)), (cartan_h(2, 2), 0, Q(-1, 2))])
    real = Realization(pd, mod)
    smp = Sampler(14)
    states = smp.fock_states(mod, 3, 2, 2)
    basis = [el for _, el, _ in pd.homogeneous_basis]
    pairs = [(basis[i], basis[(i * 5 + 3) % len(basis)]) for i in range(len(basis))]
    for a, b in pairs:
        for m, n in [(1, -1), (0, 2)]:
            for s in states:
                ok, res = check_bracket(real, a, b, m, n, s)
                assert ok, (a, b, m, n, res)


# --- engine agreement ----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_engines_agree_structurally(n):
    # on every maximal parabolic, Sigma = {1..n} minus k, for the basis, the
    # Levi center and a fractional multiple of each basis element; every
    # canonical Levi head is a shared basis unit, which the module's action
    # memo and `acts_by_zero` meet by identity
    for k in range(1, n + 1):
        pd = parabolic_decompose(n, set(range(1, n + 1)) - {k})
        basis = [elem for _, elem, _ in pd.homogeneous_basis]
        units = {id(u) for u in pd.algebra.basis}
        for elem in basis + list(pd.center_basis) + [b.scale(Q(-2, 3)) for b in basis]:
            for m in (-1, 0, 2):
                gen = build_operator_general(pd, elem, m)
                exp = build_operator_explicit_sl(pd, elem, m)
                assert gen.terms == exp.terms, (n, k, elem, m)
                for t in gen.terms + exp.terms:
                    assert t.head_kind != "levi" or id(t.head) in units, (n, k, elem, t)


def test_engines_agree_on_states():
    pd = PD_SL3_MAX
    mod = evaluation_module(pd, natural_block_rep(pd, 1), Q(1))
    smp = Sampler(15)
    states = smp.fock_states(mod, 8, 3, 3)
    gen = Realization(pd, mod, engine="general")
    exp = Realization(pd, mod, engine="explicit")
    for _, elem, _ in pd.homogeneous_basis:
        for m in (-2, 0, 1):
            for s in states:
                assert gen.act(elem, m, s) == exp.act(elem, m, s)


def test_explicit_engine_rejected_off_parabolic():
    with pytest.raises(ValueError):
        Realization(PD_SL3_BOREL, character_module(PD_SL3_BOREL), engine="explicit")


# --- PBW leading term -------------------------------------------------------------

def test_pbw_length_one():
    real = Realization(PD_SL2, sl2_char(Q(1)))
    assert pbw_leading_check(real, [(0, LaurentPoly.monomial(0))])
    assert pbw_leading_check(real, [(0, LaurentPoly({2: Q(1), -1: Q(3)}))])


def test_pbw_length_zero():
    real = Realization(PD_SL2, sl2_char(Q(1)))
    assert pbw_leading_check(real, [])


def test_pbw_length_two_with_bernoulli_correction():
    mod = character_module(PD_SL3_BOREL)
    real = Realization(PD_SL3_BOREL, mod)
    seq = [(0, LaurentPoly.monomial(1)), (1, LaurentPoly.monomial(-2))]
    assert pbw_leading_check(real, seq)
    # the lower-degree correction is really present
    state = FockState.vacuum(0)
    for alpha, g in reversed(seq):
        state = act_laurent(real, PD_SL3_BOREL.f_basis[alpha], g, state)
    assert state != FockState({(mono_from_pairs([(0, 1, 1), (1, -2, 1)]), 0): Q(1)})


def test_pbw_length_three_sl3():
    mod = character_module(PD_SL3_BOREL)
    real = Realization(PD_SL3_BOREL, mod)
    seq = [(2, LaurentPoly.monomial(0)), (0, LaurentPoly.monomial(1)),
           (1, LaurentPoly.monomial(-1))]
    assert pbw_leading_check(real, seq)


# --- grading ---------------------------------------------------------------------------

def test_act_shifts_mode_and_weight():
    from oracles import h_weight, total_mode
    mod = sl2_heis(Q(2), Q(1))
    real = Realization(PD_SL2, mod)
    s = mono_state([(0, 2, 1)])
    for name, elem, _h in PD_SL2.homogeneous_basis:
        for m in (-2, 0, 1):
            t = real.act(elem, m, s)
            if t.is_zero():
                continue
            assert total_mode(t, mod) == total_mode(s, mod) + m, (name, m)
            w0 = h_weight(s, H1, PD_SL2, mod)
            w1 = h_weight(t, H1, PD_SL2, mod)
            alpha_of = {"E1.2": Q(2), "E2.1": Q(-2), "H1": Q(0)}
            assert w1 == w0 + alpha_of[name], (name, m)


# --- cache and determinism ----------------------------------------------------------

def test_operator_cache_returns_same_object():
    real = Realization(PD_SL2, sl2_char(Q(1)))
    op1 = real.operator(E_SL2, 2)
    op2 = real.operator(E_SL2, 2)
    assert op1 is op2


def test_operator_build_is_deterministic():
    a = build_operator_general(PD_SL3_BOREL, matrix_unit(2, 1, 3), 1)
    b = build_operator_general(PD_SL3_BOREL, matrix_unit(2, 1, 3), 1)
    assert a.terms == b.terms
    assert a.render() == b.render()


@pytest.mark.parametrize("n, sigma, engine", [
    (1, (), "general"), (1, (), "explicit"), (2, (2,), "general"),
    (2, (2,), "explicit"), (2, (), "general"), (3, (2, 3), "general"),
    (3, (2, 3), "explicit"), (3, (1, 3), "explicit")])
def test_operator_terms_do_not_depend_on_the_mode(n, sigma, engine):
    pd = parabolic_decompose(n, sigma)
    build = build_operator_general if engine == "general" else build_operator_explicit_sl
    real = Realization(pd, character_module(pd), engine)
    for _, elem, _ in pd.homogeneous_basis:
        terms = build(pd, elem, 0).terms
        for m in range(-3, 4):
            op = build(pd, elem, m)
            assert op.mode == m
            assert op.terms == terms
            served = real.operator(elem, m)
            assert served.mode == m and served.terms == terms
            # every mode of one element shares the template's terms, and so
            # one kernel on the module; an operator built apart has its own
            # terms, and still compares equal
            assert served.terms is real.operator(elem, 0).terms
            assert real.module.kernel(served.terms) is real.module.kernel(
                real.operator(elem, 0).terms)
            assert op.terms is not served.terms
            assert op == served and hash(op) == hash(served)


def test_bracket_sweep_builds_each_element_once(monkeypatch):
    builds = []
    build = rz.build_operator_general

    def counting_build(pd, a, m):
        builds.append(a)
        return build(pd, a, m)

    monkeypatch.setattr(rz, "build_operator_general", counting_build)
    real = Realization(PD_SL2, sl2_heis(Q(1), Q(1)))
    states = [mono_state([(0, 1, 1)]), mono_state([(0, -1, 2)], coeff=Q(1, 2))]
    checks, failure = bracket_sweep(real, 1, states)
    assert failure is None and checks == 9 * 9 * 2
    assert len(builds) == 3
    assert set(builds) == {elem for _, elem, _ in PD_SL2.homogeneous_basis}


def test_bracket_sweep_compiles_each_element_once():
    pd = parabolic_decompose(3, (2, 3))
    real = Realization(pd, character_module(pd))
    kernels = real.module.monomials.kernels
    compiled = set()

    def on_check(*args):
        # the sweep's finally empties the table, so read it during the sweep
        compiled.add(tuple(id(terms) for terms, _ in kernels.values()))

    checks, failure = bracket_sweep(real, 1, [mono_state([(0, 1, 1)])], on_check)
    assert failure is None and checks == 15 * 15 * 9
    ops = list(real._cache.values())
    assert len(ops) == 75
    assert len({id(op.terms) for op in ops}) == 15
    assert len(compiled) == 1
    assert set(next(iter(compiled))) == {id(op.terms) for op in ops}
    assert kernels == {}
    flipped = ops[0].with_flipped_term(0)
    assert flipped != ops[0] and flipped.terms is not ops[0].terms
    denom, kept, _ = _compile_every_term(ops[0].terms)
    assert _compile_every_term(flipped.terms) == (
        denom, ((kept[0][0], -kept[0][1]) + kept[0][2:],) + kept[1:], {})


@pytest.mark.parametrize("order", [(1, 2, 0), (2, 0, 1)])
def test_operator_hook_flips_only_its_mode(order):
    f1 = PD_SL3_BOREL.f_basis[0]

    def hook(a, m, op):
        return op.with_flipped_term(0) if (a == f1 and m == 1) else op

    plain = Realization(PD_SL3_BOREL, character_module(PD_SL3_BOREL))
    hooked = Realization(PD_SL3_BOREL, character_module(PD_SL3_BOREL),
                         operator_hook=hook)
    rendered = {m: hooked.operator(f1, m).render() for m in order}
    assert rendered[1] != plain.operator(f1, 1).render()
    assert rendered[1] == plain.operator(f1, 1).with_flipped_term(0).render()
    for m in (2, 0):
        assert rendered[m] == plain.operator(f1, m).render()


def test_bracket_sweep_witness_matches_check_bracket_residual():
    # The sweep's hoisted tables and the generic residual are two routes to
    # the same identity; on a planted fault they must report the same vector.
    mod = sl2_heis(Q(1), Q(1))
    f1 = PD_SL2.f_basis[0]

    def hook(a, m, op):
        return op.with_flipped_term(0) if (a == f1 and m == 1) else op

    real = Realization(PD_SL2, mod, operator_hook=hook)
    states = Sampler(2024).fock_states(mod, 4, 2, 1)
    checks, failure = bracket_sweep(real, 1, states)
    assert checks == 81
    assert (failure["a"], failure["b"], failure["m"], failure["n"],
            failure["state"]) == ("H1", "E2.1", -1, 1, 0)
    a = PD_SL2.homogeneous_basis[0][1]
    ok, residual = check_bracket(real, a, f1, -1, 1, states[0])
    assert not ok
    assert residual == failure["residual"]


def test_bracket_sweep_on_fractional_evaluation_point_matches_check_bracket():
    # At s = -2/3 the Levi heads act by non-integers, whose denominators
    # _apply_scaled takes into each product's common denominator; the sweep
    # must still pass, and on a planted fault report check_bracket's residual.
    pd = PD_SL3_MAX
    mod = evaluation_module(pd, natural_block_rep(pd, 1), Q(-2, 3))
    states = Sampler(11).fock_states(mod, 2, 2, 1)
    plain = Realization(pd, mod)
    checks, failure = bracket_sweep(plain, 1, states)
    assert failure is None and checks == 8 * 8 * 9 * 2
    for _, e, _ in pd.homogeneous_basis:
        for s in states:
            total, items = rz._apply_scaled(plain.operator(e, 1),
                                            mod.monomials.scaled(s), mod)
            assert all(type(v) is int for _, v in items)
            got = mod.monomials.unscaled(total, items)
            assert got == plain.act(e, 1, s)
    f1 = pd.f_basis[0]

    def hook(a, m, op):
        return op.with_flipped_term(0) if (a == f1 and m == 1) else op

    real = Realization(pd, mod, operator_hook=hook)
    checks, failure = bracket_sweep(real, 1, states)
    assert failure is not None and checks < 8 * 8 * 9 * 2
    elem = {name: e for name, e, _ in pd.homogeneous_basis}
    ok, residual = check_bracket(real, elem[failure["a"]], elem[failure["b"]],
                                 failure["m"], failure["n"],
                                 states[failure["state"]])
    assert not ok
    assert residual == failure["residual"]
    assert any(c.denominator % 3 == 0 for c in residual.terms.values())


def _fractional_modules():
    """Three modules whose actions or level bring denominators into
    `_apply_scaled`: Cartan Fock on sl(2) Borel at level -3/2 with lambda =
    1/3, a character of sl(4) {2,3} valued 7/3 at mode 0 and -1 at mode 2,
    and the sl(3) {2} evaluation module at s = -2/3."""
    pd4 = parabolic_decompose(3, {2, 3})
    z = pd4.center_basis[0]
    return [heisenberg_fock(PD_SL2, [Q(1, 3)], Q(-3, 2)),
            character_module(pd4, [(z, 0, Q(7, 3)), (z, 2, Q(-1))]),
            evaluation_module(PD_SL3_MAX, natural_block_rep(PD_SL3_MAX, 1), Q(-2, 3))]


def test_apply_operator_on_fractional_modules_golden_digest():
    """apply_operator of every basis element at modes -2..2 on sampled states
    of the three fractional modules, hashed as canonical text and as the
    ordered (key, coefficient) list, so values and term order are pinned."""
    text = []
    for k, mod in enumerate(_fractional_modules()):
        real = Realization(mod.pd, mod)
        states = Sampler(40 + k).fock_states(mod, 4, 2, 1)
        for name, elem, _ in mod.pd.homogeneous_basis:
            for m in range(-2, 3):
                for si, s in enumerate(states):
                    res = apply_operator(real.operator(elem, m), s, mod)
                    text.append(f"{k} {name} {m} {si}\n{state_to_text(res, mod)}"
                                f"{list(res.terms.items())!r}\n")
    assert len(text) == 5 * 4 * (3 + 15 + 8)
    assert hashlib.sha256("".join(text).encode()).hexdigest() == (
        "9701b9b02598c87c12ef650b5bfc6d1c50e70fe2572cc9bf22c15976e4004761")


@pytest.mark.parametrize("k", range(3))
def test_apply_scaled_returns_integer_numerators(k):
    mod = _fractional_modules()[k]
    real = Realization(mod.pd, mod)
    runs = []
    for s in Sampler(40 + k).fock_states(mod, 4, 2, 1):
        scaled = mod.monomials.scaled(s)
        for _, elem, _ in mod.pd.homogeneous_basis:
            for m in range(-2, 3):
                op = real.operator(elem, m)
                total, items = rz._apply_scaled(op, scaled, mod)
                assert type(total) is int and all(type(v) is int for _, v in items)
                got = mod.monomials.unscaled(total, items)
                assert got == real.act(elem, m, s)
                runs.append((op, scaled))
    # Once the module's memos are warm, the kernel does no Fraction arithmetic
    # and no LCM fold: it reads only the level's numerator and denominator,
    # and its monomial table computes no product, no slot match and no column.
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename.rsplit("/", 1)[-1], frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        for op, scaled in runs:
            rz._apply_scaled(op, scaled, mod)
    finally:
        sys.setprofile(None)
    assert {name for f, name in seen if f == "fractions.py"} <= {"numerator", "denominator"}
    assert not {name for _, name in seen} & {"scale_to_integers", "_fill", "_act",
                                             "mono_mul_var", "mono_matches", "column"}


def count_accumulate(monkeypatch):
    """Count the calls of realization._accumulate, the one integer kernel that
    applies an operator; returns the one-item counter."""
    calls = [0]
    accumulate = rz._accumulate

    def counting_accumulate(acc, total, op, scaled, module, sign):
        calls[0] += 1
        return accumulate(acc, total, op, scaled, module, sign)

    monkeypatch.setattr(rz, "_accumulate", counting_accumulate)
    return calls


def test_bracket_sweep_reports_in_row_order_with_one_application_per_check(
        monkeypatch):
    # Checks are reported row by row; each operator product serves a check and
    # its mirror, and an own cell (a, m) = (b, n) applies none, since X - Y
    # vanishes there.  So the sweep applies the B*(4M+1)*S = 3*5*2 = 30 hoisted
    # actions, then per state X and Y on each computed cell but the own ones:
    # the (3*3)*(3*3+1)/2 = 45 computed cells less the 9 own ones, 72
    # products per state, one _accumulate each.
    mod = sl2_heis(Q(1), Q(1))
    real = Realization(PD_SL2, mod)
    calls = count_accumulate(monkeypatch)
    states = Sampler(2024).fock_states(mod, 2, 2, 1)
    seen = []
    checks, failure = bracket_sweep(real, 1, states,
                                    lambda *args: seen.append(args))
    assert failure is None
    names = [name for name, _, _ in PD_SL2.homogeneous_basis]
    modes = range(-1, 2)
    assert seen == [(a, b, m, n, si, True) for a, b, m, n, si
                    in itertools.product(names, names, modes, modes, range(2))]
    assert checks == len(seen) == 162
    assert calls[0] == 3 * 5 * 2 + (45 - 9) * 2 * 2 == 174


def test_bracket_sweep_applies_no_product_after_the_failing_cell(monkeypatch):
    # pi(f1_1) with its first term flipped fails first at (H1, E2.1, -1, 1) on
    # state 0, after 81 checks.  The sweep applies the B*(4M+1)*S = 3*5*4 = 60
    # hoisted actions, then per state no product on the 3 own cells
    # (H1, H1, m, m) and X and Y on the other 15 cells it computed: 3 more on
    # the H1 diagonal, the 9 of (H1, E1.2) and (H1, E2.1)'s first 3, which end
    # at the failing cell.  Last it applies X and Y once more, for the first
    # failing state's witness alone.
    mod = sl2_heis(Q(1), Q(1))
    f1 = PD_SL2.f_basis[0]

    def hook(a, m, op):
        return op.with_flipped_term(0) if (a == f1 and m == 1) else op

    real = Realization(PD_SL2, mod, operator_hook=hook)
    calls = count_accumulate(monkeypatch)
    states = Sampler(2024).fock_states(mod, 4, 2, 1)
    checks, failure = bracket_sweep(real, 1, states)
    assert checks == 81
    assert (failure["a"], failure["b"], failure["m"], failure["n"],
            failure["state"]) == ("H1", "E2.1", -1, 1, 0)
    assert calls[0] == 3 * 5 * 4 + 15 * 2 * 4 + 2 == 182


def test_bracket_sweep_own_cells_pass_with_no_product(monkeypatch):
    # An own cell (a, m) = (b, n) has X = Y, [a, a] = 0 and, at m = -n = 0, a
    # zero central term, so it passes on every state without a product; a
    # cell whose mirror came first applies none either, and every other cell
    # applies X and Y once per state.  Products are counted per cell between
    # its first report and the previous cell's, after the 3*5*2 hoisted ones.
    calls = count_accumulate(monkeypatch)
    mod = sl2_heis(Q(1), Q(1))
    states = Sampler(2024).fock_states(mod, 2, 2, 1)
    seen = {}
    done = [3 * 5 * 2]

    def on_check(a, b, m, n, si, ok):
        assert ok
        if si == 0:
            seen[a, b, m, n] = calls[0] - done[0]
            done[0] = calls[0]

    assert bracket_sweep(Realization(PD_SL2, mod), 1, states, on_check) == (162, None)
    names = [name for name, _, _ in PD_SL2.homogeneous_basis]
    for (a, b, m, n), products in seen.items():
        own, mirrored = (a, m) == (b, n), (names.index(b), n) < (names.index(a), m)
        assert products == (0 if own or mirrored else 2 * len(states)), (a, b, m, n)
    assert sum(a == b and m == n for a, b, m, n in seen) == 9


@pytest.mark.parametrize("k, name, mode, idx, seed", [
    (0, "H1", -1, 1, 5), (1, "H1", 1, 1, 31), (2, "H1", 1, 2, 31)])
def test_bracket_sweep_witness_on_fractional_modules_is_check_bracket_residual(
        k, name, mode, idx, seed):
    # With one term of pi(name_mode) flipped, each fractional module's sweep
    # fails; its verdicts, check count, failing cell and witness items, in
    # order, are those of check_bracket's Fraction sums.  On modules 0 and 2
    # the witness has a key that X sets, Y cancels and Y sets again, so one
    # sum of X and -Y into a single dict would list that key later.
    mod = _fractional_modules()[k]
    elem = {n: e for n, e, _ in mod.pd.homogeneous_basis}[name]

    def hook(a, m, op):
        return op.with_flipped_term(idx) if (a == elem and m == mode) else op

    real = Realization(mod.pd, mod, operator_hook=hook)
    assert _sweeps_like_check_bracket(k, real, Sampler(seed).fock_states(mod, 2, 3, 1))


def test_bracket_sweep_raises_on_a_failing_check_with_a_zero_witness(monkeypatch):
    # A cell kernel that adds Y where it must subtract it fails the first cell
    # with a product, (H1, H1, -1, 0); the witness, which applies x and y
    # apart and merges -y, is zero there, and the sweep raises instead of
    # reporting it.
    accumulate = rz._accumulate
    monkeypatch.setattr(rz, "_accumulate", lambda acc, total, op, scaled, module, sign:
                        accumulate(acc, total, op, scaled, module, 1))
    seen = []
    real = Realization(PD_SL2, sl2_heis(Q(1), Q(1)))
    states = Sampler(2024).fock_states(real.module, 2, 2, 1)
    with pytest.raises(AssertionError, match=r"\(H1, H1, -1, 0\) on state 0 has a zero"):
        bracket_sweep(real, 1, states, lambda *args: seen.append(args))
    assert seen[-1] == ("H1", "H1", -1, 0, 0, False)


# --- mirror cells: verdicts derived from the partner's residual --------------------------

def _break_bracket_antisymmetry(monkeypatch):
    """Make coords read [E1.2, E2.1] = H1 as 2 H1, so that the sl(2) bracket
    table is not antisymmetric in that one pair."""
    coords = SimpleAlgebra.coords
    monkeypatch.setattr(SimpleAlgebra, "coords", lambda self, a: (
        [(k, 2 * c) for k, c in coords(self, a)] if a == H1 else coords(self, a)))


def _break_central_antisymmetry(monkeypatch):
    """Make the central coefficient symmetric in (a, m) and (b, n)."""
    central = rz.central_coeff
    monkeypatch.setattr(rz, "central_coeff",
                        lambda a, b, m, n: abs(central(a, b, m, n)))


def test_bracket_sweep_raises_on_a_bracket_table_that_is_not_antisymmetric(monkeypatch):
    _break_bracket_antisymmetry(monkeypatch)
    seen = []
    real = Realization(PD_SL2, sl2_heis(Q(1), Q(1)))
    with pytest.raises(AssertionError, match=r"\(E2.1, E1.2\) and \(E1.2, E2.1\) are not"):
        bracket_sweep(real, 1, [mono_state([(0, 1, 1)])], lambda *args: seen.append(args))
    assert seen == []


def test_bracket_sweep_raises_on_a_central_term_that_is_not_antisymmetric(monkeypatch):
    # The first cell with m = -n and a nonzero central term is (H1, H1, -1, 1),
    # after the two cells (H1, H1, -1, -1) and (H1, H1, -1, 0).
    states = [mono_state([(0, 1, 1)]), mono_state([(0, -1, 2)], coeff=Q(1, 2))]
    seen = []
    bracket_sweep(Realization(PD_SL2, sl2_heis(Q(1), Q(1))), 1, states,
                  lambda *args: seen.append(args))
    _break_central_antisymmetry(monkeypatch)
    broken = []
    real = Realization(PD_SL2, sl2_heis(Q(1), Q(1)))
    with pytest.raises(AssertionError, match=r"\(H1, H1, -1, 1\) and its mirror"):
        bracket_sweep(real, 1, states, lambda *args: broken.append(args))
    assert broken == seen[:4]


def test_antisymmetry_guards_raise_under_python_O():
    # The guards are explicit raises, so `python -O`, which strips assert
    # statements, keeps them.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = """if True:
        from fractions import Fraction
        import affinefock.realization as rz
        from affinefock.fock import FockState, mono_from_pairs
        from affinefock.inducing import heisenberg_fock
        from affinefock.lie import SimpleAlgebra, cartan_h, parabolic_decompose
        pd = parabolic_decompose(1, ())
        states = [FockState({(mono_from_pairs([(0, 1, 1)]), 0): Fraction(1)})]
        coords, central, h = SimpleAlgebra.coords, rz.central_coeff, cartan_h(1, 1)
        broken = [
            (SimpleAlgebra, "coords", lambda self, a: [(k, 2 * c) for k, c in coords(self, a)]
             if a == h else coords(self, a)),
            (rz, "central_coeff", lambda a, b, m, n: abs(central(a, b, m, n)))]
        for owner, name, fake in broken:
            original = getattr(owner, name)
            setattr(owner, name, fake)
            real = rz.Realization(pd, heisenberg_fock(pd, [Fraction(1)], Fraction(1)))
            try:
                rz.bracket_sweep(real, 1, states)
            except AssertionError as exc:
                print(name, "not opposite" in str(exc))
            setattr(owner, name, original)
    """
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["coords", "True", "central_coeff", "True"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bracket_table_and_central_term_are_antisymmetric_on_every_parabolic(n):
    # The sweep derives each mirror cell's verdict from this identity.  It
    # indexes the table by homogeneous basis position, which on every
    # parabolic is the algebra's basis order.
    alg = parabolic_decompose(n, ()).algebra
    for k in range(n + 1):
        for sigma in itertools.combinations(range(1, n + 1), k):
            pd = parabolic_decompose(n, sigma)
            assert pd.algebra is alg
            assert [(name, e) for name, e, _ in pd.homogeneous_basis] == list(
                zip(alg.names, alg.basis))
    for a in alg.basis:
        for b in alg.basis:
            assert alg.coords(bracket(b, a)) == [
                (k, -c) for k, c in alg.coords(bracket(a, b))]
            for m in range(-3, 4):
                assert central_coeff(b, a, -m, m) == -central_coeff(a, b, m, -m)


def _flip_sweeps():
    """(label, pd, module, hook) for every template term of every basis
    operator at mode 1 on the sl(2) Borel (Heisenberg module, level 1) and on
    sl(3) {2} (character module)."""
    pd3 = PD_SL3_MAX
    modules = [(PD_SL2, sl2_heis(Q(1), Q(1))),
               (pd3, character_module(pd3, [(pd3.center_basis[0], 0, Q(2)),
                                         (pd3.center_basis[0], 1, Q(-1, 2))]))]
    for pd, mod in modules:
        for name, elem, _ in pd.homogeneous_basis:
            for idx in range(len(build_operator_general(pd, elem, 1).terms)):
                def hook(a, m, op, elem=elem, idx=idx):
                    return op.with_flipped_term(idx) if (a == elem and m == 1) else op
                yield f"{name}:1:{idx}", pd, mod, hook


def _sweeps_like_check_bracket(label, real, states):
    """Sweep at max_mode 1, asserting that every reported verdict is
    check_bracket's and the witness its residual; True when the sweep failed."""
    elem = {name: e for name, e, _ in real.pd.homogeneous_basis}
    seen = []
    checks, failure = bracket_sweep(real, 1, states, lambda *args: seen.append(args))
    assert checks == len(seen), label
    for a, b, m, n, si, ok in seen:
        assert check_bracket(real, elem[a], elem[b], m, n, states[si])[0] == ok, \
            (label, a, b, m, n, si)
    if failure is None:
        return False
    a, b, m, n, si, ok = seen[-1]
    assert not ok and (failure["a"], failure["b"], failure["m"], failure["n"],
                       failure["state"]) == (a, b, m, n, si)
    residual = check_bracket(real, elem[a], elem[b], m, n, states[si])[1]
    assert list(failure["residual"].terms.items()) == list(residual.terms.items())
    return True


def test_bracket_sweep_verdicts_match_check_bracket_on_every_flip():
    # Each reported verdict, computed or derived from the partner cell's
    # residual, must be check_bracket's, and the witness its residual.
    caught = 0
    for label, pd, mod, hook in _flip_sweeps():
        real = Realization(pd, mod, operator_hook=hook)
        caught += _sweeps_like_check_bracket(label, real, Sampler(31).fock_states(mod, 2, 2, 1))
    # the other 12 flips are invisible to these two states at max_mode 1
    assert caught == 20


# --- the module's kernel: terms that act by zero on V are dropped -----------------------

def _kernel_modules():
    """The three fractional modules and the six modules of criterion 1."""
    return _fractional_modules() + [mod for _label, _pd, mod in sweep_configs()]


def _compile_every_term(terms):
    """An operator's terms as a kernel (D, kept, columns) with every term kept,
    compiled here apart from `InducingModule.kernel`: D the LCM of the term
    denominators, each term (slot families, D * coeff, head kind, head,
    mode-factor slot), and no columns yet."""
    denom = lcm(*[t.coeff.denominator for t in terms])
    kept = []
    for t in terms:
        num = t.coeff * denom
        assert num.denominator == 1
        kept.append((t.annihilators, num.numerator, t.head_kind, t.head, t.mode_factor))
    return denom, tuple(kept), {}


def _twin_keeping_every_term(mod):
    """mod with `_compile_every_term` as its kernel: it drops no term, neither
    a head that acts by zero nor a central term at level 0.  It shares mod's
    action memo, vector basis and monomial table, so vector indices and
    monomial ids agree.  Its kernels, columns included, sit in a memo of its
    own that the table's `clear` does not empty, so a twin serves until the
    first clear: one sweep, or applications with no clear between them."""
    twin = copy.copy(mod)
    compiled: dict = {}

    def kernel(terms):
        if id(terms) not in compiled:
            compiled[id(terms)] = (terms, _compile_every_term(terms))
        return compiled[id(terms)][1]

    twin.kernel = kernel
    return twin


@pytest.mark.parametrize("k", range(9))
def test_acts_by_zero_only_for_heads_that_act_by_zero(k):
    mod = _kernel_modules()[k]
    sampler = Sampler(40 + k)
    vs = sorted({v for s in sampler.fock_states(mod, 4, 2, 1) for _, v in s.terms}
                | {mod.sample_v(sampler) for _ in range(4)})
    killed = [x for _, x, _ in mod.pd.homogeneous_basis if mod.acts_by_zero(x)]
    assert killed
    for x in killed:
        for j in range(-3, 4):
            for v in vs:
                assert mod.act(x, j, v) == {}


def test_acts_by_zero_on_the_sl4_character_keeps_only_its_center_direction():
    # Sigma = {2, 3}: z(l) is spanned by w1, the character sees only the
    # center coordinate, and among the basis only H1 has one
    mod = _fractional_modules()[1]
    names = [name for name, x, _ in mod.pd.homogeneous_basis
             if not mod.acts_by_zero(x)]
    assert names == ["H1"]
    # the rule runs once per Levi term when an operator is compiled, and never
    # again for that operator on this module
    asked = []
    rule = mod.acts_by_zero
    mod.acts_by_zero = lambda x: asked.append(x) or rule(x)
    op = Realization(mod.pd, mod).operator(cartan_h(3, 1), 0)
    for _ in range(2):
        mod.kernel(op.terms)
    assert len(asked) == sum(t.head_kind == "levi" for t in op.terms) > 0


@pytest.mark.parametrize("k", range(9))
def test_module_kernel_gives_the_full_kernel_integers(k):
    mod = _kernel_modules()[k]
    twin = _twin_keeping_every_term(mod)
    real = Realization(mod.pd, mod)
    for s in Sampler(40 + k).fock_states(mod, 4, 2, 1):
        scaled = mod.monomials.scaled(s)
        for _, elem, _ in mod.pd.homogeneous_basis:
            for m in range(-2, 3):
                op = real.operator(elem, m)
                total, items = rz._apply_scaled(op, scaled, mod)
                twin_total, twin_items = rz._apply_scaled(op, scaled, twin)
                assert (total, list(items)) == (twin_total, list(twin_items))


def test_module_kernel_drops_killed_heads_and_central_terms_at_level_zero():
    # mod.kernel is the full compile of every term, filtered: on the nine
    # kernel modules, with every engine that serves the parabolic, and on
    # flipped operators, which compile their own kernels
    for mod in _kernel_modules():
        engines = []
        for engine in ("general", "explicit"):
            try:
                check_engine(mod.pd, engine)
            except ValueError:
                continue
            engines.append(engine)
        for engine in engines:
            real = Realization(mod.pd, mod, engine)
            for _, elem, _ in mod.pd.homogeneous_basis:
                op = real.operator(elem, 0)
                for terms in (op.terms, op.with_flipped_term(0).terms):
                    full = _compile_every_term(terms)
                    denom, kernel, _ = mod.kernel(terms)
                    kept = [t for t in full[1] if t[2] == "create"
                            or t[2] == "levi" and not mod.acts_by_zero(t[3])
                            or t[2] == "central" and mod.level != 0]
                    assert denom == full[0]
                    assert list(kernel) == kept
        assert engines[0] == "general"
    # D is the LCM over every term: a dropped term's denominator stays in it
    mod = _fractional_modules()[1]
    terms = (Term(Q(1), (), "create", 0),
             Term(Q(1, 3), (0,), "levi", mod.pd.e_basis[0]))
    assert mod.kernel(terms) == (3, (((), 3, "create", 0, None),), {})


def test_sl4_character_sweep_reads_the_module_only_for_its_center_head(monkeypatch):
    # The character kills 14 of the 15 basis heads, so only H1 reaches
    # act_scaled: 25 times in the hoisted actions and 403 in the products of
    # the computed cells.  An own cell (a, m) = (b, n) applies no product, so
    # it reads nothing; applying X there would add 11 reads.  A kernel that
    # keeps every term reads the module 210 + 2,882 times for the same checks
    # (34 more with the own cells' X).
    mod = _fractional_modules()[1]
    states = Sampler(2024).fock_states(mod, 2, 2, 1)
    calls = []
    act_scaled = InducingModule.act_scaled

    def counting(module, x, mode, v_index):
        calls.append(x)
        return act_scaled(module, x, mode, v_index)

    monkeypatch.setattr(InducingModule, "act_scaled", counting)
    checks, failure = bracket_sweep(Realization(mod.pd, mod), 1, states)
    assert failure is None and checks == 15 * 15 * 9 * 2
    assert set(calls) == {cartan_h(3, 1)}
    assert len(calls) == 25 + 403 == 428
    calls.clear()
    twin = _twin_keeping_every_term(mod)
    assert bracket_sweep(Realization(mod.pd, twin), 1, states) == (checks, None)
    assert len(calls) == 210 + 2882 == 3092


def test_module_kernel_is_memoized_per_operator_kernel():
    mod = _fractional_modules()[1]
    f1 = mod.pd.f_basis[0]
    real = Realization(mod.pd, mod)
    op = real.operator(f1, 1)
    flipped = op.with_flipped_term(0)
    kernel, flipped_kernel = mod.kernel(op.terms), mod.kernel(flipped.terms)
    assert kernel is not flipped_kernel
    assert mod.kernel(op.terms) is kernel
    assert mod.kernel(real.operator(f1, -1).terms) is kernel
    assert mod.kernel(flipped.terms) is flipped_kernel
    assert flipped_kernel[1][0][1] == -kernel[1][0][1]
    assert flipped_kernel[1][1:] == kernel[1][1:]
    state = Sampler(3).fock_states(mod, 1, 2, 1)[0]
    assert apply_operator(flipped, state, mod) != apply_operator(op, state, mod)


def test_module_shared_by_two_realizations_serves_both():
    mod = _fractional_modules()[1]
    general = Realization(mod.pd, mod)
    explicit = Realization(mod.pd, mod, "explicit")
    states = Sampler(5).fock_states(mod, 2, 2, 1)
    before = len(mod.monomials.kernels)
    for _, elem, _ in mod.pd.homogeneous_basis:
        for s in states:
            assert general.act(elem, 1, s) == explicit.act(elem, 1, s)
        assert general.operator(elem, 1).terms is not explicit.operator(elem, 1).terms
    assert len(mod.monomials.kernels) == before + 2 * 15
    assert bracket_sweep(general, 1, states)[1] is None
    assert bracket_sweep(explicit, 1, states)[1] is None


def test_bracket_sweep_witness_after_mirrored_blocks():
    # pi(H1_2) with its first term flipped is met only through [E, F] = H, so
    # the first failure is in row E1.2, after the block (E1.2, H1) whose
    # verdicts were evaluated as mirrors in row H1.  Every reported verdict
    # before it must agree with check_bracket, and the witness with its
    # residual.
    mod = sl2_heis(Q(1), Q(1))

    def hook(a, m, op):
        return op.with_flipped_term(0) if (a == H1 and m == 2) else op

    real = Realization(PD_SL2, mod, operator_hook=hook)
    states = Sampler(2024).fock_states(mod, 4, 2, 1)
    seen = []
    checks, failure = bracket_sweep(real, 1, states,
                                    lambda *args: seen.append(args))
    assert checks == len(seen) == 213
    assert (failure["a"], failure["b"], failure["m"], failure["n"],
            failure["state"]) == ("E1.2", "E2.1", 1, 1, 0)
    assert failure["residual"] == FockState({(((0, 1, 2),), 0): Q(-8)})
    elem = {name: e for name, e, _ in PD_SL2.homogeneous_basis}
    for a, b, m, n, si, ok in seen:
        assert check_bracket(real, elem[a], elem[b], m, n, states[si])[0] == ok
    ok, residual = check_bracket(real, E_SL2, F_SL2, 1, 1, states[0])
    assert not ok
    assert residual == failure["residual"]


def test_bracket_sweep_golden_witness_with_fractional_central_term():
    # sl(3) Borel at level -3/2: the first failure, (H1, H2, -1, 1) on a
    # state with coefficients 4/3 and 3/2, carries the central term
    # -m (H1, H2) kappa = 3/2, so the residual's common denominator takes
    # the coefficient's denominator as well as the states' own.
    pd = PD_SL3_BOREL
    mod = heisenberg_fock(pd, [Q(1), Q(-2)], Q(-3, 2))
    h2 = cartan_h(2, 2)

    def hook(a, m, op):
        return op.with_flipped_term(0) if (a == h2 and m == 1) else op

    real = Realization(pd, mod, operator_hook=hook)
    states = Sampler(7).fock_states(mod, 3, 2, 1)
    assert states[0].terms == {((), 1): Q(4, 3), ((), 2): Q(3, 2)}
    checks, failure = bracket_sweep(real, 1, states)
    assert checks == 34
    assert (failure["a"], failure["b"], failure["m"], failure["n"],
            failure["state"]) == ("H1", "H2", -1, 1, 0)
    assert list(failure["residual"].terms.items()) == [
        (((), 1), Q(4)), (((), 2), Q(9, 2))]


def _table_is_empty(table):
    return (table.ids, table.monos, table.times, table.matches, table.kernels) == (
        {}, [], {}, {}, {})


def test_apply_operator_same_on_cold_and_warm_match_cache():
    pd = PD_SL3_BOREL
    mod = heisenberg_fock(pd, [Q(1), Q(-2)], Q(1, 3))
    table = mod.monomials
    assert _table_is_empty(table)
    state = FockState({(mono_from_pairs([(0, 1, 2), (1, -1, 1), (2, 0, 1)]), 0): Q(2, 3),
                       (mono_from_pairs([(0, -1, 1), (0, 1, 1), (2, 1, 2)]), 0): Q(-1)})
    for _, elem, _ in pd.homogeneous_basis:
        op = build_operator_general(pd, elem, 1)
        table.clear()
        cold = apply_operator(op, state, mod)
        # the table outlives the call, so the second call is served from it
        assert table.matches and table.monos
        assert [bool(cols) for _, (_, _, cols) in table.kernels.values()] == [True]
        warm = apply_operator(op, state, mod)
        assert list(cold.terms.items()) == list(warm.terms.items())


def count_column_builds(monkeypatch):
    """Record the monomial id of every MonomialTable.column call; returns the list."""
    built = []
    column = MonomialTable.column

    def counting_column(self, kernel, i):
        built.append(i)
        return column(self, kernel, i)

    monkeypatch.setattr(MonomialTable, "column", counting_column)
    return built


def test_a_template_builds_its_columns_at_the_first_mode_only(monkeypatch):
    # A column is one kernel's contributions on one monomial for every mode:
    # each template applied at modes -3..3 to a two-monomial state builds its
    # two columns at mode -3 and reads them at the six other modes, where
    # creator and Levi heads act at other modes and other central matches
    # count.  Every result is the reference apply's.
    pd = PD_SL3_BOREL
    mod = heisenberg_fock(pd, [Q(1), Q(-2)], Q(1, 3))
    table = mod.monomials
    state = FockState({(mono_from_pairs([(0, 1, 2), (1, -1, 1), (2, 0, 1)]), 0): Q(2, 3),
                       (mono_from_pairs([(0, -1, 1), (1, 1, 1), (2, 1, 2)]), 0): Q(-1)})
    built = count_column_builds(monkeypatch)
    real = Realization(pd, mod)
    for _, elem, _ in pd.homogeneous_basis:
        table.clear()
        built.clear()
        for m in range(-3, 4):
            got = real.act(elem, m, state)
            assert got == reference_apply(real.operator(elem, m), state, mod)
            assert built == [0, 1]
        assert len(table.kernels) == 1


def test_a_flipped_mode_owns_its_columns_and_sweeps_like_check_bracket():
    # An operator_hook flip gives its one mode its own terms tuple, hence its
    # own kernel and columns.  Before each sweep the table holds the columns
    # of every (element, mode) on the states, the template's at modes -1 and 0
    # among them, so a column shared by the element's modes would give the
    # flipped mode the template's contributions.  On every mode-1 flip of the
    # sl(2) Borel the verdicts and the witness are check_bracket's.
    caught = 0
    for label, pd, mod, hook in _flip_sweeps():
        if pd is not PD_SL2:
            continue
        real = Realization(pd, mod, operator_hook=hook)
        states = Sampler(31).fock_states(mod, 2, 2, 1)
        elem = {name: e for name, e, _ in pd.homogeneous_basis}
        for a in elem.values():
            for m in range(-1, 2):
                for s in states:
                    real.act(a, m, s)
        flipped = real.operator(elem[label.split(":")[0]], 1)
        template = real.operator(elem[label.split(":")[0]], 0)
        assert flipped.terms is not template.terms
        own, shared = [mod.monomials.kernels[id(op.terms)][1][2]
                       for op in (flipped, template)]
        assert own and shared and own is not shared
        caught += _sweeps_like_check_bracket(label, real, states)
    # the flip of E1.2's first term, a nilradical Levi head, acts by zero here
    assert caught == 6


def test_bracket_sweep_leaves_match_table_empty_and_repeats_exactly():
    # The module's monomial table outlives a call; a sweep must not leave its
    # entries behind, and a second sweep in the same process, which starts
    # from the emptied table, must report the same checks and failure.
    mod = sl2_heis(Q(1), Q(1))
    f1 = PD_SL2.f_basis[0]

    def hook(a, m, op):
        return op.with_flipped_term(0) if (a == f1 and m == 1) else op

    states = Sampler(2024).fock_states(mod, 4, 2, 1)
    runs = []
    for _ in range(2):
        seen = []
        real = Realization(PD_SL2, mod, operator_hook=hook)
        checks, failure = bracket_sweep(real, 1, states,
                                        on_check=lambda *args: seen.append(args))
        assert _table_is_empty(mod.monomials)
        runs.append((checks, seen, {k: v for k, v in failure.items() if k != "residual"},
                     list(failure["residual"].terms.items())))
    assert runs[0] == runs[1]
    assert runs[0][0] == 81
    checks, _ = bracket_sweep(Realization(PD_SL2, mod), 1, states)
    assert checks == 9 * 9 * 4 and _table_is_empty(mod.monomials)


def test_bracket_sweep_forgets_every_kernel_and_recompiles_exactly():
    # A kernel's columns are keyed by monomial id, so the kernel lives in the
    # monomial table and a sweep's clear forgets it with the ids.  After a
    # sweep with a mode-1 flip the module holds no kernel, and every basis
    # operator, the flipped one included, compiled again gives the results it
    # gave before the sweep, values and key order alike.
    mod = sl2_heis(Q(1), Q(1))
    f1 = PD_SL2.f_basis[0]

    def hook(a, m, op):
        return op.with_flipped_term(0) if (a == f1 and m == 1) else op

    real = Realization(PD_SL2, mod, operator_hook=hook)
    states = Sampler(2024).fock_states(mod, 4, 2, 1)

    def applied():
        return [list(real.act(a, m, s).terms.items())
                for _, a, _ in PD_SL2.homogeneous_basis
                for m in range(-2, 3) for s in states]

    kernels = mod.monomials.kernels
    before = applied()
    assert len(kernels) == 3 + 1
    checks, failure = bracket_sweep(real, 1, states)
    assert checks == 81 and failure is not None
    assert kernels == {} and _table_is_empty(mod.monomials)
    assert applied() == before
    assert len(kernels) == 3 + 1
