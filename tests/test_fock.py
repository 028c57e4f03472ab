from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinefock.fock import (
    FockState,
    MonomialTable,
    mono_from_pairs,
    mono_matches,
    mono_mul_var,
    state_from_obj,
    state_to_text,
)
from affinefock.inducing import character_module, heisenberg_fock
from affinefock.lie import cartan_h, parabolic_decompose
from affinefock.sampling import Sampler
from oracles import apply_annihilation, apply_creation, h_weight, pbw_degree, total_mode

Q = Fraction

PD2 = parabolic_decompose(2, {2})  # two variable families
PD1 = parabolic_decompose(1, ())


def char_mod(pd, lam):
    w = pd.center_basis[0]
    return character_module(pd, [(w, 0, lam)])


# --- basics --------------------------------------------------------------------

def test_vacuum_is_unit_monomial():
    v = FockState.vacuum(0)
    assert v.terms == {((), 0): Q(1)}


def test_vacuum_linear_combination():
    s = FockState.vacuum(0).scale(2) - FockState.vacuum(1)
    assert s.terms == {((), 0): Q(2), ((), 1): Q(-1)}


def test_creation_multiplies():
    s = apply_creation(FockState.vacuum(0), 1, 0)
    assert s.terms == {(((1, 0, 1),), 0): Q(1)}
    s2 = apply_creation(s, 1, 0)
    assert s2.terms == {(((1, 0, 2),), 0): Q(1)}


def test_creation_raises_degree_by_one():
    smp = Sampler(5)
    mod = char_mod(PD2, Q(3))
    for _ in range(10):
        s = smp.fock_state(mod, 3, 3)
        d = pbw_degree(s)
        assert pbw_degree(apply_creation(s, 0, -2)) == d + 1


def test_creations_commute():
    smp = Sampler(9)
    mod = char_mod(PD2, Q(1))
    for _ in range(10):
        s = smp.fock_state(mod, 3, 3)
        a = apply_creation(apply_creation(s, 0, 2), 1, -1)
        b = apply_creation(apply_creation(s, 1, -1), 0, 2)
        assert a == b


def test_annihilation_kills_vacuum():
    assert apply_annihilation(FockState.vacuum(0), 1, 0).is_zero()


def test_annihilation_single_variable():
    s = apply_creation(FockState.vacuum(0), 1, 3)
    assert apply_annihilation(s, 1, 3) == -FockState.vacuum(0)


def test_annihilation_leibniz_square():
    s = apply_creation(apply_creation(FockState.vacuum(0), 1, 3), 1, 3)
    got = apply_annihilation(s, 1, 3)
    expected = apply_creation(FockState.vacuum(0), 1, 3).scale(-2)
    assert got == expected


def leibniz_oracle(mono, alpha, mode):
    """Independent derivative: sum over occurrences of the variable."""
    out = {}
    for idx, (a, n, e) in enumerate(mono):
        if (a, n) == (alpha, mode):
            reduced = list(mono)
            if e == 1:
                reduced.pop(idx)
            else:
                reduced[idx] = (a, n, e - 1)
            out[tuple(reduced)] = out.get(tuple(reduced), 0) + e
    return out


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-4, 4)), max_size=4),
       st.integers(0, 1), st.integers(-4, 4))
@settings(max_examples=80, deadline=None)
def test_annihilation_matches_leibniz_oracle(pairs, alpha, mode):
    mono = mono_from_pairs([(a, n, 1) for a, n in pairs])
    state = FockState({(mono, 0): Q(1)})
    got = apply_annihilation(state, alpha, mode)
    expected = FockState({(m, 0): -c for m, c in leibniz_oracle(mono, alpha, mode).items()})
    assert got == expected


# --- canonical commutation relations ---------------------------------------------

def test_ccr_window():
    smp = Sampler(11)
    mod = char_mod(PD2, Q(2))
    states = smp.fock_states(mod, 3, 4, 4)
    for n in range(-4, 5):
        for m in range(-4, 5):
            for alpha in range(2):
                for beta in range(2):
                    for s in states:
                        lhs = apply_annihilation(apply_creation(s, beta, m), alpha, n)
                        rhs = apply_creation(apply_annihilation(s, alpha, n), beta, m)
                        commutator = lhs - rhs
                        if alpha == beta and n == m:
                            assert commutator == -s
                        else:
                            assert commutator.is_zero()


# --- gradings -------------------------------------------------------------------

def test_pbw_degree_example():
    mono = mono_from_pairs([(1, 0, 1), (2, -1, 1)])
    assert pbw_degree(FockState({(mono, 0): Q(1)})) == 2


def test_total_mode_homogeneous():
    pd = parabolic_decompose(1, ())
    mod = char_mod(pd, Q(5))
    mono = mono_from_pairs([(0, 3, 1), (0, -1, 1)])
    assert total_mode(FockState({(mono, 0): Q(1)}), mod) == 2


def test_total_mode_mixed_is_none():
    s = FockState({(mono_from_pairs([(0, 3, 1)]), 0): Q(1),
                   (mono_from_pairs([(0, 1, 1)]), 0): Q(1)})
    assert total_mode(s) is None


def test_mode_shift_of_ladder_operators():
    mod = char_mod(PD1, Q(0))
    s = FockState({(mono_from_pairs([(0, 2, 1)]), 0): Q(1)})
    assert total_mode(apply_creation(s, 0, 3), mod) == 5
    assert total_mode(apply_annihilation(s, 0, 2), mod) == 0


def test_h_weight_single_variable():
    lam = Q(7, 2)
    h = cartan_h(1, 1)
    mod = character_module(PD1, [(h, 0, lam)])  # sigma(h_0) v = lam v
    s = apply_creation(FockState.vacuum(0), 0, 4)
    # the variable family sits at the negative simple root: weight lam - 2
    assert h_weight(s, h, PD1, mod) == lam - 2


def test_h_weight_heisenberg_ignores_v_depth():
    pd = PD1
    mod = heisenberg_fock(pd, [Q(3)], Q(1))
    deep = mod.intern(((0, 2, 5),))
    s = FockState({((), deep): Q(1)})
    assert h_weight(s, cartan_h(1, 1), pd, mod) == 3


def test_h_weight_mixed_is_none():
    mod = char_mod(PD2, Q(1))
    h = cartan_h(2, 1)
    s = FockState({(mono_from_pairs([(0, 0, 1)]), 0): Q(1),
                   (mono_from_pairs([(1, 0, 1)]), 0): Q(1)})
    assert h_weight(s, h, PD2, mod) is None


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-3, 3)),
                       st.integers(1, 3), max_size=5),
       st.integers(0, 2), st.integers(-3, 3))
@settings(max_examples=120, deadline=None)
def test_mono_mul_var_matches_mono_from_pairs(exps, alpha, mode):
    mono = mono_from_pairs((a, n, e) for (a, n), e in exps.items())
    assert mono_mul_var(mono, alpha, mode) == mono_from_pairs(list(mono) + [(alpha, mode, 1)])


monomials = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-3, 3)),
                            st.integers(1, 3), max_size=5).map(
    lambda exps: mono_from_pairs((a, n, e) for (a, n), e in exps.items()))


@given(st.lists(monomials, min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=6),
       st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
                max_size=4))
@settings(max_examples=150, deadline=None)
def test_monomial_table_agrees_with_the_monomial_functions(monos, factors, families):
    table = MonomialTable()
    ids = [table.intern(m) for m in monos]
    assert [table.monos[i] for i in ids] == monos
    for m, i in zip(monos, ids):
        for alpha, mode in factors:
            j = table.mul_var(i, alpha, mode)
            assert table.monos[j] == mono_mul_var(m, alpha, mode)
            assert table.times[i, alpha, mode] == j
            assert table.mul_var(i, alpha, mode) == j
        for fam in [()] + families:
            matched = table.match(fam, i)
            assert [(mult, modes, msum, table.monos[r]) for mult, modes, msum, r
                    in matched] == list(mono_matches(fam, m))
            assert table.match(fam, i) is matched
    # ids are stable: re-interning, after the table has grown, finds every one
    assert [table.intern(m) for m in monos] == ids
    assert all(table.ids[mono] == i for i, mono in enumerate(table.monos))
    assert len(table.ids) == len(table.monos)
    table.clear()
    assert (table.ids, table.monos, table.times, table.matches) == ({}, [], {}, {})


def test_mono_matches_lowers_exponents_in_slot_order():
    # each slot contributes minus the exponent it finds, then lowers it
    mono = mono_from_pairs([(0, -1, 1), (0, 2, 3), (1, 0, 1)])
    assert mono_matches((), mono) == ((1, (), 0, mono),)
    assert mono_matches((1,), mono) == ((-1, (0,), 0, ((0, -1, 1), (0, 2, 3))),)
    assert mono_matches((0, 0), mono) == (
        (3, (-1, 2), 1, ((0, 2, 2), (1, 0, 1))),
        (3, (2, -1), 1, ((0, 2, 2), (1, 0, 1))),
        (6, (2, 2), 4, ((0, -1, 1), (0, 2, 1), (1, 0, 1))))
    assert mono_matches((2,), mono) == ()


def test_monomial_table_scaled_round_trips_a_state_in_order():
    mod = char_mod(PD2, Q(1))
    table = MonomialTable()
    for s in Sampler(8).fock_states(mod, 5, 3, 2):
        scale, items = table.scaled(s)
        assert all(type(v) is int for _, v in items)
        back = table.unscaled(scale, items)
        assert list(back.terms.items()) == list(s.terms.items())


# --- serialization -----------------------------------------------------------------

def test_round_trip_character_state():
    mod = char_mod(PD2, Q(1))
    smp = Sampler(3)
    for _ in range(5):
        s = smp.fock_state(mod, 3, 3)
        text = state_to_text(s, mod)
        assert state_from_obj(json.loads(text), mod) == s
        assert state_to_text(state_from_obj(json.loads(text), mod), mod) == text


def test_round_trip_heisenberg_state_with_vbasis():
    mod = heisenberg_fock(PD1, [Q(1)], Q(1))
    smp = Sampler(4)
    s = smp.fock_state(mod, 2, 2)
    text = state_to_text(s, mod)
    # a fresh module has an empty registry; the vbasis table rebuilds it
    mod2 = heisenberg_fock(PD1, [Q(1)], Q(1))
    s2 = state_from_obj(json.loads(text), mod2)
    assert state_to_text(s2, mod2) == text


def test_vbasis_merges_a_repeated_variable():
    mod = heisenberg_fock(PD1, [Q(1)], Q(1))
    text = '{"terms":[{"coeff":"1","monomial":[],"v":5}],"vbasis":{"5":[[0,1,1],[0,1,2]]}}'
    (_mono, v), = state_from_obj(json.loads(text), mod).terms
    assert mod.v_to_obj(v) == [[0, 1, 3]]
    assert mod.v_from_obj([[0, 1, 1], [0, 1, 2]]) == mod.v_from_obj([[0, 1, 3]]) == v


def test_rationals_serialized_exactly():
    mod = char_mod(PD1, Q(0))
    s = FockState({(mono_from_pairs([(0, -2, 1)]), 0): Q(-22, 7)})
    text = state_to_text(s, mod)
    assert "-22/7" in text
    assert state_from_obj(json.loads(text), mod) == s


def test_invalid_v_index_rejected():
    mod = char_mod(PD1, Q(0))
    with pytest.raises(ValueError):
        state_from_obj(json.loads('{"terms":[{"coeff":"1","monomial":[],"v":2}]}'), mod)


def test_invalid_alpha_rejected():
    mod = char_mod(PD1, Q(0))
    with pytest.raises(ValueError):
        state_from_obj(json.loads('{"terms":[{"coeff":"1","monomial":[[1,0,1]],"v":0}]}'), mod)
