from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinefock.inducing import (
    MAX_EVALUATION_MODE,
    axiom_check,
    character_module,
    evaluation_module,
    heisenberg_fock,
    levi_coords,
    natural_block_rep,
)
from affinefock.lie import (
    bracket,
    cartan_h,
    diag_element,
    form,
    levi_blocks,
    matrix_unit,
    parabolic_decompose,
)
from affinefock.sampling import Sampler
from oracles import loop, loop_bracket, v_states

Q = Fraction


# --- character modules -----------------------------------------------------------

def test_character_basic_action():
    pd = parabolic_decompose(1, ())
    h = cartan_h(1, 1)
    lam = Q(5, 3)
    mod = character_module(pd, [(h, 0, lam)])
    assert mod.act(h, 0, 0) == {0: lam}
    assert mod.act(h, 3, 0) == {}
    # nilradical part acts by zero
    assert mod.act(matrix_unit(1, 1, 2), 0, 0) == {}


def test_character_finite_mode_support():
    pd = parabolic_decompose(1, ())
    h = cartan_h(1, 1)
    mod = character_module(pd, [(h, 0, Q(2)), (h, 1, Q(-1, 2))])
    assert mod.act(h, 1, 0) == {0: Q(-1, 2)}
    assert mod.act(h, -1, 0) == {}
    assert mod.v_mode(0) is None  # support off mode zero breaks the grading


def test_character_rejects_derived_levi_direction():
    pd = parabolic_decompose(2, {2})
    with pytest.raises(ValueError):
        character_module(pd, [(matrix_unit(2, 2, 3), 0, Q(1))])
    with pytest.raises(ValueError):
        character_module(pd, [(cartan_h(2, 2), 0, Q(1))])  # coroot of a Sigma-root


def test_character_rejects_nonzero_level():
    pd = parabolic_decompose(1, ())
    with pytest.raises(ValueError):
        character_module(pd, [], level=1)


def test_character_linearity_on_center():
    pd = parabolic_decompose(2, ())
    assignments = [(cartan_h(2, 1), 0, Q(3)), (cartan_h(2, 2), 0, Q(-1))]
    mod = character_module(pd, assignments)
    combo = cartan_h(2, 1) + cartan_h(2, 2).scale(2)
    assert mod.act(combo, 0, 0) == {0: Q(1)}


def test_character_accepts_consistent_dependent_assignments():
    pd = parabolic_decompose(2, ())
    h1, h2 = cartan_h(2, 1), cartan_h(2, 2)
    mod = character_module(pd, [(h1, 0, Q(1)), (h2, 0, Q(2)), (h1 + h2, 0, Q(3))])
    assert mod.v_weight(0, h1) == 1
    assert mod.v_weight(0, h2) == 2


def test_character_rejects_inconsistent_dependent_assignments():
    pd = parabolic_decompose(2, ())
    h1, h2 = cartan_h(2, 1), cartan_h(2, 2)
    with pytest.raises(ValueError, match="inconsistent character values at mode 0"):
        character_module(pd, [(h1, 0, Q(1)), (h2, 0, Q(2)), (h1 + h2, 0, Q(4))])
    with pytest.raises(ValueError, match="inconsistent character values at mode 1"):
        character_module(pd, [(h1, 1, Q(1)), (h1.scale(2), 1, Q(3))])


# --- evaluation modules -------------------------------------------------------------

def sl3_block_module(s=Q(1)):
    pd = parabolic_decompose(2, {2})
    rho = natural_block_rep(pd, 1)
    return pd, evaluation_module(pd, rho, s)


def test_levi_blocks():
    assert levi_blocks(parabolic_decompose(2, {2})) == [[1], [2, 3]]
    assert levi_blocks(parabolic_decompose(3, {2, 3})) == [[1], [2, 3, 4]]
    assert levi_blocks(parabolic_decompose(2, ())) == [[1], [2], [3]]


def test_evaluation_action_at_s_one():
    pd, mod = sl3_block_module()
    e23 = matrix_unit(2, 2, 3)
    for j in (-2, 0, 3):
        assert mod.act(e23, j, 1) == {0: Q(1)}
        assert mod.act(e23, j, 0) == {}


def test_evaluation_scales_with_point():
    pd, mod = sl3_block_module(s=Q(2))
    e23 = matrix_unit(2, 2, 3)
    assert mod.act(e23, 3, 1) == {0: Q(8)}
    assert mod.act(e23, -2, 1) == {0: Q(1, 4)}


def test_evaluation_zero_rho():
    pd = parabolic_decompose(1, ())
    rho = [[[Q(0)]] for _ in pd.levi_basis]
    mod = evaluation_module(pd, rho, Q(5))
    assert mod.act(cartan_h(1, 1), 2, 0) == {}


def test_evaluation_rejects_nonzero_level():
    pd = parabolic_decompose(2, {2})
    with pytest.raises(ValueError):
        evaluation_module(pd, natural_block_rep(pd, 1), Q(1), level=Q(1, 2))


def test_evaluation_rejects_bad_rho():
    pd = parabolic_decompose(2, {2})
    rho = natural_block_rep(pd, 1)
    rho[2] = [[Q(0), Q(2)], [Q(0), Q(0)]]  # corrupt one root-vector matrix
    with pytest.raises(ValueError, match=r"fails on basis pair \(2,3\)"):
        evaluation_module(pd, rho, Q(1))


def test_evaluation_s_zero_mode_rules():
    pd = parabolic_decompose(2, {2})
    mod = evaluation_module(pd, natural_block_rep(pd, 1), Q(0))
    h2 = cartan_h(2, 2)
    assert mod.act(h2, 1, 0) == {}
    assert mod.act(h2, 0, 0) == {0: Q(1)}
    for _ in range(2):  # an error is never memoized
        with pytest.raises(ValueError):
            mod.act(h2, -1, 0)


@pytest.mark.parametrize("s", [Q(2), Q(-1, 3)])
def test_evaluation_mode_bound_off_unit_points(s):
    pd = parabolic_decompose(2, {2})
    mod = evaluation_module(pd, natural_block_rep(pd, 1), s)
    h2 = cartan_h(2, 2)
    for mode in (MAX_EVALUATION_MODE, -MAX_EVALUATION_MODE):
        assert mod.act(h2, mode, 0) == {0: s ** mode}
        for _ in range(2):  # an error is never memoized
            with pytest.raises(ValueError, match="outside"):
                mod.act(h2, mode + (1 if mode > 0 else -1), 0)
    unit = evaluation_module(pd, natural_block_rep(pd, 1), Q(-1))
    assert unit.act(h2, MAX_EVALUATION_MODE + 1, 0) == {0: Q(-1)}


def test_levi_coords_round_trip():
    pd = parabolic_decompose(2, {2})
    x = cartan_h(2, 1).scale(Q(1, 2)) + matrix_unit(2, 3, 2).scale(3)
    coords = levi_coords(pd, x)
    rebuilt = pd.levi_basis[0].scale(0)
    for c, b in zip(coords, pd.levi_basis):
        rebuilt = rebuilt + b.scale(c)
    assert rebuilt == x


# --- heisenberg Fock modules ----------------------------------------------------------

def test_heisenberg_requires_borel():
    with pytest.raises(ValueError):
        heisenberg_fock(parabolic_decompose(2, {2}), [Q(1)], Q(1))


def test_heisenberg_creation_annihilation_pairing():
    pd = parabolic_decompose(1, ())
    mod = heisenberg_fock(pd, [Q(0)], Q(1))
    h = cartan_h(1, 1)
    vac = 0
    created = mod.act(h, -1, vac)
    (idx, coeff), = created.items()
    assert coeff == 1
    # annihilate back: [h_1, h_{-1}] = (h,h) kappa = 2
    back = mod.act(h, 1, idx)
    assert back == {vac: Q(2)}
    oracle = loop_bracket(loop(h, 1), loop(h, -1))
    assert oracle.central == form(h, h)


def test_heisenberg_positive_mode_kills_vacuum():
    pd = parabolic_decompose(1, ())
    mod = heisenberg_fock(pd, [Q(4)], Q(2))
    assert mod.act(cartan_h(1, 1), 2, 0) == {}


def test_heisenberg_mode_zero_scalar():
    pd = parabolic_decompose(1, ())
    lam = Q(9, 4)
    mod = heisenberg_fock(pd, [lam], Q(1))
    idx = mod.intern(((0, 1, 1),))
    assert mod.act(cartan_h(1, 1), 0, idx) == {idx: lam}


def test_heisenberg_level_zero_positive_modes_vanish():
    pd = parabolic_decompose(1, ())
    mod = heisenberg_fock(pd, [Q(1)], Q(0))
    idx = mod.intern(((0, 1, 2),))
    assert mod.act(cartan_h(1, 1), 1, idx) == {}


def test_heisenberg_gram_mixing_sl3():
    pd = parabolic_decompose(2, ())
    mod = heisenberg_fock(pd, [Q(0), Q(0)], Q(1))
    h1, h2 = cartan_h(2, 1), cartan_h(2, 2)
    idx = mod.intern(((1, 1, 1),))  # variable of the second Cartan direction
    # (h1, h2) = -1, so h1 at mode +1 sees the neighbour's variable
    assert mod.act(h1, 1, idx) == {0: Q(-1)}
    assert mod.act(h2, 1, idx) == {0: Q(2)}


def _registered(mod) -> int:
    """Number of V-monomials in a Cartan Fock module's registry."""
    count = 0
    while True:
        try:
            mod.check_v_index(count)
        except ValueError:
            return count
        count += 1


def test_heisenberg_registers_no_cancelled_monomial():
    # w2 = (1/3, 1/3, -2/3) pairs to zero with h1, so removing y(0, 1) cancels
    pd = parabolic_decompose(2, ())
    mod = heisenberg_fock(pd, [Q(1), Q(2)], Q(1))
    idx = mod.v_from_obj([[0, 1, 1], [1, 1, 2]])
    out = mod.act(pd.center_basis[1], 1, idx)
    assert [mod.v_to_obj(v) for v in out] == [[[0, 1, 1], [1, 1, 1]]]
    assert _registered(mod) == 3


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_heisenberg_act_registers_only_its_result(data):
    n = data.draw(st.integers(1, 3))
    pd = parabolic_decompose(n, ())
    mod = heisenberg_fock(pd, [Q(1)] * n, data.draw(st.sampled_from([Q(1), Q(-3, 2)])))
    coords = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    x = diag_element(n, [b - a for a, b in zip([0] + coords, coords + [0])])
    vmono = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 2),
                                         st.integers(1, 2)), max_size=4))
    idx = mod.v_from_obj([list(t) for t in vmono])
    before = _registered(mod)
    out = mod.act(x, data.draw(st.integers(-2, 2)), idx)
    assert set(range(before, _registered(mod))) <= set(out)


def test_heisenberg_v_mode():
    pd = parabolic_decompose(1, ())
    mod = heisenberg_fock(pd, [Q(1)], Q(1))
    idx = mod.intern(((0, 2, 1), (0, 1, 3)))
    assert mod.v_mode(idx) == -5
    assert mod.v_mode(0) == 0


# --- the shared memoized action ---------------------------------------------------------

def _sl2_character():
    pd = parabolic_decompose(1, ())
    return character_module(pd, [(cartan_h(1, 1), 0, Q(5, 3))]), cartan_h(1, 1), 0, 0


def _sl3_evaluation():
    return sl3_block_module(s=Q(2))[1], matrix_unit(2, 2, 3), 3, 1


def _sl2_heisenberg():
    pd = parabolic_decompose(1, ())
    return heisenberg_fock(pd, [Q(1)], Q(1)), cartan_h(1, 1), -1, 0


@pytest.mark.parametrize("build", [_sl2_character, _sl3_evaluation, _sl2_heisenberg])
def test_act_computes_each_key_once(build, monkeypatch):
    # one memo entry holds both forms, whichever of them is read first
    for scaled_first in (False, True):
        mod, x, mode, v = build()
        calls = []
        inner = mod._act

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(mod, "_act", counting)
        entries = len(mod._acts)
        scaled = mod.act_scaled(x, mode, v) if scaled_first else None
        first = mod.act(x, mode, v)
        vbasis = len(mod.vbasis.monos) if mod.needs_vbasis else 0
        assert first
        assert mod.act(x, mode, v) == first
        assert mod.act_scaled(x, mode, v) == (scaled or mod.act_scaled(x, mode, v))
        den, nums = mod.act_scaled(x, mode, v)
        assert type(den) is int and all(type(num) is int for _, num in nums)
        assert [(w, Q(num, den)) for w, num in nums] == list(first.items())
        assert len(calls) == 1
        assert len(mod._acts) == entries + 1
        if mod.needs_vbasis:
            # a repeated creation interns nothing new; the first one went
            # through the V-basis table's product memo
            assert len(mod.vbasis.monos) == vbasis
            assert mod.vbasis.times[v, 0, -mode] == vbasis - 1


# --- axiom checker ----------------------------------------------------------------------

def test_axiom_check_character():
    pd = parabolic_decompose(2, {2})
    mod = character_module(pd, [(pd.center_basis[0], 0, Q(7, 5)),
                                (pd.center_basis[0], 2, Q(-1))])
    checks, failure = axiom_check(mod, 3, v_states(Sampler(21), mod, 20))
    assert failure is None, failure
    assert checks == len(pd.levi_basis) ** 2 * 7 ** 2 * 20


def test_axiom_check_evaluation():
    pd, mod = sl3_block_module()
    checks, failure = axiom_check(mod, 3, v_states(Sampler(22), mod, 20))
    assert failure is None, failure
    assert checks == len(pd.levi_basis) ** 2 * 7 ** 2 * 20


def test_axiom_check_heisenberg():
    pd = parabolic_decompose(1, ())
    mod = heisenberg_fock(pd, [Q(1, 2)], Q(2))
    checks, failure = axiom_check(mod, 3, v_states(Sampler(23), mod, 20))
    assert failure is None, failure
    assert checks == len(pd.levi_basis) ** 2 * 7 ** 2 * 20


def test_axiom_check_heisenberg_sl3():
    pd = parabolic_decompose(2, ())
    mod = heisenberg_fock(pd, [Q(1), Q(-2)], Q(-3, 2))
    checks, failure = axiom_check(mod, 2, v_states(Sampler(24), mod, 8))
    assert failure is None, failure
    assert checks == len(pd.levi_basis) ** 2 * 5 ** 2 * 8


def test_axiom_check_catches_corrupted_rho():
    # corrupt a valid module after construction, past its own rho check
    pd, mod = sl3_block_module()
    rho = list(mod.rho)
    rho[2] = ((Q(0), Q(2)), (Q(0), Q(0)))
    mod.rho = tuple(rho)
    mod._acts.clear()
    checks, failure = axiom_check(mod, 1, v_states(Sampler(25), mod, 5))
    assert 0 < checks <= len(pd.levi_basis) ** 2 * 3 ** 2 * 5
    assert failure.startswith("fails on basis pair (")


def test_continuity_surrogate_finite_support():
    # acting with x (x) f for Laurent f expands to a finite sum in every kind
    pd = parabolic_decompose(1, ())
    mod = heisenberg_fock(pd, [Q(1)], Q(1))
    h = cartan_h(1, 1)
    idx = mod.intern(((0, 1, 1),))
    total: dict[int, Fraction] = {}
    for mode, coeff in [(-2, Q(1)), (0, Q(3)), (1, Q(-1, 2))]:
        for v, c in mod.act(h, mode, idx).items():
            total[v] = total.get(v, Q(0)) + coeff * c
    assert len(total) <= 3
