"""Acceptance suite: every exit criterion at its stated size, exact arithmetic.

Each criterion prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run) and asserts exactness; there are no
tolerances anywhere, equality is bit-exact rational equality.

Run with:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from affinefock.fock import FockState, mono_from_pairs
from affinefock.formal_dist import LaurentPoly, delta_identity_suite
from affinefock.inducing import (
    character_module,
    evaluation_module,
    heisenberg_fock,
    natural_block_rep,
)
from affinefock.lie import (
    bracket,
    build_sl,
    cartan_h,
    form,
    matrix_unit,
    parabolic_decompose,
)
from affinefock.realization import (
    CENTRAL,
    NormalOrderedOperator,
    Realization,
    Term,
    _canonical_terms,
    bernoulli,
    bracket_sweep,
    build_operator_explicit_sl,
    build_operator_general,
)
from affinefock.sampling import Sampler
from oracles import (
    apply_annihilation,
    apply_creation,
    element,
    h_weight,
    instantiate_operator,
    killing_form,
    loop,
    loop_bracket,
    pbw_leading_check,
    total_mode,
    vacuum_expected,
)

Q = Fraction


def report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def sweep_configs():
    pd_sl2 = parabolic_decompose(1, ())
    configs = [
        ("sl(2) Borel, heisenberg level 0",
         pd_sl2, heisenberg_fock(pd_sl2, [Q(1, 2)], Q(0))),
        ("sl(2) Borel, heisenberg level 1",
         pd_sl2, heisenberg_fock(pd_sl2, [Q(1)], Q(1))),
        ("sl(2) Borel, heisenberg level -3/2",
         pd_sl2, heisenberg_fock(pd_sl2, [Q(-2)], Q(-3, 2))),
    ]
    pd_sl3_max = parabolic_decompose(2, {2})
    configs.append(("sl(3) maximal parabolic, evaluation at 1",
                    pd_sl3_max,
                    evaluation_module(pd_sl3_max,
                                      natural_block_rep(pd_sl3_max, 1), Q(1))))
    pd_sl3_borel = parabolic_decompose(2, ())
    configs.append(("sl(3) Borel, character",
                    pd_sl3_borel,
                    character_module(pd_sl3_borel, [
                        (cartan_h(2, 1), 0, Q(3)),
                        (cartan_h(2, 2), 0, Q(-1, 2)),
                        (cartan_h(2, 1), 1, Q(1)),
                        (cartan_h(2, 2), -2, Q(2, 3)),
                    ])))
    pd_sl4 = parabolic_decompose(3, {2, 3})
    configs.append(("sl(4) two-step parabolic, character",
                    pd_sl4,
                    character_module(pd_sl4, [
                        (pd_sl4.center_basis[0], 0, Q(7, 3)),
                        (pd_sl4.center_basis[0], 2, Q(-1)),
                    ])))
    return configs


def test_criterion_1_homomorphism_sweep():
    total = 0
    for label, pd, module in sweep_configs():
        real = Realization(pd, module)
        states = Sampler(2024).fock_states(module, 20, 3, 3)
        checks, failure = bracket_sweep(real, 3, states)
        assert failure is None, (label, failure)
        total += checks
    report(1, True, f"homomorphism sweep: {total} bracket checks, zero residual "
                    "in all 6 configurations")


def test_criterion_2_engine_agreement():
    pairs_checked = 0
    for n in (1, 2, 3):
        pd = parabolic_decompose(n, set(range(2, n + 1)))
        if n == 1:
            module = heisenberg_fock(pd, [Q(1)], Q(1))
        elif n == 2:
            module = evaluation_module(pd, natural_block_rep(pd, 1), Q(1))
        else:
            module = character_module(pd, [(pd.center_basis[0], 0, Q(2)),
                                           (pd.center_basis[0], 1, Q(-1, 3))])
        gen = Realization(pd, module, engine="general")
        exp = Realization(pd, module, engine="explicit")
        states = Sampler(55 + n).fock_states(module, 50, 3, 3)
        for _, elem, _ in pd.homogeneous_basis:
            for m in range(-3, 4):
                assert (build_operator_general(pd, elem, m).terms
                        == build_operator_explicit_sl(pd, elem, m).terms)
                for s in states:
                    assert gen.act(elem, m, s) == exp.act(elem, m, s)
                    pairs_checked += 1
    report(2, True, f"general and closed-form engines agree exactly on "
                    f"{pairs_checked} (generator, mode, state) actions, n = 1..3")


def _sl2_closed_form_operator(pd, name: str, m: int) -> NormalOrderedOperator:
    h = cartan_h(1, 1)
    e = matrix_unit(1, 1, 2)
    if name == "f":
        raw = [Term(Q(-1), (), "create", 0)]
    elif name == "h":
        raw = [Term(Q(2), (0,), "create", 0),
               Term(Q(1), (), "levi", h)]
    else:
        raw = [Term(Q(1), (0, 0), "create", 0),
               Term(Q(-1), (0,), "central", mode_factor=0),
               Term(Q(1), (0,), "levi", h),
               Term(Q(1), (), "levi", e)]
    return NormalOrderedOperator(_canonical_terms(pd, raw), m)


def test_criterion_3_sl2_transcription():
    pd = parabolic_decompose(1, ())
    elems = {"f": matrix_unit(1, 2, 1), "h": cartan_h(1, 1), "e": matrix_unit(1, 1, 2)}
    count = 0
    for name, elem in elems.items():
        for m in range(-3, 4):
            expected = _sl2_closed_form_operator(pd, name, m)
            got = build_operator_explicit_sl(pd, elem, m)
            assert got.terms == expected.terms, (name, m)
            assert instantiate_operator(got, 3) == instantiate_operator(expected, 3)
            count += 1
    report(3, True, f"rank-one explicit operators match the transcribed closed "
                    f"forms structurally and on a mode window, {count} cases")


def test_criterion_4_vacuum_property():
    cases = 0
    for label, pd, module in sweep_configs():
        real = Realization(pd, module)
        vac = FockState.vacuum(0)
        for elem in list(pd.levi_basis) + list(pd.e_basis):
            for m in range(-3, 4):
                assert real.act(elem, m, vac) == vacuum_expected(real, elem, m), \
                    (label, elem, m)
                cases += 1
        assert real.act(CENTRAL, 0, vac) == vac.scale(module.level)
    report(4, True, f"pi(a_m) fixes 1 (x) sigma(a_m)v on the vacuum for all "
                    f"{cases} parabolic generators and modes, every module kind")


def test_criterion_5_pbw_leading_term():
    checked = 0
    for n in (1, 2):
        pd = parabolic_decompose(n, ())
        module = character_module(pd)
        real = Realization(pd, module)
        alphas = range(pd.num_alpha)
        modes = range(-2, 3)
        letters = [(a, LaurentPoly.monomial(j)) for a in alphas for j in modes]
        for length in (0, 1, 2, 3):
            for seq in itertools.product(letters, repeat=length):
                assert pbw_leading_check(real, list(seq)), seq
                checked += 1
    report(5, True, f"PBW leading terms carry sign (-1)^r and the plain "
                    f"product monomial in {checked} sequences (rank 1 and 2)")


def test_criterion_6_delta_calculus():
    results = delta_identity_suite(window=8)
    for desc, ok in results:
        assert ok, desc
    report(6, True, "all six delta-kernel identities hold on window 8")


def test_criterion_7_structure_sanity():
    # Killing form is 2(n+1) times the trace form, on the full basis
    for n in (1, 2, 3):
        alg = build_sl(n)
        for a in alg.basis:
            for b in alg.basis:
                assert killing_form(a, b) == 2 * (n + 1) * form(a, b)
        e_th = matrix_unit(n, 1, n + 1)
        f_th = matrix_unit(n, n + 1, 1)
        h_th = bracket(e_th, f_th)
        assert form(h_th, h_th) == 2

    # loop-bracket antisymmetry and Jacobi on sampled mode triples
    alg = build_sl(1)
    elems = [loop(element(alg, "E1.2"), 2), loop(element(alg, "H1"), -1),
             loop(element(alg, "E2.1"), -2), loop(element(alg, "E1.2"), -4),
             loop(element(alg, "H1"), 4), loop(element(alg, "E2.1"), 3)]
    for x, y, z in itertools.combinations(elems, 3):
        jac = (loop_bracket(x, loop_bracket(y, z))
               + loop_bracket(y, loop_bracket(z, x))
               + loop_bracket(z, loop_bracket(x, y)))
        assert jac.is_zero()

    # Weyl CCR suite on window 4, degree 4
    pd = parabolic_decompose(2, {2})
    module = character_module(pd, [(pd.center_basis[0], 0, Q(1))])
    states = Sampler(99).fock_states(module, 5, 4, 4)
    for alpha in range(2):
        for beta in range(2):
            for n_ in range(-4, 5):
                for m_ in range(-4, 5):
                    for s in states:
                        comm = (apply_annihilation(apply_creation(s, beta, m_), alpha, n_)
                                - apply_creation(apply_annihilation(s, alpha, n_), beta, m_))
                        expected = -s if (alpha == beta and n_ == m_) else FockState.zero()
                        assert comm == expected

    # Bernoulli numbers satisfy the defining recurrence through 32
    from math import comb
    assert bernoulli(0) == 1 and bernoulli(1) == Q(-1, 2)
    for k in range(2, 33):
        assert sum(comb(k + 1, j) * bernoulli(j) for j in range(k + 1)) == 0
    for j in range(1, 16):
        assert bernoulli(2 * j + 1) == 0

    report(7, True, "Killing normalization, highest-root norm, loop Jacobi, "
                    "Weyl commutation window, Bernoulli recurrence: all exact")


def test_criterion_8_grading():
    pd2 = parabolic_decompose(1, ())
    pd3 = parabolic_decompose(2, ())
    configs = [
        (pd2, heisenberg_fock(pd2, [Q(2)], Q(1))),
        (pd3, character_module(pd3, [(cartan_h(2, 1), 0, Q(1)),
                                     (cartan_h(2, 2), 0, Q(-1))])),
    ]
    checked = 0
    for pd, module in configs:
        real = Realization(pd, module)
        states = [FockState.vacuum(0)]
        states.append(FockState({(mono_from_pairs([(0, 2, 1)]), 0): Q(1)}))
        states.append(FockState({(mono_from_pairs(
            [(pd.num_alpha - 1, -1, 1), (0, 1, 1)]), 0): Q(1, 2)}))
        if module.kind == "heisenberg_fock":
            deep = module.intern(((0, 1, 1),))
            states.append(FockState({(mono_from_pairs([(0, 0, 1)]), deep): Q(1)}))
        for name, elem, height in pd.homogeneous_basis:
            root_of = None
            if height != 0 or any(i != j for (i, j) in elem.entries):
                (i, j), = elem.entries.keys()
                from affinefock.lie import Root
                root_of = Root(i, j)
            for m in (-2, 0, 1, 2):
                for s in states:
                    t = real.act(elem, m, s)
                    if t.is_zero():
                        continue
                    assert total_mode(t, module) == total_mode(s, module) + m, \
                        (name, m)
                    for h in pd.cartan:
                        shift = root_of.value_on(h) if root_of is not None else Q(0)
                        assert h_weight(t, h, pd, module) \
                            == h_weight(s, h, pd, module) + shift, (name, m)
                    checked += 1
    report(8, True, f"actions shift the total mode by m and the weight by the "
                    f"root, {checked} homogeneous cases")


def test_criterion_9_negative_controls():
    # (a) finite-dimensional inducing data at nonzero level is unconstructible
    pd = parabolic_decompose(2, {2})
    with pytest.raises(ValueError):
        evaluation_module(pd, natural_block_rep(pd, 1), Q(1), level=Q(1))
    with pytest.raises(ValueError):
        character_module(pd, [], level=Q(2))

    # (b) flipping the sign of any single acting term breaks the sweep
    pd2 = parabolic_decompose(1, ())
    module = heisenberg_fock(pd2, [Q(1)], Q(1))
    states = Sampler(2024).fock_states(module, 6, 3, 3)
    flips_detected = 0
    for target, tm in [(matrix_unit(1, 1, 2), 1), (cartan_h(1, 1), 1),
                       (matrix_unit(1, 2, 1), 1)]:
        base = build_operator_general(pd2, target, tm)
        for idx, term in enumerate(base.terms):
            if term.head_kind == "levi" and \
                    pd2.project(term.head, "u") == term.head:
                continue  # nilradical heads act by zero on every supported V

            def hook(a, m, op, target=target, tm=tm, idx=idx):
                if a == target and m == tm:
                    return op.with_flipped_term(idx)
                return op

            real = Realization(pd2, module, operator_hook=hook)
            _, failure = bracket_sweep(real, 3, states)
            assert failure is not None, (target, tm, idx)
            assert not failure["residual"].is_zero()
            flips_detected += 1
    report(9, True, f"level obstruction rejected at construction; all "
                    f"{flips_detected} single-term sign flips caught with a witness")
