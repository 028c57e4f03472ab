from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinefock.formal_dist import (
    DeltaKernel,
    LaurentPoly,
    annihilation_check,
    bilateral_coefficients,
    multiply_by_field,
    residue_pair,
)

Q = Fraction

WINDOW = 8


# --- independent oracle: multiply a bilateral coefficient grid by a(z) --------

def grid_multiply_z(kernel: DeltaKernel, a: LaurentPoly, window: int):
    """Coefficients of a(z)*kernel computed purely on the double series."""
    spread = max(abs(s) for s in a.coeffs) if a.coeffs else 0
    big = bilateral_coefficients(kernel, window + spread, window)
    out = {}
    for (p, q), c in big.items():
        for s, av in a.coeffs.items():
            key = (p + s, q)
            if abs(key[0]) > window:
                continue
            v = out.get(key, Q(0)) + av * c
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
    return out


def restrict(grid, window):
    return {k: v for k, v in grid.items() if abs(k[0]) <= window and abs(k[1]) <= window}


laurent_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=5,
).map(LaurentPoly)


# --- LaurentPoly basics -------------------------------------------------------

def test_laurent_arithmetic():
    a = LaurentPoly({3: Q(1), -1: Q(2)})
    b = LaurentPoly({0: Q(1), 3: Q(-1)})
    assert (a + b).coeffs == {-1: Q(2), 0: Q(1)}
    assert (a * LaurentPoly.monomial(2)).coeffs == {5: Q(1), 1: Q(2)}
    assert a.derivative().coeffs == {2: Q(3), -2: Q(-2)}


# --- multiply_by_field --------------------------------------------------------

def test_field_times_delta_substitutes():
    a = LaurentPoly({2: Q(3), -1: Q(1, 2)})
    got = multiply_by_field(DeltaKernel.delta(), a)
    assert got == DeltaKernel({0: a})


def test_field_times_delta_derivative_leibniz():
    a = LaurentPoly({2: Q(1), 0: Q(5)})
    got = multiply_by_field(DeltaKernel.delta_derivative(1), a)
    assert got == DeltaKernel({1: a, 0: a.derivative()})


def test_identity_field_fixes_delta():
    one = LaurentPoly.monomial(0)
    assert multiply_by_field(DeltaKernel.delta(), one) == DeltaKernel.delta()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_multiply_by_field_matches_series_oracle(order):
    a = LaurentPoly({1: Q(2), -2: Q(-1, 3), 0: Q(1)})
    kernel = DeltaKernel.delta_derivative(order)
    reduced = multiply_by_field(kernel, a)
    window = WINDOW
    lhs = grid_multiply_z(kernel, a, window)
    rhs = restrict(bilateral_coefficients(reduced, window + 2, window), window)
    assert restrict(lhs, window) == rhs


@given(a=laurent_polys)
@settings(max_examples=40, deadline=None)
def test_multiply_by_field_oracle_random(a):
    kernel = DeltaKernel({1: LaurentPoly.monomial(0), 0: LaurentPoly.monomial(2)})
    reduced = multiply_by_field(kernel, a)
    lhs = restrict(grid_multiply_z(kernel, a, WINDOW), WINDOW - 2)
    rhs = restrict(bilateral_coefficients(reduced, WINDOW + 8, WINDOW), WINDOW - 2)
    assert lhs == rhs


# --- annihilation -------------------------------------------------------------

def test_z_minus_w_kills_delta():
    assert annihilation_check(DeltaKernel.delta(), 1)


def test_z_minus_w_squared_kills_first_derivative():
    assert annihilation_check(DeltaKernel.delta_derivative(1), 2)
    assert annihilation_check(DeltaKernel.delta_derivative(2), 3)


def test_single_power_does_not_kill_first_derivative():
    assert not annihilation_check(DeltaKernel.delta_derivative(1), 1)


def test_z_minus_w_times_derivative_gives_delta():
    # expand (z-w) d_w delta once: the leftover is exactly delta
    from affinefock.formal_dist import _mul_z_minus_w
    assert _mul_z_minus_w(DeltaKernel.delta_derivative(1)) == DeltaKernel.delta()


# --- residues ------------------------------------------------------------------

def test_residue_reproduces_field():
    a = LaurentPoly({3: Q(1), -1: Q(2)})
    assert residue_pair(DeltaKernel.delta(), a) == a


@pytest.mark.parametrize("m", range(-WINDOW, WINDOW + 1))
def test_residue_against_derivative_kernel(m):
    got = residue_pair(DeltaKernel.delta_derivative(1), LaurentPoly.monomial(m))
    assert got == LaurentPoly.monomial(m - 1, m) if m != 0 else got.is_zero()


def test_residue_of_zero_field():
    assert residue_pair(DeltaKernel.delta(), LaurentPoly.zero()).is_zero()


@given(a=laurent_polys)
@settings(max_examples=40, deadline=None)
def test_residue_after_multiply(a):
    # Res_z (a(z) * delta) recovers a with w substituted for z
    k = multiply_by_field(DeltaKernel.delta(), a)
    assert residue_pair(k, LaurentPoly.monomial(0)) == a


# --- the two symmetry identities -------------------------------------------------

def test_delta_symmetric_under_variable_swap():
    grid = bilateral_coefficients(DeltaKernel.delta(), WINDOW, WINDOW)
    swapped = {(q, p): c for (p, q), c in grid.items()}
    assert grid == swapped


def test_dz_delta_is_minus_dw_delta():
    # d_z delta expanded termwise from the double series definition
    dz_grid = {}
    for m in range(-WINDOW - 1, WINDOW + 2):
        if m != 0 and abs(m - 1) <= WINDOW and abs(-m - 1) <= WINDOW:
            dz_grid[(m - 1, -m - 1)] = Q(m)
    neg_dw = (-DeltaKernel.delta().d_dw())
    got = bilateral_coefficients(neg_dw, WINDOW, WINDOW)
    assert got == dz_grid


def test_dz_delta_residues():
    neg_dw = -DeltaKernel.delta().d_dw()
    for m in range(-WINDOW, WINDOW + 1):
        # integration by parts: Res_z z^m d_z delta = -m w^{m-1}
        expected = LaurentPoly.monomial(m - 1, -m) if m != 0 else LaurentPoly.zero()
        assert residue_pair(neg_dw, LaurentPoly.monomial(m)) == expected
