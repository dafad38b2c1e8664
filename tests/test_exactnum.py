"""Field arithmetic in Q(zeta_n): axioms, known values, float embedding."""

from __future__ import annotations

import doctest
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetacalc import exactnum
from thetacalc.exactnum import (
    ConsistencyError,
    CycNum,
    HypothesisError,
    check_price,
    cyclotomic_polynomial,
    euler_phi,
    extract_rational,
    factorize,
    sine_square,
)

from oracles import embed


def test_doctests():
    failures, _ = doctest.testmod(exactnum)
    assert failures == 0


def test_price_at_the_budget_is_admitted_and_one_more_unit_refused():
    check_price(5, 5, "a walk")
    with pytest.raises(HypothesisError) as info:
        check_price(6, 5, "a walk")
    assert str(info.value) == "a walk: 6 work units, over the budget of 5"


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # Derived by dividing x^6 - 1 by Phi_1 Phi_2 Phi_3.
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_degree_is_phi():
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_cyclotomic_product_recovers_x_n_minus_1():
    # prod_{d | n} Phi_d = x^n - 1.
    for n in (6, 12, 30, 105):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = exactnum._int_poly_mul(prod, cyclotomic_polynomial(d))
        expected = tuple([-1] + [0] * (n - 1) + [1])
        assert prod == expected


def test_conductor_105_reduces_by_a_coefficient_beyond_signs():
    # Phi_105 is the first cyclotomic polynomial with a coefficient
    # outside {-1, 0, 1}; every reduction below divides by it.
    n = 105
    assert min(cyclotomic_polynomial(n)) == -2
    grid = range(-n, 2 * n, 11)
    for a in grid:
        for b in grid:
            assert CycNum.zeta(n, a) * CycNum.zeta(n, b) == CycNum.zeta(n, a + b)
    roots = [CycNum.zeta(n, k) for k in range(n)]
    assert sum(roots, CycNum.from_rational(n, 0)).is_zero()
    primitive = [z for k, z in enumerate(roots) if math.gcd(k, n) == 1]
    # The primitive roots sum to the Moebius value mu(105) = -1.
    assert extract_rational(sum(primitive, CycNum.from_rational(n, 0))) == -1


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_zeta4_squared_is_minus_one():
    i = CycNum.zeta(4)
    assert i * i == CycNum.from_rational(4, -1)


def test_inverse_of_rational_two():
    two = CycNum.from_rational(5, 2)
    assert two.inverse() == CycNum.from_rational(5, Fraction(1, 2))


def test_rational_inverse_takes_no_conjugates(monkeypatch):
    # A rational needs no Galois norm, so a large conductor costs nothing.
    calls = []
    galois = CycNum.galois
    monkeypatch.setattr(CycNum, "galois", lambda a, t: calls.append(t) or galois(a, t))
    for q in (Fraction(-5, 7), Fraction(5, 7), Fraction(-3), Fraction(1)):
        assert CycNum.from_rational(6000, q).inverse() == CycNum.from_rational(6000, 1 / q)
    assert CycNum.from_rational(6000, -5) / 7 == CycNum.from_rational(6000, Fraction(-5, 7))
    assert calls == []


def test_sine_square_of_conductor_three_is_rational_three():
    # zeta_3 + zeta_3^2 = -1, so 2 - zeta - zeta^{-1} = 3.
    val = sine_square(3, 1)
    assert extract_rational(val) == 3
    one = CycNum.from_rational(3, 1)
    assert val * one == CycNum.from_rational(3, 3)


def test_stored_form_is_reduced_over_one_denominator():
    a = CycNum(3, (Fraction(2, 4), Fraction(1, 2)))
    assert (a.nums, a.den) == ((1, 1), 2)
    assert a.coeffs == (Fraction(1, 2), Fraction(1, 2))
    zero = CycNum.from_rational(7, 0)
    assert (zero.nums, zero.den) == ((0,) * 6, 1)


@pytest.mark.parametrize(
    "args",
    [(3, (0.5, 0)), (3, ("1", 0)), (3, (1, 0), 0), (3, (1, 0), -2), (3, (1, 0), 1.0)],
)
def test_constructor_rejects_non_rational_entries_and_bad_denominators(args):
    with pytest.raises(ValueError):
        CycNum(*args)


def test_extract_rational_accepts_constant():
    a = CycNum(3, (Fraction(5, 2), Fraction(0)))
    assert extract_rational(a) == Fraction(5, 2)


def test_extract_rational_rejects_irrational_with_residual():
    a = CycNum(3, (Fraction(1), Fraction(1)))
    with pytest.raises(ConsistencyError) as err:
        extract_rational(a)
    assert "residual" in str(err.value)


def test_full_galois_orbit_of_zeta5_sums_to_minus_one():
    total = CycNum.from_rational(5, 0)
    for j in range(1, 5):
        total = total + CycNum.zeta(5, j)
    assert extract_rational(total) == -1


def test_conductor_mismatch_rejected():
    with pytest.raises(ValueError, match="conductor"):
        CycNum.zeta(3) + CycNum.zeta(4)


def test_invert_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        CycNum.from_rational(7, 0).inverse()


def test_negative_powers():
    z = CycNum.zeta(7, 3)
    assert z ** -2 == CycNum.zeta(7, -6)
    s = sine_square(5, 1)
    assert s ** -3 == s.inverse() ** 3
    for n in range(1, 31):
        one = CycNum.from_rational(n, 1)
        for d in range(1, n // 2 + 1):
            for e in (1, 2, 3):
                assert sine_square(n, d) ** -e * sine_square(n, d) ** e == one


def test_galois_conjugation_fixes_rationals():
    a = CycNum.from_rational(9, Fraction(22, 7))
    assert a.conjugate() == a


def test_lift_preserves_value():
    s = sine_square(3, 1)
    lifted = s.lift(12)
    assert extract_rational(lifted) == 3


_cond = st.integers(min_value=1, max_value=30)
_coeff = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


def _cycnums(n: int) -> st.SearchStrategy[CycNum]:
    coeffs = st.lists(_coeff, min_size=euler_phi(n), max_size=euler_phi(n))
    return coeffs.map(lambda c: CycNum(n, tuple(c)))


def _cycnum(n: int, data) -> CycNum:
    return data.draw(_cycnums(n))


@settings(max_examples=60, deadline=None)
@given(a=_cond.flatmap(_cycnums))
# phi(1) = phi(2) = 1: the inverse has no other conjugate to multiply.
@example(a=CycNum(1, (Fraction(-7, 3),)))
@example(a=CycNum(2, (Fraction(5, 6),)))
# phi(29) = 28: the longest conjugate product in range.
@example(a=CycNum(29, tuple(Fraction(j % 17 - 8, j % 6 + 1) for j in range(28))))
def test_multiplicative_inverse_axiom(a):
    if a.is_zero():
        return
    assert a * a.inverse() == CycNum.from_rational(a.conductor, 1)


def _assert_stored_form(x: CycNum) -> None:
    # Internal results skip the constructor's checks, so check their fields.
    assert type(x.nums) is tuple and len(x.nums) == euler_phi(x.conductor)
    assert all(type(c) is int for c in x.nums)
    assert type(x.den) is int and x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    rebuilt = CycNum(x.conductor, x.nums, x.den)
    assert rebuilt == x and hash(rebuilt) == hash(x)


@settings(max_examples=60, deadline=None)
@given(n=_cond, data=st.data())
def test_field_axioms_on_sampled_triples(n, data):
    a, b, c = _cycnum(n, data), _cycnum(n, data), _cycnum(n, data)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert CycNum(n, a.coeffs) == a
    assert (a + b) - b == a
    assert hash(a * b) == hash(b * a)
    unit = max(t for t in range(1, n + 1) if math.gcd(t, n) == 1)
    results = [a + b, a - b, -a, 1 - a, a * b, a * 3, a.galois(unit), a.lift(2 * n)]
    if not a.is_zero():
        results.append(a.inverse())
    for x in results:
        _assert_stored_form(x)


@settings(max_examples=60, deadline=None)
@given(a=_cond.flatmap(_cycnums))
def test_rational_operand_on_either_side_matches_polynomial_product(a):
    n = a.conductor
    for q in (CycNum.from_rational(n, 1), CycNum.from_rational(n, Fraction(-3, 2))):
        full = CycNum.from_poly(n, exactnum._int_poly_mul(q.nums, a.nums), q.den * a.den)
        for product in (q * a, a * q):
            assert (product.nums, product.den) == (full.nums, full.den)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 12, 29])
def test_zeta_depends_only_on_the_residue_of_the_power(n):
    for k in range(-2 * n, 2 * n):
        assert CycNum.zeta(n, k) == CycNum.zeta(n, k + n) == CycNum.zeta(n, k - n)
        assert CycNum.zeta(n, k) == CycNum.from_poly(n, [0] * (k % n) + [1])


@settings(max_examples=40, deadline=None)
@given(n=_cond, data=st.data())
def test_embedding_matches_exact_value(n, data):
    a = _cycnum(n, data)
    b = _cycnum(n, data)
    prod = a * b
    with mpmath.workprec(120):
        lhs = embed(a, 120) * embed(b, 120)
        rhs = embed(prod, 120)
        scale = max(abs(lhs), abs(rhs), mpmath.mpf(1))
        assert abs(lhs - rhs) / scale < 1e-9


def test_sine_square_embedding_tolerance():
    # 2 - zeta^d - zeta^{-d} embeds to 4 sin^2(pi d / n) within 1e-12.
    for n in range(2, 31):
        for d in range(1, n):
            val = embed(sine_square(n, d), 100)
            with mpmath.workprec(100):
                target = 4 * mpmath.sin(mpmath.pi * d / n) ** 2
                assert abs(val - target) < 1e-12
                assert abs(mpmath.im(val)) < 1e-12


def test_results_independent_of_evaluation_order():
    # Exact arithmetic: regrouping a sum cannot change the value.
    terms = [sine_square(12, d) ** -1 for d in range(1, 12)]
    left = terms[0]
    for t in terms[1:]:
        left = left + t
    right = terms[-1]
    for t in terms[-2::-1]:
        right = t + right
    assert left == right
