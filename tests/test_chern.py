"""Slope calculus: transforms, pullbacks, and the kernel-integral route."""

from __future__ import annotations

import doctest
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacalc import chern
from thetacalc.chern import (
    IsogenyMatrix,
    SlopeClass,
    SlopeMatrix,
    box_product,
    check_wirtinger_dims,
    euler_char,
    fm_transform,
    fm_via_kernel,
    isogeny_pullback_A,
    isogeny_pullback_AxA,
    w_class,
)
from thetacalc.exactnum import ConsistencyError, HypothesisError


def test_doctests():
    failures, _ = doctest.testmod(chern)
    assert failures == 0


class TestValidation:
    def test_slope_class(self):
        with pytest.raises(HypothesisError):
            SlopeClass(0, 1, 1)
        with pytest.raises(HypothesisError, match="nonzero"):
            SlopeClass(1, 0, 1)

    def test_slope_matrix_symmetry(self):
        with pytest.raises(HypothesisError, match="symmetric"):
            SlopeMatrix(1, 1, ((1, 2), (3, 4)))

    def test_isogeny_matrix(self):
        with pytest.raises(HypothesisError, match="determinant"):
            IsogenyMatrix(((1, 1), (1, 1)))
        with pytest.raises(HypothesisError, match="integers"):
            IsogenyMatrix(((Fraction(1, 2), 0), (0, 1)))

    def test_w_class_rank_base(self):
        with pytest.raises(HypothesisError, match="positive"):
            w_class(2, 0, 1)

    def test_zero_slope_has_no_transform(self):
        with pytest.raises(HypothesisError, match="slope-class model"):
            fm_transform(SlopeClass(2, 1, 0))
        with pytest.raises(HypothesisError, match="slope-class model"):
            fm_via_kernel(SlopeClass(2, 1, 0))

    def test_zero_is_not_an_isogeny(self):
        with pytest.raises(HypothesisError, match="isogeny"):
            isogeny_pullback_A(SlopeClass(1, 1, 1), 0)

    def test_box_product_needs_matching_genus(self):
        with pytest.raises(HypothesisError, match="genus"):
            box_product(SlopeClass(1, 1, 1), SlopeClass(2, 1, 1))

    def test_wirtinger_hypotheses(self):
        with pytest.raises(HypothesisError, match="odd"):
            check_wirtinger_dims(2, 3, 1)
        with pytest.raises(HypothesisError, match="coprime"):
            check_wirtinger_dims(3, 9, 1)


class TestEulerChar:
    def test_w_class_sections(self):
        for g in (1, 2, 3):
            for a, b in [(1, 1), (1, 3), (3, 5), (5, 2), (7, 4)]:
                assert euler_char(w_class(g, a, b)) == Fraction(b) ** g

    def test_theta_powers(self):
        for g in (1, 2, 3, 4):
            for m in (1, 2, 5):
                assert euler_char(SlopeClass(g, 1, m)) == m**g

    def test_worked_value(self):
        assert euler_char(w_class(2, 3, 5)) == 25


class TestFourierTransform:
    def test_w_class_goes_to_dual(self):
        for g in (1, 2, 3):
            for a, b in [(1, 1), (1, 3), (3, 5), (5, 3)]:
                got = fm_transform(w_class(g, a, b))
                assert got == SlopeClass(g, Fraction(b) ** g, Fraction(-a, b))

    def test_unit_slope(self):
        assert fm_transform(SlopeClass(1, 1, 1)) == SlopeClass(1, 1, -1)

    @given(
        st.integers(1, 4),
        st.fractions(min_value=-9, max_value=9),
        st.fractions(min_value=-9, max_value=9),
    )
    def test_square_scales_rank_by_parity(self, g, rank, slope):
        if rank == 0 or slope == 0:
            return
        c = SlopeClass(g, rank, slope)
        cc = fm_transform(fm_transform(c))
        assert cc == SlopeClass(g, (-1) ** g * rank, slope)

    @given(
        st.integers(1, 4),
        st.fractions(min_value=-9, max_value=9),
        st.fractions(min_value=-9, max_value=9),
    )
    def test_euler_char_swaps_with_rank(self, g, rank, slope):
        if rank == 0 or slope == 0:
            return
        c = SlopeClass(g, rank, slope)
        assert euler_char(fm_transform(c)) == (-1) ** g * c.rank
        assert fm_transform(c).rank == euler_char(c)


class TestIsogenyPullbacks:
    def test_multiplication_splits_w_class(self):
        # Pulling W_{a,b} back by multiplication by a leaves a^g copies
        # of the slope-ab line class.
        for g in (1, 2, 3):
            for a, b in [(1, 2), (2, 3), (3, 5)]:
                got = isogeny_pullback_A(w_class(g, a, b), a)
                assert got == SlopeClass(g, Fraction(a) ** g, a * b)

    def test_identity_and_doubling(self):
        c = SlopeClass(1, 1, 1)
        assert isogeny_pullback_A(c, 1) == c
        assert isogeny_pullback_A(c, 2) == SlopeClass(1, 1, 4)

    def test_difference_map_on_principal_product(self):
        iso = IsogenyMatrix(((1, 1), (1, -1)))
        c = SlopeMatrix(2, 1, ((1, 0), (0, 1)))
        assert isogeny_pullback_AxA(c, iso).q == ((2, 0), (0, 2))

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (3, 5), (5, 7)])
    def test_skewed_difference_map(self, a, b):
        iso = IsogenyMatrix(((a, b), (1, -1)))
        c = SlopeMatrix(2, 1, ((1, 0), (0, a * b)))
        got = isogeny_pullback_AxA(c, iso)
        assert got.q == ((a * (a + b), 0), (0, b * (a + b)))

    @pytest.mark.parametrize("a,b,c,d", [(1, 1, 1, 1), (1, 3, 5, 7), (3, 5, 7, 9)])
    def test_four_parameter_map(self, a, b, c, d):
        iso = IsogenyMatrix(((a, b), (c, -d)))
        start = SlopeMatrix(
            2, 1, ((Fraction(1, a * b), 0), (0, Fraction(1, c * d)))
        )
        delta = a * d + b * c
        got = isogeny_pullback_AxA(start, iso)
        assert got.q == (
            (Fraction(delta, b * d), 0),
            (0, Fraction(delta, a * c)),
        )

    def test_block_diagonal_matches_factorwise(self):
        for m1, m2 in [(1, 2), (2, 3), (3, 5)]:
            c1, c2 = SlopeClass(2, 2, Fraction(1, 3)), SlopeClass(2, 3, 5)
            via_matrix = isogeny_pullback_AxA(
                box_product(c1, c2), IsogenyMatrix(((m1, 0), (0, m2)))
            )
            factorwise = box_product(
                isogeny_pullback_A(c1, m1), isogeny_pullback_A(c2, m2)
            )
            assert via_matrix == factorwise

    @pytest.mark.parametrize("a,b,c,d", [(1, 1, 1, 1), (1, 3, 5, 7), (3, 5, 1, 9)])
    def test_rank_bookkeeping_of_product_isomorphism(self, a, b, c, d):
        # Pulling the box product of W_{ab,1} and W_{cd,1} back along
        # [[a, b], [c, -d]] lands exactly on the box product of
        # W_{bd, ad+bc} and W_{ac, ad+bc}, ranks included.
        g = 2
        delta = a * d + b * c
        start = box_product(w_class(g, a * b, 1), w_class(g, c * d, 1))
        target = box_product(w_class(g, b * d, delta), w_class(g, a * c, delta))
        assert isogeny_pullback_AxA(start, IsogenyMatrix(((a, b), (c, -d)))) == target


class TestWirtingerDims:
    def test_level_two_classical_case(self):
        for g in (1, 2, 3):
            assert check_wirtinger_dims(1, 1, g)
            assert euler_char(w_class(g, 1, 2)) == 2**g

    def test_worked_values(self):
        assert euler_char(w_class(2, 1, 1 + 3)) == 16
        assert euler_char(w_class(1, 3, 3 + 5)) == 8
        assert check_wirtinger_dims(1, 3, 2)
        assert check_wirtinger_dims(3, 5, 1)

    def test_odd_coprime_sweep(self):
        for a in (1, 3, 5, 7, 9):
            for b in (1, 3, 5, 7, 9):
                if a % 2 and b % 2 and math.gcd(a, b) == 1:
                    for g in (1, 2, 3):
                        assert check_wirtinger_dims(a, b, g)


class TestKernelIntegral:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_matches_closed_form(self, g):
        classes = [
            SlopeClass(g, 1, 1),
            SlopeClass(g, 2, 3),
            SlopeClass(g, 1, -1),
            SlopeClass(g, 3, Fraction(1, 2)),
            SlopeClass(g, Fraction(2, 3), Fraction(-5, 7)),
            w_class(g, 3, 5),
            w_class(g, 5, 1),
        ]
        for c in classes:
            assert fm_via_kernel(c) == fm_transform(c)

    def test_genus_budget(self):
        with pytest.raises(HypothesisError, match="g <= 4"):
            fm_via_kernel(SlopeClass(5, 1, 1))


def _exp_even_series(e, top_degree):
    # Oracle: the exponential series, stopped after top_degree / 2 terms
    # since e is nilpotent.
    out = {0: Fraction(1)}
    term = {0: Fraction(1)}
    for j in range(1, top_degree // 2 + 1):
        term = chern._scale_element(chern._mul_elements(term, e), Fraction(1, j))
        if not term:
            break
        for mask, c in term.items():
            s = out.get(mask, Fraction(0)) + c
            if s:
                out[mask] = s
            elif mask in out:
                del out[mask]
    return out


def _kernel_parts(g):
    # theta on each factor and the Poincare class, built as fm_via_kernel does.
    theta_src, theta_tgt, poincare = {}, {}, {}
    for i in range(g):
        u, v = 1 << (2 * i), 1 << (2 * i + 1)
        ut, vt = 1 << (2 * g + 2 * i), 1 << (2 * g + 2 * i + 1)
        theta_src[u | v] = 1
        theta_tgt[ut | vt] = 1
        poincare[u | vt] = 1
        poincare[v | ut] = -1
    return theta_src, theta_tgt, poincare


@st.composite
def _degree_two_elements(draw):
    g = draw(st.integers(min_value=1, max_value=4))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=4 * g - 1),
        st.integers(min_value=0, max_value=4 * g - 1),
    ).filter(lambda p: p[0] != p[1])
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    masks = pairs.map(lambda p: (1 << p[0]) | (1 << p[1]))
    terms = draw(st.dictionaries(masks, coeff, max_size=7))
    return g, {mask: c for mask, c in terms.items() if c}


class TestFactoredExponential:
    @settings(max_examples=80, deadline=None)
    @given(case=_degree_two_elements())
    def test_matches_the_series(self, case):
        g, e = case
        assert chern._exp_even(e) == _exp_even_series(e, 4 * g)

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.integers(min_value=1, max_value=4),
        slope=st.fractions(min_value=-9, max_value=9, max_denominator=9),
    )
    def test_matches_the_series_on_the_kernel_classes(self, g, slope):
        theta_src, theta_tgt, poincare = _kernel_parts(g)
        for e in (
            chern._scale_element(theta_src, slope),
            chern._scale_element(theta_tgt, slope),
            poincare,
        ):
            assert chern._exp_even(e) == _exp_even_series(e, 4 * g)

    def test_kernel_route_rejects_a_non_exponential_integral(self, monkeypatch):
        # A stray top-degree term in exp(P) survives the integration as a
        # target term that exp(slope * theta_tgt) cannot produce.
        g = 2
        c = SlopeClass(g, 3, Fraction(5, 3))
        assert fm_via_kernel(c) == fm_transform(c)
        exp_even = chern._exp_even
        src, top = (1 << (2 * g)) - 1, (1 << (4 * g)) - 1

        def skewed(e):
            out = exp_even(e)
            if any(mask & src and mask >> (2 * g) for mask in e):
                out[top] = out.get(top, 0) + 1
            return out

        monkeypatch.setattr(chern, "_exp_even", skewed)
        with pytest.raises(ConsistencyError, match="not a pure exponential"):
            fm_via_kernel(c)
