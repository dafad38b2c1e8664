"""Projective dimensions: twisted subset sum against the character sum."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from thetacalc.exactnum import CycNum, HypothesisError, extract_rational
from thetacalc.pgl import (
    COPERIODIC_BUDGET,
    CoperiodResult,
    PglQuery,
    check_coperiodic_product,
    check_sine_identity,
    coperiod,
    pgl_dim_charsum,
    pgl_dim_coperiodic,
    xi_weight,
)
from thetacalc.verlinde import (
    SubsetS, VerlindeQuery, _v_exact, all_subsets, subset_sum, verlinde_dim
)

GRID = [
    (1, 3, 3, 3),
    (2, 3, 3, 3),
    (3, 3, 3, 3),
    (1, 3, 6, 3),
    (2, 3, 6, 3),
    (1, 9, 3, 3),
    (1, 5, 5, 5),
    (2, 5, 5, 5),
    (1, 3, 9, 3),
    (30, 5, 6, 1),  # coefficients of many words
]


def per_subset_sum(q):
    """The coperiodic sum with one term per subset, ungrouped."""
    total = CycNum.from_rational(q.n, 0)
    for S in all_subsets(q.n, q.r):
        total = total + subset_sum(q.n, q.g, [(S.members, 1)]) * xi_weight(S, q.d, q.g)
    prefactor = Fraction(q.r) ** q.g * Fraction(q.n) ** ((q.r - 1) * (q.g - 1) - 1)
    return prefactor * extract_rational(total)


class TestValidation:
    def test_rejects_even_rank(self):
        with pytest.raises(HypothesisError, match="odd"):
            PglQuery(1, 2, 2, 2)

    def test_rejects_noncommon_divisor(self):
        with pytest.raises(HypothesisError, match="divide"):
            PglQuery(1, 3, 4, 3)
        with pytest.raises(HypothesisError, match="divide"):
            PglQuery(1, 3, 3, 2)

    def test_rejects_bad_genus(self):
        with pytest.raises(HypothesisError):
            PglQuery(0, 3, 3, 3)

    def test_coperiodic_walk_over_budget_refuses_before_walking(self):
        # phi(19) = 18: the price is C(19, 9) phi (1 + C(9, 2) phi).
        assert math.comb(19, 9) * 18 * (1 + math.comb(9, 2) * 18) > COPERIODIC_BUDGET
        start = time.perf_counter()
        match = "C\\(19, 9\\) = 92378 subsets: 1079159796 work units, over the budget of"
        with pytest.raises(HypothesisError, match=match):
            pgl_dim_coperiodic(PglQuery(2, 9, 10, 1))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "q",
        # Few subsets but long CycNums: these walks would take 33 s and 8 s.
        [PglQuery(2, 1, 19999, 1), PglQuery(2, 3, 46, 1)],
    )
    def test_walk_priced_by_its_work_refuses(self, q):
        subsets = math.comb(q.n, q.r)
        assert subsets <= 20_000
        # C(n, r) phi(n) (1 + C(r, 2) phi(n)): phi(20 000) = 8 000, phi(49) = 42.
        price = {(1, 19999): 160_000_000, (3, 46): 98_273_616}[q.r, q.k]
        match = f"{subsets} subsets: {price} work units, over the budget of"
        start = time.perf_counter()
        with pytest.raises(HypothesisError, match=match):
            pgl_dim_coperiodic(q)
        assert time.perf_counter() - start < 0.1


class TestCoperiod:
    def test_fully_periodic_subsets(self):
        assert coperiod(SubsetS(6, (1, 3, 5))) == CoperiodResult(3, SubsetS(2, (1,)))
        assert coperiod(SubsetS(6, (2, 4, 6))) == CoperiodResult(3, SubsetS(2, (2,)))

    def test_intermediate_coperiod(self):
        assert coperiod(SubsetS(6, (1, 4))) == CoperiodResult(2, SubsetS(3, (1,)))
        assert coperiod(SubsetS(8, (1, 2, 5, 6))) == CoperiodResult(
            2, SubsetS(4, (1, 2))
        )

    def test_aperiodic_subset(self):
        res = coperiod(SubsetS(6, (1, 2)))
        assert res.delta == 1
        assert res.core == SubsetS(6, (1, 2))

    def test_translates_of_core_recover_subset(self):
        for n, r in [(6, 3), (8, 4), (12, 3)]:
            for S in all_subsets(n, r):
                res = coperiod(S)
                step = n // res.delta
                rebuilt = sorted(
                    (m - 1 + i * step) % n + 1
                    for m in res.core.members
                    for i in range(res.delta)
                )
                assert tuple(rebuilt) == S.members


class TestXiWeight:
    def test_worked_values(self):
        assert xi_weight(SubsetS(6, (1, 3, 5)), 3, 1) == 1
        assert xi_weight(SubsetS(6, (1, 2, 3)), 3, 1) == Fraction(1, 9)
        assert xi_weight(SubsetS(6, (1, 2, 3)), 3, 2) == Fraction(1, 81)

    def test_trivial_divisor_weights_everything_fully(self):
        for S in all_subsets(6, 3):
            assert xi_weight(S, 1, 2) == 1


class TestRoutesAgree:
    def test_worked_instance(self):
        q = PglQuery(1, 3, 3, 3)
        assert pgl_dim_charsum(q) == 2
        assert pgl_dim_coperiodic(q) == 2

    def test_trivial_divisor_reduces_to_plain_dimension(self):
        for g, r, k in [(1, 3, 3), (2, 3, 3), (1, 1, 5), (2, 5, 5), (3, 3, 2)]:
            q = PglQuery(g, r, k, 1)
            dim = verlinde_dim(VerlindeQuery(g, r, k))
            assert pgl_dim_charsum(q) == dim
            assert pgl_dim_coperiodic(q) == dim

    @pytest.mark.parametrize("g,r,k,d", GRID + [(800, 5, 6, 1), (2000, 3, 6, 3)])
    def test_agreement_grid(self, g, r, k, d):
        q = PglQuery(g, r, k, d)
        assert pgl_dim_charsum(q) == pgl_dim_coperiodic(q)

    @pytest.mark.parametrize(
        "g,r,k,d", GRID + [(100, 5, 6, 1), (2000, 3, 6, 3), (2, 1, 199, 1)]
    )
    def test_grouped_walk_equals_per_subset_sum(self, g, r, k, d):
        q = PglQuery(g, r, k, d)
        assert pgl_dim_coperiodic(q) == per_subset_sum(q)

    def test_one_term_per_difference_multiset(self, monkeypatch):
        # Each multiset's term costs one inverse, of its positive pair product.
        calls = []
        inverse = CycNum.inverse

        def counted(a):
            calls.append(a)
            return inverse(a)

        monkeypatch.setattr(CycNum, "inverse", counted)
        q = PglQuery(3, 5, 6, 1)
        assert pgl_dim_coperiodic(q) == pgl_dim_charsum(q)
        assert len(calls) == 26  # among C(11, 5) = 462 subsets
        calls.clear()
        _v_exact(11, 4, 3)
        assert len(calls) == 20  # the distinct multisets of 30 necklace orbits
        calls.clear()
        for q in [PglQuery(1, 5, 6, 1), PglQuery(2, 1, 199, 1)]:
            assert pgl_dim_coperiodic(q) == pgl_dim_charsum(q)
        assert calls == []  # genus 1 has no term to build, rank 1 no pair


class TestSineIdentity:
    def test_worked_values(self):
        assert check_sine_identity(2, Fraction(1, 4))
        assert check_sine_identity(3, Fraction(1, 9))

    def test_sweep_small_angles(self):
        for delta in range(1, 5):
            for den in range(2, 9):
                for num in range(1, den):
                    x = Fraction(num, den)
                    if (delta * x).denominator == 1:
                        continue
                    assert check_sine_identity(delta, x), (delta, x)

    def test_degenerate_angle_rejected(self):
        with pytest.raises(HypothesisError, match="degenerate"):
            check_sine_identity(3, Fraction(2, 3))
        with pytest.raises(HypothesisError, match="degenerate"):
            check_sine_identity(2, Fraction(1, 2))


class TestCoperiodicProduct:
    def test_worked_value(self):
        # {1, 3, 5} in Z/6: pair product 27 = 3^3 times an empty core product.
        assert check_coperiodic_product(SubsetS(6, (1, 3, 5)), 3)

    def test_all_divisors_of_all_coperiods(self):
        for n, r in [(6, 3), (8, 4), (12, 4)]:
            for S in all_subsets(n, r):
                delta_s = coperiod(S).delta
                for delta in range(1, delta_s + 1):
                    if delta_s % delta == 0:
                        assert check_coperiodic_product(S, delta), (S, delta)

    def test_rejects_nondivisor(self):
        with pytest.raises(HypothesisError, match="coperiod"):
            check_coperiodic_product(SubsetS(6, (1, 2, 3)), 3)
