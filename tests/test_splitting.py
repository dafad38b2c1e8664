"""Splitting multiplicities: closed form against Fourier-inversion oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from thetacalc import splitting, verlinde
from thetacalc.exactnum import HypothesisError
from thetacalc.splitting import (
    SplitQuery,
    check_rank_consistency,
    multiplicity,
    multiplicity_oracle,
    trace_of_torsion,
)
from thetacalc.torsion import CharacterLabel, divisors
from thetacalc.verlinde import VerlindeQuery, verlinde_dim


def _character_of_order(h: int, g: int, omega: int) -> CharacterLabel:
    coords = [0] * (2 * g)
    coords[0] = (h // omega) % h
    return CharacterLabel(h, tuple(coords))


def _second_character_of_order(h: int, g: int, omega: int) -> CharacterLabel:
    """A different character of the same order, when the group offers one."""
    coords = [0] * (2 * g)
    coords[-1] = (h // omega) % h
    if omega > 2:
        coords[0] = (2 * (h // omega)) % h
    return CharacterLabel(h, tuple(coords))


class TestValidation:
    def test_rejects_even_h(self):
        with pytest.raises(HypothesisError, match="odd"):
            SplitQuery(1, 1, 2, 4)

    def test_rejects_common_factor(self):
        with pytest.raises(HypothesisError, match="gcd"):
            SplitQuery(1, 2, 4, 3)

    def test_rejects_bad_genus(self):
        with pytest.raises(HypothesisError):
            SplitQuery(0, 1, 1, 3)

    def test_rejects_nondivisor_order(self):
        q = SplitQuery(1, 1, 1, 3)
        with pytest.raises(HypothesisError, match="divide"):
            multiplicity(q, 2)
        with pytest.raises(HypothesisError, match="divide"):
            trace_of_torsion(q, 2)

    def test_rejects_mismatched_character(self):
        q = SplitQuery(1, 1, 1, 3)
        with pytest.raises(HypothesisError, match="match"):
            multiplicity_oracle(q, CharacterLabel(5, (0, 0)))

    def test_multiplicity_prices_all_its_sums_before_the_first(self, monkeypatch):
        # m_1 for (g, r, k, h) = (2, 1, 1, 3) needs v_4(1, 1) and v_2(3, 3),
        # priced at 2 and 28 units: each fits a budget of 28, their sum not.
        monkeypatch.setattr(verlinde, "RESIDUE_BUDGET", 28)
        assert verlinde._v_modular(2, 1, 4) == 16
        assert verlinde._v_modular(6, 3, 2) == verlinde._v_exact(6, 3, 2)

        def no_orbits(*args):
            raise AssertionError("enumerated orbits past the budget")

        monkeypatch.setattr(verlinde, "_necklace_blocks", no_orbits)
        with pytest.raises(HypothesisError, match="30 work units, over the budget of 28"):
            multiplicity(SplitQuery(2, 1, 1, 3), 1)


    def test_oracle_prices_its_walk_and_its_traces_before_walking(self, monkeypatch):
        def no_walk(h, g):
            yield from ()
            raise AssertionError("walked the torsion points past a refused price")

        # h = 31 at g = 2: 923 521 points fit the walk's budget, but the
        # order-1 trace needs v_2(31, 31), which the residue price refuses.
        monkeypatch.setattr(splitting, "all_points", no_walk)
        with pytest.raises(HypothesisError, match="C\\(62, 31\\)"):
            multiplicity_oracle(SplitQuery(2, 1, 1, 31), _character_of_order(31, 2, 31))
        monkeypatch.undo()

        def no_trace(q, delta):
            raise AssertionError("took a trace past a refused walk")

        # h = 1001 at g = 1: the walk's own price refuses first.
        monkeypatch.setattr(splitting, "trace_of_torsion", no_trace)
        with pytest.raises(HypothesisError, match="1002001 work units"):
            multiplicity_oracle(SplitQuery(1, 1, 1, 1001), _character_of_order(1001, 1, 1))


class TestWorkedValues:
    def test_trace_at_full_order_genus_two(self):
        # trace of an order-3 point at g = 2, r = k = 1:
        # (1/2)^2 * v_4(1, 1) = 16 / 4 = 4.
        q = SplitQuery(2, 1, 1, 3)
        assert trace_of_torsion(q, 3).value == 4

    def test_trace_at_identity_is_full_dimension(self):
        # delta = 1 recovers dim for the scaled parameters (g, hr, hk).
        for g, r, k, h in [(1, 1, 1, 3), (2, 1, 2, 3), (1, 2, 1, 5), (3, 1, 1, 3)]:
            q = SplitQuery(g, r, k, h)
            dim = verlinde_dim(VerlindeQuery(g, h * r, h * k))
            assert trace_of_torsion(q, 1).value == dim

    def test_multiplicities_elliptic_h_three(self):
        # g = 1, r = k = 1, h = 3: the 10-dimensional space splits as
        # 2 copies of each order-1 character and 1 copy of each order-3.
        q = SplitQuery(1, 1, 1, 3)
        assert multiplicity(q, 1) == 2
        assert multiplicity(q, 3) == 1
        # 1 * 2 + 8 * 1 = 10.
        assert check_rank_consistency(q)

    def test_trivial_multiplier(self):
        # h = 1: a single character with the full multiplicity.
        for g, r, k in [(1, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 2)]:
            q = SplitQuery(g, r, k, 1)
            dim = verlinde_dim(VerlindeQuery(g, r, k))
            assert multiplicity(q, 1) * r**g == dim


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "g,r,k,h",
        [
            (1, 1, 1, 3),
            (1, 1, 2, 3),
            (1, 2, 1, 3),
            (2, 1, 1, 3),
            (1, 1, 1, 5),
            (2, 1, 2, 3),
            (1, 1, 1, 9),
            (1, 1, 4, 3),
        ],
    )
    def test_closed_form_matches_oracle(self, g, r, k, h):
        q = SplitQuery(g, r, k, h)
        for omega in divisors(h):
            want = Fraction(multiplicity(q, omega))
            assert multiplicity_oracle(q, _character_of_order(h, g, omega)) == want

    def test_oracle_depends_only_on_character_order(self):
        q = SplitQuery(1, 1, 1, 9)
        for omega in (3, 9):
            a = multiplicity_oracle(q, _character_of_order(9, 1, omega))
            b = multiplicity_oracle(q, _second_character_of_order(9, 1, omega))
            assert a == b


class TestRankConsistency:
    @pytest.mark.parametrize(
        "g,r,k,h",
        [(1, 1, 1, 3), (1, 1, 2, 3), (2, 1, 1, 3), (1, 1, 1, 5), (1, 2, 1, 5)],
    )
    def test_order_class_sum(self, g, r, k, h):
        assert check_rank_consistency(SplitQuery(g, r, k, h))


class TestSymmetry:
    def test_multiplicity_level_rank(self):
        # m_omega is unchanged under swapping r and k.
        for g, r, k, h in [(1, 1, 2, 3), (2, 1, 2, 3), (1, 2, 3, 3), (1, 1, 4, 5)]:
            assert math.gcd(r, k) == 1
            qa, qb = SplitQuery(g, r, k, h), SplitQuery(g, k, r, h)
            for omega in divisors(h):
                assert multiplicity(qa, omega) == multiplicity(qb, omega)
