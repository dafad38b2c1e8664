"""Totient symbol, order counts, and the character-sum law by brute force."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from thetacalc import torsion
from thetacalc.exactnum import HypothesisError
from thetacalc.torsion import (
    CharacterLabel,
    SymbolQuery,
    TorsionPoint,
    all_points,
    character_order_sum,
    character_order_sum_formula,
    check_character_sum,
    check_count_partition,
    count_order,
    divisors,
    order_tally,
    totient_symbol,
)


def test_totient_symbol_known_values():
    assert totient_symbol(SymbolQuery(17, 1, 3)) == 1
    assert totient_symbol(SymbolQuery(3, 3, 1)) == Fraction(8, 9)
    assert totient_symbol(SymbolQuery(1, 3, 1)) == Fraction(-1, 9)
    assert totient_symbol(SymbolQuery(3, 9, 1)) == Fraction(-1, 9)
    # 9 does not even divide 3 * 3, and 3 does not divide 1: vanishing cases.
    assert totient_symbol(SymbolQuery(1, 9, 1)) == 0
    assert totient_symbol(SymbolQuery(5, 9, 2)) == 0


def test_totient_symbol_multiplicative_in_h():
    # h = 15: factors 3 and 5 contribute independently.
    for lam in range(0, 16):
        val = totient_symbol(SymbolQuery(lam, 15, 2))
        split = totient_symbol(SymbolQuery(lam, 3, 2)) * totient_symbol(
            SymbolQuery(lam, 5, 2)
        )
        assert val == split


def test_count_order_brute_force():
    # Count points of each exact order in (Z/h)^{2g} directly, and through
    # the tally both Fourier oracles read: its row totals are the counts.
    for h in range(1, 16):
        for g in (1, 2):
            seen: dict[int, int] = {}
            for coords in itertools.product(range(h), repeat=2 * g):
                order = h // math.gcd(h, *coords)
                seen[order] = seen.get(order, 0) + 1
            xi = CharacterLabel(h, (1 % h,) + (0,) * (2 * g - 1))
            tally = order_tally(xi, all_points(h, g))
            assert sorted(tally) == divisors(h)
            for delta in divisors(h):
                assert count_order(h, delta, g) == seen.get(delta, 0) == sum(tally[delta])


def test_count_order_known_values():
    assert count_order(3, 1, 1) == 1
    assert count_order(3, 3, 1) == 8
    assert count_order(9, 9, 1) == 72
    assert count_order(15, 15, 2) == 15**4 - 5**4 - 3**4 + 1


def test_count_order_matches_the_rational_product():
    # delta^{2g} prod_{p | delta} (1 - p^{-2g}), in Fractions.
    for delta in divisors(720_720):
        if delta >= 400:
            break
        for g in (1, 2, 3, 5):
            want = Fraction(delta ** (2 * g))
            for p in (p for p in range(2, delta + 1) if delta % p == 0):
                if all(p % q for q in range(2, p)):
                    want *= 1 - Fraction(1, p ** (2 * g))
            assert count_order(720_720, delta, g) == want


def test_count_order_rejects_nondivisor():
    with pytest.raises(HypothesisError):
        count_order(9, 2, 1)


def test_count_partition():
    for g in (1, 2, 3):
        for m in range(1, 31):
            assert check_count_partition(m, g)


def test_count_partition_worked():
    assert sum(count_order(3, d, 1) for d in divisors(3)) == 9
    total = sum(count_order(15, d, 2) for d in divisors(15))
    assert total == 15**4


def test_point_and_character_orders():
    p = TorsionPoint(9, (3, 6))
    assert p.order() == 3
    assert TorsionPoint(9, (0, 0)).order() == 1
    xi = CharacterLabel(15, (5, 0, 10, 0))
    assert xi.order() == 3
    assert xi.g == 2


def test_pairing_is_symmetric_bilinear():
    xi = CharacterLabel(7, (2, 3))
    a = TorsionPoint(7, (1, 5))
    b = TorsionPoint(7, (4, 2))
    ab = TorsionPoint(7, ((1 + 4) % 7, (5 + 2) % 7))
    assert xi.pairing(ab) == (xi.pairing(a) + xi.pairing(b)) % 7


def test_character_sum_trivial_cases():
    # delta = h leaves only alpha = 0, and xi(0) = 1.
    for h in (3, 5, 9):
        xi = CharacterLabel(h, (1, 0))
        assert character_order_sum(xi, h) == 1
        assert character_order_sum_formula(xi, h) == 1


def test_character_sum_worked_values():
    trivial = CharacterLabel(3, (0, 0))
    assert character_order_sum(trivial, 1) == 8
    assert character_order_sum_formula(trivial, 1) == 8
    full = CharacterLabel(3, (1, 0))
    assert character_order_sum(full, 1) == -1
    assert character_order_sum_formula(full, 1) == -1


def _one_character_per_order(h: int, g: int) -> list[CharacterLabel]:
    out = []
    for omega in divisors(h):
        coords = [0] * (2 * g)
        coords[0] = (h // omega) % h
        out.append(CharacterLabel(h, tuple(coords)))
    return out


def test_character_sum_law_brute_force():
    for h in (3, 5, 9, 15):
        for g in (1, 2):
            if h ** (2 * g) > 100_000:
                continue
            for xi in _one_character_per_order(h, g):
                for delta in divisors(h):
                    assert check_character_sum(xi, delta), (h, g, xi, delta)


def test_character_sum_law_h15_g2():
    # The largest brute-force cell: 15^4 = 50625 points.
    xi = CharacterLabel(15, (3, 0, 0, 0))  # order 5
    for delta in (1, 3, 15):
        assert check_character_sum(xi, delta)


def test_sum_depends_only_on_character_order():
    h, g = 9, 1
    pairs = [
        (CharacterLabel(h, (3, 0)), CharacterLabel(h, (6, 3))),
        (CharacterLabel(h, (1, 0)), CharacterLabel(h, (2, 7))),
    ]
    for xi1, xi2 in pairs:
        assert xi1.order() == xi2.order()
        for delta in divisors(h):
            assert character_order_sum(xi1, delta) == character_order_sum(xi2, delta)


def test_validation():
    with pytest.raises(HypothesisError):
        TorsionPoint(5, (1, 2, 3))
    with pytest.raises(HypothesisError):
        TorsionPoint(5, (5, 0))
    with pytest.raises(HypothesisError):
        CharacterLabel(5, ())
    with pytest.raises(HypothesisError):
        character_order_sum(CharacterLabel(9, (1, 0)), 2)


def test_point_walk_is_priced_before_the_first_point(monkeypatch):
    # h^{2g} points against POINT_BUDGET: 1000^2 fits, 1001^2 and 32^4 do not.
    assert sum(1 for _ in all_points(3, 2)) == 81
    all_points(1000, 1)
    for h, g, units in [(1001, 1, 1002001), (32, 2, 1048576)]:
        with pytest.raises(HypothesisError, match=f"{units} work units, over the budget of"):
            all_points(h, g)
    # character_order_sum walks through it, so it refuses as well.
    monkeypatch.setattr(torsion, "POINT_BUDGET", 80)
    with pytest.raises(HypothesisError, match="\\(Z/3\\)\\^4 needs h\\^\\(2g\\) points: 81"):
        character_order_sum(CharacterLabel(3, (1, 0, 0, 0)), 1)
