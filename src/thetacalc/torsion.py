"""Torsion points, characters, and the genus-g totient symbol.

The h-torsion subgroup of a g-dimensional principally polarized abelian
variety is modeled as the abstract group (Z/h)^{2g} with the dot-product
pairing <xi, alpha> = sum xi_i alpha_i mod h.  No polarization data is
carried: every formula implemented here depends on xi and alpha only
through their orders and the pairing, which the test suite confirms by
comparing characters of equal order.

The genus-g totient symbol {lam/h}_g generalizes Jordan's totient: for
h = prod p_i^{a_i} it is 0 unless prod p_i^{a_i - 1} divides lam, and
otherwise prod (eps_i - p_i^{-2g}) with eps_i = 1 exactly when p_i^{a_i}
divides lam.  It packages the value of the character sum

    sum over alpha of order exactly h/delta of xi(alpha^{-1})
        = (h^{2g} / delta^{2g}) * {(h/omega) / (h/delta)}_g

where omega is the order of xi.  That law is not taken on faith: it is
validated by brute force over all of (Z/h)^{2g} (check_character_sum); a
failure would be reported, not corrected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactnum import CycNum, HypothesisError, check_price, divisors, extract_rational, factorize

POINT_BUDGET = 1_000_000  # points; `all_points` prices each walk


@dataclass(frozen=True)
class TorsionPoint:
    """An element of (Z/h)^{2g}, coordinates reduced into [0, h)."""

    h: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.h < 1:
            raise HypothesisError(f"modulus must be positive, got {self.h}")
        if len(self.coords) % 2 != 0 or not self.coords:
            raise HypothesisError("coordinates come in 2g components")
        if any(c < 0 or c >= self.h for c in self.coords):
            raise HypothesisError(f"coordinates must lie in [0, {self.h})")

    @property
    def g(self) -> int:
        return len(self.coords) // 2

    def order(self) -> int:
        return self.h // math.gcd(self.h, *self.coords)


class CharacterLabel(TorsionPoint):
    """A character of (Z/h)^{2g}, labeled by its own coordinate vector."""

    def pairing(self, alpha: TorsionPoint) -> int:
        """<xi, alpha> = sum xi_i alpha_i mod h."""
        if alpha.h != self.h or len(alpha.coords) != len(self.coords):
            raise HypothesisError("character and point live on different groups")
        return sum(x * a for x, a in zip(self.coords, alpha.coords)) % self.h


@dataclass(frozen=True)
class SymbolQuery:
    """Arguments (lam, h, g) of the genus-g totient symbol {lam/h}_g."""

    lam: int
    h: int
    g: int

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise HypothesisError(f"lam must be non-negative, got {self.lam}")
        if self.h < 1:
            raise HypothesisError(f"symbol modulus must be >= 1, got {self.h}")
        if self.g < 1:
            raise HypothesisError(f"genus must be >= 1, got {self.g}")


def totient_symbol(q: SymbolQuery) -> Fraction:
    """The genus-g totient symbol {lam/h}_g."""
    if q.h == 1:
        return Fraction(1)
    out = Fraction(1)
    for p, a in factorize(q.h):
        if q.lam % p ** (a - 1) != 0:
            return Fraction(0)
        eps = 1 if q.lam % p**a == 0 else 0
        out *= eps - Fraction(1, p ** (2 * q.g))
    return out


def count_order(h: int, delta: int, g: int) -> int:
    """Number of elements of order exactly delta in (Z/h)^{2g}.

    Equals prod over p^a || delta of p^{2g(a-1)} (p^{2g} - 1), that is
    delta^{2g} prod_{p | delta} (1 - p^{-2g}), independent of h; h enters
    only through the divisibility requirement delta | h.
    """
    if delta < 1 or h % delta != 0:
        raise HypothesisError(f"{delta} does not divide {h}")
    if g < 1:
        raise HypothesisError(f"genus must be >= 1, got {g}")
    out = 1
    for p, a in factorize(delta):
        out *= p ** (2 * g * (a - 1)) * (p ** (2 * g) - 1)
    return out


def check_count_partition(m: int, g: int) -> bool:
    """sum_{delta | m} count_order(delta) = m^{2g}, exactly."""
    if m < 1:
        raise HypothesisError(f"modulus must be >= 1, got {m}")
    return sum(count_order(m, d, g) for d in divisors(m)) == m ** (2 * g)


def all_points(h: int, g: int) -> "itertools.product":
    """Iterator over all of (Z/h)^{2g} as coordinate tuples.

    The one walk behind `order_tally`'s two readers, `character_order_sum`
    and `splitting.multiplicity_oracle`: priced at h^{2g} points against
    POINT_BUDGET before the first.
    """
    what = f"the walk over all of (Z/{h})^{2 * g} needs h^(2g) points"
    check_price(h ** (2 * g), POINT_BUDGET, what)
    return itertools.product(range(h), repeat=2 * g)


def order_tally(xi: CharacterLabel, points: Iterable[tuple[int, ...]]) -> dict[int, list[int]]:
    """{delta: counts} over delta | h: counts[c] of the points alpha of order
    delta have xi(alpha^{-1}) = zeta_h^c.  Both brute-force Fourier oracles
    read it, each from its own priced walk `points`; no closed form does.
    """
    h = xi.h
    tally = {delta: [0] * h for delta in divisors(h)}
    for coords in points:
        c = sum(x * a for x, a in zip(xi.coords, coords))
        tally[h // math.gcd(h, *coords)][-c % h] += 1
    return tally


def character_order_sum(xi: CharacterLabel, delta: int) -> Fraction:
    """Brute-force sum of xi(alpha^{-1}) over alpha of order exactly h/delta.

    The sum is assembled in Q(zeta_h) and must come out rational.
    """
    h, g = xi.h, xi.g
    if delta < 1 or h % delta != 0:
        raise HypothesisError(f"{delta} does not divide {h}")
    counts = order_tally(xi, all_points(h, g))[h // delta]
    return extract_rational(CycNum.from_poly(h, counts))


def character_order_sum_formula(xi: CharacterLabel, delta: int) -> Fraction:
    """Closed form (h^{2g}/delta^{2g}) * {(h/omega) / (h/delta)}_g."""
    h, g = xi.h, xi.g
    if delta < 1 or h % delta != 0:
        raise HypothesisError(f"{delta} does not divide {h}")
    omega = xi.order()
    return Fraction(h, delta) ** (2 * g) * totient_symbol(
        SymbolQuery(h // omega, h // delta, g)
    )


def check_character_sum(xi: CharacterLabel, delta: int) -> bool:
    """Brute force against the closed form; a failure is reported, not fixed."""
    return character_order_sum(xi, delta) == character_order_sum_formula(xi, delta)
