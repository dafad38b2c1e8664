"""Torsion traces and splitting multiplicities of Verlinde bundles.

For coprime r, k and an odd multiplier h, the trace of an h-torsion point
of order exactly delta on the space of level-hk theta functions for rank
hr is

    trace(delta) = r^g / (r+k)^g * v_{(g-1) delta + 1}(h r / delta, h k / delta),

and the multiplicity with which the character of order omega appears in
the splitting of the associated Verlinde bundle is

    m_omega = sum_{delta | h} 1 / ((r+k)^g delta^{2g})
              * {(h/omega) / (h/delta)}_g * v_{(h/delta)(g-1)+1}(r delta, k delta).

The two statements are tied together by Fourier inversion over the
h-torsion group: multiplicity_oracle averages xi(alpha^{-1}) trace(alpha)
over all h^{2g} points alpha, brute force, and must reproduce m_omega
exactly.  The closed form and the oracle consume the same Verlinde values,
which are memoized, but the combination they perform is independent.

Even h is rejected: the underlying splitting statement is established for
odd h only, and even multipliers involve sign corrections this model does
not carry.  Likewise gcd(r, k) > 1 is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import verlinde
from .exactnum import ConsistencyError, CycNum, HypothesisError, check_price, extract_rational
from .torsion import (
    CharacterLabel,
    SymbolQuery,
    all_points,
    count_order,
    divisors,
    order_tally,
    totient_symbol,
)
from .verlinde import VerlindeQuery, v_number, verlinde_dim


@dataclass(frozen=True)
class SplitQuery:
    """Genus g, coprime rank/level parts r and k, odd multiplier h."""

    g: int
    r: int
    k: int
    h: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise HypothesisError(f"genus must be >= 1, got {self.g}")
        if self.r < 1 or self.k < 1:
            raise HypothesisError("rank and level parts must be >= 1")
        if math.gcd(self.r, self.k) != 1:
            raise HypothesisError(
                f"gcd(r, k) must be 1, got gcd({self.r}, {self.k}) = "
                f"{math.gcd(self.r, self.k)}; the splitting formula assumes "
                "coprime rank and level"
            )
        if self.h < 1 or self.h % 2 == 0:
            raise HypothesisError(
                f"h must be odd and positive, got {self.h}; even multipliers "
                "carry extra signs this model does not implement"
            )


@dataclass(frozen=True)
class TraceValue:
    """A torsion trace; always a positive rational."""

    value: Fraction

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ConsistencyError(
                f"torsion traces must be positive, got {self.value}"
            )


def trace_of_torsion(q: SplitQuery, delta: int) -> TraceValue:
    """Trace of a torsion point of order exactly delta | h."""
    if delta < 1 or q.h % delta != 0:
        raise HypothesisError(f"{delta} does not divide {q.h}")
    g, r, k, h = q.g, q.r, q.k, q.h
    vq = VerlindeQuery((g - 1) * delta + 1, h * r // delta, h * k // delta)
    return TraceValue(Fraction(r, r + k) ** g * v_number(vq))


def multiplicity(q: SplitQuery, omega: int) -> int:
    """Closed-form multiplicity of an order-omega character in the splitting."""
    if omega < 1 or q.h % omega != 0:
        raise HypothesisError(f"{omega} does not divide {q.h}")
    g, r, k, h = q.g, q.r, q.k, q.h
    terms = []
    for delta in divisors(h):
        sym = totient_symbol(SymbolQuery(h // omega, h // delta, g))
        if sym != 0:
            vq = VerlindeQuery((h // delta) * (g - 1) + 1, r * delta, k * delta)
            terms.append((Fraction(1, (r + k) ** g * delta ** (2 * g)) * sym, vq))
    # Each genus >= 2 term is one residue sum: price them all before the first.
    price = sum(verlinde.orbit_price(vq.n, vq.r) for _, vq in terms if vq.g >= 2)
    what = f"the residue sums of m_{omega} over the divisors of h = {h}"
    check_price(price, verlinde.RESIDUE_BUDGET, f"{what} need orbits x (pairs + cells)")
    total = sum((c * v_number(vq) for c, vq in terms), Fraction(0))
    if total.denominator != 1 or total < 0:
        raise ConsistencyError(
            f"multiplicity came out {total} for (g, r, k, h, omega) = "
            f"({g}, {r}, {k}, {h}, {omega}); it must be a non-negative integer"
        )
    return int(total)


def multiplicity_oracle(q: SplitQuery, xi: CharacterLabel) -> Fraction:
    """Fourier inversion: 1/(r^g h^{2g}) sum_alpha xi(alpha^{-1}) trace(alpha).

    Brute force over all h^{2g} torsion points, reading each trace off the
    order of alpha.  Exact; the result is rational but is returned without
    any integrality assertion, so disagreement with the closed form stays
    observable.
    """
    g, r, k, h = q.g, q.r, q.k, q.h
    if xi.h != h or xi.g != g:
        raise HypothesisError(
            f"character on (Z/{xi.h})^{2 * xi.g} does not match query "
            f"(Z/{h})^{2 * g}"
        )
    points = all_points(h, g)  # priced here, before any trace
    # Every delta | h is the order of some point; the traces, and the
    # residue prices behind them, also come before the walk.
    trace = {delta: trace_of_torsion(q, delta).value for delta in divisors(h)}
    total = CycNum.from_rational(h, 0)
    for delta, counts in order_tally(xi, points).items():
        total = total + CycNum.from_poly(h, counts) * trace[delta]
    return extract_rational(total) / (Fraction(r) ** g * h ** (2 * g))


def rank_parts(q: SplitQuery) -> list[tuple[int, int, int, int]]:
    """(omega, characters, multiplicity, characters * multiplicity * r^g) per omega | h."""
    rows = []
    for omega in divisors(q.h):
        m = multiplicity(q, omega)
        characters = count_order(q.h, omega, q.g)
        rows.append((omega, characters, m, characters * m * q.r**q.g))
    return rows


def check_rank_consistency(q: SplitQuery) -> bool:
    """sum over characters of multiplicity * r^g equals the full dimension.

    The sum over all h^{2g} characters is collapsed into order classes
    weighted by count_order.
    """
    lhs = sum(part for *_, part in rank_parts(q))
    return lhs == verlinde_dim(VerlindeQuery(q.g, q.h * q.r, q.h * q.k))
