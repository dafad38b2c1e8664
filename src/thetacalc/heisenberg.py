"""Finite Heisenberg groups and their Schroedinger representations.

The group on Z/m x (Z/m)^g x (Z/m)^g multiplies by

    (t, x, y) (t', x', y') = (t + t' + <x, y'>, x + x', y + y')

with <x, y'> the dot product mod m.  The cocycle is one-sided by
convention; any nondegenerate choice gives an isomorphic group, and
every check here is convention independent.  The center is the set of
(t, 0, 0) and the commutator of two elements is central with value
<x, y'> - <y, x'>.

For odd m and a central weight n prime to m, the Schroedinger
representation acts on functions f on (Z/m)^g by

    (rho(t, x, y) f)(z) = zeta_m^{n (t + <y, z>)} f(z + x),

an m^g-dimensional representation whose center acts by zeta_m^{n t}.
Every rho(h) is monomial in the delta-function basis: SchrodingerRep.action
gives its basis permutation and phase exponents mod m, the group law and
the characters are worked out on those integers, and matrix() is a dense
view with entries in Q(zeta_m), kept for tests.

irrep_census rebuilds the whole character table of the group by brute
force: conjugacy classes by orbit closure under conjugation by the 2g+1
generators (still by group products), candidate irreducibles from
Schroedinger representations of every quotient modulus pulled back and
twisted by linear characters, then a completeness proof by exact
character norms, pairwise distinctness, the sum-of-squares count, and
the class count.  A census is priced before it starts at
|G| (2g+1) + classes^2 and refused above CENSUS_BUDGET.  Even m is
rejected everywhere; the construction with half-integer weights it would
need is out of scope.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .exactnum import (
    ConsistencyError, CycNum, HypothesisError, check_price, divisors, extract_rational,
)

ORDER_BUDGET = 1_000_000  # |G| m^g, for the checks that walk every element
CENSUS_BUDGET = 500_000  # |G| (2g+1) + classes^2, for irrep_census


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element (t, x, y) over Z/m with the one-sided cocycle."""

    m: int
    t: int
    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise HypothesisError(f"modulus must be >= 1, got {self.m}")
        if not self.x or len(self.x) != len(self.y):
            raise HypothesisError("x and y must be nonempty and equal length")
        for c in (self.t, *self.x, *self.y):
            if c < 0 or c >= self.m:
                raise HypothesisError(f"residues must lie in [0, {self.m})")

    @property
    def g(self) -> int:
        return len(self.x)

    @classmethod
    def identity(cls, m: int, g: int) -> HeisenbergElement:
        return cls(m, 0, (0,) * g, (0,) * g)

    def __mul__(self, other: HeisenbergElement) -> HeisenbergElement:
        if self.m != other.m or self.g != other.g:
            raise HypothesisError("elements live in different groups")
        m = self.m
        twist = sum(a * b for a, b in zip(self.x, other.y))
        return HeisenbergElement(
            m,
            (self.t + other.t + twist) % m,
            tuple((a + b) % m for a, b in zip(self.x, other.x)),
            tuple((a + b) % m for a, b in zip(self.y, other.y)),
        )

    def inverse(self) -> HeisenbergElement:
        m = self.m
        twist = sum(a * b for a, b in zip(self.x, self.y))
        return HeisenbergElement(
            m,
            (-self.t + twist) % m,
            tuple(-a % m for a in self.x),
            tuple(-a % m for a in self.y),
        )

    def reduce(self, f: int) -> HeisenbergElement:
        """Image under coordinatewise reduction mod f, for f | m."""
        if self.m % f != 0:
            raise HypothesisError(f"{f} does not divide {self.m}")
        return HeisenbergElement(
            f, self.t % f, tuple(a % f for a in self.x), tuple(a % f for a in self.y)
        )

    def is_central(self) -> bool:
        return not any(self.x) and not any(self.y)


def all_elements(m: int, g: int) -> Iterator[HeisenbergElement]:
    """The whole group, of order m^{2g+1}."""
    for coords in itertools.product(range(m), repeat=2 * g + 1):
        yield HeisenbergElement(m, coords[0], coords[1 : g + 1], coords[g + 1 :])


@functools.cache
def _basis(m: int, g: int) -> tuple[tuple[tuple[int, ...], ...], Mapping[tuple[int, ...], int]]:
    """(Z/m)^g in itertools.product order, and each vector's index in it."""
    basis = tuple(itertools.product(range(m), repeat=g))
    return basis, MappingProxyType({w: i for i, w in enumerate(basis)})


@dataclass(frozen=True)
class SchrodingerRep:
    """The weight-n Schroedinger representation on functions on (Z/m)^g."""

    m: int
    n: int
    g: int

    @property
    def dim(self) -> int:
        return self.m**self.g

    def action(self, h: HeisenbergElement) -> tuple[list[int], list[int]]:
        """rho(h) as a monomial map: e_i goes to zeta^{phases[i]} e_{targets[i]}.

        Basis vectors are indexed in itertools.product order, phases mod m.
        rho(t, x, y) sends e_w to zeta^{n (t + <y, w - x>)} e_{w - x}.
        """
        if h.m != self.m or h.g != self.g:
            raise HypothesisError("element does not match the representation")
        m, n = self.m, self.n
        basis, index = _basis(m, self.g)
        targets, phases = [], []
        for w in basis:
            target = tuple((a - b) % m for a, b in zip(w, h.x))
            targets.append(index[target])
            phases.append(n * (h.t + sum(b * c for b, c in zip(h.y, target))) % m)
        return targets, phases

    def matrix(self, h: HeisenbergElement) -> tuple[tuple[CycNum, ...], ...]:
        """Dense view of action(h), an exact dim x dim matrix."""
        zero = CycNum.from_rational(self.m, 0)
        rows = [[zero] * self.dim for _ in range(self.dim)]
        for col, (row, phase) in enumerate(zip(*self.action(h))):
            rows[row][col] = CycNum.zeta(self.m, phase)
        return tuple(tuple(row) for row in rows)

    def character(self, h: HeisenbergElement) -> CycNum:
        """Trace of rho(h): the phases of the basis vectors action(h) fixes."""
        counts = [0] * self.m
        for i, (target, phase) in enumerate(zip(*self.action(h))):
            if target == i:
                counts[phase] += 1
        return CycNum.from_poly(self.m, counts)


def _generators(m: int, g: int) -> list[HeisenbergElement]:
    """The 2g+1 generators: (1, 0, 0) and the unit vectors in x and in y."""
    zero = (0,) * g
    gens = [HeisenbergElement(m, 1 % m, zero, zero)]
    for i in range(g):
        e = tuple(int(i == j) % m for j in range(g))
        gens.append(HeisenbergElement(m, 0, e, zero))
        gens.append(HeisenbergElement(m, 0, zero, e))
    return gens


def schrodinger_rep(m: int, n: int, g: int) -> SchrodingerRep:
    """Build the representation and assert the group law on generators."""
    if m < 1 or m % 2 == 0:
        raise HypothesisError(f"modulus must be odd and positive, got {m}")
    if g < 1:
        raise HypothesisError(f"genus must be >= 1, got {g}")
    if math.gcd(m, n) != 1:
        raise HypothesisError(
            f"gcd({m}, {n}) != 1: no irreducible with a full-order central "
            "character at that weight"
        )
    rep = SchrodingerRep(m, n % m, g)
    if m > 1:
        # rho(a) rho(b) sends e_i to zeta^{pb[i] + pa[tb[i]]} e_{ta[tb[i]]}.
        gens = _generators(m, g)
        actions = {h: rep.action(h) for h in gens}
        for a, b in itertools.product(gens, repeat=2):
            (ta, pa), (tb, pb) = actions[a], actions[b]
            composed = [ta[j] for j in tb], [(p + pa[j]) % m for p, j in zip(pb, tb)]
            if composed != rep.action(a * b):
                raise ConsistencyError(
                    f"Schroedinger action is not a homomorphism at {a}, {b}"
                )
    return rep


def _class_count(m: int, g: int) -> int:
    """Number of conjugacy classes, sum over w mod m of gcd(w, m)^{2g}.

    Used only to price a census before it starts; the census counts its
    classes itself.
    """
    return sum(math.gcd(w, m) ** (2 * g) for w in range(m))


def _norm_sum(
    weighted: Iterable[tuple[CycNum, int]], m: int, squares: dict[CycNum, CycNum]
) -> Fraction:
    """Exact sum of count * |chi|^2 over (chi, count) pairs.

    Counts are added up per distinct value first, so |chi|^2 is formed
    once per value; squares memoises it across the caller's rows.
    """
    counts: dict[CycNum, int] = {}
    for chi, count in weighted:
        counts[chi] = counts.get(chi, 0) + count
    total = CycNum.from_rational(m, 0)
    for chi, count in counts.items():
        if chi not in squares:
            squares[chi] = chi * chi.conjugate()
        total = total + squares[chi] * count
    return extract_rational(total)


def _character_walk(rep: SchrodingerRep) -> Iterator[tuple[HeisenbergElement, CycNum]]:
    """(h, chi(h)) for every group element h, priced before the first.

    Each character value reads the action on all m^g basis vectors, so the
    walk costs |G| m^g units against ORDER_BUDGET.
    """
    order = rep.m ** (2 * rep.g + 1)
    what = f"a walk over all {order} group elements x {rep.dim} basis vectors"
    check_price(order * rep.dim, ORDER_BUDGET, what)
    return ((h, rep.character(h)) for h in all_elements(rep.m, rep.g))


def check_schrodinger_irreducible(rep: SchrodingerRep) -> bool:
    """Exact character norm: (1/|G|) sum_h chi(h) conj(chi(h)) = 1."""
    norm = _norm_sum(((chi, 1) for _, chi in _character_walk(rep)), rep.m, {})
    return norm == rep.m ** (2 * rep.g + 1)


def check_character_supported_on_center(rep: SchrodingerRep) -> bool:
    """chi vanishes at every element outside the center."""
    return all(h.is_central() or chi.is_zero() for h, chi in _character_walk(rep))


def _conjugacy_classes(m: int, g: int) -> list[tuple[HeisenbergElement, int]]:
    """Class representatives and sizes, by orbit closure.

    Each class is closed under conjugation c h c^{-1} by the 2g+1
    generators, still by group products, so it costs 2 |G| (2g+1)
    products in all instead of 2 |G| per class.  Representatives are the
    first elements met in all_elements order.
    """
    conjugators = [(c, c.inverse()) for c in _generators(m, g)]
    seen: set[HeisenbergElement] = set()
    classes = []
    for h in all_elements(m, g):
        if h in seen:
            continue
        orbit = {h}
        frontier = [h]
        while frontier:
            k = frontier.pop()
            for c, c_inv in conjugators:
                image = c * k * c_inv
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        classes.append((h, len(orbit)))
    return classes


def _central_weight(chi_central: CycNum, dim: int, m: int) -> int:
    """The w with chi((1, 0, 0)) = dim * zeta_m^w."""
    value = chi_central * Fraction(1, dim)
    for w in range(m):
        if value == CycNum.zeta(m, w):
            return w
    raise ConsistencyError("central character value is not a root of unity")


def irrep_census(m: int, g: int) -> list[tuple[int, int, int]]:
    """Complete character table, aggregated as (dimension, weight, count).

    Candidates are the linear-character twists of Schroedinger
    representations pulled back from every quotient modulus f | m.  The
    returned list is proved complete, not assumed: every candidate has
    exact character norm 1, candidates are pairwise distinct (hence
    orthogonal), their squared dimensions sum to the group order, and
    they are as numerous as the conjugacy classes.
    """
    if m < 1 or m % 2 == 0:
        raise HypothesisError(f"modulus must be odd and positive, got {m}")
    if g < 1:
        raise HypothesisError(f"genus must be >= 1, got {g}")
    # Class closure takes |G| (2g+1) conjugations; the character rows and
    # their norms take classes^2 products.
    order = m ** (2 * g + 1)
    price = order * (2 * g + 1) + _class_count(m, g) ** 2
    check_price(price, CENSUS_BUDGET, f"census of ({m}, {g}) needs |G| (2g+1) + classes^2")
    classes = _conjugacy_classes(m, g)
    reps = [h for h, _ in classes]
    central_index = next(
        i for i, h in enumerate(reps) if h.is_central() and h.t == 1 % m
    )
    rows: list[tuple[int, int, tuple[CycNum, ...]]] = []
    twisted: dict[tuple[CycNum, int], CycNum] = {}  # chi * zeta_m^k per (chi, k mod m)
    for f in divisors(m):
        for np in (np for np in range(f) if math.gcd(f, np) == 1) if f > 1 else [0]:
            sub = SchrodingerRep(f, np, g)
            base = [sub.character(h.reduce(f)).lift(m) for h in reps]
            # The pulled-back character vanishes off x = y = 0 (mod f), where
            # the twist by (u, v) depends only on (u, v) mod m/f.
            for twist in itertools.product(range(m // f), repeat=2 * g):
                values = []
                for h, chi in zip(reps, base):
                    k = sum(a * b for a, b in zip(twist, h.x + h.y)) % m
                    if (chi, k) not in twisted:
                        twisted[chi, k] = chi * CycNum.zeta(m, k)
                    values.append(twisted[chi, k])
                dim = f**g
                weight = _central_weight(values[central_index], dim, m)
                rows.append((dim, weight, tuple(values)))
    if len({values for _, _, values in rows}) != len(rows):
        raise ConsistencyError("two candidates have the same character")
    if len(rows) != len(classes):
        raise ConsistencyError(f"found {len(rows)} candidates but {len(classes)} classes")
    dim_square_sum = 0
    squares: dict[CycNum, CycNum] = {}
    for dim, weight, values in rows:
        if _norm_sum(zip(values, (size for _, size in classes)), m, squares) != order:
            raise ConsistencyError(
                f"candidate of dimension {dim}, weight {weight} has non-unit norm"
            )
        dim_square_sum += dim * dim
    if dim_square_sum != order:
        raise ConsistencyError(
            f"squared dimensions sum to {dim_square_sum}, group order is {order}"
        )
    tally: dict[tuple[int, int], int] = {}
    for dim, weight, _ in rows:
        tally[(dim, weight)] = tally.get((dim, weight), 0) + 1
    if m > 1:
        for n in range(m):
            if math.gcd(n, m) == 1 and tally.get((m**g, n), 0) != 1:
                raise ConsistencyError(
                    f"expected exactly one irreducible of dimension {m**g} at "
                    f"weight {n}, found {tally.get((m ** g, n), 0)}"
                )
    return sorted((d, w, c) for (d, w), c in tally.items())
