"""Slope-level Chern calculus for semihomogeneous bundles.

A class on a g-dimensional principally polarized abelian variety is
tracked by the pair (rank, slope) meaning ch = rank * exp(slope * Theta);
the bundle W_{a,b} carries (a^g, b/a).  On a product of two such
varieties a class is (rank, Q) with Q a symmetric 2x2 Gram matrix whose
diagonal holds the Theta coefficients of the factors and whose
off-diagonal entry is the coefficient of the Poincare class.

The calculus implements

  * Euler characteristics: chi = rank * slope^g (the Theta power
    integrates to g! against the fundamental class);
  * Fourier transforms: (rank, lam) -> (rank * lam^g, -1/lam), applying
    it twice scaling the rank by (-1)^g with the slope fixed;
  * isogeny pullbacks: multiplication by m on one factor scales the
    slope by m^2; a 2x2 integer matrix M acts on a product class by
    Q -> M^T Q M with the rank unchanged.

Ranks are rationals: genuine bundles have positive integer rank, but
intermediate Fourier values may be negative or fractional, so only the
bundle constructor w_class insists on integrality.

fm_via_kernel recomputes the Fourier transform without the closed form:
it expands rank * exp(lam * theta) * exp(P) in an exterior algebra with
2g generators per factor (P the Poincare class, theta each factor's
polarization written as a sum of generator pairs), integrates out the
source factor by reading off top-degree coefficients, and insists the
result is again a pure exponential class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import ConsistencyError, HypothesisError

Matrix2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class SlopeClass:
    """ch = rank * exp(slope * Theta) on a g-dimensional variety."""

    g: int
    rank: Fraction
    slope: Fraction

    def __post_init__(self) -> None:
        if self.g < 1:
            raise HypothesisError(f"genus must be >= 1, got {self.g}")
        object.__setattr__(self, "rank", Fraction(self.rank))
        object.__setattr__(self, "slope", Fraction(self.slope))
        if self.rank == 0:
            raise HypothesisError("rank must be nonzero")


@dataclass(frozen=True)
class SlopeMatrix:
    """ch = rank * exp(class with Gram matrix q) on a product of two factors."""

    g: int
    rank: Fraction
    q: Matrix2

    def __post_init__(self) -> None:
        if self.g < 1:
            raise HypothesisError(f"genus must be >= 1, got {self.g}")
        object.__setattr__(self, "rank", Fraction(self.rank))
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.q)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise HypothesisError("q must be a 2x2 matrix")
        if rows[0][1] != rows[1][0]:
            raise HypothesisError("q must be symmetric")
        object.__setattr__(self, "q", rows)
        if self.rank == 0:
            raise HypothesisError("rank must be nonzero")


@dataclass(frozen=True)
class IsogenyMatrix:
    """An integer 2x2 matrix with nonzero determinant."""

    m: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        rows = self.m
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise HypothesisError("m must be a 2x2 matrix")
        if any(not isinstance(x, int) for row in rows for x in row):
            raise HypothesisError("entries must be integers")
        if self.det == 0:
            raise HypothesisError("determinant must be nonzero")

    @property
    def det(self) -> int:
        return self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]


def w_class(g: int, a: int, b: int) -> SlopeClass:
    """The semihomogeneous bundle W_{a,b}: rank a^g, slope b/a.

    >>> w_class(2, 3, 5)
    SlopeClass(g=2, rank=Fraction(9, 1), slope=Fraction(5, 3))
    """
    if a < 1:
        raise HypothesisError(f"a must be a positive integer, got {a}")
    return SlopeClass(g, Fraction(a) ** g, Fraction(b, a))


def euler_char(c: SlopeClass) -> Fraction:
    """chi = rank * slope^g; for W_{a,b} this is b^g.

    >>> euler_char(w_class(2, 3, 5))
    Fraction(25, 1)
    """
    return c.rank * c.slope**c.g


def fm_transform(c: SlopeClass) -> SlopeClass:
    """Fourier transform (rank, lam) -> (rank * lam^g, -1/lam)."""
    if c.slope == 0:
        raise HypothesisError("transform leaves the slope-class model")
    return SlopeClass(c.g, c.rank * c.slope**c.g, -1 / c.slope)


def isogeny_pullback_A(c: SlopeClass, m: int) -> SlopeClass:
    """Pullback along multiplication by m: slope scales by m^2."""
    if m == 0:
        raise HypothesisError("multiplication by zero is not an isogeny")
    return SlopeClass(c.g, c.rank, m * m * c.slope)


def box_product(c1: SlopeClass, c2: SlopeClass) -> SlopeMatrix:
    """External product: ranks multiply, Gram matrix diag(slope1, slope2)."""
    if c1.g != c2.g:
        raise HypothesisError("box product factors must share the genus")
    zero = Fraction(0)
    return SlopeMatrix(
        c1.g, c1.rank * c2.rank, ((c1.slope, zero), (zero, c2.slope))
    )


def isogeny_pullback_AxA(c: SlopeMatrix, iso: IsogenyMatrix) -> SlopeMatrix:
    """Pullback along the isogeny with matrix M: Q -> M^T Q M, rank kept."""
    m, q = iso.m, c.q
    qm = tuple(
        tuple(sum(q[i][l] * m[l][j] for l in range(2)) for j in range(2))
        for i in range(2)
    )
    mtqm = tuple(
        tuple(sum(m[l][i] * qm[l][j] for l in range(2)) for j in range(2))
        for i in range(2)
    )
    return SlopeMatrix(c.g, c.rank, mtqm)


def check_wirtinger_dims(a: int, b: int, g: int) -> bool:
    """Both W_{a,a+b} and W_{b,a+b} have (a+b)^g sections; ranks a^g, b^g.

    The common section count is the Euler characteristic, positive slope
    making higher cohomology vanish.  Requires a, b odd and coprime.
    """
    if a < 1 or b < 1 or a % 2 == 0 or b % 2 == 0:
        raise HypothesisError(f"a and b must be odd positive, got {a}, {b}")
    if math.gcd(a, b) != 1:
        raise HypothesisError(f"a and b must be coprime, got {a}, {b}")
    left, right = w_class(g, a, a + b), w_class(g, b, a + b)
    sections = Fraction(a + b) ** g
    return (
        euler_char(left) == sections
        and euler_char(right) == sections
        and left.rank == Fraction(a) ** g
        and right.rank == Fraction(b) ** g
    )


# Exterior-algebra model for the kernel-integral Fourier transform.  Bit i
# of a mask is the i-th odd generator; bits 0..2g-1 are the source factor
# (u_i = bit 2i, v_i = bit 2i+1), bits 2g..4g-1 the target factor.
Element = dict[int, int | Fraction]


def _wedge_masks(m1: int, m2: int) -> tuple[int, int]:
    """Sign and union for the product of two ascending generator blocks.

    Returns (0, 0) when the blocks overlap.  The sign counts the swaps
    needed to merge two ascending lists: each generator of m2 crosses the
    generators of m1 above it.

    >>> _wedge_masks(0b01, 0b10)
    (1, 3)
    >>> _wedge_masks(0b10, 0b01)
    (-1, 3)
    """
    if m1 & m2:
        return 0, 0
    inversions = 0
    rest = m1
    while rest:
        low = rest & -rest
        inversions += (m2 & (low - 1)).bit_count()
        rest ^= low
    return (-1 if inversions & 1 else 1), m1 | m2


def _mul_elements(e1: Element, e2: Element) -> Element:
    out: Element = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            sign, mask = _wedge_masks(m1, m2)
            if sign == 0:
                continue
            c = out.get(mask, 0) + sign * c1 * c2
            if c:
                out[mask] = c
            elif mask in out:
                del out[mask]
    return out


def _scale_element(e: Element, c: Fraction) -> Element:
    return {m: c * x for m, x in e.items()} if c else {}


def _exp_even(e: Element) -> Element:
    # e must be a sum of degree-2 monomials; they commute and each squares
    # to zero, so exp(e) is the product of the factors 1 + c m, with no
    # 1/j! and, for integer c, integer coefficients throughout.
    out: Element = {0: 1}
    for mask, c in e.items():
        out = _mul_elements(out, {0: 1, mask: c})
    return out


def fm_via_kernel(c: SlopeClass) -> SlopeClass:
    """Fourier transform by integrating against the Poincare kernel.

    Expands rank * exp(slope * theta_src) * exp(P) in the exterior algebra
    of both factors, keeps the coefficients of the full source volume
    form, and reads the result off as rank' * exp(slope' * theta_tgt),
    failing loudly if the integral is not of that shape.  Independent of
    fm_transform; exponential in g, so restricted to g <= 4.
    """
    g = c.g
    if g > 4:
        raise HypothesisError("kernel integration is implemented for g <= 4")
    if c.slope == 0:
        raise HypothesisError("transform leaves the slope-class model")
    theta_src: Element = {}
    theta_tgt: Element = {}
    poincare: Element = {}
    for i in range(g):
        u, v = 1 << (2 * i), 1 << (2 * i + 1)
        ut, vt = 1 << (2 * g + 2 * i), 1 << (2 * g + 2 * i + 1)
        theta_src[u | v] = 1
        theta_tgt[ut | vt] = 1
        # u_i (tgt-v_i) keeps its sign; (tgt-u_i) v_i picks one up when
        # written with the lower bit first.
        poincare[u | vt] = 1
        poincare[v | ut] = -1
    total = _mul_elements(_exp_even(_scale_element(theta_src, c.slope)), _exp_even(poincare))
    full_src = (1 << (2 * g)) - 1
    # The source volume form u_0 v_0 ... u_{g-1} v_{g-1} is the ascending
    # prefix of any mask containing it, so coefficients transfer with no
    # extra sign.
    integrated: Element = {
        mask ^ full_src: coeff
        for mask, coeff in total.items()
        if mask & full_src == full_src
    }
    rank2 = c.rank * integrated.get(0, 0)
    if rank2 == 0:
        raise ConsistencyError("kernel integral lost the rank")
    first_tgt = (1 << (2 * g)) | (1 << (2 * g + 1))
    slope2 = Fraction(integrated.get(first_tgt, 0), integrated[0])
    expected = _scale_element(_exp_even(_scale_element(theta_tgt, slope2)), integrated[0])
    if expected != integrated:
        raise ConsistencyError(
            "kernel integral is not a pure exponential class"
        )
    return SlopeClass(g, rank2, slope2)
