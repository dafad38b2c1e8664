"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum is an element of Q[x]/(Phi_n(x)) stored as phi(n) integer
numerators over one positive denominator, in the power basis 1, zeta,
..., zeta^{phi(n)-1}, with their gcd divided out, so equal elements have
equal fields.  Every operation runs on these integers; Fractions appear
only at the boundary: constructor input, coeffs, extract_rational and
scalar coercion.  Working modulo the irreducible Phi_n rather than
x^n - 1 keeps the quotient a field, so elements can be inverted (through
the Galois norm, see CycNum.inverse); negative powers are needed because
the sine products carry the exponent 1 - g, negative for genus g >= 2.

The quantities of interest are the sine squares

    |2 sin(pi d / n)|^2 = 2 - zeta_n^d - zeta_n^{-d},

so everything stays inside the conductor-n field; no half-angle roots of
unity ever appear.  sine_square memoises them; their powers are formed
where a sum needs them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Rational = Fraction


class HypothesisError(ValueError):
    """An input lies outside the hypothesis under which a formula holds."""


def check_price(units: int, budget: int, what: str) -> None:
    """Refuse work priced above its budget, before the first step of it."""
    if units > budget:
        raise HypothesisError(f"{what}: {units} work units, over the budget of {budget}")


class ConsistencyError(ArithmeticError):
    """An exact identity that must hold failed: an implementation bug."""


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as ((p, exponent), ...).

    >>> factorize(360)
    ((2, 3), (3, 2), (5, 1))
    >>> factorize(1)
    ()
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """All positive divisors in increasing order."""
    out = [1]
    for p, a in factorize(n):
        out = [d * p**e for d in out for e in range(a + 1)]
    return sorted(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient, memoised: every CycNum checks its length against it.

    >>> [euler_phi(n) for n in (1, 2, 6, 12, 45)]
    [1, 1, 2, 4, 24]
    """
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def _int_poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _int_poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    # Quotient and remainder (len(den) - 1 terms); den must be monic.
    # Only den's nonzero lower coefficients touch the running remainder.
    d = len(den) - 1
    work = list(num) + [0] * (d - len(num))
    q = [0] * (len(work) - d)
    terms = [(j, c) for j, c in enumerate(den[:-1]) if c]
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            q[i - d] = c
            for j, dj in terms:
                work[i - d + j] -= c * dj
    return q, work[:d]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n(x), ascending degree.

    Computed by exact division of x^n - 1 by the Phi_d for proper
    divisors d of n.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if n < 1:
        raise ValueError(f"no cyclotomic polynomial for {n}")
    num = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in divisors(n)[:-1]:
        num, rem = _int_poly_divmod(num, cyclotomic_polynomial(d))
        if any(rem):
            raise ConsistencyError(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(num)


def _stored(n: int, nums: Sequence[int], den: int) -> CycNum:
    # Internal results are ints of the right length over a positive den,
    # so only their gcd is divided out; CycNum(...) checks outside input.
    g = math.gcd(den, *nums)
    if g > 1:
        nums, den = [c // g for c in nums], den // g
    out = object.__new__(CycNum)
    out.__dict__.update(conductor=n, nums=tuple(nums), den=den)
    return out


@dataclass(frozen=True)
class CycNum:
    """An element of Q(zeta_n) with coordinates nums[j] / den.

    >>> CycNum(3, (Fraction(1, 2), Fraction(-3, 4)))
    CycNum(conductor=3, nums=(2, -3), den=4)
    """

    conductor: int
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        if self.conductor < 1:
            raise ValueError(f"conductor must be positive, got {self.conductor}")
        if len(self.nums) != euler_phi(self.conductor):
            raise ValueError(
                f"need {euler_phi(self.conductor)} coefficients for conductor "
                f"{self.conductor}, got {len(self.nums)}"
            )
        if not isinstance(self.den, int) or self.den < 1:
            raise ValueError(f"denominator must be a positive integer, got {self.den}")
        nums, den = self.nums, self.den
        if not all(type(c) is int for c in nums):
            if not all(isinstance(c, (int, Fraction)) for c in nums):
                raise ValueError(f"coefficients must be int or Fraction, got {nums}")
            scale = math.lcm(*[c.denominator for c in nums])
            nums = [c.numerator * (scale // c.denominator) for c in nums]
            den *= scale
        g = math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple([c // g for c in nums]))
        object.__setattr__(self, "den", den // g)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @classmethod
    def from_poly(cls, n: int, ints: Sequence[int], den: int = 1) -> CycNum:
        """ints / den, a polynomial in zeta_n of any degree, reduced mod Phi_n."""
        return _stored(n, _int_poly_divmod(ints, cyclotomic_polynomial(n))[1], den)

    @classmethod
    def from_rational(cls, n: int, value: Fraction | int) -> CycNum:
        q = Fraction(value)
        return _stored(n, (q.numerator,) + (0,) * (euler_phi(n) - 1), q.denominator)

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> CycNum:
        """zeta_n^power, any integer power; one shared object per residue."""
        return _zeta(n, power % n)

    def _coerce(self, other: CycNum | Fraction | int) -> CycNum:
        if not isinstance(other, CycNum):
            return CycNum.from_rational(self.conductor, other)
        if self.conductor != other.conductor:
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}"
            )
        return other

    def __add__(self, other: CycNum | Fraction | int) -> CycNum:
        o = self._coerce(other)
        nums = [a * o.den + b * self.den for a, b in zip(self.nums, o.nums)]
        return _stored(self.conductor, nums, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return _stored(self.conductor, [-a for a in self.nums], self.den)

    def __sub__(self, other: CycNum | Fraction | int) -> CycNum:
        return self + (-self._coerce(other))

    def __rsub__(self, other: CycNum | Fraction | int) -> CycNum:
        return (-self) + other

    def __mul__(self, other: CycNum | Fraction | int) -> CycNum:
        o = self._coerce(other)
        if o.is_rational():
            nums = [a * o.nums[0] for a in self.nums]
            return _stored(self.conductor, nums, self.den * o.den)
        if self.is_rational():
            nums = [self.nums[0] * b for b in o.nums]
            return _stored(self.conductor, nums, self.den * o.den)
        product = _int_poly_mul(self.nums, o.nums)
        return CycNum.from_poly(self.conductor, product, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> CycNum:
        """Multiplicative inverse through the Galois norm, or directly if rational.

        With c the product of the conjugates sigma_t(a) over the units
        t != 1 mod n, the norm N(a) = a * c is a nonzero rational, so
        a^{-1} = c / N(a).  A norm that is not rational is a bug and
        raises ConsistencyError.
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        n = self.conductor
        if self.is_rational():
            return CycNum.from_rational(n, Fraction(self.den, self.nums[0]))
        cofactor = CycNum.zeta(n, 0)
        for t in range(2, n):
            if math.gcd(t, n) == 1:
                cofactor = cofactor * self.galois(t)
        norm = extract_rational(self * cofactor)
        inverse = _stored(n, cofactor.nums, cofactor.den * abs(norm.numerator))
        return inverse * (norm.denominator if norm > 0 else -norm.denominator)

    def __pow__(self, exponent: int) -> CycNum:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNum.zeta(self.conductor, 0)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __truediv__(self, other: CycNum | Fraction | int) -> CycNum:
        return self * self._coerce(other).inverse()

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def galois(self, t: int) -> CycNum:
        """Image under zeta -> zeta^t; t must be a unit mod the conductor."""
        n = self.conductor
        if math.gcd(t, n) != 1:
            raise ValueError(f"{t} is not a unit mod {n}")
        out = [0] * n
        for j, c in enumerate(self.nums):
            out[(j * t) % n] += c
        return CycNum.from_poly(n, out, self.den)

    def conjugate(self) -> CycNum:
        """Complex conjugation, zeta -> zeta^{-1}."""
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    def lift(self, new_conductor: int) -> CycNum:
        """Rewrite in Q(zeta_m) for a multiple m of the conductor."""
        n = self.conductor
        if new_conductor % n != 0:
            raise ValueError(f"{new_conductor} is not a multiple of {n}")
        step = new_conductor // n
        out = [0] * (len(self.nums) * step)
        out[::step] = self.nums
        return CycNum.from_poly(new_conductor, out, self.den)


@lru_cache(maxsize=None)
def _zeta(n: int, residue: int) -> CycNum:
    return CycNum.from_poly(n, [0] * residue + [1])


def extract_rational(a: CycNum) -> Fraction:
    """The value of a rational CycNum as a Fraction.

    A non-rational input signals a bug in a formula (all the sums this
    library computes are provably rational), so the error carries the
    largest residual coefficient.
    """
    if not a.is_rational():
        worst = max(abs(c) for c in a.nums[1:])
        raise ConsistencyError(
            f"expected a rational value; max residual coefficient {worst}/{a.den} "
            f"(~{worst / a.den:.3g}) at conductor {a.conductor}"
        )
    return Fraction(a.nums[0], a.den)


@lru_cache(maxsize=None)
def sine_square(n: int, d: int) -> CycNum:
    """|2 sin(pi d / n)|^2 = 2 - zeta_n^d - zeta_n^{-d} as a CycNum, memoised."""
    if d % n == 0:
        raise ValueError("angle is a multiple of pi; the sine vanishes")
    return CycNum.from_rational(n, 2) - CycNum.zeta(n, d) - CycNum.zeta(n, -d)

