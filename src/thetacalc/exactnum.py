"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum is an element of Q[x]/(Phi_n(x)) stored as phi(n) Fraction
coefficients in the power basis 1, zeta, ..., zeta^{phi(n)-1}.  Products
and reductions clear denominators and run on integer numerators over one
common denominator, dividing by the monic Phi_n.  Working modulo Phi_n
(irreducible) rather than x^n - 1 keeps the quotient a field, so
elements can be inverted; negative powers are needed because the sine
products carry the exponent 1 - g, which is negative for genus g >= 2.
An inverse is the product of the other Galois conjugates divided by the
norm, a rational number, so the field needs no arithmetic beyond its own
multiplication and the automorphisms zeta -> zeta^t.

The quantities of interest are the sine squares

    |2 sin(pi d / n)|^2 = 2 - zeta_n^d - zeta_n^{-d},

so everything stays inside the conductor-n field; no half-angle roots of
unity ever appear.  Their powers come from one memoised function,
sine_power, shared by every sum that needs them.

A floating cross-check mode (embed) evaluates a CycNum at e^{2 pi i / n}
with mpmath at a configurable precision.  It is never authoritative.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

Rational = Fraction

DEFAULT_EMBED_PREC = 80  # bits of mantissa for the floating cross-check


class HypothesisError(ValueError):
    """An input lies outside the hypothesis under which a formula holds."""


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


def euler_phi(n: int) -> int:
    """Euler's totient.

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
    # Quotient and remainder of integer polynomials; den must be monic.
    # Only den's nonzero lower coefficients touch the running remainder.
    work = list(num)
    d = len(den) - 1
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
    for d in range(1, n):
        if n % d == 0:
            num, rem = _int_poly_divmod(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ConsistencyError(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(num)


def _clear_denominators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    # Integer numerators over the least common denominator.
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _reduce_mod_phi(ints: Sequence[int], den: int, n: int) -> tuple[Fraction, ...]:
    # ints / den, a polynomial in zeta_n of any degree, reduced modulo the
    # monic Phi_n on the integer numerators and padded to length phi(n).
    phi = cyclotomic_polynomial(n)
    rem = _int_poly_divmod(ints, phi)[1]
    rem += [0] * (len(phi) - 1 - len(rem))
    return tuple(Fraction(c, den) for c in rem)


@dataclass(frozen=True)
class CycNum:
    """An element of Q(zeta_n), coefficients in the basis 1..zeta^{phi(n)-1}."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.conductor < 1:
            raise ValueError(f"conductor must be positive, got {self.conductor}")
        if len(self.coeffs) != euler_phi(self.conductor):
            raise ValueError(
                f"need {euler_phi(self.conductor)} coefficients for conductor "
                f"{self.conductor}, got {len(self.coeffs)}"
            )

    @classmethod
    def from_poly(cls, n: int, coeffs: list[Fraction]) -> CycNum:
        return cls(n, _reduce_mod_phi(*_clear_denominators(coeffs), n))

    @classmethod
    def from_rational(cls, n: int, value: Fraction | int) -> CycNum:
        return cls.from_poly(n, [Fraction(value)])

    @classmethod
    def zeta(cls, n: int, power: int = 1) -> CycNum:
        """zeta_n^power, any integer power."""
        power %= n
        return cls.from_poly(n, [Fraction(0)] * power + [Fraction(1)])

    def _check_same_field(self, other: CycNum) -> None:
        if self.conductor != other.conductor:
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}"
            )

    def _coerce(self, other: CycNum | Fraction | int) -> CycNum:
        if isinstance(other, CycNum):
            self._check_same_field(other)
            return other
        return CycNum.from_rational(self.conductor, other)

    def __add__(self, other: CycNum | Fraction | int) -> CycNum:
        o = self._coerce(other)
        return CycNum(self.conductor, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum(self.conductor, tuple(-a for a in self.coeffs))

    def __sub__(self, other: CycNum | Fraction | int) -> CycNum:
        return self + (-self._coerce(other))

    def __rsub__(self, other: CycNum | Fraction | int) -> CycNum:
        return (-self) + other

    def __mul__(self, other: CycNum | Fraction | int) -> CycNum:
        if not isinstance(other, CycNum):
            q = Fraction(other)
            return CycNum(self.conductor, tuple(a * q for a in self.coeffs))
        self._check_same_field(other)
        a, da = _clear_denominators(self.coeffs)
        b, db = _clear_denominators(other.coeffs)
        return CycNum(self.conductor, _reduce_mod_phi(_int_poly_mul(a, b), da * db, self.conductor))

    __rmul__ = __mul__

    def inverse(self) -> CycNum:
        """Multiplicative inverse through the Galois norm.

        With c the product of the conjugates sigma_t(a) over the units
        t != 1 mod n, the norm N(a) = a * c is a nonzero rational, so
        a^{-1} = c / N(a).  A norm that is not rational is a bug and
        raises ConsistencyError.
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        n = self.conductor
        cofactor = CycNum.from_rational(n, 1)
        for t in range(2, n):
            if math.gcd(t, n) == 1:
                cofactor = cofactor * self.galois(t)
        return cofactor * (1 / extract_rational(self * cofactor))

    def __pow__(self, exponent: int) -> CycNum:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNum.from_rational(self.conductor, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other: CycNum | Fraction | int) -> CycNum:
        return self * self._coerce(other).inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def galois(self, t: int) -> CycNum:
        """Image under zeta -> zeta^t; t must be a unit mod the conductor."""
        n = self.conductor
        if math.gcd(t, n) != 1:
            raise ValueError(f"{t} is not a unit mod {n}")
        out = [Fraction(0)] * n
        for j, c in enumerate(self.coeffs):
            out[(j * t) % n] += c
        return CycNum.from_poly(n, out)

    def conjugate(self) -> CycNum:
        """Complex conjugation, zeta -> zeta^{-1}."""
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    def lift(self, new_conductor: int) -> CycNum:
        """Rewrite in Q(zeta_m) for a multiple m of the conductor."""
        n = self.conductor
        if new_conductor % n != 0:
            raise ValueError(f"{new_conductor} is not a multiple of {n}")
        step = new_conductor // n
        out = [Fraction(0)] * (len(self.coeffs) * step - step + 1 or 1)
        for j, c in enumerate(self.coeffs):
            out[j * step] += c
        return CycNum.from_poly(new_conductor, out)

    def embed(self, prec_bits: int = DEFAULT_EMBED_PREC) -> "mpmath.mpc":
        """Numeric value at zeta_n = e^{2 pi i / n}; cross-check only."""
        with mpmath.workprec(prec_bits):
            z = mpmath.exp(2j * mpmath.pi / self.conductor)
            total = mpmath.mpc(0)
            for j in range(len(self.coeffs) - 1, -1, -1):
                c = self.coeffs[j]
                total = total * z + mpmath.mpf(c.numerator) / c.denominator
            return total


def extract_rational(a: CycNum) -> Fraction:
    """The value of a rational CycNum as a Fraction.

    A non-rational input signals a bug in a formula (all the sums this
    library computes are provably rational), so the error carries the
    largest residual coefficient.
    """
    residual = [abs(c) for c in a.coeffs[1:]]
    if any(residual):
        worst = max(residual)
        raise ConsistencyError(
            f"expected a rational value; max residual coefficient {worst} "
            f"(~{float(worst):.3g}) at conductor {a.conductor}"
        )
    return a.coeffs[0]


def sine_square(n: int, d: int) -> CycNum:
    """|2 sin(pi d / n)|^2 = 2 - zeta_n^d - zeta_n^{-d} as a CycNum."""
    if d % n == 0:
        raise ValueError("angle is a multiple of pi; the sine vanishes")
    return CycNum.from_rational(n, 2) - CycNum.zeta(n, d) - CycNum.zeta(n, -d)


@lru_cache(maxsize=None)
def sine_power(n: int, d: int, e: int) -> CycNum:
    """sine_square(n, d) ** e, memoised.

    The sine-product sums raise the same few sine squares to the same few
    (mostly negative) powers for every subset or orbit, so each power is
    computed once per process, and all negative powers of one sine square
    share a single inverse.
    """
    if e < -1:
        return sine_power(n, d, -1) ** -e
    return sine_square(n, d) ** e
