"""Verlinde numbers as exact trigonometric sums over subsets.

The central quantity is

    v_g(r, k) = (r+k)^{r(g-1)} * sum_{S} prod_{s != t in S} |2 sin((s-t) pi / n)|^{1-g}

where n = r + k and S runs over the r-element subsets of {1, ..., n}.
The ordered product pairs each factor with its mirror, so each unordered
pair {s, t} contributes the square 4 sin^2(pi d / n) = 2 - zeta^d - zeta^{-d},
and the whole sum lives in Q(zeta_n) and is in fact rational.

The dimension of the space of level-k theta functions on the rank-r moduli
space is r^g / n^g * v_g(r, k), a positive integer.

Terms depend on a subset only through its cyclic difference multiset, so the
sum is taken over necklace representatives weighted by orbit size.  Two
production paths produce v_g:

  * genus 1: every term is 1 and the prefactor exponent is 0, so
    v_1(r, k) = C(r+k, r);
  * genus >= 2: the orbit sum is evaluated modulo several primes
    p = 1 (mod n) using a root of unity in F_p and reconstructed by CRT
    (`_v_modular`).  The reconstruction is rigorous without assuming
    anything this library is supposed to verify:
    prod_{d=1}^{n-1} (2 - zeta^d - zeta^{-d}) = n^2 makes n^2 / s_d an
    algebraic integer, so the sum times D = n^{2(g-1)C(r,2)} is a plain
    integer, and |sum| is bounded through 4 sin^2(pi/n) >= 16/n^2.

`_v_exact` evaluates the same orbit sum in exact cyclotomic arithmetic.  It
is the reference oracle that the tests and the identity suite compare the
residue path against; production never calls it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import mpmath
import numpy as np

from .exactnum import (
    ConsistencyError,
    CycNum,
    HypothesisError,
    extract_rational,
    factorize,
    sine_power,
)

_CHUNK = 1 << 15


@dataclass(frozen=True)
class VerlindeQuery:
    """Genus, rank and level addressing v_g(r, k)."""

    g: int
    r: int
    k: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise HypothesisError(f"genus must be >= 1, got {self.g}")
        if self.r < 1:
            raise HypothesisError(f"rank must be >= 1, got {self.r}")
        if self.k < 0:
            raise HypothesisError(f"level must be >= 0, got {self.k}")

    @property
    def n(self) -> int:
        return self.r + self.k


@dataclass(frozen=True)
class SubsetS:
    """An r-element subset of {1, ..., n}, kept sorted."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.members
        if any(m[i] >= m[i + 1] for i in range(len(m) - 1)):
            raise ValueError("members must be strictly increasing")
        if m and (m[0] < 1 or m[-1] > self.n):
            raise ValueError(f"members must lie in 1..{self.n}")


def _difference_multiset(members: tuple[int, ...], n: int) -> Counter[int]:
    # Unordered pair differences folded into 1..n//2; the sine square for
    # d and n-d is the same number.
    out: Counter[int] = Counter()
    r = len(members)
    for i in range(r):
        for j in range(i + 1, r):
            d = members[j] - members[i]
            out[min(d, n - d)] += 1
    return out


def subset_term(S: SubsetS, g: int) -> CycNum:
    """One summand: prod over unordered pairs of (2 - zeta^d - zeta^{-d})^{1-g}.

    Equal differences are grouped, and each grouped power comes from the
    memoised sine_power.  For g = 1 the term is 1 for every subset.
    """
    if g < 1:
        raise HypothesisError(f"genus must be >= 1, got {g}")
    term = CycNum.from_rational(S.n, 1)
    if g == 1:
        return term
    for d, mult in sorted(_difference_multiset(S.members, S.n).items()):
        term = term * sine_power(S.n, d, (1 - g) * mult)
    return term


def necklace_orbits(n: int, r: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Orbit representatives of r-subsets of Z/n under translation.

    Yields (members, orbit_size) with members sorted in {1, ..., n} and
    orbit_size the number of distinct translates.  Subsets correspond to
    cyclic gap compositions of n into r positive parts; representatives are
    the lexicographically least rotations, found with the classic
    prenecklace extension recursion, which also reports the period.
    """
    if r == 0:
        yield (), 1
        return
    w = [1] * (r + 1)

    def emit(p: int) -> tuple[tuple[int, ...], int]:
        members = [1] * r
        acc = 1
        for i in range(1, r):
            acc += w[i]
            members[i] = acc
        # Gap period p means the stabilizer has order r // p, so the
        # orbit has n * p / r distinct translates.
        return tuple(members), n * p // r

    def rec(t: int, p: int, remaining: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if t == r:
            # The last gap is forced to absorb the remaining sum.
            if remaining >= w[t - p]:
                w[t] = remaining
                q = p if remaining == w[t - p] else t
                if r % q == 0:
                    yield emit(q)
            return
        lo = w[t - p]
        hi = remaining - (r - t)
        if lo > hi:
            return
        for c in range(lo, hi + 1):
            w[t] = c
            yield from rec(t + 1, p if c == w[t - p] else t, remaining - c)

    w[0] = 1
    yield from rec(1, 1, n)


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.3 * 10^24.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_one_mod(n: int) -> Iterator[int]:
    # Primes p = 1 (mod n) descending from 2^31; products of two residues
    # then stay inside int64.
    start = ((2**31 - 2) // n) * n + 1
    for p in range(start, n + 1, -n):
        if _is_prime(p):
            yield p


def _root_of_order(n: int, p: int) -> int:
    # An element of exact multiplicative order n in F_p (requires n | p-1).
    prime_divs = [q for q, _ in factorize(n)]
    e = (p - 1) // n
    for a in range(2, p):
        w = pow(a, e, p)
        if all(pow(w, n // q, p) != 1 for q in prime_divs):
            return w
    raise ArithmeticError(f"no element of order {n} mod {p}")


def _orbit_chunks(n: int, r: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    members = np.empty((_CHUNK, r), dtype=np.int64)
    weights = np.empty(_CHUNK, dtype=np.int64)
    fill = 0
    for mem, wt in necklace_orbits(n, r):
        members[fill] = mem
        weights[fill] = wt
        fill += 1
        if fill == _CHUNK:
            yield members, weights
            members = np.empty((_CHUNK, r), dtype=np.int64)
            weights = np.empty(_CHUNK, dtype=np.int64)
            fill = 0
    if fill:
        yield members[:fill], weights[:fill]


def _v_modular(n: int, r: int, g: int) -> Fraction:
    """Orbit sum via residues mod primes p = 1 (mod n), reconstructed by CRT."""
    pairs = r * (r - 1) // 2
    exponent = (g - 1) * pairs
    denom_clear = n ** (2 * exponent)  # sum * denom_clear is an integer
    # |sum| <= C(n,r) * (n^2/16)^{exponent}, from 4 sin^2(pi/n) >= 16/n^2.
    mag = Fraction(n * n, 16) ** exponent
    bound = math.comb(n, r) * (mag.numerator // mag.denominator + 1) * denom_clear
    prime_iter = _primes_one_mod(n)
    primes: list[int] = []
    modulus = 1
    while modulus <= 2 * bound + 1:
        p = next(prime_iter, None)
        if p is None:
            raise HypothesisError(
                f"the primes p = 1 (mod {n}) below 2^31 are too few to recover "
                f"a {bound.bit_length()}-bit value; n = r + k = {n} is too large"
            )
        primes.append(p)
        modulus *= p

    tables = []
    for p in primes:
        w = _root_of_order(n, p)
        lut = np.zeros(n // 2 + 1, dtype=np.int64)
        for d in range(1, n // 2 + 1):
            s_d = (2 - pow(w, d, p) - pow(w, n - d, p)) % p
            lut[d] = pow(s_d, (1 - g) % (p - 1), p)
        tables.append(lut)

    idx_i, idx_j = np.triu_indices(r, 1)
    residues = [0] * len(primes)
    for members, weights in _orbit_chunks(n, r):
        delta = members[:, idx_j] - members[:, idx_i]
        folded = np.minimum(delta, n - delta)
        for t, (p, lut) in enumerate(zip(primes, tables)):
            factors = lut[folded]
            acc = weights % p
            for col in range(factors.shape[1]):
                acc = acc * factors[:, col] % p
            residues[t] = (residues[t] + int(acc.sum() % p)) % p

    # The residues represent the sum itself; rescale to the integer
    # sum * denom_clear before recombining.
    total, mod = 0, 1
    for p, res in zip(primes, residues):
        res = res * (denom_clear % p) % p
        inv = pow(mod % p, -1, p)
        total += mod * ((res - total) * inv % p)
        mod *= p
    total %= mod
    if total > mod // 2:
        total -= mod
    scaled = Fraction(total, denom_clear)
    return Fraction(n) ** (r * (g - 1)) * scaled


def _v_exact(n: int, r: int, g: int) -> Fraction:
    """Orbit sum in exact cyclotomic arithmetic; reference oracle only."""
    total = CycNum.from_rational(n, 0)
    for members, weight in necklace_orbits(n, r):
        term = CycNum.from_rational(n, weight)
        for d, mult in _difference_multiset(members, n).items():
            term = term * sine_power(n, d, (1 - g) * mult)
        total = total + term
    return Fraction(n) ** (r * (g - 1)) * extract_rational(total)


def _v_float(n: int, r: int, g: int, prec_bits: int = 80) -> mpmath.mpf:
    """Floating evaluation of the same orbit sum; cross-check only."""
    with mpmath.workprec(prec_bits):
        sines = [mpmath.mpf(0)] + [
            (2 * mpmath.sin(mpmath.pi * d / n)) ** 2 for d in range(1, n // 2 + 1)
        ]
        total = mpmath.mpf(0)
        for members, weight in necklace_orbits(n, r):
            term = mpmath.mpf(weight)
            for d, mult in _difference_multiset(members, n).items():
                term *= sines[d] ** ((1 - g) * mult)
            total += term
        return mpmath.mpf(n) ** (r * (g - 1)) * total


@lru_cache(maxsize=None)
def _v_number_cached(g: int, r: int, k: int) -> Fraction:
    n = r + k
    if g == 1:
        # Every subset term is 1 and the prefactor exponent is zero.
        return Fraction(math.comb(n, r))
    return _v_modular(n, r, g)


def v_number(q: VerlindeQuery) -> Fraction:
    """The Verlinde number v_g(r, k) as an exact Rational."""
    return _v_number_cached(q.g, q.r, q.k)


def v_number_float(q: VerlindeQuery, prec_bits: int = 80) -> float:
    """Floating-point v_g(r, k); never authoritative."""
    return float(_v_float(q.n, q.r, q.g, prec_bits))


def verlinde_dim(q: VerlindeQuery) -> int:
    """r^g / (r+k)^g * v_g(r, k), checked to be a positive integer."""
    value = Fraction(q.r, q.n) ** q.g * v_number(q)
    if value.denominator != 1 or value <= 0:
        raise ConsistencyError(
            f"dimension r^g/(r+k)^g * v_g(r,k) came out {value} for "
            f"(g, r, k) = ({q.g}, {q.r}, {q.k}); it must be a positive integer"
        )
    if q.k == 0 and value != 1:
        raise ConsistencyError(
            f"level 0 must give a one-dimensional space, got {value}"
        )
    return int(value)


def check_level_rank_symmetry(g: int, r: int, k: int) -> bool:
    """Exact equality v_g(r, k) = v_g(k, r)."""
    if r < 1 or k < 1:
        raise HypothesisError("level-rank symmetry needs r, k >= 1")
    return v_number(VerlindeQuery(g, r, k)) == v_number(VerlindeQuery(g, k, r))


def all_subsets(n: int, r: int) -> Iterator[SubsetS]:
    """Plain enumeration of all r-subsets of {1, ..., n}."""
    for members in itertools.combinations(range(1, n + 1), r):
        yield SubsetS(n, members)
