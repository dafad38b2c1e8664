"""Projective Verlinde dimensions by two independent routes.

For d dividing both r and k (r odd), the dimension of the space of
projectively invariant theta functions is computed two ways:

  * character sum: average the d-torsion traces,

        (1/d^{2g}) * r^g/(r+k)^g * sum_{delta | d}
            n(delta) * v_{delta(g-1)+1}(r/delta, k/delta),

    where n(delta) counts elements of order delta in (Z/d)^{2g};

  * twisted subset sum: weight each r-subset S of {1, ..., r+k} by

        xi_d(S) = (gcd(delta_S, d) / d)^{2g},

    delta_S being the coperiod of S (the largest delta with S + n/delta = S),
    and evaluate

        r^g * (r+k)^{(r-1)(g-1)-1} * sum_S xi_d(S) * prod_{pairs} s_d^{1-g}

    by plain enumeration, s_d = 2 - zeta^d - zeta^{-d}; `verlinde.subset_sum`
    adds xi_d per pair-difference multiset and builds each term once.  The
    exponent may be negative; arithmetic stays rational throughout.

The character sum reads `v_number` (the residue path at genus >= 2), the
subset sum exact cyclotomic arithmetic, as `verlinde._v_exact` does; their
agreement is the point of keeping both.  The supporting trigonometric facts
have their own checkers here: the sine multiplication rule underlying the
coperiodic collapse, and the factorization of a coperiodic subset's pair
product through its core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    ConsistencyError,
    CycNum,
    HypothesisError,
    check_price,
    euler_phi,
    extract_rational,
    sine_square,
)
from .torsion import count_order, divisors
from .verlinde import SubsetS, VerlindeQuery, all_subsets, subset_sum, v_number

# Work units of one coperiodic walk, C(n, r) phi(n) (1 + C(r, 2) phi(n)),
# times 1 + (g-1)^2 (C(r, 2) + 10) // 640 000 when r > 1, for coefficients
# that grow with g.  It counts a term per subset, though `subset_sum` builds one
# per difference multiset: walks at the budget take 0.03-0.3 s on a 2-vCPU VM.
COPERIODIC_BUDGET = 10_000_000


@dataclass(frozen=True)
class PglQuery:
    """Genus g, odd rank r, level k, and a common divisor d of r and k."""

    g: int
    r: int
    k: int
    d: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise HypothesisError(f"genus must be >= 1, got {self.g}")
        if self.r < 1 or self.k < 1:
            raise HypothesisError("rank and level must be >= 1")
        if self.r % 2 == 0:
            raise HypothesisError(
                f"rank must be odd, got {self.r}; the projective descent "
                "is established only for odd rank"
            )
        if self.d < 1 or self.r % self.d != 0 or self.k % self.d != 0:
            raise HypothesisError(
                f"d = {self.d} must divide both r = {self.r} and k = {self.k}"
            )

    @property
    def n(self) -> int:
        return self.r + self.k


@dataclass(frozen=True)
class CoperiodResult:
    """Coperiod delta of a subset and its core in {1, ..., n/delta}."""

    delta: int
    core: SubsetS


def coperiod(S: SubsetS) -> CoperiodResult:
    """Largest delta with S + n/delta = S, plus the core subset.

    A subset invariant under adding n/delta is the union of the delta
    translates of its core S ∩ {1, ..., n/delta}.  The invariant deltas
    are exactly the divisors of the largest one, so the first hit while
    descending through divisors of gcd(n, |S|) is the coperiod.
    """
    n, members = S.n, S.members
    r = len(members)
    member_set = set(members)
    for delta in reversed(divisors(math.gcd(n, r))):
        step = n // delta
        if all((m - 1 + step) % n + 1 in member_set for m in members):
            core = tuple(m for m in members if m <= step)
            if len(core) * delta != r:
                raise ConsistencyError(
                    f"coperiod core of {members} has {len(core)} elements, "
                    f"expected {r} / {delta}"
                )
            return CoperiodResult(delta, SubsetS(step, core))
    raise ConsistencyError(f"no coperiod found for {S}")  # delta = 1 always hits


def xi_weight(S: SubsetS, d: int, g: int) -> Fraction:
    """Twist weight xi_d(S) = (gcd(delta_S, d) / d)^{2g}.

    Cross-checked on every call against the character-count form
    d^{-2g} * sum over delta dividing both d and delta_S of n(delta).
    """
    if d < 1 or g < 1:
        raise HypothesisError("need d >= 1 and g >= 1")
    delta_s = coperiod(S).delta
    m = math.gcd(delta_s, d)
    direct = Fraction(m, d) ** (2 * g)
    counted = Fraction(
        sum(count_order(m, delta, g) for delta in divisors(m)), d ** (2 * g)
    )
    if direct != counted:
        raise ConsistencyError(
            f"twist weight mismatch for {S.members}, d = {d}: "
            f"{direct} != {counted}"
        )
    return direct


def pgl_dim_charsum(q: PglQuery) -> int:
    """Projective dimension as an average of torsion traces."""
    g, r, k, d = q.g, q.r, q.k, q.d
    total = Fraction(0)
    for delta in divisors(d):
        vq = VerlindeQuery(delta * (g - 1) + 1, r // delta, k // delta)
        total += count_order(d, delta, g) * v_number(vq)
    result = Fraction(r**g, q.n**g * d ** (2 * g)) * total
    if result.denominator != 1 or result <= 0:
        raise ConsistencyError(
            f"character-sum route gave {result} for {q}; expected a "
            "positive integer"
        )
    return int(result)


def pgl_dim_coperiodic(q: PglQuery) -> int:
    """Projective dimension as a twist-weighted sum over all subsets."""
    g, r, n, d = q.g, q.r, q.n, q.d
    subsets, phi, pairs = math.comb(n, r), euler_phi(n), math.comb(r, 2)
    # Rank 1 has no pair factor, so no coefficient grows with g.
    growth = 1 + (g - 1) ** 2 * (pairs + 10) // 640_000 if pairs else 1
    price = subsets * phi * (1 + pairs * phi) * growth
    check_price(price, COPERIODIC_BUDGET, f"coperiodic walk over C({n}, {r}) = {subsets} subsets")
    total = subset_sum(n, g, ((S.members, xi_weight(S, d, g)) for S in all_subsets(n, r)))
    prefactor = Fraction(r) ** g * Fraction(n) ** ((r - 1) * (g - 1) - 1)
    result = prefactor * extract_rational(total)
    if result.denominator != 1 or result <= 0:
        raise ConsistencyError(
            f"coperiodic route gave {result} for {q}; expected a "
            "positive integer"
        )
    return int(result)


def check_sine_identity(delta: int, x: Fraction) -> bool:
    """prod_{i < delta} 4 sin^2(pi (x + i/delta)) = 4 sin^2(pi delta x).

    Both sides are compared exactly in Q(zeta_N), N = lcm(den(x), delta).
    Angles with delta * x integral make both sides vanish; they are
    rejected as degenerate rather than reported as confirmations.
    """
    if delta < 1:
        raise HypothesisError(f"delta must be >= 1, got {delta}")
    x = Fraction(x)
    if (delta * x).denominator == 1:
        raise HypothesisError(
            f"degenerate angle: delta * x = {delta * x} is an integer"
        )
    N = math.lcm(x.denominator, delta)
    base = int(x * N)
    lhs = CycNum.from_rational(N, 1)
    for i in range(delta):
        lhs = lhs * sine_square(N, base + i * (N // delta))
    rhs = sine_square(N, delta * base)
    return lhs == rhs


def check_coperiodic_product(S: SubsetS, delta: int) -> bool:
    """Pair product of a coperiodic subset against its core's pair product.

    For delta dividing the coperiod of S, with core T in {1, ..., n/delta},

        prod_{pairs of S} (2 - z^d - z^{-d})
            = delta^|S| * prod_{pairs of T} (2 - z^{delta e} - z^{-delta e})^delta

    with everything at conductor n.  The repeated-element classes collapse
    to the delta^|S| factor by the sine multiplication rule.
    """
    if delta < 1 or coperiod(S).delta % delta != 0:
        raise HypothesisError(
            f"delta = {delta} does not divide the coperiod of {S.members}"
        )
    n, members = S.n, S.members
    step = n // delta
    core = tuple(m for m in members if m <= step)
    lhs = CycNum.from_rational(n, 1)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            lhs = lhs * sine_square(n, members[j] - members[i])
    rhs = CycNum.from_rational(n, Fraction(delta) ** len(members))
    for i in range(len(core)):
        for j in range(i + 1, len(core)):
            rhs = rhs * sine_square(n, delta * (core[j] - core[i])) ** delta
    return lhs == rhs
