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
sum is taken over necklace representatives weighted by orbit size, and each
distinct multiset's term is formed once.  Two production paths produce v_g:

  * genus 1: every term is 1 and the prefactor exponent is 0, so
    v_1(r, k) = C(r+k, r), priced by its size before it is computed;
  * genus >= 2: the sum, grouped by distinct difference histograms, is
    evaluated modulo several primes p = 1 (mod n) using a root of unity in
    F_p and reconstructed by CRT (`_v_modular`), rigorously and without
    assuming anything this library is supposed to verify.  The orbits come
    in blocks of `_CHUNK` cells, their histograms are counted in slices of a
    quarter block, and each row is packed into integer words and folded into
    the sorted distinct rows as it comes, so the working set follows the
    distinct rows, not the orbits (`_merge_histograms`).  The denominators
    are cleared by cyclotomic valuations (Washington, Introduction to
    Cyclotomic Fields, GTM 83, ch. 1-2): with m_d = n / gcd(n, d), the factor
    s_d = 2 - zeta^d - zeta^{-d} = -zeta^{-d} (1 - zeta^d)^2 is a unit unless
    m_d is a prime power p^a, and then s_d^{phi(m_d)} is p^2 times a unit,
    so v_p(s_d) = 2 / phi(m_d).  The sum times D = prod_{p | n} p^{E_p},
    E_p = ceil((g-1) max_h sum_d h_d v_p(s_d)) over the histogram rows h,
    is an algebraic integer and rational, so a plain integer; D divides
    the cruder n^{2(g-1)C(r,2)} and is far smaller.  The CRT modulus is
    sized from C(n, r) times the largest (positive) term times D, in float64
    log space plus an explicit float-error bound and two bits; both row maxima
    scale by g - 1, so they are kept with the rows.  Work prices refuse a call
    before its first orbit, and twice (CRT tail, gathers; `CRT_BUDGET`,
    `RESIDUE_BUDGET`) before its first prime.  Each n keeps one descending
    list of primes, searched further only when a call needs more.

`_v_exact` evaluates the same orbit sum exactly with `subset_sum`, as `pgl`'s
coperiodic route does.  It is the reference oracle that the tests and the
identity suite compare the residue path against; production never calls it.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .exactnum import (
    ConsistencyError,
    CycNum,
    HypothesisError,
    check_price,
    extract_rational,
    factorize,
    sine_square,
)

_CHUNK = 1 << 20  # cells (rows x columns) in one block of the residue pipeline
RESIDUE_BUDGET = 50_000_000  # work units; `_v_modular` prices each call
CRT_BUDGET = 50_000_000  # work units, as above; `_v_modular` prices its CRT tail


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
    return Counter(min(t - s, n - t + s) for s, t in itertools.combinations(members, 2))


def subset_term(n: int, multiset: tuple[tuple[int, int], ...], g: int) -> CycNum:
    """(prod_d s_d^{m_d})^{1-g}, the summand of every subset whose difference
    multiset is ((d, m_d), ...): one inverse, and 1 for a subset without pairs."""
    term = CycNum.from_rational(n, 1)
    for d, mult in multiset:
        term = term * sine_square(n, d) ** mult
    return term ** (1 - g) if multiset else term


def subset_sum(n: int, g: int, weighted: Iterable[tuple[tuple, Fraction | int]]) -> CycNum:
    """Sum of weight * subset_term over (members, weight) pairs, members an
    r-subset of {1, ..., n}; the weights are added per difference multiset."""
    if g < 1:
        raise HypothesisError(f"genus must be >= 1, got {g}")
    if g == 1:
        return CycNum.from_rational(n, sum(weight for _, weight in weighted))
    groups: Counter[tuple[tuple[int, int], ...]] = Counter()
    for members, weight in weighted:
        groups[tuple(sorted(_difference_multiset(members, n).items()))] += weight
    terms = (subset_term(n, multiset, g) * weight for multiset, weight in groups.items())
    return sum(terms, CycNum.from_rational(n, 0))


def _necklace_blocks(
    n: int, r: int, row_cells: int | None = None, t: int = 1, frontier: tuple = ()
) -> Iterator[tuple]:
    # Necklace representatives (r >= 1) as (members, orbit sizes) blocks of
    # max(1, _CHUNK // row_cells) rows, where row_cells is what one row costs
    # the caller in cells (by default its own r + 1 gaps).  A frontier row has
    # fixed gaps w[1..t-1] (w[0] = 1 is a sentinel), its prenecklace period p
    # and the sum still to place, rest; gap t ranges over
    # [w[t-p], rest - (r-t)].  Gaps, periods, rest and members take the
    # narrowest signed type that holds n: int16 below 2^15, else int32 (n is
    # below 2^31, as `_primes_one_mod` requires); orbit sizes are int64.
    rows = max(1, _CHUNK // (row_cells or r + 1))
    if not frontier:
        ones = np.ones((1, r + 1), np.int16 if n < 2**15 else np.int32)
        frontier = ones, ones[:, 0], np.full(1, n, ones.dtype)
    gaps, period, rest = frontier
    lo = gaps[np.arange(len(gaps)), t - period]
    if t == r:
        # The last gap is forced to absorb the rest.  Gap period q means
        # the stabilizer has order r // q: the orbit has n q / r translates.
        q = np.where(rest == lo, period, r)
        keep = (rest >= lo) & (r % q == 0)
        members = np.cumsum(gaps[keep, :r], axis=1, dtype=gaps.dtype)
        weights = n * q[keep].astype(np.int64) // r
        for s in range(0, len(weights), rows):
            yield members[s : s + rows], weights[s : s + rows]
        return
    count = np.maximum(rest - (r - t) - lo + 1, 0)
    ends = np.cumsum(count)
    first = ends - count
    start = 0
    while start < len(gaps):
        # Expand, depth first, the next parents whose children fill a block
        # (one parent at least), so each of the r levels holds about one.
        stop = max(int(np.searchsorted(ends, first[start] + rows, "right")), start + 1)
        parent = np.repeat(np.arange(start, stop), count[start:stop])
        c = np.arange(first[start], ends[stop - 1]) - first[parent]
        c = lo[parent] + c.astype(gaps.dtype)
        child = gaps[parent]
        child[:, t] = c
        frontier = child, np.where(c == lo[parent], period[parent], t), rest[parent] - c
        del parent, c  # only the children stay alive below this level
        yield from _necklace_blocks(n, r, row_cells, t + 1, frontier)
        start = stop


def necklace_orbits(n: int, r: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Orbit representatives of r-subsets of Z/n under translation.

    Yields (members, orbit_size) with members sorted in {1, ..., n} and
    orbit_size the number of distinct translates: the lexicographically
    least rotations of the cyclic gap compositions, unpacked from the
    blocks of the array prenecklace enumerator the residue path reads.
    """
    if r == 0:
        yield (), 1
        return
    for members, weights in _necklace_blocks(n, r):
        yield from zip(map(tuple, members.tolist()), weights.tolist())


def _is_prime(n: int) -> bool:
    # Trial division, then Miller-Rabin with the bases 2, 3, 5, 7, which
    # decide every n < 3 215 031 751, so every candidate below 2^31.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
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


def _primes_one_mod(n: int, below: int = 2**31) -> Iterator[int]:
    # Primes p = 1 (mod n) below `below` (at most 2^31), descending; products
    # of two residues then stay inside int64.
    start = ((below - 2) // n) * n + 1
    for p in range(start, n + 1, -n):
        if _is_prime(p):
            yield p


@lru_cache(maxsize=None)
def _root_of_order(n: int, p: int) -> int:
    # An element of exact multiplicative order n in F_p (requires n | p-1).
    prime_divs = [q for q, _ in factorize(n)]
    e = (p - 1) // n
    for a in range(2, p):
        w = pow(a, e, p)
        if all(pow(w, n // q, p) != 1 for q in prime_divs):
            return w
    raise ArithmeticError(f"no element of order {n} mod {p}")


# (n, r) -> _distinct_histograms(n, r), least recently used first.  The
# rows and their maxima do not depend on the genus, so a sweep over g
# merges them once.
_HISTOGRAMS: OrderedDict[tuple[int, int], tuple] = OrderedDict()
_HISTOGRAMS_LOCK = threading.Lock()


def _distinct_histograms(n: int, r: int) -> tuple:
    # Kept in _HISTOGRAMS, read-only, while all entries together hold at most
    # _CHUNK cells (hist.size + weights.size); a larger result is not kept.
    # The key is (n, r) as called, never (n, n - r): level-rank compares two
    # separate enumerations.
    key = (n, r)
    with _HISTOGRAMS_LOCK:
        if key in _HISTOGRAMS:
            _HISTOGRAMS.move_to_end(key)
            return _HISTOGRAMS[key]
    out = hist, weights, *_ = _merge_histograms(n, r)
    cells = hist.size + weights.size
    if cells <= _CHUNK:
        hist.flags.writeable = weights.flags.writeable = False
        with _HISTOGRAMS_LOCK:
            kept = sum(h.size + w.size for h, w, *_ in _HISTOGRAMS.values())
            while kept + cells > _CHUNK:
                h, w, *_ = _HISTOGRAMS.popitem(last=False)[1]
                kept -= h.size + w.size
            _HISTOGRAMS[key] = out
    return out


def _fold(parts: list) -> None:
    # Replace parts, a list of (packed rows, orbit sizes), by one such pair:
    # the distinct rows in increasing order, each with its summed sizes.  The
    # inputs are dropped before the sort, so a fold peaks near 32 bytes a row
    # of one word.  Equal words are equal rows, so one word needs no stable
    # sort; several are sorted stably, the first word last.
    keys, sizes = map(np.concatenate, zip(*parts))
    parts.clear()
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T[::-1])
    keys = keys[order]
    sizes = sizes[order]
    del order
    new = np.ones(len(keys), bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    parts.append((keys[starts], np.add.reduceat(sizes, starts)))


def _merge_histograms(n: int, r: int) -> tuple:
    # Per orbit, the histogram h[d] of folded pair differences d in 0..n//2
    # (h[0] = 0); a term depends on nothing else, so equal rows are merged.
    # Blocks are sized by a row's C(r, 2) pairs and n//2 + 1 histogram cells
    # and counted in slices of _CHUNK / 4 cells, the only place where the
    # differences are widened (to intp, for bincount): a slice's temporaries,
    # about 3 MB, fit a 4 MiB L2 cache.  Each row h_1..h_{n//2} is packed into
    # int64 words of base r + 1 digits below 2^63, h_1 most significant:
    # h_d <= r (a pair at folded distance d < n/2 is {s, s + d} for one s in
    # the subset; at d = n/2 one s serves both ends), so no digit carries and
    # the words order rows as a lexsort on the columns does.  Pending rows are
    # folded into the distinct rows kept so far whenever they hold more words
    # than max(_CHUNK / 8, the kept rows' words), so the working set follows
    # the distinct rows, not the orbits.  Rank 1 has no pairs and packs no
    # digit.  Also returns the columns some row uses; the gathers skip the
    # rest.  Last come the row maxima that `_crt_bound` scales by g - 1: per
    # prime power q = p^a || n, (p, phi(q), max_h sum_d h_d w_d), and
    # max_h sum_d h_d c_d with c_d = -log2 4 sin^2(pi d / n).
    width = n // 2 + 1
    idx_i, idx_j = np.nonzero(np.arange(r)[:, None] < np.arange(r))  # pairs i < j
    row_cells = len(idx_i) + width
    slice_rows = max(1, _CHUNK // 4 // row_cells)
    base, digits = r + 1, n // 2 if r > 1 else 0
    most = 63 // r.bit_length()  # digits a word holds: base^most <= 2^63, raised while it holds
    while base ** (most + 1) <= 2**63:
        most += 1
    words = max(1, -(-digits // most))
    per = max(1, -(-digits // words))  # digits spread evenly over the words
    span = 1 + words * per  # a row's cells padded to whole words; >= width if r > 1
    place = base ** np.arange(per - 1, -1, -1, dtype=np.int64)
    parts, pending = [(np.zeros((0, words), np.int64), np.zeros(0, np.int64))], 0
    for members, weights in _necklace_blocks(n, r, row_cells):
        for s in range(0, len(members), slice_rows):
            part = members[s : s + slice_rows]
            delta = part[:, idx_j]
            delta -= part[:, idx_i]
            np.minimum(delta, n - delta, out=delta)
            delta = delta + span * np.arange(len(part))[:, None]
            # The gathers leave delta column-major; bincount takes any order.
            counts = np.bincount(delta.ravel("K"), minlength=span * len(part)).reshape(-1, span)
            keys = counts[:, 1:].reshape(-1, words, per) @ place
            parts.append((keys, weights[s : s + slice_rows]))
            pending += len(part)
            if pending * words > max(_CHUNK // 8, len(parts[0][0]) * words):
                _fold(parts)
                pending = 0
    _fold(parts)
    [(keys, weights)] = parts
    hist = np.zeros((len(keys), width), np.min_scalar_type(r))
    for j in reversed(range(per)):
        hist[:, 1 + j : digits + 1 : per] = keys[:, : -(-(digits - j) // per)] % base
        keys //= base
    cols = np.flatnonzero(hist.any(axis=0)).tolist()
    tops = []
    for p, phi, weight in _valuation_weights(n):
        used = (weight[d] * hist[:, d].astype(np.int64) for d in cols if d in weight)
        tops.append((p, phi, int(sum(used, np.zeros(len(hist), np.int64)).max())))
    costs = (hist[:, d] * -math.log2(4 * math.sin(math.pi * d / n) ** 2) for d in cols)
    cost = float(sum(costs, np.zeros(len(hist))).max())
    return hist, weights, cols, tops, cost


@lru_cache(maxsize=None)
def _valuation_weights(n: int) -> tuple[tuple[int, int, dict[int, int]], ...]:
    # Per prime power q = p^a || n: (p, phi(q), {d: w_d}) for the d
    # with m_d = n / gcd(n, d) = p^b, w_d = 2 p^{a-b}, so that w_d / phi(q) =
    # 2 / phi(m_d) is the p-adic valuation of s_d = 2 - zeta^d - zeta^{-d};
    # every other s_d is a unit at p.  m_d divides q exactly when d = (n/q) j,
    # and then p^{a-b} = gcd(q, j).
    out = []
    for p, a in factorize(n):
        q = p**a
        weight = {n // q * j: 2 * math.gcd(q, j) for j in range(1, q // 2 + 1)}
        out.append((p, q // p * (p - 1), weight))
    return tuple(out)


def _crt_bound(n: int, r: int, g: int, tops: list, cost: float) -> tuple[list, int]:
    """[(p, E_p)] for D = prod_{p | n} p^{E_p}, the orbit sum times D an integer,
    and bits b such that every modulus M >= 2^b exceeds 2 |sum * D| + 1.

    A term prod_d s_d^{(1-g) h_d} has p-adic valuation (1-g) sum_d h_d v_p(s_d)
    and is a unit away from the primes over n, so E_p = ceil((g-1) top / phi(q)).
    The terms are positive and their orbit sizes add up to C(n, r), so log2 sum
    <= log2 C(n, r) + (g-1) cost.  D itself is built after the CRT tail's price.
    """
    exps = [(p, -(-(g - 1) * top // phi)) for p, phi, top in tops]
    e = (g - 1) * (r * (r - 1) // 2)
    log_bound = math.log2(math.comb(n, r)) + (g - 1) * cost + sum(x * math.log2(p) for p, x in exps)
    # Float error: each c_d is off by under 2^-47 (1 + |c_d|) (sin is well
    # conditioned on (0, pi/2]), |c_d| <= 2 log2 n, and a row sums <= n/2
    # products whose counts h_d add up to C(r, 2), so top is off by under
    # e (n + 2)(1 + 2 log2 n) 2^-47, with room to spare for the roundings of
    # the logs and sums above.  log2 D = sum E_p log2 p <= 2 e log2 n (E_p <=
    # 2 e, prod p <= n) is off by under a quarter of its term 2 e log2 n 2^-47.
    # top and log2 D nearly cancel at large g and small k while this error
    # grows like e, so it is added in full; one margin bit more covers the
    # factor 2, one the + 1.
    err = e * ((n + 2) * (1 + 2 * math.log2(n)) + 2 * math.log2(n)) * 2.0**-47
    return exps, math.ceil(log_bound + err) + 2


# n -> the primes p = 1 (mod n) found so far, descending; kept for the process.
_PRIME_RUNS: dict[int, list[int]] = {}
_PRIME_RUNS_LOCK = threading.Lock()


def _crt_primes(n: int, bits: int) -> tuple[int, ...]:
    # The fewest primes p = 1 (mod n) whose product passes 2^bits: the shortest
    # such prefix of n's list, which is searched further, below its last
    # prime, only when none is.  An interrupted search keeps what it found.
    with _PRIME_RUNS_LOCK:
        run = _PRIME_RUNS.setdefault(n, [])
        modulus = 1
        for i, p in enumerate(run):
            modulus *= p
            if modulus.bit_length() > bits:
                return tuple(run[: i + 1])
        for p in _primes_one_mod(n, run[-1] if run else 2**31):
            run.append(p)
            modulus *= p
            if modulus.bit_length() > bits:
                return tuple(run)
    raise HypothesisError(
        f"the primes p = 1 (mod {n}) below 2^31 are too few to recover "
        f"the value; n = r + k = {n} is too large"
    )


def orbit_price(n: int, r: int) -> int:
    """Work units of a residue sum before its first orbit.

    About C(n, r) / n orbits, each C(r, 2) pair differences and n/2 + 1
    histogram cells.  `_v_modular` charges it against RESIDUE_BUDGET, and
    `splitting.multiplicity` charges the sum over its terms before the first.
    """
    return -(-math.comb(n, r) // n) * (r * (r - 1) // 2 + n // 2 + 1)


def crt_price(n: int, r: int, g: int, bits: int) -> int:
    """Work units of a residue sum's CRT tail, about 25 ns each.

    At most bits // 30 + 1 primes (while above 2^30), 5 000 units each for
    search, root and column pass, and 2 x primes x modulus words for Garner;
    the final Fraction and its decimal string, words^2 / 16 over the value's
    30-bit words (bits + r(g-1) log2 n bits at most)."""
    primes = bits // 30 + 1
    words = math.ceil((bits + r * (g - 1) * math.log2(n)) / 30)
    return primes * (5_000 + 2 * primes) + words * words // 16


def _column_table(s: int, g: int, r: int, p: int) -> np.ndarray:
    # T[h] = s^{(1-g) h} mod p for h = 0..r (s a unit mod p), by running products.
    powers = itertools.accumulate([pow(s, 1 - g, p)] * r, lambda x, y: x * y % p, initial=1)
    return np.array(list(powers))


def _v_modular(n: int, r: int, g: int) -> Fraction:
    """Orbit sum via residues mod primes p = 1 (mod n), reconstructed by CRT."""
    _crt_primes(n, 0)  # refuse at once when there is no such prime at all (memoised per n)
    what = f"the residue sum over C({n}, {r}) = {math.comb(n, r)} subsets needs"
    check_price(orbit_price(n, r), RESIDUE_BUDGET, f"{what} orbits x (pairs + cells)")
    # Columns no row uses multiply every term by T[0] = 1; they are skipped.
    hist, weights, cols, tops, cost = _distinct_histograms(n, r)
    exps, bits = _crt_bound(n, r, g, tops, cost)
    tail = f"{what} primes x (search + Garner) + words^2 / 16 for {bits} CRT bits"
    check_price(crt_price(n, r, g, bits), CRT_BUDGET, tail)
    denom = math.prod(p**x for p, x in exps)
    primes = _crt_primes(n, bits)
    # Before the first prime: one gather per distinct row, used column and prime.
    gathers = len(primes) * len(hist) * len(cols)
    check_price(gathers, RESIDUE_BUDGET, f"{what} primes x rows x columns")
    total, mod = 0, 1
    for p in primes:
        w = _root_of_order(n, p)
        acc = weights % p * (denom % p) % p  # residues of sum * denom
        for d in cols:
            # Gather from T[h] = s_d^{(1-g) h} mod p, one column per d.
            table = _column_table((2 - pow(w, d, p) - pow(w, n - d, p)) % p, g, r, p)
            acc = acc * table.take(hist[:, d]) % p
        # CRT (Garner): fold the residue mod p into total mod the product.
        total += mod * ((int(acc.sum()) - total) * pow(mod % p, -1, p) % p)
        mod *= p
    total %= mod
    if total > mod // 2:
        total -= mod
    return Fraction(n) ** (r * (g - 1)) * Fraction(total, denom)


def _v_exact(n: int, r: int, g: int) -> Fraction:
    """Orbit sum in exact cyclotomic arithmetic; reference oracle only."""
    total = subset_sum(n, g, necklace_orbits(n, r))
    return Fraction(n) ** (r * (g - 1)) * extract_rational(total)


@lru_cache(maxsize=None)
def _v_number_cached(g: int, r: int, k: int) -> Fraction:
    n = r + k
    if g == 1:
        # Every subset term is 1 and the prefactor exponent is zero.  comb and
        # str take words^2 units; the bits come from the entropy bound, which,
        # unlike a difference of lgammas, does not cancel at huge n.
        m = min(r, k)
        bits = m and m * math.log2(n / m) - (n - m) * math.log1p(-m / n) / math.log(2)
        words = math.ceil(bits / 30)
        what = f"the genus-1 value C({n}, {r}) needs words^2 for {math.ceil(bits)} bits"
        check_price(words * words, CRT_BUDGET, what)
        return Fraction(math.comb(n, r))
    return _v_modular(n, r, g)


def v_number(q: VerlindeQuery) -> Fraction:
    """The Verlinde number v_g(r, k) as an exact Rational."""
    return _v_number_cached(q.g, q.r, q.k)


def v_number_float(q: VerlindeQuery) -> float:
    """v_g(r, k) rounded to the nearest float; inf past the float range."""
    try:
        return float(v_number(q))
    except OverflowError:
        return math.inf


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
