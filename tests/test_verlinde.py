"""Verlinde numbers: frozen oracle table, symmetry, orbit reduction, paths."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacalc import verlinde
from thetacalc.exactnum import (
    ConsistencyError,
    CycNum,
    HypothesisError,
    euler_phi,
    extract_rational,
    factorize,
    sine_square,
)
from thetacalc.verlinde import (
    SubsetS,
    VerlindeQuery,
    _column_table,
    _crt_bound,
    _crt_primes,
    _distinct_histograms,
    _is_prime,
    _merge_histograms,
    _primes_one_mod,
    _root_of_order,
    _v_exact,
    _v_modular,
    all_subsets,
    check_level_rank_symmetry,
    necklace_orbits,
    subset_sum,
    v_number,
    v_number_float,
    verlinde_dim,
)

from oracles import v_float

# Frozen oracle: dimensions computed by an independent high-precision float
# sum over all subsets (no orbit reduction, no shared code), generated before
# this package existed and spot-checked by hand against known values
# (level-1 dimensions are r^g, rank-1 dimensions are 1, genus-1 dimensions
# are binomial ratios).
DIM_TABLE = {
    (1, 1, 1): 1,
    (1, 1, 2): 1,
    (1, 2, 1): 2,
    (1, 1, 3): 1,
    (1, 2, 2): 3,
    (1, 3, 1): 3,
    (1, 1, 4): 1,
    (1, 2, 3): 4,
    (1, 3, 2): 6,
    (1, 4, 1): 4,
    (1, 1, 5): 1,
    (1, 2, 4): 5,
    (1, 3, 3): 10,
    (1, 4, 2): 10,
    (1, 5, 1): 5,
    (1, 1, 6): 1,
    (1, 2, 5): 6,
    (1, 3, 4): 15,
    (1, 4, 3): 20,
    (1, 5, 2): 15,
    (1, 6, 1): 6,
    (1, 1, 7): 1,
    (1, 2, 6): 7,
    (1, 3, 5): 21,
    (1, 4, 4): 35,
    (1, 5, 3): 35,
    (1, 6, 2): 21,
    (1, 7, 1): 7,
    (2, 1, 1): 1,
    (2, 1, 2): 1,
    (2, 2, 1): 4,
    (2, 1, 3): 1,
    (2, 2, 2): 10,
    (2, 3, 1): 9,
    (2, 1, 4): 1,
    (2, 2, 3): 20,
    (2, 3, 2): 45,
    (2, 4, 1): 16,
    (2, 1, 5): 1,
    (2, 2, 4): 35,
    (2, 3, 3): 166,
    (2, 4, 2): 140,
    (2, 5, 1): 25,
    (2, 1, 6): 1,
    (2, 2, 5): 56,
    (2, 3, 4): 504,
    (2, 4, 3): 896,
    (2, 5, 2): 350,
    (2, 6, 1): 36,
    (2, 1, 7): 1,
    (2, 2, 6): 84,
    (2, 3, 5): 1332,
    (2, 4, 4): 4680,
    (2, 5, 3): 3700,
    (2, 6, 2): 756,
    (2, 7, 1): 49,
    (3, 1, 1): 1,
    (3, 1, 2): 1,
    (3, 2, 1): 8,
    (3, 1, 3): 1,
    (3, 2, 2): 36,
    (3, 3, 1): 27,
    (3, 1, 4): 1,
    (3, 2, 3): 120,
    (3, 3, 2): 405,
    (3, 4, 1): 64,
    (3, 1, 5): 1,
    (3, 2, 4): 329,
    (3, 3, 3): 4390,
    (3, 4, 2): 2632,
    (3, 5, 1): 125,
    (3, 1, 6): 1,
    (3, 2, 5): 784,
    (3, 3, 4): 37044,
    (3, 4, 3): 87808,
    (3, 5, 2): 12250,
    (3, 6, 1): 216,
    (3, 1, 7): 1,
    (3, 2, 6): 1680,
    (3, 3, 5): 252720,
    (3, 4, 4): 2361408,
    (3, 5, 3): 1170000,
    (3, 6, 2): 45360,
    (3, 7, 1): 343,
    (4, 1, 1): 1,
    (4, 1, 2): 1,
    (4, 2, 1): 16,
    (4, 1, 3): 1,
    (4, 2, 2): 136,
    (4, 3, 1): 81,
    (4, 1, 4): 1,
    (4, 2, 3): 800,
    (4, 3, 2): 4050,
    (4, 4, 1): 256,
    (4, 1, 5): 1,
    (4, 2, 4): 3611,
    (4, 3, 3): 144406,
    (4, 4, 2): 57776,
    (4, 5, 1): 625,
    (4, 1, 6): 1,
    (4, 2, 5): 13328,
    (4, 3, 4): 3639573,
    (4, 4, 3): 11502848,
    (4, 5, 2): 520625,
    (4, 6, 1): 1296,
    (4, 1, 7): 1,
    (4, 2, 6): 42048,
    (4, 3, 5): 66443328,
    (4, 4, 4): 1673593344,
    (4, 5, 3): 512680000,
    (4, 6, 2): 3405888,
    (4, 7, 1): 2401,
}


def test_frozen_dimension_table():
    for (g, r, k), dim in DIM_TABLE.items():
        assert verlinde_dim(VerlindeQuery(g, r, k)) == dim


def test_worked_values():
    assert v_number(VerlindeQuery(2, 2, 1)) == 9
    assert verlinde_dim(VerlindeQuery(2, 2, 1)) == 4
    assert verlinde_dim(VerlindeQuery(1, 2, 1)) == 2
    for g in range(1, 7):
        assert v_number(VerlindeQuery(g, 1, 1)) == 2**g


def test_rank_one_dimensions_are_one():
    for g in range(1, 5):
        for k in range(0, 8):
            assert verlinde_dim(VerlindeQuery(g, 1, k)) == 1


def test_level_zero_is_admitted_and_one_dimensional():
    for g in range(1, 4):
        for r in range(1, 5):
            assert verlinde_dim(VerlindeQuery(g, r, 0)) == 1


def test_genus_one_closed_form():
    for n in range(2, 17):
        for r in range(1, n):
            assert v_number(VerlindeQuery(1, r, n - r)) == math.comb(n, r)


def test_query_validation():
    with pytest.raises(HypothesisError):
        VerlindeQuery(0, 2, 1)
    with pytest.raises(HypothesisError):
        VerlindeQuery(1, 0, 1)
    with pytest.raises(HypothesisError):
        VerlindeQuery(1, 2, -1)


def test_subset_validation():
    with pytest.raises(ValueError):
        SubsetS(5, (3, 2))
    with pytest.raises(ValueError):
        SubsetS(5, (0, 2))
    with pytest.raises(ValueError):
        SubsetS(5, (2, 6))


def test_subset_term_examples():
    one = CycNum.from_rational(7, 1)
    assert subset_sum(7, 5, [((1,), 1)]) == one
    # {1,2} in {1,2,3}: 4 sin^2(pi/3) = 3, exponent -1 at genus 2.
    term = subset_sum(3, 2, [((1, 2), 1)])
    assert extract_rational(term) == Fraction(1, 3)
    assert subset_sum(3, 1, [((1, 2), 1)]) == CycNum.from_rational(3, 1)


def test_subset_term_translation_invariance():
    for n, r, g in [(7, 3, 2), (8, 4, 3), (9, 3, 2), (10, 4, 2)]:
        for S in itertools.islice(all_subsets(n, r), 25):
            shifted = tuple(sorted((m % n) + 1 for m in S.members))
            assert subset_sum(n, g, [(S.members, 1)]) == subset_sum(n, g, [(shifted, 1)])


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_subset_term_translation_invariance_random(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    r = data.draw(st.integers(min_value=1, max_value=n))
    g = data.draw(st.integers(min_value=1, max_value=4))
    t = data.draw(st.integers(min_value=1, max_value=n - 1))
    members = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=1, max_value=n), min_size=r, max_size=r)
    )))
    shifted = tuple(sorted((m + t - 1) % n + 1 for m in members))
    assert subset_sum(n, g, [(members, 1)]) == subset_sum(n, g, [(shifted, 1)])


def _assert_orbits_partition_subsets(n_max):
    for n in range(1, n_max + 1):
        for r in range(0, n + 1):
            seen = set()
            total = 0
            for members, weight in necklace_orbits(n, r):
                orbit = {
                    tuple(sorted((m + t - 1) % n + 1 for m in members))
                    for t in range(n)
                }
                assert len(orbit) == weight
                assert not (orbit & seen)
                seen |= orbit
                total += weight
            assert total == math.comb(n, r)
            assert seen == {S.members for S in all_subsets(n, r)}


def test_necklace_orbits_partition_all_subsets():
    _assert_orbits_partition_subsets(12)


def test_orbit_reduction_matches_plain_enumeration():
    # The machinery behind the g = 1 binomial shortcut, tested honestly:
    # full enumeration, orbit-weighted enumeration, and C(n, r) all agree.
    for n in range(2, 11):
        for r in range(1, n):
            plain = sum(1 for _ in all_subsets(n, r))
            weighted = sum(w for _, w in necklace_orbits(n, r))
            assert plain == weighted == math.comb(n, r)


EXACT_MODULAR_CASES = [(9, 3, 2), (10, 4, 3), (11, 4, 2), (12, 5, 2), (8, 4, 5)]
# n = 1 and n = r (rank 1 or level 0) exercise the trivial root of unity
# and the single full-set orbit.
EXACT_MODULAR_CASES += [(1, 1, 2), (1, 1, 5), (2, 2, 3), (3, 3, 2)]
# A prime and a composite conductor where mirror-image orbits share a
# difference histogram, so merged rows meet the oracle.
EXACT_MODULAR_CASES += [(13, 6, 3), (14, 7, 2)]
# A prime and a composite conductor at g = 2 and g >= 20, where the column
# tables' negative power and running products differ most from plain powers.
EXACT_MODULAR_CASES += [(7, 3, 2), (7, 3, 25), (8, 3, 2), (8, 3, 30), (7, 2, 40), (8, 5, 30)]


def test_exact_and_modular_paths_agree():
    for n, r, g in EXACT_MODULAR_CASES:
        assert _v_exact(n, r, g) == _v_modular(n, r, g)


@pytest.mark.parametrize("chunk", [1, 3])
def test_blocks_smaller_than_the_frontier(monkeypatch, chunk):
    # Every case above fits in one block of the default size; tiny blocks
    # make the enumerator expand in pieces and the histogram merge span
    # blocks.
    monkeypatch.setattr(verlinde, "_CHUNK", chunk)
    # Histograms cached by earlier tests would skip the merge across blocks.
    monkeypatch.setattr(verlinde, "_HISTOGRAMS", OrderedDict())
    for members, _ in verlinde._necklace_blocks(10, 4):
        assert len(members) <= chunk
    _assert_orbits_partition_subsets(10)
    for n, r, g in EXACT_MODULAR_CASES:
        if n <= 10:
            assert _v_exact(n, r, g) == _v_modular(n, r, g)


def _v_modular_in_a_fresh_process(n, r, g):
    # (value as printed, peak RSS in kB) of one call in a new interpreter.
    # The peak is VmHWM, the high-water mark of the child's own memory map:
    # after exec, ru_maxrss still holds the RSS of the process that forked
    # it, here the test runner's (90-95 MB late in the suite).
    code = (
        "from thetacalc.verlinde import _v_modular\n"
        f"value = _v_modular({n}, {r}, {g})\n"
        "with open('/proc/self/status') as f:\n"
        "    status = f.read().split()\n"
        "print(value, status[status.index('VmHWM:') + 1])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(verlinde.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    value, peak_kb = out.split()
    return value, int(peak_kb)


def test_wide_rows_keep_the_enumerator_frontier_small():
    # v_2(46, 5): about 46 000 orbits whose rows cost C(46, 2) + 26 cells.
    # Blocks sized in cells hold each of the 46 enumerator levels to about
    # one block; blocks of 2^15 rows at every level peaked at 250 MB here.
    value, peak_kb = _v_modular_in_a_fresh_process(51, 46, 2)
    assert value == "390959316812916605374488"
    assert peak_kb < 120 * 1024


def test_many_orbits_keep_the_merge_near_the_distinct_rows():
    # v_2(9, 23): 876 525 orbits fold into 418 881 distinct rows.  Keeping
    # every orbit's row until one final sort peaked at 106-110 MB; folding
    # packed rows as they come peaks near 62 MB.
    value, peak_kb = _v_modular_in_a_fresh_process(32, 9, 2)
    assert value == "210441212536512151382511021128155136"
    assert peak_kb < 80 * 1024


@pytest.mark.parametrize(
    "n, r, chunk",
    [(12, 5, 64), (25, 9, 4096), (51, 46, 1 << 19), (30, 3, 64), (64, 3, 256), (20, 1, 16)],
)
def test_streamed_merge_equals_one_shot_merge(monkeypatch, n, r, chunk):
    # At the default block size the first three fold their rows at most
    # twice; small blocks cut them into many slices and folds.  (51, 46)
    # packs a row into three words and (64, 3) into two; rank 1 packs none.
    one_shot = _merge_histograms(n, r)
    fold, folds = verlinde._fold, []

    def counted_fold(parts):
        folds.append(len(parts))
        fold(parts)

    monkeypatch.setattr(verlinde, "_fold", counted_fold)
    monkeypatch.setattr(verlinde, "_CHUNK", chunk)
    streamed = hist, weights, cols, *_ = _merge_histograms(n, r)
    assert len(folds) >= (3 if r > 1 else 1)
    for new, old in zip(streamed[:2], one_shot[:2]):
        assert new.dtype == old.dtype and np.array_equal(new, old)
    assert streamed[2:] == one_shot[2:]
    rows = hist[:, cols].tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert int(weights.sum()) == math.comb(n, r)


@pytest.mark.parametrize("n, dtype", [(2**15 - 1, np.int16), (2**15 + 1, np.int32)])
def test_enumerator_takes_the_narrowest_type_that_holds_n(n, dtype):
    total = 0
    for members, weights in verlinde._necklace_blocks(n, 2):
        assert members.dtype == dtype and weights.dtype == np.int64
        assert (1 <= members[:, 0]).all() and (members[:, 0] < members[:, 1]).all()
        assert (members[:, 1] <= n).all()
        total += int(weights.sum())
    assert total == math.comb(n, 2)
    orbits = list(necklace_orbits(n, 2))
    assert all(type(x) is int for members, size in orbits for x in (*members, size))
    assert sum(size for _, size in orbits) == math.comb(n, 2)


def test_mirror_orbits_share_histograms():
    for n, r in [(13, 6), (14, 7)]:
        hist, weights, *_ = _distinct_histograms(n, r)
        assert len(hist) < sum(1 for _ in necklace_orbits(n, r))
        assert int(weights.sum()) == math.comb(n, r)


@pytest.fixture
def empty_histogram_cache(monkeypatch):
    monkeypatch.setattr(verlinde, "_HISTOGRAMS", OrderedDict())
    return verlinde._HISTOGRAMS


def _cached_cells(cache):
    return sum(hist.size + weights.size for hist, weights, *_ in cache.values())


def test_histograms_are_merged_once_per_n_and_r(monkeypatch, empty_histogram_cache):
    exact = {g: _v_exact(11, 4, g) for g in (2, 3, 5)}
    first = _distinct_histograms(11, 4)

    def no_orbits(*args):
        raise AssertionError("enumerated the orbits of a cached (n, r) again")

    monkeypatch.setattr(verlinde, "_necklace_blocks", no_orbits)
    assert _distinct_histograms(11, 4) is first
    # Every genus reads the same rows.
    for g, value in exact.items():
        assert _v_modular(11, 4, g) == value


def test_cached_histograms_are_read_only(empty_histogram_cache):
    hist, weights, *_ = _distinct_histograms(12, 5)
    assert not hist.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        hist[0, 1] = 0
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 0


def test_histogram_cache_holds_at_most_chunk_cells(monkeypatch, empty_histogram_cache):
    # Cells per entry (hist.size + weights.size): (9, 3) 42, (10, 4) 112,
    # (11, 4) 140, (12, 5) 280, (13, 6) 592.
    cache = empty_histogram_cache
    monkeypatch.setattr(verlinde, "_CHUNK", 400)
    for n, r in [(10, 4), (11, 4), (9, 3), (10, 4)]:
        _distinct_histograms(n, r)
    assert list(cache) == [(11, 4), (9, 3), (10, 4)]
    assert _cached_cells(cache) == 294
    # The least recently used go first, until the new entry fits.
    _distinct_histograms(12, 5)
    assert list(cache) == [(10, 4), (12, 5)]
    assert _cached_cells(cache) == 392
    # An entry over the bound is returned but not kept, and evicts nothing.
    hist, weights, *_ = _distinct_histograms(13, 6)
    assert hist.size + weights.size == 592 and hist.flags.writeable
    assert list(cache) == [(10, 4), (12, 5)]


def test_level_rank_check_caches_both_sides(empty_histogram_cache):
    # The key is the subset size as called: v_g(4, 7) and v_g(7, 4) are two
    # enumerations over Z/11, so the check compares two computations.
    verlinde._v_number_cached.cache_clear()
    assert check_level_rank_symmetry(3, 4, 7)
    assert set(empty_histogram_cache) == {(11, 4), (11, 7)}


def test_prices_are_charged_on_cached_histograms(monkeypatch, empty_histogram_cache):
    # A refusal never depends on what an earlier call left in the cache.
    assert _v_modular(12, 3, 2) == _v_exact(12, 3, 2)
    assert (12, 3) in empty_histogram_cache
    monkeypatch.setattr(verlinde, "RESIDUE_BUDGET", verlinde.orbit_price(12, 3) - 1)
    with pytest.raises(HypothesisError, match="orbits x"):
        _v_modular(12, 3, 2)
    monkeypatch.setattr(verlinde, "RESIDUE_BUDGET", 1000)
    with pytest.raises(HypothesisError, match="primes x rows x columns"):
        _v_modular(12, 3, 200)


def test_prime_test_agrees_with_trial_division():
    def by_division(m):
        return m > 1 and all(m % q for q in range(2, math.isqrt(m) + 1))

    # Strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5, then primes
    # and composites just below 2^31, where the candidates lie.
    tricky = [2047, 1373653, 25326001, 2**31 - 1, 2**31 - 3, 2**31 - 19, 2**31 - 61]
    for m in list(range(-1, 5000)) + tricky:
        assert _is_prime(m) == by_division(m), m


def _fresh_crt_primes(n, bits):
    # The fewest primes of a new descending search whose product passes 2^bits.
    primes, modulus = [], 1
    for p in _primes_one_mod(n):
        primes.append(p)
        modulus *= p
        if modulus.bit_length() > bits:
            return tuple(primes)
    raise AssertionError("ran out of primes")


@pytest.mark.parametrize("n", [7, 12])
def test_crt_primes_are_minimal_prefixes_of_one_run(monkeypatch, n):
    monkeypatch.setattr(verlinde, "_PRIME_RUNS", {})
    longest = ()
    # Rising, falling and repeated bit counts, from one stored run.
    for bits in [40, 200, 100, 100, 0, 31, 62, 500, 61, 500, 1]:
        primes = _crt_primes(n, bits)
        assert primes == _fresh_crt_primes(n, bits), bits
        assert math.prod(primes).bit_length() > bits
        # Minimal; at bits = 0 (the existence probe) it is one prime.
        assert math.prod(primes[:-1]).bit_length() <= max(bits, 1)
        run = tuple(verlinde._PRIME_RUNS[n])
        assert run[: len(primes)] == primes and run[: len(longest)] == longest
        longest = max(longest, primes, key=len)
    assert list(run) == sorted(run, reverse=True)
    assert all(p % n == 1 and _is_prime(p) for p in run)
    # The run grew only as far as the largest bit count asked for.
    assert run == longest


def test_an_interrupted_draw_keeps_no_spent_run(monkeypatch):
    monkeypatch.setattr(verlinde, "_PRIME_RUNS", {})
    search = verlinde._primes_one_mod

    def interrupted(*args):
        # Ctrl-C arrives while the second new prime is being searched for.
        found = search(*args)
        yield next(found)
        raise KeyboardInterrupt

    assert _crt_primes(11, 40) == _fresh_crt_primes(11, 40)  # two primes
    monkeypatch.setattr(verlinde, "_primes_one_mod", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _crt_primes(11, 200)
    monkeypatch.setattr(verlinde, "_primes_one_mod", search)
    for bits in [300, 40, 100, 0, 500, 61]:
        assert _crt_primes(11, bits) == _fresh_crt_primes(11, bits), bits


def test_threads_drawing_a_new_run_get_the_same_primes(monkeypatch):
    monkeypatch.setattr(verlinde, "_PRIME_RUNS", {})
    search = verlinde._primes_one_mod

    def slow_search(*args):
        # A pause between draws gives the other thread room to interleave.
        for p in search(*args):
            time.sleep(0.001)
            yield p

    monkeypatch.setattr(verlinde, "_primes_one_mod", slow_search)
    barrier, results = threading.Barrier(2), [None, None]

    def draw(i):
        barrier.wait()
        results[i] = _crt_primes(9, 300)

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results[0] == results[1] == _fresh_crt_primes(9, 300)


def test_roots_of_unity_have_exact_order():
    for n in range(1, 25):
        for p in _crt_primes(n, 100):
            w = _root_of_order(n, p)
            powers = [pow(w, e, p) for e in range(1, n + 1)]
            assert powers.index(1) == n - 1, (n, p)
            assert _root_of_order(n, p) == w


def test_column_tables_match_plain_powers():
    # The table starts from the negative power s^(1-g) and runs products;
    # the plain form raises s to (1-g) mod (p-1), then to each h.
    for n in (3, 5, 7, 8, 12):
        for p in _crt_primes(n, 100):
            w = _root_of_order(n, p)
            for g in (2, 3, 25, 1000, 10**6):
                for d in range(1, n // 2 + 1):
                    s = (2 - pow(w, d, p) - pow(w, n - d, p)) % p
                    base = pow(s, (1 - g) % (p - 1), p)
                    table = _column_table(s, g, n, p)
                    assert table.tolist() == [pow(base, h, p) for h in range(n + 1)]


def _assert_modulus_covers(n, r, g):
    # D divides the old clearing factor n^{2e}, the orbit sum times D is an
    # integer, and the CRT modulus recovers it with its sign.
    exps, bits = _crt_bound(n, r, g, *_distinct_histograms(n, r)[3:])
    modulus = math.prod(_crt_primes(n, bits))
    denom = math.prod(p**x for p, x in exps)
    e = (g - 1) * math.comb(r, 2)
    assert n ** (2 * e) % denom == 0, (g, n, r)
    scaled = _v_exact(n, r, g) / Fraction(n) ** (r * (g - 1)) * denom
    assert scaled.denominator == 1, (g, n, r)
    assert modulus > 2 * abs(scaled) + 1, (g, n, r)


def test_crt_modulus_covers_the_value_and_beats_the_worst_case():
    for g in range(1, 5):
        for n in range(1, 13):
            for r in range(1, n + 1):
                _assert_modulus_covers(n, r, g)
    # The worst-case bound it replaces: |sum| <= C(n, r) (n^2/16)^e, from
    # 4 sin^2(pi/n) >= 16/n^2.
    n, r, g = 25, 9, 2
    e = (g - 1) * math.comb(r, 2)
    mag = Fraction(n * n, 16) ** e
    bound = math.comb(n, r) * (mag.numerator // mag.denominator + 1) * n ** (2 * e)
    old, modulus = 0, 1
    for p in _primes_one_mod(n):
        if modulus > 2 * bound + 1:
            break
        old, modulus = old + 1, modulus * p
    _, bits = _crt_bound(n, r, g, *_distinct_histograms(n, r)[3:])
    assert len(_crt_primes(n, bits)) < old


LARGE_GENUS_SMALL_LEVEL = [(3, 2), (4, 2), (4, 3), (5, 3), (6, 3), (6, 2)]


def test_large_genus_small_level_keeps_the_modulus_rigorous():
    # At large g and small k the sine powers nearly cancel log2 D in the
    # bit count while its float error grows with e = (g-1) C(r, 2).
    for n, r in LARGE_GENUS_SMALL_LEVEL:
        for g in (17, 60, 151):
            _assert_modulus_covers(n, r, g)
            assert _v_modular(n, r, g) == _v_exact(n, r, g), (g, n, r)


def _clearing_denominator_by_rows(n, g, hist, cols):
    # The bound as it read every row on every call: [(p, E_p)].
    out = []
    for p, phi, weight in verlinde._valuation_weights(n):
        used = (weight[d] * hist[:, d].astype(np.int64) for d in cols if d in weight)
        top = (g - 1) * int(sum(used, np.zeros(len(hist), np.int64)).max())
        out.append((p, -(-top // phi)))
    return out


def _modulus_bits_by_rows(n, r, g, hist, cols, exps):
    cost = {d: -math.log2(4 * math.sin(math.pi * d / n) ** 2) for d in cols}
    e = (g - 1) * (r * (r - 1) // 2)
    rows = sum((hist[:, d] * c for d, c in cost.items()), np.zeros(len(hist)))
    top = (g - 1) * float(rows.max())
    log_bound = math.log2(math.comb(n, r)) + top + sum(x * math.log2(p) for p, x in exps)
    err = e * ((n + 2) * (1 + 2 * math.log2(n)) + 2 * math.log2(n)) * 2.0**-47
    return math.ceil(log_bound + err) + 2


def test_stored_row_maxima_give_the_bound_of_the_rows(empty_histogram_cache):
    # The maxima kept with the rows give the same exponents and bits as the
    # rows read again for each genus, from a fresh merge and from the cache.
    cases = [(n, r, g) for n in range(2, 17) for r in range(1, n) for g in range(2, 6)]
    cases += [(n, r, g) for n, r in LARGE_GENUS_SMALL_LEVEL for g in (17, 60, 151, 1000, 20000)]
    for n, r, g in cases:
        fresh = _merge_histograms(n, r)
        cached = _distinct_histograms(n, r)
        assert _distinct_histograms(n, r) is cached
        hist, _, cols, *_ = fresh
        exps = _clearing_denominator_by_rows(n, g, hist, cols)
        expected = exps, _modulus_bits_by_rows(n, r, g, hist, cols, exps)
        assert _crt_bound(n, r, g, *fresh[3:]) == expected, (n, r, g)
        assert _crt_bound(n, r, g, *cached[3:]) == expected, (n, r, g)


def test_denominator_clears_every_term_and_no_more():
    # The sum can be more integral than its terms (for v_2(2, 3) it is
    # 5 / s_1 + 5 / s_2 = 5, though 1 / s_1 is not integral), so D is checked
    # against each orbit's term: term * D is integral, and for each p | D
    # some term * D / p is not.
    for g in (2, 3):
        for n in range(2, 13):
            for r in range(2, n):
                exps, _ = _crt_bound(n, r, g, *_distinct_histograms(n, r)[3:])
                denom = math.prod(p**x for p, x in exps)
                terms = []
                for members, _ in necklace_orbits(n, r):
                    term = CycNum.from_rational(n, 1)
                    for d, mult in verlinde._difference_multiset(members, n).items():
                        term = term * sine_square(n, d) ** ((1 - g) * mult)
                    terms.append(term)
                assert all((t * denom).den == 1 for t in terms), (g, n, r)
                for p, _ in factorize(denom):
                    assert any((t * Fraction(denom, p)).den != 1 for t in terms), (g, n, r, p)


def test_sine_squares_are_units_or_divide_p_squared():
    # The lemma behind D: with m = n / gcd(n, d), s_d = 2 - zeta^d - zeta^{-d}
    # is a unit unless m is a prime power p^a, and then s_d^{phi(m)} is p^2
    # times a unit.  Integral means integer power-basis coordinates.
    for n in range(2, 41):
        for d in range(1, n // 2 + 1):
            m = n // math.gcd(n, d)
            if len(factorize(m)) > 1:
                assert (sine_square(n, d) ** -1).den == 1, (n, d)
                continue
            ((p, _),) = factorize(m)
            x = sine_square(n, d) ** -euler_phi(m) * (p * p)
            assert x.den == 1 and x.inverse().den == 1, (n, d)


def test_paths_agree_with_plain_subset_sum():
    for n, r, g in [(7, 3, 2), (8, 3, 3), (9, 4, 2)]:
        total = CycNum.from_rational(n, 0)
        for S in all_subsets(n, r):
            total = total + subset_sum(n, g, [(S.members, 1)])
        brute = Fraction(n) ** (r * (g - 1)) * extract_rational(total)
        assert brute == _v_exact(n, r, g)
        assert brute == _v_modular(n, r, g)


def test_symmetry_and_integrality_sweep():
    for g in range(1, 5):
        for n in range(2, 11):
            for r in range(1, n):
                q = VerlindeQuery(g, r, n - r)
                assert verlinde_dim(q) > 0
                if r != n - r:
                    assert check_level_rank_symmetry(g, r, n - r)


def test_symmetry_worked_pairs():
    assert v_number(VerlindeQuery(2, 2, 1)) == v_number(VerlindeQuery(2, 1, 2)) == 9
    assert check_level_rank_symmetry(3, 3, 2)


def test_symmetry_requires_positive_level():
    with pytest.raises(HypothesisError):
        check_level_rank_symmetry(2, 3, 0)


def test_float_agreement():
    for g in range(1, 5):
        for n in range(2, 9):
            for r in range(1, n):
                exact = float(v_number(VerlindeQuery(g, r, n - r)))
                approx = float(v_float(n, r, g))
                assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))


def test_float_value_rounds_the_exact_value():
    q = VerlindeQuery(2, 9, 16)
    assert v_number_float(q) == float(v_number(q))
    # v_200(4, 4) is past the float range: float(Fraction) would raise.
    assert v_number_float(VerlindeQuery(200, 4, 4)) == math.inf


def test_v_number_is_memoized():
    q = VerlindeQuery(3, 4, 4)
    assert v_number(q) is v_number(q)


def test_int32_indices_hold_past_two_to_the_fifteen():
    # Members, gaps and pair differences are int32 and orbit sizes int64;
    # at n = 40 000 the folded differences run past 2^15.
    n = 40_000
    folded, total = [], 0
    for members, weights in verlinde._necklace_blocks(n, 2):
        delta = members[:, 1] - members[:, 0]
        folded += np.minimum(delta, n - delta).tolist()
        total += int(weights.sum())
    assert total == math.comb(n, 2)
    assert sorted(folded) == list(range(1, n // 2 + 1))
    k = 39_999
    assert v_number(VerlindeQuery(2, 1, k)) == (k + 1) ** 2


def test_wide_rank_one_sum_skips_the_unused_columns():
    # Rank 1 has no pair differences, so its one histogram row is all zero:
    # none of its n/2 columns is gathered, and no sine power is taken.
    start = time.perf_counter()
    assert v_number(VerlindeQuery(2, 1, 999_999)) == 10**12
    assert time.perf_counter() - start < 1.0
    assert _distinct_histograms(10**6, 1)[2] == []


def test_wide_rank_two_sum_matches_the_float_oracle():
    # Rank 2 at n = 4099: 2049 distinct rows of 2050 histogram cells.  The
    # residue price grows as n^2 / 4 here, so n > 2^15 (2.7e8 units)
    # refuses before the first orbit.
    n = 4099
    exact = _v_modular(n, 2, 2)
    assert abs(float(v_float(n, 2, 2)) - float(exact)) <= 1e-9 * float(exact)
    with pytest.raises(HypothesisError, match="orbits x"):
        _v_modular(2**15 + 3, 2, 2)


def test_residue_price_refuses_before_the_first_orbit(monkeypatch):
    # C(40, 12) = 5.6e9 subsets would take hours; the price is known up front.
    def no_orbits(*args):
        raise AssertionError("enumerated orbits past the budget")

    monkeypatch.setattr(verlinde, "_necklace_blocks", no_orbits)
    with pytest.raises(HypothesisError, match="C\\(40, 12\\) = 5586853480 subsets"):
        _v_modular(40, 12, 2)


def test_residue_price_counts_the_primes(monkeypatch):
    # Genus 200 needs about 80 primes where genus 2 needs 2: the second
    # price, once the primes are known, refuses before the first of them.
    monkeypatch.setattr(verlinde, "RESIDUE_BUDGET", 1000)
    assert _v_modular(12, 3, 2) == _v_exact(12, 3, 2)
    with pytest.raises(HypothesisError, match="primes x rows x columns"):
        _v_modular(12, 3, 200)


def test_crt_tail_is_priced_before_the_first_prime(monkeypatch):
    # The modulus bits and the prefactor exponent r(g - 1) fix the CRT tail's
    # price: v_50000(2, 3) needs about 1 160 primes, and none is drawn.
    n, r, g = 5, 2, 50_000
    _, bits = _crt_bound(n, r, g, *_distinct_histograms(n, r)[3:])
    price = verlinde.crt_price(n, r, g, bits)
    assert price > verlinde.crt_price(n, r, g // 2, bits // 2) > 0
    # A fresh run for n: the existence probe draws its one prime before any
    # price, and nothing may draw past it.
    monkeypatch.setattr(verlinde, "_PRIME_RUNS", {})
    _crt_primes(n, 0)
    run = verlinde._PRIME_RUNS[n]
    assert len(run) == 1

    def no_primes(*args):
        raise AssertionError("drew primes past the budget")

    # A new n would start a new search; the stored run of n must not grow.
    monkeypatch.setattr(verlinde, "_primes_one_mod", no_primes)
    monkeypatch.setattr(verlinde, "CRT_BUDGET", price - 1)
    with pytest.raises(HypothesisError, match=f"for {bits} CRT bits: {price} work units"):
        _v_modular(n, r, g)
    assert verlinde._PRIME_RUNS[n] is run and len(run) == 1
