"""The identity suite that `thetacalc identities` runs.

Each case sweeps one identity of the paper over a range of parameters
and returns None on success or a message naming the violated identity
by its mathematical content.  A `RangeSpec` sets the sweep ranges;
`parse_range_spec` reads one from a key=value file.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import chern, heisenberg, pgl, splitting, torsion, verlinde
from .exactnum import check_price


@dataclass(frozen=True)
class RangeSpec:
    g_max: int = 2
    n_max: int = 8
    h_list: tuple[int, ...] = (1, 3)
    d_list: tuple[int, ...] = (1, 3)


# Caps that hold whatever the ranges say: the torsion walks grow as h^{2g}
# and the coperiodic case visits every subset of Z/n.
GENUS_CAP = 2  # the character-sum and splitting cases
POINT_CAP = 100_000  # the character-sum case skips h^{2g} above it
SUBSET_N_CAP = 12  # the coperiodic case


def parse_range_spec(path: str) -> RangeSpec:
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"range-spec line is not key=value: {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in ("g_max", "n_max"):
                values[key] = int(val)
            elif key in ("h_list", "d_list"):
                values[key] = tuple(int(p) for p in val.split(",") if p.strip())
            else:
                raise ValueError(f"unknown range-spec key: {key!r}")
            # A smaller value would sweep nothing for some case.
            least = 2 if key == "n_max" else 1
            if min(values[key] if key.endswith("_list") else [values[key]], default=0) < least:
                raise ValueError(f"range-spec {key} needs values >= {least}, got {val!r}")
    return RangeSpec(**values)


def _one_character(h: int, g: int, omega: int) -> torsion.CharacterLabel:
    coords = [0] * (2 * g)
    coords[0] = (h // omega) % h
    return torsion.CharacterLabel(h, tuple(coords))


def _case_level_rank(ranges: RangeSpec) -> str | None:
    for g in range(1, ranges.g_max + 1):
        for n in range(2, ranges.n_max + 1):
            for r in range(1, n):
                if not verlinde.check_level_rank_symmetry(g, r, n - r):
                    return f"v_{g}({r},{n - r}) differs from v_{g}({n - r},{r})"
                verlinde.verlinde_dim(verlinde.VerlindeQuery(g, r, n - r))
    return None


def _case_binomial(ranges: RangeSpec) -> str | None:
    for n in range(2, ranges.n_max + 1):
        for r in range(1, n):
            got = verlinde.v_number(verlinde.VerlindeQuery(1, r, n - r))
            if got != math.comb(n, r):
                return f"genus-1 value v_1({r},{n - r}) is {got}, not C({n},{r})"
    return None


def _case_evaluation_paths(ranges: RangeSpec) -> str | None:
    for n, r, g in ((8, 3, 2), (9, 3, 2), (10, 4, 3)):
        exact = verlinde._v_exact(n, r, g)
        modular = verlinde._v_modular(n, r, g)
        if exact != modular:
            return (
                f"cyclotomic and residue evaluations of the subset sum "
                f"disagree at (n, r, g) = ({n}, {r}, {g})"
            )
    return None


def _case_partition(ranges: RangeSpec) -> str | None:
    for m in range(1, 31):
        for g in (1, 2, 3):
            if not torsion.check_count_partition(m, g):
                return f"order counts over (Z/{m})^{2 * g} do not sum to {m}^{2 * g}"
    return None


def _case_character_sum(ranges: RangeSpec) -> str | None:
    for h in ranges.h_list:
        for g in range(1, min(ranges.g_max, GENUS_CAP) + 1):
            if h ** (2 * g) > POINT_CAP:
                continue
            for omega in torsion.divisors(h):
                xi = _one_character(h, g, omega)
                for delta in torsion.divisors(h):
                    if not torsion.check_character_sum(xi, delta):
                        return (
                            "character sum over fixed-order torsion points "
                            f"fails at h={h}, g={g}, xi order {omega}, "
                            f"delta={delta}"
                        )
    return None


def _case_splitting(ranges: RangeSpec) -> str | None:
    odd = [h for h in ranges.h_list if h % 2 == 1]
    genera = range(1, min(ranges.g_max, GENUS_CAP) + 1)
    # multiplicity_oracle walks all of (Z/h)^{2g} per (r, k) and omega | h:
    # the largest walk is priced alone, as the oracle does, then all of them.
    walks = [(h ** (2 * g), h, g) for h in odd for g in genera]
    if walks:
        torsion.all_points(*max(walks)[1:])
    points = sum(3 * len(torsion.divisors(h)) * size for size, h, _ in walks)
    check_price(points, torsion.POINT_BUDGET, "the splitting case's walks need h^(2g) points each")
    for h in odd:
        for g in genera:
            for r, k in ((1, 1), (1, 2), (2, 1)):
                q = splitting.SplitQuery(g, r, k, h)
                for omega in torsion.divisors(h):
                    want = Fraction(splitting.multiplicity(q, omega))
                    got = splitting.multiplicity_oracle(q, _one_character(h, g, omega))
                    if got != want:
                        return (
                            "multiplicity closed form and Fourier inversion "
                            f"disagree at g={g}, r={r}, k={k}, h={h}, "
                            f"omega={omega}"
                        )
                if not splitting.check_rank_consistency(q):
                    return (
                        "multiplicities weighted by character counts do not "
                        f"recover the full rank at g={g}, r={r}, k={k}, h={h}"
                    )
    return None


def _case_pgl(ranges: RangeSpec) -> str | None:
    for d in ranges.d_list:
        for g in range(1, ranges.g_max + 1):
            for r in range(d, ranges.n_max, d):
                if r % 2 == 0:
                    continue
                for k in range(d, ranges.n_max + 1 - r, d):
                    q = pgl.PglQuery(g, r, k, d)
                    if pgl.pgl_dim_charsum(q) != pgl.pgl_dim_coperiodic(q):
                        return (
                            "projective dimension routes disagree at "
                            f"g={g}, r={r}, k={k}, d={d}"
                        )
    return None


def _case_sine(ranges: RangeSpec) -> str | None:
    for delta in range(1, 7):
        for den in range(2, 13):
            for num in range(1, den):
                x = Fraction(num, den)
                if (delta * x).denominator == 1:
                    continue
                if not pgl.check_sine_identity(delta, x):
                    return (
                        "sine multiplication rule fails at "
                        f"delta={delta}, x={num}/{den}"
                    )
    return None


def _case_coperiodic(ranges: RangeSpec) -> str | None:
    for n in range(2, min(ranges.n_max, SUBSET_N_CAP) + 1):
        for r in range(1, n):
            for S in verlinde.all_subsets(n, r):
                delta_s = pgl.coperiod(S).delta
                for delta in torsion.divisors(delta_s):
                    if delta == 1:
                        continue
                    if not pgl.check_coperiodic_product(S, delta):
                        return (
                            "coperiodic pair product does not factor "
                            f"through the core for {S.members} in Z/{n}, "
                            f"delta={delta}"
                        )
    return None


def _case_fourier(ranges: RangeSpec) -> str | None:
    samples = [
        (1, Fraction(1)),
        (2, Fraction(3)),
        (1, Fraction(-1)),
        (3, Fraction(1, 2)),
        (Fraction(2, 3), Fraction(-5, 7)),
    ]
    for g in range(1, 5):
        for rank, slope in samples:
            c = chern.SlopeClass(g, rank, slope)
            if chern.fm_transform(chern.fm_transform(c)) != chern.SlopeClass(
                g, (-1) ** g * rank, slope
            ):
                return f"double Fourier transform is not (-1)^g at g={g}"
            if chern.euler_char(chern.fm_transform(c)) != (-1) ** g * rank:
                return f"Fourier transform does not swap chi and rank at g={g}"
            if chern.fm_via_kernel(c) != chern.fm_transform(c):
                return (
                    "kernel-integral Fourier transform disagrees with the "
                    f"closed form at g={g}, rank={rank}, slope={slope}"
                )
    return None


def _case_wirtinger(ranges: RangeSpec) -> str | None:
    odds = (1, 3, 5, 7, 9)
    for a in odds:
        for b in odds:
            if math.gcd(a, b) != 1:
                continue
            for g in (1, 2, 3):
                if not chern.check_wirtinger_dims(a, b, g):
                    return f"section counts of the dual pair differ at a={a}, b={b}, g={g}"
            got = chern.isogeny_pullback_AxA(
                chern.SlopeMatrix(2, 1, ((1, 0), (0, a * b))),
                chern.IsogenyMatrix(((a, b), (1, -1))),
            ).q
            if got != ((a * (a + b), 0), (0, b * (a + b))):
                return f"skewed difference isogeny pullback wrong at a={a}, b={b}"
    for a, b, c, d in itertools.product(odds[:4], repeat=4):
        delta = a * d + b * c
        start = chern.box_product(chern.w_class(2, a * b, 1), chern.w_class(2, c * d, 1))
        target = chern.box_product(
            chern.w_class(2, b * d, delta), chern.w_class(2, a * c, delta)
        )
        if chern.isogeny_pullback_AxA(start, chern.IsogenyMatrix(((a, b), (c, -d)))) != target:
            return f"four-parameter isogeny bookkeeping wrong at ({a},{b},{c},{d})"
    return None


def _case_heisenberg(ranges: RangeSpec) -> str | None:
    if heisenberg.irrep_census(3, 1) != [(1, 0, 9), (3, 1, 1), (3, 2, 1)]:
        return "census of the order-27 group is off"
    if heisenberg.irrep_census(5, 1) != [
        (1, 0, 25),
        (5, 1, 1),
        (5, 2, 1),
        (5, 3, 1),
        (5, 4, 1),
    ]:
        return "census of the order-125 group is off"
    for m in (3, 5):
        for n in range(1, m):
            rep = heisenberg.schrodinger_rep(m, n, 1)
            if not heisenberg.check_schrodinger_irreducible(rep):
                return f"character norm of the weight-{n} representation mod {m} is not 1"
    return None


IDENTITY_CASES: tuple[tuple[str, Callable[[RangeSpec], str | None]], ...] = (
    ("verlinde level-rank symmetry and integrality", _case_level_rank),
    ("genus-1 binomial values", _case_binomial),
    ("evaluation-path agreement", _case_evaluation_paths),
    ("torsion order-count partition", _case_partition),
    ("torsion character-sum law", _case_character_sum),
    ("splitting multiplicities against Fourier inversion", _case_splitting),
    ("projective two-route agreement", _case_pgl),
    ("sine multiplication rule", _case_sine),
    ("coperiodic pair-product factorization", _case_coperiodic),
    ("fourier square, euler pairing, kernel route", _case_fourier),
    ("wirtinger dimensions and isogeny bookkeeping", _case_wirtinger),
    ("schrodinger irreducibility and census shapes", _case_heisenberg),
)


def range_caps(ranges: RangeSpec) -> str | None:
    """The cases whose caps cut `ranges` short, and those caps; None if none does."""
    caps: dict[Callable, list[str]] = {
        _case_character_sum: [], _case_splitting: [], _case_coperiodic: [],
    }
    if ranges.g_max > GENUS_CAP:
        caps[_case_character_sum].append(f"g <= {GENUS_CAP}")
        caps[_case_splitting].append(f"g <= {GENUS_CAP}")
    genera = range(1, min(ranges.g_max, GENUS_CAP) + 1)
    if any(h ** (2 * g) > POINT_CAP for h in ranges.h_list for g in genera):
        caps[_case_character_sum].append(f"h^(2g) <= {POINT_CAP}")
    if ranges.n_max > SUBSET_N_CAP:
        caps[_case_coperiodic].append(f"n <= {SUBSET_N_CAP}")
    cut = [f"{name} at {' and '.join(caps[fn])}" for name, fn in IDENTITY_CASES if caps.get(fn)]
    return "; ".join(cut) or None
