"""Output checks that do not use thetacalc.

`check(query, answer, aux, ctx)` returns None for a correct answer and a
one-line reason otherwise.  Reference values come from closed forms
evaluated here (SU(2) Verlinde formula, census shape, rank-1 and README
values), from float subset sums computed by `references.py`, and from
cross-route agreement inside the answer itself.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from workloads import flag

HERE = Path(__file__).resolve().parent
RESIDUE_REFS = HERE / "residue_refs.json"
FLOAT_RTOL = 1e-9

# Values printed in the README for its CLI examples, in plain-format rows.
README_VALUES = {
    ("v", "--genus", "2", "--rank", "2", "--level", "1"): [{"result": "9"}],
    ("dim", "--genus", "2", "--rank", "2", "--level", "1"): [{"result": "4"}],
    ("symbol", "--lam", "3", "--h", "9", "--genus", "1"): [{"result": "-1/9"}],
    ("trace", "--genus", "2", "--rank", "1", "--level", "1", "--h", "3", "--order", "3"):
        [{"result": "4"}],
    ("fm", "--genus", "2", "--rank", "3", "--slope", "5/3"):
        [{"rank": "25/3", "slope": "-3/5"}],
    ("pgl", "--genus", "1", "--rank", "3", "--level", "3", "--d", "3"):
        [{"charsum": "2", "coperiodic": "2", "agree": "true"}],
}


@lru_cache(maxsize=None)
def su2_dim(g: int, k: int) -> int:
    """Rank-2 Verlinde dimension ((k+2)/2)^{g-1} sum_j sin(j pi/(k+2))^{2-2g}."""
    import mpmath

    with mpmath.workdps(60):
        n = k + 2
        total = mpmath.fsum(mpmath.sin(j * mpmath.pi / n) ** (2 - 2 * g) for j in range(1, n))
        value = (mpmath.mpf(n) / 2) ** (g - 1) * total
        nearest = mpmath.nint(value)
        if abs(value - nearest) > mpmath.mpf(10) ** -40:
            raise ArithmeticError(f"SU(2) formula is not integral at g={g}, k={k}")
        return int(nearest)


def census_rows(m: int, g: int) -> list[tuple[int, int, int]]:
    """Weight w, f = m / gcd(w, m): (m/f)^{2g} irreducibles of dimension f^g."""
    rows = []
    for w in range(m):
        f = m // math.gcd(w, m)
        rows.append((f**g, w, (m // f) ** (2 * g)))
    return sorted(rows)


def load_residue_refs() -> dict[str, float]:
    return json.loads(RESIDUE_REFS.read_text())


def residue_key(g: int, n: int, r: int) -> str:
    return f"{g}/{n}/{r}"


def _positive_int(x) -> bool:
    return type(x) is int and x > 0


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def parse_table(text: str, fmt: str) -> list[dict[str, str]]:
    """Rows of a rendered OutputRecord; parameter and mode columns included."""
    lines = text.splitlines()
    if fmt == "json":
        payload = json.loads(text)
        if "rows" in payload:
            return payload["rows"]
        return [{"result": payload["result"]}]
    if fmt == "csv":
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]
    if fmt == "latex":
        def cells(line: str) -> list[str]:
            return [c.strip() for c in line.removesuffix(r"\\").split("&")]
        header = cells(lines[1])
        return [dict(zip(header, cells(line))) for line in lines[3:-1]]
    if len(lines) == 1 and "=" not in lines[0]:
        return [{"result": lines[0]}]
    return [dict(cell.split("=", 1) for cell in line.split(" ")) for line in lines]


def _strip_format(argv: tuple) -> tuple[tuple, str]:
    if "--format" in argv:
        i = argv.index("--format")
        return argv[:i] + argv[i + 2:], argv[i + 1]
    return argv, "plain"


def check_exact(q: tuple, answer) -> str | None:
    _, g, r, k = q
    n = r + k
    a, b, symmetric = answer
    if not (_positive_int(a) and _positive_int(b)):
        return f"dimensions {a}, {b} are not positive integers"
    if symmetric is not True:
        return "check_level_rank_symmetry did not return True"
    # v_g(r, k) = (n/r)^g dim(g, r, k); level-rank symmetry equates the two.
    if Fraction(a * n**g, r**g) != Fraction(b * n**g, k**g):
        return f"v_g({r},{k}) and v_g({k},{r}) read off the dimensions differ"
    if r == 1 and a != 1:
        return f"rank-1 dimension is {a}, not 1"
    for rank, level, dim in ((r, k, a), (k, r, b)):
        if rank == 2 and dim != su2_dim(g, level):
            return f"rank-2 dimension at level {level} is {dim}, SU(2) formula gives {su2_dim(g, level)}"
    return None


def check_residue(q: tuple, answer, refs: dict[str, float]) -> str | None:
    _, g, r, k = q
    n = r + k
    v = Fraction(answer)
    dim = Fraction(r**g, n**g) * v
    if dim.denominator != 1 or dim <= 0:
        return f"r^g/n^g * v = {dim} is not a positive integer"
    ref = refs[residue_key(g, n, r)]
    if abs(_log(v) - ref) > FLOAT_RTOL:
        return f"log v = {_log(v):.12g}, float subset sum gives {ref:.12g}"
    return None


def check_pgl(q: tuple, answer, expected_dim: int | None) -> str | None:
    charsum, coperiodic = answer
    if not (_positive_int(charsum) and _positive_int(coperiodic)):
        return f"routes gave {charsum}, {coperiodic}; not positive integers"
    if charsum != coperiodic:
        return f"character-sum route {charsum} != coperiodic route {coperiodic}"
    if q[4] == 1 and charsum != expected_dim:
        return f"d = 1 gives {charsum}, verlinde_dim gives {expected_dim}"
    return None


def check_cli(q: tuple, answer, expected_dim: int | None, identities_ref: str | None) -> str | None:
    code, stdout = answer
    if code != 0:
        return f"exit code {code}"
    argv, fmt = _strip_format(tuple(q[1:]))
    command = argv[0]
    if command == "identities":
        if not stdout.endswith("passed 12 of 12\n"):
            return "identity suite did not print 'passed 12 of 12'"
        if stdout != identities_ref:
            return "identities stdout differs from the --threads 1 run"
        return None
    rows = parse_table(stdout, fmt)
    if argv in README_VALUES:
        want = README_VALUES[argv]
        got = [{key: row.get(key) for key in w} for row, w in zip(rows, want)]
        if len(rows) != len(want) or got != want:
            return f"got {got}, README gives {want}"
    if command == "split":
        total = [row for row in rows if row["omega"] == "total"]
        parts = [int(row["rank_part"]) for row in rows if row["omega"] != "total"]
        if len(total) != 1 or int(total[0]["rank_part"]) != sum(parts):
            return "split rank parts do not add up to the total row"
        if sum(parts) != expected_dim:
            return f"split total {sum(parts)} != verlinde_dim {expected_dim}"
    if command == "heisenberg":
        m, g = flag(argv, "--m"), flag(argv, "--genus")
        got = sorted((int(r["dimension"]), int(r["weight"]), int(r["count"])) for r in rows)
        if got != census_rows(m, g):
            return f"census {got} differs from the closed form {census_rows(m, g)}"
    if command == "pgl" and not (rows[0]["charsum"] == rows[0]["coperiodic"]
                                 and rows[0]["agree"] == "true"):
        return f"pgl routes disagree: {rows[0]}"
    if command in ("v", "dim") and flag(argv, "--rank") in (1, 2):
        g, r, k = (flag(argv, f) for f in ("--genus", "--rank", "--level"))
        # Rank 1 has dimension 1; rank 2 is the SU(2) formula.
        dim = 1 if r == 1 else su2_dim(g, k)
        want = dim * (Fraction(r + k, r) ** g if command == "v" else 1)
        got = Fraction(rows[0]["result"])
        if abs(got - want) > (want * FLOAT_RTOL if "--mode" in argv else 0):
            return f"{command} = {rows[0]['result']}, closed form gives {want}"
    return None


def check(q: tuple, answer, aux: int | None, ctx: dict) -> str | None:
    """None if the answer to query q is right, else why it is wrong."""
    try:
        kind = q[0]
        if kind == "lr":
            return check_exact(q, answer)
        if kind == "v":
            return check_residue(q, answer, ctx["residue_refs"])
        if kind == "pgl":
            return check_pgl(q, answer, aux)
        if kind == "cli":
            return check_cli(q, answer, aux, ctx.get("identities_ref"))
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
    return f"unknown query kind {q[0]!r}"
