"""Checker self-test: every workload's check accepts a real answer and
rejects a corrupted one; the stored residue references are current.

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import references  # noqa: E402
import workloads  # noqa: E402


def cli_query(*argv: str) -> tuple:
    return ("cli",) + argv


def main() -> int:
    refs = checks.load_residue_refs()
    identities = cli_query("identities", "--threads", "2")
    threads_1 = workloads.execute(cli_query("identities", "--threads", "1"))[1]
    ctx = {"residue_refs": refs, "identities_ref": threads_1}

    exact = ("lr", 3, 2, 3)
    residue = ("v", 2, 7, 11)
    pgl_d3 = ("pgl", 2, 3, 3, 3)
    pgl_d1 = ("pgl", 2, 3, 2, 1)
    census = cli_query("heisenberg", "census", "--m", "3", "--genus", "1", "--format", "latex")
    split = cli_query("split", "--genus", "1", "--rank", "1", "--level", "1", "--h", "3",
                      "--format", "csv")
    aux = {q: a for q, a in zip((pgl_d1, split), workloads.aux([pgl_d1, split]).values())}
    real = {q: workloads.execute(q)
            for q in (exact, residue, pgl_d3, pgl_d1, census, split, identities)}

    def corrupt_census(a):
        lines = a[1].splitlines(keepends=True)
        return [a[0], "".join(lines[:3] + lines[4:])]

    def shift_dimension(a):
        # For (g, n, r) = (2, 18, 7) the dimension is (7/18)^2 v = 49/324 v.
        dim = Fraction(a) * Fraction(49, 324)
        return str((dim + round(dim / 10**6)) * Fraction(324, 49))

    def flip_byte(a):
        text = a[1]
        return [a[0], text[:5] + chr(ord(text[5]) ^ 1) + text[6:]]

    cases = [
        ("exact-sweep: dimension off by one", exact, lambda a: [a[0] + 1, a[1], a[2]]),
        ("exact-sweep: level-rank partner off by one", exact, lambda a: [a[0], a[1] + 1, a[2]]),
        ("residue-large: dimension off by 1e-6 relative, still integral", residue,
         shift_dimension),
        ("residue-large: dimension not integral", residue, lambda a: str(Fraction(a) + 1)),
        ("pgl-routes: one route changed", pgl_d3, lambda a: [a[0], a[1] + 1]),
        ("pgl-routes: both routes off verlinde_dim at d = 1", pgl_d1,
         lambda a: [a[0] + 1, a[1] + 1]),
        ("cli-oracles: census row dropped", census, corrupt_census),
        ("cli-oracles: identities stdout differs by one byte", identities, flip_byte),
        ("cli-oracles: split total changed", split,
         lambda a: [a[0], a[1].replace(",total,,,10,", ",total,,,11,")]),
        ("cli-oracles: nonzero exit code", census, lambda a: [1, a[1]]),
    ]
    ok = True
    for label, q, corrupt in cases:
        accepted = checks.check(q, real[q], aux.get(q), ctx)
        bad = corrupt(real[q])
        rejected = checks.check(q, bad, aux.get(q), ctx) if bad != real[q] else None
        passed = accepted is None and rejected is not None
        ok &= passed
        print(f"{'ok' if passed else 'FAIL'} {label}: real answer "
              f"{'accepted' if accepted is None else 'rejected: ' + accepted}; corrupted "
              f"{'rejected: ' + rejected if rejected else 'accepted'}")

    fresh = references.compute()
    stale = [k for k in refs if abs(refs[k] - fresh.get(k, float("inf"))) > 1e-12]
    current = not stale and set(fresh) == set(refs)
    ok &= current
    print(f"{'ok' if current else 'FAIL'} residue_refs.json matches a fresh float subset sum"
          + (f"; stale: {json.dumps(stale)}" if stale else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
