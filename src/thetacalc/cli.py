"""Command-line front end for the exact theta calculators.

Subcommands compute one quantity each (v, dim, symbol, trace, split,
pgl, fm, heisenberg census) or run the identity suite (identities).
Results print to stdout in one of four formats (plain, json, csv,
latex); every exact value is rendered as an integer or reduced fraction
string, never a decimal, so all formats carry identical values.  Timing
goes to stderr, keeping stdout byte-for-byte reproducible.

Exit codes: 0 success; 1 a hypothesis of a formula was violated by the
parameters; 2 an identity or internal consistency check failed; 3 usage
error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath

from . import chern, heisenberg, pgl, splitting, torsion, verlinde
from .exactnum import ConsistencyError, HypothesisError

FORMATS = ("plain", "json", "csv", "latex")


@dataclass(frozen=True)
class OutputRecord:
    """One command's output: parameters, a small table, mode."""

    command: str
    params: tuple[tuple[str, str], ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    mode: str


def _is_single_value(record: OutputRecord) -> bool:
    return record.columns == ("result",) and len(record.rows) == 1


def render(record: OutputRecord, fmt: str) -> str:
    if fmt == "plain":
        if _is_single_value(record):
            return record.rows[0][0]
        lines = [
            " ".join(f"{c}={v}" for c, v in zip(record.columns, row))
            for row in record.rows
        ]
        return "\n".join(lines)
    if fmt == "json":
        payload: dict[str, object] = {
            "command": record.command,
            "params": dict(record.params),
        }
        if _is_single_value(record):
            payload["result"] = record.rows[0][0]
        else:
            payload["rows"] = [
                dict(zip(record.columns, row)) for row in record.rows
            ]
        payload["mode"] = record.mode
        return json.dumps(payload)
    if fmt == "csv":
        header = [name for name, _ in record.params] + list(record.columns) + ["mode"]
        prefix = [value for _, value in record.params]
        lines = [",".join(header)]
        for row in record.rows:
            lines.append(",".join(prefix + list(row) + [record.mode]))
        return "\n".join(lines)
    if fmt == "latex":
        columns = [name for name, _ in record.params] + list(record.columns)
        prefix = [value for _, value in record.params]
        lines = [
            r"\begin{tabular}{" + "l" * len(columns) + "}",
            " & ".join(columns) + r" \\",
            r"\hline",
        ]
        for row in record.rows:
            lines.append(" & ".join(prefix + list(row)) + r" \\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


def _float_str(value: Fraction) -> str:
    with mpmath.workdps(17):
        approx = mpmath.mpf(value.numerator) / value.denominator
        return mpmath.nstr(approx, 15)


def _value_record(command, params, value, mode) -> OutputRecord:
    if mode == "float":
        text = _float_str(Fraction(value))
    else:
        text = str(value)
    return OutputRecord(
        command,
        tuple((k, str(v)) for k, v in params),
        ("result",),
        ((text,),),
        mode,
    )


# Subcommand handlers.  Each returns (exit_code, record or None); rendering
# and timing are shared in run().


def _cmd_v(args) -> tuple[int, OutputRecord | None]:
    q = verlinde.VerlindeQuery(args.genus, args.rank, args.level)
    params = [("genus", args.genus), ("rank", args.rank), ("level", args.level)]
    if args.mode == "float":
        value = verlinde.v_number_float(q)
    else:
        value = verlinde.v_number(q)
    return 0, _value_record("v", params, value, args.mode)


def _cmd_dim(args) -> tuple[int, OutputRecord | None]:
    q = verlinde.VerlindeQuery(args.genus, args.rank, args.level)
    params = [("genus", args.genus), ("rank", args.rank), ("level", args.level)]
    return 0, _value_record("dim", params, verlinde.verlinde_dim(q), args.mode)


def _cmd_symbol(args) -> tuple[int, OutputRecord | None]:
    q = torsion.SymbolQuery(args.lam, args.h, args.genus)
    params = [("lam", args.lam), ("h", args.h), ("genus", args.genus)]
    return 0, _value_record("symbol", params, torsion.totient_symbol(q), args.mode)


def _cmd_trace(args) -> tuple[int, OutputRecord | None]:
    q = splitting.SplitQuery(args.genus, args.rank, args.level, args.h)
    value = splitting.trace_of_torsion(q, args.order).value
    params = [
        ("genus", args.genus),
        ("rank", args.rank),
        ("level", args.level),
        ("h", args.h),
        ("order", args.order),
    ]
    return 0, _value_record("trace", params, value, args.mode)


def _cmd_split(args) -> tuple[int, OutputRecord | None]:
    q = splitting.SplitQuery(args.genus, args.rank, args.level, args.h)
    rows = []
    total = 0
    for omega in torsion.divisors(q.h):
        m = splitting.multiplicity(q, omega)
        characters = torsion.count_order(q.h, omega, q.g)
        part = characters * m * q.r**q.g
        total += part
        rows.append((str(omega), str(characters), str(m), str(part)))
    rows.append(("total", "", "", str(total)))
    params = (
        ("genus", str(args.genus)),
        ("rank", str(args.rank)),
        ("level", str(args.level)),
        ("h", str(args.h)),
    )
    record = OutputRecord(
        "split",
        params,
        ("omega", "characters", "multiplicity", "rank_part"),
        tuple(rows),
        "exact",
    )
    return 0, record


def _cmd_pgl(args) -> tuple[int, OutputRecord | None]:
    q = pgl.PglQuery(args.genus, args.rank, args.level, args.d)
    a = pgl.pgl_dim_charsum(q)
    b = pgl.pgl_dim_coperiodic(q)
    agree = a == b
    params = (
        ("genus", str(args.genus)),
        ("rank", str(args.rank)),
        ("level", str(args.level)),
        ("d", str(args.d)),
    )
    record = OutputRecord(
        "pgl",
        params,
        ("charsum", "coperiodic", "agree"),
        ((str(a), str(b), "true" if agree else "false"),),
        "exact",
    )
    return (0 if agree else 2), record


def _cmd_fm(args) -> tuple[int, OutputRecord | None]:
    c = chern.SlopeClass(args.genus, args.rank, args.slope)
    out = chern.fm_transform(c)
    params = (
        ("genus", str(args.genus)),
        ("rank", str(args.rank)),
        ("slope", str(args.slope)),
    )
    record = OutputRecord(
        "fm",
        params,
        ("rank", "slope"),
        ((str(out.rank), str(out.slope)),),
        "exact",
    )
    return 0, record


def _cmd_census(args) -> tuple[int, OutputRecord | None]:
    rows = heisenberg.irrep_census(args.m, args.genus)
    params = (("m", str(args.m)), ("genus", str(args.genus)))
    record = OutputRecord(
        "census",
        params,
        ("dimension", "weight", "count"),
        tuple((str(d), str(w), str(c)) for d, w, c in rows),
        "exact",
    )
    return 0, record


# The identity suite.  Each case returns None on success or a message
# naming the violated identity by its mathematical content.


@dataclass(frozen=True)
class RangeSpec:
    g_max: int = 2
    n_max: int = 8
    h_list: tuple[int, ...] = (1, 3)
    d_list: tuple[int, ...] = (1, 3)


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
        for g in range(1, min(ranges.g_max, 2) + 1):
            if h ** (2 * g) > 100_000:
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
    for h in ranges.h_list:
        if h % 2 == 0:
            continue
        for g in range(1, min(ranges.g_max, 2) + 1):
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
    for n in range(2, min(ranges.n_max, 12) + 1):
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


def _cmd_identities(args) -> tuple[int, OutputRecord | None]:
    ranges = parse_range_spec(args.range_spec) if args.range_spec else RangeSpec()

    failures = 0
    for name, fn in IDENTITY_CASES:
        try:
            detail = fn(ranges)
        except (HypothesisError, ConsistencyError) as exc:
            detail = str(exc)
        if detail is None:
            print(f"ok {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"passed {len(IDENTITY_CASES) - failures} of {len(IDENTITY_CASES)}")
    return (0 if failures == 0 else 2), None


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a fraction with a nonzero denominator"
        ) from None


def _add_common(parser: argparse.ArgumentParser, mode: bool = False) -> None:
    parser.add_argument("--format", choices=FORMATS, default="plain")
    if mode:
        parser.add_argument("--mode", choices=("exact", "float"), default="exact")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetacalc",
        description="Exact Verlinde numbers, torsion traces, splitting "
        "multiplicities, projective dimensions, slope-level Fourier "
        "transforms, and finite Heisenberg character tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("v", help="the trigonometric subset sum v_g(r, k)")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    _add_common(p, mode=True)
    p.set_defaults(handler=_cmd_v)

    p = sub.add_parser("dim", help="dimension of the level-k theta space")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    _add_common(p, mode=True)
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("symbol", help="genus-g totient symbol {lam / h}_g")
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    _add_common(p, mode=True)
    p.set_defaults(handler=_cmd_symbol)

    p = sub.add_parser("trace", help="trace of an order-delta torsion point")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--order", type=int, required=True, help="exact order delta of the point")
    _add_common(p, mode=True)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("split", help="all splitting multiplicities for one h")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("pgl", help="projective dimension by both routes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_pgl)

    p = sub.add_parser("fm", help="Fourier transform of a slope class")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=_fraction_arg, required=True)
    p.add_argument("--slope", type=_fraction_arg, required=True)
    # argparse takes a value for a negative number only when it looks like
    # an integer or a decimal; "--slope -1/4" must read -1/4 as well.
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    _add_common(p)
    p.set_defaults(handler=_cmd_fm)

    p = sub.add_parser("heisenberg", help="finite Heisenberg group tools")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    pc = hsub.add_parser("census", help="complete irreducible character census")
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--genus", type=int, required=True)
    _add_common(pc)
    pc.set_defaults(handler=_cmd_census)

    p = sub.add_parser("identities", help="run the identity suite")
    p.add_argument("--range-spec", help="key=value file: g_max, n_max, h_list, d_list")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; the cases always run one after "
        "another, so it changes neither the output nor the schedule",
    )
    p.set_defaults(handler=_cmd_identities)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 3
    start = time.monotonic()
    try:
        code, record = args.handler(args)
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = int((time.monotonic() - start) * 1000)
    if record is not None:
        print(render(record, args.format))
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
