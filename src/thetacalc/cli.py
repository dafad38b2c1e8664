"""Command-line front end for the exact theta calculators.

Subcommands compute one quantity each (v, dim, symbol, trace, split,
pgl, fm, heisenberg census) or run the identity suite (identities, from
thetacalc.identities).  build_parser names each subcommand's flags once;
its output record lists them, in that order, as its params.  Each process
builds the parser once, on its first run.  Results print to stdout in one
of four formats (plain, json, csv, latex); every exact value is rendered as
an integer or reduced fraction string, so all formats carry identical
values.  Only --mode float rounds to a decimal, in integer arithmetic.
Timing goes to stderr, keeping stdout byte-for-byte reproducible.

Exit codes: 0 success; 1 a hypothesis of a formula was violated by the
parameters, or a work price refused (in `identities` too); 2 an identity or
internal consistency check failed; 3 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import chern, heisenberg, pgl, splitting, torsion, verlinde
from .exactnum import ConsistencyError, HypothesisError
from .identities import IDENTITY_CASES, RangeSpec, parse_range_spec, range_caps

FORMATS = ("plain", "json", "csv", "latex")


@dataclass(frozen=True)
class OutputRecord:
    """One command's output: parameters, a small table, mode."""

    command: str
    params: tuple[tuple[str, str], ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    mode: str


def render(record: OutputRecord, fmt: str) -> str:
    single = record.columns == ("result",) and len(record.rows) == 1
    if fmt == "plain":
        if single:
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
        if single:
            payload["result"] = record.rows[0][0]
        else:
            payload["rows"] = [
                dict(zip(record.columns, row)) for row in record.rows
            ]
        payload["mode"] = record.mode
        return json.dumps(payload)
    columns = [name for name, _ in record.params] + list(record.columns)
    prefix = [value for _, value in record.params]
    if fmt == "csv":
        lines = [",".join(columns + ["mode"])]
        lines += [",".join(prefix + list(row) + [record.mode]) for row in record.rows]
        return "\n".join(lines)
    if fmt == "latex":
        lines = [
            r"\begin{tabular}{" + "l" * len(columns) + "}",
            " & ".join(columns) + r" \\",
            r"\hline",
        ]
        lines += [" & ".join(prefix + list(row)) + r" \\" for row in record.rows]
        lines.append(r"\end{tabular}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


_BITS = 60  # the binary precision of 17 decimal digits


def _round_bits(n: int, d: int) -> tuple[int, int]:
    """(q, e) with q * 2**e the positive n / d rounded to _BITS bits, ties to even."""
    e = n.bit_length() - d.bit_length() - _BITS
    num, den = (n, d << e) if e >= 0 else (n << -e, d)
    q, r = divmod(num, den)
    if q >> _BITS:  # one bit too many: move the last into the remainder
        r += (q & 1) * den
        q, den, e = q >> 1, den << 1, e + 1
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q, e


def _float_str(value) -> str:
    """`value` to 15 significant digits, in integer arithmetic only.

    The string is the one nstr(mpf(numerator) / denominator, 15) printed at
    17 decimal digits (60 bits) before this replaced it: the numerator and
    then the quotient are rounded to 60 bits, ties to even, and that binary
    value is rounded half up to 15 digits; decimal exponents strictly
    between -5 and 15 print in fixed notation, trailing zeros stripped.
    Past 2**±3500 nstr found the digits through an approximate power of
    ten; here every digit is exact, from one power of 5 and shifts.
    """
    value = Fraction(value)
    if not value:
        return "0.0"
    q, e = _round_bits(abs(value.numerator), 1)
    q, shift = _round_bits(q, value.denominator)
    e += shift
    # floor(q * 2**e / 10**k), twenty-odd digits: the float estimate of
    # log10 is off by far less than the one digit this needs.
    k = math.floor(math.log10(q) + e * math.log10(2)) - 20
    num, den = (q * 5**-k, 1) if k < 0 else (q, 5**k)
    num, den = (num << e - k, den) if e >= k else (num, den << k - e)
    digits = str(num // den)
    exponent = k + len(digits) - 1
    mantissa = int(digits[:15]) + (digits[15] >= "5")
    if mantissa == 10**15:
        mantissa, exponent = 10**14, exponent + 1
    digits = str(mantissa)
    fixed = -5 < exponent < 15
    if fixed and exponent < 0:
        digits = "0" * -exponent + digits
    point = exponent + 1 if fixed and exponent >= 0 else 1
    text = (digits[:point] + "." + digits[point:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    return ("-" if value < 0 else "") + text + ("" if fixed else f"e{exponent:+d}")


def _record(args, columns, rows, mode="exact") -> OutputRecord:
    """The subcommand's record: its flags and their values, then the table."""
    cell = _float_str if mode == "float" else str
    return OutputRecord(
        args.name,
        tuple((p, str(getattr(args, p))) for p in args.params),
        columns,
        tuple(tuple(cell(v) for v in row) for row in rows),
        mode,
    )


# Subcommand handlers.  Each returns (exit_code, record or None); rendering
# and timing are shared in run().


def _cmd_v(args) -> tuple[int, OutputRecord | None]:
    q = verlinde.VerlindeQuery(args.genus, args.rank, args.level)
    return 0, _record(args, ("result",), [(verlinde.v_number(q),)], args.mode)


def _cmd_dim(args) -> tuple[int, OutputRecord | None]:
    q = verlinde.VerlindeQuery(args.genus, args.rank, args.level)
    return 0, _record(args, ("result",), [(verlinde.verlinde_dim(q),)], args.mode)


def _cmd_symbol(args) -> tuple[int, OutputRecord | None]:
    q = torsion.SymbolQuery(args.lam, args.h, args.genus)
    return 0, _record(args, ("result",), [(torsion.totient_symbol(q),)], args.mode)


def _cmd_trace(args) -> tuple[int, OutputRecord | None]:
    q = splitting.SplitQuery(args.genus, args.rank, args.level, args.h)
    value = splitting.trace_of_torsion(q, args.order).value
    return 0, _record(args, ("result",), [(value,)], args.mode)


def _cmd_split(args) -> tuple[int, OutputRecord | None]:
    rows = splitting.rank_parts(splitting.SplitQuery(args.genus, args.rank, args.level, args.h))
    rows.append(("total", "", "", sum(part for *_, part in rows)))
    return 0, _record(args, ("omega", "characters", "multiplicity", "rank_part"), rows)


def _cmd_pgl(args) -> tuple[int, OutputRecord | None]:
    q = pgl.PglQuery(args.genus, args.rank, args.level, args.d)
    # The walk refuses an oversized query before either route runs.
    b = pgl.pgl_dim_coperiodic(q)
    a = pgl.pgl_dim_charsum(q)
    agree = a == b
    record = _record(
        args, ("charsum", "coperiodic", "agree"), [(a, b, "true" if agree else "false")]
    )
    return (0 if agree else 2), record


def _cmd_fm(args) -> tuple[int, OutputRecord | None]:
    out = chern.fm_transform(chern.SlopeClass(args.genus, args.rank, args.slope))
    return 0, _record(args, ("rank", "slope"), [(out.rank, out.slope)])


def _cmd_census(args) -> tuple[int, OutputRecord | None]:
    rows = heisenberg.irrep_census(args.m, args.genus)
    return 0, _record(args, ("dimension", "weight", "count"), rows)


def _cmd_identities(args) -> tuple[int, OutputRecord | None]:
    ranges = parse_range_spec(args.range_spec) if args.range_spec else RangeSpec()

    failures = 0
    for name, fn in IDENTITY_CASES:
        # A refused price (HypothesisError) is no failed identity: it reaches
        # run() and exits 1.
        try:
            detail = fn(ranges)
        except ConsistencyError as exc:
            detail = str(exc)
        if detail is None:
            print(f"ok {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"passed {len(IDENTITY_CASES) - failures} of {len(IDENTITY_CASES)}")
    capped = range_caps(ranges)
    if capped:
        print(f"range-spec capped: {capped}", file=sys.stderr)
    return (0 if failures == 0 else 2), None


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a fraction with a nonzero denominator"
        ) from None


def _add_command(sub, name, help, handler, params, mode=False, extra=None):
    """Add subcommand `name` with a required integer --<param> per name,
    then --format and, with `mode`, --mode.  `extra` maps a param to
    further add_argument keywords.  The names are kept for _record."""
    p = sub.add_parser(name, help=help)
    for param in params:
        kwargs = {"type": int, "required": True, **(extra or {}).get(param, {})}
        p.add_argument(f"--{param}", **kwargs)
    p.add_argument("--format", choices=FORMATS, default="plain")
    if mode:
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(handler=handler, name=name, params=params)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on the first run(), never at import, so handlers patched after
    # import are bound.  parse_args returns a fresh Namespace every call.
    parser = argparse.ArgumentParser(
        prog="thetacalc",
        description="Exact Verlinde numbers, torsion traces, splitting "
        "multiplicities, projective dimensions, slope-level Fourier "
        "transforms, and finite Heisenberg character tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grk = ("genus", "rank", "level")
    _add_command(sub, "v", "the trigonometric subset sum v_g(r, k)", _cmd_v, grk, mode=True)
    _add_command(sub, "dim", "dimension of the level-k theta space", _cmd_dim, grk, mode=True)
    _add_command(
        sub, "symbol", "genus-g totient symbol {lam / h}_g", _cmd_symbol,
        ("lam", "h", "genus"), mode=True,
    )
    _add_command(
        sub, "trace", "trace of an order-delta torsion point", _cmd_trace,
        (*grk, "h", "order"), mode=True,
        extra={"order": {"help": "exact order delta of the point"}},
    )
    _add_command(sub, "split", "all splitting multiplicities for one h", _cmd_split, (*grk, "h"))
    _add_command(sub, "pgl", "projective dimension by both routes", _cmd_pgl, (*grk, "d"))
    p = _add_command(
        sub, "fm", "Fourier transform of a slope class", _cmd_fm, ("genus", "rank", "slope"),
        extra={"rank": {"type": _fraction_arg}, "slope": {"type": _fraction_arg}},
    )
    # argparse takes a value for a negative number only when it looks like
    # an integer or a decimal; "--slope -1/4" must read -1/4 as well.
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    p = sub.add_parser("heisenberg", help="finite Heisenberg group tools")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    _add_command(
        hsub, "census", "complete irreducible character census", _cmd_census, ("m", "genus")
    )

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
    # Exact values may run past the 4 300 decimal digits that CPython
    # (3.10.7 on) converts by default; the limit is lifted for this call only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv: list[str]) -> int:
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
