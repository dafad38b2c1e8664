"""Command-line behavior: values, formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetacalc import cli, verlinde
from thetacalc.exactnum import ConsistencyError, HypothesisError


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWorkedExamples:
    def test_readme_cli_block_is_true(self, capsys):
        # Each `thetacalc <command> ... # value` line in README.md's CLI block
        # must print its comment; a README edit that changes a documented
        # value fails here.
        valued = {"v", "dim", "symbol", "trace", "pgl", "fm"}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        checked = set()
        for line in block.splitlines():
            command, _, value = line.partition("#")
            argv = command.split()[1:]
            if argv[0] in valued:
                assert run_cli(capsys, *argv)[:2] == (0, value.strip() + "\n"), line
                checked.add(argv[0])
        assert checked == valued

    def test_dim_prints_bare_value_in_plain_format(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--genus", "2", "--rank", "2", "--level", "1")
        assert code == 0
        assert out == "4\n"

    def test_v_value(self, capsys):
        code, out, _ = run_cli(capsys, "v", "--genus", "2", "--rank", "2", "--level", "1")
        assert code == 0
        assert out == "9\n"

    def test_symbol_value(self, capsys):
        code, out, _ = run_cli(capsys, "symbol", "--lam", "3", "--h", "3", "--genus", "1")
        assert code == 0
        assert out == "8/9\n"

    def test_trace_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--genus", "2", "--rank", "1", "--level", "1",
            "--h", "3", "--order", "3",
        )
        assert code == 0
        assert out == "4\n"

    def test_split_table_lists_multiplicities_and_total_rank(self, capsys):
        code, out, _ = run_cli(
            capsys, "split", "--genus", "1", "--rank", "1", "--level", "1", "--h", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert "omega=1 characters=1 multiplicity=2 rank_part=2" in lines
        assert "omega=3 characters=8 multiplicity=1 rank_part=8" in lines
        assert lines[-1].endswith("rank_part=10")

    def test_pgl_reports_both_routes_and_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "pgl", "--genus", "1", "--rank", "3", "--level", "3", "--d", "3",
        )
        assert code == 0
        assert out == "charsum=2 coperiodic=2 agree=true\n"

    def test_fm_reports_transformed_rank_and_slope(self, capsys):
        code, out, _ = run_cli(capsys, "fm", "--genus", "2", "--rank", "3", "--slope", "5/3")
        assert code == 0
        assert out == "rank=25/3 slope=-3/5\n"

    def test_fm_reads_a_space_separated_negative_fraction(self, capsys):
        code, out, _ = run_cli(capsys, "fm", "--genus", "2", "--rank", "3", "--slope", "-1/4")
        assert code == 0
        assert out == "rank=3/16 slope=4\n"

    def test_census_rows(self, capsys):
        code, out, _ = run_cli(capsys, "heisenberg", "census", "--m", "3", "--genus", "1")
        assert code == 0
        assert out.splitlines() == [
            "dimension=1 weight=0 count=9",
            "dimension=3 weight=1 count=1",
            "dimension=3 weight=2 count=1",
        ]


class TestFormats:
    def test_json_carries_params_and_exact_result(self, capsys):
        _, out, _ = run_cli(
            capsys, "dim", "--genus", "2", "--rank", "2", "--level", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["result"] == "4"
        assert payload["params"] == {"genus": "2", "rank": "2", "level": "1"}
        assert payload["mode"] == "exact"

    @pytest.mark.parametrize(
        "argv",
        [
            ("v", "--genus", "2", "--rank", "2", "--level", "1"),
            ("dim", "--genus", "3", "--rank", "1", "--level", "4"),
            ("symbol", "--lam", "3", "--h", "9", "--genus", "1"),
            ("trace", "--genus", "2", "--rank", "1", "--level", "1", "--h", "3", "--order", "3"),
            ("split", "--genus", "1", "--rank", "1", "--level", "1", "--h", "3"),
            ("pgl", "--genus", "1", "--rank", "3", "--level", "3", "--d", "3"),
            ("fm", "--genus", "2", "--rank", "3", "--slope", "5/3"),
            ("heisenberg", "census", "--m", "3", "--genus", "1"),
        ],
        ids=lambda argv: argv[1] if argv[0] == "heisenberg" else argv[0],
    )
    def test_csv_header_starts_with_the_flags_in_argv_order(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        flags = [a[2:] for a in argv if a.startswith("--")]
        values = [b for a, b in zip(argv, argv[1:]) if a.startswith("--")]
        header, first = (line.split(",") for line in out.splitlines()[:2])
        assert header[: len(flags)] == flags
        assert first[: len(values)] == values

    def test_all_formats_carry_the_same_exact_value(self, capsys):
        query = ["symbol", "--lam", "1", "--h", "3", "--genus", "1"]
        values = {}
        for fmt in ("plain", "json", "csv", "latex"):
            _, out, _ = run_cli(capsys, *query, "--format", fmt)
            values[fmt] = out
        assert values["plain"] == "-1/9\n"
        assert json.loads(values["json"])["result"] == "-1/9"
        assert "-1/9" in values["csv"].splitlines()[1]
        assert "-1/9" in values["latex"]

    def test_table_formats_agree_on_rows(self, capsys):
        query = ["heisenberg", "census", "--m", "3", "--genus", "1"]
        _, out_json, _ = run_cli(capsys, *query, "--format", "json")
        _, out_csv, _ = run_cli(capsys, *query, "--format", "csv")
        rows = json.loads(out_json)["rows"]
        assert rows[0] == {"dimension": "1", "weight": "0", "count": "9"}
        assert out_csv.splitlines()[1] == "3,1,1,0,9,exact"

    def test_float_mode_renders_decimal_exact_mode_never_does(self, capsys):
        _, exact, _ = run_cli(capsys, "symbol", "--lam", "3", "--h", "9", "--genus", "1")
        _, approx, _ = run_cli(
            capsys, "symbol", "--lam", "3", "--h", "9", "--genus", "1",
            "--mode", "float",
        )
        assert exact == "-1/9\n"
        assert approx.startswith("-0.1111111")

    @pytest.mark.parametrize(
        "argv,out",
        [
            (("v", "--genus", "2", "--rank", "2", "--level", "1"), "9.0"),
            (("dim", "--genus", "2", "--rank", "2", "--level", "1"), "4.0"),
            (("symbol", "--lam", "3", "--h", "9", "--genus", "1"), "-0.111111111111111"),
            (("trace", "--genus", "2", "--rank", "1", "--level", "1", "--h", "3", "--order", "3"),
             "4.0"),
            (("v", "--genus", "200", "--rank", "4", "--level", "4"), "3.07302326732502e+632"),
        ],
        ids=["v", "dim", "symbol", "trace", "v-huge"],
    )
    def test_float_mode_output_is_unchanged(self, capsys, argv, out):
        # _float_str rounds in integers, to the strings mpmath printed before.
        assert run_cli(capsys, *argv, "--mode", "float")[:2] == (0, out + "\n")

    def test_float_mode_on_v_rounds_the_exact_value(self, capsys, monkeypatch):
        _, out, _ = run_cli(
            capsys, "v", "--genus", "2", "--rank", "2", "--level", "1",
            "--mode", "float",
        )
        assert out == "9.0\n"

        # Whatever exact value v_number gives is what float mode rounds.
        monkeypatch.setattr(verlinde, "v_number", lambda q: Fraction(10**20 + 1, 3))
        code, out, _ = run_cli(
            capsys, "v", "--genus", "2", "--rank", "2", "--level", "1",
            "--mode", "float",
        )
        assert (code, out) == (0, "3.33333333333333e+19\n")


def _mpmath_str(value: Fraction) -> str:
    """What --mode float printed while it called mpmath."""
    with mpmath.workdps(17):
        return mpmath.nstr(mpmath.mpf(value.numerator) / value.denominator, 15)


@st.composite
def _signed_fractions(draw):
    # Up to 200 bits each side, shifted by up to 2**±12000: mpmath's exact
    # digit path ends at 2**±3500, so both of its paths are drawn.
    num = draw(st.integers(1, 2**200))
    den = draw(st.integers(1, 2**200))
    shift = draw(st.integers(-12_000, 12_000))
    num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
    return Fraction(draw(st.sampled_from((1, -1))) * num, den)


_README_V = verlinde.v_number(verlinde.VerlindeQuery(200, 4, 4))
_HUGE = 3**524_000 + 1  # 250 012 digits

# (value, the string both roundings print)
_FLOAT_CASES = [
    (Fraction(0), "0.0"),
    (Fraction(10**15 + 5), "1.00000000000001e+15"),  # 16th digit 5, then zeros
    (Fraction(-1234567890123455 * 10**3), "-1.23456789012346e+18"),
    (Fraction(99999999999999995 * 10**4), "1.0e+21"),  # 9.9999999999999995e20
    (Fraction(-99999999999999995, 10**23), "-1.0e-6"),
    # A 60-bit tie that ties-to-even rounds down to just below a decimal tie.
    (Fraction(5000000000000004996), "5.0e+18"),
    # Just below 9300000000000015000, which 61 bits hold exactly and 60 do not.
    (Fraction(3 * 9300000000000015000 - 8, 3), "9.30000000000001e+18"),
    (Fraction(123456789, 10**14), "1.23456789e-6"),
    (Fraction(123456789, 10**13), "1.23456789e-5"),
    (Fraction(123456789, 10**12), "0.000123456789"),
    (Fraction(123456789012345678, 10**3), "123456789012346.0"),
    (Fraction(123456789012345678, 10**2), "1.23456789012346e+15"),
    (Fraction(_README_V), "3.07302326732502e+632"),
    (Fraction(_HUGE), "3.44725256262824e+250011"),
]


class TestFloatRounding:
    """_float_str against mpmath, which it replaced."""

    @pytest.mark.parametrize("value,text", _FLOAT_CASES, ids=range(len(_FLOAT_CASES)))
    def test_worked_values(self, value, text):
        assert (cli._float_str(value), _mpmath_str(value)) == (text, text)

    @settings(max_examples=300, deadline=None)
    @given(_signed_fractions())
    @example(Fraction(1, 3 * 2**3499))
    @example(Fraction(2**3500 + 1, 3))
    @example(Fraction(-(10**1200) - 1, 7))
    def test_agrees_with_mpmath(self, value):
        assert cli._float_str(value) == _mpmath_str(value)

    def test_structured_sweep_agrees_with_mpmath(self):
        # Powers of ten and their neighbours, the carries 2**j - 1 -> 2**j
        # and the ties 2**61 + odd of the 60-bit rounding, over several
        # denominators, and the Verlinde numbers the CLI prints.
        values = [
            Fraction(10) ** j + delta for j in range(-40, 60) for delta in (-1, 0, 1)
        ]
        values += [Fraction(1, 10**j + delta) for j in range(1, 40) for delta in (-1, 1)]
        values += [
            Fraction(num, den)
            for num in [2**j - 1 for j in (59, 60, 61, 62, 200, 4000)]
            + [2**61 + odd for odd in (1, 3, 5, 7)]
            for den in (1, 3, 10**15, 2**61 - 1, 7**1500)
        ]
        values += [
            Fraction(verlinde.v_number(verlinde.VerlindeQuery(g, r, k)))
            for g in (2, 3, 5, 40) for r in range(1, 5) for k in range(1, 8)
        ]
        mismatches = [
            (v, cli._float_str(v), _mpmath_str(v))
            for v in values + [-v for v in values]
            if cli._float_str(v) != _mpmath_str(v)
        ]
        assert mismatches == []

    def test_huge_value_renders_without_a_long_division(self):
        # One power of 5 and shifts: 250 000 digits take about 13 ms on a
        # 2-vCPU VM; str() of the integer alone takes seconds.
        best = min(_timed(cli._float_str, _HUGE) for _ in range(3))
        assert best < 0.3


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class TestExitCodes:
    def test_hypothesis_violation_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "split", "--genus", "1", "--rank", "1", "--level", "1", "--h", "4",
        )
        assert code == 1
        assert out == ""
        assert "hypothesis violated" in err
        assert "odd" in err

    def test_noncoprime_split_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "split", "--genus", "1", "--rank", "2", "--level", "2", "--h", "3",
        )
        assert code == 1
        assert "gcd" in err

    def test_unknown_command_exits_3(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 3

    def test_missing_required_flag_exits_3(self, capsys):
        assert run_cli(capsys, "dim", "--genus", "2")[0] == 3

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unreadable_range_spec_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "identities", "--range-spec", "/nonexistent/file")
        assert code == 3
        assert "usage error" in err

    def test_unknown_range_spec_key_exits_3(self, capsys, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("bogus_key=3\n")
        code, _, err = run_cli(capsys, "identities", "--range-spec", str(path))
        assert code == 3
        assert "bogus_key" in err

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("g_max=0", "g_max"),
            ("n_max=-5", "n_max"),
            ("n_max=1", "n_max"),
            ("d_list=-1", "d_list"),
            ("d_list=0", "d_list"),
            ("h_list=0", "h_list"),
            ("h_list=3, 0", "h_list"),
            ("h_list=", "h_list"),
        ],
    )
    def test_range_spec_that_sweeps_nothing_exits_3_before_any_case(
        self, capsys, tmp_path, spec, key
    ):
        path = tmp_path / "range.txt"
        path.write_text(spec + "\n")
        code, out, err = run_cli(capsys, "identities", "--range-spec", str(path))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ") and key in err

    def test_zero_denominator_fraction_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "fm", "--genus", "2", "--rank", "3", "--slope", "1/0")
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert "argument --slope" in err.splitlines()[-1]

    def test_negative_lam_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "symbol", "--lam", "-1", "--h", "9", "--genus", "1")
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["hypothesis violated: lam must be non-negative, got -1"]

    def test_residue_primes_running_out_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "v", "--genus", "2", "--rank", "1", "--level", "3000000000",
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("hypothesis violated:")
        assert "below 2^31" in line

    @pytest.mark.parametrize(
        "argv,fact",
        [
            # |G| (2g+1) + classes^2 = 59049 * 5 + 6729^2.
            (("heisenberg", "census", "--m", "9", "--genus", "2"), "45574686 work units"),
            # C(23, 11) subsets: the coperiodic walk would run for minutes.
            (("pgl", "--genus", "2", "--rank", "11", "--level", "12", "--d", "1"),
             "1352078 subsets"),
            # 462 subsets, but coefficients of thousands of words: 9 s and 48 s.
            (("pgl", "--genus", "1000", "--rank", "5", "--level", "6", "--d", "1"),
             "462 subsets: 14931840 work units"),
            (("pgl", "--genus", "3000", "--rank", "5", "--level", "6", "--d", "1"),
             "462 subsets: 131586840 work units"),
            # C(40, 12) subsets: the residue sum would run for hours.
            (("v", "--genus", "2", "--rank", "12", "--level", "28"), "5586853480 subsets"),
            # The h = 25 divisor alone needs C(125, 50) subsets; the summed
            # price refuses before the first divisor's sum.
            (("split", "--genus", "3", "--rank", "2", "--level", "3", "--h", "25"),
             "residue sums of m_1 over the divisors of h = 25"),
            # About 22 400 primes: the Garner loop alone would run for many
            # seconds, then a Fraction of about 4.2e6 bits and its digits.
            (("v", "--genus", "1000000", "--rank", "2", "--level", "3"),
             "primes x (search + Garner) + words^2 / 16"),
            # D = 5^(10^7) alone would take about 6 s to build; the tail's
            # price, from the exponents of D, refuses before it is built.
            (("v", "--genus", "20000000", "--rank", "2", "--level", "3"),
             "for 13884845 CRT bits: 1222271796812 work units"),
            # math.comb(600000, 300000) alone takes about 5 s.
            (("v", "--genus", "1", "--rank", "300000", "--level", "300000"),
             "C(600000, 300000) needs words^2 for 600000 bits"),
        ],
        ids=["census", "pgl", "pgl-genus-1000", "pgl-genus-3000", "v", "split", "crt", "denominator", "genus-1"],
    )
    def test_oversized_work_refuses_fast(self, capsys, argv, fact):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("hypothesis violated:")
        assert "work units, over the budget of" in line
        assert fact in line

    @pytest.mark.parametrize(
        "argv,digits",
        [
            (("v", "--genus", "5000", "--rank", "2", "--level", "3"), 6287),
            (("dim", "--genus", "20000", "--rank", "3", "--level", "3"), 31125),
        ],
        ids=["v", "dim"],
    )
    def test_values_past_the_str_digit_limit_print(self, capsys, argv, digits):
        # CPython converts at most 4 300 digits by default; run lifts the
        # limit for its own call and restores the caller's setting.
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.strip().isdigit() and len(out.strip()) == digits
        assert sys.get_int_max_str_digits() == limit

    def test_timing_goes_to_stderr_not_stdout(self, capsys):
        _, out, err = run_cli(capsys, "dim", "--genus", "1", "--rank", "1", "--level", "1")
        assert "elapsed_ms" not in out
        assert "elapsed_ms=" in err


class TestIdentities:
    def test_small_range_passes_every_case(self, capsys, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("g_max=1\nn_max=6\nh_list=1,3\nd_list=1,3\n")
        code, out, _ = run_cli(capsys, "identities", "--range-spec", str(path))
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1] == f"passed {len(cli.IDENTITY_CASES)} of {len(cli.IDENTITY_CASES)}"

    def test_thread_count_does_not_change_stdout(self, capsys, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("g_max=1\nn_max=6\nh_list=1,3\nd_list=1\n")
        _, out_one, _ = run_cli(capsys, "identities", "--range-spec", str(path), "--threads", "1")
        _, out_four, _ = run_cli(capsys, "identities", "--range-spec", str(path), "--threads", "4")
        assert out_one == out_four

    def test_capped_range_spec_is_named_on_stderr(self, capsys, monkeypatch, tmp_path):
        # g_max=5 and n_max=14 run past the genus cap of the character-sum
        # and splitting cases and the n cap of the coperiodic case; stdout
        # stays as it was, and one stderr line names the caps.
        path = tmp_path / "range.txt"
        path.write_text("g_max=5\nn_max=14\n")
        capped = (
            "range-spec capped: torsion character-sum law at g <= 2; "
            "splitting multiplicities against Fourier inversion at g <= 2; "
            "coperiodic pair-product factorization at n <= 12"
        )
        assert "range-spec capped: " + cli.range_caps(cli.parse_range_spec(str(path))) == capped
        # The cases themselves are replaced by one that passes: the line
        # depends on the ranges only.
        monkeypatch.setattr(cli, "IDENTITY_CASES", (("passing probe", lambda ranges: None),))
        code, out, err = run_cli(capsys, "identities", "--range-spec", str(path))
        assert (code, out) == (0, "ok passing probe\npassed 1 of 1\n")
        assert err.splitlines()[0] == capped
        assert err.splitlines()[1].startswith("elapsed_ms=")

    def test_skipped_torsion_walk_is_named(self, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("g_max=1\nh_list=1,401\n")
        assert cli.range_caps(cli.parse_range_spec(str(path))) == (
            "torsion character-sum law at h^(2g) <= 100000"
        )

    def test_uncapped_ranges_print_no_cap_line(self, capsys, tmp_path):
        # The default ranges (which perfbench compares) and a small spec.
        assert cli.range_caps(cli.RangeSpec()) is None
        path = tmp_path / "range.txt"
        path.write_text("g_max=2\nn_max=12\nh_list=1,3,17\n")
        assert cli.range_caps(cli.parse_range_spec(str(path))) is None
        code, _, err = run_cli(capsys, "identities")
        assert code == 0
        assert [line for line in err.splitlines() if not line.startswith("elapsed_ms=")] == []

    def test_failing_case_is_named_and_exits_2(self, capsys, monkeypatch):
        probe = (("always failing probe", lambda ranges: "probe detail"),)
        monkeypatch.setattr(cli, "IDENTITY_CASES", probe)
        code, out, _ = run_cli(capsys, "identities")
        assert code == 2
        assert "FAIL always failing probe: probe detail" in out
        assert out.splitlines()[-1] == "passed 0 of 1"

    def test_case_raising_hypothesis_error_exits_1(self, capsys, monkeypatch):
        # A refused price or hypothesis is no failed identity.
        def boom(ranges):
            raise HypothesisError("synthetic violation")

        monkeypatch.setattr(cli, "IDENTITY_CASES", (("raising probe", boom),))
        code, out, err = run_cli(capsys, "identities")
        assert code == 1
        assert "FAIL" not in out
        assert err.splitlines() == ["hypothesis violated: synthetic violation"]

    def test_case_raising_consistency_error_is_a_failure(self, capsys, monkeypatch):
        def boom(ranges):
            raise ConsistencyError("synthetic mismatch")

        monkeypatch.setattr(cli, "IDENTITY_CASES", (("raising probe", boom),))
        code, out, _ = run_cli(capsys, "identities")
        assert code == 2
        assert "FAIL raising probe: synthetic mismatch" in out
        assert out.splitlines()[-1] == "passed 0 of 1"

    def test_unpriced_torsion_walk_refuses_fast(self, capsys, tmp_path):
        # h = 1001 at genus 1: the Fourier oracle would walk 1001^2 points.
        path = tmp_path / "range.txt"
        path.write_text("h_list=1001\ng_max=1\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "identities", "--range-spec", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "FAIL" not in out
        (line,) = err.splitlines()
        assert line.startswith("hypothesis violated: the walk over all of (Z/1001)^2")
        assert "1002001 work units, over the budget of 1000000" in line


    def test_splitting_case_prices_all_its_walks_first(self, capsys, tmp_path):
        # h = 999 at genus 1: each walk (998 001 points) is admitted alone,
        # but the case makes 3 x 8 divisors of them, about 100 s.
        path = tmp_path / "range.txt"
        path.write_text("h_list=999\ng_max=1\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "identities", "--range-spec", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "FAIL" not in out
        (line,) = err.splitlines()
        assert line.startswith("hypothesis violated: the splitting case's walks")
        assert "23952024 work units, over the budget of 1000000" in line


def _fresh_process(code: str, *argv: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env,
        timeout=60,
    )


class TestOneParserPerProcess:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser_and_loads_no_mpmath(self):
        # No command loads mpmath, --mode float included; the first run
        # builds the parser.
        proc = _fresh_process(
            "import sys, io, contextlib\n"
            "from thetacalc import cli\n"
            "built = cli.build_parser.cache_info().misses\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.run(['v', '--genus', '1', '--rank', '2', '--level', '3'])\n"
            "    cli.run(['dim', '--genus', '2', '--rank', '2', '--level', '1'])\n"
            "print(built, cli.build_parser.cache_info().misses, 'mpmath' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.run(['symbol', '--lam', '3', '--h', '9', '--genus', '1',\n"
            "             '--mode', 'float'])\n"
            "print('mpmath' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0 1 False", "False"]

    def test_one_process_answers_as_fresh_processes_do(self, capsys, monkeypatch):
        # The same parser serves every argv in turn: each stdout and exit code
        # is what that argv alone gives in a fresh interpreter.
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it, as there
        argvs = [
            ["dim", "--genus", "2", "--rank", "2", "--level", "1", "--format", "json"],
            ["dim", "--genus", "2"],
            ["fm", "--genus", "2", "--rank", "3", "--slope", "-1/4"],
            ["symbol", "--lam", "3", "--h", "9", "--genus", "1", "--format", "latex"],
            ["--help"],
            ["heisenberg", "census", "--m", "3", "--genus", "1", "--format", "csv"],
            ["split", "--genus", "1", "--rank", "1", "--level", "1", "--h", "4"],
            ["v", "--genus", "2", "--rank", "2", "--level", "1", "--mode", "float"],
            ["fm", "--genus", "2", "--rank", "3", "--slope", "5/3"],
            ["pgl", "--genus", "2000", "--rank", "3", "--level", "6", "--d", "3"],
            ["pgl", "--genus", "1", "--rank", "1", "--level", "5999", "--d", "1"],
            ["pgl", "--genus", "1000", "--rank", "5", "--level", "6", "--d", "1"],
        ]
        here = [run_cli(capsys, *argv) for argv in argvs]
        # No answer depends on what the process computed before it.
        order = list(range(len(argvs)))
        random.Random(20).shuffle(order)
        again = {i: run_cli(capsys, *argvs[i]) for i in order}
        assert [again[i][:2] for i in range(len(argvs))] == [h[:2] for h in here]
        code = "import sys; from thetacalc import cli; sys.exit(cli.run(sys.argv[1:]))"
        for argv, (status, out, _) in zip(argvs, here):
            alone = _fresh_process(code, *argv)
            assert (status, out) == (alone.returncode, alone.stdout), argv
        assert [status for status, _, _ in here] == [0, 3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]
        assert here[1][2].startswith("usage: thetacalc dim")
        assert here[2][1] == "rank=3/16 slope=4\n"
        assert here[4][1].startswith("usage: thetacalc")

    def test_threads_parse_their_own_argv(self):
        # More threads than cores, switching often: each parse_args call on
        # the shared parser must still return its own argv's values.
        barrier = threading.Barrier(4, timeout=10)
        got = {}

        def parse(i):
            barrier.wait()
            for j in range(200):
                argv = ["v", "--genus", str(i + 2), "--rank", str(j), "--level", str(i)]
                ns = cli.build_parser().parse_args(argv)
                got.setdefault(i, []).append((ns.genus, ns.rank, ns.level))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {i: [(i + 2, j, i) for j in range(200)] for i in range(4)}


class TestRangeSpecParsing:
    def test_comments_and_blanks_are_ignored(self, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("# comment\n\ng_max=3\nh_list=1, 3, 5\n")
        ranges = cli.parse_range_spec(str(path))
        assert ranges.g_max == 3
        assert ranges.h_list == (1, 3, 5)
        assert ranges.n_max == 8

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="key=value"):
            cli.parse_range_spec(str(path))
