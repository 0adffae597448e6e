import csv
import functools
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

import test_documents
from benford_radix import cli, logdigits, sequences
from benford_radix.cli import main
from benford_radix.digits import _leading_digit

from oracles import digit_counts, leading_digit_by_fraction_scaling
from test_digits import numeral_digit

POW2_FIRST13_TEXT = "1 2 4 8 1 3 6 1 2 5 1 2 4\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def cli_subprocess(argv, python_flags=(), **popen_kwargs):
    """Popen of the CLI in a fresh interpreter, with this checkout's src/ on the path."""
    command = [sys.executable, *python_flags, "-m", "benford_radix.cli", *argv]
    return subprocess.Popen(command, env=src_env(), **popen_kwargs)


def imported_modules(argv, python_flags=()):
    """The modules a CLI run of ``argv`` imports, as `-X importtime` names them."""
    proc = cli_subprocess(argv, [*python_flags, "-X", "importtime"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    return {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
            if line.startswith("import time:")}


def run_bounded(argv, timeout):
    """(returncode, stdout, stderr, seconds) of the CLI in a subprocess; a
    child still running after ``timeout`` seconds is killed and fails the test."""
    start = time.perf_counter()
    proc = cli_subprocess(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail(f"{' '.join(argv)[:80]} still ran after {timeout} s")
    return proc.returncode, out, err, time.perf_counter() - start


def exact_counts(spec, base, top=None):
    """`sequences.leading_digit_counts` by a tally of the big-integer walk."""
    return digit_counts(sequences.iter_leading_digits_exact(spec, base), base)[:top]


class TestSequenceCommand:
    def test_doubling_sequence(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--kind", "pow2", "--base", "10", "-n", "13")
        assert code == 0
        assert out == POW2_FIRST13_TEXT

    def test_binary_system(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--kind", "pow2", "--base", "2", "-n", "7")
        assert code == 0
        assert out == "1 1 1 1 1 1 1\n"

    @pytest.mark.parametrize("kind", ["pow2", "powa:3", "fib", "fact"])
    def test_tally_needs_no_big_integer_terms(self, kind, capsys, monkeypatch):
        argv = ["sequence", "--kind", kind, "--base", "10", "-n", "3000", "--tally"]
        monkeypatch.setattr(sequences, "leading_digit_counts", exact_counts)
        assert main(argv) == 0
        exact_doc = capsys.readouterr().out
        monkeypatch.undo()

        def no_terms(spec):
            raise RuntimeError("the certified stream built a term")

        monkeypatch.setattr(sequences, "generate", no_terms)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == exact_doc

    @pytest.mark.parametrize("argv, n", [
        ("sequence --kind pow2 -n 1000000000000000 --tally --json", 10 ** 15),
        ("table2 -n 1000000000000 --bases 2..64 --json", 10 ** 12),
        pytest.param(f"sequence --kind pow2 -n {10 ** 400} --tally --json", 10 ** 400,
                     id="pow2-10**400"),
        pytest.param(f"sequence --kind fib -n {10 ** 400} --tally --json", 10 ** 400,
                     id="fib-10**400"),
    ])
    def test_huge_n_histogram_is_fast(self, argv, n):
        # floor sums count the terms in O(log n) steps; a walk would take days
        code, out, err, elapsed = run_bounded(argv.split(), timeout=30)
        assert code == 0, err
        doc = json.loads(out)
        if "histogram" in doc:
            assert doc["histogram"]["total"] == n
        else:
            assert [r["n"] for r in doc["rows"]] == [n] * 64
        assert elapsed < 2.0

    def test_uncertified_histogram_is_refused_quickly(self, capsys, monkeypatch):
        # constants off by 2**8192 units leave every band wider than the circle
        # up to 4096 bits, the last precision tried for a 1329-bit n
        monkeypatch.setattr(logdigits, "_FP_CONST_ERR", 1 << 8192)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sequence", "--kind", "fib", "-n", str(10 ** 400),
                                 "--tally")
        assert code == 1 and out == ""
        assert err.startswith("benford-radix: error: ") and err.count("\n") == 1, err
        assert "1329-bit n" in err and "not certified at 4096 bits" in err
        assert time.perf_counter() - start < 2.0

    def test_digits_above_nine_use_brackets(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--kind", "powa:12", "--base", "16", "-n", "2")
        assert code == 0
        assert out == "1 [12]\n"

    def test_json_digit_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequence", "--kind", "pow2", "--base", "10", "-n", "13", "--json"
        )
        doc = json.loads(out)
        assert doc["mode"] == "sequence" and doc["base"] == 10
        assert doc["digits"] == [1, 2, 4, 8, 1, 3, 6, 1, 2, 5, 1, 2, 4]
        assert doc["warnings"] == []

    def test_tally_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "sequence", "--kind", "pow2", "--base", "10", "-n", "13",
            "--tally", "--json",
        )
        doc = json.loads(out)
        assert doc["histogram"] == {
            "base": 10,
            "total": 13,
            "counts": [4, 3, 1, 2, 1, 1, 0, 1, 0],
        }

    def test_emit_values(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--kind", "pow2", "--base", "10", "-n", "5",
                               "--emit-values")
        assert code == 0
        assert out == "1\n2\n4\n8\n16\n"

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_emit_values_takes_no_format(self, capsys, flag):
        code, out, err = run_cli(capsys, "sequence", "--kind", "pow2", "-n", "5",
                                 "--emit-values", flag)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("benford-radix: error: ")

    def test_emit_values_past_the_int_string_limit(self):
        # 2**19999 has 6021 digits, past the default 4300-digit str() limit
        proc = cli_subprocess(
            ["sequence", "--kind", "pow2", "-n", "20000", "--emit-values"],
            stdout=subprocess.PIPE,
        )
        count, last = 0, b""
        for line in proc.stdout:
            count, last = count + 1, line
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert count == 20000
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            assert last.decode() == str(2 ** 19999) + "\n"
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    def test_emit_values_restores_the_int_string_limit(self, capsys):
        # cli.main also runs in process: the lifted limit must not outlive the command
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no int-to-str digit limit")
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, out, _ = run_cli(capsys, "sequence", "--kind", "pow2", "-n", "5",
                                   "--emit-values")
            assert code == 0 and out == "1\n2\n4\n8\n16\n"
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)

    def test_fib_and_fact_kinds(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "--kind", "fib", "-n", "7", "--json")
        assert json.loads(out)["digits"] == [1, 1, 2, 3, 5, 8, 1]
        code, out, _ = run_cli(capsys, "sequence", "--kind", "fact", "-n", "5", "--json")
        assert json.loads(out)["digits"] == [1, 2, 6, 2, 1]

    def test_unknown_kind_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "sequence", "--kind", "primes", "-n", "5")
        assert code == 1
        assert "unknown sequence kind" in err

    def test_tally_and_emit_values_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "sequence", "--kind", "pow2", "-n", "5", "--tally", "--emit-values"
        )
        assert code == 1

    @pytest.mark.parametrize("argv", [
        "sequence --kind pow2 -n 3000 --tally",
        "sequence --kind fib -n 300 --tally",
        "sequence --kind fact -n 300 --tally",
        "sequence --kind powa:3 --base 7 -n 300",
        "table2 -n 300 --bases 2..64",
    ])
    def test_sequence_engine_builds_no_digit_objects(self, argv, capsys, monkeypatch):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 0 and err == ""
        # the same document from the exact big-integer route
        monkeypatch.setattr(sequences, "iter_leading_digits", sequences.iter_leading_digits_exact)
        monkeypatch.setattr(sequences, "leading_digit_counts", exact_counts)
        assert run_cli(capsys, *argv.split()) == (0, out, "")


class TestPmfCommand:
    def test_base10_includes_reference_and_delta(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--base", "10", "--json")
        doc = json.loads(out)
        rows = doc["rows"]
        assert len(rows) == 9
        assert rows[0] == {
            "digit": 1, "p": 0.30103, "reference": 0.306, "delta": -0.0049700,
        }

    def test_other_base_is_theory_only(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--base", "3", "--json")
        rows = json.loads(out)["rows"]
        assert rows == [{"digit": 1, "p": 0.63093}, {"digit": 2, "p": 0.36907}]

    def test_base2_point_mass(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--base", "2", "--json")
        assert json.loads(out)["rows"] == [{"digit": 1, "p": 1.0}]

    def test_out_of_range_base(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--base", "65")
        assert code == 1


class TestTable1Command:
    def test_text_has_all_digits_and_footer(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["digit", "theory", "reference", "delta"]
        assert len(lines) == 11  # header + 9 rows + max-delta footer
        assert lines[-1].startswith("max |delta| = 0.008909")

    def test_json_deltas_within_a_percent(self, capsys):
        _, out, _ = run_cli(capsys, "table1", "--json")
        rows = json.loads(out)["rows"]
        assert max(abs(r["delta"]) for r in rows) <= 0.01


class TestTable2Command:
    def test_thirteen_terms(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "-n", "13", "--json")
        doc = json.loads(out)
        assert doc["bases"] == [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, "inf"]
        rows = {r["base"]: r for r in doc["rows"]}
        assert rows[2]["empirical_p1"] == 1.0
        assert rows[10]["empirical_p1"] == pytest.approx(4 / 13, abs=1e-6)
        assert rows[10]["reference_p1"] == 0.31
        assert rows["inf"]["empirical_p1"] == pytest.approx(1 / 13, abs=1e-6)
        assert rows["inf"]["reference_p1"] == 0.0

    def test_text_mode_shows_infinite_row(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "-n", "13")
        assert out.strip().splitlines()[-1].startswith("inf")

    def test_bases_range_flag(self, capsys):
        _, out, _ = run_cli(capsys, "table2", "-n", "4", "--bases", "7..9", "--json")
        assert json.loads(out)["bases"] == [7, 8, 9, "inf"]

    def test_single_base(self, capsys):
        _, out, _ = run_cli(capsys, "table2", "-n", "4", "--bases", "10", "--json")
        assert json.loads(out)["bases"] == [10, "inf"]

    def test_seq_base_flag_drops_reference(self, capsys):
        _, out, _ = run_cli(
            capsys, "table2", "-n", "10", "--bases", "10", "--seq-base", "3", "--json"
        )
        rows = json.loads(out)["rows"]
        assert all(r["reference_p1"] is None for r in rows)

    @pytest.mark.parametrize("bases, message", [
        ("9..7", "bad base range '9..7': 9 > 7"),
        ("\u00b2", "bad --bases value '\u00b2': expected <lo>..<hi>"),
        ("2..12\n", "bad --bases value '2..12\\n': expected <lo>..<hi>"),
        # int() alone would read fullwidth digits
        ("\uff12..\uff15", "bad --bases value '\uff12..\uff15': expected <lo>..<hi>"),
        ("2..", "bad --bases value '2..': expected <lo>..<hi>"),
        ("..5", "bad --bases value '..5': expected <lo>..<hi>"),
        ("2...5", "bad --bases value '2...5': expected <lo>..<hi>"),
        ("a..b", "bad --bases value 'a..b': expected <lo>..<hi>"),
    ], ids=["9..7", "superscript-two", "trailing-newline", "fullwidth", "no-hi", "no-lo",
            "three-dots", "letters"])
    def test_bad_range(self, capsys, bases, message):
        code, out, err = run_cli(capsys, "table2", "-n", "5", "--bases", bases)
        assert (code, out, err) == (1, "", f"benford-radix: error: {message}\n")

    def test_sample_size_past_the_float_range(self, capsys):
        code, out, err = run_cli(capsys, "table2", "-n", str(2 ** 1024), "--bases", "2..2",
                                 "--json")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert rows[0]["empirical_p1"] == 1.0 and 0 < rows[1]["empirical_p1"] < 1e-300

    @pytest.mark.parametrize("seq_base", ["1", "0"])
    def test_bad_seq_base(self, seq_base, capsys):
        code, out, err = run_cli(capsys, "table2", "-n", "5", "--seq-base", seq_base)
        assert code == 1 and out == ""
        assert "powers sequence needs an integer base >= 2" in err

    def test_wide_range_is_refused_before_it_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="between 2 and 64"):
                cli._parse_bases("2..1000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestAnalyzeCommand:
    def test_plain_lines(self, capsys, tmp_path):
        data = tmp_path / "vals.txt"
        data.write_text("16\n32\n64\nn/a\n0.00\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", str(data), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "analyze" and doc["base"] == 10
        assert doc["histogram"]["total"] == 3
        assert doc["histogram"]["counts"][0] == 1  # 16
        assert doc["histogram"]["counts"][2] == 1  # 32
        assert doc["histogram"]["counts"][5] == 1  # 64
        assert any("non-numeric" in w for w in doc["warnings"])
        assert any("zero" in w for w in doc["warnings"])
        assert doc["fit"]["df"] == 8

    def test_csv_named_column(self, capsys, tmp_path):
        data = tmp_path / "rivers.csv"
        data.write_text("name,area\nvolga,335\nnile,3349000\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "analyze", str(data), "--format", "csv", "--column", "area", "--json"
        )
        doc = json.loads(out)
        assert doc["histogram"]["counts"][2] == 2  # both start with 3

    @pytest.mark.parametrize("text, column, counts, flags", [
        ("name,2019\nvolga,335\nnile,3349000\n", "2019", [0, 0, 2], ()),  # too short: a name
        ("a,1,b\n5,23,9\n1,45,2\n", "1", [1, 1, 0, 1], ()),  # wide enough: index 1
        ("a,\u00b2\n1,23\n4,5\n", "\u00b2", [0, 1, 0, 0, 1], ()),  # "²".isdigit(), no index
        ("a,\u00b2\n1,23\n4,5\n", "\u00b2", [0, 1, 0, 0, 1], ("--skip-header",)),
    ], ids=["header-name", "index", "superscript", "superscript-skip-header"])
    def test_all_digit_column(self, text, column, counts, flags, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "analyze", str(data), "--format", "csv", "--column", column, *flags, "--json"
        )
        assert code == 0, err
        assert json.loads(out)["histogram"]["counts"][:len(counts)] == counts

    def test_matches_direct_string_scan(self, capsys, tmp_path):
        numerals = ["0.00312", "-712", "4964", "3.14", "0012", ".5", "900001"]
        data = tmp_path / "mixed.txt"
        data.write_text("\n".join(numerals) + "\n", encoding="utf-8")
        _, out, _ = run_cli(capsys, "analyze", str(data), "--json")
        doc = json.loads(out)
        direct = digit_counts([numeral_digit(s, 10) for s in numerals], 10)
        assert doc["histogram"]["counts"] == list(direct)

    def test_non_decimal_base_uses_exact_rationals(self, capsys, tmp_path):
        data = tmp_path / "vals.txt"
        data.write_text("0.5\n2\n9\n", encoding="utf-8")
        _, out, _ = run_cli(capsys, "analyze", str(data), "--base", "3", "--json")
        doc = json.loads(out)
        # 0.5 -> 1, 2 -> 2, 9 -> 1 in ternary
        assert doc["histogram"]["counts"] == [2, 1]
        assert doc["fit"] is None or doc["fit"]["df"] == 1

    def test_base2_has_no_fit(self, capsys, tmp_path):
        data = tmp_path / "vals.txt"
        data.write_text("3\n5\n", encoding="utf-8")
        _, out, _ = run_cli(capsys, "analyze", str(data), "--base", "2", "--json")
        doc = json.loads(out)
        assert doc["fit"] is None
        assert any("chi-square fit undefined" in w for w in doc["warnings"])

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_csv_without_column_is_validation_error(self, capsys, tmp_path):
        data = tmp_path / "x.csv"
        data.write_text("1,2\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "analyze", str(data), "--format", "csv")
        assert code == 1

    def test_undecodable_bytes_are_io_error(self, capsys, tmp_path):
        data = tmp_path / "binary.dat"
        data.write_bytes(b"\xff\xfe\x00\x01")
        code, _, err = run_cli(capsys, "analyze", str(data))
        assert code == 2

    @pytest.mark.parametrize("fmt", ["lines", "csv"])
    def test_undecodable_byte_names_its_input_offset(self, capsys, tmp_path, fmt):
        data = tmp_path / "bad.dat"
        data.write_bytes(b"1\n" * 100_000 + b"\xff\n")
        flags = ["--format", "csv", "--column", "1"] if fmt == "csv" else []
        code, _, err = run_cli(capsys, "analyze", str(data), *flags)
        assert code == 2
        assert err == ("benford-radix: error: 'utf-8' codec can't decode b'\\xff' "
                       "at input offset 200000: invalid start byte\n")

    def test_undecodable_byte_of_a_pipe_names_no_offset(self):
        proc = cli_subprocess(["analyze", "-"], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        _, err = proc.communicate(b"1\n" * 100_000 + b"\xff\n", timeout=60)
        assert proc.returncode == 2
        assert err == b"benford-radix: error: 'utf-8' codec can't decode b'\\xff': invalid start byte\n"

    def test_empty_file_warns(self, capsys, tmp_path):
        data = tmp_path / "empty.txt"
        data.write_text("", encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", str(data), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["fit"] is None
        assert any("no usable records" in w for w in doc["warnings"])

    def test_bom_keeps_the_first_line(self, capsys, tmp_path):
        data = tmp_path / "bom.txt"
        data.write_text("\ufeff16\n32\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", str(data), "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["histogram"]["total"] == 2
        assert not any("non-numeric" in w for w in doc["warnings"])

    def test_bom_keeps_the_header_name(self, capsys, tmp_path):
        data = tmp_path / "rivers.csv"
        data.write_text("\ufeffarea,name\n335,volga\n3349000,nile\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "analyze", str(data), "--format", "csv", "--column", "area", "--json"
        )
        assert code == 0, err
        assert json.loads(out)["histogram"]["counts"][2] == 2

    @pytest.mark.parametrize("base", [10, 7])
    def test_numerals_past_the_int_string_limit(self, base, capsys, tmp_path):
        body = "".join(str(i * i % 10) for i in range(1, 5001))
        numerals = [body, "-0.000" + body[3:], body[:2500] + "." + body[2500:]]
        data = tmp_path / "long.txt"
        data.write_text("\n".join(numerals) + "\n", encoding="utf-8")
        argv = ["analyze", str(data), "--base", str(base), "--json"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        expected = [0] * (base - 1)
        for s in numerals:
            whole, _, frac = s.lstrip("-").partition(".")
            # digit by digit, so the oracle never converts a long string with int()
            p = functools.reduce(lambda acc, ch: acc * 10 + int(ch), whole + frac, 0)
            d = leading_digit_by_fraction_scaling(p, 10 ** len(frac), base)
            expected[d - 1] += 1
        assert json.loads(out)["histogram"]["counts"] == expected

    @pytest.mark.parametrize("base", [10, 3, 7])
    def test_exponent_notation(self, base, capsys, tmp_path):
        # value -> (digits, k) of digits/10**k; the last two are refused
        numerals = {"1.5e3": ("15", -2), "2E-4": ("2", 4), "+0.0e+7": ("00", 1),
                    "-.5e-9999": ("5", 10000), "300": ("300", 0), "1e10000": None, "5e-99999": None}
        data = tmp_path / "exp.txt"
        data.write_text("\n".join(numerals) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(data), "--base", str(base), "--json")
        assert code == 0, err
        doc = json.loads(out)
        expected = [0] * (base - 1)
        for case in numerals.values():
            if case is not None and int(case[0]):
                p, k = int(case[0]), case[1]
                p, q = (p, 10**k) if k >= 0 else (p * 10**-k, 1)
                expected[leading_digit_by_fraction_scaling(p, q, base) - 1] += 1
        assert doc["histogram"]["counts"] == expected
        assert "skipped 2 numeral(s) with |exponent| > 9999" in doc["warnings"]
        assert "skipped 1 zero value(s)" in doc["warnings"]

    @pytest.mark.parametrize("base", [3, 7])
    def test_huge_numerals_finish_quickly(self, base, capsys, tmp_path):
        body = "".join(str(i * i % 10) for i in range(3, 20003))
        data = tmp_path / "huge.txt"
        # and 40 integer digits with 10**6 fraction digits: x >= 1 is read from its integer part
        data.write_text(f"{body}\n1e-9999\n{body[:40]}.{body * 50}\n", encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", str(data), "--base", str(base), "--json")
        elapsed = time.perf_counter() - start
        assert code == 0, err
        expected = [0] * (base - 1)
        p = int(Decimal(body))  # Decimal reads past int()'s digit limit
        for d in (_leading_digit(p, 1, base), _leading_digit(1, 10**9999, base),
                  _leading_digit(int(body[:40]), 1, base)):
            expected[d - 1] += 1
        assert json.loads(out)["histogram"]["counts"] == expected
        assert elapsed < 5  # about 0.05 s; the bound only catches a blow-up

    def test_stdin_with_bom_matches_the_file(self, capsys, tmp_path, monkeypatch):
        table = 'area,name\r\n335,"volga\r\nriver"\r\n3349000,nile\r\n0,x\r\n'
        data = tmp_path / "rivers.csv"
        data.write_bytes(table.encode("utf-8"))
        flags = ["--format", "csv", "--column", "area", "--base", "7", "--json"]
        code, from_file, _ = run_cli(capsys, "analyze", str(data), *flags)
        assert code == 0
        stdin = io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf" + table.encode("utf-8")))
        monkeypatch.setattr(sys, "stdin", stdin)
        code, from_stdin, err = run_cli(capsys, "analyze", "-", *flags)
        assert code == 0, err
        assert from_stdin == from_file
        assert not stdin.closed

    def test_skip_header_needs_csv(self, capsys, tmp_path):
        data = tmp_path / "vals.txt"
        data.write_text("value\n16\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(data), "--skip-header")
        assert code == 1 and out == ""
        assert "skip_header is only valid for csv input" in err

    @pytest.mark.parametrize(
        "command", ["analyze {lines}", "analyze {csv} --format csv --column area --base 7"]
    )
    def test_records_build_no_digit_objects(self, command, tmp_path):
        golden = json.loads(test_documents.GOLDEN.read_text(encoding="utf-8"))
        inputs = test_documents._write_inputs(tmp_path)
        for fmt in test_documents.FORMATS:
            got = test_documents._stdout(command, fmt, inputs)
            assert got == golden[f"{command} [{fmt}]"]

    def test_oversized_csv_field_is_validation_error(self, capsys, tmp_path):
        data = tmp_path / "wide.csv"
        big = "1" * (csv.field_size_limit() + 1)
        data.write_text(f"area\n5\n{big}\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "analyze", str(data), "--format", "csv", "--column", "area"
        )
        assert code == 1
        assert err.startswith("benford-radix: error: ") and "line 3" in err


class TestRoundTrip:
    def test_analyze_reproduces_tally_byte_identically(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys, "sequence", "--kind", "pow2", "--base", "10", "-n", "200",
            "--emit-values",
        )
        data = tmp_path / "pow2.txt"
        data.write_text(out, encoding="utf-8")

        _, tally_out, _ = run_cli(
            capsys, "sequence", "--kind", "pow2", "--base", "10", "-n", "200",
            "--tally", "--json",
        )
        _, analyze_out, _ = run_cli(capsys, "analyze", str(data), "--json")
        tally_doc = json.loads(tally_out)
        analyze_doc = json.loads(analyze_out)
        assert json.dumps(tally_doc["histogram"]) == json.dumps(
            analyze_doc["histogram"]
        )


def run_script(*argv):
    script = Path(cli.__file__).parents[2] / "scripts" / "pow2_convergence.py"
    return subprocess.run([sys.executable, str(script), *argv],
                          env=src_env(), capture_output=True, text=True, timeout=60)


class TestScripts:
    def test_pow2_convergence_runs(self):
        proc = run_script("--sizes", "100,1000")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "       N         MAD     max dev        chi2    p-value  verdict\n"
            "     100    0.003879    0.009181      0.2210     1.0000  close\n"
            "    1000    0.000678    0.002053      0.1586     1.0000  close\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["--base", "2"], "degrees of freedom must be >= 1, got 0"),
        (["--base", "65"], "base must be between 2 and 64, got 65"),
        (["--sizes", "100,0"], "length must be an integer >= 1, got 0"),
    ], ids=["base2", "base65", "size0"])
    def test_pow2_convergence_refuses_bad_input(self, argv, message):
        # argparse's refusal: its usage line, then one error line, no traceback
        proc = run_script(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        usage, error = proc.stderr.splitlines()
        assert usage.startswith("usage: pow2_convergence.py")
        assert error == f"pow2_convergence.py: error: {message}"


class TestCliContract:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_is_io_error(self, unbuffered):
        # Unbuffered, CPython's text layer ignores the short count of a raw
        # write cut off by the closed pipe, so main writes the bytes itself.
        src = Path(cli.__file__).parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "benford_radix.cli", "sequence", "--kind", "pow2", "-n", "200000"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(8) == b"1 2 4 8 "
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.startswith("benford-radix: error: ") and err.count("\n") == 1
        assert "Broken pipe" in err

    @pytest.mark.parametrize("argv, closed", [(["analyze", "-"], "<&-"), (["pmf"], ">&-")],
                             ids=["stdin-analyze", "stdout-pmf"])
    def test_closed_stdio_is_io_error(self, argv, closed):
        # the shell closes the descriptor, so Python starts with sys.stdin or sys.stdout None
        command = ["sh", "-c", f'exec "$0" -m benford_radix.cli "$@" {closed}', sys.executable]
        proc = subprocess.run(command + argv, env=src_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("benford-radix: error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["pmf"],
        ["sequence", "--kind", "fact", "-n", "100", "--tally"],
        ["analyze", "{path}"],
        ["analyze", "{path}", "--base", "7"],
        ["analyze", "{path}", "--csv"],
        ["analyze", "{path}", "--format", "csv", "--column", "0", "--base", "7"],
        ["table1", "--csv"],
        ["table2", "-n", "100", "--json"],
        ["sequence", "--kind", "pow2", "-n", "20"],
        ["table1"],
    ])
    def test_decimal_is_never_imported(self, argv, tmp_path):
        # start-up budget: each command loads only the modules it runs
        data = tmp_path / "small.txt"
        data.write_text("1\n22\n0.333\n-4e2\n", encoding="utf-8")
        argv = [a.format(path=data) for a in argv]
        modules = imported_modules(argv)
        assert "benford_radix.digits" in modules
        assert not {"decimal", "_decimal", "_pydecimal", "dataclasses", "inspect"} & modules
        engine = {"benford_radix.sequences", "benford_radix.logdigits"}
        if argv[0] in ("sequence", "table2"):
            assert engine <= modules
        else:
            assert not engine & modules
        assert ("benford_radix.ingest" in modules) == (argv[0] == "analyze")
        assert ("benford_radix.stats" in modules) == (argv[0] in ("table2", "analyze"))
        for law in ("benford_radix.model", "benford_radix.reference"):
            assert (law in modules) == (argv[0] != "sequence"), law
        # json loads only for a JSON document, csv only for a CSV dataset
        assert ("json" in modules) == ("--json" in argv)
        dataset = argv[argv.index("--format") + 1] if "--format" in argv else "lines"
        assert ("csv" in modules) == (dataset == "csv")
        # no module imports typing, and argv is read without argparse; -S, because
        # a site .pth file may import them before the program starts
        bare = imported_modules(argv, ["-S"])
        assert not {"typing", "argparse", "gettext", "locale", "shutil"} & bare
        # re is for the numeral grammar of ingest, and json's own decoder
        assert ("re" in bare) == (argv[0] == "analyze" or "--json" in argv)

    @pytest.mark.parametrize("argv, message", [
        ("pmf --wat", "unrecognized arguments: --wat"),
        ("frobnicate", "argument command: invalid choice: 'frobnicate' (choose from 'pmf', "
                       "'sequence', 'table1', 'table2', 'analyze')"),
        ("", "the following arguments are required: command"),
        ("sequence --kind pow2", "the following arguments are required: -n"),
        ("analyze", "the following arguments are required: path"),
        ("analyze a b", "unrecognized arguments: b"),
        ("table1 --json --csv", "argument --csv: not allowed with argument --json"),
        ("sequence --kind pow2 -n 5 --emit-values --tally",
         "argument --tally: not allowed with argument --emit-values"),
        ("pmf --base x", "argument --base: invalid int value: 'x'"),
        ("analyze f --format xml",
         "argument --format: invalid choice: 'xml' (choose from 'lines', 'csv')"),
        ("pmf --base", "argument --base: expected one argument"),
        ("pmf --json=1", "argument --json: ignored explicit argument '1'"),
        # no prefixes of an option, no value joined to a short one, no "--" separator
        ("pmf --bas 7", "unrecognized arguments: --bas 7"),
        ("table2 -n5", "the following arguments are required: -n"),
        ("pmf -- --base 7", "unrecognized arguments: --"),
        pytest.param(f"pmf --base {'9' * 5000}", f"argument --base: invalid int value: "
                     f"'{'9' * 5000}'", id="past-the-int-string-limit",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="this Python has no int-to-str digit limit")),
    ])
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1 and out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: benford-radix ")
        assert error == f"benford-radix: error: {message}"

    @pytest.mark.parametrize("argv, same", [
        (["pmf", "--base=7"], "pmf --base 7"),
        (["table2", "-n", " 7"], "table2 -n 7"),
        (["table2", "-n", "+7", "--bases=2..3"], "table2 -n 7 --bases 2..3"),
        (["table2", "-n", "1_0"], "table2 -n 10"),
        (["pmf", "--base", "3", "--base", "5"], "pmf --base 5"),
    ])
    def test_option_spellings(self, capsys, argv, same):
        # values go through int() as they are, and the last of a repeated option wins
        first = run_cli(capsys, *argv)
        assert first == run_cli(capsys, *same.split()) and first[0] == 0

    @pytest.mark.parametrize("argv, message", [
        ("pmf --base -3", "base must be between 2 and 64, got -3"),
        ("sequence --kind pow2 -n -5", "length must be an integer >= 1, got -5"),
    ])
    def test_negative_values_reach_the_domain_checks(self, capsys, argv, message):
        assert run_cli(capsys, *argv.split()) == (1, "", f"benford-radix: error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["pmf", "--help"], ["sequence", "--help"], ["table1", "--help"],
        ["table2", "--help"], ["analyze", "--help"], ["table2", "-n", "x", "-h"],
    ])
    def test_help(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        usage = out.splitlines()[0]
        assert usage.startswith("usage: benford-radix ")
        if argv[0] in cli._COMMANDS:
            # the usage line names each option and positional of the command's table entry
            _, _, positionals, options = cli._COMMANDS[argv[0]]
            assert {*positionals, *options} <= {word.strip("[]") for word in usage.split()}
        else:
            assert all(f"\n  {name} " in out for name in cli._COMMANDS)

    def test_unknown_flag_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "pmf", "--wat")
        assert code == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_json_and_csv_conflict(self, capsys):
        code, _, _ = run_cli(capsys, "table1", "--json", "--csv")
        assert code == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "table2", "-n", "50", "--json")
        _, second, _ = run_cli(capsys, "table2", "-n", "50", "--json")
        assert first == second

    def test_csv_rendering(self, capsys):
        _, out, _ = run_cli(capsys, "pmf", "--base", "3", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "digit,p"
        assert lines[1] == "1,0.63093"
        assert lines[2] == "2,0.36907"

    def test_csv_histogram(self, capsys, tmp_path):
        data = tmp_path / "v.txt"
        data.write_text("5\n5\n", encoding="utf-8")
        _, out, _ = run_cli(capsys, "analyze", str(data), "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "digit,count,frequency"
        assert lines[5] == "5,2,1"

    def test_schema_stable_keys(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "pmf", "--base", "5", "--json")
        assert list(json.loads(out)) == ["mode", "base", "rows", "warnings"]
        _, out, _ = run_cli(capsys, "table2", "-n", "3", "--json")
        assert list(json.loads(out)) == ["mode", "bases", "rows", "warnings"]
        _, out, _ = run_cli(capsys, "sequence", "--kind", "fib", "-n", "3", "--json")
        assert list(json.loads(out)) == ["mode", "base", "digits", "warnings"]
        _, out, _ = run_cli(
            capsys, "sequence", "--kind", "fib", "-n", "3", "--tally", "--json"
        )
        assert list(json.loads(out)) == ["mode", "base", "histogram", "warnings"]
        data = tmp_path / "v.txt"
        data.write_text("5\n", encoding="utf-8")
        _, out, _ = run_cli(capsys, "analyze", str(data), "--json")
        assert list(json.loads(out)) == [
            "mode", "base", "histogram", "fit", "warnings",
        ]

    def test_six_significant_digit_reals(self, capsys):
        _, out, _ = run_cli(capsys, "table2", "-n", "13", "--json")
        row10 = [r for r in json.loads(out)["rows"] if r["base"] == 10][0]
        assert row10["empirical_p1"] == 0.307692
