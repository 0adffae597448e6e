import csv
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import test_documents
from benford_radix import cli, digits, sequences
from benford_radix.cli import main
from benford_radix.digits import leading_digit_decimal_string
from benford_radix.stats import tally

from oracles import leading_digit_by_fraction_scaling

POW2_FIRST13_TEXT = "1 2 4 8 1 3 6 1 2 5 1 2 4\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        monkeypatch.setattr(cli, "iter_leading_digits", sequences.iter_leading_digits_exact)
        assert main(argv) == 0
        exact_doc = capsys.readouterr().out
        monkeypatch.undo()

        def no_terms(spec):
            raise RuntimeError("the certified stream built a term")

        monkeypatch.setattr(sequences, "generate", no_terms)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == exact_doc

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

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "table2", "-n", "5", "--bases", "9..7")
        assert code == 1


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

    def test_matches_direct_string_scan(self, capsys, tmp_path):
        numerals = ["0.00312", "-712", "4964", "3.14", "0012", ".5", "900001"]
        data = tmp_path / "mixed.txt"
        data.write_text("\n".join(numerals) + "\n", encoding="utf-8")
        _, out, _ = run_cli(capsys, "analyze", str(data), "--json")
        doc = json.loads(out)
        direct = tally([leading_digit_decimal_string(s, 10) for s in numerals], 10)
        assert doc["histogram"]["counts"] == list(direct.counts)

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
    def test_records_build_no_digit_objects(self, command, monkeypatch, tmp_path):
        def no_digit(cls, value, base):
            raise RuntimeError("analyze built a Digit")

        monkeypatch.setattr(digits.Digit, "__new__", no_digit)
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


class TestCliContract:
    def test_closed_stdout_pipe_is_io_error(self):
        # Unbuffered, CPython's text layer ignores the short count of a raw
        # write cut off by the closed pipe; Python buffers a pipe by default.
        src = Path(cli.__file__).parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
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
