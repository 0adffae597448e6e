import csv
import io

import pytest

from benford_radix.ingest import DatasetSource, IngestError, IngestStats, ingest


def run_ingest(source, text):
    stats = IngestStats()
    tokens = list(ingest(source, io.StringIO(text), stats))
    return tokens, stats


class TestDatasetSource:
    def test_csv_requires_column(self):
        with pytest.raises(ValueError, match="column"):
            DatasetSource(format="csv")

    def test_lines_forbids_column(self):
        with pytest.raises(ValueError):
            DatasetSource(format="lines", column=0)

    def test_lines_forbids_skip_header(self):
        with pytest.raises(ValueError, match="skip_header"):
            DatasetSource(format="lines", skip_header=True)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            DatasetSource(format="xlsx", column=0)


class TestPlainLines:
    def test_passthrough(self):
        tokens, stats = run_ingest(DatasetSource(format="lines"), "16\n32\n64\n")
        assert tokens == ["16", "32", "64"]
        assert stats.records == 3 and not stats.warnings()

    def test_non_numeric_skipped_with_count(self):
        tokens, stats = run_ingest(DatasetSource(format="lines"), "16\nn/a\n64\n")
        assert tokens == ["16", "64"]
        assert stats.skipped_non_numeric == 1
        assert "1 non-numeric" in stats.warnings()[0]

    def test_blank_lines_counted(self):
        tokens, stats = run_ingest(DatasetSource(format="lines"), "\n\n12\n  \n")
        assert tokens == ["12"]
        assert stats.skipped_blank == 3

    def test_exponents_within_the_bound_are_numerals(self):
        text = "1.5e3\n2E-4\n+0.0e+7\n7e0009999\n"
        tokens, stats = run_ingest(DatasetSource(format="lines"), text)
        assert tokens == ["1.5e3", "2E-4", "+0.0e+7", "7e0009999"]
        assert stats.records == 4 and not stats.warnings()

    def test_exponent_beyond_the_bound_has_its_own_count(self):
        text = "1e10000\n-2.5E-123456\n3e\ne5\n8\n"
        tokens, stats = run_ingest(DatasetSource(format="lines"), text)
        assert tokens == ["8"]
        assert stats.skipped_exponent == 2 and stats.skipped_non_numeric == 2
        assert stats.warnings() == [
            "skipped 2 non-numeric token(s)",
            "skipped 2 numeral(s) with |exponent| > 9999",
        ]

    def test_numerals_kept_verbatim(self):
        tokens, _ = run_ingest(
            DatasetSource(format="lines"), "0012.500\n-0.00312\n+7\n.5\n"
        )
        assert tokens == ["0012.500", "-0.00312", "+7", ".5"]


class TestCsv:
    def test_named_column(self):
        src = DatasetSource(format="csv", column="area")
        tokens, stats = run_ingest(src, "name,area\nvolga,335\n")
        assert tokens == ["335"]
        assert stats.records == 1

    def test_indexed_column(self):
        src = DatasetSource(format="csv", column=1)
        tokens, _ = run_ingest(src, "volga,335\ndanube,817\n")
        assert tokens == ["335", "817"]

    def test_indexed_column_with_header_skip(self):
        src = DatasetSource(format="csv", column=1, skip_header=True)
        tokens, _ = run_ingest(src, "name,area\nvolga,335\n")
        assert tokens == ["335"]

    def test_digit_string_selector_means_index(self):
        src = DatasetSource(format="csv", column="1")
        tokens, _ = run_ingest(src, "volga,335\n")
        assert tokens == ["335"]

    def test_missing_named_column(self):
        src = DatasetSource(format="csv", column="weight")
        with pytest.raises(IngestError, match="weight"):
            run_ingest(src, "name,area\nvolga,335\n")

    def test_short_row_reports_line_number(self):
        src = DatasetSource(format="csv", column=2)
        with pytest.raises(IngestError, match="line 2"):
            run_ingest(src, "a,b,c\nx,y\n")

    def test_blank_and_dirty_cells_counted(self):
        src = DatasetSource(format="csv", column="v")
        tokens, stats = run_ingest(src, "v\n42\n\n \noops\n3.14\n")
        assert tokens == ["42", "3.14"]
        assert stats.skipped_blank == 2
        assert stats.skipped_non_numeric == 1

    def test_oversized_field_reports_line_number(self):
        src = DatasetSource(format="csv", column=0)
        big = "1" * (csv.field_size_limit() + 1)
        with pytest.raises(IngestError, match="line 2"):
            run_ingest(src, f"5\n{big}\n")

    def test_negative_index_rejected(self):
        src = DatasetSource(format="csv", column=-1)
        with pytest.raises(IngestError):
            run_ingest(src, "a,b\n")

    def test_empty_csv_with_named_column(self):
        src = DatasetSource(format="csv", column="area")
        tokens, stats = run_ingest(src, "")
        assert tokens == [] and stats.records == 0
