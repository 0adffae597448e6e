"""The package root and the record types of its public API."""

import re
import subprocess
import sys

import pytest

from benford_radix.ingest import DatasetSource, IngestStats
from benford_radix.report import ReportDocument
from benford_radix.sequences import FastDigit, SequenceSpec

from test_cli import src_env


class TestLazyRoot:
    def test_bare_import_loads_no_submodule(self):
        code = ("import sys, benford_radix; "
                "print(sorted(m for m in sys.modules if m.startswith('benford_radix.')))")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


# (type, positional arguments, every field with its value, default fields included)
RECORDS = [
    (FastDigit, (2, False), {"digit": 2, "certain": False}),
    (SequenceSpec, ("factorial", 5), {"kind": "factorial", "length": 5, "power_base": None}),
    (DatasetSource, ("lines",), {"format": "lines", "column": None, "skip_header": False}),
]


class TestRecords:
    @pytest.mark.parametrize("cls, args, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_frozen_record(self, cls, args, fields):
        record = cls(*args)
        assert record == cls(**fields) and hash(record) == hash(cls(**fields))
        assert {name: getattr(record, name) for name in fields} == fields
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])

    def test_ingest_stats_counts_from_zero(self):
        stats = IngestStats()
        assert vars(stats) == {"records": 0, "skipped_blank": 0,
                               "skipped_non_numeric": 0, "skipped_exponent": 0}
        stats.records += 2
        stats.skipped_exponent += 1
        assert stats == IngestStats(2, 0, 0, 1) == IngestStats(records=2, skipped_exponent=1)
        assert stats != IngestStats()

    def test_report_document_defaults(self):
        doc = ReportDocument("pmf", 10)
        assert doc == ReportDocument(mode="pmf", base=10, bases=None, payload={}, warnings=[])
        doc.warnings.append("w")
        assert ReportDocument("pmf").warnings == []  # no shared default

    @pytest.mark.parametrize("build, message", [
        (lambda: SequenceSpec("primes", 5), "unknown sequence kind 'primes'"),
        (lambda: SequenceSpec("powers", 0, 2), "length must be an integer >= 1, got 0"),
        (lambda: SequenceSpec("powers", 5, 1), "powers sequence needs an integer base >= 2"),
        (lambda: SequenceSpec("factorial", 5, 2),
         "power_base is only valid for powers, not factorial"),
        (lambda: DatasetSource("xlsx", 0), "format must be 'csv' or 'lines', got 'xlsx'"),
        (lambda: DatasetSource("csv"), "csv ingestion requires a column selector"),
        (lambda: DatasetSource("lines", 0), "column selector is only valid for csv input"),
        (lambda: DatasetSource("lines", None, True), "skip_header is only valid for csv input"),
    ])
    def test_validation_messages(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
