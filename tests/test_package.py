"""The package root and the record types of its public API."""

import importlib
import re
import subprocess
import sys
import types

import pytest

import benford_radix
from benford_radix.ingest import DatasetSource, IngestStats
from benford_radix.model import BenfordPmf
from benford_radix.report import ReportDocument
from benford_radix.sequences import FastDigit, SequenceSpec
from benford_radix.stats import DigitHistogram, FitReport, LeadingOneRow

from test_cli import src_env

HOMES = [importlib.import_module(f"benford_radix.{name}")
         for name in ("digits", "ingest", "model", "sequences", "stats")]


class TestLazyRoot:
    def test_every_public_name_resolves(self):
        star = {}
        exec("from benford_radix import *", star)
        for name in benford_radix.__all__:
            value = getattr(benford_radix, name)
            assert not isinstance(value, types.ModuleType), name
            assert star[name] is value, name
            defined = [vars(m)[name] for m in HOMES if name in vars(m)]
            assert defined and all(v is value for v in defined), name

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            benford_radix.no_such_name
        with pytest.raises(ImportError):
            from benford_radix import no_such_name  # noqa: F401

    def test_bare_import_loads_no_submodule(self):
        code = ("import sys, benford_radix; "
                "print(sorted(m for m in sys.modules if m.startswith('benford_radix.')))")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("first", ["digits", "ingest"])
    def test_numeral_reader_loads_from_either_module(self, first):
        # `digits` loads `ingest`, the numeral reader, only when it reads a numeral
        code = (f"import sys, benford_radix.{first}\n"
                "print('benford_radix.ingest' in sys.modules)\n"
                "from benford_radix.digits import leading_digit_decimal_string as read\n"
                "print(read(' 0.5 ', 3), read('2.5e-3', 7))")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{first == 'ingest'}\n1 6\n"


# (type, positional arguments, every field with its value, default fields included)
RECORDS = [
    (BenfordPmf, (3, (0.6, 0.4)), {"base": 3, "probs": (0.6, 0.4)}),
    (FastDigit, (2, False), {"digit": 2, "certain": False}),
    (FitReport, (1.5, 8, 0.9, 0.004, 0.01, "close"),
     {"statistic_chi2": 1.5, "degrees_of_freedom": 8, "p_value": 0.9, "mad": 0.004,
      "max_deviation": 0.01, "verdict": "close", "warnings": ()}),
    (LeadingOneRow, (10, 13, 0.31, 0.30),
     {"base": 10, "sample_size": 13, "empirical_p1": 0.31, "asymptotic_p1": 0.30,
      "reference_p1": None}),
    (DigitHistogram, (3, (2, 1)), {"base": 3, "counts": (2, 1)}),
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
        (lambda: DigitHistogram(1, ()), "base must be between 2 and 64, got 1"),
        (lambda: DigitHistogram(3, (1,)), "need 2 counts for base 3, got 1"),
        (lambda: DigitHistogram(3, (1, -1)), "counts must be nonnegative"),
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
