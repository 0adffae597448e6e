"""Dataset ingestion: first-digit counts of the numerals in a byte stream.

`scan` is the one reader. It decides how a dataset is opened: UTF-8 with an
optional BOM, universal newlines for plain lines and csv's own newline
handling for CSV. Numerals are read as strings; nothing is ever routed
through binary floating point, so the digit statistics stay exact. Dirty
records (blanks, non-numeric tokens, exponents past the grammar's bound) are
skipped and counted, not fatal.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from itertools import chain, islice
from typing import BinaryIO, Iterable, Iterator, NamedTuple, TextIO

from .digits import MAX_EXPONENT_DIGITS, NUMERAL, _numeral_digit, exponent_out_of_range

_CHUNK, _BATCH = 8192, 256  # characters of a lines file, rows of a CSV, read at a time


class IngestError(ValueError):
    """Structurally malformed input (e.g. a CSV row missing the selected column)."""


class _Source(NamedTuple):
    format: str
    column: int | str | None
    skip_header: bool


class DatasetSource(_Source):
    """How to read records: plain lines, or one column of a CSV.

    ``column`` selects by 0-based index (int) or by header name (str); it is
    required for csv and meaningless for lines. A named column implies the
    first row is a header.
    """

    __slots__ = ()

    def __new__(cls, format: str, column: int | str | None = None, skip_header: bool = False):
        if format not in ("csv", "lines"):
            raise ValueError(f"format must be 'csv' or 'lines', got {format!r}")
        if format == "csv" and column is None:
            raise ValueError("csv ingestion requires a column selector")
        if format == "lines" and column is not None:
            raise ValueError("column selector is only valid for csv input")
        if format == "lines" and skip_header:
            raise ValueError("skip_header is only valid for csv input")
        return super().__new__(cls, format, column, skip_header)


class IngestStats:
    """Counters of the records `scan` read and skipped."""

    # every record bumps a counter: plain attributes, which bump about 3x
    # faster than those of a SimpleNamespace
    def __init__(self, records=0, skipped_blank=0, skipped_non_numeric=0, skipped_exponent=0):
        self.records = records
        self.skipped_blank = skipped_blank
        self.skipped_non_numeric = skipped_non_numeric
        self.skipped_exponent = skipped_exponent

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def warnings(self) -> list[str]:
        out = []
        if self.skipped_blank:
            out.append(f"skipped {self.skipped_blank} blank field(s)")
        if self.skipped_non_numeric:
            out.append(f"skipped {self.skipped_non_numeric} non-numeric token(s)")
        if self.skipped_exponent:
            bound = 10**MAX_EXPONENT_DIGITS - 1
            out.append(f"skipped {self.skipped_exponent} numeral(s) with |exponent| > {bound}")
        return out


def _skip(text: str, stats: IngestStats, n: int = 1) -> None:
    """Count ``n`` stripped records that `NUMERAL` refused."""
    if not text:
        stats.skipped_blank += n
    elif exponent_out_of_range(text):
        stats.skipped_exponent += n
    else:
        stats.skipped_non_numeric += n


def _fields(source: DatasetSource, lines: Iterable[str]) -> Iterator[list[str]]:
    """The selected fields of the CSV rows of ``lines``, _BATCH rows at a
    time; "" for an empty row."""
    reader = rows = csv.reader(lines)
    column = source.column
    try:
        if isinstance(column, str) and column.isdigit():
            # an index, unless the first row is too short for it but holds it as a name
            first = next(rows, None)
            if first is None:
                return
            if source.skip_header or int(column) < len(first) or column not in first:
                column = int(column)
            rows = chain([first], rows)
        if isinstance(column, str):
            header = next(rows, None)
            if header is None:
                return
            if column not in header:
                raise IngestError(f"column {column!r} not found in header {header!r}")
            index = header.index(column)
        else:
            index = int(column)
            if index < 0:
                raise IngestError(f"column index must be >= 0, got {index}")
            if source.skip_header:
                next(rows, None)
        while fields := [row[index] if row else "" for row in islice(rows, _BATCH)]:
            yield fields
    except IndexError:  # the row just read is too short
        raise IngestError(
            f"row at line {reader.line_num} has no column {source.column!r}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise IngestError(f"CSV error at line {reader.line_num}: {exc}") from None


def _lines(fh: TextIO) -> Iterator[str]:
    """Whole lines of ``fh``, about _CHUNK characters at a time, all ended by "\\n"."""
    parts = []
    while chunk := fh.read(_CHUNK):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join(parts) + chunk[:cut]
            parts.clear()
        parts.append(chunk[cut:])
    if tail := "".join(parts):
        yield tail + "\n"


def scan(
    source: DatasetSource, stream: BinaryIO, base: int, stats: IngestStats
) -> tuple[int, ...]:
    """Counts of the first digits 1..base-1 of the usable records of the
    byte ``stream``, with ``stats`` filled in. Each record is parsed once: the
    match that validates it gives its digit. Lines are matched by one
    ``findall`` per chunk, CSV fields by one ``fullmatch``. ``stream`` is
    left open. Structural problems raise IngestError with the offending
    line number, and undecodable bytes UnicodeDecodeError."""
    counts = [0] * base  # counts[0]: zeros
    ten = base == 10  # then one group: the first nonzero digit, if any
    numeral = r"(?:(?=[+-]?[0.]*([1-9]))|)" + NUMERAL.replace("([", "(?:[") if ten else NUMERAL
    # universal newlines for lines, csv's own for csv
    fh = io.TextIOWrapper(stream, encoding="utf-8-sig",
                          newline=None if source.format == "lines" else "")
    try:
        if source.format == "lines":
            # [^\S\n] is str.strip's whitespace but for the newline ending a line
            findall = re.compile(rf"[^\S\n]*{numeral}[^\S\n]*\n|([^\n]*\n)").findall
            for text in _lines(fh):
                if ten:  # few distinct (digit, raw) pairs: count them in C first
                    for (d, raw), n in Counter(findall(text)).items():
                        if raw:
                            _skip(raw.strip(), stats, n)
                        else:
                            counts[int(d or 0)] += n
                else:
                    for whole, frac, exponent, raw in findall(text):
                        if raw:
                            _skip(raw.strip(), stats)
                        else:
                            counts[_numeral_digit(base, whole, frac, exponent)] += 1
        else:
            match = re.compile(rf"\s*{numeral}\s*").fullmatch
            for field in chain.from_iterable(_fields(source, fh)):
                if m := match(field):
                    counts[int(m[1] or 0) if ten else _numeral_digit(base, *m.groups(""))] += 1
                else:
                    _skip(field.strip(), stats)
    finally:
        fh.detach()  # the wrapper would close ``stream`` when collected
    stats.records += sum(counts)
    return tuple(counts[1:])
