"""Dataset ingestion: turn text files into streams of decimal numeral strings.

Numerals are passed through verbatim as strings; nothing is ever routed
through binary floating point, so the digit statistics downstream stay exact.
Dirty records (blanks, non-numeric tokens, exponents past the grammar's
bound) are skipped and counted, not fatal.
"""

from __future__ import annotations

import csv
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .digits import MAX_EXPONENT_DIGITS, exponent_out_of_range, is_decimal_numeral


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
    """Counters filled in while the ingest stream is consumed."""

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


def _emit(token: str, stats: IngestStats) -> str | None:
    text = token.strip()
    if not text:
        stats.skipped_blank += 1
        return None
    if not is_decimal_numeral(text):
        if exponent_out_of_range(text):
            stats.skipped_exponent += 1
        else:
            stats.skipped_non_numeric += 1
        return None
    stats.records += 1
    return text


def _rows(reader) -> Iterator[list[str]]:
    """The CSV reader's rows, with its parse errors raised as IngestError."""
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise IngestError(f"CSV error at line {reader.line_num}: {exc}") from None


def ingest(
    source: DatasetSource, lines: Iterable[str], stats: IngestStats | None = None
) -> Iterator[str]:
    """Yield one numeral string per usable record of ``lines``.

    ``stats`` (if given) is updated as the stream is consumed; read it after
    exhausting the iterator. Structural problems raise IngestError with the
    offending line number.
    """
    if stats is None:
        stats = IngestStats()
    if source.format == "lines":
        for raw in lines:
            token = _emit(raw, stats)
            if token is not None:
                yield token
        return

    reader = csv.reader(lines)
    rows = _rows(reader)
    column = source.column
    if isinstance(column, str) and column.isdigit():
        # an index, unless the first row is too short for it but holds it as a name
        first = next(rows, None)
        if first is None:
            return
        if source.skip_header or int(column) < len(first) or column not in first:
            column = int(column)
        rows = chain([first], rows)
    if isinstance(column, str):
        try:
            header = next(rows)
        except StopIteration:
            return
        try:
            index = header.index(column)
        except ValueError:
            raise IngestError(
                f"column {column!r} not found in header {header!r}"
            ) from None
    else:
        index = int(column)
        if index < 0:
            raise IngestError(f"column index must be >= 0, got {index}")
        if source.skip_header:
            next(rows, None)
    for row in rows:
        if not row:
            stats.skipped_blank += 1
            continue
        if index >= len(row):
            raise IngestError(
                f"row at line {reader.line_num} has no column {source.column!r}"
            )
        token = _emit(row[index], stats)
        if token is not None:
            yield token
