"""Dataset ingestion: first-digit counts of the numerals in a byte stream.

`scan` is the one reader. It decides how a dataset is opened: UTF-8 with an
optional BOM, universal newlines for plain lines and csv's own newline
handling for CSV. Either way records reach one regular-expression pass per
chunk as "\\n"-terminated text: whole lines, or whole CSV rows, whose match
also selects the column. `csv` reads the header, and any text holding a
quote, a NUL or a lone "\\r", whose selected fields of a batch of rows are
then joined by "\\n". Numerals are read as strings; nothing is ever
routed through binary floating point, so the digit statistics stay exact.
Dirty records (blanks, non-numeric tokens, exponents past the grammar's
bound) are skipped and counted, not fatal.

This is the package's one numeral reader: `NUMERAL` is its grammar,
`_numeral_digit` its digit engine and `_threshold_table` its one per-base
table, which places a numeral alone or in a chunk's batch of keys alike.
"""

from __future__ import annotations

import contextlib
import io
import re
from bisect import bisect_right
from collections import Counter
from functools import partial
from itertools import chain, islice
from typing import BinaryIO, Callable, Iterator, NamedTuple, TextIO

from .digits import _leading_digit

_CHUNK, _BATCH = 8192, 256  # characters read at a time; CSV rows that csv splits at a time
#: Most integer digits, and most fraction digits, of a numeral that `scan`
#: reads in a base other than 10 by its key x * 10**_K, an integer below
#: 10**(2 * _K).
_K = 32
_SCALE = [10 ** (_K - j) for j in range(_K + 1)]  # 10**_K / 10**j, exactly
_THRESHOLDS: dict[int, tuple[list[int], list[int]]] = {}

#: Significant digits an exponent may have (|e| <= 9999): that is past any
#: measured quantity, while 10**(10**6) would cost seconds per record.
MAX_EXPONENT_DIGITS = 4

_EXPONENT = rf"0*[0-9]{{1,{MAX_EXPONENT_DIGITS}}}"
#: The package's numeral grammar: an optional sign, then digits with at most
#: one point (``-12``, ``0.5``, ``.5``, ``3.``), then optionally an exponent
#: of at most MAX_EXPONENT_DIGITS significant digits (``1.5e3``, ``2E-4``).
#: Its groups are the integer digits, the fraction digits and the exponent;
#: each opens with "([", so ``NUMERAL.replace("([", "(?:[")`` is the same
#: grammar without groups.
NUMERAL = rf"[+-]?(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?{_EXPONENT}))?"

_FIRST_DIGIT = {str(d): d for d in range(1, 10)}


class IngestError(ValueError):
    """Structurally malformed input (e.g. a CSV row missing the selected column)."""


class _Undecodable(UnicodeDecodeError):
    """Input that is not UTF-8, named by its ``offset`` in the input (None
    when the stream cannot tell it), not by its place in one read."""

    offset: int | None = None

    def __str__(self) -> str:
        at = "" if self.offset is None else f" at input offset {self.offset}"
        bad = self.object[self.start:self.end]
        return f"'{self.encoding}' codec can't decode {bad!r}{at}: {self.reason}"


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


def exponent_out_of_range(text: str) -> bool:
    """Whether ``text``, which `NUMERAL` refused, is a numeral but for an
    exponent past the grammar's bound."""
    return re.fullmatch(NUMERAL.replace(_EXPONENT, "[0-9]+"), text) is not None


def _skip(text: str, stats: IngestStats, n: int = 1) -> None:
    """Count ``n`` stripped records that `NUMERAL` refused."""
    if not text:
        stats.skipped_blank += n
    elif exponent_out_of_range(text):
        stats.skipped_exponent += n
    else:
        stats.skipped_non_numeric += n


def _column(source: DatasetSource, reader: Iterator[list[str]]) -> tuple[int, list[str] | None]:
    """The index of the selected column, found in the header that ``reader``
    reads first when there is one, and that first row if it is data."""
    column = source.column
    if not isinstance(column, str) and int(column) < 0:
        raise IngestError(f"column index must be >= 0, got {column}")
    first = next(reader, None)
    if first is None:
        return 0, None
    # an all-digit name is an index, unless the first row is too short for it but holds it
    if isinstance(column, str) and column.isdigit() and (
            source.skip_header or int(column) < len(first) or column not in first):
        column = int(column)
    if isinstance(column, str):
        if column not in first:
            raise IngestError(f"column {column!r} not found in header {first!r}")
        return first.index(column), None
    return int(column), None if source.skip_header else first


def _threshold_table(b: int) -> tuple[list[int], list[int]]:
    """(thresholds, digit_at) of base b, built on first use.

    The thresholds are the integers ceil(d * b**e * 10**_K), d = 1..b-1, in
    ascending order, one row of them for each integer e from the largest
    with b**e <= 10**-_K to the first row that reaches 2**256; digit_at[i]
    is the d of thresholds[i - 1], and digit_at[0] = 0. An integer N is
    >= ceil(v) exactly when N >= v, so the bisect_right(thresholds, N)
    thresholds <= N end at the largest d * b**e <= N / 10**_K, whose d is
    the first digit of N / 10**_K for 0 < N < thresholds[-1]; N = 0 gets 0.
    """
    if (table := _THRESHOLDS.get(b)) is None:
        num, den, thresholds = 10**_K, 1, []  # b**e * 10**_K = num / den
        while den < num:
            den *= b
        while not thresholds or thresholds[-1] < 1 << 256:
            thresholds += (-(-d * num // den) for d in range(1, b))
            num, den = (num, den // b) if den > 1 else (num * b, 1)
        digit_at = [0] + [*range(1, b)] * (len(thresholds) // (b - 1))
        table = _THRESHOLDS[b] = thresholds, digit_at
    return table


def _count_keys(b: int, keys: list[int], counts: list[int]) -> None:
    """Add to counts[d], for each key N >= 0, one for the first digit d in
    base b of N / 10**_K (0 for N = 0): the keys are counted in C by their
    place in `_threshold_table`, and a key past its top by `_leading_digit`."""
    thresholds, digit_at = _threshold_table(b)
    seen = Counter(map(partial(bisect_right, thresholds), keys))
    if seen.pop(len(thresholds), 0):
        for n in keys:
            if n >= thresholds[-1]:
                counts[_leading_digit(n, 10**_K, b)] += 1
    for i, n in seen.items():
        counts[digit_at[i]] += n


def _numeral_digit(b: int, whole: str, frac: str, exponent: str) -> int:
    """First significant digit in base b, or 0 for zero, of the numeral with
    `NUMERAL` groups ``whole``, ``frac``, ``exponent`` ("" when absent): in
    base 10 the first nonzero digit, else that of x = p/10**k, k the fraction
    digits less the exponent. For k <= _K the key x * 10**_K is placed in
    `_threshold_table`, as `scan` places a chunk's keys; `_leading_digit`
    reads any other x (through `Decimal` past int()'s length limit)."""
    if b == 10:
        return _FIRST_DIGIT.get((whole.lstrip("0") or frac.lstrip("0"))[:1], 0)
    try:
        p = int(whole + frac)
        k = len(frac) - int(exponent) if exponent else len(frac)
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal has no limit
        from decimal import Decimal
        p, q = Decimal(f"{whole}.{frac}e{exponent or 0}").as_integer_ratio()
        return _leading_digit(p, q, b) if p else 0
    if k > _K:
        return _leading_digit(p, 10**k, b) if p else 0
    thresholds, digit_at = _threshold_table(b)
    if (n := p * (_SCALE[k] if k >= 0 else 10 ** (_K - k))) < thresholds[-1]:
        return digit_at[bisect_right(thresholds, n)]
    return _leading_digit(n, 10**_K, b)


def _joined(batch: list[str]) -> str:
    """The fields of ``batch`` as one "\\n"-terminated record each. A newline
    inside a field becomes a space: either is whitespace inside a record,
    which no numeral holds, or at its ends, which strip removes."""
    text = "\n".join(batch) + "\n"
    if text.count("\n") != len(batch):
        text = "\n".join([field.replace("\n", " ") for field in batch]) + "\n"
    return text


def _lines(fh: TextIO, rest: list[str] | None = None, limit: int = 0) -> Iterator[str]:
    """Whole lines of ``fh``, about _CHUNK characters at a time, all ended by "\\n".

    Given ``rest``, ``fh`` is CSV text read with newline="", and the lines
    stop at the first read that only `csv` splits: one holding a '"', a NUL
    (refused by csv before Python 3.11) or a "\\r" not before "\\n" (a line
    end not cut at here), or longer, with the line it continues, than
    csv's field size ``limit``. That read, led by the line it continues and
    completed to a line end, is put in ``rest``."""
    parts = []
    while chunk := fh.read(_CHUNK):
        if rest is not None:
            if chunk[-1] == "\r":  # a "\r\n" stays in one read
                chunk += fh.read(1)
            if ('"' in chunk or "\0" in chunk or len(chunk) + sum(map(len, parts)) > limit
                    or "\r" in chunk and chunk.count("\r") != chunk.count("\r\n")):
                rest.append("".join(parts) + chunk + fh.readline())
                return
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
    byte ``stream``, with ``stats`` filled in. Every record is parsed once,
    by one ``findall`` per chunk of "\\n"-terminated records: whole lines,
    whole CSV rows, whose match skips the columns before the selected one,
    or the selected fields of _BATCH rows that `csv` split (see `_lines`)
    joined by "\\n". In base 10 the match captures the first significant
    digit, and the pairs are counted in C. In any other base it captures
    `NUMERAL`'s groups for a numeral of at most _K integer and _K fraction
    digits: without an exponent they give the integer key x * 10**_K, which
    `_count_keys` places in its base's threshold table, and with one
    `_numeral_digit` reads them through the same table. Any other record is
    matched by `NUMERAL` alone, and read by `_numeral_digit` or skipped and
    counted. ``stream`` is left open. Structural problems raise IngestError
    with the offending line number, and undecodable bytes a
    UnicodeDecodeError that names their offset in the input, if it can."""
    counts = [0] * base  # counts[0]: zeros
    ten = base == 10
    if ten:  # one group: the first nonzero digit, if any
        numeral = r"(?:(?=[+-]?[0.]*([1-9]))|)" + NUMERAL.replace("([", "(?:[")
    else:  # `NUMERAL`'s three, of at most _K integer and _K fraction digits
        numeral = NUMERAL.replace("([0-9]*)", f"([0-9]{{0,{_K}}})")
    match = re.compile(NUMERAL).fullmatch

    def records(skip: str = "", tail: str = "") -> Callable[[str], list]:
        # a numeral between ``skip`` and ``tail``, or any other record; [^\S\n]
        # is str.strip's whitespace but for the newline ending a record
        return re.compile(rf"{skip}[^\S\n]*{numeral}[^\S\n]*{tail}\n|([^\n]*\n)").findall

    def read(raw: str, n: int) -> None:  # n copies of a record the fast form refused
        if m := match(raw := raw.strip()):
            counts[_numeral_digit(base, *m.groups(""))] += n
        else:
            _skip(raw, stats, n)

    def read_row(raw: str, n: int) -> None:  # the same for a row of quote-free CSV
        if raw := raw.rstrip("\r\n"):
            read(raw.split(",", index + 1)[index], n)  # IndexError: a short row
        else:
            stats.skipped_blank += n

    def tally(text: str, findall: Callable[[str], list], refused) -> None:
        if ten:  # few distinct (digit, raw) pairs: count them in C first
            for (d, raw), n in Counter(findall(text)).items():
                if raw:
                    refused(raw, n)
                else:
                    counts[int(d or 0)] += n
        else:
            matches = findall(text)
            _count_keys(base, [int(whole + frac) * _SCALE[len(frac)]
                               for whole, frac, exponent, raw in matches
                               if not (exponent or raw)], counts)
            for whole, frac, exponent, raw in matches:
                if exponent:
                    counts[_numeral_digit(base, whole, frac, exponent)] += 1
                elif raw:
                    refused(raw, 1)

    # universal newlines for lines, csv's own for csv
    fh = io.TextIOWrapper(stream, encoding="utf-8-sig",
                          newline=None if source.format == "lines" else "")
    try:
        if source.format == "lines":
            findall = records()
            for text in _lines(fh):
                tally(text, findall, read)
        else:
            import csv  # loaded only by the datasets that use it

            reader, done = csv.reader(fh), 0  # done: lines read before ``reader``'s first
            try:
                index, first = _column(source, reader)
                if first is not None:
                    read(first[index] if first else "", 1)
                done, rest = reader.line_num, []
                # the fields before the selected one written out, and a lookahead
                # before the rest: the engine's general repeat is 20% slower
                findall = records(r"[^,\n]*," * index, r"(?=[,\n])[^\n]*")
                for text in _lines(fh, rest, csv.field_size_limit()):
                    try:
                        tally(text, findall, read_row)
                    except IndexError:  # csv.reader splits ``text`` alike, and names the line
                        rest = [text]
                        break
                    done += text.count("\n")
                reader = csv.reader(chain(io.StringIO("".join(rest), newline=""), fh))
                while fields := [row[index] if row else "" for row in islice(reader, _BATCH)]:
                    tally(_joined(fields), records(), read)
            except IndexError:  # the row just read is too short
                raise IngestError(f"row at line {done + reader.line_num} "
                                  f"has no column {source.column!r}") from None
            except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                raise IngestError(f"CSV error at line {done + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        error = _Undecodable(exc.encoding, exc.object, exc.start, exc.end, exc.reason)
        with contextlib.suppress(OSError):  # a pipe cannot tell
            error.offset = stream.tell() - len(exc.object) + exc.start
        raise error from None
    finally:
        fh.detach()  # the wrapper would close ``stream`` when collected
    stats.records += sum(counts)
    return tuple(counts[1:])
