"""Dataset ingestion: first-digit counts of the numerals in a byte stream.

`scan` is the one reader. It decides how a dataset is opened: UTF-8 with an
optional BOM, universal newlines for plain lines and csv's own newline
handling for CSV. Either way records reach one regular-expression pass per
chunk as "\\n"-terminated text: whole lines, or whole CSV rows, whose match
also selects the column. `csv` reads the header, and the rest of the file
from the first chunk that only it splits (one holding a quote, a NUL, a
lone "\\r" or a short row, or longer than csv's field size limit), whose
selected fields of a batch of rows are then joined by "\\n". Numerals are
read as strings; nothing is ever routed through binary floating point, so
the digit statistics stay exact.
Dirty records (blanks, non-numeric tokens, exponents past the grammar's
bound) are skipped and counted, not fatal.

This is the package's one numeral reader: `NUMERAL` is its grammar,
`_numeral_digit` its digit engine and `_threshold_table` its one per-base
table, which places a numeral by its text alone or in a chunk's batch alike.
"""

from __future__ import annotations

import contextlib
import io
import re
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import itemgetter

from .digits import _leading_digit

_CHUNK = 8192  # characters read at a time, then completed to a line end
_BATCH = 256  # CSV rows that csv splits at a time
#: Most integer digits, past leading zeros, and most fraction digits of a
#: numeral that `scan` places by its text in a base other than 10.
_K = 32
_EXPONENTS = {str(n): n for n in range(-99, 100)}  # "-12" -> -12, cheaper than int()

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


class DatasetSource(namedtuple("DatasetSource", "format column skip_header")):
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

    @classmethod
    def _make(cls, iterable):  # and so _replace: through the checks of __new__
        return cls(*iterable)


def exponent_out_of_range(text: str) -> bool:
    """Whether ``text``, which `NUMERAL` refused, is a numeral but for an
    exponent past the grammar's bound."""
    return re.fullmatch(NUMERAL.replace(_EXPONENT, "[0-9]+"), text) is not None


#: The kinds of record that `scan` skips and counts, in the order it reports
#: them: blank, non-numeric and past the exponent bound.
_SKIPPED = ("blank field(s)", "non-numeric token(s)",
            f"numeral(s) with |exponent| > {10**MAX_EXPONENT_DIGITS - 1}")


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


@lru_cache(maxsize=None)
def _threshold_table(b: int) -> tuple[list[str], list[int], list[int], list[int]]:
    """(strings, lo, hi, digit_at) of base b, built on first use.

    ``strings`` are the thresholds d * b**e, d = 1..b-1, ascending, from the
    largest e with b**e <= 10**-_K to the last below 10**_K: from 1 on as
    integers, below 1 as "." and their fraction rounded up to _K places, no
    trailing zeros. Those of L integer digits are strings[lo[L]:hi[L]], those
    of z zeros after the point strings[lo[-z]:hi[-z]], and L = 0 gives every
    fraction. digit_at[i] is the d of strings[i - 1]; digit_at[0] = 0.

    So bisect_right(strings, text, lo[L], hi[L]) counts the thresholds <= x,
    and digit_at of it is x's first digit, if text starts with the L-digit
    integer part of x >= 1 (the thresholds there are integers, and digit
    strings of one length sort as their values), or if it is "." and the
    fraction x < 1 of at most _K places, L = 0 or -z: x reaches t exactly
    when it reaches ceil(t * 10**_K) / 10**_K, and a longer text starting
    with one that has no trailing zeros is no smaller. Zero ("", ".") gets 0.
    """
    top, powers = 10**_K, [1]
    while powers[-1] < top:
        powers.append(powers[-1] * b)
    minus = [-d * top for d in range(1, b)]  # -(m // p): d * 10**_K / p rounded up
    fractions = [-(m // p) for p in powers[:0:-1] for m in minus]  # * 10**-_K
    integers = [n for p in powers[:-1] for d in range(1, b) if (n := d * p) < top]
    strings = ["." + str(n).zfill(_K).rstrip("0") for n in fractions] + [*map(str, integers)]
    # starts[i]: the first threshold >= 10**(i - _K)
    starts = [*(bisect_left(fractions, 10**i) for i in range(_K)),
              *(len(fractions) + bisect_left(integers, 10**L) for L in range(_K + 1))]
    places = [*range(_K + 1), *range(1 - _K, 0)]  # lo[P]:hi[P] hold those in [10**(P-1), 10**P)
    lo = [starts[_K + P - 1] if P else 0 for P in places]
    hi = [starts[_K + P] for P in places]
    return strings, lo, hi, [0] + [*range(1, b)] * (2 * len(powers))


def _numeral_digit(b: int, whole: str, frac: str, exponent: str) -> int:
    """First significant digit in base b, or 0 for zero, of the numeral with
    `NUMERAL` groups ``whole``, ``frac``, ``exponent`` ("" when absent): in
    base 10 the first nonzero digit. Else x = .digits * 10**point (digits past
    leading zeros) is placed by its text in `_threshold_table`, as `scan` places
    a chunk's, if x >= 1 has at most _K integer digits or x < 1 at most _K
    places; `_leading_digit` reads any other x (via `Decimal` past int()'s limit)."""
    if not (digits := (whole + frac).lstrip("0")):
        return 0
    if b == 10:
        return int(digits[0])
    try:
        point = len(digits) - len(frac) + (_EXPONENTS.get(exponent) or int(exponent or 0))
        if 0 < point <= _K:  # digits, or W padded with zeros, start with W
            text = digits.ljust(point, "0")
        elif point <= 0 and len(digits) - point <= _K:
            text = "." + digits.rjust(len(digits) - point, "0")
        else:
            shift = point - len(digits)
            return _leading_digit(int(digits) * 10 ** max(shift, 0), 10 ** max(-shift, 0), b)
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal has no limit
        from decimal import Decimal
        p, q = Decimal(f"{whole}.{frac}e{exponent or 0}").as_integer_ratio()
        return _leading_digit(p, q, b) if p else 0
    strings, lo, hi, digit_at = _threshold_table(b)
    return digit_at[bisect_right(strings, text, lo[point], hi[point])]


def _joined(batch: list[str]) -> str:
    """The fields of ``batch`` as one "\\n"-terminated record each. A newline
    inside a field becomes a space: either is whitespace inside a record,
    which no numeral holds, or at its ends, which strip removes."""
    text = "\n".join(batch) + "\n"
    if text.count("\n") != len(batch):
        text = "\n".join([field.replace("\n", " ") for field in batch]) + "\n"
    return text


def _lines(fh: io.TextIOBase) -> Iterator[str]:
    """Whole lines of ``fh``: _CHUNK characters at a time, each read completed
    to a line end by one ``readline``, and the last line ended by "\\n" if it
    has no end. Only CSV text, read with newline="", ends lines with "\\r"."""
    while text := fh.read(_CHUNK):
        text += fh.readline()
        yield text if text[-1] in "\r\n" else text + "\n"


def scan(source: DatasetSource, stream: io.BufferedIOBase,
         base: int) -> tuple[tuple[int, ...], list[str]]:
    """Counts of the first digits 1..base-1 of the usable records of the
    byte ``stream``, and the warnings that count the records it skipped:
    blank, non-numeric, past the exponent bound, then zero. Every record is
    parsed once, by one ``findall`` per chunk of "\\n"-terminated records:
    whole lines, whole CSV rows, whose match skips the columns before the
    selected one, or, from the first chunk of rows that only `csv` splits,
    the selected fields of _BATCH rows that it split joined by "\\n". In
    base 10 the match captures the first significant digit, and the pairs
    are counted in C. In any other base it captures a numeral's integer
    part W past leading zeros, its text from W on (at most _K digits each
    side of the point) and any exponent; C places the texts by their length
    of W in the base's `_threshold_table`, and `_numeral_digit` reads those
    with an exponent. Any other record is matched by `NUMERAL` alone, and
    read by `_numeral_digit` or skipped and counted. ``stream`` is left
    open. Structural problems raise IngestError with the offending line
    number, and undecodable bytes a UnicodeDecodeError that names their
    offset in the input, if it can."""
    counts, skipped = [0] * base, [0] * len(_SKIPPED)  # counts[0]: zeros
    ten = base == 10
    if ten:  # one group: the first nonzero digit, if any
        numeral = r"(?:(?=[+-]?[0.]*([1-9]))|)" + NUMERAL.replace("([", "(?:[")
    else:  # the text from W, W and the exponent
        strings, lo, hi, digit_at = _threshold_table(base)
        numeral = (rf"[+-]?(?=\.?[0-9])0*(([1-9][0-9]{{0,{_K - 1}}}|)(?:\.[0-9]{{0,{_K}}})?)"
                   rf"(?:[eE]([+-]?{_EXPONENT}))?")
    match = re.compile(NUMERAL).fullmatch

    def records(skip: str = "", tail: str = "") -> Callable[[str], list]:
        # a numeral between ``skip`` and ``tail``, or any other record; [^\S\n]
        # is str.strip's whitespace but for the newline ending a record
        return re.compile(rf"{skip}[^\S\n]*{numeral}[^\S\n]*{tail}\n|([^\n]*\n)").findall

    def read(raw: str, n: int) -> None:  # n copies of a record the fast form refused
        if m := match(raw := raw.strip()):
            counts[_numeral_digit(base, *m.groups(""))] += n
        else:  # indexed as _SKIPPED
            skipped[0 if not raw else 2 if exponent_out_of_range(raw) else 1] += n

    def read_row(raw: str, n: int) -> None:  # the same for a row of quote-free CSV
        if raw := raw.rstrip("\r\n"):
            read(raw.split(",", index + 1)[index], n)  # IndexError: a short row
        else:
            skipped[0] += n

    def count_chunk(text: str, findall: Callable[[str], list], refused) -> None:
        if ten:  # few distinct (digit, raw) pairs: count them in C first
            for (d, raw), n in Counter(findall(text)).items():
                if raw:
                    refused(raw, n)
                else:
                    counts[int(d or 0)] += n
        elif matches := findall(text):
            if any(map(itemgetter(2), matches)):  # read those with an exponent alone
                for t, w, e, raw in matches:
                    if e:
                        counts[_numeral_digit(base, w, t[len(w) + 1:], e)] += 1
                if not (matches := [m for m in matches if not m[2]]):
                    return
            lens = [*map(len, map(itemgetter(1), matches))]
            seen = Counter(map(bisect_right, repeat(strings), map(itemgetter(0), matches),
                               map(lo.__getitem__, lens), map(hi.__getitem__, lens)))
            raws = [*filter(None, map(itemgetter(3), matches))]
            seen[0] -= len(raws)  # the refused records' empty text
            for i, n in seen.items():
                counts[digit_at[i]] += n
            for raw in raws:
                refused(raw, 1)

    # universal newlines for lines, csv's own for csv
    fh = io.TextIOWrapper(stream, encoding="utf-8-sig",
                          newline=None if source.format == "lines" else "")
    try:
        if source.format == "lines":
            findall = records()
            for text in _lines(fh):
                count_chunk(text, findall, read)
        else:
            import csv  # loaded only by the datasets that use it

            reader, done = csv.reader(fh), 0  # done: lines read before ``reader``'s first
            try:
                index, first = _column(source, reader)
                if first is not None:
                    read(first[index] if first else "", 1)
                done, limit = reader.line_num, csv.field_size_limit()
                # the fields before the selected one written out, and a lookahead
                # before the rest: the engine's general repeat is 20% slower
                findall = records(r"[^,\n]*," * index, r"(?=[,\n])[^\n]*")
                for text in _lines(fh):
                    # only csv splits a '"', a NUL (refused before Python 3.11), a "\r" not
                    # before "\n" (a row end to csv, not to findall) or a field past limit
                    if ('"' in text or "\0" in text or len(text) > limit
                            or "\r" in text and text.count("\r") != text.count("\r\n")):
                        break
                    try:
                        count_chunk(text, findall, read_row)
                    except IndexError:  # csv.reader splits ``text`` alike, and names the line
                        break
                    done += text.count("\n")
                else:
                    text = ""
                reader = csv.reader(chain(io.StringIO(text, newline=""), fh))
                while fields := [row[index] if row else "" for row in islice(reader, _BATCH)]:
                    count_chunk(_joined(fields), records(), read)
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
    warnings = [f"skipped {n} {what}" for n, what in zip(skipped, _SKIPPED) if n]
    if counts[0]:
        warnings.append(f"skipped {counts[0]} zero value(s)")
    return tuple(counts[1:]), warnings
