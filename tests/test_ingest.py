import contextlib
import csv
import io
import math
import re
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford_radix import ingest
from benford_radix.digits import _leading_digit
from benford_radix.ingest import _K, NUMERAL, DatasetSource, IngestError, scan

from oracles import digit_counts, leading_digit_by_fraction_scaling
from test_digits import int_str_digits


def scanned(source, text, base=10):
    """(counts, warnings) of `scan` over ``text`` encoded as UTF-8."""
    return scan(source, io.BytesIO(text.encode()), base)


def skips(blank=0, non_numeric=0, exponent=0, zeros=0):
    """The warnings of `scan` that count the records it skipped, in its order."""
    return [f"skipped {n} {what}" for n, what in [
        (blank, "blank field(s)"), (non_numeric, "non-numeric token(s)"),
        (exponent, "numeral(s) with |exponent| > 9999"), (zeros, "zero value(s)")] if n]


def counts_of(digits, base=10):
    return digit_counts(digits, base)


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
        counts, warnings = scanned(DatasetSource(format="lines"), "16\n32\n64\n")
        assert counts == counts_of([1, 3, 6])
        assert warnings == []

    def test_non_numeric_skipped_with_count(self):
        counts, warnings = scanned(DatasetSource(format="lines"), "16\nn/a\n64\n")
        assert counts == counts_of([1, 6])
        assert warnings == ["skipped 1 non-numeric token(s)"] == skips(non_numeric=1)

    def test_blank_lines_counted(self):
        counts, warnings = scanned(DatasetSource(format="lines"), "\n\n12\n  \n")
        assert counts == counts_of([1])
        assert warnings == skips(blank=3)

    def test_exponents_within_the_bound_are_numerals(self):
        text = "1.5e3\n2E-4\n+0.0e+7\n7e0009999\n"
        counts, warnings = scanned(DatasetSource(format="lines"), text)
        assert counts == counts_of([1, 2, 7])
        assert warnings == ["skipped 1 zero value(s)"] == skips(zeros=1)

    def test_exponent_beyond_the_bound_has_its_own_count(self):
        text = "1e10000\n-2.5E-123456\n3e\ne5\n8\n"
        counts, warnings = scanned(DatasetSource(format="lines"), text)
        assert counts == counts_of([8])
        assert warnings == skips(non_numeric=2, exponent=2) == [
            "skipped 2 non-numeric token(s)",
            "skipped 2 numeral(s) with |exponent| > 9999",
        ]

    def test_numerals_kept_verbatim(self):
        # read as the exact values 25/2, 312/10**5, 7 and 1/2, in any base
        text = "0012.500\n-0.00312\n+7\n.5\n"
        for base in (10, 7):
            want = [_leading_digit(p, q, base)
                    for p, q in ((25, 2), (312, 10**5), (7, 1), (1, 2))]
            counts, warnings = scanned(DatasetSource(format="lines"), text, base)
            assert counts == counts_of(want, base) and warnings == []


class TestCsv:
    def test_named_column(self):
        src = DatasetSource(format="csv", column="area")
        counts, warnings = scanned(src, "name,area\nvolga,335\n")
        assert counts == counts_of([3])
        assert warnings == []

    def test_indexed_column(self):
        src = DatasetSource(format="csv", column=1)
        counts, warnings = scanned(src, "volga,335\ndanube,817\n")
        assert counts == counts_of([3, 8]) and warnings == []

    def test_indexed_column_with_header_skip(self):
        src = DatasetSource(format="csv", column=1, skip_header=True)
        counts, warnings = scanned(src, "name,area\nvolga,335\n")
        assert counts == counts_of([3]) and warnings == []

    def test_digit_string_selector_means_index(self):
        src = DatasetSource(format="csv", column="1")
        counts, warnings = scanned(src, "volga,335\n")
        assert counts == counts_of([3]) and warnings == []

    def test_missing_named_column(self):
        src = DatasetSource(format="csv", column="weight")
        with pytest.raises(IngestError, match="weight"):
            scanned(src, "name,area\nvolga,335\n")

    def test_short_row_reports_line_number(self):
        src = DatasetSource(format="csv", column=2)
        with pytest.raises(IngestError, match="line 2"):
            scanned(src, "a,b,c\nx,y\n")

    def test_blank_and_dirty_cells_counted(self):
        src = DatasetSource(format="csv", column="v")
        counts, warnings = scanned(src, "v\n42\n\n \noops\n3.14\n")
        assert counts == counts_of([4, 3])
        assert warnings == skips(blank=2, non_numeric=1)

    def test_oversized_field_reports_line_number(self):
        src = DatasetSource(format="csv", column=0)
        big = "1" * (csv.field_size_limit() + 1)
        with pytest.raises(IngestError, match="line 2"):
            scanned(src, f"5\n{big}\n")

    def test_negative_index_rejected(self):
        src = DatasetSource(format="csv", column=-1)
        with pytest.raises(IngestError):
            scanned(src, "a,b\n")

    def test_empty_csv_with_named_column(self):
        src = DatasetSource(format="csv", column="area")
        counts, warnings = scanned(src, "")
        assert counts == counts_of([]) and warnings == []


@pytest.mark.parametrize("source, data, error", [
    (DatasetSource("lines"), b"12\n", None),
    (DatasetSource("lines"), b"12\n\xff\n", UnicodeDecodeError),
    (DatasetSource("csv", "v"), b"v\n12\n", None),
    (DatasetSource("csv", 1), b"a,b\n12\n", IngestError),
], ids=["lines", "lines-undecodable", "csv", "csv-short-row"])
def test_scan_leaves_the_stream_open(source, data, error):
    stream = io.BytesIO(data)
    with pytest.raises(error) if error else contextlib.nullcontext():
        scan(source, stream, 10)
    assert not stream.closed


# The numeral grammar written without groups, as an independent reference:
# `ingest.NUMERAL` must accept exactly the same strings.
OLD_NUMERAL = re.compile(
    r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?0*[0-9]{1,4})?"
)
# Whitespace that str.strip removes and the file reader never splits a line at.
WHITESPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
SPECIAL = [
    "", "n/a", "e5", "1e", ".", "--3", "3.1.4", "1,5", "0x1F", "\ufeff7",
    "0", "-0.000", "+.0", "0.", "00e5", "0.000E-3",
    "7e0009999", "2.5e-9999", "1e10000", "-8E+12345", "3e+000010000",
    "1" * 4400 + ".25", "0." + "0" * 4400 + "37", "5e" + "0" * 4400 + "9",
]


@st.composite
def tokens(draw):
    """A numeral of the grammar (sign, digits, point, exponent) or a special case."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(SPECIAL))
    body = draw(st.text("0123456789", min_size=1, max_size=14))
    cut = draw(st.integers(0, len(body)))
    text = draw(st.sampled_from(["", "+", "-"])) + body[:cut]
    if cut < len(body) or draw(st.booleans()):
        text += "." + body[cut:]
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
        text += str(draw(st.integers(0, 12000))).zfill(draw(st.integers(1, 6)))
    return text


@st.composite
def records(draw):
    """A token padded with whitespace, or with whitespace put inside it."""
    pad = st.text(WHITESPACE, max_size=3)
    token = draw(tokens())
    if token and draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(token)))
        token = token[:cut] + draw(st.sampled_from(WHITESPACE)) + token[cut:]
    return draw(pad) + token + draw(pad)


def _join(draw, lines):
    """``lines`` joined by mixed line ends, maybe with a final one and a BOM."""
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]
    if draw(st.booleans()):
        text += draw(ends)
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _csv_field(draw):
    record = draw(records())
    if draw(st.booleans()) or any(c in record for c in ',"\r\n'):
        record += draw(st.sampled_from(["", "\n", "\r\n"]))  # inside the quotes
        return '"' + record.replace('"', '""') + '"'
    return record


@st.composite
def lines_files(draw):
    return _join(draw, draw(st.lists(records(), min_size=1, max_size=25)))


@st.composite
def csv_files(draw):
    rows = ["id,value"]
    for i in range(draw(st.integers(0, 20))):
        rows.append("" if draw(st.integers(0, 9)) == 0 else f"{i},{_csv_field(draw)}")
    return _join(draw, rows)


# The grammar above with an exponent of any length: a record it accepts and
# the grammar refuses is counted apart from the non-numeric ones.
WIDE_NUMERAL = re.compile(OLD_NUMERAL.pattern.replace("0*[0-9]{1,4}", "[0-9]+"))


def exact_digit(numeral: str, base: int) -> int:
    """First digit in ``base`` of a numeral `OLD_NUMERAL` accepts, 0 for
    zero, by a route apart from the package's: in base 10 its first nonzero
    digit, and in any other base its exact `Fraction`, scaled by a power of
    the base (which keeps the digit) to near 1, then read by the oracle."""
    mantissa = re.split("[eE]", numeral)[0]
    first = next((int(c) for c in mantissa if c in "123456789"), 0)
    if base == 10 or not first:
        return first
    with int_str_digits(0):  # numerals and exponents of any length
        value = abs(Fraction(numeral))
    e = int((value.numerator.bit_length() - value.denominator.bit_length()) / math.log2(base))
    value = value / base**e if e >= 0 else value * base**-e
    return leading_digit_by_fraction_scaling(value.numerator, value.denominator, base)


def per_record(source, text, base):
    """The per-record reference: split ``text`` into records with universal
    newlines or `csv.reader`, then read each with `exact_digit`. A CSV row
    without the selected column, or one `csv` refuses, raises `scan`'s
    IngestError."""
    text = text.removeprefix("\ufeff")
    if source.format == "lines":
        records = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if records[-1] == "":
            records.pop()  # after the last line end
    else:  # the header rules are the package's own
        rows = csv.reader(io.StringIO(text, newline=""))
        try:
            index, first = ingest._column(source, rows)
            records = [] if first is None else [first[index] if first else ""]
            records += [row[index] if row else "" for row in rows]
        except IndexError:
            raise IngestError(f"row at line {rows.line_num} has no column {source.column!r}")
        except csv.Error as exc:
            raise IngestError(f"CSV error at line {rows.line_num}: {exc}")
    counts, skipped = [0] * base, Counter()
    for record in records:
        stripped = record.strip()
        if OLD_NUMERAL.fullmatch(stripped):
            counts[exact_digit(stripped, base)] += 1
        elif not stripped:
            skipped["blank"] += 1
        elif WIDE_NUMERAL.fullmatch(stripped):
            skipped["exponent"] += 1
        else:
            skipped["non_numeric"] += 1
    return tuple(counts[1:]), skips(**skipped, zeros=counts[0])


BASES = st.sampled_from([2, 7, 10, 16, 64])


FIELD_BREAKS = ["\n", "\r", "\r\n", "\x85", "\u2028", " "]


@st.composite
def csv_files_with_line_ends(draw):
    """A CSV whose quoted value fields hold a line end or other whitespace
    anywhere: before, inside or after the token."""
    rows = ["id,value"]
    for i in range(draw(st.integers(0, 12))):
        record = draw(records())
        cut = draw(st.integers(0, len(record)))
        record = record[:cut] + draw(st.sampled_from(FIELD_BREAKS)) + record[cut:]
        rows.append(f'{i},"{record.replace(chr(34), chr(34) * 2)}"')
    return _join(draw, rows)


def _maybe_quoted(draw, field, quotes):
    """``field`` quoted where csv needs it and, given ``quotes``, now and then."""
    if any(c in field for c in ',"\r\n') or quotes and draw(st.integers(0, 7)) == 0:
        return '"' + field.replace('"', '""') + '"'
    return field


@st.composite
def mixed_csvs(draw):
    """(source, text): a CSV whose value column is selected by name, by index
    or by an all-digit name, with or without a header to skip. Its rows may
    be quote-free or quoted, empty, whitespace-only, short or hold a NUL, and
    its lines end with "\\n" alone or with a mix of "\\n", "\\r\\n" and "\\r"."""
    width = draw(st.integers(1, 3))
    index = draw(st.integers(0, width - 1))
    names = [f"c{i}" for i in range(width)]
    how = draw(st.sampled_from(["name", "index", "digits", "digit-name"]))
    if how == "digit-name":  # every row is too short for index 9: a name
        names[index] = "9"
    column = {"name": names[index], "index": index, "digits": str(index), "digit-name": "9"}[how]
    source = DatasetSource("csv", column, how in ("index", "digits") and draw(st.booleans()))
    quotes = draw(st.booleans())
    rows = [",".join(_maybe_quoted(draw, name, quotes) for name in names)]
    for _ in range(draw(st.integers(0, 15))):
        kind = draw(st.integers(0, 39))
        if kind == 0:
            rows.append("")
        elif kind == 1:
            rows.append(draw(st.text(" \t\x0c", min_size=1, max_size=2)))
        elif kind == 2:  # no field at ``index``
            rows.append(",".join(draw(st.sampled_from(["", "x", "7"])) for _ in range(index)))
        else:
            fields = [draw(st.sampled_from(["", "x", "7"])) for _ in range(width)]
            fields[index] = draw(records()) + ("\0" if kind == 3 else "")
            rows.append(",".join(_maybe_quoted(draw, field, quotes) for field in fields))
    ends = st.sampled_from(["\n", "\r\n", "\r"] if draw(st.booleans()) else ["\n"])
    text = "".join(row + draw(ends) for row in rows)
    return source, ("\ufeff" if draw(st.booleans()) else "") + text


def outcome(read, *args):
    """What ``read(*args)`` gives: its (counts, warnings), or its IngestError message."""
    try:
        return read(*args)
    except IngestError as exc:
        return str(exc)


def _key_edges():
    """Numerals of 0, 1, _K and _K + 1 integer and fraction digits, with and
    without an exponent: the keys' reach, and the records just past it. Then
    exponent numerals at k = _K and _K + 1 (k the fraction digits less the
    exponent), with a key x * 10**_K past every base's table, and with an
    exponent longer than int()'s default 4300-digit limit."""
    body = "3141592653589793238462643383279502884197"
    assert len(body) > _K + 1
    for whole in (0, 1, _K, _K + 1):
        for frac in (None, 0, 1, _K, _K + 1):
            if whole or frac:
                text = body[:whole] + ("" if frac is None else "." + body[len(body) - frac:])
                for exponent in ("", "e7", "E-40"):
                    yield text + exponent
    yield from ("0." + "0" * (_K - 1) + "1", "0." + "0" * _K + "1", "0" * (_K + 1) + ".5",
                "-" + "9" * _K + "." + "9" * _K, "9" * _K + "." + "9" * (_K + 1), "0" * _K)
    yield from (f"2.5e-{_K - 1}", f"-2.5E-{_K}", f"0.0e-{_K}", "3e90", "-7.25E+60",
                "5e" + "0" * 4400 + "9")
    # leading zeros; integers on a threshold (49 and 7 in base 7, 40 in base 8,
    # 50 and 100 in base 5, powers of 2 to the last of _K digits and past it)
    yield from ("007", "000.5", "0.", "-0", "49", "7.", "-049.0", "1" + "0" * (_K - 1))
    yield from ("4e1", "5e1", "1e2", "4.9e1")  # on a threshold once the point moves
    yield from (str(2**k) for k in (0, 1, 10, 63, 106, 107))
    # past _K integer digits, read from the integer part: just below 2**107 and
    # 3**69 (once the point moves), and on 3**69
    yield from (f"{2**107 - 1}.{'9' * (_K + 1)}", f"{3**69 - 1}9.5e-1", str(3**69))
    # fractions of _K places: 1/7 rounded up, and one unit below it
    sevenths = -(-(10**_K) // 7)
    yield from (f"0.{sevenths:0{_K}}", f".{sevenths - 1:0{_K}}", f"{sevenths}e-{_K}")


KEY_EDGES = list(_key_edges())


class TestScan:
    @settings(max_examples=300, deadline=None)
    @given(text=tokens())
    def test_grammar_is_unchanged(self, text):
        assert (re.fullmatch(NUMERAL, text) is None) == (OLD_NUMERAL.fullmatch(text) is None)

    @settings(max_examples=150, deadline=None)
    @given(text=lines_files(), base=BASES, chunk=st.sampled_from([1, 2, 3, 5, 8, 8192]))
    def test_lines_equal_the_per_record_path(self, text, base, chunk):
        # chunks of a few characters split lines and \r\n pairs across reads
        source = DatasetSource(format="lines")
        want = per_record(source, text, base)
        old, ingest._CHUNK = ingest._CHUNK, chunk
        try:
            got = scanned(source, text, base)
        finally:
            ingest._CHUNK = old
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(text=csv_files(), base=BASES)
    def test_csv_equals_the_per_record_path(self, text, base):
        source = DatasetSource(format="csv", column="value")
        assert scanned(source, text, base) == per_record(source, text, base)

    @settings(max_examples=150, deadline=None)
    @given(text=csv_files_with_line_ends(), base=BASES, batch=st.sampled_from([1, 2, 3]))
    def test_csv_fields_holding_line_ends(self, text, base, batch):
        # the selected fields of a batch are joined by "\n"; one holding "\n"
        # makes the batch be joined again with that "\n" read as a space
        source = DatasetSource(format="csv", column="value")
        want = per_record(source, text, base)
        old, ingest._BATCH = ingest._BATCH, batch
        try:
            got = scanned(source, text, base)
        finally:
            ingest._BATCH = old
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(case=mixed_csvs(), base=BASES, chunk=st.sampled_from([*range(1, 9), 8192]),
           limit=st.sampled_from([None, None, 12, 40]))
    def test_csv_readers_agree(self, case, base, chunk, limit):
        # reads of 1-8 characters put the first one that only csv splits
        # anywhere in the file, whole reads put a short row amid others, and
        # a small field size limit stops the quote-free reader at long lines
        source, text = case
        old = ingest._CHUNK, csv.field_size_limit()
        ingest._CHUNK = chunk
        try:
            if limit:
                csv.field_size_limit(limit)
            assert outcome(scanned, source, text, base) == outcome(per_record, source, text, base)
        finally:
            ingest._CHUNK = old[0]
            csv.field_size_limit(old[1])

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("chunk", [7, 8192])
    def test_csv_reader_reads_only_the_header_of_quote_free_text(self, end, chunk, monkeypatch):
        # reads of 7 characters split many a "\r\n"
        source = DatasetSource(format="csv", column="value")
        text = end.join(["id,value,flag", *(f"{i},{i * 7919 % 1000}.5,x" for i in range(3000)),
                         "", "3000,n/a,x", "3001, ,x", ""])
        want = {base: per_record(source, text, base) for base in (10, 7)}
        readers, make = [], csv.reader
        monkeypatch.setattr(csv, "reader", lambda lines: readers.append(make(lines)) or readers[-1])
        monkeypatch.setattr(ingest, "_CHUNK", chunk)
        for base in (10, 7):
            readers.clear()
            assert scanned(source, text, base) == want[base]
            assert sum(reader.line_num for reader in readers) == 1

    @pytest.mark.parametrize("text, line", [
        ("v,w\n1,2\n3,4\n5\n6,7\n", 4),
        ('"v",w\r\n1,2\r\n\r\n3\r\n', 4),
        ('v,w\n1,2\n3,4\n5\n"6",7\n', 4),
    ], ids=["quote-free", "quoted-header-crlf", "quote-after"])
    def test_short_row_amid_quote_free_rows_reports_its_line(self, text, line):
        with pytest.raises(IngestError, match=f"row at line {line} has no column 'w'"):
            scanned(DatasetSource(format="csv", column="w"), text)

    def test_a_read_completed_to_a_lone_cr_reaches_csv_as_it_is(self, monkeypatch):
        # the read '"' is completed to '"\r'; a "\n" put after it would make
        # the quoted field 5 characters long, past a field size limit of 4
        monkeypatch.setattr(ingest, "_CHUNK", 1)
        limit = csv.field_size_limit(4)
        try:
            got = scanned(DatasetSource(format="csv", column=0), '1\n"\r\r\r\r"\n')
        finally:
            csv.field_size_limit(limit)
        assert got == (counts_of([1]), skips(blank=1))

    @pytest.mark.parametrize("fmt", ["lines", "csv"])
    def test_key_edges_equal_the_per_record_path(self, fmt):
        # past _K digits or with an exponent, a numeral is read by the exact route
        if fmt == "lines":
            source, text = DatasetSource(format="lines"), "\n".join(KEY_EDGES)
        else:
            source, text = DatasetSource(format="csv", column="v"), "\n".join(["v", *KEY_EDGES])
        for base in range(2, 65):
            assert scanned(source, text, base) == per_record(source, text, base), base

    # skipped: (blank, non-numeric, exponent, zero) records
    @pytest.mark.parametrize("text, counts, skipped", [
        ("5\r\n\r6\r 7 \n", (0, 0, 0, 0, 1, 1, 1, 0, 0), (1, 0, 0, 0)),
        ("\ufeff1\x0b\n\x852\u2028\n3\x0b4", (1, 1, 0) + (0,) * 6, (0, 1, 0, 0)),
        ("0\n1e10000\n\n", (0,) * 9, (1, 0, 1, 1)),
        ("n/a\n\nn/a\n \n3\n3\n", (0, 0, 2) + (0,) * 6, (2, 2, 0, 0)),
    ], ids=["line-ends", "strip-whitespace", "zero-exponent-blank", "repeats"])
    def test_known_lines(self, text, counts, skipped):
        got, warnings = scanned(DatasetSource(format="lines"), text, 10)
        assert got == counts
        assert warnings == skips(*skipped)

    def test_short_csv_row_reports_its_line(self):
        source = DatasetSource(format="csv", column=1)
        # the quoted field spans lines 2 and 3
        with pytest.raises(IngestError, match="line 4"):
            scanned(source, '1,2\n"a\nb",3\n7\n', 10)


def _neighbours(threshold: str) -> list[str]:
    """A threshold's text and those one unit below and above in its last
    digit, as numerals: "48", "49", "50", or ".24", ".25", ".26"."""
    digits = threshold.lstrip(".")
    n, width = int(digits), len(digits)
    if digits == threshold:
        return [str(m) for m in (n - 1, n, n + 1)]
    return [f".{m:0{width}}" if m < 10**width else "1" for m in (n - 1, n, n + 1)]


def _with_exponents(numeral: str) -> tuple[str, str]:
    """``numeral`` with its point moved and an exponent: "48" as "4.8e1" and
    "4800e-2", ".25" as "2.5e-1" and "2500e-4"."""
    whole, _, frac = numeral.partition(".")
    digits = str(int(whole + frac))
    return f"{digits[0]}.{digits[1:]}e{len(digits) - 1 - len(frac)}", f"{digits}00e-{len(frac) + 2}"


class TestThresholdTable:
    @pytest.mark.parametrize("base", range(2, 65))
    def test_keys_match_the_exact_route(self, base):
        # keys: every threshold and its neighbours one unit off in the last digit,
        # placed as `scan` places them (the slice of W's length), and, also with
        # the point moved and an exponent, by `_numeral_digit` and by `scan`
        # itself (lines, and one CSV column), against `_leading_digit`
        strings, lo, hi, digit_at = ingest._threshold_table(base)
        assert ingest._threshold_table(base)[0] is strings  # built once
        assert strings[0] == "." + "0" * (_K - 1) + "1" and len(strings[-1]) == _K
        assert len(digit_at) > len(strings)
        assert len(lo) == len(hi) == _K + 1

        def place(t):  # L digits of an integer, or 0 for a fraction
            return 0 if t[0] == "." else len(t)

        places = Counter(map(place, strings))
        for L in range(_K + 1):
            part = strings[lo[L]:hi[L]]
            assert part == sorted(part) and {*map(place, part)} == {L} and len(part) == places[L]

        def exact(numeral):
            value = Fraction(numeral)
            return _leading_digit(value.numerator, value.denominator, base) if value else 0

        plain = sorted({n for t in strings for n in _neighbours(t)})
        lens = [len(n.partition(".")[0].lstrip("0")) for n in plain]
        assert [digit_at[bisect_right(strings, n.lstrip("0"), lo[L], hi[L])]
                for n, L in zip(plain, lens)] == [*map(exact, plain)]
        for numerals in (plain, *zip(*map(_with_exponents, plain))):
            want = [*map(exact, numerals)]
            assert [ingest._numeral_digit(base, *re.fullmatch(NUMERAL, n).groups(""))
                    for n in numerals] == want
            seen = Counter(want)
            lines = "\n".join(numerals)
            csv_text = "id,v\n" + "".join(f"{i},{n}\n" for i, n in enumerate(numerals))
            for source, text in ((DatasetSource("lines"), lines),
                                 (DatasetSource("csv", "v"), csv_text)):
                counts, _ = scanned(source, text, base)
                assert counts == tuple(seen[d] for d in range(1, base)), (source, numerals[:3])


def _peak_scan(source, path, base) -> int:
    with open(path, "rb") as fh:
        tracemalloc.start()
        try:
            scan(source, fh, base)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("fmt, base, end, quoted", [
    ("lines", 10, "\n", False), ("csv", 10, "\n", False), ("lines", 7, "\n", False),
    ("csv", 7, "\n", False), ("csv", 10, "\r", False), ("csv", 7, "\n", True),
], ids=["lines-10", "csv-10", "lines-7", "csv-7", "csv-cr-10", "csv-quoted-7"])
def test_scan_memory_is_flat_in_the_input_size(fmt, base, end, quoted, tmp_path):
    # rows ended by a lone "\r", or a quoted field in the first row, send a
    # CSV to csv.reader from its first read
    source = DatasetSource(format=fmt, column="v" if fmt == "csv" else None)
    peaks = []
    # tracemalloc traces every allocation, and a record read in base 7 makes
    # several times as many as in base 10; 90k more records still put any
    # object kept per record past the bound
    for n in (20_000, 200_000) if base == 10 else (10_000, 100_000):
        path = tmp_path / f"{n}.{fmt}"
        values = (f"{i * 7919 % 100_003}.{i % 997}e-{i % 7}" if i % 50 else "n/a"
                  for i in range(n))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"v{end}" if fmt == "csv" else "")
            fh.writelines(f'"{v}"{end}' if quoted and i == 0 else f"{v}{end}"
                          for i, v in enumerate(values))
        peaks.append(_peak_scan(source, path, base))
    assert abs(peaks[1] - peaks[0]) < 256 * 1024, peaks


class _Pipe(io.BytesIO):
    """A byte stream that cannot tell its position, as a pipe."""

    def seekable(self):
        return False

    def tell(self):
        raise io.UnsupportedOperation("tell")


BOM = "\ufeff".encode()


def _undecodable(fmt, bom, at, bad):
    """A dataset of lines of 1, after ``bom`` and a header for csv, with the
    bytes ``bad`` at offset ``at``."""
    head = bom + (b"v\n" if fmt == "csv" else b"")
    return (head + b"1\n" * at)[:at] + bad


@pytest.mark.parametrize("bom, at, bad", [
    (b"", 200_000, b"\xff\n3\n"), (BOM, 16_383, b"\xe2\x82(\n3\n"), (b"", 9_000, b"\xe2\x82"),
], ids=["byte", "straddling-reads", "cut-short"])
@pytest.mark.parametrize("fmt", ["lines", "csv"])
@pytest.mark.parametrize("opened", ["file", "bytesio"])
def test_undecodable_bytes_name_their_input_offset(opened, fmt, bom, at, bad, tmp_path):
    # the codec's own error names a position within one read of the stream
    source = DatasetSource(fmt, "v" if fmt == "csv" else None)
    data = _undecodable(fmt, bom, at, bad)
    path = tmp_path / "bad.dat"
    path.write_bytes(data)
    with open(path, "rb") if opened == "file" else io.BytesIO(data) as stream:
        with pytest.raises(UnicodeDecodeError, match=f"can't decode b'.*' at input offset {at}: "):
            scan(source, stream, 10)


@pytest.mark.parametrize("fmt", ["lines", "csv"])
def test_undecodable_bytes_of_a_pipe_name_no_offset(fmt):
    source = DatasetSource(fmt, "v" if fmt == "csv" else None)
    with pytest.raises(UnicodeDecodeError) as info:
        scan(source, _Pipe(_undecodable(fmt, b"", 200_000, b"\xff\n")), 10)
    assert str(info.value) == "'utf-8' codec can't decode b'\\xff': invalid start byte"
