"""Expected stdout of every benchmarked command, computed without the program.

Digits come from exact integer arithmetic: the generator's (m, q) pairs for
datasets (see gen.py) and a big-integer walk of the terms for sequences.
Probabilities are evaluated in 40-digit decimal and rounded once to float,
and the chi-square tail uses the closed forms of Q(s, x) for integer and
half-integer s. The documents are then rendered here from the CLI's
documented format, so a change anywhere on the program's path, renderer
included, shows up as a byte mismatch.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext
from functools import lru_cache

BENFORD_1938 = (0.306, 0.185, 0.124, 0.094, 0.080, 0.064, 0.051, 0.049, 0.047)
POW2_P1_REFERENCE = {
    2: 1.00, 3: 0.70, 4: 0.65, 5: 0.62, 6: 0.55, 7: 0.50,
    8: 0.44, 9: 0.38, 10: 0.31, 11: 0.25, 12: 0.20,
}
SMALL_CELL_EXPECTED = 5.0
MAD_VERDICTS = ((0.006, "close"), (0.012, "acceptable"), (0.015, "marginal"))


# --- exact digits of integer sequences --------------------------------------


def terms(kind: str, n: int):
    """The first n terms of pow2, powa:<a>, fact or fib."""
    if kind == "fact":
        x = 1
        for i in range(1, n + 1):
            x *= i
            yield x
        return
    if kind == "fib":
        a, b = 1, 1
        for _ in range(n):
            yield a
            a, b = b, a + b
        return
    a = 2 if kind == "pow2" else int(kind.split(":", 1)[1])
    x = 1
    for _ in range(n):
        yield x
        x *= a


def sequence_digits(kind: str, n: int, base: int) -> list[int]:
    """Leading digits of nondecreasing terms: carry base**j <= x < base**(j+1)."""
    out = []
    pw, nxt = 1, base
    for x in terms(kind, n):
        while nxt <= x:
            pw, nxt = nxt, nxt * base
        out.append(x // pw)
    return out


def histogram(digits, base: int) -> list[int]:
    counts = [0] * (base - 1)
    for d in digits:
        counts[d - 1] += 1
    return counts


# --- the law, the fit -------------------------------------------------------


@lru_cache(maxsize=None)
def pmf(base: int) -> tuple[float, ...]:
    """log_base(1 + 1/d), d = 1..base-1, correctly rounded from 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        ln_b = Decimal(base).ln()
        return tuple(
            float(((Decimal(d + 1) / d).ln()) / ln_b) for d in range(1, base)
        )


def asymptotic_p1(base: int) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        return float(Decimal(2).ln() / Decimal(base).ln())


def chi_square_tail(statistic: float, df: int) -> float:
    """Q(df/2, statistic/2) by its closed form (df/2 integer or half-integer)."""
    x = statistic / 2.0
    if x == 0.0:
        return 1.0
    if df % 2 == 0:
        q = sum(math.exp(i * math.log(x) - x - math.lgamma(i + 1)) for i in range(df // 2))
    else:
        q = math.erfc(math.sqrt(x)) + sum(
            math.exp((i + 0.5) * math.log(x) - x - math.lgamma(i + 1.5))
            for i in range(df // 2)
        )
    return min(max(q, 0.0), 1.0)


def fit(counts: list[int], base: int) -> tuple[dict, list[str]]:
    probs = pmf(base)
    n = sum(counts)
    chi2 = sum((o - n * p) ** 2 / (n * p) for o, p in zip(counts, probs))
    df = base - 2
    dev = [abs(c / n - p) for c, p in zip(counts, probs)]
    mad = sum(dev) / len(dev)
    verdict = next((v for cut, v in MAD_VERDICTS if mad <= cut), "nonconforming")
    warnings = []
    small = sum(1 for p in probs if n * p < SMALL_CELL_EXPECTED)
    if small:
        warnings.append(
            f"{small} of {base - 1} expected counts are below "
            f"{SMALL_CELL_EXPECTED:g}; chi-square p-value is approximate"
        )
    doc = {
        "chi2": chi2,
        "df": df,
        "p_value": chi_square_tail(chi2, df),
        "mad": mad,
        "max_deviation": max(dev),
        "verdict": verdict,
    }
    return doc, warnings


# --- rendering (the CLI's documented text / JSON / CSV format) ---------------


def _digit(d: int) -> str:
    return str(d) if d <= 9 else f"[{d}]"


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return v


def _round6(v):
    if isinstance(v, float):
        return float(f"{v:.6g}")
    if isinstance(v, dict):
        return {k: _round6(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_round6(x) for x in v]
    return v


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(c) for c in col) for col in zip(headers, *rows)]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
        for line in [headers, *rows]
    )


def _json_doc(mode: str, head: dict, body: dict, warnings: list[str]) -> str:
    doc = {"mode": mode, **head, **_round6(body), "warnings": warnings}
    return json.dumps(doc, indent=2) + "\n"


def _csv(header: list[str], rows) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


def _hist_text(counts: list[int]) -> str:
    total = sum(counts)
    rows = [
        [_digit(i + 1), str(c), _cell(c / total if total else None)]
        for i, c in enumerate(counts)
    ]
    return _table(["digit", "count", "frequency"], rows) + f"\ntotal  {total}"


def _hist_csv(counts: list[int]) -> str:
    total = sum(counts)
    return _csv(
        ["digit", "count", "frequency"],
        ([i + 1, c, _csv_cell(c / total if total else None)] for i, c in enumerate(counts)),
    )


def _text(parts: list[str], warnings: list[str]) -> str:
    return "\n".join(parts + [f"warning: {w}" for w in warnings]) + "\n"


def _rows_doc(mode: str, head: dict, rows: list[dict], fmt: str, text_rows, tail=()) -> str:
    if fmt == "json":
        return _json_doc(mode, head, {"rows": rows}, [])
    if fmt == "csv":
        header = list(rows[0])
        return _csv(header, ([_csv_cell(r[c]) for c in header] for r in rows))
    header = list(rows[0])
    return _text([_table(header, text_rows), *tail], [])


def _law_rows(base: int, p_key: str) -> list[dict]:
    rows = []
    for d, p in enumerate(pmf(base), start=1):
        row = {"digit": d, p_key: p}
        if base == 10:
            ref = BENFORD_1938[d - 1]
            row["reference"] = ref
            row["delta"] = p - ref
        rows.append(row)
    return rows


def _law_doc(mode: str, base: int, p_key: str, fmt: str) -> str:
    rows = _law_rows(base, p_key)
    text_rows = [[_digit(r["digit"])] + [_cell(v) for k, v in r.items() if k != "digit"] for r in rows]
    tail = []
    if base == 10:
        worst = max(rows, key=lambda r: abs(r["delta"]))
        tail.append(f"max |delta| = {abs(worst['delta']):.6f} (digit {worst['digit']})")
    return _rows_doc(mode, {"base": base}, rows, fmt, text_rows, tail)


def pmf_doc(base: int, fmt: str) -> str:
    return _law_doc("pmf", base, "p", fmt)


def table1_doc(fmt: str) -> str:
    return _law_doc("table1", 10, "theory", fmt)


def table2_doc(n: int, bases: range, seq_base: int, fmt: str) -> str:
    kind = "pow2" if seq_base == 2 else f"powa:{seq_base}"
    ref = POW2_P1_REFERENCE if seq_base == 2 else {}
    rows = []
    for b in bases:
        ones = sequence_digits(kind, n, b).count(1)
        rows.append({
            "base": b,
            "n": n,
            "empirical_p1": ones / n,
            "asymptotic_p1": asymptotic_p1(b),
            "reference_p1": ref.get(b),
        })
    rows.append({
        "base": "inf",
        "n": n,
        "empirical_p1": 1.0 / n,
        "asymptotic_p1": 0.0,
        "reference_p1": 0.0 if seq_base == 2 else None,
    })
    text_rows = [
        [str(r["base"]), str(r["n"]), _cell(r["empirical_p1"]), _cell(r["asymptotic_p1"]),
         "-" if r["reference_p1"] is None else f"{r['reference_p1']:.2f}"]
        for r in rows
    ]
    return _rows_doc("table2", {"bases": [r["base"] for r in rows]}, rows, fmt, text_rows)


def sequence_doc(kind: str, n: int, base: int, fmt: str, tally: bool) -> str:
    digits = sequence_digits(kind, n, base)
    if tally:
        return histogram_doc("sequence", base, histogram(digits, base), fmt)
    if fmt == "json":
        return _json_doc("sequence", {"base": base}, {"digits": digits}, [])
    if fmt == "csv":
        return _csv(["index", "digit"], enumerate(digits))
    return _text([" ".join(_digit(d) for d in digits)], [])


def emit_values_doc(kind: str, n: int) -> str:
    return "".join(f"{x}\n" for x in terms(kind, n))


def histogram_doc(mode: str, base: int, counts: list[int], fmt: str, fit_doc=None,
                  warnings=()) -> str:
    """A sequence tally (mode 'sequence') or an analyze report (mode 'analyze')."""
    warnings = list(warnings)
    hist = {"base": base, "total": sum(counts), "counts": counts}
    if fmt == "csv":
        return _hist_csv(counts)
    if fmt == "json":
        body = {"histogram": hist}
        if mode == "analyze":
            body["fit"] = fit_doc
        return _json_doc(mode, {"base": base}, body, warnings)
    parts = [_hist_text(counts)]
    if mode == "analyze":
        if fit_doc is None:
            parts.append("fit: not available")
        else:
            f = fit_doc
            parts.append(
                f"chi2 = {f['chi2']:.6g}  df = {f['df']}  p_value = {f['p_value']:.6g}\n"
                f"mad = {f['mad']:.6g}  max_deviation = {f['max_deviation']:.6g}  "
                f"verdict = {f['verdict']}"
            )
    return _text(parts, warnings)


def analyze_doc(base: int, counts: list[int], blank: int, non_numeric: int, zeros: int,
                fmt: str) -> str:
    warnings = []
    if blank:
        warnings.append(f"skipped {blank} blank field(s)")
    if non_numeric:
        warnings.append(f"skipped {non_numeric} non-numeric token(s)")
    if zeros:
        warnings.append(f"skipped {zeros} zero value(s)")
    fit_doc = None
    if sum(counts) == 0:
        warnings.append("no usable records; nothing to fit")
    elif base == 2:
        warnings.append("base 2 has a single digit cell; chi-square fit undefined")
    else:
        fit_doc, fit_warnings = fit(counts, base)
        warnings.extend(fit_warnings)
    return histogram_doc("analyze", base, counts, fmt, fit_doc, warnings)
