"""Report documents and their text / JSON / CSV renderings.

A ReportDocument is the single structured result every CLI subcommand
produces; the JSON shape is stable per mode: {mode, base|bases, <payload>,
warnings}. The text and CSV renderers never look at the mode, only at the
payload's shape, which is exactly one of

- ``rows``: a table, as dicts with the same keys (pmf, table1, table2);
- ``digits``: a list of leading digits (sequence);
- ``histogram``: ``{base, total, counts}``, ``counts[i]`` being the count of
  digit i+1 (sequence --tally, analyze);

plus an optional ``fit`` (analyze), shown in text and left out of CSV.
Reals are serialized with 6 significant digits, and decimal points are used
everywhere regardless of locale conventions.
"""

from __future__ import annotations

import io
import math
from types import SimpleNamespace


class ReportDocument(SimpleNamespace):
    """One command's result, as the documents print it: ``base`` is an int,
    or None when ``bases`` lists the table's bases (an int each, or "inf"
    for the infinite-system row)."""

    def __init__(self, mode: str, base: int | None = None, bases: list | None = None,
                 payload: dict | None = None, warnings: list[str] | None = None):
        super().__init__(mode=mode, base=base, bases=bases,
                         payload={} if payload is None else payload,
                         warnings=[] if warnings is None else warnings)


def _round_reals(value):
    """Recursively round floats to 6 significant digits; reject non-finite ones."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("report bodies must contain only finite numbers")
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round_reals(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_reals(v) for v in value]
    return value


def render_json(doc: ReportDocument) -> str:
    import json  # loaded only by the documents that use it, as is csv

    out = {"mode": doc.mode}
    if doc.bases is not None:
        out["bases"] = doc.bases
    else:
        out["base"] = doc.base
    out.update(_round_reals(doc.payload))
    out["warnings"] = list(doc.warnings)
    return json.dumps(out, indent=2)


def format_digit(d: int) -> str:
    """Digits above 9 are shown as bracketed numbers, e.g. [10], not letters."""
    return str(d) if d <= 9 else f"[{d}]"


def _table(payload: dict) -> tuple[list[str], list[list]]:
    """The payload as one table of raw values: (column names, rows)."""
    if "rows" in payload:
        columns = list(payload["rows"][0])
        return columns, [[r[c] for c in columns] for r in payload["rows"]]
    if "digits" in payload:
        return ["index", "digit"], [[i, d] for i, d in enumerate(payload["digits"])]
    hist = payload["histogram"]
    total = hist["total"]
    return ["digit", "count", "frequency"], [
        [i + 1, c, c / total if total else None] for i, c in enumerate(hist["counts"])
    ]


def _text_cell(column: str, value) -> str:
    if value is None:
        return "-"
    if column == "digit":
        return format_digit(value)
    if column == "reference_p1":
        return f"{value:.2f}"  # the published column has two decimals
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def aligned_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in [headers, *rows]
    )


def _fit_text(fit: dict | None) -> str:
    if fit is None:
        return "fit: not available"
    return (
        f"chi2 = {fit['chi2']:.6g}  df = {fit['df']}  p_value = {fit['p_value']:.6g}\n"
        f"mad = {fit['mad']:.6g}  max_deviation = {fit['max_deviation']:.6g}  "
        f"verdict = {fit['verdict']}"
    )


def render_text(doc: ReportDocument) -> str:
    payload = doc.payload
    if "digits" in payload:
        parts = [" ".join(format_digit(d) for d in payload["digits"])]
    else:
        columns, rows = _table(payload)
        cells = [[_text_cell(c, v) for c, v in zip(columns, row)] for row in rows]
        parts = [aligned_table(columns, cells)]
        if "histogram" in payload:
            parts.append(f"total  {payload['histogram']['total']}")
        if "delta" in columns:
            worst = max(payload["rows"], key=lambda r: abs(r["delta"]))
            parts.append(
                f"max |delta| = {abs(worst['delta']):.6f} (digit {worst['digit']})"
            )
    if "fit" in payload:
        parts.append(_fit_text(payload["fit"]))
    parts.extend(f"warning: {w}" for w in doc.warnings)
    return "\n".join(parts) + "\n"


def _csv_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return value


def render_csv(doc: ReportDocument) -> str:
    import csv

    columns, rows = _table(doc.payload)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_value(v) for v in row] for row in rows)
    return out.getvalue()
