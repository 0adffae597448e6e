"""The text / JSON / CSV renderings of a command's document.

Every CLI subcommand produces one document: a plain dict in print order,
``{mode, base|bases, <payload>, warnings}``, whose JSON shape is stable per
mode. The text and CSV renderers never look at the mode, only at the
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

import math


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


def render_json(doc: dict) -> str:
    import json  # loaded only by the documents that use it

    return json.dumps(_round_reals(doc), indent=2)


def format_digit(d: int) -> str:
    """Digits above 9 are shown as bracketed numbers, e.g. [10], not letters."""
    return str(d) if d <= 9 else f"[{d}]"


def _table(doc: dict) -> tuple[list[str], list[list]]:
    """The document's payload as one table of raw values: (column names, rows)."""
    if "rows" in doc:
        columns = list(doc["rows"][0])
        return columns, [[r[c] for c in columns] for r in doc["rows"]]
    if "digits" in doc:
        return ["index", "digit"], [[i, d] for i, d in enumerate(doc["digits"])]
    hist = doc["histogram"]
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


def render_text(doc: dict) -> str:
    if "digits" in doc:
        parts = [" ".join(format_digit(d) for d in doc["digits"])]
    else:
        columns, rows = _table(doc)
        cells = [[_text_cell(c, v) for c, v in zip(columns, row)] for row in rows]
        parts = [aligned_table(columns, cells)]
        if "histogram" in doc:
            parts.append(f"total  {doc['histogram']['total']}")
        if "delta" in columns:
            worst = max(doc["rows"], key=lambda r: abs(r["delta"]))
            parts.append(
                f"max |delta| = {abs(worst['delta']):.6f} (digit {worst['digit']})"
            )
    if "fit" in doc:
        parts.append(_fit_text(doc["fit"]))
    parts.extend(f"warning: {w}" for w in doc["warnings"])
    return "\n".join(parts) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_csv(doc: dict) -> str:
    # the column names are identifiers and the cells numbers, "inf" or
    # empty, none of which a CSV quotes: joined by "," they are its rows
    columns, rows = _table(doc)
    lines = [columns, *([_csv_cell(v) for v in row] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)
