"""Every kind of stdout document the CLI prints, frozen byte for byte.

`documents.json` maps each command below, in text, --json and --csv, to the
exact stdout of `main(argv)`. Regenerate it only when a document is meant to
change:

    PYTHONPATH=src python tests/test_documents.py > tests/documents.json
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from benford_radix.cli import main

GOLDEN = Path(__file__).with_name("documents.json")

COMMANDS = [
    # the same records with CRLF or lone-CR line ends, a BOM, no final newline
    "analyze {lines_crlf}",
    "analyze {lines_cr} --base 7",
    "analyze {csv_crlf} --format csv --column area",
    "analyze {csv_cr} --format csv --column area --base 7",
    "pmf --base 3",
    "pmf --base 10",
    "pmf --base 16",
    "table1",
    "table2 -n 13",
    "table2 -n 13 --seq-base 3",
    "sequence --kind fib --base 16 -n 60",
    "sequence --kind fib --base 16 -n 60 --tally",
    "analyze {lines}",
    "analyze {lines} --base 2",
    "analyze {csv} --format csv --column area --base 7",
]
FORMATS = ["text", "json", "csv"]


def _values() -> list[str]:
    """Mixed-scale numerals with signs, zeros and dirty records."""
    out = []
    for k in range(1, 121):
        v = str(3 ** k * 7 ** (k % 4))
        if k % 3 == 0:
            v = f"0.{'0' * (k % 5)}{v}"
        if k % 7 == 0:
            v = "-" + v
        out.append(v)
    return out + ["", "n/a", "0", "-0.000", "+.5"]


def _write_inputs(folder: Path) -> dict[str, str]:
    rows = ["name,area,note"] + [f"r{i},{v},x" for i, v in enumerate(_values())]
    texts = {
        "lines": "\n".join(_values()) + "\n",
        "csv": "\n".join(rows) + "\n",
        "lines_crlf": "\ufeff" + "\r\n".join(_values()),
        "lines_cr": "\r".join(_values()) + "\r",
        "csv_crlf": "\ufeff" + "\r\n".join(rows),
        "csv_cr": "\r".join(rows) + "\r",
    }
    paths = {}
    for name, text in texts.items():
        path = folder / f"{name}.{'csv' if name.startswith('csv') else 'txt'}"
        path.write_bytes(text.encode("utf-8"))
        paths[name] = str(path)
    return paths


def _stdout(command: str, fmt: str, inputs: dict[str, str]) -> str:
    argv = command.format(**inputs).split()
    if fmt != "text":
        argv.append(f"--{fmt}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_document_is_frozen(command, fmt, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{command} [{fmt}]"]
    assert _stdout(command, fmt, _write_inputs(tmp_path)) == expected


@pytest.mark.parametrize("fmt", FORMATS)
def test_line_ends_leave_the_document_as_it_was(fmt, tmp_path):
    inputs = _write_inputs(tmp_path)
    for ends, plain in [
        ("analyze {lines_crlf}", "analyze {lines}"),
        ("analyze {csv_cr} --format csv --column area --base 7",
         "analyze {csv} --format csv --column area --base 7"),
    ]:
        assert _stdout(ends, fmt, inputs) == _stdout(plain, fmt, inputs)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        inputs = _write_inputs(Path(folder))
        golden = {
            f"{c} [{f}]": _stdout(c, f, inputs) for c in COMMANDS for f in FORMATS
        }
    json.dump(golden, sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
