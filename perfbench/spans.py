"""In-process span tracing around the public calls of each benford_radix module.

Spans are recorded by the benchmark, not by the program: while a Tracer is
installed, every module attribute that refers to one of the traced functions
is replaced by a timing wrapper, and restored afterwards. A generator
function gets one span whose busy time is the time spent inside its
``__next__``, so a layer is charged for the items it produces, wherever
they are consumed.

Calls with the same name under the same parent span in one command merge
into one span with a call count, which keeps a million per-record calls to
one record. A span's self time is its busy time minus the busy time of the
spans nested directly inside it.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

LAYERS = ("ingest", "digits", "sequences", "stats", "model", "report", "cli")

# (module, function, kind); kind "gen" marks generator functions.
TRACED = (
    ("ingest", "ingest", "gen"),
    ("digits", "leading_digit_decimal_string", "call"),
    ("sequences", "generate", "gen"),
    ("sequences", "iter_leading_digits", "gen"),
    ("stats", "tally", "call"),
    ("stats", "chi_square_fit", "call"),
    ("stats", "leading_one_by_base", "call"),
    ("model", "benford_pmf", "call"),
    ("model", "leading_one_probability", "call"),
    ("report", "render_text", "call"),
    ("report", "render_json", "call"),
    ("report", "render_csv", "call"),
)


class Span:
    __slots__ = ("id", "cmd", "name", "parent", "start", "end", "busy", "child", "calls")

    def __init__(self, id_, cmd, name, parent):
        self.id, self.cmd, self.name, self.parent = id_, cmd, name, parent
        self.start = self.end = None
        self.busy = self.child = self.calls = 0

    def record(self) -> dict:
        return {
            "id": self.id, "cmd": self.cmd, "name": self.name, "parent": self.parent,
            "start_ns": self.start, "end_ns": self.end, "busy_ns": self.busy,
            "self_ns": self.busy - self.child, "calls": self.calls,
        }


class Tracer:
    """Collects spans and counters in memory; ``dump`` writes them out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.commands: list[list[str]] = []
        self._index: dict = {}
        self._stack: list[Span] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str):
        stack = self._stack
        parent = stack[-1].id if stack else None
        key = (len(self.commands), parent, name)
        span = self._index.get(key)
        if span is None:
            span = self._index[key] = Span(len(self.spans), len(self.commands) - 1, name, parent)
            self.spans.append(span)
        stack.append(span)
        t0 = perf_counter_ns()
        if span.start is None:
            span.start = t0
        return span, t0

    def close(self, span: Span, t0: int) -> None:
        t1 = perf_counter_ns()
        d = t1 - t0
        span.busy += d
        span.calls += 1
        span.end = t1
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1].child += d

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def command(self, argv, main):
        """Run ``main(argv)`` as a new command under a ``cli.main`` root span."""
        self.commands.append(list(argv))
        span, t0 = self.open("cli.main")
        try:
            return main(list(argv))
        finally:
            self.close(span, t0)

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, name, fn):
        def traced(*args, **kwargs):
            span, t0 = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span, t0)
        return traced

    def _wrap_gen(self, name, fn, on_item=None, on_end=None):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span, t0 = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    if on_end is not None:
                        on_end(args)
                    return
                finally:
                    self.close(span, t0)
                if on_item is not None:
                    on_item(item)
                yield item
        return traced

    def _wrap_decimal_string(self, fn, no_digit):
        def traced(s, base=10):
            span, t0 = self.open(
                "digits.decimal_string.b10" if base == 10 else "digits.decimal_string.rational"
            )
            try:
                return fn(s, base)
            except no_digit:
                self.count("digits.zeros")
                raise
            finally:
                self.close(span, t0)
        return traced

    def _wrap_render(self, name, fn):
        inner = self._wrap_call(name, fn)

        def traced(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.count("report.bytes_out", len(out.encode()))
            return out
        return traced

    def _wrappers(self, package: str) -> dict:
        """Map id(original function) -> (original, wrapper)."""
        counters = self.counters
        counters.setdefault("sequences.term_bits_max", 0)

        def on_term(x):
            counters["sequences.terms"] = counters.get("sequences.terms", 0) + 1
            bits = x.bit_length()
            if bits > counters["sequences.term_bits_max"]:
                counters["sequences.term_bits_max"] = bits

        def on_record(_):
            counters["ingest.records"] = counters.get("ingest.records", 0) + 1

        def on_ingest_end(args):
            stats = args[2] if len(args) > 2 else None
            self.count(
                "ingest.skipped",
                getattr(stats, "skipped_blank", 0) + getattr(stats, "skipped_non_numeric", 0),
            )

        digits = importlib.import_module(f"{package}.digits")
        out = {}
        for mod_name, fn_name, kind in TRACED:
            fn = getattr(importlib.import_module(f"{package}.{mod_name}"), fn_name, None)
            if fn is None:
                continue
            name = f"{mod_name}.{fn_name}"
            if fn_name == "leading_digit_decimal_string":
                wrapper = self._wrap_decimal_string(fn, digits.NoSignificantDigit)
            elif fn_name == "ingest":
                wrapper = self._wrap_gen(name, fn, on_item=on_record, on_end=on_ingest_end)
            elif fn_name == "generate":
                wrapper = self._wrap_gen(name, fn, on_item=on_term)
            elif kind == "gen":
                wrapper = self._wrap_gen(name, fn)
            elif mod_name == "report":
                wrapper = self._wrap_render(name, fn)
            else:
                wrapper = self._wrap_call(name, fn)
            out[id(fn)] = (fn, wrapper)
        return out

    def install(self, package: str, modules) -> list:
        """Swap every reference to a traced function in ``modules``; return an undo list."""
        wrappers = self._wrappers(package)
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    # -- results ------------------------------------------------------------

    def busy_s(self, name: str) -> float:
        return sum(s.busy for s in self.spans if s.name == name) / 1e9

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.busy - s.child for s in self.spans if s.name.startswith(prefix)) / 1e9

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, argv in enumerate(self.commands):
                fh.write(json.dumps({"cmd": i, "argv": argv}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")
