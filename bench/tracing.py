"""Span tracing of gapfill's layers from outside the program.

Every public function of each layer module is replaced, for the duration of
`Tracer.installed()`, by a wrapper that records a span: its name, start, end
and the span open when it was called. Modules import each other's functions
by name (`gapfill.model` calls its own `lstm_step` binding, `gapfill.cli`
its own `impute`), so a function is replaced under every name any gapfill
module holds it by, not only where it is defined.

Spans live in memory and are written out by `write_spans` after the run.
Spans recorded in worker processes stay in those processes and are lost;
only the calling process's spans are reported.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# `config` is left out: it runs once per call and costs well under 1%.
LAYERS = ("lstm", "numerics", "model", "optim", "data", "checkpoint", "cli", "eval")

# A counted span also stores count(result), e.g. the rows a CSV load returned.
COUNTS = {"data.load_csv": lambda table: table.n_rows}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, count or None), in call order
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.sites: list[str] = []  # every "module.attribute" replaced

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = count(result) if count is not None and result is not None else None
                spans[idx] = (name, start, end, parent, n)

        return traced

    @contextmanager
    def installed(self):
        """Trace every public layer function while the block runs."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"gapfill.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gapfill" and not mod_name.startswith("gapfill."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        self.sites = sorted(f"{m.__name__}.{a}" for m, a, _ in patched)
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


class LayerStats:
    """Per span name: call count, inclusive and self seconds, durations, counts."""

    def __init__(self, spans: list[tuple]):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counted: dict[str, int] = {}
        for idx, (name, start, end, _, n) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_time[idx]
            self.durations.setdefault(name, []).append(dur)
            if n is not None:
                self.counted[name] = self.counted.get(name, 0) + n

    def table(self) -> str:
        lines = [f"{'span':<32} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for name in sorted(self.total_s, key=self.self_s.get, reverse=True):
            lines.append(f"{name:<32} {self.calls[name]:>9d} "
                         f"{self.total_s[name]:>10.4f} {self.self_s[name]:>10.4f}")
        return "\n".join(lines)


def write_spans(path, spans: list[tuple]) -> None:
    """One CSV row per span; times in ns from the first span's start."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_ns,end_ns,count\n")
        for idx, (name, start, end, parent, n) in enumerate(spans):
            fh.write(f"{idx},{parent},{name},{round((start - t0) * 1e9)},"
                     f"{round((end - t0) * 1e9)},{'' if n is None else n}\n")
