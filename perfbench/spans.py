"""Outside-in span tracing of the intersum layers, and self times from spans.

The traced child process calls `Tracer.install()` after importing
`intersum.cli`.  Every public module-level function of a layer module is
wrapped, and the wrapper is bound wherever *another* intersum module imported
it (`from .setcore import canonical_form` makes `intersum.search.canonical_form`
a separate binding).  Calls inside one module are not layer boundaries and
stay unwrapped, so their time counts as the calling span's self time.
`Tracer.restore()` puts every original binding back.

Spans live in memory as `(name_index, start, end, parent_index, pairs)` and
are written once, by `Tracer.dump()`, when the command has returned.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("setcore", "weights", "bounds", "cyclic", "search", "cli")
PACKAGE = "intersum"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_pairs = name.startswith("weights.")

        def traced(*args, **kwargs):
            idx = len(spans)
            pairs = 0
            if count_pairs:
                sizes = [len(a) for a in args if hasattr(a, "bitmasks")]
                if sizes:
                    pairs = sizes[0] * sizes[-1]
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1, pairs]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS
        }
        modules["__init__"] = importlib.import_module(PACKAGE)
        for layer in LAYERS:
            home = modules[layer]
            for attr, fn in vars(home).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != home.__name__:
                    continue
                wrapper = None
                for other_name, other in modules.items():
                    if other_name == layer or getattr(other, attr, None) is not fn:
                        continue
                    if wrapper is None:
                        wrapper = self.wrap(f"{layer}.{attr}", fn)
                    self._patched.append((other, attr, fn))
                    setattr(other, attr, wrapper)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}))


def load_spans(path: Path, cmd_id: str) -> tuple[list[str], list[dict]]:
    """Every wrapped function name, and the spans of one command as dicts
    with the command id attached."""
    data = json.loads(path.read_text())
    names = data["names"]
    return names, [
        {
            "name": names[s[0]],
            "start": s[1],
            "end": s[2],
            "parent": s[3],
            "pairs": s[4],
            "cmd": cmd_id,
        }
        for s in data["spans"]
    ]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one command run on one thread and nest, so the direct children
    of a span are disjoint intervals inside it.  `parent` indexes into the
    same command's span list.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
