"""Spans around fuzzseed's public functions, and the per-layer figures
derived from them.

`Tracer.install` wraps every public function (and public method of a
public class) of the layer modules, then rebinds every reference to the
original held by a fuzzseed module, including module-level dicts such as
the CLI's command table, so calls made across modules are traced too.
The returned undo list restores the originals. Wrapping happens by
discovery, not by a fixed list, so a renamed function is still traced;
the named metrics of layers.NAMED that refer to it then show up as
missing instead of zero.

A span is [name, kind, start, end, parent, op, info]. `kind` is "call"
for a wrapped function and "step" for a span the benchmark opens itself
(an operation, a CLI subprocess). `op` is the index of the operation the
span belongs to (spans of one operation share it; None for set-up).
`info` holds counts read from the return value: distance evaluations of
a SeedSet, iterations of an FcmResult, rows of a Dataset, cells of a
distance matrix, errored cells of a ComparisonReport.

Only the standard library is imported here, so the traced CLI child
pays nothing extra before it times its own `import fuzzseed`.
"""

import contextlib
import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "data", "synth", "seeding", "engine", "validity", "bench")

# Private functions that are still a layer boundary worth a span: one
# benchmark cell.
EXTRA_BOUNDARIES = {"bench": ("_run_cell",)}

NAME, KIND, START, END, PARENT, OP, INFO = range(7)


def _summarize(result) -> dict | None:
    if hasattr(result, "distance_evals") and hasattr(result, "source_indices"):
        return {"dist_evals": int(result.distance_evals or 0)}
    if hasattr(result, "objective_trace"):
        return {"iterations": len(result.objective_trace)}
    if hasattr(result, "points") and hasattr(result, "labels"):
        return {"rows": int(result.n)}
    if hasattr(result, "cells") and hasattr(result, "criteria"):
        errored = sum(
            cell["error"] is not None for per_ds in result.cells.values() for cell in per_ds.values()
        )
        return {"errored": int(errored)}
    if hasattr(result, "ndim") and result.ndim == 2:
        return {"evals": int(result.size)}
    return None


class Tracer:
    """Collects spans in memory; `dump` writes them out at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def _open(self, name: str, kind: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, kind, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, info=None) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[INFO] = info

    @contextlib.contextmanager
    def step(self, name: str):
        """A span the benchmark itself opens; yields its index."""
        idx = self._open(name, "step")
        try:
            yield idx
        finally:
            self._close(idx)

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span `parent`.

        perf_counter is CLOCK_MONOTONIC on Linux, so child timestamps
        share the parent's time base.
        """
        offset = len(self.spans)
        op = self.spans[parent][OP]
        for span in child_spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] is None else span[PARENT] + offset
            span[OP] = op
            self.spans.append(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, "call")
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, _summarize(result))

        return traced

    def install(self) -> list[tuple]:
        """Wrap every public function of the layer modules; return an undo
        list of (owner, key, original) for `uninstall`."""
        modules = {layer: importlib.import_module(f"fuzzseed.{layer}") for layer in LAYERS}
        wrappers: dict = {}
        undo: list[tuple] = []
        for layer, mod in modules.items():
            extra = EXTRA_BOUNDARIES.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or attr in extra):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth_name, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not meth_name.startswith("_"):
                            undo.append((obj, meth_name, meth))
                            setattr(obj, meth_name, self.wrap(f"{layer}.{attr}.{meth_name}", meth))
        owners = [importlib.import_module("fuzzseed"), *modules.values()]
        for mod in owners:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            undo.append((obj, key, value))
                            obj[key] = wrappers[value]
        return undo

    @staticmethod
    def uninstall(undo: list[tuple]) -> None:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "harness"


class SpanIndex:
    """Read-only queries over a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        self.by_name: dict[str, list[int]] = {}
        for idx, span in enumerate(spans):
            if span[PARENT] is not None:
                self.children[span[PARENT]].append(idx)
            self.by_name.setdefault(span[NAME], []).append(idx)

    def dur(self, idx: int) -> float:
        return self.spans[idx][END] - self.spans[idx][START]

    def self_time(self, idx: int) -> float:
        return self.dur(idx) - sum(self.dur(c) for c in self.children[idx])

    def ancestors(self, idx: int):
        parent = self.spans[idx][PARENT]
        while parent is not None:
            yield parent
            parent = self.spans[parent][PARENT]

    def named(self, name: str, op=...) -> list[int]:
        """Spans called `name` (in operation `op` when given), skipping
        those nested inside another span of the same name."""
        return [
            i
            for i in self.by_name.get(name, ())
            if (op is ... or self.spans[i][OP] == op)
            and not any(self.spans[a][NAME] == name for a in self.ancestors(i))
        ]

    def ops(self) -> list[int]:
        return sorted({s[OP] for s in self.spans if s[OP] is not None})

    def op_root(self, op: int) -> int:
        return next(i for i, s in enumerate(self.spans) if s[OP] == op and s[PARENT] is None)

    def info_sum(self, indices, key: str) -> int:
        return sum((self.spans[i][INFO] or {}).get(key, 0) for i in indices)

    def layer_self(self, op: int) -> dict:
        """Self time per layer within one operation, in seconds."""
        out = {layer: 0.0 for layer in LAYERS + ("harness",)}
        for i, s in enumerate(self.spans):
            if s[OP] == op:
                out[layer_of(s[NAME])] += self.self_time(i)
        return out

    def layer_calls(self, op: int) -> dict:
        out = {layer: 0 for layer in LAYERS}
        for s in self.spans:
            if s[OP] == op and s[KIND] == "call" and layer_of(s[NAME]) in out:
                out[layer_of(s[NAME])] += 1
        return out

    def leaf_dist_evals(self, op: int) -> int:
        """Distance evaluations of the seed sets a seeding call returned,
        counted only at the innermost call that reported them, so a seed
        set passed up through make_seeds or seed_repeated counts once."""
        reporting = [
            i for i, s in enumerate(self.spans)
            if s[OP] == op and s[NAME].startswith("seeding.") and "dist_evals" in (s[INFO] or {})
        ]
        inner = set(reporting)
        for i in reporting:
            inner.difference_update(self.ancestors(i))
        return self.info_sum(inner, "dist_evals")
