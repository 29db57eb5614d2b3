"""In-memory spans around calls into the package's public functions.

``install`` wraps every public function of the traced layers at every module
binding in the process, because the CLI reaches them through
``from .x import y``; ``uninstall`` puts the originals back. Nothing under ``src/`` is edited. Private helpers are
not wrapped, and neither are the string-rendering helpers, whose time
belongs to the CLI's own (self) time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("tree", "diffusion", "solver", "css", "experiment")
RENDERING = frozenset({"format_fraction", "strategy_to_pairs", "strategy_from_pairs", "parse_probability"})
CLI = "cli"  # name of the span around each whole CLI call

# Span fields, kept as small lists: name, parent index, start, end, cells.
NAME, PARENT, START, END, CELLS = range(5)


def _cells(args) -> int | None:
    """Rows x columns of a subgame passed as a sequence of rows."""
    try:
        return len(args[0]) * len(args[0][0])
    except (IndexError, TypeError):
        return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] | None = None
        self.wrapped: set[str] = set()

    def span(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
        if name == "solver.solve_matrix_game":
            rec[CELLS] = _cells(args)
        spans.append(rec)
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            rec[END] = perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Put the wrappers in place; the first call finds the bindings."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn, _ in self._bindings or ():
            setattr(module, name, fn)

    def _find_bindings(self) -> list[tuple]:
        modules = [m for k, m in list(sys.modules.items()) if k == "treegame" or k.startswith("treegame.")]
        bindings = []
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"treegame.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or attr in RENDERING or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                self.wrapped.add(f"{layer}.{attr}")
                for m in modules:
                    bindings += [(m, name, fn, wrapper) for name, obj in vars(m).items() if obj is fn]
        return bindings


def layer_metrics(tracer: Tracer, names: list[str], trees: int, time_scale: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the recorded spans, per tree solved.

    ``<layer>.<function>.s`` is inclusive time, ``.self_s`` that time minus
    the traced children, ``.calls`` a count; times are multiplied by
    ``time_scale`` (reference seconds per wall second). Returns the values
    and the names whose function no longer exists (reported as 0 and absent).
    """
    child = [0.0] * len(tracer.spans)
    for rec in tracer.spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    cells_sum = 0
    cells_max = 0
    for i, rec in enumerate(tracer.spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        if rec[CELLS] is not None:
            cells_sum += rec[CELLS]
            cells_max = max(cells_max, rec[CELLS])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    derived = {
        "solver.rounds_per_solve": (
            ("solver.solve_matrix_game", "solver.solve_value"),
            lambda: ratio(calls.get("solver.solve_matrix_game", 0), calls.get("solver.solve_value", 0)),
        ),
        "solver.subgame_cells": (("solver.solve_matrix_game",), lambda: cells_sum / trees),
        "solver.subgame_max_cells": (("solver.solve_matrix_game",), lambda: cells_max),
        "experiment.sample_accept_ratio": (
            ("experiment.random_tree",),
            lambda: ratio(trees, calls.get("experiment.random_tree", 0)),
        ),
    }
    present = tracer.wrapped | {CLI}
    values: dict[str, float] = {}
    absent: list[str] = []
    for metric in names:
        if metric in derived:
            needs, compute = derived[metric]
        else:
            base, _, kind = metric.rpartition(".")
            needs = (base,)
            table, unit = {"s": (incl, time_scale), "self_s": (self_s, time_scale), "calls": (calls, 1)}[kind]
            compute = lambda table=table, base=base, unit=unit: table.get(base, 0) * unit / trees  # noqa: E731
        if all(f in present for f in needs):
            values[metric] = compute()
        else:
            absent.append(metric)
            values[metric] = 0.0
    return values, absent
