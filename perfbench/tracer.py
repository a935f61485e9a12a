"""Per-layer tracing from outside the program.

Every traced function is replaced by a wrapper at each site that holds it:
the defining module's global, every other ``fcheaps`` module that imported it
by name, a class attribute, or a click command's callback.  Wrappers keep
call counts and self time (wall time minus the time of wrapped callees) in
memory; nothing is written until the benchmark asks for ``metrics``.

Modes: ``time`` times each call, ``gen`` times each ``next`` of a generator,
``count`` only counts calls (for leaves too hot to time).  A ``hit``
predicate on the result counts useful outcomes, the base of a ratio.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import wraps
from types import ModuleType

#: (layer, module, attribute path, mode, hit predicate or None)
TARGETS = [
    ("cli", "fcheaps.cli", "verify_cmd.callback", "time", None),
    ("cli", "fcheaps.cli", "cells_cmd.callback", "time", None),
    ("cli", "fcheaps.cli", "genfunc_cmd.callback", "time", None),
    ("cli", "fcheaps.cli", "series_cmd.callback", "time", None),
    ("cli", "fcheaps.cli", "walks_family.callback", "time", None),
    ("enumerator", "fcheaps.enumerator", "cross_validate", "time", None),
    ("enumerator", "fcheaps.enumerator", "enumerate_fc", "time", None),
    ("enumerator", "fcheaps.enumerator", "maj_profile", "time", None),
    ("enumerator", "fcheaps.enumerator", "passes_filter", "time", bool),
    ("enumerator", "fcheaps.enumerator", "iter_fc", "gen", None),
    ("heaps", "fcheaps.heaps", "extend", "time", lambda r: r is not None),
    ("heaps", "fcheaps.heaps", "is_self_dual", "time", None),
    ("heaps", "fcheaps.heaps", "classify_involution", "time", None),
    ("heaps", "fcheaps.heaps", "is_alternating", "time", None),
    ("heaps", "fcheaps.heaps", "Heap.from_word", "time", None),
    ("coxeter", "fcheaps.coxeter", "canonical_form", "time", None),
    ("coxeter", "fcheaps.coxeter", "build_graph", "time", None),
    ("coxeter", "fcheaps.coxeter", "CoxeterGraph.neighbors", "count", None),
    ("coxeter", "fcheaps.coxeter", "CoxeterGraph.edges", "count", None),
    ("genfunc", "fcheaps.genfunc", "solve_series", "time", None),
    ("genfunc", "fcheaps.genfunc", "length_genfunc", "time", None),
    ("genfunc", "fcheaps.genfunc", "maj_genfunc", "time", None),
    ("genfunc", "fcheaps.genfunc", "maj_genfunc_by_descents", "time", None),
    ("genfunc", "fcheaps.genfunc", "card_involutions", "time", None),
    ("genfunc", "fcheaps.genfunc", "affine_periodic_part", "time", None),
    ("genfunc", "fcheaps.genfunc", "reconcile", "time", None),
    ("qpoly", "fcheaps.qpoly", "TPoly.__mul__", "time", None),
    ("qpoly", "fcheaps.qpoly", "TPoly.__add__", "time", None),
    ("qpoly", "fcheaps.qpoly", "Series.__mul__", "time", None),
    ("qpoly", "fcheaps.qpoly", "Series.geom", "time", None),
    ("qpoly", "fcheaps.qpoly", "qbinomial", "time", None),
    ("qpoly", "fcheaps.qpoly", "detect_period", "time", None),
    ("qpoly", "fcheaps.qpoly", "periodicize", "time", None),
    ("walks", "fcheaps.walks", "encode_walk", "time", None),
    ("walks", "fcheaps.walks", "decode_walk", "time", None),
    ("walks", "fcheaps.walks", "family_poly", "time", None),
    ("cells", "fcheaps.cells", "cells_report", "time", None),
    ("cells", "fcheaps.cells", "reduce_fully", "time", None),
    ("cells", "fcheaps.cells", "reduction_moves", "time", None),
    ("cells", "fcheaps.cells", "remove_top", "time", None),
]

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


def _short(path: str) -> str:
    """Metric stem of a target: a command's callback is named by the command."""
    return path.removesuffix(".callback")


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, _module, path, mode, _hit in TARGETS:
        stem = f"{layer}.{_short(path)}"
        out.append((f"{stem}.calls", "count", "lower"))
        if mode != "count":
            out.append((f"{stem}.self_s", "s", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.errors", "count", "lower"))
    out += [
        ("heaps.extend.accepted", "count", "higher"),
        ("heaps.extend.accept_frac", "ratio", "higher"),
        ("enumerator.heaps_yielded", "count", "lower"),
        ("enumerator.unique_frac", "ratio", "higher"),
        ("enumerator.passes_filter.passed", "count", "lower"),
        ("enumerator.passes_filter.pass_frac", "ratio", "higher"),
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    hits: int = 0


class Tracer:
    """Installs the wrappers and aggregates their counts."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, fn, stat: Stat, hit):
        stack, clock = self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hit is not None and hit(result):
                stat.hits += 1
            return result
        return wrapper

    def _timed_gen(self, fn, stat: Stat, hit):
        stack, clock = self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                except BaseException:
                    stat.errors += 1
                    raise
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat.calls += 1
                    stat.self_s += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                stat.hits += 1
                yield item
        return wrapper

    def _counted(self, fn, stat: Stat, hit):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        make = {"time": self._timed, "gen": self._timed_gen, "count": self._counted}
        sites = [m for name, m in sys.modules.items()
                 if isinstance(m, ModuleType) and (name == "fcheaps" or name.startswith("fcheaps."))]
        for layer, module, path, mode, hit in TARGETS:
            key = f"{layer}.{_short(path)}"
            stat = self.stats[key] = Stat()
            *owner_path, attr = path.split(".")
            owner = sys.modules.get(module)
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(key)
                continue
            if isinstance(owner, ModuleType):
                wrapper = make[mode](raw, stat, hit)
                for site in sites:
                    for name, value in list(vars(site).items()):
                        if value is raw:
                            self._set(site, name, wrapper)
            elif isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make[mode](raw.__func__, stat, hit)))
            else:
                self._set(owner, attr, make[mode](raw, stat, hit))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- report ---------------------------------------------------------------

    def metrics(self, passes: int, untraced_run_s: float, traced_run_s: float) -> dict[str, float]:
        """Per-pass values of every metric named by ``metric_names``."""
        s = self.stats
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_errors = dict.fromkeys(LAYERS, 0)
        for layer, _module, path, mode, _hit in TARGETS:
            key = f"{layer}.{_short(path)}"
            st = s[key]
            out[f"{key}.calls"] = st.calls / passes
            if mode != "count":
                out[f"{key}.self_s"] = st.self_s / passes
            layer_self[layer] += st.self_s
            layer_errors[layer] += st.errors
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / passes
            out[f"{layer}.errors"] = layer_errors[layer] / passes

        def frac(num: int, den: int) -> float:
            return num / den if den else 0.0

        ext, filt, gen = s["heaps.extend"], s["enumerator.passes_filter"], s["enumerator.iter_fc"]
        out["heaps.extend.accepted"] = ext.hits / passes
        out["heaps.extend.accept_frac"] = frac(ext.hits, ext.calls)
        out["enumerator.heaps_yielded"] = gen.hits / passes
        out["enumerator.unique_frac"] = frac(gen.hits, ext.hits)
        out["enumerator.passes_filter.passed"] = filt.hits / passes
        out["enumerator.passes_filter.pass_frac"] = frac(filt.hits, filt.calls)
        out["trace.untraced_run_s"] = untraced_run_s
        out["trace.run_s"] = traced_run_s
        out["trace.overhead_s"] = traced_run_s - untraced_run_s
        return out
