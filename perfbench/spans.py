"""Outside-in span tracing of pvarpath's layer boundaries.

The tracer wraps a fixed list of boundary functions from outside the
package.  Modules import each other's functions with ``from .x import f``,
so a wrapper is rebound in every ``pvarpath`` module namespace that holds
the original function object, and every rebinding is undone on exit.

Per-element helpers (``serialize.fmt_float``, ``schauder.gamma*``, ``xi``,
``serialize.config_hash``) are deliberately not wrapped: ``fmt_float`` alone
runs about 4.2 million times per ``dyadic-large`` pass, and a wrapper costs
about 1.8 us per call.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _oracle_terms(args, kwargs, result):
    details = result.details
    return {"construct.variation_constant.terms": int(details.get("terms", details.get("N", 0)))}


# Boundary function -> (layer, counter).  A counter maps (args, kwargs,
# result) to count increments; it runs only when the call returned.
# Layers follow the pipeline: construct.variation_constant is the oracle
# layer, the rest of construct is the recipe layer.
BOUNDARIES = {
    "cli.run": ("cli", lambda a, k, r: {"cli.errors": int(r != 0)}),
    "partition.qadic_grid": ("partition", None),
    "partition.power_table": ("partition", None),
    "partition.random_refining_table": ("partition", None),
    "partition.build_homeomorphism": ("partition", None),
    "schauder.synthesize": (
        "schauder", lambda a, k, r: {"schauder.synthesize.points": int(r.values.size)}),
    "schauder.analyze": (
        "schauder",
        lambda a, k, r: {"schauder.analyze.points": int(_arg(a, k, 0, "path").values.size)}),
    "variation.pvar_profile": (
        "variation",
        lambda a, k, r: {
            "variation.pvar_profile.terms": int(_arg(a, k, 0, "path").values.size - 1)}),
    "variation.stieltjes_against_profile": ("variation", None),
    "variation.variation_index_estimate": ("variation", None),
    "construct.variation_constant": ("oracle", _oracle_terms),
    "construct.recipe": ("construct", None),
    "construct.reference_path": ("construct", None),
    "calculus.change_of_variable_residual": ("calculus", None),
    "calculus.follmer_sum": ("calculus", None),
    "timechange.pullback_path": ("timechange", None),
    "timechange.transported_pvar_check": ("timechange", None),
    "timechange.transported_recipe": ("timechange", None),
    "serialize.canonical_dumps": ("serialize", lambda a, k, r: {"serialize.json_bytes": len(r)}),
    "serialize.path_to_dict": ("serialize", None),
    "serialize.path_from_dict": ("serialize", None),
    "serialize.table_to_dict": ("serialize", None),
    "serialize.table_from_dict": ("serialize", None),
    "serialize.write_profiles_csv": (
        "serialize",
        lambda a, k, r: {"serialize.csv_rows": sum(
            int(p.values.size) for p in _arg(a, k, 0, "profiles"))}),
    "serialize.write_residual_csv": (
        "serialize", lambda a, k, r: {"serialize.csv_rows": len(_arg(a, k, 0, "eval_points"))}),
}

LAYERS = ("partition", "schauder", "variation", "oracle", "construct",
          "calculus", "timechange", "serialize", "cli")

COUNTS = ("schauder.synthesize.points", "schauder.analyze.points", "serialize.json_bytes",
          "serialize.csv_rows", "variation.pvar_profile.terms",
          "construct.variation_constant.terms")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    error: bool = False
    counts: dict = field(default_factory=dict)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct child spans cover.

    Calls are nested on one thread, so children of one span never overlap
    and their durations add.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def metric_names(boundaries=BOUNDARIES) -> list:
    """Every per-layer metric :func:`summarize` reports, in a stable order."""
    names = []
    for key in boundaries:
        names += [f"{key}.self_s", f"{key}.calls", f"{key}.errors"]
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.share", f"{layer}.errors"]
    return names + list(COUNTS)


def summarize(spans, wall_s: float, boundaries=BOUNDARIES) -> dict:
    """Per-function and per-layer self time, calls, errors and counts.

    ``<layer>.share`` is the layer's self time over ``wall_s``, the pass
    wall time; the shares add up to the part of the pass the spans cover.
    """
    out = {name: 0.0 if name.endswith(("_s", ".share")) else 0
           for name in metric_names(boundaries)}
    for span, own in zip(spans, self_times(spans)):
        layer = boundaries[span.name][0]
        out[f"{span.name}.self_s"] += own
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.errors"] += span.error
        out[f"{layer}.self_s"] += own
        out[f"{layer}.errors"] += span.error
        for key, value in span.counts.items():
            out[key] += value
    for layer in LAYERS:
        out[f"{layer}.share"] = out[f"{layer}.self_s"] / wall_s
    return out


class Tracer:
    """Context manager that records spans at the boundaries of ``package``."""

    def __init__(self, package: str = "pvarpath", boundaries=BOUNDARIES,
                 clock=time.perf_counter):
        self.package = package
        self.boundaries = boundaries
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(name, start, clock(), parent, error=True)
                raise
            finally:
                stack.pop()
            end = clock()
            counts = counter(args, kwargs, result) if counter else {}
            spans[index] = Span(name, start, end, parent, counts=counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        prefix = self.package + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(prefix))]
        try:
            for key, (_, counter) in self.boundaries.items():
                module, attr = key.rsplit(".", 1)
                original = getattr(sys.modules[prefix + module], attr)
                wrapper = self._wrap(key, original, counter)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapper)
                            self._patched.append((m, name, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._patched:
            m, name, original = self._patched.pop()
            setattr(m, name, original)
        return False
