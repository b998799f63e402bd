"""Per-layer tracing installed from outside the engine.

Nothing in ``malgrange`` knows about this module.  ``SpanTracer.install``
replaces the public functions and methods named in ``SPANNED`` with wrappers
that record a span per call; ``install_counts`` wraps the two hot ``rings``
operations with bare call counters.  The two are never installed together:
a million wrapped ring calls would otherwise inflate every span's self time.

A name bound with ``from .x import y`` is a second reference to the same
function object, so each wrapper is installed on every ``malgrange`` module
that holds the original, not only on the module that defines it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

# (module, attribute path, span name)
SPANNED: Tuple[Tuple[str, str, str], ...] = (
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "extended_buchberger", "groebner.extended_buchberger"),
    ("groebner", "divide", "groebner.divide"),
    ("groebner", "SpanSolver.__init__", "groebner.SpanSolver.build"),
    ("groebner", "SpanSolver.syzygies", "groebner.SpanSolver.syzygies"),
    ("groebner", "colon_ideal", "groebner.colon_ideal"),
    ("groebner", "syzygies_mod", "groebner.syzygies_mod"),
    ("groebner", "solve_mod", "groebner.solve_mod"),
    ("modules", "annihilator", "modules.annihilator"),
    ("modules", "bass_torsion", "modules.bass_torsion"),
    ("modules", "kernel", "modules.kernel"),
    ("modules", "hom_module", "modules.hom_module"),
    ("modules", "HomModule.__init__", "modules.HomModule.build"),
    ("functors", "verify_main_theorem", "functors.verify_main_theorem"),
    ("functors", "verify_adjunction", "functors.verify_adjunction"),
    ("functors", "nat_hom", "functors.nat_hom"),
    ("functors", "stable_hom", "functors.stable_hom"),
    ("control", "autonomy_report", "control.autonomy_report"),
    ("control", "malgrange_check", "control.malgrange_check"),
    ("session", "parse_session", "session.parse_session"),
    ("cli", "run", "cli.run"),
)

COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("rings", "MonomialOrder.key", "rings.order_key"),
    ("rings", "Poly.__mul__", "rings.Poly.mul"),
)

# Spans whose distinct inputs are tallied, with the positional index of
# the generator list (after ``self`` for methods).  Keys are kept as
# objects and hashed only after the invocation, outside every span.
_KEYED = {"groebner.buchberger": 0, "groebner.SpanSolver.build": 1}


def _replace(module: str, path: str, make: Callable) -> None:
    """Wrap ``malgrange.<module>.<path>`` everywhere it is bound."""
    owner = sys.modules[f"malgrange.{module}"]
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)  # AttributeError if renamed
    wrapper = make(original)
    setattr(owner, attr, wrapper)
    if cls_path:
        return  # methods are looked up on the class at call time
    for name, mod in list(sys.modules.items()):
        if name == "malgrange" or name.startswith("malgrange."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class SpanTracer:
    """Spans of one invocation, kept in memory until ``dump``.

    A span is ``[name, parent index, start, end]``; the parent index is -1
    for a root span.  ``keys`` holds the inputs of the keyed spans and
    ``out_gens`` the size of every basis ``buchberger`` returned.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.keys: Dict[str, list] = defaultdict(list)
        self.out_gens = 0
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        key_at = _KEYED.get(name)
        keys = self.keys[name] if key_at is not None else None
        count_gens = name == "groebner.buchberger"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            if keys is not None:
                keys.append((tuple(args[key_at]), args[key_at + 1:],
                             tuple(sorted(kwargs.items()))))
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count_gens:
                self.out_gens += len(result.gens)
            return result

        return wrapper

    def install(self) -> None:
        for module, path, name in SPANNED:
            _replace(module, path, functools.partial(self._wrap, name))

    def dump(self) -> Dict:
        return {"spans": self.spans,
                "distinct": {name: len(set(keys))
                             for name, keys in self.keys.items()},
                "out_gens": self.out_gens}


def install_counts() -> Dict[str, List[int]]:
    """Wrap the ``COUNTED`` operations with counters; returns the cells."""
    cells: Dict[str, List[int]] = {}
    for module, path, name in COUNTED:
        cell = cells[name] = [0]

        def make(fn, cell=cell):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        _replace(module, path, make)
    return cells


# -- aggregation -------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: Sequence[Dict], counts: Sequence[Dict[str, int]],
                  plain_run_s: float, traced_run_s: float,
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, summed over the traced invocations.

    Each dump's durations are multiplied by its ``scale``, the factor that
    turns its seconds into reference seconds.  ``calls`` counts every span
    of a name; ``total_s`` sums the spans of a name that are not nested in a
    span of the same name; ``self_s`` is a span's duration minus the
    durations of its direct children.
    """
    calls: Counter = Counter()
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    distinct: Counter = Counter()
    hom_hits = 0
    out_gens = 0
    for dump in dumps:
        spans = dump["spans"]
        scale = dump["scale"]
        child_s = [0.0] * len(spans)
        builds_under = [False] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_s[parent] += (end - start) * scale
                if name == "modules.HomModule.build":
                    builds_under[parent] = True
        for i, (name, parent, start, end) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) * scale - child_s[i]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][1]
            if up < 0:
                total[name] += (end - start) * scale
            if name == "modules.hom_module" and not builds_under[i]:
                hom_hits += 1
        distinct.update(dump["distinct"])
        out_gens += dump["out_gens"]
    ring_calls: Counter = Counter()
    for cells in counts:
        ring_calls.update(cells)

    m: Dict[str, Tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    bb, ss = "groebner.buchberger", "groebner.SpanSolver.build"
    put(f"{bb}.calls", calls[bb], "count")
    put(f"{bb}.self_s", self_s[bb], "s")
    put(f"{bb}.distinct", distinct[bb], "count")
    put(f"{bb}.repeat_ratio", _ratio(calls[bb], distinct[bb]), "ratio")
    put(f"{bb}.out_gens", out_gens, "count")
    for name in ("groebner.divide", "groebner.extended_buchberger"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_s[name], "s")
    put("groebner.SpanSolver.syzygies.self_s",
        self_s["groebner.SpanSolver.syzygies"], "s")
    put("groebner.SpanSolver.builds", calls[ss], "count")
    put("groebner.SpanSolver.distinct", distinct[ss], "count")
    put("groebner.SpanSolver.repeat_ratio",
        _ratio(calls[ss], distinct[ss]), "ratio")
    put("groebner.colon_ideal.total_s", total["groebner.colon_ideal"], "s")
    put("groebner.syzygies_mod.total_s", total["groebner.syzygies_mod"], "s")
    put("groebner.solve_mod.calls", calls["groebner.solve_mod"], "count")
    put("modules.annihilator.calls", calls["modules.annihilator"], "count")
    put("modules.annihilator.total_s", total["modules.annihilator"], "s")
    put("modules.bass_torsion.total_s", total["modules.bass_torsion"], "s")
    put("modules.kernel.total_s", total["modules.kernel"], "s")
    hom = "modules.hom_module"
    put(f"{hom}.calls", calls[hom], "count")
    put(f"{hom}.hits", hom_hits, "count")
    put(f"{hom}.hit_ratio", _ratio(hom_hits, calls[hom]), "ratio")
    put("modules.HomModule.builds", calls["modules.HomModule.build"], "count")
    for name in ("functors.verify_main_theorem", "functors.verify_adjunction",
                 "functors.nat_hom", "control.autonomy_report",
                 "control.malgrange_check"):
        put(f"{name}.total_s", total[name], "s")
    put("functors.stable_hom.self_s", self_s["functors.stable_hom"], "s")
    put("rings.order_key.calls", ring_calls["rings.order_key"], "count")
    put("rings.Poly.mul.calls", ring_calls["rings.Poly.mul"], "count")
    put("rings.invocations", len(counts), "count")
    put("session.parse_session.s", total["session.parse_session"], "s")
    put("cli.run.total_s", total["cli.run"], "s")
    put("cli.run.self_s", self_s["cli.run"], "s")
    put("cli.run.self_share", _ratio(self_s["cli.run"], total["cli.run"]),
        "ratio")
    put("trace.invocations", len(dumps), "count")
    put("trace.overhead_ratio", _ratio(traced_run_s, plain_run_s), "ratio")
    return m
