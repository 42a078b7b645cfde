"""Span tracer for the per-layer metrics, installed from outside skewlab.

The tracer wraps each layer's public functions and methods. A name that
other modules import (``power_apply`` in ``skewpoly`` and ``series``,
``render_terms_text`` in ``series``, ``parse`` and ``evaluate`` in
``config``, ``load_session`` in ``cli``) is replaced in every skewlab module
and module-level table that holds it, so calls through the imported name are
seen too. Methods are replaced on their class.

Each span records its name, start, end, parent span and job id in flat
arrays kept in memory; :meth:`Tracer.write` stores them when the run ends.
A span also records how long its wrapper held the clock (``cover``), so a
parent's self time excludes both its children and the tracer's own cost for
them. Work counts (pi-row cells, term pairs, zero results...) are recorded
at the same boundaries.
"""

from __future__ import annotations

import fnmatch
import json
import time
from array import array
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cover = array("d")
        self.counts: Counter = Counter()
        self.enabled = False
        self.job_id = -1
        self._stack: list[int] = []
        # One set of seen power_apply arguments per enclosing product.
        self.scopes: list[set] = []

    def wrap(self, name: str, fn, after=None, scope: bool = False):
        """``fn`` recorded as a span called ``name``; ``after(tracer, args,
        result)`` adds work counts once the timed call has returned."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_in = clock()
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.cover.append(0.0)
            stack.append(idx)
            if scope:
                tracer.scopes.append(set())
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if scope:
                    tracer.scopes.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.cover[idx] = clock() - t_in
            if after is not None:
                after(tracer, args, result)
                tracer.cover[idx] = clock() - t_in
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        parent = self.parent
        cover = self.cover
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += cover[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        start, end, name_id = self.start, self.end, self.name_id
        for i in range(n):
            k = name_id[i]
            calls[k] += 1
            own[k] += end[i] - start[i] - covered[i]
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}

    def write(self, path: Path):
        """Spans as a JSON header plus the raw arrays, in field order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name_id", "parent", "job", "start", "end", "cover")
        header = {
            "spans": len(self.start),
            "names": self.names,
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "counts": dict(sorted(self.counts.items())),
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(path.with_suffix(".bin"), "wb") as out:
            for f in fields:
                getattr(self, f).tofile(out)


# --- work counts recorded after a traced call ---------------------------------

def _count_zero_product(tracer, args, result):
    if result.is_zero():
        tracer.counts["rings.mul.zero"] += 1


def _count_power_repeat(tracer, args, result):
    if not tracer.scopes:
        return
    seen = tracer.scopes[-1]
    key = (args[0], args[1], args[2])
    if key in seen:
        tracer.counts["maps.power_apply.repeat"] += 1
    else:
        seen.add(key)


def _count_pi_row(tracer, args, row):
    m = args[1]
    values = row.values() if isinstance(row, dict) else row  # dense or sparse
    tracer.counts["skewpoly.pi_row.cells"] += (m + 1) * (m + 2) // 2
    tracer.counts["skewpoly.pi_row.entries"] += len(values)
    tracer.counts["skewpoly.pi_row.zero"] += sum(1 for v in values if v.is_zero())


def _count_term_pairs(tracer, args, result):
    tracer.counts["skewpoly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _count_series_pairs(tracer, args, result):
    p, q = args
    precision = min(p.precision + q.start, q.precision + p.start)
    tracer.counts["series.mul.term_pairs"] += sum(
        max(0, min(len(q.coefficients), precision - p.start - i - q.start))
        for i in range(len(p.coefficients))
    )


def _count_divide_steps(tracer, args, trace):
    tracer.counts["skewpoly.right_divide.steps"] += len(trace.steps)


def _count_reduce_steps(tracer, args, result):
    tracer.counts["series.reduce_chain.steps"] += len(result[0])


def _count_degenerate(tracer, args, result):
    if any(p.is_zero() for p in args):
        tracer.counts["skewpoly.poly_associator.degenerate"] += 1


# Traced boundaries: span name, "module:target", work-count hook, and whether
# the span opens a product scope for power_apply repeats. A target is
# "Class.method" or a function name pattern; a boundary that no longer exists
# is skipped and reports zero.
BOUNDARIES = [
    ("rings.mul", "rings:RingElement.__mul__", _count_zero_product, False),
    ("rings.add", "rings:RingElement.__add__", None, False),
    ("rings.inverse", "rings:RingElement.inverse", None, False),
    ("rings.ideal_member", "rings:monomial_ideal_member", None, False),
    ("maps.apply", "maps:TwistMap.apply", None, False),
    ("maps.apply", "maps:TwistMap.apply_inverse", None, False),
    ("maps.power_apply", "maps:power_apply", _count_power_repeat, False),
    ("maps.verify", "maps:verify_*", None, False),
    ("skewpoly.pi_row", "skewpoly:pi_row", _count_pi_row, False),
    ("skewpoly.mul", "skewpoly:_TermPoly.__mul__", _count_term_pairs, True),
    ("skewpoly.mul", "skewpoly:OrePoly.__mul__", _count_term_pairs, True),
    ("skewpoly.mul", "skewpoly:LaurentPoly.__mul__", _count_term_pairs, True),
    ("skewpoly.mul", "skewpoly:MultiLaurentPoly.__mul__", _count_term_pairs, True),
    ("skewpoly.add", "skewpoly:_TermPoly.__add__", None, False),
    ("skewpoly.add", "skewpoly:MultiLaurentPoly.__add__", None, False),
    ("skewpoly.render", "skewpoly:render_terms_text", None, False),
    ("skewpoly.right_divide", "skewpoly:right_divide", _count_divide_steps, False),
    ("skewpoly.poly_associator", "skewpoly:poly_associator", _count_degenerate, False),
    ("series.mul", "series:series_mul", _count_series_pairs, True),
    ("series.shift_scale", "series:shift_scale", None, True),
    ("series.reduce_chain", "series:series_reduce_chain", _count_reduce_steps, False),
    ("noetherian.witness", "noetherian:counterexample_witness", None, False),
    ("suites.run", "suites:run_suite", None, False),
    ("expr.parse", "expr:parse", None, False),
    ("expr.evaluate", "expr:evaluate", None, False),
    ("config.load_session", "config:load_session", None, False),
    ("cli.main", "cli:main", None, False),
]


def install(tracer: Tracer, lab) -> None:
    """Wrap every traced boundary of the skewlab modules held by ``lab``."""
    for span, target, after, scope in BOUNDARIES:
        module_name, _, path = target.partition(":")
        module = getattr(lab, module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is not None:
                setattr(cls, attr, tracer.wrap(span, fn, after, scope))
            continue
        for name in fnmatch.filter(dir(module), path):
            fn = getattr(module, name)
            _replace_everywhere(lab.modules, fn, tracer.wrap(span, fn, after, scope))


def _replace_everywhere(modules, fn, wrapper) -> None:
    """Swap ``fn`` for ``wrapper`` in module globals and module-level dicts."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is fn:
                        value[k] = wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics by name, each ``(value, unit)``."""
    st = tracer.self_times()
    c = tracer.counts

    def calls(name):
        return (st.get(name, (0, 0.0))[0], "count")

    def self_s(name):
        return (st.get(name, (0, 0.0))[1], "s")

    return {
        "rings.mul.calls": calls("rings.mul"),
        "rings.mul.self_s": self_s("rings.mul"),
        "rings.mul.zero_frac": (_ratio(c["rings.mul.zero"], calls("rings.mul")[0]), "ratio"),
        "rings.add.calls": calls("rings.add"),
        "rings.add.self_s": self_s("rings.add"),
        "rings.inverse.calls": calls("rings.inverse"),
        "rings.ideal_member.calls": calls("rings.ideal_member"),
        "maps.apply.calls": calls("maps.apply"),
        "maps.apply.self_s": self_s("maps.apply"),
        "maps.power_apply.calls": calls("maps.power_apply"),
        "maps.power_apply.self_s": self_s("maps.power_apply"),
        "maps.power_apply.repeat_frac": (
            _ratio(c["maps.power_apply.repeat"], calls("maps.power_apply")[0]), "ratio"),
        "maps.verify.self_s": self_s("maps.verify"),
        "skewpoly.pi_row.calls": calls("skewpoly.pi_row"),
        "skewpoly.pi_row.cells": (c["skewpoly.pi_row.cells"], "count"),
        "skewpoly.pi_row.self_s": self_s("skewpoly.pi_row"),
        "skewpoly.pi_row.zero_frac": (
            _ratio(c["skewpoly.pi_row.zero"], c["skewpoly.pi_row.entries"]), "ratio"),
        "skewpoly.mul.calls": calls("skewpoly.mul"),
        "skewpoly.mul.term_pairs": (c["skewpoly.mul.term_pairs"], "count"),
        "skewpoly.mul.self_s": self_s("skewpoly.mul"),
        "skewpoly.add.calls": calls("skewpoly.add"),
        "skewpoly.add.self_s": self_s("skewpoly.add"),
        "skewpoly.render.self_s": self_s("skewpoly.render"),
        "skewpoly.right_divide.steps": (c["skewpoly.right_divide.steps"], "count"),
        "skewpoly.right_divide.self_s": self_s("skewpoly.right_divide"),
        "skewpoly.poly_associator.degenerate_frac": (
            _ratio(c["skewpoly.poly_associator.degenerate"],
                   calls("skewpoly.poly_associator")[0]), "ratio"),
        "series.mul.calls": calls("series.mul"),
        "series.mul.term_pairs": (c["series.mul.term_pairs"], "count"),
        "series.mul.self_s": self_s("series.mul"),
        "series.shift_scale.self_s": self_s("series.shift_scale"),
        "series.reduce_chain.steps": (c["series.reduce_chain.steps"], "count"),
        "series.reduce_chain.self_s": self_s("series.reduce_chain"),
        "noetherian.witness.self_s": self_s("noetherian.witness"),
        "suites.run.self_s": self_s("suites.run"),
        "expr.parse.self_s": self_s("expr.parse"),
        "expr.evaluate.self_s": self_s("expr.evaluate"),
        "config.load_session.calls": calls("config.load_session"),
        "config.load_session.self_s": self_s("config.load_session"),
        "cli.main.self_s": self_s("cli.main"),
    }
