"""Spans and counts around the program's public functions, for the traced run.

A function is wrapped where it is looked up: every binding of the function
object in an ``eqpieri`` module is replaced, so a name imported with
``from .x import y`` is wrapped in the importing module as well (for
example ``eqpieri.pieri.restriction_coefficient`` and
``eqpieri.cli.positivity_certificate``), and methods are replaced on their
class.  Nothing under ``src`` changes; ``uninstall`` restores every binding.

A span records the op id, its parent span, a name and its start and end.
Spans live in flat arrays until the run ends.  A layer's self time is the
time of its spans minus the time of their child spans; time spent in code
that is not wrapped counts for the nearest wrapped caller.  Leaves called
millions of times (``Polynomial.__mul__``, ``gkm.apply_simple``,
``gkm.right_ascent``) get counts only.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional


class Tracer:
    """Spans, counts and the wrappers that record them; one per traced run."""

    def __init__(self):
        self.op = -1                 # id of the op being run
        self.names: List[str] = []
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Dict[str, int] = {}
        self.seen_restrictions: set = set()
        self._stack = [-1]
        self._bindings: list = []    # (owner, attribute, original, wrapper)

    # -- wrappers --------------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; ``after(result, args)`` runs once the span ends."""
        index = len(self.names)
        self.names.append(name)
        ops, parents, names = self.span_op, self.span_parent, self.span_name
        starts, ends, stack, clock = self.span_start, self.span_end, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(names)
            ops.append(tracer.op)
            parents.append(stack[-1])
            names.append(index)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def count(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        counts, key = self.counts, name + ".calls"
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _plan(self, original, wrapper, owners) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._bindings.append((owner, attr, original, wrapper))

    # -- installing ------------------------------------------------------------

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap the program's public functions in every module of ``modules``."""
        if not self._bindings:
            self._find_bindings(modules)
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def _find_bindings(self, program: Dict[str, object]) -> None:
        modules = list(program.values())
        schubert, diagram, pieri = (program["eqpieri." + n] for n in ("schubert", "diagram", "pieri"))
        restrict_a, polyring, gkm = (program["eqpieri." + n] for n in ("restrict_a", "polyring", "gkm"))
        Polynomial, GkmEngine = polyring.Polynomial, gkm.GkmEngine
        add = self.add

        def pieri_after(result, args):
            add("pieri.nonzero", not result.value.is_zero)
            if result.tilde:
                add("pieri.branch.tilde")
            elif result.diagram is not None:
                add("pieri.branch." + result.diagram.branch)

        def restriction_after(result, args):
            add("restrict_a.restriction_coefficient.terms_out", len(result.terms))
            key = (args[0], tuple(args[1]), args[2])
            if key in self.seen_restrictions:
                add("restrict_a.restriction_coefficient.repeats")
            self.seen_restrictions.add(key)

        def mul_after(result, args):
            if result is not NotImplemented:
                add("polyring.mul.terms_out", len(result.terms))

        def certificate_after(result, args):
            add("polyring.certificate.terms_out",
                len(result.expansion.terms) if result.expansion is not None else 0)

        functions = (
            (schubert, "validate_symbol", "schubert.validate_symbol", None),
            (schubert, "codim", "schubert.codim", None),
            (schubert, "leq", "schubert.leq", None),
            (schubert, "preceq", "schubert.preceq", None),
            (schubert, "enumerate_symbols", "schubert.enumerate_symbols", None),
            (schubert, "special_symbol", "schubert.special_symbol", None),
            (diagram, "arrow", "diagram.arrow", lambda r, a: add("diagram.arrow.pass", bool(r))),
            (diagram, "build", "diagram.build", None),
            (pieri, "compute_pieri", "pieri.compute_pieri", pieri_after),
            (pieri, "pieri_coefficient", "pieri.pieri_coefficient", None),
            (pieri, "pieri_expansion", "pieri.pieri_expansion", None),
            (pieri, "positivity_certificate", "pieri.positivity_certificate", None),
            (restrict_a, "restriction_coefficient", "restrict_a.restriction_coefficient",
             restriction_after),
            (polyring, "root_positivity_certificate", "polyring.certificate", certificate_after),
            (gkm, "fixed_point_restriction", "gkm.fixed_point_restriction", None),
            (gkm, "type_d_restriction", "gkm.type_d_restriction", None),
        )
        for owner, attr, name, after in functions:
            original = getattr(owner, attr)
            self._plan(original, self.span(name, original, after), modules)
        methods = (
            (Polynomial, "substitute", "polyring.substitute", None),
            (Polynomial, "try_divide", "polyring.try_divide",
             lambda r, a: add("polyring.try_divide.inexact", r is None)),
            (GkmEngine, "__init__", "gkm.GkmEngine", None),
            (GkmEngine, "product_expansion", "gkm.product_expansion",
             lambda r, a: add("gkm.product_expansion.candidates", len(r))),
            (GkmEngine, "restriction_vector", "gkm.restriction_vector", None),
            (GkmEngine, "_column", "gkm.column_dp", None),
        )
        for cls, attr, name, after in methods:
            original = vars(cls)[attr]
            self._plan(original, self.span(name, original, after), [cls])
        leaves = (
            (vars(Polynomial)["__mul__"], "polyring.mul", mul_after, [Polynomial]),
            (gkm.apply_simple, "gkm.apply_simple", None, modules),
            (gkm.right_ascent, "gkm.right_ascent", None, modules),
        )
        for original, name, after, owners in leaves:
            self._plan(original, self.count(name, original, after), owners)

    # -- summary ---------------------------------------------------------------

    def span_totals(self):
        """Self seconds by (op, layer), and calls and inclusive seconds by span name."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        children = [0.0] * len(parents)
        for i, parent in enumerate(parents):
            if parent >= 0:
                children[parent] += ends[i] - starts[i]
        self_time: Dict[tuple, float] = {}
        inclusive: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        layer_of = [n.split(".")[0] for n in self.names]
        for i, (op, index) in enumerate(zip(self.span_op, self.span_name)):
            duration = ends[i] - starts[i]
            key = (op, layer_of[index])
            self_time[key] = self_time.get(key, 0.0) + duration - children[i]
            name = self.names[index]
            inclusive[name] = inclusive.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
        return self_time, calls, inclusive


PER_LAYER = (
    ("trace.ops", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.spanned_frac", "frac"),
    ("cli.self_ms", "ms/op"),
    ("schubert.self_ms", "ms/op"),
    ("schubert.validate_symbol.calls", "count/op"),
    ("schubert.codim.calls", "count/op"),
    ("diagram.self_ms", "ms/op"),
    ("diagram.arrow.calls", "count/op"),
    ("diagram.arrow.pass_frac", "frac"),
    ("diagram.build.calls", "count/op"),
    ("pieri.self_ms", "ms/op"),
    ("pieri.compute_pieri.calls", "count/op"),
    ("pieri.nonzero_frac", "frac"),
    ("pieri.branch.restriction", "count/op"),
    ("pieri.branch.sum", "count/op"),
    ("pieri.branch.halving", "count/op"),
    ("pieri.branch.orthogonal_restriction", "count/op"),
    ("pieri.branch.tilde", "count/op"),
    ("restrict_a.self_ms", "ms/op"),
    ("restrict_a.restriction_coefficient.calls", "count/op"),
    ("restrict_a.restriction_coefficient.terms_out", "count/op"),
    ("restrict_a.restriction_coefficient.repeat_frac", "frac"),
    ("polyring.self_ms", "ms/op"),
    ("polyring.substitute.calls", "count/op"),
    ("polyring.substitute.ms", "ms/op"),
    ("polyring.mul.calls", "count/op"),
    ("polyring.mul.terms_out", "count/op"),
    ("polyring.certificate.calls", "count/op"),
    ("polyring.certificate.ms", "ms/op"),
    ("polyring.certificate.terms_out", "count/op"),
    ("polyring.try_divide.calls", "count/op"),
    ("polyring.try_divide.ms", "ms/op"),
    ("polyring.try_divide.inexact", "count/op"),
    ("gkm.self_ms", "ms/op"),
    ("gkm.fixed_point_restriction.calls", "count/op"),
    ("gkm.fixed_point_restriction.ms", "ms/op"),
    ("gkm.type_d_restriction.ms", "ms/op"),
    ("gkm.product_expansion.ms", "ms/op"),
    ("gkm.product_expansion.candidates", "count/op"),
    ("gkm.restriction_vector.calls", "count/op"),
    ("gkm.restriction_vector.ms", "ms/op"),
    ("gkm.apply_simple.calls", "count/op"),
    ("gkm.right_ascent.calls", "count/op"),
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(tracer: Tracer, totals, untraced_s: float, traced_s: float,
                      ops: int) -> Dict[str, float]:
    """Every PER_LAYER metric: counts and milliseconds per op, and fractions.

    ``totals`` is ``tracer.span_totals()``; ``untraced_s`` and ``traced_s``
    are the op times of the same ops run without and with tracing.  The self
    times of all layers add up to the ``cli.main`` spans, so their sum says
    nothing; ``trace.spanned_frac`` is the share of traced op time that falls
    in spans below ``cli.main``.  What is left is ``cli.self_ms``: parsing and
    rendering, plus any program code that is reached from ``cli`` without
    passing a wrapped function.
    """
    self_time, calls, inclusive = totals
    layer_self: Dict[str, float] = {}
    for (_, layer), seconds in self_time.items():
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    counts = dict(tracer.counts)
    for name, n in calls.items():
        counts[name + ".calls"] = n
    values = {
        "trace.ops": ops,
        "trace.overhead_frac": traced_s / untraced_s - 1,
        "trace.spanned_frac": 1 - layer_self.get("cli", 0.0) / traced_s,
        "diagram.arrow.pass_frac": _share(counts.get("diagram.arrow.pass", 0),
                                          counts.get("diagram.arrow.calls", 0)),
        "pieri.nonzero_frac": _share(counts.get("pieri.nonzero", 0),
                                     counts.get("pieri.compute_pieri.calls", 0)),
        "restrict_a.restriction_coefficient.repeat_frac": _share(
            counts.get("restrict_a.restriction_coefficient.repeats", 0),
            counts.get("restrict_a.restriction_coefficient.calls", 0)),
    }
    for name, unit in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".self_ms"):
            values[name] = layer_self.get(name[:-len(".self_ms")], 0.0) * 1e3 / ops
        elif name.endswith(".ms"):
            values[name] = inclusive.get(name[:-len(".ms")], 0.0) * 1e3 / ops
        else:
            values[name] = counts.get(name, 0) / ops
    return values
