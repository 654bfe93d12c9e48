"""In-memory tracing of calls into orthokit's public functions.

Tracer.install rebinds each function in TARGETS to a timing wrapper: at
its own module attribute, on its class for methods, and in every orthokit
module that imported it by name.  Every wrapped call updates a per-layer
call count and self time (its duration minus the time of the wrapped calls
nested in it).  Coarse calls also record a span with its parent span and
the instance it belongs to; hot leaves (perp, closure, inner,
sasaki_projection, bar_phi and the other per-target calls) keep only the
aggregates.  Nothing is written until the caller asks for it.
"""
from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute or Class.method, layer, records spans)
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("orthokit.orthoset", "Orthoset.perp", "orthoset.perp", False),
    ("orthokit.orthoset", "Orthoset.closure", "orthoset.closure", False),
    ("orthokit.orthoset", "Orthoset.orthoclosed_family", "orthoset.family", True),
    ("orthokit.orthoset", "Orthoset.maximal_perp_sets", "orthoset.perp_sets", False),
    ("orthokit.orthoset", "Orthoset.perp_sets", "orthoset.perp_sets", False),
    ("orthokit.orthoset", "Orthoset.is_transitive", "orthoset.transitive", True),
    ("orthokit.orthoset", "Orthoset.from_json", "orthoset.parse", True),
    ("orthokit.orthoset", "Orthoset.build", "orthoset.parse", False),
    ("orthokit.sasaki", "find_sasaki_map", "sasaki.search", False),
    ("orthokit.sasaki", "verify_refutation", "sasaki.verify", False),
    ("orthokit.sasaki", "shortcut_construct", "sasaki.shortcut", False),
    ("orthokit.sasaki", "is_sasaki_space", "sasaki.space", True),
    ("orthokit.sasaki", "bar_phi", "sasaki.bar_phi", False),
    ("orthokit.sasaki", "finch_report", "sasaki.finch", True),
    ("orthokit.sasaki", "sasaki_from_oml", "sasaki.from_oml", False),
    ("orthokit.sasaki", "property_report", "sasaki.report", True),
    ("orthokit.lattice", "OrthoLattice.__init__", "lattice.build", True),
    ("orthokit.lattice", "build_lattice", "lattice.parse", True),
    ("orthokit.lattice", "orthoclosed_lattice", "lattice.closed_lattice", True),
    ("orthokit.lattice", "is_orthomodular", "lattice.orthomodular", False),
    ("orthokit.lattice", "atoms_and_covering", "lattice.covering", False),
    ("orthokit.lattice", "dacey_criterion", "lattice.dacey", True),
    ("orthokit.lattice", "is_dacey", "lattice.dacey", True),
    ("orthokit.lattice", "sasaki_projection", "lattice.projection", False),
    ("orthokit.lattice", "projection_facts", "lattice.projection_facts", True),
    ("orthokit.lattice", "wilce_check", "lattice.wilce", True),
    ("orthokit.lattice", "oml_to_orthoset", "lattice.to_orthoset", True),
    ("orthokit.hermitian", "make_space", "hermitian.make_space", True),
    ("orthokit.hermitian", "inner", "hermitian.inner", False),
    ("orthokit.hermitian", "subspace", "hermitian.subspace_ops", False),
    ("orthokit.hermitian", "sum_subspaces", "hermitian.subspace_ops", False),
    ("orthokit.hermitian", "intersect_subspaces", "hermitian.subspace_ops", False),
    ("orthokit.hermitian", "contains", "hermitian.subspace_ops", False),
    ("orthokit.hermitian", "full_subspace", "hermitian.subspace_ops", False),
    ("orthokit.hermitian", "line", "hermitian.subspace_ops", False),
    ("orthokit.hermitian", "perp_subspace", "hermitian.perp_subspace", False),
    ("orthokit.hermitian", "project", "hermitian.project", False),
    ("orthokit.hermitian", "sasaki_line", "hermitian.sasaki_line", False),
    ("orthokit.hermitian", "fuzz_hermitian", "hermitian.fuzz", True),
    ("orthokit.corpus", "generate", "corpus.generate", True),
    ("orthokit.corpus", "boolean_lattice", "corpus.generate", True),
    ("orthokit.corpus", "mo_lattice", "corpus.generate", True),
    ("orthokit.corpus", "horizontal_sum", "corpus.generate", True),
    ("orthokit.corpus", "random_orthoset", "corpus.generate", True),
    ("orthokit.corpus", "run_golden", "corpus.golden", True),
)


def _count_sets(t: "Tracer", layer: str, args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
    t.counts[layer + ".sets"] += len(result)


def _count_search(t: "Tracer", layer: str, args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
    t.counts["sasaki.search.nodes"] += result.nodes
    if result.refutation is not None:
        t.counts["sasaki.refutation.count"] += 1
        t.counts["sasaki.refutation.entries"] += len(result.refutation.entries)


def _count_elements(t: "Tracer", layer: str, args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
    t.counts["lattice.build.elements"] += args[0].n


def _time_field(t: "Tracer", layer: str, args: tuple, kwargs: dict, result: Any, elapsed: float) -> None:
    t.seconds["hermitian.field_" + result.field.lower()] += elapsed


# called after a wrapped call returns
HOOKS: dict[str, Callable[..., None]] = {
    "orthoset.family": _count_sets,
    "orthoset.perp_sets": _count_sets,
    "sasaki.search": _count_search,
    "lattice.build": _count_elements,
    "hermitian.fuzz": _time_field,
}

# expected refusals: an exception of this class name raised by the layer
REFUSALS: dict[str, tuple[str, str]] = {
    "sasaki.search": ("BudgetExceededError", "sasaki.budget_exceeded"),
    "lattice.build": ("BudgetExceededError", "lattice.cap_refusals"),
}


class Tracer:
    """Aggregates and spans of one traced batch, held in memory."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        # (span id, parent id, layer, instance, start, end, self seconds)
        self.spans: list[tuple[int, int, str, int, float, float, float]] = []
        self.instance = -1
        self._child = [0.0]
        self._parents = [-1]
        self._ids = itertools.count()
        self._undo: list[tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- wrap

    def wrap(self, layer: str, fn: Callable[..., Any], span: bool) -> Callable[..., Any]:
        calls, self_s, child, clock = self.calls, self.self_s, self._child, self.clock
        parents, spans, ids = self._parents, self.spans, self._ids
        hook = HOOKS.get(layer)
        refusal = REFUSALS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if span:
                sid = next(ids)
                parents.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if refusal is not None and type(exc).__name__ == refusal[0]:
                    self.counts[refusal[1]] += 1
                raise
            finally:
                t1 = clock()
                elapsed = t1 - t0
                own = elapsed - child.pop()
                child[-1] += elapsed
                calls[layer] += 1
                self_s[layer] += own
                if span:
                    parents.pop()
                    spans.append((sid, parents[-1], layer, self.instance, t0, t1, own))
            if hook is not None:
                hook(self, layer, args, kwargs, result, elapsed)
            return result

        return wrapper

    def root(self, layer: str, instance: int, fn: Callable[..., Any], *args: Any) -> Any:
        """Run fn(*args) as the root span of one benchmark instance."""
        self.instance = instance
        try:
            return self.wrap(layer, fn, True)(*args)
        finally:
            self.instance = -1

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Rebind every target in the imported orthokit modules."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "orthokit" or name.startswith("orthokit.")
        ]
        for modname, attr, layer, span in TARGETS:
            owner: Any = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new: Any = classmethod(self.wrap(layer, raw.__func__, span))
                else:
                    new = self.wrap(layer, raw, span)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(layer, fn, span)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)
                        self._undo.append((m, name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- metrics

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        values: dict[str, float] = {}
        for name, _unit, _better, value in PER_LAYER:
            values[name] = value(self, overhead_ratio)
        return values

    def dump(self) -> dict[str, Any]:
        return {
            "span_fields": ["id", "parent", "layer", "instance", "start", "end", "self_s"],
            "spans": self.spans,
            "calls": dict(sorted(self.calls.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "counts": dict(sorted(self.counts.items())),
            "seconds": dict(sorted(self.seconds.items())),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(layer: str) -> Callable[[Tracer, float], float]:
    return lambda t, _o: t.calls.get(layer, 0)


def _self(layer: str) -> Callable[[Tracer, float], float]:
    return lambda t, _o: t.self_s.get(layer, 0.0)


def _count(name: str) -> Callable[[Tracer, float], float]:
    return lambda t, _o: t.counts.get(name, 0)


# (metric, unit, better, value); the per_layer list of BENCHMARK.json
PER_LAYER: tuple[tuple[str, str, str, Callable[[Tracer, float], float]], ...] = (
    ("orthoset.perp.calls", "count", "lower", _calls("orthoset.perp")),
    ("orthoset.perp.self_s", "s", "lower", _self("orthoset.perp")),
    ("orthoset.closure.calls", "count", "lower", _calls("orthoset.closure")),
    ("orthoset.closure.self_s", "s", "lower", _self("orthoset.closure")),
    ("orthoset.family.calls", "count", "lower", _calls("orthoset.family")),
    ("orthoset.family.self_s", "s", "lower", _self("orthoset.family")),
    ("orthoset.family.sets", "count", "lower", _count("orthoset.family.sets")),
    ("orthoset.perp_sets.calls", "count", "lower", _calls("orthoset.perp_sets")),
    ("orthoset.perp_sets.self_s", "s", "lower", _self("orthoset.perp_sets")),
    ("orthoset.perp_sets.sets", "count", "lower", _count("orthoset.perp_sets.sets")),
    ("orthoset.transitive.self_s", "s", "lower", _self("orthoset.transitive")),
    ("orthoset.parse.self_s", "s", "lower", _self("orthoset.parse")),
    ("sasaki.search.calls", "count", "lower", _calls("sasaki.search")),
    ("sasaki.search.self_s", "s", "lower", _self("sasaki.search")),
    ("sasaki.search.nodes", "count", "lower", _count("sasaki.search.nodes")),
    ("sasaki.search.nodes_per_call", "nodes/call", "lower",
     lambda t, _o: _ratio(t.counts.get("sasaki.search.nodes", 0), t.calls.get("sasaki.search", 0))),
    ("sasaki.refutation.count", "count", "lower", _count("sasaki.refutation.count")),
    ("sasaki.refutation.entries", "count", "lower", _count("sasaki.refutation.entries")),
    ("sasaki.refutation.entries_per_count", "entries/ref", "lower",
     lambda t, _o: _ratio(t.counts.get("sasaki.refutation.entries", 0),
                          t.counts.get("sasaki.refutation.count", 0))),
    ("sasaki.verify.self_s", "s", "lower", _self("sasaki.verify")),
    ("sasaki.space.self_s", "s", "lower", _self("sasaki.space")),
    ("sasaki.budget_exceeded", "count", "lower", _count("sasaki.budget_exceeded")),
    ("sasaki.bar_phi.calls", "count", "lower", _calls("sasaki.bar_phi")),
    ("sasaki.bar_phi.self_s", "s", "lower", _self("sasaki.bar_phi")),
    ("sasaki.finch.self_s", "s", "lower", _self("sasaki.finch")),
    ("sasaki.from_oml.self_s", "s", "lower", _self("sasaki.from_oml")),
    ("lattice.build.calls", "count", "lower", _calls("lattice.build")),
    ("lattice.build.self_s", "s", "lower", _self("lattice.build")),
    ("lattice.build.elements", "count", "lower", _count("lattice.build.elements")),
    ("lattice.closed_lattice.self_s", "s", "lower", _self("lattice.closed_lattice")),
    ("lattice.orthomodular.self_s", "s", "lower", _self("lattice.orthomodular")),
    ("lattice.covering.self_s", "s", "lower", _self("lattice.covering")),
    ("lattice.dacey.self_s", "s", "lower", _self("lattice.dacey")),
    ("lattice.projection.calls", "count", "lower", _calls("lattice.projection")),
    ("lattice.projection_facts.self_s", "s", "lower", _self("lattice.projection_facts")),
    ("lattice.wilce.self_s", "s", "lower", _self("lattice.wilce")),
    ("lattice.cap_refusals", "count", "lower", _count("lattice.cap_refusals")),
    ("hermitian.make_space.self_s", "s", "lower", _self("hermitian.make_space")),
    ("hermitian.inner.calls", "count", "lower", _calls("hermitian.inner")),
    ("hermitian.inner.self_s", "s", "lower", _self("hermitian.inner")),
    ("hermitian.subspace_ops.self_s", "s", "lower", _self("hermitian.subspace_ops")),
    ("hermitian.perp_subspace.self_s", "s", "lower", _self("hermitian.perp_subspace")),
    ("hermitian.project.calls", "count", "lower", _calls("hermitian.project")),
    ("hermitian.project.self_s", "s", "lower", _self("hermitian.project")),
    ("hermitian.sasaki_line.calls", "count", "lower", _calls("hermitian.sasaki_line")),
    ("hermitian.sasaki_line.self_s", "s", "lower", _self("hermitian.sasaki_line")),
    ("hermitian.fuzz.self_s", "s", "lower", _self("hermitian.fuzz")),
    ("hermitian.field_q.s", "s", "lower", lambda t, _o: t.seconds.get("hermitian.field_q", 0.0)),
    ("hermitian.field_qi.s", "s", "lower", lambda t, _o: t.seconds.get("hermitian.field_qi", 0.0)),
    ("corpus.generate.self_s", "s", "lower", _self("corpus.generate")),
    ("corpus.golden.self_s", "s", "lower", _self("corpus.golden")),
    ("trace.overhead_ratio", "ratio", "lower", lambda _t, overhead: overhead),
)
