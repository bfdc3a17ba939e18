"""Layer tracing from outside the library.

The traced run replaces chosen fuzzint functions and methods with wrappers,
at every place a caller binds them (a module global such as
``fuzzint.cli.classify``, or a class attribute such as
``_OpTables.__init__`` and its aliases like ``CrispInterval.__or__``).
A *span* wrapper records calls, inclusive seconds and self seconds (its
duration minus the part its child spans cover); a *counter* wrapper only
counts calls, for functions too small to time without distorting them.

Spans are aggregated in memory per (parent, name) edge, and one root span
per benchmark request carries the request id; ``dump`` writes both out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


class TraceError(RuntimeError):
    """A wrapped name is missing, or the traced numbers cannot be trusted."""


# (layer name, kind, bindings, hook).  The first binding defines the target;
# every other listed binding (the caller bindings the workloads depend on)
# must hold the same object.  Any further binding of that object found in a
# loaded fuzzint module or on its class is wrapped as well; a layer that
# stops being reached shows as a zero on its primary workload.
TARGETS = [
    ("lattice.build", "span", ["fuzzint.lattice:FiniteLattice.__init__"], None),
    ("lattice.is_distributive", "span", ["fuzzint.lattice:is_distributive"], None),
    ("intervals.hull", "count", ["fuzzint.intervals:CrispInterval.hull"], None),
    ("intervals.intersection", "count",
     ["fuzzint.intervals:CrispInterval.intersection"], None),
    ("fuzzysets.cut_mask", "count", ["fuzzint.fuzzysets:FuzzySet.cut_mask"], None),
    ("fuzzysets.as_grade", "count", ["fuzzint.fuzzysets:as_grade"], None),
    ("fuzzyintervals.construct", "span",
     ["fuzzint.fuzzyintervals:FuzzyInterval.__init__"], None),
    ("fuzzyintervals.join", "span", ["fuzzint.fuzzyintervals:FuzzyInterval.join"], None),
    ("fuzzyintervals.meet", "span", ["fuzzint.fuzzyintervals:FuzzyInterval.meet"], None),
    ("fuzzyintervals.cut_interval", "span",
     ["fuzzint.fuzzyintervals:FuzzyInterval.cut_interval"], None),
    ("fuzzyintervals.classify", "span",
     ["fuzzint.fuzzyintervals:classify", "fuzzint.cli:classify"], None),
    ("laws.enumerate", "span",
     ["fuzzint.laws:enumerate_fuzzy_intervals"], "collection"),
    ("laws.enumerate", "span", ["fuzzint.laws:enumerate_intervals"], "collection"),
    ("laws.op_tables", "span", ["fuzzint.laws:_OpTables.__init__"], "op_tables"),
    ("laws.probe", "span", ["fuzzint.laws:_run_law"], "run_law"),
    ("formats.load", "span",
     ["fuzzint.formats:load_lattice", "fuzzint.cli:load_lattice"], None),
    ("formats.load", "span",
     ["fuzzint.formats:load_fuzzy_set", "fuzzint.cli:load_fuzzy_set"], None),
    ("formats.dump", "span", ["fuzzint.formats:dumps_canonical"], None),
    ("formats.dump", "span", ["fuzzint.formats:fuzzy_set_to_json"], None),
    ("cli.build_parser", "span", ["fuzzint.cli:build_parser"], None),
    ("cli.main", "span", ["fuzzint.cli:main"], None),
]

ROOT = "bench.request"


def _resolve(binding: str):
    """(owner object, attribute name, current value) for ``module:attr.path``."""
    module_name, _, path = binding.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        raise TraceError(f"module {module_name} is not loaded")
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise TraceError(f"{module_name}.{part} is missing")
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise TraceError(f"{binding.replace(':', '.')} is missing")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Installs the wrappers and accumulates what they record."""

    def __init__(self):
        self._stack: list = []         # open spans: [name, child seconds]
        self._depth: Counter = Counter()
        self._patched: list = []       # (owner, attr, original)
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()   # outermost occurrences only
        self.self_s: Counter = Counter()
        self.edges: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.values: Counter = Counter()      # hook-derived counts
        self.requests: list = []              # (id, label, start, end)
        self._sites = self._find_sites()

    def reset(self) -> None:
        """Forget what was recorded; the installed wrappers stay."""
        for record in (self.calls, self.inclusive, self.self_s, self.edges,
                       self.values, self.requests):
            record.clear()

    # -- installation --------------------------------------------------------

    def _find_sites(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to wrap.

        Raises TraceError for a missing name, so a traced run fails before
        it measures anything."""
        for name in sorted({b.partition(":")[0] for _, _, bindings, _ in TARGETS
                            for b in bindings}):
            importlib.import_module(name)  # every layer, even if the workload skips it
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "fuzzint" or name.startswith("fuzzint.")) and m is not None]
        found = []
        for layer, kind, bindings, hook in TARGETS:
            resolved = [_resolve(b) for b in bindings]
            original = resolved[0][2]
            for binding, (_, _, value) in zip(bindings, resolved):
                if value is not original:
                    raise TraceError(f"{binding.replace(':', '.')} does not hold "
                                     f"the same object as {bindings[0]}")
            owners = modules + [resolved[0][0]]   # aliases nobody listed, too
            sites = {(id(owner), attr): owner for owner, attr, _ in resolved}
            for owner in owners:
                for attr, value in vars(owner).items():
                    if value is original:
                        sites.setdefault((id(owner), attr), owner)
            wrapper = (self._span(layer, original, hook) if kind == "span"
                       else self._counter(layer, original))
            found += [(owner, attr, original, wrapper) for (_, attr), owner in sites.items()]
        return found

    def install(self) -> None:
        if self._patched:
            raise TraceError("tracer already installed")
        for owner, attr, original, wrapper in self._sites:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _counter(self, layer, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, layer, fn, hook):
        stack, depth = self._stack, self._depth
        on_result = getattr(self, "_hook_" + hook) if hook else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                own = elapsed - frame[1]
                self.calls[layer] += 1
                self.self_s[layer] += own
                outermost = not depth[layer]
                if outermost:
                    self.inclusive[layer] += elapsed
                edge = self.edges[(parent, layer)]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += own
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None and outermost:
                on_result(args, result)
            return result
        return spanned

    def request(self, request_id, label, fn):
        """Run ``fn()`` as the root span of one benchmark request."""
        root = self._span(ROOT, fn, None)
        start = perf_counter()
        try:
            return root()
        finally:
            self.requests.append((request_id, label, start, perf_counter()))

    # -- hooks: counts read off the arguments or the result -------------------

    def _hook_collection(self, args, result) -> None:
        self.values["laws.collection_size"] += len(result)

    def _hook_op_tables(self, args, result) -> None:
        self.values["laws.op_tables.pairs"] += args[0].n ** 2

    def _hook_run_law(self, args, result) -> None:
        report, items, _law, arity = args[:4]
        self.values["laws.checked"] += report.checks[-1].checked
        self.values["laws.planned"] += len(items) ** arity

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the aggregated span edges and the request spans as JSON."""
        doc = {"edges": [{"parent": parent, "name": name, "calls": calls,
                          "inclusive_s": incl, "self_s": own}
                         for (parent, name), (calls, incl, own) in sorted(
                             self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
               "counters": {k: v for k, v in sorted(self.calls.items())},
               "requests": [{"id": rid, "label": label, "start": start, "end": end}
                            for rid, label, start, end in self.requests]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values from one traced pass, keyed by metric name.

    ``.s`` is inclusive time of the outermost calls, except ``laws.probe.s``
    and ``cli.main.s``, which are self time.
    """
    c, inc, own, v = tracer.calls, tracer.inclusive, tracer.self_s, tracer.values
    pairs = v["laws.op_tables.pairs"]
    out = {
        "laws.op_tables.s": inc["laws.op_tables"],
        "laws.op_tables.pairs": pairs,
        "laws.probe.s": own["laws.probe"],
        "laws.checked": v["laws.checked"],
        "laws.planned": v["laws.planned"],
        "laws.checked_per_table_pair": v["laws.checked"] / pairs if pairs else 0.0,
        "laws.enumerate.s": inc["laws.enumerate"],
        "laws.collection_size": v["laws.collection_size"],
    }
    for op in ("construct", "join", "meet", "cut_interval", "classify"):
        out[f"fuzzyintervals.{op}.calls"] = c[f"fuzzyintervals.{op}"]
        out[f"fuzzyintervals.{op}.s"] = inc[f"fuzzyintervals.{op}"]
    for name in ("fuzzysets.cut_mask", "fuzzysets.as_grade",
                 "intervals.hull", "intervals.intersection"):
        out[f"{name}.calls"] = c[name]
    for name in ("lattice.build", "lattice.is_distributive", "formats.load"):
        out[f"{name}.calls"] = c[name]
        out[f"{name}.s"] = inc[name]
    out["formats.dump.s"] = inc["formats.dump"]
    out["cli.build_parser.s"] = inc["cli.build_parser"]
    out["cli.main.s"] = own["cli.main"]
    return out


# The workload that exercises each layer metric most; a zero there means the
# wrapper no longer sees the calls, so the traced run fails instead.
PRIMARY_WORKLOAD = {
    "laws.op_tables.s": "laws-sampled", "laws.op_tables.pairs": "laws-sampled",
    "laws.probe.s": "laws-exhaustive", "laws.checked": "laws-exhaustive",
    "laws.planned": "laws-exhaustive", "laws.checked_per_table_pair": "laws-exhaustive",
    "laws.enumerate.s": "laws-exhaustive", "laws.collection_size": "laws-exhaustive",
    "fuzzyintervals.classify.calls": "docs", "fuzzyintervals.classify.s": "docs",
    "lattice.build.calls": "docs", "lattice.build.s": "docs",
    "lattice.is_distributive.calls": "docs", "lattice.is_distributive.s": "docs",
    "formats.load.calls": "docs", "formats.load.s": "docs", "formats.dump.s": "docs",
    "cli.build_parser.s": "docs", "cli.main.s": "docs",
}
for _op in ("construct", "join", "meet", "cut_interval"):
    PRIMARY_WORKLOAD[f"fuzzyintervals.{_op}.calls"] = "laws-exhaustive"
    PRIMARY_WORKLOAD[f"fuzzyintervals.{_op}.s"] = "laws-exhaustive"
for _name in ("fuzzysets.cut_mask", "fuzzysets.as_grade",
              "intervals.hull", "intervals.intersection"):
    PRIMARY_WORKLOAD[f"{_name}.calls"] = "laws-exhaustive"
