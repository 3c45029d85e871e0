"""Per-module spans, recorded by the benchmark around calls into hooklab.

``Tracer`` rebinds hooklab's public functions (and three ``RationalFunction``
methods) to timing wrappers wherever the package refers to them, and
restores them on exit.  Every call is accounted in memory: calls, total and
self time per span name, where self time is the span's duration minus the
time its child spans cover.  Times are CPU seconds of this (single)
thread, scaled by the host-speed factor of the pass like the end-to-end
metrics (see speed.py); the raw aggregates written to the trace file are
unscaled.  Command-level spans (the CLI, identity sums,
stats) are also kept one by one with their parent; leaf calls such as
``hook_values`` are only aggregated, since there are hundreds of thousands.

Enumerators are generators, so their spans time each ``next()``.  Growth is
split into phases by replay: each ``grow`` records its sites through
``on_step``; the chain is then replayed through ``start``, ``addable_sites``
and ``attach`` outside the timed span, and ``draw_other_s`` is the ``grow``
time minus those two phases.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import thread_time as clock

# (module, name, span name, kind).  Every kind times the call; "iter" also
# times each next() of the returned iterator and counts its items, "sum"
# counts the trees enumerated inside as identity terms, "add" tracks the
# largest degree of a sum, and "record" and "sum" spans are kept one by one.
FUNCTIONS = (
    ("families", "enum_binary", "families.enum_binary", "iter"),
    ("families", "enum_ordered", "families.enum_ordered", "iter"),
    ("families", "enum_tbar", "families.enum_tbar", "iter"),
    ("identities", "hook_values", "identities.hook_values", "call"),
    ("identities", "han_lhs", "identities.han_lhs", "sum"),
    ("identities", "verify_han", "identities.han_lhs", "sum"),
    ("identities", "verify_han2", "identities.han2_lhs", "sum"),
    ("identities", "verify_tbar", "identities.tbar_lhs", "sum"),
    ("identities", "verify_yang", "identities.yang_lhs", "sum"),
    ("identities", "yang_sum_at", "identities.yang_sum_at", "sum"),
    ("identities", "yang_term", "identities.yang_term", "call"),
    ("sampler", "enumerate_labelings", "sampler.enumerate_labelings", "iter"),
    ("sampler", "lemma_check", "sampler.lemma_check", "call"),
    ("sampler", "labeling_probability", "sampler.labeling_probability", "call"),
    ("sampler", "shape_probability", "sampler.shape_probability", "call"),
    ("stats", "category_masses", "stats.category_masses", "record"),
    ("stats", "run_census", "stats.run_census", "record"),
    ("stats", "chi_squared_gof", "stats.chi_squared_gof", "record"),
    ("cli", "main", "cli.main", "record"),
)
ITEM_COUNTS = {
    "families.enum_binary": "families.trees",
    "families.enum_ordered": "families.trees",
    "families.enum_tbar": "families.trees",
    "sampler.enumerate_labelings": "sampler.states",
}
METHODS = (
    ("exact", "RationalFunction", "__init__", "exact.canonicalize", "call"),
    ("exact", "RationalFunction", "__add__", "exact.add", "add"),
    ("exact", "RationalFunction", "evaluate", "exact.evaluate", "call"),
)


class Tracer:
    def __init__(self, hooklab) -> None:
        self.hooklab = hooklab
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()
        self.max_degree = 0
        self.grow_us: dict[tuple[str, int], list[float]] = defaultdict(list)
        self.enc_us: dict[tuple[str, int], list[float]] = defaultdict(list)
        self.replay_mismatches: list[str] = []
        self.spans: list[dict] = []
        # one frame per open span: [child seconds, id of nearest recorded span]
        self._stack: list[list] = [[0.0, None]]
        self._restore: list[tuple[object, str, object]] = []
        self.command: str | None = None

    # --- patching -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "hooklab" or name.startswith("hooklab."))]
        for module_name, name, span, kind in FUNCTIONS:
            orig = getattr(getattr(self.hooklab, module_name), name, None)
            if orig is None:
                print(f"tracing: hooklab.{module_name}.{name} not found", file=sys.stderr)
                continue
            self._rebind(modules, orig, self._wrapper(span, kind, orig))
        sampler = self.hooklab.sampler
        self._rebind(modules, sampler.grow, self._grow_wrapper(sampler.grow))
        for module_name, cls_name, name, span, kind in METHODS:
            cls = getattr(getattr(self.hooklab, module_name), cls_name, None)
            orig = getattr(cls, name, None)
            if orig is None:
                print(f"tracing: {cls_name}.{name} not found", file=sys.stderr)
                continue
            self._rebind([cls], orig, self._wrapper(span, kind, orig))
        return self

    def _rebind(self, owners, orig, wrapper) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is orig:
                    self._restore.append((owner, attr, orig))
                    setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # --- spans ----------------------------------------------------------
    def _open(self, name: str, record: bool):
        parent = self._stack[-1]
        span_id = parent[1]
        if record:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "parent": parent[1], "name": name,
                               "command": self.command, "start": clock()})
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame, elapsed: float, record: bool) -> None:
        self._stack.pop()
        self._stack[-1][0] += elapsed
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]
        if record:
            self.spans[frame[1]]["end"] = self.spans[frame[1]]["start"] + elapsed

    def _wrapper(self, name: str, kind: str, fn):
        record = kind in ("record", "sum")
        counts = self.counts

        def traced(*args, **kwargs):
            trees_before = counts["families.trees"]
            frame = self._open(name, record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, clock() - start, record)
            if kind == "iter":
                return self._timed_iter(name, result)
            if kind == "sum":
                counts["identities.terms"] += counts["families.trees"] - trees_before
            elif kind == "add":
                self.max_degree = max(self.max_degree, result.num.degree, result.den.degree)
            elif name == "stats.chi_squared_gof":
                counts["stats.categories"] += result.categories
            return result

        return traced

    def _timed_iter(self, name: str, iterator):
        item_count = ITEM_COUNTS[name]
        iterator = iter(iterator)
        while True:
            frame = self._open(name, False)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(name, frame, clock() - start, False)
            self.counts[item_count] += 1
            yield item

    def _grow_wrapper(self, grow):
        sampler = self.hooklab.sampler
        start_state, addable_sites, attach = sampler.start, sampler.addable_sites, sampler.attach

        def traced_grow(family, n, rng, on_step=None):
            sites = []

            def record_step(label, site, p):
                sites.append(site)
                if on_step is not None:
                    on_step(label, site, p)

            frame = self._open("sampler.grow", False)
            t0 = clock()
            try:
                tree = grow(family, n, rng, on_step=record_step)
            finally:
                t1 = clock()
                self.stats["sampler.grow"][0] += 1
                self.stats["sampler.grow"][1] += t1 - t0
            enc = tree.enc
            t2 = clock()
            key = (family.label, n)
            self.grow_us[key].append((t1 - t0) * 1e6)
            self.enc_us[key].append((t2 - t1) * 1e6)
            self.stats["trees.enc"][1] += t2 - t1
            # replay the recorded chain phase by phase
            state = start_state(family)
            listed = 0
            for site in sites:
                a0 = clock()
                options = addable_sites(state)
                a1 = clock()
                state = attach(state, site)
                a2 = clock()
                self.stats["sampler.addable_sites"][1] += a1 - a0
                self.stats["sampler.attach"][1] += a2 - a1
                listed += len(options)
                if all(s != site for s, _ in options):
                    self.replay_mismatches.append(f"{enc}: site {site} not addable")
            if state.tree.enc != enc:
                self.replay_mismatches.append(f"{enc}: replay gave {state.tree.enc}")
            self.counts["sampler.steps"] += len(sites)
            self.counts["sampler.sites"] += listed
            t3 = clock()
            self.stats["trace.replay"][1] += t3 - t2
            self._close("trace.grow_wrapper", frame, t3 - t0, False)
            return tree

        return traced_grow

    # --- metrics --------------------------------------------------------
    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when nothing was measured."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, growth_sizes, scale: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); times are multiplied
    by ``scale``, the host-speed factor of the traced pass (see speed.py)."""
    s, c = tracer.self_s, tracer.counts
    grow_s = tracer.total_s("sampler.grow")
    addable_s = tracer.total_s("sampler.addable_sites")
    attach_s = tracer.total_s("sampler.attach")
    metrics = {
        "families.enum_binary_s": (s("families.enum_binary"), "s"),
        "families.enum_ordered_s": (s("families.enum_ordered"), "s"),
        "families.enum_tbar_s": (s("families.enum_tbar"), "s"),
        "families.trees": (c["families.trees"], "count"),
        "identities.hook_values_s": (s("identities.hook_values"), "s"),
        "identities.han_lhs_s": (s("identities.han_lhs"), "s"),
        "identities.han2_lhs_s": (s("identities.han2_lhs"), "s"),
        "identities.tbar_lhs_s": (s("identities.tbar_lhs"), "s"),
        "identities.terms": (c["identities.terms"], "count"),
        "identities.yang_term_s": (s("identities.yang_term"), "s"),
        "identities.yang_lhs_s": (s("identities.yang_lhs"), "s"),
        "identities.yang_sum_at_s": (s("identities.yang_sum_at"), "s"),
        "exact.add_s": (s("exact.add"), "s"),
        "exact.adds": (tracer.stats["exact.add"][0] if "exact.add" in tracer.stats else 0, "count"),
        "exact.evaluate_s": (s("exact.evaluate"), "s"),
        "exact.canonicalize_s": (s("exact.canonicalize"), "s"),
        "exact.max_degree": (tracer.max_degree, "degree"),
    }
    for family, n in growth_sizes:
        key = (family, n)
        metrics[f"sampler.grow_us.p50.n{n}.{family}"] = (_percentile(tracer.grow_us[key], 0.50), "us")
        metrics[f"sampler.grow_us.p99.n{n}.{family}"] = (_percentile(tracer.grow_us[key], 0.99), "us")
        metrics[f"trees.enc_us.p50.n{n}.{family}"] = (_percentile(tracer.enc_us[key], 0.50), "us")
    steps = c["sampler.steps"]
    metrics.update({
        "sampler.addable_sites_s": (addable_s, "s"),
        "sampler.attach_s": (attach_s, "s"),
        "sampler.draw_other_s": (grow_s - addable_s - attach_s if steps else 0.0, "s"),
        "sampler.steps": (steps, "count"),
        "sampler.sites_per_step": (c["sampler.sites"] / steps if steps else 0.0, "sites/step"),
        "sampler.enumerate_labelings_s": (s("sampler.enumerate_labelings"), "s"),
        "sampler.states": (c["sampler.states"], "count"),
        "sampler.lemma_check_s": (s("sampler.lemma_check"), "s"),
        "sampler.labeling_probability_s": (s("sampler.labeling_probability"), "s"),
        "sampler.shape_probability_s": (s("sampler.shape_probability"), "s"),
        "stats.category_masses_s": (s("stats.category_masses"), "s"),
        "stats.run_census_s": (s("stats.run_census"), "s"),
        "stats.chi_squared_gof_s": (s("stats.chi_squared_gof"), "s"),
        "stats.categories": (c["stats.categories"], "count"),
        "cli.main_self_s": (s("cli.main"), "s"),
    })
    return {name: (value * scale if unit in ("s", "us") else value, unit)
            for name, (value, unit) in metrics.items()}
