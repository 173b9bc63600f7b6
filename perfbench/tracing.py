"""Spans around the package's public functions, measured from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``latspi`` module that holds it, since modules import names from one
another (``games`` imports ``enabled_transitions``, ``congruence_key``,
``static_equiv_witness`` and ``indep_event`` by name).  Methods are
replaced on their class.  Each call opens a span; a span's self time is its
duration minus the durations of the spans nested in it.  Code that is not
traced, private helpers included, counts toward the self time of the
traced caller.

Totals are kept for every call.  The spans themselves are kept in memory
up to ``span_cap`` and written out as a Chrome trace-event file when the run
ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("syntax", "terms", "lts", "knowledge", "independence", "games", "corpus")

# layer -> traced public functions; "Class.method" names a method
TRACED = {
    "syntax": ("parse_process", "prime_bangs", "from_process", "alpha_canonical",
               "congruence_key", "struct_congruent", "subst_proc"),
    "terms": ("Theory.normalize", "Theory.equal"),
    "lts": ("proc_transitions", "enabled_transitions", "default_consts",
            "reachable_lts", "diamond_check"),
    "knowledge": ("recipe_enum", "static_equiv_witness", "static_impl_witness", "satisfies"),
    "independence": ("indep_event", "indep_loc"),
    "games": ("check", "witness_replay", "build_signature", "initial_config", "Checker.run"),
    "corpus": ("run_case", "case_theory", "verdict_class"),
}


class FnStats:
    __slots__ = ("calls", "incl", "self_time", "entries", "entry_time", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0  # outermost calls only, so recursion is not counted twice
        self.self_time = 0.0
        self.entries = 0  # calls from outside the function's layer
        self.entry_time = 0.0
        self.active = 0


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.stats: dict[str, FnStats] = {}
        self.layer_of: dict[str, str] = {}
        # open spans: [name, child time, span index or -1]
        self.stack: list[list] = []
        self.spans: list = []  # (name, start, end, parent, op)
        self.counters: Counter = Counter()
        self.op = -1
        self.enabled_seen: set = set()
        self.t0 = perf_counter()

    def begin_op(self) -> None:
        """Start a new operation: spans and repeat counts are per operation."""
        self.op += 1
        self.enabled_seen = set()

    # -- hooks on results --

    def _after_enabled(self, args, result) -> None:
        key = tuple(args[:5])
        if key not in self.enabled_seen:
            self.enabled_seen.add(key)
            self.counters["lts.states"] += 1

    def _after_recipe_enum(self, args, result) -> None:
        self.counters["knowledge.recipes"] += len(result)

    # -- wrapping --

    def wrap(self, name: str, fn, after=None):
        layer = self.layer_of[name]
        st = self.stats.setdefault(name, FnStats())
        stack = self.stack
        spans = self.spans
        cap = self.span_cap

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            entry = parent is None or self.layer_of[parent[0]] != layer
            index = -1
            if len(spans) < cap:
                index = len(spans)
                spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            st.active += 1
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                st.active -= 1
                dur = end - start
                st.calls += 1
                st.self_time += dur - frame[1]
                if not st.active:
                    st.incl += dur
                if entry:
                    st.entries += 1
                    st.entry_time += dur
                if index >= 0:
                    spans[index] = (name, start, end, parent[2] if parent else -1, self.op)
                if parent is not None:
                    parent[1] += end - start
            if after is not None:
                after(args, return_value)
            if parent is not None:
                # bookkeeping and hook time are the tracer's, not the caller's
                parent[1] += perf_counter() - end
            return return_value

        return traced

    @contextmanager
    def installed(self):
        """Replace the traced functions in every loaded ``latspi`` module."""
        modules = [m for n, m in sys.modules.items() if n == "latspi" or n.startswith("latspi.")]
        hooks = {
            "lts.enabled_transitions": self._after_enabled,
            "knowledge.recipe_enum": self._after_recipe_enum,
        }
        undo = []
        for layer, names in TRACED.items():
            home = sys.modules[f"latspi.{layer}"]
            for qual in names:
                name = f"{layer}.{qual}"
                self.layer_of[name] = layer
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self.wrap(name, original, hooks.get(name)))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(home, qual)
                wrapper = self.wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results --

    def _fn(self, name: str) -> FnStats:
        return self.stats.get(name) or FnStats()

    def metrics(self, ops: int, elapsed: float) -> dict[str, tuple[float, str]]:
        """Per-layer numbers, each per operation, with their units."""
        def per_op(x):
            return x / ops

        def ms(name, field):
            return per_op(getattr(self._fn(name), field) * 1000.0), "ms/op"

        def calls(*names):
            return per_op(sum(self._fn(n).calls for n in names)), "count/op"

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            fns = [s for n, s in self.stats.items() if self.layer_of[n] == layer]
            out[f"{layer}.calls"] = per_op(sum(s.entries for s in fns)), "count/op"
            out[f"{layer}.self_ms"] = per_op(sum(s.self_time for s in fns) * 1000.0), "ms/op"
        enabled = self._fn("lts.enabled_transitions").calls
        static = ("knowledge.static_equiv_witness", "knowledge.static_impl_witness")
        indep = ("independence.indep_event", "independence.indep_loc")
        out.update({
            "games.check_ms": ms("games.check", "incl"),
            "games.run_calls": calls("games.Checker.run"),
            "games.run_self_ms": ms("games.Checker.run", "self_time"),
            "games.replay_ms": ms("games.witness_replay", "incl"),
            "knowledge.static_calls": calls(*static),
            "knowledge.static_ms": (per_op(sum(self._fn(n).incl for n in static) * 1000.0), "ms/op"),
            "knowledge.recipe_enum_calls": calls("knowledge.recipe_enum"),
            "knowledge.recipes": (per_op(self.counters["knowledge.recipes"]), "count/op"),
            "terms.normalize_calls": calls("terms.Theory.normalize"),
            "terms.normalize_self_ms": ms("terms.Theory.normalize", "self_time"),
            "lts.proc_transitions_calls": calls("lts.proc_transitions"),
            "lts.proc_transitions_self_ms": ms("lts.proc_transitions", "self_time"),
            "lts.enabled_calls": calls("lts.enabled_transitions"),
            "lts.enabled_self_ms": ms("lts.enabled_transitions", "self_time"),
            "lts.enabled_repeat_ratio": (
                (enabled - self.counters["lts.states"]) / enabled if enabled else 0.0,
                "ratio",
            ),
            "lts.states": (per_op(self.counters["lts.states"]), "count/op"),
            "syntax.parse_ms": ms("syntax.parse_process", "incl"),
            "syntax.congruence_key_calls": calls("syntax.congruence_key"),
            "syntax.congruence_key_self_ms": ms("syntax.congruence_key", "self_time"),
            "syntax.alpha_canonical_self_ms": ms("syntax.alpha_canonical", "self_time"),
            "syntax.subst_proc_self_ms": ms("syntax.subst_proc", "self_time"),
            "independence.indep_calls": (
                per_op(sum(self._fn(n).entries for n in indep)), "count/op"),
            "independence.indep_ms": (
                per_op(sum(self._fn(n).entry_time for n in indep) * 1000.0), "ms/op"),
            "trace.ops_per_s": (ops / elapsed, "1/s"),
        })
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as Chrome trace events; returns how many."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - self.t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": i, "parent": parent, "op": op},
            }
            for i, span in enumerate(self.spans)
            if span is not None
            for name, start, end, parent, op in (span,)
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "droppedSpans": self.dropped()}, f)
        return len(events)

    def dropped(self) -> int:
        return sum(s.calls for s in self.stats.values()) - sum(1 for s in self.spans if s is not None)
