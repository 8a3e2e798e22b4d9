"""Spans and counters around the program's layer functions.

The wrappers replace the names through which `hors.cli` and the other
modules call each layer, so no program file changes.  A span records its
name, start, end, parent span and job; self time is the span's duration
minus the time its child spans cover.  Spans stay in memory until the pass
ends.  `sem_apply` runs tens of thousands of times per scheme, so it is
timed and counted without storing a span for each call.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name).  The span name's prefix is its layer.
TARGETS = (
    ("hors.cli", "main", "cli.main"),
    ("hors.cli", "parse", "scheme.parse"),
    ("hors.cli", "render", "scheme.render"),
    ("hors.io2oi", "reachable_nonterminals", "scheme.reach"),
    ("hors.cli", "bar_scheme", "oi2io.bar"),
    ("hors.cli", "Analysis", "typesys.analysis"),
    ("hors.io2oi", "Analysis", "typesys.analysis"),
    ("hors.typesys", "step_F", "typesys.step_F"),
    ("hors.typesys", "sem_apply", "typesys.sem_apply"),
    ("hors.io2oi", "sem_apply", "typesys.sem_apply"),
    ("hors.cli", "label_scheme", "io2oi.label"),
    ("hors.cli", "self_correct_report", "io2oi.correct"),
    ("hors.cli", "value_tree_report", "engine.valuetree"),
    ("hors.cli", "derive", "engine.derive"),
)
UNSTORED = {"typesys.sem_apply"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, job)
        self.stack: list[list] = []  # [child time, span index]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self.reject = False
        self._saved: list[tuple] = []

    def install(self) -> None:
        import importlib

        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        tracer = self
        layer = name.split(".")[0]
        store = name not in UNSTORED

        def traced(*args, **kwargs):
            parent = tracer.stack[-1][1] if tracer.stack else None
            frame = [0.0, parent]
            if store:
                frame[1] = len(tracer.spans)
                tracer.spans.append(None)
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - start
                if tracer.stack:
                    tracer.stack[-1][0] += dur
                own = dur - frame[0]
                key = tracer._key(name, args, kwargs)
                tracer.self_s[key] += own
                series = tracer._series(key, args, kwargs)
                if series:
                    tracer.self_s[series] += own
                tracer.self_s[f"layer.{layer}"] += own
                if layer == "typesys" and tracer.reject:
                    tracer.self_s["typesys.reject"] += own
                if store:
                    tracer.spans[frame[1]] = (key, start, end, parent, tracer.job)
                else:
                    tracer.counts[name] += 1
            tracer._count(name, result, args, kwargs)
            return result

        return traced

    @staticmethod
    def _budget(key, args, kwargs):
        """The EvalBudget argument of `value_tree_report` or `derive`."""
        pos = 3 if key == "engine.derive" else 2
        return kwargs["budget"] if "budget" in kwargs else args[pos]

    def _key(self, name, args, kwargs):
        if name == "engine.valuetree":
            policy = kwargs.get("policy", args[1] if len(args) > 1 else "unrestricted")
            return "engine.io" if policy == "io" else "engine.oi"
        return name

    def _series(self, key, args, kwargs):
        """The budget point of the scaling series a call belongs to."""
        if key in ("engine.io", "engine.derive"):
            return f"{key}.b{self._budget(key, args, kwargs).max_steps}"
        return None

    def _count(self, name, result, args, kwargs) -> None:
        c = self.counts
        if name == "engine.valuetree":
            key = self._key(name, args, kwargs)
            c[f"{key}_steps"] += result.steps_used
            c["engine.exhausted_jobs"] += result.exhausted
        elif name == "engine.derive":
            c["engine.derive_steps"] += len(result.steps)
            c["engine.exhausted_jobs"] += result.exhausted_budget
        elif name == "typesys.analysis":
            c["typesys.iterations"] += result.iterations
            c["typesys.fixpoint_atoms"] += sum(len(v) for v in result.env.entries.values())
        elif name == "scheme.parse" and hasattr(result, "rules"):
            c["scheme.parse_nodes"] += sum(r.body.size for r in result.rules.values())
        elif name == "oi2io.bar":
            c["oi2io.rules_out"] += len(result.rules)
        elif name == "io2oi.label":
            c["io2oi.labeled_rules"] += len(result.rules)
        elif name == "io2oi.correct":
            corrected, report = result
            dead = set(report.unreachable)
            c["io2oi.voided_rules"] += report.voided_count
            c["io2oi.emitted_rules"] += len(corrected.rules)
            c["io2oi.live_rules"] += sum(1 for n in corrected.rules if n not in dead)
