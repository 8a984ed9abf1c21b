"""Call wrappers installed on the sievemal layers from outside the package.

Two instruments share one patcher:

* ``CallCounter`` counts calls to the per-file entry points (``scan`` and
  ``extract_features``) by phase.  It runs on every benchmark run, so the work
  mix is recorded next to every timing; it reads no clock.
* ``Tracer`` records, for every wrapped call, its start, end, parent and self
  time (duration minus the time its wrapped children cover).  Coarse calls are
  kept as individual spans; hot leaf calls (``fnv1a64``,
  ``Tree.predict_margin``, ``scan`` and the per-file pipeline calls) are
  aggregated into a count, a total time and a self time, so that tracing them
  stays affordable.  Everything stays in memory until ``write_spans``;
  ``merge`` adds the aggregated calls that a traced child process wrote.

A function is replaced at every import site: each ``sievemal`` module attribute
that holds the original object gets the wrapper (``pipeline.scan`` as well as
``rules.scan`` and ``rules.engine.scan``).  ``uninstall`` restores them all.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    return 1 if not shape or len(shape) < 2 else int(shape[0])


def _scan_role(args, kwargs, result):
    return kwargs.get("rs", args[1] if len(args) > 1 else None).role


def _parse_role(args, kwargs, result):
    return kwargs.get("role", args[1] if len(args) > 1 else "blocklist")


def _stage_kind(args, kwargs, result):
    stage, score, _ = result
    return "error" if stage == "ml" and score is None else stage


def _predict_kind(args, kwargs, result):
    return "single" if _rows(args[1]) == 1 else "batch"


# (module, attribute, traced name, aggregate, variant(args, kwargs, result),
#  extras(args, kwargs, result) -> {counter: number})
FUNCTIONS = (
    ("sievemal.corpus", "synthesize_corpus", "corpus.synthesize_corpus", False, None, None),
    ("sievemal.pe", "parse_pe", "pe.parse_pe", True, None, None),
    ("sievemal.pe", "inject_section", "pe.inject_section", True, None, None),
    ("sievemal.pe", "serialize_pe", "pe.serialize_pe", True, None, None),
    ("sievemal.rules.parser", "parse_rules", "rules.parse_rules", False, _parse_role, None),
    ("sievemal.rules.engine", "scan", "rules.scan", True, _scan_role,
     lambda a, k, r: {"bytes": len(a[0]), "fired": int(r.verdict)}),
    ("sievemal.features", "extract_features", "features.extract_features", True, None, None),
    ("sievemal.features", "fnv1a64", "features.fnv1a64", True, None, None),
    ("sievemal.learners.gbdt", "train_gbdt", "learners.train_gbdt", False, None,
     lambda a, k, r: {"rounds": len(r.trees)}),
    ("sievemal.learners.gbdt", "predict_gbdt", "learners.predict_gbdt", True, _predict_kind,
     lambda a, k, r: {"rows": _rows(a[1])}),
    ("sievemal.pipeline", "filter_training", "pipeline.filter_training", False, None, None),
    ("sievemal.pipeline", "train_system", "pipeline.train_system", False, None, None),
    ("sievemal.pipeline", "load_system", "pipeline.load_system", False, None, None),
    ("sievemal.pipeline", "predict", "pipeline.predict", True, None, None),
    ("sievemal.evaluation", "composite_roc", "evaluation.composite_roc", False, None, None),
    ("sievemal.evaluation", "rule_stats", "evaluation.rule_stats", False, None, None),
    ("sievemal.evaluation", "roc", "evaluation.roc", False, None, None),
    ("sievemal.attack", "harvest_sections", "attack.harvest_sections", False, None, None),
    ("sievemal.attack", "apply_manipulation", "attack.apply_manipulation", True, None, None),
    ("sievemal.attack", "gamma_attack", "attack.gamma_attack", False, None, None),
)

# (module, class, method, traced name, aggregate, variant, extras)
METHODS = (
    ("sievemal.learners.gbdt", "Tree", "predict_margin", "learners.tree_predict", True, None,
     lambda a, k, r: {"rows": _rows(a[1])}),
    ("sievemal.pipeline", "AiSystem", "stage", "pipeline.stage", True, _stage_kind, None),
)

# per-file entry points the always-on counter watches
COUNTED = (
    ("sievemal.rules.engine", "scan", "rules.scan"),
    ("sievemal.features", "extract_features", "features.extract_features"),
)


class _Patcher:
    """Replaces module attributes and class methods, and puts them back."""

    def __init__(self):
        self._undo = []

    def function(self, module_name, attr, wrapped_for):
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = wrapped_for(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "sievemal" or name.startswith("sievemal.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._undo.append((module, key, original))

    def method(self, module_name, class_name, attr, wrapped_for):
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapped_for(original))
        self._undo.append((cls, attr, original))

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


class CallCounter:
    """Counts calls to the per-file entry points, keyed by (phase, name)."""

    def __init__(self):
        self.phase = "setup"
        self.counts = defaultdict(int)
        self._patcher = _Patcher()

    def install(self):
        for module_name, attr, name in COUNTED:
            self._patcher.function(module_name, attr, lambda fn, name=name: self._wrap(fn, name))
        return self

    def uninstall(self):
        self._patcher.restore()

    def _wrap(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def total(self, name, phase=None) -> int:
        return sum(n for (p, k), n in self.counts.items()
                   if k == name and (phase is None or p == phase))


class Tracer:
    """In-memory spans and aggregated leaf calls with self times."""

    def __init__(self):
        self.phase = "setup"
        self.spans = []                 # (id, name, phase, start, end, parent, self)
        self.calls = {}                 # (phase, name) -> [count, total, self, extras]
        self._stack = []                # open frames: [span id, child s, parent, start]
        self._next_id = 1
        self._patcher = _Patcher()

    # --- installation ------------------------------------------------------

    def install(self):
        for module_name, attr, name, agg, variant, extras in FUNCTIONS:
            self._patcher.function(
                module_name, attr,
                lambda fn, n=name, a=agg, v=variant, e=extras: self._wrap(fn, n, a, v, e))
        for module_name, class_name, attr, name, agg, variant, extras in METHODS:
            self._patcher.method(
                module_name, class_name, attr,
                lambda fn, n=name, a=agg, v=variant, e=extras: self._wrap(fn, n, a, v, e))
        # the attack oracle is a closure made per system: wrap what make_oracle returns
        self._patcher.function("sievemal.pipeline", "make_oracle", self._wrap_make_oracle)
        return self

    def uninstall(self):
        self._patcher.restore()

    def _wrap_make_oracle(self, make_oracle):
        def traced_make_oracle(system):
            score_fn, rule_probe = make_oracle(system)
            return (self._wrap(score_fn, "attack.oracle", True, None, None),
                    self._wrap(rule_probe, "attack.rule_probe", True, None, None))

        return traced_make_oracle

    def _wrap(self, fn, name, aggregate, variant, extras):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(aggregate)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                full, more = name, None
                if result is not None:
                    if variant is not None:
                        full = f"{name}.{variant(args, kwargs, result)}"
                    if extras is not None:
                        more = extras(args, kwargs, result)
                tracer._exit(frame, full, aggregate, more)

        return traced

    def _enter(self, aggregate):
        parent = self._stack[-1][0] if self._stack else 0
        if aggregate:
            sid = parent                  # children of a leaf hang off its parent span
        else:
            sid = self._next_id
            self._next_id += 1
        frame = [sid, 0.0, parent, _clock()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, aggregate, extras):
        end = _clock()
        self._stack.pop()
        sid, child, parent, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self_time = duration - child
        if not aggregate:
            self.spans.append((sid, name, self.phase, start, end, parent, self_time))
        rec = self.calls.get((self.phase, name))
        if rec is None:
            rec = self.calls[(self.phase, name)] = [0, 0.0, 0.0, defaultdict(float)]
        rec[0] += 1
        rec[1] += duration
        rec[2] += self_time
        if extras:
            for key, value in extras.items():
                rec[3][key] += value

    def span(self, name):
        """Context manager for a benchmark-level span (a CLI stage, a pass)."""
        return _Span(self, name)

    # --- queries -----------------------------------------------------------

    def total(self, name, phases=None, prefix=False):
        """(count, total seconds, self seconds, extras) summed over `phases` (all if None)."""
        count, total, self_time, extras = 0, 0.0, 0.0, defaultdict(float)
        for (p, full), rec in self.calls.items():
            matches = full.startswith(name + ".") or full == name if prefix else full == name
            if matches and (phases is None or p in phases):
                count += rec[0]
                total += rec[1]
                self_time += rec[2]
                for key, value in rec[3].items():
                    extras[key] += value
        return count, total, self_time, extras

    def self_by_layer(self, phases) -> dict:
        out = defaultdict(float)
        for (p, full), rec in self.calls.items():
            if p in phases:
                out[full.split(".", 1)[0]] += rec[2]
        return dict(out)

    def table(self, phases) -> list:
        """Per name: calls, total and self seconds in `phases`, sorted by self time."""
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for (p, full), rec in self.calls.items():
            if p not in phases:
                continue
            row = rows[full]
            row[0] += rec[0]
            row[1] += rec[1]
            row[2] += rec[2]
        return sorted(([name, *row] for name, row in rows.items()),
                      key=lambda r: -r[3])

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, phase, start, end, parent, self_time in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "phase": phase,
                                     "start": start, "end": end, "parent": parent,
                                     "self": self_time}) + "\n")
            for (phase, name), (count, total, self_time, extras) in sorted(self.calls.items()):
                fh.write(json.dumps({"aggregate": name, "phase": phase, "calls": count,
                                     "total": total, "self": self_time,
                                     **dict(extras)}) + "\n")

    def merge(self, path):
        """Adds the aggregated calls that another process wrote with write_spans."""
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                if "aggregate" not in row:
                    continue
                key = (row.pop("phase"), row.pop("aggregate"))
                rec = self.calls.setdefault(key, [0, 0.0, 0.0, defaultdict(float)])
                rec[0] += row.pop("calls")
                rec[1] += row.pop("total")
                rec[2] += row.pop("self")
                for extra, value in row.items():
                    rec[3][extra] += value


class _Span:
    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name
        self._frame = None

    def __enter__(self):
        self._frame = self._tracer._enter(False)
        return self

    def __exit__(self, *exc):
        self._tracer._exit(self._frame, self._name, False, None)
        return False
