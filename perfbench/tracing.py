"""Spans around cmospath's public functions, installed from outside.

Each wrapper replaces a function on every cmospath module that binds its
name: ``protocol``, ``buffering``, ``sizing`` and ``cli`` import with
``from ... import``, so patching only the defining module would miss
their calls.  ``PathModel`` methods are patched on the class.  A span
records its name, start, end, parent span and op id; spans stay in
memory until ``write`` and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter

# (module, function, span name)
FUNCTIONS = (
    ("process", "load_process_file", "process.load"),
    ("cli", "main", "cli.main"),
    ("bounds", "link_fixed_point", "bounds.link_fixed_point"),
    ("bounds", "min_delay_sizing", "bounds.min_delay"),
    ("bounds", "max_delay_sizing", "bounds.max_delay"),
    ("bounds", "compute_bounds", "bounds.compute"),
    ("sizing", "distribute_constraint", "sizing.distribute"),
    ("sizing", "sweep", "sizing.sweep"),
    ("buffering", "flimit", "buffering.flimit"),
    ("buffering", "min_delay_with_buffers", "buffering.greedy"),
    ("restructure", "rank_gate_efficiency", "restructure.rank"),
    ("restructure", "demorgan_rewrite", "restructure.rewrite"),
    ("restructure", "local_equivalence_check", "restructure.equiv"),
    ("restructure", "cancel_inverter_pairs", "restructure.cancel"),
    ("protocol", "optimize", "protocol.optimize"),
)

# PathModel method -> span name
METHODS = (
    ("__init__", "path.model"),
    ("evaluate", "path.evaluate"),
    ("coefficients", "path.coefficients"),
    ("model_gradient", "path.model_gradient"),
    ("model_curvature", "path.model_curvature"),
)

# Spans whose descendants are counted per scope, for ratios like
# solves per distribute_constraint call.
SCOPES = ("bounds.link_fixed_point", "sizing.distribute", "buffering.greedy")


class Tracer:
    """Span recorder and aggregator for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in open order.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_id = -1
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.in_scope: Counter = Counter()   # (name, scope) -> calls
        self.values: Counter = Counter()     # counts read from results
        self.flimit_args: set = set()
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        stack = self._stack
        child_s = self._child_s
        open_count = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            for scope in SCOPES:
                if open_count[scope]:
                    self.in_scope[(name, scope)] += 1
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_end.append(0.0)
            stack.append(idx)
            child_s.append(0.0)
            open_count[name] += 1
            start = clock()
            self.span_start.append(start)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                inner = child_s.pop()
                open_count[name] -= 1
                self.span_end[idx] = end
                dur = end - start
                if child_s:
                    child_s[-1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - inner
                if after is not None:
                    after(self, args, result, error)

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every import site of the traced names under ``package``."""
        prefix = package.__name__
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == prefix
                                         or key.startswith(prefix + "."))]
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[f"{prefix}.{mod_name}"], attr)
            wrapper = self._wrap(span, original, AFTER.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        model_cls = sys.modules[f"{prefix}.path"].PathModel
        for attr, span in METHODS:
            original = model_cls.__dict__[attr]
            self._patches.append((model_cls, attr, original))
            setattr(model_cls, attr,
                    self._wrap(span, original, AFTER.get(span)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, file_name) -> None:
        """Spans as gzipped text: a JSON header naming the span kinds, then
        one line per span: name index, start, end, parent line, op id."""
        with gzip.open(file_name, "wt", encoding="utf-8",
                       compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "start_s", "end_s",
                                             "parent", "op"]}) + "\n")
            fh.writelines(
                f"{n} {s!r} {e!r} {p} {o}\n" for n, s, e, p, o in zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_op))

    def layer_self_s(self) -> Counter:
        """Self time per layer, the layer being the span name's module."""
        out: Counter = Counter()
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out


def _after_fixed_point(tracer, args, result, error):
    if error is None:
        tracer.values["bounds.iterations"] += result[2]


def _after_evaluate(tracer, args, result, error):
    tracer.values["path.evaluate.gates"] += args[0].n


def _after_sweep(tracer, args, result, error):
    if error is None:
        tracer.values["sizing.sweep.rows"] += len(result[0])


def _after_flimit(tracer, args, result, error):
    tracer.flimit_args.add((args[0], args[1]))


def _after_greedy(tracer, args, result, error):
    if error is None:
        tracer.values["buffering.greedy.accepted"] += len(result.insertions)


def _after_optimize(tracer, args, result, error):
    if error is not None:
        # Only the infeasible route raises InfeasibleError.
        if type(error).__name__ == "InfeasibleError":
            tracer.values["protocol.domain.infeasible"] += 1
        return
    tracer.values["protocol.domain." + result.domain.kind.value] += 1
    for step in result.trace:
        if step.kind == "route":
            tracer.values["protocol.route." + step.data["chosen"]] += 1


AFTER = {
    "bounds.link_fixed_point": _after_fixed_point,
    "path.evaluate": _after_evaluate,
    "sizing.sweep": _after_sweep,
    "buffering.flimit": _after_flimit,
    "buffering.greedy": _after_greedy,
    "protocol.optimize": _after_optimize,
}
