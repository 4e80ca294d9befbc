"""Spans around the library's public functions, recorded from outside.

`install` replaces each traced function by a wrapper in every toscaflow
module that bound it, and wraps `Flow.tick`, `Flow.audit` and
`CronExpr.matches` on their classes; `uninstall` puts the originals back.
The library source is not touched.  A span is
[name, start, end, parent index, job id, measured value]; spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _length(args, result):
    return len(args[0])


def _matched(args, result):
    return bool(result)


def _tick_state(args, result):
    flow = args[0]
    return [bool(result), sum(len(queue) for queue in flow.queues.values())]


# (module, function, span name, measure of (args, result))
FUNCTIONS = [
    ("toscaflow.csar", "unpack_csar", "csar.unpack", None),
    ("toscaflow.csar", "pack_csar", "csar.pack", None),
    ("toscaflow.parsing", "parse_service_template", "parsing.parse", _length),
    ("toscaflow.parsing", "serialize_template", "parsing.serialize", None),
    ("toscaflow.model", "resolve_type", "model.resolve_type", None),
    ("toscaflow.model", "evaluate_intrinsic", "model.evaluate_intrinsic", None),
    ("toscaflow.verifier", "verify", "verifier.verify", None),
    ("toscaflow.verifier", "check_requirements", "verifier.r1_r5", None),
    ("toscaflow.verifier", "check_locality", "verifier.r2_r3", None),
    ("toscaflow.verifier", "check_encryption", "verifier.r4", None),
    ("toscaflow.verifier", "check_scheduling", "verifier.r6", None),
    ("toscaflow.planner", "plan", "planner.plan", None),
    ("toscaflow.planner", "build_graph", "planner.build_graph", None),
    ("toscaflow.simulator", "instantiate", "simulator.instantiate", None),
    ("toscaflow.crypto", "encrypt_bytes", "crypto.cipher", _length),
    ("toscaflow.crypto", "decrypt_bytes", "crypto.cipher", _length),
]
# (module, class, method, span name, measure)
METHODS = [
    ("toscaflow.simulator", "Flow", "tick", "simulator.tick", _tick_state),
    ("toscaflow.simulator", "Flow", "audit", "simulator.audit", None),
    ("toscaflow.cron", "CronExpr", "matches", "cron.matches", _matched),
]
TRANSFORM = "simulator.transform"


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._restore = []

    def wrap(self, fn, name, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, result)
            return result

        return traced

    def wrap_functions(self, functions: dict):
        """Wrap a flow's function registry in place."""
        for key, fn in functions.items():
            functions[key] = self.wrap(fn, TRANSFORM, _length)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "toscaflow" or name.startswith("toscaflow.")]
        for module_name, attr, name, measure in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        for module_name, cls_name, attr, name, measure in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(original, name, measure))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def summarize(spans, job):
    """Per span name under job id `job`: calls, inclusive and self seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    (evaluate_intrinsic) and nesting (decrypt calling encrypt) are not
    counted twice; `values` holds the measures of those outermost spans.
    Self time is a span's duration minus the time its child spans cover.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    out = {}
    for i, (name, start, end, parent, span_job, value) in enumerate(spans):
        if span_job != job:
            continue
        entry = out.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0,
                                      "values": []})
        entry["calls"] += 1
        entry["self"] += end - start - children[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["incl"] += end - start
            if value is not None:
                entry["values"].append(value)
    return out
