"""Span recorder for the traced benchmark run.

The recorder wraps every public function of the zok modules from the
outside: each wrapped name is replaced in every zok module namespace that
binds it, which is where callers look it up (`cli.run_slic`, for
instance, is `slic.run_slic` imported by name).  Spans (name, parent,
start, end) are kept in memory and written out once, at the end of the
run.  A span's self time is its duration minus the time its child spans
cover; calls run on one thread, so children never overlap.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("core_io", "slic", "zoomout", "learner", "weaksup", "crf", "metrics",
          "synth", "cli")

# Time spent in the counter hooks below is recorded under this name, so
# that it is charged to the tracer and not to the caller's self time.
HOOK_SPAN = "trace.counters"


class SpanRecorder:
    """Spans and counts of one unit of work; `patched` turns recording on."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if hook is not None:
                start = perf_counter()
                hook(counts, args, kwargs, result)
                spans.append([HOOK_SPAN, span[1], start, perf_counter()])
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, package, hooks):
        """Wrap the package's public functions for the duration of the block."""
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        undo = []
        try:
            for mod in modules:
                layer = mod.__name__.rsplit(".", 1)[1]
                for attr, fn in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    name = f"{layer}.{attr}"
                    wrapped = self.wrap(name, fn, hooks.get(name))
                    for holder in modules:
                        for key, value in list(vars(holder).items()):
                            if value is fn:
                                undo.append((holder, key, fn))
                                setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, fn in reversed(undo):
                setattr(holder, key, fn)

    def times(self):
        """(self time, inclusive time) per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own, incl = Counter(), Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            own[name] += end - start - child[i]
            incl[name] += end - start
        return own, incl

    def dump(self, fh, unit):
        """Append this recorder's spans as JSON lines tagged with `unit`."""
        for name, parent, start, end in self.spans:
            fh.write(json.dumps([unit, name, parent, start, end]) + "\n")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x):
    return 1 if np.ndim(x) == 1 else len(x)


def counter_hooks(zok):
    """Hooks that turn a wrapped call's arguments and result into counts.

    They call the original functions they need, captured here before any
    patching, so the hooks themselves leave no spans.
    """
    window_eval_count = zok.slic.window_eval_count
    getsize = os.path.getsize

    def run_slic(counts, args, kwargs, result):
        counts["slic.iterations"] += result.iterations_run
        counts["slic.superpixels"] += int(result.spmap.max()) + 1

    def assign_pixels(counts, args, kwargs, result):
        lab = _arg(args, kwargs, 0, "lab")
        counts["slic.window_evals"] += window_eval_count(
            _arg(args, kwargs, 1, "centers"), _arg(args, kwargs, 3, "s"), lab.shape[:2])

    def learner_rows(counts, args, kwargs, result):
        counts["learner.rows"] += _rows(_arg(args, kwargs, 1, "x"))

    def pair_evals(counts, args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        counts["crf.pair_evals"] += model.num_nodes ** 2 * len(model.kernels)

    def file_bytes(counts, args, kwargs, result):
        counts["core_io.bytes"] += getsize(_arg(args, kwargs, 1, "path"))

    def read_bytes(counts, args, kwargs, result):
        counts["core_io.bytes"] += getsize(_arg(args, kwargs, 0, "path"))

    hooks = {
        "slic.run_slic": run_slic,
        "slic.assign_pixels": assign_pixels,
        "learner.logits": learner_rows,
        "learner.backprop": learner_rows,
        "learner.forward": learner_rows,
        "crf.kernel_sum_matrix": pair_evals,
    }
    for kind in ("ppm", "pgm", "tensor"):
        hooks[f"core_io.read_{kind}"] = read_bytes
        hooks[f"core_io.write_{kind}"] = file_bytes
    return hooks
