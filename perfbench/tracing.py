"""Span tracing of pinnrul from outside the package.

``Tracer.install`` replaces public functions of ``data``, ``graph``,
``net``, ``model``, ``optim``, ``modelfile`` and ``cli`` with wrappers
that record one span per call (name, parent, start, end). Each function
is wrapped where its caller looks it up: a module-level function in the
namespace of the module that calls it (``pinnrul.optim.nadam_step`` for
``train``, ``pinnrul.cli.load_model`` for the CLI), a method on its
class. Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous on one thread, so children never overlap
and the self times of all spans under a root add up to the root's
duration.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

import numpy as np

import pinnrul.cli
import pinnrul.data
import pinnrul.graph
import pinnrul.model
import pinnrul.net
import pinnrul.optim

LAYERS = ("data", "graph", "net", "model", "optim", "modelfile", "cli", "bench")


def _nodes_evaluated(args, result):
    return len(args[0].nodes)


def _bytes_loaded(args, result):
    return os.path.getsize(args[0])


def _bytes_saved(args, result):
    return os.path.getsize(args[1])


# (span name, owner looked up by the caller, attribute, optional per-call count)
TARGETS = (
    ("data.synth_generate", pinnrul.data, "synth_generate", None),
    ("data.select_features", pinnrul.data, "select_features", None),
    ("data.augment", pinnrul.data, "augment", None),
    ("data.fit_norm", pinnrul.data, "fit_norm", None),
    ("data.take", pinnrul.data.AugmentedSamples, "take", None),
    ("graph.new", pinnrul.graph.Graph, "__init__", None),
    ("graph.build", pinnrul.graph.Graph, "build", None),
    ("graph.eval", pinnrul.graph.Graph, "eval", _nodes_evaluated),
    ("graph.grad", pinnrul.graph.Graph, "grad", None),
    ("net.bind", pinnrul.net.GraphMlp, "__init__", None),
    ("net.forward", pinnrul.net.GraphMlp, "forward", None),
    ("net.forward_tangents", pinnrul.net.GraphMlp, "forward_tangents", None),
    ("model.init_model", pinnrul.cli, "init_model", None),
    ("model.init_model", pinnrul.optim, "init_model", None),
    ("model.cost", pinnrul.model.PinnModel, "cost", None),
    ("model.mean_cost", pinnrul.model.PinnModel, "mean_cost", None),
    ("model.cost_values", pinnrul.model.PinnModel, "cost_values", None),
    ("model.latent_map", pinnrul.model.PinnModel, "latent_map", None),
    ("model.sweep", pinnrul.model.PinnModel, "sweep", None),
    ("optim.train", pinnrul.cli, "train", None),
    ("optim.split_indices", pinnrul.optim, "split_indices", None),
    ("optim.nadam_step", pinnrul.optim, "nadam_step", None),
    ("modelfile.load_model", pinnrul.cli, "load_model", _bytes_loaded),
    ("modelfile.save_model", pinnrul.cli, "save_model", _bytes_saved),
    ("cli.main", pinnrul.cli, "main", None),
    ("cli.build_training_data", pinnrul.cli, "build_training_data", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, parent span index or -1, start, end), filled at exit
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``bench.*`` names are the harness's own time."""
        name_id = self._name_id(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name_id, parent, start, end)
            if count is not None:
                counts[name] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr, count in TARGETS:
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def op_counts(self, first_span: int) -> tuple:
        """Calls per span name among spans opened since index ``first_span``, as a sortable key."""
        calls = Counter(self.names[s[0]] for s in self.spans[first_span:])
        return tuple(sorted(calls.items()))

    def summary(self) -> dict:
        """Per span name: calls, busy seconds (summed durations) and self seconds."""
        table = np.asarray(self.spans, dtype=np.float64).reshape(-1, 4)
        name_id = table[:, 0].astype(np.int64)
        parent = table[:, 1].astype(np.int64)
        dur = table[:, 3] - table[:, 2]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        return {
            name: {
                "calls": int(calls),
                "busy_s": float(busy),
                "self_s": float(own),
            }
            for name, calls, busy, own in zip(
                self.names,
                np.bincount(name_id, minlength=k),
                np.bincount(name_id, weights=dur, minlength=k),
                np.bincount(name_id, weights=self_time, minlength=k),
            )
        }

    def write(self, path) -> None:
        origin = min(s[2] for s in self.spans)
        rows = [[n, p, round((a - origin) * 1e9), round((b - origin) * 1e9)] for n, p, a, b in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": self.names, "columns": ["name", "parent", "start_ns", "end_ns"], "spans": rows}, fh)
