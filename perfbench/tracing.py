"""Span recorder for the traced run (``--trace 1``).

Timing wrappers are installed around public functions of the program's
layers from here, never inside the program.  A span keeps its name, start
and end (monotonic ns), its parent span and the benchmark operation it
ran in.  Spans stay in memory and are written out once, when the run ends.
A layer's self time is its span's duration minus the time its child spans
cover, e.g. the CI kernel minus the stats-cache lookups made inside it.

Only the benchmark's main thread is recorded: every wrapped call of the
in-process paths runs there.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

#: layer -> (module, owner attribute or "" for the module, function names).
LAYERS = {
    "citests": [
        ("repro.citests.tablebase", "ContingencyTableTest", ("test", "test_group", "test_groups")),
    ],
    "statscache": [
        (
            "repro.engine.statscache",
            "CachedTableBuilder",
            ("lookup", "reserve", "ci_counts", "marginal_from_key", "encoded_z", "encoded_xy"),
        ),
        (
            "repro.engine.statscache",
            "SufficientStatsCache",
            ("find_dense_superset", "put_many", "fill_many"),
        ),
    ],
    "core.skeleton": [
        ("repro.core.learn", "", ("learn_skeleton",)),
        ("repro.engine.session", "", ("learn_skeleton",)),
    ],
    "core.orient": [
        ("repro.core.learn", "", ("orient_skeleton",)),
        ("repro.engine.session", "", ("orient_skeleton",)),
    ],
    "parallel.pool_start": [
        ("repro.parallel.backends", "WorkerPool", ("__init__", "warm_up")),
    ],
    "parallel.skeleton": [("repro.parallel", "", ("ci_level_skeleton",))],
    "datasets.load": [
        ("repro.datasets.dataset", "DiscreteDataset", ("from_rows",)),
        ("repro.datasets.io", "", ("read_codes_csv",)),
    ],
}


class SpanRecorder:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index, op index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()
        self.op = -1

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != rec._main:
                return fn(*args, **kwargs)
            idx = rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(idx)

        return wrapper

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, owner_name, attrs in targets:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                for attr in attrs:
                    raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, raw)
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------
    def self_ms_by_op(self) -> dict[int, dict[str, float]]:
        """``op -> layer -> self time (ms)`` over every recorded span."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[int, dict[str, float]] = {}
        for i, (name, t0, t1, _parent, op) in enumerate(self.spans):
            per = out.setdefault(op, {})
            per[name] = per.get(name, 0.0) + (t1 - t0 - child_ns[i]) / 1e6
        return out

    def total_ms_by_op(self) -> dict[int, dict[str, float]]:
        """``op -> layer -> inclusive time (ms)`` of outermost spans per layer."""
        out: dict[int, dict[str, float]] = {}
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                continue
            per = out.setdefault(op, {})
            per[name] = per.get(name, 0.0) + (t1 - t0) / 1e6
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
