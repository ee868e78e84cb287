"""Shared helpers: statistics, memory probes, set-up probes, metric tables."""

from __future__ import annotations

import math
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent

#: name -> (unit, better); every workload prints all of these untraced.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "ref_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); every workload prints all of these traced.  A
#: layer that does no work on a workload reads 0 there.
PER_LAYER = {
    "citests.tests": ("count", "lower"),
    "citests.cells": ("count", "lower"),
    "citests.kernel_ms": ("ms", "lower"),
    "citests.tests_per_s": ("1/s", "higher"),
    "core.skeleton_ms": ("ms", "lower"),
    "core.orient_ms": ("ms", "lower"),
    "core.collider_conflicts": ("count", "lower"),
    "statscache.hits": ("count", "higher"),
    "statscache.misses": ("count", "lower"),
    "statscache.evictions": ("count", "lower"),
    "statscache.marginal_builds": ("count", "higher"),
    "statscache.hit_ratio": ("ratio", "higher"),
    "statscache.lookup_ms": ("ms", "lower"),
    "statscache.bytes": ("count", "lower"),
    "session.vs_ref": ("ratio", "lower"),
    "datasets.load_ms": ("ms", "lower"),
    "trace.op_p50_ms": ("ms", "lower"),
}

#: Layers only the workloads left out of BENCHMARK.json reach; their traced
#: runs print these as well.
EXTRA_PER_LAYER = {
    "learn-parallel": {
        "parallel.pool_start_ms": ("ms", "lower"),
        "parallel.skeleton_ms": ("ms", "lower"),
        "parallel.speedup": ("ratio", "higher"),
    },
    "serve-stream": {
        "server.service_ms_p50": ("ms", "lower"),
        "server.service_ms_p99": ("ms", "lower"),
        "server.computed": ("count", "lower"),
        "server.result_hits": ("count", "higher"),
        "transport.overhead_ms_p50": ("ms", "lower"),
        "transport.overhead_ms_p99": ("ms", "lower"),
        "serve.rtt_ms_p99": ("ms", "lower"),
        "store.journal_rows": ("count", "lower"),
        "store.result_rows": ("count", "lower"),
        "store.file_mb": ("MB", "lower"),
    },
}

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for no values."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return float(values[rank - 1])


def metrics_doc(values: dict[str, float], table: dict[str, tuple[str, str]]) -> dict:
    return {name: {"value": float(values.get(name, 0.0)), "unit": table[name][0]} for name in table}


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


# -- memory ---------------------------------------------------------------
def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (Linux ``/proc`` children lists)."""
    out: list[int] = []
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    kids = [int(c) for c in fh.read().split()]
            except OSError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def tree_hwm_mb(pid: int) -> float:
    """Summed peak resident memory of ``pid`` and its live descendants."""
    return sum(_status_kb(p, "VmHWM") for p in [pid, *descendants(pid)]) / 1024.0


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TreeRssSampler:
    """Largest summed resident memory of this process and its children.

    Pool workers live only inside one operation, so their peaks are
    sampled while they run; the sampler thread wakes every ``period_s``.
    """

    def __init__(self, period_s: float = 0.05) -> None:
        self.period_s = period_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.wait(self.period_s):
            kb = sum(_status_kb(p, "VmRSS") for p in [me, *descendants(me)])
            self.peak_mb = max(self.peak_mb, kb / 1024.0)

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


# -- set-up probes ----------------------------------------------------------
def probe_setup(args: list[str], timeout: float = 120.0) -> float:
    """Seconds from launching ``setup_probe.py args`` until it prints ``ready``."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe {args} failed (exit {proc.returncode})")
    return elapsed
