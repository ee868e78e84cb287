"""The three learn workloads: ``learn-cold``, ``relearn-warm``, ``learn-parallel``.

Every round takes one input through the served path and through the
reference path, ``learn_structure(n_jobs=1)`` with no stats cache, in
alternating order, so machine drift hits both paths alike.  One untimed
warm-up round runs first; it takes the first import's leftovers, kernel
arena growth and the first pool start out of the timed rounds.  Results
are checked once the timed rounds are over (see ``checks.py``).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from checks import check_learn, collider_conflicts, summarize
from common import (
    SETUP_REPEATS,
    TreeRssSampler,
    log,
    median,
    probe_setup,
    self_peak_mb,
)
from inputs import Network, learn_dataset

SAMPLES = {"learn-cold": 2000, "relearn-warm": 5000, "learn-parallel": 5000}
#: relearn-warm keeps this many primed sessions and takes rounds from them
#: in turn: the cost of one learn differs by up to 1.5x between sampled
#: datasets, and a run over one dataset would carry all of that.
RELEARN_DATASETS = 2
PRIME_ALPHA = 0.05
COLD_ALPHA = 0.05
N_JOBS = 2
#: Group size of every learn, on both paths.  The program's default of 1
#: makes the CI-level pool dispatch one test per job (see README).
GS = 8


def relearn_alpha(k: int) -> float:
    """A new alpha for every relearn; close together so costs match."""
    return 0.01 + 0.0001 * k


class LearnBench:
    def __init__(self, workload: str, seed: int, workdir, recorder=None) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rec = recorder
        self.net = Network()
        self.arities = self.net.arities
        self.n_samples = SAMPLES[workload]
        self._rows: dict[int, np.ndarray] = {}
        self.sessions = []

    # -- inputs -------------------------------------------------------------
    def rows(self, i: int) -> np.ndarray:
        """Dataset of round ``i``; ``relearn-warm`` cycles through its few."""
        if self.workload == "relearn-warm":
            i %= RELEARN_DATASETS
        if i not in self._rows:
            self._rows[i] = learn_dataset(self.net, self.seed, self.workload, i, self.n_samples)
        return self._rows[i]

    def alpha(self, i: int) -> float:
        return relearn_alpha(i) if self.workload == "relearn-warm" else COLD_ALPHA

    # -- set-up -------------------------------------------------------------
    def measure_setup(self) -> float:
        path = self.workdir / f"{self.workload}-input.npz"
        n_loaded = RELEARN_DATASETS if self.workload == "relearn-warm" else 1
        np.savez(path, rows=np.stack([self.rows(i) for i in range(n_loaded)]), arities=self.arities)
        args = [self.workload, str(path), str(GS), str(PRIME_ALPHA)]
        samples = [probe_setup(args) for _ in range(SETUP_REPEATS)]
        log(f"{self.workload}: set-up samples (s) {', '.join(f'{s:.3f}' for s in samples)}")
        return median(samples)

    def prepare(self) -> None:
        """Load the first input into the program; relearn-warm loads and
        primes one session per dataset."""
        from repro.datasets.dataset import DiscreteDataset
        from repro.engine.session import LearningSession

        self._mark("setup")
        if self.workload != "relearn-warm":
            DiscreteDataset.from_rows(self.rows(0), arities=self.arities)
            return
        for i in range(RELEARN_DATASETS):
            session = LearningSession(DiscreteDataset.from_rows(self.rows(i), arities=self.arities))
            self.sessions.append(session)
            session.learn(alpha=PRIME_ALPHA, gs=GS)

    def close(self) -> None:
        while self.sessions:
            self.sessions.pop().close()

    # -- the two paths ------------------------------------------------------
    def _mark(self, op: str) -> None:
        if self.rec is not None:
            self.rec.op = op

    def served(self, i: int):
        from repro.core.learn import learn_structure
        from repro.engine.session import LearningSession

        rows, alpha = self.rows(i), self.alpha(i)
        if self.workload == "learn-parallel":
            t0 = time.perf_counter()
            result = learn_structure(
                rows, arities=self.arities, alpha=alpha, gs=GS, n_jobs=N_JOBS
            )
            return time.perf_counter() - t0, result, None
        if self.workload == "learn-cold":
            t0 = time.perf_counter()
            session = LearningSession(rows, arities=self.arities)
            result = session.learn(alpha=alpha, gs=GS)
            elapsed = time.perf_counter() - t0
            cache = session.cache_stats()
            session.close()
            return elapsed, result, _cache_delta(None, cache)
        session = self.sessions[i % RELEARN_DATASETS]
        before = session.cache_stats()
        t0 = time.perf_counter()
        result = session.learn(alpha=alpha, gs=GS)
        elapsed = time.perf_counter() - t0
        return elapsed, result, _cache_delta(before, session.cache_stats())

    def reference(self, i: int):
        from repro.core.learn import learn_structure

        t0 = time.perf_counter()
        result = learn_structure(
            self.rows(i), arities=self.arities, alpha=self.alpha(i), gs=GS
        )
        return time.perf_counter() - t0, result, None

    # -- rounds -------------------------------------------------------------
    def round(self, i: int) -> dict:
        out: dict = {"i": i, "error": None}
        order = ("served", "ref") if i % 2 == 0 else ("ref", "served")
        try:
            for path in order:
                gc.collect()
                self._mark(f"{i}:{path}")
                fn = self.served if path == "served" else self.reference
                elapsed, result, cache = fn(i)
                out[path] = {
                    "s": elapsed,
                    "summary": summarize(result),
                    "n_tests": result.stats.n_tests,
                    "cells": result.stats.counters.table_cells if result.stats.counters else None,
                    "skeleton_s": result.elapsed["skeleton"],
                    "orient_s": result.elapsed["orientation"],
                    "cache": cache,
                }
        except Exception as exc:  # an operation that raises counts as failed
            out["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            self._mark("idle")
        return out

    def run_rounds(self, seconds: float) -> tuple[list[dict], float]:
        sampler = TreeRssSampler() if self.workload == "learn-parallel" else None
        if sampler is not None:
            sampler.__enter__()
        try:
            self.round(0)  # untimed warm-up round, not counted
            rounds = []
            t_start = time.perf_counter()
            i = 1
            while not rounds or time.perf_counter() - t_start < seconds:
                rounds.append(self.round(i))
                i += 1
        finally:
            if sampler is not None:
                sampler.__exit__()
        peak = max(self_peak_mb(), sampler.peak_mb if sampler is not None else 0.0)
        return rounds, peak

    # -- checks ---------------------------------------------------------------
    def check(self, rounds: list[dict]) -> tuple[int, list[int]]:
        """Number of failed rounds, and collider conflicts per good round."""
        failed = 0
        conflicts = []
        for r in rounds:
            problems = [r["error"]] if r["error"] else check_learn(
                self.rows(r["i"]),
                self.arities,
                self.alpha(r["i"]),
                r["served"]["summary"],
                r["ref"]["summary"],
            )
            if problems:
                failed += 1
                log(f"{self.workload}: round {r['i']} failed: {'; '.join(problems[:5])}")
            else:
                conflicts.append(collider_conflicts(r["ref"]["summary"]))
        return failed, conflicts


def _cache_delta(before, after) -> dict:
    fields = ("hits", "misses", "evictions", "marginal_builds")
    out = {f: getattr(after, f) - (getattr(before, f) if before is not None else 0) for f in fields}
    out["bytes"] = after.current_bytes
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, workdir) -> dict:
    """One run of a learn workload; returns the raw measurements."""
    # First import (and native-kernel build) of the program: one-off work
    # kept outside set-up and every timed region.
    import repro.core.learn  # noqa: F401
    import repro.engine.session  # noqa: F401
    import repro.parallel  # noqa: F401
    from tracing import SpanRecorder

    rec = SpanRecorder() if trace else None
    bench = LearnBench(workload, seed, workdir, rec)
    setup_s = None if trace else bench.measure_setup()
    if rec is not None:
        rec.install()
    try:
        bench.prepare()
        rounds, peak_mb = bench.run_rounds(seconds)
    finally:
        bench.close()
        if rec is not None:
            rec.uninstall()
    failed, conflicts = bench.check(rounds)
    return {
        "bench": bench,
        "rounds": rounds,
        "failed": failed,
        "conflicts": conflicts,
        "setup_s": setup_s,
        "peak_mb": peak_mb,
        "recorder": rec,
    }


def end_to_end(raw: dict) -> dict:
    good = [r for r in raw["rounds"] if not r["error"]]
    served = [r["served"]["s"] for r in good]
    ref = [r["ref"]["s"] for r in good]
    return {
        "setup_s": raw["setup_s"],
        "op_p50_ms": median(served) * 1e3,
        "ops_per_s": len(served) / sum(served) if served else 0.0,
        "ref_p50_ms": median(ref) * 1e3,
        "peak_rss_mb": raw["peak_mb"],
    }


def per_layer(raw: dict) -> dict:
    bench: LearnBench = raw["bench"]
    rec = raw["recorder"]
    good = [r for r in raw["rounds"] if not r["error"]]
    parallel = bench.workload == "learn-parallel"
    # The CI kernel runs in pool workers on learn-parallel, out of the
    # recorder's sight; there the in-process reference path shows it.
    kpath = "ref" if parallel else "served"
    self_ms = rec.self_ms_by_op()
    total_ms = rec.total_ms_by_op()

    def layer_ms(path: str, layer: str, table=self_ms) -> list[float]:
        vals = [table.get(f"{r['i']}:{path}", {}).get(layer, 0.0) for r in good]
        return [v for v in vals if v > 0]

    def field(path: str, name: str) -> list:
        return [r[path][name] for r in good if r[path][name] is not None]

    caches = [r["served"]["cache"] for r in good if r["served"]["cache"]]

    def cache_field(name: str) -> list:
        return [c[name] for c in caches]

    hit_ratios = [
        c["hits"] / (c["hits"] + c["misses"]) for c in caches if c["hits"] + c["misses"]
    ]
    tests_per_s = [
        r[kpath]["n_tests"] / r[kpath]["skeleton_s"] for r in good if r[kpath]["skeleton_s"] > 0
    ]
    served_s = [r["served"]["s"] for r in good]
    ratios = [r["served"]["s"] / r["ref"]["s"] for r in good]
    out = {
        "citests.tests": median(field(kpath, "n_tests")),
        "citests.cells": median(field(kpath, "cells")),
        "citests.kernel_ms": median(layer_ms(kpath, "citests")),
        "citests.tests_per_s": median(tests_per_s),
        "core.skeleton_ms": median(field("served", "skeleton_s")) * 1e3,
        "core.orient_ms": median(field("served", "orient_s")) * 1e3,
        "core.collider_conflicts": median(raw["conflicts"]),
        "statscache.hits": median(cache_field("hits")),
        "statscache.misses": median(cache_field("misses")),
        "statscache.evictions": median(cache_field("evictions")),
        "statscache.marginal_builds": median(cache_field("marginal_builds")),
        "statscache.hit_ratio": median(hit_ratios),
        "statscache.lookup_ms": median(layer_ms("served", "statscache")),
        "statscache.bytes": median(cache_field("bytes")),
        "session.vs_ref": median(ratios),
        "datasets.load_ms": self_ms.get("setup", {}).get("datasets.load", 0.0),
        "trace.op_p50_ms": median(served_s) * 1e3,
    }
    if parallel:
        out["parallel.pool_start_ms"] = median(layer_ms("served", "parallel.pool_start", total_ms))
        out["parallel.skeleton_ms"] = median(layer_ms("served", "parallel.skeleton", total_ms))
        out["parallel.speedup"] = median(1.0 / x for x in ratios)
    return out
