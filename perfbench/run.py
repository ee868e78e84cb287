"""Fast-BNS benchmark: end to end, per layer, and against the simplest path.

Usage, from the repository root::

    python3 perfbench/run.py --workload learn-cold --seed 1 --seconds 20 --trace 0

``--workload`` names one of ``learn-cold`` and ``relearn-warm``, or
``all`` (the default) to run both one after the other;
``learn-parallel`` and ``serve-stream`` run only when named.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` installs timing wrappers around the program's layers and
prints the per-layer metrics instead; its spans are written to
``.bench_build/trace-<workload>.jsonl``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
progress and everything the program prints go to standard error.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

#: The workloads ``--workload all`` runs (those in BENCHMARK.json).
WORKLOADS = ("learn-cold", "relearn-warm")
#: Runnable by name only: too unsteady on a shared 2-vCPU host to gate on
#: (README).  They are the only ones that reach the pool, server,
#: transport and store layers.
EXTRA_WORKLOADS = ("learn-parallel", "serve-stream")
WORK_ROOT = pathlib.Path(".bench_build")


def _environment() -> None:
    """Single-threaded numeric libraries, the program on the path, temp
    files (the native kernel build, the serve plane's sockets) in the
    checkout.  Child processes inherit all of it."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = str(pathlib.Path("src").resolve())
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    sys.path.insert(0, src)
    # The serve plane puts its internal Unix sockets here too, so
    # serve-stream needs a checkout path short enough for their 108-byte
    # limit (README).
    tmp = (WORK_ROOT / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from common import END_TO_END, EXTRA_PER_LAYER, PER_LAYER, cpu_jiffies, log, metrics_doc

    workdir = WORK_ROOT / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    log(f"{workload}: seed {seed}, {seconds:g} s, trace {int(trace)}")
    steal0, total0 = cpu_jiffies()
    try:
        if workload == "serve-stream":
            import servebench as mod

            raw = mod.run(seed, seconds, trace, workdir)
            attempted, correct = raw["attempted"], raw["correct"]
        else:
            import learnbench as mod

            raw = mod.run(workload, seed, seconds, trace, workdir)
            attempted, correct = len(raw["rounds"]), True
        if trace:
            table = {**PER_LAYER, **EXTRA_PER_LAYER.get(workload, {})}
            metrics = metrics_doc(mod.per_layer(raw), table)
            raw["recorder"].write(WORK_ROOT / f"trace-{workload}.jsonl")
        else:
            metrics = metrics_doc(mod.end_to_end(raw), END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal1, total1 = cpu_jiffies()
    # Time the hypervisor gave to other guests: the main source of run-to-run
    # spread on a shared VM (see README).
    log(f"{workload}: host steal {100.0 * (steal1 - steal0) / max(total1 - total0, 1):.1f} %")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS, *EXTRA_WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (pathlib.Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    _environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
