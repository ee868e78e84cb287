"""Output self-check of the benchmark against ``BENCHMARK.json``.

Runs the command at its smallest size (``--seconds 1``, every workload,
untraced and traced) from the repository root and checks that

* stdout carries nothing but JSON result lines, one per workload plus the
  final summary line;
* every declared workload reports once, with whole ``attempted`` (at least
  1) and ``failed`` counts and every declared metric under exactly its
  declared name and unit;
* every end-to-end value is finite and above 0, and every per-layer value
  finite and not negative;
* the workloads left out of ``BENCHMARK.json`` still run by name, pass
  their checks and print their metric sets;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files the command exits non-zero without printing a result.

Run it with ``python3 perfbench/selfcheck.py`` or
``python3 -m pytest perfbench/selfcheck.py``.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 900


def _run(cwd: pathlib.Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--seed", "0", "--seconds", "1", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def _check_results(stdout: str, declared: list[dict], positive: bool) -> None:
    lines = stdout.splitlines()
    docs = [json.loads(line) for line in lines]  # stdout holds JSON lines only
    names = [w["name"] for w in SPEC["workloads"]]
    per_workload = docs[:-1]
    assert [d["workload"] for d in per_workload] == names, per_workload
    assert set(docs[-1]) == {"correct", "attempted", "failed", "metrics"}
    for doc in per_workload:
        assert set(doc) == {"workload", "correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True, doc
        assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1, doc
        assert isinstance(doc["failed"], int) and doc["failed"] == 0, doc
        assert list(doc["metrics"]) == [m["name"] for m in declared], doc["metrics"]
        for m in declared:
            got = doc["metrics"][m["name"]]
            assert got["unit"] == m["unit"], (doc["workload"], m, got)
            value = got["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), (m, got)
            assert value > 0 if positive else value >= 0, (doc["workload"], m["name"], value)


def test_spec_form() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for path in SPEC["paths"]:
        assert (ROOT / path).is_dir()


def test_end_to_end_output() -> None:
    proc = _run(ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    _check_results(proc.stdout, SPEC["end_to_end"], positive=True)


def test_per_layer_output() -> None:
    proc = _run(ROOT, "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    _check_results(proc.stdout, SPEC["per_layer"], positive=False)


def test_workloads_run_by_name() -> None:
    """The workloads left out of BENCHMARK.json still run and pass their checks."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from common import END_TO_END, EXTRA_PER_LAYER, PER_LAYER

    for name, extra in EXTRA_PER_LAYER.items():
        for trace, table in (("0", END_TO_END), ("1", {**PER_LAYER, **extra})):
            proc = _run(ROOT, "--workload", name, "--trace", trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.splitlines()
            assert len(lines) == 1, lines
            doc = json.loads(lines[0])
            assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1, doc
            assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
                k: unit for k, (unit, _better) in table.items()
            }


def test_refuses_without_the_program() -> None:
    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", SPEC["workloads"][0]["name"], "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            print(f"{name} ...", file=sys.stderr, flush=True)
            fn()
    print("selfcheck OK", file=sys.stderr)
