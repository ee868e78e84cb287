"""The ``serve-stream`` workload.

Served path: ``python -m repro serve --processes 2 --threads 2`` on a Unix
socket with a fresh ``--store`` file, four tenants registered from CSV
files this benchmark wrote.  Two lockstep clients: every round each client
sends its next request, then both responses are read (each timed from its
own send to its own arrival).  The reference path is an in-process
``EngineServer`` fed the same two requests one at a time on this thread,
after the served half of the round.  An untimed warm-up sends each of the
24 distinct requests once, so the timed rounds are all exact repeats.

The server processes are not wrapped: their layer numbers come from each
response's ``elapsed_s``, the merged ``--manifest`` written at the SIGTERM
drain and the store shard files left after it.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import sqlite3
import subprocess
import sys
import time

from common import SETUP_REPEATS, log, median, percentile, tree_hwm_mb
from inputs import Network, ServeInputs, request_key, write_codes_csv

PROCESSES = 2
THREADS = 2
N_CLIENTS = 2
READY_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 60.0
#: Response fields a client consumes; timing and cache provenance differ.
PAYLOAD_KEYS = ("op", "dataset", "fingerprint", "result", "error")


def payload(resp: dict) -> str:
    return json.dumps({k: resp.get(k) for k in PAYLOAD_KEYS}, sort_keys=True)


class Server:
    """One ``serve --processes`` plane launched as a child process."""

    def __init__(self, workdir, tag: str, csvs: dict[str, str]) -> None:
        # ``workdir`` is relative to the checkout root, which keeps the
        # Unix socket path short.
        self.sock_path = f"{workdir}/{tag}.sock"
        self.store = f"{workdir}/{tag}.sqlite"
        self.manifest = f"{workdir}/{tag}-manifest.json"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--listen", f"unix:{self.sock_path}",
            "--processes", str(PROCESSES),
            "--threads", str(THREADS),
            "--store", self.store,
            "--manifest", self.manifest,
        ]
        for tenant, path in csvs.items():
            cmd += ["--register", f"{tenant}=csv:{path}"]
        self.t_launch = time.perf_counter()
        # Everything the server prints goes to stderr: stdout is results only.
        self.proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)

    def wait_ready(self) -> float:
        """Seconds from launch until the server answers its first request."""
        deadline = self.t_launch + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} during set-up")
            try:
                client = Client(self.sock_path)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server did not start listening") from None
                time.sleep(0.005)
        with client:
            client.send({"op": "stats"})
            resp = client.recv()
        elapsed = time.perf_counter() - self.t_launch
        if resp.get("error") is not None:
            raise RuntimeError(f"server set-up request failed: {resp['error']}")
        return elapsed

    def stop(self) -> None:
        """SIGTERM drain (writes the merged manifest), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def shard_files(self) -> list[str]:
        return [f"{self.store}.w{k}" for k in range(PROCESSES)]


class Client:
    """Minimal JSONL client on a Unix socket (no program code)."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.settimeout(IO_TIMEOUT_S)
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = bytearray()
        self.t_sent = 0.0

    def send(self, req: dict) -> None:
        self.t_sent = time.perf_counter()
        self.sock.sendall(json.dumps(req).encode() + b"\n")

    def feed(self) -> bool:
        """Read what is there; True once a whole line is buffered."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        return b"\n" in self.buf

    def take(self) -> dict:
        line, _, rest = bytes(self.buf).partition(b"\n")
        self.buf = bytearray(rest)
        return json.loads(line)

    def recv(self) -> dict:
        while b"\n" not in self.buf:
            self.feed()
        return self.take()

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def exchange(clients: list[Client], reqs: list[dict]) -> list[tuple[dict, float]]:
    """Send one request per client, then collect each response on arrival."""
    for c, req in zip(clients, reqs, strict=True):
        c.send(req)
    out: list[tuple[dict, float] | None] = [None] * len(clients)
    with selectors.DefaultSelector() as sel:
        for k, c in enumerate(clients):
            sel.register(c.sock, selectors.EVENT_READ, k)
        while sel.get_map():
            events = sel.select(timeout=IO_TIMEOUT_S)
            if not events:
                raise TimeoutError("no response from the server")
            for key, _ in events:
                k = key.data
                if clients[k].feed():
                    t = time.perf_counter()
                    out[k] = (clients[k].take(), t - clients[k].t_sent)
                    sel.unregister(key.fileobj)
    return out


def store_rows(files: list[str]) -> tuple[int, int, float]:
    """(journal rows, result rows, MB on disk) over the drained store shards."""
    journal = results = 0
    size = 0
    for path in files:
        for suffix in ("", "-wal"):
            if os.path.exists(path + suffix):
                size += os.path.getsize(path + suffix)
        if not os.path.exists(path):
            continue
        con = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            journal += con.execute("SELECT COUNT(*) FROM journal").fetchone()[0]
            results += con.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        finally:
            con.close()
    return journal, results, size / (1024.0 * 1024.0)


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    net = Network()
    inputs = ServeInputs(net, seed)
    csvs = {}
    for tenant, rows in zip(inputs.tenants, inputs.rows, strict=True):
        path = workdir / f"{tenant}.csv"
        write_codes_csv(path, net.names, rows)
        csvs[tenant] = str(path)

    # First import of the program, the serve CLI included: one-off work
    # (byte-compiling, the native kernel build) kept outside set-up and
    # the timed rounds.
    import repro.cli  # noqa: F401
    import repro.engine.procserve  # noqa: F401
    from repro.engine.server import EngineServer

    rec = None
    setup_samples = []
    if not trace:
        for k in range(SETUP_REPEATS - 1):
            probe = Server(workdir, f"probe{k}", csvs)
            try:
                setup_samples.append(probe.wait_ready())
            finally:
                probe.stop()
    else:
        from tracing import SpanRecorder

        rec = SpanRecorder()
        rec.install()
        from repro.datasets.io import read_codes_csv

        rec.op = "setup"
        for path in csvs.values():
            read_codes_csv(path)
        rec.op = "idle"

    reference = EngineServer()
    for tenant, path in csvs.items():
        reference.register(tenant, f"csv:{path}")
    server = Server(workdir, "serve", csvs)
    sent: list[dict] = []
    warm: list[dict] = []
    rounds: list[dict] = []
    # Traced runs: summed stats-cache counters after each computed request.
    cache_ops: list[dict] = []
    errors: list[str] = []
    peak_mb = 0.0

    def one_round(clients, reqs: list[dict], label: str) -> dict:
        t0 = time.perf_counter()
        got = exchange(clients, reqs)
        wall = time.perf_counter() - t0
        sent.extend(reqs)
        ref = []
        for c, req in enumerate(reqs):
            if rec is not None:
                rec.op = f"{label}.{c}:ref"
            t = time.perf_counter()
            resp = reference.handle(dict(req))
            ref.append((resp, time.perf_counter() - t))
            if rec is not None and not resp["cached"]:
                cache_ops.append(_cache_totals(reference))
        if rec is not None:
            rec.op = "idle"
        return {"reqs": reqs, "served": got, "ref": ref, "wall": wall}

    try:
        setup_samples.append(server.wait_ready())
        clients = [Client(server.sock_path) for _ in range(N_CLIENTS)]
        try:
            # Untimed warm-up: every distinct request once, so the timed
            # rounds measure the repeat traffic and not the 24 computes.
            menu = [req for m in inputs.menus for req in m]
            for k in range(0, len(menu), N_CLIENTS):
                warm.append(one_round(clients, menu[k : k + N_CLIENTS], f"w{k}"))
            t_start = time.perf_counter()
            while not rounds or time.perf_counter() - t_start < seconds:
                reqs = [inputs.next_request(c) for c in range(N_CLIENTS)]
                rounds.append(one_round(clients, reqs, str(len(rounds))))
        finally:
            for c in clients:
                c.close()
        peak_mb = tree_hwm_mb(server.proc.pid)
    finally:
        server.stop()
        reference.close()
        if rec is not None:
            rec.uninstall()

    try:
        with open(server.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        manifest = None
        errors.append(f"merged manifest unreadable: {exc}")
    failed = 0
    for r in warm + rounds:
        for (resp, _), (ref_resp, _), req in zip(r["served"], r["ref"], r["reqs"], strict=True):
            if resp.get("error") is not None or payload(resp) != payload(ref_resp):
                failed += 1
                log(f"serve-stream: request {req} failed: served {payload(resp)[:200]}")
    distinct = len({request_key(req) for req in sent})
    if manifest is not None:
        totals = manifest["totals"]
        if totals["n_requests"] != len(sent):
            errors.append(f"manifest n_requests {totals['n_requests']} != {len(sent)} sent")
        if totals["n_computed"] != distinct:
            errors.append(f"manifest n_computed {totals['n_computed']} != {distinct} distinct")
        if totals["n_errors"] != 0:
            errors.append(f"manifest n_errors {totals['n_errors']}")
    for e in errors:
        log(f"serve-stream: {e}")
    return {
        "rounds": rounds,
        "failed": failed,
        "correct": not errors,
        "attempted": len(sent),
        "setup_samples": setup_samples,
        "peak_mb": peak_mb,
        "manifest": manifest,
        "store": store_rows(server.shard_files()),
        "recorder": rec,
        "cache_ops": cache_ops,
    }


def _cache_totals(server) -> dict:
    """Stats-cache counters summed over the reference server's sessions."""
    out = {"hits": 0, "misses": 0, "evictions": 0, "marginal_builds": 0, "bytes": 0}
    for sess in server.stats()["per_session"].values():
        cache = sess["stats_cache"]
        for key in ("hits", "misses", "evictions", "marginal_builds"):
            out[key] += cache[key]
        out["bytes"] += cache["current_bytes"]
    return out


def end_to_end(raw: dict) -> dict:
    served = [t for r in raw["rounds"] for _, t in r["served"]]
    ref = [t for r in raw["rounds"] for _, t in r["ref"]]
    wall = sum(r["wall"] for r in raw["rounds"])
    log(
        "serve-stream: set-up samples (s) "
        + ", ".join(f"{s:.3f}" for s in raw["setup_samples"])
    )
    return {
        "setup_s": median(raw["setup_samples"]),
        "op_p50_ms": median(served) * 1e3,
        "ops_per_s": len(served) / wall if wall else 0.0,
        "ref_p50_ms": median(ref) * 1e3,
        "peak_rss_mb": raw["peak_mb"],
    }


def per_layer(raw: dict) -> dict:
    rec = raw["recorder"]
    served = [(resp, t) for r in raw["rounds"] for resp, t in r["served"]]
    ref_t = [t for r in raw["rounds"] for _, t in r["ref"]]
    service = [resp["elapsed_s"] * 1e3 for resp, _ in served]
    rtt = [t * 1e3 for _, t in served]
    overhead = [a - b for a, b in zip(rtt, service, strict=True)]
    self_ms = rec.self_ms_by_op()

    def layer(name: str) -> list[float]:
        vals = [per.get(name, 0.0) for op, per in self_ms.items() if op.endswith(":ref")]
        return [v for v in vals if v > 0]

    deltas = []
    last = dict.fromkeys(("hits", "misses", "evictions", "marginal_builds"), 0)
    for snap in raw["cache_ops"]:
        d = {k: snap[k] - last[k] for k in last}
        d["bytes"] = snap["bytes"]
        last = {k: snap[k] for k in last}
        if d["hits"] + d["misses"]:
            deltas.append(d)
    totals = raw["manifest"]["totals"] if raw["manifest"] else {}
    journal, results, file_mb = raw["store"]
    return {
        "citests.kernel_ms": median(layer("citests")),
        "statscache.hits": median(d["hits"] for d in deltas),
        "statscache.misses": median(d["misses"] for d in deltas),
        "statscache.evictions": median(d["evictions"] for d in deltas),
        "statscache.marginal_builds": median(d["marginal_builds"] for d in deltas),
        "statscache.hit_ratio": median(d["hits"] / (d["hits"] + d["misses"]) for d in deltas),
        "statscache.lookup_ms": median(layer("statscache")),
        "statscache.bytes": median(d["bytes"] for d in deltas),
        "core.skeleton_ms": median(layer("core.skeleton")),
        "core.orient_ms": median(layer("core.orient")),
        "session.vs_ref": median(a / b for a, b in zip([t for _, t in served], ref_t, strict=True)),
        "server.service_ms_p50": median(service),
        "server.service_ms_p99": percentile(service, 99),
        "server.computed": totals.get("n_computed", 0),
        "server.result_hits": totals.get("n_result_cache_hits", 0),
        "transport.overhead_ms_p50": median(overhead),
        "transport.overhead_ms_p99": percentile(overhead, 99),
        "serve.rtt_ms_p99": percentile(rtt, 99),
        "store.journal_rows": journal,
        "store.result_rows": results,
        "store.file_mb": file_mb,
        "datasets.load_ms": self_ms.get("setup", {}).get("datasets.load", 0.0),
        "trace.op_p50_ms": median(rtt),
    }
