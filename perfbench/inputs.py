"""Seeded benchmark inputs, made without any program code.

Datasets are forward-sampled from the frozen ``alarm.json`` network by the
sampler below, and the ``serve-stream`` request streams are drawn here too,
so a change to the program's generators cannot change what is measured.
Every draw comes from ``np.random.default_rng([seed, workload, index])``:
the same ``--seed`` gives the same inputs.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent

#: Stable per-workload stream ids mixed into every seed.
WORKLOAD_IDS = {"learn-cold": 1, "relearn-warm": 2, "learn-parallel": 3, "serve-stream": 4}

# -- serve-stream make-up ---------------------------------------------------
N_TENANTS = 4
TENANT_SAMPLES = 500
#: Zipf popularity of the tenants, weight 1 / (rank + 1) ** ZIPF_S.
ZIPF_S = 1.1
SERVE_ALPHAS = (0.05, 0.01)
SERVE_MAX_DEPTH = 1
N_BLANKET_TARGETS = 4
BLANKET_MAX_CONDITIONING = 2


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload], int(index)])


class Network:
    """A discrete Bayesian network read from the benchmark's JSON file."""

    def __init__(self, path: pathlib.Path = HERE / "alarm.json") -> None:
        doc = json.loads(path.read_text())
        nodes = doc["nodes"]
        self.name = doc["name"]
        self.names = [n["name"] for n in nodes]
        self.arities = np.array([n["arity"] for n in nodes], dtype=np.int64)
        self.parents = [tuple(n["parents"]) for n in nodes]
        self._cdfs = [np.cumsum(np.asarray(n["cpt"], dtype=np.float64), axis=1) for n in nodes]
        self.order = self._topological_order()

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    def _topological_order(self) -> list[int]:
        indegree = [len(p) for p in self.parents]
        children: list[list[int]] = [[] for _ in self.parents]
        for child, parents in enumerate(self.parents):
            for p in parents:
                children[p].append(child)
        ready = [v for v, d in enumerate(indegree) if d == 0]
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for c in children[v]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
        if len(order) != self.n_nodes:
            raise ValueError("network has a directed cycle")
        return order

    def sample(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """``(n_samples, n_nodes)`` uint8 rows by ancestral inverse-CDF sampling."""
        cols = np.empty((self.n_nodes, n_samples), dtype=np.uint8)
        for v in self.order:
            cfg = np.zeros(n_samples, dtype=np.int64)
            for p in self.parents[v]:
                cfg *= int(self.arities[p])
                cfg += cols[p]
            cdf = self._cdfs[v][cfg]
            u = rng.random(n_samples)
            cols[v] = (u[:, None] >= cdf[:, :-1]).sum(axis=1)
        return np.ascontiguousarray(cols.T)


def learn_dataset(net: Network, seed: int, workload: str, index: int, n_samples: int) -> np.ndarray:
    """Rows of the ``index``-th dataset of a learn workload."""
    return net.sample(n_samples, rng_for(seed, workload, index))


def write_codes_csv(path: pathlib.Path, names, rows: np.ndarray) -> None:
    """Header of variable names, then one row of integer codes per sample."""
    lines = [",".join(names)]
    lines.extend(",".join(map(str, row)) for row in rows.tolist())
    path.write_text("\n".join(lines) + "\n")


class ServeInputs:
    """Tenant datasets and the two clients' request streams of ``serve-stream``.

    Each tenant has a fixed menu of requests — a learn at each of
    ``SERVE_ALPHAS`` and a Markov-blanket query for each of its targets.
    Every request picks a tenant by zipf weight and then a menu item
    uniformly, so after the first few dozen requests almost every request
    is an exact repeat.
    """

    def __init__(self, net: Network, seed: int) -> None:
        self.tenants = [f"t{k}" for k in range(N_TENANTS)]
        self.rows = [
            net.sample(TENANT_SAMPLES, rng_for(seed, "serve-stream", k)) for k in range(N_TENANTS)
        ]
        menu_rng = rng_for(seed, "serve-stream", 100)
        self.menus: list[list[dict]] = []
        for tenant in self.tenants:
            menu = [
                {"op": "learn", "dataset": tenant, "alpha": a, "max_depth": SERVE_MAX_DEPTH}
                for a in SERVE_ALPHAS
            ]
            targets = menu_rng.choice(net.n_nodes, size=N_BLANKET_TARGETS, replace=False)
            menu.extend(
                {
                    "op": "blanket",
                    "dataset": tenant,
                    "target": int(t),
                    "max_conditioning": BLANKET_MAX_CONDITIONING,
                }
                for t in sorted(targets)
            )
            self.menus.append(menu)
        w = 1.0 / (np.arange(N_TENANTS) + 1.0) ** ZIPF_S
        self.weights = w / w.sum()
        self._client_rngs = [rng_for(seed, "serve-stream", 200 + c) for c in range(2)]

    def next_request(self, client: int) -> dict:
        rng = self._client_rngs[client]
        tenant = int(rng.choice(N_TENANTS, p=self.weights))
        menu = self.menus[tenant]
        return dict(menu[int(rng.integers(len(menu)))])


def request_key(req: dict) -> str:
    """Identity of a request for exactly-once accounting."""
    return json.dumps(req, sort_keys=True)
