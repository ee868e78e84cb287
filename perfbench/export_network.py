"""Write the benchmark's frozen copy of the ``alarm`` catalog network.

The benchmark samples its inputs from ``perfbench/alarm.json`` with its own
forward sampler, so a later change to the program's network generator or
sampler cannot change the workload.  This script produced that file; run it
again only to re-freeze the network on purpose (it changes every input)::

    PYTHONPATH=src python3 perfbench/export_network.py
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.networks.catalog import get_network

    net = get_network("alarm")
    nodes = []
    for i in range(net.n_nodes):
        cpt = net.cpt(i)
        nodes.append(
            {
                "name": net.names[i],
                "arity": int(net.arities[i]),
                "parents": [int(p) for p in cpt.parents],
                # Rows follow the mixed-radix parent configuration, first
                # parent most significant; floats are written with repr
                # precision so the table round-trips exactly.
                "cpt": [[float(p) for p in row] for row in cpt.table],
            }
        )
    doc = {"name": "alarm", "n_nodes": net.n_nodes, "n_edges": net.n_edges, "nodes": nodes}
    (HERE / "alarm.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
