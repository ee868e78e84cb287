"""One set-up of a learn workload, timed from outside by ``common.probe_setup``.

Imports the program and loads the workload's inputs into it: the first
dataset, or for ``relearn-warm`` each of its datasets, with one session
per dataset primed by its one learn; then prints ``ready`` and exits.  Usage::

    python3 perfbench/setup_probe.py WORKLOAD INPUT.npz GS PRIME_ALPHA
"""

from __future__ import annotations

import sys


def main(workload: str, path: str, gs: str, prime_alpha: str) -> int:
    import numpy as np

    from repro.core.learn import learn_structure  # noqa: F401
    from repro.datasets.dataset import DiscreteDataset
    from repro.engine.session import LearningSession

    if workload == "learn-parallel":
        import repro.parallel  # noqa: F401
    with np.load(path) as inputs:
        datasets, arities = inputs["rows"], inputs["arities"]
    sessions = []
    for rows in datasets:
        dataset = DiscreteDataset.from_rows(rows, arities=arities)
        if workload == "relearn-warm":
            sessions.append(LearningSession(dataset))
            sessions[-1].learn(alpha=float(prime_alpha), gs=int(gs))
    print("ready", flush=True)
    for session in sessions:
        session.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
