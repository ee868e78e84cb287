"""Correctness checks made apart from the program.

The G^2 statistic is recomputed here with NumPy from the raw sample rows,
with the degrees-of-freedom rule the program documents for its default
``dof_adjust="structural"``: ``(|X| - 1) (|Y| - 1) prod_z |Z|`` over the
declared arities.  The p-value is the chi-squared survival function
``gammaincc(dof / 2, G^2 / 2)``.  Nothing in ``repro.citests`` is used.

The program accepts independence when ``p > alpha``.  The recomputation
sums in another order, so a decision is only questioned when it is wrong
by more than ``REL_TOL`` of alpha.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc

REL_TOL = 1e-9


def g2_pvalue(cols: np.ndarray, arities: np.ndarray, x: int, y: int, s) -> float:
    """p-value of the G^2 test of ``x _||_ y | s`` over int64 columns ``cols``."""
    rx, ry = int(arities[x]), int(arities[y])
    nz = 1
    z = np.zeros(cols.shape[1], dtype=np.int64)
    for v in s:
        a = int(arities[v])
        z = z * a + cols[v]
        nz *= a
    if nz * rx * ry > 4 * cols.shape[1] * rx * ry:
        # Sparse conditioning space: only the observed slices matter for
        # the statistic; the structural count still sets the dof.
        z = np.unique(z, return_inverse=True)[1]
        n_slices = int(z.max()) + 1
    else:
        n_slices = nz
    cell = (z * rx + cols[x]) * ry + cols[y]
    counts = np.bincount(cell, minlength=n_slices * rx * ry).reshape(n_slices, rx, ry)
    counts = counts.astype(np.float64)
    n_xz = counts.sum(axis=2)
    n_yz = counts.sum(axis=1)
    n_z = n_xz.sum(axis=1)
    mask = counts > 0
    if not mask.any():
        return 1.0
    expected = n_xz[:, :, None] * n_yz[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = expected / n_z[:, None, None]
    g2 = 2.0 * float(np.sum(counts[mask] * np.log(counts[mask] / expected[mask])))
    dof = (rx - 1) * (ry - 1) * nz
    if dof <= 0:
        return 1.0
    return float(gammaincc(dof / 2.0, max(g2, 0.0) / 2.0))


def summarize(result) -> dict:
    """The parts of a ``LearnResult`` that two paths must agree on."""
    return {
        "skeleton": sorted((min(u, v), max(u, v)) for u, v in result.skeleton.edges()),
        "sepsets": sorted(result.sepsets.as_dict().items()),
        "directed": sorted(result.cpdag.directed_edges()),
        "undirected": sorted((min(u, v), max(u, v)) for u, v in result.cpdag.undirected_edges()),
    }


def check_learn(rows: np.ndarray, arities: np.ndarray, alpha: float, served, reference) -> list[str]:
    """Every problem found with one learn; an empty list means it passed."""
    problems: list[str] = []
    if served != reference:
        problems.append("served result differs from the reference result")
    cols = np.ascontiguousarray(rows.T, dtype=np.int64)
    n = cols.shape[0]
    kept = set(reference["skeleton"])
    sepsets = dict(reference["sepsets"])
    lo, hi = alpha * (1 - REL_TOL), alpha * (1 + REL_TOL)
    for x in range(n):
        for y in range(x + 1, n):
            if (x, y) in kept:
                if (x, y) in sepsets:
                    problems.append(f"kept edge {x}-{y} has a separating set")
                if g2_pvalue(cols, arities, x, y, ()) > hi:
                    problems.append(f"kept edge {x}-{y} is independent at depth 0")
            elif (x, y) not in sepsets:
                problems.append(f"removed edge {x}-{y} has no separating set")
            elif g2_pvalue(cols, arities, x, y, sepsets[(x, y)]) < lo:
                problems.append(f"removed edge {x}-{y} is dependent given {sepsets[(x, y)]}")
    cpdag_edges = set(reference["undirected"]) | {
        (min(u, v), max(u, v)) for u, v in reference["directed"]
    }
    if cpdag_edges != kept:
        problems.append("CPDAG adjacencies differ from the skeleton")
    undirected = set(reference["undirected"])
    for z in range(n):
        nbrs = sorted({b for a, b in kept if a == z} | {a for a, b in kept if b == z})
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                pair = (a, b)
                if pair in kept or pair not in sepsets or z in sepsets[pair]:
                    continue
                # A v-structure candidate: the v-structure step orients
                # both edges (or finds them already oriented), and later
                # rules never undo an orientation.
                for e in ((min(a, z), max(a, z)), (min(b, z), max(b, z))):
                    if e in undirected:
                        problems.append(f"v-structure {a}-{z}-{b} left edge {e} undirected")
    return problems


def collider_conflicts(reference) -> int:
    """Colliders ``x -> z <- y`` on unshielded triples with ``z`` in SepSet(x, y).

    Standard PC-stable can produce these on finite samples: two other
    v-structures into ``z`` place both arrows before the triple is read.
    They are counted, not failed, because whether they occur depends on
    the sampled data.
    """
    kept = set(reference["skeleton"])
    sepsets = dict(reference["sepsets"])
    parents: dict[int, list[int]] = {}
    for u, v in reference["directed"]:
        parents.setdefault(v, []).append(u)
    count = 0
    for z, ps in parents.items():
        for i, a in enumerate(ps):
            for b in ps[i + 1 :]:
                pair = (min(a, b), max(a, b))
                if pair not in kept and z in sepsets.get(pair, ()):
                    count += 1
    return count
