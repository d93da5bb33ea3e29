"""Named test graphs, the graph-file writer and independent oracles for
cycle counts on graphs, kept out of the package."""
import numpy as np

from partialzeta.errors import InvalidConfigError
from partialzeta.graphs import MultiGraph, VoltageGraph


def named_graph(name: str) -> MultiGraph:
    """K4, the 3-cube and the Petersen graph (all 3-regular test cases)."""
    if name == "K4":
        return MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    if name == "cube":
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                 (0, 4), (1, 5), (2, 6), (3, 7)]
        return MultiGraph(8, edges)
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        return MultiGraph(10, outer + inner + spokes)
    raise InvalidConfigError(f"unknown named graph {name!r}")


def dump_graph_file(vg: VoltageGraph) -> str:
    """The graph file `parse_graph_file` reads back as vg."""
    lines = [f"{vg.base.n} {vg.base.q_g} {vg.q_c}"]
    for (u, v), a in zip(vg.base.edges, vg.voltages):
        lines.append(f"{u} {v} {a}")
    return "\n".join(lines) + "\n"


def _mobius(n: int) -> int:
    mu, x, p = 1, n, 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            mu = -mu
        p += 1
    if x > 1:
        mu = -mu
    return mu


def count_cycles(x: MultiGraph, m_len: int) -> tuple[int, int]:
    """(N_m, primitive class count) for closed backtrackless tail-less cycles.

    N_m = tr(T^m); primitive classes (up to rotation, orientations distinct)
    by Moebius inversion.
    """
    if m_len < 1:
        raise InvalidConfigError("cycle length must be >= 1")
    t = x.edge_matrix().astype(object)
    power = np.linalg.matrix_power(t, m_len)
    n_m = int(np.trace(power))
    prim = 0
    for d in range(1, m_len + 1):
        if m_len % d == 0:
            td = np.linalg.matrix_power(t, m_len // d)
            prim += _mobius(d) * int(np.trace(td))
    assert prim % m_len == 0
    return n_m, prim // m_len


def is_canonical_primitive_by_rotations(walk: tuple) -> bool:
    """Whether walk is its own least rotation and no proper power, by
    building all len(walk) rotations."""
    n = len(walk)
    rotations = [walk[i:] + walk[:i] for i in range(n)]
    if walk != min(rotations):
        return False
    # primitive: not a proper power (no nontrivial rotation fixes it)
    return all(rot != walk for rot in rotations[1:])
