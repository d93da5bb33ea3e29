"""Named test graphs, the graph-file writer and independent oracles for
cycle counts and cycle enumeration on graphs, kept out of the package."""
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
    if name == "K33":
        return MultiGraph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    if name == "prism":
        return prism(3)
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        return MultiGraph(10, outer + inner + spokes)
    raise InvalidConfigError(f"unknown named graph {name!r}")


def prism(k: int) -> MultiGraph:
    """The k-gonal prism C_k x K_2: two k-cycles joined by k rungs."""
    return MultiGraph(2 * k, [(i, (i + 1) % k) for i in range(k)]
                      + [(k + i, k + (i + 1) % k) for i in range(k)]
                      + [(i, k + i) for i in range(k)])


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


def primitive_cycles_by_dfs(x: MultiGraph, max_len: int) -> list[tuple[int, ...]]:
    """Canonical primitive closed NBT cycles, length <= max_len, sorted by
    (length, walk): every NBT path that starts at its least edge is grown,
    and the closed ones that pass `is_canonical_primitive` are kept."""
    k = 2 * x.m
    succ = [[f for f in range(k) if x.head[e] == x.tail[f] and f != e ^ 1]
            for e in range(k)]
    out = []

    def extend(path: list[int]) -> None:
        e = path[-1]
        if x.head[e] == x.tail[path[0]] and path[0] != e ^ 1:
            walk = tuple(path)
            if is_canonical_primitive(walk):
                out.append(walk)
        if len(path) < max_len:
            for f in succ[e]:
                if f >= path[0]:  # canonical rotation starts at the least edge
                    path.append(f)
                    extend(path)
                    path.pop()

    for e0 in range(k):
        extend([e0])
    out.sort(key=lambda w: (len(w), w))
    return out


def is_canonical_primitive(walk: tuple[int, ...]) -> bool:
    """Whether walk is a Lyndon word (strictly below each proper rotation: its
    own least rotation and no proper power), by Duval's O(n) scan (J.
    Algorithms 4, 1983): its first Lyndon factor, j - k long, is all of it."""
    n, k, j = len(walk), 0, 1
    while j < n and walk[k] <= walk[j]:
        k = k + 1 if walk[k] == walk[j] else 0
        j += 1
    return j == n and k == 0


def cycle_voltage(vg: VoltageGraph, walk: tuple[int, ...]) -> int:
    """The voltage sum of walk mod q_c, one oriented edge at a time."""
    return sum(map(vg.oriented_voltages.__getitem__, walk)) % vg.q_c
