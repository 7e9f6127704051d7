"""Seeded host families shared by the test modules."""

from __future__ import annotations

import random

from tuhyper.core import Hypergraph
from tuhyper.gen import GenConfig, Plant, generate


def noisy_tree_house(seed: int, lens: tuple[int, int, int], extra: int = 2,
                     noise: int = 4) -> Hypergraph:
    """A planted odd tree house whose three branches each get `extra` more
    vertices and up to `noise` more edges of two vertices.  Each branch
    stays bipartite and no noise edge joins two branches, so the host has
    no odd cycle, and the odd-cycle phase must prove that before the
    tree-house phase finds the house."""
    g, w = generate(GenConfig(seed=seed, n_vertices=1 + sum(lens),
                              plant=Plant("odd-tree-house", path_lengths=lens)))
    rnd = random.Random(seed)
    names = list(g.names)
    edges = [[names[v] for v in e] for e in g.edges]
    for b, path in enumerate(w.paths):
        side = {names[v]: t % 2 for t, v in enumerate(path)}
        for j in range(extra):
            names.append(f"x{b}_{j}")
            side[names[-1]] = rnd.randrange(2)
        across = [[a, c] for a in sorted(side) for c in sorted(side) if a < c and side[a] != side[c]]
        edges += sorted(rnd.sample(across, min(noise, len(across))))
    return Hypergraph.from_names(names, edges)


def ring_with_a_triple(n: int) -> Hypergraph:
    """C_n whose closing edge is widened by one extra vertex: still an odd
    cycle for odd n, but no graph host, so the backtracking decides it."""
    names = [f"v{i}" for i in range(n)] + ["x"]
    edges = [[names[i], names[i + 1]] for i in range(n - 1)] + [[names[-2], names[0], "x"]]
    return Hypergraph.from_names(names, edges)


def ring2(n: int) -> Hypergraph:
    """`ring_with_a_triple(n)` plus the edges {x, y} and {y, v5}: the triple
    then survives peeling.  For odd n the ring is still the only odd cycle;
    for even n the only odd cycles run through y and have length n - 3."""
    g = ring_with_a_triple(n)
    edges = [[g.names[v] for v in e] for e in g.edges] + [["x", "y"], ["y", "v5"]]
    return Hypergraph.from_names(list(g.names) + ["y"], edges)


def bipartite_with_c9(n_b: int = 18, n_pairs: int = 28, seed: int = 1) -> Hypergraph:
    """`n_pairs` random edges between the even and the odd vertices of
    b0, ..., b{n_b - 1}, joined by the edge {b0, c0} to a separate C9 on
    c0, ..., c8.  The b part is bipartite, so the C9 is the only odd cycle
    and the smallest Eulerian core, and the Eulerian walk passes every
    vertex set of up to nine of the vertices left by peeling before it (24
    with the defaults)."""
    rnd = random.Random(seed)
    across = [(a, b) for a in range(n_b) for b in range(a + 1, n_b) if (b - a) % 2]
    edges = [[f"b{a}", f"b{b}"] for a, b in sorted(rnd.sample(across, n_pairs))]
    edges += [[f"c{i}", f"c{(i + 1) % 9}"] for i in range(9)] + [["b0", "c0"]]
    return Hypergraph.from_names([f"b{i}" for i in range(n_b)] + [f"c{i}" for i in range(9)],
                                 edges)
