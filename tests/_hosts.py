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
