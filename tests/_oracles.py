"""Independent brute-force oracles used to pin expected values in the tests.

Everything here is deliberately naive (cofactor expansion, exhaustive
enumeration) and shares no code with the library paths it checks.
"""

from __future__ import annotations

import itertools

import numpy as np


def det_cofactor(m) -> int:
    """Determinant by Laplace expansion along the first row, on a copy of m
    as lists of Python integers."""
    return _laplace([[int(x) for x in row] for row in m])


def _laplace(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j, x in enumerate(m[0]):
        if x:
            total += (-1) ** j * x * _laplace([row[:j] + row[j + 1 :] for row in m[1:]])
    return total


def delta_exhaustive(m) -> int:
    """Max |det| over every square submatrix, by cofactor expansion."""
    m = np.asarray(m)
    rows, cols = m.shape
    best = 0
    for k in range(1, min(rows, cols) + 1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                best = max(best, abs(det_cofactor(m[np.ix_(rs, cs)])))
    return best


def is_tu_cofactor(m) -> bool:
    return delta_exhaustive(m) <= 1


def ocp_exhaustive(edges: list[tuple[int, int]], n: int) -> int:
    """Max number of vertex-disjoint odd cycles, by free search over all
    simple cycles (not only chordless ones)."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def simple_cycles_within(avail: frozenset[int]):
        seen_sets = set()
        for start in sorted(avail):
            stack = [(start, [start])]
            while stack:
                v, path = stack.pop()
                for u in sorted(adj[v]):
                    if u not in avail:
                        continue
                    if u == start and len(path) >= 3 and len(path) % 2 == 1:
                        key = frozenset(path)
                        if key not in seen_sets:
                            seen_sets.add(key)
                            yield key
                    elif u not in path and u > start:
                        stack.append((u, path + [u]))

    def best(avail: frozenset[int]) -> int:
        top = 0
        for cyc in simple_cycles_within(avail):
            top = max(top, 1 + best(avail - cyc))
        return top

    return best(frozenset(range(n)))


def has_odd_cycle_exhaustive(g) -> bool:
    return shortest_odd_cycle_exhaustive(g) is not None


def shortest_odd_cycle_exhaustive(g) -> int | None:
    """Least length of an odd cycle as a partial subhypergraph, or None, by
    direct enumeration of vertex sequences and edge assignments.

    On a mixed host (one with `arcs`) a cycle may have two arcs, and it is
    odd when an odd number of its arcs hold their two cycle vertices on one
    side (both heads or both tails); on an unsigned host every edge counts."""
    n = g.n_vertices
    if hasattr(g, "arcs"):
        sides = [(set(heads), set(tails)) for heads, tails in g.arcs]
        lengths = range(2, n + 1)
    else:
        sides = [(set(e), set()) for e in g.edges]
        lengths = range(3, n + 1, 2)
    contents = [heads | tails for heads, tails in sides]
    for k in lengths:
        for vs in itertools.permutations(range(n), k):
            if vs[0] != min(vs) or (k > 2 and vs[1] > vs[-1]):
                continue
            vset = set(vs)
            needed = [
                {vs[i], vs[(i + 1) % k]} for i in range(k)
            ]
            candidates = [
                [(e, int(need <= sides[e][0] or need <= sides[e][1]))
                 for e, c in enumerate(contents) if c & vset == need]
                for need in needed
            ]
            if _distinct_assignment(candidates, want=1):
                return k
    return None


def _distinct_assignment(candidates: list[list[tuple[int, int]]], used=None, want=1) -> bool:
    """True iff one (edge, parity) can be taken from each list, the edges
    distinct and the parities summing to `want` mod 2."""
    if used is None:
        used = set()
    if not candidates:
        return want == 0
    head, tail = candidates[0], candidates[1:]
    for e, parity in head:
        if e not in used:
            if _distinct_assignment(tail, used | {e}, want ^ parity):
                return True
    return False


def next_same_popcount(mask: int) -> int:
    """The next larger mask with as many bits set (Gosper's hack)."""
    low = mask & -mask
    ripple = mask + low
    return ripple | (((mask ^ ripple) >> 2) // low)


def masks_by_size_then_value(n: int):
    """Nonempty subsets of range(n) as masks, by popcount, then by value."""
    limit = 1 << n
    for k in range(1, n + 1):
        mask = (1 << k) - 1
        while mask < limit:
            yield mask
            mask = next_same_popcount(mask)


def _peeled_vertices(masks: list[int], n: int) -> int:
    """Drop every vertex on fewer than two edges that meet the remaining
    set in two or more vertices, until nothing drops."""
    alive = (1 << n) - 1
    while True:
        once = twice = 0
        for m in masks:
            t = m & alive
            if t.bit_count() >= 2:
                twice |= once & t
                once |= t
        if twice == alive:
            return alive
        alive = twice


def _nullspace(columns: list[int]) -> list[int]:
    """GF(2) nullspace basis of int column vectors, by elimination on the
    highest bit in column order (the order of F within a U follows it)."""
    pivots: dict[int, tuple[int, int]] = {}
    basis = []
    for j, vec in enumerate(columns):
        combo = 1 << j
        while vec:
            lead = vec.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (vec, combo)
                break
            vec ^= pivots[lead][0]
            combo ^= pivots[lead][1]
        else:
            basis.append(combo)
    return basis


def eulerian_selections_per_u(masks: list[int], n_vertices: int, peel: bool = True,
                              top: int | None = None):
    """(U, F) masks of the Eulerian walk, testing one vertex set U at a time.

    U runs over the subsets of the peeled vertices (all vertices without
    `peel`) by popcount, then value, up to `top` vertices if given.  The
    candidates are the edges with an even, nonempty trace on U; with `peel`
    a U with a vertex on fewer than two of them is skipped.  F runs over
    the nonzero combinations of the candidates' nullspace basis, by
    combination index.
    """
    core = _peeled_vertices(masks, n_vertices) if peel else (1 << n_vertices) - 1
    verts = [v for v in range(n_vertices) if core >> v & 1]
    for c in masks_by_size_then_value(len(verts)):
        if top is not None and c.bit_count() > top:
            return
        umask = sum(1 << v for i, v in enumerate(verts) if c >> i & 1)
        cand = [(eid, t) for eid, m in enumerate(masks)
                if (t := m & umask) and t.bit_count() % 2 == 0]
        if peel:
            covered = [sum(1 for _, t in cand if t >> v & 1) for v in verts if umask >> v & 1]
            if min(covered, default=0) < 2:
                continue
        basis = _nullspace([t for _, t in cand])
        for bits in range(1, 1 << len(basis)):
            combo = 0
            for k, b in enumerate(basis):
                if bits >> k & 1:
                    combo ^= b
            yield umask, sum(1 << eid for i, (eid, _) in enumerate(cand) if combo >> i & 1)


def verify_witness_sets(host, w) -> bool:
    """The certificate checker on sets instead of bitmasks: each witness
    edge's support, as a set, meets the witness's vertex set in exactly its
    pair, or for the size-4 edge of a tree house its quad.  A cycle must
    have odd parity and each tree-house path, closed by the size-4 edge,
    even parity, each edge's parity read by membership in its head set
    (Hypergraph hosts are all-head)."""
    mixed = "mixed-" if hasattr(host, "arcs") else ""
    if w.kind == mixed + "odd-cycle":
        return (_cycle_sets(host, w.vertices, w.edge_ids)
                and _parity_sum(host, w.vertices, w.edge_ids) % 2 == 1)
    if w.kind != mixed + "odd-tree-house" or not _tree_house_sets(host, w):
        return False
    return all(
        (_parity_sum(host, path, ids) + _parity_sum(host, (w.root, leaf), (w.hyperedge_id,)))
        % 2 == 0
        for path, ids, leaf in zip(w.paths, w.path_edge_ids, w.leaves)
    )


def _meets_exactly_sets(host, vt, ids, parts) -> bool:
    if len(set(ids)) != len(ids) or min(ids) < 0 or max(ids) >= len(host.support_masks):
        return False
    for eid, part in zip(ids, parts):
        if vt.intersection(host.support(eid)) != part:
            return False
    return True


def _cycle_sets(host, vertices, edge_ids) -> bool:
    k = len(vertices)
    if k < 2 or len(edge_ids) != k or len(set(vertices)) != k:
        return False
    pairs = [{a, b} for a, b in zip(vertices, vertices[1:] + vertices[:1])]
    return _meets_exactly_sets(host, frozenset(vertices), edge_ids, pairs)


def _tree_house_sets(host, w) -> bool:
    quad = {w.root, *w.leaves}
    if not len(w.leaves) == len(w.paths) == len(w.path_edge_ids) == 3 or len(quad) != 4:
        return False
    ids, parts = [w.hyperedge_id], [quad]
    for path, path_ids, leaf in zip(w.paths, w.path_edge_ids, w.leaves):
        if (len(path) < 2 or len(path_ids) != len(path) - 1 or path[0] != w.root
                or path[-1] != leaf or len(set(path)) != len(path)):
            return False
        ids += path_ids
        parts += [{a, b} for a, b in zip(path, path[1:])]
    vt = frozenset(v for path in w.paths for v in path)
    return (len(vt) == 1 + sum(len(p) - 1 for p in w.paths)
            and _meets_exactly_sets(host, vt, ids, parts))


def _parity_sum(host, vertices, edge_ids) -> int:
    k, mixed = len(vertices), hasattr(host, "arcs")
    total = 0
    for t, eid in enumerate(edge_ids):
        heads = set(host.arcs[eid][0] if mixed else host.edges[eid])
        total += (vertices[t] in heads) == (vertices[(t + 1) % k] in heads)
    return total
