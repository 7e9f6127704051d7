"""Correctness oracles that share no code with `tuhyper`.

The benchmark checks every output against these, never against a stored
copy of an earlier output:

- `witness_error`: a witness must meet its vertex set edge by edge in
  exactly the vertices it claims (two per path or cycle edge, four for the
  tree house's hyperedge), and its incidence submatrix must have |det| = 2;
- `is_tu`: Ghouila-Houri's characterisation, for small matrices;
- `odd_cycle_packing`: the largest number of vertex-disjoint odd cycles of a
  graph, for the check Delta = 2^ocp.

Instances are JSON documents as `tuhyper` reads them: a "vertices" list and
either "edges" (lists of names) or "arcs" ({"plus": [...], "minus": [...]}).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np


def columns(doc: dict) -> list[dict[int, int]]:
    """Incidence columns of a document as {row: entry} maps."""
    index = {name: i for i, name in enumerate(doc["vertices"])}
    if "edges" in doc:
        return [{index[v]: 1 for v in edge} for edge in doc["edges"]]
    out = []
    for arc in doc["arcs"]:
        col = {index[v]: 1 for v in arc.get("plus", [])}
        col.update({index[v]: -1 for v in arc.get("minus", [])})
        out.append(col)
    return out


def matrix(doc: dict) -> list[list[int]]:
    """Dense vertex-by-edge incidence matrix as nested Python lists."""
    cols = columns(doc)
    return [[col.get(r, 0) for col in cols] for r in range(len(doc["vertices"]))]


def det(rows: list[list[int]]) -> int:
    """Exact determinant by Bareiss elimination on Python integers."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for i in range(n):
        p = next((j for j in range(i, n) if a[j][i]), None)
        if p is None:
            return 0
        if p != i:
            a[i], a[p] = a[p], a[i]
            sign = -sign
        piv = a[i][i]
        for j in range(i + 1, n):
            aji = a[j][i]
            row_j, row_i = a[j], a[i]
            for k in range(i + 1, n):
                row_j[k] = (row_j[k] * piv - aji * row_i[k]) // prev
        prev = piv
    return sign * a[n - 1][n - 1] if n else 1


def witness_error(doc: dict, w: dict) -> str | None:
    """Why witness `w` (as `witness_to_dict` writes it) is not a valid
    forbidden structure in `doc`, or None when it is valid."""
    index = {name: i for i, name in enumerate(doc["vertices"])}
    cols = columns(doc)
    try:
        if w["kind"] in ("odd-cycle", "mixed-odd-cycle"):
            verts = [index[v] for v in w["vertices"]]
            ids = [int(e) for e in w["edge_ids"]]
            k = len(verts)
            if k != len(ids) or k < 2:
                return "cycle needs as many edges as vertices"
            claims = [(ids[i], {verts[i], verts[(i + 1) % k]}) for i in range(k)]
        elif w["kind"] in ("odd-tree-house", "mixed-odd-tree-house"):
            root = index[w["root"]]
            leaves = [index[v] for v in w["leaves"]]
            paths = [[index[v] for v in p] for p in w["paths"]]
            claims = [(int(w["hyperedge_id"]), {root, *leaves})]
            verts = [root]
            if len(leaves) != 3 or len(paths) != 3 or len(w["path_edge_ids"]) != 3:
                return "tree house needs three leaves and three paths"
            for path, ids, leaf in zip(paths, w["path_edge_ids"], leaves):
                if path[0] != root or path[-1] != leaf or len(ids) != len(path) - 1:
                    return "path does not run from the root to its leaf"
                verts += path[1:]
                claims += [(int(e), {path[t], path[t + 1]}) for t, e in enumerate(ids)]
        else:
            return f"unknown witness kind {w['kind']!r}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed witness: {exc!r}"
    vset = set(verts)
    ids = [e for e, _ in claims]
    if len(vset) != len(verts) or len(set(ids)) != len(ids):
        return "witness repeats a vertex or an edge"
    if len(ids) != len(verts):
        return "witness submatrix is not square"
    for e, want in claims:
        if not 0 <= e < len(cols):
            return f"edge id {e} out of range"
        if set(cols[e]) & vset != want:
            return f"edge {e} meets the witness vertex set in the wrong vertices"
    order = sorted(vset)
    sub = [[cols[e].get(r, 0) for e in ids] for r in order]
    d = det(sub)
    if abs(d) != 2:
        return f"witness submatrix has determinant {d}, not +-2"
    return None


@lru_cache(maxsize=None)
def _signings(r: int) -> tuple[np.ndarray, np.ndarray]:
    """All x in {-1, 0, 1}^r with the bitmask of their support."""
    xs = np.array(list(itertools.product((-1, 0, 1), repeat=r)), dtype=np.float64).reshape(-1, r)
    support = ((xs != 0) * (1 << np.arange(r, dtype=np.int64))).sum(axis=1)
    return xs, support


def is_tu(rows: list[list[int]]) -> bool:
    """Total unimodularity by Ghouila-Houri: every set of rows has a +-1
    signing whose signed sum is in {-1, 0, 1} in every column.

    Enumerates 3^r signings, so keep r (rows or columns, whichever is
    smaller) at most about 12.
    """
    a = np.array(rows, dtype=np.float64)
    if a.size == 0:
        return True
    if a.shape[0] > a.shape[1]:
        a = a.T
    if np.abs(a).max() > 1:
        return False
    xs, support = _signings(a.shape[0])
    # Signed sums of 0/+-1 entries are small integers, exact in float64.
    good = (np.abs(xs @ a) <= 1).all(axis=1)
    return bool(np.bincount(support[good], minlength=1 << a.shape[0]).all())


def odd_cycle_packing(doc: dict) -> int:
    """Largest number of vertex-disjoint odd cycles in a graph document.

    A vertex set holds an odd cycle exactly when the subgraph it induces is
    not bipartite, so this packs pairwise disjoint non-bipartite vertex sets
    by dynamic programming over subsets.  Exponential: graphs of at most
    about 12 vertices.
    """
    n = len(doc["vertices"])
    index = {name: i for i, name in enumerate(doc["vertices"])}
    adj = [0] * n
    for edge in doc["edges"]:
        a, b = (index[v] for v in edge)
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    def bipartite(mask: int) -> bool:
        side: dict[int, int] = {}
        for start in range(n):
            if not mask >> start & 1 or start in side:
                continue
            side[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                nb = adj[v] & mask
                for u in range(n):
                    if nb >> u & 1:
                        if u not in side:
                            side[u] = 1 - side[v]
                            stack.append(u)
                        elif side[u] == side[v]:
                            return False
        return True

    odd = [not bipartite(mask) for mask in range(1 << n)]
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        value = best[rest]
        sub = rest
        while True:  # every subset of `mask` that contains its lowest vertex
            s = sub | low
            if odd[s] and best[mask ^ s] + 1 > value:
                value = best[mask ^ s] + 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[mask] = value
    return best[(1 << n) - 1]


def max_abs_subdet(rows: list[list[int]]) -> int:
    """Largest |det| over all square submatrices, by exhaustive Bareiss."""
    r, c = len(rows), len(rows[0]) if rows else 0
    best = 0
    for k in range(1, min(r, c) + 1):
        for rs in itertools.combinations(range(r), k):
            for cs in itertools.combinations(range(c), k):
                best = max(best, abs(det([[rows[i][j] for j in cs] for i in rs])))
    return best
