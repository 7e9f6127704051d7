"""Mixed-hypergraph transformations: arc parities, sign normalizations,
splitting with replayable transcripts, even-cycle null vectors, almost-TU
classification, and the column-operation matrix mapping a mixed odd tree
house onto an unbalanced hole.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import Hypergraph, MixedHypergraph, _expect, incidence_matrix, mixed_from_matrix
from .detect import (
    DEFAULT_SEARCH_BUDGET,
    MixedOddCycleWitness,
    _require_disjoint,
    _search,
    verify_witness,
)
from .errors import InputError, InternalConsistencyError, PreconditionError
from .linalg import det_exact

__all__ = [
    "arc_parity",
    "path_or_cycle_parity",
    "split_arc",
    "negate_row",
    "negate_column",
    "normalize_to_hypergraph",
    "replay",
    "invert_transcript",
    "even_cycle_nullvector",
    "Classification",
    "classify_almost_tu_disjoint",
    "build_r_matrix",
]


def arc_parity(arc) -> int:
    """Parity of a support-2 hyperarc: 0 for head+tail, 1 for a same-side pair."""
    heads, tails = arc
    if len(heads) + len(tails) != 2:
        raise InputError("parity is defined only for arcs with support size 2")
    return 0 if len(heads) == 1 else 1


def _trail(d: MixedHypergraph):
    """(vertices, arcs) of d walked as one path, from its lower end, or as one
    cycle, from vertex 0 along its lower arc; None if d is neither.

    arcs[i] joins vertices[i] and vertices[i + 1], and a cycle's last arc
    joins its last vertex back to vertex 0.  Every arc must lie on exactly
    two vertices and every vertex on one or two arcs; then each component is
    a path or a cycle, and the walk covers d only if d is connected.
    """
    incid: list[list[int]] = [[] for _ in range(d.n_vertices)]
    for a in range(d.n_arcs):
        if len(d.support(a)) != 2:
            return None
        for v in d.support(a):
            incid[v].append(a)
    if not incid or any(len(arcs) not in (1, 2) for arcs in incid):
        return None
    start = next((v for v, arcs in enumerate(incid) if len(arcs) == 1), 0)
    vs, arcs = [start], []
    while True:
        out = [a for a in incid[vs[-1]] if not arcs or a != arcs[-1]]
        if not out:
            break  # the far end of a path
        arcs.append(out[0])
        nxt = next(v for v in d.support(out[0]) if v != vs[-1])
        if nxt == start:
            break  # the cycle closed
        vs.append(nxt)
    return (vs, arcs) if len(vs) == d.n_vertices else None


def path_or_cycle_parity(p: MixedHypergraph) -> str:
    """Total parity of a mixed path or cycle: 'odd' or 'even'."""
    if any(len(p.support(a)) != 2 for a in range(p.n_arcs)):
        raise InputError("parity needs all arcs restricted to support size 2")
    if p.n_vertices == 0:
        raise InputError("empty arc set has no parity")
    trail = _trail(p)
    if trail is None:
        raise InputError("underlying hypergraph is neither a path nor a cycle")
    total = sum(arc_parity(p.arcs[a]) for a in trail[1])
    return "odd" if total % 2 else "even"


# ---------------------------------------------------------------------------
# Sign transforms with replayable transcripts
# ---------------------------------------------------------------------------


def negate_row(d: MixedHypergraph, v: int) -> MixedHypergraph:
    """Flip vertex v between head and tail side in every arc."""
    if not 0 <= v < d.n_vertices:
        raise InputError(f"unknown vertex {v}")
    arcs = []
    for heads, tails in d.arcs:
        if v in heads:
            arcs.append((tuple(x for x in heads if x != v), tuple(sorted(tails + (v,)))))
        elif v in tails:
            arcs.append((tuple(sorted(heads + (v,))), tuple(x for x in tails if x != v)))
        else:
            arcs.append((heads, tails))
    return MixedHypergraph(d.names, tuple(arcs))


def negate_column(d: MixedHypergraph, aid: int) -> MixedHypergraph:
    """Swap the head and tail sets of one arc."""
    if not 0 <= aid < d.n_arcs:
        raise InputError(f"unknown arc {aid}")
    heads, tails = d.arcs[aid]
    arcs = list(d.arcs)
    arcs[aid] = (tails, heads)
    return MixedHypergraph(d.names, tuple(arcs))


def _fresh_name(names, base: str) -> str:
    name = base
    while name in names:
        name += "'"
    return name


def split_arc(d: MixedHypergraph, aid: int) -> tuple[MixedHypergraph, dict]:
    """Replace a one-head/one-tail arc by two all-head arcs through a new vertex.

    The new vertex is appended and named `w#<arc-id>`; the two replacement
    arcs take the split arc's position, head side first, so column order is
    deterministic.  For square inputs |det| of the incidence matrix is
    preserved.
    """
    if not 0 <= aid < d.n_arcs:
        raise InputError(f"unknown arc {aid}")
    heads, tails = d.arcs[aid]
    if len(heads) != 1 or len(tails) != 1:
        raise PreconditionError(f"arc {aid} is not a one-head/one-tail arc")
    head, tail = heads[0], tails[0]
    wname = _fresh_name(d.names, f"w#{aid}")
    w = d.n_vertices
    arcs = list(d.arcs)
    arcs[aid : aid + 1] = [
        (tuple(sorted((head, w))), ()),
        (tuple(sorted((tail, w))), ()),
    ]
    out = MixedHypergraph(d.names + (wname,), tuple(arcs))
    step = {"op": "split", "arc": aid, "head": d.names[head], "tail": d.names[tail],
            "new_vertex": wname}
    return out, step


def replay(d: MixedHypergraph, transcript: list[dict]) -> MixedHypergraph:
    """Apply a transcript of negate/split/unsplit steps to an instance."""
    cur = d
    for step in transcript:
        if not isinstance(step, dict):
            raise InputError(f"transcript step {step!r} is not an object")
        try:
            op = step["op"]
            if op == "negate_row":
                cur = negate_row(cur, cur.vertex_id(step["vertex"]))
            elif op == "negate_column":
                cur = negate_column(cur, step["arc"])
            elif op == "split":
                cur, done = split_arc(cur, step["arc"])
                if done["new_vertex"] != step["new_vertex"]:
                    raise InputError("transcript does not match the instance")
            elif op == "unsplit":
                cur = _unsplit(cur, step)
            else:
                raise InputError(f"unknown transcript op {op!r}")
        except KeyError as exc:
            raise InputError(f"transcript step {step!r} is missing field {exc}") from None
    return cur


def _unsplit(d: MixedHypergraph, step: dict) -> MixedHypergraph:
    aid = step["arc"]
    w = d.vertex_id(step["new_vertex"])
    if w != d.n_vertices - 1:
        raise InputError("unsplit expects the split vertex to be the last one")
    head = d.vertex_id(step["head"])
    tail = d.vertex_id(step["tail"])
    expect = [(tuple(sorted((head, w))), ()), (tuple(sorted((tail, w))), ())]
    if list(d.arcs[aid : aid + 2]) != expect:
        raise InputError("transcript does not match the instance")
    arcs = list(d.arcs)
    arcs[aid : aid + 2] = [((head,), (tail,))]
    return MixedHypergraph(d.names[:-1], tuple(arcs))


def invert_transcript(transcript: list[dict]) -> list[dict]:
    """Inverse steps in reverse order; negations are self-inverse."""
    out = []
    for step in reversed(transcript):
        if step["op"] == "split":
            out.append({**step, "op": "unsplit"})
        elif step["op"] == "unsplit":
            out.append({**step, "op": "split"})
        else:
            out.append(step)
    return out


def normalize_to_hypergraph(d: MixedHypergraph) -> tuple[Hypergraph, list[dict]]:
    """Remove all tails from a disjoint mixed hypergraph, with a transcript.

    Three reductions: negate rows so every size->=4 arc is all-head (possible
    because those arcs are pairwise disjoint), negate all-tail columns, then
    split every one-head/one-tail arc.  Cycle parities, witness existence and
    |det| (square inputs) are preserved.  Arcs that still carry mixed signs
    on support >= 3 cannot be normalized this way and are rejected; Eulerian
    inputs never hit that case since all their supports are even.
    """
    _expect(d, MixedHypergraph)
    _require_disjoint(d)
    transcript: list[dict] = []
    cur = d
    for aid in range(cur.n_arcs):
        if len(cur.support(aid)) >= 4:
            for v in cur.arcs[aid][1]:
                cur = negate_row(cur, v)
                transcript.append({"op": "negate_row", "vertex": cur.names[v]})
    for aid in range(cur.n_arcs):
        if not cur.arcs[aid][0]:
            cur = negate_column(cur, aid)
            transcript.append({"op": "negate_column", "arc": aid})
    for heads, tails in cur.arcs:
        if tails and not (len(heads) == 1 and len(tails) == 1):
            raise PreconditionError(
                "arc with mixed signs on support >= 3 cannot be made tail-free; "
                "normalization applies to instances with even arc supports"
            )
    aid = 0
    while aid < cur.n_arcs:
        if cur.arcs[aid][1]:
            cur, step = split_arc(cur, aid)
            transcript.append(step)
            aid += 2
        else:
            aid += 1
    edges = tuple(heads for heads, _ in cur.arcs)
    return Hypergraph(cur.names, edges), transcript


# ---------------------------------------------------------------------------
# Even-cycle null vectors
# ---------------------------------------------------------------------------


def _alternating(m: np.ndarray, vs, arcs) -> np.ndarray:
    """u in {+-1}^len(arcs), u[0] = 1, with m[vs, arcs] @ u = 0, along a cycle
    on which arcs[i] joins vs[i] and vs[i + 1] (the last arc closes it).

    Each step cancels the entry of the arc just passed at the next vertex;
    the closing row is then zero exactly when the cycle is even, so odd
    cycles are rejected.
    """
    u = np.zeros(len(arcs), dtype=np.int64)
    u[0] = 1
    for i in range(len(arcs) - 1):
        v = vs[i + 1]
        u[i + 1] = -m[v, arcs[i]] * u[i] // m[v, arcs[i + 1]]
    if np.any(m[np.ix_(vs, arcs)] @ u != 0):
        raise InputError("mixed odd cycle has no {+-1} null vector")
    return u


def even_cycle_nullvector(c: MixedHypergraph) -> np.ndarray:
    """Sign vector u in {+-1}^arcs with M(c) @ u = 0, for a mixed even cycle.

    Built by the alternating recursion along the cycle from vertex 0 and its
    lower arc, whose entry is +1.
    """
    _expect(c, MixedHypergraph)
    trail = _trail(c)
    if trail is None or len(trail[0]) != len(trail[1]):
        raise InputError("input is not a mixed cycle")
    vs, arcs = trail
    u = np.zeros(c.n_arcs, dtype=np.int64)
    u[arcs] = _alternating(incidence_matrix(c), vs, arcs)
    return u


# ---------------------------------------------------------------------------
# Almost-TU classification and the unbalanced-hole construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    kind: str  # "mixed-odd-cycle" | "mixed-odd-tree-house" | "not-almost-tu"
    witness: object | None = None


def _whole_cycle_witness(d: MixedHypergraph):
    trail = _trail(d)
    if trail is None or len(trail[0]) != len(trail[1]):
        return None
    vs, arcs = trail
    w = MixedOddCycleWitness(tuple(vs), tuple(arcs))
    return w if verify_witness(d, w) else None


def classify_almost_tu_disjoint(d: MixedHypergraph) -> Classification:
    """Structural almost-TU classification of a whole disjoint instance.

    The whole host is a mixed odd cycle, a mixed odd tree house, or neither.
    A tree house on all n vertices has n arcs, h on four vertices and the
    rest on two, and every vertex lies on two arcs but the root, on four.
    A host of that shape has at most one tree house: h is its only arc on
    four vertices, the root its only vertex on four arcs, and each leaf ends
    one chain of two-arc vertices.  So the decider's tree-house phase walks
    only those chains and finds a whole tree house if there is one, and a
    witness on all n vertices uses all n arcs.
    """
    _expect(d, MixedHypergraph)
    _require_disjoint(d)
    w = _whole_cycle_witness(d)
    if w is not None:
        return Classification("mixed-odd-cycle", w)
    shape = [2] * (d.n_vertices - 1) + [4]
    degrees = Counter(v for a in range(d.n_arcs) for v in d.support(a))
    if sorted(m.bit_count() for m in d.support_masks) == shape == sorted(degrees.values()):
        w = _search(d, DEFAULT_SEARCH_BUDGET, cycle=False)
        if w is not None and len({v for p in w.paths for v in p}) == d.n_vertices:
            return Classification("mixed-odd-tree-house", w)
    return Classification("not-almost-tu", None)


def build_r_matrix(a) -> np.ndarray:
    """Unit-determinant TU column-operation matrix R with A @ R an unbalanced hole.

    For a mixed odd cycle R is the identity.  For a mixed odd tree house, one
    column combination cancels the proper arc's entries at the root and first
    leaf (turning it into an edge on the other two leaves), and a second one
    reroutes the root end of the second path to the first leaf; both reuse
    the {+-1} null vector of the first path-plus-h even cycle.
    """
    d = a if isinstance(a, MixedHypergraph) else mixed_from_matrix(a)
    cls = classify_almost_tu_disjoint(d)
    if cls.kind == "mixed-odd-cycle":
        return np.eye(d.n_arcs, dtype=np.int64)
    if cls.kind != "mixed-odd-tree-house":
        raise PreconditionError("input is not almost TU (not a mixed odd cycle/tree house)")
    w = cls.witness
    order = sorted(range(3), key=lambda i: (len(w.paths[i]), min(w.paths[i])))
    first, second = order[0], order[1]
    m = incidence_matrix(d)
    hid = w.hyperedge_id
    path_arcs = list(w.path_edge_ids[first])
    # null vector of the cycle formed by the first path and h, scaled to u_h = 1
    u_cycle = _alternating(m, list(w.paths[first]), path_arcs + [hid])
    u = u_cycle[:-1] * int(u_cycle[-1])
    root = w.root
    a_arc = w.path_edge_ids[second][0]
    lhs_root = int(sum(m[root, f] * u[t] for t, f in enumerate(path_arcs)))
    if abs(lhs_root) != 1 or abs(int(m[root, a_arc])) != 1:
        raise InternalConsistencyError(
            "r-matrix-sign", "root entries of the null combination must be units"
        )
    sigma = -int(m[root, a_arc]) // lhs_root
    r = np.eye(d.n_arcs, dtype=np.int64)
    r[:, hid] = 0
    r[:, a_arc] = 0
    for t, f in enumerate(path_arcs):
        r[f, hid] = u[t]
        r[f, a_arc] = sigma * u[t]
    r[hid, hid] = 1
    r[a_arc, a_arc] = 1
    if abs(det_exact(r)) != 1:
        raise InternalConsistencyError("r-matrix-det", "column-operation matrix must be unimodular")
    product = m @ r
    check = classify_almost_tu_disjoint(mixed_from_matrix(product, d.names))
    if check.kind != "mixed-odd-cycle":
        raise InternalConsistencyError("r-matrix-product", "A @ R is not a mixed odd cycle")
    return r
