"""Constructive witness extraction for non-unimodular disjoint hypergraphs.

Given a non-TU disjoint hypergraph, this module produces a verified odd
cycle or odd tree house by explicit reduction: find a support-violating
Eulerian core, remove a carefully chosen even cycle to shrink the support,
recurse, and lift the recursive witness back through the (possibly
conflicted) quasi-embedding the removal induces.  Every structural fact the
argument relies on is recomputed and asserted at runtime; a failure raises
InternalConsistencyError naming the step, never a silently wrong witness.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .core import (Hypergraph, SubSelection, _bits, _expect, incidence_matrix, induce,
                   is_disjoint, is_eulerian, support_size)
from .detect import (
    DEFAULT_SEARCH_BUDGET,
    OddCycleWitness,
    OddTreeHouseWitness,
    _check_cycle,
    find_odd_cycle,
    shortest_odd_cycles,
    verify_witness,
)
from .errors import InternalConsistencyError, PreconditionError
from .linalg import _eulerian_selections
from .quasi import _closed_walk_parity, conflicts

__all__ = [
    "EulerianCore",
    "NiceCycle",
    "ReducedPair",
    "ExtractionResult",
    "find_eulerian_core",
    "enforce_forest",
    "almost_nice_cycle",
    "reduce_by_cycle",
    "lift_tree_house",
    "lift_odd_cycle",
    "extract_witness",
]


def _ic(step: str, message: str):
    raise InternalConsistencyError(step, message)


@contextmanager
def _step(step: str):
    """Report a failed check of the quasi calculus as a failure of `step`."""
    try:
        yield
    except (PreconditionError, InternalConsistencyError) as exc:
        raise InternalConsistencyError(step, str(exc)) from exc


# ---------------------------------------------------------------------------
# Eulerian cores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EulerianCore:
    """An Eulerian selection with |V| = |E|, support = 2 mod 4, no isolated
    vertices, realized as a standalone hypergraph plus maps into the parent."""

    sub: Hypergraph
    vmap: tuple[int, ...]
    emap: tuple[int, ...]


def find_eulerian_core(g: Hypergraph, max_vertices: int = 16) -> EulerianCore:
    """Smallest Eulerian selection witnessing non-unimodularity by support count.

    A core covers its vertex set, so only the vertices left by degree-2
    peeling can be in it (see `linalg._core_vertices` for why), and
    `max_vertices` bounds their number, not the host's: pendant trees and
    isolated vertices cost nothing.
    """
    _expect(g, Hypergraph)
    masks = list(g.edge_masks)
    for umask, fmask in _eulerian_selections(masks, g.n_vertices, max_vertices):
        if fmask.bit_count() != umask.bit_count():
            continue
        us = tuple(_bits(umask))
        fs = tuple(_bits(fmask))
        covered = 0
        supp = 0
        for eid in fs:
            trace = masks[eid] & umask
            covered |= trace
            supp += trace.bit_count()
        if covered != umask or supp % 4 != 2:
            continue
        # every chosen edge meets U, so induce keeps all of them, in order
        return EulerianCore(induce(g, SubSelection(us, fs)).sub, us, fs)
    raise PreconditionError("input is unimodular: no support-violating Eulerian selection")


def _remap_witness(w, vmap, emap):
    if isinstance(w, OddCycleWitness):
        return OddCycleWitness(
            tuple(vmap[v] for v in w.vertices), tuple(emap[e] for e in w.edge_ids)
        )
    return OddTreeHouseWitness(
        root=vmap[w.root],
        leaves=tuple(vmap[v] for v in w.leaves),
        paths=tuple(tuple(vmap[v] for v in p) for p in w.paths),
        path_edge_ids=tuple(tuple(emap[e] for e in ids) for ids in w.path_edge_ids),
        hyperedge_id=emap[w.hyperedge_id],
    )


# ---------------------------------------------------------------------------
# Even-cycle selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NiceCycle:
    """An even cycle selection; `edge_ids[i]` joins `vertices[i]` and
    `vertices[i+1]` cyclically.  `special` is the one cycle edge allowed to
    keep attachments outside the cycle (None when every cycle edge has
    size 2, in which case the removal below stays a partial subhypergraph)."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    special: int | None


def _validate_cycle(host: Hypergraph, vertices, edge_ids, step: str) -> None:
    if not _check_cycle(host, vertices, edge_ids):
        _ic(step, "selected edges do not restrict to a cycle")
    if len(vertices) % 2 == 1:
        _ic(step, "selected cycle is odd although no odd cycle was found")


def _first_cycle(pairs):
    """First cycle in a multigraph given as (u, v, tag) triples.

    Union-find finds the first pair whose ends the earlier pairs already
    connect.  Those earlier pairs form a forest, so the cycle is that pair
    plus the one forest path between its ends, read by a DFS from the second
    end.  Returns the vertex sequence (first end to second end) and the tags
    of its edges (closing tag last), or None.
    """
    comp: dict[int, int] = {}

    def find(v: int) -> int:
        comp.setdefault(v, v)
        while comp[v] != v:
            v = comp[v]
        return v

    for idx, (a, b, tag) in enumerate(pairs):
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            continue
        adj: dict[int, list] = {}
        for u, v, t in pairs[:idx]:
            adj.setdefault(u, []).append((v, t))
            adj.setdefault(v, []).append((u, t))
        back = {b: None}  # vertex -> (its neighbour towards b, the tag between)
        stack = [b]
        while a not in back:
            v = stack.pop()
            for w, t in adj[v]:
                if w not in back:
                    back[w] = (v, t)
                    stack.append(w)
        verts, tags = [a], []
        while back[verts[-1]] is not None:
            v, t = back[verts[-1]]
            verts.append(v)
            tags.append(t)
        return verts, tags + [tag]
    return None


def _cycle_path_without(vertices, edge_ids, drop_eid):
    """Open the cycle at the given edge: path vertex/edge sequences."""
    k = len(vertices)
    at = edge_ids.index(drop_eid)
    vs = [vertices[(at + 1 + t) % k] for t in range(k)]
    ids = [edge_ids[(at + 1 + t) % k] for t in range(k - 1)]
    return vs, ids


def enforce_forest(host: Hypergraph) -> NiceCycle | None:
    """The forest check: an even cycle of the size-2 subgraph to remove, or
    None when that subgraph is already a forest."""
    pairs = [(e[0], e[1], eid) for eid, e in enumerate(host.edges) if len(e) == 2]
    hit = _first_cycle(pairs)
    if hit is None:
        return None
    verts, ids = hit
    cyc = NiceCycle(tuple(verts), tuple(ids), None)
    _validate_cycle(host, cyc.vertices, cyc.edge_ids, "graph-cycle")
    return cyc


def almost_nice_cycle(host: Hypergraph) -> NiceCycle:
    """An even cycle with at most one edge keeping outside attachments.

    Requires an Eulerian host with as many vertices as edges, support
    2 mod 4, no isolated vertices, no odd cycle, and a forest of size-2
    edges.  Builds the auxiliary graph of forest edges plus leaf matchings
    inside each size->=4 edge, takes a cycle there, shortens it across a
    closest crossable pair (or drops one matching edge), and closes the
    resulting path with the one hyperedge containing both endpoints.  The
    cycle's defining properties are all rechecked before returning.
    """
    n, m = host.n_vertices, host.n_edges
    sizes = [len(e) for e in host.edges]
    if n != m or any(s % 2 for s in sizes):
        raise PreconditionError("host must be Eulerian with |V| = |E|")
    small = [e for e, s in enumerate(sizes) if s == 2]
    propers = [e for e, s in enumerate(sizes) if s >= 4]
    forest_deg = [0] * n
    for e in small:
        for v in host.edges[e]:
            forest_deg[v] += 1
    proper_of: list[int | None] = [None] * n
    for p in propers:
        for v in host.edges[p]:
            if proper_of[v] is not None:
                _ic("nice-cycle-disjoint", "vertex lies in two size->=4 edges")
            proper_of[v] = p
    leaves = [v for v in range(n) if forest_deg[v] == 1]
    if any(proper_of[v] is None for v in leaves):
        _ic("nice-cycle-leaves", "a forest leaf lies in no size->=4 edge")
    # counting facts guaranteeing the auxiliary graph has a cycle
    if len(small) != n - len(propers):
        _ic("nice-cycle-count", "size-2 edge count mismatch")
    if propers and (len(leaves) - len(propers)) < 2 * len(propers):
        _ic("nice-cycle-count", "too few leaves for the matching bound")
    aux: list[tuple[int, int, int, bool]] = []  # (u, v, host edge, is_matching)
    for e in small:
        a, b = host.edges[e]
        aux.append((a, b, e, False))
    for p in propers:
        plist = sorted(v for v in host.edges[p] if forest_deg[v] == 1)
        for i in range(0, len(plist) - 1, 2):
            aux.append((plist[i], plist[i + 1], p, True))
    if len(aux) < n:
        _ic("nice-cycle-count", "auxiliary graph has fewer edges than vertices")
    cycle = _first_cycle([(u, v, i) for i, (u, v, _, _) in enumerate(aux)])
    if cycle is None:
        _ic("nice-cycle-aux", "auxiliary graph is acyclic despite the counting bound")
    cvs, cids = cycle  # vertex sequence and aux edge indices, cyclic
    matching = {frozenset(aux[i][:2]) for i in cids if aux[i][3]}
    length = len(cvs)
    pos = {v: i for i, v in enumerate(cvs)}
    crossable = []
    for ai in range(length):
        for bi in range(ai + 1, length):
            x, y = cvs[ai], cvs[bi]
            if proper_of[x] is None or proper_of[x] != proper_of[y]:
                continue
            if frozenset((x, y)) in matching:
                continue
            dist = min(bi - ai, length - (bi - ai))
            crossable.append((dist, x, y))
    if crossable:
        _, v, w = min(crossable)
        i, j = sorted((pos[v], pos[w]))
        if j - i <= length - (j - i):
            path_vs = cvs[i : j + 1]
            path_ids = cids[i:j]
        else:
            path_vs = cvs[j:] + cvs[: i + 1]
            path_ids = cids[j:] + cids[:i]
    else:
        drop = next((i for i in cids if aux[i][3]), None)
        if drop is None:
            _ic("nice-cycle-matching", "auxiliary cycle uses no matching edge")
        path_vs, path_ids = _cycle_path_without(cvs, cids, drop)
    special = proper_of[path_vs[0]]
    if special is None or special != proper_of[path_vs[-1]]:
        _ic("nice-cycle-special", "path endpoints do not share a size->=4 edge")
    mapped = [aux[i][2] for i in path_ids]
    if special in mapped:
        _ic("nice-cycle-special", "closing edge already lies on the path")
    pset = set(path_vs)
    for p in propers:
        inter = len(set(host.edges[p]) & pset)
        if inter > 2 or (inter == 2) != (p in mapped or p == special):
            _ic("nice-cycle-le2", "a size->=4 edge meets the path incompatibly")
    nc = NiceCycle(tuple(path_vs), tuple(mapped) + (special,), special)
    _validate_cycle(host, nc.vertices, nc.edge_ids, "nice-cycle")
    # the selected cycle keeps outside attachments only at `special`
    fset = set(nc.edge_ids)
    for e in fset:
        if e == special or sizes[e] == 2:
            continue
        for u in set(host.edges[e]) & pset:
            if any(u in host.edges[x] for x in range(m) if x not in fset):
                _ic("nice-cycle-n1", "non-special cycle edge keeps an outside attachment")
    return nc


# ---------------------------------------------------------------------------
# Cycle removal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedPair:
    """The host with an even cycle's support removed, as a quasi-embedding.

    `sub` is the reduced hypergraph; `vmap`/`phi` map its vertices/edges back
    into the host.  When `conflict_free` the pair is a partial subhypergraph
    and witnesses compose directly; otherwise the unique conflict is the
    cycle's `special` edge and witnesses must be lifted.
    """

    host: Hypergraph
    nice: NiceCycle
    sub: Hypergraph
    vmap: tuple[int, ...]
    phi: tuple[int, ...]
    conflict_free: bool


def reduce_by_cycle(host: Hypergraph, nice: NiceCycle) -> ReducedPair:
    """Delete the even cycle's incidence support and drop empty rows/columns."""
    ucyc = set(nice.vertices)
    fset = set(nice.edge_ids)
    keep_vs = [
        v
        for v in range(host.n_vertices)
        if not (v in ucyc and all(e in fset for e in host.incident_edges(v)))
    ]
    renum = {v: i for i, v in enumerate(keep_vs)}
    edges = []
    phi = []
    for eid, content in enumerate(host.edges):
        if eid not in fset:
            edges.append(tuple(renum[v] for v in content))
            phi.append(eid)
        elif len(content) >= 4:
            trimmed = tuple(renum[v] for v in content if v not in ucyc)
            if not trimmed:
                _ic("reduce-trim", "size->=4 cycle edge lies inside the cycle")
            edges.append(trimmed)
            phi.append(eid)
    sub = Hypergraph(tuple(host.names[v] for v in keep_vs), tuple(edges))
    before = support_size(incidence_matrix(host))
    after = support_size(incidence_matrix(sub))
    if after != before - 2 * len(nice.edge_ids):
        _ic("reduce-supp", "support did not drop by the cycle's support")
    if after % 4 != 2:
        _ic("reduce-supp", "support count left the 2 mod 4 class")
    if before - after < 4:
        _ic("reduce-supp", "support did not strictly decrease by >= 4")
    if not is_eulerian(sub):
        _ic("reduce-eulerian", "reduced hypergraph is not Eulerian")
    if not is_disjoint(sub):
        _ic("reduce-disjoint", "reduced hypergraph is not disjoint")
    items = [(frozenset(keep_vs[v] for v in e), hid) for e, hid in zip(edges, phi)]
    confl = conflicts(host, items, set(keep_vs))
    allowed = set() if nice.special is None else {nice.special}
    if not set(confl) <= allowed:
        _ic("reduce-conflicts", f"unexpected conflicts {tuple(confl)}")
    return ReducedPair(host, nice, sub, tuple(keep_vs), tuple(phi), not confl)


def _verified_house(host, root, leaves, paths, path_ids, h_edge, step):
    """The conflict-free candidate as a witness, checked independently."""
    out = OddTreeHouseWitness(root, tuple(leaves), tuple(tuple(p) for p in paths),
                              tuple(tuple(i) for i in path_ids), h_edge)
    if not verify_witness(host, out):
        _ic(step, "conflict-free candidate is not an odd tree house")
    return out


def _path_items(paths, path_ids):
    """Path edges as items of the quasi calculus: (vertex pair, host edge)."""
    items = []
    for seq, ids in zip(paths, path_ids):
        for t, hid in enumerate(ids):
            items.append((frozenset((seq[t], seq[t + 1])), hid))
    return items


# ---------------------------------------------------------------------------
# Lifting a tree house through the unique conflict
# ---------------------------------------------------------------------------


def lift_tree_house(rp: ReducedPair, w: OddTreeHouseWitness) -> OddTreeHouseWitness:
    """Turn a tree house of the reduced hypergraph into one of the host.

    The composed embedding has at most one conflict (the cycle's special
    edge).  While a conflict remains, the tree house is shrunk: either the
    proper edge itself is the conflicting image (shorten one path to the
    first conflict vertex and re-root the proper edge there), or a path edge
    is (splice that path across the conflict edge).  Both replacements keep
    at most one conflict and strictly fewer edges, so this terminates.
    """
    host = rp.host
    vmap, phi = rp.vmap, rp.phi
    root = vmap[w.root]
    leaves = [vmap[v] for v in w.leaves]
    paths = [[vmap[v] for v in p] for p in w.paths]
    path_ids = [[phi[e] for e in ids] for ids in w.path_edge_ids]
    h_edge = phi[w.hyperedge_id]
    guard = sum(len(ids) for ids in path_ids) + 2
    for _ in range(guard):
        items = _path_items(paths, path_ids) + [(frozenset([root, *leaves]), h_edge)]
        if len({hid for _, hid in items}) != len(items):
            _ic("tree-house-lift", "edge map stopped being injective")
        vset = {v for seq in paths for v in seq} | {root, *leaves}
        with _step("tree-house-lift"):
            confl = conflicts(host, items, vset)
        if not confl:
            return _verified_house(host, root, leaves, paths, path_ids, h_edge,
                                   "tree-house-lift")
        if len(confl) > 1:
            _ic("tree-house-lift", f"more than one conflict: {confl}")
        e_c = confl[0]
        ec_content = set(host.edges[e_c])
        if e_c == h_edge:
            # Case 1: shorten the first path that meets the conflict edge
            pick = next((i for i in range(3) if set(paths[i][1:-1]) & ec_content), None)
            if pick is None:
                _ic("tree-house-lift-case1", "conflict adds no internal path vertex")
            s = next(t for t in range(1, len(paths[pick]) - 1)
                     if paths[pick][t] in ec_content)
            prefix = paths[pick][: s + 1]
            prefix_ids = path_ids[pick][:s]
            with _step("tree-house-lift-case1-parity"):
                _closed_walk_parity(host, _path_items([prefix], [prefix_ids]), set(prefix),
                                    [e_c])
            paths[pick] = prefix
            path_ids[pick] = prefix_ids
            leaves[pick] = prefix[-1]
            h_edge = e_c
            continue
        pick = next((i for i in range(3) if e_c in path_ids[i]), None)
        if pick is None:
            _ic("tree-house-lift", "conflict image is no edge of the tree house")
        onpath = [t for t in range(1, len(paths[pick]) - 1)
                  if paths[pick][t] in ec_content]
        if len(onpath) >= 3:
            # Case 2: splice the path across the conflict edge
            s, t = onpath[0], onpath[-1]
            if t < s + 2:
                _ic("tree-house-lift-case2", "conflict vertices are adjacent on the path")
            front = paths[pick][: s + 1]
            front_ids = path_ids[pick][:s]
            back = paths[pick][t:]
            back_ids = path_ids[pick][t:]
            with _step("tree-house-lift-case2-parity"):
                _closed_walk_parity(host, _path_items([front, back], [front_ids, back_ids]),
                                    set(front) | set(back), [h_edge, e_c])
            paths[pick] = front + back
            path_ids[pick] = front_ids + [e_c] + back_ids
            continue
        _ic(
            "tree-house-lift-case3",
            "conflict meets its own path in exactly its edge; the shrinking "
            "argument proves this cannot happen",
        )
    _ic("tree-house-lift", "shrinking loop failed to terminate")


# ---------------------------------------------------------------------------
# Lifting an odd cycle through the unique conflict
# ---------------------------------------------------------------------------


def _assert_candidate(host, root, leaves, paths, path_ids, h_edge, step):
    """Check the structural properties the crossover relies on; return the
    conflicts of the candidate embedding (size->=4 host edges only)."""
    quad = {root, *leaves}
    for i in range(3):
        if paths[i][0] != root or paths[i][-1] != leaves[i]:
            _ic(step, "a path does not run from the root to its leaf")
        if len(set(paths[i])) != len(paths[i]):
            _ic(step, "a path repeats a vertex")
        if set(paths[i][1:-1]) & quad:
            _ic(step, "a path passes through the proper edge's vertices")
    items = _path_items(paths, path_ids) + [(frozenset(quad), h_edge)]
    vset = {v for seq in paths for v in seq} | quad
    with _step(step):
        confl = conflicts(host, items, vset)
    for e in confl:
        content = set(host.edges[e])
        if len(content) < 4 or e == h_edge:
            _ic(step, "conflict is not a non-special size->=4 edge")
        if content & quad:
            _ic(step, "conflict meets the proper edge's vertices")
        if content & set(paths[1]) and content & set(paths[2]):
            _ic(step, "conflict meets both far paths")
        for i in range(3):
            hit = content & set(paths[i])
            if len(hit) > 2:
                _ic(step, "conflict meets a path in three or more vertices")
            if len(hit) == 2:
                ia, ib = sorted(paths[i].index(v) for v in hit)
                if ib != ia + 1 or path_ids[i][ia] != e:
                    _ic(step, "conflict pair on a path is not that path's edge")
    return confl


def lift_odd_cycle(rp: ReducedPair, max_nodes: int = DEFAULT_SEARCH_BUDGET) -> OddTreeHouseWitness:
    """Turn an odd cycle of the reduced hypergraph into a host tree house.

    Re-searches the reduced hypergraph for a shortest odd cycle using as many
    size->=4 host images as possible; its conflict with the cycle's special
    edge contributes two leaves, the removed even cycle contributes the third
    path, and remaining conflicts are eliminated by crossover surgery that
    strictly shrinks the candidate.
    """
    host, sub, vmap, phi = rp.host, rp.sub, rp.vmap, rp.phi
    nice = rp.nice
    special = nice.special
    if special is None:
        _ic("cycle-lift", "lifting invoked without a conflicted reduction")
    shortest = shortest_odd_cycles(sub, max_nodes)
    if not shortest:
        _ic("cycle-lift", "reduced hypergraph lost its odd cycle")

    def proper_uses(wc):
        return sum(1 for e in wc.edge_ids if len(host.edges[phi[e]]) >= 4)

    # most size->=4 host images; ties broken by least sorted edge-id sequence
    chosen = min(shortest,
                 key=lambda wc: (-proper_uses(wc), tuple(sorted(wc.edge_ids))))
    kv_host = [vmap[v] for v in chosen.vertices]
    kp_ids = [phi[e] for e in chosen.edge_ids]
    k_items = _path_items([kv_host + kv_host[:1]], [kp_ids])
    with _step("cycle-lift-conflict"):
        confl = conflicts(host, k_items, set(kv_host))
    if confl != [special]:
        _ic("cycle-lift-conflict", f"cycle conflicts are {confl}, not the special edge")
    f_star = [pair for pair, hid in k_items if hid == special]
    if len(f_star) != 1:
        _ic("cycle-lift-conflict", "special edge image is not unique on the cycle")
    special_content = set(host.edges[special])
    g_on_cycle = special_content & set(nice.vertices)
    if len(g_on_cycle) != 2:
        _ic("cycle-lift", "special edge does not span two removed-cycle vertices")
    overlap = g_on_cycle & set(kv_host)
    if len(overlap) != 1:
        _ic("cycle-lift-overlap", f"|special & both cycles| = {len(overlap)}, expected 1")
    root = next(iter(overlap))
    leaf1 = next(iter(g_on_cycle - overlap))
    leaf2, leaf3 = sorted(f_star[0])
    # first path: the removed even cycle opened at the special edge
    p1_vs, p1_ids = _cycle_path_without(list(nice.vertices), list(nice.edge_ids), special)
    if p1_vs[0] != root:
        p1_vs.reverse()
        p1_ids.reverse()
    if p1_vs[0] != root or p1_vs[-1] != leaf1:
        _ic("cycle-lift", "opened removed cycle does not join root and first leaf")
    # second and third paths: the fresh odd cycle opened at f*
    open_vs, open_ids = _cycle_path_without(kv_host, kp_ids, special)
    at_root = open_vs.index(root)
    left_vs = list(reversed(open_vs[: at_root + 1]))
    left_ids = list(reversed(open_ids[:at_root]))
    right_vs = open_vs[at_root:]
    right_ids = open_ids[at_root:]
    segs = {seq[-1]: (seq, ids) for seq, ids in ((left_vs, left_ids), (right_vs, right_ids))}
    if set(segs) != {leaf2, leaf3}:
        _ic("cycle-lift", "opened odd cycle does not end at the conflict pair")
    ordered = sorted(segs.values(), key=lambda si: (len(si[0]), min(si[0])))
    paths = [p1_vs, list(ordered[0][0]), list(ordered[1][0])]
    path_ids = [p1_ids, list(ordered[0][1]), list(ordered[1][1])]
    leaves = [leaf1, ordered[0][0][-1], ordered[1][0][-1]]
    guard = sum(len(ids) for ids in path_ids) + 2
    for _ in range(guard):
        confl = _assert_candidate(host, root, leaves, paths, path_ids, special,
                                  "cycle-lift-candidate")
        if not confl:
            return _verified_house(host, root, leaves, paths, path_ids, special, "cycle-lift")
        before = sum(len(ids) for ids in path_ids)
        paths, path_ids, leaves = _crossover(host, root, leaves, paths, path_ids,
                                             special, confl)
        if sum(len(ids) for ids in path_ids) >= before:
            _ic("cycle-lift-crossover", "crossover did not shrink the candidate")
    _ic("cycle-lift", "crossover loop failed to terminate")


def _crossover(host, root, leaves, paths, path_ids, h_edge, confl):
    """One crossover step: reroute paths 1 and j across two conflicts."""
    conflict_sets = {e: set(host.edges[e]) for e in confl}

    def vertex_conflict(v):
        hits = [e for e, content in conflict_sets.items() if v in content]
        if len(hits) > 1:
            _ic("crossover", "vertex lies in two conflicts despite disjointness")
        return hits[0] if hits else None

    p1 = paths[0]
    s1 = next((t for t in range(1, len(p1) - 1) if vertex_conflict(p1[t])), None)
    if s1 is None:
        _ic("crossover", "no conflict vertex on the first path")
    g1 = vertex_conflict(p1[s1])
    j = next((jj for jj in (1, 2) if conflict_sets[g1] & set(paths[jj])), None)
    if j is None:
        _ic("crossover", "first conflict meets no far path")
    pj = paths[j]
    t1 = max(t for t in range(1, len(pj) - 1) if pj[t] in conflict_sets[g1])
    s2 = next((t for t in range(1, len(pj) - 1) if vertex_conflict(pj[t])), None)
    if s2 is None or s2 > t1:
        _ic("crossover", "second conflict anchor out of order")
    g2 = vertex_conflict(pj[s2])
    if g2 == g1:
        _ic("crossover", "the two crossover conflicts coincide")
    if not conflict_sets[g2] & set(p1):
        _ic("crossover", "second conflict misses the first path")
    t2 = max(t for t in range(1, len(p1) - 1) if p1[t] in conflict_sets[g2])
    if not (s1 < t2 and s2 < t1 and (s1 + 1 < t2 or s2 + 1 < t1)):
        _ic("crossover", "crossover indices violate the shrink bounds")

    def weld(front, front_ids, back, back_ids, crossing):
        """front + crossing edge + back when disjoint, else shortcut at the
        first shared vertex."""
        overlap = set(front) & set(back)
        if not overlap:
            return front + back, front_ids + [crossing] + back_ids
        x = next(t for t in range(len(front)) if front[t] in set(back))
        at = back.index(front[x])
        return front[:x] + back[at:], front_ids[:x] + back_ids[at:]

    new_p1, new_ids1 = weld(pj[: s2 + 1], path_ids[j][:s2], p1[t2:],
                            path_ids[0][t2:], g2)
    new_pj, new_idsj = weld(p1[: s1 + 1], path_ids[0][:s1], pj[t1:],
                            path_ids[j][t1:], g1)
    out_paths, out_ids = list(paths), list(path_ids)
    out_paths[0], out_ids[0] = new_p1, new_ids1
    out_paths[j], out_ids[j] = new_pj, new_idsj
    return out_paths, out_ids, list(leaves)


# ---------------------------------------------------------------------------
# The extraction pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractionResult:
    witness: object
    trace: tuple[dict, ...]


def extract_witness(g: Hypergraph, max_nodes: int = DEFAULT_SEARCH_BUDGET,
                    max_vertices: int = 16) -> ExtractionResult:
    """Produce a verified odd cycle or odd tree house from a non-TU disjoint
    hypergraph by executing the support-reduction argument end to end.

    `max_vertices` bounds, at every level of the recursion, the vertices
    that survive degree-2 peeling (the only ones an Eulerian core can use,
    see `find_eulerian_core`); larger peeled sets raise SizeGuardError.
    """
    _expect(g, Hypergraph)
    if not is_disjoint(g):
        raise PreconditionError("extraction requires a disjoint hypergraph")
    trace: list[dict] = []
    w = _extract(g, trace, max_nodes, max_vertices)
    if not verify_witness(g, w):
        _ic("extract", "final witness failed independent verification")
    return ExtractionResult(w, tuple(trace))


def _extract(g: Hypergraph, trace, max_nodes, max_vertices):
    core = find_eulerian_core(g, max_vertices)
    trace.append({
        "step": "eulerian-core",
        "vertices": [g.names[v] for v in core.vmap],
        "edge_ids": list(core.emap),
    })
    w = _extract_core(core.sub, trace, max_nodes, max_vertices)
    return _remap_witness(w, core.vmap, core.emap)


def _extract_core(gs: Hypergraph, trace, max_nodes, max_vertices):
    oc = find_odd_cycle(gs, max_nodes)
    if oc is not None:
        trace.append({"step": "odd-cycle", "vertices": [gs.names[v] for v in oc.vertices]})
        return oc
    cyc = enforce_forest(gs)
    if cyc is not None:
        rp = reduce_by_cycle(gs, cyc)
        if not rp.conflict_free:
            _ic("forest-reduction", "size-2 cycle removal produced a conflict")
        trace.append({
            "step": "remove-graph-cycle",
            "cycle": [gs.names[v] for v in cyc.vertices],
        })
    else:
        nice = almost_nice_cycle(gs)
        rp = reduce_by_cycle(gs, nice)
        trace.append({
            "step": "remove-even-cycle",
            "cycle": [gs.names[v] for v in nice.vertices],
            "special_edge": nice.special,
            "conflict_free": rp.conflict_free,
        })
    w = _extract(rp.sub, trace, max_nodes, max_vertices)
    if rp.conflict_free:
        return _remap_witness(w, rp.vmap, rp.phi)
    if isinstance(w, OddCycleWitness):
        trace.append({"step": "lift-odd-cycle"})
        return lift_odd_cycle(rp, max_nodes)
    trace.append({"step": "lift-tree-house"})
    return lift_tree_house(rp, w)
