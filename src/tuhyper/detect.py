"""Forbidden-structure detection: odd cycles and odd tree houses as partial
subhypergraphs, their mixed analogues, and the resulting unimodularity
decisions for disjoint instances.

An unsigned hypergraph is the all-head case of a mixed one, and one code
path serves both.  A table keyed by host type (`_KINDS`) gives the witness
classes, the cycle lengths to search (3, 5, ... unsigned; 2, 3, ... mixed)
and the phase names; the public finders and deciders are uses of it.  The
searches run over (support, head) bitmasks, and the certificate checker
over one restricted-parity function, which is 1 on every unsigned edge.

On a graph host (every edge or arc has at most two vertices) the odd-cycle
question is a balance test, and the shortest odd cycle comes from a
breadth-first search on the parity double cover in polynomial time.  The
balance test, a parity union-find over the edges by descending least vertex
(`_odd_sources`), also bounds the BFS's sources: the edges among the
vertices above its first contradiction are balanced, so no BFS runs from
there, and none runs on a balanced host.  Other
hosts find their witnesses by complete backtracking over vertex sequences
and host edges.  The defining subtlety there is that an edge used by a
witness must meet the witness's *entire* vertex set in exactly the two
vertices it connects; this is enforced incrementally (every new vertex is
checked against all committed edges), so no incomplete shortcut is taken.
Both phases grow such paths in `_paths` on one explicit stack, so no
recursion limit bounds their length, and a path grows to a new vertex only
if its target can still be reached from there, so branches that cannot
close are cut without changing the search order.  The odd-cycle phase runs
one pass per length, and each pass re-grows the paths of the one before.
So after the first pass a split walk, `_shortest_split_cycle`, runs once
on hosts with at most n leaves, and on the others once the passes have
spent as much as it can cost.  It splits the edges of size >= 3 into vertex
pairs; every odd cycle of the host lies in a resulting signed graph, and
every odd cycle of one is an odd cycle of the host.  A parity union-find
tests each for balance, and the parity BFS gives the shortest odd cycle of
each unbalanced one, so the walk returns the host's shortest odd-cycle
length L, or proves that there is no odd cycle.  A single pass of length L
then gives the witnesses: it is the first pass with a hit that the passes
alone would run, so every witness is the one they return.  The node budget
counts backtracking nodes, the vertices the reachability tests expand, the
edges the walk unites and the states its BFSs reach; an exhausted budget
says how far the search got.  Every returned witness passes
`verify_witness`, a separate straight-line checker that shares no state
with the search: it reads only the host's masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import index, itemgetter
from typing import NamedTuple

from .core import Hypergraph, MixedHypergraph, _bits, _unite, overlapping_proper_edges
from .errors import (
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    NotDisjointError,
    SizeGuardError,
)

__all__ = [
    "OddCycleWitness",
    "OddTreeHouseWitness",
    "MixedOddCycleWitness",
    "MixedOddTreeHouseWitness",
    "Decision",
    "verify_witness",
    "witness_to_dict",
    "witness_from_dict",
    "find_odd_cycle",
    "find_odd_tree_house",
    "find_mixed_odd_cycle",
    "find_mixed_odd_tree_house",
    "shortest_odd_cycles",
    "decide_unimodular_disjoint",
    "decide_unimodular_mixed_disjoint",
    "compute_ocp",
    "DEFAULT_SEARCH_BUDGET",
]

DEFAULT_SEARCH_BUDGET = 5_000_000


@dataclass(frozen=True)
class OddCycleWitness:
    """Cycle v0,e0,v1,...,e_{k-1},v0 of odd length inside the host."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    kind = "odd-cycle"


@dataclass(frozen=True)
class OddTreeHouseWitness:
    """A size-4 edge trace {r,l1,l2,l3} plus three odd r-li-paths."""

    root: int
    leaves: tuple[int, int, int]
    paths: tuple[tuple[int, ...], ...]
    path_edge_ids: tuple[tuple[int, ...], ...]
    hyperedge_id: int

    kind = "odd-tree-house"


@dataclass(frozen=True)
class MixedOddCycleWitness:
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    kind = "mixed-odd-cycle"


@dataclass(frozen=True)
class MixedOddTreeHouseWitness:
    root: int
    leaves: tuple[int, int, int]
    paths: tuple[tuple[int, ...], ...]
    path_edge_ids: tuple[tuple[int, ...], ...]
    hyperedge_id: int

    kind = "mixed-odd-tree-house"


@dataclass(frozen=True)
class Decision:
    tu: bool
    witness: object | None = None


class _Kind(NamedTuple):
    """What the searches look for in one host type (see the module docstring)."""

    cycle: type
    tree_house: type
    shortest: int  # least cycle length searched
    step: int  # between the cycle lengths searched
    cycle_phase: str
    tree_house_phase: str


_KINDS = {
    Hypergraph: _Kind(OddCycleWitness, OddTreeHouseWitness, 3, 2,
                      "odd-cycle-search", "tree-house-search"),
    MixedHypergraph: _Kind(MixedOddCycleWitness, MixedOddTreeHouseWitness, 2, 1,
                           "mixed-odd-cycle-search", "mixed-tree-house-search"),
}
_WITNESS_CLASSES = {cls.kind: cls for kind in _KINDS.values()
                    for cls in (kind.cycle, kind.tree_house)}


# ---------------------------------------------------------------------------
# Edge systems: one search core for unsigned and mixed hosts
# ---------------------------------------------------------------------------


class _System:
    """Host edges as (support, head) bitmasks; unsigned hosts are all-head.

    `inc[v]` lists the edges whose support contains v in ascending id, so a
    search that extends a walk at v scans the same edges, in the same order,
    as a scan over all edges that skips those missing v.
    """

    __slots__ = ("n", "support", "head", "inc", "_nb")

    def __init__(self, host):
        self.n = host.n_vertices
        self.support = host.support_masks
        self.head = host.head_masks
        self.inc = inc = [[] for _ in range(self.n)]
        for eid, sup in enumerate(self.support):
            while sup:  # ids are appended in eid order, whatever the bit order
                v = sup.bit_length() - 1
                inc[v].append(eid)
                sup ^= 1 << v
        self._nb = None

    def neighbours(self) -> list[int]:
        """`nb[v]`: the union of the supports of v's edges, minus v; built
        on first use, so hosts that never backtrack do not pay for it."""
        if self._nb is None:
            support = self.support
            self._nb = [0] * self.n
            for v, eids in enumerate(self.inc):
                m = 0
                for eid in eids:
                    m |= support[eid]
                self._nb[v] = m & ~(1 << v)
        return self._nb

    def is_graph(self) -> bool:
        return all(sup.bit_count() <= 2 for sup in self.support)

    def cycle_cap(self) -> int:
        """Upper bound on the length of any cycle in the host.

        A k-cycle uses k distinct edges of size >= 2 and k distinct vertices,
        each on two of its edges.
        """
        return min(sum(1 for sup in self.support if sup & (sup - 1)),
                   sum(1 for eids in self.inc if len(eids) >= 2))

    def pair_parity(self, eid: int, a: int, b: int) -> int:
        """Parity of edge eid restricted to {a, b}: 1 iff both sides agree."""
        ha = (self.head[eid] >> a) & 1
        hb = (self.head[eid] >> b) & 1
        return 1 if ha == hb else 0


class _Budget:
    """Node budget of one search, and how far the search got.

    `_paths` spends one unit on each path node and one on each vertex that
    its reachability test expands, and `_shortest_split_cycle` one on each
    edge its union-finds unite and each state its BFSs reach.  `longest` is
    the most vertices on a path that a cycle search has grown.  A path is
    grown only while its anchor can still be reached from its end, and
    every prefix of a cycle can reach it, so once a pass for length k
    leaves `longest` below k, no cycle of length k or more exists.

    `what` is the witness kind searched ("odd-cycle", ...), `ruled_out`
    the kind an earlier phase proved absent, if any, and a cycle search
    sets `length` to the pass it runs, or to the next pass while
    `splitting` (the split walk runs); `exists` says that the split has
    proven a cycle of length `length`, whose pass then runs.  They are read
    only to word the error that an exhausted budget raises.
    """

    __slots__ = ("left", "longest", "what", "ruled_out", "length", "splitting", "exists")

    def __init__(self, nodes: int, what: str = "odd-cycle", ruled_out: str = ""):
        self.left = nodes
        self.longest = 0
        self.what = what
        self.ruled_out = ruled_out
        self.length = 0
        self.splitting = False
        self.exists = False

    def spend(self, nodes: int = 1) -> None:
        self.left -= nodes
        if self.left < 0:
            what = self.what.replace("-", " ")
            if self.length:
                where = ("while splitting edges of size >= 3" if self.splitting
                         else f"in the length-{self.length} pass")
                got = f"no {what} of length < {self.length}; "
                if self.exists:
                    got += f"one of length {self.length} exists; "
                got += f"budget exhausted {where}"
            else:
                got = f"budget exhausted in the {what} search"
                if self.ruled_out:
                    got = f"no {self.ruled_out.replace('-', ' ')}; {got}"
            raise BudgetExceededError(f"{got}; raise max_nodes to continue the exact search")


def _paths(sys: _System, budget: _Budget, start: int, target: int, vt: int, forbid: int,
           want: int, length: int = 0):
    """Simple paths from `start` that close onto `target` with parity `want`,
    depth first on one explicit stack; each node spends one unit of budget.

    A path ending at c grows along an edge that meets vt (the vertices so
    far) in c alone, to a vertex outside vt and forbid (the union of the
    path's edges); an edge meeting vt in exactly c and target closes it.  No
    edge is skipped by id: a used one never meets vt so, but for the first
    edge of a two-edge cycle.  With `length`, start is target, paths close
    only at `length` vertices, and each cycle comes once: second vertex
    below last, or for two edges, ascending ids.  Yields the live (vs, ids,
    vt, forbid) at each closing edge, ids and forbid including it.

    A path grows to a new vertex u only if target can still be reached
    from u (`_reaches`), as in the blocking of Johnson's circuit
    enumeration.  The cut drops only branches that cannot close, so the
    paths, and the order they come in, are those of the search without it.
    """
    support, head, inc = sys.support, sys.head, sys.inc
    nb = sys.neighbours()
    tbit, near = 1 << target, nb[target]
    vs, ids, stack = [start], [], []
    c, cbit, par = start, 1 << start, 0
    edges, i, avail = inc[start], 0, 0
    budget.spend()
    while True:
        if avail:  # descend to the next new vertex on edge eid
            ubit = avail & -avail
            avail ^= ubit
            u = ubit.bit_length() - 1
            if not nb[u] & tbit and not _reaches(nb, budget, u, vt | forbid | sup, near):
                continue
            stack.append((c, cbit, edges, i, eid, sup, h, avail, vt, forbid, par))
            par ^= 1 ^ ((h >> c ^ h >> u) & 1)  # _System.pair_parity, inlined
            vt |= ubit
            forbid |= sup
            vs.append(u)
            ids.append(eid)
            c, cbit, edges, i, avail = u, ubit, inc[u], 0, 0
            budget.spend()
            if len(vs) == length:
                budget.longest = length
                if length > 2 and vs[1] > c:
                    edges = ()
        elif i < len(edges):
            eid = edges[i]
            i += 1
            sup = support[eid]
            trace = sup & vt
            if trace == cbit and len(vs) != length:
                avail = sup & ~vt & ~forbid
                h = head[eid]
            elif trace == cbit | tbit and len(vs) >= length and (length != 2 or eid > ids[0]):
                h = head[eid]
                if par ^ 1 ^ ((h >> c ^ h >> target) & 1) == want:
                    ids.append(eid)
                    yield vs, ids, vt, forbid | sup
                    ids.pop()
        elif stack:
            c, cbit, edges, i, eid, sup, h, avail, vt, forbid, par = stack.pop()
            vs.pop()
            ids.pop()
        else:
            return


def _reaches(nb: list[int], budget: _Budget, u: int, blocked: int, near: int) -> bool:
    """True iff a vertex of `near` (those next to target) is reachable from
    u through vertices outside `blocked`; each vertex expanded spends one
    unit of budget.

    A path that has just grown to u can only grow to vertices outside its
    vertex set and the supports of its edges (blocked), so when this is
    False it cannot close onto target.  The search runs breadth first over
    the masks `nb` from both ends, u and `near`, always expanding the
    smaller frontier, and fails as soon as either side has nothing left to
    expand: a side closed off from the other is all it costs.
    """
    free = ~blocked
    fwd = fwd_seen = nb[u] & free
    back = back_seen = near & free
    expanded = 0
    while fwd and back and not fwd_seen & back_seen:
        if fwd.bit_count() > back.bit_count():
            fwd, back, fwd_seen, back_seen = back, fwd, back_seen, fwd_seen
        expanded += fwd.bit_count()
        reach = 0
        while fwd:
            wbit = fwd & -fwd
            fwd ^= wbit
            reach |= nb[wbit.bit_length() - 1]
        fwd = reach & free & ~fwd_seen
        fwd_seen |= fwd
    budget.spend(expanded)
    return bool(fwd_seen & back_seen)


def _cycles_of_length(sys: _System, k: int, budget: _Budget):
    """Odd-parity cycles of exactly k edges as (vertices, edge_ids), each
    once: anchored at its least vertex, in the direction `_paths` fixes."""
    for anchor in range(sys.n):
        abit = 1 << anchor
        for vs, ids, _, _ in _paths(sys, budget, anchor, anchor, abit, abit - 1, 1, k):
            yield tuple(vs), tuple(ids)


def _odd_cycles(sys: _System, shortest: int, step: int, budget: _Budget):
    """All odd-parity cycles of the least length shortest, shortest + step,
    ... that has one, in search order.

    The length-`shortest` pass runs first.  Each later pass would re-grow
    the paths of the pass before it, so before any later pass the split
    walk `_shortest_split_cycle` runs once instead, if it has at most n
    leaves (`_split_cost` <= n * m, a property of the host) or once the
    passes have spent the most it can cost.  It gives the length L of a
    shortest odd cycle, or None, and a None ends the search.  Otherwise one
    pass of length L runs: the passes alone would find nothing before it
    and hits in it, so its hits are theirs.  Hosts with more leaves, whose
    passes end before the bound, never split.
    """
    n_m = sys.n * len(sys.support)
    cost = _split_cost(sys, max(budget.left, n_m))
    few_leaves, split_at = cost <= n_m, budget.left - cost
    for k in range(shortest, sys.cycle_cap() + 1, step):
        budget.length = k
        if k > shortest and (few_leaves or budget.left <= split_at):
            budget.splitting = True
            length = _shortest_split_cycle(sys, budget, k)
            budget.splitting = False
            if length is None:
                return
            budget.length, budget.exists = length, True
            found = False
            for hit in _cycles_of_length(sys, length, budget):
                found = True
                yield hit
            if not found:
                raise InternalConsistencyError(f"{budget.what}-search",
                                               f"the split's length-{length} cycle was not found")
            return
        found = False
        for hit in _cycles_of_length(sys, k, budget):
            found = True
            yield hit
        if found or budget.longest < k:
            return


def _split_cost(sys: _System, cap: int) -> int:
    """Most units the balance tests of `_shortest_split_cycle` can spend,
    the number of edges times the leaf count prod(1 + C(|e|, 2)) over the
    edges e of size >= 3; cap + 1 if above cap."""
    cost = len(sys.support)
    for sup in sys.support:
        size = sup.bit_count()
        if size > 2:
            cost *= 1 + size * (size - 1) // 2
            if cost > cap:
                return cap + 1
    return cost


def _shortest_split_cycle(sys: _System, budget: _Budget, least: int) -> int | None:
    """Length of a shortest cycle of odd parity in the host, None if it has
    none; it stops early at `least`, below which the caller knows there is
    none.  Each edge a union-find unites, and each state a BFS reaches,
    spends one unit of budget.

    The edges e of size >= 3 are split in turn, depth first on an explicit
    stack: e is dropped, or kept as one pair {a, b} of its vertices with
    the others deleted from every edge.  An edge left with fewer than two
    vertices is dropped (one left with two needs no drop: keeping it only
    adds an edge).  Each leaf is a signed multigraph, an edge per kept pair
    with parity `pair_parity`, and Harary's balance test (1953) on it is a
    parity union-find (`_odd_sources`).  An odd cycle C of the host lies in the leaf that
    keeps each big edge of C as its pair on C and drops the others, as no
    deleted vertex is on C; conversely, a leaf edge taken from e meets the
    leaf's vertices only in its pair, so an odd cycle of a leaf is an odd
    cycle of the host.  The shortest odd cycle of the host is thus the
    least, over the unbalanced leaves, of the leaf's own shortest one,
    which `_shortest_odd_closed_walk` finds; each such BFS stops at half
    the least length found so far.
    """
    support, n = sys.support, sys.n
    big = [eid for eid, sup in enumerate(support) if sup.bit_count() > 2]
    pairs = [_arc(sys, eid, sup) for eid, sup in enumerate(support) if sup.bit_count() == 2]
    stack = [(0, 0, pairs)]  # (next big edge, deleted vertices, edges to unite)
    best = None
    while stack:
        i, gone, arcs = stack.pop()
        if i < len(big):
            eid = big[i]
            sup = support[eid] & ~gone
            if sup.bit_count() != 2:
                stack.append((i + 1, gone, arcs))
            for a, b in itertools.combinations(_bits(sup), 2):
                pair = 1 << a | 1 << b
                stack.append((i + 1, gone | sup & ~pair, arcs + [_arc(sys, eid, pair)]))
            continue
        budget.spend(len(arcs))
        live = [arc for arc in arcs if not arc[0] & gone]
        sources = _odd_sources(n, live)
        if sources:
            hit = _shortest_odd_closed_walk(n, live, sources, budget, best)
            if hit is not None:
                best = len(hit[0])
                if best == least:
                    return best
    return best


def _odd_sources(n: int, arcs) -> int:
    """One past the greatest s such that the arcs (as `_arc` gives them)
    among the vertices >= s form an unbalanced signed graph; 0 if the arcs
    are balanced.

    The arcs are united by descending least vertex a, so at the first
    contradiction, at a, those among the vertices > a are balanced: no odd
    cycle has its least vertex above a, and no BFS from there can find one.
    """
    leaf = list(range(n)), [0] * n, [1] * n
    for _, _, a, b, par in sorted(arcs, key=itemgetter(2), reverse=True):
        if not _unite(*leaf, a, b, par):
            return a + 1
    return 0


def _arc(sys: _System, eid: int, pair: int):
    """(pair, eid, a, b, parity) for the vertex pair `pair` of edge eid."""
    a, b = (pair & -pair).bit_length() - 1, pair.bit_length() - 1
    return pair, eid, a, b, sys.pair_parity(eid, a, b)


def _shortest_odd_closed_walk(n: int, arcs, sources: int, budget: _Budget | None = None,
                              bound: int | None = None):
    """Shortest cycle of odd parity in the signed multigraph on the vertices
    0, ..., n - 1 whose edges are `arcs` (as `_arc` gives them), as
    (vertices, edge_ids); None if it has none shorter than `bound`, or none
    whose least vertex is below `sources`.  With a budget, each state
    reached spends one unit.  Both callers pass `_odd_sources`' bound: the
    graph among the vertices >= that bound is balanced, so a BFS from there
    finds nothing, and a long ring numbered along itself runs one BFS.

    Every edge has two vertices, so every cycle of the host is a partial
    subhypergraph, and the shortest odd-parity closed walk is such a cycle:
    a walk that repeats a vertex splits there into two closed walks, one of
    them odd and shorter, and a walk over one edge and back has even
    parity.  For an unsigned host every pair has parity 1, so odd parity
    means odd length (at least 3); a mixed host may close in two arcs.

    The search runs breadth first on the parity double cover, whose states
    are (vertex, parity), from each source s over the vertices >= s, so each
    cycle is seen from its least vertex.  Two BFS paths from (s, 0) that end
    in (v, q) and (v, 1 - q) close an odd walk through s; on a shortest such
    walk of length W the middle vertex is reached from both sides within
    depth W // 2, so a BFS stops once its depth reaches half the best length
    found, or half `bound`.  A BFS that runs out of states without closing
    any odd walk proves its component among the vertices >= s balanced, and
    those vertices are not tried as sources, so a balanced component costs
    one BFS.
    """
    adj = [[] for _ in range(n)]
    for _, eid, a, b, par in arcs:
        adj[a].append((eid, b, par))
        adj[b].append((eid, a, par))
    dist = [-1] * (2 * n)
    parent = [None] * (2 * n)
    balanced = bytearray(n)
    best_len = n + 1 if bound is None else bound
    best = None

    def path_to(state):
        vs, ids = [], []
        while parent[state] is not None:
            prev, eid = parent[state]
            vs.append(state >> 1)
            ids.append(eid)
            state = prev
        vs.append(state >> 1)
        return vs[::-1], ids[::-1]

    for s in range(sources):
        if balanced[s]:
            continue
        seen = [2 * s]
        dist[2 * s] = 0
        level = [2 * s]
        depth = 0
        odd = False
        while level and 2 * depth < best_len:
            nxt = []
            for st in level:
                p = st & 1
                for eid, v, par in adj[st >> 1]:
                    if v < s:
                        continue
                    t = 2 * v + (p ^ par)
                    if dist[t] < 0:
                        dist[t] = depth + 1
                        parent[t] = (st, eid)
                        seen.append(t)
                        nxt.append(t)
                    back = dist[t ^ 1]
                    if back < 0:
                        continue
                    odd = True
                    if depth + 1 + back < best_len:
                        best_len = depth + 1 + back
                        vs_a, ids_a = path_to(st)
                        vs_b, ids_b = path_to(t ^ 1)
                        best = (vs_a + vs_b[:0:-1], ids_a + [eid] + ids_b[::-1])
            level = nxt
            depth += 1
        if budget is not None:
            budget.spend(len(seen))
        component_balanced = not level and not odd
        for st in seen:
            if component_balanced:
                balanced[st >> 1] = 1
            dist[st] = -1
            parent[st] = None
    return None if best is None else (tuple(best[0]), tuple(best[1]))


def _find_cycle(sys: _System, shortest: int, step: int, budget: _Budget):
    """Shortest odd-parity cycle of length shortest, shortest + step, ...

    A graph host runs the parity BFS only from the sources below
    `_odd_sources`' bound, and a balanced one none at all: a BFS from a
    source above it sees a balanced graph, so it would find no odd walk."""
    if sys.is_graph():
        arcs = [_arc(sys, eid, sup) for eid, sup in enumerate(sys.support) if sup.bit_count() == 2]
        sources = _odd_sources(sys.n, arcs)
        return _shortest_odd_closed_walk(sys.n, arcs, sources) if sources else None
    return next(_odd_cycles(sys, shortest, step, budget), None)


def _search(host, max_nodes: int, kind: _Kind | None = None, *, cycle: bool = True,
            tree_house: bool = True):
    """A shortest odd cycle in host, else its first odd tree house, each
    re-verified; None when the phases run find neither.  `kind` defaults to
    the table entry of the host's type, and an explicit `kind` must be it."""
    kind = _kind(host, kind)
    sys = _System(host)
    w = None
    if cycle:
        budget = _Budget(max_nodes, kind.cycle.kind)
        w = _checked(host, kind.cycle, kind.cycle_phase,
                     _find_cycle(sys, kind.shortest, kind.step, budget))
    if w is None and tree_house:
        budget = _Budget(max_nodes, kind.tree_house.kind, kind.cycle.kind if cycle else "")
        w = _checked(host, kind.tree_house, kind.tree_house_phase,
                     _tree_house_search(sys, budget))
    return w


def _kind(host, kind: _Kind | None = None) -> _Kind:
    """The table entry of the host's type; an explicit `kind` must be it."""
    own = _KINDS.get(type(host))
    if own is None or kind not in (None, own):
        want = next((t.__name__ for t, k in _KINDS.items() if k is kind), "hypergraph")
        raise InputError(f"expected a {want}, got {type(host).__name__}")
    return own


def _checked(host, cls, phase: str, hit):
    """Witness of class `cls` from a search hit, re-verified; None for no hit."""
    if hit is None:
        return None
    w = cls(*hit)
    if not verify_witness(host, w):
        raise InternalConsistencyError(phase, "search emitted an invalid witness")
    return w


def find_odd_cycle(g: Hypergraph, max_nodes: int = DEFAULT_SEARCH_BUDGET):
    """Shortest odd cycle in g as a partial subhypergraph, or None.

    Graph hosts are decided by a polynomial parity BFS; other hosts by
    complete backtracking, where exceeding the node budget raises, it never
    silently reports absence.
    """
    return _search(g, max_nodes, _KINDS[Hypergraph], tree_house=False)


def find_mixed_odd_cycle(d: MixedHypergraph, max_nodes: int = DEFAULT_SEARCH_BUDGET):
    """Shortest mixed odd cycle in d, or None; length-2 cycles are legal."""
    return _search(d, max_nodes, _KINDS[MixedHypergraph], tree_house=False)


def shortest_odd_cycles(g: Hypergraph, max_nodes: int = DEFAULT_SEARCH_BUDGET):
    """All odd cycles of minimum length, in search order (empty if none)."""
    _kind(g, _KINDS[Hypergraph])
    return [OddCycleWitness(*hit)
            for hit in _odd_cycles(_System(g), 3, 2, _Budget(max_nodes))]


def _tree_house_search(sys: _System, budget: _Budget):
    """First (root, leaves, paths, path_edge_ids, h_id) tree house, or None.

    Path i must close with parity equal to the parity of h restricted to
    {root, leaf_i}, so that each path-plus-h cycle is even.  For an all-head
    host this forces every path odd.
    """
    inc = sys.inc
    for hid, hsup in enumerate(sys.support):
        if hsup.bit_count() < 4:
            continue
        # each leaf ends its path on an edge other than h, and the root starts
        # its three paths on three distinct edges other than h; quads and
        # roots without them are skipped, which leaves the search order as is
        content = [v for v in _bits(hsup) if len(inc[v]) >= 2]
        for quad in itertools.combinations(content, 4):
            qmask = 0
            for v in quad:
                qmask |= 1 << v
            for root in quad:
                if len(inc[root]) < 4:
                    continue
                leaves = tuple(v for v in quad if v != root)
                wants = tuple(sys.pair_parity(hid, root, leaf) for leaf in leaves)
                hit = _leaf_paths(sys, budget, root, leaves, wants, qmask, hsup)
                if hit is not None:
                    return (root, leaves, hit[0], hit[1], hid)
    return None


def _leaf_paths(sys: _System, budget: _Budget, root: int, leaves, wants, vt: int, forbid: int):
    """First (paths, path_edge_ids) from root to each of `leaves`, sharing
    only the root, path i closing with parity wants[i]; None if none."""
    if not leaves:
        return (), ()
    for vs, ids, vt_i, forbid_i in _paths(sys, budget, root, leaves[0], vt, forbid, wants[0]):
        rest = _leaf_paths(sys, budget, root, leaves[1:], wants[1:], vt_i, forbid_i)
        if rest is not None:
            return ((*vs, leaves[0]),) + rest[0], (tuple(ids),) + rest[1]
    return None


def find_odd_tree_house(g: Hypergraph, max_nodes: int = DEFAULT_SEARCH_BUDGET):
    """First odd tree house in g as a partial subhypergraph, or None."""
    return _search(g, max_nodes, _KINDS[Hypergraph], cycle=False)


def find_mixed_odd_tree_house(d: MixedHypergraph, max_nodes: int = DEFAULT_SEARCH_BUDGET):
    """First mixed odd tree house in d as a partial subhypergraph, or None."""
    return _search(d, max_nodes, _KINDS[MixedHypergraph], cycle=False)


# ---------------------------------------------------------------------------
# Certificate checking (independent of the searches)
# ---------------------------------------------------------------------------


def _vertex_bits(host, vertices) -> list[int]:
    """1 << v for each vertex v, which may be any value that equals an id
    in range(n), as a set compares it (a numpy integer, say); bit n, which
    no edge has, for a value that names no vertex."""
    ids, far = range(host.n_vertices), 1 << host.n_vertices
    bits = []
    for v in vertices:
        try:
            bits.append(1 << ids.index(v))
        except ValueError:
            bits.append(far)
    return bits


def _meets_exactly(host, vt: int, ids, parts) -> bool:
    """True iff `ids` are distinct host edges and edge ids[i] meets the
    vertex set vt in exactly the vertices parts[i], both sums of
    `_vertex_bits`; a part with a bit >= n, from a value that names no
    vertex, never matches."""
    support = host.support_masks
    if len(set(ids)) != len(ids) or min(ids) < 0 or max(ids) >= len(support):
        return False
    for eid, part in zip(ids, parts):
        if support[eid] & vt != part:
            return False
    return True


def _check_cycle(host, vertices, edge_ids) -> bool:
    k = len(vertices)
    if k < 2 or len(edge_ids) != k or len(set(vertices)) != k:
        return False
    bits = _vertex_bits(host, vertices)
    pairs = [a | b for a, b in zip(bits, bits[1:] + bits[:1])]
    return _meets_exactly(host, sum(bits), edge_ids, pairs)


def _check_tree_house(host, w) -> bool:
    quad = {w.root, *w.leaves}
    if not len(w.leaves) == len(w.paths) == len(w.path_edge_ids) == 3 or len(quad) != 4:
        return False
    ids, parts = [w.hyperedge_id], [sum(_vertex_bits(host, quad))]
    for path, path_ids, leaf in zip(w.paths, w.path_edge_ids, w.leaves):
        if (len(path) < 2 or len(path_ids) != len(path) - 1 or path[0] != w.root
                or path[-1] != leaf or len(set(path)) != len(path)):
            return False
        ids += path_ids
        bits = _vertex_bits(host, path)
        parts += [a | b for a, b in zip(bits, bits[1:])]
    vt = {v for path in w.paths for v in path}
    # the three paths share only the root
    return (len(vt) == 1 + sum(len(p) - 1 for p in w.paths)
            and _meets_exactly(host, sum(_vertex_bits(host, vt)), ids, parts))


def _path_parity(host, vertices, edge_ids) -> int:
    """Sum over edge_ids[t] of its parity restricted to {vertices[t],
    vertices[t + 1]} (cyclically): 1 iff both lie on one side of the arc.
    An unsigned host is all-head, so there every restricted parity is 1.
    The vertices are read through `_vertex_bits`, so any id type works."""
    bits, heads = _vertex_bits(host, vertices), host.head_masks
    return sum((not heads[eid] & a) == (not heads[eid] & b)
               for eid, a, b in zip(edge_ids, bits, bits[1:] + bits[:1]))


def verify_witness(host, w) -> bool:
    """Re-check a certificate against its host; independent of the searches.

    It reads only the host's vertex count and its support and head masks,
    never search state: each witness edge must meet the witness's vertex
    mask in exactly its pair (or, for the size-4 edge of a tree house, its
    quad) of vertex bits.  A cycle must have odd parity; each path of a
    tree house, closed by the size-4 edge, must have even parity.  On an
    unsigned host every parity is a length, so the cycle is odd and the
    paths have odd edge counts.  An edge id must be an integer, as
    `operator.index` reads one (a numpy integer is); any other value names
    no edge.
    """
    if type(w) not in _WITNESS_CLASSES.values():
        raise InputError(f"unknown witness type {type(w).__name__}")
    kind = _KINDS.get(type(host))
    if kind is None or type(w) not in (kind.cycle, kind.tree_house):
        return False
    cycle = type(w) is kind.cycle
    try:
        for eid in (w.edge_ids if cycle
                    else (w.hyperedge_id, *itertools.chain.from_iterable(w.path_edge_ids))):
            index(eid)
    except TypeError:
        return False
    if cycle:
        return (_check_cycle(host, w.vertices, w.edge_ids)
                and _path_parity(host, w.vertices, w.edge_ids) % 2 == 1)
    if not _check_tree_house(host, w):
        return False
    # a path runs from the root to its leaf, so the size-4 edge closes it cyclically
    return all(_path_parity(host, path, (*ids, w.hyperedge_id)) % 2 == 0
               for path, ids in zip(w.paths, w.path_edge_ids))


def witness_to_dict(host, w) -> dict:
    """JSON-ready certificate with vertex names and host edge ids."""
    names = host.names
    if isinstance(w, (OddCycleWitness, MixedOddCycleWitness)):
        return {
            "kind": w.kind,
            "vertices": [names[v] for v in w.vertices],
            "edge_ids": list(w.edge_ids),
        }
    if isinstance(w, (OddTreeHouseWitness, MixedOddTreeHouseWitness)):
        return {
            "kind": w.kind,
            "root": names[w.root],
            "leaves": [names[v] for v in w.leaves],
            "paths": [[names[v] for v in p] for p in w.paths],
            "path_edge_ids": [list(ids) for ids in w.path_edge_ids],
            "hyperedge_id": w.hyperedge_id,
        }
    raise InputError(f"unknown witness type {type(w).__name__}")


def _listed(value, field: str):
    # a string iterates as one-character names or digits; it is no list
    if not isinstance(value, (list, tuple)):
        raise InputError(f"certificate field {field!r} must be a list")
    return value


def _vertex_ids(host, names, field: str) -> tuple[int, ...]:
    return tuple(host.vertex_id(nm) for nm in _listed(names, field))


def _edge_ids(ids, field: str) -> tuple[int, ...]:
    if not all(isinstance(e, int) and not isinstance(e, bool) for e in _listed(ids, field)):
        raise InputError(f"certificate field {field!r} must hold integer edge ids")
    return tuple(ids)


def witness_from_dict(host, doc: dict):
    """Parse a certificate produced by `witness_to_dict`."""
    if not isinstance(doc, dict):
        raise InputError("a certificate must be a JSON object")
    try:
        kind = doc["kind"]
        cls = _WITNESS_CLASSES.get(kind) if isinstance(kind, str) else None
        if cls in (OddCycleWitness, MixedOddCycleWitness):
            return cls(_vertex_ids(host, doc["vertices"], "vertices"),
                       _edge_ids(doc["edge_ids"], "edge_ids"))
        if cls is not None:
            return cls(
                root=host.vertex_id(doc["root"]),
                leaves=_vertex_ids(host, doc["leaves"], "leaves"),
                paths=tuple(_vertex_ids(host, p, "paths") for p in _listed(doc["paths"], "paths")),
                path_edge_ids=tuple(_edge_ids(ids, "path_edge_ids")
                                    for ids in _listed(doc["path_edge_ids"], "path_edge_ids")),
                hyperedge_id=_edge_ids([doc["hyperedge_id"]], "hyperedge_id")[0],
            )
    except KeyError as exc:
        raise InputError(f"certificate is missing field {exc}") from None
    raise InputError(f"unknown certificate kind {doc.get('kind')!r}")


# ---------------------------------------------------------------------------
# Unimodularity decisions for disjoint instances
# ---------------------------------------------------------------------------


def _require_disjoint(g) -> None:
    pair = overlapping_proper_edges(g)
    if pair is not None:
        a, b = pair
        sup_a = sorted(g.names[v] for v in g.support(a))
        sup_b = sorted(g.names[v] for v in g.support(b))
        raise NotDisjointError(
            a, b,
            f"input is not disjoint: size->=4 edges {a} {sup_a} and {b} {sup_b} overlap",
        )


def _decide(host, max_nodes: int, kind: _Kind | None = None) -> Decision:
    """TU decision for a disjoint host; `kind` as in `_search`."""
    _kind(host, kind)
    _require_disjoint(host)
    w = _search(host, max_nodes, kind)
    return Decision(tu=w is None, witness=w)


def decide_unimodular_disjoint(g: Hypergraph,
                               max_nodes: int = DEFAULT_SEARCH_BUDGET) -> Decision:
    """TU decision for a disjoint hypergraph via forbidden-structure search."""
    return _decide(g, max_nodes, _KINDS[Hypergraph])


def decide_unimodular_mixed_disjoint(d: MixedHypergraph,
                                     max_nodes: int = DEFAULT_SEARCH_BUDGET) -> Decision:
    """TU decision for a disjoint mixed hypergraph via native mixed search."""
    return _decide(d, max_nodes, _KINDS[MixedHypergraph])


# ---------------------------------------------------------------------------
# Odd cycle packing number (graphs only)
# ---------------------------------------------------------------------------


def compute_ocp(g: Hypergraph, max_vertices: int = 12) -> int:
    """Maximum number of vertex-disjoint odd cycles, by exhaustive packing.

    Any odd cycle contains a chordless odd cycle on a subset of its vertices,
    so packings by induced odd cycles are optimal and it suffices to search
    those.
    """
    if not g.is_graph():
        raise InputError("odd cycle packing is defined for graphs (all edges size 2)")
    n = g.n_vertices
    if n > max_vertices:
        raise SizeGuardError(f"desk-scale exceeded: {n} vertices > {max_vertices}")
    adj = [0] * n
    for a, b in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    def induces_cycle(mask: int) -> bool:
        members = list(_bits(mask))
        for v in members:
            if bin(adj[v] & mask).count("1") != 2:
                return False
        seen = 1 << members[0]
        frontier = [members[0]]
        while frontier:
            v = frontier.pop()
            for u in _bits(adj[v] & mask & ~seen):
                seen |= 1 << u
                frontier.append(u)
        return seen == mask

    cycles = [
        mask
        for size in range(3, n + 1, 2)
        for vs in itertools.combinations(range(n), size)
        if induces_cycle(mask := sum(1 << v for v in vs))
    ]

    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        if mask not in memo:
            memo[mask] = max(
                (1 + best(mask & ~c) for c in cycles if c & mask == c), default=0
            )
        return memo[mask]

    return best((1 << n) - 1)
