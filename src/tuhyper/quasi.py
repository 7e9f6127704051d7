"""Quasi-subhypergraph calculus: embeddings (H, phi), conflicts, restriction,
edge addition, and the closed-walk parity check.  Witness extraction runs on
the same calculus, over the (vertex set, host edge) items of its candidates.

A quasi-embedding maps each sub edge f to a host edge phi(f) with f a subset
of phi(f) (Q1) and, per host edge, pairwise disjoint preimages (Q2).  Sub and
host vertices are identified by name.  A host edge e is a conflict when its
preimage is nonempty but no preimage edge covers all of e's vertices inside
the sub; conflict-free embeddings are exactly the partial subhypergraphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Hypergraph, SubSelection, induce
from .errors import InputError, InternalConsistencyError, PreconditionError

__all__ = [
    "QuasiEmbedding",
    "ConflictReport",
    "inclusion",
    "verify_quasi",
    "conflicts",
    "is_partial",
    "restrict",
    "add_edge",
    "walk_parity_closed",
    "embedding_to_dict",
    "embedding_from_dict",
]


@dataclass(frozen=True)
class QuasiEmbedding:
    host: Hypergraph
    sub: Hypergraph
    phi: tuple[int, ...]

    def __post_init__(self):
        if len(self.phi) != self.sub.n_edges:
            raise InputError("phi must assign a host edge to every sub edge")
        for hid in self.phi:
            if not 0 <= hid < self.host.n_edges:
                raise InputError(f"phi references unknown host edge {hid}")
        vmap = tuple(self.host.vertex_id(nm) for nm in self.sub.names)
        object.__setattr__(self, "_vmap", vmap)

    @property
    def vmap(self) -> tuple[int, ...]:
        """Sub vertex id -> host vertex id (matched by name)."""
        return self._vmap  # type: ignore[attr-defined]

    def sub_edge_in_host(self, f: int) -> frozenset[int]:
        return frozenset(self.vmap[v] for v in self.sub.edges[f])

    def sub_vertices_in_host(self) -> frozenset[int]:
        return frozenset(self.vmap)


@dataclass(frozen=True)
class ConflictReport:
    """Conflicting host edges, each with its lowest-id witnessing sub edge."""

    conflicts: tuple[int, ...]
    witnesses: tuple[int, ...]

    def __bool__(self) -> bool:
        return bool(self.conflicts)


def inclusion(host: Hypergraph, sel: SubSelection) -> QuasiEmbedding:
    """The canonical embedding of host[U, F], mapping each trace to its edge."""
    ind = induce(host, sel)
    return QuasiEmbedding(host, ind.sub, ind.origin)


# The calculus runs on items, (frozenset of host vertex ids, host edge id) pairs
# in sub edge order; the public functions below and witness extraction use it.


def _preimages(host: Hypergraph, items):
    """Item contents by host edge, or None unless Q1 (each item inside its
    host edge) and Q2 (disjoint preimages) hold."""
    preimages: dict[int, list[frozenset[int]]] = {}
    for content, hid in items:
        if not content <= set(host.edges[hid]):
            return None
        preimages.setdefault(hid, []).append(content)
    # parts are pairwise disjoint iff their sizes add up to their union's
    if any(sum(map(len, parts)) != len(frozenset().union(*parts))
           for parts in preimages.values()):
        return None
    return preimages


def _conflicts(host: Hypergraph, items, vset) -> list[int]:
    """Ascending host edges whose every preimage misses part of their trace
    on the sub's vertex set `vset`; PreconditionError unless Q1/Q2 hold."""
    preimages = _preimages(host, items)
    if preimages is None:
        raise PreconditionError("embedding violates Q1/Q2")
    return [hid for hid, parts in sorted(preimages.items())
            if frozenset(host.edges[hid]) & vset not in parts]


def _is_partial(host: Hypergraph, items, vset) -> bool:
    if _conflicts(host, items, vset):
        return False
    if len({hid for _, hid in items}) != len(items):
        raise InternalConsistencyError(
            "conflict-free-injectivity", "conflict-free embedding with non-injective phi"
        )
    return True


def _closed_walk_parity(host: Hypergraph, items, vset, closers) -> int:
    """Closed-walk parity over items that form one or two walks of size-2
    edges, closed by the traces of one or two host edges `closers`.

    Every structural precondition raises PreconditionError; a walk whose
    edge count has the wrong parity raises InternalConsistencyError.
    """
    if not _is_partial(host, items, vset):
        raise PreconditionError("embedding is not a partial subhypergraph")
    if any(len(content) != 2 for content, _ in items):
        raise PreconditionError("the embedded walk must consist of size-2 edges")
    used = {hid for _, hid in items}
    traces = []
    for hid in closers:
        if not 0 <= hid < host.n_edges:
            raise InputError(f"unknown host edge {hid}")
        if hid in used:
            raise PreconditionError(f"closing edge {hid} already lies in the walk")
        trace = frozenset(host.edges[hid]) & vset
        if len(trace) != 2:
            raise PreconditionError(
                f"closing edge {hid} must meet the walk in exactly two vertices"
            )
        traces.append(trace)
    if len(traces) == 2 and (traces[0] & traces[1]):
        raise PreconditionError("the four endpoints must be distinct")
    if not _euler_closed([content for content, _ in items] + traces):
        raise PreconditionError("closing the walk(s) does not yield a closed walk")
    forced = 1 if len(traces) == 1 else 0
    if len(items) % 2 != forced:
        raise InternalConsistencyError(
            "closed-walk-parity",
            f"walk has {len(items)} edges but parity {forced} is forced",
        )
    return forced


def _items(q: QuasiEmbedding):
    return [(q.sub_edge_in_host(f), q.phi[f]) for f in range(q.sub.n_edges)]


def verify_quasi(q: QuasiEmbedding) -> bool:
    """True iff Q1 (f inside phi(f)) and Q2 (disjoint preimages) hold."""
    return _preimages(q.host, _items(q)) is not None


def conflicts(q: QuasiEmbedding) -> ConflictReport:
    """Host edges whose every preimage misses part of the edge's sub trace."""
    bad = _conflicts(q.host, _items(q), q.sub_vertices_in_host())
    return ConflictReport(tuple(bad), tuple(q.phi.index(hid) for hid in bad))


def is_partial(q: QuasiEmbedding) -> bool:
    """True iff conflict-free; a conflict-free phi must also be injective."""
    return _is_partial(q.host, _items(q), q.sub_vertices_in_host())


def restrict(q: QuasiEmbedding, sel: SubSelection) -> QuasiEmbedding:
    """Restrict the embedding to sub[U, F], composing the edge map."""
    sel.validate(q.sub)
    ind = induce(q.sub, sel)
    return QuasiEmbedding(q.host, ind.sub, tuple(q.phi[f] for f in ind.origin))


def add_edge(q: QuasiEmbedding, host_edge: int) -> QuasiEmbedding:
    """Adjoin the trace of a fresh host edge to the sub, mapped to that edge."""
    if not 0 <= host_edge < q.host.n_edges:
        raise InputError(f"unknown host edge {host_edge}")
    if host_edge in q.phi:
        raise PreconditionError(f"host edge {host_edge} is already in the image of phi")
    trace = frozenset(q.host.edges[host_edge]) & q.sub_vertices_in_host()
    if not trace:
        raise PreconditionError(f"host edge {host_edge} misses the sub's vertex set")
    back = {h: s for s, h in enumerate(q.vmap)}
    new_edge = tuple(sorted(back[v] for v in trace))
    sub = Hypergraph(q.sub.names, q.sub.edges + (new_edge,))
    return QuasiEmbedding(q.host, sub, q.phi + (host_edge,))


def embedding_to_dict(q: QuasiEmbedding) -> dict:
    """JSON-ready form: sub vertices/edges by name, phi by host edge id."""
    return {
        "vertices": list(q.sub.names),
        "edges": [[q.sub.names[v] for v in e] for e in q.sub.edges],
        "phi": list(q.phi),
    }


def embedding_from_dict(host: Hypergraph, doc: dict) -> QuasiEmbedding:
    sub = Hypergraph.from_names(doc["vertices"], doc["edges"])
    return QuasiEmbedding(host, sub, tuple(int(x) for x in doc["phi"]))


def _euler_closed(edges: list[frozenset[int]]) -> bool:
    """Connected with all degrees even, i.e. carries a closed walk."""
    degree: dict[int, int] = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    if not degree or any(d % 2 for d in degree.values()):
        return False
    seen = {next(iter(degree))}
    frontier = [next(iter(seen))]
    while frontier:
        v = frontier.pop()
        for e in edges:
            if v in e:
                for w in e:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
    return seen == set(degree)


def walk_parity_closed(q: QuasiEmbedding, closing_edge: int,
                       second_edge: int | None = None, *,
                       host_odd_cycle_checked: bool = False) -> int:
    """Parity forced on |E(sub)| by closing the embedded walk(s).

    With one closing edge whose trace is the walk's two endpoints the count
    must be odd (returns 1); with two closing edges joining the endpoints of
    two disjoint walks it must be even (returns 0).  Requires a host with no
    odd cycle; the actual parity is recomputed and a mismatch raises
    InternalConsistencyError, so callers can use this as a checked assertion.
    """
    if not host_odd_cycle_checked:
        from .detect import find_odd_cycle

        if find_odd_cycle(q.host) is not None:
            raise PreconditionError("host contains an odd cycle")
    closers = [closing_edge] + ([] if second_edge is None else [second_edge])
    return _closed_walk_parity(q.host, _items(q), q.sub_vertices_in_host(), closers)
