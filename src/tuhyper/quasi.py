"""Quasi-subhypergraph calculus: Q1/Q2, conflicts and the closed-walk parity
check, which witness extraction runs on its reductions and candidates.

A quasi-embedding maps each sub edge f to a host edge phi(f) with f inside
phi(f) (Q1) and, per host edge, pairwise disjoint preimages (Q2).  It is
given as items, one (frozenset of host vertex ids, phi(f)) pair per sub
edge.  A host edge is a conflict when no preimage covers its whole trace on
the sub; conflict-free embeddings are exactly the partial subhypergraphs.
"""

from __future__ import annotations

from collections import Counter

from .core import Hypergraph
from .errors import InputError, InternalConsistencyError, PreconditionError

__all__ = ["conflicts"]


def _preimages(host: Hypergraph, items):
    """Item contents by host edge, or None unless Q1 (each item inside its
    host edge) and Q2 (disjoint preimages) hold."""
    preimages: dict[int, list[frozenset[int]]] = {}
    for content, hid in items:
        if not 0 <= hid < host.n_edges:
            raise InputError(f"unknown host edge {hid}")
        if not content <= set(host.edges[hid]):
            return None
        preimages.setdefault(hid, []).append(content)
    # parts are pairwise disjoint iff their sizes add up to their union's
    if any(sum(map(len, parts)) != len(frozenset().union(*parts))
           for parts in preimages.values()):
        return None
    return preimages


def conflicts(host: Hypergraph, items, vset) -> list[int]:
    """Ascending host edges whose every preimage misses part of their trace
    on the sub's vertex set `vset`; PreconditionError unless Q1/Q2 hold."""
    preimages = _preimages(host, items)
    if preimages is None:
        raise PreconditionError("embedding violates Q1/Q2")
    return [hid for hid, parts in sorted(preimages.items())
            if frozenset(host.edges[hid]) & vset not in parts]


def _closed_walk_parity(host: Hypergraph, items, vset, closers) -> int:
    """Parity forced on the item count when the items, one or two walks of
    size-2 edges, are closed by the traces of the host edges `closers`: odd
    (1) for one closer, even (0) for two.  A broken precondition raises
    PreconditionError; on a host with no odd cycle the count has the forced
    parity, and a mismatch raises InternalConsistencyError.
    """
    if conflicts(host, items, vset):
        raise PreconditionError("embedding is not a partial subhypergraph")
    used = {hid for _, hid in items}
    if len(used) != len(items):
        raise InternalConsistencyError("conflict-free-injectivity",
                                       "conflict-free embedding with non-injective phi")
    if any(len(content) != 2 for content, _ in items):
        raise PreconditionError("the embedded walk must consist of size-2 edges")
    traces = []
    for hid in closers:
        if not 0 <= hid < host.n_edges:
            raise InputError(f"unknown host edge {hid}")
        if hid in used:
            raise PreconditionError(f"closing edge {hid} already lies in the walk")
        trace = frozenset(host.edges[hid]) & vset
        if len(trace) != 2:
            raise PreconditionError(f"closing edge {hid} must meet the walk in "
                                    "exactly two vertices")
        traces.append(trace)
    if len(traces) == 2 and (traces[0] & traces[1]):
        raise PreconditionError("the four endpoints must be distinct")
    if not _euler_closed([content for content, _ in items] + traces):
        raise PreconditionError("closing the walk(s) does not yield a closed walk")
    forced = 1 if len(traces) == 1 else 0
    if len(items) % 2 != forced:
        raise InternalConsistencyError(
            "closed-walk-parity", f"walk has {len(items)} edges but parity {forced} is forced")
    return forced


def _euler_closed(edges: list[frozenset[int]]) -> bool:
    """Connected with all degrees even, i.e. carries a closed walk."""
    degree = Counter(v for e in edges for v in e)
    if not degree or any(d % 2 for d in degree.values()):
        return False
    seen: set[int] = set()
    frontier = [next(iter(degree))]
    while frontier:
        v = frontier.pop()
        if v not in seen:
            seen.add(v)
            frontier.extend(w for e in edges if v in e for w in e)
    return seen == set(degree)
