import pytest

from tuhyper import core
from tuhyper.core import Hypergraph, SubSelection
from tuhyper.errors import InputError, InternalConsistencyError, PreconditionError
from tuhyper.detect import find_odd_cycle
from tuhyper.gen import GenConfig, Xoshiro256StarStar, generate
from tuhyper.quasi import _closed_walk_parity, _preimages, conflicts


def _items(host, sub_edges, phi):
    """Sub edges given by host vertex names, as items (vertex ids, host edge)."""
    return [(frozenset(host.vertex_id(nm) for nm in e), hid) for e, hid in zip(sub_edges, phi)]


def _vset(items):
    return frozenset().union(*(content for content, _ in items))


def _inclusion(host, sel):
    """Items of host[U, F], each trace mapped to its own edge, and U."""
    us = frozenset(sel.vertices)
    items = [(frozenset(host.edges[e]) & us, e) for e in sel.edge_ids]
    return [(content, e) for content, e in items if content], us


def _restrict(items, us, fs):
    """Items of the sub edges fs traced on the sub vertices us (positions)."""
    vs = sorted(_vset(items))
    keep = frozenset(vs[i] for i in us)
    out = [(items[f][0] & keep, items[f][1]) for f in fs]
    return [(content, hid) for content, hid in out if content], keep


def _five_cycle_into_host():
    # a 5-cycle mapped into a host whose long edge absorbs one cycle edge;
    # the host edge keeps an extra cycle vertex, so it is a conflict
    host = Hypergraph.from_names(
        ["u0", "u1", "u2", "u3", "u4"],
        [["u1", "u2"], ["u0", "u1"], ["u0", "u4"], ["u3", "u4"], ["u0", "u2", "u3"]])
    items = _items(host, [["u1", "u2"], ["u0", "u1"], ["u0", "u4"], ["u3", "u4"],
                          ["u2", "u3"]], (0, 1, 2, 3, 4))
    return host, items


def _six_cycle_into_host():
    # a 6-cycle whose opposite edges both map to one size-4 host edge
    host = Hypergraph.from_names(
        ["v0", "v1", "v2", "v3", "v4", "v5"],
        [["v0", "v1"], ["v1", "v2"], ["v3", "v4"], ["v4", "v5"],
         ["v0", "v2", "v3", "v5"]])
    items = _items(host, [["v0", "v1"], ["v1", "v2"], ["v2", "v3"], ["v3", "v4"],
                          ["v4", "v5"], ["v0", "v5"]], (0, 1, 4, 2, 3, 4))
    return host, items


def test_five_cycle_embedding_is_quasi():
    assert _preimages(*_five_cycle_into_host()) is not None


def test_six_cycle_embedding_is_quasi():
    assert _preimages(*_six_cycle_into_host()) is not None


def test_overlapping_preimages_violate_q2():
    host = Hypergraph.from_names("abc", [["a", "b", "c"]])
    items = _items(host, [["a", "b"], ["b", "c"]], (0, 0))
    assert _preimages(host, items) is None
    with pytest.raises(PreconditionError):
        conflicts(host, items, _vset(items))
    # Q1: an item outside its host edge
    with pytest.raises(PreconditionError):
        conflicts(host, [(frozenset({0, 1}), 0), (frozenset({0, 2}), 0)], {0, 1, 2})


def test_vertex_removal_edge_is_a_conflict():
    host, items = _five_cycle_into_host()
    assert conflicts(host, items, _vset(items)) == [4]


def test_split_edge_is_a_conflict_too():
    # every preimage misses part of the host edge's trace, so splitting a
    # hyperedge into a matching is a conflict as well: were it conflict-free,
    # the embedding would be a partial subhypergraph, but the edge map here
    # is not even injective
    host, items = _six_cycle_into_host()
    assert conflicts(host, items, _vset(items)) == [4]


def test_inclusion_embeddings_are_partial():
    g = core.fixture("fig2")
    items, us = _inclusion(g, SubSelection((0, 1, 2), (0, 2, 3)))
    assert conflicts(g, items, us) == []
    assert len({hid for _, hid in items}) == len(items)


def test_dangling_references_rejected():
    host = Hypergraph.from_names("ab", [["a", "b"]])
    with pytest.raises(InputError):
        conflicts(host, [(frozenset({0, 7}), 0)], {0, 7})  # no host vertex 7
    with pytest.raises(InputError):
        conflicts(host, [(frozenset({0, 1}), 5)], {0, 1})  # no host edge 5


def test_restrict_never_grows_conflicts():
    rng = Xoshiro256StarStar(21)
    host, items = _five_cycle_into_host()
    base = set(conflicts(host, items, _vset(items)))
    for _ in range(50):
        us = tuple(sorted(rng.sample(range(5), 1 + rng.randrange(5))))
        fs = tuple(sorted(rng.sample(range(5), 1 + rng.randrange(5))))
        sub, keep = _restrict(items, us, fs)
        assert set(conflicts(host, sub, keep)) <= base


def test_restrict_avoiding_conflict_preimages_is_partial():
    host, items = _five_cycle_into_host()
    # drop the edge mapped into the conflict; what remains is partial
    sub, keep = _restrict(items, range(5), (0, 1, 2, 3))
    assert conflicts(host, sub, keep) == []


def test_add_edge_closes_a_path_into_a_cycle():
    c4 = core.fixture("c4")
    path, us = _inclusion(c4, SubSelection((0, 1, 2, 3), (0, 1, 2)))
    closed = path + [(frozenset(c4.edges[3]) & us, 3)]
    assert conflicts(c4, closed, us) == []
    assert [hid for _, hid in closed] == [0, 1, 2, 3]


def test_add_edge_preserves_conflicts_random():
    for trial in range(120):
        g, _ = generate(GenConfig(seed=600 + trial, n_vertices=4 + trial % 4,
                                  n_small_edges=2 + trial % 4,
                                  proper_edge_sizes=((3,), (4,))[trial % 2],
                                  disjoint=False))
        rng = Xoshiro256StarStar(trial)
        us = tuple(sorted(rng.sample(range(g.n_vertices),
                                     2 + rng.randrange(g.n_vertices - 1))))
        fs = tuple(sorted(rng.sample(range(g.n_edges),
                                     1 + rng.randrange(g.n_edges))))
        items, vset = _inclusion(g, SubSelection(us, fs))
        used = {hid for _, hid in items}
        fresh = [e for e in range(g.n_edges)
                 if e not in used and set(g.edges[e]) & set(us)]
        if not fresh:
            continue
        before = conflicts(g, items, vset)
        added = items + [(frozenset(g.edges[fresh[0]]) & vset, fresh[0])]
        assert conflicts(g, added, vset) == before


def test_walk_parity_on_even_cycle_host():
    c4 = core.fixture("c4")
    path, us = _inclusion(c4, SubSelection((0, 1, 2, 3), (0, 1, 2)))
    assert _closed_walk_parity(c4, path, us, [3]) == 1


def test_walk_parity_two_disjoint_walks():
    # two paths closed by two host edges into one even closed walk
    host = Hypergraph.from_names(
        "abcdef",
        [["a", "b"], ["b", "c"], ["d", "e"], ["e", "f"], ["a", "d"], ["c", "f"]])
    both, us = _inclusion(host, SubSelection(tuple(range(6)), (0, 1, 2, 3)))
    assert _closed_walk_parity(host, both, us, [4, 5]) == 0


def test_walk_parity_flags_violation_when_check_is_skipped():
    # force the closed-walk argument onto a host that does contain an odd
    # cycle: the parity mismatch must surface as an internal-consistency error
    host = Hypergraph.from_names(
        "abc", [["a", "b"], ["b", "c"], ["a", "c"]])
    path, us = _inclusion(host, SubSelection((0, 1, 2), (0, 1)))
    with pytest.raises(InternalConsistencyError):
        _closed_walk_parity(host, path, us, [2])


def test_walk_parity_rejects_bad_closing_edge():
    c4 = core.fixture("c4")
    path, us = _inclusion(c4, SubSelection((0, 1, 2, 3), (0, 1, 2)))
    with pytest.raises(PreconditionError):
        _closed_walk_parity(c4, path, us, [1])  # already on the walk


def _simple_paths(g, start):
    # all simple paths from start, as (vertex tuple, edge tuple)
    out = []
    stack = [((start,), ())]
    while stack:
        vs, es = stack.pop()
        if len(vs) > 1:
            out.append((vs, es))
        for eid, edge in enumerate(g.edges):
            if len(edge) != 2 or eid in es or vs[-1] not in edge:
                continue
            nxt = edge[0] if edge[1] == vs[-1] else edge[1]
            if nxt in vs:
                continue
            stack.append((vs + (nxt,), es + (eid,)))
    return out


def test_closed_walk_parity_exhaustive_on_odd_cycle_free_hosts():
    checked = 0
    for trial in range(200):
        g, _ = generate(GenConfig(seed=800 + trial, n_vertices=4 + trial % 4,
                                  n_small_edges=3 + trial % 4,
                                  proper_edge_sizes=((), (4,))[trial % 2]))
        if find_odd_cycle(g) is not None:
            continue
        for start in range(g.n_vertices):
            for vs, es in _simple_paths(g, start):
                items, us = _inclusion(g, SubSelection(tuple(sorted(vs)), tuple(sorted(es))))
                ends = {vs[0], vs[-1]}
                for eid, edge in enumerate(g.edges):
                    if eid in es:
                        continue
                    if set(edge) & set(vs) == ends:
                        assert _closed_walk_parity(g, items, us, [eid]) == 1
                        checked += 1
    assert checked > 50
