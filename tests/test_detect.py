import dataclasses
import gc
import inspect
import itertools
import random
import sys
import time

import numpy as np
import pytest

from tuhyper import core, detect, linalg
from tuhyper.core import Hypergraph, MixedHypergraph
from tuhyper.detect import (
    DEFAULT_SEARCH_BUDGET,
    _Budget,
    _cycles_of_length,
    _decide,
    _shortest_split_cycle,
    _System,
    MixedOddCycleWitness,
    OddCycleWitness,
    OddTreeHouseWitness,
    compute_ocp,
    decide_unimodular_disjoint,
    decide_unimodular_mixed_disjoint,
    find_mixed_odd_cycle,
    find_mixed_odd_tree_house,
    find_odd_cycle,
    find_odd_tree_house,
    shortest_odd_cycles,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)
from tuhyper.errors import BudgetExceededError, InputError, NotDisjointError
from tuhyper.gen import GenConfig, Plant, generate

from _hosts import noisy_tree_house, ring2, ring_with_a_triple
from _oracles import (
    has_odd_cycle_exhaustive,
    ocp_exhaustive,
    shortest_odd_cycle_exhaustive,
    verify_witness_sets,
)


def test_find_odd_cycle_triangle():
    w = find_odd_cycle(core.fixture("c3"))
    assert isinstance(w, OddCycleWitness) and len(w.vertices) == 3


def test_fig1_has_no_odd_cycle():
    # the length-3 cycle through the root is not a partial subhypergraph:
    # the root stays inside the size-4 edge that would form the third side
    assert find_odd_cycle(core.fixture("fig1")) is None


def test_fig2_has_neither_structure():
    g = core.fixture("fig2")
    assert find_odd_cycle(g) is None
    assert find_odd_tree_house(g) is None


def test_fig1_tree_house_found():
    w = find_odd_tree_house(core.fixture("fig1"))
    assert isinstance(w, OddTreeHouseWitness)
    assert w.hyperedge_id == 3
    assert all(len(p) == 2 for p in w.paths)


def test_planted_tree_house_found_and_verified():
    g, planted = generate(GenConfig(seed=42, n_vertices=10, n_small_edges=3,
                                    proper_edge_sizes=(),
                                    plant=Plant("odd-tree-house",
                                                path_lengths=(1, 1, 3))))
    assert verify_witness(g, planted)
    found = find_odd_tree_house(g)
    assert found is not None and verify_witness(g, found)


def test_find_odd_cycle_matches_exhaustive_oracle():
    agree = 0
    for seed in range(150):
        try:
            g, _ = generate(GenConfig(seed=9000 + seed, n_vertices=3 + seed % 4,
                                      n_small_edges=seed % 6,
                                      proper_edge_sizes=((), (3,), (4,))[seed % 3],
                                      disjoint=False))
        except InputError:
            continue
        assert (find_odd_cycle(g) is not None) == has_odd_cycle_exhaustive(g)
        agree += 1
    assert agree > 80


def test_pruned_backtracking_matches_exhaustive_oracle():
    # non-graph hosts only, so the reachability cut in `_paths` decides each
    sizes = ((3,), (4,), (5,), (3, 3), (3, 4), (3, 5), (4, 5), (3, 3, 4))
    hosts = odd = 0
    for seed in range(420):
        try:
            g, _ = generate(GenConfig(seed=60_000 + seed, n_vertices=5 + seed % 4,
                                      n_small_edges=2 + seed % 7,
                                      proper_edge_sizes=sizes[seed % len(sizes)],
                                      disjoint=False))
        except InputError:
            continue
        if g.is_graph():
            continue
        w = find_odd_cycle(g)
        shortest = shortest_odd_cycle_exhaustive(g)
        assert (w is None) == (shortest is None), seed
        if w is not None:
            assert len(w.vertices) == shortest, seed
            odd += 1
        hosts += 1
    assert hosts >= 300 and 50 < odd < hosts - 50


def test_verify_witness_rejects_corrupted_certificates():
    g = core.fixture("fig1")
    w = find_odd_tree_house(g)
    assert verify_witness(g, w)
    bad = OddTreeHouseWitness(w.root, w.leaves, w.paths,
                              ((3,),) + w.path_edge_ids[1:], w.hyperedge_id)
    assert not verify_witness(g, bad)
    c3 = core.fixture("c3")
    wc = find_odd_cycle(c3)
    assert not verify_witness(c3, OddCycleWitness(wc.vertices, (0, 1, 1)))
    assert not verify_witness(c3, OddCycleWitness((0, 1), wc.edge_ids[:2]))


def _corrupted(host, w, rnd):
    """w and copies of it with vertex ids swapped, repeated, negative, too
    large, not integers or numpy integers, and edge ids repeated, out of
    range, not integers or numpy integers."""
    n, m = host.n_vertices, len(host.support_masks)
    bad_vertices = (-1, n, n + 7, 2**70, 0.5, "a", None)
    bad_edges = (-1, m, m + 3, 1.0, 0.5)
    rep = dataclasses.replace
    yield w
    if isinstance(w, (OddCycleWitness, MixedOddCycleWitness)):
        vs, ids = list(w.vertices), list(w.edge_ids)
        i, j = rnd.randrange(len(vs)), rnd.randrange(len(vs))
        for new_vs in ([*vs[:i], vs[j], *vs[i + 1:]], vs[1:] + vs[:1], vs[::-1],
                       [float(v) for v in vs], [np.int64(v) for v in vs],
                       [np.int8(v) for v in vs],
                       *([*vs[:i], b, *vs[i + 1:]] for b in (*bad_vertices, float(vs[i])))):
            yield rep(w, vertices=tuple(new_vs))
        swapped = vs[:]
        swapped[i], swapped[j] = vs[j], vs[i]
        yield rep(w, vertices=tuple(swapped))
        yield rep(w, vertices=tuple(vs[:-1]), edge_ids=tuple(ids[:-1]))
        for new_ids in ([*ids[:i], ids[j], *ids[i + 1:]], [np.int64(e) for e in ids],
                        *([*ids[:i], b, *ids[i + 1:]] for b in bad_edges)):
            yield rep(w, edge_ids=tuple(new_ids))
        return
    p = rnd.randrange(3)
    t = rnd.randrange(len(w.paths[p]))
    for b in (*bad_vertices, float(w.paths[p][t]), np.int64(w.paths[p][t])):
        paths = [list(q) for q in w.paths]
        paths[p][t] = b
        yield rep(w, paths=tuple(map(tuple, paths)))
        leaves = list(w.leaves)
        leaves[p] = b if t == len(paths[p]) - 1 else leaves[p]
        yield rep(w, paths=tuple(map(tuple, paths)), leaves=tuple(leaves),
                  root=b if t == 0 else w.root)
    for f in (np.int64, float):
        yield rep(w, root=f(w.root), leaves=tuple(map(f, w.leaves)),
                  paths=tuple(tuple(map(f, q)) for q in w.paths))
    yield rep(w, leaves=w.leaves[1:] + w.leaves[:1])
    yield rep(w, paths=w.paths[1:] + w.paths[:1])
    if len(w.paths[p]) > 2:  # a path through another path's root, or reordered
        paths = [list(q) for q in w.paths]
        paths[p][1] = w.paths[(p + 1) % 3][-1]
        yield rep(w, paths=tuple(map(tuple, paths)))
        paths = [list(q) for q in w.paths]
        paths[p][1], paths[p][-2] = paths[p][-2], paths[p][1]
        yield rep(w, paths=tuple(map(tuple, paths)))
    for b in (*bad_edges, np.int64(w.hyperedge_id), w.path_edge_ids[p][0]):
        yield rep(w, hyperedge_id=b)
        ids = [list(q) for q in w.path_edge_ids]
        ids[p][0] = b
        yield rep(w, path_edge_ids=tuple(map(tuple, ids)))


def _answer(check, host, w):
    """What check(host, w) returns, with its type, or the type it raises."""
    try:
        got = check(host, w)
    except Exception as exc:  # noqa: BLE001 - the exception type is the answer
        return type(exc)
    return type(got), got


def test_verify_witness_agrees_with_the_set_based_checker():
    rnd = random.Random(20)
    plants = {False: (Plant("odd-cycle", length=5), Plant("odd-cycle", length=7),
                      Plant("odd-tree-house", path_lengths=(1, 3, 3))),
              True: (Plant("mixed-odd-cycle", length=2), Plant("mixed-odd-cycle", length=5),
                     Plant("mixed-odd-tree-house", path_lengths=(1, 2, 3)))}
    checked = valid = 0
    for seed in range(120):
        mixed = seed % 2 == 1
        try:
            host, planted = generate(GenConfig(
                seed=70_000 + seed, n_vertices=8 + seed % 5, n_small_edges=seed % 6,
                proper_edge_sizes=((), (3,), (4,), (4, 3))[seed % 4], mixed=mixed,
                plant=plants[mixed][seed % 3]))
        except InputError:
            continue
        found = _decide(host, DEFAULT_SEARCH_BUDGET).witness
        for w in dict.fromkeys((planted, found)):
            for bad in _corrupted(host, w, rnd):
                want = _answer(verify_witness_sets, host, bad)
                assert _answer(verify_witness, host, bad) == want, (seed, bad)
                checked += 1
                valid += want == (bool, True)
    assert checked > 4000 and 300 < valid < checked / 2


def test_decide_examples():
    d1 = decide_unimodular_disjoint(core.fixture("fig1"))
    assert not d1.tu and isinstance(d1.witness, OddTreeHouseWitness)
    assert decide_unimodular_disjoint(core.fixture("c4")).tu
    with pytest.raises(NotDisjointError) as err:
        decide_unimodular_disjoint(core.fixture("fig2"))
    assert err.value.edge_a == 0 and err.value.edge_b == 1


def test_decide_mixed_examples():
    d = decide_unimodular_mixed_disjoint(core.fixture("fig5"))
    assert not d.tu
    assert decide_unimodular_mixed_disjoint(core.fixture("dir4")).tu
    d4 = decide_unimodular_mixed_disjoint(core.fixture("fig4-left"))
    assert not d4.tu and isinstance(d4.witness, MixedOddCycleWitness)
    assert abs(linalg.det_exact(core.incidence_matrix(core.fixture("fig4-left")))) == 2


def test_mixed_odd_cycle_of_length_two():
    d = MixedHypergraph.from_names(
        "uv", [(("u", "v"), ()), (("u",), ("v",))])
    w = find_mixed_odd_cycle(d)
    assert w is not None and len(w.vertices) == 2
    assert not linalg.is_tu_bruteforce(core.incidence_matrix(d))


def test_mixed_searches_respect_parity_targets():
    # a mixed tree house whose proper arc has mixed signs: path parities must
    # match the sign pattern, not simply be odd
    g, planted = generate(GenConfig(seed=7, n_vertices=9, n_small_edges=0,
                                    proper_edge_sizes=(), mixed=True,
                                    plant=Plant("mixed-odd-tree-house",
                                                path_lengths=(1, 2, 3))))
    assert verify_witness(g, planted)
    found = find_mixed_odd_tree_house(g)
    assert found is not None and verify_witness(g, found)


def test_shortest_odd_cycles_enumerates_all_minimum_length():
    g = Hypergraph.from_names(
        "abcde",
        [["a", "b"], ["b", "c"], ["a", "c"], ["c", "d"], ["d", "e"], ["c", "e"]])
    found = shortest_odd_cycles(g)
    assert len(found) == 2
    assert all(len(w.vertices) == 3 for w in found)


def test_budget_exhaustion_is_an_error():
    g, _ = generate(GenConfig(seed=3, n_vertices=9, n_small_edges=12,
                              proper_edge_sizes=(4,)))
    with pytest.raises(BudgetExceededError):
        find_odd_cycle(g, max_nodes=5)


def test_witness_json_round_trip():
    g = core.fixture("fig1")
    w = find_odd_tree_house(g)
    doc = witness_to_dict(g, w)
    assert witness_from_dict(g, doc) == w
    d = core.fixture("fig4-left")
    wm = find_mixed_odd_cycle(d)
    assert witness_from_dict(d, witness_to_dict(d, wm)) == wm


def test_witness_supports_are_two_mod_four():
    # necessity: forbidden structures are Eulerian with support 2 mod 4, and
    # their square incidence matrices have determinant +-2
    g = core.fixture("fig1")
    w = find_odd_tree_house(g)
    ids = [w.hyperedge_id] + [e for ids in w.path_edge_ids for e in ids]
    verts = sorted({v for p in w.paths for v in p})
    ind = core.induce(g, core.SubSelection(tuple(verts), tuple(sorted(ids))))
    m = core.incidence_matrix(ind.sub)
    assert core.support_size(m) % 4 == 2
    assert abs(linalg.det_exact(m)) == 2
    c3 = core.fixture("c3")
    assert abs(linalg.det_exact(core.incidence_matrix(c3))) == 2


def test_ocp_examples():
    assert compute_ocp(core.fixture("c3")) == 1
    two = Hypergraph.from_names(
        "abcdef",
        [["a", "b"], ["b", "c"], ["a", "c"], ["d", "e"], ["e", "f"], ["d", "f"]])
    assert compute_ocp(two) == 2
    assert compute_ocp(core.fixture("c4")) == 0
    with pytest.raises(InputError):
        compute_ocp(core.fixture("fig1"))


def test_ocp_matches_exhaustive_oracle():
    for seed in range(120):
        g, _ = generate(GenConfig(seed=500 + seed, n_vertices=4 + seed % 5,
                                  n_small_edges=2 + (seed * 3) % 9,
                                  proper_edge_sizes=()))
        simple = sorted({e for e in g.edges})
        gg = Hypergraph(g.names, tuple(simple))
        assert compute_ocp(gg) == ocp_exhaustive(list(gg.edges), gg.n_vertices)


def test_size_three_hypergraphs_tu_iff_no_odd_cycle():
    # for hyperedge sizes <= 3, unimodular iff no odd cycle
    count = 0
    for seed in range(250):
        try:
            g, _ = generate(GenConfig(seed=2000 + seed, n_vertices=3 + seed % 5,
                                      n_small_edges=seed % 6,
                                      proper_edge_sizes=((), (3,), (3, 3))[seed % 3],
                                      disjoint=False))
        except InputError:
            continue
        if g.n_vertices + g.n_edges > 15:
            continue
        tu = linalg.is_tu_bruteforce(core.incidence_matrix(g))
        assert tu == (find_odd_cycle(g) is None)
        count += 1
    assert count > 100


def _graph_corpus(mixed: bool):
    """Seeded graphs or signed graphs (every edge of size 2) on 3 to 9 vertices."""
    for seed in range(300):
        g, _ = generate(GenConfig(seed=70_000 + seed, n_vertices=3 + seed % 7,
                                  n_small_edges=seed % 11, proper_edge_sizes=(),
                                  mixed=mixed))
        yield g


def _exhaustive_odd_cycles(host, lengths):
    """Every odd-parity cycle of the least length that has one, by backtracking."""
    sys = _System(host)
    budget = _Budget(10**7)
    for k in lengths:
        found = list(_cycles_of_length(sys, k, budget))
        if found:
            return found
    return []


def test_graph_fast_path_matches_exhaustive_search_and_brute_force():
    odd = 0
    for g in _graph_corpus(mixed=False):
        w = find_odd_cycle(g)
        every = shortest_odd_cycles(g)
        assert (w is None) == (every == [])
        if w is not None:
            odd += 1
            assert verify_witness(g, w)
            assert len(w.vertices) == len(every[0].vertices)
            assert set(w.edge_ids) in [set(x.edge_ids) for x in every]
        decision = decide_unimodular_disjoint(g)
        assert decision.tu == linalg.is_tu_bruteforce(core.incidence_matrix(g))
        assert decision.witness == w
    assert 50 < odd < 250


def test_signed_graph_fast_path_matches_exhaustive_search_and_brute_force():
    odd = 0
    for d in _graph_corpus(mixed=True):
        w = find_mixed_odd_cycle(d)
        every = _exhaustive_odd_cycles(d, range(2, d.n_vertices + 1))
        assert (w is None) == (every == [])
        if w is not None:
            odd += 1
            assert verify_witness(d, w)
            assert len(w.vertices) == len(every[0][0])
            assert set(w.edge_ids) in [set(ids) for _, ids in every]
        decision = decide_unimodular_mixed_disjoint(d)
        assert decision.tu == linalg.is_tu_bruteforce(core.incidence_matrix(d))
        assert decision.witness == w
    assert 50 < odd < 250


def test_graph_hosts_scale_past_the_recursion_limit():
    n = 1201
    names = [f"v{i}" for i in range(n)]
    cycle = Hypergraph.from_names(names, [[names[i], names[(i + 1) % n]] for i in range(n)])
    d = decide_unimodular_disjoint(cycle)
    assert not d.tu and len(d.witness.vertices) == n and verify_witness(cycle, d.witness)
    signed = MixedHypergraph.from_names(
        names[:-1], [((names[i],), (names[i + 1],)) for i in range(n - 2)]
        + [((names[0], names[n - 2]), ())])
    dm = decide_unimodular_mixed_disjoint(signed)
    assert not dm.tu and len(dm.witness.vertices) == n - 1
    side = 40
    cells = [f"{i},{j}" for i in range(side) for j in range(side)]
    edges = [[f"{i},{j}", f"{i + 1},{j}"] for i in range(side - 1) for j in range(side)]
    edges += [[f"{i},{j}", f"{i},{j + 1}"] for i in range(side) for j in range(side - 1)]
    grid = Hypergraph.from_names(cells, edges)
    start = time.perf_counter()
    assert decide_unimodular_disjoint(grid).tu
    assert time.perf_counter() - start < 1.0


def test_a_long_ring_numbered_along_itself_runs_one_bfs():
    # `_odd_sources` bounds the parity BFS's sources to vertex 0 here; a BFS
    # from every vertex took seconds
    n = 4001
    ring = Hypergraph(tuple(f"v{i}" for i in range(n)),
                      tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))
    start = time.perf_counter()
    w = find_odd_cycle(ring)
    assert time.perf_counter() - start < 0.5
    assert w.vertices == tuple(range(n)) or w.vertices == (0, *range(n - 1, 0, -1))


def test_unsigned_decision_is_the_all_head_mixed_decision():
    # an unsigned hypergraph is the all-head mixed one: both deciders give
    # the same verdict and the same witness, only the witness class differs
    sizes = ((), (3,), (4,), (5,), (4, 4), (4, 3), (3, 3), (6,), (4, 5))
    lens = ((1, 1, 1), (1, 1, 3), (1, 3, 3), (3, 3, 3))
    kinds = {}
    seed = 0
    while sum(kinds.values()) < 3000:
        plant = (Plant("odd-tree-house", path_lengths=lens[seed % 16 // 4])
                 if seed % 4 == 0 else None)
        cfg = GenConfig(seed=700_000 + seed, n_vertices=4 + seed % 9,
                        n_small_edges=(seed * 5) % (3 if plant else 14),
                        proper_edge_sizes=sizes[seed % len(sizes)], disjoint=True, plant=plant)
        seed += 1
        try:
            g, _ = generate(cfg)
        except InputError:
            continue
        unsigned = decide_unimodular_disjoint(g)
        mixed = decide_unimodular_mixed_disjoint(core.as_mixed(g))
        assert unsigned.tu == mixed.tu, seed
        if not unsigned.tu:
            assert dataclasses.astuple(unsigned.witness) == dataclasses.astuple(mixed.witness)
            assert mixed.witness.kind == "mixed-" + unsigned.witness.kind
        key = "tu" if unsigned.tu else unsigned.witness.kind
        kinds[key] = kinds.get(key, 0) + 1
    assert min(kinds.get(k, 0) for k in ("tu", "odd-cycle", "odd-tree-house")) >= 100


def test_a_host_of_the_other_type_is_an_input_error():
    fig1, fig5 = core.fixture("fig1"), core.fixture("fig5")
    for run, host in ((decide_unimodular_disjoint, fig5), (find_odd_cycle, fig5),
                      (find_odd_tree_house, fig5), (decide_unimodular_mixed_disjoint, fig1),
                      (find_mixed_odd_cycle, fig1), (find_mixed_odd_tree_house, fig1),
                      (shortest_odd_cycles, fig5), (decide_unimodular_disjoint, [])):
        with pytest.raises(InputError, match="expected a"):
            run(host)
    for doc in ([], {"kind": []},  # a list for the certificate, a list for its kind
                {"kind": "odd-cycle", "vertices": [[1]], "edge_ids": [0]}):  # unhashable vertex
        with pytest.raises(InputError):
            witness_from_dict(fig1, doc)


def test_backtracking_needs_no_frame_per_path_vertex():
    g = ring_with_a_triple(101)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        d = decide_unimodular_disjoint(g)
    finally:
        sys.setrecursionlimit(limit)
    assert not d.tu and d.witness.vertices == tuple(range(101))
    assert verify_witness(g, d.witness)


def _interval_host(n):
    """TU interval hypergraph: the path edges (i, i+1) and every triple
    (i, i+1, i+2); no backtracking branch past the anchor's neighbours
    can close."""
    names = [f"v{i}" for i in range(n)]
    edges = [names[i:i + 2] for i in range(n - 1)] + [names[i:i + 3] for i in range(n - 2)]
    return Hypergraph.from_names(names, edges)


def _upward_path_host(n, seed):
    """TU network-matrix host: the vertices are the arcs of a random rooted
    tree, the edges its upward paths of two and three arcs and, pairwise
    disjoint, some of four and five arcs."""
    rnd = random.Random(seed)
    parent = [None] + [rnd.randrange(i) for i in range(1, n + 1)]

    def upward(node, arcs):
        path = []
        while node and len(path) < arcs:
            path.append(f"a{node}")
            node = parent[node]
        return path if len(path) == arcs else None

    edges = [p for node in range(1, n + 1) for arcs in (2, 3) if (p := upward(node, arcs))]
    used = set()
    for node in rnd.sample(range(1, n + 1), n):
        p = upward(node, rnd.choice((4, 5)))
        if p and used.isdisjoint(p):
            used.update(p)
            edges.append(p)
    return Hypergraph.from_names([f"a{i}" for i in range(1, n + 1)], edges)


def test_reachability_cut_decides_tu_families_within_a_small_budget():
    # without the cut both exhaust the default budget of 5,000,000 nodes
    for g in (_interval_host(160), _upward_path_host(240, seed=5)):
        assert not g.is_graph()
        assert decide_unimodular_disjoint(g, max_nodes=200_000).tu


def test_long_ring_with_a_triple_found_or_stopped_by_its_budget():
    w = find_odd_cycle(ring_with_a_triple(101))
    assert w.vertices == tuple(range(101))
    # the four leaves of the split give the length 2001 after the length-3
    # pass; every vertex a reachability test expands is charged to the
    # budget, which therefore runs out in the length-2001 pass
    ring = ring_with_a_triple(2001)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        find_odd_cycle(ring, max_nodes=100_000)
    assert time.perf_counter() - start < 5.0
    assert str(exc.value) == (
        "no odd cycle of length < 2001; one of length 2001 exists; budget exhausted in the"
        " length-2001 pass; raise max_nodes to continue the exact search")


def test_long_odd_rings_with_a_big_edge_are_decided_within_the_default_budget():
    # the split gives the length 1201 after the length-3 pass, and a single
    # pass of that length finds the ring; without the split walk the length
    # passes run out of the default budget in the length-93 and length-67
    # passes
    for g in (ring_with_a_triple(1201), ring2(1201)):
        start = time.perf_counter()
        d = decide_unimodular_disjoint(g)
        assert time.perf_counter() - start < 2.0
        assert not d.tu and d.witness.vertices == tuple(range(1201))
        assert verify_witness(g, d.witness)


def test_budget_error_says_how_far_the_search_got():
    ring = ring_with_a_triple(2001)
    with pytest.raises(BudgetExceededError, match="^no mixed odd cycle of length < "):
        decide_unimodular_mixed_disjoint(core.as_mixed(ring), max_nodes=100_000)
    # one 12-vertex edge, each vertex on three pendant edges: no cycle, and a
    # tree-house phase that tries every quad of the edge as a root and leaves
    hub = [f"h{i}" for i in range(12)]
    pendants = [[v, f"{v}p{j}"] for v in hub for j in range(3)]
    star = Hypergraph.from_names(hub + [e[1] for e in pendants], [hub] + pendants)
    assert find_odd_cycle(star, max_nodes=1_000) is None
    with pytest.raises(BudgetExceededError,
                       match="^no odd cycle; budget exhausted in the odd tree house search;"):
        decide_unimodular_disjoint(star, max_nodes=1_000)
    with pytest.raises(BudgetExceededError,
                       match="^budget exhausted in the mixed odd tree house search;"):
        find_mixed_odd_tree_house(core.as_mixed(star), max_nodes=1_000)


def test_searches_leave_no_garbage_cycles():
    gc.collect()
    gc.disable()
    try:
        for host in (core.fixture("fig1"), core.fixture("fig5"), ring_with_a_triple(31),
                     noisy_tree_house(3, (7, 7, 7))):
            _decide(host, DEFAULT_SEARCH_BUDGET)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_split_proof_matches_exhaustive_oracle():
    # non-graph hosts with one to three edges of size >= 3, a third of them
    # not disjoint; half are mixed, so two-arc cycles and parities count
    sizes = ((3,), (4,), (5,), (3, 3), (3, 4), (4, 5), (3, 3, 4), (3, 4, 4))
    hosts = absent = longer = 0
    for seed in range(480):
        try:
            host, _ = generate(GenConfig(seed=80_000 + seed, n_vertices=5 + seed % 3,
                                         n_small_edges=2 + seed % 7,
                                         proper_edge_sizes=sizes[seed % len(sizes)],
                                         disjoint=seed % 3 != 0, mixed=seed % 2 == 1))
        except InputError:
            continue
        if all(sup.bit_count() <= 2 for sup in host.support_masks):
            continue
        want = shortest_odd_cycle_exhaustive(host)
        least = 2 if isinstance(host, MixedHypergraph) else 3
        length = _shortest_split_cycle(_System(host), _Budget(10**7), least)
        assert length == want, seed
        hosts += 1
        absent += length is None
        longer += length is not None and length > least
    assert hosts >= 300 and 50 < absent < hosts - 50 and longer >= 10
    # longer cycles, of known length: an odd ring is the only odd cycle;
    # for even n, ring+triple has none and ring2 the (n - 3)-cycle through y
    for n in range(6, 40):
        for host, want in ((ring_with_a_triple(n), n if n % 2 else None),
                           (ring2(n), n if n % 2 else n - 3)):
            for h, least in ((host, 3), (core.as_mixed(host), 2)):
                assert _shortest_split_cycle(_System(h), _Budget(10**7), least) == want, (n, h)
    # two odd cycles, through two pairs of one triple, in both leaf orders:
    # the least over the leaves counts, not the first unbalanced one
    for a, b in ((5, 9), (9, 5)):
        names = ["x", "y", "z"] + [f"p{i}" for i in range(a - 2)] + [f"q{i}" for i in range(b - 2)]
        edges = [["x", "y", "z"]]
        edges += [[u, w] for u, w in itertools.pairwise(["x", *names[3:a + 1], "y"])]
        edges += [[u, w] for u, w in itertools.pairwise(["y", *names[a + 1:], "z"])]
        host = Hypergraph.from_names(names, edges)
        assert _shortest_split_cycle(_System(host), _Budget(10**7), 3) == 5, (a, b)
        assert len(find_odd_cycle(host).vertices) == 5


def test_split_proof_decides_a_noisy_tree_house_within_a_small_budget():
    # the length passes 3, 5, ... (mixed: 2, 3, ...) each re-grow the
    # branches; without the split walk they alone need 1,397 (mixed: 2,579)
    # units, and with it, which runs after the first pass, 438 (mixed: 304)
    house = noisy_tree_house(3, (7, 7, 7))
    for host in (house, core.as_mixed(house)):
        d = _decide(host, max_nodes=1_000)
        assert not d.tu and d.witness.kind.endswith("odd-tree-house")
        assert verify_witness(host, d.witness)


def test_budget_error_inside_the_split_proof_says_what_is_proven(monkeypatch):
    host = noisy_tree_house(3, (7, 7, 7))
    entered = []

    def recorded(system, budget, least):
        entered.append((DEFAULT_SEARCH_BUDGET - budget.left, budget.length))
        return _shortest_split_cycle(system, budget, least)

    monkeypatch.setattr(detect, "_shortest_split_cycle", recorded)
    assert find_odd_cycle(host) is None
    monkeypatch.undo()
    [(spent, k)] = entered
    assert k > 3
    # the first pass runs, and the split walk then spends the one unit left
    with pytest.raises(BudgetExceededError) as exc:
        find_odd_cycle(host, max_nodes=spent + 1)
    assert str(exc.value) == (
        f"no odd cycle of length < {k}; budget exhausted while splitting edges of size >= 3;"
        " raise max_nodes to continue the exact search")
