import random
import time
import tracemalloc

import pytest

from tuhyper import core, detect, linalg
from tuhyper.core import Hypergraph
from tuhyper.detect import OddCycleWitness, OddTreeHouseWitness, verify_witness
from tuhyper.errors import InputError, PreconditionError, SizeGuardError
from tuhyper.extract import (
    NiceCycle,
    _assert_candidate,
    _first_cycle,
    _crossover,
    _extract_core,
    almost_nice_cycle,
    enforce_forest,
    find_eulerian_core,
    lift_tree_house,
    reduce_by_cycle,
    extract_witness,
)
from tuhyper.gen import GenConfig, generate

from _hosts import bipartite_with_c9


def test_extract_fig1_yields_tree_house():
    g = core.fixture("fig1")
    res = extract_witness(g)
    assert isinstance(res.witness, OddTreeHouseWitness)
    assert verify_witness(g, res.witness)
    steps = [t["step"] for t in res.trace]
    assert steps[0] == "eulerian-core"


def test_extract_triangle_in_larger_host():
    g = Hypergraph.from_names(
        "abcdefg",
        [["a", "b"], ["b", "c"], ["a", "c"], ["d", "e"], ["e", "f", "g"]])
    res = extract_witness(g)
    assert isinstance(res.witness, OddCycleWitness)
    assert verify_witness(g, res.witness)


def test_size_guard_counts_only_the_vertices_left_by_peeling():
    # a triangle plus 14 isolated vertices: 17 vertices, 3 of them peeled
    names = ["a", "b", "c"] + [f"i{k}" for k in range(14)]
    g = Hypergraph.from_names(names, [["a", "b"], ["b", "c"], ["a", "c"]])
    res = extract_witness(g)
    assert isinstance(res.witness, OddCycleWitness)
    assert sorted(res.witness.vertices) == [0, 1, 2]
    cam = linalg.camion_unimodular(g)
    assert (cam.witness.vertices, cam.witness.edge_ids, cam.value) == ((0, 1, 2), (0, 1, 2), 6)


def test_extract_planted_odd_cycle_with_a_pendant_tree_past_sixteen_vertices():
    # a 5-cycle with a 13-vertex pendant tree of edges and triples at c0
    cycle = [[f"c{i}", f"c{(i + 1) % 5}"] for i in range(5)]
    tree = [["c0", "t0"], ["t0", "t1", "t2"], ["t1", "t3"], ["t1", "t4", "t5"],
            ["t2", "t6"], ["t6", "t7"], ["t6", "t8", "t9"], ["t9", "t10"],
            ["t10", "t11", "t12"]]
    names = [f"c{i}" for i in range(5)] + [f"t{i}" for i in range(13)]
    g = Hypergraph.from_names(names, tree[:4] + cycle + tree[4:])
    assert g.n_vertices == 18
    res = extract_witness(g)
    assert isinstance(res.witness, OddCycleWitness)
    assert sorted(res.witness.vertices) == [0, 1, 2, 3, 4]
    assert verify_witness(g, res.witness)


def test_extract_past_the_subset_table_in_bounded_time_and_memory():
    # |P| = 24: the walk unranks its blocks, where a table of all 2^24
    # subsets would take 128 MB, and it tests about 2.4 million vertex sets
    g = bipartite_with_c9()
    assert linalg._core_vertices(g.edge_masks, g.n_vertices).bit_count() == 24
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        res = extract_witness(g, max_vertices=32)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(res.witness, OddCycleWitness)
    assert sorted(g.names[v] for v in res.witness.vertices) == [f"c{i}" for i in range(9)]
    assert elapsed < 8 and peak < 16 * 2**20, (elapsed, peak)


def test_size_guard_names_the_peeled_vertex_count():
    # a 17-cycle survives peeling whole; its three pendant vertices do not
    names = [f"c{i}" for i in range(17)] + ["p0", "p1", "p2"]
    edges = [[f"c{i}", f"c{(i + 1) % 17}"] for i in range(17)]
    edges += [["c0", "p0"], ["p0", "p1"], ["c5", "p2"]]
    g = Hypergraph.from_names(names, edges)
    for run in (extract_witness, find_eulerian_core, linalg.camion_unimodular):
        with pytest.raises(SizeGuardError, match="17 vertices left by peeling > 16"):
            run(g)


def test_extract_rejects_tu_input():
    with pytest.raises(PreconditionError):
        extract_witness(core.fixture("c4"))


def test_extract_rejects_non_disjoint():
    with pytest.raises(PreconditionError):
        extract_witness(core.fixture("fig2"))


def test_extract_rejects_a_mixed_host():
    for run in (find_eulerian_core, extract_witness):
        with pytest.raises(InputError, match="expected a Hypergraph"):
            run(core.fixture("fig5"))


def test_eulerian_core_of_fig1_is_fig1():
    g = core.fixture("fig1")
    c = find_eulerian_core(g)
    assert c.vmap == (0, 1, 2, 3)
    assert c.emap == (0, 1, 2, 3)
    assert c.sub == g


def test_eulerian_core_of_triangle_is_triangle():
    g = core.fixture("c3")
    c = find_eulerian_core(g)
    assert c.sub == g


def test_eulerian_core_picks_violating_component():
    # a tree house next to a disjoint even cycle: the core is the tree house
    g = Hypergraph.from_names(
        ["r", "l1", "l2", "l3", "a", "b", "c", "d"],
        [["r", "l1"], ["r", "l2"], ["r", "l3"], ["r", "l1", "l2", "l3"],
         ["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    c = find_eulerian_core(g)
    assert c.vmap == (0, 1, 2, 3)
    assert set(c.emap) == {0, 1, 2, 3}
    assert core.support_size(core.incidence_matrix(c.sub)) % 4 == 2


def test_eulerian_core_rejects_tu_input():
    with pytest.raises(PreconditionError):
        find_eulerian_core(core.fixture("c4"))


def test_enforce_forest_reports_graph_cycle():
    g = core.fixture("c4")
    cyc = enforce_forest(g)
    assert cyc is not None and len(cyc.vertices) == 4 and cyc.special is None
    assert enforce_forest(core.fixture("fig1")) is None


def test_first_cycle_closes_at_the_first_cyclic_prefix():
    rnd = random.Random(7)
    closed = 0
    for _ in range(3000):
        n = rnd.randint(2, 8)
        pairs = []
        for _ in range(rnd.randint(0, 10)):
            if pairs and rnd.random() < 0.2:  # a parallel pair, either way round
                a, b = rnd.choice(pairs)
                pairs.append((b, a) if rnd.random() < 0.5 else (a, b))
            else:
                pairs.append(tuple(rnd.sample(range(n), 2)))
        tags = rnd.sample(range(100), len(pairs))
        got = _first_cycle([(a, b, t) for (a, b), t in zip(pairs, tags)])
        # the test's own union-find: the first pair whose ends are connected
        comp = list(range(n))

        def root(v):
            while comp[v] != v:
                v = comp[v]
            return v

        close = None
        for i, (a, b) in enumerate(pairs):
            if root(a) == root(b):
                close = i
                break
            comp[root(a)] = root(b)
        if close is None:
            assert got is None
            continue
        closed += 1
        verts, cyc_tags = got
        assert verts[0] == pairs[close][0] and verts[-1] == pairs[close][1]
        assert cyc_tags[-1] == tags[close]
        assert len(set(verts)) == len(verts) == len(cyc_tags) == len(set(cyc_tags)) >= 2
        for i, t in enumerate(cyc_tags):
            j = tags.index(t)
            assert j <= close
            assert {verts[i], verts[(i + 1) % len(verts)]} == set(pairs[j])
    assert closed > 1000


def test_graph_cycle_branch_removes_even_cycle():
    # core containing both a tree house and a size-2 even cycle: the cycle is
    # stripped first, then the tree house surfaces through the recursion
    g = Hypergraph.from_names(
        ["r", "l1", "l2", "l3", "a", "b", "c", "d"],
        [["r", "l1"], ["r", "l2"], ["r", "l3"], ["r", "l1", "l2", "l3"],
         ["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    trace = []
    w = _extract_core(g, trace, 5_000_000, 16)
    assert [t["step"] for t in trace][0] == "remove-graph-cycle"
    assert verify_witness(g, w)


def test_almost_nice_cycle_on_fig1():
    g = core.fixture("fig1")
    nc = almost_nice_cycle(g)
    assert len(nc.vertices) % 2 == 0
    assert nc.special == 3  # the size-4 edge closes the cycle
    rp = reduce_by_cycle(g, nc)
    assert core.support_size(core.incidence_matrix(rp.sub)) % 4 == 2


def test_reduce_by_cycle_support_accounting():
    g = core.fixture("fig1")
    nc = almost_nice_cycle(g)
    rp = reduce_by_cycle(g, nc)
    before = core.support_size(core.incidence_matrix(g))
    after = core.support_size(core.incidence_matrix(rp.sub))
    assert before - after == 2 * len(nc.edge_ids) >= 4
    assert core.is_eulerian(rp.sub) and core.is_disjoint(rp.sub)


def _case1_host():
    # removing the parallel 2-cycle (u, u2) leaves a (1,1,3) tree house whose
    # long path runs through two surviving vertices of the size-6 special edge
    return Hypergraph.from_names(
        ["r", "l1", "l2", "l3", "u", "u2"],
        [["r", "l1"], ["r", "l2"], ["r", "u"], ["u", "u2"], ["u2", "l3"],
         ["u", "u2"], ["u", "u2", "r", "l1", "l2", "l3"]])


def test_lift_tree_house_case1_shortens_a_path():
    g = _case1_host()
    assert detect.find_odd_cycle(g) is None
    rp = reduce_by_cycle(g, NiceCycle((g.vertex_id("u"), g.vertex_id("u2")),
                                      (5, 6), 6))
    assert not rp.conflict_free
    v = rp.sub.names.index
    w_sub = OddTreeHouseWitness(
        root=v("r"), leaves=(v("l1"), v("l2"), v("l3")),
        paths=((v("r"), v("l1")), (v("r"), v("l2")),
               (v("r"), v("u"), v("u2"), v("l3"))),
        path_edge_ids=((0,), (1,), (2, 3, 4)),
        hyperedge_id=5,
    )
    assert verify_witness(rp.sub, w_sub)
    lifted = lift_tree_house(rp, w_sub)
    assert verify_witness(g, lifted)
    # the conflicted path got cut at the first special-edge vertex
    assert lifted.hyperedge_id == 6
    assert sorted(len(p) - 1 for p in lifted.paths) == [1, 1, 1]


def test_lift_tree_house_conflict_free_input_is_unchanged():
    g = _case1_host()
    rp = reduce_by_cycle(g, NiceCycle((g.vertex_id("u"), g.vertex_id("u2")),
                                      (5, 6), 6))
    v = rp.sub.names.index
    # a tree house avoiding the surviving special-edge vertices entirely
    clean = OddTreeHouseWitness(
        root=v("r"), leaves=(v("l1"), v("l2"), v("l3")),
        paths=((v("r"), v("l1")), (v("r"), v("l2")),
               (v("r"), v("u"), v("u2"), v("l3"))),
        path_edge_ids=((0,), (1,), (2, 3, 4)),
        hyperedge_id=5,
    )
    lifted = lift_tree_house(rp, clean)
    assert verify_witness(g, lifted)


def test_lift_tree_house_case2_splices_a_path():
    # the special edge holds a path edge {a,b} and also two later vertices of
    # the same path, so the path is spliced across the special edge
    g = Hypergraph.from_names(
        ["r", "l1", "l2", "l3", "a", "b", "u1", "u2"],
        [["r", "l1"], ["r", "l2"], ["r", "a"], ["b", "u1"], ["u1", "u2"],
         ["u2", "l3"], ["u1", "u2"], ["a", "b", "u1", "u2"],
         ["r", "l1", "l2", "l3"]])
    assert detect.find_odd_cycle(g) is None
    rp = reduce_by_cycle(g, NiceCycle((g.vertex_id("u1"), g.vertex_id("u2")),
                                      (6, 7), 7))
    assert not rp.conflict_free
    v = rp.sub.names.index
    w_sub = OddTreeHouseWitness(
        root=v("r"), leaves=(v("l1"), v("l2"), v("l3")),
        paths=((v("r"), v("l1")), (v("r"), v("l2")),
               (v("r"), v("a"), v("b"), v("u1"), v("u2"), v("l3"))),
        path_edge_ids=((0,), (1,), (2, 6, 3, 4, 5)),
        hyperedge_id=7,
    )
    assert verify_witness(rp.sub, w_sub)
    lifted = lift_tree_house(rp, w_sub)
    assert verify_witness(g, lifted)
    assert [g.names[x] for x in lifted.paths[2]] == ["r", "a", "u2", "l3"]
    assert lifted.path_edge_ids[2][1] == 7  # spliced across the special edge


def test_crossover_surgery_mechanics():
    # fabricated candidate with two interacting conflicts; the surgery must
    # reroute two paths across them, strictly shrink the candidate, and leave
    # a conflict-free verified tree house
    host = Hypergraph.from_names(
        ["r", "x1", "x2", "x3", "l1", "z1", "z2", "z3", "l2", "l3", "o1", "o2"],
        [
            ["r", "x1"],               # 0
            ["x1", "x2", "z3", "o1"],  # 1  conflict g1
            ["x2", "x3"],              # 2
            ["x3", "l1"],              # 3
            ["r", "z1"],               # 4
            ["z1", "z2", "x3", "o2"],  # 5  conflict g2
            ["z2", "z3"],              # 6
            ["z3", "l2"],              # 7
            ["r", "l3"],               # 8
            ["r", "l1", "l2", "l3"],   # 9
        ])
    v = host.vertex_id
    root = v("r")
    leaves = [v("l1"), v("l2"), v("l3")]
    paths = [[v("r"), v("x1"), v("x2"), v("x3"), v("l1")],
             [v("r"), v("z1"), v("z2"), v("z3"), v("l2")],
             [v("r"), v("l3")]]
    path_ids = [[0, 1, 2, 3], [4, 5, 6, 7], [8]]
    confl = _assert_candidate(host, root, leaves, paths, path_ids, 9, "test")
    assert sorted(confl) == [1, 5]
    new_paths, new_ids, new_leaves = _crossover(host, root, leaves, paths,
                                                path_ids, 9, confl)
    assert sum(len(i) for i in new_ids) < sum(len(i) for i in path_ids)
    assert _assert_candidate(host, root, new_leaves, new_paths, new_ids, 9,
                             "test-post") == []
    w = OddTreeHouseWitness(root, tuple(new_leaves),
                            tuple(tuple(p) for p in new_paths),
                            tuple(tuple(i) for i in new_ids), 9)
    assert verify_witness(host, w)
    # the crossing edges were rerouted through the two conflicts
    assert new_ids[0] == [4, 5, 3]
    assert new_ids[1] == [0, 1, 7]


def test_crossover_weld_shortcut_branch():
    # the rerouted tail shares a vertex with the leading segment, so the weld
    # shortcuts at the first shared vertex instead of using the crossing edge
    host = Hypergraph.from_names(
        ["r", "x1", "x2", "x3", "q", "l1", "z1", "z2", "z3", "l2", "l3",
         "o1", "o2"],
        [
            ["r", "x1"],               # 0
            ["x1", "x2", "z3", "o1"],  # 1  conflict g1
            ["x2", "x3"],              # 2
            ["x3", "q"],               # 3
            ["q", "l1"],               # 4
            ["r", "q"],                # 5   first edge of path 2
            ["q", "z1"],               # 6
            ["z1", "z2", "x3", "o2"],  # 7  conflict g2
            ["z2", "z3"],              # 8
            ["z3", "l2"],              # 9
            ["r", "l3"],               # 10
            ["r", "l1", "l2", "l3"],   # 11
        ])
    v = host.vertex_id
    root = v("r")
    leaves = [v("l1"), v("l2"), v("l3")]
    paths = [[v("r"), v("x1"), v("x2"), v("x3"), v("q"), v("l1")],
             [v("r"), v("q"), v("z1"), v("z2"), v("z3"), v("l2")],
             [v("r"), v("l3")]]
    path_ids = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10]]
    confl = _assert_candidate(host, root, leaves, paths, path_ids, 11, "test")
    assert sorted(confl) == [1, 7]
    new_paths, new_ids, _ = _crossover(host, root, leaves, paths, path_ids,
                                       11, confl)
    # path 1 shortcuts through the shared vertex q instead of crossing
    assert [host.names[x] for x in new_paths[0]] == ["r", "q", "l1"]
    assert sum(len(i) for i in new_ids) < sum(len(i) for i in path_ids)


def test_extract_fuzz_matches_bruteforce_and_verifies():
    checked = 0
    for seed in range(700):
        try:
            g, _ = generate(GenConfig(
                seed=seed, n_vertices=4 + seed % 6,
                n_small_edges=(seed * 7) % 8,
                proper_edge_sizes=((4,), (), (5,), (4, 4), (3,))[seed % 5]))
        except Exception:
            continue
        if g.n_vertices + g.n_edges > 18:
            continue
        tu = linalg.is_tu_bruteforce(core.incidence_matrix(g))
        if tu:
            with pytest.raises(PreconditionError):
                extract_witness(g)
        else:
            res = extract_witness(g)
            assert verify_witness(g, res.witness)
            checked += 1
    assert checked > 150
