import itertools
import time

import numpy as np
import pytest

from tuhyper import core, detect, linalg
from tuhyper.core import MixedHypergraph, as_mixed, incidence_matrix, mixed_from_matrix
from tuhyper.errors import InputError, PreconditionError
from tuhyper.gen import GenConfig, Plant, Xoshiro256StarStar, generate
from tuhyper.mixed import (
    Classification,
    arc_parity,
    build_r_matrix,
    classify_almost_tu_disjoint,
    even_cycle_nullvector,
    invert_transcript,
    negate_column,
    negate_row,
    normalize_to_hypergraph,
    path_or_cycle_parity,
    replay,
    split_arc,
)

from _oracles import det_cofactor


def test_arc_parity_cases():
    assert arc_parity(((0,), (1,))) == 0
    assert arc_parity(((0, 1), ())) == 1
    assert arc_parity(((), (0, 1))) == 1
    with pytest.raises(InputError):
        arc_parity(((0, 1, 2), ()))


def test_path_parity_examples():
    assert path_or_cycle_parity(core.fixture("dir4")) == "even"
    tri = as_mixed(core.fixture("c3"))
    assert path_or_cycle_parity(tri) == "odd"
    # the second-path cycle of the signed tree house fixture, with the proper
    # arc restricted to the cycle's two contact vertices
    cyc = MixedHypergraph.from_names(
        ["r", "v", "l2"],
        [(("v",), ("r",)), (("v", "l2"), ()), (("r", "l2"), ())])
    assert path_or_cycle_parity(cyc) == "even"
    with pytest.raises(InputError):
        path_or_cycle_parity(MixedHypergraph.from_names(
            "abc", [(("a", "b", "c"), ())]))


def test_path_parity_of_long_paths_and_disjoint_cycles():
    n = 20_000
    names = [f"v{i}" for i in range(n + 1)]
    # every third arc is head-tail (parity 0), the other 13,333 same-side
    arcs = [((names[i],), (names[i + 1],)) if i % 3 == 0 else ((names[i], names[i + 1]), ())
            for i in range(n)]
    path = MixedHypergraph.from_names(names, arcs)
    start = time.perf_counter()
    assert path_or_cycle_parity(path) == "odd"
    assert time.perf_counter() - start < 1.0
    two_triangles = MixedHypergraph.from_names(
        "abcxyz", [(("a",), ("b",)), (("b", "c"), ()), (("c",), ("a",)),
                   (("x", "y"), ()), (("y", "z"), ()), (("z", "x"), ())])
    with pytest.raises(InputError, match="neither a path nor a cycle"):
        path_or_cycle_parity(two_triangles)


def test_split_arc_shape_and_transcript():
    d = core.fixture("fig4-left")
    out, step = split_arc(d, 0)
    assert step == {"op": "split", "arc": 0, "head": "v0", "tail": "v1",
                    "new_vertex": "w#0"}
    assert out.n_vertices == 5 and out.n_arcs == 5
    assert out.arcs[0] == ((0, 4), ()) and out.arcs[1] == ((1, 4), ())
    with pytest.raises(PreconditionError):
        split_arc(out, 0)  # already all-head


def test_fig4_split_reproduces_printed_matrix():
    d = core.fixture("fig4-left")
    want = core.fixture("fig4-right")
    cur = d
    for _ in range(3):
        aid = next(a for a in range(cur.n_arcs)
                   if len(cur.arcs[a][0]) == 1 and len(cur.arcs[a][1]) == 1)
        cur, _step = split_arc(cur, aid)
    # rows follow the printed cycle order with the split vertices renamed;
    # columns are matched by support
    renames = {"v01": "w#0", "v12": "w#2", "v23": "w#4"}
    rows = [cur.vertex_id(renames.get(nm, nm)) for nm in want.names]
    got_cols = [frozenset(cur.names[v] for v in cur.support(a))
                for a in range(cur.n_arcs)]
    want_cols = [frozenset(renames.get(want.names[v], want.names[v])
                           for v in want.support(a)) for a in range(want.n_arcs)]
    perm = [got_cols.index(c) for c in want_cols]
    assert sorted(perm) == list(range(7))
    got = incidence_matrix(cur)[rows, :][:, perm]
    assert got.tolist() == incidence_matrix(want).tolist()


def test_split_preserves_determinant():
    d = core.fixture("fig4-left")
    assert abs(linalg.det_exact(incidence_matrix(d))) == 2
    cur = d
    for _ in range(3):
        aid = next(a for a in range(cur.n_arcs)
                   if len(cur.arcs[a][0]) == 1 and len(cur.arcs[a][1]) == 1)
        cur, _ = split_arc(cur, aid)
    assert abs(linalg.det_exact(incidence_matrix(cur))) == 2


def test_split_preserves_cycle_parity_random():
    rng = Xoshiro256StarStar(99)
    for trial in range(200):
        k = 3 + rng.randrange(6)
        g, w = generate(GenConfig(seed=trial, n_vertices=k, mixed=True,
                                  plant=Plant("mixed-odd-cycle", length=k)))
        target = path_or_cycle_parity(g)
        cur = g
        while True:
            aid = next((a for a in range(cur.n_arcs)
                        if len(cur.arcs[a][0]) == 1 and len(cur.arcs[a][1]) == 1),
                       None)
            if aid is None:
                break
            cur, _ = split_arc(cur, aid)
        assert path_or_cycle_parity(cur) == target == "odd"


def test_negations():
    d = core.fixture("dir4")
    d2 = negate_row(d, 1)
    assert arc_parity(d2.arcs[0]) == 1 and arc_parity(d2.arcs[1]) == 1
    assert path_or_cycle_parity(d2) == "even"
    one = MixedHypergraph.from_names("uv", [((), ("u", "v"))])
    assert negate_column(one, 0).arcs[0] == ((0, 1), ())
    m5 = incidence_matrix(core.fixture("fig5"))
    for v in range(5):
        assert abs(linalg.det_exact(
            incidence_matrix(negate_row(core.fixture("fig5"), v)))) == 2
    for a in range(5):
        assert abs(linalg.det_exact(
            incidence_matrix(negate_column(core.fixture("fig5"), a)))) == 2
    assert abs(linalg.det_exact(m5)) == 2


def test_normalize_fig4():
    hyper, transcript = normalize_to_hypergraph(core.fixture("fig4-left"))
    assert hyper.n_vertices == 7 and hyper.n_edges == 7
    assert [s["op"] for s in transcript].count("split") == 3
    assert abs(linalg.det_exact(incidence_matrix(hyper))) == 2


def test_normalize_unsigned_is_identity():
    g = core.fixture("fig1")
    hyper, transcript = normalize_to_hypergraph(as_mixed(g))
    assert transcript == []
    assert hyper == g


def test_normalize_fig5_reveals_tree_house():
    hyper, transcript = normalize_to_hypergraph(core.fixture("fig5"))
    w = detect.find_odd_tree_house(hyper)
    assert w is not None and detect.verify_witness(hyper, w)


def test_normalize_round_trip():
    for name in ("fig4-left", "fig5", "dir4"):
        d = core.fixture(name)
        hyper, transcript = normalize_to_hypergraph(d)
        back = replay(as_mixed(hyper), invert_transcript(transcript))
        assert back == d


def test_normalize_round_trip_random():
    # planted mixed structures are Eulerian, so normalization applies
    for seed in range(60):
        if seed % 2 == 0:
            plant = Plant("mixed-odd-cycle", length=3 + seed % 7)
            n = 3 + seed % 7
        else:
            lens = ((1, 1, 1), (1, 2, 3), (2, 2, 1))[seed % 3]
            plant = Plant("mixed-odd-tree-house", path_lengths=lens)
            n = 1 + sum(lens)
        d, _ = generate(GenConfig(seed=seed, n_vertices=n, mixed=True, plant=plant))
        hyper, transcript = normalize_to_hypergraph(d)
        assert replay(as_mixed(hyper), invert_transcript(transcript)) == d


def test_normalize_rejects_odd_support_mix():
    d = MixedHypergraph.from_names("uvw", [(("u",), ("v", "w"))])
    with pytest.raises(PreconditionError):
        normalize_to_hypergraph(d)
    with pytest.raises(InputError, match="missing field 'vertex'"):
        replay(d, [{"op": "negate_row"}])
    with pytest.raises(InputError, match="not an object"):
        replay(d, [[]])


def test_unsigned_hosts_are_input_errors():
    for run in (normalize_to_hypergraph, even_cycle_nullvector):
        with pytest.raises(InputError, match="expected a MixedHypergraph"):
            run(core.fixture("fig1"))


def test_nullvector_examples():
    assert even_cycle_nullvector(core.fixture("dir4")).tolist() == [1, 1, 1, 1]
    und4 = as_mixed(core.fixture("c4"))
    u = even_cycle_nullvector(und4)
    m = incidence_matrix(und4)
    assert (m @ u == 0).all() and sorted(u.tolist()) == [-1, -1, 1, 1]
    with pytest.raises(InputError):
        even_cycle_nullvector(as_mixed(core.fixture("c3")))


def test_nullvector_random_even_cycles():
    for seed in range(150):
        k = 2 * (2 + seed % 5)  # even lengths 4..12
        d, _ = generate(GenConfig(seed=seed, n_vertices=k, mixed=True,
                                  plant=Plant("mixed-odd-cycle", length=k)))
        # flip one arc's parity to make the cycle even
        heads, tails = d.arcs[0]
        support = tuple(sorted(heads + tails))
        arcs = list(d.arcs)
        arcs[0] = (support, ()) if len(heads) == 1 else ((support[0],), (support[1],))
        dd = MixedHypergraph(d.names, tuple(arcs))
        assert path_or_cycle_parity(dd) == "even"
        u = even_cycle_nullvector(dd)
        m = incidence_matrix(dd)
        assert (m @ u == 0).all()
        assert linalg.det_exact(m) == 0


def test_mixed_odd_cycles_have_det_two():
    for seed in range(150):
        k = 2 + seed % 10  # lengths 2..11
        d, _ = generate(GenConfig(seed=70_000 + seed, n_vertices=k, mixed=True,
                                  plant=Plant("mixed-odd-cycle", length=k)))
        assert abs(linalg.det_exact(incidence_matrix(d))) == 2


def test_classify_examples():
    assert classify_almost_tu_disjoint(core.fixture("fig5")).kind == "mixed-odd-tree-house"
    tri = as_mixed(core.fixture("c3"))
    cls = classify_almost_tu_disjoint(tri)
    assert cls.kind == "mixed-odd-cycle"
    assert abs(linalg.det_exact(incidence_matrix(tri))) == 2
    assert classify_almost_tu_disjoint(core.fixture("dir4")).kind == "not-almost-tu"


def test_classify_agrees_with_almost_tu_bruteforce():
    agree = 0
    for seed in range(250):
        mixed_flag = seed % 2 == 0
        try:
            d, _ = generate(GenConfig(seed=30_000 + seed, n_vertices=3 + seed % 4,
                                      n_small_edges=seed % 5,
                                      proper_edge_sizes=((), (4,))[seed % 2],
                                      mixed=True))
        except InputError:
            continue
        if d.n_vertices + d.n_arcs > 14 or not core.is_disjoint(d):
            continue
        want = linalg.is_almost_tu(incidence_matrix(d))
        got = classify_almost_tu_disjoint(d).kind != "not-almost-tu"
        assert got == want
        agree += 1
    assert agree > 100


def test_build_r_fig5():
    d = core.fixture("fig5")
    r = build_r_matrix(d)
    a = incidence_matrix(d)
    assert abs(linalg.det_exact(r)) == 1
    assert linalg.is_tu_bruteforce(r)
    prod = a @ r
    assert classify_almost_tu_disjoint(mixed_from_matrix(prod)).kind == "mixed-odd-cycle"
    assert abs(linalg.det_exact(prod)) == 2


def test_build_r_identity_for_mixed_odd_cycle():
    tri = as_mixed(core.fixture("c3"))
    assert build_r_matrix(tri).tolist() == np.eye(3, dtype=int).tolist()


def test_build_r_transpose_case():
    a = incidence_matrix(core.fixture("fig5"))
    at = np.asarray(a).T
    dt = mixed_from_matrix(at)
    assert classify_almost_tu_disjoint(dt).kind == "mixed-odd-tree-house"
    r2 = build_r_matrix(dt)
    hole = (at @ r2).T  # equals r2.T @ a
    assert classify_almost_tu_disjoint(mixed_from_matrix(hole)).kind == "mixed-odd-cycle"
    assert abs(det_cofactor(r2.T @ a)) == 2


def test_build_r_rejects_non_almost_tu():
    with pytest.raises(PreconditionError):
        build_r_matrix(core.fixture("dir4"))
    with pytest.raises(InputError, match="expected a MixedHypergraph"):
        classify_almost_tu_disjoint(core.fixture("fig1"))


def test_build_r_planted_tree_houses():
    shapes = [(1, 1, 1), (1, 1, 3), (1, 2, 2), (1, 3, 3), (2, 2, 3), (1, 1, 5)]
    for i, lens in enumerate(shapes):
        for seed in (0, 1):
            d, w = generate(GenConfig(seed=1000 * i + seed,
                                      n_vertices=1 + sum(lens), mixed=True,
                                      plant=Plant("mixed-odd-tree-house",
                                                  path_lengths=lens)))
            assert classify_almost_tu_disjoint(d).kind == "mixed-odd-tree-house"
            r = build_r_matrix(d)
            m = incidence_matrix(d)
            assert linalg.is_tu_bruteforce(r, max_dimension_sum=2 * d.n_arcs)
            prod = m @ r
            assert classify_almost_tu_disjoint(
                mixed_from_matrix(prod)).kind == "mixed-odd-cycle"
            assert abs(linalg.det_exact(prod)) == 2


def test_classify_long_planted_tree_house_by_the_tree_house_phase():
    lens = (101, 103, 105)
    d, w = generate(GenConfig(seed=9, n_vertices=1 + sum(lens), mixed=True,
                              plant=Plant("mixed-odd-tree-house", path_lengths=lens)))
    start = time.perf_counter()
    cls = classify_almost_tu_disjoint(d)
    assert time.perf_counter() - start < 1.0
    assert cls == Classification("mixed-odd-tree-house", w)
    # moving a path arc between two vertices of another path keeps the host
    # square with one 4-arc, but it is no tree house any more
    arcs = list(d.arcs)
    p3 = w.paths[2]
    arcs[w.path_edge_ids[0][50]] = ((p3[10], p3[20]), ())
    moved = MixedHypergraph(d.names, tuple(arcs))
    assert moved.n_arcs == moved.n_vertices
    assert classify_almost_tu_disjoint(moved).kind == "not-almost-tu"


def test_classify_rejects_a_tree_house_that_misses_vertices():
    # a (1,1,3) tree house beside a disjoint mixed 3-cycle: square, one
    # 4-arc, every vertex on two arcs but the root, and the tree-house phase
    # finds the tree house, which covers only 6 of the 9 vertices
    th, _ = generate(GenConfig(seed=4, n_vertices=6, mixed=True,
                               plant=Plant("mixed-odd-tree-house", path_lengths=(1, 1, 3))))
    ring = (((6,), (7,)), ((7,), (8,)), ((6, 8), ()))
    d = MixedHypergraph(tuple(f"v{i}" for i in range(9)), th.arcs + ring)
    assert detect.find_mixed_odd_tree_house(d) is not None
    assert classify_almost_tu_disjoint(d).kind == "not-almost-tu"


def test_classify_skips_the_search_on_a_dense_square_host():
    # a 4-arc inside 14 vertices joined pairwise by head-tail arcs, padded
    # with isolated vertices to as many vertices as arcs: no tree house can
    # close, and the tree-house phase would walk every simple path there
    arcs = [((a,), (b,)) for a, b in itertools.combinations(range(14), 2)]
    arcs.append(((0, 1, 2, 3), ()))
    d = MixedHypergraph(tuple(f"v{i}" for i in range(len(arcs))), tuple(arcs))
    start = time.perf_counter()
    assert classify_almost_tu_disjoint(d).kind == "not-almost-tu"
    assert time.perf_counter() - start < 1.0


def _permuted(d, vperm, aperm):
    """d with its rows and its columns reordered."""
    doc = core.instance_to_dict(d)
    return core.load_instance({"vertices": [doc["vertices"][v] for v in vperm],
                               "arcs": [doc["arcs"][a] for a in aperm]})


def test_classification_is_invariant_under_permutation_and_negation():
    for seed in range(40):
        rng = Xoshiro256StarStar(80_000 + seed)
        if seed % 2:
            plant = Plant("mixed-odd-cycle", length=2 + seed % 9)
        else:
            plant = Plant("mixed-odd-tree-house", path_lengths=(1 + seed % 3, 2, 1 + seed % 4))
        k = plant.length or 1 + sum(plant.path_lengths)
        d, _ = generate(GenConfig(seed=seed, n_vertices=k, mixed=True, plant=plant))
        kind = classify_almost_tu_disjoint(d).kind
        assert kind == plant.kind
        vperm = rng.sample(range(d.n_vertices), d.n_vertices)
        aperm = rng.sample(range(d.n_arcs), d.n_arcs)
        for variant in (_permuted(d, vperm, aperm),
                        negate_row(d, rng.randrange(d.n_vertices)),
                        negate_column(d, rng.randrange(d.n_arcs))):
            assert classify_almost_tu_disjoint(variant).kind == kind
