import json

import numpy as np
import pytest

from tuhyper import core
from tuhyper.core import Hypergraph, MixedHypergraph, SubSelection, induce
from tuhyper.errors import InputError
from tuhyper.gen import GenConfig, Xoshiro256StarStar, generate


def test_fig1_incidence_matrix_as_printed():
    m = core.incidence_matrix(core.fixture("fig1"))
    assert m.tolist() == [
        [1, 1, 1, 1],
        [1, 0, 0, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
    ]


def test_fig5_incidence_matrix_as_printed():
    m = core.incidence_matrix(core.fixture("fig5"))
    assert m.tolist() == [
        [1, -1, 0, -1, 1],
        [-1, 0, 0, 0, -1],
        [0, 1, 1, 0, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 0, -1, 1],
    ]


def test_empty_hypergraph_incidence():
    g = Hypergraph((), ())
    assert core.incidence_matrix(g).shape == (0, 0)


def test_incidence_matrix_is_readonly():
    m = core.incidence_matrix(core.fixture("c3"))
    with pytest.raises(ValueError):
        m[0, 0] = 5


def test_construction_validation():
    with pytest.raises(InputError):
        Hypergraph(("a", "a"), ())
    with pytest.raises(InputError):
        Hypergraph(("a",), ((),))
    with pytest.raises(InputError):
        Hypergraph(("a",), ((0, 1),))
    with pytest.raises(InputError):
        MixedHypergraph(("a", "b"), (((0,), (0,)),))
    with pytest.raises(InputError):
        MixedHypergraph(("a",), (((), ()),))
    # one walk over each edge or arc side checks its ids: integers, strictly
    # ascending and below n; malformed ones are input errors, not TypeErrors
    for ids in ((0.0, 1), (None, 1), ("0", "1"), (0, 1.5), (-1, 0), (1, 0), (0, 0), (0, 2),
                (0, 7)):
        with pytest.raises(InputError):
            Hypergraph(("a", "b"), (ids,))
        with pytest.raises(InputError):
            MixedHypergraph(("a", "b"), ((ids, ()),))
        with pytest.raises(InputError):
            MixedHypergraph(("a", "b"), (((), ids),))
    with pytest.raises(InputError):
        MixedHypergraph(("a", "b"), (((0.0,), (1,)),))
    with pytest.raises(InputError):
        MixedHypergraph(("a", "b"), ((("0",), ()),))
    with pytest.raises(InputError):
        MixedHypergraph(("a", "b"), (((0, 1), (1,)),))
    with pytest.raises(InputError):
        MixedHypergraph(("a", "a"), ())
    # numpy integer ids would make numpy masks, which wrap past 63 vertices
    for t in (np.int64, np.int8, np.uint8, np.bool_):
        for ids in ((t(0), t(1)), (0, t(1))):
            with pytest.raises(InputError, match="not a Python integer"):
                Hypergraph(("a", "b"), (ids,))
            with pytest.raises(InputError, match="not a Python integer"):
                MixedHypergraph(("a", "b"), ((ids, ()),))
            with pytest.raises(InputError, match="not a Python integer"):
                MixedHypergraph(("a", "b"), (((), ids),))
    with pytest.raises(InputError, match="edge 2 holds a vertex id that is not a Python"):
        Hypergraph(("a", "b", "c"), ((0, 1), (1, 2), (0, np.int64(2))))
    with pytest.raises(InputError, match="not a Python integer"):
        Hypergraph(tuple(f"v{i}" for i in range(100)), ((0, 80, np.int64(90)),))


def test_parallel_edges_are_distinct_columns():
    g = Hypergraph.from_names(["a", "b"], [["a", "b"], ["a", "b"]])
    assert g.n_edges == 2
    assert core.incidence_matrix(g).tolist() == [[1, 1], [1, 1]]


def test_induce_fig1_two_vertices():
    g = core.fixture("fig1")
    ind = induce(g, SubSelection((0, 1), (0, 1, 2, 3)))
    assert ind.sub.names == ("r", "l1")
    assert ind.sub.edges == ((0, 1), (0,), (0,), (0, 1))
    assert ind.origin == (0, 1, 2, 3)


def test_induce_full_selection_is_identity():
    g = core.fixture("fig2")
    ind = induce(g, SubSelection(tuple(range(5)), tuple(range(5))))
    assert ind.sub == g
    assert ind.origin == tuple(range(5))


def test_induce_fig2_single_vertex_parallel_singletons():
    g = core.fixture("fig2")
    ind = induce(g, SubSelection((0,), (0, 1)))
    assert ind.sub.edges == ((0,), (0,))
    assert ind.origin == (0, 1)


def test_induce_rejects_bad_selection():
    g = core.fixture("c3")
    with pytest.raises(InputError):
        induce(g, SubSelection((0, 9), (0,)))
    with pytest.raises(InputError):
        induce(g, SubSelection((0,), (7,)))
    with pytest.raises(InputError):
        SubSelection((1, 0), ())


def test_induce_incidence_is_submatrix_random():
    rng = Xoshiro256StarStar(7)
    for trial in range(200):
        try:
            g, _ = generate(GenConfig(seed=trial, n_vertices=3 + trial % 5,
                                      n_small_edges=trial % 5,
                                      proper_edge_sizes=((), (3,), (4,))[trial % 3],
                                      disjoint=False))
        except InputError:
            continue
        if g.n_edges == 0:
            continue
        us = tuple(sorted(rng.sample(range(g.n_vertices),
                                     1 + rng.randrange(g.n_vertices))))
        fs = tuple(sorted(rng.sample(range(g.n_edges),
                                     1 + rng.randrange(g.n_edges))))
        ind = induce(g, SubSelection(us, fs))
        want = core.incidence_matrix(g)[np.ix_(us, ind.origin)]
        assert core.incidence_matrix(ind.sub).tolist() == want.tolist()


def test_is_disjoint_examples():
    assert core.is_disjoint(core.fixture("fig1"))
    assert not core.is_disjoint(core.fixture("fig2"))
    assert core.overlapping_proper_edges(core.fixture("fig2")) == (0, 1)
    assert core.is_disjoint(core.fixture("c4"))


def test_is_eulerian_examples():
    assert core.is_eulerian(core.fixture("c4"))
    assert core.is_eulerian(core.fixture("fig1"))
    assert not core.is_eulerian(Hypergraph.from_names("abc", [["a", "b", "c"]]))
    assert core.is_eulerian(core.fixture("dir4"))


def test_is_eulerian_matches_direct_recount():
    for trial in range(120):
        try:
            g, _ = generate(GenConfig(seed=1000 + trial, n_vertices=3 + trial % 5,
                                      n_small_edges=trial % 6,
                                      proper_edge_sizes=((), (4,))[trial % 2],
                                      mixed=trial % 2 == 1))
        except InputError:
            continue
        m = core.incidence_matrix(g)
        nz = m != 0
        want = bool((nz.sum(0) % 2 == 0).all() and (nz.sum(1) % 2 == 0).all())
        assert core.is_eulerian(g) == want


def test_support_size_examples():
    assert core.support_size(core.incidence_matrix(core.fixture("fig1"))) == 10
    assert core.support_size(core.incidence_matrix(core.fixture("c3"))) == 6
    assert core.support_size(np.zeros((3, 4), dtype=int)) == 0


def test_cycle_support_counts_mod_four():
    # odd cycle of length 2k+1 has support 4k+2; even of length 2k has 4k
    for k in range(1, 5):
        odd = Hypergraph.from_names(
            [f"v{i}" for i in range(2 * k + 1)],
            [[f"v{i}", f"v{(i + 1) % (2 * k + 1)}"] for i in range(2 * k + 1)])
        even = Hypergraph.from_names(
            [f"v{i}" for i in range(2 * k + 2)],
            [[f"v{i}", f"v{(i + 1) % (2 * k + 2)}"] for i in range(2 * k + 2)])
        assert core.support_size(core.incidence_matrix(odd)) % 4 == 2
        assert core.support_size(core.incidence_matrix(even)) % 4 == 0


def test_mixed_from_matrix_round_trip():
    d = core.fixture("fig5")
    m = core.incidence_matrix(d)
    back = core.mixed_from_matrix(m, d.names)
    assert core.incidence_matrix(back).tolist() == m.tolist()
    with pytest.raises(InputError):
        core.mixed_from_matrix(np.array([[2, 0], [0, 1]]))


def test_mixed_from_matrix_needs_one_name_per_row():
    # too many names would add isolated vertices, too few would blame an arc
    for names in (("a", "b", "c"), ("a",)):
        with pytest.raises(InputError, match=f"{len(names)} vertex names for 2 matrix rows"):
            core.mixed_from_matrix(np.eye(2, dtype=np.int64), names)


def test_instance_json_round_trip():
    for name in core.FIXTURE_NAMES:
        g = core.fixture(name)
        doc = json.loads(json.dumps(core.instance_to_dict(g)))
        assert core.load_instance(doc) == g


def test_json_text_of_a_list_or_a_string_is_an_input_error(tmp_path):
    for text in ("[1]", ' "x"', "  [ ]"):
        with pytest.raises(InputError, match="must be an object"):
            core.load_instance(text)
    # a string that names a file still loads it
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(core.instance_to_dict(core.fixture("fig1"))), encoding="utf-8")
    assert core.load_instance(str(path)) == core.fixture("fig1")


def test_fixture_unknown_name():
    with pytest.raises(InputError):
        core.fixture("fig9")
