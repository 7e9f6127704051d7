"""Tests of the benchmark's own oracles on the fixtures shipped with tuhyper.

The fixtures are read as plain JSON, so these tests import nothing from
`tuhyper`.
"""

import itertools
import json
import os

import numpy as np

import oracles

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "tuhyper", "data")


def fixture(name: str) -> dict:
    with open(os.path.join(DATA, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_fig1_has_delta_two():
    assert oracles.max_abs_subdet(oracles.matrix(fixture("fig1"))) == 2


def test_c3_is_not_tu_and_c4_is():
    assert not oracles.is_tu(oracles.matrix(fixture("c3")))
    assert oracles.is_tu(oracles.matrix(fixture("c4")))
    assert oracles.is_tu(oracles.matrix(fixture("dir4")))


def test_is_tu_agrees_with_subdeterminants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows, cols = rng.integers(1, 6, size=2)
        m = rng.integers(-1, 2, size=(rows, cols)).tolist()
        assert oracles.is_tu(m) == (oracles.max_abs_subdet(m) <= 1), m


def test_delta_is_two_to_the_odd_cycle_packing():
    two_triangles = {"vertices": list("abcdef"),
                     "edges": [["a", "b"], ["b", "c"], ["a", "c"],
                               ["d", "e"], ["e", "f"], ["d", "f"], ["c", "d"]]}
    for doc, ocp in ((fixture("c3"), 1), (fixture("c4"), 0), (two_triangles, 2)):
        assert oracles.odd_cycle_packing(doc) == ocp
        assert oracles.max_abs_subdet(oracles.matrix(doc)) == 2 ** ocp


def test_det_matches_cofactor_expansion():
    def cofactor(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * cofactor([r[:j] + r[j + 1:] for r in m[1:]])
                   for j in range(len(m)) if m[0][j])

    rng = np.random.default_rng(3)
    for n in range(1, 6):
        for _ in range(20):
            m = rng.integers(-2, 3, size=(n, n)).tolist()
            assert oracles.det(m) == cofactor(m)


def test_witness_checker():
    fig1 = fixture("fig1")
    house = {"kind": "odd-tree-house", "root": "r", "leaves": ["l1", "l2", "l3"],
             "paths": [["r", "l1"], ["r", "l2"], ["r", "l3"]],
             "path_edge_ids": [[0], [1], [2]], "hyperedge_id": 3}
    assert oracles.witness_error(fig1, house) is None
    assert oracles.witness_error(fig1, dict(house, hyperedge_id=2)) is not None

    c3 = {"kind": "odd-cycle", "vertices": ["a", "b", "c"], "edge_ids": [0, 1, 2]}
    assert oracles.witness_error(fixture("c3"), c3) is None
    assert oracles.witness_error(fixture("c3"), dict(c3, edge_ids=[0, 1])) is not None
    c4 = {"kind": "odd-cycle", "vertices": ["a", "b", "c", "d"], "edge_ids": [0, 1, 2, 3]}
    assert "determinant 0" in oracles.witness_error(fixture("c4"), c4)


def test_witness_checker_rejects_an_edge_with_a_chord_vertex():
    # Triangle a-b-c whose edge {a, b} also holds c: not a partial subhypergraph.
    doc = {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"], ["b", "c"], ["a", "c"]]}
    w = {"kind": "odd-cycle", "vertices": ["a", "b", "c"], "edge_ids": [0, 1, 2]}
    assert "wrong vertices" in oracles.witness_error(doc, w)


def test_mixed_odd_cycle_witness():
    # Two arcs on {u, v}: one with both ends as heads, one directed.
    doc = {"vertices": ["u", "v"], "arcs": [{"plus": ["u", "v"], "minus": []},
                                            {"plus": ["u"], "minus": ["v"]}]}
    w = {"kind": "mixed-odd-cycle", "vertices": ["u", "v"], "edge_ids": [0, 1]}
    assert oracles.witness_error(doc, w) is None
    assert not oracles.is_tu(oracles.matrix(doc))
    same = {"vertices": ["u", "v"], "arcs": [{"plus": ["u"], "minus": ["v"]}] * 2}
    assert oracles.witness_error(same, w) is not None
    assert oracles.is_tu(oracles.matrix(same))


def test_signings_cover_every_row_subset():
    xs, support = oracles._signings(3)
    assert len(xs) == 27
    assert sorted(set(support.tolist())) == list(range(8))
    assert all(((x != 0) * [1, 2, 4]).sum() == s for x, s in zip(xs, support))
    assert {tuple(x) for x in xs} == set(itertools.product((-1.0, 0.0, 1.0), repeat=3))
