"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (run with `pytest -s` to see them live).
The random corpora are seeded and shared, so reruns are bit-identical.
"""

import functools
import json
import os
import subprocess
import sys
import time
from importlib import resources

from tuhyper import core, detect, extract, linalg, mixed
from tuhyper.core import MixedHypergraph, incidence_matrix, mixed_from_matrix
from tuhyper.errors import InputError, NotDisjointError
from tuhyper.gen import GenConfig, Plant, generate


def _report(num, text):
    print(f"[criterion {num:2d}] PASS  {text}")


def _run_cli(*args):
    # the CLI runs from the source tree of the package imported here
    src = os.path.dirname(os.path.dirname(core.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, TUHYPER_NO_COLOR="1", PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "tuhyper.cli", *args],
                          capture_output=True, text=True, env=env)


@functools.lru_cache(maxsize=None)
def disjoint_corpus():
    """>= 10^4 seeded disjoint hypergraphs with <= 9 vertices and <= 9 edges."""
    sizes = ((), (4,), (5,), (4, 4), (4, 3), (3, 3), (6,), (3,))
    out = []
    seed = 0
    while len(out) < 10_000:
        cfg = GenConfig(
            seed=seed,
            n_vertices=4 + seed % 6,
            n_small_edges=(seed * 7) % 8,
            proper_edge_sizes=sizes[seed % len(sizes)],
            disjoint=True,
            plant=(Plant("odd-tree-house", path_lengths=(1, 1, 3))
                   if seed % 37 == 0 and 4 + seed % 6 >= 6 else None),
        )
        seed += 1
        try:
            g, _ = generate(cfg)
        except InputError:
            continue
        if g.n_vertices <= 9 and g.n_edges <= 9:
            out.append(g)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def disjoint_corpus_results():
    """Decision + brute-force verdict per corpus instance."""
    results = []
    for g in disjoint_corpus():
        dec = detect.decide_unimodular_disjoint(g)
        brute = linalg.is_tu_bruteforce(incidence_matrix(g))
        results.append((g, dec, brute))
    return results


def test_criterion_01_fig1():
    t0 = time.time()
    g = core.fixture("fig1")
    dec = detect.decide_unimodular_disjoint(g)
    assert not dec.tu and isinstance(dec.witness, detect.OddTreeHouseWitness)
    assert detect.verify_witness(g, dec.witness)
    assert linalg.max_abs_subdet(incidence_matrix(g)).delta == 2
    cam = linalg.camion_unimodular(g)
    assert not cam.unimodular and cam.value == 10 and cam.value % 4 == 2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    r = _run_cli("check", str(resources.files("tuhyper") / "data" / "fig1.json"),
                 "--json")
    doc = json.loads(r.stdout)
    assert r.returncode == 1 and doc["tu"] is False
    assert doc["witness"]["kind"] == "odd-tree-house"
    _report(1, f"fig1: not TU, tree-house witness, delta 2, support 10 ({elapsed:.2f}s)")


def test_criterion_02_fig2():
    t0 = time.time()
    g = core.fixture("fig2")
    assert detect.find_odd_cycle(g) is None
    assert detect.find_odd_tree_house(g) is None
    m = incidence_matrix(g)
    assert not linalg.is_tu_bruteforce(m)
    assert linalg.is_almost_tu(m)
    try:
        detect.decide_unimodular_disjoint(g)
        raise AssertionError("non-disjoint input must be rejected")
    except NotDisjointError as err:
        assert {err.edge_a, err.edge_b} == {0, 1}
    elapsed = time.time() - t0
    assert elapsed < 1.0
    r = _run_cli("check", str(resources.files("tuhyper") / "data" / "fig2.json"),
                 "--disjoint")
    assert r.returncode == 2 and "0" in r.stderr and "1" in r.stderr
    _report(2, f"fig2: no forbidden structure, almost TU, disjointness rejected ({elapsed:.2f}s)")


def test_criterion_03_fig5():
    t0 = time.time()
    d = core.fixture("fig5")
    cls = mixed.classify_almost_tu_disjoint(d)
    assert cls.kind == "mixed-odd-tree-house"
    a = incidence_matrix(d)
    assert abs(linalg.det_exact(a)) == 2
    r = mixed.build_r_matrix(d)
    assert linalg.is_tu_bruteforce(r)
    prod = a @ r
    hole = mixed_from_matrix(prod)
    hole_cls = mixed.classify_almost_tu_disjoint(hole)
    assert hole_cls.kind == "mixed-odd-cycle"
    assert detect.verify_witness(hole, hole_cls.witness)
    assert abs(linalg.det_exact(prod)) == 2
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(3, f"fig5: mixed odd tree house, |det| 2, R maps onto unbalanced hole ({elapsed:.2f}s)")


def test_criterion_04_fig4():
    t0 = time.time()
    d = core.fixture("fig4-left")
    want = core.fixture("fig4-right")
    cur = d
    splits = 0
    while True:
        aid = next((a for a in range(cur.n_arcs)
                    if len(cur.arcs[a][0]) == 1 and len(cur.arcs[a][1]) == 1), None)
        if aid is None:
            break
        cur, _ = mixed.split_arc(cur, aid)
        splits += 1
    assert splits == 3
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
    assert abs(linalg.det_exact(incidence_matrix(d))) == 2
    assert abs(linalg.det_exact(incidence_matrix(cur))) == 2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(4, f"fig4: splitting reproduces the printed 7x7 matrix, |det| preserved ({elapsed:.2f}s)")


def test_criterion_05_decision_equals_bruteforce():
    t0 = time.time()
    disagreements = [
        i for i, (g, dec, brute) in enumerate(disjoint_corpus_results())
        if dec.tu != brute
    ]
    assert disagreements == []
    n = len(disjoint_corpus_results())
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(5, f"decision == brute force on {n} disjoint instances ({elapsed:.0f}s)")


def test_criterion_06_mixed_decision_equals_bruteforce():
    t0 = time.time()
    sizes = ((), (4,), (5,), (4, 4), (4, 3), (6,))
    checked = 0
    seed = 0
    while checked < 10_000:
        cfg = GenConfig(
            seed=100_000 + seed,
            n_vertices=3 + seed % 6,
            n_small_edges=(seed * 5) % 7,
            proper_edge_sizes=sizes[seed % len(sizes)],
            disjoint=True,
            mixed=True,
            plant=(Plant("mixed-odd-cycle", length=2 + seed % 4)
                   if seed % 23 == 0 else None),
        )
        seed += 1
        try:
            d, _ = generate(cfg)
        except InputError:
            continue
        if d.n_vertices > 8 or d.n_arcs > 8:
            continue
        dec = detect.decide_unimodular_mixed_disjoint(d)
        brute = linalg.is_tu_bruteforce(incidence_matrix(d))
        assert dec.tu == brute, f"seed {100_000 + seed - 1}"
        if dec.witness is not None:
            assert detect.verify_witness(d, dec.witness)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(6, f"mixed decision == brute force on {checked} instances ({elapsed:.0f}s)")


def test_criterion_07_camion_agrees_with_bruteforce():
    t0 = time.time()
    checked = 0
    for seed in range(4000):
        try:
            g, _ = generate(GenConfig(
                seed=200_000 + seed, n_vertices=3 + seed % 5,
                n_small_edges=(seed * 3) % 7,
                proper_edge_sizes=((), (3,), (4,), (4, 3), (5,))[seed % 5],
                disjoint=False, mixed=seed % 2 == 1))
        except InputError:
            continue
        rows = g.n_vertices
        cols = g.n_arcs if isinstance(g, MixedHypergraph) else g.n_edges
        if rows + cols > 14:
            continue
        brute = linalg.is_tu_bruteforce(incidence_matrix(g))
        if isinstance(g, MixedHypergraph):
            got = linalg.camion_unimodular_mixed(g).unimodular
        else:
            got = linalg.camion_unimodular(g).unimodular
        assert got == brute, f"seed {200_000 + seed}"
        checked += 1
    assert checked >= 2000
    elapsed = time.time() - t0
    _report(7, f"support-count criteria == brute force on {checked} instances ({elapsed:.0f}s)")


def test_criterion_08_delta_equals_two_to_the_ocp():
    t0 = time.time()
    checked = 0
    seed = 0
    while checked < 1000:
        cfg = GenConfig(seed=300_000 + seed, n_vertices=4 + seed % 7,
                        n_small_edges=3 + (seed * 3) % 10, proper_edge_sizes=())
        seed += 1
        g, _ = generate(cfg)
        if g.n_vertices > 10 or g.n_vertices + g.n_edges > 22:
            continue
        delta = linalg.max_abs_subdet(incidence_matrix(g)).delta
        ocp = detect.compute_ocp(g)
        assert delta == 2 ** ocp, f"seed {300_000 + seed - 1}"
        checked += 1
    elapsed = time.time() - t0
    _report(8, f"delta == 2^ocp on {checked} graphs up to 10 vertices ({elapsed:.0f}s)")


def test_criterion_09_rank_three_hypergraphs():
    t0 = time.time()
    checked = 0
    for seed in range(4500):
        try:
            g, _ = generate(GenConfig(
                seed=400_000 + seed, n_vertices=3 + seed % 6,
                n_small_edges=(seed * 7) % 8,
                proper_edge_sizes=((), (3,), (3, 3), (3, 3, 3))[seed % 4],
                disjoint=False))
        except InputError:
            continue
        if g.n_vertices > 8 or g.n_vertices + g.n_edges > 18:
            continue
        tu = linalg.is_tu_bruteforce(incidence_matrix(g))
        assert tu == (detect.find_odd_cycle(g) is None), f"seed {400_000 + seed}"
        checked += 1
    assert checked >= 2000
    elapsed = time.time() - t0
    _report(9, f"size-<=3 hypergraphs: TU iff no odd cycle, {checked} instances ({elapsed:.0f}s)")


def test_criterion_10_even_cycle_nullvectors():
    t0 = time.time()
    even_checked = 0
    seed = 0
    while even_checked < 1000:
        k = 2 * (2 + seed % 5) + (2 if seed % 7 == 0 else 0)  # 4..12 even
        d, _ = generate(GenConfig(seed=500_000 + seed, n_vertices=k, mixed=True,
                                  plant=Plant("mixed-odd-cycle", length=k)))
        seed += 1
        heads, tails = d.arcs[0]
        support = tuple(sorted(heads + tails))
        arcs = list(d.arcs)
        arcs[0] = (support, ()) if len(heads) == 1 else ((support[0],), (support[1],))
        dd = MixedHypergraph(d.names, tuple(arcs))
        assert mixed.path_or_cycle_parity(dd) == "even"
        u = mixed.even_cycle_nullvector(dd)
        m = incidence_matrix(dd)
        assert (m @ u == 0).all()
        assert linalg.det_exact(m) == 0
        even_checked += 1
    odd_checked = 0
    seed = 0
    while odd_checked < 1000:
        k = 2 + seed % 10  # 2..11
        d, _ = generate(GenConfig(seed=600_000 + seed, n_vertices=k, mixed=True,
                                  plant=Plant("mixed-odd-cycle", length=k)))
        seed += 1
        assert abs(linalg.det_exact(incidence_matrix(d))) == 2
        odd_checked += 1
    elapsed = time.time() - t0
    _report(10, f"{even_checked} even cycles null-spanned, {odd_checked} odd cycles |det| 2 ({elapsed:.0f}s)")


def test_criterion_11_extraction_sound_and_complete():
    t0 = time.time()
    extracted = 0
    for g, dec, brute in disjoint_corpus_results():
        if brute:
            continue
        res = extract.extract_witness(g)
        assert detect.verify_witness(g, res.witness)
        extracted += 1
    elapsed = time.time() - t0
    assert elapsed < 1800
    _report(11, f"extraction verified on all {extracted} non-TU corpus instances ({elapsed:.0f}s)")


def test_criterion_12_almost_tu_classification():
    t0 = time.time()
    planted = 0
    seed = 0
    while planted < 1000:
        if seed % 2 == 0:
            k = 2 + seed % 6
            d, _ = generate(GenConfig(seed=700_000 + seed, n_vertices=k, mixed=True,
                                      plant=Plant("mixed-odd-cycle", length=k)))
            want_kind = "mixed-odd-cycle"
        else:
            lens = ((1, 1, 1), (1, 1, 3), (1, 2, 2), (2, 2, 1), (1, 2, 3))[seed % 5]
            d, _ = generate(GenConfig(seed=700_000 + seed, n_vertices=1 + sum(lens),
                                      mixed=True,
                                      plant=Plant("mixed-odd-tree-house",
                                                  path_lengths=lens)))
            want_kind = "mixed-odd-tree-house"
        seed += 1
        cls = mixed.classify_almost_tu_disjoint(d)
        assert cls.kind == want_kind
        assert linalg.is_almost_tu(incidence_matrix(d))
        planted += 1
    randoms = 0
    seed = 0
    while randoms < 1000:
        try:
            d, _ = generate(GenConfig(seed=800_000 + seed, n_vertices=3 + seed % 5,
                                      n_small_edges=(seed * 3) % 6,
                                      proper_edge_sizes=((), (4,))[seed % 2],
                                      disjoint=True, mixed=True))
        except InputError:
            seed += 1
            continue
        seed += 1
        if d.n_vertices + d.n_arcs > 14:
            continue
        got = mixed.classify_almost_tu_disjoint(d).kind != "not-almost-tu"
        assert got == linalg.is_almost_tu(incidence_matrix(d)), f"seed {800_000 + seed - 1}"
        randoms += 1
    elapsed = time.time() - t0
    _report(12, f"classification == almost-TU brute force on {planted}+{randoms} instances ({elapsed:.0f}s)")
