import collections
import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from tuhyper import cli, core, detect, linalg
from tuhyper.errors import InputError, PreconditionError, SizeGuardError
from tuhyper.extract import find_eulerian_core
from tuhyper.gen import GenConfig, Plant, Xoshiro256StarStar, generate

from _hosts import bipartite_with_c9
from _oracles import (delta_exhaustive, det_cofactor, eulerian_selections_per_u, is_tu_cofactor,
                      masks_by_size_then_value, next_same_popcount)


def test_det_exact_fixture_values():
    assert linalg.det_exact(core.incidence_matrix(core.fixture("fig1"))) == 2
    assert linalg.det_exact(core.incidence_matrix(core.fixture("fig2"))) == -2
    assert linalg.det_exact(np.eye(3, dtype=int)) == 1
    assert linalg.det_exact(np.zeros((0, 0), dtype=int)) == 1


def test_det_exact_rejects_non_square():
    with pytest.raises(InputError):
        linalg.det_exact(np.ones((2, 3), dtype=int))
    with pytest.raises(InputError):
        linalg.det_exact([1, 2])
    for run in (linalg.max_abs_subdet, linalg.tu_violation, linalg.is_almost_tu):
        with pytest.raises(InputError, match="two-dimensional"):
            run(np.array([1, 2]))
    for cap in (0, -3):
        with pytest.raises(InputError, match="cap"):
            linalg.max_abs_subdet(core.incidence_matrix(core.fixture("fig1")), cap=cap)
    for run in (linalg.det_exact, linalg.max_abs_subdet):
        with pytest.raises(InputError):
            run([[1, 2], [3]])  # ragged rows


def test_entries_that_are_not_integers_are_refused():
    for run, m in ((linalg.max_abs_subdet, [[0.5, 1.5], [2.7, 1]]),
                   (linalg.det_exact, [[2.9, 0], [0, 1]]),
                   (linalg.max_abs_subdet, [["1", "2"]]),
                   (linalg.det_exact, [["a"]]),
                   (linalg.tu_violation, [[1, float("nan")]]),
                   (linalg.is_almost_tu, np.array([[1, 0.5]], dtype=object)),
                   (linalg.det_exact, [[1j]]),
                   (linalg.batch_det_exact, [[[2.9, 0], [0, 1]]])):
        with pytest.raises(InputError, match="integer entries"):
            run(m)
    # int and bool arrays, and floats with integral values, are integers
    assert linalg.det_exact([[2.0, 0], [0, 1]]) == 2
    assert linalg.max_abs_subdet([[2.0, 1.0], [-1.0, 1.0]]).delta == 3
    assert linalg.max_abs_subdet(np.array([[True, True], [False, True]])).delta == 1
    assert linalg.max_abs_subdet(np.array([[3, 1]], dtype=np.uint8)).delta == 3
    assert linalg.tu_violation(np.array([[10**9]], dtype=object)) == ((0,), (0,), 10**9)
    with pytest.raises(SizeGuardError):
        linalg.max_abs_subdet(np.array([[10**400]], dtype=object))


def test_limits_must_be_positive_integers():
    m = core.incidence_matrix(core.fixture("fig1"))
    for bad in ("3", True, False, 2.0, 0, -1):
        with pytest.raises(InputError, match="cap must be a positive integer"):
            linalg.max_abs_subdet(m, cap=bad)
        for run in (linalg.max_abs_subdet, linalg.tu_violation, linalg.is_tu_bruteforce,
                    linalg.is_almost_tu):
            with pytest.raises(InputError, match="max_dimension_sum must be a positive integer"):
                run(m, max_dimension_sum=bad)
    assert linalg.max_abs_subdet(m, cap=np.int64(1)).delta == 1


def test_camion_rejects_a_host_of_the_other_type():
    with pytest.raises(InputError, match="expected a Hypergraph"):
        linalg.camion_unimodular(core.fixture("fig5"))
    with pytest.raises(InputError, match="expected a MixedHypergraph"):
        linalg.camion_unimodular_mixed(core.fixture("fig1"))


def test_det_exact_matches_cofactor_on_randoms():
    rng = Xoshiro256StarStar(11)
    for _ in range(300):
        n = 1 + rng.randrange(6)
        m = np.array([[rng.randrange(7) - 3 for _ in range(n)] for _ in range(n)])
        assert linalg.det_exact(m) == det_cofactor(m)


def test_det_exact_big_integers():
    # entries far beyond int64 Hadamard comfort; exactness must not degrade
    m = np.array([[10**9, 2], [3, 10**9]], dtype=object)
    assert linalg.det_exact(m) == 10**18 - 6


def test_batch_det_matches_det_exact():
    rng = Xoshiro256StarStar(5)
    for size in (1, 2, 3, 4, 5):
        mats = np.array(
            [[[rng.randrange(3) - 1 for _ in range(size)] for _ in range(size)]
             for _ in range(64)]
        )
        got = linalg.batch_det_exact(mats)
        want = [det_cofactor(m) for m in mats]
        assert got.tolist() == want
    for empty, want in ((np.zeros((3, 0, 0), dtype=int), [1, 1, 1]),
                        (np.zeros((0, 2, 2), dtype=int), [])):
        got = linalg.batch_det_exact(empty)
        assert got.dtype == np.int64 and got.tolist() == want
    with pytest.raises(InputError, match="stack of square matrices"):
        linalg.batch_det_exact(np.eye(2, dtype=int))


def test_batch_det_is_exact_or_refused():
    # the determinants come back in int64: a matrix whose Hadamard bound H
    # has 2 H^2 near or past 2^63 must be refused, not wrapped, and so must
    # an entry beyond the float range
    rng = Xoshiro256StarStar(66)
    exact = refused = 0
    for _ in range(300):
        n, bits = 2 + rng.randrange(3), 1 + rng.randrange(21)
        m = np.array([[rng.randrange(2 << bits) - (1 << bits) for _ in range(n)]
                      for _ in range(n)], dtype=np.int64)
        try:
            got = linalg.batch_det_exact(m[None])
        except SizeGuardError:
            refused += 1
            continue
        exact += 1
        assert int(got[0]) == linalg.det_exact(m), m
    assert exact > 50 and refused > 50
    for big in (2**70, 10**400):
        with pytest.raises(SizeGuardError):
            linalg.batch_det_exact(np.array([[[big]]], dtype=object))


def test_max_abs_subdet_examples():
    fig1 = core.incidence_matrix(core.fixture("fig1"))
    res = linalg.max_abs_subdet(fig1)
    assert res.delta == 2
    tri2 = core.Hypergraph.from_names(
        "abcdef",
        [["a", "b"], ["b", "c"], ["a", "c"], ["d", "e"], ["e", "f"], ["d", "f"]])
    assert linalg.max_abs_subdet(core.incidence_matrix(tri2)).delta == 4
    c4 = core.incidence_matrix(core.fixture("c4"))
    assert linalg.max_abs_subdet(c4).delta == 1


def test_max_abs_subdet_witness_reverifies():
    for name in ("fig1", "fig2", "fig5", "c3"):
        m = core.incidence_matrix(core.fixture(name))
        res = linalg.max_abs_subdet(m)
        sub = np.asarray(m)[np.ix_(res.rows, res.cols)]
        assert abs(linalg.det_exact(sub)) == res.delta


def test_max_abs_subdet_matches_exhaustive_oracle():
    for trial in range(60):
        try:
            g, _ = generate(GenConfig(seed=200 + trial, n_vertices=3 + trial % 4,
                                      n_small_edges=1 + trial % 4,
                                      proper_edge_sizes=((), (3,), (4,))[trial % 3],
                                      mixed=trial % 2 == 0))
        except InputError:
            continue
        m = core.incidence_matrix(g)
        assert linalg.max_abs_subdet(m).delta == delta_exhaustive(m)


def test_size_guard_raises():
    big = np.ones((12, 12), dtype=int)
    with pytest.raises(SizeGuardError):
        linalg.max_abs_subdet(big)
    with pytest.raises(SizeGuardError):
        linalg.is_tu_bruteforce(big)
    assert linalg.is_tu_bruteforce(big, max_dimension_sum=24)


def test_is_tu_bruteforce_examples():
    assert not linalg.is_tu_bruteforce(core.incidence_matrix(core.fixture("fig1")))
    assert linalg.is_tu_bruteforce(core.incidence_matrix(core.fixture("c4")))
    assert not linalg.is_tu_bruteforce(core.incidence_matrix(core.fixture("fig5")))


def test_is_almost_tu_examples():
    assert linalg.is_almost_tu(core.incidence_matrix(core.fixture("fig2")))
    assert linalg.is_almost_tu(core.incidence_matrix(core.fixture("fig5")))
    assert not linalg.is_almost_tu(core.incidence_matrix(core.fixture("c4")))
    assert not linalg.is_almost_tu(np.array([[1, 1, 0], [1, -1, 1]]))  # non-square


def test_almost_tu_implies_det_at_least_two():
    for name in ("fig2", "fig5"):
        m = core.incidence_matrix(core.fixture(name))
        assert linalg.is_almost_tu(m)
        assert abs(linalg.det_exact(m)) >= 2


def test_camion_examples():
    res = linalg.camion_unimodular(core.fixture("fig1"))
    assert not res.unimodular and res.value == 10
    assert len(res.witness.vertices) == 4 and len(res.witness.edge_ids) == 4
    res = linalg.camion_unimodular(core.fixture("c3"))
    assert not res.unimodular and res.value == 6
    assert linalg.camion_unimodular(core.fixture("c4")).unimodular


def test_camion_witness_is_eulerian_with_bad_support():
    for name in ("fig1", "fig2", "c3"):
        g = core.fixture(name)
        res = linalg.camion_unimodular(g)
        if res.unimodular:
            continue
        ind = core.induce(g, res.witness)
        assert core.is_eulerian(ind.sub)
        assert core.support_size(core.incidence_matrix(ind.sub)) % 4 == 2
        assert res.value % 4 == 2


def test_camion_mixed_examples():
    res = linalg.camion_unimodular_mixed(core.fixture("fig5"))
    assert not res.unimodular and res.value % 4 == 2
    assert linalg.camion_unimodular_mixed(core.fixture("dir4")).unimodular
    tri = core.MixedHypergraph.from_names(
        "uvw", [(("u", "v"), ()), (("v",), ("w",)), (("w",), ("u",))])
    res = linalg.camion_unimodular_mixed(tri)
    assert not res.unimodular and res.value % 4 != 0


def test_camion_agrees_with_bruteforce_small_corpus():
    mismatches = []
    for trial in range(250):
        g, _ = generate(GenConfig(seed=3000 + trial, n_vertices=3 + trial % 4,
                                  n_small_edges=trial % 6,
                                  proper_edge_sizes=((), (3,), (4,), (4, 3))[trial % 4],
                                  disjoint=False))
        if g.n_vertices + g.n_edges > 11:
            continue  # cofactor oracle gets slow; the acceptance suite covers 14
        want = is_tu_cofactor(core.incidence_matrix(g))
        if linalg.camion_unimodular(g).unimodular != want:
            mismatches.append(trial)
    assert mismatches == []


def test_camion_mixed_agrees_with_bruteforce_small_corpus():
    mismatches = []
    for trial in range(250):
        try:
            d, _ = generate(GenConfig(seed=4000 + trial, n_vertices=3 + trial % 4,
                                      n_small_edges=trial % 6,
                                      proper_edge_sizes=((), (3,), (4,))[trial % 3],
                                      disjoint=False, mixed=True))
        except InputError:
            continue
        if d.n_vertices + d.n_arcs > 11:
            continue
        want = is_tu_cofactor(core.incidence_matrix(d))
        if linalg.camion_unimodular_mixed(d).unimodular != want:
            mismatches.append(trial)
    assert mismatches == []


def test_subset_masks_come_by_size_then_value():
    # blocks of 64, 128, ... up to 2,048 masks: slices of one table across
    # popcounts up to 16 bits, one popcount per block above; each block is
    # bit-sliced, bit r of member[i] set when its r-th mask holds i
    for n in list(range(13)) + [16, 17, 18]:
        blocks = [[sum(1 << i for i, m in enumerate(member) if m >> r & 1) for r in range(count)]
                  for member, count in linalg._mask_blocks(n)]
        assert [m for b in blocks for m in b] == list(masks_by_size_then_value(n)), n
        for i, b in enumerate(blocks):
            last = i + 1 == len(blocks)
            if n > 16:
                assert len({m.bit_count() for m in b}) == 1
                last = last or blocks[i + 1][0].bit_count() != b[0].bit_count()
            assert len(b) == min(64 << i, 2048) or last and len(b) < min(64 << i, 2048), (n, i)
    # colex unranking up to 63 bits: runs of consecutive masks of one popcount
    for n, k, start in ((24, 9, 0), (40, 20, 10**10), (63, 31, 3 * 10**17), (63, 62, 0)):
        got = linalg._unrank(n, k, start, min(start + 64, math.comb(n, k))).tolist()
        assert all(m.bit_count() == k and m < 1 << n for m in got)
        assert all(next_same_popcount(a) == b for a, b in zip(got, got[1:]))
    full = (1 << 63) - 1
    assert linalg._unrank(63, 62, 0, 63).tolist() == [full ^ 1 << j for j in range(62, -1, -1)]
    assert linalg._unrank(63, 63, 0, 1).tolist() == [full]
    assert linalg._unrank(40, 20, 0, 1).tolist() == [(1 << 20) - 1]
    assert linalg._unrank(40, 20, math.comb(40, 20) - 1, math.comb(40, 20)).tolist() == [
        (1 << 40) - (1 << 20)]


def _walk_host(seed):
    """Edge masks of a seeded host of `seed % 19` vertices, dense enough
    that peeling often keeps most of them."""
    rng = random.Random(seed)
    n = seed % 19
    masks = []
    for _ in range(rng.randrange(n // 2 + 1, 2 * n + 2)):
        size = min(n, rng.choice((1, 2, 2, 2, 3, 3, 4)))
        masks.append(sum(1 << v for v in rng.sample(range(n), size)))
    return masks, n


def test_block_walk_matches_the_per_u_reference():
    # Whole walks up to 13 vertices cross the block boundaries at 64 and at
    # the cap (the first block of 2,048 follows 1,984 sets); above, the
    # walks stop after |U| = 4, past the boundaries of the first layers'
    # blocks (17 + 136 + 680 + 2,380 sets at 17 vertices).  A dense host
    # yields millions of selections, so each comparison stops at 20,000.
    peeled_sizes = set()
    whole = 0
    for seed in range(400):
        masks, n = _walk_host(seed)
        peel = seed % 38 < 19
        top = n if n <= 13 else 4
        small = lambda sel: sel[0].bit_count() <= top
        got = list(itertools.islice(itertools.takewhile(
            small, linalg._eulerian_selections(masks, n, 18, peel)), 20_000))
        want = list(itertools.islice(eulerian_selections_per_u(masks, n, peel, top), 20_000))
        assert got == want, seed
        whole += 12 <= n == top and len(want) < 20_000
        if peel:
            peeled_sizes.add(linalg._core_vertices(masks, n).bit_count())
    assert whole >= 20 and peeled_sizes >= {0, 3, 8, 12, 16, 17, 18}


def _padded_house(lens, n, seed):
    """Edge masks of a planted odd tree house with pendant edges up to n
    vertices, which peeling removes."""
    g, _ = generate(GenConfig(seed=seed, n_vertices=1 + sum(lens),
                              plant=Plant("odd-tree-house", path_lengths=lens)))
    rng = random.Random(seed)
    return list(g.edge_masks) + [1 << rng.randrange(v) | 1 << v
                                 for v in range(g.n_vertices, n)], n


def test_whole_walks_to_16_vertices_and_first_layers_to_20_match_the_per_u_reference():
    # Whole walks at |P| = 14, 15 and 16 run through every block of the
    # cached table, the last one short; at 19 and 20 the first layers come
    # in unranked blocks.  Blocks hold no bit past their count.
    for n in (14, 16, 19, 20):
        assert all(m >> count == 0 for member, count in linalg._mask_blocks(n) for m in member)
    rng = random.Random(2024)
    sparse = [([sum(1 << v for v in rng.sample(range(n), rng.choice((2, 2, 3))))
                for _ in range(n + rng.randrange(4))], n) for n in (14, 15, 16)]
    hosts = ([([1 << i | 1 << (i + 1) % n for i in range(n)], n) for n in (14, 15, 16)]
             + [_padded_house((3, 3, 5), n, 25_000 + n) for n in (14, 15, 16)]
             + [_padded_house((3, 5, 5), n, 25_100 + n) for n in (14, 16)] + sparse)
    sizes = set()
    for masks, n in hosts:
        for peel in (True, False):
            want = list(eulerian_selections_per_u(masks, n, peel))
            assert list(linalg._eulerian_selections(masks, n, 63, peel)) == want, (n, peel)
            sizes.add(linalg._core_vertices(masks, n).bit_count() if peel else n)
    assert sizes >= {14, 15, 16}
    small = lambda sel: sel[0].bit_count() <= 4
    for n in (19, 20):
        for seed in range(3):
            rng = random.Random(seed)
            masks = [1 << i | 1 << (i + 1) % n for i in range(n)] + [
                sum(1 << v for v in rng.sample(range(n), rng.choice((2, 3, 4))))
                for _ in range(n // 2)]
            for peel in (True, False):
                got = list(itertools.takewhile(small, linalg._eulerian_selections(
                    masks, n, 63, peel)))
                assert got == list(eulerian_selections_per_u(masks, n, peel, 4)), (n, seed, peel)
            assert linalg._core_vertices(masks, n).bit_count() == n
    # |P| = 20: the walk passes every set of up to nine of those vertices
    # before the C9, the smallest core by construction
    g = bipartite_with_c9(14, 20)
    assert linalg._core_vertices(g.edge_masks, g.n_vertices).bit_count() == 20
    c = find_eulerian_core(g, max_vertices=20)
    assert [g.names[v] for v in c.vmap] == [f"c{i}" for i in range(9)]
    assert c.emap == tuple(range(20, 29))


def test_walk_refuses_more_than_63_vertices_at_any_guard():
    masks = [1 << i | 1 << (i + 1) % 64 for i in range(64)]  # C64 survives peeling
    with pytest.raises(SizeGuardError, match="64 vertices left by peeling > 63"):
        next(linalg._eulerian_selections(masks, 64, 100))


def _random_matrix(rng, rows, cols, lo, hi):
    m = np.array([[lo + rng.randrange(hi - lo + 1) for _ in range(cols)]
                  for _ in range(rows)], dtype=np.int64).reshape(rows, cols)
    if rows and rng.randrange(3) == 0:
        m[rng.randrange(rows)] = 0
    if cols and rng.randrange(3) == 0:
        m[:, rng.randrange(cols)] = 0
    return m


def _minors_in_scan_order(m, top):
    """(rows, cols, det) over every square submatrix up to order top, by
    ascending order, then lexicographic rows, then lexicographic columns."""
    rows, cols = m.shape
    lists = m.tolist()
    for k in range(1, top + 1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                yield rs, cs, det_cofactor([[lists[r][c] for c in cs] for r in rs])


def _seeded_matrices(seed, count):
    rng = Xoshiro256StarStar(seed)
    for _ in range(count):
        rows, cols = rng.randrange(7), rng.randrange(7)
        lo = -1 - rng.randrange(2)
        yield _random_matrix(rng, rows, cols, lo, -lo)


def test_max_abs_subdet_witness_is_first_maximiser():
    for t, m in enumerate(_seeded_matrices(61, 150)):
        for cap in (None, 1, 2, 3):
            top = min(m.shape) if cap is None else min(min(m.shape), cap)
            minors = list(_minors_in_scan_order(m, top))
            delta = max((abs(d) for _, _, d in minors), default=0)
            want = next(((rs, cs) for rs, cs, d in minors if abs(d) == delta and delta),
                        ((), ()))
            got = linalg.max_abs_subdet(m, cap=cap)
            assert (got.delta, (got.rows, got.cols)) == (delta, want), (t, cap, m)


def test_tu_violation_witness_is_first_violation():
    for t, m in enumerate(_seeded_matrices(62, 150)):
        want = next(((rs, cs, d) for rs, cs, d in _minors_in_scan_order(m, min(m.shape))
                     if abs(d) >= 2), None)
        assert linalg.tu_violation(m) == want, (t, m)
        assert linalg.is_tu_bruteforce(m) == (want is None)


def test_is_almost_tu_matches_definition():
    def tu(a):
        return all(abs(d) <= 1 for _, _, d in _minors_in_scan_order(a, min(a.shape)))

    rng = Xoshiro256StarStar(63)
    seen = 0
    for t in range(300):
        rows = rng.randrange(5)
        cols = rows if t % 4 else rng.randrange(5)
        m = _random_matrix(rng, rows, cols, -1, 1)
        # every proper submatrix lies inside one with a row or a column deleted
        want = not tu(m) and all(tu(np.delete(m, i, axis=0)) for i in range(m.shape[0])) \
            and all(tu(np.delete(m, j, axis=1)) for j in range(m.shape[1]))
        assert linalg.is_almost_tu(m) == want, (t, m)
        seen += want
    assert seen > 0


def _signed_graph_matrix(rng):
    """A seeded matrix with entries 0, +-1 and at most two nonzeros per
    column, of 1-10 rows and columns: up to three planted vertex-disjoint
    cycles of odd parity (triangles, and pairs of parallel columns with
    different sign patterns), then edges of both parities, parallel copies
    of earlier edges in either sign pattern, half-edges and zero columns,
    the columns in shuffled order."""
    cycles = [2 + rng.coin() for _ in range(rng.randrange(4))]
    # rows + cols at most 11 with no cycles (a 10 x 1 matrix, say), 10 with
    # one or two, 12 with three, keeps the cofactor oracle quick
    while sum(cycles) > (6 if len(cycles) == 3 else 4):
        cycles.pop()
    size, least = (11, 10, 10, 12)[len(cycles)], max(sum(cycles), 1)
    total = 2 * least + rng.randrange(size - 2 * least + 1)
    rows = least + rng.randrange(total - 2 * least + 1)
    cols = total - rows
    free = rng.sample(range(rows), rows)
    edges = []
    for length in cycles:
        cycle = [free.pop() for _ in range(length)]
        parities = [rng.coin() for _ in range(length - 1)]
        parities.append(1 - sum(parities) % 2)
        edges += [(cycle[i - 1], cycle[i], p) for i, p in enumerate(parities)]
    while len(edges) < cols:
        kind = rng.randrange(6)
        if kind == 0:
            edges.append(())
        elif kind == 1 or rows == 1:
            edges.append((rng.randrange(rows),))
        elif kind == 2 and any(len(e) == 3 for e in edges):
            a, b, _ = rng.sample([e for e in edges if len(e) == 3], 1)[0]
            edges.append((a, b, rng.coin()))
        else:
            a, b = rng.sample(range(rows), 2)
            edges.append((a, b, rng.coin()))
    m = np.zeros((rows, cols), dtype=np.int64)
    for c, e in enumerate(rng.sample(edges, cols)):
        sign = 1 - 2 * rng.coin()
        if e:
            m[e[0], c] = sign
        if len(e) == 3:
            m[e[1], c] = sign if e[2] else -sign
    return m


def test_signed_graph_bound_keeps_delta_and_the_first_witness():
    # Matrices with at most two nonzeros per column, entries 0 and +-1, stop
    # the order scan at a proven bound (see max_abs_subdet); the results
    # must be the full scan's.  The planted disjoint odd cycles make Delta
    # 4 or 8 on many, where stopping one deleted row too late would be wrong.
    rng = Xoshiro256StarStar(66)
    deltas = collections.Counter()
    for t in range(2000):
        m = _signed_graph_matrix(rng)
        minors = list(_minors_in_scan_order(m, min(m.shape)))
        for cap in (1, 2, 3, None):
            upto = [x for x in minors if cap is None or len(x[0]) <= cap]
            delta = max((abs(d) for _, _, d in upto), default=0)
            want = next(((rs, cs) for rs, cs, d in upto if abs(d) == delta and delta), ((), ()))
            got = linalg.max_abs_subdet(m, cap=cap)
            assert (got.delta, (got.rows, got.cols)) == (delta, want), (t, cap, m)
        deltas[delta] += 1
        first = next(((rs, cs, d) for rs, cs, d in minors if abs(d) >= 2), None)
        assert linalg.tu_violation(m) == first, (t, m)
        n = m.shape[0]
        almost = n == m.shape[1] and first is not None and len(first[0]) == n
        assert linalg.is_almost_tu(m) == almost, (t, m)
    assert deltas[1] > 200 and deltas[2] > 200 and deltas[4] > 100 and deltas[8] > 10, deltas


def test_large_entries_are_exact_or_refused():
    rng = Xoshiro256StarStar(64)
    exact = refused = 0
    for _ in range(120):
        rows, cols = 1 + rng.randrange(4), 1 + rng.randrange(4)
        # entries of +-2^bits put ||col||_1 times the Hadamard bound near 2^62
        # or, on the larger draws, minors beyond 2^63
        k = min(rows, cols)
        bits = (62 - math.log2(rows) * (k / 2 + 1)) / (k + 1)
        bits = int(bits) + rng.randrange(10) - 1
        m = _random_matrix(rng, rows, cols, -1, 1) << bits
        try:
            got = linalg.max_abs_subdet(m)
            violation = linalg.tu_violation(m)
        except SizeGuardError:
            refused += 1
            continue
        exact += 1
        minors = list(_minors_in_scan_order(m, min(m.shape)))
        delta = max((abs(d) for _, _, d in minors), default=0)
        assert got.delta == delta
        if delta:
            assert abs(linalg.det_exact(m[np.ix_(got.rows, got.cols)])) == delta
            assert (got.rows, got.cols) == next((rs, cs) for rs, cs, d in minors
                                                if abs(d) == delta)
        assert violation == next(((rs, cs, d) for rs, cs, d in minors if abs(d) >= 2), None)
    assert exact > 10 and refused > 10
    # the guard bounds order k by minors of order k - 1: a 1 x 1 matrix is
    # its entry, and a 2 x 2 one needs only the products of two entries
    for m, delta in ((np.array([[2**31]]), 2**31),
                     (np.array([[2**30, 1], [1, 2**30]]), 2**60 - 1)):
        assert linalg.max_abs_subdet(m).delta == linalg.det_exact(m) == delta


def test_the_bound_never_lifts_the_size_guard(tmp_path):
    # a path on 12 vertices is bipartite, so the signed-graph bound would
    # answer at once, but rows + cols = 23 is past the default guard
    names = [f"v{i}" for i in range(12)]
    g = core.Hypergraph.from_names(names, [names[i:i + 2] for i in range(11)])
    m = core.incidence_matrix(g)
    assert sum(m.shape) == linalg.DEFAULT_MAX_DIMENSION_SUM + 1
    for run in (linalg.max_abs_subdet, linalg.tu_violation, linalg.is_tu_bruteforce,
                linalg.is_almost_tu):
        with pytest.raises(SizeGuardError):
            run(m)
    path = tmp_path / "path12.json"
    path.write_text(json.dumps(core.instance_to_dict(g)))
    assert cli.main(["delta", str(path)]) == 3


def _enumeration_type(m):
    return linalg._check_guard(m, linalg.DEFAULT_MAX_DIMENSION_SUM).dtype


def _assert_matches_the_oracle(m):
    minors = list(_minors_in_scan_order(m, min(m.shape)))
    delta = max((abs(d) for _, _, d in minors), default=0)
    first = next(((rs, cs) for rs, cs, d in minors if abs(d) == delta and delta), ((), ()))
    got = linalg.max_abs_subdet(m)
    assert (got.delta, (got.rows, got.cols)) == (delta, first), m
    assert linalg.tu_violation(m) == next(((rs, cs, d) for rs, cs, d in minors if abs(d) >= 2),
                                          None), m
    n = m.shape[0]
    almost = n == m.shape[1] > 0 and abs(minors[-1][2]) >= 2 and all(
        abs(d) <= 1 for rs, _, d in minors if len(rs) < n)
    assert linalg.is_almost_tu(m) == almost, m


def test_enumeration_is_exact_on_both_sides_of_each_type_switch():
    # Scaling a matrix by s multiplies the guard's bound B by s^(j + 1), j its
    # nonzero columns among the largest min(rows, cols) - 1, so the least s
    # whose B needs the wider type and s - 1 sit on the two sides of a switch.
    # The Sylvester matrices have minors as large as the Hadamard bound.
    h2 = np.array([[1, 1], [1, -1]])
    rng = Xoshiro256StarStar(65)
    bases = [h2, np.kron(h2, h2), np.kron(h2, h2)[:3]]
    bases += [_random_matrix(rng, 1 + rng.randrange(4), 1 + rng.randrange(4), -3, 3)
              for _ in range(40)]
    sides = collections.Counter()
    for base in bases:
        if not base.any():
            continue
        for narrow, wide in ((np.int8, np.int16), (np.int16, np.int32), (np.int32, np.int64)):
            fits = lambda s: _enumeration_type(base * s).itemsize <= np.dtype(narrow).itemsize
            if not fits(1):
                continue
            lo, hi = 1, 2  # fits(lo) and not fits(hi)
            while fits(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if fits(mid) else (lo, mid)
            assert (_enumeration_type(base * lo), _enumeration_type(base * hi)) == (narrow, wide)
            _assert_matches_the_oracle(base * lo)
            _assert_matches_the_oracle(base * hi)
            sides.update((narrow, wide))
    assert all(sides[t] >= 10 for t in (np.int8, np.int16, np.int32, np.int64)), sides


def test_graph_matrices_enumerate_in_at_most_16_bits():
    # criterion 8's corpus: an edge column has 1-norm 2 and Euclidean norm
    # sqrt 2, so B = 2^(1 + (k - 1)/2) <= 2^5.5 for k = min(rows, cols) <= 10
    # rows, and 2B < 127 fits int8
    widths = set()
    for seed in range(300):
        g, _ = generate(GenConfig(seed=300_000 + seed, n_vertices=4 + seed % 7,
                                  n_small_edges=3 + (seed * 3) % 10, proper_edge_sizes=()))
        if g.n_vertices + g.n_edges <= linalg.DEFAULT_MAX_DIMENSION_SUM:
            widths.add(_enumeration_type(core.incidence_matrix(g)).itemsize)
    assert widths == {1}


def test_delta_at_the_default_guard_is_fast_and_small():
    # an 11 x 11 graph matrix (rows + cols = 22) enumerates in int16, as
    # min(rows, cols) = 11.  Its first triangle gives Delta = 2 at order 3,
    # and deleting one of its rows leaves the graph bipartite, so the scan
    # stops there: about 0.3 ms and a 0.2 MB traced peak, against 10 ms and
    # 2.9 MB for the scan of every order, and 12 MB in int64
    g, _ = generate(GenConfig(seed=11, n_vertices=11, n_small_edges=11))
    m = core.incidence_matrix(g)
    assert m.shape == (11, 11)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        res = linalg.max_abs_subdet(m)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.delta == 2 ** detect.compute_ocp(g) == 2
    assert elapsed < 1 and peak < 6 * 2**20, (elapsed, peak)


def _reference_core_and_camion(g):
    """(vmap, emap) of the first covering Eulerian selection with |U| = |F|
    and support 2 mod 4, and (U, F, support) of the first one with support
    not divisible by four; None where there is none."""
    masks = g.edge_masks
    core_sel = camion = None
    for umask, fmask in eulerian_selections_per_u(masks, g.n_vertices, peel=False):
        fs = [e for e in range(len(masks)) if fmask >> e & 1]
        supp = sum((masks[e] & umask).bit_count() for e in fs)
        covered = 0
        for e in fs:
            covered |= masks[e] & umask
        us = tuple(v for v in range(g.n_vertices) if umask >> v & 1)
        if camion is None and supp % 4:
            camion = (us, tuple(fs), supp)
        if core_sel is None and len(fs) == len(us) and covered == umask and supp % 4 == 2:
            core_sel = (us, tuple(fs))
        if camion is not None and core_sel is not None:
            break
    return core_sel, camion


def _padded_host(seed):
    """A seeded unsigned host of at most 12 vertices: a generated host with
    pendant trees, isolated vertices and a duplicated edge added, its
    vertex ids shuffled."""
    rng = Xoshiro256StarStar(seed)
    g, _ = generate(GenConfig(seed=seed, n_vertices=3 + seed % 5,
                              n_small_edges=2 + seed % 6,
                              proper_edge_sizes=((), (3,), (4,), (3, 3))[seed % 4],
                              disjoint=seed % 3 != 0))
    n = g.n_vertices
    edges = [list(e) for e in g.edges]
    for _ in range(rng.randrange(3)):  # pendant edges and triples hang off the host
        size = 2 + (rng.randrange(3) == 0)
        if n + size - 1 > 12:
            break
        edges.append([rng.randrange(n)] + list(range(n, n + size - 1)))
        n += size - 1
    n += rng.randrange(min(2, 12 - n) + 1)  # isolated vertices
    if edges and rng.randrange(3) == 0:
        edges.append(list(edges[rng.randrange(len(edges))]))
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return core.Hypergraph(tuple(f"x{i}" for i in range(n)),
                           tuple(tuple(sorted(perm[v] for v in e)) for e in edges))


def test_peeled_walk_matches_the_unpeeled_reference():
    checked = non_tu = peeled = seed = 0
    while checked < 2000:
        seed += 1
        try:
            g = _padded_host(910_000 + seed)
        except InputError:
            continue
        peeled += linalg._core_vertices(g.edge_masks, g.n_vertices) != (1 << g.n_vertices) - 1
        want_core, want_camion = _reference_core_and_camion(g)
        got = linalg.camion_unimodular(g)
        if want_camion is None:
            assert got.unimodular and want_core is None, seed
            with pytest.raises(PreconditionError):
                find_eulerian_core(g)
        else:
            assert (got.witness.vertices, got.witness.edge_ids, got.value) == want_camion, seed
            c = find_eulerian_core(g)
            assert (c.vmap, c.emap) == want_core, seed
            non_tu += 1
        checked += 1
    assert non_tu > 800 and peeled > 1000
