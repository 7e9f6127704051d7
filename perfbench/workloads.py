"""The benchmark's four workloads: seeded input lists, the timed operation,
and the check of each output.

Every list is a fixed catalogue of seeded instances: the acceptance
criteria's own corpora for the small decisions and for Delta, seeded
generators otherwise.  `--seed` draws the relabelling of vertices and edge order applied
in every round, so no input repeats within a run and each seed times other
inputs.  The content itself does not follow `--seed`: the cost of a
mid-size instance hangs on its random content by +-30%, and the tail of a
small-instance corpus on which instances it holds, so content drawn from the
seed would make one seed's figures differ from another's by more than any
useful bound.  Each operation starts from an instance's JSON text, runs
`core.load_instance`, the layer's entry point, and serialises the result.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from tuhyper import core, detect, extract, linalg
from tuhyper.errors import InputError
from tuhyper.gen import GenConfig, Plant

import oracles


@dataclass
class Case:
    """One base instance of a workload's input list."""

    family: str
    doc: dict
    expect: object = None  # the verdict (decide) or Delta known for the instance


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str  # calibration kernel: "bitmask" or "int64"
    build: Callable  # (generate) -> list[Case]
    prepare: Callable  # (cases) -> None: fills `expect` from an oracle where needed
    op: Callable  # (json text) -> json text
    check: Callable  # (case, doc, output text) -> error message or None
    trace_rounds: int  # rounds of the list in each pass of a traced run


def names(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def relabel(doc: dict, rnd: random.Random) -> dict:
    """Same instance with vertex ids and edge order permuted."""
    vertices = list(doc["vertices"])
    rnd.shuffle(vertices)
    key = "edges" if "edges" in doc else "arcs"
    items = list(doc[key])
    rnd.shuffle(items)
    return {"vertices": vertices, key: items}


def _seed(family: int, slot: int) -> int:
    """Generator seed of a catalogue slot (outside the criteria's seed ranges)."""
    return 10_000_000 + 1000 * family + slot


# ---------------------------------------------------------------------------
# Operations and checks
# ---------------------------------------------------------------------------


def op_decide(text: str) -> str:
    g = core.load_instance(text)
    if isinstance(g, core.MixedHypergraph):
        dec = detect.decide_unimodular_mixed_disjoint(g)
    else:
        dec = detect.decide_unimodular_disjoint(g)
    w = None if dec.witness is None else detect.witness_to_dict(g, dec.witness)
    return json.dumps({"tu": dec.tu, "witness": w})


def check_decide(case: Case, doc: dict, out: str) -> str | None:
    res = json.loads(out)
    if res["tu"] is not case.expect:
        return f"verdict tu={res['tu']}, expected tu={case.expect}"
    if case.expect:
        return None if res["witness"] is None else "TU verdict carries a witness"
    return oracles.witness_error(doc, res["witness"])


def op_delta(text: str) -> str:
    g = core.load_instance(text)
    r = linalg.max_abs_subdet(core.incidence_matrix(g))
    return json.dumps({"delta": r.delta, "rows": list(r.rows), "cols": list(r.cols)})


def check_delta(case: Case, doc: dict, out: str) -> str | None:
    res = json.loads(out)
    if res["delta"] != case.expect:
        return f"delta {res['delta']}, expected 2^ocp = {case.expect}"
    rows, cols = res["rows"], res["cols"]
    if len(rows) != len(cols):
        return "delta witness is not square"
    m = oracles.matrix(doc)
    d = oracles.det([[m[i][j] for j in cols] for i in rows])
    return None if abs(d) == case.expect else f"delta witness has |det| {abs(d)}"


def op_extract(text: str) -> str:
    g = core.load_instance(text)
    r = extract.extract_witness(g)
    return json.dumps({"witness": detect.witness_to_dict(g, r.witness), "trace": list(r.trace)})


def check_extract(case: Case, doc: dict, out: str) -> str | None:
    return oracles.witness_error(doc, json.loads(out)["witness"])


def prepare_known(cases: list[Case]) -> None:
    """Verdicts are known by construction."""


def prepare_tu_oracle(cases: list[Case]) -> None:
    for case in cases:
        case.expect = oracles.is_tu(oracles.matrix(case.doc))


def prepare_ocp_oracle(cases: list[Case]) -> None:
    for case in cases:
        case.expect = 2 ** oracles.odd_cycle_packing(case.doc)


# ---------------------------------------------------------------------------
# Instance families
# ---------------------------------------------------------------------------


def grid_doc(a: int, b: int) -> dict:
    """a x b grid graph: bipartite, so TU."""
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            if j + 1 < b:
                edges.append([f"v{v}", f"v{v + 1}"])
            if i + 1 < a:
                edges.append([f"v{v}", f"v{v + b}"])
    return {"vertices": names(a * b), "edges": edges}


def interval_doc(rnd: random.Random, n: int, n_small: int, big: tuple[int, ...]) -> dict:
    """Intervals of a path of n vertices: consecutive ones, so TU.  The
    intervals of size >= 4 are pairwise disjoint, so the instance is too."""
    edges: set[tuple[int, ...]] = set()
    start = 0
    for size in big:
        a = start + rnd.randrange(3)
        edges.add(tuple(range(a, a + size)))
        start = a + size
    while len(edges) < n_small + len(big):
        size = rnd.choice((2, 3))
        a = rnd.randrange(n - size + 1)
        edges.add(tuple(range(a, a + size)))
    return {"vertices": names(n), "edges": [[f"v{v}" for v in e] for e in sorted(edges)]}


def noisy_tree_house_doc(generate, seed: int, lens, extra: int, noise: int,
                         mixed: bool) -> dict:
    """A planted odd tree house whose three branches each get `extra` more
    vertices and `noise` more size-2 edges.

    The noise keeps every branch balanced (bipartite, or for arcs, without an
    odd cycle) and never joins two branches, so the instance has no odd cycle
    and the decider must finish the complete odd-cycle search before it finds
    the tree house.
    """
    kind = "mixed-odd-tree-house" if mixed else "odd-tree-house"
    g, w = generate(GenConfig(seed=seed, n_vertices=1 + sum(lens), mixed=mixed,
                              plant=Plant(kind, path_lengths=tuple(lens))))
    doc = core.instance_to_dict(g)
    rnd = random.Random(seed)
    members = g.arcs if mixed else [(e, ()) for e in g.edges]
    phi = {w.root: 0}  # parity potential: an arc (a, b) has parity phi[a] ^ phi[b]
    nxt = g.n_vertices
    branches = []
    for path, ids in zip(w.paths, w.path_edge_ids):
        for t, eid in enumerate(ids):
            a, b = path[t], path[t + 1]
            heads = members[eid][0]
            phi[b] = phi[a] ^ (1 if (a in heads) == (b in heads) else 0)
        branch = list(path)
        for _ in range(extra):
            phi[nxt] = rnd.randrange(2)
            branch.append(nxt)
            nxt += 1
        branches.append(branch)
    doc["vertices"] = names(nxt)
    for branch in branches:
        pairs: set[tuple[int, int]] = set()
        while len(pairs) < noise:
            a, b = sorted(rnd.sample(branch, 2))
            if mixed or phi[a] != phi[b]:
                pairs.add((a, b))
        for a, b in sorted(pairs):
            if not mixed:
                doc["edges"].append([f"v{a}", f"v{b}"])
            elif phi[a] == phi[b]:  # parity 0: one head, one tail
                plus, minus = (a, b) if rnd.randrange(2) else (b, a)
                doc["arcs"].append({"plus": [f"v{plus}"], "minus": [f"v{minus}"]})
            else:  # parity 1: both on one side
                side = [f"v{a}", f"v{b}"]
                doc["arcs"].append({"plus": side, "minus": []} if rnd.randrange(2)
                                   else {"plus": [], "minus": side})
    return doc


def padded_tree_house_doc(generate, seed: int, lens, n: int) -> dict:
    """A planted odd tree house padded to n vertices by pendant edges, which
    lie in no Eulerian selection and so leave the Eulerian core unchanged."""
    g, _ = generate(GenConfig(seed=seed, n_vertices=1 + sum(lens),
                              plant=Plant("odd-tree-house", path_lengths=tuple(lens))))
    doc = core.instance_to_dict(g)
    rnd = random.Random(seed)
    doc["vertices"] = names(n)
    for v in range(g.n_vertices, n):
        doc["edges"].append([f"v{rnd.randrange(v)}", f"v{v}"])
    return doc


# ---------------------------------------------------------------------------
# Input lists
# ---------------------------------------------------------------------------

# decide-hard: mid-size disjoint instances where the complete search does
# nearly all the work; 27 slots with calibrated costs of about 5 to 150 ms.
# Plain odd cycles and mixed odd cycles cost nearly the same under any
# relabelling, and the list is made so that they sit where the 50th and 90th
# percentiles of the latencies fall (14th and 24th of 27 by cost): C33 and
# the 29-cycle around the median, C45, C47 and C49 around the 90th.
HARD_CYCLES = (25, 29, 33, 37, 41, 45, 47, 49, 53)
HARD_GRIDS = ((3, 4), (3, 5), (4, 4))
HARD_INTERVALS = ((14, 14, (4,)), (16, 16, (4, 5)), (18, 18, (4,)))
HARD_TREE_HOUSES = (((3, 3, 3), 2, 3), ((3, 3, 5), 2, 3), ((3, 5, 5), 2, 3), ((5, 5, 5), 2, 4))
HARD_MIXED_CYCLES = (17, 21, 25, 29)


def build_hard(generate) -> list[Case]:
    cases = []
    for i, k in enumerate(HARD_CYCLES):
        g, _ = generate(GenConfig(seed=_seed(1, i), n_vertices=k,
                                  plant=Plant("odd-cycle", length=k)))
        cases.append(Case("odd-cycle", core.instance_to_dict(g), False))
    for a, b in HARD_GRIDS:
        cases.append(Case("grid", grid_doc(a, b), True))
    for i, (n, n_small, big) in enumerate(HARD_INTERVALS):
        rnd = random.Random(_seed(2, i))
        cases.append(Case("interval", interval_doc(rnd, n, n_small, big), True))
    for i, (lens, extra, noise) in enumerate(HARD_TREE_HOUSES):
        doc = noisy_tree_house_doc(generate, _seed(3, i), lens, extra, noise, False)
        cases.append(Case("tree-house", doc, False))
    for i, k in enumerate(HARD_MIXED_CYCLES):
        g, _ = generate(GenConfig(seed=_seed(4, i), n_vertices=k, mixed=True,
                                  plant=Plant("mixed-odd-cycle", length=k)))
        cases.append(Case("mixed-odd-cycle", core.instance_to_dict(g), False))
    for i, (lens, extra, noise) in enumerate(HARD_TREE_HOUSES):
        doc = noisy_tree_house_doc(generate, _seed(5, i), lens, extra, noise, True)
        cases.append(Case("mixed-tree-house", doc, False))
    return cases


# decide-corpus: the first 1000 instances of acceptance criterion 5's corpus
# (unsigned) and of criterion 6's (mixed), generated exactly as there.
CORPUS_PER_KIND = 1000
_CORPUS_SIZES = ((), (4,), (5,), (4, 4), (4, 3), (3, 3), (6,), (3,))
_CORPUS_MIXED_SIZES = ((), (4,), (5,), (4, 4), (4, 3), (6,))


def _corpus_config(s: int, mixed: bool) -> tuple[GenConfig, int, int]:
    if not mixed:
        n = 4 + s % 6
        plant = (Plant("odd-tree-house", path_lengths=(1, 1, 3))
                 if s % 37 == 0 and n >= 6 else None)
        return GenConfig(seed=s, n_vertices=n, n_small_edges=(s * 7) % 8,
                         proper_edge_sizes=_CORPUS_SIZES[s % 8], plant=plant), 9, 9
    plant = Plant("mixed-odd-cycle", length=2 + s % 4) if s % 23 == 0 else None
    return GenConfig(seed=100_000 + s, n_vertices=3 + s % 6, n_small_edges=(s * 5) % 7,
                     proper_edge_sizes=_CORPUS_MIXED_SIZES[s % 6], mixed=True,
                     plant=plant), 8, 8


def build_corpus(generate) -> list[Case]:
    cases = []
    for mixed in (False, True):
        kept, s = 0, 0
        while kept < CORPUS_PER_KIND:
            cfg, max_v, max_e = _corpus_config(s, mixed)
            s += 1
            try:
                g, _ = generate(cfg)
            except InputError:  # the slot's shape does not fit, as in the criteria
                continue
            n_e = g.n_arcs if mixed else g.n_edges
            if g.n_vertices <= max_v and n_e <= max_e:
                cases.append(Case("mixed" if mixed else "unsigned", core.instance_to_dict(g)))
                kept += 1
    return cases


# delta-graphs: the first 75 graphs of acceptance criterion 8's corpus (graph
# s has 4 + s % 7 vertices and 3 + 3s % 10 edges) without the three whose
# rows+cols exceed 20: 72 graphs of 67 shapes, five of them twice.  The three
# largest took 3.7 of a round's 6 s, one calibration pair each, and left
# throughput 5% apart between runs.
DELTA_GRAPHS = 75
DELTA_MAX_DIMENSION_SUM = 20


def build_delta(generate) -> list[Case]:
    cases = []
    for s in range(DELTA_GRAPHS):
        g, _ = generate(GenConfig(seed=300_000 + s, n_vertices=4 + s % 7,
                                  n_small_edges=3 + (s * 3) % 10))
        if g.n_vertices + g.n_edges > DELTA_MAX_DIMENSION_SUM:
            continue
        cases.append(Case(f"graph-{g.n_vertices}x{g.n_edges}", core.instance_to_dict(g)))
    return cases


# extract-witness: non-TU disjoint instances of 10 to 16 vertices.  Tree
# houses take the reduce-and-lift path; planted odd cycles with random
# size-2 and proper edges take the direct path.  The last odd cycle (C7 on
# 15 vertices, whose cost hardly moves under relabelling) is in the list
# twice, so that the median falls between its two copies.
EXTRACT_TREE_HOUSES = (((1, 1, 3), 12), ((1, 1, 3), 16), ((1, 3, 3), 11), ((1, 3, 3), 15),
                       ((3, 3, 3), 10), ((3, 3, 3), 14), ((3, 3, 5), 12), ((3, 5, 5), 14),
                       ((1, 3, 3), 13))
EXTRACT_CYCLES = ((10, 5, (4, 3), 4), (12, 5, (4, 3), 5),
                  (16, 5, (4, 3), 6), (11, 7, (4,), 5), (13, 7, (4,), 5), (15, 7, (4,), 6))


def build_extract(generate) -> list[Case]:
    cases = []
    for i, (lens, n) in enumerate(EXTRACT_TREE_HOUSES):
        cases.append(Case("tree-house", padded_tree_house_doc(generate, _seed(9, i),
                                                              lens, n)))
    for i, (n, k, proper, small) in enumerate(EXTRACT_CYCLES):
        g, _ = generate(GenConfig(seed=_seed(10, i), n_vertices=n,
                                  n_small_edges=small, proper_edge_sizes=proper,
                                  plant=Plant("odd-cycle", length=k)))
        cases.append(Case("odd-cycle", core.instance_to_dict(g)))
    cases.append(Case("odd-cycle", cases[-1].doc))
    return cases


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide-hard", "bitmask", build_hard, prepare_known, op_decide,
                 check_decide, trace_rounds=3),
        Workload("decide-corpus", "bitmask", build_corpus, prepare_tu_oracle, op_decide,
                 check_decide, trace_rounds=2),
        Workload("delta-graphs", "int64", build_delta, prepare_ocp_oracle, op_delta,
                 check_delta, trace_rounds=1),
        Workload("extract-witness", "bitmask", build_extract, prepare_known, op_extract,
                 check_extract, trace_rounds=3),
    )
}
