"""Property tests over seeded disjoint hosts: the decision does not depend on
how vertices and edges are numbered, nor on row and column signs of a mixed
host, nor on the split walk that ends the odd-cycle passes early, nor on
the bound on a graph host's BFS sources; a duplicated edge changes neither
the decision nor Delta; and every witness survives a round trip through
JSON.  A fuzz over damaged instance documents checks that the CLI's exit
code keeps its meaning."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tuhyper import cli, core, detect, linalg
from tuhyper.errors import InputError
from tuhyper.gen import GenConfig, Plant, generate
from tuhyper.mixed import negate_column, negate_row

from _hosts import noisy_tree_house, ring2, ring_with_a_triple

BOUNDED = settings(derandomize=True, max_examples=60, deadline=None)

PLANTS = {
    False: (None, Plant("odd-cycle", length=3), Plant("odd-cycle", length=5),
            Plant("odd-tree-house", path_lengths=(1, 1, 3))),
    True: (None, Plant("mixed-odd-cycle", length=2), Plant("mixed-odd-cycle", length=4),
           Plant("mixed-odd-tree-house", path_lengths=(1, 2, 2))),
}


@st.composite
def disjoint_hosts(draw, mixed=None):
    mixed = draw(st.booleans()) if mixed is None else mixed
    cfg = GenConfig(seed=draw(st.integers(0, 2**32)), n_vertices=draw(st.integers(4, 11)),
                    n_small_edges=draw(st.integers(0, 9)),
                    proper_edge_sizes=draw(st.sampled_from(((), (3,), (4,), (3, 4), (4, 5)))),
                    mixed=mixed, plant=draw(st.sampled_from(PLANTS[mixed])))
    try:
        host, _ = generate(cfg)
    except InputError:
        assume(False)
    return host


def _verdict(host) -> bool:
    return detect._decide(host, detect.DEFAULT_SEARCH_BUDGET).tu


def _relabelled(host, vperm, eperm):
    """host with its vertex list and its edge list reordered."""
    doc = core.instance_to_dict(host)
    members = "arcs" if "arcs" in doc else "edges"
    return core.load_instance({"vertices": [doc["vertices"][v] for v in vperm],
                               members: [doc[members][e] for e in eperm]})


@BOUNDED
@given(data=st.data())
def test_decision_is_invariant_under_relabelling(data):
    host = data.draw(disjoint_hosts())
    vperm = data.draw(st.permutations(range(host.n_vertices)))
    eperm = data.draw(st.permutations(range(len(host.support_masks))))
    assert _verdict(_relabelled(host, vperm, eperm)) == _verdict(host)


@BOUNDED
@given(data=st.data())
def test_mixed_decision_is_invariant_under_row_and_column_negation(data):
    d = data.draw(disjoint_hosts(mixed=True))
    rows = data.draw(st.sets(st.integers(0, d.n_vertices - 1)))
    cols = data.draw(st.sets(st.integers(0, d.n_arcs - 1))) if d.n_arcs else set()
    negated = d
    for v in rows:
        negated = negate_row(negated, v)
    for a in cols:
        negated = negate_column(negated, a)
    assert _verdict(negated) == _verdict(d)


@BOUNDED
@given(data=st.data())
def test_a_duplicated_edge_changes_neither_delta_nor_the_decision(data):
    # Two equal columns make every square submatrix holding both singular.
    # Duplicating an edge of three or more vertices makes the host overlap,
    # so the twin's decision then comes from the brute force.
    host = data.draw(disjoint_hosts())
    doc = core.instance_to_dict(host)
    members = "arcs" if "arcs" in doc else "edges"
    n = len(doc[members])
    assume(0 < n and host.n_vertices + n < linalg.DEFAULT_MAX_DIMENSION_SUM)
    e = data.draw(st.integers(0, n - 1))
    twin = core.load_instance({**doc, members: doc[members] + [doc[members][e]]})
    m, m2 = core.incidence_matrix(host), core.incidence_matrix(twin)
    assert linalg.max_abs_subdet(m2) == linalg.max_abs_subdet(m)
    tu = _verdict(host)
    assert linalg.is_tu_bruteforce(m2) == tu
    if core.is_disjoint(twin):
        assert _verdict(twin) == tu


@BOUNDED
@given(host=disjoint_hosts())
def test_witnesses_round_trip_through_json_and_reverify(host):
    w = detect._decide(host, detect.DEFAULT_SEARCH_BUDGET).witness
    assume(w is not None)
    back = detect.witness_from_dict(host, json.loads(json.dumps(detect.witness_to_dict(host, w))))
    assert back == w
    assert detect.verify_witness(host, back)


@st.composite
def split_hosts(draw):
    """Hosts whose odd-cycle passes run past the first, so that the split
    walk runs: planted odd tree houses with bipartite noise on each branch,
    in one host of three with one more edge of two vertices, which may
    close an odd cycle, or rings of odd or even length whose closing edge
    is widened to a triple, half of them with two more edges as in ring2.
    A mixed one is the all-head form with random rows and columns negated."""
    if draw(st.booleans()):
        lens = tuple(draw(st.lists(st.sampled_from((1, 3, 5, 7)), min_size=3, max_size=3)))
        g = noisy_tree_house(draw(st.integers(0, 2**32)), lens, draw(st.integers(2, 3)),
                             draw(st.integers(2, 5)))
        if draw(st.integers(0, 2)) == 0:
            a, b = draw(st.lists(st.sampled_from(g.names), min_size=2, max_size=2,
                                 unique=True))
            g = core.Hypergraph.from_names(g.names, [[g.names[v] for v in e] for e in g.edges]
                                           + [[a, b]])
    else:
        g = draw(st.sampled_from((ring_with_a_triple, ring2)))(draw(st.integers(6, 41)))
    if not draw(st.booleans()):
        return g
    d = core.as_mixed(g)
    for v in draw(st.sets(st.integers(0, d.n_vertices - 1))):
        d = negate_row(d, v)
    for aid in draw(st.sets(st.integers(0, d.n_arcs - 1))):
        d = negate_column(d, aid)
    return d


@BOUNDED
@given(host=split_hosts())
def test_decision_is_the_same_without_the_absence_proof(host):
    # a split cost above every cap keeps the split from running
    with mock.patch.object(detect, "_split_cost", lambda sys, cap: cap + 1):
        passes_only = detect._decide(host, detect.DEFAULT_SEARCH_BUDGET)
    assert detect._decide(host, detect.DEFAULT_SEARCH_BUDGET) == passes_only


@st.composite
def signed_graphs(draw):
    """Graph hosts, unsigned or signed (each arc with both ends on one side
    or one on each), half of them with a ring numbered along itself."""
    n = draw(st.integers(2, 40))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]),
                          max_size=2 * n))
    if draw(st.booleans()):
        pairs = [(i, (i + 1) % n) for i in range(n)] + pairs
    names = [f"v{i}" for i in range(n)]
    if not draw(st.booleans()):
        return core.Hypergraph.from_names(names, [[names[a], names[b]] for a, b in pairs])
    sides = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    return core.MixedHypergraph.from_names(names, [
        ([names[a], names[b]], []) if side == 0 else ([names[a]], [names[b]]) if side == 1
        else ([], [names[a], names[b]]) for (a, b), side in zip(pairs, sides)])


@BOUNDED
@given(host=signed_graphs())
def test_graph_witness_is_the_same_without_the_source_bound(host):
    # a bound of n runs the parity BFS from every source
    with mock.patch.object(detect, "_odd_sources", lambda n, arcs: n):
        every_source = detect._search(host, detect.DEFAULT_SEARCH_BUDGET, tree_house=False)
    assert detect._search(host, detect.DEFAULT_SEARCH_BUDGET, tree_house=False) == every_source


JUNK = st.recursive(st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
                    | st.text(max_size=2),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                    max_leaves=4)


def _paths(node, path=()):
    """The path of every value in a JSON document, the root's () first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def damaged_documents(draw):
    """A valid instance document (a fixture, or a seeded host) after one to
    three damages, each at a value of a depth drawn first: a key or item
    dropped, a value replaced by junk of any type, by a string or by a
    vertex name that is not listed, or junk nested into a list or an
    object."""
    if draw(st.booleans()):
        doc = core.instance_to_dict(core.fixture(draw(st.sampled_from(core.FIXTURE_NAMES))))
    else:
        doc = core.instance_to_dict(draw(disjoint_hosts()))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))  # each depth as likely, the root too
        depth = draw(st.integers(0, max(map(len, paths))))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        damage = draw(st.sampled_from(("drop", "junk", "string", "unknown-name", "nest")))
        junk = draw(st.text(max_size=3) if damage == "string" else JUNK)
        if not path:
            doc = [doc, junk] if damage == "nest" else doc if damage == "drop" else junk
            continue
        *above, key = path
        parent = doc
        for step in above:
            parent = parent[step]
        node = parent[key]
        if damage == "drop":
            del parent[key]
        elif damage in ("junk", "string"):
            parent[key] = junk
        elif damage == "unknown-name":
            parent[key] = "not-a-vertex"
        elif isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), junk)
        elif isinstance(node, dict):
            node[draw(st.text(max_size=2))] = junk
        else:
            parent[key] = [node, junk]
    return doc


@BOUNDED
@given(doc=damaged_documents())
def test_damaged_documents_exit_2_unless_still_valid(doc):
    valid = False
    if isinstance(doc, dict):  # load_instance reads a string as a file path
        with contextlib.suppress(InputError):
            core.load_instance(doc)
            valid = True
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command, codes in (("check", {0, 1, 3}), ("delta", {0, 3})):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, path])
            assert code in (codes if valid else {2}), (command, code, err.getvalue())
            assert "Traceback" not in out.getvalue() + err.getvalue()
