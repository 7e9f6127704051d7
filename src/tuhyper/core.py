"""Hypergraph and mixed-hypergraph data model.

Vertices are dense integer ids 0..n-1; external labels are kept in a name
table so incidence matrices are deterministic: row order == vertex order,
column order == edge/arc order.  Hyperedges form a multiset realized as an
id-indexed sequence (the position is the edge id), so parallel edges are
first-class.  All types are immutable after construction.

`__post_init__` is the one validator of each host type, and it reads each
edge or arc side once: one walk over its ids checks that they are integers,
strictly ascending and below n, and builds its bitmask.  The name index it
builds is also the check that names are unique.  `from_names` only maps
names to sorted ids and reports a name repeated within an edge or side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InputError

if TYPE_CHECKING:  # at run time numpy loads inside the functions that use it
    import numpy as np

__all__ = [
    "DEFAULT_MAX_DIMENSION_SUM",
    "Hypergraph",
    "MixedHypergraph",
    "SubSelection",
    "Induced",
    "incidence_matrix",
    "induce",
    "is_disjoint",
    "overlapping_proper_edges",
    "is_eulerian",
    "support_size",
    "as_mixed",
    "mixed_from_matrix",
    "fixture",
    "FIXTURE_NAMES",
    "load_instance",
    "instance_to_dict",
]


# Exhaustive submatrix enumeration (`linalg`) is exponential; reject inputs
# whose rows+cols exceed this unless the caller raises the guard explicitly.
# It lives here so that the command line reads it without loading numpy.
DEFAULT_MAX_DIMENSION_SUM = 22


def _mask(vertex_ids) -> int:
    m = 0
    for v in vertex_ids:
        m |= 1 << v
    return m


def _name_index(names) -> dict:
    """Name -> vertex id; InputError unless the names are unique."""
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise InputError("vertex names must be unique")
    return index


def _ids_mask(ids, n: int, what: str, i: int) -> int:
    """Bitmask of the vertex ids `ids` of member i (`what`: "edge", "arc"),
    checked in the same walk: Python integers, strictly ascending, below n."""
    mask, prev = 0, -1
    try:
        for v in ids:
            if not prev < v < n:
                raise InputError(f"{what} {i} must hold strictly ascending vertex ids "
                                 f"in range({n})")
            mask |= 1 << v  # raises TypeError unless v is an integer
            prev = v
    except (TypeError, OverflowError):  # OverflowError: a numpy id past 63 bits
        mask = None
    if type(mask) is not int:  # a numpy id makes a numpy mask, which wraps
        raise InputError(f"{what} {i} holds a vertex id that is not a Python integer")
    return mask


def _names(vertices):
    """The names as a tuple, and the __getitem__ of their name -> id map."""
    names = tuple(vertices)
    if not {str}.issuperset(map(type, names)):
        raise InputError("vertex names must be strings")
    return names, {nm: i for i, nm in enumerate(names)}.__getitem__


def _mapped(get, names, what: str, member) -> tuple[int, ...]:
    """Sorted ids of the names of one edge or arc side, by `get` from
    `_names`; InputError for a name not listed or repeated (`what` and
    `member` word it)."""
    # every name is a string, so a member that is not one is unknown
    try:
        ids = sorted(map(get, names))
    except (KeyError, TypeError):
        raise InputError(f"{what} {member!r} references an unknown vertex") from None
    if len(set(ids)) != len(ids):
        raise InputError(f"{what} {member!r} repeats a vertex")
    return tuple(ids)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _expect(g, kind: type) -> None:
    """Raise InputError unless g is a `kind` (Hypergraph or MixedHypergraph)."""
    if not isinstance(g, kind):
        raise InputError(f"expected a {kind.__name__}, got {type(g).__name__}")


def _unite(up: list[int], flip: list[int], size: list[int], a: int, b: int, par: int) -> bool:
    """Record sign(a) ^ sign(b) == par in a parity union-find (union by
    size, `flip[v]` the sign of v against `up[v]`); False if that
    contradicts what it holds, that is, closes a cycle of odd parity.

    Uniting every edge of a signed graph this way is Harary's balance test
    (1953): the graph is balanced iff no edge returns False."""
    while up[a] != a:
        par ^= flip[a]
        a = up[a]
    while up[b] != b:
        par ^= flip[b]
        b = up[b]
    if a == b:
        return par == 0
    if size[a] < size[b]:
        a, b = b, a
    up[b], flip[b] = a, par
    size[a] += size[b]
    return True


# Host-name accessors, bound in both host classes.  A shared base class
# would say this once too, but cost decide-corpus about 10 % when measured.
def _n_vertices(g) -> int:
    return len(g.names)


def _vertex_id(g, name: str) -> int:
    try:
        return g._index[name]
    except (KeyError, TypeError):  # an unhashable name is unknown too
        raise InputError(f"unknown vertex name {name!r}") from None


@dataclass(frozen=True)
class Hypergraph:
    """A vertex set plus a multiset of nonempty hyperedges."""

    names: tuple[str, ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.names)
        object.__setattr__(self, "_index", _name_index(self.names))
        masks = []
        for eid, edge in enumerate(self.edges):
            mask = _ids_mask(edge, n, "edge", eid)
            if not mask:
                raise InputError(f"edge {eid} is empty")
            masks.append(mask)
        object.__setattr__(self, "_masks", tuple(masks))

    n_vertices = property(_n_vertices)
    vertex_id = _vertex_id

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def edge_masks(self) -> tuple[int, ...]:
        return self._masks  # type: ignore[attr-defined]

    support_masks = head_masks = edge_masks  # all-head, as a MixedHypergraph

    def support(self, eid: int) -> tuple[int, ...]:
        return self.edges[eid]

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        bit = 1 << v
        return tuple(i for i, m in enumerate(self.edge_masks) if m & bit)

    def is_graph(self) -> bool:
        return all(len(e) == 2 for e in self.edges)

    @classmethod
    def from_names(cls, vertices, edges) -> "Hypergraph":
        names, get = _names(vertices)
        return cls(names, tuple(_mapped(get, edge, "edge", edge) for edge in edges))


@dataclass(frozen=True)
class MixedHypergraph:
    """A vertex set plus a multiset of hyperarcs (head set, tail set).

    Heads contribute +1 incidence entries, tails -1.  Head and tail sets are
    disjoint and not both empty.
    """

    names: tuple[str, ...]
    arcs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        n = len(self.names)
        object.__setattr__(self, "_index", _name_index(self.names))
        smasks, tmasks = [], []
        for aid, (heads, tails) in enumerate(self.arcs):
            s = _ids_mask(heads, n, "arc", aid)
            t = _ids_mask(tails, n, "arc", aid)
            if not s | t:
                raise InputError(f"arc {aid} is empty")
            if s & t:
                raise InputError(f"arc {aid} has a vertex on both sides")
            smasks.append(s)
            tmasks.append(t)
        object.__setattr__(self, "_smasks", tuple(smasks))
        object.__setattr__(self, "_tmasks", tuple(tmasks))
        object.__setattr__(self, "_umasks", tuple(s | t for s, t in zip(smasks, tmasks)))

    n_vertices = property(_n_vertices)
    vertex_id = _vertex_id

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def head_masks(self) -> tuple[int, ...]:
        return self._smasks  # type: ignore[attr-defined]

    @property
    def tail_masks(self) -> tuple[int, ...]:
        return self._tmasks  # type: ignore[attr-defined]

    @property
    def support_masks(self) -> tuple[int, ...]:
        return self._umasks  # type: ignore[attr-defined]

    def support(self, aid: int) -> tuple[int, ...]:
        heads, tails = self.arcs[aid]
        return tuple(sorted(heads + tails))

    @classmethod
    def from_names(cls, vertices, arcs) -> "MixedHypergraph":
        names, get = _names(vertices)
        return cls(names, tuple((_mapped(get, heads, "arc", (heads, tails)),
                                 _mapped(get, tails, "arc", (heads, tails)))
                                for heads, tails in arcs))


@dataclass(frozen=True)
class SubSelection:
    """A vertex subset U and an edge-id subset F, both against a fixed host."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def __post_init__(self):
        if list(self.vertices) != sorted(set(self.vertices)):
            raise InputError("selection vertices must be a sorted duplicate-free tuple")
        if list(self.edge_ids) != sorted(set(self.edge_ids)):
            raise InputError("selection edge ids must be a sorted duplicate-free tuple")

    def validate(self, g) -> None:
        n = g.n_vertices
        m = len(g.support_masks)
        if self.vertices and (self.vertices[0] < 0 or self.vertices[-1] >= n):
            raise InputError("selection references an unknown vertex")
        if self.edge_ids and (self.edge_ids[0] < 0 or self.edge_ids[-1] >= m):
            raise InputError("selection references an unknown edge id")


@dataclass(frozen=True)
class Induced:
    """Result of `induce`: the sub-hypergraph plus originating host edge ids."""

    sub: Hypergraph
    origin: tuple[int, ...]


def incidence_matrix(g) -> np.ndarray:
    """Vertex-by-edge incidence matrix; +1 heads, -1 tails, read-only int64."""
    import numpy as np

    if isinstance(g, Hypergraph):
        m = np.zeros((g.n_vertices, g.n_edges), dtype=np.int64)
        for j, edge in enumerate(g.edges):
            for v in edge:
                m[v, j] = 1
    elif isinstance(g, MixedHypergraph):
        m = np.zeros((g.n_vertices, g.n_arcs), dtype=np.int64)
        for j, (heads, tails) in enumerate(g.arcs):
            for v in heads:
                m[v, j] = 1
            for v in tails:
                m[v, j] = -1
    else:
        raise InputError(f"expected a hypergraph, got {type(g).__name__}")
    m.setflags(write=False)
    return m


def induce(g: Hypergraph, sel: SubSelection) -> Induced:
    """Restrict g to (U, F): keep vertices U and the traces f & U, f in F.

    Edges whose trace is empty are dropped.  Each surviving edge is tagged
    with its originating host edge id, so the result's incidence matrix is a
    submatrix of the host's.
    """
    sel.validate(g)
    if not isinstance(g, Hypergraph):
        raise InputError("induce expects a non-mixed hypergraph")
    umask = _mask(sel.vertices)
    renum = {v: i for i, v in enumerate(sel.vertices)}
    names = tuple(g.names[v] for v in sel.vertices)
    edges = []
    origin = []
    for eid in sel.edge_ids:
        if g.edge_masks[eid] & umask:
            edges.append(tuple(renum[v] for v in g.edges[eid] if v in renum))
            origin.append(eid)
    return Induced(Hypergraph(names, tuple(edges)), tuple(origin))


def overlapping_proper_edges(g) -> tuple[int, int] | None:
    """First pair of size->=4 hyperedges/arc supports sharing a vertex, if any."""
    big = [(i, m) for i, m in enumerate(g.support_masks) if m.bit_count() >= 4]
    for a in range(len(big)):
        for b in range(a + 1, len(big)):
            if big[a][1] & big[b][1]:
                return big[a][0], big[b][0]
    return None


def is_disjoint(g) -> bool:
    """True iff all hyperedges/arc supports of size >= 4 are pairwise disjoint."""
    return overlapping_proper_edges(g) is None


def is_eulerian(g) -> bool:
    """True iff every incidence row and column has an even number of nonzeros."""
    m = incidence_matrix(g)
    nz = m != 0
    return bool((nz.sum(axis=0) % 2 == 0).all() and (nz.sum(axis=1) % 2 == 0).all())


def support_size(m: np.ndarray) -> int:
    """Number of nonzero entries."""
    import numpy as np

    return int(np.count_nonzero(np.asarray(m)))


def as_mixed(g: Hypergraph) -> MixedHypergraph:
    """View an unsigned hypergraph as a mixed one with all tails empty."""
    return MixedHypergraph(g.names, tuple((e, ()) for e in g.edges))


def mixed_from_matrix(m: np.ndarray, names=None) -> MixedHypergraph:
    """Mixed hypergraph whose incidence matrix is the given {0,+-1} matrix."""
    import numpy as np

    m = np.asarray(m)
    if m.ndim != 2:
        raise InputError("incidence matrix must be two-dimensional")
    if not np.isin(m, (-1, 0, 1)).all():
        raise InputError("incidence entries must be in {0, +1, -1}")
    rows, cols = m.shape
    if names is None:
        names = tuple(f"v{i}" for i in range(rows))
    elif len(names) != rows:
        raise InputError(f"{len(names)} vertex names for {rows} matrix rows")
    arcs = []
    for j in range(cols):
        heads = tuple(int(i) for i in np.nonzero(m[:, j] == 1)[0])
        tails = tuple(int(i) for i in np.nonzero(m[:, j] == -1)[0])
        arcs.append((heads, tails))
    return MixedHypergraph(tuple(names), tuple(arcs))


# ---------------------------------------------------------------------------
# Instance files and named fixtures
# ---------------------------------------------------------------------------

FIXTURE_NAMES = ("fig1", "fig2", "fig4-left", "fig4-right", "fig5", "c3", "c4", "dir4")


def load_instance(doc) -> Hypergraph | MixedHypergraph:
    """Parse an instance from a JSON document (dict, JSON string, or path).

    A string is JSON text if it starts, after white space, as an object, a
    list or a string does; any other string is a path.  Vertex names are
    strings, and a document has exactly one of the lists 'edges' and
    'arcs'; `from_names` rejects members that are not listed names.
    """
    if isinstance(doc, (str, bytes)):
        text = doc
        if isinstance(doc, str) and not doc.lstrip().startswith(("{", "[", '"')):
            with open(doc, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InputError("instance document must be an object with a 'vertices' key")
    if ("edges" in doc) == ("arcs" in doc):
        raise InputError("instance document needs exactly one of 'edges' and 'arcs'")
    key = "edges" if "edges" in doc else "arcs"
    # a string or an object iterates as names, so it must not pass for a list
    if not (isinstance(doc["vertices"], (list, tuple)) and isinstance(doc[key], (list, tuple))):
        raise InputError(f"'vertices' and '{key}' must be lists")
    if key == "edges":
        if any(isinstance(e, str) for e in doc["edges"]):
            raise InputError("'edges' must be a list of lists of names, not strings")
        return Hypergraph.from_names(doc["vertices"], doc["edges"])
    arcs = []
    for a in doc["arcs"]:
        if not isinstance(a, dict):
            raise InputError("each arc must be an object with 'plus' and 'minus' lists")
        plus, minus = a.get("plus", []), a.get("minus", [])
        if isinstance(plus, str) or isinstance(minus, str):
            raise InputError("arc 'plus' and 'minus' must be lists of names, not strings")
        arcs.append((plus, minus))
    return MixedHypergraph.from_names(doc["vertices"], arcs)


def instance_to_dict(g) -> dict:
    """JSON-ready dict for a hypergraph or mixed hypergraph."""
    if isinstance(g, Hypergraph):
        return {
            "vertices": list(g.names),
            "edges": [[g.names[v] for v in e] for e in g.edges],
        }
    if isinstance(g, MixedHypergraph):
        return {
            "vertices": list(g.names),
            "arcs": [
                {"plus": [g.names[v] for v in s], "minus": [g.names[v] for v in t]}
                for s, t in g.arcs
            ],
        }
    raise InputError(f"expected a hypergraph, got {type(g).__name__}")


def fixture(name: str) -> Hypergraph | MixedHypergraph:
    """Load one of the named instances shipped with the package."""
    from importlib import resources

    key = name.lower().replace("_", "-")
    if key not in FIXTURE_NAMES:
        raise InputError(f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}")
    path = resources.files("tuhyper").joinpath("data", key.replace("-", "_") + ".json")
    return load_instance(json.loads(path.read_text(encoding="utf-8")))
