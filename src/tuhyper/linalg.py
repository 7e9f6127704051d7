"""Exact integer linear algebra: determinants, maximum subdeterminants,
brute-force TU / almost-TU tests, and both unimodularity criteria based on
support counts of Eulerian partial subhypergraphs.

Everything here is exact.  Single determinants use fraction-free elimination
over Python integers (no overflow ever).  Enumerations of all minors build
order k from order k - 1 by Laplace expansion over row and column subsets,
in the narrowest signed integer type that a checked Hadamard bound allows
(int8 or int16 for graph incidence matrices, int64 at most).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_MAX_DIMENSION_SUM, Hypergraph, MixedHypergraph, SubSelection, _bits,
                   _expect, _unite)
from .errors import InputError, SizeGuardError

__all__ = [
    "det_exact",
    "batch_det_exact",
    "DeltaResult",
    "max_abs_subdet",
    "is_tu_bruteforce",
    "tu_violation",
    "is_almost_tu",
    "CamionResult",
    "camion_unimodular",
    "camion_unimodular_mixed",
    "DEFAULT_MAX_DIMENSION_SUM",
]


def _integer_entries(m, shape_error: str) -> np.ndarray:
    """m as an array whose entries are all integers: int or bool entries, or
    floats with integral values.  Anything else raises InputError, so that
    no entry is truncated or parsed into a number."""
    try:
        a = np.asarray(m)
    except ValueError:  # ragged rows
        raise InputError(shape_error) from None
    if a.dtype.kind == "O":
        whole = all(isinstance(x, (int, np.integer, np.bool_))
                    or isinstance(x, (float, np.floating)) and float(x).is_integer()
                    for x in a.flat)
    else:
        whole = a.dtype.kind in "biu" or a.dtype.kind == "f" and bool(
            np.isfinite(a).all() and (a == np.trunc(a)).all())
    if not whole:
        raise InputError(f"expected integer entries, got a matrix of {a.dtype}")
    return a


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def det_exact(m) -> int:
    """Exact determinant via fraction-free elimination on Python integers."""
    m = _integer_entries(m, "det_exact expects a square matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("det_exact expects a square matrix")
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n):
        pivot_row = next((j for j in range(i, n) if a[j][i] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != i:
            a[i], a[pivot_row] = a[pivot_row], a[i]
            sign = -sign
        pivot = a[i][i]
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] = (a[j][k] * pivot - a[j][i] * a[i][k]) // prev
            a[j][i] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _hadamard_bound(a: np.ndarray, order: int) -> float:
    """Bound on |every minor| of order at most `order` of a float matrix: the
    product of its `order` largest column norms, each taken as at least 1."""
    norms = np.sqrt((a * a).sum(axis=0))
    return np.prod(np.sort(norms)[::-1][:order].clip(min=1.0))


def _floats(m: np.ndarray, what: str) -> np.ndarray:
    """|m| as floats; an entry beyond the float range raises SizeGuardError."""
    try:
        return np.abs(m.astype(np.float64))
    except OverflowError:  # a Python integer beyond the float range
        raise SizeGuardError(f"entries too large for exact int64 {what}") from None


def batch_det_exact(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a stack of small integer matrices, as int64.

    Each is `det_exact` of one matrix.  A stack where twice the square of
    some matrix's Hadamard bound reaches 2^62, or an entry passes the float
    range, raises SizeGuardError, so every determinant fits in int64.
    """
    shape_error = "batch_det_exact expects a stack of square matrices"
    a = _integer_entries(mats, shape_error)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InputError(shape_error)
    if any(2.0 * _hadamard_bound(x, a.shape[1]) ** 2 >= 2.0**62
           for x in _floats(a, "elimination")):
        raise SizeGuardError("entries too large for exact int64 elimination")
    return np.array([det_exact(x) for x in a], dtype=np.int64)


def _check_guard(m, max_dimension_sum: int) -> np.ndarray:
    """m as an integer matrix in the narrowest signed type that keeps
    `_minors` exact, once it is one and small enough to enumerate."""
    max_dimension_sum = _positive_int(max_dimension_sum, "max_dimension_sum")
    m = _integer_entries(m, "expected an integer matrix with rows of equal length")
    if m.ndim != 2:
        raise InputError(f"expected a two-dimensional matrix, got {m.ndim} dimensions")
    rows, cols = m.shape
    if rows + cols > max_dimension_sum:
        raise SizeGuardError(
            f"desk-scale exceeded: matrix has rows+cols = {rows + cols} > "
            f"{max_dimension_sum}; raise max_dimension_sum to force the enumeration"
        )
    # Exactness of `_minors`: order j of the recurrence adds the terms
    # +-m[r, c] * minor over rows r of one column c, each minor of order
    # j - 1 <= k - 1 (k = min(rows, cols)) and so at most the Hadamard bound
    # H of order k - 1.  Every term, partial sum and minor is then at most
    # B = ||col c||_1 * H.  The type holds +-2B, a factor of two for the
    # rounding of the floats; B < 2^62 fits int64.
    a = _floats(m, "enumeration")
    bound = _hadamard_bound(a, max(min(rows, cols) - 1, 0)) * a.sum(axis=0).max(initial=1.0)
    if bound >= 2.0**62:
        raise SizeGuardError("entries too large for exact int64 enumeration")
    return m.astype(np.min_scalar_type(-2 * math.ceil(bound) - 1))


@functools.lru_cache(maxsize=256)
def _subsets(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Size-k subsets of range(n) in `itertools.combinations` order.

    Returns (sets, drop): row a of the C(n, k) x k array `sets` is the a-th
    subset, ascending; drop[i, a] is the position of that subset without its
    i-th element in the size-(k - 1) list, so drop[k - 1] maps each subset
    to the one it extends.
    """
    if k == 0:
        return np.zeros((1, 0), dtype=np.intp), np.zeros((0, 1), dtype=np.intp)
    prev, _ = _subsets(n, k - 1)
    last = prev[:, -1] if k > 1 else np.full(1, -1, dtype=np.intp)
    counts = n - 1 - last  # each subset extends by every larger element, in order
    parent = np.repeat(np.arange(len(prev)), counts)
    offset = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
    sets = np.column_stack([prev[parent], np.repeat(last + 1, counts) + offset])
    # the lexicographic rank of a size-(k-1) subset s of range(n) is
    # C(n, k-1) - 1 - sum_j C(n - 1 - s_j, k - 1 - j)
    binom = np.array([math.comb(a, b) for a in range(n) for b in range(k)],
                     dtype=np.intp).reshape(n, k)
    weights = np.arange(k - 1, 0, -1)
    drop = np.empty((k, len(sets)), dtype=np.intp)
    for i in range(k):
        rest = np.delete(sets, i, axis=1)
        drop[i] = math.comb(n, k - 1) - 1 - binom[n - 1 - rest, weights].sum(axis=1)
    sets.setflags(write=False)
    drop.setflags(write=False)
    return sets, drop


def _minors(m: np.ndarray, top: int):
    """Yield (row_sets, col_sets, dets) for the orders 1, 2, ..., top.

    dets[a, b] is the minor on rows row_sets[a] and columns col_sets[b];
    both axes are in lexicographic order, so the first hit of a flat argmax
    is the canonical (lexicographic rows, then columns) witness.  Order k
    comes from order k - 1 by Laplace expansion along the largest selected
    column c:  det(R, C) = sum_i (-1)^(i + k - 1) m[R_i, c] det(R - R_i, C - c),
    k multiply-adds on whole arrays per order, all in m's dtype, which
    `_check_guard` chose so that no product or partial sum overflows.
    """
    prev = np.ones((1, 1), dtype=m.dtype)
    for k in range(1, top + 1):
        rows, drop = _subsets(m.shape[0], k)
        cols, col_drop = _subsets(m.shape[1], k)
        # np.take keeps both row-major (prev[:, idx] comes out column-major),
        # so that the k row gathers below read contiguous rows
        sub = np.take(prev, col_drop[k - 1], axis=1)  # minors without the largest column
        last = np.take(m, cols[:, -1], axis=1)  # entries of the largest column
        dets = np.zeros((len(rows), len(cols)), dtype=m.dtype)
        for i in range(k):
            term = last[rows[:, i]]
            term *= sub[drop[i]]
            if (i + k - 1) % 2:
                dets -= term
            else:
                dets += term
        yield rows, cols, dets
        prev = dets


def _signed_graph(m: np.ndarray) -> list[tuple[int, int, int]] | None:
    """m read as a signed graph, as its edges (a, b, parity); None unless
    every entry is 0 or +-1 and no column has more than two nonzeros.

    Rows are vertices.  A column with nonzeros in rows a < b is an edge of
    parity 1 when its two signs agree and 0 when they differ; a column with
    fewer nonzeros is no edge.
    """
    nonzero = m != 0
    counts = nonzero.sum(axis=0)
    if (counts > 2).any() or (np.abs(m) > 1).any():
        return None
    two = np.flatnonzero(counts == 2)
    ends = np.nonzero(nonzero[:, two].T)[1].reshape(-1, 2)  # by column, then by row
    signs = m[ends, two[:, None]]
    return list(zip(*ends.T.tolist(), (signs[:, 0] == signs[:, 1]).tolist()))


def _balanced_without(edges: list[tuple[int, int, int]], n: int, gone: int) -> bool:
    """True iff the signed graph `edges` on n vertices has no cycle of odd
    parity once the vertices in the mask `gone` are deleted."""
    uf = list(range(n)), [0] * n, [1] * n
    return all(_unite(*uf, a, b, par) for a, b, par in edges if not (gone >> a | gone >> b) & 1)


@dataclass(frozen=True)
class DeltaResult:
    """Maximum absolute subdeterminant with a witnessing submatrix."""

    delta: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]


def max_abs_subdet(m, cap: int | None = None,
                   max_dimension_sum: int = DEFAULT_MAX_DIMENSION_SUM) -> DeltaResult:
    """Largest |det| over square submatrices up to order `cap`, with witness.

    Orders are scanned ascending and subsets lexicographically, and the
    witness is the first submatrix achieving the maximum in that order, so
    results are reproducible.

    The scan stops early, with the same result, once no later order can
    beat the best |minor|.  That is proven when m has entries 0 and +-1,
    at most two nonzeros per column, and so is a signed graph (see
    `_signed_graph`; Heller & Tompkins 1956, Grossman, Kulkarni &
    Schochetman 1995).  Let B be a square submatrix with det B != 0.
    Expanding along a column or row of B with one nonzero keeps |det|;
    once none is left, every column has two nonzeros, so every row has
    two, and B is a disjoint union of cycles.  The matrix of a cycle has
    |det| 2 if its parity is odd and 0 if even.  So |det B| = 2^s, s
    vertex-disjoint odd cycles on rows of B.  Now let the best be
    2^t with witness W.  If deleting some t rows of W leaves no odd cycle
    in the whole signed graph, every |minor| is 2^s with s <= t, as each of
    its s disjoint odd cycles meets a deleted row: no later order can pass
    the best, and a tie never replaces the first witness.  Only rows of W
    need trying, because t deleted rows that meet W's t disjoint odd cycles
    lie one on each.  At t = 0 this is Heller and Tompkins' theorem: a
    signed graph with no odd cycle has a totally unimodular matrix.
    """
    if cap is not None:
        cap = _positive_int(cap, "cap")
    m = _check_guard(m, max_dimension_sum)
    edges = _signed_graph(m)
    best = DeltaResult(0, (), ())
    top = min(m.shape)
    if cap is not None:
        top = min(top, cap)
    for rows, cols, dets in _minors(m, top):
        mags = np.abs(dets)
        i, j = divmod(int(np.argmax(mags)), mags.shape[1])
        if mags[i, j] > best.delta:
            best = DeltaResult(int(mags[i, j]), tuple(rows[i].tolist()),
                               tuple(cols[j].tolist()))
            t = best.delta.bit_length() - 1
            if edges is not None and any(
                    _balanced_without(edges, m.shape[0], sum(1 << r for r in gone))
                    for gone in itertools.combinations(best.rows, t)):
                break
    return best


def _first_violation(m: np.ndarray):
    """`tu_violation` of a matrix that `_check_guard` returned."""
    edges = _signed_graph(m)
    if edges is not None and _balanced_without(edges, m.shape[0], 0):
        return None
    for rows, cols, dets in _minors(m, min(m.shape)):
        bad = np.abs(dets) >= 2
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), bad.shape[1])
            return tuple(rows[i].tolist()), tuple(cols[j].tolist()), int(dets[i, j])
    return None


def tu_violation(m, max_dimension_sum: int = DEFAULT_MAX_DIMENSION_SUM):
    """First square submatrix (ascending order, lexicographic) with |det| >= 2.

    Returns (rows, cols, det) or None when the matrix is totally unimodular.

    A matrix with entries 0 and +-1 and at most two nonzeros per column is
    a signed graph (see `_signed_graph`), and when that graph has no cycle
    of odd parity the answer is None without enumerating.  Every nonzero
    minor of such a matrix is +-2^s with s vertex-disjoint odd cycles on its
    rows (see `max_abs_subdet`), so with none every minor is 0 or +-1
    (Heller & Tompkins 1956).
    """
    return _first_violation(_check_guard(m, max_dimension_sum))


def is_tu_bruteforce(m, max_dimension_sum: int = DEFAULT_MAX_DIMENSION_SUM) -> bool:
    """True iff every square subdeterminant lies in {0, +1, -1}."""
    return tu_violation(m, max_dimension_sum) is None


def is_almost_tu(m, max_dimension_sum: int = DEFAULT_MAX_DIMENSION_SUM) -> bool:
    """True iff m is not TU but every proper submatrix is TU.

    A violating submatrix of a non-square matrix is always proper, so only
    square matrices can be almost TU: the whole matrix must be the unique
    violation.  As `tu_violation` scans by ascending order, that holds iff
    the first violation it finds is the whole matrix.
    """
    m = _check_guard(m, max_dimension_sum)
    rows, cols = m.shape
    if rows != cols or rows == 0:
        return False
    first = _first_violation(m)
    return first is not None and len(first[0]) == rows


# ---------------------------------------------------------------------------
# Support-count unimodularity criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CamionResult:
    """Outcome of a support-count criterion run.

    When `unimodular` is false, `witness` selects an Eulerian partial
    subhypergraph whose support count violates the divisibility condition;
    `value` is that count (unsigned case) or the signed entry sum (mixed).
    """

    unimodular: bool
    witness: SubSelection | None
    value: int | None


# The walk filters vertex sets a block at a time.  Blocks grow from the first
# size to the cap, so a walk that stops at a small |U| pays for one or two.
_FIRST_BLOCK, _BLOCK_CAP = 64, 2048
# Up to _TABLE_BITS the blocks are slices of one cached bit-sliced table;
# slicing the whole lattice in one block made dense hosts' first selection 2-5x slower.
_TABLE_BITS = 16
_MAX_WALK_BITS = 63  # subset masks are int64


def _sliced(masks: np.ndarray, n: int) -> list[bytes]:
    """int64 masks over range(n), bit-sliced: bit r of the i-th string, read
    as a little-endian int, is set when masks[r] holds i."""
    bits = np.unpackbits(masks.astype("<i8").view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")
    rows = np.packbits(bits[:, :n].T, axis=1, bitorder="little")
    return [row.tobytes() for row in rows]


@functools.lru_cache(maxsize=_TABLE_BITS + 1)
def _sliced_by_popcount(n: int) -> tuple[bytes, ...]:
    """Nonempty subsets of range(n) by popcount, then value, bit-sliced (128 KB at 16)."""
    masks = np.arange(1, 1 << n, dtype=np.int64)
    return tuple(_sliced(masks[np.argsort(np.bitwise_count(masks), kind="stable")], n))


@functools.lru_cache(maxsize=_MAX_WALK_BITS + 1)
def _binomials(n: int) -> np.ndarray:
    """binom[i, c] = C(c, i) for i <= n and c < n, in int64 (n <= 63)."""
    binom = np.array([[math.comb(c, i) for c in range(n)] for i in range(n + 1)],
                     dtype=np.int64)
    binom.setflags(write=False)
    return binom


def _unrank(n: int, k: int, start: int, stop: int) -> np.ndarray:
    """Masks of the size-k subsets of range(n) of ranks start, ..., stop - 1
    by value.

    Ordered by value, the size-k subsets are in colexicographic order, and
    the rank of {c_1 < ... < c_k} is sum_i C(c_i, i).  So c_k is the largest
    c with C(c, k) <= rank, and the rest unranks rank - C(c_k, k) the same
    way.
    """
    binom = _binomials(n)
    rank = np.arange(start, stop, dtype=np.int64)
    masks = np.zeros_like(rank)
    for i in range(k, 0, -1):
        c = np.searchsorted(binom[i], rank, side="right") - 1
        masks |= np.left_shift(1, c)
        rank -= binom[i, c]
    return masks


def _mask_blocks(n: int):
    """The nonempty subsets of range(n) by popcount, then by value, in blocks
    of 64, 128, ... up to 2,048 sets, as (member, count): bit r of member[i]
    is set when the block's r-th set holds i.

    Up to 16 bits they are slices of one cached table and run across
    popcounts, so a short walk costs one or two blocks.  Above, each popcount
    has blocks of its own, unranked on demand, so memory is not 2^n.
    """
    if n <= _TABLE_BITS:
        table = _sliced_by_popcount(n)
        # block bounds are multiples of 64 but the table's end, past which rows pad with 0
        layers = [((1 << n) - 1, lambda a, b: [int.from_bytes(row[a >> 3:b + 7 >> 3], "little")
                                               for row in table])]
    else:
        layers = [(math.comb(n, k), lambda a, b, k=k: [int.from_bytes(row, "little") for row
                                                       in _sliced(_unrank(n, k, a, b), n)])
                  for k in range(1, n + 1)]
    size = _FIRST_BLOCK
    for total, take in layers:
        start = 0
        while start < total:
            stop = min(start + size, total)
            yield take(start, stop), stop - start
            start, size = stop, min(2 * size, _BLOCK_CAP)


def _gf2_nullspace(columns: list[int]) -> list[int]:
    """Nullspace combination masks for GF(2) column vectors given as ints.

    Each returned int selects a subset of the input columns XOR-ing to zero.
    """
    pivots: dict[int, tuple[int, int]] = {}
    basis = []
    for j, vec in enumerate(columns):
        combo = 1 << j
        while vec:
            lead = vec.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (vec, combo)
                break
            pvec, pcombo = pivots[lead]
            vec ^= pvec
            combo ^= pcombo
        else:
            basis.append(combo)
    return basis


def _core_vertices(masks: list[int], n: int) -> int:
    """Mask of the vertices an Eulerian core can use: peel range(n) by
    dropping every vertex on fewer than two edges that meet the remaining
    set in two or more vertices, until nothing drops.

    Sound because in an Eulerian selection (U, F) where F covers U, every
    vertex of U is covered an even, nonzero number of times by edges whose
    traces on U are even and nonempty, so it lies on at least two edges that
    meet U in at least two vertices.  Such an edge meets every superset of U
    in two or more vertices as well, so a round that starts from a superset
    of U drops no vertex of U: by induction U stays inside the peeled set.
    """
    alive = (1 << n) - 1
    while True:
        once = twice = 0
        for m in masks:
            t = m & alive
            if t & (t - 1):  # two or more remaining vertices
                twice |= once & t
                once |= t
        if twice == alive:
            return alive
        alive = twice


def _eulerian_selections(masks: list[int], n_vertices: int, guard: int):
    """Yield (umask, edge_subset_mask) for Eulerian selections, smallest U first.

    `masks` are the vertex masks of the hyperedge supports.  Vertex sets U
    come by popcount, then by mask value.  For each U the admissible column
    sets are the GF(2) nullspace of the parity system "every vertex of U is
    covered an even number of times", restricted to edges whose trace in U
    is even and nonempty; they come in the order of the nonzero
    combinations of that nullspace's basis.

    Only the selections that can cover U are sought: U runs over the
    subsets of the peeled set P of `_core_vertices`, and a U with a vertex
    on fewer than two admissible edges is skipped (no F covers it).  The
    output is then the walk over all vertex sets with those U removed, and
    every selection (U, F) in which F covers U is still in it, at the same
    relative place.  `guard` bounds |P|, and so does 63.

    The sets U are filtered in bit-sliced blocks of `_mask_blocks`: bit r of
    member[i] says whether the r-th U of the block holds vertex i.  Over an
    edge's vertices, the XOR of member[i] marks the U its trace is odd on and
    the OR those it meets, so a few Python-int operations per edge mark where
    it is admissible, and a once/twice scan over each vertex's edges tests
    every U of the block at once.  Only the U that pass are decoded.
    """
    core = _core_vertices(masks, n_vertices)
    verts = list(_bits(core))
    if len(verts) > min(guard, _MAX_WALK_BITS):
        raise SizeGuardError(
            f"desk-scale exceeded: {len(verts)} vertices left by peeling > "
            f"{min(guard, _MAX_WALK_BITS)} for the Eulerian-subhypergraph enumeration"
        )
    # an edge with fewer than two vertices in P is never admissible
    eids = [eid for eid, m in enumerate(masks) if (m & core).bit_count() >= 2]
    if not eids:
        return
    # blocks index vertices by position in verts; ends and inc do the same
    pos = {v: i for i, v in enumerate(verts)}
    ends = [[pos[v] for v in _bits(masks[e] & core)] for e in eids]
    inc = [[] for _ in verts]
    for j, vs in enumerate(ends):
        for i in vs:
            inc[i].append(j)
    vbits = [1 << v for v in verts]
    for member, _ in _mask_blocks(len(verts)):
        adm = []  # bit r: the edge's trace on the r-th U is even and nonempty
        keep = 0  # the U with an admissible edge
        for vs in ends:
            odd = some = 0
            for i in vs:
                odd ^= member[i]
                some |= member[i]
            adm.append(some & ~odd)
            keep |= adm[-1]
        for i, m in enumerate(member):
            once = twice = 0
            for j in inc[i]:
                twice |= once & adm[j]
                once |= adm[j]
            keep &= twice | ~m
        while keep:
            low = keep & -keep
            keep ^= low
            umask = 0
            for vbit, m in zip(vbits, member):
                if m & low:
                    umask |= vbit
            cand = [(eid, t) for eid in eids
                    if (t := masks[eid] & umask) and not t.bit_count() & 1]
            basis = _gf2_nullspace([t for _, t in cand])
            # moving candidate bits onto their distinct edge ids is linear
            # over GF(2), so it commutes with the XORs below
            fbasis = [sum(1 << cand[i][0] for i in _bits(vec)) for vec in basis]
            for combo_bits in range(1, 1 << len(fbasis)):
                fmask = 0
                for k in _bits(combo_bits):
                    fmask ^= fbasis[k]
                yield umask, fmask


def _first_core(heads: tuple[int, ...], tails: tuple[int, ...], n_vertices: int, guard: int):
    """(umask, fmask, total) of the first selection (U, F) of the peeled walk
    with |F| = |U|, F covering U and entry sum 2 mod 4, or None.  The entry
    sum total is the sum over arcs a in F of |head_a & U| - |tail_a & U|; an
    unsigned host passes all-zero tails, so there it is the support count.
    `guard` bounds the vertices left by peeling.

    Such a selection exists iff the matrix is not totally unimodular
    (Camion 1965; Schrijver 1986, ch. 19).  Its rows U and columns F form
    an Eulerian square submatrix with entry sum 2 mod 4, which is not TU.
    Conversely, a minimally non-TU square submatrix has |det| = 2, is
    Eulerian, has entry sum 2 mod 4 and no zero row or column: its columns
    cover its rows, so the peeled walk of `_eulerian_selections` yields it.
    """
    supports = [h | t for h, t in zip(heads, tails)]
    for umask, fmask in _eulerian_selections(supports, n_vertices, guard):
        if fmask.bit_count() != umask.bit_count():
            continue
        covered = total = 0
        for a in _bits(fmask):
            covered |= supports[a] & umask
            total += (heads[a] & umask).bit_count() - (tails[a] & umask).bit_count()
        if covered == umask and total % 4 == 2:
            return umask, fmask, total
    return None


def camion_unimodular(g: Hypergraph, max_vertices: int = 16) -> CamionResult:
    """Support-count unimodularity test for unsigned hypergraphs.

    The matrix is totally unimodular iff every Eulerian partial subhypergraph
    has support size divisible by four; the first violating selection (by
    vertex-set size, then lexicographic) is returned as the witness.

    That first selection (U, F) always has F covering U: were v in U
    uncovered, (U - v, F) would be Eulerian with the same support and come
    earlier.  So the peeled walk of `_eulerian_selections` finds it, and
    `max_vertices` bounds the number of vertices left by peeling (see
    `_core_vertices`), not the host's.
    """
    _expect(g, Hypergraph)
    masks = list(g.edge_masks)
    for umask, fmask in _eulerian_selections(masks, g.n_vertices, max_vertices):
        supp = sum((masks[e] & umask).bit_count() for e in _bits(fmask))
        if supp % 4 != 0:
            sel = SubSelection(tuple(_bits(umask)), tuple(_bits(fmask)))
            return CamionResult(False, sel, supp)
    return CamionResult(True, None, None)


def camion_unimodular_mixed(d: MixedHypergraph, max_vertices: int = 16) -> CamionResult:
    """Entry-sum unimodularity test for mixed hypergraphs: the witness is
    the selection of `_first_core` (see there for why it decides total
    unimodularity), and `max_vertices` bounds the vertices left by peeling.
    """
    _expect(d, MixedHypergraph)
    core = _first_core(d.head_masks, d.tail_masks, d.n_vertices, max_vertices)
    if core is None:
        return CamionResult(True, None, None)
    umask, fmask, total = core
    return CamionResult(False, SubSelection(tuple(_bits(umask)), tuple(_bits(fmask))), total)
