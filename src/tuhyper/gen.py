"""Seeded generators for random and planted instances.

All randomness comes from xoshiro256** 1.0 seeded through splitmix64, with
the reference constants, so any implementation of that generator reproduces
the exact same instances from the same 64-bit seed.

Every member is built as (heads, tails).  An unsigned instance keeps the
head sides of the all-head case, whose sign coins are the constant 1 and draw
nothing from the stream; so the unsigned plant is the all-head mixed plant,
whose restricted parities are all 1, and the forced last parity makes each
cycle and each tree-house path odd.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .core import Hypergraph, MixedHypergraph
from .detect import _KINDS
from .errors import InputError

__all__ = ["Xoshiro256StarStar", "GenConfig", "Plant", "generate",
           "config_to_dict", "config_from_dict"]

_MASK64 = (1 << 64) - 1


class Xoshiro256StarStar:
    """xoshiro256** 1.0 (Blackman & Vigna), 4x64-bit state, splitmix64 seeding."""

    def __init__(self, seed: int):
        self._s = []
        s = seed & _MASK64
        for _ in range(4):
            s = (s + 0x9E3779B97F4A7C15) & _MASK64
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            self._s.append(z ^ (z >> 31))

    @staticmethod
    def _rotl(x: int, k: int) -> int:
        return ((x << k) | (x >> (64 - k))) & _MASK64

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (self._rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = self._rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by unbiased rejection."""
        if n <= 0:
            raise InputError("randrange needs a positive bound")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        if k > len(pool):
            raise InputError("sample larger than population")
        out = []
        for _ in range(k):
            out.append(pool.pop(self.randrange(len(pool))))
        return out

    def coin(self) -> int:
        return self.next_u64() >> 63


@dataclass(frozen=True)
class Plant:
    """Structure to embed: 'odd-cycle'/'mixed-odd-cycle' with `length`, or
    'odd-tree-house'/'mixed-odd-tree-house' with three `path_lengths`, odd if unsigned."""

    kind: str
    length: int = 0
    path_lengths: tuple[int, int, int] = (1, 1, 1)


@dataclass(frozen=True)
class GenConfig:
    seed: int
    n_vertices: int
    n_small_edges: int = 0
    proper_edge_sizes: tuple[int, ...] = ()
    disjoint: bool = True
    mixed: bool = False
    plant: Plant | None = None


def config_to_dict(cfg: GenConfig) -> dict:
    """JSON-ready form of a generator config."""
    doc = asdict(cfg)
    doc["proper_edge_sizes"] = list(cfg.proper_edge_sizes)
    if cfg.plant is not None:
        doc["plant"]["path_lengths"] = list(cfg.plant.path_lengths)
    return doc


def config_from_dict(doc: dict) -> GenConfig:
    plant = doc.get("plant")
    return GenConfig(
        seed=int(doc["seed"]),
        n_vertices=int(doc["n_vertices"]),
        n_small_edges=int(doc.get("n_small_edges", 0)),
        proper_edge_sizes=tuple(int(x) for x in doc.get("proper_edge_sizes", ())),
        disjoint=bool(doc.get("disjoint", True)),
        mixed=bool(doc.get("mixed", False)),
        plant=None if plant is None else Plant(
            plant["kind"], int(plant.get("length", 0)),
            tuple(int(x) for x in plant.get("path_lengths", (1, 1, 1)))),
    )


def _random_arc_sides(coin, pair, parity: int):
    """Orient a support-2 arc to the requested parity with random signs."""
    a, b = pair
    if parity == 0:
        return ((a,), (b,)) if coin() else ((b,), (a,))
    both = tuple(sorted((a, b)))
    return (both, ()) if coin() else ((), both)


def _random_sides(coin, vertices):
    """(heads, tails) of the vertices, one coin each in order, 1 for a head."""
    signs = [coin() for _ in vertices]
    return (tuple(v for v, s in zip(vertices, signs) if s),
            tuple(v for v, s in zip(vertices, signs) if not s))


def _path_arcs(coin, seq, target: int):
    """Arcs along the vertex sequence seq whose restricted parities sum to
    target + 1 (mod 2): every parity a coin but the last, which is forced."""
    parities = [coin() for _ in range(len(seq) - 2)]
    parities.append((target + 1 + sum(parities)) % 2)
    return [_random_arc_sides(coin, seq[t:t + 2], parities[t]) for t in range(len(seq) - 1)]


def _plant(cfg: GenConfig, coin):
    """Arcs and witness of the planted structure, if any, and the vertices
    of its proper arc, which generated proper edges avoid.

    A cycle is a path closed onto vertex 0 with odd parity; a tree house's
    path i closes onto leaf i so that it and h make an even cycle.
    """
    p = cfg.plant
    if p is None:
        return [], None, set()
    kind = _KINDS[MixedHypergraph if cfg.mixed else Hypergraph]
    if p.kind not in (kind.cycle.kind, kind.tree_house.kind):
        host = "a mixed" if cfg.mixed else "an unsigned"
        raise InputError(f"unknown plant kind {p.kind!r} for {host} instance")
    cycle = p.kind == kind.cycle.kind
    lens = (p.length,) if cycle else p.path_lengths
    what, least = ("length", kind.shortest) if cycle else ("path lengths", 1)
    if not cfg.mixed and any(l % 2 == 0 for l in lens):
        raise InputError(f"planted {p.kind} needs odd {what}")
    if min(lens) < least:
        raise InputError(f"planted {p.kind} needs {what} >= {least}")
    if (p.length if cycle else 1 + sum(lens)) > cfg.n_vertices:
        raise InputError(f"not enough vertices for the planted {p.kind}")
    if cycle:
        k = tuple(range(p.length))
        return _path_arcs(coin, [*k, 0], 0), kind.cycle(k, k), set()
    h = _random_sides(coin, range(4))  # r, l1, l2, l3
    arcs = []
    paths = []
    ids = []
    nxt = 4  # vertices 0..3 are root and leaves
    for i, length in enumerate(lens):
        seq = [0] + list(range(nxt, nxt + length - 1)) + [1 + i]
        nxt += length - 1
        ids.append(tuple(range(len(arcs), len(arcs) + length)))
        arcs += _path_arcs(coin, seq, int((0 in h[0]) != (1 + i in h[0])))
        paths.append(tuple(seq))
    arcs.append(h)
    witness = kind.tree_house(0, (1, 2, 3), tuple(paths), tuple(ids), len(arcs) - 1)
    return arcs, witness, {0, 1, 2, 3}


def generate(cfg: GenConfig):
    """Deterministic instance for a config; returns (instance, planted witness).

    Vertices are named v0..v{n-1}.  The planted structure (if any) comes
    first, then one hyperedge per entry of `proper_edge_sizes`, then
    `n_small_edges` random size-2 edges.  Under `disjoint`, generated
    size->=4 edges are drawn from pairwise disjoint vertex pools.
    """
    rng = Xoshiro256StarStar(cfg.seed)
    coin = rng.coin if cfg.mixed else lambda: 1
    n = cfg.n_vertices
    if n <= 0:
        raise InputError("need at least one vertex")
    if cfg.n_small_edges < 0:
        raise InputError("the number of size-2 edges must be >= 0")
    names = tuple(f"v{i}" for i in range(n))
    members, witness, used_by_proper = _plant(cfg, coin)
    for size in cfg.proper_edge_sizes:
        if size < 3:
            raise InputError("proper edge sizes must be >= 3")
        if cfg.disjoint and size >= 4:
            pool = [v for v in range(n) if v not in used_by_proper]
            if len(pool) < size:
                raise InputError("not enough vertices left for a disjoint proper edge")
            chosen = sorted(rng.sample(pool, size))
            used_by_proper |= set(chosen)
        else:
            chosen = sorted(rng.sample(range(n), size))
        members.append(_random_sides(coin, chosen))
    for _ in range(cfg.n_small_edges):
        if n < 2:
            raise InputError("size-2 edges need at least two vertices")
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        if b >= a:
            b += 1
        # the parity coin is drawn before the orientation coin
        members.append(_random_arc_sides(coin, (min(a, b), max(a, b)), coin()))
    if cfg.mixed:
        return MixedHypergraph(names, tuple(members)), witness
    return Hypergraph(names, tuple(heads for heads, _ in members)), witness
