"""Exact total-unimodularity decisions, certificates, and constructive
witness extraction for disjoint (mixed) hypergraph incidence matrices.

`core` (the data model) and `detect` (the decider) load with the package;
neither imports numpy.  Every other name, `tuhyper.<name>`, loads its module
on first access (PEP 562), so deciding a disjoint host never loads numpy or
the matrix layers `linalg`, `mixed` and `extract`.  The rows+cols guard of
the exhaustive enumerations, `DEFAULT_MAX_DIMENSION_SUM`, lives in `core`.
"""

import importlib

from .core import (
    Hypergraph,
    MixedHypergraph,
    SubSelection,
    as_mixed,
    fixture,
    incidence_matrix,
    induce,
    is_disjoint,
    is_eulerian,
    load_instance,
    mixed_from_matrix,
    support_size,
)
from .detect import (
    MixedOddCycleWitness,
    MixedOddTreeHouseWitness,
    OddCycleWitness,
    OddTreeHouseWitness,
    compute_ocp,
    decide_unimodular_disjoint,
    decide_unimodular_mixed_disjoint,
    find_mixed_odd_cycle,
    find_mixed_odd_tree_house,
    find_odd_cycle,
    find_odd_tree_house,
    verify_witness,
)

# name -> the module that defines it, imported on first access
_LAZY = {
    "extract_witness": "extract",
    "GenConfig": "gen",
    "Plant": "gen",
    "Xoshiro256StarStar": "gen",
    "generate": "gen",
    "camion_unimodular": "linalg",
    "camion_unimodular_mixed": "linalg",
    "det_exact": "linalg",
    "is_almost_tu": "linalg",
    "is_tu_bruteforce": "linalg",
    "max_abs_subdet": "linalg",
    "build_r_matrix": "mixed",
    "classify_almost_tu_disjoint": "mixed",
    "even_cycle_nullvector": "mixed",
    "normalize_to_hypergraph": "mixed",
}
# submodules that load on first access too, as `tuhyper.linalg`
_SUBMODULES = ("extract", "gen", "linalg", "mixed", "quasi")

__all__ = [
    "Hypergraph",
    "MixedHypergraph",
    "SubSelection",
    "as_mixed",
    "fixture",
    "incidence_matrix",
    "induce",
    "is_disjoint",
    "is_eulerian",
    "load_instance",
    "mixed_from_matrix",
    "support_size",
    "MixedOddCycleWitness",
    "MixedOddTreeHouseWitness",
    "OddCycleWitness",
    "OddTreeHouseWitness",
    "compute_ocp",
    "decide_unimodular_disjoint",
    "decide_unimodular_mixed_disjoint",
    "find_mixed_odd_cycle",
    "find_mixed_odd_tree_house",
    "find_odd_cycle",
    "find_odd_tree_house",
    "verify_witness",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
