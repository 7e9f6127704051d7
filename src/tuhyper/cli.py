"""Command-line interface.

Exit codes: 0 = answered (no violation), 1 = a property violation was found
(not TU, witness found, invalid certificate, selftest failure), 2 = input
error, 3 = size guard or search budget exceeded, 70 = internal failure (a
machine-checked extraction step failed, or any other unexpected error;
please report it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import core, detect, extract, gen, linalg, mixed
from .errors import (
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    SizeGuardError,
)

_C_GREEN = "\033[32m"
_C_RED = "\033[31m"
_C_OFF = "\033[0m"


def _colors_enabled() -> bool:
    return os.environ.get("TUHYPER_NO_COLOR", "") == "" and sys.stdout.isatty()


def _emit(args, doc: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"{path}: not valid JSON ({exc})") from None


def _load(path: str):
    doc = _read_json(path)
    if not isinstance(doc, dict):  # load_instance would read a JSON string as a path
        raise InputError(f"{path}: instance document must be a JSON object")
    # load_instance raises InputError for every malformed document known;
    # this catch is a safety net, so that one it misses still exits 2
    try:
        return core.load_instance(doc)
    except (TypeError, AttributeError, ValueError) as exc:
        raise InputError(f"{path}: malformed instance ({exc})") from None


def _witness_doc(instance, w):
    return None if w is None else detect.witness_to_dict(instance, w)


def _cmd_check(args) -> int:
    instance = _load(args.input)
    if args.verify_cert:
        cert = _read_json(args.verify_cert)
        try:
            w = detect.witness_from_dict(instance, cert.get("witness", cert))
        except (TypeError, AttributeError, ValueError) as exc:
            raise InputError(f"{args.verify_cert}: malformed certificate ({exc})") from None
        ok = detect.verify_witness(instance, w)
        _emit(args, {"command": "check", "certificate_valid": ok},
              [f"certificate: {'valid' if ok else 'INVALID'}"])
        return 0 if ok else 1
    disjoint = core.is_disjoint(instance)
    if args.disjoint or disjoint:
        decision = detect._decide(instance, args.max_nodes)
        method = "forbidden-structure"
    else:
        decision = detect.Decision(
            tu=linalg.is_tu_bruteforce(core.incidence_matrix(instance), args.max_order)
        )
        method = "bruteforce"
    doc = {
        "command": "check",
        "tu": decision.tu,
        "method": method,
        "disjoint": disjoint,
        "witness": _witness_doc(instance, decision.witness),
    }
    lines = [f"totally unimodular: {'yes' if decision.tu else 'no'} ({method})"]
    if decision.witness is not None:
        lines.append(f"witness: {json.dumps(doc['witness'])}")
    _emit(args, doc, lines)
    return 0 if decision.tu else 1


def _cmd_delta(args) -> int:
    instance = _load(args.input)
    m = core.incidence_matrix(instance)
    res = linalg.max_abs_subdet(m, cap=args.cap, max_dimension_sum=args.max_order)
    doc = {
        "command": "delta",
        "delta": res.delta,
        "rows": [instance.names[v] for v in res.rows],
        "cols": list(res.cols),
    }
    _emit(args, doc, [f"delta: {res.delta}",
                      f"witness rows {doc['rows']} cols {doc['cols']}"])
    return 0


def _cmd_detect(args) -> int:
    instance = _load(args.input)
    w = detect._search(instance, args.max_nodes, cycle=args.kind != "tree-house",
                       tree_house=args.kind != "odd-cycle")
    doc = {"command": "detect", "found": w is not None,
           "witness": _witness_doc(instance, w)}
    _emit(args, doc, [f"found: {doc['found']}"]
          + ([f"witness: {json.dumps(doc['witness'])}"] if w else []))
    return 1 if w is not None else 0


def _cmd_extract(args) -> int:
    instance = _load(args.input)
    if not isinstance(instance, core.Hypergraph):
        raise InputError("extract works on unsigned hypergraph instances")
    result = extract.extract_witness(instance, args.max_nodes)
    doc = {
        "command": "extract",
        "witness": _witness_doc(instance, result.witness),
        "trace": list(result.trace),
    }
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(doc["trace"], fh, indent=2)
        except OSError as exc:
            raise InputError(f"cannot write {args.trace}: {exc.strerror or exc}") from None
    _emit(args, doc, [f"witness: {json.dumps(doc['witness'])}",
                      f"trace: {len(result.trace)} steps"])
    return 1


def _cmd_camion(args) -> int:
    instance = _load(args.input)
    if isinstance(instance, core.MixedHypergraph):
        res = linalg.camion_unimodular_mixed(instance)
    else:
        res = linalg.camion_unimodular(instance)
    doc = {"command": "camion", "unimodular": res.unimodular}
    lines = [f"unimodular: {'yes' if res.unimodular else 'no'}"]
    if res.witness is not None:
        doc["witness"] = {
            "vertices": [instance.names[v] for v in res.witness.vertices],
            "edge_ids": list(res.witness.edge_ids),
            "value": res.value,
        }
        lines.append(f"violating selection: {json.dumps(doc['witness'])}")
    else:
        doc["witness"] = None
    _emit(args, doc, lines)
    return 0 if res.unimodular else 1


def _cmd_reduce(args) -> int:
    instance = _load(args.input)
    if isinstance(instance, core.Hypergraph):
        instance = core.as_mixed(instance)
    hyper, transcript = mixed.normalize_to_hypergraph(instance)
    doc = {
        "command": "reduce",
        "hypergraph": core.instance_to_dict(hyper),
        "transcript": transcript,
    }
    _emit(args, doc, [f"reduced to {hyper.n_vertices} vertices / {hyper.n_edges} edges",
                      f"transcript: {len(transcript)} steps"])
    return 0


def _cmd_build_r(args) -> int:
    instance = _load(args.input)
    if isinstance(instance, core.Hypergraph):
        instance = core.as_mixed(instance)
    cls = mixed.classify_almost_tu_disjoint(instance)
    if cls.kind == "not-almost-tu":
        raise InputError("instance is not a mixed odd cycle or mixed odd tree house")
    r = mixed.build_r_matrix(instance)
    a = core.incidence_matrix(instance)
    product = a @ r
    det = linalg.det_exact(product)
    doc = {
        "command": "build-r",
        "classification": cls.kind,
        "R": [[int(x) for x in row] for row in r],
        "AR_is_unbalanced_hole": True,
        "det_AR": int(det),
    }
    _emit(args, doc, [f"classification: {cls.kind}",
                      f"|det(A R)| = {abs(det)}", "A R is an unbalanced hole"])
    return 0


def _parse_plant(text: str) -> gen.Plant:
    kind, _, rest = text.partition(":")
    if kind in ("odd-cycle", "mixed-odd-cycle"):
        return gen.Plant(kind, length=int(rest))
    if kind in ("tree-house", "mixed-tree-house"):
        lens = tuple(int(x) for x in rest.split(","))
        if len(lens) != 3:
            raise InputError("tree-house plant needs three path lengths, e.g. 1,1,3")
        full = "odd-tree-house" if kind == "tree-house" else "mixed-odd-tree-house"
        return gen.Plant(full, path_lengths=lens)
    raise InputError(f"unknown plant {text!r}")


def _cmd_gen(args) -> int:
    try:
        plant = _parse_plant(args.plant) if args.plant else None
        sizes = tuple(int(x) for x in args.proper_sizes.split(",") if x)
    except ValueError as exc:  # int() of a malformed number
        raise InputError(f"malformed --plant or --proper-sizes ({exc})") from None
    cfg = gen.GenConfig(
        seed=args.seed,
        n_vertices=args.vertices,
        n_small_edges=args.small_edges,
        proper_edge_sizes=sizes,
        disjoint=not args.no_disjoint,
        mixed=args.mixed or (plant is not None and plant.kind.startswith("mixed")),
        plant=plant,
    )
    instance, witness = gen.generate(cfg)
    doc = core.instance_to_dict(instance)
    doc["config"] = gen.config_to_dict(cfg)
    if witness is not None:
        doc["witness"] = detect.witness_to_dict(instance, witness)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _selftest_checks():
    fig1 = core.fixture("fig1")
    fig2 = core.fixture("fig2")
    fig4l = core.fixture("fig4-left")
    fig4r = core.fixture("fig4-right")
    fig5 = core.fixture("fig5")
    c3 = core.fixture("c3")
    c4 = core.fixture("c4")
    dir4 = core.fixture("dir4")

    checks = []

    d1 = detect.decide_unimodular_disjoint(fig1)
    checks.append(("fig1 not TU with tree-house witness",
                   not d1.tu and isinstance(d1.witness, detect.OddTreeHouseWitness)))
    checks.append(("fig1 delta = 2",
                   linalg.max_abs_subdet(core.incidence_matrix(fig1)).delta == 2))
    cam1 = linalg.camion_unimodular(fig1)
    checks.append(("fig1 support-count witness = 10",
                   not cam1.unimodular and cam1.value == 10))

    checks.append(("fig2 has no odd cycle", detect.find_odd_cycle(fig2) is None))
    checks.append(("fig2 has no odd tree house", detect.find_odd_tree_house(fig2) is None))
    m2 = core.incidence_matrix(fig2)
    checks.append(("fig2 not TU but almost TU",
                   not linalg.is_tu_bruteforce(m2) and linalg.is_almost_tu(m2)))
    checks.append(("fig2 is not disjoint", not core.is_disjoint(fig2)))

    cur = fig4l
    for _ in range(3):
        aid = next(a for a in range(cur.n_arcs)
                   if len(cur.arcs[a][0]) == 1 and len(cur.arcs[a][1]) == 1)
        cur, _step = mixed.split_arc(cur, aid)
    # the printed layout orders rows along the cycle and renames the split
    # vertices; align rows by that order and columns by their supports
    row_names = {"v01": "w#0", "v12": "w#2", "v23": "w#4"}
    rows = [cur.vertex_id(row_names.get(nm, nm)) for nm in fig4r.names]
    got_cols = [frozenset(cur.names[v] for v in cur.support(a)) for a in range(cur.n_arcs)]
    want_cols = [
        frozenset(row_names.get(fig4r.names[v], fig4r.names[v]) for v in fig4r.support(a))
        for a in range(fig4r.n_arcs)
    ]
    col_perm = [got_cols.index(c) for c in want_cols]
    got = core.incidence_matrix(cur)[rows, :][:, col_perm]
    checks.append(("fig4 splits reproduce the printed 7x7 matrix",
                   sorted(col_perm) == list(range(cur.n_arcs))
                   and bool((got == core.incidence_matrix(fig4r)).all())))
    checks.append(("fig4 splits preserve |det| = 2",
                   abs(linalg.det_exact(core.incidence_matrix(fig4l))) == 2
                   and abs(linalg.det_exact(core.incidence_matrix(cur))) == 2))

    cls5 = mixed.classify_almost_tu_disjoint(fig5)
    checks.append(("fig5 classified as mixed odd tree house",
                   cls5.kind == "mixed-odd-tree-house"))
    m5 = core.incidence_matrix(fig5)
    checks.append(("fig5 |det| = 2", abs(linalg.det_exact(m5)) == 2))
    r5 = mixed.build_r_matrix(fig5)
    prod = m5 @ r5
    checks.append(("fig5 R is TU and A R an unbalanced hole",
                   linalg.is_tu_bruteforce(r5)
                   and mixed.classify_almost_tu_disjoint(
                       core.mixed_from_matrix(prod)).kind == "mixed-odd-cycle"
                   and abs(linalg.det_exact(prod)) == 2))

    cam3 = linalg.camion_unimodular(c3)
    checks.append(("c3 support-count witness = 6",
                   not cam3.unimodular and cam3.value == 6))
    checks.append(("c4 is TU", detect.decide_unimodular_disjoint(c4).tu))
    checks.append(("dir4 is TU", detect.decide_unimodular_mixed_disjoint(dir4).tu))
    checks.append(("dir4 even-cycle null vector is all ones",
                   mixed.even_cycle_nullvector(dir4).tolist() == [1, 1, 1, 1]))
    return checks


def _cmd_selftest(args) -> int:
    checks = _selftest_checks()
    ok = all(flag for _, flag in checks)
    lines = []
    use_color = _colors_enabled()
    for name, flag in checks:
        tag = "PASS" if flag else "FAIL"
        if use_color:
            tag = (_C_GREEN if flag else _C_RED) + tag + _C_OFF
        lines.append(f"{tag}  {name}")
    lines.append(f"{len(checks)} checks, {'all passed' if ok else 'FAILURES PRESENT'}")
    doc = {"command": "selftest", "ok": ok,
           "checks": [{"name": n, "ok": f} for n, f in checks]}
    _emit(args, doc, lines)
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tuhyper",
        description="Exact TU decisions and certificates for disjoint (mixed) "
                    "hypergraph incidence matrices",
    )
    sub = top.add_subparsers(dest="command", required=True)

    limits = {
        "--max-nodes": dict(type=_positive_int, default=detect.DEFAULT_SEARCH_BUDGET,
                            help="budget per search phase: path nodes, the vertices its "
                                 "reachability tests expand, and the edges and BFS states "
                                 "of its split walk; graph hosts are decided in polynomial "
                                 "time without it"),
        "--max-order": dict(type=_positive_int, default=linalg.DEFAULT_MAX_DIMENSION_SUM,
                            help="rows+cols guard for exhaustive enumerations"),
    }

    def common(p, *limit_flags, needs_input=True):
        if needs_input:
            p.add_argument("input", help="instance JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        for flag in limit_flags:
            p.add_argument(flag, **limits[flag])

    p = sub.add_parser("check", help="decide total unimodularity")
    common(p, "--max-nodes", "--max-order")
    p.add_argument("--disjoint", action="store_true",
                   help="require a disjoint instance (error otherwise)")
    p.add_argument("--verify-cert", metavar="CERT",
                   help="verify a witness certificate instead of deciding")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("delta", help="maximum absolute subdeterminant")
    common(p, "--max-order")
    p.add_argument("--cap", type=_positive_int, default=None, help="largest submatrix order")
    p.set_defaults(run=_cmd_delta)

    p = sub.add_parser("detect", help="search for a forbidden structure")
    common(p, "--max-nodes")
    p.add_argument("--kind", choices=("any", "odd-cycle", "tree-house"), default="any")
    p.set_defaults(run=_cmd_detect)

    p = sub.add_parser("extract", help="constructive witness extraction")
    common(p, "--max-nodes")
    p.add_argument("--trace", metavar="FILE", help="write the extraction trace JSON here")
    p.set_defaults(run=_cmd_extract)

    p = sub.add_parser("camion", help="support-count unimodularity criterion")
    common(p)
    p.set_defaults(run=_cmd_camion)

    p = sub.add_parser("reduce", help="normalize a mixed instance to an unsigned one")
    common(p)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("build-r", help="column-operation matrix onto an unbalanced hole")
    common(p)
    p.set_defaults(run=_cmd_build_r)

    p = sub.add_parser("gen", help="generate a seeded random/planted instance")
    p.add_argument("--seed", type=int, required=True, help="64-bit stream seed")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--small-edges", type=int, default=0)
    p.add_argument("--proper-sizes", default="", help="comma-separated sizes >= 3")
    p.add_argument("--no-disjoint", action="store_true")
    p.add_argument("--mixed", action="store_true")
    p.add_argument("--plant", default=None,
                   help="odd-cycle:K | tree-house:a,b,c | mixed-odd-cycle:K | mixed-tree-house:a,b,c")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("selftest", help="run the shipped fixture expectations")
    common(p, needs_input=False)
    p.set_defaults(run=_cmd_selftest)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SizeGuardError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 70
    except Exception as exc:  # a crash must not read as 1, "violation found"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
