import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from tuhyper import cli, core, detect

FIXDIR = resources.files("tuhyper").joinpath("data")
SCHEMA = json.loads(FIXDIR.joinpath("output_schema.json").read_text())


def run(*args, **kw):
    # the CLI runs from the source tree of the package imported here
    src = os.path.dirname(os.path.dirname(core.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, TUHYPER_NO_COLOR="1", PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "tuhyper.cli", *args],
                          capture_output=True, text=True, env=env, **kw)


def fixture_path(name: str) -> str:
    return str(FIXDIR.joinpath(name.replace("-", "_") + ".json"))


def check_schema(doc):
    jsonschema.validate(doc, SCHEMA)


def test_check_fig1_not_tu_with_witness():
    r = run("check", fixture_path("fig1"), "--json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    check_schema(doc)
    assert doc["tu"] is False
    assert doc["witness"]["kind"] == "odd-tree-house"
    assert doc["method"] == "forbidden-structure"


def test_check_c4_is_tu():
    r = run("check", fixture_path("c4"), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    check_schema(doc)
    assert doc["tu"] is True


def test_check_disjoint_rejects_fig2_naming_edges():
    r = run("check", fixture_path("fig2"), "--disjoint")
    assert r.returncode == 2
    assert "0" in r.stderr and "1" in r.stderr and "not disjoint" in r.stderr


def test_check_fig2_without_flag_falls_back_to_bruteforce():
    r = run("check", fixture_path("fig2"), "--json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    check_schema(doc)
    assert doc["method"] == "bruteforce" and doc["disjoint"] is False


def test_delta_fig2():
    r = run("delta", fixture_path("fig2"), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    check_schema(doc)
    assert doc["delta"] == 2


def test_detect_and_camion():
    r = run("detect", fixture_path("fig1"), "--json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    check_schema(doc)
    assert doc["found"] is True
    r = run("camion", fixture_path("fig1"), "--json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    check_schema(doc)
    assert doc["witness"]["value"] == 10
    r = run("camion", fixture_path("c4"), "--json")
    assert r.returncode == 0


def test_extract_and_verify_cert_round_trip(tmp_path):
    r = run("extract", fixture_path("fig1"), "--json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    check_schema(doc)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"witness": doc["witness"]}))
    # re-verification happens in a fresh process
    r2 = run("check", fixture_path("fig1"), "--verify-cert", str(cert), "--json")
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["certificate_valid"] is True
    # corrupt the certificate
    bad = json.loads(cert.read_text())
    bad["witness"]["hyperedge_id"] = 0
    cert.write_text(json.dumps(bad))
    r3 = run("check", fixture_path("fig1"), "--verify-cert", str(cert))
    assert r3.returncode == 1


def test_reduce_fig4(tmp_path):
    r = run("reduce", fixture_path("fig4_left"), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    check_schema(doc)
    assert len(doc["hypergraph"]["vertices"]) == 7
    assert sum(1 for s in doc["transcript"] if s["op"] == "split") == 3


def test_build_r_fig5():
    r = run("build-r", fixture_path("fig5"), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    check_schema(doc)
    assert doc["AR_is_unbalanced_hole"] is True
    assert abs(doc["det_AR"]) == 2
    r2 = run("build-r", fixture_path("dir4"))
    assert r2.returncode == 2


def test_gen_requires_seed_and_is_deterministic(tmp_path):
    r = run("gen", "--vertices", "6")
    assert r.returncode == 2
    a = run("gen", "--seed", "9", "--vertices", "6", "--small-edges", "3",
            "--proper-sizes", "4")
    b = run("gen", "--seed", "9", "--vertices", "6", "--small-edges", "3",
            "--proper-sizes", "4")
    assert a.returncode == 0 and a.stdout == b.stdout
    inst = core.load_instance(json.loads(a.stdout))
    assert inst.n_vertices == 6
    # planted instances embed their witness in the document
    c = run("gen", "--seed", "4", "--vertices", "5", "--plant", "odd-cycle:5")
    doc = json.loads(c.stdout)
    assert doc["witness"]["kind"] == "odd-cycle"
    p = tmp_path / "inst.json"
    p.write_text(c.stdout)
    assert run("check", str(p)).returncode == 1


def test_budget_exit_code():
    r = run("detect", fixture_path("fig1"), "--max-nodes", "1")
    assert r.returncode == 3
    r2 = run("delta", fixture_path("fig1"), "--max-order", "2")
    assert r2.returncode == 3
    # a limit is a positive integer; any other value is an input error
    assert run("check", fixture_path("fig1"), "--max-nodes", "-1").returncode == 2
    assert run("delta", fixture_path("fig1"), "--cap", "-3").returncode == 2


def test_each_subcommand_takes_only_the_limits_it_reads(capsys):
    takes = {"check": ("--max-nodes", "--max-order"), "delta": ("--max-order",),
             "detect": ("--max-nodes",), "extract": ("--max-nodes",), "camion": (),
             "reduce": (), "build-r": (), "gen": (), "selftest": ()}
    for command, kept in takes.items():
        argv = [command] + {"gen": ["--seed", "1", "--vertices", "5"],
                            "selftest": []}.get(command, [fixture_path("fig1")])
        for flag in ("--max-nodes", "--max-order"):
            if flag in kept:
                assert getattr(cli._build_parser().parse_args(argv + [flag, "5"]),
                               flag[2:].replace("-", "_")) == 5
                for bad in ("0", "-1", "x"):
                    with pytest.raises(SystemExit) as exc:
                        cli.main(argv + [flag, bad])
                    assert exc.value.code == 2, (command, flag, bad)
            else:
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv + [flag, "5"])
                assert exc.value.code == 2, (command, flag)
    # gen always prints JSON
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--seed", "1", "--vertices", "5", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_missing_file_is_input_error():
    r = run("check", "no-such-file.json")
    assert r.returncode == 2


def test_unwritable_trace_is_input_error(tmp_path):
    for target in (tmp_path / "no-such-dir" / "t.json", tmp_path):
        r = run("extract", fixture_path("fig1"), "--trace", str(target))
        _assert_input_error(r)
        assert str(target) in r.stderr


def test_selftest_passes():
    r = run("selftest", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    check_schema(doc)
    assert doc["ok"] is True and len(doc["checks"]) >= 14


def test_no_color_env_respected():
    r = run("selftest")
    assert "\033[" not in r.stdout


def _assert_input_error(r):
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


def test_malformed_instances_are_input_errors(tmp_path):
    # a string in place of a list would load as one-character names
    for name, doc in (("arcs-as-lists", {"vertices": ["a", "b"], "arcs": [[["a"], ["b"]]]}),
                      ("edges-not-a-list", {"vertices": ["a", "b"], "edges": 5}),
                      ("vertices-string", {"vertices": "abc",
                                           "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}),
                      ("edges-strings", {"vertices": ["a", "b", "c"],
                                         "edges": ["ab", "bc", "ca"]}),
                      ("edges-string", {"vertices": ["a", "b", "c"], "edges": "abc"}),
                      ("arc-plus-string", {"vertices": ["a", "b", "c"],
                                           "arcs": [{"plus": "ab"}, {"plus": ["b", "c"]},
                                                    {"plus": ["a", "c"]}]}),
                      ("arc-minus-string", {"vertices": ["a", "b", "c"],
                                            "arcs": [{"plus": ["a"], "minus": "b"},
                                                     {"plus": ["b", "c"]},
                                                     {"plus": ["a", "c"]}]}),
                      # names that are not strings would be coerced by str()
                      ("vertex-name-list", {"vertices": [["a"]], "edges": []}),
                      ("vertices-object", {"vertices": {"a": 0, "b": 1}, "edges": [["a", "b"]]}),
                      ("edge-member-int", {"vertices": ["0", "1", "2"],
                                           "edges": [[0, 1], [1, 2], [0, 2]]}),
                      ("arc-member-int", {"vertices": ["0", "1"],
                                          "arcs": [{"plus": [0, 1]},
                                                   {"plus": [0], "minus": [1]}]}),
                      ("arc-not-an-object", {"vertices": ["a", "b"], "arcs": ["ab"]}),
                      # a name repeated inside one edge or arc side would be merged
                      ("edge-repeats-name", {"vertices": ["a", "b"], "edges": [["a", "a"]]}),
                      ("arc-plus-repeats-name", {"vertices": ["a", "b"],
                                                 "arcs": [{"plus": ["a", "a"],
                                                           "minus": ["b"]}]}),
                      ("arc-minus-repeats-name", {"vertices": ["a", "b", "c"],
                                                  "arcs": [{"plus": ["a"],
                                                            "minus": ["b", "c", "b"]}]}),
                      # exactly one of edges and arcs
                      ("edges-and-arcs", {"vertices": ["a", "b", "c"],
                                          "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
                                          "arcs": [{"plus": ["a"], "minus": ["b"]}]})):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        _assert_input_error(run("check", str(p)))


def test_unreadable_or_malformed_certificate_is_input_error(tmp_path):
    _assert_input_error(run("check", fixture_path("c3"), "--verify-cert",
                            str(tmp_path / "missing.json")))
    _assert_input_error(run("check", fixture_path("c3"), "--verify-cert", str(tmp_path)))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    _assert_input_error(run("check", fixture_path("c3"), "--verify-cert", str(bad)))
    bad.write_text(json.dumps({"kind": "odd-cycle", "vertices": ["a", "b", "c"],
                               "edge_ids": ["x", 1, 2]}))
    _assert_input_error(run("check", fixture_path("c3"), "--verify-cert", str(bad)))
    # a string is no list, and an edge id is an integer, not a float or a bool
    for vertices, edge_ids in (("abc", [0, 1, 2]), (["a", "b", "c"], "012"),
                               (["a", "b", "c"], [0, 1, 2.7]), (["a", "b", "c"], [0, True, 2])):
        bad.write_text(json.dumps({"kind": "odd-cycle", "vertices": vertices,
                                   "edge_ids": edge_ids}))
        _assert_input_error(run("check", fixture_path("c3"), "--verify-cert", str(bad)))


def test_malformed_gen_options_are_input_errors():
    for bad in (["--proper-sizes", "x"], ["--plant", "odd-cycle:x"], ["--plant", "odd-cycle:"],
                ["--plant", "tree-house:1,x,3"], ["--small-edges", "-1"]):
        _assert_input_error(run("gen", "--seed", "1", "--vertices", "5", *bad))


def test_unexpected_errors_exit_70_without_a_traceback(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(detect, "_decide", crash)
    assert cli.main(["check", fixture_path("fig1")]) == 70
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
