"""Command-line contract: flags, JSON output, determinism, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mapperbound.assignment import assignment_to_json
from mapperbound.cli import main
from mapperbound.ingest import graph_to_json

from conftest import (
    hook_lam_assignment,
    hook_lam_pair,
    listing_graph,
    random_assignment,
    split_graph,
    strand_graph,
)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture()
def bound_bundle(workdir):
    """Cosheaf files for the hook/lambda pair plus the reference assignment."""
    bF, bG = hook_lam_pair()
    a = hook_lam_assignment(bF, bG)
    from mapperbound.cosheaf import to_json

    f = write(workdir / "F.json", to_json(bF.graph))
    g = write(workdir / "G.json", to_json(bG.graph))
    m = write(workdir / "a.json", assignment_to_json(a))
    return f, g, m


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- ingest ---------------------------------------------------------------------------


def test_ingest_writes_cosheaf_and_echoes_grid(workdir, capsys):
    src = write(workdir / "in.json", graph_to_json(listing_graph()))
    out = str(workdir / "F.json")
    rc, stdout, _ = run(capsys, ["ingest", "--input", src, "--delta", "1.0",
                                 "--output", out])
    assert rc == 0
    echo = json.loads(stdout)
    assert echo["grid"] == {"L": 11, "d": 1, "delta": 1.0}
    assert echo["nodes"] == 28 and echo["links"] == 28
    assert echo["elements_by_dim"] == {"0": 14, "1": 14}
    stored = json.loads((workdir / "F.json").read_text())
    assert stored["grid"]["L"] == 11


def test_ingest_grid_reuse(workdir, capsys):
    a = write(workdir / "a.json", graph_to_json(strand_graph()))
    b = write(workdir / "b.json", graph_to_json(split_graph()))
    fa = str(workdir / "A.json")
    fb = str(workdir / "B.json")
    rc, _, _ = run(capsys, ["ingest", "--input", b, "--delta", "1.0", "--output", fb])
    assert rc == 0
    rc, _, _ = run(capsys, ["ingest", "--input", a, "--delta", "1.0",
                            "--grid", fb, "--output", fa])
    assert rc == 0
    ga = json.loads((workdir / "A.json").read_text())["grid"]
    gb = json.loads((workdir / "B.json").read_text())["grid"]
    assert ga == gb


def test_ingest_out_of_box_exits_2(workdir, capsys):
    src = write(workdir / "bad.json", json.dumps(
        {"d": 1, "vertices": [{"id": "far", "f": [99.0]}], "edges": []}) + "\n")
    grid = write(workdir / "grid.json", json.dumps({"d": 1, "delta": 1.0, "L": 2}))
    rc, _, err = run(capsys, ["ingest", "--input", src, "--delta", "1.0",
                              "--grid", grid, "--output", str(workdir / "x.json")])
    assert rc == 2
    assert "far" in err


# -- bound ----------------------------------------------------------------------------


def test_bound_reference_output(bound_bundle, capsys):
    f, g, m = bound_bundle
    rc, stdout, _ = run(capsys, ["bound", "--f", f, "--g", g, "--assignment", m])
    assert rc == 0
    got = json.loads(stdout)
    assert got["n"] == 1 and got["L_B"] == 1 and got["bound"] == 2
    assert got["reeb_bound"] == 3.0
    assert got["witnesses"][0]["kind"] == "parallelogram_right"


def test_bound_deterministic_across_jobs(bound_bundle, capsys):
    f, g, m = bound_bundle
    _, out1, _ = run(capsys, ["bound", "--f", f, "--g", g, "--assignment", m])
    _, out4, _ = run(capsys, ["bound", "--f", f, "--g", g, "--assignment", m,
                              "--jobs", "4"])
    assert out1 == out4
    _, out1b, _ = run(capsys, ["bound", "--f", f, "--g", g, "--assignment", m])
    assert out1 == out1b


def test_bound_infinite_exits_3(workdir, capsys):
    import random

    from mapperbound.cosheaf import to_json
    from mapperbound.ingest import build
    from mapperbound import fit_grid

    X, Y = split_graph(), strand_graph()
    grid = fit_grid([X, Y], 1.0)
    bF, bG = build(X, grid), build(Y, grid)
    a = random_assignment(bF.graph, bG.graph, 1, random.Random(5))
    f = write(workdir / "F.json", to_json(bF.graph))
    g = write(workdir / "G.json", to_json(bG.graph))
    m = write(workdir / "a.json", assignment_to_json(a))
    rc, stdout, _ = run(capsys, ["bound", "--f", f, "--g", g, "--assignment", m])
    assert rc == 3
    got = json.loads(stdout)
    assert got["L_B"] == "inf" and got["bound"] == "inf" and got["reeb_bound"] == "inf"


def test_bound_invalid_assignment_exits_2(bound_bundle, workdir, capsys):
    f, g, _ = bound_bundle
    m = write(workdir / "broken.json", json.dumps({"n": 1, "phi": {}, "psi": {}}))
    rc, stdout, _ = run(capsys, ["bound", "--f", f, "--g", g, "--assignment", m])
    assert rc == 2
    assert json.loads(stdout)["violations"]


@pytest.fixture()
def doubled_link(bound_bundle, workdir):
    """A copy of F.json in which one node has a second link at a face cell."""
    f, _, _ = bound_bundle
    obj = json.loads(Path(f).read_text())
    cell_of = {n["id"]: n["cell"] for n in obj["nodes"]}
    child, parent = next(
        (c, p) for c, p in obj["links"]
        if sum(cell == cell_of[p] for cell in cell_of.values()) > 1)
    other = next(n for n, cell in cell_of.items() if cell == cell_of[parent] and n != parent)
    obj["links"].append([child, other])
    return write(workdir / "bad.json", json.dumps(obj)), child


@pytest.mark.parametrize("argv", [
    ["bound", "--f", "BAD", "--g", "G", "--assignment", "A"],
    ["check", "--f", "G", "--g", "BAD", "--assignment", "A", "--k", "1"],
    ["oracle", "--mode", "exact", "--f", "BAD", "--g", "G", "--cap", "20", "--n-max", "3"],
    ["oracle", "--mode", "full-loss", "--f", "G", "--g", "BAD", "--assignment", "A"],
    ["export-dot", "--f", "BAD"],
], ids=["bound", "check", "oracle-exact", "oracle-full-loss", "export-dot"])
def test_invalid_cosheaf_exits_2_with_violations(argv, bound_bundle, doubled_link, capsys):
    _, g, m = bound_bundle
    bad, child = doubled_link
    files = {"BAD": bad, "G": g, "A": m}
    rc, stdout, err = run(capsys, [files.get(x, x) for x in argv])
    assert rc == 2 and err == ""
    assert stdout.count("\n") == 1
    got = json.loads(stdout)
    assert got["error"] == f"invalid cosheaf {bad}"
    assert len(got["violations"]) == 1
    assert got["violations"][0].startswith(f"duplicate face image: node {child} ")


@pytest.mark.parametrize("argv", [
    ["bound", "--f", "E", "--g", "E", "--assignment", "A"],
    ["check", "--f", "E", "--g", "E", "--assignment", "A", "--k", "0"],
    ["oracle", "--mode", "exact", "--f", "E", "--g", "E"],
    ["oracle", "--mode", "full-loss", "--f", "E", "--g", "E", "--assignment", "A"],
], ids=["bound", "check", "oracle-exact", "oracle-full-loss"])
def test_cosheaf_without_nodes_at_its_faces_exits_2(argv, workdir, capsys):
    # one element over an edge whose two end points carry nothing
    from mapperbound import CosheafGraph, GridSpec, validate
    from mapperbound.cosheaf import to_json
    from mapperbound.grid import Cell

    E = CosheafGraph(GridSpec(1, 1.0, 1), [("e", Cell((1,)))], [])
    problems = validate(E)
    assert problems == [f"missing face image: node e has no image at face {f!r}"
                        for f in (Cell((0,)), Cell((2,)))]
    files = {"E": write(workdir / "E.json", to_json(E)),
             "A": write(workdir / "a.json", json.dumps({"n": 0, "phi": {"e": "e"},
                                                        "psi": {"e": "e"}}))}
    rc, stdout, err = run(capsys, [files.get(x, x) for x in argv])
    assert (rc, err) == (2, "")
    assert json.loads(stdout) == {"error": f"invalid cosheaf {files['E']}",
                                  "violations": problems}


# -- check ----------------------------------------------------------------------------


def test_check_exit_codes_and_witnesses(bound_bundle, capsys):
    f, g, m = bound_bundle
    rc0, out0, _ = run(capsys, ["check", "--f", f, "--g", g, "--assignment", m,
                                "--k", "0"])
    assert rc0 == 1
    report = json.loads(out0)
    kinds = {w["kind"] for w in report["witnesses"]}
    assert kinds == {"parallelogram_right", "triangle_up"}
    rc1, out1, _ = run(capsys, ["check", "--f", f, "--g", g, "--assignment", m,
                                "--k", "1"])
    assert rc1 == 0 and json.loads(out1)["pass"]


def test_check_beyond_saturation_matches_saturation(bound_bundle, capsys):
    f, g, m = bound_bundle
    rc_sat, out_sat, _ = run(capsys, ["check", "--f", f, "--g", g,
                                      "--assignment", m, "--k", "8"])
    rc_big, out_big, _ = run(capsys, ["check", "--f", f, "--g", g,
                                      "--assignment", m, "--k", "99"])
    assert rc_big == rc_sat
    assert json.loads(out_big)["pass"] == json.loads(out_sat)["pass"]


def test_check_resolves_each_pointer_map_once(bound_bundle, workdir, capsys, monkeypatch):
    from mapperbound import assignment as asg
    from mapperbound.cosheaf import from_json

    calls = []
    real = asg._ptr_idx
    monkeypatch.setattr(asg, "_ptr_idx", lambda *args: calls.append(args) or real(*args))
    f, g, m = bound_bundle
    rc, _, _ = run(capsys, ["check", "--f", f, "--g", g, "--assignment", m, "--k", "1"])
    assert (rc, len(calls)) == (0, 2)
    # an invalid assignment stops after validation, with its messages on stdout
    broken = {"n": 1, "phi": {}, "psi": {}}
    m = write(workdir / "broken.json", json.dumps(broken))
    rc, stdout, _ = run(capsys, ["check", "--f", f, "--g", g, "--assignment", m, "--k", "1"])
    assert (rc, len(calls)) == (2, 4)
    F, G = (from_json(Path(p).read_text()) for p in (f, g))
    problems = asg.validate_assignment(F, G, asg.Assignment.from_json_obj(broken))
    assert json.loads(stdout) == {"error": "invalid assignment", "violations": problems}
    # bound validates and scores from the same single resolution
    del calls[:]
    rc, _, _ = run(capsys, ["bound", "--f", f, "--g", g, "--assignment", bound_bundle[2]])
    assert (rc, len(calls)) == (0, 2)
    rc, stdout, _ = run(capsys, ["bound", "--f", f, "--g", g, "--assignment", m])
    assert (rc, len(calls)) == (2, 4)
    assert json.loads(stdout) == {"error": "invalid assignment", "violations": problems}


# -- oracle ---------------------------------------------------------------------------


def test_oracle_exact_mode(bound_bundle, capsys):
    f, g, _ = bound_bundle
    rc, stdout, _ = run(capsys, ["oracle", "--mode", "exact", "--f", f, "--g", g,
                                 "--cap", "20", "--n-max", "3"])
    assert rc == 0
    assert json.loads(stdout)["oracle"]["d_I"] == 2


def test_oracle_exact_cap_exceeded(bound_bundle, capsys):
    f, g, _ = bound_bundle
    rc, _, err = run(capsys, ["oracle", "--mode", "exact", "--f", f, "--g", g])
    assert rc == 2 and "cap" in err


def test_oracle_pi0_mode(workdir, capsys):
    a = write(workdir / "a.json", graph_to_json(split_graph()))
    b = write(workdir / "b.json", graph_to_json(strand_graph()))
    rc, stdout, _ = run(capsys, ["oracle", "--mode", "pi0", "--f", a, "--g", b,
                                 "--delta", "1.0"])
    assert rc == 0
    rep = json.loads(stdout)["oracle"]
    assert rep["disagreements"] == []
    assert rep["agreements"] == rep["samples"] > 0


def test_oracle_full_loss_mode(workdir, capsys):
    import random

    from mapperbound import fit_grid
    from mapperbound.cosheaf import to_json
    from mapperbound.ingest import build

    X, Y = strand_graph(), strand_graph()
    grid = fit_grid([X, Y], 1.0)
    bF, bG = build(X, grid), build(Y, grid)
    a = random_assignment(bF.graph, bG.graph, 0, random.Random(11))
    f = write(workdir / "F.json", to_json(bF.graph))
    g = write(workdir / "G.json", to_json(bG.graph))
    m = write(workdir / "a.json", assignment_to_json(a))
    rc, stdout, _ = run(capsys, ["oracle", "--mode", "full-loss", "--f", f,
                                 "--g", g, "--assignment", m])
    assert rc == 0
    rep = json.loads(stdout)["oracle"]
    assert rep["L"] == 0 and rep["opens"] > 0


def test_oracle_full_loss_refuses_an_invalid_assignment(workdir, capsys):
    # a pointer past the level-0 radius is reported as bound reports it
    from mapperbound.assignment import Assignment, validate_assignment
    from mapperbound.cosheaf import to_json

    bF, bG = hook_lam_pair()
    F, G = bF.graph, bG.graph
    a = hook_lam_assignment(bF, bG)
    far = max(G.ids, key=lambda y: max(map(abs, G.cell_of(y).coords)))
    bad = Assignment(n=0, phi=dict(a.phi, **{F.ids[0]: far}), psi=dict(a.psi))
    problems = validate_assignment(F, G, bad)
    assert problems and all("radius" in p for p in problems)
    f = write(workdir / "F.json", to_json(F))
    g = write(workdir / "G.json", to_json(G))
    m = write(workdir / "a.json", assignment_to_json(bad))
    for cmd in (["oracle", "--mode", "full-loss", "--cap", "20"], ["bound"]):
        rc, stdout, err = run(capsys, [*cmd, "--f", f, "--g", g, "--assignment", m])
        assert (rc, err) == (2, "")
        assert json.loads(stdout) == {"error": "invalid assignment", "violations": problems}


# -- export-dot -------------------------------------------------------------------------


def test_export_dot_counts_and_stability(workdir, capsys):
    from mapperbound import fit_grid
    from mapperbound.cosheaf import to_json
    from mapperbound.ingest import build

    g = listing_graph()
    built = build(g, fit_grid([g], 1.0))
    f = write(workdir / "F.json", to_json(built.graph))
    rc, out1, _ = run(capsys, ["export-dot", "--f", f])
    assert rc == 0
    assert out1.count(" -- ") == 28
    assert out1.count("label=") == 28
    _, out2, _ = run(capsys, ["export-dot", "--f", f])
    assert out1 == out2


def test_missing_file_exits_2(capsys):
    rc, _, err = run(capsys, ["export-dot", "--f", "/nonexistent/F.json"])
    assert rc == 2 and err


# -- malformed input ------------------------------------------------------------------


def _edit(key, value):
    return lambda obj: {**obj, key: value}


def _first_cell(cell):
    def edit(obj):
        obj["nodes"][0]["cell"] = cell
        return obj
    return edit


# (file edited, edit, fragment the stderr message must hold)
MALFORMED = {
    "n-float": ("A", _edit("n", 1.7), "assignment n must be int, not float"),
    "n-string": ("A", _edit("n", "1"), "assignment n must be int, not str"),
    "n-bool": ("A", _edit("n", True), "assignment n must be int, not bool"),
    "assignment-list": ("A", lambda obj: [], "an assignment must be dict, not list"),
    "pointer-list": ("A", lambda obj: {**obj, "phi": {x: [y] for x, y in obj["phi"].items()}},
                     "must be str, not list"),
    "phi-list": ("A", _edit("phi", []), "phi must be dict, not list"),
    "grid-L-float": ("F", lambda obj: {**obj, "grid": {**obj["grid"], "L": 2.0000001}},
                     "grid L must be int, not float"),
    "grid-d-float": ("F", lambda obj: {**obj, "grid": {**obj["grid"], "d": 1.0}},
                     "grid d must be int, not float"),
    "grid-list": ("F", _edit("grid", [1, 1.0, 2]), "a grid must be dict, not list"),
    "cell-deg-float": ("F", _first_cell([{"deg": 0.25}]), "cell deg must be int, not float"),
    "cell-not-list": ("F", _first_cell(3), "a cell must be list, not int"),
    "cosheaf-list": ("F", lambda obj: [], "a cosheaf must be dict, not list"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("command", [["bound"], ["check", "--k", "0"]], ids=["bound", "check"])
def test_malformed_bound_and_check_inputs_exit_2(name, command, bound_bundle, workdir, capsys):
    # refused by the readers with a message naming what is wrong: exit 2, no
    # traceback, nothing on stdout
    which, edit, fragment = MALFORMED[name]
    files = dict(zip("FGA", bound_bundle))
    files[which] = write(workdir / "bad.json",
                         json.dumps(edit(json.loads(Path(files[which]).read_text()))))
    rc, stdout, err = run(capsys, [command[0], "--f", files["F"], "--g", files["G"],
                                   "--assignment", files["A"], *command[1:]])
    assert (rc, stdout) == (2, "")
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize("text,grid,fragment", [
    ("[1, 2]", None, "a geometric graph must be dict, not list"),
    ('{"d": 1.0, "vertices": [], "edges": []}', None, "graph d must be int, not Fraction"),
    ('{"d": "1", "vertices": [], "edges": []}', None, "graph d must be int, not str"),
    ('{"d": 1, "vertices": [{"id": "v", "f": [0.5]}], "edges": []}',
     '{"d": 1, "delta": 1.0, "L": 2.5}', "grid L must be int, not float"),
    ('{"d": 1, "vertices": [{"id": "v", "f": [0.5]}], "edges": []}', "[]",
     "a grid must be dict, not list"),
], ids=["list", "d-float", "d-string", "grid-L-float", "grid-list"])
def test_malformed_ingest_inputs_exit_2(text, grid, fragment, workdir, capsys):
    argv = ["ingest", "--input", write(workdir / "in.json", text), "--delta", "1.0",
            "--output", str(workdir / "out.json")]
    if grid is not None:
        argv += ["--grid", write(workdir / "grid.json", grid)]
    rc, stdout, err = run(capsys, argv)
    assert (rc, stdout) == (2, "")
    assert err.startswith("error: ") and fragment in err
    assert not (workdir / "out.json").exists()
