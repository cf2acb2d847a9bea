"""Command-line contract: flags, JSON output, determinism, exit codes."""

from __future__ import annotations

import gc
import json
import math
from pathlib import Path

import pytest

from mapperbound.assignment import assignment_to_json
from mapperbound import cli
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


def test_bound_refuses_a_strand_node_with_two_links_at_one_vertex_cell(workdir, capsys):
    # the benchmark's invalid file: full-height strands, one edge node given a
    # second link at a vertex cell that holds other nodes.  Its row keeps the
    # first listed link, so the rows hold one link fewer than the file and
    # validate checks the links one by one
    from fractions import Fraction

    from mapperbound import Assignment, GeometricGraph, cosheaf, fit_grid
    from mapperbound.grid import Cell
    from mapperbound.ingest import build

    g = GeometricGraph(d=1, vertices={
        f"s{k}{end}": (Fraction(sign * (35 - k), 10),) for k in range(3)
        for end, sign in (("a", -1), ("b", 1))}, edges=[(f"s{k}a", f"s{k}b") for k in range(3)])
    F = build(g, fit_grid([g], 1.0)).graph
    edge, vertex = Cell((1,)), Cell((0,))
    child = F.nodes_at[edge][0]
    parent = next(p for c, p in F._raw_links if c == child and F.cells[p] == vertex)
    other = next(j for j in F.nodes_at[vertex] if j != parent)
    obj = cosheaf.to_json_obj(F)
    obj["links"].append([F.ids[child], F.ids[other]])
    bad = write(workdir / "bad.json", json.dumps(obj, sort_keys=True) + "\n")
    ok = write(workdir / "ok.json", cosheaf.to_json(F))
    ids = {i: i for i in F.ids}
    a = write(workdir / "a.json", assignment_to_json(Assignment(n=0, phi=ids, psi=ids)))
    loaded = cosheaf.from_json_obj(obj)
    assert loaded.face_image(F.ids[child], vertex) == F.ids[parent]
    assert loaded.link_count() == F.link_count() + 1
    rc, stdout, err = run(capsys, ["bound", "--f", bad, "--g", ok, "--assignment", a])
    assert (rc, err) == (2, "")
    assert json.loads(stdout) == {"error": f"invalid cosheaf {bad}", "violations": [
        f"duplicate face image: node {F.ids[child]} has several links at {vertex!r}"]}
    assert run(capsys, ["bound", "--f", ok, "--g", ok, "--assignment", a])[0] == 0


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


@pytest.mark.parametrize("mode, extra, message", [
    ("exact", ["--cap", "0"], "F has 13 nodes, cap is 0"),
    ("exact", ["--cap", "-3"], "F has 13 nodes, cap is -3"),
    ("full-loss", ["--cap", "0"], "F has 13 nodes, cap is 0"),
    ("exact", ["--cap", "20", "--n-max", "-1"], "n_max must be a natural number"),
], ids=["exact-cap-0", "exact-cap-negative", "full-loss-cap-0", "exact-n-max-negative"])
def test_oracle_bad_limits_exit_2(mode, extra, message, bound_bundle, capsys):
    f, g, m = bound_bundle
    rc, stdout, err = run(capsys, ["oracle", "--mode", mode, "--f", f, "--g", g,
                                   "--assignment", m, *extra])
    assert (rc, stdout, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("cmd", [["bound"], ["check", "--k", "1"],
                                 ["oracle", "--mode", "full-loss", "--cap", "20"]],
                         ids=["bound", "check", "oracle-full-loss"])
def test_pointer_keys_that_are_not_nodes_exit_2(cmd, bound_bundle, workdir, capsys):
    # a pointer map may name only nodes of its source graph
    f, g, m = bound_bundle
    obj = json.loads(Path(m).read_text())
    obj["phi"]["no-such-node"] = next(iter(obj["psi"]))
    obj["psi"]["also-bogus"] = "x"
    bad = write(workdir / "bogus.json", json.dumps(obj))
    rc, stdout, err = run(capsys, [*cmd, "--f", f, "--g", g, "--assignment", bad])
    assert (rc, err) == (2, "")
    assert json.loads(stdout) == {"error": "invalid assignment", "violations": [
        "phi has unknown node no-such-node", "psi has unknown node also-bogus"]}


@pytest.mark.parametrize("argv, message", [
    (["--mode", "exact", "--f", "F"], "--g is required for exact"),
    (["--mode", "full-loss", "--f", "F", "--assignment", "A"], "--g is required for full-loss"),
    (["--mode", "full-loss", "--f", "F", "--g", "G"], "--assignment is required for full-loss"),
], ids=["exact-without-g", "full-loss-without-g", "full-loss-without-assignment"])
def test_oracle_missing_inputs_exit_2(argv, message, bound_bundle, capsys):
    files = dict(zip("FGA", bound_bundle))
    rc, stdout, err = run(capsys, ["oracle", *(files.get(x, x) for x in argv)])
    assert (rc, stdout, err) == (2, "", f"error: {message}\n")


def _identity_files(workdir, graph, grid, n):
    from mapperbound.assignment import Assignment
    from mapperbound.cosheaf import to_json
    from mapperbound.ingest import build_cosheaf

    F = build_cosheaf(graph, grid)
    ident = {i: i for i in F.ids}
    return (write(workdir / "F.json", to_json(F)),
            write(workdir / "a.json", assignment_to_json(Assignment(n, ident, dict(ident)))))


def test_oracle_full_loss_answers_a_level_far_past_the_grid(workdir, capsys):
    # 2000 thickening steps once went one recursive call each
    from fractions import Fraction

    from mapperbound import GeometricGraph, GridSpec

    g = GeometricGraph(d=1, vertices={"p": (Fraction(-1, 2),), "q": (Fraction(3, 2),)},
                       edges=[("p", "q")])
    f, m = _identity_files(workdir, g, GridSpec(1, 1.0, 2), 2000)
    rc, stdout, err = run(capsys, ["oracle", "--mode", "full-loss", "--f", f, "--g", f,
                                   "--assignment", m])
    assert (rc, err) == (0, "")
    assert json.loads(stdout)["oracle"] == {
        "mode": "full-loss", "L": 0, "consistent_extension": True, "opens": 88}
    assert run(capsys, ["bound", "--f", f, "--g", f, "--assignment", m])[::2] == (0, "")


def test_oracle_full_loss_reports_the_open_cap_on_a_large_grid(workdir, capsys):
    # a 3-D grid of 2,197 cells, more than the recursion limit
    from fractions import Fraction

    from mapperbound import GeometricGraph, GridSpec

    half = Fraction(1, 2)
    g = GeometricGraph(d=3, vertices={"p": (half, half, half)}, edges=[])
    f, m = _identity_files(workdir, g, GridSpec(3, 1.0, 3), 0)
    rc, stdout, err = run(capsys, ["oracle", "--mode", "full-loss", "--f", f, "--g", f,
                                   "--assignment", m, "--cap", "30"])
    assert (rc, stdout, err) == (2, "", "error: open-set enumeration exceeded the cap of 50000\n")


def test_oracle_pi0_reports_disagreements_and_exits_1(workdir, capsys, monkeypatch):
    # a geometry that always counts one component more disagrees with every sample
    from mapperbound import oracle

    real = oracle.geometric_pi0
    monkeypatch.setattr(oracle, "geometric_pi0",
                        lambda *args: (real(*args)[0] + 1, None))
    a = write(workdir / "a.json", graph_to_json(split_graph()))
    rc, stdout, _ = run(capsys, ["oracle", "--mode", "pi0", "--f", a, "--delta", "1.0"])
    rep = json.loads(stdout)["oracle"]
    assert rc == 1 and rep["agreements"] == 0
    assert len(rep["disagreements"]) == rep["samples"] > 0
    first = rep["disagreements"][0]
    assert sorted(first) == ["cell", "pi0", "radius", "slice"]
    assert first["pi0"] == first["slice"] + 1 and first["radius"] == 0


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


def _grid(key, value):
    return lambda obj: {**obj, "grid": {**obj["grid"], key: value}}


def _first(key, field, value):
    def edit(obj):
        obj[key][0][field] = value
        return obj
    return edit


def _without(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _grid_without(key):
    return lambda obj: {**obj, "grid": _without(key)(obj["grid"])}


def _first_without(key, field):
    def edit(obj):
        del obj[key][0][field]
        return obj
    return edit


# (file edited, edit, fragment the stderr message must hold); an edit that
# returns a str gives the file's text itself
MALFORMED = {
    "n-float": ("A", _edit("n", 1.7), "assignment n must be int, not float"),
    "n-string": ("A", _edit("n", "1"), "assignment n must be int, not str"),
    "n-bool": ("A", _edit("n", True), "assignment n must be int, not bool"),
    "assignment-list": ("A", lambda obj: [], "an assignment must be dict, not list"),
    "pointer-list": ("A", lambda obj: {**obj, "phi": {x: [y] for x, y in obj["phi"].items()}},
                     "must be str, not list"),
    "phi-list": ("A", _edit("phi", []), "phi must be dict, not list"),
    "grid-L-float": ("F", _grid("L", 2.0000001), "grid L must be int, not float"),
    "grid-d-float": ("F", _grid("d", 1.0), "grid d must be int, not float"),
    "grid-delta-null": ("F", _grid("delta", None), "grid delta must be a number, not NoneType"),
    "grid-delta-bool": ("F", _grid("delta", True), "grid delta must be a number, not bool"),
    "grid-delta-string": ("F", _grid("delta", "1.0"), "grid delta must be a number, not str"),
    "grid-delta-inf": ("F", _grid("delta", math.inf), "delta must be positive and finite"),
    "grid-list": ("F", _edit("grid", [1, 1.0, 2]), "a grid must be dict, not list"),
    "cell-deg-float": ("F", _first("nodes", "cell", [{"deg": 0.25}]),
                       "cell deg must be int, not float"),
    "cell-not-list": ("F", _first("nodes", "cell", 3), "a cell must be list, not int"),
    "cell-interval-bad": ("F", _first("nodes", "cell", [{"half": 0}]),
                          "bad cell interval {'half': 0}"),
    "cell-off-grid": ("F", _first("nodes", "cell", [{"deg": 99}]),
                      "cell Cell([99]) is not a cell of this grid"),
    "g-cell-off-grid": ("G", _first("nodes", "cell", [{"nondeg": -99}]),
                        "cell Cell((-99,-98)) is not a cell of this grid"),
    "g-link-unknown": ("G", _first("links", 1, "ghost"), "names unknown node"),
    "json-syntax": ("F", lambda obj: json.dumps(obj)[:-1], "Expecting"),
    "g-json-syntax": ("G", lambda obj: "", "Expecting value"),
    "assignment-json-syntax": ("A", lambda obj: "{'n': 0}", "Expecting property name"),
    "node-id-list": ("F", _first("nodes", "id", ["a"]), "a node id must be str, not list"),
    "node-not-dict": ("F", lambda obj: {**obj, "nodes": [["a"]]}, "a node must be dict, not list"),
    "link-end-list": ("F", _first("links", 1, ["a"]), "links must be pairs of str"),
    "node-id-repeated": ("F", lambda obj: {**obj, "nodes": [obj["nodes"][0], *obj["nodes"]]},
                         "duplicate node ids"),
    "cosheaf-list": ("F", lambda obj: [], "a cosheaf must be dict, not list"),
    # a missing key is named as an explicit null would be
    "n-missing": ("A", _without("n"), "assignment n must be int, not NoneType"),
    "phi-missing": ("A", _without("phi"), "phi must be dict, not NoneType"),
    "psi-missing": ("A", _without("psi"), "psi must be dict, not NoneType"),
    "grid-missing": ("F", _without("grid"), "a grid must be dict, not NoneType"),
    "grid-d-missing": ("F", _grid_without("d"), "grid d must be int, not NoneType"),
    "grid-delta-missing": ("F", _grid_without("delta"),
                           "grid delta must be a number, not NoneType"),
    "grid-L-missing": ("F", _grid_without("L"), "grid L must be int, not NoneType"),
    "nodes-missing": ("F", _without("nodes"), "cosheaf nodes must be list, not NoneType"),
    "node-id-missing": ("F", _first_without("nodes", "id"),
                        "a node id must be str, not NoneType"),
    "node-cell-missing": ("F", _first_without("nodes", "cell"),
                          "a cell must be list, not NoneType"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("command", [["bound"], ["check", "--k", "0"]], ids=["bound", "check"])
def test_malformed_bound_and_check_inputs_exit_2(name, command, bound_bundle, workdir, capsys):
    # refused by the readers with a message naming the file and what is wrong
    # in it: exit 2, no traceback, nothing on stdout
    which, edit, fragment = MALFORMED[name]
    files = dict(zip("FGA", bound_bundle))
    text = edit(json.loads(Path(files[which]).read_text()))
    files[which] = write(workdir / "bad.json", text if isinstance(text, str) else json.dumps(text))
    rc, stdout, err = run(capsys, [command[0], "--f", files["F"], "--g", files["G"],
                                   "--assignment", files["A"], *command[1:]])
    assert (rc, stdout) == (2, "")
    assert err.startswith(f"error: {files[which]}: ") and err.count("\n") == 1
    assert fragment in err


_VERTEX = '{"d": 1, "vertices": [{"id": "v", "f": [0.5]}], "edges": []}'
_DELTA = "delta must be positive and finite"


@pytest.mark.parametrize("text,grid,delta,fragment", [
    ("[1, 2]", None, "1.0", "a geometric graph must be dict, not list"),
    ('{"d": 1.0, "vertices": [], "edges": []}', None, "1.0", "graph d must be int, not Fraction"),
    ('{"d": "1", "vertices": [], "edges": []}', None, "1.0", "graph d must be int, not str"),
    (_VERTEX, '{"d": 1, "delta": 1.0, "L": 2.5}', "1.0", "grid L must be int, not float"),
    (_VERTEX, "[]", "1.0", "a grid must be dict, not list"),
    ('{"d": 1, "vertices": [{"id": ["v"], "f": [0.5]}], "edges": []}', None, "1.0",
     "a vertex id must be str, not list"),
    ('{"d": 1, "vertices": [{"id": "v", "f": [0.5]}, {"id": "w", "f": [1.5]}], '
     '"edges": [["v", ["w"]]]}', None, "1.0", "edges must be pairs of str"),
    ('{"d": 1, "vertices": [{"id": "v", "f": [true]}], "edges": []}', None, "1.0",
     "unsupported value type bool"),
    ('{"d": 1, "vertices": [{"id": "v", "f": [0.5]}, {"id": "v", "f": [3.5]}], "edges": []}',
     None, "1.0", "duplicate vertex id 'v'"),
    ('{"d": 1, "vertices": [{"id": "v", "f": 0.5}], "edges": []}', None, "1.0",
     "a vertex f must be list, not Fraction"),
    (_VERTEX, '{"d": 1, "delta": null, "L": 2}', "1.0", "grid delta must be a number, not NoneType"),
    (_VERTEX, '{"d": 1, "delta": true, "L": 2}', "1.0", "grid delta must be a number, not bool"),
    (_VERTEX, '{"d": 1, "delta": "1.0", "L": 2}', "1.0", "grid delta must be a number, not str"),
    (_VERTEX, '{"d": 1, "delta": 1e400, "L": 2}', "1.0", _DELTA),
    (_VERTEX, None, "inf", _DELTA),
    (_VERTEX, None, "nan", _DELTA),
    (_VERTEX, None, "-1", _DELTA),
    (_VERTEX, '{"d": 1, "delta": 1.0, "L": 2}', "0.25",
     "--delta 0.25 differs from the grid file's delta 1.0"),
    (_VERTEX, '{"d": 1, "delta": 1.0, "L": 2}', "inf", _DELTA),
    ('{"vertices": [], "edges": []}', None, "1.0", "graph d must be int, not NoneType"),
    ('{"d": 1, "edges": []}', None, "1.0", "graph vertices must be list, not NoneType"),
    ('{"d": 1, "vertices": [{"f": [0.5]}], "edges": []}', None, "1.0",
     "a vertex id must be str, not NoneType"),
    ('{"d": 1, "vertices": [{"id": "v"}], "edges": []}', None, "1.0",
     "a vertex f must be list, not NoneType"),
    ('{"d": 1, "vertices": [{"id": "v", "f": [0.5]}]}', None, "1.0",
     "edges must be list, not NoneType"),
    (_VERTEX, '{"d": 1, "L": 2}', "1.0", "grid delta must be a number, not NoneType"),
    ('{"d": 1, "vertices": [{"id": "v", "f": [NaN]}], "edges": []}', None, "1.0",
     "vertex 'v' has value nan, which is not finite"),
    ('{"d": 2, "vertices": [{"id": "w", "f": [0.5, Infinity]}], "edges": []}', None, "1.0",
     "vertex 'w' has value inf, which is not finite"),
    ('{"d": 0, "vertices": [{"id": "v", "f": []}], "edges": []}', None, "1.0",
     "graph d must be at least 1, not 0"),
    ('{"d": -1, "vertices": [{"id": "a", "f": [0.5]}], "edges": []}', None, "1.0",
     "graph d must be at least 1, not -1"),
    ('{"d": 2, "vertices": [{"id": "v", "f": [0.5]}], "edges": []}', None, "1.0",
     "vertex 'v' has 1 coordinates, expected 2"),
    ('{"d": 1, "vertices": [{"id": "v", "f": [0.5]}], "edges": [["v", "w"]]}', None, "1.0",
     "edge ('v', 'w') names unknown vertex"),
], ids=["list", "d-float", "d-string", "grid-L-float", "grid-list", "vertex-id-list",
        "edge-end-list", "value-bool", "vertex-id-repeated", "value-not-list", "grid-delta-null", "grid-delta-bool",
        "grid-delta-string", "grid-delta-huge", "delta-inf", "delta-nan", "delta-negative",
        "delta-differs-from-grid", "delta-inf-with-grid", "d-missing", "vertices-missing",
        "vertex-id-missing", "f-missing", "edges-missing", "grid-delta-missing", "value-nan",
        "value-infinity", "d-zero", "d-negative", "vertex-coordinates", "edge-unknown-vertex"])
def test_malformed_ingest_inputs_exit_2(text, grid, delta, fragment, workdir, capsys):
    # without a grid file, `oracle --mode pi0` reads the graph and fits its
    # grid to --delta as `ingest` does, and must refuse the same inputs
    src = write(workdir / "in.json", text)
    runs = [["ingest", "--input", src, "--delta", delta, "--output", str(workdir / "out.json")]]
    if grid is not None:
        runs[0] += ["--grid", write(workdir / "grid.json", grid)]
    else:
        runs.append(["oracle", "--mode", "pi0", "--f", src, "--delta", delta])
    for argv in runs:
        rc, stdout, err = run(capsys, argv)
        assert (rc, stdout) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err
    assert not (workdir / "out.json").exists()


def test_ingest_and_pi0_refusals_name_the_file(workdir, capsys):
    bad = write(workdir / "in.json", '{"d": 1, "vertices": [{"id": "v", "f": [0.5]}]')
    good = write(workdir / "ok.json", _VERTEX)
    grid = write(workdir / "grid.json", '{"d": 1, "delta": 1.0, "L": 2.5}')
    out = str(workdir / "out.json")
    for argv, path in (
            (["ingest", "--input", bad, "--delta", "1.0", "--output", out], bad),
            (["ingest", "--input", good, "--delta", "1.0", "--grid", grid, "--output", out], grid),
            (["oracle", "--mode", "pi0", "--f", good, "--g", bad], bad)):
        rc, stdout, err = run(capsys, argv)
        assert (rc, stdout) == (2, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_json_nested_too_deep_to_parse_is_refused_naming_the_file(bound_bundle, workdir,
                                                                  capsys):
    f, g, m = bound_bundle
    deep = write(workdir / "deep.json", "[" * 100_000 + "]")
    good = write(workdir / "ok.json", _VERTEX)
    out = str(workdir / "out.json")
    for argv in (["bound", "--f", deep, "--g", g, "--assignment", m],
                 ["check", "--f", f, "--g", deep, "--assignment", m, "--k", "0"],
                 ["bound", "--f", f, "--g", g, "--assignment", deep],
                 ["ingest", "--input", deep, "--delta", "1.0", "--output", out],
                 ["ingest", "--input", good, "--delta", "1.0", "--grid", deep, "--output", out]):
        rc, stdout, err = run(capsys, argv)
        assert (rc, stdout) == (2, ""), argv
        assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1, argv
    assert not (workdir / "out.json").exists()


# -- the cyclic collector -------------------------------------------------------------


def _set_collector(on: bool) -> None:
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_pauses_the_collector_and_restores_it(collecting, bound_bundle, workdir, capsys,
                                                   monkeypatch):
    # main runs its command with the collector off and leaves it as the
    # caller had it, however the command ends
    f, g, m = bound_bundle
    common = ["--f", f, "--g", g, "--assignment", m]
    broken = write(workdir / "broken.json", json.dumps({"n": 1, "phi": {}, "psi": {}}))
    runs = [
        (0, ["check", *common, "--k", "1"]),
        (1, ["check", *common, "--k", "0"]),
        (2, ["bound", "--f", f, "--g", g, "--assignment", broken]),  # invalid input
        (2, ["ingest", "--input", write(workdir / "in.json", _VERTEX), "--delta", "-1",
             "--output", str(workdir / "out.json")]),  # ValueError
    ]
    seen = []

    def boom(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    parser = cli.build_parser()
    parse = parser.parse_args

    def parse_to_boom(argv=None):
        args = parse(argv)
        args.func = boom
        return args

    was = gc.isenabled()
    try:
        for want, argv in runs:
            _set_collector(collecting)
            assert run(capsys, argv)[0] == want, argv
            assert gc.isenabled() is collecting, argv
        # an exception that escapes the command
        monkeypatch.setattr(parser, "parse_args", parse_to_boom)
        _set_collector(collecting)
        with pytest.raises(RuntimeError, match="boom"):
            main(["export-dot", "--f", f])
        assert gc.isenabled() is collecting
        assert seen == [False]
    finally:
        _set_collector(was)
