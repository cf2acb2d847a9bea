"""Cosheaf graph structure, validation, slices, and the slice metric."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

from mapperbound import (
    Assignment,
    CosheafGraph,
    GeometricGraph,
    GridSpec,
    diameter,
    distance,
    edge_cell,
    fit_grid,
    loss_report,
    validate,
    vertex_cell,
)
from mapperbound import cosheaf
from mapperbound.assignment import AssignmentError
from mapperbound.cosheaf import CosheafError, from_json, from_json_obj, to_dot, to_json
from mapperbound.grid import (
    Cell,
    basic_open,
    cell,
    cell_sort_key,
    cell_to_wire,
    faces,
    is_face,
    thicken,
)
from mapperbound.ingest import build
from mapperbound.oracle import _CellIndex, _components

import sweep_reference
from conftest import random_geometric
from cosheaf_reference import reference_graph, state

V = vertex_cell
E = edge_cell


def tiny_path_cosheaf() -> CosheafGraph:
    grid = GridSpec(1, 1.0, 2)
    nodes = [("p0", V(0)), ("p1", V(1)), ("e0", E(0))]
    return CosheafGraph(grid, nodes, [("e0", "p0"), ("e0", "p1")])


# -- validation -------------------------------------------------------------------


def test_validate_clean_instance(listing):
    assert validate(listing.graph) == []


def test_validate_wrong_direction():
    grid = GridSpec(1, 1.0, 2)
    F = CosheafGraph(grid, [("p0", V(0)), ("e0", E(0))], [("p0", "e0")])
    msgs = validate(F)
    assert len(msgs) == 1 and "wrong direction" in msgs[0]


def test_validate_missing_face_image():
    grid = GridSpec(1, 1.0, 2)
    F = CosheafGraph(grid, [("p0", V(0)), ("e0", E(0))], [])
    msgs = validate(F)
    assert any("missing face image" in m and "e0" in m for m in msgs)
    # an image is due at every codimension-1 face, occupied or not
    e = CosheafGraph(GridSpec(1, 1.0, 1), [("e", E(0))], [])
    assert validate(e) == ["missing face image: node e has no image at face Cell([0])",
                           "missing face image: node e has no image at face Cell([1])"]


def test_validate_duplicate_link():
    grid = GridSpec(1, 1.0, 2)
    F = CosheafGraph(
        grid, [("p0", V(0)), ("q0", V(0)), ("p1", V(1)), ("e0", E(0))],
        [("e0", "p0"), ("e0", "q0"), ("e0", "p1")],
    )
    assert any("duplicate face image" in m for m in validate(F))


def test_validate_incompatible_square_routes():
    # two routes from a square element disagree at the shared corner
    grid = GridSpec(2, 1.0, 1)
    sq = cell(("nondeg", 0), ("nondeg", 0))
    ex = cell(("nondeg", 0), ("deg", 0))   # bottom edge
    ey = cell(("deg", 0), ("nondeg", 0))   # left edge
    corner = V(0, 0)
    nodes = [("s", sq), ("bx", ex), ("by", ey), ("c1", corner), ("c2", corner)]
    links = [("s", "bx"), ("s", "by"), ("bx", "c1"), ("by", "c2")]
    F = CosheafGraph(grid, nodes, links)
    assert any("incompatible face images" in m for m in validate(F))
    # the whole square: four edges, each linked to its two corners
    tx, ry = cell(("nondeg", 0), ("deg", 1)), cell(("deg", 1), ("nondeg", 0))
    corners = {"c1": corner, "c2": V(1, 0), "c3": V(0, 1), "c4": V(1, 1)}
    good = CosheafGraph(
        grid, [*nodes[:4], ("tx", tx), ("ry", ry), *list(corners.items())[1:]],
        [("s", "bx"), ("s", "by"), ("s", "tx"), ("s", "ry"), ("bx", "c1"), ("bx", "c2"),
         ("by", "c1"), ("by", "c3"), ("tx", "c3"), ("tx", "c4"), ("ry", "c2"), ("ry", "c4")],
    )
    assert validate(good) == []
    assert good.face_image("s", corner) == "c1"
    assert [good.face_image("s", c) for c in corners.values()] == list(corners)


def test_face_images_follow_the_first_listed_link():
    # three elements over one edge: e0 lists q0 before p0 at V(0), g0 has no link there
    grid = GridSpec(1, 1.0, 2)
    nodes = [("p0", V(0)), ("q0", V(0)), ("p1", V(1)), ("e0", E(0)), ("f0", E(0)), ("g0", E(0))]
    links = [("g0", "p1"), ("f0", "q0"), ("e0", "q0"), ("e0", "p0"), ("f0", "p1"), ("e0", "p1")]
    F = CosheafGraph(grid, nodes, links)

    def names(idx):
        return [None if j is None else F.ids[j] for j in idx]

    assert names(F._face_images(E(0), V(0))) == ["q0", "q0", None]
    assert names(F._face_images(E(0), V(1))) == ["p1", "p1", "p1"]
    assert F.face_image("e0", V(0)) == "q0"
    with pytest.raises(CosheafError):
        F.face_image("g0", V(0))
    a = Assignment(n=0, phi={i: i for i in F.ids}, psi={i: i for i in F.ids})
    with pytest.raises(AssignmentError, match="missing the face image of 'g0'"):
        loss_report(F, F, a, 0)


def test_unknown_node_ids_are_refused_by_name():
    F = tiny_path_cosheaf()
    for call in (lambda: F.cell_of("nope"), lambda: F.face_image("nope", V(0))):
        with pytest.raises(CosheafError, match="unknown node 'nope'"):
            call()


def test_validate_reads_every_face_image_through_the_one_descent(monkeypatch):
    # validate asks _descend, the descent _face_images keeps the first image
    # of, for every facet and every occupied deeper face of every cell
    rng = random.Random(59)
    g = random_geometric(rng, "r", 5, d=2, denom=2, spread=6, extra_edges=1)
    F = build(g, fit_grid([g], 1.0)).graph
    asked, descend = set(), CosheafGraph._descend

    def spy(self, c, f):
        asked.add((c, f))
        return descend(self, c, f)

    monkeypatch.setattr(CosheafGraph, "_descend", spy)
    assert validate(F) == []
    want = {(c, f) for c in F.nodes_at for f in faces(c)
            if f.dim == c.dim - 1 or f in F.nodes_at}
    assert asked == want
    assert any(c.dim - f.dim == 2 for c, f in want)


def test_unknown_link_target_rejected():
    grid = GridSpec(1, 1.0, 2)
    with pytest.raises(CosheafError):
        CosheafGraph(grid, [("p0", V(0))], [("p0", "ghost")])


def test_duplicate_node_ids_are_named():
    # the first repeated id in canonical node order (cells by cell_sort_key,
    # vertices before edges in 1-D), with the number of its copies
    grid = GridSpec(1, 1.0, 2)
    nodes = [("a", E(0)), ("z", V(1)), ("a", E(1)), ("z", V(0)), ("a", V(2))]
    with pytest.raises(CosheafError, match="^duplicate node ids: 'z' occurs 2 times$"):
        CosheafGraph(grid, nodes, [])
    with pytest.raises(CosheafError, match="^duplicate node ids: 'a' occurs 3 times$"):
        CosheafGraph(grid, [n for n in nodes if n != ("z", V(0))], [])


def _wire(grid, nodes, links) -> dict:
    return {"grid": grid.to_wire(),
            "nodes": [{"id": nid, "cell": cell_to_wire(c)} for nid, c in nodes],
            "links": [list(x) for x in links]}


def _refusal(make):
    with pytest.raises(CosheafError) as info:
        make()
    return str(info.value)


def test_refusals_come_in_one_order():
    # a repeated id first, then a cell off the grid, then a link to an unknown
    # node, whichever way the graph is built; the reference agrees
    grid = GridSpec(1, 1.0, 1)
    nodes = [("e", E(0)), ("far", V(5)), ("p", V(0)), ("e", E(-1)), ("q", V(1))]
    links = [("e", "p"), ("e", "ghost"), ("e", "q"), ("spook", "q")]
    want = ["duplicate node ids: 'e' occurs 2 times",
            "cell Cell([5]) is not a cell of this grid",
            "link ('e', 'ghost') names unknown node"]
    fixes = [lambda ns, ls: (ns[:3] + ns[4:], ls),
             lambda ns, ls: ([n for n in ns if n[0] != "far"], ls),
             lambda ns, ls: (ns, ls[:1] + ls[2:3])]
    for step, message in enumerate(want):
        for make in (CosheafGraph, reference_graph,
                     lambda g, ns, ls: from_json_obj(_wire(g, ns, ls))):
            assert _refusal(lambda: make(grid, nodes, links)) == message, (step, make)
        nodes, links = fixes[step](nodes, links)
    assert state(CosheafGraph(grid, nodes, links)) == state(reference_graph(grid, nodes, links))


def test_wire_refusals_come_in_file_order():
    grid = GridSpec(1, 1.0, 2)
    nodes = [(f"n{k}", V(k % 3)) for k in range(12)]
    for first, second, message in ((5, 10, "a node id must be str, not int"),
                                   (10, 5, "a cell must be list, not int")):
        obj = _wire(grid, nodes, [])
        obj["nodes"][first]["id"] = 7
        obj["nodes"][second]["cell"] = 3
        # a repeated id and an off-grid cell elsewhere wait for the wire checks
        obj["nodes"][11] = {"id": "n0", "cell": cell_to_wire(V(9))}
        assert _refusal(lambda: from_json_obj(obj)) == message
    # a malformed cell is refused as the file's fault, with the reader's text
    obj = _wire(grid, nodes, [])
    obj["nodes"][3]["cell"] = [{"half": 0}]
    assert _refusal(lambda: from_json_obj(obj)) == "bad cell interval {'half': 0}"
    obj["nodes"][3]["cell"] = [{"deg": 0.5}]
    assert _refusal(lambda: from_json_obj(obj)) == "cell deg must be int, not float"


def _ingest_links(F: CosheafGraph) -> list[tuple[str, str]]:
    """F's links as ingest.build lists them: cell by cell, each codimension-1
    face below then above the cell axis by axis, the nodes "c#k" of the cell
    by k; each (node, face cell) has one link."""
    parent = {(ci, F.cells[pi]): pi for ci, pi in F._raw_links}
    out = []
    for c, block in F.nodes_at.items():
        by_k = sorted(block, key=lambda i: int(F.ids[i].rsplit("#", 1)[1]))
        co = c.coords
        for a, m in enumerate(co):
            if m % 2:
                for e in (m - 1, m + 1):
                    f = Cell(co[:a] + (e,) + co[a + 1:])
                    out += [(F.ids[i], F.ids[parent[i, f]]) for i in by_k]
    return out


def test_block_build_matches_the_per_node_reference():
    rng = random.Random(59)
    split_runs = repeated = 0
    for trial in range(60):
        d = 1 + trial % 3
        g = random_geometric(rng, "b", rng.randint(2, (9, 6, 4)[d - 1]), d=d,
                             denom=rng.choice([2, 10]), spread=rng.choice([6, 17][:4 - d]),
                             extra_edges=rng.randint(0, 2))
        if trial % 10 == 0:
            # a dozen disjoint strands: a cell holds "c#10" and "c#11", which
            # sort before "c#2"
            g = GeometricGraph(d=1, vertices={
                f"s{k}{end}": (Fraction(rng.randint(-19, 19), 10),) for k in range(12)
                for end in "ab"}, edges=[(f"s{k}a", f"s{k}b") for k in range(12)])
        grid = fit_grid([g], rng.choice([1.0, 0.5]))
        F = build(g, grid).graph
        # ingest hands its blocks and index pairs over directly
        nodes = list(zip(F.ids, F.cells))
        listed = _ingest_links(F)
        assert len(listed) == F.link_count(), trial
        want = reference_graph(grid, nodes, listed)
        assert state(F) == state(want), trial
        assert to_json(F) == to_json(want), trial
        # shuffled nodes (so one cell's nodes come in several runs), shuffled
        # links, repeated (node, face cell) pairs and links that go anywhere
        links = list(listed)
        for _ in range(rng.randint(0, 4)):
            ci, pi = rng.choice(F._raw_links)
            links.append((F.ids[ci], rng.choice(F.elements_of(F.cells[pi]))))
        for _ in range(rng.randint(0, 2)):
            links.append((rng.choice(F.ids), rng.choice(F.ids)))
        rng.shuffle(nodes)
        rng.shuffle(links)
        runs = sum(k == 0 or nodes[k][1] != nodes[k - 1][1] for k in range(len(nodes)))
        split_runs += runs > len(F.nodes_at)
        want = reference_graph(grid, nodes, links)
        problems = validate(want)
        repeated += any("duplicate face image" in m for m in problems)
        for got in (CosheafGraph(grid, nodes, links),
                    from_json_obj(_wire(grid, nodes, links))):
            assert state(got) == state(want), trial
            assert validate(got) == problems, trial
            assert to_json(got) == to_json(want), trial
    assert split_runs > 40 and repeated > 20, (split_runs, repeated)


# -- slices and components ---------------------------------------------------------


def test_slice_radius_zero_components(fork):
    sl = fork.graph.slice(V(0), 0)
    assert sl.component_count == 2
    a = fork.node_of_vertex(V(0), "x1")
    b = fork.node_of_vertex(V(0), "x2")
    assert sl.component_of(a) != sl.component_of(b)


def test_slice_saturated_is_connected(fork):
    sat = fork.graph.saturation(V(0))
    assert fork.graph.slice(V(0), sat).component_count == 1


def test_slice_membership_errors(fork):
    sl = fork.graph.slice(V(5), 0)
    far = fork.node_of_vertex(V(0), "x1")
    assert far not in sl.members()
    with pytest.raises(CosheafError):
        sl.component_of(far)


def test_slice_not_induced_subgraph(chase):
    # the narrow slice splits the two strands even though the joining
    # elements sit only one cell above its edge range
    _, G, _ = chase
    sl = G.slice(V(0), 2)
    assert sl.component_count == 2
    assert sl.component_of("w") == sl.component_of("x")
    assert sl.component_of("w") != sl.component_of("uv")
    assert G.slice(V(0), 3).component_count == 1


def test_component_ids_in_singleton_slice():
    F = tiny_path_cosheaf()
    sl = F.slice(V(1), 0)
    assert sl.component_count == 1
    assert sl.component_of("p1") == 0


def test_monotone_merging(fork):
    F = fork.graph
    rng = random.Random(2)
    cells = F.occupied_cells()
    for _ in range(40):
        c = rng.choice(cells)
        m = rng.randint(0, 3)
        lo, hi = F.slice(c, m), F.slice(c, m + 1)
        seen: dict[tuple[int, int], int] = {}
        for nid in lo.members():
            key = (lo.component_of(nid), 0)
            pair = seen.setdefault(key, hi.component_of(nid))
            assert pair == hi.component_of(nid)  # coarsening, never splitting


def test_merge_radii_and_slice_match_the_scan_sweep(monkeypatch):
    # seeded random graphs in d = 1, 2 and 3 against the sweep that scans every
    # occupied cell: dense ones on small grids and sparse ones on larger grids,
    # half of them two disjoint paths so that some pairs never merge.  Spies on
    # the two ways of reading a ring show that sweeps ran on the box shell
    # alone and that sweeps switched to the scan.
    calls = {"shell": 0, "scan": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(cosheaf, "shell_cells", spy("shell", cosheaf.shell_cells))
    monkeypatch.setattr(cosheaf, "star_ring", spy("scan", cosheaf.star_ring))
    rng = random.Random(113)
    sweeps = {"shell only": 0, "switched": 0}
    infinite = 0
    for d, nv, denom, spread in ((1, 8, 4, 10), (1, 4, 1, 12), (2, 6, 2, 6), (2, 3, 1, 8),
                                 (3, 3, 2, 4), (3, 2, 1, 5)):
        for two in (False, True):
            paths = [random_geometric(rng, tag, nv, d=d, denom=denom, spread=spread,
                                      extra_edges=1) for tag in "ab"[:1 + two]]
            g = GeometricGraph(d=d, vertices={k: v for p in paths for k, v in p.vertices.items()},
                               edges=[e for p in paths for e in p.edges])
            F = build(g, fit_grid([g], 1.0)).graph
            occupied = list(F.nodes_at)
            centers = rng.sample(occupied, min(6, len(occupied)))
            centers += [Cell(tuple(rng.randint(-2 * F.grid.L, 2 * F.grid.L) for _ in range(d)))
                        for _ in range(3)]
            for c in centers:
                # random pairs merge late; a node and its neighbours merge early
                us = [rng.randrange(len(F.ids)) for _ in range(12)]
                vs = [rng.randrange(len(F.ids)) for _ in range(12)]
                near = rng.randrange(len(F.ids))
                for pairs in ((us, vs), ([near] * len(F.adj[near]), list(F.adj[near]))):
                    before = dict(calls)
                    got = F.merge_radii(c, *pairs)
                    assert got == sweep_reference.merge_radii(F, c, *pairs), (d, c)
                    infinite += got.count(math.inf)
                    if calls["scan"] > before["scan"]:
                        sweeps["switched"] += 1
                    elif calls["shell"] > before["shell"]:
                        sweeps["shell only"] += 1
                for r in range(F.saturation(c) + 2):
                    got, want = F.slice(c, r), sweep_reference.slice_labeling(F, c, r)
                    assert (got.component_count, list(got._lab.items())) == \
                        (want.component_count, list(want._lab.items())), (d, c, r)
    assert sweeps["shell only"] >= 20 and sweeps["switched"] >= 20 and infinite >= 10, \
        (sweeps, infinite)


# -- slices of basic opens and their thickenings --------------------------------------


def test_set_at_on_basic_open_bijects_with_elements(fork):
    F = fork.graph
    for c in F.occupied_cells():
        assert F.slice(c, 0).component_count == len(F.elements_of(c))


def test_set_at_agrees_with_slice(fork):
    # oracle._components labels the cell set on its own, from the raw links
    F = fork.graph
    grid = F.grid
    ix = _CellIndex(grid)
    bits = [ix.bit[c] for c in F.cells]
    for c, r in [(V(0), 1), (V(5), 2), (E(1), 1)]:
        roots = _components(F, bits, ix.mask(thicken(grid, basic_open(grid, c), r)))
        assert F.slice(c, r).component_count == len(set(roots) - {-1})


# -- the slice metric ----------------------------------------------------------------


def test_distance_worked_values(fork):
    F = fork.graph
    a = fork.node_of_vertex(V(0), "x1")
    b = fork.node_of_vertex(V(0), "x2")
    w = fork.node_of_vertex(V(5), "y1")
    z = fork.node_of_vertex(V(5), "y2")
    assert distance(F, V(0), 0, a, b) == 1
    assert distance(F, V(5), 0, w, z) == 2


def test_distance_metric_axioms(fork):
    F = fork.graph
    rng = random.Random(9)
    cells = F.occupied_cells()
    for _ in range(60):
        c = rng.choice(cells)
        m = rng.randint(0, 2)
        members = F.slice(c, m).members()
        if len(members) < 2:
            continue
        x, y, z = (rng.choice(members) for _ in range(3))
        dxy = distance(F, c, m, x, y)
        assert dxy == distance(F, c, m, y, x)
        assert (dxy == 0) == (
            F.slice(c, m).component_of(x) == F.slice(c, m).component_of(y))
        dxz = distance(F, c, m, x, z)
        dyz = distance(F, c, m, y, z)
        assert dxz <= max(dxy, dyz)  # ultrametric


def test_distance_contraction_exact(fork):
    F = fork.graph
    rng = random.Random(4)
    cells = F.occupied_cells()
    for _ in range(80):
        c = rng.choice(cells)
        m, k = rng.randint(0, 2), rng.randint(0, 3)
        members = F.slice(c, m).members()
        if len(members) < 2:
            continue
        x, y = rng.sample(members, 2)
        base = distance(F, c, m, x, y)
        moved = distance(F, c, m + k, x, y)
        want = max(0, base - k) if not math.isinf(base) else math.inf
        assert moved == want


def test_slice_and_distance_refuse_bad_queries(fork):
    F = fork.graph
    with pytest.raises(ValueError, match="^radius must be a natural number$"):
        F.slice(V(0), -1)
    a = fork.node_of_vertex(V(0), "x1")
    w = fork.node_of_vertex(V(5), "y1")  # outside the 0-slice at V(0)
    for x, y in ((a, w), (a, "ghost"), ("ghost", a)):
        with pytest.raises(CosheafError, match="are not both members of this slice$"):
            distance(F, V(0), 0, x, y)


def test_distance_infinite(split):
    bF, _ = split
    a = bF.node_of_vertex(V(0), "a1")
    b = bF.node_of_vertex(V(0), "b1")
    assert math.isinf(distance(bF.graph, V(0), 0, a, b))


def test_diameter(fork, split):
    F = fork.graph
    assert diameter(F, V(0), 0) == 1
    assert diameter(F, V(5), 0) == 2
    assert diameter(tiny_path_cosheaf(), V(1), 0) == 0  # singleton
    assert diameter(tiny_path_cosheaf(), V(-2), 0) == 0  # empty
    assert math.isinf(diameter(split[0].graph, V(0), 0))


# -- ladder distances from the bound fixture ------------------------------------------


def test_two_strand_ladder(hook_lam):
    bF, bG = hook_lam
    G = bG.graph
    w = bG.node_of_vertex(V(0), "t1")
    z = bG.node_of_vertex(V(0), "t2")
    assert [distance(G, V(0), m, w, z) for m in (0, 1, 2)] == [3, 2, 1]
    F = bF.graph
    a = bF.node_of_vertex(V(0), "xm")
    b2 = bF.node_on_edge(V(2), ("xj", "xb"), 0.5)
    sl2 = F.slice(V(0), 2)
    assert sl2.component_of(a) != sl2.component_of(b2)
    assert distance(F, V(0), 2, a, b2) == 1


# -- serialization ---------------------------------------------------------------------


def test_json_round_trip(listing):
    F = listing.graph
    text = to_json(F)
    back = from_json(text)
    assert to_json(back) == text
    assert back.node_count() == F.node_count()
    assert back.link_count() == F.link_count()
    # node order in the file does not matter
    obj = json.loads(text)
    obj["nodes"].reverse()
    assert to_json(from_json(json.dumps(obj))) == text


def test_to_json_writes_what_json_dumps_writes():
    # the block writer's text is json.dumps of the wire object, byte for byte
    def dumped(F):
        return json.dumps(cosheaf.to_json_obj(F), sort_keys=True) + "\n"

    rng = random.Random(43)
    for trial in range(24):
        d = 1 + trial % 3
        g = random_geometric(rng, "r", rng.randint(2, 6 if d < 3 else 4), d=d,
                             extra_edges=rng.randint(0, 2))
        F = build(g, fit_grid([g], rng.choice([1.0, 0.5]))).graph
        assert to_json(F) == dumped(F), trial
    grid = GridSpec(2, 0.5, 2)
    # ids that need escaping, and ids whose escaped order differs from their
    # own: '!' and ' ' sort before the closing quote, and an escaped non-ASCII
    # character starts with a backslash, which sorts before '~'
    odd = ['a"', "a\\", "a\n", "\u00e9", "\u2028", "x", "x!", "x y", "~", "\x7f", "z\u00e9",
           "z", "z~"]
    vertices = [(f"v{k % 2}{nid}", Cell((2 * (k % 2), 0))) for k, nid in enumerate(odd)]
    edges = [(nid, Cell((1, 0))) for nid in odd]
    links = [(e, rng.choice(vertices)[0]) for e, _ in edges for _ in range(2)]
    for nodes, ls in (([], []), (vertices, []), (vertices + edges, links)):
        rng.shuffle(nodes)
        F = CosheafGraph(grid, nodes, ls)
        assert to_json(F) == dumped(F), (len(nodes), len(ls))


def test_dot_export_stable(listing):
    F = listing.graph
    dot = to_dot(F)
    assert dot == to_dot(F)
    assert dot.count(" -- ") == F.link_count()
    assert dot.count("label=") == F.node_count()


def _dot_strings(text: str) -> list[str]:
    """The quoted strings of DOT text, read by DOT's rule: a backslash before
    a quote makes it part of the string, any other backslash is itself."""
    out, cur, i = [], None, 0
    while i < len(text):
        if cur is None:
            cur = [] if text[i] == '"' else None
        elif text.startswith('\\"', i):
            cur.append('"')
            i += 1
        elif text[i] == '"':
            out.append("".join(cur))
            cur = None
        else:
            cur.append(text[i])
        i += 1
    return out


def test_dot_export_escapes_quotes():
    ids = ['a"b', '"', 'x\\"y', 'q""']
    F = CosheafGraph(GridSpec(1, 1.0, 2), [(ids[0], V(0)), (ids[1], V(1)), (ids[2], E(0)),
                                           (ids[3], E(1))],
                     [(ids[2], ids[0]), (ids[2], ids[1]), (ids[3], ids[1])])
    want = [s for nid, c in zip(F.ids, F.cells)
            for s in (nid, f"{nid}@{cosheaf._cell_token(c)}")]
    want += [F.ids[k] for link in F._raw_links for k in link]
    assert _dot_strings(to_dot(F)) == want
    # ids without a quote are written as they are
    assert to_dot(tiny_path_cosheaf()) == (
        'graph cosheaf {\n  "p0" [label="p0@0"];\n  "p1" [label="p1@1"];\n'
        '  "e0" [label="e0@0+"];\n  "e0" -- "p0";\n  "e0" -- "p1";\n}\n')


def test_elements_by_dim(listing):
    assert listing.graph.elements_by_dim() == {0: 14, 1: 14}


# -- randomized structural checks -------------------------------------------------------


def test_random_ingested_cosheaves_validate():
    rng = random.Random(31)
    for trial in range(20):
        d = rng.choice([1, 1, 2])
        g = random_geometric(rng, "r", rng.randint(2, 6), d=d,
                             extra_edges=rng.randint(0, 2))
        grid = fit_grid([g], 1.0)
        F = build(g, grid).graph
        assert validate(F) == [], (trial, d)


def test_construction_invariant_under_input_permutation(listing):
    import mapperbound.cosheaf as cos

    F = listing.graph
    rng = random.Random(37)
    nodes = list(zip(F.ids, F.cells))
    links = [(F.ids[a], F.ids[b]) for a, b in F._raw_links]
    for _ in range(3):
        rng.shuffle(nodes)
        rng.shuffle(links)
        again = CosheafGraph(F.grid, nodes, links)
        assert cos.to_json(again) == cos.to_json(F)
        assert again.ids == F.ids
        sl1 = F.slice(F.occupied_cells()[3], 2)
        sl2 = again.slice(F.occupied_cells()[3], 2)
        assert [sl1.component_of(n) for n in sl1.members()] == [
            sl2.component_of(n) for n in sl2.members()]


def test_connected_input_gives_connected_cosheaf():
    rng = random.Random(13)
    for _ in range(10):
        g = random_geometric(rng, "c", rng.randint(2, 6))
        grid = fit_grid([g], 1.0)
        F = build(g, grid).graph
        c = F.occupied_cells()[0]
        assert F.slice(c, F.saturation(c)).component_count == 1


def _descend(up: dict, cells: list, i: int, f) -> int | None:
    """Node i's image at f, a face of its cell, one link at a time: follow the
    link to each codimension-1 face over f, in axis order, and return the first
    image found.  `up` maps (child, parent cell) to the parent."""
    c = cells[i]
    if c == f:
        return i
    for a, (m, e) in enumerate(zip(c.coords, f.coords)):
        j = up.get((i, Cell(c.coords[:a] + (e,) + c.coords[a + 1:]))) if m != e else None
        hit = None if j is None else _descend(up, cells, j, f)
        if hit is not None:
            return hit
    return None


def _links_up(F: CosheafGraph) -> dict:
    return {(ci, F.cells[pi]): pi for ci, pi in F._raw_links}


def _per_node_validate(F: CosheafGraph) -> list[str]:
    """The reference formulation of validate: one verdict per link, then
    every codimension-1 face and every occupied deeper face of every node,
    one descent per codimension-1 link."""
    out: list[str] = []
    seen = set()
    for ci, pi in F._raw_links:
        child, parent = F.ids[ci], F.ids[pi]
        cc, pc = F.cells[ci], F.cells[pi]
        if not (is_face(pc, cc) and pc != cc):
            out.append(f"wrong direction: link ({child}, {parent}) does not go to a proper face")
            continue
        if pc.dim != cc.dim - 1:
            out.append(f"link skips dimensions: ({child}, {parent}) is not codimension-1")
            continue
        if (ci, pc) in seen:
            out.append(f"duplicate face image: node {child} has several links at {pc!r}")
        seen.add((ci, pc))
    if out:
        return out
    up = _links_up(F)
    for i, c in enumerate(F.cells):
        for f in sorted(faces(c), key=cell_sort_key):
            if f.dim < c.dim - 1 and not F.nodes_at.get(f):
                continue
            images = set()
            for mid in faces(c):
                j = up.get((i, mid))
                if j is not None and is_face(f, mid):
                    images.add(_descend(up, F.cells, j, f))
            images.discard(None)
            if not images:
                out.append(f"missing face image: node {F.ids[i]} has no image at face {f!r}")
            elif len(images) > 1:
                names = sorted(F.ids[k] for k in images)
                out.append(f"incompatible face images: node {F.ids[i]} reaches {names} at {f!r}")
    return out


def test_face_image_rows_match_the_per_node_descent():
    rng = random.Random(59)
    depths = {1: 0, 2: 0, 3: 0}
    for trial in range(12):
        d = 2 if trial % 2 else 3
        g = random_geometric(rng, "r", rng.randint(3, 5), d=d, denom=2, spread=6,
                             extra_edges=rng.randint(0, 1))
        F = build(g, fit_grid([g], 1.0)).graph
        assert validate(F) == [], trial
        up = _links_up(F)
        for c, block in F.nodes_at.items():
            for f in faces(c):
                if f not in F.nodes_at:
                    continue
                want = [_descend(up, F.cells, i, f) for i in block]
                assert F._face_images(c, f) == want, (trial, c, f)
                assert [F.face_image(F.ids[i], f) for i in block] == [F.ids[j] for j in want]
                depths[c.dim - f.dim] += 1
    assert all(depths.values()), depths


def test_validate_matches_the_per_node_formulation_on_corrupted_cosheaves():
    rng = random.Random(53)
    kinds = {"missing": 0, "incompatible": 0, "duplicate": 0, "wrong": 0, "link": 0}
    for trial in range(120):
        d = rng.choice([1, 2, 2, 3])
        g = random_geometric(rng, "k", rng.randint(2, 4), d=d, denom=rng.choice([2, 10]),
                             spread=6, extra_edges=rng.randint(0, 1))
        F = build(g, fit_grid([g], 1.0)).graph
        nodes = list(zip(F.ids, F.cells))
        links = [[F.ids[a], F.ids[b]] for a, b in F._raw_links]
        for _ in range(rng.randint(1, 3)):
            move = rng.random()
            if move < 0.3 and links:
                links.pop(rng.randrange(len(links)))
            elif move < 0.7 and links:
                # point a link at another node of the same face cell
                link = rng.choice(links)
                link[1] = rng.choice(F.elements_of(F.cell_of(link[1])))
            elif move < 0.85 and links:
                links.append(list(rng.choice(links)))
            elif move < 0.93:
                links.append([rng.choice(F.ids), rng.choice(F.ids)])
            else:
                # a link two dimensions down, where the graph has one
                deep = [(x, y) for x in F.ids for y in F.ids
                        if F.cell_of(y).dim < F.cell_of(x).dim - 1
                        and is_face(F.cell_of(y), F.cell_of(x))]
                if deep:
                    links.append(list(rng.choice(deep)))
        rng.shuffle(links)
        bad = CosheafGraph(F.grid, nodes, [tuple(x) for x in links])
        want = _per_node_validate(bad)
        assert validate(bad) == want, trial
        for m in want:
            kinds[m.split()[0].rstrip(":")] += 1
    assert all(kinds.values()), kinds
