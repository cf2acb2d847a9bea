"""Cosheaf graph structure, validation, slices, and the slice metric."""

from __future__ import annotations

import json
import math
import random

import pytest

from mapperbound import (
    Assignment,
    CosheafGraph,
    GridSpec,
    diameter,
    distance,
    edge_cell,
    fit_grid,
    loss_report,
    validate,
    vertex_cell,
)
from mapperbound.assignment import AssignmentError
from mapperbound.cosheaf import CosheafError, from_json, to_dot, to_json
from mapperbound.grid import Cell, all_cells, basic_open, cell, cell_sort_key, faces, is_face, thicken
from mapperbound.ingest import build

from conftest import random_geometric

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


def test_unknown_link_target_rejected():
    grid = GridSpec(1, 1.0, 2)
    with pytest.raises(CosheafError):
        CosheafGraph(grid, [("p0", V(0))], [("p0", "ghost")])


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
    assert not sl.is_member(far)
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


# -- set_at -------------------------------------------------------------------------


def test_set_at_on_basic_open_bijects_with_elements(fork):
    F = fork.graph
    for c in F.occupied_cells():
        lab = F.set_at(basic_open(F.grid, c))
        assert lab.component_count == len(F.elements_of(c))


def test_set_at_agrees_with_slice(fork):
    F = fork.graph
    grid = F.grid
    for c, r in [(V(0), 1), (V(5), 2), (E(1), 1)]:
        cells = thicken(grid, basic_open(grid, c), r)
        assert F.set_at(cells).component_count == F.slice(c, r).component_count


def test_set_at_disjoint_union_adds_counts(fork):
    F = fork.graph
    grid = F.grid
    s = basic_open(grid, V(0)) | basic_open(grid, V(5))
    assert F.set_at(s).component_count == (
        F.slice(V(0), 0).component_count + F.slice(V(5), 0).component_count)


def test_set_at_rejects_non_open(fork):
    with pytest.raises(CosheafError):
        fork.graph.set_at(frozenset({V(0)}))


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


def test_dot_export_stable(listing):
    F = listing.graph
    dot = to_dot(F)
    assert dot == to_dot(F)
    assert dot.count(" -- ") == F.link_count()
    assert dot.count("label=") == F.node_count()


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
        lab = F.set_at(frozenset(all_cells(grid)))
        assert lab.component_count == 1


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
