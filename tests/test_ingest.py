"""PL ingestion: grid fitting, carrier classification, cosheaf construction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mapperbound import GeometricGraph, GridSpec, fit_grid, validate, vertex_cell, edge_cell
from mapperbound.grid import basic_open, thicken
from mapperbound.ingest import IngestError, build, build_cosheaf, graph_to_json
from mapperbound.oracle import geometric_pi0

from conftest import LISTING_EDGES, LISTING_HEIGHTS, listing_graph, random_geometric

V = vertex_cell
E = edge_cell
H2 = Fraction(1, 2)


def one_vertex(val) -> GeometricGraph:
    return GeometricGraph(d=1, vertices={"p": (val,)}, edges=[])


# -- fit_grid -----------------------------------------------------------------------


def test_fit_grid_single_vertex_at_origin():
    assert fit_grid([one_vertex(0)], 1.0).L == 1


def test_fit_grid_spans_and_strict_containment():
    g = GeometricGraph(d=1, vertices={"a": (Fraction(2, 10),), "b": (Fraction(97, 10),)},
                       edges=[("a", "b")])
    assert fit_grid([g], 1.0).L == 10
    # a value exactly on the would-be boundary pushes L one further
    assert fit_grid([one_vertex(3)], 1.0).L == 4
    assert fit_grid([one_vertex(Fraction(29, 10))], 1.0).L == 3


def test_fit_grid_takes_the_wider_graph():
    a = one_vertex(Fraction(1, 2))
    b = one_vertex(Fraction(13, 2))
    assert fit_grid([a, b], 1.0).L == 7
    assert fit_grid([a, b], 1.0) == fit_grid([b, a], 1.0)


def test_fit_grid_rejects_empty():
    with pytest.raises(IngestError):
        fit_grid([GeometricGraph(d=1, vertices={}, edges=[])], 1.0)


# -- carrier classification ------------------------------------------------------------


def test_single_vertex_inside_an_edge_cell():
    g = one_vertex(Fraction(1, 2))
    F = build_cosheaf(g, GridSpec(1, 1.0, 1))
    # star of a point: nodes over the edge cell and both endpoints, two links
    assert F.elements_by_dim() == {0: 2, 1: 1}
    assert F.link_count() == 2
    assert validate(F) == []


def test_vertex_exactly_on_a_grid_hyperplane():
    g = one_vertex(1)
    F = build_cosheaf(g, GridSpec(1, 1.0, 2))
    # degenerate carrier: the only occupied cell is the grid point itself
    assert F.occupied_cells() == [V(1)]
    assert F.node_count() == 1


def test_edge_inside_a_hyperplane_d2():
    g = GeometricGraph(d=2, vertices={"a": (Fraction(1, 2), 1), "b": (Fraction(3, 2), 1)},
                       edges=[("a", "b")])
    F = build_cosheaf(g, GridSpec(2, 1.0, 2))
    # the segment is carried by cells with a degenerate second axis
    assert all(c.intervals()[1] == ("deg", 1) for c in F.occupied_cells())
    assert validate(F) == []


def test_zero_length_edge_treated_as_point():
    g = GeometricGraph(d=1, vertices={"a": (Fraction(1, 2),), "b": (Fraction(1, 2),)},
                       edges=[("a", "b")])
    F = build_cosheaf(g, GridSpec(1, 1.0, 1))
    assert F.elements_by_dim() == {0: 2, 1: 1}


def test_parallel_edges_accepted():
    g = GeometricGraph(d=1,
                       vertices={"a": (Fraction(1, 2),), "b": (Fraction(5, 2),)},
                       edges=[("a", "b"), ("a", "b")])
    F = build_cosheaf(g, GridSpec(1, 1.0, 3))
    assert validate(F) == []
    # the two parallel strands are distinct elements over interior edge cells
    assert len(F.elements_of(E(1))) == 2


def test_node_on_edge_takes_the_first_listing_either_way_round():
    # one segment listed twice, opposite ways round: t = 1/4 is f = 1 along
    # the first listing and f = 2 along the second
    g = GeometricGraph(d=1,
                       vertices={"a": (Fraction(1, 2),), "b": (Fraction(5, 2),)},
                       edges=[("a", "b"), ("b", "a")])
    bd = build(g, GridSpec(1, 1.0, 3))
    t = Fraction(1, 4)
    assert bd.node_on_edge(V(1), ("b", "a"), t) == bd.node_on_edge(V(1), ("a", "b"), t)
    with pytest.raises(IngestError, match="does not lie over"):
        bd.node_on_edge(V(2), ("b", "a"), t)
    with pytest.raises(IngestError, match="unknown edge"):
        bd.node_on_edge(V(1), ("a", "c"), t)
    with pytest.raises(IngestError, match=r"outside \[0, 1\]"):
        bd.node_on_edge(V(1), ("b", "a"), 2)


def test_self_loop_rejected():
    with pytest.raises(IngestError):
        GeometricGraph(d=1, vertices={"a": (1,)}, edges=[("a", "a")])


def test_out_of_box_value_names_the_vertex():
    g = one_vertex(99)
    with pytest.raises(IngestError, match="'p'"):
        build_cosheaf(g, GridSpec(1, 1.0, 2))


# -- the adjacency-listing instance ------------------------------------------------------


def test_listing_reproduces_the_adjacency_data(listing):
    F = listing.graph
    assert validate(F) == []
    assert F.elements_by_dim() == {0: 14, 1: 14}
    assert F.node_count() == 28 and F.link_count() == 28

    name = {}
    for k, h in LISTING_HEIGHTS.items():
        name[listing.node_of_vertex(V(h), f"v{k}")] = k
    got = {k: set() for k in LISTING_HEIGHTS}
    for c in F.occupied_cells():
        if c.dim != 1:
            continue
        i = (c.coords[0] - 1) // 2
        for eid in F.elements_of(c):
            lo = name[F.face_image(eid, V(i))]
            hi = name[F.face_image(eid, V(i + 1))]
            got[lo].add(hi)
            got[hi].add(lo)
    want = {k: set() for k in LISTING_HEIGHTS}
    for a, b in LISTING_EDGES:
        want[a].add(b)
        want[b].add(a)
    assert got == want


def test_listing_vertex_counts_per_cell(listing):
    F = listing.graph
    counts = {c.coords[0] // 2: len(F.elements_of(c))
              for c in F.occupied_cells() if c.dim == 0}
    assert counts == {2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 1, 8: 2, 9: 2, 10: 1}


# -- structural properties ----------------------------------------------------------------


def test_refinement_never_loses_nodes():
    rng = random.Random(17)
    for _ in range(10):
        g = random_geometric(rng, "f", rng.randint(2, 5), denom=7)
        coarse = fit_grid([g], 1.0)
        fine = GridSpec(1, 0.5, 2 * coarse.L)
        n_coarse = build_cosheaf(g, coarse).node_count()
        n_fine = build_cosheaf(g, fine).node_count()
        assert n_fine >= n_coarse


def test_slice_counts_match_geometric_recomputation_d2():
    rng = random.Random(29)
    for _ in range(6):
        g = random_geometric(rng, "s", rng.randint(2, 5), d=2, spread=12)
        grid = fit_grid([g], 1.0)
        F = build_cosheaf(g, grid)
        for c in F.occupied_cells():
            for r in (0, 1):
                cells = thicken(grid, basic_open(grid, c), r)
                want, _ = geometric_pi0(g, grid, cells)
                assert F.slice(c, r).component_count == want


def test_diagonal_edge_through_grid_corners_d2():
    # simultaneous crossings on both axes: the cut points carry fully
    # degenerate cells, and the pieces between them carry square cells
    g = GeometricGraph(d=2, vertices={"a": (-H2, -H2), "b": (Fraction(3, 2), Fraction(3, 2))},
                       edges=[("a", "b")])
    grid = fit_grid([g], 1.0)
    F = build_cosheaf(g, grid)
    assert validate(F) == []
    corner = vertex_cell(0, 0)
    assert len(F.elements_of(corner)) == 1
    for r in (0, 1):
        cells = thicken(grid, basic_open(grid, corner), r)
        assert F.slice(corner, r).component_count == geometric_pi0(g, grid, cells)[0]


def test_three_dimensional_segment():
    g = GeometricGraph(
        d=3,
        vertices={"a": (-H2, Fraction(1, 4), Fraction(3, 4)),
                  "b": (Fraction(5, 4), Fraction(1, 4), Fraction(-1, 2))},
        edges=[("a", "b")],
    )
    grid = fit_grid([g], 1.0)
    F = build_cosheaf(g, grid)
    assert validate(F) == []
    assert max(c.dim for c in F.occupied_cells()) == 3
    for c in F.occupied_cells():
        cells = thicken(grid, basic_open(grid, c), 1)
        assert F.slice(c, 1).component_count == geometric_pi0(g, grid, cells)[0]


def test_geometric_graph_json_round_trip():
    g = listing_graph()
    text = graph_to_json(g)
    back = GeometricGraph.from_json(text)
    assert graph_to_json(back) == text
    assert back.vertices == g.vertices


def test_build_rejects_dimension_mismatch():
    g = one_vertex(0)
    with pytest.raises(IngestError):
        build(g, GridSpec(2, 1.0, 1))
