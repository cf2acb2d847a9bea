"""The independent verifiers: geometric recomputation, open-set enumeration,
the full loss, the exhaustive interleaving search and the reference slacks,
and their independence from the library's labelling."""

from __future__ import annotations

import ast
import itertools
import math
import random
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import pytest

import mapperbound.assignment as assignment_module
import mapperbound.cosheaf as cosheaf_module
import mapperbound.grid as grid_module
import mapperbound.oracle as oracle_module
from mapperbound import (
    Assignment,
    GeometricGraph,
    GridSpec,
    TinyCaps,
    basis_loss,
    check_parallelogram_left,
    check_parallelogram_right,
    check_triangle_down,
    check_triangle_up,
    distance,
    edge_cell,
    enumerate_opens,
    exhaustive_interleaving,
    fit_grid,
    full_loss,
    geometric_pi0,
    loss_at,
    loss_report,
    promote,
    vertex_cell,
)
from mapperbound.assignment import Witness
from mapperbound.cosheaf import CosheafError, CosheafGraph
from mapperbound.grid import Cell, all_cells, basic_open, faces, is_open, thicken
from mapperbound.ingest import build, build_cosheaf
from mapperbound.oracle import (
    OracleCapError, _CellIndex, _Labeler, _open_masks, _pair_checks, _parent,
)

from conftest import (
    feasible_level,
    fork_graph,
    hook_lam_assignment,
    hook_lam_pair,
    random_assignment,
    random_geometric,
    split_graph,
    split_pair,
)
from full_loss_reference import reference_full_loss
from pi0_reference import reference_pi0
from slack_reference import reference_loss

V = vertex_cell
E = edge_cell


# -- geometric pi0 ------------------------------------------------------------------


def test_pi0_whole_grid_connected_input():
    g = fork_graph()
    grid = fit_grid([g], 1.0)
    count, reps = geometric_pi0(g, grid, frozenset(all_cells(grid)))
    assert count == 1 and len(reps) == 1


def test_pi0_band_has_two_components():
    g = fork_graph()
    grid = fit_grid([g], 1.0)
    count, reps = geometric_pi0(g, grid, basic_open(grid, V(0)))
    assert count == 2
    kinds = sorted(r[0] for r in reps)
    assert kinds == ["edge", "edge"] or "vertex" in kinds


def test_pi0_disconnected_input():
    g = split_graph()
    grid = fit_grid([g], 1.0)
    assert geometric_pi0(g, grid, frozenset(all_cells(grid)))[0] == 2


def test_pi0_requires_open_set():
    g = fork_graph()
    grid = fit_grid([g], 1.0)
    with pytest.raises(ValueError):
        geometric_pi0(g, grid, frozenset({V(0)}))


def test_pi0_matches_slices_on_random_inputs():
    rng = random.Random(71)
    for _ in range(8):
        d = rng.choice([1, 2])
        g = random_geometric(rng, "p", rng.randint(2, 5), d=d,
                             extra_edges=rng.randint(0, 1))
        grid = fit_grid([g], 1.0)
        F = build_cosheaf(g, grid)
        for c in F.occupied_cells():
            for r in (0, 1, 2):
                cells = thicken(grid, basic_open(grid, c), r)
                assert geometric_pi0(g, grid, cells)[0] == F.slice(c, r).component_count


@pytest.mark.parametrize("gd, grid_d", [(1, 2), (2, 1)])
def test_pi0_refuses_a_graph_of_another_dimension(gd, grid_d):
    # a 1-D path on a 2-D grid once gave (0, []) over the whole grid
    g = GeometricGraph(d=gd, vertices={"a": (0,) * gd, "b": (1,) * gd}, edges=[("a", "b")])
    grid = GridSpec(grid_d, 1.0, 2)
    message = f"graph dimension {gd} does not match grid dimension {grid_d}"
    with pytest.raises(ValueError, match=message):
        geometric_pi0(g, grid, frozenset(all_cells(grid)))


def test_pi0_on_hyperplane_vertex():
    # a vertex exactly at a grid point belongs to the point's band only
    from mapperbound import GeometricGraph
    g = GeometricGraph(d=1, vertices={"p": (1,)}, edges=[])
    grid = GridSpec(1, 1.0, 2)
    assert geometric_pi0(g, grid, basic_open(grid, V(1)))[0] == 1
    assert geometric_pi0(g, grid, basic_open(grid, E(1)))[0] == 0


# -- geometric pi0 against the per-cell reference -------------------------------------


H, THIRD, FIFTH = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)

HAND_MADE = {
    # an edge inside the hyperplane x = 1 that ends on the grid point (1, 1)
    "in-hyperplane": GeometricGraph(
        d=2, vertices={"a": (1, -3 * H), "b": (1, 1), "c": (5 * H, 1)},
        edges=[("a", "b"), ("b", "c")]),
    # a diagonal through the grid point (0, 0): both axes cut at t = 1/2
    "diagonal-2d": GeometricGraph(
        d=2, vertices={"a": (-3 * H, -3 * H), "b": (3 * H, 3 * H)}, edges=[("a", "b")]),
    # all three axes cut at once, at (0, 0, 0) and again at (1, 1, 1)
    "diagonal-3d": GeometricGraph(
        d=3, vertices={"a": (-H, -H, -H), "b": (3 * H, 3 * H, 3 * H)}, edges=[("a", "b")]),
    # vertices on grid points, joined by an edge that leaves the grid lines
    "grid-vertex": GeometricGraph(
        d=2, vertices={"p": (1, -1), "q": (-1, 2), "r": (H, 2)},
        edges=[("p", "q"), ("q", "r")]),
    # strands that cross every small box from outside to outside
    "crossing-1d": GeometricGraph(
        d=1, vertices={"lo": (-7 * H,), "hi": (7 * H,), "mid": (H,)},
        edges=[("lo", "hi"), ("mid", "hi")]),
    "crossing-2d": GeometricGraph(
        d=2, vertices={"a": (-5 * H, -2), "b": (5 * H, 1)}, edges=[("a", "b")]),
    # through the grid point 0 at t = 1/3 on every axis, from ends whose
    # denominators differ, so the axes' cut denominators do too
    "common-t-2d": GeometricGraph(
        d=2, vertices={"a": (-H, -THIRD), "b": (1, 2 * THIRD)}, edges=[("a", "b")]),
    "common-t-3d": GeometricGraph(
        d=3, vertices={"a": (-H, -THIRD, -FIFTH), "b": (1, 2 * THIRD, 2 * FIFTH)},
        edges=[("a", "b")]),
    # the same edges run downward on every axis
    "downward-2d": GeometricGraph(
        d=2, vertices={"a": (1, 2 * THIRD), "b": (-H, -THIRD)}, edges=[("a", "b")]),
    "downward-3d": GeometricGraph(
        d=3, vertices={"a": (1, 2 * THIRD, 2 * FIFTH), "b": (-H, -THIRD, -FIFTH)},
        edges=[("a", "b")]),
    # ids v0..v11 inserted in numeric order, which is not their string order
    # (v10 < v2): isolated vertices, some sharing a cell, are components of
    # their own, and v0 sits on the grid point 0, so a set with the edge
    # (0, 1) but not the point starts a run on the open segment at t = 0
    "many-vertices": GeometricGraph(
        d=1, vertices={f"v{i}": (x,) for i, x in enumerate([
            0, H, -5 * H / 2, -1, -3 * H, 1, 5 * H, -H / 2, 3 * H / 2, -7 * H / 2, -5 * H / 2,
            H / 2])},
        edges=[("v0", "v1"), ("v3", "v4"), ("v5", "v6"), ("v8", "v9")]),
}


def _pi0_sets(grid: GridSpec, rng: random.Random):
    """The whole grid, the empty set, and thickened stars at r = 0..3, each
    also joined with the star of a diagonal neighbour at the same radius: an
    open set that need not be a box.  Stars are centered at every cell in
    1-D, at a few random cells above (the reference is slow there)."""
    cells = list(all_cells(grid))
    yield frozenset(cells)
    yield frozenset()
    for c in cells if grid.d == 1 else rng.sample(cells, {2: 10, 3: 2}[grid.d]):
        near = Cell(tuple(m + rng.choice((-1, 1)) for m in c.coords))
        for r in range(4):
            star = thicken(grid, basic_open(grid, c), r)
            yield star
            if grid.contains(near):
                yield star | thicken(grid, basic_open(grid, near), r)


def _corner_pairs(grid: GridSpec, rng: random.Random):
    """The star of a cell joined with the star of each diagonal neighbour,
    among them L-shaped open sets that hold the cells on either side of a
    grid point but not the point itself.  Every cell in 2-D, a sample in 3-D."""
    cells = list(all_cells(grid))
    for c in cells if grid.d < 3 else rng.sample(cells, 100):
        for step in itertools.product((-1, 1), repeat=grid.d):
            near = Cell(tuple(m + s for m, s in zip(c.coords, step)))
            if grid.contains(near):
                yield basic_open(grid, c) | basic_open(grid, near)


# 0.3 = 3/10 puts a numerator other than 1 into every cut parameter
@pytest.mark.parametrize("delta", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_pi0_matches_reference_on_hand_made_edges(name, delta):
    g = HAND_MADE[name]
    grid = fit_grid([g], delta)
    rng = random.Random(0)
    for cells in itertools.chain(_pi0_sets(grid, rng), _corner_pairs(grid, rng)):
        assert geometric_pi0(g, grid, cells) == reference_pi0(g, grid, cells), cells


@pytest.mark.parametrize("delta", [1.0, 0.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pi0_matches_reference_on_random_inputs(d, delta):
    rng = random.Random(1000 * d + int(4 * delta))
    for _ in range(6):
        # values are multiples of delta / denom within (4 - d) * delta: small
        # denominators put vertices on grid points and edges in hyperplanes,
        # and the whole grid stays small
        denom = rng.choice([1, 2, 4])
        g = random_geometric(rng, "p", rng.randint(2, 7 - d), d=d, denom=int(denom / delta),
                             spread=denom * rng.randint(1, 4 - d), extra_edges=rng.randint(0, 2))
        grid = fit_grid([g], delta)
        for cells in _pi0_sets(grid, rng):
            assert geometric_pi0(g, grid, cells) == reference_pi0(g, grid, cells), cells


def test_pi0_keeps_its_value_whatever_the_vertex_insertion_order():
    # components are keyed by vertex id, not by the order g.vertices was built in
    rng = random.Random(29)
    graphs = [HAND_MADE["many-vertices"]] + [
        random_geometric(rng, "p", 12, d=d, denom=2, spread=6, extra_edges=2) for d in (1, 2)]
    for g in graphs:
        ids = list(g.vertices)
        rng.shuffle(ids)
        shuffled = GeometricGraph(d=g.d, vertices={i: g.vertices[i] for i in ids}, edges=g.edges)
        assert list(shuffled.vertices) != list(g.vertices)
        grid = fit_grid([g], 0.5)
        for cells in _pi0_sets(grid, rng):
            assert geometric_pi0(shuffled, grid, cells) == geometric_pi0(g, grid, cells), cells


def test_pi0_builds_no_fraction_per_cut(monkeypatch):
    # the edge walk keys its cuts in integers and writes each midpoint from
    # a gcd: one call builds delta's Fraction only, however many cuts and
    # components it has.  Counting Fraction.__new__ also counts the results
    # of Fraction arithmetic, which build through it before Python 3.12
    rng = random.Random(17)
    L, denom = 4, 10
    verts = {}
    for s in range(200):
        verts[f"s{s}a"] = (Fraction(-L * denom + rng.randint(1, denom - 1), denom),)
        verts[f"s{s}b"] = (Fraction(L * denom - rng.randint(1, denom - 1), denom),)
    g = GeometricGraph(d=1, vertices=verts, edges=[(f"s{s}a", f"s{s}b") for s in range(200)])
    grid = fit_grid([g], 1.0)
    built, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for c in (V(0), E(1), V(L - 1)):
        for r in (0, 2):
            built.clear()
            count, _ = geometric_pi0(g, grid, thicken(grid, basic_open(grid, c), r))
            assert count == 200
            assert len(built) <= 1


# -- open-set enumeration --------------------------------------------------------------


def test_enumerate_opens_matches_subset_filter():
    for grid in (GridSpec(1, 1.0, 1), GridSpec(2, 1.0, 1)):
        cells = list(all_cells(grid))
        if len(cells) > 12:
            continue
        brute = {
            frozenset(s)
            for r in range(len(cells) + 1)
            for s in itertools.combinations(cells, r)
            if is_open(grid, s)
        }
        got = enumerate_opens(grid)
        assert len(got) == len(set(got)) == len(brute)
        assert set(got) == brute


def test_open_masks_test_the_candidates_a_scan_would_take():
    # the reference decides every later cell of each open; the enumeration
    # tests only top cells and facets of chosen cells, in the same order
    def scan(ix):
        out, todo = [], [(0, 0)]
        while todo:
            i, chosen = todo.pop()
            todo += [(j + 1, chosen | 1 << j) for j in range(i, len(ix.cells))
                     if not ix.cof[j] & ~chosen]
            out.append(chosen)
        return out

    for d, L in ((1, 1), (1, 2), (1, 4), (2, 1)):
        ix = _CellIndex(GridSpec(d, 1.0, L))
        assert _open_masks(ix, 100_000) == scan(ix), (d, L)


def test_enumerate_opens_contains_empty_and_basic():
    grid = GridSpec(1, 1.0, 2)
    got = set(enumerate_opens(grid))
    assert frozenset() in got
    for c in all_cells(grid):
        assert basic_open(grid, c) in got


def test_enumerate_opens_cap_is_hard():
    with pytest.raises(OracleCapError):
        enumerate_opens(GridSpec(1, 1.0, 3), cap=50)


def test_enumerate_opens_cap_is_hard_past_the_recursion_limit():
    # 2,197 cells, more than the recursion limit: the cap is reached first
    with pytest.raises(OracleCapError, match="^open-set enumeration exceeded the cap of 10$"):
        enumerate_opens(GridSpec(3, 1.0, 3), cap=10)


# -- tiny caps ---------------------------------------------------------------------------


def test_caps_are_hard_errors(hook_lam):
    bF, bG = hook_lam
    with pytest.raises(OracleCapError):
        exhaustive_interleaving(bF.graph, bG.graph, 2)  # 19 nodes > default 12
    with pytest.raises(OracleCapError):
        full_loss(bF.graph, bG.graph, Assignment(0, {}, {}))


def _twin_points(x) -> CosheafGraph:
    # two vertices at one value: two components over every cell near it
    g = GeometricGraph(d=1, vertices={"a": (x,), "b": (x,)}, edges=[])
    return build(g, fit_grid([g], 1.0)).graph


def test_candidate_caps_are_hard_errors():
    # six nodes of two options each: 64 pointer maps per side before the
    # parallelograms keep 4 (16 pairs), so a cap of 20 stops the enumeration
    F = _twin_points(Fraction(1, 2))
    with pytest.raises(OracleCapError, match="^assignment enumeration exceeded the candidate cap$"):
        exhaustive_interleaving(F, F, 1, TinyCaps(max_candidates=20))
    # two nodes over one point: all 4 pointer maps per side pass, 16 pairs to try
    P = _twin_points(0)
    with pytest.raises(OracleCapError, match="^assignment enumeration exceeded the candidate cap$"):
        exhaustive_interleaving(P, P, 1, TinyCaps(max_candidates=4))
    assert exhaustive_interleaving(P, P, 1, TinyCaps(max_candidates=16)) == 0


def test_exhaustive_interleaving_refuses_a_negative_n_max(hook_lam):
    bF, bG = hook_lam
    caps = TinyCaps(max_nodes_per_side=20)
    with pytest.raises(ValueError, match="^n_max must be a natural number$"):
        exhaustive_interleaving(bF.graph, bG.graph, -1, caps)
    assert exhaustive_interleaving(bF.graph, bG.graph, 0, caps) is None


def test_oracles_call_a_missing_face_image_a_cosheaf_error():
    # an edge element whose end points carry nothing is bad input, not a cap
    e = CosheafGraph(GridSpec(1, 1.0, 1), [("e", Cell((1,)))], [])
    with pytest.raises(CosheafError, match="missing a face image"):
        exhaustive_interleaving(e, e, 1)
    with pytest.raises(CosheafError, match="missing a face image"):
        reference_loss(e, e, Assignment(0, {"e": "e"}, {"e": "e"}))


def test_oracle_rejects_mismatched_grids(hook_lam):
    from mapperbound import CosheafGraph, GridSpec

    other = CosheafGraph(GridSpec(1, 1.0, 2), [], [])
    with pytest.raises(ValueError):
        exhaustive_interleaving(hook_lam[0].graph, other, 1)


# -- full loss ------------------------------------------------------------------------------


def small_pair(rng, max_vertices=4):
    while True:
        gA = random_geometric(rng, "a", rng.randint(2, max_vertices))
        gB = random_geometric(rng, "b", rng.randint(2, max_vertices))
        grid = fit_grid([gA, gB], 1.0)
        if grid.L <= 2:
            return build(gA, grid).graph, build(gB, grid).graph


def boundary_pair(rng, grid: GridSpec, max_vertices=3, chords=1):
    """Two random PL paths with up to `chords` chords each on an explicit grid
    of delta 1, every coordinate on the box boundary (+-L) or at an interior
    half-step.  fit_grid never puts a vertex on the box boundary."""
    L = grid.L
    values = [Fraction(-L), Fraction(L)] + [Fraction(2 * k + 1, 2) for k in range(-L, L)]
    out = []
    for tag in "ab":
        nv = rng.randint(2, max_vertices)
        where = {f"{tag}{i}": tuple(rng.choice(values) for _ in range(grid.d))
                 for i in range(nv)}
        edges = [(f"{tag}{i - 1}", f"{tag}{i}") for i in range(1, nv)]
        edges += [tuple(rng.sample(sorted(where), 2)) for _ in range(rng.randint(0, chords))]
        out.append(build(GeometricGraph(d=grid.d, vertices=where, edges=edges), grid).graph)
    return out


def test_full_loss_identity_is_zero(fork):
    # restrict to a small instance: a two-vertex strand
    from mapperbound import GeometricGraph
    from fractions import Fraction
    g = GeometricGraph(d=1, vertices={"p": (Fraction(-1, 2),), "q": (Fraction(3, 2),)},
                       edges=[("p", "q")])
    F = build_cosheaf(g, GridSpec(1, 1.0, 2))
    ident = Assignment(n=0, phi={i: i for i in F.ids}, psi={i: i for i in F.ids})
    rep = full_loss(F, F, ident)
    assert rep.value == 0 and rep.consistent_extension


def test_oracles_answer_a_level_far_past_the_grid():
    # thickening stops at a set that a step leaves as it is, so a level of
    # 2000 steps or 10**12 steps costs what filling the grid costs
    g = GeometricGraph(d=1, vertices={"p": (Fraction(-1, 2),), "q": (Fraction(3, 2),)},
                       edges=[("p", "q")])
    F = build_cosheaf(g, GridSpec(1, 1.0, 2))

    def ident(n):
        return Assignment(n=n, phi={i: i for i in F.ids}, psi={i: i for i in F.ids})

    want = reference_loss(F, F, ident(3))
    assert astuple(full_loss(F, F, ident(3))) == (0, True, 88)
    for n in (2000, 10**12):
        assert astuple(full_loss(F, F, ident(n))) == (0, True, 88)
        assert reference_loss(F, F, ident(n)) == want


def test_full_loss_dominates_basis_loss_and_promotion_zeroes_it():
    rng = random.Random(73)
    caps = TinyCaps(max_nodes_per_side=24)
    seen_positive = False
    for _ in range(10):
        F, G = small_pair(rng)
        n = feasible_level(F, G)
        a = random_assignment(F, G, n, rng)
        lb = basis_loss(F, G, a).L_B
        rep = full_loss(F, G, a, caps)
        if math.isinf(lb):
            assert math.isinf(rep.value)
            continue
        assert rep.value >= lb
        seen_positive = seen_positive or lb > 0
        assert full_loss(F, G, promote(a, int(lb)), caps).value == 0
    assert seen_positive


def golden_batch():
    """64 seeded tiny 1-D pairs at L <= 2, with up to two chords on a side of
    three or more vertices, each with a random assignment at its least
    feasible level."""
    rng = random.Random(211)
    for _ in range(64):
        gA, gB = (random_geometric(rng, tag, nv, extra_edges=rng.randint(0, 2) if nv > 2 else 0)
                  for tag, nv in (("a", rng.randint(2, 4)), ("b", rng.randint(2, 4))))
        grid = fit_grid([gA, gB], 1.0)
        F, G = build(gA, grid).graph, build(gB, grid).graph
        yield F, G, random_assignment(F, G, feasible_level(F, G), rng)


# (value, consistent_extension, opens) of full_loss on golden_batch(), captured
# before the per-set step memo and the per-T pair gathering
FULL_LOSS_BATCH = [
    (1, False, 88), (0, True, 88), (3, False, 88), (1, True, 88), (0, True, 88),
    (0, True, 88), (0, True, 12), (0, True, 88), (0, True, 88), (0, True, 88),
    (0, True, 88), (0, True, 88), (0, True, 88), (0, True, 88), (0, True, 12),
    (0, True, 88), (0, True, 88), (0, True, 88), (0, True, 88), (0, True, 88),
    (2, False, 88), (0, True, 88), (1, False, 88), (2, False, 88), (0, True, 88),
    (1, False, 88), (0, True, 88), (0, True, 88), (1, False, 88), (0, True, 88),
    (0, True, 88), (0, True, 88), (0, True, 88), (0, True, 88), (0, True, 88),
    (1, False, 88), (1, False, 88), (0, True, 88), (0, True, 12), (0, True, 88),
    (0, True, 88), (0, True, 88), (1, False, 88), (0, True, 88), (0, True, 12),
    (0, True, 88), (0, True, 88), (0, True, 88), (0, True, 88), (0, True, 88),
    (0, True, 88), (0, True, 88), (1, False, 88), (2, False, 88), (0, True, 88),
    (0, True, 88), (0, True, 88), (1, False, 88), (0, True, 88), (0, True, 88),
    (0, True, 88), (0, True, 88), (0, True, 88), (1, False, 88),
]


def test_full_loss_golden_batch():
    caps = TinyCaps(max_nodes_per_side=24)
    got = [astuple(full_loss(F, G, a, caps)) for F, G, a in golden_batch()]
    assert got == FULL_LOSS_BATCH


def test_full_loss_split_pair_is_infinite():
    bF, bG = split_pair()
    a = random_assignment(bF.graph, bG.graph, 1, random.Random(2))
    rep = full_loss(bF.graph, bG.graph, a, TinyCaps(max_nodes_per_side=24))
    assert (rep.value, rep.consistent_extension, rep.opens) == (math.inf, False, 609)


def test_full_loss_counts_the_parallelograms_of_an_open_with_no_vertex():
    # A plane input whose loss comes from an open with no vertex.  On the L = 1
    # grid, F is a loop through the four squares and the box-boundary point
    # (1, 0); G drops F's segment across -1 < x < 0, y = 0, so G's top-right
    # and bottom-left squares meet only through (1, 0).  Pointers keep their
    # node's id where they can, but phi sends F's node on the edge x = -1,
    # -1 < y < 0 to G's top-right square.  Over the open of that edge and the
    # bottom-left square, that node joins the square's, and their targets meet
    # one step past the open's thickening.  No triangle and no parallelogram
    # of an open holding a vertex reaches 1.  The value was checked once
    # against the all-pairs reference.
    H = Fraction(1, 2)
    where = {"p1": (-H, H), "p2": (-H, -H), "p4": (H, -H), "v": (1, 0), "p3": (H, H)}
    loop = [("p1", "p2"), ("p2", "p4"), ("p4", "v"), ("v", "p3"), ("p3", "p1")]
    grid = GridSpec(2, 1.0, 1)
    F, G = (build(GeometricGraph(d=2, vertices=where, edges=edges), grid).graph
            for edges in (loop, loop[1:]))
    phi = {x: x if x in G.index else x.split("#")[0] + "#0" for x in F.ids}
    psi = {y: y if y in F.index else y.split("#")[0] + "#0" for y in G.ids}
    phi.update({"-1,-1#0": "0,0+#0", "-1,-1+#0": "0+,0+#0"})
    a = Assignment(1, phi, psi)
    assert basis_loss(F, G, a).L_B == 1
    assert astuple(full_loss(F, G, a, TinyCaps(max_nodes_per_side=29))) == (1, False, 24_897)


def full_loss_pairs():
    """golden_batch(), the split pair, hook/lambda, then seeded random 1-D
    pairs with chords at L <= 2.  The 2-D grid at L = 1 already has 24,897
    nonempty opens, too many for the all-pairs reference."""
    yield from golden_batch()
    bF, bG = split_pair()
    yield bF.graph, bG.graph, random_assignment(bF.graph, bG.graph, 1, random.Random(2))
    bF, bG = hook_lam_pair()
    yield bF.graph, bG.graph, hook_lam_assignment(bF, bG)
    rng = random.Random(223)
    for _ in range(40):
        gA, gB = (random_geometric(rng, tag, 5, extra_edges=rng.randint(0, 2))
                  for tag in "ab")
        grid = fit_grid([gA, gB], 1.0)
        F, G = build(gA, grid).graph, build(gB, grid).graph
        yield F, G, random_assignment(F, G, feasible_level(F, G), rng)


def test_full_loss_matches_the_all_pairs_reference():
    # gathering a larger open's parallelograms from its covers only gives the
    # value of gathering them from every open strictly inside it
    caps = TinyCaps(max_nodes_per_side=40)
    got = [(astuple(full_loss(F, G, a, caps)), astuple(reference_full_loss(F, G, a, caps)))
           for F, G, a in full_loss_pairs()]
    assert [fast for fast, _ in got] == [ref for _, ref in got]
    assert got[64][0] == (math.inf, False, 609) and got[65][0] == (1, False, 4180)
    assert sum(fast[0] >= 2 for fast, _ in got[66:]) >= 5


@pytest.mark.parametrize("d,L", [(1, 1), (1, 2), (2, 1)])
def test_labeler_growth_matches_thicken(d, L):
    grid = GridSpec(d, 1.0, L)
    ix = _CellIndex(grid)
    lab = _Labeler(CosheafGraph(grid, [], []), ix)
    opens = enumerate_opens(grid)
    # one step of every open set; a thickened open set is open again
    step = {S: thicken(grid, S, 1) for S in opens}
    for S in opens:
        want = S
        for n in range(4):
            assert ix.members(lab.grow(ix.mask(S), n)) == want
            want = step[want]


@pytest.mark.parametrize("d,L", [(1, 1), (1, 2), (2, 1)])
def test_parent_drops_a_cell_with_no_face_in_the_open(d, L):
    # full_loss measures each open's parallelograms against its parent only;
    # the proof needs the parent open and the dropped cell faceless in T
    grid = GridSpec(d, 1.0, L)
    ix = _CellIndex(grid)
    opens = [T for T in _open_masks(ix, 100_000) if T]
    assert len(opens) == {(1, 1): 12, (1, 2): 88, (2, 1): 24_897}[d, L]
    for T in opens:
        P = _parent(T)
        assert P | T == T
        (c,) = ix.members(T ^ P)
        assert P == 0 or is_open(grid, ix.members(P)), (T, P)
        assert not faces(c) & ix.members(T), (T, c)


def test_full_loss_thickens_each_cell_once(monkeypatch):
    seen = []

    def counting(grid, cells, n):
        seen.append((cells, n))
        return thicken(grid, cells, n)

    monkeypatch.setattr(oracle_module, "thicken", counting)
    F, G, a = next(golden_batch())
    full_loss(F, G, a, TinyCaps(max_nodes_per_side=24))
    assert seen and all(len(cells) == 1 and n == 1 for cells, n in seen)
    assert len({cells for cells, _ in seen}) == len(seen)


# -- exhaustive interleaving -----------------------------------------------------------------


def test_exhaustive_on_identical_inputs():
    rng = random.Random(79)
    F, _ = small_pair(rng)
    assert exhaustive_interleaving(F, F, 2, TinyCaps(max_nodes_per_side=24)) == 0


def test_exhaustive_on_the_bound_fixture(hook_lam):
    # no level-1 interleaving exists; the promoted assignment is one at level 2
    bF, bG = hook_lam
    caps = TinyCaps(max_nodes_per_side=20)
    assert exhaustive_interleaving(bF.graph, bG.graph, 3, caps) == 2


def test_exhaustive_reports_not_found(split):
    bF, bG = split
    caps = TinyCaps(max_nodes_per_side=20)
    assert exhaustive_interleaving(bF.graph, bG.graph, 2, caps) is None


def test_exhaustive_below_certified_bound():
    rng = random.Random(83)
    caps = TinyCaps(max_nodes_per_side=24)
    for _ in range(8):
        F, G = small_pair(rng)
        n = feasible_level(F, G)
        a = random_assignment(F, G, n, rng)
        lb = basis_loss(F, G, a).L_B
        if math.isinf(lb):
            continue
        got = exhaustive_interleaving(F, G, int(n + lb), caps)
        assert got is not None and got <= n + lb


# exhaustive_interleaving(F, G, 2L) on golden_batch(), captured while the
# labelers still keyed cell sets by frozenset
EXHAUSTIVE_BATCH = [
    1, 2, 2, 2, 1, 2, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1, 2, 2, 1, 1, 1, 2, 2, 2, 1, 1, 0, 1, 2, 2, 1,
    2, 2, 1, 1, 1, 1, 0, 2, 1, 1, 1, 1, 0, 1, 2, 1, 2, 2, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1,
]


def test_exhaustive_golden_batch():
    caps = TinyCaps(max_nodes_per_side=24)
    got = [exhaustive_interleaving(F, G, 2 * F.grid.L, caps) for F, G, _ in golden_batch()]
    assert got == EXHAUSTIVE_BATCH


@pytest.mark.parametrize("d,L", [(1, 2), (2, 1), (2, 2), (3, 1)])
def test_pair_checks_read_each_face_image_off_the_labels(d, L):
    # every node's image at every proper face of its cell, as the graph's
    # face-image rows give it, with vertices on the box boundary too
    rng = random.Random(109 + 10 * d + L)
    grid = GridSpec(d, 1.0, L)
    ix, on_box = _CellIndex(grid), 0
    for _ in range(10):
        for F in boundary_pair(rng, grid, max_vertices=4, chords=2):
            want = [(x, F.index[F.face_image(F.ids[x], sigma)], sigma)
                    for x, tau in enumerate(F.cells) for sigma in faces(tau)]
            assert _pair_checks(_Labeler(F, ix)) == want
            on_box += any(abs(m) == 2 * L for c in F.cells for m in c.coords)
    assert on_box >= 10


# -- reference slacks against the library -----------------------------------------------


def reference_pairs():
    """Seeded random pairs in d = 1, 2 and 3 with a random assignment at their
    least feasible level, then a split pair whose loss is infinite."""
    rng = random.Random(97)
    for d, count, nv, denom, spread, chords in ((1, 8, 8, 4, 10, 2), (2, 6, 4, 2, 4, 1),
                                                (3, 4, 3, 2, 2, 1)):
        for _ in range(count):
            gA, gB = (random_geometric(rng, tag, nv, d=d, denom=denom, spread=spread,
                                       extra_edges=chords) for tag in "ab")
            grid = fit_grid([gA, gB], 1.0)
            F, G = build(gA, grid).graph, build(gB, grid).graph
            yield F, G, random_assignment(F, G, feasible_level(F, G), rng)
    bF, bG = split_pair()
    yield bF.graph, bG.graph, random_assignment(bF.graph, bG.graph, 1, random.Random(2))


CHECKS = {"parallelogram_left": check_parallelogram_left,
          "parallelogram_right": check_parallelogram_right,
          "triangle_down": check_triangle_down, "triangle_up": check_triangle_up}


def test_basis_loss_and_loss_report_match_reference_slacks():
    # every entry point of the loss against the reference slacks: basis_loss,
    # loss_report and loss_at on every pair, and each check_* on a seeded
    # sample of diagrams per pair, up to two of them failing at slack 0
    rng = random.Random(61)
    dims, positive, infinite, failed_checks = set(), 0, 0, 0
    for F, G, a in reference_pairs():
        dims.add(F.grid.d)
        ref = reference_loss(F, G, a)
        L_B = max(ref.values(), default=0)
        res = basis_loss(F, G, a)
        assert res.L_B == L_B
        want = sorted((Witness(*key) for key, s in ref.items() if s == L_B and L_B),
                      key=Witness.sort_key)
        assert res.witnesses == want[:10]
        for k in range(4):
            failing = sorted((Witness(*key) for key, s in ref.items() if s > k),
                             key=Witness.sort_key)
            assert loss_report(F, G, a, k) == (not failing, failing)
            assert loss_at(F, G, a, k) == (L_B <= k)
        hot = {key[:3] for key, s in ref.items() if s}
        hot, cold = (sorted(part, key=lambda t: Witness(*t, "").sort_key())
                     for part in (hot, {key[:3] for key in ref} - hot))
        for kind, sigma, tau in (rng.sample(hot, min(2, len(hot)))
                                 + rng.sample(cold, min(2, len(cold)))):
            at = (sigma,) if tau is None else (sigma, tau)
            for k in range(4):
                failing = sorted((Witness(*key) for key, s in ref.items()
                                  if key[:3] == (kind, sigma, tau) and s > k),
                                 key=Witness.sort_key)
                assert CHECKS[kind](F, G, a, *at, k) == (not failing, failing)
                failed_checks += bool(failing)
        positive += 0 < L_B < math.inf
        infinite += math.isinf(L_B)
    assert dims == {1, 2, 3} and positive >= 5 and infinite == 1 and failed_checks >= 20


def test_distance_matches_thickening_one_step_at_a_time():
    rng = random.Random(101)
    checked = 0
    for F, G, _ in reference_pairs():
        for graph in (F, G):
            lab = _Labeler(graph, _CellIndex(graph.grid))
            centers = sorted({f for c in graph.occupied_cells() for f in faces(c) | {c}})
            for c in rng.sample(centers, min(3, len(centers))):
                for m in (0, 1, 2):
                    members = [graph.ids[i] for i, r in enumerate(lab.at(lab.star(c, m)))
                               if r >= 0]
                    for _ in range(4 if members else 0):
                        x, y = rng.choice(members), rng.choice(members)
                        want = lab.node_distance(lab.star(c, m), graph.index[x], graph.index[y])
                        assert distance(graph, c, m, x, y) == want
                        checked += 1
    assert checked > 100


def test_reference_loss_cap_is_hard(hook_lam, hook_lam_asg):
    F, G = hook_lam[0].graph, hook_lam[1].graph
    with pytest.raises(OracleCapError, match="19 nodes, cap is 18"):
        reference_loss(F, G, hook_lam_asg, TinyCaps(max_nodes_per_side=18))
    with pytest.raises(OracleCapError, match="half-extent 4 exceeds the cap 3"):
        reference_loss(F, G, hook_lam_asg, TinyCaps(max_L=3))
    assert max(reference_loss(F, G, hook_lam_asg, TinyCaps(max_nodes_per_side=19)).values()) == 1


# -- independence from the library's labelling --------------------------------------------


CLOSED_FORMS = ("star_ring", "star_saturation")


def test_oracles_answer_with_library_labelling_disabled(hook_lam, hook_lam_asg, monkeypatch):
    bF, bG = hook_lam
    caps = TinyCaps(max_nodes_per_side=24)
    rng = random.Random(103)
    tiny = [small_pair(rng) for _ in range(3)]
    tiny = [(F, G, random_assignment(F, G, feasible_level(F, G), rng)) for F, G in tiny]
    want_lib = basis_loss(bF.graph, bG.graph, hook_lam_asg)
    want = [(exhaustive_interleaving(F, G, 4, caps), full_loss(F, G, a, caps),
             reference_loss(F, G, a), basis_loss(F, G, a)) for F, G, a in tiny]
    # and pairs with vertices on the box boundary, against the library's slacks
    edge = [boundary_pair(rng, GridSpec(d, 1.0, L)) for d, L in [(1, 1), (1, 2)] * 5 + [(2, 1)]]
    edge = [(F, G, random_assignment(F, G, feasible_level(F, G), rng)) for F, G in edge]
    want_edge = [(basis_loss(F, G, a), {
        (w.kind, w.sigma, w.tau, w.element): s
        for w, s in assignment_module._slacks(F, G, a.n, *assignment_module._prepare(F, G, a))})
        for F, G, a in edge]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracles must not use the library's labelling")

    # neither the library's labelling nor its face-image rows
    for name in ("slice", "merge_radii", "_chain_radii", "_face_images", "face_image"):
        monkeypatch.setattr(CosheafGraph, name, refuse)
    # nor the closed forms of thickened stars that the library's paths use
    for module in (grid_module, cosheaf_module, assignment_module, oracle_module):
        for name in CLOSED_FORMS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert exhaustive_interleaving(bF.graph, bG.graph, 3, TinyCaps(max_nodes_per_side=20)) == 2
    ref = reference_loss(bF.graph, bG.graph, hook_lam_asg)
    assert max(ref.values()) == want_lib.L_B == 1
    assert sorted((Witness(*key) for key, s in ref.items() if s == 1),
                  key=Witness.sort_key)[:10] == want_lib.witnesses
    for (F, G, a), (exact, full, slacks, lib) in zip(tiny, want):
        assert exhaustive_interleaving(F, G, 4, caps) == exact
        assert full_loss(F, G, a, caps) == full
        got = reference_loss(F, G, a)
        assert got == slacks and max(got.values(), default=0) == lib.L_B
        assert exact <= a.n + lib.L_B <= a.n + full.value
    edge_caps = TinyCaps(max_nodes_per_side=40)
    for (F, G, a), (lib, slacks) in zip(edge, want_edge):
        got = reference_loss(F, G, a)
        assert {key: s for key, s in got.items() if s} == slacks
        assert max(got.values(), default=0) == lib.L_B
        exact = exhaustive_interleaving(F, G, 4, edge_caps)
        assert exact <= a.n + lib.L_B <= a.n + full_loss(F, G, a, edge_caps).value
    assert sum(lib.L_B > 0 for lib, _ in want_edge) >= 3


def test_oracle_source_names_no_library_labelling():
    src = Path(__file__).resolve().parent.parent / "src" / "mapperbound"
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        if path.name != "cosheaf.py":
            assert not names & {"_lab", "_members"}, path.name
        if path.name == "oracle.py":
            assert not names & {"slice", "merge_radii", "_chain_radii", "_face_images",
                                "face_image"}
            names |= {node.id for node in nodes if isinstance(node, ast.Name)}
            names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                      for alias in node.names}
            names |= {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
            assert not names & set(CLOSED_FORMS)
            # face images come from the oracle's own labels: no stored face-image
            # rows, no descent along links, and the links feed the union-find only
            assert not names & {"_links", "_descend", "is_face"}
            reads = [node for node in nodes
                     if isinstance(node, ast.Attribute) and node.attr == "_raw_links"]
            (union_find,) = [node for node in nodes if isinstance(node, ast.FunctionDef)
                             and node.name == "_components"]
            assert reads and set(reads) <= set(ast.walk(union_find))


def test_oracle_source_names_no_ingest_build():
    # the geometric recomputation reads the PL input only, never the ingest
    # that turns it into a cosheaf
    tree = ast.parse((Path(__file__).resolve().parent.parent
                      / "src" / "mapperbound" / "oracle.py").read_text())
    from_ingest = {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names
                   if node.module == "ingest" or alias.name == "ingest"}
    assert from_ingest == {"GeometricGraph"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"build", "build_cosheaf", "node_on_edge", "node_of_vertex",
                        "MapperBuild"}
