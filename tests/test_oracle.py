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
    distance,
    edge_cell,
    enumerate_opens,
    exhaustive_interleaving,
    fit_grid,
    full_loss,
    geometric_pi0,
    loss_report,
    promote,
    vertex_cell,
)
from mapperbound.assignment import Witness
from mapperbound.cosheaf import CosheafError, CosheafGraph
from mapperbound.grid import Cell, all_cells, basic_open, faces, is_open, thicken
from mapperbound.ingest import build, build_cosheaf
from mapperbound.oracle import OracleCapError, _Labeler, reference_loss

from conftest import (
    feasible_level,
    fork_graph,
    hook_lam_assignment,
    random_assignment,
    random_geometric,
    split_graph,
    split_pair,
)
from pi0_reference import reference_pi0

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


def test_pi0_on_hyperplane_vertex():
    # a vertex exactly at a grid point belongs to the point's band only
    from mapperbound import GeometricGraph
    g = GeometricGraph(d=1, vertices={"p": (1,)}, edges=[])
    grid = GridSpec(1, 1.0, 2)
    assert geometric_pi0(g, grid, basic_open(grid, V(1)))[0] == 1
    assert geometric_pi0(g, grid, basic_open(grid, E(1)))[0] == 0


# -- geometric pi0 against the per-cell reference -------------------------------------


H = Fraction(1, 2)

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


@pytest.mark.parametrize("delta", [1.0, 0.5])
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


def test_enumerate_opens_contains_empty_and_basic():
    grid = GridSpec(1, 1.0, 2)
    got = set(enumerate_opens(grid))
    assert frozenset() in got
    for c in all_cells(grid):
        assert basic_open(grid, c) in got


def test_enumerate_opens_cap_is_hard():
    with pytest.raises(OracleCapError):
        enumerate_opens(GridSpec(1, 1.0, 3), cap=50)


# -- tiny caps ---------------------------------------------------------------------------


def test_caps_are_hard_errors(hook_lam):
    bF, bG = hook_lam
    with pytest.raises(OracleCapError):
        exhaustive_interleaving(bF.graph, bG.graph, 2)  # 19 nodes > default 12
    with pytest.raises(OracleCapError):
        full_loss(bF.graph, bG.graph, Assignment(0, {}, {}))


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


@pytest.mark.parametrize("d,L", [(1, 1), (1, 2), (2, 1)])
def test_labeler_growth_matches_thicken(d, L):
    grid = GridSpec(d, 1.0, L)
    lab = _Labeler(CosheafGraph(grid, [], []))
    opens = enumerate_opens(grid)
    # one step of every open set; a thickened open set is open again
    step = {S: thicken(grid, S, 1) for S in opens}
    for S in opens:
        want = S
        for n in range(4):
            assert lab.grow(S, n) == want
            want = step[want]


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


def test_basis_loss_and_loss_report_match_reference_slacks():
    dims, positive, infinite = set(), 0, 0
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
        positive += 0 < L_B < math.inf
        infinite += math.isinf(L_B)
    assert dims == {1, 2, 3} and positive >= 5 and infinite == 1


def test_distance_matches_thickening_one_step_at_a_time():
    rng = random.Random(101)
    checked = 0
    for F, G, _ in reference_pairs():
        for graph in (F, G):
            lab = _Labeler(graph)
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

    def refuse(*args, **kwargs):
        raise AssertionError("the oracles must not use the library's labelling")

    # neither the library's labelling nor its face-image rows
    for name in ("slice", "set_at", "merge_radii", "_face_images", "face_image"):
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


def test_oracle_source_names_no_library_labelling():
    src = Path(__file__).resolve().parent.parent / "src" / "mapperbound"
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        if path.name != "cosheaf.py":
            assert not names & {"_lab", "_members"}, path.name
        if path.name == "oracle.py":
            assert not names & {"slice", "set_at", "merge_radii", "_face_images", "face_image"}
            names |= {node.id for node in nodes if isinstance(node, ast.Name)}
            names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                      for alias in node.names}
            assert not names & set(CLOSED_FORMS)


def test_oracle_source_names_no_ingest_build():
    # the geometric recomputation reads the PL input only, never the ingest
    # that turns it into a cosheaf
    tree = ast.parse((Path(__file__).resolve().parent.parent
                      / "src" / "mapperbound" / "oracle.py").read_text())
    from_ingest = {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names
                   if node.module == "ingest" or alias.name == "ingest"}
    assert from_ingest == {"GeometricGraph", "_as_fraction"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"build", "build_cosheaf", "node_on_edge", "node_of_vertex",
                        "MapperBuild"}
