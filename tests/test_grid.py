"""Grid combinatorics: face poset, basic opens, thickening, saturation.

The thickening checks compare against two independent oracles: a per-axis
interval product for thickened basic opens, and a zigzag-reachability search
written directly from the comparability predicate.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mapperbound.grid import (
    Cell,
    GridSpec,
    all_cells,
    basic_open,
    cell,
    cell_from_wire,
    cell_sort_key,
    cell_to_wire,
    cofaces,
    edge_cell,
    faces,
    facets,
    is_open,
    ring_cells,
    saturation_steps,
    star_box,
    star_ring,
    star_saturation,
    thicken,
    vertex_cell,
)

G1 = GridSpec(1, 1.0, 8)
G2 = GridSpec(2, 1.0, 2)
G3 = GridSpec(1, 1.0, 3)


def test_gridspec_invariants():
    with pytest.raises(ValueError):
        GridSpec(0, 1.0, 1)
    with pytest.raises(ValueError):
        GridSpec(1, 0.0, 1)
    with pytest.raises(ValueError):
        GridSpec(1, 1.0, 0)
    # 4L+1 elementary intervals per axis
    assert G3.cell_count() == 13


def test_faces_of_an_edge():
    assert faces(edge_cell(3)) == {vertex_cell(3), vertex_cell(4)}


def test_facets_are_the_codimension_1_faces_in_axis_order():
    sq = cell(("nondeg", 0), ("nondeg", 2))
    assert facets(sq) == (cell(("deg", 0), ("nondeg", 2)), cell(("deg", 1), ("nondeg", 2)),
                          cell(("nondeg", 0), ("deg", 2)), cell(("nondeg", 0), ("deg", 3)))
    assert facets(vertex_cell(1, 2)) == ()
    for c in all_cells(GridSpec(3, 1.0, 1)):
        want = {f for f in faces(c) if f.dim == c.dim - 1}
        assert len(facets(c)) == len(want) == 2 * c.dim and set(facets(c)) == want
        # by the axis where the facet closes c, then the lower end point first
        assert list(facets(c)) == sorted(want, key=lambda f: next(
            (a, e) for a, (m, e) in enumerate(zip(c.coords, f.coords)) if m != e))


def test_cofaces_of_interior_vertex_d1():
    assert cofaces(G1, vertex_cell(3)) == {edge_cell(2), edge_cell(3)}


def test_cofaces_clip_at_the_boundary():
    assert cofaces(G3, vertex_cell(3)) == {edge_cell(2)}
    assert cofaces(G3, vertex_cell(-3)) == {edge_cell(-3)}


def brute_comparable(a: Cell, b: Cell) -> bool:
    # independent per-axis rule: equal entries, or a point at an interval end
    for m, n in zip(a.coords, b.coords):
        if m == n:
            continue
        if m % 2 == 0 and n % 2 == 1 and abs(m - n) == 1:
            continue
        return False
    return True


def test_coface_count_interior_vertex_d2():
    v = vertex_cell(0, 0)
    brute = [c for c in all_cells(G2) if c != v and brute_comparable(v, c)]
    assert len(brute) == 8  # 4 edges + 4 squares
    assert cofaces(G2, v) == set(brute)


def test_face_closure_count_is_three_to_the_dim():
    sq = cell(("nondeg", 0), ("nondeg", -1))
    assert len(faces(sq)) + 1 == 3 ** sq.dim
    assert faces(sq) == {c for c in all_cells(G2) if c != sq and brute_comparable(c, sq)}


def test_basic_open_interior_vertex_d1():
    # the three element set around an interior grid point
    assert basic_open(G1, vertex_cell(3)) == {vertex_cell(3), edge_cell(2), edge_cell(3)}


def test_basic_open_of_a_top_cell_is_itself():
    assert basic_open(G1, edge_cell(3)) == {edge_cell(3)}


def test_basic_open_interior_vertex_d2_has_nine_cells():
    assert len(basic_open(G2, vertex_cell(0, 0))) == 9


def d1_thickened_star(grid: GridSpec, i: int, n: int) -> frozenset[Cell]:
    # independent interval arithmetic for a vertex star in one dimension
    verts = [vertex_cell(j) for j in range(max(i - n, -grid.L), min(i + n, grid.L) + 1)]
    edges = [edge_cell(j) for j in range(max(i - n - 1, -grid.L), min(i + n, grid.L - 1) + 1)]
    return frozenset(verts + edges)


def test_thicken_index_formula_d1():
    for i, n in [(3, 1), (0, 2), (-8, 1), (7, 3), (2, 0)]:
        got = thicken(G1, basic_open(G1, vertex_cell(i)), n)
        assert got == d1_thickened_star(G1, i, n), (i, n)


def test_thicken_index_formula_d1_edge_center():
    # edge stars thicken to vertex indices [i-n+1, i+n] and edge indices
    # [i-n, i+n], clipped to the box
    for i, n in [(3, 1), (0, 2), (-8, 2), (6, 3)]:
        got = thicken(G1, basic_open(G1, edge_cell(i)), n)
        verts = {vertex_cell(j) for j in range(max(i - n + 1, -G1.L), min(i + n, G1.L) + 1)}
        edges = {edge_cell(j) for j in range(max(i - n, -G1.L), min(i + n, G1.L - 1) + 1)}
        assert got == verts | edges, (i, n)


def test_thicken_zero_is_identity():
    s = basic_open(G2, cell(("nondeg", 0), ("deg", 1)))
    assert thicken(G2, s, 0) == s


def test_refuses_negative_thickening_and_unknown_interval_kinds():
    with pytest.raises(ValueError, match="^thickening level must be a natural number$"):
        thicken(G1, basic_open(G1, vertex_cell(0)), -1)
    with pytest.raises(ValueError, match="^unknown interval kind 'bad'$"):
        cell(("bad", 0))


def product_thickened_star(grid: GridSpec, c: Cell, n: int) -> frozenset[Cell]:
    # independent oracle: thickening a basic open factors per axis, and on one
    # axis the star of a point spans doubled coordinates [m-1, m+1] while an
    # interval spans [m, m]; each round then widens the span by 2 on each side
    per_axis = []
    for m in c.coords:
        reach = 2 * n + 1 if m % 2 == 0 else 2 * n
        lo, hi = max(m - reach, -2 * grid.L), min(m + reach, 2 * grid.L)
        per_axis.append(range(lo, hi + 1))
    return frozenset(Cell(t) for t in itertools.product(*per_axis))


def test_thicken_square_star_d2_matches_product_oracle():
    sq = cell(("nondeg", 0), ("nondeg", 0))
    got = thicken(G2, basic_open(G2, sq), 1)
    assert got == product_thickened_star(G2, sq, 1)
    # the added ring: 9 squares total, 12 edges, 4 vertices
    assert sum(1 for c in got if c.dim == 2) == 9
    assert sum(1 for c in got if c.dim == 1) == 12
    assert sum(1 for c in got if c.dim == 0) == 4


def test_thicken_basic_opens_match_product_oracle_randomly():
    rng = random.Random(11)
    for grid in (G1, G2, GridSpec(3, 0.5, 2)):
        cells = list(all_cells(grid))
        for _ in range(25):
            c = rng.choice(cells)
            n = rng.randint(0, 3)
            assert thicken(grid, basic_open(grid, c), n) == product_thickened_star(grid, c, n)


def test_is_open():
    assert is_open(G1, {edge_cell(3)})
    assert not is_open(G1, {vertex_cell(3)})  # interior vertex misses its cofaces
    rng = random.Random(5)
    cells = list(all_cells(G2))
    for _ in range(20):
        assert is_open(G2, basic_open(G2, rng.choice(cells)))


def test_saturation_steps():
    full = frozenset(all_cells(G3))
    assert saturation_steps(G3, full) == 0
    assert saturation_steps(G3, basic_open(G3, vertex_cell(0))) == 3
    assert saturation_steps(G3, basic_open(G3, vertex_cell(-3))) == 2 * G3.L
    with pytest.raises(ValueError):
        saturation_steps(G3, frozenset())


def test_saturation_bounded_by_2L_everywhere():
    for grid in (G3, G2):
        for c in all_cells(grid):
            assert saturation_steps(grid, basic_open(grid, c)) <= 2 * grid.L


# -- the closed forms against the set algebra ---------------------------------------


def box_set(grid: GridSpec, c: Cell, r: int) -> frozenset[Cell]:
    """The cells of the grid whose star_ring around c is at most r."""
    return frozenset(t for t in all_cells(grid) if star_ring(c, t) <= r)


def assert_box_chain(grid: GridSpec, c: Cell) -> int:
    """Every r up to saturation + 1: box_set(c, r) == thicken(basic_open(c), r),
    and star_ring(c, t) is the first r whose thickening holds t.  Returns the
    first r at which the thickening fills the grid."""
    sat = star_saturation(grid, c)
    cur = basic_open(grid, c)
    first_full = None
    ring: dict[Cell, int] = {}
    for r in range(sat + 2):
        # thickening the whole grid gives the whole grid: skip that round
        if r and len(cur) < grid.cell_count():
            cur = thicken(grid, cur, 1)
        assert box_set(grid, c, r) == cur, (grid, c, r)
        for t in cur:
            ring.setdefault(t, r)
        if first_full is None and len(cur) == grid.cell_count():
            first_full = r
    assert first_full == sat, (grid, c)
    assert all(star_ring(c, t) == r for t, r in ring.items()), (grid, c)
    return first_full


def symmetry_representatives(grid: GridSpec) -> list[Cell]:
    # faces and cofaces act per axis, symmetrically under m -> -m, so the set
    # algebra commutes with sign flips and axis permutations
    return [Cell(t) for t in itertools.combinations_with_replacement(
        range(0, 2 * grid.L + 1), grid.d)]


def test_star_ring_and_saturation_match_the_set_algebra_exhaustively():
    # every cell for d <= 2 and L <= 3, and d = 3 at L = 1; saturation_steps
    # is called directly on each
    for d, L in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)]:
        grid = GridSpec(d, 1.0, L)
        for c in all_cells(grid):
            sat = assert_box_chain(grid, c)
            assert saturation_steps(grid, basic_open(grid, c)) == sat
    # d = 3 at L = 2 and 3: one cell per symmetry class (all 2197 cells at
    # L = 3 take minutes of set algebra); the chain fixes saturation_steps,
    # whose definition is the first r at which it fills the grid
    for L in (2, 3):
        grid = GridSpec(3, 1.0, L)
        for c in symmetry_representatives(grid):
            assert_box_chain(grid, c)


def test_ring_cells_partition_the_grid_by_star_ring_exhaustively():
    # every center and every r up to saturation + 1: ring r lists each cell of
    # star_ring r exactly once, the rings partition the grid, and star_box(r)
    # holds rings 0..r
    for d, top in [(1, 4), (2, 3), (3, 2)]:
        for L in range(1, top + 1):
            grid = GridSpec(d, 1.0, L)
            cells = list(all_cells(grid))
            for c in cells:
                seen: dict[Cell, int] = {}
                for r in range(star_saturation(grid, c) + 2):
                    for t in ring_cells(grid, c, r):
                        assert grid.contains(t) and t not in seen, (grid, c, r, t)
                        seen[t] = r
                    assert math.prod(map(len, star_box(grid, c, r))) == len(seen), (grid, c, r)
                assert seen == {t: star_ring(c, t) for t in cells}, (grid, c)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_star_box_matches_thicken_on_larger_grids(seed):
    rng = random.Random(seed)
    d = rng.choice([1, 1, 2])
    grid = GridSpec(d, 1.0, rng.randint(4, 24 if d == 1 else 6))
    c = Cell(tuple(rng.randint(-2 * grid.L, 2 * grid.L) for _ in range(d)))
    sat = star_saturation(grid, c)
    assert saturation_steps(grid, basic_open(grid, c)) == sat
    r = rng.randint(0, sat + 1)
    assert box_set(grid, c, r) == thicken(grid, basic_open(grid, c), r)


# -- thickening algebra ----------------------------------------------------------


def random_open(grid: GridSpec, rng: random.Random) -> frozenset[Cell]:
    cells = list(all_cells(grid))
    out: frozenset[Cell] = frozenset()
    for _ in range(rng.randint(1, 3)):
        out |= thicken(grid, basic_open(grid, rng.choice(cells)), rng.randint(0, 1))
    return out


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_thicken_composes_and_inflates(n, n2, seed):
    rng = random.Random(seed)
    grid = GridSpec(rng.choice([1, 2]), 1.0, rng.randint(1, 3))
    s = random_open(grid, rng)
    assert thicken(grid, thicken(grid, s, n), n2) == thicken(grid, s, n + n2)
    assert s <= thicken(grid, s, 1)
    t = s | basic_open(grid, rng.choice(list(all_cells(grid))))
    assert thicken(grid, s, n) <= thicken(grid, t, n)


def zigzag_reachable(grid: GridSpec, s: frozenset[Cell], n: int) -> frozenset[Cell]:
    # independent oracle for membership in the n-thickening: a cell is
    # reachable iff some length-n down-up zigzag starts in s (comparabilities
    # are reflexive, so shorter zigzags embed in longer ones)
    cells = list(all_cells(grid))
    reach = set(s)
    for _ in range(n):
        down = set()
        for c in cells:
            for t in reach:
                if c.dim <= t.dim and brute_comparable(c, t):
                    down.add(c)
                    break
        up = set()
        for c in cells:
            for g in down:
                if g.dim <= c.dim and brute_comparable(g, c):
                    up.add(c)
                    break
        reach = up
    return frozenset(reach)


def test_thicken_matches_zigzag_oracle_on_small_grids():
    rng = random.Random(23)
    for grid in (GridSpec(1, 1.0, 2), GridSpec(2, 1.0, 1)):
        for _ in range(8):
            s = random_open(grid, rng)
            for n in (0, 1, 2):
                assert thicken(grid, s, n) == zigzag_reachable(grid, s, n)


# -- wire format ------------------------------------------------------------------


def test_cell_wire_round_trip():
    c = cell(("deg", -2), ("nondeg", 1))
    assert cell_to_wire(c) == [{"deg": -2}, {"nondeg": 1}]
    assert G2.check_cell(cell_from_wire(cell_to_wire(c))) == c
    with pytest.raises(ValueError):
        cell_from_wire([{"bogus": 1}])
    with pytest.raises(ValueError):
        G2.check_cell(cell_from_wire([{"deg": 99}, {"deg": 0}]))


@pytest.mark.parametrize("interval", [
    {"deg": -8, "nondeg": 99}, {"nondeg": 0, "deg": 1}, {"deg": 0, "bogus": 1},
    {"nondeg": 0, "bogus": 1}, {},
])
def test_cell_interval_must_be_exactly_one_deg_or_nondeg_key(interval):
    # an interval naming both kinds, or carrying any other key, is ambiguous
    with pytest.raises(ValueError, match="bad cell interval"):
        cell_from_wire([{"deg": 0}, interval])
    assert cell_from_wire([{"deg": 0}, {"nondeg": -1}]) == cell(("deg", 0), ("nondeg", -1))


def test_canonical_cell_order_puts_degenerate_first():
    assert cell_sort_key(vertex_cell(3)) < cell_sort_key(edge_cell(3))
    assert cell_sort_key(edge_cell(-1)) < cell_sort_key(edge_cell(0))
