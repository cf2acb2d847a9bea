"""Acceptance suite: one test per exit criterion, each printing a PASS line.

 1. fork-graph slice distances (1 and 2), under a second
 2. hook/lambda worked bound: families (0,1,0,1), ladder (3,2,1), L_B=1
 3. connected-vs-split inputs are infinite for 100 random assignments, exit 3
 4. thickening algebra across 1000 random (S, n, n') in d = 1..3
 5. distance contraction and ultrametric across 1000 random tuples
 6. oracle chain on 200 tiny instances: exhaustive <= n + L_B, promote zeroes
 7. full loss dominates basis loss on 50 tiny instances
 8. slice counts equal geometric recomputation on 500 samples in d = 1, 2
 9. near-linear scaling of the bound computation at fixed grid size
10. emitted Reeb bound equals delta * (n + L_B + 1) bit-exactly
"""

from __future__ import annotations

import json
import math
import random
import time

from mapperbound import (
    Assignment,
    CosheafGraph,
    GridSpec,
    TinyCaps,
    basis_loss,
    check_parallelogram_left,
    check_parallelogram_right,
    check_triangle_down,
    check_triangle_up,
    distance,
    edge_cell,
    exhaustive_interleaving,
    fit_grid,
    full_loss,
    geometric_pi0,
    loss_at,
    promote,
    vertex_cell,
)
from mapperbound.assignment import assignment_to_json
from mapperbound.cli import main
from mapperbound.cosheaf import to_json
from mapperbound.grid import all_cells, basic_open, faces, thicken
from mapperbound.ingest import build

import conftest as fx

V = vertex_cell
E = edge_cell


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


# -- 1 ------------------------------------------------------------------------------


def test_criterion_1_fork_distances():
    t0 = time.perf_counter()
    g = fx.fork_graph()
    built = build(g, fit_grid([g], 1.0))
    F = built.graph
    a = built.node_of_vertex(V(0), "x1")
    b = built.node_of_vertex(V(0), "x2")
    w = built.node_of_vertex(V(5), "y1")
    z = built.node_of_vertex(V(5), "y2")
    assert distance(F, V(0), 0, a, b) == 1
    assert distance(F, V(5), 0, w, z) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(f"1 fork distances ({elapsed:.3f}s)")


# -- 2 ------------------------------------------------------------------------------


def test_criterion_2_worked_bound():
    t0 = time.perf_counter()
    bF, bG = fx.hook_lam_pair()
    F, G = bF.graph, bG.graph
    a = fx.hook_lam_assignment(bF, bG)

    def family(check, args_list):
        worst = 0
        for args in args_list:
            k = 0
            while not check(*args, k)[0]:
                k += 1
            worst = max(worst, k)
        return worst

    lp = [(F, G, a, s, t) for t in F.occupied_cells() for s in faces(t)]
    rp = [(F, G, a, s, t) for t in G.occupied_cells() for s in faces(t)]
    td = [(F, G, a, s) for s in F.occupied_cells()]
    tu = [(F, G, a, s) for s in G.occupied_cells()]
    losses = (family(check_parallelogram_left, lp),
              family(check_parallelogram_right, rp),
              family(check_triangle_down, td),
              family(check_triangle_up, tu))
    assert losses == (0, 1, 0, 1)

    w = bG.node_of_vertex(V(0), "t1")
    z = bG.node_of_vertex(V(0), "t2")
    assert [distance(G, V(0), m, w, z) for m in (0, 1, 2)] == [3, 2, 1]
    amain = bF.node_of_vertex(V(0), "xm")
    btop = bF.node_on_edge(V(2), ("xj", "xb"), 0.5)
    assert distance(F, V(0), 2, amain, btop) == 1

    # frozen by an exhaustive slack sweep: fails at 0, passes from 1 on
    assert [loss_at(F, G, a, k) for k in range(4)] == [False, True, True, True]
    res = basis_loss(F, G, a)
    assert res.L_B == 1 and res.bound == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(f"2 worked bound ({elapsed:.3f}s)")


# -- 3 ------------------------------------------------------------------------------


def test_criterion_3_infinite_loss_detection(tmp_path, capsys):
    t0 = time.perf_counter()
    bF, bG = fx.split_pair()
    F, G = bF.graph, bG.graph
    f_path = tmp_path / "F.json"
    g_path = tmp_path / "G.json"
    f_path.write_text(to_json(F))
    g_path.write_text(to_json(G))
    rng = random.Random(97)
    trials = 100
    for i in range(trials):
        a = fx.random_assignment(F, G, 1, rng)
        assert not math.isfinite(basis_loss(F, G, a).L_B)
        a_path = tmp_path / "a.json"
        a_path.write_text(assignment_to_json(a))
        rc = main(["bound", "--f", str(f_path), "--g", str(g_path),
                   "--assignment", str(a_path)])
        out = capsys.readouterr().out
        assert rc == 3
        assert json.loads(out)["L_B"] == "inf"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(f"3 infinite loss x{trials} ({elapsed:.1f}s)")


# -- 4 ------------------------------------------------------------------------------


def test_criterion_4_thickening_algebra():
    rng = random.Random(101)
    grids = ([GridSpec(1, 1.0, L) for L in (1, 2, 3, 4)]
             + [GridSpec(2, 1.0, L) for L in (1, 2, 3)]
             + [GridSpec(3, 1.0, L) for L in (1, 2)])
    cells_of = {id(g): list(all_cells(g)) for g in grids}
    checked = 0
    for _ in range(1000):
        grid = rng.choice(grids)
        cells = cells_of[id(grid)]
        s = frozenset()
        for _ in range(rng.randint(1, 2)):
            s |= thicken(grid, basic_open(grid, rng.choice(cells)), rng.randint(0, 1))
        n, n2 = rng.randint(0, 2), rng.randint(0, 2)
        assert thicken(grid, thicken(grid, s, n), n2) == thicken(grid, s, n + n2)
        assert s <= thicken(grid, s, 1)
        t = s | basic_open(grid, rng.choice(cells))
        assert thicken(grid, s, n) <= thicken(grid, t, n)
        checked += 1
    assert checked >= 1000
    report(f"4 thickening algebra x{checked}")


# -- 5 ------------------------------------------------------------------------------


def test_criterion_5_distance_contraction():
    rng = random.Random(103)
    pool = []
    while len(pool) < 25:
        g = fx.random_geometric(rng, "c", rng.randint(3, 7),
                                extra_edges=rng.randint(0, 2))
        grid = fit_grid([g], 1.0)
        pool.append(build(g, grid).graph)
    checked = 0
    while checked < 1000:
        F = rng.choice(pool)
        c = rng.choice(F.occupied_cells())
        m, k = rng.randint(0, 2), rng.randint(0, 3)
        members = F.slice(c, m).members()
        if len(members) < 2:
            continue
        x, y, z = (rng.choice(members) for _ in range(3))
        base = distance(F, c, m, x, y)
        moved = distance(F, c, m + k, x, y)
        if math.isinf(base):
            assert math.isinf(moved)
        else:
            assert moved == max(0, base - k)
        assert distance(F, c, m, x, z) <= max(base, distance(F, c, m, y, z))
        checked += 1
    report(f"5 distance contraction x{checked}")


# -- 6 ------------------------------------------------------------------------------


def test_criterion_6_oracle_chain():
    t0 = time.perf_counter()
    rng = random.Random(107)
    caps = TinyCaps(max_nodes_per_side=30, max_candidates=5_000_000)
    done = 0
    while done < 200:
        gA = fx.random_geometric(rng, "a", rng.randint(2, 4))
        gB = fx.random_geometric(rng, "b", rng.randint(2, 4))
        grid = fit_grid([gA, gB], 1.0)
        if grid.L > 3:
            continue
        F = build(gA, grid).graph
        G = build(gB, grid).graph
        n = fx.feasible_level(F, G)
        a = fx.random_assignment(F, G, n, rng)
        lb = basis_loss(F, G, a).L_B
        if math.isinf(lb):
            continue
        assert basis_loss(F, G, promote(a, int(lb))).L_B == 0
        got = exhaustive_interleaving(F, G, int(n + lb), caps)
        assert got is not None and got <= n + lb
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(f"6 oracle chain x{done} ({elapsed:.1f}s)")


# -- 7 ------------------------------------------------------------------------------


def test_criterion_7_basis_loss_below_full_loss():
    rng = random.Random(109)
    caps = TinyCaps(max_nodes_per_side=30)
    done = 0
    while done < 50:
        gA = fx.random_geometric(rng, "a", rng.randint(2, 4))
        gB = fx.random_geometric(rng, "b", rng.randint(2, 4))
        grid = fit_grid([gA, gB], 1.0)
        if grid.L > 2:
            continue
        F = build(gA, grid).graph
        G = build(gB, grid).graph
        n = fx.feasible_level(F, G)
        a = fx.random_assignment(F, G, n, rng)
        lb = basis_loss(F, G, a).L_B
        fl = full_loss(F, G, a, caps).value
        if math.isinf(lb):
            assert math.isinf(fl)
        else:
            assert fl >= lb
        done += 1
    report(f"7 basis <= full loss x{done}")


# -- 8 ------------------------------------------------------------------------------


def test_criterion_8_geometric_agreement():
    rng = random.Random(113)
    checked = 0
    while checked < 500:
        d = rng.choice([1, 1, 2])
        g = fx.random_geometric(rng, "g", rng.randint(2, 5), d=d,
                                extra_edges=rng.randint(0, 1))
        grid = fit_grid([g], 1.0)
        built = build(g, grid)
        F = built.graph
        for c in F.occupied_cells():
            for r in range(4):
                cells = thicken(grid, basic_open(grid, c), r)
                want, _ = geometric_pi0(g, grid, cells)
                assert F.slice(c, r).component_count == want
                checked += 1
                if checked >= 500:
                    break
            if checked >= 500:
                break
    report(f"8 geometric agreement x{checked}")


# -- 9 ------------------------------------------------------------------------------


def strand_instance(grid: GridSpec, strands: int) -> CosheafGraph:
    """Disjoint full-height strands; element count is strands * (4L+1)."""
    nodes = []
    links = []
    for s in range(strands):
        for m in range(-2 * grid.L, 2 * grid.L + 1):
            nid = f"s{s}m{m}"
            nodes.append((nid, vertex_cell(m // 2) if m % 2 == 0 else edge_cell((m - 1) // 2)))
            if m % 2 != 0:
                links.append((nid, f"s{s}m{m - 1}"))
                links.append((nid, f"s{s}m{m + 1}"))
    return CosheafGraph(grid, nodes, links)


def test_criterion_9_near_linear_scaling():
    import gc

    grid = GridSpec(1, 1.0, 4)
    per_strand = 4 * grid.L + 1
    times = {}
    for target, runs in ((1_000, 2), (10_000, 2), (100_000, 2)):
        strands = max(1, target // per_strand)
        best = math.inf
        for _ in range(runs):
            # fresh graphs per run so every measurement is uniformly cold
            F = strand_instance(grid, strands)
            G = strand_instance(grid, strands)
            a = Assignment(n=1, phi={i: i for i in F.ids}, psi={i: i for i in F.ids})
            gc.collect()
            t0 = time.perf_counter()
            res = basis_loss(F, G, a)
            best = min(best, time.perf_counter() - t0)
            assert res.L_B == 0
        times[target] = best
    assert times[10_000] < 5.0
    assert times[10_000] / max(times[1_000], 1e-9) <= 15.0
    assert times[100_000] / max(times[10_000], 1e-9) <= 15.0
    report("9 scaling t(1e3)=%.2fs t(1e4)=%.2fs t(1e5)=%.2fs"
           % (times[1_000], times[10_000], times[100_000]))


# -- 10 -----------------------------------------------------------------------------


def test_criterion_10_reeb_bound_bit_exact():
    combos = []
    for delta in (1.0, 0.5, 0.25, 2.0, 0.125, 0.75):
        bF, bG = fx.hook_lam_pair(delta)
        a = fx.hook_lam_assignment(bF, bG)
        res = basis_loss(bF.graph, bG.graph, a)
        assert res.reeb_bound == delta * (res.n + res.L_B + 1)
        combos.append((delta, res.n, res.L_B))
    g = fx.strand_graph()
    grid = fit_grid([g], 1.0)
    F = build(g, grid).graph
    for n in (0, 1, 2):
        ident = Assignment(n=n, phi={i: i for i in F.ids}, psi={i: i for i in F.ids})
        res = basis_loss(F, F, ident)
        assert res.L_B == 0
        assert res.reeb_bound == grid.delta * (n + 0 + 1)
        combos.append((grid.delta, n, 0))
    rng = random.Random(127)
    bF, bG = fx.split_pair()
    a = fx.random_assignment(bF.graph, bG.graph, 1, rng)
    res = basis_loss(bF.graph, bG.graph, a)
    assert math.isinf(res.reeb_bound)
    combos.append((bF.grid.delta, 1, math.inf))
    assert len(combos) >= 10
    assert any(math.isinf(c[2]) for c in combos)
    report(f"10 reeb bound x{len(combos)} combos")
