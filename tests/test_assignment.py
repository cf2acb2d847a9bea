"""Assignment validation, the four diagram checks, and the basis loss."""

from __future__ import annotations

import math
import random

import pytest

from mapperbound import (
    Assignment,
    basis_loss,
    check_parallelogram_left,
    check_parallelogram_right,
    check_triangle_down,
    check_triangle_up,
    diameter,
    distance,
    edge_cell,
    fit_grid,
    loss_at,
    loss_report,
    promote,
    reeb_bound,
    validate_assignment,
    vertex_cell,
)
from mapperbound.assignment import AssignmentError, assignment_to_json, result_to_json
from mapperbound.grid import Cell, basic_open, faces, thicken
from mapperbound.ingest import build

from conftest import (
    feasible_level,
    hook_lam_pair,
    hook_lam_assignment,
    random_assignment,
    random_geometric,
    split_pair,
)

V = vertex_cell
E = edge_cell


def family_minimum(check, args_list, k_max=12):
    """Least slack at which every listed diagram passes; the family loss."""
    worst = 0
    for args in args_list:
        k = 0
        while k <= k_max and not check(*args, k)[0]:
            k += 1
        worst = max(worst, k)
    return worst


def all_pairs(graph):
    return [(s, t) for t in graph.occupied_cells() for s in faces(t)]


# -- validation ---------------------------------------------------------------------


def test_chase_assignment_is_valid(chase):
    F, G, a = chase
    assert validate_assignment(F, G, a) == []


def test_radius_violation_reported(chase):
    F, G, a = chase
    bad = Assignment(n=1, phi=dict(a.phi, b="g3"), psi=dict(a.psi))
    msgs = validate_assignment(F, G, bad)
    assert len(msgs) == 1 and "radius" in msgs[0] and "b" in msgs[0]


def test_totality_violation_reported(chase):
    F, G, a = chase
    phi = dict(a.phi)
    del phi["b"]
    partial = Assignment(n=1, phi=phi, psi=dict(a.psi))
    msgs = validate_assignment(F, G, partial)
    assert len(msgs) == 1 and "missing node b" in msgs[0]
    # the diagram checks refuse a partial map instead of chasing a missing pointer
    for check in (lambda: loss_at(F, G, partial, 0), lambda: loss_report(F, G, partial, 0),
                  lambda: check_parallelogram_left(F, G, partial, V(0), E(0), 0),
                  lambda: check_parallelogram_right(F, G, partial, V(0), E(0), 0),
                  lambda: check_triangle_down(F, G, partial, V(0), 0),
                  lambda: check_triangle_up(F, G, partial, V(0), 0)):
        with pytest.raises(AssignmentError, match="missing node b"):
            check()
    with pytest.raises(AssignmentError, match="missing node b"):
        basis_loss(F, G, partial)


def test_every_loss_entry_point_refuses_an_invalid_assignment(chase):
    # the loss is defined for assignments only: each entry point validates
    # first and raises with validate_assignment's messages
    F, G, a = chase
    bad = Assignment(n=1, phi=dict(a.phi, b="g3"), psi=dict(a.psi, x="f4"))
    want = validate_assignment(F, G, bad)
    assert len(want) == 2 and all("radius" in m for m in want)
    for call in (lambda: basis_loss(F, G, bad), lambda: loss_at(F, G, bad, 0),
                 lambda: loss_report(F, G, bad, 1),
                 lambda: check_parallelogram_left(F, G, bad, V(0), E(0), 0),
                 lambda: check_parallelogram_right(F, G, bad, V(0), E(0), 0),
                 lambda: check_triangle_down(F, G, bad, V(0), 0),
                 lambda: check_triangle_up(F, G, bad, V(0), 0)):
        with pytest.raises(AssignmentError) as err:
            call()
        assert err.value.violations == want


def test_grid_mismatch_raises(chase, fork):
    F, G, a = chase
    with pytest.raises(AssignmentError):
        validate_assignment(F, fork.graph, a)


def test_checks_refuse_cells_off_the_grid(chase):
    F, G, a = chase
    top = 2 * F.grid.L  # doubled coordinate of the last vertex on the axis
    off_grid = "is not a cell of this grid"
    for check in (lambda: check_triangle_down(F, G, a, Cell((top + 3,)), 0),
                  lambda: check_triangle_up(F, G, a, Cell((top + 3,)), 0),
                  lambda: check_parallelogram_left(F, G, a, Cell((top + 2,)), Cell((top + 3,)), 0),
                  # sigma on the grid, tau a coface of it just outside
                  lambda: check_parallelogram_left(F, G, a, Cell((top,)), Cell((top + 1,)), 0),
                  lambda: check_parallelogram_right(F, G, a, Cell((top,)), Cell((top + 1,)), 0)):
        with pytest.raises(ValueError, match=off_grid):
            check()
    assert check_parallelogram_left(F, G, a, Cell((top,)), Cell((top - 1,)), 0)[0]


def reference_violations(F, G, a) -> list[str]:
    # the set-algebra formulation: membership in thicken(basic_open(cell), n)
    grid = F.grid
    out = []
    for side, src, dst, ptr in (("phi", F, G, a.phi), ("psi", G, F, a.psi)):
        for nid in src.ids:
            tgt = ptr.get(nid)
            if tgt is None:
                out.append(f"{side} is missing node {nid}")
            elif tgt not in dst.index:
                out.append(f"{side}({nid}) = {tgt} is not a node of the target")
            elif dst.cell_of(tgt) not in thicken(grid, basic_open(grid, src.cell_of(nid)), a.n):
                out.append(f"{side}({nid}) = {tgt} lies outside the level-{a.n} radius")
    return out


def test_validate_assignment_matches_the_set_algebra_reference():
    rng = random.Random(67)
    outside = 0
    for _ in range(30):
        d = rng.choice([1, 2])
        gA = random_geometric(rng, "a", rng.randint(2, 5), d=d)
        gB = random_geometric(rng, "b", rng.randint(2, 5), d=d)
        grid = fit_grid([gA, gB], 1.0)
        F, G = build(gA, grid).graph, build(gB, grid).graph
        # any target at all: many land outside the radius
        phi = {i: rng.choice(G.ids) for i in F.ids}
        psi = {j: rng.choice(F.ids) for j in G.ids}
        if rng.random() < 0.3:
            del phi[rng.choice(F.ids)]
        if rng.random() < 0.3:
            psi[rng.choice(G.ids)] = "nowhere"
        a = Assignment(n=rng.randint(0, 2), phi=phi, psi=psi)
        want = reference_violations(F, G, a)
        assert validate_assignment(F, G, a) == want
        outside += sum("radius" in m for m in want)
    assert outside > 0


# -- the pointer chases of the narrative example --------------------------------------


def test_chase_parallelogram_left_fails_at_one(chase):
    F, G, a = chase
    ok, wit = check_parallelogram_left(F, G, a, V(0), E(0), 1)
    assert not ok
    assert [w.element for w in wit] == ["bc"]


def test_chase_triangles_commute_at_one(chase):
    F, G, a = chase
    assert check_triangle_down(F, G, a, V(0), 1)[0]
    assert check_triangle_up(F, G, a, V(1), 1)[0]


def test_chase_basis_loss(chase):
    F, G, a = chase
    res = basis_loss(F, G, a)
    assert res.L_B == 2 and res.bound == 3


# -- the bound fixture: family values (0, 1, 0, 1) -------------------------------------


def test_four_family_losses(hook_lam, hook_lam_asg):
    bF, bG = hook_lam
    F, G = bF.graph, bG.graph
    a = hook_lam_asg
    assert validate_assignment(F, G, a) == []
    lp = [(F, G, a, s, t) for s, t in all_pairs(F)]
    rp = [(F, G, a, s, t) for s, t in all_pairs(G)]
    td = [(F, G, a, s) for s in F.occupied_cells()]
    tu = [(F, G, a, s) for s in G.occupied_cells()]
    assert family_minimum(check_parallelogram_left, lp) == 0
    assert family_minimum(check_parallelogram_right, rp) == 1
    assert family_minimum(check_triangle_down, td) == 0
    assert family_minimum(check_triangle_up, tu) == 1


def test_bound_fixture_loss_result(hook_lam, hook_lam_asg):
    bF, bG = hook_lam
    res = basis_loss(bF.graph, bG.graph, hook_lam_asg)
    assert res.L_B == 1 and res.bound == 2
    assert res.reeb_bound == 3.0
    assert [loss_at(bF.graph, bG.graph, hook_lam_asg, k) for k in range(3)] == [
        False, True, True]


def test_identity_self_comparison(fork):
    F = fork.graph
    ident = Assignment(n=0, phi={i: i for i in F.ids}, psi={i: i for i in F.ids})
    res = basis_loss(F, F, ident)
    assert res.L_B == 0 and res.bound == 0
    for s, t in all_pairs(F):
        assert check_parallelogram_left(F, F, ident, s, t, 0)[0]
        assert check_parallelogram_right(F, F, ident, s, t, 0)[0]
    for s in F.occupied_cells():
        assert check_triangle_down(F, F, ident, s, 0)[0]
        assert check_triangle_up(F, F, ident, s, 0)[0]


def test_infinite_loss(split):
    bF, bG = split
    F, G = bF.graph, bG.graph
    rng = random.Random(41)
    a = random_assignment(F, G, 1, rng)
    res = basis_loss(F, G, a)
    assert math.isinf(res.L_B) and math.isinf(res.bound)
    assert math.isinf(res.reeb_bound)
    # a triangle stays failed at every slack up to saturation; every center
    # saturates by radius 2L
    cap = 2 * F.grid.L
    assert not loss_at(F, G, a, cap)
    assert loss_at(F, G, a, cap + 3) == loss_at(F, G, a, cap)


# -- equivalences and algebraic properties -----------------------------------------------


def small_random_instance(rng):
    gA = random_geometric(rng, "a", rng.randint(2, 4))
    gB = random_geometric(rng, "b", rng.randint(2, 4))
    grid = fit_grid([gA, gB], 1.0)
    F = build(gA, grid).graph
    G = build(gB, grid).graph
    return F, G


def test_family_minimum_equals_elementwise_distances(hook_lam, hook_lam_asg):
    # the least slack passing a parallelogram equals the largest pointwise
    # slice distance between the two chased images, per the definition
    bF, bG = hook_lam
    F, G = bF.graph, bG.graph
    a = hook_lam_asg
    for s, t in all_pairs(G):
        k = 0
        while not check_parallelogram_right(F, G, a, s, t, k)[0]:
            k += 1
        worst = 0
        for y in G.elements_of(t):
            d = distance(F, s, a.n, a.psi[y], a.psi[G.face_image(y, s)])
            worst = max(worst, d)
        assert k == worst
    for s, t in all_pairs(F):
        k = 0
        while not check_parallelogram_left(F, G, a, s, t, k)[0]:
            k += 1
        worst = max(
            (distance(G, s, a.n, a.phi[x], a.phi[F.face_image(x, s)])
             for x in F.elements_of(t)), default=0)
        assert k == worst
    for s in G.occupied_cells():
        k = 0
        while not check_triangle_up(F, G, a, s, k)[0]:
            k += 1
        worst = 0
        for y in G.elements_of(s):
            d = distance(G, s, 2 * a.n, y, a.phi[a.psi[y]])
            worst = max(worst, math.ceil(d / 2) if not math.isinf(d) else d)
        assert k == worst
    for s in F.occupied_cells():
        k = 0
        while not check_triangle_down(F, G, a, s, k)[0]:
            k += 1
        worst = 0
        for x in F.elements_of(s):
            d = distance(F, s, 2 * a.n, x, a.psi[a.phi[x]])
            worst = max(worst, math.ceil(d / 2) if not math.isinf(d) else d)
        assert k == worst


def slice_scan_distance(graph, c, m, x, y):
    """distance by a radius-by-radius scan of slices from m to saturation."""
    for r in range(m, max(m, graph.saturation(c)) + 1):
        sl = graph.slice(c, r)
        if sl.component_of(x) == sl.component_of(y):
            return r - m
    return math.inf


def differential_pairs():
    """Seeded random pairs in d = 1, 2 and 3, each with a random assignment at
    its least feasible level, then split pairs whose loss is infinite."""
    rng = random.Random(53)
    for _ in range(12):
        F, G = small_random_instance(rng)
        yield F, G, random_assignment(F, G, feasible_level(F, G), rng)
    for d, count, nv, denom, spread, chords in ((1, 6, 9, 4, 12, 2), (2, 6, 4, 2, 4, 1),
                                                (3, 3, 3, 2, 2, 1)):
        for _ in range(count):
            gA, gB = (random_geometric(rng, tag, nv, d=d, denom=denom, spread=spread,
                                       extra_edges=chords) for tag in "ab")
            grid = fit_grid([gA, gB], 1.0)
            F, G = build(gA, grid).graph, build(gB, grid).graph
            yield F, G, random_assignment(F, G, feasible_level(F, G), rng)
    bF, bG = split_pair()
    for seed in range(3):
        yield bF.graph, bG.graph, random_assignment(bF.graph, bG.graph, 1, random.Random(seed))


def test_loss_at_monotone_and_binary_search_agrees():
    # the sweep's L_B and witnesses against loss_at and loss_report at every
    # slack; distance and diameter against a scan of slices
    dims, infinite = set(), 0
    for F, G, a in differential_pairs():
        dims.add(F.grid.d)
        cap = 2 * F.grid.L  # every center's saturation radius is at most 2L
        sweep = [loss_at(F, G, a, k) for k in range(cap + 1)]
        assert sweep == sorted(sweep)  # False... then True...
        res = basis_loss(F, G, a)
        if True in sweep:
            assert res.L_B == sweep.index(True)
            want = loss_report(F, G, a, res.L_B - 1)[1] if res.L_B else []
        else:
            assert math.isinf(res.L_B)
            infinite += 1
            want = loss_report(F, G, a, cap)[1]
        assert res.witnesses == want[:10]

        rng = random.Random(len(F.ids) + len(G.ids))
        for graph in (F, G):
            centers = sorted({f for c in graph.occupied_cells() for f in faces(c) | {c}})
            for c in rng.sample(centers, min(4, len(centers))):
                for m in (0, 1, 2):
                    sl = graph.slice(c, m)
                    reps, members = sl.representatives(), sl.members()
                    assert diameter(graph, c, m) == max(
                        (slice_scan_distance(graph, c, m, x, y) for x in reps for y in reps),
                        default=0)
                    for _ in range(6 if members else 0):
                        x, y = rng.choice(members), rng.choice(members)
                        assert distance(graph, c, m, x, y) == slice_scan_distance(graph, c, m, x, y)
    assert dims == {1, 2, 3} and infinite >= 3


def test_promote_properties(hook_lam, hook_lam_asg):
    bF, bG = hook_lam
    F, G = bF.graph, bG.graph
    a = hook_lam_asg
    assert promote(a, 0).n == a.n and promote(a, 0).phi == a.phi
    res = basis_loss(F, G, a)
    pro = promote(a, int(res.L_B))
    assert validate_assignment(F, G, pro) == []
    assert basis_loss(F, G, pro).L_B == 0


def test_role_symmetry():
    rng = random.Random(59)
    for _ in range(10):
        F, G = small_random_instance(rng)
        n = feasible_level(F, G)
        a = random_assignment(F, G, n, rng)
        fwd = basis_loss(F, G, a).L_B
        mirrored = Assignment(n=a.n, phi=dict(a.psi), psi=dict(a.phi))
        rev = basis_loss(G, F, mirrored).L_B
        assert fwd == rev or (math.isinf(fwd) and math.isinf(rev))


def test_loss_bounded_by_slice_diameters():
    rng = random.Random(61)
    for _ in range(10):
        F, G = small_random_instance(rng)
        n = feasible_level(F, G)
        a = random_assignment(F, G, n, rng)
        lb = basis_loss(F, G, a).L_B
        if math.isinf(lb):
            continue
        centers = set()
        for graph in (F, G):
            for c in graph.occupied_cells():
                centers.add(c)
                centers.update(faces(c))
        cap = 0
        for graph in (F, G):
            for c in centers:
                for m in (n, 2 * n):
                    cap = max(cap, diameter(graph, c, m))
        assert lb <= cap


# -- witnesses and output -----------------------------------------------------------------


def test_witnesses_deterministic_and_capped(hook_lam, hook_lam_asg):
    bF, bG = hook_lam
    res1 = basis_loss(bF.graph, bG.graph, hook_lam_asg)
    fF, fG = hook_lam_pair()  # fresh graphs: nothing memoized from the first call
    res2 = basis_loss(fF.graph, fG.graph, hook_lam_assignment(fF, fG))
    assert result_to_json(res1) == result_to_json(res2)
    assert len(res1.witnesses) <= 10
    kinds = [w.kind for w in res1.witnesses]
    assert kinds == sorted(kinds, key=["parallelogram_left", "parallelogram_right",
                                       "triangle_down", "triangle_up"].index)
    assert res1.witnesses[0].kind == "parallelogram_right"


def test_zero_loss_has_no_witnesses(fork):
    F = fork.graph
    ident = Assignment(n=0, phi={i: i for i in F.ids}, psi={i: i for i in F.ids})
    assert basis_loss(F, F, ident).witnesses == []


def test_loss_report_lists_failures(hook_lam, hook_lam_asg):
    bF, bG = hook_lam
    ok0, wit0 = loss_report(bF.graph, bG.graph, hook_lam_asg, 0)
    assert not ok0 and wit0
    ok1, wit1 = loss_report(bF.graph, bG.graph, hook_lam_asg, 1)
    assert ok1 and wit1 == []


def test_assignment_json_round_trip(chase):
    _, _, a = chase
    text = assignment_to_json(a)
    back = Assignment.from_json(text)
    assert back.n == a.n and back.phi == a.phi and back.psi == a.psi


# -- the scaled Reeb bound ------------------------------------------------------------------


def test_reeb_bound_arithmetic(hook_lam, hook_lam_asg):
    bF, bG = hook_lam
    res = basis_loss(bF.graph, bG.graph, hook_lam_asg)
    assert reeb_bound(res, 0.5) == 1.5  # n=1, L_B=1
    assert reeb_bound(res, bF.grid.delta) == res.reeb_bound


def test_reeb_bound_infinite(split):
    bF, bG = split
    a = random_assignment(bF.graph, bG.graph, 1, random.Random(3))
    res = basis_loss(bF.graph, bG.graph, a)
    assert math.isinf(reeb_bound(res, 0.25))


def test_reeb_bound_rejects_higher_dimensions():
    rng = random.Random(67)
    g = random_geometric(rng, "q", 3, d=2)
    grid = fit_grid([g], 1.0)
    F = build(g, grid).graph
    ident = Assignment(n=0, phi={i: i for i in F.ids}, psi={i: i for i in F.ids})
    res = basis_loss(F, F, ident)
    assert res.reeb_bound is None
    with pytest.raises(AssignmentError):
        reeb_bound(res, 1.0)


def test_scaled_fixture_keeps_its_combinatorics():
    for delta in (0.5, 0.25, 2.0):
        bF, bG = hook_lam_pair(delta)
        a = hook_lam_assignment(bF, bG)
        res = basis_loss(bF.graph, bG.graph, a)
        assert res.L_B == 1
        assert res.reeb_bound == delta * (1 + 1 + 1)
