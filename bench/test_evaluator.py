"""The benchmark's evaluator against mapperbound's reference functions and
the worked examples of the test suite.

    python3 -m pytest bench/test_evaluator.py
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import evaluator as ev  # noqa: E402
from mapperbound import cosheaf  # noqa: E402
from mapperbound.assignment import basis_loss, loss_report  # noqa: E402
from mapperbound.grid import GridSpec, all_cells, basic_open, saturation_steps, thicken  # noqa: E402
from mapperbound.ingest import build, fit_grid  # noqa: E402


def _suite_fixtures():
    """The worked examples, loaded from the test suite's conftest by path."""
    spec = importlib.util.spec_from_file_location(
        "mapperbound_suite_fixtures", ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


fx = _suite_fixtures()


def _instance(F, G, a) -> ev.Instance:
    return ev.Instance(ev.Cosheaf(cosheaf.to_json_obj(F)), ev.Cosheaf(cosheaf.to_json_obj(G)),
                       a.to_json_obj())


def test_box_is_the_thickened_star():
    for d in (1, 2):
        for L in (1, 2, 3):
            grid = GridSpec(d, 1.0, L)
            for c in all_cells(grid):
                star = basic_open(grid, c)
                sat = saturation_steps(grid, star)
                assert ev.saturation(c.coords, L) == sat
                cur = star
                for r in range(sat + 2):
                    got = set(ev.box_cells(ev.box(c.coords, r, L)))
                    assert got == {x.coords for x in cur}, (d, L, c, r)
                    cur = thicken(grid, cur, 1)


def test_hook_lambda_loss_is_one():
    bF, bG = fx.hook_lam_pair()
    a = fx.hook_lam_assignment(bF, bG)
    inst = _instance(bF.graph, bG.graph, a)
    assert inst.violations() == []
    assert inst.least_slack() == 1
    assert ev.verify_bound(inst, basis_loss(bF.graph, bG.graph, a).to_json_obj()) == []


def test_split_pair_loss_is_infinite():
    bF, bG = fx.split_pair()
    a = fx.random_assignment(bF.graph, bG.graph, 1, random.Random(127))
    inst = _instance(bF.graph, bG.graph, a)
    assert inst.least_slack() == ev.INF
    result = basis_loss(bF.graph, bG.graph, a).to_json_obj()
    assert result["L_B"] == "inf"
    assert ev.verify_bound(inst, result) == []


def test_off_by_one_is_rejected():
    bF, bG = fx.hook_lam_pair()
    a = fx.hook_lam_assignment(bF, bG)
    inst = _instance(bF.graph, bG.graph, a)
    right = basis_loss(bF.graph, bG.graph, a).to_json_obj()
    for lb in (right["L_B"] - 1, right["L_B"] + 1):
        wrong = dict(right, L_B=lb, bound=a.n + lb, reeb_bound=1.0 * (a.n + lb + 1))
        assert ev.verify_bound(inst, wrong), lb
    assert ev.verify_bound(inst, dict(right, bound=right["bound"] + 1))
    assert ev.verify_bound(inst, dict(right, reeb_bound=right["reeb_bound"] + 1e-12))
    assert ev.verify_bound(inst, dict(right, witnesses=right["witnesses"][1:]))


def test_check_reports_agree_and_flips_are_rejected():
    bF, bG = fx.hook_lam_pair()
    a = fx.hook_lam_assignment(bF, bG)
    inst = _instance(bF.graph, bG.graph, a)
    for k in range(3):
        ok, witnesses = loss_report(bF.graph, bG.graph, a, k)
        report = {"k": k, "pass": ok, "witnesses": [w.to_json_obj() for w in witnesses]}
        assert ev.verify_check(inst, k, report) == []
        assert ev.verify_check(inst, k, dict(report, **{"pass": not ok}))


def test_random_pairs_agree_with_basis_loss():
    rng = random.Random(2307)
    for d, nv, chords in ((1, 6, 1), (1, 9, 2), (2, 5, 1), (2, 7, 2)):
        X = fx.random_geometric(rng, "x", nv, d=d, extra_edges=chords)
        Y = fx.random_geometric(rng, "y", nv, d=d, extra_edges=chords)
        grid = fit_grid([X, Y], 1.0)
        F, G = build(X, grid).graph, build(Y, grid).graph
        n = fx.feasible_level(F, G)
        a = fx.random_assignment(F, G, n, rng)
        inst = _instance(F, G, a)
        assert inst.violations() == []
        result = basis_loss(F, G, a).to_json_obj()
        assert inst.least_slack() == result["L_B"], (d, nv)
        assert ev.verify_bound(inst, result) == []
