"""Benchmark of mapperbound's ingest -> bound pipeline, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The parent process makes the seeded inputs
(timed as set-up), hands the CLI calls of one round to a child interpreter
that does nothing else (stages.py), and checks every output of the first
round with the independent evaluator, plus the oracles' own answers.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics; with --trace 1 the per-layer metrics of a traced child instead.
Full results and traces go to bench/_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
CHILD_GRACE_S = 150


def _fail(msg: str) -> int:
    sys.stderr.write(f"run.py: {msg}\n")
    return 2


def _outputs_ok(plan, outputs, failed_ops) -> list[str]:
    """Check the first round's outputs; return one line per wrong output.

    The known fault (a bound on an invalid cosheaf that exits 0) goes to
    `failed_ops` instead, since it is an operation that failed.
    """
    import evaluator as ev

    problems: list[str] = []
    by_pair: dict[str, dict[str, dict]] = {}
    for op, res in zip(plan.ops(), outputs):
        by_pair.setdefault(op["pair"], {})[op["what"]] = res
    for pair in plan.pairs:
        res = by_pair[pair.name]
        where = f"{plan.workload}/{pair.name}"
        for what, text, path in (("ingest-f", pair.f_text, pair.f_path),
                                 ("ingest-g", pair.g_text, pair.g_path)):
            out = res[what]
            if out["rc"] != 0:
                problems.append(f"{where} {what}: exit {out['rc']}: {out['stderr'][-300:]}")
                continue
            if Path(path).read_text() != text:
                problems.append(f"{where} {what}: cosheaf file differs from the set-up build")
        if problems:
            continue
        inst = ev.Instance.load(pair.f_path, pair.g_path, pair.a_path)
        problems += [f"{where} assignment: {p}" for p in inst.violations()[:3]]

        out = res["bound"]
        result = json.loads(out["stdout"]) if out["stdout"] else {}
        want_rc = 3 if result.get("L_B") == ev.INF else 0
        if out["rc"] != want_rc:
            problems.append(f"{where} bound: exit {out['rc']}, expected {want_rc}")
            continue
        problems += [f"{where} bound: {p}" for p in ev.verify_bound(inst, result)]

        out = res["check"]
        report = json.loads(out["stdout"]) if out["stdout"] else {}
        if out["rc"] != (0 if report.get("pass") else 1):
            problems.append(f"{where} check: exit {out['rc']}")
        else:
            problems += [f"{where} check: {p}" for p in ev.verify_check(inst, pair.k, report)]

        if pair.tiny:
            problems += _tiny_oracles(where, res, result)
        else:
            counts = json.loads(res["pi0"]["stdout"])
            sides = {"f": inst.F, "g": inst.G}
            for (side, coords, radius), got in zip(pair.pi0_samples, counts):
                want = sides[side].component_count(tuple(coords), radius)
                if got != want:
                    problems.append(f"{where} pi0 {side}{coords}@{radius}: oracle {got}, "
                                    f"cosheaf file {want}")
    if plan.invalid_argv is not None:
        out = by_pair["invalid"]["bound-invalid"]
        body = json.loads(out["stdout"]) if out["stdout"].startswith("{") else {}
        if out["rc"] != 2 or "violations" not in body:
            failed_ops.append({
                "op": "bound on a cosheaf with two links from one node to one face cell",
                "expected": "exit 2 with the violations",
                "got": f"exit {out['rc']}: {out['stdout'].strip()[:200]}"})
    return problems


def _tiny_oracles(where, res, result) -> list[str]:
    out = []
    for what in ("exact", "full-loss"):
        if res[what]["rc"] != 0:
            out.append(f"{where} oracle {what}: exit {res[what]['rc']}: "
                       f"{res[what]['stderr'][-300:]}")
    if out:
        return out
    bound, lb = result["bound"], result["L_B"]
    exact = json.loads(res["exact"]["stdout"])["oracle"]
    d_i = exact["d_I"]
    if bound != "inf":
        if not isinstance(d_i, int):
            out.append(f"{where} exact: no interleaving up to {exact['n_max']}, bound {bound}")
        elif d_i > bound:
            out.append(f"{where} exact: d_I = {d_i} exceeds the bound {bound}")
    full = json.loads(res["full-loss"]["stdout"])["oracle"]["L"]
    if (full != "inf" and (lb == "inf" or full < lb)):
        out.append(f"{where} full-loss: L = {full} is below L_B = {lb}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mapperbound" / "__init__.py").is_file():
        return _fail(f"no mapperbound sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import calibration
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")

    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "_work" / f"{tag}-{os.getpid()}"
    try:
        clock, setup_raw = calibration.Clock(), []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            clock.tick(force=True)
            t0 = time.perf_counter()
            plan = workloads.prepare(args.workload, args.seed, work)
            setup_raw.append(time.perf_counter() - t0)
        clock.tick(force=True)
        setup = [dt * clock.factor() for dt in setup_raw]

        ops = plan.ops()
        plan_path, out_path = work / "plan.json", work / "child.json"
        plan_path.write_text(json.dumps({
            "ops": ops, "seconds": args.seconds, "trace": bool(args.trace),
            "trace_out": str(results / f"{tag}.spans.json")}))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "stages.py"), str(plan_path), str(out_path)],
            env=env, timeout=args.seconds + CHILD_GRACE_S)
        if proc.returncode != 0:
            return _fail(f"the child interpreter exited with {proc.returncode}")
        child = json.loads(out_path.read_text())

        failed_ops: list[dict] = []
        problems = _outputs_ok(plan, child["outputs"], failed_ops)
        problems += [f"output of op {m['op']} changed in round {m['round']}"
                     for m in child["mismatches"]]
        rounds = child["rounds"]
        attempted = len(ops) * len(rounds)
        failed = len(failed_ops) * len(rounds)

        if args.trace:
            metrics = {}
            for name in child["layers"][0]:
                unit = "s" if name.endswith("_s") or name.endswith(".s") else (
                    "ratio" if name.endswith("ratio") else "count")
                value = statistics.median(r[name] for r in child["layers"])
                metrics[name] = {"value": value, "unit": unit}
            for stage in ("ingest", "bound", "check", "oracle"):
                metrics[f"traced.{stage}_s"] = {
                    "value": statistics.median(r[stage] for r in rounds), "unit": "s"}
        else:
            metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
            for stage in ("ingest", "bound", "check", "oracle"):
                metrics[f"{stage}_s"] = {
                    "value": statistics.median(r[stage] for r in rounds), "unit": "s"}
            metrics["peak_rss_mb"] = {"value": child["peak_rss_kb"] / 1024, "unit": "MB"}

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "setup_runs_s": setup,
                  "setup_raw_s": setup_raw, "rounds": rounds,
                  "raw_rounds": child["raw_rounds"],
                  "layers": child["layers"], "problems": problems,
                  "failed_operations": failed_ops, "metrics": metrics}
        (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        for p in problems[:20]:
            sys.stderr.write(f"WRONG: {p}\n")
        print(json.dumps({"rounds": len(rounds), "failed_operations": failed_ops}))
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
