"""The child interpreter: runs a workload's CLI calls in rounds and times them.

    python3 stages.py PLAN.json OUT.json

Each call goes through `mapperbound.cli.main` in this process with stdout
captured; every call loads its inputs afresh, as a CLI user does.  Whole rounds
repeat while another one should end within the plan's seconds.  The output
holds per-round stage times, the first round's outputs, any later output
that differed from it, and this process's peak RSS.  With tracing on, each
round's spans are summarized per layer, and the first round's spans are
written to the plan's trace file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from mapperbound import cli, oracle
from mapperbound.grid import Cell, GridSpec
from mapperbound.ingest import GeometricGraph

import calibration
import evaluator as ev
import tracing

STAGES = ("ingest", "bound", "check", "oracle")


def _pi0_inputs(op: dict) -> tuple[GridSpec, list]:
    """The grid and (geometric graph, open cell set) per sample, made before
    any timing."""
    spec = op["pi0"]
    grid = GridSpec.from_wire(spec["grid"])
    graphs = {side: GeometricGraph.from_json(Path(spec[key]).read_text())
              for side, key in (("f", "x"), ("g", "y"))}
    out = []
    for side, coords, radius in spec["samples"]:
        b = ev.box(tuple(coords), radius, grid.L)
        out.append((graphs[side], frozenset(Cell(c) for c in ev.box_cells(b))))
    return grid, out


def _run_cli(argv: list[str]) -> tuple[float, dict]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def _run_pi0(grid: GridSpec, inputs: list) -> tuple[float, dict]:
    t0 = time.perf_counter()
    counts = [oracle.geometric_pi0(g, grid, cells)[0] for g, cells in inputs]
    dt = time.perf_counter() - t0
    return dt, {"rc": 0, "stdout": json.dumps(counts) + "\n", "stderr": ""}


def main(plan_path: str, out_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    ops = plan["ops"]
    pi0 = {i: _pi0_inputs(op) for i, op in enumerate(ops) if "pi0" in op}
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    rounds, raw, layers, first, digests, mismatches = [], [], [], [], [], []
    start = time.perf_counter()
    # whole rounds only: start another while it should end within the budget
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) \
            <= plan["seconds"]:
        clock = calibration.Clock()
        clock.tick(force=True)
        timed = []
        for i, op in enumerate(ops):
            clock.tick()
            gc.collect()
            if i in pi0:
                dt, res = _run_pi0(*pi0[i])
            elif op["stage"] == "invalid" and tracer is not None:
                with tracer.paused():
                    dt, res = _run_cli(op["argv"])
            else:
                dt, res = _run_cli(op["argv"])
            if op["stage"] in STAGES:
                timed.append((op["stage"], dt))
            digest = hashlib.sha256(f"{res['rc']}\n{res['stdout']}".encode()).hexdigest()
            if not rounds:
                first.append(res)
                digests.append(digest)
            elif digest != digests[i]:
                mismatches.append({"round": len(rounds), "op": i})
        clock.tick(force=True)
        wall = dict.fromkeys(STAGES, 0.0)
        for stage, dt in timed:
            wall[stage] += dt
        f = clock.factor()
        scaled = {stage: dt * f for stage, dt in wall.items()}
        rounds.append(scaled)
        raw.append(wall)
        if tracer is not None:
            spans, counters, distinct = tracer.take()
            layer = tracing.summarize(spans, counters, distinct)
            layers.append({k: v * f if k.endswith((".s", "_s")) else v
                           for k, v in layer.items()})
            if len(rounds) == 1:
                Path(plan["trace_out"]).write_text(json.dumps({
                    "fields": ["name", "start", "end", "parent"],
                    "spans": spans, "counters": counters}) + "\n")

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(out_path).write_text(json.dumps({
        "rounds": rounds, "raw_rounds": raw, "layers": layers, "outputs": first,
        "mismatches": mismatches, "peak_rss_kb": peak_kb}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
