"""Command-line front end.

Subcommands: ingest, bound, check, oracle, export-dot.  All JSON output is
key-sorted and newline-terminated so fixtures diff cleanly; identical inputs
produce byte-identical output.  The --jobs flag of bound and check is parsed
and ignored; it stays because the benchmark's workloads pass it.

bound and check read the merge radii of the library's one diagram-check
core, which validates the assignment before scoring it.  The oracle's exact
and full-loss modes label components on their own, and its pi0 mode compares
slice component counts with the geometry; full-loss refuses an invalid
assignment itself, with the core's messages but without the core's code.

Exit codes: 0 success or passing check, 1 failing check or oracle
disagreement, 2 invalid input, 3 infinite bound.  Every cosheaf file is
validated on load.  main reports all invalid input: an InvalidInput carrying
violations prints one stdout JSON line {"error": subject, "violations": [...]},
any other refusal one "error: " line on stderr, led by a refused file's path.

main pauses the cyclic garbage collector for the one command it runs and
then restores the caller's setting: a command builds large acyclic JSON trees
and node and link lists, which the collector would traverse again and again
although reference counting frees them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from pathlib import Path

from . import assignment as asg
from . import cosheaf, ingest, oracle
from .grid import GridSpec, InvalidInput, basic_open, thicken


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _read(path: str, parse, parse_float=None):
    """parse(the JSON value in the file at `path`); a refusal of the file's
    content, or JSON nested too deep to parse, is raised again with the path
    in front of its message."""
    try:
        with open(path) as fh:
            return parse(json.load(fh, parse_float=parse_float))
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _load_cosheaf(path: str) -> cosheaf.CosheafGraph:
    F = _read(path, cosheaf.from_json_obj)
    problems = cosheaf.validate(F)
    if problems:
        raise cosheaf.CosheafError(f"invalid cosheaf {path}", problems)
    return F


def _grid_of(obj) -> GridSpec:  # a GridSpec object, or any object with a grid key
    return GridSpec.from_wire(obj.get("grid", obj) if isinstance(obj, dict) else obj)


def cmd_ingest(args: argparse.Namespace) -> int:
    g = _read(args.input, ingest.GeometricGraph.from_json_obj, ingest.parse_decimal)
    if args.grid and not 0 < args.delta < math.inf:
        raise ingest.IngestError("delta must be positive and finite")
    grid = _read(args.grid, _grid_of) if args.grid else ingest.fit_grid([g], args.delta)
    if grid.delta != args.delta:
        raise ingest.IngestError(
            f"--delta {args.delta} differs from the grid file's delta {grid.delta}")
    F = ingest.build_cosheaf(g, grid)
    Path(args.output).write_text(cosheaf.to_json(F))
    _emit({
        "grid": grid.to_wire(),
        "nodes": F.node_count(),
        "links": F.link_count(),
        "elements_by_dim": {str(k): v for k, v in sorted(F.elements_by_dim().items())},
        "output": args.output,
    })
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    F = _load_cosheaf(args.f)
    G = _load_cosheaf(args.g)
    a = _read(args.assignment, asg.Assignment.from_json_obj)
    result = asg.basis_loss(F, G, a)
    sys.stdout.write(asg.result_to_json(result))
    return 3 if math.isinf(result.L_B) else 0


def cmd_check(args: argparse.Namespace) -> int:
    F = _load_cosheaf(args.f)
    G = _load_cosheaf(args.g)
    a = _read(args.assignment, asg.Assignment.from_json_obj)
    ok, witnesses = asg.loss_report(F, G, a, args.k)
    _emit({"k": args.k, "pass": ok, "witnesses": [w.to_json_obj() for w in witnesses]})
    return 0 if ok else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    caps = oracle.TinyCaps() if args.cap is None else oracle.TinyCaps(max_nodes_per_side=args.cap)
    if args.mode in ("exact", "full-loss") and not args.g:
        raise ValueError(f"--g is required for {args.mode}")
    if args.mode == "exact":
        F = _load_cosheaf(args.f)
        G = _load_cosheaf(args.g)
        n_max = args.n_max if args.n_max is not None else 2 * F.grid.L
        got = oracle.exhaustive_interleaving(F, G, n_max, caps)
        _emit({"oracle": {
            "mode": "exact",
            "d_I": got if got is not None else f">{n_max}",
            "n_max": n_max,
        }})
        return 0
    if args.mode == "full-loss":
        if not args.assignment:
            raise asg.AssignmentError("--assignment is required for full-loss")
        F = _load_cosheaf(args.f)
        G = _load_cosheaf(args.g)
        a = _read(args.assignment, asg.Assignment.from_json_obj)
        rep = oracle.full_loss(F, G, a, caps)
        _emit({"oracle": {
            "mode": "full-loss",
            "L": cosheaf.fmt_extended(rep.value),
            "consistent_extension": rep.consistent_extension,
            "opens": rep.opens,
        }})
        return 0
    # pi0: geometric graphs in, slice counts cross-checked against direct
    # segment arithmetic over every occupied cell at radii 0..2
    graphs = [_read(path, ingest.GeometricGraph.from_json_obj, ingest.parse_decimal)
              for path in (args.f, args.g) if path]
    grid = ingest.fit_grid(graphs, args.delta)
    samples = 0
    disagreements = []
    for g in graphs:
        built = ingest.build_cosheaf(g, grid)
        for center in built.occupied_cells():
            for radius in range(3):
                samples += 1
                got = built.slice(center, radius).component_count
                cells = thicken(grid, basic_open(grid, center), radius)
                want, _ = oracle.geometric_pi0(g, grid, cells)
                if got != want:
                    disagreements.append({
                        "cell": cosheaf.cell_to_wire(center),
                        "radius": radius, "slice": got, "pi0": want,
                    })
    _emit({"oracle": {
        "mode": "pi0", "samples": samples,
        "agreements": samples - len(disagreements),
        "disagreements": disagreements,
    }})
    return 0 if not disagreements else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    F = _load_cosheaf(args.f)
    sys.stdout.write(cosheaf.to_dot(F))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mapperbound")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ingest", help="build a cosheaf file from a geometric graph")
    q.add_argument("--input", required=True)
    q.add_argument("--delta", type=float, required=True,
                   help="grid step; with --grid, must equal that grid's delta")
    q.add_argument("--grid", help="reuse a grid (GridSpec JSON or any file with a grid key)")
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_ingest)

    q = sub.add_parser("bound", help="evaluate the basis loss and the certified bound")
    q.add_argument("--f", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--assignment", required=True)
    q.add_argument("--jobs", type=int, default=1, help="ignored")
    q.set_defaults(func=cmd_bound)

    q = sub.add_parser("check", help="per-diagram pass/fail report at a fixed slack")
    q.add_argument("--f", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--assignment", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--jobs", type=int, default=1, help="ignored")
    q.set_defaults(func=cmd_check)

    q = sub.add_parser("oracle", help="independent desk-scale verifiers")
    q.add_argument("--mode", choices=["exact", "pi0", "full-loss"], required=True)
    q.add_argument("--f", required=True)
    q.add_argument("--g")
    q.add_argument("--assignment")
    q.add_argument("--n-max", type=int, dest="n_max")
    q.add_argument("--cap", type=int)
    q.add_argument("--delta", type=float, default=1.0, help="grid step for pi0 mode")
    q.set_defaults(func=cmd_oracle)

    q = sub.add_parser("export-dot", help="emit the cosheaf graph as DOT text")
    q.add_argument("--f", required=True)
    q.set_defaults(func=cmd_export_dot)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        if isinstance(exc, InvalidInput) and exc.violations:
            _emit({"error": exc.subject, "violations": exc.violations})
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
