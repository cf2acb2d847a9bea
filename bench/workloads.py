"""Seeded inputs for the benchmark workloads.

`prepare(workload, seed, workdir)` writes the geometric-graph files and the
assignment files of one workload and returns the `Plan`: the CLI calls one
round makes, grouped by the stage they are timed under, and what the checks
need to know about each pair.  The same seed always gives the same files.

Assignments name cosheaf nodes, so they are derived from a build of exactly
the text the CLI will read (`graph_to_json` sorts edges, and an in-memory
build of the original graph numbers components differently).  The CLI's
own `ingest` output is later compared byte for byte with that build.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from mapperbound import cosheaf, ingest, oracle
from mapperbound.assignment import Assignment, assignment_to_json
from mapperbound.grid import Cell

import evaluator as ev

WORKLOADS = ("tangle-2d", "chords-1d", "strands-1d", "tiny-batch")

DELTA = "1.0"


@dataclass
class Pair:
    """One (F, G, assignment) instance and the files it lives in."""

    name: str
    x_path: str
    y_path: str
    f_path: str
    g_path: str
    a_path: str
    k: int
    grid: dict
    f_text: str
    g_text: str
    # (side, doubled coords, radius) slices whose component count the
    # oracle recomputes from the geometry
    pi0_samples: list = field(default_factory=list)
    tiny: bool = False


@dataclass
class Plan:
    workload: str
    pairs: list[Pair]
    # a bound call on an invalid cosheaf that must be refused with exit 2
    invalid_argv: list[str] | None = None

    def ops(self) -> list[dict]:
        """The calls of one round, in order, each tagged with its stage."""
        out = []
        for p in self.pairs:
            out.append({"stage": "ingest", "pair": p.name, "what": "ingest-f", "argv": [
                "ingest", "--input", p.x_path, "--delta", DELTA, "--output", p.f_path]})
            out.append({"stage": "ingest", "pair": p.name, "what": "ingest-g", "argv": [
                "ingest", "--input", p.y_path, "--delta", DELTA, "--grid", p.f_path,
                "--output", p.g_path]})
            common = ["--f", p.f_path, "--g", p.g_path, "--assignment", p.a_path]
            out.append({"stage": "bound", "pair": p.name, "what": "bound",
                        "argv": ["bound", *common, "--jobs", "1"]})
            out.append({"stage": "check", "pair": p.name, "what": "check",
                        "argv": ["check", *common, "--k", str(p.k), "--jobs", "1"]})
            if p.tiny:
                out.append({"stage": "oracle", "pair": p.name, "what": "exact", "argv": [
                    "oracle", "--mode", "exact", "--f", p.f_path, "--g", p.g_path,
                    "--cap", str(TINY_CAP)]})
                out.append({"stage": "oracle", "pair": p.name, "what": "full-loss", "argv": [
                    "oracle", "--mode", "full-loss", *common, "--cap", str(TINY_CAP)]})
            else:
                out.append({"stage": "oracle", "pair": p.name, "what": "pi0",
                            "pi0": {"x": p.x_path, "y": p.y_path, "grid": p.grid,
                                    "samples": p.pi0_samples}})
        if self.invalid_argv is not None:
            out.append({"stage": "invalid", "pair": "invalid", "what": "bound-invalid",
                        "argv": self.invalid_argv})
        return out


# -- geometry --------------------------------------------------------------------


def _pin_peak(verts: dict, L: int, denom: int) -> None:
    """Put the first vertex in the outermost cell so fit_grid picks exactly L."""
    first = next(iter(verts))
    verts[first] = tuple(Fraction((2 * L - 1) * denom, 2 * denom) for _ in verts[first])


def scatter(rng: random.Random, d: int, nv: int, L: int, chords: int, denom: int = 10):
    """A path through uniformly random rational points of the box, plus chords."""
    lim = L * denom - 1
    verts = {f"v{i}": tuple(Fraction(rng.randint(-lim, lim), denom) for _ in range(d))
             for i in range(nv)}
    _pin_peak(verts, L, denom)
    return _with_chords(rng, verts, chords)


def zigzag(rng: random.Random, L: int, sweeps: int, per_sweep: int, denom: int = 10):
    """A 1-D path sweeping from bottom to top and back `sweeps` times.

    Each sweep has `per_sweep` vertices at evenly spaced heights moved by up
    to a fifth of a cell, so consecutive vertices stay less than a cell apart.
    The turns sit at +-(L - 1/2), which makes fit_grid pick exactly L.
    """
    top = L * denom - denom // 2
    verts = {}
    for s in range(sweeps):
        for i in range(per_sweep):
            h = -top + (2 * top * i) // per_sweep
            if i:
                h += rng.randint(-denom // 5, denom // 5)
            verts[f"v{len(verts)}"] = (Fraction(h if s % 2 == 0 else -h, denom),)
    verts[f"v{len(verts)}"] = (Fraction(top if sweeps % 2 else -top, denom),)
    ids = list(verts)
    return ingest.GeometricGraph(d=1, vertices=verts, edges=list(zip(ids, ids[1:])))


def sweep_chords(rng: random.Random, sweeps: int, per_sweep: int, at: float):
    """One chord per turn, joining two consecutive sweeps near height fraction
    `at` of the way from the turn (0) to the opposite end (1)."""
    out = []
    for s in range(sweeps - 1):
        i = round(per_sweep * (1 - at)) + rng.randint(-1, 1)
        j = round(per_sweep * at) + rng.randint(-1, 1)
        out.append((f"v{s * per_sweep + i}", f"v{(s + 1) * per_sweep + j}"))
    return out


def _with_chords(rng, verts, chords):
    ids = list(verts)
    edges = list(zip(ids, ids[1:]))
    for _ in range(chords):
        edges.append(tuple(rng.sample(ids, 2)))
    return ingest.GeometricGraph(d=len(verts[ids[0]]), vertices=verts, edges=edges)


def jitter(rng: random.Random, g, L: int, chords, denom: int = 10, amp: int = 4):
    """A copy moved by less than half a cell per coordinate, plus extra chords."""
    lim = Fraction(L * denom - 1, denom)
    verts = {vid: tuple(max(-lim, min(lim, x + Fraction(rng.randint(-amp, amp), denom)))
                        for x in val)
             for vid, val in g.vertices.items()}
    return ingest.GeometricGraph(d=g.d, vertices=verts, edges=list(g.edges) + list(chords))


# -- files -----------------------------------------------------------------------


def _write_graph(path: Path, g) -> ingest.GeometricGraph:
    """Write the graph and return it as the CLI will read it back."""
    text = ingest.graph_to_json(g)
    path.write_text(text)
    return ingest.GeometricGraph.from_json(text)


def _build_pair(x, y, workdir: Path, name: str):
    """Write both inputs; build them on F's grid exactly as `ingest` does."""
    xp, yp = workdir / f"{name}.X.json", workdir / f"{name}.Y.json"
    x_rt, y_rt = _write_graph(xp, x), _write_graph(yp, y)
    grid = ingest.fit_grid([x_rt], float(DELTA))
    bx, by = ingest.build(x_rt, grid), ingest.build(y_rt, grid)
    return xp, yp, bx, by


def _pair(name, workdir, xp, yp, bx, by, a: Assignment, k: int, **kw) -> Pair:
    ap = workdir / f"{name}.A.json"
    ap.write_text(assignment_to_json(a))
    return Pair(name=name, x_path=str(xp), y_path=str(yp),
                f_path=str(workdir / f"{name}.F.json"),
                g_path=str(workdir / f"{name}.G.json"), a_path=str(ap), k=k,
                grid=bx.grid.to_wire(),
                f_text=cosheaf.to_json(bx.graph), g_text=cosheaf.to_json(by.graph), **kw)


# -- assignments -----------------------------------------------------------------


def _carrier(val, dfrac: Fraction) -> tuple[int, ...]:
    out = []
    for x in val:
        q = x / dfrac
        fl = q.numerator // q.denominator
        out.append(2 * fl if q == fl else 2 * fl + 1)
    return tuple(out)


def _nearest_face(carrier: tuple[int, ...], target: tuple[int, ...]) -> Cell:
    """The face of `carrier` (itself included) closest to `target` on every axis."""
    out = []
    for m, t in zip(carrier, target):
        opts = (m,) if m % 2 == 0 else (m - 1, m, m + 1)
        out.append(min(opts, key=lambda o: (abs(o - t), o)))
    return Cell(tuple(out))


def _faces_incl(c: tuple[int, ...]) -> list[Cell]:
    return [Cell(f) for f in ev.faces(c)] + [Cell(c)]


def _cuts(g, u: str, v: str, dfrac: Fraction) -> list[Fraction]:
    """0, 1 and every parameter where edge (u, v) crosses a grid hyperplane."""
    uval, vval = g.vertices[u], g.vertices[v]
    cuts = {Fraction(0), Fraction(1)}
    for a in range(g.d):
        lo, hi = uval[a], vval[a]
        if lo == hi:
            continue
        for l in range(int(min(lo, hi) // dfrac), int(max(lo, hi) // dfrac) + 1):
            t = (l * dfrac - lo) / (hi - lo)
            if 0 < t < 1:
                cuts.add(t)
    return sorted(cuts)


def _at(g, u: str, v: str, t: Fraction):
    return tuple(a + t * (b - a) for a, b in zip(g.vertices[u], g.vertices[v]))


def _first_orientation(g) -> dict[frozenset, tuple[str, str]]:
    # node_on_edge resolves an edge to its first listed orientation
    out: dict[frozenset, tuple[str, str]] = {}
    for u, v in g.edges:
        out.setdefault(frozenset((u, v)), (u, v))
    return out


def pointer_map(src, dst, n: int) -> dict[str, str]:
    """Send each node of `src` to the node of `dst` holding the same point of
    the shared geometry (a vertex, or an edge parameter) at the nearest cell.

    Vertices are tried first; edges only for cells left uncovered.  Nodes no
    shared point reaches (extra chords) go to the nearest node the level-n
    radius admits.  Raises ValueError when some node has no admissible target.
    """
    F = src.graph
    dfrac = Fraction(DELTA)
    out: dict[str, str] = {}
    for vid in sorted(src.source.vertices):
        cd = _carrier(dst.source.vertices[vid], dfrac)
        for c in _faces_incl(_carrier(src.source.vertices[vid], dfrac)):
            x = src.node_of_vertex(c, vid)
            if x not in out:
                out[x] = dst.node_of_vertex(_nearest_face(cd, c.coords), vid)
    uncovered: dict[tuple, int] = {}
    for i in F.ids:
        if i not in out:
            c = F.cell_of(i).coords
            uncovered[c] = uncovered.get(c, 0) + 1
    dst_first = _first_orientation(dst.source)
    carrier = {vid: _carrier(val, dfrac) for vid, val in src.source.vertices.items()}
    # long edges first: they carry the nodes no vertex reaches
    edges = sorted(_first_orientation(src.source).items(), key=lambda kv: -max(
        abs(a - b) for a, b in zip(carrier[kv[1][0]], carrier[kv[1][1]])))
    for key, (u, v) in edges:
        if not uncovered:
            break
        if dst_first.get(key) != (u, v):
            continue
        ts, tds = _cuts(src.source, u, v, dfrac), _cuts(dst.source, u, v, dfrac)
        for t0, t1 in zip(ts, ts[1:]):
            t = (t0 + t1) / 2
            cells = [c for c in _faces_incl(_carrier(_at(src.source, u, v, t), dfrac))
                     if c.coords in uncovered]
            if not cells:
                continue
            # node_on_edge takes the dst segment whose closure holds t, open on the left
            j = next(i for i in range(1, len(tds)) if tds[i - 1] < t <= tds[i])
            cd = _carrier(_at(dst.source, u, v, (tds[j - 1] + tds[j]) / 2), dfrac)
            for c in cells:
                x = src.node_on_edge(c, (u, v), t)
                if x not in out:
                    out[x] = dst.node_on_edge(_nearest_face(cd, c.coords), (u, v), t)
                    uncovered[c.coords] -= 1
                    if not uncovered[c.coords]:
                        del uncovered[c.coords]
    if len(out) < len(F.ids):
        G = ev.Cosheaf(cosheaf.to_json_obj(dst.graph))
        for i in F.ids:
            if i not in out:
                c = F.cell_of(i).coords
                cands = G.members(ev.box(c, n, G.L))
                if not cands:
                    raise ValueError(f"no admissible target for {i}")
                out[i] = G.ids[min(cands, key=lambda j: (ev.cell_gap(G.cells[j], c), j))]
    return out


def geometric_assignment(bx, by, n: int) -> Assignment:
    return Assignment(n=n, phi=pointer_map(bx, by, n), psi=pointer_map(by, bx, n))


def random_assignment(F: ev.Cosheaf, G: ev.Cosheaf, rng: random.Random) -> Assignment | None:
    """Uniform pointers at the least level where every node has a target."""
    for n in range(2 * F.L + 1):
        opts = [[G.members(ev.box(c, n, F.L)) for c in F.cells],
                [F.members(ev.box(c, n, F.L)) for c in G.cells]]
        if all(opts[0]) and all(opts[1]):
            phi = {F.ids[i]: G.ids[rng.choice(o)] for i, o in enumerate(opts[0])}
            psi = {G.ids[j]: F.ids[rng.choice(o)] for j, o in enumerate(opts[1])}
            return Assignment(n=n, phi=phi, psi=psi)
    return None


def pi0_samples(bx, by, count: int, max_radius: int) -> list:
    """`count` (side, occupied cell, radius) slices per side: cells at evenly
    spaced ranks, radii cycling through 0..max_radius, so that the oracle's
    work hardly depends on the seed."""
    out = []
    for side, b in (("f", bx), ("g", by)):
        cells = sorted(c.coords for c in b.graph.occupied_cells())
        for i in range(count):
            out.append([side, list(cells[i * len(cells) // count]), i % (max_radius + 1)])
    return out


# -- the workloads ---------------------------------------------------------------

# Sizes are fixed so that the cost of a round barely depends on the seed;
# the seed moves only positions, chords and pointer choices.
TANGLE = {"L": 2, "pairs": 2, "vertices": 40, "chords": 2, "extra": 2, "L_B": 2, "k": 1,
          "samples": 6}
CHORDS = {"L": 8, "pairs": 1, "sweeps": 100, "per_sweep": 32, "k": 3, "samples": 2}
STRANDS = {"L": 4, "strands": 900, "samples": 3}
TINY = {"instances": 60}
TINY_CAP = 24


def _rng(workload: str, seed: int, *tags) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed, *tags))))


def _geometric_pair(workload, seed, i, make, workdir, cfg, n=1):
    """Draw pairs until the geometric level-n assignment is admissible (and,
    where the config names one, gives that L_B, so that every pair of the
    workload probes the same slacks); `make(rng)` gives F's graph and G's
    extra chords."""
    for attempt in range(100):
        rng = _rng(workload, seed, i, attempt)
        x, extra = make(rng)
        y = jitter(rng, x, cfg["L"], extra)
        xp, yp, bx, by = _build_pair(x, y, workdir, f"p{i}")
        try:
            a = geometric_assignment(bx, by, n)
        except ValueError:
            continue
        inst = ev.Instance(ev.Cosheaf(cosheaf.to_json_obj(bx.graph)),
                           ev.Cosheaf(cosheaf.to_json_obj(by.graph)), a.to_json_obj())
        if inst.violations() or ("L_B" in cfg and inst.least_slack() != cfg["L_B"]):
            continue
        samples = pi0_samples(bx, by, cfg["samples"], 2)
        return _pair(f"p{i}", workdir, xp, yp, bx, by, a, cfg["k"], pi0_samples=samples)
    raise RuntimeError(f"no admissible {workload} pair {i} for seed {seed}")


def _tangle(seed, workdir):
    c = TANGLE

    def make(rng):
        x = scatter(rng, 2, c["vertices"], c["L"], c["chords"])
        return x, [tuple(rng.sample(sorted(x.vertices), 2)) for _ in range(c["extra"])]

    return Plan("tangle-2d", [_geometric_pair("tangle-2d", seed, i, make, workdir, c)
                              for i in range(c["pairs"])])


def _chords(seed, workdir):
    c = CHORDS

    def make(rng):
        # chords shared by F and G join sweeps near the turns; G's extra
        # chords join them at mid-height, which a thickening has to reach
        # the turn to match, so L_B sits well inside (0, cap) on every seed
        x = zigzag(rng, c["L"], c["sweeps"], c["per_sweep"])
        x.edges += sweep_chords(rng, c["sweeps"], c["per_sweep"], 0.1)
        return x, sweep_chords(rng, c["sweeps"], c["per_sweep"], 0.5)

    return Plan("chords-1d", [_geometric_pair("chords-1d", seed, i, make, workdir, c)
                              for i in range(c["pairs"])])


def strands(rng: random.Random, count: int, L: int, denom: int = 10):
    """Full-height disjoint strands with seeded ends inside the end cells."""
    verts = {}
    for s in range(count):
        verts[f"s{s}a"] = (Fraction(-L * denom + rng.randint(1, denom - 1), denom),)
        verts[f"s{s}b"] = (Fraction(L * denom - rng.randint(1, denom - 1), denom),)
    edges = [(f"s{s}a", f"s{s}b") for s in range(count)]
    return ingest.GeometricGraph(d=1, vertices=verts, edges=edges)


def _identity(b) -> Assignment:
    ids = {i: i for i in b.graph.ids}
    return Assignment(n=0, phi=dict(ids), psi=dict(ids))


def invalid_cosheaf(workdir: Path) -> list[str]:
    """Write a fixed strand cosheaf, a copy in which one node has a second
    link at the same face cell, and the identity assignment; return the
    `bound` call that should refuse the copy."""
    g = strands(random.Random(0), 3, 4)
    b = ingest.build(g, ingest.fit_grid([g], float(DELTA)))
    obj = cosheaf.to_json_obj(b.graph)
    ok, bad = workdir / "invalid.ok.json", workdir / "invalid.bad.json"
    ap = workdir / "invalid.A.json"
    ok.write_text(json.dumps(obj, sort_keys=True) + "\n")
    F = ev.Cosheaf(obj)
    child = F.at[(1,)][0]
    parent = next(j for j in F.down[child] if F.cells[j] == (0,))
    other = next(j for j in F.at[(0,)] if j != parent)
    obj["links"].append([F.ids[child], F.ids[other]])
    bad.write_text(json.dumps(obj, sort_keys=True) + "\n")
    ap.write_text(assignment_to_json(_identity(b)))
    return ["bound", "--f", str(bad), "--g", str(ok), "--assignment", str(ap)]


def _strands(seed, workdir):
    c = STRANDS
    rng = _rng("strands-1d", seed)
    x, y = strands(rng, c["strands"], c["L"]), strands(rng, c["strands"], c["L"])
    xp, yp, bx, by = _build_pair(x, y, workdir, "p0")
    samples = pi0_samples(bx, by, c["samples"], 2)
    pair = _pair("p0", workdir, xp, yp, bx, by, _identity(bx), 0, pi0_samples=samples)
    return Plan("strands-1d", [pair], invalid_argv=invalid_cosheaf(workdir))


def tiny_graph(rng: random.Random, L: int, tag: str, pin: bool):
    nv = rng.randint(2, 4)
    verts = {f"{tag}{i}": (Fraction(rng.randint(1 - 2 * L, 2 * L - 1), 2),)
             for i in range(nv)}
    if pin:
        _pin_peak(verts, L, 2)
    ids = list(verts)
    edges = list(zip(ids, ids[1:]))
    if nv >= 3 and rng.random() < 0.5:
        edges.append((ids[0], ids[-1]))
    return ingest.GeometricGraph(d=1, vertices=verts, edges=edges)


def _tiny(seed, workdir):
    pairs = []
    for i in range(TINY["instances"]):
        for attempt in range(100):
            rng = _rng("tiny-batch", seed, i, attempt)
            L = 1 + i % 2
            x, y = tiny_graph(rng, L, "x", True), tiny_graph(rng, L, "y", False)
            xp, yp, bx, by = _build_pair(x, y, workdir, f"t{i}")
            if max(bx.graph.node_count(), by.graph.node_count()) > TINY_CAP:
                continue
            # the exact oracle raises when its enumeration passes a cap; an
            # instance it cannot decide is not a tiny instance
            try:
                oracle.exhaustive_interleaving(bx.graph, by.graph, 2 * L,
                                               oracle.TinyCaps(max_nodes_per_side=TINY_CAP))
            except oracle.OracleCapError:
                continue
            F = ev.Cosheaf(cosheaf.to_json_obj(bx.graph))
            G = ev.Cosheaf(cosheaf.to_json_obj(by.graph))
            a = random_assignment(F, G, rng)
            if a is None:
                continue
            pairs.append(_pair(f"t{i}", workdir, xp, yp, bx, by, a, 1, tiny=True))
            break
        else:
            raise RuntimeError(f"no tiny instance {i} for seed {seed}")
    return Plan("tiny-batch", pairs)


_PREPARE = {"tangle-2d": _tangle, "chords-1d": _chords, "strands-1d": _strands,
            "tiny-batch": _tiny}


def prepare(workload: str, seed: int, workdir: Path) -> Plan:
    workdir.mkdir(parents=True, exist_ok=True)
    return _PREPARE[workload](seed, workdir)
