"""An independent evaluator for cosheaf, assignment and bound files.

Standard library only, and none of mapperbound's labelling code: it reads
the JSON files the CLI reads and writes and recomputes what the CLI claims.

* A thickened star is a box.  In doubled coordinates (m = 2l is the grid
  point l*delta, m = 2l+1 the open interval after it) the r-fold thickening
  of the star of a cell with entries m is, on every axis,
  [m - h, m + h] intersected with [-2L, 2L], where h = 2r + [m even].
* A slice is the set of nodes whose cell lies in the box, joined by the
  links whose two ends both lie in it; components come from a union-find.
* Face images of deeper faces are found by composing codimension-1 links.
* The four diagram families, the saturation cap and the witness order are
  taken from the paper's definitions as the CLI documents them.
"""

from __future__ import annotations

import itertools
import json

KINDS = ("parallelogram_left", "parallelogram_right", "triangle_down", "triangle_up")
INF = "inf"


# -- cells -----------------------------------------------------------------------


def cell_from_wire(entries) -> tuple[int, ...]:
    return tuple(2 * e["deg"] if "deg" in e else 2 * e["nondeg"] + 1 for e in entries)


def cell_key(c) -> tuple:
    """Per axis: points before intervals, then by grid index."""
    return tuple((m & 1, m >> 1) for m in c)


def faces(c) -> list[tuple[int, ...]]:
    """Proper faces: every odd entry may drop to either neighbouring point."""
    axes = [(m,) if m % 2 == 0 else (m - 1, m, m + 1) for m in c]
    return [f for f in itertools.product(*axes) if f != tuple(c)]


def is_face(a, b) -> bool:
    return all(x == y or (x % 2 == 0 and y % 2 and abs(x - y) == 1) for x, y in zip(a, b))


def box(c, r: int, L: int) -> tuple[tuple[int, int], ...]:
    """The r-thickened star of cell c as per-axis inclusive bounds."""
    out = []
    for m in c:
        h = 2 * r + (m % 2 == 0)
        out.append((max(m - h, -2 * L), min(m + h, 2 * L)))
    return tuple(out)


def box_cells(b) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in b)))


def saturation(c, L: int) -> int:
    """Least r whose box is the whole grid."""
    return max((2 * L + abs(m) - (m % 2 == 0) + 1) // 2 for m in c)


def cell_gap(a, b) -> int:
    return max(abs(x - y) for x, y in zip(a, b))


# -- cosheaf files ---------------------------------------------------------------


class Cosheaf:
    """Nodes, cells and links of a cosheaf file, with box slices."""

    def __init__(self, obj: dict) -> None:
        grid = obj["grid"]
        self.d, self.delta, self.L = int(grid["d"]), float(grid["delta"]), int(grid["L"])
        self.grid = (self.d, self.delta, self.L)
        self.ids = [n["id"] for n in obj["nodes"]]
        self.cells = [cell_from_wire(n["cell"]) for n in obj["nodes"]]
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise ValueError("duplicate node ids")
        self.at: dict[tuple, list[int]] = {}
        for i, c in enumerate(self.cells):
            self.at.setdefault(c, []).append(i)
        self.adj: list[list[int]] = [[] for _ in self.ids]
        self.down: list[list[int]] = [[] for _ in self.ids]
        for a, b in obj["links"]:
            ci, pi = self.index[a], self.index[b]
            self.adj[ci].append(pi)
            self.adj[pi].append(ci)
            self.down[ci].append(pi)
        self._slices: dict[tuple, list[int]] = {}

    @classmethod
    def load(cls, path) -> "Cosheaf":
        with open(path) as fh:
            return cls(json.load(fh))

    def members(self, b) -> list[int]:
        out = []
        for c in box_cells(b):
            out.extend(self.at.get(c, ()))
        return out

    def slice(self, c, r: int) -> list[int]:
        """Component root per node index for the r-slice at c (-1 outside)."""
        b = box(c, r, self.L)
        hit = self._slices.get(b)
        if hit is not None:
            return hit
        root = [-1] * len(self.ids)
        members = self.members(b)
        for i in members:
            root[i] = i

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        for i in members:
            for j in self.adj[i]:
                if root[j] >= 0:
                    a, z = find(i), find(j)
                    if a != z:
                        root[max(a, z)] = min(a, z)
        for i in members:
            root[i] = find(i)
        self._slices[b] = root
        return root

    def component_count(self, c, r: int) -> int:
        root = self.slice(c, r)
        return sum(1 for i, x in enumerate(root) if x == i)

    def face_image(self, i: int, sigma) -> int | None:
        """The node at face `sigma` that node i maps to, by composing links."""
        if self.cells[i] == sigma:
            return i
        for j in self.down[i]:
            if is_face(sigma, self.cells[j]):
                got = self.face_image(j, sigma)
                if got is not None:
                    return got
        return None

    def occupied(self) -> list[tuple[int, ...]]:
        return list(self.at)


# -- assignments and diagram checks ------------------------------------------------


class Instance:
    """Two cosheaves on one grid and an assignment between them."""

    def __init__(self, F: Cosheaf, G: Cosheaf, assignment: dict) -> None:
        if F.grid != G.grid:
            raise ValueError("the cosheaves live on different grids")
        self.F, self.G = F, G
        self.n = int(assignment["n"])
        self.phi = [G.index[assignment["phi"][x]] for x in F.ids]
        self.psi = [F.index[assignment["psi"][y]] for y in G.ids]
        self.left: dict[tuple, list[tuple]] = {}
        self.right: dict[tuple, list[tuple]] = {}
        for graph, pairs in ((F, self.left), (G, self.right)):
            for tau in graph.occupied():
                for s in faces(tau):
                    pairs.setdefault(s, []).append(tau)
        self.centers = set(self.left) | set(self.right) | set(F.at) | set(G.at)
        self.cap = max(saturation(c, F.L) for c in self.centers)

    @classmethod
    def load(cls, f_path, g_path, a_path) -> "Instance":
        with open(a_path) as fh:
            return cls(Cosheaf.load(f_path), Cosheaf.load(g_path), json.load(fh))

    def violations(self) -> list[str]:
        """Pointers whose target lies outside the level-n box of the source."""
        out = []
        for name, src, dst, ptr in (("phi", self.F, self.G, self.phi),
                                    ("psi", self.G, self.F, self.psi)):
            for i, j in enumerate(ptr):
                b = box(src.cells[i], self.n, src.L)
                if not all(lo <= m <= hi for m, (lo, hi) in zip(dst.cells[j], b)):
                    out.append(f"{name}({src.ids[i]}) = {dst.ids[j]} is out of range")
        return out

    def failures(self, k: int) -> list[tuple]:
        """Every failing diagram at slack k as a sortable witness key."""
        F, G, phi, psi, r = self.F, self.G, self.phi, self.psi, self.n + k
        bad = []
        for sigma in self.centers:
            for kind, src, dst, ptr, pairs in ((0, F, G, phi, self.left),
                                               (1, G, F, psi, self.right)):
                taus = pairs.get(sigma)
                if not taus:
                    continue
                lab = dst.slice(sigma, r)
                for tau in taus:
                    for x in src.at[tau]:
                        xf = src.face_image(x, sigma)
                        if xf is None:
                            raise ValueError(f"{src.ids[x]} has no face image at {sigma}")
                        if lab[ptr[x]] < 0 or lab[ptr[x]] != lab[ptr[xf]]:
                            bad.append((kind, cell_key(sigma), cell_key(tau), src.ids[x]))
            for kind, graph, there, back in ((2, F, phi, psi), (3, G, psi, phi)):
                nodes = graph.at.get(sigma)
                if not nodes:
                    continue
                lab = graph.slice(sigma, 2 * r)
                for x in nodes:
                    if lab[x] != lab[back[there[x]]]:
                        bad.append((kind, cell_key(sigma), (), graph.ids[x]))
        return sorted(bad)

    def least_slack(self):
        """L_B by a plain upward scan: the first slack where nothing fails."""
        for k in range(self.cap + 1):
            if not self.failures(k):
                return k
        return INF


def witness_key(w: dict) -> tuple:
    tau = w["tau"]
    return (KINDS.index(w["kind"]), cell_key(cell_from_wire(w["sigma"])),
            cell_key(cell_from_wire(tau)) if tau is not None else (), w["element"])


# -- verifying CLI output ----------------------------------------------------------


def verify_bound(inst: Instance, result: dict) -> list[str]:
    """Problems with a `bound` result; empty when it is right.

    Every diagram must pass at L_B, and the reported witnesses must be the
    first ten failures, in order, at L_B - 1 (at the cap when L_B is inf).
    """
    out = []
    n, lb = inst.n, result["L_B"]
    if result["n"] != n:
        out.append(f"n is {result['n']}, the assignment says {n}")
    got = [witness_key(w) for w in result["witnesses"]]
    if lb == INF:
        fails = inst.failures(inst.cap)
        if not fails:
            out.append("L_B is inf but every diagram passes at the cap")
        want_bound = INF
        want_reeb = INF if inst.F.d == 1 else None
    elif not isinstance(lb, int) or lb < 0:
        return out + [f"L_B {lb!r} is not an extended natural"]
    else:
        bad = inst.failures(lb)
        if bad:
            out.append(f"{len(bad)} diagrams still fail at L_B = {lb}")
        fails = inst.failures(lb - 1) if lb > 0 else []
        if lb > 0 and not fails:
            out.append(f"every diagram already passes at L_B - 1 = {lb - 1}")
        want_bound = n + lb
        want_reeb = inst.F.delta * (n + lb + 1) if inst.F.d == 1 else None
    if got != fails[:10]:
        out.append("the witnesses are not the first ten failures below L_B")
    if result["bound"] != want_bound:
        out.append(f"bound is {result['bound']!r}, expected n + L_B = {want_bound!r}")
    if result["reeb_bound"] != want_reeb:
        out.append(f"reeb_bound is {result['reeb_bound']!r}, expected {want_reeb!r}")
    return out


def verify_check(inst: Instance, k: int, report: dict) -> list[str]:
    """Problems with a `check --k` report: pass flag and full witness list."""
    fails = inst.failures(k)
    out = []
    if report["k"] != k:
        out.append(f"k is {report['k']}, asked for {k}")
    if report["pass"] != (not fails):
        out.append(f"pass is {report['pass']}, {len(fails)} diagrams fail at k = {k}")
    if [witness_key(w) for w in report["witnesses"]] != fails:
        out.append(f"the witness list at k = {k} differs from the failing diagrams")
    return out
