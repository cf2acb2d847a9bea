"""Slow verifiers for desk-scale cross-checking.

The geometric recomputation (segment arithmetic over realized open sets)
shares no code with the cosheaf module and reads only the PL input, not the
ingest that builds the cosheaf.  A vertex is a member when one hash probe finds
its carrier cell (2*floor(x/delta) on a grid line, plus 1 off it) in the set.
An edge whose endpoint carriers miss the set's box on some axis is skipped;
any other edge is cut at the hyperplanes within one step of the box, in order
of the exact edge parameter, and its points and open segments are walked with
their carrier cells tracked in integers.  Maximal runs of member pieces are
the edge's pieces.  The per-cell interval arithmetic it replaced is the
reference in tests/pi0_reference.py.  The full loss over every open set of
the Alexandroff topology, the exhaustive search over component-level basis
assignments and the reference slack of every basis diagram label components
themselves: cell sets come from the set algebra (thicken of single cells,
whose unions give one thickening step of a set) and components from a
union-find over the graph's stored links.  They compose their own face images
too: each node descends one stored link at a time to the face, never reading
the graph's face-image rows.  Within one call each cell's step and each set's
step is computed once, and the full loss measures each parallelogram node pair
once per larger open set, gathered over all the open sets strictly inside it.
None of them calls CosheafGraph.slice, set_at or merge_radii, which the paths
they check run, nor the grid's closed forms of a thickened star.  All enumerations enforce hard caps; exceeding a cap raises,
never truncates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .assignment import Assignment
from .cosheaf import INFINITE, CosheafError, CosheafGraph
from .grid import (
    Cell, GridSpec, all_cells, basic_open, cell_sort_key, cofaces, faces, is_face, is_open,
    thicken,
)
from .ingest import GeometricGraph, _as_fraction


class OracleCapError(ValueError):
    pass


# -- geometric recomputation of component counts --------------------------------


def _carrier(x: Fraction, delta: Fraction) -> int:
    """Doubled coordinate of the elementary interval holding x: 2l on the grid
    line l*delta, 2l+1 inside (l*delta, (l+1)*delta)."""
    fl, rem = divmod(x.numerator * delta.denominator, x.denominator * delta.numerator)
    return 2 * fl + (rem != 0)


def geometric_pi0(
    g: GeometricGraph, grid: GridSpec, cells: frozenset[Cell]
) -> tuple[int, list[tuple]]:
    """Path components of the preimage of the realized open set, computed
    directly from segment arithmetic.  Returns the count and one
    representative point per component."""
    if not is_open(grid, cells):
        raise ValueError("geometric_pi0 requires an open cell set")
    dfrac = _as_fraction(grid.delta)
    members = {c.coords for c in cells}
    if not members:
        return 0, []
    box = [(min(ms), max(ms)) for ms in zip(*members)]  # per axis, doubled coords
    carrier = {vid: tuple(_carrier(x, dfrac) for x in val) for vid, val in g.vertices.items()}

    parent: dict[tuple, tuple] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for vid in sorted(g.vertices):
        if carrier[vid] in members:
            key = ("v", vid)
            parent[key] = key

    zero, one = Fraction(0), Fraction(1)
    piece_info: dict[tuple, tuple] = {}
    for eidx, (u, v) in enumerate(g.edges):
        mu, mv = carrier[u], carrier[v]
        if any(max(p, q) < lo or min(p, q) > hi for p, q, (lo, hi) in zip(mu, mv, box)):
            continue
        # the cuts strictly inside the edge at the hyperplanes 2l within one
        # step of the box; at t = 1 the end point takes v's carrier
        cuts: dict[Fraction, list[tuple[int, int]]] = {one: list(enumerate(mv))}
        for a, (x, y, p, q, (lo, hi)) in enumerate(zip(g.vertices[u], g.vertices[v], mu, mv, box)):
            first, last = max(min(p, q) + 1, lo - 1), min(max(p, q) - 1, hi + 1)
            for l in range((first + 1) // 2, last // 2 + 1):
                cuts.setdefault((l * dfrac - x) / (y - x), []).append((a, 2 * l))
        # pieces in order: point 0, then an (open segment, point) pair per cut;
        # m is the carrier cell, moved off each point along the edge (where
        # the carriers of u and v differ on an axis, so do its values)
        step = [(q > p) - (q < p) for p, q in zip(mu, mv)]
        m, prev = list(mu), zero
        pieces = [(zero, zero, True, mu in members)]
        for t in sorted(cuts):
            m = [c if c % 2 else c + s for c, s in zip(m, step)]
            pieces.append((prev, t, False, tuple(m) in members))
            for a, c in cuts[t]:
                m[a] = c
            pieces.append((t, t, True, tuple(m) in members))
            prev = t
        # maximal runs of member pieces are the edge's pieces in the set
        runs, in_run = [], False
        for lo, hi, point, inside in pieces:
            if inside and in_run:
                runs[-1] = (runs[-1][0], hi, runs[-1][2], point)
            elif inside:
                runs.append((lo, hi, point, point))
            in_run = inside
        for j, piece in enumerate(runs):
            key = ("e", eidx, j)
            parent[key] = key
            piece_info[key] = piece
            lo, hi, lc, hc = piece
            if lo == 0 and lc and ("v", u) in parent:
                union(key, ("v", u))
            if hi == 1 and hc and ("v", v) in parent:
                union(key, ("v", v))

    roots: dict[tuple, tuple] = {}
    for key in sorted(parent):
        roots.setdefault(find(key), key)
    reps = []
    for root in sorted(roots):
        key = roots[root]
        if key[0] == "v":
            reps.append(("vertex", key[1]))
        else:
            eidx, j = key[1], key[2]
            lo, hi, _, _ = piece_info[key]
            mid = (lo + hi) / 2
            u, v = g.edges[eidx]
            reps.append(("edge", u, v, str(mid)))
    return len(roots), reps


# -- open set enumeration --------------------------------------------------------


def enumerate_opens(grid: GridSpec, cap: int = 1_000_000) -> list[frozenset[Cell]]:
    """Every coface-closed cell set, each exactly once.  Cells are decided in
    decreasing dimension so a cell may join only when all its cofaces did."""
    cells = sorted(all_cells(grid), key=lambda c: (-c.dim, cell_sort_key(c)))
    cof = {c: cofaces(grid, c) for c in cells}
    out: list[frozenset[Cell]] = []

    def rec(i: int, chosen: set[Cell]) -> None:
        if len(out) > cap:
            raise OracleCapError(f"open-set enumeration exceeded the cap of {cap}")
        if i == len(cells):
            out.append(frozenset(chosen))
            return
        c = cells[i]
        rec(i + 1, chosen)
        if cof[c] <= chosen:
            chosen.add(c)
            rec(i + 1, chosen)
            chosen.remove(c)

    rec(0, set())
    if len(out) > cap:
        raise OracleCapError(f"open-set enumeration exceeded the cap of {cap}")
    return sorted(out, key=lambda s: (len(s), sorted(map(cell_sort_key, s))))


# -- tiny instance guards --------------------------------------------------------


@dataclass(frozen=True)
class TinyCaps:
    max_nodes_per_side: int = 12
    max_L: int = 4
    max_candidates: int = 2_000_000


def check_tiny(F: CosheafGraph, G: CosheafGraph, caps: TinyCaps) -> None:
    if F.grid != G.grid:
        raise ValueError("both cosheaves must live on the same grid")
    if F.grid.L > caps.max_L:
        raise OracleCapError(f"grid half-extent {F.grid.L} exceeds the cap {caps.max_L}")
    for side, graph in (("F", F), ("G", G)):
        if graph.node_count() > caps.max_nodes_per_side:
            raise OracleCapError(
                f"{side} has {graph.node_count()} nodes, cap is {caps.max_nodes_per_side}")


# -- full loss over every open set -----------------------------------------------


@dataclass
class FullLossReport:
    value: float | int
    consistent_extension: bool
    opens: int


class _Labeler:
    """Components of one graph's nodes over open cell sets, cached per set.

    A node belongs to a set when its carrier cell does; two members join when
    a stored link connects them.  A member is labelled with the least member
    of its component, a non-member with -1.
    """

    def __init__(self, graph: CosheafGraph):
        self.graph = graph
        self.cache: dict[frozenset[Cell], list[int]] = {}
        self.stars: dict[tuple[Cell, int], frozenset[Cell]] = {}
        self.steps: dict[Cell, frozenset[Cell]] = {}  # thicken({c}, 1) per cell c
        self.grown: dict[frozenset[Cell], frozenset[Cell]] = {}  # thicken(S, 1) per set S
        self.total = graph.grid.cell_count()

    def at(self, cells: frozenset[Cell]) -> list[int]:
        lab = self.cache.get(cells)
        if lab is None:
            lab = self.cache[cells] = _components(self.graph, cells)
        return lab

    def star(self, c: Cell, r: int) -> frozenset[Cell]:
        """The r-thickened basic open of c, thickened one step at a time."""
        hit = self.stars.get((c, r))
        if hit is None:
            hit = basic_open(self.graph.grid, c) if r == 0 else self.grow(self.star(c, r - 1))
            self.stars[c, r] = hit
        return hit

    def grow(self, cells: frozenset[Cell], n: int = 1) -> frozenset[Cell]:
        """thicken(cells, n), one memoised step at a time.  A step is the union
        of the cells' own steps: closure and star distribute over unions."""
        for _ in range(n):
            hit = self.grown.get(cells)
            if hit is None:
                for c in cells.difference(self.steps):
                    self.steps[c] = thicken(self.graph.grid, frozenset({c}), 1)
                hit = self.grown[cells] = frozenset().union(*map(self.steps.__getitem__, cells))
            cells = hit
        return cells

    def node_distance(self, cells: frozenset[Cell], i: int, j: int):
        """Least extra thickening of `cells` merging nodes i and j."""
        k = 0
        while True:
            lab = self.at(cells)
            if lab[i] >= 0 and lab[i] == lab[j]:
                return k
            if len(cells) == self.total:
                return INFINITE
            cells = self.grow(cells)
            k += 1


def _labelers(F: CosheafGraph, G: CosheafGraph) -> tuple[_Labeler, _Labeler]:
    """Labelers of F and G that share the thickened cell sets of their grid."""
    labF, labG = _Labeler(F), _Labeler(G)
    labG.stars, labG.steps, labG.grown = labF.stars, labF.steps, labF.grown
    return labF, labG


def _components(graph: CosheafGraph, cells: frozenset[Cell]) -> list[int]:
    """Per node: the least node of its component over `cells`, -1 outside."""
    root = [i if c in cells else -1 for i, c in enumerate(graph.cells)]

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for i, j in graph._raw_links:
        if root[i] >= 0 and root[j] >= 0:
            a, b = find(i), find(j)
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(i) if r >= 0 else -1 for i, r in enumerate(root)]


def _extension(labeler_src: _Labeler, labeler_dst: _Labeler, ptr: list[int], opens, thick):
    """Canonical component-level extension of a pointer map: each component of
    the source over S maps through the pointer of its least member.  Returns
    ({(S, least member) -> dst node index}, all members agreed)."""
    consistent = True
    chosen: dict[tuple[frozenset[Cell], int], int] = {}
    for S in opens:
        target = labeler_dst.at(thick[S])
        for i, c in enumerate(labeler_src.at(S)):
            if c == i:
                chosen[(S, c)] = ptr[i]
            elif c >= 0 and target[chosen[(S, c)]] != target[ptr[i]]:
                consistent = False
    return chosen, consistent


def full_loss(
    F: CosheafGraph,
    G: CosheafGraph,
    a: Assignment,
    caps: TinyCaps = TinyCaps(),
    max_opens: int = 50_000,
) -> FullLossReport:
    """The loss over every pair of nested open sets, with phi and psi extended
    from the pointers component-wise through covering basic opens.

    The extension picks each component's first member as its representative;
    when members disagree about the target component the report flags it, and
    the value is still the loss of that concrete unnatural transformation.
    By construction the value is at least the basis loss of the same
    assignment.

    Each open set is thickened by n steps of the labelers' shared step memo,
    so each set's step is computed once per call.  The parallelograms of all
    S strictly inside a larger T chase the same node pairs over thick[T] again
    and again; they are gathered per T and side and each distinct pair is
    measured once.  The value is a maximum, so the order is free.
    """
    check_tiny(F, G, caps)
    opens = [S for S in enumerate_opens(F.grid, cap=max_opens) if S]
    n = a.n

    labF, labG = _labelers(F, G)
    phi = [G.index[a.phi[nid]] for nid in F.ids]
    psi = [F.index[a.psi[nid]] for nid in G.ids]
    thick = {S: labF.grow(S, n) for S in opens}
    thick2 = {S: labF.grow(thick[S], n) for S in opens}
    ext_phi, ok_phi = _extension(labF, labG, phi, opens, thick)
    ext_psi, ok_psi = _extension(labG, labF, psi, opens, thick)

    worst: float | int = 0
    sides = ((labF, labG, ext_phi, ext_psi), (labG, labF, ext_psi, ext_phi))
    # per side and open S: (least member i of a component, the node it maps to)
    chased = [{S: frozenset((i, there[S, i]) for i in _component_reps(lab.at(S)))
               for S in opens} for lab, _, there, _ in sides]
    for T in opens:
        below = [S for S in opens if S < T]
        for (lab, other, there, back), pairs in zip(sides, chased):
            # triangles at T
            for i, j in pairs[T]:
                mid = other.at(thick[T])[j]
                d = lab.node_distance(thick2[T], i, back[(thick[T], mid)])
                worst = max(worst, d if math.isinf(d) else (int(d) + 1) // 2)
            # parallelograms for every strictly smaller S, each node pair once
            labT = lab.at(T)
            gathered = set().union(*(pairs[S] for S in below))
            for p, q in {(there[T, labT[i]], j) for i, j in gathered}:
                worst = max(worst, other.node_distance(thick[T], p, q))
        if math.isinf(worst):
            break

    return FullLossReport(value=worst, consistent_extension=ok_phi and ok_psi,
                          opens=len(opens))


def _component_reps(lab: list[int]) -> list[int]:
    """The least member of each component, in increasing order."""
    return [i for i, c in enumerate(lab) if c == i]


# -- the slack of every basis diagram ---------------------------------------------


def reference_loss(F: CosheafGraph, G: CosheafGraph, a: Assignment,
                   caps: TinyCaps = TinyCaps(max_nodes_per_side=300, max_L=8)
                   ) -> dict[tuple, float | int]:
    """The slack of every basis diagram: the least k >= 0 at which it passes,
    keyed (kind, sigma, tau, element id) with tau None for a triangle.

    Each diagram starts from the thickened star of sigma at the level it is
    checked at (n for a parallelogram, 2n for a triangle) and grows it one
    step at a time until its two chased nodes share a component; a triangle's
    slack is half that growth, rounded up.  The basis loss L_B is the largest
    value, 0 when there is none.
    """
    check_tiny(F, G, caps)
    n = a.n
    labF, labG = _labelers(F, G)
    phi = [G.index[a.phi[x]] for x in F.ids]
    psi = [F.index[a.psi[y]] for y in G.ids]
    out: dict[tuple, float | int] = {}
    for kind, src, ptr, lab in (("parallelogram_left", F, phi, labG),
                                ("parallelogram_right", G, psi, labF)):
        for i, j, sigma in _pair_checks(src):
            out[kind, sigma, src.cells[i], src.ids[i]] = lab.node_distance(
                lab.star(sigma, n), ptr[i], ptr[j])
    for kind, lab, there, back in (("triangle_down", labF, phi, psi),
                                   ("triangle_up", labG, psi, phi)):
        src = lab.graph
        for i, sigma in enumerate(src.cells):
            d = lab.node_distance(lab.star(sigma, 2 * n), i, back[there[i]])
            out[kind, sigma, None, src.ids[i]] = d if math.isinf(d) else (d + 1) // 2
    return out


# -- exhaustive interleaving search ----------------------------------------------


def _assignment_candidates(
    src: CosheafGraph, dst: _Labeler, n: int, pair_checks, caps: TinyCaps
) -> list[list[int]] | None:
    """All component-level pointer maps src -> dst at level n that pass the
    given parallelogram family at slack 0, via backtracking.  None when some
    node has no target at all (no n-assignment exists)."""
    options: list[list[int]] = []
    for c in src.cells:
        reps = _component_reps(dst.at(dst.star(c, n)))
        if not reps:
            return None
        options.append(reps)

    count = 1
    for o in options:
        count *= len(o)
        if count > caps.max_candidates:
            raise OracleCapError("assignment enumeration exceeded the candidate cap")

    # by_later[i] = [(j, labels over the n-thickened star of sigma)] with
    # j < i: choice[i] and choice[j] must share a component there
    by_later: list[list[tuple[int, list[int]]]] = [[] for _ in src.ids]
    for x, xf, sigma in pair_checks:
        hi, lo = (x, xf) if x > xf else (xf, x)
        by_later[hi].append((lo, dst.at(dst.star(sigma, n))))

    found: list[list[int]] = []
    choice: list[int] = [0] * len(src.ids)

    def rec(i: int) -> None:
        if i == len(src.ids):
            found.append(choice.copy())
            return
        for pick in options[i]:
            choice[i] = pick
            if all(lab[pick] == lab[choice[j]] for j, lab in by_later[i]):
                rec(i + 1)

    rec(0)
    return found


def _pair_checks(graph: CosheafGraph) -> list[tuple[int, int, Cell]]:
    """(node x, its face image at sigma, sigma) for every node x and proper
    face sigma of its cell; raises CosheafError where a node has none."""
    up = {(i, graph.cells[j]): j for i, j in graph._raw_links}
    out = []
    for xi, tau in enumerate(graph.cells):
        for sigma in faces(tau):
            xf = _descend(graph, up, xi, sigma)
            if xf is None:
                raise CosheafError(f"input cosheaf is missing a face image at {sigma!r}")
            out.append((xi, xf, sigma))
    return out


def _descend(graph: CosheafGraph, up: dict[tuple[int, Cell], int], i: int, face: Cell):
    """The node that node i maps to at `face`, a face of its cell, following
    the links `up` ({(child, parent cell): parent}) one codimension at a time;
    None when no descent reaches it."""
    c = graph.cells[i]
    if c == face:
        return i
    for mid in faces(c):
        j = up.get((i, mid))
        if j is not None and is_face(face, mid):
            hit = _descend(graph, up, j, face)
            if hit is not None:
                return hit
    return None


def exhaustive_interleaving(
    F: CosheafGraph, G: CosheafGraph, n_max: int, caps: TinyCaps = TinyCaps()
) -> int | None:
    """Smallest n <= n_max admitting a basis assignment with zero loss at
    slack 0, i.e. the interleaving distance of the instance as an integer;
    None when every n up to n_max fails."""
    check_tiny(F, G, caps)
    checks_F = _pair_checks(F)
    checks_G = _pair_checks(G)
    labF, labG = _labelers(F, G)

    for n in range(n_max + 1):
        phis = _assignment_candidates(F, labG, n, checks_F, caps)
        psis = _assignment_candidates(G, labF, n, checks_G, caps)
        if phis is None or psis is None:
            continue
        if len(phis) * len(psis) > caps.max_candidates:
            raise OracleCapError("assignment enumeration exceeded the candidate cap")
        if _find_interleaving(labF, labG, n, phis, psis) is not None:
            return n
    return None


def _find_interleaving(labF: _Labeler, labG: _Labeler, n, phis, psis):
    """The first (phi, psi) pair whose triangles all pass at level n, or None."""
    down = [(labF.at(labF.star(c, 2 * n)), xs) for c, xs in labF.graph.nodes_at.items()]
    up = [(labG.at(labG.star(c, 2 * n)), ys) for c, ys in labG.graph.nodes_at.items()]
    for phi in phis:
        for psi in psis:
            if all(lab[x] == lab[psi[phi[x]]] for lab, xs in down for x in xs) and \
               all(lab[y] == lab[phi[psi[y]]] for lab, ys in up for y in ys):
                return phi, psi
    return None
