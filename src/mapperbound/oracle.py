"""Slow verifiers for desk-scale cross-checking.

The geometric recomputation (segment arithmetic over realized open sets)
shares no code with the cosheaf module or with ingest: it reads only the PL
input, a GeometricGraph.  A vertex is a member when one hash probe finds its
carrier cell (2*floor(x/delta) on a grid line, plus 1 off it) in the set.
One pass over an edge's axes skips it when its endpoint carriers miss the
set's box on some axis, and otherwise finds the hyperplanes within one step
of the box; the edge is cut there, in order of an exact integer key.  A cut
at edge parameter t has key t*P, P the common denominator of the edge's cut
parameters.  One pass over its points and open segments, with their carrier
cells tracked in integers, yields the maximal runs of member pieces: the
edge's pieces.  Runs and member vertices are keyed by integers in a
list-based union-find, and midpoints are reduced with gcd, so delta's is
the only Fraction a call builds.  tests/pi0_reference.py holds the per-cell
interval arithmetic it replaced.  The full loss over every open set of
the Alexandroff topology and the exhaustive search over component-level
basis assignments label components themselves, on cell sets held as int
bitmasks: each call numbers the grid's cells once, in decreasing dimension
and then canonical order, and gives each cell one bit.  A cell's one-step
thickening comes from the set algebra (thicken of the cell alone), a set's
step is the OR of its cells' steps, and components come from a union-find
over the graph's stored links.  Face images come from those labels too: a
node's image at a face is the least member of its component over the face's
star.  The reference slack of every basis diagram runs on the same labels
in tests/slack_reference.py.  Within one call each cell's step and each
set's step is computed once, and the full loss measures the parallelograms
of each open against one parent only, the open without its last cell in the
index's order; the proof in its docstring shows that these give the value
over every pair of nested opens.  The all-pairs loop this replaced is the
reference in tests/full_loss_reference.py.  None of them calls
CosheafGraph.slice or merge_radii, which the paths they check run, nor the
grid's closed forms of a thickened star.  All enumerations enforce hard
caps; exceeding a cap raises, never truncates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .assignment import Assignment, AssignmentError
from .cosheaf import INFINITE, CosheafError, CosheafGraph
from .grid import Cell, GridSpec, all_cells, cell_sort_key, cofaces, faces, facets, is_open, thicken
from .ingest import GeometricGraph

MAX_OPENS = 50_000  # full_loss's cap on the open sets it enumerates


class OracleCapError(ValueError):
    pass


# -- geometric recomputation of component counts --------------------------------


def geometric_pi0(
    g: GeometricGraph, grid: GridSpec, cells: frozenset[Cell]
) -> tuple[int, list[tuple]]:
    """Path components of the preimage of the realized open set, computed
    directly from segment arithmetic.  Returns the count and one
    representative point per component.

    Runs and member vertices are keyed by integers, runs in edge order and
    then vertices in id order; a component is represented by its least key."""
    if g.d != grid.d:
        raise ValueError(f"graph dimension {g.d} does not match grid dimension {grid.d}")
    if not is_open(grid, cells):
        raise ValueError("geometric_pi0 requires an open cell set")
    dn, dd = Fraction(str(grid.delta)).as_integer_ratio()
    members = {c.coords for c in cells}
    if not members:
        return 0, []
    box = [(min(ms), max(ms)) for ms in zip(*members)]  # per axis, doubled coords

    # each vertex's carrier cell in doubled coordinates: 2l on the grid line
    # l*delta, 2l+1 inside (l*delta, (l+1)*delta)
    carrier, inside = {}, []
    for vid, val in g.vertices.items():
        m = []
        for x in val:
            xn, xd = x.as_integer_ratio()
            fl, rem = divmod(xn * dd, xd * dn)
            m.append(2 * fl + (rem != 0))
        carrier[vid] = m = tuple(m)
        if m in members:
            inside.append(vid)

    runs: list[tuple[str, str, int, int]] = []  # per run: its edge, lo + hi and 2P
    ends: list[tuple[int, str]] = []  # (run, member vertex it starts or ends on)
    for u, v in g.edges:
        mu, mv = carrier[u], carrier[v]
        # the cuts strictly inside the edge at the hyperplanes 2l within one
        # step of the box.  On an axis where the edge runs from x = xn/xd to
        # y = yn/yd it meets l*delta at t = (l*A - B) / C.  A cut is keyed by
        # the integer t*P, P the lcm of C over the axes with cuts (P // C is
        # exact whatever C's sign), so the edge runs from key 0 to key P
        axes, missed = [], False
        for a, (p, q, (lo, hi)) in enumerate(zip(mu, mv, box)):
            low, high = (p, q) if p < q else (q, p)
            if high < lo or low > hi:
                missed = True
                break
            levels = range((max(low + 1, lo - 1) + 1) // 2, min(high - 1, hi + 1) // 2 + 1)
            if levels:
                x, y = g.vertices[u][a], g.vertices[v][a]
                (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
                axes.append((a, levels, dn * xd * yd, xn * dd * yd, dd * (yn * xd - xn * yd)))
        if missed:
            continue
        P, cuts = 1, {}
        if axes:
            P = math.lcm(*(C for *_, C in axes))
            for a, levels, A, B, C in axes:
                for l in levels:
                    cuts.setdefault((l * A - B) * (P // C), []).append((a, 2 * l))
        # the pieces in order: point 0, then an (open segment, point) pair
        # per cut and one at key P.  m is the carrier cell, moved off each
        # point along the edge; a run opens or closes where membership flips
        step = [(q > p) - (q < p) for p, q in zip(mu, mv)]
        m, prev, start = mu, 0, -1  # start: the key where the open run began
        if mu in members:  # the first run starts at point 0
            ends.append((len(runs), u))
            start = 0
        for t in (*sorted(cuts), P):
            seg = tuple([c if c % 2 else c + s for c, s in zip(m, step)])
            m = list(seg)
            for a, c in cuts[t] if t < P else enumerate(mv):
                m[a] = c
            m = tuple(m)
            for key, piece in ((prev, seg), (t, m)):
                if (piece in members) != (start >= 0):
                    if start < 0:
                        start = key
                    else:
                        runs.append((u, v, start + key, 2 * P))
                        start = -1
            prev = t
        if start >= 0:  # the last run ends at point P
            runs.append((u, v, start + P, 2 * P))
            ends.append((len(runs) - 1, v))

    # runs, then member vertices in id order; union keeps the least as root
    inside.sort()
    vkey = {vid: len(runs) + i for i, vid in enumerate(inside)}
    root = list(range(len(runs) + len(inside)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for r, vid in ends:
        a, b = find(r), find(vkey[vid])
        if a != b:
            root[max(a, b)] = min(a, b)
    reps = []  # a midpoint n/d in lowest terms, written as str(Fraction) writes it
    for i, r in enumerate(root):
        if i == r and i >= len(runs):
            reps.append(("vertex", inside[i - len(runs)]))
        elif i == r:
            u, v, n, d = runs[i]
            k = math.gcd(n, d)
            reps.append(("edge", u, v, f"{n // k}/{d // k}" if d > k else str(n // k)))
    return len(reps), reps


# -- cell sets as bitmasks -------------------------------------------------------


class _CellIndex:
    """One bit per cell of a grid, for one call.

    Cells are listed in decreasing dimension, then by cell_sort_key, and cell
    number i is bit 1 << i, so a cell set is the int of its cells' bits.  Per
    cell the index holds masks of its one-step thickening (thicken of the cell
    alone) and its proper cofaces.  It also memoises each set's step for the
    labelers that share it.
    """

    def __init__(self, grid: GridSpec):
        self.cells = sorted(all_cells(grid), key=lambda c: (-c.dim, cell_sort_key(c)))
        self.bit = {c: 1 << i for i, c in enumerate(self.cells)}
        self.full = (1 << len(self.cells)) - 1
        self.step = [self.mask(thicken(grid, frozenset({c}), 1)) for c in self.cells]
        self.cof = [self.mask(cofaces(grid, c)) for c in self.cells]
        self.grown: dict[int, int] = {}  # thicken(S, 1) per set S

    def mask(self, cells: Iterable[Cell]) -> int:
        m = 0
        for c in cells:
            m |= self.bit[c]
        return m

    def members(self, mask: int) -> frozenset[Cell]:
        return frozenset(self.cells[i] for i in _bits(mask))


def _bits(mask: int) -> Iterator[int]:
    """The numbers of the cells in `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- open set enumeration --------------------------------------------------------


def enumerate_opens(grid: GridSpec, cap: int = 1_000_000) -> list[frozenset[Cell]]:
    """Every coface-closed cell set, each exactly once, ordered by size and
    then by the sorted keys of its cells."""
    ix = _CellIndex(grid)
    return sorted(map(ix.members, _open_masks(ix, cap)),
                  key=lambda s: (len(s), sorted(map(cell_sort_key, s))))


def _open_masks(ix: _CellIndex, cap: int) -> list[int]:
    """Every open set of the index's grid as a mask, in no useful order.
    Cells are decided in the index's order, decreasing dimension, so a cell
    may join only when all its cofaces did: it is a top cell or a facet of a
    chosen cell, and only those candidates are tested.  Each pop follows the
    skips to a leaf and stacks each branch that takes a cell instead, deepest
    on top."""
    cof, fac = ix.cof, [ix.mask(facets(c)) for c in ix.cells]
    out: list[int] = []
    todo = [(0, 0, ix.mask(c for c, m in zip(ix.cells, cof) if not m))]
    while todo:  # (first undecided cell, chosen mask, candidates)
        i, chosen, cand = todo.pop()
        left = ~chosen
        for j in _bits(cand >> i << i):
            if not cof[j] & left:
                todo.append((j + 1, chosen | 1 << j, cand | fac[j]))
        out.append(chosen)
        if len(out) > cap:
            raise OracleCapError(f"open-set enumeration exceeded the cap of {cap}")
    return out


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
    """Components of one graph's nodes over open cell sets, keyed by mask
    and cached per set.

    A node belongs to a set when its carrier cell does; two members join when
    a stored link connects them.  A member is labelled with the least member
    of its component, a non-member with -1.
    """

    def __init__(self, graph: CosheafGraph, ix: _CellIndex):
        self.graph, self.ix = graph, ix
        self.bits = [ix.bit[c] for c in graph.cells]  # per node, its cell's bit
        self.cache: dict[int, list[int]] = {}

    def at(self, cells: int) -> list[int]:
        lab = self.cache.get(cells)
        if lab is None:
            lab = self.cache[cells] = _components(self.graph, self.bits, cells)
        return lab

    def star(self, c: Cell, r: int) -> int:
        """The r-thickened basic open of c: c and its cofaces, grown r steps."""
        b = self.ix.bit[c]
        return self.grow(self.ix.cof[b.bit_length() - 1] | b, r)

    def grow(self, cells: int, n: int = 1) -> int:
        """thicken(cells, n), one memoised step at a time, stopping early at a
        set that a step leaves as it is.  A step is the union of the cells' own
        steps: closure and star distribute over unions."""
        grown, step = self.ix.grown, self.ix.step
        for _ in range(n):
            hit = grown.get(cells)
            if hit is None:
                hit = 0
                for i in _bits(cells):
                    hit |= step[i]
                grown[cells] = hit
            if hit == cells:
                break
            cells = hit
        return cells

    def node_distance(self, cells: int, i: int, j: int):
        """Least extra thickening of `cells` merging nodes i and j."""
        k = 0
        while True:
            lab = self.at(cells)
            if lab[i] >= 0 and lab[i] == lab[j]:
                return k
            if cells == self.ix.full:
                return INFINITE
            cells = self.grow(cells)
            k += 1


def _labelers(F: CosheafGraph, G: CosheafGraph) -> tuple[_Labeler, _Labeler]:
    """Labelers of F and G that share one cell index of their grid."""
    ix = _CellIndex(F.grid)
    return _Labeler(F, ix), _Labeler(G, ix)


def _components(graph: CosheafGraph, bits: list[int], cells: int) -> list[int]:
    """Per node: the least node of its component over `cells`, -1 outside.
    bits[i] is the bit of node i's cell."""
    root = [i if b & cells else -1 for i, b in enumerate(bits)]

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
    ({S: {least member: dst node index}} per open S, all members agreed)."""
    consistent = True
    chosen: dict[int, dict[int, int]] = {}
    for S in opens:
        target = labeler_dst.at(thick[S])
        here = chosen[S] = {}
        for i, c in enumerate(labeler_src.at(S)):
            if c == i:
                here[c] = ptr[i]
            elif c >= 0 and target[here[c]] != target[ptr[i]]:
                consistent = False
    return chosen, consistent


def _parent(T: int) -> int:
    """T without its last cell in the index's order, one of least dimension,
    so no face of it lies in T: an open again, or 0."""
    return T ^ 1 << (T.bit_length() - 1)


def _pointers(labF: _Labeler, labG: _Labeler, a: Assignment) -> list[list[int]]:
    """phi and psi as node indices of the other graph.  Raises AssignmentError
    with validate_assignment's messages, each radius read as a bit of the
    source cell's n-thickened star."""
    out, idx = [], []
    for side, lab, ptr, other in (("phi", labF, a.phi, labG), ("psi", labG, a.psi, labF)):
        src, dst = lab.graph, other.graph
        idx.append([])
        for nid, c in zip(src.ids, src.cells):
            idx[-1].append(j := dst.index.get(tgt := ptr.get(nid)))
            if j is None:
                out.append(f"{side} is missing node {nid}" if tgt is None
                           else f"{side}({nid}) = {tgt} is not a node of the target")
            elif not lab.star(c, a.n) & lab.ix.bit[dst.cells[j]]:
                out.append(f"{side}({nid}) = {tgt} lies outside the level-{a.n} radius")
        out += sorted(f"{side} has unknown node {k}" for k in ptr if k not in src.index)
    if out:
        raise AssignmentError("invalid assignment", out)
    return idx


def full_loss(
    F: CosheafGraph,
    G: CosheafGraph,
    a: Assignment,
    caps: TinyCaps = TinyCaps(),
) -> FullLossReport:
    """The loss over every pair of nested open sets, with phi and psi extended
    from the pointers component-wise through covering basic opens.

    The extension picks each component's first member as its representative;
    when members disagree about the target component the report flags it, and
    the value is still the loss of that concrete unnatural transformation.
    By construction the value is at least the basis loss of the same
    assignment.  An invalid assignment raises AssignmentError with
    validate_assignment's messages, checked on the oracle's own star masks.

    Open sets are cell masks of one per-call index, each thickened by n
    steps of its shared step memo.  The value is a maximum, so the order of
    the opens is free.  Per open T and side, the triangles read the labels
    over T's two thickenings once, and a node pair is measured only when
    those labels do not already join it.

    The parallelograms of an open T are measured against one parent only,
    P(T) = T ^ 1 << (T.bit_length() - 1), T without its last cell c in the
    index's order.  That gives the value over every S strictly inside T.
    Write d_U for the merge distance of the target over the thickening of U,
    and p_U(i) for the node that the component of node i over U maps to.
    The parallelogram (S, T) at the component of S with least member i
    measures d_T(p_T(i), p_S(i)); val(S, T) is the largest over S.  Merge
    distance is an ultrametric that only falls as the set grows.  For opens
    S < S' < T the least member of i's component over S' lies in i's
    component over T, so the chain inequality val(S, T) <= max(val(S, S'),
    val(S', T)) follows from
        d_T(p_T, p_S) <= max(d_T(p_T, p_S'), d_S'(p_S', p_S)).
    Cells are numbered by decreasing dimension, so c has the least dimension
    in T, none of its proper faces is in T, and P = P(T) is open.
    Claim: every val(S, T) is at most the largest val(P(U), U).  The proof
    is by induction on |T|.
    (a) c is not in S.  Then S = P, or S < P and the chain inequality
        bounds val(S, T) by val(P, T) and val(S, P), which induction bounds.
    (b) c is in S.  R = S - c is open, as P is.  Take the least member r of
        an R-component inside a component K of S that meets R.  r's
        components over S and T are K's, so d_T(p_T(r), p_S(r)) is at most
        max(d_T(p_T(r), p_R(r)), d_S(p_R(r), p_S(r))), that is at most
        max(val(R, T), val(R, S)).  Case (a) bounds the first, as c is not
        in R, and induction the second.  A component of S that misses R
        lies over c alone.  All cofaces of c lie in R and no face of c lies
        in T, so it is one node with no link inside T; its value is 0.
    """
    check_tiny(F, G, caps)
    labF, labG = _labelers(F, G)
    phi, psi = _pointers(labF, labG, a)
    opens = [S for S in _open_masks(labF.ix, MAX_OPENS) if S]
    n = a.n

    thick = {S: labF.grow(S, n) for S in opens}
    thick2 = {S: labF.grow(thick[S], n) for S in opens}
    ext_phi, ok_phi = _extension(labF, labG, phi, opens, thick)
    ext_psi, ok_psi = _extension(labG, labF, psi, opens, thick)

    worst: float | int = 0
    sides = ((labF, labG, ext_phi, ext_psi), (labG, labF, ext_psi, ext_phi))
    for T in opens:
        P, once, twice = _parent(T), thick[T], thick2[T]
        for lab, other, there, back in sides:
            # triangles at T
            mid, far, ahead, undo = other.at(once), lab.at(twice), there[T], back[once]
            for i, j in ahead.items():
                k = undo[mid[j]]
                if far[i] < 0 or far[i] != far[k]:
                    d = lab.node_distance(twice, i, k)
                    worst = max(worst, d if math.isinf(d) else (d + 1) // 2)
            # parallelograms against the parent, each node pair once
            if P:
                labT = lab.at(T)
                for p, q in {(ahead[labT[i]], j) for i, j in there[P].items()}:
                    if mid[p] < 0 or mid[p] != mid[q]:
                        worst = max(worst, other.node_distance(once, p, q))
        if math.isinf(worst):
            break

    return FullLossReport(value=worst, consistent_extension=ok_phi and ok_psi,
                          opens=len(opens))


# -- exhaustive interleaving search ----------------------------------------------


def _assignment_candidates(
    src: CosheafGraph, dst: _Labeler, n: int, pair_checks, caps: TinyCaps
) -> list[list[int]] | None:
    """All component-level pointer maps src -> dst at level n that pass the
    given parallelogram family at slack 0, via backtracking.  None when some
    node has no target at all (no n-assignment exists)."""
    options: list[list[int]] = []
    for c in src.cells:
        reps = [i for i, k in enumerate(dst.at(dst.star(c, n))) if k == i]
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


def _pair_checks(lab: _Labeler) -> list[tuple[int, int, Cell]]:
    """(node x, its face image at sigma, sigma) for every node x of the
    labeler's graph and proper face sigma of x's cell; raises CosheafError
    where a node has none.

    x's image at sigma is the least member of x's component over the star of
    sigma.  That is exact on any cosheaf that passes validate:
    - each node over a coface of sigma reaches a node over sigma by following
      links down, and every cell on the way lies in the star of sigma, so
      that node is in x's component;
    - linked nodes in the star have the same image at sigma, by the path
      independence that validate checks, so the component holds exactly one
      node over sigma;
    - nodes are numbered in cell_sort_key order, which puts a face before
      each of its cofaces (on the first axis where they differ the face is
      degenerate and the coface is not), so that node is the least member,
      the label _components gives.
    A least member over another cell means x has no image at sigma."""
    graph, out = lab.graph, []
    for xi, tau in enumerate(graph.cells):
        for sigma in faces(tau):
            xf = lab.at(lab.star(sigma, 0))[xi]
            if graph.cells[xf] != sigma:
                raise CosheafError(f"input cosheaf is missing a face image at {sigma!r}")
            out.append((xi, xf, sigma))
    return out


def exhaustive_interleaving(
    F: CosheafGraph, G: CosheafGraph, n_max: int, caps: TinyCaps = TinyCaps()
) -> int | None:
    """Smallest n <= n_max admitting a basis assignment with zero loss at
    slack 0, i.e. the interleaving distance of the instance as an integer;
    None when every n up to n_max fails."""
    if n_max < 0:
        raise ValueError("n_max must be a natural number")
    check_tiny(F, G, caps)
    labF, labG = _labelers(F, G)
    checks_F, checks_G = _pair_checks(labF), _pair_checks(labG)

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
