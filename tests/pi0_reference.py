"""The slow reference for oracle.geometric_pi0.

Every edge is intersected with every cell of the open set, one exact interval
of the edge parameter per axis constraint, and the intervals of each edge are
merged into maximal connected pieces.  Its cost is edges x cells x d Fraction
solves, so it runs only on test-sized inputs; the differential tests compare
geometric_pi0's whole return value with it.
"""

from __future__ import annotations

from fractions import Fraction

from mapperbound.grid import Cell, GridSpec, is_open
from mapperbound.ingest import GeometricGraph, _as_fraction


def _point_in_cell(val: tuple[Fraction, ...], c: Cell, dfrac: Fraction) -> bool:
    for x, (kind, l) in zip(val, c.intervals()):
        if kind == "deg":
            if x != l * dfrac:
                return False
        else:
            if not (l * dfrac < x < (l + 1) * dfrac):
                return False
    return True


def _point_in_set(val: tuple[Fraction, ...], cells: frozenset[Cell], dfrac: Fraction) -> bool:
    return any(_point_in_cell(val, c, dfrac) for c in cells)


# intervals on an edge parameter are (lo, hi, lo_closed, hi_closed), Fractions
_FULL = (Fraction(0), Fraction(1), True, True)


def _axis_t_interval(u: Fraction, v: Fraction, kind: str, l: int, dfrac: Fraction):
    """Parameter set where (1-t)u + tv satisfies one axis constraint, clipped
    to [0, 1]; returns an interval tuple or None."""
    span = v - u
    if kind == "deg":
        target = l * dfrac
        if span == 0:
            return _FULL if u == target else None
        t = (target - u) / span
        if 0 <= t <= 1:
            return (t, t, True, True)
        return None
    lo_v, hi_v = l * dfrac, (l + 1) * dfrac
    if span == 0:
        return _FULL if lo_v < u < hi_v else None
    t1 = (lo_v - u) / span
    t2 = (hi_v - u) / span
    if t1 > t2:
        t1, t2 = t2, t1
    lo, hi, lc, hc = t1, t2, False, False
    if lo < 0:
        lo, lc = Fraction(0), True
    if hi > 1:
        hi, hc = Fraction(1), True
    if lo > hi or (lo == hi and not (lc and hc)):
        return None
    return (lo, hi, lc, hc)


def _intersect(a, b):
    if a is None or b is None:
        return None
    lo, lc = max((a[0], not a[2]), (b[0], not b[2]))
    hi, hc = min((a[1], a[3]), (b[1], b[3]))
    lc, hc = not lc, hc
    if lo > hi or (lo == hi and not (lc and hc)):
        return None
    return (lo, hi, lc, hc)


def _merge_intervals(parts):
    """Maximal connected unions of parameter intervals."""
    parts = sorted(parts, key=lambda p: (p[0], not p[2], p[1], not p[3]))
    out = []
    for p in parts:
        if out:
            q = out[-1]
            touches = p[0] < q[1] or (p[0] == q[1] and (q[3] or p[2]))
            if touches:
                hi, hc = max((q[1], q[3]), (p[1], p[3]))
                out[-1] = (q[0], hi, q[2], hc)
                continue
        out.append(p)
    return out


def reference_pi0(
    g: GeometricGraph, grid: GridSpec, cells: frozenset[Cell]
) -> tuple[int, list[tuple]]:
    """geometric_pi0 by intersecting every edge with every cell of the set:
    the count and one representative point per component."""
    if not is_open(grid, cells):
        raise ValueError("reference_pi0 requires an open cell set")
    dfrac = _as_fraction(grid.delta)

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
        if _point_in_set(g.vertices[vid], cells, dfrac):
            key = ("v", vid)
            parent[key] = key

    piece_info: dict[tuple, tuple] = {}
    for eidx, (u, v) in enumerate(g.edges):
        uval, vval = g.vertices[u], g.vertices[v]
        parts = []
        for c in cells:
            got = _FULL
            for a, (kind, l) in enumerate(c.intervals()):
                got = _intersect(got, _axis_t_interval(uval[a], vval[a], kind, l, dfrac))
                if got is None:
                    break
            if got is not None:
                parts.append(got)
        for j, piece in enumerate(_merge_intervals(parts)):
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
