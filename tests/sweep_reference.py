"""The slow reference for CosheafGraph.merge_radii and CosheafGraph.slice.

Both take one center, not a chain, and classify every occupied cell of the
graph by grid.star_ring around it, on every call, instead of reading rings off
the box shell.  Their cost is the whole graph per sweep, whatever radius the
sweep stops at; the differential tests compare the fast paths' whole results
with them, and each member of a _chain_radii sweep with merge_radii at that
member's center.
"""

from __future__ import annotations

from mapperbound.cosheaf import INFINITE, CosheafGraph, SliceLabeling, _join
from mapperbound.grid import Cell, star_ring


def merge_radii(F: CosheafGraph, center: Cell, us: list[int], vs: list[int]) -> list:
    """CosheafGraph.merge_radii, with every ring taken from one star_ring scan
    of the occupied cells."""
    out: list = [0 if u == v else INFINITE for u, v in zip(us, vs)]
    pending = [p for p, r in enumerate(out) if r]
    if not pending:
        return out
    rings: list[list[int]] = [[] for _ in range(F.saturation(center) + 1)]
    for c, block in F.nodes_at.items():
        rings[star_ring(center, c)] += block
    parent = [-1] * len(F.ids)
    for r, ring in enumerate(rings):
        if not ring:
            continue
        _join(parent, F.adj, ring)
        still = []
        for p in pending:
            a, b = us[p], vs[p]
            if parent[a] >= 0 <= parent[b]:
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a == b:
                    out[p] = r
                    continue
            still.append(p)
        if not still:
            break
        pending = still
    return out


def slice_labeling(F: CosheafGraph, center: Cell, radius: int) -> SliceLabeling:
    """CosheafGraph.slice, with its members found by a star_ring scan of the
    occupied cells."""
    F.grid.check_cell(center)
    return F._labeling(i for c, block in F.nodes_at.items()
                       if star_ring(center, c) <= radius for i in block)
