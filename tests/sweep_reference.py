"""The slow reference for CosheafGraph.merge_radii and CosheafGraph.slice.

Both take one center, not a chain, and classify every occupied cell of the
graph by grid.star_ring around it, on every call, instead of reading rings off
the box shell.  Their cost is the whole graph per sweep, whatever radius the
sweep stops at; the differential tests compare the fast paths' whole results
with them, and each member of a _chain_radii sweep with merge_radii at that
member's center.  The union-find and the labelling are their own, plain
ones: nothing of the library's sweep runs here.
"""

from __future__ import annotations

from mapperbound.cosheaf import INFINITE, CosheafGraph, SliceLabeling
from mapperbound.grid import Cell, star_ring


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        i = parent[i]
    return i


def _join(parent: list[int], adj, nodes: list[int]) -> None:
    """Add `nodes` to the forest `parent` (-1 marks a node outside it), then
    hang the root of each neighbour already in under the node's root."""
    for i in nodes:
        parent[i] = i
        for w in adj[i]:
            if parent[w] >= 0:
                parent[_find(parent, w)] = _find(parent, i)


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
            if parent[a] >= 0 <= parent[b] and _find(parent, a) == _find(parent, b):
                out[p] = r
            else:
                still.append(p)
        if not still:
            break
        pending = still
    return out


def slice_labeling(F: CosheafGraph, center: Cell, radius: int) -> SliceLabeling:
    """CosheafGraph.slice, with its members found by a star_ring scan of the
    occupied cells and numbered by the least member of their component."""
    F.grid.check_cell(center)
    members = sorted(i for c, block in F.nodes_at.items()
                     if star_ring(center, c) <= radius for i in block)
    parent = [-1] * len(F.ids)
    _join(parent, F.adj, members)
    ids: dict[int, int] = {}
    lab = {i: ids.setdefault(_find(parent, i), len(ids)) for i in members}
    return SliceLabeling(graph=F, component_count=len(ids), _lab=lab)
