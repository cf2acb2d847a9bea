"""The slow reference for building a CosheafGraph: node by node.

reference_graph fills every field of CosheafGraph the way its constructor
once did: it regroups the nodes by cell, builds a set only to detect a
repeated id, fills nodes_at node by node, and resolves each link through
the string index inside the row loop.  Its refusals are the library's, in
the same order: a repeated id, then a cell off the grid, then a link naming
an unknown node.  The differential tests compare the block build's whole
state with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from mapperbound.cosheaf import CosheafError, CosheafGraph
from mapperbound.grid import Cell, GridSpec, cell_sort_key

FIELDS = ("ids", "cells", "index", "nodes_at", "_links", "_raw_links", "adj")


def reference_graph(grid: GridSpec, nodes: Iterable[tuple[str, Cell]],
                    links: Iterable[tuple[str, str]]) -> CosheafGraph:
    """CosheafGraph(grid, nodes, links), built node by node."""
    F = CosheafGraph.__new__(CosheafGraph)
    F.grid = grid
    by_cell: dict[Cell, list[str]] = {}
    for nid, c in nodes:
        by_cell.setdefault(c, []).append(nid)
    order = sorted(by_cell, key=cell_sort_key)
    F.ids = [nid for c in order for nid in sorted(by_cell[c])]
    F.cells = [c for c in order for _ in by_cell[c]]
    if len(set(F.ids)) != len(F.ids):
        counts = Counter(F.ids)
        nid = next(nid for nid, k in counts.items() if k > 1)
        raise CosheafError(f"duplicate node ids: {nid!r} occurs {counts[nid]} times")
    F.index = {nid: i for i, nid in enumerate(F.ids)}
    F.nodes_at = {}
    for i, c in enumerate(F.cells):
        F.nodes_at.setdefault(c, []).append(i)
    for c in order:
        grid.check_cell(c, CosheafError)

    adj: list[list[int]] = [[] for _ in F.ids]
    F._links = {}
    F._raw_links = []
    for child, parent in links:
        ci, pi = F.index.get(child), F.index.get(parent)
        if ci is None or pi is None:
            raise CosheafError(f"link ({child!r}, {parent!r}) names unknown node")
        F._raw_links.append((ci, pi))
        adj[ci].append(pi)
        adj[pi].append(ci)
        key = (F.cells[ci], F.cells[pi])
        block = F.nodes_at[key[0]]
        row = F._links.get(key)
        if row is None:
            row = F._links[key] = [None] * len(block)
        if row[ci - block[0]] is None:
            row[ci - block[0]] = pi
    F._raw_links.sort()
    F.adj = list(map(tuple, adj))
    return F


def state(F: CosheafGraph) -> dict:
    """Every field the build fills, with dict keys in their order."""
    out = {name: getattr(F, name) for name in FIELDS}
    for name in ("index", "nodes_at", "_links"):
        out[name] = list(out[name].items())
    return out
