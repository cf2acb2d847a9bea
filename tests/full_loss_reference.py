"""The slow reference for oracle.full_loss.

Open sets are frozensets of cells, and each larger open T gathers the
parallelogram node pairs of every open S strictly inside it, found by testing
every pair of opens for inclusion.  That is the loss over every pair of
nested open sets taken literally; full_loss measures T against one parent
only, which the proof in its docstring says gives the same value, and the
differential tests compare its whole report with this one.
"""

from __future__ import annotations

import math

from mapperbound.assignment import Assignment
from mapperbound.cosheaf import INFINITE, CosheafGraph
from mapperbound.grid import Cell, thicken
from mapperbound.oracle import (
    MAX_OPENS, FullLossReport, TinyCaps, check_tiny, enumerate_opens,
)


class _Labeler:
    """Components of one graph's nodes over open cell sets, cached per set: a
    member is labelled with the least member of its component, a non-member
    with -1.  Thickening steps are memoised per cell and per set."""

    def __init__(self, graph: CosheafGraph, steps: dict, grown: dict):
        self.graph = graph
        self.cache: dict[frozenset[Cell], list[int]] = {}
        self.steps, self.grown = steps, grown
        self.total = graph.grid.cell_count()

    def at(self, cells: frozenset[Cell]) -> list[int]:
        lab = self.cache.get(cells)
        if lab is None:
            lab = self.cache[cells] = _components(self.graph, cells)
        return lab

    def grow(self, cells: frozenset[Cell], n: int = 1) -> frozenset[Cell]:
        for _ in range(n):
            hit = self.grown.get(cells)
            if hit is None:
                for c in cells.difference(self.steps):
                    self.steps[c] = thicken(self.graph.grid, frozenset({c}), 1)
                hit = self.grown[cells] = frozenset().union(*map(self.steps.__getitem__, cells))
            cells = hit
        return cells

    def node_distance(self, cells: frozenset[Cell], i: int, j: int):
        k = 0
        while True:
            lab = self.at(cells)
            if lab[i] >= 0 and lab[i] == lab[j]:
                return k
            if len(cells) == self.total:
                return INFINITE
            cells = self.grow(cells)
            k += 1


def _components(graph: CosheafGraph, cells: frozenset[Cell]) -> list[int]:
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


def _extension(src: _Labeler, dst: _Labeler, ptr: list[int], opens, thick):
    """Each component of the source over S maps through the pointer of its
    least member; also whether every member agreed."""
    consistent = True
    chosen: dict[tuple[frozenset[Cell], int], int] = {}
    for S in opens:
        target = dst.at(thick[S])
        for i, c in enumerate(src.at(S)):
            if c == i:
                chosen[(S, c)] = ptr[i]
            elif c >= 0 and target[chosen[(S, c)]] != target[ptr[i]]:
                consistent = False
    return chosen, consistent


def reference_full_loss(F: CosheafGraph, G: CosheafGraph, a: Assignment,
                        caps: TinyCaps = TinyCaps()) -> FullLossReport:
    """full_loss with every S strictly inside each T gathered by an inclusion
    test over all pairs of opens."""
    check_tiny(F, G, caps)
    opens = [S for S in enumerate_opens(F.grid, cap=MAX_OPENS) if S]
    n = a.n
    steps, grown = {}, {}
    labF, labG = _Labeler(F, steps, grown), _Labeler(G, steps, grown)
    phi = [G.index[a.phi[nid]] for nid in F.ids]
    psi = [F.index[a.psi[nid]] for nid in G.ids]
    thick = {S: labF.grow(S, n) for S in opens}
    thick2 = {S: labF.grow(thick[S], n) for S in opens}
    ext_phi, ok_phi = _extension(labF, labG, phi, opens, thick)
    ext_psi, ok_psi = _extension(labG, labF, psi, opens, thick)

    worst: float | int = 0
    sides = ((labF, labG, ext_phi, ext_psi), (labG, labF, ext_psi, ext_phi))
    chased = [{S: frozenset((i, there[S, i]) for i, c in enumerate(lab.at(S)) if c == i)
               for S in opens} for lab, _, there, _ in sides]
    for T in opens:
        below = [S for S in opens if S < T]
        for (lab, other, there, back), pairs in zip(sides, chased):
            for i, j in pairs[T]:
                mid = other.at(thick[T])[j]
                d = lab.node_distance(thick2[T], i, back[(thick[T], mid)])
                worst = max(worst, d if math.isinf(d) else (d + 1) // 2)
            labT = lab.at(T)
            gathered = set().union(*(pairs[S] for S in below))
            for p, q in {(there[T, labT[i]], j) for i, j in gathered}:
                worst = max(worst, other.node_distance(thick[T], p, q))
        if math.isinf(worst):
            break
    return FullLossReport(value=worst, consistent_extension=ok_phi and ok_psi,
                          opens=len(opens))
