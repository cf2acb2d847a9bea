"""The computational cosheaf: one node per element of each basic-open image.

A CosheafGraph stores, for a fixed grid, the elements of F(S_sigma) for every
cell sigma as nodes (each node carries its cell), plus links (x, y) meaning
that y is the image of x under the map induced by S_{cell(x)} inside
S_{cell(y)}, where cell(y) is a codimension-1 face of cell(x).  Face images
are rows, one per (cell, face cell) pair.  A codimension-1 row is stored: each
node's first listed link there.  A deeper row composes, for each axis where
the two cells differ in axis order, the row to the codimension-1 face between
them with that face's row, and keeps each node's first image found.
Path-independence of that composition is a validated invariant rather than
duplicated data.

Connectivity over an open cell set S is computed on the nodes whose carrier
cell lies in S, joining two nodes when a link connects them and both carriers
are in S.  These "slices" are not induced subgraphs: a link may leave the
slice even when cells of both endpoints would fit a naive index range.  For a
thickened basic open the component count equals the cardinality of the image
of the thickened set.

Components only merge as the radius grows, so two nodes have a least radius
at which they share a component: their merge radius, an ultrametric.  One
merge_radii sweep gives it for many pairs; every diagram check, distance and
diameter read it.  slice and set_at label with the same union-find step.

Extended naturals are represented as plain ints with float("inf") as the top
element; arithmetic saturates automatically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

from .grid import (
    Cell,
    GridSpec,
    cell_from_wire,
    cell_sort_key,
    cell_to_wire,
    faces,
    is_face,
    is_open,
    saturation_steps,
    star_ring,
    star_saturation,
    thicken,
    wire,
)

INFINITE = float("inf")


def _slack(r, step: int, n: int):
    """The least slack k >= 0 with r <= step * (n + k), for a merge radius r."""
    return r if math.isinf(r) else max(0, -(-r // step) - n)


def fmt_extended(x) -> int | str:
    """JSON form of an extended natural: an int or the string "inf"."""
    return "inf" if math.isinf(x) else int(x)


class CosheafError(ValueError):
    pass


class CosheafGraph:
    """Immutable after construction.  Nodes are (id, carrier cell); links are
    (child id, parent id) with the parent at a codimension-1 face of the child.
    """

    def __init__(
        self,
        grid: GridSpec,
        nodes: Iterable[tuple[str, Cell]],
        links: Iterable[tuple[str, str]],
    ) -> None:
        self.grid = grid
        # nodes sharing a cell form one block of consecutive indices, ordered
        # by (cell, id); they also share one Cell object, so per-node cell
        # reads hit a few hot objects
        by_cell: dict[Cell, list[str]] = {}
        for nid, c in nodes:
            by_cell.setdefault(c, []).append(nid)
        order = sorted(by_cell, key=cell_sort_key)
        self.ids: list[str] = [nid for c in order for nid in sorted(by_cell[c])]
        self.cells: list[Cell] = [c for c in order for _ in by_cell[c]]
        if len(set(self.ids)) != len(self.ids):
            raise CosheafError("duplicate node ids")
        self.index: dict[str, int] = {nid: i for i, nid in enumerate(self.ids)}
        self.nodes_at: dict[Cell, list[int]] = {}
        for i, c in enumerate(self.cells):
            self.nodes_at.setdefault(c, []).append(i)
        for c in order:
            grid.check_cell(c)

        adj: list[list[int]] = [[] for _ in self.ids]
        # stored face images, one row per (cell, face cell) pair: the first linked
        # parent of each node over the cell, by position in its block, else None
        self._links: dict[tuple[Cell, Cell], list[int | None]] = {}
        self._raw_links: list[tuple[int, int]] = []
        for child, parent in links:
            ci, pi = self.index.get(child), self.index.get(parent)
            if ci is None or pi is None:
                raise CosheafError(f"link ({child!r}, {parent!r}) names unknown node")
            self._raw_links.append((ci, pi))
            adj[ci].append(pi)
            adj[pi].append(ci)
            key = (self.cells[ci], self.cells[pi])
            block = self.nodes_at[key[0]]
            row = self._links.get(key)
            if row is None:
                row = self._links[key] = [None] * len(block)
            if row[ci - block[0]] is None:
                row[ci - block[0]] = pi
        self._raw_links.sort()
        for a in adj:
            a.sort()
        # a tuple holds its items inline: one pointer hop fewer per row read in
        # the union-find sweeps, which shows once a graph outgrows the CPU caches
        self.adj: list[tuple[int, ...]] = list(map(tuple, adj))

    # -- basic queries ------------------------------------------------------

    def node_count(self) -> int:
        return len(self.ids)

    def link_count(self) -> int:
        return len(self._raw_links)

    def elements_of(self, c: Cell) -> list[str]:
        """Ids of the elements carried by cell c (empty when the cell is unoccupied)."""
        return [self.ids[i] for i in self.nodes_at.get(c, ())]

    def cell_of(self, node_id: str) -> Cell:
        return self.cells[self.index[node_id]]

    def occupied_cells(self) -> list[Cell]:
        return sorted(self.nodes_at, key=cell_sort_key)

    def elements_by_dim(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c, idxs in self.nodes_at.items():
            out[c.dim] = out.get(c.dim, 0) + len(idxs)
        return out

    def face_image(self, node_id: str, face: Cell) -> str:
        """The element at `face` that the given node maps to: its entry in the
        face-image row of its cell (composites agree by the validated invariant)."""
        i = self.index[node_id]
        c = self.cells[i]
        j = i if face == c else self._face_images(c, face)[i - self.nodes_at[c][0]]
        if j is None:
            raise CosheafError(f"no face image of {node_id!r} at {face!r}")
        return self.ids[j]

    def _face_images(self, c: Cell, face: Cell) -> list[int | None]:
        """The face image at `face`, a proper face of c, of each node over c
        by position in c's block; None where a node has none.  A codimension-1
        face reads its stored row.  A deeper face composes, for each axis where
        c and `face` differ in axis order, the row to the codimension-1 face mid
        taking face's coordinate there with _face_images(mid, face); each node
        keeps the first image found."""
        row = self._links.get((c, face))
        if row is not None and face.dim == c.dim - 1:
            return row
        out: list[int | None] = [None] * len(self.nodes_at[c])
        co = c.coords
        for a, (m, e) in enumerate(zip(co, face.coords)):
            if m == e:
                continue
            mid = Cell(co[:a] + (e,) + co[a + 1:])
            down = self._links.get((c, mid))
            if down is None:
                continue
            img, m0 = self._face_images(mid, face), self.nodes_at[mid][0]
            for s, j in enumerate(down):
                if out[s] is None and j is not None:
                    out[s] = img[j - m0]
        return out

    def saturation(self, center: Cell) -> int:
        return star_saturation(self.grid, self.grid.check_cell(center))

    # -- connectivity labelings ----------------------------------------------

    def _labeling(self, cells: Iterable[Cell]) -> "SliceLabeling":
        members = sorted(i for c in cells for i in self.nodes_at.get(c, ()))
        parent = [-1] * len(self.ids)
        _join(parent, self.adj, members)
        lab = [-2] * len(self.ids)
        ids: dict[int, int] = {}  # component id of each root, in order of least member
        for i in members:
            r = i
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            lab[i] = ids.setdefault(r, len(ids))
        return SliceLabeling(graph=self, component_count=len(ids), _lab=lab, _members=members)

    def slice(self, center: Cell, radius: int) -> "SliceLabeling":
        """Label the connected components of the portion of the graph carried
        by the radius-thickened basic open of `center`."""
        self.grid.check_cell(center)
        if radius < 0:
            raise ValueError("radius must be a natural number")
        return self._labeling(c for c in self.nodes_at if star_ring(center, c) <= radius)

    def merge_radii(self, center: Cell, us: list[int], vs: list[int]) -> list:
        """For each pair of node indices (us[p], vs[p]): the least radius at
        which both lie in one component of the slice at `center`, INFINITE if
        they are still apart at saturation.  A node paired with itself merges
        at 0.

        One sweep adds the slice's nodes ring by ring (ring r holds the nodes
        whose cell has star_ring r around the center) to a union-find, and
        stops once every pair has merged or the slice saturates."""
        out: list = [0 if u == v else INFINITE for u, v in zip(us, vs)]
        pending = [p for p, r in enumerate(out) if r]
        if not pending:
            return out
        top = self.saturation(center)
        rings: list[list[int]] = [[] for _ in range(top + 1)]
        for c, block in self.nodes_at.items():
            r = star_ring(center, c)
            if r <= top:
                rings[r] += block
        parent = [-1] * len(self.ids)
        for r, ring in enumerate(rings):
            if not ring:
                continue
            _join(parent, self.adj, ring)
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

    def set_at(self, cells: Iterable[Cell]) -> "SliceLabeling":
        """Components of the sub-object carried by an arbitrary open cell set;
        realizes the image of the cosheaf on that set."""
        s = frozenset(cells)
        if not is_open(self.grid, s):
            raise CosheafError("set_at requires a coface-closed cell set")
        return self._labeling(s)


def _join(parent: list[int], adj: list[tuple[int, ...]], nodes: Iterable[int]) -> None:
    """Add `nodes` to the union-find forest `parent` (-1 marks a node outside
    it), uniting each with its neighbours that are already in."""
    for i in nodes:
        parent[i] = root = i  # root of i's tree, which only this loop links
        for w in adj[i]:
            if parent[w] < 0:
                continue
            while parent[w] != w:
                parent[w] = w = parent[parent[w]]
            if w != root:
                parent[root] = root = w


@dataclass
class SliceLabeling:
    """Component labeling of the nodes carried by an open cell set.

    Component ids are numbered in order of each component's least member in
    the canonical node order, so labelings are deterministic.  The label array
    holds -2 for non-members and the component id for members.
    """

    graph: CosheafGraph
    component_count: int
    _lab: list[int] = field(repr=False, default_factory=list)
    _members: list[int] = field(repr=False, default_factory=list)

    def is_member(self, node_id: str) -> bool:
        i = self.graph.index.get(node_id)
        return i is not None and self._lab[i] >= 0

    def component_of(self, node_id: str) -> int:
        i = self.graph.index.get(node_id)
        if i is None or self._lab[i] < 0:
            raise CosheafError(f"node {node_id!r} is not a member of this slice")
        return self._lab[i]

    def members(self) -> list[str]:
        return [self.graph.ids[i] for i in self._members]

    def member_indices(self) -> list[int]:
        return list(self._members)

    def representatives(self) -> list[str]:
        """One node id per component: the first member in canonical order."""
        seen: dict[int, str] = {}
        for i in self._members:
            seen.setdefault(self._lab[i], self.graph.ids[i])
        return [seen[k] for k in sorted(seen)]


def validate(F: CosheafGraph) -> list[str]:
    """Check all CosheafGraph invariants; return one message per violation.

    Rules: links point from a cell to a proper codimension-1 face of it; one
    link per (node, face cell); a node must have a face image at every
    codimension-1 face of its cell, occupied or not, and at every occupied
    deeper face; derived images along different descent orders must agree.
    Link violations are reported alone.

    The checks run per block of nodes sharing a cell, on whole face rows
    from _links.  Links are checked one by one only when the rows of proper
    codimension-1 faces do not hold every link, i.e. some link goes
    elsewhere or repeats a (node, face cell) pair.  Messages come in link
    order, then node order, as a per-node pass would give them.
    """
    out: list[str] = []
    filled = 0  # slots of proper codimension-1 rows that hold a link
    for c, block in F.nodes_at.items():
        co = c.coords
        # codimension-1 faces: one open interval closed down to either end
        mids = [Cell(co[:a] + (m + e,) + co[a + 1:])
                for a, m in enumerate(co) if m % 2 for e in (-1, 1)]
        failed: dict[Cell, list[set[int]]] = {}
        for f in mids:
            row = F._links.get((c, f))
            if row is None:
                failed[f] = [set() for _ in block]
                continue
            missing = row.count(None)
            filled += len(row) - missing
            if missing:
                failed[f] = [set() if j is None else {j} for j in row]
        # deeper faces, from cells of dimension 2 up
        for f in faces(c).difference(mids) if len(mids) > 2 else ():
            if f not in F.nodes_at:
                continue
            images: list[set[int]] = [set() for _ in block]
            for mid in mids:
                row = F._links.get((c, mid))
                if row is None or not is_face(f, mid):
                    continue
                img = F._face_images(mid, f)
                m0 = F.nodes_at[mid][0]
                for s, j in enumerate(row):
                    if j is not None and img[j - m0] is not None:
                        images[s].add(img[j - m0])
            if any(len(x) != 1 for x in images):
                failed[f] = images
        if not failed:
            continue
        order = sorted(failed, key=cell_sort_key)
        for s, i in enumerate(block):
            for f in order:
                images = failed[f]
                if not images[s]:
                    out.append(f"missing face image: node {F.ids[i]} has no image at face {f!r}")
                elif len(images[s]) > 1:
                    names = sorted(F.ids[k] for k in images[s])
                    out.append(f"incompatible face images: node {F.ids[i]} reaches {names} at {f!r}")
    if filled == len(F._raw_links):
        return out

    # some link is not to a proper codimension-1 face, or repeats a (node, face cell) pair
    out = []
    seen: set[tuple[int, Cell]] = set()
    for ci, pi in F._raw_links:
        child, parent = F.ids[ci], F.ids[pi]
        cc, pc = F.cells[ci], F.cells[pi]
        if not (is_face(pc, cc) and pc != cc):
            out.append(f"wrong direction: link ({child}, {parent}) does not go to a proper face")
        elif pc.dim != cc.dim - 1:
            out.append(f"link skips dimensions: ({child}, {parent}) is not codimension-1")
        elif (ci, pc) in seen:
            out.append(f"duplicate face image: node {child} has several links at {pc!r}")
        else:
            seen.add((ci, pc))
    return out


# -- the slice metric ---------------------------------------------------------


def distance(F: CosheafGraph, center: Cell, m: int, x: str, y: str):
    """Smallest k >= 0 such that x and y label the same component of the
    (m+k)-slice at `center`; INFINITE if they are still apart at saturation.
    Both must be members of the m-slice.  This is their merge radius less m."""
    F.grid.check_cell(center)
    idx = [F.index.get(x), F.index.get(y)]
    if None in idx or max(star_ring(center, F.cells[i]) for i in idx) > m:
        raise CosheafError(f"{x!r} and {y!r} are not both members of this slice")
    return _slack(F.merge_radii(center, idx[:1], idx[1:])[0], 1, m)


def diameter(F: CosheafGraph, center: Cell, m: int):
    """Largest pairwise distance between elements of the m-slice at `center`;
    zero for an empty or singleton slice.  Merge radii are an ultrametric, so
    the largest is the one from the first component to the farthest."""
    reps = [F.index[nid] for nid in F.slice(center, m).representatives()]
    return _slack(max(F.merge_radii(center, reps[:1] * len(reps), reps), default=0), 1, m)


# -- file format and DOT export -----------------------------------------------


def to_json_obj(F: CosheafGraph) -> dict:
    return {
        "grid": F.grid.to_wire(),
        "nodes": [
            {"id": nid, "cell": cell_to_wire(c)} for nid, c in zip(F.ids, F.cells)
        ],
        "links": sorted(
            [F.ids[ci], F.ids[pi]] for ci, pi in F._raw_links
        ),
    }


def to_json(F: CosheafGraph) -> str:
    return json.dumps(to_json_obj(F), sort_keys=True) + "\n"


def from_json_obj(obj: dict) -> CosheafGraph:
    grid = GridSpec.from_wire(wire(obj, dict, "a cosheaf", CosheafError)["grid"])
    # files list nodes cell by cell, so a run of equal wire cells is parsed
    # once; the constructor checks each distinct cell against the grid
    nodes: list[tuple[str, Cell]] = []
    raw = c = None
    for n in obj["nodes"]:
        if c is None or n["cell"] != raw:
            raw, c = n["cell"], cell_from_wire(n["cell"])
        nodes.append((n["id"], c))
    return CosheafGraph(grid, nodes, obj.get("links", []))


def from_json(text: str) -> CosheafGraph:
    return from_json_obj(json.loads(text))


def _cell_token(c: Cell) -> str:
    return ",".join(
        str(l) if kind == "deg" else f"{l}+" for kind, l in c.intervals()
    )


def to_dot(F: CosheafGraph) -> str:
    """One graph node per cosheaf node labeled id@cell, one undirected edge
    per link.  Output is stable under re-runs."""
    lines = ["graph cosheaf {"]
    for nid, c in zip(F.ids, F.cells):
        lines.append(f'  "{nid}" [label="{nid}@{_cell_token(c)}"];')
    for ci, pi in F._raw_links:
        lines.append(f'  "{F.ids[ci]}" -- "{F.ids[pi]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
