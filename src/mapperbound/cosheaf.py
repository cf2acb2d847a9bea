"""The computational cosheaf: one node per element of each basic-open image.

A CosheafGraph stores, for a fixed grid, the elements of F(S_sigma) for every
cell sigma as nodes (each node carries its cell), plus links (x, y) meaning
that y is the image of x under the map induced by S_{cell(x)} inside
S_{cell(y)}, where cell(y) is a codimension-1 face of cell(x).  Face images
are rows, one per (cell, face cell) pair.  A codimension-1 row is stored: each
node's first listed link there.  Every image comes from one descent, _descend:
through each facet (grid.facets order) that holds the face, the stored row
composed with the facet's own images.  The loss keeps each node's first image;
validate reads every image and requires them to agree, so it certifies exactly
what the loss reads.  There is one build, block by block (the ids of each cell
in, nodes numbered cell by cell, links as index pairs): the constructor groups
(id, cell) pairs, from_json_obj takes a block per run of equal cells in a
file, and ingest.build hands over its blocks and index pairs.

Connectivity over an open cell set S is computed on the nodes whose carrier
cell lies in S, joining two nodes when a link connects them and both carriers
are in S.  These "slices" are not induced subgraphs: a link may leave the
slice even when cells of both endpoints would fit a naive index range.  For a
thickened basic open the component count equals the cardinality of the image
of the thickened set.

Components only merge as the radius grows, so two nodes have a least radius
at which they share a component: their merge radius, an ultrametric.  One
sweep, an insertion-only union-find, gives it for many pairs: merge_radii at
one center, and the private _chain_radii for a chain of centers, each a face
of the one before.  For a face s of t (per axis the same coordinate, or s's
even and t's one off; clipping keeps both inclusions) star_box(t, r) lies in
star_box(s, r), which lies in star_box(t, r + 1); so the boxes at the
checkpoints q = r * m + k of an m-center chain, r major and cofaces first,
nest.  A cell enters at its first checkpoint, the least
star_ring(chain[k], cell) * m + k, and after (r, k) the union-find holds
exactly the slice of the k-th center at radius r.  Every diagram check,
distance and diameter read it; slice labels the same rings, for a chain of
one center.

Extended naturals (merge radii, slacks, L_B) are ints with INFINITE =
float("inf") as the top element, so arithmetic saturates; fmt_extended writes
INFINITE as "inf", its one JSON form.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

from .grid import (
    Cell,
    GridSpec,
    InvalidInput,
    cell_from_wire,
    cell_sort_key,
    cell_to_wire,
    faces,
    facets,
    is_face,
    saturation_steps,
    shell_cells,
    star_box,
    star_ring,
    star_saturation,
    thicken,
    wire,
    wire_pairs,
)

INFINITE = float("inf")


def _slack(r, step: int, n: int):
    """The least slack k >= 0 with r <= step * (n + k), for a merge radius r."""
    return r if math.isinf(r) else max(0, -(-r // step) - n)


def fmt_extended(x):
    """JSON form of a value that may be INFINITE: "inf" for INFINITE, x itself
    otherwise."""
    return "inf" if x == INFINITE else x


class CosheafError(InvalidInput):
    """A cosheaf refused on reading or building, or by validate (its violations)."""


class CosheafGraph:
    """Immutable after construction.  Nodes are (id, carrier cell); links are
    (child id, parent id) with the parent at a codimension-1 face of the child.
    """

    def __init__(self, grid: GridSpec, nodes: Iterable[tuple[str, Cell]],
                 links: Iterable[tuple[str, str]]) -> None:
        by_cell: dict[Cell, list[str]] = {}
        for nid, c in nodes:
            by_cell.setdefault(c, []).append(nid)
        self._build(grid, by_cell, list(links), named=True)

    @classmethod
    def _from_blocks(cls, grid: GridSpec, by_cell: dict, links: Sequence, named: bool):
        F = cls.__new__(cls)
        F._build(grid, by_cell, links, named)
        return F

    def _build(self, grid: GridSpec, by_cell: dict[Cell, list[str]], links: Sequence,
               named: bool) -> None:
        """The one build, block by block, from the ids of each occupied cell and
        (child, parent) links, of ids if `named`, else of node indices.  It refuses
        a repeated id, then an off-grid cell, then a link naming an unknown node."""
        self.grid = grid
        # a cell's nodes are one block of consecutive indices, ordered by
        # (cell, id), sharing one Cell object: per-node cell reads hit few objects
        self.ids: list[str] = []
        self.cells: list[Cell] = []
        self.nodes_at: dict[Cell, list[int]] = {}
        start: list[int] = []  # per node, the first index of its block
        for c in sorted(by_cell, key=cell_sort_key):
            i, k = len(self.ids), len(by_cell[c])
            self.ids += sorted(by_cell[c])
            self.cells += [c] * k
            self.nodes_at[c] = list(range(i, i + k))
            start += [i] * k
        self.index: dict[str, int] = dict(zip(self.ids, range(len(self.ids))))
        if len(self.index) != len(self.ids):
            counts = Counter(self.ids)
            nid = next(nid for nid, k in counts.items() if k > 1)
            raise CosheafError(f"duplicate node ids: {nid!r} occurs {counts[nid]} times")
        for c in self.nodes_at:
            grid.check_cell(c, CosheafError)
        if named:
            get = self.index.get
            pairs = [(get(child), get(parent)) for child, parent in links]
            for (child, parent), pair in zip(links, pairs):
                if None in pair:
                    raise CosheafError(f"link ({child!r}, {parent!r}) names unknown node")
            links = pairs

        adj: list[list[int]] = [[] for _ in self.ids]
        # stored face images, one row per (cell, face cell) pair: the first linked
        # parent of each node over the cell, by position in its block, else None
        self._links: dict[tuple[Cell, Cell], list[int | None]] = {}
        rows, cells = self._links, self.cells
        for ci, pi in links:
            adj[ci].append(pi)
            adj[pi].append(ci)
            key = (cells[ci], cells[pi])
            row = rows.get(key)
            if row is None:
                row = rows[key] = [None] * len(self.nodes_at[key[0]])
            if row[ci - start[ci]] is None:
                row[ci - start[ci]] = pi
        self._raw_links: list[tuple[int, int]] = sorted(links)
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

    def _index_of(self, node_id: str) -> int:
        if (i := self.index.get(node_id)) is None:
            raise CosheafError(f"unknown node {node_id!r}")
        return i

    def cell_of(self, node_id: str) -> Cell:
        return self.cells[self._index_of(node_id)]

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
        i = self._index_of(node_id)
        c = self.cells[i]
        j = i if face == c else self._face_images(c, face)[i - self.nodes_at[c][0]]
        if j is None:
            raise CosheafError(f"no face image of {node_id!r} at {face!r}")
        return self.ids[j]

    def _face_images(self, c: Cell, face: Cell) -> list[int | None]:
        """The face image at `face`, a proper face of c, of each node over c
        by position in c's block: the first row _descend yields (a facet's
        image is its stored row), or all None if it yields none.  validate
        requires every row to be complete and equal to this one."""
        return next(self._descend(c, face), None) or [None] * len(self.nodes_at[c])

    def _descend(self, c: Cell, face: Cell) -> Iterator[list[int | None]]:
        """The one descent to `face`, a proper face of c: for each facet mid of
        c that holds `face` and has a stored row, in grid.facets order, each
        node's image at `face` through mid by position in c's block, None for
        none: the row if mid is `face`, else it composed with _face_images."""
        for mid in (face,) if face in facets(c) else facets(c):  # a facet holds no other facet
            row = self._links.get((c, mid))
            if row is None:
                continue
            if mid == face:
                yield row
            elif is_face(face, mid):
                img, m0 = self._face_images(mid, face), self.nodes_at[mid][0]
                yield [None if j is None else img[j - m0] for j in row]

    def saturation(self, center: Cell) -> int:
        return star_saturation(self.grid, self.grid.check_cell(center))

    # -- connectivity labelings ----------------------------------------------

    def slice(self, center: Cell, radius: int) -> "SliceLabeling":
        """Label the connected components of the portion of the graph carried
        by the radius-thickened basic open of `center`: the rings of a chain
        of one center up to `radius`, numbered by least member."""
        self.grid.check_cell(center)
        if radius < 0:
            raise ValueError("radius must be a natural number")
        members: list[int] = []
        for r, _, ring in self._rings([center]):
            if r <= radius:
                members += ring
            if r >= radius:  # no box beyond the radius is read
                break
        members.sort()
        parent = [-1] * len(self.ids)
        _join(parent, self.adj, members)
        lab: dict[int, int] = {}
        ids: dict[int, int] = {}  # component id of each root, in order of least member
        for i in members:
            root = i
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            lab[i] = ids.setdefault(root, len(ids))
        return SliceLabeling(graph=self, component_count=len(ids), _lab=lab)

    def _rings(self, chain: Sequence[Cell]) -> Iterator[tuple[int, int, list[int]]]:
        """(r, k, nodes) per checkpoint q = r * m + k of an m-center chain,
        each center a face of the one before, up to the top center's
        saturation.  A cell is filed under its first checkpoint, the least
        star_ring(chain[k], cell) * m + k; the boxes nest (module docstring),
        so the nodes up to (r, k) are the slice of chain[k] at radius r.
        While a box holds no more grid cells than the graph occupies, every
        checkpoint is read off the shell between it and the previous box.
        From there on the occupied cells are filed in one scan, and only the
        switch checkpoint and each one that adds nodes are yielded, each with
        the m - 1 after it, so that every center sees each addition."""
        m, get, inner = len(chain), self.nodes_at.get, None
        for q in range((self.saturation(chain[0]) + 1) * m):
            box = star_box(self.grid, chain[q % m], q // m)
            if math.prod(map(len, box)) > len(self.nodes_at):
                break
            yield q // m, q % m, [i for t in shell_cells(box, inner) for i in get(t, ())]
            inner = box
        else:  # no box outgrew the graph: the shells gave every checkpoint
            return
        rings: dict[int, list[int]] = {q: []}
        for c, block in self.nodes_at.items():
            first = min(star_ring(t, c) * m + k for k, t in enumerate(chain))
            if first >= q:
                rings.setdefault(first, []).extend(block)
        for q in sorted({f + k for f in rings for k in range(m)}):
            yield q // m, q % m, rings.get(q, [])

    def merge_radii(self, center: Cell, us: list[int], vs: list[int]) -> list:
        """For each pair of node indices (us[p], vs[p]): the least radius at
        which both lie in one component of the slice at `center`, INFINITE
        if they are still apart at saturation; a node paired with itself
        merges at 0."""
        if len(us) != len(vs):
            raise ValueError(f"merge_radii takes pairs: {len(us)} nodes in us, {len(vs)} in vs")
        return self._chain_radii([center], us, vs, [len(us)])

    def _chain_radii(self, chain: Sequence[Cell], us: list[int], vs: list[int],
                     ends: Sequence[int]) -> list:
        """merge_radii for a chain of centers: chain[k] is the center of the
        pairs from ends[k-1] (or 0) to ends[k].  Each center must be a face
        of the one before: nothing checks it, and a chain that does not nest
        gives wrong radii.

        One sweep adds each of _rings' checkpoints to a union-find and checks
        member k's pending pairs at (r, k) if a node came in since its last
        check.  A member with nothing pending takes no part, and the sweep
        stops once every pair has merged or the checkpoints run out, so a
        sweep that stops early costs the cells it reached."""
        out: list = [0 if u == v else INFINITE for u, v in zip(us, vs)]
        members, pending = [], []
        for c, a, b in zip(chain, [0, *ends], ends):
            if todo := [p for p in range(a, b) if out[p]]:
                members.append(c)  # a sub-chain still nests
                pending.append(todo)
        if not members:
            return out
        parent, adj = [-1] * len(self.ids), self.adj
        added, seen, left = 0, [0] * len(members), len(members)
        for r, k, ring in self._rings(members):
            if ring:
                _join(parent, adj, ring)
                added += len(ring)
            todo = pending[k]
            if not todo or seen[k] == added:
                continue
            seen[k] = added
            still = []
            for p in todo:
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
            pending[k] = still
            if not still:
                left -= 1
                if not left:
                    break
        return out


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
    the canonical node order, so labelings are deterministic.  The labels map
    each member's node index to its component id, in canonical order.
    """

    graph: CosheafGraph
    component_count: int
    _lab: dict[int, int] = field(repr=False, default_factory=dict)

    def component_of(self, node_id: str) -> int:
        k = self._lab.get(self.graph.index.get(node_id))
        if k is None:
            raise CosheafError(f"node {node_id!r} is not a member of this slice")
        return k

    def members(self) -> list[str]:
        return [self.graph.ids[i] for i in self._lab]

    def member_indices(self) -> list[int]:
        return list(self._lab)

    def representatives(self) -> list[str]:
        """One node id per component, in id order: its first member in canonical order."""
        seen: dict[int, str] = {}
        for i, k in self._lab.items():
            seen.setdefault(k, self.graph.ids[i])
        return list(seen.values())


def validate(F: CosheafGraph) -> list[str]:
    """Check all CosheafGraph invariants; return one message per violation.

    Rules: links point from a cell to a proper codimension-1 face of it; one
    link per (node, face cell); a node must have a face image at every
    codimension-1 face of its cell, occupied or not, and at every occupied
    deeper face; derived images along different descent orders must agree.
    Link violations are reported alone.

    The checks run per block of nodes sharing a cell, on the whole rows that
    _descend yields for each facet and each occupied deeper face: the images
    the loss reads.  Links are checked one by one only when the rows of
    proper codimension-1 faces do not hold every link, i.e. some link goes
    elsewhere or repeats a (node, face cell) pair.  Messages come in link
    order, then node order, as a per-node pass would give them.
    """
    out: list[str] = []
    for c, block in F.nodes_at.items():
        mids = facets(c)
        failed: dict[Cell, list[set[int]]] = {}
        # every facet, occupied or not, and every occupied deeper face (dimension 2 up)
        deeper = [f for f in faces(c).difference(mids) if f in F.nodes_at] if len(mids) > 2 else []
        for f in (*mids, *deeper):
            rows = list(F._descend(c, f))
            if rows and None not in rows[0] and rows.count(rows[0]) == len(rows):
                continue  # one image per node, the same along every facet
            images = ([{j for j in col if j is not None} for col in zip(*rows)] if rows
                      else [set() for _ in block])
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
    if sum(len(r) - r.count(None) for (c, f), r in F._links.items()
           if f in facets(c)) == len(F._raw_links):
        return out  # each link fills a slot of a facet row

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
    """The wire form of F.  The nodes of one cell are consecutive and share one
    "cell" list, converted once per block: read the object or dump it, but do
    not edit one node's cell in place."""
    return {
        "grid": F.grid.to_wire(),
        "nodes": [
            {"id": F.ids[i], "cell": w}
            for c, block in F.nodes_at.items() for w in [cell_to_wire(c)] for i in block
        ],
        "links": sorted([F.ids[ci], F.ids[pi]] for ci, pi in F._raw_links),
    }


def to_json(F: CosheafGraph) -> str:
    """Exactly json.dumps(to_json_obj(F), sort_keys=True) + "\n", written block by
    block: one '{"cell": ..., "id": ' prefix per cell, ids escaped as json.dumps
    escapes them, links sorted by their ids and only then escaped."""
    ids, enc = F.ids, encode_basestring_ascii
    nodes = ", ".join(head + enc(ids[i]) + "}" for c, block in F.nodes_at.items()
                      for head in ['{"cell": ' + json.dumps(cell_to_wire(c)) + ', "id": ']
                      for i in block)
    links = ", ".join(f"[{enc(a)}, {enc(b)}]"
                      for a, b in sorted((ids[ci], ids[pi]) for ci, pi in F._raw_links))
    grid = json.dumps(F.grid.to_wire(), sort_keys=True)
    return f'{{"grid": {grid}, "links": [{links}], "nodes": [{nodes}]}}\n'


def from_json_obj(obj: dict) -> CosheafGraph:
    grid = GridSpec.from_wire(wire(obj, dict, "a cosheaf", CosheafError).get("grid"))
    # files list nodes cell by cell: a run of equal wire cells is parsed once
    # and its ids join that cell's block; wire faults come in file order
    by_cell: dict[Cell, list[str]] = {}
    raw = block = None
    for n in wire(obj.get("nodes"), list, "cosheaf nodes", CosheafError):
        if type(n) is not dict:
            wire(n, dict, "a node", CosheafError)
        if block is None or n.get("cell") != raw:
            raw = n.get("cell")
            block = by_cell.setdefault(cell_from_wire(raw, CosheafError), [])
        nid = n.get("id")
        if type(nid) is not str:
            wire(nid, str, "a node id", CosheafError)
        block.append(nid)
    links = wire_pairs(obj.get("links", []), "links", CosheafError)
    return CosheafGraph._from_blocks(grid, by_cell, links, named=True)


def from_json(text: str) -> CosheafGraph:
    return from_json_obj(json.loads(text))


def _cell_token(c: Cell) -> str:
    return ",".join(
        str(l) if kind == "deg" else f"{l}+" for kind, l in c.intervals()
    )


def _dot_id(s: str) -> str:
    """s quoted, each '"' escaped as '\\"', DOT's one escape; or, if s ends in a
    backslash, which would escape the closing quote, an HTML-like <s> with &, <
    and > as entities."""
    if s.endswith("\\"):
        return "<" + s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;") + ">"
    return '"' + s.replace('"', '\\"') + '"'


def to_dot(F: CosheafGraph) -> str:
    """One graph node per cosheaf node labeled id@cell, one undirected edge
    per link, each id and label written by _dot_id.  Output is stable under
    re-runs."""
    ids = list(map(_dot_id, F.ids))
    lines = ["graph cosheaf {"]
    for nid, name, c in zip(ids, F.ids, F.cells):
        lines.append(f"  {nid} [label={_dot_id(f'{name}@{_cell_token(c)}')}];")
    for ci, pi in F._raw_links:
        lines.append(f"  {ids[ci]} -- {ids[pi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
