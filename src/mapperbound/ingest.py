"""Build a cosheaf graph from piecewise-linear input data f: X -> R^d.

The input is a geometric graph: vertices carrying d-vectors, edges mapped by
linear interpolation of their endpoint values.  Construction takes one pass
per edge and one per cell.  Each edge is cut at every crossing of a grid
hyperplane {x_a = l*delta}, and a walk over its cuts in order of the edge
parameter gives every piece (open subsegment or point) its carrier, the
unique cell containing it: a cut on axis a at level l is a point with
doubled coordinate 2l on that axis, the segment after it gets 2l +- 1 by
direction, and cuts on several axes at one parameter are one point.  Adjacent
pieces with one carrier join once, into a class; for each cell sigma a
union-find over the classes inside the star of sigma, joined by the other
chain adjacencies bucketed under sigma, yields the elements and is kept to
locate points.  Links (per grid.facets) fall out of component containment.

Generic position is not assumed.  Values sitting exactly on grid hyperplanes
get degenerate carrier coordinates, and an edge lying inside a hyperplane is
carried by a lower-dimensional cell.  The walk runs in exact integers: each
coordinate is a pair (n, d) with n / d its value in grid steps, and on one
edge every cut is keyed by the integer t * P, where P is the least common
multiple of the crossing axes' parameter denominators, so cuts sort and merge
as ints, carriers are bit-stable, and spans are integers over P.
"""

from __future__ import annotations

import math
from bisect import bisect_left
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .cosheaf import CosheafGraph, _cell_token
# star is unused here but stays importable: the benchmark's tracer wraps it
from .grid import Cell, GridSpec, cell_sort_key, faces, facets, star, wire, wire_pairs  # noqa: F401


class IngestError(ValueError):
    pass


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, float):
        # str() round-trips the shortest decimal repr, so 0.1 means 1/10
        return Fraction(str(v))
    raise IngestError(f"unsupported value type {type(v).__name__}")


@dataclass
class GeometricGraph:
    """PL input data: vertex values in R^d, straight-line edges."""

    d: int
    vertices: dict[str, tuple[Fraction, ...]]
    edges: list[tuple[str, str]]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise IngestError(f"graph d must be at least 1, not {self.d}")
        # one edge order, so a graph and its JSON round trip build alike
        self.edges = sorted(map(tuple, self.edges))
        norm = {}
        for vid, val in self.vertices.items():
            for x in val:
                if isinstance(x, float) and not math.isfinite(x):
                    raise IngestError(f"vertex {vid!r} has value {x}, which is not finite")
            vec = tuple(map(_as_fraction, val))
            if len(vec) != self.d:
                raise IngestError(f"vertex {vid!r} has {len(vec)} coordinates, expected {self.d}")
            norm[vid] = vec
        self.vertices = norm
        for u, v in self.edges:
            if u == v:
                raise IngestError(f"self-loop at vertex {u!r}")
            if u not in self.vertices or v not in self.vertices:
                raise IngestError(f"edge ({u!r}, {v!r}) names unknown vertex")

    def to_json_obj(self) -> dict:
        # readers parse the written decimal exactly, so a value must equal the
        # shortest repr of its float
        for vid, val in self.vertices.items():
            for x in val:
                if _as_fraction(float(x)) != x:
                    raise IngestError(f"vertex {vid!r} has value {x}, which JSON would "
                                      f"write as {float(x)!r}, a different number")
        return {
            "d": self.d,
            "vertices": [
                {"id": vid, "f": [float(x) for x in val]}
                for vid, val in sorted(self.vertices.items())
            ],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GeometricGraph":
        d = wire(wire(obj, dict, "a geometric graph", IngestError).get("d"), int, "graph d",
                 IngestError)
        vertices = {}
        for v in wire(obj.get("vertices"), list, "graph vertices", IngestError):
            vid = wire(wire(v, dict, "a vertex", IngestError).get("id"), str, "a vertex id",
                       IngestError)
            if vid in vertices:
                raise IngestError(f"duplicate vertex id {vid!r}")
            f = wire(v.get("f"), list, "a vertex f", IngestError)
            vertices[vid] = f  # the constructor converts and checks each value
        return cls(d=d, vertices=vertices, edges=wire_pairs(obj.get("edges"), "edges", IngestError))

    @classmethod
    def from_json(cls, text: str) -> "GeometricGraph":
        return cls.from_json_obj(json.loads(text, parse_float=Fraction))


def graph_to_json(g: GeometricGraph) -> str:
    return json.dumps(g.to_json_obj(), sort_keys=True) + "\n"


def fit_grid(graphs: Sequence[GeometricGraph], delta: float) -> GridSpec:
    """Smallest L putting every value of every graph strictly inside
    (-L*delta, L*delta)^d.  Shared by both inputs so their cosheaves live on
    one grid."""
    if not graphs or all(not g.vertices for g in graphs):
        raise IngestError("fit_grid needs at least one vertex")
    dims = {g.d for g in graphs}
    if len(dims) != 1:
        raise IngestError("all graphs must share one codomain dimension")
    if isinstance(delta, bool) or not isinstance(delta, (int, float, Fraction)):
        raise IngestError(f"delta must be a number, not {type(delta).__name__}")
    if not 0 < delta < float("inf"):
        raise IngestError("delta must be positive and finite")
    dfrac = _as_fraction(delta)
    peak = max(abs(x) for g in graphs for val in g.vertices.values() for x in val)
    L = int(peak / dfrac) + 1
    return GridSpec(d=dims.pop(), delta=float(delta), L=max(1, L))


@dataclass
class MapperBuild:
    """A built cosheaf plus enough provenance to locate elements by geometry."""

    graph: CosheafGraph
    source: GeometricGraph
    grid: GridSpec
    # per occupied cell: its union-find forest over the classes lying over it
    # (non-root to parent) and each root's node index; a root is its least piece
    _forests: dict[Cell, tuple[dict[int, int], dict[int, int]]] = field(repr=False)
    _class: list[int] = field(repr=False)  # per piece, its class's least piece
    _vertex_piece: dict[str, int] = field(repr=False)
    # per edge either way round: (P, spans), span (k0, k1, piece) covering t in [k0/P, k1/P]
    _edge_chain: dict[tuple[str, str], tuple[int, list[tuple[int, int, int]]]] = field(repr=False)

    def _node(self, c: Cell, p: int) -> str | None:
        """The node over basic_open(c) holding piece p, None if p is not over it."""
        up, node_of = self._forests.get(c, ({}, {}))
        i = node_of.get(_root(up, self._class[p]))
        return None if i is None else self.graph.ids[i]

    def node_of_vertex(self, c: Cell, vertex_id: str) -> str:
        """The element over basic_open(c) whose component contains the vertex."""
        p = self._vertex_piece.get(vertex_id)
        if p is None:
            raise IngestError(f"unknown vertex {vertex_id!r}")
        nid = self._node(c, p)
        if nid is None:
            raise IngestError(f"vertex {vertex_id!r} does not lie over basic_open({c!r})")
        return nid

    def node_on_edge(self, c: Cell, edge: tuple[str, str], t) -> str:
        """The element over basic_open(c) holding the edge point at parameter t."""
        t = _as_fraction(t)
        chain = self._edge_chain.get(edge)
        if chain is None:
            raise IngestError(f"unknown edge {edge!r}")
        P, spans = chain
        x, d = t.numerator * P, t.denominator  # t * P = x / d, compared as k * d against x
        # the first span ending at or after t * P; at a cut, the segment before it
        i = bisect_left(spans, x, key=lambda s: s[1] * d)
        if i == len(spans) or spans[i][0] * d > x:
            raise IngestError(f"parameter {t} outside [0, 1]")
        nid = self._node(c, spans[i][2])
        if nid is None:
            raise IngestError(f"edge point t={t} does not lie over basic_open({c!r})")
        return nid


def _root(up: dict[int, int], x: int) -> int:
    """The root of x in a union-find forest where pieces absent from `up` are
    roots; halves the path on the way."""
    while x in up:
        p = up[x]
        up[x] = p = up.get(p, p)
        x = p
    return x


def build(g: GeometricGraph, grid: GridSpec) -> MapperBuild:
    """Subdivide, classify carriers, and glue components per basic open."""
    if g.d != grid.d:
        raise IngestError(f"graph dimension {g.d} does not match grid dimension {grid.d}")
    # x / delta (delta = p / q) is the unreduced pair (n, d) = (x.numerator*q, x.denominator*p);
    # d > 0, and floor, ceil, crossing levels and the sign of den do not need reduction
    p, q = _as_fraction(grid.delta).as_integer_ratio()

    # pieces are the vertices by id, then each edge's segments and cut points
    # in order along it; carrier[p] is the doubled coordinates of p's cell
    carrier: list[tuple[int, ...]] = []
    steps: dict[str, tuple[tuple[int, int], ...]] = {}
    vertex_piece: dict[str, int] = {}
    for vid, val in sorted(g.vertices.items()):
        nd = steps[vid] = tuple((x.numerator * q, x.denominator * p) for x in val)
        if any(abs(n) > grid.L * d for n, d in nd):
            raise IngestError(f"vertex {vid!r} has a value outside the grid box")
        vertex_piece[vid] = len(carrier)
        carrier.append(tuple(2 * (n // d) + (n % d != 0) for n, d in nd))

    # each chain adjacency joins a segment and its end point.  If both have one
    # carrier (only at an edge's end vertex: a cut point's segments leave its
    # hyperplanes) they lie over the same cells and join once, into a class
    # named by its least piece; any other adjacency lies over the star of
    # exactly the faces of the point's carrier: bucket it there
    classes: dict[int, int] = {}
    joins: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    edge_chain: dict[tuple[str, str], tuple[int, list[tuple[int, int, int]]]] = {}
    for u, v in g.edges:
        pu, pv = vertex_piece[u], vertex_piece[v]
        cur = list(carrier[pu])  # the carrier of the segment being walked
        step = [0] * g.d
        crossed = []
        for a, ((nx, dx), (ny, dy)) in enumerate(zip(steps[u], steps[v])):
            den = ny * dx - nx * dy  # the level l is crossed at t = (l*dx - nx)*dy / den
            if den == 0:
                continue
            s = step[a] = 1 if den > 0 else -1
            if cur[a] % 2 == 0:
                cur[a] += s  # a vertex on a hyperplane steps off it at t = 0
            if s > 0:
                levels = range(nx // dx + 1, -(-ny // dy))
            else:
                levels = range(-(-nx // dx) - 1, ny // dy, -1)
            crossed.append((a, nx, dx, dy, den, levels))
        # each cut is keyed by the exact integer t * P, with P the lcm of the
        # |den|; P // den is exact and carries the sign of den
        P = math.lcm(*(c[4] for c in crossed))
        cuts: dict[int, list[tuple[int, int]]] = {}
        for a, nx, dx, dy, den, levels in crossed:
            m = dy * (P // den)
            for l in levels:
                cuts.setdefault((l * dx - nx) * m, []).append((a, l))
        seg, k0 = len(carrier), 0
        carrier.append(tuple(cur))
        spans = [(0, 0, pu)]
        for key in sorted(cuts):
            # cuts on several axes at one t are one point piece
            point = cur[:]
            for a, l in cuts[key]:
                point[a] = 2 * l
                cur[a] = 2 * l + step[a]
            carrier += (tuple(point), tuple(cur))
            spans += ((k0, key, seg), (key, key, seg + 1))
            joins.setdefault(carrier[seg + 1], []).extend(((seg, seg + 1), (seg + 1, seg + 2)))
            seg, k0 = seg + 2, key
        spans += ((k0, P, seg), (P, P, pv))
        for end, s in ((pu, spans[1][2]), (pv, seg)):  # each end vertex and its segment
            if carrier[end] != carrier[s]:
                joins.setdefault(carrier[end], []).append((end, s))
            elif (a := _root(classes, end)) != (b := _root(classes, s)):
                classes[max(a, b)] = min(a, b)
        edge_chain.setdefault((u, v), (P, spans))
        edge_chain.setdefault((v, u), (P, spans))

    # the members over basic_open(c) are the classes whose carrier has c as a face
    cls = [_root(classes, p) if p in classes else p for p in range(len(carrier))]
    by_carrier: dict[tuple[int, ...], list[int]] = {}
    for p, c in enumerate(carrier):
        if cls[p] == p:
            by_carrier.setdefault(c, []).append(p)
    members: dict[Cell, list[int]] = {}
    pairs: dict[Cell, list[tuple[int, int]]] = {}
    for c, ps in by_carrier.items():
        js = [(cls[a], cls[b]) for a, b in joins.get(c, ())]
        for f in (Cell(c), *faces(Cell(c))):
            members.setdefault(f, []).extend(ps)
            if js:
                pairs.setdefault(f, []).extend(js)

    # faces sort before their cofaces, so each cell's faces are numbered first;
    # the graph numbers nodes cell by cell, each cell's ids "token#k" in string
    # order ("c#10" before "c#2"), so links go to it as index pairs
    blocks: dict[Cell, list[str]] = {}
    links: list[tuple[int, int]] = []
    forests: dict[Cell, tuple[dict[int, int], dict[int, int]]] = {}
    count = 0
    for c in sorted(members, key=cell_sort_key):
        up: dict[int, int] = {}
        for a, b in pairs.get(c, ()):
            a, b = _root(up, a), _root(up, b)
            if a != b:
                up[max(a, b)] = min(a, b)  # a component's root stays its least piece
        roots = [r for r in sorted(members[c]) if r not in up]
        order = sorted(range(len(roots)), key=str)
        token = _cell_token(c)
        blocks[c] = [f"{token}#{k}" for k in order]
        node_of = dict(zip([roots[k] for k in order], range(count, count + len(roots))))
        count += len(roots)
        forests[c] = up, node_of
        # every piece of a node lies over each facet too: its root finds the image
        for f in facets(c):
            fup, fnode = forests[f]
            links += ((node_of[r], fnode[_root(fup, r)]) for r in roots)

    return MapperBuild(graph=CosheafGraph._from_blocks(grid, blocks, links, named=False),
                       source=g, grid=grid, _forests=forests, _class=cls,
                       _vertex_piece=vertex_piece, _edge_chain=edge_chain)


def build_cosheaf(g: GeometricGraph, grid: GridSpec) -> CosheafGraph:
    """The cosheaf graph alone; see build() for the locatable variant."""
    return build(g, grid).graph
