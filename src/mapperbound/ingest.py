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

Costs: the levels an edge crosses on an axis are the even doubled coordinates
strictly between its ends' carriers, so an edge inside one cell (a cell is
convex) costs one tuple comparison besides its pieces and spans, any other
edge O(d) integer steps, and only an edge with cuts builds cut keys, at
O(c log c) for c cuts.  Per cell, the glue is a union-find over the joins
bucketed there, halving paths inline, and one pass that points every piece at
its root, so a coface's link to the cell costs one lookup per node.

Values are read as the exact decimal written, an integer mantissa over a
power of ten (parse_decimal; a float through its shortest repr), and
fit_grid and build take each as an integer pair, comparing no Fractions.

Generic position is not assumed.  Values sitting exactly on grid hyperplanes
get degenerate carrier coordinates, and an edge lying inside a hyperplane is
carried by a lower-dimensional cell.  The walk runs in exact integers: each
coordinate is a pair (n, d) with n / d its value in grid steps, and on one
edge every cut is keyed by the integer t * P, where P is the least common
multiple of the crossing axes' parameter denominators (1 on an edge without a
cut), so cuts sort and merge as ints, carriers are bit-stable, and spans are
integers over P.
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


def parse_decimal(literal: str) -> Fraction:
    """The exact value of a decimal literal such as "-12.50e-3", without a regex."""
    mant, _, exp = literal.lower().partition("e")
    whole, _, frac = mant.partition(".")
    k = len(frac) - int(exp or 0)
    n = int(whole + frac)
    return Fraction(n, 10 ** k) if k > 0 else Fraction(n * 10 ** -k)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, float):
        # the shortest repr round-trips, so 0.1 means 1/10; inf and nan raise
        return parse_decimal(repr(v))
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
            try:
                vec = tuple(map(_as_fraction, val))
            except ValueError:  # a non-finite value is named before an unsupported type
                x = next((x for x in val if isinstance(x, float) and not math.isfinite(x)), None)
                if x is None:
                    raise
                raise IngestError(f"vertex {vid!r} has value {x}, which is not finite") from None
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
                try:
                    f = float(x)
                except OverflowError:
                    raise IngestError(f"vertex {vid!r} has value {x}, which is beyond the "
                                      f"range of a JSON float") from None
                if _as_fraction(f) != x:
                    raise IngestError(f"vertex {vid!r} has value {x}, which JSON would "
                                      f"write as {f!r}, a different number")
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
        return cls.from_json_obj(json.loads(text, parse_float=parse_decimal))


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
    # |x| / delta for x = n / d and delta = p / q is |n| * q / (d * p)
    p, q = _as_fraction(delta).as_integer_ratio()
    L = 1 + max(abs(n) * q // (d * p) for g in graphs for val in g.vertices.values()
                for n, d in map(Fraction.as_integer_ratio, val))
    return GridSpec(d=dims.pop(), delta=float(delta), L=L)


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
    # in order along it; carrier[p] is the doubled coordinates of p's cell,
    # which holds |x| <= L exactly when it lies in [-2L, 2L]
    vids = sorted(g.vertices)
    nd = [(n * q, d * p) for n, d in map(Fraction.as_integer_ratio,
                                         [x for vid in vids for x in g.vertices[vid]])]
    flat = [2 * (n // d) + (n % d != 0) for n, d in nd]
    box = 2 * grid.L
    if flat and (min(flat) < -box or max(flat) > box):
        vid = vids[next(i for i, m in enumerate(flat) if not -box <= m <= box) // g.d]
        raise IngestError(f"vertex {vid!r} has a value outside the grid box")
    # d consecutive items per vertex, grouped by one zip over d copies of one iterator
    steps = dict(zip(vids, zip(*[iter(nd)] * g.d)))
    carrier = list(zip(*[iter(flat)] * g.d))
    vertex_piece = dict(zip(vids, range(len(vids))))

    # each chain adjacency joins a segment and its end point.  If both have one
    # carrier (only at an edge's end vertex: a cut point's segments leave its
    # hyperplanes) they lie over the same cells and join once, into a class
    # named by its least piece; any other adjacency lies over the star of
    # exactly the faces of the point's carrier: bucket it there
    classes: dict[int, int] = {}
    joins: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    edge_chain: dict[tuple[str, str], tuple[int, list[tuple[int, int, int]]]] = {}
    for e in g.edges:
        u, v = e
        pu, pv = vertex_piece[u], vertex_piece[v]
        cur = cu = carrier[pu]  # the carrier of the segment being walked
        cv = carrier[pv]
        crossed = []  # per axis with a level strictly inside the edge
        if cu != cv:  # a cell is convex: an edge between two points of it has no cut
            cur = list(cu)
            # the levels crossed on an axis are the even doubled coordinates
            # strictly between the ends' carriers
            for a, (x, y) in enumerate(zip(cu, cv)):
                if x < y:
                    s, levels = 1, range(x // 2 + 1, (y + 1) // 2)
                elif y < x:
                    s, levels = -1, range((x + 1) // 2 - 1, y // 2, -1)
                else:
                    continue
                if x % 2 == 0:
                    cur[a] = x + s  # a vertex on a hyperplane steps off it at t = 0
                if levels:
                    (nx, dx), (ny, dy) = steps[u][a], steps[v][a]
                    # the level l is crossed at t = (l*dx - nx)*dy / den
                    crossed.append((a, s, nx, dx, dy, ny * dx - nx * dy, levels))
        first = seg = len(carrier)
        carrier.append(tuple(cur))
        spans, k0, P = [(0, 0, pu)], 0, 1
        if crossed:
            # each cut is keyed by the exact integer t * P, with P the lcm of
            # the |den|; P // den is exact and carries the sign of den
            P = math.lcm(*[c[5] for c in crossed])
            cuts: dict[int, list[tuple[int, int, int]]] = {}
            for a, s, nx, dx, dy, den, levels in crossed:
                m = dy * (P // den)
                for l in levels:
                    cuts.setdefault((l * dx - nx) * m, []).append((a, l, s))
            for key in sorted(cuts):
                # cuts on several axes at one t are one point piece
                point = cur[:]
                for a, l, s in cuts[key]:
                    point[a] = 2 * l
                    cur[a] = 2 * l + s
                carrier += (tuple(point), tuple(cur))
                spans += ((k0, key, seg), (key, key, seg + 1))
                joins.setdefault(carrier[seg + 1], []).extend(((seg, seg + 1), (seg + 1, seg + 2)))
                seg, k0 = seg + 2, key
        spans += ((k0, P, seg), (P, P, pv))
        # an end vertex and its segment with one carrier are one class: the
        # segment, a fresh piece, hangs below the vertex (every parent is less
        # than its child), and an edge inside one cell joins its ends' classes
        if cu == cv:
            classes[seg] = pu
            if (a := _root(classes, pu)) != (b := _root(classes, pv)):
                classes[max(a, b)] = min(a, b)
        else:
            for end, c, x in ((pu, cu, first), (pv, cv, seg)):
                if c == carrier[x]:
                    classes[x] = end
                else:
                    joins.setdefault(c, []).append((end, x))
        edge_chain.setdefault(e, (P, spans))
        edge_chain.setdefault((v, u), (P, spans))

    # each piece's class, its least piece: only the pieces below another are
    # visited, in increasing order, so each reads a parent already resolved
    cls = list(range(len(carrier)))
    for x in sorted(classes):
        cls[x] = cls[classes[x]]
    # the members over basic_open(c) are the classes whose carrier has c as a face
    by_carrier: dict[tuple[int, ...], list[int]] = {}
    for x, c in enumerate(carrier):
        if x not in classes:
            by_carrier.setdefault(c, []).append(x)
    members: dict[Cell, list[int]] = {}
    pairs: dict[Cell, list[tuple[int, int]]] = {}
    for c, xs in by_carrier.items():
        js = [(cls[a], cls[b]) for a, b in joins.get(c, ())]
        for f in (Cell(c), *faces(Cell(c))):
            members.setdefault(f, []).extend(xs)
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
        # union-find over the joins there, halving paths inline; a component's
        # root stays its least piece
        up: dict[int, int] = {}
        for a, b in pairs.get(c, ()):
            while a in up:
                x = up[a]
                up[a] = a = up.get(x, x)
            while b in up:
                x = up[b]
                up[b] = b = up.get(x, x)
            if a < b:
                up[b] = a
            elif b < a:
                up[a] = b
        # then every piece points at its root: a coface's links read it in one step
        for x, y in up.items():
            while y in up:
                y = up[y]
            up[x] = y
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
            links += [(node_of[r], fnode[fup.get(r, r)]) for r in roots]

    return MapperBuild(graph=CosheafGraph._from_blocks(grid, blocks, links, named=False),
                       source=g, grid=grid, _forests=forests, _class=cls,
                       _vertex_piece=vertex_piece, _edge_chain=edge_chain)


def build_cosheaf(g: GeometricGraph, grid: GridSpec) -> CosheafGraph:
    """The cosheaf graph alone; see build() for the locatable variant."""
    return build(g, grid).graph
