"""Build a cosheaf graph from piecewise-linear input data f: X -> R^d.

The input is a geometric graph: vertices carrying d-vectors, edges mapped by
linear interpolation of their endpoint values.  Construction takes one pass
per edge and one per cell.  Each edge is cut at every crossing of a grid
hyperplane {x_a = l*delta}, and a walk over its cuts in order of the edge
parameter gives every piece (open subsegment or point) its carrier, the
unique cell containing it: a cut on axis a at level l is a point with
doubled coordinate 2l on that axis, the segment after it gets 2l +- 1 by
direction, and cuts on several axes at one parameter are one point.  Then
for each cell sigma a disjoint-set union over the pieces carried inside the
star of sigma, joined only by the chain adjacencies bucketed under sigma,
yields the elements, and the inclusion-induced maps fall out of component
containment.

Generic position is not assumed.  Values sitting exactly on grid hyperplanes
get degenerate carrier coordinates, and an edge lying inside a hyperplane is
carried by a lower-dimensional cell.  All crossing parameters are computed
with exact rational arithmetic so carrier classification is bit-stable.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .cosheaf import CosheafGraph
# star is unused here but stays importable: the benchmark's tracer wraps it
from .grid import Cell, GridSpec, cell_sort_key, star, wire  # noqa: F401

_ZERO, _ONE = Fraction(0), Fraction(1)


class IngestError(ValueError):
    pass


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
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
        # one edge order, so a graph and its JSON round trip build alike
        self.edges = sorted(map(tuple, self.edges))
        norm = {}
        for vid, val in self.vertices.items():
            vec = tuple(_as_fraction(x) for x in val)
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
        wire(obj, dict, "a geometric graph", IngestError)
        return cls(
            d=wire(obj["d"], int, "graph d", IngestError),
            vertices={v["id"]: tuple(_as_fraction(x) for x in v["f"]) for v in obj["vertices"]},
            edges=[(a, b) for a, b in obj["edges"]],
        )

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
    dfrac = _as_fraction(delta)
    if dfrac <= 0:
        raise IngestError("delta must be positive")
    peak = Fraction(0)
    for g in graphs:
        for val in g.vertices.values():
            for x in val:
                peak = max(peak, abs(x))
    L = int(peak / dfrac) + 1
    return GridSpec(d=dims.pop(), delta=float(delta), L=max(1, L))


@dataclass
class MapperBuild:
    """A built cosheaf plus enough provenance to locate elements by geometry."""

    graph: CosheafGraph
    source: GeometricGraph
    grid: GridSpec
    _piece_node: dict[tuple[Cell, int], str] = field(repr=False, default_factory=dict)
    _vertex_piece: dict[str, int] = field(repr=False, default_factory=dict)
    _edge_chain: dict[tuple[str, str], list[tuple[Fraction, Fraction, int]]] = field(
        repr=False, default_factory=dict)

    def node_of_vertex(self, c: Cell, vertex_id: str) -> str:
        """The element over basic_open(c) whose component contains the vertex."""
        p = self._vertex_piece.get(vertex_id)
        if p is None:
            raise IngestError(f"unknown vertex {vertex_id!r}")
        nid = self._piece_node.get((c, p))
        if nid is None:
            raise IngestError(f"vertex {vertex_id!r} does not lie over basic_open({c!r})")
        return nid

    def node_on_edge(self, c: Cell, edge: tuple[str, str], t) -> str:
        """The element over basic_open(c) containing the edge point at parameter t."""
        t = _as_fraction(t)
        spans = self._edge_chain.get(edge)
        if spans is None:
            raise IngestError(f"unknown edge {edge!r}")
        # the first span ending at or after t; at a cut that is the segment before it
        i = bisect_left(spans, t, key=lambda s: s[1])
        if i == len(spans) or spans[i][0] > t:
            raise IngestError(f"parameter {t} outside [0, 1]")
        nid = self._piece_node.get((c, spans[i][2]))
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
    dfrac = _as_fraction(grid.delta)
    bound = grid.L * dfrac
    values = g.vertices
    for vid, val in sorted(values.items()):
        if any(abs(x) > bound for x in val):
            raise IngestError(f"vertex {vid!r} has a value outside the grid box")

    # pieces are the vertices by id, then each edge's segments and cut points
    # in order along it; carrier[p] is the doubled coordinates of p's cell
    carrier: list[tuple[int, ...]] = []
    scaled: dict[str, tuple[Fraction, ...]] = {}
    vertex_piece: dict[str, int] = {}
    for vid in sorted(values):
        q = scaled[vid] = tuple(x / dfrac for x in values[vid])
        vertex_piece[vid] = len(carrier)
        carrier.append(tuple(2 * (x.numerator // x.denominator) + (x.denominator != 1)
                             for x in q))

    # each chain adjacency joins a segment and its end point, so both lie over
    # the star of exactly the faces of the point's carrier: bucket it there
    joins: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    edge_chain: dict[tuple[str, str], list[tuple[Fraction, Fraction, int]]] = {}
    for u, v in g.edges:
        pu, pv = vertex_piece[u], vertex_piece[v]
        cur = list(carrier[pu])  # the carrier of the segment being walked
        step = [0] * g.d
        cuts: dict[Fraction, list[tuple[int, int]]] = {}
        for a, (x, y) in enumerate(zip(scaled[u], scaled[v])):
            nx, dx, ny, dy = x.numerator, x.denominator, y.numerator, y.denominator
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
            for l in levels:
                cuts.setdefault(Fraction((l * dx - nx) * dy, den), []).append((a, l))
        seg, t0 = len(carrier), _ZERO
        carrier.append(tuple(cur))
        spans = [(_ZERO, _ZERO, pu)]
        joins.setdefault(carrier[pu], []).append((pu, seg))
        for t in sorted(cuts):
            # cuts on several axes at one t are one point piece
            point = cur[:]
            for a, l in cuts[t]:
                point[a] = 2 * l
                cur[a] = 2 * l + step[a]
            carrier += (tuple(point), tuple(cur))
            spans += ((t0, t, seg), (t, t, seg + 1))
            joins.setdefault(carrier[seg + 1], []).extend(((seg, seg + 1), (seg + 1, seg + 2)))
            seg, t0 = seg + 2, t
        spans += ((t0, _ONE, seg), (_ONE, _ONE, pv))
        joins.setdefault(carrier[pv], []).append((seg, pv))
        edge_chain.setdefault((u, v), spans)
        edge_chain.setdefault((v, u), spans)

    # the members over basic_open(c) are the pieces whose carrier has c as a face
    by_carrier: dict[tuple[int, ...], list[int]] = {}
    for p, c in enumerate(carrier):
        by_carrier.setdefault(c, []).append(p)
    members: dict[Cell, list[int]] = {}
    pairs: dict[Cell, list[tuple[int, int]]] = {}
    for c, ps in by_carrier.items():
        js = joins.get(c)
        for f in itertools.product(*((m,) if m % 2 == 0 else (m - 1, m, m + 1) for m in c)):
            f = Cell(f)
            members.setdefault(f, []).extend(ps)
            if js:
                pairs.setdefault(f, []).extend(js)

    # faces sort before their cofaces, so each cell's faces are numbered first
    nodes: list[tuple[str, Cell]] = []
    links: list[tuple[str, str]] = []
    piece_node: dict[tuple[Cell, int], str] = {}
    for c in sorted(members, key=cell_sort_key):
        up: dict[int, int] = {}
        for a, b in pairs.get(c, ()):
            a, b = _root(up, a), _root(up, b)
            if a != b:
                up[max(a, b)] = min(a, b)  # a component's root stays its least piece
        token = ",".join(str(m >> 1) if m % 2 == 0 else f"{m >> 1}+" for m in c.coords)
        node_of: dict[int, str] = {}
        for p in sorted(members[c]):
            r = _root(up, p)
            nid = node_of.get(r)
            if nid is None:
                nid = node_of[r] = f"{token}#{len(node_of)}"
                nodes.append((nid, c))
            piece_node[(c, p)] = nid
        # every piece of a node lies over each face too: its least piece finds the image
        co = c.coords
        for a, m in enumerate(co):
            if m % 2:
                for e in (m - 1, m + 1):
                    f = Cell(co[:a] + (e,) + co[a + 1:])
                    links += ((nid, piece_node[(f, r)]) for r, nid in node_of.items())

    graph = CosheafGraph(grid, nodes, links)
    return MapperBuild(
        graph=graph,
        source=g,
        grid=grid,
        _piece_node=piece_node,
        _vertex_piece=vertex_piece,
        _edge_chain=edge_chain,
    )


def build_cosheaf(g: GeometricGraph, grid: GridSpec) -> CosheafGraph:
    """The cosheaf graph alone; see build() for the locatable variant."""
    return build(g, grid).graph
