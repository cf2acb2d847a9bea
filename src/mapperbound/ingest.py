"""Build a cosheaf graph from piecewise-linear input data f: X -> R^d.

The input is a geometric graph: vertices carrying d-vectors, edges mapped by
linear interpolation of their endpoint values.  Construction: every edge is
subdivided at each crossing of a grid hyperplane {x_a = l*delta}; each
resulting piece (open subsegment or point) is assigned the unique cell
containing its interior; then for each cell sigma a disjoint-set union over
the pieces carried inside the star of sigma yields the elements, and the
inclusion-induced maps fall out of component containment.

Generic position is not assumed.  Values sitting exactly on grid hyperplanes
get degenerate carrier coordinates, and an edge lying inside a hyperplane is
carried by a lower-dimensional cell.  All crossing parameters are computed
with exact rational arithmetic so carrier classification is bit-stable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .cosheaf import CosheafGraph
from .grid import Cell, GridSpec, cell_sort_key, faces, star, star_box


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
        return {
            "d": self.d,
            "vertices": [
                {"id": vid, "f": [float(x) for x in val]}
                for vid, val in sorted(self.vertices.items())
            ],
            "edges": sorted([list(e) for e in self.edges]),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GeometricGraph":
        return cls(
            d=int(obj["d"]),
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


def _carrier(val: tuple[Fraction, ...], dfrac: Fraction) -> Cell:
    coords = []
    for x in val:
        q = x / dfrac
        fl = q.numerator // q.denominator
        coords.append(2 * fl if q == fl else 2 * fl + 1)
    return Cell(tuple(coords))


@dataclass
class _Piece:
    carrier: Cell
    kind: str  # "vertex" | "point" | "segment"
    where: tuple


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
        for lo, hi, p in spans:
            if lo <= t <= hi:
                nid = self._piece_node.get((c, p))
                if nid is None:
                    raise IngestError(
                        f"edge point t={t} does not lie over basic_open({c!r})")
                return nid
        raise IngestError(f"parameter {t} outside [0, 1]")


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def add(self, x: int) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


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

    pieces: list[_Piece] = []
    vertex_piece: dict[str, int] = {}
    for vid in sorted(values):
        vertex_piece[vid] = len(pieces)
        pieces.append(_Piece(_carrier(values[vid], dfrac), "vertex", (vid,)))

    # chains[eidx] = piece ids in order along the edge, endpoints included
    chains: list[list[int]] = []
    edge_chain: dict[tuple[str, str], list[tuple[Fraction, Fraction, int]]] = {}
    for eidx, (u, v) in enumerate(g.edges):
        uval, vval = values[u], values[v]
        cuts: set[Fraction] = set()
        for a in range(g.d):
            lo, hi = uval[a], vval[a]
            if lo == hi:
                continue
            step = hi - lo
            l_lo = min(lo, hi) / dfrac
            l_hi = max(lo, hi) / dfrac
            first = l_lo.numerator // l_lo.denominator
            last = l_hi.numerator // l_hi.denominator
            for l in range(first, last + 1):
                t = (l * dfrac - lo) / step
                if 0 < t < 1:
                    cuts.add(t)
        ts = [Fraction(0)] + sorted(cuts) + [Fraction(1)]
        chain = [vertex_piece[u]]
        spans: list[tuple[Fraction, Fraction, int]] = [(Fraction(0), Fraction(0), vertex_piece[u])]
        for i in range(len(ts) - 1):
            t0, t1 = ts[i], ts[i + 1]
            if t0 == t1:
                continue
            mid = (t0 + t1) / 2
            mval = tuple(uval[a] + mid * (vval[a] - uval[a]) for a in range(g.d))
            pid = len(pieces)
            pieces.append(_Piece(_carrier(mval, dfrac), "segment", (eidx, t0, t1)))
            chain.append(pid)
            spans.append((t0, t1, pid))
            if t1 != 1:
                pval = tuple(uval[a] + t1 * (vval[a] - uval[a]) for a in range(g.d))
                qid = len(pieces)
                pieces.append(_Piece(_carrier(pval, dfrac), "point", (eidx, t1)))
                chain.append(qid)
                spans.append((t1, t1, qid))
        chain.append(vertex_piece[v])
        spans.append((Fraction(1), Fraction(1), vertex_piece[v]))
        chains.append(chain)
        edge_chain.setdefault((u, v), spans)
        edge_chain.setdefault((v, u), spans)

    by_carrier: dict[Cell, list[int]] = {}
    for pid, p in enumerate(pieces):
        by_carrier.setdefault(p.carrier, []).append(pid)

    # every cell with a piece anywhere in its star gets elements
    occupied: set[Cell] = set()
    for c in by_carrier:
        occupied.add(c)
        occupied.update(faces(c))
    occupied_sorted = sorted(occupied, key=cell_sort_key)

    adjacency: list[tuple[int, int]] = []
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            adjacency.append((a, b))

    nodes: list[tuple[str, Cell]] = []
    links: list[tuple[str, str]] = []
    piece_node: dict[tuple[Cell, int], str] = {}
    root_node: dict[tuple[Cell, int], str] = {}

    def _token(c: Cell) -> str:
        return ",".join(str(l) if k == "deg" else f"{l}+" for k, l in c.intervals())

    for c in occupied_sorted:
        member: set[int] = set()
        for t in itertools.product(*star_box(grid, c, 0)):
            member.update(by_carrier.get(Cell(t), ()))
        if not member:
            continue
        uf = _UnionFind()
        for pid in member:
            uf.add(pid)
        for a, b in adjacency:
            if a in member and b in member:
                uf.union(a, b)
        comp_min: dict[int, int] = {}
        for pid in sorted(member):
            r = uf.find(pid)
            comp_min.setdefault(r, pid)
        ordered_roots = sorted(comp_min, key=lambda r: comp_min[r])
        for k, r in enumerate(ordered_roots):
            nid = f"{_token(c)}#{k}"
            nodes.append((nid, c))
            root_node[(c, r)] = nid
        for pid in member:
            piece_node[(c, pid)] = root_node[(c, uf.find(pid))]

    # codimension-1 links follow component containment: every piece of a node
    # at c is also a member over each face of c, so one lookup per node suffices
    rep_piece: dict[str, int] = {}
    for (c, pid), nid in sorted(piece_node.items(), key=lambda kv: (cell_sort_key(kv[0][0]), kv[0][1])):
        rep_piece.setdefault(nid, pid)
    for nid, c in nodes:
        pid = rep_piece[nid]
        for f in faces(c):
            if f.dim != c.dim - 1:
                continue
            target = piece_node.get((f, pid))
            if target is not None:
                links.append((nid, target))

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
