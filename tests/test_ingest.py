"""PL ingestion: grid fitting, carrier classification, cosheaf construction."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

from mapperbound import (
    CosheafGraph, GeometricGraph, GridSpec, fit_grid, validate, vertex_cell, edge_cell)
from mapperbound.cosheaf import _cell_token, to_json
from mapperbound.grid import Cell, basic_open, cell_sort_key, closure, faces, is_face, thicken
from mapperbound.ingest import IngestError, build, build_cosheaf, graph_to_json, parse_decimal
from mapperbound.oracle import geometric_pi0

from conftest import LISTING_EDGES, LISTING_HEIGHTS, listing_graph, random_geometric

V = vertex_cell
E = edge_cell
H2 = Fraction(1, 2)


def one_vertex(val) -> GeometricGraph:
    return GeometricGraph(d=1, vertices={"p": (val,)}, edges=[])


# -- exact decimals -------------------------------------------------------------------


def _digits(rng, k):
    return "".join(rng.choices("0123456789", k=k))


def _number_literal(rng, integer=False):
    """A seeded JSON number literal: a sign, 0 or a long mantissa, a fraction
    that may end in zeros, and an exponent with e or E and +, - or no sign."""
    out = rng.choice(("", "-"))
    out += rng.choice(("0", str(rng.randint(1, 9)) + _digits(rng, rng.randrange(25))))
    if integer:
        return out
    frac = rng.random() < 0.7
    if frac:
        out += "." + _digits(rng, rng.randint(1, 20)) + "0" * rng.randrange(4)
    if not frac or rng.random() < 0.5:
        out += rng.choice("eE") + rng.choice(("", "+", "-")) + _digits(rng, rng.randint(1, 2))
    return out


def test_parse_decimal_reads_the_exact_value_of_every_literal():
    rng = random.Random(151)
    literals = [_number_literal(rng, integer=i % 10 == 0) for i in range(3000)]
    literals += ["0.0", "-0.0", "0e0", "-0E-0", "1E+2", "1e-2", "10.500e1", "0.000"]
    for lit in literals:
        got = parse_decimal(lit)
        assert type(got) is Fraction and got == Fraction(lit), lit
    text = '{"f": [' + ", ".join(literals) + "]}"
    got = json.loads(text, parse_float=parse_decimal)
    assert got == json.loads(text, parse_float=Fraction)
    assert sum(type(x) is Fraction for x in got["f"]) == 2700 + 8


def test_parse_decimal_reads_a_float_repr_as_its_shortest_decimal():
    rng = random.Random(157)
    xs = [rng.uniform(-1e3, 1e3) for _ in range(500)]
    xs += [rng.randint(-99, 99) / 10 for _ in range(200)]
    xs += [1e-300, -2.5e-7, 1.5e300, 1e16, 5e-324, 0.1, -0.0]
    for x in xs:
        assert parse_decimal(repr(x)) == Fraction(repr(x)), x


def test_graph_reads_floats_and_json_as_written_decimals():
    g = GeometricGraph(d=2, vertices={"p": (0.1, -2.5e-7), "q": (3, Fraction(1, 3))}, edges=[])
    assert g.vertices == {"p": (Fraction(1, 10), Fraction(-25, 10 ** 8)),
                          "q": (Fraction(3), Fraction(1, 3))}
    text = '{"d": 1, "vertices": [{"id": "p", "f": [1.10E-1]}], "edges": []}'
    assert GeometricGraph.from_json(text).vertices == {"p": (Fraction(11, 100),)}


# -- fit_grid -----------------------------------------------------------------------


def test_fit_grid_matches_the_fraction_formula():
    # L = int(max |x| / delta) + 1, at least 1, with delta read as its decimal;
    # values include exact multiples of delta, negatives and 0
    rng = random.Random(163)
    for delta in (1.0, 0.5, 0.3, 0.25, 2.0):
        step = Fraction(repr(delta))
        for _ in range(60):
            n = rng.randint(1, 6)
            vals = [rng.choice((Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 10, 7))),
                                step * rng.randint(-12, 12), Fraction(0)))
                    for _ in range(n)]
            g = GeometricGraph(d=1, vertices={f"v{i}": (x,) for i, x in enumerate(vals)},
                               edges=[])
            want = max(1, int(max(map(abs, vals)) / step) + 1)
            assert fit_grid([g], delta) == GridSpec(1, delta, want), (delta, vals)




def test_fit_grid_single_vertex_at_origin():
    assert fit_grid([one_vertex(0)], 1.0).L == 1


def test_fit_grid_spans_and_strict_containment():
    g = GeometricGraph(d=1, vertices={"a": (Fraction(2, 10),), "b": (Fraction(97, 10),)},
                       edges=[("a", "b")])
    assert fit_grid([g], 1.0).L == 10
    # a value exactly on the would-be boundary pushes L one further
    assert fit_grid([one_vertex(3)], 1.0).L == 4
    assert fit_grid([one_vertex(Fraction(29, 10))], 1.0).L == 3


def test_fit_grid_takes_the_wider_graph():
    a = one_vertex(Fraction(1, 2))
    b = one_vertex(Fraction(13, 2))
    assert fit_grid([a, b], 1.0).L == 7
    assert fit_grid([a, b], 1.0) == fit_grid([b, a], 1.0)


def test_fit_grid_rejects_empty():
    with pytest.raises(IngestError):
        fit_grid([GeometricGraph(d=1, vertices={}, edges=[])], 1.0)


def test_fit_grid_refuses_a_delta_that_is_no_number():
    for delta, name in (("1.0", "str"), (True, "bool"), (None, "NoneType")):
        with pytest.raises(IngestError, match=f"^delta must be a number, not {name}$"):
            fit_grid([one_vertex(0)], delta)


def test_fit_grid_refuses_mixed_dimensions():
    flat = GeometricGraph(d=2, vertices={"q": (0, 0)}, edges=[])
    with pytest.raises(IngestError, match="^all graphs must share one codomain dimension$"):
        fit_grid([one_vertex(0), flat], 1.0)


# -- carrier classification ------------------------------------------------------------


def test_single_vertex_inside_an_edge_cell():
    g = one_vertex(Fraction(1, 2))
    F = build_cosheaf(g, GridSpec(1, 1.0, 1))
    # star of a point: nodes over the edge cell and both endpoints, two links
    assert F.elements_by_dim() == {0: 2, 1: 1}
    assert F.link_count() == 2
    assert validate(F) == []


def test_vertex_exactly_on_a_grid_hyperplane():
    g = one_vertex(1)
    F = build_cosheaf(g, GridSpec(1, 1.0, 2))
    # degenerate carrier: the only occupied cell is the grid point itself
    assert F.occupied_cells() == [V(1)]
    assert F.node_count() == 1


def test_edge_inside_a_hyperplane_d2():
    g = GeometricGraph(d=2, vertices={"a": (Fraction(1, 2), 1), "b": (Fraction(3, 2), 1)},
                       edges=[("a", "b")])
    F = build_cosheaf(g, GridSpec(2, 1.0, 2))
    # the segment is carried by cells with a degenerate second axis
    assert all(c.intervals()[1] == ("deg", 1) for c in F.occupied_cells())
    assert validate(F) == []


def test_zero_length_edge_treated_as_point():
    g = GeometricGraph(d=1, vertices={"a": (Fraction(1, 2),), "b": (Fraction(1, 2),)},
                       edges=[("a", "b")])
    F = build_cosheaf(g, GridSpec(1, 1.0, 1))
    assert F.elements_by_dim() == {0: 2, 1: 1}


def test_parallel_edges_accepted():
    g = GeometricGraph(d=1,
                       vertices={"a": (Fraction(1, 2),), "b": (Fraction(5, 2),)},
                       edges=[("a", "b"), ("a", "b")])
    F = build_cosheaf(g, GridSpec(1, 1.0, 3))
    assert validate(F) == []
    # the two parallel strands are distinct elements over interior edge cells
    assert len(F.elements_of(E(1))) == 2


def test_node_on_edge_takes_the_first_listing_either_way_round():
    # one segment listed twice, opposite ways round: t = 1/4 is f = 1 along
    # the first listing and f = 2 along the second
    g = GeometricGraph(d=1,
                       vertices={"a": (Fraction(1, 2),), "b": (Fraction(5, 2),)},
                       edges=[("a", "b"), ("b", "a")])
    bd = build(g, GridSpec(1, 1.0, 3))
    t = Fraction(1, 4)
    assert bd.node_on_edge(V(1), ("b", "a"), t) == bd.node_on_edge(V(1), ("a", "b"), t)
    with pytest.raises(IngestError, match="does not lie over"):
        bd.node_on_edge(V(2), ("b", "a"), t)
    with pytest.raises(IngestError, match="unknown edge"):
        bd.node_on_edge(V(1), ("a", "c"), t)
    with pytest.raises(IngestError, match=r"outside \[0, 1\]"):
        bd.node_on_edge(V(1), ("b", "a"), 2)


def test_self_loop_rejected():
    with pytest.raises(IngestError):
        GeometricGraph(d=1, vertices={"a": (1,)}, edges=[("a", "a")])


def test_graph_refuses_a_dimension_below_one():
    for d in (0, -1):
        with pytest.raises(IngestError, match=f"^graph d must be at least 1, not {d}$"):
            GeometricGraph(d=d, vertices={"a": ()}, edges=[])


def test_node_of_vertex_refuses_an_unknown_vertex(listing):
    with pytest.raises(IngestError, match="^unknown vertex 'ghost'$"):
        listing.node_of_vertex(V(2), "ghost")


def test_non_finite_value_names_the_vertex():
    with pytest.raises(IngestError, match="^vertex 'p' has value nan, which is not finite$"):
        GeometricGraph(d=2, vertices={"p": (Fraction(1, 2), float("nan"))}, edges=[])


def test_out_of_box_value_names_the_vertex():
    g = one_vertex(99)
    with pytest.raises(IngestError, match="'p'"):
        build_cosheaf(g, GridSpec(1, 1.0, 2))


# -- the adjacency-listing instance ------------------------------------------------------


def test_listing_reproduces_the_adjacency_data(listing):
    F = listing.graph
    assert validate(F) == []
    assert F.elements_by_dim() == {0: 14, 1: 14}
    assert F.node_count() == 28 and F.link_count() == 28

    name = {}
    for k, h in LISTING_HEIGHTS.items():
        name[listing.node_of_vertex(V(h), f"v{k}")] = k
    got = {k: set() for k in LISTING_HEIGHTS}
    for c in F.occupied_cells():
        if c.dim != 1:
            continue
        i = (c.coords[0] - 1) // 2
        for eid in F.elements_of(c):
            lo = name[F.face_image(eid, V(i))]
            hi = name[F.face_image(eid, V(i + 1))]
            got[lo].add(hi)
            got[hi].add(lo)
    want = {k: set() for k in LISTING_HEIGHTS}
    for a, b in LISTING_EDGES:
        want[a].add(b)
        want[b].add(a)
    assert got == want


def test_listing_vertex_counts_per_cell(listing):
    F = listing.graph
    counts = {c.coords[0] // 2: len(F.elements_of(c))
              for c in F.occupied_cells() if c.dim == 0}
    assert counts == {2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 1, 8: 2, 9: 2, 10: 1}


# -- structural properties ----------------------------------------------------------------


def test_refinement_never_loses_nodes():
    rng = random.Random(17)
    for _ in range(10):
        g = random_geometric(rng, "f", rng.randint(2, 5), denom=7)
        coarse = fit_grid([g], 1.0)
        fine = GridSpec(1, 0.5, 2 * coarse.L)
        n_coarse = build_cosheaf(g, coarse).node_count()
        n_fine = build_cosheaf(g, fine).node_count()
        assert n_fine >= n_coarse


def test_slice_counts_match_geometric_recomputation_d2():
    rng = random.Random(29)
    for _ in range(6):
        g = random_geometric(rng, "s", rng.randint(2, 5), d=2, spread=12)
        grid = fit_grid([g], 1.0)
        F = build_cosheaf(g, grid)
        for c in F.occupied_cells():
            for r in (0, 1):
                cells = thicken(grid, basic_open(grid, c), r)
                want, _ = geometric_pi0(g, grid, cells)
                assert F.slice(c, r).component_count == want


def test_diagonal_edge_through_grid_corners_d2():
    # simultaneous crossings on both axes: the cut points carry fully
    # degenerate cells, and the pieces between them carry square cells
    g = GeometricGraph(d=2, vertices={"a": (-H2, -H2), "b": (Fraction(3, 2), Fraction(3, 2))},
                       edges=[("a", "b")])
    grid = fit_grid([g], 1.0)
    F = build_cosheaf(g, grid)
    assert validate(F) == []
    corner = vertex_cell(0, 0)
    assert len(F.elements_of(corner)) == 1
    for r in (0, 1):
        cells = thicken(grid, basic_open(grid, corner), r)
        assert F.slice(corner, r).component_count == geometric_pi0(g, grid, cells)[0]


def test_three_dimensional_segment():
    g = GeometricGraph(
        d=3,
        vertices={"a": (-H2, Fraction(1, 4), Fraction(3, 4)),
                  "b": (Fraction(5, 4), Fraction(1, 4), Fraction(-1, 2))},
        edges=[("a", "b")],
    )
    grid = fit_grid([g], 1.0)
    F = build_cosheaf(g, grid)
    assert validate(F) == []
    assert max(c.dim for c in F.occupied_cells()) == 3
    for c in F.occupied_cells():
        cells = thicken(grid, basic_open(grid, c), 1)
        assert F.slice(c, 1).component_count == geometric_pi0(g, grid, cells)[0]


def test_geometric_graph_json_round_trip():
    g = listing_graph()
    text = graph_to_json(g)
    back = GeometricGraph.from_json(text)
    assert graph_to_json(back) == text
    assert back.vertices == g.vertices


def test_build_and_build_after_a_json_round_trip_agree():
    # the graph sorts its edges on construction, so the file's edge order
    # cannot renumber components: the same cosheaf bytes either way
    for seed in range(20):
        rng = random.Random(seed)
        g = random_geometric(rng, "v", 14, d=2, denom=4, spread=12, extra_edges=3)
        back = GeometricGraph.from_json(graph_to_json(g))
        assert back.edges == g.edges
        grid = fit_grid([g], 1.0)
        assert to_json(build_cosheaf(back, grid)) == to_json(build_cosheaf(g, grid))


def test_geometric_graph_json_refuses_values_it_cannot_carry():
    # JSON carries a float's shortest repr: 1/3 would read back as
    # 3333333333333333/10**16, a different graph
    third = GeometricGraph(d=2, vertices={"p": (Fraction(1, 10), Fraction(1, 3)),
                                          "q": (Fraction(5, 4), Fraction(0))},
                           edges=[("p", "q")])
    with pytest.raises(IngestError, match=r"'p' has value 1/3"):
        graph_to_json(third)
    big = GeometricGraph(d=1, vertices={"r": (Fraction(2**53 + 1),)}, edges=[])
    with pytest.raises(IngestError, match=r"'r' has value 9007199254740993"):
        graph_to_json(big)
    exact = GeometricGraph(d=1, vertices={"p": (Fraction(-7, 10),), "q": (Fraction(5, 4),)},
                           edges=[("p", "q")])
    assert GeometricGraph.from_json(graph_to_json(exact)).vertices == exact.vertices


def test_build_rejects_dimension_mismatch():
    g = one_vertex(0)
    with pytest.raises(IngestError):
        build(g, GridSpec(2, 1.0, 1))


# -- the walk over each edge's cuts against midpoint subdivision ---------------------------


def _midpoint_build(g: GeometricGraph, grid: GridSpec):
    """The reference construction: each piece's carrier from an exact point
    inside it (a segment's midpoint), members from a scan of every piece and
    gluing from a scan of every chain adjacency, per occupied cell.  Returns
    (nodes, links, piece_node, vertex_piece, edge_chain)."""
    dfrac = Fraction(str(grid.delta))

    def carrier(val) -> Cell:
        return Cell(tuple(2 * math.floor(x / dfrac) + (x / dfrac != math.floor(x / dfrac))
                          for x in val))

    values = g.vertices
    pieces: list[Cell] = []
    vertex_piece: dict[str, int] = {}
    for vid in sorted(values):
        vertex_piece[vid] = len(pieces)
        pieces.append(carrier(values[vid]))
    adjacency, edge_chain = [], {}
    for u, v in g.edges:
        uval, vval = values[u], values[v]

        def at(t):
            return tuple(x + t * (y - x) for x, y in zip(uval, vval))

        cuts = set()
        for x, y in zip(uval, vval):
            if x != y:
                for l in range(math.floor(min(x, y) / dfrac), math.floor(max(x, y) / dfrac) + 1):
                    t = (l * dfrac - x) / (y - x)
                    if 0 < t < 1:
                        cuts.add(t)
        ts = [Fraction(0)] + sorted(cuts) + [Fraction(1)]
        chain = [vertex_piece[u]]
        spans = [(ts[0], ts[0], vertex_piece[u])]
        for t0, t1 in zip(ts, ts[1:]):
            chain.append(len(pieces))
            spans.append((t0, t1, len(pieces)))
            pieces.append(carrier(at((t0 + t1) / 2)))
            if t1 != 1:
                chain.append(len(pieces))
                spans.append((t1, t1, len(pieces)))
                pieces.append(carrier(at(t1)))
        chain.append(vertex_piece[v])
        spans.append((ts[-1], ts[-1], vertex_piece[v]))
        adjacency += zip(chain, chain[1:])
        edge_chain.setdefault((u, v), spans)
        edge_chain.setdefault((v, u), spans)

    nodes, links, piece_node = [], [], {}
    for c in sorted(closure(pieces), key=cell_sort_key):
        member = [p for p, pc in enumerate(pieces) if is_face(c, pc)]
        comp = {p: p for p in member}
        changed = True
        while changed:  # propagate the least piece id along adjacencies
            changed = False
            for a, b in adjacency:
                if a in comp and b in comp and comp[a] != comp[b]:
                    comp[a] = comp[b] = min(comp[a], comp[b])
                    changed = True
        for k, root in enumerate(sorted(set(comp.values()))):
            nid = f"{_cell_token(c)}#{k}"
            nodes.append((nid, c))
            for p in member:
                if comp[p] == root:
                    piece_node[(c, p)] = nid
            for f in faces(c):
                if f.dim == c.dim - 1:
                    links.append((nid, piece_node[(f, root)]))
    return nodes, links, piece_node, vertex_piece, edge_chain


def _degenerate_extras(rng: random.Random, g: GeometricGraph) -> GeometricGraph:
    """g plus a zero-length edge, a parallel edge and a reversed duplicate."""
    verts = dict(g.vertices)
    edges = list(g.edges)
    src = rng.choice(sorted(verts))
    verts["twin"] = verts[src]
    edges.append((src, "twin"))
    u, v = rng.choice(g.edges)
    edges += [(u, v), (v, u)]
    rng.shuffle(edges)
    return GeometricGraph(d=g.d, vertices=verts, edges=edges)


def _lookup(fn, *args):
    try:
        return fn(*args)
    except IngestError as exc:
        return f"IngestError: {exc}"


class _MidpointLookups:
    """node_of_vertex and node_on_edge read from the midpoint reference's
    (cell, piece) table and Fraction spans, by a linear scan, with build's
    error messages."""

    def __init__(self, piece_node, vertex_piece, edge_chain):
        self.piece_node, self.vertex_piece, self.edge_chain = piece_node, vertex_piece, edge_chain

    def node_of_vertex(self, c, vertex_id):
        if vertex_id not in self.vertex_piece:
            raise IngestError(f"unknown vertex {vertex_id!r}")
        nid = self.piece_node.get((c, self.vertex_piece[vertex_id]))
        if nid is None:
            raise IngestError(f"vertex {vertex_id!r} does not lie over basic_open({c!r})")
        return nid

    def node_on_edge(self, c, edge, t):
        t = Fraction(str(t)) if isinstance(t, float) else Fraction(t)
        if edge not in self.edge_chain:
            raise IngestError(f"unknown edge {edge!r}")
        # the first span ending at or after t; at a cut, the segment before it
        hit = next(((lo, p) for lo, hi, p in self.edge_chain[edge] if hi >= t), None)
        if hit is None or hit[0] > t:
            raise IngestError(f"parameter {t} outside [0, 1]")
        nid = self.piece_node.get((c, hit[1]))
        if nid is None:
            raise IngestError(f"edge point t={t} does not lie over basic_open({c!r})")
        return nid


def _shared_carriers(rng: random.Random, d: int) -> GeometricGraph:
    """Chain adjacencies whose two pieces share a carrier: a polyline of
    several vertices inside one open cell, a vertex of degree 3 there with
    one edge leaving the cell, and an edge lying in the hyperplane
    {x_0 = l}, which crosses other hyperplanes or not."""
    base = [rng.randint(-2, 1) for _ in range(d)]
    verts = {f"w{i}": tuple(b + Fraction(rng.randint(1, 9), 10) for b in base)
             for i in range(rng.randint(3, 5))}
    edges = [(f"w{i - 1}", f"w{i}") for i in range(1, len(verts))]
    verts["out"] = tuple(Fraction(rng.randint(-25, 25), 10) for _ in range(d))
    edges += [("w1", "out"), ("w1", "w0")] if rng.random() < 0.5 else [("w1", "out")]
    level = rng.randint(-2, 2)
    for end in ("h0", "h1"):
        verts[end] = (Fraction(level),) + tuple(Fraction(rng.randint(-5, 5), 2)
                                                for _ in range(d - 1))
    edges.append(("h0", "h1"))
    if rng.random() < 0.5:
        edges.append(("h1", "w0"))
    return GeometricGraph(d=d, vertices=verts, edges=edges)


def _coprime_axes(rng: random.Random, d: int, n: int) -> GeometricGraph:
    """A path plus a chord whose values on axis a are m / k_a, with pairwise
    coprime k_a: an edge's crossing denominators differ by axis, and their lcm
    differs from each of them."""
    ks = rng.sample([3, 7, 10, 11], d)
    verts = {f"w{i}": tuple(Fraction(rng.randint(-3 * k, 3 * k), k) for k in ks)
             for i in range(n)}
    edges = [(f"w{i - 1}", f"w{i}") for i in range(1, n)]
    return GeometricGraph(d=d, vertices=verts, edges=edges + [tuple(rng.sample(sorted(verts), 2))])


def _coincident_cuts(rng: random.Random, d: int, n: int) -> GeometricGraph:
    """A path plus a chord with values s_a * r + o_a for one r per vertex,
    slopes s_a in {1, -1, 2, -2} and integer offsets o_a: an edge crosses
    hyperplanes of several axes at one t, in both directions."""
    den = rng.choice([1, 2, 3, 10])
    slopes = [rng.choice([1, -1, 2, -2]) for _ in range(d)]
    offsets = [rng.randint(-1, 1) for _ in range(d)]
    verts = {}
    for i in range(n):
        r = Fraction(rng.randint(-2 * den, 2 * den), den)
        verts[f"w{i}"] = tuple(s * r + o for s, o in zip(slopes, offsets))
    edges = [(f"w{i - 1}", f"w{i}") for i in range(1, n)]
    return GeometricGraph(d=d, vertices=verts, edges=edges + [tuple(rng.sample(sorted(verts), 2))])


def _parallel_strands(rng: random.Random, d: int) -> GeometricGraph:
    """A dozen disjoint edges across the box along axis 0, all in one row of
    cells on the other axes: a cell holds a dozen nodes, and the ids "c#10"
    and "c#11" sort before "c#2"."""
    verts = {}
    for k in range(12):
        rest = tuple(Fraction(rng.randint(1, 9), 10) for _ in range(d - 1))
        verts[f"s{k:02}a"] = (Fraction(-rng.randint(11, 29), 10),) + rest
        verts[f"s{k:02}b"] = (Fraction(rng.randint(11, 29), 10),) + rest
    return GeometricGraph(d=d, vertices=verts, edges=[(f"s{k:02}a", f"s{k:02}b") for k in range(12)])


def _walk_trials(rng: random.Random):
    """(d, kind, graph) per trial of the walk test; kind is the denominator
    of the random trials."""
    for d in [1] * 30 + [2] * 20 + [3] * 8:
        # denominators of 1 and 2 put values, and whole edges, on hyperplanes
        denom = rng.choice([1, 2, 3, 10])
        yield d, denom, random_geometric(rng, "w", rng.randint(2, 7 if d < 3 else 4), d=d,
                                         denom=denom, spread=3 * denom,
                                         extra_edges=rng.randint(0, 2))
    for d in [2] * 10 + [3] * 6:
        yield d, "coprime", _coprime_axes(rng, d, rng.randint(2, 6 if d < 3 else 4))
    for d in [2] * 10 + [3] * 6:
        yield d, "coincident", _coincident_cuts(rng, d, rng.randint(2, 6 if d < 3 else 4))
    for d in [1] * 6 + [2] * 10 + [3] * 6:
        yield d, "shared", _shared_carriers(rng, d)
    for d in (1, 1, 2, 3):
        yield d, "strands", _parallel_strands(rng, d)


def test_walk_matches_midpoint_subdivision():
    rng = random.Random(41)
    for trial, (d, kind, g) in enumerate(_walk_trials(rng)):
        g = _degenerate_extras(rng, g)
        grid = fit_grid([g], rng.choice([1.0, 0.5]))
        peak = max(abs(x) for val in g.vertices.values() for x in val)
        if grid.L > 1 and peak == (grid.L - 1) * Fraction(str(grid.delta)) and rng.random() < 0.5:
            # a vertex on the boundary of the box
            grid = GridSpec(d, grid.delta, grid.L - 1)
        got = build(g, grid)
        nodes, links, piece_node, vertex_piece, edge_chain = _midpoint_build(g, grid)
        where = (trial, d, kind)
        assert to_json(got.graph) == to_json(CosheafGraph(grid, nodes, links)), where
        assert got._vertex_piece == vertex_piece, where
        assert {e: [(Fraction(lo, P), Fraction(hi, P), p) for lo, hi, p in spans]
                for e, (P, spans) in got._edge_chain.items()} == edge_chain, where
        # every piece resolves over every occupied cell to the reference's node
        # there, or to none where the reference has none
        occupied = got.graph.occupied_cells()
        assert {(c, p): got._node(c, p) for p in range(len(got._class)) for c in occupied} == \
            {(c, p): piece_node.get((c, p)) for p in range(len(got._class)) for c in occupied}, where

        # each piece is queried over every cell it lies over, and over one random cell
        ref = _MidpointLookups(piece_node, vertex_piece, edge_chain)
        over: dict[int, list[Cell]] = {}
        for c, p in piece_node:
            over.setdefault(p, []).append(c)
        for vid, p in vertex_piece.items():
            for c in over[p] + [rng.choice(occupied)]:
                assert _lookup(got.node_of_vertex, c, vid) == _lookup(ref.node_of_vertex, c, vid)
        for e, spans in edge_chain.items():
            for lo, hi, p in spans:
                t = (lo + hi) / 2
                for c in over[p] + [rng.choice(occupied)]:
                    assert _lookup(got.node_on_edge, c, e, t) == \
                        _lookup(ref.node_on_edge, c, e, t), (where, e, t, c)
            # parameters outside [0, 1], and a float, over every cell the edge lies over
            for t in (Fraction(-1, 7), Fraction(8, 7), 0.3):
                for c in {c for _, _, p in spans for c in over[p]}:
                    assert _lookup(got.node_on_edge, c, e, t) == \
                        _lookup(ref.node_on_edge, c, e, t), (where, e, t, c)
