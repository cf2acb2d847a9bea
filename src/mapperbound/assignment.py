"""Assignments between cosheaf graphs, diagram checks, and the basis loss.

An n-assignment is a pair of pointer maps: phi sends every element of F to an
element of G whose carrier cell lies in the n-thickened star of its own
carrier, and psi symmetrically.  The pointer's slice component realizes the
component-level map, and composites chase the concrete representative.

The loss is defined for assignments only.  Every entry point that scores one
(basis_loss, loss_at, loss_report and the four check_*) starts by resolving
each pointer map once and validating the pair; on any violation it raises an
AssignmentError carrying validate_assignment's messages.  A target lies in
the n-thickened star of a carrier iff its star_ring around the carrier is at
most n.

Four diagram families measure how far the pair is from an interleaving, all
phrased as "do these two nodes share a component of a given slice":

  parallelogram left  (sigma < tau): phi respects the face map from tau to
      sigma up to slack k, checked in the (n+k)-slice of G at sigma;
  parallelogram right: mirror image with psi and slices in F;
  triangle down (sigma): psi(phi(x)) returns next to x in the 2(n+k)-slice
      of F at sigma;
  triangle up: mirror in G.

Each diagram passes from some least slack on: slice components only merge as
the radius grows, so it is read off the merge radius r of its two chased nodes,
r - n for a parallelogram and ceil((r - 2n) / 2) for a triangle, floored at 0.
One pass, _slacks, lists every diagram with a positive slack, and every entry
point reads that list: a diagram fails at slack k iff its slack exceeds k, and
the basis loss L_B is the largest slack, the least one making every family
pass.  _chains covers the centers with chains, each center a facet of the one
before; the thickened stars of a face and its coface nest (star_box(tau, r)
lies in star_box(sigma, r), which lies in star_box(tau, r + 1)), so _slacks
makes one sweep (CosheafGraph._chain_radii) per chain and target graph,
exact for every center of the chain.  The
certified bound is n + L_B, and for d = 1 the scaled quantity
delta * (n + L_B + 1) bounds the Reeb-graph interleaving distance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from .cosheaf import CosheafGraph, _slack, fmt_extended
from .grid import (Cell, InvalidInput, cell_sort_key, cell_to_wire, faces, facets, ring_cells,
                   star_ring, thicken, wire)

KIND_ORDER = ("parallelogram_left", "parallelogram_right", "triangle_down", "triangle_up")


class AssignmentError(InvalidInput):
    """A refused assignment or loss query.  When the pointer maps themselves
    are invalid, the subject is "invalid assignment" and the violations are
    validate_assignment's messages."""


@dataclass
class Assignment:
    """Pointer maps phi: nodes(F) -> nodes(G) and psi: nodes(G) -> nodes(F),
    interpreted at level n."""

    n: int
    phi: dict[str, str]
    psi: dict[str, str]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise AssignmentError("assignment level n must be a natural number")

    def to_json_obj(self) -> dict:
        return {"n": self.n, "phi": dict(sorted(self.phi.items())),
                "psi": dict(sorted(self.psi.items()))}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Assignment":
        wire(obj, dict, "an assignment", AssignmentError)
        for side in ("phi", "psi"):
            for nid, tgt in wire(obj.get(side), dict, side, AssignmentError).items():
                if type(tgt) is not str:
                    raise AssignmentError(f"{side}({nid}) must be str, not {type(tgt).__name__}")
        return cls(n=wire(obj.get("n"), int, "assignment n", AssignmentError),
                   phi=dict(obj["phi"]), psi=dict(obj["psi"]))

    @classmethod
    def from_json(cls, text: str) -> "Assignment":
        return cls.from_json_obj(json.loads(text))


def assignment_to_json(a: Assignment) -> str:
    return json.dumps(a.to_json_obj(), sort_keys=True) + "\n"


@dataclass(frozen=True)
class Witness:
    """A diagram that failed at some slack, with the chased element."""

    kind: str
    sigma: Cell
    tau: Cell | None
    element: str

    def sort_key(self) -> tuple:
        return (
            KIND_ORDER.index(self.kind),
            cell_sort_key(self.sigma),
            cell_sort_key(self.tau) if self.tau is not None else (),
            self.element,
        )

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "sigma": cell_to_wire(self.sigma),
            "tau": cell_to_wire(self.tau) if self.tau is not None else None,
            "element": self.element,
        }


@dataclass
class LossResult:
    """Outcome of a basis-loss evaluation: L_B, the bound n + L_B, up to ten
    witness diagrams from the last failing slack, and the scaled d=1 bound."""

    n: int
    L_B: float | int
    bound: float | int
    reeb_bound: float | None
    witnesses: list[Witness]
    dim: int

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "L_B": fmt_extended(self.L_B),
            "bound": fmt_extended(self.bound),
            "reeb_bound": fmt_extended(self.reeb_bound),
            "witnesses": [w.to_json_obj() for w in self.witnesses],
        }


def result_to_json(r: LossResult) -> str:
    return json.dumps(r.to_json_obj(), sort_keys=True) + "\n"


# -- validation ----------------------------------------------------------------


def _ptr_idx(src: CosheafGraph, dst: CosheafGraph, ptr: dict[str, str]) -> list[int | None]:
    """The node index in dst of each source node's pointer target, in node
    order; None where the pointer is missing or names no node of dst."""
    get = dst.index.get
    return [get(ptr.get(nid)) for nid in src.ids]


def _violations(F: CosheafGraph, G: CosheafGraph, a: Assignment,
                phi: list[int | None], psi: list[int | None]) -> list[str]:
    """validate_assignment's messages, from phi and psi resolved by _ptr_idx."""
    if F.grid != G.grid:
        raise AssignmentError("both cosheaves must live on the same grid")
    out: list[str] = []
    for side, src, dst, ptr, idx in (("phi", F, G, a.phi, phi), ("psi", G, F, a.psi, psi)):
        missing = 0
        for c, block in src.nodes_at.items():
            fits: dict[Cell, bool] = {}  # one membership test per target cell
            for i in block:
                j = idx[i]
                if j is None:
                    nid = src.ids[i]
                    tgt = ptr.get(nid)
                    missing += tgt is None
                    out.append(f"{side} is missing node {nid}" if tgt is None
                               else f"{side}({nid}) = {tgt} is not a node of the target")
                    continue
                t = dst.cells[j]
                ok = fits.get(t)
                if ok is None:
                    ok = fits[t] = star_ring(c, t) <= a.n
                if not ok:
                    nid = src.ids[i]
                    out.append(
                        f"{side}({nid}) = {ptr[nid]} lies outside the level-{a.n} radius")
        # a key naming no node of src is possible only with more keys than pointing nodes
        if len(ptr) > len(src.ids) - missing:
            out += sorted(f"{side} has unknown node {k}" for k in ptr if k not in src.index)
    return out


def validate_assignment(F: CosheafGraph, G: CosheafGraph, a: Assignment) -> list[str]:
    """Empty iff the keys of phi and psi are exactly the nodes of F and of G
    and every pointer names a node of the other graph within the level-n
    radius.  Raises on grid mismatch."""
    return _violations(F, G, a, _ptr_idx(F, G, a.phi), _ptr_idx(G, F, a.psi))


def _prepare(F: CosheafGraph, G: CosheafGraph, a: Assignment) -> tuple[list[int], list[int]]:
    """phi and psi resolved by _ptr_idx, once each.  Raises an AssignmentError
    carrying validate_assignment's messages, if there are any."""
    phi, psi = _ptr_idx(F, G, a.phi), _ptr_idx(G, F, a.psi)
    problems = _violations(F, G, a, phi, psi)
    if problems:
        raise AssignmentError("invalid assignment", problems)
    return phi, psi


def promote(a: Assignment, k: int) -> Assignment:
    """Reinterpret the same pointers at level n + k (post-composition with the
    inclusion into the larger thickening)."""
    if k < 0:
        raise AssignmentError("promotion step must be a natural number")
    return Assignment(n=a.n + k, phi=dict(a.phi), psi=dict(a.psi))


# -- diagram checks -------------------------------------------------------------


def check_parallelogram_left(
    F: CosheafGraph, G: CosheafGraph, a: Assignment, sigma: Cell, tau: Cell, k: int
) -> tuple[bool, list[Witness]]:
    """For every element over tau: its pointer image and the pointer image of
    its face image at sigma must share a component of the (n+k)-slice of G."""
    return _check(F, G, a, k, "parallelogram_left", sigma, tau)


def check_parallelogram_right(
    F: CosheafGraph, G: CosheafGraph, a: Assignment, sigma: Cell, tau: Cell, k: int
) -> tuple[bool, list[Witness]]:
    """Mirror image: chases elements of G over tau through psi, slices in F."""
    return _check(F, G, a, k, "parallelogram_right", sigma, tau)


def check_triangle_down(
    F: CosheafGraph, G: CosheafGraph, a: Assignment, sigma: Cell, k: int
) -> tuple[bool, list[Witness]]:
    """Every element over sigma must meet its psi(phi(.)) image inside the
    2(n+k)-slice of F at sigma."""
    return _check(F, G, a, k, "triangle_down", sigma, None)


def check_triangle_up(
    F: CosheafGraph, G: CosheafGraph, a: Assignment, sigma: Cell, k: int
) -> tuple[bool, list[Witness]]:
    """Mirror image: chases elements of G over sigma against phi(psi(.))."""
    return _check(F, G, a, k, "triangle_up", sigma, None)


def _check(F: CosheafGraph, G: CosheafGraph, a: Assignment, k: int,
           kind: str, sigma: Cell, tau: Cell | None) -> tuple[bool, list[Witness]]:
    """One family's diagram at (sigma, tau), with its failing elements."""
    F.grid.check_cell(sigma)
    if tau is not None and sigma not in faces(F.grid.check_cell(tau)):
        raise AssignmentError("sigma must be a proper face of tau")
    bad = [w for w in _failing(F, G, a, k, [[sigma]]) if w.kind == kind and w.tau == tau]
    return (not bad, bad)


# -- the basis loss -------------------------------------------------------------


def _chains(F: CosheafGraph, G: CosheafGraph) -> list[list[Cell]]:
    """Every cell a diagram is centered at, the faces of both graphs' occupied
    cells, covered once by chains in which each cell is a facet of the one
    before.  One walk down grid.facets, a dimension at a time from the top:
    each chain that reached the dimension above takes the first facet of its
    last cell that no chain holds yet, and every cell of the dimension still
    free starts a chain, in coordinate order."""
    levels: list[list[Cell]] = [[] for _ in range(F.grid.d + 1)]
    for c in {*F.nodes_at, *G.nodes_at}:
        levels[len(facets(c)) // 2].append(c)  # a cell of dimension k has 2k facets
    chains: list[list[Cell]] = []
    tails: list[list[Cell]] = []  # the chains that reached the dimension above
    for cells in reversed(levels):
        free = {*cells, *(f for chain in tails for f in facets(chain[-1]))}
        grown = []
        for chain in tails:
            for f in facets(chain[-1]):
                if f in free:
                    free.remove(f)
                    chain.append(f)
                    grown.append(chain)
                    break
        new = [[c] for c in sorted(free)]
        chains += new
        tails = grown + new
    return chains


def _slacks(F: CosheafGraph, G: CosheafGraph, n: int, phi: list[int], psi: list[int],
            chains: list[list[Cell]] | None = None) -> list[tuple[Witness, float | int]]:
    """(diagram, slack) for every basis diagram whose slack is positive,
    chain by chain (_chains by default; a chain lists centers, each a face
    of the one before).  The diagrams centered at sigma are read off the face
    poset: a parallelogram for each proper coface tau of sigma that src
    occupies (ring 0 around sigma is its star), a triangle when src occupies
    sigma.

    One _chain_radii sweep per chain and target graph takes, center by
    center, its parallelograms (step 1) then its triangle (step 2): G's are
    parallelogram_left and triangle_up, F's parallelogram_right and
    triangle_down.  The diagram of element x with merge radius r has slack
    _slack(r, step, n); a group whose largest radius gives slack 0 is
    skipped whole."""
    out: list[tuple[Witness, float | int]] = []
    for chain in chains or _chains(F, G):
        ups = [[tau for tau in ring_cells(F.grid, sigma, 0) if tau != sigma] for sigma in chain]
        for dst, src, ptr, back, kinds in ((G, F, phi, psi, ("parallelogram_left", "triangle_up")),
                                           (F, G, psi, phi, ("parallelogram_right", "triangle_down"))):
            groups, us, vs, ends = [], [], [], []
            for sigma, up in zip(chain, ups):
                for tau in up:
                    xs = src.nodes_at.get(tau)
                    if xs is None:
                        continue
                    fs = src._face_images(tau, sigma)
                    if None in fs:
                        raise AssignmentError(f"cosheaf is missing the face image of "
                                              f"{src.ids[xs[fs.index(None)]]!r} at {sigma!r}")
                    groups.append((kinds[0], 1, sigma, tau, src, xs))
                    us += [ptr[x] for x in xs]
                    vs += [ptr[f] for f in fs]
                ys = dst.nodes_at.get(sigma)
                if ys is not None:
                    groups.append((kinds[1], 2, sigma, None, dst, ys))
                    us += ys
                    vs += [ptr[back[y]] for y in ys]
                ends.append(len(us))
            radii = dst._chain_radii(chain, us, vs, ends)
            end = 0
            for kind, step, sigma, tau, graph, xs in groups:
                rs = radii[end:end + len(xs)]
                end += len(xs)
                if _slack(max(rs), step, n):
                    out += [(Witness(kind, sigma, tau, graph.ids[x]), s)
                            for x, r in zip(xs, rs) if (s := _slack(r, step, n))]
    return out


def _failing(F: CosheafGraph, G: CosheafGraph, a: Assignment, k: int,
             chains: list[list[Cell]] | None = None) -> list[Witness]:
    """The diagrams failing at slack k, chain by chain (_chains by default):
    those whose slack exceeds k."""
    phi, psi = _prepare(F, G, a)
    if k < 0:
        raise AssignmentError("slack k must be a natural number")
    return [w for w, s in _slacks(F, G, a.n, phi, psi, chains) if s > k]


def loss_at(F: CosheafGraph, G: CosheafGraph, a: Assignment, k: int) -> bool:
    """True iff all four diagram families pass at slack k over every basis
    diagram: both parallelograms for every proper face pair, both triangles
    for every occupied cell."""
    return not _failing(F, G, a, k)


def loss_report(
    F: CosheafGraph, G: CosheafGraph, a: Assignment, k: int
) -> tuple[bool, list[Witness]]:
    """loss_at with the full witness listing (all failing diagrams at k)."""
    bad = sorted(_failing(F, G, a, k), key=Witness.sort_key)
    return (not bad, bad)


def basis_loss(F: CosheafGraph, G: CosheafGraph, a: Assignment) -> LossResult:
    """L_B, the bound n + L_B, and up to ten witnesses: the diagrams whose
    slack is L_B (those failing at L_B - 1, or at every slack when L_B is
    infinite), in Witness.sort_key order."""
    phi, psi = _prepare(F, G, a)
    slacks = _slacks(F, G, a.n, phi, psi)
    L_B = max((s for _, s in slacks), default=0)
    worst = sorted((w for w, s in slacks if s == L_B), key=Witness.sort_key)
    res = LossResult(n=a.n, L_B=L_B, bound=a.n + L_B, reeb_bound=None,
                     witnesses=worst[:10], dim=F.grid.d)
    if res.dim == 1:
        res.reeb_bound = reeb_bound(res, F.grid.delta)
    return res


def reeb_bound(result: LossResult, delta: float) -> float:
    """The Reeb-graph interleaving bound delta * (n + L_B + 1); only d = 1
    discretizations induce one."""
    if result.dim != 1:
        raise AssignmentError("the Reeb bound is defined for d = 1 only")
    if not delta > 0:
        raise AssignmentError("delta must be positive")
    return delta * (result.n + result.L_B + 1)
