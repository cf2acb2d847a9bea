"""Assignments between cosheaf graphs, diagram checks, and the basis loss.

An n-assignment is a pair of pointer maps: phi sends every element of F to an
element of G whose carrier cell lies in the n-thickened star of its own
carrier, and psi symmetrically.  The pointer's slice component realizes the
component-level map, and composites chase the concrete representative.

Four diagram families measure how far the pair is from an interleaving, all
phrased as "do these two nodes share a component of a given slice":

  parallelogram left  (sigma < tau): phi respects the face map from tau to
      sigma up to slack k, checked in the (n+k)-slice of G at sigma;
  parallelogram right: mirror image with psi and slices in F;
  triangle down (sigma): psi(phi(x)) returns next to x in the 2(n+k)-slice
      of F at sigma;
  triangle up: mirror in G.

The basis loss L_B is the least slack making every family pass; monotone
merging of slice components makes a binary search over the slack sound.  The
certified bound is n + L_B, and for d = 1 the scaled quantity
delta * (n + L_B + 1) bounds the Reeb-graph interleaving distance.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from .cosheaf import INFINITE, CosheafGraph, fmt_extended
from .grid import Cell, cell_sort_key, cell_to_wire, faces, star_box, thicken

KIND_ORDER = ("parallelogram_left", "parallelogram_right", "triangle_down", "triangle_up")


class AssignmentError(ValueError):
    """Refused input.  When the pointer maps themselves are invalid,
    `violations` holds validate_assignment's messages."""

    def __init__(self, message: str, violations: list[str] | None = None) -> None:
        super().__init__(message)
        self.violations = violations or []


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
        return cls(n=int(obj["n"]), phi=dict(obj["phi"]), psi=dict(obj["psi"]))

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
    delta: float

    def to_json_obj(self) -> dict:
        rb = self.reeb_bound
        if rb is not None and math.isinf(rb):
            rb = "inf"
        return {
            "n": self.n,
            "L_B": fmt_extended(self.L_B),
            "bound": fmt_extended(self.bound),
            "reeb_bound": rb,
            "witnesses": [w.to_json_obj() for w in self.witnesses],
        }


def result_to_json(r: LossResult) -> str:
    return json.dumps(r.to_json_obj(), sort_keys=True) + "\n"


# -- validation ----------------------------------------------------------------


def _require_shared_grid(F: CosheafGraph, G: CosheafGraph) -> None:
    if F.grid != G.grid:
        raise AssignmentError("both cosheaves must live on the same grid")


def _ptr_idx(src: CosheafGraph, dst: CosheafGraph, ptr: dict[str, str]) -> list[int | None]:
    """The node index in dst of each source node's pointer target, in node
    order; None where the pointer is missing or names no node of dst."""
    get = dst.index.get
    return [get(ptr.get(nid)) for nid in src.ids]


def validate_assignment(F: CosheafGraph, G: CosheafGraph, a: Assignment) -> list[str]:
    """Empty iff the pointer maps are total on occupied cells and respect the
    level-n radius constraint.  Raises on grid mismatch."""
    return _violations(F, G, a, _ptr_idx(F, G, a.phi), _ptr_idx(G, F, a.psi))


def _violations(F: CosheafGraph, G: CosheafGraph, a: Assignment,
                phi: list[int | None], psi: list[int | None]) -> list[str]:
    """validate_assignment's messages, from pointer maps resolved by _ptr_idx."""
    _require_shared_grid(F, G)
    out: list[str] = []
    for side, src, dst, ptr, idx in (("phi", F, G, a.phi, phi), ("psi", G, F, a.psi, psi)):
        for c, block in src.nodes_at.items():
            # one box per carrier cell, one membership test per target cell
            box = star_box(F.grid, c, a.n)
            fits: dict[Cell, bool] = {}
            for i in block:
                j = idx[i]
                if j is None:
                    nid = src.ids[i]
                    tgt = ptr.get(nid)
                    out.append(f"{side} is missing node {nid}" if tgt is None
                               else f"{side}({nid}) = {tgt} is not a node of the target")
                    continue
                t = dst.cells[j]
                ok = fits.get(t)
                if ok is None:
                    ok = fits[t] = all(m in span for m, span in zip(t.coords, box))
                if not ok:
                    nid = src.ids[i]
                    out.append(
                        f"{side}({nid}) = {ptr[nid]} lies outside the level-{a.n} radius")
    return out


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
    _require_shared_grid(F, G)
    if sigma == tau or not any(sigma == f for f in faces(tau)):
        raise AssignmentError("sigma must be a proper face of tau")
    sl = G.slice(sigma, a.n + k)
    bad: list[Witness] = []
    for x in F.elements_of(tau):
        xf = F.face_image(x, sigma)
        if sl.component_of(a.phi[x]) != sl.component_of(a.phi[xf]):
            bad.append(Witness("parallelogram_left", sigma, tau, x))
    return (not bad, bad)


def check_parallelogram_right(
    F: CosheafGraph, G: CosheafGraph, a: Assignment, sigma: Cell, tau: Cell, k: int
) -> tuple[bool, list[Witness]]:
    """Mirror image: chases elements of G over tau through psi, slices in F."""
    _require_shared_grid(F, G)
    if sigma == tau or not any(sigma == f for f in faces(tau)):
        raise AssignmentError("sigma must be a proper face of tau")
    sl = F.slice(sigma, a.n + k)
    bad: list[Witness] = []
    for y in G.elements_of(tau):
        yf = G.face_image(y, sigma)
        if sl.component_of(a.psi[y]) != sl.component_of(a.psi[yf]):
            bad.append(Witness("parallelogram_right", sigma, tau, y))
    return (not bad, bad)


def check_triangle_down(
    F: CosheafGraph, G: CosheafGraph, a: Assignment, sigma: Cell, k: int
) -> tuple[bool, list[Witness]]:
    """Every element over sigma must meet its psi(phi(.)) image inside the
    2(n+k)-slice of F at sigma."""
    _require_shared_grid(F, G)
    sl = F.slice(sigma, 2 * (a.n + k))
    bad: list[Witness] = []
    for x in F.elements_of(sigma):
        if sl.component_of(x) != sl.component_of(a.psi[a.phi[x]]):
            bad.append(Witness("triangle_down", sigma, None, x))
    return (not bad, bad)


def check_triangle_up(
    F: CosheafGraph, G: CosheafGraph, a: Assignment, sigma: Cell, k: int
) -> tuple[bool, list[Witness]]:
    """Mirror image: chases elements of G over sigma against phi(psi(.))."""
    _require_shared_grid(F, G)
    sl = G.slice(sigma, 2 * (a.n + k))
    bad: list[Witness] = []
    for y in G.elements_of(sigma):
        if sl.component_of(y) != sl.component_of(a.phi[a.psi[y]]):
            bad.append(Witness("triangle_up", sigma, None, y))
    return (not bad, bad)


# -- the basis loss -------------------------------------------------------------


@dataclass
class _Instance:
    """Face-pair enumeration for one (F, G) pair, reused across slack values."""

    F: CosheafGraph
    G: CosheafGraph
    phi: list[int]
    psi: list[int]
    centers: list[Cell]
    left_pairs: dict[Cell, list[Cell]] = field(default_factory=dict)
    right_pairs: dict[Cell, list[Cell]] = field(default_factory=dict)
    tri_down: set[Cell] = field(default_factory=set)
    tri_up: set[Cell] = field(default_factory=set)


def _prepare(F: CosheafGraph, G: CosheafGraph,
             phi: list[int | None], psi: list[int | None]) -> _Instance:
    """The instance for pointer maps resolved by _ptr_idx; raises unless total."""
    _require_shared_grid(F, G)
    for src, idx in ((F, phi), (G, psi)):
        if None in idx:
            raise AssignmentError(
                f"assignment is not total at node {src.ids[idx.index(None)]!r}")
    left: dict[Cell, list[Cell]] = {}
    right: dict[Cell, list[Cell]] = {}
    for tau in F.occupied_cells():
        for s in faces(tau):
            left.setdefault(s, []).append(tau)
    for tau in G.occupied_cells():
        for s in faces(tau):
            right.setdefault(s, []).append(tau)
    tri_down = set(F.occupied_cells())
    tri_up = set(G.occupied_cells())
    centers = sorted(set(left) | set(right) | tri_down | tri_up, key=cell_sort_key)
    return _Instance(F, G, phi, psi, centers, left, right, tri_down, tri_up)


def _center_report(
    inst: _Instance, a: Assignment, sigma: Cell, k: int, collect: bool
) -> list[Witness]:
    """All failing diagrams centered at sigma for slack k (first one only
    unless collecting)."""
    F, G, phi, psi = inst.F, inst.G, inst.phi, inst.psi
    n = a.n
    bad: list[Witness] = []

    taus = inst.left_pairs.get(sigma)
    if taus:
        lab = G.slice(sigma, n + k)._lab
        for tau in taus:
            for xi, xf in zip(F.nodes_at[tau], F._face_images(tau, sigma)):
                if xf is None:
                    raise AssignmentError(
                        f"cosheaf is missing the face image of {F.ids[xi]!r} at {sigma!r}")
                if lab[phi[xi]] != lab[phi[xf]]:
                    bad.append(Witness("parallelogram_left", sigma, tau, F.ids[xi]))
                    if not collect:
                        return bad
    taus = inst.right_pairs.get(sigma)
    if taus:
        lab = F.slice(sigma, n + k)._lab
        for tau in taus:
            for yi, yf in zip(G.nodes_at[tau], G._face_images(tau, sigma)):
                if yf is None:
                    raise AssignmentError(
                        f"cosheaf is missing the face image of {G.ids[yi]!r} at {sigma!r}")
                if lab[psi[yi]] != lab[psi[yf]]:
                    bad.append(Witness("parallelogram_right", sigma, tau, G.ids[yi]))
                    if not collect:
                        return bad
    if sigma in inst.tri_down:
        lab = F.slice(sigma, 2 * (n + k))._lab
        for xi in F.nodes_at[sigma]:
            if lab[xi] != lab[psi[phi[xi]]]:
                bad.append(Witness("triangle_down", sigma, None, F.ids[xi]))
                if not collect:
                    return bad
    if sigma in inst.tri_up:
        lab = G.slice(sigma, 2 * (n + k))._lab
        for yi in G.nodes_at[sigma]:
            if lab[yi] != lab[phi[psi[yi]]]:
                bad.append(Witness("triangle_up", sigma, None, G.ids[yi]))
                if not collect:
                    return bad
    return bad


def _loss_at(inst: _Instance, a: Assignment, k: int, collect: bool, jobs: int) -> list[Witness]:
    if jobs <= 1:
        bad: list[Witness] = []
        for sigma in inst.centers:
            got = _center_report(inst, a, sigma, k, collect)
            if got:
                bad.extend(got)
                if not collect:
                    return bad
        return bad
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        reports = pool.map(
            lambda s: _center_report(inst, a, s, k, collect), inst.centers)
        bad = [w for rep in reports for w in rep]
    return bad


def loss_at(F: CosheafGraph, G: CosheafGraph, a: Assignment, k: int, jobs: int = 1) -> bool:
    """True iff all four diagram families pass at slack k over every basis
    diagram: both parallelograms for every proper face pair, both triangles
    for every occupied cell."""
    if k < 0:
        raise AssignmentError("slack k must be a natural number")
    inst = _prepare(F, G, _ptr_idx(F, G, a.phi), _ptr_idx(G, F, a.psi))
    return not _loss_at(inst, a, k, collect=False, jobs=jobs)


def loss_report(
    F: CosheafGraph, G: CosheafGraph, a: Assignment, k: int, jobs: int = 1
) -> tuple[bool, list[Witness]]:
    """loss_at with the full witness listing (all failing diagrams at k)."""
    if k < 0:
        raise AssignmentError("slack k must be a natural number")
    inst = _prepare(F, G, _ptr_idx(F, G, a.phi), _ptr_idx(G, F, a.psi))
    bad = sorted(_loss_at(inst, a, k, collect=True, jobs=jobs), key=Witness.sort_key)
    return (not bad, bad)


def _cap(inst: _Instance) -> int:
    cap = max((inst.F.saturation(sigma) for sigma in inst.centers), default=0)
    assert cap <= 2 * inst.F.grid.L, "saturation exceeded the 2L search range"
    return cap


def saturation_cap(F: CosheafGraph, G: CosheafGraph, a: Assignment) -> int:
    """Largest slack worth probing: past the saturation of every slice center
    thickening is a fixed point, so no check outcome can change."""
    return _cap(_prepare(F, G, _ptr_idx(F, G, a.phi), _ptr_idx(G, F, a.psi)))


def basis_loss(F: CosheafGraph, G: CosheafGraph, a: Assignment, jobs: int = 1) -> LossResult:
    """L_B by binary search on the slack, the bound n + L_B, and witnesses.

    The search runs over [0, K] with K the maximum saturation step of any
    slice center; if the checks still fail at K the loss is infinite, since
    every slice is globally saturated there.
    """
    phi, psi = _ptr_idx(F, G, a.phi), _ptr_idx(G, F, a.psi)
    problems = _violations(F, G, a, phi, psi)
    if problems:
        raise AssignmentError("invalid assignment: " + "; ".join(problems), problems)
    inst = _prepare(F, G, phi, psi)
    cap = _cap(inst)
    grid = F.grid

    def failing(k: int, collect: bool = False) -> list[Witness]:
        return _loss_at(inst, a, k, collect=collect, jobs=jobs)

    witnesses: list[Witness]
    if failing(cap):
        L_B: float | int = INFINITE
        witnesses = sorted(failing(cap, collect=True), key=Witness.sort_key)[:10]
    elif not failing(0):
        L_B = 0
        witnesses = []
    else:
        lo, hi = 0, cap  # failing(lo) nonempty, failing(hi) empty
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if failing(mid):
                lo = mid
            else:
                hi = mid
        L_B = hi
        witnesses = sorted(failing(L_B - 1, collect=True), key=Witness.sort_key)[:10]

    bound = a.n + L_B
    rb = grid.delta * (a.n + L_B + 1) if grid.d == 1 else None
    return LossResult(
        n=a.n, L_B=L_B, bound=bound, reeb_bound=rb,
        witnesses=witnesses, dim=grid.d, delta=grid.delta,
    )


def reeb_bound(result: LossResult, delta: float) -> float:
    """The Reeb-graph interleaving bound delta * (n + L_B + 1); only d = 1
    discretizations induce one."""
    if result.dim != 1:
        raise AssignmentError("the Reeb bound is defined for d = 1 only")
    if not delta > 0:
        raise AssignmentError("delta must be positive")
    if math.isinf(result.L_B):
        return INFINITE
    return delta * (result.n + result.L_B + 1)
