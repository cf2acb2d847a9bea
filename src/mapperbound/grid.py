"""Cubical grid combinatorics: cells, the face poset, basic opens, thickening.

The codomain box [-L*delta, L*delta]^d is cut into a finite cubical complex.
Along each axis there are 2L+1 degenerate intervals (grid points l*delta) and
2L nondegenerate ones (open intervals (l*delta, (l+1)*delta)).  A cell is a
product of one elementary interval per axis; its dimension is the number of
nondegenerate factors.

Open sets of the cover topology are exactly the coface-closed cell sets: if a
cell is in the set, every cell having it as a face is too.  The star of a cell
(itself plus all proper cofaces) is the basic open generated by it, and the
one-step thickening of an open set adds all faces of members and then all
cofaces of members.  Everything here is a pure function on immutable values.

A thickened star is a box (star_box), so the hot paths use closed forms:
star_ring for membership (the least thickening of a star that holds a cell),
ring_cells for the cells of one ring (the shell between two boxes), and
star_saturation; the set algebra is their tested reference, still imported
where the benchmark's tracer wraps it.  facets is the one listing of a cell's
codimension-1 faces (axis order, lower end first): ingest's links and the
cosheaf's one descent to deeper faces follow it.

Interval encoding: each axis entry of a cell is a single integer m, where
m = 2l encodes the grid point l*delta and m = 2l+1 encodes the open interval
(l*delta, (l+1)*delta).  Face relations then reduce to |difference| == 1
between an even and an odd entry.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class Cell(NamedTuple):
    """A product of elementary intervals, one doubled coordinate per axis."""

    coords: tuple[int, ...]

    @property
    def dim(self) -> int:
        return sum(1 for m in self.coords if m % 2 != 0)

    def intervals(self) -> list[tuple[str, int]]:
        """Decode to [("deg", l) | ("nondeg", l), ...] per axis."""
        return [("nondeg" if m % 2 else "deg", m // 2) for m in self.coords]

    def __repr__(self) -> str:
        return "Cell(%s)" % ",".join(
            "[%d]" % (m // 2) if m % 2 == 0 else "(%d,%d)" % ((m - 1) // 2, (m + 1) // 2)
            for m in self.coords
        )


def cell(*entries: tuple[str, int] | int) -> Cell:
    """Build a cell from ("deg", l) / ("nondeg", l) pairs or raw doubled ints."""
    coords = []
    for e in entries:
        if not isinstance(e, int):
            kind, l = e
            if kind not in ("deg", "nondeg"):
                raise ValueError(f"unknown interval kind {kind!r}")
            e = 2 * l + (kind == "nondeg")
        coords.append(e)
    return Cell(tuple(coords))


def vertex_cell(*indices: int) -> Cell:
    """The 0-cell at grid point (i*delta, j*delta, ...)."""
    return Cell(tuple(2 * i for i in indices))


def edge_cell(index: int) -> Cell:
    """d=1 convenience: the 1-cell (i*delta, (i+1)*delta)."""
    return Cell((2 * index + 1,))


def cell_sort_key(c: Cell) -> tuple:
    # Canonical total order: lexicographic on per-axis (kind, index),
    # degenerate before nondegenerate.  Deterministic iteration everywhere.
    return tuple((m % 2 != 0, m >> 1 if m % 2 == 0 else (m - 1) >> 1) for m in c.coords)


@dataclass(frozen=True)
class GridSpec:
    """The grid: dimension d, cell side delta, half-extent L (box [-L*delta, L*delta]^d)."""

    d: int
    delta: float
    L: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.L < 1:
            raise ValueError("half-extent L must be >= 1")
        if not 0 < self.delta < float("inf"):
            raise ValueError("delta must be positive and finite")

    def contains(self, c: Cell) -> bool:
        co = c.coords
        return len(co) == self.d and -2 * self.L <= min(co) and max(co) <= 2 * self.L

    def check_cell(self, c: Cell, error: type[ValueError] = ValueError) -> Cell:
        if not self.contains(c):
            raise error(f"cell {c!r} is not a cell of this grid")
        return c

    def cell_count(self) -> int:
        return (4 * self.L + 1) ** self.d

    def to_wire(self) -> dict:
        return {"d": self.d, "delta": float(self.delta), "L": self.L}

    @classmethod
    def from_wire(cls, obj: dict) -> "GridSpec":
        delta = wire(obj, dict, "a grid").get("delta")
        if type(delta) not in (int, float):
            raise ValueError(f"grid delta must be a number, not {type(delta).__name__}")
        return cls(d=wire(obj.get("d"), int, "grid d"), delta=float(delta),
                   L=wire(obj.get("L"), int, "grid L"))


class InvalidInput(ValueError):
    """Refused input: `subject` names it, `violations` lists the rules it
    breaks (possibly none).  The message is the subject, then ": " and the
    violations joined by "; " if there are any."""

    def __init__(self, subject: str, violations: list[str] | None = None) -> None:
        super().__init__(f"{subject}: {'; '.join(violations)}" if violations else subject)
        self.subject = subject
        self.violations = violations or []


def wire(v, kind: type, what: str, error: type[ValueError] = ValueError):
    """v, if JSON read it as a `kind` (dict, list, str or int); otherwise
    raises `error` naming `what`.  Types match exactly, so a bool is no int."""
    if type(v) is not kind:
        raise error(f"{what} must be {kind.__name__}, not {type(v).__name__}")
    return v


def wire_pairs(v, what: str, error: type[ValueError] = ValueError) -> list[list[str]]:
    """v, if JSON read it as a list of [str, str] pairs; otherwise raises
    `error` naming `what`."""
    for p in wire(v, list, what, error):
        if type(p) is not list or len(p) != 2 or type(p[0]) is not str or type(p[1]) is not str:
            raise error(f"{what} must be pairs of str, not {p!r}")
    return v


def cell_to_wire(c: Cell) -> list[dict]:
    return [{"deg": l} if kind == "deg" else {"nondeg": l} for kind, l in c.intervals()]


def cell_from_wire(entries: list[dict], error: type[ValueError] = ValueError) -> Cell:
    coords = []
    for e in wire(entries, list, "a cell", error):  # each interval {"deg": l} or {"nondeg": l}
        if len(wire(e, dict, "a cell interval", error)) == 1 and "deg" in e:
            coords.append(2 * wire(e["deg"], int, "cell deg", error))
        elif len(e) == 1 and "nondeg" in e:
            coords.append(2 * wire(e["nondeg"], int, "cell nondeg", error) + 1)
        else:
            raise error(f"bad cell interval {e!r}")
    return Cell(tuple(coords))


def all_cells(grid: GridSpec) -> Iterator[Cell]:
    rng = range(-2 * grid.L, 2 * grid.L + 1)
    for coords in itertools.product(rng, repeat=grid.d):
        yield Cell(coords)


def is_face(a: Cell, b: Cell) -> bool:
    """a <= b in the face poset (a contained in the closure of b)."""
    if len(a.coords) != len(b.coords):
        return False
    for m, n in zip(a.coords, b.coords):
        if m == n:
            continue
        # a point is a face of an interval iff it is one of its endpoints
        if m % 2 == 0 and n % 2 != 0 and abs(m - n) == 1:
            continue
        return False
    return True


def _axis_faces(m: int) -> tuple[int, ...]:
    # entries <= m along one axis, m included
    return (m,) if m % 2 == 0 else (m - 1, m, m + 1)


def _axis_cofaces(m: int, L: int) -> tuple[int, ...]:
    # entries >= m along one axis, m included, clipped to the box
    if m % 2 != 0:
        return (m,)
    out = [m]
    if m - 1 >= -2 * L:
        out.append(m - 1)
    if m + 1 <= 2 * L:
        out.append(m + 1)
    return tuple(out)


def faces(c: Cell) -> frozenset[Cell]:
    """All proper faces of c.  |faces(c)| + 1 == 3^dim(c)."""
    prod = itertools.product(*(_axis_faces(m) for m in c.coords))
    return frozenset(Cell(t) for t in prod) - {c}


@functools.cache
def facets(c: Cell) -> tuple[Cell, ...]:
    """The codimension-1 faces of c: per open axis in axis order, the interval
    closed down to its lower end point, then to its upper one.  Cached: the
    cosheaf's descent asks for the facets of a cell once per face it reads."""
    co = c.coords
    return tuple(Cell(co[:a] + (e,) + co[a + 1:]) for a, m in enumerate(co) if m % 2
                 for e in (m - 1, m + 1))


def cofaces(grid: GridSpec, c: Cell) -> frozenset[Cell]:
    """All proper cofaces of c inside the grid box (boundary cells have fewer)."""
    return basic_open(grid, c) - {c}


def basic_open(grid: GridSpec, c: Cell) -> frozenset[Cell]:
    """The star of c: c together with all its cofaces.  Smallest open set containing c."""
    grid.check_cell(c)
    prod = itertools.product(*(_axis_cofaces(m, grid.L) for m in c.coords))
    return frozenset(Cell(t) for t in prod)


def closure(cells: Iterable[Cell]) -> frozenset[Cell]:
    return frozenset().union(*((c, *faces(c)) for c in cells))


def star(grid: GridSpec, cells: Iterable[Cell]) -> frozenset[Cell]:
    return frozenset().union(*(basic_open(grid, c) for c in cells))


def thicken(grid: GridSpec, cells: frozenset[Cell], n: int) -> frozenset[Cell]:
    """n-fold star-of-closure.  thicken(S, 0) == S; each round adds all faces
    of members, then all cofaces of members.  Never leaves the grid box."""
    if n < 0:
        raise ValueError("thickening level must be a natural number")
    out = frozenset(cells)
    for _ in range(n):
        out = star(grid, closure(out))
    return out


def is_open(grid: GridSpec, cells: Iterable[Cell]) -> bool:
    """True iff the set is coface-closed."""
    s = set(cells)
    for c in s:
        if not cofaces(grid, c) <= s:
            return False
    return True


def saturation_steps(grid: GridSpec, cells: frozenset[Cell]) -> int:
    """Smallest m with thicken(cells, m) == all cells of the grid.

    Computed by fixed-point iteration; for a nonempty open set this is at
    most 2L (growth is one index step per round in each axis direction).
    """
    if not cells:
        raise ValueError("saturation_steps of the empty set is undefined")
    total = grid.cell_count()
    cur = frozenset(cells)
    m = 0
    while len(cur) < total:
        nxt = star(grid, closure(cur))
        if len(nxt) == len(cur):
            raise AssertionError("thickening stalled before filling the grid")
        cur = nxt
        m += 1
    return m


def star_ring(c: Cell, t: Cell) -> int:
    """The least r with t in thicken(basic_open(c), r): the ring of t around
    c.  Per axis, a point's star spans [m-1, m+1] of the doubled coordinates,
    an interval's [m, m], and each round widens both ends by 2."""
    # a plain loop: the sweeps' scans and the radius checks call this per cell
    r = 0
    for u, m in zip(t.coords, c.coords):
        if (k := (abs(u - m) + (m & 1)) >> 1) > r:
            r = k
    return r


def star_box(grid: GridSpec, c: Cell, r: int) -> list[range]:
    """thicken(basic_open(c), r) as one range of doubled coordinates per
    axis: [m - h, m + h] with h = 2r + [m even], clipped to [-2L, 2L]."""
    top, w = 2 * grid.L, 2 * r + 1
    box = []  # a plain loop without min/max calls: one box per ring of a sweep
    for m in c.coords:
        h = w - (m & 1)
        box.append(range(m - h if m - h > -top else -top, (m + h if m + h < top else top) + 1))
    return box


def ring_cells(grid: GridSpec, c: Cell, r: int) -> Iterable[Cell]:
    """The cells t with star_ring(c, t) == r: the r-box around c minus the
    (r-1)-box."""
    return shell_cells(star_box(grid, c, r), star_box(grid, c, r - 1) if r else None)


def shell_cells(outer: list[range], inner: list[range] | None) -> Iterable[Cell]:
    """The cells of the box `outer` that are not in the box `inner`, which
    lies inside it (all of them when inner is None).  Each is listed once,
    under the first axis on which it leaves the inner box; axes before that
    one range over the inner box, axes after it over the outer one."""
    if inner is None:
        return _cells(outer)
    out: list[Cell] = []
    for a, o in enumerate(outer):
        i = inner[a]
        if o != i:
            out += _cells((*inner[:a], (*range(o.start, i.start), *range(i.stop, o.stop)),
                           *outer[a + 1:]))
    return out


def _cells(axes: Iterable[Iterable[int]]) -> Iterator[Cell]:
    # tuple.__new__ on 1-tuples builds each Cell in C, skipping the Python-level
    # NamedTuple constructor: the ring sweeps build one Cell per probe
    return map(tuple.__new__, itertools.repeat(Cell), zip(itertools.product(*axes)))


def star_saturation(grid: GridSpec, c: Cell) -> int:
    """saturation_steps(basic_open(c)): the least r at which the thickened
    star spans [-2L, 2L] on every axis."""
    return grid.L + (max(map(abs, c.coords)) + 1) // 2
