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

A thickened star is a box, so the hot paths use two closed forms: star_ring
for membership (the least thickening of a star that holds a cell) and
star_saturation; the set algebra is their tested reference, still imported
where the benchmark's tracer wraps it.

Interval encoding: each axis entry of a cell is a single integer m, where
m = 2l encodes the grid point l*delta and m = 2l+1 encodes the open interval
(l*delta, (l+1)*delta).  Face relations then reduce to |difference| == 1
between an even and an odd entry.
"""

from __future__ import annotations

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
        out = []
        for m in self.coords:
            if m % 2 == 0:
                out.append(("deg", m // 2))
            else:
                out.append(("nondeg", (m - 1) // 2))
        return out

    def __repr__(self) -> str:
        return "Cell(%s)" % ",".join(
            "[%d]" % (m // 2) if m % 2 == 0 else "(%d,%d)" % ((m - 1) // 2, (m + 1) // 2)
            for m in self.coords
        )


def cell(*entries: tuple[str, int] | int) -> Cell:
    """Build a cell from ("deg", l) / ("nondeg", l) pairs or raw doubled ints."""
    coords = []
    for e in entries:
        if isinstance(e, int):
            coords.append(e)
        else:
            kind, l = e
            if kind == "deg":
                coords.append(2 * l)
            elif kind == "nondeg":
                coords.append(2 * l + 1)
            else:
                raise ValueError(f"unknown interval kind {kind!r}")
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
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    def contains(self, c: Cell) -> bool:
        co = c.coords
        return len(co) == self.d and -2 * self.L <= min(co) and max(co) <= 2 * self.L

    def check_cell(self, c: Cell) -> Cell:
        if not self.contains(c):
            raise ValueError(f"cell {c!r} is not a cell of this grid")
        return c

    def cell_count(self) -> int:
        return (4 * self.L + 1) ** self.d

    def to_wire(self) -> dict:
        return {"d": self.d, "delta": float(self.delta), "L": self.L}

    @classmethod
    def from_wire(cls, obj: dict) -> "GridSpec":
        wire(obj, dict, "a grid")
        return cls(d=wire(obj["d"], int, "grid d"), delta=float(obj["delta"]),
                   L=wire(obj["L"], int, "grid L"))


def wire(v, kind: type, what: str, error: type[ValueError] = ValueError):
    """v, if JSON read it as a `kind` (dict, list, str or int); otherwise
    raises `error` naming `what`.  Types match exactly, so a bool is no int."""
    if type(v) is not kind:
        raise error(f"{what} must be {kind.__name__}, not {type(v).__name__}")
    return v


def cell_to_wire(c: Cell) -> list[dict]:
    return [{"deg": l} if kind == "deg" else {"nondeg": l} for kind, l in c.intervals()]


def cell_from_wire(entries: list[dict], grid: GridSpec | None = None) -> Cell:
    coords = []
    for e in wire(entries, list, "a cell"):
        if "deg" in wire(e, dict, "a cell interval"):
            coords.append(2 * wire(e["deg"], int, "cell deg"))
        elif "nondeg" in e:
            coords.append(2 * wire(e["nondeg"], int, "cell nondeg") + 1)
        else:
            raise ValueError(f"bad cell interval {e!r}")
    c = Cell(tuple(coords))
    if grid is not None:
        grid.check_cell(c)
    return c


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


def cofaces(grid: GridSpec, c: Cell) -> frozenset[Cell]:
    """All proper cofaces of c inside the grid box (boundary cells have fewer)."""
    grid.check_cell(c)
    prod = itertools.product(*(_axis_cofaces(m, grid.L) for m in c.coords))
    return frozenset(Cell(t) for t in prod) - {c}


def basic_open(grid: GridSpec, c: Cell) -> frozenset[Cell]:
    """The star of c: c together with all its cofaces.  Smallest open set containing c."""
    grid.check_cell(c)
    prod = itertools.product(*(_axis_cofaces(m, grid.L) for m in c.coords))
    return frozenset(Cell(t) for t in prod)


def closure(cells: Iterable[Cell]) -> frozenset[Cell]:
    out = set()
    for c in cells:
        out.add(c)
        out.update(faces(c))
    return frozenset(out)


def star(grid: GridSpec, cells: Iterable[Cell]) -> frozenset[Cell]:
    out = set()
    for c in cells:
        out.add(c)
        out.update(cofaces(grid, c))
    return frozenset(out)


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
    return max((abs(u - m) + (m & 1)) >> 1 for u, m in zip(t.coords, c.coords))


def star_saturation(grid: GridSpec, c: Cell) -> int:
    """saturation_steps(basic_open(c)): the least r at which the thickened
    star spans [-2L, 2L] on every axis."""
    return max(grid.L + (abs(m) + 1) // 2 for m in c.coords)
