"""Cut-and-project generation of 5-fold quasilattices.

Lattice points of Z^5 are split along an orthogonal decomposition of
5-space: a 2D "physical" plane spanned by the five unit vectors projected
at 72-degree spacing, a 2D "internal" plane where the same vectors land at
144-degree spacing, and the symmetric diagonal line.  A point is accepted
when its internal + diagonal projection falls strictly inside the
acceptance window (the projected unit 5-cube, shifted by a chosen offset
gamma), and its physical projection lies within the requested radius.

The physical projection of an accepted point x equals sqrt(2/5) times the
exact plane embedding of its quasilattice reduction (x0-x4, x1-x4, x2-x4,
x3-x4), which ties this module to the exact-arithmetic one.  Its internal
projection is the same for the Galois star map eps -> eps^2, and its
diagonal projection is the integer sum of its coordinates over sqrt(5).

The window is only sqrt(5) thick along the diagonal and fits in a disc of
the internal plane.  An enumeration therefore builds its points one
coordinate-sum layer at a time, when an offset first reads that layer,
and keeps each layer with an index of its rows by star-map x.  Per offset
it visits, in the layers of the diagonal band, only the rows whose
star-map x lies within the disc's reach, and hands the float window test
those whose star-map image lies in that disc.  Both prefilters reject
only points provably outside the closed window, so every accept decision
is the float test itself.  A scan decides each offset's rotational order
exactly, on the integer rows of its accepted points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .exact import CycloPoint
from .triangles import _symmetry_order

__all__ = [
    "ProjectionBasis",
    "Window",
    "QuasiPoint",
    "ScanEntry",
    "projection_basis",
    "build_window",
    "lattice_to_cyclo",
    "generate_quasilattice",
    "scan_offset",
    "symmetric_gamma",
    "LatticeEnumeration",
]

# Strict-interior margin for window acceptance: symmetric partners of a
# boundary point see residuals equal to floating error (~1e-15), far below
# this, so acceptance decisions respect exact symmetries.
WINDOW_MARGIN = 1e-9

# Slack on the window's internal-plane circumradius in the star-map
# prefilter, far above the float error of a projected coordinate.
STAR_GUARD = 1e-6

SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class ProjectionBasis:
    par: np.ndarray    # 2x5, physical plane
    perp: np.ndarray   # 2x5, internal plane
    delta: np.ndarray  # 1x5, symmetric diagonal

    def stacked(self) -> np.ndarray:
        return np.vstack([self.par, self.perp, self.delta])

    def orthogonality_residual(self) -> float:
        q = self.stacked()
        return float(np.abs(q @ q.T - np.eye(5)).max())


def projection_basis() -> ProjectionBasis:
    k = np.arange(5)
    scale = math.sqrt(2.0 / 5.0)
    par = scale * np.vstack([np.cos(2 * np.pi * k / 5), np.sin(2 * np.pi * k / 5)])
    perp = scale * np.vstack([np.cos(4 * np.pi * k / 5), np.sin(4 * np.pi * k / 5)])
    delta = np.full((1, 5), 1.0 / math.sqrt(5.0))
    return ProjectionBasis(par, perp, delta)


@dataclass(frozen=True)
class Window:
    """Convex acceptance polytope in internal+diagonal space as half-space
    rows (unit outward normal, offset): inside means n.x + offset <= 0."""

    normals: np.ndarray
    offsets: np.ndarray
    gamma: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def shifted(self, gamma: Sequence[float]) -> "Window":
        return replace(self, gamma=tuple(float(g) for g in gamma))

    def residuals(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points) - np.asarray(self.gamma)
        return p @ self.normals.T + self.offsets

    def contains(self, points: np.ndarray, margin: float = WINDOW_MARGIN) -> np.ndarray:
        return (self.residuals(points) < -margin).all(axis=1)


def cube_vertex_projections(basis: ProjectionBasis | None = None) -> np.ndarray:
    basis = basis or projection_basis()
    corners = np.array([[(v >> i) & 1 for i in range(5)] for v in range(32)],
                       dtype=float)
    proj = np.vstack([basis.perp, basis.delta])
    return corners @ proj.T


def build_window(basis: ProjectionBasis | None = None) -> Window:
    """Acceptance window: the projected unit 5-cube, a zonotope with two parallel
    faces per pair i < j of cube edge images g_k: unit normals n = +-(g_i x g_j)
    / |g_i x g_j| and offsets -sum_k max(0, n.g_k), the cube's support along n."""
    corners = cube_vertex_projections(basis)
    gens = corners[[1, 2, 4, 8, 16]]  # g_k, the image of the k-th unit vector
    normals = np.cross(*gens[np.array(np.triu_indices(5, 1))])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.vstack([normals, -normals])
    window = Window(normals, -np.maximum(normals @ gens.T, 0.0).sum(axis=1))
    inside = window.residuals(corners) <= 1e-9
    if not inside.all():
        raise ArithmeticError("degenerate acceptance window (basis bug?)")
    return window


def lattice_to_cyclo(x: Sequence[int]) -> CycloPoint:
    """Reduce a 5D lattice point to the rank-4 quasilattice basis."""
    x0, x1, x2, x3, x4 = (int(v) for v in x)
    return CycloPoint(x0 - x4, x1 - x4, x2 - x4, x3 - x4)


@dataclass(frozen=True)
class QuasiPoint:
    lattice: tuple[int, int, int, int, int]
    cyclo: CycloPoint
    xy: tuple[float, float]


@dataclass(frozen=True)
class ScanEntry:
    gamma: tuple[float, float, float]
    order: int
    count: int


def symmetric_gamma() -> tuple[float, float, float]:
    """The fully symmetric cut: window centered on the origin.

    The projected-cube window is a zonotope centered at the image of
    (1/2,...,1/2); shifting by minus that center makes the acceptance
    domain invariant under the full 36-degree symmetry (coordinate cycling
    with sign reversal), which is the singular cut where order 10 appears.
    """
    return (0.0, 0.0, -math.sqrt(5.0) / 2.0)


def _project(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """rows @ basis.T, rounded alike for every block size: numpy hands a
    one-row product to gemv, whose rounding differs from gemm's, so a lone
    row is projected as two copies."""
    if len(rows) == 1:
        return (np.repeat(rows, 2, axis=0) @ basis.T)[:1]
    return rows @ basis.T


class LatticeEnumeration:
    """Box enumeration of Z^5 within a physical radius, with cached
    projections, reusable across window offsets.

    The points are built one coordinate-sum layer at a time, on first use,
    and each layer is kept: the diagonal projection of a point with sum s
    is s/sqrt(5), so an offset only ever reads the layers of the diagonal
    band its window spans, widened by one integer on each side.  Of those
    rows it hands the window test the ones whose star-map image lies
    within the window's internal-plane circumradius (plus STAR_GUARD) of
    the offset.  With each layer it keeps an index of its rows by
    star-map x cell, 4 bytes a row, so an offset reads only the rows in
    the cells within that reach of its x, not the whole layer."""

    def __init__(self, box: int, radius: float):
        if box < 1:
            raise ValueError("box must be >= 1")
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError("radius must be finite and positive")
        self.box = box
        self.radius = radius
        self.basis = projection_basis()
        self.window = build_window(self.basis)
        self._proj3 = np.vstack([self.basis.perp, self.basis.delta])
        # every point's first four coordinates, in lexicographic order, and
        # a zero fifth: a layer's sum fixes the fifth
        axes = [np.arange(-box, box + 1)] * 4
        self._tail = np.zeros(((2 * box + 1) ** 4, 5), dtype=np.int64)
        self._tail[:, :4] = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        self._tail_sum = self._tail.sum(axis=1)
        self._layers: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        corners = cube_vertex_projections(self.basis)
        self._depth = (float(corners[:, 2].min()), float(corners[:, 2].max()))
        reach = float(np.sqrt((corners[:, :2] ** 2).sum(axis=1)).max()) + STAR_GUARD
        self._reach_sq = reach * reach
        # a star-map image sum_k z_k perp[:, k] has |z_k| <= box, so an
        # in-plane offset farther out than this has no image within reach
        self._far = reach + box * float(np.linalg.norm(self.basis.perp, axis=0).sum())
        # star-map x cells of a quarter reach, counted from -_far: every
        # row's x lies in (-_far, _far), so there are at most 2^14 + 1
        # cells and a cell id fits in int16
        self._half = reach + STAR_GUARD
        self._per_cell = 1.0 / max(reach / 4, self._far / 2 ** 13)
        self._cells = int(self._cell(self._far)) + 1
        self._index: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def layer(self, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, par_xy, internal) of the box points with coordinate sum
        s within the physical radius, rows in lexicographic order."""
        if s not in self._layers:
            x4 = s - self._tail_sum
            keep = np.flatnonzero(np.abs(x4) <= self.box)
            rows = self._tail[keep]
            rows[:, 4] = x4[keep]
            xy = _project(rows, self.basis.par)
            near = xy[:, 0] ** 2 + xy[:, 1] ** 2 <= self.radius * self.radius
            rows, xy = rows[near], xy[near]
            internal = _project(rows, self._proj3)
            self._layers[s] = (rows, xy, internal)
            # the row positions sorted by star-map x cell, lexicographic
            # within a cell (a stable sort of int16, which numpy does by
            # radix), and where each cell starts among them
            cells = self._cell(internal[:, 0]).astype(np.int16)
            order = np.argsort(cells, kind="stable").astype(np.int32)
            counts = np.bincount(cells, minlength=self._cells)
            starts = np.concatenate(([0], np.cumsum(counts)))
            self._index[s] = (order, starts)
        return self._layers[s]

    def _cell(self, x):
        """The star-map x cell of x, rounded alike for a row and an offset,
        and so nondecreasing in x."""
        return np.floor((x + self._far) * self._per_cell)

    def accept(self, gamma: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """(rows, par_xy) of the points strictly inside the gamma-shifted
        window, in (coordinate sum, lexicographic) order.  Rows outside the
        diagonal band or the star-map disc lie outside the closed window by
        more than float error and skip the window test; the disc test reads
        only the rows the star-map x index puts within its reach, widened
        by STAR_GUARD, and keeps them in lexicographic order."""
        none = (np.empty((0, 5), dtype=np.int64), np.empty((0, 2)))
        gx, gy, gz = (float(g) for g in gamma)
        lo = SQRT5 * (gz + self._depth[0])
        hi = SQRT5 * (gz + self._depth[1])
        # a non-finite gz, or one so large that its band edge overflows, puts
        # the window past every point: the window test accepts nothing there
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return none
        # nor does one with no star-map image in reach, where dx * dx may overflow
        if not math.hypot(gx, gy) <= self._far:
            return none
        # coordinate sums lie in [-5 box, 5 box]
        first = max(math.floor(lo) - 1, -5 * self.box)
        last = min(math.ceil(hi) + 1, 5 * self.box)
        # the cells that hold every x within _half of gx, which is past the
        # reach of the disc test by far more than its float error
        left = max(int(self._cell(gx - self._half)), 0)
        right = min(int(self._cell(gx + self._half)) + 1, self._cells)
        near = []
        for s in range(first, last + 1):
            rows, xy, internal = self.layer(s)
            order, starts = self._index[s]
            pos = order[starts[left]:starts[right]]
            dx = internal[pos, 0] - gx
            dy = internal[pos, 1] - gy
            keep = np.sort(pos[dx * dx + dy * dy <= self._reach_sq])
            near.append((rows[keep], xy[keep], internal[keep]))
        if not near:
            return none
        rows, xy, internal = (np.concatenate(a) for a in zip(*near))
        inside = self.window.shifted(gamma).contains(internal)
        return rows[inside], xy[inside]


def _warn_at_box(reach: int, box: int) -> None:
    """Warn when accepted points reach the enumeration box: the box is then
    too small to guarantee every in-radius point was seen."""
    if reach >= box:
        warnings.warn(
            f"accepted points reach the enumeration box (+-{box}); "
            "increase box to saturate the radius", stacklevel=3)


def generate_quasilattice(radius: float, gamma: Sequence[float], box: int,
                          enumeration: LatticeEnumeration | None = None,
                          ) -> list[QuasiPoint]:
    """All lattice points within `radius` whose internal projection falls
    strictly inside the gamma-shifted window, sorted by lattice coordinates.

    Warns when accepted points touch the enumeration box.
    """
    enum = enumeration or LatticeEnumeration(box, radius)
    rows, xy = enum.accept(gamma)
    order = np.lexsort(rows.T[::-1])
    out = [QuasiPoint(tuple(lattice), lattice_to_cyclo(lattice), tuple(point))
           for lattice, point in zip(rows[order].tolist(), xy[order].tolist())]
    _warn_at_box(int(np.abs(rows).max(initial=0)), enum.box)
    return out


def scan_offset(path: Sequence[Sequence[float]], radius: float, box: int,
                enumeration: LatticeEnumeration | None = None) -> list[ScanEntry]:
    """Generate the quasilattice for each offset and report its measured
    rotational symmetry order, decided exactly on the accepted quasilattice
    points, about the accepted point nearest the origin.

    Warns, once, when accepted points of any offset touch the enumeration box.
    """
    if len(path) == 0:
        raise ValueError("path must contain at least one gamma")
    enum = enumeration or LatticeEnumeration(box, radius)
    out = []
    reach = 0
    for gamma in path:
        rows, xy = enum.accept(gamma)
        count = len(rows)
        if count == 0:
            out.append(ScanEntry(tuple(float(g) for g in gamma), 1, 0))
            continue
        reach = max(reach, int(np.abs(rows).max()))
        norms = (xy ** 2).sum(axis=1)
        near = np.flatnonzero(norms == norms.min())
        if len(near) > 1:
            near = near[np.lexsort(rows[near].T[::-1])[:1]]
        # the lattice_to_cyclo reduction, centred on the nearest point
        cyclo = rows[:, :4] - rows[:, 4:]
        order = _symmetry_order(cyclo - cyclo[near[0]])
        out.append(ScanEntry(tuple(float(g) for g in gamma), order, count))
    _warn_at_box(reach, enum.box)
    return out
