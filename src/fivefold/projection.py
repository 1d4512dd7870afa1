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
the internal plane.  So an enumeration lists, for each offset, the
reductions c in Z[eps] in the ellipsoid that holds the radius's disc of
the physical plane and the window's disc of the internal plane, and lifts
each to the rows of the window's diagonal band.  The ellipsoid and the
band reject only points provably outside the closed window, so every
accept decision is the float test itself.  A scan decides each offset's
rotational order exactly, on the integer rows of its accepted points,
about the one nearest the origin by the exact keys of its |c|^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .exact import CycloPoint, _golden_keys, sq_norm_ab
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

# Relative widening of the physical radius in the enumeration's ellipsoid,
# and the widening of each of its integer intervals, in lattice units: far
# above the float error of the radius test and of an interval's ends.
ENUM_GUARD = 1e-9

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
    """The points of Z^5 in a box within a physical radius, enumerated
    afresh for each window offset (gx, gy, gz).

    A row x has the physical and internal images p(c) = par[:, :4] c and
    q(c) = perp[:, :4] c of its reduction c = (x0-x4, ..., x3-x4).  A row
    the offset accepts has |p(c)| <= radius and q(c) within the window's
    internal-plane circumradius, the reach, of (gx, gy), so c lies in the
    ellipsoid Q(c) = |p(c)|^2 / R'^2 + |q(c) - (gx, gy)|^2 / reach^2 <= 2.
    R' is the radius held between the reach and the box's farthest physical
    image (a wider disc only adds rows the float tests drop, and keeps Q
    well conditioned) and widened by ENUM_GUARD.  Only constants are held:
    U, the upper Cholesky factor of Q's form, among them."""

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
        corners = cube_vertex_projections(self.basis)
        self._depth = (float(corners[:, 2].min()), float(corners[:, 2].max()))
        self._reach = float(np.hypot(corners[:, 0], corners[:, 1]).max())
        rim = box * float(np.linalg.norm(self.basis.par, axis=0).sum())
        wide = min(max(radius, self._reach), rim) * (1 + ENUM_GUARD)
        # Q(c) = |A (c - c0)|^2 for A = diag(1/R', 1/R', 1/reach, 1/reach) M,
        # c0 = M^-1 (0, 0, gx, gy) and M = (par[:, :4]; perp[:, :4]); U is
        # A's QR factor R, which keeps its precision, with a positive diagonal
        m = np.vstack([self.basis.par[:, :4], self.basis.perp[:, :4]])
        r = np.linalg.qr(m / np.repeat([wide, self._reach], 2)[:, None], mode="r")
        self._u = r * np.sign(np.diag(r))[:, None]
        self._centre = np.linalg.inv(m)[:, 2:]

    def _ellipsoid(self, c0: np.ndarray) -> np.ndarray:
        """The integer c with Q(c) <= 2 and each |c_i| <= 2 box, breadth
        first from c_3 to c_0: each partial vector leaves c_i one interval.

        A row the float tests accept has Q below 2 by about 2e-9: q lies in
        the window by its 1e-9 margin, and |p| <= radius within float
        error, far below ENUM_GUARD of R' >= reach.  The intervals, widened
        by ENUM_GUARD, miss no such row.  A row of the box has |c_i| =
        |x_i - x4| <= 2 box, so the clip drops none."""
        u, limit = self._u, 2 * self.box
        c = np.empty((1, 0), dtype=np.int64)  # the partial vectors
        budget = np.full(1, 2.0)  # what each leaves of Q's bound
        for i in range(3, -1, -1):
            # (u_ii (c_i - c0_i) + shift)^2 <= budget, shift from c_i+1...
            shift = (c - c0[i + 1:]) @ u[i, i + 1:]
            mid = c0[i] - shift / u[i, i]
            half = np.sqrt(np.maximum(budget, 0.0)) / u[i, i] + ENUM_GUARD
            lo = np.maximum(np.ceil(mid - half), -limit)
            hi = np.minimum(np.floor(mid + half), limit)
            count = np.maximum(hi - lo + 1, 0).astype(np.int64)
            parent = np.repeat(np.arange(len(c)), count)
            step = np.arange(len(parent)) - (np.cumsum(count) - count)[parent]
            ci = lo[parent].astype(np.int64) + step
            term = u[i, i] * (ci - c0[i]) + shift[parent]
            c = np.column_stack([ci, c[parent]])
            budget = budget[parent] - term * term
        return c

    def accept(self, gamma: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """(rows, par_xy) of the box points within the physical radius that
        lie strictly inside the gamma-shifted window, in no set order: each
        caller sorts what it needs.  Each c of the ellipsoid gives the one
        or two rows (c + x4, x4) whose sum s = sum(c) + 5 x4 lies in the
        window's diagonal band, widened by one on each side; those in the
        box go through the float radius test, then the float window test."""
        none = (np.empty((0, 5), dtype=np.int64), np.empty((0, 2)))
        gx, gy, gz = (float(g) for g in gamma)
        lo = SQRT5 * (gz + self._depth[0])
        hi = SQRT5 * (gz + self._depth[1])
        with np.errstate(all="ignore"):  # a huge offset's centre may overflow
            c0 = self._centre @ (gx, gy)
        # a non-finite offset, or one so large that its band edge or centre
        # overflows, puts the window past every point: the window test
        # accepts nothing there
        if not (math.isfinite(lo) and math.isfinite(hi) and np.isfinite(c0).all()):
            return none
        # coordinate sums lie in [-5 box, 5 box]
        first = max(math.floor(lo) - 1, -5 * self.box)
        last = min(math.ceil(hi) + 1, 5 * self.box)
        if first > last:
            return none
        c = np.tile(self._ellipsoid(c0), (2, 1))
        total = c.sum(axis=1)
        # the least band sum of each c's class mod 5, and the next one
        s = first + (total - first) % 5 + np.repeat([0, 5], len(c) // 2)
        x4 = (s - total) // 5
        rows = np.column_stack([c + x4[:, None], x4])
        rows = rows[(s <= last) & (np.abs(rows) <= self.box).all(axis=1)]
        xy = _project(rows, self.basis.par)
        near = xy[:, 0] ** 2 + xy[:, 1] ** 2 <= self.radius * self.radius
        rows, xy = rows[near], xy[near]
        inside = self.window.shifted(gamma).contains(_project(rows, self._proj3))
        return rows[inside], xy[inside]


def _warn_at_box(reach: int, box: int) -> None:
    """Warn when accepted points reach the enumeration box: the box is then
    too small to guarantee every in-radius point was seen."""
    if reach >= box:
        warnings.warn(
            f"accepted points reach the enumeration box (+-{box}); "
            "increase box to saturate the radius", stacklevel=3)


def _enumeration(enumeration, box: int, radius: float) -> LatticeEnumeration:
    """The enumeration given, which must be for this box and radius, or a new one."""
    if enumeration is not None and (enumeration.box, enumeration.radius) != (box, radius):
        raise ValueError(f"the enumeration is for box {enumeration.box} and radius "
                         f"{enumeration.radius}, not {box} and {radius}")
    return enumeration or LatticeEnumeration(box, radius)


def generate_quasilattice(radius: float, gamma: Sequence[float], box: int,
                          enumeration: LatticeEnumeration | None = None,
                          ) -> list[QuasiPoint]:
    """All lattice points within `radius` whose internal projection falls
    strictly inside the gamma-shifted window, sorted by lattice coordinates.

    Warns when accepted points touch the enumeration box.
    """
    enum = _enumeration(enumeration, box, radius)
    rows, xy = enum.accept(gamma)
    order = np.lexsort(rows.T[::-1])
    out = [QuasiPoint(tuple(lattice), lattice_to_cyclo(lattice), tuple(point))
           for lattice, point in zip(rows[order].tolist(), xy[order].tolist())]
    _warn_at_box(int(np.abs(rows).max(initial=0)), enum.box)
    return out


def _nearest(rows: np.ndarray) -> int:
    """The index of the row nearest the origin by the exact keys of its
    |c|^2, the lexicographically first among ties (the first least key)."""
    idx = np.lexsort(rows.T[::-1])
    keys = _golden_keys(*sq_norm_ab((rows[idx, :4] - rows[idx, 4:]).T))
    return int(idx[np.argmin(keys)])


def scan_offset(path: Sequence[Sequence[float]], radius: float, box: int,
                enumeration: LatticeEnumeration | None = None) -> list[ScanEntry]:
    """Generate the quasilattice for each offset and report its measured
    rotational symmetry order, decided exactly on the accepted quasilattice
    points, about the accepted point nearest the origin by exact |c|^2 (the
    lexicographically first row among equidistant points).

    Warns, once, when accepted points of any offset touch the enumeration box.
    """
    if len(path) == 0:
        raise ValueError("path must contain at least one gamma")
    enum = _enumeration(enumeration, box, radius)
    out = []
    reach = 0
    for gamma in path:
        rows, _ = enum.accept(gamma)
        order = 1
        if len(rows):
            reach = max(reach, int(np.abs(rows).max()))
            # the lattice_to_cyclo reduction, centred on the nearest point
            cyclo = rows[:, :4] - rows[:, 4:]
            order = _symmetry_order(cyclo - cyclo[_nearest(rows)])
        out.append(ScanEntry(tuple(float(g) for g in gamma), order, len(rows)))
    _warn_at_box(reach, enum.box)
    return out
