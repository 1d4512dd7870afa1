"""Robinson-triangle patches: seeds, deflation, inflation, validation.

A triangle is stored as (kind, apex, base0, base1) over exact ``CycloPoint``
vertices.  Kinds:

* ``ACUTE``  -- angles (36, 72, 72); legs are tau times the base.
* ``OBTUSE`` -- angles (108, 36, 36); the base is tau times the legs.

The order of ``base0``/``base1`` is structural, not cosmetic: deflation
splits the ``apex-base0`` leg of an acute triangle, and the base and the
``apex-base0`` leg of an obtuse one, always at the golden fraction
``tau - 1`` from the designated end.  Neighbouring triangles then subdivide
shared edges identically, which keeps every deflation generation exactly
edge-to-edge.  Seeds built here choose compatible orders; ``validate_patch``
re-checks the property on any patch.

Lengths are in edge units: the acute base has squared length 1, every leg
tau^2, the obtuse base tau^4.

A ``Patch`` is stored as arrays (coordinates, kind, chirality, parent), and
deflation, vertex numbering, validation and homothety run on them, with the
array arithmetic and exact order keys of ``exact``; ``Triangle`` is the
exact object form of one triangle, built on request.  The rim of a set of
triangles (``_rim``, ``_loops``) and the rotational order of a point set
(``_symmetry_order``) are decided here alone, for the SVG layer and the
projection scan too.  numpy is imported at first use, so importing this
module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Callable, Iterable

from .exact import (
    EPS,
    EPS1,
    ONE,
    TAU_C,
    ZERO,
    CycloPoint,
    GoldenInt,
    _fold,
    _golden_keys,
    _golden_signs,
    _max_abs,
    _Packing,
    _times,
    cross_ab,
    cross_sign,
    golden_sign,
    sq_norm_ab,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TriangleKind",
    "Triangle",
    "Patch",
    "PatchReport",
    "canonical_acute",
    "canonical_obtuse",
    "seed_sun",
    "seed_wheel",
    "seed_patch",
    "deflate_triangle",
    "deflate_patch",
    "inflate_patch",
    "homothety_rotation",
    "symmetry_order",
    "validate_patch",
    "validate_disk",
    "patch_area",
]

INV_TAU = TAU_C - ONE  # 1/tau = tau - 1


class TriangleKind(Enum):
    ACUTE = "A"
    OBTUSE = "O"


@dataclass(frozen=True, slots=True)
class Triangle:
    kind: TriangleKind
    apex: CycloPoint
    base0: CycloPoint
    base1: CycloPoint
    chirality: int
    parent: int | None = None

    @classmethod
    def make(cls, kind: TriangleKind, apex: CycloPoint, base0: CycloPoint,
             base1: CycloPoint, parent: int | None = None) -> "Triangle":
        t = cls(kind, apex, base0, base1, cross_sign(base0 - apex, base1 - apex),
                parent)
        problem = check_triangle(t)
        if problem:
            raise ValueError(problem)
        return t

    def points(self) -> tuple[CycloPoint, CycloPoint, CycloPoint]:
        return (self.apex, self.base0, self.base1)

    def leg_sq(self) -> GoldenInt:
        return (self.base0 - self.apex).sq_norm()

    def base_sq(self) -> GoldenInt:
        return (self.base1 - self.base0).sq_norm()

    def edges(self):
        return ((self.apex, self.base0), (self.apex, self.base1),
                (self.base0, self.base1))

    def area(self) -> float:
        ax, ay = self.apex.embed()
        bx, by = self.base0.embed()
        cx, cy = self.base1.embed()
        return 0.5 * abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))

    def transform(self, f: Callable[[CycloPoint], CycloPoint]) -> "Triangle":
        apex, b0, b1 = f(self.apex), f(self.base0), f(self.base1)
        return Triangle(self.kind, apex, b0, b1,
                        cross_sign(b0 - apex, b1 - apex), self.parent)


def check_triangle(t: Triangle) -> str | None:
    """Return a description of the first violated invariant, or None."""
    if t.apex == t.base0 or t.apex == t.base1 or t.base0 == t.base1:
        return f"triangle has repeated vertices: {t.points()}"
    return _shape_problem(t.kind.value, t.chirality, t.apex.coords(),
                          t.base0.coords(), t.base1.coords())


def _shape_problem(kind: str, chirality: int, a: tuple[int, ...],
                   b: tuple[int, ...], c: tuple[int, ...]) -> str | None:
    """What is wrong with the shape of the triangle of kind "A" or "O"
    with apex a, bases b, c (vertex coordinates) and this chirality: the
    rule of ``_shape_rule`` for one triangle, which names the problem."""
    u = (b[0] - a[0], b[1] - a[1], b[2] - a[2], b[3] - a[3])
    w = (c[0] - a[0], c[1] - a[1], c[2] - a[2], c[3] - a[3])
    sign = golden_sign(*cross_ab(u, w))
    if sign != chirality:
        return f"stored chirality {chirality} contradicts geometry ({sign})"
    leg = sq_norm_ab(u)
    if sq_norm_ab(w) != leg:
        return "not isosceles about its apex"
    x, y = sq_norm_ab((w[0] - u[0], w[1] - u[1], w[2] - u[2], w[3] - u[3]))
    # tau^2 * (x + y*tau) = (x + y) + (x + 2y)*tau
    if kind == "A" and leg != (x + y, x + 2 * y):
        return "acute ratio broken: leg^2 != tau^2 * base^2"
    if kind == "O" and (x, y) != (leg[0] + leg[1], leg[0] + 2 * leg[1]):
        return "obtuse ratio broken: base^2 != tau^2 * leg^2"
    return None


# Arrays of coordinates are int64 while every |coordinate| is at most B =
# _INT64_BOUND, and hold Python ints (dtype object) above it; the same array
# code runs exactly on both.  The bound makes every int64 product exact:
# differences of coordinates are at most 2B, so a cross_ab component, a sum
# of six products of differences, is at most 24 B^2, and the golden sign
# squares it: a^2 + a*b - b^2 <= 3 * (24 B^2)^2 = 1728 B^4 < 2^63 for
# B = 2^13.  Squared lengths stay below 112 B^2, deflation children below
# 7 B; integer keys (``exact._fold``, ``exact._Packing``) pick their dtype.
_INT64_BOUND = 2 ** 13


def _coord_array(rows) -> np.ndarray:
    """Integer rows as an array: int64 within the bound, else Python ints."""
    import numpy as np

    try:
        out = np.asarray(rows, dtype=np.int64)
    except OverflowError:  # beyond int64 altogether
        return np.asarray(rows, dtype=object)
    if out.size and (out.max() > _INT64_BOUND or out.min() < -_INT64_BOUND):
        return out.astype(object)
    return out


def _shape_rule(kind: np.ndarray, chirality: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """``_shape_problem`` on arrays, the one shape rule every triangle
    passes through: True for each row that it returns None for.  Row i is
    the triangle of kind[i] (0 acute, 1 obtuse) with chirality[i] and
    apex, base0, base1 at coords[i] (shape (N, 3, 4)).  The closed forms
    ``cross_ab`` and ``sq_norm_ab`` take the coordinate columns whole."""
    import numpy as np

    a, b, c = coords[:, 0].T, coords[:, 1].T, coords[:, 2].T
    u, w = b - a, c - a
    sign = _golden_signs(*cross_ab(u, w))
    leg0, leg1 = sq_norm_ab(u)
    other0, other1 = sq_norm_ab(w)
    x, y = sq_norm_ab(w - u)
    acute = (leg0 == x + y) & (leg1 == x + 2 * y)
    obtuse = (x == leg0 + leg1) & (y == leg0 + 2 * leg1)
    return ((sign == chirality) & (other0 == leg0) & (other1 == leg1)
            & np.where(kind == 1, obtuse, acute))


def deflate_triangle(t: Triangle) -> list[Triangle]:
    """Cut one triangle into homothetic children at linear scale 1/tau.

    Acute (apex A; B, C) gains the split point P on leg A-B with
    |AP| = |AB|/tau and becomes an acute plus an obtuse child; obtuse
    (apex G; A, B) gains Q on leg A-G and R on base A-B, both at the
    1/tau fraction from A, and becomes two obtuse plus one acute child.
    Parent vertices all survive as child vertices.
    """
    problem = check_triangle(t)
    if problem:
        raise ValueError(problem)
    return _children(t, t.parent)


_KINDS = (TriangleKind.ACUTE, TriangleKind.OBTUSE)  # by kind code 0, 1

# The deflation slots.  A parent's points are its apex, base0 and base1,
# then its split points, each at 1/tau of the way from one point to
# another: (a, b, c, p) for an acute parent, p on a-b; (g, a, b, q, r) for
# an obtuse one, q on a-g and r on a-b.  Each split point lies on a parent
# edge, so each child keeps (+1) or mirrors (-1) its parent's corner order:
# a child is its kind, its apex, base0 and base1 as positions in the point
# list, and that sign, by which its chirality is its parent's.
_SPLITS = {TriangleKind.ACUTE: ((0, 1),), TriangleKind.OBTUSE: ((1, 0), (1, 2))}
_SLOTS = {
    TriangleKind.ACUTE: ((TriangleKind.ACUTE, (2, 3, 1), 1),
                         (TriangleKind.OBTUSE, (3, 2, 0), 1)),
    TriangleKind.OBTUSE: ((TriangleKind.OBTUSE, (4, 2, 0), 1),
                          (TriangleKind.OBTUSE, (3, 4, 1), -1),
                          (TriangleKind.ACUTE, (4, 3, 0), -1)),
}


def _children(t: Triangle, parent: int | None) -> list[Triangle]:
    """The children of a valid triangle, each with the given parent."""
    points = [t.apex, t.base0, t.base1]
    for i, j in _SPLITS[t.kind]:
        points.append(points[i] + (points[j] - points[i]) * INV_TAU)
    return [Triangle(kind, points[a], points[b], points[c], t.chirality * sign, parent)
            for kind, (a, b, c), sign in _SLOTS[t.kind]]


@dataclass(frozen=True)
class Patch:
    """A finite triangle collection with its deflation history.

    A patch is stored as arrays: ``coords`` (N, 3, 4), each triangle's
    apex, base0 and base1; ``kind`` (0 acute, 1 obtuse); ``chirality``;
    ``parent`` (-1 for none).  ``triangles`` is the same patch as exact
    ``Triangle`` objects.  A patch made from either form builds the other
    the first time it is read.

    ``corners`` is the one numbering of the vertices, as indices into
    ``vertices``: every user of vertex numbers takes them from there, or
    from the arrays behind both, and a patch read from a document keeps the
    document's numbering."""

    triangles: tuple[Triangle, ...]
    generation: int = 0
    seed: str = ""
    ancestor: "Patch | None" = None

    @classmethod
    def _from_arrays(cls, coords: np.ndarray, kind: np.ndarray, chirality: np.ndarray,
                     parent: np.ndarray, generation: int = 0, seed: str = "",
                     ancestor: "Patch | None" = None, **known) -> "Patch":
        """A patch given as arrays, ``coords`` as ``_coord_array`` makes
        them.  Cached properties given in ``known`` (``_numbering``,
        ``vertices``, ``corners``) must be exactly what they would compute."""
        patch = object.__new__(cls)
        patch.__dict__.update(generation=generation, seed=seed, ancestor=ancestor,
                              _arrays=(coords, kind, chirality, parent), **known)
        return patch

    def __getattr__(self, name: str):
        # called only for attributes never set: a patch made from arrays
        # builds its triangles on first read
        if name != "triangles":
            raise AttributeError(name)
        coords, kind, chirality, parent = self._arrays
        rows = coords.reshape(len(kind), 12).tolist()
        tris = tuple(
            Triangle(_KINDS[k], CycloPoint(*z[:4]), CycloPoint(*z[4:8]),
                     CycloPoint(*z[8:]), s, None if p < 0 else p)
            for z, k, s, p in zip(rows, kind.tolist(), chirality.tolist(), parent.tolist()))
        self.__dict__["triangles"] = tris
        return tris

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """coords, kind, chirality and parent of ``triangles``."""
        import numpy as np

        tris = self.triangles
        coords = _coord_array([t.apex.coords() + t.base0.coords() + t.base1.coords()
                               for t in tris])
        return (coords.reshape(len(tris), 3, 4),
                np.array([t.kind is TriangleKind.OBTUSE for t in tris], dtype=np.int8),
                np.array([t.chirality for t in tris], dtype=np.int8),
                np.array([-1 if t.parent is None else t.parent for t in tris],
                         dtype=np.int64))

    @property
    def coords(self) -> np.ndarray:
        """(N, 3, 4): the coordinates of each apex, base0 and base1."""
        return self._arrays[0]

    @property
    def kind(self) -> np.ndarray:
        """(N,) int8: 0 for an acute triangle, 1 for an obtuse one."""
        return self._arrays[1]

    @property
    def chirality(self) -> np.ndarray:
        """(N,) int8: each triangle's stored chirality."""
        return self._arrays[2]

    @property
    def parent(self) -> np.ndarray:
        """(N,) int64: the index of each triangle's parent, or -1."""
        return self._arrays[3]

    @cached_property
    def _numbering(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct vertices as a (V, 4) coordinate array in
        lexicographic order, and each triangle's apex, base0 and base1 as
        indices into it, (N, 3)."""
        import numpy as np

        points = self.coords.reshape(-1, 4)
        keys = _Packing(_max_abs(points)).points(points)  # ordered like the tuples
        _, first, index = np.unique(keys, return_index=True, return_inverse=True)
        return points[first], index.reshape(-1, 3)

    @cached_property
    def vertices(self) -> tuple[CycloPoint, ...]:
        """Deduplicated vertices in lexicographic coordinate order."""
        return tuple(CycloPoint(*p) for p in self._numbering[0].tolist())

    @cached_property
    def corners(self) -> tuple[tuple[int, int, int], ...]:
        """Each triangle's (apex, base0, base1) as indices into ``vertices``."""
        return tuple(map(tuple, self._numbering[1].tolist()))

    @cached_property
    def vertex_set(self) -> frozenset[CycloPoint]:
        return frozenset(self.vertices)

    def counts(self) -> tuple[int, int]:
        obtuse = int(self.kind.sum())
        return len(self) - obtuse, obtuse

    def __len__(self) -> int:
        return len(self.kind)


def canonical_acute() -> Triangle:
    """Acute triangle: apex at the origin, legs of length tau along the
    0- and 36-degree rays."""
    return Triangle.make(TriangleKind.ACUTE, ZERO, TAU_C, TAU_C * EPS1)


def canonical_obtuse() -> Triangle:
    """Obtuse triangle: apex at the origin, legs of length tau along the
    0- and 108-degree rays."""
    return Triangle.make(TriangleKind.OBTUSE, ZERO, TAU_C, TAU_C * (EPS1 ** 3))


def seed_sun() -> Patch:
    """Ten acute triangles sharing their apex at the origin.

    Rim vertex k sits at tau * eps1^k (angle 36k degrees).  Neighbouring
    triangles are mirror images; base0 always points at an even rim vertex
    so that shared legs agree on whether deflation splits them.
    """
    rim = [TAU_C * (EPS1 ** k) for k in range(10)]
    tris = []
    for k in range(10):
        lo, hi = rim[k], rim[(k + 1) % 10]
        if k % 2 == 0:
            tris.append(Triangle.make(TriangleKind.ACUTE, ZERO, lo, hi))
        else:
            tris.append(Triangle.make(TriangleKind.ACUTE, ZERO, hi, lo))
    return Patch(tuple(tris), generation=0, seed="sun")


def seed_wheel() -> Patch:
    """Five thick rhombs around the origin, split along long diagonals.

    Rhomb k spans corners 0, A_k, A_k + A_(k+1), A_(k+1) with
    A_k = tau * eps^k; each half is an obtuse triangle whose base runs
    from the origin to the far corner, base0 at the origin on both sides.
    """
    spokes = [TAU_C * (EPS ** k) for k in range(5)]
    tris = []
    for k in range(5):
        a_k, a_next = spokes[k], spokes[(k + 1) % 5]
        far = a_k + a_next
        tris.append(Triangle.make(TriangleKind.OBTUSE, a_k, ZERO, far))
        tris.append(Triangle.make(TriangleKind.OBTUSE, a_next, ZERO, far))
    return Patch(tuple(tris), generation=0, seed="wheel")


def seed_patch(name: str) -> Patch:
    if name == "sun":
        return seed_sun()
    if name == "wheel":
        return seed_wheel()
    if name == "acute":
        return Patch((canonical_acute(),), generation=0, seed="acute")
    if name == "obtuse":
        return Patch((canonical_obtuse(),), generation=0, seed="obtuse")
    raise ValueError(f"unknown seed {name!r}; expected sun, wheel, acute or obtuse")


def deflate_patch(patch: Patch, steps: int, jobs: int = 1) -> Patch:
    """Apply `steps` rounds of deflation, recording the ancestry chain.

    The input triangles are checked once; a bad one raises ValueError.
    Later generations are derived, not re-checked: a child's chirality is
    its parent's times a fixed sign per slot, (+1, +1) for the children of
    an acute triangle and (+1, -1, -1) for those of an obtuse one, and its
    ``parent`` is the index of the triangle it came from.  `jobs` is
    accepted and ignored; deflation runs serially.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    bad = _first_bad_triangle(patch)
    if bad:
        raise ValueError(bad[1])
    out = patch
    for _ in range(steps):
        out = Patch._from_arrays(*_deflate_arrays(out.coords, out.kind, out.chirality),
                                 generation=out.generation + 1, seed=out.seed,
                                 ancestor=out)
    return out


def _deflate_arrays(coords: np.ndarray, kind: np.ndarray, chirality: np.ndarray):
    """One deflation of a patch given as arrays, by the slot tables of
    ``_children``: the children's coords, kind, chirality and parent, the
    children of each triangle in slot order, in triangle order."""
    import numpy as np

    size = 2 + kind.astype(np.int64)  # children per triangle
    first = np.cumsum(size) - size
    total = int(size.sum())
    out = np.empty((total, 3, 4), dtype=coords.dtype)
    out_kind = np.empty(total, dtype=np.int8)
    out_chirality = np.empty(total, dtype=np.int8)
    for code, parent_kind in enumerate(_KINDS):
        rows = np.flatnonzero(kind == code)
        points = [coords[rows, k] for k in range(3)]
        for i, j in _SPLITS[parent_kind]:
            points.append(points[i] + _times(points[j] - points[i], INV_TAU))
        for slot, (child_kind, (a, b, c), sign) in enumerate(_SLOTS[parent_kind]):
            at = first[rows] + slot
            out[at] = np.stack((points[a], points[b], points[c]), axis=1)
            out_kind[at] = _KINDS.index(child_kind)
            out_chirality[at] = chirality[rows] * sign
    parent = np.repeat(np.arange(len(kind), dtype=np.int64), size)
    return _coord_array(out), out_kind, out_chirality, parent


def _first_bad_triangle(patch: Patch) -> tuple[int, str] | None:
    """The first triangle of the patch that ``check_triangle`` refuses, and
    its message: the shape rule screens every row, and only the first
    failing one is built and checked again."""
    import numpy as np

    c = patch.coords
    ok = _shape_rule(patch.kind, patch.chirality, c)
    for i, j in ((0, 1), (0, 2), (1, 2)):  # no repeated vertex
        ok &= (c[:, i] != c[:, j]).any(axis=1)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    row = Patch._from_arrays(*(a[i:i + 1] for a in patch._arrays))  # that triangle alone
    return i, check_triangle(row.triangles[0])


def inflate_patch(patch: Patch, steps: int) -> Patch:
    """Undo `steps` deflations by walking the recorded ancestry.

    Only patches produced by deflate_patch carry the tree; reconstructing
    parents of an arbitrary patch is out of scope.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = patch
    for _ in range(steps):
        if out.ancestor is None:
            raise ValueError("no deflation history recorded; cannot inflate")
        out = out.ancestor
    return out


def homothety_rotation(patch: Patch, tau_exponent: int, rot72_steps: int) -> Patch:
    """Scale by tau^k and rotate by 72-degree steps about the origin.

    Exact similarity: kinds and chirality are preserved and every squared
    edge length is multiplied by tau^(2k).  The deflation ancestry is not
    carried over (ancestors would live at the old scale).
    """
    if tau_exponent < 0:
        raise ValueError("tau_exponent must be >= 0")
    factor = TAU_C ** tau_exponent * EPS ** (rot72_steps % 5)
    coords = _coord_array(_times(patch.coords, factor))
    if not _shape_rule(patch.kind, patch.chirality, coords).all():
        raise ArithmeticError("similarity flipped a chirality (internal error)")
    return Patch._from_arrays(coords, patch.kind, patch.chirality, patch.parent,
                              generation=patch.generation, seed=patch.seed)


def symmetry_order(points: Iterable[CycloPoint], center: CycloPoint = ZERO) -> int:
    """Largest n in {10, 5, 2, 1} whose 360/n-degree rotation about
    `center` maps the point set onto itself, decided exactly; 10 for the
    empty set."""
    return _symmetry_order(_coord_array([(p - center).coords() for p in points]))


def _symmetry_order(points: np.ndarray) -> int:
    """``symmetry_order`` about the origin of the set of (N, 4) coordinate
    rows, repeats allowed: a rotation maps the set onto itself exactly when
    the sorted packed images of its distinct points are their packed keys."""
    import numpy as np

    points = points.reshape(-1, 4)
    # a rotated coordinate is a coordinate or a difference of two
    pack = _Packing(2 * _max_abs(points))
    # with an index asked for, np.unique does not import numpy.ma (1.7 MB)
    keys, first = np.unique(pack.points(points), return_index=True)
    points = points[first]
    for order, factor in ((10, EPS1), (5, EPS), (2, -ONE)):
        if np.array_equal(np.sort(pack.points(points, factor)), keys):
            return order
    return 1


def patch_area(patch: Patch) -> float:
    return sum(t.area() for t in patch.triangles)


@dataclass(frozen=True)
class PatchReport:
    ok: bool
    problems: tuple[str, ...] = ()

    def first(self) -> str | None:
        return self.problems[0] if self.problems else None


# Corner angles at (apex, base0, base1) in units of 36 degrees, by kind code.
_CORNER_UNITS = ((1, 2, 2), (3, 1, 1))
_FULL_TURN = 10  # 360 degrees


def validate_patch(patch: Patch) -> PatchReport:
    """Certify exactly that the patch is an edge-to-edge tiling of a disk.

    Every test is integer or Z[tau] arithmetic; there is no tolerance:

    1. every triangle has its kind's shape and its stored chirality;
    2. no two triangles have the same three vertices;
    3. every edge has at most one triangle on each side, so at most two;
    4. corner angles (whole multiples of 36 degrees) sum to exactly 360
       degrees at each vertex off the boundary, which is made of the edges
       with one triangle, and to less at each boundary vertex;
    5. every boundary vertex has exactly two boundary edges;
    6. the boundary edges form one cycle;
    7. V - E + F = 1;
    8. the boundary is a simple polygon: two boundary edges meet at most in
       a shared endpoint and never overlap along it, by an exact sweep.

    By 3-5 the patch is a surface mapped to the plane locally injectively,
    by 5-7 that surface is a disk, and a locally injective map of a disk
    whose boundary curve is simple is an embedding.  So no two interiors
    overlap and no vertex lies inside another triangle's edge.  Patches
    that are not disks (a hole, several pieces, triangles meeting only at
    a vertex) are rejected even where no triangles overlap.

    Checks 1-3 report their first problem and stop.  Otherwise the report
    holds the first failed condition of 4-7, ending in "not a disk", and
    the first pair of boundary edges that break 8, named as an overlap of
    their triangles.  Only the boundary edges are compared pairwise.
    """
    bad = _first_bad_triangle(patch)
    if bad:
        return PatchReport(False, (f"triangle {bad[0]}: {bad[1]}",))
    return validate_disk(patch)


class _Points:
    """A (V, 4) coordinate table read as a sequence of points, each built
    when it is asked for: the validator names only a few."""

    def __init__(self, coords: np.ndarray):
        self.coords = coords

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, v: int) -> CycloPoint:
        return CycloPoint(*self.coords[v].tolist())


def validate_disk(patch: Patch) -> PatchReport:
    """Conditions 2-8 of ``validate_patch``, for a patch whose triangles
    are known to hold condition 1, such as one read from a document.
    It works on the patch's one vertex numbering and the directed edges of
    ``_rim``: a directed edge owned twice has two triangles on the same
    side, and the edges with no reverse are the boundary."""
    import numpy as np

    n = len(patch)
    if not n:
        return PatchReport(True)
    table, corners = patch._numbering
    points = _Points(table)
    tail, head, twice, rim = _rim(corners, patch.chirality, len(table), np.zeros(n, np.int64))
    if twice:
        e, j = twice
        if set(corners[j].tolist()) == set(corners[e // 3].tolist()):
            problem = f"triangle {e // 3} duplicates triangle {j}"
        else:
            problem = (f"triangles {[j, e // 3]} lie on the same side of shared "
                       f"edge {points[int(tail[e])]}-{points[int(head[e])]}")
        return PatchReport(False, (problem,))
    boundary = np.stack((tail[rim], head[rim]), axis=1)
    angle = np.bincount(corners.ravel(), minlength=len(table),
                        weights=np.array(_CORNER_UNITS)[patch.kind].ravel())

    problems = []
    n_edges = (len(tail) + len(rim)) // 2
    topology = _topology_problem(points, angle.astype(np.int64), boundary, n_edges, n)
    if topology:
        problems.append(f"{topology}: not a disk")
    crossing = _boundary_crossing(points, boundary, rim // 3)
    if crossing:
        problems.append(crossing)
    return PatchReport(not problems, tuple(problems))


def _rim(corners: np.ndarray, chirality: np.ndarray, v: int, group: np.ndarray):
    """The directed edges of triangles (rows of vertex indices below v)
    and the rim of each group of triangles (one group id per triangle).

    Edge k of triangle i, at position 3i + k, runs from corner k to the
    next, counter-clockwise by the chirality.  One stable sort of the edges
    packed as (group, lower vertex, upper vertex, direction) puts copies of
    a directed edge side by side, first owner first, next to its reverse.
    Returns tail, head, the first edge owned twice as (position, first
    owner) or None, and the positions, in order, of the rim: the edges
    whose reverse no triangle of their group owns."""
    import numpy as np

    ccw = np.where((chirality < 0)[:, None], corners[:, [0, 2, 1]], corners)
    tail, head, group = ccw.ravel(), ccw[:, [1, 2, 0]].ravel(), np.repeat(group, 3)
    keys = _fold((group, np.minimum(tail, head), np.maximum(tail, head), tail > head),
                 (v, v, 2))
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    same = ranked[1:] == ranked[:-1]
    twice = None
    if same.any():
        e = int(order[1:][same].min())  # the first edge already owned
        twice = e, int(order[np.searchsorted(ranked, keys[e])]) // 3
    # whether each sorted edge and the next are an edge and its reverse
    paired = np.diff(ranked >> 1, append=-1) == 0
    return tail, head, twice, np.sort(order[~(paired | np.roll(paired, 1))])


def _loops(tail: np.ndarray, head: np.ndarray, group: np.ndarray):
    """The closed walks over directed edges in which each vertex of a group
    has as many exits as entries, by group, as arrays: each loop's group,
    the L + 1 offsets at which the loops start in one flat array of their
    vertices, and that array.  A walk stays in its group, starts at the
    group's smallest vertex with an unused exit and leaves every vertex by
    its smallest unused exit.

    In a group where every vertex has one exit, the walks are the cycles of
    the map from each exit to the next one, found on arrays: each exit is
    labelled by the least exit of its cycle and counts its steps to the
    cycle's end, both by pointer doubling, and one sort lays the cycles
    out by label, each from its least exit.  A group with a vertex of
    several exits is walked one exit at a time."""
    import numpy as np

    n = len(tail)
    v = int(max(tail.max(initial=0), head.max(initial=0))) + 1
    exits = np.argsort(_fold((group, tail, head), (v, v)), kind="stable")
    g, t = group[exits], tail[exits]
    # a vertex of a group is named by the position p of its first exit:
    # at[p] is its next unused exit and each later exit q keeps at[q] = p,
    # so at[at[p]] == p while p has one (never at q: p has none by then)
    first = (np.diff(g, prepend=-1) | np.diff(t, prepend=-1)) != 0
    at = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    # entries sorted by (group, head) meet exits sorted by (group, tail)
    into = np.empty(n, np.int64)
    into[np.argsort(_fold((group, head), (v,)), kind="stable")] = at
    into = into[exits]
    walked = np.isin(g, g[~first])
    step = np.where(walked, np.arange(n), into)  # a walked exit stays put
    label, jump = np.arange(n), step
    while True:  # label[p]: the least of the 2^k exits from p on
        least = np.minimum(label, label[jump])
        if (least == label).all():  # then also the least of the whole cycle
            break
        label, jump = least, jump[jump]
    # steps to the cycle's end, the exit before its least one (sentinel n)
    jump = np.append(np.where(step == label, n, step), n)
    left = np.append(step != label, False).astype(np.int64)
    while (jump[:n] < n).any():
        left, jump = left + left[jump], jump[jump]
    order = np.flatnonzero(~walked)
    order = order[np.argsort(label[order] * n - left[order])]
    offsets = np.flatnonzero(np.diff(label[order], prepend=-1, append=n))
    starts = order[offsets[:-1]]
    groups, vertices = g[starts], t[order]
    if walked.any():  # walked in order of their starts, then merged by start
        cut, vertices = offsets.tolist(), vertices.tolist()
        loops = [vertices[a:b] for a, b in zip(cut, cut[1:])]
        starts, groups, g = starts.tolist(), groups.tolist(), g.tolist()
        into, t, at = into.tolist(), t.tolist(), [*at.tolist(), None]
        for start in np.flatnonzero(walked).tolist():
            while at[at[start]] == start:
                loop, p = [], start
                while p != start or not loop:
                    loop.append(t[p])
                    at[p] = k = at[p] + 1
                    p = into[k - 1]
                starts.append(start)
                groups.append(g[start])
                loops.append(loop)
        by_start = sorted(range(len(loops)), key=starts.__getitem__)
        groups = np.array(groups, np.int64)[by_start]
        loops = [loops[k] for k in by_start]
        offsets = np.array([0, *accumulate(map(len, loops))], np.int64)
        vertices = np.array(list(chain.from_iterable(loops)), np.int64)
    return groups, offsets, vertices


def _topology_problem(points, angle, boundary, n_edges: int, n_faces: int) -> str | None:
    """The first of conditions 4-7 of ``validate_patch`` that fails, given
    the V points (for messages), the angle sum at each in units of 36
    degrees, the boundary edges as (p, q) index pairs and the counts."""
    import numpy as np

    angle = np.asarray(angle)
    boundary = np.asarray(boundary, dtype=np.int64).reshape(-1, 2)
    degree = np.bincount(boundary.ravel(), minlength=len(points))
    rim = degree > 0
    full = angle == _FULL_TURN
    bad = (angle > _FULL_TURN) | (rim & full) | (~rim & ~full)
    if bad.any():
        v = int(np.argmax(bad))
        units = int(angle[v])
        if units > _FULL_TURN:
            return f"angle sum at vertex {points[v]} is {36 * units} degrees"
        if rim[v]:
            return f"angle sum at boundary vertex {points[v]} is 360 degrees"
        return f"angle sum at interior vertex {points[v]} is {36 * units} degrees"
    bad = rim & (degree != 2)
    if bad.any():
        v = int(np.argmax(bad))
        return f"boundary vertex {points[v]} has {degree[v]} boundary edges"
    # each boundary vertex now has one exit and one entry
    cycles = len(_loops(boundary[:, 0], boundary[:, 1], np.zeros(len(boundary), np.int64))[0])
    if cycles != 1:
        return f"boundary edges form {cycles} cycles"
    chi = len(points) - n_edges + n_faces
    if chi != 1:
        return f"V - E + F = {chi}"
    return None


def _boundary_crossing(points: _Points, boundary: np.ndarray, owners: np.ndarray) -> str | None:
    """Condition 8 of ``validate_patch``: the first two boundary edges that
    meet anywhere but a shared endpoint, or overlap along one.  Each
    boundary edge is a (p, q) index pair into points, owned by the
    triangle of the same position in owners.

    An exact sweep in x on the integer keys (``_golden_keys``) of 2*Re and
    Im/sin(36 deg): in the stable order of the edges' least x, each edge is
    paired with the later ones whose boxes meet its own, and the pair named
    is the meeting pair with the least later edge, then the least earlier.
    Two edges meet when they cross properly, or when an end of one lies on
    the other's line strictly between its ends in x (in y if it is upright).
    """
    import numpy as np

    coords = points.coords[boundary]  # (B, 2, 4)
    z0, z1, z2, z3 = np.moveaxis(coords, 2, 0)
    x, y = _golden_keys(2 * z0 - z1, z1 - z2 - z3), _golden_keys(z2 - z3, z1)
    order = np.argsort(x.min(axis=1), kind="stable")
    x0, x1 = x.min(axis=1)[order], x.max(axis=1)[order]
    y0, y1 = y.min(axis=1)[order], y.max(axis=1)[order]
    # each edge against the later ones whose least x is at most its greatest
    count = np.searchsorted(x0, x1, side="right") - np.arange(len(x0)) - 1
    early = np.repeat(np.arange(len(x0)), count)
    late = early + 1 + np.arange(len(early)) - (np.cumsum(count) - count)[early]
    near = (y1[early] >= y0[late]) & (y1[late] >= y0[early])
    early, late = early[near], late[near]
    # the ends r, s of each earlier edge and p, q of each later one
    r, s, p, q = ((coords[e, k], x[e, k], y[e, k])
                  for e in (order[early], order[late]) for k in (0, 1))

    def side(a, b, c) -> np.ndarray:  # the sign of (b - a) x (c - a)
        return _golden_signs(*cross_ab((b[0] - a[0]).T, (c[0] - a[0]).T))

    def inside(a, b, c, sign: np.ndarray) -> np.ndarray:  # c strictly inside ab
        upright = a[1] == b[1]
        lo, hi, at = (np.where(upright, end[2], end[1]) for end in (a, b, c))
        return (sign == 0) & (((lo < at) & (at < hi)) | ((hi < at) & (at < lo)))

    sr, ss, sp, sq = side(p, q, r), side(p, q, s), side(r, s, p), side(r, s, q)
    meet = (((sr * ss < 0) & (sp * sq < 0)) | inside(p, q, r, sr) | inside(p, q, s, ss)
            | inside(r, s, p, sp) | inside(r, s, q, sq))
    if not meet.any():
        return None
    first = np.flatnonzero(meet)[np.lexsort((early[meet], late[meet]))[0]]
    e, f = order[early[first]], order[late[first]]
    r, s, p, q = (points[int(boundary[g, k])] for g in (e, f) for k in (0, 1))
    return (f"boundary edges {r}-{s} and {p}-{q} meet away from a shared vertex: "
            f"triangles {owners[e]} and {owners[f]} overlap")
