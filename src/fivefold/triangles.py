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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable

from .exact import (
    EPS,
    EPS1,
    TAU_C,
    ZERO,
    CycloPoint,
    GoldenInt,
    cross_ab,
    cross_sign,
    dot2,
    golden_sign,
    sq_norm_ab,
)

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

INV_TAU = GoldenInt(-1, 1)  # 1/tau = tau - 1


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
    with apex a, bases b, c (vertex coordinates) and this chirality:
    the one shape rule behind ``check_triangle`` and the document reader."""
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


def _children(t: Triangle, parent: int | None) -> list[Triangle]:
    """The children of a valid triangle, each with the given parent.

    Each split point lies on a parent edge, so each child keeps (+1) or
    mirrors (-1) its parent's corner order, a sign fixed by its slot: the
    child's chirality is the parent's times that sign.
    """
    s = t.chirality
    if t.kind is TriangleKind.ACUTE:
        a, b, c = t.apex, t.base0, t.base1
        p = a + (b - a) * INV_TAU
        return [Triangle(TriangleKind.ACUTE, c, p, b, s, parent),
                Triangle(TriangleKind.OBTUSE, p, c, a, s, parent)]
    g, a, b = t.apex, t.base0, t.base1
    q = a + (g - a) * INV_TAU
    r = a + (b - a) * INV_TAU
    return [Triangle(TriangleKind.OBTUSE, r, b, g, s, parent),
            Triangle(TriangleKind.OBTUSE, q, r, a, -s, parent),
            Triangle(TriangleKind.ACUTE, r, q, g, -s, parent)]


@dataclass(frozen=True)
class Patch:
    """A finite triangle collection with its deflation history.

    ``corners`` is the one numbering of the vertices, as indices into
    ``vertices``: every user of vertex numbers takes them from there, and
    a patch read from a document keeps the document's numbering."""

    triangles: tuple[Triangle, ...]
    generation: int = 0
    seed: str = ""
    ancestor: "Patch | None" = None

    @classmethod
    def _with_table(cls, triangles: tuple[Triangle, ...],
                    vertices: tuple[CycloPoint, ...],
                    corners: tuple[tuple[int, int, int], ...],
                    generation: int, seed: str) -> "Patch":
        """A patch whose ``vertices`` and ``corners`` are already known:
        they must be exactly what the properties would compute."""
        patch = cls(triangles, generation, seed)
        patch.__dict__.update(vertices=vertices, corners=corners)
        return patch

    @cached_property
    def vertices(self) -> tuple[CycloPoint, ...]:
        """Deduplicated vertices in lexicographic coordinate order."""
        seen = {p.coords(): p for t in self.triangles for p in t.points()}
        return tuple(seen[c] for c in sorted(seen))

    @cached_property
    def corners(self) -> tuple[tuple[int, int, int], ...]:
        """Each triangle's (apex, base0, base1) as indices into ``vertices``."""
        # coordinate tuples hash and compare in C, points in Python
        index = {p.coords(): i for i, p in enumerate(self.vertices)}
        return tuple((index[t.apex.coords()], index[t.base0.coords()],
                      index[t.base1.coords()]) for t in self.triangles)

    @cached_property
    def vertex_set(self) -> frozenset[CycloPoint]:
        return frozenset(self.vertices)

    def counts(self) -> tuple[int, int]:
        acute = sum(1 for t in self.triangles if t.kind is TriangleKind.ACUTE)
        return acute, len(self.triangles) - acute

    def __len__(self) -> int:
        return len(self.triangles)


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
    for t in patch.triangles:
        problem = check_triangle(t)
        if problem:
            raise ValueError(problem)
    out = patch
    for _ in range(steps):
        children = tuple(child for i, t in enumerate(out.triangles)
                         for child in _children(t, i))
        out = Patch(children, generation=out.generation + 1, seed=out.seed,
                    ancestor=out)
    return out


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
    tris = tuple(t.transform(lambda p: p * factor) for t in patch.triangles)
    for before, after in zip(patch.triangles, tris):
        if after.chirality != before.chirality:
            raise ArithmeticError("similarity flipped a chirality (internal error)")
    return Patch(tris, generation=patch.generation, seed=patch.seed)


def symmetry_order(points: Iterable[CycloPoint], center: CycloPoint = ZERO) -> int:
    """Largest n in {10, 5, 2, 1} whose 360/n-degree rotation about
    `center` maps the point set onto itself, decided exactly."""
    centered = frozenset(p - center for p in points)
    rotations = (
        (10, lambda p: p * EPS1),
        (5, lambda p: p.rotate72()),
        (2, lambda p: -p),
    )
    for order, rot in rotations:
        # a rotation is injective, so it maps the finite set onto itself
        # exactly when every image lands in the set: stop at the first miss
        if all(rot(p) in centered for p in centered):
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


def _point_on_open_segment(v: CycloPoint, p: CycloPoint, q: CycloPoint) -> bool:
    """Exact test: does v lie strictly between p and q on their segment?"""
    if v == p or v == q:
        return False
    d = q - p
    w = v - p
    if cross_sign(w, d) != 0:
        return False
    t = dot2(w, d)
    return t.sign() > 0 and (t - dot2(d, d)).sign() < 0


# Corner angles at (apex, base0, base1) in units of 36 degrees.
_CORNER_UNITS = {TriangleKind.ACUTE: (1, 2, 2), TriangleKind.OBTUSE: (3, 1, 1)}
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
       a shared endpoint, and never overlap along it.

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
    for i, t in enumerate(patch.triangles):
        msg = check_triangle(t)
        if msg:
            return PatchReport(False, (f"triangle {i}: {msg}",))
    return validate_disk(patch)


def validate_disk(patch: Patch) -> PatchReport:
    """Conditions 2-8 of ``validate_patch``, for a patch whose triangles
    are known to hold condition 1, such as one read from a document.
    Its maps hash the patch's one vertex numbering, ``patch.corners``."""
    tris = patch.triangles
    if not tris:
        return PatchReport(True)
    points = patch.vertices
    corners = patch.corners
    angle = [0] * len(points)
    # Directed edges run counter-clockwise around their triangle, so the
    # triangle lies to the left; the verified chirality gives the order.
    # A directed edge owned twice has two triangles on the same side.
    owner: dict[tuple[int, int], int] = {}
    for i, (t, (a, b, c)) in enumerate(zip(tris, corners)):
        ua, ub, uc = _CORNER_UNITS[t.kind]
        angle[a] += ua
        angle[b] += ub
        angle[c] += uc
        if t.chirality < 0:
            b, c = c, b
        for edge in ((a, b), (b, c), (c, a)):
            j = owner.setdefault(edge, i)
            if j != i:
                if set(corners[j]) == {a, b, c}:
                    problem = f"triangle {i} duplicates triangle {j}"
                else:
                    problem = (f"triangles {[j, i]} lie on the same side of shared "
                               f"edge {points[edge[0]]}-{points[edge[1]]}")
                return PatchReport(False, (problem,))
    boundary = [(p, q) for p, q in owner if (q, p) not in owner]

    problems = []
    n_edges = (len(owner) + len(boundary)) // 2
    topology = _topology_problem(points, angle, boundary, n_edges, len(tris))
    if topology:
        problems.append(f"{topology}: not a disk")
    crossing = _boundary_crossing(points, boundary, owner)
    if crossing:
        problems.append(crossing)
    return PatchReport(not problems, tuple(problems))


def _topology_problem(points: tuple[CycloPoint, ...], angle: list[int],
                      boundary: list[tuple[int, int]],
                      n_edges: int, n_faces: int) -> str | None:
    """The first of conditions 4-7 of ``validate_patch`` that fails."""
    degree = [0] * len(points)
    succ: dict[int, int] = {}
    for p, q in boundary:
        degree[p] += 1
        degree[q] += 1
        succ[p] = q
    for v, units in enumerate(angle):
        if units > _FULL_TURN:
            return f"angle sum at vertex {points[v]} is {36 * units} degrees"
        if degree[v]:
            if units == _FULL_TURN:
                return f"angle sum at boundary vertex {points[v]} is 360 degrees"
        elif units != _FULL_TURN:
            return (f"angle sum at interior vertex {points[v]} is "
                    f"{36 * units} degrees")
    for v, d in enumerate(degree):
        if d not in (0, 2):
            return f"boundary vertex {points[v]} has {d} boundary edges"
    # Each boundary vertex now has one outgoing and one incoming boundary
    # edge, so the successor map is a permutation: count its cycles.
    cycles = 0
    unvisited = set(succ)
    while unvisited:
        start = unvisited.pop()
        v = succ[start]
        while v != start:
            unvisited.remove(v)
            v = succ[v]
        cycles += 1
    if cycles != 1:
        return f"boundary edges form {cycles} cycles"
    chi = len(points) - n_edges + n_faces
    if chi != 1:
        return f"V - E + F = {chi}"
    return None


def _boundary_crossing(points: tuple[CycloPoint, ...], boundary: list[tuple[int, int]],
                       owner: dict[tuple[int, int], int]) -> str | None:
    """Condition 8 of ``validate_patch``: the first two boundary edges that
    meet anywhere but a shared endpoint, or overlap along one.

    A sweep in x over exact bounding boxes: 2*Re and Im/sin(36 deg) of the
    endpoints, compared as GoldenInts, limit the exact segment tests to
    edges whose boxes meet.
    """
    boxes = []
    for edge in boundary:
        p, q = points[edge[0]], points[edge[1]]
        x0, x1 = sorted((p.real2(), q.real2()))
        y0, y1 = sorted((p.imag_by_sin36(), q.imag_by_sin36()))
        boxes.append((x0, x1, y0, y1, p, q, owner[edge]))
    boxes.sort(key=lambda box: box[0])
    active: list[tuple] = []
    for box in boxes:
        x0, _, y0, y1, p, q, i = box
        active = [other for other in active if other[1] >= x0]
        for _, _, oy0, oy1, r, s, j in active:
            if oy1 >= y0 and y1 >= oy0 and _segments_meet(p, q, r, s):
                return (f"boundary edges {r}-{s} and {p}-{q} meet away from a "
                        f"shared vertex: triangles {j} and {i} overlap")
        active.append(box)
    return None


def _segments_meet(p: CycloPoint, q: CycloPoint, r: CycloPoint, s: CycloPoint) -> bool:
    """Do the distinct edges pq and rs meet anywhere but one shared
    endpoint, or overlap along it?  Exact."""
    if r in (p, q) or s in (p, q):
        v = r if r in (p, q) else s
        a = q if p == v else p
        b = s if r == v else r
        return _point_on_open_segment(a, v, b) or _point_on_open_segment(b, v, a)
    d, e = q - p, s - r
    if (cross_sign(d, r - p) * cross_sign(d, s - p) < 0
            and cross_sign(e, p - r) * cross_sign(e, q - r) < 0):
        return True
    return (_point_on_open_segment(r, p, q) or _point_on_open_segment(s, p, q)
            or _point_on_open_segment(p, r, s) or _point_on_open_segment(q, r, s))
