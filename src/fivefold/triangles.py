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

import math
from dataclasses import dataclass, replace
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
    cross_sign,
    dot2,
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
    "patch_area",
]

TAU = GoldenInt(0, 1)
TAU2 = GoldenInt(1, 1)
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
        chir = cross_sign(base0 - apex, base1 - apex)
        if chir == 0:
            raise ValueError("degenerate triangle: collinear vertices")
        t = cls(kind, apex, base0, base1, chir, parent)
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
    leg0 = (t.base0 - t.apex).sq_norm()
    leg1 = (t.base1 - t.apex).sq_norm()
    if leg0 != leg1:
        return f"triangle is not isoceles about its apex: {leg0} != {leg1}"
    base = (t.base1 - t.base0).sq_norm()
    if t.kind is TriangleKind.ACUTE:
        if leg0 != base * TAU2:
            return f"acute ratio broken: leg^2 {leg0} != tau^2 * base^2 {base * TAU2}"
    else:
        if base != leg0 * TAU2:
            return f"obtuse ratio broken: base^2 {base} != tau^2 * leg^2 {leg0 * TAU2}"
    chir = cross_sign(t.base0 - t.apex, t.base1 - t.apex)
    if chir == 0:
        return f"degenerate triangle: {t.points()}"
    if chir != t.chirality:
        return f"stored chirality {t.chirality} contradicts geometry ({chir})"
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
    if t.kind is TriangleKind.ACUTE:
        a, b, c = t.apex, t.base0, t.base1
        p = a + (b - a) * INV_TAU
        return [
            Triangle(TriangleKind.ACUTE, c, p, b,
                     cross_sign(p - c, b - c), t.parent),
            Triangle(TriangleKind.OBTUSE, p, c, a,
                     cross_sign(c - p, a - p), t.parent),
        ]
    g, a, b = t.apex, t.base0, t.base1
    q = a + (g - a) * INV_TAU
    r = a + (b - a) * INV_TAU
    return [
        Triangle(TriangleKind.OBTUSE, r, b, g,
                 cross_sign(b - r, g - r), t.parent),
        Triangle(TriangleKind.OBTUSE, q, r, a,
                 cross_sign(r - q, a - q), t.parent),
        Triangle(TriangleKind.ACUTE, r, q, g,
                 cross_sign(q - r, g - r), t.parent),
    ]


@dataclass(frozen=True)
class Patch:
    """A finite triangle collection with its deflation history."""

    triangles: tuple[Triangle, ...]
    generation: int = 0
    seed: str = ""
    ancestor: "Patch | None" = None

    @cached_property
    def vertices(self) -> tuple[CycloPoint, ...]:
        """Deduplicated vertices in lexicographic coordinate order."""
        seen = {p.coords(): p for t in self.triangles for p in t.points()}
        return tuple(seen[c] for c in sorted(seen))

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


def _deflate_once(patch: Patch, jobs: int = 1) -> Patch:
    tris = patch.triangles

    def expand(chunk: tuple[int, int]) -> list[Triangle]:
        lo, hi = chunk
        out = []
        for idx in range(lo, hi):
            for child in deflate_triangle(tris[idx]):
                out.append(replace(child, parent=idx))
        return out

    if jobs <= 1 or len(tris) < 256:
        children = expand((0, len(tris)))
    else:
        from concurrent.futures import ThreadPoolExecutor

        step = (len(tris) + jobs - 1) // jobs
        chunks = [(lo, min(lo + step, len(tris))) for lo in range(0, len(tris), step)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(expand, chunks))
        # ordered concatenation keeps the result independent of worker count
        children = [t for part in parts for t in part]
    return Patch(tuple(children), generation=patch.generation + 1,
                 seed=patch.seed, ancestor=patch)


def deflate_patch(patch: Patch, steps: int, jobs: int = 1) -> Patch:
    """Apply `steps` rounds of deflation, recording the ancestry chain."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = patch
    for _ in range(steps):
        out = _deflate_once(out, jobs=jobs)
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


class _Grid:
    """Uniform hash grid over embedded coordinates."""

    def __init__(self, cell: float):
        self.cell = cell
        self.cells: dict[tuple[int, int], list[int]] = {}

    def key(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self.cell)), int(math.floor(y / self.cell)))

    def insert_box(self, idx: int, xlo, ylo, xhi, yhi) -> None:
        kx0, ky0 = self.key(xlo, ylo)
        kx1, ky1 = self.key(xhi, yhi)
        for kx in range(kx0, kx1 + 1):
            for ky in range(ky0, ky1 + 1):
                self.cells.setdefault((kx, ky), []).append(idx)

    def query_box(self, xlo, ylo, xhi, yhi) -> set[int]:
        kx0, ky0 = self.key(xlo, ylo)
        kx1, ky1 = self.key(xhi, yhi)
        out: set[int] = set()
        for kx in range(kx0, kx1 + 1):
            for ky in range(ky0, ky1 + 1):
                out.update(self.cells.get((kx, ky), ()))
        return out


def _interiors_overlap(tri_a, tri_b, eps: float) -> bool:
    """Separating-axis test for two float triangles; touching within eps
    does not count as overlap."""
    for poly1, poly2 in ((tri_a, tri_b), (tri_b, tri_a)):
        for i in range(3):
            x0, y0 = poly1[i]
            x1, y1 = poly1[(i + 1) % 3]
            nx, ny = y1 - y0, x0 - x1
            slack = eps * math.hypot(nx, ny)
            proj1 = [nx * x + ny * y for x, y in poly1]
            proj2 = [nx * x + ny * y for x, y in poly2]
            if min(proj1) >= max(proj2) - slack or min(proj2) >= max(proj1) - slack:
                return False  # separated (or merely touching) along this axis
    return True


def validate_patch(patch: Patch) -> PatchReport:
    """Check triangle invariants, exact edge-to-edge sharing, and float
    interior disjointness (tolerance 1e-9 of the shortest edge)."""
    problems: list[str] = []
    tris = patch.triangles
    if not tris:
        return PatchReport(True)

    for i, t in enumerate(tris):
        msg = check_triangle(t)
        if msg:
            problems.append(f"triangle {i}: {msg}")
            break

    seen_keys: dict[tuple, int] = {}
    for i, t in enumerate(tris):
        key = tuple(sorted(p.coords() for p in t.points()))
        if key in seen_keys:
            problems.append(f"triangle {i} duplicates triangle {seen_keys[key]}")
            break
        seen_keys[key] = i

    # Exact edge sharing: an edge joins at most two triangles, on opposite sides.
    edge_map: dict[tuple, list[int]] = {}
    for i, t in enumerate(tris):
        for p, q in t.edges():
            key = (p.coords(), q.coords()) if p.coords() <= q.coords() else (q.coords(), p.coords())
            edge_map.setdefault(key, []).append(i)
    for key, owners in edge_map.items():
        if len(owners) > 2:
            problems.append(f"edge {key} shared by {len(owners)} triangles")
            break
        if len(owners) == 2:
            p = CycloPoint(*key[0])
            q = CycloPoint(*key[1])
            sides = []
            for i in owners:
                third = next(v for v in tris[i].points() if v != p and v != q)
                sides.append(cross_sign(q - p, third - p))
            if sides[0] == sides[1]:
                problems.append(
                    f"triangles {owners} lie on the same side of shared edge {key}")
                break

    # Geometry caches for the float stages.
    embedded = [tuple(p.embed() for p in t.points()) for t in tris]
    min_edge = math.sqrt(min(
        min(t.leg_sq().embed(), t.base_sq().embed()) for t in tris))
    eps = 1e-9 * min_edge

    # No vertex may sit in the interior of another triangle's edge.
    verts = patch.vertices
    vgrid = _Grid(cell=max(min_edge, 1e-9))
    vxy = []
    for vi, v in enumerate(verts):
        x, y = v.embed()
        vxy.append((x, y))
        vgrid.insert_box(vi, x, y, x, y)
    stop = False
    for (p, q), owners in edge_map.items():
        if stop:
            break
        x0, y0 = CycloPoint(*p).embed()
        x1, y1 = CycloPoint(*q).embed()
        pad = 1e-6 * min_edge
        for vi in vgrid.query_box(min(x0, x1) - pad, min(y0, y1) - pad,
                                  max(x0, x1) + pad, max(y0, y1) + pad):
            x, y = vxy[vi]
            dx, dy = x1 - x0, y1 - y0
            ll = dx * dx + dy * dy
            s = ((x - x0) * dx + (y - y0) * dy) / ll
            if s <= 0.0 or s >= 1.0:
                continue
            dist2 = (x - x0 - s * dx) ** 2 + (y - y0 - s * dy) ** 2
            if dist2 > pad * pad:
                continue
            if _point_on_open_segment(verts[vi], CycloPoint(*p), CycloPoint(*q)):
                problems.append(
                    f"vertex {verts[vi]} lies mid-edge on {p}-{q} "
                    f"(triangles {owners}): not edge-to-edge")
                stop = True
                break

    # Pairwise interior disjointness on grid-filtered candidate pairs.
    tgrid = _Grid(cell=2.0 * math.sqrt(max(t.leg_sq().embed() for t in tris)))
    boxes = []
    for i, pts in enumerate(embedded):
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        box = (min(xs), min(ys), max(xs), max(ys))
        boxes.append(box)
        tgrid.insert_box(i, *box)
    checked: set[tuple[int, int]] = set()
    stop = False
    for i in range(len(tris)):
        if stop:
            break
        for j in tgrid.query_box(*boxes[i]):
            if j <= i or (i, j) in checked:
                continue
            checked.add((i, j))
            bi, bj = boxes[i], boxes[j]
            if bi[2] < bj[0] - eps or bj[2] < bi[0] - eps \
                    or bi[3] < bj[1] - eps or bj[3] < bi[1] - eps:
                continue
            if _interiors_overlap(embedded[i], embedded[j], eps):
                problems.append(f"triangles {i} and {j} overlap")
                stop = True
                break

    return PatchReport(not problems, tuple(problems))
