"""Regrouping triangle patches into composite tiles.

A composite template is a fixed set of triangles in a canonical pose;
``detect_composites`` claims groups greedily, matching templates under the
20 exact plane isometries that fix the decagonal direction set (10
rotations by 36 degrees, each optionally composed with complex
conjugation) plus an exact translation.  Matching never backtracks and the
iteration order is canonical, so grouping is deterministic.

Matching runs on plain integers.  Each triangle packs into one integer key
in a balanced mixed radix derived from the coordinate bound of the data at
hand, so equal keys mean equal triangles and translation is integer
addition.  A lazily cached pose table, one per (template, scale exponent),
holds the 20 posed, scaled copies of each template relative to its anchor
apex.  ``detect_composites`` probes it with one integer add per template
triangle; ``verify_grouping`` translates the recorded pose by the recorded
shift and compares triangle sets exactly.

Template geometry: the rhombs, deltoid, trapezoid and boat follow from the
shape definitions directly.  The pentagon dissections cannot be chosen
freely (a pentagon with side equal to the triangle leg admits no
edge-to-edge dissection at all); the frozen data below is the dissection
that actually occurs in deflated wheel patches, harvested once with an
exhaustive search.  Its pentagon side is (2+tau) times the triangle leg;
the big pentagon is its tau-fold deflation image, giving the side ratio
tau between the two pentagon kinds.  A pentagram point is the acute-shaped
union with base equal to the pentagon side, harvested the same way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Iterable, NamedTuple, Sequence

from .exact import ONE, ROT36, TAU_C, ZERO, CycloPoint, GoldenInt, sq_norm_ab
from .triangles import (
    Patch,
    Triangle,
    TriangleKind,
    canonical_acute,
    canonical_obtuse,
    deflate_triangle,
)

__all__ = [
    "CompositeKind",
    "Template",
    "Isometry",
    "Group",
    "CompositeTiling",
    "templates",
    "template_fingerprint",
    "detect_composites",
    "glue_rhombs",
    "count_tiles",
    "verify_grouping",
    "POLICIES",
    "SET_A",
    "SET_B",
    "RHOMBS",
]

TAU = GoldenInt(0, 1)
TAU2 = GoldenInt(1, 1)


class CompositeKind(Enum):
    THICK_RHOMB = "ThickRhomb"
    THIN_RHOMB = "ThinRhomb"
    DELTOID = "Deltoid"
    TRAPEZOID = "Trapezoid"
    PENTAGON_BIG = "PentagonBig"
    PENTAGON_SMALL = "PentagonSmall"
    PENTAGRAM = "Pentagram"
    BOAT = "Boat"
    ACUTE_TRIANGLE = "AcuteTriangle"
    OBTUSE_TRIANGLE = "ObtuseTriangle"


SINGLETON_KINDS = (CompositeKind.ACUTE_TRIANGLE, CompositeKind.OBTUSE_TRIANGLE)

SET_A = (CompositeKind.PENTAGRAM, CompositeKind.BOAT, CompositeKind.PENTAGON_BIG,
         CompositeKind.THICK_RHOMB, CompositeKind.THIN_RHOMB)
SET_B = (CompositeKind.PENTAGON_BIG, CompositeKind.PENTAGON_SMALL,
         CompositeKind.TRAPEZOID, CompositeKind.THICK_RHOMB,
         CompositeKind.ACUTE_TRIANGLE)
RHOMBS = (CompositeKind.THIN_RHOMB, CompositeKind.THICK_RHOMB, CompositeKind.DELTOID)
POLICIES = {"seta": SET_A, "setb": SET_B, "rhombs": RHOMBS}

# Pentagon dissection as found in deflated wheel patches, normalized so the
# first pentagon corner is the origin and the first side points along the
# positive x axis.  Units: triangle legs have length tau (generation 0).
_SMALL55_RAW = """
A    0  0 -1 -1    0  1  0 -1    1  1  0 -1
A    0  0 -1 -1    1  1 -1 -1    1  1  0 -1
A    1  2  1 -1    0  1  0 -1    1  1  0 -1
A    1  2  1 -1    1  2  2  0    1  3  2  0
A    1  3  3  1    1  2  2  0    1  3  2  0
A    1  3  3  1    2  4  3  1    1  3  2  0
A    2  1 -2 -3    2  1 -1 -2    2  2 -1 -2
A    2  1 -2 -3    2  2 -1 -3    2  2 -1 -2
A    2  2  0 -1    1  1 -1 -1    1  1  0 -1
A    2  2  0 -1    2  1 -1 -2    2  2 -1 -2
A    2  3  0 -2    2  2 -1 -3    2  2 -1 -2
A    2  3  0 -2    3  4  0 -2    3  4  1 -2
A    2  4  2  0    2  4  3  1    1  3  2  0
A    2  4  2  0    2  5  3  0    3  5  3  0
A    3  4  2 -1    3  5  3 -1    3  5  3  0
A    3  4  2 -1    4  5  2 -1    3  4  1 -2
A    3  6  4  0    2  5  3  0    3  5  3  0
A    3  6  4  0    3  5  3 -1    3  5  3  0
A    4  5  1 -2    3  4  0 -2    3  4  1 -2
A    4  5  1 -2    4  5  2 -1    3  4  1 -2
O    0  0  0  0    0  0 -1 -1    0  1  1  0
O    0  1  0 -1    0  0 -1 -1    0  1  1  0
O    0  1  0 -1    1  2  1 -1    0  1  1  0
O    1  0 -3 -3    2  1 -2 -3    1  0 -2 -2
O    1  1 -1 -1    0  0 -1 -1    1  0 -2 -2
O    1  1 -1 -1    2  2  0 -1    1  0 -2 -2
O    1  2  1 -1    2  3  1 -1    1  1  0 -1
O    1  2  1 -1    2  3  1 -1    1  3  2  0
O    1  2  2  0    1  2  1 -1    0  1  1  0
O    1  2  2  0    1  3  3  1    0  1  1  0
O    1  4  4  1    1  3  3  1    2  5  4  1
O    2  1 -1 -2    2  1 -2 -3    1  0 -2 -2
O    2  1 -1 -2    2  2  0 -1    1  0 -2 -2
O    2  2 -1 -3    2  1 -2 -3    3  3 -1 -3
O    2  2 -1 -3    2  3  0 -2    3  3 -1 -3
O    2  2  0 -1    2  3  1 -1    1  1  0 -1
O    2  2  0 -1    2  3  1 -1    2  2 -1 -2
O    2  3  0 -2    2  3  1 -1    2  2 -1 -2
O    2  3  0 -2    2  3  1 -1    3  4  1 -2
O    2  4  2  0    2  3  1 -1    1  3  2  0
O    2  4  2  0    2  3  1 -1    3  5  3  0
O    2  4  3  1    1  3  3  1    2  5  4  1
O    2  4  3  1    2  4  2  0    2  5  4  1
O    2  5  3  0    2  4  2  0    2  5  4  1
O    2  5  3  0    3  6  4  0    2  5  4  1
O    3  4  0 -2    2  3  0 -2    3  3 -1 -3
O    3  4  0 -2    4  5  1 -2    3  3 -1 -3
O    3  4  2 -1    2  3  1 -1    3  4  1 -2
O    3  4  2 -1    2  3  1 -1    3  5  3  0
O    3  5  3 -1    3  4  2 -1    4  6  3 -1
O    3  5  3 -1    3  6  4  0    4  6  3 -1
O    4  4  0 -3    4  5  1 -2    3  3 -1 -3
O    4  5  2 -1    3  4  2 -1    4  6  3 -1
O    4  5  2 -1    4  5  1 -2    4  6  3 -1
O    4  7  4  0    3  6  4  0    4  6  3 -1
"""

# Acute-shaped union with base (2+tau) * leg, harvested the same way; this
# is a pentagram point.  Base from the origin along +x, apex below the axis.
_POINT25_RAW = """
A   -3 -7 -7 -3   -2 -6 -6 -3   -3 -6 -6 -3
A   -2 -5 -5 -3   -2 -6 -6 -3   -3 -6 -6 -3
A   -2 -5 -5 -3   -2 -5 -6 -4   -1 -4 -5 -3
A   -1 -3 -4 -2   -1 -3 -5 -3   -1 -4 -5 -3
A   -1 -3 -4 -2    0 -2 -3 -2   -1 -2 -3 -2
A    0 -1 -2 -2    0 -2 -3 -2   -1 -2 -3 -2
A    0 -1 -2 -2    0 -1 -3 -3    1  0 -2 -2
A    0  0 -1 -1   -1 -1 -2 -1   -1 -1 -1 -1
A    0  0 -1 -1    0  0  0  0   -1 -1 -1 -1
A    1  0 -3 -3    0 -1 -3 -3    1  0 -2 -2
O   -2 -5 -5 -3   -2 -4 -4 -2   -3 -6 -6 -3
O   -2 -5 -5 -3   -2 -4 -4 -2   -1 -4 -5 -3
O   -2 -3 -3 -2   -2 -4 -4 -2   -1 -2 -3 -2
O   -2 -3 -3 -2   -2 -2 -2 -1   -1 -2 -3 -2
O   -1 -3 -5 -3   -1 -3 -4 -2    0 -2 -4 -3
O   -1 -3 -4 -2   -2 -4 -4 -2   -1 -4 -5 -3
O   -1 -3 -4 -2   -2 -4 -4 -2   -1 -2 -3 -2
O   -1 -1 -2 -1   -2 -2 -2 -1   -1 -2 -3 -2
O   -1 -1 -2 -1    0  0 -1 -1   -1 -2 -3 -2
O    0 -2 -3 -2   -1 -3 -4 -2    0 -2 -4 -3
O    0 -2 -3 -2    0 -1 -2 -2    0 -2 -4 -3
O    0 -1 -3 -3    0 -1 -2 -2    0 -2 -4 -3
O    0 -1 -3 -3    1  0 -3 -3    0 -2 -4 -3
O    0 -1 -2 -2    0  0 -1 -1   -1 -2 -3 -2
O    0 -1 -2 -2    0  0 -1 -1    1  0 -2 -2
"""

# Side length of the harvested pentagon in generation-0 units: (2+tau)*tau.
_PENTAGON_SIDE = GoldenInt(1, 3)


def _raw_to_triangles(raw: str) -> tuple[Triangle, ...]:
    """One triangle per line: its kind, then the four coordinates of each
    of apex, base0 and base1.  The harvested data is kept as text because
    every CLI start imports this module, and tuple literals of this size
    are slow to compile; ``templates()`` parses it once, on first use."""
    out = []
    for line in raw.strip().splitlines():
        kind, *z = line.split()
        apex, b0, b1 = (CycloPoint(*map(int, z[i:i + 4])) for i in (0, 4, 8))
        out.append(Triangle.make(TriangleKind(kind), apex, b0, b1))
    return tuple(out)


def _mirror_twin_across_base(t: Triangle) -> Triangle:
    return Triangle.make(t.kind, t.base0 + t.base1 - t.apex, t.base0, t.base1)


def _sorted_parts(parts: Iterable[Triangle]) -> tuple[Triangle, ...]:
    return tuple(sorted(parts, key=lambda t: (t.kind.value, t.apex.coords(),
                                              sorted((t.base0.coords(), t.base1.coords())))))


@dataclass(frozen=True)
class Template:
    kind: CompositeKind
    parts: tuple[Triangle, ...]

    def __len__(self) -> int:
        return len(self.parts)


def _pentagon_small_parts() -> tuple[Triangle, ...]:
    return _raw_to_triangles(_SMALL55_RAW)


def _pentagon_big_parts() -> tuple[Triangle, ...]:
    out = []
    for t in _pentagon_small_parts():
        grown = t.transform(lambda p: p * TAU)
        out.extend(deflate_triangle(grown))
    return tuple(out)


def _pentagram_parts() -> tuple[Triangle, ...]:
    core = list(_pentagon_small_parts())
    point = _raw_to_triangles(_POINT25_RAW)
    parts = core
    corner = ZERO
    side = ONE * _PENTAGON_SIDE
    for k in range(5):
        rot = ROT36[(2 * k) % 10]
        for t in point:
            parts.append(t.transform(lambda p: (p * rot) + corner))
        corner = corner + side
        side = side.rotate72()
    return tuple(parts)


def _trapezoid_parts() -> tuple[Triangle, ...]:
    l0 = ZERO
    l1 = ONE * TAU2            # long base end, tau^2 along x
    l2 = CycloPoint(1, 1, 0, -1)
    l3 = TAU_C.rotate72()      # tau at 72 degrees
    mid = TAU_C                # long base split: tau + 1 = tau^2
    return (
        Triangle.make(TriangleKind.OBTUSE, mid, l0, l2),
        Triangle.make(TriangleKind.OBTUSE, l3, l0, l2),
        Triangle.make(TriangleKind.ACUTE, l2, mid, l1),
    )


def _boat_parts() -> tuple[Triangle, ...]:
    trap = list(_trapezoid_parts())
    l0 = ZERO
    l1 = ONE * TAU2
    l2 = CycloPoint(1, 1, 0, -1)
    l3 = TAU_C.rotate72()
    out_apex_mult = CycloPoint(0, -1, -1, 0)  # tau * conj(eps): outward apex
    parts = trap
    for c0, c1 in ((l1, l2), (l2, l3), (l3, l0)):
        apex = c0 + (c1 - c0) * out_apex_mult
        big = Triangle.make(TriangleKind.ACUTE, apex, c0, c1)
        parts.extend(deflate_triangle(big))
    return tuple(parts)


@cache
def templates() -> dict[CompositeKind, Template]:
    acute = canonical_acute()
    obtuse = canonical_obtuse()
    deltoid_twin = Triangle.make(TriangleKind.ACUTE, ZERO, TAU_C,
                                 (TAU_C * ROT36[1]).conj())
    table = {
        CompositeKind.THIN_RHOMB: (acute, _mirror_twin_across_base(acute)),
        CompositeKind.THICK_RHOMB: (obtuse, _mirror_twin_across_base(obtuse)),
        CompositeKind.DELTOID: (acute, deltoid_twin),
        CompositeKind.TRAPEZOID: _trapezoid_parts(),
        CompositeKind.PENTAGON_SMALL: _pentagon_small_parts(),
        CompositeKind.PENTAGON_BIG: _pentagon_big_parts(),
        CompositeKind.PENTAGRAM: _pentagram_parts(),
        CompositeKind.BOAT: _boat_parts(),
    }
    return {kind: Template(kind, _sorted_parts(parts))
            for kind, parts in table.items()}


def template_fingerprint() -> str:
    """SHA-256 over the canonical serialization of all template geometry."""
    h = hashlib.sha256()
    for kind in sorted(templates(), key=lambda k: k.value):
        h.update(kind.value.encode())
        for t in templates()[kind].parts:
            h.update(t.kind.value.encode())
            for p in t.points():
                h.update(repr(p.coords()).encode())
    return h.hexdigest()


@dataclass(frozen=True, slots=True)
class Isometry:
    """One of the 20 decagonal point isometries plus a translation:
    p -> rot36^j (conj(p) if mirror else p) + shift."""

    rot: int
    mirror: bool
    shift: CycloPoint

    def apply(self, p: CycloPoint) -> CycloPoint:
        q = p.conj() if self.mirror else p
        return q * ROT36[self.rot % 10] + self.shift


@dataclass(frozen=True)
class Group:
    kind: CompositeKind
    indices: tuple[int, ...]
    iso: Isometry | None = None


@dataclass(frozen=True)
class CompositeTiling:
    patch: Patch
    groups: tuple[Group, ...]

    def coverage(self) -> float:
        if not len(self.patch):
            return 0.0
        grouped = sum(len(g.indices) for g in self.groups
                      if g.kind not in SINGLETON_KINDS)
        return grouped / len(self.patch)


# ------------------------------------------------------------ integer keys
#
# Matching compares triangles as single integers.  A point z of Z[eps] with
# |z_i| <= B packs in balanced radix R = 2B + 1 as
# ((z0*R + z1)*R + z2)*R + z3.  On that box the packing is injective and
# orders points exactly like their coordinate tuples; it is also linear, so
# a translated point packs to the packed point plus the packed shift.  A
# triangle packs as the 13-digit number (kind, apex, lower base, upper
# base) with kind 0 for acute and 1 for obtuse: it orders triangles like
# the tuple keys (kind, apex, sorted bases) and a translation by s adds
# pack(s) * (R^8 + R^4 + 1).  Every radix below comes from a bound on all
# coordinates it will meet, so two keys are equal only for equal triangles.


def _triangle_coords(patch: Patch) -> list[list[int]]:
    """The twelve coordinates (apex, base0, base1) of each triangle."""
    return patch.coords.reshape(len(patch), 12).tolist()


def _max_abs(coords: Sequence[Sequence[int]]) -> int:
    return max(max(map(max, coords), default=0),
               -min(map(min, coords), default=0))


class _Packing:
    """Balanced radix-(2*bound+1) keys for points with |z_i| <= bound."""

    def __init__(self, bound: int):
        assert bound >= 0
        r = 2 * bound + 1
        self.radix = r
        self.r4 = r ** 4
        self.r8 = self.r4 * self.r4
        self.obtuse = self.r8 * self.r4        # the kind digit
        self.shift = self.r8 + self.r4 + 1     # translation multiplier

    def point(self, z: Sequence[int], at: int = 0) -> int:
        """The point with coordinates z[at:at + 4]."""
        r = self.radix
        return ((z[at] * r + z[at + 1]) * r + z[at + 2]) * r + z[at + 3]

    def parts(self, parts: tuple[_Part, ...]) -> list[int]:
        p = self.point
        return [obtuse * self.obtuse + p(a) * self.r8 + p(lo) * self.r4 + p(hi)
                for obtuse, a, lo, hi in parts]

    def weights(self, k: int) -> tuple[int, int, int, int]:
        """The packed point of eps^k * z as a linear form in z: the weights
        (R^3, R^2, R, 1, -(R^3+R^2+R+1)) of the five-term form
        z0 + ... + z3*eps^3 + 0*eps^4, shifted cyclically by k."""
        r = self.radix
        w = (r ** 3, r * r, r, 1, -(r ** 3 + r * r + r + 1))
        return w[k % 5], w[(k + 1) % 5], w[(k + 2) % 5], w[(k + 3) % 5]

    def frame_keys(self, coords: Sequence[Sequence[int]], obtuse: list[bool],
                   k: int) -> list[int]:
        """Triangle keys of the patch rotated by 72k degrees."""
        x0, x1, x2, x3 = self.weights(k)
        r4, r8, top = self.r4, self.r8, self.obtuse
        out = []
        for (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3), o in zip(coords, obtuse):
            a = a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3
            b = b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3
            c = c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3
            if b > c:
                b, c = c, b
            out.append(o * top + a * r8 + b * r4 + c)
        return out


def _canonical_index_order(patch: Patch) -> tuple[list[int], int]:
    """Anchor iteration order from a rotation-canonical frame.

    Among the five 72-degree rotations of the patch, take the one whose
    sorted triangle-key tuple is smallest (the first on ties), and order
    triangles by their keys in that frame.  Rotating a patch then rotates
    the order with it, which makes greedy grouping covariant under 72-degree
    rotation (up to the unavoidable ties of patches that are themselves
    5-fold symmetric).  A key is four columns (kind, apex, lower base,
    upper base), each point packed into one integer; one stable
    ``np.lexsort`` sorts each frame, and frames compare as their sorted
    tables, row by row.
    """
    import numpy as np

    coords = patch.coords
    # a rotated coordinate is a coordinate or a difference of two
    pack = _Packing(2 * max(int(coords.max(initial=0)), -int(coords.min(initial=0))))
    dtype = np.int64 if pack.r4 < 2 ** 62 else object  # each partial sum < R^4
    best = None
    for k in range(5):
        points = coords @ np.array(pack.weights(k), dtype=dtype)
        bases = points[:, 1:]
        table = np.column_stack((patch.kind, points[:, 0], bases.min(axis=1),
                                 bases.max(axis=1)))
        order = np.lexsort(table.T[::-1])
        table = table[order]
        differ = np.flatnonzero(table != best) if best is not None else None
        if best is None or len(differ) and table.flat[differ[0]] < best.flat[differ[0]]:
            best, best_order, k_star = table, order, k
    return best_order.tolist(), k_star


def _obtuse(patch: Patch) -> list[bool]:
    return patch.kind.astype(bool).tolist()


# ------------------------------------------------------------- pose table

# (obtuse, apex, lower base, upper base): one template triangle in a pose,
# as coordinates relative to the posed anchor apex, bases in tuple order
_Part = tuple[bool, tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class _Pose(NamedTuple):
    rot: int
    mirror: bool
    chirality: int        # of the anchor triangle in this pose
    anchor: CycloPoint    # posed anchor apex; a match shifts it onto a target apex
    parts: tuple[_Part, ...]


class _PoseTable(NamedTuple):
    anchor_kind: TriangleKind
    poses: tuple[_Pose, ...]  # pose (rot, mirror) at index 2*rot + mirror
    span: int                 # largest |coordinate| of a part relative to its anchor
    reach: int                # largest |coordinate| of a posed part point

    def index(self, iso: Isometry) -> int:
        return 2 * (iso.rot % 10) + bool(iso.mirror)


@cache
def _pose_table(kind: CompositeKind, exponent: int) -> _PoseTable:
    """The template of ``kind`` at scale tau^exponent in all 20 poses."""
    scale = TAU ** exponent
    parts = templates()[kind].parts
    scaled = {p: p * scale for t in parts for p in t.points()}
    poses, span, reach = [], 0, 0
    for rot in range(10):
        for mirror in (False, True):
            posed = {p: (q.conj() if mirror else q) * ROT36[rot]
                     for p, q in scaled.items()}
            anchor = posed[parts[0].apex]
            rel = {p: (q - anchor).coords() for p, q in posed.items()}
            span = max(span, _max_abs(list(rel.values())))
            reach = max(reach, _max_abs([q.coords() for q in posed.values()]))
            chirality = -parts[0].chirality if mirror else parts[0].chirality
            poses.append(_Pose(rot, mirror, chirality, anchor, tuple(
                (t.kind is TriangleKind.OBTUSE, rel[t.apex],
                 *sorted((rel[t.base0], rel[t.base1]))) for t in parts)))
    return _PoseTable(parts[0].kind, tuple(poses), span, reach)


def _patch_scale_exponent(patch: Patch) -> int:
    """m such that patch legs are tau^m times the canonical leg; raises if
    the patch is not at a tau-power scale."""
    apex, base0 = patch.coords[0, :2].tolist()
    leg = GoldenInt(*sq_norm_ab([q - p for p, q in zip(apex, base0)]))
    probe = TAU2
    if leg == probe:
        return 0
    up = probe
    down = probe
    inv2 = (TAU ** -1) ** 2
    for m in range(1, 65):
        up = up * TAU * TAU
        down = down * inv2
        if leg == up:
            return m
        if leg == down:
            return -m
    raise ValueError("patch edge length is not a tau-power of the canonical leg")


def detect_composites(patch: Patch,
                      policy: Sequence[CompositeKind]) -> CompositeTiling:
    """Greedy deterministic template matching in policy order.

    Kinds are processed in the given order; anchor triangles run in
    canonical vertex order; a group is claimed exactly when every template
    triangle is present and unclaimed under a single exact isometry.
    Unmatched triangles end as AcuteTriangle/ObtuseTriangle singletons.
    """
    if not policy:
        raise ValueError("policy must name at least one composite kind")
    n = len(patch)
    if not n:
        return CompositeTiling(patch, ())
    exponent = _patch_scale_exponent(patch)
    tables = [(kind, _pose_table(kind, exponent)) for kind in policy
              if kind not in SINGLETON_KINDS]
    coords = _triangle_coords(patch)
    obtuse = _obtuse(patch)
    chirality = patch.chirality.tolist()
    m = _max_abs(coords)
    # covers the patch (m) and every probe: an anchor apex plus a part
    # offset (m + span)
    pack = _Packing(max([m] + [m + table.span for _, table in tables]))
    order, k_star = _canonical_index_order(patch)
    index = dict(zip(pack.frame_keys(coords, obtuse, 0), range(n)))
    apex_keys = [pack.point(c) * pack.shift for c in coords]
    claimed = [False] * n
    # isometry iteration order aligned with the canonical frame, so that
    # rotating the patch rotates which candidate wins a tie
    rot_order = [(r0 - 2 * k_star) % 10 for r0 in range(10)]
    groups: list[Group] = []

    for kind, table in tables:
        by_chirality: dict[int, list] = {1: [], -1: []}
        for rot in rot_order:
            for mirror in (False, True):
                pose = table.poses[2 * rot + mirror]
                by_chirality[pose.chirality].append((pose, pack.parts(pose.parts)))
        anchor_obtuse = table.anchor_kind is TriangleKind.OBTUSE
        for i in order:
            if claimed[i] or obtuse[i] != anchor_obtuse:
                continue
            base = apex_keys[i]
            for pose, keys in by_chirality.get(chirality[i], ()):
                hit: list[int] = []
                for key in keys:
                    j = index.get(base + key)
                    if j is None or claimed[j]:
                        break
                    hit.append(j)
                else:
                    if len(set(hit)) == len(keys):
                        for j in hit:
                            claimed[j] = True
                        shift = CycloPoint(*coords[i][:4]) - pose.anchor
                        groups.append(Group(kind, tuple(sorted(hit)),
                                            Isometry(pose.rot, pose.mirror, shift)))
                        break

    return CompositeTiling(patch, tuple(groups) + _singletons(order, claimed, obtuse))


def _singletons(order: list[int], claimed: list[bool],
                obtuse: list[bool]) -> tuple[Group, ...]:
    """Each unclaimed triangle as a group of its own, in order."""
    return tuple(Group(CompositeKind.OBTUSE_TRIANGLE if obtuse[i]
                       else CompositeKind.ACUTE_TRIANGLE, (i,))
                 for i in order if not claimed[i])


def glue_rhombs(patch: Patch) -> CompositeTiling:
    """Pair mirror twins: acute across their base into thin rhombs, obtuse
    across their base into thick rhombs, and remaining acute twins across
    a leg (shared apex) into deltoids.  Scale-independent."""
    order, _ = _canonical_index_order(patch)
    rank = {i: pos for pos, i in enumerate(order)}
    corners = patch.corners
    obtuse = _obtuse(patch)
    chirality = patch.chirality.tolist()
    claimed = [False] * len(patch)
    groups: list[Group] = []

    base_map: dict[tuple[bool, int, int], list[int]] = {}
    for i, (o, (_, b0, b1)) in enumerate(zip(obtuse, corners)):
        base_map.setdefault((o, min(b0, b1), max(b0, b1)), []).append(i)
    for kind, want in ((CompositeKind.THIN_RHOMB, False),
                       (CompositeKind.THICK_RHOMB, True)):
        for i in order:
            if claimed[i] or obtuse[i] is not want:
                continue
            apex, b0, b1 = corners[i]
            twins = [j for j in base_map[(want, min(b0, b1), max(b0, b1))]
                     if j != i and not claimed[j] and corners[j][0] != apex]
            if twins:
                j = min(twins, key=rank.__getitem__)
                claimed[i] = claimed[j] = True
                groups.append(Group(kind, tuple(sorted((i, j)))))

    leg_map: dict[tuple[int, int], list[int]] = {}
    for i, (apex, b0, b1) in enumerate(corners):
        if claimed[i] or obtuse[i]:
            continue
        for b in (b0, b1):
            leg_map.setdefault((apex, b), []).append(i)
    for i in order:
        if claimed[i] or obtuse[i]:
            continue
        apex, b0, b1 = corners[i]
        partners = []
        for b in (b0, b1):
            for j in leg_map.get((apex, b), ()):
                if j != i and not claimed[j] and chirality[j] != chirality[i]:
                    partners.append(j)
        if partners:
            j = min(partners, key=rank.__getitem__)
            claimed[i] = claimed[j] = True
            groups.append(Group(CompositeKind.DELTOID, tuple(sorted((i, j)))))

    return CompositeTiling(patch, tuple(groups) + _singletons(order, claimed, obtuse))


def count_tiles(tiling: CompositeTiling) -> dict[CompositeKind, int]:
    out: dict[CompositeKind, int] = {}
    for g in tiling.groups:
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


@dataclass(frozen=True)
class GroupingReport:
    ok: bool
    problems: tuple[str, ...] = ()


def verify_grouping(tiling: CompositeTiling) -> GroupingReport:
    """Re-check the partition property and every group's geometry.

    Template groups are re-verified by translating the template's cached
    pose under the recorded isometry by the recorded shift and demanding
    exact equality of triangle sets; pair groups from glue_rhombs are
    re-verified structurally (mirror twin across the shared edge);
    singletons must be lone triangles of their kind.
    """
    problems: list[str] = []
    seen: set[int] = set()
    patch = tiling.patch
    for g in tiling.groups:
        for i in g.indices:
            if i in seen:
                problems.append(f"triangle {i} appears in two groups")
            seen.add(i)
    if seen != set(range(len(patch))):
        problems.append("groups do not cover the triangle set")

    coords = _triangle_coords(patch)
    obtuse = _obtuse(patch)
    chirality = patch.chirality.tolist()
    posed = [g for g in tiling.groups
             if g.iso is not None and g.kind not in SINGLETON_KINDS]
    if posed:
        exponent = _patch_scale_exponent(patch)
        # covers the patch and every translated posed part point
        pack = _Packing(max([_max_abs(coords)] + [
            _pose_table(g.kind, exponent).reach + max(map(abs, g.iso.shift.coords()))
            for g in posed]))
        keys = pack.frame_keys(coords, obtuse, 0)
        part_keys: dict[tuple[CompositeKind, int], list[int]] = {}
    for g in tiling.groups:
        if g.kind in SINGLETON_KINDS:
            want = g.kind is CompositeKind.OBTUSE_TRIANGLE
            if len(g.indices) != 1 or obtuse[g.indices[0]] is not want:
                problems.append(f"bad singleton group {g}")
            continue
        if g.iso is None:
            ok = _verify_pair(coords, obtuse, chirality, g)
            if not ok:
                problems.append(f"pair group failed re-verification: {g}")
            continue
        table = _pose_table(g.kind, exponent)
        at = table.index(g.iso)
        pose = table.poses[at]
        if (g.kind, at) not in part_keys:
            part_keys[g.kind, at] = pack.parts(pose.parts)
        shift = pack.point((pose.anchor + g.iso.shift).coords()) * pack.shift
        if ({keys[i] for i in g.indices}
                != {key + shift for key in part_keys[g.kind, at]}):
            problems.append(f"isometry re-verification failed for {g.kind.value} "
                            f"at indices {g.indices}")
    return GroupingReport(not problems, tuple(problems))


def _verify_pair(coords: list[list[int]], obtuse: list[bool], chirality: list[int],
                 g: Group) -> bool:
    if len(g.indices) != 2:
        return False
    i, j = g.indices
    if obtuse[i] is not obtuse[j] or chirality[i] == chirality[j]:
        return False
    apex1, apex2 = coords[i][:4], coords[j][:4]
    bases1, bases2 = ({tuple(c[4:8]), tuple(c[8:])} for c in (coords[i], coords[j]))
    if g.kind in (CompositeKind.THIN_RHOMB, CompositeKind.THICK_RHOMB):
        if obtuse[i] is not (g.kind is CompositeKind.THICK_RHOMB):
            return False
        return bases1 == bases2 and apex1 != apex2
    if g.kind is CompositeKind.DELTOID:
        if obtuse[i] or apex1 != apex2:
            return False
        return len(bases1 & bases2) == 1
    return False
