"""Regrouping triangle patches into composite tiles.

A composite template is a fixed set of triangles in a canonical pose;
``detect_composites`` claims groups greedily, matching templates under the
20 exact plane isometries that fix the decagonal direction set (10
rotations by 36 degrees, each optionally composed with complex
conjugation) plus an exact translation.  Matching never backtracks and the
iteration order is canonical, so grouping is deterministic.

Matching runs on plain integers.  One routine packs the triangles of a
patch frame and of a posed template alike into one integer key each, in a
balanced mixed radix derived from the coordinate bound of the data at
hand, so equal keys mean equal triangles and translation is integer
addition.  A lazily cached pose table, one per (template, scale exponent),
holds the 20 posed, scaled copies of each template relative to its anchor
apex, posed with ``exact``'s array product and conjugation matrix.
``detect_composites`` probes it with one integer add per template
triangle; ``verify_grouping`` translates the recorded pose by the recorded
shift and compares triangle sets exactly.  One rule, ``_pair_kinds``,
decides the mirror-twin pairs of ``glue_rhombs`` and re-verifies them.

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
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .exact import (_CONJ, EPS, ONE, PHI, ROT36, TAU_C, ZERO, CycloPoint, GoldenInt, _matrix,
                    _times, sq_norm_ab)
from .triangles import (
    Patch,
    Triangle,
    TriangleKind,
    canonical_acute,
    canonical_obtuse,
    deflate_triangle,
)

if TYPE_CHECKING:
    import numpy as np

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
_BY_NAME = {kind.value: kind for kind in CompositeKind}  # a dict is faster than the call

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


def _pentagon_big_parts() -> tuple[Triangle, ...]:
    out = []
    for t in _raw_to_triangles(_SMALL55_RAW):
        grown = t.transform(lambda p: p * TAU)
        out.extend(deflate_triangle(grown))
    return tuple(out)


def _pentagram_parts() -> tuple[Triangle, ...]:
    parts = list(_raw_to_triangles(_SMALL55_RAW))
    point = _raw_to_triangles(_POINT25_RAW)
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
        CompositeKind.PENTAGON_SMALL: _raw_to_triangles(_SMALL55_RAW),
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


@dataclass(frozen=True, slots=True)
class Group:
    kind: CompositeKind
    indices: tuple[int, ...]
    iso: Isometry | None = None


@dataclass(frozen=True)
class CompositeTiling:
    """A patch and its groups, stored as a grouped ``TilingDocument``'s
    ``_group_arrays`` and each group's isometry (None but for a template
    group), or as ``groups``: either form is built from the other on read."""

    patch: Patch
    groups: tuple[Group, ...]

    @classmethod
    def _from_arrays(cls, patch: Patch, kinds: list[str], sizes: list[int], members,
                     isometries: list, order: list[int], claimed) -> CompositeTiling:
        """The groups given, then a singleton per triangle not ``claimed``, in ``order``."""
        import numpy as np

        order = np.asarray(order, dtype=np.int64)
        single = order[~np.asarray(claimed, dtype=bool)[order]]
        kinds = (*kinds, *(SINGLETON_KINDS[k].value for k in patch.kind[single].tolist()))
        offsets = np.cumsum([0, *sizes, *[1] * len(single)], dtype=np.int64)
        members = np.concatenate((np.asarray(members, dtype=np.int64), single))
        tiling = object.__new__(cls)
        tiling.__dict__.update(patch=patch, _group_arrays=(kinds, offsets, members),
                               _isometries=(*isometries, *[None] * len(single)))
        return tiling

    def __getattr__(self, name: str):
        # called only for fields never set: a tiling made from arrays
        # builds its groups on first read
        if name != "groups":
            raise AttributeError(name)
        kinds, offsets, members = self._group_arrays
        at, members = offsets.tolist(), members.tolist()
        groups = tuple(map(Group, map(_BY_NAME.__getitem__, kinds), (
            tuple(members[a:b]) for a, b in zip(at, at[1:])), self._isometries))
        self.__dict__["groups"] = groups
        return groups

    @cached_property
    def _group_arrays(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        return _grouped([(g.kind.value, g.indices) for g in self.groups])

    @cached_property
    def _isometries(self) -> tuple[Isometry | None, ...]:
        return tuple(g.iso for g in self.groups)

    def coverage(self) -> float:
        """The share of triangles outside singleton groups, one triangle each."""
        if not len(self.patch):
            return 0.0
        singles = sum(count_tiles(self).get(kind, 0) for kind in SINGLETON_KINDS)
        return (len(self._group_arrays[2]) - singles) / len(self.patch)


def _ints(values) -> np.ndarray:
    """Integers as an int64 array, or as Python ints if one is beyond int64
    (such an index is out of range anyway)."""
    import numpy as np

    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _grouped(groups: Sequence[tuple[str, Sequence[int]]]) -> tuple:
    """Group arrays (see TilingDocument) of (kind, triangle indices) pairs."""
    import numpy as np

    sizes = [len(indices) for _, indices in groups]
    return (tuple(kind for kind, _ in groups), np.array([0, *accumulate(sizes)]),
            _ints(list(chain.from_iterable(indices for _, indices in groups))))


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


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


class _Packing:
    """Balanced radix-(2*bound+1) keys for points with |z_i| <= bound."""

    def __init__(self, bound: int):
        assert bound >= 0
        r = 2 * bound + 1
        self.radix = r
        self.r4 = r ** 4
        self.r8 = self.r4 * self.r4
        self.shift = self.r8 + self.r4 + 1     # translation multiplier

    def point(self, z: Sequence[int]) -> int:
        """The point with coordinates z."""
        r = self.radix
        return ((z[0] * r + z[1]) * r + z[2]) * r + z[3]

    def weights(self, k: int) -> tuple[int, ...]:
        """The packed point of eps^k * z as a linear form in z: the matrix
        of eps^k applied to the digit weights (R^3, R^2, R, 1)."""
        r = self.radix
        return tuple(sum(z * w for z, w in zip(row, (r ** 3, r * r, r, 1)))
                     for row in _matrix(EPS ** (k % 5)))

    def table(self, coords: np.ndarray, kind: np.ndarray, k: int) -> np.ndarray:
        """(N, 4): the packed columns (kind, apex, lower base, upper base)
        of the triangles with (N, 3, 4) coordinates ``coords`` and kinds
        ``kind``, rotated by 72k degrees."""
        import numpy as np

        dtype = np.int64 if self.r4 < 2 ** 62 else object  # each partial sum < R^4
        points = coords @ np.array(self.weights(k), dtype=dtype)
        bases = points[:, 1:]
        return np.column_stack((kind, points[:, 0], bases.min(axis=1), bases.max(axis=1)))

    def keys(self, table: np.ndarray) -> list[int]:
        """Each row of a ``table`` folded into one 13-digit integer."""
        import numpy as np

        # object weights: R^12 may exceed int64, and numpy would not widen
        # a tuple of such integers to Python ints but to uint64 or float
        weights = np.array((self.r8 * self.r4, self.r8, self.r4, 1), dtype=object)
        return (table @ weights).tolist()


def _canonical_index_order(patch: Patch) -> tuple[list[int], int]:
    """Anchor iteration order from a rotation-canonical frame.

    Among the five 72-degree rotations of the patch, take the one whose
    sorted triangle-key tuple is smallest (the first on ties), and order
    triangles by their keys in that frame.  Rotating a patch then rotates
    the order with it, which makes greedy grouping covariant under 72-degree
    rotation (up to the unavoidable ties of patches that are themselves
    5-fold symmetric).  One stable ``np.lexsort`` of the packed columns
    sorts each frame, and frames compare as their sorted tables, row by row.
    """
    import numpy as np

    # a rotated coordinate is a coordinate or a difference of two
    pack = _Packing(2 * _max_abs(patch.coords))
    best = None
    for k in range(5):
        table = pack.table(patch.coords, patch.kind, k)
        order = np.lexsort(table.T[::-1])
        table = table[order]
        differ = np.flatnonzero(table != best) if best is not None else None
        if best is None or len(differ) and table.flat[differ[0]] < best.flat[differ[0]]:
            best, best_order, k_star = table, order, k
    return best_order.tolist(), k_star


def _refuse_repeats(patch: Patch) -> None:
    """Raise ValueError naming two triangles of one kind with one apex and
    one base, the first such pair in one sort of their packed corner
    numbers: grouping would count a repeated triangle twice."""
    import numpy as np

    corners = patch._numbering[1]
    v = len(patch._numbering[0])
    dtype = np.int64 if 2 * v ** 3 < 2 ** 63 else object
    apex, b0, b1 = corners.astype(dtype).T
    key = ((apex * v + np.minimum(b0, b1)) * v + np.maximum(b0, b1)) * 2 + patch.kind
    s = np.argsort(key, kind="stable")
    same = np.flatnonzero(key[s[1:]] == key[s[:-1]])
    if len(same):
        i, j = s[same[0]:same[0] + 2].tolist()
        raise ValueError(f"triangles {i} and {j} are one triangle listed twice")


# ------------------------------------------------------------- pose table


class _Pose(NamedTuple):
    rot: int
    mirror: bool
    chirality: int        # of the anchor triangle in this pose
    anchor: CycloPoint    # posed anchor apex; a match shifts it onto a target apex
    parts: np.ndarray     # (P, 3, 4): each part's corners relative to the anchor


class _PoseTable(NamedTuple):
    kind: np.ndarray          # (P,) int8: each part's kind, as Patch.kind; part 0 anchors
    poses: tuple[_Pose, ...]  # pose (rot, mirror) at index 2*rot + mirror
    span: int                 # largest |coordinate| of a part relative to its anchor
    reach: int                # largest |coordinate| of a posed part point


@cache
def _pose_table(kind: CompositeKind, exponent: int) -> _PoseTable:
    """The template of ``kind`` at scale tau^exponent in all 20 poses: its
    (P, 3, 4) corner array and that array's conjugate, for a mirror, times
    tau^exponent, then times each rotation."""
    import numpy as np

    parts = templates()[kind].parts
    corners = np.array([[p.coords() for p in t.points()] for t in parts])
    scale = TAU ** exponent  # a + b*tau = a - b*eps^2 - b*eps^3
    scaled = _times(np.stack((corners, corners @ np.array(_CONJ))),
                    CycloPoint(scale.a, 0, -scale.b, -scale.b))
    poses, span, reach = [], 0, 0
    for rot in range(10):
        for mirror, corners in zip((False, True), _times(scaled, ROT36[rot])):
            rel = corners - corners[0, 0]
            span = max(span, _max_abs(rel))
            reach = max(reach, _max_abs(corners))
            poses.append(_Pose(rot, mirror, parts[0].chirality * (-1 if mirror else 1),
                               CycloPoint(*corners[0, 0].tolist()), rel))
    kinds = np.array([t.kind is TriangleKind.OBTUSE for t in parts], dtype=np.int8)
    return _PoseTable(kinds, tuple(poses), span, reach)


def _patch_scale_exponent(patch: Patch) -> int:
    """m, |m| <= 64, such that patch legs are tau^m times the canonical leg;
    raises if there is none.  The squared leg tau^(2m+2) or its conjugate
    tau^-(2m+2), whichever has coefficients of one sign and so no
    cancellation, names m by its logarithm; one exact power checks it."""
    apex, base0 = patch.coords[0, :2].tolist()
    leg = GoldenInt(*sq_norm_ab([q - p for p, q in zip(apex, base0)]))
    x, sign = (leg, 1) if leg.a >= 0 and leg.b >= 0 else (leg.conj(), -1)
    if 0 < max(x.a, x.b).bit_length() < 128:  # neither 0 nor far past tau^130 (< 2^90)
        m = sign * round(math.log(x.embed(), PHI) / 2) - 1
        if abs(m) <= 64 and leg == TAU ** (2 * m + 2):
            return m
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
    _refuse_repeats(patch)
    exponent = _patch_scale_exponent(patch)
    tables = [(kind, _pose_table(kind, exponent)) for kind in policy
              if kind not in SINGLETON_KINDS]
    triangle_kind = patch.kind.tolist()
    chirality = patch.chirality.tolist()
    m = _max_abs(patch.coords)
    # covers the patch (m) and every probe: an anchor apex plus a part
    # offset (m + span)
    pack = _Packing(max([m] + [m + table.span for _, table in tables]))
    order, k_star = _canonical_index_order(patch)
    frame = pack.table(patch.coords, patch.kind, 0)
    index = dict(zip(pack.keys(frame), range(n)))
    apex_keys = [a * pack.shift for a in frame[:, 1].tolist()]
    claimed = [False] * n
    # isometry iteration order aligned with the canonical frame, so that
    # rotating the patch rotates which candidate wins a tie
    rot_order = [(r0 - 2 * k_star) % 10 for r0 in range(10)]
    kinds, sizes, members, isometries = [], [], [], []  # of the groups claimed

    for kind, table in tables:
        by_chirality: dict[int, list] = {1: [], -1: []}
        for rot in rot_order:
            for mirror in (False, True):
                pose = table.poses[2 * rot + mirror]
                by_chirality[pose.chirality].append(
                    (pose, pack.keys(pack.table(pose.parts, table.kind, 0))))
        anchor_kind = int(table.kind[0])
        for i in order:
            if claimed[i] or triangle_kind[i] != anchor_kind:
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
                        shift = CycloPoint(*patch.coords[i, 0].tolist()) - pose.anchor
                        kinds.append(kind.value)
                        sizes.append(len(hit))
                        members += sorted(hit)
                        isometries.append(Isometry(pose.rot, pose.mirror, shift))
                        break

    return CompositeTiling._from_arrays(patch, kinds, sizes, members, isometries, order,
                                        claimed)


# the composite of each code of _pair_kinds
_PAIR_KINDS = (CompositeKind.THIN_RHOMB, CompositeKind.THICK_RHOMB, CompositeKind.DELTOID)
# verify_grouping's kind codes: a singleton's triangle kind, 2 + a pair's code, or 5
_CODES = {kind.value: code for code, kind in enumerate(SINGLETON_KINDS + _PAIR_KINDS)}


def _pair_kinds(corners: np.ndarray, kind: np.ndarray, i: np.ndarray,
                j: np.ndarray) -> np.ndarray:
    """The composite each pair (i[k], j[k]) forms, as an index into
    ``_PAIR_KINDS``, or -1.  Rhomb halves share their kind and base
    vertices, not their apex; deltoid halves are acute, with one apex and
    exactly one shared base vertex.  ``corners`` is the patch's vertex
    numbering.  For valid shapes these are exactly the mirror twins, so
    chirality, which only tells the order a base is listed in, is unread."""
    import numpy as np

    a, b = corners[i], corners[j]
    shared = (a[:, 1:, None] == b[:, None, 1:]).sum(axis=(1, 2))
    one_kind = kind[i] == kind[j]
    one_apex = a[:, 0] == b[:, 0]
    return np.where(one_kind & ~one_apex & (shared == 2), kind[i],
                    np.where(one_kind & (kind[i] == 0) & one_apex & (shared == 1), 2, -1))


def glue_rhombs(patch: Patch) -> CompositeTiling:
    """Pair mirror twins: acute across their base into thin rhombs, obtuse
    across their base into thick rhombs, and remaining acute twins across
    a leg (shared apex) into deltoids.  Scale-independent.

    Base twins are neighbours in one sort by (kind, lower base, upper
    base, rank); a base with more than two owners of one kind means
    duplicate triangles and is refused.  Leg twins come from one sort of
    the acute legs left and are claimed greedily in (earlier rank, later
    rank) order."""
    import numpy as np

    order, _ = _canonical_index_order(patch)
    rank = np.argsort(order)  # each triangle's position in order
    corners, kind = patch._numbering[1], patch.kind

    bases = np.sort(corners[:, 1:], axis=1)
    s = np.lexsort((rank, bases[:, 1], bases[:, 0], kind))
    rows = np.column_stack((kind[s], bases[s]))
    same = (rows[1:] == rows[:-1]).all(axis=1)
    if (same[1:] & same[:-1]).any():
        raise ValueError("a base is shared by more than two triangles of one kind: "
                         "duplicate triangles")
    _refuse_repeats(patch)
    pairs = np.column_stack((s[:-1], s[1:]))[same]
    pairs = pairs[_pair_kinds(corners, kind, *pairs.T) >= 0]
    pairs = pairs[np.lexsort((rank[pairs[:, 0]], kind[pairs[:, 0]]))]
    claimed = np.zeros(len(patch), dtype=bool)
    claimed[pairs] = True

    free = np.flatnonzero(~claimed & (kind == 0))
    claimed = claimed.tolist()
    legs = np.column_stack((np.repeat(corners[free, 0], 2), corners[free, 1:].ravel()))
    owner = np.repeat(free, 2)
    s = np.lexsort((rank[owner], legs[:, 1], legs[:, 0]))
    legs, owner = legs[s], owner[s]
    twins = [np.empty((0, 2), dtype=np.int64)]
    for d in range(1, len(s)):  # every pair of owners of one leg
        same = (legs[d:] == legs[:-d]).all(axis=1)
        if not same.any():
            break
        twins.append(np.column_stack((owner[:-d], owner[d:]))[same])
    twins = np.concatenate(twins)
    twins = twins[_pair_kinds(corners, kind, *twins.T) == 2]
    twins = twins[np.lexsort((rank[twins[:, 1]], rank[twins[:, 0]]))]
    taken = []
    for k, (a, b) in enumerate(twins.tolist()):
        if not (claimed[a] or claimed[b]):
            claimed[a] = claimed[b] = True
            taken.append(k)
    kinds = [_PAIR_KINDS[c].value for c in [*kind[pairs[:, 0]].tolist(), *[2] * len(taken)]]
    pairs = np.sort(np.concatenate((pairs, twins[taken])), axis=1)
    return CompositeTiling._from_arrays(patch, kinds, [2] * len(pairs), pairs.ravel(),
                                        [None] * len(pairs), order, claimed)


def count_tiles(tiling: CompositeTiling) -> dict[CompositeKind, int]:
    """The number of groups of each kind, counted on the kind names."""
    return {_BY_NAME[k]: n for k, n in Counter(tiling._group_arrays[0]).items()}


@dataclass(frozen=True)
class GroupingReport:
    ok: bool
    problems: tuple[str, ...] = ()


def verify_grouping(tiling: CompositeTiling) -> GroupingReport:
    """Re-check the partition property and every group's geometry.

    On the group arrays: singletons must be lone triangles of their kind,
    and pair groups from glue_rhombs pairs the rule that pairs them,
    ``_pair_kinds``, gives their kind.  Then template groups, walked with
    the failing ones in group order, are re-verified by translating the
    template's cached pose by the recorded isometry and shift and demanding
    exact equality of triangle sets.  A group with an index outside the
    patch fails its own check.
    """
    import numpy as np

    patch = tiling.patch
    n = len(patch)
    kinds, offsets, members = tiling._group_arrays
    # a member equal to the one before it in a stable sort repeats it
    s = np.argsort(members, kind="stable")
    again = np.zeros(len(members), dtype=bool)
    again[s[1:]] = members[s[1:]] == members[s[:-1]]
    problems = [f"triangle {i} appears in two groups" for i in members[again].tolist()]
    inside = (members >= 0) & (members < n)
    if not inside.all() or len(members) - again.sum() != n:
        problems.append("groups do not cover the triangle set")

    # each group's code (see _CODES) and the code its triangles make
    named = np.array([_CODES.get(kind, 5) for kind in kinds], dtype=np.int64)
    single = named < 2
    isometries = tiling._isometries
    posed = np.array([iso is not None for iso in isometries], dtype=bool) & ~single
    size, first = np.diff(offsets), offsets[:-1]
    outside = np.concatenate(([0], np.cumsum(~inside)))
    whole = outside[offsets[1:]] == outside[first]  # no member outside the patch
    made = np.full(len(kinds), -1)
    one = single & (size == 1) & whole
    made[one] = patch.kind[members[first[one]].astype(np.int64)]
    two = ~(single | posed) & (size == 2) & whole
    if two.any():  # 1, for no pair, is no pair kind's code
        i, j = (members[first[two] + k].astype(np.int64) for k in (0, 1))
        made[two] = 2 + _pair_kinds(patch._numbering[1], patch.kind, i, j)
    walk = np.flatnonzero(made != named).tolist()  # with every template group

    template_groups = [g for g in walk if posed[g] and whole[g]]
    if template_groups:
        exponent = _patch_scale_exponent(patch)
        # covers the patch and every translated posed part point
        pack = _Packing(max([_max_abs(patch.coords)] + [
            _pose_table(_BY_NAME[kinds[g]], exponent).reach
            + max(map(abs, isometries[g].shift.coords())) for g in template_groups]))
        keys = pack.keys(pack.table(patch.coords, patch.kind, 0))
        part_keys: dict[tuple[str, int], list[int]] = {}
    start, listed = (offsets.tolist(), members.tolist()) if walk else ([], [])
    for g in walk:
        indices = listed[start[g]:start[g + 1]]
        if not posed[g]:  # a failing group, built alone
            group = Group(_BY_NAME[kinds[g]], tuple(indices), isometries[g])
            problems.append(f"bad singleton group {group}" if single[g]
                            else f"pair group failed re-verification: {group}")
            continue
        if whole[g]:
            table, iso = _pose_table(_BY_NAME[kinds[g]], exponent), isometries[g]
            at = kinds[g], 2 * (iso.rot % 10) + bool(iso.mirror)
            pose = table.poses[at[1]]
            if at not in part_keys:
                part_keys[at] = pack.keys(pack.table(pose.parts, table.kind, 0))
            shift = pack.point((pose.anchor + iso.shift).coords()) * pack.shift
            if {keys[i] for i in indices} == {key + shift for key in part_keys[at]}:
                continue
        problems.append(f"isometry re-verification failed for {kinds[g]} "
                        f"at indices {tuple(indices)}")
    return GroupingReport(not problems, tuple(problems))
