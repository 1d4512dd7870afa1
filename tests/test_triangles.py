import re

import numpy as np
import pytest

from fivefold.document import document_to_patch, patch_to_document, read_tiling, write_tiling
from fivefold.exact import EPS, EPS1, ONE, TAU_C, ZERO, CycloPoint, GoldenInt, cross_sign
from fivefold.triangles import (
    Patch,
    Triangle,
    TriangleKind,
    _symmetry_order,
    canonical_acute,
    canonical_obtuse,
    deflate_patch,
    deflate_triangle,
    homothety_rotation,
    inflate_patch,
    patch_area,
    seed_patch,
    seed_sun,
    seed_wheel,
    symmetry_order,
    validate_patch,
)

TAU2 = GoldenInt(1, 1)
TAU4 = GoldenInt(2, 3)
TAU6 = GoldenInt(5, 8)


def counts_oracle(seed, generations):
    """Independent matrix-power oracle for (acute, obtuse) counts."""
    m = np.array([[1, 1], [1, 2]], dtype=object)
    out = [tuple(seed)]
    v = np.array(seed, dtype=object)
    for _ in range(generations):
        v = m @ v
        out.append(tuple(int(x) for x in v))
    return out


class TestCanonicalTriangles:
    def test_acute_measurements(self):
        t = canonical_acute()
        assert t.kind is TriangleKind.ACUTE
        assert t.leg_sq() == TAU2
        assert t.base_sq() == GoldenInt(1, 0)
        assert t.chirality == 1

    def test_obtuse_measurements(self):
        t = canonical_obtuse()
        assert t.kind is TriangleKind.OBTUSE
        assert t.leg_sq() == TAU2
        assert t.base_sq() == TAU4

    def test_make_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Triangle.make(TriangleKind.ACUTE, ZERO, TAU_C, TAU_C * (EPS1 ** 3))
        with pytest.raises(ValueError):
            Triangle.make(TriangleKind.ACUTE, ZERO, TAU_C, TAU_C * 2)
        with pytest.raises(ValueError):  # collinear
            Triangle.make(TriangleKind.ACUTE, ZERO, ONE, ONE + ONE)


class TestDeflateTriangle:
    def test_acute_children_kinds_and_area(self):
        t = canonical_acute()
        kids = deflate_triangle(t)
        kinds = sorted(k.kind.value for k in kids)
        assert kinds == ["A", "O"]
        assert sum(k.area() for k in kids) == pytest.approx(t.area(), rel=1e-9)

    def test_obtuse_children_kinds_and_area(self):
        t = canonical_obtuse()
        kids = deflate_triangle(t)
        kinds = sorted(k.kind.value for k in kids)
        assert kinds == ["A", "O", "O"]
        assert sum(k.area() for k in kids) == pytest.approx(t.area(), rel=1e-9)

    def test_children_scale_down_by_tau_exactly(self):
        for t in (canonical_acute(), canonical_obtuse()):
            for kid in deflate_triangle(t):
                assert kid.leg_sq() * TAU2 == t.leg_sq()
                if kid.kind is t.kind:
                    assert kid.base_sq() * TAU2 == t.base_sq()

    def test_parent_vertices_survive(self):
        for t in (canonical_acute(), canonical_obtuse()):
            child_points = {p for k in deflate_triangle(t) for p in k.points()}
            assert set(t.points()) <= child_points

    def test_grandchild_leg_scaling(self):
        t = canonical_acute()
        grandkids = [g for k in deflate_triangle(t) for g in deflate_triangle(k)]
        for g in grandkids:
            assert g.leg_sq() * TAU4 == t.leg_sq()

    def test_counts_pair_is_unique_nonneg_solution(self):
        # tau^2 = x + y*tau forces (x, y) = (1, 1); tau^3 = x + y*tau forces (1, 2);
        # those are the only area-consistent child inventories.
        assert GoldenInt(1, 1) == TAU2
        assert GoldenInt(1, 2) == GoldenInt(0, 1) * TAU2


class TestSeeds:
    def test_sun_shape(self):
        sun = seed_sun()
        assert len(sun) == 10
        assert all(t.kind is TriangleKind.ACUTE for t in sun.triangles)
        assert len(sun.vertices) == 11
        assert validate_patch(sun).ok

    def test_sun_alternating_chirality(self):
        chis = [t.chirality for t in seed_sun().triangles]
        assert chis == [1, -1] * 5

    def test_wheel_shape(self):
        wheel = seed_wheel()
        assert len(wheel) == 10
        assert all(t.kind is TriangleKind.OBTUSE for t in wheel.triangles)
        assert len(wheel.vertices) == 11
        assert validate_patch(wheel).ok

    def test_seed_lookup(self):
        assert len(seed_patch("acute")) == 1
        assert len(seed_patch("obtuse")) == 1
        with pytest.raises(ValueError):
            seed_patch("star")


class TestDeflatePatch:
    def test_sun_one_step_has_twenty(self):
        assert len(deflate_patch(seed_sun(), 1)) == 20

    def test_zero_steps_identity(self):
        sun = seed_sun()
        assert deflate_patch(sun, 0) is sun

    def test_single_acute_count_sequence(self):
        oracle = counts_oracle((1, 0), 4)
        patch = seed_patch("acute")
        got = [patch.counts()]
        for _ in range(4):
            patch = deflate_patch(patch, 1)
            got.append(patch.counts())
        assert got == oracle == [(1, 0), (1, 1), (2, 3), (5, 8), (13, 21)]

    def test_wheel_counts_match_oracle(self):
        patch = deflate_patch(seed_wheel(), 5)
        assert patch.counts() == counts_oracle((0, 10), 5)[-1]

    def test_generation_and_parents(self):
        g2 = deflate_patch(seed_sun(), 2)
        assert g2.generation == 2
        assert all(t.parent is not None for t in g2.triangles)
        parents = {t.parent for t in g2.triangles}
        assert parents == set(range(20))

    def test_area_conserved(self):
        sun = seed_sun()
        g4 = deflate_patch(sun, 4)
        assert patch_area(g4) == pytest.approx(patch_area(sun), rel=1e-9)

    def test_vertex_refinement(self):
        sun = seed_sun()
        g3 = deflate_patch(sun, 3)
        assert sun.vertex_set <= g3.vertex_set

    @pytest.mark.parametrize("seed,steps", [("sun", 4), ("wheel", 4), ("acute", 5), ("obtuse", 5)])
    def test_deflations_stay_valid(self, seed, steps):
        patch = deflate_patch(seed_patch(seed), steps)
        report = validate_patch(patch)
        assert report.ok, report.first()

    def test_jobs_do_not_change_output(self):
        serial = deflate_patch(seed_sun(), 3, jobs=1)
        threaded = deflate_patch(seed_sun(), 3, jobs=4)
        assert serial.triangles == threaded.triangles

    @pytest.mark.parametrize("seed", ["sun", "wheel", "acute", "obtuse"])
    def test_slot_signs_match_geometry(self, seed):
        # children inherit chirality through a fixed sign per slot, never
        # recomputed: pin that table against the corners at every generation
        patch = deflate_patch(seed_patch(seed), 6)
        while patch.ancestor is not None:
            for t in patch.triangles:
                assert t.chirality == cross_sign(t.base0 - t.apex, t.base1 - t.apex)
            patch = patch.ancestor

    def test_wrong_input_chirality_rejected(self):
        t = canonical_obtuse()
        bad = Triangle(t.kind, t.apex, t.base0, t.base1, -t.chirality)
        with pytest.raises(ValueError, match="stored chirality"):
            deflate_patch(Patch((bad,)), 1)

    def test_rotation_equivariance(self):
        sun = seed_sun()
        rotated = Patch(tuple(t.transform(lambda p: p.rotate72())
                              for t in sun.triangles), seed="sun-rot")
        lhs = deflate_patch(rotated, 2).vertex_set
        rhs = frozenset(p.rotate72() for p in deflate_patch(sun, 2).vertex_set)
        assert lhs == rhs


class TestInflate:
    def test_round_trip(self):
        sun = seed_sun()
        g3 = deflate_patch(sun, 3)
        assert inflate_patch(g3, 3) is sun

    def test_partial_round_trip(self):
        sun = seed_sun()
        g3 = deflate_patch(sun, 3)
        assert inflate_patch(g3, 1) is g3.ancestor
        assert inflate_patch(g3, 1).generation == 2
        assert inflate_patch(g3, 1).triangles == deflate_patch(sun, 2).triangles

    def test_no_history_errors(self):
        with pytest.raises(ValueError):
            inflate_patch(seed_sun(), 1)


class TestSymmetryOrder:
    def test_sun_seed_order_ten(self):
        assert symmetry_order(seed_sun().vertex_set) == 10

    def test_deflated_sun_order_five(self):
        # Deflation splits only alternate legs at the hub, so the exact
        # rotational order of a deflated sun drops to 5 (the mirror
        # symmetry survives but is not a rotation).
        for g in (1, 2, 3):
            assert symmetry_order(deflate_patch(seed_sun(), g).vertex_set) == 5

    def test_wheel_order_five(self):
        assert symmetry_order(seed_wheel().vertex_set) == 5

    def test_single_point_off_center(self):
        assert symmetry_order([TAU_C]) == 1
        assert symmetry_order([ZERO]) == 10  # the origin alone is fixed

    def test_ten_unit_directions(self):
        ring = [EPS1 ** k for k in range(10)]
        assert symmetry_order(ring) == 10

    def test_two_fold(self):
        pts = [TAU_C, -TAU_C]
        assert symmetry_order(pts) == 2

    def test_off_origin_center(self):
        center = TAU_C
        pts = [center + (EPS1 ** k) for k in range(10)]
        assert symmetry_order(pts, center) == 10
        assert symmetry_order(pts) == 1

    def test_rotated_coordinates_reach_twice_the_largest(self):
        # the images under the 36- and 72-degree rotations reach |z| = 4,
        # twice the largest coordinate: a packing bounded by 2 aliases them
        rows = [(2, 1, -1, -1), (2, -2, 2, 0), (0, 2, -2, 2), (-2, -2, -1, 1), (-2, 1, 2, -2)]
        assert _symmetry_order(np.array(rows, dtype=np.int64)) == 1
        assert symmetry_order([CycloPoint(*row) for row in rows]) == 1


class TestHomothety:
    def test_identity(self):
        sun = seed_sun()
        out = homothety_rotation(sun, 0, 0)
        assert out.triangles == sun.triangles

    def test_leg_scaling(self):
        patch = Patch((canonical_acute(),))
        out = homothety_rotation(patch, 2, 1)
        assert out.triangles[0].leg_sq() == TAU2 * TAU4  # tau^6
        assert out.triangles[0].leg_sq() == TAU6
        assert out.triangles[0].kind is TriangleKind.ACUTE
        assert out.triangles[0].chirality == canonical_acute().chirality

    def test_tau4_scale(self):
        patch = Patch((canonical_acute(),))
        out = homothety_rotation(patch, 4, 0)
        # linear scale tau^4 = 2 + 3*tau, squared scale tau^8
        assert out.triangles[0].leg_sq() == TAU2 * TAU4 * TAU4
        assert out.triangles[0].base_sq() == TAU4 * TAU4

    def test_rotation_only_preserves_lengths(self):
        sun = seed_sun()
        out = homothety_rotation(sun, 0, 3)
        assert out.vertex_set == frozenset(
            p.rotate72().rotate72().rotate72() for p in sun.vertex_set)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            homothety_rotation(seed_sun(), -1, 0)


class TestValidatePatch:
    def test_duplicate_triangle_fails(self):
        t = canonical_acute()
        bad = Patch((t, Triangle(t.kind, t.apex, t.base1, t.base0, -t.chirality)))
        report = validate_patch(bad)
        assert not report.ok

    def test_exactly_duplicated_triangle_fails(self):
        t = canonical_acute()
        report = validate_patch(Patch((t, t)))
        assert not report.ok
        assert "duplicate" in report.first()

    def test_mid_edge_vertex_fails(self):
        # Two deflation children subdivide the 0..tau segment at 1, while a
        # mirror triangle keeps it whole: a vertex sits mid-edge.
        kids = deflate_triangle(canonical_acute())
        mirror = Triangle.make(TriangleKind.ACUTE, ZERO, TAU_C,
                               (TAU_C * EPS1).conj())
        report = validate_patch(Patch(tuple(kids) + (mirror,)))
        assert not report.ok
        assert "edge" in report.first()

    def test_contained_triangle_fails(self):
        t = canonical_acute()
        child = deflate_triangle(t)[0]  # strictly inside the parent
        report = validate_patch(Patch((t, child)))
        assert not report.ok

    def test_crossing_triangles_fail_overlap(self):
        t = canonical_acute()
        # rotate a copy by 36 degrees and push it back into the original
        crossing = t.transform(lambda p: p * EPS1 + ONE - EPS)
        report = validate_patch(Patch((t, crossing)))
        assert not report.ok
        assert any("overlap" in p for p in report.problems)

    def test_empty_patch_ok(self):
        assert validate_patch(Patch(())).ok


# ------------------------------------------------ condition 8, pinned

INV_TAU = TAU_C - ONE
HUGE = CycloPoint(10 ** 30, -(10 ** 30) + 7, 3, 10 ** 30 + 1)


def copy_beside(f):
    """The canonical acute triangle and its image under the point map f."""
    t = canonical_acute()
    return Patch((t, t.transform(f)))


def vertex_inside_an_edge():
    kids = deflate_triangle(canonical_acute())
    mirror = Triangle.make(TriangleKind.ACUTE, ZERO, TAU_C, (TAU_C * EPS1).conj())
    return Patch(tuple(kids) + (mirror,))


OVERLAPS = {
    "crossing": lambda: copy_beside(lambda p: p * EPS1 + ONE - EPS),
    "collinear": lambda: copy_beside(lambda p: p.conj() + ONE),
    "fold-back": lambda: copy_beside(lambda p: p.conj() * INV_TAU),
    "inside": vertex_inside_an_edge,
    "touch": lambda: copy_beside(lambda p: -p),  # one shared vertex: no overlap
}

# The problems of each patch, with every point named in the frame of the
# patch as built; the cases below name other points than these.
PINNED_PROBLEMS = {
    "crossing": (
        "boundary edges form 2 cycles: not a disk",
        "boundary edges (0,0,0,0)-(0,0,-1,-1) and (2,0,1,0)-(1,-1,0,0) meet away "
        "from a shared vertex: triangles 0 and 1 overlap"),
    "collinear": (
        "boundary edges form 2 cycles: not a disk",
        "boundary edges (0,0,0,0)-(0,0,-1,-1) and (1,0,0,0)-(1,-1,-1,-1) meet away "
        "from a shared vertex: triangles 0 and 1 overlap"),
    "fold-back": (
        "boundary vertex (0,0,0,0) has 4 boundary edges: not a disk",
        "boundary edges (0,0,0,0)-(0,0,-1,-1) and (1,0,0,0)-(0,0,0,0) meet away "
        "from a shared vertex: triangles 0 and 1 overlap"),
    "inside": (
        "boundary vertex (0,0,-1,-1) has 4 boundary edges: not a disk",
        "boundary edges (0,0,0,0)-(1,0,0,0) and (0,0,-1,-1)-(0,0,0,0) meet away "
        "from a shared vertex: triangles 1 and 2 overlap"),
    "touch": ("boundary vertex (0,0,0,0) has 4 boundary edges: not a disk",),
}
PINNED_ELSEWHERE = {
    # the vertices are numbered in another order at this scale
    ("inside", "tau1500"): (
        "boundary vertex (0,0,0,0) has 4 boundary edges: not a disk",
        PINNED_PROBLEMS["inside"][1]),
    # turned by 72 degrees, so the sweep meets another pair first
    ("crossing", "scaled"): (
        "boundary edges form 2 cycles: not a disk",
        "boundary edges (0,0,-1,-1)-(1,1,0,0) and (2,0,0,0)-(2,0,1,0) meet away "
        "from a shared vertex: triangles 0 and 1 overlap"),
}

# Each case as (the patch from the one built, the point map back), beyond
# the float range ("tau1500") or at a tiny scale with huge coordinates
# ("scaled": there a float bounding box misses the overlap).
WHERE = {
    "as-is": (lambda patch: patch, lambda p: p),
    "huge": (lambda patch: moved(patch, lambda p: p + HUGE), lambda p: p - HUGE),
    "tau1500": (lambda patch: homothety_rotation(patch, 1500, 0),
                lambda p: p * INV_TAU ** 1500),
}
SCALED = {"collinear": 38, "crossing": 98}  # scaled by INV_TAU ** k * EPS1 ** 2


def moved(patch, f):
    return Patch(tuple(t.transform(f) for t in patch.triangles))


def in_frame(problems, back):
    """The problems with each point p named as back(p)."""
    return tuple(re.sub(r"\((-?\d+),(-?\d+),(-?\d+),(-?\d+)\)",
                        lambda m: str(back(CycloPoint(*map(int, m.groups())))), problem)
                 for problem in problems)


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("case", OVERLAPS)
def test_condition_8_is_pinned(case, where):
    build, back = WHERE[where]
    patch = build(OVERLAPS[case]())
    assert (patch.coords.dtype == object) == (where != "as-is")
    assert in_frame(validate_patch(patch).problems, back) == PINNED_ELSEWHERE.get(
        (case, where), PINNED_PROBLEMS[case])


@pytest.mark.parametrize("case", SCALED)
def test_condition_8_is_pinned_at_a_tiny_scale(case):
    k = SCALED[case]
    patch = moved(OVERLAPS[case](), lambda p: p * INV_TAU ** k * EPS1 ** 2)
    back = TAU_C ** k * EPS1 ** 8
    assert in_frame(validate_patch(patch).problems, lambda p: p * back) == (
        PINNED_ELSEWHERE.get((case, "scaled"), PINNED_PROBLEMS[case]))


def test_validating_a_read_patch_builds_no_points(monkeypatch):
    data = write_tiling(patch_to_document(deflate_patch(seed_sun(), 7)))
    patch = document_to_patch(read_tiling(data))
    built = []
    for cls in (CycloPoint, GoldenInt):
        def counting(self, *args, init=cls.__init__, cls=cls):
            built.append(cls.__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    assert validate_patch(patch).ok
    assert built == []
