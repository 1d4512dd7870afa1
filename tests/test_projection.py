import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, cKDTree
from scipy.spatial.distance import pdist

from fivefold.exact import CycloPoint, golden_sign, sq_norm_ab
from fivefold.projection import (
    LatticeEnumeration,
    Window,
    _nearest,
    _project,
    build_window,
    cube_vertex_projections,
    generate_quasilattice,
    lattice_to_cyclo,
    projection_basis,
    scan_offset,
    symmetric_gamma,
)

GENERIC_GAMMA = (0.01, 0.0137, 0.0071)


@pytest.fixture(scope="module")
def enum6():
    return LatticeEnumeration(box=8, radius=6.0)


@pytest.fixture(scope="module")
def enum4():
    return LatticeEnumeration(box=6, radius=4.0)


@pytest.fixture(scope="module")
def basis():
    return projection_basis()


@functools.cache
def box_points(box, radius):
    """(rows, par_xy, internal) of every point of Z^5 in [-box, box]^5
    within the physical radius, in (sum, lexicographic) order, projected
    with _project and kept by the radius test of the program: the brute
    force that LatticeEnumeration is checked against."""
    basis = projection_basis()
    axis = np.arange(-box, box + 1)
    tail = np.stack(np.meshgrid(*[axis] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    rows, xy = [], []
    for x0 in axis:  # one slab of the cube at a time
        slab = np.column_stack([np.full(len(tail), x0), tail])
        p = _project(slab, basis.par)
        near = p[:, 0] ** 2 + p[:, 1] ** 2 <= radius * radius
        rows.append(slab[near])
        xy.append(p[near])
    rows, xy = np.concatenate(rows), np.concatenate(xy)
    order = np.argsort(rows.sum(axis=1), kind="stable")
    rows, xy = rows[order], xy[order]
    return rows, xy, _project(rows, np.vstack([basis.perp, basis.delta]))


class TestBasis:
    def test_orthogonal(self, basis):
        assert basis.orthogonality_residual() < 1e-12

    def test_par_kills_diagonal(self, basis):
        assert np.abs(basis.par @ np.ones(5)).max() < 1e-12

    def test_par_columns(self, basis):
        scale = math.sqrt(2 / 5)
        for k in range(5):
            assert basis.par[0, k] == pytest.approx(scale * math.cos(2 * math.pi * k / 5), abs=1e-15)
            assert basis.par[1, k] == pytest.approx(scale * math.sin(2 * math.pi * k / 5), abs=1e-15)

    def test_delta_normalization(self, basis):
        assert (basis.delta @ np.ones(5)).item() == pytest.approx(math.sqrt(5), abs=1e-12)


class TestWindow:
    def test_all_cube_vertices_within_facets(self, basis):
        window = build_window(basis)
        residuals = window.residuals(cube_vertex_projections(basis))
        assert residuals.max() <= 1e-9

    def test_center_strictly_inside(self, basis):
        window = build_window(basis)
        center = np.array([0.0, 0.0, math.sqrt(5) / 2])
        assert window.residuals(center).max() < -1e-3

    def test_cycling_symmetry(self, basis):
        # cycling e1->e2->...->e5 rotates the internal plane by 144 degrees
        # and fixes the diagonal, so it must map the window onto itself
        window = build_window(basis)
        pts = cube_vertex_projections(basis)
        theta = 4 * math.pi / 5
        rot = np.array([
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ])
        rotated = pts @ rot.T
        assert window.residuals(rotated).max() <= 1e-9

    def test_inflation_monotone(self, enum6):
        window = enum6.window
        centroid = np.array([0.0, 0.0, math.sqrt(5) / 2])
        lam = 1.25
        inflated = Window(window.normals,
                          lam * window.offsets - (1 - lam) * (window.normals @ centroid),
                          window.gamma)
        internal = box_points(8, 6.0)[2]
        base = window.shifted(GENERIC_GAMMA).contains(internal)
        bigger = inflated.shifted(GENERIC_GAMMA).contains(internal)
        assert (bigger | ~base).all()  # base implies bigger
        assert bigger.sum() > base.sum()


def hull_window():
    """The window as qhull builds it: the convex hull of the 32 projected
    cube corners, as triangulated facets (two rows per rhombic face)."""
    eq = ConvexHull(cube_vertex_projections()).equations
    return Window(eq[:, :3].copy(), eq[:, 3].copy())


class TestClosedFormWindow:
    def test_faces_match_the_hull_facets(self):
        hull = hull_window()
        window = build_window()
        assert (len(window.offsets), len(hull.offsets)) == (20, 40)
        rows = np.hstack([window.normals, window.offsets[:, None]])
        hull_rows = np.hstack([hull.normals, hull.offsets[:, None]])
        gap = np.abs(rows[:, None, :] - hull_rows[None, :, :]).max(axis=2)
        assert gap.min(axis=0).max() < 1e-12  # every hull row is a face
        assert gap.min(axis=1).max() < 1e-12  # every face is a hull row

    def test_masks_match_the_hull_window(self, enum6):
        hull = hull_window()
        window = build_window()
        accepted = 0
        chunks = np.array_split(box_points(8, 6.0)[2], 64)  # cache-sized residual blocks
        for gamma in criterion_11_path() + [GENERIC_GAMMA, symmetric_gamma()]:
            mask = np.concatenate([window.shifted(gamma).contains(c) for c in chunks])
            want = np.concatenate([hull.shifted(gamma).contains(c) for c in chunks])
            assert np.array_equal(mask, want)
            accepted += int(mask.sum())
        assert accepted > 0


class TestLatticeToCyclo:
    def test_basis_vectors(self):
        assert lattice_to_cyclo((1, 0, 0, 0, 0)) == CycloPoint(1, 0, 0, 0)
        assert lattice_to_cyclo((0, 0, 0, 0, 1)) == CycloPoint(-1, -1, -1, -1)
        assert lattice_to_cyclo((1, 1, 1, 1, 1)) == CycloPoint(0, 0, 0, 0)


class TestGenerate:
    def test_origin_accepted_under_symmetric_gamma(self, enum6):
        pts = generate_quasilattice(6.0, symmetric_gamma(), 8, enumeration=enum6)
        zero = [p for p in pts if p.lattice == (0, 0, 0, 0, 0)]
        assert len(zero) == 1
        assert zero[0].xy == (0.0, 0.0)

    def test_generic_gamma_census(self, enum6):
        pts = generate_quasilattice(6.0, GENERIC_GAMMA, 8, enumeration=enum6)
        assert 150 <= len(pts) <= 600
        xy = np.array([p.xy for p in pts])
        assert pdist(xy).min() >= 0.3

    def test_par_projection_matches_exact_embedding(self, enum6):
        scale = math.sqrt(2 / 5)
        pts = generate_quasilattice(6.0, GENERIC_GAMMA, 8, enumeration=enum6)
        for p in pts:
            ex, ey = p.cyclo.embed()
            assert p.xy[0] == pytest.approx(scale * ex, abs=1e-9)
            assert p.xy[1] == pytest.approx(scale * ey, abs=1e-9)

    def test_output_sorted_and_deterministic(self, enum6):
        a = generate_quasilattice(6.0, GENERIC_GAMMA, 8, enumeration=enum6)
        b = generate_quasilattice(6.0, GENERIC_GAMMA, 8, enumeration=enum6)
        assert a == b
        assert [p.lattice for p in a] == sorted(p.lattice for p in a)

    def test_quadratic_count_growth(self):
        small = LatticeEnumeration(box=8, radius=3.0)
        big = LatticeEnumeration(box=8, radius=6.0)
        n_small = len(generate_quasilattice(3.0, GENERIC_GAMMA, 8, enumeration=small))
        n_big = len(generate_quasilattice(6.0, GENERIC_GAMMA, 8, enumeration=big))
        assert 3.2 <= n_big / n_small <= 4.8

    def test_small_box_warns(self):
        with pytest.warns(UserWarning, match="box"):
            generate_quasilattice(8.0, GENERIC_GAMMA, 4)

    def test_equivariance_under_cycling(self, enum6):
        # cycling coordinates rotates physical space by 72 degrees when the
        # offset is rotated by the matching internal angle
        theta = 4 * math.pi / 5
        rot_perp = np.array([[math.cos(theta), -math.sin(theta)],
                             [math.sin(theta), math.cos(theta)]])
        g = np.array(GENERIC_GAMMA)
        g_rot = (*(rot_perp @ g[:2]), g[2])
        base = generate_quasilattice(6.0, GENERIC_GAMMA, 8, enumeration=enum6)
        rotated = generate_quasilattice(6.0, g_rot, 8, enumeration=enum6)
        phi = 2 * math.pi / 5
        rot_par = np.array([[math.cos(phi), -math.sin(phi)],
                            [math.sin(phi), math.cos(phi)]])
        want = np.array([p.xy for p in base]) @ rot_par.T
        got = np.array([p.xy for p in rotated])
        assert len(want) == len(got)
        dist, _ = cKDTree(got).query(want, k=1)
        assert dist.max() < 1e-9

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            LatticeEnumeration(box=0, radius=1.0)
        with pytest.raises(ValueError):
            LatticeEnumeration(box=2, radius=-1.0)


class TestRejectedInputs:
    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0])
    def test_enumeration_needs_a_finite_positive_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            LatticeEnumeration(box=2, radius=radius)

    @pytest.mark.parametrize("box,radius", [(8, 6.0), (8, 3.0), (4, 6.0)])
    def test_an_enumeration_of_another_box_or_radius_is_refused(self, box, radius):
        # it would count the points of its own box and radius: 351 and 346
        # at box 8 and radius 6, against 81 and 96
        enum = LatticeEnumeration(box, radius)
        with pytest.raises(ValueError, match="enumeration is for box"):
            scan_offset([symmetric_gamma()], 3.0, 4, enumeration=enum)
        with pytest.raises(ValueError, match="enumeration is for box"):
            generate_quasilattice(3.0, GENERIC_GAMMA, 4, enumeration=enum)

    def test_a_matching_enumeration_counts_what_the_call_would(self):
        enum = LatticeEnumeration(4, 3.0)
        for enumeration in (None, enum):
            assert scan_offset([symmetric_gamma()], 3.0, 4,
                               enumeration=enumeration)[0].count == 81
            assert len(generate_quasilattice(3.0, GENERIC_GAMMA, 4,
                                             enumeration=enumeration)) == 96


def criterion_11_path():
    z10 = symmetric_gamma()
    z5 = (0.0, 0.0, z10[2] + 0.12)
    generic = (0.021, 0.034, z10[2] + 0.19)
    path = [tuple(np.array(z10) + (np.array(z5) - np.array(z10)) * k / 24)
            for k in range(25)]
    path += [tuple(np.array(z5) + (np.array(generic) - np.array(z5)) * k / 24)
             for k in range(1, 26)]
    return path


def window_test(points, gamma):
    """(rows, par_xy) of the brute-force points strictly inside the
    gamma-shifted window, in (sum, lexicographic) order."""
    rows, xy, internal = points
    window = build_window().shifted(gamma)
    chunks = np.array_split(internal, 64)  # cache-sized residual blocks
    mask = np.concatenate([window.contains(c) for c in chunks])
    return rows[mask], xy[mask]


def reference_accept(enum, gamma):
    """The window test on every point of the box within the radius."""
    return window_test(box_points(enum.box, enum.radius), gamma)


def by_rows(points):
    """(rows, par_xy) sorted lexicographically by their rows."""
    rows, xy = points
    order = np.lexsort(rows.T[::-1])
    return rows[order], xy[order]


def assert_same_points(got, want):
    """The same (rows, par_xy) as sets: accept promises no order."""
    assert len(got) == len(want) == 2
    (rows, xy), (want_rows, want_xy) = by_rows(got), by_rows(want)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(xy, want_xy)


class TestPrefilter:
    def test_criterion_11_path_matches_full_window_test(self, enum6):
        for gamma in criterion_11_path():
            assert_same_points(enum6.accept(gamma), reference_accept(enum6, gamma))

    def test_band_edge_offsets(self, enum4):
        # sqrt(5) * gamma_z within 1e-12 of an integer puts whole sum layers
        # on the window's top and bottom apexes
        accepted = 0
        for k in range(-6, 2):
            for nudge in (-1e-12, 0.0, 1e-12):
                for xy in ((0.0, 0.0), GENERIC_GAMMA[:2]):
                    gamma = (*xy, (k + nudge) / math.sqrt(5))
                    rows, xy = enum4.accept(gamma)
                    assert_same_points((rows, xy), reference_accept(enum4, gamma))
                    accepted += len(rows)
        assert accepted > 0

    def test_offsets_at_the_circumradius(self, enum4):
        corners = cube_vertex_projections()
        reach = float(np.sqrt((corners[:, :2] ** 2).sum(axis=1)).max())
        accepted = 0
        for theta in np.linspace(0.0, 2 * math.pi, 7, endpoint=False):
            for rho in (reach * (1 - 1e-9), reach, reach * (1 + 1e-9)):
                gamma = (rho * math.cos(theta), rho * math.sin(theta),
                         symmetric_gamma()[2])
                rows, xy = enum4.accept(gamma)
                assert_same_points((rows, xy), reference_accept(enum4, gamma))
                accepted += len(rows)
        assert accepted > 0

    def test_points_just_inside_window_corners_kept(self, enum4):
        # shift the window so a lattice point sits just inside each corner:
        # at the apexes it lies on the diagonal band's edge, at the outer
        # corners on the star-map disc's edge
        corners = cube_vertex_projections()
        center = corners.mean(axis=0)
        norms = np.hypot(corners[:, 0], corners[:, 1])
        extreme = ((corners[:, 2] == corners[:, 2].min())
                   | (corners[:, 2] == corners[:, 2].max())
                   | np.isclose(norms, norms.max()))
        assert extreme.sum() == 12
        for corner in corners[extreme]:  # the origin's images are all 0
            gamma = tuple(-center - (corner - center) * (1 - 1e-7))
            got = enum4.accept(gamma)
            assert_same_points(got, reference_accept(enum4, gamma))
            assert (got[0] == 0).all(axis=1).any()

    @pytest.mark.parametrize("gamma", [(0.0, 0.0, math.inf), (0.0, 0.0, -math.inf),
                                       (0.0, 0.0, math.nan), (math.nan, 0.0, -1.0),
                                       (math.inf, 0.0, -1.0)])
    def test_non_finite_offsets_accept_nothing(self, enum4, gamma):
        got = enum4.accept(gamma)
        assert len(got[0]) == 0
        assert_same_points(got, reference_accept(enum4, gamma))

    @pytest.mark.parametrize("gamma", [(0.0, 0.0, 1e308), (0.0, 0.0, -1e308)])
    def test_offsets_past_the_float_range_accept_nothing(self, enum4, gamma):
        # sqrt(5) * gamma_z overflows to +-inf: no point is accepted, nothing raises
        got = enum4.accept(gamma)
        assert len(got[0]) == 0
        assert_same_points(got, reference_accept(enum4, gamma))

    @pytest.mark.parametrize("gamma", [(1e308, 0.0, -1.0), (0.0, -1e308, -1.0),
                                       (1e200, 1e200, -1.0), (30.0, -40.0, -1.0),
                                       (-1e9, 1e9, -1.0), (1.7e308, 1.7e308, -1.0)])
    def test_far_in_plane_offsets_accept_nothing_without_warning(self, enum4, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, xy = enum4.accept(gamma)
        assert len(rows) == len(xy) == 0

    @pytest.mark.parametrize("factor", [1 - 1e-9, 1.0, 1 + 1e-9])
    def test_star_images_at_the_circumradius(self, enum4, factor):
        # offsets that put a row's star-map image at the window's
        # circumradius times factor from the offset, on the ray of each
        # outer corner: the edge of the enumeration's internal-plane disc
        corners = cube_vertex_projections()
        center = corners.mean(axis=0)
        norms = np.hypot(corners[:, 0], corners[:, 1])
        outer = corners[np.isclose(norms, norms.max())]
        assert len(outer) == 10
        internal = box_points(enum4.box, enum4.radius)[2]
        accepted = 0
        for image in internal[::len(internal) // 5]:
            for corner in outer:
                gamma = tuple(image - center - (corner - center) * factor)
                got = enum4.accept(gamma)
                assert_same_points(got, reference_accept(enum4, gamma))
                accepted += len(got[0])
        assert accepted > 0

    def test_row_within_an_ulp_of_the_radius(self):
        # the least radius whose float square reaches a row's float |xy|^2
        # keeps the row; the float just below it drops the row
        basis = projection_basis()
        row = np.array([[2, 1, 0, -1, 0]])
        xy = _project(row, basis.par)
        norm = float(xy[0, 0] ** 2 + xy[0, 1] ** 2)
        radius = math.sqrt(norm)
        while radius * radius < norm:
            radius = math.nextafter(radius, math.inf)
        while math.nextafter(radius, 0.0) ** 2 >= norm:
            radius = math.nextafter(radius, 0.0)
        # the window centred on the row's internal image, and shifted to put
        # that image just inside each outer corner, where the row is at the
        # edge of both discs of the enumeration's ellipsoid
        corners = cube_vertex_projections()
        center = corners.mean(axis=0)
        norms = np.hypot(corners[:, 0], corners[:, 1])
        image = _project(row, np.vstack([basis.perp, basis.delta]))[0]
        offsets = [image - center] + [image - center - (corner - center) * (1 - 1e-7)
                                      for corner in corners[np.isclose(norms, norms.max())]]
        for r, kept in ((radius, True), (math.nextafter(radius, 0.0), False)):
            enum = LatticeEnumeration(box=3, radius=r)
            for gamma in offsets:
                got = enum.accept(tuple(gamma))
                assert_same_points(got, reference_accept(enum, tuple(gamma)))
                assert (row.tolist()[0] in got[0].tolist()) == kept

    def test_radius_far_beyond_the_box(self):
        # at box 1 and 2 a radius of 8 holds every point of the box; the
        # outermost layers +-10 of box 2 hold one point each
        half = math.sqrt(5) / 2  # the window's diagonal centre
        for box in (1, 2):
            enum = LatticeEnumeration(box=box, radius=8.0)
            assert len(box_points(box, 8.0)[0]) == (2 * box + 1) ** 5
            accepted = 0
            for s in range(-5 * box - 6, 5 * box + 2):
                for xy in ((0.0, 0.0), GENERIC_GAMMA[:2], (0.3, -0.2)):
                    gamma = (*xy, s / math.sqrt(5) - half)
                    got = enum.accept(gamma)
                    assert_same_points(got, reference_accept(enum, gamma))
                    accepted += len(got[0])
            assert accepted > 0
        # each offset with the outermost point its window holds, if any
        cases = [
            ((0.0, 0.0, 1e15), None),
            ((0.0, 0.0, -1e15), None),
            ((0.0, 0.0, 10 / math.sqrt(5) - half), [2] * 5),     # centred on it
            ((0.0, 0.0, -10 / math.sqrt(5) - half), [-2] * 5),   # centred on it
            ((0.0, 0.0, 11.5 / math.sqrt(5)), None),     # band of layer 10 alone
            ((0.0, 0.0, -16.5 / math.sqrt(5)), None),    # band of layer -10 alone
        ]
        enum = LatticeEnumeration(box=2, radius=8.0)
        for gamma, corner in cases:
            got = enum.accept(gamma)
            assert_same_points(got, reference_accept(enum, gamma))
            if corner is None:
                assert len(got[0]) == 0
            else:
                assert corner in got[0].tolist()

    @pytest.mark.parametrize("radius", [1e-300, 1e-20, 1e20, 1e300])
    def test_extreme_radii(self, radius):
        # a radius far inside the window's reach, or far outside every
        # point of the box, accepts what the brute force does, and warns of
        # nothing but the box
        enum = LatticeEnumeration(box=2, radius=radius)
        accepted = 0
        for gamma in [symmetric_gamma(), GENERIC_GAMMA, (0.3, 0.1, -0.5), (-0.9, 0.4, -2.0)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = enum.accept(gamma)
            assert_same_points(got, reference_accept(enum, gamma))
            accepted += len(got[0])
        assert accepted > 0

    def test_box_far_beyond_the_radius(self):
        # a radius of 1.5 keeps every point it accepts well inside box 6, so
        # boxes of 60 and 6000 accept exactly what box 6 does
        small = LatticeEnumeration(box=6, radius=1.5)
        for box in (60, 6000):
            big = LatticeEnumeration(box=box, radius=1.5)
            accepted = 0
            for gamma in criterion_11_path()[::7] + [(0.4, -0.1, 0.3), (0.0, 0.0, -2.5)]:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    want = reference_accept(small, gamma)
                    assert len(want[0]) == 0 or np.abs(want[0]).max() < 6
                    assert_same_points(big.accept(gamma), want)
                accepted += len(want[0])
            assert accepted > 0

    def test_window_test_sees_a_small_fraction(self, enum6, monkeypatch):
        seen = []
        residuals = Window.residuals

        def counting(self, points):
            seen.append(len(points))
            return residuals(self, points)

        total = len(box_points(8, 6.0)[0])
        assert total == 706047
        monkeypatch.setattr(Window, "residuals", counting)
        rows, _ = enum6.accept(symmetric_gamma())
        assert 0 < len(rows) <= sum(seen) < total // 100

    def test_layered_build_matches_brute_force(self, basis):
        # the brute force, built one x0 slab of the box at a time, is the
        # cube within the radius, projected bit for bit as one product; a
        # random block of its rows, projected alone, gets the same bits as
        # in the whole, as the enumeration relies on
        cube = np.array(list(itertools.product(range(-3, 4), repeat=5)))
        xy = cube @ basis.par.T
        inside = cube[(xy ** 2).sum(axis=1) <= 4.0]
        assert len(inside) > 100
        rows, xy, internal = box_points(3, 2.0)
        order = np.lexsort(rows.T[::-1])
        assert rows[order].tolist() == inside.tolist()
        assert xy[order].tobytes() == (inside @ basis.par.T).tobytes()
        proj3 = np.vstack([basis.perp, basis.delta])
        rng = np.random.default_rng(5)
        for size in (1, 2, 3, 5, 17, 64, 257, 1000):
            pick = np.sort(rng.choice(len(rows), size, replace=False))
            assert _project(rows[pick], basis.par).tobytes() == xy[pick].tobytes()
            assert _project(rows[pick], proj3).tobytes() == internal[pick].tobytes()

    def test_internal_plane_is_star_map(self, enum6):
        # eps -> eps^2 sends z0 + z1 eps + z2 eps^2 + z3 eps^3 to
        # (z0 - z2) + (z3 - z2) eps + (z1 - z2) eps^2 - z2 eps^3
        scale = math.sqrt(2 / 5)
        points, _, internal = box_points(8, 6.0)
        order = np.lexsort(points.T[::-1])  # sample the rows in lexicographic order
        points, internal = points[order], internal[order]
        for row in range(0, len(points), 7919):
            z0, z1, z2, z3 = lattice_to_cyclo(points[row]).coords()
            star = CycloPoint(z0 - z2, z3 - z2, z1 - z2, -z2).embed()
            assert internal[row, :2] == pytest.approx(
                [scale * star[0], scale * star[1]], abs=1e-9)
            assert internal[row, 2] == pytest.approx(
                points[row].sum() / math.sqrt(5), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(t=st.floats(0.0, 1.0), near=st.booleans(), theta=st.floats(0.0, 2 * math.pi),
       k=st.integers(-36, 31), nudge=st.sampled_from((-1e-12, 0.0, 1e-12)),
       edge=st.sampled_from((0.0, -5.0)))
def test_accept_matches_the_full_window_test(enum4, t, near, theta, k, nudge, edge):
    # the in-plane offset lies within the window's reach of the origin
    # (near) or anywhere within reach of a star-map image: one of box 6,
    # sum_k x_k perp[:, k], lies within 6 * 5 * sqrt(2/5) of the origin, and
    # the window within 1.1 of its offset; sqrt(5) * gamma_z lies within
    # 1e-12 of an integer, which puts a sum layer on the window's bottom
    # (edge 0) or top (edge -5) apex
    rho = t * (1.5 if near else 6 * 5 * math.sqrt(2 / 5) + 1.1)
    gamma = (rho * math.cos(theta), rho * math.sin(theta),
             (k + edge + nudge) / math.sqrt(5))
    assert_same_points(enum4.accept(gamma), reference_accept(enum4, gamma))


@functools.cache
def every_box_point(box):
    """box_points without a radius, and the float |xy|^2 of each row."""
    rows, xy, internal = box_points(box, math.inf)
    return rows, xy, internal, xy[:, 0] ** 2 + xy[:, 1] ** 2


@settings(max_examples=60, deadline=None)
@given(box=st.integers(1, 6), radius=st.floats(0.5, 8.0), t=st.floats(0.0, 1.0),
       theta=st.floats(0.0, 2 * math.pi), z=st.floats(-1.0, 1.0),
       nudge=st.sampled_from((None, -1e-12, 0.0, 1e-12)))
def test_accept_matches_brute_force_on_any_box_and_radius(box, radius, t, theta, z, nudge):
    # offsets anywhere within reach of a star-map image of the box, most
    # near the origin, where the points are, and at any depth that meets
    # its sums; some with sqrt(5) * gamma_z within 1e-12 of an integer
    rho = t ** 3 * (box * 5 * math.sqrt(2 / 5) + 1.1)
    depth = z * (math.sqrt(5) * box + 2) - math.sqrt(5) / 2
    if nudge is not None:
        depth = (round(depth * math.sqrt(5)) + nudge) / math.sqrt(5)
    gamma = (rho * math.cos(theta), rho * math.sin(theta), depth)
    rows, xy, internal, norm = every_box_point(box)
    near = norm <= radius * radius
    want = window_test((rows[near], xy[near], internal[near]), gamma)
    assert_same_points(LatticeEnumeration(box, radius).accept(gamma), want)


class TestScan:
    def test_symmetry_transition(self, enum6):
        z = symmetric_gamma()[2]
        path = [symmetric_gamma(), (0.0, 0.0, z + 0.06), (0.0, 0.0, z + 0.12),
                (0.021, 0.034, z + 0.19)]
        entries = scan_offset(path, 6.0, 8, enumeration=enum6)
        orders = [e.order for e in entries]
        assert orders[0] == 10
        assert 5 in orders
        assert orders[-1] == 1
        assert all(e.count > 100 for e in entries)

    def test_generic_gamma_low_order(self, enum6):
        entries = scan_offset([GENERIC_GAMMA], 6.0, 8, enumeration=enum6)
        assert entries[0].order in (1, 2, 5, 10)
        assert entries[0].order == 1

    def test_points_at_the_box_warn(self):
        with pytest.warns(UserWarning, match=r"enumeration box \(\+-3\)"):
            entries = scan_offset([GENERIC_GAMMA], 8.0, 3)
        assert entries[0].count == 240

    def test_criterion_11_scan_stays_inside_the_box(self, enum6):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = scan_offset(criterion_11_path(), 6.0, 8, enumeration=enum6)
        assert all(e.count > 100 for e in entries)

    def test_nearest_point_is_exact_and_lexicographically_first(self, enum6):
        # on a decagonal mirror line the points nearest the origin tie
        # exactly, and the float norms pick one that is not the
        # lexicographically first of them
        theta = 2 * math.pi / 5
        gamma = (0.75 * math.cos(theta), 0.75 * math.sin(theta), -0.65)
        rows, xy = enum6.accept(gamma)
        best = reference_nearest(rows)
        norm = sq_norm_ab(lattice_to_cyclo(rows[best]).coords())
        ties = [r for r in rows.tolist() if sq_norm_ab(lattice_to_cyclo(r).coords()) == norm]
        assert len(ties) > 1
        assert _nearest(rows) == best
        assert rows[int(np.argmin((xy ** 2).sum(axis=1)))].tolist() != rows[best].tolist()
        assert scan_offset([gamma], 6.0, 8, enumeration=enum6)[0].count == len(rows)

    def test_empty_path_rejected(self, enum6):
        with pytest.raises(ValueError):
            scan_offset([], 6.0, 8, enumeration=enum6)


def reference_nearest(rows):
    """The index of the row nearest the origin by exact comparison of
    |c|^2 = a + b*tau, the lexicographically first among ties, one row at
    a time."""
    norms = [sq_norm_ab(lattice_to_cyclo(r).coords()) for r in rows.tolist()]
    best = 0
    for i, (a, b) in enumerate(norms):
        sign = golden_sign(a - norms[best][0], b - norms[best][1])
        if sign < 0 or (sign == 0 and rows[i].tolist() < rows[best].tolist()):
            best = i
    return best


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 5), min_size=1, max_size=40))
def test_nearest_matches_the_exact_loop(points):
    rows = np.array(points, dtype=np.int64)
    assert _nearest(rows) == reference_nearest(rows)
