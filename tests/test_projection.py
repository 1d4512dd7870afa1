import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, cKDTree
from scipy.spatial.distance import pdist

from fivefold.exact import CycloPoint
from fivefold.projection import (
    LatticeEnumeration,
    Window,
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
def every_layer(enum):
    """(rows, par_xy, internal) of every coordinate-sum layer the box holds,
    in (sum, lexicographic) order."""
    box = enum.box
    layers = [enum.layer(s) for s in range(-5 * box, 5 * box + 1)]
    return tuple(np.concatenate(a) for a in zip(*layers))


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
        internal = every_layer(enum6)[2]
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
        chunks = np.array_split(every_layer(enum6)[2], 64)  # cache-sized residual blocks
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


def criterion_11_path():
    z10 = symmetric_gamma()
    z5 = (0.0, 0.0, z10[2] + 0.12)
    generic = (0.021, 0.034, z10[2] + 0.19)
    path = [tuple(np.array(z10) + (np.array(z5) - np.array(z10)) * k / 24)
            for k in range(25)]
    path += [tuple(np.array(z5) + (np.array(generic) - np.array(z5)) * k / 24)
             for k in range(1, 26)]
    return path


def reference_accept(enum, gamma):
    """The window test on every row of every layer, without prefilters:
    (rows, par_xy) of the accepted points, in (sum, lexicographic) order."""
    rows, xy, internal = every_layer(enum)
    window = enum.window.shifted(gamma)
    chunks = np.array_split(internal, 64)  # cache-sized residual blocks
    mask = np.concatenate([window.contains(c) for c in chunks])
    return rows[mask], xy[mask]


def assert_same_points(got, want):
    assert len(got) == len(want) == 2
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


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
        rows, _, internal = enum4.layer(0)
        row = int(np.flatnonzero((rows == 0).all(axis=1))[0])
        for corner in corners[extreme]:
            gamma = tuple(internal[row] - center - (corner - center) * (1 - 1e-7))
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
                                       (1e200, 1e200, -1.0)])
    def test_far_in_plane_offsets_accept_nothing_without_warning(self, enum4, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, xy = enum4.accept(gamma)
        assert len(rows) == len(xy) == 0

    def test_band_is_clamped_to_the_box_layers(self, monkeypatch):
        # at box 2 the outermost layers +-10 hold one point each; offsets
        # whose band reaches past them, or lies far beyond every layer,
        # visit no more than the 21 layers the box holds
        enum = LatticeEnumeration(box=2, radius=2.0)
        assert enum.layer(10)[0].tolist() == [[2] * 5]
        assert enum.layer(-10)[0].tolist() == [[-2] * 5]
        half = math.sqrt(5) / 2  # the window's diagonal centre
        # each offset with the outermost point its window holds, if any
        cases = [
            ((0.0, 0.0, 1e15), None),
            ((0.0, 0.0, -1e15), None),
            ((0.0, 0.0, 10 / math.sqrt(5) - half), [2] * 5),     # centred on it
            ((0.0, 0.0, -10 / math.sqrt(5) - half), [-2] * 5),   # centred on it
            ((0.0, 0.0, 11.5 / math.sqrt(5)), None),     # band of layer 10 alone
            ((0.0, 0.0, -16.5 / math.sqrt(5)), None),    # band of layer -10 alone
        ]
        layer = enum.layer
        visited = []

        def counting(s):
            visited.append(s)
            return layer(s)

        for gamma, corner in cases:
            want = reference_accept(enum, gamma)
            visited.clear()
            monkeypatch.setattr(enum, "layer", counting)
            got = enum.accept(gamma)
            monkeypatch.undo()
            assert_same_points(got, want)
            if corner is None:
                assert len(got[0]) == 0
            else:
                assert corner in got[0].tolist()
            assert len(visited) <= 10 * enum.box + 1
            assert all(abs(s) <= 10 for s in visited)
        assert visited == [-10]

    def test_disc_and_slice_edges_within_an_ulp_of_a_row(self, enum4, monkeypatch):
        # offsets on a row's star-map y whose disc edge, or the edge of the
        # x slice the index reads, lies within 1 ulp of that row's star-map
        # x: the window test sees exactly the rows that the disc test keeps
        # on the whole of each layer visited, in (sum, lexicographic) order
        reach = math.sqrt(enum4._reach_sq)
        mid = (enum4._depth[0] + enum4._depth[1]) / 2  # the window's diagonal centre
        seen, visited = [], []
        residuals, layer = Window.residuals, enum4.layer

        def window_rows(self, points):
            seen.append(points)
            return residuals(self, points)

        def counting(s):
            visited.append(s)
            return layer(s)

        cases = []  # (layer, gamma)
        for s in (0, 3, -7):
            rows, _, internal = layer(s)
            for x, y, z in internal[::len(rows) // 5]:
                for gx in (x - reach, x + reach, x - enum4._half, x + enum4._half):
                    for gx in (np.nextafter(gx, -math.inf), gx, np.nextafter(gx, math.inf)):
                        cases.append((s, (float(gx), float(y), float(z - mid))))
        for s, gamma in cases:
            want = reference_accept(enum4, gamma)
            seen.clear()
            visited.clear()
            monkeypatch.setattr(Window, "residuals", window_rows)
            monkeypatch.setattr(enum4, "layer", counting)
            got = enum4.accept(gamma)
            monkeypatch.undo()
            assert_same_points(got, want)
            assert s in visited
            near = np.concatenate([layer(v)[2] for v in visited])
            dx = near[:, 0] - gamma[0]
            dy = near[:, 1] - gamma[1]
            near = near[dx * dx + dy * dy <= enum4._reach_sq]
            assert len(seen) == 1 and np.array_equal(seen[0], near)

    def test_star_x_index_costs_four_bytes_a_row(self, enum6):
        for s in range(-4, 8):
            rows = enum6.layer(s)[0]
            order, starts = enum6._index[s]
            assert order.nbytes == 4 * len(rows)
            assert len(starts) == enum6._cells + 1 <= 2 ** 14 + 2

    def test_window_test_sees_a_small_fraction(self, enum6, monkeypatch):
        seen = []
        residuals = Window.residuals

        def counting(self, points):
            seen.append(len(points))
            return residuals(self, points)

        total = len(every_layer(enum6)[0])
        assert total == 706047
        monkeypatch.setattr(Window, "residuals", counting)
        rows, _ = enum6.accept(symmetric_gamma())
        assert 0 < len(rows) <= sum(seen) < total // 100

    def test_layered_build_matches_brute_force(self, basis):
        enum = LatticeEnumeration(box=3, radius=2.0)
        cube = np.array(list(itertools.product(range(-3, 4), repeat=5)))
        xy = cube @ basis.par.T
        inside = cube[(xy ** 2).sum(axis=1) <= 4.0]
        assert len(inside) > 100
        rows, xy, _ = every_layer(enum)
        order = np.lexsort(rows.T[::-1])
        assert rows[order].tolist() == inside.tolist()
        # bit for bit the projection of the whole set in one product
        assert xy[order].tobytes() == (inside @ basis.par.T).tobytes()
        for s in range(-15, 16):  # each layer in lexicographic order
            layer = enum.layer(s)[0]
            assert (layer.sum(axis=1) == s).all()
            assert layer.tolist() == sorted(layer.tolist())

    def test_internal_plane_is_star_map(self, enum6):
        # eps -> eps^2 sends z0 + z1 eps + z2 eps^2 + z3 eps^3 to
        # (z0 - z2) + (z3 - z2) eps + (z1 - z2) eps^2 - z2 eps^3
        scale = math.sqrt(2 / 5)
        points, _, internal = every_layer(enum6)
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
    # (near) or anywhere within reach of a star-map image; sqrt(5) * gamma_z
    # lies within 1e-12 of an integer, which puts a sum layer on the
    # window's bottom (edge 0) or top (edge -5) apex
    rho = t * (1.5 if near else enum4._far)
    gamma = (rho * math.cos(theta), rho * math.sin(theta),
             (k + edge + nudge) / math.sqrt(5))
    assert_same_points(enum4.accept(gamma), reference_accept(enum4, gamma))


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

    def test_empty_path_rejected(self, enum6):
        with pytest.raises(ValueError):
            scan_offset([], 6.0, 8, enumeration=enum6)
