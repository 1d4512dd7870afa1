import hashlib
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fivefold.exact import CycloPoint, GoldenInt
from fivefold.grouping import (
    POLICIES,
    RHOMBS,
    SET_A,
    SET_B,
    CompositeKind,
    CompositeTiling,
    Group,
    Isometry,
    _canonical_index_order,
    _Packing,
    _pose_table,
    _patch_scale_exponent,
    count_tiles,
    detect_composites,
    glue_rhombs,
    template_fingerprint,
    templates,
    verify_grouping,
)
from fivefold.triangles import (
    Patch,
    Triangle,
    TriangleKind,
    canonical_acute,
    canonical_obtuse,
    deflate_patch,
    homothety_rotation,
    seed_patch,
    seed_sun,
    seed_wheel,
    validate_patch,
)

PHI = (1 + 5 ** 0.5) / 2
TAU = GoldenInt(0, 1)


def rotate_patch(patch):
    return Patch(tuple(t.transform(lambda p: p.rotate72()) for t in patch.triangles),
                 generation=patch.generation, seed=patch.seed)


class TestTemplates:
    def test_part_counts(self):
        sizes = {k.value: len(v) for k, v in templates().items()}
        assert sizes == {
            "ThinRhomb": 2, "ThickRhomb": 2, "Deltoid": 2, "Trapezoid": 3,
            "PentagonSmall": 55, "PentagonBig": 145, "Pentagram": 180, "Boat": 9,
        }

    def test_every_template_is_a_valid_patch(self):
        for kind, template in templates().items():
            report = validate_patch(Patch(template.parts))
            assert report.ok, f"{kind.value}: {report.first()}"

    def test_fingerprint_frozen(self):
        # geometry is frozen reference data; any change must be deliberate
        assert template_fingerprint() == (
            "88540ed432a7529a021d7e7411e2e555107e7e9cc541acbce870c42005ef142b")

    @pytest.mark.parametrize("kind", [k for k in CompositeKind
                                      if k not in (CompositeKind.ACUTE_TRIANGLE,
                                                   CompositeKind.OBTUSE_TRIANGLE)])
    def test_template_self_match(self, kind):
        patch = Patch(templates()[kind].parts)
        tiling = detect_composites(patch, (kind,))
        assert count_tiles(tiling) == {kind: 1}
        assert tiling.coverage() == 1.0
        assert verify_grouping(tiling).ok

    def test_pentagon_side_ratio_is_tau(self):
        # big pentagon = deflation image of the tau-scaled small pentagon
        small = sum(t.area() for t in templates()[CompositeKind.PENTAGON_SMALL].parts)
        big = sum(t.area() for t in templates()[CompositeKind.PENTAGON_BIG].parts)
        assert big / small == pytest.approx(PHI ** 2, rel=1e-12)

    def test_pentagram_contains_small_pentagon_core(self):
        core = set(templates()[CompositeKind.PENTAGON_SMALL].parts)
        star = set(templates()[CompositeKind.PENTAGRAM].parts)
        assert core <= star
        assert len(star - core) == 125  # five 25-part points


class TestGlueRhombs:
    def test_wheel_gives_five_thick_rhombs(self):
        tiling = glue_rhombs(seed_wheel())
        assert count_tiles(tiling) == {CompositeKind.THICK_RHOMB: 5}
        assert tiling.coverage() == 1.0
        assert verify_grouping(tiling).ok

    def test_leg_twins_give_deltoid(self):
        t = canonical_acute()
        twin = Triangle.make(TriangleKind.ACUTE, t.apex, t.base0,
                             (t.base1 - t.apex).conj() + t.apex)
        tiling = glue_rhombs(Patch((t, twin)))
        assert count_tiles(tiling) == {CompositeKind.DELTOID: 1}

    def test_base_twins_give_thin_rhomb(self):
        t = canonical_acute()
        twin = Triangle.make(TriangleKind.ACUTE, t.base0 + t.base1 - t.apex,
                             t.base0, t.base1)
        tiling = glue_rhombs(Patch((t, twin)))
        assert count_tiles(tiling) == {CompositeKind.THIN_RHOMB: 1}

    def test_label_swapped_base_twins_give_verified_thin_rhomb(self):
        # the twin lists its base the other way round, so both halves carry
        # the same chirality; the pair is still a thin rhomb
        t = canonical_acute()
        twin = Triangle.make(TriangleKind.ACUTE, t.base0 + t.base1 - t.apex,
                             t.base1, t.base0)
        assert twin.chirality == t.chirality
        tiling = glue_rhombs(Patch((t, twin)))
        assert count_tiles(tiling) == {CompositeKind.THIN_RHOMB: 1}
        assert verify_grouping(tiling).ok

    def test_base_with_three_owners_refused(self):
        patch = deflate_patch(seed_sun(), 2)
        assert any(g.indices == (0, 4) for g in glue_rhombs(patch).groups)
        doubled = Patch(patch.triangles + (patch.triangles[0],))
        with pytest.raises(ValueError, match="more than two triangles"):
            glue_rhombs(doubled)

    def test_repeated_triangle_without_twin_refused(self):
        # triangle 31 has no base twin: no base has three owners
        patch = deflate_patch(seed_sun(), 2)
        doubled = Patch(patch.triangles + (patch.triangles[31],))
        with pytest.raises(ValueError, match="triangles 31 and 50 are one triangle listed twice"):
            glue_rhombs(doubled)

    def test_single_triangle_is_leftover(self):
        tiling = glue_rhombs(Patch((canonical_acute(),)))
        assert count_tiles(tiling) == {CompositeKind.ACUTE_TRIANGLE: 1}
        assert tiling.coverage() == 0.0

    def test_deflated_sun_ratio_tends_to_tau(self):
        counts = count_tiles(glue_rhombs(deflate_patch(seed_sun(), 6)))
        thick = counts[CompositeKind.THICK_RHOMB]
        thin = counts[CompositeKind.THIN_RHOMB]
        assert (thick + thin) / thick == pytest.approx(PHI, rel=0.02)
        assert (thick + thin) / thin == pytest.approx(PHI ** 2, rel=0.02)


class TestDetectComposites:
    def test_empty_patch(self):
        tiling = detect_composites(Patch(()), SET_B)
        assert tiling.groups == ()
        assert count_tiles(tiling) == {}

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_a_patch_scaled_up_groups_and_verifies(self, policy):
        # legs tau^2 times the canonical leg: the pose tables at exponent 2
        patch = homothety_rotation(seed_wheel(), 2, 0)
        assert _patch_scale_exponent(patch) == 2
        tiling = detect_composites(patch, POLICIES[policy])
        assert count_tiles(tiling) == {CompositeKind.THICK_RHOMB: 5}
        assert verify_grouping(tiling).ok

    def test_empty_policy_rejected(self):
        with pytest.raises(ValueError):
            detect_composites(seed_wheel(), ())

    def test_repeated_triangle_refused(self):
        patch = deflate_patch(seed_sun(), 2)
        doubled = Patch(patch.triangles + (patch.triangles[31],))
        with pytest.raises(ValueError, match="triangles 31 and 50 are one triangle listed twice"):
            detect_composites(doubled, SET_B)

    def test_wheel_setb_inventory(self):
        patch = deflate_patch(seed_wheel(), 5)
        tiling = detect_composites(patch, SET_B)
        counts = {k.value: v for k, v in count_tiles(tiling).items()}
        for wanted in ("PentagonBig", "PentagonSmall", "Trapezoid",
                       "ThickRhomb", "AcuteTriangle"):
            assert counts.get(wanted, 0) > 0, counts
        claimed_kinds = {g.kind for g in tiling.groups
                         if g.kind not in (CompositeKind.ACUTE_TRIANGLE,
                                           CompositeKind.OBTUSE_TRIANGLE)}
        assert claimed_kinds <= set(SET_B)
        assert tiling.coverage() >= 0.6
        assert verify_grouping(tiling).ok

    def test_partition_property(self):
        for patch in (deflate_patch(seed_wheel(), 4), deflate_patch(seed_sun(), 4)):
            for policy in (SET_A, SET_B):
                tiling = detect_composites(patch, policy)
                indices = sorted(i for g in tiling.groups for i in g.indices)
                assert indices == list(range(len(patch.triangles)))

    def test_group_weights_sum_to_triangle_count(self):
        patch = deflate_patch(seed_wheel(), 4)
        tiling = detect_composites(patch, SET_B)
        assert sum(len(g.indices) for g in tiling.groups) == len(patch.triangles)

    def test_determinism(self):
        patch = deflate_patch(seed_wheel(), 4)
        a = detect_composites(patch, SET_B)
        b = detect_composites(patch, SET_B)
        assert a.groups == b.groups

    def test_rotation_covariance_on_asymmetric_patches(self):
        # A patch with 5-fold symmetry cannot have a covariant partition
        # when candidate groups overlap across the symmetry orbit, so the
        # property is checked where it is well posed.
        for seed in ("acute", "obtuse"):
            patch = deflate_patch(seed_patch(seed), 6)
            rotated = rotate_patch(patch)
            for policy in (SET_A, SET_B, RHOMBS):
                a = detect_composites(rotated, policy)
                b = detect_composites(patch, policy)
                assert ({(g.kind, frozenset(g.indices)) for g in a.groups}
                        == {(g.kind, frozenset(g.indices)) for g in b.groups})

    def test_isometry_reverification_is_exact(self):
        patch = deflate_patch(seed_wheel(), 4)
        tiling = detect_composites(patch, SET_B)
        report = verify_grouping(tiling)
        assert report.ok, report.problems

    def test_non_tau_power_scale_rejected(self):
        scaled = Patch(tuple(t.transform(lambda p: p * GoldenInt(2, 1))
                             for t in seed_wheel().triangles))
        with pytest.raises(ValueError):
            detect_composites(scaled, SET_B)

    def test_policies_table(self):
        assert set(POLICIES) == {"seta", "setb", "rhombs"}
        assert POLICIES["setb"] is SET_B


# ------------------------------------------------- pinned group assignments

# Far translations, coordinates about 10^7.  Keys only ever compare points
# of one patch, so a compact patch far out tests large coordinates, while
# two copies APART test a radix that must exceed their separation: with a
# smaller one, tuple order and packed order disagree on (1, -10^7, ...).
FAR = CycloPoint(10_000_019, -9_999_991, 10_000_079, -10_000_103)
APART = CycloPoint(1, -10_000_019, 10_000_079, -10_000_103)


def translated(patch: Patch, shift: CycloPoint) -> Patch:
    return Patch(tuple(t.transform(lambda p: p + shift) for t in patch.triangles),
                 generation=patch.generation, seed=patch.seed)


@cache
def pinned_patch(name: str) -> Patch:
    if name == "wheel5-far":
        return translated(pinned_patch("wheel5"), FAR)
    if name == "wheel5-pair":
        patch = pinned_patch("wheel5")
        return replace(patch, triangles=patch.triangles
                       + translated(patch, APART).triangles)
    seed, steps = name.rstrip("0123456789"), int(name[-1])
    return deflate_patch(seed_patch(seed), steps)


def assignment_digest(tiling) -> str:
    """sha256 over every group's (kind, indices, rot, mirror, shift)."""
    h = hashlib.sha256()
    for g in tiling.groups:
        iso = None if g.iso is None else (g.iso.rot, g.iso.mirror, g.iso.shift.coords())
        h.update(repr((g.kind.value, g.indices, iso)).encode())
        h.update(b"\n")
    return h.hexdigest()


# Recorded with the coordinate-tuple matcher that the integer keys replaced.
PINNED_ASSIGNMENTS = {
    ("wheel5", "seta"): "98e1d2534b4094f473122b4708b107895ae64560c973dea64b84afe6816ee4e1",
    ("wheel5", "setb"): "7309980f8ee1995bd10c9a292cb983222b7286fe918cc85f47843375c8be8d1a",
    ("wheel5", "rhombs"): "6209856924813831c1c9362a15752ee5c008e738fa79f2e92734c42024e7393d",
    ("sun5", "seta"): "6b7f1d4bb5262476146b4df17d4c720727eaef3e9ce58c2234dacfd7bdea9416",
    ("sun5", "setb"): "c9d82d1906b3ab7c5c604ae43adb307e027dba2865f272f4b9e2e59383d04225",
    ("sun5", "rhombs"): "2df4d49cc866a2170cc93dcb6e15acda98fc3a68a860c00de38f51b8fce611ac",
    ("acute6", "seta"): "691fc8781886c40efa3fe6fcb533f46e2e68e91f9db0deafdf3f6024b67324f8",
    ("acute6", "setb"): "b089dcdea2d31c9b55498e83e1d5f84becab03e71a62981022ff577ffe03889f",
    ("acute6", "rhombs"): "670324c278c37638ba9b4ac5cb52233bc450bd901da7722f1213f022010a86f9",
    ("obtuse6", "seta"): "1b788e9b8a1f68be41961e3e46e2b45deec24985dab0ec4f54da5dd5d9cf80f5",
    ("obtuse6", "setb"): "c32a9fd68ccb47b407f7488031f6a6a1b1b76bce25a994ee84f05dda6b318413",
    ("obtuse6", "rhombs"): "0717d04414b3db55f610bc7fdbbd9037d83e6cc0f1c15aa58f906a1b35e98374",
    ("wheel5-far", "seta"): "f40fd19de6bd8a59350e71ea2379388fa30a164213afa2ac72c4c434aaba024c",
    ("wheel5-far", "setb"): "e97ab5054b81388342906eca0b892a7a82d06ea6a1c44d39c2bb54f0ae59a635",
    ("wheel5-far", "rhombs"): "3da38aa8b3abf815f1104e5ed691495656be5517e7482f1bc7046780a67b2b60",
    ("sun6", "glue"): "c680003bfc7f731bd4a099f4f44196115c05f0e386a0e5978b5905fc6daffc6d",
    ("wheel5-pair", "seta"): "6f974e91e6e8daa53af8295e441e2609f61f83577204a01f670bde51c510b1a0",
    ("wheel5-pair", "setb"): "ab8e899fe335f86646fcdf964e96b892bc6986388d455865ce125367b22098c3",
    ("wheel5-pair", "rhombs"): "3dd8714609dcc07bfd5da083041d0f6a075d6a79075ebc7529b5a70e4e20841e",
    ("wheel5-pair", "glue"): "0c91578a2ccd73fcf4aa9e51bed3f5fc6faa248e9c540afdb22184e6f24f27ba",
}

PINNED_ORDERS = {
    "wheel5": "15517af60ca0e4a4b430acdfac94384dabdc600be03214aa9e35439cd7f42d1c",
    "sun5": "f08a6b54d967c946d7b1e5ea2905ec9c23c9c85bd157bbb27f7a914546f8209b",
    "acute6": "5fcf2ab40e7cf609eab97cc2ad4ed8aa350c9571a26b26772ed6fbf00db7c60f",
    "obtuse6": "b38ced2983ceb1b06a7f7a130c4c3a88b8ecb707078cb9e4ba806874b2b05d3b",
    "sun6": "6e7885c7a74ad5aedb59cb25ea77b0c473042715a0b6c44e781cc89e51e78c9c",
    "wheel5-far": "b1474b5e2c24cdafdf08c48ab965262915e80e71a420a26307989b20d3357b09",
    "wheel5-pair": "c8020fd1249010f5506e5133ac256af900677cb570bc76e2d233a26e9c33b098",
}


class TestPinnedAssignments:
    @pytest.mark.parametrize("name,policy", sorted(PINNED_ASSIGNMENTS))
    def test_group_assignment_digest(self, name, policy):
        patch = pinned_patch(name)
        tiling = (glue_rhombs(patch) if policy == "glue"
                  else detect_composites(patch, POLICIES[policy]))
        assert assignment_digest(tiling) == PINNED_ASSIGNMENTS[name, policy]
        assert verify_grouping(tiling).ok

    @pytest.mark.parametrize("name", sorted(PINNED_ORDERS))
    def test_canonical_order_digest(self, name):
        order, k_star = _canonical_index_order(pinned_patch(name))
        digest = hashlib.sha256(repr((k_star, order.tolist())).encode()).hexdigest()
        assert digest == PINNED_ORDERS[name]

    def test_isometries_map_templates_onto_groups(self):
        patch = pinned_patch("wheel5")
        scale = TAU ** _patch_scale_exponent(patch)
        for g in detect_composites(patch, SET_B).groups:
            if g.iso is None:
                continue
            want = set()
            for t in templates()[g.kind].parts:
                a, b0, b1 = (g.iso.apply(p * scale) for p in t.points())
                want.add((t.kind, a, frozenset((b0, b1))))
            got = {(t.kind, t.apex, frozenset((t.base0, t.base1)))
                   for t in (patch.triangles[i] for i in g.indices)}
            assert got == want



# ------------------------------------------------------------- pose tables

def pose_table_digest() -> str:
    """sha256 over every pose of every composite template at exponents -9
    to 3: each pose's rot, mirror, chirality, anchor, parts dtype and parts,
    and each table's part kinds, span and reach."""
    h = hashlib.sha256()
    for kind in CompositeKind:
        if kind in (CompositeKind.ACUTE_TRIANGLE, CompositeKind.OBTUSE_TRIANGLE):
            continue
        for exponent in range(-9, 4):
            table = _pose_table(kind, exponent)
            h.update(repr((kind.value, exponent, table.kind.tolist(),
                           table.span, table.reach)).encode())
            for pose in table.poses:
                h.update(repr((pose.rot, pose.mirror, pose.chirality, pose.anchor.coords(),
                               str(pose.parts.dtype), pose.parts.tolist())).encode())
    return h.hexdigest()


# Recorded with the pose tables built point by point from CycloPoint products.
PINNED_POSE_TABLES = "2f0ea5d193442d7bcf55419ad1e62a650acc78cf9cbf70aed9784366ceb8efc5"


class TestPoseTables:
    def test_pose_table_digest(self):
        assert pose_table_digest() == PINNED_POSE_TABLES

    def test_built_on_arrays(self, monkeypatch):
        # no CycloPoint product or conjugate per template point
        templates()
        calls = []
        for name in ("__mul__", "conj"):
            method = getattr(CycloPoint, name)
            monkeypatch.setattr(CycloPoint, name, lambda *a, _m=method, _n=name:
                                calls.append(_n) or _m(*a))
        _pose_table.__wrapped__(CompositeKind.PENTAGON_BIG, -3)
        assert calls == []

    @pytest.mark.parametrize("m", [-64, -1, 0, 1, 64])
    @pytest.mark.parametrize("seed", [canonical_acute, canonical_obtuse])
    def test_scale_exponent(self, seed, m):
        scale = TAU ** m
        patch = Patch((seed().transform(lambda p: p * scale),))
        assert _patch_scale_exponent(patch) == m

    @pytest.mark.parametrize("scale", [TAU ** 65, TAU ** -65, GoldenInt(2, 0)],
                             ids=["tau^65", "tau^-65", "2"])
    def test_scale_exponent_refused(self, scale):
        patch = Patch((canonical_acute().transform(lambda p: p * scale),))
        with pytest.raises(ValueError, match="^patch edge length is not a tau-power "
                                             "of the canonical leg$"):
            _patch_scale_exponent(patch)


# ------------------------------------------------------------ integer keys

small_coords = st.tuples(*[st.integers(-40, 40)] * 4)
tiny_coords = st.tuples(*[st.integers(-9, 9)] * 4)


class TestPacking:
    @given(small_coords, small_coords)
    def test_points_pack_in_tuple_order(self, u, v):
        pack = _Packing(40)
        assert (pack.point(u) < pack.point(v)) == (u < v)
        assert (pack.point(u) == pack.point(v)) == (u == v)

    @given(small_coords, small_coords)
    def test_packing_is_linear(self, u, v):
        pack = _Packing(40)
        s = tuple(a + b for a, b in zip(u, v))
        assert pack.point(s) == pack.point(u) + pack.point(v)

    @given(st.lists(st.tuples(st.booleans(), small_coords, small_coords, small_coords),
                    min_size=1, max_size=4), st.integers(0, 4))
    def test_frame_keys_are_keys_of_rotated_triangles(self, rows, k):
        _check_frame_keys(_Packing(80), rows, k)  # rotated coordinates reach twice the bound

    @given(st.lists(st.tuples(st.booleans(), tiny_coords, tiny_coords, tiny_coords),
                    min_size=1, max_size=4), st.integers(0, 4))
    def test_keys_past_int64(self, rows, k):
        # radix 39: R^12 lies between 2^63 and 2^64, where numpy would fold
        # a tuple of weights in uint64
        pack = _Packing(19)
        assert 2 ** 63 < pack.radix ** 12 < 2 ** 64
        _check_frame_keys(pack, rows, k)


def _check_frame_keys(pack, rows, k):
    """``pack``'s keys of frame k are the packed digits of the rotated rows."""
    coords = np.array([[a, b, c] for _, a, b, c in rows], dtype=np.int64)
    kind = np.array([obtuse for obtuse, *_ in rows], dtype=np.int8)
    got = pack.keys(pack.table(coords, kind, k))
    r4 = pack.radix ** 4
    for key, (obtuse, *points) in zip(got, rows):
        a, b, c = (CycloPoint(*p) for p in points)
        for _ in range(k):
            a, b, c = a.rotate72(), b.rotate72(), c.rotate72()
        lo, hi = sorted((pack.point(b.coords()), pack.point(c.coords())))
        assert key == ((obtuse * r4 + pack.point(a.coords())) * r4 + lo) * r4 + hi


# ------------------------------------------------- verify_grouping failures

def _tampered(tiling, change):
    """The tiling with its first pentagon group replaced by change(group)."""
    at = next(n for n, g in enumerate(tiling.groups)
              if g.kind is CompositeKind.PENTAGON_SMALL)
    groups = list(tiling.groups)
    groups[at] = change(groups[at])
    return groups[at], replace(tiling, groups=tuple(groups))


class TestVerifyGroupingRejects:
    @pytest.fixture(scope="class")
    def tiling(self):
        tiling = detect_composites(pinned_patch("wheel5"), SET_B)
        assert verify_grouping(tiling).ok
        return tiling

    @pytest.mark.parametrize("change", [
        lambda g: replace(g, iso=replace(g.iso, rot=(g.iso.rot + 1) % 10)),
        lambda g: replace(g, iso=replace(g.iso, rot=(g.iso.rot + 2) % 10)),
        lambda g: replace(g, iso=replace(g.iso, mirror=not g.iso.mirror)),
        lambda g: replace(g, iso=replace(g.iso, shift=g.iso.shift + CycloPoint(1, 0, 0, 0))),
        lambda g: replace(g, iso=replace(g.iso, shift=g.iso.shift + CycloPoint(
            10 ** 12, -(10 ** 12), 3, 10 ** 15))),
        lambda g: replace(g, kind=CompositeKind.PENTAGON_BIG),
        lambda g: replace(g, kind=CompositeKind.TRAPEZOID),
    ], ids=["rot36", "rot72", "mirror", "shift", "far-shift", "kind-big", "kind-trapezoid"])
    def test_tampered_isometry_or_kind(self, tiling, change):
        g, bad = _tampered(tiling, change)
        report = verify_grouping(bad)
        assert not report.ok
        assert (f"isometry re-verification failed for {g.kind.value} "
                f"at indices {g.indices}") in report.problems

    def test_shift_in_the_kernel_of_a_small_radix(self):
        # (0, 0, 1, -R) packs to 0 in radix R; the radix must grow with the
        # recorded shift so that no such shift passes for the true one
        tiling = detect_composites(Patch(templates()[CompositeKind.PENTAGON_SMALL].parts),
                                   SET_B)
        for radix in range(1, 400):
            _, bad = _tampered(tiling, lambda g: replace(g, iso=replace(
                g.iso, shift=g.iso.shift + CycloPoint(0, 0, 1, -radix))))
            assert not verify_grouping(bad).ok, radix

    def test_dropped_index(self, tiling):
        g, bad = _tampered(tiling, lambda g: replace(g, indices=g.indices[:-1]))
        report = verify_grouping(bad)
        assert "groups do not cover the triangle set" in report.problems
        assert (f"isometry re-verification failed for {g.kind.value} "
                f"at indices {g.indices}") in report.problems

    @pytest.mark.parametrize("at", [0, 3, -1], ids=["first", "middle", "last"])
    def test_out_of_range_index_in_a_template_group(self, tiling, at):
        n = len(tiling.patch)
        g, bad = _tampered(tiling, lambda g: replace(
            g, indices=g.indices[:at % len(g.indices)] + (n,)
            + g.indices[at % len(g.indices) + 1:]))
        report = verify_grouping(bad)
        assert "groups do not cover the triangle set" in report.problems
        assert (f"isometry re-verification failed for {g.kind.value} "
                f"at indices {g.indices}") in report.problems

    @pytest.mark.parametrize("kind", [CompositeKind.ACUTE_TRIANGLE,
                                      CompositeKind.OBTUSE_TRIANGLE])
    def test_singleton_of_the_other_kind(self, tiling, kind):
        other = next(k for k in (CompositeKind.ACUTE_TRIANGLE,
                                 CompositeKind.OBTUSE_TRIANGLE) if k is not kind)
        at = next(n for n, g in enumerate(tiling.groups) if g.kind is kind)
        groups = list(tiling.groups)
        groups[at] = replace(groups[at], kind=other)
        report = verify_grouping(replace(tiling, groups=tuple(groups)))
        assert report.problems == (f"bad singleton group {groups[at]}",)

    def test_template_group_on_an_empty_patch(self):
        g = Group(CompositeKind.THICK_RHOMB, (0, 1), Isometry(0, False, CycloPoint(0, 0, 0, 0)))
        report = verify_grouping(CompositeTiling(Patch(()), (g,)))
        assert report.problems == ("groups do not cover the triangle set",
                                   "isometry re-verification failed for ThickRhomb "
                                   "at indices (0, 1)")

    def test_out_of_range_singleton(self, tiling):
        g = Group(CompositeKind.ACUTE_TRIANGLE, (len(tiling.patch) + 3,))
        report = verify_grouping(replace(tiling, groups=tiling.groups + (g,)))
        assert report.problems == ("groups do not cover the triangle set",
                                   f"bad singleton group {g}")


# ------------------------------------------------ pair groups of glue_rhombs

def _pair_tampered(tiling, kind, change):
    """The tiling with its first group of ``kind`` replaced by change(group)."""
    at = next(n for n, g in enumerate(tiling.groups) if g.kind is kind)
    groups = list(tiling.groups)
    groups[at] = change(groups[at], tiling.groups)
    return groups[at], replace(tiling, groups=tuple(groups))


def _other_member(g, groups):
    """A triangle of another group of g's kind: never a twin of g's members."""
    return next(h for h in groups if h.kind is g.kind and h != g).indices[0]


class TestVerifyGroupingRejectsPairs:
    @pytest.fixture(scope="class")
    def rhombs(self):
        tiling = glue_rhombs(deflate_patch(seed_sun(), 3))
        assert verify_grouping(tiling).ok
        return tiling

    @pytest.fixture(scope="class")
    def deltoids(self):
        # two deltoids, well apart
        parts = templates()[CompositeKind.DELTOID].parts
        far = CycloPoint(40, 0, 0, 0)
        tiling = glue_rhombs(Patch(parts + tuple(
            t.transform(lambda p: p + far) for t in parts)))
        assert count_tiles(tiling) == {CompositeKind.DELTOID: 2}
        assert verify_grouping(tiling).ok
        return tiling

    THIN, THICK, DELTOID = (CompositeKind.THIN_RHOMB, CompositeKind.THICK_RHOMB,
                            CompositeKind.DELTOID)

    @pytest.mark.parametrize("source,kind,change", [
        ("rhombs", THIN, lambda g, _: replace(g, kind=CompositeKind.THICK_RHOMB)),
        ("rhombs", THICK, lambda g, _: replace(g, kind=CompositeKind.THIN_RHOMB)),
        ("rhombs", THIN, lambda g, _: replace(g, kind=CompositeKind.DELTOID)),
        ("rhombs", THICK, lambda g, _: replace(g, kind=CompositeKind.DELTOID)),
        ("deltoids", DELTOID, lambda g, _: replace(g, kind=CompositeKind.THIN_RHOMB)),
        ("rhombs", THIN, lambda g, _: replace(g, kind=CompositeKind.TRAPEZOID)),
        ("rhombs", THIN, lambda g, gs: replace(
            g, indices=tuple(sorted((g.indices[0], _other_member(g, gs)))))),
        ("rhombs", THICK, lambda g, gs: replace(
            g, indices=tuple(sorted((g.indices[1], _other_member(g, gs)))))),
        ("deltoids", DELTOID, lambda g, gs: replace(
            g, indices=(g.indices[0], _other_member(g, gs)))),
        ("rhombs", THIN, lambda g, gs: replace(
            g, indices=g.indices + (_other_member(g, gs),))),
        ("rhombs", THICK, lambda g, _: replace(g, indices=g.indices[:1])),
    ], ids=["thin-as-thick", "thick-as-thin", "thin-as-deltoid", "thick-as-deltoid",
            "deltoid-as-thin", "thin-as-trapezoid", "thin-non-twin", "thick-non-twin",
            "deltoid-non-twin", "three-members", "one-member"])
    def test_tampered_pair(self, request, source, kind, change):
        g, bad = _pair_tampered(request.getfixturevalue(source), kind, change)
        report = verify_grouping(bad)
        assert f"pair group failed re-verification: {g}" in report.problems

    def test_out_of_range_pair(self, rhombs):
        g = Group(CompositeKind.THIN_RHOMB, (0, len(rhombs.patch) + 1))
        report = verify_grouping(replace(rhombs, groups=rhombs.groups + (g,)))
        assert report.problems == ("triangle 0 appears in two groups",
                                   "groups do not cover the triangle set",
                                   f"pair group failed re-verification: {g}")
