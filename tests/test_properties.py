"""Property tests: the exact patch validator against an exact brute force,
the reader's triangle shape check against ``check_triangle``, the .qtile
reader's canonical form under token-level mutations, the array
symmetry order against a frozenset reference, and the scan's nearest point
against a scalar scan."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fivefold.document import (
    DocTriangle,
    DocumentError,
    ProjectionMeta,
    TilingDocument,
    _shape_problem,
    read_tiling,
    tiling_to_document,
    write_tiling,
)
from fivefold.exact import (
    EPS,
    EPS1,
    ONE,
    TAU_C,
    ZERO,
    CycloPoint,
    cross_sign,
    golden_sign,
    sq_norm_ab,
)
from fivefold.grouping import glue_rhombs, templates
from fivefold.projection import _nearest, lattice_to_cyclo
from fivefold.triangles import (
    _INT64_BOUND,
    Patch,
    Triangle,
    TriangleKind,
    _symmetry_order,
    _topology_problem,
    check_triangle,
    canonical_acute,
    canonical_obtuse,
    deflate_patch,
    deflate_triangle,
    seed_patch,
    seed_sun,
    seed_wheel,
    symmetry_order,
    validate_patch,
)

# ------------------------------------------------------------ brute force


def _ccw(t):
    return (t.apex, t.base0, t.base1) if t.chirality > 0 else (t.apex, t.base1, t.base0)


def _separated(s, t) -> bool:
    """Some edge line of one triangle has the other on its closed outer side
    (for two triangles, that is the same as disjoint interiors)."""
    for a, b in ((s, t), (t, s)):
        ring = _ccw(a)
        for k in range(3):
            p, q = ring[k], ring[(k + 1) % 3]
            if all(cross_sign(q - p, v - p) <= 0 for v in b.points()):
                return True
    return False


def _inside_edge(v: CycloPoint, p: CycloPoint, q: CycloPoint) -> bool:
    # (conj(u) * w).real2() is twice the dot product of u and w
    return (cross_sign(q - p, v - p) == 0 and ((v - p).conj() * (q - p)).real2().sign() > 0
            and ((v - q).conj() * (p - q)).real2().sign() > 0)


def brute_force_embedded(patch: Patch) -> bool:
    """No two interiors overlap and no vertex lies inside another edge."""
    tris = patch.triangles
    if not all(_separated(s, t) for i, s in enumerate(tris) for t in tris[i + 1:]):
        return False
    return not any(_inside_edge(v, p, q) for t in tris for p, q in t.edges()
                   for v in patch.vertex_set)


# ------------------------------------------------- validator soundness

BASES = [deflate_patch(seed_patch(seed), gen)
         for seed in ("sun", "wheel") for gen in (2, 3)]


@st.composite
def perturbed_patches(draw):
    """A deflated patch with one triangle moved or turned by 36k degrees
    about its apex, or with one or two triangles deleted."""
    tris = list(draw(st.sampled_from(BASES)).triangles)
    i = draw(st.integers(0, len(tris) - 1))
    op = draw(st.sampled_from(["move", "turn", "delete", "delete2"]))
    if op == "move":
        d = EPS1 ** draw(st.integers(0, 9)) * draw(st.sampled_from([ONE, TAU_C]))
        tris[i] = tris[i].transform(lambda p: p + d)
    elif op == "turn":
        apex, turn = tris[i].apex, EPS1 ** draw(st.integers(1, 9))
        tris[i] = tris[i].transform(lambda p: (p - apex) * turn + apex)
    else:
        del tris[i]
        if op == "delete2":
            del tris[draw(st.integers(0, len(tris) - 1))]
    return Patch(tuple(tris))


@settings(max_examples=100, deadline=None)
@given(perturbed_patches())
def test_accepted_patches_are_embedded(patch):
    if validate_patch(patch).ok:
        assert brute_force_embedded(patch)


def _interior_triangle(patch: Patch) -> int:
    """Index of a triangle with no vertex on the patch boundary."""
    owners = {}
    for t in patch.triangles:
        for p, q in t.edges():
            key = frozenset((p, q))
            owners[key] = owners.get(key, 0) + 1
    rim = {p for key, n in owners.items() if n == 1 for p in key}
    return next(i for i, t in enumerate(patch.triangles)
                if rim.isdisjoint(t.points()))


def _t_junction() -> Patch:
    # One triangle of the sun seed replaced by its two deflation children:
    # the split point sits on the neighbour's unsplit leg.
    sun = seed_sun().triangles
    return Patch(sun[1:] + tuple(deflate_triangle(sun[0])))


def _hole() -> Patch:
    g2 = deflate_patch(seed_sun(), 2)
    i = _interior_triangle(g2)
    return Patch(g2.triangles[:i] + g2.triangles[i + 1:])


def _bowtie() -> Patch:
    t = canonical_acute()
    return Patch((t, t.transform(lambda p: -p)))


def _two_pieces() -> Patch:
    t = canonical_acute()
    return Patch((t, t.transform(lambda p: p + ONE * 10)))


def _overwound_fan() -> Patch:
    # four obtuse apex angles of 108 degrees around one vertex: 432 degrees
    t = canonical_obtuse()
    return Patch(tuple(t.transform(lambda p: p * EPS1 ** (3 * k)) for k in range(4)))


@pytest.mark.parametrize("make,problem", [
    (_hole, "boundary edges form 2 cycles: not a disk"),
    (_bowtie, "boundary vertex (0,0,0,0) has 4 boundary edges: not a disk"),
    (_two_pieces, "boundary edges form 2 cycles: not a disk"),
    (_t_junction, "angle sum at boundary vertex (0,0,0,0) is 360 degrees: not a disk"),
    (_overwound_fan, "angle sum at vertex (0,0,0,0) is 432 degrees: not a disk"),
])
def test_non_disks_rejected(make, problem):
    report = validate_patch(make())
    assert not report.ok
    assert report.first() == problem


def test_non_disks_without_overlap_pass_the_brute_force():
    # the rejections above are about topology, not overlap
    for make in (_hole, _bowtie, _two_pieces):
        assert brute_force_embedded(make())


@pytest.mark.parametrize("make", [_t_junction, _overwound_fan])
def test_overlaps_also_found_on_the_boundary(make):
    report = validate_patch(make())
    assert len(report.problems) == 2
    assert "overlap" in report.problems[1]
    assert not brute_force_embedded(make())


def test_euler_characteristic_checked():
    # a boundary triangle with two extra edges: V - E + F = 3 - 5 + 1
    points = [ZERO, ONE, EPS]
    report = _topology_problem(points, [2, 2, 2], [(0, 1), (1, 2), (2, 0)], 5, 1)
    assert report == "V - E + F = -1"


@pytest.mark.parametrize("seed", ["sun", "wheel", "acute", "obtuse"])
def test_deflated_seeds_accepted(seed):
    for gen in range(6):
        report = validate_patch(deflate_patch(seed_patch(seed), gen))
        assert report.ok, (gen, report.problems)


@pytest.mark.parametrize("kind", list(templates()), ids=lambda k: k.value)
def test_templates_accepted(kind):
    report = validate_patch(Patch(templates()[kind].parts))
    assert report.ok, report.problems


# ------------------------------------------------- reader shape check

@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BASES[1].triangles), st.sampled_from("AO"),
       st.sampled_from([1, -1]), st.integers(0, 2), st.integers(0, 3),
       st.integers(-2, 2))
def test_reader_shape_check_agrees_with_check_triangle(t, kind, chirality,
                                                       vertex, axis, delta):
    points = [list(p.coords()) for p in t.points()]
    points[vertex][axis] += delta
    a, b, c = (tuple(p) for p in points)
    moved = Triangle(TriangleKind(kind), CycloPoint(*a), CycloPoint(*b),
                     CycloPoint(*c), chirality)
    assert ((_shape_problem(kind, chirality, a, b, c) is None)
            == (check_triangle(moved) is None))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BASES[1].triangles), st.sampled_from("AO"),
       st.sampled_from([1, -1]), st.integers(0, 2), st.integers(0, 3),
       st.integers(-2, 2))
def test_check_triangle_and_validate_give_the_same_message(t, kind, chirality,
                                                           vertex, axis, delta):
    points = [list(p.coords()) for p in t.points()]
    points[vertex][axis] += delta
    corners = [tuple(p) for p in points]
    assume(len(set(corners)) == 3)  # a document cannot repeat a vertex
    moved = Triangle(TriangleKind(kind), *(CycloPoint(*c) for c in corners), chirality)
    vertices = tuple(sorted(corners))
    doc = TilingDocument(vertices=vertices, triangles=(
        DocTriangle(kind, *(vertices.index(c) for c in corners), chirality),))
    try:
        doc.validate()
        reported = None
    except DocumentError as e:
        reported = str(e)
    problem = check_triangle(moved)
    assert reported == (problem and f"triangle 0: {problem}")


# ----------------------------------------------------- reader canonical form

SMALL = write_tiling(replace(
    tiling_to_document(glue_rhombs(seed_wheel())),
    projection=ProjectionMeta((0.01, 0.0137, 0.0071), 3.0, 5)))
TOKENS = ["0", "1", "-1", "+1", "01", "-0", "1_0", "10", "999", "A", "O",
          "ThinRhomb", "", " ", "\n", "end", "groups", "1.0", "1e0", "nan"]


@st.composite
def mutated_documents(draw):
    lines = [line.split(" ") for line in SMALL.decode().split("\n")]
    for _ in range(draw(st.integers(1, 3))):
        tokens = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(tokens) - 1))
        token = draw(st.sampled_from(TOKENS)
                     | st.text(alphabet="0123456789+-_. AOx", max_size=3))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert":
            tokens.insert(at, token)
        elif op == "delete" and len(tokens) > 1:
            del tokens[at]
        else:
            tokens[at] = token
    return "\n".join(" ".join(tokens) for tokens in lines).encode("ascii")


def test_small_document_covers_every_section():
    text = SMALL.decode()
    assert "\ngroups 5\n" in text and "\nprojection " in text


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_reader_accepts_only_canonical_form(data):
    try:
        doc = read_tiling(data)
    except DocumentError:
        return
    assert write_tiling(doc) == data


# ------------------------------------------------------------ symmetry order

ROTATIONS = ((10, EPS1), (5, EPS), (2, -ONE))


def _reference_order(points, center):
    """The rotational order by its definition, on a frozenset of points."""
    centered = frozenset(p - center for p in points)
    for order, factor in ROTATIONS:
        if all(p * factor in centered for p in centered):
            return order
    return 1


# small coordinates, ones past _INT64_BOUND, and ones past int64 itself
coordinates = (st.integers(-40, 40)
               | st.integers(_INT64_BOUND - 3, _INT64_BOUND + 3).map(lambda v: v * (-1) ** v)
               | st.integers(-2 ** 70, 2 ** 70))
points = st.builds(CycloPoint, coordinates, coordinates, coordinates, coordinates)


@st.composite
def point_sets(draw):
    """(points, center, n, perturbed): the orbits of a few points under the
    rotation of order n about center, in any order and with repeats,
    perhaps with one point dropped or one added."""
    n = draw(st.sampled_from((1, 2, 5, 10)))
    step = dict(ROTATIONS).get(n, ONE)
    orbits = []
    for p in draw(st.lists(points, max_size=4)):
        for _ in range(n):
            orbits.append(p)
            p = p * step
    perturbed = False
    if orbits and draw(st.booleans()):
        del orbits[draw(st.integers(0, len(orbits) - 1))]
        perturbed = True
    if draw(st.booleans()):
        orbits.append(draw(points))
        perturbed = True
    if orbits:
        orbits += draw(st.lists(st.sampled_from(orbits), max_size=3))  # repeats
    center = draw(st.just(ZERO) | points)
    shuffled = draw(st.permutations([p + center for p in orbits]))
    return shuffled, center, n, perturbed


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_symmetry_order_matches_the_frozenset_reference(case):
    pts, center, n, perturbed = case
    want = _reference_order(pts, center)
    assert symmetry_order(pts, center) == want
    if not perturbed:  # each orbit is closed under the rotation of order n
        assert want % n == 0
    rows = [(p - center).coords() for p in pts]
    if all(abs(v) < 2 ** 63 for row in rows for v in row):
        # int64 rows go straight in; _times leaves int64 where it could overflow
        assert _symmetry_order(np.array(rows, dtype=np.int64).reshape(-1, 4)) == want


def test_symmetry_order_of_the_empty_set_is_ten():
    assert symmetry_order([]) == 10
    assert symmetry_order([], TAU_C) == 10
    assert _symmetry_order(np.empty((0, 4), dtype=np.int64)) == 10


# ------------------------------------------------------------ nearest point


def _reference_nearest(rows: list) -> int:
    """The index of the row nearest the origin: a scan of the rows in
    lexicographic order that moves on only to a strictly nearer row, by
    golden_sign of the difference of the exact |c|^2."""
    best = None
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        norm = sq_norm_ab(lattice_to_cyclo(rows[i]).coords())
        if best is None or golden_sign(norm[0] - best[1][0], norm[1] - best[1][1]) < 0:
            best = i, norm
    return best[0]


@st.composite
def lattice_rows(draw):
    """Rows of Z^5 up to 3 or 10^6 in each coordinate, with some rows
    cycled: a cyclic shift of a row turns its point by 72 degrees, so it
    ties with it exactly."""
    bound = draw(st.sampled_from([3, 10 ** 6]))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=5, max_size=5),
                         min_size=1, max_size=30))
    for row in draw(st.lists(st.sampled_from(rows), max_size=5)):
        k = draw(st.integers(1, 4))
        rows.append(row[k:] + row[:k])
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(lattice_rows())
def test_nearest_matches_a_scalar_scan(rows):
    assert _nearest(np.array(rows, dtype=np.int64)) == _reference_nearest(rows)
