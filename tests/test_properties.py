"""Property tests: the exact patch validator against an exact brute force,
the reader's triangle shape check against ``check_triangle``, the .qtile
reader's canonical form under token-level mutations, its numpy block parse
against its token parse, the array text codec against the %-templates
and ``%.6f``, the array outline loops against a walk, the array
symmetry order against a frozenset reference, and the scan's nearest point
against a scalar scan."""

from collections import defaultdict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fivefold import document
from fivefold.document import (
    DocTriangle,
    DocumentError,
    ProjectionMeta,
    TilingDocument,
    _shape_problem,
    patch_to_document,
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
from fivefold.grouping import SET_B, detect_composites, glue_rhombs, templates
from fivefold.projection import _nearest, lattice_to_cyclo
from fivefold.svg import _decimals
from fivefold.triangles import (
    _INT64_BOUND,
    Patch,
    Triangle,
    TriangleKind,
    _loops,
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


# ------------------------------------------- reader: numpy against tokens

SUN3 = write_tiling(patch_to_document(deflate_patch(seed_sun(), 3)))
WHEEL3 = write_tiling(tiling_to_document(detect_composites(deflate_patch(seed_wheel(), 3),
                                                           SET_B)))
SPELLINGS = ["+2", "05", "-0", "99999999999999999999", "-9223372036854775809", "\t", "",
             "  ", "\r", "-1", "-8", "2", "A", "O", "ThickRhomb", "ThickRhomb5", "Boat",
             "PentagonBig", "Pentagram", "ObtuseTriangle"]


def _outcome(data: bytes):
    """What read_tiling makes of data: its arrays and text, or its message."""
    try:
        doc = read_tiling(data)
    except DocumentError as e:
        return str(e)
    points, table = doc._arrays
    groups = doc._group_arrays and (doc._group_arrays[0], *(
        (a.dtype, a.tolist()) for a in doc._group_arrays[1:]))
    return (points.dtype, points.tolist(), table.dtype, table.tolist(), groups,
            doc.__dict__.get("triangles"), doc._blocks, write_tiling(doc))


def _token_parse(data: bytes):
    with mock.patch.object(document, "_array_block", lambda text, n, template: None):
        return _outcome(data)


@st.composite
def mutated_files(draw):
    lines = [line.split(" ") for line in draw(st.sampled_from([SUN3, WHEEL3])).decode()
             .split("\n")]
    for _ in range(draw(st.integers(1, 2))):
        tokens = lines[draw(st.integers(4, len(lines) - 1))]
        at = draw(st.integers(0, len(tokens) - 1))
        token = draw(st.sampled_from(SPELLINGS) | st.text(alphabet="0123456789+- AO", max_size=3))
        op = draw(st.sampled_from(["replace", "insert", "append", "delete"]))
        if op == "insert":
            tokens.insert(at, token)
        elif op == "append":
            tokens[at] += token
        elif op == "delete" and len(tokens) > 1:
            del tokens[at]
        else:
            tokens[at] = token
    return "\n".join(" ".join(tokens) for tokens in lines).encode("ascii")


@settings(max_examples=300, deadline=None)
@given(mutated_files())
def test_numpy_parse_reads_what_the_token_parse_reads(data):
    assert _outcome(data) == _token_parse(data)


def test_numpy_parse_takes_every_canonical_block():
    taken = []

    def array_block(*args, parse=document._array_block):
        values = parse(*args)
        taken.append(values is not None)
        return values

    with mock.patch.object(document, "_array_block", array_block):
        for data in (SUN3, WHEEL3):
            assert write_tiling(read_tiling(data)) == data
    assert taken == [True] * 5


# ----------------------------------------------------------- text codec

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
int64s = (st.sampled_from([0, 1, -1, INT64_MAX, INT64_MIN + 1, INT64_MIN])
          | st.tuples(st.integers(1, 19), st.booleans()).flatmap(  # of 1 to 19 digits
              lambda d: st.integers(10 ** (d[0] - 1), min(10 ** d[0] - 1, INT64_MAX))
              .map(lambda v: -v if d[1] else v))
          | st.integers(INT64_MIN, INT64_MAX))


def _template_text(line: str, rows: list) -> bytes:
    """The %-template ``line`` filled row by row, a kind code as its name."""
    if line is document._TRIANGLE:
        rows = [("AO"[kind], *rest) for kind, *rest in rows]
    return "\n".join(line % tuple(row) for row in rows).encode()


@st.composite
def int64_rows(draw):
    line = draw(st.sampled_from([document._VERTEX, document._TRIANGLE]))
    width = line.count("%")
    rows = draw(st.lists(st.lists(int64s, min_size=width, max_size=width), max_size=6))
    if line is document._TRIANGLE:
        rows = [[draw(st.integers(0, 1)), *row[1:]] for row in rows]
    return line, rows


@settings(max_examples=500, deadline=None)
@given(int64_rows())
def test_codec_writes_the_template_text(case):
    line, rows = case
    array = np.array(rows, dtype=np.int64).reshape(-1, line.count("%"))
    assert document._rows_text(line, array) == _template_text(line, rows)


@st.composite
def group_arrays(draw):
    groups = draw(st.lists(st.tuples(st.sampled_from(document._GROUP_NAMES),
                                     st.lists(int64s, max_size=4)), max_size=6))
    sizes = [len(members) for _, members in groups]
    return (tuple(kind for kind, _ in groups), np.cumsum([0, *sizes]),
            np.array([m for _, members in groups for m in members], dtype=np.int64))


@settings(max_examples=500, deadline=None)
@given(group_arrays())
def test_codec_writes_the_group_lines(groups):
    kinds, offsets, members = groups
    at, members = offsets.tolist(), members.tolist()
    expected = "\n".join(kind + " " + " ".join(map(str, members[a:b]))
                         for kind, a, b in zip(kinds, at, at[1:]))
    assert document._group_lines(groups) == expected.encode()


def _six_decimals(v: float) -> bytes:
    out = f"{v:.6f}"
    return ("0.000000" if out == "-0.000000" else out).encode()


TIES = [2.5e-6, -2.5e-6, 0.5e-6, 1.5e-6, 0.0078125, 12 + 5e-7, -7 - 5e-7, 1e-7, -1e-9,
        -4e-7, -5e-7, -6e-7, -0.0, 2 ** 52 / 1e6, -(2 ** 52) / 1e6, 2 ** 49 / 1e6 + 0.5,
        2 ** 53 / 1e6 + 1, 1e300, -1.7e308, 4503599627.3704965, 123456.7890125]
floats = (st.sampled_from(TIES)
          | st.builds(lambda k, step: float(np.nextafter(k + 5e-7, step * np.inf)),  # k + 5e-7
                      st.integers(-10 ** 6, 10 ** 6), st.sampled_from([-1, 1]))
          | st.floats(-1e4, 1e4)
          | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=1000, deadline=None)
@given(st.lists(floats, min_size=1, max_size=8))
def test_svg_decimals_are_the_six_decimal_format(values):
    words = _decimals(np.array(values, dtype=float))
    assert [row.tobytes().replace(b"\0", b"") for row in words] == list(map(_six_decimals, values))


# ------------------------------------------------------------ outline loops


def _walk(tail, head, group) -> list:
    """``_loops`` by its definition: per group, from its smallest vertex with
    an unused exit, leave each vertex by its smallest unused exit."""
    exits = defaultdict(list)
    for g, t, h in sorted(zip(group, tail, head)):
        exits[g, t].append(h)
    loops = []
    for g, start in sorted(exits):
        while exits[g, start]:
            loop, v = [], start
            while not loop or v != start:
                loop.append(v)
                v = exits[g, v].pop(0)
            loops.append((g, loop))
    return loops


@st.composite
def rims(draw):
    """Directed cycles in random groups, shuffled: a vertex is in one cycle
    of its group (one exit) unless two cycles of a group share it."""
    edges = []
    for g in draw(st.lists(st.integers(0, 50), max_size=8, unique=True)):
        for _ in range(draw(st.integers(1, 3))):
            cycle = draw(st.lists(st.integers(0, 40), min_size=2, max_size=9, unique=True))
            edges += [(t, h, g) for t, h in zip(cycle, cycle[1:] + cycle[:1])]
    edges = draw(st.permutations(edges))
    return tuple(np.array([e[k] for e in edges], dtype=np.int64).reshape(-1) for k in range(3))


@settings(max_examples=300, deadline=None)
@given(rims())
def test_array_loops_are_the_walk(edges):
    groups, offsets, vertices = (a.tolist() for a in _loops(*edges))
    loops = [(g, vertices[a:b]) for g, a, b in zip(groups, offsets, offsets[1:])]
    assert loops == _walk(*(column.tolist() for column in edges))


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
    # Python ints (dtype object), as beyond _INT64_BOUND, for rows of any size
    assert _symmetry_order(np.array(rows, dtype=object).reshape(-1, 4)) == want
    if all(abs(v) < 2 ** 63 for row in rows for v in row):
        # int64 rows go straight in; the packing leaves int64 where it could overflow
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
