"""The array-backed patch core: deflation against the scalar slot table,
the vectorised shape rule against the scalar one, coordinates beyond the
int64 bound, and pipelines that never build a Triangle per triangle, nor a
DocTriangle or CycloPoint per document line."""

import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fivefold import document
from fivefold.cli import main
from fivefold.document import (
    DocTriangle,
    DocumentError,
    document_to_patch,
    patch_to_document,
    read_tiling,
    tiling_to_document,
    write_tiling,
)
from fivefold.exact import CycloPoint
from fivefold.grouping import (
    SET_B,
    count_tiles,
    detect_composites,
    glue_rhombs,
    verify_grouping,
)
from fivefold.svg import RenderOptions, render_svg
from fivefold.triangles import (
    _INT64_BOUND,
    Patch,
    Triangle,
    _children,
    _coord_array,
    _shape_problem,
    _shape_rule,
    deflate_patch,
    homothety_rotation,
    seed_patch,
    seed_sun,
    seed_wheel,
    validate_patch,
)

SEEDS = ["sun", "wheel", "acute", "obtuse"]


@pytest.mark.parametrize("seed", SEEDS)
def test_deflation_matches_the_scalar_slot_table(seed):
    """Each generation of deflate_patch equals repeated scalar _children:
    coordinates, kinds, chirality and parents."""
    start = seed_patch(seed)
    scalar = [start.triangles]
    for _ in range(7):
        scalar.append(tuple(child for i, t in enumerate(scalar[-1])
                            for child in _children(t, i)))
    patch = deflate_patch(start, 7)
    for generation in range(7, -1, -1):
        assert patch.generation == generation
        assert patch.triangles == scalar[generation]
        assert patch.parent.tolist() == [
            -1 if t.parent is None else t.parent for t in scalar[generation]]
        patch = patch.ancestor
    assert patch is None


# ------------------------------------------------- the one shape rule

TRIANGLES = deflate_patch(seed_sun(), 3).triangles + deflate_patch(seed_wheel(), 2).triangles


@st.composite
def shape_rows(draw):
    """A deflated triangle with one coordinate nudged or one vertex copied
    onto another, under any kind and a chirality of -1, 0 or 1."""
    t = draw(st.sampled_from(TRIANGLES))
    points = [list(p.coords()) for p in t.points()]
    if draw(st.booleans()):
        points[draw(st.integers(0, 2))][draw(st.integers(0, 3))] += draw(st.integers(-2, 2))
    else:
        i, j = draw(st.sampled_from([(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]))
        points[j] = list(points[i])
    return draw(st.sampled_from("AO")), draw(st.sampled_from([1, -1, 0])), points


@settings(max_examples=300, deadline=None)
@given(st.lists(shape_rows(), min_size=1, max_size=6),
       st.sampled_from([0, 10 ** 7, 10 ** 30]))
def test_shape_rule_agrees_with_shape_problem(rows, shift):
    kinds = _coord_array([1 if kind == "O" else 0 for kind, _, _ in rows])
    chirality = _coord_array([s for _, s, _ in rows])
    coords = _coord_array([[[z + shift for z in p] for p in points]
                           for _, _, points in rows])
    assert (coords.dtype == object) == (shift > _INT64_BOUND)
    got = _shape_rule(kinds, chirality, coords).tolist()
    assert got == [_shape_problem(kind, s, *map(tuple, points)) is None
                   for kind, s, points in rows]


# ------------------------------------------- coordinates beyond int64

FAR = CycloPoint(10_000_019, -9_999_991, 10_000_079, -10_000_103)
HUGE = CycloPoint(10 ** 30, -(10 ** 30) + 7, 3, 10 ** 30 + 1)


def translated(patch, shift):
    return Patch(tuple(t.transform(lambda p: p + shift) for t in patch.triangles),
                 generation=patch.generation, seed=patch.seed)


@pytest.mark.parametrize("shift", [FAR, HUGE], ids=["far", "huge"])
def test_translation_changes_nothing_but_the_coordinates(shift):
    sun = deflate_patch(seed_sun(), 3)
    moved = translated(sun, shift)
    assert moved.coords.dtype == object
    assert validate_patch(moved) == validate_patch(sun)
    assert moved.corners == sun.corners
    assert moved.vertices == tuple(p + shift for p in sun.vertices)
    # the canonical frame compares absolute keys, so the order of groups,
    # and which of two overlapping candidates wins, may move with the patch
    assert ({(g.kind, g.indices) for g in glue_rhombs(moved).groups}
            == {(g.kind, g.indices) for g in glue_rhombs(sun).groups})
    assert verify_grouping(detect_composites(moved, SET_B)).ok
    broken = Patch(sun.triangles[:40] + sun.triangles[41:])
    problems = validate_patch(broken).problems
    assert problems and "(" in problems[0]  # a message that names a point
    assert validate_patch(translated(broken, shift)).problems == tuple(
        re.sub(r"\((-?\d+),(-?\d+),(-?\d+),(-?\d+)\)",
               lambda m: str(CycloPoint(*map(int, m.groups())) + shift), problem)
        for problem in problems)


@pytest.mark.parametrize("glued", [False, True], ids=["plain", "glued"])
def test_a_file_beyond_int64_reads_back_as_written(glued):
    # numpy refuses the vertex block, so the reader's line walk reads it
    sun = translated(deflate_patch(seed_sun(), 3), HUGE)
    doc = tiling_to_document(glue_rhombs(sun)) if glued else patch_to_document(sun)
    data = write_tiling(doc)
    back = read_tiling(data)
    assert back._arrays[0].dtype == object
    for written, read in zip(doc._arrays, back._arrays):
        assert read.dtype == written.dtype and read.tolist() == written.tolist()
    assert back.groups == doc.groups
    assert write_tiling(back) == data
    lines = data.decode().split("\n")
    at = next(k for k, line in enumerate(lines) if line.startswith("vertices ")) + 1
    given = "+" + lines[at]
    lines[at] = given
    with pytest.raises(DocumentError, match=re.escape(
            f"line {at + 1}: not in canonical form: expected {given[1:]!r}, got {given!r}")):
        read_tiling("\n".join(lines).encode())


def test_deflation_crosses_the_int64_bound():
    # one acute triangle just inside the bound: its children leave it
    edge = _INT64_BOUND - 10
    near = translated(seed_patch("acute"), CycloPoint(edge, 0, 0, 0))
    assert near.coords.dtype != object
    deep = deflate_patch(near, 3)
    assert deep.coords.dtype == object or deep.coords.max() <= _INT64_BOUND
    assert deep.triangles == translated(deflate_patch(seed_patch("acute"), 3),
                                        CycloPoint(edge, 0, 0, 0)).triangles
    assert validate_patch(deep).ok


# ------------------------------------------------------- empty groups

class TestEmptyGroup:
    """A group line with a kind and no indices, as a writer that took
    ('ThinRhomb', ()) would have written it, with a trailing space."""

    @pytest.fixture
    def wheel_doc(self):
        return tiling_to_document(glue_rhombs(seed_wheel()))

    @pytest.fixture
    def data(self, wheel_doc):
        text = write_tiling(wheel_doc).decode()
        assert "\ngroups 5\n" in text
        return text.replace("\ngroups 5\n", "\ngroups 6\n").replace(
            "\nend\n", "\nThinRhomb \nend\n").encode()

    def test_writer_refuses(self, wheel_doc):
        doc = replace(wheel_doc, groups=wheel_doc.groups + (("ThinRhomb", ()),))
        with pytest.raises(DocumentError, match="^group 5: no triangles$"):
            write_tiling(doc)

    def test_reader_refuses(self, data):
        with pytest.raises(DocumentError, match="^line 34: group 5: no triangles$"):
            read_tiling(data)

    def test_stats_exits_1(self, data, tmp_path, capsys):
        path = tmp_path / "empty-group.qtile"
        path.write_bytes(data)
        assert main(["stats", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: line 34: group 5: no triangles\n"
        assert captured.out == ""


# ---------------------------------------------- no Triangle per triangle

@pytest.fixture
def triangles_built(monkeypatch):
    """Count every Triangle object made."""
    built = []
    init = Triangle.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Triangle, "__init__", counting)
    return built


def sun_rhombs(seed: Patch) -> bytes:
    """deflate -> verify -> group --policy rhombs -> render, as the sun
    benchmark workload calls the layers."""
    data = write_tiling(patch_to_document(deflate_patch(seed, 4)))
    patch = document_to_patch(read_tiling(data))
    assert validate_patch(patch).ok
    tiling = glue_rhombs(patch)
    assert verify_grouping(tiling).ok
    doc = read_tiling(write_tiling(tiling_to_document(tiling)))
    return render_svg(doc, RenderOptions(atoms=True))


def wheel_setb(data: bytes) -> bytes:
    """group --policy setb -> render on a stored wheel, as the wheel
    benchmark workload calls the layers."""
    tiling = detect_composites(document_to_patch(read_tiling(data)), SET_B)
    assert verify_grouping(tiling).ok and count_tiles(tiling)
    doc = read_tiling(write_tiling(tiling_to_document(tiling)))
    return render_svg(doc, RenderOptions(atoms=True, overlay=(2, 1)))


def test_pipelines_build_no_triangle_objects(triangles_built):
    wheel = write_tiling(patch_to_document(deflate_patch(seed_wheel(), 4)))
    sun = seed_sun()
    svgs = sun_rhombs(sun), wheel_setb(wheel)  # fills the template caches
    triangles_built.clear()
    assert (sun_rhombs(sun), wheel_setb(wheel)) == svgs
    assert triangles_built == []


def test_cli_verify_builds_no_triangle_objects(triangles_built, tmp_path, capsys):
    path = tmp_path / "sun4.qtile"
    assert main(["deflate", "--seed", "sun", "--steps", "4", "--out", str(path)]) == 0
    count = len(deflate_patch(seed_sun(), 4))
    capsys.readouterr()
    triangles_built.clear()
    assert main(["verify", str(path)]) == 0
    assert triangles_built == []
    assert capsys.readouterr().err == f"ok: {count} triangles, generation 4\n"


def test_a_bad_triangle_is_named_from_its_row_alone(triangles_built):
    sun = deflate_patch(seed_sun(), 4)
    coords, kind, chirality, parent = sun._arrays
    flipped = chirality.copy()
    flipped[100] = -flipped[100]
    triangles_built.clear()
    report = validate_patch(Patch._from_arrays(coords, kind, flipped, parent))
    assert triangles_built == [1]
    assert report.problems == (f"triangle 100: stored chirality {flipped[100]} "
                               f"contradicts geometry ({chirality[100]})",)


def test_homothety_builds_no_triangle_objects(triangles_built):
    sun = deflate_patch(seed_sun(), 4)
    triangles_built.clear()
    turned = homothety_rotation(sun, 2, 1)
    assert triangles_built == []
    assert validate_patch(turned).ok and turned.parent.tolist() == sun.parent.tolist()


def test_cli_deflate_counts_vertices_without_points(monkeypatch, tmp_path, capsys):
    built = []
    init = CycloPoint.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    def deflate(steps: int) -> int:
        path = tmp_path / f"sun{steps}.qtile"
        patch = deflate_patch(seed_sun(), steps)
        monkeypatch.setattr(CycloPoint, "__init__", counting)
        built.clear()
        assert main(["deflate", "--seed", "sun", "--steps", str(steps), "--out", str(path)]) == 0
        monkeypatch.undo()
        assert capsys.readouterr().err == (
            f"wrote {path}: {len(patch)} triangles, {len(patch.vertices)} vertices\n")
        return len(built)

    deflate(3)  # fills the cached matrix of 1/tau
    assert deflate(4) == deflate(5)


@pytest.fixture
def line_objects(monkeypatch):
    """Count the DocTriangle and CycloPoint objects made inside the calls
    of the pipelines above into the document and svg layers."""
    counts = {DocTriangle: 0, CycloPoint: 0}
    inside = []
    for cls in counts:
        def counting(self, *args, init=cls.__init__, cls=cls, **kwargs):
            counts[cls] += bool(inside)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    def doc_triangles(*args, build=document._doc_triangles):
        # the bulk builder fills DocTriangles without their __init__
        rows = build(*args)
        counts[DocTriangle] += len(rows) * bool(inside)
        return rows

    monkeypatch.setattr(document, "_doc_triangles", doc_triangles)
    for name in ("read_tiling", "write_tiling", "document_to_patch", "patch_to_document",
                 "tiling_to_document", "render_svg"):
        def layer(*args, call=globals()[name], **kwargs):
            inside.append(call)
            try:
                return call(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(sys.modules[__name__], name, layer)
    return counts


def test_pipelines_build_no_object_per_document_line(line_objects):
    def built(generation: int) -> dict:
        wheel = write_tiling(patch_to_document(deflate_patch(seed_wheel(), generation)))
        line_objects.update(dict.fromkeys(line_objects, 0))
        sun_rhombs(deflate_patch(seed_sun(), generation - 4))
        wheel_setb(wheel)
        return dict(line_objects)

    small, large = built(4), built(5)
    assert small[DocTriangle] == large[DocTriangle] == 0
    # the overlay factor's points, the same at every size: none per vertex
    assert small[CycloPoint] == large[CycloPoint] < 50


@pytest.mark.parametrize("column,value,message,doc_triangles", [
    (4, "-1", "stored chirality -1 contradicts geometry (1)", 0),
    (5, "9999", "parent index 9999 out of range", 1),
], ids=["shape", "structure"])
def test_a_bad_line_builds_no_object_per_line(line_objects, column, value, message,
                                                doc_triangles):
    """Only the bad triangle's row is built, and only when its message needs
    a DocTriangle."""
    lines = write_tiling(patch_to_document(deflate_patch(seed_sun(), 5))).decode().split("\n")
    first = lines.index("triangles 890") + 1
    at = next(k for k in range(first, len(lines)) if lines[k].split()[4] == "+1")
    fields = lines[at].split()
    fields[column] = value
    lines[at] = " ".join(fields)
    with pytest.raises(DocumentError, match=re.escape(
            f"line {at + 1}: triangle {at - first}: {message}")):
        read_tiling("\n".join(lines).encode())
    assert line_objects == {DocTriangle: doc_triangles, CycloPoint: 0}
