import hashlib
import math
from dataclasses import replace
from functools import cache, cached_property

import pytest
from hypothesis import given, settings, strategies as st

from fivefold import document
from fivefold.document import (
    DocTriangle,
    DocumentError,
    ProjectionMeta,
    TilingDocument,
    document_to_patch,
    patch_to_document,
    quasilattice_to_document,
    read_tiling,
    tiling_to_document,
    write_tiling,
)
from fivefold.grouping import RHOMBS, SET_B, detect_composites, glue_rhombs, templates
from fivefold.projection import LatticeEnumeration, generate_quasilattice
from fivefold.svg import RenderOptions, render_svg
from fivefold.triangles import (
    Patch,
    deflate_patch,
    seed_patch,
    seed_sun,
    seed_wheel,
    validate_disk,
    validate_patch,
)


@pytest.fixture(scope="module")
def sun_doc():
    return patch_to_document(deflate_patch(seed_sun(), 2))


class TestRoundTrip:
    def test_write_read_write_bytewise(self, sun_doc):
        blob = write_tiling(sun_doc)
        again = write_tiling(read_tiling(blob))
        assert blob == again

    def test_seed_sun_vertex_count(self):
        doc = patch_to_document(seed_sun())
        assert len(doc.vertices) == 11

    def test_patch_round_trip_preserves_geometry(self):
        patch = deflate_patch(seed_wheel(), 3)
        doc = patch_to_document(patch)
        back = document_to_patch(read_tiling(write_tiling(doc)))
        assert back.generation == patch.generation
        assert back.seed == patch.seed
        assert [t.points() for t in back.triangles] == [
            t.points() for t in patch.triangles]
        assert validate_patch(back).ok

    def test_grouped_document_round_trip(self):
        tiling = detect_composites(deflate_patch(seed_wheel(), 3), SET_B)
        doc = tiling_to_document(tiling)
        blob = write_tiling(doc)
        back = read_tiling(blob)
        assert back.groups == doc.groups
        assert write_tiling(back) == blob

    def test_projection_document_round_trip(self):
        enum = LatticeEnumeration(box=5, radius=3.0)
        pts = generate_quasilattice(3.0, (0.01, 0.0137, 0.0071), 5, enumeration=enum)
        doc = quasilattice_to_document(pts, (0.01, 0.0137, 0.0071), 3.0, 5)
        blob = write_tiling(doc)
        back = read_tiling(blob)
        assert back.projection == ProjectionMeta((0.01, 0.0137, 0.0071), 3.0, 5)
        assert write_tiling(back) == blob


class TestValidation:
    def test_out_of_range_index_rejected(self, sun_doc):
        lines = write_tiling(sun_doc).decode().split("\n")
        for i, line in enumerate(lines):
            if line.startswith(("A ", "O ")):
                parts = line.split()
                parts[1] = "999"
                lines[i] = " ".join(parts)
                break
        with pytest.raises(DocumentError, match="999"):
            read_tiling("\n".join(lines).encode())

    def test_unknown_version_rejected(self, sun_doc):
        blob = write_tiling(sun_doc).decode().replace("qtile 1", "qtile 9", 1)
        with pytest.raises(DocumentError, match="version"):
            read_tiling(blob.encode())

    def test_non_canonical_vertex_order_rejected(self, sun_doc):
        lines = write_tiling(sun_doc).decode().split("\n")
        first_vertex = lines.index("vertices 31") + 1 if "vertices 31" in lines else 6
        # find the vertices section generically
        for i, line in enumerate(lines):
            if line.startswith("vertices "):
                first_vertex = i + 1
                break
        lines[first_vertex], lines[first_vertex + 1] = (
            lines[first_vertex + 1], lines[first_vertex])
        with pytest.raises(DocumentError, match="order"):
            read_tiling("\n".join(lines).encode())

    def test_truncated_file_rejected(self, sun_doc):
        blob = write_tiling(sun_doc)
        with pytest.raises(DocumentError):
            read_tiling(blob[: len(blob) // 2])

    def test_wrong_chirality_rejected(self, sun_doc):
        blob = write_tiling(sun_doc).decode()
        lines = blob.split("\n")
        for i, line in enumerate(lines):
            if line.startswith(("A ", "O ")):
                parts = line.split()
                parts[4] = "+1" if parts[4] == "-1" else "-1"
                lines[i] = " ".join(parts)
                break
        with pytest.raises(DocumentError, match="chirality"):
            read_tiling("\n".join(lines).encode())

    def test_groups_line_without_count_rejected(self):
        blob = write_tiling(tiling_to_document(glue_rhombs(seed_wheel())))
        lines = blob.decode().split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("groups "))
        lines[at] = "groups "
        with pytest.raises(DocumentError, match=f"line {at + 1}: expected 'groups <n>'"):
            read_tiling("\n".join(lines).encode())

    def test_seed_without_separator_rejected(self):
        blob = write_tiling(patch_to_document(seed_sun()))
        assert b"\nseed sun\n" in blob
        with pytest.raises(DocumentError, match="line 3: expected 'seed <name>'"):
            read_tiling(blob.replace(b"\nseed sun\n", b"\nseedsun\n"))

    @pytest.mark.parametrize("tail", [b"\n", b"extra\n", b"end\n", b" "])
    def test_bytes_after_end_rejected(self, sun_doc, tail):
        blob = write_tiling(sun_doc)
        with pytest.raises(DocumentError, match="'end' must be the last line"):
            read_tiling(blob + tail)

    def test_missing_final_newline_rejected(self, sun_doc):
        blob = write_tiling(sun_doc)
        with pytest.raises(DocumentError, match="ending in one newline"):
            read_tiling(blob[:-1])

    @pytest.mark.parametrize("old,new", [
        ("generation 1", "generation 01"),
        ("vertices 16", "vertices +16"),
        ("triangles 20", "triangles  20"),
        ("\nA 14 13 5 +1 0\n", "\nA 14 13 5 1 0\n"),
        ("\nA 14 13 5 +1 0\n", "\nA 14  13 5 +1 0\n"),
        ("\nA 14 13 5 +1 0\n", "\nA 14 13 5 +1 0 \n"),
        ("\n0 0 0 1\n", "\n0 0 0 1_0\n"),
        ("\n0 0 1 0\n", "\n0 0 1 -0\n"),
        ("qtile 1", "qtile 01"),
    ])
    def test_non_canonical_spelling_rejected(self, old, new):
        blob = write_tiling(patch_to_document(deflate_patch(seed_sun(), 1))).decode()
        assert old in blob
        bad = blob.replace(old, new, 1)
        line = bad[:bad.index(new.strip("\n"))].count("\n") + 1
        with pytest.raises(DocumentError, match=f"line {line}: not in canonical form"):
            read_tiling(bad.encode())

    def test_non_canonical_group_line_rejected(self):
        blob = write_tiling(tiling_to_document(glue_rhombs(seed_wheel()))).decode()
        lines = blob.split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("groups ")) + 1
        lines[at] = lines[at].replace(" ", "  ", 1)
        with pytest.raises(DocumentError, match=f"line {at + 1}: not in canonical form"):
            read_tiling("\n".join(lines).encode())

    def test_non_canonical_projection_float_rejected(self):
        doc = TilingDocument(seed="projection",
                             projection=ProjectionMeta((0.01, 0.0137, 0.0071), 3.0, 5))
        blob = write_tiling(doc)
        assert b"projection 0.01 0.0137 0.0071 3.0 5\n" in blob
        with pytest.raises(DocumentError, match="not in canonical form"):
            read_tiling(blob.replace(b" 3.0 ", b" 3.00 "))

    def test_negative_count_rejected(self):
        blob = write_tiling(patch_to_document(seed_sun())).decode()
        bad = blob.replace("triangles 10\n", "triangles -1\n")
        with pytest.raises(DocumentError, match="triangles must be >= 0"):
            read_tiling(bad.encode())

    def test_parent_out_of_range_rejected(self):
        doc = patch_to_document(deflate_patch(seed_sun(), 1))
        assert len(doc.triangles) == 20 and doc.triangles[0].parent == 0
        blob = write_tiling(doc).decode()
        bad = blob.replace("\nA 14 13 5 +1 0\n", "\nA 14 13 5 +1 999\n", 1)
        assert bad != blob
        with pytest.raises(DocumentError, match="parent index 999 out of range"):
            read_tiling(bad.encode())
        last = len(doc.triangles) - 1
        with pytest.raises(DocumentError, match="parent index 20 out of range"):
            read_tiling(bad.replace(" 999\n", " 20\n").encode())
        assert read_tiling(bad.replace(" 999\n", f" {last}\n").encode())

    def test_changed_kind_rejected(self, sun_doc):
        blob = write_tiling(sun_doc).decode()
        at = blob.index("\nA ")
        bad = blob[:at + 1] + "O" + blob[at + 2:]
        with pytest.raises(DocumentError, match="triangle 0: obtuse ratio broken"):
            read_tiling(bad.encode())
        at = blob.index("\nO ")
        index = blob[:at].count("\nA ")  # triangles before the first obtuse one
        bad = blob[:at + 1] + "A" + blob[at + 2:]
        with pytest.raises(DocumentError, match=f"triangle {index}: acute ratio broken"):
            read_tiling(bad.encode())

    def test_scalene_triangle_rejected(self):
        # apex 0, legs 2 and 1 along the 0- and 72-degree rays
        doc = TilingDocument(vertices=((0, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0)),
                             triangles=(DocTriangle("A", 0, 2, 1, 1),))
        with pytest.raises(DocumentError, match="triangle 0: not isosceles"):
            doc.validate()
        with pytest.raises(DocumentError, match="not isosceles"):
            write_tiling(doc)

    def test_every_template_shape_accepted(self):
        for kind, template in templates().items():
            doc = patch_to_document(Patch(template.parts))
            assert read_tiling(write_tiling(doc)) == doc, kind

    def test_writer_validates(self):
        bad = TilingDocument(vertices=((0, 0, 0, 0),),
                             triangles=(DocTriangle("A", 0, 0, 5, 1),))
        with pytest.raises(DocumentError):
            write_tiling(bad)


class TestLineNumbers:
    """A fault inside a counted block is named with its message and line."""

    @pytest.fixture(scope="class")
    def sun1(self):
        return write_tiling(patch_to_document(deflate_patch(seed_sun(), 1))).decode()

    @staticmethod
    def rejected(text, number, old, new):
        lines = text.split("\n")
        assert lines[number - 1] == old
        lines[number - 1] = new
        with pytest.raises(DocumentError) as e:
            read_tiling("\n".join(lines).encode())
        return str(e.value)

    def test_middle_vertex_with_three_tokens(self, sun1):
        assert sun1.split("\n")[4] == "vertices 16"
        assert (self.rejected(sun1, 14, "0 0 1 0", "0 0 1")
                == "line 14: vertex must have 4 integer coordinates")

    def test_middle_triangle_with_non_integer_token(self, sun1):
        assert sun1.split("\n")[21] == "triangles 20"
        assert (self.rejected(sun1, 33, "A 9 7 2 -1 5", "A 9 7 x -1 5")
                == "line 33: expected integer, got 'x'")

    def test_group_line_with_bad_index(self):
        text = write_tiling(tiling_to_document(glue_rhombs(seed_wheel()))).decode()
        assert text.split("\n")[27] == "groups 5"
        assert (self.rejected(text, 31, "ThickRhomb 8 9", "ThickRhomb 8 9x")
                == "line 31: expected integer, got '9x'")

    def test_triangle_count_beyond_the_block(self, sun1):
        # the 21st triangle line is 'end'
        assert (self.rejected(sun1, 22, "triangles 20", "triangles 21")
                == "line 43: triangle must be 'kind apex base0 base1 chirality parent'")
        # the file stops, without a final newline, after the 8th triangle line
        cut = "\n".join(sun1.split("\n")[:30])
        with pytest.raises(DocumentError, match="^line 31: unexpected end of file$"):
            read_tiling(cut.encode())

    def test_file_ending_at_a_block_count(self, sun1):
        for number in (5, 22):  # 'vertices 16', 'triangles 20'
            cut = "\n".join(sun1.split("\n")[:number])
            with pytest.raises(DocumentError,
                               match=f"^line {number + 1}: unexpected end of file$"):
                read_tiling(cut.encode())

    def test_non_canonical_last_triangle(self, sun1):
        assert sun1.split("\n")[42] == "end"
        assert (self.rejected(sun1, 42, "O 13 3 6 -1 9", "O 13 3 6 -1 09")
                == "line 42: not in canonical form: expected 'O 13 3 6 -1 9', "
                   "got 'O 13 3 6 -1 09'")


class TestValidateOnce:
    @pytest.fixture
    def shape_calls(self, monkeypatch):
        """One entry per triangle row passed to the shape rule."""
        calls = []
        rule = document._shape_rule

        def counting(kind, chirality, coords):
            calls.extend(zip(kind, chirality, coords))
            return rule(kind, chirality, coords)

        monkeypatch.setattr(document, "_shape_rule", counting)
        return calls

    def test_read_to_patch_to_svg_checks_each_shape_once(self, shape_calls):
        data = write_tiling(patch_to_document(deflate_patch(seed_sun(), 3)))
        shape_calls.clear()
        doc = read_tiling(data)
        document_to_patch(doc)
        render_svg(doc)
        assert len(shape_calls) == len(doc.triangles) == 130

    def test_invalid_document_refused_by_every_caller(self, shape_calls):
        doc = TilingDocument(vertices=((0, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0)),
                             triangles=(DocTriangle("A", 0, 2, 1, 1),))
        for call in (TilingDocument.validate, write_tiling, document_to_patch,
                     render_svg):
            with pytest.raises(DocumentError, match="triangle 0: not isosceles"):
                call(doc)
        assert len(shape_calls) == 1


class TestOneVertexTable:
    @pytest.mark.parametrize("seed", ["sun", "wheel", "acute", "obtuse"])
    def test_read_patch_keeps_the_patch_table(self, seed):
        for generation in range(7):
            p = deflate_patch(seed_patch(seed), generation)
            read = document_to_patch(read_tiling(write_tiling(patch_to_document(p))))
            fresh = Patch(p.triangles)
            assert read.vertices == p.vertices == fresh.vertices
            assert read.corners == p.corners == fresh.corners

    @pytest.fixture
    def table_builds(self, monkeypatch):
        """Count every numbering of a patch's vertices, Patch._numbering;
        Patch.vertices and Patch.corners are views of it."""
        builds = []
        build = Patch._numbering.func

        def counting(patch):
            builds.append("_numbering")
            return build(patch)

        prop = cached_property(counting)
        prop.__set_name__(Patch, "_numbering")
        monkeypatch.setattr(Patch, "_numbering", prop)
        return builds

    def test_read_pipeline_never_numbers_vertices(self, table_builds):
        sun = deflate_patch(seed_sun(), 3)
        data = write_tiling(patch_to_document(sun))
        assert table_builds == ["_numbering"]
        expected = tiling_to_document(glue_rhombs(sun))
        table_builds.clear()
        patch = document_to_patch(read_tiling(data))
        assert validate_disk(patch).ok
        assert tiling_to_document(glue_rhombs(patch)) == expected
        assert table_builds == []

    def test_projection_document_gives_an_empty_patch(self):
        doc = quasilattice_to_document(generate_quasilattice(2.0, (0.01, 0.0137, 0.0071), 4),
                                       (0.01, 0.0137, 0.0071), 2.0, 4)
        patch = document_to_patch(doc)
        assert doc.vertices and patch.vertices == () and patch.corners == ()


@cache
def grouped_patch(seed: str, generation: int, policy: str | None):
    patch = deflate_patch(seed_patch(seed), generation)
    return patch, policy and detect_composites(patch, {"rhombs": RHOMBS, "setb": SET_B}[policy])


def document_from_tuples(patch: Patch, tiling=None) -> TilingDocument:
    """The document of a patch built from its exact triangles, a tuple at
    a time: the reference that the array document must equal."""
    vertices = tuple(sorted({p.coords() for t in patch.triangles for p in t.points()}))
    number = {v: i for i, v in enumerate(vertices)}
    triangles = tuple(DocTriangle(t.kind.value, *(number[p.coords()] for p in t.points()),
                                  t.chirality, t.parent) for t in patch.triangles)
    groups = tiling and tuple((g.kind.value, g.indices) for g in tiling.groups)
    return TilingDocument(seed=patch.seed, generation=patch.generation, vertices=vertices,
                          triangles=triangles, groups=groups)


class TestArrayDocument:
    """A document is stored as arrays; its tuples are views with the old
    value semantics."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["sun", "wheel", "acute", "obtuse"]), st.integers(0, 6),
           st.sampled_from([None, "rhombs", "setb"]))
    def test_round_trip_equals_the_tuple_document(self, seed, generation, policy):
        patch, tiling = grouped_patch(seed, generation, policy)
        data = write_tiling(tiling_to_document(tiling) if tiling else patch_to_document(patch))
        expected = document_from_tuples(patch, tiling)
        assert write_tiling(read_tiling(data)) == data == write_tiling(expected)
        assert read_tiling(data) == expected

    def test_constructor_replace_and_equality_keep_their_meaning(self):
        doc = read_tiling(write_tiling(tiling_to_document(glue_rhombs(seed_wheel()))))
        built = TilingDocument(vertices=doc.vertices, triangles=doc.triangles,
                               groups=doc.groups, seed=doc.seed)
        assert built == doc and hash(built) == hash(doc) and built != replace(doc, seed="x")
        more = replace(doc, vertices=doc.vertices + ((50, 0, 0, 0),))
        assert more.vertices[-1] == (50, 0, 0, 0) and more != doc
        assert more.triangles == doc.triangles and more.groups == doc.groups
        with pytest.raises(DocumentError, match=f"^vertex {len(doc.vertices)} is not a corner"):
            write_tiling(more)

    @pytest.mark.parametrize("seed,policy,options,digest", [
        ("sun", "rhombs", RenderOptions(atoms=True),
         "ec66c2ecdba74a5f43eae736d502ed2e12c63e6cbb1aaa21f9e4943ed2871add"),
        ("wheel", "setb", RenderOptions(atoms=True, overlay=(2, 1)),
         "94931aa688d76b4c6a35fc39c1224d678bb272ff6bfefc2597d248972b9ac61d"),
    ], ids=["sun4-rhombs", "wheel4-setb"])
    def test_svg_digest_unchanged(self, seed, policy, options, digest):
        # recorded with the renderer that built one CycloPoint per vertex
        patch = deflate_patch(seed_patch(seed), 4)
        tiling = glue_rhombs(patch) if policy == "rhombs" else detect_composites(patch, SET_B)
        svg = render_svg(tiling_to_document(tiling), options)
        assert hashlib.sha256(svg).hexdigest() == digest


def sun1_with_orphan() -> TilingDocument:
    """Sun generation 1 with one more vertex, (50, 0, 0, 0), that no
    triangle uses: it sorts last, so no triangle index moves."""
    doc = patch_to_document(deflate_patch(seed_sun(), 1))
    return replace(doc, vertices=doc.vertices + ((50, 0, 0, 0),))


def orphan_file() -> bytes:
    text = write_tiling(patch_to_document(deflate_patch(seed_sun(), 1))).decode()
    text = text.replace("vertices 16\n", "vertices 17\n")
    return text.replace("\ntriangles ", "\n50 0 0 0\ntriangles ").encode()


class TestEveryVertexIsACorner:
    def test_writer_refuses_an_orphan_vertex(self):
        with pytest.raises(DocumentError, match="^vertex 16 is not a corner of any triangle$"):
            write_tiling(sun1_with_orphan())

    def test_reader_refuses_an_orphan_vertex(self):
        with pytest.raises(DocumentError,
                           match="^line 22: vertex 16 is not a corner of any triangle$"):
            read_tiling(orphan_file())

    def test_vertices_without_triangles_allowed(self):
        doc = TilingDocument(vertices=((0, 0, 0, 0), (1, 0, 0, 0)))
        assert read_tiling(write_tiling(doc)) == doc


HEADER_STRINGS = [("seed", "a\nb"), ("unit_note", "x\ny"), ("seed", "\u00e9"),
                  ("unit_note", "\u00e9")]
HEADER_IDS = ["seed-newline", "unit-newline", "seed-non-ascii", "unit-non-ascii"]


class TestHeaderStrings:
    @pytest.mark.parametrize("field,text", HEADER_STRINGS, ids=HEADER_IDS)
    def test_writer_refuses(self, field, text):
        name = "unit note" if field == "unit_note" else "seed"
        with pytest.raises(DocumentError, match=f"^{name} must be one line of ASCII text$"):
            write_tiling(TilingDocument(**{field: text}))

    @pytest.mark.parametrize("field,text,problem", [
        (*HEADER_STRINGS[0], "line 4: expected 'generation <n>'"),
        (*HEADER_STRINGS[1], "line 3: expected 'seed <name>'"),
        (*HEADER_STRINGS[2], "not an ascii document"),
        (*HEADER_STRINGS[3], "not an ascii document"),
    ], ids=HEADER_IDS)
    def test_reader_refuses_what_the_writer_would_have_emitted(self, field, text, problem):
        header = {"unit_note": document.UNIT_NOTE, "seed": "", field: text}
        data = (f"qtile 1\nunit {header['unit_note']}\nseed {header['seed']}\n"
                "generation 0\nvertices 0\ntriangles 0\nend\n").encode()
        with pytest.raises(DocumentError, match=problem):
            read_tiling(data)


GOOD_PROJECTION = ProjectionMeta((0.01, 0.0137, 0.0071), 3.0, 5)
BAD_PROJECTIONS = [
    (ProjectionMeta((math.nan, 0.0137, 0.0071), 3.0, 5), "gamma must be finite"),
    (ProjectionMeta((0.01, 0.0137, -math.inf), 3.0, 5), "gamma must be finite"),
    (ProjectionMeta((0.01, 0.0137, 0.0071), math.nan, 5), "radius must be finite"),
    (ProjectionMeta((0.01, 0.0137, 0.0071), math.inf, 5), "radius must be finite"),
    (ProjectionMeta((0.01, 0.0137, 0.0071), 0.0, 5), "radius must be finite and positive"),
    (ProjectionMeta((0.01, 0.0137, 0.0071), -3.0, 5), "radius must be finite and positive"),
    (ProjectionMeta((0.01, 0.0137, 0.0071), 3.0, 0), "box must be >= 1"),
]
BAD_IDS = ["gamma-nan", "gamma-inf", "radius-nan", "radius-inf", "radius-zero",
           "radius-negative", "box-zero"]


class TestProjectionMetadata:
    @pytest.mark.parametrize("meta,problem", BAD_PROJECTIONS, ids=BAD_IDS)
    def test_writer_refuses(self, meta, problem):
        with pytest.raises(DocumentError, match=f"projection {problem}"):
            write_tiling(TilingDocument(seed="projection", projection=meta))

    @pytest.mark.parametrize("meta,problem", BAD_PROJECTIONS, ids=BAD_IDS)
    def test_reader_names_the_projection_line(self, meta, problem):
        good = write_tiling(TilingDocument(seed="projection", projection=GOOD_PROJECTION))
        lines = good.decode().split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("projection "))
        lines[at] = " ".join(["projection", *map(repr, meta.gamma), repr(meta.radius),
                              str(meta.box)])
        with pytest.raises(DocumentError, match=f"line {at + 1}: projection {problem}"):
            read_tiling("\n".join(lines).encode())


class TestSvg:
    def test_determinism(self, sun_doc):
        a = render_svg(sun_doc, RenderOptions(atoms=True))
        b = render_svg(sun_doc, RenderOptions(atoms=True))
        assert a == b

    def test_atom_count_matches_vertices(self):
        doc = patch_to_document(seed_sun())
        svg = render_svg(doc, RenderOptions(atoms=True)).decode()
        assert svg.count("<circle") == 11

    def test_polygon_count_per_triangle(self):
        doc = patch_to_document(deflate_patch(seed_sun(), 1))
        svg = render_svg(doc).decode()
        assert svg.count("<polygon") == 20

    def test_polygon_count_per_group(self):
        tiling = glue_rhombs(seed_wheel())
        doc = tiling_to_document(tiling)
        svg = render_svg(doc).decode()
        assert svg.count("<polygon") == 5

    def test_empty_document(self):
        svg = render_svg(TilingDocument()).decode()
        assert svg.startswith("<?xml")
        assert "<polygon" not in svg
        assert "</svg>" in svg

    def test_overlay_adds_outlines(self, sun_doc):
        base = render_svg(sun_doc).decode()
        overlaid = render_svg(sun_doc, RenderOptions(overlay=(2, 1))).decode()
        assert overlaid.count("<polygon") == 2 * base.count("<polygon")
        assert 'fill="none"' in overlaid

    def test_coordinates_match_embedding(self):
        doc = patch_to_document(seed_sun())
        svg = render_svg(doc, RenderOptions(scale=100.0)).decode()
        # origin vertex: x coordinate should be (0 - (min_x - margin)) * 100
        from fivefold.exact import CycloPoint
        xs = [CycloPoint(*v).embed()[0] for v in doc.vertices]
        ys = [CycloPoint(*v).embed()[1] for v in doc.vertices]
        x0 = (0.0 - (min(xs) - 0.5)) * 100.0
        y0 = ((max(ys) + 0.5) - 0.0) * 100.0
        assert f"{x0:.6f},{y0:.6f}" in svg
