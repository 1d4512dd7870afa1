"""The .qtile text format: an archival, human-diffable tiling container.

Geometry is stored exactly (integer quasilattice coordinates only); floats
appear only in the optional projection metadata line, written with repr so
reading them back is lossless.  The writer validates and canonicalizes
nothing silently: a document must already satisfy the invariants (sorted
deduplicated vertices, each a triangle corner when there are triangles,
in-range indices, geometry-consistent chirality, one-line ASCII header
strings) or writing refuses, and the reader rejects violations, naming
the line.
The reader also accepts only canonical spellings: it parses each counted
block in one pass, then compares its input with the writer's output for
the values read, so write(read(data)) == data for every document it accepts.
When a file has several faults, the structural ones (a count, a token
count, an integer, a projection value) are reported before a
non-canonical spelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Sequence

from . import FORMAT_VERSION
from .grouping import CompositeKind, CompositeTiling, _grouped, _ints
from .triangles import Patch, _coord_array, _shape_problem, _shape_rule

if TYPE_CHECKING:  # numpy is imported at first use
    import numpy as np

    from .projection import QuasiPoint

__all__ = [
    "DocTriangle",
    "ProjectionMeta",
    "TilingDocument",
    "DocumentError",
    "write_tiling",
    "read_tiling",
    "patch_to_document",
    "document_to_patch",
    "tiling_to_document",
    "quasilattice_to_document",
]

UNIT_NOTE = "edge-unit: acute base = 1, legs = tau, obtuse base = tau^2"


class DocumentError(ValueError):
    """Raised for malformed documents, with the offending location."""


@dataclass(frozen=True, slots=True)
class DocTriangle:
    kind: str           # "A" | "O"
    apex: int
    base0: int
    base1: int
    chirality: int
    parent: int | None = None


@dataclass(frozen=True, slots=True)
class ProjectionMeta:
    gamma: tuple[float, float, float]
    radius: float
    box: int


# the vertex and triangle lines as %-templates
_VERTEX = "%d %d %d %d"
_TRIANGLE = "%s %d %d %d %+d %d"
_KIND_NAMES = "AO"  # by kind code
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES)}
_GROUP_KINDS = frozenset(k.value for k in CompositeKind)


@dataclass(frozen=True)
class TilingDocument:
    """One .qtile document.

    A document is stored as arrays.  ``_arrays`` holds the (V, 4) vertex
    table and one row per triangle: kind (0 "A", 1 "O", -1 unknown), apex,
    base0, base1, chirality and parent (-1 for none, below -1 out of
    range).  ``_group_arrays`` holds each group's kind, the G + 1 offsets
    at which the groups start in a flat array of their triangle indices,
    and that array.  ``vertices``, ``triangles`` and ``groups`` are the same
    document as tuples.  A document made from either form builds the other
    the first time it is read; equality compares the tuples."""

    version: int = FORMAT_VERSION
    unit_note: str = UNIT_NOTE
    seed: str = ""
    generation: int = 0
    # default factories leave no class attribute behind, so that a document
    # made from arrays reaches __getattr__ for these three
    vertices: tuple[tuple[int, int, int, int], ...] = field(default_factory=tuple)
    triangles: tuple[DocTriangle, ...] = field(default_factory=tuple)
    groups: tuple[tuple[str, tuple[int, ...]], ...] | None = field(
        default_factory=lambda: None)
    projection: ProjectionMeta | None = None

    @classmethod
    def _from_arrays(cls, points: np.ndarray, table: np.ndarray, *,
                     version: int = FORMAT_VERSION, unit_note: str = UNIT_NOTE,
                     seed: str = "", generation: int = 0,
                     projection: ProjectionMeta | None = None, **known) -> TilingDocument:
        """A document given as ``_arrays``.  ``known`` gives ``groups`` or
        ``_group_arrays``, and may give other fields and cached values
        (``triangles``, ``_blocks``), which must be exactly what they would
        compute."""
        doc = object.__new__(cls)
        doc.__dict__.update(version=version, unit_note=unit_note, seed=seed,
                            generation=generation, projection=projection,
                            _arrays=(points, table), **known)
        return doc

    def __getattr__(self, name: str):
        # called only for fields never set: a document made from arrays
        # builds its tuples on first read
        if name == "vertices":
            value = tuple(map(tuple, self._arrays[0].tolist()))
        elif name == "triangles":
            table = self._arrays[1]
            value = _doc_triangles(map(_KIND_NAMES.__getitem__, table[:, 0].tolist()), table)
        elif name == "groups":
            value = None
            if self._group_arrays is not None:
                kinds, offsets, members = self._group_arrays
                at, members = offsets.tolist(), members.tolist()
                value = tuple(zip(kinds, (tuple(members[a:b]) for a, b in zip(at, at[1:]))))
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The vertex table and the triangle rows of ``vertices`` and
        ``triangles``."""
        rows = [(_KIND_CODES.get(t.kind, -1), t.apex, t.base0, t.base1, t.chirality,
                 -1 if t.parent is None else t.parent if t.parent >= 0 else -2)
                for t in self.triangles]
        return _coord_array(self.vertices).reshape(-1, 4), _ints(rows).reshape(-1, 6)

    @cached_property
    def _group_arrays(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray] | None:
        """``groups`` as arrays; None without groups."""
        return None if self.groups is None else _grouped(self.groups)

    @cached_property
    def _blocks(self) -> tuple[str, str, str]:
        """The vertex, triangle and group lines of the text, each block as
        one string."""
        points, table = self._arrays
        rows = table.ravel().tolist()
        rows[0::6] = map(_KIND_NAMES.__getitem__, rows[0::6])
        return (_block(_VERTEX, points.ravel().tolist()), _block(_TRIANGLE, rows),
                "" if self._group_arrays is None else _group_lines(self._group_arrays))

    def validate(self) -> None:
        """Raise DocumentError for the first broken invariant.  A document
        is immutable, so the outcome is decided once and replayed."""
        problem = self._problem
        if problem:
            raise DocumentError(problem[0])

    @cached_property
    def _problem(self) -> tuple[str, int] | None:
        """The first broken invariant, and the line of the document's text
        that holds it."""
        import numpy as np

        if self.version != FORMAT_VERSION:
            return f"unsupported format version {self.version}", 1
        for line, name, text in ((2, "unit note", self.unit_note), (3, "seed", self.seed)):
            if not text.isascii() or "\n" in text:
                return f"{name} must be one line of ASCII text", line
        points, table = self._arrays
        # each vertex against the next, as tuples: the sign of the first
        # nonzero coordinate difference, 0 for equal vertices
        step = points[1:] - points[:-1]
        first = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
        unordered = np.flatnonzero(np.sign(first) <= 0)
        if len(unordered):  # named at the later vertex of the first such pair
            return ("vertices must be deduplicated and in lexicographic order",
                    7 + int(unordered[0]))
        problem = len(table) and self._triangles_problem()
        if problem:
            return problem
        if self._group_arrays is not None:
            problem = self._groups_problem()
            if problem:
                return problem
        if self.generation < 0:
            return "generation must be >= 0", 4
        problem = self.projection and _projection_problem(self.projection)
        if problem:  # named on the line before 'end'
            groups = self._group_arrays
            return problem, 7 + len(points) + len(table) + (groups and 1 + len(groups[0]) or 0)
        return None

    def _triangles_problem(self) -> tuple[str, int] | None:
        """The first triangle's first problem, then the first vertex that
        no triangle uses.  The structure of every row (kind, indices,
        chirality, parent) is checked on the arrays, then the shape rule
        screens the rows before the first bad one; only the first failing
        row is built and checked again, for its message."""
        import numpy as np

        points, table = self._arrays
        n, n_tris = len(points), len(table)
        kind, corners, chirality, parent = (table[:, 0], table[:, 1:4], table[:, 4],
                                            table[:, 5])
        bad = ((kind < 0) | ((corners < 0) | (corners >= n)).any(axis=1)
               | ((chirality != 1) & (chirality != -1)) | (parent < -1)
               | (parent >= n_tris))
        end = int(np.argmax(bad)) if bad.any() else n_tris
        at = corners[:end].astype(np.int64)
        ok = _shape_rule(kind[:end], chirality[:end], points[at])
        if not ok.all():
            i = int(np.argmin(ok))
            problem = _shape_problem(_KIND_NAMES[kind[i]], int(chirality[i]),
                                     *points[at[i]].tolist())
            return f"triangle {i}: {problem}", 7 + n + i
        if end < n_tris:  # the tuple holds what the arrays cannot: a kind's name
            t = (self.triangles[end] if "triangles" in self.__dict__
                 else _doc_triangles([_KIND_NAMES[kind[end]]], table[end:end + 1])[0])
            return f"triangle {end}: {_structure_problem(t, n, n_tris)}", 7 + n + end
        # a patch's vertex table is the corners of its triangles, so a
        # document read as a patch keeps its own table (document_to_patch)
        unused = np.flatnonzero(np.bincount(corners.ravel().astype(np.int64),
                                            minlength=n) == 0)
        if len(unused):
            return f"vertex {unused[0]} is not a corner of any triangle", 6 + int(unused[0])
        return None

    def _groups_problem(self) -> tuple[str, int] | None:
        """The first group's first problem.  The groups are screened on the
        arrays; only groups that fail are walked one at a time."""
        import numpy as np

        kinds, offsets, members = self._group_arrays
        n = len(self._arrays[1])
        if (_GROUP_KINDS.issuperset(kinds) and (np.diff(offsets) > 0).all()
                and ((members >= 0) & (members < n)).all()
                and np.bincount(members.astype(np.int64), minlength=n).max(initial=0) <= 1):
            return None
        line = 8 + len(self._arrays[0]) + n  # the first group's
        seen = bytearray(n)
        for g, (kind, indices) in enumerate(self.groups):
            if kind not in _GROUP_KINDS:
                return f"group {g}: unknown kind {kind!r}", line + g
            if not indices:
                return f"group {g}: no triangles", line + g
            for idx in indices:
                if not 0 <= idx < n:
                    return f"group {g}: triangle index {idx} out of range", line + g
                if seen[idx]:
                    return f"group {g}: triangle {idx} already grouped", line + g
                seen[idx] = 1
        return None


_DOC_TRIANGLE_SLOTS = tuple(getattr(DocTriangle, name).__set__
                            for name in DocTriangle.__slots__)


def _doc_triangles(kinds: Iterable[str], table: np.ndarray) -> tuple[DocTriangle, ...]:
    """The triangle rows as DocTriangles of the given kind names.

    The objects are filled one field at a time through their slots rather
    than by DocTriangle's __init__, which, frozen, sets each field through
    object.__setattr__ and takes about twice as long."""
    _, apex, base0, base1, chirality, parent = table.T.tolist()
    out = tuple(map(object.__new__, repeat(DocTriangle, len(apex))))
    for put, column in zip(_DOC_TRIANGLE_SLOTS, (
            kinds, apex, base0, base1, chirality, [None if p == -1 else p for p in parent])):
        any(map(put, out, column))  # each put returns None
    return out


def _structure_problem(t: DocTriangle, n_vertices: int, n_triangles: int) -> str | None:
    """What is wrong with a triangle's kind, indices, chirality or parent."""
    if t.kind not in _KIND_CODES:
        return f"unknown kind {t.kind!r}"
    for idx in (t.apex, t.base0, t.base1):
        if not 0 <= idx < n_vertices:
            return f"vertex index {idx} out of range"
    if t.chirality not in (-1, 1):
        return "chirality must be +-1"
    if t.parent is not None and not 0 <= t.parent < n_triangles:
        # a parent indexes the previous generation, which is smaller
        return f"parent index {t.parent} out of range"
    return None


def _projection_problem(p: ProjectionMeta) -> str | None:
    """What makes this projection metadata unusable as generator input."""
    if not all(math.isfinite(g) for g in p.gamma):
        return "projection gamma must be finite"
    if not (math.isfinite(p.radius) and p.radius > 0):
        return "projection radius must be finite and positive"
    if p.box < 1:
        return "projection box must be >= 1"
    return None


def write_tiling(doc: TilingDocument) -> bytes:
    doc.validate()
    return ("\n".join(_lines(doc)) + "\n").encode("ascii")


def _lines(doc: TilingDocument):
    """The document's text a line at a time, each nonempty counted block as
    one string of lines: the one formatter, behind the writer and the
    reader's proof of canonical form."""
    points, table = doc._arrays
    vertices, triangles, groups = doc._blocks
    yield f"qtile {doc.version}"
    yield f"unit {doc.unit_note}"
    yield f"seed {doc.seed}"
    yield f"generation {doc.generation}"
    yield f"vertices {len(points)}"
    if vertices:
        yield vertices
    yield f"triangles {len(table)}"
    if triangles:
        yield triangles
    if doc._group_arrays is not None:
        yield f"groups {len(doc._group_arrays[0])}"
        if groups:
            yield groups
    p = doc.projection
    if p is not None:
        yield "projection " + " ".join(
            [repr(p.gamma[0]), repr(p.gamma[1]), repr(p.gamma[2]),
             repr(p.radius), str(p.box)])
    yield "end"


def _block(line: str, values: list) -> str:
    """Lines of the %-template ``line``, filled from values row by row."""
    return "\n".join([line] * (len(values) // line.count("%"))) % tuple(values)


def _group_lines(groups: tuple) -> str:
    """The group lines of group arrays (see TilingDocument)."""
    kinds, offsets, members = groups
    at, members = offsets.tolist(), list(map(str, members.tolist()))
    return "\n".join([kind + " " + " ".join(members[a:b])
                      for kind, a, b in zip(kinds, at, at[1:])])


def _parse_rows(lines: list[str], width: int, ints_from: int) -> list:
    """The tokens of lines of ``width`` tokens each, flat, the ones from
    ``ints_from`` on in each line as integers.  Lines are split 1024 at a
    time, which bounds the token strings alive at once."""
    values = []
    for at in range(0, len(lines), 1024):
        chunk = lines[at:at + 1024]
        tokens = " ".join(chunk).split()
        if len(tokens) != width * len(chunk):
            raise ValueError("a line of another width")
        for column in range(ints_from, width):
            tokens[column::width] = map(int, tokens[column::width])
        values += tokens
    return values


class _Reader:
    def __init__(self, data: bytes):
        try:
            self.text = data.decode("ascii")
        except UnicodeDecodeError as e:
            raise DocumentError(f"not an ascii document: {e}") from None
        self.lines = self.text.split("\n")
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise DocumentError(f"line {self.pos + 1}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def fail(self, message: str):
        raise DocumentError(f"line {self.pos}: {message}")

    def count(self, line: str, name: str) -> int:
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            self.fail(f"expected '{name} <n>'")
        n = _parse_int(self, parts[1])
        if n < 0:
            self.fail(f"{name} must be >= 0")
        return n

    def block(self, n: int, template: str | None, malformed: str):
        """The values of the next n lines and the writer's text for them.
        Each line is of the %-template ``template``, or a group line if it
        is None.  The block is parsed in one pass; only when that text
        differs from the input are its lines walked one at a time, to name
        the first malformed one: one with another token count, or with a
        token after the leading names ("%s") that is no integer."""
        width, ints_from = ((template.count("%"), template.count("%s")) if template
                            else (0, 1))
        start = self.pos
        lines = self.lines[start:start + n]
        self.pos += len(lines)
        values = text = None
        try:
            if len(lines) == n and template:
                values = _parse_rows(lines, width, ints_from)
                text = _block(template, values)
            elif len(lines) == n:
                values = _grouped([(row[0], list(map(int, row[1:])))
                                   for row in map(str.split, lines)])
                text = _group_lines(values)
        except (ValueError, IndexError):
            pass
        if text != "\n".join(lines):
            for self.pos, line in enumerate(lines, start + 1):
                parts = line.split()
                if len(parts) != width if width else not parts:
                    self.fail(malformed)
                for token in parts[ints_from:]:
                    _parse_int(self, token)
            if len(lines) < n:
                self.next()  # the file ends inside the block
        return values, text


def read_tiling(data: bytes) -> TilingDocument:
    r = _Reader(data)
    header = r.next().split()
    if len(header) != 2 or header[0] != "qtile":
        r.fail("expected 'qtile <version>' header")
    version = _parse_int(r, header[1])
    if version != FORMAT_VERSION:
        r.fail(f"unsupported format version {version}")

    unit_line = r.next()
    if not unit_line.startswith("unit "):
        r.fail("expected 'unit <note>'")

    seed_line = r.next()
    if not seed_line.startswith("seed "):
        r.fail("expected 'seed <name>'")

    generation = r.count(r.next(), "generation")
    coords, vertex_lines = r.block(r.count(r.next(), "vertices"), _VERTEX,
                                   "vertex must have 4 integer coordinates")
    points = _coord_array(coords).reshape(-1, 4)
    rows, triangle_lines = r.block(
        r.count(r.next(), "triangles"), _TRIANGLE,
        "triangle must be 'kind apex base0 base1 chirality parent'")
    kinds = rows[0::6]
    rows[0::6] = map(_KIND_CODES.get, kinds, repeat(-1))
    table = _ints(rows).reshape(-1, 6)
    # an unknown kind's name is kept for validation to report
    known = {} if _KIND_CODES.keys() >= set(kinds) else {
        "triangles": _doc_triangles(kinds, table)}
    del coords, rows, kinds  # the block's Python ints, now in arrays

    groups, group_lines = None, ""
    projection = None
    line = r.next()
    if line.startswith("groups"):
        groups, group_lines = r.block(r.count(line, "groups"), None, "empty group line")
        line = r.next()
    if line.startswith("projection "):
        parts = line.split()
        if len(parts) != 6:
            r.fail("projection line must be 'projection g1 g2 g3 radius box'")
        try:
            gamma = (float(parts[1]), float(parts[2]), float(parts[3]))
            radius = float(parts[4])
        except ValueError:
            r.fail("bad float in projection metadata")
        projection = ProjectionMeta(gamma, radius, _parse_int(r, parts[5]))
        problem = _projection_problem(projection)
        if problem:
            r.fail(problem)
        line = r.next()
    if line != "end":
        r.fail(f"expected 'end', got {line!r}")
    if r.lines[r.pos:] != [""]:
        r.fail("'end' must be the last line, ending in one newline")

    doc = TilingDocument._from_arrays(
        points, table, version=version, unit_note=unit_line[5:], seed=seed_line[5:],
        generation=generation, projection=projection, _group_arrays=groups,
        _blocks=(vertex_lines, triangle_lines, group_lines), **known)
    text = "\n".join(_lines(doc)) + "\n"
    if text != r.text:
        for number, (expected, line) in enumerate(zip(text.split("\n"), r.lines), 1):
            if line != expected:
                raise DocumentError(f"line {number}: not in canonical form: "
                                    f"expected {expected!r}, got {line!r}")
    problem = doc._problem
    if problem:
        raise DocumentError(f"line {problem[1]}: {problem[0]}")
    return doc


def _parse_int(r: _Reader, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        r.fail(f"expected integer, got {token!r}")


def patch_to_document(patch: Patch,
                      groups: tuple[tuple[str, tuple[int, ...]], ...] | None = None,
                      projection: ProjectionMeta | None = None) -> TilingDocument:
    import numpy as np

    points, corners = patch._numbering
    return TilingDocument._from_arrays(
        points, np.column_stack((patch.kind, corners, patch.chirality, patch.parent)),
        seed=patch.seed, generation=patch.generation, projection=projection,
        groups=groups)


def document_to_patch(doc: TilingDocument) -> Patch:
    """The document's triangles as a patch that keeps the document's vertex
    table: a valid document's vertices are exactly its triangles' corners,
    sorted and deduplicated, which is the table ``Patch`` would build."""
    import numpy as np

    doc.validate()
    points, table = doc._arrays
    if not len(table):  # projection points are no patch vertices
        return Patch((), generation=doc.generation, seed=doc.seed)
    corners = table[:, 1:4]
    return Patch._from_arrays(
        points[corners], table[:, 0].astype(np.int8), table[:, 4].astype(np.int8),
        table[:, 5], generation=doc.generation, seed=doc.seed,
        _numbering=(points, corners))


def tiling_to_document(tiling: CompositeTiling) -> TilingDocument:
    doc = patch_to_document(tiling.patch)  # the tiling's group arrays, passed through
    return TilingDocument._from_arrays(*doc._arrays, seed=doc.seed, generation=doc.generation,
                                       _group_arrays=tiling._group_arrays)


def quasilattice_to_document(points: Sequence[QuasiPoint], gamma, radius: float,
                             box: int) -> TilingDocument:
    vertices = tuple(sorted(p.cyclo.coords() for p in points))
    meta = ProjectionMeta(tuple(float(g) for g in gamma), float(radius), int(box))
    return TilingDocument(seed="projection", generation=0, vertices=vertices,
                          triangles=(), projection=meta)
