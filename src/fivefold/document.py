"""The .qtile text format: an archival, human-diffable tiling container.

Geometry is stored exactly (integer quasilattice coordinates only); floats
appear only in the optional projection metadata line, written with repr so
reading them back is lossless.  The writer validates and canonicalizes
nothing silently: a document must already satisfy the invariants (sorted
deduplicated vertices, each a triangle corner when there are triangles,
in-range indices, geometry-consistent chirality, one-line ASCII header
strings) or writing refuses, and the reader rejects violations.
The reader also accepts only canonical spellings: it parses the document,
then compares its input line by line with the writer's output for the
values read, so write(read(data)) == data for every document it accepts.
When a file has several faults, the structural ones (a count, a token
count, an integer, a projection value) are reported before a
non-canonical spelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from . import FORMAT_VERSION
from .exact import CycloPoint
from .grouping import CompositeKind, CompositeTiling
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


@dataclass(frozen=True)
class TilingDocument:
    version: int = FORMAT_VERSION
    unit_note: str = UNIT_NOTE
    seed: str = ""
    generation: int = 0
    vertices: tuple[tuple[int, int, int, int], ...] = ()
    triangles: tuple[DocTriangle, ...] = ()
    groups: tuple[tuple[str, tuple[int, ...]], ...] | None = None
    projection: ProjectionMeta | None = None

    def validate(self) -> None:
        """Raise DocumentError for the first broken invariant.  A document
        is immutable, so the outcome is decided once and replayed."""
        problem = self._problem
        if problem:
            raise DocumentError(problem)

    @cached_property
    def _problem(self) -> str | None:
        if self.version != FORMAT_VERSION:
            return f"unsupported format version {self.version}"
        for name, text in (("unit note", self.unit_note), ("seed", self.seed)):
            if not text.isascii() or "\n" in text:
                return f"{name} must be one line of ASCII text"
        vertices = self.vertices
        if any(v >= w for v, w in zip(vertices, vertices[1:])):
            return "vertices must be deduplicated and in lexicographic order"
        if self.triangles:
            problem = self._triangles_problem()
            if problem:
                return problem
        if self.groups is not None:
            seen = bytearray(len(self.triangles))
            valid_kinds = {k.value for k in CompositeKind}
            for g_index, (kind, indices) in enumerate(self.groups):
                if kind not in valid_kinds:
                    return f"group {g_index}: unknown kind {kind!r}"
                if not indices:
                    return f"group {g_index}: no triangles"
                for idx in indices:
                    if not 0 <= idx < len(self.triangles):
                        return f"group {g_index}: triangle index {idx} out of range"
                    if seen[idx]:
                        return f"group {g_index}: triangle {idx} already grouped"
                    seen[idx] = 1
        if self.generation < 0:
            return "generation must be >= 0"
        return self.projection and _projection_problem(self.projection)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The vertex table as a (V, 4) array, and one row per triangle:
        kind (0 "A", 1 "O", -1 unknown), apex, base0, base1, chirality and
        parent (-1 for none, -2 for a negative one)."""
        import numpy as np

        def values():
            for t in self.triangles:
                yield _KIND_CODES.get(t.kind, -1)
                yield from (t.apex, t.base0, t.base1, t.chirality)
                yield -1 if t.parent is None else t.parent if t.parent >= 0 else -2

        count = 6 * len(self.triangles)
        try:
            table = np.fromiter(values(), dtype=np.int64, count=count)
        except OverflowError:  # an index beyond int64 is out of range anyway
            table = np.fromiter(values(), dtype=object, count=count)
        return _coord_array(self.vertices).reshape(-1, 4), table.reshape(-1, 6)

    def _triangles_problem(self) -> str | None:
        """The first triangle's first problem, then the first vertex that
        no triangle uses.  The structure of every row (kind, indices,
        chirality, parent) is checked on the arrays, then the shape rule
        screens the rows before the first bad one; only the first failing
        row is checked again one at a time, for its message."""
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
            t = self.triangles[i]
            a, b, c = (self.vertices[k] for k in at[i].tolist())
            return f"triangle {i}: {_shape_problem(t.kind, t.chirality, a, b, c)}"
        if end < n_tris:
            return f"triangle {end}: {_structure_problem(self.triangles[end], n, n_tris)}"
        # a patch's vertex table is the corners of its triangles, so a
        # document read as a patch keeps its own table (document_to_patch)
        unused = np.flatnonzero(np.bincount(corners.ravel().astype(np.int64),
                                            minlength=n) == 0)
        if len(unused):
            return f"vertex {unused[0]} is not a corner of any triangle"
        return None


_KIND_NAMES = "AO"  # by kind code
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES)}


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
    """The document's text line by line: the one formatter, behind the
    writer and the reader's proof of canonical form."""
    yield f"qtile {doc.version}"
    yield f"unit {doc.unit_note}"
    yield f"seed {doc.seed}"
    yield f"generation {doc.generation}"
    yield f"vertices {len(doc.vertices)}"
    for v in doc.vertices:
        yield " ".join(map(str, v))
    yield f"triangles {len(doc.triangles)}"
    for t in doc.triangles:
        parent = -1 if t.parent is None else t.parent
        yield f"{t.kind} {t.apex} {t.base0} {t.base1} {t.chirality:+d} {parent}"
    if doc.groups is not None:
        yield f"groups {len(doc.groups)}"
        for kind, indices in doc.groups:
            yield kind + " " + " ".join(map(str, indices))
    p = doc.projection
    if p is not None:
        yield "projection " + " ".join(
            [repr(p.gamma[0]), repr(p.gamma[1]), repr(p.gamma[2]),
             repr(p.radius), str(p.box)])
    yield "end"


# Parsers of one block line's tokens.  A wrong token count raises
# TypeError, a bad integer ValueError.

def _vertex(a: str, b: str, c: str, d: str) -> tuple[int, int, int, int]:
    return int(a), int(b), int(c), int(d)


def _triangle(kind: str, apex: str, base0: str, base1: str, chirality: str,
              parent: str) -> DocTriangle:
    p = int(parent)
    return DocTriangle(kind, int(apex), int(base0), int(base1), int(chirality),
                       None if p == -1 else p)


def _group(kind: str, *indices: str) -> tuple[str, tuple[int, ...]]:
    return kind, tuple(map(int, indices))


class _Reader:
    def __init__(self, data: bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as e:
            raise DocumentError(f"not an ascii document: {e}") from None
        self.lines = text.split("\n")
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

    def block(self, n: int, parse, ints_from: int, malformed: str) -> tuple:
        """The values of the next n lines, each parsed by parse from its
        tokens, of which the ones from ints_from on are integers."""
        values = []
        for _ in range(n):
            parts = self.next().split()
            try:
                values.append(parse(*parts))
            except TypeError:
                self.fail(malformed)
            except ValueError:
                for token in parts[ints_from:]:
                    _parse_int(self, token)
        return tuple(values)


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
    vertices = r.block(r.count(r.next(), "vertices"), _vertex, 0,
                       "vertex must have 4 integer coordinates")
    triangles = r.block(r.count(r.next(), "triangles"), _triangle, 1,
                        "triangle must be 'kind apex base0 base1 chirality parent'")

    groups = None
    projection = None
    line = r.next()
    if line.startswith("groups"):
        groups = r.block(r.count(line, "groups"), _group, 1, "empty group line")
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

    doc = TilingDocument(version=version, unit_note=unit_line[5:],
                         seed=seed_line[5:], generation=generation,
                         vertices=vertices, triangles=triangles, groups=groups,
                         projection=projection)
    for number, (expected, line) in enumerate(zip(_lines(doc), r.lines), 1):
        if line != expected:
            raise DocumentError(f"line {number}: not in canonical form: "
                                f"expected {expected!r}, got {line!r}")
    doc.validate()
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

    doc_tris = tuple(
        DocTriangle(_KIND_NAMES[k], a, b, c, s, None if p == -1 else p)
        for k, (a, b, c), s, p in zip(patch.kind.tolist(), patch.corners,
                                      patch.chirality.tolist(), patch.parent.tolist()))
    doc = TilingDocument(seed=patch.seed, generation=patch.generation,
                         vertices=tuple(v.coords() for v in patch.vertices),
                         triangles=doc_tris, groups=groups, projection=projection)
    # the arrays that validation would read back from these fields
    points, corners = patch._numbering
    doc.__dict__["_arrays"] = (points, np.column_stack(
        (patch.kind, corners, patch.chirality, patch.parent)).reshape(-1, 6))
    return doc


def document_to_patch(doc: TilingDocument) -> Patch:
    """The document's triangles as a patch that keeps the document's vertex
    table: a valid document's vertices are exactly its triangles' corners,
    sorted and deduplicated, which is the table ``Patch`` would build."""
    import numpy as np

    doc.validate()
    if not doc.triangles:  # projection points are no patch vertices
        return Patch((), generation=doc.generation, seed=doc.seed)
    points, table = doc._arrays
    corners = table[:, 1:4]
    return Patch._from_arrays(
        points[corners], table[:, 0].astype(np.int8), table[:, 4].astype(np.int8),
        table[:, 5], generation=doc.generation, seed=doc.seed,
        _numbering=(points, corners),
        vertices=tuple(CycloPoint(*v) for v in doc.vertices),
        corners=tuple((t.apex, t.base0, t.base1) for t in doc.triangles))


def tiling_to_document(tiling: CompositeTiling) -> TilingDocument:
    groups = tuple((g.kind.value, g.indices) for g in tiling.groups)
    return patch_to_document(tiling.patch, groups=groups)


def quasilattice_to_document(points: Sequence[QuasiPoint], gamma, radius: float,
                             box: int) -> TilingDocument:
    vertices = tuple(sorted(p.cyclo.coords() for p in points))
    meta = ProjectionMeta(tuple(float(g) for g in gamma), float(radius), int(box))
    return TilingDocument(seed="projection", generation=0, vertices=vertices,
                          triangles=(), projection=meta)
