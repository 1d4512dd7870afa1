"""The .qtile text format: an archival, human-diffable tiling container.

Geometry is stored exactly (integer quasilattice coordinates only); floats
appear only in the optional projection metadata line, written with repr so
reading them back is lossless.  The writer validates and canonicalizes
nothing silently: a document must already satisfy the invariants (sorted
deduplicated vertices, each a triangle corner when there are triangles,
in-range indices, geometry-consistent chirality, one-line ASCII header
strings) or writing refuses, and the reader rejects violations, naming
the line.
The writer formats the counted blocks from int64 arrays with one array
codec (``_fields``): each number's digits are written into uint64 words
of ASCII bytes, padded with zero bytes that one ``bytes.translate``
removes.  Values beyond int64 go through the %-template of ``_block``.
The reader also accepts only canonical spellings: it parses each counted
block in one pass, then compares its input with the writer's output for
the values read, so write(read(data)) == data for every document it accepts.
It finds its lines as the offsets of the newlines in the bytes and slices
each block out whole.  The pass is one ``np.fromstring`` call into int64
arrays, after the kind names are replaced by integer tokens, and the
block's bytes are compared with the codec's bytes for those arrays.  A
block that differs (a spelling such as ``+2``, ``05`` or a tab, a value
beyond int64, an unknown name) is split into lines and parsed again as
Python tokens, and its lines are walked to name a fault.  Either parse
accepts the same files with the same values and messages.
When a file has several faults, the structural ones (a count, a token
count, an integer, a projection value) are reported before a
non-canonical spelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Sequence

from . import FORMAT_VERSION
from .exact import _max_abs, _Packing
from .grouping import CompositeKind, CompositeTiling, _grouped, _ints, _slotted
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
        """A document given as ``_arrays``.  ``known`` may give ``groups`` or
        ``_group_arrays`` (neither: no groups), other fields and cached
        values (``triangles``, ``_blocks``), which must be exactly what they
        would compute."""
        if "_group_arrays" not in known:
            known.setdefault("groups", None)
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
    def _blocks(self) -> tuple[bytes, bytes, bytes]:
        """The vertex, triangle and group lines of the text, each block as
        one string."""
        points, table = self._arrays
        return (_rows_text(_VERTEX, points), _rows_text(_TRIANGLE, table),
                b"" if self._group_arrays is None else _group_lines(self._group_arrays))

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
        keys = _Packing(_max_abs(points)).points(points)
        unordered = np.flatnonzero(~(np.diff(keys) > 0))
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


def _doc_triangles(kinds: Iterable[str], table: np.ndarray) -> tuple[DocTriangle, ...]:
    """The triangle rows as DocTriangles of the given kind names."""
    _, apex, base0, base1, chirality, parent = table.T.tolist()
    return _slotted(DocTriangle, len(apex), (kinds, apex, base0, base1, chirality,
                                             [None if p == -1 else p for p in parent]))


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
    return b"\n".join(_lines(doc)) + b"\n"


def _lines(doc: TilingDocument):
    """The document's text a line at a time, each nonempty counted block as
    one string of lines: the one formatter, behind the writer and the
    reader's proof of canonical form."""
    points, table = doc._arrays
    vertices, triangles, groups = doc._blocks
    yield f"qtile {doc.version}".encode("ascii")
    yield f"unit {doc.unit_note}".encode("ascii")
    yield f"seed {doc.seed}".encode("ascii")
    yield f"generation {doc.generation}".encode("ascii")
    yield f"vertices {len(points)}".encode("ascii")
    if vertices:
        yield vertices
    yield f"triangles {len(table)}".encode("ascii")
    if triangles:
        yield triangles
    if doc._group_arrays is not None:
        yield f"groups {len(doc._group_arrays[0])}".encode("ascii")
        if groups:
            yield groups
    p = doc.projection
    if p is not None:
        yield ("projection " + " ".join(
            [repr(p.gamma[0]), repr(p.gamma[1]), repr(p.gamma[2]),
             repr(p.radius), str(p.box)])).encode("ascii")
    yield b"end"


# ------------------------------------------------------------ the text codec
#
# Text is built as uint64 words, eight ASCII bytes each, in which zero bytes
# are padding: one ``bytes.translate`` drops them.  A number is a field of
# words (``_fields``): a lead byte (its separator, or 0), then its sign and
# digits right-aligned to the field's last byte.  The .qtile blocks and the
# SVG coordinates are written this way; values that int64 cannot hold go
# through ``_block``'s %-template instead.

def _block(line: str, values: list) -> str:
    """Lines of the %-template ``line``, filled from values row by row."""
    return "\n".join([line] * (len(values) // line.count("%"))) % tuple(values)


@cache
def _digit_pairs() -> np.ndarray:
    """The two ASCII digits of 0..99, as the low 16 bits of a word."""
    import numpy as np

    return np.frombuffer("".join(map("{:02d}".format, range(100))).encode(),
                         np.uint16).astype(np.uint64)


def _fields(values: np.ndarray, sign=None, lead=None, least: int = 1) -> np.ndarray:
    """Integers as text, shape ``values.shape + (m,)`` words: per value,
    the lead byte first, then the sign byte (a character, or 0) and at
    least ``least`` decimal digits of its magnitude, right-aligned to the
    last byte.  ``sign`` and ``lead`` broadcast against ``values``; without
    them those bytes are 0.  The values are written about ``_CHUNK`` at a
    time."""
    import numpy as np

    top = _max_abs(values)
    digits = max(len(str(top)), least)
    m = (digits + 9) // 8  # words for the lead byte, the sign and the digits
    pairs, (keep, sign_at) = _digit_pairs(), _digit_masks(m, digits)
    words = np.zeros(values.shape + (m,), np.uint64)
    sign, lead = (None if a is None else np.broadcast_to(a, values.shape) for a in (sign, lead))
    step = max(1, _CHUNK * len(values) // max(1, values.size))  # of the first axis
    for at in range(0, len(values), step):
        part = slice(at, at + step)
        out = words[part]
        # magnitudes as uint64, exact for all of int64
        magnitude = rest = np.abs(values[part].astype(np.int64, copy=False)).view(np.uint64)
        for k in range(0, digits, 2):  # digits k and k + 1 share a word
            high = rest // 100
            out[..., m - 1 - k // 8] |= pairs.take(rest - high * 100) << np.uint64(
                48 - 8 * (k % 8))
            rest = high
        count = least  # of each number's digits
        for k in range(least, digits):
            count = count + (magnitude >= 10 ** k)
        out &= keep[count]
        if sign is not None:
            out |= sign_at[count] * sign[part][..., None].astype(np.uint64)
        if lead is not None:
            out[..., 0] |= lead[part].astype(np.uint64)
    return words


# numbers that _fields writes at once: their temporaries, 128 KB each, stay
# in the cache, and stay below the 256 KB from which every operator on a
# temporary makes numpy walk the C stack to see whether it may reuse it
_CHUNK = 1 << 14


@cache
def _digit_masks(m: int, digits: int) -> tuple[np.ndarray, np.ndarray]:
    """By digit count, 0 to ``digits``, fields of m words: 255 in the bytes
    of the digits, and 1 in the sign's byte."""
    import numpy as np

    at = np.arange(8 * m) - 8 * m + np.arange(digits + 1)[:, None]
    return ((at >= 0) * np.uint8(255)).view(np.uint64), ((at == -1) * np.uint8(1)).view(np.uint64)


def _spliced(heads: np.ndarray, tokens: np.ndarray, offsets: np.ndarray,
             tails: np.ndarray | None = None) -> np.ndarray:
    """The words of item after item: item i is ``heads[i]``, then the token
    rows ``offsets[i]:offsets[i + 1]``, then ``tails[i]`` if given."""
    import numpy as np

    tails = heads[:, :0] if tails is None else tails
    (p, h), (n, t), c = heads.shape, tokens.shape, tails.shape[1]
    sizes = np.diff(offsets)
    start = np.arange(p) * (h + c) + offsets[:-1] * t  # each item's first word
    out = np.empty(p * (h + c) + n * t, np.uint64)
    out[start[:, None] + np.arange(h)] = heads
    out[(start + h + sizes * t)[:, None] + np.arange(c)] = tails
    out[(np.repeat(start + h - offsets[:-1] * t, sizes) + np.arange(n) * t)[:, None]
        + np.arange(t)] = tokens
    return out


def _ascii(words: np.ndarray) -> bytes:
    """The text of words: their bytes without the zero bytes."""
    return words.tobytes().translate(None, b"\0")


def _words(text: str) -> np.ndarray:
    """ASCII text as words, padded with zero bytes."""
    import numpy as np

    return np.frombuffer(text.encode("ascii").ljust(-(-len(text) // 8) * 8, b"\0"), np.uint64)


def _rows_text(line: str, rows: np.ndarray) -> bytes:
    """The lines of the %-template ``line`` (``_VERTEX`` or ``_TRIANGLE``)
    filled from an array of rows, a triangle's kind code written as its
    name."""
    import numpy as np

    if rows.dtype == object:  # beyond int64
        values = rows.ravel().tolist()
        if line is _TRIANGLE:
            values[0::6] = map(_KIND_NAMES.__getitem__, values[0::6])
        return _block(line, values).encode("ascii")
    sign = (rows < 0) * np.uint8(ord("-"))
    if line is _TRIANGLE:
        sign[:, 4] |= (rows[:, 4] >= 0) * np.uint8(ord("+"))
    lead = np.full(rows.shape[1], ord(" "), np.uint8)
    lead[0] = ord("\n")
    words = _fields(rows, sign, lead)
    if line is _TRIANGLE:  # the kind's name as its field
        words[:, 0] = _kind_names(words.shape[2])[rows[:, 0]]
    return _ascii(words)[1:]


@cache
def _kind_names(m: int) -> np.ndarray:
    """Each kind code's field of m words: a newline, then its name."""
    import numpy as np

    return np.array([_words(f"\n{name}".ljust(8 * m, "\0")) for name in _KIND_NAMES])


def _group_lines(groups: tuple) -> bytes:
    """The group lines of group arrays (see TilingDocument): each a head of
    its kind's name, then its members."""
    import numpy as np

    kinds, offsets, members = groups
    codes = np.fromiter(map(_GROUP_CODES.get, kinds, repeat(-1)), np.int64, len(kinds))
    if members.dtype == object or (codes < 0).any():  # beyond int64, or no kind's name
        at, members = offsets.tolist(), list(map(str, members.tolist()))
        return "\n".join([kind + " " + " ".join(members[a:b])
                          for kind, a, b in zip(kinds, at, at[1:])]).encode("ascii")
    lead = np.full(len(members), ord(" "), np.uint8)
    lead[offsets[:-1][np.diff(offsets) > 0]] = 0  # a group's first member follows its head
    tokens = _fields(members, (members < 0) * np.uint8(ord("-")), lead)
    return _ascii(_spliced(_group_heads()[codes], tokens, offsets))[1:]


@cache
def _group_heads() -> np.ndarray:
    """Each group kind's line head, a newline, its name and a space, as
    words of one width."""
    import numpy as np

    size = max(map(len, _GROUP_NAMES)) + 2
    return np.array([_words(f"\n{name} ".ljust(size, "\0")) for name in _GROUP_NAMES])


# a counted block's names as integer tokens for numpy: a triangle's kind as
# its code, a group's kind as a negative number that marks where it starts
_GROUP_NAMES = tuple(k.value for k in CompositeKind)
_GROUP_CODES = {name: code for code, name in enumerate(_GROUP_NAMES)}
_NAME_TOKENS = {_VERTEX: (), _TRIANGLE: ((b"A", b"0"), (b"O", b"1")),
                None: tuple((name.encode(), b"%d" % (-1 - code))
                            for code, name in enumerate(_GROUP_NAMES))}


def _array_block(text: bytes, n: int, template: str | None):
    """The values of a counted block of n lines, parsed in one numpy call:
    the int64 rows of a vertex or triangle block (kind codes for names), or
    a group block's arrays.  None unless the writer's text for those values
    is ``text``, which is so only for a canonical block within int64."""
    import numpy as np

    tokens = text
    for name, token in _NAME_TOKENS[template]:
        tokens = tokens.replace(name, token)
    try:
        values = np.fromstring(tokens, dtype=np.int64, sep=" ")
        if template is None:
            start = np.flatnonzero(values < 0)
            if len(start) != n:
                return None
            values = (tuple(map(_GROUP_NAMES.__getitem__, (-1 - values[start]).tolist())),
                      np.append(start - np.arange(n), len(values) - n),
                      np.delete(values, start))
            return values if _group_lines(values) == text else None
        rows = values.reshape(n, template.count("%"))
        return rows if _rows_text(template, rows) == text else None
    except (ValueError, IndexError):  # no integer, another size, no such kind
        return None


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
    """The lines of an ASCII document, found as the offsets of its newlines;
    a line is made a string only when it is read alone."""

    def __init__(self, data: bytes):
        import numpy as np

        if not data.isascii():
            try:
                data.decode("ascii")
            except UnicodeDecodeError as e:
                raise DocumentError(f"not an ascii document: {e}") from None
        self.data = data
        self.ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
        self.pos = 0

    def span(self, start: int, stop: int) -> bytes:
        """Lines start to stop (exclusive) as one string of lines."""
        if start == stop:
            return b""
        ends = self.ends
        return self.data[0 if start == 0 else int(ends[start - 1]) + 1:
                         int(ends[stop - 1]) if stop <= len(ends) else len(self.data)]

    def next(self) -> str:
        if self.pos > len(self.ends):
            raise DocumentError(f"line {self.pos + 1}: unexpected end of file")
        self.pos += 1
        return self.span(self.pos - 1, self.pos).decode("ascii")

    def at_end(self) -> bool:
        """Whether the lines read so far are all but an empty last one."""
        return self.pos == len(self.ends) and self.data.endswith(b"\n")

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
        is None.  numpy parses the block first (``_array_block``): its int64
        rows, or group arrays, are kept if the writer gives the input for
        them.  Otherwise the block is split into tokens in one pass, a list
        with a triangle's kind by name, and when that text too differs from
        the input its lines are walked one at a time, to name the first
        malformed one: one with another token count, or with a token after
        the leading names ("%s") that is no integer."""
        width, ints_from = ((template.count("%"), template.count("%s")) if template
                            else (0, 1))
        start = self.pos
        self.pos = min(start + n, len(self.ends) + 1)
        given = self.span(start, self.pos)
        whole = self.pos - start == n
        if whole:
            values = _array_block(given, n, template)
            if values is not None:
                return values, given
        lines = given.decode("ascii").split("\n") if self.pos > start else []
        values = text = None
        try:
            if whole and template:
                values = _parse_rows(lines, width, ints_from)
                text = _block(template, values).encode("ascii")
            elif whole:
                values = _grouped([(row[0], list(map(int, row[1:])))
                                   for row in map(str.split, lines)])
                text = _group_lines(values)
        except (ValueError, IndexError):
            pass
        if text != given:
            for self.pos, line in enumerate(lines, start + 1):
                parts = line.split()
                if len(parts) != width if width else not parts:
                    self.fail(malformed)
                for token in parts[ints_from:]:
                    _parse_int(self, token)
            if not whole:
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
    table, triangle_lines = r.block(
        r.count(r.next(), "triangles"), _TRIANGLE,
        "triangle must be 'kind apex base0 base1 chirality parent'")
    known = {}
    if isinstance(table, list):  # split into tokens: a kind by its name
        kinds = table[0::6]
        table[0::6] = map(_KIND_CODES.get, kinds, repeat(-1))
        table = _ints(table).reshape(-1, 6)
        if not _KIND_CODES.keys() >= set(kinds):  # kept for validation to report
            known["triangles"] = _doc_triangles(kinds, table)
        del kinds
    del coords  # the block's Python ints, if any, now in arrays

    groups, group_lines = None, b""
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
    if not r.at_end():
        r.fail("'end' must be the last line, ending in one newline")

    doc = TilingDocument._from_arrays(
        points, table, version=version, unit_note=unit_line[5:], seed=seed_line[5:],
        generation=generation, projection=projection, _group_arrays=groups,
        _blocks=(vertex_lines, triangle_lines, group_lines), **known)
    if b"\n".join(_lines(doc)) + b"\n" != data:  # the text is not kept for validation
        text = b"\n".join(_lines(doc)).decode("ascii")
        for number, (expected, line) in enumerate(zip(text.split("\n"),
                                                      data.decode("ascii").split("\n")), 1):
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
