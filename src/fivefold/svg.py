"""Deterministic SVG rendering of tiling documents.

Coordinates are written with six decimals, as ``%.6f`` writes them, by
the array text codec of ``document`` (``_fields``); each point is
formatted once, and the polygon and circle lines are assembled as words
from the corner table and the loop offsets.  Identical documents and
options give bit-identical bytes.
When the document carries groups, each group is drawn as one polygon per
loop of its rim in its kind's palette colour, otherwise one polygon per
triangle.  Rims come from ``triangles``; the overlay's exact scaling and the
float embedding of every point come from ``exact``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exact import EPS, PHI, TAU_C, _embed, _times
from .document import DocumentError, TilingDocument, _ascii, _fields, _spliced, _words
from .triangles import _loops, _rim

if TYPE_CHECKING:  # numpy is imported at first use
    import numpy as np

__all__ = ["RenderOptions", "render_svg", "PALETTE"]

PALETTE = {
    "ThickRhomb": "#f59e0b",      # amber
    "ThinRhomb": "#0d9488",       # teal
    "PentagonBig": "#eab308",     # gold
    "PentagonSmall": "#ca8a04",   # darker gold
    "Pentagram": "#dc2626",       # crimson
    "Boat": "#2563eb",            # blue
    "Trapezoid": "#16a34a",       # green
    "Deltoid": "#7c3aed",         # violet
    "AcuteTriangle": "#b8b8b8",   # light gray
    "ObtuseTriangle": "#8e8e8e",  # dark gray
    "A": "#b8b8b8",
    "O": "#8e8e8e",
}
_MARGIN = 0.5  # around the vertices, in edge units
_EDGE = "#303030"
_ATOM = "#111111"
_OVERLAY = "#c2185b"


@dataclass(frozen=True)
class RenderOptions:
    scale: float = 100.0
    atoms: bool = False
    overlay: tuple[int, int] | None = None  # (tau exponent, 72-degree steps)


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _decimals(values: np.ndarray) -> np.ndarray:
    """Each value's ``_fmt`` text, as words with lead byte 0 (see
    ``document._fields``).  The digits are those of ``rint(v * 10**6)``,
    which rounds as ``%.6f`` does wherever ``v * 10**6`` is more than a few
    ulps from a half-integer; ``_fmt`` itself writes every other value,
    which includes all of magnitude 2**49 and beyond, where ``v * 10**6``
    may overflow."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # near DBL_MAX: inf, then nan
        scaled = values * 1e6
        near_half = ~(np.abs(scaled - np.floor(scaled) - 0.5) > 4 * np.spacing(np.abs(scaled)))
    scaled = np.rint(np.where(near_half, 0.0, scaled))
    whole, part = np.divmod(np.abs(scaled).astype(np.uint64), np.uint64(10 ** 6))
    words = np.concatenate((_fields(whole, (scaled < 0) * np.uint8(ord("-"))),
                            _fields(part, lead=ord("."), least=6)), axis=1)
    if near_half.any():  # after a zero lead byte, in rows widened to the longest
        texts = ["\0" + _fmt(v) for v in values[near_half].tolist()]
        width = -(-max(8 * words.shape[1], *map(len, texts)) // 8)
        words = np.pad(words, ((0, 0), (0, width - words.shape[1])))
        words[near_half] = [_words(text.ljust(8 * width, "\0")) for text in texts]
    return words


def _group_outlines(doc: TilingDocument):
    """Each group's boundary loops as ``_loops`` gives them, with each
    loop's colour instead of its group: the rim edges of its triangles
    (``_rim``), walked by ``_loops``.  A group with a directed edge owned
    twice is refused."""
    import numpy as np

    points, table = doc._arrays
    kinds, offsets, members = doc._group_arrays
    rows = table[members]
    group = np.repeat(np.arange(len(kinds)), np.diff(offsets))
    tail, head, twice, rim = _rim(rows[:, 1:4], rows[:, 4], len(points), group)
    if twice:
        raise DocumentError(f"group {group[twice[0] // 3]}: outline does not close; "
                            f"its triangles overlap")
    groups, starts, loops = _loops(tail[rim], head[rim], group[rim // 3])
    colour = np.fromiter(map(_COLOUR_CODES.__getitem__, kinds), np.int64, len(kinds))
    return colour[groups], starts, loops


_BEYOND = "SVG coordinates beyond the float range"
_LOG_TAU = math.log(PHI)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_COLOURS = tuple(dict.fromkeys(PALETTE.values()))
_COLOUR_CODES = {name: _COLOURS.index(colour) for name, colour in PALETTE.items()}


def _xy(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's x and y as ``CycloPoint.embed`` gives them."""
    try:
        x, y = _embed(*points.T)
    except OverflowError:  # an integer coordinate too large for a float
        raise ValueError(_BEYOND) from None
    return x.astype(float), y.astype(float)


def _rows(n: int, *parts) -> np.ndarray:
    """n rows of words: each part is text, the same in every row, or an
    array of n rows of words."""
    import numpy as np

    return np.concatenate([np.broadcast_to(_words(part), (n, -(-len(part) // 8)))
                           if isinstance(part, str) else part for part in parts], axis=1)


def _polygons(corners: np.ndarray, offsets: np.ndarray, vertices: np.ndarray,
              tails: np.ndarray) -> bytes:
    """A <polygon> line per loop: the "x,y" corners of its vertices, then
    the rest of its line, ``tails`` (a row of words per loop)."""
    import numpy as np

    tokens = corners[vertices]
    lead = np.full(len(vertices), ord(" "), np.uint64)
    lead[offsets[:-1]] = 0
    tokens[:, 0] |= lead
    return _ascii(_spliced(_rows(len(tails), '<polygon points="'), tokens, offsets, tails))


def render_svg(doc: TilingDocument, options: RenderOptions = RenderOptions()) -> bytes:
    import numpy as np

    doc.validate()
    scale = options.scale
    points, table = doc._arrays
    x, y = _xy(points)
    if len(points):
        lo_x, hi_x = float(x.min()) - _MARGIN, float(x.max()) + _MARGIN
        lo_y, hi_y = float(y.min()) - _MARGIN, float(y.max()) + _MARGIN
    else:
        lo_x, hi_x, lo_y, hi_y = -1.0, 1.0, -1.0, 1.0
    width = (hi_x - lo_x) * scale
    height = (hi_y - lo_y) * scale

    def decimals(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each point's x and y in SVG coordinates as words, formatted once."""
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = (x - lo_x) * scale, (hi_y - y) * scale
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(_BEYOND)
        return _decimals(x), _decimals(y)

    def corners(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Each point's "x,y" as a row of words."""
        words = np.concatenate((x, y), axis=1)
        words[:, x.shape[1]] |= np.uint64(ord(","))
        return words

    if doc._group_arrays is not None:
        colour, offsets, vertices = _group_outlines(doc)
    else:  # a loop a triangle, coloured by kind code
        colour = np.array([_COLOUR_CODES[name] for name in "AO"])[table[:, 0]]
        offsets, vertices = np.arange(0, 3 * len(table) + 1, 3), table[:, 1:4].ravel()
    xs, ys = decimals(x, y)
    fill = corners(xs, ys)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'.encode("ascii"),
    ]
    tails = np.array([_words(f'" fill="{c}" stroke="{_EDGE}" stroke-width="1.000000"/>\n')
                      for c in _COLOURS])
    parts.append(_polygons(fill, offsets, vertices, tails[colour]))

    if options.overlay is not None:
        k, m = options.overlay
        reach = max(map(math.hypot, x.tolist(), y.tolist()), default=0.0)
        if not reach:
            overlay = fill  # nothing to scale but the origin, which stays put
        elif k * _LOG_TAU + math.log(reach) > _LOG_FLOAT_MAX + 1:
            # the farthest scaled vertex lies beyond e * DBL_MAX, so one of
            # its coordinates would overflow: refuse before computing tau^k
            raise ValueError(_BEYOND)
        else:
            overlay = corners(*decimals(*_xy(_times(points, TAU_C ** k * EPS ** (m % 5)))))
        tail = f'" fill="none" stroke="{_OVERLAY}" stroke-width="2.000000"/>\n'
        parts.append(_polygons(overlay, offsets, vertices, _rows(len(colour), tail)))

    if options.atoms:
        parts.append(_ascii(_rows(len(points), '<circle cx="', xs, '" cy="', ys,
                                  f'" r="{_fmt(0.06 * scale)}" fill="{_ATOM}"/>\n')))

    parts.append(b"</svg>\n")
    return b"".join(parts)
