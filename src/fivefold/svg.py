"""Deterministic SVG rendering of tiling documents.

Output is assembled by plain string formatting with six-decimal
coordinates; identical documents and options give bit-identical bytes.
When the document carries groups, each group is drawn as one merged
polygon in its kind's palette colour, otherwise one polygon per triangle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exact import _COSK, _SINK, EPS, PHI, TAU_C, CycloPoint
from .document import DocumentError, TilingDocument

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
_EDGE = "#303030"
_ATOM = "#111111"
_OVERLAY = "#c2185b"


@dataclass(frozen=True)
class RenderOptions:
    scale: float = 100.0
    atoms: bool = False
    overlay: tuple[int, int] | None = None  # (tau exponent, 72-degree steps)
    margin: float = 0.5


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _group_outlines(doc: TilingDocument) -> list[tuple[str, list[int]]]:
    """Each group's boundary loops as vertex-index cycles, with its colour.

    Each triangle contributes its directed boundary (counterclockwise by
    chirality); interior edges cancel in pairs, the rest chain into loops.
    They fail to close only where triangles lie on the same side of an edge.
    The directed edges of every group pack as (group, tail, head) into one
    sorted array of distinct keys, which finds the edges with no reverse in
    their group and orders each group's boundary by tail, then head.
    """
    import numpy as np

    points, table = doc._arrays
    kinds, offsets, members = doc._group_arrays
    v = len(points)
    rows = table[members]
    ccw = np.where((rows[:, 4] == 1)[:, None], rows[:, 1:4], rows[:, [1, 3, 2]])
    group = np.repeat(np.arange(len(kinds)), 3 * np.diff(offsets))
    dtype = np.int64 if len(kinds) * v * v < 2 ** 63 else object
    # return_index makes np.unique sort, where it would hash: its hash
    # table raised the peak memory
    keys = np.unique((group.astype(dtype) * v + ccw.ravel()) * v + ccw[:, [1, 2, 0]].ravel(),
                     return_index=True)[0]
    g, tail, head = keys // (v * v), keys // v % v, keys % v
    back = (g * v + head) * v + tail
    rim = keys[np.minimum(np.searchsorted(keys, back), len(keys) - 1)] != back
    ends = np.searchsorted(g[rim], np.arange(len(kinds) + 1)).tolist()
    tail, head = tail[rim].tolist(), head[rim].tolist()
    loops = []
    for index, (kind, a, b) in enumerate(zip(kinds, ends, ends[1:])):
        outgoing: dict[int, list[int]] = {}
        for t, h in zip(tail[a:b], head[a:b]):
            outgoing.setdefault(t, []).append(h)
        # each walk leaves a vertex by its smallest unused boundary edge
        for start, exits in outgoing.items():
            while exits:
                loop = [start]
                cur = exits.pop(0)
                while cur != start:
                    if not outgoing.get(cur):
                        raise DocumentError(f"group {index}: outline does not close; "
                                            f"its triangles overlap")
                    loop.append(cur)
                    cur = outgoing[cur].pop(0)
                loops.append((PALETTE[kind], loop))
    return loops


_BEYOND = "SVG coordinates beyond the float range"
_LOG_TAU = math.log(PHI)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _embed(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's x and y, by the float operations of CycloPoint.embed in
    their order, so that the floats are the same."""
    z0, z1, z2, z3 = points.T
    try:
        x = z0 + z1 * _COSK[1] + z2 * _COSK[2] + z3 * _COSK[3]
        y = z1 * _SINK[1] + z2 * _SINK[2] + z3 * _SINK[3]
    except OverflowError:  # an integer coordinate too large for a float
        raise ValueError(_BEYOND) from None
    return x.astype(float), y.astype(float)


def _times(points: np.ndarray, factor: CycloPoint) -> np.ndarray:
    """Each point times factor, exactly: a 4x4 integer matrix whose rows
    are the images eps^j * factor of the basis, on Python ints (dtype
    object) where int64 could overflow."""
    import numpy as np

    matrix = [(EPS ** j * factor).coords() for j in range(4)]
    bound = (4 * max(abs(c) for row in matrix for c in row)
             * max(int(points.max()), -int(points.min())))
    dtype = np.int64 if bound < 2 ** 63 else object
    return points.astype(dtype) @ np.array(matrix, dtype=dtype)


def render_svg(doc: TilingDocument, options: RenderOptions = RenderOptions()) -> bytes:
    import numpy as np

    doc.validate()
    scale = options.scale
    points, table = doc._arrays
    x, y = _embed(points)
    if len(points):
        lo_x, hi_x = float(x.min()) - options.margin, float(x.max()) + options.margin
        lo_y, hi_y = float(y.min()) - options.margin, float(y.max()) + options.margin
    else:
        lo_x, hi_x, lo_y, hi_y = -1.0, 1.0, -1.0, 1.0
    width = (hi_x - lo_x) * scale
    height = (hi_y - lo_y) * scale

    def corners(x: np.ndarray, y: np.ndarray) -> list[str]:
        """Each point's "x,y" in SVG coordinates, formatted once."""
        with np.errstate(over="ignore", invalid="ignore"):
            xy = np.column_stack(((x - lo_x) * scale, (hi_y - y) * scale))
        if not np.isfinite(xy).all():
            raise ValueError(_BEYOND)
        text = "%.6f,%.6f\n" * len(xy) % tuple(xy.ravel().tolist())
        return text.replace("-0.000000", "0.000000").split("\n")[:-1]

    if doc._group_arrays is not None:
        outlines = _group_outlines(doc)
    else:
        colours = PALETTE["A"], PALETTE["O"]  # by kind code
        outlines = list(zip(map(colours.__getitem__, table[:, 0].tolist()),
                            table[:, 1:4].tolist()))
    fill = corners(x, y)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n',
    ]
    for colour, loop in outlines:
        parts.append(f'<polygon points="{" ".join(map(fill.__getitem__, loop))}" '
                     f'fill="{colour}" stroke="{_EDGE}" stroke-width="1.000000"/>\n')

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
            overlay = corners(*_embed(_times(points, TAU_C ** k * EPS ** (m % 5))))
        for _, loop in outlines:
            parts.append(f'<polygon points="{" ".join(map(overlay.__getitem__, loop))}" '
                         f'fill="none" stroke="{_OVERLAY}" stroke-width="2.000000"/>\n')

    if options.atoms:
        radius = _fmt(0.06 * scale)
        for corner in fill:
            cx, cy = corner.split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="{_ATOM}"/>\n')

    parts.append("</svg>\n")
    return "".join(parts).encode("ascii")
