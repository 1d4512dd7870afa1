"""Deterministic SVG rendering of tiling documents.

Output is assembled by plain string formatting with six-decimal
coordinates; identical documents and options give bit-identical bytes.
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
from .document import DocumentError, TilingDocument
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


def _group_outlines(doc: TilingDocument) -> list[tuple[str, list[int]]]:
    """Each group's boundary loops as vertex-index cycles, with its colour:
    the rim edges of its triangles (``_rim``), walked by ``_loops``.  A
    group with a directed edge owned twice is refused."""
    import numpy as np

    points, table = doc._arrays
    kinds, offsets, members = doc._group_arrays
    rows = table[members]
    group = np.repeat(np.arange(len(kinds)), np.diff(offsets))
    tail, head, twice, rim = _rim(rows[:, 1:4], rows[:, 4], len(points), group)
    if twice:
        raise DocumentError(f"group {group[twice[0] // 3]}: outline does not close; "
                            f"its triangles overlap")
    loops = _loops(tail[rim], head[rim], group[rim // 3])
    return [(PALETTE[kinds[g]], loop) for g, loop in loops]


_BEYOND = "SVG coordinates beyond the float range"
_LOG_TAU = math.log(PHI)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _xy(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's x and y as ``CycloPoint.embed`` gives them."""
    try:
        x, y = _embed(*points.T)
    except OverflowError:  # an integer coordinate too large for a float
        raise ValueError(_BEYOND) from None
    return x.astype(float), y.astype(float)


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
            overlay = corners(*_xy(_times(points, TAU_C ** k * EPS ** (m % 5))))
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
