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
from typing import Iterable

from .exact import EPS, PHI, TAU_C, CycloPoint
from .document import DocumentError, TilingDocument

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


def _group_outline(doc: TilingDocument, g: int) -> list[list[int]]:
    """Boundary loops of group g as vertex-index cycles.

    Each triangle contributes its directed boundary (counterclockwise by
    chirality); interior edges cancel in pairs, the rest chain into loops.
    They fail to close only where triangles lie on the same side of an edge.
    """
    directed: set[tuple[int, int]] = set()
    for i in doc.groups[g][1]:
        t = doc.triangles[i]
        cycle = (t.apex, t.base0, t.base1) if t.chirality == 1 else (
            t.apex, t.base1, t.base0)
        for k in range(3):
            directed.add((cycle[k], cycle[(k + 1) % 3]))
    boundary = {(a, b) for (a, b) in directed if (b, a) not in directed}
    # Each walk leaves a vertex by its smallest unused boundary edge.
    outgoing: dict[int, list[int]] = {}
    for a, b in sorted(boundary):
        outgoing.setdefault(a, []).append(b)
    loops = []
    for a, ends in outgoing.items():
        while ends:
            loop = [a]
            cur = ends.pop(0)
            while cur != a:
                if not outgoing.get(cur):
                    raise DocumentError(f"group {g}: outline does not close; "
                                        f"its triangles overlap")
                loop.append(cur)
                cur = outgoing[cur].pop(0)
            loops.append(loop)
    return loops


_BEYOND = "SVG coordinates beyond the float range"
_LOG_TAU = math.log(PHI)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _embed(points: Iterable[CycloPoint]) -> list[tuple[float, float]]:
    try:
        return [p.embed() for p in points]
    except OverflowError:  # an integer coordinate too large for a float
        raise ValueError(_BEYOND) from None


def render_svg(doc: TilingDocument, options: RenderOptions = RenderOptions()) -> bytes:
    doc.validate()
    scale = options.scale
    embedded = _embed(CycloPoint(*v) for v in doc.vertices)
    if embedded:
        xs = [p[0] for p in embedded]
        ys = [p[1] for p in embedded]
        lo_x, hi_x = min(xs) - options.margin, max(xs) + options.margin
        lo_y, hi_y = min(ys) - options.margin, max(ys) + options.margin
    else:
        lo_x, hi_x, lo_y, hi_y = -1.0, 1.0, -1.0, 1.0
    width = (hi_x - lo_x) * scale
    height = (hi_y - lo_y) * scale

    def corners(points) -> list[str]:
        """Each point's "x,y" in SVG coordinates, formatted once."""
        xy = [((x - lo_x) * scale, (hi_y - y) * scale) for x, y in points]
        if not all(math.isfinite(c) for p in xy for c in p):
            raise ValueError(_BEYOND)
        return [f"{_fmt(x)},{_fmt(y)}" for x, y in xy]

    if doc.groups is not None:
        outlines = [(PALETTE[kind], loop)
                    for g, (kind, _) in enumerate(doc.groups)
                    for loop in _group_outline(doc, g)]
    else:
        outlines = [(PALETTE[t.kind], (t.apex, t.base0, t.base1))
                    for t in doc.triangles]
    fill = corners(embedded)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n',
    ]
    for colour, loop in outlines:
        parts.append(f'<polygon points="{" ".join(fill[i] for i in loop)}" '
                     f'fill="{colour}" stroke="{_EDGE}" stroke-width="1.000000"/>\n')

    if options.overlay is not None:
        k, m = options.overlay
        reach = max((math.hypot(x, y) for x, y in embedded), default=0.0)
        if not reach:
            overlay = fill  # nothing to scale but the origin, which stays put
        elif k * _LOG_TAU + math.log(reach) > _LOG_FLOAT_MAX + 1:
            # the farthest scaled vertex lies beyond e * DBL_MAX, so one of
            # its coordinates would overflow: refuse before computing tau^k
            raise ValueError(_BEYOND)
        else:
            factor = TAU_C ** k * EPS ** (m % 5)
            overlay = corners(_embed(CycloPoint(*v) * factor for v in doc.vertices))
        for _, loop in outlines:
            parts.append(f'<polygon points="{" ".join(overlay[i] for i in loop)}" '
                         f'fill="none" stroke="{_OVERLAY}" stroke-width="2.000000"/>\n')

    if options.atoms:
        radius = _fmt(0.06 * scale)
        for corner in fill:
            x, y = corner.split(",")
            parts.append(f'<circle cx="{x}" cy="{y}" r="{radius}" fill="{_ATOM}"/>\n')

    parts.append("</svg>\n")
    return "".join(parts).encode("ascii")
