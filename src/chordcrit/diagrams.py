"""SVG chord diagrams: n labelled points on a circle, chords as segments.

Colour groups (e.g. the classes of a certificate colouring) are rendered as
shades of grey, darkest first.  Output is deterministic text.
"""

from __future__ import annotations

import math

from .families import Chord, chord_label, gn_chords, validate_chord
from .graph import Coloring

# Width and height of a diagram, in SVG user units.
SIZE = 420


def _point(i: int, n: int, cx: float, cy: float, r: float) -> tuple[float, float]:
    # Point 1 at the top, then clockwise.
    theta = math.pi / 2 - 2 * math.pi * (i - 1) / n
    return cx + r * math.cos(theta), cy - r * math.sin(theta)


def _grey_shades(count: int) -> list[str]:
    if count == 1:
        return ["#333333"]
    shades = []
    for i in range(count):
        v = int(round(40 + 150 * i / (count - 1)))
        shades.append(f"#{v:02x}{v:02x}{v:02x}")
    return shades


def chord_diagram(
    n: int,
    chords: list[Chord],
    color_classes: dict[Chord, int] | None = None,
) -> str:
    """SVG for the given chords of the n-cycle.

    With `color_classes`, chords sharing a colour id share a grey shade and
    a slightly thicker stroke.
    """
    chords = [validate_chord(p, n) for p in chords]
    cx = cy = SIZE / 2
    r = SIZE * 0.40
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'  <circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="none" '
        f'stroke="#cccccc" stroke-width="1"/>',
    ]
    shade_of: dict[int, str] = {}
    if color_classes:
        distinct = sorted({color_classes[p] for p in chords if p in color_classes})
        shades = _grey_shades(len(distinct))
        shade_of = dict(zip(distinct, shades))
    for p in chords:
        (x1, y1) = _point(p[0], n, cx, cy, r)
        (x2, y2) = _point(p[1], n, cx, cy, r)
        stroke = "#000000"
        width = 1.5
        if color_classes and p in color_classes:
            stroke = shade_of[color_classes[p]]
            width = 2.5
        lines.append(
            f'  <line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}">'
            f"<title>{chord_label(p)}</title></line>"
        )
    for i in range(1, n + 1):
        (x, y) = _point(i, n, cx, cy, r)
        lines.append(f'  <circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#000000"/>')
        (lx, ly) = _point(i, n, cx, cy, r * 1.12)
        lines.append(
            f'  <text x="{lx:.2f}" y="{ly:.2f}" font-size="14" '
            f'text-anchor="middle" dominant-baseline="central">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def certificate_classes(
    n: int, assignment: Coloring
) -> dict[Chord, int]:
    """Chord-keyed colour classes from a vertex-id-keyed colouring of gn(n)."""
    chords = gn_chords(n)
    return {chords[v]: c for v, c in assignment.items()}
