"""SVG rendering of satisfied-property regions for 2-D spaces.

Each property gets a translucent colour; a dense sample grid is classified
with the exact sign test and shaded row by row (horizontal runs collapse
into single rectangles, keeping files small).  Sampling density is a
visualisation choice only; region boundaries between sample points carry no
claim.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .spaces import SpaceConfig, contains, member_sign, score_sign

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
)

_SVG_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
)


def render_regions(
    config: SpaceConfig,
    lo: Fraction,
    hi: Fraction,
    resolution: int = 400,
) -> str:
    """Shade the satisfied region of every property of a 2-D space."""
    if config.n != 2:
        raise ValueError("region plots are available for 2-D spaces only")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    span = hi - lo
    if span <= 0:
        raise ValueError("empty plot range")
    parts = [_SVG_HEADER.format(w=resolution, h=resolution)]
    parts.append(f'<rect width="{resolution}" height="{resolution}" fill="#ffffff"/>\n')

    samples = [lo + span * k / (resolution - 1) for k in range(resolution)]

    for prop in range(config.size):
        colour = _PALETTE[prop % len(_PALETTE)]
        parts.append(f'<g fill="{colour}" fill-opacity="0.35">\n')
        for row, y in enumerate(reversed(samples)):
            inside = (
                contains(config.domain, point)
                and member_sign(config.semantics, score_sign(config, prop, point))
                for point in ((x, y) for x in samples)
            )
            col = 0
            for shaded, run in groupby(inside):
                width = len(list(run))
                if shaded:
                    parts.append(f'<rect x="{col}" y="{row}" width="{width}" height="1"/>\n')
                col += width
        parts.append("</g>\n")

    # axes through the origin, when visible
    def to_px(value: Fraction) -> float:
        return float((value - lo) / span) * (resolution - 1)

    if lo <= 0 <= hi:
        zero_x = to_px(Fraction(0))
        zero_y = resolution - 1 - to_px(Fraction(0))
        parts.append(
            f'<line x1="{zero_x:.1f}" y1="0" x2="{zero_x:.1f}" y2="{resolution}" '
            'stroke="#333333" stroke-width="1"/>\n'
        )
        parts.append(
            f'<line x1="0" y1="{zero_y:.1f}" x2="{resolution}" y2="{zero_y:.1f}" '
            'stroke="#333333" stroke-width="1"/>\n'
        )

    for prop in range(config.size):
        colour = _PALETTE[prop % len(_PALETTE)]
        label = config.properties.label(prop)
        parts.append(
            f'<text x="8" y="{18 + 16 * prop}" font-family="monospace" '
            f'font-size="13" fill="{colour}">{label}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
