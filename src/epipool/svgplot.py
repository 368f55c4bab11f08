"""SVG rendering of satisfied-property regions for 2-D spaces.

Each property gets a translucent colour.  The bounds are ints or Fractions,
so every sample is exact.  Each sample is checked against X once, with
``DomainX.contains_scalar``, and an in-X point's memberships are read with
``spaces.coordinate_levels``, as ``decode`` reads them; rows are shaded as
runs, one rectangle each.  Sampling density is a visualisation choice only;
boundaries between samples carry no claim.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .spaces import SpaceConfig, coordinate_levels, require_covers

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


def render_regions(config: SpaceConfig, lo: Fraction, hi: Fraction, resolution: int) -> str:
    """Shade the satisfied region of every property of a 2-D space."""
    if config.n != 2:
        raise ValueError("region plots are available for 2-D spaces only")
    require_covers(config)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    for bound in (lo, hi):
        if not isinstance(bound, (int, Fraction)):
            raise TypeError(f"plot bound {bound!r} is not an int or a Fraction")
    span = hi - lo
    if span <= 0:
        raise ValueError("empty plot range")
    parts = [_SVG_HEADER.format(w=resolution, h=resolution)]
    parts.append(f'<rect width="{resolution}" height="{resolution}" fill="#ffffff"/>\n')

    samples = [lo + Fraction(span * k, resolution - 1) for k in range(resolution)]
    in_x = list(map(config.domain.contains_scalar, samples))
    groups: list[list[str]] = [[] for _ in range(config.size)]
    for row, (y, y_in_x) in enumerate(zip(reversed(samples), reversed(in_x))):
        if not y_in_x:
            continue
        levels = [
            coordinate_levels(config, (x, y), config.semantics, 1) if x_in_x else None
            for x, x_in_x in zip(samples, in_x)
        ]
        for prop, rects in enumerate(groups):
            col = 0
            for shaded, run in groupby(point is not None and point[prop] for point in levels):
                width = len(list(run))
                if shaded:
                    rects.append(f'<rect x="{col}" y="{row}" width="{width}" height="1"/>\n')
                col += width
    for prop, rects in enumerate(groups):
        colour = _PALETTE[prop % len(_PALETTE)]
        parts.append(f'<g fill="{colour}" fill-opacity="0.35">\n')
        parts.extend(rects)
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
