"""Region plots, pinned byte for byte.

The hashes are of ``render_regions`` at resolution 41 over [-2, 2]^2, for
every registry space at n = 2 (``example1`` is fixed there).  Spaces whose
regions coincide share a hash.  The grid step is then 1/10, so 0, +-1/2, +-1
and the unit bounds are all samples, and the shaded samples are checked
against ``contains`` and the sign of each property's score.
"""

import hashlib
import re
from fractions import Fraction

import pytest

from epipool.numeric import signum
from epipool.spaces import REGISTRY, contains, make_space, member_sign, score_value
from epipool.svgplot import render_regions

NONNEG = "8163c1f9031537778b3fc2dbb94ffb2f2c79137547f4550d46a22e684104a191"
MAX_STRICT = "cba33b8c4e43d3862bae20447ec840b62af8cf90ea740e1afa76b89896f15aee"
HAD_REALS = "0c6b1f510f56e755f8822ff381666d0dbeec9fa5db0fe872d59fd1e1ed6f4cf2"

PINNED = {
    "avg-strict-nonneg": NONNEG,
    "sum-strict-nonneg": NONNEG,
    "avg-weak-nonneg-step": NONNEG,
    "max-strict-reals": MAX_STRICT,
    "max-weak-reals": "e8e989ddf94b42e74984330a63bffab3146d63a007c0b2e425f67aa29b642cd3",
    "max-weak-nonpos": "94d6c853b424d1b08ac4541e535c4f2307d0ad17c1d48e46c6db80730b768521",
    "had-strict-reals": HAD_REALS,
    "had-weak-reals": HAD_REALS,
    "had-weak-nonneg": "98c8da1b6c038df81d0e5d78122096cfbec3d68ed292cdbfc330eb141a7bf208",
    "avg-margin-nonneg": NONNEG,
    "avg-margin-unit": "531aec0a71772525f427d578618dc1fc81e21d728f9d2792f07d0bb930dcd045",
    "weighted-max-reals": MAX_STRICT,
    "weighted-had-unit": "40355b8268e0bf973b00c1d5c56b710dbc4f31a8b94ae6bcaff94705f7d7c38e",
    "example1": "8f351fc79f3759aa4660032df571a8e409e31067de8540e30270faa3a2681b3c",
}


def test_every_registry_space_is_pinned():
    assert set(PINNED) == set(REGISTRY)


@pytest.mark.parametrize("space", sorted(PINNED))
def test_render_regions_is_byte_identical(space):
    svg = render_regions(make_space(space, 2), Fraction(-2), Fraction(2), 41)
    assert hashlib.sha256(svg.encode()).hexdigest() == PINNED[space]


@pytest.mark.parametrize("space", ["example1", "max-weak-nonpos"])
def test_int_bounds_give_the_bytes_of_fraction_bounds(space):
    svg = render_regions(make_space(space, 2), -2, 2, 41)
    assert hashlib.sha256(svg.encode()).hexdigest() == PINNED[space]


def test_a_float_bound_is_refused_by_name():
    with pytest.raises(TypeError, match=r"^plot bound 1\.5 is not an int or a Fraction$"):
        render_regions(make_space("example1"), Fraction(-2), 1.5, 41)


def shaded_samples(svg):
    """Each property group's shaded (column, row) samples, read back from
    its one-row ``<rect>`` runs."""
    groups = []
    for group in re.findall(r"<g [^>]*>\n(.*?)</g>", svg, re.DOTALL):
        runs = re.findall(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="1"/>', group)
        groups.append(
            {(col, int(y)) for x, y, w in runs for col in range(int(x), int(x) + int(w))}
        )
    return groups


@pytest.mark.parametrize("space", sorted(REGISTRY))
def test_the_plot_shades_what_the_scores_decide(space):
    config = make_space(space, 2)
    samples = [Fraction(k - 20, 10) for k in range(41)]
    points = [
        ((x, y), (col, row))
        for row, y in enumerate(reversed(samples))
        for col, x in enumerate(samples)
    ]
    groups = shaded_samples(render_regions(config, Fraction(-2), Fraction(2), 41))
    assert len(groups) == config.size
    for prop, shaded in enumerate(groups):
        expected = {
            pixel
            for point, pixel in points
            if contains(config.domain, point)
            and member_sign(config.semantics, signum(score_value(config, prop, point)))
        }
        assert expected, (space, prop)
        assert shaded == expected, (space, prop)
