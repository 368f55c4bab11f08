"""
Pooling vectors as evidence accumulation
========================================

Two sources each contribute a vector; pooling them should yield a vector
whose decoded evidence is exactly the union of what the sources knew.
This walk-through uses the two-disc demo space: two properties, scored by
closeness to the reference points (0,0) and (1,1) in the plane.
"""

from epipool import check_principle, decode, gamma, make_space
from epipool.spaces import format_vector, vector

space = make_space("example1")

# Two nearby observations, one inside each disc.
e = vector(["1/4", "0"])
f = vector(["3/4", "1"])

for name, v in (("e", e), ("f", f)):
    scores = [gamma(space, i, v) for i in range(2)]
    rendered = ", ".join(f"{space.properties.label(i)}={float(s):+.4f}"
                         for i, s in enumerate(scores))
    print(f"{name} = {format_vector(v)}: scores {rendered} -> state {decode(space, v).format()}")

# Averaging them lands at (1/2, 1/2), inside both discs: the pooled state
# is the union {a, b}, so the pooling principle holds for this pair.
print("\naveraging e and f:")
print("  principle violated?", check_principle(space, e, f) is not None)

# A far-away vector g encodes nothing; averaging drags e's evidence out of
# its disc, so pooled knowledge silently loses what e knew.
g = vector(["10", "10"])
violation = check_principle(space, e, g)
print("\naveraging e and the far point g = (10, 10):")
print(" ", violation.describe())

# That failure is not an accident of this space: average pooling over an
# unrestricted domain cannot respect the principle except trivially.  The
# registry's sound constructions restrict the domain (or change operator).
sound = make_space("avg-strict-nonneg", 2)
print("\nsame pair under avg-strict-nonneg encodings never misbehaves:")
from epipool import EpistemicState, encode

s = encode(sound, EpistemicState.of(sound.properties, {0}))
t = encode(sound, EpistemicState.of(sound.properties, {1}))
print("  pooled state:", decode(sound, tuple((a + b) / 2 for a, b in zip(s, t))).format())
