"""
Weighted states: certainty levels under pooling
===============================================

Properties now carry certainty levels 0..K instead of a yes/no flag, and
pooling combines levels by pointwise maximum (the most confident source
wins).  Max pooling realises this with no extra dimensions; reducing the
weighted setting to the plain one instead multiplies the dimension by K+1.
"""

from epipool import decode_weighted, encode_weighted, gamma_q, make_space, pool, signum
from epipool.epistemic import PropertySpace
from epipool.spaces import format_vector
from epipool.weighted import WeightedState, sharp_reduction

space = make_space("weighted-max-reals", 3, levels=3)

mu = WeightedState.of(space.properties, (3, 0, 1), 3)
nu = WeightedState.of(space.properties, (1, 2, 1), 3)
u = encode_weighted(space, mu)
w = encode_weighted(space, nu)
print("source one levels", mu.levels, "->", format_vector(u))
print("source two levels", nu.levels, "->", format_vector(w))

pooled = pool("max", u, w)
print("pooled vector", format_vector(pooled), "-> levels", decode_weighted(space, pooled).levels)

# The unit-interval Hadamard construction squeezes three certainty levels
# into [0,1] coordinates: 0 means certain, 1 means unknown.
unit = make_space("weighted-had-unit", 3)
s = WeightedState.of(unit.properties, (2, 1, 0), 2)
v = encode_weighted(unit, s)
print("\nunit-interval encoding of levels", s.levels, "is", format_vector(v))
print("decoded:", decode_weighted(unit, v).levels)

# Reduction to the plain setting: one extended property per (property,
# level) pair.  Lower-bound queries become subset conjunctions, at the
# price of a (K+1)-fold wider vector.
base = PropertySpace.abstract(("rain", "wind"))
red = sharp_reduction(base, 2)
plain = make_space("avg-strict-nonneg", properties=red.extended)
print(f"\nreduction: {base.size} properties, cap 2 -> {red.extended.size} extended "
      f"properties, vectors of dimension {plain.n}")

from epipool import encode

levels = (2, 1)
vec = encode(plain, red.state_from_levels(levels))
for p, label in enumerate(("rain", "wind")):
    for bound in (1, 2):
        holds = signum(gamma_q(plain, "min", red.query_set(p, bound), vec)) > 0
        print(f"  certainty({label}) >= {bound}? {holds}")
