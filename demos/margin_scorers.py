"""
Margin scorers for average pooling
==================================

Average pooling cannot support subset scoring on all vectors, but trained
embeddings tend to be clear-cut: every per-property score is either
non-positive or at least a margin above zero.  On that restricted set,
one-layer scorers (ReLU, sigmoid, even plain linear on near-binary
coordinates) decide conjunctions of properties with a single sign test.
"""

from fractions import Fraction

from epipool import gamma_q, make_space, signum, x_star_membership
from epipool.entailment import SIGMOID_OFFSET, ClearCutError, sigmoid_steepness
from epipool.spaces import format_vector, vector

space = make_space("avg-margin-nonneg", 3, margin=1)

clear = vector(["0", "1", "2"])
fuzzy = vector(["1/2", "0", "0"])
print("clear-cut?", format_vector(clear), "->", x_star_membership(space, Fraction(1), clear))
print("clear-cut?", format_vector(fuzzy), "->", x_star_membership(space, Fraction(1), fuzzy))

# On clear-cut vectors the ReLU scorer counts how far below the margin the
# selected coordinates fall; any shortfall flips the sign.
for q in ((1,), (1, 2), (0, 1)):
    score = gamma_q(space, "margin-relu", q, clear)
    print(f"relu score over properties {q}: {score} "
          f"({'all satisfied' if signum(score) > 0 else 'not all satisfied'})")

# The sigmoid variant computes in floating point, with an error bound small
# enough that every sign on the clear-cut grid is certified.
print(f"\nsigmoid steepness {sigmoid_steepness(space)} (threshold {SIGMOID_OFFSET}):")
for q in ((1,), (0, 1), (1, 2)):
    score = gamma_q(space, "sigmoid", q, clear)
    print(f"  properties {q}: value {float(score):+.6f}, certified sign {signum(score):+d}")

# Ambiguous vectors are refused rather than silently mis-scored.
try:
    gamma_q(space, "margin-relu", (0,), fuzzy)
except ClearCutError as exc:
    print("\nambiguous vector refused:", exc)

# With coordinates in [0,1] and a slack below 1/n, a plain linear scorer
# works too: nearly-binary coordinates make "sum exceeds k-1" equivalent
# to "all k coordinates are high".
unit = make_space("avg-margin-unit", 4, eps=Fraction(1, 8))
high = unit.margin
v = (high, Fraction(1), Fraction(0), high)
for q in ((0, 1), (0, 2)):
    score = gamma_q(unit, "margin-linear", q, v)
    print(f"linear score over {q} at {format_vector(v)}: {score} -> sign {signum(score):+d}")
