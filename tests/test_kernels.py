"""The integer kernels of the vector path against the per-scalar code they
replace.

``DomainX.contains_scalar`` (behind ``contains``), ``exact_sum`` and
``gamma_q`` read numerators and denominators instead of doing Fraction
arithmetic one coordinate at a time.  Each is compared here, on seeded
random rationals (negative, zero, non-integer denominators and plain ints),
with the reference it replaces: each domain kind's Fraction comparisons,
kept below, ``sum(..., Fraction(0))``, and the summing formulas ``gamma_q``
used before, kept below as the oracle.  Every ``Family.score`` keeps a
Fraction a Fraction.  ``pool`` and ``pool_many`` are compared with
``pool_scalar`` on the same rationals and on vectors that repeat objects,
encoded ones included; ``pool`` calls ``pool_scalar`` once per distinct
pair of coordinate objects.  On two ``Encoded`` inputs ``pool`` reads
their parts; that path is compared with the coordinate loop on the plain
tuples (coordinates, types, parts and their order, call count) on one
part each, merging max pairs, n = 1 and n = 0, 64 x 64 objects at n =
4096, more part pairs than coordinates, two domains, padding and results
outside X.  That path pools each pair of parts that meet once, in the
order of their first common position, merges the results by identity and
selects each coordinate by the index of the merged part that holds it; it
runs only when the pairs of parts are at most n, which bounds its work.
``decode`` and ``encode`` are compared with
the comprehensions they replace, on those inputs and their pooled results;
``decode`` and ``decode_weighted`` read their levels through
``coordinate_levels``, which calls ``Family.score`` once per distinct
coordinate object.  ``mask_worlds`` is compared with its per-bit
comprehension up to 8,192 bits, and selects from one shared tuple of world
indices that importing the package does not build.
The subset kernel ``subset_scorer`` builds once per vector is compared with
``gamma_q`` and that oracle on the clear-cut grid, and ``psi`` with the
verdict the oracle sweep takes from the kernel. ``psi`` on a plain tuple,
which feeds the per-index kernel, is compared on every registry space at
m = 1-4 atoms with the summing oracle and ``state_entails``, on shared
objects, on equal values held as distinct objects and on random vectors;
each exact scorer's rule scores a tally as it scores the terms one by one.
The formula sweeps' call counts are pinned, with the property their memo
relies on: a margin kernel reads the vector only at the subset it scores.
``encode``, ``pool`` and vector files give ``Encoded`` vectors, which carry
each distinct object's positions: ``contains``,
``decode``, ``psi`` and ``pool`` and ``pool_many`` folds read those parts,
and each is compared with the same call on ``tuple(v)``, which takes the
coordinate-by-coordinate path above, on had, sum and avg chains of many
parts, every registry logical space at m = 1-4 and a few at m = 12; ``psi``
on the parts calls ``Family.score`` once per distinct coordinate object,
and a CLI query's domain checks read each file vector's parts, not its
coordinates.  A pool that leaves X, and an encoding whose values leave X,
are ``Encoded`` and refused as their tuples are; an ``Encoded`` vector
compares, hashes, prints, slices, pickles and copies as its tuple does,
with its parts kept and frozen.
The last tests show that the fast paths still refuse bad input, with
messages that name n and the first offending coordinate.
"""

import copy
import itertools
import json
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from epipool import logic
from epipool.cli import main
from epipool.entailment import (
    CLEAR_CUT_SCORERS,
    SCORERS,
    ClearCutError,
    _SIGMOID_TERM_BOUND,
    SIGMOID_OFFSET,
    gamma_q,
    psi,
    scorer_compatible,
    sigmoid,
    sigmoid_steepness,
    subset_scorer,
    x_star_membership,
)
from epipool.epistemic import EpistemicState, PropertySpace, state_entails
from epipool.files import NamedVector, dumps_vectors, load_for_space, loads_vectors
from epipool.logic import AtomTable, countermodels, mask_worlds, parse_formula
from epipool.numeric import ScoreValue, exact_sum, format_rational, signum
from epipool.pooling import PoolClosureError, pool, pool_many, pool_scalar, pooled_vector
from epipool.record import FrozenInstanceError
from epipool.spaces import (
    FAMILIES,
    OPERATORS,
    REGISTRY,
    DomainError,
    DomainX,
    Encoded,
    contains,
    decode,
    encode,
    encode_values,
    make_space,
    member_sign,
    require_in_domain,
    score_value,
    tagged,
)
from epipool.verifier import (
    DEFAULT_GRID,
    TABLE_ROWS,
    TrialPlan,
    formula_battery,
    logical_space,
    rational_pool,
)
from epipool.weighted import decode_weighted

F = Fraction
SEED = 20240917
DOMAINS = [
    DomainX("reals", 0),
    DomainX("nonneg", 0),
    DomainX("nonpos", 0),
    DomainX("unit", 0),
    DomainX("bounded-above", 0, F(1, 3)),
]
BOUNDS = [F(1, 3), F(-5, 2), F(0), F(2), F(-1), 7, -2]


def rational(rng: random.Random):
    """A coordinate: a Fraction with a small denominator, zero, or a plain int."""
    kind = rng.randrange(4)
    if kind == 0:
        return F(rng.randint(-12, 12), rng.randint(1, 9))
    if kind == 1:
        return rng.choice((F(0), 0, F(1), 1, F(-1), -1))
    if kind == 2:
        return rng.randint(-3, 3)
    return F(rng.randint(-3, 3))


def vectors(rng: random.Random, n: int, count: int):
    return [tuple(rational(rng) for _ in range(n)) for _ in range(count)]


# --- contains ------------------------------------------------------------------


def contains_by_comparison(domain, x):
    """The domain's bounds as Fraction comparisons, as ``contains_scalar``
    made them before it read integers."""
    if domain.kind == "reals":
        return True
    if domain.kind == "nonneg":
        return x >= 0
    if domain.kind == "nonpos":
        return x <= 0
    if domain.kind == "unit":
        return 0 <= x <= 1
    return x <= domain.z


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_contains_matches_contains_scalar_on_every_kind(n):
    """contains_scalar, and contains over whole vectors, against the
    comparisons on the bounds themselves and on the random rationals."""
    rng = random.Random(SEED + n)
    domains = [d.replace(n=n) for d in DOMAINS[:4]]
    domains += [DomainX("bounded-above", n, z) for z in BOUNDS]
    seen = set()
    for domain in domains:
        vs = vectors(rng, n, 300)
        for x in [*BOUNDS, *(x for v in vs for x in v)]:
            assert domain.contains_scalar(x) is contains_by_comparison(domain, x), (domain, x)
        for v in vs:
            expected = all(contains_by_comparison(domain, x) for x in v)
            assert contains(domain, v) is expected, (domain, v)
            seen.add(expected)
    assert seen == ({True, False} if n else {True})


def test_contains_still_checks_the_dimension():
    for domain in DOMAINS:
        with pytest.raises(DomainError, match="dimension 1, domain expects 0"):
            contains(domain, (F(0),))


# --- Family.score --------------------------------------------------------------


def family_probe_values():
    """The verifier's default grid and every domain's rational pool, and a few more."""
    domains = (
        DomainX("reals", 1), DomainX("nonneg", 1), DomainX("nonpos", 1), DomainX("unit", 1),
        DomainX("bounded-above", 1, F(1)),
    )
    extra = {F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(2), F(-2)}
    pooled = {x for dom in domains for x in rational_pool(dom)}
    return sorted(pooled | set(DEFAULT_GRID) | extra)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_score_of_a_fraction_is_a_fraction(family):
    """Seeded random coordinates and the probe values: a score stays exact."""
    rng = random.Random(SEED)
    score = FAMILIES[family].score
    points = [rational(rng) for _ in range(400)] + [F(0), F(1), F(-1), 0, 1, -1, F(1, 2)]
    for x in points + family_probe_values():
        assert isinstance(score(x), Fraction) or type(x) is int, (family, x)


# --- exact_sum -----------------------------------------------------------------


def test_exact_sum_matches_fraction_sum():
    """Each value once, as the per-index kernels sum, and each value times
    its count, as psi sums an Encoded vector's parts, negative and zero counts
    included."""
    rng = random.Random(SEED)
    for size in (0, 1, 2, 7, 64):
        for _ in range(50):
            xs = [rational(rng) for _ in range(size)]
            total = exact_sum(iter(xs))
            assert total == sum(xs, F(0)) and type(total) is F
            counts = [rng.randint(-3, 9) for _ in xs]
            total = exact_sum(iter(xs), iter(counts))
            assert total == sum((x * c for x, c in zip(xs, counts)), F(0)) and type(total) is F


# --- pool and pool_many --------------------------------------------------------


def encoded_pairs(operator: str, n: int = 4096):
    """Two encoded random states of every registry space that pools with
    ``operator`` at n coordinates (the fixed n = 2 disc aside), and the
    first pooled with itself: each vector holds two coordinate objects."""
    rng = random.Random(SEED)
    for name, entry in REGISTRY.items():
        if entry.operator == operator and entry.labels is None:
            config = make_space(name, n)
            v, w = (
                encode(config, EpistemicState.of(
                    config.properties, [i for i in range(n) if rng.random() < 0.5]))
                for _ in range(2)
            )
            yield v, w
            yield v, v


def pool_inputs(operator: str):
    """Random rationals; vectors over one 2- or 3-object alphabet; equal
    values in distinct objects, 1 beside Fraction(1) among them; a vector
    pooled with itself; and every encoded pair of ``encoded_pairs``."""
    rng = random.Random(SEED)
    for n in (0, 1, 3, 8):
        yield from zip(vectors(rng, n, 60), vectors(rng, n, 60))
    for size in (2, 3):
        for _ in range(20):
            alphabet = [rational(rng) for _ in range(size)]
            yield tuple(tuple(rng.choice(alphabet) for _ in range(64)) for _ in range(2))
    yield tuple(F(k % 3, 2) for k in range(12)), tuple(F(k % 2) for k in range(12))
    yield (1, F(1), 1, F(1), 0, F(0), -1), (F(1), 1, 1, F(1), F(0), 0, F(-1))
    v = vectors(rng, 16, 1)[0]
    yield v, v
    yield from encoded_pairs(operator)


@pytest.mark.parametrize("operator", OPERATORS)
def test_pool_matches_pool_scalar(operator):
    for v, w in pool_inputs(operator):
        out = pool(operator, v, w)
        expected = tuple(pool_scalar(operator, a, b) for a, b in zip(v, w))
        assert out == expected
        assert [type(x) for x in out] == [type(x) for x in expected]


@pytest.mark.parametrize("operator", OPERATORS)
def test_pool_builds_each_distinct_pair_of_encoded_coordinates_once(operator, monkeypatch):
    """pool calls pool_scalar once per distinct pair of coordinate objects.
    Two encoded vectors hold two objects each, so that is at most four
    calls, however many coordinates they have."""
    import epipool.pooling as pooling

    calls = []
    scalar = pooling.pool_scalar
    monkeypatch.setattr(
        pooling, "pool_scalar", lambda op, a, b: calls.append((op, a, b)) or scalar(op, a, b)
    )
    pairs = list(encoded_pairs(operator))
    assert pairs
    for v, w in pairs:
        calls.clear()
        out = pool(operator, v, w)
        distinct = {(id(a), id(b)) for a, b in zip(v, w)}
        assert len(calls) == len(distinct) <= 4
        assert {op for op, _, _ in calls} == {operator}
        assert {(id(a), id(b)) for _, a, b in calls} == distinct
        assert len({id(x) for x in out}) <= 4


@pytest.mark.parametrize("operator", OPERATORS)
def test_pool_many_matches_pool_scalar(operator):
    rng = random.Random(SEED)
    for k in (1, 2, 3, 5):
        for _ in range(40):
            vs = vectors(rng, 4, k)
            if operator == "avg":
                expected = tuple(sum(col, F(0)) / k for col in zip(*vs))
            else:
                expected = vs[0]
                for v in vs[1:]:
                    expected = tuple(pool_scalar(operator, a, b) for a, b in zip(expected, v))
            assert pool_many(operator, vs) == expected


def test_pool_refuses_an_unknown_operator():
    # the operator is checked before any coordinate is read
    for v in ((F(1),), ()):
        with pytest.raises(ValueError, match="unknown operator"):
            pool("median", v, v)
    # pool_many refuses it for one vector too, where no pool call is made
    for vs in ([(F(1), F(2))], [(F(1),), (F(2),)], [()]):
        with pytest.raises(ValueError, match="unknown operator"):
            pool_many("median", vs)


# --- pool's parts path against the coordinate loop -----------------------------


def identity_parts(v):
    """(value, type, positions) per distinct object of v, found by identity,
    in first-occurrence order: the parts the coordinate loop's result has."""
    held = {}
    for i, x in enumerate(v):
        held.setdefault(id(x), [x, 0])[1] |= 1 << i
    return [(x, type(x), positions) for x, positions in held.values()]


def over(objects, n, rng):
    """An Encoded vector of n coordinates drawn from ``objects``, by identity."""
    return tagged(tuple(rng.choice(objects) for _ in range(n)))


def objects(rng, count):
    """``count`` distinct Fraction objects (a plain int may be a cached one)."""
    return [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(count)]


def parts_path_cases(operator):
    """(case, v, w) for every shape the parts path must match the loop on."""
    rng = random.Random(f"{SEED}:parts:{operator}")
    config = make_space("max-weak-nonpos", 64)
    full, empty = (encode(config, EpistemicState.of(config.properties, m)) for m in (range(64), []))
    yield "one part each", full, empty
    yield "one part and two", full, encode(config, EpistemicState.of(config.properties, [5, 9]))
    # max keeps v's object wherever v's values are above all of w's: pairs merge
    yield "pairs merging", over([F(1), F(2), F(3)], 64, rng), over([F(0), F(-1)], 64, rng)
    yield "two and three", over([F(1, 2), F(-3)], 64, rng), over([F(2), F(0), F(-5, 3)], 64, rng)
    # 64 x 64 = n takes the parts path, with up to 4096 meeting pairs to sort and label
    for k, l, n in ((64, 64, 4096), (16, 32, 512)):
        yield f"{k}x{l} at {n}", *(over(objects(rng, count), n, rng) for count in (k, l))
    yield "product above n", over([F(k) for k in range(16)], 64, rng), over(
        [F(k, 3) for k in range(8)], 64, rng)
    other = make_space("max-weak-reals", 64)
    yield "two domains", encode(other, EpistemicState.of(other.properties, [1, 2])), empty
    wide, narrow = make_space("avg-margin-nonneg", 8), make_space("avg-margin-nonneg", 3, n=8)
    padded = [encode(narrow, EpistemicState.of(narrow.properties, m)) for m in ([0], [1, 2])]
    yield "padding past |P|", *padded
    yield "padding against no padding", padded[0], encode(
        wide, EpistemicState.of(wide.properties, [3, 7]))
    if operator in ("had", "sum"):
        # had on (-inf,0]^n makes 1 of -1 and -1; sum on [0,1]^n makes 2 of 1 and 1
        values = (F(0), F(-1)) if operator == "had" else (F(0), F(1))
        yield "leaves X", *(over(values, 64, rng) for _ in "vw")
    # one label is selected by its own branch; no label, by either
    yield "n = 1", *(over(objects(rng, 1), 1, rng) for _ in "vw")
    yield "n = 0", tagged(()), tagged(())


@pytest.mark.parametrize("operator", OPERATORS)
def test_pools_parts_path_equals_the_coordinate_loop(operator, monkeypatch):
    """Against the loop on the plain tuples: the same coordinates and types,
    parts and their order, and one pool_scalar call per pair of parts that
    meet, in or out of any one domain.  The parts path runs exactly when the
    part pairs are at most n.  Under every operator but max, which returns
    one of its inputs, the 64x64 case has more than 255 result parts, so its
    labels take more than one byte each."""
    import epipool.pooling as pooling

    calls, labelled = [], []
    scalar, labels = pooling.pool_scalar, pooling.position_labels
    monkeypatch.setattr(
        pooling, "pool_scalar", lambda op, a, b: calls.append((a, b)) or scalar(op, a, b))
    monkeypatch.setattr(
        pooling, "position_labels", lambda *args: labelled.append(1) or labels(*args))
    seen = set()
    for case, v, w in parts_path_cases(operator):
        meeting = sum(1 for _, p in v.parts for _, q in w.parts if p & q)
        calls.clear(), labelled.clear()
        out = pool(operator, v, w)
        assert len(calls) == meeting, case
        assert len(labelled) == (len(v.parts) * len(w.parts) <= len(v)), case
        calls.clear()
        plain = pool(operator, tuple(v), tuple(w))
        assert type(plain) is tuple and len(calls) == meeting, case
        assert out == plain and list(map(type, out)) == list(map(type, plain)), case
        assert describes(out), case
        assert [(x, type(x), p) for x, p in out.parts] == identity_parts(plain), case
        seen.add(len(out.parts) > 255)
    assert seen == ({False} if operator == "max" else {True, False})


@pytest.mark.parametrize("operator", ["had", "sum"])
def test_a_parts_path_pool_that_leaves_x_is_refused_by_its_first_coordinate(operator):
    """The parts path gives an Encoded vector that contains refuses, and
    pooled_vector's message is the loop's: n and the first coordinate outside."""
    kind, values = ("nonpos", (F(0), F(-1))) if operator == "had" else ("unit", (F(0), F(1)))
    config = make_space("max-weak-nonpos", 4096).replace(
        operator=operator, domain=DomainX(kind, 4096))
    v = tagged((values[0],) * 7 + (values[1],) * 4089)
    w = tagged((values[1],) * 4096)
    out = pool(operator, v, w)
    assert describes(out) and not contains(config.domain, out)
    with pytest.raises(PoolClosureError) as refused:
        pooled_vector(config, v, w)
    expected = {
        "had": "(-inf,0]^n: n=4096, coordinate 7 is 1",
        "sum": "[0,1]^n: n=4096, coordinate 7 is 2",
    }
    assert str(refused.value) == f"{operator} pooling left {expected[operator]}"


# --- decode and encode ----------------------------------------------------------

PER_COORDINATE = [name for name, entry in REGISTRY.items() if entry.family in FAMILIES]


def decode_reference(config, v):
    """decode before it keyed levels by identity: decode's checks in decode's
    order (the dimension, each coordinate's type, the domain, n against |P|),
    then the sign of one Family.score per property."""
    if len(v) != config.n:
        raise DomainError(f"vector has dimension {len(v)}, domain expects {config.n}")
    for x in v:
        if not isinstance(x, (int, F)):
            raise TypeError(f"coordinate {x!r} is not an int or a Fraction")
    outside = [(i, x) for i, x in enumerate(v) if not config.domain.contains_scalar(x)]
    if outside:
        i, x = outside[0]
        raise DomainError(
            f"vector outside {config.domain.describe()}: n={len(v)}, coordinate {i} is "
            f"{format_rational(x)}"
        )
    if config.n < config.size:
        raise DomainError(f"n={config.n} is below the property count {config.size}")
    score = FAMILIES[config.family].score
    return frozenset(
        i for i in range(config.size) if member_sign(config.semantics, signum(score(v[i])))
    )


def outcome(decoder, config, v):
    """What decoding v gives: its members, or the error's type and message."""
    try:
        result = decoder(config, v)
    except (DomainError, TypeError) as exc:
        return type(exc), str(exc)
    return result if isinstance(result, frozenset) else result.members


def decode_inputs(operator: str):
    """pool_inputs and their pooled results; vectors whose coordinates are
    all distinct objects; and bad vectors: a float after a coordinate
    outside every domain but R^n, a short one and a long one."""
    rng = random.Random(SEED + 1)
    for v, w in pool_inputs(operator):
        yield v
        yield w
        yield pool(operator, v, w)
    for n in (3, 64, 256):
        yield tuple(F(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(n))
        yield tuple(F(k % 3) for k in range(n))
    yield (F(-7, 2), 0.25, F(9))
    yield (F(-7, 2), F(9))
    yield (0.25, F(-7, 2), F(9), 1)


def decode_configs(name: str, n: int):
    """The space at dimension n (at least 1) with |P| = n, one property
    fewer (padding) and one more (n below |P|)."""
    dim = max(n, 1)
    for size in {dim, dim - 1, dim + 1}:
        yield make_space(name, size, n=dim)


@pytest.mark.parametrize("name", PER_COORDINATE)
def test_decode_matches_the_score_sign_comprehension(name):
    operator = REGISTRY[name].operator
    configs: dict = {}
    kinds = set()
    for v in decode_inputs(operator):
        if len(v) not in configs:
            configs[len(v)] = list(decode_configs(name, len(v)))
        for config in configs[len(v)]:
            expected = outcome(decode_reference, config, v)
            assert outcome(decode, config, v) == expected, (config.name, config.size, v[:8])
            kinds.add(expected[0] if isinstance(expected, tuple) else "state")
    assert {"state", DomainError, TypeError} <= kinds


@pytest.mark.parametrize("name", PER_COORDINATE)
def test_decoders_score_each_distinct_coordinate_object_once(name, monkeypatch):
    """decode and decode_weighted call Family.score once per distinct
    coordinate object among the first |P|: at most twice on an encoded
    vector and four times on a pooled pair, however many coordinates they
    have."""
    config = make_space(name, 4096)
    family = FAMILIES[config.family]
    scored = []
    monkeypatch.setitem(
        FAMILIES, config.family, family.replace(score=lambda x: scored.append(x) or family.score(x))
    )
    decoders = (decode, lambda config, u: decode_weighted(config, u, cap=2))
    decoded = 0
    for v, w in encoded_pairs(config.operator):
        pooled = pool(config.operator, v, w)
        for u, most in ((v, 2), (w, 2), (pooled, 4)):
            if not contains(config.domain, u):
                continue  # encoded by another space of the operator
            distinct = {id(x) for x in u}
            for decoder in decoders:
                scored.clear()
                decoder(config, u)
                assert len(scored) == len(distinct) <= most
                assert {id(x) for x in scored} == distinct
            decoded += 1
    assert decoded >= 3


def test_mask_worlds_matches_the_bit_comprehension():
    def reference(mask):
        return [w for w, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]

    rng = random.Random(SEED)
    for bits in (0, 1, 16, 256, 4096, 4097, 8192):
        for mask in (rng.getrandbits(bits), (1 << bits) - 1, (1 << bits) >> 1):
            assert mask_worlds(mask) == reference(mask), (bits, mask)
    assert mask_worlds(0) == [] and mask_worlds(1 << 4095) == [4095]
    assert mask_worlds(1 << 8191 | 1) == [0, 8191]


def test_mask_worlds_selects_from_one_shared_tuple_of_world_indices():
    """Built for the longest mask read so far and kept for shorter ones:
    the worlds returned are its ints."""
    mask_worlds(1 << 4095)
    worlds = logic._worlds
    assert type(worlds) is tuple and len(worlds) >= 4096 and worlds[:5] == (0, 1, 2, 3, 4)
    for mask in (0, 1, 0b1011, (1 << 4096) - 1, 1 << 3000):
        assert all(world is worlds[world] for world in mask_worlds(mask))
        assert logic._worlds is worlds


def test_importing_epipool_builds_no_world_tuple(subprocess_env):
    code = "import epipool, epipool.logic as logic; print(len(logic._worlds))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=subprocess_env,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")


@pytest.mark.parametrize("name", PER_COORDINATE)
def test_encode_matches_the_membership_comprehension(name):
    """At n = |P| and with padding past |P|: the same vector, holding only
    the two objects encode_values gives."""
    rng = random.Random(SEED)
    for size in (1, 5, 64):
        for n in (size, size + 3):
            config = make_space(name, size, n=n)
            member, non_member = encode_values(config)
            for _ in range(5):
                state = EpistemicState.of(
                    config.properties, [i for i in range(size) if rng.random() < 0.5]
                )
                expected = tuple(
                    [member if i in state.members else non_member for i in range(size)]
                    + [non_member] * (n - size)
                )
                out = encode(config, state)
                assert out == expected
                assert [type(x) for x in out] == [type(x) for x in expected]
                assert len({id(x) for x in out}) <= 2
                assert decode(config, out) == state


# --- gamma_q -------------------------------------------------------------------


def oracle_clear_cut(config, delta, v):
    score = config.scoring.score
    for i in range(config.size):
        if 0 < score(v[i]) < delta:
            return False
    return True


def oracle_gamma_q(config, scorer, q, v):
    """gamma_q as it summed before the integer kernels, one Fraction at a time."""
    require_in_domain(config, v)
    indices = sorted(set(q))
    if any(i < 0 or i >= config.size for i in indices):
        raise IndexError("property index out of range")
    if not indices:
        return F(1)
    if scorer == "min":
        parts = [score_value(config, i, v) for i in indices]
        if not any(isinstance(p, ScoreValue) for p in parts):
            return min(parts)
        return ScoreValue(min(float(p) for p in parts), sign=min(signum(p) for p in parts))
    if scorer in ("linear", "squared"):
        score = config.scoring.score
        return sum((score(v[i]) for i in indices), F(0))
    if scorer == "relu":
        return sum((min(v[i], F(0)) for i in indices), F(0))
    if not oracle_clear_cut(config, config.margin, v):
        raise ClearCutError("ambiguous")
    delta = config.margin
    if scorer == "margin-relu":
        return delta - sum((max(F(0), delta - v[i]) for i in indices), F(0))
    if scorer == "sigmoid":
        lam, total = float(sigmoid_steepness(config)), float(SIGMOID_OFFSET)
        for i in indices:
            total -= sigmoid(lam * (float(delta) / 2.0 - float(v[i])))
        return ScoreValue(total, bound=_SIGMOID_TERM_BOUND * (len(indices) + 1))
    return sum((v[i] for i in indices), F(0)) - len(indices) + 1


def domain_vector(rng, config):
    """A random vector of the space's domain, clear-cut about half the time."""
    kind, n = config.domain.kind, config.n
    if config.margin is not None and rng.random() < 0.5:
        top = config.margin + (F(0) if kind == "unit" else F(rng.randint(0, 3), 2))
        return tuple(rng.choice((F(0), top)) for _ in range(n))
    if kind == "unit":
        return tuple(F(rng.randint(0, 6), 6) for _ in range(n))
    v = tuple(rational(rng) for _ in range(n))
    if kind == "nonneg":
        return tuple(abs(x) for x in v)
    if kind == "nonpos":
        return tuple(-abs(x) for x in v)
    return v


# (space, scorer): every scorer on each space it is sound for, min on every kind
SCORED = [
    ("max-weak-nonpos", "linear"),
    ("had-weak-nonneg", "linear"),
    ("max-weak-reals", "relu"),
    ("had-weak-reals", "squared"),
    ("avg-margin-nonneg", "margin-relu"),
    ("avg-margin-nonneg", "sigmoid"),
    ("avg-margin-unit", "margin-linear"),
    ("max-weak-reals", "min"),
    ("max-weak-nonpos", "min"),
    ("had-weak-nonneg", "min"),
    ("avg-weak-nonneg-step", "min"),
    ("avg-margin-unit", "min"),
    ("example1", "min"),
]


def test_every_scorer_is_covered():
    assert {scorer for _, scorer in SCORED} == set(SCORERS)


@pytest.mark.parametrize("space, scorer", SCORED)
def test_gamma_q_matches_the_summing_oracle(space, scorer):
    rng = random.Random(SEED)
    config = make_space(space, 2 if space == "example1" else 6)
    for _ in range(150):
        v = domain_vector(rng, config)
        q = [rng.randrange(config.size) for _ in range(rng.randint(0, 2 * config.size))]
        try:
            expected = oracle_gamma_q(config, scorer, q, v)
        except ClearCutError:
            with pytest.raises(ClearCutError):
                gamma_q(config, scorer, q, v)
            continue
        assert gamma_q(config, scorer, q, v) == expected, (v, q)


# the scorers that read coordinates directly: coordinate min and linear sum
# them as they are, neg-coordinate negates one maximum or one sum
DIRECT = [
    ("max-weak-nonpos", "linear"),
    ("had-weak-nonneg", "linear"),
    ("max-weak-reals", "min"),
    ("max-weak-nonpos", "min"),
    ("had-weak-nonneg", "min"),
]


@pytest.mark.parametrize("space, scorer", DIRECT)
def test_direct_scorers_match_the_per_coordinate_oracle_on_long_subsets(space, scorer):
    """64 coordinates of mixed signs and denominators, up to all of them queried."""
    rng = random.Random(SEED)
    config = make_space(space, 64)
    for _ in range(40):
        v = domain_vector(rng, config)
        q = rng.sample(range(config.size), rng.randint(1, config.size))
        assert gamma_q(config, scorer, q, v) == oracle_gamma_q(config, scorer, q, v), (v, q)


# --- psi: the scorer's rule over the countermodel coordinates -------------------


def formula_text(rng, names, depth=3):
    """A random formula in the CLI grammar over ``names``, constants included."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(names) if rng.random() < 0.9 else rng.choice("TF")
    kind = rng.randrange(5)
    if kind == 0:
        return "!" + formula_text(rng, names, depth - 1)
    left, right = formula_text(rng, names, depth - 1), formula_text(rng, names, depth - 1)
    return f"({left} {('&', '|', '->', '<->')[kind - 1]} {right})"


def distinct_objects(v):
    """v with every coordinate rebuilt: equal values, no two the same object."""
    return tuple(F(x.numerator, x.denominator) for x in v)


def query_vectors(rng, config):
    """Shared objects (encoded states and their pooled pairs), the same
    values held as distinct objects, random in-domain vectors over a
    3-object alphabet (clear-cut or not), and one with a float coordinate."""
    members = [
        [i for i in range(config.size) if rng.random() < p] for p in (0.0, 0.3, 0.7, 1.0)
    ]
    encoded = [encode(config, EpistemicState.of(config.properties, m)) for m in members]
    shared = encoded + [pool(config.operator, v, w) for v, w in zip(encoded, encoded[1:])]
    out = [u for v in shared for u in (v, distinct_objects(v))]
    for _ in range(4):
        alphabet = domain_vector(rng, config)[:3]
        out.append(tuple(rng.choice(alphabet) for _ in range(config.n)))
    out.append(out[0][:-1] + (0.5,))
    return out


def query_outcome(target, *args):
    """What a query gives: its result, or the error's type and message."""
    try:
        return target(*args)
    except (DomainError, TypeError, ClearCutError) as exc:
        return type(exc), str(exc)


def same_score(a, b):
    """Equal and of one type; a sigmoid's float equal to the bit."""
    if isinstance(a, ScoreValue):
        return (
            isinstance(b, ScoreValue) and a.approx.hex() == b.approx.hex()
            and (a.bound, a.sign) == (b.bound, b.sign)
        )
    return a == b and type(a) is type(b)


# every registry space over m atoms, m = 1-4 (the disc is fixed at one atom)
LOGICAL = [
    (name, m) for name, entry in REGISTRY.items() for m in range(1, 5)
    if entry.labels is None or m == 1
]


@pytest.mark.parametrize("space, m", LOGICAL, ids=[f"{s}-m{m}" for s, m in LOGICAL])
def test_psi_equals_the_per_index_kernel_and_the_oracle(space, m, monkeypatch):
    """For every scorer compatible with the space: psi's verdict is
    state_entails on the decoded state and the sign of the per-index
    kernel; psi's score, captured at its sign test, is the kernel's and the
    summing oracle's, to the bit for the sigmoid; and an error is the one
    gamma_q raises on the countermodels, in gamma_q's order."""
    import epipool.entailment as entailment

    scores = []
    sign = entailment.signum
    monkeypatch.setattr(entailment, "signum", lambda score: scores.append(score) or sign(score))
    rng = random.Random(f"{SEED}:{space}:{m}")
    atoms = AtomTable(tuple("abcd"[:m]))
    config = make_space(space, properties=PropertySpace.logical(atoms))
    formulas = [parse_formula(formula_text(rng, list(atoms.names)), atoms) for _ in range(12)]
    formulas += [parse_formula("T", atoms), parse_formula("F", atoms)]
    scorers = [scorer for scorer in SCORERS if scorer_compatible(config, scorer) is None]
    kinds = set()
    for v in query_vectors(rng, config):
        for scorer in scorers:
            for f in formulas:
                q = countermodels(f, atoms)
                scores.clear()
                got = query_outcome(psi, config, scorer, f, v)
                # psi's sign test is its last signum call (the disc's min reads
                # its parts' signs first)
                score = scores[-1] if scores else None
                expected = query_outcome(gamma_q, config, scorer, q, v)
                if isinstance(expected, tuple):
                    assert got == expected, (scorer, f, v)
                    kinds.add(expected[0])
                    continue
                assert got == member_sign(config.semantics, signum(expected)), (scorer, f, v)
                assert got == state_entails(decode(config, v), f), (scorer, f, v)
                if q:
                    kernel = subset_scorer(config, scorer, v)(q)
                    oracle = oracle_gamma_q(config, scorer, q, v)
                    assert same_score(score, kernel) and same_score(score, oracle), (scorer, f, v)
                kinds.add(got)
    assert {True, False, TypeError} <= kinds


# the scorers psi feeds counts: all but the sigmoid, on the per-coordinate spaces
TALLIED = [pair for pair in SCORED if pair[0] != "example1" and pair[1] != "sigmoid"]


@pytest.mark.parametrize("space, scorer", TALLIED)
def test_every_rule_scores_a_tally_as_its_terms_one_by_one(space, scorer):
    """An exact rule scores a tally: each coordinate once in index order,
    counts of 1, and each distinct object with its count give the same score."""
    import epipool.entailment as entailment

    rng = random.Random(SEED)
    config = make_space(space, 6)
    checked = 0
    for _ in range(100):
        v = domain_vector(rng, config)
        v = tuple(rng.choice(v[:3]) for _ in range(config.n))
        q = sorted(rng.sample(range(config.size), rng.randint(1, config.size)))
        try:
            rule = entailment._scorer_rule(config, scorer, v)
        except ClearCutError:
            continue
        once = rule([v[i] for i in q], None, len(q))
        ones = rule([v[i] for i in q], [1] * len(q), len(q))
        held = {id(v[i]): v[i] for i in q}
        counts = [sum(id(v[i]) == key for i in q) for key in held]
        tally = rule(list(held.values()), counts, len(q))
        assert same_score(once, ones) and same_score(once, tally), (v, q)
        checked += len(held) < len(q)
    assert checked >= 20


def test_psi_scores_each_distinct_countermodel_object_once(monkeypatch):
    """squared and min on a pooled 12-atom vector of had-weak-reals call
    Family.score at most once per distinct coordinate object, not once per
    countermodel, and answer as state_entails does."""
    rng = random.Random(SEED)
    atoms = AtomTable(tuple("abcdefghijkl"))
    config = make_space("had-weak-reals", properties=PropertySpace.logical(atoms))
    family = FAMILIES[config.family]
    scored = []
    monkeypatch.setitem(
        FAMILIES, config.family, family.replace(score=lambda x: scored.append(x) or family.score(x))
    )
    v, w = (
        encode(config, EpistemicState.of(
            config.properties, [i for i in range(config.size) if rng.random() < 0.9]))
        for _ in range(2)
    )
    pooled = pool(config.operator, v, w)
    distinct = {id(x) for x in pooled}
    state = decode(config, pooled)
    queried = 0
    for text in ("a | b", "!(a & b & c)", "a -> (b <-> !c)", "F", "l | !l", "(a & !b) | (c & d)"):
        f = parse_formula(text, atoms)
        q = countermodels(f, atoms)
        for scorer in ("squared", "min"):
            scored.clear()
            assert psi(config, scorer, f, pooled) == state_entails(state, f), (scorer, text)
            assert len(scored) <= len(distinct) <= 4 and {id(x) for x in scored} <= distinct
            queried += len(q) > 1000
    assert queried >= 4


# --- one subset kernel per vector -------------------------------------------------

# the (space, scorer) pairs the report verifies through the oracle sweep
REPORT_PAIRS = [target for _, kind, target, _ in TABLE_ROWS if kind == "entailment"]
MARGIN_PAIRS = [(space, scorer) for space, scorer in REPORT_PAIRS if scorer in CLEAR_CUT_SCORERS]


def test_the_report_scores_five_pairs_three_with_a_margin():
    assert len(REPORT_PAIRS) == 5 and len(MARGIN_PAIRS) == 3


@pytest.mark.parametrize("space, scorer", REPORT_PAIRS)
def test_psi_equals_the_oracle_sweeps_kernel_verdict(space, scorer):
    """Every state and the report's formula battery: psi, the verdict the
    sweep takes from one kernel per state, and the brute-force oracle."""
    config = logical_space(space)
    atoms, size = config.properties.atoms, config.size
    battery = [(f, tuple(countermodels(f, atoms))) for f in formula_battery(TrialPlan())]
    for bits in range(1 << size):
        members = frozenset(i for i in range(size) if bits >> i & 1)
        state = EpistemicState(config.properties, members)
        v = encode(config, state)
        kernel = subset_scorer(config, scorer, v)
        for f, q in battery:
            swept = member_sign(config.semantics, signum(kernel(q))) if q else True
            assert psi(config, scorer, f, v) == swept == state_entails(state, f), (state, f)


@pytest.mark.parametrize("space, scorer", MARGIN_PAIRS)
def test_gamma_q_equals_the_kernel_on_the_clear_cut_grid(space, scorer):
    """Every clear-cut grid vector and every non-empty subset: the same
    score, so the same sigmoid float and bound, from gamma_q given the
    subset unsorted and repeated, from the kernel, and from the oracle."""
    config = logical_space(space)
    delta, size = config.margin, config.size
    top = F(1) if config.domain.kind == "unit" else 2 * delta
    subsets = [q for r in range(1, size + 1) for q in itertools.combinations(range(size), r)]
    vectors = 0
    for v in itertools.product((F(0), delta, top), repeat=config.n):
        if not x_star_membership(config, delta, v):
            continue
        vectors += 1
        kernel = subset_scorer(config, scorer, v)
        for q in subsets:
            expected = oracle_gamma_q(config, scorer, q, v)
            assert kernel(q) == gamma_q(config, scorer, q[::-1] + q, v) == expected, (v, q)
    assert vectors == 3**config.n


def counting_kernels(scored):
    """A subset_scorer whose kernels record each subset they score."""

    def make(config, scorer, v):
        kernel = subset_scorer(config, scorer, v)
        return lambda q: scored.append(q) or kernel(q)

    return make


@pytest.mark.parametrize("space, scorer", REPORT_PAIRS)
def test_the_oracle_sweep_decides_each_state_and_countermodel_set_once(
    space, scorer, monkeypatch
):
    """960 trials; state_entails runs once per state and distinct set of
    countermodels, and the kernel once per state and non-empty such set."""
    import epipool.verifier as verifier

    entailed, scored = [], []
    entails = verifier.state_entails
    monkeypatch.setattr(verifier, "state_entails", lambda s, f: entailed.append(f) or entails(s, f))
    monkeypatch.setattr(verifier, "subset_scorer", counting_kernels(scored))
    config, plan = logical_space(space), TrialPlan()
    distinct = {tuple(countermodels(f, config.properties.atoms)) for f in formula_battery(plan)}
    states = 1 << config.size
    assert verifier.oracle_equivalence_sweep(config, scorer, plan) == (960, None)
    assert len(entailed) == states * len(distinct) == 224
    assert len(scored) == states * len(distinct - {()}) == 208


@pytest.mark.parametrize("space, scorer", MARGIN_PAIRS)
def test_the_clear_cut_sweep_scores_each_subset_and_cells_at_it_once(space, scorer, monkeypatch):
    """1,296 trials (81 grid vectors x 16 subsets); the kernel runs once per
    non-empty subset q and choice of the 3 grid values at q: 4^4 - 1."""
    import epipool.verifier as verifier

    scored = []
    monkeypatch.setattr(verifier, "subset_scorer", counting_kernels(scored))
    config = logical_space(space)
    assert verifier.clear_cut_grid_sweep(config, scorer) == (1296, None)
    assert len(scored) == 4**config.n - 1 == 255


@pytest.mark.parametrize("space, scorer", MARGIN_PAIRS)
def test_a_margin_kernel_reads_the_vector_only_at_the_subset(space, scorer):
    """Any two grid vectors that agree at q score q alike, the sigmoid's
    float and bound included: the clear-cut sweep's key is q and v at q."""
    config = logical_space(space)
    delta, size = config.margin, config.size
    top = F(1) if config.domain.kind == "unit" else 2 * delta
    subsets = [q for r in range(1, size + 1) for q in itertools.combinations(range(size), r)]
    seen: dict = {}
    for v in itertools.product((F(0), delta, top), repeat=config.n):
        kernel = subset_scorer(config, scorer, v)
        for q in subsets:
            value = kernel(q)
            assert seen.setdefault((q, tuple(v[i] for i in q)), value) == value, (v, q)
    assert len(seen) == 255


# --- Encoded: what encode and pool know, against tuple(v) ---------------------------


def describes(v):
    """v is Encoded, and each distinct coordinate object has one part, whose
    positions are where it sits."""
    where = {}
    for i, x in enumerate(v):
        where[id(x)] = where.get(id(x), 0) | 1 << i
    return (
        type(v) is Encoded
        and len(v.parts) == len(where)
        and {id(x): positions for x, positions in v.parts} == where
    )


def encoded_chains(operator, n=64, steps=6):
    """Per registry space of ``operator`` (the fixed n = 2 disc aside): an
    encoded random state, then folds of it with pool, each step pooling
    with a fresh encoding or with the fold itself. had, sum and avg build new
    objects, so the parts multiply; max keeps at most two."""
    rng = random.Random(f"{SEED}:{operator}")
    for name, entry in REGISTRY.items():
        if entry.operator != operator or entry.labels is not None:
            continue
        config = make_space(name, n)

        def fresh():
            members = [i for i in range(n) if rng.random() < 0.5]
            return encode(config, EpistemicState.of(config.properties, members))

        acc = fresh()
        yield config, acc
        for _ in range(steps):
            acc = pool(operator, acc, acc if rng.random() < 0.25 else fresh())
            yield config, acc


@pytest.mark.parametrize("operator", OPERATORS)
def test_pool_of_encoded_vectors_is_encoded_and_equals_the_plain_pool(operator):
    """Every fold step is Encoded in its space's domain, with parts that
    describe it, and equals the pool of the plain tuples, coordinate types
    included; pool_many folds alike, except avg, whose mean is a plain tuple."""
    most = 0
    chains: dict = {}
    for config, v in encoded_chains(operator):
        assert describes(v) and contains(config.domain, v)
        most = max(most, len(v.parts))
        chains.setdefault(config.name, []).append(v)
    assert most == 2 if operator == "max" else most > 16
    for vs in chains.values():
        for v, w in zip(vs, vs[1:]):
            out, plain = pool(operator, v, w), pool(operator, tuple(v), tuple(w))
            assert type(plain) is tuple and describes(out)
            assert out == plain and list(map(type, out)) == list(map(type, plain))
        out, plain = pool_many(operator, vs[:5]), pool_many(operator, [tuple(v) for v in vs[:5]])
        assert out == plain and (type(out) is tuple if operator == "avg" else describes(out))


def test_pool_is_encoded_exactly_when_both_inputs_are():
    """Inputs encoded in two domains still pool to an Encoded vector; one
    plain input gives a plain tuple."""
    v = encode(make_space("max-weak-reals", 8), EpistemicState.of(PropertySpace(8), [1, 2]))
    w = encode(make_space("max-weak-nonpos", 8), EpistemicState.of(PropertySpace(8), [2, 3]))
    for a, b in ((v, w), (v, tuple(w)), (tuple(v), w)):
        out = pool("max", a, b)
        assert out == pool("max", tuple(a), tuple(b))
        assert describes(out) if a is v and b is w else type(out) is tuple
    assert describes(pool("max", v, v))


def test_a_pool_that_leaves_x_is_encoded_and_refused():
    """had on (-inf,0]^n multiplies two non-members, -1 and -1, into 1:
    the result is Encoded, contains refuses it as it refuses its tuple, and
    pooled_vector refuses it by its first coordinate outside."""
    config = make_space("max-weak-nonpos", 4096).replace(operator="had")
    v, w = (encode(config, EpistemicState.of(config.properties, m)) for m in ([0], [0, 1]))
    assert describes(v) and describes(w)
    out = pool("had", v, w)
    assert describes(out) and not contains(config.domain, out)
    assert not contains(config.domain, tuple(out))
    with pytest.raises(PoolClosureError) as refused:
        pooled_vector(config, v, w)
    message = str(refused.value)
    assert message == "had pooling left (-inf,0]^n: n=4096, coordinate 2 is 1"


def test_an_encoding_whose_values_leave_x_is_encoded_and_refused_by_decode():
    """Step-sign's canonical member 1 lies outside (-inf,0]^n: encode still
    gives an Encoded vector, and decode refuses it with the message it
    gives for the plain tuple."""
    config = make_space("avg-weak-nonneg-step", 4).replace(domain=DomainX("nonpos", 4))
    v = encode(config, EpistemicState.of(config.properties, [2]))
    assert describes(v) and not contains(config.domain, v)
    refusals = []
    for u in (v, tuple(v)):
        with pytest.raises(DomainError) as refused:
            decode(config, u)
        refusals.append(str(refused.value))
    assert refusals == ["vector outside (-inf,0]^n: n=4, coordinate 2 is 1"] * 2


@pytest.mark.parametrize("operator", OPERATORS)
def test_contains_on_encoded_vectors_equals_contains_on_their_tuples(operator):
    """In the domain of the space that made the vector, and in every other."""
    seen = set()
    for config, v in encoded_chains(operator, n=16, steps=4):
        domains = [d.replace(n=16) for d in DOMAINS[:4]]
        domains += [DomainX("bounded-above", 16, z) for z in BOUNDS]
        for domain in domains:
            expected = contains(domain, tuple(v))
            assert contains(domain, v) is expected, (domain, v)
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("name", PER_COORDINATE)
def test_decode_of_encoded_vectors_equals_decode_of_their_tuples(name):
    """Fold steps of every space that pools with the same operator, decoded
    with |P| = n, padding and n below |P|: the same state or the same error."""
    operator = REGISTRY[name].operator
    configs = list(decode_configs(name, 16))
    kinds = set()
    for _, v in encoded_chains(operator, n=16, steps=4):
        for config in configs:
            expected = outcome(decode, config, tuple(v))
            assert outcome(decode, config, v) == expected, (config.size, v)
            kinds.add(expected[0] if isinstance(expected, tuple) else "state")
    assert "state" in kinds and DomainError in kinds


def test_decode_reads_no_padding_of_an_encoded_vector(monkeypatch):
    """Coordinates past |P| are no property: decode scores only the objects
    among the first |P|."""
    wide = make_space("avg-margin-nonneg", 4)
    narrow = make_space("avg-margin-nonneg", 3, n=4)
    v = pool("avg", *(encode(wide, EpistemicState.of(wide.properties, m)) for m in ([3], [])))
    assert describes(v) and contains(narrow.domain, v) and v[3] == F(1, 2)
    family = FAMILIES[narrow.family]
    scored = []
    monkeypatch.setitem(
        FAMILIES, narrow.family, family.replace(score=lambda x: scored.append(x) or family.score(x))
    )
    assert decode(narrow, v).members == frozenset() and scored == [F(0)]


def encoded_query_vectors(rng, config):
    """Encoded states, their pooled pairs and a fold of all of them with pool."""
    members = [[i for i in range(config.size) if rng.random() < p] for p in (0.0, 0.3, 0.7, 1.0)]
    encoded = [encode(config, EpistemicState.of(config.properties, m)) for m in members]
    out = encoded + [pool(config.operator, v, w) for v, w in zip(encoded, encoded[1:])]
    acc = encoded[1]
    for v in encoded[2:] + encoded[:2]:
        acc = pool(config.operator, acc, v)
    return [u for u in out + [acc] if isinstance(u, Encoded)]


def psi_outcomes(monkeypatch, config, scorer, formula, vectors):
    """psi on each vector: its verdict or error, and the score at its sign test."""
    import epipool.entailment as entailment

    scores = []
    sign = signum
    monkeypatch.setattr(entailment, "signum", lambda score: scores.append(score) or sign(score))
    out = []
    for v in vectors:
        scores.clear()
        out.append((query_outcome(psi, config, scorer, formula, v), scores[-1] if scores else None))
    return out


def same_psi(a, b):
    return a[0] == b[0] and (a[1] is b[1] is None or same_score(a[1], b[1]))


@pytest.mark.parametrize("space, m", LOGICAL, ids=[f"{s}-m{m}" for s, m in LOGICAL])
def test_psi_on_encoded_vectors_equals_psi_on_their_tuples(space, m, monkeypatch):
    """Every compatible scorer: the same verdict, score or error message
    from the parts as from the per-index kernel or the disc's scores on the
    plain tuple."""
    rng = random.Random(f"{SEED}:encoded:{space}:{m}")
    atoms = AtomTable(tuple("abcd"[:m]))
    config = make_space(space, properties=PropertySpace.logical(atoms))
    formulas = [parse_formula(formula_text(rng, list(atoms.names)), atoms) for _ in range(12)]
    formulas += [parse_formula("T", atoms), parse_formula("F", atoms)]
    scorers = [scorer for scorer in SCORERS if scorer_compatible(config, scorer) is None]
    vectors = encoded_query_vectors(rng, config)
    assert vectors or config.family not in FAMILIES
    kinds = set()
    for scorer in scorers:
        for f in formulas:
            got = psi_outcomes(monkeypatch, config, scorer, f, vectors)
            plain = psi_outcomes(monkeypatch, config, scorer, f, [tuple(v) for v in vectors])
            for v, a, b in zip(vectors, got, plain):
                assert same_psi(a, b), (scorer, f, v)
                kinds.add(a[0] if isinstance(a[0], bool) else a[0][0])
    assert not vectors or {True, False} <= kinds


# (space, scorer) at 12 atoms: a rule of each kind fed counts, and a margin
# scorer whose pooled vectors are ambiguous
AT_TWELVE = [
    ("max-weak-nonpos", "linear"),
    ("max-weak-reals", "relu"),
    ("had-weak-reals", "squared"),
    ("had-weak-nonneg", "min"),
    ("avg-margin-unit", "margin-linear"),
]


@pytest.mark.parametrize("space, scorer", AT_TWELVE, ids=[f"{s}-{c}" for s, c in AT_TWELVE])
def test_psi_on_encoded_vectors_at_twelve_atoms(space, scorer, monkeypatch):
    rng = random.Random(f"{SEED}:twelve:{space}")
    config = make_space(space, properties=PropertySpace.logical(ATOMS))
    vectors = [
        encode(config, EpistemicState.of(
            config.properties, [i for i in range(config.size) if rng.random() < p]))
        for p in (0.5, 0.9)
    ]
    vectors.append(pool(config.operator, *vectors))
    assert all(map(describes, vectors))
    names = list(ATOMS.names)
    formulas = [parse_formula(formula_text(rng, names), ATOMS) for _ in range(4)]
    formulas.append(parse_formula(f"{names[0]} | !{names[-1]}", ATOMS))
    for f in formulas:
        got = psi_outcomes(monkeypatch, config, scorer, f, vectors)
        plain = psi_outcomes(monkeypatch, config, scorer, f, [tuple(v) for v in vectors])
        assert all(map(same_psi, got, plain)), (f, got, plain)


# --- Encoded: a tuple with one field ---------------------------------------------


def an_encoded_vector():
    config = make_space("max-weak-nonpos", 8)
    return encode(config, EpistemicState.of(config.properties, [1, 4, 5]))


def test_an_encoded_vector_is_the_tuple_of_its_coordinates():
    v = an_encoded_vector()
    plain = tuple(v)
    assert type(v) is Encoded and type(plain) is tuple
    assert v == plain and plain == v and not v != plain and v != plain[:-1]
    assert hash(v) == hash(plain) and {plain: "found"}[v] == "found"
    assert repr(v) == repr(plain) == str(v)
    for piece in (v[:3], v[2:], v[::2], v[:], v + (F(0),), (F(0),) + v, v * 2):
        assert type(piece) is tuple
    assert v[:] == plain and v[1] is plain[1]


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy]
    + [lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    ids=["copy", "deepcopy"] + [f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_an_encoded_vector_keeps_its_fields_through_pickle_and_copy(clone):
    v = an_encoded_vector()
    u = clone(v)
    assert u == v and u.parts == v.parts and describes(u)


def test_an_encoded_vectors_fields_cannot_be_assigned():
    v = an_encoded_vector()
    for name in ("domain", "parts", "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(v, name, None)
    for name in ("domain", "parts"):
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(v, name)
    assert describes(v)


# --- vector files give Encoded vectors ------------------------------------------


def test_tagged_gives_one_part_per_distinct_coordinate_object():
    """Shared objects, equal values held as distinct objects, all-distinct
    coordinates, random rationals and the empty vector."""
    rng = random.Random(SEED)
    one = F(1)
    cases = [(), (one,) * 5, (one, F(1), one, F(-1)), tuple(F(i) for i in range(70))]
    cases += vectors(rng, 9, 20)
    for v in cases:
        out = tagged(v)
        assert describes(out) and out == v, v


def test_a_vector_file_loads_as_encoded_vectors_with_one_part_per_literal():
    """Each distinct literal of the file is one object, "1" and "1/1" two."""
    config = make_space("max-weak-reals", 6)
    doc = {"space": config.name, "n": 6, "vectors": [
        {"name": "u", "coords": ["1", "-1", "1", "1/1", "-1", "2"]},
        {"name": "w", "coords": ["-1"] * 6},
    ]}
    u, w = (nv.coords for nv in load_for_space(loads_vectors(json.dumps(doc)), config))
    assert describes(u) and describes(w)
    assert [x for x, _ in u.parts] == [1, -1, 1, 2] and len(w.parts) == 1
    assert u.parts[1][0] is w.parts[0][0]
    assert decode(config, u) == decode(config, tuple(u))


def test_a_query_reads_each_file_vectors_coordinates_for_its_domain_once(
    tmp_path, capsys, monkeypatch
):
    """Loading checks each vector's domain, and psi checks it again: no
    check reads more objects than the vector has parts, and psi answers as
    on the plain tuples."""
    import epipool.spaces as spaces

    config = make_space("max-weak-nonpos", properties=PropertySpace.logical(ATOMS))
    formula = parse_formula(f"{ATOMS.names[0]} | !{ATOMS.names[-1]}", ATOMS)
    excluded = set(countermodels(formula, ATOMS))
    rng = random.Random(SEED)
    # v excludes every countermodel, so v and the pool entail the formula, w not
    v, w = (
        encode(config, EpistemicState.of(
            config.properties, [i for i in range(config.size) if i in kept or rng.random() < 0.3]))
        for kept in (excluded, ())
    )
    named = [NamedVector(name, x) for name, x in zip("vwp", (v, w, pool("max", v, w)))]
    path = tmp_path / "kb.json"
    path.write_text(dumps_vectors(config.name, named))
    parts = [len(nv.coords.parts) for nv in load_for_space(loads_vectors(path.read_text()), config)]
    checked = []
    check = spaces.contains_each
    monkeypatch.setattr(spaces, "contains_each", lambda d, u: checked.append(u) or check(d, u))
    # the CLI names 12 atoms a-l by default
    argv = ["query", "--space", config.name, "--scorer", "linear", "--formula", "a | !l"]
    assert main(argv + [str(path)]) == 0
    assert [len(u) for u in checked] == parts + parts and max(parts) <= 2
    out = capsys.readouterr().out
    verdicts = [psi(config, "linear", formula, tuple(nv.coords)) for nv in named]
    assert [line.endswith(": ENTAILED") for line in out.splitlines()] == verdicts, out
    assert verdicts == [True, False, True]


# --- the fast paths still refuse bad input --------------------------------------

M = 12
ATOMS = AtomTable(tuple(f"p{i:02d}" for i in range(M)))
# (space, scorer, a coordinate outside that space's domain)
OUTSIDE = [
    ("max-weak-nonpos", "linear", F(1, 3)),
    ("had-weak-nonneg", "linear", F(-1, 3)),
    ("avg-margin-unit", "margin-linear", F(4, 3)),
]


def last_coordinate_outside(space, bad):
    config = make_space(space, properties=PropertySpace.logical(ATOMS))
    v = encode(config, EpistemicState.of(config.properties, range(0, 2**M, 3)))
    assert contains(config.domain, v)
    return config, v[:-1] + (bad,)


@pytest.mark.parametrize("space, scorer, bad", OUTSIDE, ids=[s for s, _, _ in OUTSIDE])
def test_one_bad_last_coordinate_at_twelve_atoms_is_refused(space, scorer, bad):
    """The message names n and the first coordinate outside, not all 4,096."""
    config, v = last_coordinate_outside(space, bad)
    formula = parse_formula("p00 | !p11", ATOMS)
    where = f"outside {config.domain.describe()}: n=4096, coordinate 4095 is {format_rational(bad)}"
    for target, args in ((psi, (scorer, formula)), (gamma_q, (scorer, [0, 1])), (decode, ())):
        with pytest.raises(DomainError) as refused:
            target(config, *args, v)
        assert str(refused.value) == f"vector {where}"


@pytest.mark.parametrize("space, scorer, bad", OUTSIDE, ids=[s for s, _, _ in OUTSIDE])
def test_query_on_a_bad_last_coordinate_exits_3(tmp_path, capsys, space, scorer, bad):
    config, v = last_coordinate_outside(space, bad)
    path = tmp_path / "bad.json"
    path.write_text(dumps_vectors(space, [NamedVector("bad", v)]))
    code = main(["query", "--space", space, "--scorer", scorer, "--formula", "p00", str(path)])
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and "Traceback" not in out.err
    assert out.err == (
        f"domain violation: vector 'bad' lies outside {config.domain.describe()}: "
        f"n=4096, coordinate 4095 is {format_rational(bad)}\n"
    )


def test_an_ambiguous_query_at_twelve_atoms_names_its_first_ambiguous_coordinate(
    tmp_path, capsys
):
    """avg pools 1 - eps and 0 into (1 - eps)/2, which margin-linear refuses;
    the message names that coordinate alone."""
    config = make_space("avg-margin-unit", properties=PropertySpace.logical(ATOMS))
    v, w = (
        encode(config, EpistemicState.of(config.properties, m))
        for m in (range(3, 2**M), range(5, 2**M, 2))
    )
    path = tmp_path / "pooled.json"
    path.write_text(dumps_vectors(config.name, [NamedVector("pooled", pool("avg", v, w))]))
    # the CLI names 12 atoms a-l by default
    argv = ["query", "--space", config.name, "--scorer", "margin-linear", "--formula", "a | !l"]
    assert main(argv + [str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "domain violation: vector is ambiguous: n=4096, coordinate 3 is 8191/16384, whose "
        "score lies strictly between 0 and the margin; margin scorers make no claim there\n"
    )


@pytest.mark.parametrize("domain", DOMAINS, ids=[d.kind for d in DOMAINS])
def test_a_float_coordinate_is_a_type_error_naming_it(domain):
    # the first coordinate that is neither an int nor a Fraction is named
    for v in ((F(0), 0, 0.25), (F(0), 0.25, "1/2")):
        with pytest.raises(TypeError, match="coordinate 0.25 is not an int or a Fraction"):
            contains(domain.replace(n=3), v)


@pytest.mark.parametrize("q", [[0, 6], [-1, 0], [6], [-1]])
def test_an_index_out_of_range_is_refused(q):
    config = make_space("max-weak-nonpos", 6)
    v = (F(0),) * 6
    for target in (gamma_q, oracle_gamma_q):
        with pytest.raises(IndexError, match="property index out of range"):
            target(config, "linear", q, v)


def test_a_clear_cut_scorer_checks_the_domain_once(monkeypatch):
    import epipool.entailment as entailment

    checked = []
    check = entailment.require_in_domain
    monkeypatch.setattr(
        entailment, "require_in_domain", lambda c, v: checked.append(v) or check(c, v)
    )
    config = make_space("avg-margin-nonneg", 3)
    v = (F(0), F(1), F(2))
    for scorer in ("margin-relu", "sigmoid"):
        gamma_q(config, scorer, [0, 1], v)
    assert len(checked) == 2
    # the public clear-cut test still checks the domain itself
    assert entailment.x_star_membership(config, F(1), v) and len(checked) == 3
    with pytest.raises(DomainError):
        entailment.x_star_membership(config, F(1), (F(0), F(1), F(-2)))


@pytest.mark.parametrize(
    "space, scorer",
    [("avg-margin-nonneg", "margin-relu"), ("avg-margin-nonneg", "sigmoid"),
     ("avg-margin-unit", "margin-linear")],
)
def test_the_clear_cut_sweep_tests_each_grid_vector_once(space, scorer, monkeypatch):
    import epipool.entailment as entailment
    from epipool.verifier import clear_cut_grid_sweep, logical_space

    tested = []
    first_ambiguous = entailment._first_ambiguous
    monkeypatch.setattr(
        entailment, "_first_ambiguous",
        lambda c, d, v: tested.append(v) or first_ambiguous(c, d, v),
    )
    config = logical_space(space)
    clear_cut_grid_sweep(config, scorer)
    assert len(tested) == len(set(tested)) == 3 ** config.n
