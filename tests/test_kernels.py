"""The integer kernels of the vector path against the per-scalar code they
replace.

``contains``, ``exact_sum``, ``exact_extreme`` and ``gamma_q`` read
numerators and denominators instead of doing Fraction arithmetic one
coordinate at a time.  Each is compared here, on seeded random rationals
(negative, zero, non-integer denominators and plain ints), with the
reference it replaces: ``DomainX.contains_scalar``, ``sum(...,
Fraction(0))``, ``min`` and ``max``, and the summing formulas ``gamma_q``
used before, kept below as the oracle.  Every ``Family.score`` keeps a
Fraction a Fraction.  ``pool`` and ``pool_many`` are compared with
``pool_scalar`` on the same rationals and on vectors that repeat objects,
encoded ones included; ``pool`` calls ``pool_scalar`` once per distinct
pair of coordinate objects.  ``decode`` and ``encode`` are compared with
the comprehensions they replace, on those inputs and their pooled results;
``decode`` and ``decode_weighted`` read their levels through
``coordinate_levels``, which calls ``Family.score`` once per distinct
coordinate object.  ``mask_worlds`` is compared with its per-bit
comprehension.
The subset kernel ``subset_scorer`` builds once per vector is compared with
``gamma_q`` and that oracle on the clear-cut grid, and ``psi`` with the
verdict the oracle sweep takes from the kernel. The formula sweeps' call
counts are pinned, with the property their memo relies on: a margin
kernel reads the vector only at the subset it scores.
The last tests show that the fast paths still refuse bad input.
"""

import itertools
import random
from fractions import Fraction

import pytest

from epipool.cli import main
from epipool.entailment import (
    CLEAR_CUT_SCORERS,
    SCORERS,
    ClearCutError,
    _SIGMOID_TERM_BOUND,
    SIGMOID_OFFSET,
    gamma_q,
    psi,
    sigmoid,
    sigmoid_steepness,
    subset_scorer,
    x_star_membership,
)
from epipool.epistemic import EpistemicState, PropertySpace, state_entails
from epipool.files import NamedVector, dumps_vectors
from epipool.logic import AtomTable, countermodels, mask_worlds, parse_formula
from epipool.numeric import ScoreValue, exact_extreme, exact_sum, signum
from epipool.pooling import pool, pool_many, pool_scalar
from epipool.spaces import (
    FAMILIES,
    OPERATORS,
    REGISTRY,
    DomainError,
    DomainX,
    contains,
    decode,
    encode,
    encode_values,
    format_vector,
    make_space,
    member_sign,
    require_in_domain,
    score_value,
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


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_contains_matches_contains_scalar_on_every_kind(n):
    rng = random.Random(SEED + n)
    domains = [d.replace(n=n) for d in DOMAINS[:4]]
    domains += [DomainX("bounded-above", n, z) for z in BOUNDS]
    seen = set()
    for domain in domains:
        for v in vectors(rng, n, 300):
            expected = all(domain.contains_scalar(x) for x in v)
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
    rng = random.Random(SEED)
    for size in (0, 1, 2, 7, 64):
        for _ in range(50):
            xs = [rational(rng) for _ in range(size)]
            total = exact_sum(iter(xs))
            assert total == sum(xs, F(0)) and type(total) is F


def test_exact_extreme_returns_the_element_min_and_max_return():
    rng = random.Random(SEED)
    for size in (1, 2, 7, 64):
        for _ in range(50):
            xs = [rational(rng) for _ in range(size)]
            assert exact_extreme(iter(xs)) is min(xs), xs
            assert exact_extreme(iter(xs), largest=True) is max(xs), xs


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
    if not all(config.domain.contains_scalar(x) for x in v):
        raise DomainError(f"vector {format_vector(v)} outside {config.domain.describe()}")
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
    for bits in (0, 1, 16, 256, 4096):
        for mask in (rng.getrandbits(bits), (1 << bits) - 1, (1 << bits) >> 1):
            assert mask_worlds(mask) == reference(mask), (bits, mask)
    assert mask_worlds(0) == [] and mask_worlds(1 << 4095) == [4095]


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
    config, v = last_coordinate_outside(space, bad)
    formula = parse_formula("p00 | !p11", ATOMS)
    with pytest.raises(DomainError, match="outside"):
        psi(config, scorer, formula, v)
    with pytest.raises(DomainError, match="outside"):
        gamma_q(config, scorer, [0, 1], v)
    with pytest.raises(DomainError, match="outside"):
        decode(config, v)


@pytest.mark.parametrize("space, scorer, bad", OUTSIDE, ids=[s for s, _, _ in OUTSIDE])
def test_query_on_a_bad_last_coordinate_exits_3(tmp_path, capsys, space, scorer, bad):
    _, v = last_coordinate_outside(space, bad)
    path = tmp_path / "bad.json"
    path.write_text(dumps_vectors(space, [NamedVector("bad", v)]))
    code = main(["query", "--space", space, "--scorer", scorer, "--formula", "p00", str(path)])
    out = capsys.readouterr()
    assert code == 3 and out.out == "" and "Traceback" not in out.err
    assert out.err.startswith("domain violation:")


@pytest.mark.parametrize("domain", DOMAINS, ids=[d.kind for d in DOMAINS])
def test_a_float_coordinate_is_a_type_error_naming_it(domain):
    v = (F(0), 0, 0.25)
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
    clear_cut = entailment._clear_cut
    monkeypatch.setattr(
        entailment, "_clear_cut", lambda c, d, v: tested.append(v) or clear_cut(c, d, v)
    )
    config = logical_space(space)
    clear_cut_grid_sweep(config, scorer)
    assert len(tested) == len(set(tested)) == 3 ** config.n
