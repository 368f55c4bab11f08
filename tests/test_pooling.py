import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epipool.epistemic import EpistemicState, union_states
from epipool.numeric import signum
from epipool.pooling import (
    PoolClosureError,
    Witness,
    check_principle,
    check_weighted_principle,
    pool,
    pool_many,
    pooled_vector,
)
from epipool.spaces import (
    REGISTRY,
    DomainError,
    DomainX,
    make_space,
    member_sign,
    require_in_domain,
    score_value,
    sound_space_names,
    vector,
)
from epipool.verifier import FALSIFY_REGISTRY
from epipool.weighted import WeightedState, encode_weighted

F = Fraction

coords = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=8)
vectors3 = st.tuples(coords, coords, coords)


def test_pool_avg_matches_demo_pair():
    assert pool("avg", vector(["1/4", "0"]), vector(["3/4", "1"])) == vector(
        ["1/2", "1/2"]
    )


def test_pool_max():
    assert pool("max", vector(["1", "-1"]), vector(["-1", "1"])) == vector(["1", "1"])


def test_pool_had_zero_absorption():
    assert pool(
        "had", vector(["0", "1", "1", "1"]), vector(["1", "0", "1", "1"])
    ) == vector(["0", "0", "1", "1"])


def test_pool_dimension_mismatch():
    with pytest.raises(DomainError):
        pool("avg", vector(["1"]), vector(["1", "2"]))


def test_pool_many_max_fold():
    vs = [vector(["1", "-1"]), vector(["-1", "1"]), vector(["-1", "-1"])]
    assert pool_many("max", vs) == vector(["1", "1"])


def test_pool_many_avg_is_arithmetic_mean():
    vs = [vector(["1", "0", "0"]), vector(["0", "1", "0"]), vector(["0", "0", "1"])]
    assert pool_many("avg", vs) == vector(["1/3", "1/3", "1/3"])


def test_pool_many_singleton():
    assert pool_many("sum", [vector(["1", "0"])]) == vector(["1", "0"])


def test_pool_many_empty_rejected():
    with pytest.raises(ValueError):
        pool_many("sum", [])


@pytest.mark.parametrize("op", ["avg", "sum", "max", "had"])
@given(u=vectors3, w=vectors3)
@settings(max_examples=60)
def test_pool_commutative(op, u, w):
    assert pool(op, u, w) == pool(op, w, u)


@pytest.mark.parametrize("op", ["sum", "max", "had"])
@given(u=vectors3, w=vectors3, x=vectors3)
@settings(max_examples=60)
def test_pool_associative_except_avg(op, u, w, x):
    assert pool(op, pool(op, u, w), x) == pool(op, u, pool(op, w, x))


@given(u=vectors3)
def test_max_idempotent(u):
    assert pool("max", u, u) == u


@given(u=vectors3)
def test_had_zero_coordinate_stays_zero(u):
    w = (F(0),) + u[1:]
    assert pool("had", u, w)[0] == 0


# --- the pooling principle ---------------------------------------------------


def test_check_principle_demo_pair_passes():
    cfg = make_space("example1")
    assert check_principle(cfg, vector(["1/4", "0"]), vector(["3/4", "1"])) is None


def test_check_principle_demo_pair_fails():
    cfg = make_space("example1")
    v = check_principle(cfg, vector(["1/4", "0"]), vector(["10", "10"]))
    assert isinstance(v, Witness)
    assert v.prop == 0  # the first disc's property disappears after pooling
    assert v.expected and not v.observed


def test_check_principle_exhaustive_on_encoded_pairs():
    cfg = make_space("max-strict-reals", 3)
    states = [
        EpistemicState.of(cfg.properties, frozenset(m))
        for r in range(4)
        for m in itertools.combinations(range(3), r)
    ]
    from epipool.spaces import encode

    for s in states:
        for t in states:
            assert check_principle(cfg, encode(cfg, s), encode(cfg, t)) is None


def test_check_principle_full_grid_n2_every_sound_space():
    grid = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]
    for name in sound_space_names():
        cfg = make_space(name, 2)
        pts = [
            p
            for p in itertools.product(grid, repeat=2)
            if all(cfg.domain.contains_scalar(x) for x in p)
        ]
        for u in pts:
            for w in pts:
                assert check_principle(cfg, u, w) is None, (name, u, w)


def test_closure_error_signals_misconfigured_domain():
    from epipool.epistemic import PropertySpace
    from epipool.spaces import COORDINATE, DomainX, SpaceConfig

    cfg = SpaceConfig(
        "probe", "sum", "strict", DomainX("unit", 2), COORDINATE, PropertySpace.abstract(2)
    )
    with pytest.raises(PoolClosureError):
        check_principle(cfg, vector(["1", "1"]), vector(["1", "0"]))


def test_violation_report_is_replayable():
    cfg = make_space("example1")
    v = check_principle(cfg, vector(["1/4", "0"]), vector(["10", "10"]))
    again = check_principle(cfg, *v.vectors)
    assert again == v


def decode_by_sign(config, v):
    """decode before the one level reader: a property is a member when the
    exact sign of its score is, under the space's semantics."""
    require_in_domain(config, v)
    sem = config.semantics
    members = (i for i in range(config.size) if member_sign(sem, signum(score_value(config, i, v))))
    return EpistemicState(config.properties, frozenset(members))


def check_principle_reference(config, v, w):
    """The plain principle by the formula: the pooled vector's decoded state
    against the union of the decoded inputs."""
    out = pooled_vector(config, v, w)
    expected = union_states(decode_by_sign(config, v), decode_by_sign(config, w))
    observed = decode_by_sign(config, out)
    if expected.members == observed.members:
        return None
    prop = min(expected.members ^ observed.members)
    return Witness(
        config.name, "pooling", config.semantics, (v, w), prop,
        expected=prop in expected.members, observed=prop in observed.members,
    )


def weighted_at_cap_1(config, v, w):
    """check_weighted_principle at cap 1, its witness read as a pooling one."""
    witness = check_weighted_principle(config, 1, v, w)
    return None if witness is None else witness.replace(kind="pooling", level=None)


def principle_outcome(check, config, v, w):
    """The witness or None, or the DomainError's type and message."""
    try:
        return check(config, v, w)
    except DomainError as exc:  # PoolClosureError included
        return type(exc), str(exc)


DIFFERENTIAL_VALUES = [F(x) for x in ("-2", "-1", "-1/2", "0", "1/4", "1/2", "3/4", "1", "2", "10")]


def test_check_principle_equals_the_decode_union_formula():
    """On every registry space (the disc included, under both semantics),
    every falsifier candidate and sum pooling on [0,1]^n, each at n = |P|,
    n = |P| + 1 and n = |P| - 1: 200 seeded pairs, mostly in the domain,
    give the same witness, or the same error with the same message, from
    check_principle and from check_weighted_principle at cap 1."""
    configs = [make_space(name) for name in REGISTRY]
    configs += [cand.config for cand in FALSIFY_REGISTRY.values()]
    configs.append(make_space("example1").replace(name="example1-weak", semantics="weak"))
    configs.append(make_space("avg-margin-unit").replace(name="sum-unit", operator="sum"))
    rng = random.Random("check-principle-differential")
    seen = set()
    for base in configs:
        for n in (base.size, base.size + 1, base.size - 1):
            dom = base.domain
            cfg = base.replace(domain=DomainX(dom.kind, n, dom.z))
            inside = [x for x in DIFFERENTIAL_VALUES if dom.contains_scalar(x)]

            def draw():
                return tuple(
                    rng.choice(inside if rng.random() < 0.95 else DIFFERENTIAL_VALUES)
                    for _ in range(n)
                )

            for _ in range(200):
                v, w = draw(), draw()
                got = principle_outcome(check_principle, cfg, v, w)
                assert got == principle_outcome(check_principle_reference, cfg, v, w), (
                    cfg.name, n, v, w
                )
                assert got == principle_outcome(weighted_at_cap_1, cfg, v, w), (cfg.name, n, v, w)
                seen.add(got[0] if isinstance(got, tuple) else type(got))
    assert seen == {type(None), Witness, DomainError, PoolClosureError}


# --- weighted principle ---------------------------------------------------


def test_weighted_max_pooled_levels_are_pointwise_max():
    cfg = make_space("weighted-max-reals", 2, levels=2)
    u = encode_weighted(cfg, WeightedState.of(cfg.properties, (2, 0), 2))
    w = encode_weighted(cfg, WeightedState.of(cfg.properties, (1, 1), 2))
    assert check_weighted_principle(cfg, 2, u, w) is None
    from epipool.pooling import pool
    from epipool.weighted import decode_weighted

    pooled = pool("max", u, w)
    assert decode_weighted(cfg, pooled, cap=2).levels == (2, 1)


def test_weighted_had_unit_pair():
    cfg = make_space("weighted-had-unit", 2)
    assert (
        check_weighted_principle(cfg, 2, vector(["0", "1/2"]), vector(["1", "1/2"]))
        is None
    )


def test_weighted_idempotent_pair():
    cfg = make_space("weighted-max-reals", 2, levels=3)
    v = encode_weighted(cfg, WeightedState.of(cfg.properties, (3, 1), 3))
    assert check_weighted_principle(cfg, 3, v, v) is None


def test_weighted_violation_carries_level():
    # summation fails the weighted principle: levels add up
    from epipool.epistemic import PropertySpace
    from epipool.spaces import COORDINATE, DomainX, SpaceConfig

    cfg = SpaceConfig(
        "probe",
        "sum",
        "strict",
        DomainX("nonneg", 1),
        COORDINATE,
        PropertySpace.abstract(1),
        levels=2,
        principle_expected=False,
    )
    v = check_weighted_principle(cfg, 2, vector(["3/4"]), vector(["3/4"]))
    assert v is not None and v.level == 2 and not v.expected and v.observed


def test_avg_pool_many_state_effect_is_order_independent():
    """Averaging is not associative on vectors, but the decoded state of the
    n-ary mean equals the union regardless of input order."""
    import random

    from epipool.epistemic import EpistemicState, union_states
    from epipool.spaces import decode, encode, make_space

    cfg = make_space("avg-strict-nonneg", 4)
    rng = random.Random("avg-order")
    for _ in range(50):
        states = [
            EpistemicState.of(
                cfg.properties, frozenset(i for i in range(4) if rng.random() < 0.5)
            )
            for _ in range(3)
        ]
        union = states[0]
        for s in states[1:]:
            union = union_states(union, s)
        vs = [encode(cfg, s) for s in states]
        for perm in itertools.permutations(vs):
            assert decode(cfg, pool_many("avg", list(perm))).members == union.members


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize(
    "name", ["avg-strict-nonneg", "avg-weak-nonneg-step", "avg-margin-nonneg", "avg-margin-unit"]
)
def test_pool_many_mean_decodes_to_the_union_of_its_inputs(name, k):
    """The k-input mean pool_many takes for avg keeps the pooling principle:
    for every k-tuple of vectors over a small grid at n = 2, the mean decodes
    to the union of the decoded inputs. Neither side depends on the order of
    the inputs, so each k-tuple is checked once, in sorted order."""
    from epipool.epistemic import union_states
    from epipool.spaces import decode

    cfg = make_space(name, 2)
    assert cfg.operator == "avg"
    vectors = list(itertools.product((F(0), F(1, 2), F(1)), repeat=2))
    decoded = {v: decode(cfg, v) for v in vectors}
    for inputs in itertools.combinations_with_replacement(vectors, k):
        union = decoded[inputs[0]]
        for v in inputs[1:]:
            union = union_states(union, decoded[v])
        assert decode(cfg, pool_many("avg", inputs)) == union, inputs


@pytest.mark.parametrize("semantics", ["bogus", "Strict", ""])
def test_weighted_check_rejects_unknown_semantics(semantics):
    cfg = make_space("weighted-max-reals", 1)
    with pytest.raises(ValueError, match="unknown semantics"):
        check_weighted_principle(cfg, 2, (F(-1),), (F(0),), semantics)


def test_weighted_check_names_the_first_disagreeing_level():
    # weak sum on [0, inf): two level-2 inputs pool to level 4; level 3 is the first gap
    from epipool.epistemic import PropertySpace
    from epipool.spaces import COORDINATE, DomainX, SpaceConfig

    cfg = SpaceConfig(
        "probe", "sum", "weak", DomainX("nonneg", 1), COORDINATE, PropertySpace.abstract(1)
    )
    v = vector(["7/4"])
    w = check_weighted_principle(cfg, 4, v, v, "weak")
    assert w == Witness("probe", "weighted", "weak", (v, v), 0, False, True, level=3)
    assert check_weighted_principle(cfg, 4, v, v) == w  # the space's own semantics
    assert w.describe() == (
        "probe [weak]: property 0, level 3 at (7/4) vs (7/4): "
        "union says False, pooled decode says True"
    )


def test_weighted_check_reads_all_three_vectors_under_the_given_semantics():
    # a strict space read weakly: a zero score is level 1 on the inputs and on the pooled vector
    cfg = make_space("weighted-max-reals", 1)
    zero, below = (F(0),), (F(-1),)
    assert cfg.semantics == "strict"
    assert check_weighted_principle(cfg, 2, zero, below, "weak") is None
    assert check_weighted_principle(cfg, 2, zero, below) is None
