import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from epipool.epistemic import EpistemicState, PropertySpace
from epipool.numeric import parse_rational
from epipool.spaces import (
    COORDINATE,
    DISC,
    FAMILIES,
    REGISTRY,
    DomainError,
    DomainX,
    EncodingError,
    SpaceConfig,
    contains,
    decode,
    encode,
    encode_values,
    gamma,
    make_space,
    score_sign,
    sound_space_names,
    validate_config,
    vector,
)

F = Fraction


def rules_of(config):
    return {v.rule for v in validate_config(config)}


@pytest.mark.parametrize("param", [{"foo": 1}, {"principle_expected": False}])
def test_simple_space_rejects_a_parameter_it_does_not_take(param):
    message = f"space 'max-weak-reals' takes no parameter '{next(iter(param))}'"
    with pytest.raises(ValueError, match=message):
        make_space("max-weak-reals", **param)


def test_simple_space_takes_margin_eps_and_levels():
    cfg = make_space("avg-strict-nonneg", 2, margin=F(2), eps=F(1, 8), levels=3)
    assert (cfg.margin, cfg.eps, cfg.levels) == (2, F(1, 8), 3)
    assert encode(cfg, EpistemicState.of(cfg.properties, {0})) == (2, 0)


# --- registry rules -------------------------------------------------------------

_SIMPLE = [
    "avg-strict-nonneg", "sum-strict-nonneg", "avg-weak-nonneg-step", "max-strict-reals",
    "max-weak-reals", "max-weak-nonpos", "had-strict-reals", "had-weak-reals", "had-weak-nonneg",
]
# the parameters each space takes besides properties and n
_TAKES = {
    **{name: {"margin", "eps", "levels"} for name in _SIMPLE},
    "avg-margin-nonneg": {"margin"},
    "avg-margin-unit": {"eps"},
    "weighted-max-reals": {"levels"},
    "weighted-had-unit": {"levels"},
    "example1": set(),
}
# (margin, eps, levels, principle_expected) at the default size
_DEFAULTS = {
    **{name: (None, None, None, True) for name in _SIMPLE},
    "avg-margin-nonneg": (1, None, None, True),
    "avg-margin-unit": (F(5, 6), F(1, 6), None, True),  # eps = 1/(2n) at n = 3
    "weighted-max-reals": (None, None, 2, True),
    "weighted-had-unit": (None, None, 2, True),
    "example1": (None, None, None, False),
}


def test_registry_rule_tables_cover_every_space():
    assert list(_TAKES) == list(REGISTRY) == list(_DEFAULTS)


@pytest.mark.parametrize("name", list(REGISTRY))
@pytest.mark.parametrize("param, value", [("margin", F(2)), ("eps", F(1, 8)), ("levels", 2)])
def test_which_spaces_take_margin_eps_and_levels(name, param, value):
    if param in _TAKES[name]:
        assert getattr(make_space(name, **{param: value}), param) == value
    else:
        with pytest.raises(ValueError, match=f"space '{name}' takes no parameter '{param}'"):
            make_space(name, **{param: value})


@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_defaults(name):
    cfg = make_space(name)
    assert (cfg.margin, cfg.eps, cfg.levels, cfg.principle_expected) == _DEFAULTS[name]
    assert cfg.size == cfg.n == (2 if name == "example1" else 3)


def test_margin_unit_eps_defaults_to_half_over_n():
    cfg = make_space("avg-margin-unit", 2, n=4)
    assert (cfg.eps, cfg.margin) == (F(1, 8), F(7, 8))
    cfg = make_space("avg-margin-unit", 2, eps=F(1, 5))
    assert (cfg.eps, cfg.margin) == (F(1, 5), F(4, 5))


@pytest.mark.parametrize(
    "args, kwargs",
    [((3,), {}), ((), {"n": 3}), ((), {"properties": PropertySpace.abstract(4)})],
)
def test_example1_is_fixed_at_two_properties(args, kwargs):
    with pytest.raises(EncodingError, match=r"fixed at n = \|P\| = 2"):
        make_space("example1", *args, **kwargs)


def test_example1_refuses_properties_of_another_size():
    with pytest.raises(EncodingError, match=r"fixed at n = \|P\| = 2"):
        make_space("example1", 2, properties=PropertySpace.abstract(4))
    with pytest.raises(EncodingError, match=r"fixed at n = \|P\| = 2"):
        make_space("example1", properties=PropertySpace.abstract(4))


def test_size_must_agree_with_the_properties_given():
    with pytest.raises(ValueError, match="size 5 disagrees with the 2 properties given"):
        make_space("avg-strict-nonneg", 5, properties=PropertySpace.abstract(2))
    cfg = make_space("avg-strict-nonneg", 2, properties=PropertySpace.abstract(2))
    assert cfg == make_space("avg-strict-nonneg", properties=PropertySpace.abstract(2))
    assert (cfg.size, cfg.n) == (2, 2)


def test_example1_properties_are_a_and_b():
    cfg = make_space("example1", 2, n=2)
    assert [cfg.properties.label(i) for i in range(2)] == ["a", "b"]
    assert cfg.domain == DomainX("reals", 2)


def test_readme_registry_table_lists_every_row_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Space registry\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    listed = [(name.strip().strip("`"), operator.strip()) for name, operator in rows]
    assert listed == [(name, entry.operator) for name, entry in REGISTRY.items()]


def test_near_binary_slack_at_n_zero_is_a_margin_violation():
    with pytest.raises(ValueError, match="needs n >= 1"):
        make_space("avg-margin-unit", 0)
    assert "margin" in rules_of(make_space("avg-strict-nonneg", 0, eps=F(1, 8)))


def test_weighted_had_unit_refuses_other_caps():
    with pytest.raises(EncodingError, match="K = 2 only"):
        make_space("weighted-had-unit", levels=3)


# --- contains ---------------------------------------------------------------


def test_contains_nonneg_boundary_included():
    assert contains(DomainX("nonneg", 2), vector(["0", "1/2"]))


def test_contains_nonpos_rejects_positive():
    assert not contains(DomainX("nonpos", 2), vector(["0", "1/2"]))


def test_contains_bounded_above():
    assert contains(DomainX("bounded-above", 2, F(0)), vector(["-5", "0"]))
    assert not contains(DomainX("bounded-above", 2, F(0)), vector(["-5", "1/8"]))


def test_contains_dimension_mismatch():
    with pytest.raises(DomainError):
        contains(DomainX("nonneg", 2), vector(["1"]))


# --- validate_config ---------------------------------------------------------------


def test_registry_sound_spaces_validate_clean():
    for name in sound_space_names() + ["avg-margin-nonneg", "avg-margin-unit"]:
        cfg = make_space(name, 3)
        assert validate_config(cfg) == [], name
    assert validate_config(make_space("weighted-max-reals", 3, levels=3)) == []
    assert validate_config(make_space("weighted-had-unit", 3)) == []


def test_avg_on_unrestricted_domain_rejected():
    cfg = SpaceConfig(
        "probe", "avg", "strict", DomainX("reals", 3), COORDINATE, PropertySpace.abstract(3)
    )
    assert "unrestricted-domain" in rules_of(cfg)


def test_example1_carries_its_expected_violation():
    assert "unrestricted-domain" in rules_of(make_space("example1"))


def test_dimension_guard_every_operator():
    # n = |P| - 1 rejected, n = |P| accepted, for each shipped construction
    for name in sound_space_names():
        small = make_space(name, 4, n=3)
        assert "dimension" in rules_of(small), name
        exact = make_space(name, 4)
        assert "dimension" not in rules_of(exact), name


def test_weighted_dimension_guard():
    probes = {
        "avg": SpaceConfig(
            "p", "avg", "strict", DomainX("nonneg", 5), COORDINATE,
            PropertySpace.abstract(3), levels=2,
        ),
        "sum": SpaceConfig(
            "p", "sum", "strict", DomainX("nonneg", 5), COORDINATE,
            PropertySpace.abstract(3), levels=2,
        ),
        "had": SpaceConfig(
            "p", "had", "strict", DomainX("nonneg", 5), "zero-indicator",
            PropertySpace.abstract(3), levels=2,
        ),
    }
    for op, probe in probes.items():
        assert "weighted-dimension" in rules_of(probe), op
        ok = probe.replace(domain=DomainX("nonneg", 6))
        assert "weighted-dimension" not in rules_of(ok), op


def test_weighted_max_needs_only_p_dimensions():
    cfg = make_space("weighted-max-reals", 4, levels=3)
    assert "weighted-dimension" not in rules_of(cfg)


def test_weighted_had_unit_interval_exception():
    # cap-2 construction on [0,1]^n lives at n = |P|
    assert "weighted-dimension" not in rules_of(make_space("weighted-had-unit", 3))


def test_weak_continuity_rule():
    cfg = SpaceConfig(
        "probe", "avg", "weak", DomainX("nonneg", 3), COORDINATE, PropertySpace.abstract(3)
    )
    assert "weak-continuity" in rules_of(cfg)


def test_strict_hadamard_continuity_rule():
    cfg = SpaceConfig(
        "probe", "had", "strict", DomainX("reals", 3), "neg-square", PropertySpace.abstract(3)
    )
    assert "strict-continuity" in rules_of(cfg)


def test_closure_rule_sum_on_unit():
    cfg = SpaceConfig(
        "probe", "sum", "strict", DomainX("unit", 3), COORDINATE, PropertySpace.abstract(3)
    )
    assert "closure" in rules_of(cfg)


def _probe(operator, kind, z=None, family=COORDINATE):
    domain = DomainX(kind, 2, z)
    return SpaceConfig("probe", operator, "strict", domain, family, PropertySpace.abstract(2))


@pytest.mark.parametrize(
    "config, violations, values",
    [
        (
            _probe("had", "nonneg", family="step-sign"),
            [("family-pairing", "step-sign scoring breaks under Hadamard pooling")],
            None,
        ),
        (
            make_space("weighted-max-reals", 2, levels=0),
            [("levels", "certainty cap K must be >= 1")],
            None,
        ),
        (
            make_space("avg-margin-nonneg", 2, margin=0),
            [("margin", "margin must be positive")],
            None,
        ),
        (
            make_space("avg-margin-unit", 2, eps=F(1, 2)),
            [("margin", "near-binary slack must satisfy 0 < eps < 1/n = 1/2")],
            None,
        ),
        (_probe("sum", "bounded-above", 0), [], None),
        (
            _probe("sum", "bounded-above", 1),
            [("closure", "(-inf,1]^n is not closed under sum pooling")],
            None,
        ),
        (_probe("max", "bounded-above", F(1, 2)), [], (F(1, 2), F(-3, 2))),
    ],
    ids=["had-step-sign", "levels-0", "margin-0", "eps-1/n", "sum-z0", "sum-z1", "max-z1/2"],
)
def test_validator_messages_and_the_bounded_above_encoder(config, violations, values):
    """Validator rules and an encoder branch that the other in-process tests
    do not reach; values are the canonical (member, non-member) coordinates."""
    assert [(v.rule, v.message) for v in validate_config(config)] == violations
    if values is not None:
        assert encode_values(config) == values
        for members in (set(), {0}, {1}, {0, 1}):
            state = EpistemicState(config.properties, frozenset(members))
            assert decode(config, encode(config, state)) == state


# --- gamma ---------------------------------------------------------------


def test_gamma_coordinate_projection():
    cfg = make_space("avg-strict-nonneg", 2)
    assert gamma(cfg, 0, vector(["1/4", "0"])).exact == F(1, 4)


def test_gamma_disc_demo_scores():
    cfg = make_space("example1")
    e = vector(["1/4", "0"])
    s = gamma(cfg, 0, e)
    assert s.exact == F(3, 4) and s.signum() > 0
    f = vector(["3/4", "1"])
    assert gamma(cfg, 0, f).exact == F(-1, 4)
    pooled = vector(["1/2", "1/2"])
    g = gamma(cfg, 0, pooled)
    assert g.exact is None and g.signum() > 0
    assert abs(g.as_float() - (1 - 2 ** -0.5)) < 1e-12


def test_gamma_zero_indicator():
    cfg = make_space("had-strict-reals", 2)
    assert gamma(cfg, 1, vector(["2", "0"])).exact == 1


def test_gamma_rejects_outside_domain():
    cfg = make_space("avg-strict-nonneg", 2)
    with pytest.raises(DomainError):
        gamma(cfg, 0, vector(["-1", "0"]))


def _below_property_count(call):
    from epipool.entailment import gamma_q
    from epipool.pooling import check_principle
    from epipool.weighted import decode_weighted

    cfg = SpaceConfig(
        "below", "max", "strict", DomainX("reals", 1), COORDINATE, PropertySpace.abstract(2)
    )
    v = (F(1),)
    return {
        "decode": lambda: decode(cfg, v),
        "gamma_q": lambda: gamma_q(cfg, "min", (0, 1), v),
        "decode_weighted": lambda: decode_weighted(cfg, v, cap=2),
        "check_principle": lambda: check_principle(cfg, v, v),
    }[call]


@pytest.mark.parametrize("call", ["decode", "gamma_q", "decode_weighted", "check_principle"])
def test_vector_below_the_property_count_is_a_domain_error(call):
    with pytest.raises(DomainError, match="n=1 is below the property count 2"):
        _below_property_count(call)()


def test_gamma_rejects_bad_index():
    cfg = make_space("avg-strict-nonneg", 2)
    with pytest.raises(IndexError):
        gamma(cfg, 5, vector(["0", "0"]))


# --- decode / encode ---------------------------------------------------------------


def test_decode_max_strict():
    cfg = make_space("max-strict-reals", 4)
    got = decode(cfg, vector(["1", "-1", "-1", "-1"]))
    assert got.members == frozenset({0})


def test_decode_disc_pooled_point():
    cfg = make_space("example1")
    assert decode(cfg, vector(["1/2", "1/2"])).members == frozenset({0, 1})


def test_decode_neg_square_weak():
    cfg = make_space("had-weak-reals", 4)
    got = decode(cfg, vector(["0", "3", "0", "-2"]))
    assert got.members == frozenset({0, 2})


def test_encode_examples():
    cfg = make_space("avg-strict-nonneg", 4)
    s = EpistemicState.of(cfg.properties, {0, 2})
    assert encode(cfg, s) == vector(["1", "0", "1", "0"])

    cfg = make_space("max-strict-reals", 4)
    s = EpistemicState.of(cfg.properties, {1})
    assert encode(cfg, s) == vector(["-1", "1", "-1", "-1"])

    cfg = make_space("had-weak-nonneg", 4)
    s = EpistemicState.of(cfg.properties, {0, 1})
    assert encode(cfg, s) == vector(["0", "0", "1", "1"])


@pytest.mark.parametrize("name", list(REGISTRY))
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_roundtrip_exhaustive_small(name, size):
    if name == "example1" and size != 2:
        pytest.skip("demo space is fixed at two properties")
    cfg = make_space(name, size)
    for bits in range(1 << size):
        members = frozenset(i for i in range(size) if bits >> i & 1)
        s = EpistemicState.of(cfg.properties, members)
        v = encode(cfg, s)
        assert contains(cfg.domain, v)
        assert decode(cfg, v).members == members


@pytest.mark.parametrize("name", sound_space_names())
@pytest.mark.parametrize("size", [8, 12])
def test_roundtrip_sampled_larger(name, size):
    cfg = make_space(name, size)
    import random

    rng = random.Random(f"roundtrip:{name}:{size}")
    for _ in range(40):
        members = frozenset(i for i in range(size) if rng.random() < 0.5)
        s = EpistemicState.of(cfg.properties, members)
        assert decode(cfg, encode(cfg, s)).members == members


# --- structural facts used downstream ---------------------------------------


grid_vals = tuple(parse_rational(s) for s in ("-2", "-1", "-1/2", "0", "1/2", "1", "2"))


@pytest.mark.parametrize("name", ["max-strict-reals", "max-weak-reals"])
def test_max_decoding_monotone_under_coordinate_growth(name):
    cfg = make_space(name, 2)
    for u in itertools.product(grid_vals, repeat=2):
        for delta in itertools.product((F(0), F(1, 2), F(2)), repeat=2):
            v = tuple(a + d for a, d in zip(u, delta))
            assert decode(cfg, u).members <= decode(cfg, v).members


def test_sum_scores_scale_invariant_in_sign():
    cfg = make_space("sum-strict-nonneg", 3)
    for u in itertools.product((F(0), F(1, 2), F(2)), repeat=3):
        for lam in (F(1, 3), F(1), F(7, 2)):
            scaled = tuple(lam * x for x in u)
            for i in range(3):
                assert score_sign(cfg, i, u) == score_sign(cfg, i, scaled)


def test_encode_stays_in_domain_for_every_registry_space():
    for name in REGISTRY:
        size = 2 if name == "example1" else 3
        cfg = make_space(name, size)
        for bits in range(1 << size):
            members = frozenset(i for i in range(size) if bits >> i & 1)
            v = encode(cfg, EpistemicState.of(cfg.properties, members))
            assert contains(cfg.domain, v), name


def test_encode_refuses_semantics_family_mismatch():
    from epipool.epistemic import EpistemicState, PropertySpace
    from epipool.spaces import EncodingError

    # strict reading on the nonpositive orthant: no positive coordinate exists
    cfg = SpaceConfig(
        "probe", "max", "strict", DomainX("nonpos", 2), COORDINATE,
        PropertySpace.abstract(2), principle_expected=False,
    )
    with pytest.raises(EncodingError):
        encode(cfg, EpistemicState.of(cfg.properties, {0}))
    # weak reading with the zero indicator: every vector would decode full
    cfg = SpaceConfig(
        "probe", "had", "weak", DomainX("reals", 2), "zero-indicator",
        PropertySpace.abstract(2), principle_expected=False,
    )
    with pytest.raises(EncodingError):
        encode(cfg, EpistemicState.of(cfg.properties, {0}))


# --- the family table ---------------------------------------------------------


def _family_probe_values():
    from epipool.verifier import DEFAULT_GRID, rational_pool

    domains = (
        DomainX("reals", 1), DomainX("nonneg", 1), DomainX("nonpos", 1), DomainX("unit", 1),
        DomainX("bounded-above", 1, F(1)),
    )
    extra = {F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(2), F(-2)}
    pooled = {x for dom in domains for x in rational_pool(dom)}
    return sorted(pooled | set(DEFAULT_GRID) | extra)


@pytest.mark.parametrize("name", sorted(set(FAMILIES) - {DISC}))
def test_family_sign_is_the_sign_of_its_score(name):
    family = FAMILIES[name]
    for x in _family_probe_values():
        s = family.score(x)
        assert isinstance(s, Fraction), (name, x)
        assert family.sign(x) == (s > 0) - (s < 0), (name, x)


def test_continuous_families_are_the_documented_six():
    continuous = {name for name, family in FAMILIES.items() if family.continuous}
    assert continuous == {
        "coordinate", "neg-coordinate", "neg-square", "neg-relu", "disc", "one-minus-square"
    }


def test_disc_family_has_no_per_coordinate_score():
    with pytest.raises(ValueError, match="not per-coordinate"):
        FAMILIES[DISC].score(F(0))
    assert FAMILIES[DISC].values is None and FAMILIES[COORDINATE].values is None


@pytest.mark.parametrize(
    "name", [n for n in REGISTRY if make_space(n).family != DISC]
)
def test_canonical_values_decode_as_member_and_non_member(name):
    cfg = make_space(name, 3)
    member, non_member = encode_values(cfg)
    if cfg.scoring.values is not None:
        assert (member, non_member) == cfg.scoring.values
    for i in range(cfg.size):
        v = tuple(member if j == i else non_member for j in range(cfg.n))
        assert decode(cfg, v).members == {i}, (name, i)
