import itertools
from fractions import Fraction

import pytest

from epipool.entailment import gamma_q
from epipool.epistemic import PropertySpace
from epipool.numeric import signum
from epipool.pooling import check_weighted_principle, pool
from epipool.spaces import EncodingError, encode, make_space, vector
from epipool.weighted import (
    WeightedState,
    decode_weighted,
    encode_weighted,
    levels_max,
    sharp_reduction,
)

F = Fraction


def wmax(size, cap):
    return make_space("weighted-max-reals", size, levels=cap)


def test_decode_weighted_strict_examples():
    cfg = wmax(2, 2)
    assert decode_weighted(cfg, vector(["3/2", "-1/2"])).levels == (2, 0)
    padded = make_space("weighted-max-reals", 2, n=4, levels=2)
    assert decode_weighted(padded, vector(["3/2", "-1/2", "5/2", "1/2"])).levels == (2, 0)


def test_decode_weighted_clamps_above_cap():
    cfg = wmax(2, 2)
    assert decode_weighted(cfg, vector(["2", "2"])).levels == (2, 2)


def test_decode_weighted_unit_space():
    cfg = make_space("weighted-had-unit", 2)
    assert decode_weighted(cfg, vector(["0", "1"])).levels == (2, 0)


def test_decode_weighted_weak_floor_form():
    cfg = wmax(3, 3)
    v = vector(["3/2", "-1/2", "3"])
    assert decode_weighted(cfg, v, semantics="weak").levels == (2, 0, 3)


def test_encode_weighted_max_offsets():
    cfg = wmax(3, 3)
    s = WeightedState.of(cfg.properties, (3, 0, 1), 3)
    assert encode_weighted(cfg, s) == vector(["5/2", "-1/2", "1/2"])


def test_encode_weighted_unit_table():
    cfg = make_space("weighted-had-unit", 3)
    s = WeightedState.of(cfg.properties, (2, 1, 0), 2)
    assert encode_weighted(cfg, s) == vector(["0", "1/2", "1"])


def test_encode_weighted_single_property():
    cfg = wmax(1, 1)
    s = WeightedState.of(cfg.properties, (1,), 1)
    assert encode_weighted(cfg, s) == vector(["1/2"])


def test_weighted_checks_refuse_the_disc_family():
    cfg = make_space("example1")
    v = vector(["0", "0"])
    with pytest.raises(ValueError, match="not per-coordinate"):
        decode_weighted(cfg, v, cap=1)
    with pytest.raises(ValueError, match="not per-coordinate"):
        check_weighted_principle(cfg, 1, v, v)


def test_encode_weighted_unsupported_pair():
    cfg = make_space("had-weak-nonneg", 2)
    s = WeightedState.of(cfg.properties, (1, 0), 2)
    with pytest.raises(EncodingError):
        encode_weighted(cfg, s)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_roundtrip_weighted_max_exhaustive(size, cap):
    cfg = wmax(size, cap)
    for levels in itertools.product(range(cap + 1), repeat=size):
        s = WeightedState.of(cfg.properties, levels, cap)
        v = encode_weighted(cfg, s)
        for semantics in ("strict", "weak"):
            assert decode_weighted(cfg, v, semantics=semantics).levels == levels


@pytest.mark.parametrize("size", [1, 2, 3])
def test_roundtrip_weighted_unit_exhaustive(size):
    cfg = make_space("weighted-had-unit", size)
    for levels in itertools.product(range(3), repeat=size):
        s = WeightedState.of(cfg.properties, levels, 2)
        v = encode_weighted(cfg, s)
        for semantics in ("strict", "weak"):
            assert decode_weighted(cfg, v, semantics=semantics).levels == levels


def test_pooled_levels_are_pointwise_max_both_constructions():
    for name, cap in (("weighted-max-reals", 3), ("weighted-had-unit", 2)):
        cfg = (
            make_space(name, 2, levels=cap) if name == "weighted-max-reals"
            else make_space(name, 2)
        )
        for lu in itertools.product(range(cap + 1), repeat=2):
            for lw in itertools.product(range(cap + 1), repeat=2):
                su = WeightedState.of(cfg.properties, lu, cap)
                sw = WeightedState.of(cfg.properties, lw, cap)
                pooled = pool(cfg.operator, encode_weighted(cfg, su), encode_weighted(cfg, sw))
                got = decode_weighted(cfg, pooled, cap=cap)
                assert got.levels == levels_max(su, sw).levels


# --- reduction to the unweighted setting ---------------------------------------


def test_sharp_reduction_sizes():
    red = sharp_reduction(PropertySpace.abstract(2), 2)
    assert red.extended.size == 6


def test_sharp_reduction_query_sets():
    red = sharp_reduction(PropertySpace.abstract(2), 2)
    assert red.query_set(0, 2) == frozenset({red.index(0, 0), red.index(0, 1)})
    assert red.query_set(1, 1) == frozenset({red.index(1, 0)})


def test_sharp_reduction_indices_disjoint_and_total():
    red = sharp_reduction(PropertySpace.abstract(3), 2)
    seen = {red.index(p, i) for p in range(3) for i in range(3)}
    assert seen == set(range(9))


def test_sharp_reduction_roundtrip_levels():
    red = sharp_reduction(PropertySpace.abstract(2), 3)
    for levels in itertools.product(range(4), repeat=2):
        state = red.state_from_levels(levels)
        assert red.levels_from_state(state) == levels


def test_sharp_reduction_routes_through_ordinary_scorers():
    """Lower-bound level queries answered by subset scoring over the
    extended property space, after the (K+1)-fold dimension blowup."""
    base = PropertySpace.abstract(2)
    cap = 2
    red = sharp_reduction(base, cap)
    cfg = make_space("avg-strict-nonneg", properties=red.extended)
    assert cfg.n == base.size * (cap + 1)
    for levels in itertools.product(range(cap + 1), repeat=2):
        v = encode(cfg, red.state_from_levels(levels))
        for p in range(2):
            for bound in range(1, cap + 1):
                holds = signum(gamma_q(cfg, "min", red.query_set(p, bound), v)) > 0
                assert holds == (levels[p] >= bound)
