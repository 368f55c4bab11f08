import functools
import itertools
import tracemalloc
from fractions import Fraction as F

import pytest

import epipool.verifier as verifier
from epipool.entailment import CLEAR_CUT_SCORERS, subset_scorer
from epipool.epistemic import EpistemicState, PropertySpace
from epipool.numeric import IndeterminateSign, ScoreValue, signum
from epipool.pooling import PoolClosureError, check_weighted_principle
from epipool.spaces import (
    COORDINATE,
    DISC,
    GRADED_UNIT,
    DomainError,
    FAMILIES,
    OPERATORS,
    REGISTRY,
    SEMANTICS,
    DomainX,
    SpaceConfig,
    encode,
    make_space,
    member_sign,
    sound_space_names,
)
from epipool.verifier import (
    DEFAULT_SEED,
    FALSIFY_REGISTRY,
    FALSIFIED,
    SKIPPED,
    VERIFIED,
    TrialPlan,
    Witness,
    _subset_mismatch,
    _sweep_direct,
    clear_cut_grid_sweep,
    falsify,
    formula_battery,
    logical_space,
    oracle_equivalence_sweep,
    parse_seed,
    principle_sweep,
    replay_witness,
    roundtrip_sweep,
    search,
    sweep_points,
    table_report,
    verify_entailment,
    verify_space,
    verify_weighted,
    weighted_principle_sweep,
    weighted_roundtrip_sweep,
)
from epipool.weighted import WeightedState, encode_weighted

FAST = TrialPlan(trials=500)


def test_parse_seed_formats():
    assert parse_seed("123") == 123
    assert parse_seed("0xff") == 255
    assert parse_seed("0xEP00") == int("EP00", 36) == DEFAULT_SEED
    with pytest.raises(ValueError):
        parse_seed("xyz")


def test_plan_rng_streams_are_deterministic_and_labelled():
    plan = TrialPlan(seed=42)
    a = plan.rng("x").random()
    assert a == TrialPlan(seed=42).rng("x").random()
    assert a != plan.rng("y").random()


@pytest.mark.parametrize("name", sound_space_names())
def test_verify_space_clean_constructions(name):
    report = verify_space(make_space(name, 3), FAST)
    assert all(c.status == VERIFIED for c in report.cells), report.to_text()


def test_verify_space_demo_is_falsified_and_replayable():
    report = verify_space(make_space("example1"), FAST)
    pooling = next(c for c in report.cells if c.cell.startswith("pooling"))
    assert pooling.status == FALSIFIED
    assert pooling.witness is not None and replay_witness(pooling.witness)
    roundtrip = next(c for c in report.cells if c.cell.startswith("roundtrip"))
    assert roundtrip.status == VERIFIED


@pytest.mark.parametrize("name", sorted(FALSIFY_REGISTRY))
def test_every_candidate_yields_replayable_witness(name):
    w = falsify(name, FAST)
    assert w is not None
    assert replay_witness(w)


def test_falsify_unknown_candidate():
    with pytest.raises(KeyError):
        falsify("no-such-candidate", FAST)


def test_falsify_scan_order_is_deterministic():
    assert falsify("strict-linear-gammaQ-affine", FAST) == falsify(
        "strict-linear-gammaQ-affine", FAST
    )


def test_verify_entailment_linear_cells():
    for space in ("max-weak-nonpos", "had-weak-nonneg"):
        report = verify_entailment(logical_space(space), "linear", FAST)
        assert [c.status for c in report.cells] == [VERIFIED]
        assert report.cells[0].trials == 16 * len(formula_battery(FAST))


def test_verify_entailment_incompatible_pair_is_skipped():
    report = verify_entailment(logical_space("max-weak-nonpos"), "squared", FAST)
    assert [c.status for c in report.cells] == [SKIPPED]


def test_weighted_sweep_rejects_a_cap_below_one_like_its_normative_check():
    cfg = make_space("weighted-max-reals", 4)  # |P| = 4: no encoded pairs to stop it
    with pytest.raises(ValueError, match="level cap must be >= 1"):
        weighted_principle_sweep(cfg, FAST, 0, "strict")


def test_verify_weighted_reports_clean():
    report = verify_weighted(make_space("weighted-max-reals", 2, levels=2), FAST)
    assert all(c.status == VERIFIED for c in report.cells)


@pytest.fixture(scope="module")
def small_report():
    return table_report(TrialPlan(trials=200))


def test_report_json_is_deterministic(small_report):
    assert small_report.to_json() == table_report(TrialPlan(trials=200)).to_json()


def test_report_json_omits_timings():
    report = verify_space(make_space("avg-strict-nonneg", 2), FAST)
    assert "elapsed" not in report.to_json()
    assert "ms" in report.to_text()


def test_table_report_every_cell_as_expected(small_report):
    bad = [c.cell for c in small_report.cells if not c.as_expected]
    assert not bad, bad
    statuses = {c.status for c in small_report.cells}
    assert statuses == {VERIFIED, FALSIFIED, SKIPPED}


def test_table_report_cites_validator_for_weighted_dimension_cells(small_report):
    cell = next(
        c for c in small_report.cells if c.cell == "weighted:avg:strict:n-equals-P"
    )
    assert cell.status == SKIPPED
    assert "n >= |P|*K" in cell.note


def test_witnesses_in_report_replay(small_report):
    for cell in small_report.cells:
        if cell.witness is not None and cell.witness.kind == "pooling":
            assert replay_witness(cell.witness), cell.cell


def test_one_vector_weighted_witness_replays_through_the_roundtrip_decode():
    """weighted_roundtrip_sweep's witnesses carry one vector and the encoded level."""
    config = make_space("weighted-max-reals", size=2)
    v = encode_weighted(config, WeightedState(config.properties, (2, 1), config.levels))
    for sem in ("strict", "weak"):  # v decodes to level 2 at property 0
        claims_1 = Witness(config.name, "weighted", sem, (v,), 0, True, False, level=1)
        claims_2 = Witness(config.name, "weighted", sem, (v,), 0, True, False, level=2)
        assert replay_witness(claims_1) is True
        assert replay_witness(claims_2) is False
    # (1, 0) decodes to level 1 at property 0, so this one does not reproduce
    fabricated = Witness("weighted-max-reals", "weighted", "strict", ((1, 0),), 0, True, False, level=1)
    assert replay_witness(fabricated) is False


def test_two_vector_weighted_witness_and_unknown_kind_do_not_replay():
    config = make_space("weighted-max-reals", size=1)
    v, w = (F(1, 2),), (F(-1, 2),)  # levels 1 and 0 pool to level 1: no violation
    assert verifier.check_weighted_principle(config, 2, v, w, semantics="strict") is None
    claimed = Witness(config.name, "weighted", "strict", (v, w), 0, True, False, level=1)
    assert replay_witness(claimed) is False
    unknown = Witness("max-strict-reals", "no-such-kind", "strict", ((F(1),),), 0, True, False)
    assert replay_witness(unknown) is False


UNFIT_WITNESSES = {
    "pooling-unknown-space": Witness(
        "no-such-space", "pooling", "strict", ((F(0), F(0)), (F(1), F(1))), 0, True, False
    ),
    "weighted-unknown-space": Witness(
        "no-such-space", "weighted", "strict", ((F(0), F(0)),), 0, True, False, level=1
    ),
    "pooling-ragged": Witness(
        "max-strict-reals", "pooling", "strict", ((F(0), F(0)), (F(1),)), 0, True, False
    ),
    "weighted-ragged": Witness(
        "weighted-max-reals", "weighted", "strict", ((F(0), F(0)), (F(1),)), 0, True, False,
        level=1,
    ),
    "falsify-candidate-ragged": Witness(
        "avg-strict-reals-coordinate", "pooling", "strict", ((F(0), F(0)), (F(1),)), 0, True, False
    ),
    "pooling-one-vector": Witness(
        "max-strict-reals", "pooling", "strict", ((F(0), F(0)),), 0, True, False
    ),
    "pooling-no-vector": Witness("max-strict-reals", "pooling", "strict", (), 0, True, False),
    "weighted-three-vectors": Witness(
        "weighted-max-reals", "weighted", "strict", ((F(0), F(0)),) * 3, 0, True, False, level=1
    ),
    # (0, 0) decodes to level 0 at both properties: a negative prop must not
    # read the last one
    "weighted-negative-prop": Witness(
        "weighted-max-reals", "weighted", "strict", ((F(0), F(0)),), -1, True, False, level=1
    ),
    "weighted-prop-out-of-range": Witness(
        "weighted-max-reals", "weighted", "strict", ((F(0), F(0)),), 2, True, False, level=1
    ),
    "candidate-subset-score-short": Witness(
        "strict-linear-gammaQ-affine", "subset-score", "strict", ((F(1),),), 0, True, False,
        q=(0, 1),
    ),
    "candidate-subset-score-no-vector": Witness(
        "strict-linear-gammaQ-affine", "subset-score", "strict", (), 0, True, False, q=(0, 1)
    ),
    # a candidate refuted through the pooling principle has no subset score
    "scoreless-candidate-subset-score": Witness(
        "avg-strict-reals-coordinate", "subset-score", "strict", ((F(1), F(1)),), 0, True, False,
        q=(0, 1),
    ),
    # outside the candidate's [0, +inf)^2: the score -1 + 3 - 1 is positive and
    # -1 lacks property 0, so reading v's signs alone made this very witness
    "candidate-subset-score-outside": Witness(
        "strict-linear-gammaQ-affine", "subset-score", "strict", ((F(-1), F(3)),), 0, False, True,
        q=(0, 1),
    ),
    # fields of the wrong type, as a witness read from outside the program
    # may carry: False, not a TypeError from the maker
    "roundtrip-prop-none": Witness(
        "max-strict-reals", "roundtrip", "strict", ((F(-1), F(-1)),), None, True, False
    ),
    "roundtrip-coordinate-str": Witness(
        "max-strict-reals", "roundtrip", "strict", (("a", F(-1)),), 0, True, False
    ),
    "weighted-level-str": Witness(
        "weighted-max-reals", "weighted", "strict", ((F(0), F(0)),), 0, True, False, level="1"
    ),
    "subset-score-q-list": Witness(
        "max-weak-nonpos+linear", "subset-score", "weak", ((F(0), F(0)),), 0, True, False,
        q=[0],
    ),
}


@pytest.mark.parametrize("witness", UNFIT_WITNESSES.values(), ids=UNFIT_WITNESSES)
def test_pooling_and_weighted_witnesses_that_do_not_fit_their_space_do_not_replay(witness):
    assert replay_witness(witness) is False


def test_roundtrip_sweep_witness_names_the_first_property_lost(monkeypatch):
    config = make_space("max-strict-reals", 2)
    empty = encode(config, EpistemicState.of(config.properties, ()))
    monkeypatch.setattr(verifier, "encode", lambda config, state: empty)
    # states in order {}, {0}, ...: {0} is the first that decodes wrongly
    trials, witness = roundtrip_sweep(config, FAST)
    assert trials == 2
    assert witness == Witness(config.name, "roundtrip", "strict", (empty,), 0, True, False)
    assert witness.to_json()["vectors"] == [["-1", "-1"]]
    assert replay_witness(witness) is True


def test_roundtrip_witness_that_decoding_contradicts_does_not_replay():
    config = make_space("max-strict-reals", 2)
    witness = Witness(config.name, "roundtrip", "strict", ((F(-1), F(-1)),), 0, True, False)
    assert replay_witness(witness) is True
    # encode({0}) does decode with property 0, so this one does not reproduce
    has_0 = encode(config, EpistemicState.of(config.properties, (0,)))
    assert replay_witness(witness.replace(vectors=(has_0,))) is False
    assert replay_witness(witness.replace(semantics="weak")) is False
    assert replay_witness(witness.replace(candidate="no-such-space")) is False
    outside = Witness("avg-strict-nonneg", "roundtrip", "strict", ((F(-1), F(-1)),), 0, True, False)
    assert replay_witness(outside) is False


def test_weighted_roundtrip_sweep_witness_carries_the_encoded_level(monkeypatch):
    config = make_space("weighted-max-reals", 2, levels=2)
    zero = encode_weighted(config, WeightedState(config.properties, (0, 0), 2))
    monkeypatch.setattr(verifier, "encode_weighted", lambda config, state: zero)
    # levels in order (0, 0), (0, 1), ...: (0, 1) is the first that decodes wrongly
    trials, witness = weighted_roundtrip_sweep(config, FAST, 2)
    assert trials == 2
    assert witness == Witness(config.name, "weighted", "strict", (zero,), 1, True, False, level=1)
    assert witness.to_json()["level"] == 1
    assert "level" not in witness.replace(level=None).to_json()
    assert replay_witness(witness)


def passing_kernel(config, scorer, v):
    """A subset_scorer whose every subset score passes the sign test."""
    return lambda q: F(1)


def test_oracle_equivalence_sweep_witness_names_the_countermodels(monkeypatch):
    config = logical_space("max-weak-nonpos")
    monkeypatch.setattr(verifier, "subset_scorer", passing_kernel)
    # the empty state entails no atom; a is false in worlds 0 (a=0 b=0) and 2 (a=0 b=1)
    trials, witness = oracle_equivalence_sweep(config, "linear", FAST)
    assert trials == 1
    assert formula_battery(FAST)[0] == verifier.Atom("a")
    v = encode(config, EpistemicState.of(config.properties, ()))
    assert witness == Witness(
        "max-weak-nonpos+linear", "subset-score", "weak", (v,), 0, False, True, q=(0, 2)
    )


def test_clear_cut_grid_sweep_witness_names_the_first_property_lacking(monkeypatch):
    config = logical_space("avg-margin-nonneg")
    monkeypatch.setattr(verifier, "subset_scorer", passing_kernel)
    # the zero vector comes first; its empty subset scores +1 without the
    # kernel and agrees, and q = (0,) is the first subset the kernel scores
    trials, witness = clear_cut_grid_sweep(config, "margin-relu")
    assert trials == 2
    zero = (F(0),) * config.n
    assert witness == Witness(
        "avg-margin-nonneg+margin-relu", "subset-score", "strict", (zero,), 0, False, True, q=(0,)
    )


@pytest.mark.parametrize("sweep", ["oracle", "clear-cut"])
def test_formula_sweep_witness_replays_only_under_its_wrong_sign(monkeypatch, sweep):
    """A "<space>+<scorer>" witness replays through gamma_q, which reaches the
    kernel through entailment, so the wrong sign is injected there too."""
    import epipool.entailment as entailment

    for module in (verifier, entailment):
        monkeypatch.setattr(module, "subset_scorer", passing_kernel)
    if sweep == "oracle":
        _, witness = oracle_equivalence_sweep(logical_space("had-weak-nonneg"), "linear", FAST)
    else:
        _, witness = clear_cut_grid_sweep(logical_space("avg-margin-unit"), "margin-linear")
    assert witness is not None and replay_witness(witness) is True
    monkeypatch.undo()
    assert replay_witness(witness) is False


def _wrong_sign_formula_witness(monkeypatch, sweep):
    """A formula sweep's witness under a kernel that always scores +1; the
    kernel stays in place, in both modules, for the replay through gamma_q."""
    import epipool.entailment as entailment

    for module in (verifier, entailment):
        monkeypatch.setattr(module, "subset_scorer", passing_kernel)
    if sweep == "oracle":
        return oracle_equivalence_sweep(logical_space("had-weak-nonneg"), "linear", FAST)[1]
    return clear_cut_grid_sweep(logical_space("avg-margin-unit"), "margin-linear")[1]


def _weighted_pair_witness(monkeypatch):
    # plain membership is certainty level 1, so a doomed candidate's pooling
    # pair breaks the weighted principle at cap 1, the cap replay reads off
    # a space without levels
    name = "avg-strict-reals-coordinate"
    v, w = falsify(name, FAST).vectors
    return check_weighted_principle(FALSIFY_REGISTRY[name].config, 1, v, w, "strict")


def test_weighted_roundtrip_sweep_enumerates_up_to_256_level_vectors(monkeypatch):
    """Every level vector while (K+1)^|P| <= 256, as roundtrip_sweep takes
    every state; past that a sample of 256 drawn from the plan's seed."""
    drawn = []

    def recording(config, state):
        drawn.append(state.levels)
        return encode_weighted(config, state)

    monkeypatch.setattr(verifier, "encode_weighted", recording)
    for size, count in ((4, 81), (5, 243)):
        drawn.clear()
        small = make_space("weighted-max-reals", size, levels=2)
        assert weighted_roundtrip_sweep(small, FAST, 2) == (count, None)
        assert drawn == list(itertools.product(range(3), repeat=size))
    wide = make_space("weighted-max-reals", 4, levels=4)
    assert weighted_roundtrip_sweep(wide, FAST, 4) == (256, None)  # of 5^4 = 625
    samples = []
    for plan in (FAST, FAST, TrialPlan(seed=FAST.seed + 1)):
        drawn.clear()
        config = make_space("weighted-max-reals", 12, levels=2)
        assert weighted_roundtrip_sweep(config, plan, 2) == (256, None)
        assert all(len(levels) == 12 and set(levels) <= {0, 1, 2} for levels in drawn)
        samples.append(list(drawn))
    assert samples[0] == samples[1] != samples[2]
    assert len(set(samples[0])) > 200


def test_roundtrip_sweep_enumerates_up_to_256_states(monkeypatch):
    """Every state while 2^|P| <= 256; past that a seeded sample of 256."""
    drawn = []

    def recording(config, state):
        drawn.append(state.members)
        return encode(config, state)

    monkeypatch.setattr(verifier, "encode", recording)
    config = make_space("max-strict-reals", 8)
    assert roundtrip_sweep(config, FAST) == (256, None)
    assert len(set(drawn)) == 256
    samples = []
    for plan in (FAST, FAST, TrialPlan(seed=FAST.seed + 1)):
        drawn.clear()
        config = make_space("max-strict-reals", 9)
        assert roundtrip_sweep(config, plan) == (256, None)
        assert all(members <= set(range(9)) for members in drawn)
        samples.append(list(drawn))
    assert samples[0] == samples[1] != samples[2]
    assert len(set(samples[0])) < 256


def _weighted_one_vector_witness(monkeypatch):
    config = make_space("weighted-max-reals", 2, levels=2)
    zero = encode_weighted(config, WeightedState(config.properties, (0, 0), 2))
    monkeypatch.setattr(verifier, "encode_weighted", lambda config, state: zero)
    return weighted_roundtrip_sweep(config, FAST, 2)[1]


def _roundtrip_witness(monkeypatch):
    config = make_space("max-strict-reals", 2)
    empty = encode(config, EpistemicState.of(config.properties, ()))
    monkeypatch.setattr(verifier, "encode", lambda config, state: empty)
    return roundtrip_sweep(config, FAST)[1]


FORCED_WITNESSES = {
    "pooling": lambda monkeypatch: principle_sweep(make_space("example1"), FAST)[1],
    "weighted-pair": _weighted_pair_witness,
    "weighted-one-vector": _weighted_one_vector_witness,
    "roundtrip": _roundtrip_witness,
    "subset-score-candidate": lambda monkeypatch: falsify("strict-linear-gammaQ-affine", FAST),
    "subset-score-oracle": lambda monkeypatch: _wrong_sign_formula_witness(monkeypatch, "oracle"),
    "subset-score-clear-cut": (
        lambda monkeypatch: _wrong_sign_formula_witness(monkeypatch, "clear-cut")
    ),
}

# Values no maker can return for a witness's other inputs: there is no
# property or level -1, no semantics "bogus" and no space "no-such-space",
# and the empty subset scores +1, so it agrees with every state.
CHANGED_FIELDS = {
    "candidate": "no-such-space",
    "semantics": "bogus",
    "prop": -1,
    "level": -1,
    "q": (),
}


@pytest.mark.parametrize("kind", FORCED_WITNESSES)
def test_replay_remakes_every_field_of_the_witness(monkeypatch, kind):
    witness = FORCED_WITNESSES[kind](monkeypatch)
    assert witness is not None and replay_witness(witness) is True
    changed = {field: witness.replace(**{field: value}) for field, value in CHANGED_FIELDS.items()}
    changed["expected"] = witness.replace(expected=not witness.expected)
    changed["observed"] = witness.replace(observed=not witness.observed)
    replays = {field: replay_witness(w) for field, w in changed.items()}
    assert not any(replays.values()), replays


def test_formula_sweep_witness_outside_its_domain_or_registry_does_not_replay():
    v = (F(-1), F(0), F(0), F(0))  # outside [0, +inf)^4
    outside = Witness(
        "avg-margin-nonneg+sigmoid", "subset-score", "strict", (v,), 0, False, True, q=(0,)
    )
    assert replay_witness(outside) is False
    assert replay_witness(outside.replace(candidate="no-such-space+sigmoid")) is False
    assert replay_witness(outside.replace(candidate="avg-margin-nonneg+no-such-scorer")) is False


# --- the formula sweeps decide each distinct query once --------------------------

REPORT_PAIRS = [target for _, kind, target, _ in verifier.TABLE_ROWS if kind == "entailment"]
FORMULA_SWEEPS = [("oracle", space, scorer) for space, scorer in REPORT_PAIRS] + [
    ("clear-cut", space, scorer) for space, scorer in REPORT_PAIRS if scorer in CLEAR_CUT_SCORERS
]
SWEEP_IDS = [f"{kind}:{space}:{scorer}" for kind, space, scorer in FORMULA_SWEEPS]


def every_point_checked(monkeypatch):
    """The reference: the sweeps without their memo check every point."""
    monkeypatch.setattr(verifier, "_passed_once", lambda key, check: check)


def _formula_sweep(kind, space, scorer, plan):
    config = logical_space(space)
    if kind == "oracle":
        return oracle_equivalence_sweep(config, scorer, plan)
    return clear_cut_grid_sweep(config, scorer)


def _memo_and_reference(monkeypatch, sweep, plan):
    """The sweep's outcome with its memo, then with every point checked."""
    memo = _outcome(_formula_sweep, *sweep, plan)
    with monkeypatch.context() as m:
        every_point_checked(m)
        return memo, _outcome(_formula_sweep, *sweep, plan)


def kernels_that(act):
    """A subset_scorer whose kernels score through the real one, then hand
    act(config, q, v at q, score) the result; like the real kernels, they
    read v only at q."""

    def make(config, scorer, v):
        kernel = subset_scorer(config, scorer, v)
        return lambda q: act(config, q, tuple(v[i] for i in q), kernel(q))

    return make


def _distinct_queries(monkeypatch, sweep):
    """(q, v at q) of each query the unmemoized sweep scores, in order of
    first appearance."""
    queries = []
    with monkeypatch.context() as m:
        every_point_checked(m)
        m.setattr(
            verifier, "subset_scorer",
            kernels_that(lambda config, q, at_q, score: queries.append((q, at_q)) or score),
        )
        _formula_sweep(*sweep, TrialPlan())
    return list(dict.fromkeys(queries))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2, 3])
def test_memoized_formula_sweeps_equal_the_unmemoized_ones(monkeypatch, seed):
    plan = TrialPlan(seed=seed)
    for sweep in FORMULA_SWEEPS:
        memo, reference = _memo_and_reference(monkeypatch, sweep, plan)
        assert memo == reference and reference[1] is None, sweep


@pytest.mark.parametrize("sweep", FORMULA_SWEEPS, ids=SWEEP_IDS)
def test_memoized_formula_sweeps_fail_where_the_unmemoized_ones_do(monkeypatch, sweep):
    """A kernel with the wrong sign on the first, a middle or the last
    distinct query: the same trial count and witness with and without the
    memo, although earlier points with the same q passed on other values at q."""
    queries = _distinct_queries(monkeypatch, sweep)
    trials = []
    for target in (queries[0], queries[len(queries) // 2], queries[-1]):

        def wrong_sign(config, q, at_q, score, target=target):
            if (q, at_q) != target:
                return score
            return F(-1 if member_sign(config.semantics, signum(score)) else 1)

        monkeypatch.setattr(verifier, "subset_scorer", kernels_that(wrong_sign))
        memo, reference = _memo_and_reference(monkeypatch, sweep, TrialPlan())
        assert memo == reference and reference[1] is not None, target
        trials.append(reference[0])
    assert trials == sorted(set(trials)), trials


@pytest.mark.parametrize("sweep", FORMULA_SWEEPS, ids=SWEEP_IDS)
def test_memoized_formula_sweeps_raise_where_the_unmemoized_ones_do(monkeypatch, sweep):
    """A kernel whose sign is indeterminate on a middle query raises the same
    error after the same number of points checked, with and without the memo."""
    queries = _distinct_queries(monkeypatch, sweep)
    target = queries[len(queries) // 2]

    def indeterminate(config, q, at_q, score):
        return ScoreValue(0.0, bound=F(1, 8)) if (q, at_q) == target else score

    monkeypatch.setattr(verifier, "subset_scorer", kernels_that(indeterminate))
    checked = []
    search = verifier.search
    monkeypatch.setattr(
        verifier, "search",
        lambda points, check: search(points, lambda point: checked.append(1) or check(point)),
    )
    outcomes = []
    for memo in (True, False):
        with monkeypatch.context() as m:
            if not memo:
                every_point_checked(m)
            checked.clear()
            with pytest.raises(IndeterminateSign) as raised:
                _formula_sweep(*sweep, TrialPlan())
            outcomes.append((str(raised.value), len(checked)))
    assert outcomes[0] == outcomes[1] and outcomes[0][1] > 1, outcomes


def test_fast_sweep_detects_violations_on_doomed_configs():
    """A decider that finds an offending pair of cells certifies nothing:
    principle_sweep then searches its points with check_principle, which
    must find the witness."""
    for name in (
        "avg-strict-reals-coordinate",
        "avg-weak-reals-coordinate",
        "sum-weak-reals-coordinate",
        "had-strict-reals-oneMinusSquare",
    ):
        config = FALSIFY_REGISTRY[name].config
        trials, witness = principle_sweep(config, FAST)
        assert witness is not None, name
        assert replay_witness(witness), name


def test_subset_witness_names_the_first_property_the_vector_lacks():
    config = FALSIFY_REGISTRY["strict-linear-gammaQ-affine"].config  # strict, e_i > 0
    q = (0, 1)
    assert _subset_mismatch("c", config, (F(2), F(0)), q, -1, frozenset({0})) is None
    lacks_1 = _subset_mismatch("c", config, (F(2), F(0)), q, 1, frozenset({0}))
    assert lacks_1 == Witness("c", "subset-score", "strict", ((F(2), F(0)),), 1, False, True, q=q)
    has_both = _subset_mismatch("c", config, (F(1), F(1)), q, 0, frozenset({0, 1}))
    assert has_both == Witness("c", "subset-score", "strict", ((F(1), F(1)),), 0, True, False, q=q)


def _outcome(sweep, *args):
    try:
        return sweep(*args)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def test_table_sweep_equals_direct_sweep_on_every_per_coordinate_configuration():
    """principle_sweep and _sweep_direct see the same points and must end the same way:
    the same trials and witness, or the same exception (closure escapes included)."""
    plan = TrialPlan(grid=(F(-1), F(0), F(1)), dimension=2, trials=10)
    domains = [
        DomainX("reals", 2), DomainX("nonneg", 2), DomainX("nonpos", 2),
        DomainX("bounded-above", 2, 1), DomainX("unit", 2),
    ]
    families = [f for f in FAMILIES if f != DISC]
    outcomes = set()
    for op, sem, dom, fam in itertools.product(OPERATORS, SEMANTICS, domains, families):
        cfg = SpaceConfig(f"{op}-{sem}-{dom.describe()}-{fam}", op, sem, dom, fam,
                          PropertySpace.abstract(2))
        table = _outcome(principle_sweep, cfg, plan)
        direct = _outcome(_sweep_direct, cfg, plan, f"pooling:{cfg.name}")
        assert table == direct, cfg.name
        outcomes.add(direct if isinstance(direct, type) else direct[1] is not None)
    assert outcomes == {True, False, PoolClosureError}


@pytest.mark.parametrize("size, expected", [(1, {True, False, PoolClosureError}), (3, {DomainError})])
def test_table_sweep_equals_direct_sweep_when_n_is_not_the_property_count(size, expected):
    """Past |P| a coordinate carries no property, so only closure counts there;
    below |P| every pair is a DomainError."""
    plan = TrialPlan(grid=(F(-1), F(0), F(1)), dimension=2, trials=10)
    outcomes = set()
    for op, kind in (("avg", "reals"), ("max", "reals"), ("sum", "unit")):
        dom = DomainX(kind, 2)
        props = PropertySpace.abstract(size)
        cfg = SpaceConfig(f"{op}-{dom.describe()}", op, "strict", dom, COORDINATE, props)
        direct = _outcome(_sweep_direct, cfg, plan, f"pooling:{cfg.name}")
        assert _outcome(principle_sweep, cfg, plan) == direct, cfg.name
        outcomes.add(direct if isinstance(direct, type) else direct[1] is not None)
    assert outcomes == expected


@pytest.mark.parametrize("n", [1, 2])
def test_weighted_table_sweep_equals_plain_search_on_every_per_coordinate_configuration(n):
    """_table_sweep with check_weighted_principle, and a plain search over the
    same sweep_points stream, end the same way at caps 1..3 under both
    semantics: the same trials and witness, or the same exception. There is
    one property, so at n = 2 the second coordinate is a closure-only one.
    The sweep is called directly: weighted_principle_sweep raises EncodingError
    before sweeping wherever there is no weighted encoder for its lead vectors."""
    domains = [
        DomainX("reals", n), DomainX("nonneg", n), DomainX("nonpos", n),
        DomainX("bounded-above", n, 1), DomainX("unit", n),
    ]
    families = [f for f in FAMILIES if f != DISC]
    outcomes = set()
    for op, dom, fam, cap, sem in itertools.product(
        OPERATORS, domains, families, (1, 2, 3), SEMANTICS
    ):
        cfg = SpaceConfig(f"{op}-{dom.describe()}-{fam}", op, sem, dom, fam,
                          PropertySpace.abstract(1))
        check = functools.partial(check_weighted_principle, cfg, cap, semantics=sem)
        label = f"weighted:{cfg.name}:{sem}:K{cap}"
        count, points = sweep_points(dom, (), FAST.rng(label), 6)
        table = _outcome(verifier._table_sweep, cfg, cap, sem, count, points, check)
        _, points = sweep_points(dom, (), FAST.rng(label), 6)
        direct = _outcome(search, points, lambda pair: check(*pair))
        assert table == direct, (cfg.name, cap, sem)
        outcomes.add(direct if isinstance(direct, type) else direct[1] is not None)
    assert outcomes == {True, False, PoolClosureError}


def test_weighted_sweep_with_lead_vectors_outside_the_domain_searches_them():
    """The decider certifies pairs of vectors in X only. Encoded lead vectors
    outside X go to the normative check, which raises DomainError there."""
    cfg = SpaceConfig("max-strict-nonpos-graded-unit", "max", "strict", DomainX("nonpos", 2),
                      GRADED_UNIT, PropertySpace.abstract(2), levels=2)
    assert verifier.violation(cfg, 2, "strict") is None  # sound on (-inf, 0]
    assert encode_weighted(cfg, WeightedState(cfg.properties, (0, 0), 2)) == (F(1), F(1))
    with pytest.raises(DomainError):
        weighted_principle_sweep(cfg, FAST, 2, "strict")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("arity", [1, 2])
def test_sweep_points_counts_the_points_it_yields(n, arity):
    """The count sweep_points reports is the length of its stream, for lead
    and grid vectors present or not, grid values outside the domain, and
    random trials present or not."""
    domain = DomainX("nonneg", n)
    grids = [(F(-1), F(0), F(1, 2), F(3)), (F(-2), F(-1)), ()]  # in-domain: 3, 0, 0
    leads = [(), [(F(0),) * n, (F(1),) * n, (F(1, 2),) * n]]
    for grid, lead, trials in itertools.product(grids, leads, (0, 7)):
        count, points = sweep_points(domain, grid, FAST.rng("count"), trials, arity, lead)
        points = list(points)
        assert count == len(points), (grid, lead, trials)
        for point in points:
            assert len(point) == arity and all(len(v) == n for v in point), point


@pytest.mark.parametrize("n, arity", [(2, 2), (3, 1), (2, 3)])
def test_sweep_points_grid_part_is_the_nested_product_of_grid_vectors(n, arity):
    """Cutting one run of n * arity grid values into arity vectors gives the
    nested product of grid vectors, in order, after the lead tuples."""
    domain, grid = DomainX("nonneg", n), (F(-1), F(0), F(1, 2), F(3))
    lead = [(F(0),) * n, (F(1),) * n]
    _, points = sweep_points(domain, grid, FAST.rng("nested"), 0, arity, lead)
    grid_vectors = itertools.product((F(0), F(1, 2), F(3)), repeat=n)
    nested = itertools.chain(
        itertools.product(lead, repeat=arity), itertools.product(grid_vectors, repeat=arity)
    )
    assert list(points) == list(nested)


def test_certified_sweep_builds_no_grid_point():
    """At n = 9 the grid part has 7**18 points; a sweep the decider certifies
    counts them without building one."""
    config, plan = make_space("max-strict-reals", 9), TrialPlan(trials=10)
    tracemalloc.start()
    try:
        result = principle_sweep(config, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (7**18 + plan.trials, None)
    assert peak < 1 << 20


@pytest.fixture
def handed_streams(monkeypatch):
    """The point streams sweep_points hands the sweeps, as the sweeps leave them."""
    streams = []

    def recording(*args, **kwargs):
        count, points = sweep_points(*args, **kwargs)
        streams.append(points)
        return count, points

    monkeypatch.setattr(verifier, "sweep_points", recording)
    return streams


@pytest.mark.parametrize("name", [n for n in REGISTRY if make_space(n).principle_expected])
def test_principle_sweep_decided_by_its_table_counts_its_whole_stream(name, handed_streams):
    """At the default plan the decider finds no offending pair of cells in any
    verified space: the sweep leaves its stream undrawn, and the stream's
    length is the trial count."""
    plan = TrialPlan()
    trials, witness = principle_sweep(make_space(name, plan.dimension), plan)
    (points,) = handed_streams
    assert witness is None and trials == sum(1 for _ in points) > plan.trials


@pytest.mark.parametrize("semantics", ["strict", "weak"])
@pytest.mark.parametrize("name", ["weighted-max-reals", "weighted-had-unit"])
def test_weighted_sweep_decided_by_its_table_counts_its_whole_stream(
    name, semantics, handed_streams
):
    plan = TrialPlan()
    config = make_space(name, plan.dimension)
    trials, witness = weighted_principle_sweep(config, plan, config.levels, semantics)
    (points,) = handed_streams
    assert witness is None and trials == sum(1 for _ in points) > 0
