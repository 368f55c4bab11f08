import itertools
from fractions import Fraction

import pytest

from epipool.entailment import (
    CLEAR_CUT_SCORERS,
    SCORERS,
    SIGMOID_OFFSET,
    ClearCutError,
    IncompatibleScorerError,
    gamma_q,
    psi,
    scorer_compatible,
    sigmoid,
    sigmoid_steepness,
    x_star_membership,
)
from epipool.epistemic import AbstractSpaceError, EpistemicState, kb_to_state
from epipool.logic import AtomTable, Const, parse_formula, parse_kb
from epipool.numeric import ScoreValue, is_square, signum
from epipool.pooling import pool
from epipool.spaces import (
    DISC,
    REGISTRY,
    DomainError,
    encode,
    gamma,
    make_space,
    member_sign,
    score_value,
    vector,
)
from epipool.verifier import VERIFIED, TrialPlan, logical_space, verify_entailment

F = Fraction
AB = AtomTable.of(("a", "b"))


def test_linear_sum_on_nonpos_max_space():
    cfg = make_space("max-weak-nonpos", 4)
    s = gamma_q(cfg, "linear", {0, 1}, vector(["0", "0", "-1", "-1"]))
    assert s == 0  # >= 0 means the pair of properties is satisfied


def test_linear_sum_on_nonneg_had_space():
    cfg = make_space("had-weak-nonneg", 4)
    s = gamma_q(cfg, "linear", {0, 1, 2}, vector(["0", "0", "1", "1"]))
    assert s == -1  # < 0: not all three satisfied


def test_empty_subset_scores_plus_one():
    for name, scorer in [
        ("avg-strict-nonneg", "min"),
        ("max-weak-nonpos", "linear"),
        ("avg-margin-nonneg", "margin-relu"),
    ]:
        cfg = make_space(name, 3)
        v = vector(["0", "0", "0"]) if name != "max-weak-nonpos" else vector(["0", "0", "0"])
        assert gamma_q(cfg, scorer, (), v) == 1


def test_min_score_conjunction_equivalence_on_grid():
    grid = [F(-2), F(-1), F(0), F(1, 2), F(2)]
    for name in REGISTRY:
        cfg = make_space(name, 2)
        pts = [
            p
            for p in itertools.product(grid, repeat=2)
            if all(cfg.domain.contains_scalar(x) for x in p)
        ]
        for v in pts:
            for q in ({0}, {1}, {0, 1}):
                expected = all(
                    member_sign(cfg.semantics, signum(score_value(cfg, i, v))) for i in q
                )
                s = gamma_q(cfg, "min", q, v)
                observed = (
                    signum(s) > 0 if cfg.semantics == "strict" else signum(s) >= 0
                )
                assert expected == observed, (name, v, q)


def test_min_score_works_on_the_disc_demo():
    cfg = make_space("example1")
    s = gamma_q(cfg, "min", {0, 1}, vector(["1/2", "1/2"]))
    assert signum(s) > 0
    s = gamma_q(cfg, "min", {0, 1}, vector(["1/4", "0"]))
    assert signum(s) < 0


PER_COORDINATE = [name for name in REGISTRY if make_space(name).family != DISC]


@pytest.mark.parametrize("name", [*PER_COORDINATE, "example1"])
def test_exact_scores_are_plain_rationals_and_only_floats_are_score_values(name):
    """gamma and every compatible gamma_q, at every encoded state and subset:
    a Fraction or an int, except the sigmoid's certified float. On the disc
    demo, gamma is a Fraction at a perfect-square distance to the property's
    centre (i, i) and a ScoreValue elsewhere, and min follows its parts."""
    config = make_space(name)
    size = config.size
    subsets = [q for r in range(size + 1) for q in itertools.combinations(range(size), r)]
    scorers = [scorer for scorer in SCORERS if scorer_compatible(config, scorer) is None]
    for members in subsets:
        v = encode(config, EpistemicState.of(config.properties, members))
        exact = []
        for i in range(size):
            s = gamma(config, i, v)
            if config.family == DISC:
                exact.append(is_square((v[0] - i) ** 2 + (v[1] - i) ** 2))
                assert type(s) is (Fraction if exact[-1] else ScoreValue), (v, i, s)
            else:
                assert type(s) in (Fraction, int), (name, v, i, s)
        for scorer, q in itertools.product(scorers, subsets):
            s = gamma_q(config, scorer, q, v)
            if config.family == DISC and q:
                floats = not all(exact[i] for i in q)
            else:
                floats = scorer == "sigmoid" and q != ()
            assert type(s) in ((ScoreValue,) if floats else (Fraction, int)), (scorer, v, q, s)


def test_min_score_checks_the_vector_once(monkeypatch):
    import epipool.spaces

    checks = []
    real = epipool.spaces.contains

    def counting(domain, v):
        checks.append(v)
        return real(domain, v)

    monkeypatch.setattr(epipool.spaces, "contains", counting)
    cfg = make_space("max-weak-nonpos", 8)
    v = encode(cfg, EpistemicState.of(cfg.properties, {1, 4}))
    assert gamma_q(cfg, "min", range(8), v) == -1
    assert len(checks) == 1  # not once more per property in Q


def test_incompatible_scorer_refused():
    cfg = make_space("avg-strict-nonneg", 4)
    with pytest.raises(IncompatibleScorerError):
        gamma_q(cfg, "linear", {0}, vector(["0", "0", "0", "0"]))
    assert scorer_compatible(cfg, "linear") is not None


def test_compatibility_matrix_spot_checks():
    assert scorer_compatible(make_space("max-weak-nonpos", 3), "linear") is None
    assert scorer_compatible(make_space("had-weak-nonneg", 3), "linear") is None
    assert scorer_compatible(make_space("max-weak-reals", 3), "relu") is None
    assert scorer_compatible(make_space("had-weak-reals", 3), "squared") is None
    assert scorer_compatible(make_space("avg-margin-nonneg", 3), "margin-relu") is None
    assert scorer_compatible(make_space("avg-margin-nonneg", 3), "sigmoid") is None
    assert scorer_compatible(make_space("avg-margin-unit", 3), "margin-linear") is None
    assert scorer_compatible(make_space("max-weak-reals", 3), "linear") is not None
    for name in ("max-strict-reals", "had-strict-reals"):
        assert scorer_compatible(make_space(name, 3), "min") is None


# --- psi -----------------------------------------------------------------


def pooled_encoding(cfg, *kb_texts):
    states = [kb_to_state(parse_kb(t)) for t in kb_texts]
    vs = [encode(cfg, EpistemicState(cfg.properties, s.members)) for s in states]
    out = vs[0]
    for v in vs[1:]:
        out = pool(cfg.operator, out, v)
    return out


def test_psi_linear_matches_oracle_on_pooled_kb():
    cfg = logical_space("max-weak-nonpos")
    v = pooled_encoding(cfg, "atoms: a b\na b\n", "atoms: a b\n-a b\n")
    assert psi(cfg, "linear", parse_formula("b", AB), v) is True
    assert psi(cfg, "linear", parse_formula("a", AB), v) is False


def test_psi_top_is_always_entailed():
    for name, scorer in [("max-weak-nonpos", "linear"), ("avg-strict-nonneg", "min")]:
        cfg = logical_space(name)
        v = encode(cfg, EpistemicState.of(cfg.properties, ()))
        assert psi(cfg, scorer, Const(True), v) is True


def test_psi_requires_logical_space():
    cfg = make_space("max-weak-nonpos", 4)
    with pytest.raises(AbstractSpaceError):
        psi(cfg, "linear", Const(True), vector(["0", "0", "0", "0"]))


# --- clear-cut machinery -----------------------------------------------------------------


def test_x_star_membership_examples():
    cfg = make_space("avg-margin-nonneg", 3, margin=1)
    assert x_star_membership(cfg, F(1), vector(["0", "1", "2"]))
    assert not x_star_membership(cfg, F(1), vector(["1/2", "0", "0"]))


def test_x_star_vacuous_on_zero_dimensions():
    cfg = make_space("avg-margin-nonneg", 0, margin=1)
    assert x_star_membership(cfg, F(1), ())


def test_margin_scorers_refuse_ambiguous_vectors():
    cfg = make_space("avg-margin-nonneg", 2, margin=1)
    with pytest.raises(ClearCutError):
        gamma_q(cfg, "margin-relu", {0}, vector(["1/2", "0"]))


def test_gamma_q_checks_the_scorer_domain_subset_indices_then_clear_cut():
    cfg = make_space("avg-margin-nonneg", 2, margin=1)
    ambiguous, outside = vector(["1/2", "0"]), vector(["-1", "1/2"])
    with pytest.raises(IncompatibleScorerError):
        gamma_q(cfg, "linear", [5], outside)
    with pytest.raises(DomainError):
        gamma_q(cfg, "margin-relu", [], outside)
    for scorer in CLEAR_CUT_SCORERS[:2]:
        # the conjunction over no property is vacuous, even on an ambiguous vector
        assert gamma_q(cfg, scorer, [], ambiguous) == F(1)
        with pytest.raises(IndexError):
            gamma_q(cfg, scorer, [0, 2], ambiguous)
        with pytest.raises(ClearCutError, match="ambiguous: n=2, coordinate 0 is 1/2,"):
            gamma_q(cfg, scorer, [1], ambiguous)


def test_psi_checks_in_gamma_q_order_after_the_property_space():
    cfg = logical_space("avg-margin-nonneg")
    ambiguous, outside = vector(["1/2", "0", "0", "0"]), vector(["-1", "0", "0", "0"])
    with pytest.raises(AbstractSpaceError):
        psi(make_space("avg-margin-nonneg", 4), "linear", Const(True), outside)
    with pytest.raises(IncompatibleScorerError):
        psi(cfg, "linear", Const(True), outside)
    with pytest.raises(DomainError):
        psi(cfg, "sigmoid", Const(True), outside)
    # a tautology has no countermodel, so the ambiguous vector is not refused
    assert psi(cfg, "sigmoid", Const(True), ambiguous) is True
    with pytest.raises(ClearCutError):
        psi(cfg, "sigmoid", Const(False), ambiguous)


def test_margin_relu_agrees_with_conjunction_on_clear_cut_grid():
    cfg = make_space("avg-margin-nonneg", 3, margin=1)
    for v in itertools.product((F(0), F(1), F(2)), repeat=3):
        for bits in range(8):
            q = [i for i in range(3) if bits >> i & 1]
            expected = all(v[i] > 0 for i in q)
            got = signum(gamma_q(cfg, "margin-relu", q, v)) > 0
            assert expected == got


def test_margin_linear_agrees_with_conjunction_on_clear_cut_grid():
    cfg = make_space("avg-margin-unit", 4, eps=F(1, 8))
    delta = cfg.margin
    for v in itertools.product((F(0), delta, F(1)), repeat=4):
        for bits in range(16):
            q = [i for i in range(4) if bits >> i & 1]
            expected = all(v[i] > 0 for i in q)
            got = signum(gamma_q(cfg, "margin-linear", q, v)) > 0
            assert expected == got


def test_sigmoid_parameters_satisfy_separation_conditions():
    # the bound sigmoid_steepness promises, so the verifier need not check it
    assert SIGMOID_OFFSET == F(1, 2)
    for n in range(1, 65):
        for margin in (F(1, 8), F(1, 2), F(1), F(3), F(10)):
            cfg = make_space("avg-margin-nonneg", n, margin=margin)
            half = float(sigmoid_steepness(cfg) * margin / 2)
            assert sigmoid(half) >= 0.5
            assert sigmoid(-half) < 0.5 / n, (n, margin)


def test_verify_entailment_adds_a_clear_cut_cell_exactly_for_the_clear_cut_scorers():
    with_cell = set()
    for name in REGISTRY:
        cfg = make_space(name, 2)
        for scorer in SCORERS:
            cells = verify_entailment(cfg, scorer, TrialPlan(trials=0)).cells
            if scorer_compatible(cfg, scorer) is not None:
                assert [c.cell for c in cells] == [f"entailment:{name}:{scorer}"]
                continue
            # an abstract property space runs no oracle sweep
            assert [c.cell for c in cells] == (
                [f"clear-cut:{name}:{scorer}"] if scorer in CLEAR_CUT_SCORERS else []
            )
            assert all(c.status == VERIFIED and c.note == "" for c in cells)
            if cells:
                with_cell.add(scorer)
    assert with_cell == set(CLEAR_CUT_SCORERS)


def test_sigmoid_agrees_and_margins_are_certifiable():
    cfg = make_space("avg-margin-nonneg", 4, margin=1)
    for v in itertools.product((F(0), F(1), F(2)), repeat=4):
        for bits in range(16):
            q = [i for i in range(4) if bits >> i & 1]
            if not q:
                continue
            expected = all(v[i] > 0 for i in q)
            s = gamma_q(cfg, "sigmoid", q, v)
            assert abs(float(s)) > 1e-6
            assert (signum(s) > 0) == expected
