import pytest

from epipool.spaces import make_space, sound_space_names
from epipool.verifier import (
    DEFAULT_SEED,
    FALSIFY_REGISTRY,
    FALSIFIED,
    SKIPPED,
    VERIFIED,
    TrialPlan,
    falsify,
    formula_battery,
    logical_space,
    parse_seed,
    replay_witness,
    table_report,
    verify_entailment,
    verify_space,
    verify_weighted,
)

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


def test_fast_sweep_detects_violations_on_doomed_configs():
    """The table-driven sweep must find witnesses, not just confirm them."""
    from epipool.verifier import principle_sweep

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


def test_fast_sweep_agrees_with_normative_check_pairwise():
    """The sweep's own lookup tables classify every value pair as check_principle does."""
    from epipool.pooling import check_principle
    from epipool.spaces import DISC, REGISTRY
    from epipool.verifier import coordinate_tables, rational_pool

    names = [n for n in REGISTRY if make_space(n).family != DISC]
    assert len(names) == len(REGISTRY) - 1
    for name in names:
        cfg = make_space(name, 1)
        values, member, pooled = coordinate_tables(cfg, FAST.grid)
        grid = {x for x in FAST.grid if cfg.domain.contains_scalar(x)}
        assert values == tuple(sorted(grid | set(rational_pool(cfg.domain))))
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                fast_clean = (member[i] or member[j]) == pooled[i][j]
                assert fast_clean == (check_principle(cfg, (a,), (b,)) is None), (name, a, b)
