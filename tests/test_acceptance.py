"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines alongside the pytest result.  Every tolerance is pinned here;
"exact" means exact rational equality, never a float comparison.
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import world_oracle
from golden_report import GOLDEN_REPORT, report_changes
from epipool.decider import validate_config
from epipool.entailment import gamma_q, scorer_compatible
from epipool.epistemic import EpistemicState, PropertySpace, state_entails
from epipool.logic import AtomTable
from epipool.numeric import signum
from epipool.pooling import check_principle
from epipool.spaces import (
    COORDINATE,
    REGISTRY,
    ZERO_INDICATOR,
    DomainX,
    SpaceConfig,
    decode,
    encode,
    make_space,
    score_value,
    sound_space_names,
    vector,
)
from epipool.verifier import (
    FALSIFY_REGISTRY,
    TrialPlan,
    falsify,
    formula_battery,
    logical_space,
    oracle_equivalence_sweep,
    principle_sweep,
    rational_pool,
    replay_witness,
    roundtrip_sweep,
    weighted_principle_sweep,
    weighted_roundtrip_sweep,
)

F = Fraction

def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def test_c01_pooling_principle_exhaustive_suite():
    """Zero violations on the full grid-pair sweeps for n <= 3 plus 1e5
    random pairs at n = 3, for each shipped construction.  Tolerance: exact."""
    grid_only = TrialPlan(trials=0)
    plan = TrialPlan(trials=100_000)
    names = sound_space_names()
    assert len(names) == 9
    start = time.perf_counter()
    failures = []
    total = 0
    for name in names:
        for n in (1, 2):
            trials, witness = principle_sweep(make_space(name, n), grid_only)
            total += trials
            if witness is not None:
                failures.append((name, n, witness))
        trials, witness = principle_sweep(make_space(name, 3), plan)
        total += trials
        if witness is not None:
            failures.append((name, 3, witness))
    elapsed = time.perf_counter() - start
    verdict(
        "C1",
        not failures,
        f"pooling principle, 9 constructions, n <= 3, {total} pair checks, "
        f"{elapsed:.1f} s (target < 10 s); violations: {failures or 'none'}",
    )


def test_c02_realizability_roundtrip():
    """decode(encode(Q)) == Q for all 2^|P| states, |P| <= 4, every registry
    space.  Tolerance: exact."""
    start = time.perf_counter()
    failures = []
    checked = 0
    for name in REGISTRY:
        sizes = (2,) if name == "example1" else (1, 2, 3, 4)
        for size in sizes:
            trials, witness = roundtrip_sweep(make_space(name, size))
            checked += trials
            if witness is not None:
                failures.append((name, size, witness))
    elapsed = time.perf_counter() - start
    verdict(
        "C2",
        not failures,
        f"roundtrip over {checked} states across {len(REGISTRY)} spaces, "
        f"{elapsed:.2f} s (target < 1 s); failures: {failures or 'none'}",
    )


def test_c03_two_disc_demo_reproduction():
    """Signs and values of the two-disc demo; the far pair violates the
    principle.  Signs exact; float values within 1e-9."""
    cfg = make_space("example1")
    e = vector(["1/4", "0"])
    f = vector(["3/4", "1"])
    pooled = vector(["1/2", "1/2"])
    g = vector(["10", "10"])
    problems = []

    from epipool.spaces import gamma

    checks = [
        (gamma(cfg, 0, e), F(3, 4), 1),
        (gamma(cfg, 1, e), F(-1, 4), -1),
        (gamma(cfg, 0, f), F(-1, 4), -1),
        (gamma(cfg, 1, f), F(3, 4), 1),
    ]
    for score, expected_value, expected_sign in checks:
        if signum(score) != expected_sign:
            problems.append(f"sign {score} != {expected_sign}")
        if abs(float(score) - float(expected_value)) > 1e-9:
            problems.append(f"value {float(score)} != {expected_value}")
    irrational = 1 - 2 ** -0.5
    for prop in (0, 1):
        score = gamma(cfg, prop, pooled)
        if signum(score) != 1 or abs(float(score) - irrational) > 1e-9:
            problems.append(f"pooled score {float(score)}")

    if decode(cfg, e).members != frozenset({0}):
        problems.append("decode(e)")
    if decode(cfg, f).members != frozenset({1}):
        problems.append("decode(f)")
    if decode(cfg, pooled).members != frozenset({0, 1}):
        problems.append("decode(pooled)")
    if check_principle(cfg, e, f) is not None:
        problems.append("near pair should satisfy the principle")
    violation = check_principle(cfg, e, g)
    if violation is None or violation.prop != 0:
        problems.append("far pair should violate the principle at the first property")

    verdict("C3", not problems, f"two-disc demo reproduction; problems: {problems or 'none'}")


def test_c04_entailment_oracle_equivalence():
    """psi agrees with the brute-force oracle on all 16 two-atom states times
    the 60-formula battery, for every compatible (space, scorer) pair, and
    that oracle (state_entails, on truth-table masks) agrees with per-world
    evaluation on the same states and formulas.  Zero disagreements."""
    plan = TrialPlan()
    min_spaces = [
        n for n in sound_space_names() + ["avg-margin-nonneg", "avg-margin-unit"]
    ]
    pairs = [(name, "min") for name in min_spaces] + [
        ("max-weak-nonpos", "linear"),
        ("had-weak-nonneg", "linear"),
        ("max-weak-reals", "relu"),
        ("had-weak-reals", "squared"),
        ("avg-margin-nonneg", "margin-relu"),
        ("avg-margin-nonneg", "sigmoid"),
        ("avg-margin-unit", "margin-linear"),
    ]
    start = time.perf_counter()
    failures = []
    total = 0
    for name, scorer in pairs:
        cfg = logical_space(name)
        assert scorer_compatible(cfg, scorer) is None, (name, scorer)
        trials, witness = oracle_equivalence_sweep(cfg, scorer, plan)
        total += trials
        if witness is not None:
            failures.append((name, scorer, witness))
    atoms = AtomTable.of(("a", "b"))
    space = PropertySpace.logical(atoms)
    battery = formula_battery(plan)
    for bits in range(1 << space.size):
        state = EpistemicState(space, frozenset(i for i in range(space.size) if bits >> i & 1))
        for f in battery:
            if state_entails(state, f) != world_oracle.state_entails(state.members, f, atoms):
                failures.append(("state_entails", sorted(state.members), f))
    elapsed = time.perf_counter() - start
    verdict(
        "C4",
        not failures,
        f"oracle equivalence, {len(pairs)} (space, scorer) pairs, {total} queries, "
        f"{(1 << space.size) * len(battery)} per-world checks of the oracle, "
        f"{elapsed:.1f} s (target < 5 s); disagreements: {failures or 'none'}",
    )


def test_c05_margin_constructions_on_clear_cut_grids():
    """Margin scorers agree with the conjunction test on every clear-cut grid
    point for n <= 4 and every subset; sigmoid sign margins exceed 1e-6."""
    failures = []
    checked = 0
    for n in (1, 2, 3, 4):
        relu_cfg = make_space("avg-margin-nonneg", n, margin=1)
        lin_cfg = make_space(
            "avg-margin-unit", n, eps=F(1, 8) if n == 4 else F(1, 2 * n)
        )
        grids = [
            (relu_cfg, "margin-relu", (F(0), F(1), F(2))),
            (relu_cfg, "sigmoid", (F(0), F(1), F(2))),
            (lin_cfg, "margin-linear", (F(0), lin_cfg.margin, F(1))),
        ]
        for cfg, scorer, grid in grids:
            for v in itertools.product(grid, repeat=n):
                for bits in range(1 << n):
                    q = [i for i in range(n) if bits >> i & 1]
                    checked += 1
                    expected = all(v[i] > 0 for i in q)
                    score = gamma_q(cfg, scorer, q, v)
                    if scorer == "sigmoid" and q and abs(float(score)) <= 1e-6:
                        failures.append((scorer, n, v, q, "margin below 1e-6"))
                        continue
                    if (signum(score) > 0) != expected:
                        failures.append((scorer, n, v, q, "disagrees"))
    verdict(
        "C5",
        not failures,
        f"margin scorers on clear-cut grids, {checked} checks; failures: {failures or 'none'}",
    )


def test_c06_falsification_witnesses():
    """Each doomed candidate yields a witness within the default budget, and
    every witness replays exactly."""
    plan = TrialPlan()
    failures = []
    for name in sorted(FALSIFY_REGISTRY):
        witness = falsify(name, plan)
        if witness is None:
            failures.append((name, "no witness"))
        elif not replay_witness(witness):
            failures.append((name, "replay failed"))
    verdict(
        "C6",
        not failures,
        f"{len(FALSIFY_REGISTRY)} candidates falsified and replayed; failures: {failures or 'none'}",
    )


def test_c07_weighted_suite():
    """Weighted principle for the max construction, exhaustively over encoded
    pairs for |P| <= 3, K <= 3, plus 1e4 random pairs; the unit-interval
    construction on its grid for n <= 3; all roundtrips exact."""
    failures = []
    checked = 0
    for size in (1, 2, 3):
        for cap in (1, 2, 3):
            cfg = make_space("weighted-max-reals", size, levels=cap)
            trials, witness = weighted_roundtrip_sweep(cfg, cap)
            checked += trials
            if witness is not None:
                failures.append(("roundtrip", size, cap, witness))
            random_trials = 10_000 if (size, cap) == (3, 3) else 0
            plan = TrialPlan(trials=random_trials)
            for semantics in ("strict", "weak"):
                trials, witness = weighted_principle_sweep(cfg, plan, cap, semantics)
                checked += trials
                if witness is not None:
                    failures.append(("max", size, cap, semantics, witness))
    for size in (1, 2, 3):
        cfg = make_space("weighted-had-unit", size)
        trials, witness = weighted_roundtrip_sweep(cfg, 2)
        checked += trials
        if witness is not None:
            failures.append(("unit roundtrip", size, witness))
        for semantics in ("strict", "weak"):
            trials, witness = weighted_principle_sweep(
                cfg, TrialPlan(trials=0), 2, semantics
            )
            checked += trials
            if witness is not None:
                failures.append(("unit", size, semantics, witness))
    verdict(
        "C7",
        not failures,
        f"weighted suite, {checked} checks; failures: {failures or 'none'}",
    )


def test_c08_monotonicity_and_scaling_properties():
    """Max decoding grows with coordinatewise growth (1e4 seeded pairs);
    summation score signs are invariant under positive scaling (1e4 pairs)."""
    failures = []
    plan = TrialPlan()
    rng = plan.rng("downward-closure")
    for name in ("max-strict-reals", "max-weak-reals"):
        cfg = make_space(name, 3)
        pool_vals = rational_pool(cfg.domain)
        deltas = [x for x in pool_vals if x >= 0]
        for _ in range(5_000):
            u = tuple(rng.choice(pool_vals) for _ in range(3))
            v = tuple(a + rng.choice(deltas) for a in u)
            if not decode(cfg, u).members <= decode(cfg, v).members:
                failures.append((name, u, v))
    cfg = make_space("sum-strict-nonneg", 3)
    pool_vals = rational_pool(cfg.domain)
    scales = [F(1, 7), F(1, 2), F(2), F(9, 4), F(13)]
    rng = plan.rng("scaling")
    for _ in range(10_000):
        v = tuple(rng.choice(pool_vals) for _ in range(3))
        lam = rng.choice(scales)
        scaled = tuple(lam * x for x in v)
        for i in range(3):
            if signum(score_value(cfg, i, v)) != signum(score_value(cfg, i, scaled)):
                failures.append(("scaling", v, lam))
    verdict(
        "C8",
        not failures,
        f"downward closure (1e4 pairs) and scaling invariance (1e4 pairs); "
        f"failures: {failures or 'none'}",
    )


def test_c09_dimension_guards():
    """The validator rejects n < |P| everywhere and n < |P|*K for weighted
    average/summation/Hadamard, accepting both at equality."""
    failures = []
    for name in sound_space_names():
        small = validate_config(make_space(name, 4, n=3))
        exact = validate_config(make_space(name, 4))
        if not any(v.rule == "dimension" for v in small):
            failures.append((name, "small accepted"))
        if any(v.rule == "dimension" for v in exact):
            failures.append((name, "equality rejected"))
    for op in ("avg", "sum", "had"):
        family = COORDINATE if op != "had" else ZERO_INDICATOR
        for n, expect_reject in ((5, True), (6, False)):
            probe = SpaceConfig(
                "probe", op, "strict", DomainX("nonneg", n), family,
                PropertySpace.abstract(3), levels=2, principle_expected=False,
            )
            rejected = any(
                v.rule == "weighted-dimension" for v in validate_config(probe)
            )
            if rejected != expect_reject:
                failures.append((op, n, "weighted guard"))
    verdict("C9", not failures, f"dimension guards; failures: {failures or 'none'}")


def test_c10_report_determinism(subprocess_env):
    """Two CLI runs of `report --seed 0xEP00` emit byte-identical JSON, the
    golden report tests/golden/report.json; a mismatch names the cells that moved."""
    cmd = [sys.executable, "-m", "epipool.cli", "report", "--seed", "0xEP00"]
    first = subprocess.run(cmd, capture_output=True, timeout=300, env=subprocess_env)
    second = subprocess.run(cmd, capture_output=True, timeout=300, env=subprocess_env)
    changes = report_changes(GOLDEN_REPORT.read_bytes(), first.stdout)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and not changes
    )
    verdict(
        "C10",
        ok,
        f"report determinism: rc=({first.returncode},{second.returncode}), "
        f"{len(first.stdout)} bytes, identical={first.stdout == second.stdout}, "
        + (f"differs from the golden report:\n{changes}" if changes else "the golden report"),
    )
