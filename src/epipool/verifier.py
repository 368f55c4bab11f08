"""Exact, grid, random, and exhaustive verification of the result tables.

Possibility cells are verified constructively: the named construction's
pooling principle is checked over its domain, and its encoder is
round-tripped over whole state spaces. Impossibility cells cannot be
verified by search; for those the harness falsifies one natural candidate
construction per cell and reports the concrete witness, stating the
limitation rather than claiming a proof.

Every sweep is a stream of points and a check, driven by the one ``search``
loop, which counts trials and stops at the first witness. A pooling
sweep's points are every grid pair inside its domain plus a seeded batch
of random rational pairs. The plain and the weighted pooling-principle
sweeps (plain membership is certainty level 1) first put a per-coordinate
family with n >= |P| to the exact cell decider, ``decider.violation``: when
no pair of cells of X breaks the principle, no pair of vectors anywhere in
X can, so the sweep reports as its trials the number of points it would
check, and draws none. Only when the decider finds an offending pair of
cells does the normative check search the points; it makes every witness
and raises every domain or closure error. The disc demo is always searched.

A falsified cell carries a ``Witness``, the record ``pooling`` defines. Each
witness kind has one maker, a function of exactly the inputs the witness
records, and the sweeps build witnesses only through the makers.
``replay_witness`` calls the maker again on a witness's own inputs, so the
witness reproduces only when the remade one equals it in every field.

The formula sweeps score one vector against many subsets, so they check the
scorer once, each vector once, and score its subsets with the one kernel
``entailment.subset_scorer`` builds for it. A point's verdict reads the
formula only through its countermodels q, and a margin scorer reads the
vector only at q, so each sweep keys its points on what the verdict reads
and decides each distinct query once: ``_passed_once`` skips a point whose
key an earlier point passed with. Only passes are remembered, since the
first failure ends the search, so the trial count, the witness and any
error come from the same point as without the memo.

Everything here is a deterministic function of the plan seed: random
streams are derived from string-labelled child seeds, scan orders are
fixed (grid lexicographic, then random), and the JSON rendering of a
report contains no timings, so identical runs are byte-identical.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from .decider import validate_config, violation
from .entailment import (
    CLEAR_CUT_SCORERS,
    gamma_q,
    require_compatible,
    scorer_compatible,
    subset_scorer,
)
from .epistemic import EpistemicState, PropertySpace, state_entails
from .logic import (
    Atom,
    AtomTable,
    Const,
    Formula,
    Iff,
    Implies,
    And,
    Not,
    Or,
    countermodels,
)
from .numeric import format_rational, parse_rational, signum
from .pooling import Witness, check_principle, check_weighted_principle
from .record import Record
from .spaces import (
    COORDINATE,
    FAMILIES,
    ONE_MINUS_SQUARE,
    ZERO_INDICATOR,
    DomainX,
    SpaceConfig,
    Vector,
    decode,
    encode,
    format_vector,
    make_space,
    member_sign,
    require_in_domain,
)
from .weighted import WeightedState, decode_weighted, encode_weighted


def parse_seed(text: str) -> int:
    """Accept decimal, 0x hex, or 0x-prefixed base-36 tags like 0xEP00."""
    try:
        return int(text, 0)
    except ValueError:
        pass
    if text.lower().startswith("0x"):
        try:
            return int(text[2:], 36)
        except ValueError:
            pass
    raise ValueError(f"cannot parse seed: {text!r}")


DEFAULT_SEED = parse_seed("0xEP00")

DEFAULT_GRID: tuple[Fraction, ...] = tuple(
    parse_rational(s) for s in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")
)

UNIT_LEVEL_GRID: tuple[Fraction, ...] = tuple(
    parse_rational(s) for s in ("0", "1/4", "1/2", "3/4", "1")
)


class TrialPlan(Record):
    __slots__ = ("grid", "dimension", "trials", "seed")

    def __init__(
        self,
        grid: tuple[Fraction, ...] = DEFAULT_GRID,
        dimension: int = 3,
        trials: int = 10_000,
        seed: int = DEFAULT_SEED,
    ) -> None:
        if trials < 0:
            raise ValueError(f"trials must be at least 0, got {trials}")
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        super().__init__(grid, dimension, trials, seed)

    def rng(self, label: str) -> random.Random:
        """Deterministic child stream; label keeps streams independent."""
        return random.Random(f"{self.seed}:{label}")


VERIFIED = "verified-on-grid"
FALSIFIED = "falsified-with-witness"
SKIPPED = "skipped"


class ReportCell(Record):
    __slots__ = ("cell", "status", "trials", "expected_status", "witness", "note", "elapsed")

    def __init__(
        self,
        cell: str,
        status: str,
        trials: int = 0,
        expected_status: str | None = None,
        witness: Witness | None = None,
        note: str = "",
        elapsed: float = 0.0,  # wall-clock; deliberately absent from the JSON form
    ) -> None:
        super().__init__(cell, status, trials, expected_status, witness, note, elapsed)

    @property
    def as_expected(self) -> bool:
        return self.expected_status is None or self.status == self.expected_status

    def to_json(self, seed: int) -> dict:
        out: dict = {"cell": self.cell, "status": self.status, "trials": self.trials, "seed": seed}
        if self.expected_status is not None:
            out["expected_status"] = self.expected_status
            out["as_expected"] = self.as_expected
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.note:
            out["note"] = self.note
        return out


def _cell(
    cell: str,
    expected_status: str,
    sweep: Callable[..., tuple[int, Witness | None]] | None = None,
    *args,
    note: str = "",
) -> ReportCell:
    """Time sweep(*args) into a report cell; without a sweep, the cell is skipped."""
    if sweep is None:
        return ReportCell(cell, SKIPPED, expected_status=expected_status, note=note)
    clock = time.perf_counter
    start = clock()
    trials, witness = sweep(*args)
    status = FALSIFIED if witness else VERIFIED
    return ReportCell(cell, status, trials, expected_status, witness, note, clock() - start)


class Report(Record):
    __slots__ = ("plan", "cells")

    def __init__(self, plan: TrialPlan, cells: Iterable[ReportCell] = ()) -> None:
        super().__init__(plan, tuple(cells))

    def counts(self) -> dict[str, int]:
        out = {VERIFIED: 0, FALSIFIED: 0, SKIPPED: 0}
        for c in self.cells:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    @property
    def all_as_expected(self) -> bool:
        return all(c.as_expected for c in self.cells)

    def to_json(self) -> str:
        doc = {
            "seed": self.plan.seed,
            "plan": {
                "grid": [format_rational(g) for g in self.plan.grid],
                "dimension": self.plan.dimension,
                "trials": self.plan.trials,
            },
            "counts": self.counts(),
            "cells": [c.to_json(seed=self.plan.seed) for c in self.cells],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"seed {self.plan.seed}; {len(self.cells)} cells"]
        width = max((len(c.cell) for c in self.cells), default=0)
        for c in self.cells:
            mark = "ok " if c.as_expected else "?! "
            lines.append(
                f"  {mark}{c.cell:<{width}}  {c.status:<24} "
                f"trials={c.trials:<8} {c.elapsed * 1000:7.1f} ms"
                + (f"  [{c.note}]" if c.note else "")
            )
            if c.witness is not None:
                w = c.witness
                vecs = "; ".join(format_vector(v) for v in w.vectors)
                lines.append(
                    f"      witness: prop {w.prop}"
                    + (f" level {w.level}" if w.level is not None else "")
                    + f" at {vecs}: expected {w.expected}, observed {w.observed}"
                )
        counts = self.counts()
        lines.append(
            "  totals: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        return "\n".join(lines) + "\n"


# --- the search loop and its point streams -------------------------------------


def search(
    points: Iterable[Any], check: Callable[[Any], Witness | None]
) -> tuple[int, Witness | None]:
    """Check points in order; returns (trials run, first witness or None)."""
    trials = 0
    for point in points:
        trials += 1
        witness = check(point)
        if witness is not None:
            return trials, witness
    return trials, None


def _passed_once(
    key: Callable[[Any], Hashable], check: Callable[[Any], Witness | None]
) -> Callable[[Any], Witness | None]:
    """check, skipping any point whose key an earlier point passed with.

    The caller keys a point on everything its verdict reads. A point that
    fails or raises ends the search, so only passes are remembered; the
    memo lives as long as the returned check, one sweep.
    """
    passed: set[Hashable] = set()

    def check_once(point: Any) -> Witness | None:
        k = key(point)
        if k in passed:
            return None
        witness = check(point)
        if witness is None:
            passed.add(k)
        return witness

    return check_once


@functools.cache
def rational_pool(domain: DomainX) -> tuple[Fraction, ...]:
    """Small-denominator rationals inside the domain, covering boundaries."""
    base = sorted({Fraction(n, d) for d in (1, 2, 3, 4) for n in range(-8, 9)})
    return tuple(x for x in base if domain.contains_scalar(x))


def sweep_points(
    domain: DomainX,
    grid: Iterable[Fraction],
    rng: random.Random,
    trials: int,
    arity: int = 2,
    lead: Sequence[Vector] = (),
) -> tuple[int, Iterator[tuple[Vector, ...]]]:
    """The number of a sweep's points, and the points as arity-tuples of vectors.

    The points are every arity-tuple of the lead vectors, then of the
    in-domain grid vectors in lexicographic grid order, then trials random
    ones drawn u before w, whose coordinates are
    rational_pool[int(random() * len(rational_pool))]. No grid point is
    built before it is drawn, so a stream left undrawn costs nothing.
    """
    n = domain.n
    pool = rational_pool(domain)
    grid_vals = [x for x in grid if domain.contains_scalar(x)]
    grid_points = (  # each run of n * arity grid values, cut into arity vectors
        tuple(p[i * n:i * n + n] for i in range(arity))
        for p in itertools.product(grid_vals, repeat=n * arity)
    )
    draws = map(int, map(float(len(pool)).__mul__, iter(rng.random, None)))
    coordinates = map(pool.__getitem__, draws)
    random_vectors = (tuple(itertools.islice(coordinates, n)) for _ in itertools.count())
    points = itertools.chain(
        itertools.product(lead, repeat=arity),
        grid_points,
        (tuple(itertools.islice(random_vectors, arity)) for _ in range(trials)),
    )
    count = len(lead) ** arity + len(grid_vals) ** (n * arity) + trials
    return count, points


# --- pooling-principle sweeps ---------------------------------------------------


def _table_sweep(
    config: SpaceConfig,
    cap: int,
    semantics: str,
    count: int,
    points: Iterable[tuple[Vector, Vector]],
    check: Callable[[Vector, Vector], Witness | None],
) -> tuple[int, Witness | None]:
    """search over count pairs of vectors, unless the cell decider
    certifies every pair first.

    For a per-coordinate family with n >= |P|, a coordinate that carries a
    property must keep the principle at cap, and one past |P| only closure,
    which the decider checks in its first level cut at every cap. When the
    decider finds no offending pair of cells, the sweep returns
    (count, None) without drawing its points. Otherwise check(v, w) runs on
    every point in order, so the witness, or the domain or closure error, is
    the normative one.
    """
    if config.family in FAMILIES and config.n >= config.size:
        if violation(config, cap, semantics) is None:
            return count, None
    return search(points, lambda pair: check(*pair))


def _sweep_direct(
    config: SpaceConfig, plan: TrialPlan, label: str
) -> tuple[int, Witness | None]:
    """Plain check_principle sweep; label names the random stream."""
    _, points = sweep_points(config.domain, plan.grid, plan.rng(label), plan.trials)
    return search(points, lambda pair: check_principle(config, *pair))


def principle_sweep(config: SpaceConfig, plan: TrialPlan) -> tuple[int, Witness | None]:
    """The points of _sweep_direct, certified by the cell decider where it can."""
    rng = plan.rng(f"pooling:{config.name}")
    count, points = sweep_points(config.domain, plan.grid, rng, plan.trials)
    check = functools.partial(check_principle, config)
    return _table_sweep(config, 1, config.semantics, count, points, check)


def roundtrip_sweep(config: SpaceConfig) -> tuple[int, Witness | None]:
    """decode(encode(Q)) == Q over all 2^|P| states, smallest first.

    A per-coordinate family writes and reads each coordinate on its own, and
    pads with the non-member value, so {} and {0}, the first two states, hold
    every value it writes and decide every state; a pass counts all 2^|P|.
    The disc enumerates its four states.
    """
    size = config.size
    subsets: Iterable[frozenset[int]] = (
        frozenset(c) for r in range(size + 1) for c in itertools.combinations(range(size), r)
    )
    if config.family in FAMILIES:
        subsets = itertools.islice(subsets, 2)

    def check(members: frozenset[int]) -> Witness | None:
        v = encode(config, EpistemicState(config.properties, members))
        lost = decode(config, v).members ^ members
        if not lost:
            return None
        prop = min(lost)
        return _decode_mismatch(config, v, prop, prop in members)

    trials, witness = search(subsets, check)
    return (trials if witness else 2**size), witness


def _require_prop(config: SpaceConfig, prop: int) -> None:
    if not 0 <= prop < config.size:
        raise IndexError(f"property {prop} is outside 0..{config.size - 1}")


def _decode_mismatch(config: SpaceConfig, v: Vector, prop: int, expected: bool) -> Witness | None:
    """The witness when decoding v in the space's semantics has prop or
    lacks it other than expected, the membership of the state encoded as v."""
    _require_prop(config, prop)
    observed = prop in decode(config, v).members
    if observed == expected:
        return None
    return Witness(config.name, "roundtrip", config.semantics, (v,), prop, expected, observed)


def verify_space(config: SpaceConfig, plan: TrialPlan | None = None) -> Report:
    """Pooling-principle sweep plus encoder roundtrip for one space."""
    plan = plan or TrialPlan()
    expected = VERIFIED if config.principle_expected else FALSIFIED
    pooling = _cell(f"pooling:{config.name}", expected, principle_sweep, config, plan)
    roundtrip = _cell(f"roundtrip:{config.name}", VERIFIED, roundtrip_sweep, config)
    return Report(plan, [pooling, roundtrip])


# --- weighted sweeps ------------------------------------------------------------


def weighted_roundtrip_sweep(config: SpaceConfig, cap: int) -> tuple[int, Witness | None]:
    """Levels decode as encoded, in both semantics, over all (K+1)^|P| level
    vectors in lexicographic order.

    A per-coordinate family writes and reads each coordinate on its own, and
    pads with the level-0 value, so (0, ..., 0, l) for l = 0..K, the first
    K + 1 level vectors, decide every one; a pass counts all (K+1)^|P|.
    """
    points: Iterable[tuple[int, ...]] = itertools.product(range(cap + 1), repeat=config.size)
    if config.family in FAMILIES:
        points = itertools.islice(points, cap + 1)

    def check(levels: tuple[int, ...]) -> Witness | None:
        v = encode_weighted(config, WeightedState(config.properties, levels, cap))
        for semantics in ("strict", "weak"):
            got = decode_weighted(config, v, semantics=semantics, cap=cap)
            if got.levels != levels:
                prop = next(i for i, (x, y) in enumerate(zip(levels, got.levels)) if x != y)
                return _level_mismatch(config, cap, v, prop, levels[prop], semantics)
        return None

    trials, witness = search(points, check)
    return (trials if witness else (cap + 1) ** config.size), witness


def _level_mismatch(
    config: SpaceConfig, cap: int, v: Vector, prop: int, level: int, semantics: str
) -> Witness | None:
    """The witness when v, encoded with certainty level `level` at prop,
    decodes at semantics to another level there."""
    _require_prop(config, prop)
    if level not in range(cap + 1):
        raise ValueError(f"level {level} is outside 0..{cap}")
    if decode_weighted(config, v, semantics=semantics, cap=cap).levels[prop] == level:
        return None
    return Witness(config.name, "weighted", semantics, (v,), prop, True, False, level=level)


def weighted_principle_sweep(
    config: SpaceConfig,
    plan: TrialPlan,
    cap: int,
    semantics: str,
) -> tuple[int, Witness | None]:
    """Encoded pairs, then a grid (unit domains) or random pairs (real domains)."""
    if cap < 1:
        raise ValueError("level cap must be >= 1")
    encoded: list[Vector] = []
    if config.size <= 3 and (cap + 1) ** config.size <= 64:
        encoded = [
            encode_weighted(config, WeightedState(config.properties, levels, cap))
            for levels in itertools.product(range(cap + 1), repeat=config.size)
        ]
    grid, trials = (UNIT_LEVEL_GRID, 0) if config.domain.kind == "unit" else ((), plan.trials)
    rng = plan.rng(f"weighted:{config.name}:{semantics}")
    count, points = sweep_points(config.domain, grid, rng, trials, lead=encoded)
    check = functools.partial(check_weighted_principle, config, cap, semantics=semantics)
    if not all(map(config.domain.contains_scalar, itertools.chain(*encoded))):
        # the decider covers pairs in X only; the check raises the DomainError
        return search(points, lambda pair: check(*pair))
    return _table_sweep(config, cap, semantics, count, points, check)


def verify_weighted(config: SpaceConfig, plan: TrialPlan | None = None) -> Report:
    plan = plan or TrialPlan()
    cap = config.levels
    if cap is None:
        raise ValueError(f"{config.name} has no level cap configured")
    name = f"{config.name}:K{cap}"
    cells = [_cell(f"weighted-roundtrip:{name}", VERIFIED, weighted_roundtrip_sweep, config, cap)]
    for sem in ("strict", "weak"):
        cell = f"weighted-principle:{name}:{sem}"
        cells.append(_cell(cell, VERIFIED, weighted_principle_sweep, config, plan, cap, sem))
    return Report(plan, cells)


# --- entailment sweeps ------------------------------------------------------------


_TWO_ATOMS = AtomTable.of(("a", "b"))


def two_atom_clauses() -> list[Formula]:
    a, b = Atom("a"), Atom("b")
    return [a, b, Not(a), Not(b)] + [Or(x, y) for x in (a, Not(a)) for y in (b, Not(b))]


def random_formula(rng: random.Random, names: Sequence[str], depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.08:
            return Const(True)
        if r < 0.16:
            return Const(False)
        return Atom(rng.choice(list(names)))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return (And, Or, Implies, Iff)[kind - 1](left, right)


def formula_battery(plan: TrialPlan) -> list[Formula]:
    rng = plan.rng("formulas")
    battery = two_atom_clauses() + [Const(True), Const(False)]
    battery.extend(random_formula(rng, _TWO_ATOMS.names, 3) for _ in range(50))
    return battery


def logical_space(name: str) -> SpaceConfig:
    """The registry space name over the 4 worlds of the atoms a and b."""
    return make_space(name, properties=PropertySpace.logical(_TWO_ATOMS))


def _subset_mismatch(
    candidate: str, config: SpaceConfig, v: Vector, q: tuple[int, ...], sign: int,
    members: frozenset[int],
) -> Witness | None:
    """The witness when the subset score's sign at v disagrees with whether
    members, the state v encodes, has every property in q; prop is the first
    property of q that members lacks, or min(q) if it has them all."""
    sem = config.semantics
    lacking = [i for i in q if i not in members]
    expected, observed = not lacking, member_sign(sem, sign)
    if expected == observed:
        return None
    prop = lacking[0] if lacking else min(q)
    return Witness(candidate, "subset-score", sem, (v,), prop, expected, observed, q=q)


def oracle_equivalence_sweep(
    config: SpaceConfig, scorer: str, plan: TrialPlan
) -> tuple[int, Witness | None]:
    """psi against the brute-force oracle, all states x the formula battery.

    psi's checks run once per sweep (the scorer) or once per state (the
    domain, and the clear-cut test inside the state's kernel); each formula
    is then one kernel call on its countermodels. Both sides read a formula
    only through its countermodels, so each (state, countermodels) pair is
    decided once.
    """
    atoms = config.properties.atoms
    if atoms is None:
        raise ValueError("oracle sweep needs a logical property space")
    require_compatible(config, scorer)
    formulas = formula_battery(plan)
    # a mismatch on formula f is reported with q = the countermodels of f
    battery = [(f, tuple(countermodels(f, atoms))) for f in formulas]
    size, sem, candidate = config.size, config.semantics, f"{config.name}+{scorer}"
    Point = tuple[int, EpistemicState, Vector, Callable, Formula, tuple[int, ...]]

    def points() -> Iterator[Point]:
        for bits in range(1 << size):
            members = frozenset(i for i in range(size) if bits >> i & 1)
            state = EpistemicState(config.properties, members)
            v = encode(config, state)
            require_in_domain(config, v)
            score = subset_scorer(config, scorer, v)
            for f, q in battery:
                yield bits, state, v, score, f, q

    def check(point: Point) -> Witness | None:
        _, state, v, score, f, q = point
        sign = signum(score(q)) if q else 1  # psi's; the empty subset scores +1
        if state_entails(state, f) == member_sign(sem, sign):
            return None
        return _subset_mismatch(candidate, config, v, q, sign, state.members)

    return search(points(), _passed_once(lambda point: (point[0], point[-1]), check))


def clear_cut_grid_sweep(
    config: SpaceConfig, scorer: str
) -> tuple[int, Witness | None]:
    """Margin scorers against the conjunction test on the clear-cut grid:
    one kernel per clear-cut grid vector scores every subset of properties.

    Both sides read the vector only at q, so each subset q and choice of
    grid cells at q is decided once; the key holds the cells' indices.
    """
    assert config.margin is not None
    require_compatible(config, scorer)
    delta = config.margin
    if config.domain.kind == "unit":
        grid_vals: tuple[Fraction, ...] = (Fraction(0), delta, Fraction(1))
    else:
        grid_vals = (Fraction(0), delta, 2 * delta)
    grid_vals = tuple(sorted(set(grid_vals)))
    size, candidate = config.size, f"{config.name}+{scorer}"
    subsets = [tuple(i for i in range(size) if bits >> i & 1) for bits in range(1 << size)]
    Point = tuple[tuple[int, ...], Vector, frozenset[int], Callable, tuple[int, ...]]

    def points() -> Iterator[Point]:
        for cells in itertools.product(range(len(grid_vals)), repeat=config.n):
            v = tuple(map(grid_vals.__getitem__, cells))
            members = decode(config, v).members
            # the clear-cut test raises on no grid vector: no grid value lies in (0, delta)
            score = subset_scorer(config, scorer, v)
            for q in subsets:
                yield cells, v, members, score, q

    def key(point: Point) -> tuple[tuple[int, ...], tuple[int, ...]]:
        cells, _, _, _, q = point
        return q, tuple(map(cells.__getitem__, q))

    def check(point: Point) -> Witness | None:
        _, v, members, score, q = point
        sign = signum(score(q)) if q else 1  # gamma_q's; the empty subset scores +1
        return _subset_mismatch(candidate, config, v, q, sign, members)

    return search(points(), _passed_once(key, check))


def verify_entailment(
    config: SpaceConfig, scorer: str, plan: TrialPlan | None = None
) -> Report:
    plan = plan or TrialPlan()
    name = f"{config.name}:{scorer}"
    reason = scorer_compatible(config, scorer)
    if reason is not None:
        return Report(plan, [_cell(f"entailment:{name}", SKIPPED, note=reason)])

    cells = []
    if config.properties.atoms is not None:
        oracle = oracle_equivalence_sweep
        cells.append(_cell(f"entailment:{name}", VERIFIED, oracle, config, scorer, plan))
    if scorer in CLEAR_CUT_SCORERS:
        cells.append(_cell(f"clear-cut:{name}", VERIFIED, clear_cut_grid_sweep, config, scorer))
    return Report(plan, cells)


# --- falsification candidates ---------------------------------------------------


class Candidate(Record):
    """A doomed configuration; a subset-score candidate also carries the
    score that claims to decide the conjunction of properties 0 and 1."""

    __slots__ = ("summary", "config", "score")
    summary: str
    config: SpaceConfig
    score: Callable[[Vector], Fraction] | None


def _doomed_space(
    name: str, operator: str, semantics: str, domain: DomainX, family: str
) -> SpaceConfig:
    return SpaceConfig(
        name,
        operator,
        semantics,
        domain,
        family,
        PropertySpace.abstract(2),
        principle_expected=False,
    )


# (name, operator, semantics, domain, family, summary, subset score); a
# candidate without a subset score is refuted through the pooling principle
FALSIFY_REGISTRY: dict[str, Candidate] = {
    name: Candidate(summary, _doomed_space(name, op, sem, dom, family), score)
    for name, op, sem, dom, family, summary, score in (
        ("avg-strict-reals-coordinate", "avg", "strict", DomainX("reals", 2), COORDINATE,
         "average pooling with coordinate scores on all of R^n (strict)", None),
        ("avg-weak-reals-coordinate", "avg", "weak", DomainX("reals", 2), COORDINATE,
         "average pooling with coordinate scores on all of R^n (weak)", None),
        ("sum-weak-reals-coordinate", "sum", "weak", DomainX("reals", 2), COORDINATE,
         "summation pooling with coordinate scores on all of R^n (weak)", None),
        ("had-strict-reals-oneMinusSquare", "had", "strict", DomainX("reals", 2), ONE_MINUS_SQUARE,
         "Hadamard pooling with continuous band scores 1 - e_i^2 (strict)", None),
        ("strict-linear-gammaQ-affine", "avg", "strict", DomainX("nonneg", 2), COORDINATE,
         "affine subset score e_0 + e_1 - 1 under strict semantics",
         lambda v: v[0] + v[1] - 1),
        ("max-weak-reals-linear-gammaQ", "max", "weak", DomainX("reals", 2), COORDINATE,
         "linear subset score e_0 + e_1 for weak max pooling on R^n",
         lambda v: v[0] + v[1]),
    )
}


def _candidate_mismatch(cand: Candidate, v: Vector) -> Witness | None:
    assert cand.score is not None
    members, s = decode(cand.config, v).members, cand.score(v)
    return _subset_mismatch(cand.config.name, cand.config, v, (0, 1), signum(s), members)


def falsify_counted(
    candidate: str, plan: TrialPlan | None = None
) -> tuple[int, Witness | None]:
    """Deterministic grid-then-random search; returns (trials run, witness)."""
    plan = plan or TrialPlan()
    try:
        cand = FALSIFY_REGISTRY[candidate]
    except KeyError:
        raise KeyError(
            f"unknown candidate {candidate!r}; known: "
            + ", ".join(sorted(FALSIFY_REGISTRY))
        ) from None
    label = f"falsify:{cand.config.name}"
    if cand.score is None:
        return _sweep_direct(cand.config, plan, label)
    _, points = sweep_points(cand.config.domain, plan.grid, plan.rng(label), plan.trials, 1)
    return search(points, lambda point: _candidate_mismatch(cand, *point))


def falsify(candidate: str, plan: TrialPlan | None = None) -> Witness | None:
    return falsify_counted(candidate, plan)[1]


def replay_witness(witness: Witness) -> bool:
    """Re-run the maker of a witness on its own inputs; True when it makes
    the same witness, every field equal.

    A witness whose fields do not have the types the makers take, that
    names an unknown space, or whose vectors do not fit the space or the
    witness kind, does not reproduce: False, not an error.
    """
    if not _well_typed(witness):
        return False
    try:
        return _remake(witness) == witness
    except (KeyError, ValueError, IndexError, ArithmeticError):
        return False


def _well_typed(w: Witness) -> bool:
    """Each field of w has the type its maker gives it; a bool is not an int."""
    vectors = w.vectors if isinstance(w.vectors, tuple) else (None,)
    return (
        all(isinstance(x, str) for x in (w.candidate, w.kind, w.semantics))
        and all(isinstance(v, tuple) for v in vectors)
        and all(type(x) in (int, Fraction) for v in vectors for x in v)
        and type(w.prop) is int
        and isinstance(w.expected, bool)
        and isinstance(w.observed, bool)
        and (w.level is None or type(w.level) is int)
        and (w.q is None or isinstance(w.q, tuple) and all(type(i) is int for i in w.q))
    )


def _remake(w: Witness) -> Witness | None:
    """What the maker of w's kind makes from the inputs w records."""
    cand = FALSIFY_REGISTRY.get(w.candidate)
    space, _, scorer = w.candidate.partition("+")
    config = cand.config if cand else make_space(space, size=len(w.vectors[0]))
    for v in w.vectors:
        require_in_domain(config, v)
    if w.kind == "pooling":
        v, u = w.vectors
        return check_principle(config, v, u)
    if w.kind == "weighted" and len(w.vectors) == 2:
        v, u = w.vectors
        return check_weighted_principle(config, config.levels or 1, v, u, w.semantics)
    (v,) = w.vectors
    if w.kind == "weighted":
        return _level_mismatch(config, config.levels or 1, v, w.prop, w.level, w.semantics)
    if w.kind == "roundtrip":
        return _decode_mismatch(config, v, w.prop, w.expected)
    if w.kind != "subset-score":
        return None
    if cand and cand.score:
        return _candidate_mismatch(cand, v)
    q = w.q or ()
    sign = signum(gamma_q(config, scorer, q, v))
    return _subset_mismatch(w.candidate, config, v, q, sign, decode(config, v).members)


# --- the consolidated table report ---------------------------------------------


_CONTINUOUS = "coordinate scores are continuous"
_WHOLE_SPACE = "the construction already lives on all of R^n"
_NATURAL = "natural continuous candidate"
_NEG_SQUARE = "negated-square scores are continuous"
_NO_SUM_CANDIDATE = "no registry candidate; summation on R^n shares the averaging obstruction"
_NO_SUM_WEAK = "no registry construction; the step-score workaround is exercised for averaging"
_STRICT_LINEAR = "the strict-semantics obstruction is operator-independent"
_WEAK_LINEAR = "weak averaging/summation admit no continuous scores at all"
_PARALLEL = "no registry candidate; the bounding hyperplanes cannot be parallel"
_REFUTED = "impossibility itself is out of mechanised scope; one natural candidate is refuted"

# (cell, kind, target, note); table_report describes the kinds.
TABLE_ROWS: tuple[tuple[str | None, str, Any, str], ...] = (
    ("realizability:avg:strict:construction", "sweep", "avg-strict-nonneg", ""),
    ("realizability:avg:strict:unrestricted-domain", "falsify", "avg-strict-reals-coordinate", ""),
    ("realizability:avg:strict:continuous-scores", "sweep", "avg-strict-nonneg", _CONTINUOUS),
    ("realizability:avg:weak:construction", "sweep", "avg-weak-nonneg-step", ""),
    ("realizability:avg:weak:unrestricted-domain", "falsify", "avg-weak-reals-coordinate", ""),
    ("realizability:avg:weak:continuous-scores", "falsify", "avg-weak-reals-coordinate", _NATURAL),
    ("realizability:sum:strict:construction", "sweep", "sum-strict-nonneg", ""),
    ("realizability:sum:strict:unrestricted-domain", "skip", None, _NO_SUM_CANDIDATE),
    ("realizability:sum:strict:continuous-scores", "sweep", "sum-strict-nonneg", _CONTINUOUS),
    ("realizability:sum:weak:construction", "skip", None, _NO_SUM_WEAK),
    ("realizability:sum:weak:unrestricted-domain", "falsify", "sum-weak-reals-coordinate", ""),
    ("realizability:sum:weak:continuous-scores", "falsify", "sum-weak-reals-coordinate", _NATURAL),
    ("realizability:max:strict:construction", "sweep", "max-strict-reals", ""),
    ("realizability:max:strict:unrestricted-domain", "sweep", "max-strict-reals", _WHOLE_SPACE),
    ("realizability:max:strict:continuous-scores", "sweep", "max-strict-reals", _CONTINUOUS),
    ("realizability:max:weak:construction", "sweep", "max-weak-reals", ""),
    ("realizability:max:weak:unrestricted-domain", "sweep", "max-weak-reals", _WHOLE_SPACE),
    ("realizability:max:weak:continuous-scores", "sweep", "max-weak-reals", _CONTINUOUS),
    ("realizability:had:strict:construction", "sweep", "had-strict-reals", ""),
    ("realizability:had:strict:unrestricted-domain", "sweep", "had-strict-reals", _WHOLE_SPACE),
    ("realizability:had:strict:continuous-scores", "falsify", "had-strict-reals-oneMinusSquare", ""),
    ("realizability:had:weak:construction", "sweep", "had-weak-reals", ""),
    ("realizability:had:weak:unrestricted-domain", "sweep", "had-weak-reals", _WHOLE_SPACE),
    ("realizability:had:weak:continuous-scores", "sweep", "had-weak-reals", _NEG_SQUARE),
    ("demo:example1", "demo", "example1", "two-disc demo; failure is the expected outcome"),
    *(
        (f"linear-scorers:{at}:strict", "falsify", "strict-linear-gammaQ-affine", _STRICT_LINEAR)
        for at in ("avg", "sum", "max:reals", "max:bounded-above", "had:reals", "had:nonneg")
    ),
    ("linear-scorers:avg:weak", "skip", None, _WEAK_LINEAR),
    ("linear-scorers:sum:weak", "skip", None, _WEAK_LINEAR),
    ("linear-scorers:max:reals:weak", "falsify", "max-weak-reals-linear-gammaQ", ""),
    ("linear-scorers:had:reals:weak", "skip", None, _PARALLEL),
    ("linear-scorers:max:bounded-above:weak", "entailment", ("max-weak-nonpos", "linear"), ""),
    ("linear-scorers:had:nonneg:weak", "entailment", ("had-weak-nonneg", "linear"), ""),
    (None, "entailment", ("avg-margin-nonneg", "margin-relu"), ""),
    (None, "entailment", ("avg-margin-nonneg", "sigmoid"), ""),
    (None, "entailment", ("avg-margin-unit", "margin-linear"), ""),
    *(
        (f"weighted:{op}:{sem}:n-equals-P", "validator", (op, sem), "")
        for op in ("avg", "sum", "had")
        for sem in ("strict", "weak")
    ),
    (None, "weighted", "weighted-max-reals", ""),
    (None, "weighted", "weighted-had-unit", "cap-2 exception on [0,1]^n"),
)


def _joined(*notes: str) -> str:
    return "; ".join(note for note in notes if note)


def _validator_note(operator: str, semantics: str) -> str:
    """What validate_config says about a weighted space with n = |P|."""
    family = COORDINATE if operator != "had" else ZERO_INDICATOR
    probe = _doomed_space(
        f"weighted-{operator}-probe", operator, semantics, DomainX("nonneg", 2), family
    )
    violations = validate_config(probe.replace(levels=2))
    dim = next((v.message for v in violations if v.rule == "weighted-dimension"), None)
    note = dim or "; ".join(v.message for v in violations) or "no violation raised"
    return f"configuration validator rejects n=|P|: {note}"


def table_report(plan: TrialPlan | None = None) -> Report:
    """Machine-check every cell of the three result tables.

    Possible cells run the matching construction sweep; impossible cells
    refute their registry candidate or cite the configuration validator.
    Row kinds: sweep (principle_sweep, run once per space), demo (the same,
    expected to fail), falsify, skip, validator, and entailment and weighted,
    whose cells are renamed to the row's cell if set and get its note appended.
    """
    plan = plan or TrialPlan()
    cells: list[ReportCell] = []
    swept: dict[str, ReportCell] = {}
    for cell, kind, target, note in TABLE_ROWS:
        if kind == "sweep":
            if target not in swept:
                config = make_space(target, plan.dimension)
                swept[target] = _cell(cell, VERIFIED, principle_sweep, config, plan)
            note = note or f"construction {target}"
            cells.append(swept[target].replace(cell=cell, note=note))
        elif kind == "demo":
            cells.append(_cell(cell, FALSIFIED, principle_sweep, make_space(target), plan, note=note))
        elif kind == "falsify":
            note = _joined(note, _REFUTED)
            cells.append(_cell(cell, FALSIFIED, falsify_counted, target, plan, note=note))
        elif kind == "skip":
            cells.append(_cell(cell, SKIPPED, note=note))
        elif kind == "validator":
            cells.append(_cell(cell, SKIPPED, note=_validator_note(*target)))
        else:
            if kind == "entailment":
                space, scorer = target
                sub = verify_entailment(logical_space(space), scorer, plan)
            else:
                sub = verify_weighted(make_space(target, plan.dimension), plan)
            cells.extend(
                c.replace(cell=cell or c.cell, note=_joined(c.note, note)) for c in sub.cells
            )
    return Report(plan, cells)
