"""Seeded inputs for the workloads: knowledge bases, formulas and CLI scripts.

Every input comes from the benchmark's own random stream and reaches epipool
as text, so a change to the program cannot change what the benchmark asks of
it (``epipool.verifier.random_formula`` is deliberately not used).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ATOM_NAMES = "abcdefghijkl"

# (space, scorer) pairs the kb-queries and cli-session workloads query through.
# Each scorer is the one the paper pairs with that space; ``min`` works on all.
LOGICAL_SPACES = (
    ("max-weak-nonpos", "linear"),
    ("had-weak-nonneg", "linear"),
    ("max-weak-reals", "relu"),
    ("had-weak-reals", "squared"),
)

FALSIFY_CANDIDATES = (
    "avg-strict-reals-coordinate",
    "avg-weak-reals-coordinate",
    "sum-weak-reals-coordinate",
    "had-strict-reals-oneMinusSquare",
    "strict-linear-gammaQ-affine",
    "max-weak-reals-linear-gammaQ",
)

# verify exits 1 on the two-disc demo (the principle fails there on purpose)
# and 0 on the sound constructions.
VERIFY_SPACES = (
    ("example1", 1),
    ("max-weak-nonpos", 0),
    ("had-weak-reals", 0),
    ("avg-strict-nonneg", 0),
)


def stream(seed: int, label: str) -> random.Random:
    """Independent deterministic stream per (seed, label)."""
    return random.Random(f"perfbench:{seed}:{label}")


def kb_text(rng: random.Random, m: int, clauses: int) -> str:
    """A CNF knowledge base over the first ``m`` atoms, in the .kb format.

    Clauses use distinct atoms, so none is a tautology the parser would drop.
    """
    names = ATOM_NAMES[:m]
    lines = ["atoms: " + " ".join(names)]
    for _ in range(clauses):
        atoms = rng.sample(names, min(m, rng.choice((2, 3))))
        lines.append(" ".join(("-" if rng.random() < 0.5 else "") + a for a in atoms))
    return "\n".join(lines) + "\n"


def formula_text(rng: random.Random, names: str, depth: int) -> str:
    """A random formula in the CLI grammar, binary connectives parenthesised."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.05:
            return "T"
        if r < 0.1:
            return "F"
        return rng.choice(names)
    kind = rng.randrange(5)
    if kind == 0:
        return "!" + formula_text(rng, names, depth - 1)
    left = formula_text(rng, names, depth - 1)
    right = formula_text(rng, names, depth - 1)
    return f"({left} {('&', '|', '->', '<->')[kind - 1]} {right})"


def distinct_formulas(rng: random.Random, m: int, count: int) -> list[str]:
    """``count`` distinct formula texts over the first ``m`` atoms."""
    names = ATOM_NAMES[:m]
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen.setdefault(formula_text(rng, names, rng.randint(3, 5)), None)
    return list(seen)


# --- kb-queries -----------------------------------------------------------------

# One cycle visits every atom count with every logical space. m = 12 is the
# MAX_ATOMS_DEFAULT cap. min runs only at m <= 8: at m = 12 one min query
# takes seconds, because gamma re-checks the domain for every countermodel.
# Per round: (queries with the space's scorer, queries with min). The mix puts
# the median among the m = 8 queries and the 90th percentile among the
# quadratic m = 8 min queries, each inside its group rather than on an edge.
KB_ATOM_COUNTS = (4, 8, 12)
KB_CLAUSES = {4: 3, 8: 5, 12: 7}
KB_QUERIES = {4: (8, 1), 8: (8, 6), 12: (6, 0)}


@dataclass(frozen=True)
class Query:
    scorer: str
    formula: str


@dataclass(frozen=True)
class KbRound:
    m: int
    space: str
    kbs: tuple[str, str]
    queries: tuple[Query, ...]


def kb_cycle(seed: int, index: int) -> list[KbRound]:
    """The rounds of cycle ``index``: each pools two KBs, then asks queries."""
    rng = stream(seed, f"kb-cycle:{index}")
    rounds = []
    for m in KB_ATOM_COUNTS:
        for space, scorer in LOGICAL_SPACES:
            kbs = (kb_text(rng, m, KB_CLAUSES[m]), kb_text(rng, m, KB_CLAUSES[m]))
            n_scorer, n_min = KB_QUERIES[m]
            texts = distinct_formulas(rng, m, n_scorer + n_min)
            queries = [Query(scorer, f) for f in texts[:n_scorer]]
            queries += [Query("min", f) for f in texts[n_scorer:]]
            rounds.append(KbRound(m, space, kbs, tuple(queries)))
    return rounds


# --- cli-session ----------------------------------------------------------------

CLI_GROUPS = 10
CLI_ATOMS = 3  # decode --prime-implicates refuses more than three atoms
CLI_QUERIES_PER_GROUP = 2
PLOT_RESOLUTION = 100


@dataclass(frozen=True)
class CliGroup:
    """One encode/pool/decode/query pipeline plus a weighted round trip."""

    space: str
    scorer: str
    kbs: tuple[str, str]
    formulas: tuple[str, ...]
    weighted_space: str
    levels: tuple[int, ...]


def cli_groups(seed: int) -> list[CliGroup]:
    rng = stream(seed, "cli")
    groups = []
    for g in range(CLI_GROUPS):
        space, scorer = LOGICAL_SPACES[g % len(LOGICAL_SPACES)]
        kbs = (kb_text(rng, CLI_ATOMS, 2), kb_text(rng, CLI_ATOMS, 2))
        formulas = tuple(distinct_formulas(rng, CLI_ATOMS, CLI_QUERIES_PER_GROUP))
        weighted = ("weighted-max-reals", "weighted-had-unit")[g % 2]
        levels = tuple(rng.randint(0, 2) for _ in range(3))
        groups.append(CliGroup(space, scorer, kbs, formulas, weighted, levels))
    return groups


def report_seed(seed: int, index: int = 0) -> int:
    """The plan seed of a workload's ``index``-th report, from the run seed."""
    return stream(seed, f"report:{index}").randrange(1 << 32)
