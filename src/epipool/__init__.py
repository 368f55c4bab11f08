"""Exact-arithmetic epistemic states as vectors.

The package represents what is known as a subset of elementary properties,
encodes such states as vectors of rationals, pools them with the four
standard operators (average, sum, max, Hadamard) under strict or weak
score semantics, answers propositional entailment queries through subset
scoring functions, and machine-checks which (operator, domain, semantics)
combinations can honour the pooling principle at all.

The verifier's and the decider's exports (``validate_config``, ``TrialPlan``,
``table_report`` and the other names in ``_LAZY``) load on first use, so
importing the package, or a CLI command that only encodes, pools, decodes or
queries, imports neither module.
"""

from .epistemic import (
    EpistemicState,
    PropertySpace,
    kb_to_state,
    state_entails,
    union_states,
)
from .entailment import SCORERS, gamma_q, psi, x_star_membership
from .logic import (
    AtomTable,
    KnowledgeBase,
    models,
    oracle_entails,
    parse_formula,
    parse_kb,
    pretty,
)
from .numeric import (
    IndeterminateSign,
    ScoreValue,
    format_rational,
    parse_rational,
    signum,
)
from .pooling import Witness, check_principle, check_weighted_principle, pool, pool_many
from .spaces import (
    REGISTRY,
    DomainX,
    SpaceConfig,
    Vector,
    contains,
    decode,
    encode,
    gamma,
    make_space,
)
from .weighted import (
    SharpReduction,
    WeightedState,
    decode_weighted,
    encode_weighted,
    sharp_reduction,
)

__version__ = "0.1.0"

# export -> home module, imported on first use; none of these is a function the
# benchmark tracer wraps (perfbench/spans.py LAYERS): a wrapper read here while
# the tracer is installed would be cached and never restored
_LAZY = {
    "validate_config": "decider",
    "DEFAULT_SEED": "verifier",
    "FALSIFY_REGISTRY": "verifier",
    "Report": "verifier",
    "TrialPlan": "verifier",
    "falsify": "verifier",
    "replay_witness": "verifier",
    "table_report": "verifier",
    "verify_entailment": "verifier",
    "verify_space": "verifier",
    "verify_weighted": "verifier",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "AtomTable",
    "DomainX",
    "DEFAULT_SEED",
    "EpistemicState",
    "FALSIFY_REGISTRY",
    "IndeterminateSign",
    "KnowledgeBase",
    "PropertySpace",
    "REGISTRY",
    "Report",
    "SCORERS",
    "ScoreValue",
    "SharpReduction",
    "SpaceConfig",
    "TrialPlan",
    "Vector",
    "WeightedState",
    "Witness",
    "check_principle",
    "check_weighted_principle",
    "contains",
    "decode",
    "decode_weighted",
    "encode",
    "encode_weighted",
    "falsify",
    "format_rational",
    "gamma",
    "gamma_q",
    "kb_to_state",
    "make_space",
    "models",
    "oracle_entails",
    "parse_formula",
    "parse_kb",
    "parse_rational",
    "pool",
    "pool_many",
    "pretty",
    "psi",
    "replay_witness",
    "sharp_reduction",
    "signum",
    "state_entails",
    "table_report",
    "union_states",
    "validate_config",
    "verify_entailment",
    "verify_space",
    "verify_weighted",
    "x_star_membership",
]
