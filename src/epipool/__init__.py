"""Exact-arithmetic epistemic states as vectors.

The package represents what is known as a subset of elementary properties,
encodes such states as vectors of rationals, pools them with the four
standard operators (average, sum, max, Hadamard) under strict or weak
score semantics, answers propositional entailment queries through subset
scoring functions, and machine-checks which (operator, domain, semantics)
combinations can honour the pooling principle at all.
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
    sign_ge0,
    sign_gt0,
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
    validate_config,
)
from .verifier import (
    DEFAULT_SEED,
    FALSIFY_REGISTRY,
    Report,
    TrialPlan,
    falsify,
    replay_witness,
    table_report,
    verify_entailment,
    verify_space,
    verify_weighted,
)
from .weighted import (
    SharpReduction,
    WeightedState,
    decode_weighted,
    encode_weighted,
    sharp_reduction,
)

__version__ = "0.1.0"

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
    "sign_ge0",
    "sign_gt0",
    "state_entails",
    "table_report",
    "union_states",
    "validate_config",
    "verify_entailment",
    "verify_space",
    "verify_weighted",
    "x_star_membership",
]
