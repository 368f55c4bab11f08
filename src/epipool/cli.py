"""Command-line interface.

Subcommands: encode, pool, decode, query, verify, falsify, report, plot.
Exit codes: 0 success (including NOT-ENTAILED answers), 1 when verify or
falsify end with violations or witnesses in hand or report finds an
unexpected cell, 2 for usage and parse errors, 3 when a vector falls outside
the configured domain, a margin scorer is asked about an ambiguous vector, or
an approximate score's sign cannot be certified.

main(argv) is the in-process API and the one place that maps an outcome to
its code; it never calls gc.freeze(), which would pin a long-lived caller's
objects for good.  run() is the process entry, for ``python -m epipool.cli``
and the ``epipool`` script: it freezes the start-up heap, so the collections
during the command and at shutdown skip objects that live until exit anyway,
and returns main()'s code.  If stdout's reader has gone, a command exits 2
with an "i/o error" line; what only the final flush would write, such as
--help, is dropped and the code kept.  If stderr's reader has gone, the
error line is dropped and the code kept.

A non-empty EPIPOOL_SEED overrides the default verification seed, and a
given --seed overrides both; seeds are decimal, hex, or 0x-prefixed base-36 tags.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .entailment import ClearCutError, SCORERS, psi
from .epistemic import PropertySpace, kb_to_state
from .files import NamedVector, dumps_vectors, load_for_space, loads_vectors
from .logic import (
    MAX_ATOMS_DEFAULT,
    AtomTable,
    format_clause,
    parse_formula,
    parse_kb,
    prime_implicates,
)
from .numeric import IndeterminateSign, parse_rational
from .pooling import pool_many
from .spaces import (
    REGISTRY,
    DomainError,
    decode,
    encode,
    format_vector,
    make_space,
)
from .svgplot import render_regions
from .weighted import WeightedState, decode_weighted, encode_weighted

USAGE_ERROR = 2
DOMAIN_ERROR = 3
# atom names for a vector of 2^m coordinates when neither --atoms nor --kb is given
DEFAULT_ATOMS = "abcdefghijklmnopqrstuvwxyz"


def _space_params(args: argparse.Namespace) -> dict:
    params = {}
    if getattr(args, "margin", None) is not None:
        params["margin"] = parse_rational(args.margin)
    if getattr(args, "eps", None) is not None:
        params["eps"] = parse_rational(args.eps)
    if getattr(args, "K", None) is not None:
        params["levels"] = args.K
    return params


def _atoms_for(args: argparse.Namespace, n: int) -> AtomTable:
    if getattr(args, "kb", None):
        kb = parse_kb(Path(args.kb).read_text())
        if kb.atoms.world_count() != n:
            raise ValueError(
                f"KB has {len(kb.atoms)} atoms (2^m={kb.atoms.world_count()}), "
                f"vectors have n={n}"
            )
        return kb.atoms
    if getattr(args, "atoms", None):
        names = args.atoms.replace(",", " ").split()
        table = AtomTable.of(names)
        if table.world_count() != n:
            raise ValueError(f"{len(table)} atoms imply n={table.world_count()}, got n={n}")
        return table
    if n == 0:
        raise ValueError("n=0 vectors have no worlds; a logical space has n = 2^m >= 1")
    m = n.bit_length() - 1
    if 1 << m != n:
        raise ValueError(f"n={n} is not a power of two; pass --atoms or --kb")
    if m > len(DEFAULT_ATOMS):
        raise ValueError(f"n={n} has no default atom names; pass --atoms or --kb")
    return AtomTable.of(tuple(DEFAULT_ATOMS[:m]))


def _load_vectors(args: argparse.Namespace, logical: bool = False):
    """The space args.space at the first file's n, over the worlds of the
    query atoms if logical, and every vector of the files args.vectors, each
    written for args.space; each file is read and parsed once."""
    config, named = None, []
    for path in args.vectors:
        parsed = loads_vectors(Path(path).read_text())
        if parsed.space != args.space:
            raise ValueError(f"{path} was written for space {parsed.space!r}, not {args.space!r}")
        if config is None:
            props = PropertySpace.logical(_atoms_for(args, parsed.n)) if logical else None
            config = make_space(args.space, parsed.n, properties=props, **_space_params(args))
        named.extend(load_for_space(parsed, config))
    return config, named


def _cmd_encode(args: argparse.Namespace) -> int:
    if (args.kb is None) == (args.levels is None):
        raise ValueError("encode needs exactly one of --kb or --levels")
    if args.kb is not None:
        kb = parse_kb(Path(args.kb).read_text())
        props = PropertySpace.logical(kb.atoms)
        config = make_space(args.space, properties=props, **_space_params(args))
        state = kb_to_state(kb, cap=args.atom_cap)
        v = encode(config, state)
        name = args.name or Path(args.kb).stem
        # a count only: decode lists the members, 4,096 of them at 12 atoms
        summary = f"{len(state.members)} of {props.size} properties"
    else:
        levels = tuple(int(part) for part in args.levels.replace(",", " ").split())
        config = make_space(args.space, len(levels), **_space_params(args))
        if config.levels is None:
            raise ValueError(f"space {args.space} has no certainty levels; pass --K")
        wstate = WeightedState.of(config.properties, levels, config.levels)
        v = encode_weighted(config, wstate)
        name = args.name or "levels"
        summary = f"levels {wstate.format()} (cap {config.levels})"
    out = dumps_vectors(args.space, [NamedVector(name, v)])
    Path(args.output).write_text(out)
    print(f"encoded {summary} -> {args.output}")
    return 0


def _cmd_pool(args: argparse.Namespace) -> int:
    config, named = _load_vectors(args)
    pooled = pool_many(config.operator, [v.coords for v in named])
    out = dumps_vectors(args.space, [NamedVector(args.name, pooled)])
    Path(args.output).write_text(out)
    print(f"pooled {len(named)} vectors ({config.operator}) -> {args.output}")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    config, named = _load_vectors(args)
    if args.weighted:
        if config.levels is None:
            raise ValueError(f"space {args.space} has no certainty levels; pass --K")
        for nv in named:
            wstate = decode_weighted(config, nv.coords)
            print(f"{nv.name}: levels {wstate.format()}")
        return 0
    atoms = _atoms_for(args, config.size) if args.logical else None
    for nv in named:
        state = decode(config, nv.coords)
        if atoms is None:
            print(f"{nv.name}: {state.format()}")
            continue
        bits = " ".join(
            "".join(str(w >> j & 1) for j in range(len(atoms)))
            for w in sorted(state.members)
        )
        print(f"{nv.name}: excluded worlds: {bits or '<none>'}")
        remaining = [w for w in range(config.size) if w not in state.members]
        rows = "; ".join(atoms.describe_world(w) for w in remaining) or "<none>"
        print(f"{nv.name}: worlds remaining: {rows}")
        if args.prime_implicates:
            clauses = prime_implicates(frozenset(remaining), atoms)
            shown = ", ".join(format_clause(c, atoms) for c in clauses) or "<none>"
            print(f"{nv.name}: prime implicates: {shown}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    config, named = _load_vectors(args, logical=True)
    formula = parse_formula(args.formula, config.properties.atoms)
    for nv in named:
        verdict = psi(config, args.scorer, formula, nv.coords)
        print(f"{nv.name}: {'ENTAILED' if verdict else 'NOT-ENTAILED'}")
    return 0


# verify, falsify and report import the verifier and the decider when they run,
# so the other commands' start-up loads neither module
def _plan(args: argparse.Namespace):
    from .verifier import DEFAULT_SEED, TrialPlan, parse_seed

    seed = (os.environ.get("EPIPOOL_SEED") or None) if args.seed is None else args.seed
    kwargs = {"seed": DEFAULT_SEED if seed is None else parse_seed(seed)}
    if getattr(args, "trials", None) is not None:
        kwargs["trials"] = args.trials
    if getattr(args, "dimension", None) is not None:
        kwargs["dimension"] = args.dimension
    return TrialPlan(**kwargs)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .decider import validate_config
    from .verifier import FALSIFIED, verify_space, verify_weighted

    plan = _plan(args)
    fixed = REGISTRY[args.space].labels
    size = len(fixed) if fixed else plan.dimension
    config = make_space(args.space, size, **_space_params(args))
    problems = validate_config(config)
    for p in problems:
        print(f"config note [{p.rule}]: {p.message}")
    report = verify_space(config, plan)
    if config.levels is not None:
        weighted = verify_weighted(config, plan)
        report = report.replace(cells=report.cells + weighted.cells)
    sys.stdout.write(report.to_text())
    found = any(c.status == FALSIFIED for c in report.cells)
    return 1 if found else 0


def _cmd_falsify(args: argparse.Namespace) -> int:
    from .verifier import falsify

    plan = _plan(args)
    witness = falsify(args.candidate, plan)
    if witness is None:
        print(f"{args.candidate}: no witness within budget")
        return 0
    vecs = "; ".join(format_vector(v) for v in witness.vectors)
    extra = f" q={list(witness.q)}" if witness.q else ""
    print(
        f"{args.candidate}: witness at {vecs}: property {witness.prop}{extra}: "
        f"expected {witness.expected}, observed {witness.observed}"
    )
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .verifier import table_report

    plan = _plan(args)
    report = table_report(plan)
    if args.output:
        Path(args.output).write_text(report.to_json())
        sys.stdout.write(report.to_text())
    elif args.text:
        sys.stdout.write(report.to_text())
    else:
        sys.stdout.write(report.to_json())
    return 0 if report.all_as_expected else 1


def _cmd_plot(args: argparse.Namespace) -> int:
    config = make_space(args.space, 2, **_space_params(args))
    hi = parse_rational(args.range)
    svg = render_regions(config, -hi, hi, resolution=args.resolution)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return 0


def _add_space(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True, choices=sorted(REGISTRY), metavar="SPACE")
    p.add_argument("--margin", help="separation margin for margin spaces (rational)")
    p.add_argument("--eps", help="near-binary slack for the unit margin space (rational)")
    p.add_argument("--K", type=int, help="certainty level cap for weighted spaces")


def _encode_arguments(p: argparse.ArgumentParser) -> None:
    _add_space(p)
    p.add_argument("--kb", help="knowledge-base file to encode")
    p.add_argument("--levels", help="comma-separated certainty levels, e.g. 2,0,1")
    p.add_argument(
        "--atom-cap", type=int, default=MAX_ATOMS_DEFAULT, help="refuse KBs beyond this many atoms"
    )
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--name", help="vector name (default: KB file stem)")
    p.set_defaults(func=_cmd_encode)


def _pool_arguments(p: argparse.ArgumentParser) -> None:
    _add_space(p)
    p.add_argument("vectors", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--name", default="pooled")
    p.set_defaults(func=_cmd_pool)


def _decode_arguments(p: argparse.ArgumentParser) -> None:
    _add_space(p)
    p.add_argument("vectors", nargs="+")
    p.add_argument("--logical", action="store_true", help="print non-excluded worlds")
    p.add_argument("--weighted", action="store_true", help="print certainty levels")
    p.add_argument(
        "--prime-implicates",
        action="store_true",
        help="also print prime implicate clauses (small vocabularies only)",
    )
    p.add_argument("--kb", help="KB file supplying atom names")
    p.add_argument("--atoms", help="comma- or space-separated atom names")
    p.set_defaults(func=_cmd_decode)


def _query_arguments(p: argparse.ArgumentParser) -> None:
    _add_space(p)
    p.add_argument("vectors", nargs="+")
    p.add_argument("--scorer", required=True, choices=SCORERS)
    p.add_argument("--formula", required=True)
    p.add_argument("--kb", help="KB file supplying atom names")
    p.add_argument("--atoms", help="comma- or space-separated atom names")
    p.set_defaults(func=_cmd_query)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    _add_space(p)
    p.add_argument("--seed")
    p.add_argument("--trials", type=int)
    p.add_argument("--dimension", type=int)
    p.set_defaults(func=_cmd_verify)


def _falsify_arguments(p: argparse.ArgumentParser) -> None:
    from .verifier import FALSIFY_REGISTRY

    p.add_argument("--candidate", required=True, choices=sorted(FALSIFY_REGISTRY))
    p.add_argument("--seed")
    p.add_argument("--trials", type=int)
    p.set_defaults(func=_cmd_falsify)


def _report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed")
    p.add_argument("--trials", type=int)
    p.add_argument("--dimension", type=int)
    p.add_argument("-o", "--output", help="write the JSON report here")
    p.add_argument("--text", action="store_true", help="human-readable output")
    p.set_defaults(func=_cmd_report)


def _plot_arguments(p: argparse.ArgumentParser) -> None:
    _add_space(p)
    p.add_argument("--out", required=True)
    p.add_argument("--range", default="2", help="plot [-R, R]^2 (rational, default 2)")
    p.add_argument("--resolution", type=int, default=400)
    p.set_defaults(func=_cmd_plot)


# subcommand -> (its help line, the function that adds its arguments)
SUBCOMMANDS = {
    "encode": ("encode a KB file or a weighted level list", _encode_arguments),
    "pool": ("pool all vectors from the given files", _pool_arguments),
    "decode": ("print the epistemic state of each vector", _decode_arguments),
    "query": ("ask whether each vector entails a formula", _query_arguments),
    "verify": ("sweep one space against its principles", _verify_arguments),
    "falsify": ("search a doomed candidate for a witness", _falsify_arguments),
    "report": ("machine-check every result-table cell", _report_arguments),
    "plot": ("render satisfied regions of a 2-D space as SVG", _plot_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The epipool parser. Every subcommand is registered with its help line,
    but only ``command`` gets its arguments; with no command, all of them do."""
    parser = argparse.ArgumentParser(
        prog="epipool",
        description="Pool exact-arithmetic epistemic vectors and check the result tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command in (None, name):
            add_arguments(p)
    return parser


def _fail(code: int, line: str) -> int:
    """Write an error line to stderr and return code; a stderr reader that
    has gone does not change the code."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has no option that takes a value, so the first
    # argument naming a subcommand is the one argparse dispatches to, if any
    command = next((arg for arg in argv if arg in SUBCOMMANDS), None)
    try:
        args = build_parser(command).parse_args(argv)
        code = args.func(args)
        # a reader that went away fails here, inside the try, not at exit
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # argparse printed --help, or a usage line and its error
        return exc.code
    except (DomainError, ClearCutError, IndeterminateSign) as exc:
        return _fail(DOMAIN_ERROR, f"domain violation: {exc}")
    except (KeyError, ValueError) as exc:
        return _fail(USAGE_ERROR, f"error: {exc}")
    except OSError as exc:
        return _fail(USAGE_ERROR, f"i/o error: {exc}")


def run() -> int:
    """The process entry: freeze the start-up heap, then run main() on the
    process arguments."""
    gc.freeze()
    code = main(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            # the reader went away: send the rest to devnull, so the flush at
            # shutdown neither fails again nor prints "Exception ignored"
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(run())
