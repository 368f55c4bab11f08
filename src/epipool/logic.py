"""Propositional syntax, truth-table masks, and an exhaustive entailment oracle.

Worlds are integers: with atoms sorted ascending, bit ``j`` of a world index
gives the truth value of atom ``j``.  That canonical indexing is what ties
propositional semantics to vector coordinates elsewhere in the package, so
it is fixed here once and never varied.

A set of worlds is held as a truth-table mask, an int whose bit ``w`` is set
when world ``w`` is in the set.  A formula or KB is evaluated over all 2^m
worlds at once, bottom-up with ``& | ^`` on the atoms' masks.

Formula grammar (used by :func:`parse_formula` and the CLI)::

    formula := iff
    iff     := imp ('<->' imp)*          # left-associative
    imp     := or ('->' imp)?            # right-associative
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | '(' formula ')' | 'T' | 'F' | atom

Atoms are ASCII identifiers.  ``T`` and ``F`` are reserved for the constants.
Any Unicode whitespace separates tokens, and any other character outside the
grammar's symbols and ASCII identifiers is a syntax error at its position.
A formula nests at most ``MAX_FORMULA_DEPTH`` levels deep, counting every
operator and every pair of parentheses; deeper text is a syntax error.

KB files (``.kb``) are line-oriented: ``#`` starts a comment, an optional
first directive ``atoms: a b c`` declares the vocabulary, and every other
nonblank line is one clause written as whitespace-separated literals with a
``-`` prefix for negation.  Clauses containing an atom with both polarities
are tautologies and are dropped with a warning; an empty clause is kept and
denotes inconsistency.
"""

from __future__ import annotations

import functools
import itertools
import re
import warnings
from typing import Iterable, Iterator, Union

from .record import Record

MAX_ATOMS_DEFAULT = 12


class FormulaSyntaxError(ValueError):
    """Formula text does not match the grammar; carries a 1-based column."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(f"{message} (at position {index + 1})")
        self.position = index + 1


class UnknownAtomError(ValueError):
    """Formula uses an atom absent from the supplied atom table."""


class KBFormatError(ValueError):
    """Malformed knowledge-base file."""


class AtomCapExceeded(ValueError):
    """Truth-table evaluation refused: too many atoms."""


class TautologyWarning(UserWarning):
    """A clause contained an atom with both polarities and was dropped."""


class AtomTable(Record):
    """Ordered vocabulary; names are distinct ASCII identifiers other than
    the constants T and F, sorted ascending."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        if list(names) != sorted(set(names)):
            raise ValueError("atom names must be distinct and sorted ascending")
        for name in names:
            if not (name.isascii() and name.isidentifier()) or name in ("T", "F"):
                raise ValueError(
                    f"atom names must be ASCII identifiers other than T and F, got {name!r}"
                )
        super().__init__(names)

    @staticmethod
    def of(names: Iterable[str]) -> "AtomTable":
        return AtomTable(tuple(sorted(set(names))))

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownAtomError(f"unknown atom: {name!r}") from None

    def world_count(self) -> int:
        return 1 << len(self.names)

    def describe_world(self, world: int) -> str:
        """Human-readable row like ``a=1 b=0`` in canonical order."""
        return " ".join(
            f"{name}={world >> j & 1}" for j, name in enumerate(self.names)
        )


# --- formula AST -----------------------------------------------------------


class Formula(Record):
    """A formula node; ``precedence`` is how tightly its class binds."""

    __slots__ = ()
    precedence = 6  # an atom or a constant


class Atom(Formula):
    __slots__ = ("name",)
    name: str


class Const(Formula):
    __slots__ = ("value",)
    value: bool


class Not(Formula):
    __slots__ = ("arg",)
    arg: Formula
    precedence = 5


class Binary(Formula):
    """``left symbol right``; each connective lists ``("left", "right")`` as its
    own ``__slots__``, which ``Record.__init__`` sets."""

    __slots__ = ()
    left: Formula
    right: Formula
    symbol: str


class And(Binary):
    __slots__ = ("left", "right")
    symbol, precedence = "&", 4


class Or(Binary):
    __slots__ = ("left", "right")
    symbol, precedence = "|", 3


class Implies(Binary):
    __slots__ = ("left", "right")
    symbol, precedence = "->", 2


class Iff(Binary):
    __slots__ = ("left", "right")
    symbol, precedence = "<->", 1


TOP = Const(True)
BOTTOM = Const(False)


class Literal(Record):
    __slots__ = ("atom", "positive")
    atom: int
    positive: bool


Clause = frozenset  # of Literal


class KnowledgeBase(Record):
    __slots__ = ("clauses", "atoms")
    clauses: tuple[Clause, ...]
    atoms: AtomTable


# --- parsing ---------------------------------------------------------------

# a binary connective's token kind is its class; the other kinds are strings
_TOKEN_KINDS = {
    **{op.symbol: op for op in (Iff, Implies, And, Or)},
    "!": "NOT",
    "(": "LP",
    ")": "RP",
}
# one token per match: a connective or bracket, an ASCII identifier, or any
# other character, which is an error; that last group is \S and not '.', so
# blanks at the end of the text match nothing instead of backtracking into it
_TOKEN = re.compile(r"\s*(?:(<->|->|[&|!()])|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


def _tokenize(text: str) -> list[tuple[str | type[Binary], str, int]]:
    tokens: list[tuple[str | type[Binary], str, int]] = []
    for match in _TOKEN.finditer(text):
        symbol, name, other = match.groups()
        if symbol is not None:
            tokens.append((_TOKEN_KINDS[symbol], symbol, match.start(1)))
        elif name is not None:
            tokens.append(("IDENT", name, match.start(2)))
        else:
            raise FormulaSyntaxError(f"unexpected character {other!r}", match.start(3))
    tokens.append(("END", "", len(text)))
    return tokens


# Deepest nesting parse_formula accepts, counting every operator and every
# pair of parentheses as a level. The evaluators recurse once per level, so
# this keeps every accepted formula well inside Python's recursion limit.
MAX_FORMULA_DEPTH = 512


def _parse(tokens: list[tuple[str | type[Binary], str, int]]) -> Formula:
    """Operator-precedence parse over explicit stacks; no input makes it recurse."""
    operands: list[tuple[Formula, int]] = []  # left operands, with nesting depth
    pending: list[type | None] = []  # Not, binary operators and None for an open '('
    stream = iter(tokens)
    for kind, value, at in stream:
        if kind == "NOT" or kind == "LP":
            pending.append(Not if kind == "NOT" else None)
            continue
        if kind != "IDENT":
            raise FormulaSyntaxError(f"expected formula, found {value or 'end'!r}", at)
        f = TOP if value == "T" else BOTTOM if value == "F" else Atom(value)
        depth = 1
        # f is a complete operand: negate it, then close groups up to a binary operator
        for kind, value, at in stream:
            while pending and pending[-1] is Not:
                pending.pop()
                f, depth = Not(f), depth + 1
            # apply the pending operators that bind at least as tightly as this
            # token; '->' is right-associative, so it leaves a pending '->' open
            op = None if kind.__class__ is str else kind
            threshold = 1 if op is None else op.precedence + (op is Implies)
            while pending and pending[-1] is not None and pending[-1].precedence >= threshold:
                left, left_depth = operands.pop()
                f, depth = pending.pop()(left, f), max(left_depth, depth) + 1
            if depth > MAX_FORMULA_DEPTH:
                raise FormulaSyntaxError(
                    f"formula nests deeper than {MAX_FORMULA_DEPTH} levels", at
                )
            if op is not None:
                operands.append((f, depth))
                pending.append(op)
                break
            if not pending:  # no group is open
                if kind != "END":
                    raise FormulaSyntaxError(f"trailing input {value!r}", at)
                return f
            if kind != "RP":
                raise FormulaSyntaxError(f"expected RP, found {value or 'end'!r}", at)
            pending.pop()  # the '(' this ')' closes
            depth += 1
    raise AssertionError("unreachable: the token list ends with END")


def parse_formula(text: str, atoms: AtomTable | None = None) -> Formula:
    """Parse a formula; if ``atoms`` is given, unknown atoms are an error."""
    tokens = _tokenize(text)
    f = _parse(tokens)
    if atoms is not None:
        names = {value for kind, value, _ in tokens if kind == "IDENT"}
        unknown = names.difference(atoms.names, ("T", "F"))
        if unknown:
            raise UnknownAtomError(f"unknown atom: {min(unknown)!r}")
    return f


def formula_atoms(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Const):
        return set()
    if isinstance(f, Not):
        return formula_atoms(f.arg)
    return formula_atoms(f.left) | formula_atoms(f.right)  # type: ignore[union-attr]


def pretty(f: Formula) -> str:
    """Minimal-parenthesis rendering; ``parse_formula(pretty(f)) == f``."""

    def render(g: Formula, parent: int, right_side: bool) -> str:
        prec = g.precedence
        if isinstance(g, Atom):
            s = g.name
        elif isinstance(g, Const):
            s = "T" if g.value else "F"
        elif isinstance(g, Not):
            s = "!" + render(g.arg, prec, False)
        else:
            # '->' chains to the right; the other binary ops chain left.
            if isinstance(g, Implies):
                s = f"{render(g.left, prec + 1, False)} {g.symbol} {render(g.right, prec, True)}"
            else:
                s = f"{render(g.left, prec, False)} {g.symbol} {render(g.right, prec + 1, True)}"
        if prec < parent or (prec == parent and right_side and not isinstance(g, Implies)):
            return f"({s})"
        return s

    return render(f, 0, False)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse the line-oriented clause format described in the module docstring."""
    declared: list[str] | None = None
    raw_clauses: list[list[tuple[str, bool]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("atoms:"):
            if declared is not None or raw_clauses:
                raise KBFormatError(
                    f"line {lineno}: 'atoms:' directive must be the first statement"
                )
            names = line[len("atoms:"):].split()
            if len(names) != len(set(names)):
                raise KBFormatError(f"line {lineno}: duplicate atom declaration")
            declared = names
            continue
        literals: list[tuple[str, bool]] = []
        for tok in line.split():
            positive = not tok.startswith("-")
            name = tok[1:] if not positive else tok
            if not name or not all(c.isalnum() or c == "_" for c in name) or not (
                name[0].isalpha() or name[0] == "_"
            ):
                raise KBFormatError(f"line {lineno}: malformed literal {tok!r}")
            literals.append((name, positive))
        raw_clauses.append(literals)

    used = {name for clause in raw_clauses for name, _ in clause}
    if declared is not None:
        undeclared = used - set(declared)
        if undeclared:
            raise KBFormatError(f"undeclared atoms used: {sorted(undeclared)}")
    try:
        atoms = AtomTable.of(used if declared is None else declared)
    except ValueError as exc:
        raise KBFormatError(str(exc)) from None

    clauses: list[Clause] = []
    for literals in raw_clauses:
        by_atom: dict[int, set[bool]] = {}
        for name, positive in literals:
            by_atom.setdefault(atoms.index(name), set()).add(positive)
        if any(len(p) == 2 for p in by_atom.values()):
            warnings.warn(
                f"dropping tautological clause: {' '.join(('' if p else '-') + n for n, p in literals)}",
                TautologyWarning,
                stacklevel=2,
            )
            continue
        clauses.append(
            frozenset(Literal(i, p.pop()) for i, p in by_atom.items())
        )
    return KnowledgeBase(tuple(clauses), atoms)


# --- evaluation ------------------------------------------------------------


@functools.cache
def atom_masks(m: int) -> tuple[int, ...]:
    """Truth table of each of ``m`` atoms: bit w of entry j is bit j of w."""
    full = (1 << (1 << m)) - 1
    masks = []
    for j in range(m):
        width = 1 << j  # atom j is false in a run of 2^j worlds, then true in one
        run = (1 << width) - 1
        period_starts = full // ((1 << 2 * width) - 1)  # bit 0 of every 2^(j+1) worlds
        masks.append(period_starts * (run << width))
    return tuple(masks)


def world_mask(atoms: AtomTable) -> int:
    """The mask of every world over the vocabulary."""
    return (1 << atoms.world_count()) - 1


def formula_mask(f: Formula, atoms: AtomTable) -> int:
    """The mask of the worlds satisfying ``f``; no atom cap applies."""
    masks, full = atom_masks(len(atoms)), world_mask(atoms)

    def mask(g: Formula) -> int:
        kind = type(g)
        if kind is Atom:
            return masks[atoms.index(g.name)]
        if kind is Not:
            return full ^ mask(g.arg)
        if kind is And:
            return mask(g.left) & mask(g.right)
        if kind is Or:
            return mask(g.left) | mask(g.right)
        if kind is Implies:
            return (full ^ mask(g.left)) | mask(g.right)
        if kind is Iff:
            return full ^ mask(g.left) ^ mask(g.right)
        if kind is Const:
            return full if g.value else 0
        raise TypeError(f"not a formula: {g!r}")

    return mask(f)


def countermodels(f: Formula, atoms: AtomTable) -> list[int]:
    """The worlds falsifying ``f``, ascending; no atom cap applies."""
    return mask_worlds(world_mask(atoms) ^ formula_mask(f, atoms))


def clause_mask(clause: Clause, atoms: AtomTable) -> int:
    """The mask of the worlds satisfying a clause: the OR of its literals."""
    masks, full = atom_masks(len(atoms)), world_mask(atoms)
    result = 0
    for lit in clause:
        result |= masks[lit.atom] if lit.positive else full ^ masks[lit.atom]
    return result


def kb_mask(kb: KnowledgeBase) -> int:
    """The mask of the KB's models: the AND of its clause masks."""
    result = world_mask(kb.atoms)
    for clause in kb.clauses:
        result &= clause_mask(clause, kb.atoms)
    return result


# the digits of bin() to the bytes 0 and 1, which compress reads as false and true
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def mask_bits(mask: int) -> bytes:
    """One byte per bit of a mask, bit 0 first, for ``itertools.compress``
    to select a world's entry in C: byte w is 1 when world w is in the mask."""
    return bin(mask)[:1:-1].encode().translate(_BIT_VALUES)


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def bits_mask(bits: bytes | bytearray) -> int:
    """The inverse of ``mask_bits``: the mask whose bit w is set where byte w is 1."""
    return int(bits[::-1].translate(_BIT_DIGITS) or b"0", 2)


# the world indices that mask_worlds selects from, shared by every call so that
# a selected world is an int that already exists; built on first use and
# rebuilt, to the next power of two, only for a longer mask
_worlds: tuple[int, ...] = ()


def mask_worlds(mask: int) -> list[int]:
    """The worlds of a mask, ascending, selected by ``mask_bits`` from the
    one shared tuple of world indices."""
    global _worlds
    bits, worlds = mask_bits(mask), _worlds
    if len(bits) > len(worlds):
        worlds = _worlds = tuple(range(1 << (len(bits) - 1).bit_length()))
    return list(itertools.compress(worlds, bits))


def check_cap(atoms: AtomTable, cap: int) -> None:
    if len(atoms) > cap:
        raise AtomCapExceeded(f"{len(atoms)} atoms exceeds cap {cap}")


def models(
    target: Union[Formula, KnowledgeBase],
    atoms: AtomTable | None = None,
    cap: int = MAX_ATOMS_DEFAULT,
) -> frozenset[int]:
    """The worlds satisfying a formula or KB, from its truth-table mask."""
    if isinstance(target, KnowledgeBase):
        check_cap(target.atoms, cap)
        return frozenset(mask_worlds(kb_mask(target)))
    if atoms is None:
        atoms = AtomTable.of(formula_atoms(target))
    check_cap(atoms, cap)
    return frozenset(mask_worlds(formula_mask(target, atoms)))


def oracle_entails(
    kb: KnowledgeBase, f: Formula, cap: int = MAX_ATOMS_DEFAULT
) -> bool:
    """Ground-truth entailment: every model of the KB satisfies ``f``."""
    for name in formula_atoms(f):
        if name not in kb.atoms:
            raise UnknownAtomError(f"query atom {name!r} not in KB vocabulary")
    check_cap(kb.atoms, cap)
    return (kb_mask(kb) & ~formula_mask(f, kb.atoms)) == 0


def clause_excluding(world: int, atoms: AtomTable) -> Clause:
    """The unique widest clause false exactly at ``world``."""
    return frozenset(
        Literal(j, not world >> j & 1) for j in range(len(atoms))
    )


def format_clause(clause: Clause, atoms: AtomTable) -> str:
    if not clause:
        return "<empty>"
    lits = sorted(clause, key=lambda l: (l.atom, not l.positive))
    return " ".join(("" if l.positive else "-") + atoms.names[l.atom] for l in lits)


def all_clauses(atoms: AtomTable) -> Iterator[Clause]:
    """Every clause over the vocabulary, the empty clause included."""
    for polarity in itertools.product((None, True, False), repeat=len(atoms)):
        yield frozenset(
            Literal(i, p) for i, p in enumerate(polarity) if p is not None
        )


def prime_implicates(
    remaining_worlds: frozenset[int], atoms: AtomTable, cap: int = 3
) -> list[Clause]:
    """Subset-minimal clauses true in every remaining world (brute force).

    Intended for the CLI's logical decode view; refuses vocabularies larger
    than ``cap`` atoms because the clause lattice grows as 3^m.
    """
    check_cap(atoms, cap)
    remaining = sum(1 << w for w in remaining_worlds)
    implicates = [
        c for c in all_clauses(atoms) if (remaining & ~clause_mask(c, atoms)) == 0
    ]
    primes = [
        c
        for c in implicates
        if not any(other < c for other in implicates)
    ]
    return sorted(
        primes,
        key=lambda c: (len(c), sorted((l.atom, not l.positive) for l in c)),
    )
