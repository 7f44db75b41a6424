"""Independence atoms and the constraint language.

An atom states that the values on one attribute set vary independently of the
values on another.  Three modalities exist: ``plain`` (holds in the relation
as such), ``possible`` (holds in some grounding), and ``certain`` (holds in
every grounding).

Concrete syntax: ``lhs op rhs`` where each side is ``{}`` or a comma-separated
attribute list, and the operator is ``_||_`` / ``_||_p`` / ``_||_c`` (with
unicode aliases ``⊥`` / ``⊥p`` / ``⊥c``).  Constraint files hold one atom per
line; ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .errors import FragmentError, ParseError
from .relation import Schema

Modality = Literal["plain", "possible", "certain"]

PLAIN: Modality = "plain"
POSSIBLE: Modality = "possible"
CERTAIN: Modality = "certain"

# Longer tokens first so "_||_p" is not read as "_||_" plus an identifier.
_OPERATORS: tuple[tuple[str, Modality], ...] = (
    ("_||_p", POSSIBLE),
    ("_||_c", CERTAIN),
    ("_||_", PLAIN),
    ("⊥p", POSSIBLE),
    ("⊥c", CERTAIN),
    ("⊥", PLAIN),
)

_ASCII_OP = {PLAIN: "_||_", POSSIBLE: "_||_p", CERTAIN: "_||_c"}
_UNICODE_OP = {PLAIN: "⊥", POSSIBLE: "⊥p", CERTAIN: "⊥c"}


@dataclass(frozen=True)
class Atom:
    """An independence statement ``lhs ⊥ rhs`` with a modality tag.

    Sides are unordered attribute sets; either may be empty and they may
    overlap.  Equality ignores element order but does not identify an atom
    with its mirror image (symmetry is an inference rule, not syntax).
    """

    lhs: frozenset[str]
    rhs: frozenset[str]
    modality: Modality = PLAIN

    @property
    def attributes(self) -> frozenset[str]:
        return self.lhs | self.rhs

    def __repr__(self) -> str:
        return f"Atom({render_atom(self)!r})"


def ind(atom: Atom) -> Atom:
    """Strip the modality: the underlying plain independence atom."""
    if atom.modality == PLAIN:
        return atom
    return Atom(atom.lhs, atom.rhs, PLAIN)


def ind_set(atoms: Iterable[Atom]) -> list[Atom]:
    """Elementwise ``ind``, deduplicated in first-seen order."""
    out: dict[Atom, None] = {}
    for a in atoms:
        out[ind(a)] = None
    return list(out)


def is_disjoint(atom: Atom) -> bool:
    return not (atom.lhs & atom.rhs)


def is_pia_star(atom: Atom) -> bool:
    """Possible atoms with a singleton side or side sizes within one of each
    other; the fragment whose implication problem the rule system decides."""
    if atom.modality != POSSIBLE:
        raise FragmentError("is_pia_star applies to possible atoms only")
    nx, ny = len(atom.lhs), len(atom.rhs)
    return nx == 1 or ny == 1 or abs(nx - ny) <= 1


def _find_operator(text: str) -> tuple[int, int, Modality]:
    for pos in range(len(text)):
        for token, modality in _OPERATORS:
            if text.startswith(token, pos):
                end = pos + len(token)
                # "⊥p" / "_||_p" only when the p/c is not the start of an
                # identifier: "A ⊥pq" reads as plain ⊥ applied to "pq".
                if token[-1] in "pc" and end < len(text) and _is_ident_char(text[end]):
                    continue
                return pos, end, modality
    raise ParseError("no independence operator found", None)


def _is_ident_char(ch: str) -> bool:
    return ch not in " \t,{}" and not any(
        ch == tok[0] for tok, _ in _OPERATORS
    ) and ch != "|"


def _parse_side(text: str, offset: int, schema: Schema | None) -> frozenset[str]:
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty attribute list (write {} for the empty set)", offset)
    found = [p for p in (text.find("_||_"), text.find("⊥")) if p >= 0]
    if found:
        raise ParseError("a side may not contain an independence operator", offset + min(found))
    if stripped == "{}":
        return frozenset()
    if "{" in stripped or "}" in stripped:
        raise ParseError("braces are only allowed as the empty-set literal {}", offset)
    names = []
    for part in stripped.split(","):
        name = part.strip()
        if not name:
            raise ParseError("missing attribute name", offset + text.find(part))
        if schema is not None and name not in schema.attributes:
            position = offset + text.index(name)
            raise ParseError(f"unknown attribute {name!r}", position)
        names.append(name)
    return frozenset(names)


def parse_atom(text: str, schema: Schema | None = None) -> Atom:
    """Parse one atom.  With a schema, attribute names are validated against
    it; without one, any identifier is accepted."""
    start, end, modality = _find_operator(text)
    lhs = _parse_side(text[:start], 0, schema)
    rhs = _parse_side(text[end:], end, schema)
    return Atom(lhs, rhs, modality)


def render_atom(atom: Atom, schema: Schema | None = None, unicode_ops: bool = False) -> str:
    """Canonical text form; sides are sorted (schema order when given)."""

    def side(attrs: frozenset[str]) -> str:
        if not attrs:
            return "{}"
        if schema is not None:
            ordered = [a for a in schema.attributes if a in attrs]
        else:
            ordered = sorted(attrs)
        return ",".join(ordered)

    op = (_UNICODE_OP if unicode_ops else _ASCII_OP)[atom.modality]
    return f"{side(atom.lhs)} {op} {side(atom.rhs)}"


def parse_constraints(text: str) -> list[Atom]:
    """Parse a constraint file: one atom per line, ``#`` comments, duplicates
    dropped in first-seen order."""
    atoms: dict[Atom, None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            atoms[parse_atom(line)] = None
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return list(atoms)


def attributes_of(atoms: Iterable[Atom]) -> frozenset[str]:
    out: set[str] = set()
    for a in atoms:
        out |= a.attributes
    return frozenset(out)


def check_same_modality(atoms: Iterable[Atom], modality: Modality, what: str) -> None:
    for a in atoms:
        if a.modality != modality:
            raise FragmentError(
                f"{what} expects {modality} atoms, got {render_atom(a)!r}"
            )


__all__ = [
    "Atom",
    "Modality",
    "PLAIN",
    "POSSIBLE",
    "CERTAIN",
    "ind",
    "ind_set",
    "is_disjoint",
    "is_pia_star",
    "parse_atom",
    "render_atom",
    "parse_constraints",
    "attributes_of",
    "check_same_modality",
]
