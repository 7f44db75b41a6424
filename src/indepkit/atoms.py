"""Independence atoms and the constraint language.

An atom states that the values on one attribute set vary independently of the
values on another.  Three modalities exist: ``plain`` (holds in the relation
as such), ``possible`` (holds in some grounding), and ``certain`` (holds in
every grounding).

Concrete syntax: ``lhs op rhs`` where each side is ``{}`` or a comma-separated
attribute list, and the operator is ``_||_`` / ``_||_p`` / ``_||_c`` (with
unicode aliases ``⊥`` / ``⊥p`` / ``⊥c``).  A ``p`` or ``c`` after the stem is
a modality suffix only when no identifier character follows it (identifier
characters are all but blanks, tabs, ``,``, ``{``, ``}``, ``_``, ``|`` and
``⊥``), so ``A ⊥pq`` is plain ``⊥`` applied to ``pq``.  One suffix table
serves both parsing and rendering.  Constraint files hold one atom per line;
``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Literal

from .errors import FragmentError, ParseError
from .relation import Schema

Modality = Literal["plain", "possible", "certain"]

PLAIN: Modality = "plain"
POSSIBLE: Modality = "possible"
CERTAIN: Modality = "certain"

_SUFFIX: dict[Modality, str] = {PLAIN: "", POSSIBLE: "p", CERTAIN: "c"}
_MODALITY: dict[str, Modality] = {suffix: m for m, suffix in _SUFFIX.items()}

# An operator stem, then a p/c suffix only when no identifier character
# follows it: "A ⊥pq" reads as plain ⊥ applied to "pq".
_OPERATOR = re.compile(r"(?:_\|\|_|⊥)([pc](?![^ \t,{}_|⊥]))?")


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


def is_disjoint(atom: Atom) -> bool:
    return not (atom.lhs & atom.rhs)


def is_pia_star(atom: Atom) -> bool:
    """Possible atoms with a singleton side or side sizes within one of each
    other; the fragment whose implication problem the rule system decides."""
    if atom.modality != POSSIBLE:
        raise FragmentError("is_pia_star applies to possible atoms only")
    nx, ny = len(atom.lhs), len(atom.rhs)
    return nx == 1 or ny == 1 or abs(nx - ny) <= 1


def _parse_side(text: str, offset: int, schema: Schema | None) -> frozenset[str]:
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty attribute list (write {} for the empty set)", offset)
    second = _OPERATOR.search(text)
    if second:
        raise ParseError("a side may not contain an independence operator", offset + second.start())
    if stripped == "{}":
        return frozenset()
    if "{" in stripped or "}" in stripped:
        raise ParseError("braces are only allowed as the empty-set literal {}", offset)
    names = []
    start = offset + text.index(stripped)  # where each part begins
    for part in stripped.split(","):
        name = part.strip()
        if not name:
            raise ParseError("missing attribute name", start)
        if schema is not None and name not in schema.attributes:
            raise ParseError(f"unknown attribute {name!r}", start + part.index(name))
        names.append(name)
        start += len(part) + 1
    return frozenset(names)


def parse_atom(text: str, schema: Schema | None = None) -> Atom:
    """Parse one atom.  With a schema, attribute names are validated against
    it; without one, any identifier is accepted."""
    op = _OPERATOR.search(text)
    if op is None:
        raise ParseError("no independence operator found", None)
    lhs = _parse_side(text[: op.start()], 0, schema)
    rhs = _parse_side(text[op.end() :], op.end(), schema)
    return Atom(lhs, rhs, _MODALITY[op.group(1) or ""])


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

    op = ("⊥" if unicode_ops else "_||_") + _SUFFIX[atom.modality]
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
