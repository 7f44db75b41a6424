"""Generators for the explicit relations used as separating examples and in
the hardness reduction: the exchange-failure relation, the separating family
for possible-implication, the parity relation for mixed implication, the
constancy counterexample, and the CNF-satisfiability reduction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .atoms import Atom, POSSIBLE
from .errors import ParseError
from .model_check import check_pia
from .relation import NULL, Relation, Schema

_BINARY = ("0", "1")

# The separating family and the parity relation refuse to build more
# distinct rows than this, so that no accepted input runs for long before
# it prints (2^16 rows take about a second).
MAX_CONSTRUCTION_ROWS = 2**16


def _refuse_above_limit(bits: int, extra: int, what: str) -> None:
    """Refuse a construction of 2**bits + extra distinct rows above the
    limit, before building any of it."""
    if bits >= MAX_CONSTRUCTION_ROWS.bit_length() or 2**bits + extra > MAX_CONSTRUCTION_ROWS:
        raise ValueError(f"{what} would build more than {MAX_CONSTRUCTION_ROWS} distinct rows")


def exchange_failure_relation() -> Relation:
    """Four rows over A, B, C with two nulls in column A: both unary possible
    atoms of the exchange premises hold, their exchange conclusion does not."""
    schema = Schema(("A", "B", "C"), (_BINARY, _BINARY, _BINARY))
    rows = [
        ("0", "0", "0"),
        (NULL, "1", "0"),
        (NULL, "0", "1"),
        ("1", "1", "1"),
    ]
    return Relation.from_rows(schema, rows)


def exchange_failure_groundings() -> tuple[Relation, Relation]:
    """The two groundings witnessing the premises of the exchange failure."""
    schema = exchange_failure_relation().schema
    first = Relation.from_rows(
        schema,
        [("0", "0", "0"), ("0", "1", "0"), ("1", "0", "1"), ("1", "1", "1")],
    )
    second = Relation.from_rows(
        schema,
        [("0", "0", "0"), ("1", "1", "0"), ("0", "0", "1"), ("1", "1", "1")],
    )
    return first, second


def pia_separating_family(k: int, m: int, extra: tuple[str, ...] = ()) -> Relation:
    """The separating relation for possible implication, parameterised by the
    side sizes: every X-tuple appears, all Y-tuples except all-ones appear on
    the first rows (a single Y-column gets just 0 and 1), remaining Y-cells
    are null, and all-null rows pad the total to one less than the size of
    the cross product that the refuted atom would need.
    """
    if not (k >= m >= 1):
        raise ValueError("parameters must satisfy k >= m >= 1")
    _refuse_above_limit(k, 1, "the separating family")
    x_attrs = tuple(f"X{i}" for i in range(1, k + 1))
    y_attrs = tuple(f"Y{i}" for i in range(1, m + 1))
    attributes = x_attrs + y_attrs + tuple(extra)
    schema = Schema(attributes, tuple(_BINARY for _ in attributes))
    n_extra = len(extra)
    if m >= 2:
        total = 2**k * (2**m - 1) - 1
        y_values = [t for t in itertools.product(_BINARY, repeat=m)][:-1]
    else:
        total = 2 ** (k + 1) - 1
        y_values = [("0",), ("1",)]
    rows: list[tuple[str, ...]] = []
    counts: list[int] = []
    for i, x in enumerate(itertools.product(_BINARY, repeat=k)):
        y = y_values[i] if i < len(y_values) else (NULL,) * m
        rows.append(x + y + ("0",) * n_extra)
        counts.append(1)
    rows.append((NULL,) * (k + m) + ("0",) * n_extra)
    counts.append(total - 2**k)
    return Relation.from_rows(schema, rows, counts)


def parity_relation(
    x_attrs: tuple[str, ...],
    y_attrs: tuple[str, ...],
    z_attrs: tuple[str, ...],
    pivot: str | None = None,
) -> Relation:
    """Parity rows plus their pivot-nulled copies: the pivot column equals
    the mod-2 sum of every other column, the extra columns stay 0.  The
    certain atom between the two sides fails while every disjoint possible
    atom with both sides non-empty holds."""
    if not x_attrs or not y_attrs:
        raise ValueError("both independence sides need at least one attribute")
    attributes = tuple(x_attrs) + tuple(y_attrs) + tuple(z_attrs)
    if len(set(attributes)) != len(attributes):
        raise ValueError("attribute groups must be pairwise disjoint")
    pivot = pivot if pivot is not None else x_attrs[0]
    if pivot not in x_attrs:
        raise ValueError("the pivot attribute must come from the first side")
    _refuse_above_limit(len(x_attrs) + len(y_attrs), 0, "the parity relation")
    schema = Schema(attributes, tuple(_BINARY for _ in attributes))
    p = attributes.index(pivot)
    xy = len(x_attrs) + len(y_attrs)
    choices = [_BINARY] * xy + [("0",)] * len(z_attrs)
    parity_rows = [
        row
        for row in itertools.product(*choices)
        if int(row[p]) == sum(int(v) for j, v in enumerate(row) if j != p) % 2
    ]
    nulled = [row[:p] + (NULL,) + row[p + 1 :] for row in parity_rows]
    return Relation.from_rows(schema, parity_rows + nulled)


def constancy_counterexample(attribute: str, universe: tuple[str, ...]) -> Relation:
    """The complete two-row product relation in which only the given column
    varies; it refutes possible self-independence of that column while
    satisfying every possible atom avoiding it on one side."""
    if attribute not in universe:
        raise ValueError(f"{attribute!r} must be part of the universe")
    attributes = tuple(sorted(universe))
    schema = Schema(attributes, tuple(_BINARY for _ in attributes))
    choices = [
        _BINARY if a == attribute else ("0",) for a in attributes
    ]
    return Relation.from_rows(schema, itertools.product(*choices))


# -- CNF reduction -----------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """Conjunctive normal form over variables 1..num_vars; a literal is a
    signed variable index.  Clauses must be non-empty."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
        for clause in self.clauses:
            if not clause:
                raise ValueError("clauses must be non-empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    @classmethod
    def from_dimacs(cls, text: str) -> CnfFormula:
        num_vars = 0
        clauses: list[tuple[int, ...]] = []
        pending: list[int] = []
        header_clauses = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line.startswith("%"):  # end of the clauses in SATLIB files
                break
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                if header_clauses is not None:
                    raise ParseError(f"line {lineno}: a second DIMACS header")
                if clauses or pending:
                    raise ParseError(f"line {lineno}: DIMACS header after a clause")
                parts = line.split()
                if len(parts) < 4 or parts[1] != "cnf" or not all(
                    part.isdigit() for part in parts[2:4]
                ):
                    raise ParseError(f"bad DIMACS header: {line!r}")
                num_vars, header_clauses = int(parts[2]), int(parts[3])
                continue
            for token in line.split():
                try:
                    lit = int(token)
                except ValueError:
                    raise ParseError(f"line {lineno}: {token!r} is not a literal") from None
                if header_clauses is not None and abs(lit) > num_vars:
                    raise ParseError(f"line {lineno}: literal {lit} outside the header's 1..{num_vars}")
                if lit == 0:
                    if not pending:
                        raise ParseError(f"line {lineno}: empty clause")
                    clauses.append(tuple(pending))
                    pending.clear()
                else:
                    pending.append(lit)
                    num_vars = max(num_vars, abs(lit))
        if pending:
            clauses.append(tuple(pending))
        if header_clauses is None and not clauses:
            raise ParseError("no DIMACS content found")
        if header_clauses is not None and header_clauses != len(clauses):
            raise ParseError(
                f"DIMACS header declares {header_clauses} clauses, found {len(clauses)}"
            )
        return cls(num_vars, tuple(clauses))

    def variables(self) -> tuple[int, ...]:
        seen = sorted({abs(l) for clause in self.clauses for l in clause})
        return tuple(seen)


def _literal_name(lit: int) -> str:
    return f"p{lit}" if lit > 0 else f"~p{-lit}"


def cnf_to_relation(phi: CnfFormula) -> tuple[Relation, Atom]:
    """The satisfiability reduction: a relation over V, P, C whose possible
    independence of VP from C holds exactly when the formula is satisfiable.

    Each variable contributes a block fixing a sign per literal; each clause
    block, through one plus-row and width-minus-one wildcard rows, can only
    be completed when some literal of the clause went positive.  Repeated
    literals in a clause are dropped; the blocks need one row per distinct
    literal."""
    variables = phi.variables()
    literal_values = tuple(
        name for v in variables for name in (f"p{v}", f"~p{v}")
    )
    clause_names = tuple(f"c{i}" for i in range(1, len(phi.clauses) + 1))
    var_names = tuple(f"p{v}" for v in variables)
    goal = Atom(frozenset({"V", "P"}), frozenset({"C"}), POSSIBLE)
    if not variables:
        schema = Schema(
            ("V", "P", "C"),
            (("p1", "~p1"), ("+", "-"), ("p1", "c0")),
        )
        return Relation.from_rows(schema, []), goal
    schema = Schema(
        ("V", "P", "C"),
        (literal_values, ("+", "-"), var_names + clause_names),
    )
    rows: list[tuple[str, str, str]] = []
    counts: list[int] = []

    def add(v: str, p: str, c: str, count: int = 1) -> None:
        rows.append((v, p, c))
        counts.append(count)

    for v in variables:
        c = f"p{v}"
        add(NULL, "+", c)
        add(NULL, "-", c)
        for q in variables:
            if q != v:
                add(_literal_name(q), NULL, c)
                add(_literal_name(-q), NULL, c)
    for i, clause in enumerate(phi.clauses, start=1):
        c = f"c{i}"
        distinct = list(dict.fromkeys(clause))
        for lit in distinct:
            add(_literal_name(-lit), NULL, c)
        if len(distinct) > 1:
            add(NULL, NULL, c, count=len(distinct) - 1)
        add(NULL, "+", c)
        clause_vars = {abs(l) for l in distinct}
        for v in variables:
            if v not in clause_vars:
                add(_literal_name(v), NULL, c)
                add(_literal_name(-v), NULL, c)
    return Relation.from_rows(schema, rows, counts), goal


def sat_via_pia(phi: CnfFormula) -> bool:
    """Decide satisfiability through the reduction and the possible-atom
    checker."""
    relation, goal = cnf_to_relation(phi)
    return check_pia(relation, goal.lhs, goal.rhs).verdict
