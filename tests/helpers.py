"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
import string
from collections import Counter
from typing import Iterable

from indepkit import (
    Atom,
    CnfFormula,
    NULL,
    PLAIN,
    Relation,
    Schema,
)

ATTR_NAMES = tuple(string.ascii_uppercase)


def make_atom(lhs: Iterable[str], rhs: Iterable[str], modality: str = PLAIN) -> Atom:
    return Atom(frozenset(lhs), frozenset(rhs), modality)


def groundings(r: Relation) -> list[Relation]:
    """Every grounding of the relation, from the definition: each copy of
    each row grounds its null cells to values of their columns' domains,
    independently of the other copies.  Copies come in row order and cells
    in column order, the last cell varying fastest."""
    partial: list[list[tuple]] = [[]]
    for row, c in zip(r.rows, r.counts):
        choices = [r.schema.domains[j] if v is NULL else (v,) for j, v in enumerate(row)]
        for _ in range(c):
            partial = [rows + [g] for rows in partial for g in itertools.product(*choices)]
    return [Relation.from_rows(r.schema, rows, validate=False) for rows in partial]


def count_groundings(r: Relation, cols: Iterable[int] | None = None) -> int:
    """The number of groundings of the given columns (all by default): the
    product of |Dom(A)| over every null cell in them of every tuple copy."""
    cols = range(len(r.schema.attributes)) if cols is None else cols
    n = 1
    for row, c in zip(r.rows, r.counts):
        for j in cols:
            if row[j] is NULL:
                n *= len(r.schema.domains[j]) ** c
    return n


def random_relation(
    rng: random.Random,
    max_attrs: int = 4,
    max_tuples: int = 5,
    max_count: int = 2,
    max_domain: int = 3,
    null_probability: float = 0.22,
    grounding_cap: int = 2**16,
) -> Relation:
    """A random relation with explicit domains and a capped grounding count."""
    while True:
        width = rng.randint(1, max_attrs)
        attrs = ATTR_NAMES[:width]
        domains = tuple(
            tuple(str(v) for v in range(rng.randint(2, max_domain)))
            for _ in attrs
        )
        schema = Schema(attrs, domains)
        n_rows = rng.randint(1, max_tuples)
        rows = []
        counts = []
        for _ in range(n_rows):
            row = tuple(
                NULL if rng.random() < null_probability else rng.choice(domains[j])
                for j in range(width)
            )
            rows.append(row)
            counts.append(rng.randint(1, max_count))
        relation = Relation.from_rows(schema, rows, counts)
        if count_groundings(relation) <= grounding_cap:
            return relation


def saturated_relation(
    rng: random.Random,
    max_attrs: int = 4,
    max_domain: int = 3,
    max_extra: int = 4,
    grounding_cap: int = 2**12,
) -> Relation:
    """A random relation whose domains leave no spare value on two of its
    columns: the full product of their domains (other cells random), plus up
    to ``max_extra`` rows with 30 % nulls; multiplicities up to 2."""
    while True:
        width = rng.randint(2, max_attrs)
        domains = tuple(
            tuple(str(v) for v in range(rng.randint(2, max_domain))) for _ in range(width)
        )
        a, b = rng.sample(range(width), 2)
        rows = []
        for va, vb in itertools.product(domains[a], domains[b]):
            row = [rng.choice(d) for d in domains]
            row[a], row[b] = va, vb
            rows.append(row)
        for _ in range(rng.randint(0, max_extra)):
            rows.append([NULL if rng.random() < 0.3 else rng.choice(d) for d in domains])
        counts = [rng.randint(1, 2) for _ in rows]
        relation = Relation.from_rows(Schema(ATTR_NAMES[:width], domains), rows, counts)
        if count_groundings(relation) <= grounding_cap:
            return relation


def random_sides(
    rng: random.Random, schema: Schema
) -> tuple[frozenset[str], frozenset[str]]:
    """Two random attribute sets; overlap and empty sides occur."""
    lhs = frozenset(a for a in schema.attributes if rng.random() < 0.45)
    rhs = frozenset(a for a in schema.attributes if rng.random() < 0.45)
    return lhs, rhs


def random_atom_set(
    rng: random.Random,
    universe: tuple[str, ...],
    modalities: tuple[str, ...],
    max_atoms: int = 4,
    disjoint: bool = False,
) -> list[Atom]:
    atoms: list[Atom] = []
    for _ in range(rng.randint(1, max_atoms)):
        lhs = frozenset(a for a in universe if rng.random() < 0.4)
        rhs = frozenset(a for a in universe if rng.random() < 0.4)
        if disjoint:
            rhs = rhs - lhs
        atoms.append(Atom(lhs, rhs, rng.choice(modalities)))
    return atoms


def is_grounding(r: Relation, witness: Relation) -> bool:
    """Is the witness complete and a one-to-one match of the relation's
    copies in which every non-null cell is kept?"""
    if any(NULL in row for row in witness.rows) or witness.size != r.size:
        return False
    # a complete row needs copies equal to it, and those are interchangeable,
    # so complete rows take theirs first; the rows with a null then match the
    # copies left over
    left = Counter(dict(zip(witness.rows, witness.counts)))
    rows = []
    for row, c in zip(r.rows, r.counts):
        if NULL in row:
            rows.extend([row] * c)
        elif left[row] < c:
            return False
        else:
            left[row] -= c
    copies = [row for row, c in left.items() for _ in range(c)]
    holder = [-1] * len(copies)  # copy -> index of the row it grounds

    def place(i: int, seen: set[int]) -> bool:
        for k, copy in enumerate(copies):
            if k in seen or any(v is not NULL and v != w for v, w in zip(rows[i], copy)):
                continue
            seen.add(k)
            if holder[k] < 0 or place(holder[k], seen):
                holder[k] = i
                return True
        return False

    return all(place(i, set()) for i in range(len(rows)))


def brute_force_sat(phi: CnfFormula) -> bool:
    variables = phi.variables()
    if not variables:
        return True
    for bits in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(
            any((lit > 0) == assignment[abs(lit)] for lit in clause)
            for clause in phi.clauses
        ):
            return True
    return False


def random_cnf(
    rng: random.Random, max_vars: int = 4, max_clauses: int = 4, max_width: int = 3
) -> CnfFormula:
    n_vars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, max_width)
        clause = tuple(
            rng.choice((1, -1)) * rng.randint(1, n_vars) for _ in range(width)
        )
        clauses.append(clause)
    return CnfFormula(n_vars, tuple(clauses))


def reference_domains(
    attributes: Iterable[str], rows: Iterable[tuple]
) -> dict[str, tuple[str, ...]]:
    """Inferred domains computed cell by cell: each column's non-null values
    in the order the rows show them, then the first of ``_v1``, ``_v2``, ...
    not already taken, up to two values, plus one more when the column shows
    a null."""
    rows = list(rows)
    domains = {}
    for j, attr in enumerate(attributes):
        values: list[str] = []
        has_null = False
        for row in rows:
            if row[j] is NULL:
                has_null = True
            elif row[j] not in values:
                values.append(row[j])
        wanted = max(len(values), 2) + has_null
        k = 1
        while len(values) < wanted:
            if f"_v{k}" not in values:
                values.append(f"_v{k}")
            k += 1
        domains[attr] = tuple(values)
    return domains
