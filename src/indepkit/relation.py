"""Incomplete-relation data model.

Relations are finite multisets of tuples over a schema whose attributes have
finite domains of non-null string values.  The null, an existing but unknown
value, is ``None`` in memory (the module constant ``NULL``) and ``*`` in
files; it is implicitly a member of every domain.  A *grounding* replaces
every null cell, independently for each copy of a tuple, with a value from
that attribute's domain; this module only holds the data, and the grounding
oracle in ``model_check`` counts and enumerates groundings.

A domain value must be one a relation file can carry: not empty, without
surrounding blanks or a carriage return (files are read with universal
newlines), and not the escape ``\\*``.  So must an attribute name: not
empty, without surrounding blanks or a carriage return, and not the
multiplicity column ``#count``.

Rows are stored positionally: a tuple of cell strings aligned with
``Schema.attributes``.  Multiplicities are kept explicitly on distinct rows
(canonical multiset form); duplicate rows merge on construction.

CSV files are read in one pass: each record is checked for its width and
multiplicity and merged into the distinct rows as it is read, and each
distinct raw cell string is converted once per file.  Domain checks then run
per column over the distinct rows, one set difference each; only when one
fails is the relation scanned row by row, so the error names the first bad
cell in row order.  Inferred domains need no check, as they are taken from
the data.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from typing import Collection, Container, Iterable, Mapping, Sequence

from .errors import ParseError, SchemaError


NULL = None

# Cells are domain strings or the null.
Cell = str | None

COUNT_COLUMN = "#count"

_SYNTHETIC_PREFIX = "_v"


@dataclass(frozen=True)
class Schema:
    """Ordered attribute names plus, per attribute, its non-null domain."""

    attributes: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.attributes) != len(self.domains):
            raise SchemaError("one domain required per attribute")
        seen = set()
        for name in self.attributes:
            if not name:
                raise SchemaError("attribute names must be non-empty")
            if name != name.strip() or "\r" in name or name == COUNT_COLUMN:
                raise SchemaError(
                    f"attribute {name!r} is a name a relation file cannot carry"
                )
            if name in seen:
                raise SchemaError(f"duplicate attribute {name!r}")
            seen.add(name)
        for name, dom in zip(self.attributes, self.domains):
            values = set(dom)
            if len(values) != len(dom):
                raise SchemaError(f"domain of {name!r} lists a value twice")
            if NULL in values:
                raise SchemaError(
                    f"domain of {name!r} must not contain the null marker"
                )
            if len(values) < 2:
                raise SchemaError(f"domain of {name!r} needs at least 2 values")
            for v in dom:
                if not v or v != v.strip() or v == "\\*" or "\r" in v:
                    raise SchemaError(
                        f"domain of {name!r} holds {v!r}, which a relation file cannot carry"
                    )
        object.__setattr__(
            self, "_index", {a: i for i, a in enumerate(self.attributes)}
        )

    @classmethod
    def of(cls, attributes: Iterable[str], domains: Mapping[str, Iterable[str]]) -> Schema:
        attrs = tuple(attributes)
        missing = [a for a in attrs if a not in domains]
        if missing:
            raise SchemaError(f"no domain given for {', '.join(missing)}")
        return cls(attrs, tuple(tuple(domains[a]) for a in attrs))

    def index(self, attribute: str) -> int:
        try:
            return self._index[attribute]  # type: ignore[attr-defined]
        except KeyError:
            raise SchemaError(f"unknown attribute {attribute!r}") from None

    def indices(self, attributes: Iterable[str]) -> tuple[int, ...]:
        """Positions of the given attributes, in schema order."""
        return tuple(sorted({self.index(a) for a in attributes}))


_NULL_ONLY = (NULL,)


def _fits(schema: Schema, rows: Collection[tuple[Cell, ...]]) -> bool:
    """Does every row have the schema's width and every cell lie in its
    column's domain or be null?  One set difference per column."""
    width = len(schema.attributes)
    return all(map(width.__eq__, map(len, rows))) and not any(
        set(column).difference(dom, _NULL_ONLY)
        for dom, column in zip(schema.domains, zip(*rows))
    )


def _raise_first_invalid(
    schema: Schema, rows: Sequence[tuple[Cell, ...]], counts: Sequence[int]
) -> None:
    """Raise ``SchemaError`` for the first row, in order, of the wrong width
    or with a cell outside its domain; failing that, for the first bad
    multiplicity."""
    width = len(schema.attributes)
    domain_sets = [set(d) for d in schema.domains]
    for row in rows:
        if len(row) != width:
            raise SchemaError(
                f"row width {len(row)} does not match schema width {width}"
            )
        for value, dom, attr in zip(row, domain_sets, schema.attributes):
            if value != NULL and value not in dom:
                raise SchemaError(f"value {value!r} not in the domain of {attr!r}")
    for c in counts:
        if not isinstance(c, int) or c < 1:
            raise SchemaError(f"multiplicity must be a positive integer, got {c!r}")


@dataclass(frozen=True, eq=False)
class Relation:
    """A finite multiset of rows over a schema.

    ``rows`` holds pairwise distinct value tuples, ``counts`` their positive
    multiplicities.  Instances are immutable and compare as multisets (row
    order is irrelevant for equality).
    """

    schema: Schema
    rows: tuple[tuple[Cell, ...], ...]
    counts: tuple[int, ...]

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Sequence[Cell]],
        counts: Iterable[int] | None = None,
    ) -> Relation:
        """Build a relation, merging duplicate rows in first-seen order.  A row outside
        the schema or a count that is not a positive integer raises ``SchemaError``."""
        row_list = [tuple(r) for r in rows]
        count_list = list(counts) if counts is not None else [1] * len(row_list)
        if len(row_list) != len(count_list):
            raise SchemaError("one multiplicity required per row")
        if counts is not None:
            for c in count_list:
                if not isinstance(c, int) or c < 1:
                    _raise_first_invalid(schema, row_list, count_list)
        merged: dict[tuple[Cell, ...], int] = {}
        for row, c in zip(row_list, count_list):
            merged[row] = merged.get(row, 0) + c
        if not _fits(schema, merged):
            _raise_first_invalid(schema, row_list, count_list)
        return cls(schema, tuple(merged), tuple(merged.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and dict(
            zip(self.rows, self.counts)
        ) == dict(zip(other.rows, other.counts))

    def __hash__(self) -> int:
        return hash((self.schema, frozenset(zip(self.rows, self.counts))))

    def __repr__(self) -> str:
        return (
            f"Relation({self.size} rows, {len(self.rows)} distinct, "
            f"attributes {', '.join(self.schema.attributes)})"
        )

    @property
    def size(self) -> int:
        """Total multiplicity."""
        return sum(self.counts)

    def project(self, attributes: Iterable[str]) -> Relation:
        """Projection onto the given attributes; multiplicities are summed
        over rows that agree on them, so the total multiplicity is preserved."""
        idx = self.schema.indices(attributes)
        sub_schema = Schema(
            tuple(self.schema.attributes[i] for i in idx),
            tuple(self.schema.domains[i] for i in idx),
        )
        merged: dict[tuple[Cell, ...], int] = {}
        for row, c in zip(self.rows, self.counts):
            key = tuple(row[i] for i in idx)
            merged[key] = merged.get(key, 0) + c
        return Relation(sub_schema, tuple(merged), tuple(merged.values()))


# -- CSV and JSON interchange ---------------------------------------------
#
# Relation files are CSV: first row attribute names, optional final column
# "#count" holding multiplicities, cell "*" meaning null (``None`` in memory)
# and "\*" escaping a literal asterisk value.  Cells are stripped, and an
# empty cell in a record that is not all blank reads as the empty string,
# which no domain holds.
# Domains may come from a sidecar JSON object that maps each attribute to its
# array of non-null values.


def _read_cell(cell: str) -> Cell:
    cell = cell.strip()
    if cell == "*":
        return NULL
    if cell == "\\*":
        return "*"
    return cell


def _write_cell(value: Cell) -> str:
    if value is NULL:
        return "*"
    if value == "*":
        return "\\*"
    return value


def _synthetic_names(taken: Container[str], how_many: int) -> list[str]:
    """The first ``how_many`` of the names ``_v1``, ``_v2``, ... not taken."""
    names = (f"{_SYNTHETIC_PREFIX}{i}" for i in itertools.count(1))
    return list(itertools.islice((n for n in names if n not in taken), how_many))


class _CellMemo(dict):
    """Raw CSV cell string -> cell, converting each distinct string once."""

    __slots__ = ()

    def __missing__(self, raw: str) -> Cell:
        cell = self[raw] = _read_cell(raw)
        return cell


def infer_domains(
    attributes: Sequence[str], rows: Sequence[Sequence[Cell]]
) -> dict[str, tuple[str, ...]]:
    """Observed column values, padded with synthetic names to at least two,
    plus one spare value when the column shows a null.  The spare lets a null
    take a value the data never shows, which is all a certain atom asks;
    possible atoms never need one, and multiplicities play no part."""
    columns = zip(*rows) if rows else itertools.repeat(())
    domains: dict[str, tuple[str, ...]] = {}
    for attr, column in zip(attributes, columns):
        seen = dict.fromkeys(column)
        has_null = NULL in seen
        if has_null:
            del seen[NULL]
        base = list(seen)
        base += _synthetic_names(seen, max(2 - len(base), 0) + has_null)
        domains[attr] = tuple(base)
    return domains


def _read_records(
    reader, width: int, with_counts: bool
) -> dict[tuple[Cell, ...], int]:
    """The distinct rows of the records after the header, each with its
    summed multiplicity, in first-seen order.  Blank records are skipped."""
    read = _CellMemo().__getitem__
    n = width - with_counts
    blank = ("",) * n  # a record of blank cells reads as this row
    merged: dict[tuple[Cell, ...], int] = {}
    for record in reader:
        if len(record) != width:
            if any(cell.strip() for cell in record):
                raise ParseError(
                    f"line {reader.line_num}: expected {width} cells, got {len(record)}"
                )
            continue
        if not with_counts:
            row = tuple(map(read, record))
            if row != blank:
                merged[row] = merged.get(row, 0) + 1
            continue
        row = tuple(map(read, record[:n]))
        raw = record[n].strip()
        if not raw and row == blank:
            continue
        try:
            count = int(raw)
        except ValueError:
            raise ParseError(f"line {reader.line_num}: bad multiplicity {raw!r}") from None
        if count < 1:
            raise ParseError(f"line {reader.line_num}: multiplicity must be positive")
        merged[row] = merged.get(row, 0) + count
    return merged


def relation_from_csv(text: str, domains: Mapping[str, Iterable[str]] | None = None) -> Relation:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty relation file")
        header = [h.strip() for h in header]
        with_counts = bool(header) and header[-1] == COUNT_COLUMN
        attributes = header[:-1] if with_counts else header
        if not attributes:
            raise ParseError("relation file has no attribute columns")
        merged = _read_records(reader, len(header), with_counts)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    rows = tuple(merged)
    if domains is None:
        # values taken from the data lie in their own domains
        schema = Schema.of(attributes, infer_domains(attributes, rows))
    else:
        schema = Schema.of(attributes, {a: tuple(vs) for a, vs in domains.items()})
        if not _fits(schema, rows):
            _raise_first_invalid(schema, rows, ())
    return Relation(schema, rows, tuple(merged.values()))


def relation_to_csv(relation: Relation) -> str:
    """CSV text of the relation.  The csv module would write a null as an
    empty cell, so cells are written one by one, nulls as ``*`` and literal
    asterisks as ``\\*``, when the relation holds a null or some domain holds
    a literal asterisk; a complete relation is written as it is."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    with_counts = any(c != 1 for c in relation.counts)
    header = list(relation.schema.attributes)
    if with_counts:
        header.append(COUNT_COLUMN)
    writer.writerow(header)
    rows: Iterable[Sequence[Cell | int]] = relation.rows
    if any("*" in dom for dom in relation.schema.domains) or any(
        NULL in row for row in rows
    ):
        rows = (tuple(map(_write_cell, row)) for row in rows)
    if with_counts:
        rows = ((*row, c) for row, c in zip(rows, relation.counts))
    writer.writerows(rows)
    return out.getvalue()


def domains_from_json(text: str) -> dict[str, tuple[str, ...]]:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ParseError("domain file must be a JSON object")
    out: dict[str, tuple[str, ...]] = {}
    for attr, values in data.items():
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise ParseError(f"domain of {attr!r} must be an array of strings")
        out[attr] = tuple(values)
    return out


def domains_to_json(schema: Schema) -> str:
    return json.dumps(
        {a: list(d) for a, d in zip(schema.attributes, schema.domains)},
        indent=2,
    )


def read_relation(path: str, domains_path: str | None = None) -> Relation:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    domains = None
    if domains_path is not None:
        with open(domains_path, encoding="utf-8") as fh:
            domains = domains_from_json(fh.read())
    return relation_from_csv(text, domains)
