from __future__ import annotations

import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indepkit import (
    NULL,
    ParseError,
    Relation,
    Schema,
    SchemaError,
    domains_from_json,
    domains_to_json,
    infer_domains,
    relation_from_csv,
    relation_to_csv,
)
from helpers import count_groundings, groundings, random_relation, reference_domains


def binary_schema(*attrs: str) -> Schema:
    return Schema(tuple(attrs), tuple(("0", "1") for _ in attrs))


class TestSchema:
    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema(("A", "A"), (("0", "1"), ("0", "1")))

    def test_small_domain_rejected(self):
        with pytest.raises(SchemaError):
            Schema(("A",), (("0",),))

    def test_null_marker_not_a_domain_value(self):
        with pytest.raises(SchemaError):
            Schema(("A",), (("0", NULL),))

    @pytest.mark.parametrize("value", ["", " a", "a ", "\ta", "a\n", " ", "\\*", "a\rb"])
    def test_values_a_relation_file_cannot_carry_are_rejected(self, value):
        with pytest.raises(SchemaError, match=re.escape(f"domain of 'B' holds {value!r}")):
            Schema(("A", "B"), (("0", "1"), ("x", value)))

    @pytest.mark.parametrize("name", [" A", "A ", "\tA", "A\n", "A\rB", "#count"])
    def test_names_a_relation_file_cannot_carry_are_rejected(self, name):
        # surrounding blanks are stripped from a header, "\r" comes back as
        # "\n", and a last column "#count" reads as the multiplicities
        with pytest.raises(SchemaError, match=re.escape(f"attribute {name!r} is a name")):
            binary_schema("B", name)


class TestProjection:
    def test_running_example_projection(self, table1):
        projected = table1.project(["s", "r"])
        assert dict(zip(projected.rows, projected.counts)) == {
            ("not-in-family", "white"): 2,
            ("in-family", "white"): 1,
            ("in-family", NULL): 1,
        }

    def test_identity_projection(self, table1):
        assert table1.project(table1.schema.attributes) == table1

    def test_multiplicity_conserved_on_random_relations(self):
        rng = random.Random(1)
        for _ in range(50):
            r = random_relation(rng)
            attrs = [a for a in r.schema.attributes if rng.random() < 0.5]
            projected = r.project(attrs)
            # recompute the sums directly from the unprojected rows
            direct: dict[tuple[str, ...], int] = {}
            idx = r.schema.indices(attrs)
            for row, c in zip(r.rows, r.counts):
                key = tuple(row[i] for i in idx)
                direct[key] = direct.get(key, 0) + c
            assert dict(zip(projected.rows, projected.counts)) == direct
            assert projected.size == r.size

    def test_nested_projection_collapses(self):
        rng = random.Random(2)
        for _ in range(25):
            r = random_relation(rng)
            attrs = list(r.schema.attributes)
            rng.shuffle(attrs)
            outer = attrs[: max(1, len(attrs) - 1)]
            inner = outer[: max(1, len(outer) - 1)]
            assert r.project(outer).project(inner) == r.project(inner)

    def test_unknown_attribute(self, table1):
        with pytest.raises(SchemaError):
            table1.project(["nope"])


class TestMultiset:
    def test_duplicate_rows_merge(self):
        schema = binary_schema("A")
        r = Relation.from_rows(schema, [("0",), ("0",), ("1",)])
        assert dict(zip(r.rows, r.counts)) == {("0",): 2, ("1",): 1}
        assert r.size == 3

    def test_equality_ignores_row_order(self):
        schema = binary_schema("A", "B")
        r1 = Relation.from_rows(schema, [("0", "1"), ("1", "0")])
        r2 = Relation.from_rows(schema, [("1", "0"), ("0", "1")])
        assert r1 == r2 and hash(r1) == hash(r2)

    def test_none_is_a_null_cell(self):
        r = Relation.from_rows(binary_schema("A", "B"), [("0", None), ("0", NULL)])
        assert NULL is None
        assert r.rows == (("0", NULL),) and r.counts == (2,)
        assert count_groundings(r) == 4
        assert relation_to_csv(r) == "A,B,#count\n0,*,2\n"

    def test_value_outside_domain_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_rows(binary_schema("A"), [("2",)])

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_rows(binary_schema("A"), [("0",)], [0])

    def test_first_bad_cell_in_row_order_is_named(self):
        # the first row is bad in its later column, the second in its first
        schema = binary_schema("A", "B")
        with pytest.raises(SchemaError, match="value '2' not in the domain of 'B'"):
            Relation.from_rows(schema, [("0", "2"), ("3", "0")])
        # a bad cell is named before a bad multiplicity of an earlier row
        with pytest.raises(SchemaError, match="value '5'"):
            Relation.from_rows(schema, [("0", "0"), ("0", "5")], [0, 1])
        with pytest.raises(SchemaError, match="row width 1"):
            Relation.from_rows(schema, [("0", "0"), ("0",), ("0", "7")])


class TestGroundings:
    def test_single_null_cell(self):
        r = Relation.from_rows(binary_schema("A"), [(NULL,)])
        found = groundings(r)
        assert len(found) == 2
        assert found[0].rows == (("0",),) and found[1].rows == (("1",),)

    def test_count_complete_relation(self, world1):
        assert count_groundings(world1) == 1
        assert all(NULL not in row for row in world1.rows)

    def test_count_independent_copies(self):
        r = Relation.from_rows(binary_schema("A", "B"), [(NULL, NULL)], [2])
        assert count_groundings(r) == 16
        assert len(groundings(r)) == 16

    def test_count_matches_stream_length(self):
        rng = random.Random(3)
        for _ in range(40):
            r = random_relation(rng, grounding_cap=2**12)
            all_groundings = groundings(r)
            assert len(all_groundings) == count_groundings(r)
            for g in all_groundings:
                assert g.size == r.size

    def test_groundings_agree_on_non_nulls(self):
        rng = random.Random(4)
        for _ in range(20):
            r = random_relation(rng, grounding_cap=2**10)
            domain_sets = [set(d) for d in r.schema.domains]
            all_groundings = groundings(r)
            for g in all_groundings:
                assert all(NULL not in row for row in g.rows)
                for row in g.rows:
                    for j, v in enumerate(row):
                        assert v in domain_sets[j]
            # complete rows survive grounding with full multiplicity
            for row, c in zip(r.rows, r.counts):
                if NULL not in row:
                    for g in all_groundings:
                        assert dict(zip(g.rows, g.counts)).get(row, 0) >= c

    def test_table5_groundings(self):
        schema = binary_schema("A", "B", "C")
        r = Relation.from_rows(
            schema,
            [("0", "0", "0"), (NULL, "1", "0"), (NULL, "0", "1"), ("1", "1", "1")],
        )
        assert count_groundings(r) == 4
        assert len(groundings(r)) == 4


class TestCsv:
    def test_round_trip_with_counts(self):
        schema = Schema(("A", "B"), (("x", "y"), ("0", "1")))
        r = Relation.from_rows(schema, [("x", NULL), ("y", "1")], [3, 1])
        text = relation_to_csv(r)
        assert "#count" in text.splitlines()[0]
        back = relation_from_csv(text, {"A": ("x", "y"), "B": ("0", "1")})
        assert back == r

    def test_null_and_escaped_asterisk(self):
        schema = Schema(("A",), (("*", "x"),))
        r = Relation.from_rows(schema, [("*",), ("x",)])
        text = relation_to_csv(r)
        assert "\\*" in text
        back = relation_from_csv(text, {"A": ("*", "x")})
        assert back == r

    def test_inference_pads_small_columns(self, table1):
        # race: one observed value, one null cell -> padded to three values
        domain = dict(zip(table1.schema.attributes, table1.schema.domains))
        assert len(domain["r"]) == 3
        assert domain["r"][0] == "white"
        # status: two observed values, no nulls -> untouched
        assert set(domain["s"]) == {"not-in-family", "in-family"}
        # education: two observed values plus one spare for its two nulls
        assert len(domain["e"]) == 3

    def test_inference_formula(self):
        domains = infer_domains(("A",), [(NULL,), (NULL,)])
        # no observed values: pad to two, plus one spare for the nulls
        assert len(domains["A"]) == 3

    def test_blank_records_are_skipped(self):
        r = relation_from_csv("A,B\n\n0,1\n , \n\n1,0\n,\n")
        assert r.rows == (("0", "1"), ("1", "0")) and r.counts == (1, 1)
        r = relation_from_csv("A,B,#count\n\n0,1,2\n , , \n,,\n1,0,1\n,\n")
        assert r.rows == (("0", "1"), ("1", "0")) and r.counts == (2, 1)

    def test_blank_multiplicity_of_a_row_is_an_error(self):
        with pytest.raises(ParseError, match="line 2: bad multiplicity ''"):
            relation_from_csv("A,#count\nx, \n")

    def test_cells_are_stripped_and_duplicates_merge_in_order(self):
        r = relation_from_csv("A,B\n1,0\n 0,1\n0 ,1\n")
        assert r.rows == (("1", "0"), ("0", "1")) and r.counts == (1, 2)
        r = relation_from_csv("A,B,#count\n 0,1, 2\n1,0,1\n0 , 1 ,3 \n")
        assert r.rows == (("0", "1"), ("1", "0")) and r.counts == (5, 1)

    def test_header_only_file_gets_padded_domains(self):
        r = relation_from_csv("A,B\n")
        assert r.size == 0
        assert r.schema.domains == (("_v1", "_v2"), ("_v1", "_v2"))

    def test_escaped_asterisk_reads_as_a_literal(self):
        r = relation_from_csv("A\n\\*\n*\nx\n")
        assert r.rows == (("*",), (NULL,), ("x",))
        assert r.schema.domains == (("*", "x", "_v1"),)

    def test_sidecar_names_the_first_bad_cell_in_row_order(self):
        domains = {"A": ("0", "1"), "B": ("0", "1")}
        text = "A,B\n0,1\n0,2\n3,0\n"
        with pytest.raises(SchemaError, match="value '2' not in the domain of 'B'"):
            relation_from_csv(text, domains)
        with pytest.raises(SchemaError, match="value '3' not in the domain of 'A'"):
            relation_from_csv("A,B\n0,*\n3,0\n0,2\n", domains)

    def test_parse_errors_name_the_physical_line(self):
        text = 'A,B\n"x\ny",1\n\n0,1,2\n'
        with pytest.raises(ParseError, match="line 5: expected 2 cells, got 3"):
            relation_from_csv(text)
        with pytest.raises(ParseError, match="line 4: bad multiplicity 'many'"):
            relation_from_csv('A,#count\n"two\nlines",1\nx,many\n')

    def test_round_trip_on_random_relations(self):
        rng = random.Random(14)
        for case in range(300):
            r = _awkward_relation(rng, max_count=1 + case % 3)
            text = relation_to_csv(r)
            domains = dict(zip(r.schema.attributes, r.schema.domains))
            assert relation_from_csv(text, domains) == r
            inferred = relation_from_csv(text)
            assert inferred.rows == r.rows and inferred.counts == r.counts
            assert dict(zip(inferred.schema.attributes, inferred.schema.domains)) == (
                reference_domains(r.schema.attributes, r.rows)
            )

    def test_round_trip_over_every_value_the_schema_accepts(self):
        # random printable strings too; those the schema refuses are redrawn
        rng = random.Random(16)
        for case in range(300):
            r = _awkward_relation(rng, max_count=1 + case % 3, extra=6)
            domains = dict(zip(r.schema.attributes, r.schema.domains))
            assert relation_from_csv(relation_to_csv(r), domains) == r, r.schema

    def test_round_trip_over_every_name_the_schema_accepts(self):
        # random printable names too; those the schema refuses are redrawn
        rng = random.Random(17)
        for case in range(300):
            r = _awkward_relation(rng, max_count=1 + case % 3)
            names = _awkward_names(rng, len(r.schema.attributes), extra=6)
            r = Relation.from_rows(Schema(names, r.schema.domains), r.rows, r.counts)
            text = relation_to_csv(r)
            assert relation_from_csv(text, dict(zip(names, r.schema.domains))) == r, names
            assert relation_from_csv(text).schema.attributes == names

    def test_domain_json_round_trip(self, table1):
        parsed = domains_from_json(domains_to_json(table1.schema))
        assert parsed == {
            a: tuple(d)
            for a, d in zip(table1.schema.attributes, table1.schema.domains)
        }


# Domain values that need quoting or escaping in CSV, or that collide with
# the synthetic names of inferred domains.  The values the format cannot
# carry are refused by ``Schema``: the empty string, values with surrounding
# blanks or a carriage return (a file is read with universal newlines), and
# a literal ``\*``.
AWKWARD_VALUES = ("0", "1", "a,b", 'say "hi"', "*", "_v1", "two\nlines", "é")


# Attribute names that need quoting in CSV, or that look like a null, an
# escape or a synthetic value.  The names the format cannot carry are refused
# by ``Schema``: the empty name, names with surrounding blanks or a carriage
# return, and ``#count``.
AWKWARD_NAMES = ("A", "a,b", 'say "hi"', "two\nlines", "*", "\\*", "_v1", "#counts", "é")


def _awkward_names(rng: random.Random, width: int, extra: int) -> tuple[str, ...]:
    """``width`` distinct names drawn from the awkward names and ``extra``
    random printable strings of up to four characters, redrawn until the
    schema accepts them."""
    while True:
        pool = AWKWARD_NAMES + tuple(
            "".join(rng.choices(string.printable, k=rng.randint(0, 4))) for _ in range(extra)
        )
        names = tuple(rng.sample(pool, width))
        try:
            binary_schema(*names)
        except SchemaError:
            continue
        return names


def _awkward_relation(rng: random.Random, max_count: int, extra: int = 0) -> Relation:
    """``random_relation`` with its values renamed, per column, to distinct
    awkward values, or to those and ``extra`` random printable strings of up
    to four characters, redrawn until the schema accepts them."""
    base = random_relation(rng, max_count=max_count)
    while True:
        pool = AWKWARD_VALUES + tuple(
            "".join(rng.choices(string.printable, k=rng.randint(0, 4))) for _ in range(extra)
        )
        names = [rng.sample(pool, len(d)) for d in base.schema.domains]
        try:
            schema = Schema(base.schema.attributes, tuple(map(tuple, names)))
        except SchemaError:
            continue
        break
    rows = [
        tuple(v if v is NULL else names[j][int(v)] for j, v in enumerate(row))
        for row in base.rows
    ]
    return Relation.from_rows(schema, rows, base.counts)


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["0", "1", NULL]),
            st.sampled_from(["0", "1", NULL]),
        ),
        min_size=0,
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_projection_conserves_multiplicity_property(rows):
    schema = Schema(("A", "B"), (("0", "1"), ("0", "1")))
    r = Relation.from_rows(schema, rows)
    for attrs in ([], ["A"], ["B"], ["A", "B"]):
        assert r.project(attrs).size == r.size
