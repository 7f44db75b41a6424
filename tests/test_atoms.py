from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indepkit import (
    Atom,
    CERTAIN,
    FragmentError,
    PLAIN,
    POSSIBLE,
    ParseError,
    Schema,
    is_disjoint,
    is_pia_star,
    parse_atom,
    parse_constraints,
    render_atom,
)
from helpers import make_atom


def schema_esg() -> Schema:
    return Schema(
        ("e", "s", "g", "status", "gender", "X1", "X2", "Y1"),
        tuple(("0", "1") for _ in range(8)),
    )


class TestParse:
    def test_possible_operator(self):
        atom = parse_atom("e _||_p s", schema_esg())
        assert atom == make_atom({"e"}, {"s"}, POSSIBLE)

    def test_certain_with_empty_rhs(self):
        atom = parse_atom("status,gender _||_c {}", schema_esg())
        assert atom == make_atom({"status", "gender"}, set(), CERTAIN)

    def test_plain_operator(self):
        atom = parse_atom("X1,X2 _||_ Y1", schema_esg())
        assert atom == make_atom({"X1", "X2"}, {"Y1"}, PLAIN)

    @pytest.mark.parametrize(
        "text,modality",
        [("e ⊥ s", PLAIN), ("e ⊥p s", POSSIBLE), ("e ⊥c s", CERTAIN)],
    )
    def test_unicode_aliases(self, text, modality):
        assert parse_atom(text, schema_esg()).modality == modality

    def test_unknown_attribute_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_atom("e _||_ nope", schema_esg())
        assert "nope" in str(err.value) and "column" in str(err.value)

    def test_missing_operator(self):
        with pytest.raises(ParseError):
            parse_atom("e s", schema_esg())

    def test_gibberish_side(self):
        with pytest.raises(ParseError):
            parse_atom("e,, _||_ s", schema_esg())

    @pytest.mark.parametrize(
        "text,column",
        [("A _||_c B _||_c C", 11), ("A ⊥ B ⊥c C", 7), ("A _||_ B,C _||_p D", 12)],
    )
    def test_second_operator_is_an_error(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_atom(text)
        assert err.value.position == column - 1
        assert f"at column {column}" in str(err.value)

    @pytest.mark.parametrize(
        "text,message,column",
        [
            ("e,, _||_ s", "missing attribute name", 3),
            ("e _||_ s,,", "missing attribute name", 10),
            ("ab,a _||_ s", "unknown attribute 'a'", 4),
            ("e _||_ s, ab,a", "unknown attribute 'a'", 14),
            ("e _||_ ", "empty attribute list", 7),
            ("{e} _||_ s", "braces are only allowed", 1),
        ],
    )
    def test_error_points_at_the_name(self, text, message, column):
        schema = Schema(("ab", "s", "e"), (("0", "1"),) * 3)
        with pytest.raises(ParseError) as err:
            parse_atom(text, schema)
        assert str(err.value).startswith(message)
        assert err.value.position == column - 1

    @pytest.mark.parametrize(
        "text,modality,rhs",
        [
            ("A ⊥pq", PLAIN, {"pq"}),
            ("A _||_cB", PLAIN, {"cB"}),
            ("A ⊥p{}", POSSIBLE, set()),
            ("A _||_c|B", CERTAIN, {"|B"}),
            ("A _||_p\tB", POSSIBLE, {"B"}),
        ],
    )
    def test_suffix_only_before_a_non_identifier_character(self, text, modality, rhs):
        assert parse_atom(text) == make_atom({"A"}, rhs, modality)

    def test_second_operator_in_a_constraint_file(self):
        with pytest.raises(ParseError) as err:
            parse_constraints("A _||_c B _||_c C\n")
        assert str(err.value).startswith("line 1:")
        assert "at column 11" in str(err.value)

    def test_without_schema_any_identifier(self):
        atom = parse_atom("foo,bar _||_p baz")
        assert atom == make_atom({"foo", "bar"}, {"baz"}, POSSIBLE)

    def test_constraint_file(self):
        text = "# premises\ne _||_c s\n\ne,s _||_p g  # comment\ne _||_c s\n"
        atoms = parse_constraints(text)
        assert atoms == [
            make_atom({"e"}, {"s"}, CERTAIN),
            make_atom({"e", "s"}, {"g"}, POSSIBLE),
        ]


class TestRender:
    def test_schema_order(self):
        atom = make_atom({"s", "e"}, {"g"}, POSSIBLE)
        assert render_atom(atom, schema_esg()) == "e,s _||_p g"

    def test_empty_side(self):
        assert render_atom(make_atom({"e"}, set())) == "e _||_ {}"

    def test_unicode(self):
        assert render_atom(make_atom({"e"}, {"s"}, CERTAIN), unicode_ops=True) == "e ⊥c s"


class TestShape:
    def test_disjoint(self):
        assert is_disjoint(make_atom({"A"}, {"B"}))
        assert not is_disjoint(make_atom({"A"}, {"A"}))
        assert not is_disjoint(make_atom({"A", "B"}, {"B", "C"}))

    def test_pia_star_singleton_side(self):
        assert is_pia_star(make_atom({"A"}, {"B", "C", "D"}, POSSIBLE))

    def test_pia_star_near_equal_sides(self):
        assert is_pia_star(make_atom({"A", "B"}, {"C", "D", "E"}, POSSIBLE))

    def test_pia_star_rejects_wide_gap(self):
        assert not is_pia_star(make_atom({"A", "B"}, {"C", "D", "E", "F"}, POSSIBLE))

    def test_pia_star_requires_possible(self):
        with pytest.raises(FragmentError):
            is_pia_star(make_atom({"A"}, {"B"}, CERTAIN))

    def test_atom_equality_is_oriented(self):
        assert make_atom({"A"}, {"B"}) != make_atom({"B"}, {"A"})
        assert make_atom({"A", "B"}, {"C"}) == make_atom({"B", "A"}, {"C"})


names = st.text(alphabet="abcdeXYZ_", min_size=1, max_size=3)
sides = st.frozensets(names, max_size=4)


@given(lhs=sides, rhs=sides, modality=st.sampled_from([PLAIN, POSSIBLE, CERTAIN]))
@settings(max_examples=200, deadline=None)
def test_parse_render_round_trip(lhs, rhs, modality):
    atom = Atom(lhs, rhs, modality)
    assert parse_atom(render_atom(atom)) == atom
    assert parse_atom(render_atom(atom, unicode_ops=True)) == atom
