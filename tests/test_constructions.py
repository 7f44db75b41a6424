from __future__ import annotations

import random

import pytest

from indepkit import (
    CnfFormula,
    NULL,
    ParseError,
    check_cia_fast,
    check_ia,
    check_pia,
    cnf_to_relation,
    constancy_counterexample,
    exchange_failure_groundings,
    exchange_failure_relation,
    parity_relation,
    pia_separating_family,
    sat_via_pia,
)
from indepkit.model_check import check_pia_oracle, cia_oracle_report
from helpers import brute_force_sat, count_groundings, groundings, make_atom, random_cnf


class TestExchangeFailure:
    def test_exact_rows(self):
        r = exchange_failure_relation()
        assert r.schema.attributes == ("A", "B", "C")
        assert set(r.rows) == {
            ("0", "0", "0"),
            (NULL, "1", "0"),
            (NULL, "0", "1"),
            ("1", "1", "1"),
        }
        assert all(c == 1 for c in r.counts)

    def test_premises_hold_conclusion_fails(self):
        r = exchange_failure_relation()
        assert check_pia(r, {"A"}, {"B"}).verdict
        assert check_pia(r, {"A", "B"}, {"C"}).verdict
        assert not check_pia(r, {"A"}, {"B", "C"}).verdict
        assert check_pia_oracle(r, {"A"}, {"B"}).verdict
        assert check_pia_oracle(r, {"A", "B"}, {"C"}).verdict
        assert not check_pia_oracle(r, {"A"}, {"B", "C"}).verdict

    def test_companion_groundings_exact(self):
        r = exchange_failure_relation()
        first, second = exchange_failure_groundings()
        all_groundings = groundings(r)
        assert first in all_groundings and second in all_groundings
        assert check_ia(first, {"A"}, {"B"})
        assert check_ia(second, {"A", "B"}, {"C"})

    def test_grounding_count(self):
        assert count_groundings(exchange_failure_relation()) == 4


class TestSeparatingFamily:
    @pytest.mark.parametrize(
        "k,m,expected",
        [(1, 1, 3), (2, 1, 7), (2, 2, 11), (3, 2, 23), (3, 3, 55), (4, 2, 47)],
    )
    def test_row_count_formula(self, k, m, expected):
        fam = pia_separating_family(k, m)
        assert fam.size == expected

    def test_k3_m2_shape(self):
        fam = pia_separating_family(3, 2)
        # eight fully determined X patterns, then the all-null filler row
        assert fam.rows[0] == ("0", "0", "0", "0", "0")
        assert fam.rows[1] == ("0", "0", "1", "0", "1")
        assert fam.rows[2] == ("0", "1", "0", "1", "0")
        assert fam.rows[3] == ("0", "1", "1", NULL, NULL)
        assert fam.rows[-1] == (NULL,) * 5
        assert fam.counts[-1] == 15

    def test_k2_m1_shape(self):
        fam = pia_separating_family(2, 1)
        assert fam.rows[0] == ("0", "0", "0")
        assert fam.rows[1] == ("0", "1", "1")
        assert fam.rows[2] == ("1", "0", NULL)
        assert fam.rows[3] == ("1", "1", NULL)
        assert fam.counts[-1] == 3

    def test_extra_attributes_constant(self):
        fam = pia_separating_family(2, 2, extra=("Z1", "Z2"))
        for row in fam.rows:
            assert row[-2:] == ("0", "0")

    @pytest.mark.parametrize("k,m", [(2, 1), (2, 2), (3, 2)])
    def test_counting_bound_refutes_target(self, k, m):
        fam = pia_separating_family(k, m)
        x = {f"X{i}" for i in range(1, k + 1)}
        y = {f"Y{i}" for i in range(1, m + 1)}
        report = check_pia(fam, x, y)
        assert not report.verdict and report.stats["counting_bound"]

    def test_2_2_satisfied_atoms(self):
        fam = pia_separating_family(2, 2)
        # a side larger than X forces few values on the other side
        big = check_pia(fam, {"X1", "X2", "Y1"}, {"Y2"})
        assert big.verdict and check_ia(big.witness, {"X1", "X2", "Y1"}, {"Y2"})
        # sides of size exactly |X| mixing both groups
        even = check_pia(fam, {"X1", "Y1"}, {"X2", "Y2"})
        assert even.verdict and check_ia(even.witness, {"X1", "Y1"}, {"X2", "Y2"})

    def test_2_1_satisfied_atom(self):
        fam = pia_separating_family(2, 1)
        report = check_pia(fam, {"X1", "Y1"}, {"X2"})
        assert report.verdict and check_ia(report.witness, {"X1", "Y1"}, {"X2"})

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pia_separating_family(1, 2)

    def test_refuses_more_rows_than_the_limit(self):
        # 2^k + 1 distinct rows: k = 15 fits under 2^16, k = 16 does not
        assert len(pia_separating_family(15, 1).rows) == 2**15 + 1
        for k in (16, 30, 10**9):
            with pytest.raises(ValueError, match="more than 65536 distinct rows"):
                pia_separating_family(k, 1)


class TestParityRelation:
    def test_unary_case_exact(self):
        r = parity_relation(("A",), ("B",), ("C",))
        assert set(r.rows) == {
            ("0", "0", "0"),
            ("1", "1", "0"),
            (NULL, "0", "0"),
            (NULL, "1", "0"),
        }
        assert all(c == 1 for c in r.counts)

    def test_violates_certain_and_satisfies_possible(self):
        r = parity_relation(("A",), ("B",), ("C",))
        assert not check_cia_fast(r, {"A"}, {"B"})
        assert not cia_oracle_report(r, {"A"}, {"B"}).verdict
        for lhs, rhs in [({"A"}, {"B"}), ({"B"}, {"A"})]:
            assert check_pia_oracle(r, lhs, rhs).verdict

    def test_two_one_case_oracle(self):
        r = parity_relation(("A1", "A2"), ("B",), ("C",), pivot="A1")
        x, y = {"A1", "A2"}, {"B"}
        assert not cia_oracle_report(r, x, y).verdict
        # all disjoint possible atoms over the two sides with both sides
        # non-empty hold
        for lhs, rhs in [
            ({"A1"}, {"B"}),
            ({"A2"}, {"B"}),
            ({"A1", "A2"}, {"B"}),
            ({"A1"}, {"A2", "B"}),
            ({"A1"}, {"A2"}),
        ]:
            assert check_pia_oracle(r, lhs, rhs).verdict, (lhs, rhs)

    def test_validation(self):
        with pytest.raises(ValueError):
            parity_relation((), ("B",), ())
        with pytest.raises(ValueError):
            parity_relation(("A",), ("A",), ())
        with pytest.raises(ValueError):
            parity_relation(("A",), ("B",), (), pivot="B")

    def test_refuses_more_rows_than_the_limit(self):
        # 2^|XY| distinct rows, whatever the extra columns
        names = [f"A{i}" for i in range(30)]
        with pytest.raises(ValueError, match="more than 65536 distinct rows"):
            parity_relation(tuple(names[:15]), tuple(names[15:17]), ())
        assert len(parity_relation(("A",), ("B",), tuple(names)).rows) == 4


class TestConstancyCounterexample:
    def test_two_row_product(self):
        r = constancy_counterexample("B", ("B", "Z"))
        assert set(r.rows) == {("0", "0"), ("1", "0")}
        assert all(NULL not in row for row in r.rows)

    def test_refutes_self_independence(self):
        r = constancy_counterexample("B", ("B", "Z"))
        assert not check_pia(r, {"B"}, {"B"}).verdict
        # complete relation: possible and plain verdicts coincide
        assert check_pia(r, {"Z"}, {"B"}).verdict == check_ia(r, {"Z"}, {"B"})

    def test_other_columns_constant(self):
        r = constancy_counterexample("B", ("B", "Z", "W"))
        assert check_pia(r, {"Z"}, {"W"}).verdict


class TestCnf:
    def test_validation(self):
        with pytest.raises(ValueError):
            CnfFormula(1, ((),))
        with pytest.raises(ValueError):
            CnfFormula(1, ((2,),))

    def test_dimacs_round_trip(self):
        phi = CnfFormula(3, ((2, 3), (1, -2, 3), (-3,)))
        again = CnfFormula.from_dimacs("p cnf 3 3\n2 3 0\n1 -2 3 0\n-3 0\n")
        assert again == phi

    def test_dimacs_parse_errors(self):
        with pytest.raises(ParseError):
            CnfFormula.from_dimacs("p dnf 2 1\n1 0\n")
        with pytest.raises(ParseError):
            CnfFormula.from_dimacs("c only a comment\n")
        # an empty clause makes the formula unsatisfiable; it must not vanish
        with pytest.raises(ParseError, match="line 3: empty clause"):
            CnfFormula.from_dimacs("p cnf 1 2\n1 0\n0\n")
        with pytest.raises(ParseError, match="line 2: empty clause"):
            CnfFormula.from_dimacs("p cnf 1 1\n0\n")

    @pytest.mark.parametrize("text, found", [
        ("p cnf 2 3\n1 -2 0\n", 1),
        ("p cnf 2 1\n1 0\n-2 0\n", 2),
        ("p cnf 2 2\n1 -2\n", 1),  # a last clause without its 0 still counts
        ("p cnf 2 0\n1 0\n", 1),
    ])
    def test_dimacs_clause_count_must_match_the_header(self, text, found):
        declared = text.split()[3]
        with pytest.raises(ParseError, match=f"declares {declared} clauses, found {found}"):
            CnfFormula.from_dimacs(text)

    def test_dimacs_header_counts_must_be_numbers(self):
        with pytest.raises(ParseError, match="bad DIMACS header"):
            CnfFormula.from_dimacs("p cnf 2 x\n1 0\n")

    def test_dimacs_stops_at_the_satlib_end_marker(self):
        phi = CnfFormula.from_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n\n")
        assert phi == CnfFormula(2, ((1, -2),))


class TestReduction:
    def test_three_clause_instance_row_count(self):
        phi = CnfFormula(3, ((2, 3), (1, -2, 3), (-3,)))
        relation, goal = cnf_to_relation(phi)
        assert relation.size == 36
        assert goal == make_atom({"V", "P"}, {"C"}, "possible")
        assert sat_via_pia(phi)

    def test_block_structure(self):
        phi = CnfFormula(3, ((2, 3), (1, -2, 3), (-3,)))
        relation, _ = cnf_to_relation(phi)
        c_index = relation.schema.index("C")
        per_block: dict[str, int] = {}
        for row, count in zip(relation.rows, relation.counts):
            per_block[row[c_index]] = per_block.get(row[c_index], 0) + count
        assert per_block == {
            "p1": 6, "p2": 6, "p3": 6, "c1": 6, "c2": 6, "c3": 6
        }

    def test_single_variable_instances(self):
        assert sat_via_pia(CnfFormula(1, ((1,),)))
        assert not sat_via_pia(CnfFormula(1, ((1,), (-1,))))

    def test_empty_formula_is_satisfiable(self):
        assert sat_via_pia(CnfFormula(0, ()))

    def test_repeated_literals_collapse(self):
        # a repeated literal must not inflate the wildcard multiplicity
        assert not sat_via_pia(CnfFormula(1, ((1, 1), (-1,))))
        assert sat_via_pia(CnfFormula(2, ((1, 1, -2), (2,))))

    def test_tautological_clause(self):
        assert sat_via_pia(CnfFormula(1, ((1, -1),)))

    def test_reduction_size_is_polynomial(self):
        rng = random.Random(61)
        for _ in range(20):
            phi = random_cnf(rng)
            relation, _ = cnf_to_relation(phi)
            n = len(phi.variables())
            expected = n * (2 + 2 * (n - 1))
            for clause in phi.clauses:
                width = len(dict.fromkeys(clause))
                absent = n - len({abs(l) for l in clause})
                expected += width + (width - 1) + 1 + 2 * absent
            assert relation.size == expected

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(62)
        for _ in range(40):
            phi = random_cnf(rng)
            assert sat_via_pia(phi) == brute_force_sat(phi), phi
