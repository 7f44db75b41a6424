"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with ``pytest -s`` to see them stream)."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from indepkit import (
    CERTAIN,
    Atom,
    CnfFormula,
    POSSIBLE,
    SYSTEM_DISJOINT_MIXED,
    SYSTEM_FULL,
    SYSTEM_I_C,
    SYSTEM_I_P,
    check_atom,
    check_cia_fast,
    check_ia,
    check_pia,
    closure,
    cnf_to_relation,
    derives,
    exchange_failure_groundings,
    exchange_failure_relation,
    is_pia_star,
    parity_relation,
    parse_atom,
    pia_separating_family,
    sat_via_pia,
    search_counterexample,
)
from indepkit.implication import implies_cia, implies_mixed_disjoint, implies_pia_star
from indepkit.model_check import _weights, check_pia_oracle, cia_oracle_report
from helpers import (
    brute_force_sat,
    count_groundings,
    groundings,
    random_atom_set,
    random_cnf,
    random_relation,
    random_sides,
    saturated_relation,
)


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS [{elapsed:.2f}s, limit {limit_seconds:g}s]")
    assert elapsed < limit_seconds


def test_criterion_01_running_example(table1):
    with criterion(1, "running example", 1.0):
        expectations = [
            ("s _||_ g", True),
            ("s _||_c g", True),
            ("s _||_p g", True),
            ("e _||_c s", False),
            ("r _||_c r", False),
            ("e _||_p s", True),
            ("r _||_p r", True),
        ]
        for text, expected in expectations:
            atom = parse_atom(text, table1.schema)
            assert check_atom(table1, atom).verdict == expected, text


def test_criterion_02_implication_triple():
    with criterion(2, "implication triple", 5.0):
        certain = [parse_atom("e _||_c s"), parse_atom("e,s _||_c g")]
        assert implies_cia(certain, parse_atom("e _||_c s,g"))

        possible = [parse_atom("e _||_p s"), parse_atom("e,s _||_p g")]
        goal = parse_atom("e _||_p s,g")
        assert not implies_pia_star(possible, goal)
        witness = search_counterexample(possible, goal)
        assert witness is not None
        for premise in possible:
            assert check_atom(witness, premise).verdict
        assert not check_atom(witness, goal).verdict

        mixed = [parse_atom("e _||_c s"), parse_atom("e,s _||_p g")]
        assert derives(mixed, goal, SYSTEM_FULL) is not None


def test_criterion_03_exchange_failure_fixture():
    with criterion(3, "exchange failure fixture", 1.0):
        relation = exchange_failure_relation()
        for lhs, rhs in (({"A"}, {"B"}), ({"A", "B"}, {"C"})):
            assert check_pia(relation, lhs, rhs).verdict
            assert check_pia_oracle(relation, lhs, rhs).verdict
        assert not check_pia(relation, {"A"}, {"B", "C"}).verdict
        assert not check_pia_oracle(relation, {"A"}, {"B", "C"}).verdict
        first, second = exchange_failure_groundings()
        all_groundings = groundings(relation)
        assert first in all_groundings and second in all_groundings


def test_criterion_04_nondisjoint_gap_and_witness():
    with criterion(4, "non-disjoint gap and witness", 10.0):
        sigma = [
            parse_atom("A _||_p A"),
            parse_atom("B _||_p B"),
            parse_atom("C _||_p C"),
            parse_atom("A _||_c C"),
            parse_atom("B _||_c C"),
        ]
        goal = parse_atom("A,B _||_c C")
        assert derives(sigma, goal, SYSTEM_FULL) is None

        certain = [parse_atom("A _||_c C"), parse_atom("B _||_c C")]
        witness = search_counterexample(certain, goal)
        assert witness is not None and witness.size == 4
        for premise in certain:
            assert check_atom(witness, premise).verdict
        assert not check_atom(witness, goal).verdict


def test_criterion_05_oracle_equivalence():
    with criterion(5, "oracle equivalence", 180.0):
        rng = random.Random(1005)
        for _ in range(500):
            relation = random_relation(
                rng, null_probability=rng.choice((0.15, 0.3, 0.45))
            )
            x, y = random_sides(rng, relation.schema)
            assert check_cia_fast(relation, x, y) == cia_oracle_report(relation, x, y).verdict
            x, y = random_sides(rng, relation.schema)
            assert (
                check_pia(relation, x, y).verdict
                == check_pia_oracle(relation, x, y).verdict
            )
            a = rng.choice(relation.schema.attributes)
            b = rng.choice(relation.schema.attributes)
            assert (
                check_pia(relation, {a}, {b}).verdict
                == check_pia_oracle(relation, {a}, {b}).verdict
            )
        # domains with no spare value on two columns, for the certain test
        rng = random.Random(1105)
        for _ in range(300):
            relation = saturated_relation(rng)
            x, y = random_sides(rng, relation.schema)
            assert check_cia_fast(relation, x, y) == cia_oracle_report(relation, x, y).verdict


def test_criterion_06_sat_round_trip():
    with criterion(6, "satisfiability round trip", 120.0):
        phi = CnfFormula(3, ((2, 3), (1, -2, 3), (-3,)))
        relation, _ = cnf_to_relation(phi)
        assert relation.size == 36
        assert sat_via_pia(phi)
        rng = random.Random(1006)
        for _ in range(100):
            formula = random_cnf(rng, max_vars=4, max_clauses=4, max_width=3)
            assert sat_via_pia(formula) == brute_force_sat(formula), formula


def test_criterion_07_separating_family():
    for k, m in ((2, 1), (2, 2), (3, 2)):
        with criterion(7, f"separating family k={k} m={m}", 60.0):
            family = pia_separating_family(k, m)
            expected = 2**k * (2**m - 1) - 1 if m >= 2 else 2 ** (k + 1) - 1
            assert family.size == expected
            x = {f"X{i}" for i in range(1, k + 1)}
            y = {f"Y{i}" for i in range(1, m + 1)}
            report = check_pia(family, x, y)
            assert not report.verdict and report.stats["counting_bound"]
            if (k, m) == (2, 2):
                big = check_pia(family, {"X1", "X2", "Y1"}, {"Y2"})
                assert big.verdict
                assert check_ia(big.witness, {"X1", "X2", "Y1"}, {"Y2"})
                even = check_pia(family, {"X1", "Y1"}, {"X2", "Y2"})
                assert even.verdict
                assert check_ia(even.witness, {"X1", "Y1"}, {"X2", "Y2"})


def test_criterion_08_parity_construction():
    with criterion(8, "parity construction", 10.0):
        relation = parity_relation(("A",), ("B",), ("C",))
        assert not cia_oracle_report(relation, {"A"}, {"B"}).verdict
        assert not check_cia_fast(relation, {"A"}, {"B"})
        for lhs, rhs in (({"A"}, {"B"}), ({"B"}, {"A"})):
            assert check_pia_oracle(relation, lhs, rhs).verdict


def test_criterion_09_decider_cross_validation():
    with criterion(9, "decider cross-validation", 180.0):
        rng = random.Random(1009)
        universe = ("A", "B", "C", "D", "E")
        for _ in range(300):
            sigma_c = random_atom_set(rng, universe, (CERTAIN,))
            goal_c = random_atom_set(rng, universe, (CERTAIN,), max_atoms=1)[0]
            assert implies_cia(sigma_c, goal_c) == (
                goal_c in closure(sigma_c, SYSTEM_I_C, universe)
            )

            sigma_p = random_atom_set(rng, universe, (POSSIBLE,))
            goal_p = random_atom_set(rng, universe, (POSSIBLE,), max_atoms=1)[0]
            if is_pia_star(goal_p):
                assert implies_pia_star(sigma_p, goal_p) == (
                    goal_p in closure(sigma_p, SYSTEM_I_P, universe)
                )

            sigma_m = random_atom_set(
                rng, universe, (POSSIBLE, CERTAIN), disjoint=True
            )
            lhs = frozenset(a for a in universe if rng.random() < 0.4)
            rhs = frozenset(
                a for a in universe if a not in lhs and rng.random() < 0.4
            )
            goal_m = Atom(lhs, rhs, CERTAIN)
            assert implies_mixed_disjoint(sigma_m, goal_m) == (
                goal_m in closure(sigma_m, SYSTEM_DISJOINT_MIXED, universe)
            )


def test_criterion_10_structural_properties():
    with criterion(10, "structural properties", 120.0):
        rng = random.Random(1010)
        cases = 0
        for _ in range(260):
            relation = random_relation(rng, grounding_cap=2**12)
            x, y = random_sides(rng, relation.schema)

            plain = check_ia(relation, x, y)
            certain = check_cia_fast(relation, x, y)
            possible = check_pia(relation, x, y).verdict
            assert not plain or certain
            assert not certain or possible
            cases += 1

            assert check_ia(relation, y, x) == plain
            assert check_cia_fast(relation, y, x) == certain
            assert check_pia(relation, y, x).verdict == possible
            cases += 1

            if y:
                smaller = frozenset(sorted(y)[:-1])
                assert not plain or check_ia(relation, x, smaller)
                assert not certain or check_cia_fast(relation, x, smaller)
                assert not possible or check_pia(relation, x, smaller).verdict
                cases += 1

            assert len(groundings(relation)) == count_groundings(relation)
            cases += 1

            attrs = [a for a in relation.schema.attributes if rng.random() < 0.5]
            weights = _weights(relation, relation.schema.indices(attrs))
            assert sum(weights.values()) == relation.size
            cases += 1
        assert cases >= 1000
