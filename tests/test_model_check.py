from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

from indepkit import (
    CERTAIN,
    PLAIN,
    POSSIBLE,
    CnfFormula,
    NULL,
    OracleInfeasibleError,
    Relation,
    Schema,
    check_cia_fast,
    check_ia,
    check_pia,
    check_atom,
    cnf_to_relation,
    exchange_failure_relation,
    parse_atom,
    pia_separating_family,
    read_relation,
    relation_from_csv,
    relation_to_csv,
)
from indepkit.model_check import (
    ORACLE_BOUND,
    _PiaSearch,
    _hand_back,
    _pooled_assignment,
    _weights,
    check_pia_oracle,
    check_pia_unary,
    cia_oracle_report,
    write_witness,
)
from helpers import (
    ATTR_NAMES,
    count_groundings,
    groundings,
    ia_by_definition,
    is_grounding,
    make_atom,
    random_relation,
    random_sides,
    saturated_relation,
)


def rel(attrs, domains, rows, counts=None) -> Relation:
    return Relation.from_rows(Schema(tuple(attrs), tuple(domains)), rows, counts)


def ladder(n: int) -> Relation:
    """Rows a_i,*,0,0: the search adds one support element per row."""
    return relation_from_csv("A,B,C,D\n" + "".join(f"a{i},*,0,0\n" for i in range(n)))


class _Colliding(str):
    """A cell value whose hash digest is the same for every value."""

    def __hash__(self):
        return 0


def search(r: Relation, x, y) -> tuple[_PiaSearch, Relation | None]:
    """The support search run on its own over disjoint sides, past the
    constancy rule that answers constant sides in ``check_pia``, with the
    witness it finds, or None."""
    xi, yi = r.schema.indices(x), r.schema.indices(y)
    engine = _PiaSearch(_weights(r, xi + yi), [r.schema.domains[j] for j in xi + yi], len(xi))
    if not engine.run():
        return engine, None
    return engine, write_witness(r.schema, _hand_back(r, xi + yi, *engine.result), {})


def colliding(r: Relation) -> Relation:
    """The relation with every domain and cell value rehashed to one digest."""

    def wrap(v):
        return v if v is NULL else _Colliding(v)

    schema = Schema(r.schema.attributes, tuple(tuple(map(wrap, d)) for d in r.schema.domains))
    return Relation.from_rows(schema, (tuple(map(wrap, row)) for row in r.rows), r.counts)


def criterion_6_instance():
    relation, goal = cnf_to_relation(CnfFormula(3, ((2, 3), (1, -2, 3), (-3,))))
    return relation, goal.lhs, goal.rhs


def separating_family_instance():
    return pia_separating_family(3, 2), {"X1", "X2", "X3", "Y1"}, {"Y2"}


def revisiting_instance():
    # the one among 30,000 random relations (up to 8 rows, 35 % nulls) whose
    # search reaches a support state twice with work below it (14 visits of
    # 11 states); the search explores that state both times, so a change
    # that prunes revisits shows in its node count
    return (
        rel(
            "ABCDE",
            [("0", "1"), ("0", "1", "2")] + [("0", "1")] * 3,
            [("0", "2", NULL, NULL, "0"), (NULL, "1", "1", "0", "0"), ("1", NULL, NULL, "0", "0"), ("0", "1", "0", NULL, NULL), ("1", NULL, "1", NULL, "1")],
            [2, 2, 2, 1, 1],
        ),
        {"A", "B", "D", "E"},
        {"C"},
    )


def backtracking_instance():
    # satisfiable, but the search leaves states whose pairs it had placed
    # before it finds the witness
    return (
        rel(
            "ABC",
            [("0", "1"), ("0", "1"), ("0", "1", "2")],
            [("1", NULL, "0"), ("1", "0", "2"), ("0", "0", NULL), (NULL, "1", NULL)],
            [1, 2, 2, 1],
        ),
        {"B", "C"},
        {"A"},
    )


class TestWeights:
    """``_weights`` is the projection the checkers read: each distinct
    pattern on the columns with its summed copy count."""

    def test_running_example(self, table1):
        assert _weights(table1, table1.schema.indices(["s", "r"])) == {
            ("not-in-family", "white"): 2,
            ("in-family", "white"): 1,
            ("in-family", NULL): 1,
        }

    def test_all_columns_give_the_rows(self, table1):
        every = table1.schema.indices(table1.schema.attributes)
        assert _weights(table1, every) == dict(zip(table1.rows, table1.counts))

    def test_multiplicity_conserved_on_random_relations(self):
        rng = random.Random(1)
        for _ in range(50):
            r = random_relation(rng)
            attrs = [a for a in r.schema.attributes if rng.random() < 0.5]
            idx = r.schema.indices(attrs)
            direct: dict[tuple, int] = {}
            for row, c in zip(r.rows, r.counts):
                key = tuple(row[i] for i in idx)
                direct[key] = direct.get(key, 0) + c
            weights = _weights(r, idx)
            assert list(weights.items()) == list(direct.items())
            assert sum(weights.values()) == r.size


class TestCheckIa:
    def test_running_example_status_gender(self, table1):
        assert check_ia(table1, {"s"}, {"g"})

    def test_world_education_status(self, world1):
        assert check_ia(world1, {"e"}, {"s"})

    def test_empty_rhs_requires_complete_lhs(self, table1):
        assert check_ia(table1, {"s"}, set())
        assert not check_ia(table1, {"e"}, set())  # education has nulls

    def test_incomplete_projection_fails(self, table1):
        assert not check_ia(table1, {"e"}, {"s"})

    def test_empty_relation(self):
        r = rel("AB", [("0", "1")] * 2, [])
        assert check_ia(r, {"A"}, {"B"})

    def test_overlap_needs_constant_column(self):
        r = rel("AB", [("0", "1")] * 2, [("0", "0"), ("0", "1")])
        assert check_ia(r, {"A"}, {"A", "B"})
        r2 = rel("AB", [("0", "1")] * 2, [("0", "0"), ("1", "1")])
        assert not check_ia(r2, {"A"}, {"A", "B"})


class TestPlainByDefinition:
    """``check_ia`` against ``ia_by_definition``.  The grounding oracle runs
    the same product test as ``check_ia``, so comparing the two would not
    show a fault in it; the definition shares no code with either."""

    def test_agrees_on_random_and_saturated_relations(self):
        # overlapping and empty sides and multiplicities above 1 all occur
        rng = random.Random(28)
        holds = 0
        for k in range(900):
            if k % 3 == 2:
                r = saturated_relation(rng)
            else:
                r = random_relation(rng, 5, 7, null_probability=(0.0, 0.22)[k % 3])
            x, y = random_sides(rng, r.schema)
            want = ia_by_definition(r, x, y)
            assert check_ia(r, x, y) == want, (r, x, y)
            holds += want and bool(x - y) and bool(y - x)
        assert holds > 20

    def test_agrees_on_relations_of_200_to_2000_rows(self):
        # the full product of small domains plus random rows, then one value
        # pair of two columns removed, one null added, or neither; a last
        # column numbers the rows, so they stay distinct
        rng = random.Random(29)
        verdicts = []
        for k in range(45):
            width = rng.randint(2, 4)
            domains = [tuple(str(v) for v in range(rng.randint(2, 4))) for _ in range(width)]
            rows = list(itertools.product(*domains))
            rows += [tuple(rng.choice(d) for d in domains) for _ in range(rng.randint(200, 2000))]
            a, b = rng.sample(range(width), 2)
            if k % 3 == 1:
                gone = (rows[0][a], rows[0][b])
                rows = [t for t in rows if (t[a], t[b]) != gone]
            elif k % 3 == 2:
                i = rng.randrange(len(rows))
                rows[i] = tuple(NULL if j == a else v for j, v in enumerate(rows[i]))
            ids = tuple(f"i{i}" for i in range(len(rows)))
            schema = Schema(ATTR_NAMES[: width + 1], (*domains, ids))
            counts = [rng.randint(1, 3) for _ in rows]
            r = Relation.from_rows(schema, [(*t, i) for t, i in zip(rows, ids)], counts)
            assert len(r.rows) >= 200
            x, y = random_sides(rng, r.schema)
            want = ia_by_definition(r, x, y)
            assert check_ia(r, x, y) == want, (r, x, y)
            verdicts.append(want)
        assert 5 < sum(verdicts) < 40


class TestOracles:
    def test_running_example_certain(self, table1):
        assert cia_oracle_report(table1, {"s"}, {"g"}).verdict
        assert not cia_oracle_report(table1, {"e"}, {"s"}).verdict
        assert not cia_oracle_report(table1, {"r"}, {"r"}).verdict

    def test_running_example_possible(self, table1):
        report = check_pia_oracle(table1, {"e"}, {"s"})
        assert report.verdict and report.witness is not None
        assert check_ia(report.witness, {"e"}, {"s"})
        assert check_pia_oracle(table1, {"r"}, {"r"}).verdict

    def test_unknown_method_rejected(self, table1):
        with pytest.raises(ValueError, match="^unknown method 'x'$"):
            check_atom(table1, parse_atom("e _||_p s"), method="x")

    def test_complete_relation_oracles_match_direct(self, world1):
        for x, y in [({"e"}, {"s"}), ({"a"}, {"g"}), ({"e", "s"}, {"g"})]:
            direct = check_ia(world1, x, y)
            assert cia_oracle_report(world1, x, y).verdict == direct
            assert check_pia_oracle(world1, x, y).verdict == direct

    def test_bound_exceeded_is_an_error(self):
        # 21 null cells over binary domains: one grounding above the bound
        r = rel("AB", [("0", "1")] * 2, [(NULL, "0"), ("1", NULL)], [11, 10])
        assert count_groundings(r) == 2 * ORACLE_BOUND
        with pytest.raises(OracleInfeasibleError):
            cia_oracle_report(r, {"A"}, {"B"})
        with pytest.raises(OracleInfeasibleError):
            check_pia_oracle(r, {"A"}, {"B"})

    def test_oracles_match_the_grounding_quantifiers(self):
        # anchor: quantify over the full grounding stream, nothing shared
        # with the oracle implementations
        rng = random.Random(25)
        for _ in range(40):
            r = random_relation(rng, grounding_cap=2**8)
            x, y = random_sides(rng, r.schema)
            all_groundings = groundings(r)
            assert cia_oracle_report(r, x, y).verdict == all(
                check_ia(g, x, y) for g in all_groundings
            )
            assert check_pia_oracle(r, x, y).verdict == any(
                check_ia(g, x, y) for g in all_groundings
            )

    def test_bound_counts_only_the_atom_columns(self):
        # 12 nulls in C, outside the atom: 4**12 groundings in all, 1 for A, B
        r = rel(
            "ABC",
            [("0", "1"), ("0", "1"), ("0", "1", "2", "3")],
            [(a, b, NULL) for a in "01" for b in "01"],
            [3] * 4,
        )
        assert count_groundings(r) == 4**12
        assert count_groundings(r, r.schema.indices("AB")) == 1
        report = check_atom(r, parse_atom("A _||_p B", r.schema), method="oracle")
        assert report.verdict and report.stats == {"groundings": 1}
        assert check_ia(report.witness, {"A"}, {"B"})

    def test_failing_grounding_reported_for_refuted_certain(self, table1):
        report = cia_oracle_report(table1, {"e"}, {"s"})
        assert not report.verdict
        assert report.witness is not None
        assert all(NULL not in row for row in report.witness.rows)
        assert not check_ia(report.witness, {"e"}, {"s"})


class TestCertainlyConstant:
    """``X ⊥c X`` holds exactly when X is certainly constant."""

    def test_race_column_not_constant(self, table1):
        assert not check_cia_fast(table1, {"r"}, {"r"})

    def test_single_null_tuple(self):
        r = rel("A", [("0", "1")], [(NULL,)])
        assert check_cia_fast(r, {"A"}, {"A"})

    def test_empty_attribute_set(self, table1):
        assert check_cia_fast(table1, set(), set())

    def test_agrees_with_oracle_on_small_relations(self):
        rng = random.Random(11)
        for _ in range(60):
            r = random_relation(rng, max_tuples=4, grounding_cap=2**10)
            attrs = frozenset(
                a for a in r.schema.attributes if rng.random() < 0.5
            )
            assert check_cia_fast(r, attrs, attrs) == cia_oracle_report(r, attrs, attrs).verdict


# Empty column sets on relations of at most two rows, with each verdict in
# the order plain, certain, possible: a plain atom needs its columns
# complete, a certain one two copies to set apart, and the two nulls of
# ``*,*`` can ground alike.
TINY_RELATIONS = {
    "no-rows": "A,B\n",
    "one-row-0-null": "A,B\n0,*\n",
    "null-row-twice": "A,B\n*,*\n*,*\n",
    "0-1-and-1-0": "A,B\n0,1\n1,0\n",
}
TINY_VERDICTS = {
    "{} _||_ {}": dict.fromkeys(TINY_RELATIONS, (True, True, True)),
    "{} _||_ A": {**dict.fromkeys(TINY_RELATIONS, (True, True, True)),
                  "null-row-twice": (False, True, True)},
    "A _||_ A": {"no-rows": (True, True, True), "one-row-0-null": (True, True, True),
                 "null-row-twice": (False, False, True), "0-1-and-1-0": (False, False, False)},
}


class TestEmptyColumnsAndTinyRelations:
    @pytest.mark.parametrize("modality", ["", "c", "p"], ids=["plain", "certain", "possible"])
    @pytest.mark.parametrize("sides", list(TINY_VERDICTS))
    @pytest.mark.parametrize("name", list(TINY_RELATIONS))
    def test_auto_agrees_with_oracle(self, name, sides, modality):
        r = relation_from_csv(TINY_RELATIONS[name])
        atom = parse_atom(sides.replace("_||_", "_||_" + modality), r.schema)
        auto, oracle = check_atom(r, atom), check_atom(r, atom, method="oracle")
        want = TINY_VERDICTS[sides][name][("", "c", "p").index(modality)]
        assert auto.verdict == oracle.verdict == want
        if not modality:
            assert ia_by_definition(r, atom.lhs, atom.rhs) == want
        if modality == "p" and want:
            assert ia_by_definition(auto.witness, atom.lhs, atom.rhs)
            assert is_grounding(r, auto.witness)
        # the oracle's witness shows its verdict: a grounding that satisfies
        # a possible atom, or one that violates a certain atom
        if modality and oracle.witness is not None:
            assert oracle.verdict == (modality == "p")
            assert ia_by_definition(oracle.witness, atom.lhs, atom.rhs) == oracle.verdict
            assert is_grounding(r, oracle.witness)


class TestCiaFast:
    def test_running_example(self, table1):
        assert check_cia_fast(table1, {"s"}, {"g"})
        assert not check_cia_fast(table1, {"e"}, {"s"})

    def test_exchange_failure_certain_refuted(self):
        r = exchange_failure_relation()
        assert not check_cia_fast(r, {"A"}, {"B", "C"})
        assert not cia_oracle_report(r, {"A"}, {"B", "C"}).verdict

    def test_constant_column_wins(self):
        r = rel("AB", [("0", "1")] * 2, [("0", NULL), ("0", "0")])
        assert check_cia_fast(r, {"A"}, {"B"})
        assert cia_oracle_report(r, {"A"}, {"B"}).verdict

    def test_single_row_satisfies_everything(self):
        r = rel("AB", [("0", "1")] * 2, [(NULL, NULL)])
        assert check_cia_fast(r, {"A"}, {"A"})
        assert check_cia_fast(r, {"A"}, {"B"})
        # the unique grounding of each shape is a one-row complete relation
        assert all(check_ia(g, {"A"}, {"A"}) for g in groundings(r))

    def test_agrees_with_oracle_when_the_domains_leave_no_spare_value(self):
        # both columns show every value; in the second relation the complete
        # rows cover only {0} x {0, 1}, while 1,* can ground to 1,0
        for rows in (
            [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"), ("0", NULL)],
            [("0", "0"), ("0", "1"), ("1", NULL)],
        ):
            r = rel("AB", [("0", "1")] * 2, rows)
            atom = parse_atom("A _||_c B", r.schema)
            assert check_atom(r, atom).verdict == check_atom(r, atom, method="oracle").verdict

    def test_agrees_with_oracle_on_saturated_domains(self):
        # half the cases hold a full product on two columns, so most nulls
        # have no unused domain value to ground to
        rng = random.Random(26)
        for k in range(600):
            if k % 2:
                r = saturated_relation(rng)
            else:
                r = random_relation(rng, grounding_cap=2**12)
            x, y = random_sides(rng, r.schema)
            assert check_cia_fast(r, x, y) == cia_oracle_report(r, x, y).verdict, (r, x, y)


class TestCountingBound:
    def test_exchange_failure_bound(self):
        r = exchange_failure_relation()
        report = check_pia(r, {"A"}, {"B", "C"})
        assert not report.verdict
        assert report.stats == {"nodes": 0, "counting_bound": True}


class TestPiaSearch:
    def test_exchange_failure_examples(self):
        r = exchange_failure_relation()
        assert not check_pia(r, {"A"}, {"B", "C"}).verdict
        report = check_pia(r, {"A"}, {"B"})
        assert report.verdict and check_ia(report.witness, {"A"}, {"B"})

    def test_overlap_constancy(self, table1):
        assert check_pia(table1, {"r"}, {"r", "g"}).verdict
        assert not check_pia(table1, {"s"}, {"s", "g"}).verdict

    def test_needs_fresh_values(self):
        r = rel("AB", [("0", "1"), ("0", "1")], [(NULL, NULL), (NULL, NULL)])
        report = check_pia(r, {"A"}, {"B"})
        assert report.verdict
        assert check_ia(report.witness, {"A"}, {"B"})

    def test_overlap_witness_keeps_the_pinned_value(self):
        # C is on both sides; its null in the third row must ground to the
        # observed 1, not to the first domain value
        r = rel("ABC", [("0", "1", "2")] * 3, [("1", NULL, "1"), ("0", "1", "1"), ("1", NULL, NULL)])
        x, y = {"A", "C"}, {"B", "C"}
        report = check_pia(r, x, y)
        assert report.verdict
        assert check_ia(report.witness, x, y)
        assert report.witness.size == r.size

    def test_overlapping_unary_core_takes_the_pooled_assignment(self):
        # C is on both sides and pinned to its observed 1; the core A, B is
        # decided by the unary assignment, not by the search
        r = rel("ABC", [("0", "1", "2")] * 3, [("1", NULL, "1"), ("0", "1", NULL), ("1", "0", NULL), ("0", NULL, NULL)])
        x, y = {"A", "C"}, {"B", "C"}
        report = check_pia(r, x, y)
        assert (report.verdict, report.method) == (True, "pia_flow")
        assert check_ia(report.witness, x, y)
        assert is_grounding(r, report.witness)
        assert {row[2] for row in report.witness.rows} == {"1"}

    def test_constant_side_holds_without_search(self):
        # C, D show one value per column, so the atom holds at 0 nodes
        r = rel("ABCD", [("0", "1", "2")] * 4, [("0", NULL, "2", NULL), ("1", "1", NULL, "0"), (NULL, "0", "2", NULL)])
        x, y = {"A", "B"}, {"C", "D"}
        report = check_pia(r, x, y)
        assert report.verdict and report.stats == {"nodes": 0, "constancy": True}
        assert check_ia(report.witness, x, y)
        assert is_grounding(r, report.witness)
        assert check_pia(ladder(20), {"A", "B"}, {"C", "D"}).stats["nodes"] == 0

    def test_search_depth_does_not_grow_the_call_stack(self):
        r = ladder(120)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            engine, witness = search(r, {"A", "B"}, {"C", "D"})
        finally:
            sys.setrecursionlimit(limit)
        assert engine.result is not None and engine.nodes == 121
        assert check_ia(witness, {"A", "B"}, {"C", "D"})

    def test_search_on_2000_rows_visits_one_node_per_row(self):
        # rows a_i,*,0,0: the support search adds one element per row, so
        # its cost per node must not grow with the rows already covered
        engine, _ = search(ladder(2000), {"A", "B"}, {"C", "D"})
        assert engine.result is not None and engine.nodes == 2001

    @pytest.mark.parametrize("clash", [False, True], ids=["own-digests", "one-digest"])
    @pytest.mark.parametrize(
        "instance, verdict, nodes",
        [
            (lambda: (ladder(20), {"A", "B"}, {"C", "D"}), True, 21),
            (lambda: (ladder(40), {"A", "B"}, {"C", "D"}), True, 41),
            (criterion_6_instance, True, 12),
            (separating_family_instance, True, 6),
            (revisiting_instance, False, 14),
            (backtracking_instance, True, 5),
        ],
        ids=["ladder-20", "ladder-40", "criterion-6", "separating-family-3-2", "revisit", "backtrack"],
    )
    def test_search_tree_is_pinned(self, instance, verdict, nodes, clash):
        r, x, y = instance()
        if clash:
            # every value hashes alike, so the support search must tell
            # patterns apart by equality alone
            r = colliding(r)
        engine, witness = search(r, x, y)
        assert (engine.result is not None, engine.nodes) == (verdict, nodes)
        report = check_pia(r, x, y)
        assert report.verdict == verdict
        if verdict:
            assert check_ia(witness, x, y)
            assert check_ia(report.witness, x, y)
            assert report.witness.size == r.size

    @pytest.mark.parametrize(
        "instance, spread, verdict, nodes",
        [(criterion_6_instance, 60, True, 8), (revisiting_instance, 300, False, 14)],
        ids=["criterion-6", "revisit"],
    )
    def test_rows_equal_on_the_atom_share_one_slot(self, instance, spread, verdict, nodes):
        # every tuple copy, times ``spread``, becomes its own row, told apart
        # by a column Z that the atom does not name: 2,000-2,500 rows whose
        # copies merge into one slot per distinct pattern on X'∪Y'
        base, x, y = instance()
        z = tuple(f"z{k}" for k in range(max(base.counts) * spread))
        schema = Schema(base.schema.attributes + ("Z",), base.schema.domains + (z,))
        rows = [row + (v,) for row, c in zip(base.rows, base.counts) for v in z[: c * spread]]
        r = Relation.from_rows(schema, rows)
        cols = r.schema.indices(x) + r.schema.indices(y)
        distinct = {tuple(row[j] for j in cols) for row in r.rows}
        assert len(r.rows) > 2000 and len(distinct) <= len(base.rows)
        engine, witness = search(r, x, y)
        assert len(engine.patterns) == len(engine.x.opts) == len(distinct)
        assert (engine.result is not None, engine.nodes) == (verdict, nodes)
        report = check_pia(r, x, y)
        assert (report.verdict, report.method, report.stats["nodes"]) == (verdict, "pia_search", nodes)
        for w in (witness, report.witness) if verdict else ():
            assert w.size == r.size and is_grounding(r, w)
            assert check_ia(w, x, y) and ia_by_definition(w, x, y)

    def test_backtracking_leaves_a_consistent_assignment(self):
        r, x, y = backtracking_instance()
        report = check_pia(r, x, y)
        # the witness needs 2 x 2 pairs; the other augmenting paths placed
        # pairs in states the search left, or failed there
        assert report.stats["augmentations"] > 4
        assert check_ia(report.witness, x, y)
        assert is_grounding(r, report.witness)

    def test_each_ladder_node_runs_one_augmenting_path(self):
        engine, _ = search(ladder(20), {"A", "B"}, {"C", "D"})
        assert (engine.nodes, engine.augmentations) == (21, 20)

    def test_agrees_with_oracle_on_random_instances(self):
        rng = random.Random(21)
        # up to 5 rows, then a wider regime of up to 7 rows over 5 attributes,
        # then relations re-read from CSV, whose domains are inferred
        for cases, max_attrs, max_tuples, nulls, inferred in (
            (80, 4, 5, 0.22, False), (300, 5, 7, 0.22, False), (300, 5, 7, 0.35, True)
        ):
            for _ in range(cases):
                r = random_relation(
                    rng, max_attrs, max_tuples, null_probability=nulls, grounding_cap=2**12
                )
                if inferred:
                    r = relation_from_csv(relation_to_csv(r))
                x, y = random_sides(rng, r.schema)
                if count_groundings(r, r.schema.indices(x | y)) > 2**12:
                    continue
                got = check_pia(r, x, y)
                want = check_pia_oracle(r, x, y)
                assert got.verdict == want.verdict, (r, x, y)
                if got.verdict:
                    assert check_ia(got.witness, x, y)
                    # a witness is a grounding: sizes match, non-nulls agree
                    assert got.witness.size == r.size

    def test_unused_domain_values_change_nothing(self):
        # values no cell shows are never search candidates, so appending
        # them to every domain keeps the verdict, the tree and the witness
        rng = random.Random(25)
        for _ in range(400):
            r = random_relation(rng, 5, 7, null_probability=0.35, grounding_cap=2**40)
            domains = tuple(d + ("u", "v") for d in r.schema.domains)
            wide = Relation.from_rows(Schema(r.schema.attributes, domains), r.rows, r.counts)
            x, y = random_sides(rng, r.schema)
            want, got = check_pia(r, x, y), check_pia(wide, x, y)
            assert (got.verdict, got.method, got.stats) == (want.verdict, want.method, want.stats)
            if want.verdict:
                assert dict(zip(got.witness.rows, got.witness.counts)) == dict(
                    zip(want.witness.rows, want.witness.counts)
                )

    def test_witness_of_a_huge_null_row_has_one_row_per_hosted_copy(self):
        r = read_relation(str(Path(__file__).parent / "data" / "null_row_1e20.csv"))
        assert r.size == 10**20 + 3
        x, y = {"A", "B"}, {"C", "D"}
        report = check_pia(r, x, y)
        assert (report.verdict, report.method) == (True, "pia_search")
        assert report.witness.size == r.size
        # 3 x 3 support pairs, 6 of them hosted by copies of the null row
        assert len(report.witness.rows) == 9
        assert check_ia(report.witness, x, y)

    def test_unary_all_null_column_holds(self):
        r = rel("AB", [("0", "1")] * 2, [(NULL, "0"), (NULL, "1")])
        report = check_pia(r, {"A"}, {"B"})
        assert report.verdict
        assert check_ia(report.witness, {"A"}, {"B"})

    def test_unary_same_attribute_is_constancy(self, table1):
        assert check_pia(table1, {"r"}, {"r"}).verdict
        assert not check_pia(table1, {"s"}, {"s"}).verdict

    def test_unary_alias_is_check_pia(self, table1):
        # kept by name for the benchmark tracer only
        for a, b in (("e", "s"), ("r", "r"), ("s", "s"), ("e", "r")):
            got, want = check_pia_unary(table1, a, b), check_pia(table1, {a}, {b})
            assert (got.verdict, got.method, got.stats) == (want.verdict, want.method, want.stats)
            assert got.witness == want.witness

    def test_unary_flow_agrees_with_oracle(self):
        rng = random.Random(22)
        # up to 5 rows, then a wider regime of up to 7 rows over 5 attributes
        for cases, max_attrs, max_tuples in ((80, 4, 5), (300, 5, 7)):
            for _ in range(cases):
                r = random_relation(rng, max_attrs, max_tuples, grounding_cap=2**12)
                a = rng.choice(r.schema.attributes)
                b = rng.choice(r.schema.attributes)
                got = check_pia(r, {a}, {b})
                want = check_pia_oracle(r, {a}, {b})
                assert got.verdict == want.verdict, (r, a, b)
                if got.verdict:
                    assert check_ia(got.witness, {a}, {b})
                    assert got.witness.size == r.size


class TestTwoExactRoutes:
    def test_pooled_assignment_and_search_agree_on_large_unary_cores(self):
        # 1x1 cores of 100-400 rows, 3-12 values per column and 1-10 % nulls,
        # decided by both exact routes, called directly
        rng = random.Random(12)
        verdicts = []
        for _ in range(60):
            domains = tuple(
                tuple(f"{c}{i}" for i in range(rng.randint(3, 12))) for c in "ab"
            )
            nulls = rng.uniform(0.01, 0.10)
            rows = [
                tuple(NULL if rng.random() < nulls else rng.choice(d) for d in domains)
                for _ in range(rng.randint(100, 400))
            ]
            r = Relation.from_rows(Schema(("A", "B"), domains), rows)
            engine, witness = search(r, {"A"}, {"B"})
            found = engine.result is not None
            assert _pooled_assignment(r, 0, 1, {}).verdict == found, r
            if found:
                assert check_ia(witness, {"A"}, {"B"}) and is_grounding(r, witness)
            verdicts.append(found)
        assert 0 < sum(verdicts) < len(verdicts)


class TestResolvedOnce:
    """Each checker resolves an atom's attributes to columns once and builds
    no relation besides its witness."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        seen: list[str] = []
        index = Schema.index

        def counting(schema, attribute):
            seen.append(attribute)
            return index(schema, attribute)

        monkeypatch.setattr(Schema, "index", counting)
        return seen

    def test_each_attribute_is_looked_up_once(self, lookups):
        # the certain atom reaches the product test; the possible atoms take
        # the pooled assignment on a shared column and the support search
        r = rel(
            "ABCD",
            [("0", "1")] * 4,
            [
                ("0", "0", "0", "0"),
                ("1", NULL, NULL, "1"),
                (NULL, "1", "0", NULL),
                (NULL, NULL, "0", "1"),
            ],
        )
        for check, x, y in (
            (check_ia, {"A", "D"}, {"B"}),
            (check_cia_fast, {"A", "D"}, {"B"}),
            (check_pia, {"A", "C"}, {"B", "C"}),
            (check_pia, {"A", "D"}, {"B"}),
        ):
            lookups.clear()
            check(r, x, y)
            assert sorted(lookups) == sorted(x | y), (check, x, y)

    def test_plain_and_certain_atoms_build_no_relation(self, monkeypatch):
        # both atoms reach the product test; a relation built on the way,
        # by Relation.from_rows or Relation.project, would show here
        r = rel(
            "ABC",
            [("0", "1")] * 3,
            [("0", "0", "0"), ("0", "1", NULL), ("1", "0", "1"), ("1", "1", NULL)],
        )
        built: list[tuple] = []
        init = Relation.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Relation, "__init__", counting)
        assert check_ia(r, {"A"}, {"B"})
        assert check_cia_fast(r, {"A"}, {"B"})
        assert not check_ia(r, {"A", "C"}, {"B"})
        assert not check_cia_fast(r, {"A", "C"}, {"B"})
        assert built == []

    def test_overlapping_unary_core_builds_only_the_witness(self, monkeypatch):
        r = rel(
            "ABC",
            [("0", "1")] * 3,
            [("0", "0", "0"), ("1", NULL, NULL), (NULL, "1", "0"), (NULL, NULL, "0")],
        )
        built: list[Relation] = []
        init = Relation.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Relation, "__init__", counting)
        report = check_pia(r, {"A", "C"}, {"B", "C"})
        assert (report.verdict, report.method) == (True, "pia_flow")
        assert len(built) == 1 and built[0] is report.witness
        assert ("1", "1", "0") in report.witness.rows  # the shared C is pinned to 0
        assert check_ia(report.witness, {"A", "C"}, {"B", "C"})


class TestStructuralProperties:
    def test_modal_monotonicity_symmetry_decomposition(self):
        rng = random.Random(23)
        for _ in range(60):
            r = random_relation(rng, grounding_cap=2**12)
            x, y = random_sides(rng, r.schema)
            plain = check_ia(r, x, y)
            certain = check_cia_fast(r, x, y)
            possible = check_pia(r, x, y).verdict
            if plain:
                assert certain
            if certain:
                assert possible
            assert check_ia(r, y, x) == plain
            assert check_cia_fast(r, y, x) == certain
            assert check_pia(r, y, x).verdict == possible
            if y:
                smaller = frozenset(sorted(y)[:-1])
                if possible:
                    assert check_pia(r, x, smaller).verdict
                if certain:
                    assert check_cia_fast(r, x, smaller)
                if plain:
                    assert check_ia(r, x, smaller)

    def test_witness_is_a_grounding(self):
        rng = random.Random(24)
        for _ in range(40):
            r = random_relation(rng, grounding_cap=2**12)
            x, y = random_sides(rng, r.schema)
            report = check_pia(r, x, y)
            if not report.verdict:
                continue
            witness = report.witness
            assert all(NULL not in row for row in witness.rows)
            assert witness.size == r.size
            assert check_ia(witness, x, y)
            # every original row, restricted to its non-null cells, appears
            # with at least its multiplicity
            for row, count in zip(r.rows, r.counts):
                fixed = [(j, v) for j, v in enumerate(row) if v is not NULL]
                matching = sum(
                    c
                    for w_row, c in zip(witness.rows, witness.counts)
                    if all(w_row[j] == v for j, v in fixed)
                )
                assert matching >= count


class TestMetamorphicRelations:
    """Row order, per-column value relabelling, attribute renaming, one more
    copy of a complete row, a CSV write and read with the schema's domains,
    and every tuple copy as its own row, told apart by a new column that no
    atom names, leave every verdict unchanged."""

    @staticmethod
    def variants(rng: random.Random, r: Relation):
        """Each transformed relation with its attribute renaming."""
        attrs, domains = r.schema.attributes, r.schema.domains
        same = {a: a for a in attrs}
        order = rng.sample(range(len(r.rows)), len(r.rows))
        yield Relation.from_rows(
            r.schema, [r.rows[i] for i in order], [r.counts[i] for i in order]
        ), same
        # a random bijection per column, listed in a random order
        fresh = [[f"w{k}" for k in range(len(d))] for d in domains]
        labels = [dict(zip(d, rng.sample(f, len(f)))) for d, f in zip(domains, fresh)]
        relabelled = Schema(attrs, tuple(tuple(rng.sample(f, len(f))) for f in fresh))
        rows = [tuple(v if v is NULL else m[v] for v, m in zip(row, labels)) for row in r.rows]
        yield Relation.from_rows(relabelled, rows, r.counts), same
        names = {a: f"n{len(attrs) - k}" for k, a in enumerate(attrs)}
        renamed = Schema(tuple(names[a] for a in attrs), domains)
        yield Relation.from_rows(renamed, r.rows, r.counts), names
        complete = [row for row in r.rows if NULL not in row]
        if complete:
            extra = rng.choice(complete)
            yield Relation.from_rows(r.schema, r.rows + (extra,), r.counts + (1,)), same
        yield relation_from_csv(relation_to_csv(r), dict(zip(attrs, domains))), same
        # rows that merge on the atom's columns but not on the whole schema
        tags = tuple(f"c{k}" for k in range(max(r.size, 2)))
        copies = [row for row, c in zip(r.rows, r.counts) for _ in range(c)]
        tagged = Schema(attrs + ("copy",), domains + (tags,))
        yield Relation.from_rows(tagged, [row + (t,) for row, t in zip(copies, tags)]), same

    def test_transformations_keep_every_verdict(self):
        # the grounding cap keeps every oracle call within its bound
        rng = random.Random(27)
        for _ in range(400):
            r = random_relation(rng, grounding_cap=2**10)
            atoms = [make_atom(*random_sides(rng, r.schema), m) for m in (PLAIN, CERTAIN, POSSIBLE)]
            want = [
                (check_atom(r, atom).verdict, check_atom(r, atom, method="oracle").verdict)
                for atom in atoms
            ]
            for variant, names in self.variants(rng, r):
                for atom, verdicts in zip(atoms, want):
                    moved = make_atom(
                        (names[a] for a in atom.lhs), (names[a] for a in atom.rhs), atom.modality
                    )
                    got = (
                        check_atom(variant, moved).verdict,
                        check_atom(variant, moved, method="oracle").verdict,
                    )
                    assert got == verdicts, (r, variant, atom)


class TestPlantedInstances:
    """Relations of hundreds to thousands of rows with a planted answer.
    The X'Y'-support of the complete relation is a product FX × FY, the
    shared columns O hold one value, and a free column Z is random."""

    @staticmethod
    def planted_schema(rng: random.Random, kx: int, ky: int):
        xs = [f"X{i}" for i in range(kx)]
        ys = [f"Y{i}" for i in range(ky)]
        shared = ["O"] if rng.random() < 0.5 else []
        domains = {a: tuple(f"{a}v{k}" for k in range(rng.randint(2, 4))) for a in xs + ys}
        domains.update({a: ("o", "o2") for a in shared}, Z=("z0", "z1", "z2"))
        return xs, ys, shared, domains

    def test_blanked_product_keeps_the_possible_atom(self):
        # blanking cells keeps the planted relation a grounding, and the
        # all-null row grounds to any product tuple
        rng = random.Random(2025)
        for _ in range(30):
            xs, ys, shared, domains = self.planted_schema(rng, rng.randint(1, 3), rng.randint(1, 3))

            def side(cols):
                full = list(itertools.product(*(domains[a] for a in cols)))
                return rng.sample(full, rng.randint(min(len(full), 4), min(len(full), 16)))

            rate = rng.uniform(0, 0.5)
            rows, counts = [], []
            for tx, ty in itertools.product(side(xs), side(ys)):
                for _ in range(rng.randint(1, 4)):
                    row = (*tx, *ty, *("o" for _ in shared), rng.choice(domains["Z"]))
                    rows.append(tuple(NULL if rng.random() < rate else v for v in row))
                    counts.append(rng.randint(1, 5))
            rows.append((NULL,) * len(rows[0]))
            counts.append(rng.randint(1, 3))
            r = Relation.from_rows(Schema.of((*xs, *ys, *shared, "Z"), domains), rows, counts)
            x, y = xs + shared, ys + shared
            report = check_pia(r, x, y)
            assert report.verdict, (x, y)
            assert check_ia(report.witness, x, y)
            assert is_grounding(r, report.witness)

    def test_used_up_domains_keep_the_certain_atom(self):
        # the complete rows hold every tuple of the X' and Y' domains, so
        # nulls there cannot ground outside the product; one column S of
        # X'∪Y' has a spare value no row shows and no null until the end
        rng = random.Random(2026)
        for _ in range(30):
            xs, ys, shared, domains = self.planted_schema(rng, rng.randint(1, 2), 2)
            cols = xs + ys
            spare = rng.choice(cols)
            product = list(itertools.product(*(domains[a] for a in cols)))
            rows = list(product)
            rate = rng.uniform(0.05, 0.5)
            for _ in range(rng.randint(len(product), 3 * len(product))):
                t = rng.choice(product)
                rows.append(tuple(
                    NULL if a != spare and rng.random() < rate else v for a, v in zip(cols, t)
                ))
            rows = [(*row, *("o" for _ in shared), rng.choice(domains["Z"])) for row in rows]
            counts = [rng.randint(1, 5) for _ in rows]
            domains[spare] += ("spare",)
            schema = Schema.of((*cols, *shared, "Z"), domains)
            r = Relation.from_rows(schema, rows, counts)
            assert any(NULL in row for row in r.rows)
            x, y = xs + shared, ys + shared
            assert check_cia_fast(r, x, y), (x, y)
            t = rng.choice(product)
            extra = (*(NULL if a == spare else v for a, v in zip(cols, t)),
                     *("o" for _ in shared), "z0")
            assert not check_cia_fast(
                Relation.from_rows(schema, r.rows + (extra,), r.counts + (1,)), x, y
            ), (x, y, spare)


class TestWriteWitness:
    def test_fixed_values_then_first_domain_value(self):
        schema = Schema(("A", "B", "C"), (("0", "1"), ("0", "1"), ("0", "1")))
        parts = [((NULL, "1", NULL), 2), ([NULL, NULL, "1"], 1)]
        g = write_witness(schema, parts, {1: "1"})
        assert (g.rows, g.counts) == ((("0", "1", "0"), ("0", "1", "1")), (2, 1))
        # rows that ground alike merge, in first-seen order
        parts = [((NULL, "0", "1"), 1), (("1", "0", "0"), 2), (["0", "0", "1"], 3)]
        g = write_witness(schema, iter(parts), {})
        assert (g.rows, g.counts) == ((("0", "0", "1"), ("1", "0", "0")), (4, 2))


class TestReportSerialization:
    def test_json_shape(self, table1):
        report = check_pia(table1, {"e"}, {"s"})
        data = report.to_json_dict()
        assert set(data) == {"verdict", "method", "stats", "witness"}
        assert data["verdict"] is True
        assert data["method"] == "pia_flow"
        assert isinstance(data["witness"], str) and data["witness"].startswith("a,")
