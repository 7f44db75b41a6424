from __future__ import annotations

import dataclasses
import random
import re

import pytest

from indepkit import (
    CERTAIN,
    Derivation,
    PLAIN,
    POSSIBLE,
    RuleSystem,
    SYSTEM_DISJOINT_MIXED,
    SYSTEM_FULL,
    SYSTEM_I,
    SYSTEM_I_C,
    SYSTEM_I_P,
    SYSTEM_J_PC,
    SaturationLimitError,
    closure,
    derivation_to_json_list,
    derives,
    parse_atom,
    render_derivation_text,
    system_by_name,
    validate_derivation,
)
from indepkit import rules
from helpers import make_atom, random_atom_set


def rules_used(derivation) -> tuple[str, ...]:
    """The rule of each derived step, in order; premises have none."""
    return tuple(s.rule for s in derivation.steps if s.rule is not None)


def atoms(*texts: str) -> list:
    return [parse_atom(t) for t in texts]


class TestSystems:
    def test_membership(self):
        assert "E" in SYSTEM_I
        assert "E_p" not in SYSTEM_I_P.rules  # no possible exchange exists
        assert SYSTEM_I_P.rules == {"T_p", "S_p", "C_p", "D_p"}
        assert SYSTEM_J_PC.rules == {"E_pc", "E_cp"}
        assert SYSTEM_FULL.rules == SYSTEM_I_C.rules | SYSTEM_I_P.rules | SYSTEM_J_PC.rules
        assert SYSTEM_DISJOINT_MIXED.rules == SYSTEM_FULL.rules - {"C_c", "C_p"}

    def test_lookup_by_name(self):
        assert system_by_name("I_p") is SYSTEM_I_P
        with pytest.raises(ValueError):
            system_by_name("bogus")

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="^unknown rules: Z$"):
            RuleSystem("bad", frozenset({"S", "Z"}))

    @pytest.mark.parametrize(
        "texts, system, test",
        [
            ([], SYSTEM_I, rules.splitting_test),
            (["A _||_ B", "B _||_ A"], SYSTEM_I, rules.splitting_test),
            (["A _||_c B"], SYSTEM_I_C, rules.splitting_test),
            (["A _||_p B", "A,B _||_p C"], SYSTEM_I_P, rules.containment_test),
            (["A _||_c B", "A _||_p B"], SYSTEM_FULL, None),
            (["A _||_ B", "A _||_c B"], SYSTEM_FULL, None),
        ],
        ids=["none", "plain", "certain", "possible", "certain-possible", "plain-certain"],
    )
    def test_fragment_of_a_query(self, texts, system, test):
        assert rules.fragment_of(atoms(*texts)) == (system, test)


class TestClosure:
    def test_deduction_example(self):
        sigma = atoms("e _||_c s", "e,s _||_p g", "r _||_p r")
        result = closure(sigma, SYSTEM_FULL)
        assert parse_atom("r,s,g _||_p e") in result

    def test_empty_premises_only_trivial_atoms(self):
        result = closure([], SYSTEM_I, universe=["A", "B"])
        expected = set()
        for lhs in [set(), {"A"}, {"B"}, {"A", "B"}]:
            expected.add(make_atom(lhs, set()))
            expected.add(make_atom(set(), lhs))
        assert result == expected

    def test_exchange_fires_for_plain_atoms(self):
        result = closure(atoms("A _||_ B", "A,B _||_ C"), SYSTEM_I)
        assert parse_atom("A _||_ B,C") in result

    def test_monotone_and_idempotent(self):
        rng = random.Random(41)
        universe = ("A", "B", "C", "D")
        for _ in range(20):
            base = random_atom_set(rng, universe, (POSSIBLE, CERTAIN))
            extra = random_atom_set(rng, universe, (POSSIBLE, CERTAIN), max_atoms=2)
            small = closure(base, SYSTEM_FULL, universe)
            big = closure(base + extra, SYSTEM_FULL, universe)
            assert small <= big
            again = closure(small, SYSTEM_FULL, universe)
            assert again == small

    def test_universe_limit(self):
        sigma = [make_atom({f"A{i}" for i in range(13)}, set(), POSSIBLE)]
        with pytest.raises(SaturationLimitError):
            closure(sigma, SYSTEM_I_P)


class TestDerives:
    def test_deduction_example_trace(self):
        sigma = atoms("e _||_c s", "e,s _||_p g", "r _||_p r")
        goal = parse_atom("r,s,g _||_p e")
        derivation = derives(sigma, goal, SYSTEM_FULL)
        assert derivation is not None
        assert derivation.steps[-1].atom == goal
        validate_derivation(derivation, SYSTEM_FULL, sigma)
        assert set(rules_used(derivation)) <= SYSTEM_FULL.rules

    def test_three_rule_deduction_in_reduced_system(self):
        sigma = atoms("e _||_c s", "e,s _||_p g", "r _||_p r")
        goal = parse_atom("r,s,g _||_p e")
        system = RuleSystem(
            "reduced", SYSTEM_FULL.rules - {"T_c", "T_p", "D_c", "D_p", "E_c", "E_pc", "C_c", "S_c"}
        )
        derivation = derives(sigma, goal, system)
        assert derivation is not None
        assert rules_used(derivation) == ("E_cp", "S_p", "C_p")

    def test_premise_is_a_one_step_derivation(self):
        sigma = atoms("A _||_p B")
        derivation = derives(sigma, sigma[0], SYSTEM_I_P)
        assert len(derivation.steps) == 1
        assert derivation.steps[0].rule is None

    def test_possible_exchange_not_derivable(self):
        sigma = atoms("e _||_p s", "e,s _||_p g")
        assert derives(sigma, parse_atom("e _||_p s,g"), SYSTEM_I_P) is None

    def test_nondisjoint_mixed_gap(self):
        sigma = atoms(
            "A _||_p A", "B _||_p B", "C _||_p C", "A _||_c C", "B _||_c C"
        )
        assert derives(sigma, parse_atom("A,B _||_c C"), SYSTEM_FULL) is None

    def test_trivial_atom_outside_premise_attributes(self):
        derivation = derives([], parse_atom("Q _||_ {}"), SYSTEM_I)
        assert derivation is not None and derivation.steps[-1].rule == "T"

    def test_mixed_exchange_derivation(self):
        sigma = atoms("e _||_c s", "e,s _||_p g")
        derivation = derives(sigma, parse_atom("e _||_p s,g"), SYSTEM_FULL)
        assert derivation is not None
        validate_derivation(derivation, SYSTEM_FULL, sigma)
        assert "E_cp" in rules_used(derivation)


class TestDerivesWithoutSaturation:
    """On I, I_c and I_p, ``derives`` answers a goal that is not derivable
    from the splitting or containment test, without saturating.  These
    compare it with closure membership on 1,500 premise sets over 3 to 6
    attributes, and count the saturators it builds."""

    SIZES = (3, 4) * 19 + (5, 6)

    @pytest.mark.parametrize(
        "seed, system, modality",
        [(81, SYSTEM_I, PLAIN), (82, SYSTEM_I_C, CERTAIN), (83, SYSTEM_I_P, POSSIBLE)],
        ids=["I", "I_c", "I_p"],
    )
    def test_none_exactly_outside_the_closure(self, monkeypatch, seed, system, modality):
        built = []

        class CountingSaturator(rules._Saturator):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(rules, "_Saturator", CountingSaturator)
        rng = random.Random(seed)
        answers = {True: 0, False: 0}
        for i in range(500):
            universe = tuple("ABCDEF"[: self.SIZES[i % len(self.SIZES)]])
            sigma = random_atom_set(rng, universe, (modality,), max_atoms=3)
            if rng.random() < 0.25:  # an A _||_ A premise makes A constant
                a = rng.choice(universe)
                sigma.append(make_atom({a}, {a}, modality))
            implied = closure(sigma, system, universe)
            wide = sorted((a for a in implied if a.lhs and a.rhs), key=str)
            goals = random_atom_set(rng, universe, (modality,), max_atoms=4)
            for goal in goals + rng.sample(wide, min(2, len(wide))):
                built.clear()
                derivation = derives(sigma, goal, system)
                assert (derivation is not None) == (goal in implied), (sigma, goal)
                assert len(built) == (derivation is not None)
                answers[derivation is not None] += 1
        assert min(answers.values()) >= 500

    def test_chain_beyond_the_saturation_limit(self):
        # 13 attributes: a goal that is not derivable answers None at once,
        # a derivable one still needs saturation, which refuses it
        names = [f"A{i}" for i in range(13)]
        chain = [make_atom(names[:k], [names[k]]) for k in range(2, 13)]
        assert derives(chain, make_atom(["A0"], ["A1"]), SYSTEM_I) is None
        with pytest.raises(SaturationLimitError):
            derives(chain, make_atom(names[:2], names[2:]), SYSTEM_I)
        # what a subset of I derives, I derives, so the test answers for it
        # too; the full system is not among I's rules and saturates
        no_exchange = RuleSystem("I-E", SYSTEM_I.rules - {"E"})
        assert derives(chain, make_atom(["A0"], ["A1"]), no_exchange) is None
        with pytest.raises(SaturationLimitError):
            derives(chain, make_atom(["A0"], ["A1"]), SYSTEM_FULL)


class TestValidation:
    @pytest.mark.parametrize(
        "index, change, message",
        [
            (1, {"atom": parse_atom("B _||_c B")}, "step 1: B _||_c B does not follow by S_c"),
            (0, {"atom": parse_atom("A _||_c C")}, "step 0: not a premise: A _||_c C"),
            (1, {"premises": (1,)}, "step 1: forward reference"),
            (1, {"premises": (0, 0)}, "step 1: S_c takes 1 premises"),
            (1, {"rule": "S_p"}, "step 1: premise modality mismatch"),
            (1, {"atom": parse_atom("B _||_p A")}, "step 1: conclusion modality mismatch"),
        ],
        ids=["does-not-follow", "not-a-premise", "forward-reference", "premise-count",
             "premise-modality", "conclusion-modality"],
    )
    def test_tampered_derivation_rejected(self, index, change, message):
        # the derivation is: A _||_c B [premise], then B _||_c A [S_c of step 0]
        sigma = atoms("A _||_c B")
        steps = list(derives(sigma, parse_atom("B _||_c A"), SYSTEM_I_C).steps)
        steps[index] = dataclasses.replace(steps[index], **change)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_derivation(Derivation(tuple(steps)), SYSTEM_FULL, sigma)

    def test_rule_outside_system_rejected(self):
        sigma = atoms("A _||_ B", "A,B _||_ C")
        derivation = derives(sigma, parse_atom("A _||_ B,C"), SYSTEM_I)
        with pytest.raises(ValueError):
            validate_derivation(derivation, RuleSystem("I-E", SYSTEM_I.rules - {"E"}), sigma)

    def test_random_derivations_validate(self):
        rng = random.Random(42)
        universe = ("A", "B", "C", "D")
        for _ in range(25):
            sigma = random_atom_set(rng, universe, (POSSIBLE, CERTAIN))
            everything = closure(sigma, SYSTEM_FULL, universe)
            target = rng.choice(sorted(everything, key=str))
            derivation = derives(sigma, target, SYSTEM_FULL)
            assert derivation is not None
            validate_derivation(derivation, SYSTEM_FULL, sigma)
            assert derivation.steps[-1].atom == target


class TestRendering:
    def test_text_tree(self):
        sigma = atoms("e _||_c s", "e,s _||_p g", "r _||_p r")
        derivation = derives(sigma, parse_atom("r,s,g _||_p e"), SYSTEM_FULL)
        text = render_derivation_text(derivation)
        lines = text.splitlines()
        assert lines[0].startswith("g,r,s _||_p e") or lines[0].startswith("r,s,g")
        assert any("[premise]" in line for line in lines)
        assert any(line.startswith("  ") for line in lines)

    def test_json_steps(self):
        sigma = atoms("A _||_c B")
        derivation = derives(sigma, parse_atom("B _||_c A"), SYSTEM_I_C)
        data = derivation_to_json_list(derivation)
        assert data[0] == {"atom": "A _||_c B", "rule": None, "premises": []}
        assert data[-1]["rule"] == "S_c"
        assert data[-1]["premises"] == [0]
