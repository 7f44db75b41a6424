from __future__ import annotations

import collections
import itertools
import math
import random

import pytest

from indepkit import (
    Atom,
    CERTAIN,
    FragmentError,
    NULL,
    PLAIN,
    POSSIBLE,
    SYSTEM_DISJOINT_MIXED,
    SYSTEM_FULL,
    SYSTEM_I,
    SYSTEM_I_C,
    SYSTEM_I_P,
    SaturationLimitError,
    SearchBounds,
    SearchBoundsError,
    check_atom,
    closure,
    derives,
    implies,
    implies_ia,
    is_pia_star,
    parse_atom,
    render_atom,
    search_counterexample,
)
from indepkit import implication
from indepkit.implication import (
    implies_cia,
    implies_mixed_disjoint,
    implies_pia_star,
)
from indepkit.rules import constants_of
from helpers import make_atom, random_atom_set


def atoms(*texts: str) -> list:
    return [parse_atom(t) for t in texts]


class TestImpliesIa:
    def test_exchange(self):
        assert implies_ia(atoms("A _||_ B", "A,B _||_ C"), parse_atom("A _||_ B,C"))

    def test_weak_union_style_failure(self):
        assert not implies_ia(atoms("A _||_ C", "B _||_ C"), parse_atom("A,B _||_ C"))

    def test_trivial(self):
        assert implies_ia([], parse_atom("X _||_ {}"))

    def test_modality_guard(self):
        with pytest.raises(FragmentError):
            implies_ia(atoms("A _||_c B"), parse_atom("A _||_ B"))


def _constant_premise(rng, universe, modality):
    """Occasionally a premise ``A _||_ A`` that makes one attribute constant."""
    if rng.random() < 0.25:
        a = rng.choice(universe)
        return [make_atom({a}, {a}, modality)]
    return []


def _goals(rng, universe, modality, implied, disjoint=False):
    """Five random goals over the universe plus, when the closure has any,
    two drawn from its atoms with both sides non-empty."""
    goals = []
    for _ in range(5):
        lhs = frozenset(a for a in universe if rng.random() < 0.4)
        rhs = frozenset(a for a in universe if rng.random() < 0.4)
        goals.append(Atom(lhs, rhs - lhs if disjoint else rhs, modality))
    wide = sorted(
        (a for a in implied if a.modality == modality and a.lhs and a.rhs), key=render_atom
    )
    return goals + (rng.sample(wide, 2) if len(wide) >= 2 else wide)


class TestSplittingDecider:
    """``implies_ia`` decides by splitting, not by saturation; these compare
    it, and the two deciders that reduce to it, with closure membership on
    2,000 premise sets over 4 to 6 attributes.  Saturation over 6 attributes
    costs about 80 ms a set, so the plain and certain sets take 6 attributes
    in one case of 7."""

    PLAIN_SIZES = (4, 5, 4, 5, 4, 5, 6)

    @staticmethod
    def _differential(seed, sets, sizes, modalities, system, decide, disjoint=False):
        rng = random.Random(seed)
        modality = modalities[-1]
        for i in range(sets):
            universe = tuple("ABCDEF"[: sizes[i % len(sizes)]])
            sigma = random_atom_set(rng, universe, modalities, max_atoms=3, disjoint=disjoint)
            if not disjoint:
                sigma += _constant_premise(rng, universe, modality)
            implied = closure(sigma, system, universe)
            for goal in _goals(rng, universe, modality, implied, disjoint):
                assert decide(sigma, goal) == (goal in implied), (sigma, goal)

    def test_plain_matches_closure(self):
        self._differential(61, 600, self.PLAIN_SIZES, (PLAIN,), SYSTEM_I, implies_ia)

    def test_certain_matches_closure(self):
        self._differential(62, 300, self.PLAIN_SIZES, (CERTAIN,), SYSTEM_I_C, implies_cia)

    def test_mixed_certain_goals_match_closure(self):
        self._differential(
            63, 1100, (4, 5, 6), (POSSIBLE, CERTAIN), SYSTEM_DISJOINT_MIXED,
            implies_mixed_disjoint, disjoint=True,
        )

    def test_chain_over_24_attributes(self):
        names = [f"A{i}" for i in range(24)]
        chain = [make_atom(names[:k], [names[k]]) for k in range(1, 24)]
        assert implies(chain, make_atom(names[:1], names[1:])).verdict
        broken = chain[:11] + chain[12:]
        assert not implies(broken, make_atom(names[:1], names[1:])).verdict
        certain = [make_atom(a.lhs, a.rhs, CERTAIN) for a in chain]
        assert implies(certain, make_atom(names[-1:], names[:-1], CERTAIN)).verdict
        with pytest.raises(SaturationLimitError):
            closure(chain, SYSTEM_I)


class TestImpliesCia:
    def test_running_example_triple(self):
        assert implies_cia(
            atoms("e _||_c s", "e,s _||_c g"), parse_atom("e _||_c s,g")
        )

    def test_nonimplication(self):
        assert not implies_cia(
            atoms("A _||_c C", "B _||_c C"), parse_atom("A,B _||_c C")
        )

    def test_premise_implies_itself(self):
        sigma = atoms("A _||_c B")
        assert implies_cia(sigma, sigma[0])

    def test_matches_certain_closure(self):
        rng = random.Random(51)
        universe = ("A", "B", "C", "D")
        for _ in range(40):
            sigma = random_atom_set(rng, universe, (CERTAIN,))
            goal = random_atom_set(rng, universe, (CERTAIN,), max_atoms=1)[0]
            expected = goal in closure(sigma, SYSTEM_I_C, universe)
            assert implies_cia(sigma, goal) == expected


class TestImpliesPiaStar:
    def test_running_example_failure(self):
        assert not implies_pia_star(
            atoms("e _||_p s", "e,s _||_p g"), parse_atom("e _||_p s,g")
        )

    def test_constancy_stripping(self):
        assert implies_pia_star(
            atoms("A,B _||_p B", "A _||_p C"), parse_atom("A _||_p B,C")
        )

    def test_trivial_goal(self):
        assert implies_pia_star([], parse_atom("A _||_p {}"))

    def test_scope_error_outside_fragment(self):
        goal = make_atom({"A", "B"}, {"C", "D", "E", "F"}, POSSIBLE)
        with pytest.raises(FragmentError):
            implies_pia_star([], goal)

    def test_matches_possible_closure(self):
        # pia-star goals through implies_pia_star, the others through the
        # sound-only route of implies, which must give I_p derivability
        rng = random.Random(52)
        universe = ("A", "B", "C", "D", "E")
        checked = {True: 0, False: 0}
        while min(checked.values()) < 60:
            sigma = random_atom_set(rng, universe, (POSSIBLE,))
            goal = random_atom_set(rng, universe, (POSSIBLE,), max_atoms=1)[0]
            star = is_pia_star(goal)
            checked[star] += 1
            expected = goal in closure(sigma, SYSTEM_I_P, universe)
            if star:
                assert implies_pia_star(sigma, goal) == expected, (sigma, goal)
            else:
                report = implies(sigma, goal, sound_only=True)
                assert (report.verdict, report.route) == (expected, "derivability-I_p"), (
                    sigma, goal,
                )

    def test_sound_only_goal_beyond_the_saturation_limit(self):
        # 13 attributes: saturation refuses them, the containment test does not
        sigma = atoms("A,B,C,D,E,F _||_p G,H,I,J,K,L,M", "A,G _||_p A")
        for goal, verdict in (("A,B,C _||_p H,I,J,K,L", True), ("A,B,H _||_p C,D,I,J,K", False)):
            goal = parse_atom(goal)
            assert not is_pia_star(goal)
            report = implies(sigma, goal, sound_only=True)
            assert (report.verdict, report.completeness, report.route) == (
                verdict, "sound-only", "derivability-I_p",
            )


class TestConstants:
    def test_syntactic_rule(self):
        assert constants_of(atoms("A,B _||_p B")) == {"B"}
        assert constants_of(atoms("A _||_p B")) == frozenset()

    def test_matches_saturation(self):
        rng = random.Random(53)
        universe = ("A", "B", "C", "D", "E", "F")
        for _ in range(30):
            sigma = random_atom_set(rng, universe, (POSSIBLE,))
            everything = closure(sigma, SYSTEM_I_P, universe)
            derived = {
                a
                for a in universe
                if make_atom({a}, {a}, POSSIBLE) in everything
            }
            assert constants_of(sigma) == derived


class TestMixedDisjoint:
    def test_mixed_exchange_derivable(self):
        sigma = atoms("e _||_c s", "e,s _||_p g")
        assert implies_mixed_disjoint(sigma, parse_atom("e _||_p s,g"))

    def test_possible_premises_dropped_for_certain_goal(self):
        assert not implies_mixed_disjoint(
            atoms("A _||_p B"), parse_atom("A _||_c B")
        )

    def test_certain_premise_gives_possible_goal(self):
        assert implies_mixed_disjoint(atoms("A _||_c B"), parse_atom("A _||_p B"))

    def test_guards(self):
        with pytest.raises(FragmentError):
            implies_mixed_disjoint(atoms("A _||_ B"), parse_atom("A _||_c B"))
        with pytest.raises(FragmentError):
            implies_mixed_disjoint(
                atoms("A,B _||_c B"), parse_atom("A _||_c B")
            )

    def test_matches_disjoint_closure_on_certain_goals(self):
        rng = random.Random(54)
        universe = ("A", "B", "C", "D", "E")
        for _ in range(40):
            sigma = random_atom_set(
                rng, universe, (POSSIBLE, CERTAIN), disjoint=True
            )
            goal_lhs = frozenset(a for a in universe if rng.random() < 0.4)
            goal_rhs = frozenset(
                a for a in universe if a not in goal_lhs and rng.random() < 0.4
            )
            goal = Atom(goal_lhs, goal_rhs, CERTAIN)
            expected = (
                derives(sigma, goal, SYSTEM_DISJOINT_MIXED) is not None
            )
            assert implies_mixed_disjoint(sigma, goal) == expected, (sigma, goal)

    def test_possible_goals_match_disjoint_closure(self):
        # possible-only sets take the containment test, mixed ones derives
        for seed, modalities in ((55, (POSSIBLE,)), (56, (CERTAIN, POSSIBLE))):
            TestSplittingDecider._differential(
                seed, 150, (3, 4, 5, 6), modalities, SYSTEM_DISJOINT_MIXED,
                implies_mixed_disjoint, disjoint=True,
            )

    def test_possible_chain_over_14_attributes(self):
        # saturation refuses 14 attributes; possible-only sets need none
        names = [f"A{i}" for i in range(14)]
        chain = [make_atom(names[:k], [names[k]], POSSIBLE) for k in range(1, 14)]
        assert implies_mixed_disjoint(chain, make_atom(names[:2], names[2:3], POSSIBLE))


class TestImplies:
    @pytest.mark.parametrize(
        "premises, goal, verdict, completeness, route",
        [
            (("A _||_ B", "A,B _||_ C"), "A _||_ B,C", True, "complete", "closure-I"),
            (("e _||_c s", "e,s _||_c g"), "e _||_c s,g", True, "complete", "certain-as-plain"),
            (("e _||_p s", "e,s _||_p g"), "e _||_p s,g", False, "complete", "pia-star"),
            (("A,B _||_p C,D,E,F",), "A,B _||_p C,D,E,F", True, "sound-only", "derivability-I_p"),
            (("A _||_p B", "A _||_c C"), "A _||_c C", True, "complete", "certain-core"),
            (("A _||_p B", "A _||_c C"), "A _||_c B", False, "complete", "certain-core"),
            (("e _||_c s", "e,s _||_p g"), "e _||_p s,g", True, "sound-only",
             "derivability-disjoint-mixed"),
            (("A _||_c B", "A,C _||_p C"), "A _||_p B", True, "sound-only", "derivability-full"),
        ],
    )
    def test_routes(self, premises, goal, verdict, completeness, route):
        sound_only = completeness == "sound-only"
        report = implies(atoms(*premises), parse_atom(goal), sound_only=sound_only)
        assert (report.verdict, report.completeness, report.route) == (
            verdict, completeness, route,
        )

    def test_plain_mixed_with_modal_atoms(self):
        with pytest.raises(FragmentError):
            implies(atoms("A _||_ B"), parse_atom("A _||_c B"), sound_only=True)

    @pytest.mark.parametrize(
        "premises, goal",
        [
            (("A,B _||_p C,D,E,F",), "A,B _||_p C,D,E,F"),
            (("e _||_c s", "e,s _||_p g"), "e _||_p s,g"),
            (("A _||_c B", "A,C _||_p C"), "A _||_p B"),
        ],
    )
    def test_sound_only_fragments_need_the_flag(self, premises, goal):
        with pytest.raises(FragmentError, match="sound_only"):
            implies(atoms(*premises), parse_atom(goal))


class TestSearchCounterexample:
    def test_certain_exchange_failure_witness(self):
        sigma = atoms("A _||_c C", "B _||_c C")
        goal = parse_atom("A,B _||_c C")
        witness = search_counterexample(sigma, goal)
        assert witness is not None and witness.size == 4
        for premise in sigma:
            assert check_atom(witness, premise).verdict
        assert not check_atom(witness, goal).verdict

    def test_possible_exchange_failure_witness(self):
        sigma = atoms("e _||_p s", "e,s _||_p g")
        goal = parse_atom("e _||_p s,g")
        witness = search_counterexample(sigma, goal)
        assert witness is not None
        for premise in sigma:
            assert check_atom(witness, premise).verdict
        assert not check_atom(witness, goal).verdict

    # The soundness tests run the enumeration itself: search_counterexample
    # answers implied goals from the deciders without enumerating.

    def test_premise_has_no_counterexample(self):
        sigma = atoms("A _||_c B")
        assert (
            implication._first_counterexample(sigma, sigma[0], SearchBounds(max_rows=3)) is None
        )

    def test_soundness_of_derivations(self):
        # whenever something is derivable, the bounded search finds nothing
        cases = [
            (atoms("A _||_ B", "A,B _||_ C"), parse_atom("A _||_ B,C")),
            (atoms("e _||_c s", "e,s _||_p g"), parse_atom("e _||_p s,g")),
            (atoms("A _||_c B", "C _||_c B"), parse_atom("B _||_c A")),
        ]
        for sigma, goal in cases:
            assert implication._first_counterexample(sigma, goal, SearchBounds(max_rows=3)) is None

    @pytest.mark.parametrize(
        "system, modalities",
        [
            (SYSTEM_I, (PLAIN,)),
            (SYSTEM_I_C, (CERTAIN,)),
            (SYSTEM_I_P, (POSSIBLE,)),
            (SYSTEM_FULL, (POSSIBLE, CERTAIN)),
            (SYSTEM_DISJOINT_MIXED, (POSSIBLE, CERTAIN)),
        ],
        ids=["I", "I_c", "I_p", "full", "disjoint-mixed"],
    )
    def test_derived_goals_have_no_counterexample(self, system, modalities):
        # every rule system is sound: no small relation refutes what it derives
        rng = random.Random(71)
        universe = ("A", "B", "C")
        disjoint = system == SYSTEM_DISJOINT_MIXED
        goals = 0
        while goals < 20:
            sigma = random_atom_set(rng, universe, modalities, max_atoms=3, disjoint=disjoint)
            derived = sorted(
                (a for a in closure(sigma, system, universe)
                 if a.lhs and a.rhs and a not in sigma),
                key=render_atom,
            )
            if not derived:
                continue
            goal = rng.choice(derived)
            goals += 1
            bounds = SearchBounds(3, 3, 2)
            assert implication._first_counterexample(sigma, goal, bounds) is None, (sigma, goal)

    def test_plain_candidates_are_complete(self):
        # a null fails every plain atom on its column, so a relation with
        # nulls would refute B _||_ A although B _||_ B implies it
        sigma = atoms("B _||_ B")
        goal = parse_atom("B _||_ A")
        assert implies_ia(sigma, goal)
        assert implication._first_counterexample(sigma, goal, SearchBounds(3, 3, 2)) is None
        witness = search_counterexample(atoms("A _||_ B"), parse_atom("A _||_ C"))
        assert witness is not None and all(NULL not in row for row in witness.rows)

    def test_bound_overflow(self):
        sigma = [make_atom({"A", "B", "C"}, {"D", "E", "F"}, CERTAIN)]
        with pytest.raises(SearchBoundsError):
            search_counterexample(sigma, parse_atom("A _||_c D"), SearchBounds(max_attributes=4))

    def test_implied_goal_is_not_enumerated(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("an implied goal was enumerated")

        monkeypatch.setattr(implication, "_row_multisets", no_enumeration)
        bounds = SearchBounds(5, 16, 2)
        for premises, goal in [
            (("A _||_c B,C,D,E",), "A _||_c B"),
            (("A _||_ B", "A,B _||_ C"), "A _||_ B,C"),
            (("A,B _||_p C,D,E",), "B _||_p E"),
            (("A _||_p B", "A _||_c C,D"), "D _||_c A"),
        ]:
            assert search_counterexample(atoms(*premises), parse_atom(goal), bounds) is None

    def test_refuted_goal_keeps_its_first_witness(self):
        # the witnesses the enumeration returned before the deciders were asked
        bounds = SearchBounds(5, 16, 2)
        for premises, goal, attributes, rows in [
            (("A _||_c C", "B _||_c C"), "A,B _||_c C", ("A", "B", "C"),
             (("0", "0", "0"), ("0", "1", "1"), ("1", "0", "1"), ("1", "1", "0"))),
            (("e _||_p s", "e,s _||_p g"), "e _||_p s,g", ("e", "g", "s"),
             (("0", "0", "0"), ("0", "1", NULL), ("1", "0", "1"), ("1", "1", NULL))),
        ]:
            witness = search_counterexample(atoms(*premises), parse_atom(goal), bounds)
            assert witness.schema.attributes == attributes
            assert (witness.rows, witness.counts) == (rows, (1, 1, 1, 1))


class TestDecidedGoalsHaveNoCounterexample:
    """Whenever a route of ``implies`` that needs no saturation finds the goal
    implied or derivable, the enumeration finds no counterexample; otherwise
    ``search_counterexample`` would skip a refutation."""

    @staticmethod
    def _cases(rng, n):
        shapes = ((1, 2), (2, 2), (3, 2), (2, 3))
        mixes = ((PLAIN,), (CERTAIN,), (POSSIBLE,), (POSSIBLE, CERTAIN))
        for i in range(n):
            width, domain_size = shapes[i % len(shapes)]
            universe = "ABC"[:width]
            mods = mixes[i // len(shapes) % len(mixes)]

            def draw():
                # sides may overlap or be empty
                lhs = frozenset(a for a in universe if rng.random() < 0.5)
                rhs = frozenset(a for a in universe if rng.random() < 0.5)
                return Atom(lhs, rhs, rng.choice(mods))

            premises = [draw() for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.25:  # an A _||_ A premise makes A constant
                constant = frozenset(rng.choice(universe))
                premises.append(Atom(constant, constant, rng.choice(mods)))
            yield premises, draw(), SearchBounds(width, 3, domain_size)

    def test_differential(self):
        routes = []
        for premises, goal, bounds in self._cases(random.Random(20261020), 2000):
            report = implication._decide(premises, goal)
            if report is None or not report.verdict:
                continue
            routes.append(report.route)
            witness = implication._first_counterexample(premises, goal, bounds)
            assert witness is None, (premises, goal, report)
        assert len(routes) >= 1000
        assert set(routes) == {
            "closure-I", "certain-as-plain", "pia-star", "derivability-I_p", "certain-core",
        }


def random_search_cases(rng, shapes, n, max_rows):
    """n random (premises, goal, bounds) queries over the first w of A, B, C,
    cycling through the (w, domain size) shapes; one modality set each."""

    def draw(universe, modalities):
        lhs = rhs = frozenset()
        while not lhs or not rhs:
            lhs = frozenset(a for a in universe if rng.random() < 0.45)
            rhs = frozenset(a for a in universe if rng.random() < 0.45)
        return Atom(lhs, rhs, rng.choice(modalities))

    cases = []
    for i in range(n):
        width, domain_size = shapes[i % len(shapes)]
        universe = "ABC"[:width]
        mods = rng.choice(((PLAIN,), (POSSIBLE,), (CERTAIN,), (POSSIBLE, CERTAIN)))
        premises = [draw(universe, mods) for _ in range(rng.randint(1, 3))]
        cases.append((premises, draw(universe, mods), SearchBounds(width, max_rows, domain_size)))
    return cases


class TestIsomorphPruning:
    @pytest.mark.parametrize("width, domain_size", [(1, 2), (3, 2), (5, 2), (2, 3)])
    def test_relabellings_permute_cells(self, width, domain_size):
        domain = tuple(str(i) for i in range(domain_size))
        cells = list(itertools.product(domain + (NULL,), repeat=width))
        null_counts = [sum(v == NULL for v in cell) for cell in cells]
        perms = implication._relabellings(cells, domain)
        assert len(perms) == math.factorial(domain_size) ** width - 1
        assert len(set(perms)) == len(perms)
        for p in perms:
            assert sorted(p) == list(range(len(cells)))
            assert [null_counts[j] for j in p] == null_counts
            assert p[-1] == len(cells) - 1  # the all-null cell

    def test_no_pruning_above_64_relabellings(self):
        domain = ("0", "1", "2")
        cells = list(itertools.product(domain + (NULL,), repeat=3))
        assert implication._relabellings(cells, domain) == []

    def test_pruning_keeps_the_first_witness(self, monkeypatch):
        cases = random_search_cases(random.Random(20261018), ((3, 2), (2, 3)), 200, 3)
        pruned = [search_counterexample(*case) for case in cases]
        monkeypatch.setattr(implication, "_relabellings", lambda cells, domain: [])
        for case, witness in zip(cases, pruned):
            assert search_counterexample(*case) == witness
            if witness is None:
                continue
            premises, goal, _ = case
            for premise in premises:
                assert check_atom(witness, premise, method="oracle").verdict
            assert not check_atom(witness, goal, method="oracle").verdict
        assert sum(w is not None for w in pruned) >= 50


class TestOrderlyGeneration:
    @pytest.mark.parametrize("width, domain_size", [(3, 2), (2, 3)])
    def test_pruned_enumeration_is_the_leaf_filtered_one(self, width, domain_size):
        domain = tuple(str(i) for i in range(domain_size))
        cells = list(itertools.product(domain + (NULL,), repeat=width))
        null_counts = [sum(v == NULL for v in cell) for cell in cells]
        perms = implication._relabellings(cells, domain)
        assert perms
        kept = dropped = 0
        for budget in range(3 * width + 1):
            every = list(implication._row_multisets(cells, null_counts, 3, budget, width, []))
            least = [s for s in every if not any(tuple(sorted(p[i] for i in s)) < s for p in perms)]
            pruned = list(implication._row_multisets(cells, null_counts, 3, budget, width, perms))
            assert pruned == least
            kept += len(least)
            dropped += len(every) - len(least)
        assert kept and dropped > kept

    def test_one_check_per_atom_and_projection(self, monkeypatch):
        # an exhaustive search (the goal is implied) checks each atom once per
        # distinct projection of the candidates onto the atom's attributes
        sigma = atoms("A _||_c B,C", "C _||_c D")
        goal = parse_atom("A _||_c B")
        seen = []
        real = implication.check_atom

        def counting(r, atom, *args, **kwargs):
            idx = r.schema.indices(atom.attributes)
            projected = collections.Counter()
            for row, count in zip(r.rows, r.counts):
                projected[tuple(row[i] for i in idx)] += count
            seen.append((atom, frozenset(projected.items())))
            return real(r, atom, *args, **kwargs)

        candidates = 0
        real_multisets = implication._row_multisets

        def counting_multisets(*args):
            nonlocal candidates
            for indices in real_multisets(*args):
                candidates += 1
                yield indices

        monkeypatch.setattr(implication, "check_atom", counting)
        monkeypatch.setattr(implication, "_row_multisets", counting_multisets)
        assert implication._first_counterexample(sigma, goal, SearchBounds(4, 3, 2)) is None
        assert len(set(seen)) == len(seen)
        # the goal fails on some candidates, so the first premise is reached
        assert {atom for atom, _ in seen} == {goal, sigma[0]}
        assert len(seen) < candidates / 10

    def test_first_witness_matches_the_unpruned_search_at_four_rows(self, monkeypatch):
        cases = random_search_cases(random.Random(20261019), ((2, 2), (2, 3), (3, 2)), 24, 4)
        # the exchange failures need all four rows
        for premises, goal in [
            (atoms("A _||_ C", "B _||_ C"), "A,B _||_ C"),
            (atoms("A _||_c C", "B _||_c C"), "A,B _||_c C"),
        ]:
            cases.append((premises, parse_atom(goal), SearchBounds(3, 4, 2)))
        pruned = [search_counterexample(*case) for case in cases]
        monkeypatch.setattr(implication, "_relabellings", lambda cells, domain: [])
        for case, witness in zip(cases, pruned):
            again = search_counterexample(*case)
            assert again == witness
            if witness is not None:
                assert (again.rows, again.counts) == (witness.rows, witness.counts)
        assert sum(w is not None for w in pruned) >= 6
        assert [len(w.rows) for w in pruned[-2:]] == [4, 4]


REGRESSION_CORPUS = [
    # (premises, goal, implied)
    (("A _||_ B", "A,B _||_ C"), "A _||_ B,C", True),
    (("A _||_ C", "B _||_ C"), "A,B _||_ C", False),
    (("A _||_ B,C",), "A _||_ B", True),
    (("A _||_ B",), "A _||_ C", False),
    (("A _||_ B", "C _||_ D", "E _||_ E"), "A _||_ C", False),
    (("e _||_c s", "e,s _||_c g"), "e _||_c s,g", True),
    (("A _||_c C", "B _||_c C"), "A,B _||_c C", False),
    (("A _||_c B",), "B _||_c A", True),
    (("A,B _||_c C,D",), "A _||_c C", True),
    (("A _||_c B", "B _||_c C"), "A _||_c C", False),
]


class TestRegressionCorpus:
    def test_deciders_and_witnesses(self):
        bounds = SearchBounds(max_attributes=5, max_rows=16, domain_size=2)
        for premise_texts, goal_text, implied in REGRESSION_CORPUS:
            sigma = atoms(*premise_texts)
            goal = parse_atom(goal_text)
            if goal.modality == CERTAIN:
                got = implies_cia([a for a in sigma], goal)
            else:
                got = implies_ia(sigma, goal)
            assert got == implied, (premise_texts, goal_text)
            if not implied:
                witness = search_counterexample(sigma, goal, bounds)
                assert witness is not None, (premise_texts, goal_text)
                for premise in sigma:
                    assert check_atom(witness, premise).verdict
                assert not check_atom(witness, goal).verdict
