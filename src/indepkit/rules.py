"""Inference-rule systems, closure by saturation, and derivation traces.

The base rules are trivial independence (T), symmetry (S), constancy (C),
decomposition (D), and exchange (E).  Suffixes pick the modality the rule
operates on: plain (no suffix), ``_c`` certain, ``_p`` possible.  The system
for possible atoms has no exchange rule; two mixed exchange rules (``E_pc``,
``E_cp``) combine a possible and a certain premise into a possible
conclusion.

``_RULE_INFO`` is the one table of rules: each id's kind, premise modalities
and conclusion modality.  A rule system is a set of ids from it, and
saturation applies a system's rules in table order.

``_FRAGMENTS`` is the one table of fragments: atoms of one modality have
a rule system (I, I_c or I_p) and a test equal to derivability in it that
needs no saturation, splitting (I, and I_c on the same sides) or
containment (I_p).  ``fragment_of`` looks a query up in it.  ``derives``
asks the test first and saturates only for goals it finds derivable, to
extract the derivation; ``implication`` decides with the tests, and the CLI
picks its default system from the table.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .atoms import (
    Atom,
    CERTAIN,
    Modality,
    PLAIN,
    POSSIBLE,
    attributes_of,
    render_atom,
)
from .errors import SaturationLimitError

# The closure grows as 3^n in the number of attributes, so saturation
# refuses larger universes.
ATTRIBUTE_LIMIT = 12

# rule id -> (kind, premise modalities, conclusion modality).  The order of
# the entries is the order of application: saturation seeds the trivial
# rules, then applies the rest to each atom in turn, in this order.
_RULE_INFO: dict[str, tuple[str, tuple[Modality, ...], Modality]] = {
    "T": ("trivial", (), PLAIN),
    "T_c": ("trivial", (), CERTAIN),
    "T_p": ("trivial", (), POSSIBLE),
    "S": ("symmetry", (PLAIN,), PLAIN),
    "S_c": ("symmetry", (CERTAIN,), CERTAIN),
    "S_p": ("symmetry", (POSSIBLE,), POSSIBLE),
    "D": ("decomposition", (PLAIN,), PLAIN),
    "D_c": ("decomposition", (CERTAIN,), CERTAIN),
    "D_p": ("decomposition", (POSSIBLE,), POSSIBLE),
    "C": ("constancy", (PLAIN, PLAIN), PLAIN),
    "C_c": ("constancy", (CERTAIN, CERTAIN), CERTAIN),
    "C_p": ("constancy", (POSSIBLE, POSSIBLE), POSSIBLE),
    "E": ("exchange", (PLAIN, PLAIN), PLAIN),
    "E_c": ("exchange", (CERTAIN, CERTAIN), CERTAIN),
    "E_pc": ("exchange", (POSSIBLE, CERTAIN), POSSIBLE),
    "E_cp": ("exchange", (CERTAIN, POSSIBLE), POSSIBLE),
}


@dataclass(frozen=True)
class RuleSystem:
    """A named set of rule identifiers."""

    name: str
    rules: frozenset[str]

    def __post_init__(self):
        unknown = self.rules - _RULE_INFO.keys()
        if unknown:
            raise ValueError(f"unknown rules: {', '.join(sorted(unknown))}")

    def __contains__(self, rule: str) -> bool:
        return rule in self.rules


SYSTEM_I = RuleSystem("I", frozenset({"T", "S", "C", "D", "E"}))
SYSTEM_I_C = RuleSystem("I_c", frozenset({"T_c", "S_c", "C_c", "D_c", "E_c"}))
SYSTEM_I_P = RuleSystem("I_p", frozenset({"T_p", "S_p", "C_p", "D_p"}))
SYSTEM_J_PC = RuleSystem("J_pc", frozenset({"E_pc", "E_cp"}))
SYSTEM_FULL = RuleSystem("full", SYSTEM_I_C.rules | SYSTEM_I_P.rules | SYSTEM_J_PC.rules)
SYSTEM_DISJOINT_MIXED = RuleSystem(
    "disjoint-mixed", SYSTEM_FULL.rules - {"C_c", "C_p"}
)

_NAMED_SYSTEMS: Mapping[str, RuleSystem] = {
    s.name: s
    for s in (SYSTEM_I, SYSTEM_I_C, SYSTEM_I_P, SYSTEM_J_PC, SYSTEM_FULL, SYSTEM_DISJOINT_MIXED)
}


def constants_of(atoms: Iterable[Atom]) -> frozenset[str]:
    """Attributes forced constant: members of both sides of some premise."""
    out: set[str] = set()
    for a in atoms:
        out |= a.lhs & a.rhs
    return frozenset(out)


def splitting_test(premises: list[Atom], goal: Atom) -> bool:
    """Derivability in I of the goal's sides from the premises' sides, by
    splitting; modalities are not read.  ``implication.implies_ia`` gives
    the argument and the cost."""
    constants = constants_of(premises)
    if not goal.lhs & goal.rhs <= constants:
        return False
    todo = [(goal.lhs - constants, goal.rhs - constants)]
    while todo:
        xs, ys = todo.pop()
        if not xs or not ys:
            continue
        z = xs | ys
        for a in premises:
            left, right = a.lhs & z, a.rhs & z
            if left and right and left | right == z:
                todo += [(xs & left, ys & left), (xs & right, ys & right)]
                break
        else:
            return False
    return True


def containment_test(premises: list[Atom], goal: Atom) -> bool:
    """The containment test of possible implication: with the constant
    attributes dropped from the goal, a side is empty or some premise holds
    both sides.  It decides pia-star goals; on the others it is derivability
    in I_p, whose rules only restrict or swap a premise's sides and add
    constant attributes to a side."""
    constants = constants_of(premises)
    xs = goal.lhs - constants
    ys = goal.rhs - constants
    if not xs or not ys:
        return True
    for a in premises:
        if (xs <= a.lhs and ys <= a.rhs) or (xs <= a.rhs and ys <= a.lhs):
            return True
    return False


_Test = Callable[[list[Atom], Atom], bool]

# modality -> (its rule system, a test equal to derivability in that system
# when every atom has the modality)
_FRAGMENTS: Mapping[Modality, tuple[RuleSystem, _Test]] = {
    PLAIN: (SYSTEM_I, splitting_test),
    CERTAIN: (SYSTEM_I_C, splitting_test),
    POSSIBLE: (SYSTEM_I_P, containment_test),
}


def fragment_of(atoms: Iterable[Atom]) -> tuple[RuleSystem, _Test | None]:
    """The rule system and the saturation-free test of the atoms' one
    modality; I when there are no atoms, and the full system with no test
    when the modalities are mixed."""
    modalities = {a.modality for a in atoms} or {PLAIN}
    if len(modalities) > 1:
        return SYSTEM_FULL, None
    return _FRAGMENTS[modalities.pop()]


def system_by_name(name: str) -> RuleSystem:
    try:
        return _NAMED_SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown rule system {name!r}; pick one of {', '.join(_NAMED_SYSTEMS)}"
        ) from None


@dataclass(frozen=True)
class DerivationStep:
    atom: Atom
    rule: str | None  # None marks a premise
    premises: tuple[int, ...] = ()


@dataclass(frozen=True)
class Derivation:
    """A finite sequence of atoms, each a premise or a rule application on
    earlier steps; the last step is the derived goal."""

    steps: tuple[DerivationStep, ...]


class _Saturator:
    """Worklist closure over the rules of a system, with backpointers for
    proof extraction.  Each rule is applied as ``_RULE_INFO`` describes it."""

    def __init__(self, system: RuleSystem, premises: Iterable[Atom], universe: frozenset[str]):
        if len(universe) > ATTRIBUTE_LIMIT:
            raise SaturationLimitError(
                f"{len(universe)} attributes exceed the saturation limit of {ATTRIBUTE_LIMIT}"
            )
        self.known: dict[Atom, tuple[str | None, tuple[Atom, ...]]] = {}
        self.queue: deque[Atom] = deque()
        self.by_lhs: dict[tuple[Modality, frozenset], list[Atom]] = {}
        self.by_union: dict[tuple[Modality, frozenset], list[Atom]] = {}
        self.constancy: dict[Modality, list[Atom]] = {}
        self.all_atoms: dict[Modality, list[Atom]] = {}
        rules = [(rule, *info) for rule, info in _RULE_INFO.items() if rule in system]
        # modality -> the system's rules, in table order, with a premise of it
        self.rules_for = {m: [r for r in rules if m in r[2]] for m in (PLAIN, CERTAIN, POSSIBLE)}
        for a in premises:
            self.add(a, None, ())
        names = sorted(universe)
        for rule, kind, _, mc in rules:
            if kind == "trivial":
                for size in range(len(names) + 1):
                    for combo in itertools.combinations(names, size):
                        self.add(Atom(frozenset(combo), frozenset(), mc), rule, ())

    def add(self, atom: Atom, rule: str | None, premises: tuple[Atom, ...]) -> None:
        if atom in self.known:
            return
        self.known[atom] = (rule, premises)
        self.queue.append(atom)
        m = atom.modality
        self.by_lhs.setdefault((m, atom.lhs), []).append(atom)
        self.by_union.setdefault((m, atom.lhs | atom.rhs), []).append(atom)
        self.all_atoms.setdefault(m, []).append(atom)
        if atom.lhs == atom.rhs:
            self.constancy.setdefault(m, []).append(atom)

    def process(self, a: Atom) -> None:
        m = a.modality
        for rule, kind, mods, mc in self.rules_for[m]:
            if kind == "symmetry":
                self.add(Atom(a.rhs, a.lhs, mc), rule, (a,))
            elif kind == "decomposition":
                rhs = sorted(a.rhs)
                for size in range(len(rhs)):
                    for combo in itertools.combinations(rhs, size):
                        self.add(Atom(a.lhs, frozenset(combo), mc), rule, (a,))
            elif kind == "constancy":
                if a.lhs == a.rhs:
                    for b in list(self.all_atoms.get(m, ())):
                        self.add(Atom(a.lhs | b.lhs, b.rhs, mc), rule, (a, b))
                for c in list(self.constancy.get(m, ())):
                    self.add(Atom(c.lhs | a.lhs, a.rhs, mc), rule, (c, a))
            else:  # exchange: a fills each premise position its modality matches
                m1, m2 = mods
                if m == m1:
                    for b in list(self.by_lhs.get((m2, a.lhs | a.rhs), ())):
                        self.add(Atom(a.lhs, a.rhs | b.rhs, mc), rule, (a, b))
                if m == m2:
                    for b in list(self.by_union.get((m1, a.lhs), ())):
                        self.add(Atom(b.lhs, b.rhs | a.rhs, mc), rule, (b, a))

    def run(self, goal: Atom | None = None) -> bool:
        while self.queue:
            if goal is not None and goal in self.known:
                return True
            self.process(self.queue.popleft())
        return goal is not None and goal in self.known


def closure(
    atoms: Iterable[Atom],
    system: RuleSystem,
    universe: Iterable[str] | None = None,
) -> frozenset[Atom]:
    """Least fixpoint of the rule system over the given premises, restricted
    to atoms over the universe (premise attributes by default)."""
    premises = list(atoms)
    sat = _Saturator(system, premises, frozenset(universe or ()) | attributes_of(premises))
    sat.run()
    return frozenset(sat.known)


def derives(atoms: Iterable[Atom], goal: Atom, system: RuleSystem) -> Derivation | None:
    """A checked derivation of the goal, or None when the system cannot
    derive it.  Non-derivability equals non-implication only on fragments
    with a proven complete axiomatisation.

    When every atom has one modality and the system's rules are among that
    modality's system (``fragment_of``), None comes from the fragment's test
    without saturating, so ``SaturationLimitError`` is raised only for goals
    derivable there."""
    premises = list(atoms)
    fragment, test = fragment_of([*premises, goal])
    if test is not None and system.rules <= fragment.rules and not test(premises, goal):
        return None
    sat = _Saturator(system, premises, attributes_of(premises) | goal.attributes)
    if not sat.run(goal):
        return None
    return _extract(sat.known, goal)


def _extract(
    known: Mapping[Atom, tuple[str | None, tuple[Atom, ...]]], goal: Atom
) -> Derivation:
    order: dict[Atom, int] = {}
    steps: list[DerivationStep] = []

    def visit(atom: Atom) -> int:
        if atom in order:
            return order[atom]
        rule, prems = known[atom]
        indices = tuple(visit(p) for p in prems)
        steps.append(DerivationStep(atom, rule, indices))
        order[atom] = len(steps) - 1
        return order[atom]

    visit(goal)
    return Derivation(tuple(steps))


def validate_derivation(
    derivation: Derivation, system: RuleSystem, premises: Iterable[Atom]
) -> None:
    """Re-check every step against the rule schemas; raises ValueError on the
    first step that does not follow."""
    premise_set = set(premises)
    for n, step in enumerate(derivation.steps):
        if step.rule is None:
            if step.atom not in premise_set:
                raise ValueError(f"step {n}: not a premise: {render_atom(step.atom)}")
            continue
        if step.rule not in system:
            raise ValueError(f"step {n}: rule {step.rule} not in system {system.name}")
        kind, premise_mods, conclusion_mod = _RULE_INFO[step.rule]
        if any(i >= n for i in step.premises):
            raise ValueError(f"step {n}: forward reference")
        used = [derivation.steps[i].atom for i in step.premises]
        if len(used) != len(premise_mods):
            raise ValueError(f"step {n}: {step.rule} takes {len(premise_mods)} premises")
        for atom, mod in zip(used, premise_mods):
            if atom.modality != mod:
                raise ValueError(f"step {n}: premise modality mismatch")
        a = step.atom
        if a.modality != conclusion_mod:
            raise ValueError(f"step {n}: conclusion modality mismatch")
        ok = False
        if kind == "trivial":
            ok = not a.rhs
        elif kind == "symmetry":
            ok = a == Atom(used[0].rhs, used[0].lhs, conclusion_mod)
        elif kind == "decomposition":
            ok = a.lhs == used[0].lhs and a.rhs <= used[0].rhs
        elif kind == "constancy":
            ok = used[0].lhs == used[0].rhs and a == Atom(
                used[0].lhs | used[1].lhs, used[1].rhs, conclusion_mod
            )
        elif kind == "exchange":
            ok = used[1].lhs == used[0].lhs | used[0].rhs and a == Atom(
                used[0].lhs, used[0].rhs | used[1].rhs, conclusion_mod
            )
        if not ok:
            raise ValueError(
                f"step {n}: {render_atom(a)} does not follow by {step.rule}"
            )


def render_derivation_text(derivation: Derivation, unicode_ops: bool = False) -> str:
    """Indented proof tree, conclusion first."""
    lines: list[str] = []

    def visit(index: int, depth: int) -> None:
        step = derivation.steps[index]
        label = step.rule if step.rule is not None else "premise"
        atom = render_atom(step.atom, unicode_ops=unicode_ops)
        lines.append(f"{'  ' * depth}{atom}   [{label}]")
        for i in step.premises:
            visit(i, depth + 1)

    visit(len(derivation.steps) - 1, 0)
    return "\n".join(lines)


def derivation_to_json_list(derivation: Derivation) -> list[dict]:
    return [
        {
            "atom": render_atom(step.atom),
            "rule": step.rule,
            "premises": list(step.premises),
        }
        for step in derivation.steps
    ]
