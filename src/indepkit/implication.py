"""Implication deciders and bounded semantic refutation.

Plain implication is decided in polynomial time by splitting the goal along
the premises; certain implication is the plain problem on the
modality-stripped atoms.  For possible atoms the polynomial containment
procedure decides goals with a singleton side or near-equal side sizes, and
for disjoint mixed sets a certain goal depends only on the certain premises.
Everything outside these fragments is answered as derivability only (sound,
not complete); for possible-only sets that is the containment procedure,
which gives derivability in I_p without saturation, and for mixed sets it
is ``derives`` in the disjoint mixed or the full system.  ``implies`` looks
a single-modality query up in the fragment table of ``rules``
(``fragment_of``), runs its test and labels the answer with the route.
``implies_ia``, ``implies_cia``, ``implies_pia_star`` and
``implies_mixed_disjoint`` check their fragment's precondition and return
the verdict of ``implies(..., sound_only=True)``, so each states the same
decision as ``implies`` by construction.

``search_counterexample`` hunts for a relation that satisfies every premise
and violates the goal.  It checks the bounds, then asks the routes of
``implies`` that need no saturation: a goal they find implied or derivable
gets None at once, since no relation refutes it.  Otherwise it enumerates
relations by row count, then null count, then lexicographically on the
indices of their rows among the cells over the domain plus the null;
absence within bounds proves nothing.  Of the relations that a per-column
relabelling of values maps onto each other only the least is generated, so
pruning does not change the first witness.  Being least is closed under
prefixes (orderly generation, Read 1978), so the enumeration cuts a prefix
that some relabelling lowers together with every extension of it.  Atom
verdicts are cached per atom on the candidate's projection onto the atom's
attributes, which is all a verdict depends on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .atoms import (
    Atom,
    CERTAIN,
    PLAIN,
    POSSIBLE,
    attributes_of,
    check_same_modality,
    is_disjoint,
    is_pia_star,
    render_atom,
)
from .errors import FragmentError, SearchBoundsError
from .model_check import check_atom
from .relation import NULL, Relation, Schema
from .rules import (
    SYSTEM_DISJOINT_MIXED,
    SYSTEM_FULL,
    SYSTEM_I_P,
    derives,
    fragment_of,
    splitting_test,
)


def implies_ia(sigma: Iterable[Atom], goal: Atom) -> bool:
    """Implication among plain atoms (complete relations), by splitting.

    Let C be the attributes forced constant by the premises.  A goal whose
    sides share an attribute outside C is not implied: the two-row relation
    that varies only that attribute satisfies every premise.  Otherwise strip
    C from the goal, which changes no verdict on a relation where C is
    constant.  The stripped goal X ⊥ Y is implied when X or Y is empty.  Else
    let Z = X ∪ Y and look for a premise A ⊥ B whose restrictions A' = A ∩ Z
    and B' = B ∩ Z are both non-empty and cover Z; they are disjoint, as the
    sides of a premise share only attributes of C.  The goal is implied
    exactly when X ∩ A' ⊥ Y ∩ A' and X ∩ B' ⊥ Y ∩ B' are.  Each step splits
    Z, so there are at most |Z| - 1 splits and the cost is O(|Σ|·n²).

    Why any splitting premise will do: by decomposition the premise makes
    r[Z] = r[A'] × r[B'] in every model, and on such a product X ⊥ Y holds
    exactly when both restricted atoms hold; decomposition gives the
    converse.  When no premise splits Z, the relation of the even-parity
    0/1-tuples on Z, constant elsewhere, satisfies every premise (a premise
    sees a proper subset of Z, on which the relation is a full product, or
    has an empty side there) and refutes the goal, whose X ∪ Y = Z has half
    the tuples of r[X] × r[Y].
    """
    premises = list(sigma)
    check_same_modality([*premises, goal], PLAIN, "implies_ia")
    return implies(premises, goal, sound_only=True).verdict


def implies_cia(sigma: Iterable[Atom], goal: Atom) -> bool:
    """Implication among certain atoms: equivalent to the plain problem on
    the modality-stripped atoms."""
    premises = list(sigma)
    check_same_modality([*premises, goal], CERTAIN, "implies_cia")
    return implies(premises, goal, sound_only=True).verdict


def implies_pia_star(sigma: Iterable[Atom], goal: Atom) -> bool:
    """Implication among possible atoms for goals with a singleton side or
    side sizes within one, decided by the containment test."""
    premises = list(sigma)
    check_same_modality([*premises, goal], POSSIBLE, "implies_pia_star")
    if not is_pia_star(goal):
        raise FragmentError(
            f"goal {render_atom(goal)!r} is outside the decidable possible "
            "fragment; use implies(..., sound_only=True) for a sound-only answer"
        )
    return implies(premises, goal, sound_only=True).verdict


def implies_mixed_disjoint(sigma: Iterable[Atom], goal: Atom) -> bool:
    """Implication for disjoint possible and certain atoms, as ``implies``
    decides it with ``sound_only`` set.

    A certain goal depends only on the certain premises and reduces to the
    plain problem (complete answer).  A possible goal gets derivability,
    which is sound but not known to be complete: the containment test when
    every atom is possible, else ``derives`` in the disjoint mixed system.
    """
    premises = list(sigma)
    for a in [*premises, goal]:
        if a.modality == PLAIN:
            raise FragmentError("mixed implication takes possible and certain atoms")
        if not is_disjoint(a):
            raise FragmentError(
                f"atom {render_atom(a)!r} is not disjoint; only derivability "
                "is available outside the disjoint fragment"
            )
    return implies(premises, goal, sound_only=True).verdict


@dataclass(frozen=True)
class ImplicationReport:
    """An implication answer: the verdict, ``"complete"`` or ``"sound-only"``
    (derivability, sound but not known complete), and the route taken."""

    verdict: bool
    completeness: str
    route: str


# rule system of a single-modality query -> the route its test decides
_ROUTES = {"I": "closure-I", "I_c": "certain-as-plain", "I_p": "pia-star"}


def _decide(premises: list[Atom], goal: Atom) -> ImplicationReport | None:
    """The report of every route that needs no saturation; None for the two
    saturating derivability routes and for plain atoms mixed with modal
    ones."""
    atoms = [*premises, goal]
    system, test = fragment_of(atoms)
    if test is not None:
        verdict = test(premises, goal)
        if system is SYSTEM_I_P and not is_pia_star(goal):
            return ImplicationReport(verdict, "sound-only", "derivability-I_p")
        return ImplicationReport(verdict, "complete", _ROUTES[system.name])
    if goal.modality == CERTAIN and all(a.modality != PLAIN and is_disjoint(a) for a in atoms):
        verdict = splitting_test([a for a in premises if a.modality == CERTAIN], goal)
        return ImplicationReport(verdict, "complete", "certain-core")
    return None


def implies(sigma: Iterable[Atom], goal: Atom, sound_only: bool = False) -> ImplicationReport:
    """Decide the query with the decider of its fragment.  Outside the
    complete fragments a derivability answer is given when ``sound_only`` is
    set; otherwise ``FragmentError`` is raised."""
    premises = list(sigma)
    report = _decide(premises, goal)
    if report is not None and (report.completeness == "complete" or sound_only):
        return report
    if any(a.modality == PLAIN for a in [*premises, goal]):
        raise FragmentError("plain atoms cannot be mixed with modal atoms")
    if not sound_only:
        raise FragmentError(
            f"{render_atom(goal)!r} under these premises is outside the complete "
            "fragments; set sound_only (CLI: --sound-only) for a derivability answer"
        )
    disjoint = all(is_disjoint(a) for a in [*premises, goal])
    system = SYSTEM_DISJOINT_MIXED if disjoint else SYSTEM_FULL
    verdict = derives(premises, goal, system) is not None
    return ImplicationReport(verdict, "sound-only", f"derivability-{system.name}")


# -- bounded counterexample search ------------------------------------------


@dataclass(frozen=True)
class SearchBounds:
    max_attributes: int = 5
    max_rows: int = 4
    domain_size: int = 2

    def __post_init__(self):
        if self.max_attributes < 1 or self.max_rows < 1 or self.domain_size < 2:
            raise SearchBoundsError("bounds must be positive (domain size at least 2)")


def _row_multisets(
    cells: list[tuple[str, ...]],
    null_counts: list[int],
    slots: int,
    budget: int,
    width: int,
    relabellings: list[tuple[int, ...]],
) -> Iterator[tuple[int, ...]]:
    """Non-decreasing index sequences over the row alphabet whose total null
    count is exactly the budget and that no relabelling maps to a smaller
    sequence, in lexicographic order.

    A sequence s is canonical when no relabelling p gives sorted(p[s]) < s.
    Every prefix of a canonical sequence is canonical: if sorted(p[t]) < t
    for a prefix t of s, merging in the images of the remaining elements can
    only lower each leading position, so sorted(p[s]) < s.  A prefix that
    fails is therefore cut with its whole subtree, and the leaves left are
    exactly the canonical sequences, in the same order."""

    # images[i] holds the image of cell i under every relabelling, so
    # zip(*acc_images) gives the prefix's image under each; the least of them,
    # sorted, is below the prefix exactly when the prefix is not canonical.
    images = list(zip(*relabellings)) or [()] * len(cells)
    acc: list[int] = []
    acc_images: list[tuple[int, ...]] = []

    def rec(start: int, left: int, budget_left: int):
        if left == 0:
            if budget_left == 0:
                yield tuple(acc)
            return
        for idx in range(start, len(cells)):
            n = null_counts[idx]
            if n > budget_left:
                continue
            if budget_left - n > (left - 1) * width:
                continue
            acc.append(idx)
            acc_images.append(images[idx])
            if not min(map(sorted, zip(*acc_images)), default=acc) < acc:
                yield from rec(idx, left - 1, budget_left - n)
            acc_images.pop()
            acc.pop()

    yield from rec(0, slots, budget)


def _relabellings(
    cells: list[tuple[str, ...]], domain: tuple[str, ...]
) -> list[tuple[int, ...]]:
    """Every non-identity per-column permutation of the domain values, as a
    permutation of the indices of ``cells`` (nulls stay nulls).  Atom
    satisfaction is invariant under these relabellings.  Empty when there
    are more than 64 relabellings, which turns isomorph pruning off."""
    width = len(cells[0])
    if math.factorial(len(domain)) ** width > 64:
        return []
    index = {cell: i for i, cell in enumerate(cells)}
    perms = [dict(zip(domain, p)) for p in itertools.permutations(domain)]
    out = []
    for combo in itertools.product(perms, repeat=width):
        if all(m is perms[0] for m in combo):
            continue
        out.append(tuple(
            index[tuple(v if v == NULL else m[v] for m, v in zip(combo, cell))]
            for cell in cells
        ))
    return out


def search_counterexample(
    sigma: Iterable[Atom], goal: Atom, bounds: SearchBounds = SearchBounds()
) -> Relation | None:
    """First relation that satisfies every premise and violates the goal, or
    None within the bounds.

    The bounds are checked first.  A goal that a route of ``implies`` needing
    no saturation finds implied or derivable gets None at once: the routes
    are sound, so no relation of any size refutes it.  Any other goal goes
    to the enumeration of ``_first_counterexample``.
    """
    premises = list(sigma)
    _universe(premises, goal, bounds)
    report = _decide(premises, goal)
    if report is not None and report.verdict:
        return None
    return _first_counterexample(premises, goal, bounds)


def _universe(premises: list[Atom], goal: Atom, bounds: SearchBounds) -> list[str]:
    """The attributes of the query, sorted (``A`` when there are none);
    ``SearchBoundsError`` when they exceed the bounds."""
    universe = sorted(attributes_of(premises) | goal.attributes) or ["A"]
    if len(universe) > bounds.max_attributes:
        raise SearchBoundsError(
            f"{len(universe)} attributes exceed the bound of {bounds.max_attributes}"
        )
    return universe


def _first_counterexample(
    sigma: Iterable[Atom], goal: Atom, bounds: SearchBounds
) -> Relation | None:
    """The enumeration behind ``search_counterexample``, which asks no
    decider: the first candidate that satisfies every premise and violates
    the goal, or None within the bounds.

    Candidates come in a fixed order: by row count, then by null count, then
    lexicographically on the sorted indices of their rows among all cells
    over the domain plus the null.  When every atom is plain, only complete
    relations are candidates, since plain implication is defined over them.
    A candidate is not generated when a per-column relabelling of its values
    gives a smaller index sequence.  Relabelling keeps the row and null
    counts and every atom's verdict, so the least member of each class is
    kept and comes first; pruning does not change which witness is returned.
    Canonicity is closed under prefixes, so ``_row_multisets`` cuts a
    non-canonical prefix with its subtree instead of testing every leaf.

    The goal is checked first, then the premises in order.  An atom's verdict
    depends only on the candidate's projection onto the atom's attributes,
    so each atom keeps its verdicts keyed on the sorted projected cell
    indices, and the candidate relation is built only on a miss or when it is
    returned.  An atom over the whole universe keeps no cache: its key would
    be the candidate itself, which never repeats.
    """
    premises = list(sigma)
    universe = _universe(premises, goal, bounds)
    domain = tuple(str(i) for i in range(bounds.domain_size))
    schema = Schema(tuple(universe), tuple(domain for _ in universe))
    width = len(universe)
    cells = list(itertools.product(domain + (NULL,), repeat=width))
    null_counts = [sum(1 for v in row if v == NULL) for row in cells]
    relabellings = _relabellings(cells, domain)
    nulls_per_row = 0 if all(a.modality == PLAIN for a in [*premises, goal]) else width

    # Position 0 is the goal, which must fail; the premises must hold.  They
    # are told apart by position, as a premise may equal the goal.
    atoms = [goal, *premises]
    projections: list[list[int] | None] = []
    for atom in atoms:
        cols = [j for j, a in enumerate(universe) if a in atom.attributes]
        if len(cols) == width:
            projections.append(None)
            continue
        index: dict[tuple[str, ...], int] = {}
        projections.append([
            index.setdefault(tuple(cell[j] for j in cols), len(index)) for cell in cells
        ])
    caches: list[dict[tuple[int, ...], bool]] = [{} for _ in atoms]

    def relation_of(indices: tuple[int, ...]) -> Relation:
        merged = {i: indices.count(i) for i in indices}  # the cells are distinct
        return Relation(schema, tuple(cells[i] for i in merged), tuple(merged.values()))

    for n_rows in range(1, bounds.max_rows + 1):
        for budget in range(0, n_rows * nulls_per_row + 1):
            for indices in _row_multisets(
                cells, null_counts, n_rows, budget, width, relabellings
            ):
                candidate = None
                for k, (atom, projection, cache) in enumerate(zip(atoms, projections, caches)):
                    key = None
                    if projection is not None:
                        key = tuple(sorted([projection[i] for i in indices]))
                    verdict = cache.get(key)  # None for a whole-universe atom
                    if verdict is None:
                        if candidate is None:
                            candidate = relation_of(indices)
                        verdict = check_atom(candidate, atom).verdict
                        if key is not None:
                            cache[key] = verdict
                    if verdict == (k == 0):
                        break
                else:
                    return relation_of(indices) if candidate is None else candidate
    return None
