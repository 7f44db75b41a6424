"""Deciding whether a relation satisfies an independence atom.

Plain atoms are checked directly on the relation.  Possible and certain atoms
quantify over groundings.  Both get the grounding oracle, the one place
that counts and enumerates groundings, bounded by ``ORACLE_BOUND`` and
reached through ``check_atom(..., method="oracle")``; and both get an exact
fast path:

* certain atoms reduce to constancy of the shared columns and of a side, or
  to the complete rows' tuples forming the product of the values every copy
  can take; a null in a column with an unused domain value refutes at once;
* a possible atom fails when a shared column shows two values and holds when
  a side's own columns can ground to a constant (the constancy rule);
* a possible atom whose sides, less their shared columns, are single
  columns a and b becomes an assignment question: every cell of the product
  of the non-null column values that no complete tuple covers takes one
  copy from a null pool ``(a, *)``, ``(*, b)`` or ``(*, *)``;
* other possible atoms run a depth-first search over candidate support
  sets, pruned by a counting bound and by assigning support pairs to tuple
  copies.  The search keeps its state across nodes: each slot's matching
  support values, the slots still to cover, and the assignment.  A node adds
  one support value, the pairs it forms and one augmenting path per pair;
  leaving the node pops them again, which needs no journal because every
  remaining pair still sits on a copy it may take.

Both assignments run on the one kernel in ``indepkit.flow``, on the distinct
patterns on X'∪Y' with their copy counts (``_weights``).  The constancy rule,
both assignments (through ``_hand_back``) and the oracle pass their witness as
(row, copies) parts to ``write_witness``, which fills each remaining null once
and merges equal rows.  Each checker resolves its atom's attributes to column
positions once; the steps below it take positions, and each projects the
relation once onto its atom's columns and decides over the distinct patterns
(``_patterns``).  Multiplicities are read only where a verdict depends on them:
the unary pools, the search's slots, and whether a certain atom has two.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .atoms import CERTAIN, PLAIN
from .errors import OracleInfeasibleError
from .flow import Assignment, FlowNetwork, max_flow_assignment
from .relation import NULL, Cell, Relation, Schema, relation_to_csv

# The grounding oracles refuse relations with more groundings of the atom's
# columns than this, rather than answer approximately.
ORACLE_BOUND = 2**20

METHOD_ORACLE = "oracle"
METHOD_IA_DIRECT = "ia_direct"
METHOD_CIA_FAST = "cia_fast"
METHOD_PIA_FLOW = "pia_flow"
METHOD_PIA_SEARCH = "pia_search"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a check: verdict, the method that produced it, method
    statistics, and a witness when one exists.

    For a possible atom that holds, ``witness`` is a grounding satisfying the
    plain atom; for a certain atom refuted by the oracle it is a grounding
    violating it.
    """

    verdict: bool
    method: str
    stats: dict = field(default_factory=dict)
    witness: Relation | None = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "stats": dict(self.stats),
            "witness": relation_to_csv(self.witness) if self.witness else None,
        }


def _split_indices(
    schema: Schema, x: Iterable[str], y: Iterable[str]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Schema positions of x-only, y-only and shared attributes, in schema order."""
    xset, yset = frozenset(x), frozenset(y)
    return schema.indices(xset - yset), schema.indices(yset - xset), schema.indices(xset & yset)


def _project(rows: Sequence[Sequence[str]], cols: tuple[int, ...]) -> Iterable[tuple]:
    """Each row's tuple on the columns, in row order; on no columns, ``()``."""
    if len(cols) > 1:
        return map(itemgetter(*cols), rows)
    if cols:
        return zip(map(itemgetter(*cols), rows))
    return itertools.repeat((), len(rows))


def _patterns(rows: Sequence[Sequence[str]], cols: tuple[int, ...]) -> dict[tuple, None]:
    """The rows' distinct tuples on the columns, in first-occurrence order."""
    return dict.fromkeys(_project(rows, cols))


def _weights(r: Relation, cols: tuple[int, ...]) -> dict[tuple, int]:
    """``_patterns`` of the relation's rows, each with its summed copy count."""
    weights: dict[tuple, int] = {}
    for key, count in zip(_project(r.rows, cols), r.counts):
        weights[key] = weights.get(key, 0) + count
    return weights


def _put(row: Sequence[Cell], cols: Sequence[int], value: Sequence[str]) -> list[Cell]:
    """A copy of the row with the value placed on the columns."""
    new = list(row)
    for j, v in zip(cols, value):
        new[j] = v
    return new


def _hand_back(r: Relation, cols: tuple[int, ...], hosted: dict, rest: dict) -> list:
    """The witness's (row, copies) parts: each pattern on the columns pops its
    hosted values, last first, onto its rows' copies in row order, one per copy;
    its other copies take its ``rest`` value, or stay unchanged if none has one."""
    parts: list[tuple[Sequence[str], int]] = []
    for key, row, count in zip(_project(r.rows, cols), r.rows, r.counts):
        values = hosted.get(key)
        while values and count:
            parts.append((_put(row, cols, values.pop()), 1))
            count -= 1
        if count:
            parts.append((_put(row, cols, rest[key]) if rest else row, count))
    return parts


def _is_product(patterns: dict[tuple, None], o: int, n: int) -> bool:
    """Plain independence on complete patterns laid out O, X', Y' with X' at
    o:n: O constant and the patterns, then distinct on X'Y', a product."""
    if o and len({p[:o] for p in patterns}) > 1:
        return False
    return len(patterns) == len({p[o:n] for p in patterns}) * len({p[n:] for p in patterns})


def check_ia(r: Relation, x: Iterable[str], y: Iterable[str]) -> bool:
    """Does the relation itself satisfy the plain atom?  Requires the
    projection onto both sides to be complete."""
    xi, yi, oi = _split_indices(r.schema, x, y)
    patterns = _patterns(r.rows, oi + xi + yi)
    complete = NULL not in itertools.chain.from_iterable(patterns)
    return complete and _is_product(patterns, len(oi), len(oi) + len(xi))


def _constant(patterns: dict[tuple, None], lo: int, hi: int) -> bool:
    """Does every grounding of two or more tuple copies make positions lo:hi
    of the patterns one constant tuple?  An empty range does."""
    if lo == hi:
        return True
    first = next(iter(patterns))[lo:hi]
    return NULL not in first and all(p[lo:hi] == first for p in patterns)


def check_cia_fast(r: Relation, x: Iterable[str], y: Iterable[str]) -> bool:
    """Certain independence without enumerating groundings.

    Write O = X∩Y, X' = X∖Y and Y' = Y∖X.  Let AX be the X'-values some
    tuple copy can ground to, AY likewise, and F the X'Y'-tuples of the rows
    complete on X'∪Y', with projections FX and FY.  With two or more copies
    the atom is certain exactly when O is certainly constant and X' or Y' is
    empty or certainly constant, or F = AX × AY.

    ⇐: O is constant in every grounding.  An empty or constant side makes
    any support a product.  Otherwise every grounding's X'Y'-support lies in
    AX × AY = F and contains F, the complete rows.

    ⇒: a null in O grounds apart from another copy.  Otherwise |AX| ≥ 2,
    |AY| ≥ 2; pick (x, y) in AX × AY ∖ F.  Each copy can avoid (x, y): it is
    either complete, hence not (x, y), or has a null to set apart.  So the
    atom fails if one copy can take x with a Y'-value other than y and
    another can take y with an X'-value other than x.  Say no copy can take
    x without y (the other case is symmetric): each copy that can take x has
    Y'-value y, and one of them, c, has an X'-null since (x, y) ∉ F.  Take
    y' ≠ y in AY.  Then (x, y') ∉ F, c takes x without y', and a copy that
    can take y' can avoid x (else its Y'-value would be y), so (x, y') fails.

    Computed in this order: O, then the sides' constancy, then a null in a
    column of X'∪Y' that does not show every value of its domain, which puts
    an X'- or Y'-value outside FX or FY (the usual exit with inferred
    domains), then F = FX × FY with AX ⊆ FX and AY ⊆ FY.
    """
    xi, yi, oi = _split_indices(r.schema, x, y)
    if r.size <= 1:
        return True
    o, n = len(oi), len(oi) + len(xi)
    patterns = _patterns(r.rows, oi + xi + yi)
    if not _constant(patterns, 0, o):
        return False
    if _constant(patterns, o, n) or _constant(patterns, n, n + len(yi)):  # also when empty
        return True
    domains = [r.schema.domains[j] for j in xi + yi]
    for pos, dom in enumerate(domains, o):
        shown = set(map(itemgetter(pos), patterns))
        if NULL in shown and len(shown) <= len(dom):
            return False
    # O is constant now, so the patterns are distinct on X'Y'
    f = [p for p in patterns if NULL not in p]
    fx, fy = {p[o:n] for p in f}, {p[n:] for p in f}
    return (
        len(f) == len(fx) * len(fy)
        and _grounds_into({p[o:n] for p in patterns}, domains[: n - o], fx)
        and _grounds_into({p[n:] for p in patterns}, domains[n - o :], fy)
    )


def _grounds_into(
    patterns: set[tuple], domains: list[tuple[str, ...]], support: set[tuple]
) -> bool:
    """Does every pattern ground only into the support?  A pattern with nulls
    at positions N does when the support tuples that agree with it outside N
    number the product of the domain sizes over N; one pass over the support
    per null mask counts them all."""
    counts_by_mask: dict[tuple[bool, ...], Counter] = {}
    for pattern in patterns:
        mask = tuple(v is NULL for v in pattern)
        if mask not in counts_by_mask:
            counts_by_mask[mask] = Counter(
                tuple(NULL if blank else v for v, blank in zip(t, mask)) for t in support
            )
        need = math.prod(len(dom) for dom, blank in zip(domains, mask) if blank)
        if counts_by_mask[mask][pattern] != need:
            return False
    return True


# -- grounding oracle ------------------------------------------------------


def write_witness(
    schema: Schema, parts: Iterable[tuple[Sequence[Cell], int]], fixed: dict[int, str]
) -> Relation:
    """The witness of (row, copies) parts, where a part that hosts placed
    values already carries them.  Every remaining null in column j is set
    once, to ``fixed[j]`` or else to the column's first domain value; a row
    with no null is kept as it is, and equal rows merge in first-seen order."""
    fill = [fixed.get(j, dom[0]) for j, dom in enumerate(schema.domains)]
    merged: dict[tuple[str, ...], int] = {}
    for row, count in parts:
        key = tuple([f if v is NULL else v for v, f in zip(row, fill)] if NULL in row else row)
        merged[key] = merged.get(key, 0) + count
    return Relation(schema, tuple(merged), tuple(merged.values()))


def _oracle(r: Relation, x: Iterable[str], y: Iterable[str], want: bool) -> CheckReport:
    """Enumerate the groundings of the X∪Y columns until the plain atom
    evaluates to ``want`` on one; that grounding is the witness and the
    verdict is ``want``, otherwise the verdict is ``not want``.

    One pass over the rows lists each row's nulls in the atom's columns and
    counts the groundings only until they pass the bound: p >= 2 choices per
    copy pass it within as many copies as the bound has bits.  The copies of
    rows with such nulls vary in (row, copy, column) order, the last fastest:
    a depth-first walk adds each copy's pattern to the distinct patterns,
    split O, X', Y', and tests each pattern of the last copy by four set
    lookups.  Groundings a possible atom skips count as examined."""
    xi, yi, oi = _split_indices(r.schema, x, y)
    layout, o, m = oi + xi + yi, len(oi), len(oi) + len(xi)
    domains = r.schema.domains
    fixed: list[tuple] = []  # the complete rows' patterns, split
    free: list[list[tuple]] = []  # per free copy, its patterns, split
    slots: list[tuple] = []  # (row, count, index into free or None), in row order
    n = 1
    for row, c in zip(r.rows, r.counts):
        nulls = [j for j in sorted(layout) if row[j] is NULL]
        n *= math.prod(len(domains[j]) for j in nulls) ** min(c, ORACLE_BOUND.bit_length())
        if n > ORACLE_BOUND:
            raise OracleInfeasibleError(
                f"the groundings of the atom's columns are above the oracle bound of {ORACLE_BOUND}"
            )
        grounded = (_put(row, nulls, v) for v in itertools.product(*(domains[j] for j in nulls)))
        split = [(t, t[:o], t[o:m], t[m:]) for t in (tuple(g[j] for j in layout) for g in grounded)]
        slots += [(row, 1, len(free) + k) for k in range(c)] if nulls else [(row, c, None)]
        if nulls:
            free += [split] * c
        else:
            fixed += split
    base = [set(col) for col in zip(*fixed)] or [set(), set(), set(), set()]
    last = free.pop() if free else fixed[:1] or [((), (), (), ())]  # no rows: one empty grounding
    below = [math.prod(map(len, free[k:])) * len(last) for k in range(len(free) + 1)]
    examined = 0

    def walk(k: int, ps: set, os_: set, xs: set, ys: set, path: tuple) -> tuple | None:
        """The patterns of the first grounding that shows ``want`` after the
        free copies chose ``path``, or None.  For a possible atom, once the
        X'Y' pairs missing from the patterns outnumber the copies left, each
        of which adds at most one pattern, no grounding below is a product."""
        nonlocal examined
        if want and (len(os_) > 1 or len(xs) * len(ys) - len(ps) > len(free) - k + 1):
            examined += below[k]
            return None
        if k < len(free):
            for t, to, tx, ty in free[k]:
                hit = walk(k + 1, ps | {t}, os_ | {to}, xs | {tx}, ys | {ty}, (*path, t))
                if hit is not None:
                    return hit
            return None
        for t, to, tx, ty in last:
            examined += 1
            ok = len(ps) + (t not in ps) == (len(xs) + (tx not in xs)) * (len(ys) + (ty not in ys))
            if (ok and len(os_) + (to not in os_) == 1) == want:
                return (*path, t)
        return None

    chosen = walk(0, *base, ())
    if chosen is None:
        return CheckReport(not want, METHOD_ORACLE, stats={"groundings": examined})
    parts = [(row, c) if k is None else (_put(row, layout, chosen[k]), 1) for row, c, k in slots]
    witness = write_witness(r.schema, parts, {})
    return CheckReport(want, METHOD_ORACLE, {"groundings": examined}, witness)


def cia_oracle_report(r: Relation, x: Iterable[str], y: Iterable[str]) -> CheckReport:
    """Conjunction of the plain check over all groundings; on refutation the
    witness is the first failing grounding."""
    return _oracle(r, x, y, want=False)


def check_pia_oracle(r: Relation, x: Iterable[str], y: Iterable[str]) -> CheckReport:
    """Existential grounding check, returning the first witnessing grounding."""
    return _oracle(r, x, y, want=True)


# -- possible atoms: the constancy rule -------------------------------------


def _pins(patterns: dict[tuple, None], cols: tuple[int, ...], start: int) -> dict[int, str] | None:
    """The value each column, from position ``start`` of the patterns on,
    must take for the columns to ground to one constant tuple: the one
    non-null value it shows (an all-null column needs none, as
    ``write_witness`` fills it alike), or None at a column's second value."""
    pins: dict[int, str] = {}
    for pos, j in enumerate(cols, start):
        for p in patterns:
            v = p[pos]
            if v is not NULL and pins.setdefault(j, v) != v:
                return None
    return pins


def _by_constancy(
    r: Relation, patterns: dict, oi: tuple[int, ...], xi: tuple[int, ...], yi: tuple[int, ...]
) -> tuple[CheckReport | None, dict[int, str]]:
    """The constancy rule of a possible atom, on the rows' patterns on O, X'
    and Y' in that order.  A shared column is constant in any witness, so one
    that shows two values refutes the atom.  A side whose own columns can
    ground to one constant tuple has a one-tuple support, so grounding it and
    the shared columns so makes the atom hold.  Returns the report when the
    rule decides, and the pins of the shared columns."""
    rule = {"nodes": 0, "constancy": True}
    fixed = _pins(patterns, oi, 0)
    if fixed is None:
        return CheckReport(False, METHOD_PIA_SEARCH, stats=rule), {}
    for side, start in ((xi, len(oi)), (yi, len(oi) + len(xi))):
        pins = _pins(patterns, side, start)
        if pins is not None:
            witness = write_witness(r.schema, zip(r.rows, r.counts), {**fixed, **pins})
            return CheckReport(True, METHOD_PIA_SEARCH, stats=rule, witness=witness), fixed
    return None, fixed


# -- unary possible atoms: pooled assignment --------------------------------


@dataclass(frozen=True)
class ProductNetwork(FlowNetwork):
    """The assignment network of a unary possible atom, with the non-null
    values of its two columns in first-occurrence order."""

    a_values: tuple[str, ...]
    b_values: tuple[str, ...]


def build_flow_network(pairs: dict[tuple, int]) -> ProductNetwork:
    """Assignment network for a unary possible atom from the copy counts of its
    columns' value pairs.  The items are the cells of the product of the
    non-null values of the two columns that no complete tuple covers; the
    slots are the null pools ``(va, *)``, ``(*, vb)`` and ``(*, *)``, each
    holding its tuple copies.  A cell may take a copy from its row pool, its
    column pool or the wildcard pool."""
    # a value's first pair comes no later than its first row
    avals = tuple(dict.fromkeys(va for va, _ in pairs if va is not NULL))
    bvals = tuple(dict.fromkeys(vb for _, vb in pairs if vb is not NULL))
    pools = {key: n for key, n in pairs.items() if key[0] is NULL or key[1] is NULL}
    slot_index = {key: s for s, key in enumerate(pools)}
    cells = [(va, vb) for va in avals for vb in bvals if (va, vb) not in pairs]
    edges = []
    for item, (va, vb) in enumerate(cells):
        for key in ((va, NULL), (NULL, vb), (NULL, NULL)):
            if key in slot_index:
                edges.append((item, slot_index[key]))
    return ProductNetwork(
        tuple(cells), tuple(pools), tuple(pools.values()), tuple(edges), avals, bvals
    )


def _pooled_assignment(r: Relation, ia: int, ib: int, fixed: dict[int, str]) -> CheckReport:
    """A core of two single columns that the constancy rule left open holds
    exactly when every product cell of their non-null values that no
    complete tuple covers takes a distinct copy from a null pool able to
    ground to it.  The network reads only the two columns' value pairs, so
    the pins of the shared columns go to the witness alone."""
    network = build_flow_network(_weights(r, (ia, ib)))
    avals, bvals = network.a_values, network.b_values
    assignment = max_flow_assignment(network)
    stats = {"target": len(avals) * len(bvals), "missing": len(network.items)}
    if assignment is None:
        return CheckReport(False, METHOD_PIA_FLOW, stats=stats)

    # Each pool grounds one copy to each cell assigned to it; its remaining
    # copies, like every other null, ground inside the product.
    cells_of: dict[tuple, list[tuple[str, str]]] = {}
    for cell, slot in zip(network.items, assignment):
        cells_of.setdefault(network.slots[slot], []).append(cell)
    parts = _hand_back(r, (ia, ib), cells_of, {})
    witness = write_witness(r.schema, parts, {**fixed, ia: avals[0], ib: bvals[0]})
    return CheckReport(True, METHOD_PIA_FLOW, stats=stats, witness=witness)


def check_pia_unary(r: Relation, a: str, b: str) -> CheckReport:
    """Alias of ``check_pia(r, {a}, {b})``.  No library code calls it; it
    stays only because the benchmark tracer wraps it by name for its
    ``model_check.check_pia_unary_ms`` metric, until that metric goes."""
    return check_pia(r, {a}, {b})


# -- general possible atoms: support-set search ------------------------------


def _counting_bound(size: int, patterns: dict[tuple, None], o: int, n: int) -> bool:
    """Cheap refutation, on patterns laid out O, X', Y' with X' at o:n: the
    complete tuples fixed on each side force a product larger than the
    relation.  ``False`` refutes the possible atom; ``True`` is no conclusion."""
    nx = sum(NULL not in t for t in {p[o:n] for p in patterns})
    ny = sum(NULL not in t for t in {p[n:] for p in patterns})
    return nx * ny <= size


class _Side:
    """One side of the support search: its support values, the slots each
    value matches, and for each slot the indices of the values it matches.

    Slots are grouped by their pattern on the side's columns.  A value
    matches the patterns got by blanking it at each null-mask that occurs,
    so pushing a value looks those patterns up instead of scanning the slots."""

    def __init__(self, patterns: list[tuple], domains: Sequence[tuple[str, ...]]):
        self.patterns = patterns
        self.groups: dict[tuple, list[int]] = {}
        for i, pattern in enumerate(patterns):
            self.groups.setdefault(pattern, []).append(i)
        # A null cell may take the values its column shows, or its first
        # domain value when it shows none.  Unshown values are never needed:
        # plain independence is invariant under renaming values, so mapping
        # every unshown value of a witness's column to one shown value keeps
        # its non-null cells and maps a product support to a product.
        shown = [tuple(v for v in dict.fromkeys(c) if v is not NULL) for c in zip(*self.groups)]
        self.cand = [values or dom[:1] for dom, values in zip(domains, shown)]
        self.masks = list(dict.fromkeys(tuple(v is NULL for v in p) for p in self.groups))
        # how many extensions a slot's pattern has: its branching score
        self.scores = [
            math.prod(len(c) if v is NULL else 1 for v, c in zip(p, self.cand))
            for p in patterns
        ]
        self.values: list[tuple[str, ...]] = []
        self.slots_of: list[set[int]] = []
        self.opts: list[list[int]] = [[] for _ in patterns]

    def push(self, value: tuple[str, ...]) -> set[int]:
        """Add a support value; returns the slots it matches, whose option
        lists the caller extends."""
        slots: set[int] = set()
        for mask in self.masks:
            key = tuple(NULL if blank else v for v, blank in zip(value, mask))
            slots.update(self.groups.get(key, ()))
        self.values.append(value)
        self.slots_of.append(slots)
        return slots

    def pop(self) -> set[int]:
        """Remove the newest support value; returns the slots it matched."""
        self.values.pop()
        return self.slots_of.pop()

    def extensions(self, i: int):
        choices = [(v,) if v is not NULL else c for v, c in zip(self.patterns[i], self.cand)]
        return itertools.product(*choices)


class _PiaSearch:
    """Depth-first search for a grounding with cross-product support.

    The state is a pair of candidate support sets (one per side).  Complete
    side-tuples force initial members; a slot (a distinct pattern on X'∪Y',
    holding its rows' copies) that no current value matches on a side branches
    over its possible groundings there, fewest first; an assignment of support
    pairs to the slots' copies prunes states that cannot cover the product
    (supersets only add pairs, so infeasibility is final).

    The state is kept incrementally, so a node costs what its new support
    value adds.  Pushing a value adds its index to the option lists of the
    slots it matches and updates ``open``, the sorted branch keys of the
    slots still lacking a value on a side.  Visiting the new state adds only
    the pairs the value forms with the other side, each hosted by the slots
    both of its values match and placed by one augmenting path.  Leaving a
    state undoes it without a journal: popping its pairs frees their copies
    and leaves every other pair on a copy it may take, and popping its value
    reverses the option lists.  A state reached twice is explored twice:
    its subtree depends only on its support sets, so the second visit fails
    as the first did.  ``result`` holds, for ``_hand_back``, each pattern's
    hosted X'Y'-values and the value of its other copies."""

    def __init__(self, weights: dict[tuple, int], domains: list, n: int):
        self.patterns = list(weights)
        self.total = sum(weights.values())
        self.x = _Side([p[:n] for p in self.patterns], domains[:n])
        self.y = _Side([p[n:] for p in self.patterns], domains[n:])
        self.sides = (self.x, self.y)
        self.assignment = Assignment(list(weights.values()))
        self.pairs: list[tuple[int, int]] = []
        # (extension count, slot, side) of each slot that no value matches
        # on x, or else on y; the first entry is the branch
        self.open = sorted((score, i, 0) for i, score in enumerate(self.x.scores))
        self.nodes = 0
        self.augmentations = 0
        self.result: tuple[dict[tuple, list[tuple]], dict[tuple, tuple]] | None = None
        for s, side in enumerate(self.sides):
            for value in [p for p in side.groups if NULL not in p]:
                self._push(s, value)

    def _key(self, i: int):
        """Slot i's entry in ``open``, or None once both sides match it."""
        if not self.x.opts[i]:
            return self.x.scores[i], i, 0
        if not self.y.opts[i]:
            return self.y.scores[i], i, 1
        return None

    def _rekey(self, before, after) -> None:
        if before != after:
            if before is not None:
                del self.open[bisect.bisect_left(self.open, before)]
            if after is not None:
                bisect.insort(self.open, after)

    def _push(self, s: int, value: tuple[str, ...]) -> None:
        side = self.sides[s]
        k = len(side.values)
        for i in side.push(value):
            opts = side.opts[i]
            if opts:
                opts.append(k)
            else:
                before = self._key(i)
                opts.append(k)
                self._rekey(before, self._key(i))

    def _pop(self, s: int) -> None:
        side = self.sides[s]
        for i in side.pop():
            opts = side.opts[i]
            if len(opts) > 1:
                opts.pop()
            else:
                before = self._key(i)
                opts.pop()
                self._rekey(before, self._key(i))

    def run(self) -> bool:
        """Depth-first over support states from an explicit stack: each entry
        is the number of pairs its state placed and either None (pruned) or
        the side it branches on with its iterator of extensions.  Leaving a
        state pops its pairs and the support value that led to it."""
        stack = [self._visit(None)]
        while stack and self.result is None:
            placed, branch = stack[-1]
            ext = next(branch[1], None) if branch else None
            if ext is None:
                stack.pop()
                for _ in range(placed):
                    self.assignment.pop()
                    self.pairs.pop()
                if stack:
                    self._pop(stack[-1][1][0])
                continue
            self._push(branch[0], ext)
            stack.append(self._visit(branch[0]))
        return self.result is not None

    def _visit(self, s: int | None):
        """Count the current state, reached by a value pushed on side ``s``
        (None for the initial state), and place its new pairs.  Returns how
        many pairs were placed and either None (pruned, or a witness stored
        in ``result``) or the side to branch on and its extensions."""
        self.nodes += 1
        x, y = self.x, self.y
        nu, nw = len(x.values), len(y.values)
        if nu * nw > self.total:
            return 0, None
        if s is None:
            new = itertools.product(range(nu), range(nw))
        elif s == 0:
            new = ((nu - 1, kw) for kw in range(nw))
        else:
            new = ((ku, nw - 1) for ku in range(nu))
        placed = 0
        for ku, kw in new:
            self.augmentations += 1
            if not self.assignment.add(x.slots_of[ku] & y.slots_of[kw]):
                return placed, None
            self.pairs.append((ku, kw))
            placed += 1
        if not self.open:
            hosted: dict[tuple, list[tuple]] = {}
            for (ku, kw), i in zip(self.pairs, self.assignment.slot_of):
                hosted.setdefault(self.patterns[i], []).append(x.values[ku] + y.values[kw])
            rest = [x.values[u[0]] + y.values[w[0]] for u, w in zip(x.opts, y.opts)]
            self.result = hosted, dict(zip(self.patterns, rest))
            return placed, None
        _, i, b = self.open[0]
        return placed, (b, self.sides[b].extensions(i))


def check_pia(r: Relation, x: Iterable[str], y: Iterable[str]) -> CheckReport:
    """Exact decision of a possible atom.  The constancy rule answers first.
    Otherwise the shared columns are pinned in the witness, which touches no
    column of the disjoint core: a core of two single columns takes the
    pooled assignment, and any other core the counting bound and the support
    search."""
    xi, yi, oi = _split_indices(r.schema, x, y)
    patterns = _patterns(r.rows, oi + xi + yi)
    decided, fixed = _by_constancy(r, patterns, oi, xi, yi)
    if decided is not None:
        return decided
    if len(xi) == len(yi) == 1:
        return _pooled_assignment(r, xi[0], yi[0], fixed)
    if not _counting_bound(r.size, patterns, len(oi), len(oi) + len(xi)):
        return CheckReport(False, METHOD_PIA_SEARCH, stats={"nodes": 0, "counting_bound": True})

    search = _PiaSearch(_weights(r, xi + yi), [r.schema.domains[j] for j in xi + yi], len(xi))
    found = search.run()
    stats = {"nodes": search.nodes, "augmentations": search.augmentations}
    if not found:
        return CheckReport(False, METHOD_PIA_SEARCH, stats=stats)
    witness = write_witness(r.schema, _hand_back(r, xi + yi, *search.result), fixed)
    return CheckReport(True, METHOD_PIA_SEARCH, stats=stats, witness=witness)


# -- dispatch ---------------------------------------------------------------


def check_atom(r: Relation, atom, method: str = "auto") -> CheckReport:
    """Route an atom to a checker.  ``auto`` uses the direct and
    polynomial/search paths; ``oracle`` enumerates groundings."""
    if method not in ("auto", "oracle"):
        raise ValueError(f"unknown method {method!r}")
    if atom.modality == PLAIN:
        return CheckReport(check_ia(r, atom.lhs, atom.rhs), METHOD_IA_DIRECT)
    if method == "oracle":
        if atom.modality == CERTAIN:
            return cia_oracle_report(r, atom.lhs, atom.rhs)
        return check_pia_oracle(r, atom.lhs, atom.rhs)
    if atom.modality == CERTAIN:
        return CheckReport(check_cia_fast(r, atom.lhs, atom.rhs), METHOD_CIA_FAST)
    return check_pia(r, atom.lhs, atom.rhs)
