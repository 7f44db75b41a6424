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
  copies.  The search keeps its state across nodes: each row's matching
  support values, the rows still to cover, and the assignment.  A node adds
  one support value, the pairs it forms and one augmenting path per pair;
  leaving the node pops them again, which needs no journal because every
  remaining pair still sits on a copy it may take.

Both assignments run on the one kernel in ``indepkit.flow``, and every
witness is finished by ``ground``, which fills the nulls left over.  Each
checker resolves its atom's attributes to column positions once; the steps
below it take positions.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import OracleInfeasibleError
from .flow import Assignment, FlowNetwork, max_flow_assignment
from .relation import NULL, Relation, Schema, relation_to_csv

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
    """Schema positions of x-only, y-only, and shared attributes."""
    xset, yset = frozenset(x), frozenset(y)
    xi = schema.indices(xset - yset)
    yi = schema.indices(yset - xset)
    oi = schema.indices(xset & yset)
    return xi, yi, oi


def _ia_on_rows(
    rows: Sequence[tuple[str, ...]],
    xi: tuple[int, ...],
    yi: tuple[int, ...],
    oi: tuple[int, ...],
) -> bool:
    """Plain independence on rows that are complete in the xi/yi/oi columns:
    shared columns constant and the joint support a full cross product."""
    if not rows:
        return True
    first = rows[0]
    for j in oi:
        v = first[j]
        for t in rows:
            if t[j] != v:
                return False
    xs = {tuple(t[j] for j in xi) for t in rows}
    ys = {tuple(t[j] for j in yi) for t in rows}
    xys = {tuple(t[j] for j in xi + yi) for t in rows}
    return len(xys) == len(xs) * len(ys)


def check_ia(r: Relation, x: Iterable[str], y: Iterable[str]) -> bool:
    """Does the relation itself satisfy the plain atom?  Requires the
    projection onto both sides to be complete."""
    xi, yi, oi = _split_indices(r.schema, x, y)
    for row in r.rows:
        for j in xi + yi + oi:
            if row[j] == NULL:
                return False
    return _ia_on_rows(r.rows, xi, yi, oi)


def is_certainly_constant(r: Relation, cols: Iterable[int]) -> bool:
    """Does every grounding make the given columns a single constant tuple?
    Relations with at most one row and no columns qualify trivially."""
    if r.size <= 1:
        return True
    for j in cols:
        first = r.rows[0][j]
        if first is NULL or any(row[j] != first for row in r.rows):
            return False
    return True


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
    if not is_certainly_constant(r, oi):
        return False
    if is_certainly_constant(r, xi) or is_certainly_constant(r, yi):  # also when empty
        return True
    patterns = set(map(itemgetter(*xi, *yi), r.rows))  # two or more columns: tuples
    domains = [r.schema.domains[j] for j in xi + yi]
    for k, dom in enumerate(domains):
        shown = {p[k] for p in patterns}
        if NULL in shown and len(shown) <= len(dom):
            return False
    n = len(xi)
    f = {p for p in patterns if NULL not in p}
    fx, fy = {p[:n] for p in f}, {p[n:] for p in f}
    return (
        len(f) == len(fx) * len(fy)
        and _grounds_into({p[:n] for p in patterns}, domains[:n], fx)
        and _grounds_into({p[n:] for p in patterns}, domains[n:], fy)
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


def ground(
    schema: Schema,
    rows: Iterable[Sequence[str]],
    counts: Iterable[int] | None = None,
    fixed: dict[int, str] | None = None,
) -> Relation:
    """The relation of the given rows with every remaining null in column j
    set to ``fixed[j]``, or else to the column's first domain value.  Complete
    rows pass through as they are."""
    fixed = fixed or {}
    fill = [fixed.get(j, schema.domains[j][0]) for j in range(len(schema.domains))]
    grounded = [
        row if NULL not in row else tuple(fill[j] if v is NULL else v for j, v in enumerate(row))
        for row in rows
    ]
    return Relation.from_rows(schema, grounded, counts, validate=False)


def _oracle(r: Relation, x: Iterable[str], y: Iterable[str], want: bool) -> CheckReport:
    """Enumerate the groundings of the X∪Y columns until the plain atom
    evaluates to ``want`` on one; that grounding is the witness and the
    verdict is ``want``, otherwise the verdict is ``not want``.

    One pass over the rows lists each row's nulls in the atom's columns and
    counts the groundings only until they pass the bound: p >= 2 choices per
    copy pass it within as many copies as the bound has bits.  A row with
    such a null becomes one row of count 1 per copy, every other row stays
    once with its count, and the null cells are assigned in (row, copy,
    column) order, the last varying fastest."""
    xi, yi, oi = _split_indices(r.schema, x, y)
    cols = sorted(xi + yi + oi)
    domains = r.schema.domains
    copies: list[list[str] | tuple[str, ...]] = []
    counts: list[int] = []
    cells: list[tuple[int, int]] = []
    n = 1
    for row, c in zip(r.rows, r.counts):
        nulls = [j for j in cols if row[j] is NULL]
        n *= math.prod(len(domains[j]) for j in nulls) ** min(c, ORACLE_BOUND.bit_length())
        if n > ORACLE_BOUND:
            raise OracleInfeasibleError(
                f"the groundings of the atom's columns are above the oracle bound of {ORACLE_BOUND}"
            )
        if not nulls:
            copies.append(row)
            counts.append(c)
            continue
        for _ in range(c):
            cells.extend((len(copies), j) for j in nulls)
            copies.append(list(row))
            counts.append(1)
    examined = 0
    for assignment in itertools.product(*(domains[j] for _, j in cells)):
        for (k, j), value in zip(cells, assignment):
            copies[k][j] = value
        rows = [tuple(row) for row in copies]
        examined += 1
        if _ia_on_rows(rows, xi, yi, oi) == want:
            return CheckReport(
                want,
                METHOD_ORACLE,
                stats={"groundings": examined},
                witness=ground(r.schema, rows, counts),
            )
    return CheckReport(not want, METHOD_ORACLE, stats={"groundings": examined})


def cia_oracle_report(r: Relation, x: Iterable[str], y: Iterable[str]) -> CheckReport:
    """Conjunction of the plain check over all groundings; on refutation the
    witness is the first failing grounding."""
    return _oracle(r, x, y, want=False)


def check_pia_oracle(r: Relation, x: Iterable[str], y: Iterable[str]) -> CheckReport:
    """Existential grounding check, returning the first witnessing grounding."""
    return _oracle(r, x, y, want=True)


# -- possible atoms: the constancy rule -------------------------------------


def _pins(r: Relation, cols: Iterable[int]) -> dict[int, str] | None:
    """The value each column must take for the columns to ground to one
    constant tuple: the one non-null value it shows (an all-null column needs
    none, as ``ground`` fills it alike), or None at a column's second value."""
    pins: dict[int, str] = {}
    for j in cols:
        for row in r.rows:
            v = row[j]
            if v is not NULL and pins.setdefault(j, v) != v:
                return None
    return pins


def _by_constancy(
    r: Relation, sides: tuple[tuple[int, ...], ...], oi: tuple[int, ...]
) -> tuple[CheckReport | None, dict[int, str]]:
    """The constancy rule of a possible atom.  A shared column is constant in
    any witness, so one that shows two values refutes the atom.  A side (of
    those given in ``sides``) whose own columns can ground to one constant
    tuple has a one-tuple support, so grounding it and the shared columns so
    makes the atom hold.  Returns the report when the rule decides, and the
    pins of the shared columns."""
    rule = {"nodes": 0, "constancy": True}
    fixed = _pins(r, oi)
    if fixed is None:
        return CheckReport(False, METHOD_PIA_SEARCH, stats=rule), {}
    for side in sides:
        pins = _pins(r, side)
        if pins is not None:
            witness = ground(r.schema, r.rows, r.counts, {**fixed, **pins})
            return CheckReport(True, METHOD_PIA_SEARCH, stats=rule, witness=witness), fixed
    return None, fixed


# -- unary possible atoms: pooled assignment --------------------------------


@dataclass(frozen=True)
class ProductNetwork(FlowNetwork):
    """The assignment network of a unary possible atom, with the non-null
    values of its two columns in first-occurrence order."""

    a_values: tuple[str, ...]
    b_values: tuple[str, ...]


def build_flow_network(r: Relation, ia: int, ib: int) -> ProductNetwork:
    """Assignment network for a unary possible atom on columns ia and ib.
    The items are the cells of the product of the non-null values of the two
    columns that no complete tuple covers; the slots are the null pools
    ``(va, *)``, ``(*, vb)`` and ``(*, *)``, each holding its tuple copies.
    A cell may take a copy from its row pool, its column pool or the
    wildcard pool.  One pass over the rows collects the value pairs, and
    with them each column's values."""
    if ia == ib:
        raise ValueError("two distinct columns are required")
    pairs: dict[tuple, int] = {}
    for row, count in zip(r.rows, r.counts):
        key = (row[ia], row[ib])
        pairs[key] = pairs.get(key, 0) + count
    # a value's first pair comes no later than its first row
    avals = tuple(dict.fromkeys(va for va, _ in pairs if va is not NULL))
    bvals = tuple(dict.fromkeys(vb for _, vb in pairs if vb is not NULL))
    if not avals or not bvals:
        empty = r.schema.attributes[ib if avals else ia]
        raise ValueError(f"column {empty!r} has no non-null value")
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
    ground to it.  The network reads only the two columns, so the pins of
    the shared columns go to the witness alone."""
    network = build_flow_network(r, ia, ib)
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
    rows: list[Sequence[str]] = []
    counts: list[int] = []
    for row, count in zip(r.rows, r.counts):
        cells = cells_of.get((row[ia], row[ib]), [])
        while cells and count:
            new = list(row)
            new[ia], new[ib] = cells.pop()
            rows.append(new)
            counts.append(1)
            count -= 1
        if count:
            rows.append(row)
            counts.append(count)
    witness = ground(r.schema, rows, counts, {**fixed, ia: avals[0], ib: bvals[0]})
    return CheckReport(True, METHOD_PIA_FLOW, stats=stats, witness=witness)


def check_pia_unary(r: Relation, a: str, b: str) -> CheckReport:
    """Alias of ``check_pia(r, {a}, {b})``.  No library code calls it; it
    stays only because the benchmark tracer wraps it by name for its
    ``model_check.check_pia_unary_ms`` metric, until that metric goes."""
    return check_pia(r, {a}, {b})


# -- general possible atoms: support-set search ------------------------------


def _counting_bound(r: Relation, xi: tuple[int, ...], yi: tuple[int, ...]) -> bool:
    """Cheap refutation for disjoint column sets: the complete tuples already
    fixed on each side force a cross product larger than the relation.
    ``False`` refutes the possible atom; ``True`` is no conclusion."""
    nx = len({t for t in (tuple(row[j] for j in xi) for row in r.rows) if NULL not in t})
    ny = len({t for t in (tuple(row[j] for j in yi) for row in r.rows) if NULL not in t})
    return nx * ny <= r.size


def _column_candidates(r: Relation, j: int) -> tuple[str, ...]:
    """Values a null cell in column j may take in the search: the values the
    column shows, or its first domain value when it shows none.  Unshown
    values are never needed: plain independence is invariant under renaming
    values, so mapping every unshown value of a witness's column to one shown
    value keeps its non-null cells and maps a product support to a product."""
    shown = tuple(dict.fromkeys(row[j] for row in r.rows if row[j] is not NULL))
    return shown or r.schema.domains[j][:1]


class _Side:
    """One side of the support search: its support values, the rows each
    value matches, and for each row the indices of the values it matches.

    Rows are grouped by their pattern on the side's columns.  A value matches
    the patterns got by blanking it at each null-mask that occurs, so pushing
    a value looks those patterns up instead of scanning the rows."""

    def __init__(self, r: Relation, cols: tuple[int, ...]):
        self.cols = cols
        self.cand = [_column_candidates(r, j) for j in cols]
        self.patterns = [tuple(row[j] for j in cols) for row in r.rows]
        self.groups: dict[tuple, list[int]] = {}
        for i, pattern in enumerate(self.patterns):
            self.groups.setdefault(pattern, []).append(i)
        self.masks = list(dict.fromkeys(tuple(v is NULL for v in p) for p in self.groups))
        # how many extensions a row's pattern has: its branching score
        self.scores = [
            math.prod(len(c) if v is NULL else 1 for v, c in zip(p, self.cand))
            for p in self.patterns
        ]
        self.values: list[tuple[str, ...]] = []
        self.rows_of: list[set[int]] = []
        self.opts: list[list[int]] = [[] for _ in self.patterns]

    def push(self, value: tuple[str, ...]) -> set[int]:
        """Add a support value; returns the rows it matches, whose option
        lists the caller extends."""
        rows: set[int] = set()
        for mask in self.masks:
            key = tuple(NULL if blank else v for v, blank in zip(value, mask))
            rows.update(self.groups.get(key, ()))
        self.values.append(value)
        self.rows_of.append(rows)
        return rows

    def pop(self) -> set[int]:
        """Remove the newest support value; returns the rows it matched."""
        self.values.pop()
        return self.rows_of.pop()

    def extensions(self, i: int):
        choices = [(v,) if v is not NULL else c for v, c in zip(self.patterns[i], self.cand)]
        return itertools.product(*choices)


class _PiaSearch:
    """Depth-first search for a grounding with cross-product support.

    The state is a pair of candidate support sets (one per side).  Complete
    side-tuples force initial members; a row that no current value matches
    on a side branches over its possible groundings there, fewest first; an
    assignment of support pairs to tuple copies prunes states that cannot
    cover the product (supersets only add pairs, so infeasibility is final).

    The state is kept incrementally, so a node costs what its new support
    value adds.  Pushing a value adds its index to the option lists of the
    rows it matches and updates ``open``, the sorted branch keys of the rows
    still lacking a value on a side.  Visiting the new state adds only the
    pairs the value forms with the other side, each hosted by the rows both
    of its values match and placed by one augmenting path.  Leaving a state
    undoes it without a journal: popping its pairs frees their copies and
    leaves every other pair on a copy it may take, and popping its value
    reverses the option lists.  A state reached twice is explored twice:
    its subtree depends only on its support sets, so the second visit fails
    as the first did.  ``result`` holds the witness rows and their counts,
    grounded on the two sides only."""

    def __init__(self, r: Relation, x_cols: tuple[int, ...], y_cols: tuple[int, ...]):
        self.rows = r.rows
        self.counts = r.counts
        self.total = r.size
        self.x = _Side(r, x_cols)
        self.y = _Side(r, y_cols)
        self.sides = (self.x, self.y)
        self.assignment = Assignment(r.counts)
        self.pairs: list[tuple[int, int]] = []
        # (extension count, row, side) of each row that no value matches on
        # x, or else on y; the first entry is the branch
        self.open = sorted((score, i, 0) for i, score in enumerate(self.x.scores))
        self.nodes = 0
        self.augmentations = 0
        self.result: tuple[list[list[str]], list[int]] | None = None
        for s, side in enumerate(self.sides):
            for value in dict.fromkeys(p for p in side.patterns if NULL not in p):
                self._push(s, value)

    def _key(self, i: int):
        """Row i's entry in ``open``, or None once both sides match it."""
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
            if not self.assignment.add(x.rows_of[ku] & y.rows_of[kw]):
                return placed, None
            self.pairs.append((ku, kw))
            placed += 1
        if not self.open:
            self.result = self._build_witness()
            return placed, None
        _, i, b = self.open[0]
        return placed, (b, self.sides[b].extensions(i))

    def _build_witness(self) -> tuple[list[list[str]], list[int]]:
        """Rows and counts of the witness: each hosted copy of row i grounds
        to its pair as a row of its own, and the rest of row i to the first
        pair it may take as one row."""
        x, y = self.x, self.y
        hosted: list[list[tuple[int, int]]] = [[] for _ in self.rows]
        for pair, i in zip(self.pairs, self.assignment.slot_of):
            hosted[i].append(pair)
        rows: list[list[str]] = []
        counts: list[int] = []
        for i, (row, count) in enumerate(zip(self.rows, self.counts)):
            rest = count - len(hosted[i])
            others = [((x.opts[i][0], y.opts[i][0]), rest)] if rest else []
            for (ku, kw), c in [(pair, 1) for pair in hosted[i]] + others:
                new = list(row)
                for j, v in zip(x.cols + y.cols, x.values[ku] + y.values[kw]):
                    new[j] = v
                rows.append(new)
                counts.append(c)
        return rows, counts


def check_pia(r: Relation, x: Iterable[str], y: Iterable[str]) -> CheckReport:
    """Exact decision of a possible atom.  The constancy rule answers first.
    Otherwise the shared columns are pinned in the witness, which touches no
    column of the disjoint core: a core of two single columns takes the
    pooled assignment, and any other core the counting bound and the support
    search."""
    xi, yi, oi = _split_indices(r.schema, x, y)
    decided, fixed = _by_constancy(r, (xi, yi), oi)
    if decided is not None:
        return decided
    if len(xi) == len(yi) == 1:
        return _pooled_assignment(r, xi[0], yi[0], fixed)
    if not _counting_bound(r, xi, yi):
        return CheckReport(False, METHOD_PIA_SEARCH, stats={"nodes": 0, "counting_bound": True})

    search = _PiaSearch(r, xi, yi)
    found = search.run()
    stats = {"nodes": search.nodes, "augmentations": search.augmentations}
    if not found:
        return CheckReport(False, METHOD_PIA_SEARCH, stats=stats)
    witness = ground(r.schema, *search.result, fixed=fixed)
    return CheckReport(True, METHOD_PIA_SEARCH, stats=stats, witness=witness)


# -- dispatch ---------------------------------------------------------------


def check_atom(r: Relation, atom, method: str = "auto") -> CheckReport:
    """Route an atom to a checker.  ``auto`` uses the direct and
    polynomial/search paths; ``oracle`` enumerates groundings."""
    if method not in ("auto", "oracle"):
        raise ValueError(f"unknown method {method!r}")
    if atom.modality == "plain":
        return CheckReport(check_ia(r, atom.lhs, atom.rhs), METHOD_IA_DIRECT)
    if method == "oracle":
        if atom.modality == "certain":
            return cia_oracle_report(r, atom.lhs, atom.rhs)
        return check_pia_oracle(r, atom.lhs, atom.rhs)
    if atom.modality == "certain":
        return CheckReport(check_cia_fast(r, atom.lhs, atom.rhs), METHOD_CIA_FAST)
    return check_pia(r, atom.lhs, atom.rhs)
