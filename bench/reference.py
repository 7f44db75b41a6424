"""Reference answers computed without indepkit.

Everything here is the benchmark's own implementation of the semantics the
package decides, so that a verdict can be checked against an answer the
package did not compute:

* plain independence on a complete projection;
* grounding enumeration for small relations, with unused domain values
  reduced to one fresh value per null cell (independence is invariant under
  renaming values that do not occur);
* an exact matching decider for possible atoms over two single attributes;
* certificates for certain and possible atoms on large relations: a product
  already covered by complete rows, a side that is or can be made constant,
  a counting bound, or a grounding that violates the atom;
* brute-force satisfiability for CNF formulas;
* rule applications and model relations for implication.

A relation is a ``Rel``: attribute names, per-attribute domains (``None``
for a domain inferred from the data, which always has a spare value per
null cell) and distinct rows with multiplicities.  ``None`` marks a null.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property


class TooLarge(Exception):
    """A brute-force reference would exceed its enumeration cap."""


@dataclass(frozen=True)
class Rel:
    attrs: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...] | None
    rows: tuple[tuple, ...]
    counts: tuple[int, ...]

    @classmethod
    def build(cls, attrs, rows, counts=None, domains=None) -> Rel:
        merged: dict[tuple, int] = {}
        counts = [1] * len(rows) if counts is None else counts
        for row, c in zip(rows, counts):
            merged[tuple(row)] = merged.get(tuple(row), 0) + c
        doms = None if domains is None else tuple(tuple(domains[a]) for a in attrs)
        return cls(tuple(attrs), doms, tuple(merged), tuple(merged.values()))

    @property
    def size(self) -> int:
        return sum(self.counts)

    def attrs_of(self, cols) -> frozenset[str]:
        return frozenset(self.attrs[j] for j in cols)

    def cols(self, names) -> tuple[int, ...]:
        wanted = set(names)
        return tuple(j for j, a in enumerate(self.attrs) if a in wanted)

    def observed(self, j: int) -> list[str]:
        return list(dict.fromkeys(r[j] for r in self.rows if r[j] is not None))

    def nulls(self, j: int) -> int:
        return sum(c for r, c in zip(self.rows, self.counts) if r[j] is None)

    def copies(self) -> list[list]:
        return [list(r) for r, c in zip(self.rows, self.counts) for _ in range(c)]

    @cached_property
    def candidates(self) -> tuple[list[str], ...]:
        """Per column, the values a null needs to be tried with: the observed
        values plus one unused value per null cell."""
        out = []
        for j in range(len(self.attrs)):
            seen = self.observed(j)
            k = self.nulls(j)
            if self.domains is None:
                fresh = [f"#fresh{i}" for i in range(k)]
            else:
                fresh = [v for v in self.domains[j] if v not in set(seen)][:k]
            out.append(seen + fresh)
        return tuple(out)


def _split(rel: Rel, x, y):
    xs, ys = set(x), set(y)
    return rel.cols(xs - ys), rel.cols(ys - xs), rel.cols(xs & ys)


# -- plain independence -----------------------------------------------------


def plain_rows_hold(rows, xi, yi, oi) -> bool:
    """Plain independence on rows complete in the given columns: shared
    columns constant, joint support equal to the product of the side
    supports."""
    rows = list(rows)
    if not rows:
        return True
    for j in oi:
        if len({r[j] for r in rows}) > 1:
            return False
    xs = {tuple(r[j] for j in xi) for r in rows}
    ys = {tuple(r[j] for j in yi) for r in rows}
    xys = {(tuple(r[j] for j in xi), tuple(r[j] for j in yi)) for r in rows}
    return len(xys) == len(xs) * len(ys)


def plain_holds(rel: Rel, x, y) -> bool:
    xi, yi, oi = _split(rel, x, y)
    used = xi + yi + oi
    if any(r[j] is None for r in rel.rows for j in used):
        return False
    return plain_rows_hold(rel.rows, xi, yi, oi)


# -- groundings --------------------------------------------------------------


def _groundings(rel: Rel, columns, cap: int):
    copies = rel.copies()
    cells = [(k, j) for k, row in enumerate(copies) for j in columns if row[j] is None]
    choices = [rel.candidates[j] for _, j in cells]
    total = 1
    for c in choices:
        total *= len(c)
        if total > cap:
            raise TooLarge(f"more than {cap} groundings")
    for assignment in itertools.product(*choices):
        for (k, j), v in zip(cells, assignment):
            copies[k][j] = v
        yield copies


def brute_possible(rel: Rel, x, y, cap: int = 20000):
    """(verdict, witness rows or None) by enumerating groundings of X∪Y."""
    xi, yi, oi = _split(rel, x, y)
    for rows in _groundings(rel, xi + yi + oi, cap):
        if plain_rows_hold(rows, xi, yi, oi):
            return True, [tuple(r) for r in rows]
    return False, None


def brute_certain(rel: Rel, x, y, cap: int = 20000) -> bool:
    xi, yi, oi = _split(rel, x, y)
    return all(
        plain_rows_hold(rows, xi, yi, oi) for rows in _groundings(rel, xi + yi + oi, cap)
    )


# -- a capacitated bipartite matching kernel --------------------------------


def transport(left_caps, right_caps, adj):
    """Maximum b-matching: left node i sends up to left_caps[i] units along
    its edges adj[i] to right nodes, right node r absorbs up to
    right_caps[r].  Greedy start, then breadth-first augmenting paths.
    Returns (total, flow) with flow[(i, r)] the units on each edge."""
    flow: Counter = Counter()
    used_left = [0] * len(left_caps)
    used_right = Counter()
    by_right: dict = {}
    for i, nbrs in enumerate(adj):
        for r in nbrs:
            by_right.setdefault(r, []).append(i)
    for i, nbrs in enumerate(adj):
        for r in nbrs:
            room = min(left_caps[i] - used_left[i], right_caps[r] - used_right[r])
            if room > 0:
                flow[(i, r)] += room
                used_left[i] += room
                used_right[r] += room
    for i in range(len(adj)):
        while used_left[i] < left_caps[i]:
            # BFS over left nodes; a right node with spare capacity ends a path
            prev_left: dict[int, tuple] = {i: None}
            queue = deque([i])
            end = None
            while queue and end is None:
                u = queue.popleft()
                for r in adj[u]:
                    if used_right[r] < right_caps[r]:
                        end = (u, r)
                        break
                    for v in by_right.get(r, ()):
                        if v not in prev_left and flow[(v, r)] > 0:
                            prev_left[v] = (u, r)
                            queue.append(v)
            if end is None:
                break
            u, r = end
            used_right[r] += 1
            flow[(u, r)] += 1
            while prev_left[u] is not None:
                p, r2 = prev_left[u]
                flow[(u, r2)] -= 1
                flow[(p, r2)] += 1
                u = p
            used_left[i] += 1
    return sum(used_left), flow


def is_grounding(orig: Rel, rows, counts=None) -> bool:
    """Is the complete multiset (rows, counts) a grounding of ``orig``: same
    size, values from the domains, and a one-to-one match of copies in
    which every non-null cell is kept?"""
    counts = [1] * len(rows) if counts is None else list(counts)
    left = Counter()
    for row, c in zip(rows, counts):
        if len(row) != len(orig.attrs) or any(v is None for v in row):
            return False
        left[tuple(row)] += c
    if sum(left.values()) != orig.size:
        return False
    if orig.domains is not None:
        doms = [set(d) for d in orig.domains]
        if any(v not in doms[j] for row in left for j, v in enumerate(row)):
            return False
    partial = {}
    for row, c in zip(orig.rows, orig.counts):
        if None in row:
            partial[row] = partial.get(row, 0) + c
        else:
            left[row] -= c
            if left[row] < 0:
                return False
    pats = list(partial)
    index = {p: k for k, p in enumerate(pats)}
    masks = {tuple(j for j, v in enumerate(p) if v is None) for p in pats}
    wits = [w for w, c in left.items() if c > 0]
    adj: list[list[int]] = [[] for _ in pats]
    for w in wits:
        for mask in masks:
            key = list(w)
            for j in mask:
                key[j] = None
            k = index.get(tuple(key))
            if k is not None:
                adj[k].append(w)
    need = sum(partial.values())
    total, _ = transport([partial[p] for p in pats], {w: left[w] for w in wits}, adj)
    return total == need


# -- possible atoms over two single attributes -------------------------------


def unary_possible(rel: Rel, a: str, b: str, witness: bool = True):
    """Exact decision of ``a _||_p b`` for distinct attributes: every cell of
    the product of observed values that no complete row covers takes one
    copy from its row pool (a,*), column pool (*,b) or the wildcard pool.
    Returns (verdict, witness rows or None); the witness is built only when
    asked for."""
    ia, ib = rel.attrs.index(a), rel.attrs.index(b)
    avals, bvals = rel.observed(ia), rel.observed(ib)
    if not avals or not bvals:
        if not witness:
            return True, None
        return True, _ground_constant(rel, rel.copies(), [ia] if not avals else [ib])
    covered = {(r[ia], r[ib]) for r in rel.rows if r[ia] is not None and r[ib] is not None}
    missing = [(va, vb) for va in avals for vb in bvals if (va, vb) not in covered]
    pools: Counter = Counter()
    for r, c in zip(rel.rows, rel.counts):
        if r[ia] is None or r[ib] is None:
            pools[(r[ia], r[ib])] += c
    adj = [
        [p for p in ((va, None), (None, vb), (None, None)) if pools[p]]
        for va, vb in missing
    ]
    total, flow = transport([1] * len(missing), pools, adj)
    if total < len(missing) or not witness:
        return total == len(missing), None
    assigned: dict[tuple, list] = {}
    for (i, pool), units in flow.items():
        assigned.setdefault(pool, []).extend([missing[i]] * units)
    out = []
    for row in rel.copies():
        if row[ia] is None or row[ib] is None:
            queue = assigned.get((row[ia], row[ib]), [])
            if queue:
                row[ia], row[ib] = queue.pop()
            else:
                row[ia] = avals[0] if row[ia] is None else row[ia]
                row[ib] = bvals[0] if row[ib] is None else row[ib]
        out.append(_fill(rel, row))
    return True, out


def _fill(rel: Rel, row) -> tuple:
    cands = rel.candidates
    return tuple(v if v is not None else cands[j][0] for j, v in enumerate(row))


def _ground_constant(rel: Rel, copies, cols) -> list[tuple]:
    """Ground every null in ``cols`` to one value per column, the rest by
    ``_fill``."""
    fixed = {j: rel.candidates[j][0] for j in cols}
    return [
        _fill(rel, [fixed[j] if v is None and j in fixed else v for j, v in enumerate(r)])
        for r in copies
    ]


# -- certificates for large relations ----------------------------------------


def certainly_constant(rel: Rel, cols) -> bool:
    values = {tuple(r[j] for j in cols) for r in rel.rows}
    return len(values) <= 1 and all(None not in v for v in values)


def certain_reference(rel: Rel, x, y) -> bool | None:
    """True or False when a certificate exists, else None.

    Holds: at most one copy; a side certainly constant; no nulls in the
    atom's columns and plain independence; or (explicit domains) complete
    rows already covering the whole product of the side domains, which every
    grounding keeps.  Fails: a non-constant shared column, or one of two
    simple groundings that violates the plain atom."""
    if rel.size <= 1:
        return True
    xi, yi, oi = _split(rel, x, y)
    if oi and not certainly_constant(rel, oi):
        return False
    if not xi or not yi or certainly_constant(rel, xi) or certainly_constant(rel, yi):
        return True
    used = xi + yi
    if all(r[j] is not None for r in rel.rows for j in used):
        return plain_rows_hold(rel.rows, xi, yi, oi)
    if rel.domains is not None:
        covered = {
            (tuple(r[j] for j in xi), tuple(r[j] for j in yi))
            for r in rel.rows
            if all(r[j] is not None for j in used)
        }
        cells = 1
        for j in used:
            cells *= len(rel.domains[j])
        if len(covered) == cells:
            return True
    for ground in _violation_tries(rel, used):
        rows = ground(rel.copies())
        if not plain_rows_hold(rows, xi, yi, oi):
            return False
    return None


def _violation_tries(rel: Rel, used):
    cand = rel.candidates
    seen = {j: len(rel.observed(j)) for j in used}

    def first_observed(copies):
        for row in copies:
            for j in used:
                if row[j] is None:
                    row[j] = cand[j][0]
        return copies

    def one_unused(copies):
        # the first null gets a value nobody else has, the rest the first
        # observed value; a new side tuple then pairs with a single partner
        done = False
        for row in copies:
            for j in used:
                if row[j] is None:
                    spare = cand[j][seen[j]:]
                    if not done and spare:
                        row[j], done = spare[0], True
                    else:
                        row[j] = cand[j][0]
        return copies

    return (first_observed, one_unused)


def counting_refutes(rel: Rel, x, y) -> bool:
    """More distinct complete side tuples than copies for their product:
    no grounding can satisfy the (disjoint) possible atom."""
    xi, yi, _ = _split(rel, x, y)
    nx = len({t for t in (tuple(r[j] for j in xi) for r in rel.rows) if None not in t})
    ny = len({t for t in (tuple(r[j] for j in yi) for r in rel.rows) if None not in t})
    return nx * ny > rel.size


def possible_reference(rel: Rel, x, y, planted=None, cap: int = 20000):
    """(verdict, witness rows or None) when a certificate exists, else
    (None, None).

    Fails: shared columns with two observed values, or more complete side
    tuples than the relation has copies for their product.  Holds: an empty
    or constant-groundable side, a planted grounding satisfying the atom, the
    matching decider for single attributes, or the brute force within
    ``cap`` groundings.  ``planted`` must be a grounding of ``rel`` (the
    complete relation it was made from by nulling cells)."""
    xi, yi, oi = _split(rel, x, y)
    if any(len(rel.observed(j)) > 1 for j in oi):
        return False, None
    if xi and yi and counting_refutes(rel, rel.attrs_of(xi), rel.attrs_of(yi)):
        return False, None
    for side in (xi, yi):
        if all(len(rel.observed(j)) <= 1 for j in side):
            rows = _ground_constant(rel, rel.copies(), side + oi)
            return True, rows
    if planted is not None and plain_holds(planted, x, y):
        return True, [r for r, c in zip(planted.rows, planted.counts) for _ in range(c)]
    if len(xi) == 1 and len(yi) == 1 and not oi:
        return unary_possible(rel, rel.attrs[xi[0]], rel.attrs[yi[0]])
    try:
        verdict, rows = brute_possible(rel, x, y, cap)
    except TooLarge:
        return None, None
    return verdict, rows and [_fill(rel, list(r)) for r in rows]


# -- satisfiability -----------------------------------------------------------


def sat_brute(num_vars: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


# -- implication: atoms, rule applications, model relations ------------------
#
# An atom is (lhs, rhs, modality) with frozenset sides and modality
# "plain", "possible" or "certain".

_OPS = (("_||_p", "possible"), ("_||_c", "certain"), ("_||_", "plain"))


def attributes_of(atoms) -> frozenset[str]:
    return frozenset().union(*(a[0] | a[1] for a in atoms))


def atom_text(atom) -> str:
    lhs, rhs, mod = atom
    op = {m: o for o, m in _OPS}[mod]
    side = lambda s: ",".join(sorted(s)) if s else "{}"  # noqa: E731
    return f"{side(lhs)} {op} {side(rhs)}"


def parse_atom_text(text: str):
    for op, mod in _OPS:
        if op in text:
            left, right = text.split(op, 1)
            side = lambda s: frozenset(  # noqa: E731
                a.strip() for a in s.strip().strip("{}").split(",") if a.strip()
            )
            return side(left), side(right), mod
    raise ValueError(f"no operator in {text!r}")


def rule_step(rule: str, used, atom) -> bool:
    """Does ``atom`` follow from ``used`` by the rule kind (trivial,
    symmetry, decomposition, exchange, constancy) in one modality?"""
    lhs, rhs, mod = atom
    if any(u[2] != mod for u in used):
        return False
    if rule == "trivial":
        return not used and not rhs
    if rule == "symmetry":
        return len(used) == 1 and (lhs, rhs) == (used[0][1], used[0][0])
    if rule == "decomposition":
        return len(used) == 1 and lhs == used[0][0] and rhs <= used[0][1]
    if rule == "exchange":
        if mod == "possible" or len(used) != 2:
            return False  # exchange is unsound for possible atoms
        (a, b) = used
        return b[0] == a[0] | a[1] and lhs == a[0] and rhs == a[1] | b[1]
    if rule == "constancy":
        if len(used) != 2:
            return False
        (a, b) = used
        return a[0] == a[1] and lhs == a[0] | b[0] and rhs == b[1]
    return False


def check_steps(steps, premises) -> bool:
    """Validate a derivation given as (atom, rule or None, premise indices)
    triples; the last atom is its conclusion."""
    names = {
        "T": "trivial", "S": "symmetry", "D": "decomposition",
        "E": "exchange", "C": "constancy",
    }
    premises = set(premises)
    for n, (atom, rule, refs) in enumerate(steps):
        if rule is None:
            if atom not in premises:
                return False
            continue
        if any(i >= n for i in refs):
            return False
        kind = names.get(rule.split("_")[0])
        if rule in ("E_pc", "E_cp"):
            return False  # mixed exchange is not used by the workloads
        if kind is None or not rule_step(kind, [steps[i][0] for i in refs], atom):
            return False
    return True


def derive_random(premises, universe, rules, rng, steps: int):
    """Apply ``steps`` random sound rule applications to the premises and
    return the new atoms (each with its derivation) in order of creation.
    ``rules`` is a subset of {"symmetry", "decomposition", "exchange",
    "constancy"}; all atoms keep the premises' modality."""
    known = list(dict.fromkeys(premises))
    made = []
    for _ in range(steps):
        rule = rng.choice(sorted(rules))
        a = rng.choice(known)
        new = None
        if rule == "symmetry":
            new = (a[1], a[0], a[2])
        elif rule == "decomposition" and len(a[1]) > 1:
            keep = rng.sample(sorted(a[1]), rng.randint(1, len(a[1]) - 1))
            new = (a[0], frozenset(keep), a[2])
        elif rule == "exchange":
            partners = [b for b in known if b[0] == a[0] | a[1] and b[2] == a[2]]
            if partners:
                b = rng.choice(partners)
                new = (a[0], a[1] | b[1], a[2])
        elif rule == "constancy" and a[0] == a[1]:
            b = rng.choice(known)
            new = (a[0] | b[0], b[1], a[2])
        if new is not None and new[0] | new[1] <= universe and new not in known:
            known.append(new)
            made.append(new)
    return made


def _parity_holds(atom, z: frozenset) -> bool:
    lhs, rhs, _ = atom
    if lhs & rhs & z:
        return False
    return not (z <= (lhs | rhs) and lhs & z and rhs & z)


def parity_model(universe, z: frozenset) -> Rel:
    """Complete relation: the columns of ``z`` range over the even-parity
    0/1 assignments (a single column of ``z`` varies freely), every other
    column is 0."""
    attrs = tuple(sorted(universe))
    zs = [a for a in attrs if a in z]
    rows = []
    for bits in itertools.product("01", repeat=len(zs)):
        if len(zs) > 1 and bits.count("1") % 2:
            continue
        value = dict(zip(zs, bits))
        rows.append(tuple(value.get(a, "0") for a in attrs))
    return Rel.build(attrs, rows, domains={a: ("0", "1") for a in attrs})


def exchange_model(universe, a: str, b: str, c: str) -> Rel:
    """The exchange-failure relation on columns a, b, c (other columns 0):
    a _||_p b and a,b _||_p c hold, a _||_p b,c fails."""
    attrs = tuple(sorted(universe))
    pattern = [("0", "0", "0"), (None, "1", "0"), (None, "0", "1"), ("1", "1", "1")]
    rows = []
    for va, vb, vc in pattern:
        value = {a: va, b: vb, c: vc}
        rows.append(tuple(value.get(x, "0") for x in attrs))
    return Rel.build(attrs, rows, domains={x: ("0", "1") for x in attrs})


def satisfies(rel: Rel, atom, cap: int = 20000) -> bool:
    lhs, rhs, mod = atom
    if mod == "plain":
        return plain_holds(rel, lhs, rhs)
    if mod == "certain":
        return brute_certain(rel, lhs, rhs, cap)
    return brute_possible(rel, lhs, rhs, cap)[0]


def countermodel(premises, goal, universe):
    """A relation in which every premise holds and the goal fails, found
    among the parity relations, the single-varying-column relations and (for
    modal atoms) the exchange-failure relation placed on any three columns;
    None if none of them separates."""
    universe = frozenset(universe)
    atoms = list(premises)
    for size in range(1, len(universe) + 1):
        for z in itertools.combinations(sorted(universe), size):
            z = frozenset(z)
            if _parity_holds(goal, z) or not all(_parity_holds(p, z) for p in atoms):
                continue
            model = parity_model(universe, z)
            if not satisfies(model, goal) and all(satisfies(model, p) for p in atoms):
                return model
    # plain atoms speak about complete relations, so a model with nulls
    # refutes nothing there
    if len(universe) >= 3 and all(a[2] != "plain" for a in [*atoms, goal]):
        for a, b, c in itertools.permutations(sorted(universe), 3):
            model = exchange_model(universe, a, b, c)
            if not satisfies(model, goal) and all(satisfies(model, p) for p in atoms):
                return model
    return None
