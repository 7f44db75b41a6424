"""The three workloads: seeded input generators, the queries sent to
indepkit, and the check of every answer against ``reference``.

``build(name, seed, workdir, pkg)`` generates a workload's inputs from the
seed, writes its files, loads what the library queries need and returns a
``Pool``: the queries in closed-loop order, a few warm-up calls, the
commands timed as cold CLI processes and the known-defect probes.

The generators draw saturated sidecar domains, overlapping sides and
oracle queries at a fixed share, as real inputs do.  An input that has the
signature of a known defect below is not put in the timed pool, where it
would fail every pass, but becomes a probe: the probes run once per run,
outside the timing, and the run reports which of them reproduce their
defect.  So the pool is answered without failures while every known defect
still shows in every run's output.  A query's ``run`` calls the package
through module attributes, so installed trace wrappers see the calls; its
``check`` returns one of the statuses below and a cause.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

OK, UNDECIDED = "ok", "undecided"  # counted as not failed
KNOWN, WRONG, ERROR = "known", "wrong", "error"  # counted as failed

DEFECT_1 = "defect 1: certain fast path wrong under saturated sidecar domains"
DEFECT_2 = "defect 2: possible-atom witness violates the atom when the sides overlap"
DEFECT_4 = "defect 4: oracle gate counts nulls outside the atom"


@dataclass
class Query:
    family: str
    via: str  # "lib" or "cli"
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]


@dataclass
class Pool:
    queries: list[Query]
    warmup: list[Callable[[], object]]
    cli_cold: list[list[str]]
    probes: list[tuple[str, Query]] = field(default_factory=list)  # (defect, query)


class Package:
    """The indepkit modules the queries call, imported once."""

    def __init__(self):
        import indepkit.atoms as atoms
        import indepkit.cli as cli
        import indepkit.constructions as constructions
        import indepkit.implication as implication
        import indepkit.model_check as model_check
        import indepkit.relation as relation
        import indepkit.rules as rules

        self.atoms, self.cli, self.constructions = atoms, cli, constructions
        self.implication, self.model_check = implication, model_check
        self.relation, self.rules = relation, rules
        self.NULL = relation.NULL

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def to_package(self, rel: ref.Rel):
        schema = self.relation.Schema.of(rel.attrs, dict(zip(rel.attrs, rel.domains)))
        rows = [tuple(self.NULL if v is None else v for v in r) for r in rel.rows]
        return self.relation.Relation.from_rows(schema, rows, rel.counts)

    def rows_of(self, relation):
        rows = [tuple(None if v is self.NULL else v for v in r) for r in relation.rows]
        return rows, list(relation.counts)


# -- files ---------------------------------------------------------------------


def write_csv(path: Path, rel: ref.Rel) -> None:
    lines = [",".join(rel.attrs)]
    for row, c in zip(rel.rows, rel.counts):
        lines += [",".join("*" if v is None else v for v in row)] * c
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv_rows(text: str):
    """Attributes, rows and counts of a relation CSV as the CLI prints it."""
    records = [r for r in csv.reader(io.StringIO(text)) if r]
    header, body = records[0], records[1:]
    with_counts = header[-1] == "#count"
    rows, counts = [], []
    for rec in body:
        cells = rec[:-1] if with_counts else rec
        rows.append(tuple(None if c == "*" else ("*" if c == "\\*" else c) for c in cells))
        counts.append(int(rec[-1]) if with_counts else 1)
    return tuple(header[:-1] if with_counts else header), rows, counts


def write_constraints(path: Path, atoms) -> None:
    path.write_text("".join(ref.atom_text(a) + "\n" for a in atoms), encoding="utf-8")


# -- answer checks -------------------------------------------------------------


def _cli_payload(result):
    code, out, err = result
    if code != 0:
        return None, (ERROR, f"cli exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}")
    return json.loads(out), None


def check_atom_answer(rel: ref.Rel, atom, expected: bool, sidecar: bool = False):
    """Checker for a (verdict, method, witness) answer to a model-checking
    query whose reference verdict is ``expected``."""
    x, y, modality = atom

    def check(answer):
        verdict, method, wit = answer
        if verdict != expected:
            if sidecar and modality == "certain" and method == "cia_fast" and expected:
                return KNOWN, DEFECT_1
            return WRONG, f"wrong verdict on a {modality} atom via {method}"
        if wit is None:
            if modality == "possible" and verdict:
                return WRONG, "possible atom holds without a witness"
            return OK, None
        rows, counts = wit
        if not ref.is_grounding(rel, rows, counts):
            return WRONG, "witness is not a grounding"
        holds = ref.plain_holds(ref.Rel.build(rel.attrs, rows, counts), x, y)
        if holds != verdict:
            if verdict and x & y:
                return KNOWN, DEFECT_2
            return WRONG, "witness does not show the verdict"
        return OK, None

    return check


def lib_answer(pkg: Package, report):
    wit = pkg.rows_of(report.witness) if report.witness is not None else None
    return report.verdict, report.method, wit


def cli_answer(result):
    payload, failure = _cli_payload(result)
    if failure:
        return failure
    wit = read_csv_rows(payload["witness"])[1:] if payload["witness"] else None
    return payload["verdict"], payload["method"], wit


def expect(expected, what: str):
    """Checker for a bare verdict."""
    return lambda verdict: (OK, None) if verdict == expected else (WRONG, f"wrong {what} verdict")


def cli_field(check, key: str):
    """Adapt a checker to the CLI's JSON output: check one of its fields."""

    def wrapped(result):
        payload, failure = _cli_payload(result)
        return failure or check(payload[key])

    return wrapped


def _via_cli(check):
    def wrapped(result):
        answer = cli_answer(result)
        return answer if answer[0] == ERROR else check(answer)

    return wrapped


def _lib_check(pkg, check):
    return lambda report: check(lib_answer(pkg, report))


def repro_probe(pkg: Package, defect: str) -> tuple[str, Query]:
    """The smallest known reproduction of a defect, as a library query."""
    if defect == DEFECT_1:  # every null of B can only take a value already in its column
        rel = ref.Rel.build("AB", [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"), ("0", None)],
                            domains={"A": "01", "B": "01"})
        atom, method = (frozenset("A"), frozenset("B"), "certain"), "auto"
        expected = ref.certain_reference(rel, atom[0], atom[1])
    elif defect == DEFECT_2:  # C is in both sides
        rel = ref.Rel.build("ABC", [("1", None, "1"), ("0", "1", "1"), ("1", None, None)],
                            domains={a: "012" for a in "ABC"})
        atom, method = (frozenset("AC"), frozenset("BC"), "possible"), "auto"
        expected = ref.possible_reference(rel, atom[0], atom[1])[0]
    else:  # 12 nulls in C, outside the atom: 4**12 groundings in all, 1 for A, B
        rel = ref.Rel.build("ABC", [(a, b, None) for a in "01" for b in "01"], [3] * 4,
                            domains={"A": "01", "B": "01", "C": "0123"})
        atom, method = (frozenset("A"), frozenset("B"), "possible"), "oracle"
        expected = ref.plain_holds(rel, atom[0], atom[1])
    r = pkg.to_package(rel)
    run = lambda: pkg.model_check.check_atom(  # noqa: E731
        r, pkg.atoms.parse_atom(ref.atom_text(atom), r.schema), method=method)
    check = check_atom_answer(rel, atom, expected, sidecar=True)
    return defect, Query("small-oracle" if method == "oracle" else "repro", "lib", run, _lib_check(pkg, check))


# -- check-data ----------------------------------------------------------------

DATA_ATTRS = ("age", "occupation", "education", "sex", "region", "status")
DATA_RELATIONS = 12  # sizes step evenly from 500 to 3,000 rows
# query classes in closed-loop order: U unary possible 35 %, C certain 25 %,
# P plain 20 %, M multi-attribute possible refuted by the counting bound
# 15 %, K multi-attribute possible that holds 5 %
DATA_PATTERN = "UCPUMCUPKCUUCPMUCPMU"
DATA_QUERIES = 240
DATA_CLI_EVERY = 4  # every 4th query of each class goes through the CLI


DATA_CARDS = (16, 12, 4, 5, 8, 1)  # values per column of DATA_ATTRS


def gen_data_relation(rng: random.Random, n: int, k: int, sidecar: bool):
    """A data-shaped relation of n rows and the first k of DATA_ATTRS:
    independent uniform columns of 4-16 values (with k = 6, also a constant
    'status' flag column), 10-20 % nulls in four columns, two complete
    columns.  Returns the relation, the complete relation it was nulled
    from, and the sidecar domains or None."""
    attrs = DATA_ATTRS[:k]
    cards = DATA_CARDS
    nullp = (rng.uniform(.1, .14), rng.uniform(.1, .14), 0.0,
             rng.uniform(.1, .14), 0.0, rng.uniform(.15, .2))
    pools = [[f"{a[:3]}{i}" for i in range(c)] for a, c in zip(attrs, cards)]
    complete = [tuple(rng.choice(p) for p in pools) for _ in range(n)]
    nulled = [
        tuple(None if rng.random() < nullp[j] else v for j, v in enumerate(row))
        for row in complete
    ]
    domains = None
    if sidecar:
        domains = {a: p if len(p) > 1 else p + [f"{a[:3]}x"] for a, p in zip(attrs, pools)}
    return (
        ref.Rel.build(attrs, nulled, domains=domains),
        ref.Rel.build(attrs, complete),
        domains,
    )


def _data_candidates(attrs) -> dict[str, list]:
    """Per query class, the atoms a relation's queries cycle through, in a
    fixed order: which atoms a workload asks does not depend on the seed,
    only the data does."""
    pairs = [(frozenset([a]), frozenset([b])) for i, a in enumerate(attrs) for b in attrs[i + 1:]]
    splits = pairs + [(frozenset([a]), frozenset(bc)) for a in attrs
                      for bc in zip(attrs, attrs[1:]) if a not in bc]
    wide = ("age", "occupation", "region")
    multi = [(frozenset(x), frozenset(y)) for x in zip(wide, wide[1:] + wide[:1])
             for y in zip(DATA_ATTRS[:5], DATA_ATTRS[1:5]) if not set(x) & set(y)]
    if "status" in attrs:  # holds: the flag side grounds to a constant
        holds = [(frozenset(x), frozenset(["status"])) for x in zip(attrs[:-1], attrs[1:-1])]
    else:  # holds on the planted grounding: few values per column
        holds = [(frozenset(["education", "sex"]), frozenset(["region"]))]
    return {"U": pairs, "C": splits, "P": splits[::-1], "M": multi, "K": holds}


def _data_atom(rel: ref.Rel, planted: ref.Rel, cls: str, x, y):
    """The atom of the class with its reference verdict, or None when it has
    no certificate or does not fit the class."""
    modality = {"P": "plain", "C": "certain"}.get(cls, "possible")
    if cls == "M":  # only atoms the counting bound refutes
        verdict = False if ref.counting_refutes(rel, x, y) else None
    elif cls == "P":
        verdict = ref.plain_holds(rel, x, y)
    elif cls == "C":
        verdict = ref.certain_reference(rel, x, y)
    elif cls == "U":
        verdict = ref.unary_possible(rel, *x, *y, witness=False)[0]
    else:
        verdict = ref.possible_reference(rel, x, y, planted, cap=0)[0]
    if verdict is None or (cls == "K" and not verdict):
        return None
    return (x, y, modality), verdict


def _defect_1(rel: ref.Rel, atom, expected: bool) -> bool:
    """A certain atom that holds on a relation with sidecar domains, with a
    null in the atom's columns: ``check_cia_fast`` assumes the null can take
    a value outside the relation, which the saturated domain does not have,
    and answers that the atom fails."""
    x, y, modality = atom
    cols = rel.cols(x | y)
    return (rel.domains is not None and modality == "certain" and expected
            and any(row[j] is None for row in rel.rows for j in cols))


def build_check_data(rng, workdir: Path, pkg: Package) -> Pool:
    rels = []
    for k in range(DATA_RELATIONS):
        n = 500 + k * 2500 // (DATA_RELATIONS - 1) - rng.randint(0, 40)
        rel, planted, domains = gen_data_relation(rng, max(n, 500), 5 + k % 2, k % 3 == 1)
        csv_path = workdir / f"data{k}.csv"
        write_csv(csv_path, rel)
        dom_path = None
        if domains is not None:
            dom_path = workdir / f"data{k}.domains.json"
            dom_path.write_text(json.dumps(domains), encoding="utf-8")
        loaded = pkg.relation.read_relation(str(csv_path), dom_path and str(dom_path))
        rels.append((rel, planted, str(csv_path), dom_path and str(dom_path), loaded,
                     _data_candidates(rel.attrs), Counter()))

    queries, probes, probed = [], [], set()
    per_class: Counter = Counter()
    for i in range(DATA_QUERIES):
        rel, planted, csv_path, dom_path, loaded, candidates, used = rels[i % len(rels)]
        cls = DATA_PATTERN[i % len(DATA_PATTERN)]
        drawn = None
        for _ in range(2 * len(candidates[cls])):
            x, y = candidates[cls][used[cls] % len(candidates[cls])]
            used[cls] += 1
            drawn = _data_atom(rel, planted, cls, x, y)
            if drawn is not None and _defect_1(rel, *drawn):
                text = ref.atom_text(drawn[0])
                if (i % len(rels), text) not in probed:
                    probed.add((i % len(rels), text))
                    check = check_atom_answer(rel, drawn[0], True, sidecar=True)
                    run = lambda r=loaded, t=text: pkg.model_check.check_atom(  # noqa: E731
                        r, pkg.atoms.parse_atom(t, r.schema))
                    probes.append((DEFECT_1, Query("certain", "lib", run, _lib_check(pkg, check))))
                drawn = None
            if drawn is not None:
                break
        else:
            cls = "P"
            drawn = _data_atom(rel, planted, cls, *candidates["P"][0])
        per_class[cls] += 1
        atom, expected = drawn
        text = ref.atom_text(atom)
        check = check_atom_answer(rel, atom, expected, sidecar=dom_path is not None)
        family = {"U": "unary", "C": "certain", "P": "plain", "M": "multi", "K": "multi"}[cls]
        if per_class[cls] % DATA_CLI_EVERY == 0:
            argv = ["check", csv_path, text, "--json"]
            if dom_path:
                argv += ["--domains", dom_path]
            queries.append(Query(family, "cli", lambda argv=argv: pkg.run_cli(argv), _via_cli(check)))
        else:
            run = lambda r=loaded, t=text: pkg.model_check.check_atom(r, pkg.atoms.parse_atom(t, r.schema))  # noqa: E731
            queries.append(Query(family, "lib", run, _lib_check(pkg, check)))

    small = rels[0]
    cold = [
        ["check", small[2], "age _||_ education", "--json"],
        ["check", small[2], "education _||_c region", "--json"],
        ["check", rels[1][2], "sex _||_c region", "--domains", rels[1][3], "--json"],
    ]
    warm = [lambda: pkg.run_cli(cold[0]), lambda: pkg.model_check.check_atom(
        small[4], pkg.atoms.parse_atom("age _||_p sex", small[4].schema))]
    return Pool(queries, warm, cold, [repro_probe(pkg, DEFECT_1), *probes])


# -- check-search --------------------------------------------------------------

SEARCH_SLOTS = 120  # five small relations, then a CNF or a_i,*,0,0 query, repeated
SAT_VARIABLES = 4  # formulas with 5 or more vary too much in cost between seeds
# a_i,*,0,0 row counts: two small ones, then fourteen from 62 to 68 rows,
# each size twice.  The p90 latency falls inside this seed-independent
# ladder.
AI_ROWS = (20, 40) + tuple(62 + k // 2 for k in range(14))


def gen_cnf(rng, n: int):
    m = round(4.26 * n)
    return [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)
    ]


# The formulas: random 3-SAT at 4.26 clauses per variable, drawn once from
# fixed streams, not from the seed (two satisfiable, two not).  The search
# cost of a satisfiable formula varies 2-5 times between draws, and even
# between relabellings of one formula, so formulas drawn from the seed made
# the time of the whole pool depend on the seed.
CNF_CATALOGUE = [gen_cnf(random.Random(f"cnf-catalogue:{k}"), SAT_VARIABLES) for k in range(4)]


def gen_small(rng, overlap: bool, explicit: bool):
    """At most 5 attributes and 8 rows, 25 % nulls, domains of 2-4 values,
    and a possible atom with a multi-attribute side."""
    k = rng.randint(3, 5)
    attrs = tuple("ABCDE"[:k])
    doms = {a: tuple(str(v) for v in range(rng.randint(2, 4))) for a in attrs}
    rows = [
        tuple(None if rng.random() < 0.25 else rng.choice(doms[a]) for a in attrs)
        for _ in range(rng.randint(3, 8))
    ]
    order = rng.sample(attrs, k)
    if overlap:
        cut = rng.randint(2, k - 1)
        x = frozenset(order[:cut])
        y = frozenset([order[0]] + order[cut:cut + rng.randint(1, k - cut)])
    else:
        cut = rng.randint(1, k - 1)
        end = rng.randint(max(cut + 1, 3), k)
        x, y = frozenset(order[:cut]), frozenset(order[cut:end])
    rel = ref.Rel.build(attrs, rows, domains=doms if explicit else None)
    return rel, (x, y, "possible")


def _oracle_count(rel: ref.Rel, atom=None) -> int:
    """Groundings the package's oracle enumerates for the atom's columns,
    or, without an atom, for every column."""
    cols = range(len(rel.attrs)) if atom is None else rel.cols(atom[0] | atom[1])
    total = 1
    for row, c in zip(rel.rows, rel.counts):
        for j in cols:
            if row[j] is None:
                total *= len(rel.domains[j]) ** c
    return total


ORACLE_GATE = 2**20  # the package's default oracle bound, on all columns


def _small_query(pkg: Package, rel: ref.Rel, atom, verdict, method: str, csv_path: Path | None) -> Query:
    """A small-relation query, through the CLI on a file written to
    ``csv_path`` or, without one, through the library."""
    text = ref.atom_text(atom)
    check = check_atom_answer(rel, atom, verdict)
    if csv_path is not None:
        write_csv(csv_path, rel)
        argv = ["check", str(csv_path), text, "--json"]
        return Query("small", "cli", lambda a=argv: pkg.run_cli(a), _via_cli(check))
    r = pkg.to_package(rel)
    run = lambda r=r, t=text: pkg.model_check.check_atom(  # noqa: E731
        r, pkg.atoms.parse_atom(t, r.schema), method=method)
    family = "small-oracle" if method == "oracle" else "small"
    return Query(family, "lib", run, _lib_check(pkg, check))


def build_check_search(rng, workdir: Path, pkg: Package) -> Pool:
    queries, probes = [], []
    sat_k = ai_k = small_k = 0
    for i in range(SEARCH_SLOTS):
        name = workdir / f"q{i}"
        if i % 6:
            small_k += 1
            overlap = small_k % 8 in (3, 4)  # 25 % overlapping sides
            cli = small_k % 8 in (0, 1, 3, 5, 7)  # 5 in 8 through the CLI
            method = "oracle" if small_k % 8 == 2 else "auto"  # 1 in 3 of the library ones
            while True:
                rel, atom = gen_small(rng, overlap, explicit=not cli)
                verdict, _ = ref.possible_reference(rel, atom[0], atom[1], cap=4000)
                if verdict is None or (method == "oracle" and _oracle_count(rel, atom) > 4096):
                    continue
                if overlap and verdict:  # defect 2 can corrupt the witness
                    defect = DEFECT_2
                elif method == "oracle" and _oracle_count(rel) > ORACLE_GATE:  # defect 4 refuses it
                    defect = DEFECT_4
                else:
                    break
                path = workdir / f"probe{len(probes)}.csv" if cli else None
                probes.append((defect, _small_query(pkg, rel, atom, verdict, method, path)))
            queries.append(_small_query(pkg, rel, atom, verdict, method,
                                        name.with_suffix(".csv") if cli else None))
        elif (i // 6) % 5 == 2:
            n = SAT_VARIABLES
            clauses = CNF_CATALOGUE[sat_k % len(CNF_CATALOGUE)]
            check = expect(ref.sat_brute(n, clauses), "satisfiability")
            if sat_k % 4 == 1:  # a quarter through the CLI
                path = name.with_suffix(".cnf")
                path.write_text(
                    f"p cnf {n} {len(clauses)}\n"
                    + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses),
                    encoding="utf-8",
                )
                argv = ["from-cnf", str(path), "--decide", "--json"]
                queries.append(Query("sat", "cli", lambda a=argv: pkg.run_cli(a), cli_field(check, "satisfiable")))
            else:
                phi = pkg.constructions.CnfFormula(n, tuple(clauses))
                queries.append(Query(
                    "sat", "lib", lambda p=phi: pkg.constructions.sat_via_pia(p), check))
            sat_k += 1
        else:
            rows_n = AI_ROWS[ai_k % len(AI_ROWS)]
            rel = ref.Rel.build(("A", "B", "C", "D"), [(f"a{v}", None, "0", "0") for v in range(rows_n)])
            atom = (frozenset("AB"), frozenset("CD"), "possible")
            check = check_atom_answer(rel, atom, True)
            path = name.with_suffix(".csv")
            write_csv(path, rel)
            text = "A,B _||_p C,D"
            if ai_k % 4 == 2:
                argv = ["check", str(path), text, "--json"]
                queries.append(Query("constant-side", "cli", lambda a=argv: pkg.run_cli(a), _via_cli(check)))
            else:
                r = pkg.relation.read_relation(str(path))
                run = lambda r=r, t=text: pkg.model_check.check_atom(r, pkg.atoms.parse_atom(t, r.schema))  # noqa: E731
                queries.append(Query("constant-side", "lib", run, _lib_check(pkg, check)))
            ai_k += 1

    tiny = workdir / "tiny.cnf"
    tiny.write_text("p cnf 3 3\n1 2 0\n-1 3 0\n-3 -2 0\n", encoding="utf-8")
    small_csv = workdir / "cold.csv"  # the exchange-failure relation
    small_csv.write_text("A,B,C\n0,0,0\n*,1,0\n*,0,1\n1,1,1\n", encoding="utf-8")
    cold = [
        ["from-cnf", str(tiny), "--decide", "--json"],
        ["check", str(small_csv), "A,B _||_p C", "--json"],
        ["check", str(small_csv), "A _||_p B,C", "--method", "oracle", "--json"],
    ]
    warm = [lambda: pkg.run_cli(cold[0]), lambda: pkg.constructions.sat_via_pia(
        pkg.constructions.CnfFormula(3, ((1, 2), (-1, 3), (-3, -2))))]
    return Pool(queries, warm, cold, [repro_probe(pkg, DEFECT_2), repro_probe(pkg, DEFECT_4), *probes])


# -- implication ---------------------------------------------------------------

# closed-loop order of the query families, 128 queries in all:
# I implies (5-6 attributes), D derive (5-6), H implies on the exchange chain
# (6-8), P pia-star, M disjoint mixed, X counterexample search with 3 rows
IMPL_PATTERN = "IXDPIMDXHPIDMXID"
IMPL_QUERIES = 128
CEX_ROWS = 3  # row bound of the counterexample searches
LETTERS = "ABCDEFGHI"


def _random_atom(rng, universe, modality, disjoint=True, max_side=3):
    names = sorted(universe)
    size = rng.randint(2, min(len(names), 2 * max_side))
    picked = rng.sample(names, size)
    cut = rng.randint(1, size - 1)
    lhs, rhs = frozenset(picked[:cut]), frozenset(picked[cut:])
    if not disjoint and rng.random() < 0.3:
        rhs |= {picked[0]}
    return lhs, rhs, modality


def _premises(rng, universe, modality, m, disjoint=True):
    out = [_random_atom(rng, universe, modality, disjoint) for _ in range(m)]
    if not disjoint and rng.random() < 0.2:
        a = rng.choice(sorted(universe))
        out.append((frozenset([a]), frozenset([a]), modality))
    return list(dict.fromkeys(out))


def _goal(rng, premises, universe, rules, goal_ok, modality):
    """Half the time a goal derived by the bench's own rule applications
    (implied), else a random goal refuted by a model relation.  Returns
    (goal, True/False) or None."""
    if rng.random() < 0.5:
        made = [a for a in ref.derive_random(premises, universe, rules, rng, rng.randint(4, 14))
                if a[1] and goal_ok(a)]
        return (made[-1], True) if made else None
    goal = _random_atom(rng, universe, modality)
    if not goal_ok(goal) or goal in premises:
        return None
    return (goal, False) if ref.countermodel(premises, goal, universe) is not None else None


def _draw(make):
    while True:
        drawn = make()
        if drawn is not None:
            return drawn


def _pia_star(atom) -> bool:
    nx, ny = len(atom[0]), len(atom[1])
    return nx == 1 or ny == 1 or abs(nx - ny) <= 1


def _derive_check(premises, goal, expected):
    def check(steps):
        if steps is None:
            return (WRONG, "implied goal not derived") if expected else (OK, None)
        if not expected:
            return WRONG, "derivation of a goal refuted by a model"
        if steps[-1][0] != goal or not ref.check_steps(steps, premises):
            return WRONG, "derivation does not check"
        return OK, None

    return check


def _bench_atom(atom):
    return atom.lhs, atom.rhs, atom.modality


def _cex_check(premises, goal, implied):
    """``implied`` is True (derived by the bench), False (refuted by a
    model) or None (no certificate)."""

    def check(witness):
        if witness is None:
            return (OK, None) if implied else (UNDECIDED, "bounded search found nothing")
        rows, counts, domains = witness
        rel = ref.Rel.build(tuple(sorted(domains)), rows, counts, domains)
        if ref.satisfies(rel, goal) or not all(ref.satisfies(rel, p) for p in premises):
            return WRONG, "counterexample does not refute the goal"
        return OK, None

    return check


def _closure_query(rng, n: int, modality: str, chain: bool):
    universe = frozenset(LETTERS[:n])
    if chain:  # A _||_ B, A,B _||_ C, ... with the attributes renamed
        names = rng.sample(sorted(universe), n)
        premises = [(frozenset(names[:j]), frozenset(names[j]), modality) for j in range(1, n)]
    else:
        premises = _premises(rng, universe, modality, rng.randint(3, 6), disjoint=False)
    rules = {"symmetry", "decomposition", "exchange", "constancy"}
    drawn = _goal(rng, premises, universe, rules, lambda a: True, modality)
    if drawn is None or ref.attributes_of([*premises, drawn[0]]) != universe:
        return None  # the package's universe is the atoms' attributes
    return premises, *drawn


def _pia_star_query(rng):
    universe = frozenset(LETTERS[:rng.randint(4, 6)])
    premises = _premises(rng, universe, "possible", rng.randint(2, 4))
    drawn = _goal(rng, premises, universe, {"symmetry", "decomposition", "constancy"},
                  _pia_star, "possible")
    return drawn and (premises, *drawn)


def _mixed_query(rng):
    universe = frozenset(LETTERS[:rng.randint(4, 6)])
    certain = _premises(rng, universe, "certain", rng.randint(2, 3))
    possible = _premises(rng, universe, "possible", rng.randint(1, 2))
    drawn = _goal(rng, certain, universe, {"symmetry", "decomposition", "exchange"},
                  lambda a: not (a[0] & a[1]), "certain")
    if drawn is None:
        return None
    goal, implied = drawn
    premises = certain + [p for p in possible if p not in certain]
    if not implied and ref.countermodel(premises, goal, universe) is None:
        return None
    return premises, goal, implied


def _cex_query(rng, implied: bool):
    """Premises and goal over A, B, C: a goal the bench derives (the search
    exhausts its bounds) or a goal refuted by a model of at most CEX_ROWS
    rows (the search finds a witness)."""
    universe = frozenset("ABC")
    mods = rng.choice((("possible",), ("certain",)) if implied else
                      (("possible",), ("certain",), ("possible", "certain")))
    count = rng.randint(1, 3)
    premises = list(dict.fromkeys(
        _random_atom(rng, universe, rng.choice(mods)) for _ in range(count)))
    if implied:
        rules = {"symmetry", "decomposition"} | ({"exchange"} if mods == ("certain",) else set())
        made = [a for a in ref.derive_random(premises, universe, rules, rng, 6) if a[1]]
        goal = made[-1] if made else None
    else:
        goal = _random_atom(rng, universe, rng.choice(mods))
        model = ref.countermodel(premises, goal, universe)
        if goal in premises or model is None or model.size > CEX_ROWS:
            goal = None
    # all three attributes, so that every search enumerates the same space
    if goal is None or ref.attributes_of([*premises, goal]) != universe:
        return None
    return premises, goal, implied


def _relabel(rng, premises, goal):
    """The same constraints with the atoms' attributes permuted and the
    premises reordered: other inputs of the same cost."""
    names = sorted(ref.attributes_of([*premises, goal]))
    perm = dict(zip(names, rng.sample(names, len(names))))

    def rename(atom):
        return frozenset(perm[a] for a in atom[0]), frozenset(perm[a] for a in atom[1]), atom[2]

    premises = [rename(a) for a in premises]
    rng.shuffle(premises)
    return premises, rename(goal)


def build_implication(rng, workdir: Path, pkg: Package) -> Pool:
    """The implies, derive, chain, pia-star and mixed queries come from a
    fixed catalogue (``shapes``) and the seed relabels them, because the
    cost of saturation varies several-fold between random constraint sets
    of one size.  The counterexample searches are drawn from the seed."""
    shapes = random.Random("implication-shapes")
    queries = []
    counters: Counter = Counter()
    lib_sys = {"plain": "SYSTEM_I", "certain": "SYSTEM_I_C"}
    for i in range(IMPL_QUERIES):
        fam = IMPL_PATTERN[i % len(IMPL_PATTERN)]
        k = counters[fam]
        counters[fam] += 1
        path = workdir / f"sigma{i}.txt"
        cli = k % 4 == 3
        if fam == "H":
            n, cli = (6, 7, 8)[k % 3], k % 6 >= 3
            modality = ("plain", "certain")[k % 2]
            premises, goal, expected = _draw(lambda: _closure_query(shapes, n, modality, True))
            family = "chain"
        elif fam in "ID":
            n = (5, 6)[k % 2]
            modality = ("plain", "certain")[k // 2 % 2]
            premises, goal, expected = _draw(lambda: _closure_query(shapes, n, modality, False))
            family = "derive" if fam == "D" else "implies"
        elif fam == "P":
            premises, goal, expected = _draw(lambda: _pia_star_query(shapes))
            modality, family = "possible", "pia-star"
        elif fam == "M":
            premises, goal, expected = _draw(lambda: _mixed_query(shapes))
            modality, family = "certain", "mixed"
        else:
            implied = k % 2 == 0
            premises, goal, expected = _draw(lambda: _cex_query(rng, implied))
            family = "counterexample"
            write_constraints(path, premises)
            text = ref.atom_text(goal)
            check = _cex_check(premises, goal, expected)
            if cli:
                out = workdir / f"cex{i}.csv"
                argv = ["implies", str(path), text, "--counterexample", str(out), "--sound-only",
                        "--max-attributes", "3", "--max-rows", str(CEX_ROWS), "--domain-size", "2",
                        "--json"]
                queries.append(Query(family, "cli", lambda a=argv: pkg.run_cli(a),
                                     _cex_cli(check, expected)))
            else:
                sigma = path.read_text(encoding="utf-8")

                def run(s=sigma, t=text):
                    imp = pkg.implication
                    return imp.search_counterexample(
                        pkg.atoms.parse_constraints(s), pkg.atoms.parse_atom(t),
                        imp.SearchBounds(3, CEX_ROWS, 2))

                def lib_check(w, check=check):
                    if w is None:
                        return check(None)
                    rows, counts = pkg.rows_of(w)
                    return check((rows, counts, dict(zip(w.schema.attributes, w.schema.domains))))

                queries.append(Query(family, "lib", run, lib_check))
            continue

        premises, goal = _relabel(rng, premises, goal)
        write_constraints(path, premises)
        text = ref.atom_text(goal)
        if family == "derive":
            check = _derive_check(premises, goal, expected)
            if cli:
                argv = ["derive", str(path), text, "--json"]
                queries.append(Query(family, "cli", lambda a=argv: pkg.run_cli(a), _derive_cli(check)))
            else:
                sigma = path.read_text(encoding="utf-8")
                system = lib_sys[modality]

                def run(s=sigma, t=text, system=system):
                    rules = pkg.rules
                    prem = pkg.atoms.parse_constraints(s)
                    d = rules.derives(prem, pkg.atoms.parse_atom(t), getattr(rules, system))
                    if d is not None:
                        rules.validate_derivation(d, getattr(rules, system), prem)
                    return d

                def lib_check(d, check=check):
                    if d is None:
                        return check(None)
                    return check([(_bench_atom(s.atom), s.rule, s.premises) for s in d.steps])

                queries.append(Query(family, "lib", run, lib_check))
        else:
            check = expect(expected, "implication")
            if cli:
                argv = ["implies", str(path), text, "--json"]
                queries.append(Query(family, "cli", lambda a=argv: pkg.run_cli(a), cli_field(check, "verdict")))
            else:
                decider = {"plain": "implies_ia", "certain": "implies_cia",
                           "possible": "implies_pia_star"}[modality]
                if family == "mixed":
                    decider = "implies_mixed_disjoint"
                sigma = path.read_text(encoding="utf-8")
                run = lambda s=sigma, t=text, f=decider: getattr(pkg.implication, f)(  # noqa: E731
                    pkg.atoms.parse_constraints(s), pkg.atoms.parse_atom(t))
                queries.append(Query(family, "lib", run, check))

    warm_sigma = workdir / "warm.txt"
    warm_sigma.write_text("A _||_c B\nA,B _||_c C\n", encoding="utf-8")
    warm_p = workdir / "warm_p.txt"
    warm_p.write_text("A _||_p B\nA,B _||_p C\n", encoding="utf-8")
    cold = [
        ["implies", str(warm_sigma), "A _||_c B,C", "--json"],
        ["derive", str(warm_sigma), "A _||_c B,C", "--json"],
        ["implies", str(warm_p), "A _||_p B", "--json"],
    ]
    warm = [lambda: pkg.run_cli(cold[0]), lambda: pkg.implication.search_counterexample(
        pkg.atoms.parse_constraints("A _||_p B\n"), pkg.atoms.parse_atom("B _||_p A,C"),
        pkg.implication.SearchBounds(3, 2, 2))]
    return Pool(queries, warm, cold)


def _derive_cli(check):
    def wrapped(result):
        payload, failure = _cli_payload(result)
        if failure:
            return failure
        if not payload["derivable"]:
            return check(None)
        steps = [(ref.parse_atom_text(s["atom"]), s["rule"], tuple(s["premises"]))
                 for s in payload["steps"]]
        return check(steps)

    return wrapped


def _cex_cli(check, implied):
    def wrapped(result):
        payload, failure = _cli_payload(result)
        if failure:
            return failure
        if payload["verdict"]:
            if implied is False:
                return WRONG, "goal refuted by a model reported implied or derivable"
            return OK, None
        if payload["completeness"] == "complete" and implied:
            return WRONG, "implied goal reported not implied"
        if payload["counterexample"] is None:
            return check(None)
        attrs, rows, counts = read_csv_rows(payload["counterexample"])
        return check((rows, counts, {a: ("0", "1") for a in attrs}))

    return wrapped


WORKLOADS = {
    "check-data": build_check_data,
    "check-search": build_check_search,
    "implication": build_implication,
}


def build(name: str, seed: int, workdir: Path, pkg: Package) -> Pool:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir, pkg)
