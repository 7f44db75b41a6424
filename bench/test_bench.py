"""Tests of the benchmark itself: reference answers on hand-worked cases,
reference functions against each other, seeded input generation, and the
metric names against BENCHMARK.json.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _table1() -> ref.Rel:
    _, rows, counts = workloads.read_csv_rows(
        (ROOT / "tests" / "data" / "table1.csv").read_text(encoding="utf-8"))
    return ref.Rel.build(("a", "e", "s", "r", "g"), rows, counts)


def test_table1_hand_worked():
    r = _table1()
    s, g, e = frozenset("s"), frozenset("g"), frozenset("e")
    assert ref.certain_reference(r, s, g) is True
    assert ref.brute_certain(r, s, g) is True
    assert ref.certain_reference(r, e, s) is False
    assert ref.brute_certain(r, e, s) is False
    verdict, rows = ref.possible_reference(r, e, s)
    assert verdict is True
    assert ref.is_grounding(r, rows) and ref.plain_holds(ref.Rel.build(r.attrs, rows), e, s)
    assert ref.unary_possible(r, "e", "s")[0] is True


def test_exchange_failure_relation():
    model = ref.exchange_model("ABC", "A", "B", "C")
    a, b, c, ab, bc = (frozenset(x) for x in ("A", "B", "C", "AB", "BC"))
    assert ref.satisfies(model, (a, b, "possible"))
    assert ref.satisfies(model, (ab, c, "possible"))
    assert not ref.satisfies(model, (a, bc, "possible"))


def test_sat_and_unsat_cnf():
    # tests/data/example.cnf: (2 v 3) (1 v -2 v 3) (-3)
    assert ref.sat_brute(3, [(2, 3), (1, -2, 3), (-3,)]) is True
    every_sign = [tuple(v if (bits >> (v - 1)) & 1 else -v for v in (1, 2, 3)) for bits in range(8)]
    assert ref.sat_brute(3, every_sign) is False


def _random_rel(rng, explicit):
    k = rng.randint(2, 4)
    attrs = tuple("ABCD"[:k])
    doms = {a: tuple(str(v) for v in range(rng.randint(2, 3))) for a in attrs}
    rows = [tuple(None if rng.random() < 0.3 else rng.choice(doms[a]) for a in attrs)
            for _ in range(rng.randint(1, 5))]
    return ref.Rel.build(attrs, rows, domains=doms if explicit else None)


def test_unary_matching_agrees_with_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        r = _random_rel(rng, explicit=rng.random() < 0.5)
        a, b = rng.sample(r.attrs, 2)
        verdict, rows = ref.unary_possible(r, a, b)
        try:
            assert verdict == ref.brute_possible(r, {a}, {b})[0]
        except ref.TooLarge:
            continue
        if verdict:
            assert ref.is_grounding(r, rows)
            assert ref.plain_holds(ref.Rel.build(r.attrs, rows), {a}, {b})


def test_certificates_agree_with_brute_force():
    rng = random.Random(8)
    for _ in range(300):
        r = _random_rel(rng, explicit=rng.random() < 0.5)
        x = frozenset(rng.sample(r.attrs, 1))
        y = frozenset(rng.sample(r.attrs, rng.randint(1, len(r.attrs) - 1)))
        certain = ref.certain_reference(r, x, y)
        assert certain in (None, ref.brute_certain(r, x, y))
        possible, rows = ref.possible_reference(r, x, y)
        if possible is not None:
            assert possible == ref.brute_possible(r, x, y, cap=10**6)[0]


def test_is_grounding_rejects_changed_cells():
    r = ref.Rel.build(("A", "B"), [("0", None), (None, "1")], domains={"A": "01", "B": "01"})
    assert ref.is_grounding(r, [("0", "0"), ("1", "1")])
    assert not ref.is_grounding(r, [("1", "0"), ("1", "1")])  # the fixed A=0 changed
    assert not ref.is_grounding(r, [("0", "0")])  # a copy lost
    assert not ref.is_grounding(r, [("0", "2"), ("1", "1")])  # outside the domain


def test_derived_goals_have_no_countermodel():
    rng = random.Random(9)
    universe = frozenset("ABCDE")
    for _ in range(60):
        premises = workloads._premises(rng, universe, "plain", 3, disjoint=False)
        rules = {"symmetry", "decomposition", "exchange", "constancy"}
        for goal in ref.derive_random(premises, universe, rules, rng, 8):
            assert ref.countermodel(premises, goal, universe) is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    pkg = workloads.Package()

    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        pool = workloads.build(name, seed, d, pkg)
        return {p.name: p.read_bytes() for p in d.iterdir()}, len(pool.queries)

    first, second, other = files(3, "a"), files(3, "b"), files(4, "c")
    assert first == second
    assert first[0] != other[0]


@pytest.mark.parametrize("name", ["check-data", "check-search"])
def test_pool_answers_without_failures(name, tmp_path):
    """Inputs with a known defect's signature become probes, not pool
    queries: one pass over the pool fails nothing, and every probe either
    reproduces its own defect or is answered correctly."""
    pkg = workloads.Package()
    pool = workloads.build(name, 2, tmp_path, pkg)
    for query in pool.queries:
        assert query.check(query.run()) == (workloads.OK, None)
    lines, unexpected = run.run_probes(pool)
    assert unexpected == 0
    assert len(lines) == len({defect for defect, _ in pool.probes}) >= 1


def test_metric_names_match_benchmark_json(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "implication", "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
        if trace == 0:  # whole timed passes, even when --seconds is shorter
            passes = next(x for x in lines if x.startswith("# timed passes"))
            assert len(passes.split(":")[1].split()) == run.TIMED_PASSES
            assert result["attempted"] >= run.TIMED_PASSES * workloads.IMPL_QUERIES


def _coverage(query) -> float:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.query_span(0, query)
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer, 1, 1.0, 1.0)["trace.coverage_pct"][0]


def test_coverage_drops_for_untraced_work():
    pkg = workloads.Package()
    chain = "".join(f"{','.join('ABCDEF'[:j])} _||_ {'ABCDEF'[j]}\n" for j in range(1, 6))

    def implies():
        return pkg.implication.implies_ia(pkg.atoms.parse_constraints(chain),
                                          pkg.atoms.parse_atom("A _||_ B,C,D,E,F"))

    def untraced_inner():  # work that no per-layer metric accounts for
        end = perf_counter() + 0.05
        while perf_counter() < end:
            pass

    def with_untraced():
        untraced_inner()
        return implies()

    assert _coverage(implies) >= 90.0
    assert _coverage(with_untraced) < 90.0
