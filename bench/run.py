"""indepkit benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload check-data --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one caller, no extra threads: each query is sent
after the previous verdict returned (a closed loop).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics,
the query latencies scaled to a reference host speed by an in-run
calibration; with ``--trace 1`` each query also runs with span-recording
wrappers and the object holds the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import reference as ref
from tracing import Tracer, layer_metrics
from workloads import DEFECT_4, ERROR, KNOWN, OK, WRONG, Package, build, gen_data_relation

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPS = 3  # set-up is repeated and its median reported
TIMED_PASSES = 5  # every pool query is timed this many times; its latency is the median
SAFETY_S = 120.0  # the timed passes must end within this, or the run fails
QUERY_CAP_S = 20.0  # per-query time cap; the slowest seed query takes about 0.55 s
CAL_REF_S = 0.00035  # the calibration's time on the reference host
CAL_AROUND_SETUP = 8  # calibration samples just before and just after each set-up
CLI_ROUNDS = 6  # rounds over the workload's cold CLI commands
CLI_TIMEOUT_S = 20.0
CLI_BUDGET_S = 40.0


class Capped(BaseException):
    """Raised by the interval timer when a query exceeds QUERY_CAP_S."""


class OutOfTime(Exception):
    """The timed passes did not finish within SAFETY_S."""


def _on_alarm(signum, frame):
    raise Capped()


def _timed(fn):
    """Run fn under the per-query cap: (result, error cause, seconds)."""
    result = cause = None
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, QUERY_CAP_S)
    try:
        result = fn()
    except Capped:
        cause = "per-query time cap"
    except Exception as exc:  # a failed query is recorded, the loop goes on
        cause = f"{type(exc).__name__}: {str(exc)[:80]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, cause, perf_counter() - start


class Calibration:
    """A fixed piece of the bench's own Python work: reference functions on
    fixed inputs, never the package, sampled just before every timed query
    and once after the last.  The shared host's speed changes from one
    millisecond to the next, so the two samples around a query tell how
    fast the host ran Python during it; ``factor(k)`` converts the time of
    the query that sample ``k`` precedes to the reference host's speed, so
    that a slower host does not read as a slower program.  Set-ups and cold
    CLI runs are scaled the same way."""

    def __init__(self):
        self.rel = gen_data_relation(random.Random("calibration"), 200, 5, False)[0]
        self.small = ref.Rel.build(
            ("A", "B", "C"),
            [("0", None, "1"), (None, "1", None), ("1", None, "0"), (None, None, "1")],
            domains={"A": "012", "B": "012", "C": "01"},
        )
        self.times: list[float] = []

    def sample(self) -> int:
        """Take a sample; returns its index."""
        a, b, c = frozenset("A"), frozenset("B"), frozenset("C")
        start = perf_counter()
        ref.plain_holds(self.rel, frozenset(["age"]), frozenset(["sex"]))
        ref.brute_possible(self.small, a, b | c, cap=10**6)
        ref.countermodel([(a, b, "certain")], (b, c, "certain"), a | b | c)
        self.times.append(perf_counter() - start)
        return len(self.times) - 1

    def factor(self, k: int) -> float:
        """Reference speed over the speed of samples k and k + 1."""
        return self.mean_factor((k, k + 1))

    def mean_factor(self, samples) -> float:
        """Reference speed over the mean speed of the given samples."""
        return CAL_REF_S * len(samples) / sum(self.times[i] for i in samples)


class Tally:
    """Outcome counts and latencies of one run."""

    def __init__(self):
        self.attempted = self.failed = self.verdicts = 0
        self.runs: dict[int, list[tuple[float, int]]] = defaultdict(list)  # index -> (s, sample)
        self.causes: Counter = Counter()
        self.statuses: Counter = Counter()
        self.family: dict[int, str] = {}

    def add(self, index, query, status, cause, seconds, sample=None):
        """Record one attempt of pool query ``index``; ``query`` is None for a
        cold CLI run, which counts as attempted but has no latency here, and
        ``seconds`` is None for an attempt that is checked but not timed.
        ``sample`` is the calibration sample taken just before it."""
        self.attempted += 1
        self.statuses[status] += 1
        where = f"{query.family}/{query.via}" if query is not None else "cold-cli"
        if status in (ERROR, KNOWN, WRONG):
            self.failed += 1
            self.causes[f"{cause} [{where}]"] += 1
        if query is None:
            return
        self.verdicts += status != ERROR
        if seconds is not None:
            self.runs[index].append((seconds, sample))
            self.family[index] = where

    def latencies(self, cal: Calibration | None = None) -> dict[int, float]:
        """Each pool query's median timed execution, every execution scaled
        to the reference host's speed by the calibration around it, or
        unscaled without a calibration."""
        return {i: statistics.median(t * (cal.factor(k) if cal else 1.0) for t, k in runs)
                for i, runs in self.runs.items()}


def _outcome(query, result, cause):
    if cause is not None:
        if query.family == "small-oracle" and cause.startswith("OracleInfeasibleError"):
            return KNOWN, DEFECT_4
        return ERROR, cause
    return query.check(result)


def run_probes(pool) -> tuple[list[str], int]:
    """Each known-defect probe once, untimed.  Returns summary lines, one
    per defect, and the number of probes that failed in another way than
    their defect: a wrong answer or an exception."""
    seen: dict[str, Counter] = defaultdict(Counter)
    unexpected = 0
    for defect, query in pool.probes:
        result, cause, _ = _timed(query.run)
        status, cause = _outcome(query, result, cause)
        if status == KNOWN and cause == defect:
            seen[defect]["reproduced"] += 1
        elif status == OK:
            seen[defect]["answered correctly"] += 1
        elif status in (ERROR, KNOWN, WRONG):
            seen[defect][f"failed otherwise ({cause})"] += 1
            unexpected += 1
        else:
            seen[defect][status] += 1
    lines = [f"known {defect}: {sum(n.values())} probes, "
             + ", ".join(f"{k} {v}" for k, v in sorted(n.items()))
             for defect, n in sorted(seen.items())]
    return lines, unexpected


def closed_loop(pool, seconds: float, tally: Tally, cold: ColdCli, cal: Calibration) -> list[float]:
    """TIMED_PASSES whole passes over the pool, each query timed once per
    pass, with the cold CLI runs spread evenly over them and a calibration
    sample just before each query and each cold CLI run; then further
    passes, answers checked but not timed, until ``seconds`` have passed.
    Returns the query time of each timed pass.  Raises OutOfTime when the
    timed passes do not finish within SAFETY_S."""
    start = perf_counter()
    slots = TIMED_PASSES * len(pool.queries)
    pass_s = []
    for n in range(TIMED_PASSES):
        spent = 0.0
        for index, query in enumerate(pool.queries):
            if perf_counter() - start > SAFETY_S:
                raise OutOfTime(f"timed pass {n + 1} of {TIMED_PASSES} reached query "
                                f"{index} of {len(pool.queries)} after {SAFETY_S:.0f} s")
            cold.run_due((n * len(pool.queries) + index) / slots)
            sample = cal.sample()
            result, cause, dt = _timed(query.run)
            status, cause = _outcome(query, result, cause)
            tally.add(index, query, status, cause, dt, sample)
            spent += dt
        pass_s.append(spent)
    cal.sample()
    cold.run_due(1.0)
    cal.sample()
    i = 0
    while perf_counter() < start + seconds:
        index = i % len(pool.queries)
        query = pool.queries[index]
        result, cause, _ = _timed(query.run)
        status, cause = _outcome(query, result, cause)
        tally.add(index, query, status, cause, None)
        i += 1
    return pass_s


def traced_loop(pool, seconds: float, tally: Tally, tracer):
    """Whole passes over the pool, at least one, until ``seconds`` have
    passed.  Each query runs twice, untraced and traced, in alternating
    order; the traced answer is checked.  Returns (traced seconds, untraced
    seconds)."""
    start = perf_counter()
    traced_s = untraced_s = 0.0
    i = 0
    while i == 0 or perf_counter() < start + seconds:
        for index, query in enumerate(pool.queries):
            if perf_counter() - start > SAFETY_S:
                raise OutOfTime(f"traced pass reached query {index} of "
                                f"{len(pool.queries)} after {SAFETY_S:.0f} s")
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        result, cause, dt = _timed(lambda: tracer.query_span(i, query.run))
                    finally:
                        tracer.uninstall()
                    traced_s += dt
                    status, cause = _outcome(query, result, cause)
                    tally.add(index, query, status, cause, dt)
                else:
                    untraced_s += _timed(query.run)[2]
            i += 1
    return traced_s, untraced_s


class ColdCli:
    """``python -m indepkit.cli`` as a fresh process, CLI_ROUNDS times over
    the workload's cheap commands; ``run_due(f)`` runs the share of them due
    when a fraction f of the loop has passed."""

    def __init__(self, commands, workdir: Path, tally: Tally, cal: Calibration):
        self.todo = [argv for _ in range(CLI_ROUNDS) for argv in commands]
        self.total = len(self.todo)
        self.workdir, self.tally, self.cal = workdir, tally, cal
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.times: list[float] = []
        self.samples: list[int] = []  # the calibration sample taken before each run
        self.spent = 0.0

    def scaled(self) -> list[float]:
        """Each run's time scaled by the calibration samples around it."""
        return [t * self.cal.factor(k) for t, k in zip(self.times, self.samples)]

    def run_due(self, fraction: float) -> None:
        while self.todo and len(self.times) < fraction * self.total:
            argv = self.todo.pop(0)
            if self.spent > CLI_BUDGET_S:
                return
            self.samples.append(self.cal.sample())
            t = perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "indepkit.cli", *argv],
                    cwd=self.workdir, env=self.env, capture_output=True, text=True,
                    timeout=CLI_TIMEOUT_S,
                )
                ok = proc.returncode == 0 and isinstance(json.loads(proc.stdout), dict)
            except (subprocess.TimeoutExpired, json.JSONDecodeError):
                ok = False
            dt = perf_counter() - t
            self.spent += dt
            self.times.append(dt)
            self.tally.add(None, None, "ok" if ok else "error", "cold CLI run failed", dt)


def _summary(name, seed, tally, metrics, extra, probe_lines):
    print(f"# workload {name}, seed {seed}: {tally.attempted} attempted, "
          f"{tally.failed} failed, {tally.statuses.get('undecided', 0)} undecided")
    for key, value in extra.items():
        print(f"# {key}: {value}")
    for cause, n in tally.causes.most_common():
        print(f"# failure: {n} x {cause}")
    for line in probe_lines:
        print(f"# {line}")
    by_family = defaultdict(list)
    for index, seconds in tally.latencies().items():
        by_family[tally.family[index]].append(seconds)
    for fam, times in sorted(by_family.items()):
        print(f"# family {fam}: {len(times)} queries, unscaled latency p50="
              f"{statistics.median(times) * 1000:.2f} ms max={max(times) * 1000:.1f} ms")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = perf_counter()
    pkg = Package()
    import_s = perf_counter() - t0
    if not Path(pkg.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: indepkit imported from {pkg.cli.__file__}, not {SRC}")

    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        cal = Calibration()
        setups, factors = [], []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            around = [cal.sample() for _ in range(CAL_AROUND_SETUP)]
            t = perf_counter()
            pool = build(name, seed, workdir, pkg)
            for warm in pool.warmup:
                _timed(warm)
            setups.append(perf_counter() - t)
            around += [cal.sample() for _ in range(CAL_AROUND_SETUP)]
            factors.append(cal.mean_factor(around))

        tally = Tally()
        extra = {"queries in pool": len(pool.queries),
                 "set-up runs (s)": " ".join(f"{s:.3f}" for s in setups)}
        probe_lines, probes_unexpected = run_probes(pool)
        if trace:
            tracer = Tracer()
            traced_s, untraced_s = traced_loop(pool, seconds, tally, tracer)
            metrics = layer_metrics(tracer, tally.verdicts, traced_s, untraced_s)
            extra["spans"] = len(tracer.start)
        else:
            cold = ColdCli(pool.cli_cold, workdir, tally, cal)
            pass_s = closed_loop(pool, seconds, tally, cold, cal)
            lat = sorted(tally.latencies(cal).values())
            p90 = statistics.quantiles(lat, n=10)[-1]
            raw = sorted(tally.latencies().values())
            extra["timed passes (s of query time)"] = " ".join(f"{s:.3f}" for s in pass_s)
            extra["queries timed (beyond p90)"] = f"{len(lat)} ({sum(x > p90 for x in lat)})"
            extra["calibration"] = (f"{len(cal.times)} samples, median "
                                    f"{statistics.median(cal.times) * 1000:.4f} ms")
            extra["unscaled"] = (f"setup_s={import_s + statistics.median(setups):.6g} "
                                 f"queries_per_s={len(raw) / sum(raw):.6g} "
                                 f"verdict_ms_p50={statistics.median(raw) * 1000:.6g} "
                                 f"verdict_ms_p90={statistics.quantiles(raw, n=10)[-1] * 1000:.6g} "
                                 f"cli_cold_ms_p50={statistics.median(cold.times) * 1000:.6g}")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (import_s * factors[0]
                            + statistics.median(t * f for t, f in zip(setups, factors)), "s"),
                "queries_per_s": (len(lat) / sum(lat), "1/s"),
                "verdict_ms_p50": (statistics.median(lat) * 1000.0, "ms"),
                "verdict_ms_p90": (p90 * 1000.0, "ms"),
                "cli_cold_ms_p50": (statistics.median(cold.scaled()) * 1000.0, "ms"),
                "ok_share": (1.0 - tally.failed / tally.attempted, "ratio"),
                "peak_rss_mb": (rss, "MB"),
            }
    except OutOfTime as exc:
        print(f"# workload {name}, seed {seed}: no result, {exc}")
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    _summary(name, seed, tally, metrics, extra, probe_lines)
    return {
        "correct": tally.failed == 0 and probes_unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("check-data", "check-search", "implication"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "indepkit" / "__init__.py").is_file():
        print(f"error: no indepkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
