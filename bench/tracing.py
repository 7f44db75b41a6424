"""Span recording around the package's module-level functions.

``Tracer.install()`` replaces selected functions of ``indepkit.*`` with
wrappers that record one span per call: name, start, end, parent span and
query id, plus an optional count taken from the arguments or the return
value.  Every module global bound to the original function is replaced, so
calls between modules (``implication`` calling ``model_check.check_pia``)
and within a module (``check_atom`` calling ``check_pia_unary``) are both
seen.  ``uninstall()`` puts the originals back.  Spans stay in memory, in
flat arrays, until the run ends; ``layer_metrics`` turns them into the
per-layer numbers.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter


def _stats(key):
    return lambda args, kwargs, result: (getattr(result, "stats", None) or {}).get(key, 0)


def _edges(args, kwargs, result):
    return len(args[0].edges)


def _size(args, kwargs, result):
    return result.size


def _length(args, kwargs, result):
    return len(result)


def _found(args, kwargs, result):
    return result is not None


# (module, function, count taken from the call or None)
TARGETS = (
    ("relation", "read_relation", None),
    ("relation", "relation_from_csv", _size),
    ("relation", "domains_from_json", None),
    ("atoms", "parse_atom", None),
    ("atoms", "parse_constraints", None),
    ("model_check", "check_atom", None),
    ("model_check", "check_ia", None),
    ("model_check", "check_cia_fast", None),
    ("model_check", "cia_oracle_report", _stats("groundings")),
    ("model_check", "check_pia_oracle", _stats("groundings")),
    ("model_check", "check_pia_unary", None),
    ("model_check", "build_flow_network", None),
    ("model_check", "check_pia", _stats("nodes")),
    ("flow", "max_flow_assignment", _edges),
    ("constructions", "cnf_to_relation", None),
    ("constructions", "sat_via_pia", None),
    ("rules", "closure", _length),
    ("rules", "derives", None),
    ("rules", "validate_derivation", None),
    ("implication", "implies_ia", None),
    ("implication", "implies_cia", None),
    ("implication", "implies_pia_star", None),
    ("implication", "implies_mixed_disjoint", None),
    ("implication", "search_counterexample", _found),
    ("cli", "main", None),
)

ROOT = "bench.query"


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.qid = array("i")
        self.count = array("d")
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object]] = []
        self.query = -1
        self._wrappers = []
        for module, attr, counter in TARGETS:
            fn = getattr(importlib.import_module(f"indepkit.{module}"), attr)
            self._wrappers.append((fn, self._wrap(f"{module}.{attr}", fn, counter)))

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.qid.append(self.query)
        self.count.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        self.names.append(name)
        name_id = len(self.names) - 1
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.count[idx] = counter(args, kwargs, result)
            return result

        return wrapper

    def query_span(self, query_id: int, fn):
        """Run ``fn()`` under a root span for one query."""
        self.query = query_id
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def install(self) -> None:
        """Swap every target for its wrapper, in every loaded indepkit
        module that binds it."""
        if self._swaps:
            return
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "indepkit"]
        for fn, wrapper in self._wrappers:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._swaps.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in self._swaps:
            setattr(mod, key, fn)
        self._swaps.clear()

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its child spans."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def totals(self):
        """Per span name: (self seconds, calls, summed counts), plus the
        entries needed for the derived metrics."""
        selfs = self.self_times()
        agg: dict[str, list[float]] = {n: [0.0, 0, 0.0] for n in self.names}
        model_calls = cex_checks = 0
        cex_check_s = 0.0
        layer = [n.split(".")[0] for n in self.names]
        for i, nid in enumerate(self.name):
            entry = agg[self.names[nid]]
            entry[0] += selfs[i]
            entry[1] += 1
            entry[2] += self.count[i]
            if layer[nid] != "model_check":
                continue
            p = self.parent[i]
            pname = self.names[self.name[p]] if p >= 0 else ""
            if not pname.startswith("model_check."):
                model_calls += 1
            if pname == "implication.search_counterexample":
                cex_checks += 1
                cex_check_s += self.end[i] - self.start[i]
        return agg, {
            "model_calls": model_calls,
            "cex_checks": cex_checks,
            "cex_check_s": cex_check_s,
        }


def layer_metrics(tracer: Tracer, verdicts: int, traced_s: float, untraced_s: float):
    """Per-layer metrics, normalised per verdict; see bench/README.md."""
    agg, extra = tracer.totals()
    n = max(verdicts, 1)

    def ms(*names):
        return sum(agg[x][0] for x in names) * 1000.0 / n

    def per(name, field=1):
        return agg[name][field] / n

    pia_nodes = agg["model_check.check_pia"][2]
    searches = agg["implication.search_counterexample"][1]
    root_total = sum(
        e - s for s, e, nid in zip(tracer.start, tracer.end, tracer.name) if nid == 0
    )
    implies = [k for k in agg if k.startswith("implication.implies_")]
    metrics = {
        "relation.parse_ms": (
            ms("relation.read_relation", "relation.relation_from_csv", "relation.domains_from_json"),
            "ms/query",
        ),
        "relation.rows_parsed": (per("relation.relation_from_csv", 2), "rows/query"),
        "atoms.parse_ms": (ms("atoms.parse_atom", "atoms.parse_constraints"), "ms/query"),
        "model_check.flow_build_ms": (ms("model_check.build_flow_network"), "ms/query"),
        "flow.max_flow_ms": (ms("flow.max_flow_assignment"), "ms/query"),
        "flow.edges": (per("flow.max_flow_assignment", 2), "edges/query"),
        "model_check.check_pia_unary_ms": (ms("model_check.check_pia_unary"), "ms/query"),
        "model_check.check_pia_ms": (ms("model_check.check_pia"), "ms/query"),
        "model_check.pia_nodes": (pia_nodes / n, "nodes/query"),
        "model_check.pia_ms_per_node": (
            agg["model_check.check_pia"][0] * 1000.0 / pia_nodes if pia_nodes else 0.0,
            "ms/node",
        ),
        "model_check.check_ia_ms": (ms("model_check.check_ia"), "ms/query"),
        "model_check.check_cia_fast_ms": (ms("model_check.check_cia_fast"), "ms/query"),
        "model_check.oracle_ms": (
            ms("model_check.cia_oracle_report", "model_check.check_pia_oracle"),
            "ms/query",
        ),
        "model_check.oracle_groundings": (
            (agg["model_check.cia_oracle_report"][2] + agg["model_check.check_pia_oracle"][2]) / n,
            "groundings/query",
        ),
        "model_check.calls": (extra["model_calls"] / n, "calls/query"),
        "constructions.cnf_ms": (
            ms("constructions.cnf_to_relation", "constructions.sat_via_pia"),
            "ms/query",
        ),
        "rules.closure_ms": (ms("rules.closure"), "ms/query"),
        "rules.closure_atoms": (per("rules.closure", 2), "atoms/query"),
        "rules.derives_ms": (ms("rules.derives"), "ms/query"),
        "rules.validate_ms": (ms("rules.validate_derivation"), "ms/query"),
        "implication.implies_self_ms": (ms(*implies), "ms/query"),
        "implication.cex_self_ms": (ms("implication.search_counterexample"), "ms/query"),
        "implication.cex_check_ms": (extra["cex_check_s"] * 1000.0 / n, "ms/query"),
        "implication.cex_checks": (extra["cex_checks"] / n, "checks/query"),
        "implication.cex_witness_share": (
            agg["implication.search_counterexample"][2] / searches if searches else 0.0,
            "ratio",
        ),
        "cli.self_ms": (ms("cli.main"), "ms/query"),
        "cli.calls": (per("cli.main"), "calls/query"),
        "trace.overhead_pct": (
            (traced_s - untraced_s) * 100.0 / untraced_s if untraced_s else 0.0,
            "%",
        ),
    }
    # the self-time metrics, without cex_check_ms: it holds model_check
    # spans that the model_check metrics already count
    reported_ms = sum(v for k, (v, unit) in metrics.items()
                      if unit == "ms/query" and k != "implication.cex_check_ms")
    metrics["trace.coverage_pct"] = (
        reported_ms * n / 10.0 / root_total if root_total else 0.0,
        "%",
    )
    return metrics
