"""Command-line front end.

Subcommands: ``check`` (atom against a relation file), ``implies``
(implication over a constraint file, with optional counterexample search),
``closure``, ``derive`` (proof tree), ``witness`` (bundled constructions),
and ``from-cnf`` (the satisfiability reduction).

Configuration precedence: command-line flags, then ``INDEPKIT_*`` environment
variables, then a JSON config file, then built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from .atoms import (
    CERTAIN,
    PLAIN,
    POSSIBLE,
    is_disjoint,
    is_pia_star,
    parse_atom,
    parse_constraints,
    render_atom,
)
from .constructions import (
    CnfFormula,
    cnf_to_relation,
    constancy_counterexample,
    exchange_failure_groundings,
    exchange_failure_relation,
    parity_relation,
    pia_separating_family,
    sat_via_pia,
)
from .errors import FragmentError, IndepkitError
from .implication import (
    SearchBounds,
    implies_cia,
    implies_ia,
    implies_mixed_disjoint,
    implies_pia_star,
    search_counterexample,
)
from .model_check import DEFAULT_ORACLE_BOUND, check_atom
from .relation import domains_to_json, read_relation, relation_to_csv
from .rules import (
    DEFAULT_ATTRIBUTE_LIMIT,
    SYSTEM_FULL,
    SYSTEM_I,
    SYSTEM_I_C,
    SYSTEM_I_P,
    closure,
    derivation_to_json_list,
    derives,
    render_derivation_text,
    system_by_name,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_ERROR = 2


@dataclass
class RunConfig:
    """Resolved runtime settings for one command invocation."""

    oracle_bound: int = DEFAULT_ORACLE_BOUND
    attribute_limit: int = DEFAULT_ATTRIBUTE_LIMIT
    max_attributes: int = 5
    max_rows: int = 4
    domain_size: int = 2
    output: str = "text"

    def __post_init__(self):
        for name in ("oracle_bound", "attribute_limit", "max_attributes", "max_rows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.domain_size < 2:
            raise ValueError("domain_size must be at least 2")
        if self.output not in ("text", "json"):
            raise ValueError("output must be text or json")

    @property
    def bounds(self) -> SearchBounds:
        return SearchBounds(self.max_attributes, self.max_rows, self.domain_size)


_ENV_PREFIX = "INDEPKIT_"
_INT_SETTINGS = (
    "oracle_bound",
    "attribute_limit",
    "max_attributes",
    "max_rows",
    "domain_size",
)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, object] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            data = json.load(fh)
        known = {f.name for f in fields(RunConfig)}
        for key, value in data.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = value
    for f in fields(RunConfig):
        env = os.environ.get(_ENV_PREFIX + f.name.upper())
        if env is not None:
            values[f.name] = int(env) if f.name in _INT_SETTINGS else env
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if getattr(args, "json", False):
        values["output"] = "json"
    return RunConfig(**{k: v for k, v in values.items()})


def _unicode_ok() -> bool:
    encoding = getattr(sys.stdout, "encoding", None) or ""
    return "utf" in encoding.lower()


def _emit(config: RunConfig, text_lines: list[str], payload: dict) -> None:
    if config.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--oracle-bound", dest="oracle_bound", type=int)
    parser.add_argument("--limit", dest="attribute_limit", type=int,
                        help="saturation attribute limit")
    parser.add_argument("--max-attributes", dest="max_attributes", type=int)
    parser.add_argument("--max-rows", dest="max_rows", type=int)
    parser.add_argument("--domain-size", dest="domain_size", type=int)
    parser.add_argument("--output", dest="output", choices=("text", "json"))
    parser.add_argument("--json", action="store_true", help="shortcut for --output json")


def _cmd_check(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    relation = read_relation(args.relation, args.domains)
    atom = parse_atom(args.atom, relation.schema)
    report = check_atom(relation, atom, method=args.method, oracle_bound=config.oracle_bound)
    shown = render_atom(atom, relation.schema, unicode_ops=_unicode_ok())
    verdict = "holds" if report.verdict else "fails"
    lines = [f"{shown}: {verdict}  [method {report.method}]"]
    for key, value in report.stats.items():
        lines.append(f"  {key}: {value}")
    if report.witness is not None:
        lines.append("witness:")
        lines.extend("  " + l for l in relation_to_csv(report.witness).splitlines())
    payload = {"atom": render_atom(atom, relation.schema), **report.to_json_dict()}
    _emit(config, lines, payload)
    if args.exit_status:
        return EXIT_OK if report.verdict else EXIT_FAILS
    return EXIT_OK


def _route_implies(premises, goal, sound_only: bool, limit: int):
    """Pick the decider for the query's fragment.  Returns the verdict, the
    completeness tag, and a label naming the route taken."""
    modalities = {a.modality for a in premises} | {goal.modality}
    if modalities == {PLAIN}:
        return implies_ia(premises, goal, limit), "complete", "closure-I"
    if PLAIN in modalities:
        raise FragmentError("plain atoms cannot be mixed with modal atoms")
    if modalities == {CERTAIN}:
        return implies_cia(premises, goal, limit), "complete", "certain-as-plain"
    if modalities == {POSSIBLE}:
        if is_pia_star(goal):
            return implies_pia_star(premises, goal), "complete", "pia-star"
        if sound_only:
            verdict = derives(premises, goal, SYSTEM_I_P, limit) is not None
            return verdict, "sound-only", "derivability-I_p"
        raise FragmentError(
            "the goal is outside the decidable possible fragment; "
            "pass --sound-only for a derivability answer"
        )
    if all(is_disjoint(a) for a in [*premises, goal]):
        if goal.modality == CERTAIN:
            return implies_mixed_disjoint(premises, goal, limit), "complete", "certain-core"
        if sound_only:
            return (
                implies_mixed_disjoint(premises, goal, limit),
                "sound-only",
                "derivability-disjoint-mixed",
            )
        raise FragmentError(
            "possible goals under mixed premises are sound-only; pass --sound-only"
        )
    if sound_only:
        verdict = derives(premises, goal, SYSTEM_FULL, limit) is not None
        return verdict, "sound-only", "derivability-full"
    raise FragmentError("non-disjoint mixed sets are sound-only; pass --sound-only")


def _cmd_implies(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    with open(args.constraints, encoding="utf-8") as fh:
        premises = parse_constraints(fh.read())
    goal = parse_atom(args.atom)
    verdict, completeness, route = _route_implies(
        premises, goal, args.sound_only, config.attribute_limit
    )
    word = "implied" if completeness == "complete" else "derivable"
    shown = render_atom(goal, unicode_ops=_unicode_ok())
    lines = [
        f"{shown}: {word if verdict else 'not ' + word}"
        f"  [completeness {completeness}, via {route}]"
    ]
    payload = {
        "atom": render_atom(goal),
        "verdict": verdict,
        "completeness": completeness,
        "via": route,
        "counterexample": None,
    }
    if not verdict and args.counterexample:
        witness = search_counterexample(premises, goal, config.bounds)
        if witness is None:
            lines.append("no counterexample within the configured bounds")
        else:
            csv_path, dom_path = _write_relation_files(
                witness, args.counterexample.removesuffix(".csv")
            )
            lines.append(f"counterexample written to {csv_path} and {dom_path}")
            payload["counterexample"] = relation_to_csv(witness)
    _emit(config, lines, payload)
    return EXIT_OK


def _pick_system(args: argparse.Namespace, premises, goal=None):
    if args.system:
        return system_by_name(args.system)
    modalities = {a.modality for a in premises}
    if goal is not None:
        modalities.add(goal.modality)
    if modalities <= {PLAIN}:
        return SYSTEM_I
    if modalities == {CERTAIN}:
        return SYSTEM_I_C
    if modalities == {POSSIBLE}:
        return SYSTEM_I_P
    return SYSTEM_FULL


def _cmd_closure(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    with open(args.constraints, encoding="utf-8") as fh:
        premises = parse_constraints(fh.read())
    system = _pick_system(args, premises)
    universe = None
    if args.universe:
        universe = [a.strip() for a in args.universe.split(",") if a.strip()]
    atoms = closure(premises, system, universe, config.attribute_limit)
    rendered = sorted(render_atom(a) for a in atoms)
    lines = [f"{len(rendered)} atoms in the {system.name} closure"]
    unicode_ops = _unicode_ok()
    lines += [
        "  " + render_atom(a, unicode_ops=unicode_ops)
        for a in sorted(atoms, key=render_atom)
    ]
    _emit(config, lines, {"system": system.name, "atoms": rendered})
    return EXIT_OK


def _cmd_derive(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    with open(args.constraints, encoding="utf-8") as fh:
        premises = parse_constraints(fh.read())
    goal = parse_atom(args.atom)
    system = _pick_system(args, premises, goal)
    derivation = derives(premises, goal, system, config.attribute_limit)
    if derivation is None:
        _emit(
            config,
            [f"{render_atom(goal, unicode_ops=_unicode_ok())}: not derivable in {system.name}"],
            {"derivable": False, "system": system.name, "steps": None},
        )
        return EXIT_OK
    lines = [render_derivation_text(derivation, unicode_ops=_unicode_ok())]
    payload = {
        "derivable": True,
        "system": system.name,
        "steps": derivation_to_json_list(derivation),
    }
    _emit(config, lines, payload)
    return EXIT_OK


def _split_names(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _build_witness(args: argparse.Namespace):
    name = args.name
    if name == "exchange-failure":
        if args.grounding == 1:
            return exchange_failure_groundings()[0]
        if args.grounding == 2:
            return exchange_failure_groundings()[1]
        return exchange_failure_relation()
    if name == "pia-family":
        if args.k is None or args.m is None:
            raise ValueError("pia-family needs --k and --m")
        return pia_separating_family(args.k, args.m, _split_names(args.extra))
    if name == "parity":
        x, y, z = _split_names(args.x), _split_names(args.y), _split_names(args.z)
        if not x or not y:
            raise ValueError("parity needs --x and --y attribute lists")
        return parity_relation(x, y, z, args.pivot)
    if name == "constancy":
        universe = _split_names(args.universe)
        if not args.attr or not universe:
            raise ValueError("constancy needs --attr and --universe")
        return constancy_counterexample(args.attr, universe)
    raise ValueError(f"unknown construction {name!r}")


def _write_relation_files(relation, out_base: str) -> tuple[str, str]:
    csv_path = out_base + ".csv"
    dom_path = out_base + ".domains.json"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(relation_to_csv(relation))
    with open(dom_path, "w", encoding="utf-8") as fh:
        fh.write(domains_to_json(relation.schema))
    return csv_path, dom_path


def _cmd_witness(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    relation = _build_witness(args)
    payload = {
        "csv": relation_to_csv(relation),
        "domains": json.loads(domains_to_json(relation.schema)),
    }
    if args.out:
        csv_path, dom_path = _write_relation_files(relation, args.out)
        _emit(config, [f"written to {csv_path} and {dom_path}"], payload)
    else:
        _emit(config, [relation_to_csv(relation).rstrip("\n")], payload)
    return EXIT_OK


def _cmd_from_cnf(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    with open(args.cnf, encoding="utf-8") as fh:
        phi = CnfFormula.from_dimacs(fh.read())
    relation, goal = cnf_to_relation(phi)
    atom_text = render_atom(goal, relation.schema)
    lines = [f"atom: {atom_text}"]
    payload = {
        "atom": atom_text,
        "csv": relation_to_csv(relation),
        "domains": json.loads(domains_to_json(relation.schema)),
        "satisfiable": None,
    }
    if args.out:
        csv_path, dom_path = _write_relation_files(relation, args.out)
        lines.append(f"written to {csv_path} and {dom_path}")
    else:
        lines.append(relation_to_csv(relation).rstrip("\n"))
    if args.decide:
        verdict = sat_via_pia(phi)
        payload["satisfiable"] = verdict
        lines.append("satisfiable" if verdict else "unsatisfiable")
    _emit(config, lines, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indepkit",
        description="Possible and certain independence over incomplete relations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check an atom against a relation file")
    p_check.add_argument("relation", help="relation CSV file")
    p_check.add_argument("atom", help="atom text, e.g. 'e _||_p s'")
    p_check.add_argument("--domains", help="sidecar JSON domain file")
    p_check.add_argument("--method", choices=("auto", "fast", "oracle"), default="auto")
    p_check.add_argument(
        "--exit-status",
        action="store_true",
        help="exit 0 when the atom holds, 1 when it fails, 2 on errors",
    )
    _add_config_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_implies = sub.add_parser("implies", help="decide implication from a constraint file")
    p_implies.add_argument("constraints", help="constraint file, one atom per line")
    p_implies.add_argument("atom", help="goal atom text")
    p_implies.add_argument(
        "--counterexample",
        metavar="PATH",
        help="on a negative answer, search for a witness and write it here",
    )
    p_implies.add_argument(
        "--sound-only",
        action="store_true",
        help="allow derivability answers outside the complete fragments",
    )
    _add_config_flags(p_implies)
    p_implies.set_defaults(func=_cmd_implies)

    p_closure = sub.add_parser("closure", help="print the closure of a constraint file")
    p_closure.add_argument("constraints")
    p_closure.add_argument("--system", help="I, I_c, I_p, J_pc, full, or disjoint-mixed")
    p_closure.add_argument("--universe", help="comma-separated attribute universe")
    _add_config_flags(p_closure)
    p_closure.set_defaults(func=_cmd_closure)

    p_derive = sub.add_parser("derive", help="print a derivation of an atom")
    p_derive.add_argument("constraints")
    p_derive.add_argument("atom")
    p_derive.add_argument("--system", help="I, I_c, I_p, J_pc, full, or disjoint-mixed")
    _add_config_flags(p_derive)
    p_derive.set_defaults(func=_cmd_derive)

    p_witness = sub.add_parser("witness", help="emit a bundled construction as CSV")
    p_witness.add_argument(
        "name", help="exchange-failure, pia-family, parity, or constancy"
    )
    p_witness.add_argument("--grounding", type=int, choices=(1, 2))
    p_witness.add_argument("--k", type=int)
    p_witness.add_argument("--m", type=int)
    p_witness.add_argument("--extra", help="comma-separated extra attributes")
    p_witness.add_argument("--x", help="comma-separated first side (parity)")
    p_witness.add_argument("--y", help="comma-separated second side (parity)")
    p_witness.add_argument("--z", help="comma-separated extra attributes (parity)")
    p_witness.add_argument("--pivot", help="pivot attribute (parity)")
    p_witness.add_argument("--attr", help="varying attribute (constancy)")
    p_witness.add_argument("--universe", help="comma-separated universe (constancy)")
    p_witness.add_argument("--out", help="write BASE.csv and BASE.domains.json")
    _add_config_flags(p_witness)
    p_witness.set_defaults(func=_cmd_witness)

    p_cnf = sub.add_parser("from-cnf", help="reduce a DIMACS CNF file to a relation")
    p_cnf.add_argument("cnf", help="DIMACS CNF file")
    p_cnf.add_argument("--out", help="write BASE.csv and BASE.domains.json")
    p_cnf.add_argument("--decide", action="store_true", help="also decide satisfiability")
    _add_config_flags(p_cnf)
    p_cnf.set_defaults(func=_cmd_from_cnf)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IndepkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
