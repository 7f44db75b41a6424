"""Command-line front end.

Subcommands: ``check`` (atom against a relation file), ``implies``
(implication over a constraint file, with optional counterexample search),
``closure``, ``derive`` (proof tree), ``witness`` (bundled constructions),
and ``from-cnf`` (the satisfiability reduction).

``witness``, ``from-cnf`` and ``implies --counterexample`` share one
relation writer, ``_relation_output``, which renders the CSV and the domains
once for the printed line, the JSON fields and the written files alike.

Each subcommand declares only the flags it reads, and each setting comes from
its flag or the flag's default; every subcommand takes ``--json``.  ``witness``
has one sub-parser per construction, so its flags follow the construction's
name.  The parser is built once per process, on the first call to ``main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .atoms import Atom, parse_atom, parse_constraints, render_atom
from .constructions import (
    CnfFormula,
    cnf_to_relation,
    constancy_counterexample,
    exchange_failure_groundings,
    exchange_failure_relation,
    parity_relation,
    pia_separating_family,
)
from .errors import IndepkitError
from .implication import SearchBounds, implies, search_counterexample
from .model_check import check_atom
from .relation import Relation, domains_to_json, read_relation, relation_to_csv
from .rules import (
    closure,
    derivation_to_json_list,
    derives,
    fragment_of,
    render_derivation_text,
    system_by_name,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_ERROR = 2


def _unicode_ok() -> bool:
    encoding = getattr(sys.stdout, "encoding", None) or ""
    return "utf" in encoding.lower()


def _emit(as_json: bool, text_lines: list[str], payload: dict) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _output_base(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("the file name base is empty")
    return text


def _csv_base(text: str) -> str:
    """A ``--counterexample`` path, as the base of the files it names."""
    return _output_base(text.removesuffix(".csv"))


def _setting(parser, flag: str, default: int, what: str) -> None:
    parser.add_argument(flag, type=_positive_int, default=default,
                        help=f"{what} (default {default})")


def _cmd_check(args: argparse.Namespace) -> int:
    relation = read_relation(args.relation, args.domains)
    atom = parse_atom(args.atom, relation.schema)
    report = check_atom(relation, atom, method=args.method)
    shown = render_atom(atom, relation.schema, unicode_ops=_unicode_ok())
    verdict = "holds" if report.verdict else "fails"
    lines = [f"{shown}: {verdict}  [method {report.method}]"]
    for key, value in report.stats.items():
        lines.append(f"  {key}: {value}")
    payload = {"atom": render_atom(atom, relation.schema), **report.to_json_dict()}
    if payload["witness"] is not None:
        lines.append("witness:")
        lines.extend("  " + l for l in payload["witness"].splitlines())
    _emit(args.json, lines, payload)
    if args.exit_status:
        return EXIT_OK if report.verdict else EXIT_FAILS
    return EXIT_OK


def _cmd_implies(args: argparse.Namespace) -> int:
    bounds = SearchBounds(args.max_attributes, args.max_rows, args.domain_size)
    premises = _read_constraints(args.constraints)
    goal = parse_atom(args.atom)
    report = implies(premises, goal, args.sound_only)
    word = "implied" if report.completeness == "complete" else "derivable"
    shown = render_atom(goal, unicode_ops=_unicode_ok())
    lines = [
        f"{shown}: {word if report.verdict else 'not ' + word}"
        f"  [completeness {report.completeness}, via {report.route}]"
    ]
    payload = {
        "atom": render_atom(goal),
        "verdict": report.verdict,
        "completeness": report.completeness,
        "via": report.route,
        "counterexample": None,
    }
    if not report.verdict and args.counterexample:
        witness = search_counterexample(premises, goal, bounds)
        if witness is None:
            lines.append("no counterexample within the search bounds")
        else:
            line, fields = _relation_output(witness, args.counterexample)
            lines.append(f"counterexample {line}")
            payload["counterexample"] = fields["csv"]
    _emit(args.json, lines, payload)
    return EXIT_OK


def _read_constraints(path: str) -> list[Atom]:
    with open(path, encoding="utf-8") as fh:
        return parse_constraints(fh.read())


def _cmd_closure(args: argparse.Namespace) -> int:
    premises = _read_constraints(args.constraints)
    system = system_by_name(args.system) if args.system else fragment_of(premises)[0]
    atoms = sorted(closure(premises, system, args.universe), key=render_atom)
    unicode_ops = _unicode_ok()
    lines = [f"{len(atoms)} atoms in the {system.name} closure"]
    lines += ["  " + render_atom(a, unicode_ops=unicode_ops) for a in atoms]
    _emit(args.json, lines, {"system": system.name, "atoms": [render_atom(a) for a in atoms]})
    return EXIT_OK


def _cmd_derive(args: argparse.Namespace) -> int:
    premises = _read_constraints(args.constraints)
    goal = parse_atom(args.atom)
    system = system_by_name(args.system) if args.system else fragment_of([*premises, goal])[0]
    derivation = derives(premises, goal, system)
    if derivation is None:
        lines = [f"{render_atom(goal, unicode_ops=_unicode_ok())}: not derivable in {system.name}"]
        steps = None
    else:
        lines = [render_derivation_text(derivation, unicode_ops=_unicode_ok())]
        steps = derivation_to_json_list(derivation)
    payload = {"derivable": derivation is not None, "system": system.name, "steps": steps}
    _emit(args.json, lines, payload)
    return EXIT_OK


def _split_names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _relation_output(relation: Relation, out_base: str | None) -> tuple[str, dict]:
    """Render the relation's CSV and domains once.  With a base, write
    BASE.csv and BASE.domains.json and name them in the text line; without,
    the text line is the CSV.  Returns the line and the JSON fields."""
    text = relation_to_csv(relation)
    domains = domains_to_json(relation.schema)
    fields = {"csv": text, "domains": json.loads(domains)}
    if out_base is None:
        return text.rstrip("\n"), fields
    csv_path, dom_path = out_base + ".csv", out_base + ".domains.json"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(dom_path, "w", encoding="utf-8") as fh:
        fh.write(domains)
    return f"written to {csv_path} and {dom_path}", fields


def _cmd_witness(args: argparse.Namespace) -> int:
    line, fields = _relation_output(args.build(args), args.out)
    _emit(args.json, [line], fields)
    return EXIT_OK


def _cmd_from_cnf(args: argparse.Namespace) -> int:
    with open(args.cnf, encoding="utf-8") as fh:
        phi = CnfFormula.from_dimacs(fh.read())
    relation, goal = cnf_to_relation(phi)
    atom_text = render_atom(goal, relation.schema)
    line, fields = _relation_output(relation, args.out)
    lines = [f"atom: {atom_text}", line]
    payload = {"atom": atom_text, **fields, "satisfiable": None}
    if args.decide:
        verdict = check_atom(relation, goal).verdict
        payload["satisfiable"] = verdict
        lines.append("satisfiable" if verdict else "unsatisfiable")
    _emit(args.json, lines, payload)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indepkit",
        description="Possible and certain independence over incomplete relations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check an atom against a relation file")
    p_check.add_argument("relation", help="relation CSV file")
    p_check.add_argument("atom", help="atom text, e.g. 'e _||_p s'")
    p_check.add_argument("--domains", help="sidecar JSON domain file")
    p_check.add_argument("--method", choices=("auto", "oracle"), default="auto")
    p_check.add_argument(
        "--exit-status",
        action="store_true",
        help="exit 0 when the atom holds, 1 when it fails, 2 on errors",
    )
    p_check.set_defaults(func=_cmd_check)

    p_implies = sub.add_parser("implies", help="decide implication from a constraint file")
    p_implies.add_argument("constraints", help="constraint file, one atom per line")
    p_implies.add_argument("atom", help="goal atom text")
    p_implies.add_argument(
        "--counterexample",
        metavar="PATH",
        type=_csv_base,
        help="on a negative answer, search for a witness and write it here",
    )
    p_implies.add_argument(
        "--sound-only",
        action="store_true",
        help="allow derivability answers outside the complete fragments",
    )
    search = p_implies.add_argument_group("counterexample search bounds")
    _setting(search, "--max-attributes", SearchBounds.max_attributes, "most attributes")
    _setting(search, "--max-rows", SearchBounds.max_rows, "most rows")
    _setting(search, "--domain-size", SearchBounds.domain_size, "values per attribute, at least 2")
    p_implies.set_defaults(func=_cmd_implies)

    p_closure = sub.add_parser("closure", help="print the closure of a constraint file")
    p_closure.add_argument("constraints")
    p_closure.add_argument("--system", help="I, I_c, I_p, J_pc, full, or disjoint-mixed")
    p_closure.add_argument("--universe", type=_split_names, default=(),
                           help="comma-separated attribute universe")
    p_closure.set_defaults(func=_cmd_closure)

    p_derive = sub.add_parser("derive", help="print a derivation of an atom")
    p_derive.add_argument("constraints")
    p_derive.add_argument("atom")
    p_derive.add_argument("--system", help="I, I_c, I_p, J_pc, full, or disjoint-mixed")
    p_derive.set_defaults(func=_cmd_derive)

    p_witness = sub.add_parser("witness", help="emit a bundled construction as CSV")
    p_witness.set_defaults(func=_cmd_witness)
    kinds = p_witness.add_subparsers(dest="name", required=True)
    p_exchange = kinds.add_parser("exchange-failure", help="possible independence fails exchange")
    p_exchange.add_argument("--grounding", type=int, choices=(1, 2))
    p_exchange.set_defaults(build=lambda a: exchange_failure_groundings()[a.grounding - 1]
                            if a.grounding else exchange_failure_relation())
    p_family = kinds.add_parser("pia-family", help="separating family for possible implication")
    p_family.add_argument("--k", type=int, required=True)
    p_family.add_argument("--m", type=int, required=True)
    p_family.add_argument("--extra", type=_split_names, default=(),
                          help="comma-separated extra attributes")
    p_family.set_defaults(build=lambda a: pia_separating_family(a.k, a.m, a.extra))
    p_parity = kinds.add_parser("parity", help="parity relation for mixed implication")
    p_parity.add_argument("--x", type=_split_names, required=True, help="comma-separated first side")
    p_parity.add_argument("--y", type=_split_names, required=True, help="comma-separated second side")
    p_parity.add_argument("--z", type=_split_names, default=(), help="comma-separated extra attributes")
    p_parity.add_argument("--pivot", help="pivot attribute, from the first side")
    p_parity.set_defaults(build=lambda a: parity_relation(a.x, a.y, a.z, a.pivot))
    p_constancy = kinds.add_parser("constancy", help="counterexample to constancy")
    p_constancy.add_argument("--attr", required=True, help="varying attribute")
    p_constancy.add_argument("--universe", type=_split_names, required=True,
                             help="comma-separated universe")
    p_constancy.set_defaults(build=lambda a: constancy_counterexample(a.attr, a.universe))

    p_cnf = sub.add_parser("from-cnf", help="reduce a DIMACS CNF file to a relation")
    p_cnf.add_argument("cnf", help="DIMACS CNF file")
    p_cnf.set_defaults(func=_cmd_from_cnf)
    writers = [p_cnf, *kinds.choices.values()]
    for p in writers:
        p.add_argument("--out", type=_output_base, help="write BASE.csv and BASE.domains.json")
    p_cnf.add_argument("--decide", action="store_true", help="also decide satisfiability")
    for p in [p_check, p_implies, p_closure, p_derive, *writers]:
        p.add_argument("--json", action="store_true", help="print JSON instead of text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (IndepkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
