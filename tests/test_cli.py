from __future__ import annotations

import argparse
import csv
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from indepkit import (
    ParseError,
    SchemaError,
    check_atom,
    check_ia,
    cli,
    constructions,
    exchange_failure_groundings,
    parse_atom,
    read_relation,
    relation_from_csv,
    relation_to_csv,
)
from indepkit.cli import main

DATA = Path(__file__).parent / "data"
TABLE1 = str(DATA / "table1.csv")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_possible_holds(self, capsys):
        code, out, _ = run(capsys, "check", TABLE1, "e _||_p s", "--exit-status")
        assert code == 0
        assert "holds" in out

    def test_certain_fails(self, capsys):
        code, out, _ = run(capsys, "check", TABLE1, "e _||_c s", "--exit-status")
        assert code == 1
        assert "fails" in out

    def test_without_exit_status_flag_verdicts_exit_zero(self, capsys):
        code, _, _ = run(capsys, "check", TABLE1, "e _||_c s")
        assert code == 0

    def test_empty_relation_trivial_atom(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("A,B\n")
        code, out, _ = run(capsys, "check", str(empty), "A _||_ {}", "--exit-status")
        assert code == 0 and "holds" in out

    def test_json_output_round_trips_witness(self, capsys):
        code, out, _ = run(capsys, "check", TABLE1, "e _||_p s", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] is True
        witness = relation_from_csv(data["witness"])
        relation = read_relation(TABLE1)
        atom = parse_atom(data["atom"], relation.schema)
        assert check_atom(witness, parse_atom("e _||_ s", witness.schema)).verdict
        assert atom.modality == "possible"

    def test_methods_agree_on_fixture(self, capsys):
        for atom in (
            "s _||_ g", "s _||_c g", "s _||_p g", "e _||_c s",
            "r _||_c r", "e _||_p s", "r _||_p r", "e _||_p s,g",
        ):
            auto = run(capsys, "check", TABLE1, atom, "--exit-status")[0]
            oracle = run(capsys, "check", TABLE1, atom, "--method", "oracle", "--exit-status")[0]
            assert auto == oracle, atom

    def test_possible_search_on_2000_rows(self, capsys, tmp_path):
        # rows a_i,*,0,0: the side C, D is constant, so the atom holds and
        # the witness covers every row
        path = tmp_path / "ladder.csv"
        path.write_text("A,B,C,D\n" + "".join(f"a{i},*,0,0\n" for i in range(2000)))
        code, out, _ = run(capsys, "check", str(path), "A,B _||_p C,D", "--json", "--exit-status")
        assert code == 0
        data = json.loads(out)
        witness = relation_from_csv(data["witness"])
        assert witness.size == 2000
        assert check_ia(witness, {"A", "B"}, {"C", "D"})

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "check", TABLE1, "e _||_ nope")
        assert code == 2
        assert "nope" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "no-such.csv", "A _||_ B")
        assert code == 2

    def test_csv_error_exits_2_naming_its_line(self, capsys, tmp_path):
        # a cell longer than the csv module's field limit: exit 1 would read
        # as "the atom fails" under --exit-status
        path = tmp_path / "long.csv"
        path.write_text("A,B\n0,1\n" + "x" * (csv.field_size_limit() + 1) + ",1\n")
        code, out, err = run(capsys, "check", str(path), "A _||_ B", "--exit-status")
        assert code == 2 and out == ""
        assert "line 3" in err and "field limit" in err

    def test_parse_error_names_the_physical_line(self, capsys, tmp_path):
        # the quoted cell spans lines 2 and 3, so the short record is on line 5
        path = tmp_path / "multiline.csv"
        path.write_text('A,B\n"x\ny",1\n0,1\n1\n')
        code, _, err = run(capsys, "check", str(path), "A _||_ B")
        assert code == 2
        assert "line 5: expected 2 cells, got 1" in err

    def test_empty_cell_exits_2_naming_its_column(self, capsys, tmp_path):
        # a null is written *; an empty cell in a record that is not all
        # blank would be the empty string, which no domain may hold
        path = tmp_path / "empty-cell.csv"
        path.write_text("A,B\n0,1\n1,\n")
        code, out, err = run(capsys, "check", str(path), "A _||_p B", "--exit-status")
        assert code == 2 and out == ""
        assert "domain of 'B' holds ''" in err


    @pytest.mark.parametrize(
        "text, domains, error, message",
        [
            ("", None, ParseError, "empty relation file"),
            ("#count\n", None, ParseError, "relation file has no attribute columns"),
            ("A,#count\n0,1\n1,0\n", None, ParseError, "line 3: multiplicity must be positive"),
            ("A,B\n0,1\n", '["A", "B"]', ParseError, "domain file must be a JSON object"),
            ("A,B\n0,1\n", '{"A": ["0", 1], "B": ["0", "1"]}', ParseError,
             "domain of 'A' must be an array of strings"),
            ("A,B\n0,1\n", '{"A": ["0", "1"]}', SchemaError, "no domain given for B"),
        ],
        ids=["empty", "count-column-only", "zero-multiplicity", "domains-list",
             "domain-value-not-a-string", "domain-missing"],
    )
    def test_unreadable_relation_is_a_typed_error(self, capsys, tmp_path, text, domains,
                                                  error, message):
        path = tmp_path / "r.csv"
        path.write_text(text)
        argv = ["check", str(path), "A _||_ B"]
        domains_path = None
        if domains is not None:
            domains_path = tmp_path / "r.domains.json"
            domains_path.write_text(domains)
            argv += ["--domains", str(domains_path)]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            read_relation(str(path), domains_path and str(domains_path))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestImplies:
    def test_certain_triple(self, capsys):
        code, out, _ = run(
            capsys, "implies", str(DATA / "sigma_certain.txt"), "e _||_c s,g"
        )
        assert code == 0
        assert "implied" in out and "complete" in out

    def test_possible_triple_with_counterexample(self, capsys, tmp_path):
        target = tmp_path / "ce.csv"
        code, out, _ = run(
            capsys,
            "implies",
            str(DATA / "sigma_possible.txt"),
            "e _||_p s,g",
            "--counterexample",
            str(target),
        )
        assert code == 0
        assert "not implied" in out
        witness = read_relation(str(target), str(tmp_path / "ce.domains.json"))
        for text in ("e _||_p s", "e,s _||_p g"):
            assert check_atom(witness, parse_atom(text, witness.schema)).verdict
        assert not check_atom(
            witness, parse_atom("e _||_p s,g", witness.schema)
        ).verdict

    def test_mixed_derivable(self, capsys):
        code, out, _ = run(
            capsys, "implies", str(DATA / "sigma_mixed.txt"), "e _||_p s,g",
            "--sound-only",
        )
        assert code == 0
        assert "derivable" in out and "sound-only" in out

    def test_out_of_fragment_without_flag_exits_2(self, capsys):
        code, _, err = run(
            capsys, "implies", str(DATA / "sigma_mixed.txt"), "e _||_p s,g"
        )
        assert code == 2
        assert "sound-only" in err

    def test_second_operator_in_a_premise_exits_2(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("A _||_c B _||_c C\n")
        code, out, err = run(capsys, "implies", str(sigma), "A _||_c B")
        assert code == 2 and out == ""
        assert "line 1" in err and "Traceback" not in err

    def test_premise_implied(self, capsys):
        code, out, _ = run(
            capsys, "implies", str(DATA / "sigma_certain.txt"), "e _||_c s"
        )
        assert code == 0 and "implied" in out


class TestClosureAndDerive:
    def test_closure_lists_atoms(self, capsys):
        code, out, _ = run(capsys, "closure", str(DATA / "sigma_certain.txt"))
        assert code == 0
        assert "e _||_c g,s" in out or "e ⊥c g,s" in out

    def test_closure_json(self, capsys):
        code, out, _ = run(
            capsys, "closure", str(DATA / "sigma_certain.txt"), "--json"
        )
        data = json.loads(out)
        assert data["system"] == "I_c"
        assert "e _||_c g,s" in data["atoms"]

    def test_closure_above_the_saturation_limit_exits_2(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(",".join(f"A{i}" for i in range(13)) + " _||_c {}\n")
        code, out, err = run(capsys, "closure", str(sigma))
        assert code == 2 and out == ""
        assert "saturation limit of 12" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "sigma, goal, system",
        [
            ("A _||_ B\nA,B _||_ C\n", "A _||_ B,C", "I"),
            ((DATA / "sigma_possible.txt").read_text(), "e _||_p s", "I_p"),
            ((DATA / "sigma_mixed.txt").read_text(), "e _||_p s,g", "full"),
        ],
        ids=["plain", "possible", "mixed"],
    )
    def test_default_system_is_the_fragments(self, capsys, tmp_path, sigma, goal, system):
        path = tmp_path / "sigma.txt"
        path.write_text(sigma)
        code, out, _ = run(capsys, "closure", str(path), "--json")
        assert code == 0 and json.loads(out)["system"] == system
        code, out, _ = run(capsys, "derive", str(path), goal, "--json")
        payload = json.loads(out)
        assert code == 0 and (payload["system"], payload["derivable"]) == (system, True)

    def test_derive_prints_tree(self, capsys):
        code, out, _ = run(
            capsys, "derive", str(DATA / "sigma_deduction.txt"), "r,s,g _||_p e"
        )
        assert code == 0
        assert "[premise]" in out
        assert "E_cp" in out or "C_p" in out

    def test_derive_not_derivable(self, capsys):
        code, out, _ = run(
            capsys,
            "derive",
            str(DATA / "sigma_possible.txt"),
            "e _||_p s,g",
            "--system",
            "I_p",
        )
        assert code == 0
        assert "not derivable" in out


class TestWitnessAndCnf:
    def test_exchange_failure_csv(self, capsys):
        code, out, _ = run(capsys, "witness", "exchange-failure")
        assert code == 0
        assert out.splitlines()[0] == "A,B,C"
        assert "*" in out

    def test_written_files_load(self, capsys, tmp_path):
        base = str(tmp_path / "fam")
        code, out, _ = run(
            capsys, "witness", "pia-family", "--k", "2", "--m", "2", "--out", base
        )
        assert code == 0
        relation = read_relation(base + ".csv", base + ".domains.json")
        assert relation.size == 11

    def test_parity_and_constancy(self, capsys):
        code, out, _ = run(
            capsys, "witness", "parity", "--x", "A", "--y", "B", "--z", "C"
        )
        assert code == 0 and out.splitlines()[0] == "A,B,C"
        code, out, _ = run(
            capsys, "witness", "constancy", "--attr", "B", "--universe", "B,Z"
        )
        assert code == 0 and "B,Z" == out.splitlines()[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["witness", "pia-family", "--k", "30", "--m", "1"],
            ["witness", "parity", "--x", ",".join(f"A{i}" for i in range(15)),
             "--y", ",".join(f"B{i}" for i in range(15))],
        ],
        ids=["pia-family-k30", "parity-30-attributes"],
    )
    def test_construction_above_the_row_limit_exits_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "more than 65536 distinct rows" in err and "Traceback" not in err

    @pytest.mark.parametrize("grounding", [1, 2])
    def test_exchange_failure_grounding(self, capsys, grounding):
        code, out, _ = run(capsys, "witness", "exchange-failure", "--grounding", str(grounding))
        assert code == 0
        assert out == relation_to_csv(exchange_failure_groundings()[grounding - 1])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pia-family", "--m", "2"], "pia-family needs --k and --m"),
            (["parity", "--x", "A"], "parity needs --x and --y attribute lists"),
            (["constancy", "--attr", "B", "--universe", "A"], "'B' must be part of the universe"),
        ],
        ids=["pia-family-without-k", "parity-without-y", "constancy-attr-outside"],
    )
    def test_witness_missing_setting_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "witness", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unknown_witness_name(self, capsys):
        code, _, err = run(capsys, "witness", "nope")
        assert code == 2

    def test_from_cnf_decides(self, capsys):
        code, out, _ = run(
            capsys, "from-cnf", str(DATA / "example.cnf"), "--decide"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "atom: V,P _||_p C"
        assert lines[-1] == "satisfiable"

    def test_from_cnf_decide_builds_the_reduction_once(self, capsys, monkeypatch):
        build = constructions.cnf_to_relation
        calls = []

        def counted(phi):
            calls.append(phi)
            return build(phi)

        monkeypatch.setattr(constructions, "cnf_to_relation", counted)
        monkeypatch.setattr(cli, "cnf_to_relation", counted)
        code, out, _ = run(capsys, "from-cnf", str(DATA / "example.cnf"), "--decide")
        assert code == 0 and out.splitlines()[-1] == "satisfiable"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["from-cnf", str(DATA / "example.cnf")],
            ["from-cnf", str(DATA / "example.cnf"), "--out", "{out}"],
            ["witness", "exchange-failure"],
            ["witness", "exchange-failure", "--out", "{out}"],
            ["implies", str(DATA / "sigma_possible.txt"), "e _||_p s,g",
             "--counterexample", "{out}.csv"],
        ],
        ids=["from-cnf", "from-cnf-out", "witness", "witness-out", "implies-counterexample"],
    )
    def test_relation_is_rendered_once(self, capsys, monkeypatch, tmp_path, argv):
        render = cli.relation_to_csv
        calls = []

        def counted(relation):
            calls.append(relation)
            return render(relation)

        monkeypatch.setattr(cli, "relation_to_csv", counted)
        out = str(tmp_path / "rel")
        code, _, _ = run(capsys, *(a.format(out=out) for a in argv))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["witness", "exchange-failure", "--out", ""], "--out"),
            (["from-cnf", str(DATA / "example.cnf"), "--out", ""], "--out"),
            (["implies", str(DATA / "sigma_possible.txt"), "e _||_p s,g",
              "--counterexample", ".csv"], "--counterexample"),
            (["implies", str(DATA / "sigma_possible.txt"), "e _||_p s,g",
              "--counterexample", ""], "--counterexample"),
        ],
    )
    def test_empty_output_base_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: the file name base is empty" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_from_cnf_empty_clause_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "empty-clause.cnf"
        path.write_text("p cnf 1 2\n1 0\n0\n")
        code, out, err = run(capsys, "from-cnf", str(path), "--decide")
        assert code == 2 and out == ""
        assert "line 3: empty clause" in err

    @pytest.mark.parametrize("atom", ["A,B _||_p C,D", "A _||_p C", "A,B _||_c C,D"])
    def test_null_row_of_huge_multiplicity(self, capsys, atom):
        # a null row of multiplicity 10^20: inference, the check and the
        # witness all stay independent of the multiplicity
        path = str(DATA / "null_row_1e20.csv")
        code, out, _ = run(capsys, "check", path, atom, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == ("_p" in atom)
        if payload["verdict"]:
            witness = relation_from_csv(payload["witness"])
            assert witness.size == read_relation(path).size
            goal = parse_atom(atom)
            assert check_ia(witness, goal.lhs, goal.rhs)

    def test_oracle_refuses_a_huge_multiplicity_at_once(self, capsys):
        code, out, err = run(
            capsys, "check", str(DATA / "null_row_1e20.csv"), "A _||_p C", "--method", "oracle",
        )
        assert code == 2 and out == ""
        assert "above the oracle bound of 1048576" in err and "Traceback" not in err

    @pytest.mark.parametrize("count", [200_000, 10**20])
    @pytest.mark.parametrize("atom, verdict", [("A _||_p B", True), ("A _||_c B", False)])
    def test_oracle_keeps_a_huge_complete_row_whole(self, capsys, tmp_path, count, atom, verdict):
        # only copies of rows with a null in the atom's columns are expanded,
        # so a complete row of any multiplicity costs the oracle one row
        path = tmp_path / "complete-row.csv"
        path.write_text(f"A,B,#count\n0,0,{count}\n*,1,1\n")
        code, out, _ = run(capsys, "check", str(path), atom, "--method", "oracle", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is verdict
        assert payload["stats"]["groundings"] == (1 if verdict else 2)
        witness = relation_from_csv(payload["witness"])
        assert witness.size == count + 1
        assert dict(zip(witness.rows, witness.counts))[("0", "0")] == count

    def test_from_cnf_clause_count_must_match_the_header(self, capsys, tmp_path):
        path = tmp_path / "short.cnf"
        path.write_text("p cnf 2 3\n1 -2 0\n")
        code, out, err = run(capsys, "from-cnf", str(path), "--decide")
        assert code == 2 and out == ""
        assert "header declares 3 clauses, found 1" in err and "Traceback" not in err

    def test_from_cnf_files(self, capsys, tmp_path):
        base = str(tmp_path / "reduction")
        code, _, _ = run(
            capsys, "from-cnf", str(DATA / "example.cnf"), "--out", base
        )
        assert code == 0
        relation = read_relation(base + ".csv", base + ".domains.json")
        assert relation.size == 36


class TestConfig:
    def test_max_rows_flag_bounds_the_search(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("A _||_c C\nB _||_c C\n")
        target = tmp_path / "w.csv"
        code, out, _ = run(
            capsys, "implies", str(sigma), "A,B _||_c C",
            "--counterexample", str(target), "--max-rows", "1",
        )
        assert code == 0
        assert "no counterexample" in out
        code, out, _ = run(
            capsys, "implies", str(sigma), "A,B _||_c C",
            "--counterexample", str(target), "--max-rows", "4",
        )
        assert code == 0
        assert "counterexample written" in out

    def test_oracle_bound_flag(self, capsys, tmp_path):
        # the bound is fixed at 2^20; 21 null cells over binary domains
        # exceed it, and the oracle refuses instead of enumerating
        path = tmp_path / "wide.csv"
        path.write_text("A,B,#count\n*,0,11\n1,*,10\n")
        domains = tmp_path / "wide.domains.json"
        domains.write_text('{"A": ["0", "1"], "B": ["0", "1"]}')
        code, _, err = run(
            capsys, "check", str(path), "A _||_c B", "--domains", str(domains), "--method", "oracle",
        )
        assert code == 2
        assert "above the oracle bound of 1048576" in err and "Traceback" not in err

    def test_seed_is_not_a_setting(self, capsys):
        # nothing in the runtime is random, so there is no seed to set
        with pytest.raises(SystemExit) as exc:
            main(["closure", str(DATA / "sigma_certain.txt"), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["witness", "exchange-failure", "--max-rows", "1"],
            ["check", TABLE1, "e _||_p s", "--limit", "3"],
            ["check", TABLE1, "e _||_p s", "--max-rows", "99"],
            ["implies", str(DATA / "sigma_certain.txt"), "e _||_c s", "--oracle-bound", "9"],
            ["closure", str(DATA / "sigma_certain.txt"), "--max-rows", "2"],
            ["derive", str(DATA / "sigma_certain.txt"), "e _||_c s", "--domain-size", "3"],
            ["from-cnf", str(DATA / "example.cnf"), "--limit", "2"],
            ["closure", str(DATA / "sigma_certain.txt"), "--config", "c.json"],
            ["check", TABLE1, "e _||_p s", "--output", "json"],
            ["check", TABLE1, "e _||_p s", "--method", "fast"],
            ["closure", str(DATA / "sigma_certain.txt"), "--limit", "-1"],
            ["implies", str(DATA / "sigma_certain.txt"), "e _||_c s", "--limit", "12"],
            ["derive", str(DATA / "sigma_certain.txt"), "e _||_c s", "--limit", "12"],
            ["check", TABLE1, "e _||_c s", "--oracle-bound", "0"],
        ],
    )
    def test_flag_not_read_by_the_command_is_an_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["implies", str(DATA / "sigma_certain.txt"), "e _||_c s", "--max-rows", "0"],
            ["implies", str(DATA / "sigma_certain.txt"), "e _||_c s", "--max-attributes", "0"],
            ["implies", str(DATA / "sigma_certain.txt"), "e _||_c s", "--domain-size", "0"],
            ["implies", str(DATA / "sigma_certain.txt"), "e _||_c s", "--max-attributes", "x"],
        ],
    )
    def test_non_positive_setting_is_an_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_domain_size_below_two_is_a_typed_error(self, capsys):
        code, _, err = run(
            capsys, "implies", str(DATA / "sigma_certain.txt"), "e _||_c s",
            "--domain-size", "1",
        )
        assert code == 2 and "domain size at least 2" in err

    def test_implies_json_keys(self, capsys):
        code, out, _ = run(
            capsys, "implies", str(DATA / "sigma_certain.txt"), "e _||_c s,g", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"atom", "verdict", "completeness", "via", "counterexample"}
        assert data["via"] == "certain-as-plain" and data["completeness"] == "complete"


def _outcome(capsys, argv, monkeypatch):
    """Exit code, stdout and stderr of one ``main`` call.  A ``("sys.argv",
    [...])`` entry calls ``main(None)`` with ``sys.argv`` set to the list."""
    if argv[:1] == ["sys.argv"]:
        monkeypatch.setattr(sys, "argv", argv[1])
        argv = None
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    """``main`` parses with one parser per process, built on its first call."""

    SIGMA = str(DATA / "sigma_certain.txt")
    CALLS = [
        ["check", TABLE1, "e _||_p s", "--json"],
        ["implies", SIGMA, "e _||_c s,g", "--domain-size", "0"],
        ["check", TABLE1, "e _||_c s", "--exit-status"],
        ["implies", SIGMA, "e _||_c s", "--domain-size", "1"],
        ["--help"],
        ["implies", SIGMA, "e _||_c s,g"],
        ["check", TABLE1, "e _||_ nope"],
        ["sys.argv", ["indepkit", "closure", SIGMA, "--universe", "e,s,Q"]],
        ["closure", SIGMA, "--json"],
        ["implies", "--help"],
        ["derive", SIGMA, "e _||_c s,g", "--system", "I_c"],
        ["sys.argv", ["indepkit", "witness", "exchange-failure", "--grounding", "2"]],
        ["derive", SIGMA, "e _||_c s,g", "--json"],
        ["witness", "parity", "--x", "A", "--y", "B", "--pivot", "C"],
        ["witness", "exchange-failure", "--grounding", "3"],
        ["from-cnf", str(DATA / "example.cnf"), "--decide", "--json"],
        ["from-cnf", str(DATA / "example.cnf")],
        ["check", TABLE1, "e _||_p s", "--max-rows", "9"],
        ["implies", str(DATA / "sigma_possible.txt"), "e _||_p s,g", "--counterexample", "cx"],
        ["witness", "pia-family"],
        [],
        ["check", TABLE1, "e _||_p s"],
    ]

    def test_no_state_between_calls(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        fresh = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            fresh.append(_outcome(capsys, argv, monkeypatch))
        cli._parser.cache_clear()
        shared = [_outcome(capsys, argv, monkeypatch) for argv in self.CALLS]
        assert cli._parser.cache_info().misses == 1
        codes = {code for code, _, _ in fresh}
        assert {0, 1, 2, ("SystemExit", 0), ("SystemExit", 2)} <= codes
        for argv, want, got in zip(self.CALLS, fresh, shared):
            assert got == want, argv

    def test_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        for k in range(20):
            assert main(["check", TABLE1, "e _||_p s" if k % 2 else "e _||_c s"]) == 0
        capsys.readouterr()
        assert built.count("indepkit") == 1

    def test_import_builds_no_parser(self):
        # a fresh interpreter, so the count starts before the module loads
        src = str(Path(cli.__file__).parents[1])
        script = (
            "import argparse, contextlib, io, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(parser, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(parser, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import indepkit.cli\n"
            "at_import = len(built), indepkit.cli._parser.cache_info().currsize\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for _ in range(2):\n"
            "        indepkit.cli.main(['witness', 'exchange-failure'])\n"
            "print(*at_import, built.count('indepkit'))\n"
        )
        out = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["0", "0", "1"]
