import argparse
import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import monorders
from monorders import DEFAULT_SEARCH_CAP, LevelMatrix, cli
from monorders.cli import EXIT_DISAGREEMENT, EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, main
from monorders.levelio import level_to_text

from conftest import SEC52, random_order

SEC52_TEXT = level_to_text(SEC52)
NON_ORDER_TEXT = "3\n0 0 0\n0 0 0\n1 0 0\n"
DIAGONAL_TEXT = "2\n1 0\n0 0\n"
NON_ORDER_ERR = "error: input level is not an order (m[3,1] > m[3,2] + m[2,1] at (i,j,k)=(3,2,1))\n"


@pytest.fixture
def sec52_file(tmp_path):
    path = tmp_path / "sec52.lvl"
    path.write_text(SEC52_TEXT)
    return str(path)


@pytest.fixture
def non_order_file(tmp_path):
    path = tmp_path / "bad.lvl"
    path.write_text(NON_ORDER_TEXT)
    return str(path)


def write_level(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_order_exit_zero(self, sec52_file, capsys):
        assert main(["check", sec52_file]) == EXIT_OK
        assert "order: yes" in capsys.readouterr().out

    def test_non_order_exit_one_with_witness(self, non_order_file, capsys):
        assert main(["check", non_order_file]) == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "order: no" in out
        assert "(i,j,k)=(3,2,1)" in out

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = write_level(tmp_path, "ragged.lvl", "2\n0 0\n1\n")
        assert main(["check", path]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["1\n\u00b2\n", "1\n" + "9" * 5000 + "\n", '{"n": 1, "m": [[' + "9" * 5000 + "]]}"],
        ids=["superscript", "long-text", "long-json"],
    )
    def test_bad_integer_exit_two(self, tmp_path, capsys, text):
        path = write_level(tmp_path, "bad.lvl", text)
        assert main(["check", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_deep_json_nesting_exit_two(self, tmp_path, capsys):
        depth = 100_000
        path = write_level(tmp_path, "deep.json", '{"n": 1, "m": ' + "[" * depth + "]" * depth + "}")
        assert main(["check", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_json_output(self, non_order_file, capsys):
        main(["check", non_order_file, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"is_order": False, "violation": [3, 2, 1]}


class TestClassify:
    def test_sec52_with_oracle_agrees(self, sec52_file, capsys):
        assert main(["classify", sec52_file, "--oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gorenstein: yes" in out
        assert "bass: no" in out
        assert "oracle bass: no (agrees)" in out

    def test_period_two_report(self, tmp_path, capsys):
        path = write_level(tmp_path, "p2.lvl", "2\n0 0\n2 0\n")
        assert main(["classify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "bass: yes (eichler_period_two)" in out
        assert "eichler: period 2, invariant (1,1), a=2" in out

    def test_zero_matrix_hereditary(self, tmp_path, capsys):
        path = write_level(tmp_path, "zero.lvl", "4\n" + "0 0 0 0\n" * 4)
        assert main(["classify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hereditary: yes" in out
        assert "eichler: period 1, invariant (4)" in out

    def test_non_order_exit_one(self, non_order_file, capsys):
        assert main(["classify", non_order_file]) == EXIT_NEGATIVE
        assert "order: no" in capsys.readouterr().out

    def test_json_triangle_violation(self, non_order_file, capsys):
        # a triple witness is written as a list; a diagonal one is an int
        assert main(["classify", non_order_file, "--format", "json"]) == EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_order"] is False
        assert payload["witnesses"]["order_violation"] == [3, 2, 1]

    def test_json_matches_text_verdicts(self, sec52_file, capsys):
        main(["classify", sec52_file, "--format", "json", "--oracle"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_order"] is True
        assert payload["is_gorenstein"] is True
        assert payload["is_bass"] is False
        assert payload["eichler"] is None
        assert payload["oracle"]["agrees"] is True
        assert payload["oracle"]["is_bass"] is False

    def test_oracle_disagreement_exit_three(self, sec52_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "bass_oracle", lambda level, budget: (True, None))
        assert main(["classify", sec52_file, "--oracle"]) == EXIT_DISAGREEMENT
        assert "disagree" in capsys.readouterr().err


class TestDual:
    def test_text(self, tmp_path, capsys):
        path = write_level(tmp_path, "h.lvl", "2\n0 0\n1 0\n")
        assert main(["dual", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "raw dual" in out and "normalized dual" in out

    def test_json(self, tmp_path, capsys):
        path = write_level(tmp_path, "h.lvl", "2\n0 0\n1 0\n")
        main(["dual", path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"raw": [[0, -1], [0, 0]], "normalized": [[0, 0], [0, 1]]}

    def test_rejects_non_order(self, non_order_file):
        assert main(["dual", non_order_file]) == EXIT_INPUT


class TestProjective:
    def test_projective_column(self, tmp_path, capsys):
        path = write_level(tmp_path, "h.lvl", "2\n0 0\n1 0\n")
        assert main(["projective", path, "--type", "0,1"]) == EXIT_OK
        assert "projective: yes (column 1, shift c=0)" in capsys.readouterr().out

    def test_not_projective(self, tmp_path, capsys):
        path = write_level(tmp_path, "a2.lvl", "2\n0 0\n2 0\n")
        assert main(["projective", path, "--type", "0 1"]) == EXIT_NEGATIVE
        assert "projective: no" in capsys.readouterr().out

    def test_non_lattice(self, tmp_path, capsys):
        path = write_level(tmp_path, "zero.lvl", "2\n0 0\n0 0\n")
        assert main(["projective", path, "--type", "0,1"]) == EXIT_NEGATIVE
        assert capsys.readouterr() == ("lattice: no\nviolation: m[2,1] + l[1] < l[2]\n", "")
        assert main(["projective", path, "--type", "0,1", "--format", "json"]) == EXIT_NEGATIVE
        assert capsys.readouterr() == (
            '{"is_lattice": false, "is_projective": false, "lattice_violation": [2, 1]}\n',
            "",
        )

    def test_normalizes_input_and_type_together(self, tmp_path, capsys):
        # conjugate of the hereditary order; the type moves with the shifts
        # (0, 3), so (0, -2) lands on the projective column (0, 1)
        path = write_level(tmp_path, "c.lvl", "2\n0 3\n-2 0\n")
        assert main(["projective", path, "--type", "0,-2", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_projective"] is True
        assert payload["normalized_level"] == [[0, 0], [1, 0]]

    def test_negative_exponents_are_given_with_an_equals_sign(self, tmp_path, capsys):
        # argparse reads a separate value that starts with "-" as an option, so
        # `--type -1,2,0` is a usage error and `--type=-1,2,0` the way to pass it
        path = write_level(tmp_path, "p.lvl", "3\n0 0 0\n3 0 3\n1 1 0\n")
        assert main(["projective", path, "--type=-1,2,0"]) == EXIT_OK
        assert capsys.readouterr() == ("lattice: yes\nprojective: yes (column 1, shift c=-1)\n", "")
        assert main(["projective", path, "--type=-1,2,0", "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["witness"] == [1, -1]
        with pytest.raises(SystemExit) as exit_info:
            main(["projective", path, "--type", "-1,2,0"])
        assert exit_info.value.code == EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_bad_vector(self, tmp_path, capsys):
        path = write_level(tmp_path, "h.lvl", "2\n0 0\n1 0\n")
        assert main(["projective", path, "--type", "0,1,2"]) == EXIT_INPUT
        assert main(["projective", path, "--type", "zero,one"]) == EXIT_INPUT
        capsys.readouterr()
        # int() would read "1_0" as 10; a level file refuses it, and so does --type
        assert main(["projective", path, "--type", "0,1_0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: type vector must be integers, got '0,1_0'\n"

    @pytest.mark.parametrize("raw", ["9" * 4300 + ",x", "x," + "9" * 4300])
    def test_a_non_integer_is_reported_ahead_of_an_over_long_one(self, raw, tmp_path, capsys):
        # every token is tested before any is parsed, whichever side the long one is on
        path = write_level(tmp_path, "h.lvl", "2\n0 0\n1 0\n")
        assert main(["projective", path, f"--type={raw}"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: type vector must be integers, got {raw!r}\n"

    def test_help_shows_how_to_pass_a_negative_first_exponent(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exit_info:
            main(["projective", "--help"])
        assert exit_info.value.code == EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())
        assert "starts with a negative exponent with '=', as in --type=-1,2,0" in help_text


class TestNonOrderRefusal:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "text, err",
        [
            (NON_ORDER_TEXT, NON_ORDER_ERR),
            (DIAGONAL_TEXT, "error: input level is not an order (diagonal entry m[1,1] is nonzero)\n"),
        ],
        ids=["triangle", "diagonal"],
    )
    @pytest.mark.parametrize(
        "command", [["dual"], ["projective", "--type", "0,0,0"], ["overorders"]], ids=lambda c: c[0]
    )
    def test_exact_message(self, command, text, err, fmt, tmp_path, capsys):
        path = write_level(tmp_path, "bad.lvl", text)
        assert main([command[0], path, *command[1:], "--format", fmt]) == EXIT_INPUT
        assert capsys.readouterr() == ("", err)

    def test_comes_before_the_type_vector(self, non_order_file, capsys):
        assert main(["projective", non_order_file, "--type", "zero,one"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", NON_ORDER_ERR)

    def test_comes_before_the_budget_env(self, non_order_file, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV, "lots")
        assert main(["overorders", non_order_file]) == EXIT_INPUT
        assert capsys.readouterr() == ("", NON_ORDER_ERR)


class TestLongEntries:
    # a canonical entry is a sum of three input entries: 4,300 nines would
    # print as a 4,301-digit sum, which str() refuses, so they are refused up front
    NINES = "9" * 4300

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_classify_refuses_them_in_either_file_format(self, fmt, tmp_path, capsys):
        n9 = self.NINES
        text = write_level(tmp_path, "long.lvl", f"2\n0 {n9}\n{n9} 0\n")
        data = write_level(tmp_path, "long.json", f'{{"n": 2, "m": [[0, {n9}], [{n9}, 0]]}}')
        for path, message in [
            (text, "line 2, column 3: integer has too many digits"),
            (data, "invalid JSON: integer has too many digits"),
        ]:
            assert main(["classify", path, "--format", fmt]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_projective_refuses_them_in_the_type(self, tmp_path, capsys):
        # the type moves with the shifts (0, 5): 4,300 nines plus 5 has 4,301 digits
        path = write_level(tmp_path, "five.lvl", "2\n0 5\n0 0\n")
        argv = ["projective", path, "--type", f"{self.NINES},{self.NINES}", "--format", "json"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == "error: integer has too many digits\n"
        long_file = write_level(tmp_path, "long.lvl", f"2\n0 {self.NINES}\n{self.NINES} 0\n")
        assert main(["projective", long_file, "--type", f"0,{self.NINES}", "--format", "json"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: line 2, column 3: integer has too many digits\n"

    def test_one_digit_fewer_is_classified(self, tmp_path, capsys):
        n9 = self.NINES[1:]
        path = write_level(tmp_path, "long.lvl", f"2\n0 {n9}\n{n9} 0\n")
        assert main(["classify", path, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["canonical"] == [[0, 0], [2 * int(n9), 0]]


class TestInterpreterDigitLimit:
    # under an interpreter digit limit L below 4,300, integers of more than
    # L - 1 digits are refused, and a size of more than L digits is refused
    # without being printed
    @pytest.mark.parametrize(
        "limit,argv,message",
        [
            ("700", ["check", "LONG_TEXT"], "line 2, column 3: integer has too many digits"),
            ("700", ["check", "LONG_JSON"], "invalid JSON: integer has too many digits"),
            ("640", ["census", "40", "--bound", "9"],
             "census raw space of more than 640 digits exceeds the budget 10000000"),
            # no limit (0) or a higher one: L stays 4,300
            ("0", ["census", "200", "--bound", "1"],
             "census raw space of more than 4300 digits exceeds the budget 10000000"),
            ("10000", ["census", "200", "--bound", "1"],
             "census raw space of more than 4300 digits exceeds the budget 10000000"),
        ],
    )
    def test_refused_with_exit_two(self, limit, argv, message, tmp_path):
        digits = "9" * 1000
        files = {
            "LONG_TEXT": write_level(tmp_path, "long.lvl", f"2\n0 {digits}\n0 0\n"),
            "LONG_JSON": write_level(tmp_path, "long.json", f'{{"n": 2, "m": [[0, {digits}], [0, 0]]}}'),
        }
        done = self.run_cli(limit, [files.get(arg, arg) for arg in argv])
        assert done.returncode == EXIT_INPUT
        assert done.stdout == ""
        assert done.stderr == f"error: {message}\n"

    def test_one_digit_fewer_is_classified(self, tmp_path):
        # L - 1 = 699 nines: the canonical entry 2 * n9 has 700 digits and still prints
        n9 = "9" * 699
        path = write_level(tmp_path, "edge.lvl", f"2\n0 {n9}\n{n9} 0\n")
        done = self.run_cli("700", ["classify", path, "--format", "json"])
        assert done.returncode == EXIT_OK
        assert json.loads(done.stdout)["canonical"] == [[0, 0], [2 * int(n9), 0]]
        longer = write_level(tmp_path, "long.lvl", f"2\n0 9{n9}\n{n9} 0\n")
        done = self.run_cli("700", ["classify", longer, "--format", "json"])
        assert done.returncode == EXIT_INPUT
        assert done.stderr == "error: line 2, column 3: integer has too many digits\n"

    @staticmethod
    def run_cli(limit, argv):
        src = str(Path(monorders.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit, PYTHONPATH=src)
        env.pop(cli.BUDGET_ENV, None)
        return subprocess.run(
            [sys.executable, "-m", "monorders.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )


class TestOverorders:
    def test_count_and_dump(self, tmp_path, capsys):
        path = write_level(tmp_path, "h.lvl", "2\n0 0\n1 0\n")
        assert main(["overorders", path, "--dump"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "overorders: 3" in out
        assert out.count("[") == 3

    def test_budget_flag(self, tmp_path, capsys):
        path = write_level(tmp_path, "big.lvl", "2\n0 0\n3 0\n")
        assert main(["overorders", path, "--budget", "3"]) == EXIT_INPUT
        assert "budget" in capsys.readouterr().err

    def test_budget_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV, "3")
        path = write_level(tmp_path, "big.lvl", "2\n0 0\n3 0\n")
        assert main(["overorders", path]) == EXIT_INPUT

    def test_bad_budget_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV, "lots")
        path = write_level(tmp_path, "h.lvl", "2\n0 0\n1 0\n")
        assert main(["overorders", path]) == EXIT_INPUT

    def test_json(self, tmp_path, capsys):
        path = write_level(tmp_path, "h.lvl", "2\n0 0\n1 0\n")
        main(["overorders", path, "--format", "json", "--dump"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3
        assert len(payload["members"]) == 3


class TestTextJsonAgreement:
    @pytest.mark.parametrize(
        "text",
        [SEC52_TEXT, "2\n0 0\n2 0\n", "3\n0 0 0\n1 0 0\n1 1 0\n"],
    )
    def test_classify_verdicts_match_between_formats(self, tmp_path, capsys, text):
        path = write_level(tmp_path, "m.lvl", text)
        main(["classify", path])
        plain = capsys.readouterr().out
        main(["classify", path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        for field in ("gorenstein", "hereditary", "bass"):
            expected = "yes" if payload[f"is_{field}"] else "no"
            assert f"{field}: {expected}" in plain
        assert ("eichler: no" in plain) == (payload["eichler"] is None)

    def test_census_runs_are_byte_identical(self, capsys):
        main(["census", "3", "--bound", "2", "--format", "json"])
        first = capsys.readouterr().out
        main(["census", "3", "--bound", "2", "--format", "json"])
        assert capsys.readouterr().out == first


class TestSearchCap:
    def test_classify_cap_exceeded(self, tmp_path, capsys):
        path = write_level(tmp_path, "m.lvl", "3\n0 0 0\n1 0 0\n1 1 0\n")
        assert main(["classify", path, "--cap", "2"]) == EXIT_INPUT
        assert "cap" in capsys.readouterr().err

    def test_classify_cap_comes_before_the_oracle_budget(self, tmp_path, capsys):
        path = write_level(tmp_path, "m.lvl", "3\n0 0 0\n1 0 0\n1 1 0\n")
        assert main(["classify", path, "--oracle", "--cap", "2", "--budget", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: canonical form of size 3 exceeds the cap 2\n"
        assert main(["classify", path, "--oracle", "--budget", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: overorder search size 8 exceeds the budget 1\n"

    def test_census_cap_refuses_before_enumerating(self, capsys, monkeypatch):
        def search(*args):
            raise AssertionError("the census box was searched or its row slicer built")

        # the package exports the census function under the submodule's name
        census_module = importlib.import_module("monorders.census")
        monkeypatch.setattr(census_module, "_orders_in_box", search)
        monkeypatch.setattr(census_module, "_unflatten", search)
        assert main(["census", "5000", "--bound", "0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: canonical form of size 5000 exceeds the cap 8\n"

    def test_census_cap_refuses_before_any_orbit_scan(self, capsys, monkeypatch):
        def scan(*args):
            raise AssertionError("an orbit, an orbit table or a block test was built")

        # the census module, not the census function that the package exports under its name
        census_module = importlib.import_module("monorders.census")
        monkeypatch.setattr(census_module, "_orbit_tables", scan)
        for argv, size, cap in ((["census", "4", "--cap", "3"], 4, 3), (["census", "5000", "--bound", "0"], 5000, 8)):
            assert main(argv) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: canonical form of size {size} exceeds the cap {cap}\n"


class TestCensus:
    def test_summary(self, capsys):
        assert main(["census", "2", "--bound", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "conjugacy classes: 3" in out

    def test_size_one(self, capsys):
        assert main(["census", "1"]) == EXIT_OK
        assert "conjugacy classes: 1" in capsys.readouterr().out

    def test_families_table(self, capsys):
        assert main(
            ["census", "4", "--bound", "2", "--filter", "gorenstein", "--families"]
        ) == EXIT_OK
        out = capsys.readouterr().out
        for index in range(1, 8):
            assert f"family {index}" in out
        assert "UNMATCHED" not in out

    def test_an_unmatched_gorenstein_class_is_printed(self, capsys, monkeypatch):
        # every Gorenstein class of the table matches a family, so a match
        # that fails on one class is what shows the unmatched line
        match_family = cli.match_family
        classes = monorders.census(monorders.CensusQuery(4, 1)).classes
        first = next(c.canonical for c in classes if c.report.is_gorenstein)
        monkeypatch.setattr(cli, "match_family", lambda level: None if level == first else match_family(level))
        assert main(["census", "4", "--bound", "1", "--families"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert f"  {cli.format_level_compact(first)} -> UNMATCHED" in lines
        assert sum(line.endswith("-> UNMATCHED") for line in lines) == 1
        assert "  [0 0 0 0; 1 0 0 0; 1 1 0 0; 1 1 1 0] -> family 5 (a=1)" in lines
        assert main(["census", "4", "--bound", "1", "--families", "--format", "json"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[:-1]
        unmatched = [line for line in lines if json.loads(line)["report"]["is_gorenstein"] and '"family": null' in line]
        assert [json.loads(line)["canonical"] for line in unmatched] == [first.to_lists()]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_missing_family_table_exits_two(self, fmt, tmp_path, capsys, monkeypatch):
        # an install without the package data: nothing is printed before the refusal
        families = importlib.import_module("monorders.families")
        monkeypatch.setattr(families, "files", lambda package: tmp_path)
        families.load_families.cache_clear()
        try:
            assert main(["census", "4", "--bound", "1", "--families", "--format", fmt]) == EXIT_INPUT
            captured = capsys.readouterr()
            with pytest.raises(monorders.MonordersError, match="cannot read the family table"):
                monorders.match_family(LevelMatrix.zero(4))
        finally:
            families.load_families.cache_clear()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read the family table: ")
        assert captured.err.count("\n") == 1

    def test_census_cap_help_matches_classify(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        for command in ("classify", "census"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert f"--cap CAP canonical-form size cap (default {DEFAULT_SEARCH_CAP})" in text

    def test_families_requires_size_four(self, capsys):
        assert main(["census", "3", "--families"]) == EXIT_INPUT

    def test_json_lines_match_text_verdicts(self, capsys):
        main(["census", "2", "--bound", "2", "--format", "json"])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        summary = lines[-1]["summary"]
        classes = lines[:-1]
        assert summary["classes"] == 3
        assert [c["report"]["is_gorenstein"] for c in classes] == [True, True, True]
        assert [c["report"]["is_hereditary"] for c in classes] == [True, True, False]

    def test_dump_lists_classes(self, capsys):
        main(["census", "2", "--bound", "1", "--dump"])
        out = capsys.readouterr().out
        assert "[0 0; 1 0]" in out

    def test_budget(self, capsys):
        assert main(["census", "4", "--bound", "3", "--budget", "100"]) == EXIT_INPUT

    def test_families_build_no_orbit(self, capsys, monkeypatch):
        # the package exports the census function under the submodule's name
        census_module = importlib.import_module("monorders.census")
        calls = []
        orbit_tables = census_module._orbit_tables

        def counting(n):
            # each call of the normalizer it returns starts one orbit
            normalize, *tables = orbit_tables(n)
            return (lambda flat: calls.append(flat) or normalize(flat), *tables)

        monkeypatch.setattr(census_module, "_orbit_tables", counting)
        matched = []
        monkeypatch.setattr(cli, "match_family", lambda level: matched.append(level))
        main(["census", "4", "--bound", "2", "--format", "json"])
        census_scans = len(calls)
        capsys.readouterr()
        main(["census", "4", "--bound", "2", "--format", "json", "--families"])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert census_scans > 0
        assert len(calls) == 2 * census_scans
        # only the Gorenstein classes are matched, each once
        gorenstein = [LevelMatrix.from_rows(c["canonical"]) for c in lines if c.get("report", {}).get("is_gorenstein")]
        assert gorenstein and matched == gorenstein

    @pytest.mark.parametrize("argv", [["census", "0"], ["census", "3", "--bound", "-1"]])
    def test_bad_parameters_exit_two(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: census ")
        assert captured.err.count("\n") == 1


class TestHugeSearchSizes:
    @staticmethod
    def _fives(tmp_path):
        # the 100x100 level with every off-diagonal entry 5
        n = 100
        text = f"{n}\n" + "".join(" ".join("0" if i == j else "5" for j in range(n)) + "\n" for i in range(n))
        return write_level(tmp_path, "fives.lvl", text)

    @pytest.mark.parametrize(
        "argv,what",
        [
            (["census", "200", "--bound", "1"], "census raw space"),
            (["census", "100000", "--bound", "1"], "census raw space"),
            (["overorders", "LEVEL"], "overorder search size"),
            (["classify", "LEVEL", "--oracle", "--cap", "200"], "overorder search size"),
            (["classify", "LEVEL", "--oracle", "--cap", "200", "--format", "json"], "overorder search size"),
        ],
    )
    def test_refused_without_printing_the_size(self, argv, what, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
        # 11**4950 has 5,155 digits; 2**(99999**2) has about 3e9
        path = self._fives(tmp_path)
        argv = [path if arg == "LEVEL" else arg for arg in argv]
        start = time.perf_counter()
        assert main(argv) == EXIT_INPUT
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} of more than 4300 digits exceeds the budget 10000000\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_classified_within_a_second_when_the_cap_allows(self, fmt, tmp_path, capsys):
        # every index is interchangeable, so the canonical search builds one child per depth
        start = time.perf_counter()
        assert main(["classify", self._fives(tmp_path), "--cap", "200", "--format", fmt]) == EXIT_OK
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.err == ""
        # the canonical form is the first-row normalization: row 2 reads 10, 0, 5, ...
        if fmt == "json":
            assert json.loads(captured.out)["canonical"][1][:3] == [10, 0, 5]
        else:
            assert "\norder: yes\ncanonical:\n" in captured.out

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
    def test_a_digit_limit_lowered_at_run_time_applies(self, capsys, monkeypatch):
        # the printable cap is cached per digit limit L: after a refusal at
        # L = 4,300, a 1,522-digit raw space must still be refused unprinted at L = 700
        monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert main(["census", "200", "--bound", "1"]) == EXIT_INPUT
            assert capsys.readouterr().err == (
                "error: census raw space of more than 4300 digits exceeds the budget 10000000\n"
            )
            sys.set_int_max_str_digits(700)
            assert main(["census", "40", "--bound", "9"]) == EXIT_INPUT
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().err == (
            "error: census raw space of more than 700 digits exceeds the budget 10000000\n"
        )

    def test_printable_sizes_are_still_printed(self, capsys):
        assert main(["census", "4", "--bound", "3", "--budget", "100"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: census raw space 262144 exceeds the budget 100\n"


class TestFlagValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "3", "--budget", "0"],
            ["census", "3", "--cap", "0"],
            ["classify", "LEVEL", "--cap", "-1"],
            ["classify", "LEVEL", "--oracle", "--budget", "0"],
            ["overorders", "LEVEL", "--budget", "-5"],
            ["overorders", "LEVEL", "--budget", "lots"],
        ],
    )
    def test_below_one_is_rejected_at_parse_time(self, argv, sec52_file, capsys):
        argv = [sec52_file if arg == "LEVEL" else arg for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be a positive integer, got {argv[-1]!r}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [["classify", "LEVEL"], ["overorders", "LEVEL"], ["census", "3"]])
    def test_budget_env_is_read_unless_the_flag_is_given(self, argv, sec52_file, capsys, monkeypatch):
        # classify reads it even without --oracle
        monkeypatch.setenv(cli.BUDGET_ENV, "lots")
        argv = [sec52_file if arg == "LEVEL" else arg for arg in argv]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {cli.BUDGET_ENV} must be a positive integer, got 'lots'\n"
        assert main(argv + ["--budget", "1000000"]) == EXIT_OK


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    level = random_order(random.Random(8), 8, 5)
    path = write_level(tmp_path, "m8.lvl", f"8\n{level}\n")
    src = str(Path(monorders.__file__).resolve().parent.parent)
    runs = [
        ["census", "4", "--bound", "2", "--families", "--format", "json"],
        ["classify", path, "--format", "json"],
    ]
    for argv in runs:
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            env.pop(cli.BUDGET_ENV, None)
            done = subprocess.run(
                [sys.executable, "-m", "monorders.cli", *argv],
                env=env,
                capture_output=True,
                check=True,
                timeout=120,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1, argv


class TestParserReuse:
    # main builds its parser on the first call in a process and reuses it

    def test_a_filter_does_not_carry_over(self, capsys):
        assert main(["census", "3"]) == EXIT_OK
        unfiltered = capsys.readouterr().out
        assert main(["census", "3", "--filter", "bass"]) == EXIT_OK
        assert "filters=bass" in capsys.readouterr().out
        assert main(["census", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "filters=" not in out and "classes selected" not in out
        assert out == unfiltered

    def test_a_parse_error_does_not_carry_over(self, non_order_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", non_order_file, "--format", "yaml"])
        assert exit_info.value.code == EXIT_INPUT
        assert "invalid choice: 'yaml'" in capsys.readouterr().err
        assert main(["check", non_order_file]) == EXIT_NEGATIVE
        captured = capsys.readouterr()
        assert captured.out.startswith("order: no\n") and captured.err == ""

    def test_help_twice(self, capsys):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["--help"])
            assert exit_info.value.code == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == cli.build_parser().format_help()

    def test_each_call_reads_its_own_budget_env(self, tmp_path, capsys, monkeypatch):
        path = write_level(tmp_path, "big.lvl", "2\n0 0\n3 0\n")
        monkeypatch.setenv(cli.BUDGET_ENV, "3")
        assert main(["overorders", path]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: overorder search size 4 exceeds the budget 3\n"
        monkeypatch.setenv(cli.BUDGET_ENV, "4")
        assert main(["overorders", path]) == EXIT_OK
        assert capsys.readouterr().out == "overorders: 10 (search bound 4)\n"

    def test_no_parser_is_built_after_the_first_call(self, sec52_file, capsys, monkeypatch):
        main(["check", sec52_file])
        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda *a, **k: builds.append(2) or init(*a, **k))
        for _ in range(20):
            assert main(["check", sec52_file]) == EXIT_OK
        capsys.readouterr()
        assert builds == []

    def test_import_builds_no_parser(self, sec52_file):
        # counts parsers and subparsers; the first main call builds all seven
        code = (
            "import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)\n"
            "import monorders.cli\n"
            "print(len(built))\n"
            "monorders.cli.main(['check', sys.argv[1]])\n"
            "print(len(built))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(monorders.__file__).resolve().parent.parent))
        done = subprocess.run(
            [sys.executable, "-c", code, sec52_file], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\norder: yes\n7\n", "")

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


def _parse_twice_main(argv):
    # main as it was when the top-level parser read every line: it picks the
    # subcommand and hands the rest to that subcommand's parser
    args = cli._parser().parse_args(argv)
    try:
        return args.func(args)
    except monorders.MonordersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _outcome(run, argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneParsePerLine:
    # main parses a line once, with its subcommand's parser, and hands every other
    # line to the top-level parser; the golden file leaves usage errors out, so
    # these lines pin them, on every Python of the CI matrix

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            ["--he"],
            ["-h", "classify", "LEVEL"],
            ["classify", "LEVEL", "-h"],
            ["classify", "LEVEL", "--help"],
            ["nope", "LEVEL"],
            ["class", "LEVEL"],
            *(
                [command, "-h"]
                for command in ("check", "classify", "dual", "projective", "overorders", "census")
            ),
            ["check", "LEVEL", "--form", "json"],
            ["classify", "LEVEL", "--format=json"],
            ["dual", "LEVEL", "--he"],
            ["--", "check", "LEVEL"],
            ["check", "--", "LEVEL"],
            ["check", "LEVEL", "--"],
            ["check", "LEVEL", "extra"],
            ["check", "LEVEL", "--nope"],
            ["check", "LEVEL", "--cap", "3"],
            ["check", "LEVEL", "extra", "--format", "yaml"],
            ["check", "LEVEL", "--format"],
            ["check", "LEVEL", "--format", "yaml"],
            ["--format", "json", "check", "LEVEL"],
            ["census", "3", "--filter", "nope"],
            ["classify", "LEVEL", "--cap", "x"],
            ["census", "3", "--budget", "0"],
            ["census", "x"],
            ["census", "3", "4"],
            ["classify"],
            ["projective", "LEVEL"],
            ["projective", "LEVEL", "--type", "-1,0,0,0"],
            ["projective", "LEVEL", "--type=-1,0,0,0"],
            ["census", "3", "--filter", "bass", "--filter", "gorenstein", "--format", "json"],
            ["classify", "LEVEL", "--oracle", "--oracle", "--format", "json"],
            ["classify", "--format", "json", "--oracle", "LEVEL"],
            ["census", "--bound", "2", "--dump", "3"],
            ["overorders", "LEVEL", "--dump"],
            ["check", "missing.lvl"],
            ["census", "3", "--families"],
        ],
        ids=lambda argv: " ".join(argv) or "(no arguments)",
    )
    def test_main_answers_as_the_parse_twice_path(self, argv, sec52_file, capsys, monkeypatch):
        monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
        argv = [sec52_file if arg == "LEVEL" else arg for arg in argv]
        expected = _outcome(_parse_twice_main, argv, capsys)
        assert _outcome(main, argv, capsys) == expected

    @pytest.mark.parametrize("make", [tuple, iter], ids=["tuple", "iterator"])
    def test_argv_may_be_any_iterable(self, make, sec52_file, capsys):
        argv = ["classify", sec52_file, "--format", "json"]
        expected = _outcome(_parse_twice_main, make(argv), capsys)
        assert _outcome(main, make(argv), capsys) == expected

    @pytest.mark.parametrize("argv", [["check", "LEVEL"], ["check", "LEVEL", "extra"], ["--help"]])
    def test_main_reads_sys_argv_when_given_none(self, argv, sec52_file, capsys, monkeypatch):
        argv = [sec52_file if arg == "LEVEL" else arg for arg in argv]
        expected = _outcome(_parse_twice_main, argv, capsys)
        monkeypatch.setattr(sys, "argv", ["monorders", *argv])
        assert _outcome(lambda _: main(), None, capsys) == expected

    def test_the_top_level_parser_reads_only_the_lines_it_words(self, sec52_file, capsys, monkeypatch):
        parser = cli._parser()
        calls = []
        parse_known_args = parser.parse_known_args
        monkeypatch.setattr(parser, "parse_known_args", lambda *a, **k: calls.append(a) or parse_known_args(*a, **k))
        for argv in (
            ["check", sec52_file],
            ["classify", sec52_file, "--oracle", "--format", "json"],
            ["dual", sec52_file],
            ["projective", sec52_file, "--type", "0,1,1,2"],
            ["overorders", sec52_file, "--dump"],
            ["census", "3", "--filter", "bass"],
        ):
            assert main(argv) in (EXIT_OK, EXIT_NEGATIVE)
        capsys.readouterr()
        assert calls == []
        for argv in (["check", sec52_file, "extra"], ["--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            assert len(calls) == 1
            calls.clear()
        capsys.readouterr()
