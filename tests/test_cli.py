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
from monorders import LevelMatrix, cli
from monorders.cli import EXIT_DISAGREEMENT, EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, main

from conftest import random_order

SEC52_TEXT = "4\n0 0 0 0\n1 0 1 0\n1 1 0 0\n2 1 1 0\n"
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
            raise AssertionError("the census box was searched")

        # the package exports the census function under the submodule's name
        monkeypatch.setattr(importlib.import_module("monorders.census"), "_orders_in_box", search)
        assert main(["census", "5000", "--bound", "0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: canonical form of size 5000 exceeds the cap 8\n"

    def test_census_cap_refuses_before_any_orbit_scan(self, capsys, monkeypatch):
        def scan(*args):
            raise AssertionError("a conjugate was built")

        monkeypatch.setattr("monorders.levels._conjugate_rows", scan)
        assert main(["census", "4", "--cap", "3"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: canonical form of size 4 exceeds the cap 3\n"


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
        for module in (census_module, importlib.import_module("monorders.levels")):
            conjugates = module._conjugates

            def counting(*args, conjugates=conjugates):
                calls.append(args)
                return conjugates(*args)

            monkeypatch.setattr(module, "_conjugates", counting)
        matched = []
        monkeypatch.setattr(cli, "match_family", lambda level, family: matched.append(level))
        main(["census", "4", "--bound", "2", "--format", "json"])
        census_scans = len(calls)
        capsys.readouterr()
        main(["census", "4", "--bound", "2", "--format", "json", "--families"])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert census_scans > 0
        assert len(calls) == 2 * census_scans
        # only the Gorenstein classes are matched, each against all seven families
        gorenstein = [LevelMatrix.from_rows(c["canonical"]) for c in lines if c.get("report", {}).get("is_gorenstein")]
        assert gorenstein and matched == [level for level in gorenstein for _ in range(7)]

    @pytest.mark.parametrize("argv", [["census", "0"], ["census", "3", "--bound", "-1"]])
    def test_bad_parameters_exit_two(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: census ")
        assert captured.err.count("\n") == 1


class TestHugeSearchSizes:
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
        n = 100
        text = f"{n}\n" + "".join(" ".join("0" if i == j else "5" for j in range(n)) + "\n" for i in range(n))
        path = write_level(tmp_path, "fives.lvl", text)
        argv = [path if arg == "LEVEL" else arg for arg in argv]
        start = time.perf_counter()
        assert main(argv) == EXIT_INPUT
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} of more than 4300 digits exceeds the budget 10000000\n"

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
