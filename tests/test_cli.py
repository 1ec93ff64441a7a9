import json

import pytest

from monorders import cli
from monorders.cli import EXIT_DISAGREEMENT, EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, main

SEC52_TEXT = "4\n0 0 0 0\n1 0 1 0\n1 1 0 0\n2 1 1 0\n"
NON_ORDER_TEXT = "3\n0 0 0\n0 0 0\n1 0 0\n"


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
        assert "lattice: no" in capsys.readouterr().out

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

    @pytest.mark.parametrize("argv", [["census", "0"], ["census", "3", "--bound", "-1"]])
    def test_bad_parameters_exit_two(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: census ")
        assert captured.err.count("\n") == 1
