import sys
from itertools import chain

import pytest

from monorders import (
    LevelMatrix,
    ParseError,
    level_to_json_obj,
    level_to_text,
    load_level,
    parse_level,
    parse_level_json,
    parse_level_text,
)
from monorders.levelio import _INT


def test_text_round_trip():
    m = LevelMatrix.from_rows([[0, -1, 2], [1, 0, 0], [3, 1, 0]])
    assert parse_level_text(level_to_text(m)) == m


def test_comments_and_blank_lines():
    text = """
    # fixture: hereditary 2x2
    2

    0 0   # first row
    1 0
    """
    assert parse_level(text) == LevelMatrix.from_rows([[0, 0], [1, 0]])


def test_ragged_row_rejected_with_line():
    with pytest.raises(ParseError) as info:
        parse_level_text("2\n0 0\n1\n")
    assert info.value.line == 3


def test_wrong_row_count():
    with pytest.raises(ParseError):
        parse_level_text("3\n0 0 0\n0 0 0\n")


def test_bad_token_reports_position():
    with pytest.raises(ParseError) as info:
        parse_level_text("2\n0 x\n1 0\n")
    assert info.value.line == 2
    assert info.value.column == 3


def test_superscript_digit_is_not_an_integer():
    with pytest.raises(ParseError) as info:
        parse_level_text("1\n \u00b2\n")
    assert (info.value.line, info.value.column) == (2, 2)


def test_the_integer_pattern_is_a_sign_then_decimal_digits():
    # _INT must accept exactly an optional sign followed by str.isdecimal
    # characters: "\u0663" (Arabic-Indic three) is one, and int() reads it as 3
    def rule(token):
        body = token[1:] if token[:1] in ("+", "-") else token
        return body.isdecimal()

    tokens = chain(map(chr, range(sys.maxunicode + 1)), ["", "+", "+-1", "1_0"])
    assert [t for t in tokens if bool(_INT.fullmatch(t)) != rule(t)] == []
    assert parse_level_text("2\n0 \u0663\n-0 +0\n") == LevelMatrix.from_rows([[0, 3], [0, 0]])


def test_over_long_integer_reports_position():
    with pytest.raises(ParseError) as info:
        parse_level_text("1\n" + "9" * 5000 + "\n")
    assert (info.value.line, info.value.column) == (2, 1)
    with pytest.raises(ParseError):
        parse_level_json('{"n": 1, "m": [[' + "9" * 5000 + "]]}")


def test_deep_json_nesting_is_a_parse_error():
    depth = 100_000
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_level_json('{"n": 1, "m": ' + "[" * depth + "]" * depth + "}")


def test_bad_header():
    with pytest.raises(ParseError):
        parse_level_text("two\n")
    with pytest.raises(ParseError):
        parse_level_text("0\n")
    with pytest.raises(ParseError):
        parse_level_text("")


def test_json_form():
    m = parse_level('{"n": 2, "m": [[0, 0], [2, 0]]}')
    assert m == LevelMatrix.from_rows([[0, 0], [2, 0]])
    assert level_to_json_obj(m) == {"n": 2, "m": [[0, 0], [2, 0]]}


def test_json_validation():
    with pytest.raises(ParseError):
        parse_level_json('{"n": 2, "m": [[0, 0]]}')
    with pytest.raises(ParseError):
        parse_level_json('{"n": 2, "m": [[0, 0], [0, "x"]]}')
    with pytest.raises(ParseError):
        parse_level_json('{"m": [[0]]}')
    with pytest.raises(ParseError):
        parse_level_json("{not json")


def test_json_boolean_size_rejected():
    with pytest.raises(ParseError, match='"n" must be a positive integer'):
        parse_level_json('{"n": true, "m": [[0]]}')


def test_load_level_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_level(tmp_path / "missing.lvl")


def test_load_level_both_formats(tmp_path):
    text_file = tmp_path / "m.lvl"
    text_file.write_text("2\n0 0\n1 0\n")
    json_file = tmp_path / "m.json"
    json_file.write_text('{"n": 2, "m": [[0, 0], [1, 0]]}')
    assert load_level(text_file) == load_level(json_file)
