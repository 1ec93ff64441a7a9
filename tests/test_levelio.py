import random
import re
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
from monorders import levelio
from monorders.levelio import _INT, _ROW

from conftest import brute_parse_level_text


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


def _outcome(parse, text):
    """The level a reader returns, or the type, message, line and column of its refusal."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


def test_a_row_matches_whole_exactly_when_each_token_is_an_integer():
    # the reader's one-pass test of a row against the brute reader's per-token
    # test, with every code point between two signed tokens and alone:
    # str.split() yields the \S+ tokens, and _ROW matches exactly when each is an _INT.
    # The sweep goes one plane of 65,536 code points at a time, so it holds one plane's strings
    brute_token, brute_int = re.compile(r"\S+"), re.compile(r"[+-]?\d+")
    for start in range(0, sys.maxunicode + 1, 65536):
        points = list(map(chr, range(start, start + 65536)))  # chr refuses a code point past the last plane
        for bodies in ([f"+0{c}-0" for c in points], points):
            spaced = " ".join(bodies)  # one pass: a body that splits apart differently shifts the rest
            assert spaced.split() == brute_token.findall(spaced)
            clean = [not body.isspace() and all(map(brute_int.fullmatch, brute_token.findall(body))) for body in bodies]
            assert [body for body, ok in zip(bodies, clean) if bool(_ROW.fullmatch(body)) != ok] == []


def test_every_special_code_point_reads_as_the_brute_reader_reads_it():
    # whole-file differential on each code point that a space, digit, sign,
    # comment or line-break rule singles out, between two tokens and alone
    # (the row test above covers every code point; the rest refuse alike)
    def special(c):
        line_break = len(f"0{c}0".splitlines()) != 1
        return c.isspace() or c.isdecimal() or c in "+-#" or line_break or re.fullmatch(r"[\s\d]", c) is not None

    points = [c for c in map(chr, range(sys.maxunicode + 1)) if special(c)]
    assert len(points) > 600
    texts = [text for c in points for text in (f"1\n0{c}0\n", f"1\n{c}\n", f"2\n0 {c}\n1 0\n", f"{c}1\n0\n")]
    assert [text for text in texts if _outcome(parse_level_text, text) != _outcome(brute_parse_level_text, text)] == []


_FUZZ_TOKENS = ["0", "-2", "+3", "12", "\u0663", "x", "1-2", "1+", "\u00b2", "1_0", "--", "+"]  # five good, seven bad
# the gaps of one text: one or two characters of one separator set ("\x1c" also ends a line)
_FUZZ_GAPS = [[a + b for a in chars for b in ["", *chars]] for chars in [" ", " \t", " \t\u3000", " \t\u3000\x1c"]]


def _fuzz_text(rng):
    """A level text from good and bad tokens, odd separators, comments, blank lines and bad shapes."""
    n = rng.randint(1, 4)
    bad_rate = rng.choice([0, 0, 0.02, 0.1, 0.4])
    weights = [(1 - bad_rate) / 5] * 5 + [bad_rate / 7] * 7
    gaps = rng.choice(_FUZZ_GAPS)

    def line(tokens):
        trail, comment, *before = rng.choices(gaps, k=len(tokens) + 2)
        text = "".join(gap + token for gap, token in zip(before, tokens))
        if rng.random() < 0.8:
            text = text.lstrip()
        if rng.random() < 0.2:
            text += trail
        if rng.random() < 0.15:
            text += " #" + comment.join(rng.choices(_FUZZ_TOKENS, weights, k=2))
        return text

    header = [str(n)] if rng.random() > bad_rate else rng.choice([[str(n), str(n)], ["x"], ["0"], ["+"], []])
    lines = [line(header)]
    for _ in range(n + rng.choice([0, 0, 0, 0, -1, 1])):
        lines.append(line(rng.choices(_FUZZ_TOKENS, weights, k=n + rng.choice([0] * 8 + [-1, 1]))))
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# a comment", rng.choice(gaps), "  # 1 2"]))
    return rng.choice(["\n", "\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


def test_fuzzed_texts_read_as_the_brute_reader_reads_them():
    rng = random.Random(2024)
    texts = [_fuzz_text(rng) for _ in range(50_000)]
    outcomes = [_outcome(parse_level_text, text) for text in texts]
    assert [text for text, outcome in zip(texts, outcomes) if outcome != _outcome(brute_parse_level_text, text)] == []
    read = sum(isinstance(outcome, LevelMatrix) for outcome in outcomes)
    assert 5_000 < read < 45_000  # both readings and refusals are exercised


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_tokens_at_a_lowered_digit_limit_read_as_the_brute_reader_reads_them():
    # at L = 640, a token of L - 1 digits is read and one of L digits is
    # refused; a sign adds a character but no digit
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        texts = []
        for digits in (639, 640):
            for sign in ("", "+", "-"):
                token = sign + "7" * digits
                texts += [f"2\n0 {token}\n{token} 0\n", f"1\n{token}\n", f"{sign}1\n{token}\n"]
                texts += [f" \t{token}\n0\n", f"2\n0 0 {token}\n1 0\n", f"2\n{token} x\n0 0\n"]
        outcomes = [_outcome(parse_level_text, text) for text in texts]
        assert outcomes == [_outcome(brute_parse_level_text, text) for text in texts]
        assert any(isinstance(outcome, LevelMatrix) for outcome in outcomes)
        assert (ParseError, "line 2, column 3: integer has too many digits", 2, 3) in outcomes
    finally:
        sys.set_int_max_str_digits(saved)


def test_a_clean_row_is_read_without_the_token_scan(monkeypatch):
    # a row of integers, signed and unsigned, never reaches the scan that
    # locates a fault; a faulty row does
    monkeypatch.setattr(levelio, "_TOKEN", None)
    assert parse_level_text("2\n+0 -2\n\u0663\t0\n") == LevelMatrix.from_rows([[0, -2], [3, 0]])
    with pytest.raises(AttributeError):
        parse_level_text("2\n0 x\n1 0\n")


def _text_mode_outcome(path):
    # what the reader gave when it opened the file through a text wrapper: the
    # level or refusal of parse_level on the decoded text, newlines translated
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return ParseError, f"cannot read {path}: not UTF-8 text (byte {exc.start})"
    try:
        return parse_level(text)
    except ParseError as exc:
        return ParseError, str(exc)


def _load_outcome(path):
    try:
        return load_level(path)
    except ParseError as exc:
        return ParseError, str(exc)


_PAST_8_KIB = b"# " + b"x" * 8190  # a comment that ends byte 8,192, one text-mode read chunk
READER_BYTES = {
    "lf": b"2\n0 0\n1 0\n",
    "crlf": b"2\r\n0 0\r\n1 0\r\n",
    "lone-cr": b"2\r0 0\r1 0\r",
    "mixed": b"3\r\n0 0 0\r0 0 0\n\r\n1 0 0\r",
    "mixed-fault": b"3\r\n0 0 0\r\r0 0 0\n1 x 0\r\n",
    "crlf-across-8-kib": _PAST_8_KIB[:-1] + b"\r\n2\r\n0 0\r\n1 0",
    "bom": b"\xef\xbb\xbf2\n0 0\n1 0\n",
    "bom-json": b'\xef\xbb\xbf{"n": 1, "m": [[0]]}',
    "nul": b"2\n0 0\x00\n1 0\n",
    "nul-alone": b"\x00",
    "bad-byte-first": b"\xff2\n0 0\n1 0\n",
    "bad-byte-mid-row": b"2\n0 \xfe0\n1 0\n",
    "bad-byte-past-8-kib": _PAST_8_KIB + b"\n2\n0 0\n1 \x80\n",
    "json-lone-cr-fault": b'{\r"n": 2,\r"m": [[0, 0],\r[1 0]]\r}',
    "json-crlf-fault": b'{\r\n"n": 2,\r\n"m": [[0, 0],\r\n[1, 0]],,\r\n}',
    "json-cr-in-string": b'{"n": 1, "m": [[0]], "note": "a\rb"}',
}


@pytest.mark.parametrize("name", READER_BYTES)
def test_load_level_reads_bytes_as_a_text_mode_read_does(name, tmp_path):
    # load_level decodes the bytes once and translates \r\n and lone \r to \n
    # itself: each outcome, level or refusal text, is the text wrapper's
    path = tmp_path / f"{name}.lvl"
    path.write_bytes(READER_BYTES[name])
    assert _load_outcome(path) == _text_mode_outcome(path)


def test_reader_refusals_name_the_translated_lines_and_absolute_bytes(tmp_path):
    # the outcomes the differential above compares, pinned: line numbers count
    # translated line ends, and a bad byte's offset counts from the file's start
    expected = {
        "mixed-fault": "line 5, column 3: expected an integer, got 'x'",
        "bom": "line 1: expected a single integer n on the first line",
        "nul": "line 2, column 3: expected an integer, got '0\\x00'",
        "bad-byte-first": "not UTF-8 text (byte 0)",
        "bad-byte-mid-row": "not UTF-8 text (byte 4)",
        "bad-byte-past-8-kib": f"not UTF-8 text (byte {len(_PAST_8_KIB) + 9})",
        "json-lone-cr-fault": "line 4, column 4: invalid JSON: Expecting ',' delimiter",
    }
    for name, message in expected.items():
        path = tmp_path / f"{name}.lvl"
        path.write_bytes(READER_BYTES[name])
        with pytest.raises(ParseError) as info:
            load_level(path)
        assert str(info.value).endswith(message), name
    for name in ("lf", "crlf", "lone-cr", "crlf-across-8-kib"):
        path = tmp_path / f"{name}.lvl"
        path.write_bytes(READER_BYTES[name])
        assert load_level(path) == LevelMatrix.from_rows([[0, 0], [1, 0]]), name


def test_readers_build_levels_equal_to_validated_ones(monkeypatch):
    # both readers build their level by levels._trusted, without the
    # constructor's validation, which their grammar has already done: the
    # value is a plain level, equal to the validated one and with no mark
    texts = ["2\n0 -1\n+1 \u0663\n", '{"n": 2, "m": [[0, -1], [1, 3]]}']
    trusted, built = levelio._trusted, []
    monkeypatch.setattr(levelio, "_trusted", lambda cls, fields: built.append(cls) or trusted(cls, fields))
    levels = [parse_level(text) for text in texts]
    assert built == [LevelMatrix, LevelMatrix]
    for level in levels:
        assert type(level) is LevelMatrix and vars(level) == {"entries": ((0, -1), (1, 3))}
        assert level == LevelMatrix.from_rows([[0, -1], [1, 3]])
