"""Fuzz guard: level files and command lines end in an exit code and a message.

Parsing either returns a level or raises a MonordersError (which the CLI
turns into exit 2 and one error line); ``cli.main`` returns 0-3, or argparse
exits 0 or 2, and nothing escapes as a traceback.  A last property checks
that the private order mark changes no public verdict.  Sizes stay small so
every generated command finishes in milliseconds.
"""

import contextlib
import io
import json
from functools import partial

import hypothesis.strategies as st
from hypothesis import given, settings

from monorders import (
    LevelMatrix,
    MonordersError,
    WeylElement,
    bass_oracle,
    canonical_form,
    classify,
    classify_eichler,
    conjugate,
    dual_level,
    eichler_shape_of_triangular,
    gorenstein_failing_row,
    gorenstein_via_dual,
    gorenstein_witnesses,
    is_bass,
    is_gorenstein,
    is_hereditary,
    is_lattice,
    is_order,
    is_projective,
    lattice_violation,
    match_family,
    normalize_positive,
    order_violation,
    overorders,
    parse_level,
    parse_level_json,
    projective_witness,
    triangular_form,
    truncate,
)
from monorders.cli import main

from conftest import min_plus_closure

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

_TOKENS = ["0", "1", "2", "-1", "+3", "00", "9" * 5000, "²", "x", "1.5", "{", "[", "#", ""]


@st.composite
def level_texts(draw):
    # a header, then rows of plausible and implausible tokens
    header = draw(st.sampled_from(["0", "1", "2", "3", "-2", "a", "", "2 2"]))
    rows = draw(st.lists(st.lists(st.sampled_from(_TOKENS), max_size=4), max_size=4))
    sep = draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    return sep.join([header] + [" ".join(row) for row in rows])


@st.composite
def order_texts(draw):
    # an order of size <= 4 with small entries, so every oracle run is short
    n = draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=0, max_value=2)
    rows = min_plus_closure([[0 if i == j else draw(entries) for j in range(n)] for i in range(n)])
    return f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


_JSON_SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "m", "x"]), inner, max_size=3),
    max_leaves=20,
)
_JSON_LEVELS = st.fixed_dictionaries(
    {"n": st.integers(-1, 3) | _JSON_SCALARS, "m": st.lists(st.lists(_JSON_SCALARS, max_size=3), max_size=3)}
)


def _parses_or_refuses(text):
    try:
        assert isinstance(parse_level(text), LevelMatrix)
    except MonordersError as exc:
        assert str(exc)


@FUZZ
@given(level_texts() | order_texts() | st.text(max_size=40))
def test_level_text_parses_or_refuses(text):
    _parses_or_refuses(text)


@FUZZ
@given(_JSON | _JSON_LEVELS)
def test_level_json_parses_or_refuses(obj):
    text = json.dumps(obj)
    try:
        assert isinstance(parse_level_json(text), LevelMatrix)
    except MonordersError as exc:
        assert str(exc)
    _parses_or_refuses(text)


_FORMATS = [("--format", "json"), ("--format", "text")]
_BUDGETS = [("--budget", "1"), ("--budget", "50")]
_FLAGS = {
    "check": _FORMATS,
    "classify": _FORMATS + _BUDGETS + [("--oracle",), ("--oracle",), ("--cap", "2")],
    "dual": _FORMATS,
    "projective": _FORMATS + [("--type", "0,1"), ("--type", "0 1 2 2"), ("--type", "0,0,0")],
    "overorders": _FORMATS + _BUDGETS + [("--dump",)],
    "census": _FORMATS
    + _BUDGETS
    + [("--bound", "0"), ("--bound", "2"), ("--filter", "gorenstein"), ("--filter", "bass")]
    + [("--dump",), ("--families",), ("--cap", "2")],
    "bogus": [],
}
# each is refused by argparse or by the command, whatever it follows
_BAD_FLAGS = [
    ("--format", "xml"),
    ("--budget", "0"),
    ("--budget", "x"),
    ("--cap", "0"),
    ("--type", "a"),
    ("--bound", "-1"),
    ("--bound", "x"),
    ("--filter", "shiny"),
    ("--help",),
    ("junk",),
]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    if command == "census":
        argv = [command, draw(st.sampled_from(["-1", "0", "1", "3", "4", "9", "x"]))]
    else:
        argv = [command, "LEVEL"]
    if command == "projective":
        argv += ["--type", "0,1,1"]
    flags = draw(st.lists(st.sampled_from(_FLAGS[command] or [()]), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(_BAD_FLAGS)))
    for flag in flags:
        argv.extend(flag)
    return argv


@settings(FUZZ, max_examples=300)
@given(
    argv=command_lines(),
    # orders twice as often, so that most commands get past parsing
    content=st.one_of(order_texts(), order_texts(), level_texts(), st.binary(max_size=20)),
)
def test_command_line_ends_in_an_exit_code(tmp_path_factory, argv, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.lvl"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_bytes(content)
    argv = [str(path) if arg == "LEVEL" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            code = exc.code
            assert code in (0, 2)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    assert (out.getvalue() if code in (0, 1) else err.getvalue()).strip(), argv


@st.composite
def verdict_inputs(draw):
    # (rows, type): an order, a conjugated order, or a non-order (a broken
    # triangle or a nonzero diagonal) with n <= 5, and a column type for it
    n = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(["order", "conjugate", "triangle", "diagonal"]))
    rows = [[0 if i == j else draw(st.integers(0, 2)) for j in range(n)] for i in range(n)]
    if kind in ("order", "conjugate"):
        rows = min_plus_closure(rows)
    if kind == "diagonal":
        i = draw(st.integers(0, n - 1))
        rows[i][i] = draw(st.sampled_from([-1, 1, 2]))
    level = LevelMatrix.from_rows(rows)
    if kind == "conjugate":
        shifts = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        level = conjugate(level, WeylElement(tuple(shifts), tuple(draw(st.permutations(range(n))))))
    column = [row[draw(st.integers(0, n - 1))] for row in level.entries]
    lattice_type = draw(st.sampled_from([column, [e + 1 for e in column], [0] * n, list(range(n))]))
    return level.entries, tuple(lattice_type)


def _outcome(verdict, level, *args):
    try:
        return "value", verdict(level, *args)
    except MonordersError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


# every public verdict on a level, and on a level and a column type; the
# small budget keeps each overorder search short or refuses it
LEVEL_VERDICTS = [
    is_order,
    order_violation,
    canonical_form,
    normalize_positive,
    triangular_form,
    classify_eichler,
    eichler_shape_of_triangular,
    is_hereditary,
    is_bass,
    truncate,
    is_gorenstein,
    gorenstein_witnesses,
    gorenstein_failing_row,
    gorenstein_via_dual,
    dual_level,
    partial(overorders, budget=10**4),
    partial(bass_oracle, budget=10**4),
    match_family,
    classify,
]
TYPE_VERDICTS = [lattice_violation, is_lattice, projective_witness, is_projective]


@settings(FUZZ, max_examples=200)
@given(verdict_inputs())
def test_verdicts_do_not_depend_on_an_earlier_classify(case):
    # classify marks an order it has checked, and every value it builds from
    # one; no public verdict may answer differently on the marked level
    rows, lattice_type = case
    used = LevelMatrix(rows)
    classify(used)
    calls = [(verdict, ()) for verdict in LEVEL_VERDICTS] + [(verdict, (lattice_type,)) for verdict in TYPE_VERDICTS]
    for verdict, args in calls:
        assert _outcome(verdict, used, *args) == _outcome(verdict, LevelMatrix(rows), *args), verdict
