"""Byte-identity check of the command line over a fixed list of commands.

Each command of ``golden_commands()`` runs in-process through ``cli.main``.
The sha256 of its (exit code, stdout, stderr) must equal the one recorded for
it in ``cli_golden.json``, next to this file.  The list covers every
subcommand in both formats, ``classify --oracle``, ``overorders --dump``,
census with filters, ``--dump`` and ``--families``, ``classify`` of a
100 x 100 level under a raised ``--cap``, and the refusals:
non-orders, over-cap, over-budget, over-long integers, a missing file and
the text reader's refusals, each with its line and column.
The level files are written to a temporary directory, whose path is replaced
by ``{dir}`` in the output; the random ones come from ``conftest.random_order``
and ``random_weyl`` at a fixed seed, so a change to those helpers needs a new
recording.  argparse usage errors are left out, since their wording differs
between Python versions.

The hashes pin the output of the command line as it is.  When a change of
output is intended, record the file again from the root of a checkout with

    PYTHONPATH=src python tests/test_cli_golden.py --record

which prints each command whose hash it added or changed, and the count of
unchanged ones; name every printed command in the change's notes.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from monorders import cli, conjugate
from monorders.levelio import level_to_json_obj, level_to_text, parse_level

from conftest import SEC52, random_order, random_weyl

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
NINES = "9" * 4300
#: stands for NINES in a command, so that the recorded command lines stay short
NINES_TOKEN = "<4300 nines>"


def _level_files():
    """{file name: contents} of every level the commands read."""
    rng = random.Random(2013)
    files = {}
    orders = []
    for n, bound, count in [(1, 0, 1), (2, 3, 2), (3, 2, 3), (4, 2, 3), (4, 3, 2), (5, 1, 2), (6, 1, 1)]:
        for _ in range(count):
            level = random_order(rng, n, bound)
            if len(orders) % 2:
                level = conjugate(level, random_weyl(rng, n))
            orders.append(level)
    for k, level in enumerate(orders):
        files[f"o{k:02d}.lvl"] = level_to_text(level)
    files["o00.json"] = json.dumps(level_to_json_obj(orders[5]))
    files["sec52.lvl"] = level_to_text(SEC52)
    files["big2.lvl"] = "2\n0 0\n3 0\n"
    files["zero9.lvl"] = "9\n" + "0 0 0 0 0 0 0 0 0\n" * 9
    # every off-diagonal entry 5, classified under a raised cap
    fives = "".join(" ".join("0" if i == j else "5" for j in range(100)) + "\n" for i in range(100))
    files["fives100.lvl"] = "100\n" + fives
    files["bad_diag.lvl"] = "2\n1 0\n0 0\n"
    files["bad_tri.lvl"] = "3\n0 0 0\n0 0 0\n1 0 0\n"
    files["bad_tri4.json"] = '{"n": 4, "m": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [3, 0, 0, 0]]}'
    files["long.lvl"] = f"2\n0 {NINES}\n{NINES} 0\n"
    files["long.json"] = f'{{"n": 2, "m": [[0, {NINES}], [{NINES}, 0]]}}'
    files["edge.lvl"] = f"2\n0 {NINES[1:]}\n{NINES[1:]} 0\n"
    files["ragged.lvl"] = "2\n0 0\n1\n"
    files["shape.json"] = '{"n": 2, "m": [[0, 0]]}'
    files["empty.lvl"] = "# nothing\n"
    # text-reader refusals and accepted spellings: a bad token in mid-row, a
    # superscript digit, Arabic-Indic and signed digits, tab and ideographic
    # space separators, CRLF, comment-only and blank lines, too few rows and
    # three bad headers
    files["mid_token.lvl"] = "3\n0 0 0\n1 0x 0\n1 0 0\n"
    files["superscript.lvl"] = "1\n\u00b2\n"
    files["arabic.lvl"] = "3\n0 0 0\n\u0663 +0 -0\n3 0 0\n"
    files["separators.lvl"] = "2\n0\t0\n1\u30000\n"
    files["crlf.lvl"] = "2\r\n0 0\r\n1 0\r\n"
    files["comments.lvl"] = "# only a comment\n\n2\n   # indented\n\n0 0  # row one\n\t\n1 0\n"
    files["few_rows.lvl"] = "3\n0 0 0\n0 0 0\n"
    files["header_2_2.lvl"] = "2 2\n0 0\n0 0\n"
    files["header_x.lvl"] = "x\n0\n"
    files["header_0.lvl"] = "0\n"
    return files, len(orders)


def golden_commands():
    """(level files, command list); each command is an argv whose file arguments are bare names."""
    files, count = _level_files()
    levels = [f"o{k:02d}.lvl" for k in range(count)] + ["o00.json", "sec52.lvl"]
    levels += ["bad_diag.lvl", "bad_tri.lvl", "bad_tri4.json"]
    commands = []
    both = ("text", "json")
    for name in levels:
        n = parse_level(files[name]).n
        zeros = ",".join(["0"] * n)
        ramp = ",".join(str(i) for i in range(n))
        for fmt in both:
            tail = ["--format", fmt]
            commands += [
                ["check", name, *tail],
                ["classify", name, *tail],
                ["dual", name, *tail],
                ["projective", name, "--type", zeros, *tail],
                ["projective", name, f"--type={ramp}", *tail],
                ["overorders", name, *tail],
            ]
            if n <= 4:
                commands += [["classify", name, "--oracle", *tail], ["overorders", name, "--dump", *tail]]
    reader_cases = ["long.lvl", "long.json", "edge.lvl", "ragged.lvl", "shape.json", "empty.lvl", "missing.lvl"]
    reader_cases += ["mid_token.lvl", "superscript.lvl", "arabic.lvl", "separators.lvl", "crlf.lvl", "comments.lvl"]
    reader_cases += ["few_rows.lvl", "header_2_2.lvl", "header_x.lvl", "header_0.lvl"]
    for name in reader_cases:
        for fmt in both:
            commands += [["check", name, "--format", fmt], ["classify", name, "--format", fmt]]
    commands += [
        ["projective", "edge.lvl", "--type", "0,0"],
        ["projective", "big2.lvl", "--type", f"{NINES_TOKEN},{NINES_TOKEN}"],
        ["projective", "big2.lvl", "--type", "0,1,2"],
        ["projective", "big2.lvl", "--type", "zero,one"],
        ["projective", "big2.lvl", "--type", "0,1_0"],
        ["projective", "big2.lvl", "--type=-1,2"],
        ["projective", "big2.lvl", "--type=-4,0", "--format", "json"],
        ["projective", "bad_tri.lvl", "--type", "zero,one"],
        ["overorders", "big2.lvl", "--budget", "3"],
        ["overorders", "big2.lvl", "--budget", "4", "--dump"],
        ["classify", "sec52.lvl", "--oracle", "--budget", "7"],
        ["classify", "sec52.lvl", "--oracle", "--budget", "7", "--format", "json"],
        ["classify", "sec52.lvl", "--cap", "3"],
        ["classify", "sec52.lvl", "--oracle", "--cap", "3", "--budget", "7"],
        ["classify", "zero9.lvl"],
        ["classify", "zero9.lvl", "--format", "json"],
        ["classify", "zero9.lvl", "--cap", "9"],
        ["classify", "zero9.lvl", "--oracle"],
        ["classify", "fives100.lvl", "--cap", "200"],
        ["classify", "fives100.lvl", "--cap", "200", "--format", "json"],
        ["check", "zero9.lvl"],
        ["dual", "zero9.lvl", "--format", "json"],
        ["overorders", "zero9.lvl"],
    ]
    for n, bound in [(1, 0), (1, 3), (2, 0), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (5, 0)]:
        for fmt in both:
            commands.append(["census", str(n), "--bound", str(bound), "--format", fmt])
        commands.append(["census", str(n), "--bound", str(bound), "--dump"])
    for name in sorted(cli.FILTERS):
        for fmt in both:
            commands.append(["census", "3", "--bound", "2", "--filter", name, "--dump", "--format", fmt])
    commands += [
        ["census", "3", "--bound", "2", "--filter", "gorenstein", "--filter", "eichler", "--dump"],
        ["census", "3", "--bound", "2", "--filter", "bass", "--filter", "upper_triangular", "--format", "json"],
        ["census", "4", "--bound", "1", "--families"],
        ["census", "4", "--bound", "1", "--families", "--format", "json"],
        ["census", "4", "--bound", "2", "--families", "--filter", "gorenstein", "--dump"],
        ["census", "4", "--bound", "2", "--families", "--filter", "gorenstein", "--format", "json"],
        ["census", "4", "--bound", "2", "--filter", "hereditary", "--filter", "bass"],
        ["census", "4", "--bound", "3", "--families", "--filter", "gorenstein"],
        ["census", "5", "--bound", "1"],
        ["census", "5", "--bound", "1", "--dump", "--format", "json"],
        # classes with interchangeable indices, under a budget that lets the box through
        ["census", "5", "--bound", "2", "--budget", "50000000", "--dump"],
        ["census", "6", "--bound", "1", "--budget", "40000000", "--format", "json"],
        ["census", "3", "--families"],
        ["census", "0"],
        ["census", "3", "--bound", "-1"],
        ["census", "200", "--bound", "1"],
        ["census", "100000", "--bound", "1", "--format", "json"],
        ["census", "4", "--bound", "3", "--budget", "100"],
        ["census", "9", "--bound", "0"],
        ["census", "4", "--bound", "0", "--cap", "3"],
    ]
    return files, commands


def run_commands(files, commands):
    """{command as one line: sha256 of its (exit code, stdout, stderr)}, run in a fresh directory."""
    digests = {}
    saved = os.environ.pop(cli.BUDGET_ENV, None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text, encoding="utf-8")
            names = set(files) | {"missing.lvl"}
            for argv in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(
                        [os.path.join(tmp, arg) if arg in names else arg.replace(NINES_TOKEN, NINES) for arg in argv]
                    )
                record = json.dumps([code, out.getvalue(), err.getvalue().replace(tmp, "{dir}")])
                digests[" ".join(argv)] = hashlib.sha256(record.encode("utf-8")).hexdigest()
    finally:
        if saved is not None:
            os.environ[cli.BUDGET_ENV] = saved
    return digests


def test_cli_output_matches_the_recorded_hashes():
    files, commands = golden_commands()
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(commands) == len(set(map(" ".join, commands))), "a command is listed twice"
    assert sorted(map(" ".join, commands)) == sorted(expected), "the command list and the recorded file differ"
    actual = run_commands(files, commands)
    changed = [line for line in expected if actual[line] != expected[line]]
    assert changed == []


def record():
    """Record every hash again; print each command whose hash is new or changed."""
    files, commands = golden_commands()
    digests = run_commands(files, commands)
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    for line, digest in digests.items():
        if line not in previous:
            print(f"added: {line}")
        elif previous[line] != digest:
            print(f"changed: {line}")
    unchanged = sum(previous.get(line) == digest for line, digest in digests.items())
    print(f"recorded {len(digests)} commands in {GOLDEN}, {unchanged} of them unchanged")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
