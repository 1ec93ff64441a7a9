"""Checks of the installed program and of the packaging metadata that installs it."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import monorders
from monorders import cli

SRC = str(Path(monorders.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent


def python_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("MONORDERS_BUDGET", None)
    return env


def run_python(*args):
    return subprocess.run([sys.executable, *args], env=python_env(), capture_output=True, text=True, timeout=120)


def test_runtime_imports_only_the_standard_library():
    # modules loaded before the import (site-packages .pth hooks) do not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import monorders.cli\n"
        "tops = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'monorders'}))\n"
    )
    done = run_python("-c", code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_module_entry_point_exit_codes(tmp_path):
    # python -m monorders.cli runs cli.entry, the console-script target
    order = tmp_path / "order.lvl"
    order.write_text("2\n0 0\n1 0\n")
    non_order = tmp_path / "non_order.lvl"
    non_order.write_text("3\n0 0 0\n0 0 0\n1 0 0\n")
    missing = tmp_path / "missing.lvl"
    cases = [
        (order, 0, "order: yes\n"),
        (non_order, 1, "order: no\nviolation: m[3,1] > m[3,2] + m[2,1] at (i,j,k)=(3,2,1)\n"),
        (missing, 2, ""),
    ]
    for path, code, out in cases:
        done = run_python("-m", "monorders.cli", "check", str(path))
        assert (done.returncode, done.stdout) == (code, out), done.stderr
    assert done.stderr.startswith(f"error: cannot read {missing}")
    assert done.stderr.count("\n") == 1


def test_module_entry_point_reads_any_line_ends_and_names_a_bad_byte(tmp_path):
    # the CRLF, lone-CR and non-UTF-8 files of the packaging smoke test in CI
    cases = [
        (b"2\r\n0 0\r\n1 0\r\n", 0, "order: yes\n"),
        (b"2\r0 0\r1 0\r", 0, "order: yes\n"),
        (b"2\n0 \xff\n1 0\n", 2, ""),
    ]
    for index, (data, code, out) in enumerate(cases):
        path = tmp_path / f"level-{index}.lvl"
        path.write_bytes(data)
        done = run_python("-m", "monorders.cli", "check", str(path))
        assert (done.returncode, done.stdout) == (code, out), done.stderr
    assert done.stderr == f"error: cannot read {path}: not UTF-8 text (byte 4)\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_command_by_sigpipe():
    # the reader takes one line and closes, as `| head -1` does; the dump's 200 kB
    # outgrow a pipe's buffer, so the command is still writing when the pipe closes
    command = [sys.executable, "-m", "monorders.cli", "census", "4", "--bound", "4", "--dump"]
    with subprocess.Popen(command, env=python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "census: n=4 bound=4\n"
        proc.stdout.close()
        assert (proc.wait(timeout=120), proc.stderr.read()) == (-signal.SIGPIPE, "")


@pytest.mark.parametrize(
    "text, code",
    [("2\n0 0\n1 0\n", 0), ("3\n0 0 0\n0 0 0\n1 0 0\n", 1), (None, 2)],
    ids=["order", "non-order", "missing"],
)
def test_console_script_entry_exit_codes(text, code, tmp_path, monkeypatch, capsys):
    # cli.entry is what the installed `monorders` script calls
    path = tmp_path / "level.lvl"
    if text is not None:
        path.write_text(text)
    monkeypatch.setattr(sys, "argv", ["monorders", "check", str(path)])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == code
    capsys.readouterr()


def test_readme_library_example_gives_the_answers_it_states():
    # the ```python block of the "Library" section, run as it stands
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    assert (names["report"].is_gorenstein, names["report"].is_bass) == (True, False)
    assert len(names["result"].classes) == 11
    assert names["verdict"] is False
    assert not monorders.is_gorenstein(names["witness"])


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["version"] == monorders.__version__


def test_pyproject_names_the_entry_point_and_ships_the_family_table():
    # read offline, since checking the metadata by building a wheel needs a build backend
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"monorders": "monorders.cli:entry"}
    package = ROOT / "src" / "monorders"
    patterns = project["tool"]["setuptools"]["package-data"]["monorders"]
    shipped = {path.relative_to(package).as_posix() for pattern in patterns for path in package.glob(pattern)}
    assert "data/gorenstein_families_n4.json" in shipped
