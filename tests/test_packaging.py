"""Checks of the installed program, each run in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import monorders

SRC = str(Path(monorders.__file__).resolve().parent.parent)


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("MONORDERS_BUDGET", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


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
