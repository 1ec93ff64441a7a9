"""Record the default-seed output digests of every workload in expected.json.

    python3 perfbench/record_expected.py

Outputs of monorders must never change, so run this only on a commit whose
outputs are known to be right, and only when a workload's query list
changes.  It refuses to record when any output breaks an invariant.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS, build_queries


def main():
    workdir = run.OUT / f"levels-{os.getpid()}"
    digests = {}
    try:
        for workload in WORKLOADS:
            pkg = run.import_monorders()
            queries = build_queries(workload, run.DEFAULT_SEED, workdir)
            session = run.Session(queries, None)
            failures = session.gate(pkg, None)
            digests[workload] = session.gate_digests
            for qid, found in failures.items():
                print(f"FAILED {qid}: {'; '.join(found)}", file=sys.stderr)
            if failures:
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"seed": run.DEFAULT_SEED, "digests": digests}
    (run.HERE / "expected.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
