"""Output correctness gate, run outside the timed region.

Every query is checked against invariants that hold for any seed; for the
default seed (and for the seedless census sweep) each query's exit code and
stdout must also match a recorded digest exactly.
"""

from __future__ import annotations

import hashlib
import json


def digest(code, stdout):
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def _report_problems(report, canonical_form, level_cls):
    problems = []
    if report.get("is_order") is not True:
        return ["report is not an order"]
    canonical = report["canonical"]
    again = canonical_form(level_cls.from_rows(canonical))[0].to_lists()
    if again != canonical:
        problems.append("canonical level does not re-canonicalize to itself")
    if report["is_hereditary"] and not report["is_bass"]:
        problems.append("hereditary but not bass")
    if report["is_bass"] and not report["is_gorenstein"]:
        problems.append("bass but not gorenstein")
    return problems


def census_problems(query, code, stdout, canonical_form, level_cls):
    if code != 0:
        return [f"exit code {code}"]
    lines = [json.loads(line) for line in stdout.splitlines()]
    if not lines or "summary" not in lines[-1]:
        return ["missing summary line"]
    totals = lines[-1]["summary"]
    classes = lines[:-1]
    problems = []
    for cls in classes:
        if cls["canonical"] != cls["report"]["canonical"]:
            problems.append("class canonical differs from its report")
        problems += _report_problems(cls["report"], canonical_form, level_cls)
    if not query.filtered:
        if sum(cls["count"] for cls in classes) != totals["raw_orders"]:
            problems.append("class counts do not sum to raw_orders")
        if len(classes) != totals["classes"]:
            problems.append("class lines do not match the class total")
    return problems


def classify_problems(query, code, stdout, canonical_form, level_cls):
    # Inputs are orders, so 0 is the only correct exit code; 3 (oracle
    # disagreement) in particular is never accepted.
    if code != 0:
        return [f"exit code {code}"]
    payload = json.loads(stdout)
    problems = _report_problems(payload, canonical_form, level_cls)
    if "--oracle" in query.argv:
        oracle = payload.get("oracle")
        if oracle is None or oracle["agrees"] is not True:
            problems.append("oracle missing or disagrees")
        elif oracle["is_bass"] != payload["is_bass"]:
            problems.append("oracle verdict differs from the classifier")
    return problems


def problems(query, code, stdout, canonical_form, level_cls):
    """Invariant violations of one query's result (empty when correct)."""
    check = census_problems if query.argv[0] == "census" else classify_problems
    try:
        return check(query, code, stdout, canonical_form, level_cls)
    except Exception as exc:  # malformed output must count as a failure, not stop the gate
        return [f"malformed output: {exc!r}"]
