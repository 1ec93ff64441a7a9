"""Span tracer that wraps the public functions of each monorders layer.

A function is wrapped in every ``monorders`` module namespace that holds it,
so calls through ``from .levels import canonical_form`` in ``census`` and
``classify`` are seen as well as calls in ``levels`` itself.  Submodules are
taken from ``sys.modules``: the package attributes ``monorders.census`` and
``monorders.classify`` are the re-exported functions, not the modules.

Spans are (function index, start, end, parent span index, query index) and
stay in memory, one list per traced pass, until ``write`` is called.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter


def _census_counts(result, counts):
    counts["census.raw_orders"] += result.totals["raw_orders"]
    counts["census.classes"] += result.totals["classes"]


def _overorder_counts(result, counts):
    counts["oracle.overorders.members"] += len(result)


OUTPUT_COUNTS = {"census.census": _census_counts, "oracle.overorders": _overorder_counts}
COUNT_NAMES = ("census.raw_orders", "census.classes", "oracle.overorders.members")


def _monorders_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "monorders" or name.startswith("monorders.")]


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.passes = []  # one (spans, counts) pair per traced pass
        self.query = -1
        self._stack = []
        self._patched = []

    def begin_pass(self):
        self.passes.append(([], dict.fromkeys(COUNT_NAMES, 0)))

    def _wrap(self, fid, original):
        stack = self._stack
        count_output = OUTPUT_COUNTS.get(self.targets[fid])

        def traced(*args, **kwargs):
            spans, counts = self.passes[-1]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.query)
            if count_output is not None:
                count_output(result, counts)
            return result

        return traced

    def install(self):
        modules = _monorders_modules()
        for fid, target in enumerate(self.targets):
            module_name, func_name = target.split(".")
            original = getattr(sys.modules[f"monorders.{module_name}"], func_name)
            wrapper = self._wrap(fid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summarize(self, spans):
        """Per-function (calls, total_s, self_s) of one pass, plus the dedupe count."""
        n = len(self.targets)
        calls, total, self_time = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(spans)
        for fid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        census_fid = self.targets.index("census.census")
        canonical_fid = self.targets.index("levels.canonical_form")
        dedupe_calls = 0
        for idx, (fid, start, end, parent, _) in enumerate(spans):
            calls[fid] += 1
            total[fid] += end - start
            self_time[fid] += end - start - child[idx]
            if fid == canonical_fid and parent >= 0 and spans[parent][0] == census_fid:
                dedupe_calls += 1
        return calls, total, self_time, dedupe_calls

    def write(self, path, query_ids):
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "functions": self.targets,
            "queries": list(query_ids),
            "span_fields": ["function", "start", "end", "parent", "query"],
            "passes": [spans for spans, _ in self.passes],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(record, handle)
