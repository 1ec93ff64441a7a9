"""Seeded query lists for the three benchmark workloads.

A query is one ``monorders`` command line.  ``census-sweep`` is a fixed list;
``classify-large`` and ``oracle-bass`` draw random orders from the seed and
hand them to the program as level files, so the program never sees the seed.
Everything here is the benchmark's own code: generating inputs calls nothing
in ``monorders``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# Census queries, grouped by cost.  The pooled p50 falls in the middle of
# the fourteen ~20 ms queries and the p90 inside the twelve 0.17 - 0.2 s
# ones; a percentile that sat between two groups of very different cost
# would jump from run to run.  Fifty queries give the 100 latency samples
# the p90 needs in two passes.
CENSUS_SWEEP = (
    # a few milliseconds each
    ("1", "--bound", "0"),
    ("1", "--bound", "3"),
    ("2", "--bound", "0"),
    ("2", "--bound", "1"),
    ("2", "--bound", "6"),
    ("2", "--bound", "20"),
    ("3", "--bound", "0"),
    ("3", "--bound", "1"),
    ("3", "--bound", "2"),
    ("3", "--bound", "3"),
    ("4", "--bound", "0"),
    ("5", "--bound", "0"),
    # 10 - 15 ms
    ("3", "--bound", "4"),
    ("3", "--bound", "4", "--filter", "eichler"),
    ("3", "--bound", "4", "--filter", "bass"),
    ("4", "--bound", "1"),
    ("4", "--bound", "1", "--filter", "bass"),
    ("4", "--bound", "1", "--filter", "gorenstein"),
    # median group, ~20 ms
    ("3", "--bound", "5"),
    ("3", "--bound", "5", "--filter", "gorenstein"),
    ("3", "--bound", "5", "--filter", "eichler"),
    ("3", "--bound", "5", "--filter", "hereditary"),
    ("3", "--bound", "5", "--filter", "bass"),
    ("3", "--bound", "5", "--filter", "upper_triangular"),
    ("3", "--bound", "5", "--filter", "gorenstein", "--filter", "bass"),
    ("3", "--bound", "5", "--filter", "gorenstein", "--filter", "eichler"),
    ("3", "--bound", "5", "--filter", "hereditary", "--filter", "bass"),
    ("3", "--bound", "5", "--filter", "eichler", "--filter", "upper_triangular"),
    ("3", "--bound", "5", "--filter", "gorenstein", "--filter", "hereditary"),
    ("6", "--bound", "0"),
    ("6", "--bound", "0", "--filter", "gorenstein"),
    ("6", "--bound", "0", "--filter", "bass"),
    # 35 - 90 ms
    ("3", "--bound", "6"),
    ("3", "--bound", "7"),
    ("3", "--bound", "8"),
    ("3", "--bound", "8", "--filter", "gorenstein"),
    # p90 group, 0.17 - 0.2 s
    ("4", "--bound", "2"),
    ("4", "--bound", "2", "--filter", "hereditary"),
    ("4", "--bound", "2", "--filter", "upper_triangular"),
    ("4", "--bound", "2", "--filter", "gorenstein"),
    ("4", "--bound", "2", "--filter", "bass"),
    ("4", "--bound", "2", "--filter", "eichler"),
    ("7", "--bound", "0"),
    ("3", "--bound", "10"),
    ("3", "--bound", "10", "--filter", "eichler"),
    ("3", "--bound", "10", "--filter", "bass"),
    ("3", "--bound", "10", "--filter", "gorenstein"),
    ("3", "--bound", "10", "--filter", "hereditary"),
    # the two largest: most of the sweep's time
    ("4", "--bound", "3", "--families"),
    ("5", "--bound", "1"),
)

# (n, largest random entry, count): n! sweeps at n = 7 and 8.  About 15% of
# the queries are n = 8, so the p90 sits inside the n = 8 cluster and the p50
# inside the n = 7 one, both away from the gap between them; eight distinct
# n = 8 orders keep the p90 from hanging on one order's cost.
CLASSIFY_LARGE = ((7, 5, 44), (8, 5, 8))

# (n, largest random entry, box window, count).  The overorder search cost
# follows the box size prod(m[i][j] + m[j][i] + 1), whose spread over random
# orders is heavy tailed; drawing a fixed count per box window keeps the cost
# of a query list nearly the same from seed to seed.
ORACLE_BASS = ((4, 3, (512, 2048), 600), (5, 2, (4096, 16384), 200))


@dataclass(frozen=True)
class Query:
    """One command line; ``filtered`` census queries report only some classes."""

    qid: str
    argv: tuple[str, ...]
    filtered: bool = False


def min_plus_closure(rows):
    """Shortest-path closure; for a zero-diagonal nonnegative matrix it is an order."""
    n = len(rows)
    rows = [list(r) for r in rows]
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            ri = rows[i]
            rik = ri[k]
            for j in range(n):
                v = rik + rk[j]
                if v < ri[j]:
                    ri[j] = v
    return tuple(tuple(r) for r in rows)


def random_order(rng, n, hi):
    rows = [[0 if i == j else rng.randint(0, hi) for j in range(n)] for i in range(n)]
    return min_plus_closure(rows)


def box_size(rows):
    n = len(rows)
    return math.prod(rows[i][j] + rows[j][i] + 1 for j in range(1, n) for i in range(j))


def _census_queries():
    return [
        Query(f"census-{i:03d}", ("census", *args, "--format", "json"),
              filtered="--filter" in args)
        for i, args in enumerate(CENSUS_SWEEP)
    ]


def _classify_levels(rng):
    levels = [random_order(rng, n, hi) for n, hi, count in CLASSIFY_LARGE for _ in range(count)]
    rng.shuffle(levels)
    return levels


def _oracle_levels(rng):
    levels = []
    for n, hi, (lo, hi_box), count in ORACLE_BASS:
        drawn = 0
        while drawn < count:
            rows = random_order(rng, n, hi)
            if lo <= box_size(rows) < hi_box:
                levels.append(rows)
                drawn += 1
    rng.shuffle(levels)
    return levels


def level_text(rows):
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def build_queries(workload, seed, workdir: Path):
    """Query list of ``workload`` for ``seed``; writes its level files into ``workdir``."""
    if workload == "census-sweep":
        return _census_queries()
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify-large":
        levels, extra = _classify_levels(rng), ()
    elif workload == "oracle-bass":
        levels, extra = _oracle_levels(rng), ("--oracle",)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    queries = []
    for i, rows in enumerate(levels):
        qid = f"{workload}-{i:03d}"
        path = workdir / f"{qid}.txt"
        path.write_text(level_text(rows), encoding="utf-8")
        queries.append(Query(qid, ("classify", str(path), *extra, "--format", "json")))
    return queries


WORKLOADS = ("census-sweep", "classify-large", "oracle-bass")
SEEDLESS = frozenset({"census-sweep"})
