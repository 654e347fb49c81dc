"""Write the golden corpus ``corpus.json`` next to this file.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_corpus.py

Every row is a random symmetric quiver (1-4 vertices, 0-3 arrows per pair,
loops included), a dimension vector d with 1 <= |d| <= 8 and a central
weight: half the rows spread an integer v over d, the other half draw one
rational per vertex with denominator at most 6, and half of those are moved
onto <delta, d> in Z so that most of their counts are nonzero.  The seed is
fixed, so the file is reproducible.

A row records the exact results of the production routes:

* ``count``: ``magic_dimension``;
* ``admissible``: the number of admissible partitions, and for |d| <= 4
  ``partitions``, their canonical list;
* ``central_weight``: ``find_central_weight`` (it depends on q and d only);
* ``score``: ``score_sequence_count`` on one-vertex rows with an odd number
  of loops and an integer weight parameter.

``second_route`` names what confirmed ``count``: ``"score"`` when the
score-sequence count equals it (rechecked by the test on every run),
``"dfs"`` when the flow-membership walk ``oracle.window_count_dfs`` gave the
same number here, which is done for |d| <= 6, or ``"none"``.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from quasibps import (
    CentralWeight,
    Quiver,
    admissible_partitions,
    find_central_weight,
    magic_dimension,
    score_sequence_count,
)
from quasibps.oracle import window_count_dfs

SEED = 20231
ROWS = 2000
MAX_RANK = 8
DFS_RANK = 6
LIST_RANK = 4
PATH = Path(__file__).with_name("corpus.json")


def random_instance(rng: random.Random):
    """(arrows, d, delta) drawn by the recipe in the module docstring."""
    nv = rng.randint(1, 4)
    arrows = [[0] * nv for _ in range(nv)]
    for i in range(nv):
        for j in range(i, nv):
            arrows[i][j] = arrows[j][i] = rng.randint(0, 3)
    total = rng.randint(1, MAX_RANK)
    cuts = sorted(rng.randint(0, total) for _ in range(nv - 1))
    d = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
    if rng.random() < 0.5:
        delta = CentralWeight.spread(d, rng.randint(-total, 2 * total))
    else:
        values = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(nv)]
        if rng.random() < 0.5:
            # move the last nonzero vertex so that <delta, d> is an integer
            j = max(i for i, m in enumerate(d) if m)
            off = sum(m * x for m, x in zip(d, values))
            values[j] -= (off - round(off)) / d[j]
        delta = CentralWeight(tuple(values))
    return arrows, d, delta


def row_for(arrows, d, delta) -> dict:
    q = Quiver(tuple(map(str, range(len(d)))), tuple(map(tuple, arrows)))
    count = magic_dimension(q, d, delta)
    partitions = admissible_partitions(q, d, delta)
    central = find_central_weight(q, d)
    row = {
        "arrows": arrows,
        "d": list(d),
        "delta": [str(x) for x in delta.values],
        "count": count,
        "admissible": len(partitions),
        "central_weight": None if central is None else [str(x) for x in central.values],
    }
    if sum(d) <= LIST_RANK:
        row["partitions"] = [str(p) for p in partitions]
    v = delta.total_pairing(d)
    route = "none"
    if len(d) == 1 and arrows[0][0] % 2 and v.denominator == 1:
        row["score"] = score_sequence_count(arrows[0][0] // 2, d[0], int(v))
        if row["score"] != count:
            raise AssertionError(f"score walk {row['score']} against count {count}: {row}")
        route = "score"
    elif sum(d) <= DFS_RANK:
        reference = window_count_dfs(q, d, delta)
        if reference != count:
            raise AssertionError(f"flow DFS {reference} against count {count}: {row}")
        route = "dfs"
    row["second_route"] = route
    return row


def main() -> int:
    rng = random.Random(SEED)
    rows = [row_for(*random_instance(rng)) for _ in range(ROWS)]
    body = ",\n".join(json.dumps(row, separators=(",", ":")) for row in rows)
    PATH.write_text(f'{{"seed": {SEED}, "rows": [\n{body}\n]}}\n')
    routes = Counter(row["second_route"] for row in rows)
    print(f"wrote {len(rows)} rows to {PATH.name}; second routes {dict(routes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
