"""Recompute every row of the golden corpus exactly.

``tests/data/corpus.json`` holds 2,000 seeded instances with rank at most 8
and the integers the production routes gave for them; ``make_corpus.py``
beside it writes the file and documents the recipe and the fields.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from quasibps import (
    CentralWeight,
    Quiver,
    admissible_partitions,
    find_central_weight,
    loop_count,
    magic_dimension,
    score_sequence_count,
)

ROWS = json.loads((Path(__file__).parent / "data" / "corpus.json").read_text())["rows"]


def _instance(row):
    q = Quiver(tuple(map(str, range(len(row["d"])))), tuple(map(tuple, row["arrows"])))
    return q, tuple(row["d"]), CentralWeight(tuple(map(Fraction, row["delta"])))


def test_corpus_covers_the_recipe():
    assert len(ROWS) == 2000
    assert all(1 <= sum(row["d"]) <= 8 for row in ROWS)
    assert Counter(len(row["d"]) for row in ROWS).keys() == {1, 2, 3, 4}
    routes = Counter(row["second_route"] for row in ROWS)
    assert routes.keys() == {"dfs", "score", "none"}
    assert sum(row["count"] > 0 for row in ROWS) > len(ROWS) // 2
    assert sum(sum(map(bool, row["d"])) >= 3 for row in ROWS) > 300


@pytest.mark.parametrize("start", range(0, 2000, 250))
def test_corpus_rows_recompute_exactly(start):
    mismatches = []
    for n, row in enumerate(ROWS[start:start + 250], start):
        q, d, delta = _instance(row)
        partitions = admissible_partitions(q, d, delta)
        central = find_central_weight(q, d)
        got = {
            "count": magic_dimension(q, d, delta),
            "admissible": len(partitions),
            "central_weight": None if central is None else [str(x) for x in central.values],
        }
        if "partitions" in row:
            got["partitions"] = [str(p) for p in partitions]
        if "score" in row:
            v = delta.total_pairing(d)
            got["score"] = score_sequence_count(row["arrows"][0][0] // 2, d[0], int(v))
            assert row["second_route"] == "score" and row["score"] == row["count"]
        want = {key: row[key] for key in got}
        if got != want:
            mismatches.append((n, want, got))
    assert not mismatches, f"{len(mismatches)} rows differ, first {mismatches[:3]}"


def test_closed_form_matches_the_one_vertex_odd_loop_rows():
    """Every one-vertex row with an odd loop count and an integral <delta, d>
    is a `loop_count` instance; its recorded count is the closed form's."""
    mismatches, seen = [], 0
    for n, row in enumerate(ROWS):
        loops = row["arrows"][0][0]
        if len(row["d"]) != 1 or loops % 2 == 0:
            continue
        _, d, delta = _instance(row)
        v = delta.total_pairing(d)
        if v.denominator != 1:
            continue
        seen += 1
        got = loop_count(loops // 2, d[0], int(v))
        if got != row["count"]:
            mismatches.append((n, row["count"], got))
    assert seen == 234
    assert not mismatches, f"{len(mismatches)} rows differ, first {mismatches[:3]}"
