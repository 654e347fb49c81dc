"""The three benchmark workloads: fixed instances plus one seeded sweep each.

A workload fixes an amount of work, never a time budget.  Its fixed
instances are CLI command lines; the first one listed is the workload's
heaviest single command, reported as ``largest_s``.  Its sweep family is a
finite list of small library calls, every member pinned in
``expected.json``; a seed picks which members run and in what order.

This module only describes inputs.  It never imports ``quasibps``, so
``run.py`` can build a pass's instance list without loading the code
under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("one-vertex", "multi-vertex", "partitions")


def toric(g: int):
    return [[1, 2 * g + 1], [2 * g + 1, 1]]


# Arrow matrices by name.  A fixed instance refers to a quiver file as
# "@name"; run.py writes the file before the first pass.
QUIVERS = {
    **{f"toric{g}": toric(g) for g in range(5)},
    "cross": [[1, 2], [2, 1]],
    "three": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "loops2": [[2]],
    "loops3": [[3]],
}

# (argv, JSON output keys checked); the first entry is the workload's
# largest_s command.
FIXED = {
    "one-vertex": [
        (["magic-count", "--loops", "3", "--dim", "8", "--v", "1"], ("magic_k0_dim",)),
        (["ih-dim", "--loops", "3", "--dim", "10", "--v", "1"], ("ih_dim",)),
    ],
    "multi-vertex": [
        (["magic-count", "--quiver", "@toric1", "--dim", "3,4", "--v", "1"], ("magic_k0_dim",)),
        (["magic-count", "--quiver", "@cross", "--dim", "3,3", "--v", "0"], ("magic_k0_dim",)),
        (["magic-count", "--quiver", "@three", "--dim", "2,2,2", "--v", "1"], ("magic_k0_dim",)),
    ],
    "partitions": [
        (["s-set", "--loops", "3", "--dim", "13", "--v", "0"], ("count", "partitions")),
        (["s-set", "--loops", "3", "--dim", "12", "--v", "1"], ("count", "partitions")),
        (["bps-dim", "--loops", "3", "--dim", "12", "--v", "0",
          "--builtin", "tripled-one-loop"], ("bps_dim",)),
    ],
}


def fixed_name(argv) -> str:
    return " ".join(argv)


def cli_argv(argv, quiver_dir: Path) -> list[str]:
    """The command line as run: quiver files resolved, JSON output."""
    return [str(quiver_dir / f"{a[1:]}.json") if a.startswith("@") else a
            for a in argv] + ["--output", "json"]


def sweep_family(workload: str) -> list[dict]:
    """Every member of the workload's sweep family, in a fixed order.

    one-vertex: (g, d, v) for the 2g+1 loop quiver, computed by the window
    route and the score route.  multi-vertex: window counts on quivers with
    arrows between vertices.  partitions: central-weight searches; d = (4,4)
    is left out because one such search costs more than the whole sample of
    the others.
    """
    if workload == "one-vertex":
        return [{"g": g, "d": d, "v": v}
                for g in range(3) for d in range(1, 6) for v in range(2 * d + 1)]
    if workload == "multi-vertex":
        dims = {f"toric{g}": [(1, 1), (1, 2), (2, 2)] for g in range(5)}
        dims["cross"] = [(1, 1), (1, 2), (2, 2)]
        dims["three"] = [(1, 1, 1), (1, 1, 2)]
        return [{"quiver": name, "d": list(d), "v": v}
                for name, ds in dims.items() for d in ds for v in range(-3, 4)]
    if workload == "partitions":
        dims = {"loops2": [(n,) for n in range(1, 9)],
                "loops3": [(n,) for n in range(1, 9)],
                "cross": [(a, b) for a in range(1, 5) for b in range(1, 5) if a + b < 8],
                "toric1": [(a, b) for a in range(1, 5) for b in range(1, 5) if a + b < 8]}
        return [{"quiver": name, "d": list(d)} for name, ds in dims.items() for d in ds]
    raise ValueError(f"unknown workload {workload!r}")


def case_key(case: dict) -> str:
    """Key of a sweep member in the pinned table."""
    if "g" in case:
        return f"g={case['g']} d={case['d']} v={case['v']}"
    d = ",".join(str(c) for c in case["d"])
    if "v" in case:
        return f"{case['quiver']} d={d} v={case['v']}"
    return f"{case['quiver']} d={d}"


def stratum(case: dict) -> str:
    """Members of one stratum cost about the same.

    one-vertex: same g and d.  multi-vertex: same quiver, d and |v|.
    partitions: the same d up to swapping the two vertices.
    """
    if "g" in case:
        return f"g={case['g']} d={case['d']}"
    if "v" in case:
        return f"{case['quiver']} d={case['d']} |v|={abs(case['v'])}"
    return f"{case['quiver']} d={sorted(case['d'])}"


def sample_sweep(workload: str, seed: int) -> list[dict]:
    """The seeded sample of the sweep family: half of each stratum, rounded up.

    A fixed share per stratum keeps the work of a pass nearly the same for
    every seed; a plain sample would take a varying number of the few costly
    members.  The seed picks the members within each stratum and the order
    of the whole sample.
    """
    rng = random.Random(f"{workload}/{seed}")
    strata: dict[str, list[dict]] = {}
    for case in sweep_family(workload):
        strata.setdefault(stratum(case), []).append(case)
    sample = []
    for members in strata.values():
        sample += rng.sample(members, (len(members) + 1) // 2)
    rng.shuffle(sample)
    return sample


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def build_pass_input(workload: str, seed: int, quiver_dir: Path) -> dict:
    """Everything one pass process needs: instances with their pinned answers."""
    expected = load_expected()
    fixed = []
    for argv, keys in FIXED[workload]:
        name = fixed_name(argv)
        fixed.append({"name": name, "argv": cli_argv(argv, quiver_dir),
                      "keys": list(keys), "expect": expected["fixed"][name]})
    sweep = []
    for case in sample_sweep(workload, seed):
        case = dict(case, expect=expected[workload][case_key(case)])
        if "quiver" in case:
            case["arrows"] = QUIVERS[case["quiver"]]
        sweep.append(case)
    return {"workload": workload, "fixed": fixed, "sweep": sweep}


def write_quiver_files(quiver_dir: Path) -> None:
    quiver_dir.mkdir(parents=True, exist_ok=True)
    for name, arrows in QUIVERS.items():
        obj = {"vertices": [str(i) for i in range(len(arrows))], "arrows": arrows}
        (quiver_dir / f"{name}.json").write_text(json.dumps(obj) + "\n")
