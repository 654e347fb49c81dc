import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasibps

# every name the package re-exports, eagerly or lazily, by home module
EXPORTS = {
    "bps": ["BlockDimTable", "block_table_from_dict", "block_table_to_dict", "bps_assembly_dim",
            "builtin_block_table", "ktheory_dim_from_bps", "load_block_table",
            "loop_count", "partition_count", "score_sequence_count", "sym_power_dim"],
    "errors": ["AsymmetricQuiverError", "CutoffExceededError", "InputSchemaError",
               "MissingBlockError", "RouteDisagreementError"],
    "magic": ["magic_dimension", "magic_dimension_v"],
    "oracle": ["partition_indicator_blockwise"],
    "partitions": ["VectorPartition", "admissible_partitions", "enumerate_vector_partitions",
                   "find_central_weight", "partition_indicator"],
    "quiver": ["Quiver", "WeightMultiset", "double", "is_symmetric", "load_quiver",
               "loop_quiver", "quiver_from_dict", "quiver_to_dict", "total_dim", "triple",
               "weight_multisets"],
    "verify": ["CheckResult", "report_dict", "report_json", "run_checks"],
    "weights": ["CentralWeight", "integrality_indicator", "is_antidominant", "is_dominant",
                "level_partition", "ones_vector", "pairing", "parse_rational", "weyl_vector",
                "window_width"],
    "zonotope": ["Zonotope", "bounding_box", "contains", "contains_fast", "support",
                 "weight_zonotope"],
}

COLD_START = """
import json, sys
import quasibps, quasibps.cli
from quasibps import CentralWeight, Quiver, magic_dimension
watched = ("quasibps.verify", "quasibps.oracle", "quasibps.zonotope", "dataclasses")
after_import = [m for m in watched if m in sys.modules]
q, d, delta = Quiver(("0", "1"), ((1, 3), (3, 1))), (2, 2), CentralWeight((1, 0))
fast = magic_dimension(q, d, delta)
checked = magic_dimension(q, d, delta, fast="checked")
print(json.dumps([after_import, fast, checked, "quasibps.oracle" in sys.modules]))
"""


def test_cli_import_loads_only_the_command_path():
    src = str(Path(quasibps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", COLD_START], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    after_import, fast, checked, oracle_loaded = json.loads(out)
    assert after_import == []
    assert fast == checked > 0
    assert oracle_loaded


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_package_exports_resolve_to_their_home_module(module):
    home = importlib.import_module(f"quasibps.{module}")
    for name in EXPORTS[module]:
        namespace = {}
        exec(f"from quasibps import {name}", namespace)
        assert namespace[name] is getattr(home, name)
        assert name in dir(quasibps)


def test_bench_trace_targets_resolve():
    """Every function the benchmark tracer wraps exists; a missing one reads null there."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name, _ in tracing.TARGETS:
        home = importlib.import_module(f"quasibps.{module}")
        assert callable(getattr(home, name, None)), f"quasibps.{module}.{name}"


def test_unknown_package_name_raises():
    with pytest.raises(AttributeError):
        quasibps.no_such_name
    with pytest.raises(ImportError):
        exec("from quasibps import no_such_name", {})


def test_no_module_level_cache():
    """No function in the package is memoized by ``functools.lru_cache`` or
    ``functools.cache``: a count is a function of its arguments alone."""
    found = []
    for path in sorted((ROOT / "src" / "quasibps").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for dec in getattr(node, "decorator_list", ()):
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    found.append(f"{path.name}:{dec.lineno}")
    assert found == []
