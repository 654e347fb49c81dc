"""Exact lattice-point and partition invariants of quasi-BPS categories.

Everything is computed in exact rational arithmetic; no predicate in the
package ever touches floating point.

The names from ``oracle``, ``verify`` and ``zonotope`` (the reference
routes, the self-checks and the weight zonotope ``Zonotope(dim, arcs)``)
load on first use, so a command that needs none of them does not load them.
"""

from .bps import (
    BlockDimTable,
    block_table_from_dict,
    block_table_to_dict,
    bps_assembly_dim,
    builtin_block_table,
    ktheory_dim_from_bps,
    load_block_table,
    loop_count,
    partition_count,
    score_sequence_count,
    sym_power_dim,
)
from .errors import (
    AsymmetricQuiverError,
    CutoffExceededError,
    InputSchemaError,
    MissingBlockError,
    RouteDisagreementError,
)
from .magic import magic_dimension, magic_dimension_v
from .partitions import (
    VectorPartition,
    admissible_partitions,
    enumerate_vector_partitions,
    find_central_weight,
    partition_indicator,
)
from .quiver import (
    Quiver,
    WeightMultiset,
    double,
    is_symmetric,
    load_quiver,
    loop_quiver,
    quiver_from_dict,
    quiver_to_dict,
    total_dim,
    triple,
    weight_multisets,
)
from .weights import (
    CentralWeight,
    integrality_indicator,
    is_antidominant,
    is_dominant,
    level_partition,
    ones_vector,
    pairing,
    parse_rational,
    weyl_vector,
    window_width,
)

__version__ = "0.1.0"

_LAZY = {
    "partition_indicator_blockwise": "oracle",
    **dict.fromkeys(("CheckResult", "report_dict", "report_json", "run_checks"), "verify"),
    **dict.fromkeys(("Zonotope", "bounding_box", "contains", "contains_fast", "support",
                     "weight_zonotope"), "zonotope"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
