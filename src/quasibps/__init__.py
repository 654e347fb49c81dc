"""Exact lattice-point and partition invariants of quasi-BPS categories.

Everything is computed in exact rational arithmetic; no predicate in the
package ever touches floating point.
"""

from .bps import (
    BlockDimTable,
    block_table_from_dict,
    block_table_to_dict,
    bps_assembly_dim,
    builtin_block_table,
    ktheory_dim_from_bps,
    load_block_table,
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
from .oracle import partition_indicator_blockwise
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
from .verify import CheckResult, report_dict, report_json, run_checks
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
from .zonotope import Zonotope, bounding_box, contains, contains_fast, support, weight_zonotope

__version__ = "0.1.0"
