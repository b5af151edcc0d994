"""Labeled chip-firing on k-ary trees with a looped root.

Exact simulation of the labeled firing rule, exhaustive enumeration of
reachable stable configurations, arbitrary-precision bound formulas, and
structural property checks.
"""

from .analysis import (
    ChoiceError,
    ConstructionError,
    FlattenedPermutation,
    PropertyVerdict,
    check_ballot,
    check_minmax_descendants,
    check_zigzag_relation,
    flatten,
    inversions,
    max_inversions,
    replay_lower_bound_construction,
)
from .bounds import (
    BoundReport,
    FormulaError,
    asymptotic_check,
    binary_layer_factor_configs,
    binary_layer_factor_orderings,
    binary_zigzag_bound,
    construction_layer_factor,
    construction_windows,
    euler_zigzag,
    lower_bound_binary,
    lower_bound_general,
    multinomial,
    n_chips,
    naive_bound,
    recursive_orderings_bound,
    sci_parts,
    zigzag_bound,
    zigzag_layer_factor,
)
from .engine import (
    Configuration,
    EndgameShapeError,
    EngineError,
    FiringMove,
    IllegalMoveError,
    ScriptError,
    StepLimitError,
    WaveError,
    endgame_start,
    endgame_start_counts,
    fire,
    format_script,
    initial_config,
    is_stable,
    legal_moves,
    parse_script,
    random_endgame_start,
    run_waves,
    stabilize,
    unlabeled_fire_counts,
    unlabeled_profile,
    unlabeled_relaxation,
    unlabeled_simulate,
)
from .enumeration import (
    EnumerationResult,
    EnumerationTruncated,
    canonical_key,
    count_stable,
    dump_stable,
    enumerate_stable,
    subtree_orderings,
    verify_endgame_confluence,
)
from .tree import TreeShape, children, layer, layer_size, layer_start, parent

__version__ = "0.1.0"
