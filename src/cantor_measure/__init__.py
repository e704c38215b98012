"""Exact computable measure theory on Cantor space.

Borel codes as labeled well-founded trees, their evaluation maps, exact
dyadic measure via L1 certificates, rapidly null exclusion tests, Monte
Carlo estimation against the exact engine, budgeted tree decoration, and a
small expression language with a batch CLI.
"""

from .codes import (
    BorelCode,
    ComplNode,
    InterNode,
    Leaf,
    UnionNode,
    addresses,
    annotate_min_ranks,
    bfs_addresses,
    check_rank,
    child_items,
    encode_formulas,
    eval_map_violations,
    evaluate,
    is_alternating,
    is_complement_free,
    make_alternating,
    member,
    membership_table,
    normalize_demorgan,
    relocate,
    subtree,
    support_depth,
    tilde,
)
from .decoration import (
    DecorationGenerator,
    check_preservation,
    decorate,
    empty_generator,
    empty_set_code,
    split_generator,
)
from .dsl import code_from_json, code_to_json, parse_dsl, print_dsl
from .dyadic import Dyadic, DyadicInterval
from .errors import (
    BudgetError,
    CantorMeasureError,
    CertificateError,
    ParseError,
    StatisticalGateError,
    ValidationError,
)
from .gdelta import (
    AvoidsSoFar,
    CapturedAt,
    RapidGDelta,
    avoids,
    budget_report,
    combine,
    covered_cell_count,
    eventually_periodic_avoider,
)
from .measure import (
    RegularityApprox,
    assemble_bad_gdelta,
    build_decomposition,
    char_to_regularity,
    decomposition_from_membership,
    measure_of_code,
    regularity_to_char,
    sup_open_set,
    verify_decomposition,
)
from .names import (
    Captured,
    L1Name,
    agreement_test,
    bad_set,
    bad_set_family,
    char_name,
    constant_name,
    convergence_test,
    diagonal_name,
    inf_name,
    interleave_terms,
    names_equal,
    sup_name,
    value_at,
)
from .ordinals import OrdinalNotation, descending_chain, notations_up_to
from .sampling import (
    Estimate,
    conditional_average,
    mc_integral,
    membership_frequency,
    sampled_average,
)
from .space import (
    ClopenSet,
    ColumnPoint,
    EventuallyPeriodicPoint,
    Point,
    SeededPoint,
    StagedOpenSet,
    TailPoint,
    cantor_pair,
    clopen_complement,
    clopen_intersection,
    clopen_subset,
    clopen_union,
    column,
    enumerate_eventually_periodic,
    mu_I,
    point_in,
    prefix_free_normalize,
    tail_append,
)
from .stepfn import StepFunction, l1_norm

__version__ = "0.1.0"
