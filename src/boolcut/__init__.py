"""Minimum-width cutsets in truncated Boolean lattices.

Construct cutsets with provably small width, verify arbitrary cutsets,
measure widths exactly through matching, and search small instances
exhaustively for the true optimum.
"""

from .analysis import CutsetReport, WidthReport, is_antichain, is_cutset, width
from .chains import (
    Chain,
    ChainPartition,
    check_index_monotonicity,
    bounded_chain_partition,
    start_level_counts,
)
from .constructions import (
    Cutset,
    choose_method,
    cutset_auto,
    cutset_bicolor,
    cutset_fourcolor,
    cutset_level,
    cutset_product,
    method_counts,
)
from .errors import DomainError, InternalError
from .formulas import (
    IdentityCheck,
    binomial,
    check_identities,
    conjectured_min_width,
    delta,
    per_level_bound_value,
    symmetric_per_level_bound,
)
from .lattice import NodeSet, TruncatedLattice, level_masks, level_nodes
from .search import (
    ConjectureReport,
    SearchBudget,
    SearchResult,
    SearchStatus,
    conjecture_report,
    exact_min_per_level,
    exact_min_width,
)

__version__ = "0.1.0"
