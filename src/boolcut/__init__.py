"""Minimum-width cutsets in truncated Boolean lattices.

Construct cutsets with provably small width, verify arbitrary cutsets,
measure widths exactly through matching, and search small instances
exhaustively for the true optimum.

Importing the package imports none of its modules: each name below, and
each module, is imported on first use (PEP 562), so that a command of
``boolcut.cli`` loads only the modules it runs.
"""

import importlib as _importlib

# module -> the names the package exports from it
_EXPORTS = {
    "analysis": ("CutsetReport", "WidthReport", "is_antichain", "is_cutset", "width"),
    "chains": (
        "Chain",
        "ChainPartition",
        "check_index_monotonicity",
        "bounded_chain_partition",
        "start_level_counts",
    ),
    "constructions": (
        "Cutset",
        "choose_method",
        "cutset_auto",
        "cutset_bicolor",
        "cutset_fourcolor",
        "cutset_level",
        "cutset_product",
        "method_counts",
    ),
    "errors": ("DomainError", "InternalError"),
    "formulas": (
        "IdentityCheck",
        "binomial",
        "check_identities",
        "conjectured_min_width",
        "delta",
        "per_level_bound_value",
        "symmetric_per_level_bound",
    ),
    "lattice": ("NodeSet", "TruncatedLattice", "level_masks", "level_nodes"),
    "search": (
        "ConjectureReport",
        "SearchBudget",
        "SearchResult",
        "SearchStatus",
        "conjecture_report",
        "exact_min_per_level",
        "exact_min_width",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it here, so this runs once per module.
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
