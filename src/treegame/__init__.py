"""Safe (maxmin) strategies for two-player competitive diffusion on trees.

Each public name loads its submodule on first use (PEP 562), so importing
the package, or one submodule, does not import the others.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the public names it exports.
_EXPORTS = {
    "css": (
        "BranchClass", "BranchInfo", "CSSError", "CSSResult", "UsedBranch",
        "analyze_branches", "branch_criterion", "branch_probabilities", "css_run",
    ),
    "diffusion": (
        "Color", "Coloring", "MixedStrategy", "format_fraction", "gain_column", "gain_row",
        "game_matrix", "guaranteed_gain", "maximal_gain", "pure_gain", "simulate_diffusion", "strategy_to_pairs",
    ),
    "experiment": (
        "ExperimentConfig", "ExperimentResult", "Histogram", "TrialFailure", "TrialRecord", "random_tree",
        "run_experiment", "sample_centroidal", "trial_seed", "write_histogram_csv", "write_records_csv",
    ),
    "families": (
        "CompleteTreeSpec", "SpiderSpec", "build_complete_tree", "build_spider", "equal_branch_game",
        "spider_body_reply_gain", "spider_optimal_depth", "spider_safe_strategy",
    ),
    "solver": ("SolverError", "ZeroSumSolution", "solve_value", "verify_solution"),
    "tree": (
        "CentroidInfo", "Tree", "TreeFormatError", "automorphism_orbits", "centroid",
        "distances_from", "parse_tree", "weight_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
