import sys

import pytest

import treegame

# The public names, each with the submodule that defines it.
EXPORTS = {
    "css": [
        "BranchClass", "BranchInfo", "CSSError", "CSSResult", "UsedBranch",
        "analyze_branches", "branch_criterion", "branch_probabilities", "css_run",
    ],
    "diffusion": [
        "Color", "Coloring", "MixedStrategy", "format_fraction", "gain_column", "gain_row",
        "game_matrix", "guaranteed_gain", "maximal_gain", "pure_gain", "simulate_diffusion", "strategy_to_pairs",
    ],
    "experiment": [
        "ExperimentConfig", "ExperimentResult", "Histogram", "TrialFailure", "TrialRecord", "random_tree",
        "run_experiment", "sample_centroidal", "trial_seed", "write_histogram_csv", "write_records_csv",
    ],
    "families": [
        "CompleteTreeSpec", "SpiderSpec", "build_complete_tree", "build_spider", "equal_branch_game",
        "spider_body_reply_gain", "spider_optimal_depth", "spider_safe_strategy",
    ],
    "solver": ["SolverError", "ZeroSumSolution", "solve_value", "verify_solution"],
    "tree": [
        "CentroidInfo", "Tree", "TreeFormatError", "automorphism_orbits", "centroid",
        "distances_from", "parse_tree", "weight_table",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_each_public_name_once():
    assert len(NAMES) == 52
    assert sorted(treegame.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_modules_object(module, name):
    assert getattr(treegame, name) is getattr(sys.modules[f"treegame.{module}"], name)
    assert name in dir(treegame)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from treegame import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(treegame.__all__)
    assert all(namespace[name] is getattr(treegame, name) for name in namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'treegame' has no attribute 'nope'"):
        treegame.nope
    assert not hasattr(treegame, "gain") and not hasattr(treegame, "strategy_from_pairs")


def test_version_is_a_plain_attribute():
    assert vars(treegame)["__version__"] == "0.1.0"
