"""Rumor-source detection on trees.

Simulate susceptible-infected spreading, locate the source by rumor
centrality under suspect priors, and compare Monte Carlo detection rates
against exact finite-n probabilities and their large-n limits.
"""

from .errors import (BackendError, BudgetError, CapacityError, NoPathError,
                     ParseError, ValidationError)
from .topology import (ExplicitGraph, Graph, LazyRegularTree, Snapshot,
                       ball_size, bfs_tree, load_edge_list, regular_tree,
                       shortest_path)
from .spread import (SpreadConfig, simulate_si, snapshot_from_dict,
                     snapshot_from_json, snapshot_to_dict, snapshot_to_json)
from .centrality import (CentralityReport, LocalCenterVerdict,
                         bfs_heuristic_centrality, centrality_all,
                         local_rumor_center, rumor_centrality, subtree_counts)
from .estimator import (Estimate, SuspectSet, make_suspects_all,
                        make_suspects_connected, make_suspects_two,
                        map_estimate)
from .urn import (PolyaSpec, chain_step_pmf, limit_split_half,
                  path_chain_joint, polya_joint, tree_split_joint,
                  tree_split_marginal)
from .exactprob import (ChainMasses, DetectionResult,
                        audit_two_suspect_closed_form,
                        line_two_suspect_expression, pc_all_suspects,
                        pc_conditional, pc_connected, pc_general_lower_bound,
                        pc_two_suspects, phi1, phi2, phi3,
                        single_subtree_tail, two_suspect_chain_audit,
                        two_suspect_survival_mass)
from .harness import (CSV_COLUMNS, ExperimentConfig, ExperimentReport,
                      figure_sweep, reports_to_csv, run_experiment, run_trial,
                      wilson_interval)

__version__ = "0.1.0"

__all__ = [
    "BackendError", "BudgetError", "CapacityError", "NoPathError",
    "ParseError", "ValidationError",
    "ExplicitGraph", "Graph", "LazyRegularTree", "Snapshot", "ball_size",
    "bfs_tree", "load_edge_list", "regular_tree", "shortest_path",
    "SpreadConfig", "simulate_si", "snapshot_from_dict", "snapshot_from_json",
    "snapshot_to_dict", "snapshot_to_json", "subtree_counts",
    "CentralityReport", "LocalCenterVerdict", "bfs_heuristic_centrality",
    "centrality_all", "local_rumor_center", "rumor_centrality",
    "Estimate", "SuspectSet", "make_suspects_all", "make_suspects_connected",
    "make_suspects_two", "map_estimate",
    "PolyaSpec", "chain_step_pmf", "limit_split_half",
    "path_chain_joint", "polya_joint", "tree_split_joint", "tree_split_marginal",
    "ChainMasses", "DetectionResult", "audit_two_suspect_closed_form",
    "line_two_suspect_expression", "pc_all_suspects", "pc_conditional",
    "pc_connected", "pc_general_lower_bound", "pc_two_suspects",
    "phi1", "phi2", "phi3", "single_subtree_tail", "two_suspect_chain_audit",
    "two_suspect_survival_mass",
    "CSV_COLUMNS", "ExperimentConfig", "ExperimentReport", "figure_sweep",
    "reports_to_csv", "run_experiment", "run_trial", "wilson_interval",
]
