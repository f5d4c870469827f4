"""Exact solvers for Carroll elections, minimum-degree greedy analysis on
graphs, and a machine-verified reduction between the two worlds."""

from .batch import (
    AnswerVector,
    Query,
    QueryBatch,
    carroll_winner_pipeline,
    evaluate_batch,
    ratio_pipeline,
    scores_from_answers,
)
from .elections import (
    Candidate,
    Election,
    PreferenceOrder,
    ScoreCertificate,
    all_winners,
    apply_raise,
    apply_swap,
    carroll_score,
    condorcet_winner,
    defeats,
    is_carroll_winner,
    max_score,
    pairwise_tally,
    replay_witness,
    score_at_most,
    ties_or_defeats,
)
from .errors import BudgetExceededError, IntegrityError, ParseError
from .formats import (
    format_election,
    format_graph,
    format_partmap,
    parse_election,
    parse_graph,
    parse_partmap,
)
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    GreedyTrace,
    achieves_ratio,
    best_greedy_trace,
    clique_number,
    greedy_independence_number,
    greedy_reaches,
    has_odd_clique_number,
    independence_number,
    max_independent_set,
    min_degree_greedy,
    replay_trace,
)
from .reductions import (
    ReductionArtifact,
    ReductionReport,
    build_reduction,
    check_artifact_structure,
    double_subdivision,
    pad_edges,
    pad_vertices,
    same_independence_number,
    verify_reduction,
)

__version__ = "0.1.0"
