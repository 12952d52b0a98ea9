"""Contribution scoring for cross-silo federated learning.

The library computes per-client contribution scores that remain computable
when secure aggregation hides individual updates (FP and EE, which need
only 2N+2 model evaluations per round), alongside the classical references
they are judged against: exact and multi-round Shapley, leave-one-out,
include-one-in, and cosine similarity.  A small deterministic federated
simulator provides transcripts, ground-truth retraining games, and the
experiment harness that compares everything end to end.
"""

from .games import (
    CoalitionOracle,
    GameError,
    METHOD_LABELS,
    ScoreVector,
    TableGame,
    load_table_game,
    shapley_exact,
)
from .metrics import (
    MetricError,
    NormalizedScores,
    RankCorrelation,
    detection_rate,
    kendall,
    l2_distance,
    normalize_scores,
    pearson,
    rank_correlation,
    spearman,
)
from .protocol import (
    InfluenceMatrix,
    MisreportStrategy,
    ProtocolError,
    SweepRow,
    collect_reports,
    influence,
    influence_matrix,
    manipulation_sweep,
)
from .scoring import (
    EeNumerators,
    FpAlpha,
    RoundUtilities,
    ScoringError,
    cos_accumulated,
    cos_score,
    ee,
    ee_numerators,
    fp,
    fp_alpha,
    game_round_utilities,
    ioi,
    loo,
    mr_shapley,
    scores_from_csv,
    scores_to_csv,
    utilities_from_transcript,
)
from . import fedsim
from .fedsim import (
    FederationConfig,
    LabeledDataset,
    ModelEvaluator,
    ModelParams,
    RetrainingGame,
    RoundTranscript,
    SyntheticSpec,
    model_eval_oracle,
    round_oracle,
    run_federation,
)

__version__ = "0.1.0"

__all__ = [
    "CoalitionOracle",
    "EeNumerators",
    "FederationConfig",
    "FpAlpha",
    "GameError",
    "InfluenceMatrix",
    "LabeledDataset",
    "METHOD_LABELS",
    "MetricError",
    "MisreportStrategy",
    "ModelEvaluator",
    "ModelParams",
    "NormalizedScores",
    "ProtocolError",
    "RankCorrelation",
    "RetrainingGame",
    "RoundTranscript",
    "RoundUtilities",
    "ScoreVector",
    "ScoringError",
    "SweepRow",
    "SyntheticSpec",
    "TableGame",
    "collect_reports",
    "cos_accumulated",
    "cos_score",
    "detection_rate",
    "ee",
    "ee_numerators",
    "fedsim",
    "fp",
    "fp_alpha",
    "game_round_utilities",
    "influence",
    "influence_matrix",
    "ioi",
    "kendall",
    "l2_distance",
    "load_table_game",
    "loo",
    "manipulation_sweep",
    "model_eval_oracle",
    "mr_shapley",
    "normalize_scores",
    "pearson",
    "rank_correlation",
    "round_oracle",
    "run_federation",
    "scores_from_csv",
    "scores_to_csv",
    "shapley_exact",
    "spearman",
    "utilities_from_transcript",
]
