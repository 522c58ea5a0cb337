"""Dynamic balls-and-bins substrate (paper Section 4).

RAM-allocation schemes are modeled as balls-and-bins games: bins are RAM
buckets, balls are pages, and the adversary is the RAM-replacement policy.
This package provides the game, the placement strategies (OneChoice,
Greedy[d], Greedy-Left, Iceberg[d]), oblivious adversaries, and the theory
curves of eqs. (5)–(6) and Theorem 2.
"""

from .adversary import batch_turnover, cyclic_reinsertion, fifo_churn, fill, random_churn
from .batch import BatchDecisions, commit_live, replay_game_events
from .analysis import (
    GameResult,
    greedy_max_load_bound,
    iceberg_max_load_bound,
    one_choice_max_load_bound,
    run_game,
)
from .game import BallsAndBinsGame
from .strategies import (
    GreedyLeftStrategy,
    GreedyStrategy,
    IcebergStrategy,
    OneChoiceStrategy,
    PlacementStrategy,
)

__all__ = [
    "BallsAndBinsGame",
    "BatchDecisions",
    "commit_live",
    "replay_game_events",
    "PlacementStrategy",
    "OneChoiceStrategy",
    "GreedyStrategy",
    "GreedyLeftStrategy",
    "IcebergStrategy",
    "fill",
    "fifo_churn",
    "random_churn",
    "cyclic_reinsertion",
    "batch_turnover",
    "GameResult",
    "run_game",
    "one_choice_max_load_bound",
    "greedy_max_load_bound",
    "iceberg_max_load_bound",
]
