"""The dynamic balls-and-bins game of Section 4.

There are ``n`` bins and an oblivious adversary issuing an arbitrary
sequence of ball insertions and deletions (re-insertions allowed) subject to
at most ``m`` balls being live at once. A placement strategy maps each
inserted ball to a bin using hashed choices; the figure of merit is the
maximum bin load over time, because in the RAM-allocation application the
maximum load must stay below the bucket capacity ``B`` or a *paging
failure* occurs.

The game is *online* (placements happen before future requests are known)
and *stable* (a ball's bin never changes while it is live) — both properties
the paper requires of a huge-page decoupling scheme.
"""

from __future__ import annotations

import numpy as np

from .._util import check_positive_int
from .strategies import PlacementStrategy

__all__ = ["BallsAndBinsGame"]


class BallsAndBinsGame:
    """Run a placement strategy against insert/delete requests.

    Parameters
    ----------
    n_bins:
        Number of bins ``n``.
    strategy:
        The placement rule (OneChoice, Greedy[d], Iceberg[d], …); the game
        binds it to ``n_bins`` and *seed*.
    bin_capacity:
        Optional hard capacity ``B``; with it set, an insertion whose
        eligible choices are all full *fails* (the ball is not placed) and
        is counted in :attr:`failures` — mirroring paging failures. Without
        it, bins are unbounded and only the load profile is studied.
    seed:
        Seed for the strategy's hash functions.
    """

    def __init__(
        self,
        n_bins: int,
        strategy: PlacementStrategy,
        *,
        bin_capacity: int | None = None,
        seed=None,
    ) -> None:
        self.n_bins = check_positive_int(n_bins, "n_bins")
        if bin_capacity is not None:
            bin_capacity = check_positive_int(bin_capacity, "bin_capacity")
        self.bin_capacity = bin_capacity
        self.strategy = strategy
        strategy.bind(self.n_bins, bin_capacity, seed)
        self.loads = np.zeros(self.n_bins, dtype=np.int64)
        self._bin_of: dict = {}
        # Histogram of bin loads for O(1) amortized max-load maintenance:
        # _load_counts[L] = number of bins with load exactly L.
        self._load_counts: dict[int, int] = {0: self.n_bins}
        self._max_load = 0
        self.failures = 0
        self.insertions = 0
        self.deletions = 0
        self.peak_load = 0

    # ------------------------------------------------------------------ api

    def insert(self, ball) -> int | None:
        """Insert *ball*; return its bin, or None if placement failed.

        Raises ValueError if *ball* is already live (the adversary may
        re-insert only after deleting).
        """
        placed = self.place(ball)
        return None if placed is None else placed[0]

    def place(self, ball) -> tuple[int, int] | None:
        """:meth:`insert` returning ``(bin, choice)`` as the strategy's ``place`` does."""
        if ball in self._bin_of:
            raise ValueError(f"ball {ball!r} is already live")
        self.insertions += 1
        placed = self.strategy.place(ball, self.loads)
        if placed is None:
            self.failures += 1
            return None
        b = placed[0]
        old = self.loads.item(b)
        self.loads[b] = old + 1
        self._bump(old, old + 1)
        self._bin_of[ball] = b
        return placed

    def delete(self, ball) -> int:
        """Delete live *ball*; return the bin it occupied."""
        b = self._bin_of.pop(ball)  # raises KeyError if not live
        self.deletions += 1
        old = self.loads.item(b)
        self.loads[b] = old - 1
        self._bump(old, old - 1)
        self.strategy.unplace(ball, b)
        return b

    def bin_of(self, ball) -> int | None:
        """Bin of a live ball, or None if the ball is not live."""
        return self._bin_of.get(ball)

    def __len__(self) -> int:
        return len(self._bin_of)

    def __contains__(self, ball) -> bool:
        return ball in self._bin_of

    # ------------------------------------------------------------ load stats

    @property
    def max_load(self) -> int:
        """Current maximum bin load."""
        return self._max_load

    @property
    def average_load(self) -> float:
        """Current average load λ = live balls / bins."""
        return len(self._bin_of) / self.n_bins

    def _bump(self, old: int, new: int) -> None:
        counts = self._load_counts
        counts[old] -= 1
        if counts[old] == 0:
            del counts[old]
        counts[new] = counts.get(new, 0) + 1
        if new > self._max_load:
            self._max_load = new
            if new > self.peak_load:
                self.peak_load = new
        elif old == self._max_load and old not in counts:
            # the unique max shrank; walk down to the next occupied level
            level = self._max_load - 1
            while level > 0 and level not in counts:
                level -= 1
            self._max_load = level

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BallsAndBinsGame n={self.n_bins} balls={len(self._bin_of)} "
            f"max_load={self._max_load} failures={self.failures}>"
        )
