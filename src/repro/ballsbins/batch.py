"""Vectorized replay of interleaved balls-and-bins event streams.

The array engine's decoupled/hybrid handler knows a whole RAM segment's
insert/evict event stream up front (offline-LRU miss positions and death
positions), but :class:`~.game.BallsAndBinsGame` only exposes per-event
``insert``/``delete`` — a Python round-trip through ``place()`` object
dispatch and dict bookkeeping per RAM miss.

:func:`replay_game_events` replays the same stream in bulk:

1. deduplicate the touched balls and hash **all** their candidate bins in
   one vectorized pass per choice (``HashFamily`` guarantees scalar/vector
   parity);
2. run the strategy's ``batch_place`` hook — the only Python pass over the
   stream: a tight event loop over plain lists indexed by distinct ball
   (its bin and, for a bucketed allocator, its slot and the LIFO
   free-slot stacks), with no dict churn and no per-event dispatch;
3. commit in bulk. After the loop the per-ball lists *are* every ball's
   final state, so there is nothing left to fold: loads are written back
   in place, the load histogram is rebuilt from one ``bincount``,
   counters advance, the live-ball map takes one ``dict.update``, and the
   choice indices come from one array comparison against the candidates.
   The strategy, the allocator and the decoupling scheme commit their own
   state from the same per-ball lists.

The result is a :class:`BatchDecisions`. State after the call is
bit-identical to the per-event game stopped right after the first failing
insert — the mid-segment bailout contract the array engine relies on.

Event interleave convention (the array engine's): for insert index ``k``,
if ``k >= first_evt`` the eviction ``k - first_evt`` is applied immediately
before it, so ``len(evicts) == max(0, len(inserts) - first_evt)``. Streams
must be valid (no insert of a live ball, no evict of a dead one); the
kernel trusts the caller and does not re-validate per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

__all__ = ["BatchDecisions", "commit_live", "replay_game_events"]


@dataclass(slots=True, eq=False)
class BatchDecisions:
    """The decisions of one bulk replay and the state it left, per ball.

    Per applied insert — all of them on a clean run, or inserts
    ``0..failed`` when one fails (the failure is applied: it counts, but
    places nothing and shows as ``-1``): ``bins``, ``choices`` (the
    first-match candidate index, ``choice_index`` semantics) and, for a
    replay with free-slot stacks, ``slots`` (the failure has none).

    Per distinct ball of the stream (``balls``, ascending): ``bin_of`` is
    its bin after the replay (-1 = not live), ``slot_of`` its slot, and
    ``choice_of`` its candidate index (-1 = not live).
    """

    balls: np.ndarray  #: distinct balls of the stream, ascending int64
    bin_of: list[int]  #: per ball: bin after the replay, -1 = not live
    slot_of: list[int] | None = None  #: per ball: slot within its bin
    bins: list[int] = field(default_factory=list)
    slots: list[int] = field(default_factory=list)
    choices: list[int] = field(default_factory=list)
    failed: int = -1  #: index of the first failing insert, or -1
    choice_of: np.ndarray | None = None
    _split: tuple | None = field(default=None, init=False, repr=False)

    @property
    def applied(self) -> int:
        """Number of inserts applied (the failing one included)."""
        return len(self.bins)

    def split(self) -> tuple[np.ndarray, np.ndarray, list, list]:
        """``(bins, live, kept, dropped)``: ``bin_of`` as an array, the
        mask of balls live after the replay, and the live and not-live
        balls as Python ints — computed once, shared by every commit."""
        if self._split is None:
            bins = np.asarray(self.bin_of, dtype=np.int64)
            live = bins >= 0
            self._split = (
                bins,
                live,
                self.balls[live].tolist(),
                self.balls[~live].tolist(),
            )
        return self._split


def commit_live(mapping: dict, decisions: BatchDecisions, values: np.ndarray) -> None:
    """Give every ball live after the replay its entry of *values* (one per
    ball of the stream) in *mapping*, and drop the other balls."""
    _, live, kept, dropped = decisions.split()
    mapping.update(zip(kept, values[live].tolist()))
    pop = mapping.pop
    for ball in dropped:
        pop(ball, None)


def replay_game_events(game, inserts, evicts, first_evt: int = 0, slots=None):
    """Bulk-replay an interleaved insert/evict stream against *game*.

    Equivalent to the per-event ``insert``/``delete`` call sequence under
    the interleave convention above, stopping right after the first failing
    insert. *slots*, for a game that backs a bucketed allocator, is the
    pair ``(free_slots, frame_of)``: the per-bin LIFO free-slot stacks
    (mutated in place exactly as per-event ``pop``/``append`` would) and
    the ball → frame map, a frame being ``bin * bin_capacity + slot``.
    Returns the :class:`BatchDecisions`, or None when the game's strategy
    has no ``batch_place`` hook (callers replay per-event).
    """
    strategy = game.strategy
    batch_place = getattr(strategy, "batch_place", None)
    if batch_place is None:
        return None
    n_ins = len(inserts)
    if first_evt < 0:
        raise ValueError(f"first_evt must be >= 0, got {first_evt}")
    if len(evicts) != max(0, n_ins - first_evt):
        raise ValueError(
            f"{len(evicts)} evictions do not interleave with {n_ins} "
            f"inserts at first_evt={first_evt} "
            f"(need {max(0, n_ins - first_evt)})"
        )

    balls, inverse = np.unique(
        np.concatenate(
            [np.asarray(inserts, dtype=np.int64), np.asarray(evicts, dtype=np.int64)]
        ),
        return_inverse=True,
    )
    inverse = inverse.reshape(-1)
    ins_u = inverse[:n_ins]
    # ev_u[k]: the ball evicted right before insert k, or -1
    ev_u = np.full(n_ins, -1, dtype=inverse.dtype)
    ev_u[first_evt:] = inverse[n_ins:]
    uniq = balls.tolist()
    if slots is None:
        free = None
        fold = BatchDecisions(balls, list(map(game._bin_of.get, uniq, repeat(-1))))
    else:
        free, frame_of = slots
        frames = np.fromiter(map(frame_of.get, uniq, repeat(-1)), np.int64, len(uniq))
        size = game.bin_capacity
        fold = BatchDecisions(
            balls,
            np.where(frames < 0, -1, frames // size).tolist(),
            (frames % size).tolist(),
        )
    cands = strategy.batch_candidates(balls)
    loads = game.loads.tolist()
    peak = batch_place(cands.tolist(), fold, ins_u.tolist(), ev_u.tolist(), loads, free)

    # ---- commit: decisions, loads, histogram, counters, live-ball map -----
    n_applied = len(fold.bins)
    placed = n_applied
    if n_applied and fold.bins[-1] < 0:
        fold.failed = placed = n_applied - 1
    bins, live, _, _ = fold.split()
    # first-match candidate index of every placement (choice_index)
    hits = cands[:, ins_u[:placed]] == np.asarray(fold.bins[:placed])
    fold.choices = hits.argmax(axis=0).tolist() + [-1] * (n_applied - placed)
    fold.choice_of = np.where(live, (cands == bins).argmax(axis=0), -1)
    game.loads[:] = loads
    counts = np.bincount(game.loads)
    load_counts = game._load_counts
    load_counts.clear()
    for level, count in enumerate(counts.tolist()):
        if count:
            load_counts[level] = count
    game._max_load = len(counts) - 1  # bincount's last level is the max
    if peak > game.peak_load:
        game.peak_load = peak
    game.insertions += n_applied
    game.deletions += max(0, n_applied - first_evt)
    if fold.failed >= 0:
        game.failures += 1
    commit_live(game._bin_of, fold, bins)
    return fold
