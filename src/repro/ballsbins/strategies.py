"""Placement strategies for the dynamic balls-and-bins game.

The paper's Section 4 analyses three families:

* **OneChoice** (``k=1``): a single hash; max load ``λ + O(√(λ log n))``
  for ``λ = ω(log n)`` (Raab & Steger, eq. 5) — used in the warmup
  Theorem 1.
* **Greedy[d]** (``k=d``): place in the least loaded of ``d`` hashed bins;
  dynamic max load ``O(λ) + log log n + O(1)`` (Vöcking, eq. 6). The
  ``Ω(λ)`` gap above average is why Greedy alone cannot give ``δ = o(1)``.
* **Iceberg[d]** (``k=d+1``): try the *front* bin ``h₁(x)`` while its front
  load is below ``(1+ε)λ``; overflow balls spill to Greedy[d] on
  ``h₂,…,h_{d+1}`` over *back* loads only (footnote 4: the two layers
  ignore each other's balls). Theorem 2: max load
  ``(1+o(1))λ + log log n + O(1)`` dynamically — the key to Theorem 3.

Strategies are *stable* (no relocation) and *online* by construction.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from functools import partial
from itertools import repeat

import numpy as np

from .._util import check_positive_int
from ..hashing import HashFamily
from .batch import commit_live

__all__ = [
    "PlacementStrategy",
    "OneChoiceStrategy",
    "GreedyStrategy",
    "GreedyLeftStrategy",
    "IcebergStrategy",
]


class PlacementStrategy(ABC):
    """Stateful placement rule bound to a bin count and a seed."""

    #: number of hash functions the strategy evaluates per ball.
    choices: int = 1
    #: short registry name.
    name: str = "abstract"
    #: Optional bulk-replay hook consumed by
    #: :func:`repro.ballsbins.batch.replay_game_events`. Concrete strategies
    #: implement it as a method with the signature
    #: ``batch_place(cands, fold, ins_u, ev_u, loads, free)``: *cands* holds
    #: one list of candidate bins per choice, indexed by distinct ball;
    #: *fold* is the :class:`~repro.ballsbins.batch.BatchDecisions` being
    #: filled (per-ball ``bin_of``, and ``slot_of`` when *free* is given);
    #: ``ins_u[k]`` is the ball of insert ``k`` and ``ev_u[k]`` the ball
    #: evicted right before it (-1: none); *loads* is a mutable list of bin
    #: loads; *free* the per-bin LIFO free-slot stacks of a bucketed
    #: allocator, or None. It must replay the stream with ``place``'s exact
    #: semantics in one pass, stopping right after the first failing
    #: insert: update the per-ball lists, *loads*, *free* and any
    #: strategy-internal state, append each applied insert's bin (-1 for the
    #: failure) to ``fold.bins`` and its slot to ``fold.slots``, and return
    #: the highest load any insert produced. ``None`` means the strategy has
    #: no batch path and callers must replay per-event.
    batch_place = None

    def __init__(self) -> None:
        self._family: HashFamily | None = None
        self._capacity: int | None = None
        #: ``candidate_fns[i](ball) == candidate(ball, i)``, bound once by
        #: :meth:`bind` for the placement and TLB-decode hot paths.
        self.candidate_fns: tuple = ()

    def bind(self, n_bins: int, bin_capacity: int | None, seed) -> None:
        """Attach the strategy to a game: draws hash functions, sizes state."""
        check_positive_int(n_bins, "n_bins")
        self._family = HashFamily(self.choices, n_bins, seed)
        self._capacity = bin_capacity
        self.candidate_fns = self._family.functions

    @property
    def family(self) -> HashFamily:
        if self._family is None:
            raise RuntimeError("strategy not bound to a game yet")
        return self._family

    def candidates(self, ball) -> tuple[int, ...]:
        """The hashed candidate bins for *ball* (used by TLB encodings)."""
        return self.family(ball)

    def candidate(self, ball, i: int) -> int:
        """``candidates(ball)[i]`` evaluating only the *i*-th hash.

        A TLB decode stores the choice index and needs just this one bin
        back (hot paths call ``candidate_fns[i]`` directly).
        """
        return self.family[i](ball)

    def batch_candidates(self, balls: np.ndarray) -> np.ndarray:
        """Candidate bins for a vector of *balls*: one int64 row per choice.

        One vectorized hash pass per choice (scalar/vector parity is part of
        the :class:`~repro.hashing.MultiplyShiftHash` contract).
        """
        return np.array([h.many(balls) for h in self.family.functions], dtype=np.int64)

    @abstractmethod
    def place(self, ball, loads: np.ndarray) -> tuple[int, int] | None:
        """Pick a bin for *ball* given current bin *loads*: ``(bin, choice)``,
        *choice* being :meth:`choice_index` ``(ball, bin)`` (the first match,
        at no extra hash), or None on failure."""

    def unplace(self, ball, bin_index: int) -> None:
        """Bookkeeping hook when *ball* is deleted from *bin_index*."""

    def choice_index(self, ball, bin_index: int) -> int:
        """Which hash (0-based) maps *ball* to *bin_index*.

        The TLB encoder stores this index so the decoder can recompute the
        bucket. Raises ValueError if the bin is not among the candidates.
        """
        for i, b in enumerate(self.candidates(ball)):
            if b == bin_index:
                return i
        raise ValueError(f"bin {bin_index} is not a candidate for ball {ball!r}")


def _greedy_batch_place(self, cands, fold, ins_u, ev_u, loads, free):
    """The ``batch_place`` of one-choice, Greedy[d] and always-go-left.

    ``place`` semantics exactly: full bins are skipped and strict ``<``
    keeps the first (leftmost) candidate on load ties.
    """
    capacity = sys.maxsize if self._capacity is None else self._capacity
    bin_of, slot_of, bins, slots = fold.bin_of, fold.slot_of, fold.bins, fold.slots
    peak = 0
    for u, eu in zip(ins_u, ev_u):
        if eu >= 0:
            eb = bin_of[eu]
            loads[eb] -= 1
            bin_of[eu] = -1
            if free is not None:
                free[eb].append(slot_of[eu])
        best = -1
        best_load = capacity
        for c in cands:
            b = c[u]
            if loads[b] < best_load:
                best = b
                best_load = loads[b]
        bins.append(best)
        if best < 0:
            break
        best_load += 1
        loads[best] = best_load
        if best_load > peak:
            peak = best_load
        bin_of[u] = best
        if free is not None:
            slot = free[best].pop()
            slot_of[u] = slot
            slots.append(slot)
    return peak


class OneChoiceStrategy(PlacementStrategy):
    """``k = 1``: the ball goes to its single hashed bin, full or not."""

    choices = 1
    name = "one-choice"

    def place(self, ball, loads: np.ndarray) -> tuple[int, int] | None:
        b = self.candidate_fns[0](ball)
        if self._capacity is not None and loads[b] >= self._capacity:
            return None
        return b, 0

    batch_place = _greedy_batch_place


class GreedyStrategy(PlacementStrategy):
    """Greedy[d]: least loaded of ``d`` hashed bins, first choice on ties."""

    name = "greedy"

    def __init__(self, d: int = 2) -> None:
        super().__init__()
        self.d = check_positive_int(d, "d")
        self.choices = self.d

    def place(self, ball, loads: np.ndarray) -> tuple[int, int] | None:
        # strict < keeps the first index of the winning bin: first match
        best = None
        best_load = None
        for i, h in enumerate(self.candidate_fns):
            b = h(ball)
            load = loads[b]
            if self._capacity is not None and load >= self._capacity:
                continue
            if best_load is None or load < best_load:
                best, best_load = (b, i), load
        return best

    batch_place = _greedy_batch_place


class GreedyLeftStrategy(GreedyStrategy):
    """Vöcking's Always-Go-Left: d choices in d equal groups, ties go left.

    Greedy[d] placement with choice ``i`` hashed into group ``i`` only, so
    the strict ``<`` of :meth:`GreedyStrategy.place` sends ties left. The
    asymmetric tie-breaking improves the constant in the
    ``log log n / d`` term; included as an ablation point next to plain
    Greedy[d].
    """

    name = "greedy-left"

    def bind(self, n_bins: int, bin_capacity: int | None, seed) -> None:
        if n_bins < self.d:
            raise ValueError(f"need at least d={self.d} bins, got {n_bins}")
        super().bind(n_bins, bin_capacity, seed)
        group, last = n_bins // self.d, self.d - 1
        # (first bin, width) of each group; the last one runs to n_bins
        self._groups = [(i * group, group) for i in range(last)] + [
            (last * group, n_bins - last * group)
        ]
        self.candidate_fns = tuple(partial(self.candidate, i=i) for i in range(self.d))

    def candidates(self, ball) -> tuple[int, ...]:
        return tuple(f(ball) for f in self.candidate_fns)

    def candidate(self, ball, i: int) -> int:
        lo, width = self._groups[i]
        return lo + self.family[i](ball) % width

    def batch_candidates(self, balls: np.ndarray) -> np.ndarray:
        rows = [lo + h.many(balls) % w for h, (lo, w) in zip(self.family.functions, self._groups)]
        return np.array(rows, dtype=np.int64)


class IcebergStrategy(PlacementStrategy):
    """Iceberg[d] (paper's Theorem 2, with ``d = 2`` by default).

    A ball first tries its *front* bin ``h₁(x)``: it is accepted while the
    bin's front load is below ``front_capacity = ⌈(1+front_slack)·λ⌉``
    (requires the expected average load ``lam`` up front — in the
    RAM-allocation application λ = m/n is fixed by the scheme parameters).
    Rejected balls are placed by Greedy[d] on ``h₂,…,h_{d+1}`` comparing
    *back* loads only, so the two layers ignore each other exactly as in
    footnote 4 of the paper.
    """

    name = "iceberg"

    def __init__(self, lam: float, d: int = 2, front_slack: float = 0.2) -> None:
        super().__init__()
        self.d = check_positive_int(d, "d")
        self.choices = self.d + 1
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if front_slack < 0:
            raise ValueError(f"front_slack must be >= 0, got {front_slack}")
        self.lam = float(lam)
        self.front_slack = float(front_slack)
        self.front_capacity = max(1, math.ceil((1.0 + front_slack) * lam))

    def bind(self, n_bins: int, bin_capacity: int | None, seed) -> None:
        super().bind(n_bins, bin_capacity, seed)
        self._front = np.zeros(n_bins, dtype=np.int64)
        self._back = np.zeros(n_bins, dtype=np.int64)
        self._layer: dict = {}  # ball -> True if front

    def place(self, ball, loads: np.ndarray) -> tuple[int, int] | None:
        fns = self.candidate_fns
        front_bin = fns[0](ball)
        front = self._front.item(front_bin)
        if front < self.front_capacity and (
            self._capacity is None or loads.item(front_bin) < self._capacity
        ):
            self._front[front_bin] = front + 1
            self._layer[ball] = True
            return front_bin, 0
        # spill layer: Greedy[d] over back loads
        best = None
        best_load = None
        for i in range(1, self.d + 1):
            b = fns[i](ball)
            if self._capacity is not None and loads[b] >= self._capacity:
                continue
            load = self._back[b]
            if best_load is None or load < best_load:
                best, choice, best_load = b, i, load
        if best is None:
            return None
        self._back[best] += 1
        self._layer[ball] = False
        # a spill onto h0's own bin is named by choice 0 (first match)
        return best, 0 if best == front_bin else choice

    def batch_place(self, cands, fold, ins_u, ev_u, loads, free):
        front_c = cands[0]
        back_c = cands[1:]
        capacity = sys.maxsize if self._capacity is None else self._capacity
        front_capacity = self.front_capacity
        front = self._front.tolist()
        back = self._back.tolist()
        layer = list(map(self._layer.get, fold.balls.tolist(), repeat(False)))
        bin_of, slot_of, bins, slots = fold.bin_of, fold.slot_of, fold.bins, fold.slots
        peak = 0
        for u, eu in zip(ins_u, ev_u):
            if eu >= 0:
                eb = bin_of[eu]
                loads[eb] -= 1
                bin_of[eu] = -1
                if layer[eu]:
                    front[eb] -= 1
                else:
                    back[eb] -= 1
                if free is not None:
                    free[eb].append(slot_of[eu])
            best = front_c[u]
            if front[best] < front_capacity and loads[best] < capacity:
                front[best] += 1
                layer[u] = True
            else:
                # spill layer: Greedy[d] over back loads
                best = -1
                best_load = 0
                for c in back_c:
                    b = c[u]
                    if loads[b] < capacity and (best < 0 or back[b] < best_load):
                        best = b
                        best_load = back[b]
                if best < 0:
                    bins.append(-1)
                    break
                back[best] += 1
                layer[u] = False
            new = loads[best] + 1
            loads[best] = new
            if new > peak:
                peak = new
            bin_of[u] = best
            bins.append(best)
            if free is not None:
                slot = free[best].pop()
                slot_of[u] = slot
                slots.append(slot)
        self._front[:] = front
        self._back[:] = back
        commit_live(self._layer, fold, np.asarray(layer, dtype=bool))
        return peak

    def unplace(self, ball, bin_index: int) -> None:
        is_front = self._layer.pop(ball)
        if is_front:
            self._front[bin_index] -= 1
        else:
            self._back[bin_index] -= 1

    @property
    def front_loads(self) -> np.ndarray:
        """Per-bin load contributed by front-layer balls (read-only view)."""
        view = self._front.view()
        view.flags.writeable = False
        return view

    @property
    def back_loads(self) -> np.ndarray:
        """Per-bin load contributed by spill-layer balls (read-only view)."""
        view = self._back.view()
        view.flags.writeable = False
        return view
