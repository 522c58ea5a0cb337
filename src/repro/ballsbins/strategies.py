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

    def bind(self, n_bins: int, bin_capacity: int | None, seed) -> None:
        """Attach the strategy to a game: draws hash functions, sizes state."""
        check_positive_int(n_bins, "n_bins")
        self._family = HashFamily(self.choices, n_bins, seed)
        self._capacity = bin_capacity

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

        The TLB decode hot path stores the choice index and needs just this
        one bin back — recomputing all ``k`` hashes there is wasted work.
        """
        return self.family[i](ball)

    def batch_candidates(self, balls: np.ndarray) -> np.ndarray:
        """Candidate bins for a vector of *balls*: one int64 row per choice.

        One vectorized hash pass per choice (scalar/vector parity is part of
        the :class:`~repro.hashing.MultiplyShiftHash` contract).
        """
        return np.array([h.many(balls) for h in self.family.functions], dtype=np.int64)

    @abstractmethod
    def place(self, ball, loads: np.ndarray) -> int | None:
        """Pick a bin for *ball* given current bin *loads*; None on failure."""

    def unplace(self, ball, bin_index: int) -> None:
        """Bookkeeping hook when *ball* is deleted from *bin_index*."""

    def choice_index(self, ball, bin_index: int) -> int:
        """Which hash (0-based) maps *ball* to *bin_index*.

        The TLB encoder stores this index so the decoder can recompute the
        bucket. Raises ValueError if the bin is not among the candidates.
        """
        for i, b in enumerate(self.family(ball)):
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

    def place(self, ball, loads: np.ndarray) -> int | None:
        b = self.family[0](ball)
        if self._capacity is not None and loads[b] >= self._capacity:
            return None
        return b

    batch_place = _greedy_batch_place


class GreedyStrategy(PlacementStrategy):
    """Greedy[d]: least loaded of ``d`` hashed bins, first choice on ties."""

    name = "greedy"

    def __init__(self, d: int = 2) -> None:
        super().__init__()
        self.d = check_positive_int(d, "d")
        self.choices = self.d

    def place(self, ball, loads: np.ndarray) -> int | None:
        best = None
        best_load = None
        for h in self.family.functions:
            b = h(ball)
            load = loads[b]
            if self._capacity is not None and load >= self._capacity:
                continue
            if best_load is None or load < best_load:
                best, best_load = b, load
        return best

    batch_place = _greedy_batch_place


class GreedyLeftStrategy(PlacementStrategy):
    """Vöcking's Always-Go-Left: d choices in d equal groups, ties go left.

    The asymmetric tie-breaking improves the constant in the
    ``log log n / d`` term; included as an ablation point next to plain
    Greedy[d].
    """

    name = "greedy-left"

    def __init__(self, d: int = 2) -> None:
        super().__init__()
        self.d = check_positive_int(d, "d")
        self.choices = self.d

    def bind(self, n_bins: int, bin_capacity: int | None, seed) -> None:
        if n_bins < self.d:
            raise ValueError(f"need at least d={self.d} bins, got {n_bins}")
        super().bind(n_bins, bin_capacity, seed)
        self._group = n_bins // self.d

    def candidates(self, ball) -> tuple[int, ...]:
        group = self._group
        out = []
        for i, h in enumerate(self.family.functions):
            lo = i * group
            hi = (i + 1) * group if i < self.d - 1 else self.family.range
            out.append(lo + h(ball) % (hi - lo))
        return tuple(out)

    def place(self, ball, loads: np.ndarray) -> int | None:
        best = None
        best_load = None
        for b in self.candidates(ball):
            load = loads[b]
            if self._capacity is not None and load >= self._capacity:
                continue
            if best_load is None or load < best_load:  # strict: ties stay left
                best, best_load = b, load
        return best

    def candidate(self, ball, i: int) -> int:
        group = self._group
        lo = i * group
        hi = (i + 1) * group if i < self.d - 1 else self.family.range
        return lo + self.family[i](ball) % (hi - lo)

    def batch_candidates(self, balls: np.ndarray) -> np.ndarray:
        group = self._group
        out = []
        for i, h in enumerate(self.family.functions):
            lo = i * group
            hi = (i + 1) * group if i < self.d - 1 else self.family.range
            out.append(lo + h.many(balls) % (hi - lo))
        return np.array(out, dtype=np.int64)

    batch_place = _greedy_batch_place

    def choice_index(self, ball, bin_index: int) -> int:
        for i, b in enumerate(self.candidates(ball)):
            if b == bin_index:
                return i
        raise ValueError(f"bin {bin_index} is not a candidate for ball {ball!r}")


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

    def place(self, ball, loads: np.ndarray) -> int | None:
        front_bin = self.family[0](ball)
        if self._front[front_bin] < self.front_capacity and (
            self._capacity is None or loads[front_bin] < self._capacity
        ):
            self._front[front_bin] += 1
            self._layer[ball] = True
            return front_bin
        # spill layer: Greedy[d] over back loads
        best = None
        best_load = None
        for i in range(1, self.d + 1):
            b = self.family[i](ball)
            if self._capacity is not None and loads[b] >= self._capacity:
                continue
            load = self._back[b]
            if best_load is None or load < best_load:
                best, best_load = b, load
        if best is None:
            return None
        self._back[best] += 1
        self._layer[ball] = False
        return best

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
