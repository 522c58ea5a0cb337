"""Stable, online RAM-allocation schemes (paper Sections 3–4).

A RAM-allocation scheme assigns a physical frame ``φ(v)`` to every virtual
page the RAM-replacement policy brings in, subject to two rules: ``φ`` is an
*injection*, and it is *stable* (the frame cannot change until the page is
evicted). Its quality is measured by its **associativity** — how many frames
a given page could possibly occupy — because the TLB encoding needs
``⌈log₂(associativity + 1)⌉`` bits per page.

Low associativity risks **paging failures**: the replacement policy wants a
page in RAM but every legal frame is occupied. The paper's constructions
bound the failure probability by running the balls-and-bins strategies of
:mod:`repro.ballsbins` over buckets of ``B`` consecutive frames:

* :class:`OneChoiceAllocator` — ``k = 1``, ``B = Θ(log P · log log P)``
  (Theorem 1);
* :class:`GreedyAllocator` — ``k = d``, Greedy[d] (the dead end discussed
  after Theorem 1: the Ω(λ) load gap forces δ = Ω(1));
* :class:`IcebergAllocator` — ``k = 3``, Iceberg[2],
  ``B = Θ̃(log log P)`` (Theorem 3, the Decoupling Theorem);
* :class:`FullyAssociativeAllocator` — the classical baseline with
  associativity ``P``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .._util import ceil_log2, check_positive_int
from ..ballsbins import (
    BallsAndBinsGame,
    GreedyStrategy,
    IcebergStrategy,
    OneChoiceStrategy,
    PlacementStrategy,
    commit_live,
    replay_game_events,
)

__all__ = [
    "RAMAllocationScheme",
    "FullyAssociativeAllocator",
    "BucketedAllocator",
    "OneChoiceAllocator",
    "GreedyAllocator",
    "IcebergAllocator",
]


class RAMAllocationScheme(ABC):
    """Assigns frames to pages; reports the bits needed to name a frame.

    Concrete schemes must keep ``φ`` injective and stable, and must expose
    ``encode``/``decode`` such that ``decode(vpn, encode(vpn))`` returns
    ``frame_of(vpn)`` for every resident page — this pair is what the TLB
    value codec packs per page.
    """

    #: total number of physical frames ``P``.
    total_frames: int
    #: frames a page could occupy (``k·B`` for bucketed schemes).
    associativity: int
    #: bits of a *present* page's location code: ``⌈log₂(associativity)⌉``.
    address_bits: int

    def allocate(self, vpn: int) -> int | None:
        """Assign a frame to non-resident *vpn*; None on paging failure.

        A failed page is *not* resident afterwards (it joins the failure
        set ``F`` of its caller); retrying after an eviction is allowed.
        """
        placed = self.place(vpn)
        return None if placed is None else placed[0]

    @abstractmethod
    def place(self, vpn: int) -> tuple[int, int] | None:
        """:meth:`allocate` returning ``(frame, code)``: the location code
        is :meth:`encode` ``(vpn)``, produced by the placement itself."""

    @abstractmethod
    def free(self, vpn: int) -> int:
        """Release resident *vpn*'s frame and return it. KeyError if absent."""

    @abstractmethod
    def frame_of(self, vpn: int) -> int | None:
        """Current frame of *vpn*, or None if not resident."""

    @abstractmethod
    def encode(self, vpn: int) -> int:
        """Compact location code of resident *vpn* in ``[0, 2**address_bits)``."""

    @abstractmethod
    def decode(self, vpn: int, code: int) -> int:
        """Frame of *vpn* given its location *code* (pure given the hashes)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of resident pages."""

    @property
    def failures(self) -> int:
        """Total paging failures so far (0 for schemes that cannot fail)."""
        return 0


class FullyAssociativeAllocator(RAMAllocationScheme):
    """Any page may use any frame — associativity ``P``, no failures.

    This is the implicit allocation scheme of the classical paging problem;
    its location codes are full physical addresses of ``⌈log₂ P⌉`` bits, so
    a ``w``-bit TLB value holds only ``w / log P`` of them.
    """

    def __init__(self, total_frames: int) -> None:
        self.total_frames = check_positive_int(total_frames, "total_frames")
        self.associativity = self.total_frames
        self.address_bits = ceil_log2(self.total_frames)
        self._free = list(range(self.total_frames - 1, -1, -1))  # pop() gives frame 0 first
        self._frame_of: dict[int, int] = {}

    def place(self, vpn: int) -> tuple[int, int] | None:
        if vpn in self._frame_of:
            raise ValueError(f"vpn {vpn} is already resident")
        if not self._free:
            return None  # RAM genuinely full (caller exceeded (1-δ)P)
        frame = self._free.pop()
        self._frame_of[vpn] = frame
        return frame, frame

    def free(self, vpn: int) -> int:
        frame = self._frame_of.pop(vpn)
        self._free.append(frame)
        return frame

    def frame_of(self, vpn: int) -> int | None:
        return self._frame_of.get(vpn)

    def encode(self, vpn: int) -> int:
        return self._frame_of[vpn]

    def decode(self, vpn: int, code: int) -> int:
        if not (0 <= code < self.total_frames):
            raise ValueError(f"code {code} out of range [0, {self.total_frames})")
        return code

    def __len__(self) -> int:
        return len(self._frame_of)


class BucketedAllocator(RAMAllocationScheme):
    """Low-associativity allocation: RAM split into ``n`` buckets of ``B``
    consecutive frames, pages placed by a balls-and-bins strategy.

    The location code of a resident page is ``choice_index · B + offset``:
    which of its ``k`` hashed buckets it landed in, and its slot within the
    bucket — ``⌈log₂(k·B)⌉`` bits, recomputable by any decoder holding the
    same hash seeds.

    Parameters
    ----------
    total_frames:
        ``P``; must be divisible by *n_buckets*.
    n_buckets:
        ``n``; the bucket size is ``B = P / n``.
    strategy:
        A fresh (unbound) placement strategy; the allocator binds it with
        bucket capacity ``B`` and *seed*.
    """

    def __init__(
        self,
        total_frames: int,
        n_buckets: int,
        strategy: PlacementStrategy,
        *,
        seed=None,
    ) -> None:
        self.total_frames = check_positive_int(total_frames, "total_frames")
        self.n_buckets = check_positive_int(n_buckets, "n_buckets")
        if total_frames % n_buckets:
            raise ValueError(
                f"total_frames ({total_frames}) must be divisible by "
                f"n_buckets ({n_buckets})"
            )
        self.bucket_size = total_frames // n_buckets
        self.strategy = strategy
        self.game = BallsAndBinsGame(
            n_buckets, strategy, bin_capacity=self.bucket_size, seed=seed
        )
        self.associativity = strategy.choices * self.bucket_size
        self.address_bits = ceil_log2(self.associativity)
        # Per-bucket free slot offsets; pop()/append() keeps this O(1).
        self._free_slots = [
            list(range(self.bucket_size - 1, -1, -1)) for _ in range(n_buckets)
        ]
        self._frame_of: dict[int, int] = {}

    # ------------------------------------------------------------------ api

    def place(self, vpn: int) -> tuple[int, int] | None:
        if vpn in self._frame_of:
            raise ValueError(f"vpn {vpn} is already resident")
        placed = self.game.place(vpn)
        if placed is None:
            return None  # paging failure: all k candidate buckets full
        bucket, choice = placed
        offset = self._free_slots[bucket].pop()
        frame = bucket * self.bucket_size + offset
        self._frame_of[vpn] = frame
        return frame, choice * self.bucket_size + offset

    def free(self, vpn: int) -> int:
        frame = self._frame_of.pop(vpn)
        bucket, offset = divmod(frame, self.bucket_size)
        self.game.delete(vpn)
        self._free_slots[bucket].append(offset)
        return frame

    def frame_of(self, vpn: int) -> int | None:
        return self._frame_of.get(vpn)

    def encode(self, vpn: int) -> int:
        frame = self._frame_of[vpn]
        bucket, offset = divmod(frame, self.bucket_size)
        choice = self.strategy.choice_index(vpn, bucket)
        return choice * self.bucket_size + offset

    def decode(self, vpn: int, code: int) -> int:
        if not (0 <= code < self.associativity):
            raise ValueError(f"code {code} out of range [0, {self.associativity})")
        choice, offset = divmod(code, self.bucket_size)
        # only the stored choice's hash — this runs on every TLB-hit
        # translation, and the other k-1 candidates are never needed
        return self.strategy.candidate_fns[choice](vpn) * self.bucket_size + offset

    def bulk_replay(self, inserts, evicts, first_evt: int = 0):
        """Apply an interleaved ``allocate``/``free`` event stream in bulk.

        Same interleave convention as
        :func:`repro.ballsbins.batch.replay_game_events`, whose one pass
        also assigns slots from ``_free_slots`` in exactly the per-event
        LIFO order, stopping right after the first failing insert.

        Returns ``(decisions, codes)``: the
        :class:`~repro.ballsbins.BatchDecisions`, and ``codes[i]`` the
        location code the TLB encoder stores for ``decisions.balls[i]``
        (meaningful for the balls live after the replay). Returns None when
        the strategy has no batch hook (callers replay per-event).
        """
        decisions = replay_game_events(
            self.game, inserts, evicts, first_evt, (self._free_slots, self._frame_of)
        )
        if decisions is None:
            return None
        size = self.bucket_size
        bins = decisions.split()[0]
        slot = np.asarray(decisions.slot_of, dtype=np.int64)
        commit_live(self._frame_of, decisions, bins * size + slot)
        return decisions, decisions.choice_of * size + slot

    def __len__(self) -> int:
        return len(self._frame_of)

    @property
    def failures(self) -> int:
        return self.game.failures

    @property
    def max_bucket_load(self) -> int:
        """Current maximum bucket occupancy (≤ bucket_size by construction)."""
        return self.game.max_load

    def bucket_loads(self):
        """Copy of the current per-bucket load vector (Theorems 1–2 measure
        its max; the observability layer histograms the whole tail)."""
        return self.game.loads.copy()


class OneChoiceAllocator(BucketedAllocator):
    """Theorem 1's warmup scheme: ``k = 1`` hash, associativity ``B``."""

    def __init__(self, total_frames: int, n_buckets: int, *, seed=None) -> None:
        super().__init__(total_frames, n_buckets, OneChoiceStrategy(), seed=seed)


class GreedyAllocator(BucketedAllocator):
    """Greedy[d] allocation — the instructive dead end (Ω(λ) load gap)."""

    def __init__(self, total_frames: int, n_buckets: int, d: int = 2, *, seed=None) -> None:
        super().__init__(total_frames, n_buckets, GreedyStrategy(d), seed=seed)


class IcebergAllocator(BucketedAllocator):
    """Theorem 3's scheme: Iceberg[2] with ``k = 3`` hashes.

    *lam* is the target average bucket load ``m/n``; the front-layer
    capacity is ``(1 + front_slack)·λ`` per bin, and the bucket size must
    leave room for the ``log log n`` spill term (see
    :func:`repro.core.bounds.theorem3_parameters` for theory-derived
    sizing).
    """

    def __init__(
        self,
        total_frames: int,
        n_buckets: int,
        lam: float,
        *,
        d: int = 2,
        front_slack: float = 0.2,
        seed=None,
    ) -> None:
        super().__init__(
            total_frames,
            n_buckets,
            IcebergStrategy(lam=lam, d=d, front_slack=front_slack),
            seed=seed,
        )
