"""Streaming online analyses: working-set size and stack distance, live.

The offline tools in :mod:`repro.analysis` (``workingset.py``,
``stackdist.py``) answer "what is this workload's reuse structure?" but
need the whole trace in RAM. The probes here compute the same quantities
*online* — one bounded-state pass, batch-safe, results folded into
mergeable :class:`~repro.obs.hist.LogHistogram`\\ s — so a production-scale
stream can be characterized while it plays, and live telemetry
(:mod:`repro.obs.live`) can report reuse structure mid-run.

Both probes declare ``batch_safe = True`` and consume :meth:`on_batch`
only, so ``MemoryManagementAlgorithm.run`` keeps every vectorized
``_replay`` and the array engine enabled under them (the same contract as
:class:`~repro.obs.sampling.SamplingProbe`, and gated by the same
``check_bench.py --probe-tolerance`` floor).

Fidelity contract (pinned by ``tests/obs/test_online.py`` over the golden
streams):

* :class:`OnlineWorkingSet` with ``rate=1, sample_every=1`` records
  exactly :func:`repro.analysis.workingset.working_set_sizes` — every
  ``|W(t, τ)|``, windows clipped at 0.
* :class:`OnlineStackDistance` with ``rate=1`` records exactly the warm
  distances of :func:`repro.analysis.stackdist.stack_distances` (cold
  first-touches are counted in ``cold_accesses`` instead, mirroring the
  offline ``COLD`` sentinel).
* With ``rate < 1`` both use the SHARDS-style hashed-VPN scheme of
  ``SamplingProbe`` (page ``v`` tracked iff ``splitmix64(v ⊕ salt) <
  rate · 2⁶⁴``) and scale recorded values by ``1/rate`` — unbiased in
  expectation, exact to within the histogram's factor-of-two buckets.
"""

from __future__ import annotations

import numpy as np

from .._util import check_positive_int
from .events import Probe
from .hist import LogHistogram
from .sampling import _MASK64, _splitmix64_many, splitmix64

__all__ = ["OnlineWorkingSet", "OnlineStackDistance"]

#: smallest Fenwick capacity OnlineStackDistance allocates after a compaction.
_MIN_FENWICK = 1024


def _hash_threshold(rate: float) -> int | None:
    """Hashed-VPN keep threshold, or ``None`` for the track-everything case.

    ``rate=1`` is special-cased to ``None`` (track all pages exactly)
    rather than ``2⁶⁴ − 1`` so the exactness contract holds with
    probability 1, not ``1 − 2⁻⁶⁴`` per page.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if rate >= 1.0:
        return None
    return min(_MASK64, int(rate * 2.0**64))


class OnlineWorkingSet(Probe):
    """Streaming Denning working-set sizes ``|W(t, τ)|``.

    Parameters
    ----------
    tau:
        Window length ``τ`` in accesses (the window is ``(t−τ, t]``,
        clipped at the trace start, exactly as in
        :func:`~repro.analysis.workingset.working_set_sizes`).
    sample_every:
        Evaluate the window at every ``sample_every``-th access (those
        ``t`` with ``(t+1) % sample_every == 0``). ``1`` evaluates every
        access (exact offline parity); production streams use a large
        stride so the per-window ``np.unique`` stays off the hot path.
    rate, seed:
        Hashed-VPN sampling: distinct *tracked* pages in the window,
        scaled by ``round(1/rate)``. ``rate=1`` counts every page.

    State is one carry buffer of the last ``τ − 1`` VPNs plus the
    histogram — independent of stream length.
    """

    __slots__ = (
        "tau",
        "sample_every",
        "rate",
        "seed",
        "hists",
        "windows",
        "tracked_accesses",
        "_salt",
        "_threshold",
        "_scale",
        "_carry",
        "_t",
    )

    batch_safe = True

    def __init__(
        self,
        tau: int,
        *,
        sample_every: int = 1,
        rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.tau = check_positive_int(tau, "tau")
        self.sample_every = check_positive_int(sample_every, "sample_every")
        self.rate = float(rate)
        self.seed = int(seed)
        self._salt = splitmix64(self.seed)
        self._threshold = _hash_threshold(self.rate)
        self._scale = max(1, round(1 / self.rate))
        self.hists: dict[str, LogHistogram] = {}
        self.windows = 0
        self.tracked_accesses = 0
        self._carry = np.empty(0, dtype=np.int64)
        self._t = 0
        self.reset()

    # -------------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Drop all collected state (fires automatically at ``measure``)."""
        self.hists = {"working_set": LogHistogram()}
        self.windows = 0
        self.tracked_accesses = 0
        self._carry = np.empty(0, dtype=np.int64)
        self._t = 0

    def on_phase(self, t: int, name: str) -> None:
        if name == "measure":
            self.reset()

    # ------------------------------------------------------------- batch path

    def on_batch(self, t0: int, vpns, ledger, before) -> None:
        arr = np.asarray(vpns, dtype=np.int64)
        n = arr.size
        if n == 0:
            return
        m = self._carry.size
        concat = np.concatenate((self._carry, arr)) if m else arr
        if self._threshold is None:
            mask = None
            self.tracked_accesses += n
        else:
            keys = concat.astype(np.uint64) ^ np.uint64(self._salt)
            mask = _splitmix64_many(keys) < np.uint64(self._threshold)
            self.tracked_accesses += int(mask[m:].sum())
        hist = self.hists["working_set"]
        # t = self._t + p is sampled iff (t+1) % sample_every == 0
        first = (-(self._t + 1)) % self.sample_every
        if mask is None:
            for p in range(first, n, self.sample_every):
                pos = m + p
                lo = max(0, pos - self.tau + 1)
                win = concat[lo : pos + 1]
                hist.record(int(np.unique(win).size) * self._scale)
                self.windows += 1
        elif first < n:
            # Sampled case: windows only see tracked positions, so compress
            # to the tracked substream once and resolve each window to a
            # substream span via searchsorted — tiny python sets instead of
            # tau-length slices keep this off the hot path.
            tracked_pos = np.nonzero(mask)[0]
            tracked_vals = concat[tracked_pos].tolist()
            ps = np.arange(m + first, m + n, self.sample_every)
            los = np.maximum(0, ps - self.tau + 1)
            starts = np.searchsorted(tracked_pos, los, side="left")
            stops = np.searchsorted(tracked_pos, ps, side="right")
            scale = self._scale
            for a, b in zip(starts.tolist(), stops.tolist()):
                hist.record(len(set(tracked_vals[a:b])) * scale)
            self.windows += len(ps)
        self._t += n
        # max(0, ...): a negative start would *wrap* and silently drop the
        # stream head while concat is still shorter than the carry window
        keep = self.tau - 1
        self._carry = (
            concat[max(0, concat.size - keep) :].copy()
            if keep
            else concat[:0]
        )

    # -------------------------------------------------------------- summaries

    def as_dict(self) -> dict:
        """JSON-ready summary (configuration, tallies, histogram)."""
        return {
            "tau": self.tau,
            "sample_every": self.sample_every,
            "rate": self.rate,
            "seed": self.seed,
            "windows": self.windows,
            "tracked_accesses": self.tracked_accesses,
            "hists": {name: h.as_dict() for name, h in self.hists.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<OnlineWorkingSet tau={self.tau} every={self.sample_every} "
            f"rate={self.rate:g} windows={self.windows}>"
        )


class OnlineStackDistance(Probe):
    """Streaming Mattson/LRU stack distances over a sampled page population.

    The same Fenwick-tree-over-timestamps recurrence as
    :func:`~repro.analysis.stackdist.stack_distances`, made streaming: the
    tree is periodically *compacted* — live markers (one per tracked
    distinct page) are renumbered in timestamp order into a fresh tree —
    so memory is O(distinct tracked pages), not O(stream length), and
    prefix-sum *differences* (the distances) are untouched because
    compaction preserves marker order and only removes dead slots.

    With ``rate < 1`` this is the SHARDS estimator: distances are computed
    among tracked pages only and scaled by ``1/rate`` before recording.
    First-ever touches of a tracked page are counted in ``cold_accesses``
    (the offline ``COLD`` rows), not recorded in the histogram.
    """

    __slots__ = (
        "rate",
        "seed",
        "hists",
        "cold_accesses",
        "tracked_accesses",
        "_salt",
        "_threshold",
        "_last_seen",
        "_tree",
        "_cap",
        "_n",
    )

    batch_safe = True

    def __init__(self, rate: float = 1.0, *, seed: int = 0) -> None:
        self.rate = float(rate)
        self.seed = int(seed)
        self._salt = splitmix64(self.seed)
        self._threshold = _hash_threshold(self.rate)
        self.hists: dict[str, LogHistogram] = {}
        self.cold_accesses = 0
        self.tracked_accesses = 0
        self._last_seen: dict[int, int] = {}
        self._tree: list[int] = []
        self._cap = 0
        self._n = 0
        self.reset()

    # -------------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Drop all collected state (fires automatically at ``measure``)."""
        self.hists = {"stack_distance": LogHistogram()}
        self.cold_accesses = 0
        self.tracked_accesses = 0
        self._last_seen = {}
        self._cap = _MIN_FENWICK
        self._tree = [0] * (self._cap + 1)
        self._n = 0

    def on_phase(self, t: int, name: str) -> None:
        if name == "measure":
            self.reset()

    # ---------------------------------------------------------------- fenwick

    def _add(self, i: int, delta: int) -> None:
        i += 1
        tree = self._tree
        cap = self._cap
        while i <= cap:
            tree[i] += delta
            i += i & (-i)

    def _compact(self) -> None:
        """Renumber live markers in timestamp order into a fresh tree.

        Order-preserving, dead slots dropped — every future prefix-sum
        difference over the live markers is unchanged, so the reported
        distances are bit-identical to the never-compacted run.
        """
        live = sorted(self._last_seen.items(), key=lambda kv: kv[1])
        self._last_seen = {vpn: i for i, (vpn, _) in enumerate(live)}
        self._n = len(live)
        self._cap = max(_MIN_FENWICK, 2 * self._n)
        self._tree = [0] * (self._cap + 1)
        for i in range(self._n):
            self._add(i, 1)

    # ------------------------------------------------------------- batch path

    def _observe(self, vpn: int) -> None:
        # Fenwick walks inlined: this is the per-tracked-access hot loop, and
        # the three Fenwick walks dominate it at python call granularity.
        tree = self._tree
        cap = self._cap
        prev = self._last_seen.get(vpn)
        if prev is None:
            self.cold_accesses += 1
        else:
            # distinct tracked pages touched since prev = live markers after
            # it; the full prefix sum is just the live-marker count, so only
            # the prefix up to prev needs the tree.
            i = prev + 1
            total = 0
            while i > 0:
                total += tree[i]
                i -= i & (-i)
            d = len(self._last_seen) - total
            self.hists["stack_distance"].record(int(round(d / self.rate)))
            i = prev + 1
            while i <= cap:
                tree[i] -= 1
                i += i & (-i)
        i = self._n + 1
        while i <= cap:
            tree[i] += 1
            i += i & (-i)
        self._last_seen[vpn] = self._n
        self._n += 1
        if self._n == cap:
            self._compact()

    def on_batch(self, t0: int, vpns, ledger, before) -> None:
        if len(vpns) == 0:
            return
        if self._threshold is None:
            self.tracked_accesses += len(vpns)
            for vpn in vpns:
                self._observe(int(vpn))
            return
        arr = np.asarray(vpns, dtype=np.int64)
        keys = arr.astype(np.uint64) ^ np.uint64(self._salt)
        tracked = np.nonzero(_splitmix64_many(keys) < np.uint64(self._threshold))[0]
        self.tracked_accesses += len(tracked)
        for vpn in arr[tracked].tolist():
            self._observe(int(vpn))

    # -------------------------------------------------------------- summaries

    def estimates(self) -> dict[str, float]:
        """Unbiased scale-ups: cold (compulsory) accesses and distinct pages."""
        return {
            "cold_accesses_scaled": self.cold_accesses / self.rate,
            "distinct_pages_from_hash": len(self._last_seen) / self.rate,
        }

    def as_dict(self) -> dict:
        """JSON-ready summary (configuration, tallies, estimates, histogram)."""
        return {
            "rate": self.rate,
            "seed": self.seed,
            "cold_accesses": self.cold_accesses,
            "tracked_accesses": self.tracked_accesses,
            "tracked_pages": len(self._last_seen),
            "estimates": self.estimates(),
            "hists": {name: h.as_dict() for name, h in self.hists.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<OnlineStackDistance rate={self.rate:g} seed={self.seed} "
            f"tracked={self.tracked_accesses} cold={self.cold_accesses}>"
        )
