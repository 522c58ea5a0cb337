"""Sampling observability: a probe cheap enough for the batched fast paths.

Full event tracing (:class:`~repro.obs.events.TraceRecorder`) needs one
callback per event and therefore forces the original per-access replay —
``MemoryManagementAlgorithm.run`` bypasses the vectorized ``_replay``
overrides and the array engine. :class:`SamplingProbe` is the batch-safe
alternative: it declares ``batch_safe = True`` and consumes one
:meth:`on_batch` callback per ``run()``, folding the *exact* ledger
counter delta and a deterministic *sample* of the replayed VPNs, so the
fast paths stay enabled and the measured overhead is a few percent
instead of an order of magnitude.

Two deterministic sampling schemes run side by side (both seeded, both
identical between the scalar and the vectorized code path):

stride sampling
    Access index ``t`` is sampled iff ``t % stride == 0`` with
    ``stride = round(1/rate)``. Systematic sampling over the time axis —
    the estimator ``sampled · stride`` is unbiased for the access count and
    exact up to the last partial stride.

hashed-VPN sampling
    Page ``v`` is *tracked* iff ``splitmix64(v ⊕ salt) < rate · 2⁶⁴``. Every
    page is kept or dropped consistently for the whole run, so per-page
    statistics (reuse distance, distinct-page counts) are computed on an
    unbiased ~``rate`` fraction of the page population and scale up by
    ``1/rate``.

``detail=True`` additionally collects per-event histograms (inter-miss
gaps, IO batch sizes, eviction batch sizes); those need per-access event
ordering, so detail mode sets ``batch_safe = False`` on the instance and
deliberately gives the fast paths back.
"""

from __future__ import annotations

import numpy as np

from .events import Probe
from .hist import LogHistogram

__all__ = ["SamplingProbe", "splitmix64"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: ledger-snapshot counter names, in ``CostLedger.snapshot()`` order.
COUNTER_FIELDS: tuple[str, ...] = (
    "accesses",
    "ios",
    "tlb_misses",
    "tlb_hits",
    "decoding_misses",
    "paging_failures",
)

#: histograms collected on every path / only on the per-access detail path.
BATCH_HISTS: tuple[str, ...] = ("reuse_distance",)
DETAIL_HISTS: tuple[str, ...] = ("tlb_miss_gap", "io_batch", "eviction_batch")


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer — scalar twin of the vectorized mix below."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_many(xs: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64, bit-identical to :func:`splitmix64`."""
    with np.errstate(over="ignore"):
        z = xs + np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


class SamplingProbe(Probe):
    """Deterministic sampling probe with unbiased scale-up.

    Parameters
    ----------
    rate:
        Target sampling fraction in ``(0, 1]``. Drives both schemes:
        stride sampling uses ``stride = round(1/rate)`` and hashed-VPN
        sampling keeps pages whose 64-bit hash falls below ``rate · 2⁶⁴``.
    seed:
        Salts the VPN hash; two probes with the same seed track the same
        pages (required for cross-shard merges to mean anything).
    detail:
        Collect the per-event histograms (``tlb_miss_gap``, ``io_batch``,
        ``eviction_batch``) as well. This needs per-access events, so it
        sets ``batch_safe = False`` and disables the fast paths — detail
        mode is a debugging depth, not the steady-state configuration.

    The probe resets its collection at the ``measure`` phase boundary, so
    after :func:`~repro.sim.simulator.simulate` with a warm-up the reported
    statistics cover the measurement phase only (matching the ledger).

    ``counters`` accumulates exact ledger deltas on the batch path; on the
    per-access detail path it is derived from events, where ``tlb_hits``
    and ``paging_failures`` are not evented and stay 0.
    """

    __slots__ = (
        "rate",
        "stride",
        "seed",
        "detail",
        "batch_safe",
        "counters",
        "hists",
        "sampled_accesses",
        "tracked_accesses",
        "_salt",
        "_threshold",
        "_last_seen",
        "_last_miss_t",
    )

    def __init__(
        self, rate: float = 1 / 64, *, seed: int = 0, detail: bool = False
    ) -> None:
        if not (0.0 < rate <= 1.0):
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.rate = float(rate)
        self.stride = max(1, round(1 / rate))
        self.seed = int(seed)
        self.detail = bool(detail)
        # instance slot shadows the Probe class attribute: detail mode needs
        # per-access event ordering and must force the per-access path
        self.batch_safe = not self.detail
        self._salt = splitmix64(self.seed)
        self._threshold = min(_MASK64, int(self.rate * 2.0**64))
        self.counters: dict[str, int] = {}
        self.hists: dict[str, LogHistogram] = {}
        self.sampled_accesses = 0
        self.tracked_accesses = 0
        self._last_seen: dict[int, int] = {}
        self._last_miss_t: int | None = None
        self.reset()

    # -------------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Drop all collected state (fires automatically at ``measure``)."""
        self.counters = {k: 0 for k in COUNTER_FIELDS}
        names = BATCH_HISTS + (DETAIL_HISTS if self.detail else ())
        self.hists = {name: LogHistogram() for name in names}
        self.sampled_accesses = 0
        self.tracked_accesses = 0
        self._last_seen = {}
        self._last_miss_t = None

    def on_phase(self, t: int, name: str) -> None:
        if name == "measure":
            self.reset()

    # ------------------------------------------------------------- batch path

    def on_batch(self, t0: int, vpns, ledger, before) -> None:
        for name, a, b in zip(COUNTER_FIELDS, before, ledger.snapshot()):
            self.counters[name] += b - a
        n = len(vpns)
        if n == 0:
            return
        # stride sampling: indices t0..t0+n-1 hitting t % stride == 0
        first = (-t0) % self.stride
        if first < n:
            self.sampled_accesses += (n - 1 - first) // self.stride + 1
        # hashed-VPN sampling, vectorized; the survivors (~rate·n of them)
        # are walked in Python for reuse distances — cheap at real rates
        keys = np.asarray(vpns, dtype=np.uint64) ^ np.uint64(self._salt)
        tracked = np.nonzero(_splitmix64_many(keys) < np.uint64(self._threshold))[0]
        self.tracked_accesses += len(tracked)
        last_seen = self._last_seen
        reuse = self.hists["reuse_distance"]
        for i in tracked.tolist():
            vpn = int(vpns[i])
            t = t0 + i
            prev = last_seen.get(vpn)
            if prev is not None:
                reuse.record(t - prev)
            last_seen[vpn] = t

    # -------------------------------------------------- per-access (detail)

    def _tracks(self, vpn: int) -> bool:
        return splitmix64(vpn ^ self._salt) < self._threshold

    def on_access(self, t: int, vpn: int) -> None:
        self.counters["accesses"] += 1
        if t % self.stride == 0:
            self.sampled_accesses += 1
        if self._tracks(vpn):
            self.tracked_accesses += 1
            prev = self._last_seen.get(vpn)
            if prev is not None:
                self.hists["reuse_distance"].record(t - prev)
            self._last_seen[vpn] = t

    def on_tlb_miss(self, t: int, vpn: int) -> None:
        self.counters["tlb_misses"] += 1
        if self.detail:
            if self._last_miss_t is not None:
                self.hists["tlb_miss_gap"].record(t - self._last_miss_t)
            self._last_miss_t = t

    def on_io(self, t: int, vpn: int, pages: int) -> None:
        self.counters["ios"] += pages
        if self.detail:
            self.hists["io_batch"].record(pages)

    def on_eviction(self, t: int, count: int) -> None:
        if self.detail:
            self.hists["eviction_batch"].record(count)

    def on_decoding_miss(self, t: int, vpn: int) -> None:
        self.counters["decoding_misses"] += 1

    # -------------------------------------------------------------- estimates

    def estimates(self) -> dict[str, float]:
        """Unbiased scale-ups of the sampled statistics.

        * ``accesses_from_stride`` — ``sampled · stride``; systematic
          estimator of the access count (exact up to one stride).
        * ``accesses_from_hash`` — ``tracked / rate``; page-population
          estimator of the same quantity.
        * ``distinct_pages_from_hash`` — ``|tracked pages| / rate``; each
          distinct page is tracked independently with probability ``rate``.
        """
        return {
            "accesses_from_stride": float(self.sampled_accesses * self.stride),
            "accesses_from_hash": self.tracked_accesses / self.rate,
            "distinct_pages_from_hash": len(self._last_seen) / self.rate,
        }

    def as_dict(self) -> dict:
        """JSON-ready summary (configuration, counters, estimates, hists)."""
        return {
            "rate": self.rate,
            "stride": self.stride,
            "seed": self.seed,
            "detail": self.detail,
            "counters": dict(self.counters),
            "sampled_accesses": self.sampled_accesses,
            "tracked_accesses": self.tracked_accesses,
            "tracked_pages": len(self._last_seen),
            "estimates": self.estimates(),
            "hists": {name: h.as_dict() for name, h in self.hists.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SamplingProbe rate=1/{self.stride} seed={self.seed} "
            f"detail={self.detail} sampled={self.sampled_accesses}>"
        )
