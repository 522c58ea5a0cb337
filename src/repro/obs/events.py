"""Structured event tracing: the probe protocol and the trace recorder.

A :class:`Probe` observes a simulation as it unfolds — one callback per
typed event — without perturbing it: the cost model charges nothing for
observation, and the hot path is untouched when no probe is attached
(:class:`~repro.mmu.base.MemoryManagementAlgorithm.run` checks
``probe.enabled`` once per replay and falls back to the original tight
loop).

Event kinds mirror the chargeable (and near-chargeable) events of the
cost model:

========================  ====================================================
``access``                one virtual-page request was serviced
``tlb_miss``              the request missed in the TLB (cost ε)
``io``                    pages moved into RAM (cost 1 each; huge-page
                          faults report ``pages = h`` at once)
``eviction``              the active set evicted resident unit(s) (cost 0)
``decoding_miss``         a covered, resident page decoded to −1 (cost ε)
``phase``                 a driver boundary — ``warmup`` / ``measure``
========================  ====================================================

:class:`TraceRecorder` is the standard probe: it keeps the last
``capacity`` events in a ring buffer (total counts are exact even after
the ring wraps) and exports JSONL — one event object per line.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .._util import check_positive_int

__all__ = [
    "EVENT_KINDS",
    "Event",
    "Probe",
    "NullProbe",
    "NULL_PROBE",
    "TraceRecorder",
    "MultiProbe",
]

#: Every kind a probe can observe, in rough hot-path order.
EVENT_KINDS: tuple[str, ...] = (
    "access",
    "tlb_miss",
    "io",
    "eviction",
    "decoding_miss",
    "phase",
)


@dataclass(frozen=True, slots=True)
class Event:
    """One observed simulation event.

    ``t`` is the access index within the current phase (``phase`` events
    instead carry the absolute trace position of the boundary). ``vpn`` is
    the virtual page involved where applicable, ``pages`` the IO/eviction
    multiplicity, and ``label`` the phase name.
    """

    kind: str
    t: int
    vpn: int | None = None
    pages: int | None = None
    label: str | None = None

    def as_dict(self) -> dict:
        """Plain dict with ``None`` fields dropped (the JSONL row)."""
        row: dict = {"kind": self.kind, "t": self.t}
        if self.vpn is not None:
            row["vpn"] = self.vpn
        if self.pages is not None:
            row["pages"] = self.pages
        if self.label is not None:
            row["label"] = self.label
        return row


class Probe:
    """Observer interface for simulation events; every callback is a no-op.

    Subclass and override the kinds you care about. ``enabled`` is checked
    *once per replay* by the instrumented runner — a probe whose class sets
    it to ``False`` costs literally nothing per access.

    ``batch_safe`` declares the probe's granularity contract: a batch-safe
    probe only needs :meth:`on_batch` — one callback per ``run()`` with the
    replayed VPNs and the ledger delta — and therefore keeps the
    vectorized ``_replay`` overrides, the array engine and the base tight
    loop enabled. Probes that need per-access event ordering
    (``TraceRecorder``, ``StreamTap``, ``IntervalMetrics``) leave it False
    and force the original per-access path.

    ``batch_interval`` refines the batch contract for *live* observers: a
    batch-safe probe that sets it to ``N`` asks ``run()`` to flush
    :meth:`on_batch` at least every ``N`` accesses instead of once per
    replay. The runner then slices the trace into ``N``-access segments and
    replays each through the *same* vectorized path (see
    ``MemoryManagementAlgorithm.run``), so interval flushing
    costs one extra Python-level loop per segment, not per access —
    heartbeat telemetry (:mod:`repro.obs.live`) rides this. ``None`` (the
    default) keeps the one-flush-per-run behaviour.
    """

    __slots__ = ()

    #: class-level switch: False routes run() to the uninstrumented loop.
    enabled: bool = True

    #: True iff on_batch-level granularity suffices — keeps fast paths on.
    batch_safe: bool = False

    #: max accesses between on_batch flushes (None = one flush per run()).
    batch_interval: int | None = None

    def on_access(self, t: int, vpn: int) -> None:
        """A request for *vpn* was serviced (fires for every access)."""

    def on_tlb_miss(self, t: int, vpn: int) -> None:
        """The request for *vpn* missed in the TLB."""

    def on_io(self, t: int, vpn: int, pages: int) -> None:
        """Servicing *vpn* moved *pages* base pages into RAM."""

    def on_eviction(self, t: int, count: int) -> None:
        """The active set evicted *count* resident unit(s)."""

    def on_decoding_miss(self, t: int, vpn: int) -> None:
        """A covered, RAM-resident *vpn* decoded to −1 (Theorem 4 failure)."""

    def on_phase(self, t: int, name: str) -> None:
        """The driver crossed a phase boundary at absolute trace index *t*."""

    def on_batch(self, t0: int, vpns, ledger, before) -> None:
        """A batched replay serviced *vpns* starting at access index *t0*.

        Fires once per ``run()`` segment on batch-safe probes (once per
        ``run()`` without a ``batch_interval``), after the segment
        completes. *ledger* is the live :class:`~repro.core.model.CostLedger`
        (post-batch) and *before* its :meth:`snapshot` tuple from just
        before the batch, so the batch's exact counter deltas are
        ``tuple(b - a for a, b in zip(before, ledger.snapshot()))``.
        *vpns* is the replayed trace slice (list or ndarray) — treat it as
        read-only.
        """


class NullProbe(Probe):
    """The default probe: observes nothing, costs nothing."""

    __slots__ = ()

    enabled = False


#: Shared default instance — ``mm.probe is NULL_PROBE`` means "not observed".
NULL_PROBE = NullProbe()


class TraceRecorder(Probe):
    """Capture typed events into a bounded ring buffer.

    Parameters
    ----------
    capacity:
        Ring size: only the most recent *capacity* events are retained
        (``dropped`` counts the overflow). Per-kind ``counts`` are exact
        regardless of ring wrap.
    kinds:
        Optional whitelist of event kinds to record (default: all).
    """

    __slots__ = ("capacity", "counts", "dropped", "_buf", "_kinds")

    def __init__(
        self, capacity: int = 65536, kinds: Sequence[str] | None = None
    ) -> None:
        self.capacity = check_positive_int(capacity, "capacity")
        if kinds is not None:
            unknown = set(kinds) - set(EVENT_KINDS)
            if unknown:
                raise ValueError(f"unknown event kinds: {sorted(unknown)}")
        self._kinds = frozenset(kinds) if kinds is not None else None
        self._buf: deque[Event] = deque(maxlen=self.capacity)
        self.counts: dict[str, int] = {k: 0 for k in EVENT_KINDS}
        self.dropped = 0

    # ------------------------------------------------------------- callbacks

    def on_access(self, t: int, vpn: int) -> None:
        self._push(Event("access", t, vpn=vpn))

    def on_tlb_miss(self, t: int, vpn: int) -> None:
        self._push(Event("tlb_miss", t, vpn=vpn))

    def on_io(self, t: int, vpn: int, pages: int) -> None:
        self._push(Event("io", t, vpn=vpn, pages=pages))

    def on_eviction(self, t: int, count: int) -> None:
        self._push(Event("eviction", t, pages=count))

    def on_decoding_miss(self, t: int, vpn: int) -> None:
        self._push(Event("decoding_miss", t, vpn=vpn))

    def on_phase(self, t: int, name: str) -> None:
        self._push(Event("phase", t, label=name))

    # ------------------------------------------------------------------- api

    def _push(self, event: Event) -> None:
        if self._kinds is not None and event.kind not in self._kinds:
            return
        self.counts[event.kind] += 1
        if len(self._buf) == self.capacity:
            self.dropped += 1
        self._buf.append(event)

    @property
    def total_events(self) -> int:
        """Events observed (recorded + dropped)."""
        return sum(self.counts.values())

    def events(self) -> list[Event]:
        """The retained events, oldest first."""
        return list(self._buf)

    def clear(self) -> None:
        """Drop the buffer and zero the counters."""
        self._buf.clear()
        self.counts = {k: 0 for k in EVENT_KINDS}
        self.dropped = 0

    def to_jsonl(self, path) -> Path:
        """Write the retained events as JSONL (one object per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for event in self._buf:
                fh.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
        return path


class MultiProbe(Probe):
    """Fan one event stream out to several probes (e.g. recorder + metrics).

    The composite is batch-safe only when *every* child is — a single
    per-access child forces the per-access path for the whole group, since
    events can only be derived once per replay. Its ``batch_interval`` is
    the smallest interval any child asks for (``None`` when no child sets
    one), so a heartbeat child keeps flushing even when combined with a
    plain sampling probe.
    """

    __slots__ = ("probes", "batch_safe", "batch_interval")

    def __init__(self, probes: Iterable[Probe]) -> None:
        self.probes = tuple(p for p in probes if p.enabled)
        self.batch_safe = bool(self.probes) and all(
            p.batch_safe for p in self.probes
        )
        # intervals are positive ints, so None is the only falsy value
        intervals = [p.batch_interval for p in self.probes if p.batch_interval]
        self.batch_interval = min(intervals) if intervals else None

    def on_access(self, t: int, vpn: int) -> None:
        for p in self.probes:
            p.on_access(t, vpn)

    def on_tlb_miss(self, t: int, vpn: int) -> None:
        for p in self.probes:
            p.on_tlb_miss(t, vpn)

    def on_io(self, t: int, vpn: int, pages: int) -> None:
        for p in self.probes:
            p.on_io(t, vpn, pages)

    def on_eviction(self, t: int, count: int) -> None:
        for p in self.probes:
            p.on_eviction(t, count)

    def on_decoding_miss(self, t: int, vpn: int) -> None:
        for p in self.probes:
            p.on_decoding_miss(t, vpn)

    def on_phase(self, t: int, name: str) -> None:
        for p in self.probes:
            p.on_phase(t, name)

    def on_batch(self, t0: int, vpns, ledger, before) -> None:
        for p in self.probes:
            p.on_batch(t0, vpns, ledger, before)
