"""Live telemetry bus: heartbeat spooling, stall detection, and `repro top`.

A long sweep (or a ``jobs=8`` grid) is a black box until it returns. This
module makes it observable *while it runs*, with three cooperating pieces:

:class:`TelemetryBus`
    A JSONL spool writer. Every record is one ``json.dumps`` line written
    with a **single** ``os.write`` on an ``O_APPEND`` descriptor, which
    POSIX guarantees is atomic — so any number of worker processes can
    share one spool file and a concurrent reader never sees interleaved
    or torn lines. Records carry the worker id, a per-bus sequence
    number, and a ``time.monotonic()`` stamp (``CLOCK_MONOTONIC`` is
    system-wide on Linux, so stamps from different processes share one
    time axis).

:class:`HeartbeatProbe`
    A batch-safe probe with a ``batch_interval``: the MM runner flushes
    it at least every *interval* accesses **without** leaving the
    vectorized replays (see ``MemoryManagementAlgorithm.run``).
    Each flush appends one ``heartbeat`` record — progress, instantaneous
    accesses/s, and cumulative :class:`~repro.core.model.CostLedger`
    counters — to the bus.

:func:`read_spool` / :func:`aggregate` / :func:`render_top`
    The reader side: tail the spool (tolerating a torn final line from a
    writer that is mid-``write`` on a non-POSIX filesystem), reduce the
    records to per-task progress plus run-wide totals, and render the
    ``repro top`` dashboard — plain text, curses-free, one frame per
    call, so it works in CI logs (``repro top --once``) as well as in a
    terminal loop.

:class:`StallWatcher`
    Parent-side liveness monitor for :func:`~repro.sim.parallel.run_tasks`:
    a daemon thread polling the spool; a worker whose last heartbeat is
    older than ``stall_factor ×`` its observed flush period (with a grace
    floor for slow starters) gets one structured ``task_stall`` record on
    the bus and one structured log warning — hung cells surface in
    ``repro top`` instead of silently eating the pool.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .._util import check_positive_int
from .attribution import ATTRIB_PREFIX, CAUSES
from .events import Probe
from .sampling import COUNTER_FIELDS

__all__ = [
    "TelemetryBus",
    "HeartbeatProbe",
    "HeartbeatConfig",
    "StallWatcher",
    "read_spool",
    "aggregate",
    "render_top",
]

_log = logging.getLogger(__name__)

#: record kinds a spool may contain (readers ignore unknown kinds).
RECORD_KINDS: tuple[str, ...] = (
    "heartbeat",
    "phase",
    "task_start",
    "task_end",
    "task_retry",
    "task_stall",
)


class TelemetryBus:
    """Append-only JSONL telemetry spool shared across processes.

    One bus per (process, spool) pair; the file is opened lazily with
    ``O_APPEND | O_CREAT`` and every :meth:`emit` is a single atomic
    ``os.write``. The bus never reads the spool — readers live in
    :func:`read_spool`.

    With *max_bytes* set, an emit that would push the spool past the bound
    first rotates it: one ``os.replace`` renames the live spool to
    ``<spool>.1`` (clobbering any previous ``.1``) and the write lands in a
    fresh file, so an unattended sweep's spool is bounded at roughly
    ``2 × max_bytes`` on disk. Rotation is crash-safe (rename is atomic)
    and multi-writer-safe: a bus that finds its descriptor pointing at a
    rotated-away inode follows the rename and reopens the live path.
    Readers (:func:`read_spool`) stitch ``.1`` + live back together and
    tolerate a rotation happening between the two reads.
    """

    __slots__ = ("path", "worker", "max_bytes", "_fd", "_seq")

    def __init__(
        self,
        path,
        *,
        worker: str | int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.path = Path(path)
        #: spool-wide writer id; defaults to this process's pid.
        self.worker = str(worker if worker is not None else os.getpid())
        #: rotate the spool when an emit would push it past this size
        #: (``None`` = grow without bound, the historical behaviour).
        self.max_bytes = (
            None if max_bytes is None else check_positive_int(max_bytes, "max_bytes")
        )
        self._fd: int | None = None
        self._seq = 0

    def _open(self) -> int:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(
            str(self.path), os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )

    def _maybe_rotate(self, incoming: int) -> None:
        """Rotate (or follow another writer's rotation) before *incoming* bytes."""
        assert self._fd is not None
        try:
            live_ino = os.stat(self.path).st_ino
        except FileNotFoundError:
            live_ino = None  # spool vanished: reopen recreates it
        if live_ino != os.fstat(self._fd).st_ino:
            os.close(self._fd)
            self._fd = self._open()
        if os.fstat(self._fd).st_size + incoming <= self.max_bytes:
            return
        os.replace(self.path, str(self.path) + ".1")
        os.close(self._fd)
        self._fd = self._open()

    def emit(self, kind: str, **fields) -> dict:
        """Append one *kind* record (plus ``worker``/``seq``/``wall``)."""
        if self._fd is None:
            self._fd = self._open()
        self._seq += 1
        record = {
            "kind": kind,
            "worker": self.worker,
            "seq": self._seq,
            "wall": time.monotonic(),
            **fields,
        }
        data = (json.dumps(record, sort_keys=True) + "\n").encode()
        if self.max_bytes is not None:
            self._maybe_rotate(len(data))
        os.write(self._fd, data)
        return record

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "TelemetryBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TelemetryBus {self.path} worker={self.worker} seq={self._seq}>"


@dataclass(frozen=True)
class HeartbeatConfig:
    """Picklable heartbeat wiring for :func:`~repro.sim.parallel.run_tasks`.

    Workers rebuild their own :class:`TelemetryBus` from this config (file
    descriptors do not cross process boundaries), all appending to the
    same *spool*.
    """

    #: spool file every worker appends to.
    spool: str
    #: accesses between heartbeat flushes (the probe's ``batch_interval``).
    interval: int = 65536
    #: a worker silent for > ``stall_factor ×`` its observed flush period
    #: is reported stalled (the "k" of the structured stall warning).
    stall_factor: float = 4.0
    #: stall grace floor in seconds (covers startup and slow first flushes).
    grace_s: float = 5.0
    #: per-spool rotation bound (``TelemetryBus(max_bytes=...)``); ``None``
    #: keeps the spool unbounded.
    max_bytes: int | None = None

    def bus(self, worker: str | int | None = None) -> TelemetryBus:
        """A fresh bus on this config's spool."""
        return TelemetryBus(self.spool, worker=worker, max_bytes=self.max_bytes)


class HeartbeatProbe(Probe):
    """Batch-safe probe streaming periodic progress records to a bus.

    Parameters
    ----------
    bus:
        The :class:`TelemetryBus` to emit on.
    interval:
        Flush period in accesses — becomes the probe's ``batch_interval``,
        so the MM runner segments the replay but keeps the vectorized
        fast paths enabled within each segment.
    task:
        Task label stamped into every record (e.g. the grid key).
    total:
        Expected total accesses (warm-up + measure), for progress/ETA;
        ``None`` leaves progress open-ended.
    attrib:
        An attached :class:`~repro.obs.attribution.AttributionProbe` whose
        flat ``attrib:*`` / ``interf:*`` counters ride along in every
        heartbeat — ``repro top`` then shows live per-cause columns.

    Composable with other batch-safe probes via
    :class:`~repro.obs.events.MultiProbe`, whose ``batch_interval`` is the
    minimum over its children.
    """

    __slots__ = (
        "bus",
        "task",
        "total",
        "attrib",
        "batch_interval",
        "done",
        "counters",
        "_start_wall",
        "_last_wall",
        "_last_done",
    )

    batch_safe = True

    def __init__(
        self,
        bus: TelemetryBus,
        *,
        interval: int = 65536,
        task: str | int = "",
        total: int | None = None,
        attrib=None,
    ) -> None:
        self.bus = bus
        self.batch_interval = check_positive_int(interval, "interval")
        self.task = str(task)
        self.total = None if total is None else int(total)
        self.attrib = attrib
        self.done = 0
        self.counters: dict[str, int] = {k: 0 for k in COUNTER_FIELDS}
        self._start_wall = time.monotonic()
        self._last_wall = self._start_wall
        self._last_done = 0

    def on_batch(self, t0: int, vpns, ledger, before) -> None:
        for name, a, b in zip(COUNTER_FIELDS, before, ledger.snapshot()):
            self.counters[name] += b - a
        self.done += len(vpns)
        now = time.monotonic()
        dt = now - self._last_wall
        acc_s = (self.done - self._last_done) / dt if dt > 0 else 0.0
        self._last_wall = now
        self._last_done = self.done
        counters = dict(self.counters)
        if self.attrib is not None:
            # cumulative, so "latest heartbeat wins" aggregation stays exact
            counters.update(self.attrib.attrib_counters())
        self.bus.emit(
            "heartbeat",
            task=self.task,
            done=self.done,
            total=self.total,
            acc_s=acc_s,
            counters=counters,
        )

    def on_phase(self, t: int, name: str) -> None:
        self.bus.emit("phase", task=self.task, label=name, t=t)


# ---------------------------------------------------------------- reader side


def read_spool(path) -> list[dict]:
    """Parse a telemetry spool, oldest record first.

    Tolerant by design: a line that fails to parse (a writer mid-append on
    a filesystem without atomic ``O_APPEND``, or a truncated tail) is
    skipped, not fatal — the spool is advisory telemetry, never the source
    of truth for results.

    A rotated spool (``TelemetryBus(max_bytes=...)``) is stitched back
    together: the ``.1`` generation is read first, then the live file, and
    a live line byte-identical to one in ``.1`` (a rotation racing the two
    reads) is dropped. Only cross-generation duplicates are dropped —
    ``seq`` restarts per bus, so it cannot serve as a record identity.
    """
    path = Path(path)
    records: list[dict] = []
    rotated_lines: set[bytes] = set()
    for generation, p in enumerate((Path(str(path) + ".1"), path)):
        try:
            raw = p.read_bytes()
        except FileNotFoundError:
            continue
        for line in raw.splitlines():
            if not line.strip():
                continue
            if generation and line in rotated_lines:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not (isinstance(record, dict) and "kind" in record):
                continue
            if not generation:
                rotated_lines.add(line)
            records.append(record)
    return records


def aggregate(records: list[dict]) -> dict:
    """Reduce spool records into the ``repro top`` summary dict.

    Returns ``{"tasks": [...], "workers": {...}, "totals": {...},
    "stalls": [...], "retries": [...]}`` where each task row carries the
    latest known progress, instantaneous rate, and state
    (``running`` / ``done`` / ``failed`` / ``stalled``).
    """
    tasks: dict[str, dict] = {}
    workers: dict[str, dict] = {}
    stalls: list[dict] = []
    retries: list[dict] = []
    first_wall = last_wall = None
    for rec in records:
        wall = rec.get("wall")
        if isinstance(wall, (int, float)):
            first_wall = wall if first_wall is None else min(first_wall, wall)
            last_wall = wall if last_wall is None else max(last_wall, wall)
        kind = rec.get("kind")
        worker = str(rec.get("worker", "?"))
        task_id = str(rec.get("task", ""))
        if kind == "heartbeat":
            row = tasks.setdefault(
                task_id,
                {"task": task_id, "state": "running", "done": 0, "total": None,
                 "acc_s": 0.0, "counters": {}, "worker": worker, "wall": wall},
            )
            row.update(
                done=rec.get("done", row["done"]),
                total=rec.get("total", row["total"]),
                acc_s=rec.get("acc_s", 0.0),
                counters=rec.get("counters", row["counters"]),
                worker=worker,
                wall=wall,
            )
            if row["state"] == "stalled":
                row["state"] = "running"  # it spoke again
            w = workers.setdefault(worker, {"heartbeats": 0, "wall": wall})
            w["heartbeats"] += 1
            w["wall"] = wall
        elif kind == "task_start":
            tasks.setdefault(
                task_id,
                {"task": task_id, "state": "running", "done": 0,
                 "total": rec.get("total"), "acc_s": 0.0, "counters": {},
                 "worker": worker, "wall": wall},
            )["state"] = "running"
        elif kind == "task_end":
            row = tasks.setdefault(
                task_id,
                {"task": task_id, "state": "done", "done": 0, "total": None,
                 "acc_s": 0.0, "counters": {}, "worker": worker, "wall": wall},
            )
            row["state"] = "failed" if rec.get("error") else "done"
            if rec.get("counters"):
                row["counters"] = rec["counters"]
            if rec.get("accesses") is not None:
                row["done"] = rec["accesses"]
            if rec.get("acc_s") is not None:
                row["acc_s"] = rec["acc_s"]
            row["wall"] = wall
        elif kind == "task_retry":
            retries.append(rec)
        elif kind == "task_stall":
            stalls.append(rec)
            stalled = str(rec.get("task", ""))
            if stalled in tasks and tasks[stalled]["state"] == "running":
                tasks[stalled]["state"] = "stalled"
    running = [t for t in tasks.values() if t["state"] in ("running", "stalled")]
    done_counters: dict[str, int] = {}
    for t in tasks.values():
        for k, v in (t.get("counters") or {}).items():
            done_counters[k] = done_counters.get(k, 0) + v
    agg_rate = sum(t["acc_s"] for t in running)
    remaining = sum(
        t["total"] - t["done"]
        for t in running
        if t["total"] is not None and t["total"] > t["done"]
    )
    eta_s = remaining / agg_rate if agg_rate > 0 and remaining else None
    return {
        "tasks": sorted(tasks.values(), key=lambda t: _task_order(t["task"])),
        "workers": workers,
        "totals": {
            "counters": done_counters,
            "acc_s": agg_rate,
            "remaining": remaining,
            "eta_s": eta_s,
            "elapsed_s": (
                last_wall - first_wall
                if first_wall is not None and last_wall is not None
                else 0.0
            ),
        },
        "stalls": stalls,
        "retries": retries,
    }


def _task_order(task: str) -> tuple:
    """Numeric task ids sort numerically (so task "10" follows "9")."""
    try:
        return (0, int(task), "")
    except ValueError:
        return (1, 0, task)


def _bar(frac: float, width: int = 20) -> str:
    frac = min(1.0, max(0.0, frac))
    filled = int(round(frac * width))
    return "#" * filled + "." * (width - filled)


def _si(value: float) -> str:
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return f"{value / scale:.2f}{suffix}"
    return f"{value:.0f}"


def render_top(summary: dict, *, epsilon: float = 0.01) -> str:
    """One plain-text ``repro top`` frame from an :func:`aggregate` summary."""
    tasks = summary["tasks"]
    totals = summary["totals"]
    states = {s: sum(1 for t in tasks if t["state"] == s)
              for s in ("running", "done", "failed", "stalled")}
    lines = [
        "repro top — "
        + ", ".join(f"{n} {s}" for s, n in states.items() if n)
        if tasks
        else "repro top — spool is empty (no heartbeats yet)",
    ]
    if tasks:
        lines.append(
            f"{'TASK':<10} {'WORKER':<8} {'STATE':<8} "
            f"{'PROGRESS':<29} {'ACC/S':>8}"
        )
        for t in tasks:
            total = t["total"]
            if total:
                frac = t["done"] / total
                progress = f"{_bar(frac)} {frac:6.1%}"
            else:
                progress = f"{t['done']:>10} acc"
            lines.append(
                f"{t['task']:<10.10} {t['worker']:<8.8} {t['state']:<8} "
                f"{progress:<29} {_si(t['acc_s']):>8}"
            )
        c = totals["counters"]
        accesses = c.get("accesses", 0)
        ios = c.get("ios", 0)
        misses = c.get("tlb_misses", 0)
        dmisses = c.get("decoding_misses", 0)
        cost = ios + epsilon * (misses + dmisses)
        lines.append(
            f"aggregate: {_si(totals['acc_s'])} acc/s | "
            f"accesses {accesses:,} | ios {ios:,} | tlb_misses {misses:,} | "
            f"cost@eps={epsilon:g} {cost:,.1f}"
        )
        # miss-attribution cause columns, when any task streamed them
        families: dict[str, dict[str, int]] = {}
        for key, v in c.items():
            if key.startswith(ATTRIB_PREFIX):
                fam, _, cause = key[len(ATTRIB_PREFIX):].partition(":")
                families.setdefault(fam, {})[cause] = v
        for fam in sorted(families):
            causes = families[fam]
            lines.append(
                f"attrib {fam}: "
                + " | ".join(
                    f"{cause} {causes[cause]:,}"
                    for cause in CAUSES
                    if causes.get(cause)
                )
            )
        eta = totals["eta_s"]
        lines.append(
            f"elapsed {totals['elapsed_s']:.1f}s | "
            + (f"ETA {eta:.1f}s" if eta is not None else "ETA —")
        )
    for rec in summary["stalls"][-3:]:
        lines.append(
            f"STALL task={rec.get('task')} worker={rec.get('stalled_worker')} "
            f"silent {rec.get('silent_s', 0.0):.1f}s"
        )
    for rec in summary["retries"][-3:]:
        lines.append(
            f"RETRY task={rec.get('task')} attempt={rec.get('attempt')} "
            f"({rec.get('error', '')})"
        )
    return "\n".join(lines)


class StallWatcher:
    """Daemon thread flagging workers that stopped heartbeating.

    Polls *spool* every *poll_s* seconds; a worker whose newest record is
    older than ``stall_factor × `` its observed inter-heartbeat period
    (never less than *grace_s*) gets one structured ``task_stall`` record
    emitted on *bus* and one structured warning log. A worker that speaks
    again is re-armed, so an intermittent stall is reported per episode.
    """

    def __init__(
        self,
        spool,
        bus: TelemetryBus,
        *,
        stall_factor: float = 4.0,
        grace_s: float = 5.0,
        poll_s: float = 0.5,
    ) -> None:
        self.spool = Path(spool)
        self.bus = bus
        self.stall_factor = float(stall_factor)
        self.grace_s = float(grace_s)
        self.poll_s = float(poll_s)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: worker -> seq of the record already reported stalled.
        self._reported: dict[str, int] = {}

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "StallWatcher":
        self._thread = threading.Thread(
            target=self._run, name="repro-stall-watcher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "StallWatcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # --------------------------------------------------------------- polling

    def _run(self) -> None:
        while not self._stop.wait(self.poll_s):
            try:
                self.check(time.monotonic())
            except Exception:  # pragma: no cover - never kill the parent
                _log.exception("stall watcher poll failed")

    def check(self, now: float) -> list[dict]:
        """One poll (factored out of the thread loop for direct testing)."""
        latest: dict[str, dict] = {}
        period: dict[str, float] = {}
        for rec in read_spool(self.spool):
            if rec.get("kind") not in (
                "heartbeat", "phase", "task_start", "task_end",
            ):
                continue
            worker = str(rec.get("worker", "?"))
            prev = latest.get(worker)
            if prev is not None and rec.get("kind") == "heartbeat":
                gap = rec.get("wall", 0.0) - prev.get("wall", 0.0)
                if gap > 0:
                    period[worker] = gap
            latest[worker] = rec
        stalls: list[dict] = []
        for worker, rec in latest.items():
            if rec.get("kind") != "heartbeat":
                continue  # finished or not yet measuring
            allowed = max(
                self.grace_s, self.stall_factor * period.get(worker, 0.0)
            )
            silent = now - rec.get("wall", now)
            seq = rec.get("seq", 0)
            if silent <= allowed:
                self._reported.pop(worker, None)
                continue
            if self._reported.get(worker) == seq:
                continue  # this episode is already on the bus
            self._reported[worker] = seq
            stall = self.bus.emit(
                "task_stall",
                task=rec.get("task", ""),
                stalled_worker=worker,
                silent_s=silent,
                allowed_s=allowed,
                last_seq=seq,
            )
            stalls.append(stall)
            _log.warning(
                "worker %s silent for %.1fs (allowed %.1fs) on task %s",
                worker, silent, allowed, rec.get("task", ""),
            )
        return stalls
