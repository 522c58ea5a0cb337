"""The replay router: ``MemoryManagementAlgorithm.run`` is the one entry point.

Every registry algorithm serves ``run()`` through the same decision
sequence — materialize a length-less trace once, send per-access probes to
the event replay, cut the rest into ``batch_interval`` segments, offer each
segment to the array engine, else ``_replay`` it, then flush the probe once
per segment. These tests pin the two places where per-algorithm copies of
that policy used to drift: traces without ``len()`` (generators) and
subclasses that change ``access`` semantics. They also pin the batch floor:
the array engine only takes segments at least as long as
``max(_MIN_BATCH, RAM residents)``, so short quanta stay on ``_replay``.
"""

import pytest

from repro.mmu import array_engine
from repro.mmu.base import MemoryManagementAlgorithm
from repro.mmu.registry import ENGINES, MM_NAMES, make_mm
from repro.obs import OnlineStackDistance
from repro.obs.events import Probe
from tests.check.goldens import build_trace
from tests.mmu.test_array_engine import TRACE, _state_sig

TLB_ENTRIES = 64
RAM_PAGES = 1024

#: algorithms that override ``_replay`` with a vectorized replay.
REPLAY_MMS = ("physical-huge", "decoupled", "hybrid", "thp")


class _Tally(Probe):
    """Batch-safe probe counting the accesses and flushes it is shown."""

    enabled = True
    batch_safe = True

    def __init__(self, interval=None) -> None:
        self.batch_interval = interval
        self.seen = 0
        self.flushes = 0

    def on_batch(self, t0, vpns, ledger, before) -> None:
        self.seen += len(vpns)
        self.flushes += 1


def _seen(probe) -> int:
    if isinstance(probe, OnlineStackDistance):
        return probe.tracked_accesses  # rate=1 tracks every access
    return probe.seen


PROBES = {
    "none": lambda: None,
    "online": OnlineStackDistance,
    "interval": lambda: _Tally(interval=333),
}


@pytest.mark.parametrize("probe_kind", sorted(PROBES))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", MM_NAMES)
def test_generator_trace_matches_list_trace(name, engine, probe_kind):
    trace = build_trace("zipf")
    expected = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine=engine)
    expected.run(trace.tolist())

    mm = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine=engine)
    probe = PROBES[probe_kind]()
    if probe is not None:
        mm.probe = probe
    ledger = mm.run(v for v in trace)
    assert ledger.as_dict() == expected.ledger.as_dict()
    if probe is not None:
        assert _seen(probe) == len(trace)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", REPLAY_MMS)
def test_access_override_disables_inherited_replay(name, engine):
    """A subclass that overrides ``access`` is served access by access,
    never by the parent's vectorized ``_replay`` or the array engine."""
    trace = build_trace("zipf")
    expected = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine=engine)
    expected.run(trace)

    mm = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine=engine)
    parent = type(mm)
    calls = []

    def access(self, vpn):
        calls.append(vpn)
        parent.access(self, vpn)

    mm.__class__ = type(f"Counting{parent.__name__}", (parent,), {"access": access})
    assert type(mm)._replay is MemoryManagementAlgorithm._replay
    assert "_replay" in vars(parent)  # the parent really has a fast replay
    mm.run(trace)
    assert calls == trace.tolist()
    assert mm.ledger.as_dict() == expected.ledger.as_dict()


def test_run_is_defined_only_on_the_base_class():
    for name in MM_NAMES:
        for cls in type(make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)).__mro__:
            if cls is not MemoryManagementAlgorithm:
                assert "run" not in vars(cls), f"{cls.__name__} overrides run()"


# ------------------------------------------------------------ batch floor


def _served_by(mm, monkeypatch) -> list:
    """Spy on the router: one ``(path, length)`` entry per segment *mm*
    serves, path ``"batch"`` (array engine) or ``"replay"`` (``_replay``)."""
    routes = []
    real_try = array_engine.try_run
    real_replay = type(mm)._replay

    def spy_try(target, segment):
        out = real_try(target, segment)
        if target is mm and out is not None:
            routes.append(("batch", len(segment)))
        return out

    def spy_replay(self, segment):
        if self is mm:
            routes.append(("replay", len(segment)))
        return real_replay(self, segment)

    monkeypatch.setattr(array_engine, "try_run", spy_try)
    monkeypatch.setattr(type(mm), "_replay", spy_replay)
    return routes


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", MM_NAMES)
def test_segments_below_the_floor_take_the_replay_path(name, warm, monkeypatch):
    """A segment is batched iff it holds at least ``max(_MIN_BATCH, RAM
    residents)`` accesses (and the algorithm has a batch handler); either
    way the ledger and every policy order equal the object engine's."""
    mm = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)
    ref = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine="object")
    batchable = array_engine.supports(mm)

    def residents():
        return len(getattr(mm, "system", mm).ram) if batchable else 0

    floor = array_engine._MIN_BATCH
    pos = 0
    if warm:
        for m in (mm, ref):
            m.run(TRACE[:4000])
        pos = 4000
    routes = _served_by(mm, monkeypatch)
    expected = []

    def serve(length):
        batched = batchable and length >= max(floor, residents())
        expected.append(("batch" if batched else "replay", length))
        nonlocal pos
        segment = TRACE[pos : pos + length]
        pos += length
        mm.run(segment)
        ref.run(segment)
        assert _state_sig(mm) == _state_sig(ref), f"segment of {length}"

    for length in (floor - 1, floor, floor + 1):
        serve(length)
    if warm and name in ("base-page", "decoupled", "nested"):
        # their warm RAM holds more residents than _MIN_BATCH: straddle
        # the residents term of the floor too
        assert residents() > floor + 1
        serve(residents() - 1)
        serve(residents())
        assert routes[-2:] == [("replay", routes[-2][1]), ("batch", routes[-1][1])]
    assert routes == expected
