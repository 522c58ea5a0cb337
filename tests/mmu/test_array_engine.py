"""Array-engine tests: kernel exactness, deep state parity, failure bailout.

The struct-of-arrays engine (:mod:`repro.mmu.array_engine`) promises
*bit-identical* results to the object engine — not just matching ledgers,
but matching replacement orders, TLB value maps, scheme bookkeeping sets,
and clocks, so that a trace can switch engines mid-stream at any segment
boundary. These tests pin that promise:

* :class:`StreamKernel` against a brute-force LRU oracle (hits, victims
  in order, final residents) across randomized small streams;
* full deep-state parity for every covered algorithm on cold, segmented,
  and warm-reset replays;
* the write-back dirty bit carried across segment boundaries;
* the paging-failure bailout: the array engine detects the failing access
  mid-segment, syncs state up to it, and the object engine resumes with
  ledgers and ``φ`` bookkeeping identical to a pure object run;
* engine selection through the registry, ``simulate``, and ``SimTask``.
"""

import tracemalloc
from collections import OrderedDict
from functools import partial

import numpy as np
import pytest

from repro.bench.hotloop import key_stream
from repro.check import ValidatingMM
from repro.mmu import DecoupledMM
from repro.mmu.array_engine import StreamKernel, supports, try_run
from repro.mmu.registry import ENGINES, MM_NAMES, make_mm, mm_factory
from repro.obs import SamplingProbe, TraceRecorder
from repro.sim import simulate
from repro.sim.parallel import SimTask, run_records
from repro.workloads import ZipfWorkload

#: algorithms with a batch handler (everything but THP).
ARRAY_MMS = tuple(n for n in MM_NAMES if n != "thp")
#: configurations beyond the registry's, built as (tlb, ram, seed=) -> mm.
VARIANTS = {"decoupled-one-choice": partial(DecoupledMM, scheme="one-choice")}

TLB_ENTRIES = 64
RAM_PAGES = 1024
TRACE = np.array(
    key_stream(12_000, 1 << 12, 1 << 7, 90, seed=0), dtype=np.int64
)


def _lru_oracle(keys, prefix, capacity):
    """Reference LRU: per-access hits, victims in order, final residents."""
    od = OrderedDict((k, None) for k in prefix)
    hits, victims = [], []
    for k in keys:
        if k in od:
            od.move_to_end(k)
            hits.append(True)
        else:
            hits.append(False)
            od[k] = None
            if len(od) > capacity:
                victims.append(od.popitem(last=False)[0])
    return hits, victims, list(od)


def _state_sig(mm):
    """Every piece of observable state the engines must agree on."""
    name = type(mm).__name__
    sig = {"ledger": mm.ledger.as_dict()}
    for attr in ("tlb", "ram", "nested_tlb"):
        cache = getattr(mm, attr, None)
        if cache is not None:
            sig[attr] = (
                list(cache.policy._order),
                cache.hits,
                cache.misses,
                cache.evictions,
                cache._clock,
            )
    if hasattr(mm, "_dirty"):
        sig["dirty"] = sorted(mm._dirty)
    system = getattr(mm, "system", None)
    if system is not None:
        tlb, scheme = system.tlb, system.scheme
        sig["tlb"] = (
            list(tlb.policy._order),
            dict(tlb._values),
            tlb.hits,
            tlb.misses,
            tlb.fills,
            tlb._clock,
            tlb._last_stamp,
        )
        sig["ram"] = (
            list(system.ram.policy._order),
            system.ram.hits,
            system.ram.misses,
            system.ram.evictions,
            system.ram._clock,
        )
        sig["scheme"] = (
            sorted(scheme._tlb_resident),
            sorted(scheme._active),
            sorted(scheme._failed),
        )
        sig["psi"] = dict(scheme._psi)
    return sig


# --------------------------------------------------------------- kernel


class TestStreamKernel:
    def test_matches_oracle_on_random_streams(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(1, 400))
            universe = int(rng.integers(2, 60))
            cap = int(rng.integers(1, 40))
            seg = rng.integers(0, universe, n).astype(np.int64)
            r = int(rng.integers(0, min(cap, universe) + 1))
            prefix = list(dict.fromkeys(rng.permutation(universe)[:r].tolist()))
            kern = StreamKernel(seg, prefix)
            hits, victims, residents = _lru_oracle(seg.tolist(), prefix, cap)
            assert kern.hit_mask(cap)[kern.R :].tolist() == hits, trial
            assert kern.keys[kern.deaths(cap)].tolist() == victims, trial
            assert kern.final_residents(cap).tolist() == residents, trial

    def test_dense_stream_exercises_ladder_and_grid(self):
        # small universe + large n leaves thousands of ambiguous queries,
        # forcing the sliding-window ladder, the direct scan, and the
        # blocked dominance grid — every pruning tier must stay exact
        rng = np.random.default_rng(3)
        n, universe, cap = 20_000, 120, 64
        seg = rng.integers(0, universe, n).astype(np.int64)
        kern = StreamKernel(seg)
        hits, victims, _ = _lru_oracle(seg.tolist(), (), cap)
        assert kern.hit_mask(cap).tolist() == hits
        assert kern.keys[kern.deaths(cap)].tolist() == victims

    def test_residents_at_reconstructs_mid_stream_state(self):
        rng = np.random.default_rng(5)
        seg = rng.integers(0, 50, 300).astype(np.int64)
        cap = 16
        kern = StreamKernel(seg)
        for cut in (0, 77, 150, 299):
            _, _, residents = _lru_oracle(seg[:cut].tolist(), (), cap)
            assert kern.residents_at(cap, cut).tolist() == residents


class TestKernelMemory:
    """The kernel's transient working set stays O(n): the dominance grid's
    checkpoint matrices, the sliding-window ladder and the direct-scan
    batches are all bounded, so one long ``hit_mask`` call does not spike
    the process peak (the checkpoint matrices alone once grew as
    O((n/128)^2), and one scan batch could take 11 MB)."""

    #: traced bytes per stream position: the bounded kernel peaks at 60-85
    #: on these streams, the unbounded one at 115-210.
    BYTES_PER_KEY = 100

    @pytest.mark.parametrize("skew", [0.9, 1.2])
    def test_hit_mask_peak_is_linear_in_the_stream(self, skew):
        keys = ZipfWorkload(1 << 16, s=skew).generate(100_000, seed=0)
        prefix = np.unique(keys[:5_000])[:256]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            StreamKernel(keys, prefix).hit_mask(256)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < self.BYTES_PER_KEY * (keys.size + prefix.size), peak


# ------------------------------------------------------- engine parity


def _make(name, engine="array"):
    if name not in VARIANTS:
        return make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, engine=engine)
    mm = VARIANTS[name](TLB_ENTRIES, RAM_PAGES, seed=0)
    mm.engine = engine
    return mm


@pytest.mark.parametrize("name", ARRAY_MMS + tuple(VARIANTS))
class TestDeepStateParity:
    def test_cold_run(self, name):
        obj = _make(name, engine="object")
        arr = _make(name)
        obj.run(TRACE)
        assert try_run(arr, TRACE) is not None, "array engine declined"
        assert _state_sig(obj) == _state_sig(arr)

    def test_segmented_and_warm_reset(self, name):
        obj = _make(name, engine="object")
        arr = _make(name, engine="array")
        cuts = (0, 3_337, 3_338, 9_101, 12_000)
        for a, b in zip(cuts[:-1], cuts[1:]):
            obj.run(TRACE[a:b])
            arr.run(TRACE[a:b])
            assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
        obj.reset_stats()
        arr.reset_stats()
        obj.run(TRACE[:5_000])
        arr.run(TRACE[:5_000])
        assert _state_sig(obj) == _state_sig(arr)

    def test_supports(self, name):
        assert supports(_make(name))


@pytest.mark.parametrize("name", ["decoupled", "hybrid"])
def test_validated_quanta_match_both_engines(name):
    """The oracle's per-access replay (``ValidatingMM._replay``) on
    64-access segments leaves the same deep state and ledger as one
    object-engine call and one batched array-engine call."""
    validated = ValidatingMM(_make(name, engine="object"))
    for a in range(0, TRACE.size, 64):
        validated.run(TRACE[a : a + 64])
    obj = _make(name, engine="object")
    obj.run(TRACE)
    arr = _make(name)
    assert try_run(arr, TRACE) is not None, "array engine declined"
    sig = _state_sig(validated.inner)
    assert sig == _state_sig(obj)
    assert sig == _state_sig(arr)
    assert validated.oracle.accesses_checked == TRACE.size


class TestWritebackDirtyCarry:
    def test_dirty_state_crosses_segment_boundaries(self):
        # a page dirtied in segment 1 but evicted in segment 2 must still
        # flush — the per-segment store sampling alone cannot see it
        obj = make_mm(
            "physical-huge+wb", TLB_ENTRIES, RAM_PAGES, seed=0, engine="object"
        )
        arr = make_mm(
            "physical-huge+wb", TLB_ENTRIES, RAM_PAGES, seed=0, engine="array"
        )
        for a, b in ((0, 4_000), (4_000, 8_000), (8_000, 12_000)):
            obj.run(TRACE[a:b])
            arr.run(TRACE[a:b])
            assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
        assert obj.ledger.extra["writebacks"] > 0


# ------------------------------------------------- paging-failure bailout


class TestPagingFailureBailout:
    """Satellite contract: a paging failure mid-segment hands control back
    to the object engine at the failing access with synchronized state."""

    def _run_pair(self, name, tlb, ram, universe, seed):
        trace = key_stream(4_000, universe, universe // 8, 50, seed=0)
        obj = make_mm(name, tlb, ram, seed=seed, engine="object")
        arr = make_mm(name, tlb, ram, seed=seed, engine="array")
        obj.run(trace)
        arr.run(trace)
        return obj, arr

    def test_decoupled_failure_resumes_bit_identical(self):
        obj, arr = self._run_pair("decoupled", 32, 64, 1024, seed=2)
        assert obj.ledger.paging_failures >= 2, "config no longer fails"
        assert _state_sig(obj) == _state_sig(arr)

    def test_hybrid_failure_resumes_bit_identical(self):
        obj, arr = self._run_pair("hybrid", 32, 128, 512, seed=2)
        assert obj.ledger.paging_failures >= 2, "config no longer fails"
        assert _state_sig(obj) == _state_sig(arr)

    def test_failed_state_keeps_later_segments_identical(self):
        # once the failure set is non-empty the batch handler declines and
        # every later run() falls back to the object replay — the two
        # engines must stay in lockstep across that transition too
        trace = key_stream(4_000, 1024, 128, 50, seed=0)
        obj = make_mm("decoupled", 32, 64, seed=2, engine="object")
        arr = make_mm("decoupled", 32, 64, seed=2, engine="array")
        for a, b in ((0, 2_000), (2_000, 4_000)):
            obj.run(trace[a:b])
            arr.run(trace[a:b])
            assert _state_sig(obj) == _state_sig(arr), f"segment {a}:{b}"
        assert obj.ledger.paging_failures > 0


# --------------------------------------------------- selection plumbing


class TestEngineSelection:
    def test_registry_validates_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_mm("base-page", 64, 1024, engine="simd")
        with pytest.raises(ValueError, match="unknown engine"):
            mm_factory("base-page", 64, 1024, engine="simd")

    def test_registry_sets_engine(self):
        assert ENGINES == ("array", "object")  # the default first
        assert make_mm("base-page", 64, 1024).engine == "array"
        assert mm_factory("base-page", 64, 1024)().engine == "array"
        assert make_mm("base-page", 64, 1024, engine="object").engine == "object"
        assert mm_factory("base-page", 64, 1024, engine="object")().engine == "object"
        assert make_mm("base-page", 64, 1024, engine="array").engine == "array"
        assert mm_factory("base-page", 64, 1024, engine="array")().engine == "array"

    def test_thp_falls_back_to_object(self):
        obj = make_mm("thp", TLB_ENTRIES, RAM_PAGES, engine="object")
        arr = make_mm("thp", TLB_ENTRIES, RAM_PAGES, engine="array")
        obj.run(TRACE[:4_000])
        arr.run(TRACE[:4_000])
        assert obj.ledger.as_dict() == arr.ledger.as_dict()

    def test_simulate_engine_override(self):
        obj = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="object")
        arr = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="object")
        lo = simulate(obj, TRACE, warmup=2_000)
        la = simulate(arr, TRACE, warmup=2_000, engine="array")
        assert arr.engine == "array"
        assert lo.as_dict() == la.as_dict()

    def test_simtask_engine(self):
        tasks = [
            SimTask(key=0, mm_factory=mm_factory("decoupled", 64, 1024, seed=0)),
            SimTask(
                key=1,
                mm_factory=mm_factory("decoupled", 64, 1024, seed=0),
                engine="array",
            ),
        ]
        records = run_records(tasks, trace=TRACE, jobs=1)
        assert records[0].ledger.as_dict() == records[1].ledger.as_dict()


# -------------------------------------------------------- probe contract


class TestProbeContract:
    def test_per_access_probe_forces_object_path(self):
        # TraceRecorder needs every access event; the array engine must
        # decline and the ledgers must still match the probed object run
        probed = make_mm("base-page", TLB_ENTRIES, RAM_PAGES)
        arr = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="array")
        lp = simulate(probed, TRACE[:3_000], probe=TraceRecorder(capacity=16))
        la = simulate(arr, TRACE[:3_000], probe=TraceRecorder(capacity=16))
        assert lp.as_dict() == la.as_dict()

    def test_batch_safe_probe_gets_one_flush(self):
        flushes = []

        class _Tap(SamplingProbe):
            def on_batch(self, t0, vpns, ledger, before):
                flushes.append((t0, len(vpns), ledger.snapshot(), before))

        mm = make_mm("base-page", TLB_ENTRIES, RAM_PAGES, engine="array")
        mm.probe = _Tap(1.0, seed=0)
        mm.run(TRACE[:3_000])
        assert len(flushes) == 1
        t0, n_vpns, after, before = flushes[0]
        assert (t0, n_vpns) == (0, 3_000)
        assert after != before
