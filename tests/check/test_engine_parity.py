"""Engine parity on the committed golden streams.

CI's engine-parity job runs this module under both numpy 1.26 and 2.x.
For every committed golden cell (registry algorithm × workload) it
replays the identical trace on the object and array engines and fails on
any counter divergence; the array-engine ledger is additionally pinned
against the committed per-access rows, aggregated to ledger totals (the
array engine emits no events, so totals are the strongest golden check
it can face).

The multi-tenant goldens (``tests/tenancy/goldens.py``) extend the same
pinning to ASID-striped runs: the object engine must reproduce the
committed stream row for row. Their 53-access quanta sit below the array
engine's batch floor, so at the default floor the array engine hands them
to the object replay, and must still land on exactly the golden totals
(the fallback is silent *and* correct). With the floor lifted every
quantum is batched, resuming after context switches and exit shootdowns,
and must match both the golden totals and the object engine's per-tenant
ledgers.
"""

import pytest

from repro.check import (
    StreamTap,
    diff_engine_ledgers,
    first_divergence,
    golden_totals,
    load_golden,
    record_stream,
)
from repro.mmu.registry import make_mm
from repro.obs import NULL_PROBE

from ..tenancy.goldens import build_sim
from ..tenancy.goldens import golden_cases as mt_golden_cases
from .goldens import (
    RAM_PAGES,
    SEED,
    TLB_ENTRIES,
    WARMUP,
    build_failure_mm,
    build_failure_trace,
    build_trace,
    failure_cases,
    golden_cases,
)

CASES = list(golden_cases())
CASE_IDS = [f"{algorithm}-{workload}" for algorithm, workload, _ in CASES]


@pytest.mark.parametrize(("algorithm", "workload", "path"), CASES, ids=CASE_IDS)
class TestEngineParity:
    def test_engines_agree_on_full_ledger(self, algorithm, workload, path):
        def factory():
            return make_mm(algorithm, TLB_ENTRIES, RAM_PAGES, seed=SEED)

        report = diff_engine_ledgers(
            factory, build_trace(workload), warmup=WARMUP
        )
        assert report.identical, (
            f"{algorithm}/{workload}: {report.describe()}"
        )

    def test_array_ledger_matches_golden_totals(self, algorithm, workload, path):
        _, rows = load_golden(path)
        totals = golden_totals(rows)
        mm = make_mm(algorithm, TLB_ENTRIES, RAM_PAGES, seed=SEED, engine="array")
        trace = build_trace(workload)
        mm.run(trace[:WARMUP])
        evictions0 = mm._eviction_count()
        mm.reset_stats()
        ledger = mm.run(trace[WARMUP:])
        assert ledger.accesses == totals["accesses"]
        assert ledger.tlb_misses == totals["tlb_misses"]
        assert ledger.ios == totals["ios"]
        assert ledger.decoding_misses == totals["decoding_misses"]
        assert mm._eviction_count() - evictions0 == totals["evictions"]


MT_CASES = list(mt_golden_cases())
MT_IDS = [f"{algorithm}-t{k}" for algorithm, k, _ in MT_CASES]


@pytest.mark.parametrize(("algorithm", "k", "path"), MT_CASES, ids=MT_IDS)
class TestMultiTenantEngineParity:
    def test_object_engine_matches_golden_stream(self, algorithm, k, path):
        _, golden_rows = load_golden(path)
        sim = build_sim(algorithm, k, engine="object")
        tap = StreamTap()
        sim.mm.probe = tap
        try:
            sim.run()
        finally:
            sim.mm.probe = NULL_PROBE
        div = first_divergence(tap.as_tuples(), golden_rows)
        assert div is None, f"{algorithm}/t{k}: {div.describe()}"

    def test_array_engine_falls_back_to_golden_totals(self, algorithm, k, path):
        # no probe here: an attached tap would itself force the object
        # path, hiding exactly the fallback this test pins
        _, golden_rows = load_golden(path)
        totals = golden_totals(golden_rows)
        sim = build_sim(algorithm, k, engine="array")
        result = sim.run()
        ledger = result.ledger
        assert ledger.accesses == totals["accesses"]
        assert ledger.tlb_misses == totals["tlb_misses"]
        assert ledger.ios == totals["ios"]
        assert ledger.decoding_misses == totals["decoding_misses"]
        assert sim.mm._eviction_count() == totals["evictions"]
        result.verify_counter_sums()

    def test_batched_quanta_land_on_golden_totals(
        self, algorithm, k, path, batch_every_segment
    ):
        totals = golden_totals(load_golden(path)[1])
        sim = build_sim(algorithm, k, engine="array")
        ledger = sim.run().ledger
        assert batch_every_segment and all(batch_every_segment)
        assert ledger.accesses == totals["accesses"]
        assert ledger.tlb_misses == totals["tlb_misses"]
        assert ledger.ios == totals["ios"]
        assert ledger.decoding_misses == totals["decoding_misses"]
        assert sim.mm._eviction_count() == totals["evictions"]

    def test_engines_agree_on_tenant_ledgers(
        self, algorithm, k, path, batch_every_segment
    ):
        res_obj = build_sim(algorithm, k, engine="object").run()
        res_arr = build_sim(algorithm, k, engine="array").run()
        # every array-engine quantum went through the batch kernel
        assert batch_every_segment and all(batch_every_segment)
        assert res_obj.ledger.as_dict() == res_arr.ledger.as_dict()
        assert res_obj.switches == res_arr.switches
        assert [e.dropped for e in res_obj.shootdowns] == [
            e.dropped for e in res_arr.shootdowns
        ]
        for a, b in zip(res_obj.records, res_arr.records):
            assert a.ledger.snapshot() == b.ledger.snapshot(), a.name


FAIL_CASES = list(failure_cases())
FAIL_IDS = [algorithm for algorithm, _ in FAIL_CASES]


@pytest.mark.parametrize(("algorithm", "path"), FAIL_CASES, ids=FAIL_IDS)
class TestPagingFailureParity:
    """Differential paging-failure accounting.

    These cells are undersized on purpose so the stream fails mid-run
    (at least twice — pinned at regen time). The array engine must bail
    out of its batch kernel at the exact failing access with a ledger
    bit-identical to the object engine's, whether the failing segment is
    cold or resumes warm state, and the full-run stream must stay on the
    committed golden.
    """

    def test_object_engine_matches_golden_stream(self, algorithm, path):
        header, golden_rows = load_golden(path)
        mm = build_failure_mm(algorithm)
        rows = record_stream(mm, build_failure_trace(algorithm))
        div = first_divergence(rows, golden_rows)
        assert div is None, f"{algorithm}: {div.describe()}"
        assert mm.ledger.as_dict() == header["ledger"]
        assert header["ledger"]["paging_failures"] >= 2

    def test_cold_segment_bails_at_the_failing_access(self, algorithm, path):
        # truncate the trace right after the first failure: the array
        # engine's bailout ledger at that access must equal the object
        # engine's, field for field (accesses/tlb_hits/ios/... all of it)
        header, _ = load_golden(path)
        first_fail = header["failures"][0]
        trace = build_failure_trace(algorithm)[: first_fail + 1]
        obj = build_failure_mm(algorithm, engine="object")
        arr = build_failure_mm(algorithm, engine="array")
        obj.run(trace)
        arr.run(trace)
        assert obj.ledger.paging_failures == 1
        assert obj.ledger.as_dict() == arr.ledger.as_dict()

    def test_warm_resumed_segment_bails_identically(self, algorithm, path):
        # warm both engines up to the pre-failure split, reset counters,
        # then resume into the failure: the measurement-phase ledgers
        # must agree at the exact failing access despite the warm state
        header, _ = load_golden(path)
        first_fail = header["failures"][0]
        warm = header["warm_split"]
        assert 0 < warm < first_fail
        trace = build_failure_trace(algorithm)
        ledgers = {}
        for engine in ("object", "array"):
            mm = build_failure_mm(algorithm, engine=engine)
            mm.run(trace[:warm])
            assert mm.ledger.paging_failures == 0
            mm.reset_stats()
            mm.run(trace[warm : first_fail + 1])
            ledgers[engine] = mm.ledger.as_dict()
        assert ledgers["object"]["paging_failures"] == 1
        assert ledgers["object"] == ledgers["array"]

    def test_array_ledger_matches_golden_totals(self, algorithm, path):
        header, rows = load_golden(path)
        totals = golden_totals(rows)
        mm = build_failure_mm(algorithm, engine="array")
        ledger = mm.run(build_failure_trace(algorithm))
        assert ledger.accesses == totals["accesses"]
        assert ledger.tlb_misses == totals["tlb_misses"]
        assert ledger.ios == totals["ios"]
        assert ledger.decoding_misses == totals["decoding_misses"]
        assert ledger.as_dict() == header["ledger"]
