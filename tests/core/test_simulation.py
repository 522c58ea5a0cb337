"""Tests for the Simulation Theorem construction Z (Theorem 4) and the
Lemma 1 separation utilities."""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core import (
    ATCostModel,
    DecoupledSystem,
    DecouplingScheme,
    IcebergAllocator,
    TLBValueCodec,
    huge_page_trace,
    optimal_ios,
    optimal_tlb_misses,
    paging_faults,
    theorem3_parameters,
    build_allocator,
)
from repro.paging import FIFOPolicy, LRUPolicy


def make_system(
    frames=256, n_buckets=32, tlb_entries=8, ram_capacity=None, hmax=None, seed=0
):
    allocator = IcebergAllocator(frames, n_buckets, lam=frames / n_buckets / 2, seed=seed)
    codec = TLBValueCodec.for_allocator(64, allocator, hmax=hmax)
    scheme = DecouplingScheme(allocator, codec)
    if ram_capacity is None:
        ram_capacity = int(frames * 0.8)
    return DecoupledSystem(tlb_entries, ram_capacity, LRUPolicy(), LRUPolicy(), scheme)


class TestConstruction:
    def test_ram_capacity_must_fit(self):
        with pytest.raises(ValueError, match="exceeds physical frames"):
            make_system(frames=256, ram_capacity=500)


class TestServicing:
    def test_single_access_costs(self):
        z = make_system()
        z.access(5)
        assert z.ledger.accesses == 1
        assert z.ledger.tlb_misses == 1  # cold TLB
        assert z.ledger.ios == 1  # cold RAM
        assert z.ledger.tlb_hits == 0

    def test_repeat_access_is_free(self):
        z = make_system()
        z.access(5)
        z.access(5)
        assert z.ledger.tlb_hits == 1
        assert z.ledger.ios == 1  # no second IO

    def test_huge_page_locality_saves_tlb_misses(self):
        """Accesses within one huge page share a single TLB fill."""
        z = make_system()
        hmax = z.hmax
        assert hmax >= 2
        for vpn in range(hmax):
            z.access(vpn)
        assert z.ledger.tlb_misses == 1
        assert z.ledger.ios == hmax  # but each base page faults once

    def test_invariants_after_random_run(self):
        z = make_system()
        rng = np.random.default_rng(0)
        for vpn in rng.integers(0, 600, 3000):
            z.access(int(vpn))
        z.check_invariants()

    def test_run_returns_ledger(self):
        z = make_system()
        ledger = z.run([1, 2, 3, 1])
        assert ledger is z.ledger
        assert ledger.accesses == 4

    def test_finished_system_is_freed_without_the_cycle_collector(self):
        """Z's ψ hook closes over its TLB, not Z itself: a finished system
        holds no reference cycle, so its state (tens of MB on benchmark
        configurations) is freed at once rather than at the next cyclic
        collection, which a batched replay may not trigger for a while."""
        z = make_system()
        z.run(list(range(200)) * 3)
        ref = weakref.ref(z.scheme)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del z
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_system_pickles_with_its_psi_hook(self):
        """A prebuilt algorithm reaches pool workers pickled: the ψ hook
        must survive the trip and keep pushing values into the copy's TLB."""
        z = make_system()
        z.run(list(range(100)))
        clone = pickle.loads(pickle.dumps(z))
        for system in (z, clone):
            system.run(list(range(50, 400)))
            system.check_invariants()
        assert clone.ledger.as_dict() == z.ledger.as_dict()

    def test_tlb_decode_matches_ram(self):
        """After servicing, the TLB entry actually decodes the page to its
        frame (the end-to-end eq. 4 path through real components)."""
        z = make_system()
        z.access(10)
        frame = z.scheme.frame_of(10)
        hpn = 10 // z.hmax
        stored = z.tlb.peek(hpn)
        assert z.scheme.f(10, stored) == frame


class TestPagingFailureServicing:
    def make_failing_system(self):
        # brutal: 4 frames in 4 buckets of 1, one-choice-like pressure via
        # iceberg with lam<1 — failures are common.
        allocator = IcebergAllocator(4, 4, lam=1.0, front_slack=0.0, seed=3)
        codec = TLBValueCodec.for_allocator(64, allocator)
        scheme = DecouplingScheme(allocator, codec)
        return DecoupledSystem(8, 4, LRUPolicy(), LRUPolicy(), scheme)

    def test_failure_costs_one_plus_epsilon(self):
        z = self.make_failing_system()
        rng = np.random.default_rng(1)
        for vpn in rng.integers(0, 64, 500):
            z.access(int(vpn))
        # failures occurred and each was charged an IO and a decoding miss
        assert z.ledger.paging_failures > 0
        assert z.ledger.decoding_misses == z.ledger.paging_failures

    def test_failed_page_repeat_access_keeps_paying(self):
        z = self.make_failing_system()
        # fill until some page fails
        failed = None
        for vpn in range(64):
            z.access(vpn)
            if z.scheme.failure_set:
                failed = next(iter(z.scheme.failure_set))
                break
        assert failed is not None
        before = z.ledger.ios
        z.access(failed)  # RAM hit in Y, but D is failing it
        assert z.ledger.ios == before + 1

    def test_invariants_hold_under_failures(self):
        z = self.make_failing_system()
        rng = np.random.default_rng(2)
        for vpn in rng.integers(0, 64, 400):
            z.access(int(vpn))
        z.check_invariants()


class TestSeparation:
    def test_huge_page_trace(self):
        np.testing.assert_array_equal(
            huge_page_trace([0, 7, 8, 15, 16], 8), [0, 0, 1, 1, 2]
        )

    def test_optimal_bounds_online_policies(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 100, 2000).tolist()
        opt = optimal_ios(trace, 32)
        assert opt <= paging_faults(trace, 32, LRUPolicy())
        assert opt <= paging_faults(trace, 32, FIFOPolicy())

    def test_optimal_tlb_misses_smaller_with_bigger_pages(self):
        rng = np.random.default_rng(4)
        # sequential-ish trace: huge pages help a lot
        trace = np.repeat(np.arange(200), 4) + rng.integers(0, 2, 800)
        m1 = optimal_tlb_misses(trace, 8, 1)
        m16 = optimal_tlb_misses(trace, 8, 16)
        assert m16 < m1


class TestEq3EndToEnd:
    """The headline guarantee at small scale: C(Z) is within the theorem's
    budget of C_TLB(X) + C_IO(Y) computed on the same trace."""

    def test_cost_inequality(self):
        P, w = 1 << 12, 64
        params = theorem3_parameters(P, w)
        allocator = build_allocator(params, seed=7)
        codec = TLBValueCodec(w, params.hmax, params.field_bits)
        scheme = DecouplingScheme(allocator, codec)
        ell = 16
        m = params.max_pages

        rng = np.random.default_rng(8)
        # zipf-flavoured trace over 4m pages
        trace = (rng.zipf(1.2, 20_000) % (4 * m)).astype(np.int64)

        z = DecoupledSystem(ell, m, LRUPolicy(), LRUPolicy(), scheme)
        ledger = z.run(trace)

        # X: LRU over huge pages with ℓ entries; Y: LRU over pages with m frames
        x_misses = paging_faults(huge_page_trace(trace, params.hmax), ell, LRUPolicy())
        y_ios = paging_faults(trace, m, LRUPolicy())

        model = ATCostModel(epsilon=0.01)
        slack = len(trace) / P  # the n/poly(P) term, generously poly = P^1
        assert model.cost(ledger) <= model.epsilon * x_misses + y_ios + slack + 1e-9

        # and Z's components match X and Y exactly when there are no failures
        if ledger.paging_failures == 0:
            assert ledger.tlb_misses == x_misses
            assert ledger.ios == y_ios
