"""Tests for the batch-safe sampling probe (repro.obs.sampling).

Three contracts, in rising order of importance:

* the scalar (per-access) and vectorized (on_batch) code paths collect
  bit-identical state, so detail mode changes depth, never the numbers;
* the scale-up estimators are unbiased against the exact counters of the
  committed golden streams (``tests/data/golden``);
* a batch-safe probe leaves the ``mmu`` fast paths enabled — attaching a
  default ``SamplingProbe`` must not fall back to the per-access replay.
"""

import numpy as np
import pytest

from repro.check import load_golden
from repro.mmu import MemoryManagementAlgorithm, PhysicalHugePageMM
from repro.obs import SamplingProbe
from repro.obs.sampling import _splitmix64_many, splitmix64
from tests.check.goldens import golden_cases

GOLDEN_VPNS = {}
for _algorithm, _workload, _path in golden_cases():
    if _algorithm == "base-page":  # one algorithm: the vpn column is shared
        _, rows = load_golden(_path)
        GOLDEN_VPNS[_workload] = [vpn for _t, vpn, *_rest in rows]


class TestSplitmix:
    def test_vectorized_matches_scalar(self):
        xs = np.random.default_rng(0).integers(
            0, 1 << 63, 4096, dtype=np.uint64
        )
        many = _splitmix64_many(xs)
        assert [splitmix64(int(x)) for x in xs[:256].tolist()] == many[
            :256
        ].tolist()

    def test_threshold_covers_rate_one(self):
        assert SamplingProbe(1.0)._threshold == (1 << 64) - 1


class TestScalarBatchParity:
    """Per-access replay and one on_batch flush agree bit-for-bit."""

    @pytest.mark.parametrize("workload", sorted(GOLDEN_VPNS))
    @pytest.mark.parametrize("t0", [0, 7])
    def test_identical_state(self, workload, t0):
        vpns = GOLDEN_VPNS[workload]
        scalar = SamplingProbe(1 / 16, seed=3)
        for i, vpn in enumerate(vpns):
            scalar.on_access(t0 + i, vpn)

        batched = SamplingProbe(1 / 16, seed=3)

        class _Ledger:  # only snapshot() is consulted by on_batch
            def snapshot(self):
                return (len(vpns), 0, 0, 0, 0, 0)

        batched.on_batch(t0, vpns, _Ledger(), (0, 0, 0, 0, 0, 0))

        assert scalar.sampled_accesses == batched.sampled_accesses
        assert scalar.tracked_accesses == batched.tracked_accesses
        assert scalar._last_seen == batched._last_seen
        assert scalar.hists == batched.hists


class TestUnbiasedness:
    """Scale-ups vs the exact counts of the golden streams."""

    @pytest.mark.parametrize("workload", sorted(GOLDEN_VPNS))
    def test_stride_estimator_is_exact_up_to_one_stride(self, workload):
        vpns = GOLDEN_VPNS[workload]
        probe = SamplingProbe(1 / 16, seed=0)
        for i, vpn in enumerate(vpns):
            probe.on_access(i, vpn)
        estimate = probe.estimates()["accesses_from_stride"]
        assert abs(estimate - len(vpns)) < probe.stride

    @pytest.mark.parametrize("workload", sorted(GOLDEN_VPNS))
    def test_hash_estimators_within_sampling_error(self, workload):
        vpns = GOLDEN_VPNS[workload]
        probe = SamplingProbe(1 / 8, seed=0)
        for i, vpn in enumerate(vpns):
            probe.on_access(i, vpn)
        est = probe.estimates()

        # each access is tracked with probability ~rate, so the estimator
        # error is ~sqrt(tracked)/rate; allow 5 sigma to keep this a fixed
        # (seeded, non-flaky) assertion rather than a statistical one
        tolerance = 5 * np.sqrt(probe.tracked_accesses) / probe.rate
        assert abs(est["accesses_from_hash"] - len(vpns)) < tolerance

        distinct = len(set(vpns))
        tolerance = 5 * np.sqrt(len(probe._last_seen)) / probe.rate
        assert abs(est["distinct_pages_from_hash"] - distinct) < tolerance


class TestProbeModes:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            SamplingProbe(0.0)
        with pytest.raises(ValueError, match="rate"):
            SamplingProbe(1.5)

    def test_detail_mode_gives_up_batch_safety(self):
        assert SamplingProbe(1 / 64).batch_safe is True
        detail = SamplingProbe(1 / 64, detail=True)
        assert detail.batch_safe is False
        assert set(detail.hists) == {
            "reuse_distance", "tlb_miss_gap", "io_batch", "eviction_batch"
        }

    def test_measure_phase_resets_collection(self):
        probe = SamplingProbe(1.0, seed=0)
        probe.on_access(0, 42)
        assert probe.tracked_accesses == 1
        probe.on_phase(10, "measure")
        assert probe.tracked_accesses == 0
        assert probe._last_seen == {}

    def test_as_dict_is_json_ready(self):
        import json

        probe = SamplingProbe(1 / 4, seed=1)
        for i, vpn in enumerate(GOLDEN_VPNS["uniform"][:200]):
            probe.on_access(i, vpn)
        payload = json.loads(json.dumps(probe.as_dict()))
        assert payload["stride"] == 4
        assert payload["counters"]["accesses"] == 200


class TestFastPathStaysEnabled:
    """The acceptance gate: a batch-safe probe must not force a
    per-access replay (``MemoryManagementAlgorithm._run_probed`` or the
    base ``_replay`` loop)."""

    def _poisoned_mm(self, monkeypatch):
        def boom(self, trace):
            raise AssertionError("fell back to the per-access base replay")

        monkeypatch.setattr(MemoryManagementAlgorithm, "_run_probed", boom)
        monkeypatch.setattr(MemoryManagementAlgorithm, "_replay", boom)
        return PhysicalHugePageMM(64, 1024, huge_page_size=16)

    def test_batch_safe_probe_rides_the_fast_path(self, monkeypatch):
        mm = self._poisoned_mm(monkeypatch)
        mm.probe = SamplingProbe(1 / 8, seed=0)
        trace = np.random.default_rng(0).integers(0, 4096, 2000)
        ledger = mm.run(trace)  # must NOT reach a poisoned per-access loop
        assert ledger.accesses == 2000
        assert mm.probe.counters["accesses"] == 2000
        assert mm.probe.counters["ios"] == ledger.ios
        assert mm.probe.counters["tlb_misses"] == ledger.tlb_misses

    def test_detail_probe_falls_back(self, monkeypatch):
        mm = self._poisoned_mm(monkeypatch)
        mm.probe = SamplingProbe(1 / 8, seed=0, detail=True)
        with pytest.raises(AssertionError, match="per-access base replay"):
            mm.run(np.arange(100))

    def test_probed_ledger_identical_to_unprobed(self):
        trace = np.random.default_rng(1).integers(0, 4096, 3000)
        plain = PhysicalHugePageMM(64, 1024, huge_page_size=16)
        plain.run(trace)
        probed = PhysicalHugePageMM(64, 1024, huge_page_size=16)
        probed.probe = SamplingProbe(1 / 8, seed=0)
        probed.run(trace)
        assert plain.ledger.as_dict() == probed.ledger.as_dict()
