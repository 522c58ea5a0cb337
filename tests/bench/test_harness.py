"""Tests for the benchmark harness and reporting (small-scale runs)."""

import logging

import numpy as np
import pytest

from repro.bench import (
    ascii_log_chart,
    compare_algorithms,
    epsilon_sweep,
    figure1_experiment,
    figure1_workload,
    format_figure1,
    format_table,
    hybrid_sweep,
    simulation_theorem_experiment,
)
from repro.bench import harness
from repro.bench.harness import _warmed_faults
from repro.mmu import BasePageMM
from repro.paging import LRUPolicy, PageCache
from repro.workloads import (
    BimodalWorkload,
    Graph500Workload,
    RandomWalkWorkload,
    ZipfWorkload,
)


class TestFigure1Workload:
    def test_panel_a(self):
        wl, ram = figure1_workload("a", 1 << 14)
        assert isinstance(wl, BimodalWorkload)
        assert ram == (1 << 14) // 4

    def test_panel_b(self):
        wl, ram = figure1_workload("b", 1 << 12)
        assert isinstance(wl, RandomWalkWorkload)
        assert ram == (1 << 12) // 2

    def test_panel_c(self):
        wl, ram = figure1_workload("c", 8)
        assert isinstance(wl, Graph500Workload)
        assert ram < wl.footprint_pages

    def test_unknown_panel(self):
        with pytest.raises(ValueError):
            figure1_workload("d")


class TestFigure1Experiment:
    def test_tradeoff_shape(self):
        wl, ram = figure1_workload("a", 1 << 14)
        records = figure1_experiment(
            wl,
            ram_pages=ram,
            tlb_entries=32,
            n_accesses=30_000,
            sizes=[1, 8, 64, 512],
        )
        hs = [r.params["h"] for r in records]
        assert hs == [1, 8, 64, 512]
        ios = [r.ios for r in records]
        misses = [r.tlb_misses for r in records]
        assert ios[-1] > ios[0] * 50  # IO blow-up
        assert misses[-1] < misses[0]  # TLB win

    def test_sizes_filtered_to_fit_ram(self):
        wl, _ = figure1_workload("a", 1 << 12)
        records = figure1_experiment(
            wl, ram_pages=64, tlb_entries=8, n_accesses=2000, sizes=[1, 64, 128]
        )
        assert [r.params["h"] for r in records] == [1, 64]


class TestCompareAndSweep:
    def test_compare_algorithms(self):
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 512, 4000)
        records = compare_algorithms(
            trace,
            {"a": BasePageMM(8, 128), "b": BasePageMM(16, 128)},
            warmup=1000,
        )
        assert {r.algorithm for r in records} == {"a", "b"}
        assert all(r.ledger.accesses == 3000 for r in records)

    def test_compare_algorithms_parallel_matches_serial(self):
        from repro.bench import diff_records, make_base_mm

        rng = np.random.default_rng(2)
        trace = rng.integers(0, 512, 4000)
        grid = {"a": make_base_mm(8, 128), "b": make_base_mm(16, 128)}
        serial = compare_algorithms(trace, grid, warmup=1000, jobs=1)
        parallel = compare_algorithms(trace, grid, warmup=1000, jobs=2)
        def as_payload(recs):
            return {"rows": [r.as_row() for r in recs]}

        assert diff_records(
            as_payload(serial), as_payload(parallel), key="algorithm"
        ) == []

    def test_epsilon_sweep_sorted(self):
        rng = np.random.default_rng(1)
        trace = rng.integers(0, 512, 3000)
        records = compare_algorithms(
            trace, {"small": BasePageMM(4, 128), "large": BasePageMM(64, 128)}
        )
        rows = epsilon_sweep(records, epsilons=[0.001, 0.1])
        assert len(rows) == 4
        assert rows[0]["epsilon"] == 0.001
        # within an epsilon, rows are sorted by cost
        assert rows[0]["cost"] <= rows[1]["cost"]


class TestSimulationTheoremExperiment:
    def test_eq3_holds_at_small_scale(self):
        wl = BimodalWorkload.paper_scaled(1 << 13)
        out = simulation_theorem_experiment(
            wl,
            ram_pages=wl.ram_pages,
            tlb_entries=32,
            n_accesses=20_000,
            seed=0,
        )
        z_rec = next(r for r in out["records"] if r.algorithm == "decoupled-Z")
        # eq. (3): C(Z) <= eps*C_TLB(X) + C_IO(Y) + slack
        eps = 0.01
        lhs = z_rec.cost(eps)
        rhs = eps * out["x_tlb_misses"] + out["y_ios"]
        slack = out["n_measured"] / (1 << 13)
        assert lhs <= rhs + slack + 1e-9

    def test_z_components_match_references_without_failures(self):
        wl = BimodalWorkload.paper_scaled(1 << 13)
        out = simulation_theorem_experiment(
            wl, ram_pages=wl.ram_pages, tlb_entries=32, n_accesses=20_000, seed=1
        )
        z_rec = next(r for r in out["records"] if r.algorithm == "decoupled-Z")
        if z_rec.ledger.paging_failures == 0:
            assert z_rec.ledger.tlb_misses == out["x_tlb_misses"]
            assert z_rec.ledger.ios == out["y_ios"]


def _ref_warmed_faults(trace, warmup, capacity):
    """The per-access reference: an LRU PageCache warmed, then counted."""
    cache = PageCache(capacity, LRUPolicy())
    for p in trace[:warmup]:
        cache.access(int(p))
    cache.reset_stats()
    for p in trace[warmup:]:
        cache.access(int(p))
    return cache.misses


class TestWarmedFaults:
    """The eq. 3 reference replays run on the stack-distance kernel and
    must count exactly what a per-access LRU cache counts."""

    TRACE = ZipfWorkload(3000, s=0.8).generate(6000, seed=3)

    @pytest.mark.parametrize("capacity", [1, 7, 64, 500, 3000])
    @pytest.mark.parametrize("warmup", [0, 1, 1800, 5999, 6000])
    def test_matches_page_cache(self, capacity, warmup):
        got = _warmed_faults(self.TRACE, warmup, capacity)
        assert got == _ref_warmed_faults(self.TRACE, warmup, capacity)

    def test_capacity_covering_every_key(self):
        trace = self.TRACE
        distinct = len(np.unique(trace))
        for capacity in (distinct, distinct + 1, 10 * distinct):
            assert _warmed_faults(trace, 0, capacity) == distinct
            got = _warmed_faults(trace, 2000, capacity)
            assert got == _ref_warmed_faults(trace, 2000, capacity)

    def test_huge_page_stream(self):
        from repro.core import huge_page_trace

        hp = huge_page_trace(self.TRACE, 8)
        assert _warmed_faults(hp, 1800, 16) == _ref_warmed_faults(hp, 1800, 16)

    @pytest.mark.parametrize(
        "trace",
        [
            np.array([2**63 + 5, 1, 2**63 + 5, 2, 1, 2**64 - 1], dtype=np.uint64),
            np.array([1.0, 2.5, 2.0, 1.0, 3.0]),
        ],
    )
    def test_inexact_trace_declines_to_the_loop(self, trace, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel used on a trace int64 cannot hold")

        monkeypatch.setattr(harness, "StreamKernel", no_kernel)
        for warmup in (0, 2, len(trace)):
            got = _warmed_faults(trace, warmup, 2)
            assert got == _ref_warmed_faults(trace, warmup, 2)


class TestHybridSweep:
    def test_skipped_chunk_warns(self, caplog):
        wl = BimodalWorkload.paper_scaled(1 << 12)
        with caplog.at_level(logging.WARNING, logger="repro.bench.harness"):
            records = hybrid_sweep(
                wl, ram_pages=1000, tlb_entries=16, n_accesses=3000
            )
        assert [r.params["chunk"] for r in records] == [1, 2, 4, 8]
        assert any("skipping chunk=16" in m for m in caplog.messages)

    def test_no_warning_when_every_chunk_divides(self, caplog):
        wl = BimodalWorkload.paper_scaled(1 << 12)
        with caplog.at_level(logging.WARNING, logger="repro.bench.harness"):
            records = hybrid_sweep(
                wl, ram_pages=1 << 10, tlb_entries=16, n_accesses=3000, chunks=[1, 4]
            )
        assert len(records) == 2
        assert not caplog.messages

    def test_coverage_grows_with_chunk(self):
        wl = BimodalWorkload.paper_scaled(1 << 12)
        records = hybrid_sweep(
            wl, ram_pages=1 << 10, tlb_entries=16, n_accesses=8000, chunks=[1, 4, 16]
        )
        coverages = [r.params["coverage"] for r in records]
        assert coverages == sorted(coverages)
        assert coverages[0] < coverages[-1]


class TestReport:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.0001}]
        out = format_table(rows)
        assert "a" in out and "b" in out
        assert "10" in out
        assert "1.000e-04" in out

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_ascii_chart_shape(self):
        out = ascii_log_chart([1, 2], [10, 1000], label="IOs")
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[2].count("#") > lines[1].count("#")

    def test_ascii_chart_validates(self):
        with pytest.raises(ValueError):
            ascii_log_chart([1], [1, 2])

    def test_format_figure1_includes_ratios(self):
        from repro.core import CostLedger
        from repro.sim import RunRecord

        records = [
            RunRecord("x", CostLedger(ios=10, tlb_misses=1000), {"h": 1}),
            RunRecord("x", CostLedger(ios=1000, tlb_misses=10), {"h": 64}),
        ]
        out = format_figure1(records, title="T")
        assert "T" in out
        assert "IO xh1" in out
        assert "100" in out  # the IO blow-up ratio
