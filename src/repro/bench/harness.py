"""Benchmark harness: the experiments behind every figure and ablation.

Each function is a *library* entry point — the ``benchmarks/`` scripts call
these with paper-shaped parameters and print the resulting tables, so the
same experiment can also be run programmatically at any scale.

Every sweep here accepts ``jobs=``: the grid cells are sharded across
worker processes by :mod:`repro.sim.parallel`, with results identical to
the serial run. Algorithm construction goes through the module-level
``make_*_mm`` factories (or any other picklable zero-argument callable) so
the specs survive the trip into a ``ProcessPoolExecutor`` worker.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Sequence

import numpy as np

from ..core import ATCostModel, huge_page_trace
from ..mmu import (
    BasePageMM,
    DecoupledMM,
    HybridMM,
    MemoryManagementAlgorithm,
    PhysicalHugePageMM,
)
from ..mmu.array_engine import StreamKernel, _exact_int64
from ..obs import Probe
from ..paging import LRUPolicy, PageCache
from ..sim import (
    DEFAULT_HUGE_PAGE_SIZES,
    RunRecord,
    SimTask,
    run_records,
    sweep_huge_page_sizes,
)
from ..workloads import BimodalWorkload, Graph500Workload, RandomWalkWorkload, Workload

_log = logging.getLogger(__name__)

__all__ = [
    "figure1_experiment",
    "figure1_workload",
    "compare_algorithms",
    "epsilon_sweep",
    "simulation_theorem_experiment",
    "hybrid_sweep",
    "make_base_mm",
    "make_physical_mm",
    "make_decoupled_mm",
    "make_hybrid_mm",
]


# ------------------------------------------------------- picklable factories
#
# Module-level factory builders (never lambdas/closures): the partials they
# return pickle by reference to these functions, so a grid spec built from
# them survives ProcessPoolExecutor dispatch regardless of start method.


def make_base_mm(tlb_entries: int, ram_pages: int):
    """Picklable zero-arg factory for :class:`~repro.mmu.BasePageMM`."""
    return partial(BasePageMM, tlb_entries, ram_pages)


def make_physical_mm(tlb_entries: int, ram_pages: int, huge_page_size: int):
    """Picklable zero-arg factory for :class:`~repro.mmu.PhysicalHugePageMM`
    (RAM rounded down to whole huge frames)."""
    ram_h = (ram_pages // huge_page_size) * huge_page_size
    return partial(
        PhysicalHugePageMM, tlb_entries, ram_h, huge_page_size=huge_page_size
    )


def make_decoupled_mm(tlb_entries: int, ram_pages: int, **kwargs):
    """Picklable zero-arg factory for :class:`~repro.mmu.DecoupledMM`."""
    return partial(DecoupledMM, tlb_entries, ram_pages, **kwargs)


def make_hybrid_mm(tlb_entries: int, ram_pages: int, chunk: int, **kwargs):
    """Picklable zero-arg factory for :class:`~repro.mmu.HybridMM`."""
    return partial(HybridMM, tlb_entries, ram_pages, chunk, **kwargs)


def _prebuilt_mm(mm: MemoryManagementAlgorithm) -> MemoryManagementAlgorithm:
    """Identity factory wrapping an already-constructed algorithm.

    Serially this hands back the caller's instance (today's semantics: the
    caller can inspect it after the run); in a worker the instance arrives
    as a pickled copy, so the parent's object stays untouched.
    """
    return mm


def _as_factory(mm):
    if isinstance(mm, MemoryManagementAlgorithm):
        return partial(_prebuilt_mm, mm)
    if callable(mm):
        return mm
    raise TypeError(
        f"expected a MemoryManagementAlgorithm or a zero-arg factory, got {mm!r}"
    )


# ---------------------------------------------------------------- experiments


def figure1_workload(which: str, scale_pages: int = 1 << 18, seed=0):
    """Build the Figure 1 workload *which* ∈ {"a", "b", "c"} plus its
    paper-ratio cache size, scaled to ``scale_pages`` of VA (panels a/b) or
    the given Kronecker scale (panel c, where *scale_pages* is interpreted
    as the graph scale exponent if < 64).

    Returns ``(workload, ram_pages)``.
    """
    if which == "a":
        wl = BimodalWorkload.paper_scaled(scale_pages)
        return wl, wl.ram_pages
    if which == "b":
        wl = RandomWalkWorkload.paper_scaled(scale_pages, graph_seed=seed)
        return wl, wl.ram_pages
    if which == "c":
        graph_scale = scale_pages if scale_pages < 64 else 14
        # skip the hub-dominated early levels: the paper's trace window is
        # "a period of high memory pressure and high TLB miss rate"
        wl = Graph500Workload(scale=graph_scale, graph_seed=seed, skip_fraction=0.75)
        return wl, wl.ram_pages(0.99)
    raise ValueError(f"unknown Figure 1 panel {which!r}; use 'a', 'b' or 'c'")


def figure1_experiment(
    workload: Workload,
    *,
    ram_pages: int,
    tlb_entries: int = 1536,
    n_accesses: int = 200_000,
    warmup_fraction: float = 0.5,
    sizes: Sequence[int] = DEFAULT_HUGE_PAGE_SIZES,
    touched_ram_fraction: float | None = None,
    seed=0,
    probe: Probe | None = None,
    metrics_every: int | None = None,
    heartbeat=None,
    jobs: int | None = 1,
    task_timeout: float | None = None,
) -> list[RunRecord]:
    """IOs and TLB misses vs huge-page size — the Figure 1 measurement.

    One trace is generated and replayed through a physical-huge-page
    simulator per size; the first ``warmup_fraction`` of accesses warms the
    caches (the paper warms with as many accesses as it measures).

    With *touched_ram_fraction* set, ``ram_pages`` is recomputed as that
    fraction of the trace's *touched* page count — the Figure 1c regime,
    where the paper sets the cache just below the pages the windowed trace
    actually touches (520 MB of 525 MB) while the graph is far larger.

    *probe* / *metrics_every* / *heartbeat* / *jobs* / *task_timeout* are
    forwarded to
    :func:`~repro.sim.simulator.sweep_huge_page_sizes`; every record comes
    back stamped with its wall-clock throughput.
    """
    trace = workload.generate(n_accesses, seed=seed)
    if touched_ram_fraction is not None:
        touched = len(np.unique(trace))
        ram_pages = max(1, int(touched * touched_ram_fraction))
    warmup = int(len(trace) * warmup_fraction)
    return sweep_huge_page_sizes(
        trace,
        tlb_entries=tlb_entries,
        ram_pages=ram_pages,
        sizes=sizes,
        warmup=warmup,
        probe=probe,
        metrics_every=metrics_every,
        heartbeat=heartbeat,
        jobs=jobs,
        task_timeout=task_timeout,
    )


def compare_algorithms(
    trace,
    algorithms: dict,
    *,
    warmup: int = 0,
    probe: Probe | None = None,
    metrics_every: int | None = None,
    jobs: int | None = 1,
    task_timeout: float | None = None,
    validate: bool = False,
) -> list[RunRecord]:
    """Replay one trace through several algorithms; one record each.

    *algorithms* maps record label → algorithm instance or picklable
    zero-arg factory (see the ``make_*_mm`` helpers). Each record's
    ``params`` carries per-run throughput (``elapsed_s``,
    ``accesses_per_s``); *probe* / *metrics_every* attach observability as
    in :func:`~repro.sim.simulator.sweep_huge_page_sizes` (serial-only).

    With ``jobs != 1`` the algorithms run concurrently; instances are then
    copied into the workers, so the caller's objects keep their pre-run
    state (serially they are mutated in place, as always).
    ``validate=True`` audits every run with the :mod:`repro.check`
    invariant oracle (identical costs).
    """
    tasks = [
        SimTask(
            key=i,
            mm_factory=_as_factory(mm),
            algorithm=label,
            warmup=warmup,
            validate=validate,
        )
        for i, (label, mm) in enumerate(algorithms.items())
    ]
    return run_records(
        tasks,
        trace=np.asarray(trace),
        jobs=jobs,
        probe=probe,
        metrics_every=metrics_every,
        task_timeout=task_timeout,
    )


def epsilon_sweep(
    records: Sequence[RunRecord],
    epsilons: Sequence[float] = (0.001, 0.01, 0.1),
) -> list[dict]:
    """Total cost ``C`` of each record at each ε — the crossover table.

    Pure post-processing: the records typically come from
    :func:`compare_algorithms` (which parallelizes with ``jobs=``); pricing
    the ledgers is a few multiplications and stays in-process.

    Returns rows ``{"algorithm", "epsilon", "cost"}`` sorted by ε then cost.
    """
    rows = []
    for eps in epsilons:
        model = ATCostModel(epsilon=eps)
        for r in records:
            rows.append(
                {"algorithm": r.algorithm, "epsilon": eps, "cost": model.cost(r.ledger)}
            )
    rows.sort(key=lambda row: (row["epsilon"], row["cost"]))
    return rows


def simulation_theorem_experiment(
    workload: Workload,
    *,
    ram_pages: int,
    tlb_entries: int = 64,
    n_accesses: int = 100_000,
    warmup_fraction: float = 0.3,
    physical_h: int | None = None,
    w: int = 64,
    seed=0,
    jobs: int | None = 1,
) -> dict:
    """Eq. (3) end to end: Z versus its own ingredients and both pure
    strategies.

    Runs, on one trace:

    * ``Z`` — :class:`~repro.mmu.DecoupledMM` (Theorem 3 parameters);
    * ``base`` — :class:`~repro.mmu.BasePageMM` (IO-optimal flavour);
    * ``huge`` — physical huge pages of *physical_h* (TLB-optimal flavour).
      Theorem 4 compares against algorithms using huge pages of size at
      most ``h_max``, so *physical_h* defaults to Z's ``h_max``;
    * the reference counts ``C_TLB(X)`` (LRU over Z's huge pages, ℓ
      entries) and ``C_IO(Y)`` (LRU over base pages, ``(1−δ)P`` frames).

    Returns a dict with the three records, the reference counts, and Z's
    measured slack against the eq. (3) right-hand side.
    """
    trace = workload.generate(n_accesses, seed=seed)
    warmup = int(len(trace) * warmup_fraction)

    # one probe instance in the parent to read the derived parameters;
    # the grid itself is described by picklable factories
    z_factory = make_decoupled_mm(
        tlb_entries, ram_pages, w=w, scheme="iceberg", seed=seed
    )
    z = z_factory()
    if physical_h is None:
        physical_h = z.hmax
    records = compare_algorithms(
        trace,
        {
            "decoupled-Z": z_factory,
            "base-page": make_base_mm(tlb_entries, ram_pages),
            f"physical-h{physical_h}": make_physical_mm(
                tlb_entries, ram_pages, physical_h
            ),
        },
        warmup=warmup,
        jobs=jobs,
    )

    measured = trace[warmup:]
    # References must see the warmed state too: replay warmup first.
    hmax = z.hmax
    m = z.params.max_pages
    x_misses = _warmed_faults(huge_page_trace(trace, hmax), warmup, tlb_entries)
    y_ios = _warmed_faults(np.asarray(trace), warmup, m)

    return {
        "records": records,
        "hmax": hmax,
        "x_tlb_misses": x_misses,
        "y_ios": y_ios,
        "n_measured": len(measured),
    }


def _warmed_faults(trace: np.ndarray, warmup: int, capacity: int) -> int:
    """LRU faults on ``trace[warmup:]`` with state warmed on ``trace[:warmup]``.

    One stack-distance kernel pass; a trace int64 cannot hold exactly
    replays through a per-access LRU cache instead.
    """
    keys = _exact_int64(trace)
    if keys is None:
        cache = PageCache(capacity, LRUPolicy())
        for p in trace[:warmup]:
            cache.access(int(p))
        cache.reset_stats()
        for p in trace[warmup:]:
            cache.access(int(p))
        return cache.misses
    hits = StreamKernel(keys).hit_mask(capacity)[warmup:]
    return hits.size - int(np.count_nonzero(hits))


def _hybrid_coverage(mm: HybridMM) -> dict:
    """Stamp callback: record the chunk's TLB-entry coverage ``q``."""
    return {"coverage": mm.coverage}


def hybrid_sweep(
    workload: Workload,
    *,
    ram_pages: int,
    tlb_entries: int = 64,
    n_accesses: int = 100_000,
    warmup_fraction: float = 0.3,
    chunks: Sequence[int] = (1, 2, 4, 8, 16),
    w: int = 64,
    seed=0,
    jobs: int | None = 1,
    task_timeout: float | None = None,
) -> list[RunRecord]:
    """Section 8 hybrid ablation: coverage and IO cost vs chunk size.

    Each chunk size is an independent cell, sharded across workers with
    ``jobs != 1``; records carry ``{"chunk", "coverage"}`` plus the runner's
    timing stamps.
    """
    trace = workload.generate(n_accesses, seed=seed)
    warmup = int(len(trace) * warmup_fraction)
    tasks = []
    for i, chunk in enumerate(chunks):
        if ram_pages % chunk:
            _log.warning(
                "hybrid_sweep: skipping chunk=%d (it does not divide "
                "ram_pages=%d) — the sweep returns fewer records than "
                "len(chunks)",
                chunk, ram_pages,
            )
            continue
        tasks.append(
            SimTask(
                key=i,
                mm_factory=make_hybrid_mm(tlb_entries, ram_pages, chunk, w=w, seed=seed),
                params={"chunk": chunk},
                warmup=warmup,
                stamp=_hybrid_coverage,
            )
        )
    return run_records(
        tasks, trace=trace, jobs=jobs, task_timeout=task_timeout
    )
