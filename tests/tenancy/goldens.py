"""Golden multi-tenant streams pinning the ASID-striped replay.

One golden JSONL per (scheme × tenant count) cell: the full per-access
event stream (global striped vpns included) of a round-robin
:class:`~repro.tenancy.MultiTenantSim` run, recorded with a
:class:`~repro.check.StreamTap` and committed under ``tests/data/golden``.
``tests/check/test_engine_parity.py`` replays each cell on both engines:
the object engine must reproduce the stream row for row; the array engine
must land on exactly the golden ledger totals, both when its batch floor
hands the short quanta to the object replay and when the floor is lifted
so every quantum is batched.

Regenerate (only when multi-tenant behaviour is *supposed* to change)
with::

    PYTHONPATH=src python -m tests.tenancy.goldens
"""

from __future__ import annotations

from pathlib import Path

from repro.mmu.registry import make_mm
from repro.sim import spawn_seeds
from repro.tenancy import MultiTenantSim, Tenant
from repro.workloads import ZipfWorkload

__all__ = [
    "GOLDEN_DIR",
    "SCHEMES",
    "TENANT_COUNTS",
    "golden_cases",
    "build_tenants",
    "build_sim",
]

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "golden"

#: fixed cell geometry — small enough to replay in milliseconds, large
#: enough that tenants genuinely compete for the TLB and exit-shootdowns
#: fire mid-run (arrivals are staggered, so tenants finish at different
#: clocks).
VA_PAGES = 512
TLB_ENTRIES = 64
RAM_PAGES = 4096
ACCESSES = 600
QUANTUM = 53  # deliberately not a divisor of ACCESSES: ragged final turns
ARRIVAL_STEP = 211
SEED = 0

SCHEMES = ("base-page", "physical-huge", "decoupled")
TENANT_COUNTS = (2, 8)


def build_tenants(k: int) -> list[Tenant]:
    """A fresh tenant mix for one golden cell (streams are consumable)."""
    seeds = spawn_seeds(SEED, k)
    return [
        Tenant(
            f"t{i}",
            workload=ZipfWorkload(VA_PAGES, s=1.0),
            accesses=ACCESSES,
            arrival=i * ARRIVAL_STEP,
            seed=seeds[i],
        )
        for i in range(k)
    ]


def build_sim(
    algorithm: str,
    k: int,
    *,
    engine: str | None = None,
    attrib=None,
) -> MultiTenantSim:
    """A fresh simulator for one golden cell."""
    mm = make_mm(algorithm, TLB_ENTRIES, RAM_PAGES, seed=SEED)
    return MultiTenantSim(
        mm, build_tenants(k), "round-robin", quantum=QUANTUM, engine=engine,
        attrib=attrib,
    )


def golden_cases():
    """Every (scheme, tenant count, golden path) triple, in test order."""
    for algorithm in SCHEMES:
        for k in TENANT_COUNTS:
            name = f"mt_{algorithm.replace('+', '_')}__t{k}.jsonl"
            yield algorithm, k, GOLDEN_DIR / name


def record_mt_stream(algorithm: str, k: int):
    """The cell's per-access event rows (whole run — warmup is 0)."""
    from repro.check import StreamTap

    sim = build_sim(algorithm, k)
    tap = StreamTap()
    sim.mm.probe = tap  # not batch-safe: forces the per-access path
    try:
        sim.run()
    finally:
        from repro.obs import NULL_PROBE

        sim.mm.probe = NULL_PROBE
    return tap.as_tuples()


def regenerate() -> None:
    from repro.check import save_golden

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for algorithm, k, path in golden_cases():
        rows = record_mt_stream(algorithm, k)
        save_golden(
            path,
            rows,
            algorithm=algorithm,
            meta={
                "tenants": k,
                "scheduler": "round-robin",
                "quantum": QUANTUM,
                "va_pages": VA_PAGES,
                "tlb_entries": TLB_ENTRIES,
                "ram_pages": RAM_PAGES,
                "accesses_per_tenant": ACCESSES,
                "arrival_step": ARRIVAL_STEP,
                "seed": SEED,
            },
        )
        print(f"wrote {path.name}: {len(rows)} rows")


if __name__ == "__main__":
    regenerate()
