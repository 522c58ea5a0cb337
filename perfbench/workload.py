"""Run one benchmark workload in this (fresh) process and report it.

    python3 perfbench/workload.py --workload fig1 --seed 0 [--trace]

``perfbench/run.py`` starts this script once per sample, with
``PERFBENCH_T0`` set to the CLOCK_MONOTONIC time just before the process
was spawned, so set-up time counts interpreter start and ``import repro``.
The last line of standard output is one JSON object: phase timestamps,
simulated accesses, every cell's simulated counters and the outcome of
checking them against ``perfbench/expected/``. With ``--trace`` the
process installs the span wrappers of :mod:`tracer` and adds the
per-layer metrics of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import traceback

from tracer import (
    ATTRS,
    MMU_CALLS,
    NAME,
    START,
    Tracer,
    install_first_call_stamp,
    now,
    subclasses,
)

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("fig1", "tenants", "theorem", "check")

#: workload shapes. ``full`` follows the CLI defaults of ``repro fig1``,
#: ``repro tenants`` (the 32-tenant churn cell), ``repro eq3 --workload
#: zipf`` and ``repro check --smoke``; ``tiny`` exists for the tests.
SIZES = {
    "full": {
        "fig1": {"scales": {"a": 1 << 18, "b": 1 << 16, "c": 14},
                 "accesses": 120_000, "tlb": 512},
        "tenants": {"tenants": 32, "quantum": 64, "accesses": 2000,
                    "pages": 1024, "tlb": 64, "ram": 4096, "churn": 0.5},
        "theorem": {"frames": 1 << 16, "tlb": 256, "accesses": 120_000},
        "check": {"scale": 1 << 14, "accesses": 20_000, "tlb": 256},
    },
    "tiny": {
        "fig1": {"scales": {"a": 1 << 12, "b": 1 << 10, "c": 8},
                 "accesses": 4000, "tlb": 64},
        "tenants": {"tenants": 4, "quantum": 16, "accesses": 200,
                    "pages": 256, "tlb": 16, "ram": 512, "churn": 0.5},
        "theorem": {"frames": 1 << 12, "tlb": 64, "accesses": 6000},
        "check": {"scale": 1 << 10, "accesses": 2000, "tlb": 64},
    },
}

LEDGER = ("accesses", "ios", "tlb_misses", "tlb_hits", "decoding_misses",
          "paging_failures")


class Context:
    """What a workload function reports while it runs."""

    def __init__(self, seed: int, shape: dict, tracer: Tracer | None) -> None:
        self.seed = seed
        self.shape = shape
        self.tracer = tracer
        self.marks: dict[str, float] = {}
        #: cell id -> simulated counters
        self.cells: dict[str, dict] = {}
        #: cell id -> invariant violations found by the benchmark itself
        self.problems: dict[str, list[str]] = {}
        #: accesses replayed through memory-management algorithms
        self.replayed = 0
        #: trace accesses the workload asks the generators for
        self.generated = 0
        #: memory-management ``run``/``run_asid`` calls the sweep functions make
        #: at the outermost level (for span reconciliation)
        self.mm_calls = 0
        #: workload-specific facts the per-layer metrics read
        self.facts: dict = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time phase *name* (as a span too when traced)."""
        self.marks[name] = now()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span("phase." + name):
                    yield
        finally:
            self.marks[name + "_end"] = now()

    def label(self, cell: str | None) -> None:
        """Tag the spans that follow with *cell*."""
        if self.tracer is not None:
            self.tracer.cell = cell

    def cell(self, cell_id: str, counters: dict, problems=()) -> None:
        self.cells[cell_id] = counters
        if problems:
            self.problems[cell_id] = list(problems)


def ledger_counters(ledger) -> dict:
    return {name: int(getattr(ledger, name)) for name in LEDGER}


def ledger_problems(counters: dict, accesses: int) -> list[str]:
    """Invariants every measured ledger satisfies."""
    out = []
    if counters["accesses"] != accesses:
        out.append(f"accesses {counters['accesses']} != {accesses}")
    if counters["tlb_hits"] + counters["tlb_misses"] != counters["accesses"]:
        out.append("tlb_hits + tlb_misses != accesses")
    return out


# ------------------------------------------------------------- workloads


def run_fig1(ctx: Context) -> None:
    """Figure 1 panels a, b, c: one physical-huge run per h = 1..1024."""
    import numpy as np

    from repro.bench import figure1_workload, format_figure1, format_throughput
    from repro.obs.snapshot import ObsSnapshot
    from repro.sim import sweep_huge_page_sizes

    shape = ctx.shape
    n = shape["accesses"]
    with ctx.phase("setup"):
        panels = {}
        for panel, scale in shape["scales"].items():
            ctx.label(f"fig1/{panel}")
            workload, ram_pages = figure1_workload(panel, scale, seed=ctx.seed)
            trace = workload.generate(n, seed=ctx.seed)
            if panel == "c":
                # figure1_experiment's touched_ram_fraction=0.99 regime
                ram_pages = max(1, int(len(np.unique(trace)) * 0.99))
            panels[panel] = (trace, ram_pages)
            ctx.generated += n
    with ctx.phase("sim"):
        records = {}
        for panel, (trace, ram_pages) in panels.items():
            ctx.label(f"fig1/{panel}")
            records[panel] = sweep_huge_page_sizes(
                trace,
                tlb_entries=shape["tlb"],
                ram_pages=ram_pages,
                warmup=int(len(trace) * 0.5),
                jobs=1,
            )
    ctx.label(None)
    with ctx.phase("report"):
        snaps = []
        for panel, recs in records.items():
            format_figure1(recs, title=f"Figure 1{panel}")
            format_throughput(recs)
            snaps += [ObsSnapshot.from_run(r.ledger, label=panel) for r in recs]
        ObsSnapshot.merge_all(snaps).to_json(ctx.facts["snapshot_path"])
    for panel, recs in records.items():
        measured = n - int(n * 0.5)
        for r in recs:
            h = r.params["h"]
            counters = ledger_counters(r.ledger)
            problems = ledger_problems(counters, measured)
            if counters["ios"] % h:
                problems.append(f"ios {counters['ios']} not a multiple of h={h}")
            ctx.cell(f"fig1/{panel}/h={h}", counters, problems)
            ctx.replayed += n
            ctx.mm_calls += 2  # warm-up run + measured run


def run_tenants(ctx: Context) -> None:
    """The 32-tenant churn cell over every registry MM, plain and attributed."""
    from repro.bench import format_table
    from repro.mmu.registry import MM_NAMES, make_mm
    from repro.obs.attribution import AttributionProbe
    from repro.obs.snapshot import ObsSnapshot
    from repro.tenancy import MultiTenantSim, TenancyCellSpec, build_tenants

    shape = ctx.shape
    with ctx.phase("setup"):
        cells = []
        for name in MM_NAMES:
            for attrib in (False, True):
                cell_id = f"tenants/{name}/{'attrib' if attrib else 'plain'}"
                ctx.label(cell_id)
                spec = TenancyCellSpec(
                    algorithm=name,
                    tenants=shape["tenants"],
                    scheduler="round-robin",
                    quantum=shape["quantum"],
                    accesses_per_tenant=shape["accesses"],
                    va_pages_per_tenant=shape["pages"],
                    tlb_entries=shape["tlb"],
                    ram_pages=shape["ram"],
                    workload="zipf",
                    churn=shape["churn"],
                    seed=ctx.seed,
                    attrib=attrib,
                )
                tenants = build_tenants(spec)
                for tenant in tenants:
                    tenant.trace  # generate the stream now, not mid-run
                    ctx.generated += tenant.accesses
                mm = make_mm(name, spec.tlb_entries, spec.ram_pages, seed=spec.seed)
                probe = AttributionProbe() if attrib else None
                sim = MultiTenantSim(mm, tenants, spec.scheduler,
                                     quantum=spec.quantum, attrib=probe)
                cells.append((cell_id, sim, probe))
    with ctx.phase("sim"):
        results = []
        for cell_id, sim, probe in cells:
            ctx.label(cell_id)
            result = sim.run()
            problems = []
            try:
                result.verify_counter_sums()
            except AssertionError as exc:
                problems.append(str(exc))
            results.append((cell_id, result, probe, problems))
    ctx.label(None)
    with ctx.phase("report"):
        rows = []
        snaps = []
        for cell_id, result, probe, _problems in results:
            drops = result.shootdown_drops_by_reason
            row = {"cell": cell_id, **ledger_counters(result.ledger),
                   "switches": result.switches, "turns": result.turns,
                   "shootdowns": len(result.shootdowns),
                   "drops_exit": drops.get("exit", 0),
                   "drops_remap": drops.get("phi-change", 0)}
            if probe is not None:
                row.update({f"tlb_{k}": v
                            for k, v in sorted(probe.cause_totals("tlb").items())})
            rows.append(row)
            snaps.append(result.aggregate_snapshot())
        format_table(rows)
        ObsSnapshot.merge_all(snaps).to_json(ctx.facts["snapshot_path"])
    total = shape["tenants"] * shape["accesses"]
    facts = ctx.facts
    facts.update(turns=0, switches=0, shootdowns=0, dropped=0)
    for (cell_id, result, probe, problems), row in zip(results, rows):
        counters = {k: v for k, v in row.items() if k != "cell"}
        counters["tenants_digest"] = tenant_digest(result)
        problems += ledger_problems(counters, total)
        if result.turns != sum(r.turns for r in result.records):
            problems.append("turns != sum of per-tenant turns")
        if len(result.shootdowns) != shape["tenants"]:
            problems.append(f"{len(result.shootdowns)} exit shootdowns, "
                            f"expected {shape['tenants']}")
        ctx.cell(cell_id, counters, problems)
        ctx.replayed += result.ledger.accesses
        ctx.mm_calls += result.turns
        facts["turns"] += result.turns
        facts["switches"] += result.switches
        facts["shootdowns"] += len(result.shootdowns)
        facts["dropped"] += result.shootdown_drops


def tenant_digest(result) -> str:
    """Digest of every per-tenant ledger, turn count and drop tally."""
    payload = [
        [r.name, r.asid, r.arrival, r.finished, r.turns, list(r.ledger.snapshot()),
         sorted(r.drops.items()), sorted(r.causes.items())]
        for r in result.records
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def run_theorem(ctx: Context) -> None:
    """``repro eq3 --workload zipf``, then the §8 hybrid sweep on it."""
    from repro.bench import (
        epsilon_sweep,
        format_table,
        hybrid_sweep,
        simulation_theorem_experiment,
    )
    from repro.obs.snapshot import ObsSnapshot
    from repro.workloads import ZipfWorkload

    shape = ctx.shape
    frames, n = shape["frames"], shape["accesses"]
    with ctx.phase("setup"):
        workload = ZipfWorkload(frames * 4, s=0.9)
    with ctx.phase("sim"):
        ctx.label("theorem/eq3")
        out = simulation_theorem_experiment(
            workload, ram_pages=frames, tlb_entries=shape["tlb"],
            n_accesses=n, seed=ctx.seed,
        )
        ctx.label("theorem/hybrid")
        hybrid = hybrid_sweep(
            workload, ram_pages=frames, tlb_entries=shape["tlb"],
            n_accesses=n, seed=ctx.seed, jobs=1,
        )
        ctx.generated += 2 * n  # eq3 and the hybrid sweep each draw the trace
    ctx.label(None)
    records = out["records"]
    with ctx.phase("report"):
        format_table([r.as_row() for r in records],
                     ["algorithm", "ios", "tlb_misses", "paging_failures"])
        format_table(epsilon_sweep(records))
        format_table([r.as_row() for r in hybrid])
        ObsSnapshot.merge_all(
            ObsSnapshot.from_run(r.ledger, label=r.algorithm) for r in records + hybrid
        ).to_json(ctx.facts["snapshot_path"])
    measured = n - int(n * 0.3)
    for r in records:
        counters = ledger_counters(r.ledger)
        ctx.cell(f"theorem/eq3/{r.algorithm}", counters,
                 ledger_problems(counters, measured))
    ctx.cell("theorem/eq3/references", {
        "hmax": int(out["hmax"]),
        "x_tlb_misses": int(out["x_tlb_misses"]),
        "y_ios": int(out["y_ios"]),
    })
    for r in hybrid:
        counters = ledger_counters(r.ledger)
        counters["coverage"] = int(r.params["coverage"])
        ctx.cell(f"theorem/hybrid/chunk={r.params['chunk']}", counters,
                 ledger_problems(counters, measured))
    ctx.replayed += n * (len(records) + len(hybrid))
    ctx.mm_calls += 2 * (len(records) + len(hybrid))


def run_check(ctx: Context) -> None:
    """``repro check --smoke``: every registry MM x 4 workloads, validated."""
    from repro.check import check_grid, format_check_report

    shape = ctx.shape
    with ctx.phase("sim"):
        ctx.label("check")
        report = check_grid(
            scale_pages=shape["scale"], accesses=shape["accesses"],
            tlb_entries=shape["tlb"], seed=ctx.seed, jobs=1,
        )
    ctx.label(None)
    with ctx.phase("report"):
        format_check_report(report)
    n = shape["accesses"]
    measured = n - int(n * 0.5)
    workloads = report.config["workloads"]
    ctx.generated += n * len(workloads)
    for cell in report.cells:
        problems = [] if cell.ok else [f"invariant violation: {cell.error}"]
        if cell.ok and cell.accesses != measured:
            problems.append(f"accesses {cell.accesses} != {measured}")
        ctx.cell(f"check/{cell.algorithm}/{cell.workload}",
                 {"ok": int(cell.ok), "accesses": cell.accesses}, problems)
    ctx.replayed += n * len(report.cells)
    ctx.mm_calls += 2 * len(report.cells)
    ctx.facts.update(cells=len(report.cells), violations=len(report.violations))


RUNNERS = {"fig1": run_fig1, "tenants": run_tenants, "theorem": run_theorem,
           "check": run_check}


# ----------------------------------------------------------------- checks


def write_expected(path: str, expected_all: dict) -> None:
    """One line per cell, seeds in numeric order."""
    seeds = sorted(expected_all, key=int)
    with open(path, "w") as fh:
        fh.write("{\n")
        for i, seed in enumerate(seeds):
            cells = expected_all[seed]
            fh.write(f"{json.dumps(seed)}: {{\n")
            fh.write(",\n".join(
                f" {json.dumps(cell)}: {json.dumps(cells[cell], sort_keys=True)}"
                for cell in sorted(cells)))
            fh.write("\n}" + ("," if i < len(seeds) - 1 else "") + "\n")
        fh.write("}\n")


def compare(cells: dict, problems: dict, expected: dict | None) -> dict:
    """Count failed cells: a cell fails on an invariant problem, or when
    expected counters exist for this seed and any of them differs."""
    failures: dict[str, list[str]] = {k: list(v) for k, v in problems.items()}
    ids = set(cells)
    if expected is not None:
        ids |= set(expected)
        for cell_id, want in expected.items():
            got = cells.get(cell_id)
            if got is None:
                failures.setdefault(cell_id, []).append("cell missing")
                continue
            diffs = [f"{k}: {got.get(k)!r} != expected {v!r}"
                     for k, v in want.items() if got.get(k) != v]
            diffs += [f"{k}: unexpected counter" for k in got if k not in want]
            if diffs:
                failures.setdefault(cell_id, []).extend(diffs)
        for cell_id in cells:
            if cell_id not in expected:
                failures.setdefault(cell_id, []).append("cell not in expected set")
    return {"attempted": len(ids), "failed": len(failures), "failures": failures}


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", action="store_true",
                        help="install span wrappers and report per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="write this run's counters into the expected file")
    args = parser.parse_args(argv)
    t0 = float(os.environ.get("PERFBENCH_T0", now()))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"

    tracer = Tracer() if args.trace else None
    ctx = Context(args.seed, SIZES[args.size][args.workload], tracer)
    ctx.facts["snapshot_path"] = os.path.join(out_dir, f"snapshot-{tag}.json")
    if tracer is not None:
        # interpreter start and this script's own imports
        tracer.add("phase.startup", t0, now())
    with ctx.phase("import"):
        # the package and every subpackage a workload uses, timed as import_s
        import numpy

        import repro.bench  # noqa: F401
        import repro.check  # noqa: F401
        import repro.tenancy  # noqa: F401
    from repro.mmu.base import MemoryManagementAlgorithm

    if tracer is not None:
        with tracer.span("phase.trace_install"):
            tracer.install()
        stamp = None
    else:
        stamp = install_first_call_stamp(subclasses(MemoryManagementAlgorithm))

    error = None
    try:
        RUNNERS[args.workload](ctx)
    except Exception:  # the boundary: any failure is a failed run, reported
        error = traceback.format_exc()
        sys.stderr.write(error)
    t_end = now()

    expected_file = os.path.join(HERE, "expected", f"{args.size}-{args.workload}.json")
    try:
        with open(expected_file) as fh:
            expected_all = json.load(fh)
    except FileNotFoundError:
        expected_all = {}
    if args.record and error is None and not ctx.problems:
        expected_all[str(args.seed)] = ctx.cells
        write_expected(expected_file, expected_all)
    expected = expected_all.get(str(args.seed))
    outcome = compare(ctx.cells, ctx.problems, expected)
    if error is not None:
        # the run died: every cell it should have produced counts as failed
        outcome["attempted"] = max(outcome["attempted"], len(expected or ()), 1)
        outcome["failed"] = outcome["attempted"]
        outcome["failures"]["<run>"] = [error.strip().splitlines()[-1]]

    if stamp is not None:
        first_run, engine = stamp.get("t"), stamp.get("engine")
    else:
        first = next((s for s in tracer.spans if s[NAME] in MMU_CALLS), None)
        first_run = first[START] if first else None
        engine = first[ATTRS]["engine"] if first else None
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "traced": bool(tracer),
        "t0": t0,
        "t_first_run": first_run,
        "t_sim_end": ctx.marks.get("sim_end"),
        "t_end": t_end,
        "replayed": ctx.replayed,
        "expected_seed": expected is not None,
        "engine": engine,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
        **outcome,
    }
    if tracer is not None and error is None:
        from layers import layer_metrics

        result.update(layer_metrics(tracer, ctx, t0, t_end))
        if args.workload == "check":
            # the unvalidated twin of the grid, after the measured window
            from repro.check import check_grid

            shape = ctx.shape
            twin = check_grid(scale_pages=shape["scale"], accesses=shape["accesses"],
                              tlb_entries=shape["tlb"], seed=ctx.seed, jobs=1,
                              measure_overhead=True)
            result["layers"]["check.overhead_x"] = twin.overhead
        spans_path = os.path.join(out_dir, f"spans-{tag}.jsonl")
        tracer.dump(spans_path)
        result["spans_path"] = spans_path
    print(json.dumps(result, sort_keys=True))
    return 0 if error is None and outcome["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
