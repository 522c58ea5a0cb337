"""Per-layer metrics from the spans of one traced workload process.

Every metric here is listed in ``BENCHMARK.json`` under ``per_layer`` and
explained in ``perfbench/README.md``. A workload that bypasses a layer
reports 0 for it. Span counts are reconciled against the counts the
simulator itself reports; a mismatch makes the run incorrect.
"""

from __future__ import annotations

import math

from tracer import ATTRS, CELL, END, MMU_CALLS, NAME, PARENT, START


def metric_name(mm_name: str) -> str:
    """A registry name as it appears in metric names (``+`` becomes ``_``)."""
    return mm_name.replace("+", "_")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)])


def layer_metrics(tracer, ctx, t0: float, t_end: float) -> dict:
    """The ``per_layer`` metrics (all but ``trace.overhead_x``, which needs
    the untraced twin run) plus the span/simulator reconciliation."""
    from repro.check.oracle import ValidatingMM
    from repro.mmu.registry import MM_NAMES

    spans = tracer.spans
    selfs = tracer.self_times()

    def self_sum(*names) -> float:
        return sum(t for s, t in zip(spans, selfs) if s[NAME] in names)

    def dur(s) -> float:
        return s[END] - s[START]

    outer = [
        s for s in spans
        if s[NAME] in MMU_CALLS
        and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in MMU_CALLS)
    ]
    mms = list(tracer.mms.values())
    validated = {seq for seq, _name, mm in mms if isinstance(mm, ValidatingMM)}
    name_of = tracer.mm_names()

    m: dict[str, float] = {}
    m["import_s"] = sum(dur(s) for s in spans if s[NAME] == "phase.import")
    m["report_s"] = sum(dur(s) for s in spans if s[NAME] == "phase.report")
    m["workloads.generate_s"] = self_sum("workloads.build", "workloads.generate")
    m["workloads.accesses"] = sum(
        s[ATTRS]["n"] for s in spans
        if s[NAME] == "workloads.generate"
        and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != "workloads.generate")
    )
    m["mmu.build_s"] = self_sum("mmu.build")
    m["mmu.run_s"] = self_sum(*MMU_CALLS)
    m["mmu.run_calls"] = sum(1 for s in spans if s[NAME] == "mmu.run")
    m["mmu.seg_len_p50"] = percentile([s[ATTRS]["n"] for s in outer], 50)
    call_us = [dur(s) * 1e6 for s in outer]
    m["mmu.run_us_p50"] = percentile(call_us, 50)
    m["mmu.run_us_p99"] = percentile(call_us, 99)
    m["mmu.run_us_n"] = len(call_us)
    for name in MM_NAMES:
        calls = [s for s in outer if name_of[s[ATTRS]["mm"]] == name]
        secs = sum(dur(s) for s in calls)
        m[f"mmu.{metric_name(name)}.run_s"] = secs
        m[f"mmu.{metric_name(name)}.kacc_per_s"] = (
            sum(s[ATTRS]["n"] for s in calls) / secs / 1e3 if secs else 0.0
        )
    shootdowns = [s for s in spans if s[NAME] == "mmu.shootdown"]
    m["mmu.shootdown_s"] = self_sum("mmu.shootdown")
    m["mmu.shootdown_calls"] = len(shootdowns)
    m["mmu.shootdown_dropped"] = sum(s[ATTRS]["dropped"] for s in shootdowns)
    m["sim.dispatch_s"] = self_sum("sim.dispatch")

    def mm_seconds(name: str, cell: str) -> float:
        return sum(dur(s) for s in outer
                   if name_of[s[ATTRS]["mm"]] == name and s[CELL] == cell)

    base = mm_seconds("base-page", "theorem/eq3")
    m["core.decoupling_x"] = mm_seconds("decoupled", "theorem/eq3") / base if base else 0.0
    m["paging.reference_s"] = self_sum("bench.eq3")

    ledgers = {id(mm.ledger): mm.ledger for _seq, _name, mm in mms}.values()
    m["core.decoding_misses"] = sum(lg.decoding_misses for lg in ledgers)
    m["core.paging_failures"] = sum(lg.paging_failures for lg in ledgers)
    m["ballsbins.max_bucket_load"] = max(
        [_peak_bucket_load(mm) for _seq, _name, mm in mms], default=0
    )

    facts = ctx.facts
    m["tenancy.self_s"] = self_sum("tenancy.run")
    m["tenancy.turns"] = facts.get("turns", 0)
    m["tenancy.switches"] = facts.get("switches", 0)
    ratios = []
    for name in MM_NAMES:
        plain = mm_seconds(name, f"tenants/{name}/plain")
        attrib = mm_seconds(name, f"tenants/{name}/attrib")
        if plain and attrib:
            ratios.append(attrib / plain)
    m["obs.attrib_x"] = (
        math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 0.0
    )
    m["obs.snapshot_s"] = self_sum("obs.snapshot")
    m["check.validated_s"] = sum(dur(s) for s in outer if s[ATTRS]["mm"] in validated)
    m["check.overhead_x"] = 0.0  # filled in from the unvalidated twin grid
    m["check.cells"] = facts.get("cells", 0)
    m["check.violations"] = facts.get("violations", 0)

    accesses = sum(lg.accesses for lg in ledgers)
    m["mmu.tlb_hit_frac"] = (
        sum(lg.tlb_hits for lg in ledgers) / accesses if accesses else 0.0
    )
    rams = {}
    for _seq, _name, mm in mms:
        for family, structure, _page_of in mm.attribution_sites():
            if family == "ram":
                rams[id(structure)] = structure
    ram_attempts = sum(r.hits + r.misses for r in rams.values())
    m["mmu.ram_hit_frac"] = (
        sum(r.hits for r in rams.values()) / ram_attempts if ram_attempts else 0.0
    )
    m["trace.coverage"] = sum(selfs) / (t_end - t0)

    # span counts against the simulator's own counts
    nested_runs = sum(
        1 for s in spans
        if s[NAME] == "mmu.run" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "mmu.run"
    )
    reconcile = {
        "outer mmu calls": [len(outer), ctx.mm_calls],
        "outer mmu accesses": [sum(s[ATTRS]["n"] for s in outer), ctx.replayed],
        "generated accesses": [m["workloads.accesses"], ctx.generated],
        "self times >= 0": [min(selfs) >= -1e-9, True],
    }
    if "turns" in facts:
        run_asid = sum(1 for s in spans if s[NAME] == "mmu.run_asid")
        reconcile.update({
            "run_asid calls vs turns": [run_asid, facts["turns"]],
            "run calls vs turns + nested runs": [
                m["mmu.run_calls"], facts["turns"] + nested_runs],
            "shootdown calls": [m["mmu.shootdown_calls"], facts["shootdowns"]],
            "shootdown drops": [m["mmu.shootdown_dropped"], facts["dropped"]],
            "tenancy runs vs cells": [
                sum(1 for s in spans if s[NAME] == "tenancy.run"), len(ctx.cells)],
        })
    if "cells" in facts:
        reconcile["validated outer calls vs 2 x cells"] = [
            sum(1 for s in outer if s[ATTRS]["mm"] in validated), 2 * facts["cells"]]
    engines: dict[str, list] = {}
    for s in outer:
        engines.setdefault(s[CELL] or "-", set()).add(s[ATTRS]["engine"])
    return {
        "layers": m,
        "reconcile": reconcile,
        "reconciled": all(a == b for a, b in reconcile.values()),
        "cell_engines": {k: sorted(v) for k, v in sorted(engines.items())},
        "span_count": len(spans),
    }


def _peak_bucket_load(mm) -> int:
    """Peak balls-and-bins bucket load of a decoupled/hybrid MM (else 0)."""
    system = getattr(getattr(mm, "inner", mm), "system", None)
    allocator = getattr(getattr(system, "scheme", None), "allocator", None)
    game = getattr(allocator, "game", None)
    return int(getattr(game, "peak_load", 0))
