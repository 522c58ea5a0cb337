"""Physical-huge-page memory management — the Section 6 simulator semantics.

With huge-page size ``h``, every TLB entry covers ``h`` virtually *and
physically* contiguous base pages; RAM is managed at huge-page granularity.
The consequences the paper enumerates fall out directly:

1. **Page-fault amplification** — a fault on any constituent page fetches
   the whole huge page: ``h`` IOs.
2. **Reduced RAM utilization** — the huge page occupies ``h`` frames even
   if one page is hot, so RAM holds ``P/h`` huge pages.
3. (Fragmentation is moot here because *all* pages share one size, exactly
   as in the paper's simulator; the mixed-size effects are exercised via
   :class:`repro.sim.memory.PhysicalMemory` separately.)

``h = 1`` recovers classical base-page paging (see
:class:`~repro.mmu.classical.BasePageMM`).
"""

from __future__ import annotations

import numpy as np

from .._util import check_positive_int, is_power_of_two
from ..paging import LRUPolicy, PageCache, ReplacementPolicy
from .base import MemoryManagementAlgorithm, MMInspector, as_int_list

__all__ = ["PhysicalHugePageMM"]


class _PhysicalInspector(MMInspector):
    """Oracle surface for the Section 6 simulator: two counting caches over
    huge-page numbers; no explicit ``(φ, f)`` pair to validate."""

    def __init__(self, mm: "PhysicalHugePageMM") -> None:
        super().__init__(mm)
        self.tlb_capacity = mm.tlb.capacity
        self.ram_page_capacity = mm.ram.capacity * mm.huge_page_size
        self.io_quantum = mm.huge_page_size
        self.max_io_per_access = mm.huge_page_size

    def tlb_entries(self) -> int:
        return len(self.mm.tlb)

    def ram_pages_resident(self) -> int:
        return len(self.mm.ram) * self.mm.huge_page_size

    def tlb_covers(self, vpn: int) -> bool:
        return (vpn // self.mm.huge_page_size) in self.mm.tlb

    def translation_spans(self):
        h = self.mm.huge_page_size
        return [(hpn * h, hpn * h + h) for hpn in self.mm.tlb.resident()]

    def deep_check(self) -> None:
        self.mm.tlb.check_invariants()
        self.mm.ram.check_invariants()


class PhysicalHugePageMM(MemoryManagementAlgorithm):
    """The trace-driven simulator of Section 6 for one huge-page size.

    Parameters
    ----------
    tlb_entries:
        ``ℓ`` (the paper uses 1536). The TLB is fully associative over
        huge-page addresses.
    ram_pages:
        Physical memory size ``P`` in *base* pages; must be divisible by
        *huge_page_size* (RAM holds ``P/h`` huge frames).
    huge_page_size:
        ``h`` in base pages, a power of two in ``{1, 2, …}``.
    tlb_policy / ram_policy:
        Replacement policies (fresh instances); both default to LRU as in
        the paper's experiments.
    """

    name = "physical-huge"

    def __init__(
        self,
        tlb_entries: int,
        ram_pages: int,
        huge_page_size: int = 1,
        tlb_policy: ReplacementPolicy | None = None,
        ram_policy: ReplacementPolicy | None = None,
    ) -> None:
        super().__init__()
        check_positive_int(tlb_entries, "tlb_entries")
        check_positive_int(ram_pages, "ram_pages")
        h = check_positive_int(huge_page_size, "huge_page_size")
        if not is_power_of_two(h):
            raise ValueError(f"huge_page_size must be a power of two, got {h}")
        if ram_pages % h:
            raise ValueError(
                f"ram_pages ({ram_pages}) must be divisible by huge_page_size ({h})"
            )
        if ram_pages // h < 1:
            raise ValueError("RAM must hold at least one huge page")
        self.huge_page_size = h
        self.tlb = PageCache(tlb_entries, tlb_policy or LRUPolicy())
        self.ram = PageCache(ram_pages // h, ram_policy or LRUPolicy())

    def access(self, vpn: int) -> None:
        ledger = self.ledger
        ledger.accesses += 1
        hpn = vpn // self.huge_page_size
        if self.tlb.access(hpn):
            ledger.tlb_hits += 1
        else:
            ledger.tlb_misses += 1
        if not self.ram.access(hpn):
            # page-fault amplification: the whole huge page moves
            ledger.ios += self.huge_page_size

    def _replay(self, trace) -> None:
        """The whole-segment equivalent of :meth:`access`.

        Because the vpn→hpn mapping is static, the huge-page numbers for
        the entire segment come from one vectorized shift, and because the
        TLB and RAM caches evolve independently of each other (each sees
        only the hpn stream), the per-access interleaving can be replaced
        by two batched :meth:`~repro.paging.cache.PageCache.access_many`
        replays — final counters and cache states are bit-identical, which
        the golden-run and probed-vs-unprobed parity tests pin.
        """
        h = self.huge_page_size
        if h == 1:
            hpns = as_int_list(trace)
        elif isinstance(trace, np.ndarray) and trace.dtype.kind in "iu":
            # vpns are non-negative, so the floor division is one shift
            hpns = (trace >> (h.bit_length() - 1)).tolist()
        else:
            hpns = [vpn // h for vpn in as_int_list(trace)]
        ledger = self.ledger
        tlb_hits, tlb_misses = self.tlb.access_many(hpns)
        _ram_hits, ram_misses = self.ram.access_many(hpns)
        ledger.accesses += len(hpns)
        ledger.tlb_hits += tlb_hits
        ledger.tlb_misses += tlb_misses
        ledger.ios += ram_misses * h

    def translation_alignment(self) -> int:
        return self.huge_page_size

    def attribution_sites(self) -> tuple:
        h = self.huge_page_size
        page_of = (lambda hpn, _h=h: hpn * _h) if h != 1 else (lambda k: k)
        return (("tlb", self.tlb, page_of), ("ram", self.ram, page_of))

    def shootdown(self, lo: int, hi: int) -> int:
        h = self.huge_page_size
        victims = [
            hpn for hpn in self.tlb.resident()
            if hpn * h < hi and (hpn + 1) * h > lo
        ]
        ghost = self.tlb._ghost
        for hpn in victims:
            if ghost is not None:
                ghost.invalidated(hpn)
            self.tlb.remove(hpn)
        return len(victims)

    def _eviction_count(self) -> int:
        return self.ram.evictions

    def inspector(self) -> MMInspector:
        return _PhysicalInspector(self)
