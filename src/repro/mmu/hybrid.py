"""The Section 8 hybrid: decoupled huge pages over moderate physical runs.

If the coverage-optimal virtual huge page has ``q ≫ h_max`` base pages, pure
decoupling cannot reach it (the ``w``-bit value holds only ``h_max``
fields). The paper's hybrid makes each *field* point at a physically
contiguous run of ``chunk = q / h_max`` base pages: a TLB entry then covers
``q`` pages, while each fault moves only ``chunk`` pages — coverage of
size-``q`` huge pages with amplification capped at ``q/h_max`` instead of
``q``.

Implementation: a :class:`~repro.core.simulation.DecoupledSystem` whose
"pages" are the chunks (allocation, replacement and encoding all operate on
chunk ids) and whose ``io_unit`` is the chunk size.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .._util import as_int_list, check_positive_int, is_power_of_two
from ..core import (
    DecoupledSystem,
    DecouplingScheme,
    TLBValueCodec,
    build_allocator,
    theorem3_parameters,
)
from ..paging import LRUPolicy, ReplacementPolicy
from .base import MemoryManagementAlgorithm, MMInspector
from .decoupled import DecoupledSystemInspector, _shootdown_system

__all__ = ["HybridMM"]


class HybridMM(MemoryManagementAlgorithm):
    """Decoupled virtual huge pages of ``q = hmax · chunk`` base pages.

    Parameters
    ----------
    tlb_entries:
        ``ℓ``.
    ram_pages:
        Physical memory ``P`` in base pages.
    chunk:
        Physical run length ``q / h_max`` in base pages (power of two).
        ``chunk = 1`` degenerates to plain decoupling.
    w:
        TLB value width; the Theorem 3 parameters are computed over the
        ``P/chunk`` chunk frames.
    """

    name = "hybrid"

    def __init__(
        self,
        tlb_entries: int,
        ram_pages: int,
        chunk: int,
        *,
        w: int = 64,
        tlb_policy: ReplacementPolicy | None = None,
        ram_policy: ReplacementPolicy | None = None,
        seed=None,
    ) -> None:
        super().__init__()
        check_positive_int(ram_pages, "ram_pages")
        self.chunk = check_positive_int(chunk, "chunk")
        if not is_power_of_two(chunk):
            raise ValueError(f"chunk must be a power of two, got {chunk}")
        if ram_pages % chunk:
            raise ValueError(
                f"ram_pages ({ram_pages}) must be divisible by chunk ({chunk})"
            )
        chunk_frames = ram_pages // chunk
        params = theorem3_parameters(chunk_frames, w)
        if params.hmax < 1:
            raise ValueError(f"w = {w} cannot hold a single field at this size")
        # keep q = hmax · chunk a power of two (Section 5's alignment rule)
        params = dataclasses.replace(params, hmax=1 << (params.hmax.bit_length() - 1))
        self.params = params
        allocator = build_allocator(params, seed=seed)
        codec = TLBValueCodec(params.w, params.hmax, params.field_bits)
        self.system = DecoupledSystem(
            tlb_entries,
            params.max_pages,
            tlb_policy or LRUPolicy(),
            ram_policy or LRUPolicy(),
            DecouplingScheme(allocator, codec),
            io_unit=chunk,
        )
        self.ledger = self.system.ledger

    @property
    def coverage(self) -> int:
        """Base pages covered by one TLB entry: ``q = hmax · chunk``."""
        return self.system.hmax * self.chunk

    def access(self, vpn: int) -> None:
        self.system.access(vpn // self.chunk)

    def _replay(self, trace) -> None:
        """The vpn→chunk mapping is static, so the chunk ids for the whole
        segment come from one vectorized shift."""
        chunk = self.chunk
        if chunk == 1:
            chunk_ids = as_int_list(trace)
        elif isinstance(trace, np.ndarray) and trace.dtype.kind in "iu":
            # vpns are non-negative, so the floor division is one shift
            chunk_ids = (trace >> (chunk.bit_length() - 1)).tolist()
        else:
            chunk_ids = [vpn // chunk for vpn in as_int_list(trace)]
        access = self.system.access
        for cid in chunk_ids:
            access(cid)

    def translation_alignment(self) -> int:
        return self.coverage

    def attribution_sites(self) -> tuple:
        coverage = self.coverage
        chunk = self.chunk
        return (
            ("tlb", self.system.tlb, lambda hpn, _c=coverage: hpn * _c),
            ("ram", self.system.ram, lambda cid, _c=chunk: cid * _c),
        )

    def shootdown(self, lo: int, hi: int) -> int:
        return _shootdown_system(self.system, lo, hi, unit=self.chunk)

    def _eviction_count(self) -> int:
        return self.system.ram.evictions

    def inspector(self) -> MMInspector:
        return DecoupledSystemInspector(self, self.system, unit=self.chunk)
