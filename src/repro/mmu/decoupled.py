"""Decoupled memory management: the paper's algorithm ``Z`` as a drop-in
:class:`~repro.mmu.base.MemoryManagementAlgorithm`.

The TLB uses virtual huge pages of size ``h_max`` (sized from Theorem 1 or
Theorem 3 parameters for the machine's ``P`` and ``w``), while RAM is
managed at base-page granularity through the low-associativity allocator —
huge-page TLB coverage with base-page IO behaviour.
"""

from __future__ import annotations

import dataclasses

from ..core import (
    DecoupledSystem,
    DecouplingScheme,
    SchemeParameters,
    TLBValueCodec,
    build_allocator,
    theorem1_parameters,
    theorem3_parameters,
)
from ..paging import LRUPolicy, ReplacementPolicy
from .base import MemoryManagementAlgorithm, MMInspector

__all__ = ["DecoupledMM", "DecoupledSystemInspector"]

_PARAMETERS = {
    "iceberg": theorem3_parameters,
    "one-choice": theorem1_parameters,
}


class DecoupledSystemInspector(MMInspector):
    """Oracle surface for any :class:`~repro.core.simulation.DecoupledSystem`
    wrapper (plain decoupling and the Section 8 hybrid).

    *unit* is the base pages per system "page" (1 for decoupling, the chunk
    size for the hybrid); requests arrive in base-page space and are mapped
    to system units exactly as the owning algorithm maps them.
    """

    def __init__(self, mm: MemoryManagementAlgorithm, system, unit: int = 1) -> None:
        super().__init__(mm)
        self.system = system
        self.unit = unit
        self.tlb_capacity = system.tlb.entries
        self.ram_page_capacity = system.ram.capacity * unit
        self.io_quantum = system.io_unit
        self.max_io_per_access = system.io_unit
        # the per-access queries read these live objects, bound once
        scheme = system.scheme
        self._coverage = system.hmax * unit
        self._tlb = system.tlb
        self._frame_of, self._f, self._psi = scheme.allocator.frame_of, scheme.f, scheme._psi.get
        self._failed, self._hmax = scheme._failed, scheme.hmax

    def tlb_entries(self) -> int:
        return len(self.system.tlb)

    def ram_pages_resident(self) -> int:
        return len(self.system.ram) * self.unit

    def tlb_covers(self, vpn: int) -> bool:
        return vpn // self._coverage in self._tlb

    def models_placement(self) -> bool:
        return True

    def frame_of(self, vpn: int) -> int | None:
        return self._frame_of(vpn // self.unit)

    def decode(self, vpn: int) -> int | None:
        page = vpn // self.unit
        frame = self._f(page, self._psi(page // self._hmax, 0))
        return None if frame < 0 else frame

    def is_failed(self, vpn: int) -> bool:
        return vpn // self.unit in self._failed

    def bucket_occupancy(self) -> tuple[int, int] | None:
        allocator = self.system.scheme.allocator
        if hasattr(allocator, "max_bucket_load"):
            return allocator.max_bucket_load, allocator.bucket_size
        return None

    def bucket_loads(self):
        return self.system.bucket_loads()

    def translation_spans(self):
        coverage = self.system.hmax * self.unit
        return [
            (hpn * coverage, (hpn + 1) * coverage)
            for hpn in self.system.tlb.resident()
        ]

    def deep_check(self) -> None:
        self.system.check_invariants()
        self.system.tlb.check_invariants()
        self.system.ram.check_invariants()


class DecoupledMM(MemoryManagementAlgorithm):
    """Huge-page-decoupled management built from theorem parameters.

    Parameters
    ----------
    tlb_entries:
        ``ℓ``.
    ram_pages:
        Physical memory ``P`` in base pages. The RAM-replacement policy is
        capped at the scheme's ``(1−δ)·P`` (resource augmentation).
    w:
        TLB value width in bits (hardware sets this; 64 by default).
    scheme:
        ``"iceberg"`` (Theorem 3, default) or ``"one-choice"`` (Theorem 1).
    hmax:
        Optional override of the huge-page size; must not exceed the
        scheme's feasible maximum.
    tlb_policy / ram_policy:
        The ``X`` and ``Y`` of Theorem 4 (fresh instances; default LRU).
    seed:
        Hash seed for the allocator.
    """

    name = "decoupled"

    def __init__(
        self,
        tlb_entries: int,
        ram_pages: int,
        *,
        w: int = 64,
        scheme: str = "iceberg",
        hmax: int | None = None,
        tlb_policy: ReplacementPolicy | None = None,
        ram_policy: ReplacementPolicy | None = None,
        seed=None,
    ) -> None:
        super().__init__()
        try:
            params_fn = _PARAMETERS[scheme]
        except KeyError:
            raise ValueError(
                f"unknown scheme {scheme!r}; choose one of {sorted(_PARAMETERS)}"
            ) from None
        params: SchemeParameters = params_fn(ram_pages, w)
        if params.hmax < 1:
            raise ValueError(
                f"w = {w} bits cannot hold even one {params.field_bits}-bit field "
                f"at P = {ram_pages}"
            )
        # Section 5 assumes h_max is a power of two (huge-page addresses are
        # aligned multiples); round the feasible value down.
        params = dataclasses.replace(params, hmax=1 << (params.hmax.bit_length() - 1))
        if hmax is not None:
            if not (1 <= hmax <= params.hmax):
                raise ValueError(
                    f"hmax override {hmax} outside feasible range [1, {params.hmax}]"
                )
            params = dataclasses.replace(params, hmax=hmax)
        self.params = params
        allocator = build_allocator(params, seed=seed)
        codec = TLBValueCodec(params.w, params.hmax, params.field_bits)
        self.system = DecoupledSystem(
            tlb_entries,
            params.max_pages,
            tlb_policy or LRUPolicy(),
            ram_policy or LRUPolicy(),
            DecouplingScheme(allocator, codec),
        )
        self.ledger = self.system.ledger

    @property
    def hmax(self) -> int:
        """Huge-page size in base pages."""
        return self.system.hmax

    def access(self, vpn: int) -> None:
        self.system.access(vpn)

    def _replay(self, trace) -> None:
        """Hand the whole segment to the system's own loop, skipping one
        delegation hop per access."""
        self.system.run(trace)

    def translation_alignment(self) -> int:
        return self.system.hmax

    def attribution_sites(self) -> tuple:
        hmax = self.system.hmax
        return (
            ("tlb", self.system.tlb, lambda hpn, _c=hmax: hpn * _c),
            ("ram", self.system.ram, lambda vpn: vpn),
        )

    def shootdown(self, lo: int, hi: int) -> int:
        return _shootdown_system(self.system, lo, hi, unit=1)

    def _eviction_count(self) -> int:
        return self.system.ram.evictions

    def inspector(self) -> MMInspector:
        return DecoupledSystemInspector(self, self.system)


def _shootdown_system(system, lo: int, hi: int, *, unit: int) -> int:
    """Invalidate a :class:`~repro.core.simulation.DecoupledSystem`'s TLB
    entries intersecting base pages ``[lo, hi)`` (*unit* base pages per
    system page). The scheme's ``T`` set is kept in sync via ``tlb_evict``,
    exactly as on a capacity eviction — ψ survives (it lives in the
    scheme, not the TLB), so a re-fill after the shootdown decodes the
    same frames."""
    coverage = system.hmax * unit
    victims = [
        hpn for hpn in system.tlb.resident()
        if hpn * coverage < hi and (hpn + 1) * coverage > lo
    ]
    ghost = system.tlb._ghost
    for hpn in victims:
        if ghost is not None:
            ghost.invalidated(hpn)
        system.tlb.invalidate(hpn)
        system.scheme.tlb_evict(hpn)
    return len(victims)
