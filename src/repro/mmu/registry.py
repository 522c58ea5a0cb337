"""Registry of memory-management algorithms for grid drivers and tests.

Every concrete algorithm registers a *builder* keyed by its ``name``: a
module-level function taking the two knobs all algorithms share
(``tlb_entries``, ``ram_pages``) plus a seed, and filling in sensible
paper-shaped defaults for the rest. The validation sweep (``repro check``),
the property-based fuzz tests, and the reset-stats audit all enumerate
:data:`MM_NAMES` so a newly added algorithm is covered the moment it is
registered — forgetting to register is itself caught by a test.

Builders are module-level functions (and :func:`mm_factory` returns a
``functools.partial`` of one), so registry-built grids survive the trip
into :mod:`repro.sim.parallel` workers.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .base import ENGINES, MemoryManagementAlgorithm
from .classical import BasePageMM
from .decoupled import DecoupledMM
from .hugepage import PhysicalHugePageMM
from .hybrid import HybridMM
from .thp import THPStyleMM
from .virtualized import NestedTranslationMM
from .writeback import WritebackHugePageMM

__all__ = ["ENGINES", "MM_BUILDERS", "MM_NAMES", "make_mm", "mm_factory"]

#: default huge-page size for the physical / nested / write-back entries.
_DEFAULT_H = 16
#: default physical-run length for the hybrid entry.
_DEFAULT_CHUNK = 4


def _build_base(tlb_entries: int, ram_pages: int, seed=None) -> BasePageMM:
    return BasePageMM(tlb_entries, ram_pages)


def _build_physical(tlb_entries: int, ram_pages: int, seed=None) -> PhysicalHugePageMM:
    ram_h = (ram_pages // _DEFAULT_H) * _DEFAULT_H
    return PhysicalHugePageMM(tlb_entries, ram_h, huge_page_size=_DEFAULT_H)


def _build_decoupled(tlb_entries: int, ram_pages: int, seed=None) -> DecoupledMM:
    return DecoupledMM(tlb_entries, ram_pages, seed=seed)


def _build_hybrid(tlb_entries: int, ram_pages: int, seed=None) -> HybridMM:
    ram_c = (ram_pages // _DEFAULT_CHUNK) * _DEFAULT_CHUNK
    return HybridMM(tlb_entries, ram_c, _DEFAULT_CHUNK, seed=seed)


def _build_thp(tlb_entries: int, ram_pages: int, seed=None) -> THPStyleMM:
    return THPStyleMM(
        tlb_entries, ram_pages, huge_page_size=_DEFAULT_H, promote_utilization=0.75
    )


def _build_nested(tlb_entries: int, ram_pages: int, seed=None) -> NestedTranslationMM:
    return NestedTranslationMM(tlb_entries, tlb_entries, ram_pages, huge_page_size=1)


def _build_writeback(tlb_entries: int, ram_pages: int, seed=None) -> WritebackHugePageMM:
    ram_h = (ram_pages // _DEFAULT_H) * _DEFAULT_H
    return WritebackHugePageMM(
        tlb_entries, ram_h, huge_page_size=_DEFAULT_H, seed=seed
    )


#: ``name -> builder(tlb_entries, ram_pages, seed=...)`` for every concrete
#: algorithm (keys match each class's ``name`` attribute).
MM_BUILDERS: dict[str, Callable[..., MemoryManagementAlgorithm]] = {
    BasePageMM.name: _build_base,
    PhysicalHugePageMM.name: _build_physical,
    DecoupledMM.name: _build_decoupled,
    HybridMM.name: _build_hybrid,
    THPStyleMM.name: _build_thp,
    NestedTranslationMM.name: _build_nested,
    WritebackHugePageMM.name: _build_writeback,
}

#: registry names in deterministic order (grid/test parametrization order).
MM_NAMES: tuple[str, ...] = tuple(sorted(MM_BUILDERS))


def make_mm(
    name: str, tlb_entries: int, ram_pages: int, *, seed=None, engine: str = ENGINES[0]
) -> MemoryManagementAlgorithm:
    """Build the registered algorithm *name* with registry defaults.

    *engine* is one of :data:`ENGINES`, the array engine by default
    (:mod:`repro.mmu.array_engine`): it batches long segments and leaves
    short segments, unbatchable algorithms and per-access probes to the
    object replay, with identical counters and cache state either way.
    ``engine="object"`` pins the per-access reference replay.
    """
    try:
        builder = MM_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; registered: {', '.join(MM_NAMES)}"
        ) from None
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of: {', '.join(ENGINES)}"
        )
    mm = builder(tlb_entries, ram_pages, seed=seed)
    mm.engine = engine
    return mm


def mm_factory(
    name: str, tlb_entries: int, ram_pages: int, *, seed=None, engine: str = ENGINES[0]
):
    """Picklable zero-arg factory for *name* (for :class:`~repro.sim.SimTask`)."""
    if name not in MM_BUILDERS:
        raise ValueError(
            f"unknown algorithm {name!r}; registered: {', '.join(MM_NAMES)}"
        )
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of: {', '.join(ENGINES)}"
        )
    return partial(make_mm, name, tlb_entries, ram_pages, seed=seed, engine=engine)
