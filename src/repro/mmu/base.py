"""Memory-management algorithm interface (paper Section 5).

A memory-management algorithm controls the TLB contents ``T``, the RAM
active set ``A``, the decoding function ``f``, and the virtual→physical map
``φ``, and services a stream of virtual-page requests, accumulating costs in
a :class:`~repro.core.model.CostLedger`. Concrete algorithms — base-page,
physical-huge-page, decoupled (``Z``), hybrid — live in sibling modules and
are interchangeable inside :mod:`repro.sim`.

Every algorithm carries an optional :class:`~repro.obs.events.Probe`
(``NULL_PROBE`` by default). With the null probe, :meth:`run` hands the
trace to :meth:`_replay` untouched — the hot path is unchanged. A
batch-safe probe keeps that path and receives one ``on_batch`` flush per
segment. Any other probe switches :meth:`run` to an instrumented loop that
derives typed events (``access``, ``tlb_miss``, ``io``, ``eviction``,
``decoding_miss``) from per-access ledger deltas, so all algorithms are
observable without touching their ``access`` implementations.

**ASID access contract.** Multi-tenant simulation (:mod:`repro.tenancy`)
shares one algorithm instance between address spaces. The contract is
address-space striding: :meth:`bind_asid_space` carves the virtual space
into power-of-two slices of ``asid_stride`` base pages (at least one
translation unit each, see :meth:`translation_alignment`), and
:meth:`run_asid` / :meth:`access_asid` service tenant-local page numbers
offset into slice ``asid``. Because slices are aligned to the algorithm's
translation coverage, every TLB unit number encodes ``(asid, local unit)``
exactly like a hardware ASID tag — no entry can straddle tenants, and
ASID 0 is the identity mapping (``run_asid(0, t) == run(t)`` bit for bit).
:meth:`shootdown` invalidates the TLB entries covering a page range
(tenant exit, φ change); it is TLB-only and free in the cost model, like
a hardware invalidation IPI.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .._util import as_int_list, next_power_of_two
from ..core import CostLedger
from ..obs.events import NULL_PROBE, Probe
from . import array_engine

__all__ = ["ENGINES", "MemoryManagementAlgorithm", "MMInspector", "as_int_list"]

#: simulation engines, the default first: ``"array"`` batches long
#: segments through :mod:`repro.mmu.array_engine`; ``"object"`` replays
#: access by access and is the per-access reference.
ENGINES: tuple[str, ...] = ("array", "object")


class MMInspector:
    """Read-through state-inspection surface for the invariant oracle.

    :mod:`repro.check` drives this interface to cross-validate an
    algorithm's bookkeeping against the paper's structural invariants
    (Sections 2–3: ``T``, ``A``, ``φ``, ``f``). Every query reads *live*
    MM state — an inspector is built once per run, not per access.

    The base class models nothing: a ``None`` return (or a ``None``
    capacity) marks the facet "not modeled by this algorithm", and the
    oracle skips the corresponding invariant instead of failing. Each
    algorithm overrides :meth:`MemoryManagementAlgorithm.inspector` to
    return a subclass exposing whatever structure it really maintains.
    """

    #: TLB capacity ``ℓ`` in entries (None = unbounded/unmodeled).
    tlb_capacity: int | None = None
    #: RAM capacity in *base pages* (``P``, or ``(1−δ)P·h`` for decoupled
    #: schemes whose replacement units cover several pages).
    ram_page_capacity: int | None = None
    #: every per-access IO delta must be a multiple of this (h, io_unit, …).
    io_quantum: int = 1
    #: hard per-access IO ceiling, when the algorithm has one.
    max_io_per_access: int | None = None

    def __init__(self, mm: "MemoryManagementAlgorithm") -> None:
        self.mm = mm

    # ------------------------------------------------------------ occupancy

    def tlb_entries(self) -> int | None:
        """Resident TLB entries ``|T|``."""
        return None

    def ram_pages_resident(self) -> int | None:
        """Base pages currently held by the active set ``A``."""
        return None

    def evictions(self) -> int:
        """Monotone count of active-set evictions."""
        return self.mm._eviction_count()

    # ------------------------------------------------ per-page translation

    def tlb_covers(self, vpn: int) -> bool | None:
        """Is the TLB unit covering *vpn* resident (``r(v) ∈ T``)?"""
        return None

    def models_placement(self) -> bool:
        """Does this algorithm maintain an explicit ``(φ, f)`` pair?"""
        return False

    def frame_of(self, vpn: int) -> int | None:
        """``φ(v)`` — the frame backing *vpn* (None: unplaced/unmodeled)."""
        return None

    def decode(self, vpn: int) -> int | None:
        """``f(v, ψ(r(v)))`` through the *stored* encoding (None = −1)."""
        return None

    def is_failed(self, vpn: int) -> bool:
        """Is *vpn* in the failure set ``F``?"""
        return False

    # ------------------------------------------------------------ structure

    def bucket_occupancy(self) -> tuple[int, int] | None:
        """``(max bucket load, bucket capacity B)`` for bucketed allocators."""
        return None

    def bucket_loads(self):
        """Current per-bucket load vector for bucketed allocators (an int
        sequence, one entry per bucket), or None when the algorithm has no
        bucketed placement. Feeds the ``bucket_load`` histogram of
        :class:`~repro.obs.snapshot.ObsSnapshot` — the Theorems 1–2 load
        tail as a distribution rather than a max."""
        return None

    def translation_spans(self):
        """Base-page ranges ``(lo, hi)`` covered by the resident TLB entries.

        One half-open range per resident translation unit, order
        unspecified; None when the algorithm exposes no enumerable TLB
        surface (the oracle then skips the ASID-coverage rule). Feeds
        :meth:`~repro.check.InvariantOracle.check_asid_coverage`: under the
        striding contract every span must lie wholly inside one live
        tenant's slice."""
        return None

    def deep_check(self) -> None:
        """Full structural self-check; raises AssertionError on breakage."""


class MemoryManagementAlgorithm(ABC):
    """Services virtual-page requests under the address-translation model."""

    #: short registry name, set by subclasses.
    name: str = "abstract"

    #: the attached :class:`~repro.obs.attribution.AttributionProbe`, when
    #: this machine is provenance-observed (set by ``observe``); the array
    #: engine checks it to decide between vectorized provenance replay
    #: (hugepage family) and a silent object-engine fallback.
    _provenance = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a new access() must not be bypassed by an inherited vectorized _replay
        if "access" in cls.__dict__ and "_replay" not in cls.__dict__:
            cls._replay = MemoryManagementAlgorithm._replay

    def __init__(self) -> None:
        self.ledger = CostLedger()
        #: simulation engine, one of :data:`ENGINES`: ``"array"`` offers
        #: each segment to the struct-of-arrays batch engine
        #: (:mod:`repro.mmu.array_engine`), which declines short segments,
        #: inputs it cannot represent exactly and algorithms or states it
        #: cannot batch; ``"object"`` always replays access by access.
        self.engine: str = ENGINES[0]
        #: observer of this algorithm's events; NULL_PROBE means unobserved.
        self.probe: Probe = NULL_PROBE
        #: extra-counter defaults re-seeded after every reset_stats();
        #: subclasses that keep algorithm-specific counters in
        #: ``ledger.extra`` register them here.
        self._extra_defaults: dict = {}
        #: base pages per ASID slice, set by :meth:`bind_asid_space`
        #: (None until an address-space layout is bound).
        self.asid_stride: int | None = None

    @abstractmethod
    def access(self, vpn: int) -> None:
        """Service one virtual-page request, charging costs to the ledger."""

    # ------------------------------------------------------- asid contract

    def translation_alignment(self) -> int:
        """Base pages covered by one TLB entry (a power of two).

        ASID slices are aligned to this so no translation unit can straddle
        two tenants; subclasses with huge-page coverage override it.
        """
        return 1

    def bind_asid_space(self, va_pages: int) -> int:
        """Carve the virtual space into ASID slices of *va_pages* or more.

        The stride is the smallest power of two ≥ ``max(va_pages,
        translation_alignment())``, so slice boundaries align with TLB
        units and the vpn→unit shift maps ``asid·stride + v`` to a
        ``(asid, local unit)`` pair, exactly like a tagged TLB. Rebinding
        with the same resulting stride is a no-op; changing the stride of a
        populated address space would silently re-tag live entries, so it
        raises ValueError instead.
        """
        if va_pages < 1:
            raise ValueError(f"va_pages must be positive, got {va_pages}")
        stride = next_power_of_two(max(int(va_pages), self.translation_alignment()))
        if self.asid_stride is not None and self.asid_stride != stride:
            raise ValueError(
                f"asid stride already bound to {self.asid_stride}; "
                f"rebinding to {stride} would re-tag live translations"
            )
        self.asid_stride = stride
        return stride

    def _asid_base(self, asid: int) -> int:
        if self.asid_stride is None:
            raise RuntimeError("call bind_asid_space() before ASID-tagged access")
        if asid < 0:
            raise ValueError(f"asid must be non-negative, got {asid}")
        return asid * self.asid_stride

    def access_asid(self, asid: int, vpn: int) -> None:
        """Service tenant-local page *vpn* inside address space *asid*."""
        self.access(self._asid_base(asid) + vpn)

    def run_asid(self, asid: int, trace) -> CostLedger:
        """Service a tenant-local *trace* inside address space *asid*.

        ASID 0 is the identity mapping: the trace is handed to :meth:`run`
        untouched, so a single tenant bound at ASID 0 is bit-identical to
        a plain single-address-space replay. Other ASIDs shift the trace
        into their slice (one vectorized add for numpy traces), keeping
        every vectorized :meth:`_replay` engaged.
        """
        base = self._asid_base(asid)
        if base == 0:
            return self.run(trace)
        if hasattr(trace, "dtype"):
            return self.run(trace + base)
        return self.run([vpn + base for vpn in as_int_list(trace)])

    def shootdown(self, lo: int, hi: int) -> int:
        """Invalidate every TLB entry intersecting base pages ``[lo, hi)``.

        Returns the number of entries dropped. TLB-only, like a hardware
        shootdown IPI: RAM residency is untouched (stale frames age out via
        normal replacement) and no cost is charged (invalidation is free in
        the AT model — only re-filling costs ε, which the subsequent misses
        account). Subclasses override; the base class models no TLB.
        """
        raise NotImplementedError(f"{self.name} does not model TLB shootdowns")

    def shootdown_asid(self, asid: int) -> int:
        """Shoot down every TLB entry in *asid*'s slice (tenant exit)."""
        base = self._asid_base(asid)
        return self.shootdown(base, base + self.asid_stride)

    # -------------------------------------------------- eviction provenance

    def attribution_sites(self) -> tuple:
        """The structures miss attribution instruments, as ``(family,
        structure, page_of)`` triples.

        *family* names the structure in attribution counters (``"tlb"`` /
        ``"ram"``), *structure* is the :class:`~repro.paging.PageCache` or
        :class:`~repro.tlb.TLB` carrying the ``_ghost`` slot, and
        *page_of(key)* maps the structure's keys back to global base-page
        numbers (so ``page_of(key) // asid_stride`` recovers the owning
        ASID). The base class exposes nothing — algorithms with
        instrumentable caches override this, and
        :meth:`~repro.obs.attribution.AttributionProbe.observe` raises on
        an empty result rather than silently counting nothing.
        """
        return ()

    def run(self, trace) -> CostLedger:
        """Service every request in *trace*; return this algorithm's ledger.

        The one replay router: subclasses implement :meth:`access` and,
        optionally, a vectorized :meth:`_replay`, never ``run``. A trace
        without ``len()`` (a generator) is materialized once; a probe that
        needs per-access events gets :meth:`_run_probed`. Otherwise the
        trace is cut into ``probe.batch_interval``-access segments (one
        segment without an interval), and each segment goes to the array
        engine when ``engine == "array"`` and a batch handler accepts it,
        else to :meth:`_replay`, followed by one ``on_batch`` flush when a
        probe is attached. Segmentation only moves loop boundaries:
        counters and cache state are bit-identical to one unsegmented
        per-access replay.
        """
        if not hasattr(trace, "__len__"):
            trace = as_int_list(trace)
        probe = self.probe
        if probe.enabled and not probe.batch_safe:
            return self._run_probed(trace)
        step = probe.batch_interval if probe.enabled else None
        if step is None:
            segments = (trace,)
        else:
            segments = (trace[i : i + step] for i in range(0, len(trace), step))
        batch = array_engine.try_run if self.engine == "array" else None
        ledger = self.ledger
        for segment in segments:
            t0 = ledger.accesses
            before = ledger.snapshot() if probe.enabled else None
            if batch is None or batch(self, segment) is None:
                self._replay(segment)
            if probe.enabled:
                probe.on_batch(t0, segment, ledger, before)
        return ledger

    def _replay(self, trace) -> None:
        """Serve one segment on the object engine: the per-access loop.

        The segment is materialized as plain Python ints once
        (:func:`as_int_list`), so ``access`` implementations may assume
        exact ints — the hot-loop contract documented in ``docs/API.md``.
        Subclasses may override this with a vectorized replay that is
        bit-identical to calling :meth:`access` per request.
        """
        access = self.access
        for vpn in as_int_list(trace):
            access(vpn)

    def _run_probed(self, trace) -> CostLedger:
        """The observed replay: emit typed events from per-access ledger
        deltas. ``t`` is the access index within the current phase (i.e.
        ``ledger.accesses`` at the moment the request was serviced)."""
        ledger = self.ledger
        probe = self.probe
        access = self.access
        evictions = self._eviction_count
        for vpn in as_int_list(trace):
            misses0 = ledger.tlb_misses
            ios0 = ledger.ios
            dmisses0 = ledger.decoding_misses
            ev0 = evictions()
            access(vpn)
            t = ledger.accesses - 1
            probe.on_access(t, vpn)
            if ledger.tlb_misses != misses0:
                probe.on_tlb_miss(t, vpn)
            if ledger.ios != ios0:
                probe.on_io(t, vpn, ledger.ios - ios0)
            if ledger.decoding_misses != dmisses0:
                probe.on_decoding_miss(t, vpn)
            ev = evictions()
            if ev != ev0:
                probe.on_eviction(t, ev - ev0)
        return self.ledger

    def _eviction_count(self) -> int:
        """Monotone count of active-set evictions, for probe derivation.

        Subclasses whose RAM is a counting cache override this; the default
        (0) simply suppresses ``eviction`` events.
        """
        return 0

    def inspector(self) -> MMInspector:
        """The state-inspection surface :mod:`repro.check` validates through.

        The base surface models nothing (the oracle then only checks
        per-access ledger coherence); subclasses return a specialized
        :class:`MMInspector` exposing their ``T``/``A``/``φ``/``f`` state.
        """
        return MMInspector(self)

    def reset_stats(self) -> None:
        """Zero the ledger (the Section 6 warm-up/measure boundary); caches
        and mappings keep their state."""
        self.ledger.reset()
        self.ledger.extra.update(self._extra_defaults)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} {self.ledger.as_dict()}>"
