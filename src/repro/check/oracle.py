"""Runtime invariant oracle: cross-validate an algorithm's bookkeeping.

Theorem 1's guarantee is structural — it only holds if the memory manager
really maintains the state it claims: every resident page's frame lies in
one of its hashed buckets and decodes back through ``f`` to the true ``φ``
(eq. 4), bucket occupancy never exceeds ``B``, RAM never holds more than
``m`` pages, and the TLB never holds more than ``ℓ`` entries. None of that
is visible in aggregate miss counts, so a refactor can silently break the
model while every end-to-end test stays green.

:class:`InvariantOracle` is the correctness layer: it shadows a run of any
:class:`~repro.mmu.MemoryManagementAlgorithm` through the algorithm's
:class:`~repro.mmu.MMInspector` surface and raises a structured
:class:`InvariantViolation` the moment an invariant breaks. Checks run at
two cadences:

* **per access** (O(1) on the touched page): ledger-delta coherence
  (exactly one access and one TLB outcome per request, IO deltas in
  multiples of the algorithm's quantum, monotone evictions), TLB coverage
  of the touched page, decode-consistency ``f(v, ψ(r(v))) = φ(v)``, and a
  ``φ``-stability shadow — if no eviction occurred since the oracle last
  saw ``v``, its frame cannot have moved (stable allocation, Section 3);
* **deep sweeps** (every *deep_every* accesses and at the end of every
  replay): capacity bounds ``|T| ≤ ℓ`` and ``|A| ≤ m``, bucket occupancy
  ``≤ B``, and the algorithm's own full structural self-check
  (``ψ``/``φ`` agreement over the whole active set, injectivity, policy
  bookkeeping).

:class:`ValidatingMM` packages the oracle as a drop-in wrapper: replaying a
trace through ``ValidatingMM(mm)`` produces bit-identical costs (the
ledger is shared with the wrapped algorithm) plus validation. Wire it in
via ``simulate(..., validate=True)``, ``SimTask(validate=True)`` for
sharded grids, or the ``repro check`` CLI sweep.
"""

from __future__ import annotations

from .._util import as_int_list, check_positive_int
from ..mmu.base import MemoryManagementAlgorithm, MMInspector

__all__ = ["InvariantViolation", "InvariantOracle", "ValidatingMM"]

#: deep-sweep cadence when the caller does not choose one.
DEFAULT_DEEP_EVERY = 4096


class InvariantViolation(AssertionError):
    """A structural invariant failed during a validated replay.

    Parameters
    ----------
    invariant:
        Machine-readable name (``"decode-consistency"``, ``"tlb-capacity"``,
        …) — tests assert on it.
    message:
        Human-readable description of the breakage.
    algorithm / t / vpn:
        The offending run's algorithm name, access index within the current
        phase, and the virtual page being serviced (None for deep sweeps
        not tied to one page).
    snapshot:
        Small state snapshot at failure time (occupancies + ledger).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        algorithm: str | None = None,
        t: int | None = None,
        vpn: int | None = None,
        snapshot: dict | None = None,
    ) -> None:
        self.invariant = invariant
        self.algorithm = algorithm
        self.t = t
        self.vpn = vpn
        self.snapshot = snapshot or {}
        where = f" at t={t}" if t is not None else ""
        page = f" vpn={vpn}" if vpn is not None else ""
        alg = f" [{algorithm}]" if algorithm else ""
        super().__init__(f"{invariant}{alg}{where}{page}: {message}")


class InvariantOracle:
    """Shadow model of ``(T, A, φ, f)`` replayed against a live algorithm.

    The oracle does not reimplement the algorithm; it audits it. Cheap
    coherence checks run on every access, full structural sweeps every
    *deep_every* accesses (``0`` disables periodic sweeps; :meth:`deep_check`
    can still be called explicitly, e.g. at the end of a replay).
    """

    def __init__(
        self, mm: MemoryManagementAlgorithm, *, deep_every: int | None = None
    ) -> None:
        if deep_every is None:
            deep_every = DEFAULT_DEEP_EVERY
        elif deep_every != 0:
            check_positive_int(deep_every, "deep_every")
        self.mm = mm
        self.inspector = ins = mm.inspector()
        self.deep_every = deep_every
        #: accesses validated (across resets — the oracle never resets).
        self.accesses_checked = 0
        #: deep sweeps executed.
        self.deep_checks = 0
        # φ-stability shadow: vpn -> (frame, eviction count when recorded).
        # If the eviction counter has not moved since the entry was
        # recorded, the page cannot have left A, so its frame must match.
        self._phi_shadow: dict[int, tuple[int, int]] = {}
        self._placement = ins.models_placement()
        # per-access queries bound once (each reads live state); mm.access
        # is looked up per call, so a wrapper installed later is audited
        self._evictions, self._covers = mm._eviction_count, ins.tlb_covers
        self._frame_of, self._decode, self._is_failed = ins.frame_of, ins.decode, ins.is_failed
        self._quantum, self._max_io = ins.io_quantum, ins.max_io_per_access

    # ------------------------------------------------------------ validation

    def check_access(self, vpn: int) -> None:
        """Service *vpn* through the wrapped algorithm, then audit it."""
        mm = self.mm
        ledger = mm.ledger
        accesses0 = ledger.accesses
        hits0 = ledger.tlb_hits
        misses0 = ledger.tlb_misses
        ios0 = ledger.ios
        ev0 = self._evictions()

        mm.access(vpn)

        t = ledger.accesses - 1
        if t != accesses0:
            self._fail(
                "ledger-coherence",
                f"accesses moved {accesses0} -> {ledger.accesses} on one request",
                t=t, vpn=vpn,
            )
        hit = ledger.tlb_hits - hits0
        miss = ledger.tlb_misses - misses0
        if hit + miss != 1 or hit < 0 or miss < 0:
            self._fail(
                "ledger-coherence",
                "expected exactly one TLB outcome per request "
                f"(hits {hits0}->{ledger.tlb_hits}, misses {misses0}->{ledger.tlb_misses})",
                t=t, vpn=vpn,
            )
        io_delta = ledger.ios - ios0
        if io_delta < 0 or io_delta % self._quantum:
            self._fail(
                "io-accounting",
                f"IO delta {io_delta} is not a multiple of the quantum {self._quantum}",
                t=t, vpn=vpn,
            )
        if self._max_io is not None and io_delta > self._max_io:
            self._fail(
                "io-accounting",
                f"IO delta {io_delta} exceeds the per-access bound {self._max_io}",
                t=t, vpn=vpn,
            )
        ev = self._evictions()
        if ev < ev0:
            self._fail(
                "eviction-coherence",
                f"eviction counter went backwards ({ev0} -> {ev})", t=t, vpn=vpn,
            )

        if self._covers(vpn) is False:
            self._fail(
                "tlb-coverage",
                "the just-serviced page's translation unit is not TLB-resident",
                t=t, vpn=vpn,
            )
        if self._placement:
            # decode-consistency and φ-stability for the page just serviced
            frame = self._frame_of(vpn)
            decoded = self._decode(vpn)
            if self._is_failed(vpn):
                if frame is not None or decoded is not None:
                    self._fail(
                        "failure-set",
                        f"failed page has φ={frame}, f={decoded} (both must be absent)",
                        t=t, vpn=vpn,
                    )
            else:
                if frame is None:
                    self._fail(
                        "placement",
                        "serviced page is neither placed nor in the failure set",
                        t=t, vpn=vpn,
                    )
                if decoded != frame:
                    self._fail(
                        "decode-consistency",
                        f"f(v, ψ(r(v))) = {decoded} but φ(v) = {frame}", t=t, vpn=vpn,
                    )
                shadow = self._phi_shadow.get(vpn)
                if shadow is not None and shadow[1] == ev and shadow[0] != frame:
                    self._fail(
                        "phi-stability",
                        f"frame moved {shadow[0]} -> {frame} with no eviction in between",
                        t=t, vpn=vpn,
                    )
                self._phi_shadow[vpn] = (frame, ev)

        self.accesses_checked += 1
        if self.deep_every and self.accesses_checked % self.deep_every == 0:
            self.deep_check(t=t)

    # ------------------------------------------------------- asid invariants

    def check_asid_isolation(self, stride: int, asid: int, vpns) -> None:
        """φ-isolation: a tenant-local request stream stays in its slice.

        *vpns* are tenant-local page numbers about to be (or just) serviced
        under *asid*; every one must fall in ``[0, stride)``, else the
        striding contract would install a translation in another tenant's
        slice. O(len) on a numpy trace (one min/max pair).
        """
        if len(vpns) == 0:
            return
        if hasattr(vpns, "min"):
            lo, hi = int(vpns.min()), int(vpns.max())
        else:
            lo, hi = min(vpns), max(vpns)
        if lo < 0 or hi >= stride:
            bad = lo if lo < 0 else hi
            self._fail(
                "phi-isolation",
                f"asid {asid} requested local page {bad} outside its "
                f"slice of {stride} pages",
                vpn=bad,
            )

    def check_asid_coverage(self, stride: int, live_asids, t: int | None = None) -> None:
        """ASID-coverage: every resident translation lies in a live slice.

        Audits the inspector's :meth:`~repro.mmu.MMInspector.translation_spans`
        surface (skipped when the algorithm does not enumerate its TLB):
        no unit straddles a slice boundary, and no unit belongs to an ASID
        outside *live_asids* — i.e. shootdowns never leave stale entries.
        """
        spans = self.inspector.translation_spans()
        if spans is None:
            return
        live = set(live_asids)
        for lo, hi in spans:
            asid = lo // stride
            if (hi - 1) // stride != asid:
                self._fail(
                    "asid-coverage",
                    f"translation unit [{lo}, {hi}) straddles the slice "
                    f"boundary at stride {stride}",
                    t=t, vpn=lo,
                )
            if asid not in live:
                self._fail(
                    "asid-coverage",
                    f"stale translation unit [{lo}, {hi}) for dead asid "
                    f"{asid} (shootdown missed it)",
                    t=t, vpn=lo,
                )

    def deep_check(self, t: int | None = None) -> None:
        """Full structural sweep (capacities, buckets, self-checks)."""
        ins = self.inspector
        self.deep_checks += 1
        tlb_len = ins.tlb_entries()
        if (
            tlb_len is not None
            and ins.tlb_capacity is not None
            and tlb_len > ins.tlb_capacity
        ):
            self._fail(
                "tlb-capacity", f"|T| = {tlb_len} exceeds ℓ = {ins.tlb_capacity}", t=t
            )
        ram_pages = ins.ram_pages_resident()
        if (
            ram_pages is not None
            and ins.ram_page_capacity is not None
            and ram_pages > ins.ram_page_capacity
        ):
            self._fail(
                "ram-capacity",
                f"|A| = {ram_pages} pages exceeds m = {ins.ram_page_capacity}",
                t=t,
            )
        occupancy = ins.bucket_occupancy()
        if occupancy is not None:
            load, cap = occupancy
            if load > cap:
                self._fail(
                    "bucket-capacity",
                    f"max bucket load {load} exceeds B = {cap}", t=t,
                )
        try:
            ins.deep_check()
        except InvariantViolation:
            raise
        except AssertionError as exc:
            self._fail("structural", str(exc) or type(exc).__name__, t=t)

    # ------------------------------------------------------------- internals

    def _fail(self, invariant, message, *, t=None, vpn=None) -> None:
        raise InvariantViolation(
            invariant,
            message,
            algorithm=self.mm.name,
            t=t,
            vpn=vpn,
            snapshot=self._snapshot(),
        )

    def _snapshot(self) -> dict:
        ins = self.inspector
        return {
            "tlb_entries": ins.tlb_entries(),
            "tlb_capacity": ins.tlb_capacity,
            "ram_pages": ins.ram_pages_resident(),
            "ram_page_capacity": ins.ram_page_capacity,
            "evictions": ins.evictions(),
            "bucket_occupancy": ins.bucket_occupancy(),
            "ledger": self.mm.ledger.as_dict(),
        }


class ValidatingMM(MemoryManagementAlgorithm):
    """Drop-in wrapper replaying every request under the invariant oracle.

    Costs are bit-identical to the wrapped algorithm's (the ledger is
    shared), so a validated run can replace an unvalidated one anywhere —
    sweeps, probes, and interval metrics all see the same numbers. The
    first violated invariant raises :class:`InvariantViolation`.

    Parameters
    ----------
    inner:
        The algorithm to validate.
    deep_every:
        Full-sweep cadence in accesses; ``None`` uses the default
        (:data:`DEFAULT_DEEP_EVERY`), ``0`` restricts deep sweeps to the
        end of each :meth:`run` call.
    """

    def __init__(
        self,
        inner: MemoryManagementAlgorithm,
        *,
        deep_every: int | None = None,
    ) -> None:
        if isinstance(inner, ValidatingMM):
            raise TypeError("refusing to validate a ValidatingMM (already validated)")
        super().__init__()
        self.inner = inner
        self.name = f"validated:{inner.name}"
        self.ledger = inner.ledger  # shared: identical costs, one source of truth
        self.oracle = InvariantOracle(inner, deep_every=deep_every)

    def access(self, vpn: int) -> None:
        self.oracle.check_access(vpn)

    def _replay(self, trace) -> None:
        check = self.oracle.check_access
        for vpn in as_int_list(trace):
            check(vpn)

    def run(self, trace):
        ledger = super().run(trace)
        # end-of-replay sweep: even with deep_every=0 every run is audited
        self.oracle.deep_check()
        return ledger

    def _eviction_count(self) -> int:
        return self.inner._eviction_count()

    def inspector(self) -> MMInspector:
        return self.inner.inspector()

    def reset_stats(self) -> None:
        self.inner.reset_stats()

    # asid contract: stride bookkeeping lives on the inner algorithm (its
    # access() is the one replayed), mirrored here so run_asid/access_asid
    # on the wrapper stride identically.
    def translation_alignment(self) -> int:
        return self.inner.translation_alignment()

    def bind_asid_space(self, va_pages: int) -> int:
        self.asid_stride = self.inner.bind_asid_space(va_pages)
        return self.asid_stride

    def shootdown(self, lo: int, hi: int) -> int:
        return self.inner.shootdown(lo, hi)

    def attribution_sites(self) -> tuple:
        # miss-attribution ghosts belong on the inner algorithm's real
        # structures — the wrapper adds no caches of its own
        return self.inner.attribution_sites()

    def check_invariants(self) -> None:
        """Explicit full sweep (mirrors the inner algorithms' helpers)."""
        self.oracle.deep_check()
