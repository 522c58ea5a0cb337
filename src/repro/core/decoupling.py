"""The huge-page decoupling scheme (paper Section 3).

A decoupling scheme glues together three parts:

* a **RAM-allocation scheme** choosing ``φ(v)`` (here: any
  :class:`~repro.core.allocation.RAMAllocationScheme`);
* a **TLB-encoding scheme** maintaining the ``w``-bit value ``ψ(u)`` of
  every virtual huge page ``u`` (here: a
  :class:`~repro.core.encoding.TLBValueCodec` plus a hash map from huge
  pages to their current value — the constant-time bookkeeping of
  Theorem 1's proof);
* a **TLB-decoding function** ``f(v, ψ(u))`` returning ``φ(v)`` when
  ``v ∈ A`` and −1 otherwise — eq. (4).

The scheme is *driven* by two oblivious input policies: the
RAM-replacement policy (which pages are in the active set ``A``) and the
TLB-replacement policy (which huge pages are in ``T``). Those policies call
the ``ram_insert`` / ``ram_evict`` / ``tlb_insert`` / ``tlb_evict`` hooks;
the scheme never second-guesses them.

Pages the allocator cannot place join the failure set ``F`` (they are in
``A`` from the replacement policy's point of view but hold no frame); a
failure lasts until the replacement policy evicts the page, exactly as the
paper specifies.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable

import numpy as np

from .allocation import RAMAllocationScheme
from .encoding import TLBValueCodec

__all__ = ["DecouplingScheme", "NOT_PRESENT"]

#: Sentinel returned by the decoding function for pages not in RAM.
NOT_PRESENT = -1

#: inserts per allocator bulk pass in :meth:`DecouplingScheme.apply_events`;
#: bounds the Python lists one pass builds (speed only: results are exact).
_BULK_CHUNK = 8192


class DecouplingScheme:
    """Maintains ``φ``, ``ψ``, and the failure set ``F`` under policy events.

    Parameters
    ----------
    allocator:
        The RAM-allocation scheme (owns ``φ``).
    codec:
        The value codec; ``codec.hmax`` fixes the huge-page size.
    on_value_update:
        Optional callback ``(hpn, value)`` fired whenever ``ψ(u)`` changes
        for a huge page currently in ``T`` — the hook a hardware TLB uses
        to refresh its resident entry (a free operation in the cost model).
    """

    def __init__(
        self,
        allocator: RAMAllocationScheme,
        codec: TLBValueCodec,
        on_value_update: Callable[[int, int], None] | None = None,
    ) -> None:
        if codec.max_code < allocator.associativity - 1:
            raise ValueError(
                f"codec fields ({codec.field_bits} bits, max code {codec.max_code}) "
                f"cannot address associativity {allocator.associativity}"
            )
        self.allocator = allocator
        self.codec = codec
        self.hmax = codec.hmax
        # field geometry for inline ψ edits; the check above already bounds
        # every allocator code by the field width, so no per-field check
        self._field_bits = codec.field_bits
        self._field_mask = codec.max_code + 1
        self.on_value_update = on_value_update
        # ψ(u) for every huge page with at least one present page; absent
        # entries implicitly hold codec.empty. This map is what makes the
        # scheme constant-time: a TLB insert just reads one dict entry.
        self._psi: dict[int, int] = {}
        self._tlb_resident: set[int] = set()  # T
        self._failed: set[int] = set()  # F
        self._active: set[int] = set()  # A (placed pages ∪ F)

    # ----------------------------------------------------------- RAM events

    def ram_insert(self, vpn: int) -> int | None:
        """RAM-replacement policy added *vpn* to ``A``; place it.

        Returns the frame, or None on a paging failure (the page joins
        ``F`` and stays in ``A`` unplaced).
        """
        if vpn in self._active:
            raise ValueError(f"vpn {vpn} is already active")
        self._active.add(vpn)
        placed = self.allocator.place(vpn)
        if placed is None:
            self._failed.add(vpn)
            return None
        frame, code = placed
        hpn, idx = divmod(vpn, self.hmax)
        shift = idx * self._field_bits
        value = self._psi.get(hpn, 0) & ~(self._field_mask << shift) | (code + 1) << shift
        self._psi[hpn] = value
        if self.on_value_update is not None and hpn in self._tlb_resident:
            self.on_value_update(hpn, value)
        return frame

    def ram_evict(self, vpn: int) -> None:
        """RAM-replacement policy removed *vpn* from ``A``."""
        self._active.remove(vpn)  # raises KeyError if not active
        if vpn in self._failed:
            self._failed.remove(vpn)  # the failure ends with the eviction
            return
        self.allocator.free(vpn)
        hpn, idx = divmod(vpn, self.hmax)
        value = self._psi.get(hpn, 0) & ~(self._field_mask << idx * self._field_bits)
        if value:
            self._psi[hpn] = value
        else:
            self._psi.pop(hpn, None)
        if self.on_value_update is not None and hpn in self._tlb_resident:
            self.on_value_update(hpn, value)

    def apply_events(self, inserts, evicts, first_evt: int = 0) -> int | None:
        """Bulk-apply an interleaved ``ram_evict``/``ram_insert`` stream.

        Equivalent to the per-event calls under the batch interleave
        convention (eviction ``k - first_evt`` immediately before insert
        ``k``). *inserts* and *evicts* are int lists or int arrays; the
        allocator replays them in bulk passes of ``_BULK_CHUNK`` inserts,
        which compose exactly like the per-event calls they stand for.
        Each pass commits A and F with set updates and ψ with array ops
        over its touched huge pages — a page placed and evicted five times
        in a pass costs one field update, not ten.

        ``on_value_update`` callbacks are not fired: callers owning a TLB
        must refresh resident values themselves (the array engine rebuilds
        them wholesale during state sync).

        Returns the index of the first failing insert — that insert is
        applied (the page joins ``F``) and everything after it is not —
        ``-1`` for a clean run, or None to decline: pre-existing failures
        (mid-stream evictions of unplaced pages need per-event handling)
        or an allocator without a bulk path.
        """
        if self._failed:
            return None
        bulk = getattr(self.allocator, "bulk_replay", None)
        if bulk is None:
            return None
        for k0 in range(0, max(len(inserts), 1), _BULK_CHUNK):
            k1 = k0 + _BULK_CHUNK
            f0 = max(0, first_evt - k0)
            out = bulk(
                inserts[k0:k1],
                evicts[max(0, k0 - first_evt) : max(0, k1 - first_evt)],
                f0,
            )
            if out is None:
                # no batch hook: a static property, so this can only
                # happen on the first pass, before anything was applied
                return None
            decisions, codes = out
            _, live, kept, dropped = decisions.split()
            self._active.update(kept)
            self._active.difference_update(dropped)
            self._commit_psi(decisions.balls, live, codes)
            failed = decisions.failed
            if failed >= 0:
                vpn = int(inserts[k0 + failed])
                self._active.add(vpn)
                self._failed.add(vpn)
                return k0 + failed
        return -1

    # ----------------------------------------------------------- TLB events

    def tlb_insert(self, hpn: int) -> int:
        """TLB-replacement policy added huge page *hpn* to ``T``; return ψ."""
        if hpn in self._tlb_resident:
            raise ValueError(f"huge page {hpn} is already in the TLB")
        self._tlb_resident.add(hpn)
        return self._psi.get(hpn, 0)

    def tlb_evict(self, hpn: int) -> None:
        """TLB-replacement policy removed huge page *hpn* from ``T``."""
        self._tlb_resident.remove(hpn)  # raises KeyError if absent

    # ------------------------------------------------------------- decoding

    def psi(self, hpn: int) -> int:
        """Current encoded value ``ψ(u)`` for huge page *hpn*."""
        return self._psi.get(hpn, 0)  # absent: codec.empty

    def f(self, vpn: int, value: int) -> int:
        """The TLB-decoding function of eq. (4).

        Pure given the scheme's hash seeds: recomputes the candidate bucket
        from *vpn* and the stored choice/slot code — one hash, the stored
        choice's. Returns the frame or :data:`NOT_PRESENT`.
        """
        raw = (value >> vpn % self.hmax * self._field_bits) & self._field_mask
        return self.allocator.decode(vpn, raw - 1) if raw else NOT_PRESENT

    def decode(self, vpn: int) -> int:
        """Translate *vpn* through the TLB: ``f(v, ψ(r(v)))``.

        Raises LookupError if *vpn*'s huge page is not in ``T`` (a real TLB
        would simply miss; callers model that separately).
        """
        hpn = vpn // self.hmax
        if hpn not in self._tlb_resident:
            raise LookupError(f"huge page {hpn} is not in the TLB")
        return self.f(vpn, self.psi(hpn))

    # -------------------------------------------------------------- queries

    @property
    def active_set(self) -> frozenset[int]:
        """The active set ``A`` (placed pages plus failures)."""
        return frozenset(self._active)

    @property
    def tlb_set(self) -> frozenset[int]:
        """The TLB set ``T``."""
        return frozenset(self._tlb_resident)

    @property
    def failure_set(self) -> frozenset[int]:
        """The failure set ``F ⊆ A``."""
        return frozenset(self._failed)

    def is_failed(self, vpn: int) -> bool:
        return vpn in self._failed

    def frame_of(self, vpn: int) -> int | None:
        """``φ(v)`` — the frame of *vpn*, or None (not active, or failed)."""
        return self.allocator.frame_of(vpn)

    # ------------------------------------------------------------ internals

    def _commit_psi(self, pages: np.ndarray, placed: np.ndarray, codes: np.ndarray) -> None:
        """Rewrite ψ of the huge pages holding *pages* (ascending): clear
        every page's field, then set the *placed* ones to their location
        *codes* — one array pass instead of a call per field.  Values fit
        ``uint64`` whenever ``hmax · field_bits <= 64``; wider ones use
        Python ints."""
        if not pages.size:
            return
        bits = self.codec.field_bits
        dtype = np.uint64 if self.hmax * bits <= 64 else object
        hpns, idx = np.divmod(pages, self.hmax)
        shift = (idx * bits).astype(dtype)
        heads = np.flatnonzero(np.r_[True, hpns[1:] != hpns[:-1]])
        field_mask = np.full(pages.size, self._field_mask, dtype=dtype)
        clear = np.bitwise_or.reduceat(np.left_shift(field_mask, shift), heads)
        fields = np.where(placed, codes + 1, 0).astype(dtype)
        value = np.bitwise_or.reduceat(np.left_shift(fields, shift), heads)
        hpns = hpns[heads]
        old = np.fromiter(map(self._psi.get, hpns.tolist(), repeat(0)), dtype, hpns.size)
        new = (old & ~clear) | value
        present = new != 0
        self._psi.update(zip(hpns[present].tolist(), new[present].tolist()))
        pop = self._psi.pop
        for hpn in hpns[~present].tolist():
            pop(hpn, None)

    # ------------------------------------------------------------ validation

    def check_invariants(self) -> None:
        """Assert the Section 3 requirements hold (test/debug helper).

        * ``F ⊆ A``;
        * ``φ`` is injective over placed pages;
        * eq. (4): for every active page whose huge page we probe,
          ``f(v, ψ(r(v)))`` equals ``φ(v)`` (or −1 for failed pages), and
          non-active covered pages decode to −1.
        """
        assert self._failed <= self._active, "F must be a subset of A"
        frame_of, f, psi, hmax = self.allocator.frame_of, self.f, self._psi.get, self.hmax
        failed = self._failed
        frames: dict[int, int] = {}
        for vpn in self._active:
            frame = frame_of(vpn)
            if vpn in failed:
                assert frame is None
                continue
            assert frame is not None, f"active page {vpn} has no frame"
            assert frame not in frames, (
                f"φ not injective: frame {frame} held by {frames[frame]} and {vpn}"
            )
            frames[frame] = vpn
            decoded = f(vpn, psi(vpn // hmax, 0))
            assert decoded == frame, f"f({vpn}) = {decoded} != φ = {frame}"
        # every present ψ field must correspond to an active, placed page
        placed = self._active - failed
        for hpn, value in self._psi.items():
            for idx, _code in self.codec.present_fields(value):
                vpn = hpn * hmax + idx
                assert vpn in placed, f"ψ field set for non-present page {vpn}"
