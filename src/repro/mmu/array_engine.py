"""Struct-of-arrays batch simulation engine.

The object engine replays traces access by access through ``PageCache`` /
``TLB`` objects; this module replays whole trace segments as numpy array
passes and synchronizes the object state once per segment, so counters,
replacement order, and clocks come out bit-identical to the object engine
(CI's engine-parity job enforces this on the golden streams).

The core identity: an LRU cache of capacity ``C`` hits access ``i`` iff
the *stack distance* — the number of distinct keys strictly between the
previous occurrence ``p`` of the same key and ``i`` — is below ``C``.
Stack distances reduce to 2-D dominance counts over the next-occurrence
chain ``nxt``::

    d(i) = D(i) - rank2(p, i)
    rank2(p, v) = #{j <= p : nxt[j] >= v} = (p + 1) - count_less(p, v)

where ``D(i)`` counts distinct keys before ``i``.  :class:`StreamKernel`
resolves ``d(i) < C`` for every access with a cascade of cheap pruning
passes, each exact:

1. ``gap <= C`` is a sure hit (the window cannot hold ``C`` distinct);
2. first occurrences are sure misses;
3. ``D(i) - D(p) >= C`` is a sure miss (global first occurrences inside
   the window are all distinct there);
4. fixed-width sliding-window distinct counts ``DW_w`` (one ``bincount``
   plus a ``cumsum`` per width) bracket ``d`` because windows nest:
   ``DW_w(i-1) <= d <= DW_w'(i-1)`` for ``w <= gap-1 <= w'``;
5. survivors with narrow windows are scanned directly; wide survivors go
   through a blocked dominance grid (2-D prefix-sum checkpoint matrix)
   with per-block edge scans.

Eviction *order* falls out of the same arrays: a position dies iff its
key's next occurrence is a miss (or it ages out of the final top-``C``),
and death positions sorted ascending are exactly the eviction sequence —
so schemes with eviction side effects (write-back flushes, decoupled
allocator frees) replay only their rare events through the object code.

Handlers cover BasePageMM / PhysicalHugePageMM (pure counter folds),
WritebackHugePageMM (vectorized store sampling + dirty-at-eviction
replay), NestedTranslationMM (the 2-D walk becomes a derived LRU stream
over page-table node keys), and DecoupledMM / HybridMM (RAM misses
replayed sparsely through the real scheme; a paging failure mid-segment
bails out to the object engine with state synchronized at the failing
access).  THPStyleMM stays on the object engine: promotion migrates
frames through a real allocator whose fragmentation is inherently
sequential.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..paging import LRUPolicy, PageCache
from ..tlb import TLB

__all__ = ["StreamKernel", "try_run", "supports"]

# Tuning knobs (speed only; every path is exact).  A segment is batched
# only when it holds at least _MIN_BATCH accesses and at least as many
# accesses as the RAM cache has residents: seeding the kernel and syncing
# the caches back cost O(residents) per call, which shorter segments do
# not amortize against the object engine's per-access loop.  Streams
# whose ambiguous set after pruning exceeds _DENSE_AMB get the
# sliding-window ladder; survivors with windows narrower than _SCAN_MAX
# are scanned directly; the dominance grid uses square blocks of at least
# _BT positions (and at least sqrt(n), so its matrices stay O(n)).
_MIN_BATCH = 256
_DENSE_AMB = 4000
_SCAN_MAX = 640
_LADDER_STEPS = 9  # widths C * 2**(k/4), k = 0 .. _LADDER_STEPS-1
_BT = 128
# Memory knob: the direct scan and the grid's edge scans build query x
# window matrices in batches of at most _SCAN_CELLS cells.
_SCAN_CELLS = 1 << 18


class StreamKernel:
    """Exact batch LRU simulation of one integer key stream.

    Parameters
    ----------
    keys:
        Integer array of cache keys, one per access.
    prefix:
        Keys resident before the segment, oldest first (the LRU order of
        a warm cache).  They are modeled as pseudo-accesses before the
        stream and excluded from the counters.
    """

    def __init__(self, keys, prefix=()) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        prefix = np.asarray(prefix, dtype=np.int64)
        self.R = R = prefix.size
        self.n0 = keys.size
        self.n = n = R + self.n0
        allkeys = np.concatenate([prefix, keys]) if R else keys
        self.keys = allkeys
        # group positions by key with one sort of ``key * n + pos``: keys
        # are shifted to start at 0, or replaced by dense ranks when their
        # span would overflow int64
        lo = int(allkeys.min()) if n else 0
        span = int(allkeys.max()) - lo + 1 if n else 1
        if span * n < 2**63:
            ak = allkeys - np.int64(lo)
        else:
            ak = np.unique(allkeys, return_inverse=True)[1].reshape(-1)
            span = n
        dt = np.int32 if span * n < 2**31 else np.int64
        # ak is a fresh array: sort it in place, one stream-sized buffer
        comp = ak.astype(dt, copy=False)
        del ak
        comp *= dt(n)
        comp += np.arange(n, dtype=dt)
        comp.sort()
        spos = (comp % dt(n)).astype(np.int32)
        comp //= dt(n)  # the sorted keys
        w = np.flatnonzero(comp[1:] == comp[:-1])
        del comp
        prev = np.full(n, -1, dtype=np.int32)
        prev[spos[w + 1]] = spos[w]
        nxt = np.full(n, n, dtype=np.int32)
        ii = np.flatnonzero(prev >= 0).astype(np.int32)
        nxt[prev[ii]] = ii
        self.prev = prev
        self.nxt = nxt
        # blocks of at least sqrt(n) keep the checkpoint matrices O(n)
        self._bt = self._bv = max(_BT, 1 << (n.bit_length() + 1) // 2)
        self._ns = None
        self._grid = None
        self._hit: dict[int, np.ndarray] = {}

    # ------------------------------------------------------- DW ladder

    def _dw_width(self, w: int) -> np.ndarray:
        """``DW_w[j]`` = #distinct keys in ``[max(0, j-w+1), j]``.

        Position ``j`` is the first in-window occurrence of its key for
        window ends in ``[max(j, prev[j]+w), j+w)``; the window-end
        markers ``j+w`` form a shifted identity, so one bincount of the
        starts plus a ramp subtraction gives the whole array.
        """
        n = self.n
        pos = np.arange(n, dtype=np.int32)
        # first occurrences count for every window end >= j (their prev is
        # outside any window); repeats only once the window end passes
        # prev[j] + w
        starts = np.where(self.prev >= 0, np.maximum(pos, self.prev + np.int32(w)), pos)
        got = np.cumsum(np.bincount(starts, minlength=n)[:n], dtype=np.int32)
        del starts
        pos -= np.int32(w - 1)  # the ramp of window starts
        np.subtract(got, np.maximum(pos, np.int32(0)), out=got)
        return got

    def _ladder_bounds(self, amb: np.ndarray, gap: np.ndarray, C: int):
        """Bracket ``d`` for ambiguous queries between nested windows."""
        widths = sorted(
            {max(1, int(C * 2 ** (k / 4))) for k in range(_LADDER_STEPS)}
        )
        # only the widths bracketing the observed gap range can ever be
        # the tightest bound for some query; skip building the rest
        gmin = int(gap.min()) - 1
        gmax = int(gap.max()) - 1
        i0 = max(bisect.bisect_right(widths, gmin) - 1, 0)
        i1 = bisect.bisect_left(widths, gmax)
        widths = widths[i0 : i1 + 1]
        warr = np.asarray(widths, dtype=np.int64)
        gi = gap.astype(np.int64) - 1  # true window width of each query
        lo_idx = np.searchsorted(warr, gi, side="right") - 1
        hi_idx = np.searchsorted(warr, gi, side="left")
        lb = np.zeros(amb.size, dtype=np.int32)
        ub = np.full(amb.size, np.int32(2**30))
        # one width array alive at a time: each is as long as the stream
        for k, w in enumerate(widths):
            at = self._dw_width(w)[amb - 1]
            sel = lo_idx == k
            lb[sel] = at[sel]
            sel = hi_idx == k
            ub[sel] = at[sel]
        return lb, ub

    # ------------------------------------------------------ block grid

    def _ns_cumsum(self) -> np.ndarray:
        if self._ns is None:
            self._ns = np.cumsum(self.nxt < self.n, dtype=np.int32)
        return self._ns

    def _prepare_grid(self):
        if self._grid is None:
            n = self.n
            nxt = self.nxt
            bt, bv = self._bt, self._bv
            pj = np.flatnonzero(nxt < n).astype(np.int32)
            pv = nxt[pj]
            ntb = (n + bt - 1) // bt
            nvb = (n + bv - 1) // bv
            tb = pj // bt
            vb = pv // bv
            M = np.bincount(tb.astype(np.int64) * nvb + vb, minlength=ntb * nvb)
            Acol = (
                M.astype(np.int32).reshape(ntb, nvb).cumsum(axis=0, dtype=np.int32)
            )
            A = Acol.cumsum(axis=1, dtype=np.int32)
            # A[a, b] = #points with pj < (a+1)*BT and pv < (b+1)*BV;
            # Acol keeps the time-only prefix for the bucket-edge bound.
            comp2 = vb.astype(np.int64) * n + pj
            comp2.sort()
            mvb = (comp2 // n).astype(np.int32)
            marr = (comp2 - mvb.astype(np.int64) * n).astype(np.int32)
            bpop = np.bincount(mvb, minlength=nvb).astype(np.int32)
            bstart = np.cumsum(bpop, dtype=np.int32) - bpop
            # nxt is injective where defined, so each value block holds
            # at most bv members — the padded matrices stay small.
            maxpop = int(bpop.max(initial=0))
            col = np.arange(len(marr), dtype=np.int32) - bstart[mvb]
            PJB = np.full((nvb, max(maxpop, 1)), n, dtype=np.int32)
            PVB = np.full((nvb, max(maxpop, 1)), n, dtype=np.int32)
            PJB[mvb, col] = marr
            PVB[mvb, col] = nxt[marr]
            # per-time-block rows of nxt (pad n: never < any query value)
            NB = np.full(ntb * bt, n, dtype=np.int32)
            NB[:n] = nxt
            NB = NB.reshape(ntb, bt)
            self._grid = (A, Acol, PJB, PVB, NB)
        return self._grid

    def _grid_bounds(self, p: np.ndarray, v: np.ndarray):
        """Bounds on ``count_less(p, v) = #{j <= p : nxt[j] < v}``."""
        A, Acol, PJB, PVB, NB = self._prepare_grid()
        tb = p // self._bt
        vbq = v // self._bv
        low = np.zeros(p.size, dtype=np.int32)
        ok = (tb > 0) & (vbq > 0)
        low[ok] = A[tb[ok] - 1, vbq[ok] - 1]
        # slack: non-sentinels in the partial time block [tb*BT, p], plus
        # members of value block vbq in earlier full time blocks
        ns = self._ns_cumsum()
        e_t = ns[p].copy()
        nz = tb > 0
        e_t[nz] -= ns[tb[nz] * self._bt - 1]
        e_v = np.zeros(p.size, dtype=np.int32)
        e_v[nz] = Acol[tb[nz] - 1, vbq[nz]]  # Acol is per-value-block
        return low, low + e_t + e_v

    def _grid_exact(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Exact ``count_less`` for the queries the bounds left open."""
        A, Acol, PJB, PVB, NB = self._prepare_grid()
        tb = p // self._bt
        vbq = v // self._bv
        out = np.zeros(p.size, dtype=np.int32)
        ok = (tb > 0) & (vbq > 0)
        out[ok] = A[tb[ok] - 1, vbq[ok] - 1]
        t0 = tb * np.int32(self._bt)
        ar = np.arange(self._bt, dtype=np.int32)
        step = max(1, _SCAN_CELLS // (self._bt + PJB.shape[1]))
        for lo in range(0, p.size, step):
            s = slice(lo, lo + step)
            vcol = v[s, None]
            ts = t0[s]
            # partial time block [t0, p]: members with nxt < v (pads
            # excluded), then value block vbq: members with pj < t0, pv < v
            out[s] += np.sum(
                (ar <= (p[s] - ts)[:, None]) & (NB[tb[s]] < vcol),
                axis=1,
                dtype=np.int32,
            )
            out[s] += np.sum(
                (PJB[vbq[s]] < ts[:, None]) & (PVB[vbq[s]] < vcol),
                axis=1,
                dtype=np.int32,
            )
        return out

    # ----------------------------------------------------- direct scan

    def _scan_exact(self, q: np.ndarray) -> np.ndarray:
        """Exact ``d`` for narrow windows by counting first-in-window
        positions ``j`` in ``(p, i)`` (those with ``prev[j] <= p``),
        batched by window width so one wide straggler can't pad every
        row, and so no batch holds more than ``_SCAN_CELLS`` cells."""
        p = self.prev[q]
        width = q - p - 1
        out = np.empty(q.size, dtype=np.int32)
        order = np.argsort(width, kind="stable")
        sw = np.maximum(width[order], 1)
        lo = 0
        while lo < order.size:
            # rows * (widest row) grows with the batch: take the longest
            # prefix of the width-sorted rest that stays within budget
            head = sw[lo : lo + 2048]
            cells = np.arange(1, head.size + 1) * head
            hi = lo + max(1, int(np.searchsorted(cells, _SCAN_CELLS, side="right")))
            wmax = int(sw[hi - 1])
            sel = order[lo:hi]
            ps = p[sel]
            W = ps[:, None] + np.arange(1, wmax + 1, dtype=np.int32)
            valid = W < q[sel][:, None]
            np.clip(W, 0, self.n - 1, out=W)
            out[sel] = np.sum(
                valid & (self.prev[W] <= ps[:, None]), axis=1, dtype=np.int32
            )
            lo = hi
        return out

    # ------------------------------------------------------------ API

    def hit_mask(self, C: int) -> np.ndarray:
        """Boolean hit mask per position (prefix pseudo-accesses included)."""
        got = self._hit.get(C)
        if got is not None:
            return got
        prev = self.prev
        gap = np.arange(self.n, dtype=np.int32) - prev  # prev = -1: gap = i + 1
        nonfirst = prev >= 0
        # D[i] = #global first occurrences in [0, i]; for a non-first
        # position i this equals the number of distinct keys in [0, i).
        D = np.cumsum(~nonfirst, dtype=np.int32)
        hit = nonfirst & (gap <= C)
        amb = np.flatnonzero(nonfirst & (gap > C)).astype(np.int32)
        if amb.size:
            d_lb = D[amb] - D[prev[amb]]
            amb = amb[d_lb < C]
        if amb.size > _DENSE_AMB:
            lb, ub = self._ladder_bounds(amb, gap[amb], C)
            hit[amb[ub < C]] = True
            amb = amb[(lb < C) & (ub >= C)]
        if amb.size:
            narrow = gap[amb] - 1 <= _SCAN_MAX
            nq = amb[narrow]
            if nq.size:
                hit[nq[self._scan_exact(nq) < C]] = True
            wq = amb[~narrow]
            if wq.size:
                p = prev[wq]
                off = D[wq] - (p + 1)  # d = off + count_less
                lo, hi = self._grid_bounds(p, wq)
                hit[wq[off + hi < C]] = True
                oq = wq[(off + lo < C) & (off + hi >= C)]
                if oq.size:
                    cl = self._grid_exact(prev[oq], oq)
                    d = D[oq] - (prev[oq] + 1) + cl
                    hit[oq[d < C]] = True
        # the grid only serves this pass: free it now
        self._ns = self._grid = None
        self._hit[C] = hit
        return hit

    def counts(self, C: int) -> tuple[int, int]:
        """``(hits, misses)`` over the real (non-prefix) accesses."""
        hits = int(np.count_nonzero(self.hit_mask(C)[self.R :]))
        return hits, self.n0 - hits

    def evictions(self, C: int) -> int:
        """Total demand evictions: inserts past capacity."""
        _, misses = self.counts(C)
        return max(0, self.R + misses - C)

    def final_residents(self, C: int) -> np.ndarray:
        """Resident keys at segment end, oldest first (LRU order)."""
        alive = np.flatnonzero(self.nxt == self.n)
        if alive.size > C:
            alive = alive[-C:]
        return self.keys[alive]

    def deaths(self, C: int) -> np.ndarray:
        """Positions whose residency ends in an eviction, ascending.

        Ascending death positions are the eviction sequence itself:
        ``keys[deaths(C)[e]]`` is the ``e``-th eviction's victim, because
        under LRU victims' last-access positions strictly increase over
        the run.
        """
        n = self.n
        nxt = self.nxt
        hm = self.hit_mask(C)
        inner = nxt < n
        dies = np.zeros(n, dtype=bool)
        dies[inner] = ~hm[nxt[inner]]
        last = np.flatnonzero(~inner)
        if last.size > C:
            dies[last[:-C]] = True
        return np.flatnonzero(dies)

    def miss_positions(self, C: int) -> np.ndarray:
        """Global positions (prefix coordinates included) of real misses."""
        return np.flatnonzero(~self.hit_mask(C)[self.R :]) + self.R

    def residents_at(self, C: int, T: int) -> np.ndarray:
        """Resident keys just before global position ``T``, oldest first."""
        alive = np.flatnonzero(self.nxt[:T] >= T)
        if alive.size > C:
            alive = alive[-C:]
        return self.keys[alive]


# ---------------------------------------------------------------------------
# object-state synchronization helpers
# ---------------------------------------------------------------------------


def _plain_lru(cache) -> bool:
    return type(cache.policy) is LRUPolicy


def _exact_int64(values):
    """*values* as a 1-D int64 array, or None when they are not integers
    that int64 holds exactly (floats, bools, objects, uint64 values of
    2**63 and above). Such traces, and caches such a trace left behind,
    stay on the object engine, which keys its caches on the values exactly
    as given."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        return None
    if arr.size == 0:
        return arr.astype(np.int64)
    kind = arr.dtype.kind
    if kind == "u":
        if arr.dtype.itemsize == 8 and arr.max() > np.iinfo(np.int64).max:
            return None
    elif kind != "i":
        return None
    return arr.astype(np.int64, copy=False)


def _lru_prefix(cache):
    """Current residents oldest-first — the kernel's warm-start prefix —
    or None when a resident key is not an exact int64."""
    return _exact_int64(list(cache.policy._order))


def _refill(order, keys) -> None:
    """Replace the contents of an LRU ``OrderedDict`` in place, oldest
    first (no intermediate dict: the caches can hold ~10^5 keys)."""
    order.clear()
    for key in keys:
        order[key] = None


def _sync_cache(cache: PageCache, kernel: StreamKernel, C: int) -> None:
    """Move a PageCache + LRUPolicy to the kernel's end-of-segment state."""
    hits, misses = kernel.counts(C)
    cache.hits += hits
    cache.misses += misses
    cache.evictions += kernel.evictions(C)
    cache._clock += kernel.n0
    _refill(cache.policy._order, kernel.final_residents(C).tolist())


# ---------------------------------------------------------------------------
# per-algorithm handlers
# ---------------------------------------------------------------------------


def _unit_stream(trace: np.ndarray, unit: int) -> np.ndarray:
    if unit == 1:
        return trace
    if unit & (unit - 1) == 0:
        return trace >> (unit.bit_length() - 1)
    return trace // unit


def _replay_ghost(ghost, kernel: StreamKernel, C: int) -> None:
    """Feed a miss-attribution ghost the cache's exact miss and eviction
    sequence, derived sparsely from the kernel's miss positions and death
    positions. The shared ``_SiteGhost.replay`` bulk path keeps the
    classification bit-identical to the object replay's per-access order:
    the first ``C - R`` misses fill free capacity, and every later miss
    evicts the next entry of the ascending death sequence."""
    mp = kernel.miss_positions(C)
    if mp.size == 0:
        return
    ghost.replay(
        kernel.keys[mp].tolist(), kernel.keys[kernel.deaths(C)].tolist()
    )


def _paged_fold(mm, trace: np.ndarray, h: int):
    """Shared TLB+RAM fold for the paged handlers (physical-huge, write-back,
    nested): both caches are LRU over the ``h``-page unit stream. Returns
    the TLB's miss indices into *trace* and the RAM kernel, whose miss and
    death sequences handlers reuse, or None (nothing changed) when a cache
    holds keys the kernel cannot seed. The TLB kernel is dropped before
    the RAM kernel is built, so only one stream-sized kernel is alive."""
    tp = _lru_prefix(mm.tlb)
    rp = _lru_prefix(mm.ram)
    if tp is None or rp is None:
        return None
    hpns = _unit_stream(trace, h)
    tC = mm.tlb.capacity
    rC = mm.ram.capacity
    ledger = mm.ledger
    ledger.accesses += len(trace)
    kern_t = StreamKernel(hpns, tp)
    t_hits, t_misses = kern_t.counts(tC)
    ledger.tlb_hits += t_hits
    ledger.tlb_misses += t_misses
    _sync_cache(mm.tlb, kern_t, tC)
    if mm.tlb._ghost is not None:
        _replay_ghost(mm.tlb._ghost, kern_t, tC)
    t_miss_idx = kern_t.miss_positions(tC) - kern_t.R
    # bench configs give TLB and RAM equal capacity: one kernel, one pass
    if tC == rC and np.array_equal(tp, rp):
        kern_r = kern_t
    else:
        del kern_t
        kern_r = StreamKernel(hpns, rp)
    ledger.ios += h * kern_r.counts(rC)[1]
    _sync_cache(mm.ram, kern_r, rC)
    if mm.ram._ghost is not None:
        _replay_ghost(mm.ram._ghost, kern_r, rC)
    return t_miss_idx, kern_r


def _run_hugepage(mm, trace: np.ndarray):
    if not (_plain_lru(mm.tlb) and _plain_lru(mm.ram)):
        return None
    if _paged_fold(mm, trace, mm.huge_page_size) is None:
        return None
    return mm.ledger


def _per_key_store_counts(keys: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """``sk[i]`` = stores to ``keys[i]`` in ``[0, i]`` (inclusive)."""
    order = np.argsort(keys, kind="stable")
    sk_sorted = keys[order]
    mk = marks[order].astype(np.int64)
    csum = np.cumsum(mk)
    idx = np.arange(order.size, dtype=np.int64)
    grp = np.empty(order.size, dtype=bool)
    grp[0] = True
    grp[1:] = sk_sorted[1:] != sk_sorted[:-1]
    gstart = np.maximum.accumulate(np.where(grp, idx, 0))
    sk = np.empty(order.size, dtype=np.int64)
    sk[order] = csum - (csum[gstart] - mk[gstart])
    return sk


def _run_writeback(mm, trace: np.ndarray):
    """Write-back: the paged fold plus store sampling and dirty flushes.

    ``Generator.random(n)`` draws the same sequence as ``n`` scalar
    calls, so the Bernoulli store model vectorizes without disturbing RNG
    parity (pinned by the engine-parity tests).  The ``e``-th eviction's
    victim comes from the kernel's death sequence; the victim is dirty
    iff a store hit it during its current residency — since its previous
    eviction, which cleared its dirty bit whether or not it flushed.
    """
    if not (_plain_lru(mm.tlb) and _plain_lru(mm.ram)):
        return None
    C = mm.ram.capacity
    h = mm.huge_page_size
    folded = _paged_fold(mm, trace, h)
    if folded is None:
        return None
    kern = folded[1]
    wf = mm.write_fraction
    marks = np.zeros(kern.n, dtype=bool)
    if wf:
        marks[kern.R :] = mm._rng.random(kern.n0) < wf
    # pages dirty at segment entry stay dirty until their next eviction:
    # mark their prefix pseudo-access as a store
    if mm._dirty:
        for idx, key in enumerate(kern.keys[: kern.R].tolist()):
            if key in mm._dirty:
                marks[idx] = True
    deaths = kern.deaths(C)
    ledger = mm.ledger
    sk = None
    if marks.any():
        sk = _per_key_store_counts(kern.keys, marks)
    if deaths.size and sk is not None:
        # previous eviction of each victim's key: its latest earlier
        # death, via the prev-chain of the death sub-stream
        dchain = StreamKernel(kern.keys[deaths]).prev
        flush = np.where(dchain >= 0, deaths[np.maximum(dchain, 0)], -1)
        sk_flush = np.where(flush >= 0, sk[np.maximum(flush, 0)], 0)
        # a death position is the victim's final pre-eviction access, so
        # sk there already counts every store of the residency
        dirty = (sk[deaths] - sk_flush) > 0
        nwb = int(np.count_nonzero(dirty))
        ledger.extra["writebacks"] += nwb
        ledger.extra["writeback_ios"] += nwb * h
    # final dirty set: residents with a store since their last eviction
    mm._dirty.clear()
    if sk is not None:
        alive = np.flatnonzero(kern.nxt == kern.n)
        if alive.size > C:
            alive = alive[-C:]
        last_death: dict[int, int] = {}
        for d in deaths.tolist():
            last_death[int(kern.keys[d])] = d
        for a in alive.tolist():
            key = int(kern.keys[a])
            base = last_death.get(key)
            if sk[a] - (sk[base] if base is not None else 0) > 0:
                mm._dirty.add(key)
    return ledger


def _run_nested(mm, trace: np.ndarray):
    """Nested translation: guest TLB and RAM are LRU caches on the hpn
    stream; the 2-D walk becomes a derived LRU stream over page-table
    node keys ``(depth, prefix)``, encoded as ``prefix*(g+1) + depth``."""
    if not (
        _plain_lru(mm.tlb) and _plain_lru(mm.ram) and _plain_lru(mm.nested_tlb)
    ):
        return None
    g = mm.guest_levels
    # walk keys scale vpns by g + 1: decline unless that stays in int64
    lim = np.iinfo(np.int64).max // (g + 1) - g
    enc = _exact_int64([p * (g + 1) + d for (d, p) in mm.nested_tlb.policy._order])
    if enc is None or int(trace.max()) > lim or int(trace.min()) < -lim:
        return None
    folded = _paged_fold(mm, trace, mm.h)
    if folded is None:
        return None
    miss_idx = folded[0]
    ledger = mm.ledger
    # one walk per guest-TLB miss, in stream order: guest levels 1..g
    # touch (d, vpn >> (top - d*bits)), then the data page is (0, vpn)
    if miss_idx.size:
        vm = trace[miss_idx]
        bits = mm.bits_per_level
        top = g * bits
        cols = [
            (vm >> max(top - d * bits, 0)) * (g + 1) + d
            for d in range(1, g + 1)
        ]
        cols.append(vm * (g + 1))
        walk = np.stack(cols, axis=1).reshape(-1)
        kern_n = StreamKernel(walk, enc)
        nC = mm.nested_tlb.capacity
        n_hits, n_misses = kern_n.counts(nC)
        ledger.extra["host_tlb_misses"] += n_misses
        ledger.extra["walk_touches"] += (
            g * miss_idx.size + mm.host_levels * n_misses
        )
        nt = mm.nested_tlb
        nt.hits += n_hits
        nt.misses += n_misses
        nt.evictions += kern_n.evictions(nC)
        nt._clock += len(walk)
        residents = kern_n.final_residents(nC).tolist()
        _refill(nt.policy._order, [(e % (g + 1), e // (g + 1)) for e in residents])
    return ledger


def _run_decoupled_system(system, units: np.ndarray, ledger):
    """Shared batch path for DecoupledSystem wrappers (decoupled/hybrid).

    TLB and RAM counters fold from two kernels; the segment's whole RAM
    miss/eviction stream is applied in bulk
    (``DecouplingScheme.apply_events`` → the vectorized balls-and-bins
    replay kernel) so ``φ``, the allocator, and ``ψ`` stay exact without
    a per-miss Python round-trip.  Returns None to decline, else the
    number of accesses completed: the full length normally, or — after a
    paging failure, whose costs recur per access — the index just past
    the failing access, with all state synchronized there so the caller
    can finish the segment on the object engine.
    """
    scheme = system.scheme
    if scheme._failed:
        return None  # failed residents charge per access; object engine
    tlb = system.tlb
    ram = system.ram
    if type(tlb) is not TLB or not _plain_lru(ram) or not _plain_lru(tlb):
        return None
    tp = _lru_prefix(tlb)
    rp = _lru_prefix(ram)
    if tp is None or rp is None:
        return None
    n = len(units)
    rC = ram.capacity
    kern_r = StreamKernel(units, rp)
    miss_pos = kern_r.miss_positions(rC)
    R0 = kern_r.R
    first_evt = rC - R0  # miss index at which evictions start
    keys = kern_r.keys
    n_miss = int(miss_pos.size)
    inserts = keys[miss_pos]
    evicts = keys[kern_r.deaths(rC)[: max(0, n_miss - first_evt)]]
    failed = scheme.apply_events(inserts, evicts, first_evt)
    if failed is None:
        return None  # allocator has no bulk path; object engine
    del inserts, evicts
    if failed >= 0:
        done = int(miss_pos[failed]) - R0 + 1  # through the failing access
        ram_misses = failed + 1
    else:
        done, ram_misses = n, n_miss
    _sync_decoupled_ram(ram, kern_r, done)
    # the TLB kernel is built only now, so one stream-sized kernel is alive
    del kern_r, keys, miss_pos
    tlb_hits = _sync_decoupled_tlb(
        system, StreamKernel(_unit_stream(units, system.hmax), tp), done
    )
    ledger.accesses += done
    ledger.tlb_hits += tlb_hits
    ledger.tlb_misses += done - tlb_hits
    ledger.ios += system.io_unit * ram_misses
    if failed >= 0:
        ledger.decoding_misses += 1
        ledger.paging_failures += 1
    return done


def _sync_decoupled_ram(ram, kern_r, done: int) -> None:
    """Move the RAM cache to access index *done* (the segment end, or just
    past a failing access)."""
    rC = ram.capacity
    hm_r = kern_r.hit_mask(rC)[kern_r.R : kern_r.R + done]
    rm = done - int(np.count_nonzero(hm_r))
    ram.hits += done - rm
    ram.misses += rm
    ram.evictions += max(0, kern_r.R + rm - rC)
    ram._clock += done
    _refill(ram.policy._order, kern_r.residents_at(rC, kern_r.R + done).tolist())


def _sync_decoupled_tlb(system, kern_t, done: int) -> int:
    """Move the TLB and the scheme's TLB-resident set to access index
    *done*; returns the TLB hits among those accesses."""
    scheme = system.scheme
    tlb = system.tlb
    lC = tlb.entries
    t_res = kern_t.residents_at(lC, kern_t.R + done).tolist()
    hm_t = kern_t.hit_mask(lC)[kern_t.R : kern_t.R + done]
    th = int(np.count_nonzero(hm_t))
    tm = done - th
    tlb.hits += th
    tlb.misses += tm
    tlb.fills += tm
    tlb._clock += done
    if tm:
        # fills stamp _clock - 1 at fill time; the monotonic floor never
        # engages mid-segment because miss stamps strictly increase
        last_miss = int(np.flatnonzero(~hm_t)[-1])
        tlb._last_stamp = max(tlb._last_stamp, tlb._clock - done + last_miss)
    # ψ updates for resident entries are free and always land the latest
    # value, so the end state is ψ over the final resident set.  _values
    # and _order are mutated in place: the TLB binds _values.get at init.
    vals = tlb._values
    vals.clear()
    for hpn in t_res:
        vals[hpn] = scheme.psi(hpn)
    _refill(tlb.policy._order, t_res)
    scheme._tlb_resident.clear()
    scheme._tlb_resident.update(t_res)
    return th


def _run_decoupled(mm, trace: np.ndarray):
    done = _run_decoupled_system(mm.system, trace, mm.ledger)
    if done is None:
        return None
    if done < len(trace):
        mm.system.run(trace[done:])  # paging failure: object engine
    return mm.ledger


def _run_hybrid(mm, trace: np.ndarray):
    units = _unit_stream(trace, mm.chunk)
    done = _run_decoupled_system(mm.system, units, mm.ledger)
    if done is None:
        return None
    if done < len(units):
        mm.system.run(units[done:])  # paging failure: object engine
    return mm.ledger


_HANDLERS = {
    "BasePageMM": _run_hugepage,
    "PhysicalHugePageMM": _run_hugepage,
    "WritebackHugePageMM": _run_writeback,
    "NestedTranslationMM": _run_nested,
    "DecoupledMM": _run_decoupled,
    "HybridMM": _run_hybrid,
}


def supports(mm) -> bool:
    """True if *mm*'s exact type has a batch handler at all (the handler
    may still decline at run time on state it can't batch)."""
    return type(mm).__name__ in _HANDLERS


def _batch_floor(mm) -> int:
    """The shortest segment worth batching on *mm*: ``_MIN_BATCH``, or the
    residents of the RAM cache the kernel would be seeded with if more."""
    return max(_MIN_BATCH, len(getattr(mm, "system", mm).ram))


def try_run(mm, trace):
    """Run *trace* through the batch engine.

    Returns the ledger on success, or ``None`` meaning "use the object
    engine": unsupported algorithm, non-LRU policy, scheme state the batch
    replay can't honor (pre-existing paging failures), a segment shorter
    than ``max(_MIN_BATCH, RAM residents)``, or values int64 cannot hold
    exactly. Probes are the caller's business:
    ``MemoryManagementAlgorithm.run`` only offers segments here when no
    per-access probe is attached, and flushes batch-safe probes itself.
    """
    handler = _HANDLERS.get(type(mm).__name__)
    if handler is None:
        return None
    if mm._provenance is not None and handler is not _run_hugepage:
        # eviction provenance is derived vectorized only for the
        # base-page/physical-huge fold; every other handler falls back to
        # the object replay, whose ghost hooks classify inline (the
        # attribution contract test pins this fallback as silent + exact)
        return None
    if len(trace) < _batch_floor(mm):
        return None
    arr = _exact_int64(trace)
    if arr is None:
        return None
    return handler(mm, arr)
