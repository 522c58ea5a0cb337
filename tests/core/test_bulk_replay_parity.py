"""Deep-state differential test of the bulk RAM-event path.

`DecouplingScheme.apply_events` (and the allocator/game/strategy bulk
replay under it) must leave *every* piece of state exactly where the
per-event ``ram_evict``/``ram_insert`` sequence leaves it: ψ, A, F, the
allocator's frames and LIFO free-slot lists, the game's loads, load
histogram and counters, and Iceberg's front/back/layer bookkeeping.

Streams are random and interleaved, re-insert pages evicted earlier in
the same stream, run into paging failures (junk-padded past them, which
must never be applied), and are replayed with a tiny ``_BULK_CHUNK`` so
one call spans many allocator passes with evictions starting past a pass
boundary.
"""

import random

import numpy as np
import pytest

from repro.core import (
    DecouplingScheme,
    GreedyAllocator,
    IcebergAllocator,
    OneChoiceAllocator,
    TLBValueCodec,
)
from repro.core import decoupling
from repro.ballsbins import IcebergStrategy

FRAMES = 64
BUCKETS = 8  # bucket size 8

ALLOCATORS = {
    "one-choice": lambda seed: OneChoiceAllocator(FRAMES, BUCKETS, seed=seed),
    "greedy": lambda seed: GreedyAllocator(FRAMES, BUCKETS, seed=seed),
    "iceberg": lambda seed: IcebergAllocator(
        FRAMES, BUCKETS, lam=4.0, front_slack=0.25, seed=seed
    ),
}


def _scheme(name, seed, w=64, hmax=4):
    alloc = ALLOCATORS[name](seed)
    return DecouplingScheme(alloc, TLBValueCodec.for_allocator(w, alloc, hmax=hmax))


def _deep_state(scheme):
    alloc = scheme.allocator
    game = alloc.game
    state = {
        "psi": dict(scheme._psi),
        "active": set(scheme._active),
        "failed": set(scheme._failed),
        "frame_of": dict(alloc._frame_of),
        "free_slots": [list(s) for s in alloc._free_slots],
        "loads": game.loads.tolist(),
        "load_counts": dict(game._load_counts),
        "max_load": game._max_load,
        "peak_load": game.peak_load,
        "insertions": game.insertions,
        "deletions": game.deletions,
        "failures": game.failures,
        "bin_of": dict(game._bin_of),
    }
    strat = alloc.strategy
    if isinstance(strat, IcebergStrategy):
        state["front"] = strat._front.tolist()
        state["back"] = strat._back.tolist()
        state["layer"] = dict(strat._layer)
    return state


def _warm(scheme, rng, n_pages, drop):
    """Per-event warm phase with evictions, so free-slot lists are
    scrambled; a warm-phase failure is evicted at once (the bulk path
    declines pre-existing failures)."""
    for vpn in range(n_pages):
        if scheme.ram_insert(vpn) is None:
            scheme.ram_evict(vpn)
    for vpn in rng.sample(sorted(scheme._active), int(len(scheme._active) * drop)):
        scheme.ram_evict(vpn)


def _stream_and_reference(ref, rng, n_events, first_evt, reinsert_p):
    """Drive *ref* per-event while recording the stream it applied.

    Returns ``(inserts, evicts, failed)``; past a failure the lists are
    padded with junk that the bulk path must not apply.
    """
    inserts, evicts = [], []
    gone = []  # evicted pages, eligible for re-insertion
    fresh = 1000
    failed = -1
    for k in range(n_events):
        if failed >= 0:
            if k >= first_evt:
                evicts.append(inserts[0])
            inserts.append(10**6 + k)
            continue
        if k >= first_evt:
            if not ref._active:
                break
            victim = rng.choice(sorted(ref._active))
            ref.ram_evict(victim)
            evicts.append(victim)
            gone.append(victim)
        live = ref._active
        candidates = [v for v in gone if v not in live]
        if candidates and rng.random() < reinsert_p:
            vpn = rng.choice(candidates)
        else:
            vpn = fresh
            fresh += 1
        inserts.append(vpn)
        if ref.ram_insert(vpn) is None:
            failed = k
    return inserts, evicts, failed


def _check_one(name, seed, chunk, monkeypatch, w=64, hmax=4):
    rng = random.Random(seed * 7919 + chunk)
    monkeypatch.setattr(decoupling, "_BULK_CHUNK", chunk)
    ref = _scheme(name, seed, w, hmax)
    bat = _scheme(name, seed, w, hmax)
    n_warm = rng.choice([20, 40, 56])
    drop = rng.choice([0.0, 0.3])
    _warm(ref, random.Random(seed), n_warm, drop)
    _warm(bat, random.Random(seed), n_warm, drop)
    assert _deep_state(bat) == _deep_state(ref)
    first_evt = rng.choice([0, 1, chunk, chunk + 1, 2 * chunk + 1, 11, 30])
    inserts, evicts, ref_failed = _stream_and_reference(
        ref, rng, rng.randint(0, 48), first_evt, rng.choice([0.0, 0.3, 0.7])
    )
    if rng.random() < 0.5:
        inserts = np.asarray(inserts, dtype=np.int64)
        evicts = np.asarray(evicts, dtype=np.int64)
    failed = bat.apply_events(inserts, evicts, first_evt)
    assert failed == ref_failed
    assert _deep_state(bat) == _deep_state(ref)
    bat.check_invariants()
    return ref_failed >= 0, len(evicts) > 0


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, decoupling._BULK_CHUNK])
@pytest.mark.parametrize("name", sorted(ALLOCATORS))
def test_apply_events_matches_per_event_deep_state(name, chunk, monkeypatch):
    failures = evicting = 0
    for seed in range(40):
        f, e = _check_one(name, seed, chunk, monkeypatch)
        failures += f
        evicting += e
    # the fuzz must genuinely reach failures and evictions
    assert failures > 0
    assert evicting > 0


@pytest.mark.parametrize("w", [64, 128])
@pytest.mark.parametrize("name", sorted(ALLOCATORS))
def test_widest_huge_pages(name, w, monkeypatch):
    """The largest ``hmax`` the codec allows: ψ values fill all ``w`` bits
    (``uint64`` at 64, Python ints beyond)."""
    for chunk in (3, decoupling._BULK_CHUNK):
        for seed in range(10):
            _check_one(name, seed, chunk, monkeypatch, w=w, hmax=None)


def test_failure_past_a_pass_boundary(monkeypatch):
    """A failure in a later pass: everything before it is committed, the
    failing insert joins F, and nothing after it is applied."""
    monkeypatch.setattr(decoupling, "_BULK_CHUNK", 2)
    ref = _scheme("one-choice", 0)
    bat = _scheme("one-choice", 0)
    for s in (ref, bat):
        _warm(s, random.Random(0), 24, 0.0)
    rng = random.Random(0)
    inserts, evicts, ref_failed = _stream_and_reference(ref, rng, 80, 5, 0.3)
    assert ref_failed > 20  # fails in a later pass, after evictions began
    assert bat.apply_events(inserts, evicts, 5) == ref_failed
    assert _deep_state(bat) == _deep_state(ref)
