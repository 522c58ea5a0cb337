"""Location codes name the *first* hash that maps a page to its bucket.

With only a handful of buckets, a page's ``k`` hashes often collide
(``h_i(v) == h_j(v)``). Any matching index would decode to the right
frame, but the per-event path (``ram_insert``), ``choice_index`` and the
bulk path's ``choice_of`` must all pick the same one — the lowest — or ψ
diverges between engines. The sharpest case is an Iceberg ball that
spills into a back bin equal to its front bin ``h₀``: its code is choice
0, not the spill index.
"""

import random

import pytest

from repro.ballsbins import (
    GreedyLeftStrategy,
    GreedyStrategy,
    IcebergStrategy,
    OneChoiceStrategy,
)
from repro.core import BucketedAllocator, DecouplingScheme, TLBValueCodec

BUCKET = 4

STRATEGIES = {
    "one-choice": (2, OneChoiceStrategy),
    "greedy": (2, lambda: GreedyStrategy(3)),
    "greedy-left": (4, lambda: GreedyLeftStrategy(2)),
    # front capacity 1: most balls spill, half of them onto h0's bin
    "iceberg": (2, lambda: IcebergStrategy(lam=1.0, d=2, front_slack=0.0)),
}


def _scheme(name, seed):
    n_buckets, make = STRATEGIES[name]
    alloc = BucketedAllocator(n_buckets * BUCKET, n_buckets, make(), seed=seed)
    return DecouplingScheme(alloc, TLBValueCodec.for_allocator(64, alloc, hmax=4))


def _first_match_code(scheme, vpn):
    bucket, offset = divmod(scheme.frame_of(vpn), BUCKET)
    return scheme.allocator.strategy.choice_index(vpn, bucket) * BUCKET + offset


def _stored_code(scheme, vpn):
    return scheme.codec.field(scheme.psi(vpn // scheme.hmax), vpn % scheme.hmax)


def _drive(scheme, rng, n_events, live_cap):
    """Random per-event churn holding at most *live_cap* active pages;
    checks every placed page's stored code after each insert.

    Returns ``(inserts, evicts, failed, colliding)``: the applied stream,
    the index of its first failing insert (-1: none), and how many placed
    pages had another hash index naming the bucket they landed in.
    """
    strategy = scheme.allocator.strategy
    inserts, evicts = [], []
    failed = -1
    colliding = 0
    for k in range(n_events):
        live = sorted(scheme._active)
        if len(live) >= live_cap:
            victim = rng.choice(live)
            scheme.ram_evict(victim)
            evicts.append(victim)
        else:
            evicts.append(-1)
        vpn = rng.randrange(64)
        while vpn in scheme._active:
            vpn = rng.randrange(64)
        inserts.append(vpn)
        if scheme.ram_insert(vpn) is None:
            failed = k if failed < 0 else failed
            continue
        bucket = scheme.frame_of(vpn) // BUCKET
        colliding += strategy.candidates(vpn).count(bucket) > 1
        for page in scheme._active - scheme._failed:
            assert _stored_code(scheme, page) == _first_match_code(scheme, page), (
                f"event {k}: page {page}"
            )
    return inserts, evicts, failed, colliding


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("seed", range(4))
def test_per_event_codes_are_first_match(name, seed):
    scheme = _scheme(name, seed)
    _, _, failed, colliding = _drive(scheme, random.Random(seed), 400, live_cap=6)
    if name not in ("one-choice", "greedy-left"):  # k = 1 / disjoint groups
        assert colliding > 20, "few colliding candidates: the test lost its teeth"
    scheme.check_invariants()


@pytest.mark.parametrize("seed", range(4))
def test_iceberg_spill_onto_front_bin_is_choice_zero(seed):
    scheme = _scheme("iceberg", seed)
    strategy = scheme.allocator.strategy
    rng = random.Random(seed)
    spilled_home = 0
    for _ in range(200):
        live = sorted(scheme._active - scheme._failed)
        if len(live) >= 6:
            scheme.ram_evict(rng.choice(live))
        vpn = rng.randrange(64)
        if vpn in scheme._active or scheme.ram_insert(vpn) is None:
            continue
        bucket = scheme.frame_of(vpn) // BUCKET
        if not strategy._layer[vpn] and bucket == strategy.candidate(vpn, 0):
            spilled_home += 1
            assert _stored_code(scheme, vpn) // BUCKET == 0
    assert spilled_home > 0, "no spill landed on the front bin"


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("seed", range(4))
def test_bulk_choice_of_matches_per_event_codes(name, seed):
    # three live pages cannot overfill a bucket of four, so the whole
    # stream applies (the bulk path stops at a first failure)
    ref = _scheme(name, seed)
    inserts, evicts, failed, _ = _drive(ref, random.Random(seed), 400, live_cap=3)
    assert failed == -1
    # apply_events takes evictions as "eviction k right before insert k"
    # from first_evt on; -1 entries mark inserts with no eviction
    bulk = _scheme(name, seed)
    first = evicts.count(-1)
    assert min(evicts[first:]) >= 0
    assert bulk.apply_events(inserts, evicts[first:], first) == -1
    assert bulk._psi == ref._psi
    assert bulk._active == ref._active
