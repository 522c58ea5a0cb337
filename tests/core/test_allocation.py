"""Tests for the RAM-allocation schemes: stability, injectivity, encoding
round-trips, and the paging-failure semantics of Sections 3-4."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FullyAssociativeAllocator,
    GreedyAllocator,
    IcebergAllocator,
    OneChoiceAllocator,
)

ALLOCATOR_FACTORIES = {
    "full": lambda: FullyAssociativeAllocator(64),
    "one-choice": lambda: OneChoiceAllocator(64, 8, seed=0),
    "greedy": lambda: GreedyAllocator(64, 8, seed=0),
    "iceberg": lambda: IcebergAllocator(64, 8, lam=4.0, seed=0),
}


@pytest.fixture(params=sorted(ALLOCATOR_FACTORIES))
def allocator(request):
    return ALLOCATOR_FACTORIES[request.param]()


class TestAllocatorContract:
    def test_allocate_returns_valid_frame(self, allocator):
        frame = allocator.allocate(1)
        assert frame is not None
        assert 0 <= frame < allocator.total_frames
        assert allocator.frame_of(1) == frame
        assert len(allocator) == 1

    def test_double_allocate_raises(self, allocator):
        allocator.allocate(1)
        with pytest.raises(ValueError):
            allocator.allocate(1)

    def test_free_releases(self, allocator):
        frame = allocator.allocate(1)
        assert allocator.free(1) == frame
        assert allocator.frame_of(1) is None
        assert len(allocator) == 0

    def test_free_absent_raises(self, allocator):
        with pytest.raises(KeyError):
            allocator.free(1)

    def test_injectivity_under_churn(self, allocator):
        """φ must always be an injection."""
        frames = {}
        vpn = 0
        for round_ in range(6):
            for _ in range(10):
                f = allocator.allocate(vpn)
                if f is not None:
                    assert f not in frames.values(), "frame double-assigned"
                    frames[vpn] = f
                vpn += 1
            for victim in list(frames)[:5]:
                allocator.free(victim)
                del frames[victim]

    def test_stability(self, allocator):
        """φ(v) never changes while v is resident."""
        allocator.allocate(7)
        before = allocator.frame_of(7)
        for v in range(20, 40):
            allocator.allocate(v)
        for v in range(20, 30):
            allocator.free(v)
        assert allocator.frame_of(7) == before

    def test_encode_decode_roundtrip(self, allocator):
        placed = []
        for v in range(40):
            if allocator.allocate(v) is not None:
                placed.append(v)
        for v in placed:
            code = allocator.encode(v)
            assert 0 <= code < (1 << allocator.address_bits)
            assert allocator.decode(v, code) == allocator.frame_of(v)

    def test_decode_range_checked(self, allocator):
        allocator.allocate(1)
        with pytest.raises(ValueError):
            allocator.decode(1, allocator.associativity)


class TestFullyAssociative:
    def test_associativity_is_p(self):
        a = FullyAssociativeAllocator(128)
        assert a.associativity == 128
        assert a.address_bits == 7

    def test_no_failures_until_truly_full(self):
        a = FullyAssociativeAllocator(8)
        for v in range(8):
            assert a.allocate(v) is not None
        assert a.allocate(99) is None  # physically full
        a.free(0)
        assert a.allocate(99) is not None

    def test_frames_are_distinct(self):
        a = FullyAssociativeAllocator(16)
        frames = {a.allocate(v) for v in range(16)}
        assert frames == set(range(16))


class TestBucketedGeometry:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            OneChoiceAllocator(65, 8)

    def test_bucket_size_and_associativity(self):
        a = OneChoiceAllocator(64, 8, seed=0)
        assert a.bucket_size == 8
        assert a.associativity == 8
        assert a.address_bits == 3

        g = GreedyAllocator(64, 8, d=2, seed=0)
        assert g.associativity == 16
        assert g.address_bits == 4

        i = IcebergAllocator(64, 8, lam=4.0, seed=0)
        assert i.associativity == 24
        assert i.address_bits == 5

    def test_frame_lies_in_a_candidate_bucket(self):
        a = IcebergAllocator(64, 8, lam=4.0, seed=1)
        for v in range(40):
            frame = a.allocate(v)
            if frame is None:
                continue
            bucket = frame // a.bucket_size
            assert bucket in a.strategy.candidates(v)

    def test_failure_when_candidates_full(self):
        # 2 buckets of 2 frames, one choice: ~ collisions guaranteed
        a = OneChoiceAllocator(4, 2, seed=0)
        failures_before = a.failures
        outcomes = [a.allocate(v) for v in range(12)]
        assert None in outcomes
        assert a.failures > failures_before
        assert len(a) == sum(1 for o in outcomes if o is not None)

    def test_failed_page_not_resident(self):
        a = OneChoiceAllocator(2, 2, seed=0)
        results = {v: a.allocate(v) for v in range(10)}
        failed = [v for v, f in results.items() if f is None]
        assert failed, "expected at least one failure at this density"
        v = failed[0]
        assert a.frame_of(v) is None
        with pytest.raises(KeyError):
            a.free(v)

    def test_slot_reuse_within_bucket(self):
        a = OneChoiceAllocator(8, 1, seed=0)  # single bucket of 8
        frames = [a.allocate(v) for v in range(8)]
        assert sorted(frames) == list(range(8))
        a.free(3)
        new = a.allocate(100)
        assert new == frames[3]  # freed slot reused

    def test_max_bucket_load_bounded(self):
        a = IcebergAllocator(64, 8, lam=4.0, seed=2)
        for v in range(64):
            a.allocate(v)
        assert a.max_bucket_load <= a.bucket_size


class TestAllocatorProperties:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=300))
    @settings(max_examples=40)
    def test_iceberg_invariants_under_arbitrary_churn(self, ops):
        a = IcebergAllocator(64, 8, lam=4.0, seed=5)
        resident: dict[int, int] = {}
        for insert, v in ops:
            if insert and v not in resident:
                f = a.allocate(v)
                if f is not None:
                    resident[v] = f
            elif not insert and v in resident:
                a.free(v)
                del resident[v]
        # injectivity + stability + decode agreement, all at once
        assert len(set(resident.values())) == len(resident)
        for v, f in resident.items():
            assert a.frame_of(v) == f
            assert a.decode(v, a.encode(v)) == f


def _event_codes(alloc, decisions):
    """The location code per applied insert of a bulk replay (None for a
    failing one): what per-event ``encode`` returns right after each."""
    codes = [
        c * alloc.bucket_size + s
        for c, s in zip(decisions.choices, decisions.slots)
    ]
    return codes + [None] * (decisions.failed >= 0)


class TestBulkReplay:
    """`bulk_replay` must equal the per-event allocate/free sequence —
    frames, codes, LIFO slot order, and the stop-after-failure contract."""

    def _make(self, seed=3):
        return IcebergAllocator(64, 8, lam=4.0, seed=seed)

    def _stream(self, alloc, rng, n_events, first_evt):
        """A valid stream generated against a scratch twin of *alloc*."""
        inserts, evicts = [], []
        ball = 1000
        for k in range(n_events):
            if k >= first_evt:
                if not alloc._frame_of:
                    break
                victim = rng.choice(sorted(alloc._frame_of))
                alloc.free(victim)
                evicts.append(victim)
            inserts.append(ball)
            if alloc.allocate(ball) is None:
                ball += 1
                break
            ball += 1
        return inserts, evicts

    def test_matches_per_event_replay(self):
        import random

        for seed in range(5):
            rng = random.Random(seed)
            gen = self._make(seed)
            ref = self._make(seed)
            bat = self._make(seed)
            warm = [v for v in range(40) if gen.allocate(v) is not None]
            for a in (ref, bat):
                for v in range(40):
                    a.allocate(v)
                a.game.failures = gen.game.failures
                a.game.insertions = gen.game.insertions
            first_evt = rng.choice([0, 2])
            inserts, evicts = self._stream(gen, rng, 60, first_evt)

            ref_codes, ref_failed = [], -1
            j = 0
            for k, vpn in enumerate(inserts):
                if k >= first_evt:
                    ref.free(evicts[j])
                    j += 1
                if ref.allocate(vpn) is None:
                    ref_codes.append(None)
                    ref_failed = k
                    break
                ref_codes.append(ref.encode(vpn))

            decisions, ball_codes = bat.bulk_replay(inserts, evicts, first_evt)
            assert _event_codes(bat, decisions) == ref_codes
            assert decisions.failed == ref_failed
            for ball, code in zip(decisions.balls.tolist(), ball_codes.tolist()):
                if ball in ref._frame_of:
                    assert code == ref.encode(ball)
            assert bat._frame_of == ref._frame_of
            assert bat._free_slots == ref._free_slots  # exact LIFO order
            assert warm  # the warm phase genuinely placed pages

    def test_declines_without_batch_hook(self):
        from repro.ballsbins import OneChoiceStrategy
        from repro.core import BucketedAllocator

        class NoBatch(OneChoiceStrategy):
            batch_place = None

        alloc = BucketedAllocator(32, 8, NoBatch(), seed=0)
        assert alloc.bulk_replay([1, 2], [], 2) is None


class TestDecodeSingleHash:
    """The decode bugfix: only the stored choice's hash is evaluated."""

    def test_decode_evaluates_only_the_stored_choice(self, monkeypatch):
        from repro.hashing import MultiplyShiftHash

        alloc = IcebergAllocator(64, 8, lam=4.0, seed=1)
        placed = [vpn for vpn in range(56) if alloc.allocate(vpn) is not None]
        codes = {vpn: alloc.encode(vpn) for vpn in placed}
        assert any(code >= alloc.bucket_size for code in codes.values())  # not all choice 0
        calls = []
        orig = MultiplyShiftHash.__call__
        monkeypatch.setattr(
            MultiplyShiftHash, "__call__", lambda h, x: calls.append(x) or orig(h, x)
        )
        for vpn in placed:
            assert alloc.decode(vpn, codes[vpn]) == alloc.frame_of(vpn)
        assert calls == placed  # one hash per decode, never all k

    def test_greedy_left_group_arithmetic_survives(self):
        from repro.ballsbins import GreedyLeftStrategy
        from repro.core import BucketedAllocator

        alloc = BucketedAllocator(64, 8, GreedyLeftStrategy(2), seed=5)
        for vpn in range(24):
            if alloc.allocate(vpn) is None:
                continue
            assert alloc.decode(vpn, alloc.encode(vpn)) == alloc.frame_of(vpn)


class _FixedHash:
    """Deterministic stand-in for MultiplyShiftHash with forced collisions."""

    def __init__(self, table, range_, salt):
        self.table = dict(table)
        self.range = range_
        self.salt = salt

    def __call__(self, x):
        if x in self.table:
            return self.table[x]
        return (x * 2654435761 + self.salt) % self.range

    def many(self, xs):
        import numpy as np

        return np.array([self(int(v)) for v in np.asarray(xs)], dtype=np.int64)


class _FixedFamily:
    def __init__(self, hashes):
        self.functions = tuple(hashes)
        self.k = len(hashes)
        self.range = hashes[0].range

    def __call__(self, x):
        return tuple(h(x) for h in self.functions)

    def __getitem__(self, i):
        return self.functions[i]

    def __len__(self):
        return self.k


class TestHashCollisionStability:
    """When hᵢ(x) = hⱼ(x) (i < j), `choice_index` stores the first match
    while Iceberg's layer bookkeeping may record the other layer. Pin that
    encode→decode still lands the correct frame — decode only needs the
    bin, never the layer — and that the batch kernel emits the same code."""

    BALL = 77  # front bin 3, back candidates 3 (collides with front) and 5
    FILLER = 33  # fills front bin 3's front slot first

    def _make_iceberg(self):
        alloc = IcebergAllocator(64, 8, lam=1.0, front_slack=0.0, seed=0)
        n = 8
        fam = _FixedFamily(
            [
                _FixedHash({self.BALL: 3, self.FILLER: 3}, n, salt=1),
                _FixedHash({self.BALL: 3}, n, salt=2),  # h1 == h0: collision
                _FixedHash({self.BALL: 5}, n, salt=3),
            ]
        )
        alloc.strategy._family = fam
        alloc.strategy.candidate_fns = fam.functions  # what bind() sets
        return alloc

    def test_encode_decode_lands_the_frame_under_collision(self):
        alloc = self._make_iceberg()
        strat = alloc.strategy
        assert strat.front_capacity == 1
        assert alloc.allocate(self.FILLER) is not None  # front of bin 3 full
        frame = alloc.allocate(self.BALL)
        assert frame is not None
        # the spill tied back bins 3 and 5 at load 0; first choice wins,
        # so the ball sits in bin 3's BACK layer...
        assert frame // alloc.bucket_size == 3
        assert strat._layer[self.BALL] is False
        # ...while the encoder stores the FIRST matching candidate index
        code = alloc.encode(self.BALL)
        assert strat.choice_index(self.BALL, 3) == 0
        assert code // alloc.bucket_size == 0
        # the decode contract survives the layer/choice divergence
        assert alloc.decode(self.BALL, code) == frame
        # and deletion unwinds the correct (back) layer
        alloc.free(self.BALL)
        assert int(strat._back[3]) == 0
        assert int(strat._front[3]) == 1  # the filler's front slot

    def test_batch_kernel_emits_the_same_code_under_collision(self):
        ref = self._make_iceberg()
        ref.allocate(self.FILLER)
        ref.allocate(self.BALL)
        bat = self._make_iceberg()
        decisions, ball_codes = bat.bulk_replay([self.FILLER, self.BALL], [], 2)
        assert decisions.failed == -1
        codes = [ref.encode(self.FILLER), ref.encode(self.BALL)]
        assert _event_codes(bat, decisions) == codes
        assert ball_codes.tolist() == codes  # FILLER (33) < BALL (77)
        assert bat._frame_of == ref._frame_of
        assert dict(bat.strategy._layer) == dict(ref.strategy._layer)

    def test_greedy_collision_keeps_first_match(self):
        alloc = GreedyAllocator(64, 8, seed=0)
        fam = _FixedFamily(
            [_FixedHash({self.BALL: 4}, 8, salt=1),
             _FixedHash({self.BALL: 4}, 8, salt=2)]
        )
        alloc.strategy._family = fam
        alloc.strategy.candidate_fns = fam.functions  # what bind() sets
        frame = alloc.allocate(self.BALL)
        assert frame is not None and frame // alloc.bucket_size == 4
        code = alloc.encode(self.BALL)
        assert code // alloc.bucket_size == 0  # first match, never 1
        assert alloc.decode(self.BALL, code) == frame
