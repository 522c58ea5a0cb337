"""The default engine's input contract: exact on every trace ``run()`` accepts.

The array engine is the default, so it must never change a result the
object engine (the per-access reference) would produce. It keys its
kernels on int64, so every segment it cannot represent exactly — float,
bool and object dtypes, uint64 values of 2**63 and above, Python ints
outside int64 — is declined to the object engine, and so is a later
segment whose warm caches still hold such keys. In-range int64 values are
batched even when their span overflows the kernel's sort key. Each case
is long enough to clear the batch floor, so the decline is the contract's
doing, not the floor's.

numpy 1.26 and 2.x coerce big Python ints and uint64 differently; CI's
engine-parity job runs this module under both.
"""

import numpy as np
import pytest

from repro.mmu import array_engine
from repro.mmu.registry import MM_NAMES, make_mm
from tests.mmu.test_array_engine import _state_sig

TLB_ENTRIES = 4
RAM_PAGES = 64
REPEAT = 2 * array_engine._MIN_BATCH

#: traces int64 cannot hold exactly: the array engine must decline them.
UNREPRESENTABLE = {
    "float64": np.tile([1.0, 2.5, 2.0, 1.0], REPEAT // 4),
    "float-list": [1.0, 2.5, 2.0, 1.0] * (REPEAT // 4),
    "bool": np.tile([True, False, True, True], REPEAT // 4),
    "uint64-high": np.uint64(2**63) + np.arange(REPEAT, dtype=np.uint64) % np.uint64(48),
    "pyint-above-int64": [2**63 + 1, 5, 2**63 + 1, 9] * (REPEAT // 4),
    "pyint-above-uint64": [2**64 + 7, 5, -3, 11] * (REPEAT // 4),
    "object-dtype": np.array([3, 5, 7, 5] * (REPEAT // 4), dtype=object),
}

#: traces int64 holds exactly: the array engine must batch them (the
#: wide ones span more than an int64 sort key ``key * n + pos`` holds).
REPRESENTABLE = {
    "int64-extremes": np.tile(
        np.array([2**63 - 1, -(2**63), 2**62, -(2**62), 0, 7, 2**63 - 2, 7]),
        REPEAT // 8,
    ),
    "int64-wide": np.tile(np.array([2**58, -(2**58), 3, 2**58 + 1]), REPEAT // 4),
    "uint64-low": np.arange(REPEAT, dtype=np.uint64) % np.uint64(48),
    "uint32": (np.arange(REPEAT) % 48 + 2**31).astype(np.uint32),
    "uint8": (np.arange(REPEAT) % 200).astype(np.uint8),
    "int-list": [3, 5, 7, 5] * (REPEAT // 4),
    "int8": (np.arange(REPEAT) % 100).astype(np.int8),
}


def _outcome(name, *traces, **engine):
    """The state after running *traces* in turn, or the exception type the
    first failing ``run()`` raised."""
    mm = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0, **engine)
    try:
        for trace in traces:
            mm.run(trace)
    except (TypeError, ValueError, OverflowError) as exc:  # must fail alike too
        return type(exc).__name__
    return _state_sig(mm)


@pytest.mark.parametrize("case", sorted(UNREPRESENTABLE))
@pytest.mark.parametrize("name", MM_NAMES)
def test_default_engine_matches_object_on_unrepresentable_traces(name, case):
    trace = UNREPRESENTABLE[case]
    mm = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)
    assert array_engine.try_run(mm, trace) is None
    assert _outcome(name, trace) == _outcome(name, trace, engine="object")


@pytest.mark.parametrize("case", sorted(REPRESENTABLE))
@pytest.mark.parametrize("name", MM_NAMES)
def test_default_engine_batches_exact_int_traces(name, case):
    trace = REPRESENTABLE[case]
    mm = make_mm(name, TLB_ENTRIES, RAM_PAGES, seed=0)
    # nested walk keys scale vpns by guest_levels + 1: at the int64
    # extremes they would wrap, so nested leaves those to the object engine
    batchable = array_engine.supports(mm) and (name, case) != ("nested", "int64-extremes")
    assert (array_engine.try_run(mm, trace) is not None) == batchable
    assert _outcome(name, trace) == _outcome(name, trace, engine="object")


@pytest.mark.parametrize("poison", ["float64", "pyint-above-int64"])
@pytest.mark.parametrize("name", MM_NAMES)
def test_residents_left_by_a_declined_trace_keep_later_segments_exact(name, poison):
    """A declined trace leaves keys int64 cannot hold in the caches; an int
    segment after it must not seed the kernel with them (a resident ``2.5``
    would silently become ``2``)."""
    ints = np.tile([2, 1, 3, 5], REPEAT // 4)
    trace = UNREPRESENTABLE[poison]
    assert _outcome(name, trace, ints) == _outcome(name, trace, ints, engine="object")
