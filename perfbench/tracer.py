"""Span tracer for the traced benchmark process.

Wrappers are installed at class level (or, for module functions, on every
module attribute bound to the function) before the workload builds any
object, so callables bound at construction time see the wrapped version.
Spans live in memory as ``[name, start, end, parent, cell, attrs]`` lists
and are written out once, after the workload ends.

Only the traced process imports this module; the untraced process uses
:func:`install_first_call_stamp`, which unhooks itself on the first call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

NAME, START, END, PARENT, CELL, ATTRS = range(6)

#: span names counted as one call into the ``mmu`` layer.
MMU_CALLS = ("mmu.run", "mmu.run_asid")


def now() -> float:
    """CLOCK_MONOTONIC seconds: one clock shared by parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def subclasses(root) -> list:
    """*root* and every class below it, each once, in a stable order."""
    seen, out, todo = set(), [], [root]
    while todo:
        cls = todo.pop(0)
        if cls in seen:
            continue
        seen.add(cls)
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def install_first_call_stamp(classes, attrs=("run", "run_asid")) -> dict:
    """Record the first call to any of *attrs* on *classes*, then unhook.

    Returns a dict that gains ``t`` (clock) and ``engine`` at that call.
    The originals are restored before the first call proceeds, so the rest
    of the process runs the library's own methods.
    """
    originals = [
        (cls, attr, cls.__dict__[attr])
        for cls in classes
        for attr in attrs
        if attr in cls.__dict__
    ]
    stamp: dict = {}

    def hook(orig):
        @functools.wraps(orig)
        def first(self, *args, **kwargs):
            if "t" not in stamp:
                stamp["t"] = now()
                stamp["engine"] = getattr(self, "engine", None)
                for cls, attr, fn in originals:
                    setattr(cls, attr, fn)
            return orig(self, *args, **kwargs)

        return first

    for cls, attr, fn in originals:
        setattr(cls, attr, hook(fn))
    return stamp


class Tracer:
    """In-memory span recorder with class-level wrapper installation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: label the workload sets for the cell it is running.
        self.cell: str | None = None
        #: every memory-management algorithm built: id -> (seq, name, obj).
        self.mms: dict[int, tuple] = {}

    # ---------------------------------------------------------------- spans

    def open(self, name: str, attrs=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now(), 0.0, parent, self.cell, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = now()
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured without the stack (process start → script)."""
        self.spans.append([name, start, end, -1, None, None])

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # ------------------------------------------------------------- wrappers

    def wrap_method(self, cls, attr: str, name: str, before=None, after=None):
        """Replace ``cls.attr`` by a spanning wrapper (own ``__dict__`` only).

        *before(obj, args)* returns the span's attrs; *after(obj, span,
        result)* may fill them in once the call returns.
        """
        raw = cls.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args[0] if args else None, args[1:]) if before else None
            idx = tracer.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args[0] if args else None, tracer.spans[idx], result)
            return result

        setattr(cls, attr, kind(wrapper) if kind is not None else wrapper)

    def wrap_function(self, fn, name: str) -> None:
        """Span every call to module function *fn*, wherever it is bound.

        ``from x import f`` copies the binding, so every loaded module
        attribute that *is* ``fn`` is replaced.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)

    def install(self) -> None:
        """Wrap the public calls of every layer the workloads go through."""
        from repro.bench import harness, report
        from repro.check import runner
        from repro.check.oracle import ValidatingMM  # noqa: F401 - subclass must be loaded
        from repro.mmu.base import MemoryManagementAlgorithm
        from repro.obs.attribution import AttributionProbe
        from repro.obs.snapshot import ObsSnapshot
        from repro.sim import parallel, simulator
        from repro.tenancy.sim import MultiTenantSim
        from repro.workloads.base import Workload

        tracer = self

        def mm_name(mm) -> str:
            return getattr(mm, "inner", mm).name

        def register(mm) -> int:
            # nested __init__ levels register the same object; the outermost
            # (last to return) sets the final name
            seq = tracer.mms[id(mm)][0] if id(mm) in tracer.mms else len(tracer.mms)
            tracer.mms[id(mm)] = (seq, mm_name(mm), mm)
            return seq

        def registered(mm, _span, _result) -> None:
            register(mm)

        def run_attrs(mm, args):
            entry = tracer.mms.get(id(mm))
            seq = entry[0] if entry is not None and entry[2] is mm else register(mm)
            return {"mm": seq, "n": len(args[-1]), "engine": mm.engine}

        def dropped(_mm, span, result) -> None:
            span[ATTRS] = {"dropped": int(result)}

        def generated(_wl, span, result) -> None:
            span[ATTRS] = {"n": len(result)}

        for cls in subclasses(MemoryManagementAlgorithm):
            if "__init__" in cls.__dict__:
                self.wrap_method(cls, "__init__", "mmu.build", after=registered)
            if "run" in cls.__dict__:
                self.wrap_method(cls, "run", "mmu.run", before=run_attrs)
            if "run_asid" in cls.__dict__:
                self.wrap_method(cls, "run_asid", "mmu.run_asid", before=run_attrs)
            if "shootdown_asid" in cls.__dict__:
                self.wrap_method(cls, "shootdown_asid", "mmu.shootdown", after=dropped)
        for cls in subclasses(Workload):
            if "__init__" in cls.__dict__:
                self.wrap_method(cls, "__init__", "workloads.build")
            if "generate" in cls.__dict__:
                self.wrap_method(cls, "generate", "workloads.generate", after=generated)
        self.wrap_method(MultiTenantSim, "run", "tenancy.run")
        for attr in ("observe", "reset", "tenant_counters", "cause_totals"):
            self.wrap_method(AttributionProbe, attr, "obs.probe")
        for attr in ("from_run", "merge_all", "to_json"):
            self.wrap_method(ObsSnapshot, attr, "obs.snapshot")
        for fn in (
            simulator.sweep_huge_page_sizes,
            harness.compare_algorithms,
            harness.hybrid_sweep,
            parallel.run_records,
            parallel.run_tasks,
        ):
            self.wrap_function(fn, "sim.dispatch")
        self.wrap_function(harness.simulation_theorem_experiment, "bench.eq3")
        self.wrap_function(runner.check_grid, "check.grid")
        for fn in (
            report.format_table,
            report.format_figure1,
            report.format_throughput,
            runner.format_check_report,
        ):
            self.wrap_function(fn, "report.format")

    # -------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        spans = self.spans
        out = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def mm_names(self) -> dict[int, str]:
        """Build sequence number -> registry name of every traced MM."""
        return {seq: name for seq, name, _mm in self.mms.values()}

    def dump(self, path) -> None:
        """Write the spans as JSON lines (MM numbers replaced by names)."""
        names = self.mm_names()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, cell, attrs) in enumerate(self.spans):
                if attrs and "mm" in attrs:
                    attrs = {**attrs, "mm": names[attrs["mm"]]}
                fh.write(json.dumps(
                    [i, name, round(start, 9), round(end, 9), parent, cell, attrs]
                ) + "\n")
