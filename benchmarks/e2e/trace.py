"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of the simulator at
the module or class attribute callers look them up through, records a
span per call (id, name, start and end in ns, parent span, operation
id) in memory, and restores every attribute on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` knows about it; with
no tracer installed the program runs unmodified.

Span names are the per-layer metric names of ``BENCHMARK.json`` without
their ``.ms``/``.calls`` suffix.  The first tuple element names the
owner, ``module`` or ``module:Class``; a function imported by name into
another module is wrapped where that module looks it up.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

_perf_ns = time.perf_counter_ns


def _run_until_name(barrier) -> str:
    # one barrier class serves both levels: a cluster's members are
    # whole SoCs, a SoC's members are core slots
    from repro.vliw.cluster import _LocalNode

    if barrier.members and isinstance(barrier.members[0], _LocalNode):
        return "cluster.run_until"
    return "sync.run_until"


def _python_source(result) -> dict:
    return {"codegen.emit_python.bytes": len(result[0])}


def _c_module(result) -> dict:
    return {"codegen.emit_c.bytes": len(result[0]),
            "codegen.superblocks": len(result[1].superblocks)}


#: (owner, attribute, span name or name function, counters read off the
#: call's return value)
SPANS = (
    ("repro.translator.driver:BinaryTranslator", "translate",
     "translator.translate", None),
    ("repro.translator.driver", "decode_object", "translator.decode", None),
    ("repro.translator.driver", "build_cfg", "translator.blocks", None),
    ("repro.translator.driver", "analyze", "translator.baseaddr", None),
    ("repro.translator.rewrite:AddressTranslator", "rewrite_block",
     "translator.rewrite", None),
    ("repro.translator.driver", "static_block_cycles", "translator.cycles",
     None),
    ("repro.translator.driver", "build_block_regions", "translator.annotate",
     None),
    ("repro.translator.driver", "make_layout", "translator.icache_annot",
     None),
    ("repro.translator.driver", "subroutine_body", "translator.icache_annot",
     None),
    ("repro.translator.annotate", "split_analysis_blocks",
     "translator.icache_annot", None),
    ("repro.translator.annotate", "call_sequence", "translator.icache_annot",
     None),
    ("repro.translator.annotate", "inline_sequence",
     "translator.icache_annot", None),
    ("repro.translator.lower:Lowering", "lower_region", "translator.lower",
     None),
    ("repro.translator.lower:Lowering", "lower_terminator",
     "translator.lower", None),
    ("repro.translator.regalloc:RegisterBinder", "__init__",
     "translator.regalloc", None),
    ("repro.translator.regalloc:RegisterBinder", "bind_region",
     "translator.regalloc", None),
    ("repro.translator.schedule:RegionScheduler", "schedule",
     "translator.schedule", None),
    ("repro.translator.emit:ProgramEmitter", "add_region", "translator.emit",
     None),
    ("repro.translator.emit:ProgramEmitter", "finish", "translator.emit",
     None),
    ("repro.vliw.compiled", "lower_region", "codegen.lower", None),
    ("repro.vliw.codegen.emit_python:PythonEmitter", "emit",
     "codegen.emit_python", _python_source),
    ("repro.vliw.codegen.emit_c:CEmitter", "emit_module", "codegen.emit_c",
     _c_module),
    ("repro.vliw.codegen.native", "build_shared", "codegen.cc", None),
    ("repro.vliw.codegen.native:CffiBinding", "__init__",
     "codegen.load.cffi", None),
    ("repro.vliw.codegen.native:CtypesBinding", "__init__",
     "codegen.load.ctypes", None),
    ("repro.vliw.codegen.footprint", "compute_footprint",
     "codegen.footprint", None),
    ("repro.vliw.platform:PrototypingPlatform", "__init__",
     "exec.platform_init", None),
    ("repro.vliw.platform:PrototypingPlatform", "run", "exec.run", None),
    ("repro.vliw.compiled:PacketCompiler", "__init__", "exec.compiler_init",
     None),
    ("repro.vliw.codegen.native:NativeContext", "attach",
     "exec.native_attach", None),
    ("repro.vliw.platform", "collect_platform_result", "exec.collect", None),
    ("repro.vliw.multicore", "collect_platform_result", "exec.collect", None),
    ("repro.vliw.multicore:MultiCoreSoC", "__init__", "multicore.soc_init",
     None),
    ("repro.vliw.sync:SyncBarrier", "run_until", _run_until_name, None),
    ("repro.vliw.multicore:_CoreSlot", "advance", "sync.advance", None),
    ("repro.vliw.multicore:_CoreSlot", "advance_private",
     "sync.advance_private", None),
    ("repro.vliw.cluster:Cluster", "__init__", "cluster.init", None),
    ("repro.vliw.cluster:_LocalNode", "advance", "cluster.node_advance",
     None),
    ("repro.vliw.fabric:NetworkFabric", "route", "fabric.route", None),
)

#: hot call sites that get a call counter, not a span
COUNTERS = (
    ("repro.vliw.compiled:PacketCompiler", "function_for",
     "exec.function_for_calls"),
)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span and counter recorder.

    Aggregates are kept per *phase* (``"setup"`` or ``"ops"``) and
    name: ``[calls, inclusive ns, self ns]``.  Raw spans are kept up to
    *span_cap* so a long run cannot exhaust memory.
    """

    def __init__(self, span_cap: int = 200_000) -> None:
        self.phase = "setup"
        #: id of the operation being timed, None between operations
        self.op: int | None = None
        self.agg: dict[tuple[str, str], list[int]] = {}
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        #: span time with no parent, accumulated only inside operations
        self.top_ns = 0
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.phase, name)] += value

    def _call(self, name: str, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = stack[-1][1] if stack else None
        frame = [0, span_id]
        stack.append(frame)
        start = _perf_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf_ns()
            stack.pop()
            duration = end - start
            key = (self.phase, name)
            agg = self.agg.get(key)
            if agg is None:
                agg = self.agg[key] = [0, 0, 0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            elif self.op is not None:
                self.top_ns += duration
            if len(self.spans) < self.span_cap:
                self.spans.append((span_id, name, start, end, parent,
                                   self.op))

    def _span_wrapper(self, fn, name, measure):
        tracer = self
        if callable(name):
            name_of = name

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(name_of(args[0]), fn, args, kwargs)
        elif measure is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = tracer._call(name, fn, args, kwargs)
                for counter, value in measure(result).items():
                    tracer.count(counter, value)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(tracer.phase, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every attribute of :data:`SPANS` and :data:`COUNTERS`."""
        if self._saved:
            return
        for path, attr, name, measure in SPANS:
            self._patch(path, attr,
                        lambda fn, n=name, m=measure:
                        self._span_wrapper(fn, n, m))
        for path, attr, name in COUNTERS:
            self._patch(path, attr,
                        lambda fn, n=name: self._count_wrapper(fn, n))

    def _patch(self, path: str, attr: str, make) -> None:
        owner = _owner(path)
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def export(self) -> dict:
        """Aggregates as plain JSON-able data (child to parent)."""
        return {
            "agg": [[phase, name, *values]
                    for (phase, name), values in self.agg.items()],
            "counts": [[phase, name, value]
                       for (phase, name), value in self.counts.items()],
            "top_ns": self.top_ns,
        }

    def merge(self, exported: dict, phase: str) -> None:
        """Fold a child's :meth:`export` into *phase* of this tracer."""
        for _phase, name, calls, total, own in exported["agg"]:
            agg = self.agg.setdefault((phase, name), [0, 0, 0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        for _phase, name, value in exported["counts"]:
            self.counts[(phase, name)] += value
        self.top_ns += exported["top_ns"]

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer,
                  units: dict[str, int]) -> dict[str, tuple[float, int]]:
    """Per-layer ``name -> (value, units)``: each name is taken from the
    operations if it occurred there, else from the set-ups, and divided
    by that phase's unit count.

    ``.ms`` is inclusive time, ``.self.ms`` exclusive time.
    """
    def per_unit(table, name):
        phase = "ops" if ("ops", name) in table else "setup"
        return table[(phase, name)], max(units.get(phase, 1), 1)

    out: dict[str, tuple[float, int]] = {}
    for name in {name for _phase, name in tracer.agg}:
        (calls, total, own), n = per_unit(tracer.agg, name)
        out[f"{name}.calls"] = (calls / n, n)
        out[f"{name}.ms"] = (total / n / 1e6, n)
        out[f"{name}.self.ms"] = (own / n / 1e6, n)
    for name in {name for _phase, name in tracer.counts}:
        value, n = per_unit(tracer.counts, name)
        out[name] = (value / n, n)
    return out
