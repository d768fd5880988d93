"""Packet-compiled execution backend: the translated program, translated.

The paper's thesis applied one level up, as an explicit three-stage
pipeline (see ``docs/ir.md``): instead of interpreting the translated
C6x program one :meth:`C6xCore.step_packet` call per cycle (paying
Python dispatch, predicate checks and dict lookups every packet),
:class:`PacketCompiler` discovers straight-line packet *regions*,
**lowers** each to the typed Region IR of
:mod:`repro.vliw.codegen.lower`, and **emits** host code through a
pluggable :class:`~repro.vliw.codegen.RegionEmitter`:

* the ``compiled`` backend renders every region with the reference
  :class:`~repro.vliw.codegen.emit_python.PythonEmitter` — register
  numbers, immediates, predicates and load/store offsets resolved into
  direct list/bytearray operations, delay-slot writebacks placed
  statically, counters and sync-device ticks batched per region,
  device packets keeping the interpreter's exact dispatch and stall
  interleaving;
* the ``native`` backend additionally compiles the statically
  reachable regions to C99 superblocks (:mod:`repro.vliw.codegen.emit_c`,
  :mod:`repro.vliw.codegen.native`), falling back to the Python
  emitter per region for device hand-offs, demoted members and entries
  discovered only at run time, and entirely when no C toolchain is
  available.  A module already on disk is found by a key over the
  program itself, so a warm native compiler lowers and renders only
  the regions its run needs in Python.

Compiled functions form a *block-function cache* keyed by entry packet
index, with direct chaining: each function returns the next block's
callable (lazily linked through a one-slot cell when the branch target
is static), so the hot path never re-enters ``step_packet``.  The
interpretive core remains the fallback for the rare shapes the
compiler does not specialize (a second branch issued inside another
branch's delay slots, running off the end of the program) and for any
plain memory access that turns out at run time not to target plain
target memory — a region bails out *before* mutating packet state, so
the interpreter can simply re-execute the packet.

The interpretive :class:`C6xCore` remains the reference semantics: a
compiled region mutates exactly the same core state (registers, memory,
stats, sync device), so execution can transfer between the two backends
at any region boundary and both produce identical
:class:`~repro.vliw.platform.PlatformResult` observables.

Known, deliberate divergences from the interpretive core (none of which
affect the results of schedulable programs):

* strict-mode hazard checking is skipped — the scheduler guarantees the
  absence of delay-shadow reads, like real hardware would;
* the ``max_cycles`` limit is checked at region granularity, so the
  :class:`SimulationError` it raises may fire a few packets later than
  the interpreter's per-packet check;
* when a packet raises (bus error, sync protocol violation), the
  ``instructions_executed`` count of that packet's earlier instructions
  may differ — no result is produced on that path.

Generated region *source* and *IR* are cached on the program object
itself, so several platforms executing the same translation (e.g.
repeated benchmark runs) share one lowering pass.  Both caches hold
plain picklable data — deliberately, because source strings and IR
dataclasses pickle while code objects and shared-library handles do
not: a translated program can be pickled and shipped to a worker
process (see :mod:`repro.eval.sharded`) with its region caches
attached, so workers ``compile()``/``exec`` the parent's Python
regions and re-bind the parent's native module (through the module
plan the program carries; cache-cold, they re-lower the static walk
and rebuild it) instead of re-scanning and re-generating.  A native
precompile ships that plan and the renderings of the regions outside
the module, not a rendering of every member.  The host ``compile()``
step itself is memoized per process, keyed by the source text.
"""

from __future__ import annotations

from types import CodeType
from typing import Callable

from repro.errors import BusError, SimulationError
from repro.isa.c6x.instructions import TOp
from repro.vliw.codegen import resolve_backend
from repro.vliw.codegen.emit_python import PythonEmitter
from repro.vliw.codegen.lower import (
    lower_region,
    packet_device_flags,
    params_for_core,
)
from repro.vliw.core import C6xCore
from repro.utils.bits import s32


class _InterpSentinel:
    """Returned by compiled regions to hand control to the interpreter."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<interp>"


#: sentinel: "the next packet must run on the interpretive core".
INTERP = _InterpSentinel()

#: per-process memo of host ``compile()`` results, keyed by region
#: source.  The region name (which embeds the entry packet index) is
#: part of the source, so identical source implies identical behaviour;
#: every core executing the same region in one process shares one code
#: object regardless of which program object carried the source here.
#: The memo is only a cache: dropping it costs a recompile, never
#: correctness — so it is cleared wholesale once it grows past a bound
#: (a long sweep over many programs would otherwise pin every region's
#: code object for the process lifetime).
_HOST_CODE: dict[str, CodeType] = {}
_HOST_CODE_LIMIT = 8192


def _host_code(source: str, pc0: int) -> CodeType:
    code = _HOST_CODE.get(source)
    if code is None:
        if len(_HOST_CODE) >= _HOST_CODE_LIMIT:
            _HOST_CODE.clear()
        code = compile(source, f"<packet-region {pc0}>", "exec")
        _HOST_CODE[source] = code
    return code


class PacketCompiler:
    """Compiles and dispatches packet regions of one core's program.

    One compiler owns one :class:`C6xCore`; compiled functions close
    over that core's mutable state (register file, data memory, stats,
    sync device), so the compiler must be rebuilt if the core is.
    *backend* selects the stage-3 emitter set: ``"compiled"`` renders
    every region as host Python, and ``"native"`` additionally routes
    regions through the C superblock emitter (transparently
    downgrading to the Python emitter when no toolchain is available).
    """

    def __init__(self, core: C6xCore, max_region_packets: int = 256,
                 backend: str = "compiled",
                 inline_shared: bool = True) -> None:
        spec = resolve_backend(backend)
        if not spec.compiled:
            raise SimulationError(
                f"backend {spec.name!r} does not use the packet compiler")
        self.core = core
        self.program = core.program
        self.target = core.target
        self.backend = backend
        #: inline shared-segment accesses at region entry (the modern
        #: fast path); False restores the historical emitter that bails
        #: every shared access to the interpreter — kept as the
        #: reference baseline of the lockstep differential contract
        self.inline_shared = inline_shared
        self.max_region_packets = max_region_packets
        self.exit_device = core.bridge.bus.device("exit")
        self.emitter = PythonEmitter(inline_shared=inline_shared)
        self.params = params_for_core(core)
        #: run-ahead flag cell (``_ra`` in region namespaces): while a
        #: provably-private window executes, inline shared-access
        #: entries bail instead of arbitrating — no shared access may
        #: ever run inside a window
        self.runahead: list = [False]
        #: shared-segment accesses executed inline by compiled regions
        #: (cell 0; incremented by emitted code)
        self.inline_calls: list = [0]
        #: packets handed back to the interpretive core by compiled
        #: regions (shared bails, uncompilable shapes)
        self.interp_bails = 0
        #: the active cycle limit native superblocks budget against:
        #: ``run_slice`` keeps cell 0 at ``min(until, max_cycles)`` so
        #: internal chain edges stop at the same lockstep-quantum
        #: boundaries per-region dispatch would
        self._limit: list = [200_000_000]
        #: block-function cache: entry packet index -> compiled callable
        #: (or the INTERP sentinel for entries only the core can run)
        self._fns: dict[int, Callable | _InterpSentinel] = {}
        #: memo of :meth:`inline_entry_fn` (None entries cached too)
        self._inline_entry_fns: dict[int, Callable | None] = {}
        self.regions_compiled = 0
        #: regions whose source this compiler had to generate (cache
        #: misses) vs. regions served without generating anything: the
        #: source was already in the program-level cache (e.g. shipped
        #: from a parent process) or the loaded native module runs them
        self.regions_generated = 0
        self.regions_from_cache = 0
        # Program-level caches of generated region source and IR,
        # shared by every compiler (and therefore platform) executing
        # this translation — and, because both pickle, by worker
        # processes receiving the pickled program.  Generated code
        # bakes in the platform's stall parameters (the memory and
        # device-window geometry is a property of the target
        # architecture, hence of the program itself), so the caches are
        # keyed by them: platforms with different stall costs never
        # share code.  Code entries are ``(source, name, n_packets)``;
        # ``(None, None, 0)`` marks entries only the interpreter runs
        # (mirrored by ``None`` in the IR cache).  The historical
        # bail-all-shared emitter renders different source, so it gets
        # its own key — the default (inline) key is the one
        # ``precompile_program`` fills and workers receive.
        self.cache_params = (core.sync_access_stall,
                             core.bridge.access_stall)
        if not inline_shared:
            self.cache_params += ("bail",)
        self._code_cache = self._program_cache("_region_code_cache")
        self._ir_cache = self._program_cache("_region_ir_cache")
        self._native = None
        if spec.native:
            from repro.vliw.codegen.native import NativeContext

            self._native = NativeContext.attach(self)

    def _program_cache(self, attr: str) -> dict:
        caches = getattr(self.program, attr, None)
        if caches is None:
            caches = {}
            setattr(self.program, attr, caches)
        return caches.setdefault(self.cache_params, {})

    @property
    def native_context(self):
        """The live native module context, or None (Python emitter)."""
        return self._native

    # -- dispatch ----------------------------------------------------------

    def run(self, max_cycles: int = 200_000_000) -> None:
        """Execute until halt, exit-device write, or the cycle limit."""
        self.run_slice(None, max_cycles)

    def run_slice(self, until: int | None,
                  max_cycles: int = 200_000_000) -> None:
        """Advance execution until ``core.cycles >= until``.

        ``None`` runs to completion (halt, exit-device write, or the
        cycle limit).  A finite *until* is the multi-core lockstep
        quantum: the core always makes forward progress and stops at
        the first region boundary at or past *until*, so it may
        overshoot by up to one region — machine state is
        architecturally consistent whenever this returns.

        Packets the compiler hands to the interpreter (INTERP regions,
        shared-device bails, pipeline drains after a spilled in-flight
        branch) run at **single-packet granularity with respect to the
        quantum**: once ``until`` is reached, the pending interpretive
        packet is deferred to the next slice instead of running now.
        That keeps every shared-device access executing while its core
        sits exactly at the lockstep scheduler's global minimum cycle,
        which is what makes shared-access interleaving identical for
        interpreted and packet-compiled cores.  Compiled dispatch only
        resumes once no branch is in flight — regions assume a clean
        pipeline at entry.
        """
        core = self.core
        fns = self._fns
        step = core.step_packet
        exit_device = self.exit_device
        # native superblocks budget against this cell so internal
        # chaining stops at the same quantum boundary this loop checks
        # below
        self._limit[0] = (max_cycles if until is None
                          else min(until, max_cycles))
        while (not core.halted and not exit_device.exited
               and (until is None or core.cycles < until)):
            if core._pending_branch is None:
                nxt = fns.get(core.pc)
                if nxt is None:
                    nxt = self.function_for(core.pc)
                while nxt is not None and nxt is not INTERP:
                    nxt = nxt()
                    if core.cycles >= max_cycles:
                        raise SimulationError(
                            f"target cycle limit {max_cycles} exceeded")
                    if (until is not None and core.cycles >= until
                            and nxt is not INTERP):
                        # re-entry dispatches through the
                        # block-function cache at core.pc, which every
                        # epilogue keeps set
                        return
                if nxt is None:  # a compiled region ran HALT or exit
                    return
                # INTERP hand-off: the next packet must run on the
                # interpretive core.  Defer it to the next slice when
                # this one is already exhausted (the loop head's
                # pending-branch check resumes a spilled pipeline).
                if until is not None and core.cycles >= until:
                    return
                self.interp_bails += 1
            step()
            if core.cycles >= max_cycles:
                raise SimulationError(
                    f"target cycle limit {max_cycles} exceeded")

    def run_private_slice(self, until: int,
                          max_cycles: int = 200_000_000) -> None:
        """Advance through provably-private code only (run-ahead).

        The adaptive lockstep barrier's window executor (see
        :meth:`~repro.vliw.sync.AdaptiveSyncMember.advance_private`):
        like :meth:`run_slice`, but **no shared-segment access and no
        interpreter step may execute** — while the window's ``_ra``
        flag is up, inline shared-access entries bail, and every INTERP
        hand-off (shared bails, uncompilable shapes, immature-branch
        drains) is deferred to the next *normal* lockstep round instead
        of stepping the core here.  Anything this method does execute
        is core-local and schedule independent, which is what makes the
        window invisible to every observable.
        """
        core = self.core
        exit_device = self.exit_device
        if (core.halted or exit_device.exited or core.cycles >= until
                or core._pending_branch is not None):
            return
        self._limit[0] = min(until, max_cycles)
        self.runahead[0] = True
        try:
            nxt = self._fns.get(core.pc)
            if nxt is None:
                nxt = self.function_for(core.pc)
            while nxt is not None and nxt is not INTERP:
                nxt = nxt()
                if core.cycles >= max_cycles:
                    raise SimulationError(
                        f"target cycle limit {max_cycles} exceeded")
                if core.cycles >= until and nxt is not INTERP:
                    return
            # nxt is None (halt/exit inside the window) or INTERP
            # (defer the pending packet to the next normal round)
        finally:
            self.runahead[0] = False

    def inline_entry_fn(self, pc0: int):
        """The Python rendering of the device-entry region at *pc0*.

        Used by the native runtime when a superblock bails at its own
        entry packet without retiring anything (a shared-access entry
        under inline mode): the Python rendering performs the access
        inline — arbitration, stalls and all — instead of bouncing the
        packet to the interpreter on every poll-loop iteration.
        Returns None (and the caller keeps the interpreter hand-off)
        when inline mode is off or the entry is not a device packet.
        """
        if pc0 in self._inline_entry_fns:
            return self._inline_entry_fns[pc0]
        fn = None
        if self.inline_shared:
            source, _name, n_packets = self._entry(pc0)
            if (source is not None and n_packets
                    and packet_device_flags(self.program, pc0, 1)[0]):
                fn = self._python_region(pc0)
        self._inline_entry_fns[pc0] = fn
        return fn

    def function_for(self, pc: int):
        """The compiled function entering at packet *pc* (cached)."""
        fn = self._fns.get(pc)
        if fn is None:
            fn = self._compile_region(pc)
            self._fns[pc] = fn
        return fn

    # -- region discovery --------------------------------------------------

    def _scan(self, pc0: int):
        """Find the straight-line region starting at packet *pc0*.

        Returns ``(n_packets, end_kind, branch_offset)`` where
        *end_kind* is one of:

        * ``'branch'`` — a single branch issued and matured inside the
          region; the region ends exactly at the maturation point;
        * ``'halt'`` — the last packet holds an unpredicated HALT;
        * ``'cut'`` — length cap reached; fall through to a chained
          successor region;
        * ``'interp'`` — the next packet needs the interpretive core
          (a second in-flight branch or the end of the program).
        """
        packets = self.program.packets
        bds = self.target.branch_delay_slots
        k = 0
        branch_off: int | None = None
        while True:
            if branch_off is not None and k == branch_off + 1 + bds:
                return k, "branch", branch_off
            idx = pc0 + k
            if idx >= len(packets):
                return k, "interp", branch_off
            packet = packets[idx]
            has_branch = any(i.op is TOp.B for i in packet.instrs)
            if has_branch and branch_off is not None:
                return k, "interp", branch_off
            if has_branch:
                branch_off = k
            elif branch_off is None and k >= self.max_region_packets:
                return k, "cut", None
            k += 1
            if any(i.op is TOp.HALT and i.pred is None
                   for i in packet.instrs):
                return k, "halt", branch_off

    # -- lowering + emission -----------------------------------------------

    def _generate_entry(self, pc0: int) -> tuple:
        """Scan, lower and emit the cache entries for the region at
        *pc0* — stage 2 (Region IR) and the reference stage-3 rendering
        (Python source) in one pass; both land in the program-level
        caches."""
        n_packets, end_kind, branch_off = self._scan(pc0)
        if n_packets == 0:
            entry = (None, None, 0)
            self._ir_cache[pc0] = None
        else:
            region_ir = lower_region(self.program, self.params, pc0,
                                     n_packets, end_kind, branch_off)
            source, name = self.emitter.emit(region_ir)
            entry = (source, name, n_packets)
            self._ir_cache[pc0] = region_ir
        self._code_cache[pc0] = entry
        return entry

    def _entry(self, pc0: int) -> tuple:
        """The code-cache entry of region *pc0*, generated on a miss."""
        cached = self._code_cache.get(pc0)
        if cached is None:
            cached = self._generate_entry(pc0)
            self.regions_generated += 1
        return cached

    def _compile_region(self, pc0: int):
        if self._native is not None:
            fn = self._native.wrapper_for(pc0)
            if fn is not None:
                # the loaded module serves it: no source needed
                self.regions_compiled += 1
                self.regions_from_cache += 1
                return fn
        if pc0 in self._code_cache:
            self.regions_from_cache += 1
        if self._entry(pc0)[0] is None:  # an interpreter-only entry
            return INTERP
        self.regions_compiled += 1
        return self._python_region(pc0)

    def _python_region(self, pc0: int):
        """The Python-emitted callable for region *pc0*, uncached.

        The ``compiled`` backend builds every region with it, and the
        ``native`` backend each region its C module does not cover.
        The native runtime also uses it to demote a region whose
        packets keep bailing to the interpreter (bus-bridge traffic):
        the Python rendering dispatches device accesses inline instead
        of re-executing packets on the core, so it is the faster engine
        for exactly those regions.  Both renderings mutate identical
        state, so swapping at a region boundary is always safe.  A
        region without a rendering yet (a native module member) is
        lowered and rendered here.
        """
        source, name, _n_packets = self._entry(pc0)
        ns = self._namespace()
        exec(_host_code(source, pc0), ns)
        return ns[name]

    def static_regions(self) -> list[int]:
        """Entry pcs of every statically reachable region, ascending.

        Walks the program from its entry, every label (static branch
        targets) and every indirect-branch landing site
        (``addr_to_packet``), following region fall-throughs.  Region
        lengths come from the code cache or a packet scan: nothing is
        lowered.
        """
        program = self.program
        n = len(program.packets)
        pending = {program.entry}
        pending.update(program.labels.values())
        pending.update(program.addr_to_packet.values())
        seen: set[int] = set()
        while pending:
            pc0 = pending.pop()
            if pc0 in seen or not 0 <= pc0 < n:
                continue
            seen.add(pc0)
            entry = self._code_cache.get(pc0)
            n_packets = entry[2] if entry is not None else self._scan(pc0)[0]
            if n_packets:
                pending.add(pc0 + n_packets)
        return sorted(seen)

    def precompile(self) -> int:
        """Generate source + IR for the statically reachable regions.

        Fills the program-level caches for every region of
        :meth:`static_regions` without executing anything — except, on
        a compiler with a live native module, the module's members:
        the module runs those, and a run that needs one's Python
        rendering (demotion, device hand-off) generates it then.
        Returns the number of regions generated.  A parent process
        calls this once per translation so that pickled copies of the
        program carry ready-made region source and IR (and, on native,
        the module plan) to worker processes.
        """
        plan = self._native.plan if self._native is not None else ()
        generated = 0
        for pc0 in self.static_regions():
            if pc0 not in self._code_cache and pc0 not in plan:
                self._generate_entry(pc0)
                generated += 1
        self.regions_generated += generated
        return generated

    def _namespace(self) -> dict:
        core = self.core
        return dict(
            core=core,
            _regs=core.regs,
            _mem=core._mem,
            sync=core.sync,
            bridge=core.bridge,
            stats=core.stats,
            _bex=core.stats.block_executions,
            _a2p=self.program.addr_to_packet,
            _exitdev=self.exit_device,
            s32=s32,
            fb=int.from_bytes,
            _SimulationError=SimulationError,
            _BusError=BusError,
            _INTERP=INTERP,
            _ra=self.runahead,
            _ilc=self.inline_calls,
            _link=self._link,
            _goto=self.function_for,
            _ct=[None],
            _cf=[None],
        )

    def _link(self, cell: list, pc: int):
        """Lazily resolve a static chain target into its cell."""
        fn = self.function_for(pc)
        cell[0] = fn
        return fn


def precompile_program(program, source_arch=None, sync_rate: float = 1.0,
                       bridge_stall: int = 4, sync_access_stall: int = 4,
                       strict: bool = True, backend: str = "compiled",
                       inline_shared: bool = True) -> int:
    """Populate *program*'s region caches without executing it.

    Builds a throwaway platform (region code bakes in the core's
    memory geometry and the platform's stall parameters, so a core must
    exist) and statically walks every reachable region.  After this,
    pickling the program ships the generated source and IR along with
    it, and any :class:`PacketCompiler` with the same stall parameters
    — in this process or a worker — executes straight from the cache.
    ``backend="native"`` instead finds the program's native module
    through its disk record (emitting, compiling and recording it on a
    miss) and ships the module plan plus the renderings of the regions
    outside the module; workers (sharing the cache directory) only
    ``dlopen`` the module, and generate just the Python renderings
    their run needs (device hand-offs, demoted members).  On a record
    miss the full walk's renderings ride along as well.  Returns the
    number of regions generated.

    *inline_shared* must match the emitter mode of the compilers that
    will consume the cache (the code caches are keyed by it): True for
    adaptive-quantum SoCs (the default everywhere), False for the
    historical fixed-quantum bail-all-shared mode.
    """
    from repro.vliw.platform import PrototypingPlatform

    platform = PrototypingPlatform(
        program, source_arch=source_arch, sync_rate=sync_rate,
        bridge_stall=bridge_stall, sync_access_stall=sync_access_stall,
        strict=strict, backend=backend)
    return PacketCompiler(platform.core, backend=backend,
                          inline_shared=inline_shared).precompile()
