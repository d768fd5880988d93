"""Native backend runtime: compile, cache, load and drive C regions.

:mod:`~repro.vliw.codegen.emit_c` renders regions to one C99
translation unit per (program, stall parameters); this module turns
that source into running code:

* **Toolchain discovery** — ``$REPRO_CC`` / ``$CC`` or the first of
  ``cc``/``gcc``/``clang``/``tcc`` that passes a probe compile,
  memoized per process.  ``REPRO_NATIVE=0`` disables the native path
  entirely; with no working toolchain the native backend silently
  renders every region through the Python emitter instead — same
  observables, no hard dependency.
* **Disk cache** — shared objects are content-addressed by the SHA-256
  of the generated C (which is itself a deterministic function of the
  Region IR set) plus the ABI revision, under ``$REPRO_NATIVE_CACHE``
  or ``~/.cache/repro-cabt/native``.  A second process — or a sharded
  evaluation worker — finds the parent's build and only ``dlopen``\\ s;
  a worker on a cold cache re-emits from the IR shipped with the
  pickled program and rebuilds.  Writes are atomic (temp + rename), so
  concurrent builders race harmlessly.
* **Bindings** — cffi in ABI mode when importable (faster calls),
  ctypes otherwise.  Both operate **in place** on the core's register
  file (an ``array('I')`` by construction) and data memory, so both
  buffers cross the FFI boundary without copying.
* **Wrappers** — each superblock *entry* gets a small Python closure
  obeying the dispatch contract of :mod:`repro.vliw.compiled` (return
  the next region's callable, ``INTERP``, or ``None``).  Per call the
  wrapper loads the sync-device mirror, the in-flight writebacks and
  the remaining lockstep-quantum budget into the ABI struct, calls the
  C function — which may chain through many member regions internally
  — then stores the mirror back (all exit paths: the device mutates
  exactly as far as the interpreter's would), applies the accumulated
  totals (statistics, dirty block-site counters, stall charges, the
  rebased in-flight set and pending branch) and chains.  A member that
  keeps bailing — bus-bridge traffic in a loop — is *demoted*: its bit
  in the module-wide ``sb_off`` bitmap turns every native entry and
  internal chain edge into an exit, and its Python rendering (which
  dispatches device accesses inline) takes over, so steady-state
  performance is never worse than the packet compiler's.  The bail
  threshold is :data:`BAIL_SWITCH`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile

from repro.errors import BusError, SimulationError
from repro.vliw.codegen.emit_c import (
    ABI_VERSION,
    CEmitter,
    KIND_BADBRANCH,
    KIND_BAIL,
    KIND_BUSERR_LOAD,
    KIND_BUSERR_STORE,
    KIND_CHAIN,
    KIND_ERROR_BASE,
    KIND_HALT,
    KIND_INFLIGHT_OVF,
    KIND_SYNC_BADREAD,
    KIND_SYNC_BADWRITE,
    KIND_SYNC_PROTO_CORR,
    KIND_SYNC_PROTO_MAIN,
    RIO_STRUCT,
)
from repro.vliw.codegen.ir import RegionIR

#: bails after which a native member demotes to its Python rendering
#: (read at every bail, so tests can patch it)
BAIL_SWITCH = 16

#: wall-clock cap on one module build, in seconds
CC_TIMEOUT_S = 300

#: probe program for toolchain discovery
_PROBE = "int _repro_probe(int x) { return x + 1; }\n"

#: per-process toolchain memo: unset / None (unavailable) / path
_TOOLCHAIN: list = []

#: per-process loaded modules, keyed by content digest
_LOADED: dict[str, object] = {}


def native_disabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "").lower() in ("0", "off", "no")


def cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-cabt",
                        "native")


def toolchain() -> str | None:
    """Path of a working C compiler, or None (memoized per process).

    Pure probe: deliberately independent of ``REPRO_NATIVE`` (which is
    re-checked on every :meth:`NativeContext.attach`, so toggling the
    kill switch mid-process behaves), and not required at all when the
    module is already in the disk cache — use :func:`native_available`
    for "could the native backend produce C-backed regions right now".
    """
    if _TOOLCHAIN:
        return _TOOLCHAIN[0]
    found = None
    candidates = [os.environ.get("REPRO_CC"), os.environ.get("CC"),
                  "cc", "gcc", "clang", "tcc"]
    for candidate in candidates:
        if not candidate:
            continue
        path = shutil.which(candidate)
        if path and _probe(path):
            found = path
            break
    _TOOLCHAIN.append(found)
    return found


def native_available() -> bool:
    """True if ``backend="native"`` can compile regions to C *now*.

    The test suites skip C-path assertions on this (a warm disk cache
    can still serve prebuilt modules without a toolchain, but that is
    opportunistic, not something to assert on).
    """
    return not native_disabled() and toolchain() is not None


def _probe(cc: str) -> bool:
    """One throwaway shared-object build proves the toolchain works."""
    workdir = tempfile.mkdtemp(prefix="repro-cc-probe-")
    try:
        src = os.path.join(workdir, "probe.c")
        out = os.path.join(workdir, "probe.so")
        with open(src, "w") as handle:
            handle.write(_PROBE)
        result = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-std=c99", src, "-o", out],
            capture_output=True, timeout=60)
        return result.returncode == 0 and os.path.exists(out)
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def source_digest(c_source: str) -> str:
    """Content address of one module: generated C + ABI revision."""
    blob = f"abi{ABI_VERSION}\n{c_source}".encode()
    return hashlib.sha256(blob).hexdigest()


def build_shared(c_source: str, digest: str | None = None) -> str | None:
    """Compile *c_source* into the disk cache; returns the .so path.

    Cache hits skip the compiler entirely, so a host without a
    toolchain can still run modules built earlier (or elsewhere on a
    shared cache).  Returns None when the module is not cached and no
    toolchain is available or the build fails.
    """
    digest = digest or source_digest(c_source)
    directory = cache_dir()
    so_path = os.path.join(directory, f"{digest}.so")
    if os.path.exists(so_path):
        return so_path
    cc = toolchain()
    if cc is None:
        return None
    # temp files not yet renamed into place; removed on every failure
    # path (a failed write, a non-zero exit, a timeout)
    pending: list[str] = []
    try:
        os.makedirs(directory, exist_ok=True)
        c_path = os.path.join(directory, f"{digest}.c")
        fd, tmp_c = tempfile.mkstemp(dir=directory, suffix=".c")
        pending.append(tmp_c)
        with os.fdopen(fd, "w") as handle:
            handle.write(c_source)
        os.replace(tmp_c, c_path)
        pending.remove(tmp_c)
        fd, tmp_so = tempfile.mkstemp(dir=directory, suffix=".so")
        pending.append(tmp_so)
        os.close(fd)
        result = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-std=c99", c_path,
             "-o", tmp_so],
            capture_output=True, timeout=CC_TIMEOUT_S)
        if result.returncode != 0:
            return None
        os.replace(tmp_so, so_path)
        pending.remove(tmp_so)
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        for path in pending:
            try:
                os.unlink(path)
            except OSError:
                pass


# -- FFI bindings ------------------------------------------------------------


class CffiBinding:
    """cffi ABI-mode binding of one compiled module (preferred)."""

    kind = "cffi"

    def __init__(self, so_path: str, symbols) -> None:
        import cffi

        ffi = cffi.FFI()
        decls = "".join(
            f"int32_t {symbol}(uint32_t *regs, uint8_t *mem, rio_t *io);\n"
            for symbol in symbols)
        ffi.cdef(RIO_STRUCT + decls)
        self.ffi = ffi
        self.lib = ffi.dlopen(so_path)

    def fn(self, symbol: str):
        return getattr(self.lib, symbol)

    def new_io(self):
        return self.ffi.new("rio_t *")

    def u32_buffer(self, obj):
        return self.ffi.from_buffer("uint32_t[]", obj,
                                    require_writable=True)

    def u8_buffer(self, obj):
        return self.ffi.from_buffer("uint8_t[]", obj, require_writable=True)

    def set_a2p(self, io, addrs, idxs) -> tuple:
        """Install the landing map; returns refs the caller must hold."""
        if not addrs:
            io.a2p_n = 0
            io.a2p_addr = self.ffi.NULL
            io.a2p_idx = self.ffi.NULL
            return ()
        addr_arr = self.ffi.new("uint32_t[]", addrs)
        idx_arr = self.ffi.new("int32_t[]", idxs)
        io.a2p_n = len(addrs)
        io.a2p_addr = addr_arr
        io.a2p_idx = idx_arr
        return (addr_arr, idx_arr)

    def u8_array(self, n: int):
        return self.ffi.new("uint8_t[]", max(n, 1))

    def i64_array(self, n: int):
        return self.ffi.new("int64_t[]", max(n, 1))

    def i32_array(self, n: int):
        return self.ffi.new("int32_t[]", max(n, 1))

    def set_sb(self, io, off, blk, blk_dirty) -> None:
        """Install the module-wide superblock state arrays."""
        io.sb_off = off
        io.blk = blk
        io.blk_dirty = blk_dirty


class CtypesBinding:
    """ctypes binding: always available, slightly slower calls."""

    kind = "ctypes"

    def __init__(self, so_path: str, symbols) -> None:
        import ctypes

        from repro.vliw.codegen.emit_c import IN_MAX, SPILL_MAX

        class Rio(ctypes.Structure):
            _fields_ = [
                ("in_n", ctypes.c_int32),
                ("in_reg", ctypes.c_int32 * IN_MAX),
                ("in_mat", ctypes.c_int32 * IN_MAX),
                ("in_val", ctypes.c_uint32 * IN_MAX),
                ("a2p_n", ctypes.c_int32),
                ("a2p_addr", ctypes.POINTER(ctypes.c_uint32)),
                ("a2p_idx", ctypes.POINTER(ctypes.c_int32)),
                ("sb_off", ctypes.POINTER(ctypes.c_uint8)),
                ("blk", ctypes.POINTER(ctypes.c_int64)),
                ("blk_dirty", ctypes.POINTER(ctypes.c_int32)),
                ("kind", ctypes.c_int32),
                ("next_pc", ctypes.c_int32),
                ("sb_pc", ctypes.c_int32),
                ("aux", ctypes.c_uint32),
                ("blocks_done", ctypes.c_int32),
                ("n_spill", ctypes.c_int32),
                ("spill_reg", ctypes.c_int32 * SPILL_MAX),
                ("spill_mat", ctypes.c_int32 * SPILL_MAX),
                ("spill_val", ctypes.c_uint32 * SPILL_MAX),
                ("pb", ctypes.c_int32),
                ("pb_mat", ctypes.c_int32),
                ("pb_target", ctypes.c_int32),
                ("budget", ctypes.c_int64),
                ("executed_total", ctypes.c_int64),
                ("instr_total", ctypes.c_int64),
                ("nop_total", ctypes.c_int64),
                ("src_total", ctypes.c_int64),
                ("sync_stall", ctypes.c_int64),
                ("sync_rate", ctypes.c_double),
                ("sync_acc", ctypes.c_double),
                ("sync_pending_main", ctypes.c_int64),
                ("sync_pending_corr", ctypes.c_int64),
                ("sync_emulated", ctypes.c_int64),
                ("sync_blocks_started", ctypes.c_int64),
                ("sync_corrections_started", ctypes.c_int64),
                ("sync_cycles_generated", ctypes.c_int64),
                ("sync_corr_cycles_generated", ctypes.c_int64),
            ]

        self._ctypes = ctypes
        self._rio = Rio
        self.lib = ctypes.CDLL(so_path)
        argtypes = [ctypes.POINTER(ctypes.c_uint32),
                    ctypes.POINTER(ctypes.c_ubyte), ctypes.POINTER(Rio)]
        for symbol in symbols:
            fn = getattr(self.lib, symbol)
            fn.restype = ctypes.c_int32
            fn.argtypes = argtypes

    def fn(self, symbol: str):
        return getattr(self.lib, symbol)

    def new_io(self):
        return self._rio()

    def u32_buffer(self, obj):
        return (self._ctypes.c_uint32 * len(obj)).from_buffer(obj)

    def u8_buffer(self, obj):
        return (self._ctypes.c_ubyte * len(obj)).from_buffer(obj)

    def set_a2p(self, io, addrs, idxs) -> tuple:
        ctypes = self._ctypes
        if not addrs:
            io.a2p_n = 0
            return ()
        addr_arr = (ctypes.c_uint32 * len(addrs))(*addrs)
        idx_arr = (ctypes.c_int32 * len(idxs))(*idxs)
        io.a2p_n = len(addrs)
        io.a2p_addr = ctypes.cast(addr_arr, ctypes.POINTER(ctypes.c_uint32))
        io.a2p_idx = ctypes.cast(idx_arr, ctypes.POINTER(ctypes.c_int32))
        return (addr_arr, idx_arr)

    def u8_array(self, n: int):
        return (self._ctypes.c_uint8 * max(n, 1))()

    def i64_array(self, n: int):
        return (self._ctypes.c_int64 * max(n, 1))()

    def i32_array(self, n: int):
        return (self._ctypes.c_int32 * max(n, 1))()

    def set_sb(self, io, off, blk, blk_dirty) -> None:
        ctypes = self._ctypes
        io.sb_off = ctypes.cast(off, ctypes.POINTER(ctypes.c_uint8))
        io.blk = ctypes.cast(blk, ctypes.POINTER(ctypes.c_int64))
        io.blk_dirty = ctypes.cast(blk_dirty,
                                   ctypes.POINTER(ctypes.c_int32))


def _load_binding(so_path: str, symbols):
    """cffi if importable, ctypes otherwise."""
    try:
        return CffiBinding(so_path, symbols)
    except ImportError:
        return CtypesBinding(so_path, symbols)


# -- the per-compiler context ------------------------------------------------


class NativeContext:
    """Native execution state of one :class:`PacketCompiler`.

    Owns the loaded module, the core's FFI buffers and the per-region
    wrapper cache.  Construction is all-or-nothing per *module*; region
    coverage is partial by design — :meth:`wrapper_for` returns None
    for regions the module does not contain (declined shapes, entries
    discovered only at run time), and the compiler falls back to the
    Python emitter for exactly those.
    """

    @classmethod
    def attach(cls, compiler) -> "NativeContext | None":
        """Build or load the native module for *compiler*'s program.

        Returns None — native off, Python emitter everywhere — when the
        native path is disabled, no region compiled, or neither a
        cached shared object nor a working toolchain is available.
        """
        if native_disabled():
            return None
        program = compiler.program
        plans = getattr(program, "_native_plans", None)
        if plans is None:
            plans = {}
            program._native_plans = plans
        plan_entry = plans.get(compiler.cache_params)
        landing = tuple(sorted(program.addr_to_packet.values()))
        source = None
        if plan_entry is None:
            # emitting the module is pure Python: do it even without a
            # toolchain, because a warm disk cache can serve the .so
            # compiler-free (build_shared only compiles on a miss)
            source, plan = CEmitter().emit_module(
                cls._module_irs(compiler), landing)
            digest = source_digest(source)
            plans[compiler.cache_params] = (digest, plan)
        else:
            digest, plan = plan_entry
        if not plan:
            return None
        binding = _LOADED.get(digest)
        if binding is None:
            so_path = os.path.join(cache_dir(), f"{digest}.so")
            if not os.path.exists(so_path):
                if toolchain() is None:
                    return None
                if source is None:
                    # cold cache (e.g. a worker on a fresh cache dir):
                    # rebuild from the IR shipped with the program
                    source, plan = CEmitter().emit_module(
                        cls._module_irs(compiler), landing)
                    if source_digest(source) != digest:
                        return None  # pragma: no cover - caches in sync
                so_path = build_shared(source, digest)
                if so_path is None:
                    return None
            binding = _load_binding(so_path, plan.symbols())
            _LOADED[digest] = binding
        return cls(compiler, binding, plan)

    @staticmethod
    def _module_irs(compiler) -> list[RegionIR]:
        compiler.precompile()
        return [ir for ir in compiler._ir_cache.values() if ir is not None]

    def __init__(self, compiler, binding, plan) -> None:
        self.compiler = compiler
        self.binding = binding
        #: the :class:`~repro.vliw.codegen.trace.ModulePlan`
        self.plan = plan
        core = compiler.core
        # C6xCore guarantees buffer-protocol register storage from
        # construction; replacing the object here instead would strand
        # every Python-emitted region exec'd on this core before the
        # attach (another compiler may have run it) on a dead snapshot
        # of the register file
        self.regs_buf = binding.u32_buffer(core.regs)
        self.mem_buf = binding.u8_buffer(core._mem)
        self.io = binding.new_io()
        self.io.sync_rate = core.sync.rate
        landing = sorted(compiler.program.addr_to_packet.items())
        self._a2p_refs = binding.set_a2p(
            self.io, [addr for addr, _ in landing],
            [index for _, index in landing])
        # module-wide superblock state the generated C indexes: the
        # per-member demotion bitmap, the block-site counters and their
        # dirty list (wrapper folds + zeroes touched sites per call)
        self._off = binding.u8_array(plan.n_members)
        self._blk = binding.i64_array(len(plan.block_sites))
        self._blk_dirty = binding.i32_array(len(plan.block_sites))
        binding.set_sb(self.io, self._off, self._blk, self._blk_dirty)
        #: entry pc -> (wrapper, fallback cell) of built wrappers
        self._wrappers: dict[int, tuple] = {}
        #: interpreter bails per member entry (demotion attribution)
        self._bails: dict[int, int] = {}
        self._demoted: set[int] = set()
        #: superblock entries this core actually runs natively
        self.regions_native = 0
        #: native members demoted to their Python rendering at run time
        self.regions_demoted = 0

    @property
    def n_native_regions(self) -> int:
        """Region entries of the program's module compiled to C."""
        return len(self.plan)

    def wrapper_for(self, pc0: int):
        """The dispatch-contract callable for superblock entry *pc0*."""
        if pc0 in self._demoted:
            return None
        entry = self.plan.entry(pc0)
        if entry is None:
            return None
        cached = self._wrappers.get(pc0)
        if cached is None:
            fallback: list = [None]
            wrapper = self._make_wrapper(pc0, self.binding.fn(entry[0]),
                                         fallback)
            cached = (wrapper, fallback)
            self._wrappers[pc0] = cached
            self.regions_native += 1
        return cached[0]

    def _count_bail(self, pc0: int) -> None:
        """One interpreter bail attributed to member entry *pc0*."""
        bails = self._bails.get(pc0, 0) + 1
        self._bails[pc0] = bails
        if bails >= BAIL_SWITCH and pc0 not in self._demoted:
            self.demote(pc0)

    def demote(self, pc0: int) -> None:
        """Retire member *pc0* from native execution for good.

        Bridge-window traffic in a loop: the member is
        interpreter-bound, so its Python rendering (which dispatches
        device accesses inline) wins.  Setting its bit in the
        module-wide ``sb_off`` bitmap turns every native dispatch and
        internal chain edge into an exit; the block-function cache and
        any stale wrapper reference (via its fallback cell) swap to the
        Python rendering for every future entry.
        """
        self._demoted.add(pc0)
        entry = self.plan.entry(pc0)
        if entry is not None:
            self._off[entry[1]] = 1
        python_fn = self.compiler._python_region(pc0)
        cached = self._wrappers.get(pc0)
        if cached is not None:
            cached[1][0] = python_fn
        self.compiler._fns[pc0] = python_fn
        self.regions_demoted += 1

    def _make_wrapper(self, pc0: int, cfun, fallback: list):
        """Close the Python half of one superblock entry over the core.

        The C function chains internally through member regions and
        reports accumulated totals, so the wrapper needs no per-region
        prefix tables: it syncs the sync-device mirror, folds the dirty
        block-site counters, applies the totals and the rebased
        in-flight set, and follows the exit kind.
        """
        from repro.vliw.compiled import INTERP

        context = self
        compiler = self.compiler
        core = compiler.core
        stats = core.stats
        sync = core.sync
        sync_stats = sync.stats
        bex = stats.block_executions
        goto = compiler.function_for
        io = self.io
        regs_buf = self.regs_buf
        mem_buf = self.mem_buf
        blk = self._blk
        blk_dirty = self._blk_dirty
        block_sites = self.plan.block_sites
        limit_cell = compiler._limit

        def region():
            python_fn = fallback[0]
            if python_fn is not None:
                return python_fn()
            inflight = core._inflight
            ii0 = core._issue_index
            n_in = 0
            for reg, (ready, value) in inflight.items():
                io.in_reg[n_in] = reg
                io.in_mat[n_in] = ready - ii0
                io.in_val[n_in] = value
                n_in += 1
            io.in_n = n_in
            io.blocks_done = 0
            io.sync_stall = 0
            io.executed_total = 0
            io.instr_total = 0
            io.nop_total = 0
            io.src_total = 0
            io.sb_pc = pc0
            io.budget = limit_cell[0] - core.cycles
            io.sync_acc = sync._accumulator
            io.sync_pending_main = sync._pending_main
            io.sync_pending_corr = sync._pending_corr
            io.sync_emulated = sync.emulated_cycles
            io.sync_blocks_started = sync_stats.blocks_started
            io.sync_corrections_started = sync_stats.corrections_started
            io.sync_cycles_generated = sync_stats.cycles_generated
            io.sync_corr_cycles_generated = (
                sync_stats.correction_cycles_generated)
            kind = cfun(regs_buf, mem_buf, io)
            # the device mutated exactly as far as the interpreter's
            # would — store the mirror back on every exit path
            sync._accumulator = io.sync_acc
            sync._pending_main = io.sync_pending_main
            sync._pending_corr = io.sync_pending_corr
            sync.emulated_cycles = io.sync_emulated
            sync_stats.blocks_started = io.sync_blocks_started
            sync_stats.corrections_started = io.sync_corrections_started
            sync_stats.cycles_generated = io.sync_cycles_generated
            sync_stats.correction_cycles_generated = (
                io.sync_corr_cycles_generated)
            stall = io.sync_stall
            if stall:
                core._stall_cycles += stall
                stats.sync_stall_cycles += stall
            for i in range(io.blocks_done):
                site = blk_dirty[i]
                bex[block_sites[site]] = (
                    bex.get(block_sites[site], 0) + blk[site])
                blk[site] = 0
            executed = io.executed_total
            ii = ii0 + executed
            core._issue_index = ii
            stats.packets_issued += executed
            stats.instructions_executed += io.instr_total
            if io.nop_total:
                stats.nop_packets += io.nop_total
            if io.src_total:
                stats.source_instructions += io.src_total
            # the C side rebased the resident in-flight set at every
            # member exit (commit-window drop + spill fold): replace
            # the dict with it wholesale
            if n_in or io.in_n:
                inflight.clear()
                for i in range(io.in_n):
                    inflight[io.in_reg[i]] = (ii + io.in_mat[i],
                                              io.in_val[i])
            if kind >= KIND_ERROR_BASE:
                # internally chained members that completed contributed
                # their totals above; the erroring member contributed
                # nothing (same contract as the packet-compiled backend)
                _raise_native_error(kind, io.aux)
            if io.pb:
                core._pending_branch = (ii + io.pb_mat, io.pb_target)
            next_pc = io.next_pc
            if kind == KIND_CHAIN:
                if executed == 0 and next_pc == pc0:
                    # stale reference to a demoted entry: no progress
                    # was made; hand the packet to the interpreter
                    return INTERP
                core.pc = next_pc
                return goto(next_pc)
            core.pc = next_pc
            if kind == KIND_HALT:
                core.halted = True
                return None
            if kind == KIND_BAIL:
                context._count_bail(io.sb_pc)
                if core._pending_branch is None:
                    # inline shared-access hand-off: chain into the
                    # Python rendering of the bailing device packet
                    # (inline arbitration, identical semantics) instead
                    # of the interpreter — the dispatch loop still
                    # applies its quantum/run-ahead checks before
                    # calling it, so deferral behavior is unchanged
                    handoff = compiler.inline_entry_fn(next_pc)
                    if handoff is not None:
                        return handoff
            return INTERP  # KIND_INTERP / KIND_BAIL

        region.__name__ = f"_native_superblock_{pc0}"
        return region


def _raise_native_error(kind: int, aux: int):
    """Re-raise the interpreter's exact exception for an error kind."""
    if kind == KIND_BADBRANCH:
        raise SimulationError(
            f"indirect branch to untranslated source address {aux:#010x}")
    if kind == KIND_BUSERR_LOAD:
        raise BusError("target load outside memory", aux)
    if kind == KIND_BUSERR_STORE:
        raise BusError("target store outside memory", aux)
    if kind == KIND_SYNC_BADWRITE:
        raise SimulationError(
            f"invalid sync-device register write at offset {aux:#x}")
    if kind == KIND_SYNC_BADREAD:
        raise SimulationError(
            f"invalid sync-device register read at offset {aux:#x}")
    if kind == KIND_SYNC_PROTO_MAIN:
        raise SimulationError(
            "sync-device protocol violation: new cycle generation "
            "started while the previous block is still generating "
            "(missing sync wait — translator bug)")
    if kind == KIND_SYNC_PROTO_CORR:
        raise SimulationError(
            "sync-device protocol violation: correction generation "
            "already running")
    if kind == KIND_INFLIGHT_OVF:
        raise SimulationError(
            "in-flight writeback overflow in native superblock "
            "(WAW scheduler hazard)")
    raise SimulationError(
        f"native region returned unknown exit kind {kind}")
