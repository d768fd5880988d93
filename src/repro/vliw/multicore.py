"""Multi-core SoC model: N VLIW cores against one SoC bus.

Scales the prototyping platform of :mod:`repro.vliw.platform` to
several emulated cores, following the multi-core full-system
acceleration line of work (Guo & Mullins; Bosbach et al.): every core
is a full :class:`~repro.vliw.core.C6xCore` with its own
synchronization device (all cores share one sync generation *rate*, so
the emulated SoC clocks advance in the same ratio) and its own bus
bridge, but all bridges decode onto a **single shared**
:class:`~repro.soc.bus.SocBus`.

Address partitioning
    Each core owns an I/O partition of ``CORE_IO_STRIDE`` bytes on the
    shared bus, holding its own instances of the standard peripherals
    (UART, cycle timer, exit device, core-id register, scratch RAM) at
    the standard offsets.  A core's bridge adds the partition base on
    the way out, so translated programs are completely unaware of the
    partitioning — the same program binary runs unmodified on any core.

The shared-device segment
    Above the partitions, at :data:`~repro.soc.bus.SHARED_IO_BASE`,
    lives the :class:`~repro.soc.bus.SharedIoMap` segment: a shared
    :class:`~repro.soc.devices.ScratchRam`, a
    :class:`~repro.soc.devices.GlobalCycleTimer` (the SoC-wide
    timebase) and an inter-core :class:`~repro.soc.devices.Mailbox`.
    Shared-segment addresses are **not** relocated per core — every
    core decodes them onto the same device instances, which is what
    lets programs on different cores communicate, and contend.

Lockstep and arbitration
    Cores tick in lockstep at target-cycle granularity: every
    scheduling round advances only the cores at the minimum cycle
    count, by (at least) one cycle.  When several cores are eligible in
    the same round — simultaneous bus masters, in hardware terms — the
    shared bus grants them in **round-robin** order: grant priority
    rotates with the round's base cycle (core ``min_cycle % n`` first),
    so the global transaction trace interleaves fairly and
    deterministically.  Packet-compiled cores advance one compiled
    region per grant (regions are the backend's atomic unit), so their
    lockstep skew is bounded by the region length cap.  Every
    shared-segment access executes while its core sits exactly at the
    global minimum cycle: under the default adaptive quantum compiled
    regions perform the access **inline** through the arbitrated core
    port at region entry (bailing to the interpreter only for accesses
    discovered mid-region, which re-enter as region entries on the next
    round), and under an integer quantum they bail every shared access
    (see :mod:`repro.vliw.compiled`).

Adaptive run-ahead
    ``quantum="adaptive"`` (the default) keeps the quantum-1 round
    structure for every round that could touch the shared segment, but
    when **every** running core is provably inside private-only code —
    per the static :mod:`repro.vliw.codegen.footprint` analysis — the
    :class:`~repro.vliw.sync.AdaptiveLockstepBarrier` grants one
    run-ahead window spanning the minimum safe bound across cores, and
    whole compiled/native region chains execute between barrier
    crossings.  Windows never contain a shared access (enforced
    dynamically: inline entries bail while the window flag is up,
    mid-region guards bail on shared addresses, interpreter hand-offs
    are deferred to the next normal round), and everything that does
    execute inside a window is core-local and schedule independent —
    so every observable is bit-identical to ``quantum=1``, which
    ``tests/test_lockstep_adaptive.py`` locks down.

Contention
    Within one arbitration round, the first core to reach a shared
    device owns it; every later access to the same device by a
    *different* core in the same round is a lost arbitration — the
    loser is charged a deterministic ``contention_stall`` of target
    cycles (recorded in ``CoreStats.contention_stall_cycles`` and as a
    ``'c'`` marker in both the global and the per-core bus trace).
    Because grant order within a round is the rotating round-robin
    priority, "first to reach" *is* the round-robin winner.
    Partition-local traffic never arbitrates, so non-sharing programs
    pay nothing and see nothing.

Determinism and the differential contract
    Arbitration reorders only the *global* trace.  Per-core observables
    are untouched by scheduling for partition-local traffic: for
    non-sharing programs each core's
    :class:`~repro.vliw.platform.PlatformResult` is **bit identical**
    to the same program run alone on a single-core
    :class:`~repro.vliw.platform.PrototypingPlatform` — the property
    ``tests/test_multicore_differential.py`` locks down for every
    registry program, detail level and backend mix.  Sharing programs
    contend, so single-core equality no longer applies to them; their
    contract is instead *backend independence*: because shared accesses
    always execute at the global minimum cycle under the round's
    rotating arbitration — interpreter-stepped or inline through the
    same arbitrated port — the shared-access interleaving, and with it
    mailbox contents, contention stalls and every observable, is
    identical across interp/compiled/mixed backend assignments
    (``tests/test_contention_differential.py``) and across
    ``quantum="adaptive"`` vs ``quantum=1``
    (``tests/test_lockstep_adaptive.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.arch.model import SourceArch, default_source_arch
from repro.errors import BusError, SimulationError
from repro.isa.c6x.packets import C6xProgram
from repro.soc.bus import (
    BusAccess,
    BusMonitor,
    IoMap,
    SharedIoMap,
    SocBus,
)
from repro.soc.devices import (
    CoreIdDevice,
    CycleTimer,
    ExitDevice,
    GlobalCycleTimer,
    Mailbox,
    ScratchRam,
    Uart,
)
from repro.vliw.bridge import BusBridge
from repro.vliw.core import C6xCore
from repro.vliw.fabric import FabricEndpoint
from repro.vliw.platform import (
    PlatformResult,
    PrototypingPlatform,
    collect_platform_result,
)
from repro.vliw.codegen.footprint import shared_footprint
from repro.vliw.sync import AdaptiveLockstepBarrier, LockstepBarrier
from repro.vliw.syncdev import SyncDevice

#: size of each core's I/O partition on the shared bus.  The standard
#: peripheral set (uart 0x00, timer 0x10, exit 0x20, coreid 0x30,
#: scratch 0x40+64) ends at 0x80; one stride per core keeps partitions
#: disjoint.  Partitions live below the shared segment at 0x1000, so
#: the stride bounds the SoC at MAX_CORES cores.
CORE_IO_STRIDE = 0x100

#: largest supported core count: partitions must stay below the
#: shared-device segment, and mailbox slots are MAX_CORES x MAX_CORES.
MAX_CORES = Mailbox.MAX_CORES

#: default target-cycle penalty charged to the round-robin loser of a
#: shared-device arbitration round.
CONTENTION_STALL = 3


class SharedBusArbiter:
    """Round-scoped ownership tracking for the shared-device segment.

    One arbitration round corresponds to one lockstep scheduling round
    of :class:`MultiCoreSoC` (identified by its global base cycle,
    which strictly increases round over round).  The first core to
    access a shared device window in a round claims it; later accesses
    by other cores in the same round lose the arbitration and are
    charged :attr:`contention_stall` target cycles.
    """

    def __init__(self, contention_stall: int = CONTENTION_STALL) -> None:
        if contention_stall < 0:
            raise SimulationError("contention stall must be >= 0")
        self.contention_stall = contention_stall
        self.round_id = 0
        #: device window name -> (round_id, owning core) of last claim
        self._owners: dict[str, tuple[int, int]] = {}
        self.conflicts = 0

    def begin_round(self, round_id: int) -> None:
        self.round_id = round_id

    def access(self, window: str, core: int) -> int:
        """Arbitrate one shared access; returns the stall to charge."""
        owner = self._owners.get(window)
        if owner is not None and owner[0] == self.round_id:
            if owner[1] == core:
                return 0  # a core never contends with itself
            self.conflicts += 1
            return self.contention_stall
        self._owners[window] = (self.round_id, core)
        return 0


class CorePort:
    """One core's window onto the shared SoC bus.

    Quacks like :class:`~repro.soc.bus.SocBus` for the core's
    :class:`~repro.vliw.bridge.BusBridge` and for result collection:
    ``read``/``write`` remap the core's partition-local address onto
    the shared bus, and a private monitor re-records every transaction
    with its *local* address — so the per-core trace is directly
    comparable with a single-core platform's bus trace, while the
    shared bus monitor keeps the globally arbitrated view.

    Addresses at or above the shared segment base pass through
    **unrelocated** (all cores see the same shared devices there) and
    are arbitrated: losing a round costs the core
    ``contention_stall`` target cycles, charged before the transfer.
    Any other offset must fall inside the core's own partition; past
    ``CORE_IO_STRIDE`` the port raises the single-core bus's
    :class:`~repro.errors.BusError`.
    """

    def __init__(self, shared: SocBus, index: int, base: int,
                 arbiter: SharedBusArbiter | None = None) -> None:
        self.shared = shared
        self.index = index
        self.base = base
        self.arbiter = arbiter
        # the segment layout is deliberately NOT configurable: compiled
        # regions bake the default SharedIoMap window into their
        # shared-segment bail guard (repro.vliw.codegen.lower), so a
        # port with a different map would break backend independence
        self.shared_map = SharedIoMap()
        self.monitor = BusMonitor()
        self.core: C6xCore | None = None  # bound by the owning slot

    def bind(self, core: C6xCore) -> None:
        """Attach the core whose clock absorbs contention stalls."""
        self.core = core

    def _global_addr(self, addr: int) -> tuple[int, bool]:
        if self.shared_map.base <= addr < self.shared_map.end:
            return addr, True
        if addr >= CORE_IO_STRIDE:
            # never a neighbour's device
            raise BusError("no device mapped", addr)
        return self.base + addr, False

    def _arbitrate(self, global_addr: int, cycle: int) -> None:
        if self.arbiter is None:
            return
        window = self.shared.mapping_name(global_addr)
        stall = self.arbiter.access(window, self.index)
        if not stall:
            return
        core = self.core
        if core is not None:
            core._stall_cycles += stall
            core.stats.contention_stall_cycles += stall
        marker = BusAccess(cycle, "c", global_addr, self.index, stall)
        self.shared.monitor.record(marker)
        self.monitor.record(BusAccess(
            cycle, "c", global_addr, self.index, stall))

    def read(self, addr: int, size: int, cycle: int) -> int:
        global_addr, is_shared = self._global_addr(addr)
        if is_shared:
            self._arbitrate(global_addr, cycle)
        value = self.shared.read(global_addr, size, cycle)
        self.monitor.record(BusAccess(cycle, "r", addr, value, size))
        return value

    def write(self, addr: int, value: int, size: int, cycle: int) -> None:
        global_addr, is_shared = self._global_addr(addr)
        if is_shared:
            self._arbitrate(global_addr, cycle)
        self.shared.write(global_addr, value, size, cycle)
        self.monitor.record(BusAccess(cycle, "w", addr, value, size))

    def device(self, name: str):
        return self.shared.device(f"{name}#{self.index}")

    def shared_device(self, name: str):
        """Look up a device of the shared segment by its global name."""
        return self.shared.device(name)


@dataclass
class MultiCorePlatformResult:
    """Observables of one multi-core platform execution."""

    per_core: list[PlatformResult]
    #: globally arbitrated transaction trace of the shared bus
    #: (addresses are partition-global: ``core_index * CORE_IO_STRIDE``
    #: plus the device offset; shared-segment addresses are absolute;
    #: ``'c'`` entries mark lost shared-device arbitrations)
    bus_trace: list[BusAccess]
    #: scheduling grants each core received from the round-robin
    #: arbiter (one grant = one lockstep advance)
    grants: list[int] = field(default_factory=list)
    #: shared-device arbitration conflicts observed SoC-wide
    contention_conflicts: int = 0
    #: lockstep scheduling profile (:meth:`MultiCoreSoC.lockstep_stats`)
    #: — run-ahead windows, inline shared calls, interpreter bails.
    #: Scheduling metadata, deliberately **not** part of
    #: :meth:`observables`: the differential contract is that
    #: observables match across quantum modes while this differs.
    lockstep: dict = field(default_factory=dict)

    @property
    def n_cores(self) -> int:
        return len(self.per_core)

    @property
    def target_cycles(self) -> int:
        """Platform runtime: the slowest core's cycle count."""
        return max((r.target_cycles for r in self.per_core), default=0)

    @property
    def contention_stall_cycles(self) -> list[int]:
        """Per-core cycles lost to shared-device contention."""
        return [r.core_stats.contention_stall_cycles for r in self.per_core]

    def shared_trace(self) -> list[BusAccess]:
        """The shared-segment slice of the global trace."""
        shared_map = SharedIoMap()
        return [a for a in self.bus_trace
                if shared_map.base <= a.addr < shared_map.end]

    def observables(self) -> list[dict]:
        """Per-core observable dicts, comparable field by field with N
        independent single-core :meth:`PlatformResult.observables`."""
        return [result.observables() for result in self.per_core]


class _CoreSlot:
    """One core's full vertical slice of the multi-core platform."""

    def __init__(self, index: int, program: C6xProgram, backend: str,
                 shared_bus: SocBus, n_cores: int,
                 arbiter: SharedBusArbiter,
                 sync_rate: float, bridge_stall: int,
                 sync_access_stall: int, strict: bool,
                 inline_shared: bool = True) -> None:
        from repro.vliw.codegen import resolve_backend

        try:
            spec = resolve_backend(backend)
        except SimulationError as exc:
            raise SimulationError(f"{exc} (core {index})") from None
        self.index = index
        self.backend = backend
        base = index * CORE_IO_STRIDE
        # the same peripheral set at the same offsets as the
        # single-core platform's standard_bus(), relocated into this
        # core's partition — the single I/O map is the source of truth
        io_map = IoMap()
        shared_bus.attach(base + io_map.uart, Uart(), f"uart#{index}")
        shared_bus.attach(base + io_map.timer, CycleTimer(),
                          f"timer#{index}")
        shared_bus.attach(base + io_map.exit, ExitDevice(), f"exit#{index}")
        shared_bus.attach(base + io_map.coreid, CoreIdDevice(index, n_cores),
                          f"coreid#{index}")
        shared_bus.attach(base + io_map.scratch, ScratchRam(64),
                          f"scratch#{index}")
        self.port = CorePort(shared_bus, index, base, arbiter)
        self.sync = SyncDevice(rate=sync_rate)
        self.bridge = BusBridge(self.port, self.sync,
                                access_stall=bridge_stall)
        self.core = C6xCore(program, self.sync, self.bridge, strict=strict,
                            sync_access_stall=sync_access_stall)
        self.port.bind(self.core)
        self.exit_device = self.port.device("exit")
        self.grants = 0
        #: run-ahead observability: windows this core actually advanced
        #: in, and the cycles it covered inside them
        self.runahead_windows = 0
        self.runahead_cycles = 0
        self._footprint = None
        if spec.compiled:
            from repro.vliw.compiled import PacketCompiler

            self._compiler = PacketCompiler(self.core, backend=backend,
                                            inline_shared=inline_shared)
        else:
            self._compiler = None

    @property
    def cycles(self) -> int:
        """Target-cycle count (the :class:`SyncMember` frontier view)."""
        return self.core.cycles

    @property
    def finished(self) -> bool:
        return self.core.halted or self.exit_device.exited

    def advance(self, until: int, max_cycles: int) -> None:
        """Run this core until its cycle count reaches *until*."""
        if self._compiler is not None:
            self._compiler.run_slice(until, max_cycles)
            return
        core = self.core
        while not self.finished and core.cycles < until:
            core.step_packet()
            if core.cycles >= max_cycles:
                raise SimulationError(
                    f"target cycle limit {max_cycles} exceeded")

    def private_bound(self) -> int:
        """Cycles this core can provably run without a shared access
        (the :class:`~repro.vliw.sync.AdaptiveSyncMember` view): the
        static footprint bound at the current pc, or 0 while a branch
        is in flight (the analysis bounds paths from packet heads, not
        from a half-drained pipeline)."""
        core = self.core
        if core._pending_branch is not None:
            return 0
        fp = self._footprint
        if fp is None:
            fp = self._footprint = shared_footprint(
                core.program, core.target.branch_delay_slots)
        return fp.bound(core.pc)

    def advance_private(self, until: int, max_cycles: int) -> None:
        """Advance inside a run-ahead window: private work only.

        Compiled backends delegate to
        :meth:`~repro.vliw.compiled.PacketCompiler.run_private_slice`
        (which defers every interpreter hand-off and whose emitted
        regions bail on shared accesses); the interpreter steps
        packets directly with a per-packet dynamic stop — it never
        steps *into* a possibly-shared packet, which is exactly the
        no-shared-access-inside-a-window invariant.
        """
        core = self.core
        start = core.cycles
        if self._compiler is not None:
            self._compiler.run_private_slice(until, max_cycles)
        else:
            fp = self._footprint
            if fp is None:
                fp = self._footprint = shared_footprint(
                    core.program, core.target.branch_delay_slots)
            risky = fp.risky
            n = len(risky)
            while not self.finished and core.cycles < until:
                pc = core.pc
                if not 0 <= pc < n or risky[pc]:
                    break  # defer to a normal round at the frontier
                core.step_packet()
                if core.cycles >= max_cycles:
                    raise SimulationError(
                        f"target cycle limit {max_cycles} exceeded")
        won = core.cycles - start
        if won > 0:
            self.runahead_windows += 1
            self.runahead_cycles += won


class MultiCoreSoC:
    """N translated programs executing in lockstep on one SoC bus.

    *programs* is either one :class:`C6xProgram` replicated onto
    *cores* cores, or a sequence of programs (one per core; *cores*
    then defaults to its length).  *backends* is one backend name for
    all cores or a per-core sequence (any name registered in
    :mod:`repro.vliw.codegen`) — interpreted, packet-compiled and
    native cores mix freely, since all mutate identical core state at
    region boundaries.

    The SoC is always shared-capable: the
    :class:`~repro.soc.bus.SharedIoMap` segment (shared scratch,
    mailbox, global timer, cluster fabric endpoint) is mapped above the
    per-core partitions, and *contention_stall* sets the target-cycle
    penalty a core pays for losing a shared-device arbitration round.
    Programs that never touch the segment behave exactly as on the
    partition-only SoC.

    *quantum* selects the lockstep scheduling mode: ``"adaptive"`` (the
    default) runs quantum-1 rounds with provably-private run-ahead
    windows and inline shared-access calls in compiled code — the fast
    path, observable-identical to ``quantum=1``; an integer runs the
    historical fixed-quantum barrier with the bail-every-shared-access
    emitter (``quantum=1`` is the reference baseline the lockstep
    differential contract compares against).

    *node*/*nodes* give the SoC its identity inside a
    :class:`~repro.vliw.cluster.Cluster` (the fabric endpoint's node-id
    registers); a standalone SoC is the degenerate single-node cluster
    ``(0, 1)``, so distributed workloads degrade gracefully on it.
    """

    def __init__(self, programs: C6xProgram | Sequence[C6xProgram],
                 cores: int | None = None,
                 backends: str | Sequence[str] = "interp",
                 source_arch: SourceArch | None = None,
                 sync_rate: float = 1.0,
                 bridge_stall: int = 4,
                 sync_access_stall: int = 4,
                 contention_stall: int = CONTENTION_STALL,
                 strict: bool = True,
                 node: int = 0,
                 nodes: int = 1,
                 quantum: int | str = "adaptive") -> None:
        if quantum != "adaptive" and not (
                isinstance(quantum, int) and not isinstance(quantum, bool)
                and quantum >= 1):
            raise SimulationError(
                f"quantum must be 'adaptive' or an int >= 1, "
                f"got {quantum!r}")
        self.quantum = quantum
        if isinstance(programs, C6xProgram):
            if cores is None:
                raise SimulationError(
                    "cores= is required when one program is replicated")
            program_list = [programs] * cores
        else:
            program_list = list(programs)
            if cores is not None and cores != len(program_list):
                raise SimulationError(
                    f"cores={cores} but {len(program_list)} programs given")
        if not program_list:
            raise SimulationError("a multi-core SoC needs at least one core")
        n = len(program_list)
        if n > MAX_CORES:
            raise SimulationError(
                f"{n} cores exceed the {MAX_CORES}-core limit of the "
                f"shared-device address map")
        if isinstance(backends, str):
            backend_list = [backends] * n
        else:
            backend_list = list(backends)
            if len(backend_list) != n:
                raise SimulationError(
                    f"{len(backend_list)} backends for {n} cores")
        self.source_arch = source_arch or default_source_arch()
        self.bus = SocBus()
        self.shared_map = SharedIoMap()
        self.arbiter = SharedBusArbiter(contention_stall=contention_stall)
        self.global_timer = GlobalCycleTimer()
        self.shared_scratch = ScratchRam(256)
        self.mailbox = Mailbox()
        self.bus.attach(self.shared_map.addr(self.shared_map.scratch),
                        self.shared_scratch, "shared_scratch")
        self.bus.attach(self.shared_map.addr(self.shared_map.timer),
                        self.global_timer, "global_timer")
        self.bus.attach(self.shared_map.addr(self.shared_map.mailbox),
                        self.mailbox, "mailbox")
        self.fabric_endpoint = FabricEndpoint(node, nodes)
        self.bus.attach(self.shared_map.addr(self.shared_map.fabric),
                        self.fabric_endpoint, "fabric")
        # the adaptive quantum pairs with the inline-shared emitter (the
        # fast path); an integer quantum keeps the historical
        # bail-every-shared-access emitter, so ``quantum=1`` is the
        # reference baseline of the lockstep differential contract
        inline = quantum == "adaptive"
        self.slots = [
            _CoreSlot(i, program_list[i], backend_list[i], self.bus, n,
                      self.arbiter, sync_rate, bridge_stall,
                      sync_access_stall, strict, inline_shared=inline)
            for i in range(n)
        ]
        if inline:
            self.barrier: LockstepBarrier = AdaptiveLockstepBarrier(
                self.slots, on_round=self._begin_round)
        else:
            self.barrier = LockstepBarrier(self.slots, quantum=quantum,
                                           on_round=self._begin_round)

    @property
    def n_cores(self) -> int:
        return len(self.slots)

    @property
    def frontier(self) -> int:
        """The SoC's global cycle: minimum over unfinished cores (read
        from the barrier's kept state — cores move only through it)."""
        return self.barrier.frontier

    @property
    def finished(self) -> bool:
        return self.barrier.finished

    def _begin_round(self, base: int) -> None:
        # one lockstep round == one shared-bus arbitration round;
        # the global timebase is the round's base cycle
        self.arbiter.begin_round(base)
        self.global_timer.now = base
        self.fabric_endpoint.now = base

    def run_slice(self, until: int, max_cycles: int) -> None:
        """Advance the whole SoC until its frontier reaches *until*.

        The SoC-level lockstep-quantum contract used by
        :class:`~repro.vliw.cluster.Cluster`: rounds executed here are
        exactly the rounds :meth:`run` would execute, just cut at the
        cluster's window boundary — so a clustered SoC schedules (and
        arbitrates) identically to a standalone one.  Normal rounds,
        and with them every shared access, start below *until*; an
        adaptive run-ahead round is not cut there, so the frontier may
        end past *until* (private execution never reaches the fabric).
        """
        self.barrier.run_until(until, max_cycles)

    def run(self, max_cycles: int = 200_000_000) -> MultiCorePlatformResult:
        """Run every core to halt/exit under round-robin lockstep.

        Scheduling lives in the :class:`~repro.vliw.sync.LockstepBarrier`
        the SoC owns: it enforces *max_cycles* at round granularity in
        addition to each core's own in-``advance`` check, and raises
        :class:`SimulationError` if a full round passes in which no
        granted core makes cycle progress — shared-device stalls make
        "granted but stuck" a reachable state, and without the guard
        the loop would spin forever.
        """
        self.barrier.run_until(None, max_cycles)
        self.flush()
        return self.collect_result()

    def flush(self) -> None:
        """Let outstanding cycle generation finish (the hardware would)."""
        for slot in self.slots:
            slot.sync.flush()

    def lockstep_stats(self) -> dict:
        """Scheduling profile of this SoC's lockstep execution.

        Observability only (never part of the differential
        observables): how many rounds ran, how many were adaptive
        run-ahead windows and how many cycles they covered, and per
        core how often it advanced inside windows, performed shared
        accesses inline in compiled code, and handed packets back to
        the interpreter.
        """
        barrier = self.barrier
        per_core = []
        for slot in self.slots:
            compiler = slot._compiler
            per_core.append({
                "core": slot.index,
                "runahead_windows": slot.runahead_windows,
                "runahead_cycles": slot.runahead_cycles,
                "inline_shared_calls": (compiler.inline_calls[0]
                                        if compiler is not None else 0),
                "interp_bails": (compiler.interp_bails
                                 if compiler is not None else 0),
            })
        return {
            "quantum": self.quantum,
            "rounds": barrier.rounds,
            "runahead_rounds": getattr(barrier, "runahead_rounds", 0),
            "runahead_window_cycles": getattr(barrier, "runahead_cycles", 0),
            "per_core": per_core,
        }

    def collect_result(self) -> MultiCorePlatformResult:
        return MultiCorePlatformResult(
            per_core=[collect_platform_result(slot.core, slot.sync,
                                              slot.port, self.source_arch)
                      for slot in self.slots],
            bus_trace=self.bus.monitor.transfers(),
            grants=[slot.grants for slot in self.slots],
            contention_conflicts=self.arbiter.conflicts,
            lockstep=self.lockstep_stats(),
        )
