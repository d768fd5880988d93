"""The rapid-prototyping platform: VLIW core + FPGA devices + SoC bus.

Wires together the pieces of the paper's system: the C6x core executes
the translated program; the synchronization device generates the
emulated SoC clock in parallel; the bus bridge forwards I/O to the SoC
bus at emulated time.  The run result exposes the same observables as
:class:`repro.refsim.iss.RunResult`, so reference and translation can
be compared field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.model import MemoryMap, SourceArch, default_source_arch
from repro.errors import SimulationError
from repro.isa.c6x.packets import C6xProgram
from repro.soc.bus import BusAccess, SocBus, standard_bus
from repro.vliw.bridge import BusBridge
from repro.vliw.codegen import backend_names, resolve_backend
from repro.vliw.core import C6xCore, CoreStats
from repro.vliw.syncdev import SyncDevice, SyncStats


@dataclass
class PlatformResult:
    """Observables of one platform execution."""

    target_cycles: int  # C6x clock cycles consumed
    packets_issued: int
    emulated_cycles: int  # SoC cycles generated by the sync device
    source_instructions: int
    data_image: bytes  # remapped source data RAM contents
    uart_output: bytes
    bus_trace: list[BusAccess]
    exit_code: int | None
    halted: bool
    core_stats: CoreStats = field(default_factory=CoreStats)
    sync_stats: SyncStats = field(default_factory=SyncStats)

    @property
    def target_cpi(self) -> float:
        """C6x clock cycles per *source* instruction (Table 1 metric)."""
        if not self.source_instructions:
            return 0.0
        return self.target_cycles / self.source_instructions

    def observables(self) -> dict:
        """Every observable in directly comparable form.

        The canonical definition of "two executions agree": the
        differential tests and the backend benchmark both compare
        platform runs through this dict, so the compiled backend's
        bit-identical contract always means the same field set.
        """
        core = self.core_stats
        return dict(
            target_cycles=self.target_cycles,
            packets_issued=self.packets_issued,
            emulated_cycles=self.emulated_cycles,
            source_instructions=self.source_instructions,
            data_image=self.data_image,
            uart_output=self.uart_output,
            bus_trace=[(a.cycle, a.kind, a.addr, a.value, a.size)
                       for a in self.bus_trace],
            exit_code=self.exit_code,
            halted=self.halted,
            core_stats=(core.packets_issued, core.instructions_executed,
                        core.nop_packets, core.sync_stall_cycles,
                        core.bridge_stall_cycles,
                        core.contention_stall_cycles,
                        core.source_instructions,
                        dict(core.block_executions)),
            sync_stats=vars(self.sync_stats),
        )

    def runtime_seconds(self, clock_hz: int) -> float:
        """Wall-clock runtime at a given target clock rate (Table 2)."""
        return self.target_cycles / clock_hz


def collect_platform_result(core: C6xCore, sync: SyncDevice, bus,
                            source_arch: SourceArch) -> PlatformResult:
    """Assemble the observables of one core's finished execution.

    *bus* is anything that quacks like :class:`SocBus` — it needs
    ``device(name)`` and ``monitor``.  The multi-core platform passes
    each core's bus port here, so a core of an N-core SoC reports
    exactly the same observable set as a single-core platform run.
    """
    exit_device = bus.device("exit")
    memory: MemoryMap = source_arch.memory
    data = core.data_window(core.target.data_base, memory.data_size)
    return PlatformResult(
        target_cycles=core.cycles,
        packets_issued=core.stats.packets_issued,
        emulated_cycles=sync.emulated_cycles,
        source_instructions=core.stats.source_instructions,
        data_image=data,
        uart_output=bus.device("uart").output,
        bus_trace=bus.monitor.transfers(),
        exit_code=exit_device.code if exit_device.exited else None,
        halted=core.halted,
        core_stats=core.stats,
        sync_stats=sync.stats,
    )


class PrototypingPlatform:
    """The emulation platform executing a translated program.

    Execution backends register in :mod:`repro.vliw.codegen` (the
    single source of truth the CLIs and evaluation runners resolve
    names through); see ``docs/backends.md``.
    """

    #: supported execution backends (from the codegen registry)
    BACKENDS = backend_names()

    def __init__(self, program: C6xProgram,
                 source_arch: SourceArch | None = None,
                 bus: SocBus | None = None,
                 sync_rate: float = 1.0,
                 bridge_stall: int = 4,
                 sync_access_stall: int = 4,
                 strict: bool = True,
                 backend: str = "interp") -> None:
        self._backend_spec = resolve_backend(backend)
        self.source_arch = source_arch or default_source_arch()
        self.bus = bus if bus is not None else standard_bus()
        self.sync = SyncDevice(rate=sync_rate)
        self.bridge = BusBridge(self.bus, self.sync,
                                access_stall=bridge_stall)
        self.core = C6xCore(program, self.sync, self.bridge, strict=strict,
                            sync_access_stall=sync_access_stall)
        self.program = program
        self.backend = backend
        self._compiler = None

    def run(self, max_cycles: int = 200_000_000) -> PlatformResult:
        """Run until ``halt``, an exit-device write, or the cycle limit."""
        exit_device = self.bus.device("exit")
        core = self.core
        if self._backend_spec.compiled:
            # staged host translation: packet regions lowered to Region
            # IR and emitted as specialized host code (Python, plus C
            # for pure regions under the native backend), falling back
            # to step_packet for device I/O
            from repro.vliw.compiled import PacketCompiler

            if self._compiler is None:
                self._compiler = PacketCompiler(core, backend=self.backend)
            self._compiler.run(max_cycles)
        else:
            while not core.halted and not exit_device.exited:
                core.step_packet()
                if core.cycles >= max_cycles:
                    raise SimulationError(
                        f"target cycle limit {max_cycles} exceeded")
        # Let outstanding cycle generation finish (the hardware would).
        self.sync.flush()
        return self.collect_result()

    def collect_result(self) -> PlatformResult:
        return collect_platform_result(self.core, self.sync, self.bus,
                                       self.source_arch)
