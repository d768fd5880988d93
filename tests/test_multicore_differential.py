"""Differential lockdown of the multi-core SoC model.

Parallel execution is exactly where cycle accuracy silently breaks, so
the multi-core platform's contract is differential: for non-contending
address maps (each core owns its I/O partition on the shared bus),
every core of an N-core :class:`~repro.vliw.multicore.MultiCoreSoC`
must produce observables **bit identical** to the same program run
alone on a single-core platform — same cycle counts, same emulated
clock, same data image, same cycle-stamped bus trace, same statistics.
This holds for every registry program at every detail level, for the
interpretive and packet-compiled backends, and for mixed per-core
backend assignments, independent of lockstep scheduling and round-robin
arbitration order.

``REPRO_SMOKE_CORES`` overrides the core count (CI smoke runs use 2).
"""

import os

import pytest

from repro.errors import BusError, SimulationError
from repro.programs.registry import build, program_names
from repro.soc.bus import IoMap
from repro.translator.driver import translate
from repro.vliw.codegen.native import native_available
from repro.vliw.multicore import CORE_IO_STRIDE, MultiCoreSoC
from repro.vliw.platform import PrototypingPlatform

N_CORES = max(2, int(os.environ.get("REPRO_SMOKE_CORES", "2")))
LEVELS = (0, 1, 2, 3)

#: the native backend joins every mix when a C toolchain is present
#: (without one it would just exercise the Python emitter twice)
_NATIVE = native_available()


def _mixes(n: int) -> list[tuple[str, ...]]:
    """Homogeneous and mixed per-core backend assignments."""
    mixes = [
        ("interp",) * n,
        ("compiled",) * n,
        tuple("interp" if i % 2 == 0 else "compiled" for i in range(n)),
    ]
    if _NATIVE:
        mixes.append(("native",) * n)
        rotation = ("native", "interp", "compiled")
        mixes.append(tuple(rotation[i % 3] for i in range(n)))
    return mixes


@pytest.fixture(scope="module")
def translated():
    """Translation cache: every backend mix runs the same program."""
    cache = {}

    def get(name, level):
        key = (name, level)
        if key not in cache:
            cache[key] = translate(build(name), level=level).program
        return cache[key]

    return get


@pytest.fixture(scope="module")
def single_run(translated):
    """Single-core reference observables, per (name, level, backend)."""
    cache = {}

    def get(name, level, backend):
        key = (name, level, backend)
        if key not in cache:
            cache[key] = PrototypingPlatform(
                translated(name, level), backend=backend).run().observables()
        return cache[key]

    return get


class TestPerCoreBitIdentity:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", program_names())
    def test_equals_independent_single_core_runs(self, name, level,
                                                 translated, single_run):
        program = translated(name, level)
        for backends in _mixes(N_CORES):
            multi = MultiCoreSoC(program, cores=N_CORES,
                                 backends=backends).run()
            assert multi.n_cores == N_CORES
            for index, backend in enumerate(backends):
                assert (multi.per_core[index].observables()
                        == single_run(name, level, backend)), \
                    (name, level, backends, index)

    def test_heterogeneous_programs_per_core(self, translated, single_run):
        """Different programs on different cores stay independent."""
        programs = [translated("gcd", 2), translated("uart_hello", 1)]
        backends = ("compiled", "interp")
        multi = MultiCoreSoC(programs, backends=backends).run()
        assert (multi.per_core[0].observables()
                == single_run("gcd", 2, "compiled"))
        assert (multi.per_core[1].observables()
                == single_run("uart_hello", 1, "interp"))
        assert multi.per_core[1].uart_output == b"hello, soc!"

    @pytest.mark.parametrize("sync_rate", (0.25, 1.5))
    def test_fractional_sync_rates(self, translated, sync_rate):
        program = translated("gcd", 2)
        backends = _mixes(N_CORES)[2]
        expected = {backend: PrototypingPlatform(
                        program, sync_rate=sync_rate,
                        backend=backend).run().observables()
                    for backend in set(backends)}
        multi = MultiCoreSoC(program, cores=N_CORES, backends=backends,
                             sync_rate=sync_rate).run()
        for backend, result in zip(backends, multi.per_core):
            assert result.observables() == expected[backend]


class TestArbitration:
    def test_global_trace_is_deterministic(self, translated):
        """Two identical multi-core runs interleave identically."""
        program = translated("timer_probe", 2)
        mix = _mixes(N_CORES)[2]
        first = MultiCoreSoC(program, cores=N_CORES, backends=mix).run()
        second = MultiCoreSoC(program, cores=N_CORES, backends=mix).run()
        assert first.bus_trace == second.bus_trace
        assert first.grants == second.grants

    def test_global_trace_partitions_by_core(self, translated):
        """The arbitrated global trace is exactly the per-core traces
        relocated into their partitions, order-preserved per core."""
        program = translated("uart_hello", 1)
        multi = MultiCoreSoC(program, cores=N_CORES, backends="interp").run()
        for index, result in enumerate(multi.per_core):
            base = index * CORE_IO_STRIDE
            relocated = [(a.cycle, a.kind, a.addr + base, a.value, a.size)
                         for a in result.bus_trace]
            in_global = [(a.cycle, a.kind, a.addr, a.value, a.size)
                         for a in multi.bus_trace
                         if base <= a.addr < base + CORE_IO_STRIDE]
            assert relocated == in_global
        total = sum(len(r.bus_trace) for r in multi.per_core)
        assert len(multi.bus_trace) == total

    def test_grants_are_balanced_for_identical_cores(self, translated):
        """Identical interp cores advance in lockstep: the round-robin
        arbiter grants every core the same number of slots."""
        program = translated("gcd", 1)
        multi = MultiCoreSoC(program, cores=N_CORES, backends="interp").run()
        assert len(set(multi.grants)) == 1


class TestPartitionIsolation:
    """A core's port reaches its own partition and the shared segment
    only: an offset past the partition is unmapped, exactly as on the
    single-core bus, and never lands on a neighbour's device."""

    def _raised(self, access, bus):
        with pytest.raises(BusError) as excinfo:
            access(bus)
        return str(excinfo.value), excinfo.value.address

    def test_write_past_partition(self, translated):
        program = translated("gcd", 0)
        offset = CORE_IO_STRIDE + IoMap().exit  # core 1's exit device
        soc = MultiCoreSoC(program, cores=2)

        def write(bus):
            bus.write(offset, 5, 4, 0)

        single = self._raised(write, PrototypingPlatform(program).bus)
        assert self._raised(write, soc.slots[0].port) == single
        assert single[1] == offset
        assert not soc.slots[1].exit_device.exited

    def test_read_past_partition(self, translated):
        program = translated("gcd", 0)
        offset = CORE_IO_STRIDE + IoMap().coreid  # core 1's id register
        soc = MultiCoreSoC(program, cores=2)

        def read(bus):
            bus.read(offset, 4, 0)

        single = self._raised(read, PrototypingPlatform(program).bus)
        assert self._raised(read, soc.slots[0].port) == single
        assert single[1] == offset
        assert soc.bus.monitor.transfers() == []


class TestConstruction:
    def test_replication_needs_core_count(self, translated):
        with pytest.raises(SimulationError):
            MultiCoreSoC(translated("gcd", 0))

    def test_core_and_program_counts_must_agree(self, translated):
        program = translated("gcd", 0)
        with pytest.raises(SimulationError):
            MultiCoreSoC([program, program], cores=3)

    def test_backend_list_length_checked(self, translated):
        with pytest.raises(SimulationError):
            MultiCoreSoC(translated("gcd", 0), cores=2,
                         backends=("interp",))

    def test_unknown_backend_rejected(self, translated):
        with pytest.raises(SimulationError):
            MultiCoreSoC(translated("gcd", 0), cores=2, backends="jit")
