"""Differential lockdown of the native (C) execution backend.

Same contract as the packet-compiled backend, one stage further: every
observable of a ``backend="native"`` run must be bit-identical to the
interpretive core on every registry program at every detail level —
including the sync-device state machine mirrored in C (fractional
rates and all), the bridge-window bail path, demotion to the Python
rendering mid-run, multi-core lockstep and the pickled-program worker
transport.  Tests that need the C path skip cleanly when no toolchain
is present; the fallback tests assert the backend still *works* (on
the Python emitter) in that case.
"""

import pickle

import pytest

from repro.errors import SimulationError
from repro.programs.registry import build, program_names
from repro.translator.driver import translate
from repro.vliw.codegen.native import native_available
from repro.vliw.compiled import PacketCompiler, precompile_program
from repro.vliw.platform import PrototypingPlatform

needs_toolchain = pytest.mark.skipif(
    not native_available(),
    reason="no working C toolchain (or REPRO_NATIVE=0)")

LEVELS = (0, 1, 2, 3)

#: hand-assembled programs reaching each error kind of the native
#: slow-path helpers.  Unresolved pointers go through the translator's
#: run-time data-vs-I/O stub, so their accesses are device accesses:
#: a0 = 0 lands outside every window, and 0x518000xx lands on the sync
#: device (data delta 0x80000000 - 0xD0000000 added)
ERROR_PROGRAMS = {
    "store_outside": "li d1, 7\nst.w [a0]0, d1\nhalt",
    "load_outside": "ld.w d1, [a0]0\nhalt",
    "sync_bad_write": "la a2, 0x51800004\nli d1, 7\nst.w [a2]0, d1\nhalt",
    "sync_bad_read": "la a2, 0x51800000\nld.w d1, [a2]0\nhalt",
    "sync_protocol_main": ("la a2, 0x51800000\nli d1, 1000\n"
                           "st.w [a2]0, d1\nst.w [a2]0, d1\nhalt"),
    "sync_protocol_corr": ("la a2, 0x51800008\nli d1, 1000\n"
                           "st.w [a2]0, d1\nst.w [a2]0, d1\nhalt"),
    "bad_indirect_branch": "la a2, 0xD0000100\nji a2\nhalt",
}


def _run(program, backend, **kwargs):
    return PrototypingPlatform(program, backend=backend, **kwargs).run()


def _native_platform(program, **kwargs):
    platform = PrototypingPlatform(program, backend="native", **kwargs)
    result = platform.run()
    return platform, result


@needs_toolchain
class TestNativeEquivalence:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", program_names())
    def test_identical_observables(self, name, level):
        program = translate(build(name), level=level).program
        interp = _run(program, "interp").observables()
        platform, native = _native_platform(program)
        assert native.observables() == interp, (name, level)
        context = platform._compiler.native_context
        assert context is not None
        assert context.regions_native > 0, (name, level)

    @pytest.mark.parametrize("sync_rate", (0.25, 1.5, 4.0))
    def test_identical_under_sync_rates(self, sync_rate):
        """The C sync-device mirror replays fractional-rate float
        sequences bit-identically."""
        program = translate(build("gcd"), level=2).program
        interp = _run(program, "interp", sync_rate=sync_rate).observables()
        _platform, native = _native_platform(program, sync_rate=sync_rate)
        assert native.observables() == interp

    def test_identical_under_stall_parameters(self):
        program = translate(build("gcd"), level=2).program
        for kwargs in (dict(sync_access_stall=9),
                       dict(bridge_stall=11),
                       dict(sync_access_stall=0, bridge_stall=0)):
            interp = _run(program, "interp", **kwargs).observables()
            _platform, native = _native_platform(program, **kwargs)
            assert native.observables() == interp, kwargs


@needs_toolchain
class TestNativeRuntime:
    def test_module_covers_all_regions(self):
        """Every statically reachable region of a registry kernel
        compiles to C (device packets ride the bridge pre-check)."""
        program = translate(build("sieve"), level=3).program
        platform = PrototypingPlatform(program, backend="native")
        compiler = PacketCompiler(platform.core, backend="native")
        context = compiler.native_context
        assert context is not None
        # a warm attach lowers nothing, so lower the static walk here
        walker = PacketCompiler(platform.core, backend="compiled")
        walker.precompile()
        generated = [pc0 for pc0 in walker.static_regions()
                     if walker._ir_cache[pc0] is not None]
        assert set(context.plan) == set(generated)

    def test_disk_cache_shared_between_compilers(self):
        """Two platforms on one translation share one native module."""
        from repro.vliw.codegen import native as native_mod

        program = translate(build("fir"), level=1).program
        first = PacketCompiler(PrototypingPlatform(
            program, backend="native").core, backend="native")
        second = PacketCompiler(PrototypingPlatform(
            program, backend="native").core, backend="native")
        assert first.native_context is not None
        assert second.native_context is not None
        assert first.native_context.binding is second.native_context.binding
        digest, _plan = program._native_plans[first.cache_params]
        assert digest in native_mod._LOADED

    def test_bridge_heavy_region_demoted_to_python(self, monkeypatch):
        """A region looping on bridge traffic (UART) bails until the
        wrapper swaps in the Python rendering — the adaptive fallback
        that keeps native >= compiled on device-heavy code."""
        from repro.vliw.codegen import native as native_mod

        monkeypatch.setattr(native_mod, "BAIL_SWITCH", 2)
        program = translate(build("uart_hello"), level=1).program
        interp = _run(program, "interp").observables()
        platform, native = _native_platform(program)
        # the putchar block stores 11 characters through the bridge
        # window, re-entering (and bailing from) its region every time:
        # with the threshold at 2 it must demote mid-run, and the
        # observables must stay bit-identical across the swap
        assert native.observables() == interp
        context = platform._compiler.native_context
        assert context is not None
        assert context.regions_demoted >= 1

    @pytest.mark.parametrize("name", program_names())
    def test_pickled_program_runs_native_from_shipped_ir(self, name):
        """The worker transport of sharded and cluster runs: a clone of
        a program the parent precompiled and ran generates no region
        source and runs the parent's module."""
        program = translate(build(name), level=2).program
        precompile_program(program, backend="native")
        parent = _run(program, "native").observables()
        clone = pickle.loads(pickle.dumps(program))
        platform = PrototypingPlatform(clone, backend="native")
        assert platform.run().observables() == parent
        compiler = platform._compiler
        assert compiler.regions_generated == 0
        assert compiler.regions_from_cache > 0
        context = compiler.native_context
        assert context is not None and context.regions_native > 0

    def test_run_slice_lockstep_quanta(self):
        """Driving native in 1-cycle lockstep quanta (the multi-core
        scheduling pattern) must not change observables."""
        program = translate(build("gcd"), level=2).program
        interp = _run(program, "interp").observables()
        platform = PrototypingPlatform(program, backend="native")
        compiler = PacketCompiler(platform.core, backend="native")
        exit_device = platform.bus.device("exit")
        while not platform.core.halted and not exit_device.exited:
            compiler.run_slice(platform.core.cycles + 1)
        platform.sync.flush()
        assert platform.collect_result().observables() == interp

    @pytest.mark.parametrize("level", (0, 3))
    @pytest.mark.parametrize("body", list(ERROR_PROGRAMS.values()),
                             ids=list(ERROR_PROGRAMS))
    def test_error_path_raises_like_interp(self, body, level):
        """Every error kind the C slow-path helpers report re-raises the
        interpreter's exception: same type, same message."""
        from repro.isa.tricore.assembler import assemble

        program = translate(assemble(f"_start:\n{body}"), level=level).program
        errors = []
        for backend in ("interp", "native"):
            platform = PrototypingPlatform(program, backend=backend)
            with pytest.raises(SimulationError) as info:
                platform.run()
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        context = platform._compiler.native_context
        assert context is not None and context.regions_native > 0


@needs_toolchain
class TestMidRunDemotion:
    """Demotion swaps a member from its C rendering to its Python one
    while the program runs, so one region entry is served by two
    engines in a single run; no observable may show where."""

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", program_names())
    def test_alternate_members_demoted_halfway(self, name, level):
        """With every other member demoted halfway through, superblocks
        exit at each chain edge into a demoted member, whose Python
        rendering takes over, while the rest keep running in C."""
        program = translate(build(name), level=level).program
        interp = _run(program, "interp")
        platform = PrototypingPlatform(program, backend="native")
        compiler = PacketCompiler(platform.core, backend="native")
        context = compiler.native_context
        assert context is not None
        compiler.run_slice(interp.target_cycles // 2)
        assert not platform.core.halted, (name, level)
        demoted = sorted(context.plan)[::2]
        for pc0 in demoted:
            context.demote(pc0)
        compiler.run_slice(None)
        platform.sync.flush()
        assert (platform.collect_result().observables()
                == interp.observables()), (name, level)
        assert context.regions_demoted == len(demoted)
        assert context.regions_native > 0, (name, level)

    @pytest.mark.parametrize("name", program_names())
    def test_demotion_stays_on_its_core(self, name):
        """Cores of one SoC share the loaded module but not its demotion
        bitmap: with every member retired on core 0, core 1 still runs
        in C, and both match the single-core interpreter."""
        from repro.vliw.multicore import MultiCoreSoC

        program = translate(build(name), level=2).program
        interp = _run(program, "interp").observables()
        soc = MultiCoreSoC(program, cores=2, backends=("native", "native"))
        retired, kept = (slot._compiler.native_context
                         for slot in soc.slots)
        assert retired is not None and kept is not None
        assert retired.binding is kept.binding
        for pc0 in retired.plan:
            retired.demote(pc0)
        result = soc.run()
        for index in range(2):
            assert result.per_core[index].observables() == interp, (
                name, index)
        assert retired.regions_native == 0
        assert kept.regions_demoted == 0
        assert kept.regions_native > 0, name


class TestModuleSize:
    #: characters of the L3 module each program emitted before the
    #: annotation slow paths moved into shared prelude helpers
    INLINE_SIZES = {"gcd": 478130, "fibonacci": 371575, "sieve": 432202}

    @pytest.mark.parametrize("name", sorted(INLINE_SIZES))
    def test_annotation_slow_paths_stay_out_of_line(self, name):
        """``cc`` time grows with the emitted C, and the cycle-annotation
        code dominates it: a guard that fails as soon as the device
        slow paths, the writeback-commit loops or the exit epilogues
        are inlined at every site again.  Emission is deterministic."""
        from repro.vliw.codegen.emit_c import CEmitter
        from repro.vliw.codegen.native import NativeContext

        program = translate(build(name), level=3).program
        compiler = PacketCompiler(
            PrototypingPlatform(program, backend="compiled").core,
            backend="compiled")
        landing = tuple(sorted(program.addr_to_packet.values()))
        source, _plan = CEmitter().emit_module(
            NativeContext._module_irs(compiler), landing)
        assert len(source) <= 0.75 * self.INLINE_SIZES[name]

    def test_windows_outside_32_bit_space_decline(self):
        """The single-compare window tests need every window inside the
        32-bit space; a custom target placing one elsewhere declines
        the region (the Python emitter runs it) instead of
        miscompiling it."""
        from dataclasses import replace

        from repro.vliw.codegen.emit_c import CEmitter

        program = translate(build("gcd"), level=3).program
        compiler = PacketCompiler(
            PrototypingPlatform(program, backend="compiled").core,
            backend="compiled")
        compiler.precompile()
        ir = next(ir for ir in compiler._ir_cache.values()
                  if ir is not None and not ir.pure)
        emitter = CEmitter()
        assert emitter.emit(ir) is not None
        assert emitter.emit(replace(ir, sync_base=(1 << 32) - 8)) is None
        assert emitter.emit(replace(ir, bridge_base=-4)) is None
        assert emitter.emit(replace(ir, sync_base=ir.mem_base)) is None
        _source, plan = emitter.emit_module([replace(ir, mem_len=2)])
        assert not plan


class TestNativeFallback:
    def test_disabled_native_still_runs_correctly(self, monkeypatch):
        """REPRO_NATIVE=0: the backend silently renders through the
        Python emitter — same observables, no toolchain dependency."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        program = translate(build("gcd"), level=1).program
        interp = _run(program, "interp").observables()
        platform, native = _native_platform(program)
        assert native.observables() == interp
        assert platform._compiler.native_context is None

    def test_measure_program_accepts_native(self):
        from repro.eval.runner import measure_program

        interp = measure_program("gcd", levels=(1,))
        native = measure_program("gcd", levels=(1,), backend="native")
        assert (native.levels[1].result.observables()
                == interp.levels[1].result.observables())
