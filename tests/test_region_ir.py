"""Region IR: golden snapshots, structural invariants, and the
three-stage pipeline's contracts.

The IR (``repro.vliw.codegen.ir``) sits between region discovery and
pluggable codegen, so two things must hold very firmly:

* **stability** — the lowered IR of a fixed program at a fixed detail
  level is deterministic and pinned by golden fingerprints: an
  unintended change to lowering (a reordered phase, a lost counter)
  shows up here before it shows up as a one-in-a-million observable
  divergence;
* **completeness** — every epilogue's counters, spills and chain edges
  are internally consistent, the IR pickles (the sharded-runner
  transport), and every emitter renders from it without consulting the
  program again.
"""

import hashlib
import pickle

import pytest

from repro.programs.registry import build
from repro.translator.driver import translate
from repro.vliw.codegen.emit_python import PythonEmitter
from repro.vliw.codegen.ir import (
    BranchEnd,
    CutEnd,
    InterpEnd,
    RegionIR,
    fingerprint,
)
from repro.vliw.compiled import PacketCompiler
from repro.vliw.platform import PrototypingPlatform


def lowered(name: str, level: int) -> dict[int, RegionIR]:
    """Every statically reachable region of *name* at *level*."""
    program = translate(build(name), level=level).program
    compiler = PacketCompiler(PrototypingPlatform(
        program, backend="compiled").core)
    compiler.precompile()
    return {pc0: ir for pc0, ir in compiler._ir_cache.items()
            if ir is not None}


def combined_fingerprint(irs: dict[int, RegionIR]) -> str:
    joined = "".join(fingerprint(irs[pc0]) for pc0 in sorted(irs))
    return hashlib.sha256(joined.encode()).hexdigest()


#: golden pins: (program, level) -> (n_regions, entry n_packets,
#: entry end_kind, entry chain targets, entry fingerprint prefix,
#: combined fingerprint prefix).  Regenerate deliberately (see
#: docs/ir.md) when lowering changes on purpose.
GOLDEN = {
    ("gcd", 1): (34, 6, "branch", (6,),
                 "222cfe39747e201f", "a68670bec8890941"),
    ("sieve", 3): (69, 7, "branch", (7,),
                   "b7fad69cb1366a53", "de7ca6c8d87ecf3f"),
    ("fir", 0): (32, 6, "branch", (6,),
                 "f2173d453f38625f", "895c280b1e5a9a3a"),
    ("crc32", 2): (54, 7, "branch", (7,),
                   "b7fad69cb1366a53", "311905b7f96d56af"),
}


class TestGoldenSnapshots:
    @pytest.mark.parametrize("name,level", sorted(GOLDEN))
    def test_pinned_ir(self, name, level):
        irs = lowered(name, level)
        entry_pc = translate(build(name), level=level).program.entry
        entry = irs[entry_pc]
        (n_regions, n_packets, end_kind, chain, entry_fp,
         combined_fp) = GOLDEN[(name, level)]
        assert len(irs) == n_regions
        assert entry.n_packets == n_packets
        assert entry.end_kind == end_kind
        assert entry.chain_targets == chain
        assert fingerprint(entry).startswith(entry_fp)
        assert combined_fingerprint(irs).startswith(combined_fp)

    def test_lowering_is_deterministic(self):
        first = combined_fingerprint(lowered("gcd", 2))
        second = combined_fingerprint(lowered("gcd", 2))
        assert first == second


class TestStructuralInvariants:
    @pytest.mark.parametrize("name,level", (("gcd", 1), ("sieve", 3),
                                            ("uart_hello", 2)))
    def test_epilogues_and_edges_consistent(self, name, level):
        for pc0, ir in lowered(name, level).items():
            assert ir.pc0 == pc0
            assert len(ir.packets) == ir.n_packets
            for offset, packet in enumerate(ir.packets):
                assert packet.offset == offset
                assert packet.index == pc0 + offset
                assert packet.entry_commit == (offset < ir.entry_window)
            end = ir.end
            if ir.end_kind == "halt":
                assert end is None
                assert ir.packets[-1].halt_exit is not None
            elif ir.end_kind == "branch":
                assert isinstance(end, BranchEnd)
                assert end.taken.executed == ir.n_packets
                if end.pred is None:
                    assert end.fallthrough is None
                else:
                    assert end.fallthrough.pc == pc0 + ir.n_packets
            elif ir.end_kind == "cut":
                assert isinstance(end, CutEnd)
                assert end.chain_pc == pc0 + ir.n_packets
            else:
                assert isinstance(end, InterpEnd)
            # chain edges point at real packet indices
            n_program = len(translate(build(name),
                                      level=level).program.packets)
            for target in ir.chain_targets:
                assert 0 <= target <= n_program

    def test_device_regions_flagged(self):
        irs = lowered("uart_hello", 1)
        assert any(not ir.pure for ir in irs.values())
        for ir in irs.values():
            expected = any(p.device for p in ir.packets)
            assert ir.pure == (not expected)

    def test_ir_pickles(self):
        """The sharded-runner transport: IR must survive pickling with
        identical fingerprints (workers rebuild native modules from
        exactly this data)."""
        for ir in lowered("gcd", 2).values():
            clone = pickle.loads(pickle.dumps(ir))
            assert fingerprint(clone) == fingerprint(ir)


class TestEmitterContract:
    def test_python_emitter_is_pure_function_of_ir(self):
        """Emission consults only the IR: same IR -> same source."""
        emitter = PythonEmitter()
        for ir in lowered("fir", 2).values():
            first = emitter.emit(ir)
            second = emitter.emit(pickle.loads(pickle.dumps(ir)))
            assert first == second

    def test_c_emitter_declines_nothing_on_registry_kernels(self):
        """The native module covers every lowered region of the
        registry programs (device packets included, via the
        bridge-window pre-check)."""
        from repro.vliw.codegen.emit_c import CEmitter

        irs = lowered("uart_hello", 3)
        _source, plan = CEmitter().emit_module(irs.values())
        assert set(plan) == set(irs)

    def test_c_source_is_deterministic(self):
        from repro.vliw.codegen.emit_c import CEmitter

        irs = lowered("gcd", 1)
        first, _ = CEmitter().emit_module(irs.values())
        second, _ = CEmitter().emit_module(irs.values())
        assert first == second


class TestBackendRegistry:
    def test_registered_backends(self):
        from repro.vliw.codegen import backend_names, resolve_backend

        names = backend_names()
        assert names == ("interp", "compiled", "native")
        assert not resolve_backend("interp").compiled
        assert resolve_backend("compiled").compiled
        assert resolve_backend("native").native

    def test_unknown_backend_error_lists_registered(self):
        from repro.errors import SimulationError
        from repro.vliw.codegen import resolve_backend

        with pytest.raises(SimulationError) as excinfo:
            resolve_backend("jit")
        message = str(excinfo.value)
        assert "jit" in message
        for name in ("interp", "compiled", "native"):
            assert name in message

    def test_platform_rejects_unknown_backend_with_names(self):
        from repro.errors import SimulationError

        program = translate(build("gcd"), level=0).program
        with pytest.raises(SimulationError, match="registered backends"):
            PrototypingPlatform(program, backend="turbo")

    def test_measure_program_rejects_unknown_backend_fast(self):
        from repro.errors import SimulationError
        from repro.eval.runner import measure_program

        with pytest.raises(SimulationError, match="registered backends"):
            measure_program("gcd", levels=(0,), backend="nonsense")

    def test_shard_spec_rejects_unknown_backend(self):
        from repro.errors import SimulationError
        from repro.eval.sharded import ShardSpec

        with pytest.raises(SimulationError, match="registered backends"):
            ShardSpec(program="gcd", backend="nonsense").validate()

    def test_cli_rejects_unknown_backend_listing_choices(self, tmp_path,
                                                         capsys):
        from repro.cli import minic_main, translate_main

        src = tmp_path / "p.c"
        src.write_text("int main() { return 1; }")
        out = tmp_path / "p.relf"
        minic_main([str(src), "-o", str(out)])
        with pytest.raises(SystemExit):
            translate_main([str(out), "--run", "--backend", "warp"])
        err = capsys.readouterr().err
        assert "invalid choice: 'warp'" in err
        for name in ("interp", "compiled", "native"):
            assert name in err
