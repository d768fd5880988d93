"""Lockdown of the native backend's content-addressed .so disk cache.

The cache names every module ``<sha256(abi + C source)>.so`` under
``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro-cabt/native``), so
correctness rests on three properties: an ABI revision bump changes
the digest (an old binary can never be dlopen'd against a new struct
layout), the cache directory override is honored end to end, and a
source change — different program, level or core parameters — lands in
a different file instead of silently reusing a stale build.

Beside the modules, one JSON record per program key names the module
a program needs, so a warm attach lowers nothing.  The key must move
with every input of the module and with nothing else (not the string
hash salt), and a bad record, a missing module or an uncreatable
cache directory must cost a miss, never an error.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.programs.registry import build
from repro.translator.driver import translate
from repro.vliw.codegen import native as native_mod
from repro.vliw.codegen.native import (
    NativeContext,
    cache_dir,
    native_available,
    source_digest,
)
from repro.vliw.compiled import PacketCompiler
from repro.vliw.platform import PrototypingPlatform

needs_toolchain = pytest.mark.skipif(
    not native_available(),
    reason="no working C toolchain (or REPRO_NATIVE=0)")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private empty disk cache and an empty in-process module map,
    so every attach in the test actually exercises the disk path."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setattr(native_mod, "_LOADED", {})
    return tmp_path


def _attach(program, **kwargs):
    platform = PrototypingPlatform(program, backend="native", **kwargs)
    compiler = PacketCompiler(platform.core, backend="native", **kwargs)
    return platform, compiler


class TestDigest:
    def test_abi_bump_changes_digest(self, monkeypatch):
        """Same C source, new ABI revision, different content address —
        a binary built for the old rio struct can never collide with
        the new layout's cache slot."""
        source = "int sb0(void) { return 0; }\n"
        old = source_digest(source)
        monkeypatch.setattr(native_mod, "ABI_VERSION",
                            native_mod.ABI_VERSION + 1)
        assert source_digest(source) != old

    def test_digest_is_pure_content_address(self):
        source = "int sb0(void) { return 0; }\n"
        assert source_digest(source) == source_digest(source)
        assert source_digest(source) != source_digest(source + " ")


@pytest.mark.skipif(os.name != "posix", reason="fake compiler is a sh script")
class TestFailedBuild:
    """A failed ``cc`` — non-zero exit or timeout — yields None and
    leaves no temp file behind in the cache directory."""

    SCRIPTS = {"nonzero_exit": "exit 1", "timeout": "exec sleep 30"}

    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_failed_build_leaves_no_temp_files(self, script, fresh_cache,
                                               tmp_path_factory,
                                               monkeypatch):
        fake_cc = tmp_path_factory.mktemp("toolchain") / "cc"
        fake_cc.write_text(f"#!/bin/sh\n{self.SCRIPTS[script]}\n")
        fake_cc.chmod(0o755)
        monkeypatch.setattr(native_mod, "_TOOLCHAIN", [str(fake_cc)])
        monkeypatch.setattr(native_mod, "CC_TIMEOUT_S", 0.5)
        source = "int sb0(void) { return 0; }\n"
        assert native_mod.build_shared(source) is None
        assert os.listdir(fresh_cache) == [f"{source_digest(source)}.c"]


@needs_toolchain
class TestDiskCache:
    def test_cache_redirection(self, fresh_cache):
        """REPRO_NATIVE_CACHE redirects both the build products and the
        lookups; the run on the private cache stays bit-identical."""
        assert cache_dir() == str(fresh_cache)
        program = translate(build("gcd"), level=1).program
        interp = PrototypingPlatform(program,
                                     backend="interp").run().observables()
        platform, compiler = _attach(program)
        context = compiler.native_context
        assert context is not None
        digest, _plan = program._native_plans[compiler.cache_params]
        assert (fresh_cache / f"{digest}.so").exists()
        assert (fresh_cache / f"{digest}.c").exists()
        assert platform.run().observables() == interp

    def test_abi_bump_invalidates_cached_module(self, fresh_cache,
                                                monkeypatch):
        """After an ABI bump the old .so is dead weight: attach builds
        a fresh module under the new digest instead of reusing it."""
        program = translate(build("gcd"), level=1).program
        _platform, compiler = _attach(program)
        old_digest, _ = program._native_plans[compiler.cache_params]

        monkeypatch.setattr(native_mod, "ABI_VERSION",
                            native_mod.ABI_VERSION + 1)
        monkeypatch.setattr(native_mod, "_LOADED", {})
        # a clone of the same translation: no memoized plan, so the
        # digest is recomputed under the bumped revision
        reprogram = translate(build("gcd"), level=1).program
        _platform2, compiler2 = _attach(reprogram)
        assert compiler2.native_context is not None
        new_digest, _ = reprogram._native_plans[compiler2.cache_params]
        assert new_digest != old_digest
        assert (fresh_cache / f"{old_digest}.so").exists()
        assert (fresh_cache / f"{new_digest}.so").exists()

    def test_source_change_is_a_different_cache_entry(self, fresh_cache):
        """A different emitted module (here: another detail level of
        the same program) must never hit the old entry."""
        first = translate(build("gcd"), level=0).program
        second = translate(build("gcd"), level=3).program
        _p1, c1 = _attach(first)
        _p2, c2 = _attach(second)
        d1, _ = first._native_plans[c1.cache_params]
        d2, _ = second._native_plans[c2.cache_params]
        assert d1 != d2
        assert {f"{d1}.so", f"{d2}.so"} <= set(os.listdir(fresh_cache))

    def test_stale_cache_artifacts_are_ignored(self, fresh_cache):
        """Foreign junk in the cache directory (a stale .so under a
        name no current digest maps to) is simply never touched."""
        stale = fresh_cache / ("ff" * 32 + ".so")
        stale.write_bytes(b"\x7fELF not really")
        program = translate(build("gcd"), level=1).program
        platform, compiler = _attach(program)
        assert compiler.native_context is not None
        interp = PrototypingPlatform(program,
                                     backend="interp").run().observables()
        assert platform.run().observables() == interp

    def test_warm_cache_loads_without_toolchain(self, fresh_cache,
                                                monkeypatch):
        """A warm disk cache serves the .so compiler-free: with the
        toolchain probe forced to 'none found', attach still loads the
        previously built module."""
        program = translate(build("gcd"), level=1).program
        _platform, compiler = _attach(program)
        assert compiler.native_context is not None

        monkeypatch.setattr(native_mod, "_TOOLCHAIN", [None])
        monkeypatch.setattr(native_mod, "_LOADED", {})
        reprogram = translate(build("gcd"), level=1).program
        platform2, compiler2 = _attach(reprogram)
        context = compiler2.native_context
        assert context is not None
        interp = PrototypingPlatform(reprogram,
                                     backend="interp").run().observables()
        assert platform2.run().observables() == interp

    def test_cold_cache_without_toolchain_returns_none(self, fresh_cache,
                                                       monkeypatch):
        monkeypatch.setattr(native_mod, "_TOOLCHAIN", [None])
        program = translate(build("gcd"), level=1).program
        platform = PrototypingPlatform(program, backend="native")
        compiler = PacketCompiler(platform.core, backend="native")
        assert compiler.native_context is None
        assert NativeContext.attach(compiler) is None


def _counting(monkeypatch):
    """Count ``lower_region`` and ``CEmitter.emit_module`` calls."""
    from repro.vliw import compiled as compiled_mod
    from repro.vliw.codegen.emit_c import CEmitter

    calls = {"lower": 0, "emit_module": 0}
    lower = compiled_mod.lower_region
    emit_module = CEmitter.emit_module

    def counted_lower(*args, **kwargs):
        calls["lower"] += 1
        return lower(*args, **kwargs)

    def counted_emit(self, *args, **kwargs):
        calls["emit_module"] += 1
        return emit_module(self, *args, **kwargs)

    monkeypatch.setattr(compiled_mod, "lower_region", counted_lower)
    monkeypatch.setattr(CEmitter, "emit_module", counted_emit)
    return calls


def _record_of(cache, compiler):
    """Path of the record *compiler*'s attach wrote."""
    return cache / f"{native_mod.program_key(compiler)}.json"


def _prime(name="gcd", level=2, **kwargs):
    """Attach once (a miss that builds and records the module); then
    forget the loaded module so the next attach reads the disk."""
    program = translate(build(name), level=level).program
    _platform, compiler = _attach(program, **kwargs)
    assert compiler.native_context is not None
    native_mod._LOADED.clear()
    return program, compiler


def _interp(program):
    return PrototypingPlatform(program, backend="interp").run().observables()


@needs_toolchain
class TestRecordHit:
    """A record names the module by the program, so a warm attach
    loads it without lowering a region or emitting C."""

    def test_hit_lowers_and_emits_nothing(self, fresh_cache, monkeypatch):
        _prime()
        calls = _counting(monkeypatch)
        program = translate(build("gcd"), level=2).program
        platform, compiler = _attach(program)
        assert compiler.native_context is not None
        assert calls == {"lower": 0, "emit_module": 0}
        result = platform.run()
        assert result.observables() == _interp(program)
        assert calls["emit_module"] == 0
        assert platform._compiler.native_context.regions_native > 0

    def test_hit_then_demotion_matches_interp(self, fresh_cache,
                                              monkeypatch):
        """Demotion needs the member's Python rendering, which a hit
        never generated: it is lowered and rendered on demand."""
        _prime("uart_hello", level=1)
        calls = _counting(monkeypatch)
        monkeypatch.setattr(native_mod, "BAIL_SWITCH", 2)
        program = translate(build("uart_hello"), level=1).program
        platform = PrototypingPlatform(program, backend="native")
        result = platform.run()
        context = platform._compiler.native_context
        assert context is not None and context.regions_demoted >= 1
        assert calls["emit_module"] == 0
        assert result.observables() == _interp(program)

    def test_module_does_not_depend_on_prior_runs(self, fresh_cache,
                                                  monkeypatch):
        """Regions a compiled run generated on the same program object
        stay out of the module: both orders give one digest and plan."""
        from repro.vliw.multicore import MultiCoreSoC

        monkeypatch.setattr(native_mod, "_TOOLCHAIN", [None])
        plans = []
        for run_compiled_first in (False, True):
            program = translate(build("mbox_pingpong"), level=2).program
            if run_compiled_first:
                MultiCoreSoC(program, cores=2, backends="compiled").run()
            _platform, compiler = _attach(program)
            digest, plan = program._native_plans[compiler.cache_params]
            plans.append((digest, plan.superblocks, plan.block_sites))
        assert plans[0] == plans[1]


class TestProgramKey:
    def _key(self, name="gcd", level=2, inline_shared=True, **kwargs):
        program = translate(build(name), level=level).program
        platform = PrototypingPlatform(program, backend="compiled",
                                       **kwargs)
        compiler = PacketCompiler(platform.core, backend="compiled",
                                  inline_shared=inline_shared)
        return native_mod.program_key(compiler)

    def test_every_input_moves_the_key(self, monkeypatch):
        base = self._key()
        assert self._key() == base
        keys = {
            "bridge_stall": self._key(bridge_stall=5),
            "sync_access_stall": self._key(sync_access_stall=5),
            "inline_shared": self._key(inline_shared=False),
            "level": self._key(level=3),
        }
        monkeypatch.setattr(native_mod, "ABI_VERSION",
                            native_mod.ABI_VERSION + 1)
        keys["abi"] = self._key()
        monkeypatch.undo()
        monkeypatch.setattr(native_mod, "_STAMP", ["another source tree"])
        keys["source_stamp"] = self._key()
        assert len({base, *keys.values()}) == len(keys) + 1, keys

    def test_key_ignores_hash_seed(self):
        """Two fresh interpreters with different string-hash salts
        compute the same key (set and dict orders must not leak in)."""
        script = (
            "from repro.programs.registry import build\n"
            "from repro.translator.driver import translate\n"
            "from repro.vliw.codegen.native import program_key\n"
            "from repro.vliw.compiled import PacketCompiler\n"
            "from repro.vliw.platform import PrototypingPlatform\n"
            "for name in ('mbox_pingpong', 'crc32'):\n"
            "    program = translate(build(name), level=2).program\n"
            "    core = PrototypingPlatform(program).core\n"
            "    print(program_key(PacketCompiler(core)))\n")
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for seed in ("0", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            result = subprocess.run([sys.executable, "-c", script],
                                    env=env, capture_output=True, text=True,
                                    timeout=300, check=True)
            outputs.append(result.stdout.split())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 2


@needs_toolchain
class TestCacheDirectoryRobustness:
    """The cache directory is an input surface: whatever is (or is not)
    in it, a run raises nothing and ends with the interpreter's
    observables, and a bad record is replaced once the cache is
    writable."""

    @pytest.mark.parametrize("content", ["truncated", "not json",
                                         "path digest"])
    def test_unreadable_record_is_a_miss(self, fresh_cache, content):
        primed, compiler = _prime()
        record = _record_of(fresh_cache, compiler)
        good = record.read_text()
        digest = json.loads(good)["digest"]
        # 64 characters naming a real module, but a path, not a digest
        path = "sub/" + "./" * 29 + "ab"
        (fresh_cache / "sub").mkdir()
        (fresh_cache / "sub" / "ab.so").write_bytes(
            (fresh_cache / f"{digest}.so").read_bytes())
        bad = {"truncated": good[:len(good) // 2],
               "not json": "not json",
               "path digest": good.replace(digest, path)}
        record.write_text(bad[content])
        program = translate(build("gcd"), level=2).program
        platform = PrototypingPlatform(program, backend="native")
        assert platform.run().observables() == _interp(program)
        assert platform._compiler.native_context is not None
        assert record.read_text() == good

    def test_record_naming_a_missing_module_is_a_miss(self, fresh_cache):
        primed, compiler = _prime()
        record = _record_of(fresh_cache, compiler)
        digest, _plan = primed._native_plans[compiler.cache_params]
        (fresh_cache / f"{digest}.so").unlink()
        program = translate(build("gcd"), level=2).program
        platform = PrototypingPlatform(program, backend="native")
        assert platform.run().observables() == _interp(program)
        assert platform._compiler.native_context is not None
        assert (fresh_cache / f"{digest}.so").exists()
        assert native_mod.read_record(
            native_mod.program_key(compiler)) is not None
        assert record.exists()

    def test_cache_below_a_regular_file(self, tmp_path, monkeypatch):
        """A cache path that cannot be created (running as root, mode
        bits would not stop a write): the Python emitter runs it."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(blocker / "cache"))
        monkeypatch.setattr(native_mod, "_LOADED", {})
        program = translate(build("gcd"), level=2).program
        platform = PrototypingPlatform(program, backend="native")
        assert platform.run().observables() == _interp(program)
        assert platform._compiler.native_context is None
        assert blocker.read_text() == ""
