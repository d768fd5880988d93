"""Property tests: sharded evaluation is indistinguishable from serial.

:class:`repro.eval.sharded.ShardedRunner` may split work across any
number of processes in any submission order, yet every
``PlatformResult.observables()`` dict (and every reference run) must
be identical to what the serial :mod:`repro.eval.runner` path
produces, and outcomes must come back in submission order.  The shard
orderings and worker counts are randomized from fixed seeds so the
property is fuzzed but reproducible.

``REPRO_SMOKE_JOBS`` caps the worker count (CI smoke runs use 2).
"""

import os
import random

import pytest

from repro.eval.runner import measure_program
from repro.eval.sharded import ShardedRunner, ShardSpec
from repro.programs.registry import build
from repro.translator.driver import translate
from repro.vliw.codegen.lower import packet_device_flags
from repro.vliw.codegen.native import native_available
from repro.vliw.compiled import precompile_program
from repro.vliw.platform import PrototypingPlatform

MAX_JOBS = max(2, int(os.environ.get("REPRO_SMOKE_JOBS", "3")))
PROGRAMS = ("gcd", "uart_hello", "timer_probe")
LEVELS = (0, 2)
BACKENDS = ("interp", "compiled")
SEEDS = (0xC6, 0x51, 0x2026)


@pytest.fixture(scope="module")
def serial():
    """The serial runner's measurements, per (program, backend)."""
    return {(name, backend): measure_program(name, levels=LEVELS,
                                             backend=backend)
            for name in PROGRAMS for backend in BACKENDS}


def _all_specs() -> list[ShardSpec]:
    return [ShardSpec(program=name, level=level, backend=backend)
            for name in PROGRAMS for level in LEVELS for backend in BACKENDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_shard_order_and_worker_count(seed, serial):
    """Any (seeded) shuffle and worker count reproduces serial results."""
    rng = random.Random(seed)
    specs = _all_specs()
    rng.shuffle(specs)
    jobs = rng.randint(2, MAX_JOBS)
    outcomes = ShardedRunner(jobs=jobs).run(specs)
    assert [outcome.spec for outcome in outcomes] == specs
    parent = os.getpid()
    assert all(outcome.pid != parent for outcome in outcomes)
    for outcome in outcomes:
        spec = outcome.spec
        expected = serial[(spec.program, spec.backend)]
        assert (outcome.result.observables()
                == expected.levels[spec.level].result.observables()), \
            (seed, jobs, spec)
        assert outcome.wall_seconds > 0


def test_inline_jobs1_matches_serial_runner(serial):
    """jobs=1 (no pool at all) walks the identical code path result."""
    outcomes = ShardedRunner(jobs=1).run(_all_specs())
    parent = os.getpid()
    for outcome in outcomes:
        spec = outcome.spec
        assert outcome.pid == parent
        expected = serial[(spec.program, spec.backend)]
        assert (outcome.result.observables()
                == expected.levels[spec.level].result.observables())


def test_measure_registry_matches_measure_program(serial):
    """The assembled sweep equals per-program serial measurements."""
    sharded = ShardedRunner(jobs=2).measure_registry(
        PROGRAMS, LEVELS, backend="compiled")
    for name in PROGRAMS:
        expected = serial[(name, "compiled")]
        got = sharded[name]
        assert vars(got.reference) == vars(expected.reference)
        assert sorted(got.levels) == sorted(expected.levels)
        for level in LEVELS:
            assert (got.levels[level].result.observables()
                    == expected.levels[level].result.observables())


def _native_run_after_precompile(name):
    """Observables and generated-region count of an in-process native
    run of *name* at level 2 on a precompiled program.  Every region
    the run generates must be a device entry packet: a missed static
    entry fails here rather than in both runs alike."""
    program = translate(build(name), level=2).program
    precompile_program(program, backend="native")
    walked = {pc0 for cache in program._region_code_cache.values()
              for pc0 in cache}
    platform = PrototypingPlatform(program, backend="native")
    result = platform.run()
    for pc0 in set(platform._compiler._code_cache) - walked:
        assert packet_device_flags(program, pc0, 1)[0], (name, pc0)
    return result.observables(), platform._compiler.regions_generated


@pytest.mark.parametrize("backend", [
    "compiled",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="needs a C toolchain")),
])
def test_compiled_shards_reuse_parent_regions(serial, backend):
    """Workers execute regions precompiled by the parent: under
    ``compiled`` no worker ever generates region source for itself.
    Under ``native``, whose parent also builds the superblock module, a
    worker generates only the device entry packets a superblock bails
    at, exactly as many as the same run in the parent, and matches that
    run's observables."""
    specs = [ShardSpec(program=name, level=2, backend=backend)
             for name in PROGRAMS for _ in range(2)]
    outcomes = ShardedRunner(jobs=2).run(specs)
    in_process = ({name: _native_run_after_precompile(name)
                   for name in PROGRAMS} if backend == "native" else {})
    for outcome in outcomes:
        generated = 0
        if backend == "native":
            observables, generated = in_process[outcome.spec.program]
            assert outcome.result.observables() == observables, \
                outcome.spec
        assert outcome.regions_generated == generated, outcome.spec
        assert outcome.regions_from_cache > 0, outcome.spec


class TestStreaming:
    """``run_all(stream=True)`` yields outcomes as shards complete."""

    def test_default_run_all_is_deterministic_run(self, serial):
        """Without stream=, run_all is exactly run(): a submission-order
        list — the deterministic default path stays untouched."""
        specs = _all_specs()
        outcomes = ShardedRunner(jobs=2).run_all(specs)
        assert isinstance(outcomes, list)
        assert [outcome.spec for outcome in outcomes] == specs
        for outcome in outcomes:
            spec = outcome.spec
            expected = serial[(spec.program, spec.backend)]
            assert (outcome.result.observables()
                    == expected.levels[spec.level].result.observables())

    def test_stream_yields_every_outcome_with_identical_results(
            self, serial):
        """Completion order may differ, but the outcome *set* — and
        every observable in it — matches the serial runner."""
        specs = _all_specs()
        streamed = ShardedRunner(jobs=2).run_all(specs, stream=True)
        assert not isinstance(streamed, list)  # lazily yielded
        seen = []
        for outcome in streamed:
            seen.append(outcome.spec)
            expected = serial[(outcome.spec.program, outcome.spec.backend)]
            assert (outcome.result.observables()
                    == expected.levels[
                        outcome.spec.level].result.observables())
            assert outcome.wall_seconds > 0
        # every submitted shard came back exactly once
        assert sorted(map(repr, seen)) == sorted(map(repr, specs))

    def test_stream_inline_jobs1(self, serial):
        """jobs=1 streams inline, in submission order by construction."""
        specs = _all_specs()[:4]
        outcomes = list(ShardedRunner(jobs=1).run_all(specs, stream=True))
        assert [outcome.spec for outcome in outcomes] == specs
        parent = os.getpid()
        assert all(outcome.pid == parent for outcome in outcomes)


def test_spec_validation():
    with pytest.raises(ValueError):
        ShardSpec(program="gcd", kind="nonsense").validate()
    with pytest.raises(ValueError):
        ShardSpec().validate()
    with pytest.raises(ValueError):
        ShardedRunner(jobs=0)
