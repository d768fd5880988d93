"""Backend speedup — interpreter vs packet-compiled vs native C.

Times one platform execution of every Figure-5 workload (and, for the
native record, the big kernels) at detail level 3 under every
execution backend, checks they produce identical observables, and
writes speedup records to the repo root:

* ``BENCH_backend.json`` — interp vs packet-compiled (the PR-1 bar:
  compiled >= 3x interp on ``sieve`` at level 3);
* ``BENCH_native.json`` — interp vs packet-compiled vs native
  (three-stage pipeline, C emitter with superblock chaining).  The
  bar: *warm* native at least matches *warm* packet-compiled on every
  big kernel (dct8x8, viterbi, crc32), and beats it at least **5x** on
  two of the three, where hot loops spend whole traces inside the
  shared object.  The record also carries each program's superblock
  shape (entries vs members of the native module), so a regression in
  trace formation shows up even when the bar still passes.  On hosts
  without a C toolchain the record is still written with
  ``"native_available": false`` and the bar is skipped — honest
  numbers either way.

``cold`` timings include region code generation (and for native the
shared-object compile unless disk-cached); ``warm`` timings reuse the
program-level caches, the steady state for repeated measurement runs.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.programs.registry import BIG_KERNELS, FIGURE5_PROGRAMS, build
from repro.translator.driver import translate
from repro.vliw.codegen.native import native_available
from repro.vliw.platform import PrototypingPlatform

from conftest import write_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PATH = os.path.join(REPO_ROOT, "BENCH_backend.json")
NATIVE_RECORD_PATH = os.path.join(REPO_ROOT, "BENCH_native.json")
LEVEL = 3
#: the superblock bar: warm native >= 5x warm packet-compiled on this
#: many of the big kernels
SUPERBLOCK_BAR = 5.0
SUPERBLOCK_KERNELS_REQUIRED = 2


def _timed_run(program, backend):
    platform = PrototypingPlatform(program, backend=backend)
    start = time.perf_counter()
    result = platform.run()
    return time.perf_counter() - start, result, platform


def _measure(program):
    """(interp_best, compiled_cold, compiled_warm, observables_equal)."""
    interp_times = []
    for _ in range(2):
        seconds, interp_result, _ = _timed_run(program, "interp")
        interp_times.append(seconds)
    cold, compiled_result, _ = _timed_run(program, "compiled")
    warm_times = []
    for _ in range(2):
        seconds, compiled_result, _ = _timed_run(program, "compiled")
        warm_times.append(seconds)
    equal = interp_result.observables() == compiled_result.observables()
    return min(interp_times), cold, min(warm_times), equal


def test_backend_speedup_record():
    """Figure-5 sweep at level 3; writes BENCH_backend.json."""
    record = {"level": LEVEL, "programs": {}}
    for name in FIGURE5_PROGRAMS:
        program = translate(build(name), level=LEVEL).program
        interp, cold, warm, equal = _measure(program)
        assert equal, f"{name}: backends disagree on observables"
        record["programs"][name] = {
            "interp_seconds": round(interp, 6),
            "compiled_cold_seconds": round(cold, 6),
            "compiled_warm_seconds": round(warm, 6),
            "speedup_cold": round(interp / cold, 3),
            "speedup_warm": round(interp / warm, 3),
        }
    sieve = record["programs"]["sieve"]
    record["sieve_level3_speedup"] = sieve["speedup_cold"]
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    lines = [f"backend speedup at detail level {LEVEL} "
             f"(interp vs packet-compiled):"]
    for name, row in record["programs"].items():
        lines.append(f"  {name:10s} interp {row['interp_seconds']*1000:8.1f}ms"
                     f"  compiled {row['compiled_cold_seconds']*1000:8.1f}ms"
                     f" (warm {row['compiled_warm_seconds']*1000:8.1f}ms)"
                     f"  speedup {row['speedup_cold']:.2f}x"
                     f" / {row['speedup_warm']:.2f}x")
    write_report("backend_speedup.txt", "\n".join(lines))
    # the acceptance bar: >= 3x on sieve at detail level 3, even paying
    # the one-time compilation cost
    assert sieve["speedup_cold"] >= 3.0, sieve
    assert sieve["speedup_warm"] >= sieve["speedup_cold"]


def test_backend_smoke_gcd():
    """Quick CI smoke: both backends agree on gcd at level 1."""
    program = translate(build("gcd"), level=1).program
    _, interp_result, _ = _timed_run(program, "interp")
    _, compiled_result, _ = _timed_run(program, "compiled")
    assert interp_result.observables() == compiled_result.observables()


def _best_of(program, backend, runs=2):
    times = []
    for _ in range(runs):
        seconds, result, platform = _timed_run(program, backend)
        times.append(seconds)
    return min(times), result, platform


def _superblock_shape(platform):
    """Entries and members of the platform's native module, or None
    when it ran on the Python emitter (no toolchain)."""
    context = (platform._compiler.native_context
               if platform._compiler else None)
    if context is None:
        return None
    plan = context.plan
    return {"entries": len(plan), "members": plan.n_members}


def test_native_speedup_record():
    """Figure-5 + big-kernel sweep at level 3 across all three
    backends; writes BENCH_native.json."""
    available = native_available()
    record = {
        "level": LEVEL,
        "native_available": available,
        "superblock_bar": SUPERBLOCK_BAR,
        "programs": {},
    }
    for name in (*FIGURE5_PROGRAMS, *BIG_KERNELS):
        # two independent translations of the same object, so each
        # backend's cold run starts from genuinely empty region caches
        # (a shared program would let whichever backend runs second
        # reuse the first's lowering/source work); translation is
        # deterministic, so observables still compare across the two
        obj = build(name)
        program = translate(obj, level=LEVEL).program
        native_program = translate(obj, level=LEVEL).program
        compiled_cold, compiled_result, _ = _timed_run(program, "compiled")
        compiled_warm, compiled_result, _ = _best_of(program, "compiled")
        # native cold includes codegen + the C compile (or a disk-cache
        # dlopen on repeated benchmark runs)
        native_cold, native_result, _ = _timed_run(native_program, "native")
        native_warm, native_result, native_platform = _best_of(
            native_program, "native")
        interp_time, interp_result, _ = _best_of(program, "interp")
        assert (interp_result.observables()
                == compiled_result.observables()
                == native_result.observables()), name
        record["programs"][name] = {
            "interp_seconds": round(interp_time, 6),
            "compiled_cold_seconds": round(compiled_cold, 6),
            "compiled_warm_seconds": round(compiled_warm, 6),
            "native_cold_seconds": round(native_cold, 6),
            "native_warm_seconds": round(native_warm, 6),
            "native_vs_interp_warm": round(interp_time / native_warm, 3),
            "native_vs_compiled_warm": round(
                compiled_warm / native_warm, 3),
            "superblocks": _superblock_shape(native_platform),
        }
    with open(NATIVE_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    lines = [f"three-stage backend speedup at detail level {LEVEL} "
             f"(interp vs packet-compiled vs native C, "
             f"native_available={available}):"]
    for name, row in record["programs"].items():
        shape = row["superblocks"] or {"entries": 0, "members": 0}
        lines.append(
            f"  {name:10s} interp {row['interp_seconds']*1000:8.1f}ms"
            f"  compiled {row['compiled_warm_seconds']*1000:8.1f}ms"
            f"  native {row['native_warm_seconds']*1000:8.1f}ms"
            f"  (native {row['native_vs_interp_warm']:.1f}x interp,"
            f" {row['native_vs_compiled_warm']:.2f}x compiled)"
            f"  superblocks {shape['entries']}/{shape['members']}")
    write_report("native_speedup.txt", "\n".join(lines))
    if not available:
        pytest.skip("no C toolchain: BENCH_native.json records the "
                    "Python-emitter fallback; speedup bar not applicable")
    # the acceptance bar: warm native never loses to warm
    # packet-compiled on a big kernel, and whole-trace native execution
    # reaches >= 5x on at least two of them
    for name in BIG_KERNELS:
        row = record["programs"][name]
        assert row["native_vs_compiled_warm"] >= 1.0, (name, row)
    over_bar = [name for name in BIG_KERNELS
                if (record["programs"][name]["native_vs_compiled_warm"]
                    >= SUPERBLOCK_BAR)]
    assert len(over_bar) >= SUPERBLOCK_KERNELS_REQUIRED, {
        name: record["programs"][name]["native_vs_compiled_warm"]
        for name in BIG_KERNELS}


def test_native_smoke_gcd():
    """Quick CI smoke: native agrees with interp on gcd at level 1,
    and the chained module forms superblocks around the gcd loop."""
    program = translate(build("gcd"), level=1).program
    _, interp_result, _ = _timed_run(program, "interp")
    _, native_result, native_platform = _timed_run(program, "native")
    assert interp_result.observables() == native_result.observables()
    shape = _superblock_shape(native_platform)
    if shape is not None:  # toolchain present
        assert shape["members"] >= shape["entries"] > 0
