"""End-to-end benchmark of the binary translator and its simulators.

Run one workload from the repository root::

    python3 benchmarks/e2e/run.py --workload kernels_warm --seed 1 \\
        --seconds 15 --trace 0 [--out run.json] [--spans spans.jsonl]

The run primes the benchmark's own native cache (``.cache/``, in a
child process, only when the sources changed since the last priming),
then in three rounds sets the workload up from object files and runs
sweeps of the workload's configs in a seeded order, for ``--seconds``
of wall time in all.  Every run is checked against ``golden.json``
and the registry's reference exit codes; a failing run counts in
``failed`` and never aborts the benchmark.  Load comes from this one
process, one operation at a time (a closed loop with one client);
``cold_start`` runs each operation as one child process at a time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics
of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``.  ``--out`` writes the same numbers with their
sample counts and informational values for ``compare.py``.

``--smoke`` runs two sweeps (one cold operation per backend) and one
set-up.  ``--regen-golden`` recomputes ``golden.json`` on the ``interp``
backend.  See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import stats
import trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
CACHE = HERE / ".cache"
WORK = HERE / ".work"

#: rounds per run: each sets the workload up from object files, then
#: runs its share of the timed operations.  The host's slow spells last
#: seconds, so spreading the set-ups over the run lets their median
#: (``setup_s``) ride out one.
ROUNDS = 3
#: cold operations per config in one cold sweep: a compiled start is a
#: tenth of a native one, so it repeats to give its median the samples
COLD_REPS = {"compiled": 3, "native": 1}
#: wall-clock caps on child processes (priming may build every module)
COLD_TIMEOUT_S = 170
PRIME_TIMEOUT_S = 850


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one workload of the end-to-end benchmark.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="sets the order of operations")
    parser.add_argument("--seconds", type=float,
                        help="wall time of the timed sweeps (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", help="write the full record here")
    parser.add_argument("--spans", help="write the recorded spans here "
                                        "(JSON lines; with --trace)")
    parser.add_argument("--smoke", action="store_true",
                        help="two sweeps, one set-up")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute golden.json and exit")
    return parser.parse_args(argv)


def child_env(native_cache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(native_cache)
    return env


def source_stamp() -> str:
    """Digest of every source the native modules depend on."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def prime() -> float:
    """Fill ``.cache/`` in a child process unless it is already primed
    for these sources; returns the child's wall time."""
    stamp_path = CACHE / "primed.stamp"
    stamp = source_stamp()
    if stamp_path.exists() and stamp_path.read_text() == stamp:
        return 0.0
    CACHE.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "child.py"), "prime"],
                   env=child_env(CACHE), check=True, timeout=PRIME_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    stamp_path.write_text(stamp)
    return time.perf_counter() - start


def regen_golden(wl) -> int:
    """Recompute every config's digest on the reference backend."""
    digests = {}
    for configs in wl.WORKLOADS.values():
        for cfg in configs:
            ref = replace(cfg, backend="interp")
            if ref.golden_key in digests:
                continue
            obj = wl.build_objects([ref])[ref.program]
            program = wl.translate(obj, level=ref.level).program
            _sim, result = wl.simulate(ref, program)
            if wl.exit_codes(ref, result) != wl.expected_exits(ref):
                print(f"error: {ref.golden_key} exits "
                      f"{wl.exit_codes(ref, result)}, the reference "
                      f"predicts {wl.expected_exits(ref)}", file=sys.stderr)
                return 1
            digests[ref.golden_key] = wl.digest(ref, result)
            print(f"{ref.golden_key}: {digests[ref.golden_key]}")
    with open(wl.GOLDEN_PATH, "w") as handle:
        json.dump({"reference_backend": "interp",
                   "digests": dict(sorted(digests.items()))},
                  handle, indent=2)
        handle.write("\n")
    return 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Runner:
    """Set-up, timed sweeps and checks of one workload."""

    def __init__(self, wl, args, work: Path) -> None:
        self.wl = wl
        self.work = work
        self.configs = wl.WORKLOADS[args.workload]
        self.cold = args.workload in wl.COLD_WORKLOADS
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.rounds = 1 if args.smoke else ROUNDS
        self.golden = wl.load_golden()
        self.tracer = trace.Tracer() if args.trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: simulated instructions and op time, keyed by "was traced"
        self.instructions = {False: 0, True: 0}
        self.op_ns = {False: 0, True: 0}
        self.traced_units = 0
        self.child_rss_kb = 0
        #: seeded sweep orders, the index of the next unit (sweep or cold
        #: operation) and, in cold_start, the unfinished sweep
        self.orders = iter(())
        self.index = 0
        self.pending: list = []
        self.sweep_ns = 0

    # -- bookkeeping ---------------------------------------------------

    def record(self, cfg, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{cfg.key}: {'; '.join(problems)}")

    def count(self, values: dict) -> None:
        for name, value in values.items():
            self.tracer.count(name, value)

    # -- one in-process operation --------------------------------------

    def execute(self, cfg, program, traced: bool = False) -> tuple[int, int]:
        """Run *cfg* once, then check it; returns ``(ns, instructions)``
        of the run alone."""
        wl = self.wl
        if traced:
            self.tracer.op = self.attempted
        start = time.perf_counter_ns()
        try:
            sim, result = wl.simulate(cfg, program)
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            elapsed = time.perf_counter_ns() - start
            if traced:
                self.tracer.op = None
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.record(cfg, [f"{type(exc).__name__}: {exc} "
                              f"({where.filename}:{where.lineno})"])
            return elapsed, 0
        elapsed = time.perf_counter_ns() - start
        if traced:
            self.tracer.op = None
        problems = wl.check(cfg, result, self.golden)
        native = wl.native_problem(cfg, sim)
        if native:
            problems.append(native)
        self.record(cfg, problems)
        if traced:
            self.count(wl.result_counts(cfg, sim, result))
        return elapsed, wl.instructions(cfg, result)

    # -- set-up --------------------------------------------------------

    def setup(self, objects) -> dict:
        """From object files to ready to run, with the process memos
        cleared first; returns ``(program, level) -> translation``."""
        wl = self.wl
        if self.tracer is not None:
            self.tracer.phase = "setup"
            self.tracer.install()
        wl.clear_process_memos()
        gc.collect()
        translations: dict = {}
        ready = set()
        total = native_ready = first_result = 0.0
        for cfg in self.configs:
            key = (cfg.program, cfg.level)
            fresh = key not in translations
            start = time.perf_counter()
            if (key, cfg.backend) not in ready:
                translations[key] = wl.prepare(
                    cfg, objects[cfg.program], translations.get(key))
                ready.add((key, cfg.backend))
            ready_s = time.perf_counter() - start
            run_ns, _ = self.execute(cfg, translations[key].program)
            total += ready_s + run_ns / 1e9
            if fresh:
                native_ready += ready_s
                first_result += ready_s + run_ns / 1e9
                if self.tracer is not None:
                    self.count(wl.translation_counts(translations[key]))
        self.samples["setup_s"].append(total)
        if not self.cold:
            # summed over the programs: a median over programs would
            # rest on the few samples of whichever program lands mid-rank
            self.samples["native_ready_s"].append(native_ready)
            self.samples["first_result_s"].append(first_result)
        if self.tracer is not None:
            self.tracer.uninstall()
        gc.collect()
        return translations

    # -- timed phase ---------------------------------------------------

    def modes(self) -> tuple[bool, ...]:
        """Untraced only; with tracing, an untraced and a traced
        repetition in alternating order (the overhead comparison)."""
        if self.tracer is None:
            return (False,)
        return (False, True) if self.index % 2 == 0 else (True, False)

    def sweep(self, order, programs, traced: bool) -> None:
        if traced:
            self.tracer.phase = "ops"
            self.tracer.install()
        total_ns = 0
        for cfg in order:
            ns, instructions = self.execute(
                cfg, programs[(cfg.program, cfg.level)], traced)
            total_ns += ns
            self.instructions[traced] += instructions
        if traced:
            self.tracer.uninstall()
            self.traced_units += 1
        else:
            self.samples["sweep_ms"].append(total_ns / 1e6)
        self.op_ns[traced] += total_ns

    def warm_round(self, translations, deadline: float) -> None:
        programs = {key: t.program for key, t in translations.items()}
        while True:
            for traced in self.modes():
                self.sweep(next(self.orders), programs, traced)
            self.index += 1
            if self.smoke:
                if self.index * len(self.modes()) >= 2:
                    return
            elif time.perf_counter() >= deadline:
                return

    # -- cold operations (child processes) -----------------------------

    def cold_op(self, cfg, obj_path: Path, traced: bool) -> int:
        """One fresh child process from object file to checked result."""
        cache = self.work / f"native-{self.attempted}"
        cache.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), "cold", cfg.program,
               str(cfg.level), cfg.backend, str(obj_path)]
        if traced:
            cmd.append("--trace")
        spawn_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd, env=child_env(cache),
                                  capture_output=True, text=True,
                                  timeout=COLD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.record(cfg, [f"child timed out after {COLD_TIMEOUT_S}s"])
            return time.monotonic_ns() - spawn_ns
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        try:
            payload = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.record(cfg, [f"child exited {proc.returncode}: {tail[0]}"])
            return time.monotonic_ns() - spawn_ns
        # the child stamps its result on the same system-wide clock
        elapsed = payload["t_result_ns"] - spawn_ns
        self.record(cfg, payload["problems"])
        self.instructions[traced] += payload["instructions"]
        self.op_ns[traced] += elapsed
        if traced:
            self.tracer.merge(payload["trace"], "ops")
            self.traced_units += 1
        else:
            self.child_rss_kb = max(self.child_rss_kb,
                                    payload["peak_rss_kb"])
            kind = ("first_result_s" if cfg.backend == "compiled"
                    else "native_ready_s")
            self.samples[kind].append(elapsed / 1e9)
        return elapsed

    def cold_round(self, paths, deadline: float, last: bool) -> None:
        """Cold operations until *deadline*; a sweep left unfinished
        continues in the next round, and the last round finishes it."""
        while True:
            if not self.pending:
                self.pending = list(next(self.orders))
                if self.smoke:
                    self.pending = [
                        next(c for c in self.pending if c.backend == backend)
                        for backend in ("compiled", "native")]
                self.sweep_ns = 0
            cfg = self.pending.pop(0)
            for traced in self.modes():
                elapsed = self.cold_op(cfg, paths[cfg.program], traced)
                if not traced:
                    self.sweep_ns += elapsed
            self.index += 1
            if not self.pending:
                self.samples["sweep_ms"].append(self.sweep_ns / 1e6)
                if self.smoke:
                    return
            if time.perf_counter() >= deadline and not (last and
                                                        self.pending):
                return

    def run(self) -> None:
        from repro.objfile import elf

        objects = self.wl.build_objects(self.configs)
        units = self.configs
        paths = {}
        if self.cold:
            units = [cfg for cfg in self.configs
                     for _ in range(COLD_REPS[cfg.backend])]
            for name, obj in objects.items():
                paths[name] = self.work / f"{name}.relf"
                elf.save(obj, str(paths[name]))
        self.orders = self.wl.sweep_orders(units, self.seed)
        for index in range(self.rounds):
            translations = self.setup(objects)
            deadline = time.perf_counter() + self.seconds / self.rounds
            if self.cold:
                self.cold_round(paths, deadline,
                                last=index == self.rounds - 1)
            else:
                self.warm_round(translations, deadline)

    # -- metrics -------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """``name -> (value, samples)``."""
        st = stats
        s = self.samples
        if self.cold:
            rss_kb = self.child_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sweeps = s["sweep_ms"]
        sweep_ms = st.median(sweeps)
        # every sweep simulates the same instructions; dividing by the
        # median sweep rather than the total time keeps a slow spell of
        # the host in less than half the sweeps out of the figure
        per_sweep = self.instructions[False] / len(sweeps)
        return {
            "setup_s": (st.median(s["setup_s"]), len(s["setup_s"])),
            "sim_mips": (_ratio(per_sweep, sweep_ms * 1e3), len(sweeps)),
            "sweep_ms_p50": (sweep_ms, len(sweeps)),
            "first_result_s_p50": (st.median(s["first_result_s"]),
                                   len(s["first_result_s"])),
            "native_ready_s_p50": (st.median(s["native_ready_s"]),
                                   len(s["native_ready_s"])),
            "peak_rss_mb": (rss_kb / 1024, 1),
        }

    def per_layer(self) -> dict[str, tuple[float, int]]:
        """``name -> (value, units)``; see ``trace.layer_metrics``."""
        n = self.traced_units
        m = trace.layer_metrics(
            self.tracer, {"ops": n, "setup": self.rounds})

        def get(name):
            return m.get(name, (0.0, 0))

        m["sync.self.ms"] = get("sync.run_until.self.ms")
        m["cluster.self.ms"] = get("cluster.run_until.self.ms")
        cffi, cffi_units = get("codegen.load.cffi.calls")
        ctypes, ctypes_units = get("codegen.load.ctypes.calls")
        loads = cffi + ctypes
        units = cffi_units or ctypes_units
        m["codegen.load.calls"] = (loads, units)
        m["codegen.load.ms"] = (get("codegen.load.cffi.ms")[0]
                                + get("codegen.load.ctypes.ms")[0], units)
        m["codegen.binding_cffi"] = (_ratio(cffi, loads), units)
        m["codegen.cc.hits"] = (max(0.0, loads - get("codegen.cc.calls")[0]),
                                units)
        source, units = get("raw.source_instructions")
        m["translator.code_expansion"] = (
            _ratio(get("raw.target_instructions")[0], source), units)
        target_cycles = get("exec.target_cycles")[0]
        m["sync.window_cycle_share"] = (
            _ratio(get("raw.runahead_cycles")[0], target_cycles), n)
        m["exec.host_ns_per_target_cycle"] = (
            _ratio(_ratio(self.op_ns[True], n), target_cycles), n)
        m["trace.coverage_pct"] = (
            100.0 * _ratio(self.tracer.top_ns, self.op_ns[True]), n)
        untraced = _ratio(self.instructions[False], self.op_ns[False])
        traced = _ratio(self.instructions[True], self.op_ns[True])
        m["trace.overhead_pct"] = (100.0 * (_ratio(untraced, traced) - 1.0),
                                   n)
        return m

    def info(self) -> dict:
        sweeps = self.samples["sweep_ms"]
        return {
            "sweeps": len(sweeps),
            "sweep_ms_p90": stats.percentile(sweeps, 90),
            "sweep_ms_tail": stats.tail(sweeps),
            "sweep_ms_max": max(sweeps),
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "failures": self.failures,
        }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"error: run from a checkout holding src/repro and "
              f"BENCHMARK.json (looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_NATIVE_CACHE"] = str(CACHE)
    import workloads as wl  # imports the simulator from SRC

    if args.regen_golden:
        return regen_golden(wl)
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    # scratch space inside the checkout; temporary files of this process,
    # its children and the C compiler go there too
    work = WORK / str(os.getpid())
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        prime_s = prime()
        runner = Runner(wl, args, work)
        runner.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kind = "per_layer" if args.trace else "end_to_end"
    values = runner.per_layer() if args.trace else runner.end_to_end()
    metrics = {}
    for entry in spec[kind]:
        value, n = values.get(entry["name"], (0.0, 0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"],
                                  "n": n}
    info = {"prime_s": prime_s, "nproc": nproc(), **runner.info()}
    correct = runner.failed == 0 and runner.attempted > 0

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  nproc {info['nproc']}")
    for name, metric in metrics.items():
        print(f"  {name:<34s} {metric['value']:>16.6f} "
              f"{metric['unit']:<6s} n={metric['n']}")
    for key in ("ops_attempted", "ops_failed", "prime_s", "sweeps",
                "sweep_ms_p90", "sweep_ms_tail", "sweep_ms_max"):
        print(f"  {key:<34s} {info[key]}")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    if args.spans and runner.tracer is not None:
        runner.tracer.write_spans(args.spans)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "correct": correct, "attempted": runner.attempted,
                       "failed": runner.failed, "metrics": metrics,
                       "info": info}, handle, indent=2)
            handle.write("\n")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing is salted per process, which moves dict layouts
        # and with them the simulator's speed from run to run; pin it
        # (children inherit it) so runs differ only in what they measure
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
