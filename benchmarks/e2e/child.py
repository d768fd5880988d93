"""Child processes of the benchmark; ``run.py`` starts them one at a time.

``child.py cold NAME LEVEL BACKEND OBJECT [--trace]`` is one cold-start
operation: a fresh interpreter takes the object file to a result on one
backend at one detail level, the work ``repro-translate --run`` does.
It then checks the result and prints one JSON line for the parent.
``t_result_ns`` comes from the system-wide monotonic clock that the
parent also reads when it spawns the child, so the parent's interval
covers interpreter start-up and imports but not the check.

``child.py prime`` fills the native cache named by
``REPRO_NATIVE_CACHE`` with the module of every native config of every
workload, so a later set-up never runs the C compiler.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def cold(name: str, level: int, backend: str, obj_path: str,
         traced: bool) -> dict:
    tracer = None
    if traced:
        from trace import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.phase = "ops"
        tracer.op = 0
    from repro.objfile import elf
    from repro.translator.driver import translate
    from repro.vliw.platform import PrototypingPlatform

    translation = translate(elf.load(obj_path), level=level)
    platform = PrototypingPlatform(translation.program, backend=backend)
    result = platform.run()
    t_result_ns = time.monotonic_ns()

    import workloads as wl

    cfg = wl.Config(name, level, backend)
    problems = wl.check(cfg, result, wl.load_golden())
    native = wl.native_problem(cfg, platform)
    if native:
        problems.append(native)
    trace = None
    if tracer is not None:
        tracer.op = None
        tracer.uninstall()
        counts = {**wl.translation_counts(translation),
                  **wl.result_counts(cfg, platform, result)}
        for key, value in counts.items():
            tracer.count(key, value)
        trace = tracer.export()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tools = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"t_result_ns": t_result_ns,
            "problems": problems,
            "instructions": wl.instructions(cfg, result),
            "peak_rss_kb": max(own, tools),
            "trace": trace}


def prime() -> dict:
    import workloads as wl

    done = set()
    for configs in wl.WORKLOADS.values():
        for cfg in configs:
            key = (cfg.program, cfg.level)
            if cfg.backend != "native" or key in done:
                continue
            done.add(key)
            wl.prepare(cfg, wl.build_objects([cfg])[cfg.program])
    return {"primed": len(done)}


def main(argv: list[str]) -> int:
    if argv[:1] == ["cold"] and len(argv) in (5, 6):
        _, name, level, backend, obj_path, *flags = argv
        payload = cold(name, int(level), backend, obj_path,
                       traced=flags == ["--trace"])
    elif argv == ["prime"]:
        payload = prime()
    else:
        print("usage: child.py cold NAME LEVEL BACKEND OBJECT [--trace] | "
              "child.py prime", file=sys.stderr)
        return 2
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
