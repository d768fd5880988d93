"""Differential oracle: one program, every execution configuration.

The oracle compiles a minic source once and then demands *bit-identical
observables* from every way the repository can execute it:

* the interpretive vs the packet-compiled platform backend, at every
  requested detail level (full :meth:`PlatformResult.observables`
  comparison — cycle counts, emulated clock, data image, UART bytes,
  cycle-stamped bus trace, exit code, statistics);
* one core vs every core of an N-core lockstep
  :class:`~repro.vliw.multicore.MultiCoreSoC` (mixed per-core
  backends, so one SoC run covers both backends);
* the platform vs the reference ISS on the functional observables
  (exit code, data image, UART bytes), and — when the caller supplies
  them — vs the generator's independently predicted exit checksum and
  UART stream.

Any exception raised by the frontend, translator or a simulator is
itself a verdict (kind ``crash``), so the fuzzer catches aborts as
well as silent divergence.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field

from repro.errors import ReproError

#: observable fields that must match the *reference ISS* (functional
#: equivalence); timing fields are compared only platform-vs-platform.
_FUNCTIONAL_FIELDS = ("exit_code", "data_image", "uart_output")


@dataclass(frozen=True)
class FuzzConfig:
    """What the oracle sweeps for each program."""

    levels: tuple[int, ...] = (0, 1, 2, 3)
    backends: tuple[str, ...] = ("interp", "compiled")
    cores: int = 2
    #: intra-SoC lockstep scheduling mode for the multi-core sweep
    #: member ("adaptive" or a fixed integer quantum)
    quantum: int | str = "adaptive"
    max_instructions: int = 2_000_000
    max_cycles: int = 20_000_000


@dataclass
class Mismatch:
    """One divergence between two execution configurations."""

    kind: str  # 'frontend' | 'crash' | 'reference' | 'predicted' |
    #            'backend' | 'multicore'
    config: str  # human-readable configuration, e.g. 'L2 interp vs compiled'
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.config}: {self.detail}"


@dataclass
class Verdict:
    """The oracle's result for one program."""

    ok: bool
    mismatches: list[Mismatch] = field(default_factory=list)
    exit_code: int | None = None
    levels_checked: tuple[int, ...] = ()

    def summary(self) -> str:
        if self.ok:
            return f"ok (exit {self.exit_code})"
        return "; ".join(str(m) for m in self.mismatches)


def _diff_observables(a: dict, b: dict) -> str:
    """Name the observable fields that differ (values elided if long)."""
    parts = []
    for key in a:
        if a[key] != b[key]:
            va, vb = a[key], b[key]
            rendered = f"{va!r} != {vb!r}"
            if len(rendered) > 120:
                rendered = "values differ"
            parts.append(f"{key}: {rendered}")
    return "; ".join(parts) or "dicts differ in keys"


def _core_mix(backends: tuple[str, ...], cores: int) -> tuple[str, ...]:
    """Per-core backend assignment cycling through every backend."""
    return tuple(backends[i % len(backends)] for i in range(cores))


def check_source(source: str,
                 expected_exit: int | None = None,
                 expected_uart: bytes | None = None,
                 config: FuzzConfig | None = None) -> Verdict:
    """Run the full differential sweep over one minic source."""
    config = config or FuzzConfig()
    verdict = Verdict(ok=True, levels_checked=config.levels)

    def fail(kind: str, where: str, detail: str) -> None:
        verdict.ok = False
        verdict.mismatches.append(Mismatch(kind, where, detail))

    from repro.minic.compiler import compile_source

    try:
        obj = compile_source(source)
    except ReproError as exc:
        fail("frontend", "compile", str(exc))
        return verdict
    except Exception as exc:  # a frontend abort is a finding, not a crash
        fail("crash", "compile", f"{type(exc).__name__}: {exc}")
        return verdict

    from repro.refsim.iss import FunctionalISS

    try:
        reference = FunctionalISS(obj).run(
            max_instructions=config.max_instructions)
    except Exception as exc:
        fail("crash", "reference ISS", f"{type(exc).__name__}: {exc}")
        return verdict
    verdict.exit_code = reference.exit_code

    if expected_exit is not None and reference.exit_code != expected_exit:
        fail("predicted", "reference ISS",
             f"exit {reference.exit_code} != predicted {expected_exit}")
    if expected_uart is not None and reference.uart_output != expected_uart:
        fail("predicted", "reference ISS",
             f"uart {reference.uart_output!r} != predicted "
             f"{expected_uart!r}")

    from repro.translator.driver import translate
    from repro.vliw.platform import PrototypingPlatform

    for level in config.levels:
        try:
            program = translate(obj, level=level).program
        except Exception as exc:
            fail("crash", f"translate L{level}",
                 f"{type(exc).__name__}: {exc}")
            continue

        by_backend: dict[str, dict] = {}
        for backend in config.backends:
            where = f"L{level} {backend}"
            try:
                result = PrototypingPlatform(program, backend=backend).run(
                    max_cycles=config.max_cycles)
            except Exception as exc:
                fail("crash", where, f"{type(exc).__name__}: {exc}")
                continue
            obs = result.observables()
            by_backend[backend] = obs
            for fld in _FUNCTIONAL_FIELDS:
                if obs[fld] != getattr(reference, fld):
                    fail("reference", f"{where} vs ISS",
                         _diff_observables(
                             {fld: obs[fld]},
                             {fld: getattr(reference, fld)}))

        backends_seen = [b for b in config.backends if b in by_backend]
        for other in backends_seen[1:]:
            base = backends_seen[0]
            if by_backend[other] != by_backend[base]:
                fail("backend", f"L{level} {base} vs {other}",
                     _diff_observables(by_backend[base], by_backend[other]))

        if config.cores > 1 and backends_seen:
            from repro.vliw.multicore import MultiCoreSoC

            mix = _core_mix(tuple(backends_seen), config.cores)
            where = f"L{level} {config.cores}-core {'/'.join(mix)}"
            try:
                multi = MultiCoreSoC(program, cores=config.cores,
                                     backends=mix,
                                     quantum=config.quantum).run(
                                         max_cycles=config.max_cycles)
            except Exception as exc:
                fail("crash", where, f"{type(exc).__name__}: {exc}")
                continue
            for index, backend in enumerate(mix):
                single = by_backend.get(backend)
                if single is None:
                    continue
                core_obs = multi.per_core[index].observables()
                if core_obs != single:
                    fail("multicore", f"{where} core{index} vs single",
                         _diff_observables(single, core_obs))
    return verdict


def check_generated(program, config: FuzzConfig | None = None) -> Verdict:
    """Oracle sweep of a :class:`~repro.fuzz.progen.GenProgram`."""
    try:
        expected_exit, expected_uart = program.evaluate()
        source = program.render()
    except Exception:  # a generator bug is a finding, not an abort
        verdict = Verdict(ok=False)
        verdict.mismatches.append(Mismatch(
            "crash", "mirror", traceback.format_exc(limit=3)))
        return verdict
    return check_source(source, expected_exit=expected_exit,
                        expected_uart=expected_uart, config=config)
