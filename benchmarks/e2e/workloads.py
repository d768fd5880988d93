"""The benchmark's workloads: configurations, how to run and check one.

A *config* is one simulation the user could ask for: a registry program
at a detail level on a backend, on a single-core platform, an N-core
SoC or a cluster of SoCs.  A workload is a fixed list of configs; one
*sweep* runs each of them once, in an order drawn from the seed.

Every run is checked against ``golden.json`` (an observables digest per
config, computed from the ``interp`` backend, the reference semantics)
and against the exit codes the registry's pure-Python references
predict.  A native run that silently fell back to Python also fails.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.programs import registry
from repro.translator.driver import translate
from repro.vliw.cluster import Cluster
from repro.vliw.compiled import precompile_program
from repro.vliw.multicore import MultiCoreSoC
from repro.vliw.platform import PrototypingPlatform

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"


@dataclass(frozen=True)
class Config:
    """One simulation: a program, a level, a backend and a topology."""

    program: str
    level: int
    backend: str
    cores: int = 1
    #: SoCs joined over the fabric; above 1 the config is a cluster
    nodes: int = 1

    @property
    def golden_key(self) -> str:
        """The config's name without its backend (digests are
        backend-independent by the differential contract)."""
        key = f"{self.program}@L{self.level}"
        if self.nodes > 1:
            return f"{key}/{self.nodes}x{self.cores}"
        if self.cores > 1:
            return f"{key}/{self.cores}c"
        return key

    @property
    def key(self) -> str:
        return f"{self.golden_key}/{self.backend}"


# The program lists are spelled out rather than read from the registry,
# so that a program added to the registry later does not change what
# this benchmark measures.
_KERNELS = ("gcd", "dpcm", "fir", "ellip", "sieve", "subband",
            "dct8x8", "viterbi", "crc32")
_SHARED = ("mbox_pingpong", "mbox_prodcons", "shared_barrier",
           "mbox_allreduce")
_DISTRIBUTED = ("token_ring", "allreduce", "work_steal")
_COLD = ("gcd", "fibonacci", "sieve")

WORKLOADS: dict[str, tuple[Config, ...]] = {
    "kernels_warm": tuple(Config(name, 3, "native") for name in _KERNELS),
    "soc_shared": tuple(Config(name, 2, "native", cores=cores)
                        for name in _SHARED for cores in (2, 4)),
    "cluster_fabric": tuple(Config(name, 2, "native", cores=cores,
                                   nodes=nodes)
                            for name in _DISTRIBUTED
                            for nodes, cores in ((2, 2), (4, 1))),
    "cold_start": tuple(Config(name, 3, backend) for name in _COLD
                        for backend in ("compiled", "native")),
}

#: workloads whose operations are fresh child processes
COLD_WORKLOADS = frozenset({"cold_start"})


def sweep_orders(configs, seed: int):
    """Endless per-sweep orders of *configs*, fixed by *seed*."""
    rng = random.Random(seed)
    configs = list(configs)
    while True:
        yield rng.sample(configs, len(configs))


# -- running -----------------------------------------------------------


def simulate(cfg: Config, program):
    """Build a fresh platform, SoC or cluster for *cfg* and run it."""
    if cfg.nodes > 1:
        sim = Cluster(program, socs=cfg.nodes, cores=cfg.cores,
                      backends=cfg.backend, barrier="lockstep")
    elif cfg.cores > 1:
        sim = MultiCoreSoC(program, cores=cfg.cores, backends=cfg.backend,
                           quantum="adaptive")
    else:
        sim = PrototypingPlatform(program, backend=cfg.backend)
    return sim, sim.run()


def compilers_of(sim) -> list:
    """The packet compilers a finished simulation ran on.

    Reads private attributes: the simulators expose no public handle
    on their compilers, and the fallback check needs one.
    """
    if isinstance(sim, Cluster):
        socs = [member.soc for member in sim.members]
    elif isinstance(sim, MultiCoreSoC):
        socs = [sim]
    else:
        return [sim._compiler] if sim._compiler is not None else []
    return [slot._compiler for soc in socs for slot in soc.slots
            if slot._compiler is not None]


def per_core(cfg: Config, result) -> list:
    """Every core's :class:`PlatformResult` of one run."""
    if cfg.nodes > 1:
        return [core for soc in result.per_soc for core in soc.per_core]
    if cfg.cores > 1:
        return list(result.per_core)
    return [result]


def instructions(cfg: Config, result) -> int:
    """Simulated source instructions, summed over every core."""
    return sum(core.source_instructions for core in per_core(cfg, result))


# -- checking ----------------------------------------------------------


def _encode(value):
    """JSON form of the observables plain JSON cannot encode."""
    if isinstance(value, (bytes, bytearray)):
        return "sha256:" + hashlib.sha256(value).hexdigest()
    if dataclasses.is_dataclass(value):  # BusAccess in cluster traces
        return dataclasses.astuple(value)
    raise TypeError(f"unexpected observable of type {type(value).__name__}")


def observables(cfg: Config, result) -> dict:
    """The observables the differential contract holds equal."""
    if cfg.nodes > 1:
        obs = result.observables()
        # cluster scheduling grants and rounds depend on how far each
        # backend overshoots a window; they are not observables
        for key in ("soc_grants", "grants", "rounds"):
            obs.pop(key)
        return obs
    if cfg.cores > 1:
        return dict(
            per_core=result.observables(),
            shared_trace=[(a.cycle, a.kind, a.addr, a.value, a.size)
                          for a in result.shared_trace()],
            contention_stalls=result.contention_stall_cycles,
            contention_conflicts=result.contention_conflicts)
    return result.observables()


def digest(cfg: Config, result) -> str:
    """SHA-256 of the canonical JSON form of the run's observables."""
    blob = json.dumps(observables(cfg, result), sort_keys=True,
                      default=_encode)
    return hashlib.sha256(blob.encode()).hexdigest()


def exit_codes(cfg: Config, result):
    if cfg.nodes > 1:
        return result.exit_codes()
    if cfg.cores > 1:
        return [core.exit_code for core in result.per_core]
    return result.exit_code


@functools.lru_cache(maxsize=None)
def expected_exits(cfg: Config):
    """Exit codes the registry's pure-Python references predict (the
    references take milliseconds, so each config computes them once)."""
    if cfg.nodes > 1:
        return registry.expected_cluster_exits(cfg.program, cfg.nodes,
                                               cfg.cores)
    if cfg.cores > 1:
        return registry.expected_shared_exits(cfg.program, cfg.cores)
    return registry.expected_exit(cfg.program)


def native_problem(cfg: Config, sim) -> str | None:
    """Why a native run did not really run native code, or None."""
    if cfg.backend != "native":
        return None
    compilers = compilers_of(sim)
    if any(c.native_context is None for c in compilers):
        return "native backend fell back to Python (no native module)"
    if not sum(c.native_context.regions_native for c in compilers):
        return "native backend ran no native region"
    return None


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["digests"]


def check(cfg: Config, result, golden: dict[str, str]) -> list[str]:
    """Every way the run disagrees with the reference (empty: correct)."""
    problems = []
    want_exit = expected_exits(cfg)
    got_exit = exit_codes(cfg, result)
    if got_exit != want_exit:
        problems.append(f"exit codes {got_exit} != reference {want_exit}")
    want = golden.get(cfg.golden_key)
    got = digest(cfg, result)
    if want is None:
        problems.append(f"no golden digest for {cfg.golden_key}")
    elif got != want:
        problems.append(f"observables digest {got[:12]} != golden "
                        f"{want[:12]}")
    return problems


# -- set-up ------------------------------------------------------------


def clear_process_memos() -> None:
    """Forget what this process memoized across programs.

    These are module-private memos (host ``compile()`` results and
    loaded native modules); clearing them makes a repeated set-up pay
    what a fresh process pays, while the disk cache stays warm.
    """
    from repro.vliw import compiled
    from repro.vliw.codegen import native

    compiled._HOST_CODE.clear()
    native._LOADED.clear()


def build_objects(configs) -> dict:
    """minic-compile every program the configs use (not timed)."""
    return {cfg.program: registry.build(cfg.program) for cfg in configs}


def prepare(cfg: Config, obj, translation=None):
    """Translate *obj* (unless *translation* is given) and precompile
    it for *cfg*'s backend: every region is lowered and, on ``native``,
    the C module is emitted, built or found in the disk cache, and
    loaded.  Returns the translation."""
    if translation is None:
        translation = translate(obj, level=cfg.level)
    precompile_program(translation.program, backend=cfg.backend)
    return translation


# -- per-layer counts from public result objects -----------------------


def translation_counts(translation) -> dict[str, float]:
    stats = translation.stats
    return {"translator.basic_blocks": stats.basic_blocks,
            "translator.packets": stats.packets,
            "raw.source_instructions": stats.source_instructions,
            "raw.target_instructions": stats.target_instructions}


def result_counts(cfg: Config, sim, result) -> dict[str, float]:
    """Layer counts of one finished run."""
    cores = per_core(cfg, result)
    counts = {
        "exec.packets": sum(core.packets_issued for core in cores),
        "exec.target_cycles": sum(core.target_cycles for core in cores),
    }
    compilers = compilers_of(sim)
    contexts = [c.native_context for c in compilers
                if c.native_context is not None]
    counts["exec.regions_native"] = sum(c.regions_native for c in contexts)
    counts["exec.regions_demoted"] = sum(c.regions_demoted
                                         for c in contexts)
    counts["exec.interp_bails"] = sum(c.interp_bails for c in compilers)
    if cfg.nodes > 1:
        socs = result.per_soc
        counts["cluster.rounds"] = result.rounds
        counts["cluster.quantum"] = sim.quantum
        for name in ("words_routed", "hop_cycles", "ingress_conflicts"):
            counts[f"fabric.{name}"] = result.fabric[name]
    elif cfg.cores > 1:
        socs = [result]
    else:
        return counts
    for soc in socs:
        lockstep = soc.lockstep
        for name, value in (
                ("sync.rounds", lockstep["rounds"]),
                ("sync.runahead_rounds", lockstep["runahead_rounds"]),
                ("raw.runahead_cycles",
                 sum(c["runahead_cycles"] for c in lockstep["per_core"])),
                ("multicore.inline_shared_calls",
                 sum(c["inline_shared_calls"] for c in lockstep["per_core"])),
                ("multicore.interp_bails",
                 sum(c["interp_bails"] for c in lockstep["per_core"])),
                ("multicore.conflicts", soc.contention_conflicts),
                ("multicore.stall_cycles", sum(soc.contention_stall_cycles)),
                ("multicore.shared_transfers",
                 sum(1 for a in soc.shared_trace()
                     if a.kind in ("r", "w")))):
            counts[name] = counts.get(name, 0) + value
    return counts
