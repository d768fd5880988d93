"""Differential lockdown of the SoC cluster over the modeled fabric.

Three contracts pin the cluster layer:

* **Degenerate identity** — a :class:`~repro.vliw.cluster.Cluster` of
  one SoC is pure overhead: its sole SoC must produce observables bit
  identical to a standalone
  :class:`~repro.vliw.multicore.MultiCoreSoC`, for every backend mix,
  detail level and core quantum — raw global bus trace, grants and
  lockstep round counts included.  The fabric endpoint exists but
  routes nothing.
* **Cross-barrier bit identity** — for every distributed workload and
  backend mix, the in-process ``barrier="lockstep"`` and the
  cross-process ``barrier="process"`` executions must produce bit
  identical :meth:`~repro.vliw.cluster.ClusterResult.observables`
  (per-SoC observables, shared traces, grant counts, fabric routing
  statistics and endpoint counters).  This is the determinism contract
  of :mod:`repro.vliw.fabric`: quantum <= fabric minimum latency makes
  window-barrier routing order-independent, so parallel workers cannot
  diverge from the serial schedule.
* **Backend independence** — interp, compiled and native SoCs produce
  the same cluster observables on both topologies, although their
  window sequences differ (a backend's overshoot of one window decides
  where the next starts).

Plus the PR-3 round-safety contracts end to end (``max_cycles`` and
the no-progress raise, in both barrier modes) and the registry's
expected exit codes for every distributed workload.

``REPRO_SMOKE_CORES`` overrides the per-SoC core count (CI uses 2).
"""

import os

import pytest

from repro.errors import ReproError, SimulationError
from repro.programs.registry import (
    build,
    cluster_program_names,
    expected_cluster_exits,
)
from repro.translator.driver import translate
from repro.vliw.cluster import Cluster
from repro.vliw.codegen.native import native_available
from repro.vliw.fabric import MAX_NODES, FabricConfig
from repro.vliw.multicore import MultiCoreSoC
from repro.vliw.platform import PrototypingPlatform

LEVEL = 2
LEVELS = (0, 1, 2, 3)
N_CORES = max(2, int(os.environ.get("REPRO_SMOKE_CORES", "2")))

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
        rotation = ("interp", "native", "compiled")
        mixes.append(tuple(rotation[i % 3] for i in range(n)))
    return mixes


@pytest.fixture(scope="module")
def translated():
    """Translation cache: every configuration runs the same program."""
    cache = {}

    def get(name, level=LEVEL):
        key = (name, level)
        if key not in cache:
            cache[key] = translate(build(name), level=level).program
        return cache[key]

    return get


class TestDegenerateClusterIdentity:
    """Cluster(1 SoC x N cores) == MultiCoreSoC, bit for bit."""

    @pytest.mark.parametrize("level", LEVELS)
    def test_equals_standalone_soc_across_levels(self, level, translated):
        # mbox_allreduce's long private phases are where run-ahead
        # windows span the most cluster windows; interpreted cores need
        # tens of seconds per run there, so it runs on translated mixes
        cases = [("mbox_pingpong", backends) for backends in _mixes(N_CORES)]
        cases += [("mbox_allreduce", backends)
                  for backends in _mixes(N_CORES)
                  if "interp" not in backends]
        for name, backends in cases:
            program = translated(name, level)
            for core_quantum in ("adaptive", 1):
                alone = MultiCoreSoC(program, cores=N_CORES,
                                     backends=backends,
                                     quantum=core_quantum).run()
                clustered = Cluster(program, socs=1, cores=N_CORES,
                                    backends=backends,
                                    core_quantum=core_quantum).run()
                inner = clustered.per_soc[0]
                case = (name, backends, core_quantum)
                assert inner.observables() == alone.observables(), case
                assert _trace_tuples(inner.bus_trace) == \
                    _trace_tuples(alone.bus_trace), case
                assert inner.grants == alone.grants, case
                assert inner.contention_conflicts == \
                    alone.contention_conflicts, case
                for key in ("rounds", "runahead_rounds"):
                    assert inner.lockstep[key] == alone.lockstep[key], \
                        (case, key)
                # nothing ever crossed the (1-node) fabric
                assert clustered.fabric["words_routed"] == 0
                assert clustered.per_soc_fabric[0]["sent"] == 0

    def test_single_core_single_soc(self, translated):
        """The doubly degenerate cluster matches the plain platform."""
        program = translated("crc32")
        single = PrototypingPlatform(program).run()
        clustered = Cluster(program, socs=1, cores=1).run()
        assert clustered.per_soc[0].per_core[0].observables() == \
            single.observables()

    @pytest.mark.parametrize("name", cluster_program_names())
    def test_distributed_workloads_degrade_on_one_node(self, name,
                                                       translated):
        """With nodes=1 every workload reads node count 1 and exits 0
        without touching the fabric — on the cluster AND on the plain
        single-core platform (whose bus has a degenerate endpoint)."""
        program = translated(name)
        clustered = Cluster(program, socs=1, cores=1).run()
        assert clustered.exit_codes() == [[0]]
        assert clustered.fabric["words_routed"] == 0
        assert PrototypingPlatform(program).run().exit_code == 0


def _trace_tuples(trace):
    return [(a.cycle, a.kind, a.addr, a.value, a.size) for a in trace]


class TestDistributedWorkloads:
    """Registry exit codes + fabric accounting, in-process barrier."""

    @pytest.mark.parametrize("nodes", (2, 3))
    @pytest.mark.parametrize("name", cluster_program_names())
    def test_exit_codes_match_registry(self, name, nodes, translated):
        result = Cluster(translated(name), socs=nodes).run()
        assert result.exit_codes() == expected_cluster_exits(name, nodes)
        # conservation: every routed word was sent and received once
        stats = result.per_soc_fabric
        assert result.fabric["words_routed"] == \
            sum(s["sent"] for s in stats) == \
            sum(s["received"] for s in stats)
        assert result.fabric["words_routed"] > 0
        # no workload leaves undrained words in a receive queue
        assert all(s["pending"] == 0 for s in stats)

    @pytest.mark.parametrize("name", cluster_program_names())
    def test_exit_codes_backend_independent(self, name, translated):
        """Per-SoC backend mixes don't change distributed results."""
        program = translated(name)
        expected = expected_cluster_exits(name, 2)
        for backends in [("interp", "compiled"), ("compiled", "interp")]:
            result = Cluster(program, socs=2, backends=backends).run()
            assert result.exit_codes() == expected, backends

    def test_secondary_cores_idle_but_arbitrate(self, translated):
        """cores>1 per SoC: core 0 runs the protocol, the others read
        node-id 0 from their coreid device and exit 0 immediately."""
        result = Cluster(translated("token_ring"), socs=2,
                         cores=N_CORES).run()
        assert result.exit_codes() == \
            expected_cluster_exits("token_ring", 2, cores=N_CORES)

    def test_ring_topology_is_observable_but_exit_invariant(self,
                                                            translated):
        """Topology and timing knobs change cycle counts, never
        protocol outcomes."""
        program = translated("allreduce")
        xbar = Cluster(program, socs=3).run()
        ring = Cluster(program, socs=3,
                       fabric=FabricConfig(latency=8, word_cycles=4,
                                           topology="ring")).run()
        assert ring.exit_codes() == xbar.exit_codes() == \
            expected_cluster_exits("allreduce", 3)
        assert ring.fabric["hop_cycles"] != xbar.fabric["hop_cycles"]

    @pytest.mark.parametrize("level", LEVELS)
    def test_token_ring_at_every_level(self, level, translated):
        result = Cluster(translated("token_ring", level), socs=2).run()
        assert result.exit_codes() == expected_cluster_exits(
            "token_ring", 2)


class TestCrossBarrierBitIdentity:
    """barrier="process" == barrier="lockstep", observably (the PR's
    acceptance criterion)."""

    @pytest.mark.parametrize("name", cluster_program_names())
    def test_every_distributed_workload(self, name, translated):
        program = translated(name)
        for backends in [("interp", "interp"), ("compiled", "compiled"),
                         ("interp", "compiled")]:
            serial = Cluster(program, socs=2, backends=backends,
                             barrier="lockstep").run()
            parallel = Cluster(program, socs=2, backends=backends,
                               barrier="process").run()
            assert parallel.observables() == serial.observables(), backends
            assert serial.exit_codes() == expected_cluster_exits(name, 2)

    def test_workers_reuse_shipped_region_caches(self, translated):
        """The sharded-runner transport trick holds for cluster
        workers: precompiled programs ship their Region IR, so no
        worker compiles anything."""
        result = Cluster(translated("token_ring"), socs=2,
                         backends="compiled", barrier="process").run()
        assert result.regions_generated == [0, 0]
        assert result.exit_codes() == expected_cluster_exits(
            "token_ring", 2)

    def test_multicore_socs_across_the_barrier(self, translated):
        """SoCs with internal shared-bus contention (cores>1) stay bit
        identical across the barrier boundary."""
        mixed = tuple("interp" if i % 2 else "compiled"
                      for i in range(N_CORES))
        program = translated("work_steal")
        serial = Cluster(program, socs=2, cores=N_CORES, backends=mixed,
                         barrier="lockstep").run()
        parallel = Cluster(program, socs=2, cores=N_CORES, backends=mixed,
                           barrier="process").run()
        assert parallel.observables() == serial.observables()

    @pytest.mark.skipif(not _NATIVE, reason="needs a C toolchain")
    def test_native_and_mixed_workers(self, translated):
        program = translated("allreduce")
        for backends in [("native", "native"), ("compiled", "native")]:
            serial = Cluster(program, socs=2, backends=backends,
                             barrier="lockstep").run()
            parallel = Cluster(program, socs=2, backends=backends,
                               barrier="process").run()
            assert parallel.observables() == serial.observables(), backends


_FABRICS = (FabricConfig(word_cycles=2),
            FabricConfig(word_cycles=8, topology="ring"))


@pytest.fixture(scope="module")
def cluster_observables(translated):
    """Observables of one cluster run, minus the window schedule
    (``grants``, ``soc_grants`` and ``rounds`` count windows, and where
    the next window starts depends on how far a backend overshoots
    the last one); memoized so every backend compares with one
    interp run."""
    cache = {}

    def get(name, socs, cores, fabric, backend):
        key = (name, socs, cores, fabric, backend)
        if key not in cache:
            obs = Cluster(translated(name), socs=socs, cores=cores,
                          backends=backend, fabric=fabric).run().observables()
            for schedule in ("grants", "soc_grants", "rounds"):
                del obs[schedule]
            cache[key] = obs
        return cache[key]

    return get


class TestClusterBackendIndependence:
    """Cluster observables do not depend on the backend: per-SoC
    results, shared traces, contention and every fabric counter are
    the interp reference's, whatever the window sequence was."""

    @pytest.mark.parametrize("backend", (
        "compiled",
        pytest.param("native", marks=pytest.mark.skipif(
            not _NATIVE, reason="needs a C toolchain"))))
    @pytest.mark.parametrize("fabric", _FABRICS, ids=("xbar-w2", "ring-w8"))
    @pytest.mark.parametrize("socs,cores", ((2, 2), (4, 1)),
                             ids=("2x2", "4x1"))
    @pytest.mark.parametrize("name", ("token_ring", "allreduce",
                                      "work_steal"))
    def test_observables_match_interp(self, name, socs, cores, fabric,
                                      backend, cluster_observables):
        assert cluster_observables(name, socs, cores, fabric, backend) == \
            cluster_observables(name, socs, cores, fabric, "interp")


class TestClusterRoundSafety:
    """PR-3 contracts survive the extraction, end to end, both modes."""

    @pytest.mark.parametrize("barrier", ("lockstep", "process"))
    def test_max_cycles_enforced_per_window(self, barrier, translated):
        cluster = Cluster(translated("token_ring"), socs=2,
                          barrier=barrier)
        with pytest.raises(SimulationError, match="cycle limit"):
            try:
                cluster.run(max_cycles=40)
            finally:
                for member in cluster.members:
                    member.shutdown()

    def test_no_progress_window_raises(self, translated):
        """A window in which no SoC advances trips the livelock guard
        at the cluster level too."""
        cluster = Cluster(translated("token_ring"), socs=2)
        for member in cluster.members:
            member.advance = lambda until, max_cycles: None
        with pytest.raises(SimulationError, match="livelock"):
            cluster.sync_barrier.run_until(None, 1000)

    def test_quantum_capped_by_fabric_latency(self, translated):
        program = translated("token_ring")
        config = FabricConfig(latency=4)
        cluster = Cluster(program, socs=2, fabric=config)
        assert cluster.quantum == 4  # defaults to the minimum latency
        with pytest.raises(SimulationError, match="quantum"):
            Cluster(program, socs=2, fabric=config, quantum=5)
        # a smaller window is allowed; it multiplies the cluster-level
        # round bookkeeping but leaves every simulation observable
        # (per-SoC results, traces, fabric timing) untouched
        small = Cluster(program, socs=2, fabric=config, quantum=1).run()
        full = Cluster(program, socs=2, fabric=config).run()
        small_obs, full_obs = small.observables(), full.observables()
        for window_counter in ("grants", "rounds"):
            assert small_obs.pop(window_counter) > \
                full_obs.pop(window_counter)
        for soc_small, soc_full in zip(small_obs.pop("soc_grants"),
                                       full_obs.pop("soc_grants")):
            assert sum(soc_small) >= sum(soc_full)  # scheduling profile
        assert small_obs == full_obs


class TestValidation:
    def test_configuration_errors(self, translated):
        program = translated("gcd")
        with pytest.raises(SimulationError, match="socs="):
            Cluster(program)
        with pytest.raises(SimulationError, match="barrier"):
            Cluster(program, socs=2, barrier="psychic")
        with pytest.raises(SimulationError, match="backends"):
            Cluster(program, socs=2, cores=2, backends=("interp",) * 3)
        with pytest.raises(SimulationError, match="limit"):
            Cluster(program, socs=MAX_NODES + 1)

    def test_registry_rejects_undersized_clusters(self):
        with pytest.raises(ReproError, match="at least 2"):
            expected_cluster_exits("token_ring", 1)


class TestMeasureProgramCluster:
    """The measurement battery drives clusters like any platform."""

    def test_replicated_program_passes_the_contract(self):
        from repro.eval.runner import measure_program

        out = measure_program("gcd", levels=(LEVEL,), nodes=2)
        assert out.levels[LEVEL].result.exit_code is not None

    def test_distributed_workload_records_soc0(self):
        from repro.eval.runner import measure_program

        out = measure_program("token_ring", levels=(LEVEL,), nodes=2,
                              shared=True, barrier="process")
        expected = expected_cluster_exits("token_ring", 2)
        assert out.levels[LEVEL].result.exit_code == expected[0][0]
