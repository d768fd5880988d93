"""Unit lockdown of the pluggable lockstep synchronization barriers.

The barrier layer extracted from ``MultiCoreSoC.run()`` must preserve
the PR-3 round-level safety contracts in *both* implementations — the
serial in-process :class:`LockstepBarrier` and the parallel
:class:`ProcessBarrier` — and reproduce the historical scheduling
decisions exactly: frontier rounds, rotating grant priority, the
round-level ``max_cycles`` check and the no-progress raise.  These
tests drive the round engine with scripted fake members so every
contract is checked on both implementations without real cores or
worker processes (the cross-process end-to-end equivalents live in
``test_cluster_differential.py``).
"""

import pytest

from repro.errors import SimulationError
from repro.vliw.sync import (
    AdaptiveLockstepBarrier,
    LockstepBarrier,
    ProcessBarrier,
    SyncBarrier,
)


class FakeMember:
    """Scripted member: runs to the horizon, finishes at *work* cycles."""

    def __init__(self, work, name="m", order=None, step=None):
        self.work = work
        self.name = name
        self.cycles = 0
        self.finished = False
        self.grants = 0
        self.order = order if order is not None else []
        self.step = step  # cap on per-grant progress (None = to horizon)

    def advance(self, until, max_cycles):
        self.order.append((self.name, self.cycles, until))
        target = until if self.step is None else min(until,
                                                     self.cycles + self.step)
        # deliberately no max_cycles check here: the fakes leave limit
        # enforcement entirely to the round engine under test
        self.cycles = target
        if self.cycles >= self.work:
            self.finished = True

    # the async protocol, so the same fakes drive ProcessBarrier
    def post_advance(self, until, max_cycles):
        self._pending = (until, max_cycles)

    def wait_advance(self):
        until, max_cycles = self._pending
        self.advance(until, max_cycles)


class StuckMember(FakeMember):
    """Granted but never makes progress (a livelocked core)."""

    def advance(self, until, max_cycles):
        self.order.append((self.name, self.cycles, until))


BARRIERS = (LockstepBarrier, ProcessBarrier)


class TestRoundEngine:
    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_members_run_to_completion(self, barrier_cls):
        members = [FakeMember(10, "a"), FakeMember(7, "b")]
        barrier = barrier_cls(members)
        barrier.run_until(None, 1000)
        assert all(m.finished for m in members)
        assert members[0].cycles == 10
        assert members[1].cycles == 7
        assert barrier.finished
        assert barrier.frontier == 10  # max over members once all halted

    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_rotating_grant_priority(self, barrier_cls):
        """Round with base cycle b grants member (b % n) first."""
        order = []
        members = [FakeMember(3, name, order) for name in ("a", "b", "c")]
        barrier_cls(members).run_until(None, 1000)
        firsts = [entry[0] for entry in order if entry[1] == entry[2] - 1]
        # base 0 -> a first; base 1 -> b first; base 2 -> c first
        assert [order[0][0], order[3][0], order[6][0]] == ["a", "b", "c"]
        assert firsts  # every grant advanced exactly one cycle

    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_frontier_rounds_skip_members_ahead(self, barrier_cls):
        """A member past the horizon is not granted (lockstep skew)."""
        order = []
        fast = FakeMember(8, "fast", order)
        slow = FakeMember(8, "slow", order, step=1)
        fast.step = 4  # overshoots each grant by advancing 4 cycles
        barrier = barrier_cls([fast, slow])

        def jump(until, max_cycles, _orig=FakeMember.advance):
            _orig(fast, min(until + 3, 8), max_cycles)

        fast.advance = jump
        barrier.run_until(None, 1000)
        grants_while_ahead = [
            entry for entry in order
            if entry[0] == "fast" and entry[1] >= entry[2]]
        assert not grants_while_ahead
        assert fast.grants < slow.grants

    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_quantum_widens_the_window(self, barrier_cls):
        order = []
        members = [FakeMember(32, "a", order)]
        barrier = barrier_cls(members, quantum=8)
        barrier.run_until(None, 1000)
        assert barrier.rounds == 4
        assert [entry[2] for entry in order] == [8, 16, 24, 32]

    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_run_until_cuts_at_window_boundary(self, barrier_cls):
        members = [FakeMember(100, "a"), FakeMember(100, "b")]
        barrier = barrier_cls(members)
        barrier.run_until(10, 1000)
        assert {m.cycles for m in members} == {10}
        assert not barrier.finished
        barrier.run_until(20, 1000)
        assert {m.cycles for m in members} == {20}

    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_round_hooks_fire_in_order(self, barrier_cls):
        events = []
        members = [FakeMember(2, "a", events)]
        barrier = barrier_cls(
            members,
            on_round=lambda base: events.append(("round", base)),
            on_round_end=lambda base, horizon: events.append(
                ("end", base, horizon)))
        barrier.run_until(None, 1000)
        assert events == [
            ("round", 0), ("a", 0, 1), ("end", 0, 1),
            ("round", 1), ("a", 1, 2), ("end", 1, 2),
        ]


class TestRoundSafetyContracts:
    """PR-3 contracts, explicitly on BOTH barrier implementations."""

    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_no_progress_round_raises(self, barrier_cls):
        members = [StuckMember(10, "stuck"), FakeMember(0, "done")]
        members[1].finished = True
        with pytest.raises(SimulationError, match="livelock"):
            barrier_cls(members).run_until(None, 1000)

    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_partial_progress_is_progress(self, barrier_cls):
        """One stuck member does not trip the guard while another
        advances (the round as a whole made progress)."""
        stuck = StuckMember(10, "stuck")
        mover = FakeMember(5, "mover")
        barrier = barrier_cls([stuck, mover])
        with pytest.raises(SimulationError, match="livelock") as err:
            barrier.run_until(None, 1000)
        # round 1 (stuck + mover) passed thanks to the mover's progress;
        # the raise came from a later round where stuck was granted alone
        assert mover.cycles == 1
        assert barrier.rounds == 2
        assert "cycle 0" in str(err.value)

    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_round_level_max_cycles(self, barrier_cls):
        """The round loop enforces the budget even when members advance
        without finishing (their own in-advance check never firing)."""
        members = [FakeMember(10**9, "a"), FakeMember(10**9, "b")]
        with pytest.raises(SimulationError, match="cycle limit"):
            barrier_cls(members).run_until(None, 50)
        assert all(m.cycles <= 50 for m in members)

    @pytest.mark.parametrize("barrier_cls", BARRIERS)
    def test_max_cycles_checked_before_granting(self, barrier_cls):
        members = [FakeMember(10, "a")]
        members[0].cycles = 50
        with pytest.raises(SimulationError, match="cycle limit"):
            barrier_cls(members).run_until(None, 50)
        assert members[0].grants == 0

    def test_validation(self):
        with pytest.raises(SimulationError, match="at least one member"):
            LockstepBarrier([])
        with pytest.raises(SimulationError, match="quantum"):
            LockstepBarrier([FakeMember(1)], quantum=0)
        with pytest.raises(NotImplementedError):
            SyncBarrier([FakeMember(1)])._advance_round([], 1, 1)


class ScriptedAdaptive:
    """Adaptive fake: private code except at the cycles in *shared*
    (each must execute in a normal round), finishes at *work* cycles.
    Logs every grant as ``(kind, name, cycles, horizon)``."""

    def __init__(self, work, shared=(), name="m", log=None):
        self.work = work
        self.shared = sorted(shared)
        self.name = name
        self.cycles = 0
        self.finished = False
        self.grants = 0
        self.log = log if log is not None else []

    def _next_shared(self):
        return next((c for c in self.shared if c >= self.cycles),
                    self.work)

    def private_bound(self):
        return self._next_shared() - self.cycles

    def advance(self, until, max_cycles):
        self.log.append(("normal", self.name, self.cycles, until))
        self.cycles = min(until, self.work)
        self.finished = self.cycles >= self.work

    def advance_private(self, until, max_cycles):
        self.log.append(("window", self.name, self.cycles, until))
        self.cycles = min(until, self._next_shared())
        self.finished = self.cycles >= self.work

    post_advance = FakeMember.post_advance
    wait_advance = FakeMember.wait_advance


def _fleet(log=None):
    return [ScriptedAdaptive(400, (30, 31, 200), "a", log),
            ScriptedAdaptive(300, (5, 90), "b", log),
            ScriptedAdaptive(350, (40, 41, 42, 260), "c", log)]


def _actual_state(members):
    running = [m.cycles for m in members if not m.finished]
    frontier = min(running) if running else max(m.cycles for m in members)
    return frontier, all(m.finished for m in members)


class TestRunAheadPastUntil:
    """Run-ahead windows are bounded by ``max_cycles`` only; normal
    rounds, and with them every shared access, stay below ``until``."""

    def test_one_window_leaves_members_past_until(self):
        members = [ScriptedAdaptive(1000, (500,), "a"),
                   ScriptedAdaptive(1000, (700,), "b")]
        barrier = AdaptiveLockstepBarrier(members)
        barrier.run_until(16, 10_000)
        assert barrier.rounds == barrier.runahead_rounds == 1
        assert [m.cycles for m in members] == [500, 700]
        assert members[0].log == [("window", "a", 0, 10_000)]
        assert barrier.frontier == 500

    def test_no_normal_round_starts_at_or_past_until(self):
        log = []
        members = _fleet(log)
        barrier = AdaptiveLockstepBarrier(members)
        until = 0
        while not barrier.finished:
            until += 16
            start = len(log)
            barrier.run_until(until, 10_000)
            for kind, _name, _cycles, horizon in log[start:]:
                if kind == "normal":
                    assert horizon - 1 < until  # quantum-1 base
        assert barrier.runahead_rounds > 1

    def test_slicing_does_not_change_the_rounds(self):
        """The round sequence does not depend on where run_until cuts
        it: slices of 16 replay the uncut run grant for grant."""
        whole_log, sliced_log = [], []
        whole = AdaptiveLockstepBarrier(_fleet(whole_log))
        whole.run_until(None, 10_000)
        sliced = AdaptiveLockstepBarrier(_fleet(sliced_log))
        until = 0
        while not sliced.finished:
            until += 16
            sliced.run_until(until, 10_000)
        assert sliced_log == whole_log
        assert (sliced.rounds, sliced.runahead_rounds) == \
            (whole.rounds, whole.runahead_rounds)

    def test_cycle_limit_still_raises(self):
        """A window may run up to max_cycles in an early slice; the
        round-level limit then raises from the first slice whose
        until lies past it, as it did when windows were cut."""
        members = [ScriptedAdaptive(10**9, (), "a"),
                   ScriptedAdaptive(10**9, (), "b")]
        barrier = AdaptiveLockstepBarrier(members)
        barrier.run_until(16, 50)
        assert [m.cycles for m in members] == [50, 50]
        barrier.run_until(48, 50)
        with pytest.raises(SimulationError, match="cycle limit"):
            barrier.run_until(64, 50)
        with pytest.raises(SimulationError, match="cycle limit"):
            AdaptiveLockstepBarrier(_fleet()).run_until(None, 50)

    def test_livelock_still_raises(self):
        class Stuck(ScriptedAdaptive):
            def advance(self, until, max_cycles):
                self.log.append(("normal", self.name, self.cycles, until))

        stuck = Stuck(100, (10,), "stuck")
        barrier = AdaptiveLockstepBarrier([stuck])
        with pytest.raises(SimulationError, match="livelock"):
            barrier.run_until(64, 1000)
        # the window ran the member up to its shared access, the
        # normal round at that base stepped nobody
        assert stuck.log[0] == ("window", "stuck", 0, 1000)
        assert stuck.cycles == 10


class TestBarrierOwnsTheFrontier:
    """The barrier keeps every member's cycles/finished: its frontier
    matches the members after every call, without reading them."""

    @pytest.mark.parametrize("barrier_cls", BARRIERS + (
        AdaptiveLockstepBarrier,))
    def test_frontier_matches_members_after_every_call(self, barrier_cls):
        members = _fleet()
        barrier = barrier_cls(members)
        assert (barrier.frontier, barrier.finished) == \
            _actual_state(members)
        until = 0
        while not barrier.finished:
            until += 16
            barrier.run_until(until, 10_000)
            assert (barrier.frontier, barrier.finished) == \
                _actual_state(members)
        assert barrier.frontier == 400

    def test_frontier_reads_no_member(self):
        reads = []

        class Counted(ScriptedAdaptive):
            @property
            def cycles(self):
                reads.append(self.name)
                return self._cycles

            @cycles.setter
            def cycles(self, value):
                self._cycles = value

        members = [Counted(40, (10, 25), "a"), Counted(30, (), "b")]
        barrier = AdaptiveLockstepBarrier(members)
        barrier.run_until(20, 1000)
        reads.clear()
        for _ in range(3):
            assert barrier.frontier == 25
            assert not barrier.finished
        assert reads == []


class TestMultiCoreSoCUsesTheBarrier:
    """The SoC's scheduling must actually live in the extracted layer."""

    def test_soc_owns_a_lockstep_barrier(self):
        from repro.programs.registry import build
        from repro.translator.driver import translate
        from repro.vliw.multicore import MultiCoreSoC

        program = translate(build("gcd"), level=0).program
        soc = MultiCoreSoC(program, cores=2, backends="interp")
        assert isinstance(soc.barrier, LockstepBarrier)
        assert soc.barrier.members == soc.slots
        result = soc.run()
        assert soc.barrier.rounds > 0
        assert result.grants == [slot.grants for slot in soc.slots]
        # the frontier property reflects the finished SoC
        assert soc.finished
        assert soc.frontier == max(s.core.cycles for s in soc.slots)
