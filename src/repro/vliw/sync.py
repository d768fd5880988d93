"""Pluggable lockstep synchronization barriers.

The round-robin lockstep loop that :class:`~repro.vliw.multicore.MultiCoreSoC`
historically ran inline is extracted here into a *synchronization
barrier*: an engine that advances a set of members (cores, or whole
SoCs) in lockstep rounds at target-cycle granularity.  Two
implementations share one round engine:

* :class:`LockstepBarrier` advances members serially in-process — it is
  bit-identical to the historical ``MultiCoreSoC.run()`` loop (same
  frontier computation, same rotating grant order, same error strings).
* :class:`AdaptiveLockstepBarrier` keeps normal rounds bit-identical to
  a ``quantum=1`` :class:`LockstepBarrier` but inserts *run-ahead
  rounds* whenever every running member is provably inside private-only
  code (see :mod:`repro.vliw.codegen.footprint`): each member runs to
  its own first possibly-shared access, so compiled cores execute whole
  region chains between barrier crossings without any shared-segment
  observable changing.
* :class:`ProcessBarrier` drives members that live in worker processes:
  each round it *posts* the advance command to every eligible member,
  then collects replies — members execute their quantum in parallel,
  while the round structure (and therefore every scheduling decision)
  stays identical to the serial barrier.

The round contract (established in PR 3 and preserved here for both
implementations — ``tests/test_sync_barrier.py`` pins it):

* every round starts at the **frontier** — the minimum cycle count over
  unfinished members — and grants only members strictly below
  ``frontier + quantum``;
* ``max_cycles`` is enforced at round granularity: a round whose base
  has reached the limit raises before granting anyone;
* a full round in which no granted member makes cycle progress (and
  none finishes) raises instead of spinning forever — shared-device
  stalls make "granted but stuck" a reachable state;
* grant priority rotates with the round base (member ``base % n``
  first), so bus arbitration interleaves fairly and deterministically.

Members are anything satisfying the :class:`SyncMember` protocol.  The
barrier itself knows nothing about buses, arbiters or fabrics; owners
hook per-round work in via *on_round* (called with the round base
before any grant — ``MultiCoreSoC`` wires its arbiter and global timer
here) and *on_round_end* (called after the round's grants —
``Cluster`` exchanges fabric messages here).
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.errors import SimulationError


@runtime_checkable
class SyncMember(Protocol):
    """One lockstep participant (a core slot, or a whole SoC).

    ``cycles`` is the member's target-cycle count, ``finished`` whether
    it has halted/exited, and ``grants`` a counter the barrier
    increments once per scheduling grant.  ``advance`` runs the member
    until its cycle count reaches *until* (members may overshoot by
    their backend's atomic unit — one compiled region, or one inner
    lockstep quantum) and must itself raise
    :class:`~repro.errors.SimulationError` if it crosses *max_cycles*.
    A member's ``cycles`` and ``finished`` change only inside its own
    ``advance``: its barrier keeps them between grants.
    """

    cycles: int
    finished: bool
    grants: int

    def advance(self, until: int, max_cycles: int) -> None: ...


class SyncBarrier:
    """Shared round engine of both barrier implementations.

    Subclasses implement :meth:`_advance_round`, which receives the
    round's granted members *in rotating grant order* and must advance
    each of them to *horizon*.  Everything else — frontier computation,
    round-level ``max_cycles``, the no-progress guard, the round hooks
    — lives here so the two implementations cannot drift.

    The barrier owns its members' frontier.  Members move only through
    their barrier, so it reads each member's ``cycles``/``finished``
    once at construction and then refreshes only the members a round
    advanced; :attr:`frontier`, :attr:`finished` and round planning
    read that kept state (a cluster member's ``cycles`` is a whole
    SoC's frontier, so walking the members is not cheap).
    """

    def __init__(self, members: Sequence[SyncMember],
                 quantum: int = 1,
                 on_round: Callable[[int], None] | None = None,
                 on_round_end: Callable[[int, int], None] | None = None,
                 ) -> None:
        if not members:
            raise SimulationError("a sync barrier needs at least one member")
        if quantum < 1:
            raise SimulationError(
                f"lockstep quantum must be >= 1, got {quantum}")
        self.members = list(members)
        self.quantum = quantum
        self.on_round = on_round
        self.on_round_end = on_round_end
        self.rounds = 0
        n = len(self.members)
        #: grant order of a round with base b is ``_orders[b % n]``
        self._orders = [tuple(range(first, n)) + tuple(range(first))
                        for first in range(n)]
        self._cycles = [m.cycles for m in self.members]
        self._finished = [m.finished for m in self.members]

    @property
    def frontier(self) -> int:
        """Minimum cycle count over unfinished members (the global
        timebase); the maximum over all members once everyone halted."""
        cycles = self._cycles
        running = [c for c, done in zip(cycles, self._finished) if not done]
        return min(running) if running else max(cycles)

    @property
    def finished(self) -> bool:
        return all(self._finished)

    def run_until(self, until: int | None, max_cycles: int) -> None:
        """Advance lockstep rounds until every member finished, or the
        frontier reaches *until* (``None`` = run to completion).

        Normal rounds start below *until*; a run-ahead round (adaptive
        barrier) may carry members past it.  Raises
        :class:`SimulationError` when a round base reaches
        *max_cycles*, or when a full round passes without progress.
        """
        members = self.members
        cycles = self._cycles
        finished = self._finished
        orders = self._orders
        n = len(members)
        while True:
            running = [i for i in range(n) if not finished[i]]
            if not running:
                return
            base = min([cycles[i] for i in running])
            if until is not None and base >= until:
                return
            if base >= max_cycles:
                raise SimulationError(
                    f"target cycle limit {max_cycles} exceeded")
            horizon, runahead = self._plan_round(base, running, max_cycles)
            self.rounds += 1
            if self.on_round is not None:
                self.on_round(base)
            # rotating grant priority: member (base % n) goes first
            granted = [i for i in orders[base % n]
                       if not finished[i] and cycles[i] < horizon]
            for i in granted:
                members[i].grants += 1
            self._advance_round([members[i] for i in granted], horizon,
                                max_cycles, runahead)
            # only the members this round advanced can have moved
            progressed = False
            for i in granted:
                member = members[i]
                now, done = member.cycles, member.finished
                if now > cycles[i] or done:
                    progressed = True
                cycles[i] = now
                finished[i] = done
            if self.on_round_end is not None:
                self.on_round_end(base, horizon)
            if not progressed:
                if runahead:
                    # a run-ahead window everyone deferred out of (all
                    # granted members needed the interpreter) is not a
                    # livelock: fall back to a normal round at the same
                    # base, which is guaranteed to step somebody
                    self._runahead_stalled(base)
                else:
                    raise SimulationError(
                        f"lockstep scheduler livelock: no core advanced "
                        f"past cycle {base} in a full arbitration round")

    def _plan_round(self, base: int, running: Sequence[int],
                    max_cycles: int) -> tuple[int, bool]:
        """Pick this round's ``(horizon, is_run_ahead)``.

        *running* holds the indices of the unfinished members.  The
        base implementation is the fixed-quantum window the round
        contract documents; :class:`AdaptiveLockstepBarrier` overrides
        it to grant provably-private run-ahead windows.
        """
        return base + self.quantum, False

    def _runahead_stalled(self, base: int) -> None:
        """Hook: a run-ahead round made no progress (adaptive only)."""

    def _advance_round(self, granted: Sequence[SyncMember],
                       horizon: int, max_cycles: int,
                       runahead: bool = False) -> None:
        raise NotImplementedError


class LockstepBarrier(SyncBarrier):
    """In-process barrier: members advance serially in grant order.

    With ``quantum=1`` this reproduces the historical
    ``MultiCoreSoC.run()`` loop bit for bit — the serial order is the
    rotating grant order, so shared-bus transactions interleave exactly
    as before the extraction.
    """

    def _advance_round(self, granted: Sequence[SyncMember],
                       horizon: int, max_cycles: int,
                       runahead: bool = False) -> None:
        for member in granted:
            member.advance(horizon, max_cycles)


@runtime_checkable
class AdaptiveSyncMember(SyncMember, Protocol):
    """A member that can participate in adaptive run-ahead windows.

    ``private_bound`` returns a conservative lower bound, in target
    cycles, on how far the member can advance from its current state
    before its first *possibly-shared* access (0 when the very next
    packet may touch the shared segment — or whenever the member cannot
    prove anything, e.g. mid-branch).  ``advance_private`` advances the
    member like ``advance`` but must never execute a shared access:
    the member stops early — at its own first possibly-shared access,
    at work only the interpreter can run, or wherever its dynamic
    checks cut in — and the deferred work executes in a later normal
    round once the frontier catches up.
    """

    def private_bound(self) -> int: ...

    def advance_private(self, until: int, max_cycles: int) -> None: ...


class AdaptiveLockstepBarrier(LockstepBarrier):
    """Lockstep barrier with provably-private run-ahead windows.

    Round planning: unless some member sitting exactly at the round
    base reports a private bound of zero (its very next packet may
    touch the shared segment), the round becomes a **run-ahead
    round**: every member advances through ``advance_private`` with
    the horizon thrown wide open — bounded by ``max_cycles`` only, not
    by the caller's ``until`` — each stopping *dynamically* at its own
    first possibly-shared access: whole compiled/native region chains,
    even whole compute loops, execute inside one window.  The static
    bounds only gate window *initiation* (so a window always makes
    progress); safety is dynamic, which is what lets the window exceed
    the static shortest-path bound — important, because the static
    bound is tiny inside any loop whose exit path leads to a shared
    access.  Otherwise the round is a **normal round**, bit-identical
    to a ``quantum=1`` :class:`LockstepBarrier` round: same frontier,
    same rotating grant order, same arbitration round identity — and
    since a member whose next access may be shared always reports
    bound 0, every shared-segment access still executes in a normal
    round at a base equal to the accessing core's own cycle count,
    exactly as under ``quantum=1``.  Private execution is core-local
    and schedule independent, so how far a member ran ahead is
    unobservable.

    Because only normal rounds stop at ``until``, ``run_until(until)``
    may leave members past *until* after a run-ahead round, while no
    normal round starts at a base at or past it.  The round sequence
    therefore does not depend on where a caller cuts it: a SoC driven
    in slices by a :class:`~repro.vliw.cluster.Cluster` runs exactly
    the rounds it runs standalone.

    A run-ahead round in which nobody progresses (every granted member
    deferred to the interpreter) forces the next round to be a normal
    round at the same base instead of raising the livelock error; the
    livelock guard keeps firing for normal rounds.
    """

    def __init__(self, members: Sequence[SyncMember],
                 on_round: Callable[[int], None] | None = None,
                 on_round_end: Callable[[int, int], None] | None = None,
                 ) -> None:
        super().__init__(members, quantum=1, on_round=on_round,
                         on_round_end=on_round_end)
        self.runahead_rounds = 0
        self.runahead_cycles = 0
        self._force_normal = False
        # the plan gate runs once per round: resolve the bound methods
        # up front, by member index (None disables run-ahead entirely
        # — every member must be adaptive for a window to be sound)
        bound_fns = [getattr(m, "private_bound", None) for m in members]
        self._bound_fns: list[Callable[[], int]] | None = (
            None if any(fn is None for fn in bound_fns) else bound_fns)
        # gate back-off: during long all-at-the-frontier phases (cores
        # trading shared-device polls) the gate fails every round, and
        # its cost — one bound computation per frontier member — adds
        # up; after a failure the gate sleeps until the frontier moves
        # a doubling number of *cycles* (normal rounds are always safe,
        # so re-checking late only delays a window by a bounded number
        # of cycles, it never breaks one)
        self._gate_resume = 0
        self._gate_backoff = 1

    def _plan_round(self, base: int, running: Sequence[int],
                    max_cycles: int) -> tuple[int, bool]:
        bound_fns = self._bound_fns
        if (bound_fns is None or self._force_normal
                or base < self._gate_resume):
            self._force_normal = False
            return base + 1, False
        cycles = self._cycles
        for i in running:
            # the gate only has to guarantee progress (safety inside
            # the window is dynamic): it fails exactly when a member
            # sitting at the frontier may touch the shared segment with
            # its very next packet — members past the base pass
            # whatever their bound is, and only frontier members pay
            # for a bound computation
            if cycles[i] == base and bound_fns[i]() == 0:
                self._gate_resume = base + self._gate_backoff
                self._gate_backoff = min(self._gate_backoff * 2, 8)
                return base + 1, False
        self._gate_backoff = 1
        # no frontier member can issue a shared access with its very
        # next packet: open the window wide — each member stops
        # dynamically at its own first possibly-shared access, and the
        # frontier bounds guarantee the window makes progress
        self.runahead_rounds += 1
        return max_cycles, True

    def _runahead_stalled(self, base: int) -> None:
        self._force_normal = True

    def _advance_round(self, granted: Sequence[SyncMember],
                       horizon: int, max_cycles: int,
                       runahead: bool = False) -> None:
        if not runahead:
            super()._advance_round(granted, horizon, max_cycles)
            return
        for member in granted:
            before = member.cycles
            member.advance_private(horizon, max_cycles)
            self.runahead_cycles += member.cycles - before


@runtime_checkable
class AsyncSyncMember(SyncMember, Protocol):
    """A member whose advance can be posted and awaited separately."""

    def post_advance(self, until: int, max_cycles: int) -> None: ...

    def wait_advance(self) -> None: ...


class ProcessBarrier(SyncBarrier):
    """Cross-process barrier: grants of one round execute in parallel.

    Members must additionally implement :class:`AsyncSyncMember`:
    ``post_advance`` ships the quantum command to the member's worker
    without blocking, ``wait_advance`` blocks until the worker's reply
    updates the member's cached ``cycles``/``finished`` state.  Replies
    are collected in grant order, so the parent-side view of a round is
    deterministic regardless of worker timing.

    Round-level safety is enforced *in the parent*: the ``max_cycles``
    and no-progress raises of :meth:`SyncBarrier.run_until` fire here
    from the workers' reported frontiers, independent of (and in
    addition to) each worker's own in-quantum limit check.
    """

    def _advance_round(self, granted: Sequence[SyncMember],
                       horizon: int, max_cycles: int,
                       runahead: bool = False) -> None:
        for member in granted:
            member.post_advance(horizon, max_cycles)
        for member in granted:
            member.wait_advance()
