"""Trace formation: group chained regions into native superblocks.

The native module used to hold one C function per region, so every
region exit — even a static chain edge to another native region —
crossed the FFI boundary, re-marshalled the sync-device mirror and
re-dispatched through the Python block-function cache.  Trace formation
groups regions connected by chain edges (``RegionIR.chain_targets``,
plus indirect-branch landing sites, which are the *potential* chain
edges of register-indirect regions) into **superblocks**: one C
function per group, with chain edges compiled as direct ``goto``\\ s and
indirect edges resolved through an in-function ``switch`` dispatch.
Control leaves a superblock only on bail, halt, interp hand-off, an
exit to a region outside the group, or lockstep-quantum expiry.

Groups are weakly-connected components of the chain graph.  Loops in
real programs close through *call/return* structure — the loop body
calls a helper whose return is an indirect branch — so a hot cycle
nearly always threads at least one indirect edge, and cutting the
component anywhere cuts some cycle: a 32-member cap measured a
per-iteration FFI round trip on every big kernel (1.6–2.2x over warm
packet-compiled), while whole components run 50–150x.  The cap
therefore exists only as a compile-time backstop for pathologically
large programs (:data:`SUPERBLOCK_CAP` members, far above every
registry program); oversized components are chunked in ascending-pc
order, and chunk-crossing edges simply exit one superblock and enter
the next.

The resulting :class:`ModulePlan` is plain picklable data: it travels
with the program object to sharded-evaluation workers exactly like the
per-region plan dict it replaces, and keeps that dict's mapping
interface (iteration and membership over entry pcs, ``get``/``values``
returning the owning superblock's symbol).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vliw.codegen.ir import RegionIR

#: largest member count of one superblock (one C function) — a
#: compile-time backstop only: every chain component of every registry
#: program fits whole (dct8x8 at detail level 3 is 363 members, ~19 s
#: of one-time content-addressed ``cc -O2`` on a 2-CPU x86-64 host
#: with gcc 12), and splitting a
#: component cuts hot call/return cycles, costing two orders of
#: magnitude of steady-state speed
SUPERBLOCK_CAP = 512


@dataclass(frozen=True)
class SuperblockPlan:
    """One superblock: a C function covering several region entries."""

    #: C symbol of the superblock function
    symbol: str
    #: member region entries (packet indices), ascending
    members: tuple[int, ...]


class ModulePlan:
    """Entry-pc -> superblock map of one native module.

    Iterates like the ``{pc0: symbol}`` dict of the old per-region
    plan; additionally exposes the superblock structure and the
    module-wide member and block-site numbering the generated C indexes
    its demotion bitmap and block counters with.
    """

    def __init__(self, superblocks: tuple[SuperblockPlan, ...],
                 block_sites: tuple[int, ...]) -> None:
        self.superblocks = tuple(superblocks)
        #: source block address of each block-counter site, by index
        self.block_sites = tuple(block_sites)
        self._entries: dict[int, tuple[str, int]] = {}
        index = 0
        for sb in self.superblocks:
            for pc0 in sb.members:
                self._entries[pc0] = (sb.symbol, index)
                index += 1
        #: module-wide member count (size of the demotion bitmap)
        self.n_members = index

    def __reduce__(self):
        return (ModulePlan, (self.superblocks, self.block_sites))

    def entry(self, pc0: int) -> tuple[str, int] | None:
        """``(symbol, member_index)`` of entry *pc0*, or None."""
        return self._entries.get(pc0)

    def symbols(self) -> tuple[str, ...]:
        """Every superblock function symbol, in emission order."""
        return tuple(sb.symbol for sb in self.superblocks)

    # -- mapping interface over entry pcs (per-region plan compatible) --

    def __contains__(self, pc0) -> bool:
        return pc0 in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def get(self, pc0: int, default=None):
        entry = self._entries.get(pc0)
        return entry[0] if entry is not None else default

    def values(self):
        return [entry[0] for entry in self._entries.values()]


def form_traces(irs_by_pc: dict[int, RegionIR],
                landing_sites=(),
                cap: int = SUPERBLOCK_CAP) -> list[tuple[int, ...]]:
    """Partition region entries into superblock member groups.

    *irs_by_pc* maps entry pc to its (renderable) RegionIR;
    *landing_sites* is the program's indirect-branch landing set
    (``addr_to_packet`` values) — regions containing an indirect branch
    are merged with every landing site present in the module, since any
    of them is a potential chain successor.  Returns member tuples,
    each ascending, the list ordered by first member.
    """
    parent: dict[int, int] = {pc0: pc0 for pc0 in irs_by_pc}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    landings = [pc0 for pc0 in sorted(set(landing_sites))
                if pc0 in irs_by_pc]
    for pc0, ir in irs_by_pc.items():
        for target in ir.chain_targets:
            if target in irs_by_pc:
                union(pc0, target)
        if landings and ir.has_indirect:
            for target in landings:
                union(pc0, target)

    components: dict[int, list[int]] = {}
    for pc0 in sorted(irs_by_pc):
        components.setdefault(find(pc0), []).append(pc0)

    groups: list[tuple[int, ...]] = []
    for root in sorted(components):
        members = components[root]
        # chunk oversized components in ascending-pc order; edges that
        # cross a chunk boundary exit one superblock and enter the next
        for lo in range(0, len(members), cap):
            groups.append(tuple(members[lo:lo + cap]))
    groups.sort(key=lambda members: members[0])
    return groups
