"""Lowering: straight-line packet regions to backend-neutral Region IR.

This is the second translation stage of the packet-compiled backend
(the first is the binary translator itself, the third is a pluggable
emitter).  :class:`RegionLowerer` walks the packets of one region in
issue order and records every side effect as a typed
:mod:`~repro.vliw.codegen.ir` node — the exact semantics the
interpretive :class:`~repro.vliw.core.C6xCore` implements, restated
once, so that every emitter renders from the same source of truth:

* delay-slot writebacks are *placed*: a write maturing inside the
  region becomes a :class:`~repro.vliw.codegen.ir.Commit` on the packet
  where it lands; one maturing past an exit becomes a
  :class:`~repro.vliw.codegen.ir.Spill` of that exit's epilogue;
* same-packet zero-delay forwarding is resolved into operand tuples
  (``("var", m)`` / ``("cvar", m, p, n)``), mirroring the packet-order
  apply phase of the core;
* cycle and counter updates are batched: each exit's
  :class:`~repro.vliw.codegen.ir.Epilogue` carries the static counter
  prefixes at that point plus the pending bulk sync-device advance;
* device packets keep their exact dispatch shape: tick barrier, the
  blocking-read stall loop, the shared-window guard that bails to the
  interpreter (multi-core lockstep), and the exit-device check after
  stores;
* region exits become block-chain edges (static successors) or typed
  interpreter hand-offs.

Lowering is pure: it reads the program and the platform geometry
parameters and returns an immutable :class:`RegionIR`; nothing here
touches core state or generates host code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.isa.c6x.instructions import TOp
from repro.soc.bus import SharedIoMap
from repro.vliw.codegen.ir import (
    AluOp,
    BranchEnd,
    BranchSpill,
    Commit,
    CutEnd,
    DeviceLoad,
    DeviceStore,
    Epilogue,
    GuardCheck,
    HaltOp,
    IndirectBranch,
    InterpEnd,
    PacketIR,
    PlainLoad,
    PlainStore,
    PredDef,
    RegionIR,
    RegWrite,
    SharedGuard,
    Spill,
    StallCheck,
    StoreCheck,
)
from repro.vliw.core import _LOAD_SIZE, _STORE_SIZE

_STORE_OPS = frozenset(_STORE_SIZE)
_LOAD_OPS = frozenset(_LOAD_SIZE)

#: bridge-window offsets of the multi-core shared-device segment (the
#: layout is fixed — see :class:`~repro.soc.bus.SharedIoMap`)
_SHARED_LO = SharedIoMap().base
_SHARED_HI = SharedIoMap().end


@dataclass(frozen=True)
class LoweringParams:
    """The platform geometry generated code bakes in.

    The program-level region cache is keyed by the *stall* parameters;
    the memory and device-window geometry is a property of the target
    architecture and therefore of the program itself.
    """

    mem_base: int
    mem_len: int
    sync_base: int
    bridge_base: int
    sync_stall: int
    bridge_stall: int
    load_delay_slots: int
    mul_delay_slots: int
    branch_delay_slots: int


def params_for_core(core) -> LoweringParams:
    """The lowering parameters of one platform core."""
    target = core.target
    return LoweringParams(
        mem_base=core._mem_base,
        mem_len=len(core._mem),
        sync_base=target.sync_base,
        bridge_base=target.bridge_base,
        sync_stall=core.sync_access_stall,
        bridge_stall=core.bridge.access_stall,
        load_delay_slots=target.load_delay_slots,
        mul_delay_slots=target.mul_delay_slots,
        branch_delay_slots=target.branch_delay_slots,
    )


def packet_device_flags(program, pc0: int, n_packets: int) -> tuple:
    """Per-packet device flags of the region at *pc0*.

    ``flags[k]`` is True when packet ``pc0 + k`` carries at least one
    device-flagged access — the same test
    :meth:`RegionLowerer._lower_packet` uses to give a packet its
    dispatch shape.  The packet compiler's ``inline_entry_fn`` uses it
    to test whether a region's entry packet carries a device access.
    """
    packets = program.packets
    return tuple(
        any(i.device for i in packets[pc0 + k].instrs)
        for k in range(n_packets))


def _is_value_op(op: TOp) -> bool:
    """True if *op* produces a register result."""
    return op not in (TOp.B, TOp.HALT, TOp.NOP) and op not in _STORE_OPS


def lower_region(program, params: LoweringParams, pc0: int, n_packets: int,
                 end_kind: str, branch_off: int | None) -> RegionIR:
    """Lower the scanned region at packet *pc0* to Region IR."""
    return RegionLowerer(program, params, pc0, n_packets, end_kind,
                         branch_off).lower()


class RegionLowerer:
    """Lowers one region; see :func:`lower_region`."""

    def __init__(self, program, params: LoweringParams, pc0: int,
                 n_packets: int, end_kind: str,
                 branch_off: int | None) -> None:
        self.program = program
        self.params = params
        self.pc0 = pc0
        self.n_packets = n_packets
        self.end_kind = end_kind
        self.branch_off = branch_off
        #: commits carried into the region mature within this window
        self.entry_window = max(params.load_delay_slots,
                                params.mul_delay_slots) + 1
        #: delayed register writes: (mature_offset, dst, var, pred|None)
        self.writes: list[tuple[int, int, int, int | None]] = []
        # running static counters (prefix totals at the build point)
        self.st_instr = 0
        self.st_nop = 0
        self.st_src = 0
        self.ticks_flushed = 0
        # branch bookkeeping (filled while lowering the branch packet)
        self.branch_pred: int | None = None
        self.branch_static_target: int | None = None
        self.branch_index_var: int | None = None

    # -- helpers ---------------------------------------------------------

    def _delay(self, op: TOp) -> int:
        if op in _LOAD_OPS:
            return self.params.load_delay_slots
        if op is TOp.MPY:
            return self.params.mul_delay_slots
        return 0

    def _id(self, instr) -> int:
        return self._instr_ids[id(instr)]

    def _fwd(self, reg: int, instrs, pos: int) -> tuple:
        """Apply-time operand for *reg* at instruction *pos*.

        Mirrors the interpretive core: effects apply in packet order,
        so a zero-delay write by an earlier instruction of the same
        packet is visible to later stores / indirect branches.
        """
        for n in range(pos - 1, -1, -1):
            prev = instrs[n]
            if (prev.op is not TOp.NOP and _is_value_op(prev.op)
                    and prev.dst == reg and self._delay(prev.op) == 0):
                m = self._id(prev)
                if prev.pred is not None:
                    return ("cvar", m, m, reg)
                return ("var", m)
        return ("reg", reg)

    # -- epilogues -------------------------------------------------------

    def _epilogue(self, executed: int, commits_ran: int,
                  pc: int | None, pc_var: int | None,
                  pending_branch: bool) -> Epilogue:
        """Snapshot the batched state flush of one exit site."""
        spills = tuple(
            Spill(mature=mature, dst=dst, var=var, pred=pred)
            for mature, dst, var, pred in self.writes
            if mature >= commits_ran)
        branch = None
        if pending_branch and self.branch_off is not None:
            effective = (self.branch_off + 1
                         + self.params.branch_delay_slots)
            branch = BranchSpill(effective=effective, pred=self.branch_pred,
                                 target=self.branch_static_target,
                                 target_var=self.branch_index_var)
        return Epilogue(
            executed=executed, commits_ran=commits_ran, pc=pc, pc_var=pc_var,
            instr_static=self.st_instr, use_ci=self.uses_ci,
            nop_static=self.st_nop, use_cn=self.uses_cn,
            src_static=self.st_src,
            ticks=executed - self.ticks_flushed,
            spills=spills, branch=branch)

    def _bail(self, packet_offset: int) -> Epilogue:
        """Hand the current packet to the interpretive core untouched."""
        return self._epilogue(
            packet_offset, packet_offset + 1, self.pc0 + packet_offset, None,
            pending_branch=self._branch_in_flight_at(packet_offset))

    def _branch_in_flight_at(self, offset: int) -> bool:
        return self.branch_off is not None and self.branch_off < offset

    # -- main build ------------------------------------------------------

    def lower(self) -> RegionIR:
        packets = self.program.packets
        pc0 = self.pc0

        # number every instruction in the region for variable naming
        self._instr_ids: dict[int, int] = {}
        counter = 0
        for k in range(self.n_packets):
            for instr in packets[pc0 + k].instrs:
                self._instr_ids[id(instr)] = counter
                counter += 1

        self.uses_ci = any(
            i.pred is not None and i.op is not TOp.NOP
            for k in range(self.n_packets)
            for i in packets[pc0 + k].instrs)
        self.uses_cn = any(
            self._packet_runtime_nop(packets[pc0 + k])
            for k in range(self.n_packets))

        packet_irs = tuple(self._lower_packet(k)
                           for k in range(self.n_packets))
        end = self._lower_end()
        chain: list[int] = []
        if isinstance(end, BranchEnd):
            if end.target is not None:
                chain.append(end.target)
            if end.fallthrough is not None:
                chain.append(end.fall_pc)
        elif isinstance(end, CutEnd):
            chain.append(end.chain_pc)

        p = self.params
        return RegionIR(
            pc0=pc0, n_packets=self.n_packets, end_kind=self.end_kind,
            entry_window=self.entry_window,
            use_ci=self.uses_ci, use_cn=self.uses_cn,
            packets=packet_irs, end=end, chain_targets=tuple(chain),
            mem_base=p.mem_base, mem_len=p.mem_len,
            sync_base=p.sync_base, bridge_base=p.bridge_base,
            sync_stall=p.sync_stall, bridge_stall=p.bridge_stall)

    @staticmethod
    def _packet_runtime_nop(packet) -> bool:
        """True if the packet's action count is predicate-dependent."""
        real = [i for i in packet.instrs if i.op is not TOp.NOP]
        return bool(real) and all(i.pred is not None for i in real)

    # -- per-packet lowering ---------------------------------------------

    def _lower_packet(self, k: int) -> PacketIR:
        idx = self.pc0 + k
        packet = self.program.packets[idx]
        instrs = packet.instrs
        device = any(i.device for i in instrs)

        # 1. writeback commits due at this packet's issue point
        entry_commit = k < self.entry_window
        commits = tuple(Commit(dst=dst, var=var, pred=pred)
                        for mature, dst, var, pred in self.writes
                        if mature == k)

        real = [i for i in instrs if i.op is not TOp.NOP]
        empty = PacketIR(
            index=idx, offset=k, entry_commit=entry_commit, commits=commits,
            device=device, guard=None, tick_flush=0, stall_checks=(),
            preds=(), values=(), store_checks=(), block=None, ci_preds=(),
            static_instr=0, static_nop=False, cn_preds=(), applies=(),
            device_tick=False, exit_check=None, halt_exit=None)

        # 2a. shared-segment guard: a device access landing in the
        #     multi-core shared window must run on the interpretive
        #     core (single-packet lockstep granularity), so the packet
        #     bails *before* any of its accesses execute
        guard = None
        if device:
            guard = self._lower_shared_guard(k, instrs)
            if guard is not None and not guard.checks:
                # the packet unconditionally bails; the rest is dead
                return replace(empty, guard=guard)

        # 2. device packets are tick barriers: flush batched ticks, then
        #    replicate the interpreter's blocking-read stall loop
        tick_flush = 0
        stall_checks: tuple[StallCheck, ...] = ()
        if device:
            tick_flush = max(k - self.ticks_flushed, 0)
            self.ticks_flushed = k
            stall_checks = tuple(
                StallCheck(m=self._id(i), src1=i.src1, imm=i.imm or 0,
                           pred_reg=i.pred, pred_sense=i.pred_sense)
                for i in instrs if i.op in _LOAD_OPS)

        # 3. phase A1: predicates (pre-packet register state)
        preds = tuple(PredDef(var=self._id(i), reg=i.pred,
                              sense=i.pred_sense)
                      for i in real if i.pred is not None)

        # 4. phase A2: values (loads carry their memory dispatch)
        values: list = []
        for instr in real:
            if not _is_value_op(instr.op):
                continue
            m = self._id(instr)
            pred = m if instr.pred is not None else None
            if instr.op in _LOAD_OPS:
                if device:
                    values.append(DeviceLoad(var=m, op=instr.op,
                                             src1=instr.src1,
                                             imm=instr.imm or 0, pred=pred))
                else:
                    values.append(PlainLoad(var=m, op=instr.op,
                                            src1=instr.src1,
                                            imm=instr.imm or 0, pred=pred,
                                            bail=self._bail(k)))
            else:
                values.append(AluOp(var=m, op=instr.op, dst=instr.dst,
                                    src1=instr.src1, src2=instr.src2,
                                    imm=instr.imm, pred=pred))

        # 5. phase A3: plain-store range checks (apply-time bases); the
        #    generic dispatch of device packets needs no pre-check
        store_checks: list[StoreCheck] = []
        if not device:
            for pos, instr in enumerate(instrs):
                if instr.op not in _STORE_OPS:
                    continue
                m = self._id(instr)
                store_checks.append(StoreCheck(
                    m=m, base=self._fwd(instr.src2, instrs, pos),
                    imm=instr.imm or 0, size=_STORE_SIZE[instr.op],
                    pred=m if instr.pred is not None else None,
                    bail=self._bail(k)))

        # 6. per-block stats at translated block heads — placed after
        #    every bail point, so a bailed packet's block statistics are
        #    counted only once, by the interpreter's re-execution
        block = None
        info = self.program.block_at.get(idx)
        if info is not None:
            self.st_src += info.n_instructions
            block = (info.source_addr, info.n_instructions)

        # 7. phase A4: execution counters (after every possible bail)
        ci_preds: list[int] = []
        static_instr = 0
        for instr in real:
            if instr.pred is not None:
                ci_preds.append(self._id(instr))
            else:
                static_instr += 1
        self.st_instr += static_instr
        static_nop = not real
        cn_preds: tuple[int, ...] = ()
        if static_nop:
            self.st_nop += 1
        elif all(i.pred is not None for i in real):
            cn_preds = tuple(self._id(i) for i in real)

        # 8. phase B: apply effects in packet order
        applies: list = []
        packet_has_halt = False
        halt_unpred = False
        has_store = False
        for pos, instr in enumerate(instrs):
            op = instr.op
            if op is TOp.NOP:
                continue
            m = self._id(instr)
            pred = m if instr.pred is not None else None
            if op is TOp.HALT:
                packet_has_halt = True
                halt_unpred = halt_unpred or pred is None
                applies.append(HaltOp(pred=pred))
                continue
            if op is TOp.B:
                self.branch_pred = pred
                if instr.target is not None:
                    self.branch_static_target = self.program.label_packet(
                        instr.target)
                    continue
                applies.append(IndirectBranch(
                    m=m, value=self._fwd(instr.src1, instrs, pos),
                    pred=pred))
                self.branch_index_var = m
                continue
            if op in _STORE_OPS:
                has_store = True
                size = _STORE_SIZE[op]
                val = self._fwd(instr.src1, instrs, pos)
                if device:
                    applies.append(DeviceStore(
                        m=m, base=self._fwd(instr.src2, instrs, pos),
                        val=val, imm=instr.imm or 0, size=size, pred=pred))
                else:
                    applies.append(PlainStore(m=m, val=val, size=size,
                                              pred=pred))
                continue
            # register write
            delay = self._delay(op)
            if delay == 0:
                applies.append(RegWrite(dst=instr.dst, var=m, pred=pred))
            else:
                self.writes.append((k + 1 + delay, instr.dst, m, pred))

        # 9. a device packet ticks immediately (order vs. device writes
        #    matters); pure packets batch their tick into the epilogue
        exit_check = None
        if device:
            self.ticks_flushed = k + 1
            if has_store:
                # a bridge store may have hit the exit device: stop at
                # this packet, exactly like the interpretive run loop
                exit_check = self._epilogue(
                    k + 1, k + 1, self.pc0 + k + 1, None,
                    pending_branch=self._branch_in_flight_at(k + 1))

        # 10. conditional halt exit
        halt_exit = None
        if packet_has_halt:
            halt_exit = (halt_unpred, self._epilogue(
                k + 1, k + 1, self.pc0 + k + 1, None,
                pending_branch=self._branch_in_flight_at(k + 1)))

        return PacketIR(
            index=idx, offset=k, entry_commit=entry_commit, commits=commits,
            device=device, guard=guard, tick_flush=tick_flush,
            stall_checks=stall_checks, preds=preds, values=tuple(values),
            store_checks=tuple(store_checks), block=block,
            ci_preds=tuple(ci_preds), static_instr=static_instr,
            static_nop=static_nop, cn_preds=cn_preds,
            applies=tuple(applies), device_tick=device,
            exit_check=exit_check, halt_exit=halt_exit)

    def _lower_shared_guard(self, k: int, instrs) -> SharedGuard | None:
        """Guard a device packet against shared-segment addresses.

        One pre-access check per memory operation, evaluated against
        post-commit (pre-execution) register state — the same state the
        interpreter would re-execute the packet from.  ``checks``
        coming back empty means the packet must *always* run
        interpreted (a store address depends on a same-packet result,
        so it cannot be pre-computed here).
        """
        checks: list[GuardCheck] = []
        for pos, instr in enumerate(instrs):
            if instr.op in _LOAD_OPS:
                base = ("reg", instr.src1)
            elif instr.op in _STORE_OPS:
                base = self._fwd(instr.src2, instrs, pos)
                if base[0] != "reg":
                    return SharedGuard(checks=(), bail=self._bail(k))
            else:
                continue
            checks.append(GuardCheck(base=base, imm=instr.imm or 0,
                                     pred_reg=instr.pred,
                                     pred_sense=instr.pred_sense))
        if not checks:
            return None
        return SharedGuard(checks=tuple(checks), bail=self._bail(k))

    # -- region end ------------------------------------------------------

    def _lower_end(self) -> BranchEnd | CutEnd | InterpEnd | None:
        K = self.n_packets
        pc_fall = self.pc0 + K
        if self.end_kind == "halt":
            # the halt exit lowered inside the packet already returned
            return None
        if self.end_kind == "branch":
            target = self.branch_static_target
            var = self.branch_index_var
            taken = self._epilogue(K, K, target, var, pending_branch=False)
            fallthrough = None
            if self.branch_pred is not None:
                fallthrough = self._epilogue(K, K, pc_fall, None,
                                             pending_branch=False)
            return BranchEnd(pred=self.branch_pred, target=target,
                             target_var=var, taken=taken,
                             fallthrough=fallthrough, fall_pc=pc_fall)
        if self.end_kind == "cut":
            return CutEnd(epilogue=self._epilogue(K, K, pc_fall, None,
                                                  pending_branch=False),
                          chain_pc=pc_fall)
        # 'interp': a second in-flight branch or the end of the program
        return InterpEnd(epilogue=self._epilogue(
            K, K, pc_fall, None,
            pending_branch=self.branch_off is not None))
