"""Functional A64-lite interpreter.

Executes guest instructions one at a time against a :class:`CpuState`, a
stage-1 :class:`Mmu` and a :class:`GuestMemoryMap`.  Control returns to the
caller through :class:`ExitInfo` — the same exit protocol the simulated KVM
uses — so the ISS-based and KVM-based CPU models can share all plumbing
above this layer.

MMIO follows the KVM two-phase protocol: an access to a non-RAM physical
address stops execution *before* retiring the instruction and surfaces an
:class:`MmioRequest`; the platform performs the access (a TLM transaction)
and calls :meth:`Interpreter.complete_mmio`, which retires the instruction
and lets the next ``run`` continue.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict, Optional, Set, Tuple

from ..arch.exceptions import (
    ExceptionClass,
    GuestFault,
    do_eret,
    take_irq,
    take_sync_exception,
)
from ..arch.isa import BLOCK_TERMINATORS, DecodeError, Instruction, Op, SysReg, decode
from ..arch.mmu import Mmu
from ..arch.registers import MASK64, CpuState
from ..systemc.kernel import enter_shared_section
from .executor import ExitInfo, ExitReason, GuestMemoryMap, MmioRequest, RunStats

_SCTLR = int(SysReg.SCTLR_EL1)
_FORMATS = {1: "<B", 4: "<I", 8: "<Q"}
_UNPACK = {size: struct.Struct(fmt).unpack_from for size, fmt in _FORMATS.items()}
_PACK = {size: struct.Struct(fmt).pack_into for size, fmt in _FORMATS.items()}
_FETCH = _UNPACK[4]

#: System registers EL0 is allowed to touch.
_EL0_SYSREGS = {
    int(SysReg.CNTFRQ_EL0), int(SysReg.CNTVCT_EL0), int(SysReg.TPIDR_EL0),
    int(SysReg.CURRENT_EL), int(SysReg.DAIF),
}


class GlobalMonitor:
    """The global exclusive monitor shared by all cores.

    Real hardware invalidates a core's exclusive reservation when another
    agent writes the monitored location; without this, LDXR/STXR spinlocks
    would miss updates.  VP construction creates one monitor and hands it to
    every executor.
    """

    def __init__(self):
        self._marks: Dict[int, int] = {}      # core -> physical address

    def mark(self, core: int, address: int) -> None:
        self._marks[core] = address

    def clear(self, core: int) -> None:
        self._marks.pop(core, None)

    def check(self, core: int, address: int) -> bool:
        return self._marks.get(core) == address

    def on_store(self, address: int, size: int, writer_core: int) -> None:
        """Break other cores' reservations overlapping [address, address+size)."""
        doomed = [core for core, marked in self._marks.items()
                  if core != writer_core and address <= marked < address + size]
        for core in doomed:
            del self._marks[core]

    # -- snapshot support ------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {"marks": {str(core): address for core, address
                          in sorted(self._marks.items())}}

    def restore_state(self, state: dict) -> None:
        self._marks = {int(core): address for core, address
                       in state["marks"].items()}


class _Exit(Exception):
    """Internal control-flow signal carrying a pending ExitReason."""

    def __init__(self, reason: ExitReason, mmio: Optional[MmioRequest] = None,
                 halt_code: int = 0, message: str = ""):
        self.reason = reason
        self.mmio = mmio
        self.halt_code = halt_code
        self.message = message
        super().__init__(message)


class Interpreter:
    """One core's instruction-accurate execution engine."""

    def __init__(self, state: CpuState, memory: GuestMemoryMap,
                 monitor: Optional[GlobalMonitor] = None, tlb_capacity: int = 512):
        self.state = state
        self.memory = memory
        self.monitor = monitor or GlobalMonitor()
        self.mmu = Mmu(state, memory.read, tlb_capacity)
        self.breakpoints: Set[int] = set()
        #: opcodes the (virtual) host CPU cannot execute natively; running
        #: one raises an EMULATION exit so the VP can emulate it (§VI).
        self.unsupported_ops: Set[Op] = set()
        self.irq_line = False
        self._pending_mmio: Optional[MmioRequest] = None
        self._decode_cache: Dict[int, Tuple[int, Instruction, Handler, bool]] = {}
        self._skip_breakpoint_pc: Optional[int] = None
        self._fault_streak = 0
        # Event counters (monotonic; cost models sample deltas).
        self.memory_ops = 0
        self.blocks_entered = 0
        self.new_blocks = 0
        self.exceptions = 0
        self._known_blocks: Set[int] = set()
        self._block_start = True

    @property
    def pc(self) -> int:
        return self.state.pc

    # -- debug interface (KVM_SET_GUEST_DEBUG analogue) -------------------------
    def set_breakpoint(self, address: int) -> None:
        self.breakpoints.add(address)

    def clear_breakpoint(self, address: int) -> None:
        self.breakpoints.discard(address)

    # -- interrupt line ----------------------------------------------------------
    def set_irq(self, level: bool) -> None:
        self.irq_line = bool(level)

    # -- stats --------------------------------------------------------------------
    def sample_stats(self) -> RunStats:
        return RunStats(
            instructions=self.state.instret,
            memory_ops=self.memory_ops,
            blocks_entered=self.blocks_entered,
            blocks_translated=self.new_blocks,
            tlb_misses=self.mmu.tlb.misses,
            exceptions=self.exceptions,
        )

    # -- snapshot support ---------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Full serializable executor state (repro.snapshot).

        Everything that influences future behaviour or reported statistics
        is captured, including the TLB contents (dropping them would change
        post-resume miss counts and thus DBT cost attribution).  The decode
        cache is *not* captured: every hit re-validates the cached word
        against memory, so a cold cache provably rebuilds to identical
        decisions.  Sets are emitted sorted for deterministic bytes.
        """
        request = self._pending_mmio
        return {
            "type": "interpreter",
            "cpu": self.state.snapshot(),
            "exclusive_addr": self.state.exclusive_addr,
            "exclusive_valid": self.state.exclusive_valid,
            "halted": self.state.halted,
            "breakpoints": sorted(self.breakpoints),
            "unsupported_ops": sorted(op.value for op in self.unsupported_ops),
            "irq_line": self.irq_line,
            "pending_mmio": None if request is None else {
                "address": request.address,
                "size": request.size,
                "is_write": request.is_write,
                "data": None if request.data is None else request.data.hex(),
                "register": request.register,
            },
            "skip_breakpoint_pc": self._skip_breakpoint_pc,
            "fault_streak": self._fault_streak,
            "memory_ops": self.memory_ops,
            "blocks_entered": self.blocks_entered,
            "new_blocks": self.new_blocks,
            "exceptions": self.exceptions,
            "known_blocks": sorted(self._known_blocks),
            "block_start": self._block_start,
            "tlb": {
                "entries": [[vpage, el, ppage, flags] for (vpage, el), (ppage, flags)
                            in sorted(self.mmu.tlb._entries.items())],
                "hits": self.mmu.tlb.hits,
                "misses": self.mmu.tlb.misses,
            },
            "mmu_walks": self.mmu.walks,
        }

    def restore_state(self, state: dict) -> None:
        self.state.restore(state["cpu"])
        self.state.exclusive_addr = state["exclusive_addr"]
        self.state.exclusive_valid = bool(state["exclusive_valid"])
        self.state.halted = bool(state["halted"])
        self.breakpoints = set(state["breakpoints"])
        self.unsupported_ops = {Op(value) for value in state["unsupported_ops"]}
        self.irq_line = bool(state["irq_line"])
        pending = state["pending_mmio"]
        self._pending_mmio = None if pending is None else MmioRequest(
            pending["address"], pending["size"], pending["is_write"],
            None if pending["data"] is None else bytes.fromhex(pending["data"]),
            pending["register"],
        )
        self._skip_breakpoint_pc = state["skip_breakpoint_pc"]
        self._fault_streak = state["fault_streak"]
        self.memory_ops = state["memory_ops"]
        self.blocks_entered = state["blocks_entered"]
        self.new_blocks = state["new_blocks"]
        self.exceptions = state["exceptions"]
        self._known_blocks = set(state["known_blocks"])
        self._block_start = bool(state["block_start"])
        self._decode_cache.clear()
        tlb = self.mmu.tlb
        tlb._entries = {(vpage, el): (ppage, flags)
                        for vpage, el, ppage, flags in state["tlb"]["entries"]}
        tlb.hits = state["tlb"]["hits"]
        tlb.misses = state["tlb"]["misses"]
        self.mmu.walks = state["mmu_walks"]

    # -- main run loop ---------------------------------------------------------------
    def run(self, max_instructions: int) -> ExitInfo:
        """Execute until budget exhaustion or an exit event (KVM_RUN analogue)."""
        if self._pending_mmio is not None:
            raise RuntimeError("MMIO in flight; call complete_mmio() before run()")
        state = self.state
        if state.halted:
            return ExitInfo(ExitReason.HALT, 0, state.pc)
        # Guest RAM is shared by every core.  Inside a parallel simulate leg
        # this takes the lane-ordered commit token, which is then held until
        # the leg ends, so one call covers every fetch, load and store below.
        enter_shared_section()
        fetch = self._fetch
        breakpoints = self.breakpoints
        unsupported = self.unsupported_ops
        executed = 0
        while executed < max_instructions:
            # Interrupts are delivered between instructions — but not while
            # stepping over a just-hit breakpoint: the stepped instruction
            # (e.g. the annotated WFI) retires first, so the IRQ's return
            # address lands *after* it, as on real hardware.
            if (self.irq_line and not state.irqs_masked
                    and state.pc != self._skip_breakpoint_pc):
                take_irq(state, return_pc=state.pc)
                self.exceptions += 1
                self._block_start = True
            pc = state.pc
            if pc in breakpoints and pc != self._skip_breakpoint_pc:
                self._skip_breakpoint_pc = pc
                return ExitInfo(ExitReason.BREAKPOINT, executed, pc)
            try:
                _word, inst, handler, ends_block = fetch(pc)
                if unsupported and inst.op in unsupported:
                    # The host CPU traps this instruction (illegal-opcode
                    # exit); the hypervisor's user space must emulate it.
                    return ExitInfo(ExitReason.EMULATION, executed, pc)
                if self._block_start:
                    self.blocks_entered += 1
                    if pc not in self._known_blocks:
                        self._known_blocks.add(pc)
                        self.new_blocks += 1
                    self._block_start = False
                state.pc = handler(self, inst, pc)
            except GuestFault as fault:
                try:
                    self._deliver_fault(fault, pc)
                except _ExitErrorLoop as loop:
                    return ExitInfo(ExitReason.ERROR, executed, pc, message=str(loop))
                continue
            except _Exit as exit_signal:
                if exit_signal.reason is ExitReason.MMIO:
                    self._pending_mmio = exit_signal.mmio
                    return ExitInfo(ExitReason.MMIO, executed, pc, mmio=exit_signal.mmio)
                if exit_signal.reason is ExitReason.HALT:
                    state.halted = True
                    executed += 1
                    state.instret += 1
                    return ExitInfo(ExitReason.HALT, executed, state.pc,
                                    halt_code=exit_signal.halt_code)
                if exit_signal.reason is ExitReason.WFI:
                    executed += 1
                    state.instret += 1
                    return ExitInfo(ExitReason.WFI, executed, state.pc)
                return ExitInfo(exit_signal.reason, executed, state.pc,
                                message=exit_signal.message)
            if pc == self._skip_breakpoint_pc:
                self._skip_breakpoint_pc = None
            self._fault_streak = 0
            executed += 1
            state.instret += 1
            if ends_block:
                self._block_start = True
        return ExitInfo(ExitReason.BUDGET, executed, state.pc)

    def emulate_one(self) -> ExitInfo:
        """Execute exactly one instruction, ignoring ``unsupported_ops``.

        This is the VP-side software emulation path for instructions the
        host cannot run natively: the hypervisor's user space performs the
        architectural effect and resumes the guest after it (§VI).
        """
        if self._pending_mmio is not None:
            raise RuntimeError("MMIO in flight; complete it before emulating")
        state = self.state
        pc = state.pc
        enter_shared_section()
        try:
            _word, inst, handler, _ends_block = self._fetch(pc)
            state.pc = handler(self, inst, pc)
        except GuestFault as fault:
            self._deliver_fault(fault, pc)
            return ExitInfo(ExitReason.BUDGET, 0, state.pc)
        except _Exit as exit_signal:
            if exit_signal.reason is ExitReason.MMIO:
                self._pending_mmio = exit_signal.mmio
                return ExitInfo(ExitReason.MMIO, 0, pc, mmio=exit_signal.mmio)
            if exit_signal.reason is ExitReason.HALT:
                state.halted = True
            state.instret += 1
            return ExitInfo(exit_signal.reason, 1, state.pc,
                            halt_code=exit_signal.halt_code)
        state.instret += 1
        return ExitInfo(ExitReason.BUDGET, 1, state.pc)

    def complete_mmio(self, read_data: Optional[bytes] = None) -> None:
        """Finish the in-flight MMIO access and retire its instruction."""
        request = self._pending_mmio
        if request is None:
            raise RuntimeError("no MMIO in flight")
        state = self.state
        if not request.is_write:
            if read_data is None or len(read_data) != request.size:
                raise ValueError(
                    f"MMIO read completion wants {request.size} bytes, "
                    f"got {None if read_data is None else len(read_data)}"
                )
            state.write_reg(request.register, int.from_bytes(read_data, "little"))
        state.pc = (state.pc + 4) & MASK64
        state.instret += 1
        self._pending_mmio = None
        if state.pc != self._skip_breakpoint_pc:
            self._skip_breakpoint_pc = None

    @property
    def mmio_pending(self) -> bool:
        return self._pending_mmio is not None

    # -- fault delivery -----------------------------------------------------------------
    def _deliver_fault(self, fault: GuestFault, pc: int) -> None:
        self.exceptions += 1
        self._fault_streak += 1
        self._block_start = True
        if self._fault_streak > 4:
            raise _ExitErrorLoop(pc, fault)
        return_pc = pc + 4 if fault.ec in (ExceptionClass.SVC, ExceptionClass.BRK) else pc
        take_sync_exception(self.state, fault.ec, fault.iss, fault.fault_address,
                            return_pc=return_pc)

    # -- fetch ------------------------------------------------------------------------
    def _fetch(self, pc: int) -> Tuple[int, Instruction, Handler, bool]:
        """The decode-cache entry ``(word, inst, handler, ends_block)`` at ``pc``.
        A hit still re-reads the word from RAM: rewritten code re-decodes."""
        pa = (self.mmu.translate(pc, fetch=True)
              if self.state.sysregs.get(_SCTLR, 0) & 1 else pc)
        hit = self.memory.lookup(pa, 4)
        if hit is None:
            raise GuestFault(ExceptionClass.INSTRUCTION_ABORT, iss=0x10, fault_address=pc,
                             message=f"instruction fetch from MMIO at 0x{pc:x}")
        word = _FETCH(*hit)[0]
        entry = self._decode_cache.get(pa)
        if entry is not None and entry[0] == word:
            return entry
        try:
            inst = decode(word)
        except DecodeError:
            raise GuestFault(ExceptionClass.UNKNOWN, fault_address=pc,
                             message=f"undecodable word {word:#010x} at 0x{pc:x}") from None
        entry = (word, inst, _HANDLERS[inst.op], inst.op in BLOCK_TERMINATORS)
        self._decode_cache[pa] = entry
        return entry

    def _exclusive_pa(self, va: int, write: bool) -> Tuple[int, memoryview, int]:
        self.memory_ops += 1
        pa = self.mmu.translate(va, write=write)
        hit = self.memory.lookup(pa, 8)
        if hit is None:
            kind = "store to" if write else "load from"
            raise GuestFault(ExceptionClass.DATA_ABORT, iss=0x35, fault_address=va,
                             message=f"exclusive {kind} MMIO at 0x{va:x}")
        return (pa,) + hit

    def _check_sysreg_access(self, reg: int, pc: int) -> None:
        if self.state.el == 0 and reg not in _EL0_SYSREGS:
            raise GuestFault(ExceptionClass.UNKNOWN, fault_address=pc,
                             message=f"EL0 access to system register {reg:#x}")


class _ExitErrorLoop(Exception):
    """Raised when fault delivery itself keeps faulting (guest is wedged)."""

    def __init__(self, pc: int, fault: GuestFault):
        self.pc = pc
        self.fault = fault
        super().__init__(f"fault loop at pc=0x{pc:x}: {fault}")


# -- instruction handlers ---------------------------------------------------------------
# Each handler performs one instruction's architectural effect and returns
# the next PC.  A fault or MMIO exit raises before the PC or any register
# moves; WFI and HLT retire, so they set the PC before raising their exit.

Handler = Callable[[Interpreter, Instruction, int], int]


def _alu(fn: Callable[[int, int], int], immediate: bool) -> Handler:
    """``rd = fn(xn, imm)`` or ``rd = fn(xn, xm)``."""
    def handler(cpu, inst, pc):
        regs = cpu.state.regs
        regs[inst.rd] = fn(regs[inst.rn], inst.imm if immediate else regs[inst.rm])
        return (pc + 4) & MASK64
    return handler


def _compare(immediate: bool) -> Handler:
    """CMP / CMPI: set NZCV from ``xn - (imm or xm)``."""
    def handler(cpu, inst, pc):
        state = cpu.state
        a = state.regs[inst.rn]
        b = inst.imm if immediate else state.regs[inst.rm]
        result = (a - b) & MASK64
        state.flag_n, state.flag_z = result >> 63 == 1, result == 0
        state.flag_c, state.flag_v = a >= b, ((a ^ b) & (a ^ result)) >> 63 == 1
        return (pc + 4) & MASK64
    return handler


def _load(size: int) -> Handler:
    """``rd = [xn + imm]``, zero-extended; MMIO exits before retiring."""
    unpack = _UNPACK[size]

    def handler(cpu, inst, pc):
        state = cpu.state
        va = (state.regs[inst.rn] + inst.imm) & MASK64
        cpu.memory_ops += 1
        pa = cpu.mmu.translate(va) if state.sysregs.get(_SCTLR, 0) & 1 else va
        hit = cpu.memory.lookup(pa, size)
        if hit is None:
            raise _Exit(ExitReason.MMIO, mmio=MmioRequest(pa, size, False, None, inst.rd))
        state.regs[inst.rd] = unpack(*hit)[0]
        return (pc + 4) & MASK64
    return handler


def _store(size: int) -> Handler:
    """``[xn + imm] = rd``, truncated; MMIO exits before retiring."""
    pack, mask = _PACK[size], (1 << (8 * size)) - 1

    def handler(cpu, inst, pc):
        state = cpu.state
        va = (state.regs[inst.rn] + inst.imm) & MASK64
        cpu.memory_ops += 1
        pa = cpu.mmu.translate(va, write=True) if state.sysregs.get(_SCTLR, 0) & 1 else va
        value = state.regs[inst.rd] & mask
        hit = cpu.memory.lookup(pa, size)
        if hit is None:
            raise _Exit(ExitReason.MMIO, mmio=MmioRequest(
                pa, size, True, value.to_bytes(size, "little"), 0))
        pack(*hit, value)
        cpu.monitor.on_store(pa, size, state.core_id)
        return (pc + 4) & MASK64
    return handler


def _ldxr(cpu, inst, pc):
    state = cpu.state
    pa, view, offset = cpu._exclusive_pa(state.regs[inst.rn], write=False)
    state.regs[inst.rd] = _UNPACK[8](view, offset)[0]
    cpu.monitor.mark(state.core_id, pa)
    state.set_exclusive(pa)
    return (pc + 4) & MASK64


def _stxr(cpu, inst, pc):
    state, regs = cpu.state, cpu.state.regs
    pa, view, offset = cpu._exclusive_pa(regs[inst.rn], write=True)
    if state.check_exclusive(pa) and cpu.monitor.check(state.core_id, pa):
        _PACK[8](view, offset, regs[inst.rm])
        cpu.monitor.on_store(pa, 8, state.core_id)
        regs[inst.rd] = 0
    else:
        regs[inst.rd] = 1
    state.clear_exclusive()
    cpu.monitor.clear(state.core_id)
    return (pc + 4) & MASK64


#: ARM condition codes come in pairs: ``cond = 2 * base + negate``
_CONDITION_BASES = (
    lambda s: s.flag_z,                                 # EQ / NE
    lambda s: s.flag_c,                                 # HS / LO
    lambda s: s.flag_n,                                 # MI / PL
    lambda s: s.flag_v,                                 # VS / VC
    lambda s: s.flag_c and not s.flag_z,                # HI / LS
    lambda s: s.flag_n == s.flag_v,                     # GE / LT
    lambda s: not s.flag_z and s.flag_n == s.flag_v,    # GT / LE
    lambda s: True,                                     # AL
)


def _bcond(cpu, inst, pc):
    if _CONDITION_BASES[inst.cond >> 1](cpu.state) != (inst.cond & 1):
        return (pc + 4 * inst.imm) & MASK64
    return (pc + 4) & MASK64


def _compare_branch(on_zero: bool) -> Handler:
    """CBZ / CBNZ: branch by ``imm`` words when ``rd`` is (non)zero."""
    def handler(cpu, inst, pc):
        if (cpu.state.regs[inst.rd] == 0) is on_zero:
            return (pc + 4 * inst.imm) & MASK64
        return (pc + 4) & MASK64
    return handler


def _bl(cpu, inst, pc):
    cpu.state.regs[30] = (pc + 4) & MASK64
    return (pc + 4 * inst.imm) & MASK64


def _movz(cpu, inst, pc):
    cpu.state.regs[inst.rd] = (inst.imm << (16 * inst.rm)) & MASK64
    return (pc + 4) & MASK64


def _movk(cpu, inst, pc):
    regs, shift = cpu.state.regs, 16 * inst.rm
    regs[inst.rd] = (regs[inst.rd] & ~(0xFFFF << shift) | (inst.imm << shift)) & MASK64
    return (pc + 4) & MASK64


def _adr(cpu, inst, pc):
    cpu.state.regs[inst.rd] = (pc + inst.imm) & MASK64
    return (pc + 4) & MASK64


def _trap(ec: ExceptionClass, mnemonic: str) -> Handler:
    def handler(cpu, inst, pc):
        raise GuestFault(ec, iss=inst.imm, message=f"{mnemonic} #{inst.imm}")
    return handler


def _udf(cpu, inst, pc):
    raise GuestFault(ExceptionClass.UNKNOWN, fault_address=pc,
                     message=f"undefined instruction at 0x{pc:x}")


def _eret(cpu, inst, pc):
    do_eret(cpu.state)
    return cpu.state.pc


def _mrs(cpu, inst, pc):
    cpu._check_sysreg_access(inst.imm, pc)
    state = cpu.state
    state.regs[inst.rd] = (state.instret & MASK64 if inst.imm == SysReg.CNTVCT_EL0
                           else state.read_sysreg(inst.imm))
    return (pc + 4) & MASK64


def _msr(cpu, inst, pc):
    cpu._check_sysreg_access(inst.imm, pc)
    cpu.state.write_sysreg(inst.imm, cpu.state.regs[inst.rn])
    if inst.imm in (SysReg.SCTLR_EL1, SysReg.TTBR0_EL1):
        cpu.mmu.flush_tlb()
        cpu._decode_cache.clear()
    return (pc + 4) & MASK64


def _msri(cpu, inst, pc):
    state = cpu.state  # rm selects DAIFSet over DAIFClr
    state.daif = state.daif | inst.imm if inst.rm else state.daif & ~inst.imm
    return (pc + 4) & MASK64


def _wfi(cpu, inst, pc):
    # A NOP at EL0 (Linux traps it) or with an interrupt already pending.
    if cpu.state.el != 0 and not cpu.irq_line:
        cpu.state.pc = (pc + 4) & MASK64
        raise _Exit(ExitReason.WFI)
    return (pc + 4) & MASK64


def _hlt(cpu, inst, pc):
    cpu.state.pc = (pc + 4) & MASK64
    raise _Exit(ExitReason.HALT, halt_code=inst.imm)


def _nop(cpu, inst, pc):
    return (pc + 4) & MASK64


#: the dispatch table: a handler for every opcode :func:`decode` produces
_HANDLERS: Dict[Op, Handler] = {
    Op.NOP: _nop, Op.DMB: _nop, Op.YIELD: _nop,
    Op.MOVZ: _movz, Op.MOVK: _movk, Op.ADR: _adr,
    Op.ADDI: _alu(lambda a, b: (a + b) & MASK64, True),
    Op.SUBI: _alu(lambda a, b: (a - b) & MASK64, True),
    Op.ADD: _alu(lambda a, b: (a + b) & MASK64, False),
    Op.SUB: _alu(lambda a, b: (a - b) & MASK64, False),
    Op.MUL: _alu(lambda a, b: (a * b) & MASK64, False),
    Op.UDIV: _alu(lambda a, b: 0 if b == 0 else a // b, False),
    Op.UREM: _alu(lambda a, b: a if b == 0 else a % b, False),
    Op.AND: _alu(operator.and_, False), Op.ANDI: _alu(operator.and_, True),
    Op.ORR: _alu(operator.or_, False), Op.ORRI: _alu(operator.or_, True),
    Op.EOR: _alu(operator.xor, False), Op.EORI: _alu(operator.xor, True),
    Op.LSLI: _alu(lambda a, b: (a << b) & MASK64, True),
    Op.LSRI: _alu(operator.rshift, True),
    Op.ASRI: _alu(lambda a, b: ((a - (1 << 64) if a >> 63 else a) >> b) & MASK64, True),
    Op.MOV: _alu(lambda a, _imm: a, True),
    Op.CMP: _compare(False), Op.CMPI: _compare(True),
    Op.LDR: _load(8), Op.LDRW: _load(4), Op.LDRB: _load(1),
    Op.STR: _store(8), Op.STRW: _store(4), Op.STRB: _store(1),
    Op.LDXR: _ldxr, Op.STXR: _stxr,
    Op.B: lambda cpu, inst, pc: (pc + 4 * inst.imm) & MASK64,
    Op.BL: _bl, Op.BCOND: _bcond,
    Op.CBZ: _compare_branch(True), Op.CBNZ: _compare_branch(False),
    Op.BR: lambda cpu, inst, pc: cpu.state.regs[inst.rn],
    Op.RET: lambda cpu, inst, pc: cpu.state.regs[inst.rn],
    Op.SVC: _trap(ExceptionClass.SVC, "svc"), Op.BRK: _trap(ExceptionClass.BRK, "brk"),
    Op.UDF: _udf, Op.ERET: _eret,
    Op.MRS: _mrs, Op.MSR: _msr, Op.MSRI: _msri,
    Op.WFI: _wfi, Op.HLT: _hlt,
}
