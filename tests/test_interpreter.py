"""Functional interpreter: instruction semantics and the exit protocol."""

import pytest

from repro.arch.isa import SysReg
from repro.iss.executor import ExitReason
from repro.iss.interpreter import GlobalMonitor

MMIO_BASE = 0x9000_0000


def run_to_halt(guest, source, budget=100_000):
    harness = guest(source)
    info = harness.run(budget)
    assert info.reason is ExitReason.HALT, info
    return harness


class TestArithmetic:
    def test_movz_movk_build_64bit(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x0, #0x1111, lsl #48
    movk x0, #0x2222, lsl #32
    movk x0, #0x3333, lsl #16
    movk x0, #0x4444
    hlt #0
""")
        assert harness.reg(0) == 0x1111222233334444

    def test_add_sub_wraparound(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0
    sub x1, x1, #1       // 0 - 1 wraps to all ones
    add x2, x1, #2
    hlt #0
""")
        assert harness.reg(1) == 0xFFFFFFFFFFFFFFFF
        assert harness.reg(2) == 1

    def test_mul_udiv_urem(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #7
    movz x2, #3
    mul x3, x1, x2
    udiv x4, x1, x2
    urem x5, x1, x2
    movz x6, #0
    udiv x7, x1, x6     // division by zero gives 0 (ARM semantics)
    hlt #0
""")
        assert harness.reg(3) == 21
        assert harness.reg(4) == 2
        assert harness.reg(5) == 1
        assert harness.reg(7) == 0

    def test_logic_and_shifts(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0xF0F0
    movz x2, #0x0FF0
    and x3, x1, x2
    orr x4, x1, x2
    eor x5, x1, x2
    lsl x6, x1, #4
    lsr x7, x1, #4
    andi x8, x1, #0xF0
    orri x9, x1, #0xF
    eori x10, x1, #0x1
    hlt #0
""")
        assert harness.reg(3) == 0x0FF0 & 0xF0F0
        assert harness.reg(4) == 0xFFF0
        assert harness.reg(5) == 0xF0F0 ^ 0x0FF0
        assert harness.reg(6) == 0xF0F00
        assert harness.reg(7) == 0xF0F
        assert harness.reg(8) == 0xF0
        assert harness.reg(9) == 0xF0FF
        assert harness.reg(10) == 0xF0F1

    def test_asr_sign_extends(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x8000, lsl #48
    asr x2, x1, #60
    hlt #0
""")
        assert harness.reg(2) == 0xFFFFFFFFFFFFFFF8

    def test_mov_register(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #55
    mov x2, x1
    hlt #0
""")
        assert harness.reg(2) == 55


class TestBranches:
    @pytest.mark.parametrize("cond,a,b,taken", [
        ("eq", 5, 5, True), ("eq", 5, 6, False),
        ("ne", 5, 6, True), ("ne", 5, 5, False),
        ("lo", 4, 5, True), ("lo", 5, 4, False),
        ("hs", 5, 5, True), ("hs", 4, 5, False),
        ("hi", 6, 5, True), ("hi", 5, 5, False),
        ("ls", 5, 5, True), ("ls", 6, 5, False),
        ("lt", 4, 5, True), ("lt", 5, 4, False),
        ("ge", 5, 5, True), ("ge", 4, 5, False),
        ("gt", 6, 5, True), ("gt", 5, 5, False),
        ("le", 5, 5, True), ("le", 6, 5, False),
    ])
    def test_conditions_unsigned_small(self, guest, cond, a, b, taken):
        harness = run_to_halt(guest, f"""
_start:
    movz x1, #{a}
    movz x2, #{b}
    movz x0, #0
    cmp x1, x2
    b.{cond} hit
    b end
hit:
    movz x0, #1
end:
    hlt #0
""")
        assert harness.reg(0) == (1 if taken else 0)

    def test_signed_comparison_negative(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0
    sub x1, x1, #5       // -5
    movz x2, #3
    movz x0, #0
    cmp x1, x2
    b.lt hit             // -5 < 3 signed
    b end
hit:
    movz x0, #1
end:
    hlt #0
""")
        assert harness.reg(0) == 1

    def test_unsigned_comparison_wrapped(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0
    sub x1, x1, #5       // huge unsigned value
    movz x2, #3
    movz x0, #0
    cmp x1, x2
    b.hi hit             // unsigned: 2^64-5 > 3
    b end
hit:
    movz x0, #1
end:
    hlt #0
""")
        assert harness.reg(0) == 1

    def test_bl_ret_and_br(self, guest):
        harness = run_to_halt(guest, """
_start:
    bl fn
    movz x2, #2
    adr x3, target
    br x3
    hlt #1
target:
    hlt #0
fn:
    movz x1, #1
    ret
""")
        assert harness.reg(1) == 1
        assert harness.reg(2) == 2
        assert harness.run(10).halt_code == 0

    def test_loop_with_cbnz(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x0, #0
    movz x1, #10
loop:
    add x0, x0, x1
    sub x1, x1, #1
    cbnz x1, loop
    hlt #0
""")
        assert harness.reg(0) == 55


class TestMemory:
    def test_sizes_and_zero_extension(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    movz x2, #0xBEEF
    movk x2, #0xDEAD, lsl #16
    str x2, [x1]
    ldr x3, [x1]
    ldrw x4, [x1]
    ldrb x5, [x1]
    strb x2, [x1, #16]
    ldr x6, [x1, #16]
    hlt #0
""")
        assert harness.reg(3) == 0xDEADBEEF
        assert harness.reg(4) == 0xDEADBEEF
        assert harness.reg(5) == 0xEF
        assert harness.reg(6) == 0xEF

    def test_negative_offsets(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2010
    movz x2, #77
    str x2, [x1, #-8]
    ldr x3, [x1, #-8]
    hlt #0
""")
        assert harness.reg(3) == 77

    def test_strw_truncates(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    movz x2, #0x1
    movk x2, #0x1, lsl #32    // bit 32 set
    strw x2, [x1]
    ldr x3, [x1]
    hlt #0
""")
        assert harness.reg(3) == 1


class TestExclusives:
    def test_ldxr_stxr_success(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    movz x2, #5
    str x2, [x1]
    ldxr x3, [x1]
    add x3, x3, #1
    stxr x4, x3, [x1]
    ldr x5, [x1]
    hlt #0
""")
        assert harness.reg(4) == 0      # success
        assert harness.reg(5) == 6

    def test_stxr_without_reservation_fails(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    movz x3, #9
    stxr x4, x3, [x1]
    ldr x5, [x1]
    hlt #0
""")
        assert harness.reg(4) == 1      # failure
        assert harness.reg(5) == 0

    @staticmethod
    def _second_core(first, core_id=1):
        """Another core sharing the first harness's memory and monitor."""
        from repro.arch.registers import CpuState
        from repro.iss.interpreter import Interpreter

        state = CpuState(core_id)
        state.pc = first.image.entry
        return state, Interpreter(state, first.memory, first.interp.monitor)

    def test_other_core_store_breaks_reservation(self, guest):
        source = """
_start:
    mrs x0, MPIDR_EL1
    cbnz x0, core1
    // core 0: take a reservation, then halt (pretend it got preempted)
    movz x1, #0x2000
    ldxr x3, [x1]
    hlt #0
core1:
    movz x1, #0x2000
    movz x2, #42
    str x2, [x1]
    hlt #0
"""
        first = guest(source, core_id=0)
        assert first.run().reason is ExitReason.HALT
        assert first.interp.monitor.check(0, 0x2000)
        _state, second = self._second_core(first)
        assert second.run(100).reason is ExitReason.HALT
        # The store from core 1 broke core 0's reservation.
        assert not first.interp.monitor.check(0, 0x2000)

    def test_spinlock_between_two_cores(self, guest):
        source = """
.equ LOCK, 0x3000
_start:
    movz x9, #LOCK
acquire:
    ldxr x1, [x9]
    cbnz x1, acquire
    movz x2, #1
    stxr x3, x2, [x9]
    cbnz x3, acquire
    // critical section: increment counter at LOCK+8
    ldr x4, [x9, #8]
    add x4, x4, #1
    str x4, [x9, #8]
    // release
    movz x5, #0
    str x5, [x9]
    hlt #0
"""
        first = guest(source, core_id=0)
        _state, second = self._second_core(first)
        assert first.run().reason is ExitReason.HALT
        assert second.run(10_000).reason is ExitReason.HALT
        assert first.memory.read(0x3008, 8) == (2).to_bytes(8, "little")


class TestMmio:
    def test_write_then_read_roundtrip(self, guest):
        harness = guest(f"""
_start:
    movz x1, #0x9000, lsl #16
    movz x2, #0x77
    strw x2, [x1]
    ldrw x3, [x1]
    hlt #0
""")
        info = harness.run()
        assert info.reason is ExitReason.MMIO
        assert info.mmio.is_write and info.mmio.address == MMIO_BASE
        assert info.mmio.data == (0x77).to_bytes(4, "little")
        harness.interp.complete_mmio(None)
        info = harness.run()
        assert info.reason is ExitReason.MMIO and not info.mmio.is_write
        harness.interp.complete_mmio((0x99).to_bytes(4, "little"))
        info = harness.run()
        assert info.reason is ExitReason.HALT
        assert harness.reg(3) == 0x99

    def test_run_during_pending_mmio_rejected(self, guest):
        harness = guest("""
_start:
    movz x1, #0x9000, lsl #16
    strw x1, [x1]
    hlt #0
""")
        assert harness.run().reason is ExitReason.MMIO
        with pytest.raises(RuntimeError):
            harness.run()

    def test_wrong_completion_size_rejected(self, guest):
        harness = guest("""
_start:
    movz x1, #0x9000, lsl #16
    ldrw x2, [x1]
    hlt #0
""")
        harness.run()
        with pytest.raises(ValueError):
            harness.interp.complete_mmio(b"\x00")   # needs 4 bytes

    def test_complete_without_pending_rejected(self, guest):
        harness = guest("_start:\n    hlt #0\n")
        with pytest.raises(RuntimeError):
            harness.interp.complete_mmio(None)

    def test_instret_counts_mmio_instruction_once(self, guest):
        harness = guest("""
_start:
    movz x1, #0x9000, lsl #16
    strw x1, [x1]
    hlt #0
""")
        harness.run()
        before = harness.state.instret
        harness.interp.complete_mmio(None)
        assert harness.state.instret == before + 1


class TestExceptionsAndSysregs:
    def test_svc_reaches_vector_and_eret_returns(self, guest):
        harness = run_to_halt(guest, """
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    svc #7
    movz x5, #1          // runs after eret
    hlt #0

.org VBAR               // sync exception vector (EL1)
    mrs x2, ESR_EL1
    mrs x3, ELR_EL1
    movz x4, #1
    eret
""")
        assert harness.reg(4) == 1
        assert harness.reg(5) == 1
        esr = harness.reg(2)
        assert (esr >> 26) == 0x15      # SVC class
        assert esr & 0xFFFF == 7

    def test_undefined_instruction_traps(self, guest):
        harness = run_to_halt(guest, """
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    udf
    hlt #1               // skipped: handler halts with 0

.org VBAR
    hlt #0
""")

    def test_el0_sysreg_access_traps(self, guest):
        harness = run_to_halt(guest, """
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    // drop to EL0 at el0_code
    adr x2, el0_code
    msr ELR_EL1, x2
    movz x3, #0          // SPSR: EL0, irqs enabled
    msr SPSR_EL1, x3
    eret
el0_code:
    mrs x4, TTBR0_EL1    // privileged: traps
    hlt #2

.org VBAR
    nop
.org VBAR + 0x100       // sync-from-EL0 vector
    hlt #0
""")

    def test_mrs_cntvct_reads_instruction_count(self, guest):
        harness = run_to_halt(guest, """
_start:
    nop
    nop
    mrs x1, CNTVCT_EL0
    hlt #0
""")
        assert harness.reg(1) == 2

    def test_daifset_daifclr(self, guest):
        harness = run_to_halt(guest, """
_start:
    msr daifclr, #2
    mrs x1, DAIF
    msr daifset, #2
    mrs x2, DAIF
    hlt #0
""")
        assert harness.reg(1) & (2 << 6) == 0
        assert harness.reg(2) & (2 << 6) != 0

    def test_fault_loop_is_error_exit(self, guest):
        # VBAR points at unmapped MMIO space: taking the exception refaults.
        harness = guest("""
_start:
    movz x1, #0x9000, lsl #16
    msr VBAR_EL1, x1
    udf
""")
        info = harness.run()
        assert info.reason is ExitReason.ERROR


class TestInterrupts:
    SOURCE = """
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    msr daifclr, #2      // unmask IRQs
    movz x2, #0
loop:
    add x2, x2, #1
    b loop

.org VBAR + 0x80        // IRQ vector (EL1)
    movz x3, #1
    hlt #0
"""

    def test_irq_taken_when_unmasked(self, guest):
        harness = guest(self.SOURCE)
        harness.run(10)
        harness.interp.set_irq(True)
        info = harness.run(100)
        assert info.reason is ExitReason.HALT
        assert harness.reg(3) == 1

    def test_irq_held_while_masked(self, guest):
        harness = guest("""
_start:
    movz x2, #0
loop:
    add x2, x2, #1
    b loop
""")
        harness.interp.set_irq(True)     # IRQs masked at reset
        info = harness.run(50)
        assert info.reason is ExitReason.BUDGET

    def test_wfi_with_pending_irq_falls_through(self, guest):
        harness = guest("""
_start:
    wfi
    movz x1, #1
    hlt #0
""")
        harness.interp.set_irq(True)     # masked IRQ: WFI still wakes
        info = harness.run(100)
        assert info.reason is ExitReason.HALT
        assert harness.reg(1) == 1

    def test_wfi_exits_when_idle(self, guest):
        harness = guest("""
_start:
    wfi
    movz x1, #1
    hlt #0
""")
        info = harness.run(100)
        assert info.reason is ExitReason.WFI
        # Wake up: execution continues after the WFI.
        info = harness.run(100)
        assert info.reason is ExitReason.HALT


class TestBreakpoints:
    def test_breakpoint_hits_before_execution(self, guest):
        harness = guest("""
_start:
    movz x1, #1
target:
    movz x2, #2
    hlt #0
""")
        target = harness.image.find_symbol("target")
        harness.interp.set_breakpoint(target)
        info = harness.run(100)
        assert info.reason is ExitReason.BREAKPOINT
        assert info.pc == target
        assert harness.reg(2) == 0
        # Resume: skips the breakpoint once, executes, halts.
        info = harness.run(100)
        assert info.reason is ExitReason.HALT
        assert harness.reg(2) == 2

    def test_breakpoint_in_loop_rehits(self, guest):
        harness = guest("""
_start:
    movz x1, #0
loop:
    add x1, x1, #1
    cmp x1, #3
    b.ne loop
    hlt #0
""")
        loop = harness.image.find_symbol("loop")
        harness.interp.set_breakpoint(loop)
        hits = 0
        while True:
            info = harness.run(100)
            if info.reason is ExitReason.HALT:
                break
            assert info.reason is ExitReason.BREAKPOINT
            hits += 1
        assert hits == 3

    def test_clear_breakpoint(self, guest):
        harness = guest("""
_start:
target:
    hlt #0
""")
        target = harness.image.find_symbol("target")
        harness.interp.set_breakpoint(target)
        harness.interp.clear_breakpoint(target)
        assert harness.run(10).reason is ExitReason.HALT


class TestBudgetAndStats:
    def test_budget_exit(self, guest):
        harness = guest("""
_start:
loop:
    b loop
""")
        info = harness.run(10)
        assert info.reason is ExitReason.BUDGET
        assert info.instructions == 10

    def test_block_statistics(self, guest):
        harness = guest("""
_start:
    movz x1, #3
loop:
    sub x1, x1, #1
    cbnz x1, loop
    hlt #0
""")
        harness.run()
        stats = harness.interp.sample_stats()
        # Static blocks: entry block + loop body (+ the halt slot).
        assert stats.blocks_translated <= 3
        assert stats.blocks_entered >= 4    # loop entered three times

    def test_memory_op_counting(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    str x1, [x1]
    ldr x2, [x1]
    hlt #0
""")
        assert harness.interp.sample_stats().memory_ops == 2

    def test_halted_cpu_stays_halted(self, guest):
        harness = run_to_halt(guest, "_start:\n    hlt #5\n")
        info = harness.run(10)
        assert info.reason is ExitReason.HALT
        assert info.instructions == 0


# -- guards the fast path keeps ------------------------------------------------------

PATCH_LOOP = """
.equ SIMCTL_HI, 0x090F
_start:
    movz x6, #0
again:
patch:
    movz x5, #1              // rewritten after its first execution
    add x6, x6, #1
check:
    cmp x6, #2
    b.ne rewrite
    movz x9, #0x4000
    str x5, [x9]
    movz x3, #SIMCTL_HI, lsl #16
    str x3, [x3]
    hlt #0
rewrite:
    adr x1, patch
    adr x2, replacement
    ldrw x3, [x2]
    strw x3, [x1]            // guest-side self-modifying code
    b again
replacement:
    movz x5, #2
"""


class TestSelfModifyingCode:
    def test_guest_strw_over_executed_code(self, guest):
        harness = guest(PATCH_LOOP)
        info = harness.run()
        assert info.reason is ExitReason.MMIO        # the shutdown store
        assert harness.reg(5) == 2
        assert harness.reg(6) == 2

    def test_memory_map_write_over_executed_code(self, guest):
        from repro.arch.isa import Instruction, Op, encode
        harness = run_to_halt(guest, "_start:\n    movz x5, #1\n    hlt #0\n")
        assert harness.reg(5) == 1
        word = encode(Instruction(Op.MOVZ, rd=5, imm=2))
        harness.memory.write(harness.image.entry, word.to_bytes(4, "little"))
        harness.state.pc = harness.image.entry
        harness.state.halted = False
        assert harness.run().reason is ExitReason.HALT
        assert harness.reg(5) == 2

    @pytest.mark.parametrize("kind", ["aoa", "avp64"])
    def test_debugger_write_over_executed_code(self, kind):
        from repro.arch.assembler import assemble
        from repro.arch.isa import Instruction, Op, encode
        from repro.debug import Debugger
        from repro.systemc.time import SimTime
        from repro.vp import GuestSoftware, VpConfig, build_platform
        image = assemble(PATCH_LOOP.replace("b.ne rewrite", "b.ne again"),
                         base_address=0x1000)
        software = GuestSoftware(image=image, mode="interpreter")
        vp = build_platform(kind, VpConfig(num_cores=1, quantum=SimTime.us(100)),
                            software)
        debugger = Debugger(vp)
        check = debugger.add_breakpoint("check")
        assert debugger.continue_(SimTime.ms(10)).pc == check   # patch ran once
        word = encode(Instruction(Op.MOVZ, rd=5, imm=2))
        debugger.write_memory(image.require_symbol("patch"), word.to_bytes(4, "little"))
        debugger.remove_breakpoint(check)
        debugger.continue_(SimTime.ms(50))
        assert int.from_bytes(vp.ram.data[0x4000:0x4008], "little") == 2


class TestMmuGate:
    TABLES = 0x2_0000
    ALIAS = 0x3_0000       # physical page holding the translated copy

    SOURCE = """
_start:
    movz x1, #0x0002, lsl #16    // page tables
    msr TTBR0_EL1, x1
    movz x2, #1
    msr SCTLR_EL1, x2            // MMU on: the next fetch translates
after_enable:
    movz x5, #1
    hlt #0
"""

    def _harness(self, guest, el0=False):
        from repro.arch.mmu import PAGE_SIZE, PageTableBuilder
        harness = guest(self.SOURCE)
        builder = PageTableBuilder(harness.ram, self.TABLES)
        # The code page translates to an alias whose copy of after_enable
        # reads "movz x5, #2", so only a translated fetch can see it.
        page = harness.image.entry & ~(PAGE_SIZE - 1)
        builder.map_page(page, self.ALIAS, el0=el0)
        harness.ram[self.ALIAS:self.ALIAS + PAGE_SIZE] = harness.ram[page:page + PAGE_SIZE]
        return harness, builder

    def test_msr_sctlr_mid_run_makes_the_next_fetch_translate(self, guest):
        from repro.arch.isa import Instruction, Op, encode
        harness, _ = self._harness(guest)
        offset = harness.image.require_symbol("after_enable") & 0xFFF
        word = encode(Instruction(Op.MOVZ, rd=5, imm=2))
        harness.ram[self.ALIAS + offset:self.ALIAS + offset + 4] = word.to_bytes(4, "little")
        assert harness.run().reason is ExitReason.HALT
        assert harness.reg(5) == 2
        assert harness.interp.mmu.walks == 1
        assert harness.interp.sample_stats().tlb_misses == 1

    def test_el0_fetch_from_an_el1_page_faults(self, guest):
        from repro.arch.exceptions import ExceptionClass
        from repro.arch.isa import Instruction, Op, encode
        harness, builder = self._harness(guest)          # code page: EL1 only
        builder.map_page(0x4000, 0x4000)
        harness.state.write_sysreg(SysReg.TTBR0_EL1, self.TABLES)
        harness.state.write_sysreg(SysReg.SCTLR_EL1, 1)
        harness.state.write_sysreg(SysReg.VBAR_EL1, 0x4000)
        hlt = encode(Instruction(Op.HLT)).to_bytes(4, "little")
        harness.ram[0x4100:0x4104] = hlt                 # sync-from-EL0 vector
        harness.state.el = 0
        harness.state.pc = harness.image.entry
        assert harness.run().reason is ExitReason.HALT
        esr = harness.state.read_sysreg(SysReg.ESR_EL1)
        assert esr >> 26 == ExceptionClass.INSTRUCTION_ABORT
        assert esr & 0xFFFF == 0xF                   # permission fault
        assert harness.state.read_sysreg(SysReg.ELR_EL1) == harness.image.entry


class TestDispatchTable:
    def test_every_decodable_op_has_a_handler(self):
        from repro.arch.isa import Op, decode
        from repro.iss.interpreter import _HANDLERS
        for op in Op:
            assert decode(int(op) << 26).op in _HANDLERS, op
        assert set(_HANDLERS) == set(Op)

    def test_emulate_one_and_run_share_the_handlers(self, guest, monkeypatch):
        from repro.arch.isa import Op
        from repro.iss import interpreter
        calls = []
        original = interpreter._HANDLERS[Op.ADDI]

        def counting(cpu, inst, pc):
            calls.append(pc)
            return original(cpu, inst, pc)

        monkeypatch.setitem(interpreter._HANDLERS, Op.ADDI, counting)
        harness = guest("""
_start:
    add x1, x1, #1
    add x1, x1, #1
    hlt #0
""")
        assert harness.interp.emulate_one().instructions == 1
        assert harness.run().reason is ExitReason.HALT
        assert calls == [0, 4]
        assert harness.reg(1) == 2
