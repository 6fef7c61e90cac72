"""Simulated KVM: memory slots, KVM_RUN exit protocol, costs, kicks."""

import pytest

from repro.host.params import KvmCostParams
from repro.iss.executor import GuestMemoryMap
from repro.iss.phase import Compute, Halt, Mmio, PhaseContext, PhaseExecutor, Wfi
from repro.kvm.api import Kvm, KvmExitReason


def make_vcpu(program, costs=None, irq_protocol=None):
    kvm = Kvm(costs or KvmCostParams())
    vm = kvm.create_vm()
    vm.set_user_memory_region(0, 0, memoryview(bytearray(0x10000)))
    ctx = PhaseContext(core_id=0, memory=vm.memory, irq_protocol=irq_protocol)
    executor = PhaseExecutor(program, ctx)
    return vm.create_vcpu(0, executor), kvm


class TestKvmObjectModel:
    def test_capabilities(self):
        kvm = Kvm()
        assert kvm.check_extension("user_memory")
        assert kvm.check_extension("guest_debug_hw_bps")
        assert not kvm.check_extension("pmu_guest_instruction_events")

    def test_memory_slot_replacement(self):
        kvm = Kvm()
        vm = kvm.create_vm()
        vm.set_user_memory_region(0, 0x0000, memoryview(bytearray(0x1000)))
        assert vm.memory.find(0x0000) is not None    # now the cached slot
        replacement = memoryview(bytearray(0x1000))
        vm.set_user_memory_region(0, 0x8000, replacement)
        assert vm.memory.find(0x0000) is None
        assert vm.memory.lookup(0x0000) is None
        assert vm.memory.find(0x8000) is not None
        view, offset = vm.memory.lookup(0x8FFC, 4)
        assert view is replacement and offset == 0xFFC
        assert vm.memory.lookup(0x8FFD, 4) is None   # runs past the slot
        assert vm.memory.remove_slot(0x8000)
        assert vm.memory.lookup(0x8000) is None

    def test_overlapping_slots_rejected(self):
        kvm = Kvm()
        vm = kvm.create_vm()
        vm.set_user_memory_region(0, 0, memoryview(bytearray(0x1000)))
        with pytest.raises(ValueError):
            vm.set_user_memory_region(1, 0x800, memoryview(bytearray(0x1000)))

    def test_duplicate_vcpu_id_rejected(self):
        def program(ctx):
            yield Halt()

        vcpu, kvm = make_vcpu(program)
        with pytest.raises(ValueError):
            vcpu.vm.create_vcpu(0, vcpu.executor)


class TestRunExits:
    def test_budget_exhaustion_is_intr(self):
        def program(ctx):
            yield Compute(10**12, key="endless")

        vcpu, _ = make_vcpu(program)
        exit_info = vcpu.run(wall_budget_ns=100_000.0)   # 100 us
        assert exit_info.reason is KvmExitReason.INTR
        assert exit_info.wall_ns >= 100_000.0
        # 0.1 ns/inst: ~1M instructions minus entry overhead
        assert 900_000 < exit_info.instructions <= 1_000_000

    def test_mmio_exit_carries_request(self):
        def program(ctx):
            yield Mmio(0x0900_0000, 4, True, 0x55)
            yield Halt()

        vcpu, _ = make_vcpu(program)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.MMIO
        assert exit_info.mmio.address == 0x0900_0000
        vcpu.complete_mmio(None)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.SYSTEM_EVENT

    def test_wfi_blocks_until_budget(self):
        def program(ctx):
            yield Wfi()
            yield Halt()

        vcpu, _ = make_vcpu(program)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.INTR
        assert exit_info.blocked_in_wfi
        assert exit_info.wall_ns >= 1_000_000.0
        assert vcpu.num_wfi_blocks == 1

    def test_wfi_with_pending_irq_continues(self):
        def program(ctx):
            yield Wfi()
            yield Compute(100, key="after")
            yield Halt(4)

        vcpu, _ = make_vcpu(program)
        vcpu.set_irq_line(True)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.SYSTEM_EVENT
        assert exit_info.halt_code == 4
        assert not exit_info.blocked_in_wfi

    def test_debug_exit_on_breakpoint(self):
        def program(ctx):
            yield Wfi()
            yield Halt()

        vcpu, _ = make_vcpu(program)
        vcpu.set_guest_debug({0x1000})
        vcpu.executor.ctx.wfi_pc = 0x1000
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.DEBUG
        assert exit_info.pc == 0x1000
        assert vcpu.num_debug_exits == 1

    def test_set_guest_debug_replaces_breakpoints(self):
        def program(ctx):
            yield Halt()

        vcpu, _ = make_vcpu(program)
        vcpu.set_guest_debug({0x1000, 0x2000})
        vcpu.set_guest_debug({0x3000})
        assert vcpu.executor.breakpoints == {0x3000}

    def test_halt_is_system_event(self):
        def program(ctx):
            yield Compute(10, key="tiny")
            yield Halt(9)

        vcpu, _ = make_vcpu(program)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.SYSTEM_EVENT
        assert exit_info.halt_code == 9


class TestKickAndSignals:
    def test_immediate_exit_returns_before_guest_runs(self):
        def program(ctx):
            yield Compute(1000, key="k")
            yield Halt()

        vcpu, _ = make_vcpu(program)
        vcpu.kick()
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.INTR
        assert exit_info.instructions == 0
        assert not vcpu.immediate_exit      # consumed

    def test_kick_does_not_persist_after_intr(self):
        def program(ctx):
            yield Compute(1000, key="k")
            yield Halt(1)

        vcpu, _ = make_vcpu(program)
        vcpu.kick()
        vcpu.run(1_000_000.0)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.SYSTEM_EVENT


class TestCostModel:
    def test_entry_cost_always_charged(self):
        def program(ctx):
            yield Halt()

        costs = KvmCostParams(entry_exit_ns=5000.0)
        vcpu, _ = make_vcpu(program, costs)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.wall_ns >= 5000.0

    def test_speed_factor_scales_throughput(self):
        def program(ctx):
            yield Compute(10**12, key="endless")

        vcpu_fast, _ = make_vcpu(program)

        def program2(ctx):
            yield Compute(10**12, key="endless")

        vcpu_slow, _ = make_vcpu(program2)
        fast = vcpu_fast.run(1_000_000.0, speed_factor=1.0)
        slow = vcpu_slow.run(1_000_000.0, speed_factor=0.5)
        assert slow.instructions < fast.instructions
        assert abs(slow.instructions * 2 - fast.instructions) < fast.instructions * 0.1

    def test_mmio_exit_cheaper_than_full_quantum(self):
        def program(ctx):
            yield Mmio(0x0900_0000)

        vcpu, _ = make_vcpu(program)
        exit_info = vcpu.run(10_000_000.0)
        assert exit_info.wall_ns < 10_000_000.0

    def test_stats_accumulate(self):
        def program(ctx):
            yield Compute(500, key="k")
            yield Halt()

        vcpu, _ = make_vcpu(program)
        vcpu.run(1_000_000.0)
        assert vcpu.total_instructions >= 500
        assert vcpu.num_runs == 1
        assert vcpu.stats().instructions >= 500
