"""VCML layer: registers, peripherals, memory, router, processor shell."""

import pytest

from repro.systemc.kernel import Kernel
from repro.systemc.clock import Clock
from repro.systemc.time import SimTime
from repro.tlm.payload import GenericPayload, ResponseStatus
from repro.tlm.quantum import GlobalQuantum
from repro.tlm.sockets import InitiatorSocket
from repro.vcml.memory import Memory
from repro.vcml.peripheral import Peripheral
from repro.vcml.processor import Processor, SimulateAction, SimulateResult
from repro.vcml.register import Access, Register, RegisterFile
from repro.vcml.router import Router


class TestRegister:
    def test_reset_value_and_mask(self):
        register = Register("r", 0, size=4, reset=0x1_FFFF_FFFF)
        assert register.value == 0xFFFFFFFF

    def test_read_write(self):
        register = Register("r", 0)
        register.write(0x12345678)
        assert register.read() == 0x12345678

    def test_read_only_write_raises(self):
        register = Register("r", 0, access=Access.READ)
        with pytest.raises(PermissionError):
            register.write(1)

    def test_write_only_read_raises(self):
        register = Register("r", 0, access=Access.WRITE)
        with pytest.raises(PermissionError):
            register.read()

    def test_callbacks(self):
        writes = []
        register = Register("r", 0, on_read=lambda: 0x55, on_write=writes.append)
        assert register.read() == 0x55
        register.write(7)
        assert writes == [7]

    def test_write_mask(self):
        register = Register("r", 0, reset=0xFF00, write_mask=0x00FF)
        register.write(0x1234)
        assert register.peek() == 0xFF34

    def test_poke_peek_bypass_callbacks(self):
        register = Register("r", 0, on_read=lambda: 0xAA,
                            on_write=lambda v: (_ for _ in ()).throw(AssertionError))
        register.poke(0x77)
        assert register.peek() == 0x77

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Register("r", 0, size=3)


class TestRegisterFile:
    def build(self):
        regs = RegisterFile("test")
        regs.add(Register("a", 0x0, size=4, reset=0x11111111))
        regs.add(Register("b", 0x4, size=4, reset=0x22222222))
        regs.add(Register("c", 0x10, size=8, reset=0x3333333344444444))
        return regs

    def test_overlap_rejected(self):
        regs = self.build()
        with pytest.raises(ValueError):
            regs.add(Register("x", 0x2, size=4))

    def test_find(self):
        regs = self.build()
        assert regs.find(0x5).name == "b"
        assert regs.find(0x8) is None

    def test_read_across_registers(self):
        regs = self.build()
        data = regs.read_bytes(0x0, 8)
        assert data == bytes.fromhex("11111111") [::-1] + bytes.fromhex("22222222")[::-1]

    def test_partial_write_rmw(self):
        regs = self.build()
        assert regs.write_bytes(0x1, b"\xAB")
        assert regs["a"].peek() == 0x1111AB11

    def test_unmapped_access_returns_none(self):
        regs = self.build()
        assert regs.read_bytes(0x8, 4) is None
        assert not regs.write_bytes(0x8, b"\x00")

    def test_reset_all(self):
        regs = self.build()
        regs["a"].write(0)
        regs.reset()
        assert regs["a"].peek() == 0x11111111

    def test_len_and_iter(self):
        regs = self.build()
        assert len(regs) == 3
        assert [r.name for r in regs] == ["a", "b", "c"]


class TestPeripheral:
    def make(self):
        Kernel()
        peripheral = Peripheral("dev")
        peripheral.add_register("ctrl", 0x0, reset=0xC0)
        peripheral.add_register("status", 0x4, access=Access.READ, reset=0x5)
        initiator = InitiatorSocket("cpu")
        initiator.bind(peripheral.in_socket)
        return peripheral, initiator

    def test_register_read_write_via_tlm(self):
        peripheral, initiator = self.make()
        assert initiator.read_u32(0x0) == 0xC0
        initiator.write_u32(0x0, 0x11)
        assert peripheral.regs["ctrl"].peek() == 0x11
        assert peripheral.num_reads == 1 and peripheral.num_writes == 1

    def test_unmapped_offset_is_address_error(self):
        _, initiator = self.make()
        payload = GenericPayload.read(0x100, 4)
        initiator.b_transport(payload, SimTime.zero())
        assert payload.response_status is ResponseStatus.ADDRESS_ERROR

    def test_write_to_read_only_fails(self):
        _, initiator = self.make()
        payload = GenericPayload.write(0x4, b"\x00\x00\x00\x00")
        initiator.b_transport(payload, SimTime.zero())
        assert payload.response_status is ResponseStatus.ADDRESS_ERROR

    def test_latency_annotation(self):
        _, initiator = self.make()
        payload = GenericPayload.read(0x0, 4)
        delay = initiator.b_transport(payload, SimTime.ns(5))
        assert delay > SimTime.ns(5)

    def test_debug_access_has_no_side_effects(self):
        peripheral, initiator = self.make()
        payload = GenericPayload.read(0x0, 4)
        assert initiator.transport_dbg(payload) == 4
        assert peripheral.num_reads == 0


class TestMemory:
    def make(self, size=0x1000, **kwargs):
        Kernel()
        memory = Memory("ram", size, **kwargs)
        initiator = InitiatorSocket("cpu")
        initiator.bind(memory.in_socket)
        return memory, initiator

    def test_load_and_read(self):
        memory, initiator = self.make()
        memory.load(0x10, b"hello")
        assert initiator.read(0x10, 5) == b"hello"

    def test_write_and_peek(self):
        memory, initiator = self.make()
        initiator.write(0x20, b"\x01\x02")
        assert memory.peek(0x20, 2) == b"\x01\x02"

    def test_out_of_range_is_address_error(self):
        _, initiator = self.make()
        payload = GenericPayload.read(0xFFE, 4)
        initiator.b_transport(payload, SimTime.zero())
        assert payload.response_status is ResponseStatus.ADDRESS_ERROR

    def test_read_only_memory_rejects_writes(self):
        memory, initiator = self.make(read_only=True)
        payload = GenericPayload.write(0, b"\x00")
        initiator.b_transport(payload, SimTime.zero())
        assert payload.response_status is ResponseStatus.COMMAND_ERROR

    def test_byte_enables_apply(self):
        memory, initiator = self.make()
        memory.load(0, b"\xFF\xFF\xFF\xFF")
        payload = GenericPayload.write(0, b"\x11\x22\x33\x44")
        payload.byte_enable = b"\x00\xff"
        initiator.b_transport(payload, SimTime.zero())
        assert memory.peek(0, 4) == b"\xFF\x22\xFF\x44"

    def test_dmi_grant_and_write_through(self):
        memory, initiator = self.make()
        region = initiator.get_direct_mem_ptr(GenericPayload.read(0, 4))
        region.view(0x30, 2)[:] = b"\xAB\xCD"
        assert memory.peek(0x30, 2) == b"\xAB\xCD"

    def test_dmi_invalidation_callback(self):
        memory, initiator = self.make()
        calls = []
        initiator.register_invalidation(lambda lo, hi: calls.append((lo, hi)))
        memory.invalidate_dmi()
        assert calls == [(0, memory.size - 1)]

    def test_load_out_of_range(self):
        memory, _ = self.make()
        with pytest.raises(ValueError):
            memory.load(0xFFF, b"too long")

    def test_invalid_size(self):
        Kernel()
        with pytest.raises(ValueError):
            Memory("ram", 0)

    def test_debug_write(self):
        memory, initiator = self.make()
        payload = GenericPayload.write(0x40, b"\x99")
        assert initiator.transport_dbg(payload) == 1
        assert memory.peek(0x40, 1) == b"\x99"
        assert memory.num_writes == 0

    def test_untouched_memory_reads_zero(self):
        memory, initiator = self.make(size=0x10000)
        assert memory.peek(0x8000, 16) == bytes(16)
        payload = GenericPayload.read(0xFFF0, 16)
        initiator.b_transport(payload, SimTime.zero())
        assert payload.response_status is ResponseStatus.OK
        assert bytes(payload.data) == bytes(16)
        region = initiator.get_direct_mem_ptr(GenericPayload.read(0, 4))
        assert bytes(region.view(0x4000, 32)) == bytes(32)

    def test_writes_give_the_bytes_a_plain_buffer_gives(self):
        memory, initiator = self.make()
        expected = bytearray(b"\xAA" * memory.size)
        memory.fill(0xAA)
        assert memory.peek(0, memory.size) == bytes(expected)
        payload = GenericPayload.write(0x100, b"\x11\x22\x33\x44")
        payload.byte_enable = b"\xff\x00"
        initiator.b_transport(payload, SimTime.zero())
        expected[0x100] = 0x11
        expected[0x102] = 0x33
        assert initiator.transport_dbg(GenericPayload.write(0xFFC, b"tail")) == 4
        expected[0xFFC:0x1000] = b"tail"
        assert memory.peek(0, memory.size) == bytes(expected)
        memory.fill()
        assert memory.peek(0, memory.size) == bytes(memory.size)

    def test_dmi_view_aliases_data(self):
        memory, initiator = self.make()
        region = initiator.get_direct_mem_ptr(GenericPayload.read(0, 4))
        assert region.memory.obj is memory.data
        memory.data[0x50:0x52] = b"\x12\x34"
        assert bytes(region.view(0x50, 2)) == b"\x12\x34"
        region.view(0x60, 1)[:] = b"\x56"
        assert memory.data[0x60] == 0x56


class TestRouter:
    def build(self):
        Kernel()
        router = Router("bus")
        ram_a = Memory("a", 0x100)
        ram_b = Memory("b", 0x100)
        router.map(0x1000, 0x10FF, ram_a.in_socket, name="a")
        router.map(0x2000, 0x20FF, ram_b.in_socket, local_base=0, name="b")
        initiator = InitiatorSocket("cpu")
        initiator.bind(router.in_socket)
        return router, ram_a, ram_b, initiator

    def test_routing_rebases_addresses(self):
        _, ram_a, ram_b, initiator = self.build()
        initiator.write(0x1010, b"\x0A")
        initiator.write(0x2020, b"\x0B")
        assert ram_a.peek(0x10, 1) == b"\x0A"
        assert ram_b.peek(0x20, 1) == b"\x0B"

    def test_unmapped_address(self):
        _, _, _, initiator = self.build()
        payload = GenericPayload.read(0x3000, 4)
        initiator.b_transport(payload, SimTime.zero())
        assert payload.response_status is ResponseStatus.ADDRESS_ERROR

    def test_overlapping_map_rejected(self):
        router, *_ = self.build()
        extra = Memory("c", 0x100)
        with pytest.raises(ValueError):
            router.map(0x10F0, 0x11FF, extra.in_socket)

    def test_backwards_range_rejected(self):
        router, *_ = self.build()
        extra = Memory("c", 0x100)
        with pytest.raises(ValueError, match="inverted"):
            router.map(0x5000, 0x4000, extra.in_socket)

    def test_negative_range_rejected(self):
        router, *_ = self.build()
        extra = Memory("c", 0x100)
        with pytest.raises(ValueError, match="negative"):
            router.map(-0x100, 0xFF, extra.in_socket)

    def test_address_range_validate(self):
        from repro.vcml.router import AddressRange
        assert AddressRange(0, 0xFF).validate() == AddressRange(0, 0xFF)
        with pytest.raises(ValueError, match="inverted"):
            AddressRange(0x10, 0x0F).validate()
        with pytest.raises(ValueError, match="negative"):
            AddressRange(-1, 0x0F).validate()

    def test_payload_address_restored_after_transport(self):
        _, _, _, initiator = self.build()
        payload = GenericPayload.read(0x1010, 4)
        initiator.b_transport(payload, SimTime.zero())
        assert payload.address == 0x1010

    def test_dmi_rebased_to_global_addresses(self):
        _, ram_a, _, initiator = self.build()
        region = initiator.get_direct_mem_ptr(GenericPayload.read(0x1000, 4))
        assert region.start == 0x1000 and region.end == 0x10FF
        region.view(0x1004, 1)[:] = b"\x7E"
        assert ram_a.peek(0x4, 1) == b"\x7E"

    def test_debug_forwarding(self):
        _, ram_a, _, initiator = self.build()
        ram_a.load(0, b"\x42")
        payload = GenericPayload.read(0x1000, 1)
        assert initiator.transport_dbg(payload) == 1
        assert payload.data_as_int() == 0x42

    def test_find_mapping(self):
        router, *_ = self.build()
        assert router.find_mapping(0x1080).name == "a"
        assert router.find_mapping(0x3000) is None


class _StubCpu(Processor):
    """Scripted backend: pops (cycles, action) results."""

    def __init__(self, script, **kwargs):
        quantum = kwargs.pop("quantum", GlobalQuantum(SimTime.us(1)))
        super().__init__("cpu", quantum, **kwargs)
        self.script = list(script)
        self.calls = []

    def simulate(self, cycles):
        self.calls.append(cycles)
        if not self.script:
            return SimulateResult(cycles, SimulateAction.HALT)
        consumed, action = self.script.pop(0)
        return SimulateResult(min(consumed, cycles) or cycles, action)


class TestProcessorShell:
    def _run(self, script, duration_us=100):
        kernel = Kernel()
        cpu = _StubCpu(script)
        cpu.bind_clock(Clock("clk", 1e9, kernel))
        cpu.start_of_simulation()
        kernel.run(SimTime.us(duration_us))
        return kernel, cpu

    def test_halt_ends_thread(self):
        kernel, cpu = self._run([(1000, SimulateAction.HALT)])
        assert cpu.halted
        assert cpu.total_cycles == 1000

    def test_quantum_budget_passed_to_simulate(self):
        _, cpu = self._run([(1000, SimulateAction.CONTINUE),
                            (1000, SimulateAction.HALT)])
        # 1 us quantum at 1 GHz = 1000-cycle budgets
        assert cpu.calls[0] == 1000

    def test_partial_consumption_continues_within_quantum(self):
        _, cpu = self._run([(300, SimulateAction.CONTINUE),
                            (300, SimulateAction.CONTINUE),
                            (400, SimulateAction.HALT)])
        assert cpu.calls == [1000, 700, 400]

    def test_wait_irq_suspends_until_interrupt(self):
        kernel = Kernel()
        cpu = _StubCpu([(100, SimulateAction.WAIT_IRQ),
                        (100, SimulateAction.HALT)])
        cpu.bind_clock(Clock("clk", 1e9, kernel))
        cpu.start_of_simulation()
        line = cpu.irq_in(0)

        def driver():
            yield SimTime.us(50)
            line.raise_irq()

        kernel.spawn(driver)
        kernel.run(SimTime.us(100))
        assert cpu.halted
        # The second simulate call happened only after the interrupt.
        assert kernel.now >= SimTime.us(50)

    def test_wait_irq_with_pending_interrupt_does_not_sleep(self):
        kernel = Kernel()
        cpu = _StubCpu([(100, SimulateAction.WAIT_IRQ),
                        (100, SimulateAction.HALT)])
        cpu.bind_clock(Clock("clk", 1e9, kernel))
        line = cpu.irq_in(0)
        line.raise_irq()
        cpu.start_of_simulation()
        kernel.run(SimTime.us(10))
        assert cpu.halted

    def test_halt_callback_invoked(self):
        kernel = Kernel()
        cpu = _StubCpu([(10, SimulateAction.HALT)])
        cpu.bind_clock(Clock("clk", 1e9, kernel))
        halted = []
        cpu.halt_callback = halted.append
        cpu.start_of_simulation()
        kernel.run(SimTime.us(10))
        assert halted == [cpu]

    def test_interrupt_hook_called_on_level_change(self):
        kernel = Kernel()
        cpu = _StubCpu([(10, SimulateAction.HALT)])
        seen = []
        cpu.on_interrupt = lambda number, level: seen.append((number, level))
        line = cpu.irq_in(5)
        line.raise_irq()
        line.lower_irq()
        assert seen == [(5, True), (5, False)]
        assert not cpu.irq_pending()
