"""TLM layer: generic payload, sockets, DMI, quantum keeper."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime
from repro.tlm.dmi import DmiAccess, DmiManager, DmiRegion
from repro.tlm.payload import Command, GenericPayload, ResponseStatus, TlmError
from repro.tlm.quantum import GlobalQuantum, QuantumKeeper
from repro.tlm.sockets import InitiatorSocket, TargetSocket


class TestPayload:
    def test_read_constructor(self):
        payload = GenericPayload.read(0x100, 8)
        assert payload.is_read and not payload.is_write
        assert payload.length == 8
        assert payload.response_status is ResponseStatus.INCOMPLETE

    def test_write_constructor(self):
        payload = GenericPayload.write(0x200, b"\x01\x02")
        assert payload.is_write
        assert bytes(payload.data) == b"\x01\x02"

    def test_data_int_roundtrip(self):
        payload = GenericPayload.read(0, 4)
        payload.set_data_int(0xDEADBEEF)
        assert payload.data_as_int() == 0xDEADBEEF

    def test_set_ok_and_error(self):
        payload = GenericPayload.read(0, 4)
        payload.set_ok()
        assert payload.response_status.is_ok
        payload.set_error(ResponseStatus.ADDRESS_ERROR)
        assert payload.response_status.is_error

    def test_byte_enables(self):
        payload = GenericPayload.write(0, b"\xAA\xBB\xCC\xDD",)
        payload.byte_enable = b"\xff\x00"
        assert list(payload.enabled_bytes()) == [0, 2]

    def test_no_byte_enable_enables_all(self):
        payload = GenericPayload.write(0, b"\x01\x02\x03")
        assert list(payload.enabled_bytes()) == [0, 1, 2]

    def test_tlm_error_message(self):
        payload = GenericPayload.read(0xABCD, 4)
        payload.set_error()
        error = TlmError(payload)
        assert "0xabcd" in str(error)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 8))
    def test_data_int_roundtrip_property(self, value, size):
        payload = GenericPayload.read(0, size)
        payload.set_data_int(value & ((1 << (8 * size)) - 1), size)
        assert payload.data_as_int() == value & ((1 << (8 * size)) - 1)


class TestSockets:
    def _echo_target(self):
        store = {}

        def transport(payload, delay):
            if payload.is_write:
                store[payload.address] = bytes(payload.data)
            else:
                payload.data[:] = store.get(payload.address, bytes(payload.length))
            payload.set_ok()
            return delay + SimTime.ns(3)

        return TargetSocket("echo", transport), store

    def test_bind_and_transport(self):
        Kernel()
        target, store = self._echo_target()
        initiator = InitiatorSocket("cpu", initiator_id=3)
        initiator.bind(target)
        initiator.write_u32(0x10, 0x12345678)
        assert store[0x10] == (0x12345678).to_bytes(4, "little")
        assert initiator.read_u32(0x10) == 0x12345678

    def test_u64_helpers(self):
        Kernel()
        target, _store = self._echo_target()
        initiator = InitiatorSocket("cpu")
        initiator.bind(target)
        initiator.write_u64(0x20, 2**63 + 5)
        assert initiator.read_u64(0x20) == 2**63 + 5

    def test_double_bind_rejected(self):
        target, _ = self._echo_target()
        initiator = InitiatorSocket("cpu")
        initiator.bind(target)
        with pytest.raises(RuntimeError):
            initiator.bind(target)

    def test_unbound_socket_raises(self):
        initiator = InitiatorSocket("cpu")
        with pytest.raises(RuntimeError):
            initiator.read(0, 4)

    def test_failed_read_raises_tlm_error(self):
        def failing(payload, delay):
            payload.set_error(ResponseStatus.ADDRESS_ERROR)
            return delay

        initiator = InitiatorSocket("cpu")
        initiator.bind(TargetSocket("bad", failing))
        with pytest.raises(TlmError):
            initiator.read(0, 4)

    def test_default_debug_transport_reuses_b_transport(self):
        target, store = self._echo_target()
        store[0] = b"\x2a\x00\x00\x00"
        initiator = InitiatorSocket("dbg")
        initiator.bind(target)
        payload = GenericPayload.read(0, 4)
        assert initiator.transport_dbg(payload) == 4
        assert payload.data_as_int() == 0x2A

    def test_initiator_id_propagates(self):
        seen = {}

        def transport(payload, delay):
            seen["id"] = payload.initiator_id
            payload.set_ok()
            return delay

        initiator = InitiatorSocket("cpu", initiator_id=7)
        initiator.bind(TargetSocket("t", transport))
        initiator.write(0, b"\x00")
        assert seen["id"] == 7


class TestDmi:
    def test_region_view(self):
        backing = bytearray(range(16))
        region = DmiRegion(0x100, 0x10F, memoryview(backing))
        assert region.size == 16
        assert bytes(region.view(0x104, 4)) == bytes([4, 5, 6, 7])

    def test_region_bounds_checks(self):
        backing = bytearray(16)
        region = DmiRegion(0x100, 0x10F, memoryview(backing))
        with pytest.raises(ValueError):
            region.view(0x10E, 4)
        with pytest.raises(ValueError):
            DmiRegion(0x100, 0x10F, memoryview(bytearray(8)))
        with pytest.raises(ValueError):
            DmiRegion(0x10F, 0x100, memoryview(bytearray(0)))

    def test_access_flags(self):
        backing = memoryview(bytearray(4))
        read_only = DmiRegion(0, 3, backing, DmiAccess.READ)
        assert read_only.allows_read() and not read_only.allows_write()

    def test_manager_lookup_respects_access(self):
        manager = DmiManager()
        manager.add(DmiRegion(0, 3, memoryview(bytearray(4)), DmiAccess.READ))
        assert manager.lookup(0, 4, write=False) is not None
        assert manager.lookup(0, 4, write=True) is None

    def test_manager_invalidation_callbacks(self):
        manager = DmiManager()
        manager.add(DmiRegion(0, 0xFF, memoryview(bytearray(256))))
        manager.add(DmiRegion(0x1000, 0x10FF, memoryview(bytearray(256))))
        calls = []
        manager.on_invalidate(lambda lo, hi: calls.append((lo, hi)))
        dropped = manager.invalidate(0x1000, 0x1FFF)
        assert dropped == 1
        assert len(manager) == 1
        assert calls == [(0x1000, 0x1FFF)]

    def test_invalidate_nothing_no_callback(self):
        manager = DmiManager()
        calls = []
        manager.on_invalidate(lambda lo, hi: calls.append(1))
        assert manager.invalidate(0, 10) == 0
        assert calls == []


class TestQuantumKeeper:
    def test_defaults(self):
        Kernel()
        quantum = GlobalQuantum()
        assert quantum.quantum == SimTime.us(1)

    def test_quantum_must_be_nonzero(self):
        quantum = GlobalQuantum()
        with pytest.raises(ValueError):
            quantum.quantum = SimTime.zero()
        with pytest.raises(TypeError):
            quantum.quantum = 5

    def test_constructor_applies_the_setter_checks(self):
        # A zero quantum would spin the processor loop in zero-time syncs.
        with pytest.raises(ValueError):
            GlobalQuantum(SimTime.zero())
        with pytest.raises(TypeError):
            GlobalQuantum(1_000_000)

    def test_int_helpers_match_the_simtime_api(self):
        kernel = Kernel()
        keeper = QuantumKeeper(GlobalQuantum(SimTime.us(1)), kernel)
        keeper.inc_ps(400_000)
        assert keeper.remaining_ps() == keeper.remaining().picoseconds == 600_000
        assert keeper.current_time_ps() == keeper.current_time().picoseconds == 400_000
        keeper.inc_ps(700_000)
        assert keeper.remaining_ps() == 0
        assert keeper.sync_wait() == SimTime.ns(1100)
        assert keeper.local_time_offset == SimTime.zero()

    def test_inc_rejects_a_non_simtime(self):
        keeper = QuantumKeeper(GlobalQuantum(SimTime.us(1)), Kernel())
        with pytest.raises(TypeError):
            keeper.inc(400)

    def test_inc_and_need_sync(self):
        kernel = Kernel()
        keeper = QuantumKeeper(GlobalQuantum(SimTime.us(1)), kernel)
        keeper.inc(SimTime.ns(400))
        assert not keeper.need_sync()
        assert keeper.remaining() == SimTime.ns(600)
        keeper.inc(SimTime.ns(700))
        assert keeper.need_sync()
        assert keeper.remaining() == SimTime.zero()

    def test_sync_wait_realizes_offset(self):
        kernel = Kernel()
        keeper = QuantumKeeper(GlobalQuantum(SimTime.us(1)), kernel)
        log = []

        def body():
            keeper.inc(SimTime.ns(1500))
            yield keeper.sync_wait()
            log.append(kernel.now.to_ns())
            assert keeper.local_time_offset == SimTime.zero()

        kernel.spawn(body)
        kernel.run()
        assert log == [1500.0]

    def test_current_time_includes_offset(self):
        kernel = Kernel()
        keeper = QuantumKeeper(GlobalQuantum(SimTime.us(1)), kernel)
        keeper.inc(SimTime.ns(250))
        assert keeper.current_time() == SimTime.ns(250)

    @given(st.lists(st.integers(min_value=0, max_value=10**7), max_size=30))
    def test_offset_never_negative(self, increments):
        kernel = Kernel()
        keeper = QuantumKeeper(GlobalQuantum(SimTime.us(1)), kernel)
        for delta in increments:
            keeper.inc(SimTime(delta))
            assert keeper.remaining().picoseconds >= 0
            assert keeper.local_time_offset.picoseconds >= 0
