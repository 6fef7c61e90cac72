"""Flight recorder: ring semantics, platform probes, determinism neutrality."""

import json

from repro.arch.assembler import assemble
from repro.analysis.determinism import trace_run
from repro.flight import enable_flight, read_jsonl, recording
from repro.flight.recorder import FlightRecorder
from repro.systemc.time import SimTime
from repro.vp import GuestSoftware, VpConfig, build_platform

GUEST = """
.equ UART_HI, 0x0904
.equ SIMCTL_HI, 0x090F

_start:
    movz x1, #UART_HI, lsl #16
    adr x2, message
print_loop:
    ldrb x3, [x2]
    cbz x3, finished
    strb x3, [x1]
    add x2, x2, #1
    b print_loop
finished:
    movz x4, #SIMCTL_HI, lsl #16
    str x4, [x4]
    hlt #0

message:
    .asciz "hi\\n"
"""


def make_vp(num_cores=1, quantum_us=100, kind="aoa"):
    image = assemble(GUEST, base_address=0x1000)
    software = GuestSoftware(image=image, mode="interpreter", name="flighttest")
    config = VpConfig(num_cores=num_cores, quantum=SimTime.us(quantum_us))
    return build_platform(kind, config, software)


class TestRing:
    def test_capacity_bounds_memory(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", t_ps=index)
        assert len(recorder) == 4
        assert recorder.num_recorded == 10
        assert recorder.num_dropped == 6
        # The ring keeps the most recent events.
        assert [event.t_ps for event in recorder] == [6, 7, 8, 9]

    def test_tail_and_of_kind(self):
        recorder = FlightRecorder(capacity=16)
        recorder.record("a", t_ps=0)
        recorder.record("b", t_ps=1)
        recorder.record("a", t_ps=2)
        assert [event.kind for event in recorder.tail(2)] == ["b", "a"]
        assert [event.t_ps for event in recorder.of_kind("a")] == [0, 2]
        assert recorder.counts() == {"a": 2, "b": 1}

    def test_bad_capacity_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_jsonl_roundtrip(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("kvm_exit", t_ps=1000, host_ns=42.5, core=1,
                        reason="mmio", pc=0x1000)
        recorder.record("console", t_ps=2000, text="hello")
        path = str(tmp_path / "journal.jsonl")
        assert recorder.write_jsonl(path) == 2
        records = read_jsonl(path)
        assert records[0]["kind"] == "kvm_exit"
        assert records[0]["core"] == 1
        assert records[0]["pc"] == 0x1000
        assert records[1] == {"kind": "console", "seq": 1, "t_ps": 2000,
                              "text": "hello"}

    def test_jsonl_last_n(self, tmp_path):
        recorder = FlightRecorder()
        for index in range(10):
            recorder.record("tick", t_ps=index)
        path = str(tmp_path / "tail.jsonl")
        assert recorder.write_jsonl(path, last=3) == 3
        assert [r["t_ps"] for r in read_jsonl(path)] == [7, 8, 9]


class TestPlatformProbes:
    def test_event_kinds_from_a_real_run(self):
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        vp.run(SimTime.ms(100))
        kinds = set(flight.recorder.counts())
        assert {"watchdog_arm", "kvm_exit", "mmio_req", "mmio_resp",
                "console", "simctl"} <= kinds
        flight.detach()

    def test_console_lines_reassembled(self):
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        vp.run(SimTime.ms(100))
        lines = [dict(e.data)["text"] for e in flight.recorder.of_kind("console")]
        assert lines == ["hi"]
        assert vp.console_output() == "hi\n"   # uart log is untouched
        flight.detach()

    def test_simctl_shutdown_event(self):
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        vp.run(SimTime.ms(100))
        simctl_events = [dict(e.data) for e in flight.recorder.of_kind("simctl")]
        assert {"what": "shutdown", "code": vp.simctl.exit_code} in simctl_events
        flight.detach()

    def test_events_carry_both_timestamps(self):
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        vp.run(SimTime.ms(100))
        exits = flight.recorder.of_kind("kvm_exit")
        assert exits
        assert all(event.host_ns is not None for event in exits)
        assert all(event.t_ps >= 0 for event in exits)
        flight.detach()

    def test_detach_restores_wrapped_callables(self):
        vp = make_vp()
        cpu = vp.cpus[0]
        originals = (cpu.simulate, cpu._handle_mmio, cpu.vcpu.run,
                     vp.watchdog.schedule, vp.uart.on_tx)
        flight = enable_flight(vp, bundles=False)
        assert cpu.simulate is not originals[0]
        flight.detach()
        assert (cpu.simulate, cpu._handle_mmio, cpu.vcpu.run,
                vp.watchdog.schedule, vp.uart.on_tx) == originals
        assert vp.watchdog.fire_listeners == []
        assert vp.flight is None

    def test_attach_twice_rejected(self):
        import pytest
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        with pytest.raises(ValueError):
            enable_flight(vp, bundles=False)
        flight.detach()

    def test_recording_scope_auto_attaches(self):
        with recording(bundles=False) as flight:
            vp = make_vp()
            assert vp.flight is flight
            vp.run(SimTime.ms(100))
        assert vp.flight is None
        assert len(flight.recorder) > 0

    def test_avp64_mmio_recorded_with_the_iss_host_clock(self):
        # The ISS core has no vcpu thread clock; its MMIO events carry the
        # host time its DBT cost model has charged so far.
        with recording(bundles=False) as flight:
            vp = make_vp(kind="avp64")
            vp.run(SimTime.ms(100))
        assert vp.console_output() == "hi\n"
        requests = flight.recorder.of_kind("mmio_req")
        responses = flight.recorder.of_kind("mmio_resp")
        assert len(requests) == len(responses) == vp.cpus[0].num_mmio > 0
        clock = [event.host_ns for event in requests]
        assert clock == sorted(clock)
        assert clock[-1] <= vp.cpus[0].cost_model.total_ns

    def test_journal_ring_stats_published_to_platform_telemetry(self):
        from repro.telemetry import Telemetry
        vp = make_vp()
        telemetry = Telemetry().attach(vp)
        flight = enable_flight(vp, capacity=4, bundles=False,
                               profile_interval=None)
        for index in range(10):
            flight.recorder.record("tick", t_ps=index)
        flight.detach()
        registry = telemetry.registry
        assert registry.counter("flight.journal.recorded").value == 10
        assert registry.counter("flight.journal.dropped").value == 6
        assert registry.gauge("flight.journal.capacity").value == 4
        telemetry.detach()

    def test_journal_ring_stats_fall_back_to_active_scope(self):
        from repro.telemetry import collecting
        with collecting() as telemetry:
            flight = enable_flight(make_vp(), capacity=8, bundles=False,
                                   profile_interval=None)
            flight.recorder.record("tick", t_ps=0)
            flight.detach()
        registry = telemetry.registry
        assert registry.counter("flight.journal.recorded").value == 1
        assert registry.counter("flight.journal.dropped").value == 0
        assert registry.gauge("flight.journal.capacity").value == 8

    def test_publish_metrics_records_deltas(self):
        from repro.telemetry.metrics import MetricsRegistry
        from repro.flight.attach import Flight
        registry = MetricsRegistry()
        flight = Flight(capacity=4, bundles=False, profile_interval=None)
        vp = make_vp()
        vp.telemetry = type("T", (), {"registry": registry})()
        flight.attach(vp)
        flight.recorder.record("tick", t_ps=0)
        flight.publish_metrics()
        flight.recorder.record("tick", t_ps=1)
        flight.detach()
        # two publishes must not double-count the first event
        assert registry.counter("flight.journal.recorded").value == 2

    def test_journal_is_valid_jsonl(self, tmp_path):
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        vp.run(SimTime.ms(100))
        path = str(tmp_path / "run.jsonl")
        count = flight.write_journal(path)
        with open(path) as stream:
            parsed = [json.loads(line) for line in stream]
        assert len(parsed) == count == len(flight.recorder)
        flight.detach()


class TestDeterminism:
    def test_det001_digest_unchanged_by_flight(self):
        """The acceptance bar: byte-identical dispatch digests with the
        recorder + profiler on vs. off."""

        def plain():
            vp = make_vp(num_cores=2, quantum_us=20)
            vp.run(SimTime.ms(100))

        def observed():
            vp = make_vp(num_cores=2, quantum_us=20)
            flight = enable_flight(vp, bundles=False, profile_interval=100)
            vp.run(SimTime.ms(100))
            flight.detach()

        baseline = trace_run(plain)
        with_flight = trace_run(observed)
        assert len(baseline) > 0
        assert with_flight.digest() == baseline.digest()
