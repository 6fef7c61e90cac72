"""The DBT-ISS-based CPU model (the AVP64 baseline).

AVP64 wraps a QEMU-derived dynamic-binary-translation ISS in the same VCML
``processor`` shell the KVM model uses.  Functionally it executes exactly
the same guest code through the same executor interface; the differences
are all in *how* and *at what host cost*:

* ``simulate(cycles)`` executes exactly ``cycles`` instructions (the ISS is
  instruction-accurate: one instruction per cycle) instead of being
  wall-clock-budgeted by a watchdog;
* host time is billed by the :class:`DbtCostModel` — per-instruction
  dispatch, per-new-block translation, software-MMU costs;
* WFI is handled *in process*: the ISS observes the instruction directly
  and the model suspends itself (``WAIT_IRQ``) at negligible cost — no EL2
  trap, no kernel round trip.  This is why the paper's Linux-boot speedup
  shrinks with core count (Fig. 7): idle handling is nearly free here and
  expensive for AoA.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..host.params import DEFAULT_SIM_COSTS, IssCostParams, SimulationCostParams
from ..iss.dbt import DbtCostModel
from ..iss.executor import ExitReason
from ..systemc.module import Module
from ..tlm.quantum import GlobalQuantum
from ..vcml.processor import Processor, SimulateAction, SimulateResult


class IssCpu(Processor):
    """One DBT-ISS core of the AVP64-like reference platform."""

    def __init__(
        self,
        name: str,
        global_quantum: GlobalQuantum,
        executor,
        core_id: int = 0,
        parent: Optional[Module] = None,
        parallel: bool = False,
        costs: Optional[IssCostParams] = None,
        sim_costs: Optional[SimulationCostParams] = None,
    ):
        super().__init__(name, global_quantum, core_id, parent, parallel)
        self.executor = executor
        self.cost_model = DbtCostModel(costs)
        self.sim_costs = sim_costs or DEFAULT_SIM_COSTS
        self.on_breakpoint: Optional[Callable[[int], None]] = None
        self.num_mmio = 0
        self.num_wfi = 0
        self.num_bus_errors = 0
        self.instructions_retired = 0
        self.num_user_breakpoints = 0
        self.debug_break_enabled = False

    @property
    def host_now_ns(self) -> float:
        """This core's modeled host clock.  The ISS runs on the simulation
        thread rather than a vcpu thread of its own, so its clock is the
        host time the DBT cost model has charged it so far."""
        return self.cost_model.total_ns

    def on_interrupt(self, number: int, level: bool) -> None:
        self.executor.set_irq(level)

    # -- snapshot support -----------------------------------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["iss"] = {
            "num_mmio": self.num_mmio,
            "num_wfi": self.num_wfi,
            "num_bus_errors": self.num_bus_errors,
            "instructions_retired": self.instructions_retired,
            "num_user_breakpoints": self.num_user_breakpoints,
            "debug_break_enabled": self.debug_break_enabled,
            "executor": self.executor.snapshot_state(),
            # The cost model samples *deltas* against its last RunStats;
            # dropping it would re-bill the entire pre-snapshot history on
            # the first post-resume charge.
            "cost_model": {
                "last": list(self.cost_model._last),
                "total_ns": self.cost_model.total_ns,
                "translation_ns": self.cost_model.translation_ns,
                "dispatch_ns": self.cost_model.dispatch_ns,
                "mmu_ns": self.cost_model.mmu_ns,
            },
        }
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        iss = state["iss"]
        self.num_mmio = iss["num_mmio"]
        self.num_wfi = iss["num_wfi"]
        self.num_bus_errors = iss["num_bus_errors"]
        self.instructions_retired = iss["instructions_retired"]
        self.num_user_breakpoints = iss["num_user_breakpoints"]
        self.debug_break_enabled = bool(iss["debug_break_enabled"])
        self.executor.restore_state(iss["executor"])
        from ..iss.executor import RunStats
        cost = iss["cost_model"]
        self.cost_model._last = RunStats(*cost["last"])
        self.cost_model.total_ns = cost["total_ns"]
        self.cost_model.translation_ns = cost["translation_ns"]
        self.cost_model.dispatch_ns = cost["dispatch_ns"]
        self.cost_model.mmu_ns = cost["mmu_ns"]

    def simulate(self, cycles: int) -> SimulateResult:
        info = self.executor.run(cycles)
        self.instructions_retired += info.instructions
        consumed = max(1, info.instructions)
        if info.reason is ExitReason.MMIO:
            consumed += self._handle_mmio(info.mmio)
            self.instructions_retired += 1
            self._charge(mmio_exits=1)
            return SimulateResult(consumed, SimulateAction.CONTINUE)
        if info.reason is ExitReason.WFI:
            self.num_wfi += 1
            self._charge(wfi_exits=1)
            return SimulateResult(consumed, SimulateAction.WAIT_IRQ)
        if info.reason is ExitReason.BUDGET:
            self._charge()
            return SimulateResult(consumed, SimulateAction.CONTINUE)
        if info.reason is ExitReason.BREAKPOINT:
            self._charge()
            self.num_user_breakpoints += 1
            if self.on_breakpoint is not None:
                self.on_breakpoint(info.pc)
            if self.debug_break_enabled:
                return SimulateResult(consumed, SimulateAction.BREAK)
            return SimulateResult(consumed, SimulateAction.CONTINUE)
        if info.reason is ExitReason.HALT:
            self._charge()
            return SimulateResult(consumed, SimulateAction.HALT)
        raise RuntimeError(f"{self.name}: ISS error at pc=0x{info.pc:x}: {info.message}")

    def _handle_mmio(self, request) -> int:
        """Device access: an in-process fabric access, no world switch."""
        self.num_mmio += 1
        if request.is_write:
            result = self.mem.write(request.address, request.data)
        else:
            result = self.mem.read(request.address, request.size)
        self.bill_host_time(self.sim_costs.peripheral_access_ns, "mmio", main_thread=True)
        if self.parallel:
            self.bill_host_time(self.sim_costs.parallel_mmio_shift_ns, "mmio", main_thread=True)
            self.bill_host_time(self.sim_costs.parallel_mmio_shift_ns, "mmio")
        if result.ok:
            data = result.data if not request.is_write else None
        else:
            self.num_bus_errors += 1
            data = bytes(request.size) if not request.is_write else None
        self.executor.complete_mmio(data)
        return self.time_to_cycles(result.delay)

    def _charge(self, mmio_exits: int = 0, wfi_exits: int = 0) -> None:
        nanoseconds = self.cost_model.charge(self.executor.sample_stats(),
                                             mmio_exits=mmio_exits, wfi_exits=wfi_exits)
        self.bill_host_time(nanoseconds, "iss")
