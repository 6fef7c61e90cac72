"""Opt-in runtime sanitizers for the TLM/VP layers.

Enter :func:`sanitized` *before constructing a platform* and every
instrumentable class is patched for the duration of the scope:

* **SAN001 — reentrant b_transport**: the same :class:`TargetSocket` is
  entered again while a transport through it is still in flight (a routing
  loop, or a target initiating traffic back into its own socket).
* **SAN002 — read of uninitialized memory**: a TLM read from a
  :class:`~repro.vcml.memory.Memory` touches bytes never written through
  ``load``/``fill``/TLM writes.  Once a memory grants DMI its whole window
  counts as initialized (DMI writes are invisible to the sanitizer, so the
  sound answer is "unknown", not "uninitialized").
* **SAN003 — DMI use-after-invalidate**: a :class:`DmiRegion` obtained from
  ``get_direct_mem_ptr`` (or kept in a :class:`DmiManager`) is accessed via
  ``view()`` after the granting target invalidated it.
* **SAN004 — quantum-budget violation**: a processor backend's
  ``simulate(cycles)`` reports more consumed cycles than the quantum it was
  granted — local time would silently run ahead of the budget the kernel
  accounted for.

The patches are class-level and restored on scope exit; instruments created
*outside* the scope keep their un-instrumented bound callbacks (sockets
capture their target's methods at construction), which is why the scope
must wrap platform construction, not just the run.

Findings accumulate in a :class:`FindingCollector` — sanitizers report,
they do not raise, so one run surfaces every violation.
"""

from __future__ import annotations

import contextlib
import mmap
from typing import Iterator, List, Optional, Tuple

from ..tlm.dmi import DmiManager, DmiRegion
from ..tlm.sockets import TargetSocket
from ..vcml.memory import Memory
from ..vcml.processor import Processor
from .findings import Finding, FindingCollector, Severity

_active_scope: Optional["SanitizerScope"] = None


def _finding(rule: str, where: str, message: str, context: str = "") -> Finding:
    return Finding(rule=rule, severity=Severity.ERROR, path=where, line=0,
                   message=message, context=context)


class SanitizerScope:
    """Context manager installing all sanitizer instrumentation."""

    def __init__(self, collector: Optional[FindingCollector] = None):
        self.collector = collector if collector is not None else FindingCollector()
        #: DmiRegions handed out while the scope is active
        self._granted: List[Tuple[TargetSocket, DmiRegion]] = []
        #: regions whose grant has since been invalidated (strong refs keep
        #: identity checks sound)
        self._revoked: List[DmiRegion] = []
        self._saved = {}

    # -- findings -------------------------------------------------------------
    @property
    def findings(self) -> List[Finding]:
        return self.collector.findings

    def _report(self, rule: str, where: str, message: str, context: str = "") -> None:
        self.collector.add(_finding(rule, where, message, context))

    # -- patch management --------------------------------------------------------
    def _patch(self, owner: type, attr: str, replacement) -> None:
        self._saved[(owner, attr)] = owner.__dict__[attr]
        setattr(owner, attr, replacement)

    def __enter__(self) -> "SanitizerScope":
        global _active_scope
        if _active_scope is not None:
            raise RuntimeError("sanitizer scope already active; scopes do not nest")
        _active_scope = self
        self._install_socket_sanitizer()
        self._install_memory_sanitizer()
        self._install_dmi_sanitizer()
        self._install_quantum_sanitizer()
        return self

    def __exit__(self, *exc_info) -> None:
        global _active_scope
        for (owner, attr), original in self._saved.items():
            setattr(owner, attr, original)
        self._saved.clear()
        _active_scope = None

    # -- SAN001: reentrant b_transport ----------------------------------------------
    def _install_socket_sanitizer(self) -> None:
        scope = self
        original = TargetSocket.b_transport

        def b_transport(socket: TargetSocket, payload, delay):
            depth = getattr(socket, "_san_depth", 0)
            if depth >= 1:
                scope._report(
                    "SAN001", socket.name,
                    "reentrant b_transport: socket entered again while a "
                    "transport through it is still in flight (routing loop "
                    "or target initiating into its own socket)",
                    context=f"depth={depth + 1}",
                )
            socket._san_depth = depth + 1
            try:
                return original(socket, payload, delay)
            finally:
                socket._san_depth = depth

        self._patch(TargetSocket, "b_transport", b_transport)

    # -- SAN002: uninitialized memory reads --------------------------------------------
    @staticmethod
    def _shadow(memory: Memory) -> mmap.mmap:
        shadow = memory.__dict__.get("_san_shadow")
        if shadow is None:
            shadow = mmap.mmap(-1, memory.size)
            memory._san_shadow = shadow
        return shadow

    def _install_memory_sanitizer(self) -> None:
        scope = self
        orig_transport = Memory._b_transport
        orig_load = Memory.load
        orig_fill = Memory.fill
        orig_dmi = Memory._get_direct_mem_ptr

        def _b_transport(memory: Memory, payload, delay):
            shadow = scope._shadow(memory)
            if (payload.is_read and not payload.is_debug
                    and 0 <= payload.address
                    and payload.address + payload.length <= memory.size):
                lo, hi = payload.address, payload.address + payload.length
                if not all(shadow[lo:hi]):
                    first = next(i for i in range(lo, hi) if not shadow[i])
                    scope._report(
                        "SAN002", memory.name,
                        f"read of uninitialized memory at 0x{first:x} "
                        f"(access [0x{lo:x}, 0x{hi - 1:x}])",
                    )
            result = orig_transport(memory, payload, delay)
            if payload.is_write and payload.response_status.is_ok:
                for index in payload.enabled_bytes():
                    shadow[payload.address + index] = 1
            return result

        def load(memory: Memory, offset: int, blob: bytes):
            orig_load(memory, offset, blob)
            shadow = scope._shadow(memory)
            shadow[offset:offset + len(blob)] = b"\x01" * len(blob)

        def fill(memory: Memory, value: int = 0):
            orig_fill(memory, value)
            shadow = scope._shadow(memory)
            shadow[:] = b"\x01" * memory.size

        def _get_direct_mem_ptr(memory: Memory, payload):
            region = orig_dmi(memory, payload)
            if region is not None:
                # DMI writes bypass us; the window's contents are unknowable.
                scope._shadow(memory)[:] = b"\x01" * memory.size
            return region

        self._patch(Memory, "_b_transport", _b_transport)
        self._patch(Memory, "load", load)
        self._patch(Memory, "fill", fill)
        self._patch(Memory, "_get_direct_mem_ptr", _get_direct_mem_ptr)

    # -- SAN003: DMI use-after-invalidate ----------------------------------------------
    def _install_dmi_sanitizer(self) -> None:
        scope = self
        orig_get = TargetSocket.get_direct_mem_ptr
        orig_view = DmiRegion.view
        orig_mgr_invalidate = DmiManager.invalidate
        orig_mem_invalidate = Memory.invalidate_dmi

        def get_direct_mem_ptr(socket: TargetSocket, payload):
            region = orig_get(socket, payload)
            if region is not None:
                scope._granted.append((socket, region))
            return region

        def view(region: DmiRegion, address: int, length: int):
            if any(revoked is region for revoked in scope._revoked):
                scope._report(
                    "SAN003", f"dmi[0x{region.start:x},0x{region.end:x}]",
                    f"DMI use-after-invalidate: view(0x{address:x}, {length}) "
                    "on a region whose grant was invalidated; re-request via "
                    "get_direct_mem_ptr",
                )
            return orig_view(region, address, length)

        def mgr_invalidate(manager: DmiManager, start: int = 0, end: int = 2 ** 64 - 1):
            for region in manager._regions:
                if not (region.end < start or region.start > end):
                    scope._revoked.append(region)
            return orig_mgr_invalidate(manager, start, end)

        def mem_invalidate(memory: Memory):
            backing = memory.data
            for _socket, region in scope._granted:
                if getattr(region.memory, "obj", None) is backing:
                    scope._revoked.append(region)
            orig_mem_invalidate(memory)

        self._patch(TargetSocket, "get_direct_mem_ptr", get_direct_mem_ptr)
        self._patch(DmiRegion, "view", view)
        self._patch(DmiManager, "invalidate", mgr_invalidate)
        self._patch(Memory, "invalidate_dmi", mem_invalidate)

    # -- SAN004: quantum-budget violations ------------------------------------------------
    def _install_quantum_sanitizer(self) -> None:
        scope = self
        original = Processor._invoke_simulate

        def _invoke_simulate(processor: Processor, cycles: int):
            result = original(processor, cycles)
            if result.cycles > cycles:
                scope._report(
                    "SAN004", processor.name,
                    f"quantum-budget violation: simulate was granted "
                    f"{cycles} cycles but consumed {result.cycles}; local "
                    "time runs ahead of the accounted quantum",
                    context=f"overrun={result.cycles - cycles}",
                )
            return result

        self._patch(Processor, "_invoke_simulate", _invoke_simulate)


@contextlib.contextmanager
def sanitized(collector: Optional[FindingCollector] = None) -> Iterator[SanitizerScope]:
    """``with sanitized() as scope: build_platform(...); vp.run(...)``"""
    scope = SanitizerScope(collector)
    with scope:
        yield scope


def active_scope() -> Optional[SanitizerScope]:
    return _active_scope
