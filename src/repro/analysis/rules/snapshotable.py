"""RPR012 — non-serializable state on snapshot-visible Module attributes.

``repro.snapshot`` captures a platform by introspecting module state: device
registers through ``snapshot_state`` hooks, pending timed callbacks by
(owner path, method name), events by hierarchical name.  Anything a Module
stores on ``self`` is therefore *snapshot-visible* — and an attribute
holding an open file handle, a lambda, or a live threading/queue object
cannot be serialized: capture fails at runtime with a
:class:`repro.snapshot.SnapshotError` naming this rule.

This rule flags the same class of state statically, at the assignment site:

* ``self.x = open(...)`` (also ``io.open``, ``tempfile.*``, ``gzip.open``,
  ``socket.socket``, ``subprocess.Popen``) — OS handles do not survive a
  save/load round trip;
* ``self.x = lambda ...`` — a timed callback bound to a lambda has no
  (owner, method-name) descriptor, so a pending occurrence is uncapturable;
* ``self.x = threading.Thread/Lock/...()``, ``queue.Queue()`` — host
  concurrency primitives are per-process state, not guest state;
* ``self.x = mmap.mmap(fd, ...)`` — a file-backed mapping holds an fd.
  The anonymous form ``mmap.mmap(-1, ...)`` is plain memory (guest RAM is
  one) and passes.

Storing a *path* and opening it on demand, using handles inside ``with``
blocks, or defining a real method instead of a lambda all pass.  Like the
race rules, RPR012 is ``default = False``: it runs under an explicit
``--select RPR012`` (device models that intentionally hold host resources,
e.g. an interactive UART backend, should stay out of the default pass).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from ..engine import LintContext, Rule, SourceModule, register
from ..findings import Finding, Severity

#: class bases that mark a snapshot-visible module (repro.vcml hierarchy)
_MODULE_BASES = {"Module", "Component", "Peripheral", "Processor"}

#: bare calls producing OS handles
_HANDLE_CALLS = {"open"}

#: module-attribute calls producing OS handles or host concurrency objects
_HANDLE_MODULE_CALLS = {
    "io": {"open", "FileIO", "BufferedReader", "BufferedWriter", "TextIOWrapper"},
    "gzip": {"open", "GzipFile"},
    "bz2": {"open", "BZ2File"},
    "lzma": {"open", "LZMAFile"},
    "tempfile": {"TemporaryFile", "NamedTemporaryFile", "SpooledTemporaryFile",
                 "mkstemp"},
    "socket": {"socket", "socketpair", "create_connection", "create_server"},
    "subprocess": {"Popen"},
    "threading": {"Thread", "Lock", "RLock", "Event", "Condition", "Semaphore",
                  "BoundedSemaphore", "Barrier", "Timer", "local"},
    "queue": {"Queue", "LifoQueue", "PriorityQueue", "SimpleQueue"},
    "multiprocessing": {"Process", "Queue", "Pipe", "Lock", "Event", "Pool"},
    "mmap": {"mmap"},
}


def _module_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Top-level classes whose base list names a vcml module type."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None)
            if name in _MODULE_BASES:
                yield node
                break


def _anonymous_mmap(value: ast.AST, bare: Dict[str, str]) -> bool:
    """``mmap.mmap(-1, ...)``: anonymous memory with no fd behind it."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        is_mmap = (isinstance(func.value, ast.Name)
                   and (func.value.id, func.attr) == ("mmap", "mmap"))
    else:
        is_mmap = isinstance(func, ast.Name) and bare.get(func.id) == "mmap"
    fd = value.args[0] if value.args else next(
        (keyword.value for keyword in value.keywords if keyword.arg == "fileno"), None)
    return (is_mmap and isinstance(fd, ast.UnaryOp) and isinstance(fd.op, ast.USub)
            and isinstance(fd.operand, ast.Constant) and fd.operand.value == 1)


def _offending_value(value: ast.AST) -> Optional[str]:
    """Describe why ``value`` cannot be serialized, or None if it can."""
    if isinstance(value, ast.Lambda):
        return "a lambda (no (owner, method) descriptor; define a method)"
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name) and func.id in _HANDLE_CALLS:
        return f"an open file handle from {func.id}()"
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module_name, attr = func.value.id, func.attr
        if attr in _HANDLE_MODULE_CALLS.get(module_name, ()):
            return f"a host resource from {module_name}.{attr}()"
    return None


@register
class SnapshotableStateRule(Rule):
    rule_id = "RPR012"
    title = "non-serializable state on a snapshot-visible Module attribute"
    severity = Severity.ERROR
    default = False

    def check(self, ctx: LintContext, module: SourceModule) -> Iterator[Finding]:
        for cls in _module_classes(module.tree):
            bare = self._bare_imports(module)
            for node in ast.walk(cls):
                targets = ()
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets, value = (node.target,), node.value
                if not targets or value is None:
                    continue
                attr = self._self_attribute(targets)
                if attr is None:
                    continue
                reason = _offending_value(value)
                if (reason is None and isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id in bare):
                    reason = f"a host resource from {value.func.id}()"
                if reason is not None and _anonymous_mmap(value, bare):
                    reason = None
                if reason is not None:
                    yield self.finding(
                        module, node,
                        f"{cls.name}.{attr} holds {reason}; snapshot capture "
                        "cannot serialize it (store a path/descriptor and "
                        "rebuild the resource on demand)",
                    )

    @staticmethod
    def _self_attribute(targets) -> Optional[str]:
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                return target.attr
        return None

    @staticmethod
    def _bare_imports(module: SourceModule) -> Dict[str, str]:
        """Constructors imported directly (``from threading import Thread``),
        mapped to the module they come from."""
        names: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in _HANDLE_MODULE_CALLS):
                for alias in node.names:
                    if alias.name in _HANDLE_MODULE_CALLS[node.module]:
                        names[alias.asname or alias.name] = node.module
        return names
