"""Outside-in tracer: times abd's public functions without touching src/.

``Tracer.install`` replaces every module binding of each traced function
with a timing wrapper. Bindings matter: ``verify_signature`` is imported by
name into ``abd.core``, ``abd.credential`` and ``abd.authz``, and a call
through any of them must be timed, so every ``abd`` module is scanned for
the original function object. Methods are wrapped on the class that defines
them. ``get`` and ``put`` are wrapped on every ``abd`` name-system backend
class, inherited or not, so ``netsim.get.<Class>`` names the class a call
went to even when that class later gains or loses its own ``get``.

A span is (id, name, start ns, end ns, parent id, op id). The op id is the
one the caller set with ``begin_op`` on this thread, or else the id of the
outermost span of the call tree, so the spans of one server request share
it. Each chain that ``discover`` returns adds one zero-length
``discovery.chain_step`` span per step under the discover span, so the
step count travels with the spans. Spans stay in memory until ``write``
saves them as JSON lines; ``summarize`` derives calls and self time (span
time minus the time of its direct children) per name.
"""
from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Union

# Function -> span name. A callable name is computed from the call's
# positional arguments (per backend class, per HTTP method).
FUNCTIONS: dict[str, Union[str, Callable[[tuple], str]]] = {
    "abd.core.verify_signature": "core.verify_signature",
    "abd.core.sign_record_set": "core.sign_record_set",
    "abd.core.canonical_deserialize": "core.canonical_deserialize",
    "abd.delegation.decode_attr_payload": "delegation.decode_attr_payload",
    "abd.credential.verify_credential": "credential.verify_credential",
    "abd.credential.import_json": "credential.import_json",
    "abd.credential.collect": "credential.collect",
    "abd.netsim.resolve": "netsim.resolve",
    "abd.discovery.discover": "discovery.discover",
    "abd.authz.authorize": "authz.authorize",
    "abd.authz.request_access": "authz.request_access",
    "abd.authz._http_json": lambda args: "authz.http." + args[0].get_method().lower(),
}
METHODS: dict[str, str] = {
    "abd.netsim.SimulatedDht.replica_nodes": "netsim.dht.replica_nodes",
    "abd.netsim.SimulatedDht.advance_clock": "netsim.dht.advance_clock",
    "abd.namestore.NamespaceStore.publish": "namestore.publish",
    "abd.namestore.NamespaceStore.load_namespace": "namestore.load_namespace",
    "abd.authz.NonceTable.issue": "authz.nonce",
    "abd.authz.NonceTable.status": "authz.nonce",
    "abd.authz.NonceTable.consume": "authz.nonce",
    "abd.authz.VerifierService.authorize_payload": "authz.authorize_payload",
}


def _lookup(path: str) -> tuple[object, str]:
    """Split 'abd.mod.name' or 'abd.mod.Class.name' into (owner, attribute)."""
    package, module, *rest = path.split(".")
    owner = sys.modules[f"{package}.{module}"]
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1]


def _backend_classes() -> list[type]:
    """Every name-system backend class defined in ``abd``, base excluded."""
    from abd.netsim import NameSystemBackend

    found, pending = [], list(NameSystemBackend.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls.__module__.startswith("abd") and cls not in found:
            found.append(cls)
            pending += cls.__subclasses__()
    return sorted(found, key=lambda cls: cls.__qualname__)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # --- op ids ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._local.op = op_id

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, fn: Callable, name: Union[str, Callable[[tuple], str]]) -> Callable:
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter_ns
        counts_steps = fn.__name__ == "discover"

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            op = getattr(local, "op", None)
            if op is None:
                op = stack[0] if stack else span_id
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                spans.append((span_id, label, start, end, parent, op))
            if counts_steps and result is not None:
                for _ in result.steps:
                    spans.append((next(ids), "discovery.chain_step", end, end, span_id, op))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every traced function and method; idempotent per instance."""
        if self._patched:
            return
        import abd  # noqa: F401  (loads every abd module)
        import abd.cli  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items()) if n == "abd" or n.startswith("abd.")]
        for path, name in FUNCTIONS.items():
            owner, attribute = _lookup(path)
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, name)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, binding, original))
                        setattr(module, binding, wrapper)
        methods = [(*_lookup(path), name) for path, name in METHODS.items()]
        methods += [(cls, "get", f"netsim.get.{cls.__name__}") for cls in _backend_classes()]
        methods += [(cls, "put", "netsim.put") for cls in _backend_classes()]
        # Resolve every method before patching any, so a class that inherits
        # get or put wraps the original, not its parent's wrapper.
        plan = [(owner, attribute, getattr(owner, attribute), name) for owner, attribute, name in methods]
        for owner, attribute, original, name in plan:
            self._patched.append((owner, attribute, owner.__dict__.get(attribute)))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            if original is None:  # the class inherited it; drop the wrapper
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patched.clear()

    # --- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[tuple]:
    """Spans saved by ``Tracer.write``."""
    with open(path) as lines:
        return [tuple(json.loads(line)) for line in lines]


def summarize(spans: Iterable[tuple]) -> dict[str, dict[str, int]]:
    """Per span name: number of calls, total and self nanoseconds."""
    spans = list(spans)
    child_ns: dict[int, int] = defaultdict(int)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for span_id, name, start, end, _, _ in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns.get(span_id, 0)
    return dict(out)


def merge(*summaries: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for summary in summaries:
        for name, entry in summary.items():
            for key, value in entry.items():
                out[name][key] += value
    return dict(out)
