"""Name system backends: a directory and a simulated DHT.

Both backends speak the same protocol: signed record sets are stored
under a 256-bit query key derived from (namespace public key, label). One
rule, ``admits``, decides whether a set may answer for a query key, and
every set that enters passes it: a put that fails raises, and a stored file
or a replica's answer that fails reads as absent. So only the namespace
owner can fill an entry, and no set answers for a name it was not signed
under. One reader, ``read_admitted``, admits signed-set files for the file
backend and for ``namestore``; they differ only in what a refused file
costs. The file backend leaves a file that already holds the set's bytes.
Storing an admitted EMPTY set deletes the entry: deletion is modeled as
absence, and stale copies linger only in response caches until their TTL
runs out. Absence is a value, not an error: ``get`` and ``resolve`` return
None when no live set is stored under the key, and only network-class
failures (``BackendError``) raise. The file backend reads its directory on
every lookup, so a verifier built on it sees another process's publish at
its next request.

``derive_query_key`` checks the label and remembers its answers for up to
REPLICA_MEMO_SIZE (key, label) pairs; a label that fails its check is never
remembered. ``resolve`` therefore checks a label once, on its first lookup,
and skips the per-record expiry test while the clock is below the set's
earliest absolute expiration.

The DHT simulator is single-threaded and fully deterministic for a given
rng_seed and operation sequence. Hop counts are modeled as ceil(log2(N)),
computed once per network.
The verifier is one peer of the network: its gets enter at one home node,
drawn from rng_seed, so repeated lookups meet that node's response cache,
as a GNS resolver's lookups meet its own peer's R5N path cache. With one
node, a replication factor of one and no response cache it is an exact
in-memory map.
"""
from __future__ import annotations

import bisect
import functools
import hashlib
import heapq
import math
import os
import random
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .core import (
    RecordSet,
    ResourceRecord,
    canonical_deserialize,
    canonical_serialize,
    check_label,
    verify_signature,
)
from .errors import (
    AllReplicasDown,
    BackendUnavailable,
    BadSignature,
    DecodeError,
    InvalidLabel,
    UnknownNode,
)


# Most query keys that derive_query_key remembers, and whose replica set a
# SimulatedDht remembers.
REPLICA_MEMO_SIZE = 8_192


@functools.lru_cache(maxsize=REPLICA_MEMO_SIZE)
def derive_query_key(namespace_pub: bytes, label: str) -> bytes:
    """Hash of (public key, 0x00, label); the DHT address of a record set.

    The label is checked first. Answers are remembered for up to
    REPLICA_MEMO_SIZE (key, label) pairs, least recently used dropped first;
    a label that fails its check raises and is never remembered.
    """
    check_label(label)
    return hashlib.sha256(namespace_pub + b"\x00" + label.encode("utf-8")).digest()


def admits(query_key: bytes, record_set: RecordSet) -> bool:
    """May ``record_set`` answer for ``query_key``? Only when the key derived
    from its own (public key, label) is ``query_key`` and its signature
    verifies; expirations aside, and a label that is no label binds no key."""
    try:
        bound = derive_query_key(record_set.public_key, record_set.label) == query_key
    except InvalidLabel:
        return False
    return bound and verify_signature(
        record_set.public_key, record_set.signature, record_set.signing_bytes()
    )


def write_atomic(path: Union[str, Path], data: bytes, mode: int = 0o666) -> None:
    """Replace the file at ``path`` with ``data``: readers see the old file
    or the new one, never part of a write. The temp file is created with
    ``mode`` (less the umask), its name is unique to this process and
    thread, and it is removed when the write fails."""
    temp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode), "wb") as out:
            out.write(data)
        os.replace(temp, path)
    except BaseException:
        Path(temp).unlink(missing_ok=True)
        raise


def read_or_none(path: Union[str, Path]) -> Optional[bytes]:
    """The bytes of the file at ``path``, or None when there is none, read
    with ``os`` calls: a file object's ``read`` takes twice as long."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        data = os.read(fd, os.fstat(fd).st_size + 1)
        while chunk := os.read(fd, 1 << 16):  # the file grew since fstat
            data += chunk
        return data
    finally:
        os.close(fd)


# What read_admitted answers for a file that does not decode or that
# ``admits`` refuses.
REFUSED = object()


def read_admitted(path: str, query_key: bytes, admitted: dict) -> Union[RecordSet, None, object]:
    """The set in the file at ``path`` if it decodes and ``admits`` lets it
    answer for ``query_key``; None when there is no file, else REFUSED.
    ``admitted`` maps a path to the bytes last admitted there and their set,
    so unchanged bytes are answered with no decode. Each pair is right on
    its own, so a race costs a decode, no lock."""
    data = read_or_none(path)
    if data is None:
        return None
    last = admitted.get(path)
    if last is not None and last[0] == data:
        return last[1]
    try:
        record_set = canonical_deserialize(data)
    except DecodeError:
        return REFUSED
    if not admits(query_key, record_set):
        return REFUSED
    admitted[path] = (data, record_set)
    return record_set


@dataclass
class LookupStats:
    lookups: int = 0
    cache_hits: int = 0
    messages: int = 0
    bad_signatures: int = 0  # sets or files refused by admission

    def as_dict(self) -> dict:
        return dict(vars(self))


class NameSystemBackend(ABC):
    """Pluggable name system: put/get signed record sets by query key."""

    @abstractmethod
    def put(self, query_key: bytes, record_set: RecordSet, clock: int) -> None:
        """Store (or, for an empty set, delete) a verified record set."""

    @abstractmethod
    def get(self, query_key: bytes, clock: int) -> Optional[RecordSet]:
        """Return the stored set, or None for authoritative absence."""

    @abstractmethod
    def stats(self) -> LookupStats:
        ...


class FileBackend(NameSystemBackend):
    """A directory holding one ``<query-key>.rrset`` file per record set.

    Gives separate CLI invocations a shared name system without running a
    network. Every get reads its file through ``read_admitted``, so a
    publish from another process is seen at the next lookup; a refused file
    reads as absent and is counted in ``bad_signatures``. A put reads the
    file too, and writes it only when it is missing or holds other bytes,
    so republishing an unchanged set leaves the file as it is.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._admitted: dict[str, tuple[bytes, RecordSet]] = {}  # read_admitted's memo
        self._stats = LookupStats()
        self._lock = threading.Lock()

    def _path(self, query_key: bytes) -> str:
        # A str, not a Path: pathlib (to 3.11) interns every name it parses,
        # and a fresh name per lookup keeps reallocating the intern table.
        return os.path.join(self.root, f"{query_key.hex()}.rrset")

    def put(self, query_key: bytes, record_set: RecordSet, clock: int) -> None:
        if not admits(query_key, record_set):
            raise BadSignature("record set is not signed for this query key")
        path = self._path(query_key)
        try:
            if not record_set.records:
                Path(path).unlink(missing_ok=True)
            elif read_or_none(path) != (data := canonical_serialize(record_set)):
                write_atomic(path, data)
        except OSError as exc:
            raise BackendUnavailable(f"file backend cannot write: {exc}") from exc

    def get(self, query_key: bytes, clock: int) -> Optional[RecordSet]:
        with self._lock:
            self._stats.lookups += 1
        try:
            record_set = read_admitted(self._path(query_key), query_key, self._admitted)
        except OSError as exc:
            raise BackendUnavailable(f"file backend cannot read: {exc}") from exc
        if record_set is REFUSED:
            with self._lock:
                self._stats.bad_signatures += 1
            return None
        return record_set if record_set is not None and record_set.has_live_record(clock) else None

    def stats(self) -> LookupStats:
        return self._stats


@dataclass
class DhtConfig:
    node_count: int = 32
    replication_factor: int = 5
    cache_ttl_us: int = 3_600_000_000  # 1 hour of simulated time
    rng_seed: int = 0


@dataclass
class _DhtNode:
    index: int
    node_id: int
    failed: bool = False
    storage: dict[bytes, RecordSet] = field(default_factory=dict)
    # query key -> (record set, absolute cache expiry)
    cache: dict[bytes, tuple[RecordSet, int]] = field(default_factory=dict)


class SimulatedDht(NameSystemBackend):
    """Consistent-hash ring with replication, caching, and failures.

    Record sets live on the ``replication_factor`` successor nodes of their
    query key. A get without ``entry_node`` enters at the home node, drawn
    once from ``rng_seed``; while the home node is failed, it enters at the
    next live node in index order, wrapping around. A hit in the entry
    node's response cache is served locally, otherwise the query is routed
    to the replica set and the response cached for min(cache_ttl, time to
    earliest record expiration). A replica's answer counts only when it is
    signed for the asked key (``admits``); any other is skipped and counted
    in ``bad_signatures``. Failed nodes drop all state and answer nothing.

    Replica assignment ignores failures and the ring never changes after
    construction, so ``replica_nodes`` remembers its answers for up to
    REPLICA_MEMO_SIZE query keys, dropping the oldest first.

    ``advance_clock`` drops every expired cache and storage entry, whether
    or not its key is looked up again, without visiting the live ones: cache
    fills go on one heap in expiry order, and storage is swept only once the
    clock passes the earliest time a stored set stops being live.
    """

    def __init__(self, config: Optional[DhtConfig] = None) -> None:
        self.config = config or DhtConfig()
        # Fewer than one node or replica cannot store anything, and a
        # negative TTL would quietly turn caching off.
        for name, least in (("node_count", 1), ("replication_factor", 1), ("cache_ttl_us", 0)):
            value = getattr(self.config, name)
            if value < least:
                raise ValueError(f"DhtConfig.{name} must be at least {least}, not {value}")
        self.now_us = 0
        # Hops from the entry node to a key's replicas.
        self._hops = math.ceil(math.log2(self.config.node_count))
        self._home = random.Random(self.config.rng_seed).randrange(self.config.node_count)
        self._stats = LookupStats()
        self.nodes: list[_DhtNode] = []
        for index in range(self.config.node_count):
            digest = hashlib.sha256(
                b"abd-dht-node:%d:%d" % (self.config.rng_seed, index)
            ).digest()
            self.nodes.append(_DhtNode(index=index, node_id=int.from_bytes(digest, "big")))
        ring = sorted(self.nodes, key=lambda n: n.node_id)
        self._ring_ids = [node.node_id for node in ring]
        self._ring_indices = [node.index for node in ring]
        # Live nodes in index order; only fail_nodes and heal_nodes change it.
        self._live = list(self.nodes)
        # (cache expiry, node index, query key) for each cache fill. An entry
        # may outlive the fill it names (a failed node, a re-fill); the sweep
        # checks that the node still holds that fill before deleting.
        self._cache_expiries: list[tuple[int, int, bytes]] = []
        # No stored set stops being live before this clock.
        self._storage_due: float = math.inf
        # query key -> replica_nodes' answer, oldest first.
        self._replicas: dict[bytes, tuple[int, ...]] = {}

    # --- topology ---------------------------------------------------------

    def replica_nodes(self, query_key: bytes) -> tuple[int, ...]:
        """Indices of the nodes assigned to hold this key, in ring order."""
        memo = self._replicas
        try:
            return memo[query_key]
        except KeyError:
            pass
        ring = self._ring_indices
        start = bisect.bisect_left(self._ring_ids, int.from_bytes(query_key, "big"))
        count = min(self.config.replication_factor, len(ring))
        replicas = memo[query_key] = tuple(ring[(start + i) % len(ring)] for i in range(count))
        if len(memo) > REPLICA_MEMO_SIZE:
            del memo[next(iter(memo))]
        return replicas

    def _check_node_ids(self, node_ids: list[int]) -> list[_DhtNode]:
        out = []
        for node_id in node_ids:
            if not 0 <= node_id < len(self.nodes):
                raise UnknownNode(f"no node with id {node_id}")
            out.append(self.nodes[node_id])
        return out

    def fail_nodes(self, node_ids: list[int]) -> None:
        """Failed nodes drop all stored and cached state immediately."""
        for node in self._check_node_ids(node_ids):
            node.failed = True
            node.storage.clear()
            node.cache.clear()
        self._live = [node for node in self.nodes if not node.failed]

    def heal_nodes(self, node_ids: list[int]) -> None:
        """Healed nodes rejoin empty; data returns only via republish."""
        for node in self._check_node_ids(node_ids):
            node.failed = False
        self._live = [node for node in self.nodes if not node.failed]

    def advance_clock(self, delta_us: int) -> None:
        """Move simulated time forward, evicting everything past its TTL."""
        if delta_us < 0:
            raise ValueError("simulated time cannot move backwards")
        self.now_us = now = self.now_us + delta_us
        expiries = self._cache_expiries
        while expiries and expiries[0][0] <= now:
            expires, index, key = heapq.heappop(expiries)
            cache = self.nodes[index].cache
            cached = cache.get(key)
            if cached is not None and cached[1] == expires:
                del cache[key]
        if now >= self._storage_due:
            for node in self._live:
                node.storage = {
                    key: rset for key, rset in node.storage.items() if now < rset.live_until
                }
            self._storage_due = min(
                (rset.live_until for node in self._live for rset in node.storage.values()),
                default=math.inf,
            )

    # --- backend protocol ---------------------------------------------------

    def put(self, query_key: bytes, record_set: RecordSet, clock: int) -> None:
        if not admits(query_key, record_set):
            raise BadSignature("record set is not signed for this query key")
        assigned = [self.nodes[i] for i in self.replica_nodes(query_key)]
        live = [n for n in assigned if not n.failed]
        if not live:
            raise BackendUnavailable("all replica nodes for this key are down")
        self._stats.messages += self._hops + len(live)
        if record_set.records:
            self._storage_due = min(self._storage_due, record_set.live_until)
        for node in live:
            if record_set.records:
                node.storage[query_key] = record_set
            else:
                node.storage.pop(query_key, None)

    def get(
        self, query_key: bytes, clock: int, entry_node: Optional[int] = None
    ) -> Optional[RecordSet]:
        self._stats.lookups += 1
        if not self._live:
            raise AllReplicasDown("no live nodes in the network")
        if entry_node is None:
            entry = self.nodes[self._home]
            if entry.failed:
                entry = next((n for n in self._live if n.index > self._home), self._live[0])
        else:
            (entry,) = self._check_node_ids([entry_node])
            if entry.failed:
                raise AllReplicasDown(f"entry node {entry_node} is down")
        self._stats.messages += 1

        cached = entry.cache.get(query_key)
        if cached is not None:
            record_set, expires = cached
            # A fill expires no later than the set's earliest live record,
            # so an unexpired fill holds a live set.
            if clock < expires:
                self._stats.cache_hits += 1
                return record_set
            del entry.cache[query_key]

        stats, hops = self._stats, self._hops
        # One message to every live replica; the first valid live set answers.
        found = None
        messages = hops
        down = False
        nodes = self.nodes
        for index in self.replica_nodes(query_key):
            node = nodes[index]
            if node.failed:
                down = True
                continue
            messages += 1
            if found is not None:
                continue
            record_set = node.storage.get(query_key)
            if record_set is None:
                continue
            if not admits(query_key, record_set):
                # Hostile or corrupt replica, not signed for the asked key.
                stats.bad_signatures += 1
                continue
            if record_set.has_live_record(clock):
                found = record_set
        stats.messages += messages

        if found is None:
            if down:
                # Some replica that could hold the key never answered; we
                # cannot distinguish absence from unavailability.
                raise AllReplicasDown("no live replica holds the key")
            return None
        ttl = self.config.cache_ttl_us
        earliest = found.min_expiration(clock)
        if earliest is not None:
            ttl = min(ttl, earliest - clock)
        if ttl > 0:
            entry.cache[query_key] = (found, clock + ttl)
            heapq.heappush(self._cache_expiries, (clock + ttl, entry.index, query_key))
        return found

    def stats(self) -> LookupStats:
        return self._stats


def resolve(
    label: str,
    namespace_pub: bytes,
    record_type: int,
    backend: NameSystemBackend,
    clock: int,
) -> Optional[list[ResourceRecord]]:
    """Look up unexpired records of one type under (namespace, label).

    Absence is a value, as in ``backend.get``: a missing set returns None,
    and an existing set with no matching records an empty list. Only
    network-class failures raise, from the backend. The label is checked
    once, by ``derive_query_key``, whose memo answers a repeat without
    hashing again. The set's ``live_records`` skips the per-record expiry
    test while the clock is below its earliest absolute expiration.
    """
    record_set = backend.get(derive_query_key(namespace_pub, label), clock)
    if record_set is None:
        return None
    return [record for record in record_set.live_records(clock) if record.record_type == record_type]
