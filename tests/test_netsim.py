"""Name-system backends: file-backed and the simulated DHT, one node of
which is the in-memory map the rest of the suite publishes to."""
from __future__ import annotations

import dataclasses
import hashlib
import shutil
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from abd import netsim
from abd.core import (
    NamespaceKey,
    RecordType,
    ResourceRecord,
    canonical_deserialize,
    canonical_serialize,
    sign_record_set,
    sort_records,
)
from abd.delegation import add_delegation, encode_attr_payload, expression, remove_delegation
from abd.discovery import discover
from abd.errors import (
    AllReplicasDown,
    BackendUnavailable,
    BadSignature,
    InvalidLabel,
    UnknownNode,
)
from abd.namestore import NamespaceStore
from abd.netsim import (
    DhtConfig,
    FileBackend,
    SimulatedDht,
    derive_query_key,
    resolve,
)
from instance_gen import memory_dht

CLOCK = 1_700_000_000_000_000
HOUR = 3_600_000_000


def key(tag: bytes) -> NamespaceKey:
    return NamespaceKey.generate(seed=tag.ljust(32, b"\0"))


OWNER = key(b"owner")


def make_set(label="boss", expiration=CLOCK + HOUR, owner=OWNER, records=None):
    if records is None:
        payload = encode_attr_payload(expression([(key(b"s").public_key, [])]))
        records = [ResourceRecord(RecordType.ATTR, payload, expiration)]
    return sign_record_set(owner, label, records)


def put_set(backend, rset, clock=CLOCK):
    query_key = derive_query_key(rset.public_key, rset.label)
    backend.put(query_key, rset, clock)
    return query_key


# --- query keys -----------------------------------------------------------------


def test_query_key_is_hash_of_key_and_label():
    expected = hashlib.sha256(OWNER.public_key + b"\x00" + b"boss").digest()
    assert derive_query_key(OWNER.public_key, "boss") == expected
    assert derive_query_key(OWNER.public_key, "bos") != expected
    assert derive_query_key(key(b"x").public_key, "boss") != expected


def test_query_keys_are_remembered_up_to_the_memo_bound_and_bad_labels_never():
    assert derive_query_key.cache_info().maxsize == netsim.REPLICA_MEMO_SIZE
    derive_query_key(OWNER.public_key, "boss")
    remembered = derive_query_key.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InvalidLabel):
            derive_query_key(OWNER.public_key, "Not A Label")
        with pytest.raises(InvalidLabel):
            resolve("Not A Label", OWNER.public_key, RecordType.ATTR, memory_dht(), CLOCK)
    assert derive_query_key.cache_info().currsize == remembered


# --- the one-node, in-memory DHT ------------------------------------------------------------


def test_in_memory_round_trip_and_absence():
    backend = memory_dht()
    rset = make_set()
    query_key = put_set(backend, rset)
    assert backend.get(query_key, CLOCK) == rset
    assert backend.get(derive_query_key(OWNER.public_key, "other"), CLOCK) is None


def test_a_set_looked_up_before_is_not_serialized_again(monkeypatch):
    backend = memory_dht()
    query_key = put_set(backend, make_set())
    calls = []
    real = ResourceRecord.canonical_bytes

    def counting(record):
        calls.append(record)
        return real(record)

    monkeypatch.setattr(ResourceRecord, "canonical_bytes", counting)
    for _ in range(5):
        assert backend.get(query_key, CLOCK) is not None
    assert calls == []


def test_a_verified_set_with_a_flipped_signature_byte_fails():
    rset = make_set()
    backend = memory_dht()
    query_key = put_set(backend, rset)
    assert backend.get(query_key, CLOCK) == rset
    flipped = dataclasses.replace(
        rset, signature=rset.signature[:-1] + bytes([rset.signature[-1] ^ 1])
    )
    with pytest.raises(BadSignature):
        backend.put(query_key, flipped, CLOCK)
    network = dht()
    put_set(network, rset)
    for index in network.replica_nodes(query_key):
        network.nodes[index].storage[query_key] = flipped
    assert network.get(query_key, CLOCK) is None
    assert network.stats().bad_signatures == 5


def test_put_rejects_mismatched_query_key():
    backend = memory_dht()
    with pytest.raises(BadSignature):
        backend.put(derive_query_key(OWNER.public_key, "other"), make_set(), CLOCK)


def test_put_rejects_invalid_signature():
    backend = memory_dht()
    rset = make_set()
    forged = type(rset)(
        public_key=rset.public_key,
        label=rset.label,
        records=rset.records,
        signature=bytes(64),
    )
    with pytest.raises(BadSignature):
        put_set(backend, forged)


def test_empty_set_put_deletes():
    backend = memory_dht()
    query_key = put_set(backend, make_set())
    assert backend.get(query_key, CLOCK) is not None
    put_set(backend, make_set(records=[]))
    assert backend.get(query_key, CLOCK) is None


def test_expired_only_set_reads_as_absent():
    backend = memory_dht()
    query_key = put_set(backend, make_set(expiration=CLOCK + 10))
    assert backend.get(query_key, CLOCK) is not None
    assert backend.get(query_key, CLOCK + 10) is None


def test_unavailable_backend_raises():
    backend = memory_dht()
    query_key = put_set(backend, make_set())
    backend.fail_nodes([0])
    with pytest.raises(AllReplicasDown):
        backend.get(query_key, CLOCK)
    with pytest.raises(BackendUnavailable):
        put_set(backend, make_set())


def test_corrupt_stored_set_counts_bad_signature():
    backend = memory_dht()
    rset = make_set()
    query_key = put_set(backend, rset)
    backend.nodes[0].storage[query_key] = type(rset)(
        public_key=rset.public_key,
        label=rset.label,
        records=rset.records,
        signature=bytes(64),
    )
    assert backend.get(query_key, CLOCK) is None
    assert backend.stats().bad_signatures == 1


# --- file backend ---------------------------------------------------------------------


def test_file_backend_persists_across_instances(tmp_path):
    first = FileBackend(tmp_path / "net")
    rset = make_set()
    query_key = put_set(first, rset)
    second = FileBackend(tmp_path / "net")
    assert second.get(query_key, CLOCK) == rset

    put_set(second, make_set(records=[]))
    third = FileBackend(tmp_path / "net")
    assert third.get(query_key, CLOCK) is None
    assert not (tmp_path / "net" / f"{query_key.hex()}.rrset").exists()


def test_file_backend_leaves_a_file_that_already_holds_the_bytes(tmp_path):
    root = tmp_path / "net"
    backend = FileBackend(root)
    query_key = put_set(backend, make_set())
    path = root / f"{query_key.hex()}.rrset"
    before = path.stat()
    put_set(backend, make_set())
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert [p.name for p in root.iterdir()] == [path.name]

    newer = make_set(expiration=CLOCK + 2 * HOUR)
    put_set(backend, newer)
    assert path.stat().st_ino != before.st_ino
    assert backend.get(query_key, CLOCK) == newer

    path.unlink()  # removed outside abd: the next put writes it again
    put_set(backend, newer)
    assert FileBackend(root).get(query_key, CLOCK) == newer


def test_file_backend_reads_a_set_over_64_kib_whole(tmp_path):
    subjects = [hashlib.sha256(index.to_bytes(4, "big")).digest() for index in range(2_000)]
    payload = encode_attr_payload(expression([(subject, []) for subject in subjects]))
    large = make_set(records=[ResourceRecord(RecordType.ATTR, payload, CLOCK + HOUR)])
    root = tmp_path / "net"
    query_key = put_set(FileBackend(root), large)
    path = root / f"{query_key.hex()}.rrset"
    before = path.stat()
    assert before.st_size > 1 << 16
    backend = FileBackend(root)
    assert backend.get(query_key, CLOCK) == large
    put_set(backend, large)  # the same bytes: the file is left as it is
    assert path.stat().st_ino == before.st_ino


def flip_signature_byte(rset):
    return dataclasses.replace(rset, signature=bytes([rset.signature[0] ^ 1]) + rset.signature[1:])


# The bytes written in turn to OWNER's "boss" file (None: no file), and
# whether the last of them is refused.
ADMISSION_CASES = [
    pytest.param([None], False, id="absent"),
    pytest.param([b"garbage"], True, id="garbage"),
    pytest.param([canonical_serialize(make_set(label="contractor"))], True, id="another-key"),
    pytest.param([canonical_serialize(flip_signature_byte(make_set()))], True, id="flipped-signature"),
    pytest.param([canonical_serialize(make_set())], False, id="good"),
    pytest.param(
        [canonical_serialize(make_set()), canonical_serialize(make_set(expiration=CLOCK + 2 * HOUR))],
        False,
        id="good-replaced-by-good",
    ),
]


@pytest.mark.parametrize("versions, refused", ADMISSION_CASES)
def test_the_file_backend_and_the_store_admit_a_file_alike(tmp_path, versions, refused):
    # One reader admits a file for both: they read the same set or None, and
    # differ only in what a refusal costs, a count or a quarantine.
    backend = FileBackend(tmp_path / "net")
    store = NamespaceStore(tmp_path / "home")
    query_key = derive_query_key(OWNER.public_key, "boss")
    stored = tmp_path / "home" / "names" / OWNER.public_key.hex() / "boss.rrset"
    stored.parent.mkdir(parents=True)
    for data in versions:
        if data is not None:
            for path in (tmp_path / "net" / f"{query_key.hex()}.rrset", stored):
                path.write_bytes(data)
        read = backend.get(query_key, CLOCK)
        assert read == store.entry(OWNER.public_key, "boss")
        assert read == (None if data is None or refused else canonical_deserialize(data))
    assert backend.stats().bad_signatures == int(refused)
    assert stored.with_name("boss.rrset.quarantined").exists() == refused
    assert stored.exists() == (not refused and versions != [None])


def test_file_backend_checks_liveness_at_each_call(tmp_path):
    backend = FileBackend(tmp_path / "net")
    rset = make_set(expiration=CLOCK + HOUR)
    query_key = put_set(backend, rset)
    assert backend.get(query_key, CLOCK) == rset
    assert backend.get(query_key, CLOCK + HOUR) is None
    assert backend.get(query_key, CLOCK) == rset


def test_file_backend_rejects_a_set_filed_under_another_key(tmp_path):
    root = tmp_path / "net"
    backend = FileBackend(root)
    source = put_set(backend, make_set(label="contractor"))
    target = derive_query_key(OWNER.public_key, "auditor")
    shutil.copy(root / f"{source.hex()}.rrset", root / f"{target.hex()}.rrset")
    assert backend.get(target, CLOCK) is None
    assert backend.stats().bad_signatures == 1


def test_file_backend_readers_see_whole_versions_while_a_writer_publishes(tmp_path):
    backend = FileBackend(tmp_path / "net")
    versions = [make_set(expiration=CLOCK + HOUR), make_set(expiration=CLOCK + 2 * HOUR)]
    query_key = put_set(backend, versions[0])
    done = threading.Event()
    gets = [0] * 8
    wrong = []

    def read(index: int) -> None:
        while not done.is_set():
            result = backend.get(query_key, CLOCK)
            gets[index] += 1
            if result not in versions:
                wrong.append(result)

    def publish() -> None:
        try:
            for round_ in range(200):
                put_set(backend, versions[round_ % 2])
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=read, args=(i,), daemon=True) for i in range(len(gets))
        ]
        threads.append(threading.Thread(target=publish))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert all(gets)
    assert backend.stats().lookups == sum(gets)


# --- simulated DHT -----------------------------------------------------------------------


def dht(**overrides) -> SimulatedDht:
    fields = dict(node_count=16, replication_factor=5, cache_ttl_us=HOUR, rng_seed=1)
    fields.update(overrides)
    return SimulatedDht(DhtConfig(**fields))


def test_replica_placement_is_deterministic():
    network = dht()
    rset = make_set()
    query_key = put_set(network, rset)
    replicas = network.replica_nodes(query_key)
    assert len(replicas) == len(set(replicas)) == 5
    assert network.replica_nodes(query_key) == replicas
    for index in replicas:
        assert network.nodes[index].storage[query_key] == rset
    others = set(range(16)) - set(replicas)
    for index in others:
        assert query_key not in network.nodes[index].storage


def test_get_round_trip_and_stats():
    network = dht()
    rset = make_set()
    query_key = put_set(network, rset)
    assert network.get(query_key, CLOCK) == rset
    stats = network.stats()
    assert stats.lookups == 1
    # The put: four hops and the five replicas. The get: the entry node too.
    assert stats.messages == (4 + 5) + (1 + 4 + 5)


def messages_of(network: SimulatedDht, query_key: bytes, entry_node: int):
    """The outcome of one get and the messages it cost."""
    before = network.stats().messages
    try:
        outcome = network.get(query_key, CLOCK, entry_node=entry_node)
    except AllReplicasDown:
        outcome = "down"
    return outcome, network.stats().messages - before


@pytest.mark.parametrize("node_count, hops", [(1, 0), (2, 1), (5, 3), (16, 4), (17, 5), (1024, 10)])
def test_a_miss_costs_the_entry_the_hops_and_every_live_replica_and_a_hit_one(node_count, hops):
    network = dht(node_count=node_count)
    rset = make_set()
    query_key = put_set(network, rset)
    replicas = min(5, node_count)
    assert messages_of(network, query_key, 0) == (rset, 1 + hops + replicas)
    assert messages_of(network, query_key, 0) == (rset, 1)
    assert network.stats().cache_hits == 1
    # An absent key, every replica healthy, costs what a miss costs.
    absent = derive_query_key(OWNER.public_key, "missing")
    assert messages_of(network, absent, 0) == (None, 1 + hops + replicas)


def test_a_miss_counts_only_the_live_replicas():
    network = dht()
    rset = make_set()
    query_key = put_set(network, rset)
    replicas = network.replica_nodes(query_key)
    network.fail_nodes(replicas[:2])
    first, second = [i for i in range(16) if i not in replicas][:2]
    assert messages_of(network, query_key, first) == (rset, 1 + 4 + 3)
    # With every replica down a get from a cold entry node still pays for
    # the entry and the hops.
    network.fail_nodes(replicas)
    assert messages_of(network, query_key, second) == ("down", 1 + 4)


@pytest.mark.parametrize(
    "field, value",
    [("replication_factor", 0), ("replication_factor", -3), ("node_count", 0), ("cache_ttl_us", -1)],
)
def test_a_network_that_cannot_serve_is_refused_at_construction(field, value):
    with pytest.raises(ValueError, match=f"DhtConfig.{field} must be at least"):
        dht(**{field: value})


def test_entry_node_cache_serves_repeat_lookups():
    network = dht()
    query_key = put_set(network, make_set())
    entry = network.replica_nodes(query_key)[0]
    other = next(i for i in range(16) if i not in network.replica_nodes(query_key))

    assert network.get(query_key, CLOCK, entry_node=other) is not None
    before = network.stats().messages
    assert network.get(query_key, CLOCK, entry_node=other) is not None
    assert network.stats().cache_hits == 1
    # A cache hit costs only the message to the entry node.
    assert network.stats().messages == before + 1
    assert network.get(query_key, CLOCK, entry_node=entry) is not None
    assert network.stats().cache_hits == 1  # different node, cold cache


def test_cache_expires_with_simulated_time():
    network = dht(cache_ttl_us=60_000_000)
    network.now_us = CLOCK
    query_key = put_set(network, make_set())
    assert network.get(query_key, CLOCK, entry_node=0) is not None
    network.advance_clock(59_000_000)
    network.get(query_key, network.now_us, entry_node=0)
    assert network.stats().cache_hits == 1
    network.advance_clock(1_000_000)  # TTL reached: evicted
    assert query_key not in network.nodes[0].cache
    network.get(query_key, network.now_us, entry_node=0)
    assert network.stats().cache_hits == 1


def put_labels(network, count, expiration=CLOCK + 1_000 * HOUR):
    return [put_set(network, make_set(f"l{i}", expiration)) for i in range(count)]


def test_one_ttl_empties_every_cache_even_for_keys_never_asked_again():
    network = dht(cache_ttl_us=60_000_000)
    network.now_us = CLOCK
    keys = put_labels(network, 8)
    for query_key in keys:
        for node in range(16):
            network.get(query_key, network.now_us, entry_node=node)
    assert all(len(node.cache) == 8 for node in network.nodes)
    network.advance_clock(59_999_999)
    assert all(len(node.cache) == 8 for node in network.nodes)
    network.advance_clock(1)
    assert all(not node.cache for node in network.nodes)


def test_storage_drops_a_set_once_its_last_record_expires():
    network = dht()
    network.now_us = CLOCK
    short = put_set(network, make_set("short", expiration=CLOCK + 1_000))
    (long,) = put_labels(network, 1)
    network.advance_clock(999)
    assert all(short in network.nodes[i].storage for i in network.replica_nodes(short))
    network.advance_clock(1)
    assert all(short not in node.storage for node in network.nodes)
    assert all(long in network.nodes[i].storage for i in network.replica_nodes(long))


def test_a_stale_expiry_never_deletes_a_newer_fill():
    network = dht(cache_ttl_us=60_000_000)
    network.now_us = CLOCK
    (query_key,) = put_labels(network, 1)
    outsider = next(i for i in range(16) if i not in network.replica_nodes(query_key))
    network.get(query_key, network.now_us, entry_node=outsider)
    # The node fails and heals, and the key is filled again 30 s later.
    network.fail_nodes([outsider])
    network.heal_nodes([outsider])
    network.advance_clock(30_000_000)
    network.get(query_key, network.now_us, entry_node=outsider)
    network.advance_clock(30_000_000)  # the first fill's expiry is due
    assert query_key in network.nodes[outsider].cache
    # A fill that expires at a get's clock is replaced by a re-fill.
    network.advance_clock(29_000_000)
    network.get(query_key, network.now_us + 1_000_000, entry_node=outsider)
    network.advance_clock(1_000_000)  # the replaced fill's expiry is due
    assert query_key in network.nodes[outsider].cache
    network.advance_clock(60_000_000)
    assert query_key not in network.nodes[outsider].cache


def test_expiry_heap_stays_bounded():
    ttl = 60_000_000
    network = dht(cache_ttl_us=ttl)
    network.now_us = CLOCK
    keys = put_labels(network, 4)

    def run_ttls(count):
        for step in range(count * 3):
            for query_key in keys:
                for node in range(16):
                    network.get(query_key, network.now_us, entry_node=node)
            # A failed node leaves its fills' heap entries behind.
            network.fail_nodes([step % 16])
            network.heal_nodes([step % 16])
            network.advance_clock(ttl // 3)
        return len(network._cache_expiries)

    after_two = run_ttls(2)
    assert 0 < after_two
    assert run_ttls(98) <= after_two


def test_cache_ttl_clamped_to_record_expiration():
    network = dht(cache_ttl_us=HOUR)
    query_key = put_set(network, make_set(expiration=CLOCK + 1_000))
    network.get(query_key, CLOCK, entry_node=0)
    _, expires = network.nodes[0].cache[query_key]
    assert expires == CLOCK + 1_000


def test_four_of_five_replica_failures_still_resolve():
    network = dht()
    rset = make_set()
    query_key = put_set(network, rset)
    replicas = network.replica_nodes(query_key)
    network.fail_nodes(replicas[:4])
    assert network.get(query_key, CLOCK) == rset


def test_all_replicas_down_is_distinguishable_from_absence():
    network = dht()
    query_key = put_set(network, make_set())
    network.fail_nodes(network.replica_nodes(query_key))
    with pytest.raises(AllReplicasDown):
        network.get(query_key, CLOCK)
    # A key that simply does not exist, with every assigned replica healthy,
    # reads as authoritative absence.
    absent = derive_query_key(OWNER.public_key, "missing")
    healthy = dht()
    assert healthy.get(absent, CLOCK) is None


def test_failed_nodes_drop_state_and_heal_empty():
    network = dht()
    query_key = put_set(network, make_set())
    replicas = network.replica_nodes(query_key)
    network.fail_nodes(replicas)
    network.heal_nodes(replicas)
    assert not any(node.failed for node in network.nodes)
    # Healed nodes rejoin empty: the key is authoritatively gone until republish.
    assert network.get(query_key, CLOCK) is None
    put_set(network, make_set())
    assert network.get(query_key, CLOCK) is not None


def test_put_with_all_replicas_down_raises():
    network = dht()
    rset = make_set()
    query_key = derive_query_key(rset.public_key, rset.label)
    network.fail_nodes(network.replica_nodes(query_key))
    with pytest.raises(BackendUnavailable):
        network.put(query_key, rset, CLOCK)


def test_explicit_entry_node_validation():
    network = dht()
    query_key = put_set(network, make_set())
    with pytest.raises(UnknownNode):
        network.get(query_key, CLOCK, entry_node=99)
    network.fail_nodes([3])
    with pytest.raises(AllReplicasDown):
        network.get(query_key, CLOCK, entry_node=3)


def test_clock_cannot_move_backwards():
    network = dht()
    with pytest.raises(ValueError):
        network.advance_clock(-1)


def test_hostile_replica_is_skipped():
    network = dht()
    rset = make_set()
    query_key = put_set(network, rset)
    replicas = network.replica_nodes(query_key)
    forged = type(rset)(
        public_key=rset.public_key,
        label=rset.label,
        records=rset.records,
        signature=bytes(64),
    )
    network.nodes[replicas[0]].storage[query_key] = forged
    # Ask from a non-replica entry so the scan starts at replicas[0].
    entry = next(i for i in range(16) if i not in replicas)
    assert network.get(query_key, CLOCK, entry_node=entry) == rset
    assert network.stats().bad_signatures == 1


@pytest.mark.parametrize("honest", [False, True], ids=["otherwise-absent", "honest-replicas"])
def test_a_replica_answering_with_another_names_set_is_skipped(honest):
    network = dht()
    asked = make_set(owner=key(b"y"), label="admin")
    swapped = make_set(owner=key(b"x"), label="friends")  # validly signed, for its own key
    query_key = derive_query_key(asked.public_key, asked.label)
    if honest:
        put_set(network, asked)
    replicas = network.replica_nodes(query_key)
    network.nodes[replicas[0]].storage[query_key] = swapped
    # Ask from a non-replica entry so the scan starts at replicas[0].
    entry = next(i for i in range(16) if i not in replicas)
    assert network.get(query_key, CLOCK, entry_node=entry) == (asked if honest else None)
    assert network.stats().bad_signatures == 1


# --- DHT lookups against slow references ----------------------------------------------


def linear_replicas(network: SimulatedDht, query_key: bytes) -> tuple[int, ...]:
    """Reference placement: walk the ring in node-id order from the first
    id at or past the key, wrapping to the smallest id."""
    ring = sorted(network.nodes, key=lambda node: node.node_id)
    key_int = int.from_bytes(query_key, "big")
    start = 0
    while start < len(ring) and ring[start].node_id < key_int:
        start += 1
    count = min(network.config.replication_factor, len(ring))
    return tuple(ring[(start + i) % len(ring)].index for i in range(count))


@given(
    node_count=st.integers(min_value=1, max_value=64),
    replication=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_replica_nodes_match_a_linear_scan(node_count, replication, seed, data):
    network = dht(node_count=node_count, replication_factor=replication, rng_seed=seed)
    ids = sorted(node.node_id for node in network.nodes)
    past_the_last = data.draw(st.integers(min_value=ids[-1] + 1, max_value=2**256 - 1))
    on_a_node = data.draw(st.sampled_from(ids))
    keys = [
        bytes(32),
        b"\xff" * 32,
        past_the_last.to_bytes(32, "big"),
        on_a_node.to_bytes(32, "big"),
        data.draw(st.binary(min_size=32, max_size=32)),
    ]
    for query_key in keys:
        assert network.replica_nodes(query_key) == linear_replicas(network, query_key)
    # Keys past the largest node id wrap to the start of the ring.
    smallest = min(network.nodes, key=lambda node: node.node_id).index
    assert network.replica_nodes(past_the_last.to_bytes(32, "big"))[0] == smallest
    assert network.replica_nodes(on_a_node.to_bytes(32, "big"))[0] == next(
        node.index for node in network.nodes if node.node_id == on_a_node
    )


class LiveListPerCall(SimulatedDht):
    """Reference: the list of live nodes rebuilt from the node flags at
    every get, instead of kept up to date by fail_nodes and heal_nodes."""

    def get(self, query_key, clock, entry_node=None):
        self._live = [node for node in self.nodes if not node.failed]
        return super().get(query_key, clock, entry_node)


class CacheLookups(dict):
    """A node's response cache that logs the node's index at each lookup:
    a get reads exactly one cache, its entry node's."""

    def __init__(self, index: int, log: list) -> None:
        super().__init__()
        self.index, self.log = index, log

    def get(self, key, default=None):
        self.log.append(self.index)
        return super().get(key, default)


def run_fixed_sequence(network: SimulatedDht) -> tuple[list, list, dict]:
    """Put, get, fail (the home node too), get, heal, get; returns the
    outcomes, the entry node of every get without one, and the stats."""
    lookups = []
    for node in network.nodes:
        node.cache = CacheLookups(node.index, lookups)
    sets = [make_set(label=f"label-{i}", expiration=CLOCK + 10 * HOUR) for i in range(6)]
    keys = [put_set(network, rset) for rset in sets]
    outcomes, entries = [], []

    def outcome(query_key, clock, entry_node=None):
        try:
            return network.get(query_key, clock, entry_node) is not None
        except AllReplicasDown:
            return "down"

    def get_all(phase: int) -> None:
        # Each phase starts one cache TTL after the last, so its first round
        # misses every response cache and its second can hit them.
        for _ in range(2):
            for query_key in keys:
                lookups.clear()
                outcomes.append(outcome(query_key, CLOCK + phase * HOUR))
                (entry,) = lookups
                entries.append(entry)

    get_all(0)
    home = entries[0]
    down = [*network.replica_nodes(keys[0]), 0, 7, 11, home]
    network.fail_nodes(down)
    get_all(1)
    outcomes.append(outcome(keys[1], CLOCK, entry_node=2))
    network.heal_nodes(down[:3])
    get_all(2)
    network.heal_nodes(down)
    get_all(3)
    put_set(network, sets[0])
    get_all(4)
    return outcomes, entries, network.stats().as_dict()


@pytest.mark.parametrize("rng_seed", [1, 5, 29])
def test_gets_pick_the_same_entry_nodes_as_a_per_call_live_list(rng_seed):
    fast = run_fixed_sequence(dht(rng_seed=rng_seed))
    reference = run_fixed_sequence(LiveListPerCall(dht(rng_seed=rng_seed).config))
    assert fast == reference
    outcomes, entries, stats = fast
    # The sequence reached outages, healed-empty replicas and cache hits.
    assert "down" in outcomes and False in outcomes and stats["cache_hits"] > 0
    assert len(entries) == 6 * 10 and stats["lookups"] == 6 * 10 + 1
    # Every phase enters at one node: the home node while it is up, and one
    # stand-in for it while it is down.
    phases = [set(entries[i : i + 12]) for i in range(0, 60, 12)]
    assert all(len(phase) == 1 for phase in phases)
    assert phases[0] == phases[3] == phases[4] != phases[1]


# --- the home node and the replica memo --------------------------------------------------


def entry_of_a_fresh_get(network: SimulatedDht, label: str) -> int:
    """Publish a new label, get it without an entry node, and return the
    node whose response cache that get filled."""
    query_key = put_set(network, make_set(label))
    assert network.get(query_key, CLOCK) is not None
    (entry,) = [node.index for node in network.nodes if query_key in node.cache]
    return entry


def test_gets_without_an_entry_node_share_one_cache():
    network = dht(node_count=1024)
    query_key = put_set(network, make_set())
    assert network.get(query_key, CLOCK) is not None
    assert network.stats().cache_hits == 0
    assert network.get(query_key, CLOCK) is not None
    assert network.stats().cache_hits == 1


@pytest.mark.parametrize("rng_seed", [1, 9, 12])
def test_a_failed_home_node_hands_over_to_the_next_live_node(rng_seed):
    # Replication to every node keeps each probe stored while nodes fail.
    network = dht(replication_factor=16, rng_seed=rng_seed)
    home = entry_of_a_fresh_get(network, "home")
    assert entry_of_a_fresh_get(network, "again") == home
    assert home > 0  # seeds 1, 9 and 12 put it at 4, 14 and 15
    network.fail_nodes([home])
    assert entry_of_a_fresh_get(network, "skip") == (home + 1) % 16
    # With the home node and every node after it down, the next live node
    # wraps past the last index.
    network.fail_nodes(list(range(home, 16)))
    assert entry_of_a_fresh_get(network, "wrap") == 0
    network.fail_nodes(list(range(16)))
    with pytest.raises(AllReplicasDown):
        network.get(derive_query_key(OWNER.public_key, "home"), CLOCK)
    # A healed home node is the entry again, and rejoins with an empty cache.
    network.heal_nodes(list(range(16)))
    for label in ("home", "again", "skip", "wrap"):
        put_set(network, make_set(label))
    assert not network.nodes[home].cache
    assert network.get(derive_query_key(OWNER.public_key, "home"), CLOCK) is not None
    assert network.stats().cache_hits == 0
    assert entry_of_a_fresh_get(network, "healed") == home


def test_replica_nodes_are_one_shared_tuple_per_key():
    network = dht(node_count=64)
    for label in ("boss", "peer", "lead"):
        query_key = derive_query_key(OWNER.public_key, label)
        replicas = network.replica_nodes(query_key)
        assert isinstance(replicas, tuple)
        assert network.replica_nodes(query_key) is replicas
        assert replicas == linear_replicas(network, query_key)


def test_the_replica_memo_stops_growing_at_its_cap(monkeypatch):
    monkeypatch.setattr(netsim, "REPLICA_MEMO_SIZE", 4)
    network = dht(node_count=64)
    for i in range(10):
        query_key = derive_query_key(OWNER.public_key, f"l{i}")
        assert network.replica_nodes(query_key) == linear_replicas(network, query_key)
        assert len(network._replicas) == min(i + 1, 4)


def test_a_revocation_stops_granting_within_one_ttl_on_a_large_network(tmp_path):
    ttl = 60_000_000
    network = dht(node_count=1024, cache_ttl_us=ttl)
    network.now_us = CLOCK
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    subject = key(b"s").public_key
    member = expression([(subject, [])])
    add_delegation(store, owner, "boss", member, clock=CLOCK)
    assert store.publish(owner, network, CLOCK).ok

    def grants() -> bool:
        chain = discover(owner.public_key, "boss", subject, [], network, network.now_us)
        return chain is not None

    assert grants()
    assert remove_delegation(store, owner, "boss", member)
    assert store.publish(owner, network, network.now_us).ok
    network.advance_clock(ttl - 1)
    # The verifier's own peer still holds the granting set in its cache.
    assert grants()
    network.advance_clock(1)
    assert not grants()


# --- resolve ------------------------------------------------------------------------------


def test_resolve_filters_type_and_expiry():
    backend = memory_dht()
    payload = encode_attr_payload(expression([(key(b"s").public_key, [])]))
    live = ResourceRecord(RecordType.ATTR, payload, CLOCK + HOUR)
    stale = ResourceRecord(RecordType.ATTR, payload[:4] + payload[4:], CLOCK + 1)
    put_set(backend, sign_record_set(OWNER, "boss", [live, stale]))
    records = resolve("boss", OWNER.public_key, RecordType.ATTR, backend, CLOCK + 2)
    assert records == [live]
    assert resolve("boss", OWNER.public_key, RecordType.CRED, backend, CLOCK) == []


@pytest.mark.parametrize("kind", ["file", "dht"])
def test_resolve_returns_none_for_a_missing_set_and_a_list_for_an_existing_one(tmp_path, kind):
    # Absence is a value: no set is None, a set without the type is [].
    backend = FileBackend(tmp_path) if kind == "file" else dht()
    put_set(backend, make_set())
    assert resolve("ghost", OWNER.public_key, RecordType.ATTR, backend, CLOCK) is None
    assert resolve("boss", OWNER.public_key, RecordType.CRED, backend, CLOCK) == []
    assert len(resolve("boss", OWNER.public_key, RecordType.ATTR, backend, CLOCK)) == 1


def attr(tag: bytes, expiration: int, relative=False, record_type=RecordType.ATTR):
    payload = encode_attr_payload(expression([(key(tag).public_key, [])]))
    return ResourceRecord(record_type, payload, expiration, relative)


def resolved(records, clock, record_type=RecordType.ATTR):
    backend = memory_dht()
    put_set(backend, sign_record_set(OWNER, "boss", records))
    return resolve("boss", OWNER.public_key, record_type, backend, clock)


def test_resolve_drops_a_record_expiring_at_the_clock_and_keeps_one_a_microsecond_later():
    due, later = attr(b"due", CLOCK), attr(b"later", CLOCK + 1)
    assert resolved([due, later], CLOCK) == [later]
    assert resolved([due, later], CLOCK - 1) == list(sort_records([due, later]))


def test_resolve_keeps_relative_records_at_any_clock():
    records = [attr(b"a", 5, relative=True), attr(b"b", 0, relative=True)]
    expected = list(sort_records(records))
    assert resolved(records, CLOCK) == expected
    assert resolved(records, 2**63) == expected


def test_resolve_filters_credentials_beside_delegations():
    live_attr = attr(b"a", CLOCK + HOUR)
    stale_cred = attr(b"c", CLOCK + 1, record_type=RecordType.CRED)
    live_cred = attr(b"d", CLOCK + HOUR, record_type=RecordType.CRED)
    records = [live_attr, stale_cred, live_cred]
    assert resolved(records, CLOCK) == [live_attr]
    assert resolved(records, CLOCK, RecordType.CRED) == list(sort_records([stale_cred, live_cred]))
    assert resolved(records, CLOCK + 1, RecordType.CRED) == [live_cred]
    assert resolved(records, CLOCK + 1) == [live_attr]


@given(
    specs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.booleans(),
            st.sampled_from([RecordType.ATTR, RecordType.CRED]),
        ),
        min_size=1,
        max_size=6,
    ),
    offset=st.integers(min_value=0, max_value=9),
    record_type=st.sampled_from([RecordType.ATTR, RecordType.CRED]),
)
def test_resolve_returns_what_a_per_record_expiry_filter_returns(specs, offset, record_type):
    records = [
        attr(bytes([i]), expiration if relative else CLOCK + expiration, relative, rtype)
        for i, (expiration, relative, rtype) in enumerate(specs)
    ]
    clock = CLOCK + offset
    rset = sign_record_set(OWNER, "boss", records)
    expected = [r for r in rset.records if r.record_type == record_type and not r.is_expired(clock)]
    if all(r.is_expired(clock) for r in rset.records):
        assert resolved(records, clock, record_type) is None
    else:
        assert resolved(records, clock, record_type) == expected
