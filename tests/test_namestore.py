"""Disk store: identities, record-set persistence, quarantine, publication."""
from __future__ import annotations

import os
from collections import OrderedDict

import pytest

from abd import core, netsim
from abd.core import (
    DAYS,
    NamespaceKey,
    RecordType,
    ResourceRecord,
    canonical_serialize,
    sign_record_set,
)
from abd.credential import issue_credential, store_credential
from abd.delegation import add_delegation, encode_attr_payload, expression, remove_delegation
from abd.errors import (
    BackendUnavailable,
    InvalidLabel,
    KeyMismatch,
    MissingPrivateKey,
    UnknownPetname,
)
from abd.namestore import NamespaceStore
from abd.netsim import DhtConfig, FileBackend, SimulatedDht, derive_query_key, resolve
from instance_gen import ONE_NODE, memory_dht

CLOCK = 1_700_000_000_000_000
HOUR = 3_600_000_000


def key(tag: bytes) -> NamespaceKey:
    return NamespaceKey.generate(seed=tag.ljust(32, b"\0"))


def attr_record(subject: bytes, expiration: int = CLOCK + HOUR, relative=False):
    payload = encode_attr_payload(expression([(subject, [])]))
    return ResourceRecord(RecordType.ATTR, payload, expiration, relative=relative)


@pytest.fixture
def signs(monkeypatch):
    """Counts NamespaceKey.sign calls; reset ``signs.calls`` to start over."""
    sign = NamespaceKey.sign

    def counted(self, message):
        counted.calls += 1
        return sign(self, message)

    counted.calls = 0
    monkeypatch.setattr(NamespaceKey, "sign", counted)
    return counted


@pytest.fixture
def ed25519_checks(monkeypatch):
    """Counts full Ed25519 checks against an empty verified-signature table."""
    checks = []
    real = core.Ed25519PublicKey

    class Counting:
        @staticmethod
        def from_public_bytes(data):
            checks.append(data)
            return real.from_public_bytes(data)

    monkeypatch.setattr(core, "_verified", OrderedDict())
    monkeypatch.setattr(core, "Ed25519PublicKey", Counting)
    return checks


@pytest.fixture
def decodes(monkeypatch):
    """Counts the record-set files the store decodes."""
    calls = []
    real = netsim.canonical_deserialize

    def counted(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(netsim, "canonical_deserialize", counted)
    return calls


class RecordingPuts(SimulatedDht):
    """An in-memory name system that keeps the bytes of every put."""

    def __init__(self, config=ONE_NODE):
        super().__init__(config)
        self.puts = []

    def put(self, query_key, record_set, clock):
        self.puts.append((query_key, canonical_serialize(record_set)))
        super().put(query_key, record_set, clock)


# --- identities ------------------------------------------------------------------


def test_create_identity_persists_seed_and_petname(tmp_path):
    store = NamespaceStore(tmp_path)
    created = store.create_identity(petname="me", seed=b"x".ljust(32, b"\0"))
    again = NamespaceStore(tmp_path)  # fresh handle on the same directory
    loaded = again.key_for("me")
    assert loaded.public_key == created.public_key
    assert loaded.private_key == created.private_key
    seed_path = tmp_path / "keys" / f"{created.hex}.seed"
    assert seed_path.stat().st_mode & 0o777 == 0o600


def test_key_for_hex_without_seed_is_public_only(tmp_path):
    store = NamespaceStore(tmp_path)
    stranger = key(b"stranger")
    resolved = store.key_for(stranger.hex)
    assert resolved.public_key == stranger.public_key
    assert resolved.private_key is None


def test_key_for_unknown_name(tmp_path):
    store = NamespaceStore(tmp_path)
    with pytest.raises(UnknownPetname):
        store.key_for("nobody")
    with pytest.raises(UnknownPetname):
        store.key_for("abc123")  # hex but not 32 bytes


def test_identities_sorted(tmp_path):
    store = NamespaceStore(tmp_path)
    b = store.create_identity(petname="bbb", seed=b"1".ljust(32, b"\0"))
    a = store.create_identity(petname="aaa", seed=b"2".ljust(32, b"\0"))
    assert store.identities() == [("aaa", a.hex), ("bbb", b.hex)]


# --- entry persistence --------------------------------------------------------------


def test_store_and_load_round_trip(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    record = attr_record(key(b"s").public_key)
    written = store.store(owner, "boss", [record])
    assert store.load_namespace(owner.public_key) == {"boss": written}
    assert store.entry(owner.public_key, "boss") == written
    assert store.entry(owner.public_key, "other") is None


def test_store_requires_private_key(tmp_path):
    store = NamespaceStore(tmp_path)
    with pytest.raises(MissingPrivateKey):
        store.store(NamespaceKey(public_key=key(b"x").public_key), "boss", [])


def test_a_seed_file_of_another_key_is_refused_before_anything_is_written(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    other = store.create_identity(petname="other", seed=b"x".ljust(32, b"\0"))
    seeds = tmp_path / "keys"
    (seeds / f"{owner.hex}.seed").write_bytes((seeds / f"{other.hex}.seed").read_bytes())
    mismatched = store.key_for("owner")
    with pytest.raises(KeyMismatch):
        add_delegation(store, mismatched, "boss", expression([(other.public_key, [])]), clock=CLOCK)
    assert not list((tmp_path / "names").glob(f"{owner.hex}/*"))
    with pytest.raises(KeyMismatch):
        store.publish(mismatched, memory_dht(), CLOCK)


def test_tampered_entry_is_quarantined_not_loaded(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    store.store(owner, "boss", [attr_record(key(b"s").public_key)])
    path = tmp_path / "names" / owner.hex / "boss.rrset"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01  # flip a signature bit
    path.write_bytes(bytes(raw))

    assert store.load_namespace(owner.public_key) == {}
    assert not path.exists()
    assert path.with_name("boss.rrset.quarantined").exists()


def test_entry_bound_to_wrong_label_is_quarantined(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    rset = sign_record_set(owner, "other", [attr_record(key(b"s").public_key)])
    directory = tmp_path / "names" / owner.hex
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "boss.rrset").write_bytes(canonical_serialize(rset))
    assert store.load_namespace(owner.public_key) == {}
    assert (directory / "boss.rrset.quarantined").exists()


def test_a_file_whose_name_is_no_label_is_quarantined_and_the_rest_load(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    boss = store.store(owner, "boss", [attr_record(key(b"s").public_key)])
    directory = tmp_path / "names" / owner.hex
    (directory / "Bad.rrset").write_bytes((directory / "boss.rrset").read_bytes())
    assert store.load_namespace(owner.public_key) == {"boss": boss}
    assert not (directory / "Bad.rrset").exists()
    assert (directory / "Bad.rrset.quarantined").exists()


def test_single_label_read_quarantines_only_its_own_file(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    store.store(owner, "boss", [attr_record(key(b"s").public_key)])
    store.store(owner, "peer", [attr_record(key(b"s").public_key)])
    directory = tmp_path / "names" / owner.hex
    (directory / "boss.rrset").write_bytes(b"not a record set")
    (directory / "peer.rrset").write_bytes(b"not a record set")
    assert store.entry(owner.public_key, "boss") is None
    assert (directory / "boss.rrset.quarantined").exists()
    assert (directory / "peer.rrset").exists()


def test_editing_one_label_leaves_a_corrupt_sibling_in_place(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    subject = expression([(key(b"s").public_key, [])])
    add_delegation(store, owner, "boss", subject, clock=CLOCK)
    corrupt = tmp_path / "names" / owner.hex / "boss.rrset"
    corrupt.write_bytes(b"not a record set")
    add_delegation(store, owner, "peer", subject, clock=CLOCK)
    assert remove_delegation(store, owner, "peer", subject)
    assert corrupt.read_bytes() == b"not a record set"


def test_single_label_read_checks_the_label_before_the_path(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    with pytest.raises(InvalidLabel):
        store.entry(owner.public_key, "../keys/x")


def test_a_namespace_with_no_directory_has_no_labels(tmp_path):
    assert NamespaceStore(tmp_path).load_namespace(key(b"absent").public_key) == {}


def test_a_set_another_store_writes_is_read_not_the_remembered_one(tmp_path):
    first, second = NamespaceStore(tmp_path), NamespaceStore(tmp_path)
    owner = first.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    first.store(owner, "boss", [attr_record(key(b"s").public_key)])
    assert first.entry(owner.public_key, "boss") is not None
    replaced = second.store(owner, "boss", [attr_record(key(b"t").public_key)])
    assert first.entry(owner.public_key, "boss") == replaced
    assert first.load_namespace(owner.public_key) == {"boss": replaced}


def test_a_byte_flipped_in_an_admitted_file_gets_it_quarantined(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    store.store(owner, "boss", [attr_record(key(b"s").public_key)])
    assert store.entry(owner.public_key, "boss") is not None
    path = tmp_path / "names" / owner.hex / "boss.rrset"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01  # flip a signature bit
    path.write_bytes(bytes(raw))
    assert store.entry(owner.public_key, "boss") is None
    assert not path.exists()
    assert path.with_name("boss.rrset.quarantined").exists()
    assert store.load_namespace(owner.public_key) == {}


# --- atomic writes ----------------------------------------------------------------------


def test_failed_replace_keeps_the_old_entry_and_no_temp_file(tmp_path, monkeypatch):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    before = store.store(owner, "boss", [attr_record(key(b"s").public_key)])

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        store.store(owner, "boss", [])
    with pytest.raises(OSError):
        store.set_petname("other", key(b"x").public_key)
    monkeypatch.undo()
    assert store.load_namespace(owner.public_key) == {"boss": before}
    assert store.petname_table() == {"owner": owner.public_key}
    leftovers = [p.name for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    assert leftovers == []


def test_seed_is_never_wider_than_0600(tmp_path, monkeypatch):
    store = NamespaceStore(tmp_path)
    modes = []
    real_replace = os.replace

    def replace(src, dst):
        modes.append(os.stat(src).st_mode & 0o777)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    umask = os.umask(0)
    try:
        created = store.create_identity(seed=b"o".ljust(32, b"\0"))
    finally:
        os.umask(umask)
    assert modes == [0o600]
    assert (tmp_path / "keys" / f"{created.hex}.seed").stat().st_mode & 0o777 == 0o600


# --- publication -----------------------------------------------------------------------


def test_publish_stores_attr_and_keeps_credentials_local(tmp_path, signs):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    holder_cred = issue_credential(
        key(b"i"), owner.public_key, "member", clock=CLOCK, lifetime_us=HOUR
    )
    cred_record = ResourceRecord(
        RecordType.CRED, holder_cred.canonical_bytes(), holder_cred.expiration_us
    )
    delegation = attr_record(key(b"s").public_key)
    store.store(owner, "boss", [delegation])
    store.store(owner, "member", [cred_record])
    store.store(owner, "mixed", [delegation, cred_record])
    expired = issue_credential(key(b"i"), owner.public_key, "audit", clock=CLOCK, lifetime_us=0)
    store_credential(store, owner, expired)
    backend = RecordingPuts()
    signs.calls = 0
    report = store.publish(owner, backend, CLOCK)
    assert report.ok
    actions = {e.label: e.action for e in report.entries}
    assert actions == {
        "audit": "kept-local", "boss": "stored", "member": "kept-local", "mixed": "stored"
    }
    # Only the set that leaves a credential behind is signed anew.
    assert signs.calls == 1
    assert len(backend.puts) == 2
    assert backend.get(derive_query_key(owner.public_key, "boss"), CLOCK) is not None
    assert backend.get(derive_query_key(owner.public_key, "member"), CLOCK) is None
    mixed = backend.get(derive_query_key(owner.public_key, "mixed"), CLOCK)
    assert mixed.records == (delegation,)


def test_publishing_an_unchanged_namespace_again_signs_nothing_and_puts_the_same_bytes(
    tmp_path, signs
):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    for label in ("boss", "gone"):
        add_delegation(store, owner, label, expression([(key(b"s").public_key, [])]), clock=CLOCK)
    remove_delegation(store, owner, "gone", expression([(key(b"s").public_key, [])]))
    backend = RecordingPuts()
    signs.calls = 0
    first = store.publish(owner, backend, CLOCK)
    second = store.publish(owner, backend, CLOCK + HOUR // 2)
    assert signs.calls == 0
    assert first.ok and second.ok
    assert [e.action for e in second.entries] == ["stored", "deleted"]
    assert backend.puts[2:] == backend.puts[:2]
    stored = store.load_namespace(owner.public_key)
    assert [data for _, data in backend.puts[:2]] == [
        canonical_serialize(stored[label]) for label in ("boss", "gone")
    ]


@pytest.mark.parametrize("backend", ["file", "dht"])
def test_an_edit_and_its_publish_run_no_ed25519_check(tmp_path, ed25519_checks, backend):
    store = NamespaceStore(tmp_path / "home")
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    network = FileBackend(tmp_path / "backend") if backend == "file" else memory_dht()
    add_delegation(store, owner, "boss", expression([(key(b"s").public_key, [])]), clock=CLOCK)
    assert store.publish(owner, network, CLOCK).ok
    assert ed25519_checks == []


def test_republishing_an_unchanged_namespace_decodes_nothing(tmp_path, decodes):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    for label in ("boss", "peer"):
        add_delegation(store, owner, label, expression([(key(b"s").public_key, [])]), clock=CLOCK)
    backend = memory_dht()
    assert store.publish(owner, backend, CLOCK).ok
    assert len(decodes) == 2
    assert store.publish(owner, backend, CLOCK).ok
    assert len(decodes) == 2


def test_publish_restores_an_unchanged_namespace_on_healed_replicas(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    add_delegation(store, owner, "boss", expression([(key(b"s").public_key, [])]), clock=CLOCK)
    network = SimulatedDht(DhtConfig(node_count=16, replication_factor=5, cache_ttl_us=0))
    assert store.publish(owner, network, CLOCK).ok
    query_key = derive_query_key(owner.public_key, "boss")
    replicas = network.replica_nodes(query_key)
    network.fail_nodes(replicas)
    network.heal_nodes(replicas)
    assert all(query_key not in network.nodes[i].storage for i in replicas)
    assert store.publish(owner, network, CLOCK).ok
    stored = store.entry(owner.public_key, "boss")
    assert all(network.nodes[i].storage[query_key] == stored for i in replicas)


def test_publish_stamps_relative_expirations(tmp_path, signs):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    store.store(owner, "boss", [attr_record(key(b"s").public_key, HOUR, relative=True)])
    backend = memory_dht()
    signs.calls = 0
    report = store.publish(owner, backend, CLOCK)
    assert signs.calls == 1
    assert report.entries[0].expiration_us == CLOCK + HOUR
    published = backend.get(derive_query_key(owner.public_key, "boss"), CLOCK)
    assert published.records[0].expiration_us == CLOCK + HOUR
    assert not published.records[0].relative
    # Republishing later refreshes the lifetime from the local relative record.
    later = CLOCK + 30 * HOUR
    store.publish(owner, backend, later)
    assert signs.calls == 2
    refreshed = backend.get(derive_query_key(owner.public_key, "boss"), later)
    assert refreshed.records[0].expiration_us == later + HOUR


def test_publish_deletes_a_label_whose_records_all_expired(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    backend = memory_dht()
    store.store(owner, "boss", [attr_record(key(b"s").public_key, CLOCK + HOUR)])
    store.publish(owner, backend, CLOCK)
    report = store.publish(owner, backend, CLOCK + HOUR)
    assert report.ok
    assert {e.label: e.action for e in report.entries} == {"boss": "deleted"}
    # Read back before the expiry, so only a deletion can make the set absent.
    assert backend.get(derive_query_key(owner.public_key, "boss"), CLOCK) is None


def test_publish_drops_expired_records_and_keeps_live_ones(tmp_path, signs):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    live = attr_record(key(b"live").public_key, CLOCK + HOUR)
    store.store(owner, "boss", [live, attr_record(key(b"old").public_key, CLOCK)])
    backend = memory_dht()
    signs.calls = 0
    report = store.publish(owner, backend, CLOCK)
    assert report.ok
    assert report.entries[0].action == "stored"
    assert signs.calls == 1
    published = backend.get(derive_query_key(owner.public_key, "boss"), CLOCK)
    assert published.records == (live,)
    assert published != store.entry(owner.public_key, "boss")


def revoke_beside_an_expired_record(tmp_path, backend):
    """Publish boss <- short (1 day) and boss <- long (30 days), remove long
    two days later and publish again; returns the boss query key."""
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    short, long = (expression([(key(tag).public_key, [])]) for tag in (b"short", b"long"))
    add_delegation(store, owner, "boss", short, clock=CLOCK, lifetime_us=DAYS)
    add_delegation(store, owner, "boss", long, clock=CLOCK, lifetime_us=30 * DAYS)
    assert store.publish(owner, backend, CLOCK).ok
    later = CLOCK + 2 * DAYS
    assert resolve("boss", owner.public_key, RecordType.ATTR, backend, later)
    assert remove_delegation(store, owner, "boss", long)
    report = store.publish(owner, backend, later)
    assert report.ok
    assert {e.label: e.action for e in report.entries} == {"boss": "deleted"}
    assert resolve("boss", owner.public_key, RecordType.ATTR, backend, later) is None


def test_revocation_beside_an_expired_record_reaches_a_file_backend(tmp_path):
    revoke_beside_an_expired_record(tmp_path / "home", FileBackend(tmp_path / "backend"))


def test_revocation_beside_an_expired_record_reaches_the_dht(tmp_path):
    revoke_beside_an_expired_record(tmp_path, memory_dht())


def test_publish_propagates_removal_as_empty_set(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    backend = memory_dht()
    store.store(owner, "boss", [attr_record(key(b"s").public_key)])
    store.publish(owner, backend, CLOCK)
    query_key = derive_query_key(owner.public_key, "boss")
    assert backend.get(query_key, CLOCK) is not None

    store.store(owner, "boss", [])
    report = store.publish(owner, backend, CLOCK)
    assert {e.label: e.action for e in report.entries} == {"boss": "deleted"}
    assert backend.get(query_key, CLOCK) is None


class RefusingPuts(SimulatedDht):
    """An in-memory name system that refuses puts while ``down`` and, unlike
    a failed node, keeps what it holds."""

    down = False

    def put(self, query_key, record_set, clock):
        if self.down:
            raise BackendUnavailable("name system is down")
        super().put(query_key, record_set, clock)


def test_publish_keeps_pending_removal_on_outage(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    backend = RefusingPuts(ONE_NODE)
    store.store(owner, "boss", [attr_record(key(b"s").public_key)])
    store.publish(owner, backend, CLOCK)
    query_key = derive_query_key(owner.public_key, "boss")
    store.store(owner, "boss", [])

    backend.down = True
    report = store.publish(owner, backend, CLOCK)
    assert not report.ok
    assert {e.label: e.action for e in report.entries} == {"boss": "failed"}
    backend.down = False
    assert backend.get(query_key, CLOCK) is not None

    # The empty set is still stored, so the next publish retries the deletion.
    report = store.publish(owner, backend, CLOCK)
    assert report.ok
    assert {e.label: e.action for e in report.entries} == {"boss": "deleted"}
    assert backend.get(query_key, CLOCK) is None


def test_publish_failure_is_per_label(tmp_path):
    store = NamespaceStore(tmp_path)
    owner = store.create_identity(petname="owner", seed=b"o".ljust(32, b"\0"))
    for label in ("alpha", "refused", "zulu"):
        add_delegation(store, owner, label, expression([(key(b"s").public_key, [])]), clock=CLOCK)
    refused = derive_query_key(owner.public_key, "refused")

    class RefusesOneKey(SimulatedDht):
        def put(self, query_key, record_set, clock):
            if query_key == refused:
                raise BackendUnavailable("replica refused the write")
            super().put(query_key, record_set, clock)

    backend = RefusesOneKey(ONE_NODE)
    report = store.publish(owner, backend, CLOCK)
    assert not report.ok
    actions = {e.label: e.action for e in report.entries}
    assert actions == {"alpha": "stored", "refused": "failed", "zulu": "stored"}
    for label in ("alpha", "zulu"):
        assert backend.get(derive_query_key(owner.public_key, label), CLOCK) is not None
    assert backend.get(refused, CLOCK) is None
