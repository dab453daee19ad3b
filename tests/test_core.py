"""Keys, records, and the canonical wire format."""
from __future__ import annotations

import dataclasses
import hashlib
import struct
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from abd import core
from abd.authz import build_response
from abd.core import (
    NamespaceKey,
    RecordSet,
    RecordType,
    ResourceRecord,
    canonical_deserialize,
    canonical_serialize,
    check_label,
    sign_record_set,
)
from abd.credential import issue_credential, verify_credential
from abd.errors import DecodeError, InvalidLabel, KeyMismatch, MissingPrivateKey
from abd.netsim import admits, derive_query_key

# Ed25519 public key for the all-zeros seed, computed once from the raw
# primitive and frozen here.
SEED_ZERO_PUB_HEX = "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"

CLOCK = 1_700_000_000_000_000


def make_key(tag: bytes = b"k") -> NamespaceKey:
    return NamespaceKey.generate(seed=tag.ljust(32, b"\0"))


def attr_record(payload: bytes, expiration: int = CLOCK + 1_000_000) -> ResourceRecord:
    return ResourceRecord(RecordType.ATTR, payload, expiration)


def signed_for_itself(rset: RecordSet) -> bool:
    """The admission rule asked for the set's own query key, so its
    signature alone decides."""
    return admits(derive_query_key(rset.public_key, rset.label), rset)


def entity_payload(subject_tag: bytes) -> bytes:
    # Hand-packed single-entity delegation payload: entry count u32, then a
    # 32-byte subject key and a u16 zero trail count. Kept independent of the
    # production encoder on purpose.
    subject = subject_tag.ljust(32, b"\0")[:32]
    return struct.pack(">I", 1) + subject + struct.pack(">H", 0)


# --- key generation ---------------------------------------------------------


def test_seeded_generation_is_deterministic():
    a = NamespaceKey.generate(seed=bytes(32))
    b = NamespaceKey.generate(seed=bytes(32))
    assert a.public_key == b.public_key == bytes.fromhex(SEED_ZERO_PUB_HEX)
    assert a == b


def test_unseeded_generation_is_distinct():
    assert NamespaceKey.generate().public_key != NamespaceKey.generate().public_key


def test_keys_equal_iff_public_keys_equal():
    a = NamespaceKey.generate(seed=bytes(32))
    public_only = NamespaceKey(public_key=a.public_key)
    assert public_only == a
    assert public_only.private_key is None


def test_sign_without_private_key_raises():
    key = NamespaceKey(public_key=make_key().public_key)
    with pytest.raises(MissingPrivateKey):
        key.sign(b"message")


def test_a_private_key_of_another_public_key_is_refused():
    other = NamespaceKey.generate(seed=b"other".ljust(32, b"\0"))
    key = NamespaceKey(public_key=make_key().public_key, private_key=other.private_key)
    with pytest.raises(KeyMismatch):
        key.sign(b"message")
    with pytest.raises(KeyMismatch):
        key.check_private()
    make_key().check_private()


# --- record encoding --------------------------------------------------------


def test_record_canonical_bytes_layout():
    # Independently hand-packed: type u32 | flags u32 | expiration u64 |
    # payload_len u32 | payload, all big-endian.
    record = ResourceRecord(RecordType.ATTR, b"hi", 2)
    expected = struct.pack(">IIQI", 1, 0, 2, 2) + b"hi"
    assert record.canonical_bytes() == expected

    relative = ResourceRecord(RecordType.CRED, b"", 3_600_000_000, relative=True)
    assert relative.canonical_bytes() == struct.pack(">IIQI", 2, 1, 3_600_000_000, 0)


def test_relative_records_never_count_as_expired():
    record = ResourceRecord(RecordType.ATTR, b"x", 10, relative=True)
    assert not record.is_expired(10**18)
    stamped = record.stamped(100)
    assert stamped.expiration_us == 110
    assert not stamped.relative
    assert stamped.is_expired(110)  # expiration <= clock means expired
    assert not stamped.is_expired(109)


# --- record set signing -----------------------------------------------------


def test_sign_and_verify_round_trip():
    key = make_key()
    rset = sign_record_set(key, "user", [attr_record(entity_payload(b"\x01\x02"))])
    assert signed_for_itself(rset)


def test_signing_bytes_layout_matches_hand_packed():
    key = make_key()
    record = attr_record(b"\xaa\xbb\xcc")
    rset = sign_record_set(key, "user", [record])
    expected = (
        b"ABD-RRSET-V1"
        + key.public_key
        + struct.pack(">H", 4)
        + b"user"
        + struct.pack(">I", 1)
        + record.canonical_bytes()
    )
    assert rset.signing_bytes() == expected
    assert canonical_serialize(rset) == expected + rset.signature


def test_verify_rejects_flipped_payload_bit():
    key = make_key()
    rset = sign_record_set(key, "user", [attr_record(entity_payload(b"\x01\x02"))])
    tampered = RecordSet(
        public_key=rset.public_key,
        label=rset.label,
        records=(attr_record(entity_payload(b"\x01\x03")),),
        signature=rset.signature,
    )
    assert not signed_for_itself(tampered)


def test_verify_rejects_wrong_key():
    key = make_key(b"a")
    other = make_key(b"b")
    rset = sign_record_set(key, "user", [attr_record(entity_payload(b"\x01"))])
    moved = dataclasses.replace(rset, public_key=other.public_key)
    assert not signed_for_itself(moved)
    assert not admits(derive_query_key(key.public_key, "user"), moved)


def test_verify_rejects_expired_record():
    key = make_key()
    payload = entity_payload(b"\x01")
    rset = sign_record_set(key, "user", [attr_record(payload, expiration=CLOCK - 1)])
    assert signed_for_itself(rset)  # expiry is not the signature's concern
    assert not rset.has_live_record(CLOCK)
    # One microsecond before expiration the set is still good.
    rset2 = sign_record_set(key, "user", [attr_record(payload, expiration=CLOCK + 1)])
    assert rset2.has_live_record(CLOCK)


def test_empty_record_set_is_legal_and_verifies():
    key = make_key()
    rset = sign_record_set(key, "user", [])
    assert rset.records == ()
    assert signed_for_itself(rset)


def test_signature_independent_of_insertion_order():
    key = make_key()
    payloads = [entity_payload(t) for t in (b"\x01", b"\x02", b"\x03")]
    records = [attr_record(payloads[1]), attr_record(payloads[0]), attr_record(payloads[2])]
    a = sign_record_set(key, "user", records)
    b = sign_record_set(key, "user", list(reversed(records)))
    assert canonical_serialize(a) == canonical_serialize(b)
    assert [r.payload for r in a.records] == payloads


def test_invalid_label_rejected():
    key = make_key()
    for label in ("", "UPPER", "has.dot", "x" * 64, "spa ce", "newline\n"):
        with pytest.raises(InvalidLabel):
            sign_record_set(key, label, [])
    # 63 characters is the longest legal label.
    sign_record_set(key, "x" * 63, [])


def test_a_rejected_label_is_quoted_short():
    with pytest.raises(InvalidLabel) as info:
        check_label("a" * 70_000)
    assert len(str(info.value)) < 100
    assert "70000 characters" in str(info.value)
    with pytest.raises(InvalidLabel, match="'UPPER'"):
        check_label("UPPER")


# --- canonical serialization ------------------------------------------------


def test_serialize_deserialize_round_trip():
    key = make_key()
    rset = sign_record_set(
        key,
        "role",
        [
            attr_record(b"\x01\x02"),
            ResourceRecord(RecordType.CRED, b"credbytes", 7_200_000_000, relative=True),
        ],
    )
    assert canonical_deserialize(canonical_serialize(rset)) == rset


def test_a_set_with_its_bytes_computed_equals_a_fresh_decode():
    rset = sign_record_set(make_key(), "role", [attr_record(b"\x01"), attr_record(b"\x02")])
    data = canonical_serialize(rset)
    assert rset.has_live_record(CLOCK)
    fresh = canonical_deserialize(data)
    assert fresh == rset and hash(fresh) == hash(rset)
    assert canonical_serialize(fresh) == data
    assert fresh.signing_bytes() == dataclasses.replace(fresh).signing_bytes()


def test_liveness_bound_matches_the_records():
    key = make_key()
    early, late = CLOCK + 10, CLOCK + 20
    rset = sign_record_set(key, "role", [attr_record(b"\x01", late), attr_record(b"\x02", early)])
    assert [rset.min_expiration(c) for c in (CLOCK, early, late)] == [early, late, None]
    assert [rset.has_live_record(c) for c in (early, late - 1, late)] == [True, True, False]
    relative = sign_record_set(
        key, "role", [ResourceRecord(RecordType.ATTR, b"\x03", 1_000, relative=True)]
    )
    assert relative.has_live_record(2**64) and relative.min_expiration(CLOCK) is None
    assert not sign_record_set(key, "role", []).has_live_record(0)


def test_live_records_skip_the_filter_until_the_earliest_expiration():
    key = make_key()
    early, late = CLOCK + 10, CLOCK + 20
    first, second = attr_record(b"\x01", late), attr_record(b"\x02", early)
    rset = sign_record_set(key, "role", [first, second])
    # Below the earliest expiration the set's own tuple comes back whole.
    assert rset.live_records(early - 1) is rset.records
    assert rset.live_records(early) == (first,)
    assert rset.live_records(late) == ()
    relative = sign_record_set(
        key, "role", [ResourceRecord(RecordType.ATTR, b"\x03", 1_000, relative=True)]
    )
    assert relative.live_records(2**64) is relative.records


def test_deserialize_reports_offset_of_truncation():
    key = make_key()
    data = canonical_serialize(sign_record_set(key, "user", [attr_record(b"\x01")]))
    with pytest.raises(DecodeError) as exc:
        canonical_deserialize(data[:-1])
    assert exc.value.offset <= len(data) - 1

    with pytest.raises(DecodeError):
        canonical_deserialize(data + b"\x00")  # trailing garbage

    with pytest.raises(DecodeError) as exc:
        canonical_deserialize(b"NOT-A-RECORD-SET" + data)
    assert exc.value.offset == 0


def test_deserialize_rejects_unknown_flags():
    key = make_key()
    record = attr_record(b"\x01")
    body = (
        b"ABD-RRSET-V1"
        + key.public_key
        + struct.pack(">H", 4)
        + b"user"
        + struct.pack(">I", 1)
        + struct.pack(">IIQI", 1, 0x80, record.expiration_us, 1)
        + b"\x01"
    )
    with pytest.raises(DecodeError):
        canonical_deserialize(body + bytes(64))


@given(
    subjects=st.lists(st.binary(min_size=32, max_size=32), max_size=5),
    label=st.from_regex(r"[a-z0-9_-]{1,63}", fullmatch=True),
)
def test_round_trip_property(subjects, label):
    key = make_key()
    records = [attr_record(entity_payload(s)) for s in subjects]
    rset = sign_record_set(key, label, records)
    again = canonical_deserialize(canonical_serialize(rset))
    assert again == rset
    assert signed_for_itself(again)


@given(st.data())
def test_serialization_injective_on_distinct_payload_sets(data):
    key = make_key()
    a = data.draw(st.sets(st.binary(min_size=32, max_size=32), max_size=4))
    b = data.draw(st.sets(st.binary(min_size=32, max_size=32), max_size=4))
    ra = sign_record_set(key, "user", [attr_record(entity_payload(p)) for p in a])
    rb = sign_record_set(key, "user", [attr_record(entity_payload(p)) for p in b])
    assert (canonical_serialize(ra) == canonical_serialize(rb)) == (a == b)


# --- signature check cache ----------------------------------------------------


def flip(data: bytes, index: int) -> bytes:
    """``data`` with one bit of the byte at ``index`` changed."""
    index %= len(data)
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1 :]


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty table for one test; the process-wide one is put back after."""
    monkeypatch.setattr(core, "_verified", OrderedDict())


def test_a_repeated_success_skips_the_ed25519_check(fresh_table, monkeypatch):
    key = make_key(b"repeat")
    message = b"checked once"
    signature = key.sign(message)
    checks = []
    real = core.Ed25519PublicKey

    class Counting:
        @staticmethod
        def from_public_bytes(data):
            checks.append(data)
            return real.from_public_bytes(data)

    monkeypatch.setattr(core, "Ed25519PublicKey", Counting)
    for _ in range(3):
        assert core.verify_signature(key.public_key, signature, message)
    assert len(checks) == 1


def test_failures_are_not_remembered(fresh_table):
    key = make_key(b"forged")
    for _ in range(2):
        assert not core.verify_signature(key.public_key, bytes(64), b"message")
    assert len(core._verified) == 0


@pytest.mark.parametrize("part", [0, 1, 2], ids=["public-key", "signature", "message"])
@pytest.mark.parametrize("index", [0, -1], ids=["first-byte", "last-byte"])
def test_a_cached_success_does_not_cover_a_changed_byte(fresh_table, part, index):
    key = make_key(b"cached")
    message = b"a message checked before"
    args = [key.public_key, key.sign(message), message]
    assert core.verify_signature(*args)
    assert core.verify_signature(*args)  # answered from the table
    args[part] = flip(args[part], index)
    assert not core.verify_signature(*args)


def test_a_cached_record_set_fails_once_its_payload_changes(fresh_table):
    rset = sign_record_set(make_key(), "user", [attr_record(entity_payload(b"\x01"))])
    assert signed_for_itself(rset)
    (record,) = rset.records
    changed = dataclasses.replace(record, payload=flip(record.payload, -1))
    assert not signed_for_itself(dataclasses.replace(rset, records=(changed,)))
    assert signed_for_itself(rset)


def test_a_cached_credential_fails_once_its_attribute_changes(fresh_table):
    issuer, subject = make_key(b"issuer"), make_key(b"subject")
    credential = issue_credential(
        issuer, subject.public_key, "employee", clock=CLOCK, lifetime_us=1_000_000
    )
    assert verify_credential(credential, CLOCK)
    renamed = dataclasses.replace(credential, attribute="employef")
    assert not verify_credential(renamed, CLOCK)
    assert verify_credential(credential, CLOCK)


def test_a_signed_record_set_enters_the_table_and_a_response_or_credential_does_not(
    fresh_table,
):
    issuer, subject = make_key(b"issuer"), make_key(b"subject")
    build_response(subject, b"\x07" * 16, {})
    issue_credential(issuer, subject.public_key, "employee", clock=CLOCK, lifetime_us=1_000_000)
    assert len(core._verified) == 0
    sign_record_set(issuer, "user", [])
    assert len(core._verified) == 1


def test_a_cached_response_fails_once_its_nonce_changes(fresh_table):
    response = build_response(make_key(b"subject"), b"\x07" * 16, {})

    def check(r):
        return core.verify_signature(r.subject, r.signature, r.signing_bytes())

    assert check(response)
    assert not check(dataclasses.replace(response, nonce=flip(response.nonce, 0)))
    assert check(response)


def test_the_table_holds_at_most_its_bound_and_drops_the_least_recent(
    fresh_table, monkeypatch
):
    monkeypatch.setattr(core, "VERIFIED_CACHE_SIZE", 8)
    key = make_key(b"bound")
    signed = [(b"m%d" % i, key.sign(b"m%d" % i)) for i in range(20)]
    for message, signature in signed:
        assert core.verify_signature(key.public_key, signature, message)
        assert len(core._verified) <= 8

    def cached(message, signature):
        return hashlib.sha256(key.public_key + signature + message).digest() in core._verified

    assert [cached(*pair) for pair in signed] == [False] * 12 + [True] * 8
    # A hit makes the oldest entry the newest, so the next success evicts
    # the second oldest instead.
    assert core.verify_signature(key.public_key, signed[12][1], signed[12][0])
    message = b"one more"
    assert core.verify_signature(key.public_key, key.sign(message), message)
    assert cached(*signed[12]) and not cached(*signed[13])
    assert len(core._verified) == 8


def test_concurrent_checks_get_the_right_answers(fresh_table, monkeypatch):
    # A small bound makes the threads insert and evict while others look up.
    monkeypatch.setattr(core, "VERIFIED_CACHE_SIZE", 16)
    key = make_key(b"threads")
    cases = []
    for i in range(40):
        message = b"t%d" % i
        signature = key.sign(message)
        cases += [(signature, message, True), (signature, message + b"!", False)]
    wrong = []

    def worker(offset: int) -> None:
        for signature, message, expected in (cases[offset:] + cases[:offset]) * 3:
            if core.verify_signature(key.public_key, signature, message) is not expected:
                wrong.append((message, expected))

    threads = [threading.Thread(target=worker, args=(i * 10,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(core._verified) <= 16
