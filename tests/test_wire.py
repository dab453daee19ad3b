"""The three wire decoders: every input is decoded exactly or rejected.

Record sets, delegation payloads and credential payloads all arrive from
outside the process. For any byte string a decoder must either raise
DecodeError or return a value whose encoding is exactly those bytes.
"""
from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from abd.core import (
    RECORD_SET_CONTEXT,
    RecordSet,
    ResourceRecord,
    canonical_deserialize,
    canonical_serialize,
    sort_records,
)
from abd.credential import Credential, decode_cred_payload
from abd.delegation import decode_attr_payload, encode_attr_payload, expression
from abd.errors import DecodeError


def encode_record_set(value: RecordSet) -> bytes:
    """Encode from the fields alone: a decoded set carries the bytes it was
    decoded from as its signing bytes, and a copy does not."""
    return canonical_serialize(dataclasses.replace(value))


DECODERS = {
    "record set": (canonical_deserialize, encode_record_set),
    "delegation": (decode_attr_payload, encode_attr_payload),
    "credential": (decode_cred_payload, Credential.canonical_bytes),
}

keys = st.binary(min_size=32, max_size=32)
signatures = st.binary(min_size=64, max_size=64)
labels = st.from_regex(r"[a-z0-9_-]{1,8}", fullmatch=True)
u64 = st.integers(min_value=0, max_value=2**64 - 1)

expressions = st.lists(
    st.tuples(keys, st.lists(labels, max_size=3)), min_size=1, max_size=3
).map(expression)

records = st.builds(
    ResourceRecord,
    record_type=st.sampled_from([1, 2, 7]),
    payload=st.binary(max_size=8) | expressions.map(encode_attr_payload),
    expiration_us=u64,
    relative=st.booleans(),
)

# Decoding never checks a signature, so random signatures give valid encodings.
record_sets = st.builds(
    RecordSet,
    public_key=keys,
    label=labels,
    records=st.lists(records, max_size=3).map(sort_records),
    signature=signatures,
)

credentials = st.builds(
    Credential,
    issuer=keys,
    subject=keys,
    attribute=labels,
    expiration_us=u64,
    signature=signatures,
)

encodings = st.one_of(
    record_sets.map(lambda v: ("record set", canonical_serialize(v))),
    expressions.map(lambda v: ("delegation", encode_attr_payload(v))),
    credentials.map(lambda v: ("credential", v.canonical_bytes())),
)


def decodes_exactly_or_rejects(kind: str, data: bytes) -> None:
    decode, encode = DECODERS[kind]
    try:
        value = decode(data)
    except DecodeError as exc:
        assert 0 <= exc.offset <= len(data)
        return
    assert encode(value) == data


@given(encodings)
def test_valid_encodings_round_trip_and_truncations_are_rejected_or_exact(encoded):
    kind, data = encoded
    decode, encode = DECODERS[kind]
    assert encode(decode(data)) == data
    for cut in range(len(data)):
        decodes_exactly_or_rejects(kind, data[:cut])


@settings(max_examples=300)
@given(encodings, st.data())
def test_substitutions_and_insertions_are_rejected_or_exact(encoded, data):
    kind, raw = encoded
    mutated = bytearray(raw)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        index = data.draw(st.integers(min_value=0, max_value=len(mutated)))
        if data.draw(st.booleans()) and index < len(mutated):
            mutated[index] = data.draw(st.integers(min_value=0, max_value=255))
        else:
            mutated[index:index] = data.draw(st.binary(min_size=1, max_size=4))
    decodes_exactly_or_rejects(kind, bytes(mutated))


# --- offsets -------------------------------------------------------------------

KEY = bytes(range(32))
SIGNATURE = bytes(64)
CONTEXT_LEN = len(RECORD_SET_CONTEXT)


def packed_label(raw: bytes) -> bytes:
    return struct.pack(">H", len(raw)) + raw


def record_set_bytes(label: bytes, flags: int = 0) -> bytes:
    header = struct.pack(">IIQI", 1, flags, 5, 1)
    return (
        RECORD_SET_CONTEXT
        + KEY
        + packed_label(label)
        + struct.pack(">I", 1)
        + header
        + b"\x01"
        + SIGNATURE
    )


def delegation_bytes(label: bytes) -> bytes:
    return struct.pack(">I", 1) + KEY + struct.pack(">H", 1) + packed_label(label)


def credential_bytes(label: bytes) -> bytes:
    return KEY + KEY + struct.pack(">Q", 5) + packed_label(label) + SIGNATURE


@pytest.mark.parametrize(
    "label, message",
    [
        (b"Bad", "invalid"),
        (b"", "invalid"),
        (b"line\n", "invalid"),
        (b"\xff\xfe", "not valid UTF-8"),
    ],
    ids=["uppercase", "empty", "trailing-newline", "not-utf8"],
)
@pytest.mark.parametrize(
    "kind, build, offset",
    [
        ("record set", record_set_bytes, CONTEXT_LEN + 32 + 2),
        ("delegation", delegation_bytes, 4 + 32 + 2 + 2),
        ("credential", credential_bytes, 32 + 32 + 8 + 2),
    ],
    ids=["record-set", "delegation", "credential"],
)
def test_a_bad_label_is_reported_at_its_first_byte(kind, build, offset, label, message):
    decode, _ = DECODERS[kind]
    assert decode(build(b"ok"))
    with pytest.raises(DecodeError) as exc:
        decode(build(label))
    assert exc.value.offset == offset
    assert message in str(exc.value)


def test_unknown_flags_are_reported_at_the_flags_word():
    assert canonical_deserialize(record_set_bytes(b"user", flags=1)).records[0].relative
    header_start = CONTEXT_LEN + 32 + 2 + 4 + 4
    with pytest.raises(DecodeError) as exc:
        canonical_deserialize(record_set_bytes(b"user", flags=0x80))
    assert exc.value.offset == header_start + 4
    assert "unknown flags" in str(exc.value)
