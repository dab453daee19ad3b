"""Namespace keys, resource records, and the canonical wire format.

Everything that ends up signed or hashed lives here. Layouts are big-endian
and fully deterministic: equal inputs produce byte-identical encodings, so
record sets can be compared, deduplicated, and replicated by value.

Time is always microseconds since the Unix epoch (UTC), passed explicitly.
Nothing in this module reads the wall clock.
"""
from __future__ import annotations

import bisect
import hashlib
import math
import re
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import (
    DecodeError,
    InvalidLabel,
    KeyMismatch,
    MissingPrivateKey,
)

KEY_LEN = 32
SIGNATURE_LEN = 64
LABEL_RE = re.compile(r"[a-z0-9_-]{1,63}")

# Most successful signature checks remembered by verify_signature.
VERIFIED_CACHE_SIZE = 8_192

# Characters of a client-supplied string that an error message quotes.
CLIP_CHARS = 32

# Domain-separation tag for record set signatures.
RECORD_SET_CONTEXT = b"ABD-RRSET-V1"

# Bit 0 of the flags word: expiration is a relative duration, stamped to an
# absolute timestamp when the record is published.
FLAG_RELATIVE_EXPIRATION = 0x01

MILLISECONDS = 1_000
SECONDS = 1_000_000
MINUTES = 60 * SECONDS
HOURS = 60 * MINUTES
DAYS = 24 * HOURS


class RecordType(IntEnum):
    ATTR = 1
    CRED = 2


def valid_label(label: str) -> bool:
    return bool(LABEL_RE.fullmatch(label))


def clip(text: str) -> str:
    """Quote a client-supplied string for an error message, cut to
    CLIP_CHARS characters plus its length, so a reply never echoes it whole."""
    if len(text) <= CLIP_CHARS:
        return repr(text)
    return f"{text[:CLIP_CHARS]!r}... ({len(text)} characters)"


def check_label(label: str) -> str:
    if not valid_label(label):
        raise InvalidLabel(f"invalid label: {clip(label)}")
    return label


# --- wire primitives ----------------------------------------------------------

U16 = struct.Struct(">H")
U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")
# record type, flags, expiration, payload length
_RECORD_HEADER = struct.Struct(">IIQI")


def pack_label(label: str) -> bytes:
    """A label on the wire: u16 byte length, then its UTF-8 bytes."""
    encoded = label.encode("utf-8")
    return U16.pack(len(encoded)) + encoded


class Reader:
    """A bounds-checked cursor over bytes that came from outside.

    Every failure raises DecodeError carrying the offset where it happened,
    so a decoder built on it can raise nothing else.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = bytes(data)
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        start = self.pos
        if start + n > len(self.data):
            raise DecodeError(f"truncated {what}", start)
        self.pos = start + n
        return self.data[start : self.pos]

    def unpack(self, layout: struct.Struct, what: str) -> tuple:
        return layout.unpack(self.take(layout.size, what))

    def label(self, what: str) -> str:
        """A label written by pack_label; it must be valid."""
        (length,) = self.unpack(U16, f"{what} length")
        start = self.pos
        try:
            label = self.take(length, what).decode("utf-8")
        except UnicodeDecodeError:
            raise DecodeError(f"{what} is not valid UTF-8", start)
        if not valid_label(label):
            raise DecodeError(f"invalid {what} {clip(label)}", start)
        return label

    def end(self, what: str) -> None:
        if self.pos != len(self.data):
            raise DecodeError(f"trailing bytes after {what}", self.pos)


@dataclass(frozen=True)
class NamespaceKey:
    """An Ed25519 keypair naming a namespace.

    The 32-byte public key is the namespace's global identity. The private
    half is optional; holders of the public half can verify but not sign.
    Two keys are equal iff their public keys are byte-equal.
    """

    public_key: bytes
    private_key: Optional[bytes] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.public_key) != KEY_LEN:
            raise ValueError(f"public key must be {KEY_LEN} bytes")
        if self.private_key is not None and len(self.private_key) != KEY_LEN:
            raise ValueError(f"private key must be {KEY_LEN} bytes")

    @classmethod
    def generate(cls, seed: Optional[bytes] = None) -> "NamespaceKey":
        """Create a keypair. A 32-byte seed makes generation deterministic."""
        if seed is None:
            private = Ed25519PrivateKey.generate()
            seed_bytes = private.private_bytes_raw()
        else:
            if len(seed) != KEY_LEN:
                raise ValueError(f"seed must be {KEY_LEN} bytes")
            seed_bytes = seed
            private = Ed25519PrivateKey.from_private_bytes(seed)
        public = private.public_key().public_bytes_raw()
        return cls(public_key=public, private_key=seed_bytes)

    @property
    def hex(self) -> str:
        return self.public_key.hex()

    @property
    def has_private(self) -> bool:
        return self.private_key is not None

    @cached_property
    def _signer(self) -> Ed25519PrivateKey:
        # Built and checked once per key: building it costs about as much as
        # a signature. A private key that derives another public key would
        # sign sets that no one can verify.
        if self.private_key is None:
            raise MissingPrivateKey(
                f"namespace {self.hex[:16]}... has no private key"
            )
        signer = Ed25519PrivateKey.from_private_bytes(self.private_key)
        if signer.public_key().public_bytes_raw() != self.public_key:
            raise KeyMismatch(
                f"the private key held for namespace {self.hex[:16]}... "
                "belongs to another public key"
            )
        return signer

    def check_private(self) -> None:
        """Raise unless this key can sign: MissingPrivateKey without a
        private half, KeyMismatch when it does not derive the public key."""
        self._signer

    def sign(self, message: bytes) -> bytes:
        return self._signer.sign(message)


# sha256(public key || signature || message) of each successful check, least
# recently used first. Both lengths are fixed before a lookup, so the
# concatenation is unambiguous and any changed byte is a different key.
_verified: OrderedDict[bytes, None] = OrderedDict()
_verified_lock = threading.Lock()


def verify_signature(
    public_key: bytes, signature: bytes, message: bytes, remember: bool = True
) -> bool:
    """Ed25519 check; a repeat of a check that passed is a table lookup.

    Verification is deterministic, so a remembered success stays valid.
    Failures are not remembered: forged signatures cost their sender
    nothing and must not evict good entries. Pass ``remember=False`` for a
    signature that is never checked again, such as one over a single-use
    nonce, so it does not evict entries that could be hits. The table also
    holds each record-set signature ``sign_record_set`` made, entered
    without a check: its key is known to derive the public key.
    """
    if len(public_key) != KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    digest = hashlib.sha256(public_key + signature + message).digest()
    with _verified_lock:
        if digest in _verified:
            _verified.move_to_end(digest)
            return True
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    if remember:
        _remember(digest)
    return True


def _remember(digest: bytes) -> None:
    """Enter a good signature's digest in the table, evicting the oldest."""
    with _verified_lock:
        _verified[digest] = None
        if len(_verified) > VERIFIED_CACHE_SIZE:
            _verified.popitem(last=False)


@dataclass(frozen=True)
class ResourceRecord:
    """One typed payload with an expiration.

    ``expiration_us`` is an absolute timestamp unless ``relative`` is set, in
    which case it is a duration to be stamped at publish time.
    """

    record_type: int
    payload: bytes
    expiration_us: int
    relative: bool = False

    def __post_init__(self) -> None:
        if self.expiration_us < 0 or self.expiration_us > 0xFFFFFFFFFFFFFFFF:
            raise ValueError("expiration out of u64 range")

    @property
    def flags(self) -> int:
        return FLAG_RELATIVE_EXPIRATION if self.relative else 0

    def is_expired(self, clock: int) -> bool:
        """Absolute records expire once the clock passes expiration."""
        if self.relative:
            return False
        return self.expiration_us <= clock

    def stamped(self, clock: int) -> "ResourceRecord":
        """Return the absolute form of this record as of ``clock``."""
        if not self.relative:
            return self
        return ResourceRecord(
            record_type=self.record_type,
            payload=self.payload,
            expiration_us=clock + self.expiration_us,
            relative=False,
        )

    def canonical_bytes(self) -> bytes:
        return (
            _RECORD_HEADER.pack(
                self.record_type, self.flags, self.expiration_us, len(self.payload)
            )
            + self.payload
        )


def _record_sort_key(record: ResourceRecord) -> tuple:
    # Payload bytes order the set; the full encoding breaks ties so the
    # serialization is total and injective.
    return (record.payload, record.canonical_bytes())


def sort_records(records: Iterable[ResourceRecord]) -> tuple[ResourceRecord, ...]:
    return tuple(sorted(records, key=_record_sort_key))


@dataclass(frozen=True)
class RecordSet:
    """All records published under one (namespace, label), signed as a unit.

    ``records`` is kept in canonical order; an empty tuple is legal and means
    "nothing delegated here". A set is a frozen value, so its signing bytes
    and its expirations are computed at most once, on first use, or handed
    over by sign_record_set and canonical_deserialize. They are not fields:
    equality, hashing and repr see only the four fields.
    """

    public_key: bytes
    label: str
    records: tuple[ResourceRecord, ...]
    signature: bytes

    @cached_property
    def _signing_bytes(self) -> bytes:
        return record_set_signing_bytes(self.public_key, self.label, self.records)

    @cached_property
    def _expirations(self) -> tuple[int, ...]:
        """Absolute record expirations, earliest first."""
        return tuple(sorted(r.expiration_us for r in self.records if not r.relative))

    @cached_property
    def live_until(self) -> float:
        """The set has a live record exactly while the clock is below this:
        the last absolute expiration, inf with a relative record (it never
        expires), -inf for an empty set."""
        if any(r.relative for r in self.records):
            return math.inf
        return self._expirations[-1] if self._expirations else -math.inf

    def signing_bytes(self) -> bytes:
        return self._signing_bytes

    def min_expiration(self, clock: int) -> Optional[int]:
        """Earliest absolute expiration among unexpired records, if any."""
        expirations = self._expirations
        index = bisect.bisect_right(expirations, clock)
        return expirations[index] if index < len(expirations) else None

    def has_live_record(self, clock: int) -> bool:
        return clock < self.live_until

    def live_records(self, clock: int) -> tuple[ResourceRecord, ...]:
        """The records unexpired at ``clock``, in canonical order. While the
        clock is below the earliest absolute expiration, that is every
        record, and no record is tested."""
        expirations = self._expirations
        if not expirations or clock < expirations[0]:
            return self.records
        return tuple(r for r in self.records if not r.is_expired(clock))


def record_set_signing_bytes(
    public_key: bytes, label: str, records: Iterable[ResourceRecord]
) -> bytes:
    ordered = sort_records(records)
    out = bytearray()
    out += RECORD_SET_CONTEXT
    out += public_key
    out += pack_label(label)
    out += U32.pack(len(ordered))
    for record in ordered:
        out += record.canonical_bytes()
    return bytes(out)


def sign_record_set(
    owner: NamespaceKey, label: str, records: Iterable[ResourceRecord]
) -> RecordSet:
    """Sign ``records`` under ``label`` in the owner's namespace.

    Records are sorted into canonical order first, so insertion order never
    leaks into the signature. The signature goes into the verified table:
    ``owner.sign`` has checked that the private key derives the public key,
    so the set's own first check would pass.
    """
    check_label(label)
    ordered = sort_records(records)
    message = record_set_signing_bytes(owner.public_key, label, ordered)
    signature = owner.sign(message)
    _remember(hashlib.sha256(owner.public_key + signature + message).digest())
    return _with_signing_bytes(
        RecordSet(
            public_key=owner.public_key,
            label=label,
            records=ordered,
            signature=signature,
        ),
        message,
    )


def _with_signing_bytes(record_set: RecordSet, message: bytes) -> RecordSet:
    """Give a new set the signing bytes its caller already holds: built from,
    or read off the wire for, exactly its fields. Only a new set may be
    given them; ``dataclasses.replace`` makes a set that computes its own."""
    record_set.__dict__["_signing_bytes"] = message
    return record_set


def canonical_serialize(record_set: RecordSet) -> bytes:
    return record_set.signing_bytes() + record_set.signature


def canonical_deserialize(data: bytes) -> RecordSet:
    """Inverse of canonical_serialize. Raises DecodeError with the offset
    of the first malformed byte; trailing garbage is an error."""
    reader = Reader(data)
    if reader.take(len(RECORD_SET_CONTEXT), "context tag") != RECORD_SET_CONTEXT:
        raise DecodeError("bad context tag", 0)
    public_key = reader.take(KEY_LEN, "public key")
    label = reader.label("label")
    (count,) = reader.unpack(U32, "record count")
    records = []
    for _ in range(count):
        header_start = reader.pos
        rtype, flags, expiration, payload_len = reader.unpack(
            _RECORD_HEADER, "record header"
        )
        if flags & ~FLAG_RELATIVE_EXPIRATION:
            raise DecodeError(f"unknown flags {flags:#x}", header_start + 4)
        records.append(
            ResourceRecord(
                record_type=rtype,
                payload=reader.take(payload_len, "record payload"),
                expiration_us=expiration,
                relative=bool(flags & FLAG_RELATIVE_EXPIRATION),
            )
        )
    signature = reader.take(SIGNATURE_LEN, "signature")
    reader.end("signature")
    ordered = sort_records(records)
    if tuple(records) != ordered:
        raise DecodeError("records not in canonical order", 0)
    # Canonical order is checked and every field re-encodes to the bytes it
    # came from, so the bytes before the signature are the signing bytes.
    return _with_signing_bytes(
        RecordSet(
            public_key=public_key,
            label=label,
            records=ordered,
            signature=signature,
        ),
        reader.data[: -SIGNATURE_LEN],
    )
