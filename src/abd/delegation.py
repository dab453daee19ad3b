"""Delegation expressions and their wire and text forms.

A delegation gives an attribute away: ``issuer.attr <- expression``. The
expression is a set of entries that must ALL hold (a conjunction); each entry
is a subject key plus an attribute trail:

    trail length 0   the subject key itself
    trail length 1   subject.attr
    trail length n   subject.a1.a2...an, resolved left to right

Multiple ATTR records under one label are alternatives (a disjunction).

Text grammar: terms joined by ``&``; each term is a subject (64 hex chars or
a local petname) followed by dot-separated labels. Expressions always render
and parse against a local petname table; keys never appear in records as
names, only as raw bytes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional

from .core import (
    DAYS,
    KEY_LEN,
    U16,
    U32,
    NamespaceKey,
    Reader,
    RecordType,
    ResourceRecord,
    check_label,
    pack_label,
    valid_label,
)
from .errors import DecodeError, DuplicateDelegation, ParseError, UnknownPetname
from .namestore import NamespaceStore

DEFAULT_RECORD_LIFETIME_US = 30 * DAYS

# Most decoded delegation payloads remembered by decode_attr_payload.
DECODED_CACHE_SIZE = 8_192


@dataclass(frozen=True)
class DelegationSetEntry:
    """One conjunct: a subject key and the attribute trail it must satisfy."""

    subject: bytes
    trail: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.subject) != KEY_LEN:
            raise ValueError(f"subject must be {KEY_LEN} bytes")
        for label in self.trail:
            check_label(label)


@dataclass(frozen=True)
class DelegationExpression:
    entries: tuple[DelegationSetEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a delegation expression needs at least one entry")


def expression(terms: Iterable[tuple[bytes, Iterable[str]]]) -> DelegationExpression:
    return DelegationExpression(
        entries=tuple(DelegationSetEntry(subject=s, trail=tuple(t)) for s, t in terms)
    )


# --- wire format -------------------------------------------------------------


def encode_attr_payload(expr: DelegationExpression) -> bytes:
    out = bytearray(U32.pack(len(expr.entries)))
    for entry in expr.entries:
        out += entry.subject
        out += U16.pack(len(entry.trail))
        for label in entry.trail:
            out += pack_label(label)
    return bytes(out)


@lru_cache(maxsize=DECODED_CACHE_SIZE)
def decode_attr_payload(data: bytes) -> DelegationExpression:
    """Decode one ATTR payload; a repeat of a payload decoded before is a
    table lookup.

    The result is frozen, so callers can share it. A DecodeError propagates
    and is not remembered. ``data`` must be hashable (``bytes``).
    """
    reader = Reader(data)
    (entry_count,) = reader.unpack(U32, "entry count")
    if entry_count == 0:
        raise DecodeError("delegation payload with zero entries", 0)
    entries = []
    for _ in range(entry_count):
        subject = reader.take(KEY_LEN, "subject key")
        (trail_count,) = reader.unpack(U16, "trail count")
        trail = tuple(reader.label("label") for _ in range(trail_count))
        entries.append(DelegationSetEntry(subject=subject, trail=trail))
    reader.end("last entry")
    return DelegationExpression(entries=tuple(entries))


# --- text form ---------------------------------------------------------------


def parse_expression(
    text: str, petnames: Optional[Mapping[str, bytes]] = None
) -> DelegationExpression:
    """Parse ``subject(.label)*`` terms joined by ``&``."""
    petnames = petnames or {}
    entries = []
    offset = 0
    terms = text.split("&")
    for term in terms:
        stripped = term.strip()
        position = offset + term.index(stripped) if stripped else offset
        offset += len(term) + 1
        if not stripped:
            raise ParseError("empty term", position)
        parts = stripped.split(".")
        subject_text = parts[0]
        if len(subject_text) == 2 * KEY_LEN and all(
            c in "0123456789abcdef" for c in subject_text
        ):
            subject = bytes.fromhex(subject_text)
        elif subject_text in petnames:
            subject = petnames[subject_text]
        else:
            raise UnknownPetname(
                f"subject {subject_text!r} is neither a hex key nor a known petname"
            )
        trail = []
        label_pos = position + len(subject_text) + 1
        for label in parts[1:]:
            if not valid_label(label):
                raise ParseError(f"invalid label {label!r}", label_pos)
            trail.append(label)
            label_pos += len(label) + 1
        entries.append(DelegationSetEntry(subject=subject, trail=tuple(trail)))
    return DelegationExpression(entries=tuple(entries))


def render_expression(
    expr: DelegationExpression, names_by_key: Optional[Mapping[bytes, str]] = None
) -> str:
    """Inverse of parse_expression, preferring petnames when known."""
    names_by_key = names_by_key or {}
    terms = []
    for entry in expr.entries:
        subject = names_by_key.get(entry.subject, entry.subject.hex())
        terms.append(".".join([subject, *entry.trail]))
    return " & ".join(terms)


def render_term(
    subject: bytes,
    trail: Iterable[str],
    names_by_key: Optional[Mapping[bytes, str]] = None,
) -> str:
    names_by_key = names_by_key or {}
    return ".".join([names_by_key.get(subject, subject.hex()), *trail])


# --- issuer-side operations --------------------------------------------------


def delegation_record(
    expr: DelegationExpression,
    *,
    clock: int,
    lifetime_us: int = DEFAULT_RECORD_LIFETIME_US,
    relative: bool = False,
) -> ResourceRecord:
    expiration = lifetime_us if relative else clock + lifetime_us
    return ResourceRecord(
        record_type=RecordType.ATTR,
        payload=encode_attr_payload(expr),
        expiration_us=expiration,
        relative=relative,
    )


def add_delegation(
    store: NamespaceStore,
    issuer: NamespaceKey,
    attribute: str,
    expr: DelegationExpression,
    *,
    clock: int,
    lifetime_us: int = DEFAULT_RECORD_LIFETIME_US,
    relative: bool = False,
) -> ResourceRecord:
    """Append one alternative under ``issuer.attribute``.

    The record only becomes resolvable by others once the namespace is
    published. Adding an expression already present under the label raises
    DuplicateDelegation.
    """
    existing = store.entry(issuer.public_key, attribute)
    record = delegation_record(
        expr, clock=clock, lifetime_us=lifetime_us, relative=relative
    )
    records = list(existing.records) if existing else []
    if any(
        r.record_type == RecordType.ATTR and r.payload == record.payload
        for r in records
    ):
        raise DuplicateDelegation(
            f"delegation already present under {attribute!r}"
        )
    records.append(record)
    store.store(issuer, attribute, records)
    return record


def remove_delegation(
    store: NamespaceStore,
    issuer: NamespaceKey,
    attribute: str,
    expr: DelegationExpression,
) -> bool:
    """Remove one alternative; returns False when it was not present.

    Removing the last record leaves an explicit empty set, which publishes
    as a deletion.
    """
    existing = store.entry(issuer.public_key, attribute)
    payload = encode_attr_payload(expr)
    if existing is None:
        return False
    kept = [
        r
        for r in existing.records
        if not (r.record_type == RecordType.ATTR and r.payload == payload)
    ]
    if len(kept) == len(existing.records):
        return False
    store.store(issuer, attribute, kept)
    return True


def list_delegations(
    store: NamespaceStore, issuer_pub: bytes
) -> list[tuple[str, DelegationExpression, ResourceRecord]]:
    out = []
    for label, record_set in sorted(store.load_namespace(issuer_pub).items()):
        for record in record_set.records:
            if record.record_type != RecordType.ATTR:
                continue
            out.append((label, decode_attr_payload(record.payload), record))
    return out
