"""Credentials: signed attribute assertions held by their subject.

A credential states that an issuer granted one attribute to one subject key,
with an expiration. Credentials travel as JSON between parties, and a
holder keeps them as that JSON, in one file of its own in the local
namestore (``store_credential``). They are never published to the name
system; the only place a credential crosses the wire is inside the
subject's message to a verifier.

One rule decides whether a credential counts for a subject: ``refusal``. It
names the subject's key, and ``verify_credential`` passes: unexpired, and the
issuer's signature verifies. Discovery's credential index, the verifier's
check of a response's credential sets and ``verify_chain``'s leaf check all
ask it, so finding a chain and checking one agree on which credentials count.
``import_json`` keeps its own signature check: it is the JSON boundary, where
a forged credential is refused as malformed before its nonce is looked up.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    KEY_LEN,
    SIGNATURE_LEN,
    U64,
    NamespaceKey,
    Reader,
    check_label,
    pack_label,
    verify_signature,
)
from .errors import BadSignature, JsonError
from .namestore import NamespaceStore
from .netsim import NameSystemBackend, read_or_none, write_atomic

CREDENTIAL_CONTEXT = b"ABD-CRED-V1"


@dataclass(frozen=True)
class Credential:
    issuer: bytes
    subject: bytes
    attribute: str
    expiration_us: int
    signature: bytes

    def __post_init__(self) -> None:
        if len(self.issuer) != KEY_LEN or len(self.subject) != KEY_LEN:
            raise ValueError(f"keys must be {KEY_LEN} bytes")
        if not 0 <= self.expiration_us <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError("expiration out of u64 range")
        check_label(self.attribute)

    def signing_bytes(self) -> bytes:
        return credential_signing_bytes(
            self.issuer, self.subject, self.expiration_us, self.attribute
        )

    def canonical_bytes(self) -> bytes:
        """CRED payload: issuer | subject | expiration | attribute | signature."""
        return (
            self.issuer
            + self.subject
            + U64.pack(self.expiration_us)
            + pack_label(self.attribute)
            + self.signature
        )


def credential_signing_bytes(
    issuer: bytes, subject: bytes, expiration_us: int, attribute: str
) -> bytes:
    return (
        CREDENTIAL_CONTEXT
        + issuer
        + subject
        + U64.pack(expiration_us)
        + attribute.encode("utf-8")
    )


def issue_credential(
    issuer: NamespaceKey,
    subject_pub: bytes,
    attribute: str,
    *,
    clock: int,
    lifetime_us: int,
) -> Credential:
    """Sign an attribute over to ``subject_pub``.

    A zero lifetime produces a credential that is already expired; callers
    get exactly what they asked for.
    """
    check_label(attribute)
    expiration = clock + lifetime_us
    signature = issuer.sign(
        credential_signing_bytes(issuer.public_key, subject_pub, expiration, attribute)
    )
    return Credential(
        issuer=issuer.public_key,
        subject=subject_pub,
        attribute=attribute,
        expiration_us=expiration,
        signature=signature,
    )


def verify_credential(credential: Credential, clock: int) -> bool:
    """True iff the signature verifies and the credential is unexpired."""
    if credential.expiration_us <= clock:
        return False
    return verify_signature(
        credential.issuer, credential.signature, credential.signing_bytes()
    )


def refusal(credential: Credential, subject_pub: bytes, clock: int) -> Optional[str]:
    """None when ``credential`` counts for ``subject_pub`` at ``clock``,
    else why not: it names another key, or it is expired or forged."""
    if credential.subject != subject_pub:
        return "names a different subject"
    if not verify_credential(credential, clock):
        return "is expired or forged"
    return None


# --- CRED record codec --------------------------------------------------------


def decode_cred_payload(data: bytes) -> Credential:
    reader = Reader(data)
    issuer = reader.take(KEY_LEN, "issuer key")
    subject = reader.take(KEY_LEN, "subject key")
    (expiration,) = reader.unpack(U64, "expiration")
    attribute = reader.label("attribute")
    signature = reader.take(SIGNATURE_LEN, "signature")
    reader.end("signature")
    return Credential(
        issuer=issuer,
        subject=subject,
        attribute=attribute,
        expiration_us=expiration,
        signature=signature,
    )


# --- JSON transfer -------------------------------------------------------------

_JSON_FIELDS = ("issuer", "subject", "attribute", "expiration_us", "signature")


def export_json(credential: Credential) -> dict:
    return {
        "issuer": credential.issuer.hex(),
        "subject": credential.subject.hex(),
        "attribute": credential.attribute,
        "expiration_us": credential.expiration_us,
        "signature": credential.signature.hex(),
    }


def import_json(data: dict) -> Credential:
    """Parse and re-verify a credential received as JSON.

    Missing or ill-typed fields raise JsonError naming the field; a
    credential whose signature does not verify raises BadSignature.
    Expiration is deliberately not checked here: importing an expired
    credential is legal, using it is not.
    """
    if not isinstance(data, dict):
        raise JsonError("credential must be a JSON object")
    for name in _JSON_FIELDS:
        if name not in data:
            raise JsonError(f"missing field {name!r}")
    try:
        issuer = bytes.fromhex(data["issuer"])
    except (TypeError, ValueError):
        raise JsonError("issuer must be a hex string")
    try:
        subject = bytes.fromhex(data["subject"])
    except (TypeError, ValueError):
        raise JsonError("subject must be a hex string")
    attribute = data["attribute"]
    if not isinstance(attribute, str):
        raise JsonError("attribute must be a string")
    expiration = data["expiration_us"]
    if not isinstance(expiration, int) or isinstance(expiration, bool):
        raise JsonError("expiration_us must be an integer")
    try:
        signature = bytes.fromhex(data["signature"])
    except (TypeError, ValueError):
        raise JsonError("signature must be a hex string")
    try:
        credential = Credential(
            issuer=issuer,
            subject=subject,
            attribute=attribute,
            expiration_us=expiration,
            signature=signature,
        )
    except Exception as exc:
        raise JsonError(str(exc))
    if not verify_signature(issuer, signature, credential.signing_bytes()):
        raise BadSignature("imported credential signature does not verify")
    return credential


# --- holder-side storage --------------------------------------------------------


def store_credential(
    store: NamespaceStore, holder: NamespaceKey, credential: Credential
) -> None:
    """Add a credential to the holder's credentials file, rewriting it
    whole; a credential already held is not added twice. Only the public
    key is needed: nothing is signed."""
    held = list_credentials(store, holder.public_key)
    if credential in held:
        return
    held.append(credential)
    held.sort(key=lambda c: (c.attribute, c.canonical_bytes()))
    path = store.credentials_path(holder.public_key)
    text = json.dumps([export_json(c) for c in held], indent=2) + "\n"
    write_atomic(path, text.encode())


def list_credentials(store: NamespaceStore, holder_pub: bytes) -> list[Credential]:
    """The holder's credentials, by attribute, then by canonical bytes. Each
    is read back through ``import_json``, so a forged entry raises."""
    data = read_or_none(store.credentials_path(holder_pub))
    return [] if data is None else [import_json(item) for item in json.loads(data)]


# --- collection -----------------------------------------------------------------


def collect(
    subject_pub: bytes,
    subject_creds: Iterable[Credential],
    verifier_pub: bytes,
    policy_attrs: Iterable[str],
    backend: NameSystemBackend,
    clock: int,
) -> dict:
    """The chain found per policy attribute, keyed by attribute; an
    attribute no chain proves is absent. A chain's ``credentials()`` are
    the set handed to the verifier.

    Runs chain discovery from the verifier's namespace toward the subject's
    credentials. A BackendError propagates, and ``authz._collect`` turns it
    into an error decision: "could not find out" is not the same answer as
    "no chain exists".
    """
    from .discovery import discover

    creds = list(subject_creds)
    chains: dict = {}
    for attribute in policy_attrs:
        chain = discover(
            issuer_pub=verifier_pub,
            attribute=attribute,
            subject_pub=subject_pub,
            subject_creds=creds,
            backend=backend,
            clock=clock,
        )
        if chain is not None:
            chains[attribute] = chain
    return chains
