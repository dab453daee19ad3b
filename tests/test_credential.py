"""Credential issuance, verification, JSON interchange, and collection."""
from __future__ import annotations

import dataclasses

import pytest

from abd.authz import DENY, GRANT, Policy, build_response
from abd.core import NamespaceKey, RecordType, ResourceRecord, sign_record_set
from abd.credential import (
    collect,
    credential_signing_bytes,
    decode_cred_payload,
    export_json,
    import_json,
    issue_credential,
    list_credentials,
    refusal,
    store_credential,
    verify_credential,
)
from abd.delegation import encode_attr_payload, expression
from abd.discovery import discover, verify_chain
from abd.errors import BadSignature, CollectionIncomplete, DecodeError, JsonError
from abd.namestore import NamespaceStore
from abd.netsim import derive_query_key
from instance_gen import decide_fresh, memory_dht

CLOCK = 1_700_000_000_000_000
HOUR = 3_600_000_000


def key(tag: bytes) -> NamespaceKey:
    return NamespaceKey.generate(seed=tag.ljust(32, b"\0"))


ISSUER = key(b"issuer")
SUBJECT = key(b"subject")


def cred(attribute="member", lifetime=HOUR, issuer=ISSUER, subject=SUBJECT):
    return issue_credential(
        issuer, subject.public_key, attribute, clock=CLOCK, lifetime_us=lifetime
    )


# --- issue and verify ---------------------------------------------------------


def test_issue_fields_and_verify():
    credential = cred()
    assert credential.issuer == ISSUER.public_key
    assert credential.subject == SUBJECT.public_key
    assert credential.attribute == "member"
    assert credential.expiration_us == CLOCK + HOUR
    assert verify_credential(credential, CLOCK)


def test_signing_bytes_layout():
    credential = cred()
    expected = (
        b"ABD-CRED-V1"
        + ISSUER.public_key
        + SUBJECT.public_key
        + (CLOCK + HOUR).to_bytes(8, "big")
        + b"member"
    )
    assert credential_signing_bytes(
        credential.issuer, credential.subject, credential.expiration_us, "member"
    ) == expected
    assert ISSUER.public_key  # issuer really is the one who signed
    assert verify_credential(credential, CLOCK)


def test_expired_credential_fails_verification():
    credential = cred(lifetime=HOUR)
    assert verify_credential(credential, CLOCK + HOUR - 1)
    assert not verify_credential(credential, CLOCK + HOUR)  # expiration <= clock


def test_tampered_attribute_fails_verification():
    credential = cred()
    forged = type(credential)(
        issuer=credential.issuer,
        subject=credential.subject,
        attribute="admin",
        expiration_us=credential.expiration_us,
        signature=credential.signature,
    )
    assert not verify_credential(forged, CLOCK)


def test_issuer_determines_signature():
    other = key(b"other-issuer")
    a = cred(issuer=ISSUER)
    b = cred(issuer=other)
    assert a.signature != b.signature
    assert not verify_credential(
        type(a)(
            issuer=other.public_key,
            subject=a.subject,
            attribute=a.attribute,
            expiration_us=a.expiration_us,
            signature=a.signature,
        ),
        CLOCK,
    )


# --- one rule at every site ----------------------------------------------------------

VERIFIER = key(b"verifier")


def flip_signature_byte(credential):
    signature = bytes([credential.signature[0] ^ 1]) + credential.signature[1:]
    return dataclasses.replace(credential, signature=signature)


CREDENTIAL_VARIANTS = [
    pytest.param(cred, None, id="valid"),
    pytest.param(lambda: cred(subject=key(b"other")), "names a different subject",
                 id="another-subject"),
    pytest.param(lambda: cred(lifetime=0), "is expired or forged", id="expiring-at-the-clock"),
    pytest.param(lambda: flip_signature_byte(cred()), "is expired or forged",
                 id="flipped-signature-byte"),
]


@pytest.mark.parametrize("variant, reason", CREDENTIAL_VARIANTS)
def test_discovery_the_verifier_and_chain_checks_agree_with_refusal(variant, reason):
    # VERIFIER.user <- ISSUER.member, and SUBJECT presents one credential.
    backend = memory_dht()
    record = ResourceRecord(
        RecordType.ATTR,
        encode_attr_payload(expression([(ISSUER.public_key, ["member"])])),
        CLOCK + HOUR,
    )
    backend.put(
        derive_query_key(VERIFIER.public_key, "user"),
        sign_record_set(VERIFIER, "user", [record]),
        CLOCK,
    )
    credential = variant()
    assert refusal(credential, SUBJECT.public_key, CLOCK) == reason

    def find(credentials):
        return discover(VERIFIER.public_key, "user", SUBJECT.public_key, credentials, backend, CLOCK)

    assert (find([credential]) is not None) == (reason is None)

    decision = decide_fresh(
        VERIFIER.public_key,
        lambda nonce: build_response(SUBJECT, nonce, {"user": (credential,)}),
        Policy(resource_id="wiki", required_attributes=("user",)),
        backend,
        CLOCK,
    )
    if reason is None:
        assert (decision.decision, decision.reasons) == (GRANT, ())
    else:
        assert (decision.decision, decision.reasons) == (DENY, (f"credential under 'user' {reason}",))

    # The chain a valid credential closes, with this credential at its leaf.
    chain = find([cred()])
    (leaf,) = chain.leaves
    chain = dataclasses.replace(chain, leaves=(dataclasses.replace(leaf, credential=credential),))
    assert verify_chain(chain, SUBJECT.public_key, backend, CLOCK) == (reason is None)


# --- record payload -------------------------------------------------------------


def test_payload_round_trip():
    credential = cred()
    assert decode_cred_payload(credential.canonical_bytes()) == credential


def test_payload_rejects_truncation():
    data = cred().canonical_bytes()
    for cut in (0, 31, 63, 71, 73, len(data) - 1):
        with pytest.raises(DecodeError):
            decode_cred_payload(data[:cut])
    with pytest.raises(DecodeError):
        decode_cred_payload(data + b"\x00")


# --- JSON interchange -------------------------------------------------------------


def test_json_round_trip():
    credential = cred()
    assert import_json(export_json(credential)) == credential


def test_json_rejects_missing_and_ill_typed_fields():
    payload = export_json(cred())
    for field in ("issuer", "subject", "attribute", "expiration_us", "signature"):
        broken = dict(payload)
        del broken[field]
        with pytest.raises(JsonError) as exc:
            import_json(broken)
        assert field in str(exc.value)
    broken = dict(payload)
    broken["expiration_us"] = True  # bool is not an acceptable integer
    with pytest.raises(JsonError):
        import_json(broken)
    broken = dict(payload)
    broken["issuer"] = "zz" * 32
    with pytest.raises(JsonError):
        import_json(broken)


def test_json_rejects_forged_signature():
    payload = export_json(cred())
    payload["attribute"] = "admin"
    with pytest.raises(BadSignature):
        import_json(payload)


def test_json_accepts_expired_credential():
    # Expiry is a verification-time decision, not an interchange error.
    credential = cred(lifetime=0)
    assert import_json(export_json(credential)) == credential
    assert not verify_credential(credential, CLOCK)


# --- holder-side storage -------------------------------------------------------------


def test_store_and_list(tmp_path):
    store = NamespaceStore(tmp_path)
    holder = store.create_identity(petname="holder", seed=b"h".ljust(32, b"\0"))
    a = issue_credential(ISSUER, holder.public_key, "member", clock=CLOCK, lifetime_us=HOUR)
    b = issue_credential(ISSUER, holder.public_key, "audit", clock=CLOCK, lifetime_us=HOUR)
    store_credential(store, holder, a)
    store_credential(store, holder, b)
    store_credential(store, holder, a)  # idempotent
    assert sorted(c.attribute for c in list_credentials(store, holder.public_key)) == [
        "audit",
        "member",
    ]
    for record_set in store.load_namespace(holder.public_key).values():
        assert all(r.record_type == RecordType.CRED for r in record_set.records)


# --- collect -------------------------------------------------------------------------


def test_collect_finds_satisfying_subsets(fixture, backend, clock):
    verifier = fixture.key("portal").public_key
    chains = collect(
        subject_pub=fixture.key("bob").public_key,
        subject_creds=fixture.bob_creds,
        verifier_pub=verifier,
        policy_attrs=["user"],
        backend=backend,
        clock=clock,
    )
    assert list(chains) == ["user"]
    chosen = {(c.issuer, c.attribute) for c in chains["user"].credentials()}
    lab_two = fixture.key("lab-two").public_key
    assert chosen == {(lab_two, "employee"), (lab_two, "controller")}


def test_collect_reports_unsatisfied(fixture, backend, clock):
    chains = collect(
        subject_pub=fixture.key("bob").public_key,
        subject_creds=[c for c in fixture.bob_creds if c.attribute == "employee"],
        verifier_pub=fixture.key("portal").public_key,
        policy_attrs=["user"],
        backend=backend,
        clock=clock,
    )
    assert chains == {}


def test_collect_raises_on_backend_outage(fixture, clock):
    down = memory_dht()
    down.fail_nodes([0])
    with pytest.raises(CollectionIncomplete):
        collect(
            subject_pub=fixture.key("bob").public_key,
            subject_creds=fixture.bob_creds,
            verifier_pub=fixture.key("portal").public_key,
            policy_attrs=["user"],
            backend=down,
            clock=clock,
        )
