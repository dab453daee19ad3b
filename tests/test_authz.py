"""Policy handshake, signed responses, and the verifier service."""
from __future__ import annotations

import collections
import contextlib
import dataclasses
import email.utils
import gc
import hashlib
import http.client
import io
import json
import random
import socket
import ssl
import threading
import time
import urllib.error
import urllib.request
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import HealthCheck, example, given, settings, strategies as st

from abd import authz, core, scenario
from abd.authz import (
    DENY,
    ERROR,
    GRANT,
    MAX_BODY_BYTES,
    NONCE_LIFETIME_US,
    NONCE_UNKNOWN,
    AuthorizationResponse,
    AuthzDecision,
    ChainTable,
    NonceTable,
    Policy,
    PolicyStore,
    VerifierService,
    authorize,
    build_response,
    close_connection,
    make_server,
    request_access,
    response_signing_bytes,
)
from abd.core import NamespaceKey, RecordType, ResourceRecord, sign_record_set, verify_signature
from abd.credential import export_json, issue_credential, verify_credential
from abd.delegation import (
    add_delegation,
    decode_attr_payload,
    encode_attr_payload,
    parse_expression,
    remove_delegation,
)
from abd.discovery import oracle_entailed
from abd.errors import BackendUnavailable, InvalidLabel, UnknownResource
from abd.namestore import NamespaceStore
from abd.netsim import FileBackend, SimulatedDht, derive_query_key
from instance_gen import (
    CLOCK as GEN_CLOCK,
    ONE_NODE,
    decide_fresh,
    generate_instance,
    memory_dht,
    publish_fan_out,
    publish_instance,
)

HOUR = 3_600_000_000


def fresh_key(tag: bytes) -> NamespaceKey:
    return NamespaceKey.generate(seed=tag.ljust(32, b"\0"))


@contextlib.contextmanager
def serving(httpd):
    """Serve ``httpd`` from a thread and yield its URL. The short poll
    interval lets ``shutdown`` return at once rather than in half a second."""
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()


# --- policies -----------------------------------------------------------------------


def test_policy_requires_at_least_one_attribute():
    with pytest.raises(ValueError):
        Policy(resource_id="wiki", required_attributes=())


def test_policy_rejects_duplicate_attributes():
    with pytest.raises(ValueError):
        Policy(resource_id="wiki", required_attributes=("user", "user"))


def test_policy_rejects_invalid_labels():
    with pytest.raises(InvalidLabel):
        Policy(resource_id="wiki", required_attributes=("not a label",))


def test_policy_store_round_trip(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"wiki": ["user"], "repo": ["dev", "admin"]}))
    store = PolicyStore.from_file(path)
    assert store.get_policy("repo").required_attributes == ("dev", "admin")
    assert store.get_policy("wiki").required_attributes == ("user",)
    with pytest.raises(UnknownResource):
        store.get_policy("nope")


def test_policy_file_must_be_an_object(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(["wiki"]))
    with pytest.raises(ValueError):
        PolicyStore.from_file(path)


@pytest.mark.parametrize("attributes", ["user", 5, [1]], ids=["string", "number", "list-of-number"])
def test_policy_values_must_be_lists_of_labels(tmp_path, attributes):
    # A bare string once became one attribute per character.
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"wiki": ["user"], "repo": attributes}))
    with pytest.raises(ValueError, match="'repo'"):
        PolicyStore.from_file(path)


# --- nonces -------------------------------------------------------------------------


def test_nonce_is_single_use(clock):
    table = NonceTable()
    nonce = table.issue("wiki", clock)
    assert table.status(nonce, "wiki", clock) is None
    table.consume(nonce)
    assert table.status(nonce, "wiki", clock) == "nonce unknown or already used"


def test_nonce_expires(clock):
    table = NonceTable()
    nonce = table.issue("wiki", clock)
    assert table.status(nonce, "wiki", clock + NONCE_LIFETIME_US - 1) is None
    assert table.status(nonce, "wiki", clock + NONCE_LIFETIME_US) == "nonce expired"


def test_nonce_is_bound_to_its_resource(clock):
    table = NonceTable()
    nonce = table.issue("wiki", clock)
    assert table.status(nonce, "repo", clock) == "nonce was issued for a different resource"


def test_issue_drops_expired_nonces(clock):
    table = NonceTable()
    first = table.issue("wiki", clock)
    for step in range(1, 1000):
        table.issue("wiki", clock + 2 * step * NONCE_LIFETIME_US)
    assert len(table._issued) <= 2
    later = clock + 2000 * NONCE_LIFETIME_US
    assert table.status(first, "wiki", later) == "nonce unknown or already used"


def test_issue_caps_the_table_by_dropping_the_oldest(clock, monkeypatch):
    monkeypatch.setattr(authz, "MAX_NONCES", 8)
    table = NonceTable()
    nonces = [table.issue("wiki", clock) for _ in range(20)]
    assert len(table._issued) == 8
    assert table.status(nonces[11], "wiki", clock) == "nonce unknown or already used"
    assert all(table.status(n, "wiki", clock) is None for n in nonces[12:])


# --- response signing ----------------------------------------------------------------


def test_signing_bytes_ignore_mapping_order(clock):
    issuer = fresh_key(b"issuer")
    subject = fresh_key(b"subject")
    one = issue_credential(issuer, subject.public_key, "dev", clock=clock, lifetime_us=HOUR)
    two = issue_credential(issuer, subject.public_key, "ops", clock=clock, lifetime_us=HOUR)
    nonce = b"\x07" * 16
    forward = response_signing_bytes(
        nonce, subject.public_key, {"a": (one, two), "b": (two,)}
    )
    backward = response_signing_bytes(
        nonce, subject.public_key, {"b": (two,), "a": (two, one)}
    )
    assert forward == backward


def test_build_response_signs_canonical_bytes(clock):
    subject = fresh_key(b"subject")
    response = build_response(subject, b"\x01" * 16, {})
    assert verify_signature(
        subject.public_key, response.signature, response.signing_bytes()
    )


# --- the authorize decision ------------------------------------------------------------


def portal_policy() -> Policy:
    return Policy(resource_id=scenario.RESOURCE_ID, required_attributes=("user",))


def test_authorize_grants_bob_and_consumes_nonce(fixture, backend, clock):
    table = NonceTable()
    nonce = table.issue(scenario.RESOURCE_ID, clock)
    response = build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds})
    decision = authorize(
        verifier_pub=fixture.key("portal").public_key,
        response=response,
        policy=portal_policy(),
        backend=backend,
        clock=clock,
        nonce_table=table,
    )
    assert decision.decision == GRANT
    assert decision.chain_summaries
    # Replaying the identical signed response must not grant again.
    replay = authorize(
        verifier_pub=fixture.key("portal").public_key,
        response=response,
        policy=portal_policy(),
        backend=backend,
        clock=clock,
        nonce_table=table,
    )
    assert replay.decision == DENY
    assert "nonce" in replay.reasons[0]


def decide_portal(fixture, backend, clock, respond) -> AuthzDecision:
    """The portal's decision on ``respond(nonce)`` to a fresh nonce."""
    return decide_fresh(
        fixture.key("portal").public_key, respond, portal_policy(), backend, clock
    )


def test_a_decision_does_not_remember_its_response_signature(fixture, backend, clock):
    table = NonceTable()
    nonce = table.issue(scenario.RESOURCE_ID, clock)
    response = build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds})
    portal = fixture.key("portal").public_key
    decision = authorize(portal, response, portal_policy(), backend, clock, nonce_table=table)
    assert decision.decision == GRANT
    digest = hashlib.sha256(
        response.subject + response.signature + response.signing_bytes()
    ).digest()
    assert digest not in core._verified


def test_authorize_grants_alice(fixture, backend, clock):
    decision = decide_portal(
        fixture, backend, clock,
        lambda nonce: build_response(fixture.key("alice"), nonce, {"user": fixture.alice_creds}),
    )
    assert decision.decision == GRANT


def test_authorize_denies_half_a_conjunction(fixture, backend, clock):
    employee_only = [c for c in fixture.bob_creds if c.attribute == "employee"]
    decision = decide_portal(
        fixture, backend, clock,
        lambda nonce: build_response(fixture.key("bob"), nonce, {"user": employee_only}),
    )
    assert decision.decision == DENY
    assert decision.reasons == ("no delegation chain proves 'user'",)


def test_authorize_denies_a_stranger(fixture, backend, clock):
    stranger = fresh_key(b"stranger")
    decision = decide_portal(
        fixture, backend, clock, lambda nonce: build_response(stranger, nonce, {"user": ()})
    )
    assert decision.decision == DENY


def test_authorize_denies_tampered_signature(fixture, backend, clock):
    def tampered(nonce):
        good = build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds})
        return AuthorizationResponse(
            nonce=good.nonce,
            subject=good.subject,
            credential_sets=good.credential_sets,
            signature=bytes([good.signature[0] ^ 1]) + good.signature[1:],
        )

    decision = decide_portal(fixture, backend, clock, tampered)
    assert decision.decision == DENY
    assert decision.reasons == ("response signature invalid",)


def test_authorize_denies_borrowed_credentials(fixture, backend, clock):
    # Mallory signs her own response but presents Bob's credentials.
    mallory = fresh_key(b"mallory")
    decision = decide_portal(
        fixture, backend, clock,
        lambda nonce: build_response(mallory, nonce, {"user": fixture.bob_creds}),
    )
    assert decision.decision == DENY
    assert "different subject" in decision.reasons[0]


def test_authorize_denies_expired_credentials(fixture, backend, clock):
    stale = issue_credential(
        fixture.key("lab-two"),
        fixture.key("bob").public_key,
        "employee",
        clock=clock,
        lifetime_us=0,
    )
    decision = decide_portal(
        fixture, backend, clock,
        lambda nonce: build_response(fixture.key("bob"), nonce, {"user": (stale,)}),
    )
    assert decision.decision == DENY
    assert "expired or forged" in decision.reasons[0]


def test_authorize_denies_malformed_subject(fixture, backend, clock):
    decision = decide_portal(
        fixture, backend, clock,
        lambda nonce: AuthorizationResponse(
            nonce=nonce, subject=b"short", credential_sets={}, signature=b"\0" * 64
        ),
    )
    assert decision.decision == DENY
    assert decision.reasons == ("malformed subject key",)


def test_authorize_reports_error_when_name_system_is_down(fixture, backend, clock):
    # "Could not find out" must never masquerade as a denial.
    backend.fail_nodes([0])
    decision = decide_portal(
        fixture, backend, clock,
        lambda nonce: build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds}),
    )
    assert decision.decision == ERROR
    assert "unavailable" in decision.reasons[0]


class ReplayOnFirstGet(SimulatedDht):
    """Runs ``replay`` once, from inside the next ``get`` after it is set."""

    replay = None

    def get(self, query_key, clock, entry_node=None):
        replay, self.replay = self.replay, None
        if replay is not None:
            replay()
        return super().get(query_key, clock, entry_node)


def test_a_response_decided_twice_at_once_grants_once(tmp_path, clock):
    backend = ReplayOnFirstGet(ONE_NODE)
    fixture = scenario.build_fixture(NamespaceStore(tmp_path / "home"), backend, clock=clock)
    table = NonceTable()
    nonce = table.issue(scenario.RESOURCE_ID, clock)
    response = build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds})

    def decide():
        return authorize(
            verifier_pub=fixture.key("portal").public_key,
            response=response,
            policy=portal_policy(),
            backend=backend,
            clock=clock,
            nonce_table=table,
        )

    inner = []
    backend.replay = lambda: inner.append(decide())
    outer = decide()
    assert [d.decision for d in inner + [outer]] == [GRANT, DENY]
    assert outer.reasons == ("nonce unknown or already used",)


def test_a_denied_response_cannot_be_decided_again(tmp_path, clock):
    root = tmp_path / "backend"
    store = NamespaceStore(tmp_path / "home")
    fixture = scenario.build_fixture(store, FileBackend(root), clock=clock)
    served = FileBackend(root)
    portal, stranger, table = fixture.key("portal"), fresh_key(b"stranger"), NonceTable()

    def decide(response):
        return authorize(portal.public_key, response, portal_policy(), served, clock, nonce_table=table)

    response = build_response(stranger, table.issue(scenario.RESOURCE_ID, clock), {"user": ()})
    assert decide(response).decision == DENY
    add_delegation(store, portal, "user", parse_expression(stranger.public_key.hex()), clock=clock)
    assert store.publish(portal, FileBackend(root), clock).ok
    replay = decide(response)
    assert (replay.decision, replay.reasons) == (DENY, (NONCE_UNKNOWN,))
    # A fresh response from the stranger now grants.
    fresh = build_response(stranger, table.issue(scenario.RESOURCE_ID, clock), {"user": ()})
    assert decide(fresh).decision == GRANT


def test_every_decision_on_a_signed_response_uses_up_its_nonce(fixture, backend, clock):
    portal, bob = fixture.key("portal").public_key, fixture.key("bob")
    cases = {
        "grant": (bob, fixture.bob_creds, GRANT),
        "deny": (fresh_key(b"stranger"), (), DENY),
        "borrowed": (fresh_key(b"mallory"), fixture.bob_creds, DENY),
        "error": (bob, fixture.bob_creds, ERROR),
    }
    for case, (subject, creds, expected) in cases.items():
        if case == "error":
            backend.fail_nodes([0])
        table = NonceTable()
        nonce = table.issue(scenario.RESOURCE_ID, clock)
        response = build_response(subject, nonce, {"user": creds})
        decision = authorize(portal, response, portal_policy(), backend, clock, nonce_table=table)
        assert decision.decision == expected, case
        assert table.status(nonce, scenario.RESOURCE_ID, clock) == NONCE_UNKNOWN, case


def test_a_response_whose_signature_fails_leaves_its_nonce(fixture, backend, clock):
    table = NonceTable()
    nonce = table.issue(scenario.RESOURCE_ID, clock)
    good = build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds})
    forged = AuthorizationResponse(
        nonce=nonce,
        subject=good.subject,
        credential_sets=good.credential_sets,
        signature=bytes([good.signature[0] ^ 1]) + good.signature[1:],
    )
    portal = fixture.key("portal").public_key
    assert authorize(portal, forged, portal_policy(), backend, clock, nonce_table=table).decision == DENY
    assert authorize(portal, good, portal_policy(), backend, clock, nonce_table=table).decision == GRANT


# --- a remembered chain is re-checked, never trusted ---------------------------------------

# What may change between the grant that remembered a chain and the next
# decision on the same subject and attribute.
STATE_CHANGES = ("revoke_on_chain", "revoke_off_chain", "drop_credential", "clock_past_expiry")


def decide_with(chains, instance, backend, clock, presented) -> AuthzDecision:
    """The root's decision on the subject presenting ``presented``, with or
    without a chain table."""
    policy = Policy(resource_id="r", required_attributes=(instance.root_attribute,))
    nonces = NonceTable()
    response = build_response(
        instance.subject, nonces.issue("r", clock), {instance.root_attribute: presented}
    )
    return authorize(instance.root_issuer, response, policy, backend, clock, nonces, chains)


def granted_instance(seed: int):
    """The first generated world from ``seed`` on whose root the subject is
    granted, its name system, and a chain table holding the granting chain;
    None when a hundred worlds grant nothing."""
    for offset in range(100):
        instance = generate_instance(random.Random(seed + offset))
        backend = publish_instance(instance)
        chains = ChainTable(authz.MAX_CHAINS)
        presented = instance.live_credentials()
        if decide_with(chains, instance, backend, GEN_CLOCK, presented).decision == GRANT:
            return instance, backend, chains
    return None


def revoke(instance, backend, delegation):
    """``instance`` without ``delegation``, its label republished without it."""
    issuer_pub, label, _ = delegation
    delegations = [d for d in instance.delegations if d != delegation]
    records = [
        ResourceRecord(RecordType.ATTR, encode_attr_payload(expr), GEN_CLOCK + 24 * HOUR)
        for owner, at, expr in delegations
        if (owner, at) == (issuer_pub, label)
    ]
    owner = next(ns for ns in instance.namespaces if ns.public_key == issuer_pub)
    backend.put(derive_query_key(issuer_pub, label), sign_record_set(owner, label, records), GEN_CLOCK)
    return dataclasses.replace(instance, delegations=delegations)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**48), st.sampled_from(STATE_CHANGES), st.randoms(use_true_random=False))
def test_a_remembered_chain_decides_as_a_search_and_the_oracle_do(seed, change, rng):
    found = granted_instance(seed)
    if found is None:
        return
    instance, backend, chains = found
    (chain,) = chains._entries.values()
    presented, clock = instance.live_credentials(), GEN_CLOCK
    on_chain = {(s.subject, s.label, decode_attr_payload(s.record.payload)) for s in chain.steps}
    if change == "revoke_on_chain" and on_chain:
        instance = revoke(instance, backend, rng.choice(sorted(on_chain, key=repr)))
    elif change == "revoke_off_chain":
        elsewhere = [d for d in instance.delegations if d not in on_chain]
        if elsewhere:
            instance = revoke(instance, backend, rng.choice(elsewhere))
    elif change == "drop_credential" and presented:
        presented.pop(rng.randrange(len(presented)))
    elif change == "clock_past_expiry":
        # Credentials live an hour, delegation records a day.
        clock = rng.choice([GEN_CLOCK + HOUR, GEN_CLOCK + 24 * HOUR])
        presented = [c for c in presented if verify_credential(c, clock)]
    live = instance.delegations if clock < GEN_CLOCK + 24 * HOUR else []
    entailed = oracle_entailed(
        live, presented, instance.root_issuer, instance.root_attribute, instance.subject.public_key
    )
    remembered = decide_with(chains, instance, backend, clock, presented)
    searched = decide_with(None, instance, backend, clock, presented)
    assert (remembered.decision, remembered.reasons) == (searched.decision, searched.reasons)
    assert remembered.decision == (GRANT if entailed else DENY), change


def test_the_chain_table_stays_within_its_cap(fixture, backend, clock):
    portal = fixture.key("portal")
    members = [fresh_key(b"member%d" % index) for index in range(30)]
    for member in members:
        add_delegation(fixture.store, portal, "user", parse_expression(member.public_key.hex()), clock=clock)
    assert fixture.store.publish(portal, backend, clock).ok
    chains, nonces = ChainTable(8), NonceTable()
    for member in members:
        response = build_response(member, nonces.issue(scenario.RESOURCE_ID, clock), {"user": ()})
        decision = authorize(portal.public_key, response, portal_policy(), backend, clock, nonces, chains)
        assert decision.decision == GRANT
        assert len(chains._entries) <= 8
    # The most recent grants are the ones kept.
    assert [subject for subject, _ in chains._entries] == [m.public_key for m in members[-8:]]


def test_two_threads_deciding_at_once_share_one_chain_table(tmp_path, clock):
    root = tmp_path / "backend"
    fixture = scenario.build_fixture(NamespaceStore(tmp_path / "home"), FileBackend(root), clock=clock)
    served = FileBackend(root)  # as `abd serve` builds it
    portal, chains, nonces = fixture.key("portal").public_key, ChainTable(authz.MAX_CHAINS), NonceTable()
    employee_only = [c for c in fixture.bob_creds if c.attribute == "employee"]
    mix = [
        (fixture.key("bob"), fixture.bob_creds, GRANT),
        (fixture.key("alice"), fixture.alice_creds, GRANT),
        (fixture.key("bob"), employee_only, DENY),
    ]
    start, failures = threading.Barrier(2), []

    def decide(offset):
        try:
            start.wait()
            for index in range(30):
                subject, creds, expected = mix[(index + offset) % len(mix)]
                nonce = nonces.issue(scenario.RESOURCE_ID, clock)
                response = build_response(subject, nonce, {"user": creds})
                decision = authorize(portal, response, portal_policy(), served, clock, nonces, chains)
                assert decision.decision == expected
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    threads = [threading.Thread(target=decide, args=(offset,)) for offset in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert len(chains._entries) == 2


# --- policies of more than one attribute ------------------------------------------------

TWO_ATTRIBUTE_POLICIES = {
    "staff-portal": Policy(resource_id="staff-portal", required_attributes=("user", "staff")),
    "admin-portal": Policy(resource_id="admin-portal", required_attributes=("user", "admin")),
}


@pytest.fixture
def staff_service(fixture, backend, clock):
    """The scenario plus ``portal.staff <- lab-two.employee``."""
    portal = fixture.key("portal")
    expr = parse_expression("lab-two.employee", fixture.store.petname_table())
    add_delegation(fixture.store, portal, "staff", expr, clock=clock)
    assert fixture.store.publish(portal, backend, clock).ok
    return VerifierService(
        verifier_pub=portal.public_key,
        policies=PolicyStore(TWO_ATTRIBUTE_POLICIES),
        backend=backend,
        clock_fn=lambda: clock,
    )


def chain_roots(summaries) -> list[str]:
    """The attribute each chain summary starts from, in order."""
    return [summary.split(" -> ")[0].split(".")[1] for summary in summaries]


def test_two_attribute_policy_in_process(staff_service, fixture, clock):
    def decide(resource_id):
        return decide_fresh(
            staff_service.verifier_pub,
            lambda nonce: build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds}),
            TWO_ATTRIBUTE_POLICIES[resource_id],
            staff_service.backend,
            clock,
        )

    staff = decide("staff-portal")
    assert staff.decision == GRANT
    assert chain_roots(staff.chain_summaries) == ["user", "staff"]
    admin = decide("admin-portal")
    assert admin.decision == DENY
    assert admin.reasons == ("no delegation chain proves 'admin'",)


def test_two_attribute_policy_over_http(staff_service, fixture, clock):
    with serving(make_server(staff_service, "127.0.0.1", 0)) as endpoint:
        def ask(resource_id):
            return request_access(
                endpoint, resource_id, fixture.key("bob"), fixture.bob_creds,
                staff_service.backend, clock,
            )

        staff = ask("staff-portal")
        assert staff.decision == GRANT
        assert chain_roots(staff.chain_summaries) == ["user", "staff"]
        admin = ask("admin-portal")
        assert admin.decision == DENY
        assert admin.reasons == ("no delegation chain proves 'admin'",)


# --- a file-backed verifier reads current state ------------------------------------------


def decide_directly(fixture, backend, clock, who: str, creds) -> str:
    return decide_portal(
        fixture, backend, clock,
        lambda nonce: build_response(fixture.key(who), nonce, {"user": creds}),
    ).decision


def test_file_backed_verifier_sees_a_revocation_published_while_it_runs(tmp_path, clock):
    root = tmp_path / "backend"
    store = NamespaceStore(tmp_path / "home")
    fixture = scenario.build_fixture(store, FileBackend(root), clock=clock)
    served = FileBackend(root)  # the verifier's backend, as `abd serve` builds it
    assert decide_directly(fixture, served, clock, "bob", fixture.bob_creds) == GRANT

    world = fixture.key("world-agency")
    us_branch = parse_expression("us-agency", store.petname_table())
    assert remove_delegation(store, world, "nado", us_branch)
    assert store.publish(world, FileBackend(root), clock).ok

    assert decide_directly(fixture, served, clock, "bob", fixture.bob_creds) == DENY
    assert decide_directly(fixture, served, clock, "alice", fixture.alice_creds) == GRANT


def test_unreadable_backend_entry_is_an_error_not_a_deny(tmp_path, clock):
    root = tmp_path / "backend"
    store = NamespaceStore(tmp_path / "home")
    fixture = scenario.build_fixture(store, FileBackend(root), clock=clock)
    query_key = derive_query_key(fixture.key("portal").public_key, "user")
    path = root / f"{query_key.hex()}.rrset"
    path.unlink()
    path.mkdir()
    backend = FileBackend(root)
    with pytest.raises(BackendUnavailable):
        backend.get(query_key, clock)
    assert decide_directly(fixture, backend, clock, "bob", fixture.bob_creds) == ERROR


# --- an exhausted discovery budget is an error ------------------------------------------


def verifier_over(portal: NamespaceKey, backend, clock) -> VerifierService:
    return VerifierService(
        verifier_pub=portal.public_key,
        policies=PolicyStore({scenario.RESOURCE_ID: portal_policy()}),
        backend=backend,
        clock_fn=lambda: clock,
    )


@pytest.fixture
def fan_out(clock):
    """``portal.user <- portal.staff.a`` and 10,000 keys in ``portal.staff``.

    One role per staff member runs the search into the default node budget
    before it can decide.
    """
    portal = fresh_key(b"fan-out")
    return verifier_over(portal, publish_fan_out(portal, clock=clock), clock)


@pytest.fixture
def self_linked(tmp_path, clock):
    """``portal.user <- portal.user.a`` and ``portal.user <- portal.user.b``.

    ``portal.user`` has no member to link through, so the search denies.
    """
    store = NamespaceStore(tmp_path / "self-linked")
    portal = store.create_identity(petname="portal", seed=b"\x07" * 32)
    for suffix in ("a", "b"):
        expr = parse_expression(f"portal.user.{suffix}", store.petname_table())
        add_delegation(store, portal, "user", expr, clock=clock)
    backend = memory_dht()
    assert store.publish(portal, backend, clock).ok
    return verifier_over(portal, backend, clock)


def decide_in_process(service: VerifierService, clock) -> AuthzDecision:
    return decide_fresh(
        service.verifier_pub,
        lambda nonce: build_response(fresh_key(b"walker"), nonce, {"user": ()}),
        portal_policy(),
        service.backend,
        clock,
    )


def decide_over_http(service: VerifierService, clock):
    """The raw reply to one empty presentation, and the client's decision."""
    with serving(make_server(service, "127.0.0.1", 0)) as endpoint:
        walker = fresh_key(b"walker")
        policy = service.policy_payload(scenario.RESOURCE_ID)
        response = build_response(walker, bytes.fromhex(policy["nonce"]), {"user": ()})
        reply = post_json(
            f"{endpoint}/authorize",
            {
                "resource_id": scenario.RESOURCE_ID,
                "nonce": response.nonce.hex(),
                "subject": response.subject.hex(),
                "signature": response.signature.hex(),
                "credential_sets": {"user": []},
            },
        )
        outcome = request_access(
            endpoint, scenario.RESOURCE_ID, walker, [], service.backend, clock
        )
        return reply, outcome


def test_authorize_reports_an_exhausted_budget_as_error(fan_out, clock):
    decision = decide_in_process(fan_out, clock)
    assert decision.decision == ERROR
    assert "max_nodes" in decision.reasons[0]


def test_exhausted_budget_is_503_over_http_and_an_error_for_the_client(fan_out, clock):
    (status, payload), outcome = decide_over_http(fan_out, clock)
    assert status == 503
    assert payload["decision"] == ERROR
    assert payload["reasons"][0].startswith("discovery budget exhausted: ")
    assert "max_nodes" in payload["reasons"][0]
    # The client's own collect fails before it posts, and reads the same.
    assert outcome.decision == ERROR
    assert outcome.reasons == tuple(payload["reasons"])


def test_self_linked_role_denies_in_process_and_over_http(self_linked, clock):
    assert decide_in_process(self_linked, clock).decision == DENY
    (status, payload), outcome = decide_over_http(self_linked, clock)
    assert (status, payload["decision"]) == (200, DENY)
    assert outcome.decision == DENY


# --- verifier service over HTTP --------------------------------------------------------


@pytest.fixture
def service(fixture, backend, clock):
    return VerifierService(
        verifier_pub=fixture.key("portal").public_key,
        policies=PolicyStore.from_file(fixture.policy_path),
        backend=backend,
        clock_fn=lambda: clock,
    )


@pytest.fixture
def endpoint(service):
    with serving(make_server(service, "127.0.0.1", 0)) as url:
        yield url


def post_json(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=payload if isinstance(payload, bytes) else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


def test_policy_payload_issues_fresh_nonces(service):
    first = service.policy_payload(scenario.RESOURCE_ID)
    second = service.policy_payload(scenario.RESOURCE_ID)
    assert first["required_attributes"] == ["user"]
    assert len(bytes.fromhex(first["nonce"])) == 16
    assert first["nonce"] != second["nonce"]
    assert first["verifier"] == service.verifier_pub.hex()


def test_authorize_payload_rejects_missing_fields(service):
    status, payload = service.authorize_payload({"resource_id": scenario.RESOURCE_ID})
    assert status == 400
    assert payload["decision"] == ERROR
    assert "missing field" in payload["reasons"][0]


def test_authorize_payload_rejects_bad_hex(service):
    status, payload = service.authorize_payload(
        {
            "resource_id": scenario.RESOURCE_ID,
            "nonce": "zz",
            "subject": "zz",
            "signature": "zz",
            "credential_sets": {},
        }
    )
    assert status == 400
    assert payload["decision"] == ERROR


def test_authorize_payload_rejects_an_attribute_that_is_not_a_label(service):
    nonce = service.policy_payload(scenario.RESOURCE_ID)["nonce"]
    status, payload = service.authorize_payload(
        {
            "resource_id": scenario.RESOURCE_ID,
            "nonce": nonce,
            "subject": "00" * 32,
            "signature": "00" * 64,
            # Too long for the u16 length the response signature packs it with.
            "credential_sets": {"a" * 70_000: []},
        }
    )
    assert status == 400
    assert payload["decision"] == ERROR


def test_authorize_payload_unknown_resource(service):
    status, payload = service.authorize_payload(
        {
            "resource_id": "nope",
            "nonce": "00" * 16,
            "subject": "00" * 32,
            "signature": "00" * 64,
            "credential_sets": {},
        }
    )
    assert status == 404
    assert payload["decision"] == ERROR


LONG = "a" * 70_000


def oversized_requests(nonce: str) -> dict[str, dict]:
    """Requests carrying a 70,000-character client string where a label or
    a resource id belongs."""
    base = {
        "resource_id": scenario.RESOURCE_ID,
        "nonce": nonce,
        "subject": "00" * 32,
        "signature": "00" * 64,
        "credential_sets": {},
    }
    return {
        "label": {**base, "credential_sets": {LONG: []}},
        "resource": {**base, "resource_id": LONG},
    }


@pytest.mark.parametrize("field", ["label", "resource"])
def test_error_replies_do_not_echo_oversized_client_strings(service, endpoint, field):
    expected = {"label": 400, "resource": 404}[field]
    nonce = service.policy_payload(scenario.RESOURCE_ID)["nonce"]
    body = oversized_requests(nonce)[field]
    status, payload = service.authorize_payload(body)
    assert status == expected
    assert len(json.dumps(payload)) < 1_000
    assert "70000 characters" in payload["reasons"][0]
    status, payload = post_json(f"{endpoint}/authorize", body)
    assert status == expected
    assert len(json.dumps(payload)) < 1_000


def test_unknown_long_resource_in_a_policy_request_is_not_echoed(endpoint):
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(f"{endpoint}/policy/{'b' * 8_000}", timeout=5)
    with info.value:
        assert info.value.code == 404
        assert len(info.value.read()) < 1_000


def test_http_round_trip_grants_bob(endpoint, fixture, backend, clock):
    outcome = request_access(
        endpoint,
        scenario.RESOURCE_ID,
        fixture.key("bob"),
        fixture.bob_creds,
        backend,
        clock,
    )
    assert outcome.decision == GRANT
    assert outcome.chain_summaries


def test_http_round_trip_denies_a_stranger(endpoint, fixture, backend, clock):
    stranger = fresh_key(b"nobody")
    outcome = request_access(
        endpoint, scenario.RESOURCE_ID, stranger, [], backend, clock
    )
    assert outcome.decision == DENY
    assert outcome.reasons == ("no delegation chain proves 'user'",)


def test_http_unknown_paths_are_404(endpoint):
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(f"{endpoint}/policy/nope", timeout=5)
    exc.value.close()
    assert exc.value.code == 404
    status, payload = post_json(f"{endpoint}/elsewhere", {})
    assert status == 404


def test_http_rejects_unparseable_body(endpoint):
    for body in (b"{nope", b"\x80 not utf-8"):
        status, payload = post_json(f"{endpoint}/authorize", body)
        assert status == 400
        assert payload["decision"] == ERROR


def raw_post(endpoint: str, content_length: str) -> tuple[int, dict]:
    """POST /authorize with a hand-written Content-Length and no body."""
    connection = http.client.HTTPConnection(endpoint.removeprefix("http://"), timeout=5)
    try:
        connection.putrequest("POST", "/authorize")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        reply = connection.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        connection.close()


@pytest.mark.parametrize(
    "content_length, status",
    [("ten", 400), ("-1", 400), ("9" * 5000, 400), (str(MAX_BODY_BYTES + 1), 413)],
    ids=["word", "negative", "too-many-digits", "over-cap"],
)
def test_http_checks_content_length_before_reading(endpoint, content_length, status):
    got, payload = raw_post(endpoint, content_length)
    assert got == status
    assert payload["decision"] == ERROR
    assert payload["reasons"] and payload["chain_summaries"] == []


def send_raw(endpoint: str, request: bytes) -> tuple[int, dict]:
    """Send ``request`` and read the first reply that is not ``100
    Continue``: its status and JSON body. The server may answer and close
    before it reads the whole request, so a failed send or shutdown (EPIPE,
    ECONNRESET, ENOTCONN) is not an error."""
    with raw_connection(endpoint) as (sock, reader):
        with contextlib.suppress(OSError):
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
        while (head := read_head(reader))[0].startswith(b"HTTP/1.1 100 "):
            pass
        line, headers = head
        return int(line.split(b" ", 2)[1]), json.loads(reader.read(int(headers["content-length"])))


def test_a_stalled_request_body_is_dropped_after_the_read_timeout(service, monkeypatch):
    monkeypatch.setattr(authz, "READ_TIMEOUT_S", 0.2)
    httpd = make_server(service, "127.0.0.1", 0)
    host, port = httpd.server_address
    stalled = []
    started = time.monotonic()
    with serving(httpd) as endpoint, contextlib.ExitStack() as sockets:
        for _ in range(3):
            sock = sockets.enter_context(socket.create_connection((host, port), timeout=5))
            stalled.append(sock)
            sock.sendall(b"POST /authorize HTTP/1.0\r\nContent-Length: 10\r\n\r\n{}")
        # Each connection is closed without a reply once its read times out.
        assert [sock.recv(65536) for sock in stalled] == [b""] * 3
        assert time.monotonic() - started < 4
        assert raw_post(endpoint, "ten")[0] == 400


# --- persistent connections -------------------------------------------------------------


def read_head(reader) -> tuple[bytes, dict]:
    """A start line and the header lines after it (lower-case names) from
    a buffered socket reader."""
    line = reader.readline()
    headers = {}
    while (field := reader.readline()) not in (b"\r\n", b""):
        name, _, value = field.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return line, headers


def read_reply(reader) -> tuple[int, dict, dict]:
    """One reply from a buffered socket reader: its status, its headers
    (lower-case names) and its JSON body, read by its Content-Length."""
    line, headers = read_head(reader)
    return int(line.split(b" ", 2)[1]), headers, json.loads(reader.read(int(headers["content-length"])))


@contextlib.contextmanager
def raw_connection(endpoint: str):
    """A socket to ``endpoint`` and a buffered reader over it."""
    host, port = endpoint.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        with sock.makefile("rb") as reader:
            yield sock, reader


def get_request(path: str, version: str = "HTTP/1.1") -> bytes:
    return f"GET {path} {version}\r\nHost: 127.0.0.1\r\n\r\n".encode()


POLICY_PATH = f"/policy/{scenario.RESOURCE_ID}"


def test_one_client_thread_uses_one_connection(service, fixture, backend, clock):
    httpd = make_server(service, "127.0.0.1", 0)
    accepted = []
    accept = httpd.get_request

    def counting_accept():
        accepted.append(None)
        return accept()

    httpd.get_request = counting_accept
    with serving(httpd) as endpoint:
        decisions = [
            request_access(
                endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock
            ).decision
            for _ in range(20)
        ]
    assert decisions == [GRANT] * 20
    assert len(accepted) == 1


def test_a_connection_the_server_closed_idle_is_replaced_and_decides_once(
    service, sent, ed25519, fixture, backend, clock, monkeypatch
):
    monkeypatch.setattr(authz, "READ_TIMEOUT_S", 0.2)
    decided = []
    authorize_payload = service.authorize_payload

    def counting_authorize_payload(body):
        decided.append(body["nonce"])
        return authorize_payload(body)

    monkeypatch.setattr(service, "authorize_payload", counting_authorize_payload)
    # The client idles once while it builds its answer, a step every answer
    # takes, so the kept connection is closed under the POST.
    signing_bytes, idled = authz.response_signing_bytes, []

    def idle_once(*args):
        if not idled:
            idled.append(True)
            time.sleep(0.4)
        return signing_bytes(*args)

    with serving(make_server(service, "127.0.0.1", 0)) as endpoint:
        # The answer to the fetched challenge is signed; the one to the
        # carried challenge is signed too, and opens a session.
        assert [ask(endpoint, fixture, backend, clock).decision for _ in range(2)] == [GRANT] * 2
        assert (len(decided), ed25519) == (2, {"signs": 2, "verifies": 2})
        # The session outlives the connection: after an idle close the next
        # answer is MAC'd, resent on a new connection and decided there, in
        # one POST and with no Ed25519 check.
        time.sleep(0.4)  # idle between two decisions
        assert ask(endpoint, fixture, backend, clock).decision == GRANT
        assert (len(decided), sent["POST"], ed25519) == (3, 3, {"signs": 2, "verifies": 2})
        monkeypatch.setattr(authz, "response_signing_bytes", idle_once)
        assert ask(endpoint, fixture, backend, clock).decision == GRANT
        assert idled
        assert (len(decided), sent["POST"], ed25519) == (4, 4, {"signs": 2, "verifies": 2})
    assert len(set(decided)) == 4


def test_pipelined_requests_are_answered_in_order(endpoint):
    with raw_connection(endpoint) as (sock, reader):
        sock.sendall(get_request(POLICY_PATH) * 2 + get_request("/policy/nope"))
        replies = [read_reply(reader) for _ in range(3)]
        assert reader.read() == b""
    assert [status for status, _, _ in replies] == [200, 200, 404]
    first, second = (payload for _, _, payload in replies[:2])
    assert first["resource_id"] == second["resource_id"] == scenario.RESOURCE_ID
    assert first["nonce"] != second["nonce"]
    assert replies[2][2]["decision"] == ERROR


REJECTED_REQUESTS = {
    400: b"POST /authorize HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope",
    404: get_request("/elsewhere"),
    413: f"POST /authorize HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
}


@pytest.mark.parametrize("status", sorted(REJECTED_REQUESTS))
def test_a_reply_that_is_not_200_ends_the_connection(endpoint, status):
    with raw_connection(endpoint) as (sock, reader):
        # The request after the rejected one is never read.
        sock.sendall(REJECTED_REQUESTS[status] + get_request(POLICY_PATH))
        got, headers, payload = read_reply(reader)
        assert reader.read() == b""
    assert got == status
    assert headers["connection"] == "close"
    assert payload["decision"] == ERROR


def test_an_http_1_0_request_still_closes_its_connection(endpoint):
    with raw_connection(endpoint) as (sock, reader):
        sock.sendall(get_request(POLICY_PATH, "HTTP/1.0"))
        status, headers, payload = read_reply(reader)
        assert reader.read() == b""
    assert (status, headers["connection"]) == (200, "close")
    assert payload["resource_id"] == scenario.RESOURCE_ID


def test_a_request_asking_to_close_gets_connection_close_and_no_more(endpoint):
    asking = get_request(POLICY_PATH).replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
    with raw_connection(endpoint) as (sock, reader):
        sock.sendall(asking + get_request(POLICY_PATH))
        status, headers, _ = read_reply(reader)
        assert reader.read() == b""
    assert (status, headers["connection"]) == (200, "close")


def test_each_reply_is_one_write_with_a_date_and_no_server_name(endpoint, monkeypatch):
    writes = []
    setup = authz._Connection.setup

    def counting_setup(self):
        setup(self)
        write = self.wfile.write
        self.wfile.write = lambda data: (writes.append(data), write(data))[1]

    monkeypatch.setattr(authz._Connection, "setup", counting_setup)
    keep_alive = get_request(POLICY_PATH, "HTTP/1.0").replace(b"\r\n\r\n", b"\r\nConnection: keep-alive\r\n\r\n")
    with raw_connection(endpoint) as (sock, reader):
        sock.sendall(get_request(POLICY_PATH) + keep_alive + get_request("/elsewhere"))
        replies = [read_reply(reader) for _ in range(3)]
        assert reader.read() == b""
    assert [status for status, _, _ in replies] == [200, 200, 404]
    assert len(writes) == 3
    for (_, headers, payload), write in zip(replies, writes):
        assert write.startswith(b"HTTP/1.1 ") and write.endswith(json.dumps(payload).encode())
        assert email.utils.parsedate_to_datetime(headers["date"]).tzinfo is not None
        assert "server" not in headers
    assert ["connection" in headers for _, headers, _ in replies] == [False, False, True]


def test_switching_endpoints_closes_the_previous_connection(service, sent, fixture, backend, clock):
    with serving(make_server(service, "127.0.0.1", 0)) as first, serving(
        make_server(service, "127.0.0.1", 0)
    ) as second, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for endpoint in (first, second, first):
            outcome = request_access(
                endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock
            )
            assert outcome.decision == GRANT
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    # Each switch also drops the challenges carried for the other endpoint.
    assert sent == {"GET": 3, "POST": 3}


# --- each decision carries the next challenge ----------------------------------------------


@pytest.fixture
def exchanges(service, monkeypatch):
    """Counts of the GET /policy and POST /authorize requests the service
    answers, for a client thread that starts with no carried challenge."""
    close_connection()
    counts = collections.Counter()
    for method, name in (("GET", "policy_payload"), ("POST", "authorize_payload")):
        answer = getattr(service, name)

        def counting(*args, answer=answer, method=method):
            counts[method] += 1
            return answer(*args)

        monkeypatch.setattr(service, name, counting)
    yield counts
    close_connection()


def test_decision_replies_carry_the_next_challenge(service, fixture):
    first = service.policy_payload(scenario.RESOURCE_ID)
    response = build_response(
        fixture.key("bob"), bytes.fromhex(first["nonce"]), {"user": fixture.bob_creds}
    )
    status, payload = service.authorize_payload(
        {
            "resource_id": scenario.RESOURCE_ID,
            "nonce": first["nonce"],
            "subject": response.subject.hex(),
            "signature": response.signature.hex(),
            "credential_sets": {"user": [export_json(c) for c in fixture.bob_creds]},
        }
    )
    assert (status, payload["decision"]) == (200, GRANT)
    following = payload["next"]
    assert following["nonce"] != first["nonce"]
    assert {**following, "nonce": first["nonce"]} == first
    assert len(service.nonces._issued) == 1


@pytest.fixture
def sent(monkeypatch):
    """Counts of the requests this thread's client sends, by method."""
    close_connection()
    counts = collections.Counter()
    http_json = authz._http_json

    def counting(request, timeout):
        counts[request.get_method()] += 1
        return http_json(request, timeout)

    monkeypatch.setattr(authz, "_http_json", counting)
    yield counts
    close_connection()


def ask(endpoint, fixture, backend, clock, subject=None, creds=None) -> AuthzDecision:
    """Bob's request, or ``subject``'s presenting ``creds``."""
    if subject is None:
        subject, creds = fixture.key("bob"), fixture.bob_creds
    return request_access(endpoint, scenario.RESOURCE_ID, subject, creds, backend, clock)


def test_one_thread_fetches_one_challenge(endpoint, exchanges, fixture, backend, clock):
    assert [ask(endpoint, fixture, backend, clock).decision for _ in range(10)] == [GRANT] * 10
    assert exchanges == {"GET": 1, "POST": 10}


def test_the_nonce_table_holds_only_open_challenges(endpoint, exchanges, service, fixture, backend, clock):
    stranger = fresh_key(b"stranger")
    employee_only = [c for c in fixture.bob_creds if c.attribute == "employee"]
    mix = [
        (fixture.key("bob"), fixture.bob_creds, GRANT),
        (fixture.key("alice"), fixture.alice_creds, GRANT),
        (stranger, [], DENY),
        (fixture.key("bob"), employee_only, DENY),
    ]
    for index in range(200):
        subject, creds, expected = mix[index % len(mix)]
        assert ask(endpoint, fixture, backend, clock, subject, creds).decision == expected
    assert exchanges == {"GET": 1, "POST": 200}
    assert len(service.nonces._issued) == 1


def test_a_carried_nonce_that_expired_is_answered_again(endpoint, exchanges, service, fixture, backend, clock):
    now = [clock]
    service.clock_fn = lambda: now[0]
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    now[0] += NONCE_LIFETIME_US
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    assert exchanges == {"GET": 1, "POST": 3}


def test_a_carried_nonce_the_verifier_forgot_is_answered_again(endpoint, exchanges, service, fixture, backend, clock):
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    service.nonces = NonceTable()  # as after a restart
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    assert exchanges == {"GET": 1, "POST": 3}


def test_a_refused_nonce_from_a_policy_request_is_a_deny(
    endpoint, exchanges, service, fixture, backend, clock, monkeypatch
):
    policy_payload = service.policy_payload

    def spent(resource_id):
        payload = policy_payload(resource_id)
        service.nonces.consume(bytes.fromhex(payload["nonce"]))
        return payload

    monkeypatch.setattr(service, "policy_payload", spent)
    outcome = ask(endpoint, fixture, backend, clock)
    assert (outcome.decision, outcome.reasons) == (DENY, (NONCE_UNKNOWN,))
    assert exchanges == {"GET": 1, "POST": 1}
    # The refusal carried a challenge, which the next request answers.
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    assert exchanges == {"GET": 1, "POST": 2}


def test_close_connection_drops_the_carried_challenge(endpoint, exchanges, fixture, backend, clock):
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    close_connection()
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    assert exchanges == {"GET": 2, "POST": 2}


def test_a_challenge_left_unused_by_a_failed_collect_is_kept(
    endpoint, exchanges, service, fixture, backend, clock
):
    # Client and verifier share the one node: failing it fails the client's
    # own search, before its answer is sent.
    stranger = fresh_key(b"stranger")
    assert ask(endpoint, fixture, backend, clock, stranger, []).decision == DENY
    backend.fail_nodes([0])
    assert ask(endpoint, fixture, backend, clock, stranger, []).decision == ERROR
    assert exchanges == {"GET": 1, "POST": 1}
    backend.heal_nodes([0])
    assert ask(endpoint, fixture, backend, clock, stranger, []).decision == DENY
    assert exchanges == {"GET": 1, "POST": 2}
    assert len(service.nonces._issued) == 1


def test_another_resource_fetches_its_own_challenge(odd_service, sent, fixture, clock):
    with serving(make_server(odd_service, "127.0.0.1", 0)) as endpoint:
        for resource_id in (ODD_RESOURCE, "lab reports", ODD_RESOURCE, ODD_RESOURCE):
            request_access(
                endpoint, resource_id, fixture.key("bob"), fixture.bob_creds, odd_service.backend, clock
            )
        close_connection()
    # The unknown resource's 404 carries no challenge and leaves the one held
    # for the other resource, which the last two requests answer.
    assert sent == {"GET": 2, "POST": 3}


def test_a_client_alternating_resources_carries_a_challenge_for_each(staff_service, sent, fixture, clock):
    expected = {"staff-portal": GRANT, "admin-portal": DENY}
    with serving(make_server(staff_service, "127.0.0.1", 0)) as endpoint:
        for resource_id in list(expected) * 3:
            outcome = request_access(
                endpoint, resource_id, fixture.key("bob"), fixture.bob_creds, staff_service.backend, clock
            )
            assert outcome.decision == expected[resource_id]
        close_connection()
    assert sent == {"GET": 2, "POST": 6}


def test_two_client_threads_carry_their_own_challenges(endpoint, exchanges, fixture, backend, clock):
    stranger = fresh_key(b"stranger")
    outcomes = collections.defaultdict(list)

    def client(name):
        try:
            for index in range(10):
                subject = None if index % 2 else stranger
                outcomes[name].append(ask(endpoint, fixture, backend, clock, subject, []).decision)
        finally:
            close_connection()

    threads = [threading.Thread(target=client, args=(name,)) for name in ("one", "two")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes == {name: [DENY, GRANT] * 5 for name in ("one", "two")}
    assert exchanges == {"GET": 2, "POST": 20}


# --- the client re-presents what last granted -------------------------------------------


@pytest.fixture
def collects(monkeypatch):
    """Counts of ``collect`` calls by side: the client's run on this thread,
    the verifier's on the server's."""
    counts = collections.Counter()
    collect = authz.collect

    def counting(**kwargs):
        counts["client" if threading.current_thread() is threading.main_thread() else "verifier"] += 1
        return collect(**kwargs)

    monkeypatch.setattr(authz, "collect", counting)
    return counts


def test_a_repeat_grant_searches_on_neither_side(endpoint, sent, collects, fixture, backend, clock):
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    assert collects == {"client": 1, "verifier": 1}
    collects.clear()
    assert [ask(endpoint, fixture, backend, clock).decision for _ in range(3)] == [GRANT] * 3
    assert collects == {}
    assert sent == {"GET": 1, "POST": 4}


def test_a_revocation_after_a_grant_costs_one_more_post(endpoint, sent, collects, fixture, backend, clock):
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    world = fixture.key("world-agency")
    assert remove_delegation(
        fixture.store, world, "nado", parse_expression("us-agency", fixture.store.petname_table())
    )
    assert fixture.store.publish(world, backend, clock).ok
    sent.clear()
    outcome = ask(endpoint, fixture, backend, clock)
    assert (outcome.decision, outcome.reasons) == (DENY, ("no delegation chain proves 'user'",))
    assert sent == {"POST": 2}
    # The denied sets are forgotten: the next request searches and posts once.
    sent.clear()
    collects.clear()
    assert ask(endpoint, fixture, backend, clock).decision == DENY
    assert sent == {"POST": 1}
    assert collects == {"client": 1, "verifier": 1}


def test_a_request_with_fewer_credentials_neither_uses_nor_drops_the_granting_sets(
    endpoint, sent, collects, fixture, backend, clock
):
    bob = fixture.key("bob")
    employee_only = [c for c in fixture.bob_creds if c.attribute == "employee"]
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    collects.clear()
    assert ask(endpoint, fixture, backend, clock, bob, employee_only).decision == DENY
    assert collects == {"client": 1, "verifier": 1}
    sent.clear()
    collects.clear()
    assert ask(endpoint, fixture, backend, clock).decision == GRANT
    assert sent == {"POST": 1}
    assert collects == {}


def test_an_expired_credential_that_granted_is_not_presented_again(
    endpoint, sent, collects, service, fixture, backend, clock
):
    bob, lab_two = fixture.key("bob"), fixture.key("lab-two")
    employee = [c for c in fixture.bob_creds if c.attribute == "employee"]

    def controller(lifetime_us):
        return issue_credential(lab_two, bob.public_key, "controller", clock=clock, lifetime_us=lifetime_us)

    minute = 60_000_000  # within a carried nonce's lifetime
    short, lasting = controller(minute), controller(30 * 24 * HOUR)
    assert ask(endpoint, fixture, backend, clock, bob, employee + [short]).decision == GRANT
    later = clock + minute
    service.clock_fn = lambda: later
    sent.clear()
    collects.clear()
    outcome = ask(endpoint, fixture, backend, later, bob, employee + [short, lasting])
    assert outcome.decision == GRANT
    assert sent == {"POST": 1}
    assert collects["client"] == 1


# Errors once answered by the standard library's request handler, and now
# found and answered by abd itself: an unsupported method, a request line
# over 64 KiB and a header line over 64 KiB.
STDLIB_ERRORS = {
    "put": (b"PUT /authorize HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
    "head": (b"HEAD /policy/r HTTP/1.1\r\n\r\n", 501),
    "long-uri": (get_request("/policy/" + "u" * 70_000), 414),
    "long-header": (
        b"GET /policy/r HTTP/1.1\r\nX-Long: " + b"h" * 70_000 + b"\r\n\r\n", 431
    ),
}


@pytest.mark.parametrize("case", sorted(STDLIB_ERRORS))
def test_errors_the_standard_library_finds_are_json_decisions(endpoint, case):
    request, expected = STDLIB_ERRORS[case]
    with raw_connection(endpoint) as (sock, reader):
        sock.sendall(request)
        status, headers, payload = read_reply(reader)
    assert status == expected
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert payload["decision"] == ERROR
    assert payload["reasons"] and len(json.dumps(payload)) < 1_000


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


def hex_of(size: int) -> st.SearchStrategy:
    return st.binary(min_size=size, max_size=size).map(bytes.hex)


def json_object(fields: dict) -> st.SearchStrategy:
    """Objects with these fields, of which at most one is left out or
    replaced by a JSON value or a hex string of any length."""

    def damage(parts):
        obj, name, value, drop = parts
        if name is not None:
            if drop:
                del obj[name]
            else:
                obj[name] = value
        return obj

    return st.tuples(
        st.fixed_dictionaries(fields),
        st.none() | st.sampled_from(sorted(fields)),
        JSON_VALUES | st.binary(max_size=70).map(bytes.hex),
        st.booleans(),
    ).map(damage)


CREDENTIAL_JSON = json_object(
    {
        "issuer": hex_of(32),
        "subject": hex_of(32),
        "attribute": st.sampled_from(["user", "employee"]),
        "expiration_us": st.integers(min_value=-(2**70), max_value=2**70),
        "signature": hex_of(64),
    }
)
# Near-valid requests get past the parser into authorize_payload's field
# checks and authorize itself; raw bytes and bare JSON values try the parser.
AUTHORIZE_JSON = json_object(
    {
        "resource_id": st.just(scenario.RESOURCE_ID),
        "nonce": hex_of(16),
        "subject": hex_of(32),
        "signature": hex_of(64),
        "credential_sets": st.dictionaries(
            st.sampled_from(["user", "employee"]) | st.text(max_size=8),
            st.lists(CREDENTIAL_JSON, max_size=2) | JSON_VALUES,
            max_size=2,
        ),
    }
)
BODIES = AUTHORIZE_JSON.map(lambda value: json.dumps(value).encode()) | st.one_of(
    st.binary(max_size=200),
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
)
HEADER_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=24
)


def authorize_body(resource_id=scenario.RESOURCE_ID, credential=None) -> bytes:
    credentials = [] if credential is None else [credential]
    return json.dumps(
        {
            "resource_id": resource_id,
            "nonce": "00" * 16,
            "subject": "00" * 32,
            "signature": "00" * 64,
            "credential_sets": {"user": credentials},
        }
    ).encode()


# Each example once closed the connection without a reply.
@example(body=authorize_body(resource_id=["wiki"]), content_length="exact", content_type=None)
@example(
    body=authorize_body(
        credential={
            "issuer": "00" * 32,
            "subject": "00" * 32,
            "attribute": "user",
            "expiration_us": 2**64,
            "signature": "00" * 64,
        }
    ),
    content_length="exact",
    content_type=None,
)
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    body=BODIES,
    content_length=st.just("exact")
    | st.one_of(
        st.none(),
        st.integers(min_value=-10, max_value=2 * MAX_BODY_BYTES).map(str),
        HEADER_TEXT,
    ),
    content_type=st.none() | st.just("application/json") | HEADER_TEXT,
)
def test_http_answers_every_authorize_request_with_a_json_decision(
    endpoint, body, content_length, content_type
):
    headers = [b"POST /authorize HTTP/1.1", b"Host: 127.0.0.1"]
    if content_length == "exact":
        content_length = str(len(body))
    if content_length is not None:
        headers.append(b"Content-Length: " + content_length.encode())
    if content_type is not None:
        headers.append(b"Content-Type: " + content_type.encode())
    status, payload = send_raw(endpoint, b"\r\n".join(headers) + b"\r\n\r\n" + body)
    assert 200 <= status < 600
    assert payload["decision"] in (GRANT, DENY, ERROR)


def test_http_outage_is_503_not_deny(endpoint, service, fixture, backend, clock):
    # Build a valid response while the backend is still up.
    policy = service.policy_payload(scenario.RESOURCE_ID)
    response = build_response(
        fixture.key("bob"), bytes.fromhex(policy["nonce"]), {"user": fixture.bob_creds}
    )
    body = {
        "resource_id": scenario.RESOURCE_ID,
        "nonce": response.nonce.hex(),
        "subject": response.subject.hex(),
        "signature": response.signature.hex(),
        "credential_sets": {"user": [export_json(c) for c in fixture.bob_creds]},
    }
    backend.fail_nodes([0])
    status, payload = post_json(f"{endpoint}/authorize", body)
    assert status == 503
    assert payload["decision"] == ERROR


def test_an_outage_reads_the_same_at_the_client_and_the_verifier(endpoint, fixture, backend, clock):
    backend.fail_nodes([0])
    verifier = decide_portal(
        fixture, backend, clock,
        lambda nonce: build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds}),
    )
    client = ask(endpoint, fixture, backend, clock)
    assert client.decision == verifier.decision == ERROR
    assert client.reasons == verifier.reasons
    assert verifier.reasons[0].startswith("name system unavailable: ")


# --- one signature per connection, a MAC per decision ----------------------------------------


@pytest.fixture
def ed25519(monkeypatch):
    """Counts of the response signatures this process makes and of those
    ``authz`` verifies: the client's and the verifier's, in one process."""
    counts = collections.Counter()
    sign, verify = NamespaceKey.sign, authz.verify_signature

    def counting_sign(self, message):
        counts["signs"] += 1
        return sign(self, message)

    def counting_verify(*args, **kwargs):
        counts["verifies"] += 1
        return verify(*args, **kwargs)

    monkeypatch.setattr(NamespaceKey, "sign", counting_sign)
    monkeypatch.setattr(authz, "verify_signature", counting_verify)
    return counts


def test_a_kept_connection_signs_and_verifies_once_per_subject(service, sent, ed25519, fixture, backend, clock):
    httpd = make_server(service, "127.0.0.1", 0)
    accepted = []
    accept = httpd.get_request

    def counting_accept():
        accepted.append(None)
        return accept()

    httpd.get_request = counting_accept
    subjects = [(fixture.key("bob"), fixture.bob_creds), (fixture.key("alice"), fixture.alice_creds)]
    with serving(httpd) as endpoint:
        decisions = [ask(endpoint, fixture, backend, clock, *subjects[i % 2]).decision for i in range(20)]
    assert decisions == [GRANT] * 20
    assert len(accepted) == 1
    assert sent == {"GET": 1, "POST": 20}
    # Bob's first answer goes to a fetched challenge and offers no session;
    # his second and alice's first open one each.
    assert ed25519 == {"signs": 3, "verifies": 3}


def test_a_full_client_keeps_its_sessions_and_signs_the_rest(
    endpoint, sent, ed25519, fixture, backend, clock, monkeypatch
):
    monkeypatch.setattr(authz, "MAX_SESSIONS", 1)
    subjects = [(fixture.key("bob"), fixture.bob_creds), (fixture.key("alice"), fixture.alice_creds)]
    decisions = [ask(endpoint, fixture, backend, clock, *subjects[i // 2 % 2]).decision for i in range(8)]
    assert decisions == [GRANT] * 8
    # Bob's second answer opens the one session and it stays; alice's four
    # answers are signed and offer none, so no subject's session is churned
    # by another's.
    assert sent == {"GET": 1, "POST": 8}
    assert ed25519 == {"signs": 6, "verifies": 6}
    assert list(authz._kept.sessions) == [fixture.key("bob").public_key]


def test_the_verifier_holds_at_most_max_sessions_across_connections(fixture, backend, clock, monkeypatch):
    monkeypatch.setattr(authz, "MAX_SESSIONS", 1)
    service = verifier_over(fixture.key("portal"), backend, clock)
    bob, alice = fixture.key("bob"), fixture.key("alice")
    fresh = lambda: service.nonces.issue(scenario.RESOURCE_ID, clock)  # noqa: E731
    with serving(make_server(service, "127.0.0.1", 0)) as endpoint, connections(endpoint, 2) as (first, second):
        bobs = open_session(first, service, bob, fixture.bob_creds)
        alices = open_session(second, service, alice, fixture.alice_creds)
        # Alice's session, opened on another connection, evicted bob's.
        refused = post_on(first, mac_body(bobs, fresh(), bob, fixture.bob_creds))
        assert refused["reasons"] == [authz.NO_SESSION]
        assert post_on(first, mac_body(alices, fresh(), alice, fixture.alice_creds))["decision"] == GRANT


def post_on(connection: http.client.HTTPConnection, body: dict) -> dict:
    """The decision a kept connection's ``POST /authorize`` of ``body`` gets."""
    connection.request("POST", "/authorize", json.dumps(body), {"Content-Type": "application/json"})
    with connection.getresponse() as reply:
        assert reply.status == 200
        return json.loads(reply.read())


def answer_body(nonce: bytes, subject: NamespaceKey, creds, **proof: bytes) -> dict:
    return {
        "resource_id": scenario.RESOURCE_ID,
        "nonce": nonce.hex(),
        "subject": subject.public_key.hex(),
        "credential_sets": {"user": [export_json(c) for c in creds]},
        **{name: value.hex() for name, value in proof.items()},
    }


def mac_body(session: tuple[bytes, bytes], nonce: bytes, subject: NamespaceKey, creds) -> dict:
    """An answer MAC'd under ``session``'s key, naming it by its share."""
    share, key = session
    mac = authz._mac(key, response_signing_bytes(nonce, subject.public_key, {"user": creds}, share))
    return answer_body(nonce, subject, creds, session_key=share, mac=mac)


def open_session(connection, service, subject: NamespaceKey, creds) -> tuple[bytes, bytes]:
    """The client's share and the key of the session a signed answer for
    ``subject`` opens, sent on ``connection``."""
    nonce = service.nonces.issue(scenario.RESOURCE_ID, service.clock_fn())
    ephemeral = X25519PrivateKey.generate()
    offered = ephemeral.public_key().public_bytes_raw()
    signed = build_response(subject, nonce, {"user": creds}, offered)
    reply = post_on(connection, answer_body(nonce, subject, creds, signature=signed.signature, session_key=offered))
    assert reply["decision"] == GRANT
    share = bytes.fromhex(reply["session_key"])
    return offered, authz._session_key(ephemeral, share, subject.public_key, offered, share, nonce)


@contextlib.contextmanager
def connections(endpoint: str, count: int):
    host, port = endpoint.removeprefix("http://").split(":")
    opened = [http.client.HTTPConnection(host, int(port), timeout=5) for _ in range(count)]
    try:
        yield opened
    finally:
        for connection in opened:
            connection.close()


def test_a_mac_grants_only_under_its_own_session(endpoint, service, fixture):
    bob, alice, creds = fixture.key("bob"), fixture.key("alice"), fixture.bob_creds
    fresh = lambda: service.nonces.issue(scenario.RESOURCE_ID, service.clock_fn())  # noqa: E731
    with connections(endpoint, 2) as (first, second):
        share, key = open_session(first, service, bob, creds)
        other_share, other = open_session(first, service, bob, creds)
        alices_share, _ = open_session(first, service, alice, fixture.alice_creds)
        assert key != other
        nonce = fresh()
        # A wrong key naming a real session.
        wrong = post_on(first, mac_body((other_share, key), nonce, bob, creds))
        assert wrong["reasons"] == ["response MAC invalid"]
        # One flipped MAC byte.
        body = mac_body((share, key), nonce, bob, creds)
        body["mac"] = f"{int(body['mac'][:2], 16) ^ 1:02x}" + body["mac"][2:]
        assert post_on(first, body)["reasons"] == ["response MAC invalid"]
        # An unknown share, or another subject's: refused, and the nonce stays usable.
        for unknown in (bytes(32), alices_share):
            refused = post_on(first, mac_body((unknown, key), nonce, bob, creds))
            assert (refused["decision"], refused["reasons"]) == (DENY, [authz.NO_SESSION])
            assert "session_key" not in refused and refused["next"]["nonce"] != nonce.hex()
            assert service.nonces.status(nonce, scenario.RESOURCE_ID, service.clock_fn()) is None
        # The right MAC grants, once, on whichever connection it arrives.
        assert post_on(second, mac_body((share, key), nonce, bob, creds))["decision"] == GRANT
        assert post_on(second, mac_body((share, key), nonce, bob, creds))["reasons"] == [NONCE_UNKNOWN]
        assert post_on(first, mac_body((share, key), nonce, bob, creds))["reasons"] == [NONCE_UNKNOWN]
        assert post_on(first, mac_body((other_share, other), fresh(), bob, creds))["decision"] == GRANT


def test_a_maced_response_decided_twice_at_once_grants_once(tmp_path, clock):
    backend = ReplayOnFirstGet(ONE_NODE)
    fixture = scenario.build_fixture(NamespaceStore(tmp_path / "home"), backend, clock=clock)
    table, sessions, bob = NonceTable(), ChainTable(authz.MAX_SESSIONS), fixture.key("bob")
    share, key = bytes(range(32)), bytes(range(32, 64))
    sessions.put((bob.public_key, share), key)
    nonce = table.issue(scenario.RESOURCE_ID, clock)
    sets = {"user": tuple(fixture.bob_creds)}
    mac = authz._mac(key, response_signing_bytes(nonce, bob.public_key, sets, share))
    response = AuthorizationResponse(nonce, bob.public_key, sets, signature=None, session_key=share, mac=mac)

    def decide():
        return authorize(
            fixture.key("portal").public_key, response, portal_policy(), backend, clock, table, sessions=sessions
        )

    inner = []
    backend.replay = lambda: inner.append(decide())
    outer = decide()
    assert [d.decision for d in inner + [outer]] == [GRANT, DENY]
    assert outer.reasons == (NONCE_UNKNOWN,)


def test_an_answer_opening_a_session_decided_twice_at_once_opens_it_once(tmp_path, clock):
    backend = ReplayOnFirstGet(ONE_NODE)
    fixture = scenario.build_fixture(NamespaceStore(tmp_path / "home"), backend, clock=clock)
    table, sessions, bob = NonceTable(), ChainTable(authz.MAX_SESSIONS), fixture.key("bob")
    ephemeral = X25519PrivateKey.generate()
    offered = ephemeral.public_key().public_bytes_raw()
    nonce = table.issue(scenario.RESOURCE_ID, clock)
    response = build_response(bob, nonce, {"user": fixture.bob_creds}, offered)

    def decide():
        return authorize(
            fixture.key("portal").public_key, response, portal_policy(), backend, clock, table, sessions=sessions
        )

    inner = []
    backend.replay = lambda: inner.append(decide())
    outer = decide()
    # Only the copy that used the nonce up opens a session, so a copy raced
    # beside the client's cannot replace the key the client derives.
    assert [(d.decision, d.session_key is None) for d in inner + [outer]] == [(GRANT, False), (DENY, True)]
    share = inner[0].session_key
    derived = authz._session_key(ephemeral, share, bob.public_key, offered, share, nonce)
    assert sessions.get((bob.public_key, offered)) == derived


@pytest.mark.parametrize("carried", [True, False], ids=["carried-challenge", "fetched-challenge"])
def test_a_session_the_verifier_dropped_costs_one_exchange(
    endpoint, service, sent, ed25519, fixture, backend, clock, carried
):
    assert [ask(endpoint, fixture, backend, clock).decision for _ in range(3)] == [GRANT] * 3
    assert (sent, ed25519) == ({"GET": 1, "POST": 3}, {"signs": 2, "verifies": 2})
    if not carried:
        authz._kept.challenges.clear()  # the next answer goes to a fetched challenge
    # A restart: the carried nonce and the session are both gone.
    service.nonces, service.sessions = NonceTable(), ChainTable(authz.MAX_SESSIONS)
    outcome = ask(endpoint, fixture, backend, clock)
    assert (outcome.decision, outcome.reasons) == (GRANT, ())
    # The MAC'd answer is refused, then answered once more, signed.
    assert (sent, ed25519) == ({"GET": 1 if carried else 2, "POST": 5}, {"signs": 3, "verifies": 3})


def test_two_threads_of_one_subject_keep_separate_sessions(endpoint, service, ed25519, fixture, backend, clock):
    start, outcomes = threading.Barrier(2), []

    def client():
        try:
            start.wait()
            outcomes.extend(ask(endpoint, fixture, backend, clock) for _ in range(10))
        finally:
            close_connection()

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Each thread signs twice, its second answer opening its own session:
    # neither thread's session displaces the other's, so no MAC is refused.
    assert [(o.decision, o.reasons) for o in outcomes] == [(GRANT, ())] * 20
    assert ed25519 == {"signs": 4, "verifies": 4}
    assert len(service.sessions._entries) == 2


@pytest.mark.parametrize("share", [5, "zz", "00" * 31, "00" * 32], ids=["number", "not-hex", "short", "low-order"])
def test_a_reply_whose_session_key_is_unusable_opens_no_session(fixture, backend, clock, ed25519, share, monkeypatch):
    derived, session_key = [], authz._session_key
    monkeypatch.setattr(authz, "_session_key", lambda *args: derived.append(None) or session_key(*args))
    policy = stub_policy(fixture)
    deny = json.dumps(
        {"decision": "deny", "reasons": ["no"], "chain_summaries": [], "session_key": share, "next": policy}
    ).encode()
    replies = {"GET": (framed(json.dumps(policy).encode()), False), "POST": (framed(deny), False)}
    with raw_verifier(replies) as endpoint:
        for _ in range(3):
            outcome = ask(endpoint, fixture, backend, clock)
            assert (outcome.decision, outcome.reasons) == (DENY, ("no",))
            assert not authz._kept.sessions
    # The answers to the two carried challenges offered a session, and none opened.
    assert ed25519["signs"] == 3 and len(derived) == 2


# --- resource ids that are not URL-safe ----------------------------------------------------

ODD_RESOURCE = "lab reports/2026?all"


@pytest.fixture
def odd_service(fixture, backend, clock):
    policy = Policy(resource_id=ODD_RESOURCE, required_attributes=("user",))
    return VerifierService(
        verifier_pub=fixture.key("portal").public_key,
        policies=PolicyStore({ODD_RESOURCE: policy}),
        backend=backend,
        clock_fn=lambda: clock,
    )


def test_a_resource_id_with_a_space_and_a_slash_in_process(odd_service, fixture, clock):
    assert odd_service.policy_payload(ODD_RESOURCE)["resource_id"] == ODD_RESOURCE
    decision = decide_fresh(
        odd_service.verifier_pub,
        lambda nonce: build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds}),
        odd_service.policies.get_policy(ODD_RESOURCE),
        odd_service.backend,
        clock,
    )
    assert decision.decision == GRANT


def test_a_resource_id_with_a_space_and_a_slash_over_http(odd_service, fixture, clock):
    with serving(make_server(odd_service, "127.0.0.1", 0)) as endpoint:
        outcome = request_access(
            endpoint, ODD_RESOURCE, fixture.key("bob"), fixture.bob_creds,
            odd_service.backend, clock,
        )
        assert outcome.decision == GRANT
        # The id is matched whole, not as a path prefix.
        outcome = request_access(
            endpoint, "lab reports", fixture.key("bob"), fixture.bob_creds,
            odd_service.backend, clock,
        )
        assert outcome.decision == ERROR
        assert "no policy" in outcome.reasons[0]


# --- the client answers grant, deny or error, whatever the verifier sends -----------------


@pytest.fixture
def stub_verifier():
    """A server answering every request with ``replies[method]``: a body,
    sent with status 200, or a (status, body) pair."""
    replies = {}

    class Stub(BaseHTTPRequestHandler):
        def _reply(self) -> None:
            self.rfile.read(int(self.headers.get("Content-Length", "0")))
            body = replies[self.command]
            status, body = body if isinstance(body, tuple) else (200, body)
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = do_POST = _reply

        def log_message(self, format, *args) -> None:
            pass

    with serving(ThreadingHTTPServer(("127.0.0.1", 0), Stub)) as url:
        yield url, replies


@pytest.mark.parametrize("policy_reply", [b"<html>policy</html>", b"[1, 2]", b'"nonce"'])
def test_a_policy_reply_that_is_not_a_json_object_is_an_error(
    stub_verifier, fixture, backend, clock, policy_reply
):
    endpoint, replies = stub_verifier
    replies["GET"] = policy_reply
    outcome = request_access(
        endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock
    )
    assert outcome.decision == ERROR
    assert "bad reply" in outcome.reasons[0]


@pytest.mark.parametrize(
    "decision_reply",
    [b"granted!", b"[]", b'{"decision": "maybe"}', b'{"decision": "deny", "reasons": 5}'],
)
def test_a_decision_reply_that_is_not_a_decision_is_an_error(
    stub_verifier, fixture, backend, clock, decision_reply
):
    endpoint, replies = stub_verifier
    replies["GET"] = json.dumps(
        {
            "resource_id": scenario.RESOURCE_ID,
            "required_attributes": ["user"],
            "verifier": fixture.key("portal").public_key.hex(),
            "nonce": "00" * 16,
        }
    ).encode()
    replies["POST"] = decision_reply
    outcome = request_access(
        endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock
    )
    assert outcome.decision == ERROR
    assert "bad reply" in outcome.reasons[0]


@pytest.mark.parametrize("method", ["GET", "POST"])
def test_a_reply_that_is_not_200_is_an_error_whatever_it_states(
    stub_verifier, sent, fixture, backend, clock, method
):
    endpoint, replies = stub_verifier
    replies["GET"] = json.dumps(stub_policy(fixture)).encode()
    grant = {"decision": "grant", "reasons": [], "chain_summaries": ["a chain"]}
    replies[method] = (403, json.dumps(grant).encode())
    outcome = request_access(
        endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock
    )
    assert (outcome.decision, outcome.chain_summaries) == (ERROR, ())
    assert outcome.reasons == ("verifier answered grant with status 403",)
    assert sent == {"GET": 1, "POST": 1} if method == "POST" else {"GET": 1}


def stub_policy(fixture) -> dict:
    return {
        "resource_id": scenario.RESOURCE_ID,
        "required_attributes": ["user"],
        "verifier": fixture.key("portal").public_key.hex(),
        "nonce": "00" * 16,
    }


def stub_deny(reason: str, following) -> bytes:
    return json.dumps(
        {"decision": "deny", "reasons": [reason], "chain_summaries": [], "next": following}
    ).encode()


@pytest.mark.parametrize(
    "carried",
    [
        "zz",
        [1],
        {"nonce": "00" * 16},
        {"verifier": "zz", "nonce": "00" * 16, "required_attributes": ["user"]},
        {"verifier": "00" * 32, "nonce": "00" * 16, "required_attributes": "user"},
    ],
    ids=["string", "list", "no-verifier", "bad-hex", "attributes-string"],
)
def test_a_malformed_next_challenge_is_dropped(stub_verifier, sent, fixture, backend, clock, carried):
    endpoint, replies = stub_verifier
    replies["GET"] = json.dumps(stub_policy(fixture)).encode()
    replies["POST"] = stub_deny("no delegation chain proves 'user'", carried)
    for _ in range(2):
        outcome = request_access(
            endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock
        )
        assert (outcome.decision, outcome.reasons) == (DENY, ("no delegation chain proves 'user'",))
    assert sent == {"GET": 2, "POST": 2}


def test_a_refused_carried_nonce_without_a_next_is_answered_once_more(
    stub_verifier, sent, fixture, backend, clock
):
    endpoint, replies = stub_verifier
    replies["GET"] = json.dumps(stub_policy(fixture)).encode()
    replies["POST"] = stub_deny("no delegation chain proves 'user'", stub_policy(fixture))

    def ask_stub():
        return request_access(
            endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock
        )

    assert ask_stub().decision == DENY
    replies["POST"] = stub_deny(NONCE_UNKNOWN, None)
    # The carried nonce is refused, so a fetched one is sent; its refusal stands.
    outcome = ask_stub()
    assert (outcome.decision, outcome.reasons) == (DENY, (NONCE_UNKNOWN,))
    assert sent == {"GET": 2, "POST": 3}


@pytest.mark.parametrize(
    "required_attributes",
    ["user", [5], ["NOT A LABEL"], []],
    ids=["string", "number", "label", "empty"],
)
def test_a_policy_that_is_not_a_list_of_labels_is_an_error(
    stub_verifier, fixture, backend, clock, required_attributes
):
    endpoint, replies = stub_verifier
    replies["GET"] = json.dumps(
        {
            "resource_id": scenario.RESOURCE_ID,
            "required_attributes": required_attributes,
            "verifier": fixture.key("portal").public_key.hex(),
            "nonce": "00" * 16,
        }
    ).encode()
    outcome = request_access(
        endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock
    )
    assert outcome.decision == ERROR
    assert outcome.reasons[0].startswith("bad policy response: ")


def test_a_reply_that_is_not_http_is_an_error(fixture, backend, clock):
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def answer_garbage():
            connection, _ = listener.accept()
            with connection:
                connection.recv(65536)
                connection.sendall(b"garbage\r\n\r\n")

        thread = threading.Thread(target=answer_garbage, daemon=True)
        thread.start()
        outcome = request_access(
            f"http://127.0.0.1:{listener.getsockname()[1]}", scenario.RESOURCE_ID,
            fixture.key("bob"), fixture.bob_creds, backend, clock, timeout=5,
        )
        thread.join(timeout=5)
    assert outcome.decision == ERROR
    assert "bad reply" in outcome.reasons[0]


def test_request_access_reports_unreachable_verifier(fixture, backend, clock):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    outcome = request_access(
        f"http://127.0.0.1:{port}",
        scenario.RESOURCE_ID,
        fixture.key("bob"),
        fixture.bob_creds,
        backend,
        clock,
        timeout=2,
    )
    assert outcome.decision == ERROR
    assert "unreachable" in outcome.reasons[0]


# --- request heads the verifier reads itself ------------------------------------------------


TOKEN_CHARS = "!#$%&'*+.^_`|~-0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
TOKENS = st.text(alphabet=TOKEN_CHARS, min_size=1, max_size=12)
VALUES = st.from_regex(r"[!-~]([ !-~]{0,20}[!-~])?", fullmatch=True)
WELL_FORMED_LINES = st.tuples(TOKENS, VALUES).map(lambda field: f"{field[0]}: {field[1]}".encode())
HEAD_LINES = st.one_of(
    WELL_FORMED_LINES,
    st.binary(max_size=40),
    VALUES.map(str.encode),  # no colon, mostly
    WELL_FORMED_LINES.map(lambda line: b" " + line),  # obs-fold
    st.sampled_from(
        [b"Content-Length: 0", b"Content-Length: 2", b"Connection: close", b"Connection: keep-alive",
         b"Transfer-Encoding: chunked", b"Expect: 100-continue", b"Host: 127.0.0.1"]
    ),
)
LONG_LINES = st.integers(min_value=-4, max_value=4).map(lambda d: b"X-Long: " + b"x" * (authz.MAX_LINE_BYTES - 10 + d))
REQUEST_LINES = st.one_of(
    st.tuples(
        st.sampled_from([b"GET", b"POST", b"PUT", b"get"]),
        st.sampled_from([POLICY_PATH.encode(), b"/authorize", b"/policy/nope", b"*"]),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/1.2", b"HTTP/2.0", b"http/1.1", b""]),
    ).map(b" ".join),
    st.binary(max_size=60),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    request_line=REQUEST_LINES,
    lines=st.lists(st.tuples(HEAD_LINES, st.sampled_from([b"\r\n", b"\n"])), max_size=120),
    long_lines=st.lists(LONG_LINES, max_size=2),
    body=st.sampled_from([b"", b"{}", b"{nope"]),
)
def test_every_request_head_gets_a_json_reply(endpoint, request_line, lines, long_lines, body):
    head = b"".join(line + end for line, end in lines) + b"".join(line + b"\r\n" for line in long_lines)
    status, payload = send_raw(endpoint, request_line + b"\r\n" + head + b"\r\n" + body)
    assert 200 <= status < 600
    if status == 200:  # a challenge
        assert payload["resource_id"] == scenario.RESOURCE_ID
    else:
        assert payload["decision"] == ERROR
    # The server is still there for a well-formed request.
    with raw_connection(endpoint) as (sock, reader):
        sock.sendall(get_request(POLICY_PATH))
        assert read_reply(reader)[0] == 200


def parsed_by_the_verifier(head: bytes):
    """The request line split in three, and the header lines, as ``abd
    serve`` reads a request head."""
    request_line, headers = authz._read_head(io.BytesIO(head), authz._REQUEST_LINE)
    method, target, version = (part.decode("latin-1") for part in request_line.groups())
    return method, target, version, headers


def parsed_by_the_standard_library(head: bytes):
    """The reference: the request line split on spaces, and the header lines
    as ``http.client.parse_headers`` reads them."""
    rfile = io.BytesIO(head)
    method, target, version = rfile.readline().decode("latin-1").rstrip("\r\n").split(" ")
    return method, target, version, http.client.parse_headers(rfile)


@settings(max_examples=200)
@given(
    method=st.sampled_from(["GET", "POST", "PUT"]),
    target=st.from_regex(r"/[!-~]{0,30}", fullmatch=True),
    version=st.sampled_from(["HTTP/1.0", "HTTP/1.1"]),
    # Within the standard library's bound of 99; a second Content-Length
    # that differs is refused, so it is left out.
    fields=st.lists(
        st.tuples(TOKENS.filter(lambda name: name.lower() not in ("content-length", "transfer-encoding")), VALUES),
        max_size=99,
    ),
    ends=st.sampled_from(["\r\n", "\n"]),
)
def test_the_verifier_reads_a_well_formed_head_as_the_standard_library_does(method, target, version, fields, ends):
    lines = [f"{method} {target} {version}"] + [f"{name}: {value}" for name, value in fields]
    head = (ends.join(lines) + ends + ends).encode("latin-1")
    method, target, version, headers = parsed_by_the_verifier(head)
    reference_method, reference_target, reference_version, reference = parsed_by_the_standard_library(head)
    assert (method, target, version) == (reference_method, reference_target, reference_version)
    assert set(headers) == {name.lower() for name in reference.keys()}
    for name in reference.keys():
        assert headers[name.lower()] == reference.get(name)


def test_expect_100_continue_is_answered_before_the_body_is_sent(endpoint):
    with raw_connection(endpoint) as (sock, reader):
        sock.sendall(b"POST /authorize HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n")
        assert read_head(reader) == (b"HTTP/1.1 100 Continue\r\n", {})
        sock.sendall(b"{}")
        status, _, payload = read_reply(reader)
    assert (status, payload["decision"]) == (400, ERROR)
    assert payload["reasons"] == ["missing field 'resource_id'"]


@pytest.mark.parametrize(
    "head, status",
    [
        (b"Content-Length: 2\r\nContent-Length: 3\r\n", 400),
        (b"Transfer-Encoding: chunked\r\n", 501),
        (b"X-Header: h\r\n" * 101, 431),
        (b" Folded: h\r\n", 400),
        (b"No colon\r\n", 400),
    ],
    ids=["content-lengths-differ", "chunked", "101-lines", "obs-fold", "no-colon"],
)
def test_a_refused_head_gets_its_status_and_ends_the_connection(endpoint, head, status):
    with raw_connection(endpoint) as (sock, reader):
        sock.sendall(b"POST /authorize HTTP/1.1\r\n" + head + b"\r\n{}" + get_request(POLICY_PATH))
        got, headers, payload = read_reply(reader)
        assert reader.read() == b""
    assert (got, headers["connection"], payload["decision"]) == (status, "close", ERROR)


def test_a_head_over_its_byte_cap_is_431_however_few_its_lines(endpoint):
    line = b"X-Big: " + b"x" * (40 * 1024 - 9) + b"\r\n"  # 40 KiB, line end included
    request = get_request(POLICY_PATH).replace(b"\r\n\r\n", b"\r\n" + line * 2 + b"\r\n")
    status, payload = send_raw(endpoint, request)
    assert (status, payload["decision"]) == (431, ERROR)


def test_a_hundred_header_lines_are_read(endpoint):
    # Host and 99 more
    request = get_request(POLICY_PATH).replace(b"\r\n\r\n", b"\r\n" + b"X-Header: h\r\n" * 99 + b"\r\n")
    status, payload = send_raw(endpoint, request)
    assert (status, payload["resource_id"]) == (200, scenario.RESOURCE_ID)


# --- replies the client reads itself -----------------------------------------------------------


@contextlib.contextmanager
def raw_verifier(replies: dict):
    """A verifier that answers each request with ``replies[method]``, a
    pair of raw reply bytes and whether to close the connection after them."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.01)
    stopping = threading.Event()

    def answer(connection):
        # The client may hang up first, on a reply it refused.
        with connection, connection.makefile("rb") as reader, contextlib.suppress(OSError):
            while (head := read_head(reader))[0]:
                request_line, headers = head
                reader.read(int(headers.get("content-length", "0")))
                reply, close = replies[request_line.split(b" ")[0].decode()]
                connection.sendall(reply)
                if close:
                    return

    def accept():
        threads = []
        while not stopping.is_set():
            try:
                connection, _ = listener.accept()
            except TimeoutError:
                continue
            connection.settimeout(5)
            threads.append(threading.Thread(target=answer, args=(connection,), daemon=True))
            threads[-1].start()
        for thread in threads:
            thread.join(timeout=5)

    acceptor = threading.Thread(target=accept, daemon=True)
    acceptor.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        close_connection()  # the client's kept connection ends its answering thread
        stopping.set()
        acceptor.join(timeout=5)
        listener.close()


def framed(body: bytes) -> bytes:
    return b"HTTP/1.1 200 OK\r\nContent-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body


POLICY_REPLY = {"resource_id": scenario.RESOURCE_ID, "required_attributes": ["user"], "nonce": "00" * 16}
DENY_REPLY = json.dumps({"decision": "deny", "reasons": ["no"], "chain_summaries": []}).encode()
STATUS_LINES = st.sampled_from(
    [b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 200", b"HTTP/1.1 503 Unavailable", b"HTTP/1.1 100 Continue",
     b"HTTP/2 200 OK", b"HTTP/1.1 20 OK", b"ICY 200 OK", b"HTTP/1.1 2000 OK", b""]
) | st.binary(max_size=20)
REPLY_HEAD_LINES = st.sampled_from(
    [b"Content-Length: 5", b"Content-Length: 100000", b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode(),
     b"Content-Length: -1", b"Content-Length: x", b"Transfer-Encoding: chunked", b"Connection: close",
     b"Content-Type: application/json", b" folded", b"no colon"]
) | st.binary(max_size=20)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    method=st.sampled_from(["GET", "POST"]),
    status_line=STATUS_LINES,
    head=st.lists(REPLY_HEAD_LINES, max_size=4),
    with_length=st.booleans(),
    body=st.sampled_from([DENY_REPLY, b'{"decision": "grant"}', b"5\r\nhello\r\n0\r\n\r\n", b""]) | st.binary(max_size=40),
    cut=st.none() | st.integers(min_value=0, max_value=200),
    continue_first=st.booleans(),
)
def test_the_client_answers_grant_deny_or_error_whatever_the_reply(
    fixture, backend, clock, method, status_line, head, with_length, body, cut, continue_first
):
    lines = [status_line, *head] + ([b"Content-Length: " + str(len(body)).encode()] if with_length else [])
    reply = b"\r\n".join(lines) + b"\r\n\r\n" + body
    if continue_first:
        reply = b"HTTP/1.1 100 Continue\r\n\r\n" + reply
    if cut is not None:
        reply = reply[:cut]
    policy = dict(POLICY_REPLY, verifier=fixture.key("portal").public_key.hex())
    replies = {"GET": (framed(json.dumps(policy).encode()), False), "POST": (framed(DENY_REPLY), False)}
    replies[method] = (reply, True)
    with raw_verifier(replies) as endpoint:
        started = time.monotonic()
        outcome = request_access(
            endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock, timeout=2
        )
    assert outcome.decision in (GRANT, DENY, ERROR)
    assert time.monotonic() - started < 4


@pytest.mark.parametrize(
    "reply, reason",
    [
        (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}", "timed out"),  # the connection stays open
        (b"HTTP/1.1 200 OK\r\nContent-Length: " + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n", "Content-Length"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", "Transfer-Encoding"),
        (b"HTTP/1.1 200 OK\r\n\r\n" + b" " * (MAX_BODY_BYTES + 1), "over"),
        (b"HTTP/1.1 200\r\n" + b"X: y\r\n" * 101 + b"\r\n", "too large"),
        (b"HTTP/1.1 200\r\n" + (b"X: " + b"y" * (40 * 1024 - 5) + b"\r\n") * 2 + b"\r\n", "too large"),
        (b"HTTP/1.1 200 OK\r\nContent-Le", "closed the connection mid-reply"),
    ],
    ids=["short-body", "length-over-cap", "chunked", "body-over-cap", "101-lines", "two-40-KiB-lines", "cut-head"],
)
def test_a_reply_the_client_refuses_is_an_error(fixture, backend, clock, reply, reason):
    with raw_verifier({"GET": (reply, reason != "timed out")}) as endpoint:
        outcome = request_access(
            endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock, timeout=0.5
        )
    assert outcome.decision == ERROR
    assert reason in outcome.reasons[0]


def test_a_reply_without_a_length_runs_to_eof_and_ends_the_connection(fixture, backend, clock):
    policy = json.dumps(dict(POLICY_REPLY, verifier=fixture.key("portal").public_key.hex())).encode()
    replies = {"GET": (b"HTTP/1.1 200 OK\r\n\r\n" + policy, True), "POST": (b"HTTP/1.0 200 OK\r\n\r\n" + DENY_REPLY, True)}
    with raw_verifier(replies) as endpoint:
        for _ in range(2):
            outcome = request_access(
                endpoint, scenario.RESOURCE_ID, fixture.key("bob"), fixture.bob_creds, backend, clock, timeout=2
            )
            assert (outcome.decision, outcome.reasons) == (DENY, ("no",))


# --- TLS ------------------------------------------------------------------------------------------


def issue_test_certificates(directory) -> tuple[str, str, str]:
    """A CA, and a certificate it signs for 127.0.0.1: the CA file, the
    server's certificate file and its key file."""
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID
    import datetime
    import ipaddress

    now = datetime.datetime.now(datetime.timezone.utc)

    def certificate(subject, key, issuer, issuer_key, extensions):
        builder = (
            x509.CertificateBuilder()
            .subject_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, subject)]))
            .issuer_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, issuer)]))
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(hours=1))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()), critical=False)
            .add_extension(x509.AuthorityKeyIdentifier.from_issuer_public_key(issuer_key.public_key()), critical=False)
        )
        for extension, critical in extensions:
            builder = builder.add_extension(extension, critical=critical)
        return builder.sign(issuer_key, hashes.SHA256())

    usage = dict(content_commitment=False, data_encipherment=False, key_agreement=False,
                 encipher_only=False, decipher_only=False)
    ca_key, server_key = ec.generate_private_key(ec.SECP256R1()), ec.generate_private_key(ec.SECP256R1())
    ca = certificate("abd test CA", ca_key, "abd test CA", ca_key, [
        (x509.BasicConstraints(ca=True, path_length=0), True),
        (x509.KeyUsage(digital_signature=False, key_encipherment=False, key_cert_sign=True, crl_sign=True, **usage), True),
    ])
    server = certificate("127.0.0.1", server_key, "abd test CA", ca_key, [
        (x509.BasicConstraints(ca=False, path_length=None), True),
        (x509.KeyUsage(digital_signature=True, key_encipherment=False, key_cert_sign=False, crl_sign=False, **usage), True),
        (x509.ExtendedKeyUsage([ExtendedKeyUsageOID.SERVER_AUTH]), False),
        (x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), False),
    ])
    paths = [str(directory / name) for name in ("ca.pem", "server.pem", "server.key")]
    for path, blob in zip(paths, [
        ca.public_bytes(serialization.Encoding.PEM),
        server.public_bytes(serialization.Encoding.PEM),
        server_key.private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8, serialization.NoEncryption()
        ),
    ]):
        with open(path, "wb") as out:
            out.write(blob)
    return paths[0], paths[1], paths[2]


@pytest.mark.parametrize("trusted", [True, False], ids=["ca-trusted", "ca-unknown"])
def test_request_access_over_tls(service, fixture, backend, clock, tmp_path, monkeypatch, trusted):
    ca_file, cert_file, key_file = issue_test_certificates(tmp_path)
    if trusted:
        monkeypatch.setenv("SSL_CERT_FILE", ca_file)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_file, key_file)
    httpd = make_server(service, "127.0.0.1", 0)
    httpd.socket = context.wrap_socket(httpd.socket, server_side=True)
    with serving(httpd) as endpoint:
        close_connection()
        try:
            outcome = ask(endpoint.replace("http://", "https://"), fixture, backend, clock)
        finally:
            close_connection()
    if trusted:
        assert outcome.decision == GRANT
    else:
        assert outcome.decision == ERROR
        assert "CERTIFICATE_VERIFY_FAILED" in outcome.reasons[0]
