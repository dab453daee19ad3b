"""Chain discovery: the scenario walk, limits, soundness, and the oracle."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from abd import discovery
from abd.core import NamespaceKey, RecordType, ResourceRecord, sign_record_set
from abd.credential import issue_credential
from abd.delegation import encode_attr_payload, expression
from abd.discovery import (
    ChainStep,
    DelegationChain,
    DiscoveryTrace,
    discover,
    oracle_entailed,
    verify_chain,
)
from abd.errors import BackendError, LimitExceeded
from abd.netsim import (
    DhtConfig,
    NameSystemBackend,
    SimulatedDht,
    derive_query_key,
    resolve,
)

from instance_gen import (
    CLOCK as GEN_CLOCK,
    MUTATION_KINDS,
    generate_instance,
    memory_dht,
    mutate_chain,
    publish_fan_out,
    publish_instance,
)

HOUR = 3_600_000_000


def key(tag: bytes) -> NamespaceKey:
    return NamespaceKey.generate(seed=tag.ljust(32, b"\0"))


def micro_world(*delegation_triples, clock=GEN_CLOCK):
    """Publish (issuer key, attribute, expression) triples to a fresh backend."""
    backend = memory_dht()
    grouped = {}
    for issuer, label, expr in delegation_triples:
        grouped.setdefault((issuer, label), []).append(expr)
    for (issuer, label), exprs in grouped.items():
        records = [
            ResourceRecord(RecordType.ATTR, encode_attr_payload(e), clock + HOUR)
            for e in exprs
        ]
        backend.put(
            derive_query_key(issuer.public_key, label),
            sign_record_set(issuer, label, records),
            clock,
        )
    return backend


def test_a_replica_cannot_answer_for_a_name_with_another_names_set():
    x, y, mallory = key(b"x"), key(b"y"), key(b"mallory")
    network = SimulatedDht(DhtConfig(node_count=8, rng_seed=1))
    payload = encode_attr_payload(expression([(mallory.public_key, [])]))
    friends = sign_record_set(
        x, "friends", [ResourceRecord(RecordType.ATTR, payload, GEN_CLOCK + HOUR)]
    )
    network.put(derive_query_key(x.public_key, "friends"), friends, GEN_CLOCK)
    admin_key = derive_query_key(y.public_key, "admin")
    network.nodes[network.replica_nodes(admin_key)[0]].storage[admin_key] = friends
    assert resolve("admin", y.public_key, RecordType.ATTR, network, GEN_CLOCK) is None
    chain = discover(
        issuer_pub=y.public_key,
        attribute="admin",
        subject_pub=mallory.public_key,
        subject_creds=[],
        backend=network,
        clock=GEN_CLOCK,
    )
    assert chain is None
    assert network.stats().bad_signatures >= 1


# --- scenario discovery --------------------------------------------------------------

EXPECTED_RESOLVE_ORDER = [
    ("portal", "user"),
    ("world-agency", "nado"),
    ("national-agency", "dco"),
    ("us-agency", "dco"),
    ("us-agency", "contractor"),
    ("lab-two", "dco"),
]


def test_full_chain_for_bob(fixture, backend, clock):
    trace = DiscoveryTrace()
    chain = discover(
        issuer_pub=fixture.key("portal").public_key,
        attribute="user",
        subject_pub=fixture.key("bob").public_key,
        subject_creds=fixture.bob_creds,
        backend=backend,
        clock=clock,
        trace=trace,
    )
    assert chain is not None
    names = fixture.names_by_key()
    resolved = [(names[s], label) for s, label in trace.resolves()]
    assert resolved == EXPECTED_RESOLVE_ORDER

    # The one-credential branch is checked against the credential set but
    # never resolved; its record set stays untouched.
    lab_one = fixture.key("lab-one").public_key
    checked = [
        e for e in trace.events
        if e.kind == "no_credential" and e.subject == lab_one
    ]
    assert len(checked) == 1
    assert (lab_one, "dco") not in trace.resolves()

    matches = [e for e in trace.events if e.kind == "credential_match"]
    assert [e.label for e in matches] == ["employee", "controller"]
    assert trace.events[-1].kind == "chain_found"

    # Chain contents: five steps ending in the two-credential conjunction.
    assert [names[s.subject] for s in chain.steps] == [
        "portal",
        "world-agency",
        "us-agency",
        "us-agency",
        "lab-two",
    ]
    assert {leaf.credential.attribute for leaf in chain.leaves} == {
        "employee",
        "controller",
    }


def test_short_chain_for_alice(fixture, backend, clock):
    trace = DiscoveryTrace()
    chain = discover(
        issuer_pub=fixture.key("portal").public_key,
        attribute="user",
        subject_pub=fixture.key("alice").public_key,
        subject_creds=fixture.alice_creds,
        backend=backend,
        clock=clock,
        trace=trace,
    )
    assert chain is not None
    names = fixture.names_by_key()
    assert [(names[s], label) for s, label in trace.resolves()] == [
        ("portal", "user"),
        ("world-agency", "nado"),
        ("national-agency", "dco"),
    ]
    assert [leaf.credential.attribute for leaf in chain.leaves] == ["dco"]


def test_no_chain_for_partial_conjunction(fixture, backend, clock):
    employee_only = [c for c in fixture.bob_creds if c.attribute == "employee"]
    chain = discover(
        issuer_pub=fixture.key("portal").public_key,
        attribute="user",
        subject_pub=fixture.key("bob").public_key,
        subject_creds=employee_only,
        backend=backend,
        clock=clock,
    )
    assert chain is None


def test_no_chain_for_stranger(fixture, backend, clock):
    stranger = NamespaceKey.generate(seed=b"\x42" * 32)
    trace = DiscoveryTrace()
    chain = discover(
        issuer_pub=fixture.key("portal").public_key,
        attribute="user",
        subject_pub=stranger.public_key,
        subject_creds=[],
        backend=backend,
        clock=clock,
        trace=trace,
    )
    assert chain is None
    assert trace.events[-1].kind == "exhausted"


def test_expired_credentials_do_not_close_chains(fixture, backend, clock):
    chain = discover(
        issuer_pub=fixture.key("portal").public_key,
        attribute="user",
        subject_pub=fixture.key("bob").public_key,
        subject_creds=fixture.bob_creds,
        backend=backend,
        clock=clock + 31 * 24 * HOUR,  # past the credential lifetime
    )
    assert chain is None


def test_lookup_economy_one_resolve_per_pair(fixture, backend, clock):
    before = backend.stats().lookups
    discover(
        issuer_pub=fixture.key("portal").public_key,
        attribute="user",
        subject_pub=fixture.key("bob").public_key,
        subject_creds=fixture.bob_creds,
        backend=backend,
        clock=clock,
    )
    assert backend.stats().lookups - before == len(EXPECTED_RESOLVE_ORDER)


def test_backend_outage_propagates_not_denies(fixture, backend, clock):
    backend.fail_nodes([0])
    with pytest.raises(BackendError):
        discover(
            issuer_pub=fixture.key("portal").public_key,
            attribute="user",
            subject_pub=fixture.key("bob").public_key,
            subject_creds=fixture.bob_creds,
            backend=backend,
            clock=clock,
        )


# --- cycles and limits -------------------------------------------------------------


def test_a_finished_search_is_freed_without_the_cyclic_collector(fixture, backend, clock):
    portal = fixture.key("portal").public_key
    gc.collect()
    gc.disable()
    try:
        bob = fixture.key("bob").public_key
        assert discover(portal, "user", bob, fixture.bob_creds, backend, clock) is not None
        assert discover(portal, "user", key(b"stranger").public_key, [], backend, clock) is None
        # With the collector off, a node still tracked is one only it could free.
        assert not [o for o in gc.get_objects() if type(o) is discovery._Node]
    finally:
        gc.enable()


def test_plain_cycle_terminates_without_limits():
    a, b = key(b"a"), key(b"b")
    backend = micro_world(
        (a, "x", expression([(b.public_key, ["y"])])),
        (b, "y", expression([(a.public_key, ["x"])])),
    )
    subject = key(b"s")
    trace = DiscoveryTrace()
    chain = discover(
        issuer_pub=a.public_key,
        attribute="x",
        subject_pub=subject.public_key,
        subject_creds=[],
        backend=backend,
        clock=GEN_CLOCK,
        trace=trace,
    )
    assert chain is None
    assert trace.events[-1].kind == "exhausted"
    # Each label resolved exactly once despite the loop.
    assert sorted(trace.resolves()) == sorted(
        [(a.public_key, "x"), (b.public_key, "y")]
    )


def test_growing_cycle_terminates():
    a = key(b"a")
    backend = micro_world((a, "x", expression([(a.public_key, ["x", "x"])])))
    chain = discover(
        issuer_pub=a.public_key,
        attribute="x",
        subject_pub=key(b"s").public_key,
        subject_creds=[],
        backend=backend,
        clock=GEN_CLOCK,
    )
    assert chain is None  # a.x.x needs members of a.x, and a.x has none


def test_growing_branch_does_not_block_other_alternatives():
    a, b, c = key(b"a"), key(b"b"), key(b"c")
    subject = key(b"s")
    backend = micro_world(
        (a, "x", expression([(a.public_key, ["x", "x"])])),
        (a, "x", expression([(b.public_key, ["y"])])),
        (b, "y", expression([(c.public_key, ["z"])])),
    )
    cred = issue_credential(
        c, subject.public_key, "z", clock=GEN_CLOCK, lifetime_us=HOUR
    )
    chain = discover(
        issuer_pub=a.public_key,
        attribute="x",
        subject_pub=subject.public_key,
        subject_creds=[cred],
        backend=backend,
        clock=GEN_CLOCK,
    )
    assert chain is not None
    assert verify_chain(chain, subject.public_key, backend, GEN_CLOCK)


def test_deep_linked_nest_agrees_with_the_oracle():
    # b.y1 <- b.y2.z, ..., b.y19 <- b.y20.z, b.y20 <- c, c.z <- c, and the
    # subject holds c.z: every b.yi holds c and the subject. Rewriting b.y1
    # would need a trail of twenty labels.
    b, c, subject = key(b"b"), key(b"c"), key(b"s")
    triples = [
        (b, f"y{i}", expression([(b.public_key, [f"y{i + 1}", "z"])]))
        for i in range(1, 20)
    ]
    triples += [
        (b, "y20", expression([(c.public_key, [])])),
        (c, "z", expression([(c.public_key, [])])),
    ]
    backend = micro_world(*triples)
    cred = issue_credential(c, subject.public_key, "z", clock=GEN_CLOCK, lifetime_us=HOUR)
    assert oracle_entailed(
        [(issuer.public_key, label, expr) for issuer, label, expr in triples],
        [cred],
        b.public_key,
        "y1",
        subject.public_key,
    )
    chain = discover(
        issuer_pub=b.public_key,
        attribute="y1",
        subject_pub=subject.public_key,
        subject_creds=[cred],
        backend=backend,
        clock=GEN_CLOCK,
    )
    assert chain is not None
    assert verify_chain(chain, subject.public_key, backend, GEN_CLOCK)


def test_a_link_can_want_every_member_before_its_roles_exist():
    # Resolving b.c makes a a member of b.c. Joining the link b.c.c reaches
    # a.c, which is a link prefix now, so every member of its term b.c.a is
    # wanted before the join that makes role a.a has run.
    a, b, c = key(b"a"), key(b"b"), key(b"c")
    triples = [
        (a, "c", expression([(a.public_key, []), (b.public_key, ["c", "c", "b"])])),
        (a, "c", expression([(b.public_key, ["c", "a"]), (c.public_key, ["b", "a"])])),
        (b, "c", expression([(a.public_key, [])])),
    ]
    subject = key(b"s")
    chain = discover(
        issuer_pub=a.public_key,
        attribute="c",
        subject_pub=subject.public_key,
        subject_creds=[],
        backend=micro_world(*triples),
        clock=GEN_CLOCK,
    )
    entailed = oracle_entailed(
        [(issuer.public_key, label, expr) for issuer, label, expr in triples],
        [],
        a.public_key,
        "c",
        subject.public_key,
    )
    assert chain is None and not entailed


def test_a_rule_whose_own_term_makes_its_owner_want_every_member():
    # a.x is the root, so it starts wanting only the subject. Its record
    # b.y & a.x.z creates b.y first, matched by the subject's credential and
    # left unresolved, then a.x.z, whose prefix a.x must now give every
    # member. So b.y must be resolved after all: only then does c, a member
    # of b.y and of a.x.z (through e in a.x), join a.x, and the subject join
    # c.z.
    a, b, c, e, subject = key(b"a"), key(b"b"), key(b"c"), key(b"e"), key(b"s")
    triples = [
        (a, "x", expression([(b.public_key, ["y"]), (a.public_key, ["x", "z"])])),
        (a, "x", expression([(e.public_key, [])])),
        (e, "z", expression([(c.public_key, [])])),
        (b, "y", expression([(c.public_key, [])])),
        (c, "z", expression([(subject.public_key, [])])),
    ]
    backend = micro_world(*triples)
    cred = issue_credential(b, subject.public_key, "y", clock=GEN_CLOCK, lifetime_us=HOUR)
    assert oracle_entailed(
        [(issuer.public_key, label, expr) for issuer, label, expr in triples],
        [cred],
        a.public_key,
        "x",
        subject.public_key,
    )
    trace = DiscoveryTrace()
    chain = discover(
        issuer_pub=a.public_key,
        attribute="x",
        subject_pub=subject.public_key,
        subject_creds=[cred],
        backend=backend,
        clock=GEN_CLOCK,
        trace=trace,
    )
    assert chain is not None
    assert (b.public_key, "y") in trace.resolves()
    assert verify_chain(chain, subject.public_key, backend, GEN_CLOCK)


def test_node_budget_raises():
    portal = key(b"portal")
    backend = publish_fan_out(portal)
    with pytest.raises(LimitExceeded) as exc:
        discover(
            issuer_pub=portal.public_key,
            attribute="user",
            subject_pub=key(b"s").public_key,
            subject_creds=[],
            backend=backend,
            clock=GEN_CLOCK,
        )
    assert exc.value.limit == "max_nodes"


def test_patched_node_budget_raises(fixture, backend, clock, monkeypatch):
    monkeypatch.setattr(discovery, "MAX_NODES", 2)
    with pytest.raises(LimitExceeded) as exc:
        discover(
            issuer_pub=fixture.key("portal").public_key,
            attribute="user",
            subject_pub=fixture.key("bob").public_key,
            subject_creds=[],
            backend=backend,
            clock=clock,
        )
    assert exc.value.limit == "max_nodes"
    assert exc.value.value == 2


# --- verify_chain ---------------------------------------------------------------------


def bob_chain(fixture, backend, clock):
    chain = discover(
        issuer_pub=fixture.key("portal").public_key,
        attribute="user",
        subject_pub=fixture.key("bob").public_key,
        subject_creds=fixture.bob_creds,
        backend=backend,
        clock=clock,
    )
    assert chain is not None
    return chain


# Each broken chain below is one edit away from a chain that verifies, which
# the test checks first, so its failure can only come from that edit.


def test_fresh_chain_verifies(fixture, backend, clock):
    chain = bob_chain(fixture, backend, clock)
    assert verify_chain(chain, fixture.key("bob").public_key, backend, clock)


def test_chain_fails_for_other_subject(fixture, backend, clock):
    chain = bob_chain(fixture, backend, clock)
    assert verify_chain(chain, fixture.key("bob").public_key, backend, clock)
    assert not verify_chain(chain, fixture.key("alice").public_key, backend, clock)


def test_chain_fails_with_dropped_step(fixture, backend, clock):
    chain = bob_chain(fixture, backend, clock)
    bob = fixture.key("bob").public_key
    assert verify_chain(chain, bob, backend, clock)
    for index in range(len(chain.steps)):
        broken = dataclasses.replace(
            chain, steps=chain.steps[:index] + chain.steps[index + 1 :]
        )
        assert not verify_chain(broken, bob, backend, clock)


def test_chain_fails_with_expired_leaf(fixture, backend, clock):
    chain = bob_chain(fixture, backend, clock)
    bob = fixture.key("bob").public_key
    assert verify_chain(chain, bob, backend, clock)
    assert not verify_chain(chain, bob, backend, clock + 31 * 24 * HOUR)


def test_chain_fails_after_record_removal(fixture, backend, clock):
    chain = bob_chain(fixture, backend, clock)
    bob = fixture.key("bob").public_key
    assert verify_chain(chain, bob, backend, clock)
    us_agency = fixture.key("us-agency")
    backend.put(
        derive_query_key(us_agency.public_key, "contractor"),
        sign_record_set(us_agency, "contractor", []),
        clock,
    )
    assert not verify_chain(chain, bob, backend, clock)


def test_chain_with_tampered_via_fails(fixture, backend, clock):
    chain = bob_chain(fixture, backend, clock)
    bob = fixture.key("bob").public_key
    assert verify_chain(chain, bob, backend, clock)
    step = chain.steps[0]  # bob in portal.user by world-agency.nado.dco
    for forged_via in (
        ((),),  # one label short of the trail
        ((bob,),),  # bob is not in world-agency.nado
    ):
        forged_step = dataclasses.replace(step, via=forged_via)
        broken = dataclasses.replace(chain, steps=(forged_step,) + chain.steps[1:])
        assert not verify_chain(broken, bob, backend, clock)


def test_a_long_chain_verifies():
    # a0.x <- a1.x, ..., a599.x <- a600.x, and the subject holds a600.x.
    keys = [key(b"chain%d" % i) for i in range(601)]
    subject = key(b"s")
    backend = micro_world(
        *[(keys[i], "x", expression([(keys[i + 1].public_key, ["x"])])) for i in range(600)]
    )
    cred = issue_credential(keys[600], subject.public_key, "x", clock=GEN_CLOCK, lifetime_us=HOUR)
    chain = discover(
        issuer_pub=keys[0].public_key,
        attribute="x",
        subject_pub=subject.public_key,
        subject_creds=[cred],
        backend=backend,
        clock=GEN_CLOCK,
    )
    assert len(chain.steps) == 600
    assert verify_chain(chain, subject.public_key, backend, GEN_CLOCK)


def test_a_chain_that_proves_a_membership_by_itself_fails():
    # a.x <- b.y, and b.y <- a.x or the subject itself. The chain through
    # b.y's record naming the subject verifies; the one through b.y's record
    # naming a.x proves the subject in a.x by itself.
    a, b, subject = key(b"a"), key(b"b"), key(b"s")
    through_b = expression([(b.public_key, ["y"])])
    circular = expression([(a.public_key, ["x"])])
    direct = expression([(subject.public_key, [])])
    backend = micro_world((a, "x", through_b), (b, "y", circular), (b, "y", direct))

    def chain(b_expr):
        def step(issuer, label, expr):
            record = ResourceRecord(RecordType.ATTR, encode_attr_payload(expr), GEN_CLOCK + HOUR)
            return ChainStep(subject.public_key, issuer.public_key, label, record, ((),))

        steps = (step(a, "x", through_b), step(b, "y", b_expr))
        return DelegationChain(issuer=a.public_key, attribute="x", steps=steps, leaves=())

    assert verify_chain(chain(direct), subject.public_key, backend, GEN_CLOCK)
    assert not verify_chain(chain(circular), subject.public_key, backend, GEN_CLOCK)


# --- oracle -----------------------------------------------------------------------------


def test_oracle_direct_entity_grant():
    a, subject = key(b"a"), key(b"s")
    triples = [(a.public_key, "x", expression([(subject.public_key, [])]))]
    assert oracle_entailed(triples, [], a.public_key, "x", subject.public_key)
    assert not oracle_entailed(triples, [], a.public_key, "x", key(b"o").public_key)


def test_oracle_attribute_and_trail():
    a, b, subject = key(b"a"), key(b"b"), key(b"s")
    cred = issue_credential(b, subject.public_key, "z", clock=GEN_CLOCK, lifetime_us=HOUR)
    direct = [(a.public_key, "x", expression([(b.public_key, ["z"])]))]
    assert oracle_entailed(direct, [cred], a.public_key, "x", subject.public_key)
    trail = [
        (a.public_key, "x", expression([(a.public_key, ["mid", "z"])])),
        (a.public_key, "mid", expression([(b.public_key, [])])),
    ]
    assert oracle_entailed(trail, [cred], a.public_key, "x", subject.public_key)
    assert not oracle_entailed(trail, [], a.public_key, "x", subject.public_key)


def test_oracle_conjunction_requires_all_entries():
    a, b, c, subject = key(b"a"), key(b"b"), key(b"c"), key(b"s")
    triples = [
        (
            a.public_key,
            "x",
            expression([(b.public_key, ["y"]), (c.public_key, ["z"])]),
        )
    ]
    cred_y = issue_credential(b, subject.public_key, "y", clock=GEN_CLOCK, lifetime_us=HOUR)
    cred_z = issue_credential(c, subject.public_key, "z", clock=GEN_CLOCK, lifetime_us=HOUR)
    assert not oracle_entailed(triples, [cred_y], a.public_key, "x", subject.public_key)
    assert oracle_entailed(
        triples, [cred_y, cred_z], a.public_key, "x", subject.public_key
    )


def test_oracle_disjunction_any_record_suffices():
    a, b, c, subject = key(b"a"), key(b"b"), key(b"c"), key(b"s")
    triples = [
        (a.public_key, "x", expression([(b.public_key, ["y"])])),
        (a.public_key, "x", expression([(c.public_key, ["z"])])),
    ]
    cred_z = issue_credential(c, subject.public_key, "z", clock=GEN_CLOCK, lifetime_us=HOUR)
    assert oracle_entailed(triples, [cred_z], a.public_key, "x", subject.public_key)


def test_oracle_cycle_terminates():
    a, b = key(b"a"), key(b"b")
    triples = [
        (a.public_key, "x", expression([(b.public_key, ["y"])])),
        (b.public_key, "y", expression([(a.public_key, ["x"])])),
    ]
    assert not oracle_entailed(triples, [], a.public_key, "x", key(b"s").public_key)


# --- equivalence and monotonicity properties ---------------------------------------------


def run_equivalence_case(seed: int):
    """Run one generated instance; return (instance, backend, chain)."""
    rng = random.Random(seed)
    instance = generate_instance(rng)
    backend = publish_instance(instance)
    chain = discover(
        issuer_pub=instance.root_issuer,
        attribute=instance.root_attribute,
        subject_pub=instance.subject.public_key,
        subject_creds=instance.credentials,
        backend=backend,
        clock=GEN_CLOCK,
    )
    entailed = oracle_entailed(
        instance.delegations,
        instance.live_credentials(),
        instance.root_issuer,
        instance.root_attribute,
        instance.subject.public_key,
    )
    assert (chain is not None) == entailed, f"seed {seed}: search disagrees with oracle"
    if chain is not None:
        assert verify_chain(
            chain, instance.subject.public_key, backend, GEN_CLOCK
        ), f"seed {seed}: the found chain does not verify"
    return instance, backend, chain


# --- the search order, pinned beyond the fixture ------------------------------------

# One sha256 per generated world, seeds 0 to 199 in order, over the query keys
# its search asked for, in order, then its chain (``to_dict``) as JSON. A change
# that keeps every decision but reorders the resolves fails here.
SEARCH_ORDER_GOLDEN = Path(__file__).parent / "golden" / "search-order.sha256"


class RecordingBackend(NameSystemBackend):
    """Passes every call to ``inner`` and keeps the query key of each get."""

    def __init__(self, inner: NameSystemBackend):
        self.inner = inner
        self.query_keys: list[bytes] = []

    def put(self, query_key, record_set, clock):
        self.inner.put(query_key, record_set, clock)

    def get(self, query_key, clock):
        self.query_keys.append(query_key)
        return self.inner.get(query_key, clock)

    def stats(self):
        return self.inner.stats()


def search_order_digest(seed: int) -> str:
    instance = generate_instance(random.Random(seed))
    backend = RecordingBackend(publish_instance(instance))
    chain = discover(
        issuer_pub=instance.root_issuer,
        attribute=instance.root_attribute,
        subject_pub=instance.subject.public_key,
        subject_creds=instance.credentials,
        backend=backend,
        clock=GEN_CLOCK,
    )
    digest = hashlib.sha256(b"".join(backend.query_keys))
    digest.update(json.dumps(chain and chain.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_search_order_matches_the_golden_digests():
    golden = SEARCH_ORDER_GOLDEN.read_text().split()
    assert len(golden) == 200
    drifted = [
        seed for seed, pinned in enumerate(golden) if search_order_digest(seed) != pinned
    ]
    assert not drifted, f"search order or chain drifted for seeds {drifted}"


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=2**48))
def test_search_agrees_with_oracle(seed):
    run_equivalence_case(seed)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**48), st.data())
def test_adding_grants_is_monotone(seed, data):
    rng = random.Random(seed)
    instance = generate_instance(rng)
    backend = publish_instance(instance)
    base = discover(
        issuer_pub=instance.root_issuer,
        attribute=instance.root_attribute,
        subject_pub=instance.subject.public_key,
        subject_creds=instance.credentials,
        backend=backend,
        clock=GEN_CLOCK,
    )
    if base is None:
        return
    # Grant one more credential from an arbitrary namespace.
    issuer = data.draw(st.sampled_from(instance.namespaces))
    attribute = data.draw(st.sampled_from(["a", "b", "c", "d"]))
    extra = issue_credential(
        issuer, instance.subject.public_key, attribute, clock=GEN_CLOCK, lifetime_us=HOUR
    )
    widened = discover(
        issuer_pub=instance.root_issuer,
        attribute=instance.root_attribute,
        subject_pub=instance.subject.public_key,
        subject_creds=list(instance.credentials) + [extra],
        backend=backend,
        clock=GEN_CLOCK,
    )
    assert widened is not None


def test_mutated_chains_fail_verification():
    rng = random.Random(20_260_101)
    mutations_checked = 0
    seed = 0
    while mutations_checked < 30:
        seed += 1
        instance, backend, chain = run_equivalence_case(seed)
        if chain is None:
            continue
        for kind in MUTATION_KINDS:
            mutated = mutate_chain(chain, kind, instance, rng)
            if mutated is None:
                continue
            assert not verify_chain(
                mutated, instance.subject.public_key, backend, GEN_CLOCK
            ), f"{kind} mutation still verifies (seed {seed})"
            mutations_checked += 1
