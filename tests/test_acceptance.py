"""Acceptance suite: one test per shipping requirement.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
requirement. Numbers in test names track the requirement list in the README.
"""
from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from abd import scenario
from abd.authz import Policy, build_response, request_access
from abd.core import (
    NamespaceKey,
    RecordType,
    ResourceRecord,
    canonical_deserialize,
    canonical_serialize,
)
from abd.delegation import parse_expression, remove_delegation
from abd.discovery import DiscoveryTrace, discover, oracle_entailed, verify_chain
from abd.errors import BackendError, LimitExceeded
from abd.namestore import NamespaceStore
from abd.netsim import (
    DhtConfig,
    FileBackend,
    SimulatedDht,
    derive_query_key,
)
from instance_gen import (
    CLOCK as GEN_CLOCK,
    MUTATION_KINDS,
    decide_fresh,
    generate_instance,
    memory_dht,
    mutate_chain,
    publish_instance,
    resolves,
)

EPOCH = scenario.FIXTURE_EPOCH_US
GOLDEN_DIR = Path(__file__).parent / "golden"
PORTAL_POLICY = Policy(resource_id=scenario.RESOURCE_ID, required_attributes=("user",))

SCAN_TARGET = 500


def bob_discovery(fixture, backend, trace=None):
    return discover(
        issuer_pub=fixture.key("portal").public_key,
        attribute="user",
        subject_pub=fixture.key("bob").public_key,
        subject_creds=fixture.bob_creds,
        backend=backend,
        clock=fixture.clock,
        trace=trace,
    )


def revoke_contractor(fixture, store, backend, clock):
    removed = remove_delegation(
        store,
        fixture.key("us-agency"),
        "contractor",
        parse_expression("lab-two", store.petname_table()),
    )
    assert removed
    store.publish(fixture.key("us-agency"), backend, clock)


def decide_bob(fixture, backend, clock):
    return decide_fresh(
        fixture.key("portal").public_key,
        lambda nonce: build_response(fixture.key("bob"), nonce, {"user": fixture.bob_creds}),
        PORTAL_POLICY,
        backend,
        clock,
    )


# 1. The fixture discovery follows the pinned eight-step walk in < 1 s.
def test_1_fixture_discovery_follows_the_golden_trace(fixture, backend):
    trace = DiscoveryTrace()
    started = time.perf_counter()
    chain = bob_discovery(fixture, backend, trace)
    elapsed = time.perf_counter() - started
    assert chain is not None
    names = fixture.names_by_key()

    # Steps 1-3, 5, 6: the ordered query log, exactly.
    assert [(names[s], label) for s, label in resolves(trace)] == [
        ("portal", "user"),
        ("world-agency", "nado"),
        ("national-agency", "dco"),
        ("us-agency", "dco"),
        ("us-agency", "contractor"),
        ("lab-two", "dco"),
    ]
    # Step 4: the lab-one branch dead-ends for Bob and is never queried.
    assert any(
        event.kind == "no_credential" and names[event.subject] == "lab-one"
        for event in trace.events
    )
    assert all(names[subject] != "lab-one" for subject, _ in resolves(trace))
    # Step 7: the last record used is the two-way conjunction under lab-two.
    last_expand = [e for e in trace.events if e.kind == "expand"][-1]
    assert {(names[s], ".".join(t)) for s, t in last_expand.children} == {
        ("lab-two", "employee"),
        ("lab-two", "controller"),
    }
    # Step 8: both credentials match, then the chain is assembled.
    assert [
        e.credential.attribute for e in trace.events if e.kind == "credential_match"
    ] == ["employee", "controller"]
    assert trace.events[-1].kind == "chain_found"
    assert [names[step.subject] for step in chain.steps] == [
        "portal", "world-agency", "us-agency", "us-agency", "lab-two",
    ]
    assert elapsed < 1.0, f"golden trace took {elapsed:.3f}s"


# 2. HTTP decisions against `abd serve`: two grants, two denials, < 2 s each.
def test_2_http_decisions_match_the_scenario(tmp_path):
    home = tmp_path / "home"
    fixture = scenario.scenario_init(
        home, lambda: FileBackend(home / "backend"), clock=EPOCH
    )
    server = subprocess.Popen(
        [
            sys.executable, "-m", "abd",
            "--home", str(home),
            "--clock-us", str(EPOCH),
            "serve",
            "--policy", str(home / "policy.json"),
            "--identity", "portal",
            "--listen", "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        banner = server.stdout.readline().strip()
        assert banner.startswith("listening on http://"), banner
        endpoint = banner.split()[-1]
        backend = FileBackend(home / "backend")
        employee_only = [c for c in fixture.bob_creds if c.attribute == "employee"]
        stranger = NamespaceKey.generate(seed=b"\x5a" * 32)
        requests = [
            ("bob", fixture.key("bob"), fixture.bob_creds, "grant"),
            ("alice", fixture.key("alice"), fixture.alice_creds, "grant"),
            ("bob-employee-only", fixture.key("bob"), employee_only, "deny"),
            ("fresh-keypair", stranger, [], "deny"),
        ]
        for tag, subject, creds, expected in requests:
            started = time.perf_counter()
            outcome = request_access(
                endpoint, scenario.RESOURCE_ID, subject, creds, backend, EPOCH
            )
            elapsed = time.perf_counter() - started
            assert outcome.decision == expected, (tag, outcome.reasons)
            assert elapsed < 2.0, f"{tag} took {elapsed:.3f}s"
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()


@pytest.fixture(scope="module")
def equivalence_scan():
    """Sequential seeds until SCAN_TARGET instances reach a verdict.

    Each verdict is compared against the reference fixpoint decision and
    kept for the soundness test. An instance that exhausts the node
    budget yields no verdict; it is counted as skipped.
    """
    cases = []
    mismatches = []
    skipped = 0
    seed = 0
    started = time.perf_counter()
    while len(cases) < SCAN_TARGET:
        seed += 1
        instance = generate_instance(random.Random(seed))
        backend = publish_instance(instance)
        try:
            chain = discover(
                issuer_pub=instance.root_issuer,
                attribute=instance.root_attribute,
                subject_pub=instance.subject.public_key,
                subject_creds=instance.credentials,
                backend=backend,
                clock=GEN_CLOCK,
            )
        except LimitExceeded:
            skipped += 1
            continue
        entailed = oracle_entailed(
            instance.delegations,
            instance.live_credentials(),
            instance.root_issuer,
            instance.root_attribute,
            instance.subject.public_key,
        )
        if (chain is not None) != entailed:
            mismatches.append(seed)
        cases.append((instance, backend, chain))
    return SimpleNamespace(
        cases=cases,
        mismatches=mismatches,
        skipped=skipped,
        elapsed=time.perf_counter() - started,
    )


# 3. Search and reference semantics agree on >= 500 random instances in < 60 s,
#    and no instance exhausts a budget.
def test_3_search_agrees_with_the_reference_decision(equivalence_scan):
    scan = equivalence_scan
    assert len(scan.cases) >= SCAN_TARGET
    assert scan.skipped == 0, f"{scan.skipped} instances exhausted a budget"
    assert scan.mismatches == [], f"disagreeing seeds: {scan.mismatches}"
    assert scan.elapsed < 60.0, f"scan took {scan.elapsed:.1f}s (skipped {scan.skipped})"


# 4. Every found chain re-verifies; 100 mutated chains all fail verification.
def test_4_found_chains_verify_and_mutated_chains_fail(equivalence_scan):
    verified = 0
    for instance, backend, chain in equivalence_scan.cases:
        if chain is None:
            continue
        assert verify_chain(chain, instance.subject.public_key, backend, GEN_CLOCK)
        verified += 1
    assert verified > 0

    rng = random.Random(20_260_814)
    rejected = 0
    for instance, backend, chain in equivalence_scan.cases:
        if rejected >= 100:
            break
        if chain is None:
            continue
        for kind in MUTATION_KINDS:
            mutated = mutate_chain(chain, kind, instance, rng)
            if mutated is None:
                continue
            assert not verify_chain(
                mutated, instance.subject.public_key, backend, GEN_CLOCK
            ), f"{kind} mutant passed verification"
            rejected += 1
    assert rejected >= 100, f"only {rejected} mutants were applicable"


# 5. Revoking the contractor delegation: immediate on the in-memory backend,
#    within one cache lifetime (60 s) on the simulated DHT.
def test_5_revocation_lag_is_bounded_by_the_cache_ttl(tmp_path):
    backend = memory_dht()
    store = NamespaceStore(tmp_path / "mem")
    fixture = scenario.build_fixture(store, backend, clock=EPOCH)
    assert decide_bob(fixture, backend, EPOCH).decision == "grant"
    revoke_contractor(fixture, store, backend, EPOCH)
    assert decide_bob(fixture, backend, EPOCH).decision == "deny"

    config = DhtConfig(
        node_count=8, replication_factor=5, cache_ttl_us=60_000_000, rng_seed=7
    )
    dht = SimulatedDht(config)
    dht.now_us = EPOCH
    dht_store = NamespaceStore(tmp_path / "dht")
    dht_fixture = scenario.build_fixture(dht_store, dht, clock=EPOCH)
    # Warm every node's response cache with every published label.
    for name in scenario.ISSUING:
        namespace = dht_fixture.key(name).public_key
        for label in dht_store.load_namespace(namespace):
            for node in range(config.node_count):
                dht.get(derive_query_key(namespace, label), dht.now_us, entry_node=node)
    assert decide_bob(dht_fixture, dht, dht.now_us).decision == "grant"

    revoke_contractor(dht_fixture, dht_store, dht, dht.now_us)
    dht.advance_clock(30_000_000)
    # Half a cache lifetime after removal the stale record still grants.
    assert decide_bob(dht_fixture, dht, dht.now_us).decision == "grant"
    dht.advance_clock(30_000_000)
    # One full cache lifetime after removal the denial is mandatory.
    assert decide_bob(dht_fixture, dht, dht.now_us).decision == "deny"


# 6. With replication 5, any 4 failures leave discovery working; losing all 5
#    replicas of a required key with cold caches is an error, never a denial.
def test_6_replication_survives_failures_and_outages_are_errors(tmp_path):
    config = DhtConfig(
        node_count=16, replication_factor=5, cache_ttl_us=60_000_000, rng_seed=11
    )
    dht = SimulatedDht(config)
    dht.now_us = EPOCH
    store = NamespaceStore(tmp_path / "dht")
    fixture = scenario.build_fixture(store, dht, clock=EPOCH)
    rng = random.Random(2026)
    for round_number in range(100):
        down = rng.sample(range(config.node_count), 4)
        dht.fail_nodes(down)
        chain = bob_discovery(fixture, dht)
        assert chain is not None, f"round {round_number}: failures {down}"
        dht.heal_nodes(down)
        # Healed nodes rejoin empty; restore their shares before the next round.
        for name in scenario.ISSUING:
            store.publish(fixture.key(name), dht, dht.now_us)

    cold_config = DhtConfig(
        node_count=16, replication_factor=5, cache_ttl_us=60_000_000, rng_seed=12
    )
    cold = SimulatedDht(cold_config)
    cold.now_us = EPOCH
    cold_store = NamespaceStore(tmp_path / "cold")
    cold_fixture = scenario.build_fixture(cold_store, cold, clock=EPOCH)
    query_key = derive_query_key(cold_fixture.key("portal").public_key, "user")
    cold.fail_nodes(cold.replica_nodes(query_key))
    with pytest.raises(BackendError):
        bob_discovery(cold_fixture, cold)
    decision = decide_bob(cold_fixture, cold, cold.now_us)
    assert decision.decision == "error"
    assert decision.decision != "deny"


# 7. The fixture discovery resolves each (namespace, label) at most once,
#    six resolves in total.
def test_7_discovery_never_resolves_a_label_twice(fixture, backend):
    trace = DiscoveryTrace()
    chain = bob_discovery(fixture, backend, trace)
    assert chain is not None
    resolved = resolves(trace)
    assert len(resolved) <= 6
    assert len(set(resolved)) == len(resolved)
    assert backend.stats().lookups == len(resolved)


# 8. Wire bytes match the golden dumps and are identical across two
#    independently built worlds.
def test_8_wire_bytes_are_stable_across_runs(tmp_path):
    def artifacts(tag: str) -> dict[str, str]:
        store = NamespaceStore(tmp_path / tag)
        fixture = scenario.build_fixture(store, memory_dht(), clock=EPOCH)
        portal = store.load_namespace(fixture.key("portal").public_key)
        (employee,) = (c for c in fixture.bob_creds if c.attribute == "employee")
        cred_record = ResourceRecord(
            RecordType.CRED, employee.canonical_bytes(), employee.expiration_us
        )
        agency = store.load_namespace(fixture.key("world-agency").public_key)
        return {
            "attr-record": portal["user"].records[0].canonical_bytes().hex(),
            "cred-record": cred_record.canonical_bytes().hex(),
            "record-set": canonical_serialize(agency["nado"]).hex(),
        }

    first, second = artifacts("one"), artifacts("two")
    assert first == second
    for name, hexdump in first.items():
        golden = (GOLDEN_DIR / f"{name}.hex").read_text().strip()
        assert hexdump == golden, f"{name} drifted from the golden dump"
    restored = canonical_deserialize(bytes.fromhex(first["record-set"]))
    assert canonical_serialize(restored).hex() == first["record-set"]
