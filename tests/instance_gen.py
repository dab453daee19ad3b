"""Seeded random delegation worlds for equivalence and soundness testing.

An instance is a complete, published micro-world: a handful of namespaces,
their delegation records, one requesting subject, and that subject's
credentials. Generation is bounded (at most 10 namespaces, 4 attributes per
namespace, 3 records per label, 3 entries per record, trails of length 3,
6 credentials) so the exhaustive fixpoint oracle stays cheap while the
search still meets disjunction, conjunction, trails, cycles, and dead ends.

Also shared by the suite: the in-memory name system every in-process test
publishes to, a decision against a freshly issued nonce, and the lookups a
discovery trace records.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable

from abd.authz import AuthorizationResponse, AuthzDecision, NonceTable, Policy, authorize
from abd.core import NamespaceKey, RecordType, ResourceRecord, sign_record_set
from abd.credential import Credential, issue_credential, verify_credential
from abd.delegation import DelegationExpression, encode_attr_payload, expression
from abd.discovery import DelegationChain, DiscoveryTrace
from abd.netsim import DhtConfig, SimulatedDht, derive_query_key

CLOCK = 1_750_000_000_000_000
HOUR = 3_600_000_000
LABELS = ["a", "b", "c", "d"]

# One node holding every key, no response cache: an exact in-memory map.
ONE_NODE = DhtConfig(node_count=1, replication_factor=1, cache_ttl_us=0)


def memory_dht() -> SimulatedDht:
    """A fresh in-memory name system; ``fail_nodes([0])`` takes it down."""
    return SimulatedDht(ONE_NODE)


def decide_fresh(
    verifier_pub: bytes,
    respond: Callable[[bytes], AuthorizationResponse],
    policy: Policy,
    backend,
    clock: int,
) -> AuthzDecision:
    """Issue a nonce for the policy, and decide ``respond(nonce)``."""
    table = NonceTable()
    response = respond(table.issue(policy.resource_id, clock))
    return authorize(verifier_pub, response, policy, backend, clock, nonce_table=table)


def resolves(trace: DiscoveryTrace) -> list[tuple[bytes, str]]:
    """The (namespace, label) of each resolve in ``trace``, in order."""
    return [(e.subject, e.label) for e in trace.events if e.kind == "resolve"]


@dataclass
class Instance:
    namespaces: list[NamespaceKey]
    subject: NamespaceKey
    # (issuer public key, attribute, expression) triples; the oracle's view.
    delegations: list[tuple[bytes, str, DelegationExpression]]
    credentials: list[Credential]
    root_issuer: bytes
    root_attribute: str

    def live_credentials(self, clock: int = CLOCK) -> list[Credential]:
        return [c for c in self.credentials if verify_credential(c, clock)]


def generate_instance(rng: random.Random) -> Instance:
    n_namespaces = rng.randint(1, 10)
    namespaces = [
        NamespaceKey.generate(seed=rng.randbytes(32)) for _ in range(n_namespaces)
    ]
    subject = NamespaceKey.generate(seed=rng.randbytes(32))
    subject_pool = [ns.public_key for ns in namespaces] + [subject.public_key]

    delegations = []
    for namespace in namespaces:
        for label in rng.sample(LABELS, rng.randint(0, 4)):
            for _ in range(rng.randint(1, 3)):
                entries = []
                for _ in range(rng.randint(1, 3)):
                    entries.append(
                        (
                            rng.choice(subject_pool),
                            [rng.choice(LABELS) for _ in range(rng.randint(0, 3))],
                        )
                    )
                expr = expression(entries)
                if any(d == (namespace.public_key, label, expr) for d in delegations):
                    continue
                delegations.append((namespace.public_key, label, expr))

    credentials = []
    for _ in range(rng.randint(0, 6)):
        issuer = rng.choice(namespaces)
        # An occasional expired credential exercises the search's own filter.
        lifetime = HOUR if rng.random() > 0.1 else 0
        credentials.append(
            issue_credential(
                issuer,
                subject.public_key,
                rng.choice(LABELS),
                clock=CLOCK,
                lifetime_us=lifetime,
            )
        )

    return Instance(
        namespaces=namespaces,
        subject=subject,
        delegations=delegations,
        credentials=credentials,
        root_issuer=namespaces[0].public_key,
        root_attribute=rng.choice(LABELS),
    )


def publish_instance(instance: Instance) -> SimulatedDht:
    """Sign and publish every delegation; assert issuer-side storage."""
    backend = memory_dht()
    by_owner_label: dict[tuple[bytes, str], list[ResourceRecord]] = {}
    for issuer_pub, label, expr in instance.delegations:
        record = ResourceRecord(
            RecordType.ATTR, encode_attr_payload(expr), CLOCK + 24 * HOUR
        )
        by_owner_label.setdefault((issuer_pub, label), []).append(record)
    keys_by_pub = {ns.public_key: ns for ns in instance.namespaces}
    for (issuer_pub, label), records in by_owner_label.items():
        owner = keys_by_pub[issuer_pub]  # only the issuer can hold its records
        record_set = sign_record_set(owner, label, records)
        backend.put(derive_query_key(issuer_pub, label), record_set, CLOCK)
    return backend


# --- chain mutations ----------------------------------------------------------

MUTATION_KINDS = ("dropped_step", "swapped_credential_subject", "expired_leaf")


def mutate_chain(
    chain: DelegationChain,
    kind: str,
    instance: Instance,
    rng: random.Random,
):
    """Return a broken variant of the chain, or None if inapplicable."""
    keys_by_pub = {ns.public_key: ns for ns in instance.namespaces}
    if kind == "dropped_step":
        if not chain.steps:
            return None
        index = rng.randrange(len(chain.steps))
        return dataclasses.replace(
            chain, steps=chain.steps[:index] + chain.steps[index + 1 :]
        )
    if not chain.leaves:
        return None
    index = rng.randrange(len(chain.leaves))
    leaf = chain.leaves[index]
    issuer = keys_by_pub.get(leaf.credential.issuer)
    if issuer is None:
        return None
    if kind == "swapped_credential_subject":
        other = NamespaceKey.generate(seed=rng.randbytes(32))
        replacement = issue_credential(
            issuer, other.public_key, leaf.credential.attribute,
            clock=CLOCK, lifetime_us=HOUR,
        )
    elif kind == "expired_leaf":
        replacement = issue_credential(
            issuer, leaf.credential.subject, leaf.credential.attribute,
            clock=CLOCK, lifetime_us=0,
        )
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    mutated = dataclasses.replace(leaf, credential=replacement)
    leaves = chain.leaves[:index] + (mutated,) + chain.leaves[index + 1 :]
    return dataclasses.replace(chain, leaves=leaves)


# --- a search too wide for the default node budget -----------------------------


def publish_fan_out(
    portal: NamespaceKey, width: int = 10_000, clock: int = CLOCK
) -> SimulatedDht:
    """``portal.user <- portal.staff.a`` and ``width`` single-key records
    under ``portal.staff``.

    The link ``portal.staff.a`` makes one role per staff member, so at the
    default width the search runs into the default node budget.
    """
    def records(exprs):
        return [
            ResourceRecord(RecordType.ATTR, encode_attr_payload(e), clock + 24 * HOUR)
            for e in exprs
        ]

    user = [expression([(portal.public_key, ["staff", "a"])])]
    staff = [expression([(i.to_bytes(32, "big"), [])]) for i in range(width)]
    backend = memory_dht()
    for label, exprs in (("user", user), ("staff", staff)):
        backend.put(
            derive_query_key(portal.public_key, label),
            sign_record_set(portal, label, records(exprs)),
            clock,
        )
    return backend
