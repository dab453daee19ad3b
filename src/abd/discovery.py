"""Delegation chain discovery: a backward search over role memberships.

A role is one namespace's attribute, ``A.r``, and its members are keys. Each
delegation record under ``A.r`` is a rule: a key joins ``A.r`` once it
satisfies every entry of the record (AND); each record is one alternative
(OR). An entry that names a key is satisfied by that key alone, an entry
``B.s`` by the members of role ``B.s``, and a trail ``B.s.t`` by the members
of a linked role: for each member ``m`` of ``B.s``, the members of ``m.t``.
The subject's credentials make it a member of the roles that issued them.

The search is the backward chain discovery of Li, Winsborough and Mitchell
(JCS 2003) for RT. It starts at the asking namespace's role and resolves
roles until the subject is a member or nothing is left to resolve. A node is
a role, or a link ``prefix.label`` for a trail longer than one label, and
holds the members found so far. A link subscribes to its prefix: for each
member ``m`` of the prefix it creates role ``m.label`` and takes its members.
Nodes are therefore bounded by the records seen, and trails never grow.

Scheduling is deterministic and credential-guided. A role whose every member
matters (a link prefix, or an entry of a record under such a role) is
resolved eagerly in FIFO order. For any other role only the subject's
membership matters: it is checked against the credential set on creation
and resolved lazily otherwise, preferring namespaces that issued one of the
subject's credentials. The result is a reproducible resolve sequence and no
speculative lookups once the goal is reachable.

Every (namespace, label) pair is resolved at most once per call. Dead ends
(a role with no record set, which ``resolve`` returns as None, or with no
records) fail only their own branch; network-class backend
errors abort the whole search, because "could not find out" must never
masquerade as a denial.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import RecordType, ResourceRecord, check_label
from .credential import Credential, export_json, refusal
from .delegation import DelegationSetEntry, decode_attr_payload, render_term
from .errors import BackendError, DecodeError, LimitExceeded
from .netsim import NameSystemBackend, resolve


# Most role and link nodes one search may create. Each node is resolved at
# most once, so this also bounds the lookups.
MAX_NODES = 10_000


# --- trace -------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # resolve | expand | no_credential | credential_match |
    #            dead_end | chain_found | exhausted
    subject: Optional[bytes] = None
    label: Optional[str] = None
    children: Optional[tuple[tuple[bytes, tuple[str, ...]], ...]] = None
    credential: Optional[Credential] = None
    note: Optional[str] = None


@dataclass
class DiscoveryTrace:
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, **kwargs) -> None:
        self.events.append(TraceEvent(**kwargs))

    def render(self, names_by_key: Optional[Mapping[bytes, str]] = None) -> list[str]:
        lines = []
        for event in self.events:
            if event.kind in ("chain_found", "exhausted"):
                lines.append(event.kind)
                continue
            role = render_term(event.subject, [event.label], names_by_key)
            if event.kind == "resolve":
                lines.append(f"resolve {role} -> {event.note}")
            elif event.kind == "expand":
                children = " & ".join(
                    render_term(s, t, names_by_key) for s, t in event.children
                )
                lines.append(f"  rule {role} <- {children}")
            elif event.kind == "no_credential":
                lines.append(f"  no credential for {role}")
            elif event.kind == "credential_match":
                lines.append(f"  credential matches {role}")
            elif event.kind == "dead_end":
                lines.append(f"  dead end at {role}: {event.note}")
        return lines


# --- chains ------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """``member`` is in ``subject.label`` by ``record``.

    ``via`` holds, per record entry, the intermediate members its trail
    passes through: for an entry ``B.s.t``, the ``m`` with ``m`` in ``B.s``
    and ``member`` in ``m.t``. A key or a one-label entry passes through none.
    """

    member: bytes
    subject: bytes
    label: str
    record: ResourceRecord
    via: tuple[tuple[bytes, ...], ...]


@dataclass(frozen=True)
class ChainLeaf:
    """``member`` is in ``subject.label`` by one of the subject's credentials."""

    member: bytes
    subject: bytes
    label: str
    credential: Credential


@dataclass(frozen=True)
class DelegationChain:
    issuer: bytes
    attribute: str
    steps: tuple[ChainStep, ...]
    leaves: tuple[ChainLeaf, ...]

    def credentials(self) -> list[Credential]:
        return [leaf.credential for leaf in self.leaves]

    def to_dict(self, names_by_key: Optional[Mapping[bytes, str]] = None) -> dict:
        names_by_key = names_by_key or {}

        def name(key: bytes) -> str:
            return names_by_key.get(key, key.hex())

        return {
            "root": render_term(self.issuer, (self.attribute,), names_by_key),
            "issuer": self.issuer.hex(),
            "attribute": self.attribute,
            "steps": [
                {
                    "at": render_term(step.subject, (step.label,), names_by_key),
                    "member": name(step.member),
                    "namespace": step.subject.hex(),
                    "label": step.label,
                    "record": step.record.canonical_bytes().hex(),
                    "via": [[name(key) for key in keys] for keys in step.via],
                }
                for step in self.steps
            ],
            "leaves": [
                {
                    "at": render_term(leaf.subject, (leaf.label,), names_by_key),
                    "member": name(leaf.member),
                    "credential": export_json(leaf.credential),
                }
                for leaf in self.leaves
            ],
        }


# (member, namespace, label): member is in the role namespace.label.
_Obligation = tuple[bytes, bytes, str]


def _obligations(
    entry: DelegationSetEntry, via: tuple[bytes, ...], member: bytes
) -> Iterator[_Obligation]:
    """The memberships (member, namespace, label) by which ``member``
    satisfies ``entry``, given the intermediate members of its trail."""
    subject = entry.subject
    for label, next_member in zip(entry.trail, via + (member,)):
        yield next_member, subject, label
        subject = next_member


# --- search ------------------------------------------------------------------


class _Node:
    """A role (one-label trail) or a link (longer trail) and its members.

    ``members`` maps each member to how it joined: for a role, the
    credential or rule that added it; for a link, the member of the prefix
    whose role it came from.
    """

    __slots__ = (
        "subject",
        "trail",
        "members",
        "every",
        "resolved",
        "prefix",
        "rules",
        "links",
        "feeds",
        "terms",
    )

    def __init__(self, subject: bytes, trail: tuple[str, ...], every: bool):
        self.subject = subject
        self.trail = trail
        self.members: dict[bytes, object] = {}
        self.every = every  # every member wanted, not only the subject
        self.resolved = False
        self.prefix: Optional[_Node] = None  # links only
        # A node fills few of these (1.2 of the four on average, in searches
        # over small and large federations alike), so each starts as the
        # shared empty tuple and becomes a list at its first entry.
        self.rules: Sequence[_Rule] = ()  # rules with this node as an entry
        self.links: Sequence[_Node] = ()  # links with this node as their prefix
        self.feeds: Sequence[_Node] = ()  # links that take this role's members
        self.terms: Sequence[_Node] = ()  # entry nodes of this role's rules


class _Rule:
    """One resolved record: adds a key to ``owner`` once every entry holds it.

    ``terms`` has the node of each entry, or None for an entry naming a key.
    """

    __slots__ = ("owner", "record", "entries", "terms")

    def __init__(self, owner: _Node, record: ResourceRecord, entries, terms):
        self.owner = owner
        self.record = record
        self.entries: tuple[DelegationSetEntry, ...] = entries
        self.terms: tuple[Optional[_Node], ...] = terms

    def holds(self, key: bytes) -> bool:
        return all(
            key == entry.subject if term is None else key in term.members
            for entry, term in zip(self.entries, self.terms)
        )


def discover(
    issuer_pub: bytes,
    attribute: str,
    subject_pub: bytes,
    subject_creds: Iterable[Credential],
    backend: NameSystemBackend,
    clock: int,
    trace: Optional[DiscoveryTrace] = None,
) -> Optional[DelegationChain]:
    """Find a delegation chain from issuer.attribute to the subject.

    Returns None when the search space is exhausted without a chain. The
    node budget, MAX_NODES, raises LimitExceeded when hit. Network-class
    backend errors propagate: an unreachable name system is not a denial.

    Each resolved record takes the shortest path for its shape. A record
    naming one key admits that key. A record with one one-label entry, such
    as ``agency.dco <- lab.dco``, subscribes its role to that entry's role.
    Only a conjunction or a trail builds a node per entry and checks each
    candidate member against every entry.
    """
    check_label(attribute)
    tracing = trace is not None

    # A credential ``refusal`` refuses (another key's, expired or forged) can
    # never close an obligation; drop it up front. Deterministic order makes
    # credential choice stable.
    usable = sorted(
        (c for c in subject_creds if refusal(c, subject_pub, clock) is None),
        key=lambda c: c.canonical_bytes(),
    )
    cred_index: dict[tuple[bytes, str], Credential] = {}
    for cred in usable:
        cred_index.setdefault((cred.issuer, cred.attribute), cred)
    hinted_issuers = {cred.issuer for cred in usable}

    # A role is keyed by (namespace, label), as the credentials are, and a
    # link by (namespace, trail).
    nodes: dict[tuple[bytes, str | tuple[str, ...]], _Node] = {}
    queue_every: deque[_Node] = deque()
    queue_hinted: deque[_Node] = deque()  # namespace issued a credential
    queue_cold: deque[_Node] = deque()

    def role(subject: bytes, label: str, every: bool) -> _Node:
        ident = (subject, label)
        node = nodes.get(ident)
        if node is not None:
            if every:
                want_all(node)
            return node
        if len(nodes) >= MAX_NODES:
            raise LimitExceeded("max_nodes", MAX_NODES)
        node = nodes[ident] = _Node(subject, (label,), every)
        credential = cred_index.get(ident)
        if tracing:
            trace.add(
                kind="no_credential" if credential is None else "credential_match",
                subject=subject,
                label=label,
                credential=credential,
            )
        if credential is not None:
            add(node, subject_pub, credential)
        if every:
            queue_every.append(node)
        elif credential is None:
            (queue_hinted if subject in hinted_issuers else queue_cold).append(node)
        return node

    def link(prefix: _Node, label: str, every: bool) -> _Node:
        trail = prefix.trail + (label,)
        ident = (prefix.subject, trail)
        node = nodes.get(ident)
        if node is not None:
            if every:
                want_all(node)
            return node
        if len(nodes) >= MAX_NODES:
            raise LimitExceeded("max_nodes", MAX_NODES)
        node = nodes[ident] = _Node(prefix.subject, trail, every)
        node.prefix = prefix
        if prefix.links:
            prefix.links.append(node)
        else:
            prefix.links = [node]
        for member in list(prefix.members):
            join(node, member)
        return node

    def term(entry: DelegationSetEntry, every: bool) -> _Node:
        """The node whose members satisfy a one-or-more-label entry."""
        trail = entry.trail
        node = role(entry.subject, trail[0], every or len(trail) > 1)
        for position in range(1, len(trail)):
            node = link(node, trail[position], every or position < len(trail) - 1)
        return node

    def join(target: _Node, member: bytes) -> None:
        """``member`` joined the prefix of ``target``: take member.label's members."""
        source = role(member, target.trail[-1], target.every)
        if source.feeds:
            source.feeds.append(target)
        else:
            source.feeds = [target]
        for key in list(source.members):
            add(target, key, member)

    def add(node: _Node, member: bytes, why: object) -> None:
        pending = deque([(node, member, why)])
        while pending:
            node, member, why = pending.popleft()
            if member in node.members:
                continue
            node.members[member] = why
            for rule in node.rules:
                if rule.holds(member):
                    pending.append((rule.owner, member, rule))
            for target in node.feeds:
                pending.append((target, member, node.subject))
            for target in node.links:
                join(target, member)

    def want_all(node: _Node) -> None:
        stack = [node]
        while stack:
            node = stack.pop()
            if node.every:
                continue
            node.every = True
            if node.prefix is not None:
                # A member whose join is still to come gets its role from
                # ``join``, which reads ``every`` then.
                label = node.trail[-1]
                roles = (nodes.get((m, label)) for m in node.prefix.members)
                stack.extend(r for r in roles if r is not None)
            else:
                if not node.resolved:
                    queue_every.append(node)
                stack.extend(node.terms)

    def subscribe(rule: _Rule, entry_node: _Node) -> None:
        """Hand ``rule`` each member ``entry_node`` gains from now on."""
        owner = rule.owner
        if owner.terms:
            owner.terms.append(entry_node)
        else:
            owner.terms = [entry_node]
        if entry_node.rules:
            entry_node.rules.append(rule)
        else:
            entry_node.rules = [rule]

    def expand(node: _Node) -> None:
        node.resolved = True
        subject, label = node.subject, node.trail[0]
        records = resolve(label, subject, RecordType.ATTR, backend, clock)
        if tracing:
            trace.add(
                kind="resolve",
                subject=subject,
                label=label,
                note="not found" if records is None else f"{len(records)} record(s)",
            )
        if not records:
            if tracing:
                trace.add(
                    kind="dead_end",
                    subject=subject,
                    label=label,
                    note="nothing delegated" if records is not None else "no record set",
                )
            return
        for record in records:
            try:
                expr = decode_attr_payload(record.payload)
            except DecodeError as exc:
                if tracing:
                    trace.add(
                        kind="dead_end",
                        subject=subject,
                        label=label,
                        note=f"malformed record skipped: {exc}",
                    )
                continue
            if tracing:
                trace.add(
                    kind="expand",
                    subject=subject,
                    label=label,
                    children=tuple((e.subject, e.trail) for e in expr.entries),
                )
            entries = expr.entries
            if len(entries) == 1:
                entry = entries[0]
                trail = entry.trail
                if not trail:
                    # The record names one key: it admits that key and no
                    # other, and has no entry node to subscribe to.
                    add(node, entry.subject, _Rule(node, record, entries, (None,)))
                    continue
                if len(trail) == 1:
                    # The record admits every member of one role: subscribe
                    # to it. ``role`` makes it want every member when this
                    # node does, and creating a role cannot change this
                    # node's ``every``, so there is nothing to fix up.
                    entry_node = role(entry.subject, trail[0], node.every)
                    rule = _Rule(node, record, entries, (entry_node,))
                    subscribe(rule, entry_node)
                    for key in list(entry_node.members):
                        add(node, key, rule)
                    continue
            terms = tuple(
                term(entry, node.every) if entry.trail else None
                for entry in entries
            )
            rule = _Rule(node, record, entries, terms)
            for entry_node in dict.fromkeys(t for t in terms if t is not None):
                # A term's creation may have made this role want every member.
                if node.every:
                    want_all(entry_node)
                subscribe(rule, entry_node)
            first = terms[0]
            candidates = [entries[0].subject] if first is None else list(first.members)
            for key in candidates:
                if rule.holds(key):
                    add(node, key, rule)

    try:
        root = role(issuer_pub, attribute, False)
        while subject_pub not in root.members:
            for queue in (queue_every, queue_hinted, queue_cold):
                if queue:
                    node = queue.popleft()
                    break
            else:
                break
            if not node.resolved:
                expand(node)

        if subject_pub not in root.members:
            if tracing:
                trace.add(kind="exhausted")
            return None
        if tracing:
            trace.add(kind="chain_found")
        return _build_chain(nodes, issuer_pub, attribute, subject_pub)
    finally:
        # The search is cyclic: a rule's owner lists the entry nodes that
        # hold the rule, a member maps to the rule that admitted it, a link
        # and its prefix point at each other, and the functions above hold
        # one another and the queues. Cutting the nodes loose lets reference
        # counting free the search as it returns; left to the cyclic
        # collector, searches pile up and its full passes grow.
        for node in nodes.values():
            node.members.clear()
            node.rules = node.terms = node.links = node.feeds = ()
        nodes.clear()
        for queue in (queue_every, queue_hinted, queue_cold):
            queue.clear()


def _via(node: _Node, member: bytes) -> tuple[bytes, ...]:
    """The intermediate members by which ``member`` joined a term's node."""
    path = []
    while node.prefix is not None:
        member = node.members[member]
        path.append(member)
        node = node.prefix
    return tuple(reversed(path))


def _build_chain(
    nodes: Mapping[tuple[bytes, str | tuple[str, ...]], _Node],
    issuer: bytes,
    attribute: str,
    subject_pub: bytes,
) -> DelegationChain:
    steps: list[ChainStep] = []
    leaves: list[ChainLeaf] = []
    seen: set[_Obligation] = set()
    queue = deque([(subject_pub, issuer, attribute)])
    while queue:
        obligation = queue.popleft()
        if obligation in seen:
            continue
        seen.add(obligation)
        member, subject, label = obligation
        why = nodes[(subject, label)].members[member]
        if isinstance(why, Credential):
            leaves.append(ChainLeaf(member, subject, label, why))
            continue
        via = tuple(() if t is None else _via(t, member) for t in why.terms)
        steps.append(ChainStep(member, subject, label, why.record, via))
        for entry, keys in zip(why.entries, via):
            queue.extend(_obligations(entry, keys, member))
    return DelegationChain(
        issuer=issuer, attribute=attribute, steps=tuple(steps), leaves=tuple(leaves)
    )


# --- chain verification --------------------------------------------------------


def verify_chain(
    chain: DelegationChain,
    subject_pub: bytes,
    backend: NameSystemBackend,
    clock: int,
) -> bool:
    """Does a chain hold against the current name system state?

    The subject must be a member of the chain's root. Every membership a
    step claims must follow from a record that resolves right now, each of
    that record's entries must hold for the member through the intermediate
    members the step names, and each of those memberships is an obligation
    of its own. Every leaf must be a live credential for the subject.
    Obligations are walked depth first without recursion, so a chain of
    any length is checked. Never raises.
    """
    steps = {(step.member, step.subject, step.label): step for step in chain.steps}

    def check_leaf(leaf: ChainLeaf) -> bool:
        credential = leaf.credential
        return (
            credential.issuer == leaf.subject
            and credential.attribute == leaf.label
            and leaf.member == subject_pub
            and refusal(credential, leaf.member, clock) is None
        )

    def check_step(member: bytes, subject: bytes, label: str) -> Optional[list[_Obligation]]:
        """The obligations a step rests on, or None when the step is wrong."""
        step = steps.get((member, subject, label))
        if step is None:
            return None
        try:
            records = resolve(label, subject, RecordType.ATTR, backend, clock)
        except BackendError:
            return None
        # Records are equal exactly when their canonical bytes are: each
        # field is encoded, and nothing else is.
        if records is None or step.record not in records:
            return None
        try:
            expr = decode_attr_payload(step.record.payload)
        except DecodeError:
            return None
        if len(step.via) != len(expr.entries) or any(
            len(keys) != max(len(entry.trail) - 1, 0)
            for entry, keys in zip(expr.entries, step.via)
        ):
            return None
        if any(not e.trail and e.subject != member for e in expr.entries):
            return None  # an entry names another key
        return [
            obligation
            for entry, keys in zip(expr.entries, step.via)
            for obligation in _obligations(entry, keys, member)
        ]

    if not all(check_leaf(leaf) for leaf in chain.leaves):
        return False
    leaves = {(leaf.member, leaf.subject, leaf.label) for leaf in chain.leaves}
    # False while an obligation's own obligations are open, True once done:
    # meeting a False one again closes a cycle.
    done: dict[_Obligation, bool] = {}
    stack: list[tuple[_Obligation, bool]] = [
        ((subject_pub, chain.issuer, chain.attribute), False)
    ]
    while stack:
        obligation, leaving = stack.pop()
        if leaving:
            done[obligation] = True
        elif obligation in leaves:
            continue
        elif obligation in done:
            if not done[obligation]:
                return False
        else:
            below = check_step(*obligation)
            if below is None:
                return False
            done[obligation] = False
            stack.append((obligation, True))
            stack.extend((o, False) for o in reversed(below))
    return True


# --- independent entailment oracle ----------------------------------------------


def oracle_entailed(
    delegations: Iterable[tuple[bytes, str, object]],
    credentials: Iterable[Credential],
    issuer_pub: bytes,
    attribute: str,
    subject_pub: bytes,
) -> bool:
    """Least-fixpoint membership check over the full delegation set.

    ``delegations`` are (issuer, attribute, DelegationExpression) triples; a
    trail is evaluated left to right by frontier expansion, which is the
    standard normalization of linked attributes through auxiliary roles.
    Credentials are taken at face value; filter expired ones before calling.
    Used as the ground truth that discovery is checked against.
    """
    members: dict[tuple[bytes, str], set[bytes]] = {}
    for cred in credentials:
        members.setdefault((cred.issuer, cred.attribute), set()).add(cred.subject)

    rules = list(delegations)

    def trail_members(subject: bytes, trail: tuple[str, ...]) -> set[bytes]:
        frontier = {subject}
        for label in trail:
            frontier = set().union(
                *(members.get((entity, label), set()) for entity in frontier)
            )
            if not frontier:
                break
        return frontier

    changed = True
    while changed:
        changed = False
        for issuer, attr, expr in rules:
            entries = expr.entries
            satisfying = trail_members(entries[0].subject, entries[0].trail)
            for entry in entries[1:]:
                if not satisfying:
                    break
                satisfying &= trail_members(entry.subject, entry.trail)
            if not satisfying:
                continue
            target = members.setdefault((issuer, attr), set())
            before = len(target)
            target |= satisfying
            if len(target) != before:
                changed = True
    return subject_pub in members.get((issuer_pub, attribute), set())
